import math
import os
import struct

import numpy as np
import pytest

from cylseg.cli import main
from cylseg.config import ConfigError, load_config
from cylseg.metrics import ConfusionMatrix, compute_miou, format_iou_table
from cylseg.network import SegmentationNetwork, save_checkpoint
from cylseg.pointcloud import (
    SyntheticSceneSpec,
    generate_synthetic_scene,
    read_raw_label_ids,
    write_kitti_bin,
    write_kitti_labels,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TINY_CFG = """\
[grid]
rho_min = 0
rho_max = 12
z_min = -1
z_max = 6
radius_bins = 16
azimuth_bins = 16
height_bins = 4

[network]
num_classes = 3
base_channels = 4
stages = 2
block_variant = asym
point_mlp_widths = 8

[data]
kind = synthetic
train_scenes = 2
val_scenes = 1
points = 512
seed = 0
max_range = 12

[train]
epochs = 1
lr = 1e-3
seed = 0

[stats]
scenes = 2
points = 2048
seed = 0
"""


@pytest.fixture
def tiny_cfg(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CFG)
    return path


# ----------------------------------------------------------- confusion matrix


def test_confusion_diagonal_on_perfect_predictions():
    cm = ConfusionMatrix(3)
    truth = np.array([0, 1, 2, 2])
    cm.update(truth, truth)
    assert cm.counts.sum() == 4
    assert np.trace(cm.counts) == 4


def test_confusion_single_off_diagonal_pair():
    cm = ConfusionMatrix(3)
    cm.update(np.array([1]), np.array([2]))
    assert cm.counts[1, 2] == 1
    assert cm.counts.sum() == 1


def test_confusion_merge_equals_sequential_updates():
    rng = np.random.default_rng(70)
    truth = rng.integers(0, 4, size=100)
    pred = rng.integers(0, 4, size=100)

    seq = ConfusionMatrix(4)
    seq.update(truth[:50], pred[:50])
    seq.update(truth[50:], pred[50:])

    a = ConfusionMatrix(4)
    b = ConfusionMatrix(4)
    a.update(truth[:50], pred[:50])
    b.update(truth[50:], pred[50:])
    np.testing.assert_array_equal(a.merge(b).counts, seq.counts)


def test_confusion_skips_ignored_truth():
    cm = ConfusionMatrix(2, ignore_id=255)
    cm.update(np.array([0, 255, 1]), np.array([0, 1, 1]))
    assert cm.counts.sum() == 2


def test_confusion_rejects_out_of_range_ids():
    cm = ConfusionMatrix(2)
    with pytest.raises(ValueError):
        cm.update(np.array([0]), np.array([5]))


def test_miou_perfect_diagonal():
    cm = ConfusionMatrix(3)
    cm.update(np.array([0, 1, 2]), np.array([0, 1, 2]))
    iou, miou = compute_miou(cm)
    np.testing.assert_array_equal(iou, [1.0, 1.0, 1.0])
    assert miou == 1.0


def test_miou_hand_computed_two_class_case():
    # counts [[1,1],[0,1]]: class 0 has 1 TP 1 FN, class 1 has 1 TP 1 FP
    cm = ConfusionMatrix(2)
    cm.update(np.array([0, 0, 1]), np.array([0, 1, 1]))
    iou, miou = compute_miou(cm)
    np.testing.assert_allclose(iou, [0.5, 0.5])
    assert miou == pytest.approx(0.5)


def test_miou_excludes_absent_classes():
    cm = ConfusionMatrix(3)
    cm.update(np.array([0, 1]), np.array([0, 1]))
    iou, miou = compute_miou(cm)
    assert math.isnan(iou[2])
    assert miou == 1.0


def test_miou_empty_matrix_is_nan():
    _, miou = compute_miou(ConfusionMatrix(3))
    assert math.isnan(miou)


def test_iou_table_formatting():
    iou = np.array([0.5, float("nan"), 1.0])
    table = format_iou_table(iou, 0.75, class_names=["ground", "pole", "box"])
    assert "50.0" in table and "100.0" in table and "75.0" in table
    assert "n/a" in table
    assert "pole" in table


# -------------------------------------------------------------------- config


def test_load_tiny_config(tiny_cfg):
    cfg = load_config(tiny_cfg)
    assert cfg.network.num_classes == 3
    assert cfg.grid.resolution == (16, 16, 4)
    assert cfg.data.train_scenes == 2
    assert cfg.train.epochs == 1
    assert cfg.stats.points == 2048


def test_config_without_optional_sections_keeps_the_defaults(tmp_path):
    path = tmp_path / "minimal.cfg"
    path.write_text("[network]\nnum_classes = 3\n")
    cfg = load_config(path)
    data = cfg.data
    assert (data.kind, data.train_scenes, data.val_scenes, data.points, data.seed) == (
        "synthetic", 12, 4, 4096, 0
    )
    assert (data.max_range, data.scans, data.labels) == (50.0, None, None)
    assert (cfg.train.epochs, cfg.train.lr, cfg.train.seed) == (10, 1e-3, 0)
    stats = cfg.stats
    assert (stats.scenes, stats.points, stats.seed) == (20, 131072, 0)
    assert stats.edges == tuple(float(e) for e in range(0, 55, 5))
    assert cfg.ignore_id == 255
    grid = cfg.grid
    assert (grid.rho_range, grid.z_range, grid.resolution) == (
        (0.0, 50.0), (-4.0, 2.0), (480, 360, 32)
    )
    # without [cubic], the comparison grid is the cylinder's bounding box
    # with the same cell counts
    cubic = cfg.cubic
    assert (cubic.x_range, cubic.y_range, cubic.z_range, cubic.resolution) == (
        (-50.0, 50.0), (-50.0, 50.0), (-4.0, 2.0), (480, 360, 32)
    )
    net = cfg.network
    assert (net.base_channels, net.stages, net.block_variant) == (8, 2, "asym")
    assert (net.point_mlp_widths, net.leaky_slope) == ((32,), 0.1)


def test_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text(TINY_CFG + "\n[train]\nmomentum = 0.9\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_config_rejects_unknown_section(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text(TINY_CFG + "\n[optimizer]\nlr = 1\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_config_requires_num_classes(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[network]\nbase_channels = 4\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_config_missing_file():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/path.cfg")


def _tiny_cfg_with(section, key, value):
    """TINY_CFG with ``key = value`` as the only ``key`` line, in ``[section]``."""
    lines = [line for line in TINY_CFG.splitlines() if not line.startswith(f"{key} =")]
    lines.insert(lines.index(f"[{section}]") + 1, f"{key} = {value}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("grid", "z_min", "nan"),
        ("grid", "rho_max", "inf"),
        ("stats", "edges", "nan,10,20"),
        ("train", "lr", "nan"),
    ],
)
def test_config_rejects_non_finite_numbers(tmp_path, capsys, section, key, value):
    path = tmp_path / "bad.cfg"
    path.write_text(_tiny_cfg_with(section, key, value))
    out = tmp_path / "occ.csv"
    assert main(["stats", "--config", str(path), "--output", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert f"[{section}] {key}" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("slope", ["-0.1", "1.5"])
def test_config_rejects_leaky_slope_outside_0_to_1(tmp_path, capsys, slope):
    # inference runs leaky ReLU as max(x, slope * x), which needs 0 <= slope <= 1
    path = tmp_path / "bad.cfg"
    path.write_text(_tiny_cfg_with("network", "leaky_slope", slope))
    assert main(["stats", "--config", str(path), "--output", str(tmp_path / "o.csv")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "leaky_slope" in err[0]


def test_config_labelmap_parses_ignore(tmp_path):
    path = tmp_path / "lm.cfg"
    path.write_text(
        "[network]\nnum_classes = 2\n\n[labelmap]\n0 = ignore\n10 = 0\n11 = 1\n"
    )
    cfg = load_config(path)
    assert cfg.label_map.remap(np.array([0, 10, 11])).tolist() == [255, 0, 1]


def test_config_files_kind_requires_scans(tmp_path):
    path = tmp_path / "f.cfg"
    path.write_text("[network]\nnum_classes = 2\n\n[data]\nkind = files\n")
    with pytest.raises(ConfigError):
        load_config(path)


# ----------------------------------------------------------------------- CLI


def test_cli_no_arguments_is_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_cli_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_cli_bad_config_path_is_config_error(capsys):
    assert main(["stats", "--config", "/nonexistent.cfg", "--output", "/tmp/x.csv"]) == 2
    capsys.readouterr()


def test_cli_stats_writes_csv(tiny_cfg, tmp_path, capsys):
    out = tmp_path / "occ.csv"
    assert main(["stats", "--config", str(tiny_cfg), "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "scheme,distance_lo,distance_hi,nonempty_proportion"
    assert any(line.startswith("cylindrical,") for line in lines[1:])
    assert any(line.startswith("cubic,") for line in lines[1:])
    capsys.readouterr()


def test_cli_bound_reports_both_modes(tiny_cfg, tmp_path, capsys):
    out = tmp_path / "bound.csv"
    assert main(["bound", "--config", str(tiny_cfg), "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "cloud,mode,miou"
    modes = {line.split(",")[1] for line in lines[1:]}
    assert modes == {"majority", "minority"}
    capsys.readouterr()


def test_cli_train_eval_infer_round_trip(tiny_cfg, tmp_path, capsys):
    ckpt = tmp_path / "net.ckpt"
    metrics = tmp_path / "metrics.csv"
    assert main([
        "train", "--config", str(tiny_cfg),
        "--output", str(ckpt), "--metrics", str(metrics),
    ]) == 0
    assert ckpt.exists()
    assert metrics.read_text().splitlines()[0].startswith("epoch,")
    capsys.readouterr()

    assert main(["eval", "--config", str(tiny_cfg), "--checkpoint", str(ckpt)]) == 0
    eval_out = capsys.readouterr().out
    assert "mIoU" in eval_out
    assert "excluded" in eval_out  # the empty-class disclaimer

    pred_dir = tmp_path / "preds"
    pred_dir.mkdir()
    assert main([
        "infer", "--config", str(tiny_cfg), "--checkpoint", str(ckpt),
        "--output", str(pred_dir),
    ]) == 0
    capsys.readouterr()
    files = sorted(pred_dir.glob("*.label"))
    assert files
    ids = read_raw_label_ids(files[0])
    assert ids.shape == (512,)

    # file-based eval over the emitted predictions must agree with the
    # checkpoint eval on the same validation scenes
    assert main([
        "eval", "--config", str(tiny_cfg), "--predictions", str(pred_dir),
    ]) == 0
    pred_out = capsys.readouterr().out
    assert pred_out == eval_out


@pytest.mark.parametrize("count", [511, 513, 0])
def test_cli_eval_rejects_predictions_of_another_length_in_one_line(
    count, tiny_cfg, tmp_path, capsys
):
    # the tiny config's one validation scene has 512 points
    preds = tmp_path / "preds"
    preds.mkdir()
    label = preds / "scene_0000.label"
    write_kitti_labels(label, np.zeros(count, dtype=np.int64))
    code = main(["eval", "--config", str(tiny_cfg), "--predictions", str(preds)])
    err = capsys.readouterr().err.splitlines()
    assert code == 1
    assert err == [f"error: {label}: {count} labels for a scan of 512 points"]


def test_cli_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "ok" in out


def _header_len(ckpt: bytes) -> int:
    return struct.unpack_from("<I", ckpt, 8)[0]


def _header(ckpt: bytes) -> str:
    return ckpt[12 : 12 + _header_len(ckpt)].decode("utf-8")


def _with_header(ckpt: bytes, header: str) -> bytes:
    """``ckpt`` with its config header replaced by ``header``."""
    encoded = header.encode("utf-8")
    return ckpt[:8] + struct.pack("<I", len(encoded)) + encoded + ckpt[12 + _header_len(ckpt) :]


def _garble_first_tensor(ckpt: bytes, part: str) -> bytes:
    """Corrupt the first CYLT entry: its name bytes or its ndim field."""
    start = 12 + _header_len(ckpt) + 12  # past the CYLT magic, version and count
    (name_len,) = struct.unpack_from("<I", ckpt, start)
    name_at, ndim_at = start + 4, start + 4 + name_len
    if part == "name":
        return ckpt[:name_at] + b"\xff" * name_len + ckpt[ndim_at:]
    return ckpt[:ndim_at] + struct.pack("<I", 2**31) + ckpt[ndim_at + 4 :]


MALFORMED_CHECKPOINTS = {
    "empty": lambda c: b"",
    "cut_in_magic": lambda c: c[:3],
    "cut_in_lengths": lambda c: c[:9],
    "cut_at_20": lambda c: c[:20],
    "cut_in_header": lambda c: c[: 12 + _header_len(c) - 5],
    "cut_after_header": lambda c: c[: 12 + _header_len(c)],
    "cut_in_tensor_count": lambda c: c[: 12 + _header_len(c) + 6],
    "cut_in_last_tensor": lambda c: c[:-8],
    "header_longer_than_file": lambda c: c[:8] + struct.pack("<I", len(c)) + c[12:],
    "unknown_key": lambda c: _with_header(c, _header(c) + "foo = 1\n"),
    "missing_key": lambda c: _with_header(c, _header(c).replace("stages = 2\n", "")),
    "duplicate_key": lambda c: _with_header(c, _header(c) + "stages = 2\n"),
    "non_integer_stages": lambda c: _with_header(
        c, _header(c).replace("stages = 2\n", "stages = two\n")
    ),
    "non_finite_grid": lambda c: _with_header(
        c, _header(c).replace("rho_max = 12.0\n", "rho_max = nan\n")
    ),
    "tensor_name_not_utf8": lambda c: _garble_first_tensor(c, "name"),
    "huge_tensor_ndim": lambda c: _garble_first_tensor(c, "ndim"),
}


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "tiny.cfg"
    path.write_text(TINY_CFG)
    ckpt = path.parent / "net.ckpt"
    save_checkpoint(ckpt, SegmentationNetwork(load_config(path).network, seed=0))
    return ckpt.read_bytes()


@pytest.mark.parametrize("case", sorted(MALFORMED_CHECKPOINTS))
def test_cli_rejects_malformed_checkpoint_in_one_line(
    case, tiny_cfg, tiny_checkpoint, tmp_path, capsys
):
    bad = tmp_path / f"{case}.ckpt"
    bad.write_bytes(MALFORMED_CHECKPOINTS[case](tiny_checkpoint))
    code = main(["eval", "--config", str(tiny_cfg), "--checkpoint", str(bad)])
    captured = capsys.readouterr()
    assert code in (1, 2)
    lines = captured.err.splitlines()
    assert len(lines) == 1, captured.err
    assert lines[0].startswith("error:") and str(bad) in lines[0]



def test_cli_rejects_the_toy_checkpoint_with_the_full_scale_config(tmp_path, capsys):
    # the 3-class toy checkpoint would otherwise predict car/bicycle/motorcycle
    # ids on a 19-class config's scans
    scans = tmp_path / "scans"
    scans.mkdir()
    cloud = generate_synthetic_scene(SyntheticSceneSpec(seed=1, num_points=256))
    write_kitti_bin(scans / "000000.bin", cloud)
    with open(os.path.join(ROOT, "configs", "semantic_kitti.cfg")) as fh:
        text = fh.read().replace("scans = data/scans", f"scans = {scans}")
    cfg = tmp_path / "kitti.cfg"
    cfg.write_text(text)
    ckpt = os.path.join(ROOT, "tests", "data", "toy_seed0.ckpt")
    out = tmp_path / "preds"
    code = main(["infer", "--config", str(cfg), "--checkpoint", ckpt, "--output", str(out)])
    err = capsys.readouterr().err.splitlines()
    assert code == 1
    assert err == [
        f"error: {ckpt}: checkpoint and config disagree on num_classes: "
        "3 in the checkpoint, 19 in the config"
    ]
    assert not out.exists()


@pytest.mark.parametrize("command", ["infer", "eval"])
def test_cli_rejects_a_checkpoint_of_another_grid(command, tiny_checkpoint, tmp_path, capsys):
    ckpt = tmp_path / "net.ckpt"
    ckpt.write_bytes(tiny_checkpoint)
    cfg = tmp_path / "wider.cfg"
    cfg.write_text(_tiny_cfg_with("grid", "rho_max", "13"))
    extra = ["--output", str(tmp_path / "preds")] if command == "infer" else []
    code = main([command, "--config", str(cfg), "--checkpoint", str(ckpt), *extra])
    err = capsys.readouterr().err.splitlines()
    assert code == 1
    assert err == [
        f"error: {ckpt}: checkpoint and config disagree on rho_max: "
        "12.0 in the checkpoint, 13.0 in the config"
    ]
