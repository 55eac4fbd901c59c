import contextlib
import csv
import errno
import io
import math
import os
import re
import struct
import warnings

import numpy as np
import pytest

from cylseg import cli, sparse
from cylseg.cli import METRICS_HEADER, main
from cylseg.config import ConfigError, load_config, network_header, parse_network_header
from cylseg.metrics import ConfusionMatrix, compute_miou, format_iou_table
from cylseg.network import SegmentationNetwork, save_checkpoint
from cylseg.pointcloud import (
    PointCloud,
    SyntheticSceneSpec,
    generate_synthetic_scene,
    read_raw_label_ids,
    write_kitti_bin,
    write_kitti_labels,
)
from cylseg.sparse import read_tensors, write_tensors
from helpers import traced_memory

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
    table = format_iou_table(iou, 0.75)
    assert "50.0" in table and "100.0" in table and "75.0" in table
    assert "n/a" in table
    assert "class 1" in table


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


MALFORMED_CONFIGS = {
    "binary_bytes": b"\x89PNG\r\n\x1a\n" + bytes(range(256)),
    "duplicate_section": (TINY_CFG + "\n[network]\nnum_classes = 3\n").encode(),
    "duplicate_key": TINY_CFG.replace("[network]\n", "[network]\nstages = 2\n").encode(),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_CONFIGS))
def test_config_rejects_malformed_files_in_one_line(tmp_path, capsys, case):
    path = tmp_path / "bad.cfg"
    path.write_bytes(MALFORMED_CONFIGS[case])
    out = tmp_path / "occ.csv"
    assert main(["stats", "--config", str(path), "--output", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot parse")
    assert not out.exists()


@pytest.mark.parametrize(
    "text",
    [
        TINY_CFG.replace("[data]\n", "[data]\nk\x0cey = 1\n"),
        TINY_CFG + "\n[da\x1cta]\nkind = synthetic\n",
    ],
    ids=["key", "section"],
)
def test_config_errors_quote_names_from_the_file(tmp_path, capsys, text):
    # \x0c and \x1c end a line for str.splitlines(): printed raw, the one
    # error line would read as two
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    out = tmp_path / "occ.csv"
    assert main(["stats", "--config", str(path), "--output", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: unknown")
    assert err[0].isprintable()


# 2^22 * 2^22 * 2^20 = 2^64 cells: the flat int64 cell keys would overflow
HUGE_BINS = ("4194304", "4194304", "1048576")
# 2^28 + 1 cells, one more than the cell bound (a 17 x 15,790,321 plane)
OVER_BOUND_BINS = ("17", "15790321", "1")
GRID_KEYS = ("radius_bins", "azimuth_bins", "height_bins")
CUBIC_KEYS = ("x_bins", "y_bins", "z_bins")


def _with_huge_bins(text, keys, values=HUGE_BINS):
    """``text`` with each ``key = ...`` line of ``keys`` set to its ``values`` entry."""
    for key, value in zip(keys, values):
        text = re.sub(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
    return text


def test_stats_rejects_a_grid_of_2_to_the_63_cells_or_more(tmp_path, capsys):
    text = TINY_CFG.replace("scenes = 2\npoints = 2048", "scenes = 1\npoints = 64")
    path = tmp_path / "huge.cfg"
    path.write_text(_with_huge_bins(text, ("radius_bins", "azimuth_bins", "height_bins")))
    out = tmp_path / "occ.csv"
    assert main(["stats", "--config", str(path), "--output", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: [grid]") and "2^28" in err[0]
    assert not out.exists()


def test_cubic_section_and_checkpoint_header_reject_2_to_the_63_cells_or_more(tmp_path):
    path = tmp_path / "huge.cfg"
    path.write_text(TINY_CFG + "\n[cubic]\nx_bins = 1\ny_bins = 1\nz_bins = 1\n")
    header = network_header(load_config(path).network)
    path.write_text(_with_huge_bins(path.read_text(), ("x_bins", "y_bins", "z_bins")))
    with pytest.raises(ConfigError, match=r"^\[cubic\].*2\^28"):
        load_config(path)
    header = _with_huge_bins(header, ("radius_bins", "azimuth_bins", "height_bins"))
    with pytest.raises(ConfigError, match=r"^\[grid\].*2\^28"):
        parse_network_header(header)


@pytest.mark.parametrize("command", ["stats", "train"])
def test_a_grid_one_cell_over_the_bound_exits_2_in_one_line(tmp_path, capsys, command):
    # rejected when the config loads, before anything is allocated per cell
    path = tmp_path / "big.cfg"
    path.write_text(_with_huge_bins(TINY_CFG, GRID_KEYS, OVER_BOUND_BINS))
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--output", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: [grid]") and "2^28" in err[0]
    assert not out.exists()


def test_cubic_section_and_checkpoint_header_one_cell_over_the_bound_are_rejected(tmp_path):
    path = tmp_path / "big.cfg"
    path.write_text(TINY_CFG + "\n[cubic]\nx_bins = 1\ny_bins = 1\nz_bins = 1\n")
    header = network_header(load_config(path).network)
    path.write_text(_with_huge_bins(path.read_text(), CUBIC_KEYS, OVER_BOUND_BINS))
    with pytest.raises(ConfigError, match=r"^\[cubic\].*268435457 cells, more than 2\^28"):
        load_config(path)
    header = _with_huge_bins(header, GRID_KEYS, OVER_BOUND_BINS)
    with pytest.raises(ConfigError, match=r"^\[grid\].*268435457 cells, more than 2\^28"):
        parse_network_header(header)


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


@pytest.mark.parametrize("command", ["stats", "bound", "train"])
def test_an_ignore_id_inside_the_class_range_is_a_config_error(tmp_path, capsys, command):
    # without [labelmap] the raw ids are the training ids, so an ignore id
    # of 1 would also be class 1
    path = tmp_path / "bad.cfg"
    path.write_text(TINY_CFG + "\n[labels]\nignore_id = 1\n")
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--output", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: [labels]: ignore_id must lie outside [0, num_classes)"]
    assert not out.exists()


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
    *printed, wrote = capsys.readouterr().out.splitlines()
    lines = out.read_text().splitlines()
    assert wrote == f"wrote {out}"
    assert lines[0] == "scheme,distance_lo,distance_hi,nonempty_proportion"
    # one row per printed row: ten 5 m bins for each scheme
    assert len(lines) == len(printed) + 1 == 2 * 10 + 1
    assert any(line.startswith("cylindrical,") for line in lines[1:])
    assert any(line.startswith("cubic,") for line in lines[1:])
    # no cell of the 12 m grid lies in [20, 25): an empty proportion
    assert "cylindrical,20.0,25.0," in lines and "cubic,20.0,25.0," in lines


def test_cli_stats_takes_a_scan_with_a_point_far_out(tiny_cfg, tmp_path, capsys):
    # x = 3e38 is finite in float32; its bin index overflows int64 before
    # the clamp into the last bin
    scans = tmp_path / "scans"
    scans.mkdir()
    xyz = np.array([[3e38, 0.0, 0.0], [1.0, 1.0, 0.0], [-2.0, 3.0, 1.0]])
    write_kitti_bin(scans / "000000.bin", PointCloud(xyz, np.zeros(3)))
    out = tmp_path / "occ.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["stats", "--config", str(tiny_cfg), "--scans", str(scans),
                     "--output", str(out)])
    assert code == 0
    assert capsys.readouterr().err == ""
    assert not [str(w.message) for w in caught]


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


def test_cli_train_metrics_csv_holds_plain_numbers(tiny_cfg, tmp_path, capsys):
    # train_network's epoch means are numpy scalars; every cell must still
    # parse as a plain number
    ckpt, metrics = tmp_path / "net.ckpt", tmp_path / "metrics.csv"
    argv = ["train", "--config", str(tiny_cfg), "--output", str(ckpt), "--metrics", str(metrics)]
    assert main(argv) == 0
    capsys.readouterr()
    with open(metrics, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == list(METRICS_HEADER)
    assert len(rows) == 1 and len(rows[0]) == len(METRICS_HEADER)
    assert all(math.isfinite(float(cell)) for cell in rows[0])


def test_cli_train_metrics_csv_reads_nan_without_validation(tmp_path, capsys):
    # a files config has no validation split: each epoch's val_miou is nan
    scans, labels = tmp_path / "scans", tmp_path / "labels"
    scans.mkdir()
    labels.mkdir()
    cloud = generate_synthetic_scene(SyntheticSceneSpec(seed=0, num_points=300, max_range=12.0))
    write_kitti_bin(scans / "000000.bin", cloud)
    write_kitti_labels(labels / "000000.label", cloud.labels)
    cfg = tmp_path / "files.cfg"
    cfg.write_text(TINY_CFG.replace("kind = synthetic", f"kind = files\nscans = {scans}\n"
                                    f"labels = {labels}").replace("epochs = 1", "epochs = 2"))
    metrics = tmp_path / "metrics.csv"
    argv = ["train", "--config", str(cfg), "--output", str(tmp_path / "net.ckpt"),
            "--metrics", str(metrics)]
    assert main(argv) == 0
    capsys.readouterr()
    lines = metrics.read_text().splitlines()
    assert lines[0] == ",".join(METRICS_HEADER)
    assert lines[0] == "epoch,l_voxel_ce,l_voxel_lovasz,l_point_ce,total,val_miou"
    assert len(lines) == 3
    assert lines[1].startswith("0,") and lines[2].startswith("1,")
    assert [line.split(",")[-1] for line in lines[1:]] == ["nan", "nan"]


# an output that cannot be made: each command's arguments past --config, and
# its one error line after "error: ". ENOENT is an output in a missing directory.
UNMADE_OUTPUTS = {
    "train-output": (["train", "--output", "{out}/missing/net.ckpt", "--metrics",
                      "{out}/metrics.csv"], "{out}/missing/net.ckpt: No such file or directory"),
    "train-metrics": (["train", "--output", "{out}/net.ckpt", "--metrics",
                       "{out}/missing/m.csv"], "{out}/missing/m.csv: No such file or directory"),
    "stats": (["stats", "--output", "{out}/missing/occ.csv"],
              "{out}/missing/occ.csv: No such file or directory"),
    "bound": (["bound", "--output", "{out}/missing/bound.csv"],
              "{out}/missing/bound.csv: No such file or directory"),
    "infer": (["infer", "--checkpoint", "{ckpt}", "--output", "{out}/missing/preds"],
              "{out}/missing/preds/scene_0000.label: No such file or directory"),
    "train-one-path-twice": (["train", "--output", "{out}/x", "--metrics", "{out}/x"],
                             "{out}/x: named for two outputs"),
    "train-one-file-two-spellings": (["train", "--output", "{out}/x", "--metrics", "{out}/./x"],
                                     "{out}/./x: named for two outputs"),
    "stats-a-directory": (["stats", "--output", "{out}"], "{out}: Is a directory"),
}


@pytest.mark.parametrize("case", sorted(UNMADE_OUTPUTS))
def test_an_output_that_cannot_be_made_fails_before_any_scan_and_leaves_nothing(
    case, tiny_cfg, tiny_checkpoint, tmp_path, monkeypatch, capsys
):
    ckpt, out = tmp_path / "net.ckpt", tmp_path / "out"
    ckpt.write_bytes(tiny_checkpoint)
    out.mkdir()
    made = []  # every synthetic scene the command makes
    monkeypatch.setattr(cli, "generate_synthetic_scene", made.append)
    args, message = UNMADE_OUTPUTS[case]
    before = sorted(tmp_path.rglob("*"))
    code = main([args[0], "--config", str(tiny_cfg),
                 *(arg.format(out=out, ckpt=ckpt) for arg in args[1:])])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.splitlines() == [f"error: {message.format(out=out)}"]
    assert captured.out == ""  # no epoch or row line
    assert made == []
    assert sorted(tmp_path.rglob("*")) == before  # no output, no .tmp


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
    assert err == [f"error: scan scene_0000: {label}: {count} labels for a scan of 512 points"]


def _files_cfg(tmp_path, data_lines):
    """TINY_CFG reading its scans from files, as ``data_lines`` say."""
    path = tmp_path / "files.cfg"
    path.write_text(TINY_CFG.replace("kind = synthetic", "kind = files\n" + data_lines))
    return path


def test_cli_rejects_a_data_label_file_of_another_length_in_one_line(
    tmp_path, tiny_scan, capsys
):
    labels = tmp_path / "labels"
    labels.mkdir()
    label = labels / "000000.label"
    write_kitti_labels(label, np.zeros(511, dtype=np.int64))
    path = _files_cfg(tmp_path, f"scans = {tiny_scan.parent}\nlabels = {labels}")
    code = main(["bound", "--config", str(path), "--output", str(tmp_path / "bound.csv")])
    err = capsys.readouterr().err.splitlines()
    assert code == 1
    assert err == [f"error: scan 000000: {label}: 511 labels for a scan of 512 points"]


def test_cli_names_the_config_key_of_a_missing_scans_directory(tmp_path, monkeypatch, capsys):
    # a relative directory resolves against the working directory
    path = _files_cfg(tmp_path, "scans = data/scans")
    monkeypatch.chdir(tmp_path)
    code = main(["bound", "--config", str(path), "--output", "bound.csv"])
    err = capsys.readouterr().err.splitlines()
    assert code == 1
    assert err == [
        f"error: [data] scans 'data/scans' (config {path}): {os.strerror(errno.ENOENT)}"
    ]


def test_cli_names_the_config_key_of_a_missing_labels_directory(
    tmp_path, tiny_scan, monkeypatch, capsys
):
    path = _files_cfg(tmp_path, f"scans = {tiny_scan.parent}\nlabels = nolabels")
    monkeypatch.chdir(tmp_path)
    code = main(["bound", "--config", str(path), "--output", "bound.csv"])
    err = capsys.readouterr().err.splitlines()
    assert code == 1
    assert err == [
        f"error: [data] labels 'nolabels' (config {path}): {os.strerror(errno.ENOENT)}"
    ]


def test_cli_names_the_flag_of_a_missing_scans_directory(tiny_cfg, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = main(["stats", "--config", str(tiny_cfg), "--scans", "missing", "--output", "o.csv"])
    err = capsys.readouterr().err.splitlines()
    assert code == 1
    assert err == [f"error: --scans 'missing' (config {tiny_cfg}): {os.strerror(errno.ENOENT)}"]


def test_bound_names_the_failing_scan_and_writes_no_csv(tmp_path, capsys):
    # the third scan's labels all map to ignore: raw id 7 is not one of the
    # tiny config's three classes
    scans, labels = tmp_path / "scans", tmp_path / "labels"
    scans.mkdir()
    labels.mkdir()
    for i in range(3):
        spec = SyntheticSceneSpec(seed=i, num_points=300, max_range=12.0)
        write_kitti_bin(scans / f"{i:06d}.bin", generate_synthetic_scene(spec))
        raw = np.arange(300) % 3 if i < 2 else np.full(300, 7)
        write_kitti_labels(labels / f"{i:06d}.label", raw)
    path = _files_cfg(tmp_path, f"scans = {scans}\nlabels = {labels}")
    out = tmp_path / "bound.csv"
    code = main(["bound", "--config", str(path), "--output", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.splitlines() == ["error: scan 000002: cloud has no non-ignore labels"]
    assert "wrote" not in captured.out
    assert not out.exists()


def test_infer_names_the_failing_scan_and_leaves_no_labels(tiny_checkpoint, tmp_path, capsys):
    # the third scan is empty, so it fails to load; the first two used to be
    # written before it failed
    scans = tmp_path / "scans"
    scans.mkdir()
    for i in range(2):
        spec = SyntheticSceneSpec(seed=i, num_points=300, max_range=12.0)
        write_kitti_bin(scans / f"{i:06d}.bin", generate_synthetic_scene(spec))
    (scans / "000002.bin").write_bytes(b"")
    ckpt = tmp_path / "net.ckpt"
    ckpt.write_bytes(tiny_checkpoint)
    path = _files_cfg(tmp_path, f"scans = {scans}")
    out = tmp_path / "preds"
    argv = ["infer", "--config", str(path), "--checkpoint", str(ckpt), "--output", str(out)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.splitlines() == [
        f"error: scan 000002: {scans / '000002.bin'}: the scan holds no points"]
    assert "wrote" not in captured.out
    assert os.listdir(out) == []

    (scans / "000002.bin").unlink()
    assert main(argv) == 0
    assert sorted(os.listdir(out)) == ["000000.label", "000001.label"]
    assert capsys.readouterr().out.splitlines() == [
        f"wrote {out / '000000.label'}", f"wrote {out / '000001.label'}"]


# a defective fourth scan: its bytes, and the end of the line naming it
DEFECTIVE_SCANS = {
    "empty": (b"", "the scan holds no points"),
    "cut": (bytes(16 * 300 + 5), "byte length is not a multiple of 16 (x,y,z,intensity float32)"),
}

# every command reading scans, with its arguments past --config
SCAN_COMMANDS = {
    "stats": ["stats", "--scans", "{scans}", "--output", "{out}/occ.csv"],
    "train": ["train", "--output", "{out}/net.ckpt", "--metrics", "{out}/metrics.csv"],
    "bound": ["bound", "--output", "{out}/bound.csv"],
    "infer": ["infer", "--checkpoint", "{ckpt}", "--output", "{out}"],
    "eval": ["eval", "--predictions", "{preds}"],
}


@pytest.mark.parametrize("defect", sorted(DEFECTIVE_SCANS))
@pytest.mark.parametrize("command", sorted(SCAN_COMMANDS))
def test_cli_names_a_defective_scan_in_one_line_and_writes_nothing(
    command, defect, tiny_checkpoint, tmp_path, capsys
):
    scans, labels, preds, out = (tmp_path / d for d in ("scans", "labels", "preds", "out"))
    for directory in (scans, labels, preds, out):
        directory.mkdir()
    for i in range(3):
        cloud = generate_synthetic_scene(SyntheticSceneSpec(seed=i, num_points=300, max_range=12.0))
        write_kitti_bin(scans / f"{i:06d}.bin", cloud)
        write_kitti_labels(labels / f"{i:06d}.label", cloud.labels)
        write_kitti_labels(preds / f"{i:06d}.label", np.arange(300) % 3)
    data, message = DEFECTIVE_SCANS[defect]
    (scans / "000003.bin").write_bytes(data)
    (labels / "000003.label").write_bytes(b"")
    ckpt = tmp_path / "net.ckpt"
    ckpt.write_bytes(tiny_checkpoint)
    cfg = _files_cfg(tmp_path, f"scans = {scans}\nlabels = {labels}")
    name, *rest = SCAN_COMMANDS[command]
    argv = [name, "--config", str(cfg)]
    argv += [arg.format(scans=scans, out=out, ckpt=ckpt, preds=preds) for arg in rest]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.splitlines() == [f"error: scan 000003: {scans / '000003.bin'}: {message}"]
    assert os.listdir(out) == []


# a command reading a fourth scan's labels, and the directory whose label is missing
MISSING_LABEL_COMMANDS = {
    "bound": (["bound", "--output", "{out}/bound.csv"], "labels"),
    "train": (["train", "--output", "{out}/net.ckpt", "--metrics", "{out}/metrics.csv"], "labels"),
    "eval-data": (["eval", "--predictions", "{preds}"], "labels"),
    "eval-predictions": (["eval", "--predictions", "{preds}"], "preds"),
}


@pytest.mark.parametrize("command", sorted(MISSING_LABEL_COMMANDS))
def test_cli_names_the_scan_of_a_missing_label_file_in_one_line(command, tmp_path, capsys):
    # the line used to be a bare "[Errno 2] No such file or directory: ..."
    dirs = {d: tmp_path / d for d in ("scans", "labels", "preds", "out")}
    for directory in dirs.values():
        directory.mkdir()
    for i in range(4):
        cloud = generate_synthetic_scene(SyntheticSceneSpec(seed=i, num_points=300, max_range=12.0))
        write_kitti_bin(dirs["scans"] / f"{i:06d}.bin", cloud)
        write_kitti_labels(dirs["labels"] / f"{i:06d}.label", cloud.labels)
        write_kitti_labels(dirs["preds"] / f"{i:06d}.label", np.arange(300) % 3)
    args, missing = MISSING_LABEL_COMMANDS[command]
    label = dirs[missing] / "000003.label"
    label.unlink()
    cfg = _files_cfg(tmp_path, f"scans = {dirs['scans']}\nlabels = {dirs['labels']}")
    argv = [args[0], "--config", str(cfg)]
    argv += [arg.format(out=dirs["out"], preds=dirs["preds"]) for arg in args[1:]]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.splitlines() == [
        f"error: scan 000003: {label}: No such file or directory"]
    assert os.listdir(dirs["out"]) == []


def test_cli_eval_names_the_predictions_file_holding_an_ignored_id(tiny_cfg, tmp_path, capsys):
    # raw id 7 has no train id, so the map sends it to ignore; the line used
    # to say only "predictions out of range"
    preds = tmp_path / "preds"
    preds.mkdir()
    label = preds / "scene_0000.label"
    ids = np.zeros(512, dtype=np.int64)
    ids[100] = 7
    write_kitti_labels(label, ids)
    code = main(["eval", "--config", str(tiny_cfg), "--predictions", str(preds)])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: scan scene_0000: {label}: predictions out of range"]


@pytest.mark.parametrize("source", ["files", "synthetic"])
def test_bound_holds_one_scan_at_a_time(source, tmp_path, capsys):
    # bound used to read or make every scan before it bounded the first
    points = 1 << 17  # 2 MiB a scan as float32, 3 MiB as float64
    peaks = []
    for count in (2, 8):
        text = TINY_CFG.replace("scenes = 2\npoints = 2048", f"scenes = {count}\npoints = {points}")
        if source == "files":
            scans, labels = tmp_path / f"scans{count}", tmp_path / f"labels{count}"
            scans.mkdir()
            labels.mkdir()
            for i in range(count):
                spec = SyntheticSceneSpec(seed=i, num_points=points, max_range=12.0)
                cloud = generate_synthetic_scene(spec)
                write_kitti_bin(scans / f"{i:06d}.bin", cloud)
                write_kitti_labels(labels / f"{i:06d}.label", cloud.labels)
            data = f"kind = files\nscans = {scans}\nlabels = {labels}"
            text = text.replace("kind = synthetic", data)
        cfg = tmp_path / f"bound{count}.cfg"
        cfg.write_text(text)
        with traced_memory() as memory:
            assert main(["bound", "--config", str(cfg), "--output", str(tmp_path / "b.csv")]) == 0
            peaks.append(memory.peak())
    capsys.readouterr()
    assert peaks[1] - peaks[0] < 2**20, [p / 2**20 for p in peaks]


@pytest.mark.parametrize("source", ["files", "synthetic"])
def test_train_holds_one_scan_at_a_time(source, tmp_path, capsys):
    # train used to read or make every scan before its first step and keep
    # them all for every epoch
    points = 1 << 16
    scan_bytes = points * (24 if source == "files" else 40)  # 1.5 or 2.5 MiB a scan
    peaks = []
    for count in (2, 8):
        text = TINY_CFG.replace("train_scenes = 2", f"train_scenes = {count}")
        text = text.replace("points = 512", f"points = {points}")
        if source == "files":
            scans, labels = tmp_path / f"scans{count}", tmp_path / f"labels{count}"
            scans.mkdir()
            labels.mkdir()
            for i in range(count):
                spec = SyntheticSceneSpec(seed=i, num_points=points, max_range=12.0)
                cloud = generate_synthetic_scene(spec)
                write_kitti_bin(scans / f"{i:06d}.bin", cloud)
                write_kitti_labels(labels / f"{i:06d}.label", cloud.labels)
            data = f"kind = files\nscans = {scans}\nlabels = {labels}"
            text = text.replace("kind = synthetic", data)
        cfg = tmp_path / f"train{count}.cfg"
        cfg.write_text(text)
        argv = ["train", "--config", str(cfg), "--output", str(tmp_path / "net.ckpt")]
        with traced_memory() as memory:
            assert main(argv) == 0
            peaks.append(memory.peak())
    capsys.readouterr()
    assert peaks[1] - peaks[0] < scan_bytes, [p / 2**20 for p in peaks]


@pytest.mark.parametrize("source", ["scans", "synthetic"])
def test_stats_holds_one_scan_per_lane(source, tmp_path, monkeypatch, capsys):
    # stats used to read or make every scan before binning the first; one lane
    # measures what a lane holds, as two lanes' peaks line up only by chance
    monkeypatch.setattr(sparse, "_cpu_count", lambda: 1)
    scans = tmp_path / "scans"
    scans.mkdir()
    points = 1 << 17  # 2 MiB a scan as float32
    peaks = []
    for count in (2, 8):
        cfg = tmp_path / f"stats{count}.cfg"
        cfg.write_text(TINY_CFG.replace("scenes = 2\npoints = 2048",
                                        f"scenes = {count}\npoints = {points}"))
        argv = ["stats", "--config", str(cfg), "--output", str(tmp_path / "occ.csv")]
        if source == "scans":
            for i in range(len(os.listdir(scans)), count):
                spec = SyntheticSceneSpec(seed=i, num_points=points, max_range=12.0)
                write_kitti_bin(scans / f"{i:06d}.bin", generate_synthetic_scene(spec))
            argv += ["--scans", str(scans)]
        with traced_memory() as memory:
            assert main(argv) == 0
            peaks.append(memory.peak())
    capsys.readouterr()
    # six more scans held at once would add 12 MiB
    assert peaks[1] - peaks[0] < 16 * points, [p / 2**20 for p in peaks]


def test_infer_refuses_a_labelmap_with_a_train_id_no_raw_id_maps_to(tmp_path, capsys):
    # train accepts the map; infer refuses it before it reads the checkpoint,
    # whatever the network would predict
    path = tmp_path / "lm.cfg"
    path.write_text(TINY_CFG + "\n[labelmap]\n10 = 0\n11 = 1\n12 = ignore\n")
    ckpt = tmp_path / "net.ckpt"
    assert main(["train", "--config", str(path), "--output", str(ckpt)]) == 0
    capsys.readouterr()
    preds = tmp_path / "preds"
    for checkpoint in (ckpt, tmp_path / "absent.ckpt"):
        code = main(["infer", "--config", str(path), "--checkpoint", str(checkpoint),
                     "--output", str(preds)])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {path}: [labelmap] maps no raw id to train id 2, so infer could not write it"
        ]
        assert not preds.exists()


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


def _with_tensors(ckpt: bytes, edit) -> bytes:
    """``ckpt`` with its tensors (name -> array) replaced by ``edit(tensors)``."""
    start = 12 + _header_len(ckpt)
    buf = io.BytesIO()
    write_tensors(buf, edit(read_tensors(io.BytesIO(ckpt[start:]))))
    return ckpt[:start] + buf.getvalue()


def _without_first(tensors: dict) -> dict:
    return {name: arr for name, arr in tensors.items() if name != min(tensors)}


def _first_reshaped(tensors: dict) -> dict:
    return {**tensors, min(tensors): tensors[min(tensors)][..., None]}


def _repeat_first_tensor(ckpt: bytes) -> bytes:
    """``ckpt`` with its first CYLT entry written twice and the count raised."""
    start = 12 + _header_len(ckpt) + 4
    version, count = struct.unpack_from("<II", ckpt, start)
    at = start + 8
    (name_len,) = struct.unpack_from("<I", ckpt, at)
    (ndim,) = struct.unpack_from("<I", ckpt, at + 4 + name_len)
    shape_at = at + 8 + name_len
    size = math.prod(struct.unpack_from(f"<{ndim}q", ckpt, shape_at))
    end = shape_at + 8 * ndim + 8 * size
    head = ckpt[:start] + struct.pack("<II", version, count + 1)
    return head + ckpt[at:end] + ckpt[at:]


def _with_base_channels(ckpt: bytes, channels: int) -> bytes:
    """``ckpt`` whose header asks for ``channels`` base channels instead of 4."""
    header = _header(ckpt).replace("base_channels = 4\n", f"base_channels = {channels}\n")
    return _with_header(ckpt, header)


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
    "unexpected_tensor": lambda c: _with_tensors(c, lambda t: {**t, "extra": np.zeros(2)}),
    "missing_tensor": lambda c: _with_tensors(c, _without_first),
    "wrong_shape": lambda c: _with_tensors(c, _first_reshaped),
    "trailing_bytes": lambda c: c + bytes(8),
    "repeated_tensor": _repeat_first_tensor,
    "huge_base_channels": lambda c: _with_base_channels(c, 1_000_000),
    "large_base_channels": lambda c: _with_base_channels(c, 2000),
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
    with traced_memory() as memory:
        code = main(["eval", "--config", str(tiny_cfg), "--checkpoint", str(bad)])
        peak = memory.peak()
    captured = capsys.readouterr()
    assert code == 1
    lines = captured.err.splitlines()
    assert len(lines) == 1, captured.err
    assert lines[0].startswith("error:") and str(bad) in lines[0]
    # nothing is allocated for what the file cannot hold: the base-channel
    # cases' headers describe 34 GiB and 8,251 TiB of weights
    assert peak < 1 << 21



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


# a defect in the inputs of eval or infer: the command's arguments past
# --config, its exit code, and its one error line after "error: ", or for a
# usage error (exit 2) what argparse's last line must say. {preds} holds the
# tiny config's one scored scan, so the predictions alone would score.
INPUT_DEFECTS = {
    "eval-checkpoint-missing": (["eval", "--checkpoint", "{out}/nope.ckpt"], 1,
                                "{out}/nope.ckpt: No such file or directory"),
    "eval-checkpoint-a-directory": (["eval", "--checkpoint", "{out}"], 1, "{out}: Is a directory"),
    "infer-checkpoint-missing": (["infer", "--checkpoint", "{out}/nope.ckpt", "--output",
                                  "{out}/labels"], 1, "{out}/nope.ckpt: No such file or directory"),
    "infer-checkpoint-a-directory": (["infer", "--checkpoint", "{out}", "--output",
                                      "{out}/labels"], 1, "{out}: Is a directory"),
    "eval-no-source": (["eval"], 2, "one of the arguments --checkpoint --predictions is required"),
    "eval-both-sources": (["eval", "--checkpoint", "{out}/nope.ckpt", "--predictions", "{preds}"],
                          2, "argument --predictions: not allowed with argument --checkpoint"),
}


@pytest.mark.parametrize("case", sorted(INPUT_DEFECTS))
def test_an_input_defect_fails_in_one_line_and_writes_nothing(case, tiny_cfg, tmp_path, capsys):
    out, preds = tmp_path / "out", tmp_path / "preds"
    out.mkdir()
    preds.mkdir()
    write_kitti_labels(preds / "scene_0000.label", np.zeros(512, dtype=np.int64))
    args, exit_code, message = INPUT_DEFECTS[case]
    before = sorted(tmp_path.rglob("*"))
    code = main([args[0], "--config", str(tiny_cfg),
                 *(arg.format(out=out, preds=preds) for arg in args[1:])])
    captured = capsys.readouterr()
    assert code == exit_code
    assert captured.out == ""
    message = message.format(out=out)
    if exit_code == 1:
        assert captured.err.splitlines() == [f"error: {message}"]
    else:
        assert captured.err.splitlines()[-1] == f"cylseg {args[0]}: error: {message}"
    assert sorted(tmp_path.rglob("*")) == before  # no label directory, .label or .tmp


# each command that takes labels from the synthetic scenes, given a config
# whose ignore id is not the one their clutter carries: its arguments past
# --config, which fail in one line and write nothing
SYNTHETIC_IGNORE_DEFECTS = {
    "train": ["train", "--output", "{out}/net.ckpt"],
    "eval": ["eval", "--checkpoint", "{ckpt}"],
    "bound": ["bound", "--output", "{out}/bound.csv"],
}


@pytest.fixture
def ignore_254_cfg(tmp_path):
    path = tmp_path / "ignore254.cfg"
    path.write_text(TINY_CFG + "\n[labels]\nignore_id = 254\n")
    return path


@pytest.mark.parametrize("case", sorted(SYNTHETIC_IGNORE_DEFECTS))
def test_synthetic_labels_refuse_another_ignore_id_in_one_line(
    case, ignore_254_cfg, tiny_checkpoint, tmp_path, capsys
):
    out, ckpt = tmp_path / "out", tmp_path / "net.ckpt"
    out.mkdir()
    ckpt.write_bytes(tiny_checkpoint)
    args = SYNTHETIC_IGNORE_DEFECTS[case]
    before = sorted(tmp_path.rglob("*"))
    code = main([args[0], "--config", str(ignore_254_cfg),
                 *(arg.format(out=out, ckpt=ckpt) for arg in args[1:])])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: synthetic data labels its clutter 255; [labels] ignore_id is 254"]
    assert sorted(tmp_path.rglob("*")) == before


def test_stats_and_infer_take_no_synthetic_labels_so_any_ignore_id_runs(
    ignore_254_cfg, tiny_checkpoint, tmp_path, capsys
):
    ckpt = tmp_path / "net.ckpt"
    ckpt.write_bytes(tiny_checkpoint)
    cfg = str(ignore_254_cfg)
    assert main(["stats", "--config", cfg, "--output", str(tmp_path / "occ.csv")]) == 0
    labels = tmp_path / "labels"
    assert main(["infer", "--config", cfg, "--checkpoint", str(ckpt), "--output", str(labels)]) == 0
    assert capsys.readouterr().err == ""
    assert (tmp_path / "occ.csv").exists() and os.listdir(labels) == ["scene_0000.label"]


# ------------------------------------------------- seeded byte cuts and flips


def _cuts_and_flips(blob, seed, count):
    """``count`` mutations of ``blob``, alternately a cut at a random length
    and a random single-bit flip."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        if i % 2:
            yield blob[: rng.integers(len(blob))]
        else:
            out = bytearray(blob)
            out[rng.integers(len(blob))] ^= 1 << rng.integers(8)
            yield bytes(out)


def _exponent_flips(blob, seed, count):
    """``count`` copies of a ``.bin`` scan, each with the top exponent bit of
    one random coordinate flipped: a value below 2 in magnitude becomes huge
    (or inf or nan), any other tiny. Random flips reach that bit only about
    once in 90 cases."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        out = bytearray(blob)
        point, axis = rng.integers(len(blob) // 16), rng.integers(3)
        out[16 * point + 4 * axis + 3] ^= 0x40  # little-endian float32: bit 30
        yield bytes(out)


def _run_cli(argv):
    """Exit code, stderr and the messages of the warnings raised, of one
    in-process run. Warnings are recorded, not raised: as errors they would
    turn the fault into an exit-1 line."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(
        err
    ), contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        code = main(argv)
    return code, err.getvalue(), [str(w.message) for w in caught]


def _assert_clean_outcome(argv, path, blobs):
    """Every blob written to ``path`` gives exit 0 with an empty stderr and no
    warning, or exit 1 or 2 with one printable ``error:`` line."""
    for case, blob in enumerate(blobs):
        path.write_bytes(blob)
        code, err, caught = _run_cli(argv)
        where = f"case {case}: {blob[:80]!r}"
        assert code in (0, 1, 2), where
        if code == 0:
            assert err == "" and not caught, (where, err, caught)
        else:
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), (where, err)
            assert lines[0].isprintable(), (where, err)


@pytest.fixture
def tiny_scan(tmp_path):
    """A directory holding one 512-point ``.bin`` scan in the tiny grid's range."""
    scans = tmp_path / "scans"
    scans.mkdir()
    cloud = generate_synthetic_scene(SyntheticSceneSpec(seed=0, num_points=512, max_range=12.0))
    write_kitti_bin(scans / "000000.bin", cloud)
    return scans / "000000.bin"


def test_cut_and_flipped_configs_fail_cleanly(tmp_path, tiny_scan):
    # --scans keeps each run to the one small scan, whatever [stats] asks for
    path = tmp_path / "fuzz.cfg"
    argv = ["stats", "--config", str(path), "--scans", str(tiny_scan.parent),
            "--output", str(tmp_path / "occ.csv")]
    _assert_clean_outcome(argv, path, _cuts_and_flips(TINY_CFG.encode(), 101, 300))


def test_cut_and_flipped_scans_fail_cleanly(tiny_cfg, tmp_path, tiny_scan):
    argv = ["stats", "--config", str(tiny_cfg), "--scans", str(tiny_scan.parent),
            "--output", str(tmp_path / "occ.csv")]
    blob = tiny_scan.read_bytes()
    _assert_clean_outcome(argv, tiny_scan, _cuts_and_flips(blob, 102, 300))
    _assert_clean_outcome(argv, tiny_scan, _exponent_flips(blob, 103, 60))


def test_cut_and_flipped_label_files_fail_cleanly(tiny_cfg, tmp_path):
    # the tiny config's one validation scene has 512 points
    preds = tmp_path / "preds"
    preds.mkdir()
    label = preds / "scene_0000.label"
    write_kitti_labels(label, np.random.default_rng(104).integers(0, 3, 512))
    argv = ["eval", "--config", str(tiny_cfg), "--predictions", str(preds)]
    _assert_clean_outcome(argv, label, _cuts_and_flips(label.read_bytes(), 105, 300))
