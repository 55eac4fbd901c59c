import math

import numpy as np
import pytest

from cylseg.cli import main
from cylseg.config import ConfigError, load_config
from cylseg.metrics import ConfusionMatrix, compute_miou, format_iou_table
from cylseg.pointcloud import read_raw_label_ids

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


def test_cli_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "ok" in out
