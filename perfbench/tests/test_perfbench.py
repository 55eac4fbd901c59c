"""Tests of the benchmark itself: span arithmetic, metric coverage and a
reduced-size smoke run of every workload.

    python3 -m pytest perfbench/tests -q

The smoke runs start ``perfbench/run.py --scale smoke`` from the repository
root, as the benchmark is meant to be run, and take under a minute in all.
"""

import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import tracer  # noqa: E402
from run import END_TO_END_UNITS  # noqa: E402

WORKLOADS = ("toy-train", "full-infer", "occupancy-stats")

# every end-to-end metric the README names, per workload it applies to
NAMED_END_TO_END = {
    "toy-train": ("setup_s", "train_step_s.p50", "train_step_s.p80", "val_miou",
                  "peak_rss_mb", "error_rate"),
    "full-infer": ("setup_s", "scan_s.p50", "pred_match", "peak_rss_mb", "error_rate"),
    "occupancy-stats": ("setup_s", "stats_scans_per_s", "peak_rss_mb", "error_rate"),
}
NAMED_PER_LAYER = (
    "pointcloud.read_kitti_bin.s", "pointcloud.write_kitti_labels.s",
    "partition.assign_cells.s", "partition.occupied_cells",
    "partition.scatter_features.s", "partition.scatter_max_winners.s",
    "partition.encode_cell_labels.s",
    "sparse.build_rulebook.s", "sparse.build_rulebook.calls",
    "sparse.rulebook_builds_per_site_set", "sparse.rulebook_pairs", "sparse.pairs_per_site",
    "sparse.conv_forward.s", "sparse.inverse_conv_forward.s",
    "sparse.conv_backward.s", "sparse.inverse_conv_backward.s",
    "sparse.conv.flops_computed", "sparse.conv.bytes_computed",
    "sparse.batch_norm_forward.s", "sparse.batch_norm_backward.s",
    "sparse.activation.s", "sparse.concat_features.s",
    "network.load_checkpoint.s",
    "training.segmentation_loss.s", "training.lovasz_softmax.s", "training.adam_step.s",
    "training.evaluate_network.s", "metrics.confusion_update.s",
    "trace.overhead_s",
) + tuple(f"network.{m}.{d}_s"
          for m in ("point_mlp", "down0", "down1", "down2", "down3", "ddcm",
                    "up0", "up1", "up2", "up3", "head", "refine")
          for d in ("forward", "backward"))


def _spans(*rows):
    return [list(r) for r in rows]


def test_self_time_subtracts_children():
    spans = _spans(
        ("step", 0.0, 10.0, -1, 0),
        ("forward", 1.0, 6.0, 0, 0),
        ("conv", 2.0, 3.0, 1, 0),
        ("conv", 4.0, 5.5, 1, 0),
        ("backward", 7.0, 9.0, 0, 0),
    )
    assert tracer.self_times(spans) == pytest.approx([3.0, 2.5, 1.0, 1.5, 2.0])


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = _spans(
        ("parent", 0.0, 4.0, -1, None),
        ("a", 1.0, 3.0, 0, None),
        ("b", 2.0, 5.0, 0, None),  # overlaps a and runs past the parent
    )
    assert tracer.self_times(spans)[0] == pytest.approx(1.0)


def test_covered_length_of_disjoint_and_empty_intervals():
    assert tracer.covered_length(0.0, 10.0, []) == 0.0
    assert tracer.covered_length(0.0, 10.0, [(1, 2), (4, 4), (8, 12)]) == pytest.approx(3.0)


def test_per_layer_normalizes_by_operations():
    t = tracer.Tracer()
    t.spans = _spans(
        ("network.forward", 0.0, 4.0, -1, 0),
        ("sparse.conv_forward", 1.0, 2.0, 0, 0),
        ("network.forward", 4.0, 8.0, -1, 1),
        ("sparse.conv_forward", 5.0, 8.0, 2, 1),
    )
    layers = t.per_layer(ops=2)
    assert layers["sparse.conv_forward.s"] == pytest.approx(2.0)
    assert layers["network.forward_s"] == pytest.approx(4.0)  # inclusive
    assert layers["network.load_checkpoint.s"] == 0.0


def test_conv_counts_from_pairs_and_widths():
    pairs = [([0, 1, 2], [0, 1, 2]), ([], []), ([1], [0])]
    flops, nbytes = tracer.conv_counts(pairs, c_in=4, c_out=2, itemsize=8, backward=False)
    assert flops == 2 * 4 * 4 * 2
    assert nbytes == 8 * (4 * (4 + 2 * 2) + 2 * 4 * 2) + 2 * 4 * 8
    flops_b, _ = tracer.conv_counts(pairs, 4, 2, 8, backward=True)
    assert flops_b == 2 * flops


def test_wrappers_are_removed_on_uninstall():
    class Owner:
        def forward(self, x):
            return x + 1

    obj = Owner()
    t = tracer.Tracer()
    t.patch(obj, "forward", "network.forward")
    assert obj.forward(1) == 2
    t.uninstall()
    assert "forward" not in vars(obj)
    assert [s[tracer.NAME] for s in t.spans] == ["network.forward"]


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_benchmark_json_matches_the_metrics_the_harness_prints():
    spec = _benchmark_json()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_every_named_per_layer_metric_has_a_unit():
    units = tracer.per_layer_units()
    missing = [n for n in NAMED_PER_LAYER if n not in units]
    assert not missing
    assert all(units[n] for n in NAMED_PER_LAYER)


def _run(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0", "--trace", str(trace), "--scale", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def _lines_by_name(stdout):
    out = {}
    for line in stdout.splitlines():
        parts = line.split()
        if line.startswith("  ") and len(parts) >= 3:
            out[parts[0]] = parts[2]
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_end_to_end_metric(workload):
    proc = _run(workload, 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {n: m["unit"] for n, m in result["metrics"].items()} == END_TO_END_UNITS
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["metrics"]["quality"]["value"] > 0
    if workload != "toy-train":
        assert result["metrics"]["quality"]["value"] == 1.0
    printed = _lines_by_name(proc.stdout)
    for name in NAMED_END_TO_END[workload]:
        assert printed.get(name), f"{name} not printed with a unit"
    assert "env " in proc.stdout and '"blas_threads": "1"' in proc.stdout


def _counts(stdout):
    line = next(l for l in stdout.splitlines() if l.startswith("counts "))
    return json.loads(line[len("counts "):])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_traced_run_reports_per_layer_metrics_and_repeats_counts(workload):
    first = _run(workload, 1)
    assert first.returncode == 0, first.stderr
    result = json.loads(first.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, first.stdout
    assert {n: m["unit"] for n, m in result["metrics"].items()} == tracer.per_layer_units()
    if workload != "occupancy-stats":
        assert result["metrics"]["sparse.rulebook_pairs"]["value"] > 0
        assert result["metrics"]["sparse.conv.flops_computed"]["value"] > 0
    second = _run(workload, 1)
    assert second.returncode == 0, second.stderr
    assert _counts(first.stdout) == _counts(second.stdout)


def test_refuses_to_run_outside_a_checkout(tmp_path):
    proc = _run("toy-train", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
