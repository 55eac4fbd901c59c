"""Pinned bytes of a short training run and of a full-scale ``predict``,
for changes that promise the bytes of the code before them.

``three_step_digests``: three ``train_step`` calls on the toy config's first
three training scenes, for each ``block_variant``, then a float64 forward and
a ``predict`` on the first validation scene. A SHA-256 of each part (the
losses, parameters, running state, gradients, float64 point logits and
predictions) must match ``tests/data/three_step_digests.json``. The toy
network's convs and point chains never split into row blocks.

``float64_step_digests``: one float64 training-mode ``forward``,
``segmentation_loss`` and ``backward`` of the toy network on the config's
first training scene, for each ``block_variant``: the route of
``train_step``'s overflow fallback and of the gradient checks. The digests of
its losses, gradients and running state must match
``tests/data/float64_step_digests.json``.

``full_predict_digests``: the seed-0 ``semantic_kitti.cfg`` network's float32
``predict`` on one 12,000-point synthetic scan, large enough that forward
convs, transposed convs and point chains run in several row blocks. The
digests of its float32 point logits and predictions, and the block count of
every row-block run, must match ``tests/data/full_predict_digests.json``.

``full_train_step_digests``: one float32 ``train_step`` of the same network
on a 3,000-point synthetic scan, large enough that most of the input-gradient
convs run in several row blocks. The digests of its losses, gradients,
parameters and running state, and the block count of every input-gradient
conv run, must match ``tests/data/full_train_step_digests.json``.

``cli_output_digests``: ``train`` then ``infer`` on a small synthetic config
(two scenes each), ``bound`` on the same config, and ``stats`` on
``semantic_kitti.cfg``'s two grids with two 131,072-point scenes (two lanes,
two 2^16-point chunks a scan), each through ``cylseg.cli.main`` in one
directory. Every command's exit code and stdout, and every file the commands
leave, must match ``tests/data/cli_output_digests.json``.

Each runs in a fresh process at ``OPENBLAS_NUM_THREADS=1``: bytes are
promised at a fixed BLAS thread count, which OpenBLAS reads when it loads.

A change that alters the bytes on purpose records new digests with

    for name in three_step_digests float64_step_digests full_predict_digests \\
            full_train_step_digests cli_output_digests; do
        PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python tests/test_pinned_bytes.py \\
            $name > tests/data/$name.json
    done
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from unittest import mock

import numpy as np

import cylseg
from cylseg import network, sparse
from cylseg.cli import VAL_SEED_OFFSET, main
from cylseg.config import BLOCK_VARIANTS, load_config
from cylseg.network import SegmentationNetwork
from cylseg.partition import encode_cell_labels
from cylseg.pointcloud import SyntheticSceneSpec, generate_synthetic_scene
from cylseg.training import Adam, class_weights, segmentation_loss, train_step

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STEPS = 3
FULL_PREDICT_POINTS = 12000
FULL_TRAIN_POINTS = 3000

# 16x16x4 cells, two training and two validation scenes, ten epochs (enough that
# the two scenes' predictions differ), two [stats] scenes
SMALL_CFG = """\
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
val_scenes = 2
points = 512
seed = 0
max_range = 12

[train]
epochs = 10
lr = 1e-3
seed = 0

[stats]
scenes = 2
points = 2048
seed = 0
"""


def _sha256(named):
    """Digest of ``(name, array)`` pairs, names and shapes included."""
    h = hashlib.sha256()
    for name, arr in named:
        h.update(f"{name} {arr.dtype.str} {arr.shape}\n".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def _toy_scene(cfg, seed):
    spec = SyntheticSceneSpec(seed=seed, num_points=cfg.data.points,
                              max_range=cfg.data.max_range)
    return generate_synthetic_scene(spec)


def three_step_digests():
    cfg = load_config(os.path.join(ROOT, "configs", "toy_train.cfg"))
    clouds = [_toy_scene(cfg, cfg.data.seed + i) for i in range(STEPS)]
    val = _toy_scene(cfg, cfg.data.seed + VAL_SEED_OFFSET)
    weights = class_weights([c.labels for c in clouds], cfg.network.num_classes, cfg.ignore_id)
    digests = {}
    for variant in BLOCK_VARIANTS:
        net = SegmentationNetwork(dataclasses.replace(cfg.network, block_variant=variant),
                                  seed=cfg.train.seed)
        optimizer = Adam(net.named_params(), lr=cfg.train.lr)
        losses = []
        for cloud in clouds:
            report = train_step(net, optimizer, cloud, weights, cfg.ignore_id)
            losses.append((report.voxel_ce, report.voxel_lovasz, report.point_ce))
        parts = {
            "losses": [("losses", np.array(losses))],
            "params": sorted(net.named_params().items()),
            "state": sorted(net.named_state().items()),
            "grads": sorted(net.named_grads().items()),
            "logits": [("logits", net.forward(val).point_logits)],
            "predict": [("predict", net.predict(val))],
        }
        digests[variant] = {part: _sha256(named) for part, named in parts.items()}
    return digests


def float64_step_digests():
    cfg = load_config(os.path.join(ROOT, "configs", "toy_train.cfg"))
    cloud = _toy_scene(cfg, cfg.data.seed)
    k = cfg.network.num_classes
    weights = class_weights([cloud.labels], k, cfg.ignore_id)
    digests = {}
    for variant in BLOCK_VARIANTS:
        net = SegmentationNetwork(dataclasses.replace(cfg.network, block_variant=variant),
                                  seed=cfg.train.seed)
        result = net.forward(cloud, training=True)
        targets = encode_cell_labels(result.mapping, cloud.labels, "majority", k, cfg.ignore_id)
        report = segmentation_loss(result.voxel_logits.features, targets, result.point_logits,
                                   cloud.labels, weights, cfg.ignore_id)
        net.backward(result, report.grad_voxel_logits, report.grad_point_logits)
        parts = {
            "losses": [("losses", np.array([report.voxel_ce, report.voxel_lovasz,
                                            report.point_ce]))],
            "grads": sorted(net.named_grads().items()),
            "state": sorted(net.named_state().items()),
        }
        digests[variant] = {part: _sha256(named) for part, named in parts.items()}
    return digests


def _counted(blocks, kind):
    """``sparse.in_row_blocks``, appending each run's block count to ``blocks[kind]``."""
    row_blocks = sparse.in_row_blocks

    def run(rows, macs, work):
        starts = []
        row_blocks(rows, macs, lambda lo, hi: starts.append(lo) or work(lo, hi))
        blocks[kind].append(len(starts))
    return run


def _conv_counted(blocks, kind, conv):
    """``conv``, counting the row blocks of its runs in ``blocks[kind]``."""
    def run(*args):
        with mock.patch.object(sparse, "in_row_blocks", _counted(blocks, kind)):
            return conv(*args)
    return run


def full_predict_digests():
    cfg = load_config(os.path.join(ROOT, "configs", "semantic_kitti.cfg"))
    net = SegmentationNetwork(cfg.network, seed=0)
    cloud = generate_synthetic_scene(SyntheticSceneSpec(seed=0, num_points=FULL_PREDICT_POINTS))
    blocks = {"conv": [], "inverse_conv": [], "point_chain": []}
    logits = []
    forward = net.forward

    def kept_forward(*args, **kwargs):
        result = forward(*args, **kwargs)
        logits.append(result.point_logits)
        return result

    with mock.patch.object(network, "sparse_conv_forward",
                           _conv_counted(blocks, "conv", network.sparse_conv_forward)), \
            mock.patch.object(network, "inverse_conv_forward",
                              _conv_counted(blocks, "inverse_conv", network.inverse_conv_forward)), \
            mock.patch.object(network, "in_row_blocks", _counted(blocks, "point_chain")), \
            mock.patch.object(net, "forward", kept_forward):
        predictions = net.predict(cloud)
    (point_logits,) = logits
    parts = {"logits": [("logits", point_logits)], "predict": [("predict", predictions)]}
    return {"blocks": blocks, "digests": {part: _sha256(named) for part, named in parts.items()}}


def full_train_step_digests():
    cfg = load_config(os.path.join(ROOT, "configs", "semantic_kitti.cfg"))
    net = SegmentationNetwork(cfg.network, seed=0)
    cloud = generate_synthetic_scene(SyntheticSceneSpec(seed=0, num_points=FULL_TRAIN_POINTS))
    weights = class_weights([cloud.labels], cfg.network.num_classes, cfg.ignore_id)
    optimizer = Adam(net.named_params(), lr=1e-3)
    blocks = {"conv_backward": [], "inverse_conv_backward": []}
    with mock.patch.object(network, "sparse_conv_backward",
                           _conv_counted(blocks, "conv_backward", network.sparse_conv_backward)), \
            mock.patch.object(network, "inverse_conv_backward",
                              _conv_counted(blocks, "inverse_conv_backward",
                                            network.inverse_conv_backward)):
        report = train_step(net, optimizer, cloud, weights, cfg.ignore_id)
    parts = {
        "losses": [("losses", np.array([report.voxel_ce, report.voxel_lovasz, report.point_ce]))],
        "grads": sorted(net.named_grads().items()),
        "params": sorted(net.named_params().items()),
        "state": sorted(net.named_state().items()),
    }
    return {"blocks": blocks, "digests": {part: _sha256(named) for part, named in parts.items()}}


def _file_sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def cli_output_digests():
    runs = {
        "train": ["train", "--config", "small.cfg", "--output", "net.ckpt",
                  "--metrics", "metrics.csv"],
        "infer": ["infer", "--config", "small.cfg", "--checkpoint", "net.ckpt",
                  "--output", "preds"],
        "stats": ["stats", "--config", "full.cfg", "--output", "occupancy.csv"],
        "bound": ["bound", "--config", "small.cfg", "--output", "bounds.csv"],
    }
    with open(os.path.join(ROOT, "configs", "semantic_kitti.cfg")) as fh:
        full = fh.read() + "\n[stats]\nscenes = 2\npoints = 131072\n"
    record = {"exit": {}, "stdout": {}, "files": {}}
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)  # relative paths: stdout names no temporary directory
        for name, text in (("small.cfg", SMALL_CFG), ("full.cfg", full)):
            with open(name, "w") as fh:
                fh.write(text)
        for command, argv in runs.items():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                record["exit"][command] = main(argv)
            record["stdout"][command] = hashlib.sha256(out.getvalue().encode()).hexdigest()
        for directory, _, files in os.walk("."):
            for name in files:
                path = os.path.relpath(os.path.join(directory, name))
                if not name.endswith(".cfg"):
                    record["files"][path] = _file_sha256(path)
    return record


def _pinned_run(name):
    """The record ``name`` made in a fresh process, and the one pinned."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cylseg.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=path)
    run = subprocess.run([sys.executable, os.path.abspath(__file__), name], env=env,
                         capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    with open(os.path.join(ROOT, "tests", "data", f"{name}.json")) as fh:
        return json.loads(run.stdout), json.load(fh)


def _assert_variants_pinned(name):
    """The per-``block_variant`` record ``name`` gives every pinned digest."""
    got, pinned = _pinned_run(name)
    assert sorted(got) == sorted(pinned)
    differ = [f"{variant} {part}" for variant in pinned for part in pinned[variant]
              if got[variant].get(part) != pinned[variant][part]]
    assert not differ, f"bytes differ from the pinned run: {', '.join(differ)}"


def test_three_toy_steps_give_the_pinned_bytes():
    _assert_variants_pinned("three_step_digests")


def test_a_float64_training_pass_gives_the_pinned_bytes():
    _assert_variants_pinned("float64_step_digests")


def test_a_full_scale_predict_splits_into_row_blocks_and_gives_the_pinned_bytes():
    got, pinned = _pinned_run("full_predict_digests")
    for kind, counts in got["blocks"].items():
        assert max(counts) > 1, f"no {kind} ran in more than one row block"
    assert got["blocks"] == pinned["blocks"]
    differ = [part for part in pinned["digests"]
              if got["digests"].get(part) != pinned["digests"][part]]
    assert not differ, f"bytes differ from the pinned run: {', '.join(differ)}"


def test_a_full_scale_train_step_splits_its_input_gradients_and_gives_the_pinned_bytes():
    got, pinned = _pinned_run("full_train_step_digests")
    runs = [count for counts in got["blocks"].values() for count in counts]
    assert max(runs) > 1, "no input-gradient conv ran in more than one row block"
    assert got["blocks"] == pinned["blocks"]
    differ = [part for part in pinned["digests"]
              if got["digests"].get(part) != pinned["digests"][part]]
    assert not differ, f"bytes differ from the pinned run: {', '.join(differ)}"


def test_the_commands_write_the_pinned_files_and_stdout():
    got, pinned = _pinned_run("cli_output_digests")
    assert got["exit"] == {command: 0 for command in pinned["exit"]}
    assert sorted(got["files"]) == sorted(pinned["files"])
    differ = [f"{kind} {name}" for kind in ("stdout", "files") for name in pinned[kind]
              if got[kind].get(name) != pinned[kind][name]]
    assert not differ, f"bytes differ from the pinned run: {', '.join(differ)}"


if __name__ == "__main__":
    record = {"three_step_digests": three_step_digests,
              "float64_step_digests": float64_step_digests,
              "full_predict_digests": full_predict_digests,
              "full_train_step_digests": full_train_step_digests,
              "cli_output_digests": cli_output_digests}[sys.argv[1]]
    json.dump(record(), sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
