"""Pinned bytes of a short training run, for changes that promise the
bytes of the code before them.

Three ``train_step`` calls on the toy config's first three training scenes,
for each ``block_variant``, then a float64 forward and a ``predict`` on the
first validation scene. A SHA-256 of each part (the losses, parameters,
running state, gradients, float64 point logits and predictions) must match
``tests/data/three_step_digests.json``. The run is a fresh process at
``OPENBLAS_NUM_THREADS=1``: bytes are promised at a fixed BLAS thread count,
which OpenBLAS reads when it loads.

A change that alters the bytes on purpose records new digests with

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python tests/test_pinned_bytes.py \\
        > tests/data/three_step_digests.json
"""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys

import numpy as np

import cylseg
from cylseg.cli import VAL_SEED_OFFSET
from cylseg.config import BLOCK_VARIANTS, load_config
from cylseg.network import SegmentationNetwork
from cylseg.pointcloud import SyntheticSceneSpec, generate_synthetic_scene
from cylseg.training import Adam, class_weights, train_step

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DIGESTS = os.path.join(ROOT, "tests", "data", "three_step_digests.json")
STEPS = 3


def _sha256(named):
    """Digest of ``(name, array)`` pairs, names and shapes included."""
    h = hashlib.sha256()
    for name, arr in named:
        h.update(f"{name} {arr.dtype.str} {arr.shape}\n".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def three_step_digests():
    cfg = load_config(os.path.join(ROOT, "configs", "toy_train.cfg"))

    def scene(seed):
        spec = SyntheticSceneSpec(seed=seed, num_points=cfg.data.points,
                                  max_range=cfg.data.max_range)
        return generate_synthetic_scene(spec)

    clouds = [scene(cfg.data.seed + i) for i in range(STEPS)]
    val = scene(cfg.data.seed + VAL_SEED_OFFSET)
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


def test_three_toy_steps_give_the_pinned_bytes():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cylseg.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=path)
    run = subprocess.run([sys.executable, os.path.abspath(__file__)], env=env,
                         capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    got = json.loads(run.stdout)
    with open(DIGESTS) as fh:
        pinned = json.load(fh)
    assert sorted(got) == sorted(pinned)
    differ = [f"{variant} {part}" for variant in pinned for part in pinned[variant]
              if got[variant].get(part) != pinned[variant][part]]
    assert not differ, f"bytes differ from the pinned run: {', '.join(differ)}"


if __name__ == "__main__":
    json.dump(three_step_digests(), sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
