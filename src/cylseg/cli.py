"""Command-line entry points: stats, bound, train, eval, infer, selftest.

Exit codes: 0 success, 1 runtime failure, 2 usage or configuration error.
All commands are deterministic given identical config, data and seed.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import os
import sys
from typing import Callable, List, Optional, Tuple

import numpy as np

from .config import ConfigError, RunConfig, load_config, network_header
from .metrics import ConfusionMatrix, compute_miou, format_iou_table
from .network import SegmentationNetwork, load_checkpoint, save_checkpoint
from .partition import encoding_upper_bound_miou, occupancy_by_distance
from .pointcloud import (
    SYNTH_IGNORE,
    SYNTH_NUM_CLASSES,
    PointCloud,
    SyntheticSceneSpec,
    generate_synthetic_scene,
    read_kitti_bin,
    read_kitti_labels,
    write_kitti_labels,
)
from .selftest import run_selftest
from .training import evaluate_network, train_network

VAL_SEED_OFFSET = 10_000
METRICS_HEADER = ("epoch", "l_voxel_ce", "l_voxel_lovasz", "l_point_ce", "total", "val_miou")


@contextlib.contextmanager
def _published(*paths: str):
    """The temps ``<path>.tmp`` of a command's outputs, made on entry; a path
    that cannot be made, or is named twice, fails at once in one line naming
    it. On success each temp replaces its path in order, and then ``wrote
    <path>`` is printed for each; on failure every temp is removed."""
    seen, temps = set(), []
    try:
        for path in paths:
            if os.path.realpath(path) in seen:
                raise ValueError(f"{path}: named for two outputs")
            if os.path.isdir(path):
                raise ValueError(f"{path}: Is a directory")
            seen.add(os.path.realpath(path))
            try:
                open(path + ".tmp", "wb").close()
            except OSError as exc:
                raise ValueError(f"{path}: {exc.strerror}") from None
            temps.append(path + ".tmp")
        yield temps
    except BaseException:
        for tmp in temps:
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)
        raise
    for tmp, path in zip(temps, paths):
        os.replace(tmp, path)
    for path in paths:
        print(f"wrote {path}")


def _write_csv(path: str, rows) -> None:
    """Each of ``rows``, the header first, as it comes; None is an empty cell."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _list_dir(directory, source: str, cfg_path) -> List[str]:
    """The entries of ``directory``; a failure names ``source`` and the config."""
    try:
        return os.listdir(directory)
    except OSError as exc:
        raise ValueError(f"{source} {directory!r} (config {cfg_path}): {exc.strerror}") from None


def _reason(exc: Exception) -> str:
    """The message of ``exc``; an OSError naming a file reads ``<file>: <reason>``."""
    if isinstance(exc, OSError) and exc.filename is not None:
        return f"{exc.filename}: {exc.strerror}"
    return str(exc)


@contextlib.contextmanager
def _in_scan(name: str, *files: str):
    """Prefix any ValueError or OSError raised inside with ``scan <name>: ``
    and the ``files`` it concerns. As a decorator it wraps each scan's loader."""
    try:
        yield
    except (ValueError, OSError) as exc:
        raise ValueError(": ".join([f"scan {name}", *files, _reason(exc)])) from None


def _scan_loaders(cfg: RunConfig, split: str, scans: Optional[str] = None,
                  with_labels: bool = True) -> List[Tuple[str, Callable[[], PointCloud]]]:
    """Named loaders ``[(name, load)]`` for the [data] 'train' or 'val' split
    (files ignore it), the [stats] scenes ('stats'), or the unlabeled ``.bin``
    files under ``scans``. The class count, the directories and the ignore id
    of the labels a caller takes from synthetic scenes are checked at once;
    each ``load()`` reads or makes its scan only when called, refuses a file
    holding no points, and names its scan in any failure."""
    if scans or (split != "stats" and cfg.data.kind == "files"):
        source = "--scans" if scans else "[data] scans"
        with_labels = with_labels and not scans
        scans = scans or cfg.data.scans
        names = sorted(f[:-4] for f in _list_dir(scans, source, cfg.path) if f.endswith(".bin"))
        if not names:
            raise ValueError(f"no .bin scans under {scans}")
        if with_labels:
            if not cfg.data.labels:
                raise ValueError("[data] labels directory is required for labeled runs")
            _list_dir(cfg.data.labels, "[data] labels", cfg.path)

        def read(name):
            path = os.path.join(scans, name + ".bin")
            cloud = read_kitti_bin(path)
            if cloud.n == 0:
                raise ValueError(f"{path}: the scan holds no points")
            if not with_labels:
                return cloud
            path = os.path.join(cfg.data.labels, name + ".label")
            return cloud.with_labels(read_kitti_labels(path, cfg.label_map, cloud.n))

        return [(name, _in_scan(name)(functools.partial(read, name))) for name in names]
    if with_labels and cfg.ignore_id != SYNTH_IGNORE:
        raise ValueError(f"synthetic data labels its clutter {SYNTH_IGNORE}; "
                         f"[labels] ignore_id is {cfg.ignore_id}")
    if split == "stats":
        specs = [SyntheticSceneSpec(seed=cfg.stats.seed + i, num_points=cfg.stats.points)
                 for i in range(cfg.stats.scenes)]
    else:
        if cfg.network.num_classes != SYNTH_NUM_CLASSES:
            raise ValueError(f"synthetic data carries {SYNTH_NUM_CLASSES} classes; "
                             f"[network] num_classes is {cfg.network.num_classes}")
        count, seed = ((cfg.data.train_scenes, cfg.data.seed) if split == "train" else
                       (cfg.data.val_scenes, cfg.data.seed + VAL_SEED_OFFSET))
        specs = [SyntheticSceneSpec(seed=seed + i, num_points=cfg.data.points,
                                    max_range=cfg.data.max_range) for i in range(count)]
    makers = [functools.partial(generate_synthetic_scene, spec) for spec in specs]
    return [(f"scene_{i:04d}", _in_scan(f"scene_{i:04d}")(make)) for i, make in enumerate(makers)]


def _cmd_stats(args) -> int:
    cfg = load_config(args.config)
    # each scan is read or made in the lane that bins it, so one is held per lane
    loads = [load for _, load in _scan_loaders(cfg, "stats", args.scans, with_labels=False)]
    with _published(args.output) as (csv_tmp,):
        rows = occupancy_by_distance(loads, cfg.grid, cfg.cubic, cfg.stats.edges)
        _write_csv(csv_tmp, [("scheme", "distance_lo", "distance_hi", "nonempty_proportion"), *(
            [r.scheme, r.distance_lo, r.distance_hi, r.nonempty_proportion] for r in rows)])
        for row in rows:
            prop = "n/a" if row.nonempty_proportion is None else f"{row.nonempty_proportion:.4f}"
            print(f"{row.scheme:<12s} [{row.distance_lo:5.1f}, {row.distance_hi:5.1f}) {prop}")
    return 0


def _cmd_bound(args) -> int:
    cfg = load_config(args.config)
    files = cfg.data.kind == "files"
    k = cfg.network.num_classes if files else SYNTH_NUM_CLASSES
    loaders = _scan_loaders(cfg, "val" if files else "stats")

    def rows():
        yield "cloud", "mode", "miou"
        for name, load in loaders:
            cloud = load()
            for mode in ("majority", "minority"):
                with _in_scan(name):
                    miou = encoding_upper_bound_miou(cloud, cfg.grid, mode, k, cfg.ignore_id)
                print(f"{name} {mode:<9s} {miou:.4f}")
                yield [name, mode, repr(miou)]

    with _published(args.output) as (csv_tmp,):
        _write_csv(csv_tmp, rows())
    return 0


def _cmd_train(args) -> int:
    cfg = load_config(args.config)
    train_loads = [load for _, load in _scan_loaders(cfg, "train")]
    val_loads = ([load for _, load in _scan_loaders(cfg, "val")]
                 if cfg.data.kind == "synthetic" else [])
    with _published(args.output, *filter(None, [args.metrics])) as (checkpoint, *metrics):
        network = SegmentationNetwork(cfg.network, seed=cfg.train.seed)
        history = train_network(
            network, train_loads, val_loads, epochs=cfg.train.epochs, lr=cfg.train.lr,
            seed=cfg.train.seed, ignore_id=cfg.ignore_id, log=print)
        save_checkpoint(checkpoint, network)
        for path in metrics:
            _write_csv(path, [METRICS_HEADER, *([s.epoch, *map(float, (
                s.voxel_ce, s.voxel_lovasz, s.point_ce, s.total, s.val_miou))] for s in history)])
    return 0


def _load_matching_checkpoint(path, cfg: RunConfig) -> SegmentationNetwork:
    """The checkpoint at ``path``, whose header must equal the config's
    [network] and [grid]: a mismatch names the first key that differs."""
    network = load_checkpoint(path)
    saved = network_header(network.config).splitlines()
    for ours, theirs in zip(saved, network_header(cfg.network).splitlines()):
        if ours != theirs:
            key, _, value = ours.partition(" = ")
            raise ValueError(
                f"{path}: checkpoint and config disagree on {key}: {value} in the "
                f"checkpoint, {theirs.partition(' = ')[2]} in the config"
            )
    return network


def _print_eval(iou: np.ndarray, miou: float) -> None:
    print(format_iou_table(iou, miou))
    print("(classes with no truth and no predictions are excluded from the mean)")


def _cmd_eval(args) -> int:
    cfg = load_config(args.config)
    if args.predictions is not None:
        cm = ConfusionMatrix(cfg.network.num_classes, cfg.ignore_id)
        for name, load in _scan_loaders(cfg, "val"):
            cloud = load()
            path = os.path.join(args.predictions, name + ".label")
            with _in_scan(name):
                pred = read_kitti_labels(path, cfg.label_map, cloud.n)
            with _in_scan(name, path):
                cm.update(cloud.labels, pred)
        iou, miou = compute_miou(cm)
    else:
        network = _load_matching_checkpoint(args.checkpoint, cfg)
        clouds = (load() for _, load in _scan_loaders(cfg, "val"))
        miou, iou, _ = evaluate_network(network, clouds, cfg.ignore_id)
    _print_eval(iou, miou)
    return 0


def _cmd_infer(args) -> int:
    cfg = load_config(args.config)
    missing = np.flatnonzero(cfg.label_map.inverse < 0)
    if missing.size:
        raise ConfigError(f"{args.config}: [labelmap] maps no raw id to train id "
                          f"{missing[0]}, so infer could not write it")
    network = _load_matching_checkpoint(args.checkpoint, cfg)
    loaders = _scan_loaders(cfg, "val", with_labels=False)
    with contextlib.suppress(OSError):  # any failure is named at the first label
        os.mkdir(args.output)
    with _published(*(os.path.join(args.output, name + ".label") for name, _ in loaders)) as temps:
        for (name, load), tmp in zip(loaders, temps):
            cloud = load()
            with _in_scan(name):
                pred = network.predict(cloud)
            write_kitti_labels(tmp, cfg.label_map.to_raw(pred))
    return 0


def _cmd_selftest(args) -> int:
    return 0 if run_selftest(print) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cylseg",
        description="Cylindrical-partition sparse segmentation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="occupancy-by-distance CSV for both partitions")
    p.add_argument("--config", required=True)
    p.add_argument("--output", required=True, help="CSV path")
    p.add_argument("--scans", help="directory of .bin scans (default: synthetic scenes)")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("bound", help="label-encoding upper-bound mIoU CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--output", required=True, help="CSV path")
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("train", help="train on the configured dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--output", required=True, help="checkpoint path")
    p.add_argument("--metrics", help="per-epoch metrics CSV path")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="per-class IoU / mIoU on labeled data")
    p.add_argument("--config", required=True)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--checkpoint")
    source.add_argument("--predictions", help="directory of predicted .label files")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("infer", help="write .label predictions for the eval split")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--output", required=True, help="output directory")
    p.set_defaults(func=_cmd_infer)

    p = sub.add_parser("selftest", help="oracle and gradient self-checks")
    p.set_defaults(func=_cmd_selftest)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {_reason(exc)}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
