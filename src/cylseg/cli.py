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
from typing import Callable, Iterator, List, Optional, Tuple

import numpy as np

from .config import ConfigError, RunConfig, load_config, network_header
from .metrics import ConfusionMatrix, compute_miou, format_iou_table
from .network import SegmentationNetwork, load_checkpoint, save_checkpoint
from .partition import encoding_upper_bound_miou, occupancy_by_distance, write_occupancy_csv
from .pointcloud import (
    SYNTH_NUM_CLASSES,
    PointCloud,
    SyntheticSceneSpec,
    generate_synthetic_scene,
    read_kitti_bin,
    read_kitti_labels,
    write_kitti_labels,
)
from .selftest import run_selftest
from .training import evaluate_network, train_network, write_metrics_csv

VAL_SEED_OFFSET = 10_000


def _synthetic_clouds(
    cfg: RunConfig, count: int, seed_base: int
) -> Iterator[Tuple[str, PointCloud]]:
    if cfg.network.num_classes != SYNTH_NUM_CLASSES:
        raise ValueError(
            f"synthetic data carries {SYNTH_NUM_CLASSES} classes; "
            f"[network] num_classes is {cfg.network.num_classes}"
        )
    specs = (SyntheticSceneSpec(seed=seed_base + i, num_points=cfg.data.points,
                                max_range=cfg.data.max_range) for i in range(count))
    return ((f"scene_{i:04d}", generate_synthetic_scene(spec)) for i, spec in enumerate(specs))


def _list_dir(directory, source: str, cfg_path) -> List[str]:
    """The entries of ``directory``; a failure names ``source`` and the config."""
    try:
        return os.listdir(directory)
    except OSError as exc:
        raise ValueError(f"{source} {directory!r} (config {cfg_path}): {exc.strerror}") from None


def _scan_names(directory, source: str, cfg_path) -> List[str]:
    """Sorted stems of the ``.bin`` scans in ``directory``, named by ``source``."""
    names = sorted(f[:-4] for f in _list_dir(directory, source, cfg_path) if f.endswith(".bin"))
    if not names:
        raise ValueError(f"no .bin scans under {directory}")
    return names


def _file_clouds(cfg: RunConfig, with_labels: bool) -> Iterator[Tuple[str, PointCloud]]:
    scans_dir = cfg.data.scans
    names = _scan_names(scans_dir, "[data] scans", cfg.path)
    if with_labels:
        if not cfg.data.labels:
            raise ValueError("[data] labels directory is required for labeled runs")
        _list_dir(cfg.data.labels, "[data] labels", cfg.path)

    def read(name):
        cloud = read_kitti_bin(os.path.join(scans_dir, name + ".bin"))
        if not with_labels:
            return cloud
        path = os.path.join(cfg.data.labels, name + ".label")
        return cloud.with_labels(read_kitti_labels(path, cfg.label_map, cloud.n))

    return ((name, read(name)) for name in names)


def _dataset(cfg: RunConfig, split: str, with_labels: bool = True):
    """Named clouds for a split: 'train' or 'val' (files ignore the split).
    The class count and the directories are checked at once, but each cloud
    is read or made only when the iteration reaches it, so a loop over them
    holds one at a time."""
    if cfg.data.kind == "files":
        return _file_clouds(cfg, with_labels)
    if split == "train":
        return _synthetic_clouds(cfg, cfg.data.train_scenes, cfg.data.seed)
    return _synthetic_clouds(cfg, cfg.data.val_scenes, cfg.data.seed + VAL_SEED_OFFSET)


def _stats_scenes(cfg: RunConfig) -> List[Callable[[], PointCloud]]:
    """A function making each of the [stats] synthetic scenes."""
    return [
        functools.partial(generate_synthetic_scene,
                          SyntheticSceneSpec(seed=cfg.stats.seed + i, num_points=cfg.stats.points))
        for i in range(cfg.stats.scenes)
    ]


def _cmd_stats(args) -> int:
    cfg = load_config(args.config)
    # each scan is read or made in the lane that bins it, so one is held per lane
    if args.scans:
        clouds = [functools.partial(read_kitti_bin, os.path.join(args.scans, name + ".bin"))
                  for name in _scan_names(args.scans, "--scans", args.config)]
    else:
        clouds = _stats_scenes(cfg)
    rows = occupancy_by_distance(clouds, cfg.grid, cfg.cubic, cfg.stats.edges)
    write_occupancy_csv(rows, args.output)
    for row in rows:
        prop = "n/a" if row.nonempty_proportion is None else f"{row.nonempty_proportion:.4f}"
        print(f"{row.scheme:<12s} [{row.distance_lo:5.1f}, {row.distance_hi:5.1f}) {prop}")
    print(f"wrote {args.output}")
    return 0


def _cmd_bound(args) -> int:
    cfg = load_config(args.config)
    if cfg.data.kind == "files":
        clouds = _dataset(cfg, "val")
    else:
        clouds = ((f"scene_{i:04d}", make()) for i, make in enumerate(_stats_scenes(cfg)))
    k = SYNTH_NUM_CLASSES if cfg.data.kind != "files" else cfg.network.num_classes
    rows = []  # every row before the CSV is opened: a failing scan leaves no file
    for name, cloud in clouds:
        for mode in ("majority", "minority"):
            try:
                miou = encoding_upper_bound_miou(cloud, cfg.grid, mode, k, cfg.ignore_id)
            except ValueError as exc:
                raise ValueError(f"scan {name}: {exc}") from None
            rows.append([name, mode, repr(miou)])
            print(f"{name} {mode:<9s} {miou:.4f}")
    with open(args.output, "w", newline="") as fh:
        csv.writer(fh).writerows([["cloud", "mode", "miou"], *rows])
    print(f"wrote {args.output}")
    return 0


def _cmd_train(args) -> int:
    cfg = load_config(args.config)
    train_clouds = [c for _, c in _dataset(cfg, "train")]
    val_clouds = [c for _, c in _dataset(cfg, "val")] if cfg.data.kind == "synthetic" else []
    network = SegmentationNetwork(cfg.network, seed=cfg.train.seed)
    history = train_network(
        network,
        train_clouds,
        val_clouds,
        epochs=cfg.train.epochs,
        lr=cfg.train.lr,
        seed=cfg.train.seed,
        ignore_id=cfg.ignore_id,
        log=print,
    )
    save_checkpoint(args.output, network)
    print(f"wrote {args.output}")
    if args.metrics:
        write_metrics_csv(history, args.metrics)
        print(f"wrote {args.metrics}")
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
    if args.predictions:
        cm = ConfusionMatrix(cfg.network.num_classes, cfg.ignore_id)
        for name, cloud in _dataset(cfg, "val"):
            path = os.path.join(args.predictions, name + ".label")
            pred = read_kitti_labels(path, cfg.label_map, cloud.n)
            try:
                cm.update(cloud.labels, pred)
            except ValueError as exc:
                raise ValueError(f"scan {name}: {path}: {exc}") from None
        iou, miou = compute_miou(cm)
    else:
        if not args.checkpoint:
            raise ValueError("eval needs --checkpoint or --predictions")
        network = _load_matching_checkpoint(args.checkpoint, cfg)
        clouds = (cloud for _, cloud in _dataset(cfg, "val"))
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
    clouds = _dataset(cfg, "val", with_labels=False)
    os.makedirs(args.output, exist_ok=True)
    # each scan's labels go to a temporary file, renamed only once every scan
    # has succeeded: a failing scan leaves no output behind
    written = []
    try:
        for name, cloud in clouds:
            try:
                pred = network.predict(cloud)
            except ValueError as exc:
                raise ValueError(f"scan {name}: {exc}") from None
            path = os.path.join(args.output, name + ".label")
            written.append((path + ".tmp", path))
            write_kitti_labels(path + ".tmp", cfg.label_map.to_raw(pred))
    except BaseException:
        for tmp, _ in written:
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)
        raise
    for tmp, path in written:
        os.replace(tmp, path)
        print(f"wrote {path}")
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
    p.add_argument("--checkpoint")
    p.add_argument("--predictions", help="directory of predicted .label files")
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
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
