"""Workload processes of the cylseg benchmark.

    python3 perfbench/workloads.py PHASE --workload NAME --seed N --work DIR
        [--scale full|smoke] [--seconds S] [--trace]

PHASE is one of
  prepare  write the workload's inputs for a seed into DIR (scenes, .bin
           scans, a checkpoint); this is the benchmark's own input generation
  setup    time the program's set-up from a fresh interpreter and exit
  run      set up, run measured passes until S seconds have passed, check
           the outputs and write DIR/run.json; with --trace, follow the
           untraced passes with one traced pass
  record   store the outputs of every input set under perfbench/reference/
           (full-infer and occupancy-stats; run at the commit the reference
           describes)

It runs from the root of a checkout and imports cylseg from ``src/``.
Everything the program does is driven through its public functions, looked
up as module attributes at call time so the tracer's wrappers see every
call, in the order the ``train``, ``infer`` and ``stats`` commands use.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer as tracing  # noqa: E402  (stdlib-only; safe before set-up timing)

DEFAULT_SEED = 0
# full-infer and occupancy-stats draw their scenes from one of this many
# input sets, picked by seed modulo the count, so that every run's outputs
# can be checked against a stored reference (any ten consecutive seeds use
# ten different sets)
INPUT_SETS = 10
VAL_SEED_OFFSET = 10_000  # validation scenes' seed offset, as in cylseg.cli
TOY_CFG = "configs/toy_train.cfg"
FULL_CFG = "configs/semantic_kitti.cfg"
REFERENCE_DIR = os.path.join(HERE, "reference")

# per scale: toy-train scenes/epochs/points (None = the config's), full-infer
# scan size, occupancy-stats scans and their size. toy-train runs 50 steps,
# not the config's 200, so that a run is short next to the host's speed
# swings; after 50 steps validation mIoU is still rising, so it is taken over
# 12 scenes (the config's 4 and the next 8), which halves its seed-to-seed
# spread
SIZES = {
    "full": dict(toy_train=25, toy_val=12, toy_epochs=2, toy_points=None,
                 infer_points=120_000, stats_scans=20, stats_points=524_288),
    "smoke": dict(toy_train=3, toy_val=1, toy_epochs=1, toy_points=2048,
                  infer_points=1024, stats_scans=2, stats_points=16_384),
}


def reference_path(workload: str, size: dict) -> str:
    ext = "npz" if workload == "full-infer" else "json"
    return os.path.join(REFERENCE_DIR, f"{workload}.{size['name']}.{ext}")


def _modules():
    """Import the library; its import time is part of set-up."""
    src = os.path.join(os.getcwd(), "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from cylseg import config, metrics, network, partition, pointcloud, training

    return dict(config=config, metrics=metrics, network=network, partition=partition,
                pointcloud=pointcloud, training=training)


def environment(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "seed": seed,
    }


class Pass:
    """What one measured pass did: operation times, failures and outputs."""

    def __init__(self):
        self.op_times = []
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.outputs = []  # compared bit for bit between traced and untraced
        self.quality = float("nan")

    def fail(self, message: str, ops: int = 1) -> None:
        self.failed += ops
        if len(self.errors) < 20:
            self.errors.append(message)


# ---------------------------------------------------------------------------
# toy-train: train_step on the toy config, then evaluate_network


class ToyTrain:
    """The toy config's scenes, each turned about the vertical axis by a
    seed-drawn angle and its points shuffled, trained for a fixed number of
    steps in the shuffle order train_network uses."""

    def prepare(self, m, work, seed, size):
        import numpy as np

        cfg = m["config"].load_config(TOY_CFG)
        points = size["toy_points"] or cfg.data.points
        rng = np.random.default_rng(seed)
        arrays = {}
        for split, count, base in (("train", size["toy_train"], cfg.data.seed),
                                   ("val", size["toy_val"], cfg.data.seed + VAL_SEED_OFFSET)):
            for i in range(count):
                spec = m["pointcloud"].SyntheticSceneSpec(
                    seed=base + i, num_points=points, max_range=cfg.data.max_range)
                cloud = m["pointcloud"].generate_synthetic_scene(spec)
                angle = rng.uniform(-np.pi, np.pi)
                c, s = np.cos(angle), np.sin(angle)
                xyz = cloud.xyz.copy()
                xyz[:, 0] = c * cloud.xyz[:, 0] - s * cloud.xyz[:, 1]
                xyz[:, 1] = s * cloud.xyz[:, 0] + c * cloud.xyz[:, 1]
                perm = rng.permutation(cloud.n)
                arrays[f"{split}_{i}_xyz"] = xyz[perm]
                arrays[f"{split}_{i}_intensity"] = cloud.intensity[perm]
                arrays[f"{split}_{i}_labels"] = cloud.labels[perm]
        np.savez(os.path.join(work, "scenes.npz"), **arrays)

    def setup(self, m, work, size):
        cfg = m["config"].load_config(TOY_CFG)
        net = m["network"].SegmentationNetwork(cfg.network, seed=cfg.train.seed)
        return {"cfg": cfg, "net": net}

    def load_inputs(self, m, state, work, size):
        import numpy as np

        with np.load(os.path.join(work, "scenes.npz"), allow_pickle=False) as data:
            def clouds(split, count):
                return [m["pointcloud"].PointCloud(data[f"{split}_{i}_xyz"],
                                                   data[f"{split}_{i}_intensity"],
                                                   data[f"{split}_{i}_labels"])
                        for i in range(count)]

            state["train"] = clouds("train", size["toy_train"])
            state["val"] = clouds("val", size["toy_val"])

    def run_pass(self, m, state, size, tracer, clock):
        import numpy as np

        cfg, training = state["cfg"], m["training"]
        net = state.pop("net", None) or m["network"].SegmentationNetwork(
            cfg.network, seed=cfg.train.seed)
        optimizer = training.Adam(net.named_params(), lr=cfg.train.lr)
        if tracer is not None:
            tracer.instrument_network(net)
            tracer.instrument_optimizer(optimizer)
        train, ignore = state["train"], cfg.ignore_id
        weights = training.class_weights([c.labels for c in train],
                                         cfg.network.num_classes, ignore)
        result = Pass()
        step = 0
        for epoch in range(size["toy_epochs"]):
            order = np.random.default_rng([cfg.train.seed, epoch]).permutation(len(train))
            for i in order:
                if tracer is not None:
                    tracer.op = step
                result.attempted += 1
                t0 = clock()
                try:
                    report = training.train_step(net, optimizer, train[i], weights, ignore)
                except Exception as exc:  # noqa: BLE001 - an operation failure is counted
                    result.fail(f"step {step}: {exc!r}")
                else:
                    result.op_times.append(clock() - t0)
                    parts = (report.voxel_ce, report.voxel_lovasz, report.point_ce)
                    if not all(math.isfinite(p) for p in parts):
                        result.fail(f"step {step}: non-finite loss {parts}")
                    result.outputs.append(repr(parts))
                step += 1
        if tracer is not None:
            tracer.op = "evaluate"
        miou = training.evaluate_network(net, state["val"], ignore)[0]
        result.quality = miou
        result.outputs.append(repr(miou))
        return result

    def named(self, times, quality):
        # p80: the highest percentile with ten of the 50 steps beyond it
        q80 = statistics.quantiles(times, n=5)[-1] if len(times) >= 2 else times[0]
        return {
            "train_step_s.p50": (statistics.median(times), "s"),
            "train_step_s.p80": (q80, "s"),
            "train_steps": (len(times), "count"),
            "steps_beyond_p80": (sum(t > q80 for t in times), "count"),
            "val_miou": (quality, "ratio"),
        }


# ---------------------------------------------------------------------------
# full-infer: read_kitti_bin -> predict -> to_raw -> write_kitti_labels


class FullInfer:
    """Full-scale inference: a seed-0 network saved as a checkpoint, one
    120k-point scan from input set ``seed % INPUT_SETS``, whose predictions
    at the reference commit are stored under reference/."""

    def prepare(self, m, work, seed, size):
        cfg = m["config"].load_config(FULL_CFG)
        net = m["network"].SegmentationNetwork(cfg.network, seed=DEFAULT_SEED)
        m["network"].save_checkpoint(os.path.join(work, "net.ckpt"), net)
        spec = m["pointcloud"].SyntheticSceneSpec(
            seed=seed % INPUT_SETS, num_points=size["infer_points"], max_range=50.0)
        m["pointcloud"].write_kitti_bin(os.path.join(work, "scan.bin"),
                                        m["pointcloud"].generate_synthetic_scene(spec))

    def setup(self, m, work, size):
        cfg = m["config"].load_config(FULL_CFG)
        net = m["network"].load_checkpoint(os.path.join(work, "net.ckpt"))
        return {"cfg": cfg, "net": net}

    def load_inputs(self, m, state, work, size):
        import numpy as np

        state["work"] = work
        with np.load(reference_path("full-infer", size), allow_pickle=False) as ref:
            state["reference"] = ref[str(state["seed"] % INPUT_SETS)].astype(np.int64)

    def run_pass(self, m, state, size, tracer, clock):
        import numpy as np

        pc, work = m["pointcloud"], state["work"]
        label_map = state["cfg"].label_map
        if tracer is not None:
            state["net"] = m["network"].load_checkpoint(os.path.join(work, "net.ckpt"))
            tracer.instrument_network(state["net"])
            tracer.op = 0
        out = os.path.join(work, "scan.label")
        result = Pass()
        result.attempted = 1
        t0 = clock()
        try:
            cloud = pc.read_kitti_bin(os.path.join(work, "scan.bin"))
            pred = state["net"].predict(cloud)
            pc.write_kitti_labels(out, label_map.to_raw(pred))
        except Exception as exc:  # noqa: BLE001 - an operation failure is counted
            result.fail(f"scan: {exc!r}")
            return result
        result.op_times.append(clock() - t0)
        problem = check_label_file(out, cloud.n, pred, label_map)
        if problem:
            result.fail(f"scan: {problem}")
        ref = state["reference"]
        result.quality = float(np.mean(pred == ref)) if ref.shape == pred.shape else 0.0
        result.outputs.append(pred.tobytes())
        return result

    def named(self, times, quality):
        return {
            "scan_s.p50": (statistics.median(times), "s"),
            "scans": (len(times), "count"),
            "pred_match": (quality, "ratio"),
        }

    def reference(self, m, state, work):
        return state["net"].predict(m["pointcloud"].read_kitti_bin(
            os.path.join(work, "scan.bin"))).astype("uint8")


def check_label_file(path, n_points, pred, label_map):
    """Why a written .label file is wrong, or None: one id per point, each
    id a raw id of the label map that decodes to the prediction."""
    import numpy as np

    ids = np.fromfile(path, dtype="<u4")
    if ids.shape != (n_points,):
        return f"{ids.size} label ids for {n_points} points"
    raw = (ids & 0xFFFF).astype(np.int64)
    known = np.array(sorted(int(r) for r in label_map.raw_to_train), dtype=np.int64)
    if not np.isin(raw, known).all():
        return "label id outside the label map"
    if not np.array_equal(label_map.remap(raw), pred):
        return "label ids do not decode to the predictions"
    return None


# ---------------------------------------------------------------------------
# occupancy-stats: .bin scans -> occupancy_by_distance on both grids


class OccupancyStats:
    """The paper's occupancy measurement: twenty 524k-point scans of input
    set ``seed % INPUT_SETS``, whose rows at the reference commit are stored
    under reference/."""

    def prepare(self, m, work, seed, size):
        scans = os.path.join(work, "scans")
        os.makedirs(scans)
        for i in range(size["stats_scans"]):
            spec = m["pointcloud"].SyntheticSceneSpec(
                seed=(seed % INPUT_SETS) * 1000 + i, num_points=size["stats_points"])
            m["pointcloud"].write_kitti_bin(os.path.join(scans, f"{i:03d}.bin"),
                                            m["pointcloud"].generate_synthetic_scene(spec))

    def setup(self, m, work, size):
        return {"cfg": m["config"].load_config(FULL_CFG)}

    def load_inputs(self, m, state, work, size):
        scans = os.path.join(work, "scans")
        state["scans"] = [os.path.join(scans, f) for f in sorted(os.listdir(scans))]
        with open(reference_path("occupancy-stats", size)) as fh:
            rows = json.load(fh)[str(state["seed"] % INPUT_SETS)]
        state["reference"] = [tuple(r) for r in rows]

    def stats_rows(self, m, state):
        cfg = state["cfg"]
        clouds = [m["pointcloud"].read_kitti_bin(p) for p in state["scans"]]
        rows = m["partition"].occupancy_by_distance(clouds, cfg.grid, cfg.cubic, cfg.stats.edges)
        return [(r.scheme, r.distance_lo, r.distance_hi, r.nonempty_proportion) for r in rows]

    def run_pass(self, m, state, size, tracer, clock):
        result = Pass()
        n = result.attempted = len(state["scans"])
        if tracer is not None:
            tracer.op = 0
        t0 = clock()
        try:
            rows = self.stats_rows(m, state)
        except Exception as exc:  # noqa: BLE001 - an operation failure is counted
            result.fail(f"stats pass: {exc!r}", n)
            return result
        result.op_times = [(clock() - t0) / n] * n
        ref = state["reference"]
        matched = sum(a == b for a, b in zip(rows, ref))
        result.quality = matched / max(len(rows), len(ref))
        if matched != len(rows) or len(rows) != len(ref):
            result.fail(f"{matched} of {len(ref)} occupancy rows match the reference", n)
        result.outputs.append(repr(rows))
        return result

    def named(self, times, quality):
        return {
            "stats_scans_per_s": (1.0 / statistics.median(times), "1/s"),
            "scans": (len(times), "count"),
            "rows_match": (quality, "ratio"),
        }

    def reference(self, m, state, work):
        scans = os.path.join(work, "scans")
        state["scans"] = [os.path.join(scans, f) for f in sorted(os.listdir(scans))]
        return self.stats_rows(m, state)


WORKLOADS = {"toy-train": ToyTrain(), "full-infer": FullInfer(),
             "occupancy-stats": OccupancyStats()}


# ---------------------------------------------------------------------------
# phases


def _timed_setup(workload, work, size):
    """Imports plus the workload's set-up, timed from a fresh interpreter."""
    t0 = time.perf_counter()
    m = _modules()
    state = workload.setup(m, work, size)
    return m, state, time.perf_counter() - t0


def _passes(workload, m, state, size, seconds, tracer=None):
    """Run passes until ``seconds`` have passed (at least one)."""
    clock = time.perf_counter
    passes = []
    start = clock()
    while True:
        passes.append(workload.run_pass(m, state, size, tracer, clock))
        if tracer is not None or clock() - start >= seconds:
            return passes


def _summary(workload, passes):
    times = [t for p in passes for t in p.op_times]
    summary = {
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "errors": [e for p in passes for e in p.errors],
        "quality": min(p.quality for p in passes),
        "op_times": times,
    }
    if len({repr(p.outputs) for p in passes}) != 1:
        summary["failed"] += passes[-1].attempted
        summary["errors"].append("passes over the same inputs gave different outputs")
    if times:
        summary["op_s.p50"] = statistics.median(times)
        summary["named"] = workload.named(times, summary["quality"])
    return summary


def phase_run(args, workload, size):
    m, state, setup_s = _timed_setup(workload, args.work, size)
    state["seed"] = args.seed
    workload.load_inputs(m, state, args.work, size)
    untraced = _passes(workload, m, state, size, args.seconds)
    result = _summary(workload, untraced)
    result["setup_s"] = setup_s
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(m)
        try:
            traced = _passes(workload, m, state, size, args.seconds, tracer)
        finally:
            tracer.uninstall()
        traced_summary = _summary(workload, traced)
        ops = len(traced_summary["op_times"]) or 1
        layers = tracer.per_layer(ops)
        base = result.get("op_s.p50", float("nan"))
        over = traced_summary.get("op_s.p50", float("nan")) - base
        layers["trace.overhead_s"] = over
        layers["trace.overhead_share"] = over / base
        result["per_layer"] = layers
        result["exact_counts"] = tracer.exact_counts()
        if traced[0].outputs != untraced[0].outputs:
            result["failed"] += traced[0].attempted
            result["errors"].append("traced outputs differ from untraced outputs")
        result["attempted"] += traced_summary["attempted"]
        result["failed"] += traced_summary["failed"]
        result["errors"] += traced_summary["errors"]
        result["spans"] = write_spans(args.work, tracer)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = environment(args.seed)
    return result


def write_spans(work, tracer):
    """Write the traced pass's spans as JSON lines; return the path."""
    path = os.path.join(work, "spans.jsonl")
    own = tracing.self_times(tracer.spans)
    with open(path, "w") as fh:
        for i, (span, self_s) in enumerate(zip(tracer.spans, own)):
            name, start, end, parent, op = span
            fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                 "parent": parent, "op": op, "self_s": self_s}) + "\n")
    return path


def phase_record(args, workload, size):
    """Store the outputs of every input set as the reference (see the module
    docstring); only full-infer and occupancy-stats keep references."""
    import numpy as np

    if not hasattr(workload, "reference"):
        raise SystemExit(f"record: {args.workload} keeps no reference")
    outputs = {}
    for k in range(INPUT_SETS):
        work = os.path.join(args.work, str(k))
        os.makedirs(work)
        m = _modules()
        workload.prepare(m, work, k, size)
        state = workload.setup(m, work, size)
        outputs[str(k)] = workload.reference(m, state, work)
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    path = reference_path(args.workload, size)
    if path.endswith(".npz"):
        np.savez_compressed(path, **outputs)
    else:
        with open(path, "w") as fh:
            json.dump(outputs, fh, indent=1)
            fh.write("\n")
    return {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("phase", choices=("prepare", "setup", "run", "record"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--work", required=True)
    parser.add_argument("--scale", choices=sorted(SIZES), default="full")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    size = dict(SIZES[args.scale], name=args.scale)
    if args.phase == "prepare":
        os.makedirs(args.work, exist_ok=True)
        workload.prepare(_modules(), args.work, args.seed, size)
        result = {}
    elif args.phase == "setup":
        result = {"setup_s": _timed_setup(workload, args.work, size)[2]}
    elif args.phase == "run":
        result = phase_run(args, workload, size)
    else:
        result = phase_record(args, workload, size)
    with open(os.path.join(args.work, f"{args.phase}.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
