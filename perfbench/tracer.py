"""Outside-in span tracer for the cylseg benchmark.

The tracer replaces public cylseg functions with timing wrappers at the name
their caller looks them up under (``network.py`` imports the sparse and
partition kernels by name, so ``cylseg.network.sparse_conv_forward`` is the
name to wrap, not ``cylseg.sparse.sparse_conv_forward``). Spans live in
memory as ``[name, start, end, parent, op]`` records; ``op`` is the step or
scan the span belongs to. Nothing under ``src/`` is changed: ``uninstall``
puts every original attribute back.

Counting hooks run after a span closes, so their cost lands in the parent
span's self time and in the reported tracing overhead, never in the kernel
being counted. FLOP and byte figures are computed from rulebook pair counts,
channel widths and dtype sizes; they are not measured.
"""

from __future__ import annotations

import hashlib
import time
from collections import Counter, defaultdict
from typing import Dict, List, Optional

NAME, START, END, PARENT, OP = range(5)

# (module attribute, span name) per lookup site; see install()
NETWORK_KERNELS = (
    ("assign_cells", "partition.assign_cells"),
    ("scatter_features", "partition.scatter_features"),
    ("scatter_max_winners", "partition.scatter_max_winners"),
    ("build_rulebook", "sparse.build_rulebook"),
    ("sparse_conv_forward", "sparse.conv_forward"),
    ("sparse_conv_backward", "sparse.conv_backward"),
    ("inverse_conv_forward", "sparse.inverse_conv_forward"),
    ("inverse_conv_backward", "sparse.inverse_conv_backward"),
    ("batch_norm_forward", "sparse.batch_norm_forward"),
    ("batch_norm_backward", "sparse.batch_norm_backward"),
    ("leaky_relu_forward", "sparse.activation"),
    ("leaky_relu_backward", "sparse.activation"),
    ("sigmoid_forward", "sparse.activation"),
    ("sigmoid_backward", "sparse.activation"),
    ("concat_features", "sparse.concat_features"),
)
TRAINING_FUNCS = (
    ("encode_cell_labels", "partition.encode_cell_labels"),
    ("segmentation_loss", "training.segmentation_loss"),
    ("lovasz_softmax", "training.lovasz_softmax"),
    ("evaluate_network", "training.evaluate_network"),
)
POINTCLOUD_FUNCS = (
    ("read_kitti_bin", "pointcloud.read_kitti_bin"),
    ("write_kitti_labels", "pointcloud.write_kitti_labels"),
)
TOP_MODULES = (
    "point_mlp", "down0", "down1", "down2", "down3", "ddcm",
    "up0", "up1", "up2", "up3", "head", "refine",
)

# span name -> per-layer metric reported as self time per operation
SELF_TIME_METRICS = (
    "pointcloud.read_kitti_bin",
    "pointcloud.write_kitti_labels",
    "partition.assign_cells",
    "partition.scatter_features",
    "partition.scatter_max_winners",
    "partition.encode_cell_labels",
    "sparse.build_rulebook",
    "sparse.conv_forward",
    "sparse.inverse_conv_forward",
    "sparse.conv_backward",
    "sparse.inverse_conv_backward",
    "sparse.batch_norm_forward",
    "sparse.batch_norm_backward",
    "sparse.activation",
    "sparse.concat_features",
    "training.segmentation_loss",
    "training.lovasz_softmax",
    "training.adam_step",
    "training.evaluate_network",
    "metrics.confusion_update",
)
# span names reported as inclusive time per operation
INCLUSIVE_METRICS = ("network.forward", "network.backward") + tuple(
    f"network.{m}.{d}" for m in TOP_MODULES for d in ("forward", "backward")
)
COUNT_METRICS = (
    "partition.occupied_cells",
    "sparse.build_rulebook.calls",
    "sparse.rulebook_pairs",
    "sparse.conv.flops_computed",
    "sparse.conv.bytes_computed",
)
RATIO_METRICS = ("sparse.rulebook_builds_per_site_set", "sparse.pairs_per_site")
OVERHEAD_METRICS = (("trace.overhead_s", "s"), ("trace.overhead_share", "ratio"))

INDEX_BYTES = 8  # rulebook pair indices are int64


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {f"{n}.s": "s" for n in SELF_TIME_METRICS}
    units.update({f"{n}_s": "s" for n in INCLUSIVE_METRICS})
    units["network.load_checkpoint.s"] = "s"
    units.update({n: "count" for n in COUNT_METRICS})
    units.update({n: "ratio" for n in RATIO_METRICS})
    units.update(dict(OVERHEAD_METRICS))
    return units


def covered_length(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    clipped = sorted((max(s, start), min(e, end)) for s, e in intervals)
    total, cur_s, cur_e = 0.0, None, None
    for s, e in clipped:
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    return [
        s[END] - s[START] - covered_length(s[START], s[END], children[i])
        for i, s in enumerate(spans)
    ]


def conv_counts(pairs, c_in: int, c_out: int, itemsize: int, backward: bool):
    """Computed FLOPs and bytes of one gather-GEMM-scatter call.

    Forward: each pair reads an input row (c_in), read-modify-writes an
    output row (2 c_out) and costs 2 c_in c_out FLOPs; each active offset
    reads its weight slice once. Backward does two GEMMs per pair (weight
    and input gradient): it reads the input row and the gradient row,
    read-modify-writes the input-gradient row, and reads and writes each
    active weight slice.
    """
    p = sum(len(in_idx) for in_idx, _ in pairs)
    active = sum(1 for in_idx, _ in pairs if len(in_idx))
    w = c_in * c_out
    if backward:
        flops = 4 * p * w
        elems = p * (c_in + c_out + 2 * c_in) + 2 * active * w
    else:
        flops = 2 * p * w
        elems = p * (c_in + 2 * c_out) + active * w
    return flops, elems * itemsize + 2 * p * INDEX_BYTES


class Tracer:
    """Collects spans and counts from wrapped cylseg functions."""

    def __init__(self):
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self.site_sets = set()  # (forward pass, spatial shape, coords digest)
        self.op: Optional[object] = None
        self._stack: List[int] = []
        self._patches = []

    # -- recording ---------------------------------------------------------

    def wrap(self, fn, name: str, hook=None):
        """Return ``fn`` timed as span ``name``; ``hook(args, result)`` counts."""

        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            record = [name, time.perf_counter(), None, parent, self.op]
            self.spans.append(record)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, hook=None) -> None:
        """Replace ``owner.attr`` by its traced version until uninstall()."""
        had_own = attr in vars(owner)
        original = getattr(owner, attr)
        self._patches.append((owner, attr, had_own, vars(owner).get(attr)))
        setattr(owner, attr, self.wrap(original, name, hook))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, had_own, original = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- counting hooks ----------------------------------------------------

    def _count_cells(self, args, mapping) -> None:
        self.counts["partition.occupied_cells"] += mapping.num_cells

    def _count_rulebook(self, args, rb) -> None:
        # site sets are told apart within one forward pass; two scenes of an
        # evaluation can share a fully occupied coarse level
        forward = next((i for i in reversed(self._stack)
                        if self.spans[i][NAME] == "network.forward"), self.op)
        coords = rb.in_coords
        digest = hashlib.blake2b(coords.tobytes(), digest_size=16).hexdigest()
        self.site_sets.add((forward, tuple(rb.in_shape), coords.shape, digest))
        self.counts["sparse.build_rulebook.calls"] += 1
        self.counts["sparse.rulebook_pairs"] += rb.num_pairs
        self.counts["sparse.rulebook_sites"] += coords.shape[0]

    def _conv_hook(self, backward: bool):
        def hook(args, result):
            x, params, rb = args[0], args[1], args[2]
            _, c_in, c_out = params.weights.shape
            flops, nbytes = conv_counts(
                rb.pairs, c_in, c_out, x.features.dtype.itemsize, backward
            )
            self.counts["sparse.conv.flops_computed"] += flops
            self.counts["sparse.conv.bytes_computed"] += nbytes

        return hook

    # -- installation --------------------------------------------------------

    def install(self, cylseg_modules) -> None:
        """Wrap the library functions at every lookup site the workloads use.

        ``cylseg_modules`` maps short names (network, partition, training,
        pointcloud, metrics) to the imported cylseg modules.
        """
        network = cylseg_modules["network"]
        hooks = {
            "assign_cells": self._count_cells,
            "build_rulebook": self._count_rulebook,
            "sparse_conv_forward": self._conv_hook(False),
            "inverse_conv_forward": self._conv_hook(False),
            "sparse_conv_backward": self._conv_hook(True),
            "inverse_conv_backward": self._conv_hook(True),
        }
        for attr, name in NETWORK_KERNELS:
            self.patch(network, attr, name, hooks.get(attr))
        # occupancy_by_distance looks assign_cells up in its own module
        self.patch(cylseg_modules["partition"], "assign_cells",
                   "partition.assign_cells", self._count_cells)
        for attr, name in TRAINING_FUNCS:
            self.patch(cylseg_modules["training"], attr, name)
        for attr, name in POINTCLOUD_FUNCS:
            self.patch(cylseg_modules["pointcloud"], attr, name)
        self.patch(network, "load_checkpoint", "network.load_checkpoint")
        # evaluate_network calls update on ConfusionMatrix instances it makes
        self.patch(cylseg_modules["metrics"].ConfusionMatrix, "update",
                   "metrics.confusion_update")

    def instrument_network(self, net) -> None:
        """Wrap forward/backward of a network and its top-level modules."""
        for attr in ("forward", "backward"):
            self.patch(net, attr, f"network.{attr}")
        for name, module in net.children():
            for attr in ("forward", "backward"):
                self.patch(module, attr, f"network.{name}.{attr}")

    def instrument_optimizer(self, optimizer) -> None:
        self.patch(optimizer, "step", "training.adam_step")

    # -- reporting -------------------------------------------------------------

    def per_layer(self, ops: int) -> Dict[str, float]:
        """Per-layer metrics over everything recorded, per operation.

        Times are seconds per operation; ``network.load_checkpoint.s`` runs
        once in set-up and is reported per call instead.
        """
        own = self_times(self.spans)
        self_sum: Dict[str, float] = defaultdict(float)
        incl_sum: Dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for span, t in zip(self.spans, own):
            self_sum[span[NAME]] += t
            incl_sum[span[NAME]] += span[END] - span[START]
            calls[span[NAME]] += 1
        out = {f"{n}.s": self_sum[n] / ops for n in SELF_TIME_METRICS}
        out.update({f"{n}_s": incl_sum[n] / ops for n in INCLUSIVE_METRICS})
        loads = calls["network.load_checkpoint"]
        out["network.load_checkpoint.s"] = (
            incl_sum["network.load_checkpoint"] / loads if loads else 0.0
        )
        out.update({n: self.counts[n] / ops for n in COUNT_METRICS})
        builds = self.counts["sparse.build_rulebook.calls"]
        sites = self.counts["sparse.rulebook_sites"]
        out["sparse.rulebook_builds_per_site_set"] = (
            builds / len(self.site_sets) if self.site_sets else 0.0
        )
        out["sparse.pairs_per_site"] = self.counts["sparse.rulebook_pairs"] / sites if sites else 0.0
        return out

    def exact_counts(self) -> Dict[str, int]:
        """The integer counts behind the count metrics, for repeat checks."""
        out = {n: int(self.counts[n]) for n in sorted(self.counts)}
        out["sparse.distinct_site_sets"] = len(self.site_sets)
        return out
