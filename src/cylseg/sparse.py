"""Sparse 3D tensors and rulebook-driven sparse convolution.

A sparse tensor stores features only at occupied voxel sites. Convolutions
are organised around a *rulebook*: for every kernel offset, the list of
(input site, output site) index pairs it connects. The forward pass is then
gather -> small GEMM -> scatter per offset, and the input gradient is that
kernel over the transposed rulebook, with each ``W_k`` transposed and no bias.

Conventions, fixed across the package:

* kernel offsets are centered, enumerated in C order over
  ``[-(k-1)/2 .. (k-1)/2]`` per axis;
* a pair (i -> j) exists for offset k iff ``coord(i) + offset_k = coord(j)``,
  so the forward pass computes ``out[p] = bias + sum_k W_k^T x[p - offset_k]``;
* a site set lists its sites in strictly ascending flat-key order
  ``(h * W + w) * L + l``, as the grid's cell table yields them;
* submanifold mode keeps the output site set identical to the input's;
* strided mode creates an output site at ``c`` iff some input site lies in
  its receptive field ``{stride * c + d}``; output shape is
  ``ceil(input_shape / stride)``. There is no wraparound on any axis;
* the inverse convolution runs the same forward and backward over a stored
  rulebook read backwards (``Rulebook.transposed``).

For a fixed offset the input site determines the output site uniquely and
vice versa, so scatter targets within one offset never repeat; accumulating
offsets in ascending order makes every forward and backward pass bitwise
deterministic. Every pair list ascends on both sides, and so does its
transpose's. A large conv (an input gradient too) runs in blocks of output
rows, each on one thread: every output row is still summed by one thread in
ascending offset order, and the block count depends on the conv's size
alone, never on the number of CPUs.
"""

from __future__ import annotations

import math
import os
import struct
import sys
import threading
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

_DTYPE = np.float64


def as_features(features) -> np.ndarray:
    """Features, gradients (or folded parameters) to compute on, and a point
    cloud's positions and intensities: float32 stays float32 (training,
    ``predict`` and ``.bin`` scans), anything else becomes float64. Each op,
    forward or backward, computes in its input's dtype."""
    features = np.asarray(features)
    return features if features.dtype == np.float32 else features.astype(_DTYPE, copy=False)


def _as_triple(value) -> Tuple[int, int, int]:
    if isinstance(value, (int, np.integer)):
        return (int(value),) * 3
    t = tuple(int(v) for v in value)
    if len(t) != 3:
        raise ValueError(f"expected 3 axes, got {value!r}")
    return t


# The most cells a grid or a sparse tensor's shape may have: 48 times the
# paper's 480 x 360 x 32 grid. ``occupied_keys``'s tables over the cells (a
# bool mark and an int32 rank each) then take at most 1.25 GiB.
MAX_CELLS = 1 << 28


def check_shape(shape) -> Tuple[int, int, int]:
    """``shape`` as three ints, each positive, with at most ``MAX_CELLS`` cells."""
    shape = _as_triple(shape)
    if any(s < 1 for s in shape):
        raise ValueError(f"bad resolution {shape}: every axis needs at least one cell")
    cells = math.prod(shape)
    if cells > MAX_CELLS:
        raise ValueError(f"resolution {shape} has {cells} cells, more than 2^28")
    return shape


def rank_table(keys: np.ndarray, cells: int) -> np.ndarray:
    """An int32 table over ``cells`` cells giving each of the distinct, ascending
    ``keys`` its index among them. Only the entries at ``keys`` are written;
    the rest of the table is left unset, so its untouched pages cost nothing."""
    rank = np.empty(cells, dtype=np.int32)
    rank[keys] = np.arange(keys.size, dtype=np.int32)
    return rank


def occupied_keys(keys: np.ndarray, cells: int) -> Tuple[np.ndarray, np.ndarray]:
    """The distinct ``keys`` (each in [0, cells)) in ascending order, and their
    ``rank_table``."""
    seen = np.zeros(cells, dtype=bool)
    seen[keys] = True
    distinct = np.flatnonzero(seen)
    return distinct, rank_table(distinct, cells)


def _flatten_coords(coords: np.ndarray, shape: Sequence[int]) -> np.ndarray:
    h, w, l = shape
    return (coords[:, 0] * w + coords[:, 1]) * l + coords[:, 2]


def key_coords(keys: np.ndarray, shape) -> np.ndarray:
    """(M, 3) int64 cell coordinates of the flat ``keys`` in a grid of ``shape``."""
    return np.stack(np.unravel_index(keys, shape), axis=1).astype(np.int64)


def _validate_coords(coords: np.ndarray, shape) -> np.ndarray:
    coords = np.ascontiguousarray(coords, dtype=np.int64)
    if coords.ndim != 2 or coords.shape[1] != 3:
        raise ValueError(f"coords must be (M, 3), got {coords.shape}")
    if coords.shape[0]:
        if coords.min() < 0 or (coords >= np.array(shape)).any():
            raise ValueError("coords out of bounds")
        if not (np.diff(_flatten_coords(coords, shape)) > 0).all():
            raise ValueError(
                "coords must ascend strictly by flat key: duplicate sites or out of order"
            )
    return coords


@dataclass
class SparseTensor:
    """Features attached to a set of in-bounds voxel coordinates in strictly
    ascending flat-key order (so each site appears once)."""

    coords: np.ndarray  # (M, 3) int64
    features: np.ndarray  # (M, C) float32 in training and predict, float64 otherwise
    spatial_shape: Tuple[int, int, int]

    def __post_init__(self):
        self.spatial_shape = check_shape(self.spatial_shape)
        self.coords = _validate_coords(self.coords, self.spatial_shape)
        self.features = as_features(self.features)
        if self.features.ndim != 2 or self.features.shape[0] != self.coords.shape[0]:
            raise ValueError(
                f"features must be (M, C) with M={self.coords.shape[0]}, "
                f"got {self.features.shape}"
            )

    @property
    def num_sites(self) -> int:
        return self.coords.shape[0]

    @property
    def num_channels(self) -> int:
        return self.features.shape[1]

    def with_features(self, features: np.ndarray) -> "SparseTensor":
        """Same site set (shared coords array), new features."""
        out = SparseTensor.__new__(SparseTensor)
        out.coords = self.coords
        out.spatial_shape = self.spatial_shape
        features = as_features(features)
        if features.ndim != 2 or features.shape[0] != self.coords.shape[0]:
            raise ValueError("feature row count must match site count")
        out.features = features
        return out


@dataclass(frozen=True)
class KernelSpec:
    """Kernel geometry: odd size per axis, stride in {1, 2}, and mode."""

    size: Tuple[int, int, int]
    stride: Tuple[int, int, int] = (1, 1, 1)
    mode: str = "submanifold"

    def __post_init__(self):
        object.__setattr__(self, "size", _as_triple(self.size))
        object.__setattr__(self, "stride", _as_triple(self.stride))
        if any(s < 1 or s % 2 == 0 for s in self.size):
            raise ValueError(f"kernel sizes must be odd and positive, got {self.size}")
        if self.mode not in ("submanifold", "strided"):
            raise ValueError(f"unknown kernel mode {self.mode!r}")
        if any(s not in (1, 2) for s in self.stride):
            raise ValueError(f"strides must be 1 or 2, got {self.stride}")
        if self.mode == "submanifold" and self.stride != (1, 1, 1):
            raise ValueError("submanifold kernels must have unit stride")

    @property
    def volume(self) -> int:
        return self.size[0] * self.size[1] * self.size[2]

    def offsets(self) -> np.ndarray:
        """(volume, 3) centered offsets in C enumeration order."""
        rh, rw, rl = (s // 2 for s in self.size)
        grids = np.meshgrid(
            np.arange(-rh, rh + 1),
            np.arange(-rw, rw + 1),
            np.arange(-rl, rl + 1),
            indexing="ij",
        )
        return np.stack([g.ravel() for g in grids], axis=1).astype(np.int64)


@dataclass
class Rulebook:
    """Per-offset pair lists connecting input sites to output sites.

    ``identity_offset`` names the offset whose pairs are ``(arange(M),
    arange(M))`` (a submanifold kernel's centre), which the convolutions run
    on the whole feature array without a gather or scatter.
    """

    kernel: KernelSpec
    in_coords: np.ndarray
    in_shape: Tuple[int, int, int]
    out_coords: np.ndarray
    out_shape: Tuple[int, int, int]
    pairs: List[Tuple[np.ndarray, np.ndarray]]  # per offset: (in_idx, out_idx)
    identity_offset: Optional[int] = None

    @property
    def num_pairs(self) -> int:
        return sum(len(p[0]) for p in self.pairs)

    def transposed(self) -> "Rulebook":
        """The same pairs, in the same order, with input and output swapped."""
        return Rulebook(
            self.kernel,
            self.out_coords,
            self.out_shape,
            self.in_coords,
            self.in_shape,
            [(out_idx, in_idx) for in_idx, out_idx in self.pairs],
            self.identity_offset,
        )


def _neighbours(coords, keys, rank, shape, offset) -> Tuple[np.ndarray, np.ndarray]:
    """The pairs (i -> j) with ``coords[i] + offset == coords[j]`` of a valid
    site set with flat ``keys`` and their ``rank_table``, ascending in both i
    and j. Each shifted key's rank is read from the table, clamped into
    ``[0, M)`` as unsigned, and kept only where the key at that rank is the
    shifted key: an unset entry may hold anything."""
    m = coords.shape[0]
    if offset == (0, 0, 0) or m == 0:
        every = np.arange(m)
        return every, every
    valid = np.ones(m, dtype=bool)
    for axis, d in enumerate(offset):
        if d < 0:
            valid &= coords[:, axis] >= -d
        elif d > 0:
            valid &= coords[:, axis] < shape[axis] - d
    src = np.nonzero(valid)[0]
    _, w, l = shape
    tkeys = keys[src] + ((offset[0] * w + offset[1]) * l + offset[2])
    pos = rank.take(tkeys).view(np.uint32)
    np.minimum(pos, m - 1, out=pos)
    found = keys.take(pos) == tkeys
    return src[found], pos[found].astype(np.int64)


def build_rulebook(x: SparseTensor, kernel: KernelSpec) -> Rulebook:
    """Enumerate (input, output) site pairs for each kernel offset over the
    sites of ``x``, whose coords are valid by construction.

    Submanifold: the output site set (and ordering) equals the input's; a
    pair (i -> j) exists for offset k iff ``in_coords[i] + offset_k`` is an
    occupied site j. Strided: output sites are all cells ``c`` of the
    ceil-divided grid whose receptive field ``stride * c + offsets`` touches
    an input site; pairs follow the same coordinate equation with output
    coordinates scaled by the stride. Both sides of every pair list ascend:
    a shift, and an exact division by the stride within one residue class,
    keep the ascending order of the input sites.
    """
    in_coords, in_shape = x.coords, x.spatial_shape
    offsets = kernel.offsets()

    if kernel.mode == "submanifold":
        # offsets[V-1-k] == -offsets[k], and a pair (i -> j) of d is the pair
        # (j -> i) of -d: each list past the centre is an earlier one swapped
        keys = _flatten_coords(in_coords, in_shape)
        rank = rank_table(keys, math.prod(in_shape))
        half = [_neighbours(in_coords, keys, rank, in_shape, tuple(d.tolist()))
                for d in offsets[: kernel.volume // 2 + 1]]
        pairs = half + [(j, i) for i, j in reversed(half[:-1])]
        return Rulebook(
            kernel, in_coords, in_shape, in_coords, in_shape, pairs, kernel.volume // 2
        )

    # strided downsampling: site c feeds output c' through offset d iff
    # c + d = stride * c', so only sites with c = r = -d (mod stride) can,
    # and for them c' = c // stride + (r + d) / stride: one key shift per
    # offset, bounds-checked only on the axes it moves
    stride = np.array(kernel.stride, dtype=np.int64)
    out_shape = tuple(int(-(-s // st)) for s, st in zip(in_shape, kernel.stride))
    residue_id = np.array([4, 2, 1])  # per-axis residues are 0 or 1
    residue = (in_coords % stride) @ residue_id
    by_residue = np.argsort(residue, kind="stable")
    starts = np.concatenate([[0], np.cumsum(np.bincount(residue, minlength=8))])
    base = (in_coords // stride)[by_residue]
    base_keys = _flatten_coords(base, out_shape)
    columns = np.ascontiguousarray(base.T)
    per_offset = []
    for d in offsets:
        r = -d % stride
        shift = ((r + d) // stride).tolist()
        group = r @ residue_id
        lo, hi = starts[group : group + 2].tolist()
        src, keys = by_residue[lo:hi], base_keys[lo:hi]
        moved = [axis for axis in range(3) if shift[axis]]
        if moved:
            ok = np.ones(hi - lo, dtype=bool)
            for axis in moved:
                s, col = shift[axis], columns[axis][lo:hi]
                ok &= (col >= -s) if s < 0 else (col < out_shape[axis] - s)
            step = (shift[0] * out_shape[1] + shift[1]) * out_shape[2] + shift[2]
            src, keys = src[ok], keys[ok] + step
        per_offset.append((src, keys))
    out_keys, rank = occupied_keys(
        np.concatenate([keys for _, keys in per_offset]), math.prod(out_shape)
    )
    out_coords = key_coords(out_keys, out_shape)
    pairs = [(src, rank[keys].astype(np.int64)) for src, keys in per_offset]
    return Rulebook(kernel, in_coords, in_shape, out_coords, out_shape, pairs)


def _check_rulebook_input(x: SparseTensor, rulebook: Rulebook) -> None:
    # a cached rulebook gets the very coords array it was built from: only
    # another array is compared element by element
    if x.spatial_shape != rulebook.in_shape or not (
        x.coords is rulebook.in_coords or np.array_equal(x.coords, rulebook.in_coords)
    ):
        raise ValueError("tensor sites do not match the rulebook's input sites")


# A conv (pairs x C_in x C_out multiply-adds) and a point chain on predict's
# route run in blocks of rows of at least _BLOCK_MACS multiply-adds each: one
# block below 2 x _BLOCK_MACS, which keeps the toy network's convs (7.6M at
# most) whole, and a power of two up to _MAX_BLOCKS above. Each block's GEMMs
# then stay large enough that the BLAS gives every row the bytes of the whole
# GEMM, as OpenBLAS does above 10^6 multiply-adds but not below. The count
# depends on the job alone, never on the CPUs, which run blocks round-robin.
_BLOCK_MACS = 1 << 26
_MAX_BLOCKS = 8
_MAX_LANES = 8  # threads that ``in_lanes`` runs work on, the caller's included
_POOL = None  # runs every lane but the caller's; made on first use
_IN_LANE = threading.local()  # ``active`` while the thread runs a lane


def _cpu_count() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pool():
    global _POOL
    if _POOL is None:
        from concurrent.futures import ThreadPoolExecutor

        _POOL = ThreadPoolExecutor(min(_cpu_count(), _MAX_LANES) - 1, "cylseg")
    return _POOL


def _forget_pool() -> None:
    # a forked child inherits the pool object but none of its threads
    global _POOL
    _POOL = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def in_lanes(work, items) -> list:
    """``[work(item) for item in items]``, run in lanes: one per CPU the
    process may use (at most ``_MAX_LANES``, never more than the items),
    the first on the calling thread and the others on a pool made on first
    use. Lane ``i`` of ``n`` runs items ``i, i + n, ...`` in order. It waits
    for every lane, also when one raises; the error raised is the lowest
    failing lane's. With one lane nothing runs off the calling thread and
    no pool is made.

    ``work`` must not call ``in_lanes``, since a lane on the pool would then
    wait on the pool it occupies: such a call raises a RuntimeError.
    """
    if getattr(_IN_LANE, "active", False):
        raise RuntimeError("in_lanes called from inside a lane, whose pool it would wait on")
    items = list(items)
    lanes = max(1, min(_cpu_count(), _MAX_LANES, len(items)))

    def lane(first):
        _IN_LANE.active = True
        try:
            return [work(item) for item in items[first::lanes]]
        finally:
            _IN_LANE.active = False

    waiting = [_pool().submit(lane, first) for first in range(1, lanes)]
    try:
        done = [lane(0)]
    finally:
        for future in waiting:
            future.exception()  # waits, and keeps the caller's own error
    done += [future.result() for future in waiting]
    results = [None] * len(items)
    for first, got in enumerate(done):
        results[first::lanes] = got
    return results


def in_row_blocks(rows: int, macs: int, work) -> None:
    """``work(lo, hi)`` on each of the contiguous, near-equal blocks of
    ``rows`` rows that a job of ``macs`` multiply-adds splits into, run by
    ``in_lanes``."""
    blocks = 1
    while blocks < _MAX_BLOCKS and macs >= 2 * blocks * _BLOCK_MACS:
        blocks *= 2
    edges = [rows * b // blocks for b in range(blocks + 1)]
    in_lanes(lambda b: work(edges[b], edges[b + 1]), range(blocks))


def _conv_rows(features, weights, bias, rulebook: Rulebook, out, lo: int, hi: int,
               gathered=None) -> None:
    """Output rows ``lo:hi`` of the convolution, written into ``out``: the
    offsets in ascending order, each on its pairs whose output site lies in
    the block, a slice of its ascending ``out_idx`` (its whole lists when the
    block is the whole output). Rows move by ``take`` and are stored whole
    through a view of each row of ``out`` as one item, which costs less per
    row than fancy indexing on narrow rows; the sums are ``out[dst] +=
    prod``'s. In a whole-output block, ``gathered(k, out_idx, src)`` is then
    given each gathered offset's rows ``src`` of ``features``."""
    block = out[lo:hi]
    block[:] = bias
    row = np.dtype((np.void, out.shape[1] * out.itemsize))
    rows = out.view(row)
    whole = lo == 0 and hi == len(out)
    for k, (in_idx, out_idx) in enumerate(rulebook.pairs):
        if k == rulebook.identity_offset:
            block += features[lo:hi] @ weights[k]
            continue
        if not whole:
            first, last = out_idx.searchsorted((lo, hi)).tolist()
            in_idx, out_idx = in_idx[first:last], out_idx[first:last]
        if out_idx.size:
            src = features.take(in_idx, axis=0)
            acc = out.take(out_idx, axis=0)
            acc += src @ weights[k]
            rows[out_idx] = acc.view(row)
            if whole and gathered is not None:
                gathered(k, out_idx, src)


def _run_conv(features, weights, bias, rulebook: Rulebook, gathered=None) -> np.ndarray:
    """The gather-GEMM-scatter kernel: output rows in the dtype of
    ``features``, offsets accumulated in ascending order (the identity
    offset's GEMM on the whole feature array, with the same sums). A large
    conv runs in blocks of output rows (``in_row_blocks``), spread over the
    CPUs; the bytes do not depend on how many. ``gathered`` is as in
    ``_conv_rows``, called only when the conv runs as one block."""
    _, c_in, c_out = weights.shape
    out = np.empty((rulebook.out_coords.shape[0], c_out), dtype=features.dtype)
    in_row_blocks(len(out), rulebook.num_pairs * c_in * c_out,
                  lambda lo, hi: _conv_rows(features, weights, bias, rulebook, out, lo, hi,
                                            gathered))
    return out


def sparse_conv_forward(x: SparseTensor, params, rulebook: Rulebook) -> SparseTensor:
    """Convolution over the rulebook's pair lists, in the dtype of
    ``x.features``. ``params`` is a network ``Conv``, or anything with its
    float64 ``weights`` (volume, C_in, C_out) and ``bias`` (C_out,), cast
    per call (a copy with its batch norm folded in holds them in the
    compute dtype already). Any other shapes raise one ValueError."""
    _check_rulebook_input(x, rulebook)
    weights, bias = params.weights, params.bias
    if bias.ndim != 1 or weights.shape != (rulebook.kernel.volume, x.num_channels, *bias.shape):
        raise ValueError(
            f"conv weights {weights.shape} and bias {bias.shape} must be (kernel volume "
            f"{rulebook.kernel.volume}, C_in {x.num_channels}, C_out) and (C_out,)"
        )
    weights = weights.astype(x.features.dtype, copy=False)
    result = SparseTensor.__new__(SparseTensor)
    result.coords = rulebook.out_coords
    result.features = _run_conv(x.features, weights, bias, rulebook)
    result.spatial_shape = rulebook.out_shape
    return result


def sparse_conv_backward(x: SparseTensor, params, rulebook: Rulebook, grad_out: np.ndarray):
    """Gradients of the convolution w.r.t. input features, weights and bias
    (``params`` as in ``sparse_conv_forward``); the input gradient is the
    conv's kernel run as its adjoint, in the dtype of ``grad_out`` (float32
    stays float32), with the float64 weights cast per call. A strided
    ``grad_out`` (a concat's share) is copied once: ``take`` would copy it
    whole per offset.

    When the input gradient runs as one block, each offset's weight gradient
    is made from the rows of ``grad_out`` that the kernel gathered for it;
    a conv in several blocks gathers them again, whole, in a loop of its own,
    since summing per-block products would change the bytes."""
    grad_out = np.ascontiguousarray(as_features(grad_out))
    _, c_in, c_out = params.weights.shape
    if grad_out.shape != (rulebook.out_coords.shape[0], c_out):
        raise ValueError("grad_out shape mismatch")
    adjoint = params.weights.transpose(0, 2, 1).astype(grad_out.dtype, copy=False)
    zero = np.zeros(c_in, dtype=grad_out.dtype)
    grad_w = np.zeros_like(params.weights)
    made = set()

    def weight_grad(k, in_idx, rows):
        grad_w[k] = x.features.take(in_idx, axis=0).T @ rows
        made.add(k)

    grad_in = _run_conv(grad_out, adjoint, zero, rulebook.transposed(), weight_grad)
    for k, (in_idx, out_idx) in enumerate(rulebook.pairs):
        if k == rulebook.identity_offset:
            grad_w[k] = x.features.T @ grad_out
        elif in_idx.size and k not in made:
            weight_grad(k, in_idx, grad_out.take(out_idx, axis=0))
    return grad_in, grad_w, column_sums(grad_out)


def inverse_conv_forward(x: SparseTensor, params, stored_rulebook: Rulebook) -> SparseTensor:
    """Transposed convolution through a stored (downsampling) rulebook.

    ``x`` must live on the rulebook's output sites; the result lives exactly
    on the rulebook's input sites, restoring the pre-downsample coordinate
    set. ``params`` is as in ``sparse_conv_forward``, its own layer's:
    weights (volume, C(x), C_out) and bias (C_out,).
    """
    return sparse_conv_forward(x, params, stored_rulebook.transposed())


def inverse_conv_backward(
    x: SparseTensor, params, stored_rulebook: Rulebook, grad_out: np.ndarray
):
    return sparse_conv_backward(x, params, stored_rulebook.transposed(), grad_out)


# ---------------------------------------------------------------------------
# element-wise ops and normalization (functional: forward returns a context)


def column_sums(x: np.ndarray) -> np.ndarray:
    """``x.sum(axis=0)`` of a 2-D ``x``, bitwise. Where the rows are the
    outer stride and there are two columns or more, numpy adds each column
    row by row from 0 but calls its inner loop once per row; ``einsum`` adds
    in the same order in one loop, 2-4x faster. It computes value + sum
    where numpy computes sum + value: the same bits unless both are NaN, so
    a NaN sum is summed again by numpy. A single column, or F order, numpy
    sums pairwise: those keep ``sum``."""
    if x.ndim == 2 and x.shape[1] > 1 and x.strides[0] > x.strides[1] > 0:
        sums = np.einsum("ij->j", x)
        if not np.isnan(sums).any():
            return sums
    return x.sum(axis=0)


def column_means(x: np.ndarray) -> np.ndarray:
    """``x.mean(axis=0)`` of a 2-D ``x``, bitwise: ``column_sums`` divided in
    place by the row count as numpy's ``mean`` divides."""
    sums = column_sums(x)
    return np.true_divide(sums, np.intp(x.shape[0]), out=sums, casting="unsafe")


# batch norm's variance floor, and the weight of the old running statistics
# in each training batch's update of them
NORM_EPS, NORM_MOMENTUM = 1e-5, 0.99


def batch_norm_forward(features: np.ndarray, norm, training: bool):
    """Normalize per channel over active sites, by ``norm``: anything with
    the four per-channel float64 arrays ``scale``, ``shift``, ``running_mean``
    and ``running_var``, such as a network ``BatchNorm``.

    Training mode uses batch statistics (biased variance) and updates the
    running buffers in place: running = m * running + (1 - m) * batch for
    m = NORM_MOMENTUM. Inference mode uses the running buffers. It computes
    in the dtype of ``features``. The variance is ``features.var``'s: the
    mean of the squared deviations, squared into the buffer that takes ``out``.
    """
    features = as_features(features)
    dtype = features.dtype
    if training:
        if features.shape[0] == 0:
            raise ValueError("batch norm in training mode needs at least one site")
        mean = column_means(features)
        xhat = features - mean
        out = np.multiply(xhat, xhat)
        var = column_means(out)
        norm.running_mean *= NORM_MOMENTUM
        norm.running_mean += (1 - NORM_MOMENTUM) * mean
        norm.running_var *= NORM_MOMENTUM
        norm.running_var += (1 - NORM_MOMENTUM) * var
    else:
        mean, var = norm.running_mean, norm.running_var
        xhat = features - mean.astype(dtype, copy=False)
        out = np.empty_like(xhat)
    inv_std = (1.0 / np.sqrt(var + NORM_EPS)).astype(dtype, copy=False)
    xhat *= inv_std
    scale = norm.scale.astype(dtype, copy=False)
    np.multiply(scale, xhat, out=out)
    out += norm.shift.astype(dtype, copy=False)
    ctx = (xhat, inv_std, scale, training)
    return out, ctx


def batch_norm_backward(grad_out: np.ndarray, ctx):
    """Gradients w.r.t. the input, ``scale`` and ``shift``. In training mode
    the two batch means are ``grad_shift / n`` and ``grad_scale / n``: a mean
    is its sum divided by ``n``."""
    xhat, inv_std, scale, training = ctx
    grad_out = as_features(grad_out)
    prod = grad_out * xhat
    grad_scale = column_sums(prod)
    grad_shift = column_sums(grad_out)
    if training:
        n = grad_out.shape[0]
        grad_in = grad_out - grad_shift / n
        grad_in -= np.multiply(xhat, grad_scale / n, out=prod)
        grad_in *= scale * inv_std
    else:
        grad_in = grad_out * scale
        grad_in *= inv_std
    return grad_in, grad_scale, grad_shift


def leaky_relu_forward(features: np.ndarray, slope: float = 0.1, inplace: bool = False):
    """``max(x, slope * x)``, which needs ``0 <= slope <= 1``. ``inplace``
    overwrites ``features`` and keeps no mask, for a forward that runs no
    backward; it works in blocks of rows of about 2^16 elements, so that its
    ``slope * x`` stays in cache."""
    features = as_features(features)
    if not inplace:
        scaled = slope * features
        return np.maximum(features, scaled, out=scaled), (features < 0, slope)
    rows = max(1, (1 << 16) // max(1, math.prod(features.shape[1:])))
    scaled = np.empty_like(features[:rows])
    for lo in range(0, len(features), rows):
        block = features[lo : lo + rows]
        np.maximum(block, np.multiply(slope, block, out=scaled[: len(block)]), out=block)
    return features, None


def leaky_relu_backward(grad_out: np.ndarray, ctx):
    """``grad_out`` times 1 where the input was not negative and ``slope``
    where it was. Each factor is made from the bits of ``1.0`` and ``slope``
    in ``grad_out``'s dtype by integer ops on the mask, 3x faster than
    picking it from a table indexed by the mask, and exactly the same."""
    neg, slope = ctx
    one, low = np.array([1.0, slope], dtype=grad_out.dtype).view(f"u{grad_out.itemsize}")
    bits = neg.astype(one.dtype)
    bits *= one ^ low
    bits ^= one
    factor = bits.view(grad_out.dtype)
    factor *= grad_out
    return factor


def sigmoid_forward(features: np.ndarray):
    # exp(-x) overflows to inf for x below -88.7 in float32 (-709 in
    # float64), and 1 / inf is the exact limit 0
    with np.errstate(over="ignore"):
        out = 1.0 / (1.0 + np.exp(-as_features(features)))
    return out, out


def sigmoid_backward(grad_out: np.ndarray, ctx):
    s = ctx
    return grad_out * s * (1.0 - s)


def _check_same_sites(x: SparseTensor, y: SparseTensor) -> None:
    if x.spatial_shape != y.spatial_shape or not (
        x.coords is y.coords or np.array_equal(x.coords, y.coords)
    ):
        raise ValueError("operands live on different site sets")


def concat_features(x: SparseTensor, y: SparseTensor) -> SparseTensor:
    """Channel-wise concatenation on the same site set (same ordering)."""
    _check_same_sites(x, y)
    return x.with_features(np.hstack([x.features, y.features]))


# ---------------------------------------------------------------------------
# dense reference path


def densify(x: SparseTensor) -> np.ndarray:
    """Expand to a dense (H, W, L, C) array with zeros at inactive sites."""
    h, w, l = x.spatial_shape
    dense = np.zeros((h, w, l, x.num_channels), dtype=_DTYPE)
    dense[x.coords[:, 0], x.coords[:, 1], x.coords[:, 2]] = x.features
    return dense


def dense_conv_oracle(
    dense: np.ndarray,
    params,
    kernel: KernelSpec,
    active_mask: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Reference convolution on dense arrays, by shifted slices.

    Computes ``out[p] = bias + sum_k W_k^T in[p - offset_k]`` with zero
    padding, then subsamples by the stride (strided mode) or masks the
    result to the active input sites (submanifold mode, which requires
    ``active_mask``). Implemented independently of the rulebook path.
    """
    dense = np.asarray(dense, dtype=_DTYPE)
    h, w, l, _ = dense.shape
    c_out = params.weights.shape[2]
    offsets = kernel.offsets()
    full = np.zeros((h, w, l, c_out), dtype=_DTYPE)
    for k in range(offsets.shape[0]):
        a, b, c = offsets[k]
        out_sl = tuple(
            slice(max(d, 0), dim + min(d, 0)) for d, dim in ((a, h), (b, w), (c, l))
        )
        in_sl = tuple(
            slice(max(-d, 0), dim + min(-d, 0)) for d, dim in ((a, h), (b, w), (c, l))
        )
        full[out_sl] += dense[in_sl] @ params.weights[k]
    if kernel.mode == "submanifold":
        if active_mask is None:
            raise ValueError("submanifold oracle needs the active site mask")
        out = full + params.bias
        out[~active_mask] = 0.0
        return out
    sh, sw, sl = kernel.stride
    return full[::sh, ::sw, ::sl] + params.bias


# ---------------------------------------------------------------------------
# named tensor container (flat binary, little-endian float64)

_MAGIC = b"CYLT"
_VERSION = 1


def write_tensors(fh, tensors: dict) -> None:
    """Write a name -> array mapping to the binary file ``fh``, sorted by
    name, as little-endian float64. Each array is written from its own
    memory; no copy of the container is made."""
    fh.write(_MAGIC + struct.pack("<II", _VERSION, len(tensors)))
    for name in sorted(tensors):
        arr = np.asarray(tensors[name], dtype="<f8", order="C")
        encoded = name.encode("utf-8")
        fh.write(struct.pack(f"<I{len(encoded)}sI{arr.ndim}q", len(encoded), encoded,
                             arr.ndim, *arr.shape))
        fh.write(arr)


def read_tensors(fh, into: Optional[dict] = None) -> dict:
    """Read the tensor container that fills the binary file ``fh`` from its
    position to its end, as a name -> array dict. Each tensor's data is read
    from the file straight into its array: given ``into`` (name -> float64
    array), the array of that name, which must have the tensor's shape;
    otherwise a fresh one. Names must strictly ascend, as ``write_tensors``
    writes them, and given ``into`` none of its names may be missing.

    Nothing is allocated for a declared size before the bytes left in the
    file are known to hold it. A cut, garbled or mismatched container
    raises one ValueError naming the entry it stops in."""
    start = fh.tell()
    size = fh.seek(0, os.SEEK_END) - start
    fh.seek(start)
    pos, entry, name, out = 0, "the container header", None, {}

    def read(nbytes, what, buf=None):
        nonlocal pos
        if nbytes > size - pos:
            raise ValueError(
                f"tensor container cut short in {entry}: {nbytes} bytes of {what} "
                f"expected at offset {pos}, {size - pos} left"
            )
        buf = bytearray(nbytes) if buf is None else buf
        if fh.readinto(buf) != nbytes:
            raise ValueError(f"tensor container {entry}: the file shrank while it was read")
        pos += nbytes
        return buf

    if read(4, "magic") != _MAGIC:
        raise ValueError("bad tensor container magic")
    version, count = struct.unpack("<II", read(8, "version and count"))
    if version != _VERSION:
        raise ValueError(f"unsupported tensor container version {version}")
    for i in range(count):
        entry = f"entry {i}"
        (name_len,) = struct.unpack("<I", read(4, "name length"))
        previous = name
        try:
            name = read(name_len, "name").decode("utf-8")
        except UnicodeDecodeError:
            raise ValueError(f"tensor container {entry}: name is not UTF-8") from None
        entry = f"entry {i} ({name!r})"
        if previous is not None and name <= previous:
            raise ValueError(f"tensor container {entry}: names must strictly ascend, "
                             f"but the entry before is {previous!r}")
        if into is not None and name not in into:
            raise ValueError(f"tensor container {entry}: unexpected tensor")
        (ndim,) = struct.unpack("<I", read(4, "ndim"))
        shape = tuple(np.frombuffer(read(8 * ndim, "shape"), dtype="<i8").tolist())
        if min(shape, default=0) < 0:
            raise ValueError(f"tensor container {entry}: negative shape {list(shape)}")
        if into is None:
            data = read(8 * math.prod(shape), "data")
            out[name] = np.frombuffer(data, dtype="<f8").reshape(shape)
            continue
        arr = out[name] = into[name]
        if shape != arr.shape:
            raise ValueError(f"tensor container {entry}: shape {shape}, expected {arr.shape}")
        read(arr.nbytes, "data", arr)
        if sys.byteorder != "little":
            arr.byteswap(inplace=True)
    if into is not None and len(out) != len(into):
        missing = sorted(set(into) - set(out))
        raise ValueError(f"tensor container lacks {len(missing)} tensor(s), first {missing[0]!r}")
    if pos != size:
        raise ValueError(f"{size - pos} trailing bytes in tensor container")
    return out
