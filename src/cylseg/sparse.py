"""Sparse 3D tensors and rulebook-driven sparse convolution.

A sparse tensor stores features only at occupied voxel sites. Convolutions
are organised around a *rulebook*: for every kernel offset, the list of
(input site, output site) index pairs it connects. The forward pass is then
gather -> small GEMM -> scatter per offset.

Conventions, fixed across the package:

* kernel offsets are centered, enumerated in C order over
  ``[-(k-1)/2 .. (k-1)/2]`` per axis;
* a pair (i -> j) exists for offset k iff ``coord(i) + offset_k = coord(j)``,
  so the forward pass computes ``out[p] = bias + sum_k W_k^T x[p - offset_k]``;
* submanifold mode keeps the output site set identical to the input's;
* strided mode creates an output site at ``c`` iff some input site lies in
  its receptive field ``{stride * c + d}``; output shape is
  ``ceil(input_shape / stride)``. There is no wraparound on any axis;
* the inverse convolution runs the same forward/backward kernels over a
  stored rulebook read backwards (``Rulebook.transposed``).

For a fixed offset the input site determines the output site uniquely and
vice versa, so scatter targets within one offset never repeat; accumulating
offsets in ascending order makes every forward and backward pass bitwise
deterministic and independent of input site ordering. A large forward conv
runs in blocks of output rows, each on one thread: every output row is still
summed by one thread in ascending offset order, and the number of blocks
depends on the conv's size alone, never on the number of CPUs.
"""

from __future__ import annotations

import io
import math
import os
import struct
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

_DTYPE = np.float64


def as_features(features) -> np.ndarray:
    """Features (or folded parameters) to compute on: float32 stays float32
    (the inference route), anything else becomes float64. Each op computes in
    its input's dtype."""
    features = np.asarray(features)
    return features if features.dtype == np.float32 else features.astype(_DTYPE, copy=False)


def _as_triple(value) -> Tuple[int, int, int]:
    if isinstance(value, (int, np.integer)):
        return (int(value),) * 3
    t = tuple(int(v) for v in value)
    if len(t) != 3:
        raise ValueError(f"expected 3 axes, got {value!r}")
    return t


def _flatten_coords(coords: np.ndarray, shape: Sequence[int]) -> np.ndarray:
    h, w, l = shape
    return (coords[:, 0] * w + coords[:, 1]) * l + coords[:, 2]


def _validate_coords(coords: np.ndarray, shape) -> np.ndarray:
    coords = np.ascontiguousarray(coords, dtype=np.int64)
    if coords.ndim != 2 or coords.shape[1] != 3:
        raise ValueError(f"coords must be (M, 3), got {coords.shape}")
    if coords.shape[0]:
        if coords.min() < 0 or (coords >= np.array(shape)).any():
            raise ValueError("coords out of bounds")
        flat = _flatten_coords(coords, shape)
        if np.unique(flat).size != flat.size:
            raise ValueError("coords contain duplicate sites")
    return coords


@dataclass
class SparseTensor:
    """Features attached to a set of unique, in-bounds voxel coordinates."""

    coords: np.ndarray  # (M, 3) int64
    features: np.ndarray  # (M, C) float64, or float32 on the inference route
    spatial_shape: Tuple[int, int, int]

    def __post_init__(self):
        self.spatial_shape = _as_triple(self.spatial_shape)
        if any(s < 1 for s in self.spatial_shape):
            raise ValueError("spatial_shape entries must be positive")
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


class SiteIndex:
    """One site set's key sort and its neighbour searches, each made once.

    ``coords`` must already be valid (unique and in bounds), as a
    ``SparseTensor``'s are. ``neighbours(offset)`` returns the pairs
    (i -> j) with ``coords[i] + offset == coords[j]``, sorted by j, and
    memoises them, so kernels sharing an offset share its search.
    """

    def __init__(self, coords: np.ndarray, shape):
        self.coords = coords
        self.shape = _as_triple(shape)
        keys = _flatten_coords(coords, self.shape)
        self._order = np.argsort(keys, kind="stable")
        self._sorted_keys = keys[self._order]
        self._keys = keys
        self._found = {}

    def neighbours(self, offset) -> Tuple[np.ndarray, np.ndarray]:
        offset = tuple(int(d) for d in offset)
        hit = self._found.get(offset)
        if hit is None:
            hit = self._found[offset] = self._search(offset)
        return hit

    def _search(self, offset) -> Tuple[np.ndarray, np.ndarray]:
        m = self.coords.shape[0]
        if offset == (0, 0, 0):
            every = np.arange(m)
            return every, every
        valid = np.ones(m, dtype=bool)
        for axis, d in enumerate(offset):
            if d < 0:
                valid &= self.coords[:, axis] >= -d
            elif d > 0:
                valid &= self.coords[:, axis] < self.shape[axis] - d
        src = np.nonzero(valid)[0]
        if src.size == 0:
            return src, src.copy()
        _, w, l = self.shape
        tkeys = self._keys[src] + ((offset[0] * w + offset[1]) * l + offset[2])
        pos = np.minimum(np.searchsorted(self._sorted_keys, tkeys), m - 1)
        found = self._sorted_keys[pos] == tkeys
        in_idx = src[found]
        out_idx = self._order[pos[found]]
        perm = np.argsort(out_idx, kind="stable")
        return in_idx[perm], out_idx[perm]


def build_rulebook(
    in_coords: np.ndarray, in_shape, kernel: KernelSpec, sites: Optional[SiteIndex] = None
) -> Rulebook:
    """Enumerate (input, output) site pairs for each kernel offset.

    Submanifold: the output site set (and ordering) equals the input's; a
    pair (i -> j) exists for offset k iff ``in_coords[i] + offset_k`` is an
    occupied site j. Strided: output sites are all cells ``c`` of the
    ceil-divided grid whose receptive field ``stride * c + offsets`` touches
    an input site; pairs follow the same coordinate equation with output
    coordinates scaled by the stride.

    ``sites``, the ``SiteIndex`` of these (already validated) coords, skips
    the validation and shares its neighbour searches with other kernels.
    """
    if sites is None:
        in_shape = _as_triple(in_shape)
        sites = SiteIndex(_validate_coords(in_coords, in_shape), in_shape)
    in_coords, in_shape = sites.coords, sites.shape
    offsets = kernel.offsets()

    if kernel.mode == "submanifold":
        pairs = [sites.neighbours(d) for d in offsets]
        return Rulebook(
            kernel, in_coords, in_shape, in_coords, in_shape, pairs, kernel.volume // 2
        )

    # strided downsampling: site c feeds output c' through offset d iff
    # c + d = stride * c', so only sites with c = -d (mod stride) can
    stride = np.array(kernel.stride, dtype=np.int64)
    out_shape = tuple(int(-(-s // st)) for s, st in zip(in_shape, kernel.stride))
    residue_id = np.array([4, 2, 1])  # per-axis residues are 0 or 1
    residue = (in_coords % stride) @ residue_id
    by_residue = np.argsort(residue, kind="stable")
    starts = np.searchsorted(residue[by_residue], np.arange(9))
    out_hi = np.array(out_shape)
    per_offset = []
    for d in offsets:
        r = (-d % stride) @ residue_id
        src = by_residue[starts[r] : starts[r + 1]]
        target = in_coords[src] + d
        down = target // stride
        ok = (target >= 0).all(axis=1) & (down < out_hi).all(axis=1)
        per_offset.append((src[ok], _flatten_coords(down[ok], out_shape)))
    out_keys = np.unique(np.concatenate([keys for _, keys in per_offset]))
    out_coords = np.stack(np.unravel_index(out_keys, out_shape), axis=1).astype(np.int64)
    pairs = []
    for src, keys in per_offset:
        out_idx = np.searchsorted(out_keys, keys)
        perm = np.argsort(out_idx, kind="stable")
        pairs.append((src[perm], out_idx[perm]))
    return Rulebook(kernel, in_coords, in_shape, out_coords, out_shape, pairs)


@dataclass
class ConvParams:
    """Weights per kernel offset, (volume, C_in, C_out), plus bias (C_out,).

    They are float64, except a conv's float32 weights with its batch norm
    folded in, which ``predict``'s route builds per call.
    """

    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        self.weights = as_features(self.weights)
        self.bias = as_features(self.bias)
        if self.weights.ndim != 3:
            raise ValueError("weights must be (kernel_volume, C_in, C_out)")
        if self.bias.shape != (self.weights.shape[2],):
            raise ValueError("bias shape must be (C_out,)")


def init_conv_params(kernel: KernelSpec, c_in: int, c_out: int, rng) -> ConvParams:
    """Glorot-uniform weights (fans include the kernel volume), zero bias."""
    bound = np.sqrt(6.0 / (kernel.volume * (c_in + c_out)))
    weights = rng.uniform(-bound, bound, (kernel.volume, c_in, c_out))
    return ConvParams(weights, np.zeros(c_out))


def _check_rulebook_input(x: SparseTensor, rulebook: Rulebook) -> None:
    if x.spatial_shape != rulebook.in_shape or not np.array_equal(
        x.coords, rulebook.in_coords
    ):
        raise ValueError("tensor sites do not match the rulebook's input sites")


# A conv runs in blocks of output rows of at least _BLOCK_MACS multiply-adds
# (pairs x C_in x C_out) each: one block below 2 x _BLOCK_MACS, which keeps
# the toy network's convs (7.6M at most) whole, and a power of two up to
# _MAX_BLOCKS above. Each block's per-offset GEMMs then stay large enough
# that the BLAS gives every row the bytes of the whole-offset GEMM, as
# OpenBLAS does above 10^6 multiply-adds but not below. The count depends
# on the conv alone, never on the CPUs, which run the blocks round-robin.
_BLOCK_MACS = 1 << 26
_MAX_BLOCKS = 8
_POOL = None  # runs every lane but the caller's; made on first use


def _block_count(macs: int) -> int:
    blocks = 1
    while blocks < _MAX_BLOCKS and macs >= 2 * blocks * _BLOCK_MACS:
        blocks *= 2
    return blocks


def _cpu_count() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pool():
    global _POOL
    if _POOL is None:
        from concurrent.futures import ThreadPoolExecutor

        _POOL = ThreadPoolExecutor(min(_cpu_count(), _MAX_BLOCKS) - 1, "cylseg-conv")
    return _POOL


def _forget_pool() -> None:
    # a forked child inherits the pool object but none of its threads
    global _POOL
    _POOL = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _row_blocks(rows: int, blocks: int) -> List[Tuple[int, int]]:
    """``blocks`` contiguous, near-equal ``(lo, hi)`` ranges covering ``rows``."""
    edges = [rows * b // blocks for b in range(blocks + 1)]
    return list(zip(edges[:-1], edges[1:]))


def _conv_rows(features, weights, bias, rulebook: Rulebook, out, lo: int, hi: int) -> None:
    """Output rows ``lo:hi`` of the convolution, written into ``out``: the
    offsets in ascending order, each on its pairs whose output site lies in
    the block (``out_idx`` need not be sorted; a transposed one is not)."""
    block = out[lo:hi]
    block[:] = bias
    whole = lo == 0 and hi == out.shape[0]
    for k, (in_idx, out_idx) in enumerate(rulebook.pairs):
        if k == rulebook.identity_offset:
            block += features[lo:hi] @ weights[k]
            continue
        if in_idx.size and not whole:
            keep = (out_idx >= lo) & (out_idx < hi)
            in_idx, out_idx = in_idx[keep], out_idx[keep]
        if in_idx.size:
            out[out_idx] += features[in_idx] @ weights[k]


def _conv_lane(blocks, lanes: int, lane: int, *args) -> None:
    """Lane ``lane`` of ``lanes`` runs every ``lanes``-th block from its own."""
    for lo, hi in blocks[lane::lanes]:
        _conv_rows(*args, lo, hi)


def sparse_conv_forward(
    x: SparseTensor, params: ConvParams, rulebook: Rulebook
) -> SparseTensor:
    """Gather-GEMM-scatter convolution over the rulebook's pair lists.

    Offsets accumulate in ascending order; the identity offset's GEMM runs
    on the whole feature array in its place, with the same sums. It computes
    in the dtype of ``x.features``; the float64 parameters are cast per call.
    A large conv runs in blocks of output rows (``_block_count``), spread
    over the CPUs the process may use; the bytes do not depend on how many.
    """
    _check_rulebook_input(x, rulebook)
    kvol, c_in, c_out = params.weights.shape
    if kvol != rulebook.kernel.volume or c_in != x.num_channels:
        raise ValueError("weight shape does not match kernel/input channels")
    weights = params.weights.astype(x.features.dtype, copy=False)
    out = np.empty((rulebook.out_coords.shape[0], c_out), dtype=x.features.dtype)
    blocks = _row_blocks(out.shape[0], _block_count(rulebook.num_pairs * c_in * c_out))
    lanes = min(_cpu_count(), len(blocks))
    args = (x.features, weights, params.bias, rulebook, out)
    waiting = [_pool().submit(_conv_lane, blocks, lanes, lane, *args) for lane in range(1, lanes)]
    try:
        _conv_lane(blocks, lanes, 0, *args)
    finally:
        for lane in waiting:
            lane.result()
    result = SparseTensor.__new__(SparseTensor)
    result.coords = rulebook.out_coords
    result.features = out
    result.spatial_shape = rulebook.out_shape
    return result


def sparse_conv_backward(
    x: SparseTensor, params: ConvParams, rulebook: Rulebook, grad_out: np.ndarray
):
    """Gradients of the convolution w.r.t. input features, weights and bias."""
    grad_out = np.asarray(grad_out, dtype=_DTYPE)
    if grad_out.shape != (rulebook.out_coords.shape[0], params.weights.shape[2]):
        raise ValueError("grad_out shape mismatch")
    grad_in = np.zeros_like(x.features)
    grad_w = np.zeros_like(params.weights)
    grad_b = grad_out.sum(axis=0)
    for k, (in_idx, out_idx) in enumerate(rulebook.pairs):
        if k == rulebook.identity_offset:
            grad_w[k] = x.features.T @ grad_out
            grad_in += grad_out @ params.weights[k].T
        elif in_idx.size:
            g = grad_out[out_idx]
            grad_w[k] = x.features[in_idx].T @ g
            grad_in[in_idx] += g @ params.weights[k].T
    return grad_in, grad_w, grad_b


def inverse_conv_forward(
    x: SparseTensor, params: ConvParams, stored_rulebook: Rulebook
) -> SparseTensor:
    """Transposed convolution through a stored (downsampling) rulebook.

    ``x`` must live on the rulebook's output sites; the result lives exactly
    on the rulebook's input sites, restoring the pre-downsample coordinate
    set. Weights are fresh parameters of shape (volume, C(x), C_out).
    """
    return sparse_conv_forward(x, params, stored_rulebook.transposed())


def inverse_conv_backward(
    x: SparseTensor, params: ConvParams, stored_rulebook: Rulebook, grad_out: np.ndarray
):
    return sparse_conv_backward(x, params, stored_rulebook.transposed(), grad_out)


# ---------------------------------------------------------------------------
# element-wise ops and normalization (functional: forward returns a context)


@dataclass
class NormParams:
    """Per-channel affine batch normalization parameters and running stats."""

    scale: np.ndarray
    shift: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray
    eps: float = 1e-5
    momentum: float = 0.99

    def __post_init__(self):
        self.scale = np.asarray(self.scale, dtype=_DTYPE)
        self.shift = np.asarray(self.shift, dtype=_DTYPE)
        self.running_mean = np.asarray(self.running_mean, dtype=_DTYPE)
        self.running_var = np.asarray(self.running_var, dtype=_DTYPE)
        c = self.scale.shape
        if not (self.shift.shape == self.running_mean.shape == self.running_var.shape == c):
            raise ValueError("norm parameter shapes disagree")


def init_norm_params(channels: int) -> NormParams:
    return NormParams(
        np.ones(channels), np.zeros(channels), np.zeros(channels), np.ones(channels)
    )


def batch_norm_forward(features: np.ndarray, norm: NormParams, training: bool):
    """Normalize per channel over active sites.

    Training mode uses batch statistics (biased variance) and updates the
    running buffers in place: running = momentum * running + (1 - momentum)
    * batch. Inference mode uses the running buffers. It computes in the
    dtype of ``features``.
    """
    features = as_features(features)
    dtype = features.dtype
    if training:
        if features.shape[0] == 0:
            raise ValueError("batch norm in training mode needs at least one site")
        mean = features.mean(axis=0)
        var = features.var(axis=0)
        norm.running_mean *= norm.momentum
        norm.running_mean += (1 - norm.momentum) * mean
        norm.running_var *= norm.momentum
        norm.running_var += (1 - norm.momentum) * var
    else:
        mean, var = norm.running_mean, norm.running_var
    inv_std = (1.0 / np.sqrt(var + norm.eps)).astype(dtype, copy=False)
    xhat = (features - mean.astype(dtype, copy=False)) * inv_std
    scale = norm.scale.astype(dtype, copy=False)
    out = scale * xhat + norm.shift.astype(dtype, copy=False)
    ctx = (xhat, inv_std, scale, training)
    return out, ctx


def batch_norm_backward(grad_out: np.ndarray, ctx):
    xhat, inv_std, scale, training = ctx
    grad_out = np.asarray(grad_out, dtype=_DTYPE)
    grad_scale = (grad_out * xhat).sum(axis=0)
    grad_shift = grad_out.sum(axis=0)
    if training:
        grad_in = (
            scale
            * inv_std
            * (grad_out - grad_out.mean(axis=0) - xhat * (grad_out * xhat).mean(axis=0))
        )
    else:
        grad_in = grad_out * scale * inv_std
    return grad_in, grad_scale, grad_shift


def leaky_relu_forward(features: np.ndarray, slope: float = 0.1, inplace: bool = False):
    """``inplace`` overwrites ``features`` and keeps no mask, for a forward
    that runs no backward; ``max(x, slope * x)`` needs ``0 <= slope <= 1``."""
    features = as_features(features)
    if inplace:
        return np.maximum(features, slope * features, out=features), None
    neg = features < 0
    out = np.where(neg, slope * features, features)
    return out, (neg, slope)


def leaky_relu_backward(grad_out: np.ndarray, ctx):
    neg, slope = ctx
    return np.where(neg, slope * grad_out, grad_out)


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
    if x.spatial_shape != y.spatial_shape or not np.array_equal(x.coords, y.coords):
        raise ValueError("operands live on different site sets")


def add_sparse(x: SparseTensor, y: SparseTensor) -> SparseTensor:
    """Elementwise sum of two tensors on the same site set (same ordering)."""
    _check_same_sites(x, y)
    if x.num_channels != y.num_channels:
        raise ValueError("channel mismatch in add")
    return x.with_features(x.features + y.features)


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


def sparsify(dense: np.ndarray, coords: Optional[np.ndarray] = None) -> SparseTensor:
    """Collect a dense (H, W, L, C) array back into a sparse tensor.

    Without explicit coords the active set is every site with any nonzero
    channel, in lexicographic coordinate order.
    """
    dense = np.asarray(dense, dtype=_DTYPE)
    if dense.ndim != 4:
        raise ValueError("dense array must be (H, W, L, C)")
    if coords is None:
        mask = np.abs(dense).sum(axis=3) != 0
        coords = np.argwhere(mask)
    coords = np.ascontiguousarray(coords, dtype=np.int64)
    features = dense[coords[:, 0], coords[:, 1], coords[:, 2]]
    return SparseTensor(coords, features, dense.shape[:3])


def dense_conv_oracle(
    dense: np.ndarray,
    params: ConvParams,
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


def pack_tensors(tensors: dict) -> bytes:
    """Serialize a name -> array mapping. Data is little-endian float64."""
    buf = io.BytesIO()
    buf.write(_MAGIC)
    buf.write(struct.pack("<II", _VERSION, len(tensors)))
    for name in sorted(tensors):
        arr = np.asarray(tensors[name], dtype="<f8")
        encoded = name.encode("utf-8")
        buf.write(struct.pack("<I", len(encoded)))
        buf.write(encoded)
        buf.write(struct.pack("<I", arr.ndim))
        buf.write(np.asarray(arr.shape, dtype="<i8").tobytes())
        buf.write(np.ascontiguousarray(arr).tobytes())
    return buf.getvalue()


def unpack_tensors(blob) -> dict:
    """Read ``pack_tensors`` output into arrays of their own; a cut or
    garbled container raises one ValueError naming the entry it stops in."""
    return {name: arr.astype(np.float64) for name, arr in unpack_tensor_views(blob).items()}


def unpack_tensor_views(blob) -> dict:
    """``unpack_tensors`` without the copies: read-only little-endian views
    into ``blob``, for a caller that copies them where they belong."""
    view = memoryview(blob)
    if bytes(view[:4]) != _MAGIC:
        raise ValueError("bad tensor container magic")
    pos = 4
    entry = "the container header"

    def take(nbytes, what):
        nonlocal pos
        if nbytes > len(view) - pos:
            raise ValueError(
                f"tensor container cut short in {entry}: {nbytes} bytes of {what} "
                f"expected at offset {pos}, {len(view) - pos} left"
            )
        pos += nbytes
        return view[pos - nbytes : pos]

    version, count = struct.unpack("<II", take(8, "version and count"))
    if version != _VERSION:
        raise ValueError(f"unsupported tensor container version {version}")
    out = {}
    for i in range(count):
        entry = f"entry {i}"
        (name_len,) = struct.unpack("<I", take(4, "name length"))
        try:
            name = bytes(take(name_len, "name")).decode("utf-8")
        except UnicodeDecodeError:
            raise ValueError(f"tensor container {entry}: name is not UTF-8") from None
        entry = f"entry {i} ({name!r})"
        (ndim,) = struct.unpack("<I", take(4, "ndim"))
        shape = np.frombuffer(take(8 * ndim, "shape"), dtype="<i8")
        if (shape < 0).any():
            raise ValueError(f"tensor container {entry}: negative shape {shape.tolist()}")
        size = math.prod(int(n) for n in shape)
        data = np.frombuffer(take(8 * size, "data"), dtype="<f8")
        out[name] = data.reshape(shape)
    if pos != len(view):
        raise ValueError("trailing bytes in tensor container")
    return out


def load_tensors(path) -> dict:
    with open(path, "rb") as fh:
        return unpack_tensors(fh.read())
