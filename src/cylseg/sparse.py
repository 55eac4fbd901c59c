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
deterministic and independent of input site ordering.
"""

from __future__ import annotations

import io
import struct
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

_DTYPE = np.float64


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
    features: np.ndarray  # (M, C) float64
    spatial_shape: Tuple[int, int, int]

    def __post_init__(self):
        self.spatial_shape = _as_triple(self.spatial_shape)
        if any(s < 1 for s in self.spatial_shape):
            raise ValueError("spatial_shape entries must be positive")
        self.coords = _validate_coords(self.coords, self.spatial_shape)
        self.features = np.asarray(self.features, dtype=_DTYPE)
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
        features = np.asarray(features, dtype=_DTYPE)
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
    """Per-offset pair lists connecting input sites to output sites."""

    kernel: KernelSpec
    in_coords: np.ndarray
    in_shape: Tuple[int, int, int]
    out_coords: np.ndarray
    out_shape: Tuple[int, int, int]
    pairs: List[Tuple[np.ndarray, np.ndarray]]  # per offset: (in_idx, out_idx)

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
        )


def build_rulebook(in_coords: np.ndarray, in_shape, kernel: KernelSpec) -> Rulebook:
    """Enumerate (input, output) site pairs for each kernel offset.

    Submanifold: the output site set (and ordering) equals the input's; a
    pair (i -> j) exists for offset k iff ``in_coords[i] + offset_k`` is an
    occupied site j. Strided: output sites are all cells ``c`` of the
    ceil-divided grid whose receptive field ``stride * c + offsets`` touches
    an input site; pairs follow the same coordinate equation with output
    coordinates scaled by the stride.
    """
    in_shape = _as_triple(in_shape)
    in_coords = _validate_coords(in_coords, in_shape)
    offsets = kernel.offsets()
    m = in_coords.shape[0]

    if kernel.mode == "submanifold":
        out_coords, out_shape = in_coords, in_shape
        keys = _flatten_coords(in_coords, in_shape)
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        pairs = []
        for k in range(offsets.shape[0]):
            target = in_coords + offsets[k]
            valid = ((target >= 0) & (target < np.array(in_shape))).all(axis=1)
            src = np.nonzero(valid)[0]
            if src.size == 0:
                pairs.append((src, src.copy()))
                continue
            tkeys = _flatten_coords(target[src], in_shape)
            pos = np.searchsorted(sorted_keys, tkeys)
            pos_c = np.minimum(pos, m - 1)
            found = sorted_keys[pos_c] == tkeys
            in_idx = src[found]
            out_idx = order[pos_c[found]]
            perm = np.argsort(out_idx, kind="stable")
            pairs.append((in_idx[perm], out_idx[perm]))
        return Rulebook(kernel, in_coords, in_shape, out_coords, out_shape, pairs)

    # strided downsampling
    stride = np.array(kernel.stride, dtype=np.int64)
    out_shape = tuple(int(-(-s // st)) for s, st in zip(in_shape, kernel.stride))
    candidates = []
    per_offset = []
    for k in range(offsets.shape[0]):
        target = in_coords + offsets[k]
        ok = (target >= 0).all(axis=1) & (target % stride == 0).all(axis=1)
        down = target // stride
        ok &= (down < np.array(out_shape)).all(axis=1)
        src = np.nonzero(ok)[0]
        per_offset.append((src, down[src]))
        if src.size:
            candidates.append(down[src])
    if candidates:
        out_coords = np.unique(np.vstack(candidates), axis=0)
    else:
        out_coords = np.zeros((0, 3), dtype=np.int64)
    out_keys = _flatten_coords(out_coords, out_shape)  # sorted by construction
    pairs = []
    for src, down in per_offset:
        if src.size == 0:
            pairs.append((src, src.copy()))
            continue
        out_idx = np.searchsorted(out_keys, _flatten_coords(down, out_shape))
        perm = np.argsort(out_idx, kind="stable")
        pairs.append((src[perm], out_idx[perm]))
    return Rulebook(kernel, in_coords, in_shape, out_coords, out_shape, pairs)


@dataclass
class ConvParams:
    """Weights per kernel offset, (volume, C_in, C_out), plus bias (C_out,)."""

    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=_DTYPE)
        self.bias = np.asarray(self.bias, dtype=_DTYPE)
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


def sparse_conv_forward(
    x: SparseTensor, params: ConvParams, rulebook: Rulebook
) -> SparseTensor:
    """Gather-GEMM-scatter convolution over the rulebook's pair lists."""
    _check_rulebook_input(x, rulebook)
    kvol, c_in, c_out = params.weights.shape
    if kvol != rulebook.kernel.volume or c_in != x.num_channels:
        raise ValueError("weight shape does not match kernel/input channels")
    out = np.empty((rulebook.out_coords.shape[0], c_out), dtype=_DTYPE)
    out[:] = params.bias
    for k, (in_idx, out_idx) in enumerate(rulebook.pairs):
        if in_idx.size:
            out[out_idx] += x.features[in_idx] @ params.weights[k]
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
        if in_idx.size:
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
    * batch. Inference mode uses the running buffers.
    """
    features = np.asarray(features, dtype=_DTYPE)
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
    inv_std = 1.0 / np.sqrt(var + norm.eps)
    xhat = (features - mean) * inv_std
    out = norm.scale * xhat + norm.shift
    ctx = (xhat, inv_std, norm.scale, training)
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


def leaky_relu_forward(features: np.ndarray, slope: float = 0.1):
    features = np.asarray(features, dtype=_DTYPE)
    neg = features < 0
    out = np.where(neg, slope * features, features)
    return out, (neg, slope)


def leaky_relu_backward(grad_out: np.ndarray, ctx):
    neg, slope = ctx
    return np.where(neg, slope * grad_out, grad_out)


def sigmoid_forward(features: np.ndarray):
    out = 1.0 / (1.0 + np.exp(-np.asarray(features, dtype=_DTYPE)))
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


def unpack_tensors(blob: bytes) -> dict:
    view = memoryview(blob)
    if bytes(view[:4]) != _MAGIC:
        raise ValueError("bad tensor container magic")
    version, count = struct.unpack_from("<II", view, 4)
    if version != _VERSION:
        raise ValueError(f"unsupported tensor container version {version}")
    pos = 12
    out = {}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<I", view, pos)
        pos += 4
        name = bytes(view[pos : pos + name_len]).decode("utf-8")
        pos += name_len
        (ndim,) = struct.unpack_from("<I", view, pos)
        pos += 4
        shape = np.frombuffer(view, dtype="<i8", count=ndim, offset=pos)
        pos += 8 * ndim
        size = int(np.prod(shape)) if ndim else 1
        data = np.frombuffer(view, dtype="<f8", count=size, offset=pos)
        pos += 8 * size
        out[name] = data.reshape(shape).astype(np.float64)
    if pos != len(blob):
        raise ValueError("trailing bytes in tensor container")
    return out


def save_tensors(path, tensors: dict) -> None:
    with open(path, "wb") as fh:
        fh.write(pack_tensors(tensors))


def load_tensors(path) -> dict:
    with open(path, "rb") as fh:
        return unpack_tensors(fh.read())
