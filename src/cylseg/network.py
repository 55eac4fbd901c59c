"""Sparse encoder-decoder segmentation network with point-wise refinement.

Layout: a small point MLP lifts 9-dim per-point features, a max-scatter
pools them into cylindrical cells, an encoder of residual blocks plus
strided downsampling convs (channel-doubling) feeds a dimension-gating
module at the bottleneck, and inverse convolutions walk back up, fusing
skip tensors. A 1x1x1 head emits voxel logits; a two-layer MLP refines
per-point logits from the gathered voxel logits and the point MLP features.

Every layer implements ``forward(...) -> (out, ctx)`` plus a ``backward``
that consumes the context and accumulates parameter gradients on the layer,
so training needs no autodiff machinery. Inference (``training=False``)
mutates nothing and is safe to run concurrently on shared parameters.
"""

from __future__ import annotations

import copy
import math
import os
import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import ConfigError, NetworkConfig, network_header, parse_network_header
from .partition import (
    VoxelMapping,
    as_positions,
    assign_cells,
    cart_to_cyl,
    scatter_features,
    scatter_max_winners,
)
from .pointcloud import PointCloud
from .sparse import (
    KernelSpec,
    NORM_EPS,
    Rulebook,
    SparseTensor,
    batch_norm_backward,
    batch_norm_forward,
    build_rulebook,
    column_sums,
    concat_features,
    in_row_blocks,
    inverse_conv_backward,
    inverse_conv_forward,
    leaky_relu_backward,
    leaky_relu_forward,
    read_tensors,
    sigmoid_backward,
    sigmoid_forward,
    sparse_conv_backward,
    sparse_conv_forward,
    write_tensors,
)

def point_input_features(
    xyz: np.ndarray, intensity: np.ndarray, mapping: VoxelMapping, grid
) -> np.ndarray:
    """Per-point input features of positions ``xyz`` and their intensities,
    9 per point:

    [rho - rho_c, theta - theta_c, z - z_c, rho, theta, z, x, y, intensity]

    where (rho_c, theta_c, z_c) is the center of the point's cell.
    """
    cyl = cart_to_cyl(xyz)
    centers = grid.cell_centers(mapping.cells).take(mapping.point_site, axis=0)
    return np.hstack([cyl - centers, cyl, xyz[:, 0:2], intensity[:, None]])


class RulebookCache:
    """One rulebook per (site set, kernel) within one pass; site sets are told
    apart by the identity of their coords. A stored rulebook holds those
    coords (``in_coords``), so while its entry exists no other array can
    take their ``id``."""

    def __init__(self):
        self._store = {}  # (id(coords), kernel) -> Rulebook

    def get(self, x: SparseTensor, kernel: KernelSpec) -> Rulebook:
        rb = self._store.get((id(x.coords), kernel))
        if rb is None:
            rb = self._store[id(x.coords), kernel] = build_rulebook(x, kernel)
        return rb


class Module:
    """Parameter bookkeeping shared by all layers and blocks.

    A leaf layer holds each of its tensors as an attribute named as in the
    checkpoint, and registers them by name once with ``declare``; a block
    registers each sub-module with ``add`` where it builds it. Blocks own no
    tensors themselves.
    """

    params: dict = {}
    grads: dict = {}
    state: dict = {}
    _children: tuple = ()

    def declare(self, params: tuple, state: tuple = ()) -> None:
        """Register the attributes named in ``params`` as parameters (with
        zeroed gradient buffers) and those named in ``state`` as running state.

        The buffers come from ``np.zeros``, not ``zeros_like``: calloc'd
        pages stay untouched until a backward pass writes them, so a network
        loaded only to predict never makes them resident.
        """
        self.params = {name: getattr(self, name) for name in params}
        self.grads = {name: np.zeros(arr.shape) for name, arr in self.params.items()}
        self.state = {name: getattr(self, name) for name in state}

    def add(self, name: str, child: Module) -> Module:
        """Register ``child`` under ``name``, after the children added before it."""
        self._children += ((name, child),)
        return child

    def children(self):
        return list(self._children)

    def _collect(self, attr, prefix=""):
        out = {prefix + key: value for key, value in getattr(self, attr).items()}
        for name, child in self.children():
            out.update(child._collect(attr, prefix + name + "."))
        return out

    def named_params(self, prefix=""):
        return self._collect("params", prefix)

    def named_state(self, prefix=""):
        return self._collect("state", prefix)

    def named_grads(self, prefix=""):
        return self._collect("grads", prefix)

    def zero_grads(self):
        for grad in self.named_grads().values():
            grad[...] = 0.0


def predicting(feats, training) -> bool:
    """Whether a layer is on ``predict``'s route: an inference forward in
    float32. There each batch norm is folded into the layer before it and
    activations overwrite the buffer that layer wrote; nothing is kept for
    backward. The float64 inference forward runs every op unfolded."""
    return not training and feats.dtype == np.float32


def on_features(x, kernel):
    """``kernel`` of a point array or of a tensor's features: ``(out, ctx)``
    with ``out`` of ``x``'s kind."""
    feats = x if isinstance(x, np.ndarray) else x.features
    out, ctx = kernel(feats)
    return (out if x is feats else x.with_features(out)), ctx


def activate(x, slope, training):
    """Leaky ReLU, in place on ``predict``'s route, as ``on_features``."""
    return on_features(x, lambda f: leaky_relu_forward(f, slope, predicting(f, training)))


class Affine(Module):
    """Per-point affine map. It draws its weight first: a weight that a
    checkpoint cannot hold is refused (``_NoDraw``) before anything else of
    the layer is allocated."""

    def __init__(self, c_in, c_out, rng):
        bound = np.sqrt(6.0 / (c_in + c_out))
        self.weight = rng.uniform(-bound, bound, (c_in, c_out))
        self.bias = np.zeros(c_out)
        self.declare(("weight", "bias"))

    def forward(self, feats, training):
        out = feats @ self.weight.astype(feats.dtype, copy=False)
        out += self.bias.astype(feats.dtype, copy=False)
        return out, feats

    def backward(self, grad, feats):
        self.grads["weight"] += feats.T @ grad
        self.grads["bias"] += column_sums(grad)
        return grad @ self.weight.T.astype(grad.dtype, copy=False)


class BatchNorm(Module):
    """Batch norm, a step of the ``Chain`` that runs the layer it follows."""

    def __init__(self, channels):
        self.scale, self.shift = np.ones(channels), np.zeros(channels)
        self.running_mean, self.running_var = np.zeros(channels), np.ones(channels)
        self.declare(("scale", "shift"), ("running_mean", "running_var"))

    def forward(self, x, training):
        """Of a point array or of a tensor's features, as ``on_features``."""
        return on_features(x, lambda f: batch_norm_forward(f, self, training))

    def backward(self, grad, ctx):
        grad_in, g_scale, g_shift = batch_norm_backward(grad, ctx)
        self.grads["scale"] += g_scale
        self.grads["shift"] += g_shift
        return grad_in

    def fold(self, layer, dtype):
        """A shallow copy of ``layer``, the ``Affine`` or ``Conv`` before this
        norm, with the norm's inference map folded into its weight (output
        channels last) and bias, named by ``layer.params``: ``W * s`` and
        ``(b - running_mean) * s + shift`` for ``s = scale / sqrt(running_var
        + NORM_EPS)``, computed in float64 and rounded once to ``dtype``."""
        (w_name, weight), (b_name, bias) = layer.params.items()
        s = self.scale / np.sqrt(self.running_var + NORM_EPS)
        folded = copy.copy(layer)
        setattr(folded, w_name,
                np.multiply(weight, s, out=np.empty(weight.shape, dtype), casting="same_kind"))
        setattr(folded, b_name, ((bias - self.running_mean) * s + self.shift).astype(dtype))
        return folded


DOWNSAMPLE = KernelSpec((3, 3, 3), (2, 2, 2), "strided")


class Conv(Module):
    """Sparse convolution over a rulebook: submanifold, strided or inverse.
    Like ``Affine``, it draws its weights first: Glorot-uniform, with fans
    that include the kernel volume. It holds ``weights`` (volume, C_in,
    C_out) and ``bias`` (C_out,), and hands itself to the conv kernels.

    Its rulebook comes from the pass's ``RulebookCache``, for the sites of
    ``x``. Given the tensor ``to`` that a downsampling conv of the same kernel
    read, it is that conv's inverse: it runs the transposed convolution
    through that conv's cached rulebook, back to ``to``'s sites.
    """

    def __init__(self, kernel: KernelSpec, c_in, c_out, rng):
        self.kernel = kernel
        bound = np.sqrt(6.0 / (kernel.volume * (c_in + c_out)))
        self.weights = rng.uniform(-bound, bound, (kernel.volume, c_in, c_out))
        self.bias = np.zeros(c_out)
        self.declare(("weights", "bias"))

    def forward(self, x, cache, training, to=None):
        rb = cache.get(x if to is None else to, self.kernel)
        if to is None:
            return sparse_conv_forward(x, self, rb), (x, rb, sparse_conv_backward)
        return inverse_conv_forward(x, self, rb), (x, rb, inverse_conv_backward)

    def backward(self, grad, ctx):
        x, rb, back = ctx
        grad_in, gw, gb = back(x, self, rb, grad)
        self.grads["weights"] += gw
        self.grads["bias"] += gb
        return grad_in


class Chain(Module):
    """Layers that only follow one another. Each step ``(name, layer,
    norm_name, act)`` runs ``layer``, registered under ``name``; then, given
    ``norm_name``, a batch norm of the layer's outputs registered under it;
    then a leaky ReLU if ``act`` is set. Extra forward arguments (the
    rulebook cache, for sparse layers) go to every layer.

    On ``predict``'s route each norm is folded into its layer and no context
    is kept, and a point array runs in blocks of rows, as a large conv does
    (``in_row_blocks`` of its multiply-adds): each block goes through every
    layer and writes its rows of one output."""

    def __init__(self, slope, steps):
        self.slope = slope
        self.steps = []
        for name, layer, norm_name, act in steps:
            self.add(name, layer)
            norm = None if norm_name is None else self.add(norm_name, BatchNorm(layer.bias.size))
            self.steps.append((layer, norm, act))

    def forward(self, x, *args, training):
        feats = x if isinstance(x, np.ndarray) else x.features
        fold = predicting(feats, training)

        def run(x):
            ctxs = []
            for layer, norm, act in self.steps:
                if fold and norm is not None:
                    layer, norm = norm.fold(layer, feats.dtype), None
                x, c_layer = layer.forward(x, *args, training=training)
                x, c_norm = (x, None) if norm is None else norm.forward(x, training)
                x, c_act = activate(x, self.slope, training) if act else (x, None)
                if not fold:
                    ctxs.append((c_layer, c_norm, c_act))
            return x, None if fold else ctxs

        if not (fold and x is feats):
            return run(x)
        out = np.empty((len(x), self.steps[-1][0].weight.shape[1]), dtype=x.dtype)

        def rows(lo, hi):
            out[lo:hi] = run(x[lo:hi])[0]

        in_row_blocks(len(x), len(x) * sum(step[0].weight.size for step in self.steps), rows)
        return out, None

    def backward(self, grad, ctxs):
        """Each step's context leaves ``ctxs`` before that step runs, so the
        list is empty once the backward returns."""
        for layer, norm, act in reversed(self.steps):
            c_layer, c_norm, c_act = ctxs.pop()
            grad = leaky_relu_backward(grad, c_act) if act else grad
            grad = grad if norm is None else norm.backward(grad, c_norm)
            grad = layer.backward(grad, c_layer)
        return grad


class PointMLP(Chain):
    """Stack of affine + batch norm + LeakyReLU layers applied per point."""

    def __init__(self, widths, rng, slope):
        super().__init__(slope, [
            (f"l{i}.affine", Affine(c_in, c_out, rng), f"l{i}.norm", True)
            for i, (c_in, c_out) in enumerate(zip(widths[:-1], widths[1:]))
        ])


class _ConvBNActConvBN(Chain):
    """conv(k1) -> BN -> act -> conv(k2) -> BN, on a fixed site set."""

    def __init__(self, c_in, c_out, k1, k2, rng, slope):
        super().__init__(slope, [
            ("conv1", Conv(KernelSpec(k1), c_in, c_out, rng), "bn1", True),
            ("conv2", Conv(KernelSpec(k2), c_out, c_out, rng), "bn2", False),
        ])


class ResBlock(Module):
    """``act(first(x) + second(x))``, or ``act(first(x) + x)`` without a
    second term. ``first`` and ``second`` are ``(name, module)`` pairs.

    The asymmetrical block adds two branches: branch ``a`` applies k_a then
    k_b, branch ``b`` the mirror order. Both kernels factor a cube into
    rank-deficient shapes, which saves a third of the weights relative to
    the regular block's two full 3x3x3 convs (``main``), whose ``shortcut``
    is a 1x1x1 projection when the widths differ.
    """

    def __init__(self, slope, first, second=None):
        self.slope = slope
        self.first = self.add(*first)
        self.second = None if second is None else self.add(*second)

    def forward(self, x, cache, training):
        y, c_first = self.first.forward(x, cache, training=training)
        if self.second is None:
            res, c_second = x, None
        else:
            res, c_second = self.second.forward(x, cache, training=training)
        y.features += res.features  # a fresh buffer that no context holds
        out, cr = activate(y, self.slope, training)
        return out, (c_first, c_second, cr)

    def backward(self, grad, ctx):
        c_first, c_second, cr = ctx
        g = leaky_relu_backward(grad, cr)
        grad_in = self.first.backward(g, c_first)
        grad_in += g if self.second is None else self.second.backward(g, c_second)
        return grad_in


ASYM_KERNELS = {"asym": ((1, 3, 3), (3, 1, 3)), "asym1d": ((1, 3, 1), (3, 1, 1))}


def make_res_block(variant, c_in, c_out, rng, slope):
    """The residual block of ``variant``. Its children draw their init in
    the order they are named: ``a`` before ``b``, ``main`` before ``shortcut``."""
    if variant == "regular":
        main = ("main", _ConvBNActConvBN(c_in, c_out, (3, 3, 3), (3, 3, 3), rng, slope))
        if c_in == c_out:
            return ResBlock(slope, main)
        return ResBlock(slope, main, ("shortcut", Conv(KernelSpec(1), c_in, c_out, rng)))
    if variant not in ASYM_KERNELS:
        raise ValueError(f"unknown block variant {variant!r}")
    k_a, k_b = ASYM_KERNELS[variant]
    a = _ConvBNActConvBN(c_in, c_out, k_a, k_b, rng, slope)
    return ResBlock(slope, ("a", a), ("b", _ConvBNActConvBN(c_in, c_out, k_b, k_a, rng, slope)))


class DownBlock(Module):
    """Residual block at constant width, then a stride-2 conv doubling it."""

    def __init__(self, c_in, c_out, variant, rng, slope):
        self.res = self.add("res", make_res_block(variant, c_in, c_in, rng, slope))
        self.down = self.add("down", Conv(DOWNSAMPLE, c_in, c_out, rng))

    def forward(self, x, cache, training):
        skip, c_res = self.res.forward(x, cache, training)
        y, c_down = self.down.forward(skip, cache, training)
        return y, skip, (c_res, c_down)

    def backward(self, grad, grad_skip, ctx):
        c_res, c_down = ctx
        g = self.down.backward(grad, c_down)
        g += grad_skip
        return self.res.backward(g, c_res)


class UpBlock(Module):
    """Inverse conv back to the paired stage's sites, concat skip, fuse."""

    def __init__(self, c_in, c_out, variant, rng, slope):
        self.c_out = c_out
        self.up = self.add("up", Conv(DOWNSAMPLE, c_in, c_out, rng))
        self.fuse = self.add("fuse", make_res_block(variant, 2 * c_out, c_out, rng, slope))

    def forward(self, x, skip, cache, training):
        u, c_up = self.up.forward(x, cache, training, to=skip)
        cat = concat_features(u, skip)
        del u, skip  # cat holds copies of both
        y, c_fuse = self.fuse.forward(cat, cache, training)
        return y, (c_up, c_fuse)

    def backward(self, grad, ctx):
        c_up, c_fuse = ctx
        g_cat = self.fuse.backward(grad, c_fuse)
        g_up, g_skip = g_cat[:, : self.c_out], g_cat[:, self.c_out :]
        return self.up.backward(g_up, c_up), g_skip


class DDCM(Module):
    """Dimension-decomposition gating at the bottleneck.

    Three rank-1-style kernels, (3,1,1), (1,3,1) and (1,1,3), each followed
    by BN (a one-step ``Chain``) and a sigmoid, produce per-axis gates; the
    input is scaled by their sum.
    """

    SIZES = ((3, 1, 1), (1, 3, 1), (1, 1, 3))

    def __init__(self, channels, rng):
        self.gates = []
        for i, size in enumerate(self.SIZES):
            conv = Conv(KernelSpec(size), channels, channels, rng)
            self.gates.append(self.add(f"g{i}", Chain(None, [("conv", conv, "norm", False)])))

    def forward(self, x, cache, training):
        total = np.zeros_like(x.features)
        branch_ctxs = []
        for gate in self.gates:
            t, c1 = gate.forward(x, cache, training=training)
            s, c2 = sigmoid_forward(t.features)
            total += s
            branch_ctxs.append((c1, c2))
        return x.with_features(x.features * total), (x, total, branch_ctxs)

    def backward(self, grad, ctx):
        x, total, branch_ctxs = ctx
        grad_in = grad * total
        g_gate = grad * x.features
        for (c1, c2), gate in zip(branch_ctxs, self.gates):
            g = sigmoid_backward(g_gate, c2)
            grad_in += gate.backward(g, c1)
        return grad_in


class RefineMLP(Chain):
    """Two-layer point head: affine -> LeakyReLU -> affine."""

    def __init__(self, c_in, hidden, c_out, rng, slope):
        fc1, fc2 = Affine(c_in, hidden, rng), Affine(hidden, c_out, rng)
        super().__init__(slope, [("fc1", fc1, None, True), ("fc2", fc2, None, False)])


@dataclass
class ForwardResult:
    voxel_logits: SparseTensor  # (M, K) on the occupied cells
    point_logits: np.ndarray  # (N, K)
    mapping: VoxelMapping
    ctx: Optional[tuple] = None
    consumed: bool = False  # set once a backward has used ``ctx``


class SegmentationNetwork(Module):
    """End-to-end model: point MLP, sparse encoder-decoder, point refinement."""

    def __init__(self, config: NetworkConfig, seed=0):
        """``seed`` is a seed or anything with a Generator's ``uniform``."""
        rng = seed if hasattr(seed, "uniform") else np.random.default_rng(seed)
        self.config = config
        k = config.num_classes
        c0 = config.base_channels
        slope = config.leaky_slope
        variant = config.block_variant
        point_mlp = PointMLP((9, *config.point_mlp_widths, c0), rng, slope)
        self.point_mlp = self.add("point_mlp", point_mlp)
        self.downs = []
        c = c0
        for i in range(config.stages):
            self.downs.append(self.add(f"down{i}", DownBlock(c, 2 * c, variant, rng, slope)))
            c *= 2
        self.ddcm = self.add("ddcm", DDCM(c, rng))
        self.ups = []
        for i in range(config.stages):
            width = c0 * 2**i
            self.ups.append(self.add(f"up{i}", UpBlock(2 * width, width, variant, rng, slope)))
        self.head = self.add("head", Conv(KernelSpec(1), c0, k, rng))
        self.refine = self.add("refine", RefineMLP(k + c0, 2 * k, k, rng, slope))

    def forward(
        self, cloud: PointCloud, training: bool = False, *, _dtype=np.float64
    ) -> ForwardResult:
        """Run the full pipeline; pure w.r.t. parameters when not training.

        Every layer computes in the dtype of the point features: float64
        by default (the oracles and gradient checks), float32 where
        ``train_step`` and ``predict`` ask for it. Without training no backward
        context is kept: each is dropped as soon as it is made, and each skip
        tensor once its up block has used it.
        """
        config = self.config
        xyz = as_positions(cloud)  # a float32 scan is widened here, once
        mapping = assign_cells(xyz, config.grid)
        if mapping.num_cells == 0:
            raise ValueError("cannot run the network on an empty cloud")

        def kept(result):
            """A layer's ``(outputs..., ctx)``, its ctx dropped unless training."""
            return result if training else (*result[:-1], None)

        pfeat = point_input_features(xyz, cloud.intensity, mapping, config.grid)
        pfeat = pfeat.astype(_dtype, copy=False)
        h, c_mlp = kept(self.point_mlp.forward(pfeat, training=training))
        x = scatter_features(h, mapping)
        winners = scatter_max_winners(h, mapping, x.features) if training else None

        cache = RulebookCache()
        skips, c_downs = [], []
        for down in self.downs:
            x, skip, c_d = kept(down.forward(x, cache, training))
            skips.append(skip)
            c_downs.append(c_d)
        del skip  # each skip goes as soon as its up block has used it
        x, c_ddcm = kept(self.ddcm.forward(x, cache, training))
        c_ups = [None] * config.stages
        for i in reversed(range(config.stages)):
            x, c_ups[i] = kept(self.ups[i].forward(x, skips.pop(), cache, training))
        logits, c_head = kept(self.head.forward(x, cache, training))
        gathered = logits.features.take(mapping.point_site, axis=0)
        refine_in = np.hstack([gathered, h])
        point_logits, c_refine = kept(self.refine.forward(refine_in, training=training))
        ctx = (winners, c_mlp, c_downs, c_ddcm, c_ups, c_head, c_refine) if training else None
        return ForwardResult(logits, point_logits, mapping, ctx)

    def backward(self, result: ForwardResult, grad_voxel: np.ndarray, grad_point: np.ndarray):
        """Accumulate parameter gradients for a training-mode forward pass,
        computing in that pass's dtype; the gradient buffers stay float64.

        It consumes the pass's context: ``result.ctx`` is cleared, and each
        part of it and each skip gradient goes as soon as it has been used,
        so a consumed context is not held under the rest of the backward."""
        if result.consumed:
            raise ValueError("a backward already consumed this forward pass's context")
        if result.ctx is None:
            raise ValueError("backward requires a forward pass run with training=True")
        winners, c_mlp, c_downs, c_ddcm, c_ups, c_head, c_refine = result.ctx
        result.ctx, result.consumed = None, True
        k = self.config.num_classes
        mapping = result.mapping

        dtype = result.point_logits.dtype
        g_refine_in = self.refine.backward(np.asarray(grad_point, dtype=dtype), c_refine)
        # one 1-D add.at, numpy's fast path, adds each element's terms in
        # point order as the 2-D one does
        g_logits = np.array(grad_voxel, dtype=dtype, order="C")
        flat = (mapping.point_site[:, None] * k + np.arange(k)).reshape(-1)
        np.add.at(g_logits.reshape(-1), flat, g_refine_in[:, :k].reshape(-1))
        g_h = g_refine_in[:, k:].copy()
        del g_refine_in

        g = self.head.backward(g_logits, c_head)
        del g_logits, c_head
        g_skips = [None] * self.config.stages
        for i, up in enumerate(self.ups):
            g, g_skips[i] = up.backward(g, c_ups.pop(0))
        g = self.ddcm.backward(g, c_ddcm)
        del c_ddcm
        for down in reversed(self.downs):
            g = down.backward(g, g_skips.pop(), c_downs.pop())

        # max-scatter routes each cell-channel gradient to its winning point;
        # a point wins at most one cell per channel, so no target repeats
        g_points = np.zeros_like(g_h)
        g_points[winners, np.arange(g.shape[1])] += g
        del g, winners
        g_h += g_points
        del g_points
        self.point_mlp.backward(g_h, c_mlp)

    def predict(self, cloud: PointCloud) -> np.ndarray:
        """Per-point class predictions (argmax of the refined logits).

        The forward pass runs in float32: it is bound by memory traffic, and
        its argmax agrees with the float64 pass's except at near-ties. Each
        ``Chain`` folds its batch norms into the conv or affine before them,
        and activations and residual adds run in place. Where float32
        overflows (a point at x = y = 3e38, say) the float64 logits are used.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            logits = self.forward(cloud, _dtype=np.float32).point_logits
        if not np.isfinite(logits).all():
            logits = self.forward(cloud).point_logits
        return np.argmax(logits, axis=1)


# ---------------------------------------------------------------------------
# checkpointing

_CKPT_MAGIC = b"CYLC"
_CKPT_VERSION = 1


class _NoDraw:
    """Stands in for the init generator of a network whose tensors are all
    about to be read from a container of ``nbytes`` bytes: it allocates the
    weights without drawing them, and raises a ValueError before a weight
    that would take them past what the container can hold."""

    def __init__(self, nbytes):
        self.nbytes = self.left = nbytes

    def uniform(self, low, high, size):
        self.left -= 8 * math.prod(size)
        if self.left < 0:
            raise ValueError(
                f"the header's network has more weights than the {self.nbytes}-byte "
                "tensor container holds"
            )
        return np.empty(size)


def save_checkpoint(path, network: SegmentationNetwork) -> None:
    """Write config header plus all named tensors (params and running stats),
    each straight from its array."""
    header = network_header(network.config).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC + struct.pack("<II", _CKPT_VERSION, len(header)) + header)
        write_tensors(fh, {**network.named_params(), **network.named_state()})


def load_checkpoint(path) -> SegmentationNetwork:
    """Read a checkpoint, each tensor straight from the file into the
    network's array; a malformed one raises a ValueError naming ``path``."""
    with open(path, "rb") as fh:
        try:
            preamble = fh.read(12)
            if preamble[:4] != _CKPT_MAGIC:
                raise ValueError("not a checkpoint file")
            if len(preamble) < 12:
                raise ValueError(f"the {len(preamble)}-byte file ends inside the 12-byte preamble")
            version, header_len = struct.unpack("<II", preamble[4:])
            if version != _CKPT_VERSION:
                raise ValueError(f"unsupported checkpoint version {version}")
            size = os.fstat(fh.fileno()).st_size
            if 12 + header_len > size:
                raise ValueError(f"header length {header_len} overruns the {size}-byte file")
            config = parse_network_header(fh.read(header_len).decode("utf-8"))
            network = SegmentationNetwork(config, seed=_NoDraw(size - 12 - header_len))
            read_tensors(fh, {**network.named_params(), **network.named_state()})
        except (ValueError, ConfigError) as exc:
            raise ValueError(f"{path}: {exc}") from None
    return network
