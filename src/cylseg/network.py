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

import struct
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .partition import (
    CylGridSpec,
    VoxelMapping,
    assign_cells,
    cart_to_cyl,
    scatter_features,
    scatter_max_winners,
)
from .pointcloud import PointCloud
from .sparse import (
    KernelSpec,
    Rulebook,
    SparseTensor,
    batch_norm_backward,
    batch_norm_forward,
    build_rulebook,
    concat_features,
    init_conv_params,
    init_norm_params,
    inverse_conv_backward,
    inverse_conv_forward,
    leaky_relu_backward,
    leaky_relu_forward,
    pack_tensors,
    sigmoid_backward,
    sigmoid_forward,
    sparse_conv_backward,
    sparse_conv_forward,
    unpack_tensors,
)

BLOCK_VARIANTS = ("regular", "asym1d", "asym")


@dataclass
class NetworkConfig:
    num_classes: int
    grid: CylGridSpec = field(default_factory=CylGridSpec)
    base_channels: int = 8
    stages: int = 2
    block_variant: str = "asym"
    point_mlp_widths: Tuple[int, ...] = (32,)
    leaky_slope: float = 0.1

    def __post_init__(self):
        self.point_mlp_widths = tuple(int(w) for w in self.point_mlp_widths)
        if self.num_classes < 2:
            raise ValueError("num_classes must be at least 2")
        if self.base_channels < 1 or self.stages < 1:
            raise ValueError("base_channels and stages must be positive")
        if self.block_variant not in BLOCK_VARIANTS:
            raise ValueError(f"block_variant must be one of {BLOCK_VARIANTS}")
        if any(w < 1 for w in self.point_mlp_widths):
            raise ValueError("point_mlp_widths must be positive")
        if self.grid.resolution[2] % (2**self.stages) != 0:
            raise ValueError("grid height bins must be divisible by 2**stages")


def point_input_features(cloud: PointCloud, mapping: VoxelMapping, grid) -> np.ndarray:
    """Per-point input features, 9 per point:

    [rho - rho_c, theta - theta_c, z - z_c, rho, theta, z, x, y, intensity]

    where (rho_c, theta_c, z_c) is the center of the point's cell.
    """
    cyl = cart_to_cyl(cloud.xyz)
    centers = grid.cell_centers(mapping.cells)[mapping.point_site]
    return np.hstack(
        [cyl - centers, cyl, cloud.xyz[:, 0:2], cloud.intensity[:, None]]
    )


class RulebookCache:
    """Memoizes rulebooks per (site-set identity, kernel) within one pass."""

    def __init__(self):
        self._store = {}

    def get(self, x: SparseTensor, kernel: KernelSpec) -> Rulebook:
        key = (id(x.coords), kernel)
        hit = self._store.get(key)
        if hit is not None and hit[0] is x.coords:
            return hit[1]
        rb = build_rulebook(x.coords, x.spatial_shape, kernel)
        self._store[key] = (x.coords, rb)
        return rb


class Module:
    """Parameter bookkeeping shared by all layers and blocks.

    A leaf layer registers its tensors once with ``declare``; blocks list
    their sub-modules in ``children``. Blocks own no tensors themselves.
    """

    params: dict = {}
    grads: dict = {}
    state: dict = {}

    def declare(self, params: dict, state: Optional[dict] = None) -> None:
        """Register parameters (with zeroed gradient buffers) and running state."""
        self.params = params
        self.grads = {name: np.zeros_like(arr) for name, arr in params.items()}
        self.state = state or {}

    def children(self):
        return []

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

    def load_tensor_dict(self, tensors: dict) -> None:
        """Copy values into this module's parameters and state, by name."""
        expected = {**self.named_params(), **self.named_state()}
        missing = sorted(set(expected) - set(tensors))
        surplus = sorted(set(tensors) - set(expected))
        if missing or surplus:
            raise ValueError(f"tensor names mismatch: missing {missing}, unexpected {surplus}")
        for name, arr in expected.items():
            value = np.asarray(tensors[name], dtype=np.float64)
            if value.shape != arr.shape:
                raise ValueError(f"shape mismatch for {name}: {value.shape} vs {arr.shape}")
            arr[...] = value


class Affine(Module):
    def __init__(self, c_in, c_out, rng):
        bound = np.sqrt(6.0 / (c_in + c_out))
        self.weight = rng.uniform(-bound, bound, (c_in, c_out))
        self.bias = np.zeros(c_out)
        self.declare({"weight": self.weight, "bias": self.bias})

    def forward(self, feats, training):
        return feats @ self.weight + self.bias, feats

    def backward(self, grad, ctx):
        self.grads["weight"] += ctx.T @ grad
        self.grads["bias"] += grad.sum(axis=0)
        return grad @ self.weight.T


class BatchNorm(Module):
    def __init__(self, channels):
        self.norm = init_norm_params(channels)
        self.declare(
            {"scale": self.norm.scale, "shift": self.norm.shift},
            {"running_mean": self.norm.running_mean, "running_var": self.norm.running_var},
        )

    def forward(self, feats, training):
        return batch_norm_forward(feats, self.norm, training)

    def backward(self, grad, ctx):
        grad_in, g_scale, g_shift = batch_norm_backward(grad, ctx)
        self.grads["scale"] += g_scale
        self.grads["shift"] += g_shift
        return grad_in


DOWNSAMPLE = KernelSpec((3, 3, 3), (2, 2, 2), "strided")


class Conv(Module):
    """Sparse convolution over a rulebook: submanifold, strided or inverse.

    The inverse variant runs the transposed convolution through the stored
    rulebook of the downsampling conv it mirrors, back to that conv's input
    sites; it is given that conv's kernel.
    """

    def __init__(self, kernel: KernelSpec, c_in, c_out, rng, inverse=False):
        self.kernel = kernel
        self.inverse = inverse
        self.conv_params = init_conv_params(kernel, c_in, c_out, rng)
        self.declare({"weights": self.conv_params.weights, "bias": self.conv_params.bias})

    def forward(self, x, rb, training):
        if rb.kernel != self.kernel:
            raise ValueError("rulebook kernel does not match the layer's")
        conv = inverse_conv_forward if self.inverse else sparse_conv_forward
        return conv(x, self.conv_params, rb), (x, rb)

    def backward(self, grad, ctx):
        x, rb = ctx
        conv = inverse_conv_backward if self.inverse else sparse_conv_backward
        grad_in, gw, gb = conv(x, self.conv_params, rb, grad)
        self.grads["weights"] += gw
        self.grads["bias"] += gb
        return grad_in


class PointMLP(Module):
    """Stack of affine + batch norm + LeakyReLU layers applied per point."""

    def __init__(self, widths, rng, slope):
        self.slope = slope
        self.affines = []
        self.norms = []
        for c_in, c_out in zip(widths[:-1], widths[1:]):
            self.affines.append(Affine(c_in, c_out, rng))
            self.norms.append(BatchNorm(c_out))

    def children(self):
        out = []
        for i, (a, n) in enumerate(zip(self.affines, self.norms)):
            out.append((f"l{i}.affine", a))
            out.append((f"l{i}.norm", n))
        return out

    def forward(self, feats, training):
        ctxs = []
        for a, n in zip(self.affines, self.norms):
            feats, ca = a.forward(feats, training)
            feats, cn = n.forward(feats, training)
            feats, cr = leaky_relu_forward(feats, self.slope)
            ctxs.append((ca, cn, cr))
        return feats, ctxs

    def backward(self, grad, ctxs):
        for (ca, cn, cr), a, n in zip(
            reversed(ctxs), reversed(self.affines), reversed(self.norms)
        ):
            grad = leaky_relu_backward(grad, cr)
            grad = n.backward(grad, cn)
            grad = a.backward(grad, ca)
        return grad


class _ConvBNActConvBN(Module):
    """conv(k1) -> BN -> act -> conv(k2) -> BN, on a fixed site set."""

    def __init__(self, c_in, c_out, k1, k2, rng, slope):
        self.slope = slope
        self.conv1 = Conv(KernelSpec(k1), c_in, c_out, rng)
        self.bn1 = BatchNorm(c_out)
        self.conv2 = Conv(KernelSpec(k2), c_out, c_out, rng)
        self.bn2 = BatchNorm(c_out)

    def children(self):
        return [
            ("conv1", self.conv1),
            ("bn1", self.bn1),
            ("conv2", self.conv2),
            ("bn2", self.bn2),
        ]

    def forward(self, x, cache, training):
        t1, c1 = self.conv1.forward(x, cache.get(x, self.conv1.kernel), training)
        n1, c2 = self.bn1.forward(t1.features, training)
        r1, c3 = leaky_relu_forward(n1, self.slope)
        h1 = t1.with_features(r1)
        t2, c4 = self.conv2.forward(h1, cache.get(h1, self.conv2.kernel), training)
        n2, c5 = self.bn2.forward(t2.features, training)
        return t2.with_features(n2), (c1, c2, c3, c4, c5)

    def backward(self, grad, ctx):
        c1, c2, c3, c4, c5 = ctx
        grad = self.bn2.backward(grad, c5)
        grad = self.conv2.backward(grad, c4)
        grad = leaky_relu_backward(grad, c3)
        grad = self.bn1.backward(grad, c2)
        return self.conv1.backward(grad, c1)


class AsymResBlock(Module):
    """Two asymmetric-kernel branches added and activated.

    Branch A applies k_a then k_b, branch B the mirror order; both kernels
    factor a cube into rank-deficient shapes, which is what saves a third of
    the weights relative to two full 3x3x3 convs.
    """

    def __init__(self, c_in, c_out, k_a, k_b, rng, slope):
        self.slope = slope
        self.branch_a = _ConvBNActConvBN(c_in, c_out, k_a, k_b, rng, slope)
        self.branch_b = _ConvBNActConvBN(c_in, c_out, k_b, k_a, rng, slope)

    def children(self):
        return [("a", self.branch_a), ("b", self.branch_b)]

    def forward(self, x, cache, training):
        ya, ca = self.branch_a.forward(x, cache, training)
        yb, cb = self.branch_b.forward(x, cache, training)
        out, cr = leaky_relu_forward(ya.features + yb.features, self.slope)
        return ya.with_features(out), (ca, cb, cr)

    def backward(self, grad, ctx):
        ca, cb, cr = ctx
        g = leaky_relu_backward(grad, cr)
        return self.branch_a.backward(g, ca) + self.branch_b.backward(g, cb)


class RegularResBlock(Module):
    """Two full 3x3x3 convs with a residual add (projection shortcut when
    the widths differ)."""

    def __init__(self, c_in, c_out, rng, slope):
        self.slope = slope
        self.main = _ConvBNActConvBN(c_in, c_out, (3, 3, 3), (3, 3, 3), rng, slope)
        self.shortcut = None if c_in == c_out else Conv(KernelSpec(1), c_in, c_out, rng)

    def children(self):
        out = [("main", self.main)]
        if self.shortcut is not None:
            out.append(("shortcut", self.shortcut))
        return out

    def forward(self, x, cache, training):
        ym, cm = self.main.forward(x, cache, training)
        if self.shortcut is not None:
            ys, cs = self.shortcut.forward(x, cache.get(x, self.shortcut.kernel), training)
            res = ys.features
        else:
            cs = None
            res = x.features
        out, cr = leaky_relu_forward(ym.features + res, self.slope)
        return ym.with_features(out), (cm, cs, cr)

    def backward(self, grad, ctx):
        cm, cs, cr = ctx
        g = leaky_relu_backward(grad, cr)
        grad_in = self.main.backward(g, cm)
        if self.shortcut is not None:
            grad_in = grad_in + self.shortcut.backward(g, cs)
        else:
            grad_in = grad_in + g
        return grad_in


def make_res_block(variant, c_in, c_out, rng, slope):
    if variant == "asym":
        return AsymResBlock(c_in, c_out, (1, 3, 3), (3, 1, 3), rng, slope)
    if variant == "asym1d":
        return AsymResBlock(c_in, c_out, (1, 3, 1), (3, 1, 1), rng, slope)
    if variant == "regular":
        return RegularResBlock(c_in, c_out, rng, slope)
    raise ValueError(f"unknown block variant {variant!r}")


def conv_weight_count(module: Module) -> int:
    """Total number of convolution weights (bias and norm excluded)."""
    return sum(
        arr.size for name, arr in module.named_params().items() if name.endswith("weights")
    )


class DownBlock(Module):
    """Residual block at constant width, then a stride-2 conv doubling it."""

    def __init__(self, c_in, c_out, variant, rng, slope):
        self.res = make_res_block(variant, c_in, c_in, rng, slope)
        self.down = Conv(DOWNSAMPLE, c_in, c_out, rng)

    def children(self):
        return [("res", self.res), ("down", self.down)]

    def forward(self, x, cache, training):
        skip, c_res = self.res.forward(x, cache, training)
        rb = cache.get(skip, self.down.kernel)
        y, c_down = self.down.forward(skip, rb, training)
        return y, skip, rb, (c_res, c_down)

    def backward(self, grad, grad_skip, ctx):
        c_res, c_down = ctx
        g = self.down.backward(grad, c_down) + grad_skip
        return self.res.backward(g, c_res)


class UpBlock(Module):
    """Inverse conv back to the paired stage's sites, concat skip, fuse."""

    def __init__(self, c_in, c_out, variant, rng, slope):
        self.c_out = c_out
        self.up = Conv(DOWNSAMPLE, c_in, c_out, rng, inverse=True)
        self.fuse = make_res_block(variant, 2 * c_out, c_out, rng, slope)

    def children(self):
        return [("up", self.up), ("fuse", self.fuse)]

    def forward(self, x, skip, stored_rulebook, cache, training):
        u, c_up = self.up.forward(x, stored_rulebook, training)
        cat = concat_features(u, skip)
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
    by BN and a sigmoid, produce per-axis gates; the input is scaled by
    their sum.
    """

    SIZES = ((3, 1, 1), (1, 3, 1), (1, 1, 3))

    def __init__(self, channels, rng):
        self.convs = [Conv(KernelSpec(s), channels, channels, rng) for s in self.SIZES]
        self.norms = [BatchNorm(channels) for _ in self.SIZES]

    def children(self):
        out = []
        for i, (c, n) in enumerate(zip(self.convs, self.norms)):
            out.append((f"g{i}.conv", c))
            out.append((f"g{i}.norm", n))
        return out

    def forward(self, x, cache, training):
        total = np.zeros_like(x.features)
        branch_ctxs = []
        for conv, norm in zip(self.convs, self.norms):
            t, c1 = conv.forward(x, cache.get(x, conv.kernel), training)
            n, c2 = norm.forward(t.features, training)
            s, c3 = sigmoid_forward(n)
            total += s
            branch_ctxs.append((c1, c2, c3))
        return x.with_features(x.features * total), (x, total, branch_ctxs)

    def backward(self, grad, ctx):
        x, total, branch_ctxs = ctx
        grad_in = grad * total
        g_gate = grad * x.features
        for (c1, c2, c3), conv, norm in zip(branch_ctxs, self.convs, self.norms):
            g = sigmoid_backward(g_gate, c3)
            g = norm.backward(g, c2)
            grad_in = grad_in + conv.backward(g, c1)
        return grad_in


class RefineMLP(Module):
    """Two-layer point head: affine -> LeakyReLU -> affine."""

    def __init__(self, c_in, hidden, c_out, rng, slope):
        self.slope = slope
        self.fc1 = Affine(c_in, hidden, rng)
        self.fc2 = Affine(hidden, c_out, rng)

    def children(self):
        return [("fc1", self.fc1), ("fc2", self.fc2)]

    def forward(self, feats, training):
        a, c1 = self.fc1.forward(feats, training)
        r, c2 = leaky_relu_forward(a, self.slope)
        y, c3 = self.fc2.forward(r, training)
        return y, (c1, c2, c3)

    def backward(self, grad, ctx):
        c1, c2, c3 = ctx
        g = self.fc2.backward(grad, c3)
        g = leaky_relu_backward(g, c2)
        return self.fc1.backward(g, c1)


@dataclass
class ForwardResult:
    voxel_logits: SparseTensor  # (M, K) on the occupied cells
    point_logits: np.ndarray  # (N, K)
    mapping: VoxelMapping
    ctx: Optional[tuple] = None


class SegmentationNetwork(Module):
    """End-to-end model: point MLP, sparse encoder-decoder, point refinement."""

    def __init__(self, config: NetworkConfig, seed=0):
        rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        self.config = config
        k = config.num_classes
        c0 = config.base_channels
        slope = config.leaky_slope
        variant = config.block_variant
        self.point_mlp = PointMLP((9, *config.point_mlp_widths, c0), rng, slope)
        self.downs = []
        c = c0
        for _ in range(config.stages):
            self.downs.append(DownBlock(c, 2 * c, variant, rng, slope))
            c *= 2
        self.ddcm = DDCM(c, rng)
        self.ups = []
        for i in range(config.stages):
            width = c0 * 2**i
            self.ups.append(UpBlock(2 * width, width, variant, rng, slope))
        self.head = Conv(KernelSpec(1), c0, k, rng)
        self.refine = RefineMLP(k + c0, 2 * k, k, rng, slope)

    def children(self):
        out = [("point_mlp", self.point_mlp)]
        out += [(f"down{i}", d) for i, d in enumerate(self.downs)]
        out.append(("ddcm", self.ddcm))
        out += [(f"up{i}", u) for i, u in enumerate(self.ups)]
        out += [("head", self.head), ("refine", self.refine)]
        return out

    def forward(self, cloud: PointCloud, training: bool = False) -> ForwardResult:
        """Run the full pipeline; pure w.r.t. parameters when not training."""
        config = self.config
        mapping = assign_cells(cloud, config.grid)
        if mapping.num_cells == 0:
            raise ValueError("cannot run the network on an empty cloud")
        pfeat = point_input_features(cloud, mapping, config.grid)
        h, c_mlp = self.point_mlp.forward(pfeat, training)
        vox = scatter_features(h, mapping, config.grid)
        winners = scatter_max_winners(h, mapping) if training else None

        cache = RulebookCache()
        x = vox
        skips, rulebooks, c_downs = [], [], []
        for down in self.downs:
            x, skip, rb, c_d = down.forward(x, cache, training)
            skips.append(skip)
            rulebooks.append(rb)
            c_downs.append(c_d)
        x, c_ddcm = self.ddcm.forward(x, cache, training)
        c_ups = [None] * config.stages
        for i in reversed(range(config.stages)):
            x, c_ups[i] = self.ups[i].forward(x, skips[i], rulebooks[i], cache, training)
        logits, c_head = self.head.forward(x, cache.get(x, self.head.kernel), training)
        gathered = logits.features[mapping.point_site]
        refine_in = np.hstack([gathered, h])
        point_logits, c_refine = self.refine.forward(refine_in, training)
        ctx = (winners, c_mlp, c_downs, c_ddcm, c_ups, c_head, c_refine) if training else None
        return ForwardResult(logits, point_logits, mapping, ctx)

    def backward(self, result: ForwardResult, grad_voxel: np.ndarray, grad_point: np.ndarray):
        """Accumulate parameter gradients for a training-mode forward pass."""
        if result.ctx is None:
            raise ValueError("backward requires a forward pass run with training=True")
        winners, c_mlp, c_downs, c_ddcm, c_ups, c_head, c_refine = result.ctx
        k = self.config.num_classes
        mapping = result.mapping

        g_refine_in = self.refine.backward(np.asarray(grad_point, dtype=np.float64), c_refine)
        g_logits = np.array(grad_voxel, dtype=np.float64)
        np.add.at(g_logits, mapping.point_site, g_refine_in[:, :k])
        g_h = g_refine_in[:, k:].copy()

        g = self.head.backward(g_logits, c_head)
        g_skips = [None] * self.config.stages
        for i in range(self.config.stages):
            g, g_skips[i] = self.ups[i].backward(g, c_ups[i])
        g = self.ddcm.backward(g, c_ddcm)
        for i in reversed(range(self.config.stages)):
            g = self.downs[i].backward(g, g_skips[i], c_downs[i])

        # max-scatter routes each cell-channel gradient to its winning point;
        # a point wins at most one cell per channel, so no target repeats
        g_points = np.zeros_like(g_h)
        g_points[winners, np.arange(g.shape[1])] += g
        self.point_mlp.backward(g_h + g_points, c_mlp)

    def predict(self, cloud: PointCloud) -> np.ndarray:
        """Per-point class predictions (argmax of the refined logits)."""
        return np.argmax(self.forward(cloud, training=False).point_logits, axis=1)


# ---------------------------------------------------------------------------
# checkpointing

_CKPT_MAGIC = b"CYLC"
_CKPT_VERSION = 1


def _config_to_text(config: NetworkConfig) -> str:
    grid = config.grid
    lines = [
        f"num_classes = {config.num_classes}",
        f"base_channels = {config.base_channels}",
        f"stages = {config.stages}",
        f"block_variant = {config.block_variant}",
        "point_mlp_widths = " + ",".join(str(w) for w in config.point_mlp_widths),
        f"leaky_slope = {config.leaky_slope!r}",
        f"rho_min = {grid.rho_range[0]!r}",
        f"rho_max = {grid.rho_range[1]!r}",
        f"z_min = {grid.z_range[0]!r}",
        f"z_max = {grid.z_range[1]!r}",
        f"radius_bins = {grid.resolution[0]}",
        f"azimuth_bins = {grid.resolution[1]}",
        f"height_bins = {grid.resolution[2]}",
    ]
    return "\n".join(lines) + "\n"


def _config_from_text(text: str) -> NetworkConfig:
    kv = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        key, _, value = line.partition("=")
        kv[key.strip()] = value.strip()
    grid = CylGridSpec(
        rho_range=(float(kv["rho_min"]), float(kv["rho_max"])),
        z_range=(float(kv["z_min"]), float(kv["z_max"])),
        resolution=(int(kv["radius_bins"]), int(kv["azimuth_bins"]), int(kv["height_bins"])),
    )
    return NetworkConfig(
        num_classes=int(kv["num_classes"]),
        grid=grid,
        base_channels=int(kv["base_channels"]),
        stages=int(kv["stages"]),
        block_variant=kv["block_variant"],
        point_mlp_widths=tuple(int(w) for w in kv["point_mlp_widths"].split(",")),
        leaky_slope=float(kv["leaky_slope"]),
    )


def save_checkpoint(path, network: SegmentationNetwork) -> None:
    """Write config header plus all named tensors (params and running stats)."""
    header = _config_to_text(network.config).encode("utf-8")
    blob = pack_tensors({**network.named_params(), **network.named_state()})
    with open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(struct.pack("<II", _CKPT_VERSION, len(header)))
        fh.write(header)
        fh.write(blob)


def load_checkpoint(path) -> SegmentationNetwork:
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != _CKPT_MAGIC:
        raise ValueError(f"{path}: not a checkpoint file")
    version, header_len = struct.unpack_from("<II", raw, 4)
    if version != _CKPT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    header = raw[12 : 12 + header_len].decode("utf-8")
    config = _config_from_text(header)
    network = SegmentationNetwork(config, seed=0)
    network.load_tensor_dict(unpack_tensors(raw[12 + header_len :]))
    return network
