"""Block-level and whole-network behavior checks.

Gradient correctness of the composed network is covered by the acceptance
suite; here the focus is wiring: shapes, coordinate sets, parameter
accounting, determinism, and the checkpoint container.
"""

import dataclasses
import math
import os
import struct
from types import SimpleNamespace

import numpy as np
import pytest

import cylseg.network as network_module
from cylseg.config import (
    BLOCK_VARIANTS,
    ConfigError,
    load_config,
    network_header,
    parse_network_header,
)
from cylseg.network import (
    DDCM,
    DOWNSAMPLE,
    Affine,
    BatchNorm,
    Conv,
    DownBlock,
    Module,
    NetworkConfig,
    PointMLP,
    RulebookCache,
    SegmentationNetwork,
    UpBlock,
    load_checkpoint,
    make_res_block,
    point_input_features,
    save_checkpoint,
)
from cylseg.partition import CylGridSpec, assign_cells
from cylseg.pointcloud import PointCloud, SyntheticSceneSpec, generate_synthetic_scene
from cylseg.selftest import _toy_setup, random_sparse
from cylseg.sparse import SparseTensor, key_coords, leaky_relu_forward, read_tensors
from cylseg.training import Adam, finite_diff_check, train_step
from helpers import conv_weight_count, traced_memory

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
ROOT = os.path.dirname(os.path.dirname(DATA))
TOY_GRID = CylGridSpec(rho_range=(0.0, 12.0), z_range=(-1.0, 6.0), resolution=(8, 8, 4))


def _toy_config(**overrides):
    base = dict(
        num_classes=3,
        grid=TOY_GRID,
        base_channels=4,
        stages=2,
        block_variant="asym",
        point_mlp_widths=(8,),
    )
    base.update(overrides)
    return NetworkConfig(**base)


def _toy_cloud(seed=0, n=200):
    spec = SyntheticSceneSpec(
        seed=seed, num_points=n, max_range=12.0, pole_count=6, box_count=4, inner_radius=1.0
    )
    return generate_synthetic_scene(spec)


# -------------------------------------------------------------- point features


def test_point_features_at_cell_center_have_zero_offsets():
    grid = CylGridSpec(rho_range=(0.0, 8.0), z_range=(-2.0, 2.0), resolution=(4, 4, 4))
    # cell (0, h, 2) center: rho 1.0, theta depends on bin, z 0.5
    rho_c, theta_c, z_c = 1.0, -np.pi + 2 * np.pi / 4 * 1.5, 0.5
    xyz = np.array([[rho_c * np.cos(theta_c), rho_c * np.sin(theta_c), z_c]])
    cloud = PointCloud(xyz, np.array([0.7]))
    mapping = assign_cells(cloud, grid)
    feats = point_input_features(cloud.xyz, cloud.intensity, mapping, grid)
    np.testing.assert_allclose(feats[0, :3], 0.0, atol=1e-12)
    np.testing.assert_allclose(feats[0, 3:6], [rho_c, theta_c, z_c], atol=1e-12)


def test_point_features_axis_case():
    grid = CylGridSpec(rho_range=(0.0, 8.0), z_range=(-2.0, 2.0), resolution=(4, 4, 4))
    cloud = PointCloud(np.array([[1.0, 0.0, 0.0]]), np.array([0.25]))
    feats = point_input_features(cloud.xyz, cloud.intensity, assign_cells(cloud, grid), grid)
    assert feats.shape == (1, 9)
    rho, theta, z, x, y, intensity = feats[0, 3], feats[0, 4], feats[0, 5], feats[0, 6], feats[0, 7], feats[0, 8]
    assert (rho, theta, z, x, y, intensity) == (1.0, 0.0, 0.0, 1.0, 0.0, 0.25)


def test_point_feature_offsets_bounded_by_half_cell():
    grid = CylGridSpec(rho_range=(0.0, 8.0), z_range=(-2.0, 2.0), resolution=(4, 4, 4))
    rng = np.random.default_rng(40)
    xyz = rng.uniform(-5, 5, size=(500, 3))
    cloud = PointCloud(xyz, rng.uniform(size=500))
    feats = point_input_features(cloud.xyz, cloud.intensity, assign_cells(cloud, grid), grid)
    half = grid.deltas / 2.0
    # in-range points sit within half a cell of their center; clamped points
    # (|p| beyond the grid) can exceed it along the clamped axis only
    cyl_in_range = (feats[:, 3] <= 8.0) & (np.abs(feats[:, 5]) <= 2.0)
    assert np.all(np.abs(feats[cyl_in_range, :3]) <= half * (1 + 1e-12))


# ------------------------------------------------------------------ point MLP


def test_point_mlp_output_shape():
    mlp = PointMLP((9, 8, 4), np.random.default_rng(0), slope=0.1)
    out, _ = mlp.forward(np.zeros((1, 9)), training=False)
    assert out.shape == (1, 4)


def test_point_mlp_gradient_finite_differences():
    rng = np.random.default_rng(41)
    mlp = PointMLP((5, 6, 3), rng, slope=0.1)
    feats = rng.standard_normal((7, 5))
    probe = rng.standard_normal((7, 3))

    def objective():
        out, _ = mlp.forward(feats, training=False)
        return float((out * probe).sum())

    out, ctx = mlp.forward(feats, training=False)
    mlp.zero_grads()
    g_in = mlp.backward(probe, ctx)
    arrays = dict(mlp.named_params())
    analytic = dict(mlp.named_grads())
    arrays["input"] = feats
    analytic["input"] = g_in
    assert finite_diff_check(objective, arrays, analytic) < 1e-6


def test_point_mlp_frees_each_training_buffer_when_it_is_done():
    # Units of one 16,384 x 64 float64 array. A batch norm output must die
    # once its activation has run, and a layer must return before the
    # activation's gradient is made: keeping either alive costs one unit
    # more (forward 7.13, or backward 8.26).
    n, unit = 16_384, 16_384 * 64 * 8
    rng = np.random.default_rng(0)
    mlp = PointMLP((9, 64, 64), rng, slope=0.1)
    feats = rng.standard_normal((n, 9))
    probe = rng.standard_normal((n, 64))
    mlp.forward(feats, training=True)
    with traced_memory() as memory:
        out, ctx = mlp.forward(feats, training=True)
        forward_peak = memory.peak() / unit
        mlp.backward(probe, ctx)
        backward_peak = memory.peak() / unit
    assert forward_peak < 6.7
    assert backward_peak < 7.6


def test_affine_adds_its_bias_into_the_product():
    # units of one 16,384 x 64 float64 array: the output alone, with no
    # second array for ``feats @ W`` before the bias is added
    n, unit = 16_384, 16_384 * 64 * 8
    rng = np.random.default_rng(1)
    affine = Affine(64, 64, rng)
    feats = rng.standard_normal((n, 64))
    with traced_memory() as memory:
        affine.forward(feats, training=True)
        peak = memory.peak() / unit
    assert peak < 1.5


# ------------------------------------------------------------------ res blocks


def test_block_variants_share_shapes_and_coordinates():
    rng = np.random.default_rng(42)
    x = random_sparse(rng, max_shape=(8, 8, 8), max_channels=4)
    c_in = x.features.shape[1]
    cache = RulebookCache()
    outs = []
    for variant in ("regular", "asym1d", "asym"):
        block = make_res_block(variant, c_in, 5, np.random.default_rng(1), 0.1)
        y, _ = block.forward(x, cache, training=False)
        outs.append(y)
        np.testing.assert_array_equal(y.coords, x.coords)
        assert y.features.shape == (len(x.coords), 5)


def test_asym_conv_weights_are_two_thirds_of_regular():
    asym = make_res_block("asym", 6, 6, np.random.default_rng(0), 0.1)
    regular = make_res_block("regular", 6, 6, np.random.default_rng(0), 0.1)
    assert conv_weight_count(asym) * 3 == conv_weight_count(regular) * 2


def test_variant_weight_ordering():
    counts = {
        v: conv_weight_count(make_res_block(v, 4, 4, np.random.default_rng(0), 0.1))
        for v in ("regular", "asym1d", "asym")
    }
    assert counts["asym1d"] < counts["asym"] < counts["regular"]


def test_regular_block_with_zero_weights_is_activated_identity():
    rng = np.random.default_rng(43)
    x = random_sparse(rng, max_shape=(6, 6, 6), max_channels=3)
    c = x.features.shape[1]
    block = make_res_block("regular", c, c, np.random.default_rng(2), 0.1)
    for name, arr in block.named_params().items():
        if name.endswith("weights"):
            arr[:] = 0.0
    y, _ = block.forward(x, RulebookCache(), training=False)
    expected, _ = leaky_relu_forward(x.features, 0.1)
    np.testing.assert_allclose(y.features, expected, atol=1e-12)


# ----------------------------------------------------------- down / up blocks


def test_down_block_halves_shape_and_doubles_channels():
    rng = np.random.default_rng(44)
    coords = np.array([[0, 0, 0], [3, 4, 5], [7, 7, 7]], dtype=np.int64)
    from cylseg.sparse import SparseTensor

    x = SparseTensor(coords, rng.standard_normal((3, 4)), (8, 8, 8))
    block = DownBlock(4, 8, "asym", np.random.default_rng(3), 0.1)
    y, skip, _ = block.forward(x, RulebookCache(), training=False)
    assert y.spatial_shape == (4, 4, 4)
    assert y.features.shape[1] == 8
    np.testing.assert_array_equal(skip.coords, x.coords)


def test_up_block_restores_skip_coordinates():
    rng = np.random.default_rng(45)
    x = random_sparse(rng, max_shape=(8, 8, 8), max_channels=4)
    c = x.features.shape[1]
    down = DownBlock(c, 2 * c, "asym", np.random.default_rng(4), 0.1)
    up = UpBlock(2 * c, c, "asym", np.random.default_rng(5), 0.1)
    cache = RulebookCache()
    y, skip, _ = down.forward(x, cache, training=False)
    out, _ = up.forward(y, skip, cache, training=False)
    assert out.coords is skip.coords
    assert out.features.shape == (len(skip.coords), c)


def test_up_block_ignores_skip_weights_when_skip_is_zero():
    # with zero skip features, the fusion weights that multiply the skip
    # half of the concat cannot influence the output
    rng = np.random.default_rng(46)
    x = random_sparse(rng, max_shape=(8, 8, 8), max_channels=4)
    c = x.features.shape[1]
    down = DownBlock(c, 2 * c, "asym", np.random.default_rng(6), 0.1)
    up = UpBlock(2 * c, c, "asym", np.random.default_rng(7), 0.1)
    cache = RulebookCache()
    y, skip, _ = down.forward(x, cache, training=False)
    zero_skip = skip.with_features(np.zeros_like(skip.features))
    a, _ = up.forward(y, zero_skip, cache, training=False)
    for name, arr in up.named_params().items():
        if name.startswith("fuse.") and name.endswith("weights") and arr.shape[1] == 2 * c:
            arr[:, c:, :] += rng.standard_normal((arr.shape[0], c, arr.shape[2]))
    b, _ = up.forward(y, zero_skip, cache, training=False)
    np.testing.assert_array_equal(a.features, b.features)


def test_up_block_frees_its_inverse_conv_output_and_skip_once_concatenated():
    # Units of one (M, 16) float32 array on the skip's sites, on predict's
    # route. The concat copies both halves, so the inverse conv's output and
    # the skip (which the caller hands over, as ``skips.pop()`` does) must die
    # before the fuse block runs: keeping them costs two units more (8.49).
    rng = np.random.default_rng(47)
    shape = (40, 40, 24)
    coords = key_coords(np.flatnonzero(rng.random(math.prod(shape)) < 0.5), shape)
    c = 16
    skip = SparseTensor(coords, rng.standard_normal((len(coords), c)).astype(np.float32), shape)
    cache = RulebookCache()
    rb = cache.get(skip, DOWNSAMPLE)  # the down block's rulebook, as in a pass
    x = SparseTensor(rb.out_coords, rng.standard_normal((len(rb.out_coords), 2 * c)), rb.out_shape)
    x = x.with_features(x.features.astype(np.float32))
    up = UpBlock(2 * c, c, "asym", rng, 0.1)
    expected, _ = up.forward(x, skip, cache, training=False)  # fills the cache
    unit = skip.features.nbytes
    with traced_memory() as memory:
        skips = [skip.with_features(skip.features.copy())]
        out, _ = up.forward(x, skips.pop(), cache, training=False)
        peak = memory.peak() / unit
    assert out.features.tobytes() == expected.features.tobytes()
    assert peak < 7.5


# ----------------------------------------------------------------------- DDCM


def test_ddcm_zero_input_gives_zero_output():
    from cylseg.sparse import SparseTensor

    coords = np.array([[1, 1, 1], [2, 1, 0]], dtype=np.int64)
    x = SparseTensor(coords, np.zeros((2, 3)), (4, 4, 4))
    ddcm = DDCM(3, np.random.default_rng(8))
    y, _ = ddcm.forward(x, RulebookCache(), training=False)
    assert not y.features.any()


def test_ddcm_output_bounded_by_three_gates():
    rng = np.random.default_rng(47)
    x = random_sparse(rng, max_shape=(6, 6, 6), max_channels=4)
    ddcm = DDCM(x.features.shape[1], np.random.default_rng(9))
    y, _ = ddcm.forward(x, RulebookCache(), training=False)
    assert np.all(np.abs(y.features) <= 3.0 * np.abs(x.features) + 1e-12)


# -------------------------------------------------------------- whole network


def test_forward_single_point_shapes():
    net = SegmentationNetwork(_toy_config(), seed=0)
    cloud = PointCloud(np.array([[2.0, 0.5, 1.0]]), np.array([0.5]))
    result = net.forward(cloud)
    assert result.voxel_logits.features.shape == (1, 3)
    assert result.point_logits.shape == (1, 3)


def test_forward_is_permutation_equivariant():
    net = SegmentationNetwork(_toy_config(), seed=0)
    cloud = _toy_cloud(seed=3)
    rng = np.random.default_rng(48)
    perm = rng.permutation(cloud.n)
    shuffled = PointCloud(cloud.xyz[perm], cloud.intensity[perm], cloud.labels[perm])

    a = net.forward(cloud)
    b = net.forward(shuffled)
    np.testing.assert_allclose(b.point_logits, a.point_logits[perm], atol=1e-9)

    va = {tuple(c): f for c, f in zip(a.voxel_logits.coords, a.voxel_logits.features)}
    vb = {tuple(c): f for c, f in zip(b.voxel_logits.coords, b.voxel_logits.features)}
    assert va.keys() == vb.keys()
    for key in va:
        np.testing.assert_allclose(vb[key], va[key], atol=1e-9)


def test_inference_is_deterministic():
    net = SegmentationNetwork(_toy_config(), seed=0)
    cloud = _toy_cloud(seed=4)
    a = net.forward(cloud)
    b = net.forward(cloud)
    np.testing.assert_array_equal(a.point_logits, b.point_logits)
    np.testing.assert_array_equal(a.voxel_logits.features, b.voxel_logits.features)


def test_predict_returns_one_label_per_point():
    net = SegmentationNetwork(_toy_config(), seed=0)
    cloud = _toy_cloud(seed=5)
    pred = net.predict(cloud)
    assert pred.shape == (cloud.n,)
    result = net.forward(cloud)
    np.testing.assert_array_equal(pred, result.point_logits.argmax(axis=1))


def test_inference_forward_keeps_no_backward_context():
    # a training forward keeps every layer's inputs, normalised features and
    # masks for backward; an inference forward drops each as soon as it is
    # made, and each skip tensor once used (at the parent both peaked alike)
    cfg = load_config(os.path.join(ROOT, "configs", "toy_train.cfg"))
    net = SegmentationNetwork(cfg.network, seed=0)
    cloud = generate_synthetic_scene(SyntheticSceneSpec(seed=3, num_points=4096, max_range=20.0))

    def peak_bytes(training):
        with traced_memory() as memory:
            net.forward(cloud, training=training)
            return memory.peak()

    assert peak_bytes(False) < 0.75 * peak_bytes(True)


def test_a_train_step_peaks_little_above_what_its_forward_leaves_live(monkeypatch):
    # A backward drops each context as soon as it has used it. When every
    # context lived until the backward returned, a toy step peaked at 1.79
    # times what its forward left live; with each dropped, 1.19, which the
    # loss sets, between the forward and the backward.
    cfg = load_config(os.path.join(ROOT, "configs", "toy_train.cfg"))
    net = SegmentationNetwork(cfg.network, seed=0)
    optimizer = Adam(net.named_params(), lr=cfg.train.lr)
    clouds = [generate_synthetic_scene(SyntheticSceneSpec(seed=s, num_points=16_384,
                                                          max_range=20.0)) for s in (0, 1)]
    train_step(net, optimizer, clouds[0])
    forward, live = net.forward, []

    def recorded_forward(*args, **kwargs):
        result = forward(*args, **kwargs)
        live.append(memory.live())
        return result

    monkeypatch.setattr(net, "forward", recorded_forward)
    with traced_memory() as memory:
        train_step(net, optimizer, clouds[1])
        peak = memory.peak()
    assert len(live) == 1
    assert peak < 1.35 * live[0], peak / live[0]


def test_a_second_backward_of_one_forward_is_refused():
    net, cloud = _toy_setup(seed=0)
    result = net.forward(cloud, training=True)
    grads = (np.ones_like(result.voxel_logits.features), np.ones_like(result.point_logits))
    net.backward(result, *grads)
    assert result.ctx is None
    with pytest.raises(ValueError, match="a backward already consumed"):
        net.backward(result, *grads)
    with pytest.raises(ValueError, match="training=True"):
        net.backward(net.forward(cloud), *grads)


def test_network_variants_swap_without_shape_changes():
    cloud = _toy_cloud(seed=6)
    shapes = set()
    for variant in ("regular", "asym1d", "asym"):
        net = SegmentationNetwork(_toy_config(block_variant=variant), seed=0)
        result = net.forward(cloud)
        shapes.add(result.point_logits.shape)
        shapes.add(result.voxel_logits.features.shape)
    assert len(shapes) == 2  # one point shape, one voxel shape, shared by all


def _held_modules(module):
    """The modules ``module`` holds: in an attribute or in a list attribute,
    alone or in a tuple (a ``Chain``'s steps)."""
    held = []
    for value in vars(module).values():
        for item in value if isinstance(value, list) else [value]:
            held += [m for m in (item if isinstance(item, tuple) else (item,))
                     if isinstance(m, Module)]
    return held


@pytest.mark.parametrize("variant", BLOCK_VARIANTS)
@pytest.mark.parametrize("cfg", ["toy_train.cfg", "semantic_kitti.cfg"])
def test_every_sub_module_is_a_registered_child(cfg, variant):
    # a sub-module built but never added would drop out of named_params,
    # the optimizer and checkpoints without an error
    config = load_config(os.path.join(ROOT, "configs", cfg)).network
    config = dataclasses.replace(config, block_variant=variant)
    no_draw = SimpleNamespace(uniform=lambda low, high, size: np.empty(size))
    stack, walked = [SegmentationNetwork(config, seed=no_draw)], 0
    while stack:
        module = stack.pop()
        children = [child for _, child in module.children()]
        registered = {id(child) for child in children}
        for held in _held_modules(module):
            assert id(held) in registered, f"{type(held).__name__} in {type(module).__name__}"
        stack.extend(children)
        walked += 1
    assert walked > 30


@pytest.mark.parametrize("cfg", ["toy_train.cfg", "semantic_kitti.cfg"])
def test_each_leaf_layer_registers_its_own_attributes(cfg):
    # each checkpoint entry is the array the layer computes with, held once
    config = load_config(os.path.join(ROOT, "configs", cfg)).network
    no_draw = SimpleNamespace(uniform=lambda low, high, size: np.empty(size))
    stack, kinds = [SegmentationNetwork(config, seed=no_draw)], set()
    while stack:
        module = stack.pop()
        stack.extend(child for _, child in module.children())
        if isinstance(module, (Affine, Conv, BatchNorm)):
            kinds.add(type(module))
            for name, arr in {**module.params, **module.state}.items():
                assert arr is getattr(module, name, None), f"{type(module).__name__}.{name}"
    assert kinds == {Affine, Conv, BatchNorm}


def test_rulebook_cache_reuses_by_coords_identity():
    from cylseg.sparse import KernelSpec, SparseTensor

    rng = np.random.default_rng(49)
    x = random_sparse(rng)
    cache = RulebookCache()
    kernel = KernelSpec((3, 3, 3))
    rb1 = cache.get(x, kernel)
    rb2 = cache.get(x, kernel)
    assert rb1 is rb2
    # a distinct coords array with equal values is another site set
    twin = SparseTensor(x.coords.copy(), x.features, x.spatial_shape)
    rb3 = cache.get(twin, kernel)
    assert rb3 is not rb1 and rb3.in_coords is twin.coords
    assert cache.get(x, kernel) is rb1 and cache.get(twin, kernel) is rb3


def test_each_rulebook_is_built_once_per_forward(monkeypatch):
    # every conv fetches its rulebook from the pass's cache, and an up block's
    # inverse conv reads the strided rulebook its down block built
    cfg = load_config(os.path.join(ROOT, "configs", "toy_train.cfg"))
    assert cfg.network.block_variant == "asym"
    net = SegmentationNetwork(cfg.network, seed=0)
    cloud = generate_synthetic_scene(
        SyntheticSceneSpec(seed=3, num_points=cfg.data.points, max_range=cfg.data.max_range)
    )
    builds, in_up = [], [False]
    build_rulebook = network_module.build_rulebook

    def counted(x, kernel):
        builds.append((x.coords.tobytes(), x.spatial_shape, kernel, in_up[0]))
        return build_rulebook(x, kernel)

    def flagged(forward):
        def run(*args, **kwargs):
            in_up[0] = True
            try:
                return forward(*args, **kwargs)
            finally:
                in_up[0] = False
        return run

    monkeypatch.setattr(network_module, "build_rulebook", counted)
    for up in net.ups:
        monkeypatch.setattr(up, "forward", flagged(up.forward))
    for run in (lambda: net.forward(cloud, training=True), lambda: net.predict(cloud)):
        builds.clear()
        run()
        # per stage: the res block's two kernels and the downsampling conv;
        # then the three DDCM kernels and the head
        assert len(builds) == 10
        assert len({build[:3] for build in builds}) == 10
        assert not any(build[3] for build in builds)


def test_config_rejects_indivisible_height():
    with pytest.raises(ValueError):
        _toy_config(grid=CylGridSpec(rho_range=(0.0, 12.0), z_range=(-1.0, 6.0), resolution=(8, 8, 6)))


def test_config_rejects_unknown_variant():
    with pytest.raises(ValueError):
        _toy_config(block_variant="bent")


# ----------------------------------------------------------------- checkpoint


def test_checkpoint_round_trip(tmp_path):
    net = SegmentationNetwork(_toy_config(), seed=0)
    cloud = _toy_cloud(seed=7)
    before = net.forward(cloud).point_logits

    path = tmp_path / "net.ckpt"
    save_checkpoint(path, net)
    assert path.read_bytes()[:4] == b"CYLC"

    loaded = load_checkpoint(path)
    assert loaded.config == net.config
    for name, arr in net.named_params().items():
        np.testing.assert_array_equal(loaded.named_params()[name], arr)
    for name, arr in net.named_state().items():
        np.testing.assert_array_equal(loaded.named_state()[name], arr)
    np.testing.assert_array_equal(loaded.forward(cloud).point_logits, before)


def test_checkpoint_header_of_the_full_scale_config_is_pinned(tmp_path):
    # The header bytes of every checkpoint written so far; only the config
    # is needed, so a tensor-less stand-in spares building 19.6M parameters.
    cfg = load_config(os.path.join(ROOT, "configs", "semantic_kitti.cfg"))
    path = tmp_path / "header.ckpt"
    save_checkpoint(path, SimpleNamespace(config=cfg.network, named_params=dict, named_state=dict))
    raw = path.read_bytes()
    assert raw[:4] == b"CYLC"
    version, header_len = struct.unpack_from("<II", raw, 4)
    assert version == 1
    assert raw[12 : 12 + header_len].decode("utf-8") == (
        "num_classes = 19\n"
        "base_channels = 32\n"
        "stages = 4\n"
        "block_variant = asym\n"
        "point_mlp_widths = 64,128\n"
        "leaky_slope = 0.1\n"
        "rho_min = 0.0\n"
        "rho_max = 50.0\n"
        "z_min = -4.0\n"
        "z_max = 2.0\n"
        "radius_bins = 480\n"
        "azimuth_bins = 360\n"
        "height_bins = 32\n"
    )


def test_checkpoint_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"XXXX" + b"\x00" * 32)
    with pytest.raises(ValueError):
        load_checkpoint(path)


def _expected_toy_outputs():
    with open(os.path.join(DATA, "toy_seed0_expected.cylt"), "rb") as fh:
        return read_tensors(fh)


def test_resaving_the_toy_checkpoint_gives_its_exact_bytes(tmp_path):
    path = os.path.join(DATA, "toy_seed0.ckpt")
    save_checkpoint(tmp_path / "again.ckpt", load_checkpoint(path))
    with open(path, "rb") as fh:
        assert (tmp_path / "again.ckpt").read_bytes() == fh.read()


def _full_scale_network():
    # every tensor about to be written or overwritten, so none is drawn
    cfg = load_config(os.path.join(ROOT, "configs", "semantic_kitti.cfg"))
    return SegmentationNetwork(cfg.network, seed=network_module._NoDraw(math.inf))


@pytest.fixture(scope="module")
def full_scale_checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("full") / "net.ckpt"
    save_checkpoint(path, _full_scale_network())
    yield path
    path.unlink()


def test_checkpoint_load_reads_each_tensor_into_its_array(full_scale_checkpoint):
    # the parent read the whole 150 MiB file into one bytes object first
    with traced_memory() as memory:
        net = load_checkpoint(full_scale_checkpoint)
        peak = memory.peak()
    arrays = [*net.named_params().values(), *net.named_state().values(),
              *net.named_grads().values()]
    own = sum(arr.nbytes for arr in arrays)
    assert own > 200 * 2**20
    assert peak <= own + 4 * 2**20, (peak / 2**20, own / 2**20)


def test_checkpoint_save_writes_each_tensor_from_its_array():
    # the parent packed every tensor into one blob, then copied it
    net = _full_scale_network()
    largest = max(arr.nbytes for arr in net.named_params().values())
    with traced_memory() as memory:
        save_checkpoint(os.devnull, net)
        peak = memory.peak()
    assert peak <= largest, (peak / 2**20, largest / 2**20)


def test_checkpoint_from_before_the_layer_rework_predicts_identically():
    # Written before the per-layer parameter methods became one registry:
    # ``_toy_setup(seed=0)``'s network after 20 ``train_step`` calls with Adam
    # on its own cloud, saved with ``save_checkpoint``; the expected file
    # holds that network's inference-mode point logits and predictions.
    loaded = load_checkpoint(os.path.join(DATA, "toy_seed0.ckpt"))
    expected = _expected_toy_outputs()
    network, cloud = _toy_setup(seed=0)
    assert loaded.config == network.config
    assert sorted(loaded.named_params()) == sorted(network.named_params())
    result = loaded.forward(cloud)
    np.testing.assert_array_equal(result.point_logits, expected["point_logits"])
    np.testing.assert_array_equal(loaded.predict(cloud), expected["predictions"])


def test_checkpoint_load_draws_no_random_numbers(monkeypatch):
    # every tensor comes from the file, so drawing an initialisation is waste
    _, cloud = _toy_setup(seed=0)
    expected = _expected_toy_outputs()

    def no_generator(*args, **kwargs):
        raise AssertionError("load_checkpoint made a random generator")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    loaded = load_checkpoint(os.path.join(DATA, "toy_seed0.ckpt"))
    np.testing.assert_array_equal(loaded.forward(cloud).point_logits, expected["point_logits"])


def test_checkpoint_header_errors_name_the_header_line():
    header = network_header(_toy_config())
    assert len(header.splitlines()) == 13
    with pytest.raises(ConfigError, match=r"\[line 14\]: key 'stages' repeats"):
        parse_network_header(header + "stages = 2\n")
    lines = header.splitlines(keepends=True)
    lines[2] = "stages\n"
    with pytest.raises(ConfigError, match=r"\[line 3\]: expected 'key = value'"):
        parse_network_header("".join(lines))
