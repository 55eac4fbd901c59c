"""Block-level and whole-network behavior checks.

Gradient correctness of the composed network is covered by the acceptance
suite; here the focus is wiring: shapes, coordinate sets, parameter
accounting, determinism, and the checkpoint container.
"""

import os

import numpy as np
import pytest

from cylseg.network import (
    DDCM,
    DownBlock,
    NetworkConfig,
    PointMLP,
    RulebookCache,
    SegmentationNetwork,
    UpBlock,
    conv_weight_count,
    load_checkpoint,
    make_res_block,
    point_input_features,
    save_checkpoint,
)
from cylseg.partition import CylGridSpec, assign_cells
from cylseg.pointcloud import PointCloud, SyntheticSceneSpec, generate_synthetic_scene
from cylseg.selftest import _toy_setup, random_sparse
from cylseg.sparse import leaky_relu_forward, load_tensors
from cylseg.training import finite_diff_check

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
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
    feats = point_input_features(cloud, mapping, grid)
    np.testing.assert_allclose(feats[0, :3], 0.0, atol=1e-12)
    np.testing.assert_allclose(feats[0, 3:6], [rho_c, theta_c, z_c], atol=1e-12)


def test_point_features_axis_case():
    grid = CylGridSpec(rho_range=(0.0, 8.0), z_range=(-2.0, 2.0), resolution=(4, 4, 4))
    cloud = PointCloud(np.array([[1.0, 0.0, 0.0]]), np.array([0.25]))
    feats = point_input_features(cloud, assign_cells(cloud, grid), grid)
    assert feats.shape == (1, 9)
    rho, theta, z, x, y, intensity = feats[0, 3], feats[0, 4], feats[0, 5], feats[0, 6], feats[0, 7], feats[0, 8]
    assert (rho, theta, z, x, y, intensity) == (1.0, 0.0, 0.0, 1.0, 0.0, 0.25)


def test_point_feature_offsets_bounded_by_half_cell():
    grid = CylGridSpec(rho_range=(0.0, 8.0), z_range=(-2.0, 2.0), resolution=(4, 4, 4))
    rng = np.random.default_rng(40)
    xyz = rng.uniform(-5, 5, size=(500, 3))
    cloud = PointCloud(xyz, rng.uniform(size=500))
    feats = point_input_features(cloud, assign_cells(cloud, grid), grid)
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
    coords = np.array([[0, 0, 0], [7, 7, 7], [3, 4, 5]], dtype=np.int64)
    from cylseg.sparse import SparseTensor

    x = SparseTensor(coords, rng.standard_normal((3, 4)), (8, 8, 8))
    block = DownBlock(4, 8, "asym", np.random.default_rng(3), 0.1)
    y, skip, rb, _ = block.forward(x, RulebookCache(), training=False)
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
    y, skip, rb, _ = down.forward(x, cache, training=False)
    out, _ = up.forward(y, skip, rb, cache, training=False)
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
    y, skip, rb, _ = down.forward(x, cache, training=False)
    zero_skip = skip.with_features(np.zeros_like(skip.features))
    a, _ = up.forward(y, zero_skip, rb, cache, training=False)
    for name, arr in up.named_params().items():
        if name.startswith("fuse.") and name.endswith("weights") and arr.shape[1] == 2 * c:
            arr[:, c:, :] += rng.standard_normal((arr.shape[0], c, arr.shape[2]))
    b, _ = up.forward(y, zero_skip, rb, cache, training=False)
    np.testing.assert_array_equal(a.features, b.features)


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


def test_network_variants_swap_without_shape_changes():
    cloud = _toy_cloud(seed=6)
    shapes = set()
    for variant in ("regular", "asym1d", "asym"):
        net = SegmentationNetwork(_toy_config(block_variant=variant), seed=0)
        result = net.forward(cloud)
        shapes.add(result.point_logits.shape)
        shapes.add(result.voxel_logits.features.shape)
    assert len(shapes) == 2  # one point shape, one voxel shape, shared by all


def test_rulebook_cache_reuses_by_coords_identity():
    from cylseg.sparse import KernelSpec

    rng = np.random.default_rng(49)
    x = random_sparse(rng)
    cache = RulebookCache()
    kernel = KernelSpec((3, 3, 3))
    rb1 = cache.get(x, kernel)
    rb2 = cache.get(x, kernel)
    assert rb1 is rb2


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


def test_checkpoint_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"XXXX" + b"\x00" * 32)
    with pytest.raises(ValueError):
        load_checkpoint(path)


def test_load_tensor_dict_rejects_missing_names():
    net = SegmentationNetwork(_toy_config(), seed=0)
    tensors = {**net.named_params(), **net.named_state()}
    tensors.pop(sorted(tensors)[0])
    with pytest.raises(ValueError):
        net.load_tensor_dict(tensors)


def test_checkpoint_from_before_the_layer_rework_predicts_identically():
    # Written before the per-layer parameter methods became one registry:
    # ``_toy_setup(seed=0)``'s network after 20 ``train_step`` calls with Adam
    # on its own cloud, saved with ``save_checkpoint``; the expected file
    # holds that network's inference-mode point logits and predictions.
    loaded = load_checkpoint(os.path.join(DATA, "toy_seed0.ckpt"))
    expected = load_tensors(os.path.join(DATA, "toy_seed0_expected.cylt"))
    network, cloud = _toy_setup(seed=0)
    assert loaded.config == network.config
    assert sorted(loaded.named_params()) == sorted(network.named_params())
    result = loaded.forward(cloud)
    np.testing.assert_array_equal(result.point_logits, expected["point_logits"])
    np.testing.assert_array_equal(loaded.predict(cloud), expected["predictions"])
