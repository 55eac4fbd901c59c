"""The float32 inference route: ``predict`` runs every layer in float32.

Each op computes in the dtype of its input features and casts its float64
parameters per call, so the same layers serve both routes. The op tests feed
float32 in and compare against the float64 result on the same (float32)
values; the network tests check that nothing on ``predict``'s route upcasts,
that every batch norm there is folded into the layer before it, and that its
argmax agrees with the float64 forward pass.
"""

import contextlib
import io
import os
import warnings

import numpy as np
import pytest

import cylseg.network as network_module
import cylseg.partition as partition
from cylseg.cli import _scan_loaders, main
from cylseg.config import load_config
from cylseg.network import (
    Affine,
    BatchNorm,
    Chain,
    Conv,
    RulebookCache,
    SegmentationNetwork,
    load_checkpoint,
    point_input_features,
)
from cylseg.partition import CylGridSpec, assign_cells, occupancy_by_distance, scatter_features
from cylseg.pointcloud import (
    PointCloud,
    SyntheticSceneSpec,
    generate_synthetic_scene,
    read_kitti_bin,
    read_raw_label_ids,
    write_kitti_bin,
)
from cylseg.selftest import random_sparse
from cylseg.sparse import (
    KernelSpec,
    SparseTensor,
    batch_norm_forward,
    build_rulebook,
    in_row_blocks,
    inverse_conv_forward,
    leaky_relu_forward,
    sigmoid_forward,
    sparse_conv_forward,
)

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
ROOT = os.path.dirname(os.path.dirname(DATA))

# float32 rounds to 2**-24 (6e-8) relative; a conv output sums at most a few
# hundred products here, so its error stays below ~1e-5 of the largest
# magnitude in the result
RTOL = 1e-5


def _close(out32, out64):
    assert out32.dtype == np.float32
    scale = max(float(np.abs(out64).max()), 1.0)
    np.testing.assert_allclose(out32, out64, rtol=RTOL, atol=RTOL * scale)


def _pair(rng, **kwargs):
    """A float32 sparse tensor and the same values in float64."""
    x = random_sparse(rng, **kwargs)
    x32 = x.with_features(x.features.astype(np.float32))
    return x32, x32.with_features(x32.features.astype(np.float64))


@pytest.mark.parametrize("kernel", [KernelSpec(3), KernelSpec((1, 3, 3)),
                                    KernelSpec(3, 2, "strided")])
def test_sparse_conv_forward_computes_in_float32(kernel):
    rng = np.random.default_rng(7)
    for _ in range(10):
        x32, x64 = _pair(rng)
        params = Conv(kernel, x32.num_channels, 5, rng)
        params.bias[:] = rng.standard_normal(5)
        rb = build_rulebook(x32, kernel)
        out32 = sparse_conv_forward(x32, params, rb)
        _close(out32.features, sparse_conv_forward(x64, params, rb).features)
        assert params.weights.dtype == np.float64


def test_inverse_conv_forward_computes_in_float32():
    rng = np.random.default_rng(8)
    kernel = KernelSpec(3, 2, "strided")
    for _ in range(10):
        x = random_sparse(rng)
        rb = build_rulebook(x, kernel)
        y64 = SparseTensor(rb.out_coords, rng.standard_normal((len(rb.out_coords), 4)),
                           rb.out_shape)
        y32 = y64.with_features(y64.features.astype(np.float32))
        y64 = y32.with_features(y32.features.astype(np.float64))
        params = Conv(kernel, 4, 3, rng)
        out32 = inverse_conv_forward(y32, params, rb)
        _close(out32.features, inverse_conv_forward(y64, params, rb).features)


def test_inference_batch_norm_computes_in_float32():
    rng = np.random.default_rng(9)
    norm = BatchNorm(6)
    norm.scale[:], norm.shift[:], norm.running_mean[:], norm.running_var[:] = (
        rng.uniform(0.5, 2, 6), rng.standard_normal(6),
        rng.standard_normal(6), rng.uniform(0.1, 3, 6))
    feats32 = (3 * rng.standard_normal((50, 6))).astype(np.float32)
    out32, ctx = batch_norm_forward(feats32, norm, training=False)
    out64, _ = batch_norm_forward(feats32.astype(np.float64), norm, training=False)
    _close(out32, out64)
    assert all(a.dtype == np.float32 for a in ctx[:3])
    assert norm.running_var.dtype == np.float64


def test_activations_compute_in_float32():
    rng = np.random.default_rng(10)
    feats32 = (4 * rng.standard_normal((40, 5))).astype(np.float32)
    feats64 = feats32.astype(np.float64)
    _close(leaky_relu_forward(feats32, 0.1)[0], leaky_relu_forward(feats64, 0.1)[0])
    _close(sigmoid_forward(feats32)[0], sigmoid_forward(feats64)[0])


def test_float32_sigmoid_saturates_without_overflow_warnings():
    # exp(-x) overflows float32 below x = -88.7 (float64 only below -709)
    feats = np.array([[-1000.0, -100.0, -88.8, 0.0, 100.0]], dtype=np.float32)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out, _ = sigmoid_forward(feats)
    assert out.dtype == np.float32
    np.testing.assert_array_equal(out[0, [0, 1, 3, 4]], [0.0, 0.0, 0.5, 1.0])
    assert 0.0 <= out[0, 2] < 1e-38


def test_scatter_features_keeps_float32():
    grid = CylGridSpec(rho_range=(0.0, 12.0), z_range=(-1.0, 6.0), resolution=(8, 8, 4))
    cloud = generate_synthetic_scene(SyntheticSceneSpec(seed=2, num_points=300, max_range=12.0))
    mapping = assign_cells(cloud, grid)
    feats32 = np.random.default_rng(11).standard_normal((cloud.n, 6)).astype(np.float32)
    out32 = scatter_features(feats32, mapping)
    out64 = scatter_features(feats32.astype(np.float64), mapping)
    assert out32.features.dtype == np.float32
    # a maximum of float32 values is one of them: exact
    np.testing.assert_array_equal(out32.features, out64.features)


def test_affine_computes_in_float32():
    rng = np.random.default_rng(12)
    layer = Affine(9, 7, rng)
    layer.bias[:] = rng.standard_normal(7)
    feats32 = rng.standard_normal((30, 9)).astype(np.float32)
    out32, _ = layer.forward(feats32, training=False)
    out64, _ = layer.forward(feats32.astype(np.float64), training=False)
    _close(out32, out64)
    assert layer.weight.dtype == np.float64


# ---------------------------------------------------------------- whole network

# kernels looked up as ``cylseg.network`` attributes on the forward route
_KERNELS = ("scatter_features", "sparse_conv_forward", "inverse_conv_forward",
            "batch_norm_forward", "leaky_relu_forward", "sigmoid_forward",
            "concat_features")


def _float_arrays(value):
    if isinstance(value, SparseTensor):
        yield value.features
    elif isinstance(value, np.ndarray) and value.dtype.kind == "f":
        yield value
    elif isinstance(value, tuple):
        for item in value:
            yield from _float_arrays(item)


def _watch_dtypes(monkeypatch):
    """Wrap every forward kernel and ``Affine.forward``; record the dtypes of
    the float arrays each call takes and returns, per kernel."""
    seen = {}

    def watch(name, fn):
        def wrapped(*args, **kwargs):
            result = fn(*args, **kwargs)
            arrays = list(_float_arrays(args)) + list(_float_arrays(result))
            seen.setdefault(name, set()).update(a.dtype for a in arrays)
            return result
        return wrapped

    for name in _KERNELS:
        monkeypatch.setattr(network_module, name, watch(name, getattr(network_module, name)))
    monkeypatch.setattr(Affine, "forward", watch("Affine.forward", Affine.forward))
    return seen


def _check_predict(net, clouds, monkeypatch):
    """``predict`` keeps every intermediate float32, runs no batch norm (each
    is folded into the layer before it), warns about nothing and agrees with
    the float64 forward; returns the agreeing point share."""
    agree = total = 0
    for cloud in clouds:
        result = net.forward(cloud)
        assert result.point_logits.dtype == np.float64
        with monkeypatch.context() as patch:
            seen = _watch_dtypes(patch)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                pred = net.predict(cloud)
        assert "batch_norm_forward" not in seen
        assert set(seen) == {*_KERNELS, "Affine.forward"} - {"batch_norm_forward"}
        assert all(dtypes == {np.dtype(np.float32)} for dtypes in seen.values()), seen
        agree += int((pred == result.point_logits.argmax(axis=1)).sum())
        total += cloud.n
    return agree / total


def test_toy_predict_is_float32_and_agrees_with_float64(monkeypatch):
    # the pinned checkpoint (trained 20 steps) on the toy config's validation
    # scenes: 4 x 16,384 points
    net = load_checkpoint(os.path.join(DATA, "toy_seed0.ckpt"))
    cfg = load_config(os.path.join(ROOT, "configs", "toy_train.cfg"))
    clouds = [load() for _, load in _scan_loaders(cfg, "val")]
    assert _check_predict(net, clouds, monkeypatch) >= 0.999


def test_full_config_predict_is_float32_and_agrees_with_float64(monkeypatch):
    cfg = load_config(os.path.join(ROOT, "configs", "semantic_kitti.cfg"))
    net = SegmentationNetwork(cfg.network, seed=0)
    cloud = generate_synthetic_scene(
        SyntheticSceneSpec(seed=3, num_points=20_000, max_range=50.0))
    assert _check_predict(net, [cloud], monkeypatch) >= 0.999


# ---------------------------------------------------------- point row blocks


def _point_block_counts(monkeypatch):
    """The block count of every point chain that runs on ``predict``'s route:
    how many blocks the row-block runner hands its work."""
    counts = []

    def counted(rows, macs, work):
        spans = []
        in_row_blocks(rows, macs, lambda lo, hi: spans.append(lo) or work(lo, hi))
        counts.append(len(spans))

    monkeypatch.setattr(network_module, "in_row_blocks", counted)
    return counts


def _whole(monkeypatch):
    """Point chains run as one block, whatever their size."""
    monkeypatch.setattr(network_module, "in_row_blocks", lambda rows, macs, work: work(0, rows))


def _float32_point_logits(net, cloud):
    return net.forward(cloud, _dtype=np.float32).point_logits


def test_point_layers_split_into_row_blocks_with_the_bytes_of_one_block(monkeypatch):
    # the full-scale point MLP (9 -> 64 -> 128 -> 32) and refine head
    # (51 -> 38 -> 19): 8 and 4 blocks at 120k rows, 4 and 1 at 30k
    cfg = load_config(os.path.join(ROOT, "configs", "semantic_kitti.cfg"))
    net = SegmentationNetwork(cfg.network, seed=0)
    _randomise_norms(net, np.random.default_rng(17))
    rng = np.random.default_rng(18)
    for chain, width in ((net.point_mlp, 9), (net.refine, 51)):
        feats = rng.standard_normal((120_000, width)).astype(np.float32)
        with monkeypatch.context() as patch:
            counts = _point_block_counts(patch)
            split, _ = chain.forward(feats, training=False)
        with monkeypatch.context() as patch:
            _whole(patch)
            whole, _ = chain.forward(feats, training=False)
        assert counts == [8 if chain is net.point_mlp else 4]
        assert split.dtype == np.float32 and split.tobytes() == whole.tobytes()

    cloud = generate_synthetic_scene(SyntheticSceneSpec(seed=4, num_points=30_000, max_range=50.0))
    counts = _point_block_counts(monkeypatch)
    split = _float32_point_logits(net, cloud)
    assert counts == [4, 1]
    _whole(monkeypatch)
    assert split.tobytes() == _float32_point_logits(net, cloud).tobytes()


def test_toy_predict_runs_its_point_layers_whole(monkeypatch):
    net = load_checkpoint(os.path.join(DATA, "toy_seed0.ckpt"))
    cfg = load_config(os.path.join(ROOT, "configs", "toy_train.cfg"))
    counts = _point_block_counts(monkeypatch)
    for _, load in _scan_loaders(cfg, "val"):
        net.predict(load())
    assert counts == [1, 1] * 4


# ------------------------------------------------------------ batch-norm fold


def _randomise_norms(module, rng):
    """Non-trivial batch norms: a seed-0 network's are nearly the identity."""
    draws = {
        "scale": lambda shape: rng.uniform(0.5, 2.0, shape),
        "shift": lambda shape: rng.normal(0.0, 0.5, shape),
        "running_mean": lambda shape: rng.normal(0.0, 0.5, shape),
        "running_var": lambda shape: rng.uniform(0.2, 3.0, shape),
    }
    for name, arr in {**module.named_params(), **module.named_state()}.items():
        draw = draws.get(name.rpartition(".")[2])
        if draw is not None:
            arr[...] = draw(arr.shape)


def _random_norm(rng, channels):
    norm = BatchNorm(channels)
    _randomise_norms(norm, rng)
    return norm


def test_fold_matches_the_unfolded_conv_and_affine_in_float64():
    rng = np.random.default_rng(14)
    kernel = KernelSpec((1, 3, 3))
    for _ in range(5):
        x = random_sparse(rng)
        conv = Conv(kernel, x.num_channels, 5, rng)
        conv.bias[:] = rng.standard_normal(5)
        norm = _random_norm(rng, 5)
        cache = RulebookCache()
        y, _ = conv.forward(x, cache, training=False)
        unfolded, _ = norm.forward(y.features, training=False)
        out = norm.fold(conv, np.float64).forward(x, cache, training=False)[0].features
        np.testing.assert_allclose(out, unfolded, rtol=0, atol=1e-10)

    affine = Affine(9, 7, rng)
    affine.bias[:] = rng.standard_normal(7)
    norm = _random_norm(rng, 7)
    feats = 3 * rng.standard_normal((40, 9))
    unfolded, _ = norm.forward(affine.forward(feats, training=False)[0], training=False)
    folded = norm.fold(affine, np.float64)
    np.testing.assert_allclose(feats @ folded.weight + folded.bias, unfolded, rtol=0, atol=1e-10)


@pytest.mark.parametrize("kind", ["conv", "affine"])
def test_fold_makes_a_float32_copy_and_leaves_the_layer_untouched(kind):
    rng = np.random.default_rng(19)
    layer = Conv(KernelSpec(3), 4, 5, rng) if kind == "conv" else Affine(4, 5, rng)
    layer.bias[:] = rng.standard_normal(5)
    for grad in layer.grads.values():
        grad[...] = rng.standard_normal(grad.shape)
    norm = _random_norm(rng, 5)

    def tensors():
        return {**layer.params, **{f"grad {k}": v for k, v in layer.grads.items()}}

    arrays = tensors()
    before = {name: (arr.dtype, arr.tobytes()) for name, arr in arrays.items()}

    folded = norm.fold(layer, np.float32)
    wide = norm.fold(layer, np.float64)
    assert type(folded) is type(layer) and folded is not layer
    for name, arr in layer.params.items():
        out = getattr(folded, name)
        assert out.dtype == np.float32 and out.shape == arr.shape
        assert out.tobytes() == getattr(wide, name).astype(np.float32).tobytes()  # one rounding
        assert getattr(layer, name) is arr
    assert all(tensors()[name] is arr for name, arr in arrays.items())
    assert {name: (arr.dtype, arr.tobytes()) for name, arr in tensors().items()} == before


def test_float32_conv_and_affine_fold_their_norm_and_keep_no_context(monkeypatch):
    rng = np.random.default_rng(15)
    kernel = KernelSpec(3)
    x32, x64 = _pair(rng)
    conv = Chain(None, [("conv", Conv(kernel, x32.num_channels, 5, rng), "norm", False)])
    affine = Chain(None, [("affine", Affine(x32.num_channels, 5, rng), "norm", False)])
    _randomise_norms(conv, rng)
    _randomise_norms(affine, rng)
    cache = RulebookCache()
    expected = {
        "conv": conv.forward(x64, cache, training=False)[0].features,
        "affine": affine.forward(x64.features, training=False)[0],
    }

    def no_norm(*args, **kwargs):
        raise AssertionError("batch_norm_forward ran on the float32 route")

    monkeypatch.setattr(network_module, "batch_norm_forward", no_norm)
    out, ctx = conv.forward(x32, cache, training=False)
    assert ctx is None
    _close(out.features, expected["conv"])
    out, ctx = affine.forward(x32.features, training=False)
    assert ctx is None
    _close(out, expected["affine"])


def _toy_net():
    cfg = load_config(os.path.join(ROOT, "configs", "toy_train.cfg"))
    clouds = [load() for _, load in _scan_loaders(cfg, "val")]
    return SegmentationNetwork(cfg.network, seed=0), clouds


def _full_net():
    cfg = load_config(os.path.join(ROOT, "configs", "semantic_kitti.cfg"))
    cloud = generate_synthetic_scene(
        SyntheticSceneSpec(seed=5, num_points=20_000, max_range=50.0))
    return SegmentationNetwork(cfg.network, seed=0), [cloud]


@pytest.mark.parametrize("make", [_toy_net, _full_net], ids=["toy", "full"])
def test_folded_predict_agrees_with_float64_under_random_norms(make, monkeypatch):
    net, clouds = make()
    _randomise_norms(net, np.random.default_rng(16))
    assert _check_predict(net, clouds, monkeypatch) >= 0.999


def test_predict_leaves_parameters_state_and_gradients_untouched():
    # ``train`` validates through ``predict`` between epochs, with live Adam
    # state and gradient buffers
    net = load_checkpoint(os.path.join(DATA, "toy_seed0.ckpt"))
    cfg = load_config(os.path.join(ROOT, "configs", "toy_train.cfg"))
    cloud = _scan_loaders(cfg, "val")[0][1]()
    rng = np.random.default_rng(17)
    result = net.forward(cloud, training=True)
    net.backward(result, rng.standard_normal(result.voxel_logits.features.shape),
                 rng.standard_normal(result.point_logits.shape))

    def snapshot():
        tensors = {**net.named_params(), **net.named_state(),
                   **{f"grad {k}": v for k, v in net.named_grads().items()}}
        return {name: (arr.dtype, arr.shape, arr.tobytes()) for name, arr in tensors.items()}

    before = snapshot()
    assert any(np.any(g) for g in net.named_grads().values())
    net.predict(cloud)
    assert snapshot() == before


def _far_point_cloud():
    # x = y = 3e38 is a finite float32 and so a valid .bin value, but the
    # point's radius, 4.2e38, overflows float32
    xyz = np.array([[3e38, 3e38, 0.0], [1.0, 1.0, 0.0], [-2.0, 3.0, 1.0], [4.0, -1.0, 0.5]])
    return PointCloud(xyz, np.zeros(4))


def test_predict_falls_back_to_float64_when_float32_overflows():
    net = load_checkpoint(os.path.join(DATA, "toy_seed0.ckpt"))
    cloud = _far_point_cloud()
    logits = net.forward(cloud).point_logits
    assert np.isfinite(logits).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pred = net.predict(cloud)
    np.testing.assert_array_equal(pred, logits.argmax(axis=1))


def test_infer_on_a_scan_that_overflows_float32_is_clean(tmp_path):
    net = load_checkpoint(os.path.join(DATA, "toy_seed0.ckpt"))
    cloud = _far_point_cloud()
    scans = tmp_path / "scans"
    scans.mkdir()
    write_kitti_bin(scans / "000000.bin", cloud)
    cfg = tmp_path / "files.cfg"  # the checkpoint's [grid] and [network]
    cfg.write_text(
        "[grid]\nrho_min = 0\nrho_max = 12\nz_min = -1\nz_max = 6\n"
        "radius_bins = 8\nazimuth_bins = 8\nheight_bins = 4\n"
        "[network]\nnum_classes = 3\nbase_channels = 4\nstages = 2\n"
        "block_variant = asym\npoint_mlp_widths = 8\n"
        f"[data]\nkind = files\nscans = {scans}\n"
    )
    out = tmp_path / "preds"
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(
        err
    ), contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        code = main(["infer", "--config", str(cfg), "--checkpoint",
                     os.path.join(DATA, "toy_seed0.ckpt"), "--output", str(out)])
    assert code == 0
    assert err.getvalue() == "" and not [str(w.message) for w in caught]
    expected = net.forward(read_kitti_bin(scans / "000000.bin")).point_logits.argmax(axis=1)
    np.testing.assert_array_equal(read_raw_label_ids(out / "000000.label"), expected)


# ------------------------------------------------------- scans read in float32


def test_a_scan_read_in_float32_gives_the_bytes_of_its_float64_copy(tmp_path):
    # widening float32 to float64 is exact, and everything that computes on
    # positions or intensities widens first
    net = load_checkpoint(os.path.join(DATA, "toy_seed0.ckpt"))
    scene = generate_synthetic_scene(SyntheticSceneSpec(
        seed=21, num_points=4096, max_range=12.0, pole_count=6, box_count=4, inner_radius=1.0))
    write_kitti_bin(tmp_path / "scan.bin", scene)
    read = read_kitti_bin(tmp_path / "scan.bin")
    assert read.xyz.dtype == read.intensity.dtype == np.float32
    wide = PointCloud(read.xyz.astype(np.float64), read.intensity.astype(np.float64))
    assert wide.xyz.dtype == wide.intensity.dtype == np.float64
    for grid in (net.config.grid, CylGridSpec()):
        got, expected = assign_cells(read, grid), assign_cells(wide, grid)
        np.testing.assert_array_equal(got.cells, expected.cells)
        np.testing.assert_array_equal(got.point_site, expected.point_site)
        np.testing.assert_array_equal(
            point_input_features(read.xyz, read.intensity, got, grid),
            point_input_features(wide.xyz, wide.intensity, expected, grid),
        )
    assert occupancy_by_distance([read, read]) == occupancy_by_distance([wide, wide])
    np.testing.assert_array_equal(net.predict(read), net.predict(wide))


def test_a_forward_widens_a_float32_scan_once(monkeypatch):
    # assign_cells and the point features take the same float64 positions,
    # so no float32 array reaches the cylindrical coordinates
    net = load_checkpoint(os.path.join(DATA, "toy_seed0.ckpt"))
    scene = generate_synthetic_scene(SyntheticSceneSpec(seed=22, num_points=2048, max_range=12.0))
    cloud = PointCloud(scene.xyz.astype(np.float32), scene.intensity.astype(np.float32))
    seen = []
    cyl_columns = partition._cyl_columns

    def spy(xyz):
        seen.append(np.asarray(xyz).dtype)
        return cyl_columns(xyz)

    monkeypatch.setattr(partition, "_cyl_columns", spy)
    net.forward(cloud)
    assert seen == [np.float64, np.float64]  # the grid's bins, the point features
