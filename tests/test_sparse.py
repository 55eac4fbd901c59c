import io
import math
import struct
from itertools import product

import numpy as np
import pytest

from cylseg.network import BatchNorm, Conv
from cylseg.partition import CylGridSpec, assign_cells, scatter_features
from cylseg.selftest import NETWORK_KERNELS, conv_oracle_error, random_sparse
from cylseg.sparse import (
    MAX_CELLS,
    KernelSpec,
    NORM_EPS,
    NORM_MOMENTUM,
    SparseTensor,
    batch_norm_backward,
    batch_norm_forward,
    build_rulebook,
    column_means,
    column_sums,
    concat_features,
    dense_conv_oracle,
    densify,
    inverse_conv_backward,
    inverse_conv_forward,
    key_coords,
    leaky_relu_backward,
    leaky_relu_forward,
    read_tensors,
    sigmoid_forward,
    sparse_conv_backward,
    sparse_conv_forward,
    write_tensors,
)
from cylseg.training import finite_diff_check
from helpers import traced_memory


def _tensor(coords, feats, shape):
    return SparseTensor(
        np.asarray(coords, dtype=np.int64), np.asarray(feats, dtype=np.float64), shape
    )


def _sites(coords, shape):
    """A tensor of no channels on the sites ``coords``."""
    return _tensor(coords, np.zeros((len(coords), 0)), shape)


def _offsets(size):
    return list(product(*[range(-(k // 2), k // 2 + 1) for k in size]))


# ----------------------------------------------------------------- kernel spec


def test_kernel_spec_rejects_even_size():
    with pytest.raises(ValueError):
        KernelSpec((2, 3, 3))


def test_kernel_spec_rejects_unknown_mode():
    with pytest.raises(ValueError):
        KernelSpec((3, 3, 3), (1, 1, 1), "dilated")


def test_kernel_spec_submanifold_must_have_unit_stride():
    with pytest.raises(ValueError):
        KernelSpec((3, 3, 3), (2, 2, 2), "submanifold")


def test_kernel_offsets_are_centered_and_c_ordered():
    spec = KernelSpec((3, 1, 3))
    assert [tuple(o) for o in spec.offsets()] == _offsets((3, 1, 3))
    assert spec.volume == 9


# -------------------------------------------------------------------- rulebook


def test_rulebook_isolated_site_has_only_center_pair():
    coords = np.array([[1, 1, 1]], dtype=np.int64)
    rb = build_rulebook(_sites(coords, (3, 3, 3)), KernelSpec((3, 3, 3)))
    np.testing.assert_array_equal(rb.out_coords, coords)
    for k, (src, dst) in enumerate(rb.pairs):
        if k == 13:  # the (0,0,0) offset in C-order
            assert src.tolist() == [0] and dst.tolist() == [0]
        else:
            assert len(src) == 0


def test_rulebook_radius_neighbors_hand_enumerated():
    # sites (0,0,0) and (1,0,0) under a (3,1,3) kernel: the center offset
    # pairs each site with itself and the +-1 radius offsets cross-link them
    coords = np.array([[0, 0, 0], [1, 0, 0]], dtype=np.int64)
    rb = build_rulebook(_sites(coords, (2, 1, 2)), KernelSpec((3, 1, 3)))
    offsets = _offsets((3, 1, 3))
    expected = {
        offsets.index((-1, 0, 0)): [(1, 0)],
        offsets.index((0, 0, 0)): [(0, 0), (1, 1)],
        offsets.index((1, 0, 0)): [(0, 1)],
    }
    for k, (src, dst) in enumerate(rb.pairs):
        assert sorted(zip(src.tolist(), dst.tolist())) == expected.get(k, [])


def test_rulebook_strided_output_sites_brute_force():
    rng = np.random.default_rng(21)
    kernel = KernelSpec((3, 3, 3), (2, 2, 2), "strided")
    for _ in range(25):
        x = random_sparse(rng)
        rb = build_rulebook(x, kernel)
        out_shape = tuple(-(-s // 2) for s in x.spatial_shape)
        assert rb.out_shape == out_shape
        sites = {tuple(c) for c in x.coords}
        expected = set()
        for c in product(*[range(s) for s in out_shape]):
            for o in _offsets((3, 3, 3)):
                if (2 * c[0] + o[0], 2 * c[1] + o[1], 2 * c[2] + o[2]) in sites:
                    expected.add(c)
                    break
        assert {tuple(c) for c in rb.out_coords} == expected


# ---------------------------------------------------------------- convolution


def _conv_holding(kernel, weights):
    """A ``Conv`` holding a copy of ``weights`` and a zero bias. It is drawn
    from a throwaway generator, so the test's own draws do not shift."""
    conv = Conv(kernel, *weights.shape[1:], np.random.default_rng())
    conv.weights[...] = weights
    return conv


def test_conv_identity_kernel_passes_features_through():
    x = _tensor([[0, 0, 0], [2, 1, 0]], [[1.0, 2.0], [3.0, 4.0]], (3, 2, 1))
    kernel = KernelSpec((1, 1, 1))
    rb = build_rulebook(x, kernel)
    params = _conv_holding(kernel, np.eye(2)[None, :, :])
    out = sparse_conv_forward(x, params, rb)
    np.testing.assert_array_equal(out.features, x.features)
    assert out.coords is rb.out_coords


def test_conv_empty_input_gives_empty_output():
    x = _tensor(np.zeros((0, 3)), np.zeros((0, 2)), (4, 4, 4))
    kernel = KernelSpec((3, 3, 3))
    rb = build_rulebook(x, kernel)
    params = Conv(kernel, 2, 3, np.random.default_rng(0))
    out = sparse_conv_forward(x, params, rb)
    assert out.features.shape == (0, 3)


def test_conv_matches_dense_oracle_all_kernel_shapes():
    rng = np.random.default_rng(22)
    for kernel in NETWORK_KERNELS:
        for _ in range(5):
            x = random_sparse(rng, max_shape=(9, 9, 9))
            params = Conv(kernel, x.features.shape[1], 3, rng)
            assert conv_oracle_error(x, kernel, params) < 1e-10


def test_conv_is_permutation_invariant():
    # a site set has one order, ascending flat keys, so the points of a scan
    # in any order give the same sites and the same conv bytes; sites handed
    # over in another order are rejected
    grid = CylGridSpec(rho_range=(0.0, 8.0), z_range=(-2.0, 2.0), resolution=(8, 8, 8))
    rng = np.random.default_rng(23)
    xyz = rng.uniform(-6, 6, size=(400, 3))
    feats = rng.standard_normal((400, 3))
    kernel = KernelSpec((3, 3, 3))
    params = Conv(kernel, 3, 2, rng)

    def conv(order):
        x = scatter_features(feats[order], assign_cells(xyz[order], grid))
        return x, sparse_conv_forward(x, params, build_rulebook(x, kernel))

    x, out = conv(np.arange(400))
    xp, outp = conv(rng.permutation(400))
    np.testing.assert_array_equal(xp.coords, x.coords)
    assert outp.features.tobytes() == out.features.tobytes()

    _rejects_out_of_order(x, rng.permutation(x.num_sites))


@pytest.mark.parametrize("name, value", [
    ("weights", np.zeros((27, 2))),
    ("weights", np.zeros((27, 3, 2))),
    ("weights", np.zeros((9, 2, 2))),
    ("bias", np.zeros(3)),
    ("bias", np.zeros((2, 1))),
    ("bias", np.zeros(1)),
], ids=["2-D weights", "C_in 3", "volume 9", "bias (3,)", "bias (2, 1)", "bias (1,)"])
def test_conv_refuses_weights_or_bias_of_another_shape(name, value):
    # a (1,) or a (2, 1) bias broadcast over the two output rows and
    # returned outputs; the others failed, each with a message of its own
    x = _tensor([[0, 0, 0], [1, 1, 1]], [[1.0, 2.0], [3.0, 4.0]], (3, 3, 3))
    kernel = KernelSpec((3, 3, 3))
    rb = build_rulebook(x, kernel)
    conv = Conv(kernel, 2, 2, np.random.default_rng(0))
    assert sparse_conv_forward(x, conv, rb).features.shape == (2, 2)
    setattr(conv, name, value)
    with pytest.raises(ValueError, match=r"^conv weights \(.*\) and bias \(.*\) must be "
                                         r"\(kernel volume 27, C_in 2, C_out\) and \(C_out,\)$"):
        sparse_conv_forward(x, conv, rb)


def test_conv_backward_zero_grad_gives_zero():
    rng = np.random.default_rng(24)
    x = random_sparse(rng, max_shape=(6, 6, 6))
    kernel = KernelSpec((3, 3, 3))
    params = Conv(kernel, x.features.shape[1], 2, rng)
    rb = build_rulebook(x, kernel)
    gin, gw, gb = sparse_conv_backward(x, params, rb, np.zeros((len(x.coords), 2)))
    assert not gin.any() and not gw.any() and not gb.any()


def test_conv_backward_identity_layer():
    x = _tensor([[1, 1, 1]], [[2.0, -3.0]], (3, 3, 3))
    kernel = KernelSpec((1, 1, 1))
    rb = build_rulebook(x, kernel)
    params = _conv_holding(kernel, np.eye(2)[None, :, :])
    grad = np.array([[0.5, 1.5]])
    gin, _, gb = sparse_conv_backward(x, params, rb, grad)
    np.testing.assert_array_equal(gin, grad)
    np.testing.assert_array_equal(gb, grad[0])


def test_conv_backward_matches_finite_differences():
    rng = np.random.default_rng(25)
    x = random_sparse(rng, max_shape=(5, 5, 5), max_channels=3, max_sites=10)
    kernel = KernelSpec((3, 1, 3))
    c_in = x.features.shape[1]
    params = Conv(kernel, c_in, 2, rng)
    rb = build_rulebook(x, kernel)
    probe = rng.standard_normal((len(rb.out_coords), 2))

    def objective():
        return float((sparse_conv_forward(x, params, rb).features * probe).sum())

    gin, gw, gb = sparse_conv_backward(x, params, rb, probe)
    err = finite_diff_check(
        objective,
        {"x": x.features, "w": params.weights, "b": params.bias},
        {"x": gin, "w": gw, "b": gb},
    )
    assert err < 1e-6


# ---------------------------------------------------------------- inverse conv


def test_inverse_conv_restores_input_coordinates():
    rng = np.random.default_rng(26)
    x = random_sparse(rng, max_shape=(10, 10, 10))
    kernel = KernelSpec((3, 3, 3), (2, 2, 2), "strided")
    rb = build_rulebook(x, kernel)
    c = x.features.shape[1]
    down = sparse_conv_forward(x, Conv(kernel, c, 2, rng), rb)
    up = inverse_conv_forward(down, Conv(kernel, 2, c, rng), rb)
    assert up.coords is rb.in_coords
    assert up.spatial_shape == x.spatial_shape


def test_inverse_conv_is_adjoint_of_forward():
    # <u, conv(x)> must equal <inverse_with_transposed_weights(u), x>
    rng = np.random.default_rng(27)
    x = random_sparse(rng, max_shape=(8, 8, 8), max_channels=3)
    kernel = KernelSpec((3, 3, 3), (2, 2, 2), "strided")
    rb = build_rulebook(x, kernel)
    c_in = x.features.shape[1]
    w = rng.standard_normal((kernel.volume, c_in, 2))
    u = rng.standard_normal((len(rb.out_coords), 2))

    fwd = sparse_conv_forward(x, _conv_holding(kernel, w), rb)
    back = inverse_conv_forward(
        SparseTensor(rb.out_coords, u, rb.out_shape),
        _conv_holding(kernel, w.transpose(0, 2, 1)),
        rb,
    )
    lhs = float((u * fwd.features).sum())
    rhs = float((back.features * x.features).sum())
    assert abs(lhs - rhs) < 1e-9


def test_transposed_rulebook_swaps_sides_and_round_trips():
    rng = np.random.default_rng(29)
    x = random_sparse(rng, max_shape=(8, 8, 8))
    for kernel in (KernelSpec((3, 3, 3), (2, 2, 2), "strided"), KernelSpec((1, 3, 3))):
        rb = build_rulebook(x, kernel)
        t = rb.transposed()
        assert t.in_coords is rb.out_coords and t.out_coords is rb.in_coords
        assert (t.in_shape, t.out_shape) == (rb.out_shape, rb.in_shape)
        twice = rb.transposed().transposed()
        assert twice.kernel == rb.kernel and len(twice.pairs) == len(rb.pairs)
        for (a_in, a_out), (b_in, b_out) in zip(twice.pairs, rb.pairs):
            np.testing.assert_array_equal(a_in, b_in)
            np.testing.assert_array_equal(a_out, b_out)


def _mirrored_inverse_conv(u, params, rb, grad):
    # reference: the stored rulebook's pairs walked from output to input
    out = np.empty((len(rb.in_coords), params.weights.shape[2]))
    out[:] = params.bias
    grad_in = np.zeros_like(u.features)
    grad_w = np.zeros_like(params.weights)
    for k, (in_idx, out_idx) in enumerate(rb.pairs):
        if in_idx.size:
            out[in_idx] += u.features[out_idx] @ params.weights[k]
            grad_w[k] = u.features[out_idx].T @ grad[in_idx]
            grad_in[out_idx] += grad[in_idx] @ params.weights[k].T
    return out, (grad_in, grad_w, grad.sum(axis=0))


def test_inverse_conv_is_forward_over_transposed_rulebook_bitwise():
    rng = np.random.default_rng(30)
    kernel = KernelSpec((3, 3, 3), (2, 2, 2), "strided")
    for _ in range(5):
        x = random_sparse(rng, max_shape=(10, 10, 10), max_channels=5)
        rb = build_rulebook(x, kernel)
        u = SparseTensor(rb.out_coords, rng.standard_normal((len(rb.out_coords), 3)), rb.out_shape)
        params = Conv(kernel, 3, 4, rng)
        params.bias[:] = rng.standard_normal(4)
        grad = rng.standard_normal((len(rb.in_coords), 4))
        got = inverse_conv_forward(u, params, rb)
        got_grads = inverse_conv_backward(u, params, rb, grad)
        ref_out, ref_grads = _mirrored_inverse_conv(u, params, rb, grad)
        assert got.coords is rb.in_coords
        np.testing.assert_array_equal(got.features, ref_out)
        np.testing.assert_array_equal(
            got.features, sparse_conv_forward(u, params, rb.transposed()).features
        )
        for g, r, t in zip(
            got_grads, ref_grads, sparse_conv_backward(u, params, rb.transposed(), grad)
        ):
            np.testing.assert_array_equal(g, r)
            np.testing.assert_array_equal(g, t)


# ------------------------------------------- shared index path vs the old one


def _old_build_rulebook(in_coords, in_shape, kernel):
    # reference: the per-kernel build that searched every offset afresh and
    # took strided output sites from np.unique over coordinate rows
    offsets = kernel.offsets()
    m = in_coords.shape[0]
    flat = lambda c, s: (c[:, 0] * s[1] + c[:, 1]) * s[2] + c[:, 2]
    if kernel.mode == "submanifold":
        keys = flat(in_coords, in_shape)
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
            tkeys = flat(target[src], in_shape)
            pos_c = np.minimum(np.searchsorted(sorted_keys, tkeys), m - 1)
            found = sorted_keys[pos_c] == tkeys
            in_idx, out_idx = src[found], order[pos_c[found]]
            perm = np.argsort(out_idx, kind="stable")
            pairs.append((in_idx[perm], out_idx[perm]))
        return in_coords, tuple(in_shape), pairs
    stride = np.array(kernel.stride, dtype=np.int64)
    out_shape = tuple(int(-(-s // st)) for s, st in zip(in_shape, kernel.stride))
    candidates, per_offset = [], []
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
    out_keys = flat(out_coords, out_shape)
    pairs = []
    for src, down in per_offset:
        if src.size == 0:
            pairs.append((src, src.copy()))
            continue
        out_idx = np.searchsorted(out_keys, flat(down, out_shape))
        perm = np.argsort(out_idx, kind="stable")
        pairs.append((src[perm], out_idx[perm]))
    return out_coords, out_shape, pairs


def _assert_same_rulebook(rb, reference):
    out_coords, out_shape, pairs = reference
    np.testing.assert_array_equal(rb.out_coords, out_coords)
    assert rb.out_coords.dtype == out_coords.dtype and rb.out_shape == out_shape
    assert len(rb.pairs) == len(pairs)
    for (got_in, got_out), (ref_in, ref_out) in zip(rb.pairs, pairs):
        np.testing.assert_array_equal(got_in, ref_in)
        np.testing.assert_array_equal(got_out, ref_out)
        assert got_in.dtype == ref_in.dtype and got_out.dtype == ref_out.dtype


def _rejects_out_of_order(x, perm):
    """``x``'s sites in the order ``perm`` are refused, unless it is theirs."""
    if (perm != np.arange(x.num_sites)).any():
        with pytest.raises(ValueError, match="duplicate sites or out of order"):
            SparseTensor(x.coords[perm], x.features[perm], x.spatial_shape)


def _edge_site_sets(rng):
    """No site, one site, every cell on the six faces of a grid, and 20 sites
    on a 2^26-cell grid: five around each of its first cell, the cell before
    its last and two random cells."""
    yield _tensor(np.zeros((0, 3)), np.zeros((0, 2)), (4, 5, 6))
    yield _tensor([[2, 0, 3]], rng.standard_normal((1, 2)), (3, 1, 7))
    shape = (5, 6, 7)
    cells = key_coords(np.arange(math.prod(shape)), shape)
    faces = cells[((cells == 0) | (cells == np.array(shape) - 1)).any(axis=1)]
    yield _tensor(faces, rng.standard_normal((len(faces), 2)), shape)
    shape = (1 << 10, 1 << 8, 1 << 8)
    anchors = [[0, 0, 0], [s - 2 for s in shape]]
    anchors += [[int(rng.integers(0, s - 1)) for s in shape] for _ in range(2)]
    steps = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]])
    keys = np.unique(np.ravel_multi_index((np.array(anchors)[:, None] + steps).reshape(-1, 3).T,
                                          shape))
    assert math.prod(shape) == 1 << 26 and len(keys) == 20
    yield _tensor(key_coords(keys, shape), rng.standard_normal((20, 2)), shape)


def _site_sets(seed, count=12):
    """Random site sets from sparse to dense, then the four edge sets, each in
    ascending key order; each shuffled is rejected."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        x = random_sparse(rng, max_shape=(9, 9, 9), max_channels=3, max_sites=10 + 60 * i)
        yield x
        _rejects_out_of_order(x, rng.permutation(x.num_sites))
    for x in _edge_site_sets(rng):
        yield x
        _rejects_out_of_order(x, rng.permutation(x.num_sites))


def test_cached_rulebooks_equal_the_reference_per_kernel_builds():
    from cylseg.network import RulebookCache

    for x in _site_sets(60):
        cache = RulebookCache()
        for kernel in NETWORK_KERNELS:
            reference = _old_build_rulebook(x.coords, x.spatial_shape, kernel)
            _assert_same_rulebook(cache.get(x, kernel), reference)
            rb = build_rulebook(x, kernel)
            _assert_same_rulebook(rb, reference)
            if kernel.mode == "submanifold":
                in_idx, out_idx = rb.pairs[rb.identity_offset]
                assert in_idx is out_idx
                np.testing.assert_array_equal(in_idx, np.arange(x.num_sites))


def test_strided_out_coords_equal_unique_rows_of_the_candidates():
    kernels = [
        KernelSpec((3, 3, 3), (2, 2, 2), "strided"),
        KernelSpec((3, 3, 3), (2, 1, 2), "strided"),
        KernelSpec((1, 3, 1), (2, 2, 1), "strided"),
    ]
    for x in _site_sets(62):
        for kernel in kernels:
            stride = np.array(kernel.stride)
            out_shape = -(-np.array(x.spatial_shape) // stride)
            candidates = []
            for d in kernel.offsets():
                target = x.coords + d
                ok = (target >= 0).all(axis=1) & (target % stride == 0).all(axis=1)
                ok &= (target // stride < out_shape).all(axis=1)
                candidates.append(target[ok] // stride)
            rb = build_rulebook(x, kernel)
            expected = np.unique(np.vstack(candidates), axis=0)
            np.testing.assert_array_equal(rb.out_coords, expected)
            _assert_same_rulebook(rb, _old_build_rulebook(x.coords, x.spatial_shape, kernel))


@pytest.mark.parametrize("shape", [(1, 1, 1), (5, 7, 3), (3, 1, 9), (9, 5, 1)])
def test_strided_builds_on_odd_shapes_reach_the_last_output_cell(shape):
    # the output-cell table covers exactly ceil(shape / stride) cells, and the
    # input's last cell (even on every odd axis) feeds the last of them
    rng = np.random.default_rng(sum(shape))
    total = math.prod(shape)
    flat = np.union1d(rng.choice(total, size=min(total, 6), replace=False), [0, total - 1])
    coords = np.stack(np.unravel_index(flat, shape), axis=1).astype(np.int64)
    kernels = [
        KernelSpec((3, 3, 3), (2, 2, 2), "strided"),
        KernelSpec((3, 1, 3), (2, 1, 2), "strided"),
        KernelSpec((1, 1, 1), (2, 2, 2), "strided"),
    ]
    for kernel in kernels:
        rb = build_rulebook(_sites(coords, shape), kernel)
        _assert_same_rulebook(rb, _old_build_rulebook(coords, shape, kernel))
        assert rb.out_coords[-1].tolist() == [s - 1 for s in rb.out_shape]
    perm = rng.permutation(len(coords))
    if (perm != np.arange(len(coords))).any():
        with pytest.raises(ValueError, match="duplicate sites or out of order"):
            _sites(coords[perm], shape)


# size-5 kernels, and strides of 2 on some axes only: a size-5 offset of -2
# moves an output cell back by one, and a unit-stride axis shifts by d itself
WIDE_KERNELS = [
    KernelSpec(5),
    KernelSpec((5, 3, 1)),
    KernelSpec((1, 5, 3)),
    KernelSpec(5, (2, 1, 2), "strided"),
    KernelSpec(5, (1, 2, 1), "strided"),
    KernelSpec((5, 3, 5), (2, 1, 2), "strided"),
    KernelSpec((3, 5, 1), (1, 2, 1), "strided"),
    KernelSpec(5, 2, "strided"),
]


@pytest.mark.parametrize("shape", [(9, 7, 5), (8, 6, 10), (1, 1, 1), (2, 2, 2), (6, 1, 7)])
def test_wide_and_mixed_stride_builds_equal_the_reference(shape):
    # odd and even extents; single sites at the first, the middle and the
    # last cell, then sets from sparse to half full
    rng = np.random.default_rng(sum(shape) + 5)
    total = math.prod(shape)
    flats = [[0], [total // 2], [total - 1]] + [
        np.unique(rng.choice(total, size=size)) for size in (2, 12, total // 2 + 1)
    ]
    for flat in flats:
        coords = key_coords(np.asarray(flat), shape)
        x = _sites(coords, shape)
        for kernel in WIDE_KERNELS + list(NETWORK_KERNELS):
            _assert_same_rulebook(build_rulebook(x, kernel), _old_build_rulebook(coords, shape, kernel))


@pytest.mark.parametrize("fill", ["bits", "ranks"])
def test_rulebooks_do_not_depend_on_what_fresh_arrays_hold(monkeypatch, fill):
    # np.empty's contents are unspecified: an unset entry of a rank table may
    # hold any int32 ("bits"), or the rank of another site ("ranks")
    # drawn beforehand, since a generator makes its output with np.empty
    rng = np.random.default_rng(71)
    bits = np.frombuffer(rng.bytes((1 << 22) + 4096), np.uint8)
    ranks = rng.integers(-3, 700, (1 << 20) + 1024, dtype=np.int32)
    empty, made = np.empty, []

    def filled(shape, dtype=float, *args, **kwargs):
        out = empty(shape, dtype, *args, **kwargs)
        made.append(out.dtype)
        start = 7 * len(made) % 1024
        if fill == "ranks" and out.dtype == np.int32:
            out.reshape(-1)[:] = ranks[start : start + out.size]
        else:
            out.reshape(-1).view(np.uint8)[:] = bits[4 * start : 4 * start + out.nbytes]
        return out

    # the 2^26-cell grid is left out: its whole table would be filled
    sets = [x for x in _site_sets(72) if math.prod(x.spatial_shape) < 1 << 20]
    for x in sets:
        for kernel in WIDE_KERNELS + list(NETWORK_KERNELS):
            reference = _old_build_rulebook(x.coords, x.spatial_shape, kernel)
            with monkeypatch.context() as patched:
                patched.setattr(np, "empty", filled)
                rb = build_rulebook(x, kernel)
            _assert_same_rulebook(rb, reference)
    assert np.dtype(np.int32) in made


def test_submanifold_lists_past_the_centre_are_their_mirrors_swapped():
    # offsets[V-1-k] == -offsets[k], and a pair (i -> j) of d is (j -> i) of -d
    kernels = [k for k in WIDE_KERNELS + list(NETWORK_KERNELS) if k.mode == "submanifold"]
    for x in _site_sets(69):
        for kernel in kernels:
            rb, offsets, v = build_rulebook(x, kernel), kernel.offsets(), kernel.volume
            for k in range(v):
                np.testing.assert_array_equal(offsets[v - 1 - k], -offsets[k])
                (in_idx, out_idx), (back_in, back_out) = rb.pairs[k], rb.pairs[v - 1 - k]
                np.testing.assert_array_equal(back_in, out_idx)
                np.testing.assert_array_equal(back_out, in_idx)


def _assert_ascending(rb):
    for book in (rb, rb.transposed()):
        for in_idx, out_idx in book.pairs:
            assert (np.diff(in_idx) > 0).all() and (np.diff(out_idx) > 0).all()


def test_every_rulebook_keeps_both_pair_lists_ascending(monkeypatch):
    from cylseg import network
    from cylseg.selftest import _toy_setup

    books = 0
    for x in _site_sets(67, count=20):
        for kernel in NETWORK_KERNELS:
            _assert_ascending(build_rulebook(x, kernel))
            books += 1
    assert books == (20 + 4) * len(NETWORK_KERNELS)

    fetched = []

    class Recorded(network.RulebookCache):
        def get(self, x, kernel):
            fetched.append(super().get(x, kernel))
            return fetched[-1]

    monkeypatch.setattr(network, "RulebookCache", Recorded)
    net, cloud = _toy_setup(seed=2)
    net.forward(cloud, training=True)
    assert {rb.kernel.mode for rb in fetched} == {"submanifold", "strided"}
    for rb in fetched:
        _assert_ascending(rb)

    # a site set out of key order never reaches a rulebook
    with pytest.raises(ValueError, match="duplicate sites or out of order") as err:
        _sites([[0, 0, 1], [0, 0, 0]], (2, 2, 2))
    assert "\n" not in str(err.value)


def test_shapes_over_the_cell_bound_are_rejected_before_any_table():
    huge = (2**28 + 1, 1, 1)
    site = np.zeros((1, 3), dtype=np.int64)
    # build_rulebook takes its shape, and so its tables, from a SparseTensor
    with pytest.raises(ValueError, match=r"more than 2\^28"):
        SparseTensor(site, np.ones((1, 1)), huge)
    assert SparseTensor(site, np.ones((1, 1)), (MAX_CELLS, 1, 1)).num_sites == 1


def _gather_gemm_scatter(x, params, rb, grad):
    # reference: every offset, the centre too, through gather and scatter
    out = np.empty((len(rb.out_coords), params.weights.shape[2]))
    out[:] = params.bias
    grad_in = np.zeros_like(x.features)
    grad_w = np.zeros_like(params.weights)
    for k, (in_idx, out_idx) in enumerate(rb.pairs):
        if in_idx.size:
            out[out_idx] += x.features[in_idx] @ params.weights[k]
            g = grad[out_idx]
            grad_w[k] = x.features[in_idx].T @ g
            grad_in[in_idx] += g @ params.weights[k].T
    return out, (grad_in, grad_w, grad.sum(axis=0))


def test_centre_offset_fast_path_equals_gather_gemm_scatter_bitwise():
    rng = np.random.default_rng(63)
    for x in _site_sets(64, count=6):
        for kernel in NETWORK_KERNELS[:7]:
            rb = build_rulebook(x, kernel)
            assert rb.identity_offset == kernel.volume // 2
            c_out = int(rng.integers(1, 6))
            params = Conv(kernel, x.num_channels, c_out, rng)
            params.bias[:] = rng.standard_normal(c_out)
            grad = rng.standard_normal((x.num_sites, c_out))
            ref_out, ref_grads = _gather_gemm_scatter(x, params, rb, grad)
            np.testing.assert_array_equal(sparse_conv_forward(x, params, rb).features, ref_out)
            for got, ref in zip(sparse_conv_backward(x, params, rb, grad), ref_grads):
                np.testing.assert_array_equal(got, ref)


def _hand_written_conv_backward(x, params, rb, grad_out):
    # reference: the input gradient by a loop of its own, independent of the
    # forward kernel that computes it over the transposed rulebook
    grad_in = np.zeros_like(x.features)
    grad_w = np.zeros_like(params.weights)
    for k, (in_idx, out_idx) in enumerate(rb.pairs):
        if k == rb.identity_offset:
            grad_w[k] = x.features.T @ grad_out
            grad_in += grad_out @ params.weights[k].T
        elif in_idx.size:
            g = grad_out[out_idx]
            grad_w[k] = x.features[in_idx].T @ g
            grad_in[in_idx] += g @ params.weights[k].T
    return grad_in, grad_w, grad_out.sum(axis=0)


def test_conv_backward_equals_the_hand_written_loop_bitwise():
    rng = np.random.default_rng(65)
    seen = set()
    for x in _site_sets(66, count=6):
        for kernel in NETWORK_KERNELS:
            rb = build_rulebook(x, kernel)
            back = rb.transposed()
            u = SparseTensor(back.in_coords, rng.standard_normal((len(back.in_coords), 4)),
                             back.in_shape)
            for inp, book in ((x, rb), (u, back)):
                c_out = int(rng.integers(1, 6))
                params = Conv(kernel, inp.num_channels, c_out, rng)
                grad = rng.standard_normal((len(book.out_coords), c_out))
                ref = _hand_written_conv_backward(inp, params, book, grad)
                got = sparse_conv_backward(inp, params, book, grad)
                if book is back:
                    inverse = inverse_conv_backward(inp, params, rb, grad)
                    for g, r in zip(inverse, ref):
                        assert g.tobytes() == r.tobytes(), (kernel, "inverse")
                for g, r in zip(got, ref):
                    assert g.dtype == r.dtype and g.shape == r.shape
                    assert g.tobytes() == r.tobytes(), (kernel, book is back)
                seen.add((kernel, book is back))
    assert len(seen) == 2 * len(NETWORK_KERNELS)


@pytest.mark.parametrize("inverse", [False, True])
def test_conv_backward_computes_in_the_dtype_of_grad_out(inverse):
    # float32 in, float32 input gradient out, within float32 rounding of the
    # float64 result on the same values; a float64 grad_out stays float64
    rng = np.random.default_rng(67)
    x = random_sparse(rng, max_shape=(10, 10, 10), max_sites=400)
    x = x.with_features(rng.standard_normal((x.num_sites, 6)))
    kernel = KernelSpec((3, 3, 3), (2, 2, 2), "strided")
    rb = build_rulebook(x, kernel)
    if inverse:
        back, book = inverse_conv_backward, rb.transposed()
        x = SparseTensor(rb.out_coords, rng.standard_normal((len(rb.out_coords), 3)),
                         rb.out_shape)
    else:
        back, book = sparse_conv_backward, rb
    params = Conv(kernel, x.num_channels, 5, rng)
    x32 = x.with_features(x.features.astype(np.float32))
    x64 = x.with_features(x32.features.astype(np.float64))
    grad = rng.standard_normal((len(book.out_coords), 5)).astype(np.float32)
    got = back(x32, params, rb, grad)
    want = back(x64, params, rb, grad.astype(np.float64))
    assert got[0].dtype == np.float32 and got[2].dtype == np.float32
    for g, w in zip(got, want):
        np.testing.assert_allclose(g, w, rtol=0, atol=1e-5 * np.abs(w).max())
    assert back(x32, params, rb, grad.astype(np.float64))[0].dtype == np.float64


def test_batch_norm_backward_computes_in_the_dtype_of_grad_out():
    rng = np.random.default_rng(68)
    x = (rng.standard_normal((500, 8)) * 3.0 + 1.0).astype(np.float32)
    grad = rng.standard_normal((500, 8)).astype(np.float32)
    norm = BatchNorm(8)
    norm.scale[:] = rng.uniform(0.5, 2.0, 8)
    for training in (True, False):
        _, ctx32 = batch_norm_forward(x, norm, training)
        _, ctx64 = batch_norm_forward(x.astype(np.float64), norm, training)
        got = batch_norm_backward(grad, ctx32)
        want = batch_norm_backward(grad.astype(np.float64), ctx64)
        assert all(g.dtype == np.float32 for g in got)
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=0, atol=1e-5 * np.abs(w).max())
        assert batch_norm_backward(grad.astype(np.float64), ctx32)[0].dtype == np.float64


# ------------------------------------------------------------- pointwise ops


def test_batch_norm_training_moments():
    rng = np.random.default_rng(28)
    feats = rng.standard_normal((50, 3)) * 4.0 + 2.0
    norm = BatchNorm(3)
    norm.scale[:] = [1.0, 2.0, 0.5]
    norm.shift[:] = [0.0, -1.0, 3.0]
    out, _ = batch_norm_forward(feats, norm, training=True)
    np.testing.assert_allclose(out.mean(axis=0), norm.shift, atol=1e-9)
    np.testing.assert_allclose(out.var(axis=0), norm.scale**2, rtol=1e-4)


def test_batch_norm_running_update_keep_factor():
    feats = np.array([[1.0], [3.0]])  # batch mean 2, biased var 1
    norm = BatchNorm(1)
    batch_norm_forward(feats, norm, training=True)
    np.testing.assert_allclose(norm.running_mean, [0.99 * 0.0 + 0.01 * 2.0])
    np.testing.assert_allclose(norm.running_var, [0.99 * 1.0 + 0.01 * 1.0])


def test_batch_norm_inference_uses_running_stats():
    norm = BatchNorm(1)
    norm.running_mean[:] = 5.0
    norm.running_var[:] = 4.0
    out, _ = batch_norm_forward(np.array([[7.0]]), norm, training=False)
    np.testing.assert_allclose(out, [[2.0 / np.sqrt(4.0 + 1e-5)]])


def test_batch_norm_backward_finite_differences():
    rng = np.random.default_rng(29)
    feats = rng.standard_normal((12, 2))
    norm = BatchNorm(2)
    norm.scale[:] = rng.uniform(0.5, 1.5, 2)
    norm.shift[:] = rng.standard_normal(2)
    probe = rng.standard_normal((12, 2))
    running = (norm.running_mean.copy(), norm.running_var.copy())

    def objective():
        norm.running_mean[:], norm.running_var[:] = running  # keep fn pure
        out, _ = batch_norm_forward(feats, norm, training=True)
        return float((out * probe).sum())

    out, ctx = batch_norm_forward(feats, norm, training=True)
    norm.running_mean[:], norm.running_var[:] = running
    gin, gs, gb = batch_norm_backward(probe, ctx)
    err = finite_diff_check(
        objective,
        {"x": feats, "scale": norm.scale, "shift": norm.shift},
        {"x": gin, "scale": gs, "shift": gb},
    )
    assert err < 1e-6


def test_leaky_relu_values_and_gradient():
    feats = np.array([[-2.0, 0.0, 3.0]])
    out, ctx = leaky_relu_forward(feats, 0.1)
    np.testing.assert_allclose(out, [[-0.2, 0.0, 3.0]])
    grad = leaky_relu_backward(np.ones_like(feats), ctx)
    # v = 0 sits on the v >= 0 branch of the forward, so its slope is 1
    np.testing.assert_allclose(grad, [[0.1, 1.0, 1.0]])


def test_leaky_relu_with_slope_zero_makes_nan_of_plus_inf():
    # max(x, 0 * x) with 0 * inf = nan, as predict's in-place route always
    # did; the np.where form gave +inf there (and nan for -inf, as here)
    with np.errstate(invalid="ignore"):
        out, _ = leaky_relu_forward(np.array([[np.inf, -np.inf, 2.0]]), 0.0)
    np.testing.assert_array_equal(out, [[np.nan, np.nan, 2.0]])


# The kernels' first forms, kept as references for their bytes: the
# ``np.where`` leaky ReLU, the batch norm forward through ``features.var``
# and its backward through three batch means.


def _where_leaky_forward(features, slope):
    neg = features < 0
    return np.where(neg, slope * features, features), neg


def _where_leaky_backward(grad_out, neg, slope):
    return np.where(neg, slope * grad_out, grad_out)


def _var_batch_norm_forward(features, norm, training):
    dtype = features.dtype
    if training:
        mean = features.mean(axis=0)
        var = features.var(axis=0)
        norm.running_mean *= NORM_MOMENTUM
        norm.running_mean += (1 - NORM_MOMENTUM) * mean
        norm.running_var *= NORM_MOMENTUM
        norm.running_var += (1 - NORM_MOMENTUM) * var
    else:
        mean, var = norm.running_mean, norm.running_var
    inv_std = (1.0 / np.sqrt(var + NORM_EPS)).astype(dtype, copy=False)
    xhat = (features - mean.astype(dtype, copy=False)) * inv_std
    scale = norm.scale.astype(dtype, copy=False)
    out = scale * xhat + norm.shift.astype(dtype, copy=False)
    return out, (xhat, inv_std, scale, training)


def _three_mean_batch_norm_backward(grad_out, ctx):
    xhat, inv_std, scale, training = ctx
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


def _assert_same_bytes(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


def _kernel_input(shape, dtype, rng, special=False):
    """Normal draws with +0.0 and -0.0 in every nine values, and with
    ``special`` also +inf, -inf and NaN of both signs."""
    x = rng.standard_normal(shape) * 3.0
    x.flat[4::9] = 0.0
    x.flat[5::9] = -0.0
    if special:
        for i, value in enumerate((np.inf, -np.inf, np.nan, -np.nan)):
            x.flat[i::9] = value
    return x.astype(dtype)


KERNEL_SHAPES = [(1, 8), (5, 8), (16_384, 64)]
# float64 training, float64 inference, and predict's float32 inference
KERNEL_ROUTES = [(np.float64, True), (np.float64, False), (np.float32, False)]


@pytest.mark.parametrize("shape", KERNEL_SHAPES)
@pytest.mark.parametrize("dtype, training", KERNEL_ROUTES)
def test_batch_norm_keeps_the_bytes_of_its_first_form(shape, dtype, training):
    rng = np.random.default_rng(31)
    c = shape[1]
    stats = (rng.uniform(0.5, 2.0, c), rng.normal(0.0, 0.5, c),
             rng.normal(0.0, 0.5, c), rng.uniform(0.2, 3.0, c))
    norm, reference = BatchNorm(c), BatchNorm(c)
    for layer in (norm, reference):
        layer.scale[:], layer.shift[:], layer.running_mean[:], layer.running_var[:] = stats
    for _ in range(3):
        x = _kernel_input(shape, dtype, rng)
        probe = _kernel_input(shape, np.float64, rng)
        out, ctx = batch_norm_forward(x, norm, training)
        want, want_ctx = _var_batch_norm_forward(x, reference, training)
        _assert_same_bytes(out, want)
        for got, want in zip(ctx, want_ctx):
            _assert_same_bytes(got, want)
        grads = batch_norm_backward(probe, ctx)
        for got, want in zip(grads, _three_mean_batch_norm_backward(probe, want_ctx)):
            _assert_same_bytes(got, want)
    _assert_same_bytes(norm.running_mean, reference.running_mean)
    _assert_same_bytes(norm.running_var, reference.running_var)


@pytest.mark.parametrize("shape", KERNEL_SHAPES)
@pytest.mark.parametrize("dtype, training", KERNEL_ROUTES)
@pytest.mark.parametrize(
    "slope, special", [(0.0, False), (0.1, False), (1.0, False), (0.1, True), (1.0, True)]
)
def test_leaky_relu_keeps_the_bytes_of_its_where_form(shape, dtype, training, slope, special):
    rng = np.random.default_rng(32)
    x = _kernel_input(shape, dtype, rng, special)
    want, neg = _where_leaky_forward(x, slope)
    inplace = not training and dtype == np.float32  # predict's route
    out, ctx = leaky_relu_forward(x.copy() if inplace else x, slope, inplace)
    _assert_same_bytes(out, want)
    if not inplace:
        probe = _kernel_input(shape, np.float64, rng, special)
        _assert_same_bytes(leaky_relu_backward(probe, ctx),
                           _where_leaky_backward(probe, neg, slope))


def _table_leaky_backward(grad_out, neg, slope):
    """The leaky backward's lookup-table form, the reference for its bytes."""
    factor = np.array([1.0, slope], dtype=grad_out.dtype)[neg.view(np.uint8)]
    factor *= grad_out
    return factor


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("slope", [0.0, 0.1, 1.0])
def test_leaky_relu_backward_keeps_the_bytes_of_its_table_form(dtype, slope):
    rng = np.random.default_rng(34)
    x = _kernel_input((999, 19), dtype, rng, special=True)
    grad = _kernel_input((999, 19), dtype, rng, special=True)
    with np.errstate(invalid="ignore"):  # slope 0 times inf
        _, ctx = leaky_relu_forward(x, slope)
        neg = ctx[0]
        assert 0 < neg.sum() < neg.size
        _assert_same_bytes(leaky_relu_backward(grad, ctx),
                           _table_leaky_backward(grad, neg, slope))


def _column_table(rows, cols, dtype, rng):
    """A ``(rows, cols)`` column slice of a wider array, its columns of
    magnitudes 1e-4 to 1e4 so that the order of a sum shows in its bits.
    Columns 1, 6, 11, ... are all -0.0; columns 2, 7, ... hold +inf and
    -inf, and columns 3, 8, ... NaN and -NaN."""
    wide = rng.standard_normal((rows, cols + 3)) * 10.0 ** rng.uniform(-4, 4, cols + 3)
    x = wide[:, 3:]
    x[:, 1::5] = -0.0
    x[rows // 2, 2::5], x[rows // 3, 2::5] = np.inf, -np.inf
    x[rows // 4, 3::5], x[-1, 3::5] = np.nan, -np.nan
    return wide.astype(dtype)[:, 3:]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("cols", [1, 2, 3, 8, 19, 64, 512])
def test_column_sums_and_means_keep_the_bytes_of_numpys(dtype, cols):
    rng = np.random.default_rng(35)
    for rows in (1, 2, 3, 8, 9, 127, 128, 129, 1000, 8193, 65_537, 200_000):
        if rows * cols > 1 << 22:
            continue
        x = _column_table(rows, cols, dtype, rng)
        for layout in (np.ascontiguousarray(x), x, np.asfortranarray(x)):
            with np.errstate(invalid="ignore"):
                _assert_same_bytes(column_sums(layout), layout.sum(axis=0))
                _assert_same_bytes(column_means(layout), layout.mean(axis=0))


def _peak_units(fn, *args):
    """Peak traced allocation of ``fn(*args)``, its result included, in
    units of one 16,384 x 64 float64 array."""
    with traced_memory() as memory:
        fn(*args)
        return memory.peak() / (16_384 * 64 * 8)


def test_training_kernels_make_no_second_full_size_temporary():
    # Each returns one array the size of its input (batch norm two: its
    # output and xhat, which the backward needs) and makes no other; the
    # leaky forward also keeps its mask, an eighth of a unit.
    rng = np.random.default_rng(33)
    x = rng.standard_normal((16_384, 64))
    probe = rng.standard_normal((16_384, 64))
    _, ctx = leaky_relu_forward(x, 0.1)
    peaks = {
        "batch_norm_forward": _peak_units(batch_norm_forward, x, BatchNorm(64), True),
        "leaky_relu_forward": _peak_units(leaky_relu_forward, x, 0.1),
        "leaky_relu_backward": _peak_units(leaky_relu_backward, probe, ctx),
    }
    bounds = {"batch_norm_forward": 2.5, "leaky_relu_forward": 1.5, "leaky_relu_backward": 1.5}
    assert not {name: peak for name, peak in peaks.items() if peak >= bounds[name]}


def test_sigmoid_bounds():
    rng = np.random.default_rng(30)
    out, _ = sigmoid_forward(rng.standard_normal((100, 4)) * 10)
    assert np.all(out > 0.0) and np.all(out < 1.0)


@pytest.mark.parametrize(
    "coords",
    [
        [[0, 0, 1], [0, 0, 1], [1, 0, 0]],  # sorted: the keys do not increase strictly
        [[1, 0, 0], [0, 0, 1], [1, 0, 0]],  # unsorted
        [[1, 1, 1], [0, 1, 0], [0, 1, 0]],
    ],
)
def test_sparse_tensor_rejects_duplicate_sites(coords):
    with pytest.raises(ValueError, match="duplicate sites"):
        _tensor(coords, np.zeros((3, 1)), (2, 2, 2))


def test_concat_rejects_coordinate_mismatch():
    x = _tensor([[0, 0, 0]], [[1.0]], (2, 2, 2))
    y = _tensor([[1, 0, 0]], [[1.0]], (2, 2, 2))
    with pytest.raises(ValueError, match="different site sets"):
        concat_features(x, y)


def test_concat_stacks_channels():
    x = _tensor([[0, 0, 0]], [[1.0, 2.0]], (2, 2, 2))
    y = _tensor([[0, 0, 0]], [[3.0]], (2, 2, 2))
    out = concat_features(x, y)
    np.testing.assert_array_equal(out.features, [[1.0, 2.0, 3.0]])


def test_conv_and_concat_compare_any_other_coords_array_in_full():
    # only the very coords array a conv's rulebook or a concat's other operand
    # holds skips the element compare; the spatial shape is compared always
    rng = np.random.default_rng(73)
    x = _tensor([[0, 0, 0], [1, 1, 0], [1, 2, 1]], rng.standard_normal((3, 2)), (2, 3, 2))
    kernel = KernelSpec(3)
    rb = build_rulebook(x, kernel)
    params = Conv(kernel, 2, 2, rng)
    copy = SparseTensor(x.coords.copy(), x.features, x.spatial_shape)
    assert copy.coords is not x.coords
    want = sparse_conv_forward(x, params, rb).features
    assert sparse_conv_forward(copy, params, rb).features.tobytes() == want.tobytes()
    for y, z in ((x, copy), (copy, x)):
        np.testing.assert_array_equal(concat_features(y, z).features,
                                      np.hstack([x.features, x.features]))
    other = _tensor([[0, 0, 0], [1, 1, 0], [1, 2, 0]], x.features, x.spatial_shape)
    reshaped = SparseTensor(x.coords, x.features, (3, 3, 2))
    assert reshaped.coords is x.coords
    for bad in (other, reshaped):
        with pytest.raises(ValueError, match="tensor sites do not match"):
            sparse_conv_forward(bad, params, rb)
        for y, z in ((x, bad), (bad, x)):
            with pytest.raises(ValueError, match="different site sets"):
                concat_features(y, z)


# --------------------------------------------------------- densify and oracle


def test_densify_empty_is_all_zero():
    x = _tensor(np.zeros((0, 3)), np.zeros((0, 2)), (3, 2, 2))
    assert densify(x).shape == (3, 2, 2, 2)
    assert not densify(x).any()


def test_dense_oracle_impulse_response():
    # an impulse at q spreads W[k] to q + offset_k
    kernel = KernelSpec((3, 3, 3))
    rng = np.random.default_rng(33)
    params = Conv(kernel, 1, 1, rng)
    dense = np.zeros((5, 5, 5, 1))
    q = (2, 2, 2)
    dense[q] = 1.0
    out = dense_conv_oracle(dense, params, kernel, active_mask=np.ones((5, 5, 5), bool))
    for k, off in enumerate(kernel.offsets()):
        site = (q[0] + off[0], q[1] + off[1], q[2] + off[2])
        assert out[site][0] == pytest.approx(params.weights[k, 0, 0] + params.bias[0])


# ----------------------------------------------------------------- container


def _pack(tensors):
    buf = io.BytesIO()
    write_tensors(buf, tensors)
    return buf.getvalue()


def _unpack(blob, into=None):
    return read_tensors(io.BytesIO(blob), into)


def test_pack_unpack_round_trip():
    rng = np.random.default_rng(34)
    tensors = {
        "a.weights": rng.standard_normal((3, 2, 2)),
        "b.bias": rng.standard_normal(4),
        "empty": np.zeros((0, 2)),
        "scalar": np.float64(2.5),
    }
    blob = _pack(tensors)
    assert blob[:4] == b"CYLT"
    out = _unpack(blob)
    assert list(out) == sorted(tensors)
    for name in tensors:
        assert out[name].shape == np.shape(tensors[name])
        np.testing.assert_array_equal(out[name], tensors[name])
    into = {name: np.full(np.shape(arr), np.nan) for name, arr in tensors.items()}
    assert all(_unpack(blob, into)[name] is into[name] for name in tensors)
    for name in tensors:
        np.testing.assert_array_equal(into[name], tensors[name])


def test_pack_is_insertion_order_independent():
    a = {"x": np.ones(2), "y": np.zeros(3)}
    b = {"y": np.zeros(3), "x": np.ones(2)}
    assert _pack(a) == _pack(b)


def test_unpack_rejects_bad_magic():
    with pytest.raises(ValueError, match="magic"):
        _unpack(b"NOPE" + b"\x00" * 16)


def test_unpack_reads_the_container_from_the_file_position_to_its_end():
    blob = _pack({"a": np.arange(3.0)})
    fh = io.BytesIO(b"preamble" + blob)
    fh.seek(8)
    np.testing.assert_array_equal(read_tensors(fh)["a"], np.arange(3.0))
    with pytest.raises(ValueError, match="^5 trailing bytes in tensor container$"):
        _unpack(blob + b"extra")


def _entry(name, shape):
    """One container entry's name, ndim and shape, ahead of its data."""
    encoded = name.encode()
    return struct.pack(f"<I{len(encoded)}sI{len(shape)}q", len(encoded), encoded,
                       len(shape), *shape)


def test_unpack_into_arrays_checks_names_and_shapes_before_reading_data():
    blob = _pack({"a": np.ones(2), "b": np.ones((2, 3))})
    with pytest.raises(ValueError, match=r"entry 1 \('b'\): unexpected tensor"):
        _unpack(blob, {"a": np.zeros(2), "c": np.zeros((2, 3))})
    with pytest.raises(ValueError, match=r"entry 1 \('b'\): shape \(2, 3\), expected \(3, 2\)"):
        _unpack(blob, {"a": np.zeros(2), "b": np.zeros((3, 2))})
    with pytest.raises(ValueError, match=r"lacks 1 tensor\(s\), first 'c'"):
        _unpack(blob, {"a": np.zeros(2), "b": np.zeros((2, 3)), "c": np.zeros(1)})


def test_unpack_allocates_nothing_for_a_declared_size_beyond_the_file():
    # 2^40 float64s declared, 8 bytes present: the check comes before np.empty
    blob = b"CYLT" + struct.pack("<II", 1, 1) + _entry("a", (1 << 20, 1 << 20)) + b"\x00" * 8
    with traced_memory() as memory:
        with pytest.raises(ValueError, match="cut short in entry 0 \\('a'\\)"):
            _unpack(blob)
        peak = memory.peak()
    assert peak < 1 << 20


def test_unpack_names_the_entry_a_cut_container_stops_in():
    tensors = {"a.weights": np.ones((2, 3)), "b": np.float64(2.0), "c.bias": np.zeros(4)}
    blob = _pack(tensors)
    names = sorted(tensors)
    starts = [12]  # where each entry begins
    for name in names:
        starts.append(starts[-1] + 4 + len(name) + 4 + 8 * np.ndim(tensors[name])
                      + 8 * np.size(tensors[name]))
    assert starts[-1] == len(blob)
    for cut in range(len(blob)):
        with pytest.raises(ValueError) as err:
            _unpack(blob[:cut])
        message = str(err.value)
        if cut < 4:
            assert "magic" in message
            continue
        assert "cut short" in message
        i = int(np.searchsorted(starts, cut, side="right")) - 1
        if cut < 12:
            assert "container header" in message
        else:
            assert f"entry {i}" in message
            if cut >= starts[i] + 4 + len(names[i]):
                assert repr(names[i]) in message
