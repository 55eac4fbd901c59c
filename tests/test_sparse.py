from itertools import product

import numpy as np
import pytest

from cylseg.selftest import NETWORK_KERNELS, conv_oracle_error, random_sparse
from cylseg.sparse import (
    ConvParams,
    KernelSpec,
    SparseTensor,
    add_sparse,
    batch_norm_backward,
    batch_norm_forward,
    build_rulebook,
    concat_features,
    dense_conv_oracle,
    densify,
    init_conv_params,
    init_norm_params,
    inverse_conv_backward,
    inverse_conv_forward,
    leaky_relu_backward,
    leaky_relu_forward,
    pack_tensors,
    sigmoid_forward,
    sparse_conv_backward,
    sparse_conv_forward,
    sparsify,
    unpack_tensors,
)
from cylseg.training import finite_diff_check


def _tensor(coords, feats, shape):
    return SparseTensor(
        np.asarray(coords, dtype=np.int64), np.asarray(feats, dtype=np.float64), shape
    )


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
    rb = build_rulebook(coords, (3, 3, 3), KernelSpec((3, 3, 3)))
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
    rb = build_rulebook(coords, (2, 1, 2), KernelSpec((3, 1, 3)))
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
        rb = build_rulebook(x.coords, x.spatial_shape, kernel)
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


def test_conv_identity_kernel_passes_features_through():
    x = _tensor([[0, 0, 0], [2, 1, 0]], [[1.0, 2.0], [3.0, 4.0]], (3, 2, 1))
    kernel = KernelSpec((1, 1, 1))
    rb = build_rulebook(x.coords, x.spatial_shape, kernel)
    params = ConvParams(np.eye(2)[None, :, :], np.zeros(2))
    out = sparse_conv_forward(x, params, rb)
    np.testing.assert_array_equal(out.features, x.features)
    assert out.coords is rb.out_coords


def test_conv_empty_input_gives_empty_output():
    x = _tensor(np.zeros((0, 3)), np.zeros((0, 2)), (4, 4, 4))
    kernel = KernelSpec((3, 3, 3))
    rb = build_rulebook(x.coords, x.spatial_shape, kernel)
    params = init_conv_params(kernel, 2, 3, np.random.default_rng(0))
    out = sparse_conv_forward(x, params, rb)
    assert out.features.shape == (0, 3)


def test_conv_matches_dense_oracle_all_kernel_shapes():
    rng = np.random.default_rng(22)
    for kernel in NETWORK_KERNELS:
        for _ in range(5):
            x = random_sparse(rng, max_shape=(9, 9, 9))
            params = init_conv_params(kernel, x.features.shape[1], 3, rng)
            assert conv_oracle_error(x, kernel, params) < 1e-10


def test_conv_is_permutation_invariant():
    rng = np.random.default_rng(23)
    x = random_sparse(rng, max_shape=(8, 8, 8))
    kernel = KernelSpec((3, 3, 3))
    params = init_conv_params(kernel, x.features.shape[1], 2, rng)
    rb = build_rulebook(x.coords, x.spatial_shape, kernel)
    out = sparse_conv_forward(x, params, rb)

    perm = rng.permutation(len(x.coords))
    xp = SparseTensor(x.coords[perm], x.features[perm], x.spatial_shape)
    rbp = build_rulebook(xp.coords, xp.spatial_shape, kernel)
    outp = sparse_conv_forward(xp, params, rbp)
    np.testing.assert_allclose(outp.features, out.features[perm], atol=1e-12)


def test_conv_backward_zero_grad_gives_zero():
    rng = np.random.default_rng(24)
    x = random_sparse(rng, max_shape=(6, 6, 6))
    kernel = KernelSpec((3, 3, 3))
    params = init_conv_params(kernel, x.features.shape[1], 2, rng)
    rb = build_rulebook(x.coords, x.spatial_shape, kernel)
    gin, gw, gb = sparse_conv_backward(x, params, rb, np.zeros((len(x.coords), 2)))
    assert not gin.any() and not gw.any() and not gb.any()


def test_conv_backward_identity_layer():
    x = _tensor([[1, 1, 1]], [[2.0, -3.0]], (3, 3, 3))
    kernel = KernelSpec((1, 1, 1))
    rb = build_rulebook(x.coords, x.spatial_shape, kernel)
    params = ConvParams(np.eye(2)[None, :, :], np.zeros(2))
    grad = np.array([[0.5, 1.5]])
    gin, _, gb = sparse_conv_backward(x, params, rb, grad)
    np.testing.assert_array_equal(gin, grad)
    np.testing.assert_array_equal(gb, grad[0])


def test_conv_backward_matches_finite_differences():
    rng = np.random.default_rng(25)
    x = random_sparse(rng, max_shape=(5, 5, 5), max_channels=3, max_sites=10)
    kernel = KernelSpec((3, 1, 3))
    c_in = x.features.shape[1]
    params = init_conv_params(kernel, c_in, 2, rng)
    rb = build_rulebook(x.coords, x.spatial_shape, kernel)
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
    rb = build_rulebook(x.coords, x.spatial_shape, kernel)
    c = x.features.shape[1]
    down = sparse_conv_forward(x, init_conv_params(kernel, c, 2, rng), rb)
    up = inverse_conv_forward(down, init_conv_params(kernel, 2, c, rng), rb)
    assert up.coords is rb.in_coords
    assert up.spatial_shape == x.spatial_shape


def test_inverse_conv_is_adjoint_of_forward():
    # <u, conv(x)> must equal <inverse_with_transposed_weights(u), x>
    rng = np.random.default_rng(27)
    x = random_sparse(rng, max_shape=(8, 8, 8), max_channels=3)
    kernel = KernelSpec((3, 3, 3), (2, 2, 2), "strided")
    rb = build_rulebook(x.coords, x.spatial_shape, kernel)
    c_in = x.features.shape[1]
    w = rng.standard_normal((kernel.volume, c_in, 2))
    u = rng.standard_normal((len(rb.out_coords), 2))

    fwd = sparse_conv_forward(x, ConvParams(w, np.zeros(2)), rb)
    back = inverse_conv_forward(
        SparseTensor(rb.out_coords, u, rb.out_shape),
        ConvParams(w.transpose(0, 2, 1), np.zeros(c_in)),
        rb,
    )
    lhs = float((u * fwd.features).sum())
    rhs = float((back.features * x.features).sum())
    assert abs(lhs - rhs) < 1e-9


def test_transposed_rulebook_swaps_sides_and_round_trips():
    rng = np.random.default_rng(29)
    x = random_sparse(rng, max_shape=(8, 8, 8))
    for kernel in (KernelSpec((3, 3, 3), (2, 2, 2), "strided"), KernelSpec((1, 3, 3))):
        rb = build_rulebook(x.coords, x.spatial_shape, kernel)
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
        rb = build_rulebook(x.coords, x.spatial_shape, kernel)
        u = SparseTensor(rb.out_coords, rng.standard_normal((len(rb.out_coords), 3)), rb.out_shape)
        params = init_conv_params(kernel, 3, 4, rng)
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


# ------------------------------------------------------------- pointwise ops


def test_batch_norm_training_moments():
    rng = np.random.default_rng(28)
    feats = rng.standard_normal((50, 3)) * 4.0 + 2.0
    norm = init_norm_params(3)
    norm.scale[:] = [1.0, 2.0, 0.5]
    norm.shift[:] = [0.0, -1.0, 3.0]
    out, _ = batch_norm_forward(feats, norm, training=True)
    np.testing.assert_allclose(out.mean(axis=0), norm.shift, atol=1e-9)
    np.testing.assert_allclose(out.var(axis=0), norm.scale**2, rtol=1e-4)


def test_batch_norm_running_update_keep_factor():
    feats = np.array([[1.0], [3.0]])  # batch mean 2, biased var 1
    norm = init_norm_params(1)
    batch_norm_forward(feats, norm, training=True)
    np.testing.assert_allclose(norm.running_mean, [0.99 * 0.0 + 0.01 * 2.0])
    np.testing.assert_allclose(norm.running_var, [0.99 * 1.0 + 0.01 * 1.0])


def test_batch_norm_inference_uses_running_stats():
    norm = init_norm_params(1)
    norm.running_mean[:] = 5.0
    norm.running_var[:] = 4.0
    out, _ = batch_norm_forward(np.array([[7.0]]), norm, training=False)
    np.testing.assert_allclose(out, [[2.0 / np.sqrt(4.0 + 1e-5)]])


def test_batch_norm_backward_finite_differences():
    rng = np.random.default_rng(29)
    feats = rng.standard_normal((12, 2))
    norm = init_norm_params(2)
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


def test_sigmoid_bounds():
    rng = np.random.default_rng(30)
    out, _ = sigmoid_forward(rng.standard_normal((100, 4)) * 10)
    assert np.all(out > 0.0) and np.all(out < 1.0)


def test_add_of_negation_is_zero():
    rng = np.random.default_rng(31)
    x = random_sparse(rng)
    y = x.with_features(-x.features)
    assert not add_sparse(x, y).features.any()


def test_add_rejects_coordinate_mismatch():
    x = _tensor([[0, 0, 0]], [[1.0]], (2, 2, 2))
    y = _tensor([[1, 0, 0]], [[1.0]], (2, 2, 2))
    with pytest.raises(ValueError):
        add_sparse(x, y)


def test_concat_stacks_channels():
    x = _tensor([[0, 0, 0]], [[1.0, 2.0]], (2, 2, 2))
    y = _tensor([[0, 0, 0]], [[3.0]], (2, 2, 2))
    out = concat_features(x, y)
    np.testing.assert_array_equal(out.features, [[1.0, 2.0, 3.0]])


# --------------------------------------------------------- densify and oracle


def test_densify_empty_is_all_zero():
    x = _tensor(np.zeros((0, 3)), np.zeros((0, 2)), (3, 2, 2))
    assert densify(x).shape == (3, 2, 2, 2)
    assert not densify(x).any()


def test_densify_sparsify_round_trip():
    rng = np.random.default_rng(32)
    x = random_sparse(rng)
    back = sparsify(densify(x))
    lex = np.lexsort(x.coords.T[::-1])
    np.testing.assert_array_equal(back.coords, x.coords[lex])
    np.testing.assert_allclose(back.features, x.features[lex])


def test_dense_oracle_impulse_response():
    # an impulse at q spreads W[k] to q + offset_k
    kernel = KernelSpec((3, 3, 3))
    rng = np.random.default_rng(33)
    params = init_conv_params(kernel, 1, 1, rng)
    dense = np.zeros((5, 5, 5, 1))
    q = (2, 2, 2)
    dense[q] = 1.0
    out = dense_conv_oracle(dense, params, kernel, active_mask=np.ones((5, 5, 5), bool))
    for k, off in enumerate(kernel.offsets()):
        site = (q[0] + off[0], q[1] + off[1], q[2] + off[2])
        assert out[site][0] == pytest.approx(params.weights[k, 0, 0] + params.bias[0])


# ----------------------------------------------------------------- container


def test_pack_unpack_round_trip():
    rng = np.random.default_rng(34)
    tensors = {
        "a.weights": rng.standard_normal((3, 2, 2)),
        "b.bias": rng.standard_normal(4),
        "empty": np.zeros((0, 2)),
    }
    blob = pack_tensors(tensors)
    assert blob[:4] == b"CYLT"
    out = unpack_tensors(blob)
    assert set(out) == set(tensors)
    for name in tensors:
        np.testing.assert_array_equal(out[name], tensors[name])


def test_pack_is_insertion_order_independent():
    a = {"x": np.ones(2), "y": np.zeros(3)}
    b = {"y": np.zeros(3), "x": np.ones(2)}
    assert pack_tensors(a) == pack_tensors(b)


def test_unpack_rejects_bad_magic():
    with pytest.raises(ValueError):
        unpack_tensors(b"NOPE" + b"\x00" * 16)
