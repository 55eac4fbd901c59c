"""Built-in verification suite: oracle equivalence plus gradient checks.

Run via ``cylseg selftest``. Each check prints one ok/FAIL line; the suite
is a condensed version of the test suite meant for installed environments,
and it also hosts the brute-force Lovasz oracle shared with the tests.
"""

from __future__ import annotations

import numpy as np

from .network import Conv, NetworkConfig, SegmentationNetwork
from .partition import CubicGridSpec, CylGridSpec, assign_cells, encode_cell_labels
from .pointcloud import SyntheticSceneSpec, generate_synthetic_scene
from .sparse import (
    KernelSpec,
    SparseTensor,
    build_rulebook,
    dense_conv_oracle,
    densify,
    key_coords,
    sparse_conv_forward,
    inverse_conv_forward,
)
from .training import (
    Adam,
    directional_grad_check,
    finite_diff_check,
    lovasz_softmax,
    segmentation_loss,
    softmax,
    softmax_grad_to_logits,
    train_step,
    weighted_cross_entropy,
)

NETWORK_KERNELS = (
    KernelSpec((1, 1, 1)),
    KernelSpec((3, 3, 3)),
    KernelSpec((1, 3, 3)),
    KernelSpec((3, 1, 3)),
    KernelSpec((3, 1, 1)),
    KernelSpec((1, 3, 1)),
    KernelSpec((1, 1, 3)),
    KernelSpec((3, 3, 3), (2, 2, 2), "strided"),
)


def random_sparse(rng, max_shape=(16, 16, 16), max_channels=8, max_sites=40) -> SparseTensor:
    """A random sparse tensor with at least one active site."""
    shape = tuple(int(rng.integers(1, s + 1)) for s in max_shape)
    channels = int(rng.integers(1, max_channels + 1))
    total = shape[0] * shape[1] * shape[2]
    count = int(rng.integers(1, min(max_sites, total) + 1))
    flat = rng.choice(total, size=count, replace=False)
    flat.sort()
    coords = key_coords(flat, shape)
    feats = rng.standard_normal((count, channels))
    return SparseTensor(coords, feats, shape)


def lovasz_brute_force(probs, targets) -> float:
    """Lovasz extension of the Jaccard loss, straight from the definition.

    For each present class the sorted error prefixes define nested
    misprediction sets; the extension interpolates the set-function values
    Delta(S) = |S| / |S union truth| between consecutive level sets. Uses
    Python sets throughout so it shares no code with the production path.
    """
    probs = np.asarray(probs, dtype=np.float64)
    targets = [int(t) for t in targets]
    present = sorted(set(targets))
    if not present:
        return 0.0
    total = 0.0
    for c in present:
        truth = {i for i, t in enumerate(targets) if t == c}
        m = [abs((1.0 if i in truth else 0.0) - float(probs[i, c])) for i in range(len(targets))]
        order = sorted(range(len(m)), key=lambda i: (-m[i], i))
        chosen = set()
        prev = 0.0
        loss = 0.0
        for i in order:
            chosen.add(i)
            union = len(chosen | truth)
            delta = len(chosen) / union if union else 0.0
            loss += m[i] * (delta - prev)
            prev = delta
        total += loss
    return total / len(present)


def conv_oracle_error(x: SparseTensor, kernel: KernelSpec, params) -> float:
    """Max abs deviation of the sparse path from the dense reference.

    Also asserts the output site set: equal to the input's for submanifold
    kernels, and for strided kernels equal to the sites an occupancy
    convolution (all-ones kernel over the activity indicator) marks
    reachable.
    """
    rb = build_rulebook(x, kernel)
    got = sparse_conv_forward(x, params, rb)
    dense = densify(x)
    mask = np.zeros(x.spatial_shape, dtype=bool)
    mask[x.coords[:, 0], x.coords[:, 1], x.coords[:, 2]] = True
    if kernel.mode == "submanifold":
        assert np.array_equal(got.coords, x.coords), "submanifold must keep its sites"
        want = dense_conv_oracle(dense, params, kernel, mask)
        diff = densify(got) - want
        return float(np.max(np.abs(diff))) if diff.size else 0.0
    ones = Conv(kernel, 1, 1, np.random.default_rng())
    ones.weights[...] = 1.0
    occupancy = dense_conv_oracle(mask[..., None].astype(np.float64), ones, kernel)
    expected_coords = np.argwhere(occupancy[..., 0] > 0.5)
    assert np.array_equal(got.coords, expected_coords), "strided output sites disagree"
    want = dense_conv_oracle(dense, params, kernel)
    want_feats = want[got.coords[:, 0], got.coords[:, 1], got.coords[:, 2]]
    diff = got.features - want_feats
    return float(np.max(np.abs(diff))) if diff.size else 0.0


def _check_conv_oracle():
    rng = np.random.default_rng(7)
    for kernel in NETWORK_KERNELS:
        for _ in range(6):
            x = random_sparse(rng, max_shape=(9, 9, 9), max_channels=4)
            params = Conv(kernel, x.features.shape[1], int(rng.integers(1, 5)), rng)
            err = conv_oracle_error(x, kernel, params)
            assert err < 1e-10, f"{kernel}: max error {err:.3e}"


def _check_inverse_adjoint():
    # <u, conv(x)> must equal <x, inverse_conv(u)> with transposed weights
    rng = np.random.default_rng(11)
    kernel = KernelSpec((3, 3, 3), (2, 2, 2), "strided")
    for _ in range(10):
        x = random_sparse(rng, max_shape=(8, 8, 8), max_channels=4)
        c_in = x.features.shape[1]
        c_out = int(rng.integers(1, 5))
        params = Conv(kernel, c_in, c_out, rng)
        rb = build_rulebook(x, kernel)
        params.bias[...] = 0.0
        y = sparse_conv_forward(x, params, rb)
        u = y.with_features(rng.standard_normal(y.features.shape))
        transposed = Conv(kernel, c_out, c_in, np.random.default_rng())
        transposed.weights[...] = params.weights.transpose(0, 2, 1)
        back = inverse_conv_forward(u, transposed, rb)
        lhs = float((u.features * y.features).sum())
        rhs = float((back.features * x.features).sum())
        assert abs(lhs - rhs) < 1e-9, f"adjoint identity broken: {lhs} vs {rhs}"


def _check_lovasz_oracle():
    rng = np.random.default_rng(3)
    for _ in range(150):
        m = int(rng.integers(1, 7))
        k = int(rng.integers(2, 4))
        probs = softmax(rng.standard_normal((m, k)))
        targets = rng.integers(0, k, size=m)
        got, _ = lovasz_softmax(probs, targets)
        want = lovasz_brute_force(probs, targets)
        assert abs(got - want) < 1e-10, f"{got} vs {want}"
    perfect = np.eye(3)[[0, 1, 2, 1]]
    loss, _ = lovasz_softmax(perfect, np.array([0, 1, 2, 1]))
    # the subgradient at the optimum is legitimately nonzero; only the value is pinned
    assert loss == 0.0, "perfect predictions must cost exactly 0"


def _check_ce_values():
    logits = np.zeros((5, 4))
    value, _ = weighted_cross_entropy(logits, np.array([0, 1, 2, 3, 1]))
    assert abs(value - np.log(4.0)) < 1e-12, value
    report = segmentation_loss(logits, np.full(5, 255), logits[:2], np.full(2, 255))
    assert report.total == 0.0, "all-ignored rows must cost 0"
    assert not (report.grad_voxel_logits.any() or report.grad_point_logits.any())


def _check_loss_gradients():
    rng = np.random.default_rng(5)
    logits = rng.standard_normal((12, 3))
    targets = rng.integers(0, 3, size=12)
    weights = np.array([1.0, 2.0, 0.5])
    arrays = {"logits": logits}

    _, g = weighted_cross_entropy(logits, targets, weights)
    err = finite_diff_check(
        lambda: weighted_cross_entropy(arrays["logits"], targets, weights)[0],
        arrays,
        {"logits": g},
    )
    assert err < 1e-6, f"cross-entropy gradient error {err:.3e}"

    def lovasz_total():
        p = softmax(arrays["logits"])
        return lovasz_softmax(p, targets)[0]

    p = softmax(logits)
    _, gp = lovasz_softmax(p, targets)
    gz = softmax_grad_to_logits(p, gp)
    err = finite_diff_check(lovasz_total, arrays, {"logits": gz})
    assert err < 1e-6, f"lovasz gradient error {err:.3e}"


def _toy_setup(seed=0):
    grid = CylGridSpec(rho_range=(0.0, 12.0), z_range=(-1.0, 6.0), resolution=(8, 8, 4))
    config = NetworkConfig(num_classes=3, grid=grid, base_channels=4, stages=2,
                           point_mlp_widths=(8,), block_variant="asym")
    network = SegmentationNetwork(config, seed=seed)
    spec = SyntheticSceneSpec(seed=seed, num_points=256, max_range=12.0, pole_count=6,
                              box_count=4, inner_radius=1.0)
    return network, generate_synthetic_scene(spec)


def _network_loss(network, cloud):
    result = network.forward(cloud, training=True)
    targets = encode_cell_labels(result.mapping, cloud.labels, "majority", 3, 255)
    report = segmentation_loss(
        result.voxel_logits.features, targets, result.point_logits, cloud.labels
    )
    return result, targets, report


def _check_network_gradient():
    network, cloud = _toy_setup(seed=1)
    result, targets, report = _network_loss(network, cloud)
    network.zero_grads()
    network.backward(result, report.grad_voxel_logits, report.grad_point_logits)
    grads = {k: v.copy() for k, v in network.named_grads().items()}
    params = network.named_params()
    err = directional_grad_check(
        lambda: _network_loss(network, cloud)[2].total,
        params,
        grads,
        np.random.default_rng(2),
    )
    assert err < 1e-4, f"end-to-end directional gradient error {err:.3e}"


def _check_training_step():
    network, cloud = _toy_setup(seed=3)
    optimizer = Adam(network.named_params())
    first, *_, last = [train_step(network, optimizer, cloud).total for _ in range(5)]
    assert np.isfinite(last), "loss must stay finite"
    assert last < first, f"loss failed to decrease over 5 steps ({first} -> {last})"


def _check_partition_roundtrip():
    # the points reach past rho_max and both ends of the z range, so some
    # are clamped into the boundary bins
    rng = np.random.default_rng(9)
    xyz = rng.uniform(-9, 9, size=(500, 3))
    for grid in (
        CylGridSpec(rho_range=(0.0, 10.0), z_range=(-2.0, 2.0), resolution=(10, 12, 4)),
        CubicGridSpec((-6.0, 6.0), (-6.0, 6.0), (-2.0, 2.0), (8, 6, 4)),
    ):
        mapping = assign_cells(xyz, grid)
        assert mapping.cells.shape[0] >= 1
        binned = grid.bin_points(xyz)
        sites = mapping.cells[mapping.point_site]
        assert np.array_equal(sites, binned), f"{grid}: site lookup disagrees with binning"
        dense = densify(
            SparseTensor(mapping.cells, np.ones((mapping.num_cells, 1)), grid.resolution)
        )
        assert int((dense != 0).sum()) == mapping.num_cells


CHECKS = (
    ("sparse convolution matches dense oracle", _check_conv_oracle),
    ("inverse convolution is the adjoint", _check_inverse_adjoint),
    ("lovasz matches brute-force extension", _check_lovasz_oracle),
    ("cross-entropy analytic values", _check_ce_values),
    ("loss gradients pass finite differences", _check_loss_gradients),
    ("network gradient passes directional check", _check_network_gradient),
    ("optimizer steps reduce the loss", _check_training_step),
    ("partition round trip", _check_partition_roundtrip),
)


def run_selftest(out=print) -> bool:
    """Run all checks; prints one line each, returns overall success."""
    ok = True
    for name, fn in CHECKS:
        try:
            fn()
        except Exception as exc:  # noqa: BLE001 - report and keep going
            out(f"FAIL - {name}: {exc}")
            ok = False
        else:
            out(f"ok - {name}")
    return ok
