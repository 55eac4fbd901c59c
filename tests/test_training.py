import math
import os
import warnings

import numpy as np
import pytest

from cylseg.config import load_config
from cylseg.network import NetworkConfig, SegmentationNetwork
from cylseg.partition import CylGridSpec, encode_cell_labels
from cylseg.pointcloud import PointCloud, SyntheticSceneSpec, generate_synthetic_scene
from cylseg.selftest import lovasz_brute_force
from cylseg.training import (
    Adam,
    class_weights,
    directional_grad_check,
    evaluate_network,
    finite_diff_check,
    lovasz_softmax,
    segmentation_loss,
    softmax,
    train_network,
    train_step,
    weighted_cross_entropy,
)


# -------------------------------------------------------------------- softmax


def test_softmax_rows_are_distributions():
    rng = np.random.default_rng(50)
    p = softmax(rng.standard_normal((20, 5)))
    assert np.all(p > 0)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)


def test_softmax_shift_invariance():
    logits = np.array([[1.0, 2.0, 3.0]])
    np.testing.assert_allclose(softmax(logits), softmax(logits + 1000.0), atol=1e-12)


# -------------------------------------------------------------- cross entropy


def test_ce_confident_correct_approaches_zero():
    logits = np.array([[50.0, 0.0]])
    value, _ = weighted_cross_entropy(logits, np.array([0]))
    assert 0.0 <= value < 1e-20


def test_ce_uniform_logits_equals_log_k():
    value, _ = weighted_cross_entropy(np.zeros((6, 4)), np.array([0, 1, 2, 3, 0, 1]))
    assert value == pytest.approx(math.log(4.0), abs=1e-12)


def test_ce_matches_log_sum_exp_oracle():
    rng = np.random.default_rng(51)
    logits = rng.standard_normal((10, 3))
    targets = rng.integers(0, 3, size=10)
    weights = rng.uniform(0.5, 2.0, size=3)
    value, _ = weighted_cross_entropy(logits, targets, weights)

    num = 0.0
    den = 0.0
    for row, t in zip(logits, targets):
        log_p = row[t] - math.log(np.exp(row - row.max()).sum()) - row.max()
        num += weights[t] * -log_p
        den += weights[t]
    assert value == pytest.approx(num / den, abs=1e-12)


def test_ce_invariant_to_weight_scaling():
    rng = np.random.default_rng(52)
    logits = rng.standard_normal((8, 3))
    targets = rng.integers(0, 3, size=8)
    w = rng.uniform(0.1, 1.0, size=3)
    a, _ = weighted_cross_entropy(logits, targets, w)
    b, _ = weighted_cross_entropy(logits, targets, 17.0 * w)
    assert a == pytest.approx(b, rel=1e-14)


@pytest.mark.parametrize("bad", [255, -1])
def test_losses_refuse_a_target_outside_the_classes(bad):
    # the ignore id is dropped by segmentation_loss alone; here it is an error
    targets = np.array([0, bad, 1])
    with pytest.raises(ValueError, match="targets out of range"):
        weighted_cross_entropy(np.zeros((3, 2)), targets)
    with pytest.raises(ValueError, match="targets out of range"):
        lovasz_softmax(np.full((3, 2), 0.5), targets)


@pytest.mark.parametrize("loss", [weighted_cross_entropy, lovasz_softmax], ids=lambda f: f.__name__)
def test_losses_name_themselves_when_given_no_rows(loss):
    # used to be numpy's "zero-size array to reduction operation minimum ..."
    with pytest.raises(ValueError) as caught:
        loss(np.zeros((0, 3)), np.zeros(0, dtype=int))
    assert str(caught.value) == f"{loss.__name__} needs at least one labelled row"


def test_ce_stays_finite_at_a_logit_gap_of_1000():
    # exp(-1000) underflows to 0 in float64, so -log p_t would read inf
    value, grad = weighted_cross_entropy(np.array([[1000.0, 0.0, -5.0]]), np.array([1]))
    assert value == 1000.0
    np.testing.assert_array_equal(grad, [[1.0, -1.0, 0.0]])


def test_ce_gradient_finite_differences():
    rng = np.random.default_rng(54)
    logits = rng.standard_normal((6, 3))
    targets = rng.integers(0, 3, size=6)
    weights = rng.uniform(0.5, 2.0, size=3)

    def objective():
        return weighted_cross_entropy(logits, targets, weights)[0]

    _, grad = weighted_cross_entropy(logits, targets, weights)
    assert finite_diff_check(objective, {"logits": logits}, {"logits": grad}) < 1e-6


# --------------------------------------------------------------------- lovasz


def test_lovasz_perfect_predictions_cost_exactly_zero():
    probs = np.eye(3)[np.array([0, 2, 1, 1])]
    value, _ = lovasz_softmax(probs, np.array([0, 2, 1, 1]))
    assert value == 0.0


def test_lovasz_single_row_hand_computed():
    probs = np.array([[0.3, 0.7]])
    value, _ = lovasz_softmax(probs, np.array([0]))
    assert value == pytest.approx(0.7, abs=1e-12)


def test_lovasz_matches_brute_force_oracle():
    rng = np.random.default_rng(55)
    for _ in range(60):
        m = int(rng.integers(1, 7))
        k = int(rng.integers(2, 4))
        probs = softmax(rng.standard_normal((m, k)) * 2)
        targets = rng.integers(0, k, size=m)
        value, _ = lovasz_softmax(probs, targets)
        assert value == pytest.approx(lovasz_brute_force(probs, targets), abs=1e-10)


def test_lovasz_value_in_unit_interval():
    rng = np.random.default_rng(56)
    for _ in range(40):
        probs = softmax(rng.standard_normal((5, 3)) * 3)
        value, _ = lovasz_softmax(probs, rng.integers(0, 3, size=5))
        assert 0.0 <= value <= 1.0


def test_lovasz_improving_a_correct_class_never_hurts():
    # move probability mass from a wrong class onto the true class
    rng = np.random.default_rng(57)
    for _ in range(25):
        probs = softmax(rng.standard_normal((4, 3)))
        targets = rng.integers(0, 3, size=4)
        before, _ = lovasz_softmax(probs, targets)
        i = int(rng.integers(0, 4))
        wrong = (targets[i] + 1) % 3
        delta = 0.5 * probs[i, wrong]
        shifted = probs.copy()
        shifted[i, targets[i]] += delta
        shifted[i, wrong] -= delta
        after, _ = lovasz_softmax(shifted, targets)
        assert after <= before + 1e-12


def test_lovasz_through_softmax_gradient():
    rng = np.random.default_rng(58)
    logits = rng.standard_normal((5, 3))
    targets = rng.integers(0, 3, size=5)

    def objective():
        return lovasz_softmax(softmax(logits), targets)[0]

    probs = softmax(logits)
    _, grad_probs = lovasz_softmax(probs, targets)
    grad_logits = probs * (grad_probs - (grad_probs * probs).sum(axis=1, keepdims=True))
    assert finite_diff_check(objective, {"logits": logits}, {"logits": grad_logits}) < 1e-6


# -------------------------------------------------------------- combined loss


def test_loss_report_fields_sum_to_total():
    rng = np.random.default_rng(59)
    report = segmentation_loss(
        rng.standard_normal((6, 3)),
        rng.integers(0, 3, size=6),
        rng.standard_normal((10, 3)),
        rng.integers(0, 3, size=10),
    )
    assert report.total == report.voxel_ce + report.voxel_lovasz + report.point_ce
    assert np.isfinite(report.total)


def test_loss_near_zero_on_perfect_predictions():
    targets_v = np.array([0, 1, 2])
    targets_p = np.array([2, 2, 0, 1])
    logits_v = 60.0 * (np.eye(3)[targets_v] - 0.5)
    logits_p = 60.0 * (np.eye(3)[targets_p] - 0.5)
    report = segmentation_loss(logits_v, targets_v, logits_p, targets_p)
    assert report.total < 1e-8


def _padded_with_ignored_rows(rng, logits, targets, at):
    """``logits`` and ``targets`` with random rows labelled 255 inserted
    before the rows ``at``, and the mask of the original rows."""
    padded = np.insert(logits, at, rng.standard_normal((len(at), logits.shape[1])), axis=0)
    padded_targets = np.insert(targets, at, 255)
    return padded, padded_targets, padded_targets != 255


def _losses_with_and_without_ignored_rows(seed):
    rng = np.random.default_rng(seed)
    logits_v, targets_v = rng.standard_normal((5, 3)), np.array([0, 1, 2, 0, 1])
    logits_p, targets_p = rng.standard_normal((6, 3)), np.array([2, 0, 1, 1, 0, 2])
    base = segmentation_loss(logits_v, targets_v, logits_p, targets_p)
    padded_v, padded_tv, keep_v = _padded_with_ignored_rows(rng, logits_v, targets_v, [0, 3, 5])
    padded_p, padded_tp, keep_p = _padded_with_ignored_rows(rng, logits_p, targets_p, [2, 6])
    padded = segmentation_loss(padded_v, padded_tv, padded_p, padded_tp)
    return base, padded, keep_v, keep_p


def test_loss_ignored_rows_add_no_cross_entropy():
    base, padded, _, keep_p = _losses_with_and_without_ignored_rows(53)
    assert padded.voxel_ce == pytest.approx(base.voxel_ce, rel=1e-14)
    assert padded.point_ce == pytest.approx(base.point_ce, rel=1e-14)
    np.testing.assert_allclose(padded.grad_point_logits[keep_p], base.grad_point_logits,
                               atol=1e-14)
    assert not padded.grad_point_logits[~keep_p].any()


def test_loss_ignored_rows_add_no_lovasz():
    base, padded, keep_v, _ = _losses_with_and_without_ignored_rows(54)
    assert padded.voxel_lovasz == pytest.approx(base.voxel_lovasz, abs=1e-14)
    np.testing.assert_allclose(padded.grad_voxel_logits[keep_v], base.grad_voxel_logits,
                               atol=1e-14)
    assert not padded.grad_voxel_logits[~keep_v].any()


def test_loss_of_an_all_ignored_array_is_zero():
    logits_p, targets_p = np.array([[0.5, -1.0], [2.0, 0.0]]), np.array([1, 0])
    points_alone = segmentation_loss(np.ones((0, 2)), np.zeros(0, int), logits_p, targets_p)
    report = segmentation_loss(np.ones((3, 2)), np.full(3, 255), logits_p, targets_p)
    assert report.voxel_ce == report.voxel_lovasz == 0.0
    assert report.grad_voxel_logits.shape == (3, 2) and not report.grad_voxel_logits.any()
    assert report.point_ce == points_alone.point_ce
    np.testing.assert_array_equal(report.grad_point_logits, points_alone.grad_point_logits)
    report = segmentation_loss(np.ones((3, 2)), np.full(3, 255), np.ones((4, 2)), np.full(4, 255))
    assert report.total == 0.0
    assert report.grad_point_logits.shape == (4, 2) and not report.grad_point_logits.any()
    assert not report.grad_voxel_logits.any()


def test_class_weights_inverse_sqrt_frequency():
    labels = [np.array([0, 0, 0, 1, 255]), np.array([1, 2])]
    w = class_weights(labels, 3, 255)
    freq = np.array([3, 2, 1]) / 6.0
    np.testing.assert_allclose(w, 1.0 / np.sqrt(freq + 1e-3))
    assert w[0] < w[1] < w[2]


@pytest.mark.parametrize("bad", [3, -1, 256])
def test_class_weights_refuse_a_label_outside_the_classes(bad):
    # the ignore id stays skipped; anything else must be a class
    np.testing.assert_array_equal(class_weights([np.array([0, 255])], 3, 255),
                                  class_weights([np.array([0])], 3, 255))
    with pytest.raises(ValueError, match="^labels out of range$"):
        class_weights([np.array([0, 1, 255]), np.array([2, bad])], 3, 255)


# ----------------------------------------------------------------------- adam


def test_adam_zero_gradient_is_a_no_op():
    params = {"w": np.array([1.0, -2.0])}
    opt = Adam(params)
    opt.step({"w": np.zeros(2)})
    np.testing.assert_array_equal(params["w"], [1.0, -2.0])


def test_adam_first_step_hand_computed():
    g = np.array([0.3, -1.2])
    params = {"w": np.zeros(2)}
    opt = Adam(params, lr=1e-3)
    opt.step({"w": g.copy()})
    # bias correction at t=1 makes m_hat = g and v_hat = g^2
    expected = -1e-3 * g / (np.abs(g) + 1e-8)
    np.testing.assert_allclose(params["w"], expected, rtol=1e-12)


def test_adam_updates_in_place():
    arr = np.ones(3)
    opt = Adam({"w": arr})
    opt.step({"w": np.ones(3)})
    assert arr[0] != 1.0  # the caller's array itself moved


def test_adam_rejects_name_mismatch():
    opt = Adam({"w": np.zeros(2)})
    with pytest.raises(ValueError):
        opt.step({"v": np.zeros(2)})


def test_adam_is_deterministic():
    rng = np.random.default_rng(60)
    grads = [{"w": rng.standard_normal(4)} for _ in range(5)]
    outs = []
    for _ in range(2):
        params = {"w": np.linspace(-1, 1, 4)}
        opt = Adam(params)
        for g in grads:
            opt.step({"w": g["w"].copy()})
        outs.append(params["w"].copy())
    np.testing.assert_array_equal(outs[0], outs[1])


# ----------------------------------------------------------- gradient checker


def test_finite_diff_exact_on_quadratic():
    x = np.array([1.0, -2.0, 0.5])

    def objective():
        return float((x**2).sum())

    assert finite_diff_check(objective, {"x": x}, {"x": 2 * x}) < 1e-9


def test_finite_diff_flags_corrupted_gradient():
    x = np.array([1.0, -2.0, 0.5])

    def objective():
        return float((x**2).sum())

    bad = 2 * x
    bad[1] *= -1.0
    assert finite_diff_check(objective, {"x": x}, {"x": bad}) > 0.1


def test_finite_diff_raises_on_non_finite_objective():
    x = np.array([0.0])

    def objective():
        return float("nan")

    with pytest.raises(FloatingPointError):
        finite_diff_check(objective, {"x": x}, {"x": np.zeros(1)})


def test_directional_check_on_quadratic():
    rng = np.random.default_rng(61)
    x = rng.standard_normal(6)

    def objective():
        return float((x**2).sum())

    assert directional_grad_check(objective, {"x": x}, {"x": 2 * x}, rng) < 1e-9


# -------------------------------------------------------------- training loop


def _tiny_setup():
    grid = CylGridSpec(rho_range=(0.0, 12.0), z_range=(-1.0, 6.0), resolution=(16, 16, 4))
    config = NetworkConfig(
        num_classes=3, grid=grid, base_channels=4, stages=2, block_variant="asym",
        point_mlp_widths=(8,),
    )
    scene = SyntheticSceneSpec(seed=1, num_points=512, max_range=12.0, pole_count=6, box_count=4)
    return config, generate_synthetic_scene(scene)


def test_train_one_epoch_returns_finite_stats():
    config, cloud = _tiny_setup()
    net = SegmentationNetwork(config, seed=0)
    stats = train_network(net, [cloud], epochs=1, seed=0)
    assert len(stats) == 1
    assert np.isfinite(stats[0].total)
    assert math.isnan(stats[0].val_miou)  # no validation clouds given


def test_train_loss_drops_over_a_few_epochs():
    config, cloud = _tiny_setup()
    net = SegmentationNetwork(config, seed=0)
    stats = train_network(net, [cloud], epochs=5, seed=0)
    assert stats[-1].total < stats[0].total


def test_float32_training_step_tracks_the_float64_step():
    # train_step computes in float32; the float64 step is built by hand from
    # the same pieces on a twin network
    cfg = load_config(os.path.join(os.path.dirname(__file__), "..", "configs", "toy_train.cfg"))
    spec = SyntheticSceneSpec(seed=cfg.data.seed, num_points=cfg.data.points,
                              max_range=cfg.data.max_range)
    cloud = generate_synthetic_scene(spec)
    k = cfg.network.num_classes
    weights = class_weights([cloud.labels], k, cfg.ignore_id)

    net32 = SegmentationNetwork(cfg.network, seed=0)
    routes = []
    backward = net32.backward
    net32.backward = lambda result, *grads: (routes.append(result.point_logits.dtype),
                                             backward(result, *grads))
    optimizer = Adam(net32.named_params(), lr=cfg.train.lr)
    report32 = train_step(net32, optimizer, cloud, weights, cfg.ignore_id)
    assert routes == [np.float32]

    net64 = SegmentationNetwork(cfg.network, seed=0)
    result = net64.forward(cloud, training=True)
    targets = encode_cell_labels(result.mapping, cloud.labels, "majority", k, cfg.ignore_id)
    report64 = segmentation_loss(result.voxel_logits.features, targets, result.point_logits,
                                 cloud.labels, weights, cfg.ignore_id)
    net64.backward(result, report64.grad_voxel_logits, report64.grad_point_logits)

    for part in ("voxel_ce", "voxel_lovasz", "point_ce"):
        assert getattr(report32, part) == pytest.approx(getattr(report64, part), rel=1e-5)
    g32, g64 = net32.named_grads(), net64.named_grads()
    names = sorted(g64)
    diff = np.concatenate([(g32[n] - g64[n]).ravel() for n in names])
    scale = np.linalg.norm(np.concatenate([g64[n].ravel() for n in names]))
    assert np.linalg.norm(diff) <= 1e-4 * scale
    # per tensor against the global norm: a bias ahead of a batch norm has a
    # float64 gradient near 1e-16, which float32 cannot reproduce relatively
    worst = max(np.abs(g32[n] - g64[n]).max() for n in names)
    assert worst <= 1e-4 * scale

    # the master copies stay float64
    for arrays in (net32.named_params(), g32, net32.named_state(), optimizer.m, optimizer.v):
        assert {a.dtype for a in arrays.values()} == {np.dtype(np.float64)}


def test_a_step_that_overflows_float32_is_the_float64_step():
    # x = y = 3e38 is a finite float32, but the point's radius, 4.2e38, is
    # not: its input features hold inf, and a float32 batch norm makes NaN
    config, _ = _tiny_setup()
    xyz = np.array([[3e38, 3e38, 0.0], [1.0, 1.0, 0.0], [-2.0, 3.0, 1.0], [4.0, -1.0, 0.5]])
    cloud = PointCloud(xyz, np.zeros(4), np.array([0, 1, 2, 1]))
    net = SegmentationNetwork(config, seed=0)
    optimizer = Adam(net.named_params(), lr=1e-3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = train_step(net, optimizer, cloud)

    twin = SegmentationNetwork(config, seed=0)
    result = twin.forward(cloud, training=True)
    targets = encode_cell_labels(result.mapping, cloud.labels, "majority", 3, 255)
    expected = segmentation_loss(result.voxel_logits.features, targets, result.point_logits,
                                 cloud.labels, None, 255)
    twin.backward(result, expected.grad_voxel_logits, expected.grad_point_logits)
    Adam(twin.named_params(), lr=1e-3).step(twin.named_grads())

    assert report.total == expected.total
    for got, want in ((net.named_params(), twin.named_params()),
                      (net.named_grads(), twin.named_grads()),
                      (net.named_state(), twin.named_state())):
        assert {n: a.tobytes() for n, a in got.items()} == {n: a.tobytes() for n, a in want.items()}
    assert all(np.isfinite(p).all() for p in net.named_params().values())


def test_a_diverging_run_keeps_its_parameters_finite():
    # at lr = 1e9 float32 activations overflow from the second step on;
    # those steps are computed in float64, which stays finite
    config, cloud = _tiny_setup()
    net = SegmentationNetwork(config, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        stats = train_network(net, [cloud], epochs=3, lr=1e9, seed=0)
    assert all(np.isfinite(s.total) for s in stats)
    tensors = {**net.named_params(), **net.named_state()}
    assert all(np.isfinite(a).all() for a in tensors.values())


def test_train_is_bitwise_reproducible():
    config, cloud = _tiny_setup()
    runs = []
    for _ in range(2):
        net = SegmentationNetwork(config, seed=0)
        stats = train_network(net, [cloud], epochs=2, seed=0)
        runs.append((stats[-1].total, {k: v.copy() for k, v in net.named_params().items()}))
    assert runs[0][0] == runs[1][0]
    for name in runs[0][1]:
        np.testing.assert_array_equal(runs[0][1][name], runs[1][1][name])


def test_train_loads_each_item_only_when_a_step_or_a_validation_needs_it():
    # train_network used to take only clouds, so its caller held every scan
    # for the whole run; a loader is called once to count the class weights,
    # once per step and once per validation, so a cache or a second list of
    # loaded clouds changes the counts
    config, _ = _tiny_setup()
    specs = [SyntheticSceneSpec(seed=s, num_points=512, max_range=12.0) for s in range(5)]
    calls = [0] * len(specs)

    def loader(i):
        def load():
            calls[i] += 1
            return generate_synthetic_scene(specs[i])
        return load

    runs = []
    for items in ([generate_synthetic_scene(spec) for spec in specs],
                  [loader(i) for i in range(len(specs))]):
        net = SegmentationNetwork(config, seed=0)
        history = train_network(net, items[:3], items[3:], epochs=2, seed=0)
        tensors = [{n: a.tobytes() for n, a in named.items()}
                   for named in (net.named_params(), net.named_state())]
        runs.append((history, tensors))
    assert runs[1] == runs[0]
    assert calls == [3, 3, 3, 2, 2]


@pytest.mark.parametrize("lazy", [False, True], ids=["cloud", "loader"])
def test_train_refuses_an_unlabelled_cloud_before_its_first_step(lazy):
    # the class weights' count met the missing labels first and failed with
    # a TypeError; the count and every step make one check
    config, cloud = _tiny_setup()
    unlabelled = PointCloud(np.ones((4, 3)), np.zeros(4), None)
    net = SegmentationNetwork(config, seed=0)
    before = {n: a.tobytes() for n, a in net.named_params().items()}
    with pytest.raises(ValueError, match="^training clouds must carry labels$"):
        train_network(net, [cloud, (lambda: unlabelled) if lazy else unlabelled], epochs=1)
    assert {n: a.tobytes() for n, a in net.named_params().items()} == before
    with pytest.raises(ValueError, match="^training clouds must carry labels$"):
        train_step(net, Adam(net.named_params()), unlabelled)


def test_evaluate_network_returns_unit_interval_miou():
    config, cloud = _tiny_setup()
    net = SegmentationNetwork(config, seed=0)
    miou, iou, cm = evaluate_network(net, [cloud])
    assert 0.0 <= miou <= 1.0
    assert iou.shape == (3,)
