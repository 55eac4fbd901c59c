import csv
import math

import numpy as np
import pytest

from cylseg.network import NetworkConfig, SegmentationNetwork
from cylseg.partition import CylGridSpec
from cylseg.pointcloud import SyntheticSceneSpec, generate_synthetic_scene
from cylseg.selftest import lovasz_brute_force
from cylseg.training import (
    METRICS_HEADER,
    Adam,
    EpochStats,
    class_weights,
    directional_grad_check,
    evaluate_network,
    finite_diff_check,
    lovasz_softmax,
    segmentation_loss,
    softmax,
    train_network,
    weighted_cross_entropy,
    write_metrics_csv,
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


def test_ce_ignored_rows_contribute_nothing():
    rng = np.random.default_rng(53)
    logits = rng.standard_normal((5, 3))
    targets = np.array([0, 1, 2, 0, 1])
    base, base_grad = weighted_cross_entropy(logits, targets)

    padded_logits = np.vstack([logits, rng.standard_normal((2, 3))])
    padded_targets = np.concatenate([targets, [255, 255]])
    value, grad = weighted_cross_entropy(padded_logits, padded_targets)
    assert value == pytest.approx(base, rel=1e-14)
    np.testing.assert_allclose(grad[:5], base_grad, atol=1e-14)
    assert not grad[5:].any()


def test_ce_all_ignored_is_zero():
    value, grad = weighted_cross_entropy(np.ones((3, 2)), np.full(3, 255))
    assert value == 0.0
    assert not grad.any()


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


def test_lovasz_ignores_ignore_rows():
    probs = np.array([[0.8, 0.2], [0.4, 0.6], [0.5, 0.5]])
    targets = np.array([0, 1, 255])
    a, _ = lovasz_softmax(probs, targets, ignore_id=255)
    b, _ = lovasz_softmax(probs[:2], targets[:2], ignore_id=255)
    assert a == pytest.approx(b, abs=1e-14)


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


def test_class_weights_inverse_sqrt_frequency():
    labels = [np.array([0, 0, 0, 1, 255]), np.array([1, 2])]
    w = class_weights(labels, 3, 255)
    freq = np.array([3, 2, 1]) / 6.0
    np.testing.assert_allclose(w, 1.0 / np.sqrt(freq + 1e-3))
    assert w[0] < w[1] < w[2]


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


def test_evaluate_network_returns_unit_interval_miou():
    config, cloud = _tiny_setup()
    net = SegmentationNetwork(config, seed=0)
    miou, iou, cm = evaluate_network(net, [cloud])
    assert 0.0 <= miou <= 1.0
    assert iou.shape == (3,)


def test_metrics_csv_header_and_rows(tmp_path):
    stats = [
        EpochStats(0, 1.0, 0.5, 1.2, 2.7, 0.4),
        EpochStats(1, 0.9, 0.4, 1.0, 2.3, float("nan")),
    ]
    path = tmp_path / "metrics.csv"
    write_metrics_csv(stats, path)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(METRICS_HEADER)
    assert lines[0] == "epoch,l_voxel_ce,l_voxel_lovasz,l_point_ce,total,val_miou"
    assert len(lines) == 3
    assert lines[1].startswith("0,")


def test_metrics_csv_from_training_holds_plain_numbers(tmp_path):
    # train_network's epoch means are numpy scalars; every cell must still
    # parse as a plain number
    config, cloud = _tiny_setup()
    stats = train_network(SegmentationNetwork(config, seed=0), [cloud], [cloud], epochs=1, seed=0)
    path = tmp_path / "metrics.csv"
    write_metrics_csv(stats, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert len(rows) == 1 and len(rows[0]) == len(METRICS_HEADER)
    values = [float(cell) for cell in rows[0]]
    assert all(math.isfinite(v) for v in values)
