"""Losses, optimizer, gradient checking and the training loop.

The objective has three parts with unit weights: weighted cross-entropy on
the voxel logits, Lovasz-softmax on the voxel probabilities (a direct
surrogate for IoU), and weighted cross-entropy on the refined point logits.
Every loss returns both its value and its gradient w.r.t. the logits, so
the whole pipeline stays closed-form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Union

import numpy as np

from .metrics import ConfusionMatrix, compute_miou
from .network import SegmentationNetwork
from .partition import encode_cell_labels
from .pointcloud import PointCloud


def _shifted_exp(logits: np.ndarray):
    """``(z, exp(z), sum of exp(z) per row)`` for float64 logits shifted so
    each row's maximum is 0."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return z, e, e.sum(axis=1, keepdims=True)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, shifted for stability."""
    _, e, total = _shifted_exp(logits)
    return e / total


def softmax_grad_to_logits(probs: np.ndarray, grad_probs: np.ndarray) -> np.ndarray:
    """Chain a gradient w.r.t. probabilities back through the softmax."""
    inner = (grad_probs * probs).sum(axis=1, keepdims=True)
    return probs * (grad_probs - inner)


def class_weights(labels: Iterable[np.ndarray], num_classes: int, ignore_id: int) -> np.ndarray:
    """Inverse square-root frequency weights, 1 / sqrt(f_c + 1e-3).

    Frequencies are over all non-ignored labels pooled across the inputs,
    an iterable read once; absent classes get the maximum weight, which is
    harmless since they never contribute terms.
    """
    counts = np.zeros(num_classes, dtype=np.int64)
    for arr in labels:
        arr = np.asarray(arr)
        kept = arr[arr != ignore_id]
        if kept.size and (kept.min() < 0 or kept.max() >= num_classes):
            raise ValueError("labels out of range")
        counts += np.bincount(kept, minlength=num_classes)
    total = counts.sum()
    freq = counts / total if total > 0 else np.zeros(num_classes)
    return 1.0 / np.sqrt(freq + 1e-3)


def _labelled_targets(loss: str, targets, num_classes: int) -> np.ndarray:
    """``targets`` as int64; ``loss`` refuses no rows or a target outside the classes."""
    t = np.asarray(targets, dtype=np.int64)
    if t.size == 0:
        raise ValueError(f"{loss} needs at least one labelled row")
    if t.min() < 0 or t.max() >= num_classes:
        raise ValueError("targets out of range")
    return t


def weighted_cross_entropy(
    logits: np.ndarray, targets: np.ndarray, weights: Optional[np.ndarray] = None
):
    """Class-weighted cross-entropy over labelled rows (no rows, or a target
    outside the classes, is refused), normalized by the summed target weights.

    Returns (value, grad_logits). Each row's ``-log p_t`` is ``log sum exp(z
    - max) - (z_t - max)``, which stays finite where ``p_t`` underflows to 0
    (a target logit more than about 745 below the row's maximum).
    """
    k = np.shape(logits)[1]
    t = _labelled_targets("weighted_cross_entropy", targets, k)
    if weights is None:
        weights = np.ones(k)
    z, e, total = _shifted_exp(logits)
    p = e / total
    rows = np.arange(len(t))
    w = weights[t]
    denom = w.sum()
    value = float((w * (np.log(total[:, 0]) - z[rows, t])).sum() / denom)
    g = p * w[:, None]
    g[rows, t] -= w
    return value, g / denom


def lovasz_softmax(probs: np.ndarray, targets: np.ndarray):
    """Lovasz extension of the Jaccard loss over the softmax probabilities
    of labelled rows (no rows, or a target outside the classes, is refused).

    For each class c present among the targets, the errors m_i = |1{t_i =
    c} - p_ic| are sorted descending (stable) and dotted with the gradient
    of the Jaccard level-set interpolation; the loss is the mean over
    present classes. Returns (value, grad_probs); the gradient is
    piecewise-linear in each p column.
    """
    p = np.asarray(probs, dtype=np.float64)
    t = _labelled_targets("lovasz_softmax", targets, p.shape[1])
    grad = np.zeros_like(p)
    present = np.unique(t)
    total = 0.0
    for c in present:
        gt = (t == c).astype(np.float64)
        m = np.abs(gt - p[:, c])
        order = np.argsort(-m, kind="stable")
        g_sorted = gt[order]
        inter = gt.sum() - np.cumsum(g_sorted)
        union = gt.sum() + np.cumsum(1.0 - g_sorted)
        jacc = 1.0 - inter / union
        gvec = jacc.copy()
        gvec[1:] = jacc[1:] - jacc[:-1]
        total += float(m[order] @ gvec)
        # d m_i / d p_ic is -1 on the class, +1 off it
        sign = np.where(gt[order] > 0, -1.0, 1.0)
        grad[order, c] += gvec * sign / len(present)
    return total / len(present), grad


@dataclass
class LossReport:
    voxel_ce: float
    voxel_lovasz: float
    point_ce: float
    grad_voxel_logits: np.ndarray
    grad_point_logits: np.ndarray

    @property
    def total(self) -> float:
        return self.voxel_ce + self.voxel_lovasz + self.point_ce


def segmentation_loss(
    voxel_logits: np.ndarray,
    voxel_targets: np.ndarray,
    point_logits: np.ndarray,
    point_targets: np.ndarray,
    weights: Optional[np.ndarray] = None,
    ignore_id: int = 255,
) -> LossReport:
    """Sum of voxel CE, voxel Lovasz-softmax and point CE (unit weights).

    The only loss code that reads ``ignore_id``: the labelled rows of the
    voxels, then of the points, are selected once, the losses see only
    those, and each gradient is zero on the ignored rows. An array without
    a labelled row adds 0.0.
    """
    ce_v = lov = ce_p = 0.0
    grad_v, grad_p = np.zeros(voxel_logits.shape), np.zeros(point_logits.shape)
    keep = voxel_targets != ignore_id
    if keep.any():
        logits, targets = voxel_logits[keep], voxel_targets[keep]
        ce_v, g_ce = weighted_cross_entropy(logits, targets, weights)
        p = softmax(logits)
        lov, g_lov = lovasz_softmax(p, targets)
        grad_v[keep] = g_ce + softmax_grad_to_logits(p, g_lov)
    keep = point_targets != ignore_id
    if keep.any():
        ce_p, grad_p[keep] = weighted_cross_entropy(point_logits[keep], point_targets[keep], weights)
    return LossReport(ce_v, lov, ce_p, grad_v, grad_p)


# Adam's decay rates of the first and second moment estimates, and the
# epsilon added to the square root of the second
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class Adam(object):
    """Adam with bias correction; epsilon sits outside the square root.

    Parameters are updated in place, iterating names in sorted order so a
    run is reproducible regardless of dict construction order.
    """

    def __init__(self, params: Dict[str, np.ndarray], lr=1e-3):
        self.params = dict(params)
        self.lr = lr
        self.t = 0
        self.m = {n: np.zeros_like(p) for n, p in self.params.items()}
        self.v = {n: np.zeros_like(p) for n, p in self.params.items()}

    def step(self, grads: Dict[str, np.ndarray]) -> None:
        if set(grads) != set(self.params):
            raise ValueError("gradient names do not match the optimized parameters")
        self.t += 1
        c1 = 1.0 - ADAM_BETA1**self.t
        c2 = 1.0 - ADAM_BETA2**self.t
        for name in sorted(self.params):
            g = grads[name]
            m = self.m[name]
            v = self.v[name]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            step = np.multiply(1.0 - ADAM_BETA2, g)
            step *= g
            v *= ADAM_BETA2
            v += step
            # lr * (m / c1) / (sqrt(v / c2) + eps), in two buffers
            np.divide(m, c1, out=step)
            step *= self.lr
            denom = np.divide(v, c2)
            np.sqrt(denom, out=denom)
            denom += ADAM_EPS
            step /= denom
            self.params[name] -= step


def _relative_error(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def finite_diff_check(fn, arrays, analytic, rng=None, samples=None) -> float:
    """Max relative error between analytic grads and central differences.

    ``fn()`` must recompute the scalar objective from the arrays' current
    contents; entries are perturbed in place with h = cbrt(eps) * (|v| + 1)
    and restored. The relative error uses a unit floor in the denominator
    so near-zero gradients compare absolutely. ``samples`` caps the checked
    entries per array (sampled with ``rng``); by default every entry is
    checked.
    """
    step_scale = float(np.cbrt(np.finfo(np.float64).eps))
    worst = 0.0
    for name in sorted(arrays):
        arr = arrays[name]
        ref = np.asarray(analytic[name])
        flat = np.arange(arr.size)
        if samples is not None and arr.size > samples:
            flat = np.sort(rng.choice(arr.size, size=samples, replace=False))
        for j in flat:
            idx = np.unravel_index(j, arr.shape)
            v = arr[idx]
            h = step_scale * (abs(v) + 1.0)
            arr[idx] = v + h
            f_plus = fn()
            arr[idx] = v - h
            f_minus = fn()
            arr[idx] = v
            numeric = (f_plus - f_minus) / (2.0 * h)
            if not np.isfinite(numeric):
                raise FloatingPointError(f"non-finite objective while perturbing {name}")
            worst = max(worst, _relative_error(numeric, float(ref[idx])))
    return worst


def directional_grad_check(fn, arrays, analytic, rng) -> float:
    """Relative error between the central difference of ``fn`` along one
    random unit direction (drawn jointly over all arrays) and the analytic
    directional derivative. Cheap enough to run through the full network."""
    names = sorted(arrays)
    direction = {n: rng.standard_normal(arrays[n].shape) for n in names}
    norm = np.sqrt(sum(float((d * d).sum()) for d in direction.values()))
    if norm == 0.0:
        raise ValueError("empty parameter set")
    for d in direction.values():
        d /= norm
    h = float(np.cbrt(np.finfo(np.float64).eps))
    saved = {n: arrays[n].copy() for n in names}
    for n in names:
        arrays[n] += h * direction[n]
    f_plus = fn()
    for n in names:
        arrays[n][...] = saved[n] - h * direction[n]
    f_minus = fn()
    for n in names:
        arrays[n][...] = saved[n]
    numeric = (f_plus - f_minus) / (2.0 * h)
    exact = sum(float((np.asarray(analytic[n]) * direction[n]).sum()) for n in names)
    return _relative_error(numeric, exact)


# ---------------------------------------------------------------------------
# training loop


@dataclass
class EpochStats:
    epoch: int
    voxel_ce: float
    voxel_lovasz: float
    point_ce: float
    total: float
    val_miou: float  # NaN when no validation clouds were given


def evaluate_network(network: SegmentationNetwork, clouds: Iterable[PointCloud], ignore_id: int = 255):
    """Point-level confusion over ``clouds`` using the refined predictions."""
    cm = ConfusionMatrix(network.config.num_classes, ignore_id)
    for cloud in clouds:
        if cloud.labels is None:
            raise ValueError("evaluation clouds must carry labels")
        cm.update(cloud.labels, network.predict(cloud))
    iou, miou = compute_miou(cm)
    return miou, iou, cm


def train_step(
    network: SegmentationNetwork,
    optimizer: Adam,
    cloud: PointCloud,
    weights: Optional[np.ndarray] = None,
    ignore_id: int = 255,
) -> LossReport:
    """One cloud, one optimizer update. Returns the loss breakdown.

    The forward and backward passes compute in float32; the losses, the
    parameters, their gradients and Adam's moments are float64, the master
    copy of mixed-precision training (Micikevicius et al., ICLR 2018).
    Where float32 overflows (a point at x = y = 3e38, or activations of a
    diverging run) and the loss or a gradient is not finite, the batch-norm
    running statistics are restored and the step is computed in float64.
    """
    _training_labels(cloud)
    state = {name: arr.copy() for name, arr in network.named_state().items()}
    with np.errstate(over="ignore", invalid="ignore"):
        report = _gradients(network, cloud, weights, ignore_id, np.float32)
    grads = network.named_grads()
    if not (np.isfinite(report.total) and all(np.isfinite(g).all() for g in grads.values())):
        for name, arr in network.named_state().items():
            arr[...] = state[name]
        report = _gradients(network, cloud, weights, ignore_id, np.float64)
    optimizer.step(grads)
    return report


def _gradients(network, cloud, weights, ignore_id, dtype) -> LossReport:
    """The loss of one training-mode pass computed in ``dtype``, with the
    network's gradient buffers holding its gradients."""
    k = network.config.num_classes
    result = network.forward(cloud, training=True, _dtype=dtype)
    targets = encode_cell_labels(result.mapping, cloud.labels, "majority", k, ignore_id)
    report = segmentation_loss(
        result.voxel_logits.features,
        targets,
        result.point_logits,
        cloud.labels,
        weights,
        ignore_id,
    )
    network.zero_grads()
    network.backward(result, report.grad_voxel_logits, report.grad_point_logits)
    return report


def _cloud(item: Union[PointCloud, Callable[[], PointCloud]]) -> PointCloud:
    return item() if callable(item) else item


def _training_labels(cloud: PointCloud) -> np.ndarray:
    if cloud.labels is None:
        raise ValueError("training clouds must carry labels")
    return cloud.labels


def train_network(
    network: SegmentationNetwork,
    train_clouds: Sequence[Union[PointCloud, Callable[[], PointCloud]]],
    val_clouds: Sequence[Union[PointCloud, Callable[[], PointCloud]]] = (),
    epochs: int = 10,
    lr: float = 1e-3,
    seed: int = 0,
    ignore_id: int = 255,
    log=None,
) -> List[EpochStats]:
    """Adam over shuffled epochs; per-epoch mean losses plus validation mIoU.

    Each item is a cloud or a function of no arguments returning one, loaded
    only to count the class weights before the first step, for each of its
    steps, or for each validation: one loaded cloud is held at a time.

    Fully deterministic for a fixed seed: the shuffle stream, parameter
    init (owned by the caller) and every numeric kernel are reproducible.
    """
    if not train_clouds:
        raise ValueError("no training clouds")
    labels = (_training_labels(_cloud(c)) for c in train_clouds)
    weights = class_weights(labels, network.config.num_classes, ignore_id)
    optimizer = Adam(network.named_params(), lr=lr)
    history = []
    for epoch in range(epochs):
        rng = np.random.default_rng([seed, epoch])
        order = rng.permutation(len(train_clouds))
        sums = np.zeros(4)
        for i in order:
            report = train_step(network, optimizer, _cloud(train_clouds[i]), weights, ignore_id)
            sums += (report.voxel_ce, report.voxel_lovasz, report.point_ce, report.total)
        means = sums / len(order)
        val_miou = (evaluate_network(network, map(_cloud, val_clouds), ignore_id)[0]
                    if val_clouds else float("nan"))
        stats = EpochStats(epoch, means[0], means[1], means[2], means[3], val_miou)
        history.append(stats)
        if log is not None:
            log(
                f"epoch {epoch}: total {stats.total:.4f} "
                f"(ce_v {stats.voxel_ce:.4f}, lovasz {stats.voxel_lovasz:.4f}, "
                f"ce_p {stats.point_ce:.4f}) val_miou {stats.val_miou:.4f}"
            )
    return history
