"""Losses, optimizer, gradient checking and the training loop.

The objective has three parts with unit weights: weighted cross-entropy on
the voxel logits, Lovasz-softmax on the voxel probabilities (a direct
surrogate for IoU), and weighted cross-entropy on the refined point logits.
Every loss returns both its value and its gradient w.r.t. the logits, so
the whole pipeline stays closed-form.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from .metrics import ConfusionMatrix, compute_miou
from .network import SegmentationNetwork
from .partition import encode_cell_labels
from .pointcloud import PointCloud


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, shifted for stability."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def softmax_grad_to_logits(probs: np.ndarray, grad_probs: np.ndarray) -> np.ndarray:
    """Chain a gradient w.r.t. probabilities back through the softmax."""
    inner = (grad_probs * probs).sum(axis=1, keepdims=True)
    return probs * (grad_probs - inner)


def class_weights(labels: Sequence[np.ndarray], num_classes: int, ignore_id: int) -> np.ndarray:
    """Inverse square-root frequency weights, 1 / sqrt(f_c + 1e-3).

    Frequencies are over all non-ignored labels pooled across the inputs;
    absent classes get the maximum weight, which is harmless since they
    never contribute terms.
    """
    counts = np.zeros(num_classes, dtype=np.int64)
    for arr in labels:
        arr = np.asarray(arr)
        keep = arr != ignore_id
        counts += np.bincount(arr[keep], minlength=num_classes)
    total = counts.sum()
    freq = counts / total if total > 0 else np.zeros(num_classes)
    return 1.0 / np.sqrt(freq + 1e-3)


def weighted_cross_entropy(
    logits: np.ndarray,
    targets: np.ndarray,
    weights: Optional[np.ndarray] = None,
    ignore_id: int = 255,
):
    """Class-weighted cross-entropy, normalized by the summed target weights.

    Returns (value, grad_logits). Rows whose target equals ``ignore_id``
    contribute nothing; if every row is ignored the loss is zero.
    """
    logits = np.asarray(logits, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.int64)
    k = logits.shape[1]
    if weights is None:
        weights = np.ones(k)
    grad = np.zeros_like(logits)
    keep = targets != ignore_id
    if not keep.any():
        return 0.0, grad
    t = targets[keep]
    if t.min() < 0 or t.max() >= k:
        raise ValueError("targets out of range")
    p = softmax(logits[keep])
    w = weights[t]
    denom = w.sum()
    value = float((w * -np.log(p[np.arange(len(t)), t])).sum() / denom)
    g = p * w[:, None]
    g[np.arange(len(t)), t] -= w
    grad[keep] = g / denom
    return value, grad


def lovasz_softmax(
    probs: np.ndarray, targets: np.ndarray, ignore_id: Optional[int] = None
):
    """Lovasz extension of the Jaccard loss over softmax probabilities.

    For each class c present among the (kept) targets, the errors
    m_i = |1{t_i = c} - p_ic| are sorted descending (stable) and dotted
    with the gradient of the Jaccard level-set interpolation; the loss is
    the mean over present classes. Returns (value, grad_probs); the
    gradient is piecewise-linear in each p column.
    """
    probs = np.asarray(probs, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.int64)
    grad = np.zeros_like(probs)
    keep = (
        np.ones(len(targets), dtype=bool) if ignore_id is None else targets != ignore_id
    )
    if not keep.any():
        return 0.0, grad
    rows = np.nonzero(keep)[0]
    p = probs[rows]
    t = targets[rows]
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
        grad[rows[order], c] += gvec * sign / len(present)
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
    """Sum of voxel CE, voxel Lovasz-softmax and point CE (unit weights)."""
    ce_v, g_ce_v = weighted_cross_entropy(voxel_logits, voxel_targets, weights, ignore_id)
    p = softmax(voxel_logits)
    lov, g_lov_p = lovasz_softmax(p, voxel_targets, ignore_id)
    g_lov = softmax_grad_to_logits(p, g_lov_p)
    ce_p, g_ce_p = weighted_cross_entropy(point_logits, point_targets, weights, ignore_id)
    return LossReport(ce_v, lov, ce_p, g_ce_v + g_lov, g_ce_p)


class Adam(object):
    """Adam with bias correction; epsilon sits outside the square root.

    Parameters are updated in place, iterating names in sorted order so a
    run is reproducible regardless of dict construction order.
    """

    def __init__(self, params: Dict[str, np.ndarray], lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = dict(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {n: np.zeros_like(p) for n, p in self.params.items()}
        self.v = {n: np.zeros_like(p) for n, p in self.params.items()}

    def step(self, grads: Dict[str, np.ndarray]) -> None:
        if set(grads) != set(self.params):
            raise ValueError("gradient names do not match the optimized parameters")
        self.t += 1
        c1 = 1.0 - self.beta1**self.t
        c2 = 1.0 - self.beta2**self.t
        for name in sorted(self.params):
            g = grads[name]
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            self.params[name] -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


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


METRICS_HEADER = ("epoch", "l_voxel_ce", "l_voxel_lovasz", "l_point_ce", "total", "val_miou")


def write_metrics_csv(stats: Sequence[EpochStats], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRICS_HEADER)
        for s in stats:
            values = (s.voxel_ce, s.voxel_lovasz, s.point_ce, s.total, s.val_miou)
            writer.writerow([s.epoch, *(repr(float(v)) for v in values)])


def evaluate_network(network: SegmentationNetwork, clouds: Sequence[PointCloud], ignore_id: int = 255):
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
    """One cloud, one optimizer update. Returns the loss breakdown."""
    if cloud.labels is None:
        raise ValueError("training clouds must carry labels")
    k = network.config.num_classes
    result = network.forward(cloud, training=True)
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
    optimizer.step(network.named_grads())
    return report


def train_network(
    network: SegmentationNetwork,
    train_clouds: Sequence[PointCloud],
    val_clouds: Sequence[PointCloud] = (),
    epochs: int = 10,
    lr: float = 1e-3,
    seed: int = 0,
    ignore_id: int = 255,
    log=None,
) -> List[EpochStats]:
    """Adam over shuffled epochs; per-epoch mean losses plus validation mIoU.

    Fully deterministic for a fixed seed: the shuffle stream, parameter
    init (owned by the caller) and every numeric kernel are reproducible.
    """
    if not train_clouds:
        raise ValueError("no training clouds")
    weights = class_weights(
        [c.labels for c in train_clouds], network.config.num_classes, ignore_id
    )
    optimizer = Adam(network.named_params(), lr=lr)
    history = []
    for epoch in range(epochs):
        rng = np.random.default_rng([seed, epoch])
        order = rng.permutation(len(train_clouds))
        sums = np.zeros(4)
        for i in order:
            report = train_step(network, optimizer, train_clouds[i], weights, ignore_id)
            sums += (report.voxel_ce, report.voxel_lovasz, report.point_ce, report.total)
        means = sums / len(order)
        val_miou = evaluate_network(network, val_clouds, ignore_id)[0] if val_clouds else float("nan")
        stats = EpochStats(epoch, means[0], means[1], means[2], means[3], val_miou)
        history.append(stats)
        if log is not None:
            log(
                f"epoch {epoch}: total {stats.total:.4f} "
                f"(ce_v {stats.voxel_ce:.4f}, lovasz {stats.voxel_lovasz:.4f}, "
                f"ce_p {stats.point_ce:.4f}) val_miou {stats.val_miou:.4f}"
            )
    return history
