"""Confusion-matrix bookkeeping and mean intersection-over-union."""

from __future__ import annotations

from typing import Optional

import numpy as np


class ConfusionMatrix:
    """Accumulates a KxK confusion matrix (rows: truth, columns: prediction).

    Points whose true label equals ``ignore_id`` are dropped. Any other label
    outside ``[0, num_classes)``, or any such prediction, is an error.
    """

    def __init__(self, num_classes: int, ignore_id: Optional[int] = None):
        if num_classes < 1:
            raise ValueError("num_classes must be positive")
        self.num_classes = num_classes
        self.ignore_id = ignore_id
        self.counts = np.zeros((num_classes, num_classes), dtype=np.int64)

    def update(self, truth: np.ndarray, pred: np.ndarray) -> None:
        truth = np.asarray(truth, dtype=np.int64).ravel()
        pred = np.asarray(pred, dtype=np.int64).ravel()
        if truth.shape != pred.shape:
            raise ValueError("truth and pred must have the same length")
        if self.ignore_id is not None:
            keep = truth != self.ignore_id
            truth, pred = truth[keep], pred[keep]
        if truth.size == 0:
            return
        k = self.num_classes
        if truth.min() < 0 or truth.max() >= k:
            raise ValueError("true labels out of range")
        if pred.min() < 0 or pred.max() >= k:
            raise ValueError("predictions out of range")
        self.counts += np.bincount(truth * k + pred, minlength=k * k).reshape(k, k)


def compute_miou(cm: ConfusionMatrix):
    """Per-class IoU and their mean.

    IoU_c = TP / (TP + FP + FN). Classes with TP + FP + FN = 0 get NaN and
    are excluded from the mean; the mean over zero classes is NaN.
    """
    counts = cm.counts.astype(np.float64)
    tp = np.diag(counts)
    fp = counts.sum(axis=0) - tp
    fn = counts.sum(axis=1) - tp
    denom = tp + fp + fn
    iou = np.full(cm.num_classes, np.nan)
    present = denom > 0
    iou[present] = tp[present] / denom[present]
    miou = float(np.mean(iou[present])) if present.any() else float("nan")
    return iou, miou


def format_iou_table(iou: np.ndarray, miou: float) -> str:
    """Render per-class IoU and mIoU as percentages with one decimal."""
    lines = []
    for c, value in enumerate(iou):
        name = f"class {c}"
        cell = "  n/a" if np.isnan(value) else f"{100.0 * value:5.1f}"
        lines.append(f"{name:<16s} {cell}")
    cell = "  n/a" if np.isnan(miou) else f"{100.0 * miou:5.1f}"
    lines.append(f"{'mIoU':<16s} {cell}")
    return "\n".join(lines)
