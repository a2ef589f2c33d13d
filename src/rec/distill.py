"""Logit-matching knowledge distillation: compress an expanded child back into
the carried model (l2 loss on teacher logits, then joint hard+soft). A copy
of the carried net is the student, so the result keeps its architecture; it
trains through regularize.train_task with a KD/CE logit loss, against the
teacher's logits (a plain [n, K] array collected once), and no penalty."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .netcore import DenseNet, loss_ce, predict_logits
from .regularize import train_task


def collect_soft_targets(teacher: DenseNet, dataset: Dataset) -> np.ndarray:
    """The teacher's logits [n, K], row-aligned with the dataset; all finite."""
    if dataset.input_dim != teacher.arch.input_dim:
        raise ValueError("teacher input dim does not match dataset")
    logits = predict_logits(teacher, dataset.inputs)
    if not np.all(np.isfinite(logits)):
        raise ValueError("soft targets must be finite")
    return logits


def kd_loss(student_logits: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared l2 distance between student and teacher logits."""
    if student_logits.shape != targets.shape:
        raise ValueError("logit shapes differ")
    n = student_logits.shape[0]
    diff = student_logits - targets
    return float(np.sum(diff * diff) / n), 2.0 * diff / n


@dataclass(frozen=True)
class CompressConfig:
    epochs: int = 20
    lr: float = 0.005
    momentum: float = 0.0
    kd_warmup_frac: float = 0.25  # KD-only phase share of the epoch budget


def compress(teacher: DenseNet, student: DenseNet, dataset: Dataset,
             cfg: CompressConfig, batch_size: int, seed: int) -> DenseNet:
    """Train a copy of `student` against the teacher and return it.

    Phase 1 minimizes the KD loss alone; phase 2 adds the ground-truth CE term
    with unit weighting, in minibatches of the caller's `batch_size` (the
    task's). Training starts from the given net's parameters (a warm start
    from the carried model), so the result has its architecture and
    parameter count however far the teacher grew; the given net is unchanged.
    """
    targets = collect_soft_targets(teacher, dataset)
    warm = int(round(cfg.kd_warmup_frac * cfg.epochs))

    def kd_then_joint(logits: np.ndarray, labels: np.ndarray, rows: np.ndarray, epoch: int):
        value, dlogits = kd_loss(logits, targets[rows])
        if epoch >= warm:
            ce_v, ce_d = loss_ce(logits, labels)
            value, dlogits = ce_v + value, ce_d + dlogits
        return value, dlogits

    return train_task(student.copy(), dataset, kd_then_joint, None, cfg.epochs, batch_size,
                      cfg.lr, seed, cfg.momentum)
