"""Logit-matching knowledge distillation: compress an expanded child back into
the carried model by an l2 loss on the teacher's logits, with no label loss
(the mimic objective of Ba & Caruana, arXiv 1312.6184). A copy of the carried
net is the student, so the result keeps its architecture; it trains through
regularize.train_task with the KD loss against the teacher's logits (a plain
[n, K] array collected once), and no penalty."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .netcore import DenseNet, predict_logits
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


def compress(teacher: DenseNet, student: DenseNet, dataset: Dataset,
             cfg: CompressConfig, batch_size: int, seed: int) -> DenseNet:
    """Train a copy of `student` against the teacher and return it.

    Every epoch minimizes the KD loss alone, in minibatches of the caller's
    `batch_size` (the task's); the labels are not read. Training starts from
    the given net's parameters (a warm start from the carried model), so the
    result has its architecture and parameter count however far the teacher
    grew; the given net is unchanged.
    """
    targets = collect_soft_targets(teacher, dataset)
    return train_task(student.copy(), dataset,
                      lambda logits, labels, rows: kd_loss(logits, targets[rows]), None,
                      cfg.epochs, batch_size, cfg.lr, seed, cfg.momentum)
