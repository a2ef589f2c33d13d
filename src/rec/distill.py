"""Logit-matching knowledge distillation: compress an expanded child back to
the initial architecture (l2 loss on teacher logits, then joint hard+soft).
The student trains through regularize.train_task with a KD/CE objective
against the teacher's logits, a plain [n, K] array collected once."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .netcore import (Arch, Batch, DenseNet, backward, forward, init_network, loss_ce,
                      predict_logits)
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


def compress(teacher: DenseNet, initial_arch: Arch, dataset: Dataset,
             cfg: CompressConfig, batch_size: int, seed: int,
             init_net: DenseNet | None = None) -> DenseNet:
    """Train a student of the initial architecture against the teacher.

    Phase 1 minimizes the KD loss alone; phase 2 adds the ground-truth CE term
    with unit weighting, in minibatches of the caller's `batch_size` (the
    task's). The student starts from `init_net` when given (warm start from
    the carried model) and from a fresh init otherwise. The student's
    parameter count never exceeds the initial network's.
    """
    targets = collect_soft_targets(teacher, dataset)
    if init_net is not None:
        if init_net.arch != initial_arch:
            raise ValueError("warm-start network does not match the target architecture")
        student = init_net.copy()
    else:
        student = init_network(initial_arch, seed)
    warm = int(round(cfg.kd_warmup_frac * cfg.epochs))

    def objective(net: DenseNet, batch: Batch, rows: np.ndarray, epoch: int):
        logits, acts = forward(net, batch)
        value, dlogits = kd_loss(logits, targets[rows])
        if epoch >= warm:
            ce_v, ce_d = loss_ce(logits, batch.labels)
            value, dlogits = ce_v + value, ce_d + dlogits
        return value, backward(net, acts, dlogits)

    return train_task(student, dataset, objective, cfg.epochs, batch_size, cfg.lr,
                      seed, cfg.momentum)
