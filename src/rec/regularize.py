"""Fisher-diagonal estimation, the consolidation penalty family, and the one
minibatch SGD loop every model in the package is trained with.

The combined loss is CE + quadratic Fisher anchoring + smoothed l2,1 coupling
of current/previous weights + smoothed l1 sparsity. With an expansion mask the
anchored terms skip new coordinates and the l1 term applies only to them; an
absent or all-False mask means no expansion, and l1 covers every coordinate.
`consolidation` builds that objective for a net whose previous-task reference
is re-indexed through an IndexMap; `train_task` runs SGD on any objective.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .data import Dataset
from .netcore import Batch, DenseNet, backward, forward, layer_deltas, loss_ce, sgd_step
from .transform import IndexMap, align_reference

FISHER_CHUNK = 512  # rows per forward/backward sweep in estimate_fisher


class TrainingDiverged(RuntimeError):
    pass


@dataclass
class FisherDiag:
    values: np.ndarray  # nonnegative, aligned with a flat view
    sample_count: int

    def __post_init__(self):
        if np.any(self.values < 0):
            raise ValueError("Fisher entries must be nonnegative")


@dataclass
class Anchor:
    params: np.ndarray  # frozen previous-task parameters


@dataclass(frozen=True)
class PenaltyConfig:
    lambda_ewc: float = 2.0
    lambda_21: float = 1e-4
    lambda_1: float = 1e-3
    epsilon: float = 1e-8

    def __post_init__(self):
        if min(self.lambda_ewc, self.lambda_21, self.lambda_1) < 0:
            raise ValueError("lambdas must be nonnegative")
        if not (0 < self.epsilon <= 1e-4):
            raise ValueError("epsilon must be in (0, 1e-4]")


def estimate_fisher(net: DenseNet, dataset: Dataset, max_samples: int, seed: int) -> FisherDiag:
    """Empirical diagonal Fisher: mean squared gradient of log p(true label).

    Per-sample gradients are never formed. Sample n's weight gradient in a
    dense layer is the outer product of its layer input a_n and its
    backpropagated error delta_n (onehot(y_n) - softmax at the logits, not
    divided by n), so with A and D stacking those rows,
    sum_n (a_ni * delta_nj)^2 = ((A*A).T @ (D*D))_ij, and the bias entry is
    sum_n delta_nj^2 (Goodfellow, arXiv 1510.01799). The sampled rows go
    through one forward and one backward sweep per FISHER_CHUNK rows, which
    bounds the cached activations when max_samples is the size of a large
    dataset. Equal to a per-sample forward/backward loop up to rounding.
    """
    if len(dataset) == 0:
        raise ValueError("cannot estimate Fisher on an empty dataset")
    if max_samples < 1:
        raise ValueError(f"max_samples must be >= 1, got {max_samples}")
    n = min(max_samples, len(dataset))
    idx = np.random.default_rng(seed).choice(len(dataset), size=n, replace=False)
    acc = np.zeros(net.param_count())
    slices = net.arch.layer_slices()
    for start in range(0, n, FISHER_CHUNK):
        rows = idx[start:start + FISHER_CHUNK]
        batch = Batch(dataset.inputs[rows], dataset.labels[rows])
        logits, cache = forward(net, batch)
        shifted = logits - logits.max(axis=1, keepdims=True)
        probs = np.exp(shifted)
        probs /= probs.sum(axis=1, keepdims=True)
        # d log p(y) / dlogits = onehot(y) - softmax, one row per sample
        dlogits = -probs
        dlogits[np.arange(len(rows)), batch.labels] += 1.0
        for i, a_prev, delta in layer_deltas(net, cache, dlogits):
            sq = delta * delta
            w_sl, b_sl = slices[i]
            acc[w_sl] += ((a_prev * a_prev).T @ sq).ravel()
            acc[b_sl] += sq.sum(axis=0)
    return FisherDiag(acc / n, n)


def ewc_term(params: np.ndarray, anchor: Anchor, fisher: FisherDiag,
             lambda_ewc: float) -> tuple[float, np.ndarray]:
    """(lambda/2) * sum_i F_i (theta_i - anchor_i)^2 and its gradient."""
    if params.shape != anchor.params.shape or params.shape != fisher.values.shape:
        raise ValueError("params/anchor/fisher lengths differ")
    diff = params - anchor.params
    value = 0.5 * lambda_ewc * float(np.sum(fisher.values * diff * diff))
    return value, lambda_ewc * fisher.values * diff


def l21_term(params: np.ndarray, anchor: Anchor, lambda_21: float,
             epsilon: float) -> tuple[float, np.ndarray]:
    """Row-wise l2,1 coupling: sum_i sqrt(theta_i^2 + anchor_i^2), smoothed.

    Groups are coordinate pairs (current, previous); the anchor is frozen so
    no gradient flows to it.
    """
    if params.shape != anchor.params.shape:
        raise ValueError("params/anchor lengths differ")
    root = np.sqrt(params ** 2 + anchor.params ** 2 + epsilon ** 2)
    return lambda_21 * float(np.sum(root)), lambda_21 * params / root


def l1_term(params: np.ndarray, mask: np.ndarray | None, lambda_1: float,
            epsilon: float) -> tuple[float, np.ndarray]:
    """Smoothed l1 over the masked coordinates (all coordinates if mask is None)."""
    if mask is not None and mask.shape != params.shape:
        raise ValueError("mask length differs from params")
    root = np.sqrt(params ** 2 + epsilon ** 2)
    grad = lambda_1 * params / root
    if mask is None:
        return lambda_1 * float(np.sum(root)), grad
    grad = np.where(mask, grad, 0.0)
    return lambda_1 * float(np.sum(root[mask])), grad


def mwc_loss(net: DenseNet, batch: Batch, anchor: Anchor | None, fisher: FisherDiag | None,
             cfg: PenaltyConfig, mask: np.ndarray | None = None) -> tuple[float, np.ndarray]:
    """Full consolidation objective: value and flat gradient.

    anchor/fisher absent disables every penalty (first-task objective). A mask
    with any True entry marks expanded coordinates: anchor and fisher must then
    already be aligned to the current flat view (zeros at masked positions; see
    transform.align_reference). None and an all-False mask both mean no
    expansion.
    """
    logits, cache = forward(net, batch)
    value, dlogits = loss_ce(logits, batch.labels)
    grads = backward(net, cache, dlogits)
    if anchor is None:
        return value, grads

    assert fisher is not None
    params = net.params
    if mask is not None and mask.shape != params.shape:
        raise ValueError("mask length differs from net parameter count")
    expanded = mask is not None and bool(mask.any())
    # Anchored terms on surviving coordinates only; aligned vectors carry zeros
    # at masked positions so restricting by `old` is exact.
    old = ~mask if expanded else slice(None)
    ref = Anchor(anchor.params[old])
    for v, g in (ewc_term(params[old], ref, FisherDiag(fisher.values[old], fisher.sample_count),
                          cfg.lambda_ewc),
                 l21_term(params[old], ref, cfg.lambda_21, cfg.epsilon)):
        value += v
        grads[old] += g
    v, g = l1_term(params, mask if expanded else None, cfg.lambda_1, cfg.epsilon)
    grads += g
    return value + v, grads


# objective(net, batch, rows, epoch) -> (loss value, flat gradient); rows are
# the batch's row indices into the training set, epoch counts from 0.
Objective = Callable[[DenseNet, Batch, np.ndarray, int], tuple[float, np.ndarray]]


def consolidation(anchor: Anchor | None, fisher: FisherDiag | None, cfg: PenaltyConfig,
                  count: int, index_map: IndexMap | None = None,
                  mask: np.ndarray | None = None, old_invalid: np.ndarray | None = None
                  ) -> Objective:
    """The mwc_loss objective for a net of `count` parameters.

    The previous-task anchor and Fisher are re-indexed into the net's flat view
    through `index_map` (identity when None). The loss mask is `mask` (the
    expansion's new coordinates, none when None) OR the new positions of the
    `old_invalid` coordinates (old parameters that must not be anchored, such
    as a replaced output head). Without an anchor the objective is plain CE.
    """
    if anchor is None:
        return lambda net, batch, rows, epoch: mwc_loss(net, batch, None, None, cfg)
    a_vec, f_vec, extra = align_reference(anchor.params, fisher.values,
                                          index_map or IndexMap.identity(count), count,
                                          old_invalid)
    mask = extra if mask is None else mask | extra
    aligned = Anchor(a_vec), FisherDiag(f_vec, fisher.sample_count)
    return lambda net, batch, rows, epoch: mwc_loss(net, batch, *aligned, cfg, mask)


def train_task(net: DenseNet, train_set: Dataset, objective: Objective, epochs: int,
               batch_size: int, lr: float, seed: int, momentum: float = 0.0) -> DenseNet:
    """Minibatch SGD on `objective`; seeded shuffling; mutates and returns net.

    Raises TrainingDiverged on the first non-finite loss value or gradient.
    """
    rng = np.random.default_rng(seed)
    velocity = None
    n = len(train_set)
    for epoch in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            batch = Batch(train_set.inputs[idx], train_set.labels[idx])
            value, grads = objective(net, batch, idx, epoch)
            if not np.isfinite(value) or not np.all(np.isfinite(grads)):
                raise TrainingDiverged(
                    f"non-finite loss at epoch {epoch}, batch offset {start}: value={value}")
            velocity = sgd_step(net, grads, lr, momentum, velocity)
    return net
