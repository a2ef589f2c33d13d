"""Fisher-diagonal estimation, the consolidation penalty, and the one
minibatch SGD loop every model in the package is trained with.

A step's loss is a logit loss (CE; KD and CE in distill) plus an optional
parameter penalty. The anchor (previous-task parameters) and its Fisher
diagonal are vectors aligned with a net's flat view, in the net's dtype: the
Fisher accumulates in it, and the penalty binds every vector it makes in the
anchor's. The penalty is quadratic Fisher anchoring + smoothed l2,1 coupling
of current/previous weights + smoothed l1 sparsity. With an expansion mask the
anchored terms skip new coordinates and l1 applies only to them; an absent or
all-False mask means no expansion, and l1 covers every coordinate.
`consolidation` (an anchor gathered through a transform reference vector) and
`mwc_loss` bind the penalty once per net: the closure `_bind` returns is one
pass over the bound terms that allocates no parameter-length array, and
`ewc_term`, `l21_term` and `l1_term` are the reference formulas it matches. A
`train_task` step is one forward, the logit loss, one backward, then the
penalty; `mwc_loss` is one such step with CE.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .data import Dataset
from .netcore import (CHUNK_ROWS, Batch, DenseNet, _softmax, backward, forward, layer_deltas,
                      loss_ce, sgd_step)
from .transform import align_reference


class TrainingDiverged(RuntimeError):
    pass


@dataclass(frozen=True)
class PenaltyConfig:
    lambda_ewc: float = 40.0
    lambda_21: float = 3e-5
    lambda_1: float = 1e-5
    epsilon: float = 1e-8

    def __post_init__(self):
        if not all(math.isfinite(x) and x >= 0
                   for x in (self.lambda_ewc, self.lambda_21, self.lambda_1)):
            raise ValueError("lambdas must be finite and nonnegative")
        if not (0 < self.epsilon <= 1e-4):
            raise ValueError("epsilon must be in (0, 1e-4]")


def estimate_fisher(net: DenseNet, dataset: Dataset, max_samples: int, seed: int) -> np.ndarray:
    """Empirical diagonal Fisher: mean squared gradient of log p(true label),
    over min(max_samples, len(dataset)) rows drawn without replacement.

    Per-sample gradients are never formed. Sample n's weight gradient in a
    dense layer is the outer product of its layer input a_n and its
    backpropagated error delta_n (onehot(y_n) - softmax at the logits, not
    divided by n), so with A and D stacking those rows,
    sum_n (a_ni * delta_nj)^2 = ((A*A).T @ (D*D))_ij, and the bias entry is
    sum_n delta_nj^2 (Goodfellow, arXiv 1510.01799). The sampled rows are
    gathered, and go through one forward and one backward sweep, CHUNK_ROWS
    (netcore's scoring chunk) at a time, which bounds the inputs and
    activation lists held when max_samples is the size of a large dataset.
    Equal to a per-sample forward/backward loop up to rounding.
    """
    if len(dataset) == 0:
        raise ValueError("cannot estimate Fisher on an empty dataset")
    if max_samples < 1:
        raise ValueError(f"max_samples must be >= 1, got {max_samples}")
    n = min(max_samples, len(dataset))
    idx = np.random.default_rng(seed).choice(len(dataset), size=n, replace=False)
    acc = np.zeros_like(net.params)
    for start in range(0, n, CHUNK_ROWS):
        rows = idx[start:start + CHUNK_ROWS]
        _add_squared_grads(net, Batch(dataset.inputs[rows], dataset.labels[rows]), acc)
    return acc / n


def _add_squared_grads(net: DenseNet, batch: Batch, acc: np.ndarray) -> None:
    """acc += the per-sample squared gradients of log p(label), summed over
    the batch. A function of its own so that a chunk's inputs, activations
    and deltas are released before the next chunk is gathered."""
    logits, acts = forward(net, batch)
    _, _, probs = _softmax(logits)
    # d log p(y) / dlogits = onehot(y) - softmax, one row per sample
    dlogits = -probs
    dlogits[np.arange(len(batch.labels)), batch.labels] += 1.0
    slices = net.arch.layer_slices
    for i, a_prev, delta in layer_deltas(net, acts, dlogits):
        sq = delta * delta
        w_sl, b_sl = slices[i]
        acc[w_sl] += ((a_prev * a_prev).T @ sq).ravel()
        acc[b_sl] += sq.sum(axis=0)


def ewc_term(params: np.ndarray, anchor: np.ndarray, fisher: np.ndarray,
             lambda_ewc: float) -> tuple[float, np.ndarray]:
    """(lambda/2) * sum_i F_i (theta_i - anchor_i)^2 and its gradient."""
    if params.shape != anchor.shape or params.shape != fisher.shape:
        raise ValueError("params/anchor/fisher lengths differ")
    diff = params - anchor
    value = 0.5 * lambda_ewc * float(np.sum(fisher * diff * diff))
    return value, lambda_ewc * fisher * diff


def l21_term(params: np.ndarray, anchor: np.ndarray, lambda_21: float,
             epsilon: float) -> tuple[float, np.ndarray]:
    """Row-wise l2,1 coupling: sum_i sqrt(theta_i^2 + anchor_i^2), smoothed.

    Groups are coordinate pairs (current, previous); the anchor is frozen so
    no gradient flows to it.
    """
    if params.shape != anchor.shape:
        raise ValueError("params/anchor lengths differ")
    root = np.sqrt(params ** 2 + anchor ** 2 + epsilon ** 2)
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


def _bind(anchor: np.ndarray, fisher: np.ndarray, cfg: PenaltyConfig,
          mask: np.ndarray | None) -> Callable:
    """penalty(params, grads) -> value for one net, which adds the gradient
    into grads in place. It closes over what does not depend on the params:
    lambda_ewc * F (None when lambda_ewc is 0), the root terms (a^2 or None, w)
    of sum w * sqrt(p^2 + a^2 + eps^2), w a scalar or a per-coordinate vector,
    and the two scratch vectors that hold every temporary of a call.

    A mask with any True entry marks expanded coordinates; anchor and fisher
    are then aligned to the net's flat view (zeros there; see
    transform.align_reference), so the Fisher term vanishes on them and one
    root sqrt(p^2 + a^2 + eps^2) serves, weighted lambda_21 on anchored and
    lambda_1 on new coordinates. Without expansion (None or all False) the
    l2,1 root is over (p, a) and the l1 root over p. A zero-lambda term is
    skipped. The gradient equals ewc_term and l21_term over the unmasked
    coordinates plus l1_term over the masked ones, added in that order, bit
    for bit up to the sign of an exact zero; the value, up to summation order.
    Every vector made here is in the anchor's dtype (a float32 anchor binds a
    float32 penalty).
    """
    if mask is not None:
        if mask.dtype != bool:
            raise ValueError(f"mask must be boolean, got dtype {mask.dtype}")
        if mask.shape != anchor.shape:
            raise ValueError("mask length differs from net parameter count")
    lam_21, lam_1 = cfg.lambda_21, cfg.lambda_1
    lam_fisher = cfg.lambda_ewc * fisher if cfg.lambda_ewc else None
    if mask is not None and mask.any():
        roots = ([(np.square(anchor), np.where(mask, lam_1, lam_21).astype(anchor.dtype))]
                 if lam_21 or lam_1 else [])
    else:
        roots = [(np.square(anchor), lam_21)] if lam_21 else []
        roots += [(None, lam_1)] if lam_1 else []
    eps2 = cfg.epsilon ** 2
    buf, work = np.empty_like(anchor), np.empty_like(anchor)

    def penalty(params: np.ndarray, grads: np.ndarray) -> float:
        value = 0.0
        if lam_fisher is not None:
            diff = np.subtract(params, anchor, out=buf)
            np.multiply(lam_fisher, diff, out=work)
            value += 0.5 * float(work @ diff)
            grads += work
        for anchor_sq, weight in roots:
            root = np.square(params, out=buf)
            if anchor_sq is not None:
                root += anchor_sq
            root += eps2
            np.sqrt(root, out=root)
            value += float(weight @ root) if np.ndim(weight) else weight * float(np.sum(root))
            np.multiply(weight, params, out=work)
            np.divide(work, root, out=work)  # `work /= root` would make work a local
            grads += work
        return value

    return penalty


def _step(net: DenseNet, batch: Batch, logit_loss: Callable, penalty: Callable | None,
          rows: np.ndarray | None, epoch: int) -> tuple[float, np.ndarray]:
    """One training step's loss value and flat gradient."""
    logits, acts = forward(net, batch)
    value, dlogits = logit_loss(logits, batch.labels, rows, epoch)
    grads = backward(net, acts, dlogits)
    if penalty is not None:
        value += penalty(net.params, grads)
    return value, grads


def mwc_loss(net: DenseNet, batch: Batch, anchor: np.ndarray | None, fisher: np.ndarray | None,
             cfg: PenaltyConfig, mask: np.ndarray | None = None) -> tuple[float, np.ndarray]:
    """Value and flat gradient of one training step with loss_ce and the
    bound penalty; without an anchor, of CE alone (the first-task objective)."""
    penalty = None if anchor is None else _bind(anchor, fisher, cfg, mask)
    return _step(net, batch, loss_ce, penalty, None, 0)


def consolidation(anchor: np.ndarray | None, fisher: np.ndarray | None, cfg: PenaltyConfig,
                  ref: np.ndarray) -> Callable | None:
    """The bound penalty for a net whose flat view `ref` describes (the vector
    transform.apply_actions returns with it), or None without an anchor. The
    anchor and Fisher are gathered through `ref`, and ref < 0 is the mask."""
    if anchor is None:
        return None
    return _bind(align_reference(anchor, ref), align_reference(fisher, ref), cfg, ref < 0)


def train_task(net: DenseNet, train_set: Dataset, logit_loss: Callable, penalty: Callable | None,
               epochs: int, batch_size: int, lr: float, seed: int,
               momentum: float = 0.0) -> DenseNet:
    """Minibatch SGD with seeded shuffling; mutates and returns net.

    Each step runs one forward, then logit_loss(logits, labels, rows, epoch)
    -> (value, dlogits), where rows index the batch into train_set and epoch
    counts from 0, then one backward, then (unless None) penalty(params,
    grads) -> value, which adds its gradient into grads in place. Raises
    TrainingDiverged on the first non-finite loss value or gradient;
    floating-point warnings on the way there are silenced.
    """
    rng = np.random.default_rng(seed)
    velocity = None
    n = len(train_set)
    with np.errstate(all="ignore"):
        for epoch in range(epochs):
            order = rng.permutation(n)
            for start in range(0, n, batch_size):
                idx = order[start:start + batch_size]
                batch = Batch(train_set.inputs[idx], train_set.labels[idx])
                value, grads = _step(net, batch, logit_loss, penalty, idx, epoch)
                if not np.isfinite(value) or not np.all(np.isfinite(grads)):
                    raise TrainingDiverged(
                        f"non-finite loss at epoch {epoch}, batch offset {start}: value={value}")
                velocity = sgd_step(net, grads, lr, momentum, velocity)
    return net
