"""Fisher-diagonal estimation, the consolidation penalty, and the one
minibatch SGD loop every model in the package is trained with.

A step's loss is a logit loss (CE; KD and CE in distill) plus an optional
parameter penalty. The anchor (previous-task parameters) and its Fisher
diagonal are float64 vectors aligned with a net's flat view. The penalty is
quadratic Fisher anchoring + smoothed l2,1 coupling of current/previous
weights + smoothed l1 sparsity. With an expansion mask the anchored terms skip
new coordinates and l1 applies only to them; an absent or all-False mask means
no expansion, and l1 covers every coordinate. `mwc_penalty` evaluates the
terms on full-length vectors and skips every term whose lambda is 0;
`ewc_term`, `l21_term` and `l1_term` are the reference formulas it matches.
`consolidation` binds it to an anchor gathered through a reference vector
(transform). A `train_task` step is one forward, the logit loss, one backward,
then the penalty; `mwc_loss` is one such step with CE.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .data import Dataset
from .netcore import CHUNK_ROWS, Batch, DenseNet, backward, forward, layer_deltas, loss_ce, sgd_step
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
        if min(self.lambda_ewc, self.lambda_21, self.lambda_1) < 0:
            raise ValueError("lambdas must be nonnegative")
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
    acc = np.zeros(net.param_count())
    for start in range(0, n, CHUNK_ROWS):
        rows = idx[start:start + CHUNK_ROWS]
        _add_squared_grads(net, Batch(dataset.inputs[rows], dataset.labels[rows]), acc)
    return acc / n


def _add_squared_grads(net: DenseNet, batch: Batch, acc: np.ndarray) -> None:
    """acc += the per-sample squared gradients of log p(label), summed over
    the batch. A function of its own so that a chunk's inputs, activations
    and deltas are released before the next chunk is gathered."""
    logits, acts = forward(net, batch)
    shifted = logits - logits.max(axis=1, keepdims=True)
    probs = np.exp(shifted)
    probs /= probs.sum(axis=1, keepdims=True)
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


def mwc_penalty(params: np.ndarray, grads: np.ndarray, anchor: np.ndarray,
                fisher: np.ndarray, cfg: PenaltyConfig, mask: np.ndarray | None = None) -> float:
    """The consolidation penalty at `params`: returns its value and adds its
    gradient into `grads` in place.

    A mask with any True entry marks expanded coordinates: anchor and fisher
    must then already be aligned to the current flat view (zeros at masked
    positions; see transform.align_reference). None and an all-False mask both
    mean no expansion.

    Each term is computed on full-length vectors, and a term whose lambda is 0
    is skipped. The zeros of aligned vectors make the Fisher term vanish on
    masked coordinates, and there sqrt(p^2 + a^2 + eps^2) is the l1 root, so
    an expanded net gets one root weighted lambda_21 on anchored and lambda_1
    on new coordinates. The gradient added equals ewc_term and l21_term over
    the unmasked coordinates plus l1_term over the masked ones, added in that
    order, bit for bit (up to the sign of an exact zero, which a skipped term
    can flip); the value equals their sum up to summation order.
    """
    p, a = params, anchor
    if mask is not None and mask.shape != p.shape:
        raise ValueError("mask length differs from net parameter count")
    lam_21, lam_1 = cfg.lambda_21, cfg.lambda_1
    # Every temporary of the penalty lives in these two vectors, updated in
    # place, so a step allocates two parameter-length arrays, not one per op.
    buf, work = np.empty_like(p), np.empty_like(p)
    value = 0.0
    if cfg.lambda_ewc:
        diff = np.subtract(p, a, out=buf)
        np.multiply(cfg.lambda_ewc, fisher, out=work)
        work *= diff
        value += 0.5 * float(work @ diff)
        grads += work
    eps2 = cfg.epsilon ** 2
    if mask is not None and mask.any():
        if lam_21 or lam_1:
            root = _smoothed_root(p, a, eps2, buf, work)
            work.fill(lam_21)
            work[mask] = lam_1
            value += float(work @ root)
            work *= p
            work /= root
            grads += work
        return value
    for lam, anchored in ((lam_21, a), (lam_1, None)):
        if lam:
            root = _smoothed_root(p, anchored, eps2, buf, work)
            value += lam * float(np.sum(root))
            np.multiply(lam, p, out=work)
            work /= root
            grads += work
    return value


def _smoothed_root(p: np.ndarray, a: np.ndarray | None, eps2: float, out: np.ndarray,
                   work: np.ndarray) -> np.ndarray:
    """out <- sqrt(p^2 + a^2 + eps2), or sqrt(p^2 + eps2) without a; work is scratch."""
    np.square(p, out=out)
    if a is not None:
        out += np.square(a, out=work)
    out += eps2
    return np.sqrt(out, out=out)


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
    """Value and flat gradient of one training step with loss_ce and
    mwc_penalty; without an anchor, of CE alone (the first-task objective)."""
    penalty = None if anchor is None else (
        lambda params, grads: mwc_penalty(params, grads, anchor, fisher, cfg, mask))
    return _step(net, batch, loss_ce, penalty, None, 0)


def consolidation(anchor: np.ndarray | None, fisher: np.ndarray | None, cfg: PenaltyConfig,
                  ref: np.ndarray) -> Callable | None:
    """mwc_penalty for a net whose flat view `ref` describes (the vector
    transform.apply_actions returns with it), or None without an anchor. The
    anchor and Fisher are gathered through `ref`, and ref < 0 is the mask."""
    if anchor is None:
        return None
    aligned = align_reference(anchor, ref), align_reference(fisher, ref)
    mask = ref < 0
    return lambda params, grads: mwc_penalty(params, grads, *aligned, cfg, mask)


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
