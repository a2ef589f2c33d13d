"""Function-preserving morphisms: widen a hidden layer by unit replication
(with outgoing-weight rescaling) or insert a ReLU identity layer.

`apply_actions` makes every task's net from any list of actions (none: a
copy); the search's sampler (controller.sample_episode) limits an episode's
actions. Each action edits the child's layer list and hidden widths in place,
together with one int64 grid per weight and bias that holds, per value, the
parent flat position it still holds, or -1 when it holds none (replicated,
rescaled or inserted). The child is built once at the end, and its grids,
flattened, are its reference vector `ref`: aligning the previous-task anchor
and Fisher goes through this one vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .netcore import Arch, DenseNet, Layer

@dataclass(frozen=True)
class WiderAction:
    layer_index: int  # hidden-layer position, 0-based
    new_width: int


@dataclass(frozen=True)
class DeeperAction:
    insert_after: int  # hidden-layer position the identity layer follows


Grids = list[tuple[np.ndarray, np.ndarray]]  # per layer: (weight, bias) int64 positions


def _flat_grids(arch: Arch) -> Grids:
    """Per-layer (weight, bias) arrays of flat-view positions."""
    ws = arch.widths
    return [(np.arange(w_sl.start, w_sl.stop, dtype=np.int64).reshape(fi, fo),
             np.arange(b_sl.start, b_sl.stop, dtype=np.int64))
            for (w_sl, b_sl), fi, fo in zip(arch.layer_slices, ws[:-1], ws[1:])]


def _widen(layers: list[Layer], grids: Grids, hidden: list[int],
           action: WiderAction, seed: int) -> None:
    l, nw = action.layer_index, action.new_width
    if not (0 <= l < len(hidden)):
        raise ValueError(f"cannot widen layer {l}: only hidden layers 0..{len(hidden) - 1}")
    w = hidden[l]
    if nw < w:
        raise ValueError(f"new width {nw} smaller than current {w}")

    rng = np.random.default_rng(seed)
    pi = np.concatenate([np.arange(w), rng.integers(0, w, size=nw - w)])
    inc, out = layers[l], layers[l + 1]
    counts = np.bincount(pi, minlength=w)[pi].astype(out.weight.dtype)  # divides in its dtype
    layers[l] = Layer(inc.weight[:, pi], inc.bias[pi])
    layers[l + 1] = Layer(out.weight[pi, :] / counts[:, None], out.bias)
    hidden[l] = nw

    # The same gathers on the grids; -1 for replicas and rescaled rows.
    (in_w, in_b), (out_w, out_b) = grids[l], grids[l + 1]
    replica = np.arange(nw) >= w
    grids[l] = np.where(replica, -1, in_w[:, pi]), np.where(replica, -1, in_b[pi])
    grids[l + 1] = np.where((counts > 1)[:, None], -1, out_w[pi, :]), out_b


def _deepen(layers: list[Layer], grids: Grids, hidden: list[int], action: DeeperAction) -> None:
    k = action.insert_after
    if not (0 <= k < len(hidden)):
        raise ValueError(f"cannot insert after position {k}: only hidden layers 0..{len(hidden) - 1}")
    w, dtype = hidden[k], layers[k].weight.dtype

    # Layer k is hidden, so its output is already ReLU'd: relu(I relu(v)) = relu(v).
    layers.insert(k + 1, Layer(np.eye(w, dtype=dtype), np.zeros(w, dtype)))
    hidden.insert(k + 1, w)
    grids.insert(k + 1, (np.full((w, w), -1, dtype=np.int64), np.full(w, -1, dtype=np.int64)))


def apply_actions(net: DenseNet, actions: list[WiderAction | DeeperAction],
                  seed: int = 0) -> tuple[DenseNet, np.ndarray]:
    """A new child of `net`, in its dtype, made by the actions in order
    (action i seeded with `seed + i`), and its reference vector into `net`'s
    flat view; `net` is left unchanged."""
    layers, grids, hidden = list(net.layers), _flat_grids(net.arch), list(net.arch.hidden_widths)
    for i, action in enumerate(actions):
        if isinstance(action, WiderAction):
            _widen(layers, grids, hidden, action, seed + i)
        else:
            _deepen(layers, grids, hidden, action)
    child = DenseNet(Arch(net.arch.input_dim, tuple(hidden), net.arch.output_dim), layers)
    return child, np.concatenate([g.ravel() for pair in grids for g in pair])


def align_reference(values: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Previous-task per-coordinate values (anchor or Fisher) in the flat view
    that `ref` describes; zero where no previous value survives."""
    return np.where(ref >= 0, values[ref], 0.0)


def action_to_line(action: WiderAction | DeeperAction) -> str:
    if isinstance(action, WiderAction):
        return f"W {action.layer_index} {action.new_width}"
    return f"D {action.insert_after}"
