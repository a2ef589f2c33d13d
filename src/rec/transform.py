"""Function-preserving morphisms: widen a hidden layer by unit replication
(with outgoing-weight rescaling) or insert a ReLU identity layer.

Every transform returns, besides the new network, a reference vector: an
int64 array `ref` over the new net's flat view where `ref[j]` is the old flat
position whose value coordinate j still holds, or -1 when it holds none
(replicated, rescaled or inserted). Composing steps and aligning the
previous-task anchor and Fisher both go through this one vector.

`apply_actions` makes every task's net from any list of actions (none: a copy);
the search's sampler (controller.sample_episode) limits an episode's actions.
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


def _flat_grids(arch: Arch) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-layer (weight, bias) arrays of flat-view positions."""
    ws = arch.widths
    return [(np.arange(w_sl.start, w_sl.stop, dtype=np.int64).reshape(fi, fo),
             np.arange(b_sl.start, b_sl.stop, dtype=np.int64))
            for (w_sl, b_sl), fi, fo in zip(arch.layer_slices, ws[:-1], ws[1:])]


def net2wider(net: DenseNet, action: WiderAction, seed: int) -> tuple[DenseNet, np.ndarray]:
    n_hidden = len(net.arch.hidden_widths)
    l = action.layer_index
    if not (0 <= l < n_hidden):
        raise ValueError(f"cannot widen layer {l}: only hidden layers 0..{n_hidden - 1}")
    w = net.arch.hidden_widths[l]
    nw = action.new_width
    if nw < w:
        raise ValueError(f"new width {nw} smaller than current {w}")

    rng = np.random.default_rng(seed)
    pi = np.concatenate([np.arange(w), rng.integers(0, w, size=nw - w)])
    counts = np.bincount(pi, minlength=w)

    layers = list(net.layers)  # DenseNet copies them into its own vector
    inc, out = net.layers[l], net.layers[l + 1]
    layers[l] = Layer(inc.weight[:, pi], inc.bias[pi])
    layers[l + 1] = Layer(out.weight[pi, :] / counts[pi][:, None], out.bias)
    new_hidden = list(net.arch.hidden_widths)
    new_hidden[l] = nw
    new_arch = Arch(net.arch.input_dim, tuple(new_hidden), net.arch.output_dim)
    net2 = DenseNet(new_arch, layers)

    # The same gathers on flat positions; -1 for replicas and rescaled rows.
    grids = _flat_grids(net.arch)
    (in_w, in_b), (out_w, out_b) = grids[l], grids[l + 1]
    replica = np.arange(nw) >= w
    grids[l] = np.where(replica, -1, in_w[:, pi]), np.where(replica, -1, in_b[pi])
    grids[l + 1] = np.where((counts[pi] > 1)[:, None], -1, out_w[pi, :]), out_b
    ref = np.concatenate([g.ravel() for pair in grids for g in pair])
    return net2, ref


def net2deeper(net: DenseNet, action: DeeperAction) -> tuple[DenseNet, np.ndarray]:
    n_hidden = len(net.arch.hidden_widths)
    k = action.insert_after
    if not (0 <= k < n_hidden):
        raise ValueError(f"cannot insert after position {k}: only hidden layers 0..{n_hidden - 1}")
    w = net.arch.hidden_widths[k]

    # Layer k is hidden, so its output is already ReLU'd: relu(I relu(v)) = relu(v).
    layers = list(net.layers)
    layers.insert(k + 1, Layer(np.eye(w), np.zeros(w)))
    new_hidden = list(net.arch.hidden_widths)
    new_hidden.insert(k + 1, w)
    new_arch = Arch(net.arch.input_dim, tuple(new_hidden), net.arch.output_dim)
    net2 = DenseNet(new_arch, layers)

    shift_at = net.arch.layer_slices[k][1].stop  # flat offset just past layer k
    ref = np.concatenate([np.arange(shift_at), np.full(w * w + w, -1),
                          np.arange(shift_at, net.param_count())])
    return net2, ref


def apply_actions(net: DenseNet, actions: list[WiderAction | DeeperAction],
                  seed: int = 0) -> tuple[DenseNet, np.ndarray]:
    """Sequential composition of morphisms: a new child (a copy of `net` when
    there are no actions) and its reference vector into `net`'s flat view."""
    current, ref = net, np.arange(net.param_count())
    for i, action in enumerate(actions):
        if isinstance(action, WiderAction):
            current, step = net2wider(current, action, seed + i)
        else:
            current, step = net2deeper(current, action)
        ref = np.where(step >= 0, ref[step], -1)
    return (current if actions else net.copy()), ref


def align_reference(values: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Previous-task per-coordinate values (anchor or Fisher) in the flat view
    that `ref` describes; zero where no previous value survives."""
    return np.where(ref >= 0, values[ref], 0.0)


def action_to_line(action: WiderAction | DeeperAction) -> str:
    if isinstance(action, WiderAction):
        return f"W {action.layer_index} {action.new_width}"
    return f"D {action.insert_after}"
