"""Function-preserving morphisms: widen a hidden layer by unit replication
(with outgoing-weight rescaling) or insert a ReLU identity layer.

Every transform returns, besides the new network, a reference vector: an
int64 array `ref` over the new net's flat view where `ref[j]` is the old flat
position whose value coordinate j still holds, or -1 when it holds none
(replicated, rescaled or inserted). Composing steps and aligning the
previous-task anchor and Fisher both go through this one vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .netcore import RELU, Arch, DenseNet, Layer

MAX_WIDER_ACTIONS = 2
MAX_DEEPER_ACTIONS = 3


class CapViolation(ValueError):
    pass


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
            for (w_sl, b_sl), fi, fo in zip(arch.layer_slices(), ws[:-1], ws[1:])]


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
    layers[l] = Layer(inc.weight[:, pi], inc.bias[pi], inc.activation)
    layers[l + 1] = Layer(out.weight[pi, :] / counts[pi][:, None], out.bias, out.activation)
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
    if net.layers[k].activation != RELU:
        raise ValueError("identity insertion requires a ReLU predecessor")
    w = net.arch.hidden_widths[k]

    layers = list(net.layers)
    layers.insert(k + 1, Layer(np.eye(w), np.zeros(w), RELU))
    new_hidden = list(net.arch.hidden_widths)
    new_hidden.insert(k + 1, w)
    new_arch = Arch(net.arch.input_dim, tuple(new_hidden), net.arch.output_dim)
    net2 = DenseNet(new_arch, layers)

    shift_at = net.arch.layer_slices()[k][1].stop  # flat offset just past layer k
    ref = np.concatenate([np.arange(shift_at), np.full(w * w + w, -1),
                          np.arange(shift_at, net.param_count())])
    return net2, ref


def apply_actions(net: DenseNet, actions: list[WiderAction | DeeperAction], seed: int = 0,
                  ref: np.ndarray | None = None) -> tuple[DenseNet, np.ndarray, np.ndarray]:
    """Sequential composition of morphisms; enforces the per-episode caps.

    `ref` is the base reference vector over `net`'s flat view (identity when
    None). Returns (child, the child's reference vector, ref < 0).
    """
    n_wider = sum(isinstance(a, WiderAction) for a in actions)
    n_deeper = sum(isinstance(a, DeeperAction) for a in actions)
    if n_wider > MAX_WIDER_ACTIONS:
        raise CapViolation(f"{n_wider} wider actions exceed the cap of {MAX_WIDER_ACTIONS}")
    if n_deeper > MAX_DEEPER_ACTIONS:
        raise CapViolation(f"{n_deeper} deeper actions exceed the cap of {MAX_DEEPER_ACTIONS}")

    current = net
    if ref is None:
        ref = np.arange(net.param_count())
    for i, action in enumerate(actions):
        if isinstance(action, WiderAction):
            current, step = net2wider(current, action, seed + i)
        else:
            current, step = net2deeper(current, action)
        ref = np.where(step >= 0, ref[step], -1)
    return current, ref, ref < 0


def align_reference(values: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Previous-task per-coordinate values (anchor or Fisher) in the flat view
    that `ref` describes; zero where no previous value survives."""
    return np.where(ref >= 0, values[ref], 0.0)


def action_to_line(action: WiderAction | DeeperAction) -> str:
    if isinstance(action, WiderAction):
        return f"W {action.layer_index} {action.new_width}"
    return f"D {action.insert_after}"


def parse_action_line(line: str) -> WiderAction | DeeperAction:
    parts = line.split()
    if parts[0] == "W" and len(parts) == 3:
        return WiderAction(int(parts[1]), int(parts[2]))
    if parts[0] == "D" and len(parts) == 2:
        return DeeperAction(int(parts[1]))
    raise ValueError(f"unparseable action line: {line!r}")
