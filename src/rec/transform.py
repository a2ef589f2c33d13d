"""Function-preserving morphisms: widen a hidden layer by unit replication
(with outgoing-weight rescaling) or insert a ReLU identity layer.

Every transform returns, besides the new network, an IndexMap relating old
flat coordinates to new ones and a boolean mask over the new flat view that
marks parameters with no valid previous-task anchor (fresh or rescaled).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .netcore import IDENTITY, RELU, Arch, DenseNet, Layer

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


@dataclass
class IndexMap:
    """Old flat coordinate -> new flat coordinate, with a survival flag.

    preserved[i] is False when the coordinate's value changed in the transform
    (rescaled outgoing weights); such coordinates land inside the new mask and
    must not be anchored.
    """

    new_pos: np.ndarray    # int64 [old_count]
    preserved: np.ndarray  # bool  [old_count]

    @staticmethod
    def identity(count: int) -> "IndexMap":
        return IndexMap(np.arange(count, dtype=np.int64), np.ones(count, dtype=bool))

    def compose(self, later: "IndexMap") -> "IndexMap":
        return IndexMap(later.new_pos[self.new_pos],
                        self.preserved & later.preserved[self.new_pos])


def _flat_grids(arch: Arch) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-layer (weight, bias) arrays of flat-view positions."""
    ws = arch.widths
    return [(np.arange(w_sl.start, w_sl.stop, dtype=np.int64).reshape(fi, fo),
             np.arange(b_sl.start, b_sl.stop, dtype=np.int64))
            for (w_sl, b_sl), fi, fo in zip(arch.layer_slices(), ws[:-1], ws[1:])]


def net2wider(net: DenseNet, action: WiderAction, seed: int
              ) -> tuple[DenseNet, IndexMap, np.ndarray]:
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

    old_grids = _flat_grids(net.arch)
    new_grids = _flat_grids(new_arch)
    new_pos = np.empty(net.param_count(), dtype=np.int64)
    preserved = np.ones(net.param_count(), dtype=bool)
    for k, ((ow, ob), (nw_g, nb_g)) in enumerate(zip(old_grids, new_grids)):
        if k == l:
            # Original units keep their column index (pi(j) = j for j < w).
            new_pos[ow.ravel()] = nw_g[:, :w].ravel()
            new_pos[ob] = nb_g[:w]
        elif k == l + 1:
            new_pos[ow.ravel()] = nw_g[:w, :].ravel()
            new_pos[ob] = nb_g
            changed_rows = counts > 1
            preserved[ow[changed_rows, :].ravel()] = False
        else:
            new_pos[ow.ravel()] = nw_g.ravel()
            new_pos[ob] = nb_g

    mask = np.zeros(net2.param_count(), dtype=bool)
    (in_w, in_b), (out_w, _) = new_grids[l], new_grids[l + 1]
    mask[in_w[:, w:].ravel()] = True
    mask[in_b[w:]] = True
    rescaled = counts[pi] > 1
    mask[out_w[rescaled, :].ravel()] = True
    return net2, IndexMap(new_pos, preserved), mask


def net2deeper(net: DenseNet, action: DeeperAction) -> tuple[DenseNet, IndexMap, np.ndarray]:
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

    old_count = net.param_count()
    shift_at = net.arch.layer_slices()[k][1].stop  # flat offset just past layer k
    inserted = w * w + w
    new_pos = np.arange(old_count, dtype=np.int64)
    new_pos[shift_at:] += inserted
    mask = np.zeros(net2.param_count(), dtype=bool)
    mask[shift_at:shift_at + inserted] = True
    return net2, IndexMap(new_pos, np.ones(old_count, dtype=bool)), mask


def apply_actions(net: DenseNet, actions: list[WiderAction | DeeperAction], seed: int = 0
                  ) -> tuple[DenseNet, IndexMap, np.ndarray]:
    """Sequential composition of morphisms; enforces the per-episode caps."""
    n_wider = sum(isinstance(a, WiderAction) for a in actions)
    n_deeper = sum(isinstance(a, DeeperAction) for a in actions)
    if n_wider > MAX_WIDER_ACTIONS:
        raise CapViolation(f"{n_wider} wider actions exceed the cap of {MAX_WIDER_ACTIONS}")
    if n_deeper > MAX_DEEPER_ACTIONS:
        raise CapViolation(f"{n_deeper} deeper actions exceed the cap of {MAX_DEEPER_ACTIONS}")

    current = net
    index_map = IndexMap.identity(net.param_count())
    mask = np.zeros(net.param_count(), dtype=bool)
    for i, action in enumerate(actions):
        if isinstance(action, WiderAction):
            current, step_map, step_mask = net2wider(current, action, seed + i)
        else:
            current, step_map, step_mask = net2deeper(current, action)
        carried = step_mask.copy()
        carried[step_map.new_pos[mask]] = True
        mask = carried
        index_map = index_map.compose(step_map)
    return current, index_map, mask


def align_reference(anchor_params: np.ndarray, fisher_values: np.ndarray,
                    index_map: IndexMap, new_count: int,
                    old_invalid: np.ndarray | None = None
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Re-index previous-task anchor/Fisher vectors into a transformed net's
    flat view.

    Returns (anchor_new, fisher_new, extra_mask): zeros where no old value
    survives, plus the mask positions contributed by old_invalid coordinates
    (old parameters that must not be anchored, e.g. a replaced output head).
    """
    keep = index_map.preserved.copy()
    extra_mask = np.zeros(new_count, dtype=bool)
    if old_invalid is not None:
        extra_mask[index_map.new_pos[old_invalid & keep]] = True
        keep &= ~old_invalid
    anchor_new = np.zeros(new_count)
    fisher_new = np.zeros(new_count)
    anchor_new[index_map.new_pos[keep]] = anchor_params[keep]
    fisher_new[index_map.new_pos[keep]] = fisher_values[keep]
    return anchor_new, fisher_new, extra_mask


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
