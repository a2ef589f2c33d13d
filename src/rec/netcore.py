"""Minimal dense-network engine: init, forward, CE loss, manual backprop, SGD.

A net's dtype is its params': the dtype of the layers it was built from
(`init_network` takes it as an argument). Everything that trains or scores a
net allocates in that dtype, so a float32 net with float32 inputs computes in
float32 throughout. A DenseNet owns one contiguous parameter vector
`params`; each layer's weight and bias are views into it. The flat ordering
is, per layer, W.ravel() (row-major) followed by b, with the offsets given by
Arch.layer_slices; every module in this package that talks about "aligned
vectors" means this ordering.

Every layer but the last applies ReLU; the last emits raw logits. The rule is
positional: a Layer holds only its weight and bias.

A forward pass returns its activation list `acts`: acts[i] is layer i's input
and acts[-1] the logits; backprop reads nothing else.

The two head rules are written once: `_softmax` (CE loss, Fisher, controller
head) and `_hits`, the argmax hit count (`evaluate`, the expansion search).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

CHUNK_ROWS = 512  # rows per sweep in predict_logits and regularize.estimate_fisher


@dataclass(frozen=True)
class Arch:
    """Layer structure of a dense classifier: input -> hidden widths -> K logits."""

    input_dim: int
    hidden_widths: tuple[int, ...]
    output_dim: int

    def __post_init__(self):
        object.__setattr__(self, "hidden_widths", tuple(int(w) for w in self.hidden_widths))
        if self.input_dim < 1 or self.output_dim < 1:
            raise ValueError(f"bad arch dims: {self.input_dim}, {self.output_dim}")
        if any(w < 1 for w in self.hidden_widths):
            raise ValueError(f"hidden widths must be >= 1: {self.hidden_widths}")

    @property
    def widths(self) -> list[int]:
        return [self.input_dim, *self.hidden_widths, self.output_dim]

    @property
    def num_layers(self) -> int:
        return len(self.hidden_widths) + 1

    def param_count(self) -> int:
        return self.layer_slices[-1][1].stop

    @cached_property
    def layer_slices(self) -> tuple[tuple[slice, slice], ...]:
        """Flat-vector (weight_slice, bias_slice) per layer, computed once per Arch."""
        out, off = [], 0
        ws = self.widths
        for fi, fo in zip(ws[:-1], ws[1:]):
            out.append((slice(off, off + fi * fo), slice(off + fi * fo, off + fi * fo + fo)))
            off += fi * fo + fo
        return tuple(out)


@dataclass
class Layer:
    weight: np.ndarray  # [fan_in, fan_out]
    bias: np.ndarray    # [fan_out]


class DenseNet:
    """Dense classifier over one parameter vector.

    The constructor copies the given layers into a fresh `params` vector, in
    their dtype, and keeps new Layer objects whose weight and bias are views
    into it, so the caller's arrays are never aliased. Update `params` in
    place only; binding a new array to it would detach the layers.
    """

    def __init__(self, arch: Arch, layers: list[Layer]):
        ws = arch.widths
        if len(layers) != arch.num_layers:
            raise ValueError("layer count does not match arch")
        for l, (fi, fo) in zip(layers, zip(ws[:-1], ws[1:])):
            if l.weight.shape != (fi, fo) or l.bias.shape != (fo,):
                raise ValueError(f"layer shape {l.weight.shape} does not chain with arch {ws}")
        self.arch = arch
        self.params = np.concatenate([a for l in layers for a in (l.weight.ravel(), l.bias)])
        self.layers = [Layer(self.params[w_sl].reshape(l.weight.shape), self.params[b_sl])
                       for l, (w_sl, b_sl) in zip(layers, arch.layer_slices)]

    def copy(self) -> "DenseNet":
        return DenseNet(self.arch, self.layers)

    def param_count(self) -> int:
        return self.params.size

    def get_flat(self) -> np.ndarray:
        return self.params.copy()

    def set_flat(self, flat: np.ndarray) -> None:
        if flat.shape != self.params.shape:
            raise ValueError(f"flat vector length {flat.shape} != {self.param_count()}")
        self.params[...] = flat


@dataclass
class Batch:
    inputs: np.ndarray  # [n, input_dim]
    labels: np.ndarray  # [n], ints in 0..K-1

    def __post_init__(self):
        if self.inputs.ndim != 2 or self.labels.ndim != 1:
            raise ValueError("batch must be 2-D inputs and 1-D labels")
        if self.inputs.shape[0] != self.labels.shape[0] or self.inputs.shape[0] < 1:
            raise ValueError("batch size mismatch or empty batch")


def init_network(arch: Arch, seed: int, dtype=np.float64) -> DenseNet:
    """He-initialized network in `dtype`: W ~ N(0, 2/fan_in), biases zero.
    Deterministic per seed: the weights are drawn in float64, then cast."""
    rng = np.random.default_rng(seed)
    ws = arch.widths
    return DenseNet(arch, [Layer(rng.normal(0.0, np.sqrt(2.0 / fi), size=(fi, fo)).astype(dtype),
                                 np.zeros(fo, dtype)) for fi, fo in zip(ws[:-1], ws[1:])])


def _activations(net: DenseNet, inputs: np.ndarray) -> list[np.ndarray]:
    acts = [inputs]
    for l in net.layers:
        z = acts[-1] @ l.weight  # the bias and the ReLU go into this one array
        z += l.bias
        if l is not net.layers[-1]:
            np.maximum(z, 0.0, out=z)
        acts.append(z)
    return acts


def forward(net: DenseNet, batch: Batch) -> tuple[np.ndarray, list[np.ndarray]]:
    """The logits and the activation list (every layer's input, then the logits)."""
    if batch.inputs.shape[1] != net.arch.input_dim:
        raise ValueError(f"input dim {batch.inputs.shape[1]} != arch {net.arch.input_dim}")
    acts = _activations(net, batch.inputs)
    return acts[-1], acts


def _softmax(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(shifted, z, probs): each row minus its max, the row sums z [n, 1] of
    exp(shifted), and the softmax. The row max is read from a transposed copy,
    faster at these widths and exact in any order."""
    shifted = logits - np.ascontiguousarray(logits.T).max(axis=0)[:, None]
    probs = np.exp(shifted)
    z = probs.sum(axis=1, keepdims=True)
    probs /= z
    return shifted, z, probs


def loss_ce(logits: np.ndarray, labels: np.ndarray,
            rows: np.ndarray | None = None) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy and its gradient w.r.t. the logits. rows is
    unused; with it this is a regularize.train_task logit loss."""
    n = logits.shape[0]
    shifted, z, probs = _softmax(logits)
    value = float(np.mean(np.log(z[:, 0]) - shifted[np.arange(n), labels]))
    dlogits = probs
    dlogits[np.arange(n), labels] -= 1.0
    dlogits /= n
    return value, dlogits


def layer_deltas(net: DenseNet, acts: list[np.ndarray], dlogits: np.ndarray
                 ) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Backpropagate `dlogits` (one row per sample) from the output layer down.

    Yields (i, acts[i], delta) for i = last..0: delta is the loss gradient
    w.r.t. layer i's z = acts[i] @ W + b, so the weight gradient is
    acts[i].T @ delta. Between layers the error goes through W.T and the ReLU
    mask acts[i] > 0, which holds exactly where the pre-activation is > 0.
    """
    delta = dlogits
    for i in range(len(net.layers) - 1, -1, -1):
        yield i, acts[i], delta
        if i > 0:
            delta = (delta @ net.layers[i].weight.T) * (acts[i] > 0)


def backward(net: DenseNet, acts: list[np.ndarray], dlogits: np.ndarray) -> np.ndarray:
    """Gradient of the loss w.r.t. every parameter, as a flat vector."""
    if dlogits.shape != acts[-1].shape:
        raise ValueError("dlogits shape does not match the forward logits")
    grads = np.empty_like(net.params)
    slices = net.arch.layer_slices
    for i, a_prev, delta in layer_deltas(net, acts, dlogits):
        w_sl, b_sl = slices[i]
        # The weight gradient goes straight into its slice (no temporary, no
        # copy); the bias row is small enough that np.sum(out=)'s argument
        # handling costs more than the copy it saves.
        np.matmul(a_prev.T, delta, out=grads[w_sl].reshape(a_prev.shape[1], delta.shape[1]))
        grads[b_sl] = delta.sum(axis=0)
    return grads


def sgd_step(net: DenseNet, grads: np.ndarray, lr: float, momentum: float = 0.0,
             velocity: np.ndarray | None = None) -> np.ndarray:
    """One (momentum) SGD step on net.params in place; returns the velocity
    buffer, updated in place (a new one when none is given)."""
    if velocity is None:
        velocity = np.zeros_like(grads)
    velocity *= momentum
    velocity += grads
    net.params -= lr * velocity
    return velocity


def predict_logits(net: DenseNet, inputs: np.ndarray) -> np.ndarray:
    if inputs.shape[0] == 0:
        raise ValueError("empty dataset")
    return np.vstack([_activations(net, inputs[i:i + CHUNK_ROWS])[-1]
                      for i in range(0, inputs.shape[0], CHUNK_ROWS)])


def _hits(net: DenseNet, inputs: np.ndarray, labels: np.ndarray) -> int:
    """Rows whose argmax logit (ties to the lowest class) is the label."""
    return int(np.count_nonzero(np.argmax(predict_logits(net, inputs), axis=1) == labels))


def evaluate(net: DenseNet, inputs: np.ndarray, labels: np.ndarray) -> float:
    """Accuracy: the hits over the row count."""
    return _hits(net, inputs, labels) / inputs.shape[0]
