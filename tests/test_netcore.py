import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rec import netcore
from rec.controller import _deeper_probs, init_policy
from rec.data import Dataset
from rec.netcore import (Arch, Batch, DenseNet, Layer, backward,
                         evaluate, forward, init_network, loss_ce, predict_logits,
                         sgd_step)
from rec.regularize import estimate_fisher

from conftest import central_diff, max_rel_err


def tiny_net(w1, b1, w2, b2):
    """1-1-1 net: relu hidden unit, identity output."""
    return DenseNet(Arch(1, (1,), 1), [
        Layer(np.array([[w1]]), np.array([b1])),
        Layer(np.array([[w2]]), np.array([b2])),
    ])


class TestInit:
    def test_deterministic(self):
        a = init_network(Arch(4, (3,), 2), seed=7)
        b = init_network(Arch(4, (3,), 2), seed=7)
        assert np.array_equal(a.get_flat(), b.get_flat())

    def test_param_count_hand(self):
        assert Arch(4, (3,), 2).param_count() == 4 * 3 + 3 + 3 * 2 + 2  # 23

    def test_param_count_paper_scale(self):
        assert Arch(784, (100, 100), 10).param_count() == 89_610

    def test_biases_zero(self):
        net = init_network(Arch(4, (3,), 2), seed=0)
        for l in net.layers:
            assert np.all(l.bias == 0)

    def test_bad_arch_rejected(self):
        with pytest.raises(ValueError):
            Arch(0, (3,), 2)
        with pytest.raises(ValueError):
            Arch(4, (0,), 2)


class TestParameterVector:
    def test_layers_are_views_of_params(self):
        net = init_network(Arch(4, (3,), 2), seed=0)
        for l, (w_sl, b_sl) in zip(net.layers, net.arch.layer_slices):
            assert np.shares_memory(l.weight, net.params[w_sl])
            assert np.shares_memory(l.bias, net.params[b_sl])

    def test_sgd_step_moves_layer_weights(self):
        net = init_network(Arch(4, (3,), 2), seed=0)
        before = [l.weight.copy() for l in net.layers]
        sgd_step(net, np.ones(net.param_count()), lr=0.5)
        for l, w in zip(net.layers, before):
            assert np.array_equal(l.weight, w - 0.5)

    def test_constructor_leaves_caller_arrays_alone(self):
        layers = [Layer(np.ones((2, 3)), np.zeros(3)),
                  Layer(np.ones((3, 2)), np.zeros(2))]
        net = DenseNet(Arch(2, (3,), 2), layers)
        sgd_step(net, np.ones(net.param_count()), lr=1.0)
        for mine, theirs in zip(layers, net.layers):
            assert mine is not theirs
            assert not np.shares_memory(mine.weight, net.params)
            assert not np.shares_memory(mine.bias, net.params)
        assert np.all(layers[0].weight == 1.0) and np.all(layers[1].bias == 0.0)

    def test_copy_shares_no_memory(self):
        net = init_network(Arch(4, (3,), 2), seed=0)
        other = net.copy()
        assert not np.shares_memory(other.params, net.params)
        for a, b in zip(other.layers, net.layers):
            assert not np.shares_memory(a.weight, net.params)
            assert not np.shares_memory(a.bias, net.params)
        assert np.array_equal(other.params, net.params)


class TestForward:
    def test_identity_single_layer(self, rng):
        net = DenseNet(Arch(3, (), 3), [Layer(np.eye(3), np.zeros(3))])
        x = rng.standard_normal((5, 3))
        logits, _ = forward(net, Batch(x, np.zeros(5, dtype=int)))
        assert np.array_equal(logits, x)

    def test_hand_eval_positive(self):
        net = tiny_net(2.0, -1.0, 3.0, 0.0)
        logits, _ = forward(net, Batch(np.array([[1.0]]), np.array([0])))
        assert logits[0, 0] == pytest.approx(3.0)  # 3*relu(2*1-1)

    def test_hand_eval_relu_clamp(self):
        net = tiny_net(2.0, -1.0, 3.0, 0.0)
        logits, _ = forward(net, Batch(np.array([[0.0]]), np.array([0])))
        assert logits[0, 0] == 0.0  # 3*relu(-1)

    def test_shape_mismatch(self):
        net = init_network(Arch(4, (3,), 2), seed=0)
        with pytest.raises(ValueError):
            forward(net, Batch(np.zeros((2, 5)), np.zeros(2, dtype=int)))


class TestLossCE:
    def test_uniform_two_class(self):
        value, _ = loss_ce(np.array([[0.0, 0.0]]), np.array([0]))
        assert value == pytest.approx(np.log(2), rel=1e-12)

    def test_stabilized_no_overflow(self):
        value, d = loss_ce(np.array([[1000.0, 0.0]]), np.array([0]))
        assert value == pytest.approx(0.0, abs=1e-12)
        assert np.all(np.isfinite(d))

    def test_dlogits_vs_finite_difference(self, rng):
        logits = rng.standard_normal((4, 5))
        labels = rng.integers(0, 5, 4)
        _, d = loss_ce(logits.copy(), labels)
        fd = central_diff(lambda v: loss_ce(v.reshape(4, 5), labels)[0], logits.ravel())
        assert max_rel_err(d.ravel(), fd) < 1e-6

    def test_nonnegative_and_zero_only_at_point_mass(self, rng):
        for _ in range(20):
            v, _ = loss_ce(rng.standard_normal((3, 4)), rng.integers(0, 4, 3))
            assert v >= 0
        # near point mass -> near zero
        v, _ = loss_ce(np.array([[50.0, 0.0, 0.0]]), np.array([0]))
        assert v < 1e-12


def ref_softmax(logits):
    """The max-shifted softmax written out with a row-wise max: the reference
    netcore._softmax must match bit for bit."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    probs = np.exp(shifted)
    z = probs.sum(axis=1, keepdims=True)
    return shifted, z, probs / z


def ref_loss_ce(logits, labels):
    n = logits.shape[0]
    shifted, z, probs = ref_softmax(logits)
    value = float(np.mean(np.log(z[:, 0]) - shifted[np.arange(n), labels]))
    probs[np.arange(n), labels] -= 1.0
    probs /= n
    return value, probs


def ref_fisher(net, dataset, max_samples, seed):
    n = min(max_samples, len(dataset))
    idx = np.random.default_rng(seed).choice(len(dataset), size=n, replace=False)
    acc = np.zeros_like(net.params)
    for start in range(0, n, netcore.CHUNK_ROWS):
        rows = idx[start:start + netcore.CHUNK_ROWS]
        batch = Batch(dataset.inputs[rows], dataset.labels[rows])
        logits, acts = forward(net, batch)
        dlogits = -ref_softmax(logits)[2]
        dlogits[np.arange(len(rows)), batch.labels] += 1.0
        for i, a_prev, delta in netcore.layer_deltas(net, acts, dlogits):
            sq = delta * delta
            w_sl, b_sl = net.arch.layer_slices[i]
            acc[w_sl] += ((a_prev * a_prev).T @ sq).ravel()
            acc[b_sl] += sq.sum(axis=0)
    return acc / n


def ref_deeper_probs(policy, states):
    logits = np.concatenate([
        states @ policy.w_deep + policy.b_deep,
        [float(policy.w_stop @ states.mean(axis=0) + policy.b_stop)],
    ])
    logits -= logits.max()
    p = np.exp(logits)
    p /= p.sum()
    return np.clip(p, 1e-6, 1.0 - 1e-6)


def head_logits(kind, n, dtype):
    """n rows of 7 logits: random, with two classes tied at each row's max, or all equal."""
    logits = np.random.default_rng(n).standard_normal((n, 7)) * 4
    if kind == "tied":
        logits[:, 2] = logits[:, 5] = logits.max(axis=1) + 1.0
    elif kind == "equal":
        logits[:] = 0.75
    return logits.astype(dtype)


HEADS = [(kind, n, dtype) for kind in ("random", "tied", "equal") for n in (1, 257)
         for dtype in (np.float32, np.float64)]


class TestHeadRules:
    """The loss, the Fisher, the controller head and the hit count equal
    reference formulas written out in this file, bit for bit."""

    @pytest.mark.parametrize("kind,n,dtype", HEADS)
    def test_softmax_and_loss_ce(self, kind, n, dtype):
        logits = head_logits(kind, n, dtype)
        for got, want in zip(netcore._softmax(logits), ref_softmax(logits)):
            assert got.dtype == dtype and np.array_equal(got, want)
        labels = np.random.default_rng(1).integers(0, 7, n)
        value, d = loss_ce(logits, labels)
        want_value, want_d = ref_loss_ce(logits, labels)
        assert value == want_value
        assert d.dtype == dtype and np.array_equal(d, want_d)

    @pytest.mark.parametrize("kind,n,dtype", HEADS)
    def test_fisher(self, kind, n, dtype):
        net = init_network(Arch(5, (6,), 7), seed=n, dtype=dtype)
        head = net.layers[-1]
        if kind == "tied":  # classes 2 and 5 share a column and lead by a wide bias
            head.weight[:, 5] = head.weight[:, 2]
            head.bias[[2, 5]] = 50.0
        elif kind == "equal":
            head.weight[...] = 0.0
        rng = np.random.default_rng(n)
        data = Dataset(rng.standard_normal((n, 5)).astype(dtype), rng.integers(0, 7, n))
        if kind == "tied":
            logits = predict_logits(net, data.inputs[:])
            assert np.array_equal(logits[:, 2], logits.max(axis=1))
            assert np.array_equal(logits[:, 5], logits[:, 2])
        got = estimate_fisher(net, data, n, seed=3)
        assert got.dtype == dtype
        assert np.array_equal(got, ref_fisher(net, data, n, seed=3))

    @pytest.mark.parametrize("kind,positions", [(k, p) for k in ("random", "tied", "equal")
                                                for p in (1, 256)])
    def test_deeper_probs(self, kind, positions):
        policy = init_policy(positions)
        rng = np.random.default_rng(positions)
        states = rng.standard_normal((positions, 2 * policy.hidden_size))
        if kind == "random":
            policy.w_deep = rng.standard_normal(policy.w_deep.shape)
            policy.w_stop = rng.standard_normal(policy.w_stop.shape)
        elif kind == "tied":  # every position ties at the max, above the stop score
            policy.b_deep, policy.b_stop = 2.0, -1.0
        else:
            policy.b_deep = policy.b_stop = 0.5
        assert np.array_equal(_deeper_probs(policy, states), ref_deeper_probs(policy, states))

    @pytest.mark.parametrize("n", [1, 511, 512, 513, 1025])
    def test_hits(self, n):
        net = init_network(Arch(4, (5,), 3), seed=n, dtype=np.float32)
        rng = np.random.default_rng(n)
        x = rng.standard_normal((n, 4)).astype(np.float32)
        y = rng.integers(0, 3, n)
        hits = netcore._hits(net, x, y)
        assert type(hits) is int
        assert hits == np.count_nonzero(np.argmax(predict_logits(net, x), axis=1) == y)
        assert evaluate(net, x, y) == hits / n


class TestBackward:
    def test_zero_dlogits(self, rng):
        net = init_network(Arch(4, (3,), 2), seed=1)
        batch = Batch(rng.standard_normal((6, 4)), rng.integers(0, 2, 6))
        _, cache = forward(net, batch)
        grads = backward(net, cache, np.zeros((6, 2)))
        assert np.all(grads == 0)

    def test_finite_difference_3layer(self, rng):
        net = init_network(Arch(5, (4, 3), 3), seed=2)
        # Nonzero biases keep pre-activations away from the ReLU kink, where
        # central differences are invalid.
        net.set_flat(net.get_flat() + 0.05 * rng.standard_normal(net.param_count()))
        batch = Batch(rng.standard_normal((8, 5)), rng.integers(0, 3, 8))
        logits, cache = forward(net, batch)
        _, dlogits = loss_ce(logits, batch.labels)
        grads = backward(net, cache, dlogits)

        def f(flat):
            probe = net.copy()
            probe.set_flat(flat)
            lg, _ = forward(probe, batch)
            return loss_ce(lg, batch.labels)[0]

        fd = central_diff(f, net.get_flat())
        assert max_rel_err(grads, fd) < 1e-4

    def test_dead_relu_unit_zero_grads(self):
        # Hidden unit pre-activation is negative for every batch row.
        net = tiny_net(1.0, -10.0, 3.0, 0.0)
        batch = Batch(np.array([[1.0], [2.0]]), np.array([0, 0]))
        logits, cache = forward(net, batch)
        _, dlogits = loss_ce(logits, batch.labels)
        grads = backward(net, cache, dlogits)
        w_sl, b_sl = net.arch.layer_slices[0]
        assert np.all(grads[w_sl] == 0)
        assert np.all(grads[b_sl] == 0)

    def test_unit_at_exactly_zero_passes_no_gradient(self):
        # The ReLU derivative at 0 is taken as 0: pre-activation 1*1 - 1 = 0.
        net = tiny_net(1.0, -1.0, 3.0, 0.0)
        _, acts = forward(net, Batch(np.array([[1.0]]), np.array([0])))
        grads = backward(net, acts, np.array([[1.0]]))
        (w_sl, b_sl), (_, out_b) = net.arch.layer_slices
        assert grads[w_sl][0] == 0.0 and grads[b_sl][0] == 0.0
        assert grads[out_b][0] == 1.0  # the error did reach the layer above


class TestSGD:
    def test_zero_lr(self):
        net = init_network(Arch(2, (2,), 2), seed=0)
        before = net.get_flat()
        sgd_step(net, np.ones_like(before), lr=0.0)
        assert np.array_equal(net.get_flat(), before)

    def test_plain_step(self):
        net = tiny_net(1.0, 0.0, 1.0, 0.0)
        flat = net.get_flat()
        flat[:] = 1.0
        net.set_flat(flat)
        grads = np.full(4, 0.5)
        sgd_step(net, grads, lr=0.1, momentum=0.0)
        assert np.allclose(net.get_flat(), 0.95)

    def test_momentum_two_steps(self):
        net = tiny_net(0.0, 0.0, 0.0, 0.0)
        lr = 0.1
        g = np.ones(4)
        v = sgd_step(net, g, lr, momentum=0.9)
        after_one = net.get_flat().copy()
        sgd_step(net, g, lr, momentum=0.9, velocity=v)
        assert np.allclose(after_one, -lr * 1.0)
        assert np.allclose(net.get_flat(), -lr * 1.0 - lr * 1.9)


class TestEvaluate:
    def test_constant_predictor(self):
        net = DenseNet(Arch(2, (), 2), [
            Layer(np.zeros((2, 2)), np.array([1.0, 0.0]))])
        x = np.zeros((10, 2))
        assert evaluate(net, x, np.zeros(10, dtype=int)) == 1.0
        labels = np.array([0, 1] * 5)
        assert evaluate(net, x, labels) == 0.5

    def test_matches_per_sample_loop(self, rng):
        net = init_network(Arch(6, (5,), 4), seed=3)
        x = rng.standard_normal((40, 6))
        y = rng.integers(0, 4, 40)
        correct = 0
        for i in range(40):
            logits, _ = forward(net, Batch(x[i:i + 1], y[i:i + 1]))
            if int(np.argmax(logits[0])) == y[i]:
                correct += 1
        assert evaluate(net, x, y) == pytest.approx(correct / 40)

    def test_empty_dataset_rejected(self):
        net = init_network(Arch(2, (2,), 2), seed=0)
        with pytest.raises(ValueError):
            evaluate(net, np.zeros((0, 2)), np.zeros(0, dtype=int))


class TestPredictLogits:
    def test_matches_forward_per_sample(self, rng, monkeypatch):
        monkeypatch.setattr(netcore, "CHUNK_ROWS", 7)
        net = init_network(Arch(4, (3,), 2), seed=5)
        x = rng.standard_normal((23, 4))
        batched = predict_logits(net, x)
        for i in range(23):
            row, _ = forward(net, Batch(x[i:i + 1], np.array([0])))
            assert np.allclose(batched[i], row[0], atol=1e-12)

    def test_identity_net(self, rng):
        net = DenseNet(Arch(3, (), 3), [Layer(np.eye(3), np.zeros(3))])
        x = rng.standard_normal((9, 3))
        assert np.array_equal(predict_logits(net, x), x)

    def test_repeat_determinism(self, rng):
        net = init_network(Arch(4, (3,), 2), seed=5)
        x = rng.standard_normal((11, 4))
        assert np.array_equal(predict_logits(net, x), predict_logits(net, x))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10_000))
def test_flat_round_trip(seed):
    net = init_network(Arch(5, (4, 3), 2), seed)
    flat = net.get_flat()
    other = init_network(Arch(5, (4, 3), 2), seed + 1)
    other.set_flat(flat)
    assert np.array_equal(other.get_flat(), flat)
    for la, lb in zip(net.layers, other.layers):
        assert np.array_equal(la.weight, lb.weight)
        assert np.array_equal(la.bias, lb.bias)
