import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rec.data import Dataset
from rec.distill import CompressConfig, compress, kd_loss
from rec.lifelong import method_config
from rec.netcore import (CHUNK_ROWS, Arch, Batch, DenseNet, Layer, backward, forward,
                         init_network, loss_ce, predict_logits)
from rec.regularize import (EPSILON, PenaltyConfig, TrainingDiverged, consolidation,
                            estimate_fisher, ewc_term, l1_term, l21_term, mwc_loss,
                            train_task)
from rec.transform import DeeperAction, WiderAction, align_reference, apply_actions

from conftest import central_diff, max_rel_err, traced_memory


def ref_with_new(n, new=None):
    """The reference vector of an n-parameter net that keeps every anchored
    coordinate in place, with the coordinates `new` (an index or mask) new."""
    ref = np.arange(n)
    if new is not None:
        ref[new] = -1
    return ref


def fisher_by_loop(net, dataset, max_samples, seed):
    """Reference Fisher: one single-row forward/backward per sampled row."""
    n = min(max_samples, len(dataset))
    idx = np.random.default_rng(seed).choice(len(dataset), size=n, replace=False)
    acc = np.zeros(net.param_count())
    for i in idx:
        batch = Batch(dataset.inputs[i:i + 1], dataset.labels[i:i + 1])
        logits, cache = forward(net, batch)
        probs = np.exp(logits - logits.max())
        probs /= probs.sum()
        dlogits = -probs
        dlogits[0, batch.labels[0]] += 1.0
        g = backward(net, cache, dlogits)
        acc += g * g
    return acc / n


def random_net(arch, seed, dtype=np.float64):
    """He-initialized net with nonzero biases, so every Fisher term is exercised."""
    net = init_network(arch, seed, dtype)
    rng = np.random.default_rng(seed + 100)
    for layer in net.layers:
        layer.bias[...] = rng.normal(0.0, 0.3, layer.bias.shape)
    return net


def random_dataset(n, dim, classes, seed):
    rng = np.random.default_rng(seed)
    return Dataset(rng.standard_normal((n, dim)), rng.integers(0, classes, n))


def assert_matches_loop(net, ds, max_samples, seed):
    batched = estimate_fisher(net, ds, max_samples, seed)
    assert batched.dtype == np.float64
    np.testing.assert_allclose(batched, fisher_by_loop(net, ds, max_samples, seed),
                               rtol=1e-12, atol=0)


class TestFisher:
    def test_logistic_unit_hand_value(self):
        # Two-class linear net, all params zero, one sample x=1, label 1:
        # p = 0.5 for both classes, d log p(y=1)/d w_1 = x*(1-p) = 0.5 -> F = 0.25.
        net = DenseNet(Arch(1, (), 2), [Layer(np.zeros((1, 2)), np.zeros(2))])
        ds = Dataset(np.array([[1.0]]), np.array([1]))
        fisher = estimate_fisher(net, ds, max_samples=10, seed=0)
        assert np.allclose(fisher, 0.25)

    def test_zero_gradient_net(self):
        # Single-class softmax has log p = 0 identically, so gradients vanish.
        net = init_network(Arch(3, (2,), 1), seed=0)
        ds = Dataset(np.random.default_rng(0).standard_normal((5, 3)), np.zeros(5, dtype=int))
        fisher = estimate_fisher(net, ds, max_samples=5, seed=0)
        assert np.all(fisher == 0)

    def test_two_sample_average(self):
        net = init_network(Arch(2, (3,), 2), seed=1)
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 2))
        y = np.array([0, 1])
        both = estimate_fisher(net, Dataset(x, y), max_samples=2, seed=0)
        f0 = estimate_fisher(net, Dataset(x[:1], y[:1]), max_samples=1, seed=0)
        f1 = estimate_fisher(net, Dataset(x[1:], y[1:]), max_samples=1, seed=0)
        assert np.allclose(both, (f0 + f1) / 2)

    def test_deterministic(self):
        net = init_network(Arch(4, (3,), 2), seed=1)
        rng = np.random.default_rng(3)
        ds = Dataset(rng.standard_normal((20, 4)), rng.integers(0, 2, 20))
        a = estimate_fisher(net, ds, max_samples=10, seed=9)
        b = estimate_fisher(net, ds, max_samples=10, seed=9)
        assert np.array_equal(a, b)

    def test_empty_dataset_rejected(self):
        net = init_network(Arch(2, (2,), 2), seed=0)
        with pytest.raises(ValueError):
            estimate_fisher(net, Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int)), 5, 0)

    def test_zero_samples_rejected(self):
        net = init_network(Arch(2, (2,), 2), seed=0)
        with pytest.raises(ValueError, match="max_samples"):
            estimate_fisher(net, random_dataset(4, 2, 2, 0), 0, 0)

    # The batched per-example-gradient Fisher equals the per-sample loop.
    @pytest.mark.parametrize("arch", [Arch(5, (), 3), Arch(6, (7,), 4),
                                      Arch(8, (9, 6), 5), Arch(10, (12, 3, 7), 4)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_nets(self, arch, seed):
        net = random_net(arch, seed)
        ds = random_dataset(90, arch.input_dim, arch.output_dim, seed)
        assert_matches_loop(net, ds, max_samples=60, seed=seed)

    def test_after_wider_and_deeper_actions(self):
        net = random_net(Arch(6, (5, 4), 3), 2)
        grown, _ = apply_actions(net, [WiderAction(0, 9), DeeperAction(1)], seed=4)
        assert grown.arch.hidden_widths == (9, 4, 4)
        ds = random_dataset(80, 6, 3, 5)
        assert_matches_loop(grown, ds, max_samples=50, seed=1)

    def test_single_sample(self):
        net = random_net(Arch(4, (6,), 3), 3)
        assert_matches_loop(net, random_dataset(20, 4, 3, 6), max_samples=1, seed=2)

    def test_more_samples_than_rows(self):
        net = random_net(Arch(4, (6,), 3), 4)
        ds = random_dataset(30, 4, 3, 7)
        assert_matches_loop(net, ds, max_samples=1000, seed=3)
        # capped at the dataset: every row once, as with max_samples = len(ds)
        assert np.array_equal(estimate_fisher(net, ds, 1000, 3), estimate_fisher(net, ds, 30, 3))

    def test_count_not_a_multiple_of_the_chunk(self):
        n = 2 * CHUNK_ROWS + 37
        net = random_net(Arch(5, (4,), 3), 5)
        assert_matches_loop(net, random_dataset(n + 10, 5, 3, 8), max_samples=n, seed=4)

    def test_holds_one_chunk_at_a_time(self):
        # 1,000 samples are two chunks. One chunk's activation list on a
        # 256-128-128-10 net (inputs, two hidden layers, logits) is 2.04 MiB,
        # and its backward sweep needs about as much again; keeping the first
        # chunk's arrays while the second is gathered, or three arrays per
        # hidden layer in the forward sweep, takes the peak past 6 MiB.
        net = init_network(Arch(256, (128, 128), 10), seed=0)
        ds = random_dataset(1000, 256, 10, 9)
        _, _, peak = traced_memory(estimate_fisher, net, ds, 1000, 0)
        chunk_acts = CHUNK_ROWS * (256 + 128 + 128 + 10) * 8
        assert peak < 2.6 * chunk_acts, peak


class TestEwcTerm:
    def test_zero_at_anchor(self):
        p = np.array([1.0, -2.0, 3.0])
        v, g = ewc_term(p, p.copy(), np.ones(3), 2.0)
        assert v == 0 and np.all(g == 0)

    def test_hand_value(self):
        anchor = np.zeros(2)
        v, g = ewc_term(np.array([1.0, 1.0]), anchor, np.array([1.0, 2.0]), 2.0)
        assert v == pytest.approx(3.0)  # (2/2)*(1*1 + 2*1)
        assert np.allclose(g, [2.0, 4.0])

    def test_grad_vs_fd(self, rng):
        p = rng.standard_normal(6)
        anchor = rng.standard_normal(6)
        fisher = rng.random(6)
        _, g = ewc_term(p, anchor, fisher, 1.7)
        fd = central_diff(lambda x: ewc_term(x, anchor, fisher, 1.7)[0], p)
        assert max_rel_err(g, fd) < 1e-8

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ewc_term(np.zeros(3), np.zeros(2), np.zeros(3), 1.0)


class TestL21Term:
    def test_hand_value(self):
        v, _ = l21_term(np.array([3.0, 0.0]), np.array([4.0, 0.0]), 1.0)
        assert v == pytest.approx(5.0, abs=1e-6)  # sqrt(9+16) + ~eps

    def test_smoothed_origin(self):
        n = 4
        v, g = l21_term(np.zeros(n), np.zeros(n), 2.0)
        assert v == pytest.approx(2.0 * n * EPSILON)
        assert np.all(g == 0)

    def test_grad_vs_fd(self, rng):
        p = rng.standard_normal(8)
        anchor = rng.standard_normal(8)
        _, g = l21_term(p, anchor, 0.3)
        fd = central_diff(lambda x: l21_term(x, anchor, 0.3)[0], p)
        assert max_rel_err(g, fd) < 1e-6


class TestL1Term:
    def test_hand_value_full_mask(self):
        v, _ = l1_term(np.array([-2.0, 5.0]), None, 1.0)
        assert v == pytest.approx(7.0, abs=1e-6)

    def test_empty_mask(self):
        v, g = l1_term(np.array([-2.0, 5.0]), np.zeros(2, dtype=bool), 1.0)
        assert v == 0 and np.all(g == 0)

    def test_grad_vs_fd_away_from_zero(self, rng):
        p = rng.standard_normal(6) + np.sign(rng.standard_normal(6)) * 0.5
        mask = np.array([True, False, True, True, False, True])
        _, g = l1_term(p, mask, 0.7)
        fd = central_diff(lambda x: l1_term(x, mask, 0.7)[0], p)
        assert max_rel_err(g, fd) < 1e-6
        assert np.all(g[~mask] == 0)


def small_problem(seed=0, n_params_net=Arch(3, (4,), 2)):
    rng = np.random.default_rng(seed)
    net = init_network(n_params_net, seed)
    net.set_flat(net.get_flat() + 0.05 * rng.standard_normal(net.param_count()))
    batch = Batch(rng.standard_normal((6, net.arch.input_dim)),
                  rng.integers(0, net.arch.output_dim, 6))
    anchor = rng.standard_normal(net.param_count())
    fisher = rng.random(net.param_count())
    return net, batch, anchor, fisher


class TestMwcLoss:
    def test_all_lambda_zero_is_ce(self):
        net, batch, anchor, fisher = small_problem()
        cfg = PenaltyConfig(0.0, 0.0, 0.0)
        v, g = mwc_loss(net, batch, anchor, fisher, cfg, ref_with_new(net.param_count()))
        logits, _ = forward(net, batch)
        ce, _ = loss_ce(logits, batch.labels)
        # epsilon contributions vanish with lambda = 0
        assert v == pytest.approx(ce, rel=1e-12)

    def test_reduces_to_ewc(self):
        net, batch, anchor, fisher = small_problem(1)
        cfg = PenaltyConfig(2.0, 0.0, 0.0)
        v, _ = mwc_loss(net, batch, anchor, fisher, cfg, ref_with_new(net.param_count()))
        logits, _ = forward(net, batch)
        ce, _ = loss_ce(logits, batch.labels)
        ev, _ = ewc_term(net.get_flat(), anchor, fisher, 2.0)
        assert v == pytest.approx(ce + ev, rel=1e-12)

    def test_composed_grad_vs_fd(self):
        net, batch, anchor, fisher = small_problem(2)  # 3*4+4+4*2+2 = 26 params
        cfg = PenaltyConfig(1.5, 0.2, 0.1)
        ref = ref_with_new(net.param_count())
        _, g = mwc_loss(net, batch, anchor, fisher, cfg, ref)

        def f(flat):
            probe = net.copy()
            probe.set_flat(flat)
            return mwc_loss(probe, batch, anchor, fisher, cfg, ref)[0]

        fd = central_diff(f, net.get_flat())
        assert max_rel_err(g, fd) < 1e-4

    def test_masked_partition_gradients(self):
        net, batch, anchor, fisher = small_problem(3)
        cfg = PenaltyConfig(2.0, 0.5, 0.4)
        mask = np.zeros(net.param_count(), dtype=bool)
        mask[::3] = True
        ref = ref_with_new(net.param_count(), mask)
        _, g_full = mwc_loss(net, batch, anchor, fisher, cfg, ref)
        _, g_ce = mwc_loss(net, batch, anchor, fisher, PenaltyConfig(0, 0, 0), ref)
        penalty_grad = g_full - g_ce
        # On masked coordinates only the l1 term contributes.
        _, g_l1 = l1_term(net.get_flat(), mask, cfg.lambda_1)
        assert np.allclose(penalty_grad[mask], g_l1[mask], atol=1e-12)
        # On unmasked coordinates the l1 term contributes nothing.
        p, old = net.get_flat(), ~mask
        _, g_e = ewc_term(p[old], anchor[old], fisher[old], cfg.lambda_ewc)
        _, g_21 = l21_term(p[old], anchor[old], cfg.lambda_21)
        assert np.allclose(penalty_grad[old], g_e + g_21, atol=1e-12)

    def test_masked_grad_vs_fd(self):
        net, batch, anchor, fisher = small_problem(4)
        cfg = PenaltyConfig(1.0, 0.3, 0.2)
        mask = np.zeros(net.param_count(), dtype=bool)
        mask[5:12] = True
        ref = ref_with_new(net.param_count(), mask)
        _, g = mwc_loss(net, batch, anchor, fisher, cfg, ref)

        def f(flat):
            probe = net.copy()
            probe.set_flat(flat)
            return mwc_loss(probe, batch, anchor, fisher, cfg, ref)[0]

        fd = central_diff(f, net.get_flat())
        assert max_rel_err(g, fd) < 1e-4

    def test_term_additivity(self):
        net, batch, anchor, fisher = small_problem(5)
        with_l1 = PenaltyConfig(1.0, 0.3, 0.25)
        without = PenaltyConfig(1.0, 0.3, 0.0)
        ref = ref_with_new(net.param_count())
        v_with, _ = mwc_loss(net, batch, anchor, fisher, with_l1, ref)
        v_without, _ = mwc_loss(net, batch, anchor, fisher, without, ref)
        v_l1, _ = l1_term(net.get_flat(), None, 0.25)
        assert v_with == pytest.approx(v_without + v_l1, rel=1e-12)


def test_all_false_mask_is_no_expansion():
    # A reference vector without a new coordinate (ref < 0 is all False) binds
    # no expansion, in whatever order it gathers: the penalty is that of the
    # gathered anchor and Fisher kept in place.
    rng = np.random.default_rng(4)
    net = init_network(Arch(5, (4,), 3), seed=4)
    n = net.param_count()
    anchor = rng.standard_normal(n)
    fisher = rng.random(n)
    batch = Batch(rng.standard_normal((6, 5)), rng.integers(0, 3, 6))
    cfg = PenaltyConfig(1.5, 0.3, 0.2)
    order = rng.permutation(n)
    v_kept, g_kept = mwc_loss(net, batch, anchor[order], fisher[order], cfg, ref_with_new(n))
    v_gathered, g_gathered = mwc_loss(net, batch, anchor, fisher, cfg, order)
    assert v_kept == v_gathered
    assert g_kept.tobytes() == g_gathered.tobytes()


@pytest.mark.parametrize("field", ["lambda_ewc", "lambda_21", "lambda_1"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
def test_penalty_config_rejects_non_finite_or_negative_lambdas(field, value):
    with pytest.raises(ValueError, match="lambdas must be finite and nonnegative"):
        PenaltyConfig(**{field: value})


def penalty_by_terms(p, grads, anchor, fisher, cfg, mask=None):
    """Reference penalty built from the term functions: ewc_term and l21_term
    over the unmasked coordinates, then l1_term over the masked ones (every
    coordinate when nothing is masked), each evaluated whatever its lambda and
    added into grads in that order. Returns the value."""
    expanded = mask is not None and bool(mask.any())
    old = ~mask if expanded else slice(None)
    kept = anchor[old]
    value = 0.0
    for v, g in (ewc_term(p[old], kept, fisher[old], cfg.lambda_ewc),
                 l21_term(p[old], kept, cfg.lambda_21)):
        value += v
        grads[old] += g
    v, g = l1_term(p, mask if expanded else None, cfg.lambda_1)
    grads += g
    return value + v


def mwc_by_terms(net, batch, anchor, fisher, cfg, mask=None):
    """Reference objective: CE, then penalty_by_terms."""
    logits, cache = forward(net, batch)
    value, dlogits = loss_ce(logits, batch.labels)
    grads = backward(net, cache, dlogits)
    return value + penalty_by_terms(net.params, grads, anchor, fisher, cfg, mask), grads


def sgd_by_terms(net, ds, logit_loss, penalty, epochs, batch_size, lr, seed):
    """Reference training loop written out: train_task's shuffling and
    minibatches, then per step one forward, the logit loss, one backward, the
    penalty and a plain SGD step."""
    rng = np.random.default_rng(seed)
    for epoch in range(epochs):
        order = rng.permutation(len(ds))
        for start in range(0, len(ds), batch_size):
            rows = order[start:start + batch_size]
            batch = Batch(ds.inputs[rows], ds.labels[rows])
            logits, cache = forward(net, batch)
            _, dlogits = logit_loss(logits, batch.labels, rows, epoch)
            grads = backward(net, cache, dlogits)
            penalty(net.params, grads)
            net.params -= lr * grads
    return net


WIRED = PenaltyConfig(2.0, 0.3, 0.2)
PENALIZED = ("ewc", "ewc_l1", "ewc_l21", "mwc")


@pytest.mark.parametrize("method", PENALIZED)
@pytest.mark.parametrize("masking", ["none", "partial", "all-false"])
def test_mwc_loss_matches_term_functions_bitwise(method, masking):
    rng = np.random.default_rng(PENALIZED.index(method))
    net = random_net(Arch(6, (7, 5), 3), 8)
    n = net.param_count()
    batch = Batch(rng.standard_normal((9, 6)), rng.integers(0, 3, 9))
    anchor = rng.standard_normal(n)
    fisher = rng.random(n)
    # "all-false": a reference vector that reorders and has no new coordinate
    ref = {"none": ref_with_new(n), "partial": ref_with_new(n, rng.random(n) < 0.3),
           "all-false": rng.permutation(n)}[masking]
    cfg = method_config(method, WIRED).penalty
    v, g = mwc_loss(net, batch, anchor, fisher, cfg, ref)
    aligned = align_reference(anchor, ref), align_reference(fisher, ref)
    v_ref, g_ref = mwc_by_terms(net, batch, *aligned, cfg, ref < 0)
    assert v == pytest.approx(v_ref, rel=1e-12)
    # + 0.0 turns -0.0 into 0.0 and leaves every other value's bits alone: a
    # skipped zero-lambda term no longer adds a signed zero, which SGD ignores.
    assert (g + 0.0).tobytes() == (g_ref + 0.0).tobytes()


def check_expanded_child_against_loop(method, logit_loss):
    """train_task with `logit_loss` and the consolidation penalty on a
    widened-and-deepened child reaches the same bytes as sgd_by_terms with
    penalty_by_terms on the aligned anchor and Fisher."""
    parent = random_net(Arch(6, (5,), 3), 6)
    child, ref = apply_actions(parent, [WiderAction(0, 8), DeeperAction(0)], seed=2)
    mask = ref < 0
    assert mask.any() and not mask.all()
    ds = random_dataset(150, 6, 3, 9)
    anchor, fisher = parent.get_flat(), estimate_fisher(parent, ds, 60, 0)
    cfg = method_config(method, WIRED).penalty
    aligned = align_reference(anchor, ref), align_reference(fisher, ref)

    def by_terms(params, grads):
        return penalty_by_terms(params, grads, *aligned, cfg, mask)

    fast, slow = child.copy(), child.copy()
    train_task(fast, ds, logit_loss, consolidation(anchor, fisher, cfg, ref), epochs=2,
               batch_size=32, lr=0.05, seed=3)
    sgd_by_terms(slow, ds, logit_loss, by_terms, epochs=2, batch_size=32, lr=0.05, seed=3)
    assert not np.array_equal(fast.params, child.params)
    assert fast.params.tobytes() == slow.params.tobytes()


@pytest.mark.parametrize("method", PENALIZED)
def test_train_task_on_expanded_child_matches_term_functions(method):
    check_expanded_child_against_loop(method, loss_ce)


@pytest.mark.parametrize("method", PENALIZED)
def test_train_task_takes_a_kd_loss_with_the_consolidation_penalty(method):
    # A non-CE logit loss (KD against fixed targets) plus the consolidation
    # penalty in one train_task call, as a student with an EWC term would train.
    targets = np.random.default_rng(4).standard_normal((150, 3))
    check_expanded_child_against_loop(
        method, lambda logits, labels, rows, epoch: kd_loss(logits, targets[rows]))


def widened_consolidation(method, dtype=np.float64):
    """(penalty, n): the consolidation penalty of a widened 20-30-5 net in
    `dtype`, bound once, and the child's parameter count."""
    parent = random_net(Arch(20, (30,), 5), 11, dtype)
    child, ref = apply_actions(parent, [WiderAction(0, 60)], seed=12)
    rng = np.random.default_rng(13)
    fisher = rng.random(parent.param_count()).astype(dtype)
    cfg = method_config(method, WIRED).penalty
    return consolidation(parent.get_flat(), fisher, cfg, ref), child.param_count()


@pytest.mark.parametrize("expanded", [False, True], ids=["in-place", "expanded"])
def test_float32_penalty_is_finite_where_params_and_anchor_are_zero(expanded):
    # A float32 EPSILON**2 that rounded to 0 would make the l2,1 and l1
    # gradients 0/0 wherever a parameter and its anchor are both exactly 0 (a
    # dead unit's bias, an off-diagonal weight of an inserted identity layer).
    # Magnitudes 3 and 4 (root 5), power-of-two lambdas and Fisher make every
    # sum exact, so the value matches the term functions bit for bit too.
    n = 24
    params = np.tile(np.array([3.0, -3.0, 0.0], np.float32), n // 3)
    anchor = np.tile(np.array([4.0, 4.0, 0.0], np.float32), n // 3)
    fisher = np.tile(np.array([0.5, 1.0, 2.0, 4.0], np.float32), n // 4)
    ref = ref_with_new(n, np.arange(n) % 4 == 1 if expanded else None)
    cfg = PenaltyConfig(2.0, 0.5, 0.25)
    grads, grads_ref = np.zeros(n, np.float32), np.zeros(n, np.float32)
    value = consolidation(anchor, fisher, cfg, ref)(params, grads)
    value_ref = penalty_by_terms(params, grads_ref, align_reference(anchor, ref),
                                 align_reference(fisher, ref), cfg, ref < 0)
    assert np.isfinite(value) and np.all(np.isfinite(grads))
    assert value == value_ref
    assert (grads + 0.0).tobytes() == (grads_ref + 0.0).tobytes()


@pytest.mark.parametrize("method, dtype", [
    *(pytest.param(m, np.float64, id=m) for m in PENALIZED),
    *(pytest.param(m, np.float32, id=f"{m}-float32") for m in PENALIZED)])
def test_bound_penalty_step_allocates_no_parameter_vector(method, dtype):
    penalty, n = widened_consolidation(method, dtype)
    params = np.random.default_rng(14).standard_normal(n).astype(dtype)
    grads = np.zeros(n, dtype)
    _, _, peak = traced_memory(penalty, params, grads)
    assert peak < np.dtype(dtype).itemsize * n


@pytest.mark.parametrize("method", PENALIZED)
def test_bound_penalty_carries_nothing_between_calls(method):
    rng = np.random.default_rng(15)
    penalty, n = widened_consolidation(method)
    for params in (rng.standard_normal(n), rng.standard_normal(n)):
        start = rng.standard_normal(n)
        reused, fresh = start.copy(), start.copy()
        value = penalty(params, reused)
        assert value == widened_consolidation(method)[0](params, fresh)
        assert reused.tobytes() == fresh.tobytes()
        assert not np.array_equal(reused, start)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 5000), lam=st.floats(0.0, 10.0))
def test_penalties_nonnegative(seed, lam):
    rng = np.random.default_rng(seed)
    p = rng.standard_normal(7)
    a = rng.standard_normal(7)
    f = rng.random(7)
    assert ewc_term(p, a, f, lam)[0] >= 0
    assert l21_term(p, a, lam)[0] >= 0
    assert l1_term(p, None, lam)[0] >= 0


def separable_blobs(n, seed):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, n)
    centers = np.array([[-4.0, -4.0], [4.0, 4.0]])
    return Dataset(centers[labels] + 0.3 * rng.standard_normal((n, 2)), labels)


class TestTrainTask:
    def test_paper_hyperparameters_on_separable_data(self):
        train = separable_blobs(2000, 0)
        net = init_network(Arch(2, (16,), 2), seed=0)
        train_task(net, train, loss_ce, None, epochs=8, batch_size=256, lr=0.001, seed=1)
        from rec.netcore import evaluate
        assert evaluate(net, train.inputs, train.labels) > 0.90

    def test_penalty_domination(self):
        train = separable_blobs(200, 1)
        net = init_network(Arch(2, (6,), 2), seed=2)
        anchor = np.random.default_rng(3).standard_normal(net.param_count())
        fisher = np.ones(net.param_count())
        cfg = PenaltyConfig(1e6, 0.0, 0.0)
        penalty = consolidation(anchor, fisher, cfg, np.arange(net.param_count()))
        train_task(net, train, loss_ce, penalty, epochs=3, batch_size=64, lr=1e-6, seed=4)
        assert np.max(np.abs(net.get_flat() - anchor)) < 1e-2

    def test_divergence_raises_without_warnings(self):
        train = random_dataset(200, 6, 3, 3)
        net = init_network(Arch(6, (8,), 3), seed=7)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingDiverged):
                train_task(net, train, loss_ce, None, epochs=5, batch_size=32, lr=1e6, seed=8)

    def test_non_finite_gradient_is_named(self):
        # A finite loss with a NaN gradient: the message names the gradient.
        train = separable_blobs(50, 3)
        net = init_network(Arch(2, (4,), 2), seed=9)

        def nan_gradient(params, grads):
            grads[0] = np.nan
            return 0.5

        with pytest.raises(TrainingDiverged, match=r"^non-finite gradient at epoch 0, "
                                                   r"batch offset 0: value=\d"):
            train_task(net, train, loss_ce, nan_gradient, epochs=1, batch_size=16, lr=0.1,
                       seed=0)

    def test_zero_epochs_unchanged(self):
        train = separable_blobs(50, 2)
        net = init_network(Arch(2, (4,), 2), seed=5)
        before = net.get_flat()
        train_task(net, train, loss_ce, None, epochs=0, batch_size=16, lr=0.1, seed=6)
        assert np.array_equal(net.get_flat(), before)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_the_engine_computes_in_the_dtype_of_the_net(dtype):
    # A widened and deepened child, its penalized gradient and fit, the
    # Fisher, the distilled student and the scores all keep the dtype of the
    # net and its inputs.
    rows = random_dataset(300, 12, 4, 20)
    ds = Dataset(rows.inputs[:].astype(dtype), rows.labels)
    parent = random_net(Arch(12, (10, 8), 4), 21, dtype)
    child, ref = apply_actions(parent, [WiderAction(0, 16), DeeperAction(1)], seed=22)
    anchor, fisher = parent.get_flat(), estimate_fisher(parent, ds, 100, 23)
    cfg = PenaltyConfig(40.0, 3e-5, 1e-5)
    _, grads = mwc_loss(child, Batch(ds.inputs[:32], ds.labels[:32]), anchor, fisher, cfg, ref)
    train_task(child, ds, loss_ce, consolidation(anchor, fisher, cfg, ref),
               epochs=2, batch_size=32, lr=0.05, seed=24)
    student = compress(child, parent, ds, CompressConfig(epochs=2), batch_size=32, seed=25)
    outputs = {"parent": parent.params, "child": child.params, "fisher": fisher,
               "gradient": grads, "child fisher": estimate_fisher(child, ds, 100, 26),
               "student": student.params, "logits": predict_logits(child, ds.inputs)}
    assert {name: a.dtype for name, a in outputs.items()} == dict.fromkeys(outputs, dtype)
    assert np.all(np.isfinite(child.params))
