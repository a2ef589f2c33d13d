import copy

import numpy as np
import pytest

from rec.controller import (PROB_FLOOR, SearchConfig, _deeper_probs, _wider_prob, encode,
                            init_policy, reinforce_update, reward_transform, sample_episode,
                            search_child)
from rec.data import Dataset
from rec.netcore import Arch, evaluate, init_network, loss_ce, predict_logits
from rec.regularize import (PenaltyConfig, TrainingDiverged, consolidation, estimate_fisher,
                            train_task)
from rec.transform import DeeperAction, WiderAction

from conftest import traced_memory

ARCH = Arch(6, (8, 8), 3)


def trained_prev(seed=0):
    rng = np.random.default_rng(seed)
    train = Dataset(rng.standard_normal((300, 6)), rng.integers(0, 3, 300))
    val = Dataset(rng.standard_normal((80, 6)), rng.integers(0, 3, 80))
    net = init_network(ARCH, seed)
    train_task(net, train, loss_ce, None, 2, 64, 0.01, seed)
    fisher = estimate_fisher(net, train, 100, seed)
    return net, train, val, net.get_flat(), fisher


def fit_on(train, anchor, fisher, cfg=PenaltyConfig()):
    """A task's fit: CE plus its consolidation penalty, batch 64, lr 0.01."""
    def fit(net, ref, epochs, seed):
        return train_task(net, train, loss_ce, consolidation(anchor, fisher, cfg, ref),
                          epochs, 64, 0.01, seed)
    return fit


class TestEncode:
    def test_deterministic(self):
        policy = init_policy(0)
        a, _ = encode(policy, (8, 16))
        b, _ = encode(policy, (8, 16))
        assert np.array_equal(a, b)

    def test_order_sensitivity(self):
        policy = init_policy(1)
        a, _ = encode(policy, (8, 64))
        b, _ = encode(policy, (64, 8))
        assert not np.allclose(a, b)

    def test_same_bucket_same_states(self):
        # 100 and 127 share the floor(log2) bucket, so descriptors coincide.
        policy = init_policy(2)
        a, _ = encode(policy, (100,))
        b, _ = encode(policy, (127,))
        assert np.array_equal(a, b)


class TestSampleEpisode:
    def test_degenerate_policy_empty_actions(self):
        policy = init_policy(3)
        policy.b_wider = -1e3  # sigmoid -> prob floor
        policy.b_stop = 1e3    # stop token dominates
        ep = sample_episode(policy, ARCH, seed=0)
        assert ep.actions == []

    def test_widen_frequency_matches_sigmoid(self):
        policy = init_policy(4)
        policy.b_wider = 0.3
        states, _ = encode(policy, ARCH.hidden_widths)
        p0 = _wider_prob(policy, states[0])
        hits = 0
        n = 10_000
        for s in range(n):
            ep = sample_episode(policy, ARCH, seed=s)
            first = ep.decisions[0]
            assert first.kind == "wider" and first.position == 0
            hits += first.choice
        assert abs(hits / n - p0) < 0.03

    def test_caps_never_exceeded(self):
        policy = init_policy(5)
        policy.b_wider = 1e3  # always widen
        policy.b_stop = -1e3  # never stop
        for s in range(200):
            ep = sample_episode(policy, ARCH, seed=s)
            n_w = sum(isinstance(a, WiderAction) for a in ep.actions)
            n_d = sum(isinstance(a, DeeperAction) for a in ep.actions)
            assert n_w <= 2 and n_d <= 3


class TestRewardTransform:
    def test_tan_zero(self):
        r, _ = reward_transform(0.0, 0.0)
        assert r == 0.0

    def test_tan_half(self):
        r, _ = reward_transform(0.5, 0.0)
        assert r == pytest.approx(1.0)  # tan(pi/4)

    def test_constant_stream_reward_decays(self):
        baseline = 0.0
        rewards = []
        for _ in range(120):
            r, baseline = reward_transform(0.6, baseline)
            rewards.append(r)
        assert abs(rewards[-1]) < 1e-2 * abs(rewards[0])

    def test_singularity_clamped(self):
        r, b = reward_transform(1.0, None)
        assert np.isfinite(r) and np.isfinite(b)

    def test_ema_stays_in_raw_range(self):
        rng = np.random.default_rng(0)
        baseline = None
        raws = []
        for _ in range(200):
            a = float(rng.random())
            raws.append(np.tan(min(a, 0.999) * np.pi / 2))
            _, baseline = reward_transform(a, baseline)
            assert min(raws) - 1e-12 <= baseline <= max(raws) + 1e-12


def bandit_reward(ep) -> float:
    """Rigged 2-action environment: widening the first layer pays 1."""
    return 1.0 if any(isinstance(a, WiderAction) and a.layer_index == 0
                      for a in ep.actions) else 0.0


class TestReinforce:
    def test_zero_rewards_no_update(self):
        policy = init_policy(7)
        before = copy.deepcopy(policy)
        eps = [sample_episode(policy, ARCH, seed=s) for s in range(5)]
        for ep in eps:
            ep.reward = 0.0
        reinforce_update(policy, eps, lr=0.5)
        for k in policy.param_items():
            assert np.array_equal(np.asarray(getattr(policy, k)),
                                  np.asarray(getattr(before, k)))

    def test_bandit_convergence(self):
        arch = Arch(4, (8,), 2)
        cfg = SearchConfig(max_deeper=0)
        policy = init_policy(8)
        s = 0
        for step in range(500):
            eps = []
            for _ in range(4):
                ep = sample_episode(policy, arch, seed=s, cfg=cfg)
                ep.reward = bandit_reward(ep)
                eps.append(ep)
                s += 1
            reinforce_update(policy, eps, lr=0.5)
            states, _ = encode(policy, arch.hidden_widths)
            if _wider_prob(policy, states[0]) > 0.9:
                break
        states, _ = encode(policy, arch.hidden_widths)
        assert _wider_prob(policy, states[0]) > 0.9

    def test_gradient_vs_finite_difference(self):
        # E[R] = P(widen first layer), available in closed form; the REINFORCE
        # estimator over many sampled episodes must match its derivative.
        arch = Arch(4, (8,), 2)
        cfg = SearchConfig(max_deeper=0)
        policy = init_policy(9, hidden_size=8, emb_dim=4)
        rng = np.random.default_rng(10)
        policy.w_wider = 0.5 * rng.standard_normal(policy.w_wider.shape)
        policy.b_wider = 0.2

        n = 50_000
        probe = copy.deepcopy(policy)
        eps = []
        for s in range(n):
            ep = sample_episode(policy, arch, seed=s, cfg=cfg)
            ep.reward = bandit_reward(ep)
            eps.append(ep)
        reinforce_update(probe, eps, lr=1.0)
        mc_b = probe.b_wider - policy.b_wider
        mc_w = probe.w_wider - policy.w_wider

        def expected_reward(pol):
            states, _ = encode(pol, arch.hidden_widths)
            return _wider_prob(pol, states[0])

        h = 1e-5
        pol = copy.deepcopy(policy)
        pol.b_wider += h
        up = expected_reward(pol)
        pol.b_wider -= 2 * h
        fd_b = (up - expected_reward(pol)) / (2 * h)
        assert abs(mc_b - fd_b) / abs(fd_b) < 0.05

        idx = int(np.argmax(np.abs(mc_w)))
        pol = copy.deepcopy(policy)
        pol.w_wider = pol.w_wider.copy()
        pol.w_wider[idx] += h
        up = expected_reward(pol)
        pol.w_wider[idx] -= 2 * h
        fd_w = (up - expected_reward(pol)) / (2 * h)
        assert abs(mc_w[idx] - fd_w) / abs(fd_w) < 0.05

    def test_update_is_the_exact_log_likelihood_gradient(self):
        # With reward 1 and lr 1, the update is the gradient of the episodes'
        # mean sum of log-probabilities; central differences check every
        # parameter, including the encoder's seven and the deeper/stop heads.
        arch = Arch(8, (8, 16, 32), 3)
        cfg = SearchConfig(max_deeper=3)
        policy = init_policy(3, hidden_size=6, emb_dim=4)
        rng = np.random.default_rng(0)
        for k in ("w_wider", "w_deep", "w_stop"):
            setattr(policy, k, rng.normal(0, 0.5, getattr(policy, k).shape))
        policy.b_stop = -1.0
        eps = [sample_episode(policy, arch, seed=s, cfg=cfg) for s in range(5)]
        for ep in eps:
            ep.reward = 1.0
        assert {d.kind for ep in eps for d in ep.decisions} == {"wider", "deeper"}

        def mean_log_prob(pol):
            total = 0.0
            for ep in eps:
                for d in ep.decisions:
                    states, _ = encode(pol, d.widths)
                    if d.kind == "wider":
                        p = _wider_prob(pol, states[d.position])
                        probs = np.array([1 - p, p])
                    else:
                        probs = _deeper_probs(pol, states)
                    # the analytic gradient ignores the probability clip
                    assert np.all((probs > PROB_FLOOR) & (probs < 1 - PROB_FLOOR))
                    total += np.log(probs[d.choice])
            return total / len(eps)

        updated = copy.deepcopy(policy)
        reinforce_update(updated, eps, lr=1.0)
        h = 1e-6
        for k in policy.param_items():
            analytic = np.asarray(getattr(updated, k)) - getattr(policy, k)
            fd = np.zeros_like(analytic)
            for i in np.ndindex(analytic.shape):
                values = []
                for step in (h, -h):
                    pol = copy.deepcopy(policy)
                    value = np.array(getattr(pol, k), dtype=float)
                    value[i] += step
                    setattr(pol, k, value if value.ndim else float(value))
                    values.append(mean_log_prob(pol))
                fd[i] = (values[0] - values[1]) / (2 * h)
            assert np.linalg.norm(analytic - fd) <= 1e-5 * np.linalg.norm(fd), k

    def test_reward_scaling_linearity(self):
        policy = init_policy(11)
        ep = sample_episode(policy, ARCH, seed=3)
        a = copy.deepcopy(policy)
        ep.reward = 1.0
        reinforce_update(a, [ep], lr=0.1)
        b = copy.deepcopy(policy)
        ep.reward = 2.0
        reinforce_update(b, [ep], lr=0.05)
        for k in policy.param_items():
            assert np.allclose(np.asarray(getattr(a, k)), np.asarray(getattr(b, k)),
                               atol=1e-12)


class TestSearchChild:
    def test_empty_actions_equals_plain_finetune(self):
        net, train, val, anchor, fisher = trained_prev(0)
        policy = init_policy(12)
        policy.b_wider = -1e3
        policy.b_stop = 1e3
        cfg = PenaltyConfig()
        scfg = SearchConfig(budget=1, m_children=1, child_epochs=2)
        result, _ = search_child(net, fit_on(train, anchor, fisher, cfg), [val],
                                 policy, None, seed=5, search_cfg=scfg)
        assert result.actions == []
        expect = net.copy()
        penalty = consolidation(anchor, fisher, cfg, np.arange(net.param_count()))
        train_task(expect, train, loss_ce, penalty, 2, 64, 0.01, seed=5 + 2)
        assert np.array_equal(result.net.get_flat(), expect.get_flat())

    def test_best_of_seen(self):
        net, train, val, anchor, fisher = trained_prev(1)
        policy = init_policy(13)
        scfg = SearchConfig(budget=6, m_children=3, child_epochs=1)
        result, _ = search_child(net, fit_on(train, anchor, fisher), [val],
                                 policy, None, seed=7, search_cfg=scfg)
        assert result.a_val == pytest.approx(max(r["a_val"] for r in result.log))
        assert len(result.log) == 6

    def test_reproducible(self):
        flats = []
        for _ in range(2):
            net, train, val, anchor, fisher = trained_prev(2)
            policy = init_policy(14)
            scfg = SearchConfig(budget=4, m_children=2, child_epochs=1)
            result, _ = search_child(net, fit_on(train, anchor, fisher), [val],
                                     policy, None, seed=9, search_cfg=scfg)
            flats.append(result.net.get_flat())
        assert np.array_equal(flats[0], flats[1])

    def test_children_hold_as_many_insertions_as_the_config_allows(self):
        # SearchConfig.max_deeper is the one insertion cap: a never-stopping
        # policy fills it, and each of those children is built and trained
        net, train, val, anchor, fisher = trained_prev(4)
        policy = init_policy(16)
        policy.b_wider = -1e3  # never widen
        policy.b_stop = -1e3  # never stop
        scfg = SearchConfig(budget=2, m_children=2, child_epochs=1, max_deeper=4)
        result, _ = search_child(net, fit_on(train, anchor, fisher), [val],
                                 policy, None, seed=3, search_cfg=scfg)
        assert [r["actions"].count("D") for r in result.log] == [4, 4]
        assert not any(r["diverged"] for r in result.log)
        assert len(result.net.arch.hidden_widths) == len(ARCH.hidden_widths) + 4

    def test_empty_validation_rejected(self):
        net, train, val, anchor, fisher = trained_prev(3)
        empty = Dataset(np.zeros((0, 6)), np.zeros(0, dtype=int))
        with pytest.raises(ValueError):
            search_child(net, fit_on(train, anchor, fisher), [empty],
                         init_policy(15), None, seed=0, search_cfg=SearchConfig(budget=1))

    def _search(self, val_sets, budget=2, children=None):
        """The search on trained_prev(5); `children` collects each fitted child."""
        net, train, _, anchor, fisher = trained_prev(5)
        fit = fit_on(train, anchor, fisher)
        if children is not None:
            def fit(net, ref, epochs, seed, inner=fit):
                children.append(inner(net, ref, epochs, seed))
                return children[-1]
        scfg = SearchConfig(budget=budget, m_children=2, child_epochs=1)
        result, _ = search_child(net, fit, val_sets, init_policy(17), None, seed=11,
                                 search_cfg=scfg)
        return result

    def test_views_score_as_their_stacked_rows(self):
        # two views of unequal size, each over more than one 512-row chunk,
        # score the same a_val, bit for bit, as one dataset of their rows
        rng = np.random.default_rng(6)
        a = Dataset(rng.standard_normal((700, 6)), rng.integers(0, 3, 700))
        b = Dataset(rng.standard_normal((533, 6)), rng.integers(0, 3, 533))
        rows, labels = np.vstack([a.inputs[:], b.inputs[:]]), np.concatenate([a.labels, b.labels])
        children = []
        views = self._search([a, b], children=children)
        stacked = self._search([Dataset(rows, labels)])
        assert views.log == stacked.log
        assert views.a_val == evaluate(views.net, rows, labels)
        # each logged a_val is the views' summed hits over all their rows
        assert len(children) == len(views.log)
        for child, record in zip(children, views.log):
            hits = sum(np.count_nonzero(np.argmax(predict_logits(child, v.inputs[:]), axis=1)
                                        == v.labels) for v in (a, b))
            assert record["a_val"] == hits / (700 + 533)

    def test_equal_hits_keep_the_earlier_child(self):
        # a head of zeros predicts class 0 for every row, so every child pools
        # the same hits; the first child seen stays the best
        net, _, val, _, _ = trained_prev(5)
        children = []

        def fit(net, ref, epochs, seed):
            net.layers[-1].weight[...] = 0.0
            net.layers[-1].bias[...] = 0.0
            children.append(net)
            return net

        scfg = SearchConfig(budget=4, m_children=2, child_epochs=1)
        result, _ = search_child(net, fit, [val], init_policy(17), None, seed=11,
                                 search_cfg=scfg)
        a_vals = {r["a_val"] for r in result.log}
        assert a_vals == {np.count_nonzero(val.labels == 0) / len(val)}
        assert len({r["actions"] for r in result.log}) > 1  # the children differ
        assert result.net is children[0]
        assert result.a_val == result.log[0]["a_val"]

    def test_a_diverged_child_is_never_best(self):
        # the first child diverges; the second scores no hit and is still picked
        net, _, val, _, _ = trained_prev(5)
        zero = Dataset(val.inputs[:], np.full(len(val), 2))
        calls = []

        def fit(net, ref, epochs, seed):
            calls.append(net)
            if len(calls) == 1:
                raise TrainingDiverged("first child")
            net.layers[-1].weight[...] = 0.0
            net.layers[-1].bias[...] = 0.0
            return net

        result, _ = search_child(net, fit, [zero], init_policy(17), None, seed=11,
                                 search_cfg=SearchConfig(budget=2, m_children=2))
        assert [(r["diverged"], r["a_val"]) for r in result.log] == [(True, 0.0), (False, 0.0)]
        assert result.net is calls[1] and result.a_val == 0.0

    def test_empty_views_change_nothing(self):
        _, _, val, _, _ = trained_prev(5)
        empty = Dataset(np.zeros((0, 6)), np.zeros(0, dtype=int))
        head, tail = val.subset(np.arange(30)), val.subset(np.arange(30, 80))
        assert (self._search([empty, head, empty, tail]).log
                == self._search([head, tail]).log)
        for none in ([], [empty, empty]):
            with pytest.raises(ValueError, match="empty validation set"):
                self._search(none, budget=1)

    def test_search_copies_no_validation_view(self):
        rng = np.random.default_rng(7)
        arch = Arch(64, (8, 8), 3)
        train = Dataset(rng.standard_normal((40, 64)), rng.integers(0, 3, 40))
        val = Dataset(rng.standard_normal((6000, 64)), rng.integers(0, 3, 6000))

        def fit(net, ref, epochs, seed):
            return train_task(net, train, loss_ce, None, epochs, 20, 0.01, seed)

        _, _, peak = traced_memory(search_child, init_network(arch, 0), fit, [val],
                                   init_policy(18), None, 0, SearchConfig(budget=1))
        assert peak < val.inputs.source.nbytes
