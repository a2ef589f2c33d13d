import copy

import numpy as np
import pytest

from rec.controller import (BaselineState, SearchConfig, _deeper_probs, _wider_prob,
                            encode, init_policy, reinforce_update, reward_transform,
                            sample_episode, search_child)
from rec.data import Dataset
from rec.netcore import Arch, init_network
from rec.regularize import (Anchor, FisherDiag, PenaltyConfig, consolidation, estimate_fisher,
                            train_task)
from rec.transform import DeeperAction, WiderAction

ARCH = Arch(6, (8, 8), 3)


def trained_prev(seed=0):
    rng = np.random.default_rng(seed)
    train = Dataset(rng.standard_normal((300, 6)), rng.integers(0, 3, 300))
    val = Dataset(rng.standard_normal((80, 6)), rng.integers(0, 3, 80))
    net = init_network(ARCH, seed)
    train_task(net, train, consolidation(None, None, PenaltyConfig()),
               2, 64, 0.01, seed)
    fisher = estimate_fisher(net, train, 100, seed)
    return net, train, val, Anchor(net.get_flat()), fisher


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

    def test_log_prob_product_identity(self):
        policy = init_policy(6)
        ep = sample_episode(policy, ARCH, seed=11)
        product = float(np.prod([np.exp(d.logp) for d in ep.decisions]))
        assert np.isfinite(ep.log_prob)
        assert abs(np.exp(ep.log_prob) - product) < 1e-12


class TestRewardTransform:
    def test_tan_zero(self):
        r, _ = reward_transform(0.0, BaselineState(ema=0.0))
        assert r == 0.0

    def test_tan_half(self):
        r, _ = reward_transform(0.5, BaselineState(ema=0.0))
        assert r == pytest.approx(1.0)  # tan(pi/4)

    def test_constant_stream_reward_decays(self):
        baseline = BaselineState(ema=0.0)
        rewards = []
        for _ in range(120):
            r, baseline = reward_transform(0.6, baseline)
            rewards.append(r)
        assert abs(rewards[-1]) < 1e-2 * abs(rewards[0])

    def test_singularity_clamped(self):
        r, b = reward_transform(1.0, BaselineState())
        assert np.isfinite(r) and np.isfinite(b.ema)

    def test_ema_stays_in_raw_range(self):
        rng = np.random.default_rng(0)
        baseline = BaselineState()
        raws = []
        for _ in range(200):
            a = float(rng.random())
            raws.append(np.tan(min(a, 0.999) * np.pi / 2))
            _, baseline = reward_transform(a, baseline)
            assert min(raws) - 1e-12 <= baseline.ema <= max(raws) + 1e-12


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
        scfg = SearchConfig(m_children=1, child_epochs=2, batch_size=64, lr=0.01)
        result, _ = search_child(net, train, [val], anchor, fisher, cfg, 1,
                                 policy, BaselineState(), seed=5, search_cfg=scfg)
        assert result.actions == []
        expect = net.copy()
        objective = consolidation(anchor, fisher, cfg)
        train_task(expect, train, objective, 2, 64, 0.01, seed=5 + 2)
        assert np.array_equal(result.net.get_flat(), expect.get_flat())

    def test_best_of_seen(self):
        net, train, val, anchor, fisher = trained_prev(1)
        policy = init_policy(13)
        scfg = SearchConfig(m_children=3, child_epochs=1, batch_size=64, lr=0.01)
        result, _ = search_child(net, train, [val], anchor, fisher, PenaltyConfig(),
                                 6, policy, BaselineState(), seed=7, search_cfg=scfg)
        assert result.a_val == pytest.approx(max(r["a_val"] for r in result.log))
        assert len(result.log) == 6

    def test_reproducible(self):
        flats = []
        for _ in range(2):
            net, train, val, anchor, fisher = trained_prev(2)
            policy = init_policy(14)
            scfg = SearchConfig(m_children=2, child_epochs=1, batch_size=64, lr=0.01)
            result, _ = search_child(net, train, [val], anchor, fisher, PenaltyConfig(),
                                     4, policy, BaselineState(), seed=9, search_cfg=scfg)
            flats.append(result.net.get_flat())
        assert np.array_equal(flats[0], flats[1])

    def test_empty_validation_rejected(self):
        net, train, val, anchor, fisher = trained_prev(3)
        empty = Dataset(np.zeros((0, 6)), np.zeros(0, dtype=int))
        with pytest.raises(ValueError):
            search_child(net, train, [empty], anchor, fisher, PenaltyConfig(), 1,
                         init_policy(15), BaselineState(), seed=0)
