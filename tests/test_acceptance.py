"""End-to-end acceptance gate.

Eight numbered criteria: analytic-gradient exactness, function-preserving
morphisms, the constant-size contract, controller sanity, the two directional
benchmark orderings, compression fidelity, and byte-level determinism. Each
test prints a [acceptance] line with the measured numbers; the desk-scale
benchmark settings here are the calibrated CLI defaults.
"""

import copy
import time

import numpy as np
import pytest

from rec.cli import main as cli_main
from rec.controller import (SearchConfig, _wider_prob, encode, init_policy,
                            reinforce_update, sample_episode)
from rec.data import Dataset, synthetic_classes
from rec.distill import CompressConfig, compress, predict_logits
from rec.lifelong import gen_permuted_tasks, method_config, run_sequence
from rec.netcore import (Arch, Batch, DenseNet, Layer, forward,
                         init_network, loss_ce)
from rec.regularize import PenaltyConfig, ewc_term, l1_term, l21_term, mwc_loss
from rec.transform import DeeperAction, WiderAction, apply_actions

from conftest import central_diff, max_rel_err

SEEDS = (0, 1, 2)


# --- shared desk-scale benchmark ------------------------------------------

@pytest.fixture(scope="module")
def desk_tasks():
    train, test = synthetic_classes(2000, 1000, 8, 10, seed=123)
    return gen_permuted_tasks(train, test, 5, seed=0)


def _final_mean(result):
    return float(np.mean(result.records[-1]["accuracies"]))


@pytest.fixture(scope="module")
def ordering_runs(desk_tasks):
    """Fixed-architecture methods for criteria 5 and 6 (3 seeds each)."""
    penalty = PenaltyConfig(80.0, 3e-5, 1e-5)
    t0 = time.monotonic()
    means = {}
    for method in ("sn", "ewc", "ewc_l21", "mwc"):
        finals = []
        for s in SEEDS:
            mc = method_config(method, penalty, epochs=16, batch_size=256,
                               lr=0.06, fisher_samples=600)
            finals.append(_final_mean(run_sequence(desk_tasks, mc, s,
                                                   hidden_widths=(40, 40))))
        means[method] = float(np.mean(finals))
    means["_elapsed"] = time.monotonic() - t0
    return means


@pytest.fixture(scope="module")
def rec_runs(desk_tasks):
    """Full REC pipeline for criteria 3 and 7 (3 seeds)."""
    penalty = PenaltyConfig(40.0, 3e-5, 1e-5)
    t0 = time.monotonic()
    out = []
    for s in SEEDS:
        mc = method_config(
            "rec", penalty, epochs=8, batch_size=256, lr=0.03, fisher_samples=600,
            search=SearchConfig(budget=6, m_children=3, child_epochs=2, controller_lr=0.05),
            compress_cfg=CompressConfig(epochs=20, lr=0.005))
        out.append(run_sequence(desk_tasks, mc, s, hidden_widths=(40, 40)))
    return out, time.monotonic() - t0


# --- criterion 1: analytic penalty gradients ------------------------------

def test_criterion_1_penalty_gradients():
    t0 = time.monotonic()
    worst = 0.0
    for seed in range(3):
        rng = np.random.default_rng(seed)
        net = init_network(Arch(6, (8, 5), 4), seed)  # 125 params
        assert net.param_count() <= 500
        net.set_flat(net.get_flat() + 0.05 * rng.standard_normal(net.param_count()))
        p = net.get_flat()
        anchor = rng.standard_normal(p.size)
        fisher = rng.random(p.size)
        batch = Batch(rng.standard_normal((6, 6)), rng.integers(0, 4, 6))
        identity = np.arange(p.size)
        expanded = identity.copy()
        expanded[::4] = -1  # every fourth coordinate new: no anchor, no Fisher
        cfg = PenaltyConfig(1.5, 0.3, 0.2)

        cases = {
            "ewc": (ewc_term(p, anchor, fisher, 1.5)[1],
                    central_diff(lambda x: ewc_term(x, anchor, fisher, 1.5)[0], p)),
            "l21": (l21_term(p, anchor, 0.3)[1],
                    central_diff(lambda x: l21_term(x, anchor, 0.3)[0], p)),
            "l1": (l1_term(p, None, 0.2)[1],
                   central_diff(lambda x: l1_term(x, None, 0.2)[0], p)),
        }

        def full(flat, ref):
            probe = net.copy()
            probe.set_flat(flat)
            return mwc_loss(probe, batch, anchor, fisher, cfg, ref)

        cases["mwc"] = (full(p, identity)[1], central_diff(lambda x: full(x, identity)[0], p))
        cases["masked"] = (full(p, expanded)[1], central_diff(lambda x: full(x, expanded)[0], p))

        for name, (analytic, fd) in cases.items():
            err = max_rel_err(analytic, fd)
            worst = max(worst, err)
            assert err < 1e-4, f"{name} gradient mismatch: {err:.2e}"
    elapsed = time.monotonic() - t0
    assert elapsed < 60
    print(f"\n[acceptance] criterion 1 PASS: worst penalty-gradient rel err "
          f"{worst:.2e} < 1e-4 in {elapsed:.1f}s")


# --- criterion 2: function preservation -----------------------------------

def test_criterion_2_function_preservation():
    t0 = time.monotonic()
    worst = 0.0
    rng = np.random.default_rng(2024)
    for trial in range(1000):
        depth = int(rng.integers(1, 3))
        widths = [int(rng.integers(3, 7)) for _ in range(depth)]
        arch = Arch(int(rng.integers(3, 6)), tuple(widths), int(rng.integers(2, 5)))
        net = init_network(arch, int(rng.integers(0, 10_000)))

        actions = []
        n_wider = n_deeper = 0
        cur = list(widths)
        for _ in range(int(rng.integers(0, 4))):
            if rng.random() < 0.5 and n_wider < 2:
                i = int(rng.integers(0, len(cur)))
                cur[i] += int(rng.integers(1, 4))
                actions.append(WiderAction(i, cur[i]))
                n_wider += 1
            elif n_deeper < 3:
                k = int(rng.integers(0, len(cur)))
                actions.append(DeeperAction(k))
                cur.insert(k + 1, cur[k])
                n_deeper += 1

        x = rng.standard_normal((4, arch.input_dim))
        batch = Batch(x, np.zeros(4, dtype=int))
        before, _ = forward(net, batch)
        bigger, _ = apply_actions(net, actions, seed=trial)
        after, _ = forward(bigger, batch)
        worst = max(worst, float(np.max(np.abs(after - before))))
        assert worst < 1e-8, f"trial {trial}: |dlogits| {worst:.2e}"
    elapsed = time.monotonic() - t0
    assert elapsed < 60
    print(f"\n[acceptance] criterion 2 PASS: 1000 triples, worst |dlogits| "
          f"{worst:.2e} < 1e-8 in {elapsed:.1f}s")


# --- criterion 3: non-expansiveness ---------------------------------------

def test_criterion_3_non_expansive(rec_runs):
    runs, _ = rec_runs
    initial = Arch(64, (40, 40), 10).param_count()
    for run in runs:
        sizes = [rec["param_count"] for rec in run.records]
        assert sizes == [initial] * len(sizes)
        assert run.final_net.param_count() == initial
    print(f"\n[acceptance] criterion 3 PASS: parameter count {initial} after "
          f"every task, all {len(runs)} seeds")


# --- criterion 4: controller sanity ---------------------------------------

def _bandit_reward(ep) -> float:
    return 1.0 if any(isinstance(a, WiderAction) and a.layer_index == 0
                      for a in ep.actions) else 0.0


def test_criterion_4_controller_sanity():
    t0 = time.monotonic()
    arch = Arch(4, (8,), 2)
    cfg = SearchConfig(max_deeper=0)

    policy = init_policy(8)
    s = 0
    updates = 500
    for step in range(500):
        eps = []
        for _ in range(4):
            ep = sample_episode(policy, arch, seed=s, cfg=cfg)
            ep.reward = _bandit_reward(ep)
            eps.append(ep)
            s += 1
        reinforce_update(policy, eps, lr=0.5)
        states, _ = encode(policy, arch.hidden_widths)
        if _wider_prob(policy, states[0]) > 0.9:
            updates = step + 1
            break
    states, _ = encode(policy, arch.hidden_widths)
    p_final = _wider_prob(policy, states[0])
    assert p_final > 0.9

    # Monte-Carlo REINFORCE estimate against the closed-form E[R] = P(widen).
    policy = init_policy(9, hidden_size=8, emb_dim=4)
    rng = np.random.default_rng(10)
    policy.w_wider = 0.5 * rng.standard_normal(policy.w_wider.shape)
    policy.b_wider = 0.2
    probe = copy.deepcopy(policy)
    eps = []
    for s in range(50_000):
        ep = sample_episode(policy, arch, seed=s, cfg=cfg)
        ep.reward = _bandit_reward(ep)
        eps.append(ep)
    reinforce_update(probe, eps, lr=1.0)
    mc_b = probe.b_wider - policy.b_wider

    def expected_reward(pol):
        states, _ = encode(pol, arch.hidden_widths)
        return _wider_prob(pol, states[0])

    h = 1e-5
    pol = copy.deepcopy(policy)
    pol.b_wider += h
    up = expected_reward(pol)
    pol.b_wider -= 2 * h
    fd_b = (up - expected_reward(pol)) / (2 * h)
    rel = abs(mc_b - fd_b) / abs(fd_b)
    assert rel < 0.05

    elapsed = time.monotonic() - t0
    assert elapsed < 300
    print(f"\n[acceptance] criterion 4 PASS: bandit P(rewarded)={p_final:.3f} "
          f"after {updates} updates; MC-vs-FD rel err {rel:.3f} < 0.05 "
          f"in {elapsed:.1f}s")


# --- criterion 5: forgetting ordering -------------------------------------

def test_criterion_5_forgetting_ordering(ordering_runs):
    sn, ewc, mwc = (ordering_runs[m] for m in ("sn", "ewc", "mwc"))
    assert ewc - sn >= 0.05, f"SN-EWC gap {ewc - sn:.4f} < 0.05"
    assert ewc <= mwc, f"EWC {ewc:.4f} > MWC {mwc:.4f}"
    assert mwc > ewc, "MWC must be strictly better on the mean"
    assert ordering_runs["_elapsed"] < 900
    print(f"\n[acceptance] criterion 5 PASS: sn={sn:.4f} < ewc={ewc:.4f} "
          f"(gap {ewc - sn:.4f}) <= mwc={mwc:.4f}, 3 seeds "
          f"in {ordering_runs['_elapsed']:.1f}s")


# --- criterion 6: ablation ordering ---------------------------------------

def test_criterion_6_ablation_ordering(desk_tasks, ordering_runs):
    ewc, e21, mwc = (ordering_runs[m] for m in ("ewc", "ewc_l21", "mwc"))
    assert ewc <= e21 <= mwc, f"ordering violated: {ewc:.4f}, {e21:.4f}, {mwc:.4f}"

    # lambda-zeroed variants must follow the exact same code path numerics.
    for s in SEEDS[:1]:
        a = run_sequence(desk_tasks,
                         method_config("ewc", PenaltyConfig(80.0, 3e-5, 1e-5),
                                       epochs=16, batch_size=256, lr=0.06,
                                       fisher_samples=600), s, (40, 40))
        b = run_sequence(desk_tasks,
                         method_config("mwc", PenaltyConfig(80.0, 0.0, 0.0),
                                       epochs=16, batch_size=256, lr=0.06,
                                       fisher_samples=600), s, (40, 40))
        assert np.array_equal(a.final_net.get_flat(), b.final_net.get_flat())
        assert ([rec["accuracies"] for rec in a.records]
                == [rec["accuracies"] for rec in b.records])
    assert ordering_runs["_elapsed"] < 1200
    print(f"\n[acceptance] criterion 6 PASS: ewc={ewc:.4f} <= ewc_l21={e21:.4f} "
          f"<= mwc={mwc:.4f}; lambda-zeroed mwc bit-identical to ewc")


# --- criterion 7: compression fidelity ------------------------------------

def test_criterion_7_compression_fidelity(rec_runs):
    t0 = time.monotonic()
    # Realizable case: a linear teacher and a student of the same architecture.
    rng = np.random.default_rng(7)
    arch = Arch(6, (), 4)
    teacher = DenseNet(arch, [Layer(0.8 * rng.standard_normal((6, 4)),
                                    0.1 * rng.standard_normal(4))])
    ds = Dataset(rng.standard_normal((512, 6)), rng.integers(0, 4, 512))
    student = compress(teacher, init_network(arch, 1), ds,
                       CompressConfig(epochs=120, lr=0.05, kd_warmup_frac=1.0),
                       batch_size=64, seed=1)
    diff = predict_logits(student, ds.inputs) - predict_logits(teacher, ds.inputs)
    rms = float(np.sqrt(np.mean(diff ** 2)))
    assert rms < 1e-2, f"realizable distillation RMS {rms:.4f}"

    # Pipeline case: the compressed student must track the expanded child.
    runs, rec_elapsed = rec_runs
    worst = -1.0
    for run in runs:
        for rec in run.records:
            if "child_new_task_acc" in rec:
                worst = max(worst, rec["child_new_task_acc"]
                            - rec["student_new_task_acc"])
    assert worst <= 0.03, f"child-student accuracy gap {worst:.4f} > 0.03"
    elapsed = time.monotonic() - t0 + rec_elapsed
    assert elapsed < 600
    print(f"\n[acceptance] criterion 7 PASS: realizable KD RMS {rms:.4f} < 1e-2; "
          f"worst child-student gap {worst:.4f} <= 0.03 in {elapsed:.1f}s")


# --- criterion 8: determinism ---------------------------------------------

def test_criterion_8_byte_identical_csv(tmp_path):
    body = ("methods = sn,ewc,mwc,rec\nseeds = 0\ntasks = 3\nside = 6\n"
            "classes = 5\ntrain_samples = 400\ntest_samples = 200\n"
            "hidden = 16,16\nepochs = 4\nbatch_size = 128\nfisher_samples = 200\n"
            "search_budget = 3\n")
    for tag in ("a", "b"):
        cfg = tmp_path / f"{tag}.txt"
        cfg.write_text(body + f"out_dir = {tmp_path / tag}\n")
        assert cli_main(["run", str(cfg)]) == 0
    files = ("summary.csv", "series.csv")
    for name in files:
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()
    print(f"\n[acceptance] criterion 8 PASS: {', '.join(files)} byte-identical "
          f"across repeated full-pipeline runs")
