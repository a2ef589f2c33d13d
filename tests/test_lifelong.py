import numpy as np
import pytest

from rec.data import Dataset, synthetic_classes
from rec.distill import CompressConfig
from rec.lifelong import (AccuracyMatrix, MethodConfig, ablation_suite, gen_permuted_tasks,
                          gen_rotated_tasks, gen_split_tasks, method_config, rotate_images,
                          run_sequence, subseed)
from rec.controller import SearchConfig
from rec.regularize import PenaltyConfig, estimate_fisher
from rec.transform import action_to_line, parse_action_line


@pytest.fixture(scope="module")
def small_bench():
    """Tiny but learnable benchmark: 3 permuted tasks over 6x6 images."""
    train, test = synthetic_classes(600, 300, 6, 5, seed=11)
    return gen_permuted_tasks(train, test, 3, seed=0)


def _cfg(method, **kw):
    pc = kw.pop("penalty", PenaltyConfig(40.0, 3e-5, 1e-5, 1e-8))
    base = dict(epochs=6, batch_size=128, lr=0.03, fisher_samples=300)
    base.update(kw)
    return method_config(method, pc, **base)


class TestSubseed:
    def test_deterministic(self):
        assert subseed(7, "train", 3) == subseed(7, "train", 3)

    def test_distinct_names_and_steps(self):
        seen = {subseed(0, n, t) for n in ("data", "init", "search", "distill")
                for t in range(5)}
        assert len(seen) == 20

    def test_in_31_bit_range(self):
        for s in (0, 1, 999999):
            v = subseed(s, "x", 2)
            assert 0 <= v < 2 ** 31


class TestTaskGenerators:
    def test_permuted_first_task_is_identity(self, small_bench):
        train, test = synthetic_classes(100, 50, 6, 5, seed=11)
        seq = gen_permuted_tasks(train, test, 3, seed=0)
        assert np.array_equal(seq.tasks[0].test.inputs, test.inputs)

    def test_permuted_tasks_use_distinct_permutations(self, small_bench):
        specs = [t.transform_spec["permutation"] for t in small_bench.tasks]
        assert specs[1] != specs[2]
        assert sorted(specs[1]) == list(range(36))

    def test_permuted_preserves_labels(self, small_bench):
        base = small_bench.tasks[0]
        for task in small_bench.tasks[1:]:
            assert np.array_equal(task.test.labels, base.test.labels)

    def test_permutation_applied_consistently(self):
        train, test = synthetic_classes(80, 40, 6, 5, seed=3)
        seq = gen_permuted_tasks(train, test, 2, seed=1)
        perm = np.array(seq.tasks[1].transform_spec["permutation"])
        assert np.array_equal(seq.tasks[1].test.inputs, test.inputs[:, perm])

    def test_val_split_disjoint_from_train(self, small_bench):
        t = small_bench.tasks[0]
        assert len(t.train) + len(t.val) == 600
        joined = np.vstack([t.train.inputs, t.val.inputs])
        assert joined.shape[0] == 600

    def test_rotated_angles(self):
        train, test = synthetic_classes(100, 50, 6, 4, seed=5)
        seq = gen_rotated_tasks(train, test, 4, seed=0)
        assert [t.transform_spec["angle_deg"] for t in seq.tasks] == [0.0, 45.0, 90.0, 135.0]

    def test_rotated_task_one_identity(self):
        train, test = synthetic_classes(60, 30, 6, 4, seed=5)
        seq = gen_rotated_tasks(train, test, 4, seed=0)
        assert np.array_equal(seq.tasks[0].test.inputs, test.inputs)

    def test_split_blocks_and_remap(self):
        train, test = synthetic_classes(400, 200, 6, 6, seed=9)
        seq = gen_split_tasks(train, test, 3, seed=0)
        assert [t.num_classes for t in seq.tasks] == [2, 2, 2]
        for t in seq.tasks:
            assert set(np.unique(t.test.labels)) <= {0, 1}
        assert seq.tasks[2].transform_spec["classes"] == [4, 5]

    def test_split_rejects_non_divisible(self):
        train, test = synthetic_classes(100, 50, 6, 5, seed=9)
        with pytest.raises(ValueError):
            gen_split_tasks(train, test, 3, seed=0)

    def test_bad_task_count(self):
        train, test = synthetic_classes(50, 20, 6, 4, seed=2)
        with pytest.raises(ValueError):
            gen_permuted_tasks(train, test, 0, seed=0)


class TestRotateImages:
    def test_zero_rotation_identity(self, rng):
        x = rng.random((4, 25))
        assert np.array_equal(rotate_images(x, 0.0), x)

    def test_180_equals_double_flip(self, rng):
        x = rng.random((3, 49))
        rot = rotate_images(x, 180.0)
        expect = x.reshape(3, 7, 7)[:, ::-1, ::-1].reshape(3, 49)
        assert np.allclose(rot, expect, atol=1e-12)

    def test_360_round_trip(self, rng):
        x = rng.random((2, 64))
        assert np.allclose(rotate_images(x, 360.0), x, atol=1e-12)

    def test_90_preserves_mass_of_centered_square(self):
        # A symmetric pattern about the center survives any multiple of 90.
        x = np.zeros((1, 25))
        x[0, 12] = 1.0
        assert np.allclose(rotate_images(x, 90.0), x)

    def test_non_square_rejected(self, rng):
        with pytest.raises(ValueError):
            rotate_images(rng.random((2, 30)), 45.0)


class TestAccuracyMatrix:
    def test_row_length_enforced(self):
        m = AccuracyMatrix()
        m.add_row([0.9])
        with pytest.raises(ValueError):
            m.add_row([0.8, 0.7, 0.6])

    def test_acc_indexing(self):
        m = AccuracyMatrix([[0.9], [0.8, 0.95]])
        assert m.acc(1, 1) == 0.9
        assert m.acc(2, 1) == 0.8
        assert m.acc(2, 2) == 0.95

    def test_avg_per_task(self):
        m = AccuracyMatrix([[0.9], [0.8, 0.6]])
        assert m.avg_per_task(1) == 0.9
        assert m.avg_per_task(2) == pytest.approx(0.7)

    def test_forgetting_curve(self):
        m = AccuracyMatrix([[0.9], [0.8, 0.6], [0.7, 0.5, 0.95]])
        assert m.forgetting_curve(1) == [0.9, 0.8, 0.7]
        assert m.forgetting_curve(3) == [0.95]

    def test_curve_of_unlearned_task(self):
        m = AccuracyMatrix([[0.9]])
        with pytest.raises(ValueError):
            m.forgetting_curve(2)


class TestMethodConfig:
    def test_rec_requires_expansion_and_compression(self):
        with pytest.raises(ValueError):
            MethodConfig(method="rec")

    def test_fixed_arch_methods_reject_expansion(self):
        with pytest.raises(ValueError):
            MethodConfig(method="ewc", expansion=True)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            MethodConfig(method="finetune")

    def test_lambda_zeroing(self):
        pc = PenaltyConfig(40.0, 0.01, 0.001, 1e-8)
        assert method_config("sn", pc).penalty.lambda_ewc == 0.0
        assert method_config("ewc", pc).penalty.lambda_21 == 0.0
        assert method_config("ewc", pc).penalty.lambda_ewc == 40.0
        assert method_config("ewc_l21", pc).penalty.lambda_1 == 0.0
        assert method_config("mwc", pc).penalty == pc

    def test_rec_flags_set(self):
        mc = method_config("rec", PenaltyConfig())
        assert mc.expansion and mc.compression


class TestRunSequence:
    def test_sn_forgets_first_task(self, small_bench):
        r = run_sequence(small_bench, _cfg("sn", epochs=10, lr=0.06), seed=0)
        curve = r.acc.forgetting_curve(1)
        assert curve[0] > 0.9
        assert curve[0] - curve[-1] >= 0.15

    def test_ewc_retains_better_than_sn(self, small_bench):
        sn = run_sequence(small_bench, _cfg("sn", epochs=10, lr=0.06), seed=0)
        ewc = run_sequence(small_bench, _cfg("ewc", epochs=10, lr=0.06,
                                             penalty=PenaltyConfig(60.0, 0, 0, 1e-8)),
                           seed=0)
        assert np.mean(ewc.acc.rows[-1]) > np.mean(sn.acc.rows[-1])

    def test_fixed_methods_constant_size(self, small_bench):
        r = run_sequence(small_bench, _cfg("mwc"), seed=1)
        assert len(set(r.size_trace)) == 1

    def test_rec_constant_size_and_distill_records(self, small_bench):
        mc = method_config(
            "rec", PenaltyConfig(40.0, 3e-5, 1e-5, 1e-8), epochs=6, batch_size=128,
            lr=0.03, fisher_samples=300, search_budget=3,
            search=SearchConfig(m_children=3, child_epochs=2, batch_size=128,
                                lr=0.03, controller_lr=0.05),
            compress_cfg=CompressConfig(epochs=16, batch_size=128, lr=0.005))
        r = run_sequence(small_bench, mc, seed=0)
        assert len(set(r.size_trace)) == 1
        assert r.size_trace[0] == r.final_net.param_count()
        later = [rec for rec in r.records if rec["task"] > 1]
        assert all("student_new_task_acc" in rec for rec in later)

    @pytest.mark.parametrize("method", ["net2net_ewc", "rec"])
    def test_recorded_actions_use_action_lines(self, small_bench, method):
        mc = _cfg(method, epochs=2, search_budget=4,
                  search=SearchConfig(m_children=2, child_epochs=1, batch_size=128, lr=0.03),
                  compress_cfg=CompressConfig(epochs=2, batch_size=128, lr=0.005))
        r = run_sequence(small_bench, mc, seed=0)
        recorded = [rec["actions"] for rec in r.records if rec["task"] > 1]
        assert len(recorded) == 2 and any(recorded)
        for lines in recorded:
            for line in lines:
                assert action_to_line(parse_action_line(line)) == line

    def test_net2net_grows(self, small_bench):
        r = run_sequence(small_bench, _cfg("net2net"), seed=0)
        assert r.size_trace[-1] > r.size_trace[0]

    def test_single_task_methods_agree(self):
        # With one task no penalty is ever active, so every fixed-architecture
        # method reduces to the same CE training run.
        train, test = synthetic_classes(300, 150, 6, 5, seed=21)
        seq = gen_permuted_tasks(train, test, 1, seed=0)
        finals = []
        for m in ("sn", "ewc", "ewc_l1", "ewc_l21", "mwc"):
            r = run_sequence(seq, _cfg(m), seed=4)
            finals.append(r.final_net.get_flat())
        for f in finals[1:]:
            assert np.array_equal(f, finals[0])

    def test_lambda_zeroed_mwc_identical_to_ewc(self, small_bench):
        pc = PenaltyConfig(40.0, 3e-5, 1e-5, 1e-8)
        ewc = run_sequence(small_bench, _cfg("ewc", penalty=pc), seed=2)
        mwc0 = run_sequence(small_bench,
                            _cfg("mwc", penalty=PenaltyConfig(40.0, 0.0, 0.0, 1e-8)),
                            seed=2)
        assert np.array_equal(ewc.final_net.get_flat(), mwc0.final_net.get_flat())
        assert ewc.acc.rows == mwc0.acc.rows

    def test_repeat_run_bit_identical(self, small_bench):
        a = run_sequence(small_bench, _cfg("mwc"), seed=3)
        b = run_sequence(small_bench, _cfg("mwc"), seed=3)
        assert np.array_equal(a.final_net.get_flat(), b.final_net.get_flat())
        assert a.acc.rows == b.acc.rows

    def test_split_protocol_runs(self):
        train, test = synthetic_classes(400, 200, 6, 6, seed=13)
        seq = gen_split_tasks(train, test, 3, seed=0)
        r = run_sequence(seq, _cfg("ewc"), seed=0)
        assert len(r.acc.rows) == 3
        assert np.mean(r.acc.rows[-1]) > 0.5

    @pytest.mark.parametrize("method,calls", [("ewc", 2), ("sn", 0)])
    def test_fisher_only_for_tasks_that_follow(self, small_bench, monkeypatch, method,
                                                calls):
        seen = []

        def counting(*args, **kwargs):
            seen.append(args)
            return estimate_fisher(*args, **kwargs)

        monkeypatch.setattr("rec.lifelong.estimate_fisher", counting)
        run_sequence(small_bench, _cfg(method, epochs=1), seed=0)
        assert len(seen) == calls


class TestAblationSuite:
    def test_requires_three_seeds(self, small_bench):
        with pytest.raises(ValueError):
            ablation_suite(small_bench, [0, 1], PenaltyConfig())

    def test_returns_all_variants(self, small_bench):
        out = ablation_suite(small_bench, [0, 1, 2], PenaltyConfig(40.0, 3e-5, 1e-5, 1e-8),
                             epochs=4, batch_size=128, lr=0.03, fisher_samples=200)
        assert set(out) == {"ewc", "ewc_l1", "ewc_l21", "mwc"}
        assert all(0.0 <= v <= 1.0 for v in out.values())
