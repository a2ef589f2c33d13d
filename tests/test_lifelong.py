import re

import numpy as np
import pytest

from rec.data import Dataset, RowView, split_train_val, synthetic_classes
from rec.distill import CompressConfig
from rec import lifelong
from rec.lifelong import (METHODS, VAL_RATIO, gen_permuted_tasks,
                          gen_rotated_tasks, gen_split_tasks, method_config,
                          rotation_columns, run_sequence, subseed)
from rec.controller import SearchConfig
from rec.netcore import Arch, evaluate, init_network, predict_logits
from rec.regularize import PenaltyConfig, estimate_fisher

from conftest import traced_memory


@pytest.fixture(scope="module")
def small_bench():
    """Tiny but learnable benchmark: 3 permuted tasks over 6x6 images."""
    train, test = synthetic_classes(600, 300, 6, 5, seed=11)
    return gen_permuted_tasks(train, test, 3, seed=0)


def _cfg(method, **kw):
    pc = kw.pop("penalty", PenaltyConfig(40.0, 3e-5, 1e-5))
    base = dict(epochs=6, batch_size=128, lr=0.03, fisher_samples=300)
    base.update(kw)
    return method_config(method, pc, **base)


def _rows(result):
    """Row t of the accuracy matrix is record t's accuracies."""
    return [rec["accuracies"] for rec in result.records]


def _sizes(result):
    return [rec["param_count"] for rec in result.records]


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
        assert seq[0].train.inputs.cols is None
        assert np.array_equal(seq[0].test.inputs[:], test.inputs[:])

    def test_permuted_tasks_use_distinct_permutations(self, small_bench):
        cols = [t.train.inputs.cols for t in small_bench[1:]]
        assert not np.array_equal(cols[0], cols[1])
        assert sorted(cols[0].tolist()) == list(range(36))
        # task 1 draws nothing; task t reads the (t-1)-th draw of the "perm" stream
        assert np.array_equal(cols, self._perms(36, 3, seed=0)[1:])

    def test_permuted_preserves_labels(self, small_bench):
        base = small_bench[0]
        for task in small_bench[1:]:
            assert np.array_equal(task.test.labels, base.test.labels)

    def test_permutation_applied_consistently(self):
        train, test = synthetic_classes(80, 40, 6, 5, seed=3)
        seq = gen_permuted_tasks(train, test, 2, seed=1)
        perm = self._perms(36, 2, seed=1)[1]
        assert np.array_equal(seq[1].test.inputs[:], test.inputs[:][:, perm])

    def test_val_split_disjoint_from_train(self, small_bench):
        t = small_bench[0]
        assert len(t.train) + len(t.val) == 600
        joined = np.vstack([t.train.inputs[:], t.val.inputs[:]])
        assert joined.shape[0] == 600

    @staticmethod
    def _perms(d, num_tasks, seed):
        """Each task's pixel permutation, drawn as the generator draws it."""
        rng = np.random.default_rng(subseed(seed, "perm"))
        return [np.arange(d)] + [rng.permutation(d) for _ in range(num_tasks - 1)]

    @staticmethod
    def _source_splits(train, test, seed):
        tr, va = split_train_val(train, VAL_RATIO, subseed(seed, "valsplit"))
        return {"train": tr, "val": va, "test": test}

    @staticmethod
    def _same_bits(a, b):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_permuted_splits_are_the_permuted_rows(self):
        train, test = synthetic_classes(120, 60, 6, 4, seed=4)
        seq = gen_permuted_tasks(train, test, 3, seed=1)
        source = self._source_splits(train, test, seed=1)
        for task, perm in zip(seq, self._perms(36, 3, seed=1)):
            for name, rows in source.items():
                split = getattr(task, name)
                assert self._same_bits(split.inputs[:], np.take(rows.inputs[:], perm, axis=1))
                assert self._same_bits(split.labels, rows.labels)

    def test_rotated_splits_are_the_rotated_rows(self):
        train, test = synthetic_classes(120, 60, 6, 4, seed=4)
        seq = gen_rotated_tasks(train, test, 4, seed=2)
        source = self._source_splits(train, test, seed=2)
        for task, angle in zip(seq, [0.0, 45.0, 90.0, 135.0]):
            cols = task.train.inputs.cols
            outside = [] if cols is None else np.flatnonzero(cols < 0)
            for name, rows in source.items():
                split = getattr(task, name)
                rotated = RowView(rows.inputs[:], cols=rotation_columns(36, angle))[:]
                assert self._same_bits(split.inputs[:], rotated)
                assert self._same_bits(split.labels, rows.labels)
                # zero fill is +0.0 exactly, whatever the source pixel holds
                zeros = np.zeros((len(rows), len(outside)), train.inputs.source.dtype)
                assert self._same_bits(split.inputs[:][:, outside], zeros)
        # 45 degrees crops corners
        assert len(np.flatnonzero(seq[1].train.inputs.cols < 0)) > 0

    @pytest.mark.parametrize("gen", [gen_permuted_tasks, gen_rotated_tasks])
    def test_sequence_keeps_one_copy_of_the_data(self, gen):
        train, test = synthetic_classes(300, 100, 16, 4, seed=6)
        source_bytes = train.inputs.source.nbytes + test.inputs.source.nbytes
        seq, retained, _ = traced_memory(gen, train, test, 10, seed=0)
        assert retained < source_bytes / 4, (retained, source_bytes)
        for name in ("train", "val", "test"):
            source = getattr(seq[0], name).inputs.source
            assert all(getattr(task, name).inputs.source is source for task in seq)
        assert seq[0].test.inputs.source is test.inputs.source

    @pytest.mark.parametrize("gen", [gen_permuted_tasks, gen_rotated_tasks])
    def test_column_mapped_source_rejected(self, gen):
        # a task's own split already reads through its map; a second map is
        # not composed onto it
        train, test = synthetic_classes(60, 30, 6, 4, seed=5)
        mapped = gen_rotated_tasks(train, test, 2, seed=0)[1].train
        with pytest.raises(ValueError, match="column-mapped"):
            gen(mapped, test, 2, seed=0)

    def test_rotated_angles(self):
        train, test = synthetic_classes(100, 50, 6, 4, seed=5)
        seq = gen_rotated_tasks(train, test, 4, seed=0)
        assert seq[0].train.inputs.cols is None
        for task, angle in zip(seq[1:], [45.0, 90.0, 135.0]):
            for name in ("train", "val", "test"):
                assert np.array_equal(getattr(task, name).inputs.cols,
                                      rotation_columns(36, angle))

    def test_rotated_task_one_identity(self):
        train, test = synthetic_classes(60, 30, 6, 4, seed=5)
        seq = gen_rotated_tasks(train, test, 4, seed=0)
        assert seq[0].train.inputs.cols is None
        assert np.array_equal(seq[0].test.inputs[:], test.inputs[:])

    def test_split_blocks_and_remap(self):
        train, test = synthetic_classes(400, 200, 6, 6, seed=9)
        seq = gen_split_tasks(train, test, 3, seed=0)
        assert [t.num_classes for t in seq] == [2, 2, 2]
        for t in seq:
            assert set(np.unique(t.test.labels)) <= {0, 1}
        block = np.isin(test.labels, [4, 5])  # task 3 holds classes 4 and 5
        assert np.array_equal(seq[2].test.labels, test.labels[block] - 4)
        assert np.array_equal(seq[2].test.inputs[:], test.inputs[:][block])

    @pytest.mark.parametrize("gen", [gen_permuted_tasks, gen_rotated_tasks, gen_split_tasks])
    def test_class_count_reads_train_and_test_labels(self, gen):
        # class 2 occurs only in the test split; it still gets an output
        train, test = synthetic_classes(100, 40, 6, 3, seed=1)
        train = Dataset(train.inputs, np.arange(100) % 2)
        test = Dataset(test.inputs, np.arange(40) % 3)
        assert [task.num_classes for task in gen(train, test, 1, seed=0)] == [3]

    def test_split_rejects_non_divisible(self):
        train, test = synthetic_classes(100, 50, 6, 5, seed=9)
        with pytest.raises(ValueError):
            gen_split_tasks(train, test, 3, seed=0)

    def test_bad_task_count(self):
        train, test = synthetic_classes(50, 20, 6, 4, seed=2)
        with pytest.raises(ValueError):
            gen_permuted_tasks(train, test, 0, seed=0)

    @pytest.mark.parametrize("gen", [gen_permuted_tasks, gen_rotated_tasks, gen_split_tasks])
    @pytest.mark.parametrize("num_tasks", [0, -1])
    def test_fewer_than_one_task_rejected(self, gen, num_tasks):
        train, test = synthetic_classes(50, 20, 6, 4, seed=2)
        with pytest.raises(ValueError, match="at least one task"):
            gen(train, test, num_tasks, seed=0)

    def test_every_split_is_row_major(self):
        # every gather, a whole split, a chunk or a minibatch, is in C order
        train, test = synthetic_classes(120, 60, 6, 4, seed=4)
        for gen in (gen_permuted_tasks, gen_rotated_tasks, gen_split_tasks):
            for task in gen(train, test, 2, seed=0):
                for name in ("train", "val", "test"):
                    inputs = getattr(task, name).inputs
                    for key in (slice(None), slice(3, 9), np.arange(len(inputs))[::-3]):
                        assert inputs[key].flags.c_contiguous, (gen.__name__, name)

    @staticmethod
    def _materialized(train, test, kind, seed, num_tasks):
        """Per task, its splits as the whole-split formula builds them:
        {name: (inputs, labels)}, with the rows chosen and copied first."""
        def parts(x, y, valseed):
            order = np.random.default_rng(valseed).permutation(len(y))
            n_val = int(round(len(y) * VAL_RATIO))
            return {"train": (x[order[n_val:]], y[order[n_val:]]),
                    "val": (x[order[:n_val]], y[order[:n_val]])}

        if kind == "split":
            per = int(train.labels.max() + 1) // num_tasks
            out = []
            for t in range(num_tasks):
                def block(ds):
                    sel = np.isin(ds.labels, np.arange(t * per, (t + 1) * per))
                    return ds.inputs[:][sel], ds.labels[sel] - t * per
                out.append({**parts(*block(train), subseed(seed, "valsplit", t)),
                            "test": block(test)})
            return out
        base = {**parts(train.inputs[:], train.labels, subseed(seed, "valsplit")),
                "test": (test.inputs[:], test.labels)}
        d = train.input_dim
        if kind == "permuted":
            throughs = [lambda x, p=p: np.take(x, p, axis=1)
                        for p in TestTaskGenerators._perms(d, num_tasks, seed)]
        else:
            throughs = [lambda x, a=t * 180.0 / num_tasks:
                        RowView(x, cols=rotation_columns(d, a))[:]
                        for t in range(num_tasks)]
        return [{name: (through(x), y) for name, (x, y) in base.items()}
                for through in throughs]

    @pytest.mark.parametrize("kind", ["permuted", "rotated", "split"])
    def test_gathers_equal_the_whole_split_formula(self, kind):
        # Minibatches, 512-row chunks (a short last one too) and whole splits
        # read through a view equal the rows of the materialized split.
        train, test = synthetic_classes(1500, 1300, 6, 4, seed=8)
        train.inputs.source += 1.0  # so that a -1 column left unzeroed would show
        seq = {"permuted": gen_permuted_tasks, "rotated": gen_rotated_tasks,
               "split": gen_split_tasks}[kind](train, test, 4 if kind != "split" else 2, seed=3)
        expected = self._materialized(train, test, kind, 3, len(seq))
        rng = np.random.default_rng(0)
        for task, want in zip(seq, expected):
            for name, (x, y) in want.items():
                split = getattr(task, name)
                assert np.array_equal(split.labels, y)
                keys = [slice(None), rng.permutation(len(y))[:256], slice(0, 512),
                        slice(512 * (len(y) // 512), None)]
                for key in keys:
                    assert self._same_bits(split.inputs[key], x[key]), (name, key)
            cols = task.train.inputs.cols
            if cols is not None and (cols < 0).any():
                got = task.train.inputs[rng.permutation(20)]
                zeros = np.zeros((20, int((cols < 0).sum())), train.inputs.source.dtype)
                assert self._same_bits(got[:, cols < 0], zeros)

    def test_scoring_a_view_equals_scoring_its_rows(self):
        # 1,300 rows: two full 512-row chunks and a short one
        train, test = synthetic_classes(1500, 1300, 6, 4, seed=9)
        task = gen_rotated_tasks(train, test, 3, seed=0)[1]
        net = init_network(Arch(36, (20,), 4), seed=1)
        for name in ("train", "test"):
            split = getattr(task, name)
            rows = split.inputs[:]
            assert predict_logits(net, split.inputs).tobytes() == \
                predict_logits(net, rows).tobytes()
            assert evaluate(net, split.inputs, split.labels) == \
                evaluate(net, rows, split.labels)

    @pytest.mark.parametrize("gen", [gen_permuted_tasks, gen_rotated_tasks])
    def test_run_sequence_never_holds_a_whole_split(self, gen):
        # 5,400 training rows of 256 inputs (10.5 MiB) against 512-row chunks
        train, test = synthetic_classes(6000, 1000, 16, 10, seed=3)
        seq = gen(train, test, 5, seed=0)
        rows, dim = seq[0].train.inputs.shape
        for method in ("ewc", "rec"):
            mc = _cfg(method, epochs=1, fisher_samples=1000,
                      search=SearchConfig(budget=2, m_children=2, child_epochs=1),
                      compress_cfg=CompressConfig(epochs=1))
            _, _, peak = traced_memory(run_sequence, seq, mc, seed=0)
            assert peak < rows * dim * 8, (method, peak)


class TestRotateImages:
    def test_zero_rotation_identity(self, rng):
        x = rng.random((4, 25))
        assert np.array_equal(RowView(x, cols=rotation_columns(x.shape[1], 0.0))[:], x)

    def test_180_equals_double_flip(self, rng):
        x = rng.random((3, 49))
        rot = RowView(x, cols=rotation_columns(x.shape[1], 180.0))[:]
        expect = x.reshape(3, 7, 7)[:, ::-1, ::-1].reshape(3, 49)
        assert np.allclose(rot, expect, atol=1e-12)

    def test_360_round_trip(self, rng):
        x = rng.random((2, 64))
        rot = RowView(x, cols=rotation_columns(x.shape[1], 360.0))[:]
        assert np.allclose(rot, x, atol=1e-12)

    def test_90_preserves_mass_of_centered_square(self):
        # A symmetric pattern about the center survives any multiple of 90.
        x = np.zeros((1, 25))
        x[0, 12] = 1.0
        assert np.allclose(RowView(x, cols=rotation_columns(x.shape[1], 90.0))[:], x)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            rotation_columns(30, 45.0)

    @pytest.mark.parametrize("angle", [30.0, 45.0, 90.0, 137.5])
    def test_clipped_gather_then_zero_fill(self, rng, angle):
        # The rotation as one whole-image formula: gather the clipped source
        # pixel, then zero every pixel whose source lies outside the image.
        side = 7
        x = rng.random((3, side * side)) + 1.0
        theta = np.deg2rad(angle)
        c = (side - 1) / 2.0
        rr, cc = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
        sr = np.rint(np.cos(theta) * (rr - c) + np.sin(theta) * (cc - c) + c).astype(int)
        sc = np.rint(-np.sin(theta) * (rr - c) + np.cos(theta) * (cc - c) + c).astype(int)
        inside = ((sr >= 0) & (sr < side) & (sc >= 0) & (sc < side)).ravel()
        expect = np.take(x, (np.clip(sr, 0, side - 1) * side + np.clip(sc, 0, side - 1)).ravel(),
                         axis=1)
        expect[:, ~inside] = 0.0
        got = RowView(x, cols=rotation_columns(x.shape[1], angle))[:]
        assert got.tobytes() == expect.tobytes()
        assert np.array_equal(rotation_columns(side * side, angle) < 0, ~inside)


ALL_LAMBDAS = {"lambda_ewc", "lambda_21", "lambda_1"}
# The paper's eight methods: (lambdas set to 0, expansion, compression).
EXPECTED_ROWS = {
    "sn": (ALL_LAMBDAS, False, False),
    "ewc": ({"lambda_21", "lambda_1"}, False, False),
    "ewc_l1": ({"lambda_21"}, False, False),
    "ewc_l21": ({"lambda_1"}, False, False),
    "mwc": (set(), False, False),
    "net2net": (ALL_LAMBDAS, True, False),
    "net2net_ewc": ({"lambda_21", "lambda_1"}, True, False),
    "rec": (set(), True, True),
}


class TestMethodConfig:
    @pytest.mark.parametrize("method", list(EXPECTED_ROWS))
    def test_table_row(self, method):
        assert list(METHODS) == list(EXPECTED_ROWS)
        zeroed, expansion, compression = EXPECTED_ROWS[method]
        pc = PenaltyConfig(40.0, 0.01, 0.001)
        mc = method_config(method, pc, epochs=3)
        for lam in sorted(ALL_LAMBDAS):
            assert getattr(mc.penalty, lam) == (0.0 if lam in zeroed else getattr(pc, lam))
        assert (mc.expansion, mc.compression, mc.epochs) == (expansion, compression, 3)

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method 'finetune'"):
            method_config("finetune", PenaltyConfig())

    def test_lambda_zeroing(self):
        pc = PenaltyConfig(40.0, 0.01, 0.001)
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
        curve = [row[0] for row in _rows(r)]
        assert curve[0] > 0.9
        assert curve[0] - curve[-1] >= 0.15

    def test_ewc_retains_better_than_sn(self, small_bench):
        sn = run_sequence(small_bench, _cfg("sn", epochs=10, lr=0.06), seed=0)
        ewc = run_sequence(small_bench, _cfg("ewc", epochs=10, lr=0.06,
                                             penalty=PenaltyConfig(60.0, 0, 0)),
                           seed=0)
        assert np.mean(_rows(ewc)[-1]) > np.mean(_rows(sn)[-1])

    def test_fixed_methods_constant_size(self, small_bench):
        r = run_sequence(small_bench, _cfg("mwc"), seed=1)
        assert len(set(_sizes(r))) == 1

    def test_rec_constant_size_and_distill_records(self, small_bench):
        mc = method_config(
            "rec", PenaltyConfig(40.0, 3e-5, 1e-5), epochs=6, batch_size=128,
            lr=0.03, fisher_samples=300,
            search=SearchConfig(budget=3, m_children=3, child_epochs=2, controller_lr=0.05),
            compress_cfg=CompressConfig(epochs=16, lr=0.005))
        r = run_sequence(small_bench, mc, seed=0)
        assert len(set(_sizes(r))) == 1
        assert _sizes(r)[0] == r.final_net.param_count()
        later = [rec for rec in r.records if rec["task"] > 1]
        assert all("student_new_task_acc" in rec for rec in later)

    def test_student_scored_once(self, small_bench, monkeypatch):
        # After task t the carried net is scored on tasks 1..t; a distilling
        # task adds the child on the new task only: the student is the
        # carried net, so its new-task accuracy is the row's last entry.
        calls = []
        real = lifelong.evaluate

        def counting(net, inputs, labels):
            calls.append(net)
            return real(net, inputs, labels)

        monkeypatch.setattr(lifelong, "evaluate", counting)
        mc = _cfg("rec", epochs=1, search=SearchConfig(budget=2, m_children=2, child_epochs=1),
                  compress_cfg=CompressConfig(epochs=1))
        r = run_sequence(small_bench, mc, seed=0)
        t = len(small_bench)
        assert len(calls) == t * (t + 1) // 2 + (t - 1)
        for rec in r.records[1:]:
            assert rec["student_new_task_acc"] == rec["accuracies"][-1]

    def test_children_train_with_the_task_settings(self, small_bench, monkeypatch):
        calls = []
        real = lifelong.train_task

        def recording(net, train_set, logit_loss, penalty, epochs, batch_size, lr, seed,
                      momentum):
            calls.append((epochs, batch_size, lr, momentum))
            return real(net, train_set, logit_loss, penalty, epochs, batch_size, lr, seed,
                        momentum)

        monkeypatch.setattr(lifelong, "train_task", recording)
        mc = _cfg("rec", epochs=2, batch_size=96, lr=0.02, momentum=0.5,
                  search=SearchConfig(budget=2, m_children=2, child_epochs=1),
                  compress_cfg=CompressConfig(epochs=1))
        run_sequence(small_bench, mc, seed=0)
        assert {c[1:] for c in calls} == {(96, 0.02, 0.5)}
        t = len(small_bench)
        assert sorted(c[0] for c in calls) == [1] * (t - 1) * 2 + [2] * t

    @pytest.mark.parametrize("method", ["net2net_ewc", "rec"])
    def test_recorded_actions_use_action_lines(self, small_bench, method):
        mc = _cfg(method, epochs=2,
                  search=SearchConfig(budget=4, m_children=2, child_epochs=1),
                  compress_cfg=CompressConfig(epochs=2, lr=0.005))
        r = run_sequence(small_bench, mc, seed=0)
        recorded = [rec["actions"] for rec in r.records if rec["task"] > 1]
        assert len(recorded) == 2 and any(recorded)
        for lines in recorded:
            for line in lines:
                assert re.fullmatch(r"W \d+ \d+|D \d+", line), line

    def test_net2net_grows(self, small_bench):
        r = run_sequence(small_bench, _cfg("net2net"), seed=0)
        assert _sizes(r)[-1] > _sizes(r)[0]

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
        pc = PenaltyConfig(40.0, 3e-5, 1e-5)
        ewc = run_sequence(small_bench, _cfg("ewc", penalty=pc), seed=2)
        mwc0 = run_sequence(small_bench,
                            _cfg("mwc", penalty=PenaltyConfig(40.0, 0.0, 0.0)),
                            seed=2)
        assert np.array_equal(ewc.final_net.get_flat(), mwc0.final_net.get_flat())
        assert _rows(ewc) == _rows(mwc0)

    def test_repeat_run_bit_identical(self, small_bench):
        a = run_sequence(small_bench, _cfg("mwc"), seed=3)
        b = run_sequence(small_bench, _cfg("mwc"), seed=3)
        assert np.array_equal(a.final_net.get_flat(), b.final_net.get_flat())
        assert _rows(a) == _rows(b)

    def test_split_protocol_runs(self):
        train, test = synthetic_classes(400, 200, 6, 6, seed=13)
        seq = gen_split_tasks(train, test, 3, seed=0)
        r = run_sequence(seq, _cfg("ewc"), seed=0)
        assert len(_rows(r)) == 3
        assert np.mean(_rows(r)[-1]) > 0.5

    @pytest.mark.parametrize("method", ["net2net", "net2net_ewc"])
    def test_split_widening_of_the_last_hidden_layer(self, method):
        # Widening the only hidden layer widens the output layer's fan-in too.
        train, test = synthetic_classes(300, 150, 6, 6, seed=17)
        seq = gen_split_tasks(train, test, 3, seed=0)
        r = run_sequence(seq, _cfg(method, epochs=2), seed=0, hidden_widths=(8,))
        assert [len(row) for row in _rows(r)] == [1, 2, 3]
        assert r.final_net.arch.hidden_widths == (32,)

    def test_split_search_scored_on_all_learned_tasks_runs(self):
        # Every split task's labels are 0..K-1 of the one output layer, so the
        # search can score a child on every learned task's validation rows.
        train, test = synthetic_classes(300, 150, 6, 6, seed=17)
        seq = gen_split_tasks(train, test, 3, seed=0)
        mc = _cfg("rec", epochs=2, reward_scope="all-learned",
                  search=SearchConfig(budget=2, m_children=2, child_epochs=1),
                  compress_cfg=CompressConfig(epochs=2))
        r = run_sequence(seq, mc, seed=0)
        assert [len(row) for row in _rows(r)] == [1, 2, 3]
        assert {rec["task"] for rec in r.search_log} == {2, 3}

    @pytest.mark.parametrize("method", ["sn", "rec"])
    def test_split_records_score_the_one_net(self, method):
        # Record t holds evaluate() of the net after task t, which is the final
        # net of the sequence cut after task t, on every learned task.
        train, test = synthetic_classes(300, 150, 6, 6, seed=17)
        seq = gen_split_tasks(train, test, 3, seed=0)
        mc = _cfg(method, epochs=2, search=SearchConfig(budget=2, m_children=2, child_epochs=1),
                  compress_cfg=CompressConfig(epochs=2))
        r = run_sequence(seq, mc, seed=0)
        for t, rec in enumerate(r.records, 1):
            net = (r.final_net if t == len(seq)
                   else run_sequence(seq[:t], mc, seed=0).final_net)
            assert rec["accuracies"] == [evaluate(net, k.test.inputs, k.test.labels)
                                         for k in seq[:t]]

    @pytest.mark.parametrize("kind", ["permuted", "split"])
    def test_records_are_the_result(self, kind):
        # Record t holds row t of the accuracy matrix, its mean and the model
        # size after task t; nothing else keeps a copy of them.
        train, test = synthetic_classes(300, 150, 6, 6, seed=17)
        gen = gen_permuted_tasks if kind == "permuted" else gen_split_tasks
        r = run_sequence(gen(train, test, 3, seed=0), _cfg("net2net_ewc", epochs=2), seed=0)
        assert [rec["task"] for rec in r.records] == [1, 2, 3]
        for rec in r.records:
            assert len(rec["accuracies"]) == rec["task"]
            assert rec["avg_per_task"] == float(np.mean(rec["accuracies"]))
        assert r.records[-1]["param_count"] == r.final_net.param_count()

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

