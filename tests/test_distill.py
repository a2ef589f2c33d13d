import numpy as np
import pytest

from rec.data import Dataset
from rec.distill import CompressConfig, collect_soft_targets, compress, kd_loss
from rec.netcore import Arch, DenseNet, Layer, forward, init_network, predict_logits
from rec.regularize import TrainingDiverged

from conftest import central_diff, max_rel_err


def linear_teacher(seed, input_dim=6, hidden=8, out=3):
    """A purely linear map: two linear factors folded into one output layer."""
    rng = np.random.default_rng(seed)
    w1 = 0.5 * rng.standard_normal((input_dim, hidden))
    w2 = 0.5 * rng.standard_normal((hidden, out))
    return DenseNet(Arch(input_dim, (), out), [Layer(w1 @ w2, np.zeros(out))])


class TestCollectSoftTargets:
    def test_identity_teacher(self, rng):
        net = DenseNet(Arch(3, (), 3), [Layer(np.eye(3), np.zeros(3))])
        ds = Dataset(rng.standard_normal((7, 3)), np.zeros(7, dtype=int))
        assert np.array_equal(collect_soft_targets(net, ds), ds.inputs[:])

    def test_repeat_determinism(self, rng):
        net = init_network(Arch(4, (5,), 2), seed=1)
        ds = Dataset(rng.standard_normal((9, 4)), rng.integers(0, 2, 9))
        a = collect_soft_targets(net, ds)
        b = collect_soft_targets(net, ds)
        assert np.array_equal(a, b)

    def test_rows_match_per_sample_forward(self, rng):
        net = init_network(Arch(4, (5,), 2), seed=2)
        ds = Dataset(rng.standard_normal((12, 4)), rng.integers(0, 2, 12))
        targets = collect_soft_targets(net, ds)
        from rec.netcore import Batch
        for i in range(12):
            row, _ = forward(net, Batch(ds.inputs[i:i + 1], ds.labels[i:i + 1]))
            assert np.allclose(targets[i], row[0], atol=1e-12)


class TestKDLoss:
    def test_zero_at_match(self, rng):
        z = rng.standard_normal((5, 3))
        v, d = kd_loss(z, z.copy())
        assert v == 0 and np.all(d == 0)

    def test_hand_value(self):
        v, _ = kd_loss(np.array([[1.0, 2.0]]), np.array([[0.0, 0.0]]))
        assert v == pytest.approx(5.0)  # 1 + 4

    def test_dlogits_vs_fd(self, rng):
        f = rng.standard_normal((4, 3))
        z = rng.standard_normal((4, 3))
        _, d = kd_loss(f, z)
        fd = central_diff(lambda v: kd_loss(v.reshape(4, 3), z)[0], f.ravel())
        assert max_rel_err(d.ravel(), fd) < 1e-8

    def test_row_permutation_invariance(self, rng):
        f = rng.standard_normal((6, 3))
        z = rng.standard_normal((6, 3))
        perm = rng.permutation(6)
        assert kd_loss(f, z)[0] == pytest.approx(kd_loss(f[perm], z[perm])[0])


class TestCompress:
    def test_realizable_linear_teacher(self, rng):
        teacher = linear_teacher(0)
        ds = Dataset(rng.standard_normal((1000, 6)), rng.integers(0, 3, 1000))
        cfg = CompressConfig(epochs=150, lr=0.05, momentum=0.9, kd_warmup_frac=1.0)
        student = compress(teacher, init_network(Arch(6, (64,), 3), 1), ds, cfg,
                           batch_size=64, seed=1)
        err = predict_logits(student, ds.inputs) - predict_logits(teacher, ds.inputs)
        rms = float(np.sqrt(np.mean(err ** 2)))
        assert rms < 1e-2

    def test_param_count_non_expansive(self, rng):
        teacher = init_network(Arch(5, (20, 16, 12), 2), seed=3)
        ds = Dataset(rng.standard_normal((64, 5)), rng.integers(0, 2, 64))
        initial = Arch(5, (6, 6), 2)
        student = compress(teacher, init_network(initial, 0), ds, CompressConfig(epochs=1),
                           batch_size=256, seed=0)
        assert student.param_count() == initial.param_count()

    def test_trains_a_copy_of_the_given_net(self, rng):
        teacher = init_network(Arch(4, (12, 9), 3), seed=6)
        given = init_network(Arch(4, (5,), 3), seed=7)
        before = given.get_flat().copy()
        ds = Dataset(rng.standard_normal((40, 4)), rng.integers(0, 3, 40))
        student = compress(teacher, given, ds, CompressConfig(epochs=2), batch_size=16, seed=0)
        assert given.get_flat().tobytes() == before.tobytes()
        assert student.arch == given.arch
        assert not np.array_equal(student.get_flat(), before)
        # lr = 0 leaves the warm start where it began
        still = compress(teacher, given, ds, CompressConfig(epochs=2, lr=0.0), batch_size=16,
                         seed=0)
        assert still is not given and still.get_flat().tobytes() == before.tobytes()

    def test_kd_term_zero_when_student_is_teacher(self, rng):
        teacher = init_network(Arch(4, (5,), 2), seed=4)
        ds = Dataset(rng.standard_normal((10, 4)), rng.integers(0, 2, 10))
        targets = collect_soft_targets(teacher, ds)
        v, _ = kd_loss(predict_logits(teacher, ds.inputs), targets)
        assert v == 0.0

    def test_nonfinite_targets_rejected(self, rng):
        teacher = init_network(Arch(4, (5,), 2), seed=4)
        teacher.layers[-1].bias[0] = np.inf
        ds = Dataset(rng.standard_normal((10, 4)), rng.integers(0, 2, 10))
        with pytest.raises(ValueError, match="finite"):
            collect_soft_targets(teacher, ds)


def test_compress_divergence_raises(rng):
    teacher = init_network(Arch(4, (6,), 3), seed=5)
    ds = Dataset(rng.standard_normal((64, 4)), rng.integers(0, 3, 64))
    # The shared training loop's message, not a copy of it in compress.
    with pytest.raises(TrainingDiverged, match="non-finite loss"), np.errstate(all="ignore"):
        compress(teacher, init_network(Arch(4, (6,), 3), 0), ds,
                 CompressConfig(epochs=20, lr=1e3), batch_size=256, seed=0)
