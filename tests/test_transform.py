import numpy as np
import pytest

from rec.data import Dataset
from rec.netcore import Arch, init_network, loss_ce, predict_logits
from rec.regularize import train_task
from rec.transform import DeeperAction, WiderAction, action_to_line, align_reference, apply_actions


def random_net(seed, arch=Arch(5, (4, 3), 2)):
    net = init_network(arch, seed)
    # small bias jitter so hidden units are not uniformly dead
    rng = np.random.default_rng(seed + 100)
    net.set_flat(net.get_flat() + 0.1 * rng.standard_normal(net.param_count()))
    return net


def logits_close(a, b, x, tol):
    return np.max(np.abs(predict_logits(a, x) - predict_logits(b, x))) < tol


class TestNet2Wider:
    def test_degenerate_same_width(self):
        net = random_net(0)
        net2, ref = apply_actions(net, [WiderAction(0, 4)], seed=1)
        assert np.array_equal(net2.get_flat(), net.get_flat())
        assert np.array_equal(ref, np.arange(net.param_count()))

    def test_widen_one_to_two_halves_outgoing(self):
        net = random_net(1, Arch(3, (1,), 2))
        net2, _ = apply_actions(net, [WiderAction(0, 2)], seed=0)
        assert np.array_equal(net2.layers[0].weight[:, 0], net2.layers[0].weight[:, 1])
        assert np.allclose(net2.layers[1].weight[0], net.layers[1].weight[0] / 2)
        x = np.random.default_rng(0).standard_normal((100, 3))
        assert logits_close(net, net2, x, 1e-10)

    def test_replication_counts(self):
        net = random_net(2, Arch(4, (2,), 3))
        net2, _ = apply_actions(net, [WiderAction(0, 4)], seed=7)
        # recover pi from incoming columns
        pi = [int(np.argmax([np.array_equal(net2.layers[0].weight[:, j],
                                            net.layers[0].weight[:, u])
                             for u in range(2)])) for j in range(4)]
        counts = np.bincount(pi, minlength=2)
        assert counts.sum() == 4
        assert np.all(counts >= 1)  # identity part guarantees each original unit

    def test_column_sum_invariant(self):
        net = random_net(3, Arch(4, (3,), 2))
        net2, _ = apply_actions(net, [WiderAction(0, 7)], seed=5)
        pi = [int(np.argmax([np.array_equal(net2.layers[0].weight[:, j],
                                            net.layers[0].weight[:, u])
                             for u in range(3)])) for j in range(7)]
        for u in range(3):
            rows = [j for j in range(7) if pi[j] == u]
            assert np.allclose(net2.layers[1].weight[rows].sum(axis=0),
                               net.layers[1].weight[u], atol=1e-12)

    def test_output_layer_forbidden(self):
        net = random_net(4)
        with pytest.raises(ValueError):
            apply_actions(net, [WiderAction(2, 8)], seed=0)

    def test_shrink_forbidden(self):
        net = random_net(5)
        with pytest.raises(ValueError):
            apply_actions(net, [WiderAction(0, 2)], seed=0)


class TestNet2Deeper:
    def test_function_preserved(self):
        net = random_net(6)
        net2, _ = apply_actions(net, [DeeperAction(1)], seed=0)
        x = np.random.default_rng(1).standard_normal((100, 5))
        assert logits_close(net, net2, x, 1e-12)

    def test_mask_counts(self):
        net = random_net(7, Arch(5, (4, 3), 2))
        w = 4
        _, ref = apply_actions(net, [DeeperAction(0)], seed=0)
        assert np.sum(ref < 0) == w * w + w

    def test_two_successive_deepens(self):
        net = random_net(8)
        net2, _ = apply_actions(net, [DeeperAction(0)], seed=0)
        net3, _ = apply_actions(net2, [DeeperAction(0)], seed=0)
        x = np.random.default_rng(2).standard_normal((100, 5))
        assert logits_close(net, net3, x, 1e-12)

    def test_bad_position(self):
        net = random_net(9)
        with pytest.raises(ValueError):
            apply_actions(net, [DeeperAction(5)], seed=0)


class TestApplyActions:
    def test_empty_is_identity(self):
        net = random_net(10)
        net2, ref = apply_actions(net, [])
        mask = ref < 0
        assert np.array_equal(net2.get_flat(), net.get_flat())
        assert not mask.any()
        assert np.array_equal(ref, np.arange(net.param_count()))

    def test_empty_gives_a_copy_that_trains_apart(self):
        net = random_net(12)
        before = net.get_flat()
        net2, _ = apply_actions(net, [])
        assert net2 is not net and np.array_equal(net2.get_flat(), before)
        rng = np.random.default_rng(0)
        train = Dataset(rng.standard_normal((40, 5)), rng.integers(0, 2, 40))
        train_task(net2, train, loss_ce, None, epochs=2, batch_size=8, lr=0.1, seed=1)
        assert not np.array_equal(net2.get_flat(), before)
        assert np.array_equal(net.get_flat(), before)

    def test_wider_plus_deeper_preserves(self):
        net = random_net(11)
        net2, _ = apply_actions(net, [WiderAction(0, 8), DeeperAction(1)], seed=3)
        x = np.random.default_rng(3).standard_normal((100, 5))
        assert logits_close(net, net2, x, 1e-10)

    def test_any_number_of_actions_composes(self):
        # how many actions an episode holds is the sampler's cap, not a rule here
        net = random_net(12)
        actions = ([WiderAction(0, 5), WiderAction(0, 6), WiderAction(1, 4)]
                   + [DeeperAction(0)] * 4)
        net2, _ = apply_actions(net, actions, seed=2)
        assert net2.arch.hidden_widths == (6, 6, 6, 6, 6, 4)
        x = np.random.default_rng(4).standard_normal((50, 5))
        assert logits_close(net, net2, x, 1e-10)

    def test_param_count_strictly_increases(self):
        net = random_net(14)
        for actions in ([WiderAction(0, 6)], [DeeperAction(1)],
                        [WiderAction(1, 5), DeeperAction(0)]):
            net2, _ = apply_actions(net, actions, seed=1)
            assert net2.param_count() > net.param_count()

    def test_mask_map_partition(self):
        net = random_net(15)
        net2, ref = apply_actions(
            net, [WiderAction(0, 8), DeeperAction(1), WiderAction(1, 6)], seed=9)
        mask = ref < 0
        assert ref.shape == mask.shape == (net2.param_count(),)
        assert np.array_equal(mask, ref < 0)
        image = ref[ref >= 0]
        assert len(set(image.tolist())) == image.size  # injective
        assert image.max() < net.param_count()
        assert 0 < image.size < net.param_count()  # rescaled rows lost their anchor

    def test_preserved_values_survive(self):
        net = random_net(16)
        net2, ref = apply_actions(net, [WiderAction(0, 8), DeeperAction(1)], seed=4)
        keep = ref >= 0
        assert np.array_equal(net2.get_flat()[keep], net.get_flat()[ref[keep]])


def random_action_lists():
    """60 (trial, net, actions, inputs) cases: random nets and valid action lists."""
    rng = np.random.default_rng(99)
    for trial in range(60):
        arch = Arch(int(rng.integers(2, 7)),
                    tuple(int(w) for w in rng.integers(2, 6, rng.integers(1, 4))),
                    int(rng.integers(2, 5)))
        net = random_net(trial, arch)
        widths = list(arch.hidden_widths)
        actions = []
        for _ in range(rng.integers(0, 3)):
            i = int(rng.integers(0, len(widths)))
            widths[i] += int(rng.integers(1, 5))
            actions.append(WiderAction(i, widths[i]))
        # deeper positions valid against the evolving depth
        for _ in range(rng.integers(0, 4)):
            k = int(rng.integers(0, len(widths)))
            actions.append(DeeperAction(k))
            widths.insert(k + 1, widths[k])
        yield trial, net, actions, rng.standard_normal((20, arch.input_dim))


def test_function_preservation_randomized():
    for trial, net, actions, x in random_action_lists():
        net2, _ = apply_actions(net, actions, seed=trial)
        assert logits_close(net, net2, x, 1e-8)


def test_ref_points_at_surviving_values_randomized():
    for trial, net, actions, _ in random_action_lists():
        child, ref = apply_actions(net, actions, seed=trial)
        mask = ref < 0
        keep = ref >= 0
        assert np.array_equal(mask, ~keep)
        assert np.array_equal(child.params[keep], net.params[ref[keep]])
        assert np.unique(ref[keep]).size == ref[keep].size



def deeper_first_action_lists():
    """(trial, net, actions) cases where a deeper action precedes a widening,
    including widenings of an inserted identity layer."""
    yield 100, random_net(100), [DeeperAction(0), WiderAction(1, 7)]
    yield 101, random_net(101), [DeeperAction(1), WiderAction(2, 5), WiderAction(0, 6)]
    yield 102, random_net(102), [DeeperAction(0), DeeperAction(0), WiderAction(0, 9),
                                 WiderAction(2, 4), DeeperAction(3), WiderAction(1, 6)]
    yield 103, random_net(103, Arch(3, (2,), 2)), [DeeperAction(0), WiderAction(0, 3),
                                                    WiderAction(1, 5), WiderAction(1, 8)]


def test_apply_actions_equals_its_one_action_fold():
    cases = [(t, net, acts) for t, net, acts, _ in random_action_lists()]
    for trial, net, actions in cases + list(deeper_first_action_lists()):
        before = net.params.tobytes()
        child, ref = apply_actions(net, actions, seed=trial)
        folded, folded_ref = net, np.arange(net.param_count())
        for i, action in enumerate(actions):
            folded, step = apply_actions(folded, [action], seed=trial + i)
            folded_ref = np.where(step >= 0, folded_ref[step], -1)
        assert child.arch == folded.arch
        assert child.params.tobytes() == folded.params.tobytes()
        assert np.array_equal(ref, folded_ref)
        assert ref.dtype == np.int64
        assert net.params.tobytes() == before

class TestAlignReference:
    def test_alignment_places_old_values(self):
        net = random_net(20)
        anchor = np.random.default_rng(5).standard_normal(net.param_count())
        fisher = np.random.default_rng(6).random(net.param_count())
        net2, ref = apply_actions(net, [WiderAction(0, 8)], seed=2)
        mask = ref < 0
        a2, f2 = align_reference(anchor, ref), align_reference(fisher, ref)
        keep = ref >= 0
        assert np.array_equal(a2[keep], anchor[ref[keep]])
        assert np.array_equal(f2[keep], fisher[ref[keep]])
        assert np.all(a2[mask] == 0) and np.all(f2[mask] == 0)


def test_action_lines():
    assert action_to_line(WiderAction(1, 16)) == "W 1 16"
    assert action_to_line(WiderAction(0, 80)) == "W 0 80"
    assert action_to_line(DeeperAction(2)) == "D 2"
