import numpy as np
import pytest

from rec.netcore import Arch, init_network, predict_logits
from rec.transform import (CapViolation, DeeperAction, WiderAction, action_to_line,
                           align_reference, apply_actions, net2deeper, net2wider,
                           parse_action_line)


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
        net2, ref = net2wider(net, WiderAction(0, 4), seed=1)
        assert np.array_equal(net2.get_flat(), net.get_flat())
        assert np.array_equal(ref, np.arange(net.param_count()))

    def test_widen_one_to_two_halves_outgoing(self):
        net = random_net(1, Arch(3, (1,), 2))
        net2, _ = net2wider(net, WiderAction(0, 2), seed=0)
        assert np.array_equal(net2.layers[0].weight[:, 0], net2.layers[0].weight[:, 1])
        assert np.allclose(net2.layers[1].weight[0], net.layers[1].weight[0] / 2)
        x = np.random.default_rng(0).standard_normal((100, 3))
        assert logits_close(net, net2, x, 1e-10)

    def test_replication_counts(self):
        net = random_net(2, Arch(4, (2,), 3))
        net2, _ = net2wider(net, WiderAction(0, 4), seed=7)
        # recover pi from incoming columns
        pi = [int(np.argmax([np.array_equal(net2.layers[0].weight[:, j],
                                            net.layers[0].weight[:, u])
                             for u in range(2)])) for j in range(4)]
        counts = np.bincount(pi, minlength=2)
        assert counts.sum() == 4
        assert np.all(counts >= 1)  # identity part guarantees each original unit

    def test_column_sum_invariant(self):
        net = random_net(3, Arch(4, (3,), 2))
        net2, _ = net2wider(net, WiderAction(0, 7), seed=5)
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
            net2wider(net, WiderAction(2, 8), seed=0)

    def test_shrink_forbidden(self):
        net = random_net(5)
        with pytest.raises(ValueError):
            net2wider(net, WiderAction(0, 2), seed=0)


class TestNet2Deeper:
    def test_function_preserved(self):
        net = random_net(6)
        net2, _ = net2deeper(net, DeeperAction(1))
        x = np.random.default_rng(1).standard_normal((100, 5))
        assert logits_close(net, net2, x, 1e-12)

    def test_mask_counts(self):
        net = random_net(7, Arch(5, (4, 3), 2))
        w = 4
        _, ref = net2deeper(net, DeeperAction(0))
        assert np.sum(ref < 0) == w * w + w

    def test_two_successive_deepens(self):
        net = random_net(8)
        net2, _ = net2deeper(net, DeeperAction(0))
        net3, _ = net2deeper(net2, DeeperAction(0))
        x = np.random.default_rng(2).standard_normal((100, 5))
        assert logits_close(net, net3, x, 1e-12)

    def test_bad_position(self):
        net = random_net(9)
        with pytest.raises(ValueError):
            net2deeper(net, DeeperAction(5))


class TestApplyActions:
    def test_empty_is_identity(self):
        net = random_net(10)
        net2, ref, mask = apply_actions(net, [])
        assert np.array_equal(net2.get_flat(), net.get_flat())
        assert not mask.any()
        assert np.array_equal(ref, np.arange(net.param_count()))

    def test_wider_plus_deeper_preserves(self):
        net = random_net(11)
        net2, _, _ = apply_actions(net, [WiderAction(0, 8), DeeperAction(1)], seed=3)
        x = np.random.default_rng(3).standard_normal((100, 5))
        assert logits_close(net, net2, x, 1e-10)

    def test_wider_cap(self):
        net = random_net(12)
        with pytest.raises(CapViolation):
            apply_actions(net, [WiderAction(0, 5), WiderAction(0, 6), WiderAction(1, 4)])

    def test_deeper_cap(self):
        net = random_net(13)
        with pytest.raises(CapViolation):
            apply_actions(net, [DeeperAction(0)] * 4)

    def test_param_count_strictly_increases(self):
        net = random_net(14)
        for actions in ([WiderAction(0, 6)], [DeeperAction(1)],
                        [WiderAction(1, 5), DeeperAction(0)]):
            net2, _, _ = apply_actions(net, actions, seed=1)
            assert net2.param_count() > net.param_count()

    def test_mask_map_partition(self):
        net = random_net(15)
        net2, ref, mask = apply_actions(
            net, [WiderAction(0, 8), DeeperAction(1), WiderAction(1, 6)], seed=9)
        assert ref.shape == mask.shape == (net2.param_count(),)
        assert np.array_equal(mask, ref < 0)
        image = ref[ref >= 0]
        assert len(set(image.tolist())) == image.size  # injective
        assert image.max() < net.param_count()
        assert 0 < image.size < net.param_count()  # rescaled rows lost their anchor

    def test_preserved_values_survive(self):
        net = random_net(16)
        net2, ref, _ = apply_actions(net, [WiderAction(0, 8), DeeperAction(1)], seed=4)
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
        net2, _, _ = apply_actions(net, actions, seed=trial)
        assert logits_close(net, net2, x, 1e-8)


def test_ref_points_at_surviving_values_randomized():
    for trial, net, actions, _ in random_action_lists():
        child, ref, mask = apply_actions(net, actions, seed=trial)
        keep = ref >= 0
        assert np.array_equal(mask, ~keep)
        assert np.array_equal(child.params[keep], net.params[ref[keep]])
        assert np.unique(ref[keep]).size == ref[keep].size


class TestAlignReference:
    def test_alignment_places_old_values(self):
        net = random_net(20)
        anchor = np.random.default_rng(5).standard_normal(net.param_count())
        fisher = np.random.default_rng(6).random(net.param_count())
        net2, ref, mask = apply_actions(net, [WiderAction(0, 8)], seed=2)
        a2, f2 = align_reference(anchor, ref), align_reference(fisher, ref)
        keep = ref >= 0
        assert np.array_equal(a2[keep], anchor[ref[keep]])
        assert np.array_equal(f2[keep], fisher[ref[keep]])
        assert np.all(a2[mask] == 0) and np.all(f2[mask] == 0)

    def test_base_ref_head_stays_unanchored(self):
        # split mode: the replaced output head holds no anchor value before
        # the expansion and must hold none after it
        net = random_net(21)
        head_start = net.arch.layer_slices()[-1][0].start
        base = np.arange(net.param_count())
        base[head_start:] = -1
        child, ref, mask = apply_actions(net, [DeeperAction(0), WiderAction(1, 6)], seed=0,
                                         ref=base)
        child_head = child.arch.layer_slices()[-1][0].start
        assert np.all(ref[child_head:] == -1) and np.all(mask[child_head:])
        assert np.all(ref[ref >= 0] < head_start)
        a2 = align_reference(np.ones(net.param_count()), ref)
        assert np.all(a2[child_head:] == 0)


def test_action_line_round_trip():
    for a in (WiderAction(1, 16), DeeperAction(2)):
        assert parse_action_line(action_to_line(a)) == a
    with pytest.raises(ValueError):
        parse_action_line("X 1 2")
