import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rec.checkpoint import MAGIC, CheckpointError, load_checkpoint, save_checkpoint
from rec.cli import main
from rec.netcore import Arch, evaluate, init_network


@pytest.fixture
def net():
    return init_network(Arch(6, (9, 5), 4), seed=3)


def read_header(path) -> dict:
    raw = path.read_bytes()
    (hlen,) = struct.unpack("<I", raw[8:12])
    return json.loads(raw[12:12 + hlen])


def write_raw(path, net, extra_header: dict, extra_arrays: list) -> None:
    """A RECNET01 file built by hand: the net's layers, then `extra_arrays`
    (name, array) pairs, with `extra_header` keys added to the header."""
    arrays = [(f"{k}{i}", a) for i, l in enumerate(net.layers)
              for k, a in (("w", l.weight), ("b", l.bias))] + extra_arrays
    header = {"arch": {"input_dim": net.arch.input_dim,
                       "hidden_widths": list(net.arch.hidden_widths),
                       "output_dim": net.arch.output_dim},
              "arrays": [{"name": k, "shape": list(a.shape)} for k, a in arrays],
              **extra_header}
    blob = json.dumps(header, sort_keys=True).encode()
    path.write_bytes(MAGIC + struct.pack("<I", len(blob)) + blob
                     + b"".join(a.astype("<f8").tobytes() for _, a in arrays))


class TestRoundTrip:
    def test_net_only(self, tmp_path, net):
        p = tmp_path / "n.recnet"
        save_checkpoint(p, net)
        loaded, anchor, fisher = load_checkpoint(p)
        assert loaded.arch == net.arch
        assert np.array_equal(loaded.get_flat(), net.get_flat())
        assert anchor is None and fisher is None
        header = read_header(p)
        assert [a["name"] for a in header["arrays"]] == ["w0", "b0", "w1", "b1", "w2", "b2"]
        assert "fisher_samples" not in header

    def test_with_anchor_and_fisher(self, tmp_path, net, rng):
        n = net.param_count()
        a = rng.standard_normal(n)
        f = np.abs(rng.standard_normal(n))
        p = tmp_path / "n.recnet"
        write_raw(p, net, {}, [("anchor", a), ("fisher", f)])
        _, a2, f2 = load_checkpoint(p)
        assert np.array_equal(a2, a)
        assert np.array_equal(f2, f)

    def test_old_format_with_fisher_samples_loads(self, tmp_path, net, rng):
        n = net.param_count()
        a, f = rng.standard_normal(n), np.abs(rng.standard_normal(n))
        p = tmp_path / "n.recnet"
        write_raw(p, net, {"fisher_samples": 5}, [("anchor", a), ("fisher", f)])
        loaded, a2, f2 = load_checkpoint(p)
        assert np.array_equal(loaded.get_flat(), net.get_flat())
        assert np.array_equal(a2, a) and np.array_equal(f2, f)

    def test_save_load_save_bytes_identical(self, tmp_path, net):
        p1, p2 = tmp_path / "a.recnet", tmp_path / "b.recnet"
        save_checkpoint(p1, net)
        loaded, _, _ = load_checkpoint(p1)
        save_checkpoint(p2, loaded)
        assert p1.read_bytes() == p2.read_bytes()

    def test_predictions_survive(self, tmp_path, net, rng):
        x = rng.standard_normal((20, 6))
        y = rng.integers(0, 4, 20)
        p = tmp_path / "n.recnet"
        save_checkpoint(p, net)
        loaded, _, _ = load_checkpoint(p)
        assert evaluate(loaded, x, y) == evaluate(net, x, y)

    def test_float32_net_loads_as_float64_with_the_same_values(self, tmp_path):
        # a file stores float64, and float32 -> float64 is exact
        net = init_network(Arch(6, (9, 5), 4), seed=3, dtype=np.float32)
        p = tmp_path / "n.recnet"
        save_checkpoint(p, net)
        loaded, _, _ = load_checkpoint(p)
        assert (net.params.dtype, loaded.params.dtype) == (np.float32, np.float64)
        assert loaded.arch == net.arch and np.array_equal(loaded.params, net.params)
        assert loaded.params.astype(np.float32).tobytes() == net.params.tobytes()

    def test_no_hidden_layers(self, tmp_path):
        net = init_network(Arch(5, (), 3), seed=0)
        p = tmp_path / "flat.recnet"
        save_checkpoint(p, net)
        loaded, _, _ = load_checkpoint(p)
        assert np.array_equal(loaded.get_flat(), net.get_flat())


class TestCorruption:
    def test_bad_magic(self, tmp_path, net):
        p = tmp_path / "n.recnet"
        save_checkpoint(p, net)
        raw = bytearray(p.read_bytes())
        raw[:8] = b"NOTMAGIC"
        p.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(p)

    def test_truncated_arrays(self, tmp_path, net):
        p = tmp_path / "n.recnet"
        save_checkpoint(p, net)
        p.write_bytes(p.read_bytes()[:-16])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.recnet"
        p.write_bytes(b"")
        with pytest.raises(CheckpointError):
            load_checkpoint(p)

    def test_bad_json_header(self, tmp_path, net):
        p = tmp_path / "n.recnet"
        save_checkpoint(p, net)
        raw = bytearray(p.read_bytes())
        raw[12] = ord("[")  # header opens with '[' but closes with '}'
        p.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="bad checkpoint header"):
            load_checkpoint(p)

    def test_header_length_past_end(self, tmp_path, net):
        p = tmp_path / "n.recnet"
        save_checkpoint(p, net)
        raw = p.read_bytes()
        p.write_bytes(raw[:8] + struct.pack("<I", len(raw)) + raw[12:])
        with pytest.raises(CheckpointError, match="truncated checkpoint header"):
            load_checkpoint(p)

    def test_header_missing_arch(self, tmp_path):
        blob = json.dumps({"arrays": []}).encode()
        p = tmp_path / "n.recnet"
        p.write_bytes(MAGIC + struct.pack("<I", len(blob)) + blob)
        with pytest.raises(CheckpointError, match="bad checkpoint header"):
            load_checkpoint(p)

    @pytest.mark.parametrize("arch", [
        {"input_dim": True, "hidden_widths": [3], "output_dim": 2},  # True == 1 chains
        {"input_dim": 1, "hidden_widths": [3.9], "output_dim": 2},  # int() would make it 3
        {"input_dim": 1, "hidden_widths": "3", "output_dim": 2},
        {"input_dim": 1, "hidden_widths": [3], "output_dim": 2.0},
    ], ids=["bool-input", "float-width", "string-widths", "float-output"])
    def test_arch_widths_must_be_integers(self, tmp_path, capsys, arch):
        # the layer arrays are those of a 1-3-2 net, so only the types are wrong
        p = tmp_path / "n.recnet"
        write_raw(p, init_network(Arch(1, (3,), 2), seed=0), {"arch": arch}, [])
        with pytest.raises(CheckpointError, match="arch widths are not all non-negative "
                                                  "integers"):
            load_checkpoint(p)
        assert main(["checkpoint", "load", str(p)]) == 1

    def test_missing_layer_arrays(self, tmp_path, net):
        # Directory lists only w0 and b0 for a three-layer arch.
        header = {"arch": {"input_dim": 6, "hidden_widths": [9, 5], "output_dim": 4},
                  "fisher_samples": None,
                  "arrays": [{"name": "w0", "shape": [6, 9]}, {"name": "b0", "shape": [9]}]}
        blob = json.dumps(header, sort_keys=True).encode()
        payload = np.concatenate([net.layers[0].weight.ravel(), net.layers[0].bias])
        p = tmp_path / "n.recnet"
        p.write_bytes(MAGIC + struct.pack("<I", len(blob)) + blob
                      + payload.astype("<f8").tobytes())
        with pytest.raises(CheckpointError, match="missing layer arrays: w1, b1, w2, b2"):
            load_checkpoint(p)

    def test_trailing_bytes(self, tmp_path, net):
        p = tmp_path / "n.recnet"
        save_checkpoint(p, net)
        p.write_bytes(p.read_bytes() + b"\0")
        with pytest.raises(CheckpointError, match="1 trailing bytes"):
            load_checkpoint(p)

    @pytest.mark.parametrize("name, shape", [
        ("anchor", lambda n: (n - 1,)), ("anchor", lambda n: (n + 1,)),
        ("fisher", lambda n: (n - 1,)), ("anchor", lambda n: (1, n)),
    ], ids=["short-anchor", "long-anchor", "short-fisher", "2d-anchor"])
    def test_vector_not_one_entry_per_parameter(self, tmp_path, net, name, shape):
        p = tmp_path / "n.recnet"
        write_raw(p, net, {}, [(name, np.ones(shape(net.param_count())))])
        with pytest.raises(CheckpointError, match=f"{name} has shape"):
            load_checkpoint(p)

    def test_negative_fisher(self, tmp_path, net):
        fisher = np.ones(net.param_count())
        fisher[7] = -1e-3
        p = tmp_path / "n.recnet"
        write_raw(p, net, {}, [("anchor", net.get_flat()), ("fisher", fisher)])
        with pytest.raises(CheckpointError, match="negative"):
            load_checkpoint(p)

    def test_magic_constant(self):
        assert MAGIC == b"RECNET01"
        assert len(MAGIC) == 8

    @pytest.mark.parametrize("shape, message", [
        ([2 ** 32, 2 ** 32], "truncated array 'w0'"),  # 2**64 elements, no int64 overflow
        ([2.7, 2], "not a list of non-negative integers"),
        ("42", "not a list of non-negative integers"),
        ([True, 2], "not a list of non-negative integers"),
        ([-1, 2], "not a list of non-negative integers"),
    ])
    def test_bad_array_shape(self, tmp_path, shape, message):
        header = {"arch": {"input_dim": 2, "hidden_widths": [], "output_dim": 2},
                  "fisher_samples": None,
                  "arrays": [{"name": "w0", "shape": shape}, {"name": "b0", "shape": [2]}]}
        blob = json.dumps(header, sort_keys=True).encode()
        p = tmp_path / "n.recnet"
        p.write_bytes(MAGIC + struct.pack("<I", len(blob)) + blob + np.zeros(6).tobytes())
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(p)

    @pytest.mark.parametrize("arrays, message", [
        ([("w0", [2, 2]), ("b0", [2]), ("w0", [2, 2])], "array name 'w0' is repeated"),
        ([(["w0"], [2, 2]), ("b0", [2])], r"array name \['w0'\] is not a string"),
        ([("w0", [2, 2]), (0, [2])], "array name 0 is not a string"),
    ])
    def test_bad_array_name(self, tmp_path, capsys, arrays, message):
        header = {"arch": {"input_dim": 2, "hidden_widths": [], "output_dim": 2},
                  "arrays": [{"name": n, "shape": shape} for n, shape in arrays]}
        blob = json.dumps(header, sort_keys=True).encode()
        p = tmp_path / "n.recnet"
        count = sum(int(np.prod(shape)) for _, shape in arrays)
        p.write_bytes(MAGIC + struct.pack("<I", len(blob)) + blob + np.zeros(count).tobytes())
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(p)
        assert main(["checkpoint", "load", str(p)]) == 1
        assert capsys.readouterr().err.startswith("checkpoint failed: array name")


@pytest.fixture(scope="module")
def valid_checkpoint(tmp_path_factory) -> bytes:
    p = tmp_path_factory.mktemp("fuzz") / "n.recnet"
    net = init_network(Arch(3, (2,), 2), seed=0)
    write_raw(p, net, {}, [("anchor", net.get_flat()), ("fisher", np.ones(net.param_count()))])
    return p.read_bytes()


def _load_mutated(raw: bytes, path) -> None:
    """Only CheckpointError may escape; a readable file must give a net."""
    path.write_bytes(raw)
    try:
        net, _, _ = load_checkpoint(path)
    except CheckpointError:
        return
    assert net.param_count() > 0


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_fuzz_truncated_checkpoint(valid_checkpoint, tmp_path_factory, data):
    size = data.draw(st.integers(0, len(valid_checkpoint) - 1))
    _load_mutated(valid_checkpoint[:size], tmp_path_factory.mktemp("t") / "n.recnet")


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_fuzz_bit_flipped_checkpoint(valid_checkpoint, tmp_path_factory, data):
    bit = data.draw(st.integers(0, 8 * len(valid_checkpoint) - 1))
    raw = bytearray(valid_checkpoint)
    raw[bit // 8] ^= 1 << (bit % 8)
    _load_mutated(bytes(raw), tmp_path_factory.mktemp("f") / "n.recnet")
