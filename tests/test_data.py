import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rec.data import (IDX_IMAGES_MAGIC, IDX_LABELS_MAGIC, SYNTHETIC_NOISE, Dataset, RowView,
                      load_idx_dataset, load_idx_images, load_idx_labels, synthetic_classes)
from rec.lifelong import gen_permuted_tasks


def write_idx_pair(tmp_path, images: np.ndarray, labels: np.ndarray):
    n, rows, cols = images.shape
    img = tmp_path / "images.idx"
    lab = tmp_path / "labels.idx"
    img.write_bytes(struct.pack(">iiii", IDX_IMAGES_MAGIC, n, rows, cols)
                    + images.astype(np.uint8).tobytes())
    lab.write_bytes(struct.pack(">ii", IDX_LABELS_MAGIC, n) + labels.astype(np.uint8).tobytes())
    return img, lab


def test_dataset_inputs_become_row_major():
    x = np.asfortranarray(np.arange(12.0).reshape(4, 3))
    ds = Dataset(x, np.zeros(4, dtype=np.int64))
    assert ds.inputs.source.flags.c_contiguous
    assert np.array_equal(ds.inputs[:], x)
    assert ds.subset(np.array([3, 1])).inputs[:].flags.c_contiguous


def test_synthetic_inputs_are_a_whole_float64_draw_cast_to_float32():
    # The generator's formula, drawn here for each split at once in float64,
    # then cast: 700 training rows are several blocks and a short one.
    n_train, n_test, side, k, seed = 700, 300, 5, 4, 6
    rng = np.random.default_rng(seed)
    yy, xx = np.meshgrid(np.linspace(-1, 1, side), np.linspace(-1, 1, side), indexing="ij")
    protos = np.zeros((k, side * side))
    for c in range(k):
        for _ in range(3):
            fx, fy = rng.uniform(0.5, 2.5, size=2)
            px, py = rng.uniform(0, 2 * np.pi, size=2)
            protos[c] += (rng.uniform(0.5, 1.5) * np.sin(fx * np.pi * xx + px)
                          * np.sin(fy * np.pi * yy + py)).ravel()
    expected = []
    for n in (n_train, n_test):
        labels = rng.integers(0, k, size=n)
        inputs = SYNTHETIC_NOISE * rng.standard_normal((n, side * side)) + protos[labels]
        expected.append((inputs.astype(np.float32), labels))
    for ds, (inputs, labels) in zip(synthetic_classes(n_train, n_test, side, k, seed), expected):
        assert ds.inputs.source.dtype == np.float32
        assert ds.inputs.source.tobytes() == inputs.tobytes()
        assert np.array_equal(ds.labels, labels)


def test_row_views_compose():
    # rows of rows through a column map read what the two steps of copying
    # would: 0.0 wherever the map says -1
    rng = np.random.default_rng(1)
    x = rng.random((30, 6)) + 1.0
    rows, sub = rng.permutation(30)[:20], np.array([4, 0, 19, 7])
    cols = np.array([5, -1, 2, 0, 3])
    view = RowView(x, rows, cols).select(sub)
    expect = np.take(x[rows][sub], cols, axis=1)
    expect[:, cols < 0] = 0.0
    assert view.shape == expect.shape and len(view) == 4
    assert view[:].tobytes() == expect.tobytes()
    assert view[np.array([2, 0])].tobytes() == expect[[2, 0]].tobytes()



@pytest.mark.parametrize("key", [
    (slice(None), np.arange(36)[::-1]),  # a column key: composed with the map at the parent
    np.ones(20, dtype=bool),
    np.arange(4).reshape(2, 2),
    np.array([0.0, 1.0]),
    3,
    [0, 1],
], ids=["columns", "bool-mask", "2-d", "float", "int", "list"])
def test_row_view_takes_only_a_slice_or_an_integer_row_array(key):
    train, test = synthetic_classes(40, 20, 6, 3, seed=0)
    view = gen_permuted_tasks(train, test, 2, seed=0)[1].test.inputs
    assert view.cols is not None
    with pytest.raises(IndexError, match=f"not {type(key).__name__}$"):
        view[key]


class TestIdx:
    def test_round_trip(self, tmp_path):
        images = np.arange(3 * 2 * 2).reshape(3, 2, 2) * 20
        img, lab = write_idx_pair(tmp_path, images, np.array([0, 2, 1]))
        ds, shape = load_idx_dataset(img, lab)
        assert shape == (2, 2) and load_idx_images(img).shape == (3, 2, 2)
        assert np.allclose(ds.inputs[:], images.reshape(3, 4) / 255.0)
        assert ds.labels.tolist() == [0, 2, 1]

    def test_every_byte_scales_to_its_float64_quotient_rounded_to_float32(self, tmp_path):
        images = np.arange(256).reshape(16, 4, 4)
        img, _ = write_idx_pair(tmp_path, images, np.zeros(16, np.int64))
        scaled = load_idx_images(img)
        assert scaled.dtype == np.float32
        assert scaled.tobytes() == (images / 255.0).astype(np.float32).tobytes()

    def test_counts_differ_names_both_files(self, tmp_path):
        img, lab = write_idx_pair(tmp_path, np.zeros((3, 2, 2)), np.zeros(3))
        lab.write_bytes(struct.pack(">ii", IDX_LABELS_MAGIC, 2) + bytes(2))
        with pytest.raises(ValueError) as e:
            load_idx_dataset(img, lab)
        assert str(e.value) == (f"IDX image/label counts differ: {img} holds 3 images, "
                                f"{lab} holds 2 labels")

    @pytest.mark.parametrize("size", [0, 7, 15])
    def test_image_file_shorter_than_header(self, tmp_path, size):
        p = tmp_path / "short.idx"
        p.write_bytes(struct.pack(">iiii", IDX_IMAGES_MAGIC, 1, 1, 1)[:size])
        with pytest.raises(ValueError, match="truncated IDX image header"):
            load_idx_images(p)

    @pytest.mark.parametrize("size", [0, 4, 7])
    def test_label_file_shorter_than_header(self, tmp_path, size):
        p = tmp_path / "short.idx"
        p.write_bytes(struct.pack(">ii", IDX_LABELS_MAGIC, 1)[:size])
        with pytest.raises(ValueError, match="truncated IDX label header"):
            load_idx_labels(p)

    def test_truncated_payload(self, tmp_path):
        img, _ = write_idx_pair(tmp_path, np.zeros((3, 2, 2)), np.zeros(3))
        img.write_bytes(img.read_bytes()[:-1])
        with pytest.raises(ValueError, match="truncated IDX image file"):
            load_idx_images(img)

    def test_header_dims_are_unsigned(self, tmp_path):
        # read as signed, -1 x -1 x 4 images would match the 4-byte payload
        img, _ = write_idx_pair(tmp_path, np.zeros((1, 1, 4)), np.zeros(1))
        img.write_bytes(struct.pack(">iiii", IDX_IMAGES_MAGIC, -1, -1, 4) + bytes(4))
        with pytest.raises(ValueError, match=f"^truncated IDX image file {img}$"):
            load_idx_images(img)

    def test_run_with_short_idx_exits_1(self, tmp_path, capsys):
        from rec.cli import main
        img, lab = write_idx_pair(tmp_path, np.zeros((3, 2, 2)), np.zeros(3))
        img.write_bytes(b"\x00\x00")
        cfg = tmp_path / "c.txt"
        cfg.write_text(f"dataset = {img},{lab}\nout_dir = {tmp_path / 'out'}\n")
        assert main(["run", str(cfg)]) == 1
        assert "truncated IDX image header" in capsys.readouterr().err


@pytest.fixture(scope="module")
def idx_files(tmp_path_factory) -> dict:
    """Reader -> bytes of a valid file it reads."""
    d = tmp_path_factory.mktemp("idx")
    img, lab = write_idx_pair(d, np.arange(3 * 2 * 2).reshape(3, 2, 2), np.array([0, 2, 1]))
    return {load_idx_images: img.read_bytes(), load_idx_labels: lab.read_bytes()}


def _read_mutated(reader, raw: bytes, path) -> None:
    """A mutated IDX file either reads or raises ValueError, nothing else."""
    path.write_bytes(raw)
    try:
        reader(path)
    except ValueError:
        pass


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_fuzz_truncated_idx(idx_files, tmp_path_factory, data):
    reader = data.draw(st.sampled_from([load_idx_images, load_idx_labels]))
    raw = idx_files[reader]
    size = data.draw(st.integers(0, len(raw) - 1))
    _read_mutated(reader, raw[:size], tmp_path_factory.mktemp("t") / "f.idx")


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_fuzz_bit_flipped_idx(idx_files, tmp_path_factory, data):
    reader = data.draw(st.sampled_from([load_idx_images, load_idx_labels]))
    raw = bytearray(idx_files[reader])
    bit = data.draw(st.integers(0, 8 * len(raw) - 1))
    raw[bit // 8] ^= 1 << (bit % 8)
    _read_mutated(reader, bytes(raw), tmp_path_factory.mktemp("f") / "f.idx")
