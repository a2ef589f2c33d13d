"""Dataset containers, row views, the bundled synthetic generator, and the
IDX reader (one header and payload check for image and label files).

A task sequence keeps one source copy of its training inputs and one of its
test inputs. Every split of every task is a `RowView` over a source, built
once with the task: an optional row index (a train/val part, a split task's
class rows) and an optional column map (a permuted or rotated task).
Reading `view[rows]` gathers just those rows into a new C-contiguous
(row-major) array, and nothing else reads the source, so task inputs exist
only as large as the minibatch or 512-row chunk that is read. A `Dataset`'s
inputs are always such a view: an array given to one becomes the view of all
its rows.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
SYNTHETIC_NOISE = 0.6  # std of the isotropic noise added to class prototypes


class RowView:
    """Rows of `source` read through an optional row index and column map.

    `view[key]` (key a slice or 1-D integer array over the view's rows, else
    IndexError) gathers the source rows `rows[key]`, then their columns `cols`
    (exactly +0.0 where cols[j] is -1), into a new C-contiguous array; a slice
    of a view with neither is a NumPy view of the source rows. `shape` and
    `len` describe the view; nothing else reads the source.
    """

    def __init__(self, source: np.ndarray, rows: np.ndarray | None = None,
                 cols: np.ndarray | None = None):
        self.source = np.ascontiguousarray(source)
        self.rows = rows  # view row i is source row rows[i]; None: every row
        self.cols = cols  # view column j is source column cols[j]; None: every column
        self._zero = None if cols is None else np.flatnonzero(cols < 0)
        self.shape = (source.shape[0] if rows is None else rows.size,
                      source.shape[1] if cols is None else cols.size)

    def __len__(self) -> int:
        return self.shape[0]

    def __getitem__(self, key) -> np.ndarray:
        if not (isinstance(key, slice) or isinstance(key, np.ndarray) and key.ndim == 1
                and key.dtype.kind in "iu"):
            raise IndexError(f"a row view takes a slice or a 1-D integer array, "
                             f"not {type(key).__name__}")
        out = self.source[key if self.rows is None else self.rows[key]]
        if self.cols is None:
            return out
        out = np.take(out, self.cols, axis=1)  # -1 reads the last column until zeroed
        if self._zero.size:
            out[:, self._zero] = 0.0
        return out

    def select(self, idx: np.ndarray) -> "RowView":
        """The view of this view's rows `idx`, over the same source."""
        return RowView(self.source, idx if self.rows is None else self.rows[idx], self.cols)


@dataclass
class Dataset:
    """Samples and labels. An array given as `inputs` becomes the view of
    all its rows; `labels` is kept as given."""

    inputs: RowView  # [n, d] float64, read by row position
    labels: np.ndarray  # [n] int64

    def __post_init__(self):
        if not isinstance(self.inputs, RowView):
            self.inputs = RowView(self.inputs)

    def __len__(self) -> int:
        return self.inputs.shape[0]

    @property
    def input_dim(self) -> int:
        return self.inputs.shape[1]

    def subset(self, idx: np.ndarray) -> "Dataset":
        """Rows `idx` as a view over the same source inputs; only labels are copied."""
        return Dataset(self.inputs.select(idx), self.labels[idx])


def split_train_val(ds: Dataset, val_ratio: float, seed: int) -> tuple[Dataset, Dataset]:
    """Disjoint shuffled split into two views of `ds`' rows; the validation
    part gets round(n * val_ratio) samples."""
    n = len(ds)
    perm = np.random.default_rng(seed).permutation(n)
    n_val = int(round(n * val_ratio))
    return ds.subset(perm[n_val:]), ds.subset(perm[:n_val])


def synthetic_classes(n_train: int, n_test: int, side: int, n_classes: int,
                      seed: int) -> tuple[Dataset, Dataset]:
    """Gaussian-mixture image-like classes on a side x side grid.

    Each class is a smooth random pattern plus isotropic noise; separable enough
    for a small dense net yet hard enough that permuted variants interfere.
    """
    rng = np.random.default_rng(seed)
    d = side * side
    # Smooth class prototypes: random low-frequency mixtures over the grid.
    yy, xx = np.meshgrid(np.linspace(-1, 1, side), np.linspace(-1, 1, side), indexing="ij")
    protos = np.empty((n_classes, d))
    for k in range(n_classes):
        img = np.zeros((side, side))
        for _ in range(3):
            fx, fy = rng.uniform(0.5, 2.5, size=2)
            px, py = rng.uniform(0, 2 * np.pi, size=2)
            img += rng.uniform(0.5, 1.5) * np.sin(fx * np.pi * xx + px) * np.sin(fy * np.pi * yy + py)
        protos[k] = img.ravel()

    def draw(n):
        labels = rng.integers(0, n_classes, size=n)
        # protos[labels] + SYNTHETIC_NOISE * noise, built in place: + commutes.
        inputs = rng.standard_normal((n, d))
        inputs *= SYNTHETIC_NOISE
        for k, proto in enumerate(protos):
            inputs[labels == k] += proto
        return Dataset(inputs, labels)

    return draw(n_train), draw(n_test)


def _read_idx(path: str | Path, magic: int, what: str) -> np.ndarray:
    """The uint8 payload of an IDX file whose header carries `magic`, shaped
    by the dims the header lists (the magic's low byte gives their count)."""
    raw = Path(path).read_bytes()
    size = 4 + 4 * (magic & 0xFF)
    if len(raw) < size:
        raise ValueError(f"truncated IDX {what} header in {path}: {len(raw)} of {size} bytes")
    found, *dims = struct.unpack(f">{size // 4}I", raw[:size])  # unsigned: no dim is < 0
    if found != magic:
        raise ValueError(f"bad IDX {what} magic 0x{found:08x} in {path}")
    data = np.frombuffer(raw, dtype=np.uint8, offset=size)
    if data.size != math.prod(dims):
        raise ValueError(f"truncated IDX {what} file {path}")
    return data.reshape(dims)


def load_idx_images(path: str | Path) -> np.ndarray:
    """[n, rows, cols] float64 images, bytes scaled to [0, 1]."""
    images = _read_idx(path, IDX_IMAGES_MAGIC, "image").astype(np.float64)
    images /= 255.0
    return images


def load_idx_labels(path: str | Path) -> np.ndarray:
    return _read_idx(path, IDX_LABELS_MAGIC, "label").astype(np.int64)


def load_idx_dataset(images_path: str | Path,
                     labels_path: str | Path) -> tuple[Dataset, tuple[int, int]]:
    """An IDX image/label pair as a dataset of flattened images, plus the
    images' (rows, cols). A pair with no images or no pixels raises ValueError."""
    images = load_idx_images(images_path)
    labels = load_idx_labels(labels_path)
    n, rows, cols = images.shape
    if n != labels.shape[0]:
        raise ValueError(f"IDX image/label counts differ: {images_path} holds {n} images, "
                         f"{labels_path} holds {labels.shape[0]} labels")
    if n == 0:
        raise ValueError(f"IDX image file {images_path} holds 0 images")
    if rows * cols == 0:
        raise ValueError(f"IDX image file {images_path} holds {rows}x{cols} images: no pixels")
    return Dataset(images.reshape(n, rows * cols), labels), (rows, cols)
