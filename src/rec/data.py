"""Dataset containers, the bundled synthetic generator, and the IDX reader."""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
SYNTHETIC_NOISE = 0.6  # std of the isotropic noise added to class prototypes


@dataclass
class Dataset:
    inputs: np.ndarray  # [n, d] float64
    labels: np.ndarray  # [n] int64

    def __len__(self) -> int:
        return self.inputs.shape[0]

    @property
    def input_dim(self) -> int:
        return self.inputs.shape[1]

    def subset(self, idx: np.ndarray) -> "Dataset":
        return Dataset(self.inputs[idx], self.labels[idx])

    def map_inputs(self, fn) -> "Dataset":
        return Dataset(fn(self.inputs), self.labels.copy())


def split_train_val(ds: Dataset, val_ratio: float, seed: int) -> tuple[Dataset, Dataset]:
    """Disjoint shuffled split; the validation part gets round(n * val_ratio) samples."""
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
        inputs = protos[labels] + SYNTHETIC_NOISE * rng.standard_normal((n, d))
        return Dataset(inputs, labels)

    return draw(n_train), draw(n_test)


def load_idx_images(path: str | Path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if len(raw) < 16:
        raise ValueError(f"truncated IDX image header in {path}: {len(raw)} of 16 bytes")
    magic, n, rows, cols = struct.unpack(">iiii", raw[:16])
    if magic != IDX_IMAGES_MAGIC:
        raise ValueError(f"bad IDX image magic 0x{magic:08x} in {path}")
    data = np.frombuffer(raw, dtype=np.uint8, offset=16)
    if data.size != n * rows * cols:
        raise ValueError(f"truncated IDX image file {path}")
    return data.reshape(n, rows * cols).astype(np.float64) / 255.0


def load_idx_labels(path: str | Path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if len(raw) < 8:
        raise ValueError(f"truncated IDX label header in {path}: {len(raw)} of 8 bytes")
    magic, n = struct.unpack(">ii", raw[:8])
    if magic != IDX_LABELS_MAGIC:
        raise ValueError(f"bad IDX label magic 0x{magic:08x} in {path}")
    data = np.frombuffer(raw, dtype=np.uint8, offset=8)
    if data.size != n:
        raise ValueError(f"truncated IDX label file {path}")
    return data.astype(np.int64)


def load_idx_dataset(images_path: str | Path, labels_path: str | Path) -> Dataset:
    inputs = load_idx_images(images_path)
    labels = load_idx_labels(labels_path)
    if inputs.shape[0] != labels.shape[0]:
        raise ValueError("IDX image/label counts differ")
    return Dataset(inputs, labels)
