import tracemalloc

import numpy as np
import pytest


def central_diff(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite-difference gradient of a scalar function of a vector."""
    g = np.zeros_like(x)
    for i in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2 * h)
    return g


def max_rel_err(analytic: np.ndarray, numeric: np.ndarray, floor: float = 1e-8) -> float:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))


def traced_memory(fn, *args, **kwargs):
    """fn(*args, **kwargs) under tracemalloc: (result, retained, peak), the
    bytes the call allocated and still held on return, and the most it held
    at once. Memory allocated before the call is not counted."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, retained, peak


@pytest.fixture
def rng():
    return np.random.default_rng(0)
