"""In-memory span tracer for the benchmark's traced run.

Spans are recorded from outside the program: `install` replaces every public
function of the `rec` package with a timing wrapper, in the defining module
and in every module that imported it by name (`from .netcore import forward`
binds `forward` in the importing module, so patching only `rec.netcore`
would miss those calls). Each wrapper knows the module it was installed in
(its *site*), so the same function called from two modules can be told apart.

A span is (name, site, start, end, parent span, job id, raised). Self time is
the span's duration minus the part of it that child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from contextlib import contextmanager
from typing import Callable

import numpy as np

NO_PARENT = -1
PACKAGE = "rec"


class Tracer:
    """Columnar span store; spans are appended in start order."""

    def __init__(self) -> None:
        self.keys: list[tuple[str, str]] = []   # key id -> (name, site)
        self._key_ids: dict[tuple[str, str], int] = {}
        self.job = -1
        self.counters: dict[str, float] = {}
        self.clear()

    def clear(self) -> None:
        self.key = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job_id = array("i")
        self.raised = array("b")
        self._stack: list[int] = []
        self.counters.clear()

    def key_id(self, name: str, site: str) -> int:
        k = (name, site)
        if k not in self._key_ids:
            self._key_ids[k] = len(self.keys)
            self.keys.append(k)
        return self._key_ids[k]

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def _open(self, kid: int) -> int:
        idx = len(self.key)
        self.key.append(kid)
        self.parent.append(self._stack[-1] if self._stack else NO_PARENT)
        self.job_id.append(self.job)
        self.raised.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int, raised: bool) -> None:
        self.end[idx] = time.perf_counter()
        if raised:
            self.raised[idx] = 1
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span of the benchmark's own code; its site is 'bench'."""
        idx = self._open(self.key_id(name, "bench"))
        raised = True
        try:
            yield
            raised = False
        finally:
            self._close(idx, raised)

    def wrap(self, fn: Callable, name: str, site: str,
             hook: Callable | None = None) -> Callable:
        kid = self.key_id(name, site)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                hook(self, args, kwargs)
            idx = self._open(kid)
            raised = True
            try:
                out = fn(*args, **kwargs)
                raised = False
                return out
            finally:
                self._close(idx, raised)

        return traced

    def total(self, name: str) -> float:
        """Summed duration of the spans called `name`."""
        return sum(self.end[i] - self.start[i] for i, k in enumerate(self.key)
                   if self.keys[k][0] == name)

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "key": np.frombuffer(self.key, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "job": np.frombuffer(self.job_id, dtype=np.int32).copy(),
            "raised": np.frombuffer(self.raised, dtype=np.int8).copy(),
        }

    def save(self, path) -> None:
        """Write the spans and the key table as one .npz file."""
        cols = self.columns()
        np.savez_compressed(path, names=np.array([n for n, _ in self.keys]),
                            sites=np.array([s for _, s in self.keys]), **cols)


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Duration of each span minus the union of its children's intervals,
    each child clipped to its parent's interval."""
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent)
    covered = np.zeros(len(start))
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parent.tolist()):
        if p != NO_PARENT:
            children.setdefault(p, []).append(i)
    for p, kids in children.items():
        lo_p, hi_p = start[p], end[p]
        reach = lo_p
        total = 0.0
        for i in sorted(kids, key=lambda k: start[k]):
            lo, hi = max(start[i], reach), min(end[i], hi_p)
            if hi > lo:
                total += hi - lo
                reach = hi
        covered[p] = total
    return (end - start) - covered


def install(tracer: Tracer, hooks: dict[str, Callable] | None = None) -> Callable[[], None]:
    """Wrap every public function defined in the modules of PACKAGE, at every
    module of the package that binds it. Span names are
    '<defining module>.<function>' without the package prefix; the site is
    the binding module's short name. Returns a function that undoes it."""
    hooks = hooks or {}
    prefix = PACKAGE + "."
    modules = {name: mod for name, mod in sys.modules.items()
               if mod is not None and (name == PACKAGE or name.startswith(prefix))}
    public: dict[Callable, str] = {}  # function -> span name
    for name, mod in modules.items():
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == name
                    and not attr.startswith("_")):
                public[obj] = f"{name[len(prefix):]}.{attr}"
    patched: list[tuple[object, str, Callable]] = []
    for name, mod in modules.items():
        site = name[len(prefix):] if name.startswith(prefix) else name
        for attr, obj in list(vars(mod).items()):
            span_name = public.get(obj) if inspect.isfunction(obj) else None
            if span_name is not None:
                setattr(mod, attr, tracer.wrap(obj, span_name, site, hooks.get(span_name)))
                patched.append((mod, attr, obj))

    def restore() -> None:
        for mod, attr, fn in patched:
            setattr(mod, attr, fn)

    return restore
