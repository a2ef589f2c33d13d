"""RECNET01 checkpoint container.

Layout: 8-byte magic `RECNET01`, a little-endian uint32 header length, a JSON
header (sorted keys) describing the arch and the array directory, then the
arrays as raw little-endian float64 in directory order. A net of any float
dtype is saved as float64 (exact for float32), and a loaded net is float64.
Full byte layout in docs/formats.md.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from .netcore import Arch, DenseNet, Layer

MAGIC = b"RECNET01"


class CheckpointError(ValueError):
    pass


def _is_dims(value) -> bool:
    """Whether `value` is a JSON list of non-negative ints (bools and floats are not)."""
    return isinstance(value, list) and all(type(d) is int and d >= 0 for d in value)


def save_checkpoint(path: str | Path, net: DenseNet) -> None:
    arrays = [(f"{k}{i}", a) for i, l in enumerate(net.layers)
              for k, a in (("w", l.weight), ("b", l.bias))]
    header = {
        "arch": {
            "input_dim": net.arch.input_dim,
            "hidden_widths": list(net.arch.hidden_widths),
            "output_dim": net.arch.output_dim,
        },
        "arrays": [{"name": n, "shape": list(a.shape)} for n, a in arrays],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for _, a in arrays:
            fh.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def load_checkpoint(path: str | Path
                    ) -> tuple[DenseNet, np.ndarray | None, np.ndarray | None]:
    """Read a RECNET01 file as (net, anchor, fisher), the vectors None unless a
    writer other than save_checkpoint added them; every malformed container
    raises CheckpointError. Older files' `fisher_samples` header key is ignored."""
    raw = Path(path).read_bytes()
    if raw[:8] != MAGIC:
        raise CheckpointError(f"bad magic {raw[:8]!r}, expected {MAGIC!r}")
    if len(raw) < 12:
        raise CheckpointError("truncated checkpoint header")
    (hlen,) = struct.unpack("<I", raw[8:12])
    if 12 + hlen > len(raw):
        raise CheckpointError(f"truncated checkpoint header: {hlen} bytes announced, "
                              f"{len(raw) - 12} present")
    try:
        header = json.loads(raw[12:12 + hlen].decode("utf-8"))
        dims = header["arch"]
        if not (_is_dims([dims["input_dim"], dims["output_dim"]])
                and _is_dims(dims["hidden_widths"])):
            raise TypeError(f"arch widths are not all non-negative integers: {dims}")
        arch = Arch(dims["input_dim"], tuple(dims["hidden_widths"]), dims["output_dim"])
        directory = [(spec["name"], spec["shape"]) for spec in header["arrays"]]
    except (KeyError, TypeError, ValueError) as e:
        raise CheckpointError(f"bad checkpoint header: {type(e).__name__}: {e}") from None

    off = 12 + hlen
    loaded: dict[str, np.ndarray] = {}
    for name, shape in directory:
        if not isinstance(name, str) or name in loaded:
            raise CheckpointError(f"array name {name!r} is "
                                  + ("repeated" if isinstance(name, str) else "not a string"))
        if not _is_dims(shape):
            raise CheckpointError(f"shape {shape!r} of array {name!r} is not a list of "
                                  "non-negative integers")
        count = math.prod(shape)  # a Python int: no overflow
        nbytes = count * 8
        if off + nbytes > len(raw):
            raise CheckpointError(f"truncated array {name!r}")
        loaded[name] = np.frombuffer(raw, dtype="<f8", count=count,
                                     offset=off).reshape(shape).copy()
        off += nbytes
    if off != len(raw):
        raise CheckpointError(f"{len(raw) - off} trailing bytes after the last array")
    missing = [k for i in range(arch.num_layers) for k in (f"w{i}", f"b{i}")
               if k not in loaded]
    if missing:
        raise CheckpointError(f"missing layer arrays: {', '.join(missing)}")

    try:
        net = DenseNet(arch, [Layer(loaded[f"w{i}"], loaded[f"b{i}"])
                              for i in range(arch.num_layers)])
    except (KeyError, TypeError, ValueError) as e:
        raise CheckpointError(f"inconsistent checkpoint: {type(e).__name__}: {e}") from None
    anchor, fisher = loaded.get("anchor"), loaded.get("fisher")
    for name, vec in (("anchor", anchor), ("fisher", fisher)):
        if vec is not None and vec.shape != (net.param_count(),):
            raise CheckpointError(f"{name} has shape {list(vec.shape)}, expected "
                                  f"[{net.param_count()}] (one entry per parameter)")
    if fisher is not None and np.any(fisher < 0):
        raise CheckpointError("fisher has negative entries")
    return net, anchor, fisher
