"""Binary checkpoint format: u32 count, then (name, shape, f32 data, f32 ema) records."""
from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .nn import ParameterSet


def save_checkpoint(path: str | Path, params: ParameterSet) -> None:
    names = params.names()
    with open(path, "wb") as fh:
        fh.write(struct.pack("<I", len(names)))
        for name in names:
            raw = name.encode("utf-8")
            data = np.ascontiguousarray(params[name].data, dtype="<f4")
            ema = np.ascontiguousarray(params.ema_value(name), dtype="<f4")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<I", data.ndim))
            fh.write(struct.pack(f"<{data.ndim}I", *data.shape))
            fh.write(data.tobytes())
            fh.write(ema.tobytes())


def load_checkpoint(path: str | Path) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Returns {name: (data, ema)} as float32 arrays.

    A file that ends inside a record, has bytes after the last one, or holds
    a name that is not UTF-8 raises a ValueError naming the path."""
    buf = memoryview(Path(path).read_bytes())
    pos = 0

    def take(n: int) -> memoryview:
        nonlocal pos
        if n > len(buf) - pos:
            raise ValueError(f"{path}: truncated checkpoint (needs {n} bytes at offset {pos}, "
                             f"file has {len(buf)})")
        pos += n
        return buf[pos - n : pos]

    out: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    (count,) = struct.unpack("<I", take(4))
    for _ in range(count):
        (name_len,) = struct.unpack("<I", take(4))
        try:
            name = str(take(name_len), "utf-8")
        except UnicodeDecodeError:
            raise ValueError(f"{path}: a checkpoint parameter name is not UTF-8") from None
        (ndim,) = struct.unpack("<I", take(4))
        shape = struct.unpack(f"<{ndim}I", take(4 * ndim))
        size = math.prod(shape)
        data = np.frombuffer(take(4 * size), dtype="<f4").reshape(shape).copy()
        ema = np.frombuffer(take(4 * size), dtype="<f4").reshape(shape).copy()
        out[name] = (data, ema)
    if pos != len(buf):
        raise ValueError(f"{path}: {len(buf) - pos} trailing bytes after the last checkpoint record")
    return out


def restore_into(params: ParameterSet, loaded: dict[str, tuple[np.ndarray, np.ndarray]]) -> None:
    for name in params.names():
        if name not in loaded:
            raise KeyError(f"checkpoint is missing parameter {name}")
        data, ema = loaded[name]
        current = params[name]
        if tuple(data.shape) != tuple(current.data.shape):
            raise ValueError(f"shape mismatch for {name}: {data.shape} vs {current.data.shape}")
        current.data = data.astype(current.data.dtype)
        params._ema[name] = ema.astype(current.data.dtype)
