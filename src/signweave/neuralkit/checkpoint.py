"""Binary checkpoint format, version 3: the magic `SWCK`, u32 version, u32
count, u32 EMA flag (1 when the parameter set keeps EMA shadows, else 0),
then one (name, dtype, shape, data) record per parameter, followed by its
EMA shadow when the flag is 1. Each array is stored in its parameter dtype.

Version 2 wrote an EMA shadow for every set, including sets that never
update one; it no longer decodes."""
from __future__ import annotations

import math
import os
import struct
from pathlib import Path

import numpy as np

from .nn import ParameterSet

MAGIC = b"SWCK"
VERSION = 3
# dtype code in the file (its item size) -> stored little-endian dtype
DTYPES = {4: np.dtype("<f4"), 8: np.dtype("<f8")}


def save_checkpoint(path: str | Path, params: ParameterSet) -> None:
    names = params.names()
    with open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<III", VERSION, len(names), int(params.keeps_ema)))
        for name in names:
            raw = name.encode("utf-8")
            dtype = params[name].data.dtype
            if dtype.itemsize not in DTYPES or dtype.kind != "f":
                raise ValueError(f"{name}: cannot checkpoint a {dtype} parameter")
            stored = DTYPES[dtype.itemsize]
            data = np.ascontiguousarray(params[name].data, dtype=stored)
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<II", dtype.itemsize, data.ndim))
            fh.write(struct.pack(f"<{data.ndim}I", *data.shape))
            fh.write(data.tobytes())
            if params.keeps_ema:
                fh.write(np.ascontiguousarray(params.ema_value(name), dtype=stored).tobytes())


def load_checkpoint(path: str | Path) -> dict[str, tuple[np.ndarray, np.ndarray | None]]:
    """Returns {name: (data, ema)} in the dtype each was saved in, each read
    from the file straight into its own writable array; ema is None when
    the file holds no EMA shadows.

    A file that does not start with the magic number and version 3, has an
    EMA flag other than 0 or 1, ends inside a record, has bytes after the
    last one, holds a name that is not UTF-8 or an unknown dtype code raises
    a ValueError naming the path."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        pos = 0  # the file offset, counted here rather than asked of the file per field

        def need(n: int) -> None:
            nonlocal pos
            if n > size - pos:
                raise ValueError(f"{path}: truncated checkpoint (needs {n} bytes at offset "
                                 f"{pos}, file has {size})")
            pos += n

        def take(n: int) -> bytes:
            need(n)
            return fh.read(n)

        def take_array(shape: tuple[int, ...], dtype: np.dtype) -> np.ndarray:
            need(dtype.itemsize * math.prod(shape))
            arr = np.empty(shape, dtype=dtype)
            if fh.readinto(arr.reshape(-1).view(np.uint8)) != arr.nbytes:
                raise ValueError(f"{path}: the checkpoint changed while it was read")
            return arr

        header = take(len(MAGIC) + 4)
        if header[: len(MAGIC)] != MAGIC:
            raise ValueError(f"{path}: not a signweave checkpoint (no {MAGIC.decode()} magic number)")
        (version,) = struct.unpack("<I", header[len(MAGIC):])
        if version != VERSION:
            raise ValueError(f"{path}: checkpoint version {version}, expected {VERSION}")
        out: dict[str, tuple[np.ndarray, np.ndarray | None]] = {}
        count, has_ema = struct.unpack("<II", take(8))
        if has_ema not in (0, 1):
            raise ValueError(f"{path}: checkpoint EMA flag {has_ema}, expected 0 or 1")
        for _ in range(count):
            (name_len,) = struct.unpack("<I", take(4))
            try:
                name = str(take(name_len), "utf-8")
            except UnicodeDecodeError:
                raise ValueError(f"{path}: a checkpoint parameter name is not UTF-8") from None
            code, ndim = struct.unpack("<II", take(8))
            if code not in DTYPES:
                raise ValueError(f"{path}: parameter {name} has unknown dtype code {code}")
            shape = struct.unpack(f"<{ndim}I", take(4 * ndim))
            out[name] = (take_array(shape, DTYPES[code]), take_array(shape, DTYPES[code]) if has_ema else None)
        if pos != size:
            raise ValueError(f"{path}: {size - pos} trailing bytes after the last "
                             "checkpoint record")
    return out


def restore_into(params: ParameterSet, loaded: dict[str, tuple[np.ndarray, np.ndarray | None]]) -> None:
    """Make the loaded arrays the values and EMA shadows of `params`. An array
    already in the parameter dtype is taken over, not copied, so the caller
    hands it to `params`; an EMA that may share memory with its value is
    copied, since the EMA update writes its shadow in place. A set that keeps
    shadows needs them in the checkpoint, and a set without them takes none:
    either mismatch raises a ValueError."""
    for name in params.names():
        if name not in loaded:
            raise KeyError(f"checkpoint is missing parameter {name}")
        data, ema = loaded[name]
        current = params[name]
        if tuple(data.shape) != tuple(current.data.shape):
            raise ValueError(f"shape mismatch for {name}: {data.shape} vs {current.data.shape}")
        if ema is None and params.keeps_ema:
            raise ValueError(f"checkpoint has no EMA shadow for {name}, and the parameter set keeps shadows")
        if ema is not None and not params.keeps_ema:
            raise ValueError(f"checkpoint has an EMA shadow for {name}, and the parameter set keeps none")
        value = data.astype(current.data.dtype, copy=False)
        current.data = value
        if ema is not None:
            params._ema[name] = ema.astype(value.dtype, copy=np.may_share_memory(ema, value))
