"""Binary field snapshots and the one writer of every artifact.

Snapshot layout ("OBSF", version 1):

    offset  size  field
    0       4     magic b"OBSF"
    4       4     u32 version (= 1)
    8       4     u32 d
    12      4     u32 n
    16      4     u32 component count
    20      4     u32 flags (reserved, 0)
    24      -     components * n^d little-endian float64 physical samples,
                  row-major per component

Round-trips are bit-exact: the payload is written and read as raw float64
bytes.  Every file obflow writes goes through atomic_write_bytes: a
temp-file + rename, so readers never see a partial file, in a directory
made when its first file lands.  JSON and CSV artifacts take their text
from json_text and csv_text.
"""

from __future__ import annotations

import json
import os
import struct
import tempfile
from pathlib import Path
from typing import Iterable, Sequence, Tuple, Union

import numpy as np

MAGIC = b"OBSF"
VERSION = 1
_HEADER = struct.Struct("<4sIIIII")


class SnapshotFormatError(RuntimeError):
    """File is not a well-formed snapshot."""


def atomic_write_bytes(path: Union[str, Path], payload: bytes) -> None:
    """Write payload to path via a same-directory temp file and rename,
    making the directory first if it is missing."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: Union[str, Path], text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def json_text(payload: dict) -> str:
    """JSON text of an artifact: sorted keys, two-space indent, final newline."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """CSV text of an artifact: strings as they are, numbers as
    repr(float(v)), which round-trips and reads the same for numpy scalars."""
    lines = [",".join(header)]
    lines += [",".join(v if isinstance(v, str) else repr(float(v)) for v in row)
              for row in rows]
    return "\n".join(lines) + "\n"


def write_snapshot(path: Union[str, Path], d: int, n: int,
                   components: np.ndarray) -> None:
    """Write physical-space component samples, shape (ncomp, n, ... d axes)."""
    components = np.asarray(components, dtype=np.float64)
    expected = (n,) * d
    if components.ndim != d + 1 or components.shape[1:] != expected:
        raise ValueError(
            f"components must have shape (ncomp,) + {expected}, "
            f"got {components.shape}")
    header = _HEADER.pack(MAGIC, VERSION, d, n, components.shape[0], 0)
    payload = np.ascontiguousarray(components).astype("<f8").tobytes()
    atomic_write_bytes(path, header + payload)


def read_snapshot(path: Union[str, Path]) -> Tuple[int, int, np.ndarray]:
    """Read a snapshot; returns (d, n, components)."""
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise SnapshotFormatError(f"{path}: truncated header")
    magic, version, d, n, ncomp, flags = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise SnapshotFormatError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise SnapshotFormatError(f"{path}: unsupported version {version}")
    if flags != 0:
        raise SnapshotFormatError(f"{path}: unknown flags {flags:#x}")
    count = ncomp * n ** d
    body = raw[_HEADER.size:]
    if len(body) != 8 * count:
        raise SnapshotFormatError(
            f"{path}: payload has {len(body)} bytes, expected {8 * count}")
    data = np.frombuffer(body, dtype="<f8").reshape((ncomp,) + (n,) * d)
    return d, n, data.astype(np.float64)
