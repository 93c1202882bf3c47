"""Bit-exact file formats: snapshot blocks and 17-digit CSV tables.

Snapshot block layout (little-endian):
  header, 40 bytes: int64 rows-per-frame, int64 columns-per-frame,
                    int64 n_frames, float64 half_width, float64 dx
  payload: n_frames * rows * columns float64, row-major.

CSV floats use 17 significant digits so values round-trip losslessly.
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

import numpy as np

from .errors import ParameterError

__all__ = [
    "SNAPSHOT_HEADER_BYTES",
    "write_snapshots",
    "read_snapshots",
    "write_csv",
    "read_csv",
    "write_json",
    "sha256_file",
    "sha256_text",
]

SNAPSHOT_HEADER_BYTES = 40
_HEADER_FMT = "<qqqdd"


def write_snapshots(path, frames: np.ndarray, half_width: float, dx: float) -> None:
    frames = np.ascontiguousarray(np.asarray(frames, dtype="<f8"))
    if frames.ndim != 3:
        raise ParameterError("snapshot payload must be (n_frames, rows, columns)")
    n_frames, rows, cols = frames.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack(_HEADER_FMT, rows, cols, n_frames, half_width, dx))
        fh.write(frames.tobytes(order="C"))


def read_snapshots(path):
    raw = Path(path).read_bytes()
    if len(raw) < SNAPSHOT_HEADER_BYTES:
        raise ParameterError(f"snapshot file {path} is truncated")
    rows, cols, n_frames, half_width, dx = struct.unpack(
        _HEADER_FMT, raw[:SNAPSHOT_HEADER_BYTES]
    )
    if min(rows, cols, n_frames) < 0:
        raise ParameterError(f"snapshot file {path} has a header with negative sizes "
                             f"({rows}, {cols}, {n_frames})")
    expected = SNAPSHOT_HEADER_BYTES + 8 * rows * cols * n_frames
    if len(raw) != expected:
        raise ParameterError(
            f"snapshot file {path} has {len(raw)} bytes, expected {expected}"
        )
    frames = np.frombuffer(raw[SNAPSHOT_HEADER_BYTES:], dtype="<f8").reshape(
        n_frames, rows, cols
    )
    return frames.copy(), half_width, dx


def _format_value(v) -> str:
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    return str(v)


def write_csv(path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_format_value(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_csv(path):
    lines = Path(path).read_text(encoding="utf-8").strip().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    return header, data


def write_json(path, payload: dict) -> None:
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
