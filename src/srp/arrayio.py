"""Flat float64 array files with an 8-value self-describing header.

Header layout (all float64, little-endian): magic, version, height, width,
channels, then three reserved zeros. Data follows row-major. The format is
trivially writable from any ecosystem, which is the point.
"""

from __future__ import annotations

import numpy as np

MAGIC = 64918.0
VERSION = 1.0
_HEADER_LEN = 8


class ArrayFileError(ValueError):
    pass


def write_array(path, data):
    """Write a (h,), (h, w) or (h, w, c) float array."""
    data = np.asarray(data, dtype=float)
    if data.ndim == 1:
        h, w, c = 1, data.shape[0], 1
    elif data.ndim == 2:
        h, w, c = data.shape[0], data.shape[1], 1
    elif data.ndim == 3:
        h, w, c = data.shape
    else:
        raise ArrayFileError(f"unsupported array rank {data.ndim}")
    header = np.array([MAGIC, VERSION, h, w, c, 0.0, 0.0, 0.0])
    with open(path, "wb") as fh:
        header.astype("<f8").tofile(fh)
        data.astype("<f8").ravel().tofile(fh)


def read_array(path):
    """Read back as (h, w) or (h, w, c); a single row comes back as (w,).

    A path that is a directory is refused with ``ArrayFileError``, like a
    malformed file.
    """
    try:
        raw = np.fromfile(path, dtype="<f8")
    except IsADirectoryError as exc:
        raise ArrayFileError(f"{path}: {exc.strerror}") from exc
    if raw.size < _HEADER_LEN:
        raise ArrayFileError(f"{path}: truncated header")
    magic, version = raw[0], raw[1]
    if magic != MAGIC:
        raise ArrayFileError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise ArrayFileError(f"{path}: unsupported version {version!r}")
    dims = raw[2:5]
    if not np.all(np.isfinite(dims) & (dims >= 0) & (dims == np.floor(dims))):
        raise ArrayFileError(
            f"{path}: dimensions must be non-negative integers, got {dims.tolist()}")
    h, w, c = (int(d) for d in dims)
    body = raw[_HEADER_LEN:]
    if body.size != h * w * c:
        raise ArrayFileError(f"{path}: expected {h * w * c} values, got {body.size}")
    if h == 1 and c == 1:
        return body.copy()
    if c == 1:
        return body.reshape(h, w)
    return body.reshape(h, w, c)
