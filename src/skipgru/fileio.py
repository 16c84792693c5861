"""Shared binary formats and hashing helpers.

Vector files hold a header of two little-endian uint32 words (count, dim)
followed by row-major little-endian float32 rows; read_vectors widens them to
float64.  JSON written here is canonical (sorted keys, no whitespace) so
identical content is identical bytes.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from .errors import InputError


def canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True).encode("ascii")


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_path(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_vectors(path, vectors: np.ndarray) -> None:
    """(count, dim) uint32 header then float32 rows."""
    arr = np.ascontiguousarray(vectors, dtype="<f4")
    if arr.ndim != 2:
        raise InputError(f"vector file needs a 2-D array, got {arr.ndim}-D")
    with open(path, "wb") as fh:
        fh.write(np.asarray(arr.shape, dtype="<u4").tobytes())
        fh.write(arr.tobytes())


def read_vectors(path) -> np.ndarray:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 8:
        raise InputError(f"{path}: truncated vector file header")
    n, dim = np.frombuffer(raw[:8], dtype="<u4")
    body = np.frombuffer(raw[8:], dtype="<f4")
    if body.size != int(n) * int(dim):
        raise InputError(f"{path}: expected {int(n) * int(dim)} floats, "
                         f"found {body.size}")
    return body.reshape(int(n), int(dim)).astype(np.float64)
