"""Binary file formats, crash-safe writes, and hashing helpers.

Checkpoints, expansion maps, vector files and whole text files (write_text:
vocabularies, metric CSVs, manifests, text vectors) are written through
atomic_output: the bytes go to a temporary file in the destination's
directory, which replaces the destination (os.replace) only once it is
complete, and which is removed if the write fails.  A crash therefore leaves
the old file or the new one, never a torn one.  A killed writer leaves its
temp file, `<path>.<pid>.tmp`; the next successful write of `path` removes
each such file whose process is gone.  There is no fsync: this
guards against a crashed process, not against a lost machine.

Checkpoints and vocabulary-expansion maps share one container layout:

    magic (8 bytes) | version (uint32) | header length n (uint64) |
    header (n bytes of canonical JSON) | float64 blobs | sha256 (32 bytes)

All integers and floats are little-endian.  The JSON is canonical (sorted
keys, no whitespace, ASCII) so identical content is identical bytes; the
blobs are row-major arrays whose shapes the header determines; the sha256
covers everything before it.  A reader may build only the leading blobs (a
checkpoint's parameters without its Adam moments); the rest still pass
through the checksum before anything is returned.

A verified read also yields the sha256 of the whole file: the running digest
of everything before the stored one, fed those stored 32 bytes.  fileio keeps
the last few such digests, keyed by the file's (device, inode, size, mtime,
ctime), and sha256_path answers from that record when a fresh stat of the
path matches a key exactly, so a command's manifest does not read its
checkpoint a second time.  A file replaced through atomic_output has a new
inode, and atomic_output drops any record of the inode it writes, so a
rewritten file never matches a stale entry.  Only a rewrite in place by
another program, to the same size and within one tick of the file system's
clock after the read, would go unseen.

Vector files hold a header of two little-endian uint32 words (count, dim)
followed by row-major little-endian float32 rows; read_vectors widens them to
float64, and refuses a file of any other length, with a dim of 0 or with a
non-finite entry.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import struct
import threading
from contextlib import contextmanager, suppress
from itertools import chain

import numpy as np

from .errors import CheckpointError, InputError, SkipGruError

_PREFIX = struct.Struct("<IQ")     # version, header length
_DIGEST_LEN = 32
_CHUNK = 1 << 20                   # bytes per read or written block

# Whole-file sha256 of the last verified container reads, by _stat_key.
_DIGESTS: dict[tuple, str] = {}
_DIGESTS_MAX = 16
_DIGESTS_LOCK = threading.Lock()


def _stat_key(st: os.stat_result) -> tuple:
    return (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns)


def _remember(st: os.stat_result, hexdigest: str) -> None:
    with _DIGESTS_LOCK:
        _DIGESTS[_stat_key(st)] = hexdigest
        while len(_DIGESTS) > _DIGESTS_MAX:
            del _DIGESTS[next(iter(_DIGESTS))]


def _forget(st: os.stat_result) -> None:
    """Drop every record of st's inode, which now holds a new file: the
    inode of a deleted file can be given to the next one created."""
    with _DIGESTS_LOCK:
        for key in [k for k in _DIGESTS if k[:2] == (st.st_dev, st.st_ino)]:
            del _DIGESTS[key]


def _remove_orphans(path: str) -> None:
    """Remove each `path`.<pid>.tmp whose writer has died: a process killed
    mid-write leaves its temp file behind.  A file whose pid is alive, or
    belongs to another user (os.kill raises PermissionError), is kept: it
    may be a write in flight."""
    if os.name != "posix":   # elsewhere os.kill(pid, 0) ends the process
        return
    folder, name = os.path.split(path)
    pattern = re.compile(re.escape(name) + r"\.([0-9]{1,9})\.tmp")
    with os.scandir(folder or ".") as entries:
        orphans = [(e.path, int(m[1])) for e in entries
                   if (m := pattern.fullmatch(e.name)) and int(m[1]) > 0]
    for tmp, pid in orphans:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            with suppress(FileNotFoundError):
                os.remove(tmp)
        except PermissionError:
            pass


@contextmanager
def atomic_output(path):
    """Binary file handle whose contents replace `path` only on success.

    After a successful replace, temp files of `path` left by writers that
    have died are removed (_remove_orphans)."""
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            yield fh
            _forget(os.fstat(fh.fileno()))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
    _remove_orphans(path)


def write_text(path, text: str) -> None:
    """Write a whole UTF-8 text file through atomic_output."""
    with atomic_output(path) as fh:
        fh.write(text.encode("utf-8"))


def write_container(path, magic: bytes, version: int, header: dict,
                    blobs) -> None:
    """Write one container file; `blobs` yields arrays stored as float64.

    Each blob is hashed and written as it comes in row blocks of about _CHUNK
    bytes, so the file is never held in memory as a whole, and a blob that is
    not already row-major little-endian float64 (a column-major V) is never
    copied whole either.
    """
    head = json.dumps(header, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True).encode("ascii")
    chunks = chain([magic + _PREFIX.pack(version, len(head)) + head],
                   chain.from_iterable(map(_row_blocks, blobs)))
    digest = hashlib.sha256()
    with atomic_output(path) as fh:
        for chunk in chunks:
            digest.update(chunk)
            fh.write(chunk)
        fh.write(digest.digest())


def _row_blocks(blob):
    """The row-major float64 bytes of `blob`, in blocks of its rows: views
    when it is laid out so already, else copies of one block at a time."""
    a = np.atleast_1d(np.asarray(blob))
    rows = max(1, _CHUNK // (8 * max(1, math.prod(a.shape[1:]))))
    return (np.ascontiguousarray(a[i:i + rows], dtype="<f8")
            for i in range(0, len(a), rows))


# The JSON types that each kind of header field may take.
_KINDS = {"int": int, "float": (int, float), "bool": bool, "str": str}


def check_types(values: dict, kinds: dict, error=TypeError) -> None:
    """Raise `error` for the first key of `kinds` whose value in `values` is
    not of its kind: "int", "float", "bool", "str" or "list[str]".  A bool is
    no int, and an int is also a float.  Nothing is cast."""
    for key, kind in kinds.items():
        value = values[key]
        if kind == "list[str]":
            ok = isinstance(value, list) and all(isinstance(v, str) for v in value)
        else:
            ok = (isinstance(value, _KINDS[kind])
                  and isinstance(value, bool) == (kind == "bool"))
        if not ok:
            raise error(f"{key} must be {kind}, got {value!r:.40}")


def check_keys(values, keys) -> None:
    """Raise ValueError unless `values` is a dict whose keys are exactly
    `keys`, naming the keys that are missing and those that are not expected."""
    if not isinstance(values, dict):
        raise ValueError(f"expected an object, got {values!r:.40}")
    missing, extra = set(keys) - set(values), set(values) - set(keys)
    if missing or extra:
        raise ValueError(f"missing keys {sorted(missing)}, unexpected keys "
                         f"{sorted(extra)}")


def read_container(path, magic: bytes, version: int, kind: str, parse,
                   keep=None):
    """Read a write_container file; returns (meta, list of float64 arrays).

    parse(header) returns what the caller keeps from the header and the shape
    of each blob in file order; it raises ValueError, KeyError, TypeError or a
    package error on a header it cannot use.  keep(meta), when given, is the
    number of leading blobs to build; the bytes of the others are hashed
    through one fixed buffer and never held.  The file size is checked
    against the shapes before any blob is allocated, and the checksum, taken
    over every byte as the file is read, before anything is returned; each
    failure is a CheckpointError that names `kind`.  A verified read records
    the file's sha256 for sha256_path.
    """
    with open(path, "rb") as fh:
        st = os.fstat(fh.fileno())
        size = st.st_size
        start = len(magic) + _PREFIX.size
        if size < start + _DIGEST_LEN:
            raise CheckpointError(f"{path}: too short to be a {kind} file")
        lead = fh.read(start)
        if lead[:len(magic)] != magic:
            raise CheckpointError(f"{path}: bad magic bytes for a {kind} file")
        found, head_len = _PREFIX.unpack_from(lead, len(magic))
        if found != version:
            raise CheckpointError(f"{path}: unsupported {kind} version {found}")
        body_len = size - start - head_len - _DIGEST_LEN
        try:
            if body_len < 0:
                raise ValueError("header runs past the end of the file")
            head = fh.read(head_len)
            meta, shapes = parse(json.loads(head.decode("ascii")))
            if any(d < 0 for shape in shapes for d in shape):
                raise ValueError("negative blob dimension")
        except (ValueError, KeyError, TypeError, SkipGruError) as exc:
            raise CheckpointError(f"{path}: malformed {kind} header "
                                  f"({exc})") from exc
        expected = 8 * sum(math.prod(shape) for shape in shapes)
        if body_len != expected:
            raise CheckpointError(f"{path}: {kind} blob section has "
                                  f"{body_len} bytes, expected {expected}")
        n = len(shapes) if keep is None else keep(meta)
        digest = hashlib.sha256(lead + head)
        blobs = [np.empty(shape, dtype="<f8") for shape in shapes[:n]]
        for blob in blobs:
            fh.readinto(blob)
            digest.update(blob)
        _hash_through(fh, digest,
                      8 * sum(math.prod(shape) for shape in shapes[n:]))
        stored = fh.read(_DIGEST_LEN)
        if digest.digest() != stored:
            raise CheckpointError(f"{path}: {kind} checksum mismatch "
                                  f"(truncated or corrupt)")
        digest.update(stored)
        _remember(st, digest.hexdigest())
    return meta, blobs


def _hash_through(fh, digest, size: int) -> None:
    """Feed the next `size` bytes of fh to digest, _CHUNK bytes at a time."""
    buf = memoryview(bytearray(min(size, _CHUNK)))
    while size:
        got = fh.readinto(buf[:min(size, _CHUNK)])
        if not got:
            # Cut short since its size was read: the checksum fails.
            return
        digest.update(buf[:got])
        size -= got


def sha256_path(path) -> str:
    """Hex sha256 of a file.  A container that read_container verified is not
    read again while a fresh stat still matches the one taken at that read."""
    with _DIGESTS_LOCK:
        known = _DIGESTS.get(_stat_key(os.stat(path)))
    if known is not None:
        return known
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(_CHUNK), b""):
            h.update(chunk)
    return h.hexdigest()


def write_vectors(path, vectors: np.ndarray) -> None:
    """(count, dim) uint32 header then float32 rows."""
    arr = np.ascontiguousarray(vectors, dtype="<f4")
    if arr.ndim != 2:
        raise InputError(f"vector file needs a 2-D array, got {arr.ndim}-D")
    with atomic_output(path) as fh:
        fh.write(np.asarray(arr.shape, dtype="<u4").tobytes())
        fh.write(arr.tobytes())


def read_vectors(path) -> np.ndarray:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 8:
        raise InputError(f"{path}: truncated vector file header")
    n, dim = (int(x) for x in np.frombuffer(raw[:8], dtype="<u4"))
    if dim < 1:
        raise InputError(f"{path}: vector dimension must be >= 1, got {dim}")
    if len(raw) != 8 + 4 * n * dim:
        raise InputError(f"{path}: expected {n * dim} floats ({4 * n * dim} "
                         f"bytes) after the header, found {len(raw) - 8} bytes")
    body = np.frombuffer(raw[8:], dtype="<f4")
    finite = np.isfinite(body)
    if not finite.all():
        raise InputError(f"{path}: non-finite entry in row "
                         f"{int(np.argmin(finite)) // dim}")
    return body.reshape(n, dim).astype(np.float64)
