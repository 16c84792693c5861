"""Crash-safe writes: a failed write leaves the previous file in place.

Every whole-file writer of the package goes through atomic_output.  A static
check parses the package and fails on any open() with a write mode elsewhere;
the one exception is the train metrics CSV, which is appended to row by row
and cut back on resume.  The fault-injection tests make each text writer fail
halfway through its bytes.
"""

import ast
import builtins
import hashlib
import os
import struct
from pathlib import Path

import numpy as np
import pytest

from conftest import make_model, make_vocab
from skipgru import fileio
from skipgru.cli import _write_metric_rows, main
from skipgru.errors import InputError
from skipgru.corpus import save_vocab
from skipgru.fileio import atomic_output, read_vectors, write_vectors
from skipgru.numerics import AdamState
from skipgru.trainer import load_model, save_checkpoint

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "skipgru"
DATA = Path(__file__).resolve().parent / "data"

# (module, function) allowed to open a file for writing.
WRITE_OPENERS = {("fileio", "atomic_output"), ("trainer", "train")}


class _Crash(Exception):
    pass


def test_failed_write_keeps_old_file_and_leaves_no_temp(tmp_path):
    path = tmp_path / "v.bin"
    write_vectors(path, np.eye(2))
    old = path.read_bytes()
    with pytest.raises(_Crash):
        with atomic_output(path) as fh:
            fh.write(b"partial")
            raise _Crash
    assert path.read_bytes() == old
    assert list(tmp_path.iterdir()) == [path]


def test_successful_write_replaces_file(tmp_path):
    path = tmp_path / "v.bin"
    write_vectors(path, np.eye(2))
    write_vectors(path, np.ones((3, 1)))
    assert np.array_equal(read_vectors(path), np.ones((3, 1)))
    assert list(tmp_path.iterdir()) == [path]


def test_successful_write_removes_temp_files_of_dead_writers(tmp_path):
    # A writer killed mid-write leaves path.<pid>.tmp.  The next successful
    # write of path removes it once that pid is gone, and keeps the temp
    # file of a live writer, whose write may be in flight, and the files of
    # other paths.
    import subprocess
    import sys
    dead = subprocess.Popen([sys.executable, "-c", "pass"])
    dead.wait()
    live = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
    try:
        path = tmp_path / "v.bin"
        orphan = tmp_path / f"v.bin.{dead.pid}.tmp"
        in_flight = tmp_path / f"v.bin.{live.pid}.tmp"
        other = tmp_path / f"w.bin.{dead.pid}.tmp"
        for f in (orphan, in_flight, other):
            f.write_bytes(b"partial")
        write_vectors(path, np.eye(2))
        assert sorted(tmp_path.iterdir()) == sorted([path, in_flight, other])
    finally:
        live.kill()
        live.wait()


@pytest.mark.parametrize("tail", [b"\x00", b"\x00" * 7],
                         ids=["one_byte_over", "seven_bytes_over"])
def test_read_vectors_refuses_a_body_of_the_wrong_length(tmp_path, tail):
    # A body that is not a whole number of floats used to die in
    # np.frombuffer with an uncaught ValueError.
    path = tmp_path / "v.bin"
    write_vectors(path, np.ones((2, 3)))
    path.write_bytes(path.read_bytes() + tail)
    with pytest.raises(InputError, match="expected 6 floats"):
        read_vectors(path)


@pytest.mark.parametrize("count", [0, 4])
def test_read_vectors_refuses_a_dimension_of_zero(tmp_path, count):
    # Rows of no entries used to load, and eval-rank then failed on a
    # zero-norm image (exit 3) instead of on its input (exit 2).
    path = tmp_path / "v.bin"
    path.write_bytes(struct.pack("<II", count, 0))
    with pytest.raises(InputError, match="dimension must be >= 1, got 0"):
        read_vectors(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_read_vectors_refuses_a_non_finite_entry(tmp_path, bad):
    path = tmp_path / "v.bin"
    vectors = np.ones((3, 2))
    vectors[2, 1] = bad
    write_vectors(path, vectors)
    with pytest.raises(InputError, match="non-finite entry in row 2"):
        read_vectors(path)


def _is_write_mode(mode) -> bool:
    """True for a mode that writes, or one that is not a string literal."""
    if mode is None:
        return False
    literals = [n.value for n in ast.walk(mode)
                if isinstance(n, ast.Constant) and isinstance(n.value, str)]
    return not literals or any(set(m) & set("wax+") for m in literals)


def write_opens_outside_atomic_output(package: Path) -> list[str]:
    """module.function of every open() call in `package` that writes, except
    in WRITE_OPENERS."""
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if (path.stem, func.name) in WRITE_OPENERS:
                continue
            for call in ast.walk(func):
                if not (isinstance(call, ast.Call)
                        and isinstance(call.func, ast.Name)
                        and call.func.id == "open"):
                    continue
                mode = call.args[1] if len(call.args) > 1 else next(
                    (kw.value for kw in call.keywords if kw.arg == "mode"), None)
                if _is_write_mode(mode):
                    found.append(f"{path.stem}.{func.name}")
    return sorted(set(found))


def test_files_are_written_only_through_atomic_output():
    assert write_opens_outside_atomic_output(PACKAGE) == []


class _CountingReader:
    """A binary file that logs the length of each read."""

    def __init__(self, fh, log):
        self.fh, self.log = fh, log

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def seek(self, *args):
        return self.fh.seek(*args)

    def read(self, size=-1):
        data = self.fh.read(size)
        self.log.append(len(data))
        return data


@pytest.mark.parametrize("name", ["tiny.ckpt", "tiny.map"])
def test_stored_digest_reads_only_the_trailer(monkeypatch, name):
    path = DATA / name
    data = path.read_bytes()
    reads = []
    monkeypatch.setattr(fileio, "open", lambda *a, **kw: _CountingReader(
        builtins.open(*a, **kw), reads), raising=False)
    want = hashlib.sha256(data[:-32]).hexdigest()
    assert want == data[-32:].hex()
    assert fileio.stored_digest(path) == want
    assert reads == [32]


def test_sha256_path_hashes_a_file_changed_since_its_read(tmp_path):
    path = tmp_path / "m.ckpt"
    model = make_model(vocab_size=6)
    save_checkpoint(model, AdamState.initial(model.param_dict()), path)
    load_model(path)
    with open(path, "r+b") as fh:       # in place: same inode and size
        fh.seek(-1, os.SEEK_END)
        last = fh.read(1)
        fh.seek(-1, os.SEEK_END)
        fh.write(bytes([last[0] ^ 0xFF]))
    # A coarse file-system clock could give the write the read's timestamps.
    st = path.stat()
    os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns - 10**9))
    assert fileio.sha256_path(path) == hashlib.sha256(
        path.read_bytes()).hexdigest()


class _HalfThenFail:
    """A binary file whose first write stores half its bytes, then fails."""

    def __init__(self, fh, log):
        self.fh, self.log = fh, log

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[:len(data) // 2])
        self.fh.flush()
        self.log.append(Path(self.fh.name).stat().st_size)
        raise OSError(28, "No space left on device")


@pytest.fixture
def fail_writes_to(monkeypatch):
    """fail_writes_to(target): the temp file atomic_output opens for `target`
    fails halfway through its first write.  Returns the sizes of the partial
    temp files at the moment of failure."""
    log: list = []

    def install(target):
        def faulty_open(file, mode="r", *args, **kwargs):
            fh = builtins.open(file, mode, *args, **kwargs)
            if str(file).startswith(str(target)) and str(file).endswith(".tmp"):
                return _HalfThenFail(fh, log)
            return fh
        monkeypatch.setattr(fileio, "open", faulty_open, raising=False)
        return log
    return install


CORPUS = "the cat sat .\nthe dog ran .\na bird flew .\n"


def _vocab_writer(tmp_path):
    path = tmp_path / "vocab.txt"
    save_vocab(make_vocab(5), path)
    return path, lambda: save_vocab(make_vocab(9), path)


def _metric_rows_writer(tmp_path):
    path = tmp_path / "metrics.csv"
    _write_metric_rows(path, [("sick", "uni", "pearson", 0.5)])
    rows = [("sick", "uni", m, 0.25) for m in ("pearson", "spearman", "mse")]
    return path, lambda: _write_metric_rows(path, rows)


def _manifest_writer(tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(CORPUS, encoding="utf-8")
    path = tmp_path / "run.json"
    argv = ["build-vocab", "--corpus", str(corpus), "--out",
            str(tmp_path / "v.txt"), "--manifest", str(path)]
    assert main(argv + ["--size", "4"]) == 0
    return path, lambda: main(argv + ["--size", "6"])


def _text_out_writer(tmp_path):
    model = make_model(vocab_size=6, embed_dim=3, hidden_dim=4)
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(model, AdamState.initial(model.param_dict()), ckpt)
    lines = tmp_path / "in.txt"
    lines.write_text("w2 w3\nw4\n", encoding="utf-8")
    path = tmp_path / "vectors.txt"
    argv = ["encode", "--ckpt", str(ckpt), "--out", str(tmp_path / "v.bin"),
            "--text-out", str(path), "--manifest", str(tmp_path / "m.json")]
    assert main(argv + ["--input", str(lines)]) == 0
    lines.write_text("w5 w2 w3\nw4 w4\nw3\n", encoding="utf-8")
    return path, lambda: main(argv + ["--input", str(lines)])


@pytest.mark.parametrize("make_writer", [
    _vocab_writer, _metric_rows_writer, _manifest_writer, _text_out_writer],
    ids=["vocab", "metric-rows", "manifest", "text-out"])
def test_text_writer_failing_midway_keeps_old_file(tmp_path, make_writer,
                                                   fail_writes_to, capsys):
    path, write_again = make_writer(tmp_path)
    old = path.read_bytes()
    partial = fail_writes_to(path)
    try:
        status = write_again()
    except OSError:          # a writer called directly raises; main returns 4
        status = 4
    assert status == 4
    assert len(partial) == 1 and 0 < partial[0]
    assert path.read_bytes() == old
    assert list(tmp_path.glob("*.tmp")) == []
