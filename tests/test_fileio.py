"""Crash-safe writes: a failed write leaves the previous file in place."""

import numpy as np
import pytest

from skipgru.fileio import atomic_output, read_vectors, write_vectors


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
