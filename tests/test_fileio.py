"""Atomic writes: concurrent writers of one path never lose a file."""

import os
import threading

from repro.fileio import atomic_write_bytes


def test_interleaved_writers_of_one_path_both_succeed(tmp_path, monkeypatch):
    """Two writers stage before either publishes; neither loses its file."""
    path = tmp_path / "entry.json"
    both_staged = threading.Barrier(2, timeout=10)
    real_replace = os.replace

    def replace_after_both_staged(src, dst):
        both_staged.wait()
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace_after_both_staged)
    errors = []

    def write():
        try:
            atomic_write_bytes(path, b"payload")
        except Exception as exc:  # reported below, on the main thread
            errors.append(exc)
            both_staged.abort()

    writers = [threading.Thread(target=write) for _ in range(2)]
    for w in writers:
        w.start()
    for w in writers:
        w.join(timeout=30)
        assert not w.is_alive()
    monkeypatch.undo()
    assert errors == []
    assert path.read_bytes() == b"payload"
    assert [p.name for p in tmp_path.iterdir()] == [path.name]
