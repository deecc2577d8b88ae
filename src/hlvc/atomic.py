"""Atomic file writes: a temporary file beside the target, renamed over it."""

from __future__ import annotations

import contextlib
import os


@contextlib.contextmanager
def atomic_open(path, mode: str = "wb", **kwargs):
    """Open a temporary file beside ``path`` that replaces it on success.

    The file is written in full and then renamed over ``path`` in one
    ``os.replace``: a crash mid-write leaves the previous file intact, and
    the temporary file is removed on failure.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
