"""Replace a file's whole content so a crash leaves the old or the new one.

The server's snapshot (``FileBackend.write_snapshot``) and the agent's
outbox compaction (``Outbox``) both rewrite a file that is the only copy
of durable state.  The recipe is the same and is kept once, here: write a
sibling temporary file, fsync it, rename it over the target, fsync the
directory — the rename lives in the directory, not the file, so without
the last step a power loss could keep what the caller does next (truncate
a journal, append to the new file) and lose the rename it depended on.

Standard library only: the agent imports this on the vantage point's Pi.
``os.fsync`` / ``os.replace`` are looked up at call time, so tests and the
e2e tracer can wrap them.
"""

from __future__ import annotations

import os
from typing import Iterable, Optional, Union

__all__ = ["replace_file", "write_synced"]

PathLike = Union[str, "os.PathLike[str]"]


def write_synced(path: PathLike, chunks: Iterable[str]) -> int:
    """Write ``chunks`` to ``path`` and fsync it; returns the bytes written."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(chunks)
        handle.flush()
        size = os.fstat(handle.fileno()).st_size
        os.fsync(handle.fileno())
    return size


def replace_file(
    path: PathLike, chunks: Iterable[str], tmp_path: Optional[PathLike] = None
) -> int:
    """Atomically replace ``path`` with ``chunks``; returns the new size.

    ``tmp_path`` (default ``<path>.tmp``) must sit in the same directory;
    a crash before the rename leaves it behind for the owner to unlink.
    """
    path = os.fspath(path)
    tmp_path = f"{path}.tmp" if tmp_path is None else os.fspath(tmp_path)
    size = write_synced(tmp_path, chunks)
    os.replace(tmp_path, path)
    dir_fd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)
    return size
