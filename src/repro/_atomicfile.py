"""Replace a file's whole content so a crash leaves the old or the new one.

The server's snapshot (``FileBackend.write_snapshot``) and the agent's
outbox compaction (``Outbox``) both rewrite a file that is the only copy
of durable state.  The recipe is the same and is kept once, here: write a
sibling temporary file, fsync it, rename it over the target, fsync the
directory — the rename lives in the directory, not the file, so without
the last step a power loss could keep what the caller does next (truncate
a journal, append to the new file) and lose the rename it depended on.

A chunk of the new content is text, or an ``(offset, length)`` pair naming
bytes of the file being replaced: those are copied by the kernel
(``os.copy_file_range``; ``pread`` + ``write`` where the filesystem cannot),
so a rewrite that keeps most of a large file never brings it through
Python.

Standard library only: the agent imports this on the vantage point's Pi.
``os.fsync`` / ``os.replace`` / ``os.copy_file_range`` are looked up at call
time, so tests and the e2e tracer can wrap them.
"""

from __future__ import annotations

import errno
import os
from typing import Iterable, Optional, Tuple, Union

__all__ = ["replace_file", "write_synced"]

PathLike = Union[str, "os.PathLike[str]"]
Chunk = Union[str, Tuple[int, int]]

#: ``copy_file_range`` errors that mean "not here", not "failed".
_NO_KERNEL_COPY = {errno.ENOSYS, errno.EXDEV, errno.EINVAL, errno.EOPNOTSUPP}
#: The ``pread`` fallback copies at most this many bytes at a time.
_READ_BYTES = 1 << 20


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _copy_range(src: int, dst: int, offset: int, length: int) -> None:
    """Append ``length`` bytes at ``offset`` of ``src`` to ``dst``."""
    kernel_copy = getattr(os, "copy_file_range", None)
    while length > 0:
        copied = 0
        if kernel_copy is not None:
            try:
                copied = kernel_copy(src, dst, length, offset)
            except OSError as exc:
                if exc.errno not in _NO_KERNEL_COPY:
                    raise
            if not copied:  # unsupported here, or nothing it would copy
                kernel_copy = None
                continue
        else:
            data = os.pread(src, min(length, _READ_BYTES), offset)
            if not data:
                raise OSError(errno.EIO, f"source ends {length} byte(s) short of the range")
            _write_all(dst, data)
            copied = len(data)
        offset += copied
        length -= copied


def write_synced(
    path: PathLike, chunks: Iterable[Chunk], source: Optional[PathLike] = None
) -> int:
    """Write ``chunks`` to ``path`` and fsync it; returns the bytes written.

    ``(offset, length)`` chunks are byte ranges of ``source``.
    """
    src = None
    try:
        with open(path, "wb") as handle:
            for chunk in chunks:
                if isinstance(chunk, str):
                    handle.write(chunk.encode("utf-8"))
                    continue
                if src is None:
                    src = os.open(source, os.O_RDONLY)
                handle.flush()  # the kernel copy lands after what is buffered
                _copy_range(src, handle.fileno(), *chunk)
            handle.flush()
            size = os.fstat(handle.fileno()).st_size
            os.fsync(handle.fileno())
    finally:
        if src is not None:
            os.close(src)
    return size


def replace_file(
    path: PathLike, chunks: Iterable[Chunk], tmp_path: Optional[PathLike] = None
) -> int:
    """Atomically replace ``path`` with ``chunks``; returns the new size.

    An ``(offset, length)`` chunk is that range of ``path`` as it was before
    the call.  ``tmp_path`` (default ``<path>.tmp``) must sit in the same
    directory.  An ``OSError`` before the rename (a full disk) removes it
    and propagates with ``path`` untouched; one from the directory fsync
    after it propagates with ``path`` already replaced, so a caller cannot
    assume either content.  A crash before the rename leaves the tmp file
    behind for the owner: the outbox unlinks it at open, the server's next
    snapshot overwrites it.
    """
    path = os.fspath(path)
    tmp_path = f"{path}.tmp" if tmp_path is None else os.fspath(tmp_path)
    try:
        size = write_synced(tmp_path, chunks, source=path)
        os.replace(tmp_path, path)
    except OSError:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise
    dir_fd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)
    return size
