"""Durable file output: write → fsync → rename.

Campaign workers, the benchmark harness and the perf-history scripts all
persist JSON/text artifacts that other processes read back — sometimes
while writers are still running, sometimes after a run was killed half-way
through.  A plain ``open(path, "w").write(...)`` can leave a truncated file
in both situations; every writer in this repository therefore goes through
:func:`atomic_write_text` / :func:`atomic_write_json`, which stage the
content in a temporary sibling, flush it to disk, and atomically
``os.replace`` it over the destination.  Readers observe either the old
complete file or the new complete file, never a prefix.
"""

from __future__ import annotations

import glob
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Union

__all__ = [
    "atomic_write_bytes",
    "atomic_write_text",
    "atomic_write_json",
    "sweep_stale_temps",
]


def _temp_affixes(path: Path):
    """``(prefix, suffix)`` of the temporary siblings that stage *path*."""
    return f".{path.name}.", ".tmp"


def atomic_write_bytes(path: Union[str, Path], data: bytes) -> None:
    """Atomically replace *path* with *data* (write → fsync → rename).

    The temporary file is created in the destination directory so the final
    ``os.replace`` stays on one filesystem (rename is only atomic within a
    filesystem).  On any failure the destination is left untouched and the
    temporary is removed — except when the process is killed between the
    temporary's creation and the rename: :func:`sweep_stale_temps` removes
    what that leaves.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    prefix, suffix = _temp_affixes(path)
    fd, tmp_name = tempfile.mkstemp(prefix=prefix, suffix=suffix, dir=str(path.parent))
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    # Make the rename itself durable.  Not every filesystem supports
    # fsync on a directory fd; failure only weakens durability, never
    # atomicity, so it is best-effort.
    try:
        dir_fd = os.open(str(path.parent), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(dir_fd)
    except OSError:
        pass
    finally:
        os.close(dir_fd)


def sweep_stale_temps(path: Union[str, Path]) -> int:
    """Delete the temporaries a killed :func:`atomic_write_bytes` left
    beside *path*; returns how many.

    Only names of the exact shape it creates go: ``.<name>.<token>.tmp``
    with a dot-free token, so the temporaries of a sibling named
    ``<name>.<more>`` are not this file's.  Call it only where nothing is
    writing *path* at the same time.
    """
    path = Path(path)
    prefix, suffix = _temp_affixes(path)
    swept = 0
    for tmp in path.parent.glob(glob.escape(prefix) + "*" + glob.escape(suffix)):
        if "." in tmp.name[len(prefix):-len(suffix)]:
            continue
        try:
            tmp.unlink()
        except FileNotFoundError:
            continue
        swept += 1
    return swept


def atomic_write_text(
    path: Union[str, Path], text: str, encoding: str = "utf-8"
) -> None:
    """Atomically replace *path* with *text*."""
    atomic_write_bytes(path, text.encode(encoding))


def atomic_write_json(
    path: Union[str, Path],
    obj: Any,
    indent: int = 2,
    sort_keys: bool = True,
) -> None:
    """Atomically replace *path* with the JSON rendering of *obj*.

    ``sort_keys`` defaults on so two processes serializing the same logical
    object produce byte-identical files (the result cache depends on this
    for its byte-level resume guarantees).
    """
    text = json.dumps(obj, indent=indent, sort_keys=sort_keys) + "\n"
    atomic_write_bytes(path, text.encode("utf-8"))
