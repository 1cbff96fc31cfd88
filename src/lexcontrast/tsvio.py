"""Shared TSV plumbing: `#`-comment headers plus tab-separated rows."""

from __future__ import annotations

import os
from contextlib import contextmanager, suppress
from typing import Iterable, Iterator, Sequence, TextIO


@contextmanager
def atomic_writer(path: str | os.PathLike) -> Iterator[TextIO]:
    """Text file handle whose contents replace `path` only once complete.

    Writes go to a temporary file in the same directory, which os.replace
    renames onto `path` when the block ends; if the block raises, the
    temporary file is removed and `path` keeps its old contents.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_meta(fh: TextIO, meta: dict[str, str] | None) -> None:
    if not meta:
        return
    for key, value in meta.items():
        fh.write(f"#{key}={value}\n")


def write_rows(
    path: str | os.PathLike,
    rows: Iterable[Sequence[object]],
    meta: dict[str, str] | None = None,
) -> None:
    with atomic_writer(path) as fh:
        write_meta(fh, meta)
        for row in rows:
            fh.write("\t".join(str(field) for field in row) + "\n")


def iter_rows(path: str | os.PathLike) -> Iterator[tuple[int, list[str]]]:
    """Yield (line_number, fields) for data rows, skipping comments and blanks."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            yield lineno, line.split("\t")


def read_meta(path: str | os.PathLike) -> dict[str, str]:
    """Parse leading `#key=value` comment lines."""
    meta: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.startswith("#"):
                break
            body = line[1:].strip()
            if "=" in body:
                key, value = body.split("=", 1)
                meta[key.strip()] = value.strip()
    return meta
