"""Shared TSV plumbing: `#`-comment headers plus tab-separated rows."""

from __future__ import annotations

import os
from contextlib import contextmanager, suppress
from typing import Callable, Iterable, Iterator, Sequence, TextIO


def temp_path(path: str | os.PathLike) -> str:
    """The temporary file that a write of `path` fills before it is renamed onto `path`."""
    return f"{os.fspath(path)}.{os.getpid()}.tmp"


@contextmanager
def discard_on_error(tmp: str) -> Iterator[None]:
    """Remove the temporary file `tmp` if the block raises."""
    try:
        yield
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        raise


@contextmanager
def atomic_writer(path: str | os.PathLike) -> Iterator[TextIO]:
    """Text file handle whose contents replace `path` only once complete.

    Writes go to a temporary file in the same directory, which os.replace
    renames onto `path` when the block ends; if the block raises, the
    temporary file is removed and `path` keeps its old contents.
    """
    tmp = temp_path(path)
    with discard_on_error(tmp):
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)


@contextmanager
def open_text(path: str | os.PathLike) -> Iterator[TextIO]:
    """`path` opened for reading as UTF-8 text, without a leading byte-order
    mark. Every reader of the package opens its file here, so a byte that is
    not UTF-8 raises ValueError naming the path and the line, instead of the
    codec's message alone, and a BOM never joins the first word or key."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        with open(path, "rb") as fh:  # a line break is never part of a UTF-8 sequence
            line = next((n for n, raw in enumerate(fh, 1) if raw.decode("utf-8", "ignore").encode() != raw), None)
        where = path if line is None else f"{path}:{line}"
        raise ValueError(f"{where}: not UTF-8 text ({exc.reason})") from None


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
        fh.writelines("\t".join(map(str, row)) + "\n" for row in rows)


def read_columns(
    path: str | os.PathLike,
    columns: dict[str, Callable[[str], object]],
    error: type[ValueError],
    comments: bool = True,
) -> list[list]:
    """The data rows of `path`, skipping comments and blanks, as one list per
    column, each field parsed by its column's parser.

    With `comments` false, only a `#` line without a tab is skipped: a row
    holds tabs, a `#key=value` header none, so a first field may start with `#`.

    A row whose field count differs from len(columns), or a field whose
    parser raises ValueError, raises `error` naming the path, the line and
    the column.
    """
    width = len(columns)
    lines, flat = [], []  # flat holds the fields row after row: no list per row for the collector to scan
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line or line.startswith("#") and (comments or "\t" not in line):
                continue
            fields = line.split("\t")
            if len(fields) != width:
                layout = "<TAB>".join(columns)
                raise error(f"{path}:{lineno}: expected {layout}, got {len(fields)} fields")
            lines.append(lineno)
            flat += fields
    parsed = []
    for col, (name, parse) in enumerate(columns.items()):
        fields = flat[col::width]
        try:
            parsed.append(list(map(parse, fields)))
        except ValueError:
            for lineno, field in zip(lines, fields):
                try:
                    parse(field)
                except ValueError as exc:
                    raise error(f"{path}:{lineno}: {exc} (bad {name} in column {col + 1})") from None
    return parsed


def bounded(parse: Callable[[str], float], low: float, high: float, message: str) -> Callable[[str], float]:
    """Parser of a field that `parse` reads into a value in [low, high];
    `message` says what is wrong with a value outside, NaN included."""
    def check(field: str) -> float:
        value = parse(field)
        if not low <= value <= high:
            raise ValueError(message)
        return value
    return check


def one_of(choices: Sequence[str]) -> Callable[[str], str]:
    """Parser of a field that must be one of `choices`."""
    def check(field: str) -> str:
        if field not in choices:
            raise ValueError(f"{field!r} is not one of {', '.join(choices)}")
        return field
    return check


def read_meta(path: str | os.PathLike) -> dict[str, str]:
    """Parse leading `#key=value` comment lines."""
    meta: dict[str, str] = {}
    with open_text(path) as fh:
        for line in fh:
            if not line.startswith("#"):
                break
            body = line[1:].strip()
            if "=" in body:
                key, value = body.split("=", 1)
                meta[key.strip()] = value.strip()
    return meta
