"""Shared TSV plumbing: `#`-comment headers plus tab-separated rows, sparse tables among them."""

from __future__ import annotations

import os
from contextlib import contextmanager, suppress
from itertools import count, starmap
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence, TextIO

if TYPE_CHECKING:
    import numpy as np


def open_temp(path: str | os.PathLike) -> tuple[str, TextIO]:
    """The name of a new temporary file beside `path`, for one write of `path` alone, and the file opened
    as UTF-8 text; it gets the permission bits of open(path, "w"), and is renamed onto `path` when full."""
    for n in count():
        tmp = f"{os.fspath(path)}.{os.getpid()}.{n}.tmp"
        with suppress(FileExistsError):
            return tmp, open(tmp, "x", encoding="utf-8")


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
    tmp, fh = open_temp(path)
    with discard_on_error(tmp):
        with fh:
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
    line: str | None = None,
) -> None:
    """Write the `meta` header lines, then one line per row: its fields joined by tabs, or
    `line.format(*row)`, which formats rows of one known width faster, with the same text."""
    with atomic_writer(path) as fh:
        write_meta(fh, meta)
        fh.writelines(starmap(line.format, rows) if line else ("\t".join(map(str, row)) + "\n" for row in rows))


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


def write_table(path: str | os.PathLike, header: dict[str, object], meta: dict[str, str] | None,
                rows: np.ndarray, cols: np.ndarray, values: Iterable[object]) -> None:
    """Write the `header` lines, then `meta`'s, then one row<TAB>column<TAB>value line per cell."""
    write_rows(path, zip(rows.tolist(), cols.tolist(), values), {**header, **(meta or {})}, "{}\t{}\t{}\n")


def read_table(path: str | os.PathLike, shape: tuple[str, str], header: dict[str, Callable[[str], object]],
               value: dict[str, Callable[[str], object]], error: type[ValueError]) -> tuple:
    """The header values of a `write_table` file (the `shape` sizes, then `header`'s) and its cells by (row, column):
    int64 ids below their sizes, and the values. A bad or missing header, bad row or repeated cell raises `error`."""
    import numpy as np  # here, not at the top: the command line opens its config file through this module

    sizes = {key: bounded(int, 0, 2**31 - 1, "size outside 0..2^31-1") for key in shape}
    meta, parsed = read_meta(path), {}
    for key, parse in {**sizes, **header}.items():
        if key not in meta:
            raise error(f"{path}: missing {key} header")
        try:
            parsed[key] = parse(meta[key])
        except ValueError as exc:
            raise error(f"{path}: bad {key} header: {exc}") from None
    outside = "id out of range for " + ", ".join(f"{key}={parsed[key]}" for key in sizes)
    row_id, col_id = (bounded(int, 0, parsed[key] - 1, outside) for key in shape)
    rows, cols, values = read_columns(path, {"target": row_id, "feature": col_id, **value}, error)
    rows, cols = np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64)
    keys = rows * parsed[shape[1]] + cols  # below 2^62, as sizes are below 2^31, like the int32 ids of a Corpus
    order = np.argsort(keys, kind="stable")  # linear on cells in order, as the writers write them
    if (np.diff(keys[order]) == 0).any():
        raise error(f"{path}: duplicate (target, feature) cells")
    return (*parsed.values(), rows[order], cols[order], np.array(values)[order])
