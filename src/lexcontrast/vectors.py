"""Dense word vectors and the plain-text interchange format.

The on-disk format is the word2vec text layout: a `n_rows n_cols` header
line followed by one `word v1 v2 ... vd` line per row. Floats are written
with repr() so a write/read round trip is bit-exact.

Formatting the rows is the slow part, and repr() is its floor, so a writer
child does it off the caller's critical path: `start_embeddings` writes the
header lines to a temporary file, hands the words and the raw float64 rows
to one `python -I -S` child through an unnamed temporary file, and returns a
`PendingWrite` at once. The child is put in the idle scheduling class, so
it runs on CPU the caller leaves idle, and appends the rows to the temporary
file, reading one row at a time. `PendingWrite.wait` reaps it and renames the temporary
file onto the path only if the child exited 0.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from contextlib import suppress
from dataclasses import dataclass, field

import numpy as np

from .tsvio import discard_on_error, open_temp, open_text, write_meta


class VectorsError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class DenseEmbeddings:
    """Row-per-word dense matrix plus the word list that indexes it.

    Two are equal when every field is: words, matrix values and source.
    """

    words: list[str]
    matrix: np.ndarray  # shape (len(words), dim), float64
    source: str = ""  # e.g. "svd", "sgns", "dlce"
    word_ids: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        if self.matrix.ndim != 2:
            raise VectorsError("embedding matrix must be 2-D")
        if len(self.words) != self.matrix.shape[0]:
            raise VectorsError(
                f"{len(self.words)} words but {self.matrix.shape[0]} matrix rows"
            )
        if not np.isfinite(self.matrix).all():
            raise VectorsError("embedding matrix contains NaN or Inf")
        ids = {w: i for i, w in enumerate(self.words)}
        if len(ids) != len(self.words):
            raise VectorsError("duplicate word in embedding rows")
        object.__setattr__(self, "word_ids", ids)

    def __eq__(self, other) -> bool:
        return (isinstance(other, DenseEmbeddings) and (self.words, self.source) == (other.words, other.source)
                and np.array_equal(self.matrix, other.matrix))

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, word: str) -> bool:
        return word in self.word_ids


# The writer child, stdlib only. argv: the temporary file, the row count and the
# column count; stdin: a file holding the words, one per line, then the rows as
# native float64. It reads one row at a time, so besides the word list it holds
# one row, whatever the size of the matrix.
_WRITER = """\
import sys
path, n_rows, n_cols = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
src = sys.stdin.buffer
words = [src.readline()[:-1].decode("utf-8") for _ in range(n_rows)]
with open(path, "a", encoding="utf-8") as fh:
    for word in words:
        row = memoryview(src.read(8 * n_cols)).cast("d").tolist()
        fh.write(word + " " + " ".join(map(repr, row)) + "\\n")
"""


class PendingWrite:
    """A vector file whose rows a writer child is formatting.

    Until `wait` returns, `path` keeps its old contents; every PendingWrite
    must be waited for, on success and on failure alike.
    """

    def __init__(self, path: str, tmp: str, proc: subprocess.Popen):
        self.path, self._tmp, self.proc = path, tmp, proc

    def wait(self) -> None:
        """Reap the child, then rename the file onto `path` if it exited 0;
        otherwise remove the temporary file and raise VectorsError naming `path`."""
        with discard_on_error(self._tmp):
            err = self.proc.communicate()[1].decode("utf-8", "replace").splitlines()
            if self.proc.returncode != 0:
                why = err[-1] if err else f"exit status {self.proc.returncode}"
                raise VectorsError(f"{self.path}: vector writer failed: {why}")
            os.replace(self._tmp, self.path)


def start_embeddings(path, emb: DenseEmbeddings, meta: dict[str, str] | None = None) -> PendingWrite:
    """Start writing the word2vec text layout, after one `#key=value` line per meta entry.

    The header lines are written before this returns; the rows are formatted
    by a writer child, and the returned PendingWrite's `wait` puts the file
    in place. A word with a space or a line break raises VectorsError before
    any byte is written, since the file could not be read back.
    """
    words = "".join(word + "\n" for word in emb.words)
    if " " in words or "\r" in words or words.count("\n") != len(emb):
        bad = next(word for word in emb.words if any(c in word for c in " \n\r"))
        raise VectorsError(f"word {bad!r} contains a space or a line break")
    tmp, fh = open_temp(path)
    with discard_on_error(tmp):
        with fh:
            write_meta(fh, meta)
            fh.write(f"{len(emb)} {emb.dim}\n")
        # the payload is a copy, so the caller may change the matrix at once
        with tempfile.TemporaryFile() as payload:
            payload.write(words.encode("utf-8"))
            emb.matrix.astype(np.float64, copy=False).tofile(payload)  # C order, whatever the matrix's
            payload.seek(0)
            proc = subprocess.Popen([sys.executable, "-I", "-S", "-c", _WRITER, tmp, str(len(emb)), str(emb.dim)],
                                    stdin=payload, stderr=subprocess.PIPE)
        # the child runs only on CPU that no other process wants (Linux; elsewhere
        # at normal priority); a failure to lower its priority is no failure to write
        if hasattr(os, "SCHED_IDLE"):
            with suppress(OSError):
                os.sched_setscheduler(proc.pid, os.SCHED_IDLE, os.sched_param(0))
        return PendingWrite(os.fspath(path), tmp, proc)


def read_embeddings(path) -> DenseEmbeddings:
    words: list[str] = []
    values: list[float] = []  # row after row: no list per row for the collector to scan
    with open_text(path) as fh:
        header = None
        for line in fh:
            if line.startswith("#"):  # tolerate annotated files
                continue
            header = line
            break
        if header is None:
            raise VectorsError(f"{path}: empty vector file")
        parts = header.split()
        if len(parts) != 2 or not all(part.isdecimal() for part in parts):
            raise VectorsError(f"{path}: header must be 'n_rows n_cols'")
        n_rows, n_cols = int(parts[0]), int(parts[1])
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            fields = line.rstrip().split(" ")  # word2vec.c ends each row with a space
            if len(fields) != n_cols + 1:
                raise VectorsError(
                    f"{path}:{lineno}: expected a word and {n_cols} values, got {len(fields)} fields"
                )
            words.append(fields[0])
            try:
                values += map(float, fields[1:])
            except ValueError as exc:
                raise VectorsError(f"{path}:{lineno}: {exc}") from None
    if len(words) != n_rows:
        raise VectorsError(f"{path}: header claims {n_rows} rows, found {len(words)}")
    matrix = np.array(values, dtype=np.float64).reshape(len(words), n_cols)
    try:
        return DenseEmbeddings(words, matrix)
    except VectorsError as exc:
        raise VectorsError(f"{path}: {exc}") from None
