"""Dense word vectors and the plain-text interchange format.

The on-disk format is the word2vec text layout: a `n_rows n_cols` header
line followed by one `word v1 v2 ... vd` line per row. Floats are written
with repr() so a write/read round trip is bit-exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tsvio import atomic_writer, write_meta


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


def write_embeddings(path, emb: DenseEmbeddings, meta: dict[str, str] | None = None) -> None:
    """Write the word2vec text layout, after one `#key=value` line per meta entry."""
    with atomic_writer(path) as fh:
        write_meta(fh, meta)
        fh.write(f"{len(emb)} {emb.dim}\n")
        for word, row in zip(emb.words, emb.matrix):
            fh.write(word + " " + " ".join(map(repr, row.tolist())) + "\n")


def read_embeddings(path) -> DenseEmbeddings:
    words: list[str] = []
    values: list[float] = []  # row after row: no list per row for the collector to scan
    with open(path, encoding="utf-8") as fh:
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
