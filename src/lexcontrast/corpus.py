"""Corpus ingestion: one encoded corpus, vocabulary building, frequency
subsampling, windowed co-occurrence counts.

The corpus format is plain UTF-8 text, one document per line, whitespace
tokenized. `encode_lines` turns token lines into a `Corpus` in one pass, the
only pass over the tokens; everything downstream, the vocabulary, the count
table and both trainers, reads its flat int arrays. Document boundaries are
never crossed when windowing.

Windowing turns each (center, context) pair into one integer key,
center * n + context, in the narrowest type that holds n**2: uint32 while n,
the vocabulary size or an epoch's token count, is at most 65,536, int64
above. Counting sorts the keys in place and reads each count off the length
of a run of equal keys.
"""

from __future__ import annotations

import math
import re
from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import count
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import tsvio

TokenLines = Iterable[Sequence[str]]


class CorpusError(ValueError):
    """Raised for malformed corpus-side inputs (vocab/count files, bad ids)."""


@dataclass(frozen=True, eq=False)
class Vocabulary:
    """Word <-> dense-id mapping with corpus frequencies.

    Ids are 0..n-1, assigned by descending frequency with lexicographic
    tie-breaking; every count is >= the min_count used at build time.
    Two vocabularies are equal when their words and counts are.
    """

    words: tuple[str, ...]
    counts: np.ndarray  # int64, aligned with words
    min_count: int | None = None  # the one it was built with, if known
    total_tokens: int = field(init=False)
    word_ids: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "total_tokens", int(self.counts.sum()))
        object.__setattr__(self, "word_ids", {w: i for i, w in enumerate(self.words)})

    def __eq__(self, other) -> bool:
        return (isinstance(other, Vocabulary) and self.words == other.words
                and np.array_equal(self.counts, other.counts))

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, word: str) -> bool:
        return word in self.word_ids

    def check_rows(self, table: str, shape: tuple[int, int], error: type[ValueError], square: bool = False) -> None:
        """Refuse `table` unless it has one row per word (and, if `square`, one column per word), naming
        both sizes: `table shape and vocabulary disagree: the LMI matrix (616, 616), the vocabulary 615 words`."""
        if shape[0] != len(self) or square and shape[1] != len(self):
            raise error(f"table shape and vocabulary disagree: {table} {shape}, the vocabulary {len(self)} words")

    @classmethod
    def from_counts(cls, counts: Mapping[str, int], min_count: int = 1) -> "Vocabulary":
        if min_count < 1:
            raise CorpusError(f"min_count must be >= 1, got {min_count}")
        kept = sorted(((w, int(c)) for w, c in counts.items() if c >= min_count), key=lambda e: (-e[1], e[0]))
        return cls(tuple(w for w, _ in kept), np.array([c for _, c in kept], dtype=np.int64), min_count)


@dataclass(frozen=True, eq=False)
class Corpus:
    """A corpus encoded once: its token types in first-seen order, and for
    each token in corpus order its type id and its line."""

    types: tuple[str, ...]
    tok: np.ndarray  # C int (int32) index into types; half the memory of int64
    line: np.ndarray  # C int line number, non-decreasing

    def ids(self, vocab: Vocabulary) -> tuple[np.ndarray, np.ndarray]:
        """The vocabulary id of every in-vocabulary token, in corpus order, and
        its line, both C int like `tok`; out-of-vocabulary tokens are dropped."""
        table = np.array([vocab.word_ids.get(t, -1) for t in self.types], dtype=np.intc)
        ids = table[self.tok]
        kept = ids >= 0
        return ids[kept], self.line[kept]


def encode_lines(lines: TokenLines) -> Corpus:
    """Encode token lines in one pass, one dict lookup per token; a type's id
    is its rank in first-seen order. The lookup of a new type inserts it, so
    the loop over a line's tokens runs in `map`, not in Python code."""
    type_ids: defaultdict[str, int] = defaultdict(count().__next__)
    tok, lengths = array("i"), array("i")
    for line in lines:
        tok.extend(map(type_ids.__getitem__, line))
        lengths.append(len(line))
    line_of = np.repeat(np.arange(len(lengths), dtype=np.intc), np.frombuffer(lengths, dtype=np.intc))
    return Corpus(tuple(type_ids), np.frombuffer(tok, dtype=np.intc), line_of)


def _as_corpus(lines: Corpus | TokenLines) -> Corpus:
    """The corpus, with token lines encoded first. The entry points that take
    a corpus also take token lines, which the benchmark's in-process
    workloads and library callers pass."""
    return lines if isinstance(lines, Corpus) else encode_lines(lines)


def read_corpus(path, lowercase: bool = True) -> Corpus:
    """Encode a one-document-per-line corpus file, lowercasing each token if asked."""
    with tsvio.open_text(path) as fh:
        return encode_lines([t.lower() for t in line.split()] if lowercase else line.split() for line in fh)


def build_vocabulary(lines: Corpus | TokenLines, min_count: int) -> Vocabulary:
    """Count all token types and keep those with frequency >= min_count."""
    text = _as_corpus(lines)
    counts = np.bincount(text.tok, minlength=len(text.types))
    return Vocabulary.from_counts(dict(zip(text.types, counts.tolist())), min_count)


def discard_probabilities(vocab: Vocabulary, threshold: float) -> np.ndarray:
    """Per-id discard probability max(0, 1 - sqrt(t / f(w))), f(w) the
    word's share of the vocabulary's tokens."""
    freqs = vocab.counts / float(vocab.total_tokens)
    probs = np.zeros(len(vocab))
    nz = freqs > 0
    probs[nz] = 1.0 - np.sqrt(threshold / freqs[nz])
    return np.clip(probs, 0.0, 1.0)


def subsample_ids(
    ids: tuple[np.ndarray, np.ndarray],
    discard: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Drop each occurrence independently with its word's discard probability.

    `ids` is the (token id, line) pair of `Corpus.ids`, and so is the result.
    One uniform draw is consumed per token, in corpus order, so the output is
    a pure function of (input, discard table, generator state).
    """
    tok, line = ids
    keep = rng.random(len(tok)) >= discard[tok]
    return tok[keep], line[keep]


@dataclass(frozen=True)
class CooccurrenceCounts:
    """Sparse (target, feature) -> count table from symmetric windowing.

    Rows are sorted by (target, feature); all stored counts are positive.
    With a fixed window the table is exactly symmetric: count(w, f) == count(f, w).
    """

    n_words: int
    window: int
    targets: np.ndarray  # int64
    features: np.ndarray  # int64
    counts: np.ndarray  # int64

    def __len__(self) -> int:
        return len(self.counts)


def count_cooccurrences(
    lines: Corpus | TokenLines,
    vocab: Vocabulary,
    window: int,
    dynamic_window: bool = False,
    seed: int = 0,
) -> CooccurrenceCounts:
    """Count symmetric windowed co-occurrences over in-vocabulary tokens.

    OOV tokens are removed before windowing, so windows close over the gaps
    they leave. With dynamic_window=True, each target position draws an
    effective window size uniformly from 1..window (word2vec-style); the
    default is the fixed window. Each (target, feature) occurrence becomes
    one key target * n + feature, uint32 for n <= 65,536 and int64 above
    (`window_keys`); sorting the keys in place and counting the length of
    each run of equal keys yields the table in (target, feature) order.
    """
    if window < 1:
        raise CorpusError(f"window must be >= 1, got {window}")
    n = len(vocab)
    tok, line_id = _as_corpus(lines).ids(vocab)
    eff = np.random.default_rng(seed).integers(1, window + 1, size=len(tok)) if dynamic_window else None
    keys = window_keys(tok, line_id, window, n, eff)
    keys.sort()
    head = np.empty(len(keys), dtype=bool)  # True where a run of equal keys starts
    head[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=head[1:])
    heads = np.flatnonzero(head)
    counts = np.diff(np.append(heads, len(keys)))
    keys = keys[heads].astype(np.int64)
    return CooccurrenceCounts(n, window, keys // n, keys % n, counts)


def window_keys(tok: np.ndarray, line_id: np.ndarray, window: int, scale: int,
                eff: np.ndarray | None = None) -> np.ndarray:
    """The key center * scale + context of every (center, context) pair of
    the symmetric window over `tok`, one key per pair, in the narrowest type
    that holds scale**2: uint32 for scale <= 65,536, else int64.

    tok holds one value per token, each below `scale`, and line_id the line
    of each; no pair crosses lines. eff, when given, is each center's own
    window size (at most `window`), else every center sees `window` tokens
    on each side. The keys fill one array, offset by offset: for each
    offset, the pairs with the center on the left, then on the right.
    """
    dtype = np.uint32 if scale <= 2**16 else np.int64
    tok, scale = tok.astype(dtype), dtype(scale)  # an int64 tok, or an int64 scale under NEP 50, widens the keys
    offsets = range(1, min(window, len(tok) - 1) + 1)

    def sides(off: int):
        """(mask, centers, contexts) at `off`, for the center on the left token, then on the right."""
        same_line = line_id[:-off] == line_id[off:]
        left, right = tok[:-off], tok[off:]
        if eff is None:
            return (same_line, left, right), (same_line, right, left)
        return (same_line & (eff[:-off] >= off), left, right), (same_line & (eff[off:] >= off), right, left)

    keys = np.empty(sum(int(np.count_nonzero(side[0])) for off in offsets for side in sides(off)), dtype=dtype)
    at = 0
    for off in offsets:
        for mask, center, context in sides(off):
            key = center * scale
            key += context
            at += len(np.compress(mask, key, out=keys[at:at + np.count_nonzero(mask)]))
    return keys


def write_vocabulary(path, vocab: Vocabulary, meta: dict[str, str] | None = None) -> None:
    tsvio.write_rows(path, zip(vocab.words, range(len(vocab)), vocab.counts.tolist()), meta)


def read_vocabulary(path) -> Vocabulary:
    columns = {"word": str, "id": int, "count": tsvio.bounded(int, 1, math.inf, "count below 1")}
    entries = sorted(zip(*tsvio.read_columns(path, columns, CorpusError, comments=False)), key=lambda e: e[1])
    if [wid for _, wid, _ in entries] != list(range(len(entries))):
        raise CorpusError(f"{path}: ids are not dense 0..n-1")
    built = re.findall(r" min_count=(\d+)$", tsvio.read_meta(path).get("config", ""))  # [] or what `vocab` recorded
    vocab = Vocabulary(tuple(w for w, _, _ in entries), np.array([c for *_, c in entries], np.int64), *map(int, built))
    if len(vocab.word_ids) < len(vocab):
        raise CorpusError(f"{path}: duplicate surface forms")
    return vocab


def write_counts(path, counts: CooccurrenceCounts, meta: dict[str, str] | None = None) -> None:
    header = {"n_words": counts.n_words, "window": counts.window}
    tsvio.write_table(path, header, meta, counts.targets, counts.features, counts.counts.tolist())


def read_counts(path) -> CooccurrenceCounts:
    header = {"window": tsvio.bounded(int, 1, math.inf, "window below 1")}
    value = {"count": tsvio.bounded(int, 1, math.inf, "count below 1")}
    *table, counts = tsvio.read_table(path, ("n_words", "n_words"), header, value, CorpusError)
    return CooccurrenceCounts(*table, counts.astype(np.int64))
