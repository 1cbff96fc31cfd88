"""Corpus ingestion: vocabulary building, frequency subsampling, windowed co-occurrence counts.

The corpus format is plain UTF-8 text, one document per line, whitespace
tokenized. Document boundaries are never crossed when windowing.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy import sparse

from . import tsvio

TokenLines = Iterable[Sequence[str]]


class CorpusError(ValueError):
    """Raised for malformed corpus-side inputs (vocab/count files, bad ids)."""


@dataclass(frozen=True)
class Vocabulary:
    """Word <-> dense-id mapping with corpus frequencies.

    Ids are 0..n-1, assigned by descending frequency with lexicographic
    tie-breaking; every count is >= the min_count used at build time.
    """

    words: tuple[str, ...]
    counts: np.ndarray  # int64, aligned with words
    total_tokens: int
    word_ids: dict[str, int]

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, word: str) -> bool:
        return word in self.word_ids

    def id_of(self, word: str) -> int:
        return self.word_ids[word]

    def word_of(self, word_id: int) -> str:
        return self.words[word_id]

    def count_of(self, word_id: int) -> int:
        return int(self.counts[word_id])

    def relative_frequencies(self) -> np.ndarray:
        """count(w) / total retained tokens, per id."""
        if self.total_tokens == 0:
            return np.zeros(0)
        return self.counts / float(self.total_tokens)

    @classmethod
    def from_counts(cls, counts: Counter | dict[str, int], min_count: int = 1) -> "Vocabulary":
        if min_count < 1:
            raise CorpusError(f"min_count must be >= 1, got {min_count}")
        kept = [(w, int(c)) for w, c in counts.items() if c >= min_count]
        kept.sort(key=lambda item: (-item[1], item[0]))
        words = tuple(w for w, _ in kept)
        arr = np.array([c for _, c in kept], dtype=np.int64)
        return cls(
            words=words,
            counts=arr,
            total_tokens=int(arr.sum()) if len(arr) else 0,
            word_ids={w: i for i, w in enumerate(words)},
        )


def read_corpus(path, lowercase: bool = True) -> list[list[str]]:
    """Load a one-document-per-line corpus file into token lists.

    Equal tokens share one string object. The lists then cost a pointer per
    token, and a vocabulary built from them, which outlives them, does not
    hold on to memory spread through every line.
    """
    lines = []
    canonical: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            tokens = line.split()
            if lowercase:
                tokens = [t.lower() for t in tokens]
            lines.append([canonical.setdefault(t, t) for t in tokens])
    return lines


def build_vocabulary(lines: TokenLines, min_count: int) -> Vocabulary:
    """Count all token types and keep those with frequency >= min_count."""
    counter: Counter = Counter()
    for line in lines:
        counter.update(line)
    return Vocabulary.from_counts(counter, min_count)


def encode_lines(lines: TokenLines, vocab: Vocabulary) -> list[np.ndarray]:
    """Map token lines to id arrays, dropping out-of-vocabulary tokens."""
    ids = vocab.word_ids
    return [
        np.array([ids[t] for t in line if t in ids], dtype=np.int64)
        for line in lines
    ]


def discard_probabilities(vocab: Vocabulary, threshold: float) -> np.ndarray:
    """Per-id discard probability max(0, 1 - sqrt(t / f(w)))."""
    freqs = vocab.relative_frequencies()
    probs = np.zeros(len(vocab))
    if math.isinf(threshold):
        return probs
    nz = freqs > 0
    probs[nz] = 1.0 - np.sqrt(threshold / freqs[nz])
    return np.clip(probs, 0.0, 1.0)


def subsample_ids(
    id_lines: Sequence[np.ndarray],
    discard: np.ndarray,
    rng: np.random.Generator,
) -> list[np.ndarray]:
    """Drop each occurrence independently with its word's discard probability.

    One uniform draw is consumed per token, in corpus order, so the output is
    a pure function of (input, discard table, generator state). The draws
    come from one call: a generator's stream of doubles does not depend on
    how it is chunked, so this equals drawing line by line.
    """
    full = [ids for ids in id_lines if len(ids)]
    if not full:
        return list(id_lines)
    flat = np.concatenate(full)
    keep = rng.random(len(flat)) >= discard[flat]
    line_ends = np.cumsum(np.fromiter(map(len, full), dtype=np.intp, count=len(full))) - 1
    bounds = [0] + np.cumsum(keep)[line_ends].tolist()
    kept = flat[keep]
    pieces = iter([kept[a:b] for a, b in zip(bounds, bounds[1:])])
    return [next(pieces) if len(ids) else ids for ids in id_lines]


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

    def total(self) -> int:
        return int(self.counts.sum()) if len(self.counts) else 0

    def to_dict(self) -> dict[tuple[int, int], int]:
        return {
            (int(t), int(f)): int(c)
            for t, f, c in zip(self.targets, self.features, self.counts)
        }

    def to_csr(self) -> sparse.csr_matrix:
        m = sparse.coo_matrix(
            (self.counts.astype(np.float64), (self.targets, self.features)),
            shape=(self.n_words, self.n_words),
        )
        return m.tocsr()


def count_cooccurrences(
    lines: TokenLines,
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
    one int64 key target * n + feature, and counting the distinct keys
    yields the table in (target, feature) order.
    """
    if window < 1:
        raise CorpusError(f"window must be >= 1, got {window}")
    n = len(vocab)
    empty = np.zeros(0, dtype=np.int64)
    id_lines = encode_lines(lines, vocab)
    if not id_lines or n == 0:
        return CooccurrenceCounts(n, window, empty, empty.copy(), empty.copy())
    tok = np.concatenate(id_lines)
    if len(tok) < 2:
        return CooccurrenceCounts(n, window, empty, empty.copy(), empty.copy())
    lengths = np.fromiter((len(ids) for ids in id_lines), dtype=np.int64, count=len(id_lines))
    line_id = np.repeat(np.arange(len(id_lines)), lengths)
    eff = np.random.default_rng(seed).integers(1, window + 1, size=len(tok)) if dynamic_window else None

    key_chunks = []
    for off in range(1, min(window, len(tok) - 1) + 1):
        same_line = line_id[:-off] == line_id[off:]
        left = tok[:-off]
        right = tok[off:]
        # center on the left token: context is `off` to the right
        mask = same_line if eff is None else same_line & (eff[:-off] >= off)
        key_chunks.append(left[mask] * n + right[mask])
        # center on the right token: context is `off` to the left
        mask = same_line if eff is None else same_line & (eff[off:] >= off)
        key_chunks.append(right[mask] * n + left[mask])

    keys, counts = np.unique(np.concatenate(key_chunks), return_counts=True)
    return CooccurrenceCounts(n, window, keys // n, keys % n, counts.astype(np.int64))


def write_vocabulary(path, vocab: Vocabulary, meta: dict[str, str] | None = None) -> None:
    rows = ((vocab.words[i], i, int(vocab.counts[i])) for i in range(len(vocab)))
    tsvio.write_rows(path, rows, meta)


def read_vocabulary(path) -> Vocabulary:
    entries: list[tuple[str, int, int]] = []
    for lineno, fields in tsvio.iter_rows(path):
        if len(fields) != 3:
            raise CorpusError(f"{path}:{lineno}: expected word<TAB>id<TAB>count")
        word, wid, count = fields[0], int(fields[1]), int(fields[2])
        entries.append((word, wid, count))
    entries.sort(key=lambda e: e[1])
    for expected, (_, wid, _) in enumerate(entries):
        if wid != expected:
            raise CorpusError(f"{path}: ids are not dense 0..n-1")
    words = tuple(w for w, _, _ in entries)
    if len(set(words)) != len(words):
        raise CorpusError(f"{path}: duplicate surface forms")
    counts = np.array([c for _, _, c in entries], dtype=np.int64)
    return Vocabulary(
        words=words,
        counts=counts,
        total_tokens=int(counts.sum()) if len(counts) else 0,
        word_ids={w: i for i, w in enumerate(words)},
    )


def write_counts(path, counts: CooccurrenceCounts, meta: dict[str, str] | None = None) -> None:
    full_meta = {"n_words": str(counts.n_words), "window": str(counts.window)}
    if meta:
        full_meta.update(meta)
    rows = zip(counts.targets, counts.features, counts.counts)
    tsvio.write_rows(path, rows, full_meta)


def read_counts(path) -> CooccurrenceCounts:
    meta = tsvio.read_meta(path)
    try:
        n_words = int(meta["n_words"])
        window = int(meta["window"])
    except KeyError as exc:
        raise CorpusError(f"{path}: missing {exc.args[0]} header") from None
    t, f, c = [], [], []
    for lineno, fields in tsvio.iter_rows(path):
        if len(fields) != 3:
            raise CorpusError(f"{path}:{lineno}: expected target<TAB>feature<TAB>count")
        t.append(int(fields[0]))
        f.append(int(fields[1]))
        c.append(int(fields[2]))
    targets = np.array(t, dtype=np.int64)
    features = np.array(f, dtype=np.int64)
    values = np.array(c, dtype=np.int64)
    if len(values) and (values <= 0).any():
        raise CorpusError(f"{path}: stored counts must be positive")
    if len(targets) and (targets.max() >= n_words or features.max() >= n_words):
        raise CorpusError(f"{path}: id out of range for n_words={n_words}")
    if len(np.unique(targets * n_words + features)) < len(targets):
        raise CorpusError(f"{path}: duplicate (target, feature) rows")
    order = np.lexsort((features, targets))
    return CooccurrenceCounts(
        n_words, window, targets[order], features[order], values[order]
    )
