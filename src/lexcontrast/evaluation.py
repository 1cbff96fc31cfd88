"""Ranking and correlation metrics over scored word pairs.

Average precision and AUC grade how well cosine scores separate synonym
pairs from antonym pairs; Spearman's rho grades agreement with graded
similarity ratings; the median report summarizes the score distribution per
relation label. Pairs with an unrepresented word are excluded from every
metric but counted against coverage.

Scoring maps each pair's words to rows once and takes all the cosines of a
pair list in one vectorised call, for dense embeddings and sparse weighted
rows alike; tied scores share their average rank.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import tsvio
from .corpus import Vocabulary
from .weighting import WeightedMatrix, pair_cosines

LABELS = ("SYN", "ANT")
WORD_CLASSES = ("ADJ", "NOUN", "VERB")


class EvalError(ValueError):
    pass


class RelationPair(NamedTuple):
    word1: str
    word2: str
    label: str  # SYN | ANT
    word_class: str  # ADJ | NOUN | VERB


class SimilarityPair(NamedTuple):
    word1: str
    word2: str
    rating: float


@dataclass(frozen=True)
class RelationPairSet:
    pairs: tuple[RelationPair, ...]

    def __post_init__(self):
        seen: set[tuple[str, str, str]] = set()
        for p in self.pairs:
            if p.label not in LABELS:
                raise EvalError(f"bad label {p.label!r}; expected SYN or ANT")
            if p.word_class not in WORD_CLASSES:
                raise EvalError(f"bad word class {p.word_class!r}")
            key = (min(p.word1, p.word2), max(p.word1, p.word2), p.word_class)
            if key in seen:
                raise EvalError(f"duplicate pair {p.word1}/{p.word2} in class {p.word_class}")
            seen.add(key)

    def by_class(self) -> dict[str, list[RelationPair]]:
        grouped: dict[str, list[RelationPair]] = {}
        for p in self.pairs:
            grouped.setdefault(p.word_class, []).append(p)
        return grouped


@dataclass(frozen=True)
class SimilarityPairSet:
    pairs: tuple[SimilarityPair, ...]

    def __post_init__(self):
        seen: set[tuple[str, str]] = set()
        for p in self.pairs:
            if not np.isfinite(p.rating):
                raise EvalError(f"non-finite rating for {p.word1}/{p.word2}")
            key = (min(p.word1, p.word2), max(p.word1, p.word2))
            if key in seen:
                raise EvalError(f"duplicate pair {p.word1}/{p.word2}")
            seen.add(key)


class SparseRowTable:
    """A WeightedMatrix with the word -> row map the scorers use."""

    def __init__(self, weights: WeightedMatrix, vocab: Vocabulary):
        if weights.shape[0] != len(vocab):
            raise EvalError("weighted matrix and vocabulary disagree on word count")
        self.weights = weights
        self.vocab = vocab

    @property
    def word_ids(self) -> dict[str, int]:
        return self.vocab.word_ids

    @property
    def matrix(self):
        return self.weights.matrix


def score_pairs(vectors, pairs: Iterable) -> list[tuple]:
    """Cosine per pair; None marks a pair with an unrepresented word.

    `vectors` is dense embeddings or a SparseRowTable over a weighted matrix:
    anything with a `word_ids` map onto the rows of its `matrix`. A word with
    an all-zero row is represented and scores 0.
    """
    pairs = list(pairs)
    ids = vectors.word_ids
    known = [i for i, p in enumerate(pairs) if p.word1 in ids and p.word2 in ids]
    left = [ids[pairs[i].word1] for i in known]
    right = [ids[pairs[i].word2] for i in known]
    scores = dict(zip(known, pair_cosines(vectors.matrix, left, right).tolist()))
    return [(p, scores.get(i)) for i, p in enumerate(pairs)]


def average_precision(ranked: Sequence[str], relevant: str) -> float:
    """Mean of precision@k over the positions of relevant items.

    `ranked` is the label sequence already ordered by descending score.
    """
    total_relevant = sum(1 for lab in ranked if lab == relevant)
    if total_relevant == 0:
        raise EvalError(f"average precision undefined: no {relevant!r} items present")
    hits = 0
    precision_sum = 0.0
    for k, lab in enumerate(ranked, start=1):
        if lab == relevant:
            hits += 1
            precision_sum += hits / k
    return precision_sum / total_relevant


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties sharing the average of their positions."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    last = np.cumsum(counts)  # 1-based position of each tie group's last member
    return (last - (counts - 1) / 2.0)[inverse]


def auc(scores: Sequence[float], positive: Sequence[bool]) -> float:
    """P(random positive outranks random negative), ties counting half."""
    scores = np.asarray(scores, dtype=np.float64)
    positive = np.asarray(positive, dtype=bool)
    if len(scores) != len(positive):
        raise EvalError("scores and labels differ in length")
    n_pos = int(positive.sum())
    n_neg = len(positive) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise EvalError("AUC needs both a positive and a negative example")
    ranks = _average_ranks(scores)
    u = float(ranks[positive].sum()) - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def spearman(pred: Sequence[float], gold: Sequence[float]) -> float:
    """Pearson correlation of average-tied ranks."""
    pred = np.asarray(pred, dtype=np.float64)
    gold = np.asarray(gold, dtype=np.float64)
    if len(pred) != len(gold):
        raise EvalError("prediction and gold lists differ in length")
    if len(pred) < 2:
        raise EvalError("rank correlation needs at least two pairs")
    rp = _average_ranks(pred)
    rg = _average_ranks(gold)
    dp = rp - rp.mean()
    dg = rg - rg.mean()
    denom = np.sqrt((dp @ dp) * (dg @ dg))
    if denom == 0.0:
        raise EvalError("rank correlation undefined: constant ranking")
    return float((dp @ dg) / denom)


# --- report assembly


@dataclass
class ClassMetrics:
    n_total: int
    n_scored: int
    oov: list[tuple[str, str]] = field(default_factory=list)
    ap_syn: float | None = None
    ap_ant: float | None = None
    auc: float | None = None
    median_syn: float | None = None
    median_ant: float | None = None

    @property
    def coverage(self) -> float:
        return self.n_scored / self.n_total if self.n_total else 0.0


@dataclass
class MetricReport:
    classes: dict[str, ClassMetrics] = field(default_factory=dict)
    spearman: float | None = None

    def to_json_dict(self) -> dict:
        out: dict = {"classes": {}}
        for name, cm in sorted(self.classes.items()):
            entry = {
                "n_total": cm.n_total,
                "n_scored": cm.n_scored,
                "coverage": cm.coverage,
                "oov": [list(p) for p in cm.oov],
            }
            for key in ("ap_syn", "ap_ant", "auc", "median_syn", "median_ant"):
                value = getattr(cm, key)
                if value is not None:
                    entry[key] = value
            out["classes"][name] = entry
        if self.spearman is not None:
            out["spearman"] = self.spearman
        return out


def _per_class(vectors, pair_set: RelationPairSet, fill, omit_unscored: bool = True) -> MetricReport:
    """Score each word class's pairs and build its ClassMetrics, which
    `fill(word_class, metrics, present)` completes from the scored pairs.

    A class with no scored pair is left out when omit_unscored is set.
    """
    report = MetricReport()
    for word_class, pairs in sorted(pair_set.by_class().items()):
        scored = score_pairs(vectors, pairs)
        present = [(p, s) for p, s in scored if s is not None]
        if not present and omit_unscored:
            warnings.warn(f"class {word_class}: no scorable pairs, omitted")
            continue
        cm = ClassMetrics(n_total=len(pairs), n_scored=len(present),
                          oov=[(p.word1, p.word2) for p, s in scored if s is None])
        fill(word_class, cm, present)
        report.classes[word_class] = cm
    return report


def eval_ap(vectors, pair_set: RelationPairSet) -> MetricReport:
    """Average precision per word class, ranking by descending cosine.

    Ties are broken by ascending (word1, word2) so results are
    order-independent. A label absent from a class leaves that AP unset.
    """
    def fill(word_class, cm, present):
        ordered = sorted(present, key=lambda ps: (-ps[1], ps[0].word1, ps[0].word2))
        ranked = [p.label for p, _ in ordered]
        for label, attr in (("SYN", "ap_syn"), ("ANT", "ap_ant")):
            if label in ranked:
                setattr(cm, attr, average_precision(ranked, label))
            else:
                warnings.warn(f"class {word_class}: no {label} pairs, AP_{label} unset")

    return _per_class(vectors, pair_set, fill)


def eval_auc(vectors, pair_set: RelationPairSet) -> MetricReport:
    """Per-class AUC for separating synonym pairs from antonym pairs.

    The single number serves both orientations: it is the probability that a
    synonym pair gets the higher cosine, which equals antonym detection with
    negated scores.
    """
    def fill(word_class, cm, present):
        labels = [p.label for p, _ in present]
        if "SYN" in labels and "ANT" in labels:
            cm.auc = auc([s for _, s in present], [label == "SYN" for label in labels])
        else:
            warnings.warn(f"class {word_class}: single-label class, AUC unset")

    return _per_class(vectors, pair_set, fill)


def median_report(vectors, pair_set: RelationPairSet) -> MetricReport:
    """Median cosine per (word class, label) cell; empty cells stay blank."""
    def fill(word_class, cm, present):
        for label, attr in (("SYN", "median_syn"), ("ANT", "median_ant")):
            values = [s for p, s in present if p.label == label]
            if values:
                setattr(cm, attr, float(np.median(values)))
            else:
                warnings.warn(f"class {word_class}: no scored {label} pairs, median blank")

    return _per_class(vectors, pair_set, fill, omit_unscored=False)


def eval_spearman(vectors, pair_set: SimilarityPairSet) -> tuple[MetricReport, int, int]:
    """Spearman's rho between cosine scores and gold ratings.

    Returns (report, n_scored, n_total); unrepresented pairs are excluded.
    """
    scored = score_pairs(vectors, pair_set.pairs)
    present = [(p, s) for p, s in scored if s is not None]
    if len(present) < 2:
        raise EvalError("need at least two scorable pairs for rank correlation")
    rho = spearman([s for _, s in present], [p.rating for p, _ in present])
    report = MetricReport(spearman=rho)
    return report, len(present), len(scored)


# --- dataset files


def _load_pairs(path, columns: dict, pair, pair_set):
    """`pair_set` of one `pair` per row; the set's own errors get the path."""
    pairs = tuple(map(pair, *tsvio.read_columns(path, columns, EvalError)))
    try:
        return pair_set(pairs)
    except EvalError as exc:
        raise EvalError(f"{path}: {exc}") from None


def load_relation_pairs(path) -> RelationPairSet:
    """Read `word1<TAB>word2<TAB>SYN|ANT<TAB>ADJ|NOUN|VERB` rows."""
    columns = {"word1": str, "word2": str, "label": tsvio.one_of(LABELS), "class": tsvio.one_of(WORD_CLASSES)}
    return _load_pairs(path, columns, RelationPair, RelationPairSet)


def load_similarity_pairs(path) -> SimilarityPairSet:
    """Read `word1<TAB>word2<TAB>rating` rows."""
    return _load_pairs(path, {"word1": str, "word2": str, "rating": float}, SimilarityPair, SimilarityPairSet)
