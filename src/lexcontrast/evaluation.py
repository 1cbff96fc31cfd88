"""Ranking and correlation metrics over scored word pairs.

Average precision and AUC grade how well cosine scores separate synonym
pairs from antonym pairs, and the median report summarizes the scores per
relation label: all three are read off one ranking of each word class's pairs
(`rank_classes`). Spearman's rho grades agreement with graded similarity
ratings. Pairs with an unrepresented word are excluded from every metric but
counted against coverage. An undefined metric is left blank with a warning.
Each pair list is scored in one vectorised call, dense or sparse rows alike.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property
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

    @cached_property
    def by_class(self) -> dict[str, tuple[list[RelationPair], np.ndarray]]:
        """Each word class's pairs in input order, classes in name order, with
        each pair's place in (word1, word2) order: the ranking's tie rule."""
        grouped: dict[str, list[RelationPair]] = {}
        for p in self.pairs:
            grouped.setdefault(p.word_class, []).append(p)
        return {word_class: (pairs, np.argsort(sorted(range(len(pairs)), key=lambda i: pairs[i][:2])))
                for word_class, pairs in sorted(grouped.items())}


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
        vocab.check_rows(f"the {weights.scheme} matrix", weights.shape, EvalError)
        self.weights, self.vocab = weights, vocab
        self.word_ids, self.matrix = vocab.word_ids, weights.matrix


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

    `ranked` is the label sequence already ordered by descending score; the
    precisions are summed one after another, in rank order.
    """
    positions = np.flatnonzero(np.asarray(ranked, dtype=str) == relevant) + 1
    if not len(positions):
        raise EvalError(f"average precision undefined: no {relevant!r} items present")
    return float(np.cumsum(np.arange(1, len(positions) + 1) / positions)[-1]) / len(positions)


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
        """The classes in name order, each without its unset fields, and rho if set."""
        out: dict = {"classes": {}}
        for name, cm in sorted(self.classes.items()):
            entry = {key: value for key, value in vars(cm).items() if value is not None}
            out["classes"][name] = {**entry, "coverage": cm.coverage, "oov": [list(p) for p in cm.oov]}
        if self.spearman is not None:
            out["spearman"] = self.spearman
        return out


def rank_classes(vectors, pair_set: RelationPairSet) -> MetricReport:
    """Every per-class field, read off one ranking of each class's scored pairs.

    A class's pairs are scored once and ranked by descending cosine, ties broken
    by ascending (word1, word2), so the order of the pairs does not matter. AP
    reads the labels in rank order, AUC gives tied cosines their average rank,
    and a metric that a class cannot define (a label with no scored pair) is None.
    """
    report = MetricReport()
    for word_class, (pairs, tie) in pair_set.by_class.items():
        scored = score_pairs(vectors, pairs)
        cos = np.array([np.nan if s is None else s for _, s in scored])  # NaN: an unrepresented word
        known = np.flatnonzero(cos == cos)
        order = known[np.lexsort((tie[known], -cos[known]))]
        labels = np.array([p.label for p in pairs])[order]
        scores, syn = cos[order], labels == "SYN"
        has_syn, has_ant = syn.any(), not syn.all()
        report.classes[word_class] = ClassMetrics(
            n_total=len(pairs), n_scored=len(order), oov=[(p.word1, p.word2) for p, s in scored if s is None],
            ap_syn=average_precision(labels, "SYN") if has_syn else None,
            ap_ant=average_precision(labels, "ANT") if has_ant else None,
            auc=auc(scores, syn) if has_syn and has_ant else None,
            median_syn=float(np.median(scores[syn])) if has_syn else None,
            median_ant=float(np.median(scores[~syn])) if has_ant else None,
        )
    return report


class View(NamedTuple):
    """One per-class report read off `rank_classes`."""

    fields: tuple[str, ...]
    blank: str  # the warning for a field left blank; {0} is the field's label
    notes: dict[str, str] = {}  # header lines of the report

    def of(self, ranked: MetricReport) -> MetricReport:
        """Every class with only the report's fields; one warning per blank field, or per unscored class."""
        report = MetricReport()
        for word_class, cm in ranked.classes.items():
            kept = {name: getattr(cm, name) for name in self.fields}
            blank = [self.blank.format(name[-3:].upper()) for name, value in kept.items() if value is None]
            for why in blank if cm.n_scored else ["no scorable pairs, fields blank"]:
                warnings.warn(f"class {word_class}: {why}")
            report.classes[word_class] = ClassMetrics(cm.n_total, cm.n_scored, cm.oov, **kept)
        return report


AP = View(("ap_syn", "ap_ant"), "no {0} pairs, AP_{0} unset")
AUC = View(("auc",), "single-label class, AUC unset",
           notes={"positives": "SYN by descending cosine; equals ANT detection on negated scores"})
MEDIANS = View(("median_syn", "median_ant"), "no scored {0} pairs, median blank")


def eval_ap(vectors, pair_set: RelationPairSet) -> MetricReport:
    """Average precision of SYN and of ANT per word class."""
    return AP.of(rank_classes(vectors, pair_set))


def eval_auc(vectors, pair_set: RelationPairSet) -> MetricReport:
    """Per-class AUC: the probability that a synonym pair gets the higher
    cosine, which equals antonym detection with negated scores."""
    return AUC.of(rank_classes(vectors, pair_set))


def median_report(vectors, pair_set: RelationPairSet) -> MetricReport:
    """Median cosine per (word class, label) cell; empty cells stay blank."""
    return MEDIANS.of(rank_classes(vectors, pair_set))


def eval_spearman(vectors, pair_set: SimilarityPairSet) -> tuple[MetricReport, int, int]:
    """Spearman's rho between cosine scores and gold ratings.

    Returns (report, n_scored, n_total); unrepresented pairs are excluded. Rho
    is None where `spearman` cannot define it, with its reason as the warning.
    """
    scored = score_pairs(vectors, pair_set.pairs)
    present = [(p, s) for p, s in scored if s is not None]
    try:
        rho = spearman([s for _, s in present], [p.rating for p, _ in present])
    except EvalError as exc:
        warnings.warn(f"{exc}, rho unset")
        rho = None
    return MetricReport(spearman=rho), len(present), len(scored)


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
