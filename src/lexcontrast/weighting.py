"""Association weighting: LMI scores and their lexical-contrast transform.

The contrast transform rescores each stored (word, feature) cell as the
average cosine between the word and its feature-sharing synonyms minus the
average cosine on the antonym side (each antonym paired with its own
feature-sharing synonyms). Salient same-side features keep high positive
weights, opposite-side features go negative, and features shared by both
sides land near zero.

The transform is whole-matrix sparse algebra over the lexicon rows. With L
the LMI matrix, B = (L > 0) its 0/1 feature-holder matrix
(`build_feature_index`), S and A the 0/1 synonym and enriched-antonym
matrices (`relation_matrix`) and S_cos the row cosines of L on S's pattern,
each stored cell of L takes (S_cos B)/(S B) minus either the pooled antonym
term (A S_cos B)/(A S B) or the per-antonym term (A m)/(A [S B > 0]) with
m = (S_cos B)/(S B). `pair_cosines`, which gives S_cos, also scores
evaluation pairs. The contrast trainer reads its per-pair sets from the same
B and relation matrices.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from . import tsvio
from .corpus import CooccurrenceCounts, Vocabulary
from .lexicon import ContrastLexicon

SCHEME_LMI = "LMI"
SCHEME_SA = "SA"


class WeightingError(ValueError):
    pass


@dataclass(frozen=True)
class WeightedMatrix:
    """Sparse word-by-feature weights under one scheme (LMI or SA)."""

    scheme: str
    matrix: sparse.csr_matrix  # shape (n_words, n_features)

    def __post_init__(self):
        self.matrix.sort_indices()

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape

    def __len__(self) -> int:
        return int(self.matrix.nnz)

    def validate(self) -> None:
        """Check the value invariants of a pure-scheme matrix.

        LMI weights are strictly positive; contrast weights are differences
        of two cosine means and therefore lie in [-1, 1]. A matrix holding
        LMI passthrough rows (the fallback for words without lexicon
        entries) mixes schemes and is not expected to satisfy this check.
        """
        data = self.matrix.data
        if self.scheme == SCHEME_LMI:
            if len(data) and not (data > 0).all():
                raise WeightingError("LMI matrix must store strictly positive weights")
        elif self.scheme == SCHEME_SA:
            if len(data) and not ((data >= -1 - 1e-12) & (data <= 1 + 1e-12)).all():
                raise WeightingError("contrast weights must lie in [-1, 1]")
        else:
            raise WeightingError(f"unknown scheme {self.scheme!r}")


def compute_lmi(counts: CooccurrenceCounts, vocab: Vocabulary | None = None) -> WeightedMatrix:
    """Score each co-occurrence cell with local mutual information.

    LMI(w, f) = #(w,f) * log2(#(w,f) * N / (marg(w) * marg(f))) with N the
    total pair count and marginals taken over the pair table itself.
    Cells with LMI <= 0 are dropped.
    """
    n = counts.n_words
    if vocab is not None:
        vocab.check_rows("the count table", (n, n), WeightingError)
    t = counts.targets
    f = counts.features
    c = counts.counts.astype(np.float64)
    total = c.sum()
    row_marg = np.bincount(t, weights=c, minlength=n)
    col_marg = np.bincount(f, weights=c, minlength=n)
    values = c * np.log2(c * total / (row_marg[t] * col_marg[f]))
    keep = values > 0
    matrix = sparse.coo_matrix((values[keep], (t[keep], f[keep])), shape=(n, n)).tocsr()
    return WeightedMatrix(SCHEME_LMI, matrix)


def pair_cosines(matrix, a, b) -> np.ndarray:
    """Cosine between rows a[i] and b[i] of a dense array or a sparse matrix.

    Only the rows the pairs name are read, and all the pair dot products are
    taken in one call. Each cosine is the raw dot product over the product
    of the two norms, so parallel rows score exactly +-1 when the
    arithmetic allows it; a row of norm 0 scores 0 against any row.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if len(a) == 0:
        return np.zeros(0)
    rows, inverse = np.unique(np.concatenate([a, b]), return_inverse=True)
    left, right = inverse[: len(a)], inverse[len(a) :]
    sub = matrix[rows]
    if sparse.issparse(sub):
        norms = np.sqrt(np.asarray(sub.multiply(sub).sum(axis=1)).ravel())
        dots = np.asarray(sub[left].multiply(sub[right]).sum(axis=1)).ravel()
    else:
        sub = np.asarray(sub, dtype=np.float64)
        norms = np.linalg.norm(sub, axis=1)
        dots = np.einsum("ij,ij->i", sub[left], sub[right])
    return _ratio(dots, norms[left] * norms[right])


def _ratio(num, den: np.ndarray) -> np.ndarray:
    """num / den, with 0 where the denominator is 0."""
    return np.divide(num, den, out=np.zeros(den.shape), where=den > 0)


def _cells(matrix: sparse.csr_matrix) -> tuple[np.ndarray, np.ndarray]:
    """Row and column of every stored cell, in CSR order."""
    return np.repeat(np.arange(matrix.shape[0]), np.diff(matrix.indptr)), matrix.indices


def _values_at(matrix: sparse.csr_matrix, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Entries of a sparse matrix at the given cells, 0 where none is stored."""
    if len(rows) == 0:
        return np.zeros(0)
    return np.asarray(matrix[rows, cols], dtype=np.float64).ravel()


def _with_data(pattern: sparse.csr_matrix, data: np.ndarray) -> sparse.csr_matrix:
    """A matrix with the stored cells of `pattern`, holding `data`."""
    return sparse.csr_matrix((data, pattern.indices.copy(), pattern.indptr.copy()), shape=pattern.shape)


def build_feature_index(lmi: WeightedMatrix) -> sparse.csr_matrix:
    """The 0/1 feature-holder matrix B = (L > 0) of an LMI matrix L: row w
    marks the features w holds, column f the words that hold feature f."""
    if lmi.scheme != SCHEME_LMI:
        raise WeightingError(f"feature index expects an LMI matrix, got {lmi.scheme}")
    return (lmi.matrix > 0).astype(np.float64)


def relation_matrix(lex: ContrastLexicon, relation: str, vocab: Vocabulary) -> sparse.csr_matrix:
    """0/1 vocab-by-vocab matrix R of the lexicon relation "syn", "ant" or "ant_enriched":
    R[i, j] = 1 when word j is related to word i; words outside the vocabulary drop out."""
    ids = vocab.word_ids
    cells = [(ids[w], ids[u]) for w, related in getattr(lex, relation).items() if w in ids
             for u in related if u in ids]
    rows, cols = np.array(cells, dtype=np.int64).reshape(-1, 2).T
    return sparse.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(len(vocab), len(vocab)))


def compute_weight_sa(
    lmi: WeightedMatrix,
    idx: sparse.csr_matrix,
    lex: ContrastLexicon,
    vocab: Vocabulary,
    ant_mean: str = "pooled",
    fallback_lmi: bool = False,
) -> WeightedMatrix:
    """Transform LMI weights into lexical-contrast weights.

    For each stored cell (w, f): the synonym term averages cosine(w, u) over
    synonyms u of w that hold feature f in `idx`, the holder matrix of
    `build_feature_index` (of L's shape); the antonym term averages
    cosine(w', v) over enriched antonyms w' of w paired with their own
    feature-holding synonyms v. The cell weight is synonym term minus antonym
    term; an empty side contributes 0, and weights equal to 0 are not
    stored. Words with no lexicon entries yield no row (or keep their LMI row
    when fallback_lmi is set). All cosines are taken between original LMI
    rows, so the transform is order-independent.

    ant_mean selects the antonym-term normalizer: "pooled" divides the double
    sum by the total pair count; "per-antonym" averages per-antonym means over
    the antonyms that contribute at least one pair.
    """
    if lmi.scheme != SCHEME_LMI:
        raise WeightingError(f"contrast transform expects an LMI matrix, got {lmi.scheme}")
    if ant_mean not in ("pooled", "per-antonym"):
        raise WeightingError(f"ant_mean must be 'pooled' or 'per-antonym', got {ant_mean!r}")
    if lex.ant and not lex.ant_enriched:
        raise WeightingError("lexicon has antonyms but no enriched sets; run enrich_antonyms first")
    vocab.check_rows("the LMI matrix", lmi.shape, WeightingError)
    if idx.shape != lmi.shape:
        raise WeightingError(f"feature index has shape {idx.shape}, the LMI matrix {lmi.shape}")

    matrix = lmi.matrix
    ids = vocab.word_ids
    rows = np.array(sorted(ids[w] for w in lex.words() if w in ids), dtype=np.int64)
    syn = relation_matrix(lex, "syn", vocab)[rows]
    ant = relation_matrix(lex, "ant_enriched", vocab)[rows][:, rows]
    s_rows, s_cols = _cells(syn)
    syn_cos = _with_data(syn, pair_cosines(matrix, rows[s_rows], s_cols))
    syn_num, syn_den = syn_cos @ idx, syn @ idx

    cell_rows, cell_cols = _cells(matrix[rows])
    term_syn = _ratio(_values_at(syn_num, cell_rows, cell_cols), _values_at(syn_den, cell_rows, cell_cols))
    if ant_mean == "pooled":
        ant_num, ant_den = ant @ syn_num, ant @ syn_den
    else:
        means = _ratio(_values_at(syn_num, *_cells(syn_den)), syn_den.data)
        ant_num = ant @ _with_data(syn_den, means)
        ant_den = ant @ _with_data(syn_den, np.ones(syn_den.nnz))
    term_ant = _ratio(_values_at(ant_num, cell_rows, cell_cols), _values_at(ant_den, cell_rows, cell_cols))

    values = term_syn - term_ant
    keep = values != 0.0
    result = sparse.coo_matrix(
        (values[keep], (rows[cell_rows[keep]], cell_cols[keep])), shape=matrix.shape
    ).tocsr()
    if fallback_lmi:
        uncovered = np.ones(matrix.shape[0])
        uncovered[rows] = 0.0
        result = result + sparse.diags(uncovered) @ matrix
    return WeightedMatrix(SCHEME_SA, result)


def write_weighted(path, wm: WeightedMatrix, meta: dict[str, str] | None = None) -> None:
    header = {"scheme": wm.scheme, "n_words": wm.shape[0], "n_features": wm.shape[1]}
    tsvio.write_table(path, header, meta, *_cells(wm.matrix), map(repr, wm.matrix.data.tolist()))


def read_weighted(path) -> WeightedMatrix:
    header = {"scheme": tsvio.one_of((SCHEME_LMI, SCHEME_SA))}
    value = {"weight": tsvio.bounded(float, -sys.float_info.max, sys.float_info.max, "weight is NaN or infinite")}
    *shape, scheme, rows, cols, vals = tsvio.read_table(path, ("n_words", "n_features"), header, value, WeightingError)
    wm = WeightedMatrix(scheme, sparse.csr_matrix((vals, (rows, cols)), shape=tuple(shape)))
    if scheme == SCHEME_LMI:
        try:
            wm.validate()
        except WeightingError as exc:
            raise WeightingError(f"{path}: {exc}") from None
    return wm
