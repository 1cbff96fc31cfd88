"""Reference implementations that the vectorised code is checked against.

These are the per-pair and per-cell loops the package used before pair
scoring, the contrast transform and tie-averaged ranking became whole-array
operations. They stay here, unchanged in behaviour, as oracles for the
property tests in test_properties.py.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from lexcontrast.weighting import SCHEME_SA, WeightedMatrix


def cosine(u, v) -> float:
    """Cosine similarity for dense arrays or sparse rows; 0 if a norm is 0."""
    if sparse.issparse(u) or sparse.issparse(v):
        dot = (u @ v.T).todense()[0, 0] if sparse.issparse(v) else float(u @ v)
        nu = np.sqrt(u.multiply(u).sum())
        nv = np.sqrt(v.multiply(v).sum()) if sparse.issparse(v) else np.linalg.norm(v)
    else:
        u = np.asarray(u, dtype=np.float64)
        v = np.asarray(v, dtype=np.float64)
        dot = float(u @ v)
        nu = np.linalg.norm(u)
        nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(dot / (nu * nv))


def row_lookup(vectors, word):
    """The vector of `word` in dense embeddings or a SparseRowTable, or None."""
    wid = vectors.word_ids.get(word)
    if wid is None:
        return None
    if sparse.issparse(vectors.matrix):
        return vectors.matrix.getrow(wid)
    return vectors.matrix[wid]


def score_pairs(vectors, pairs) -> list[tuple]:
    """Cosine per pair, one lookup and one cosine call at a time."""
    scored = []
    for pair in pairs:
        v1 = row_lookup(vectors, pair.word1)
        v2 = row_lookup(vectors, pair.word2)
        if v1 is None or v2 is None:
            scored.append((pair, None))
        else:
            scored.append((pair, cosine(v1, v2)))
    return scored


def average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties sharing the average of their positions."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    sorted_vals = values[order]
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


class RowCosineCache:
    """Memoized cosine between sparse matrix rows, keyed per unordered pair."""

    def __init__(self, matrix: sparse.csr_matrix):
        matrix.sort_indices()
        self._indptr = matrix.indptr
        self._indices = matrix.indices
        self._data = matrix.data
        sq = matrix.multiply(matrix)
        self._norms = np.sqrt(np.asarray(sq.sum(axis=1)).ravel())
        self._cache: dict[tuple[int, int], float] = {}

    def _row_dot(self, a: int, b: int) -> float:
        sa, ea = self._indptr[a], self._indptr[a + 1]
        sb, eb = self._indptr[b], self._indptr[b + 1]
        _, ia, ib = np.intersect1d(
            self._indices[sa:ea], self._indices[sb:eb],
            assume_unique=True, return_indices=True,
        )
        if len(ia) == 0:
            return 0.0
        return float(self._data[sa:ea][ia] @ self._data[sb:eb][ib])

    def __call__(self, a: int, b: int) -> float:
        key = (a, b) if a <= b else (b, a)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        na, nb = self._norms[a], self._norms[b]
        value = 0.0 if na == 0.0 or nb == 0.0 else self._row_dot(a, b) / (na * nb)
        self._cache[key] = value
        return value


def _lexicon_ids(lex, vocab):
    """Resolve lexicon words to vocabulary ids, dropping out-of-vocabulary ones."""
    syn: dict[int, list[int]] = {}
    ant_pairs: dict[int, list[tuple[int, int]]] = {}
    ids = vocab.word_ids
    for word in lex.words():
        wid = ids.get(word)
        if wid is None:
            continue
        syn[wid] = sorted(ids[u] for u in lex.synonyms(word) if u in ids)
        pairs: list[tuple[int, int]] = []
        for opp in sorted(lex.enriched_antonyms(word)):
            oid = ids.get(opp)
            if oid is None:
                continue
            for v in sorted(lex.synonyms(opp)):
                vid = ids.get(v)
                if vid is not None:
                    pairs.append((oid, vid))
        ant_pairs[wid] = pairs
    return syn, ant_pairs


def compute_weight_sa(lmi, idx, lex, vocab, ant_mean="pooled", fallback_lmi=False) -> WeightedMatrix:
    """The contrast transform evaluated cell by cell, with memoized row cosines."""
    n_words, n_features = lmi.shape
    matrix = lmi.matrix
    matrix.sort_indices()
    indptr, indices, data = matrix.indptr, matrix.indices, matrix.data
    row_cos = RowCosineCache(matrix)
    syn_ids, ant_pair_ids = _lexicon_ids(lex, vocab)

    out_rows: list[int] = []
    out_cols: list[int] = []
    out_vals: list[float] = []
    for w in range(n_words):
        start, end = indptr[w], indptr[w + 1]
        if start == end:
            continue
        if w not in syn_ids:  # word carries no lexicon entry at all
            if fallback_lmi:
                out_rows.extend([w] * (end - start))
                out_cols.extend(int(f) for f in indices[start:end])
                out_vals.extend(float(x) for x in data[start:end])
            continue
        synonyms = syn_ids.get(w, [])
        ant_pairs = ant_pair_ids.get(w, [])
        for f in indices[start:end]:
            holders = idx.words_for(int(f))
            syn_cos = [row_cos(w, u) for u in synonyms if u in holders]
            term_syn = sum(syn_cos) / len(syn_cos) if syn_cos else 0.0
            if ant_mean == "pooled":
                ant_cos = [row_cos(a, v) for a, v in ant_pairs if v in holders]
                term_ant = sum(ant_cos) / len(ant_cos) if ant_cos else 0.0
            else:
                per_ant: dict[int, list[float]] = {}
                for a, v in ant_pairs:
                    if v in holders:
                        per_ant.setdefault(a, []).append(row_cos(a, v))
                if per_ant:
                    means = [sum(vals) / len(vals) for vals in per_ant.values()]
                    term_ant = sum(means) / len(means)
                else:
                    term_ant = 0.0
            value = term_syn - term_ant
            if value != 0.0:
                out_rows.append(w)
                out_cols.append(int(f))
                out_vals.append(value)

    result = sparse.coo_matrix(
        (out_vals, (out_rows, out_cols)), shape=(n_words, n_features)
    ).tocsr()
    return WeightedMatrix(SCHEME_SA, result)
