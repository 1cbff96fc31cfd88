"""Property tests: the vectorised scorer, contrast transform and tie-averaged
ranks against the loop implementations they replaced (tests/oracles.py).

Cell values are drawn from a seeded generator, not by hypothesis itself, so
they are continuous: a contrast weight is then exactly 0 only where both of
its terms are empty or equal by structure, and the two implementations must
agree on which cells they store. Hypothesis draws the structure: the shape,
which cells and rows are empty, the lexicon, out-of-vocabulary words and
hand-made feature indexes.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

import oracles
from lexcontrast.corpus import Vocabulary
from lexcontrast.evaluation import RelationPair, SparseRowTable, _average_ranks, score_pairs
from lexcontrast.lexicon import ContrastLexicon, enrich_antonyms
from lexcontrast.vectors import DenseEmbeddings
from lexcontrast.weighting import (
    SCHEME_LMI,
    FeatureOccurrenceIndex,
    WeightedMatrix,
    build_feature_index,
    compute_weight_sa,
)

TOL = 1e-12


@st.composite
def lmi_matrices(draw, max_words=9, max_features=8):
    """A positive sparse matrix with empty cells and some all-zero rows."""
    n = draw(st.integers(2, max_words))
    m = draw(st.integers(1, max_features))
    held = np.array(draw(st.lists(st.booleans(), min_size=n * m, max_size=n * m))).reshape(n, m)
    zero_rows = draw(st.lists(st.integers(0, n - 1), max_size=2))
    held[zero_rows] = False
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return (rng.random((n, m)) + 0.05) * held


def _words(n):
    return [f"w{i}" for i in range(n)]


@st.composite
def contrast_cases(draw):
    dense = draw(lmi_matrices())
    n, m = dense.shape
    words = _words(n)
    vocab = Vocabulary.from_counts({w: n - i for i, w in enumerate(words)})
    # two out-of-vocabulary words take part in the lexicon
    pool = words + ["oov0", "oov1"]
    pair = st.tuples(st.sampled_from(pool), st.sampled_from(pool))
    lex = enrich_antonyms(
        ContrastLexicon.from_pairs(draw(st.lists(pair, max_size=12)), draw(st.lists(pair, max_size=8)))
    )
    wm = WeightedMatrix(SCHEME_LMI, sparse.csr_matrix(dense))
    if draw(st.booleans()):
        idx = build_feature_index(wm)
    else:
        # hand-made: any word may hold any feature, ids past the matrix included
        holders = st.frozensets(st.integers(0, n + 1), max_size=n)
        idx = FeatureOccurrenceIndex(draw(st.dictionaries(st.integers(0, m + 1), holders, max_size=m + 2)))
    return wm, idx, lex, vocab


@settings(max_examples=300, deadline=None)
@given(contrast_cases(), st.sampled_from(["pooled", "per-antonym"]), st.booleans())
def test_weight_sa_matches_per_cell_oracle(case, ant_mean, fallback_lmi):
    wm, idx, lex, vocab = case
    got = compute_weight_sa(wm, idx, lex, vocab, ant_mean=ant_mean, fallback_lmi=fallback_lmi)
    want = oracles.compute_weight_sa(wm, idx, lex, vocab, ant_mean=ant_mean, fallback_lmi=fallback_lmi)
    assert got.scheme == want.scheme
    assert got.matrix.nnz == want.matrix.nnz
    np.testing.assert_allclose(got.matrix.toarray(), want.matrix.toarray(), rtol=0, atol=TOL)


@st.composite
def scoring_cases(draw):
    dense = draw(lmi_matrices(max_words=8, max_features=6))
    words = _words(dense.shape[0])
    pair = st.tuples(st.sampled_from(words + ["oov"]), st.sampled_from(words + ["oov"]))
    pairs = [RelationPair(a, b, "SYN", "ADJ") for a, b in draw(st.lists(pair, max_size=20))]
    return dense, words, pairs


@settings(max_examples=200, deadline=None)
@given(scoring_cases())
def test_score_pairs_matches_per_pair_oracle(case):
    dense, words, pairs = case
    vocab = Vocabulary.from_counts({w: len(words) - i for i, w in enumerate(words)})
    table = SparseRowTable(WeightedMatrix(SCHEME_LMI, sparse.csr_matrix(dense)), vocab)
    for vectors in (table, DenseEmbeddings(words, dense)):
        got = score_pairs(vectors, pairs)
        want = oracles.score_pairs(vectors, pairs)
        assert [p for p, _ in got] == pairs
        for (pair, g), (_, w) in zip(got, want):
            if "oov" in (pair.word1, pair.word2):
                assert g is None and w is None
            else:
                assert abs(g - w) <= TOL
                if not (dense[words.index(pair.word1)].any() and dense[words.index(pair.word2)].any()):
                    assert g == 0.0  # an in-vocabulary empty row scores 0, not None


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([-1.0, -0.0, 0.0, 0.25, 0.5, 3.0]), max_size=40))
def test_average_ranks_match_loop_oracle(values):
    values = np.array(values)
    np.testing.assert_array_equal(_average_ranks(values), oracles.average_ranks(values))
