"""Property tests: the vectorised scorer, contrast transform and tie-averaged
ranks against the loop implementations they replaced; the batched SGNS/dLCE
trainers against the batch rule spelled out pair by pair and, at batch size
1, step by step against the per-pair loop they replaced; sigmoid and contrast
gradients against that loop's versions bit for bit, and the contrast step
against its old form (tests/oracles.py).

Cell values are drawn from a seeded generator, not by hypothesis itself, so
they are continuous: a contrast weight is then exactly 0 only where both of
its terms are empty or equal by structure, and the two implementations must
agree on which cells they store. Hypothesis draws the structure: the shape,
which cells and rows are empty, the lexicon, out-of-vocabulary words and
hand-made feature indexes.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

import oracles
from lexcontrast import embeddings
from lexcontrast.corpus import Vocabulary, build_vocabulary
from lexcontrast.embeddings import (
    TrainingConfig,
    TrainingError,
    _ContrastState,
    _cosine_parts,
    contrast_gradients,
    sigmoid,
    train_dlce,
    train_sgns,
)
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


# --- the trainers against the per-pair SGD loop they replaced

SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e-300, -1e-300, 5e-324, 1e300, -1e300, 800.0, -800.0]


def _same_bits(got, want) -> None:
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want, equal_nan=True)
    number = ~np.isnan(got)
    assert np.array_equal(np.signbit(got[number]), np.signbit(want[number]))  # 0.0 is not -0.0


@st.composite
def training_cases(draw):
    """A skewed toy corpus over a few words, a drawn config and lexicon.

    Few words and up to 15 negatives force negatives that collide with the
    true context and duplicate context rows within one pair.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    words = _words(draw(st.integers(3, 9)))
    probs = np.arange(len(words), 0, -1, dtype=np.float64) ** 2
    lines = [list(rng.choice(words, size=int(rng.integers(1, 9)), p=probs / probs.sum()))
             for _ in range(draw(st.integers(5, 60)))]
    vocab = build_vocabulary(lines, min_count=1)
    cfg = TrainingConfig(
        dim=draw(st.integers(1, 8)),
        negatives=draw(st.integers(1, 15)),
        window=draw(st.integers(1, 3)),
        learning_rate=draw(st.sampled_from([0.025, 0.1, 0.5])),
        epochs=draw(st.integers(1, 3)),
        subsample=draw(st.sampled_from([None, 0.01, 0.1])),
        min_count=1,
        contrast_coefficient=draw(st.sampled_from([0.0, 1.0, 3.0])),
        max_contrast_neighbors=draw(st.sampled_from([None, 1, 2])),
        seed=draw(st.integers(0, 1000)),
        track_objective=draw(st.booleans()),
    )
    pair = st.tuples(st.sampled_from(words), st.sampled_from(words))
    lex = enrich_antonyms(
        ContrastLexicon.from_pairs(draw(st.lists(pair, max_size=10)), draw(st.lists(pair, max_size=6)))
    )
    n = len(vocab)
    if draw(st.booleans()):
        idx = FeatureOccurrenceIndex({f: frozenset(range(n)) for f in range(n)})
    else:
        holders = st.frozensets(st.integers(0, n - 1), max_size=n)
        idx = FeatureOccurrenceIndex(draw(st.dictionaries(st.integers(0, n - 1), holders, max_size=n)))
    return lines, vocab, cfg, lex, idx


def _trained_or_refused(train, oracle):
    """Both models, or None once both runs stop with the same TrainingError."""
    try:
        want = oracle()
    except TrainingError as exc:
        with pytest.raises(TrainingError, match=str(exc).split(":")[0]):
            train()
        return None
    return train(), want


def _assert_close(got, want) -> None:
    """Equal within TOL times the largest finite magnitude in `want` (at least 1).

    Relative to the matrix, not to each entry: summing a row's updates before
    adding them rounds differently from adding them one by one, and where
    large updates nearly cancel, as in the diverging draws with learning
    rate 0.5, that difference is large next to a small entry.
    """
    finite = np.abs(want[np.isfinite(want)])
    np.testing.assert_allclose(got, want, rtol=0, atol=TOL * max(1.0, finite.max(initial=0.0)))


@settings(max_examples=60, deadline=None)
@given(training_cases(), st.sampled_from([1, 2, 7, 250]))
def test_trainers_follow_the_batch_rule(case, batch):
    lines, vocab, cfg, lex, idx = case
    with mock.patch.object(embeddings, "batch_size", lambda noise, negatives: batch):
        for args in ((), (lex, idx)):
            both = _trained_or_refused(
                lambda: (train_dlce if args else train_sgns)(lines, vocab, cfg, *args),
                lambda: oracles.train_batched(lines, vocab, cfg, batch, *args),
            )
            if both is None:
                continue
            got, want = both
            _assert_close(got.W, want.W)
            _assert_close(got.C, want.C)
            assert got.history == want.history


@settings(max_examples=60, deadline=None)
@given(training_cases())
def test_trainers_match_per_pair_loop_at_batch_one(case):
    """At B = 1 every SGNS step is the old per-pair update up to rounding.

    Each step is checked against that update applied to the same W and C,
    because over a whole run the drawn learning rates and contrast weights
    can amplify a last-bit difference without bound. The step differs from
    the per-pair update only in summing a pair's repeated rows before adding
    them and in zeroing, not dropping, colliding negatives.
    """
    lines, vocab, cfg, lex, idx = case
    step = embeddings._sgns_step
    steps = []

    def checked_step(W, C, targets, rows, keep, labels, alphas):
        want_W, want_C = W.copy(), C.copy()
        r = rows[0][np.concatenate(([True], rows[0, 1:] != rows[0, 0]))]
        oracles.sgns_pair_update(want_W, want_C, targets[0], r, labels[: len(r)], alphas[0], True)
        step(W, C, targets, rows, keep, labels, alphas)
        _assert_close(W, want_W)
        _assert_close(C, want_C)
        steps.append(float(alphas[0]))

    with mock.patch.object(embeddings, "batch_size", lambda noise, negatives: 1), \
            mock.patch.object(embeddings, "_sgns_step", checked_step):
        for args in ((), (lex, idx)):
            steps.clear()
            both = _trained_or_refused(lambda: (train_dlce if args else train_sgns)(lines, vocab, cfg, *args),
                                       lambda: oracles.train(lines, vocab, cfg, *args))
            if both is None:
                continue
            got, want = both
            assert len(steps) == sum(h["pairs"] for h in want.history)
            assert steps == [embeddings.learning_rate(cfg.learning_rate, i, len(steps)) for i in range(len(steps))]
            for g, w in zip(got.history, want.history, strict=True):  # objectives differ by rounding
                assert {k: g[k] for k in ("epoch", "pairs", "alpha")} == {k: w[k] for k in ("epoch", "pairs", "alpha")}


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(SPECIAL), st.floats(-50, 50)), max_size=20))
def test_sigmoid_matches_masked_form(values):
    x = np.array(values, dtype=np.float64)
    with np.errstate(all="ignore"):
        _same_bits(sigmoid(x), oracles.sigmoid(x))
        for v in values[:3]:
            got, want = sigmoid(v), oracles.sigmoid(v)
            assert type(got) is float
            _same_bits(got, want)


@st.composite
def contrast_inputs(draw):
    """A small W with zero rows and, sometimes, non-finite entries."""
    n, d = draw(st.integers(2, 7)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    W = rng.standard_normal((n, d))
    W[draw(st.lists(st.integers(0, n - 1), max_size=2))] = 0.0
    for _ in range(draw(st.integers(0, 3))):
        W[draw(st.integers(0, n - 1)), draw(st.integers(0, d - 1))] = draw(st.sampled_from(SPECIAL))
    ids = st.lists(st.integers(0, n - 1), max_size=4)
    return W, draw(st.integers(0, n - 1)), np.array(draw(ids), dtype=np.int64), np.array(draw(ids), dtype=np.int64)


@settings(max_examples=400, deadline=None)
@given(contrast_inputs())
def test_contrast_gradients_match_masked_form(case):
    W, w, syn, ant = case
    with np.errstate(all="ignore"):
        for got, want in zip(contrast_gradients(W, w, syn, ant), oracles.contrast_gradients(W, w, syn, ant)):
            _same_bits(got, want)
        for ids in (syn, ant):
            if len(ids):
                got, want = _cosine_parts(W[w], W[ids]), oracles._cosine_parts(W[w], W[ids])
                for i in range(4):  # cos, inv, |w|, row norms
                    _same_bits(got[i], want[i])


@st.composite
def contrast_steps(draw):
    """A contrast state over a few words, a W with zero rows and hit pairs.

    Drawn lexicons give one-sided and two-sided sets; caps of 1 and 2 give
    sampled sets; zero rows put zero norms on both w and the members.
    """
    n, d = draw(st.integers(3, 9)), draw(st.integers(1, 6))
    words = _words(n)
    vocab = Vocabulary.from_counts({w: n - i for i, w in enumerate(words)})
    pair = st.tuples(st.sampled_from(words), st.sampled_from(words))
    lex = ContrastLexicon.from_pairs(draw(st.lists(pair, max_size=12)), draw(st.lists(pair, max_size=8)))
    holders = st.frozensets(st.integers(0, n - 1), min_size=1, max_size=n)
    idx = FeatureOccurrenceIndex(draw(st.dictionaries(st.integers(0, n - 1), holders, min_size=1, max_size=n)))
    cfg = TrainingConfig(dim=d, min_count=1, seed=draw(st.integers(0, 100)),
                         contrast_coefficient=draw(st.sampled_from([1.0, 3.0])),
                         max_contrast_neighbors=draw(st.sampled_from([None, 1, 2])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    W = rng.standard_normal((n, d))
    W[draw(st.lists(st.integers(0, n - 1), max_size=2))] = 0.0
    hits = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), min_size=1, max_size=8))
    alpha = draw(st.sampled_from([1e-3, 0.05, 0.5]))
    return _ContrastState(lex, vocab, idx, cfg), W, hits, alpha


@settings(max_examples=300, deadline=None)
@given(contrast_steps())
def test_contrast_step_matches_old_form(case):
    state, W, hits, alpha = case
    want = W.copy()
    for w, c in hits:
        state.apply(W, w, c, alpha)
        oracles.apply_contrast(state, want, w, c, alpha)
        _assert_close(W, want)
