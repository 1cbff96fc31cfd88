"""Property tests: the vectorised scorer, contrast transform and tie-averaged
ranks against the loop implementations they replaced; the trainer's contrast
sets against the per-key frozenset form; the batched SGNS/dLCE trainers
against the batch rule spelled out pair by pair and, at batch size 1, step by
step against the per-pair loop they replaced; sigmoid and contrast gradients
against that loop's versions bit for bit, the contrast step against its old
form, the contrast waves against the same hits applied one at a time,
co-occurrence counting against its chunked form, subsampling against one
draw call per line, and the LU-normalized randomized SVD against the
QR-normalized one (tests/oracles.py).

Cell values are drawn from a seeded generator, not by hypothesis itself, so
they are continuous: a contrast weight is then exactly 0 only where both of
its terms are empty or equal by structure, and the two implementations must
agree on which cells they store. Hypothesis draws the structure: the shape,
which cells and rows are empty, the lexicon, out-of-vocabulary words and
hand-made feature-holder matrices.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

import oracles
from lexcontrast import embeddings, reduction
from lexcontrast.corpus import Vocabulary, build_vocabulary, count_cooccurrences, subsample_ids
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
def holder_matrices(draw, n, m):
    """A hand-made 0/1 word-by-feature holder matrix with some empty columns."""
    held = np.array(draw(st.lists(st.booleans(), min_size=n * m, max_size=n * m))).reshape(n, m)
    held[:, draw(st.lists(st.integers(0, m - 1), max_size=2))] = False
    return sparse.csr_matrix(held.astype(np.float64))


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
    idx = build_feature_index(wm) if draw(st.booleans()) else draw(holder_matrices(n, m))
    return wm, idx, lex, vocab


@settings(max_examples=300, deadline=None)
@given(contrast_cases(), st.sampled_from(["pooled", "per-antonym"]), st.booleans())
def test_weight_sa_matches_per_cell_oracle(case, ant_mean, fallback_lmi):
    wm, idx, lex, vocab = case
    got = compute_weight_sa(wm, idx, lex, vocab, ant_mean=ant_mean, fallback_lmi=fallback_lmi)
    want = oracles.compute_weight_sa(wm, oracles.feature_index(idx), lex, vocab,
                                     ant_mean=ant_mean, fallback_lmi=fallback_lmi)
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
    idx = sparse.csr_matrix(np.ones((n, n))) if draw(st.booleans()) else draw(holder_matrices(n, n))
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


@settings(max_examples=40, deadline=None)
@given(training_cases(), st.sampled_from([1, 2, 7, 250]), st.integers(1, 30))
def test_dlce_does_not_depend_on_the_plan_span(case, batch, plan_pairs):
    """Planning the contrast waves a few pairs at a time gives the same bits."""
    lines, vocab, cfg, lex, idx = case
    runs = []
    with mock.patch.object(embeddings, "batch_size", lambda noise, negatives: batch):
        for pairs in (plan_pairs, embeddings.PLAN_PAIRS):
            with mock.patch.object(embeddings, "PLAN_PAIRS", pairs):
                try:
                    runs.append(train_dlce(lines, vocab, cfg, lex, idx))
                except TrainingError as exc:
                    runs.append(str(exc))
    got, want = runs
    if isinstance(want, str):
        assert got == want
    else:
        _same_bits(got.W, want.W)
        _same_bits(got.C, want.C)


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
    idx = draw(holder_matrices(n, n))
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


@st.composite
def wave_cases(draw):
    """A contrast state, a W with zero rows, a pair stream and a batch size.

    The lexicon is drawn as raw per-word sets, so a word can be among its own
    synonyms or antonyms and on both sides of another word; caps of 1 and 2
    give sampled sets. The learning rates are distinct, as in the trainer.
    """
    n, d = draw(st.integers(3, 9)), draw(st.integers(1, 6))
    words = _words(n)
    vocab = Vocabulary.from_counts({w: n - i for i, w in enumerate(words)})
    related = st.dictionaries(st.sampled_from(words), st.frozensets(st.sampled_from(words), min_size=1, max_size=4),
                              max_size=n)
    lex = ContrastLexicon(syn=draw(related), ant=draw(related))
    idx = sparse.csr_matrix(np.ones((n, n))) if draw(st.booleans()) else draw(holder_matrices(n, n))
    cfg = TrainingConfig(dim=d, min_count=1, seed=draw(st.integers(0, 100)),
                         contrast_coefficient=draw(st.sampled_from([1.0, 3.0])),
                         max_contrast_neighbors=draw(st.sampled_from([None, 1, 2])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    W = rng.standard_normal((n, d))
    W[draw(st.lists(st.integers(0, n - 1), max_size=2))] = 0.0
    stream = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), min_size=1, max_size=40))
    targets, contexts = np.array(stream, dtype=np.int32).T
    alphas = draw(st.sampled_from([1e-3, 0.05, 0.5])) * (1.0 - np.arange(len(stream)) / len(stream))
    return _ContrastState(lex, vocab, idx, cfg), W, targets, contexts, alphas, draw(st.sampled_from([1, 2, 7, 250]))


@settings(max_examples=300, deadline=None)
@given(wave_cases())
def test_contrast_waves_equal_hits_in_stream_order(case):
    state, W, targets, contexts, alphas, batch = case
    hits = state.hits(targets, contexts).tolist()
    plan, starts = state.waves(targets, contexts, alphas, batch)

    def rows(i):
        return {int(targets[i])} | {int(r) for side in state.pair_sets(targets[i], contexts[i]) for r in side}

    hit_of_step = {alphas[i] * state.beta: i for i in hits}  # the steps tell the hits apart
    wave_of = {}
    for v, (h0, h1, r0, *_) in enumerate(plan.bounds):
        wave = [hit_of_step[step] for step in plan.steps[h0 + r0:h1 + r0, 0].tolist()]
        assert wave == sorted(wave) and plan.scatter[h0 + r0:h1 + r0].tolist() == targets[wave].tolist()
        assert len(set().union(*map(rows, wave))) == sum(len(rows(i)) for i in wave)  # row-disjoint
        for i in wave:
            assert i not in wave_of and starts[i // batch] <= v < starts[i // batch + 1]
            wave_of[i] = v
    assert sorted(wave_of) == hits
    for j, later in enumerate(hits):
        for earlier in hits[:j]:
            if earlier // batch == later // batch and rows(earlier) & rows(later):
                assert wave_of[earlier] < wave_of[later]
    want = W.copy()  # the old per-hit step, which scatters each side on its own
    for i in hits:
        oracles.apply_contrast(state, want, targets[i], contexts[i], alphas[i])
    for v in range(len(plan.bounds)):
        embeddings._apply_wave(W, plan, v)
    _same_bits(W, want)


@st.composite
def contrast_set_cases(draw):
    """A lexicon over a few words, a holder matrix, a cap and a pair stream.

    Drawn lexicons give words with synonyms only, antonyms only, both and
    neither; an out-of-vocabulary word takes part; caps of 1 and 2 sample.
    """
    n = draw(st.integers(2, 9))
    words = _words(n)
    vocab = Vocabulary.from_counts({w: n - i for i, w in enumerate(words)})
    pair = st.tuples(st.sampled_from(words + ["oov0"]), st.sampled_from(words + ["oov0"]))
    lex = ContrastLexicon.from_pairs(draw(st.lists(pair, max_size=12)), draw(st.lists(pair, max_size=8)))
    cfg = TrainingConfig(dim=2, min_count=1, seed=draw(st.integers(0, 100)),
                         max_contrast_neighbors=draw(st.sampled_from([None, 1, 2])))
    stream = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=30))
    targets, contexts = np.array(stream, dtype=np.int32).reshape(-1, 2).T
    return lex, vocab, draw(holder_matrices(n, n)), cfg, targets, contexts


@settings(max_examples=300, deadline=None)
@given(contrast_set_cases())
def test_contrast_sets_match_per_key_oracle(case):
    lex, vocab, holders, cfg, targets, contexts = case
    got = _ContrastState(lex, vocab, holders, cfg)
    want = oracles.ContrastState(lex, vocab, oracles.feature_index(holders), cfg)
    _same_bits(got.in_lexicon, want.in_lexicon)
    _same_bits(got.hits(targets, contexts), want.hits(targets, contexts))
    for w in range(len(vocab)):
        for c in range(len(vocab)):
            sets, old = got.pair_sets(w, c), want.pair_sets(w, c)
            assert (sets is None) == (old is None)
            for side, old_side in zip(sets or (), old or ()):
                _same_bits(side, old_side)


# --- co-occurrence counting against its chunked form


@st.composite
def corpora(draw):
    """Token lines over a few words, with empty lines and out-of-vocabulary tokens."""
    words = _words(draw(st.integers(0, 8)))
    token = st.sampled_from(words + ["oov0", "oov1"])
    lines = draw(st.lists(st.lists(token, max_size=12), max_size=15))
    return lines, Vocabulary.from_counts({w: len(words) - i for i, w in enumerate(words)})


@settings(max_examples=300, deadline=None)
@given(corpora(), st.integers(1, 6), st.booleans(), st.integers(0, 1000))
def test_cooccurrence_counts_match_chunked_oracle(case, window, dynamic_window, seed):
    lines, vocab = case
    got = count_cooccurrences(lines, vocab, window, dynamic_window=dynamic_window, seed=seed)
    want = oracles.count_cooccurrences(lines, vocab, window, dynamic_window=dynamic_window, seed=seed)
    assert (got.n_words, got.window) == (want.n_words, want.window)
    for field in ("targets", "features", "counts"):
        _same_bits(getattr(got, field), getattr(want, field))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.integers(0, n - 1), max_size=12), max_size=15),
    st.lists(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0, 1)), min_size=n, max_size=n))),
    st.integers(0, 2**32 - 1))
def test_subsampling_matches_per_line_oracle(case, seed):
    lines, discard = case
    id_lines = [np.array(line, dtype=np.int64) for line in lines]
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = subsample_ids(id_lines, np.array(discard), got_rng)
    want = oracles.subsample_ids(id_lines, np.array(discard), want_rng)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        _same_bits(g, w)
    _same_bits(got_rng.random(3), want_rng.random(3))  # both consumed the same draws


# --- the randomized SVD against the QR-normalized subspace iteration


@st.composite
def svd_cases(draw):
    """A wide or tall matrix, dense or sparse, with a rank to cut it at.

    Rank-deficient matrices are exactly so: every row is a power-of-two
    multiple of one of r < 4 continuous rows, so their rank sits below the
    sketch width and their nonzero singular values are distinct.
    """
    n, m = draw(st.integers(1, 50)), draw(st.integers(1, 50))
    kind = draw(st.sampled_from(["full", "rank-deficient", "zero"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "full":
        dense = rng.standard_normal((n, m)) * (rng.random((n, m)) < draw(st.sampled_from([0.2, 1.0])))
    elif kind == "rank-deficient":
        basis = rng.standard_normal((draw(st.integers(1, 3)), m))
        scale = 2.0 ** rng.integers(-2, 3, n) * rng.choice([-1.0, 1.0], n)
        dense = scale[:, None] * basis[rng.integers(0, len(basis), n)]
    else:
        dense = np.zeros((n, m))
    dense[draw(st.lists(st.integers(0, n - 1), max_size=3))] = 0.0
    matrix = sparse.csr_matrix(dense) if draw(st.booleans()) else dense
    return dense, matrix, kind, draw(st.integers(1, min(n, m) + 2)), draw(st.integers(0, 1000))


@settings(max_examples=300, deadline=None)
@given(svd_cases())
def test_randomized_svd_matches_qr_oracle(case):
    dense, matrix, kind, dim, seed = case
    got = reduction.truncated_svd(matrix, dim, mode="randomized", seed=seed)
    with mock.patch.object(reduction, "_randomized_svd", oracles.randomized_svd):
        want = reduction.truncated_svd(matrix, dim, mode="randomized", seed=seed)
    scale = max(1.0, want.singular_values[0])
    np.testing.assert_allclose(got.singular_values, want.singular_values, rtol=0, atol=1e-10 * scale)
    np.testing.assert_allclose(got.reconstruction(), want.reconstruction(),
                               rtol=0, atol=1e-9 * np.linalg.norm(dense))
    if kind != "full":
        assert got.effective_rank == want.effective_rank
