"""Property tests: the vectorised scorer, contrast transform and tie-averaged
ranks against the loop implementations they replaced, and the scorer's bits
under power-of-two row scaling; the trainer's contrast sets against the
per-key frozenset form; the batched SGNS/dLCE trainers
against the batch rule spelled out pair by pair and, at batch size 1, step by
step against the per-pair loop they replaced, and bit for bit against the
per-batch sorting scatter and searchsorted noise draws; the trainers'
refusals against the pre-check that found a pair without a pair stream; the
planned scatter against that sort per batch; sigmoid and contrast gradients
against that loop's versions bit for bit, and the contrast gradients within
rounding of their BLAS form; the contrast step against its old form, the
contrast waves against the same hits applied one at a time,
co-occurrence counting against its chunked form and against the trainer's
pair stream, subsampling against one draw call per line, a corpus file's
encoding against the Counter vocabulary and per-line id arrays of its token
lists, and its lowercasing by line against lowercasing by token, the SVD of
the nonzero block against the whole-matrix SVD it replaced, in every sparse
input layout, and the LU-normalized randomized SVD against the QR-normalized
one (tests/oracles.py).

Cell values are drawn from a seeded generator, not by hypothesis itself, so
they are continuous: a contrast weight is then exactly 0 only where both of
its terms are empty or equal by structure, and the two implementations must
agree on which cells they store. Hypothesis draws the structure: the shape,
which cells and rows are empty, the lexicon, out-of-vocabulary words and
hand-made feature-holder matrices.
"""

import tempfile
from contextlib import ExitStack
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

import oracles
from lexcontrast import embeddings, reduction
from lexcontrast.corpus import (
    Vocabulary,
    build_vocabulary,
    count_cooccurrences,
    encode_lines,
    read_corpus,
    subsample_ids,
)
from lexcontrast.embeddings import (
    TrainingConfig,
    TrainingError,
    _ContrastState,
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
        assert len(got) == len(pairs)
        for pair, g, (_, w) in zip(pairs, got, want):
            if "oov" in (pair.word1, pair.word2):
                assert np.isnan(g) and w is None
            else:
                assert abs(g - w) <= TOL
                if not (dense[words.index(pair.word1)].any() and dense[words.index(pair.word2)].any()):
                    assert g == 0.0  # an in-vocabulary empty row scores 0, not NaN


@settings(max_examples=200, deadline=None)
@given(scoring_cases(), st.data())
def test_scores_keep_their_bits_when_rows_scale_by_powers_of_two(case, data):
    # values near 2**1020 square to inf and values near 2**-1000 square to 0; each row's
    # scaling to its own largest value makes both score as the unscaled rows do
    dense, words, pairs = case
    exponents = data.draw(st.lists(st.integers(-1000, 1020), min_size=len(words), max_size=len(words)))
    scaled = np.ldexp(dense, np.array(exponents)[:, None])
    vocab = Vocabulary.from_counts({w: len(words) - i for i, w in enumerate(words)})
    for make in (lambda m: SparseRowTable(WeightedMatrix(SCHEME_LMI, sparse.csr_matrix(m)), vocab),
                 lambda m: DenseEmbeddings(words, m)):
        want, got = score_pairs(make(dense), pairs), score_pairs(make(scaled), pairs)
        assert np.array_equal(np.isnan(got), ["oov" in pair[:2] for pair in pairs])
        np.testing.assert_array_equal(got, want)


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
    """Drawing the negatives and planning the contrast waves a few pairs at a
    time gives the same bits, in both trainers."""
    lines, vocab, cfg, lex, idx = case
    with mock.patch.object(embeddings, "batch_size", lambda noise, negatives: batch):
        for args in ((), (lex, idx)):
            runs = []
            for pairs in (plan_pairs, embeddings.PLAN_PAIRS):
                with mock.patch.object(embeddings, "PLAN_PAIRS", pairs):
                    try:
                        runs.append((train_dlce if args else train_sgns)(lines, vocab, cfg, *args))
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

    def checked_step(W, C, targets, rows, keep, labels, alphas, groups, work):
        want_W, want_C = W.copy(), C.copy()
        r = rows[0][np.concatenate(([True], rows[0, 1:] != rows[0, 0]))]
        oracles.sgns_pair_update(want_W, want_C, targets[0], r, labels[: len(r)], alphas[0], True)
        step(W, C, targets, rows, keep, labels, alphas, groups, work)
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


@st.composite
def scatter_cases(draw):
    """One block's scatter rows, a batch size and the id bound n.

    Ids come from a small pool, so rows repeat within a batch; a one-id pool
    makes every row equal. With n = 70,000 the pool reaches past 65,535, the
    radix sort's second digit, also with ids equal in their low 16 bits.
    Batches of one entry and a short last batch are drawn too.
    """
    n = draw(st.sampled_from([1, 2, 9, 300, 70_000]))
    edge = [i for i in (0, 1, 5, 65_535, 65_536, 65_541, n - 1) if i < n]
    pool = draw(st.lists(st.one_of(st.integers(0, n - 1), st.sampled_from(edge)), min_size=1, max_size=8))
    seed = draw(st.integers(0, 2**32 - 1))
    rows = np.array(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=80)), dtype=np.int32)
    return rows, draw(st.sampled_from([1, 2, 3, 7, 16, 100])), n, np.random.default_rng(seed)


@settings(max_examples=300, deadline=None)
@given(scatter_cases(), st.integers(1, 5))
def test_planned_scatter_equals_the_sorting_scatter_bit_for_bit(case, d):
    """Each batch's sums through its planned groups are the bits of the sort
    and CSR matrix that the step built before."""
    rows, per_batch, n, rng = case
    plans = embeddings._plan_scatter(rows, per_batch, n)
    assert len(plans) == -(-len(rows) // per_batch)
    got = rng.standard_normal((n, d))
    want = got.copy()
    work = np.full((2, per_batch, d), np.nan)  # shared by the batches, as in a run; holds no zeros to start
    for b, groups in enumerate(plans):
        batch_rows = rows[b * per_batch:(b + 1) * per_batch]
        X, weights = rng.standard_normal((len(batch_rows), d)), rng.random(len(batch_rows))
        embeddings._scatter_add(got, groups, weights, X, work)
        oracles.scatter_add(want, batch_rows, weights, X)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@settings(max_examples=40, deadline=None)
@given(training_cases(), st.sampled_from([1, 2, 7, 250]))
def test_trainers_equal_the_sorting_scatter_and_searchsorted_draws(case, batch):
    """Both trainers give the bytes of W and C they gave with the step that
    sorted and built a CSR matrix per batch and noise drawn by searchsorted.
    Unlike a golden digest, this holds on any machine."""
    lines, vocab, cfg, lex, idx = case
    with mock.patch.object(embeddings, "batch_size", lambda noise, negatives: batch):
        for args in ((), (lex, idx)):
            runs = []
            for patches in ((), ((embeddings, "_sgns_step", oracles.sgns_step),
                                 (embeddings.NoiseDistribution, "sample", oracles.sample_noise))):
                with ExitStack() as stack:
                    for target, name, new in patches:
                        stack.enter_context(mock.patch.object(target, name, new))
                    try:
                        runs.append((train_dlce if args else train_sgns)(lines, vocab, cfg, *args))
                    except TrainingError as exc:
                        runs.append(str(exc))
            got, want = runs
            if isinstance(want, str):
                assert got == want
            else:
                assert got.W.tobytes() == want.W.tobytes() and got.C.tobytes() == want.C.tobytes()


@st.composite
def trainability_cases(draw):
    """A tiny corpus at the edge of trainability, and a config.

    Lines are empty, one token or a few long; the vocabulary is built with a
    drawn min_count, which may keep no word or leave words out, from the
    training lines or from other lines, and the config's min_count may exceed
    it. Thresholds down to 1e-5 make draws that keep no token of an epoch.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    words = _words(draw(st.integers(1, 4)))

    def some_lines():
        return [list(rng.choice(words, size=int(rng.integers(0, 6)))) for _ in range(draw(st.integers(0, 8)))]

    lines = some_lines()
    vocab = build_vocabulary(lines if draw(st.booleans()) else some_lines(), draw(st.integers(1, 2)))
    cfg = TrainingConfig(dim=2, negatives=2, window=draw(st.integers(1, 3)), epochs=draw(st.integers(1, 3)),
                         subsample=draw(st.sampled_from([None, 1e-5, 0.01, 0.1, 0.3])),
                         min_count=draw(st.integers(1, 2)), seed=draw(st.integers(0, 1000)))
    pair = st.tuples(st.sampled_from(words), st.sampled_from(words))
    lex = enrich_antonyms(ContrastLexicon.from_pairs(draw(st.lists(pair, max_size=4)),
                                                     draw(st.lists(pair, max_size=4))))
    return lines, vocab, cfg, lex


@settings(max_examples=300, deadline=None)
@given(trainability_cases())
def test_trainers_refuse_exactly_when_the_former_check_does(case):
    """The trainers refuse, with the former pre-check's text, exactly when it
    refuses; otherwise both train, and dLCE with an empty lexicon gives the
    bits of SGNS."""
    lines, vocab, cfg, lex = case
    try:
        oracles.require_trainable(encode_lines(lines).ids(vocab), vocab, cfg)
        refusal = None
    except ValueError as exc:
        refusal = (type(exc), str(exc))
    idx = sparse.csr_matrix(np.ones((len(vocab), len(vocab))))
    runs = []
    for train in (lambda: train_sgns(lines, vocab, cfg), lambda: train_dlce(lines, vocab, cfg, lex, idx),
                  lambda: train_dlce(lines, vocab, cfg, ContrastLexicon.from_pairs([], []), idx)):
        try:
            runs.append(train())
        except ValueError as exc:
            runs.append((type(exc), str(exc)))
    assert [run if isinstance(run, tuple) else None for run in runs] == [refusal] * 3
    if refusal is None:
        sgns, _, empty = runs
        _same_bits(empty.W, sgns.W)
        _same_bits(empty.C, sgns.C)


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
def contrast_inputs(draw, special=True):
    """A small W with zero rows and, if `special`, sometimes non-finite entries."""
    n, d = draw(st.integers(2, 7)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    W = rng.standard_normal((n, d))
    W[draw(st.lists(st.integers(0, n - 1), max_size=2))] = 0.0
    for _ in range(draw(st.integers(0, 3)) if special else 0):
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


@settings(max_examples=400, deadline=None)
@given(contrast_inputs(special=False))
def test_contrast_gradients_near_blas_form(case):
    """Row-local sums move the gradients from the BLAS form by rounding only."""
    W, w, syn, ant = case
    got = np.concatenate([np.ravel(g) for g in contrast_gradients(W, w, syn, ant)])
    want = np.concatenate([np.ravel(g) for g in oracles.contrast_gradients(W, w, syn, ant, dot=np.dot)])
    _assert_close(got, want)


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
    return oracles.ContrastState(lex, vocab, oracles.feature_index(idx), cfg), W, hits, alpha


@settings(max_examples=300, deadline=None)
@given(contrast_steps())
def test_contrast_step_matches_old_form(case):
    """A wave of one hit against the per-pair loop's step, one hit after another."""
    state, W, hits, alpha = case
    want = W.copy()
    for w, c in hits:
        oracles.apply_hit(state, W, w, c, alpha)
        oracles.apply_contrast(state, want, w, c, alpha)
        _same_bits(W, want)


@st.composite
def wave_cases(draw):
    """A contrast state, a W with zero rows, a pair stream and a batch size.

    The lexicon is drawn as raw per-word sets, so a word can be among its own
    synonyms or antonyms and on both sides of another word; caps of 1 and 2
    give sampled sets. Sets of up to 12 members pad a wave's sides to eight
    rows or more, where numpy would sum a contiguous d = 1 axis pairwise.
    The learning rates are distinct, as in the trainer.
    """
    n, d = draw(st.integers(3, 14)), draw(st.integers(1, 6))
    words = _words(n)
    vocab = Vocabulary.from_counts({w: n - i for i, w in enumerate(words)})
    related = st.dictionaries(st.sampled_from(words), st.frozensets(st.sampled_from(words), min_size=1, max_size=12),
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
    return (_ContrastState(lex, vocab, idx, cfg), oracles.ContrastState(lex, vocab, oracles.feature_index(idx), cfg),
            W, targets, contexts, alphas, draw(st.sampled_from([1, 2, 7, 250])))


@settings(max_examples=300, deadline=None)
@given(wave_cases())
def test_contrast_waves_equal_hits_in_stream_order(case):
    state, oracle, W, targets, contexts, alphas, batch = case
    hits = oracle.hits(targets, contexts).tolist()
    plan, starts = state.waves(targets, contexts, alphas, batch)

    def rows(i):
        return {int(targets[i])} | {int(r) for side in oracle.pair_sets(targets[i], contexts[i]) for r in side}

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
        oracles.apply_contrast(oracle, want, targets[i], contexts[i], alphas[i])
    for v in range(len(plan.bounds)):
        embeddings._apply_wave(W, plan, v)
    _same_bits(W, want)


@st.composite
def contrast_set_cases(draw):
    """A lexicon over a few words, a holder matrix, a cap and a pair stream.

    Lexicons are drawn as symmetric pairs or as raw per-word sets, which put
    a word among its own synonyms or antonyms and on both sides of another
    word; either way words get synonyms only, antonyms only, both and
    neither, and an out-of-vocabulary word takes part. Caps of 1 and 2
    sample.
    """
    n = draw(st.integers(2, 9))
    words = _words(n)
    vocab = Vocabulary.from_counts({w: n - i for i, w in enumerate(words)})
    pool = st.sampled_from(words + ["oov0"])
    if draw(st.booleans()):
        pair = st.tuples(pool, pool)
        lex = ContrastLexicon.from_pairs(draw(st.lists(pair, max_size=12)), draw(st.lists(pair, max_size=8)))
    else:
        related = st.dictionaries(pool, st.frozensets(pool, min_size=1, max_size=5), max_size=n)
        lex = ContrastLexicon(syn=draw(related), ant=draw(related))
    cfg = TrainingConfig(dim=2, min_count=1, seed=draw(st.integers(0, 100)),
                         max_contrast_neighbors=draw(st.sampled_from([None, 1, 2])))
    stream = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=30))
    targets, contexts = np.array(stream, dtype=np.int32).reshape(-1, 2).T
    return lex, vocab, draw(holder_matrices(n, n)), cfg, targets, contexts


@settings(max_examples=300, deadline=None)
@given(contrast_set_cases())
def test_contrast_sets_match_per_key_oracle(case):
    """The bulk sets of every key and of a pair stream against the per-key sets."""
    lex, vocab, holders, cfg, targets, contexts = case
    got = _ContrastState(lex, vocab, holders, cfg)
    want = oracles.ContrastState(lex, vocab, oracles.feature_index(holders), cfg)
    _same_bits(got.in_lexicon, want.in_lexicon)
    n = len(vocab)
    words = np.concatenate((np.repeat(np.arange(n), n), targets))
    features = np.concatenate((np.tile(np.arange(n), n), contexts))
    n_syn, n_ant, members = got.sets(words, features)
    ends = np.cumsum(n_syn + n_ant)
    for i, (w, c) in enumerate(zip(words.tolist(), features.tolist())):
        old = want.pair_sets(w, c)
        assert (n_syn[i] + n_ant[i] == 0) == (old is None)
        if old is not None:
            start = ends[i] - n_syn[i] - n_ant[i]
            _same_bits(members[start:start + n_syn[i]], old[0])
            _same_bits(members[start + n_syn[i]:ends[i]], old[1])
    _same_bits(np.flatnonzero(n_syn[n * n:] + n_ant[n * n:]), want.hits(targets, contexts))


# --- co-occurrence counting against its chunked form and the trainer's stream


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
@given(corpora(), st.integers(1, 6))
def test_trainer_stream_counts_equal_the_count_table(case, window):
    lines, vocab = case
    cfg = TrainingConfig(dim=2, min_count=1, window=window, subsample=None)
    targets, contexts = embeddings._epoch_pairs(encode_lines(lines).ids(vocab), vocab, cfg, 0)
    table = count_cooccurrences(lines, vocab, window)
    keys, counts = np.unique(targets.astype(np.int64) * len(vocab) + contexts, return_counts=True)
    got = list(zip((keys // len(vocab)).tolist(), (keys % len(vocab)).tolist(), counts.tolist()))
    assert got == list(zip(table.targets.tolist(), table.features.tolist(), table.counts.tolist()))


# Tokens as str.split() yields them: any non-empty text without whitespace,
# and no lone surrogates, which UTF-8 cannot encode.
unicode_tokens = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1).filter(
    lambda t: t.split() == [t])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(unicode_tokens, max_size=8), max_size=10), st.booleans(), st.integers(1, 3))
def test_read_corpus_matches_per_line_oracle(lines, lowercase, min_count):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.txt"
        path.write_text("".join(" ".join(line) + "\n" for line in lines), encoding="utf-8")
        text = read_corpus(path, lowercase=lowercase)
    lines = [[t.lower() for t in line] if lowercase else line for line in lines]
    vocab = oracles.build_vocabulary(lines, min_count)
    assert build_vocabulary(text, min_count) == vocab
    got, want = text.ids(vocab), oracles.vocabulary_ids(lines, vocab)
    _same_bits(got[0], want[0].astype(np.int32))  # the oracle's int64 ids, as the int32 that Corpus.ids returns
    np.testing.assert_array_equal(got[1], want[1])  # line numbers, int32 against int64


# Lowercasing whose result depends on the neighbours (a final sigma, a sigma
# before a case-ignorable mark), that changes the length (İ), that has no
# single-letter lower form (ß stays), and seven kinds of whitespace.
context_text = st.text(st.one_of(
    st.sampled_from(["Σ", "σ", "ς", "İ", "ß", "ẞ", "A", "a", "'", ".", "\u0301", "\u00ad",
                     " ", "\t", "\x0b", "\x0c", "\x85", "\xa0", "\u3000"]),
    st.characters(blacklist_categories=("Cs",))), max_size=60)


@settings(max_examples=300, deadline=None)
@given(context_text)
def test_read_corpus_lowers_each_line_as_it_lowered_each_token(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.txt"
        path.write_text(text, encoding="utf-8")
        got = read_corpus(path)
        with open(path, encoding="utf-8-sig") as fh:
            want = encode_lines([[t.lower() for t in line.split()] for line in fh])
    assert got.types == want.types
    _same_bits(got.tok, want.tok)
    _same_bits(got.line, want.line)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.integers(0, n - 1), max_size=12), max_size=15),
    st.lists(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0, 1)), min_size=n, max_size=n))),
    st.integers(0, 2**32 - 1))
def test_subsampling_matches_per_line_oracle(case, seed):
    lines, discard = case
    id_lines = [np.array(line, dtype=np.int64) for line in lines]
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = subsample_ids(oracles.flatten_lines(id_lines), np.array(discard), got_rng)
    want = oracles.flatten_lines(oracles.subsample_ids(id_lines, np.array(discard), want_rng))
    _same_bits(got[0], want[0])
    _same_bits(got[1], want[1])
    _same_bits(got_rng.random(3), want_rng.random(3))  # both consumed the same draws


# --- the block SVD against the whole-matrix one, and the randomized SVD
# against the QR-normalized subspace iteration


@st.composite
def svd_cases(draw, whole=False):
    """A wide or tall sparse matrix, with a rank to cut it at.

    Rank-deficient matrices are exactly so: every row is a power-of-two
    multiple of one of r < 4 continuous rows, so their rank sits below the
    sketch width and their nonzero singular values are distinct. Up to three
    rows and three columns are emptied, and the matrix may store zeros, which
    count as empty. It is CSR, CSC or COO. A `whole` matrix has no empty row
    or column: nothing is emptied, and a full one gets a nonzero wrapped
    diagonal.
    """
    n, m = draw(st.integers(1, 50)), draw(st.integers(1, 50))
    kind = draw(st.sampled_from(["full", "rank-deficient"] + ([] if whole else ["zero"])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "full":
        dense = rng.standard_normal((n, m)) * (rng.random((n, m)) < draw(st.sampled_from([0.2, 1.0])))
        if whole:
            diagonal = np.arange(max(n, m))
            dense[diagonal % n, diagonal % m] = rng.standard_normal(len(diagonal))
    elif kind == "rank-deficient":
        basis = rng.standard_normal((draw(st.integers(1, 3)), m))
        scale = 2.0 ** rng.integers(-2, 3, n) * rng.choice([-1.0, 1.0], n)
        dense = scale[:, None] * basis[rng.integers(0, len(basis), n)]
    else:
        dense = np.zeros((n, m))
    if not whole:
        dense[draw(st.lists(st.integers(0, n - 1), max_size=3))] = 0.0
        dense[:, draw(st.lists(st.integers(0, m - 1), max_size=3))] = 0.0
    stored = (dense != 0) | (rng.random((n, m)) < draw(st.sampled_from([0.0, 0.1, 0.5])))
    layout = draw(st.sampled_from([sparse.csr_matrix, sparse.csc_matrix, sparse.coo_matrix]))
    matrix = layout((dense[stored], np.nonzero(stored)), shape=(n, m))
    return dense, matrix, kind, draw(st.integers(1, min(n, m) + 2)), draw(st.integers(0, 1000))


def _storage(matrix) -> list[np.ndarray]:
    if matrix.format == "coo":
        return [matrix.data, matrix.row, matrix.col]
    return [matrix.data, matrix.indices, matrix.indptr]


def _bits(array: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(array).view(np.uint64)


@settings(max_examples=300, deadline=None)
@given(st.one_of(svd_cases(), svd_cases(whole=True)), st.sampled_from(["dense", "randomized"]))
def test_block_svd_matches_whole_matrix_oracle(case, mode):
    dense, matrix, kind, dim, seed = case
    before = [array.copy() for array in _storage(matrix)]
    got = reduction.truncated_svd(matrix, dim, mode=mode, seed=seed)
    for array, copy in zip(_storage(matrix), before):
        _same_bits(array, copy)  # the caller's matrix, stored zeros included
    want = oracles.whole_matrix_svd(matrix, dim, mode=mode, seed=seed)
    empty_rows, empty_cols = ~(dense != 0).any(axis=1), ~(dense != 0).any(axis=0)
    assert (got.row_vectors[empty_rows] == 0).all() and (got.right_vectors[:, empty_cols] == 0).all()
    assert got.mode_used == want.mode_used
    if kind != "full":
        assert got.effective_rank == want.effective_rank
    if not empty_rows.any() and not empty_cols.any():
        for array, oracle in ((got.row_vectors, want.row_vectors), (got.singular_values, want.singular_values),
                              (got.right_vectors, want.right_vectors)):
            assert array.shape == oracle.shape and np.array_equal(_bits(array), _bits(oracle))
        return
    scale = max(1.0, want.singular_values[0])
    np.testing.assert_allclose(got.singular_values, want.singular_values, rtol=0, atol=1e-10 * scale)
    np.testing.assert_allclose(oracles.reconstruction(got), oracles.reconstruction(want),
                               rtol=0, atol=1e-9 * np.linalg.norm(dense))


@settings(max_examples=300, deadline=None)
@given(svd_cases())
def test_randomized_svd_matches_qr_oracle(case):
    dense, matrix, kind, dim, seed = case
    got = reduction.truncated_svd(matrix, dim, mode="randomized", seed=seed)
    want = oracles.whole_matrix_svd(matrix, dim, mode="randomized", seed=seed, randomized=oracles.randomized_svd)
    scale = max(1.0, want.singular_values[0])
    np.testing.assert_allclose(got.singular_values, want.singular_values, rtol=0, atol=1e-10 * scale)
    np.testing.assert_allclose(oracles.reconstruction(got), oracles.reconstruction(want),
                               rtol=0, atol=1e-9 * np.linalg.norm(dense))
    if kind != "full":
        assert got.effective_rank == want.effective_rank
