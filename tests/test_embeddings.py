"""Negative-sampling trainer and its contrast extension: pure-function
identities, finite-difference gradient checks, an independent objective
oracle, and behavioral properties of the two training loops."""

import math
from collections import Counter

import numpy as np
import pytest

from lexcontrast.corpus import (
    CorpusError,
    Vocabulary,
    build_vocabulary,
    count_cooccurrences,
    encode_lines,
)
from lexcontrast.embeddings import (
    CHECK_EVERY,
    MAX_BATCH,
    MIN_ALPHA_FRACTION,
    NOISE_REUSE,
    EmbeddingModel,
    NoiseDistribution,
    TrainingConfig,
    TrainingError,
    _ContrastState,
    _epoch_pairs,
    _window_pairs,
    batch_size,
    build_noise_distribution,
    contrast_gradients,
    contrast_value,
    counted_pairs,
    learning_rate,
    log_sigmoid,
    sgns_objective,
    sgns_pair_gradients,
    sgns_pair_loss,
    sigmoid,
    train_dlce,
    train_sgns,
)
from lexcontrast.lexicon import ContrastLexicon
from lexcontrast.weighting import FeatureOccurrenceIndex, build_feature_index, compute_lmi
from synthcorpus import build_world


class TestSigmoid:
    def test_spot_values(self):
        assert sigmoid(0.0) == 0.5
        assert sigmoid(2.0) == pytest.approx(1.0 / (1.0 + math.exp(-2.0)), abs=1e-15)
        assert sigmoid(2.0) == pytest.approx(0.8807970779778823, abs=1e-12)

    def test_complement_identity(self):
        rng = np.random.default_rng(0)
        for x in rng.standard_normal(50) * 10:
            assert sigmoid(x) + sigmoid(-x) == pytest.approx(1.0, abs=1e-15)

    def test_monotone(self):
        xs = np.linspace(-20, 20, 200)
        ys = sigmoid(xs)
        assert (np.diff(ys) >= 0).all()

    def test_extreme_arguments_stay_finite(self):
        assert sigmoid(700.0) == 1.0
        assert 0.0 < sigmoid(-700.0) < 1e-300
        assert log_sigmoid(-700.0) == pytest.approx(-700.0, rel=1e-12)
        assert np.isfinite(log_sigmoid(700.0))

    def test_log_sigmoid_consistent(self):
        rng = np.random.default_rng(1)
        for x in rng.standard_normal(30) * 5:
            assert log_sigmoid(x) == pytest.approx(math.log(sigmoid(x)), abs=1e-12)


class TestLearningRate:
    def test_linear_decay(self):
        assert learning_rate(0.025, 0, 100) == 0.025
        assert learning_rate(0.025, 50, 100) == pytest.approx(0.0125)
        assert learning_rate(0.025, 99, 100) == pytest.approx(0.025 * 0.01)

    def test_floor(self):
        assert learning_rate(0.025, 100, 100) == 0.025 * MIN_ALPHA_FRACTION
        assert learning_rate(0.025, 10**9, 100) == 0.025 * MIN_ALPHA_FRACTION


class TestNoiseDistribution:
    def test_exponent_one_is_relative_frequency(self):
        vocab = Vocabulary.from_counts({"a": 3, "b": 1})
        noise = build_noise_distribution(vocab, exponent=1.0)
        np.testing.assert_allclose(noise.probabilities, [0.75, 0.25], atol=1e-15)

    def test_exponent_zero_is_uniform(self):
        vocab = Vocabulary.from_counts({"a": 30, "b": 1, "c": 5})
        noise = build_noise_distribution(vocab, exponent=0.0)
        np.testing.assert_allclose(noise.probabilities, np.full(3, 1 / 3), atol=1e-15)

    def test_default_exponent_damps_frequent_words(self):
        vocab = Vocabulary.from_counts({"a": 3, "b": 1})
        noise = build_noise_distribution(vocab, exponent=0.75)
        expected = 3**0.75 / (3**0.75 + 1.0)
        assert noise.probabilities[0] == pytest.approx(expected, abs=1e-15)
        assert noise.probabilities[0] == pytest.approx(0.695076, abs=1e-6)

    def test_invariants_on_random_vocabularies(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            counts = {f"w{i}": int(rng.integers(1, 1000)) for i in range(int(rng.integers(2, 30)))}
            noise = build_noise_distribution(Vocabulary.from_counts(counts))
            assert noise.probabilities.sum() == pytest.approx(1.0, abs=1e-12)
            assert (noise.probabilities > 0).all()

    def test_bad_probabilities_rejected(self):
        with pytest.raises(TrainingError, match="sum to 1"):
            NoiseDistribution(np.array([0.5, 0.4]))
        with pytest.raises(TrainingError, match="positive"):
            NoiseDistribution(np.array([1.0, 0.0]))

    def test_sampling_matches_distribution(self):
        vocab = Vocabulary.from_counts({"a": 100, "b": 10, "c": 1})
        noise = build_noise_distribution(vocab)
        draws = noise.sample(np.random.default_rng(3), 200_000)
        for wid, p in enumerate(noise.probabilities):
            observed = (draws == wid).mean()
            sigma = math.sqrt(p * (1 - p) / len(draws))
            assert abs(observed - p) < 4 * sigma

    def test_sampling_deterministic(self):
        vocab = Vocabulary.from_counts({"a": 5, "b": 2})
        noise = build_noise_distribution(vocab)
        a = noise.sample(np.random.default_rng(4), (10, 3))
        b = noise.sample(np.random.default_rng(4), (10, 3))
        np.testing.assert_array_equal(a, b)


class TestBatchSize:
    def test_divides_the_check_interval_and_bounds_noise_reuse(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            counts = {f"w{i}": int(rng.integers(1, 10_000)) for i in range(int(rng.integers(1, 3000)))}
            noise = build_noise_distribution(Vocabulary.from_counts(counts))
            k = int(rng.integers(1, 20))
            b = batch_size(noise, k)
            assert CHECK_EVERY % b == 0
            assert 1 <= b <= MAX_BATCH
            assert b == 1 or b * k * noise.probabilities.max() <= NOISE_REUSE

    def test_shrinks_on_tiny_vocabularies(self):
        vocab = build_vocabulary(_toy_corpus(np.random.default_rng(17)), min_count=1)
        assert batch_size(build_noise_distribution(vocab), 4) == 8
        assert batch_size(build_noise_distribution(Vocabulary.from_counts({"a": 1})), 15) == 1
        uniform = Vocabulary.from_counts({f"w{i}": 10 for i in range(20_000)})
        assert batch_size(build_noise_distribution(uniform), 5) == MAX_BATCH


class TestPairGradients:
    def test_hand_identity_single_positive(self):
        rng = np.random.default_rng(5)
        w = rng.standard_normal(6)
        ctx = rng.standard_normal((1, 6))
        g_w, g_c = sgns_pair_gradients(w, ctx, np.array([1.0]))
        err = 1.0 - sigmoid(float(ctx[0] @ w))
        np.testing.assert_allclose(g_w, err * ctx[0], atol=1e-15)
        np.testing.assert_allclose(g_c[0], err * w, atol=1e-15)

    def test_finite_difference(self):
        rng = np.random.default_rng(6)
        h = 1e-6
        for _ in range(10):
            d = int(rng.integers(2, 9))
            k = int(rng.integers(1, 6))
            w = rng.standard_normal(d)
            ctx = rng.standard_normal((k + 1, d))
            labels = np.zeros(k + 1)
            labels[0] = 1.0
            g_w, g_c = sgns_pair_gradients(w, ctx, labels)
            for j in range(d):
                e = np.zeros(d)
                e[j] = h
                fd = (sgns_pair_loss(w + e, ctx, labels) - sgns_pair_loss(w - e, ctx, labels)) / (2 * h)
                assert g_w[j] == pytest.approx(fd, rel=1e-5, abs=1e-8)
            for r in range(k + 1):
                for j in range(d):
                    bumped = ctx.copy()
                    bumped[r, j] += h
                    dipped = ctx.copy()
                    dipped[r, j] -= h
                    fd = (sgns_pair_loss(w, bumped, labels) - sgns_pair_loss(w, dipped, labels)) / (2 * h)
                    assert g_c[r, j] == pytest.approx(fd, rel=1e-5, abs=1e-8)


class TestContrastTerm:
    def test_value_on_aligned_vectors(self):
        W = np.array([[1.0, 0.0], [2.0, 0.0], [-3.0, 0.0]])
        assert contrast_value(W, 0, [1], [2]) == pytest.approx(2.0, abs=1e-15)
        assert contrast_value(W, 0, [1], []) == pytest.approx(1.0, abs=1e-15)
        assert contrast_value(W, 0, [], [2]) == pytest.approx(1.0, abs=1e-15)
        assert contrast_value(W, 0, [], []) == 0.0

    def test_zero_norm_member_counts_in_normalizer(self):
        W = np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 0.0]])
        assert contrast_value(W, 0, [1, 2], []) == pytest.approx(0.5, abs=1e-15)

    def test_finite_difference(self):
        rng = np.random.default_rng(7)
        h = 1e-6
        for _ in range(10):
            n, d = 7, int(rng.integers(2, 6))
            W = rng.standard_normal((n, d))
            w = 0
            others = rng.permutation(np.arange(1, n))
            syn = np.sort(others[:2])
            ant = np.sort(others[2:4])
            g_w, g_u, g_v = contrast_gradients(W, w, syn, ant)

            def value(matrix):
                return contrast_value(matrix, w, syn, ant)

            for j in range(d):
                bumped = W.copy()
                bumped[w, j] += h
                dipped = W.copy()
                dipped[w, j] -= h
                fd = (value(bumped) - value(dipped)) / (2 * h)
                assert g_w[j] == pytest.approx(fd, rel=1e-5, abs=1e-8)
            for grads, ids in ((g_u, syn), (g_v, ant)):
                for r, row in enumerate(ids):
                    for j in range(d):
                        bumped = W.copy()
                        bumped[row, j] += h
                        dipped = W.copy()
                        dipped[row, j] -= h
                        fd = (value(bumped) - value(dipped)) / (2 * h)
                        assert grads[r, j] == pytest.approx(fd, rel=1e-5, abs=1e-8)

    def test_zero_norm_member_gets_zero_gradient(self):
        W = np.array([[1.0, 1.0], [0.0, 0.0], [2.0, 0.0]])
        g_w, g_u, _ = contrast_gradients(W, 0, np.array([1, 2]), np.array([], dtype=int))
        np.testing.assert_array_equal(g_u[0], np.zeros(2))
        assert np.isfinite(g_w).all()


def _objective_oracle(W, C, pairs, probs, k):
    """Triple-loop scripted evaluation of the counted-pair objective."""
    def ls(x):
        return math.log(1.0 / (1.0 + math.exp(-x))) if x > -30 else x

    total = 0.0
    for t, c, cnt in pairs:
        total += cnt * ls(float(W[t] @ C[c]))
        for x in range(len(probs)):
            total += cnt * k * probs[x] * ls(-float(W[t] @ C[x]))
    return total


class TestObjective:
    def test_all_zero_vectors_closed_form(self):
        vocab = Vocabulary.from_counts({"a": 2, "b": 1})
        cfg = TrainingConfig(dim=4, negatives=3, min_count=1)
        model = EmbeddingModel(np.zeros((2, 4)), np.zeros((2, 4)), vocab, cfg)
        noise = build_noise_distribution(vocab)
        pairs = [(0, 1, 5), (1, 0, 2)]
        got = sgns_objective(model, pairs, noise, k=3)
        assert got == pytest.approx(math.log(0.5) * (7 + 3 * 7), abs=1e-12)

    def test_matches_scripted_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            n, d = int(rng.integers(2, 8)), int(rng.integers(2, 6))
            counts = {f"w{i}": int(rng.integers(1, 20)) for i in range(n)}
            vocab = Vocabulary.from_counts(counts)
            cfg = TrainingConfig(dim=d, negatives=2, min_count=1)
            model = EmbeddingModel(
                rng.standard_normal((n, d)), rng.standard_normal((n, d)), vocab, cfg
            )
            noise = build_noise_distribution(vocab)
            pairs = [
                (int(rng.integers(n)), int(rng.integers(n)), int(rng.integers(1, 9)))
                for _ in range(int(rng.integers(1, 12)))
            ]
            k = int(rng.integers(0, 4))
            got = sgns_objective(model, pairs, noise, k)
            want = _objective_oracle(model.W, model.C, pairs, noise.probabilities, k)
            assert got == pytest.approx(want, abs=1e-10)

    def test_empty_pairs(self):
        vocab = Vocabulary.from_counts({"a": 1})
        cfg = TrainingConfig(dim=2, min_count=1)
        model = EmbeddingModel(np.zeros((1, 2)), np.zeros((1, 2)), vocab, cfg)
        assert sgns_objective(model, [], build_noise_distribution(vocab), 5) == 0.0


class TestPairExtraction:
    def test_scan_order(self):
        # centers left to right, each with its contexts left to right
        ids = [np.array([10, 11, 12], dtype=np.int64)]
        t, c = _window_pairs(ids, window=2)
        got = list(zip(t.tolist(), c.tolist()))
        assert got == [(10, 11), (10, 12), (11, 10), (11, 12), (12, 10), (12, 11)]

    def test_line_boundaries_respected(self):
        ids = [np.array([1]), np.array([2])]
        t, c = _window_pairs(ids, window=5)
        assert len(t) == 0

    def test_counted_pairs_matches_counter(self):
        rng = np.random.default_rng(9)
        t = rng.integers(0, 6, 500).astype(np.int32)
        c = rng.integers(0, 6, 500).astype(np.int32)
        got = {(a, b): n for a, b, n in counted_pairs(t, c)}
        want = Counter(zip(t.tolist(), c.tolist()))
        assert got == dict(want)

    def test_subsampled_epochs_differ_but_are_seeded(self):
        lines = [["the"] * 6 + ["cat", "sat"] for _ in range(30)]
        vocab = build_vocabulary(lines, min_count=1)
        ids = [np.array([vocab.id_of(t) for t in line]) for line in lines]
        cfg = TrainingConfig(dim=2, min_count=1, subsample=0.05, window=2, seed=1)
        e0 = _epoch_pairs(ids, vocab, cfg, 0)
        e0_again = _epoch_pairs(ids, vocab, cfg, 0)
        e1 = _epoch_pairs(ids, vocab, cfg, 1)
        np.testing.assert_array_equal(e0[0], e0_again[0])
        assert len(e0[0]) != len(e1[0]) or not np.array_equal(e0[0], e1[0])

    def test_no_subsample_epochs_identical(self):
        lines = [["a", "b", "c"]] * 3
        vocab = build_vocabulary(lines, min_count=1)
        ids = [np.array([vocab.id_of(t) for t in line]) for line in lines]
        cfg = TrainingConfig(dim=2, min_count=1, subsample=None, window=2)
        e0 = _epoch_pairs(ids, vocab, cfg, 0)
        e1 = _epoch_pairs(ids, vocab, cfg, 1)
        np.testing.assert_array_equal(e0[0], e1[0])
        np.testing.assert_array_equal(e0[1], e1[1])


def _toy_corpus(rng, n_lines=120):
    """Random lines over a small vocabulary, heavy on a few words."""
    words = ["w0", "w1", "w2", "w3", "w4", "w5"]
    weights = np.array([6, 5, 4, 3, 2, 1], dtype=np.float64)
    probs = weights / weights.sum()
    return [
        [words[i] for i in rng.choice(len(words), size=int(rng.integers(3, 9)), p=probs)]
        for i in range(n_lines)
    ]


def _full_index(n_words):
    """Feature index claiming every word holds every feature (for unit tests)."""
    all_ids = frozenset(range(n_words))
    return FeatureOccurrenceIndex({f: all_ids for f in range(n_words)})


class TestSgnsTraining:
    def test_deterministic_given_seed(self):
        lines = _toy_corpus(np.random.default_rng(10))
        vocab = build_vocabulary(lines, min_count=1)
        cfg = TrainingConfig(dim=8, negatives=4, window=3, epochs=2,
                             subsample=None, min_count=1, seed=5)
        a = train_sgns(lines, vocab, cfg, progress=open("/dev/null", "w"))
        b = train_sgns(lines, vocab, cfg, progress=open("/dev/null", "w"))
        np.testing.assert_array_equal(a.W, b.W)
        np.testing.assert_array_equal(a.C, b.C)
        c = train_sgns(lines, vocab, TrainingConfig(
            dim=8, negatives=4, window=3, epochs=2,
            subsample=None, min_count=1, seed=6), progress=open("/dev/null", "w"))
        assert not np.array_equal(a.W, c.W)

    def test_history_and_alpha_schedule(self):
        lines = _toy_corpus(np.random.default_rng(11), n_lines=40)
        vocab = build_vocabulary(lines, min_count=1)
        cfg = TrainingConfig(dim=4, negatives=2, window=2, epochs=3,
                             subsample=None, min_count=1, learning_rate=0.05)
        model = train_sgns(lines, vocab, cfg, progress=open("/dev/null", "w"))
        assert [h["epoch"] for h in model.history] == [0, 1, 2]
        per_epoch = model.history[0]["pairs"]
        assert model.history[0]["alpha"] == 0.05
        total = 3 * per_epoch
        assert model.history[1]["alpha"] == pytest.approx(
            learning_rate(0.05, per_epoch, total)
        )

    def test_identical_context_words_end_up_closest(self):
        # two words sharing their full context distribution should be more
        # similar to each other than to a word with disjoint contexts
        lines = []
        for _ in range(80):
            lines.append(["x", "p", "q"])
            lines.append(["y", "p", "q"])
            lines.append(["z", "r", "s"])
        vocab = build_vocabulary(lines, min_count=1)
        cfg = TrainingConfig(dim=10, negatives=5, window=2, epochs=25,
                             subsample=None, min_count=1, learning_rate=0.05, seed=0)
        emb = train_sgns(lines, vocab, cfg, progress=open("/dev/null", "w")).embeddings()

        def cos(a, b):
            va, vb = emb.vector(a), emb.vector(b)
            return float(va @ vb) / (np.linalg.norm(va) * np.linalg.norm(vb))

        assert cos("x", "y") > cos("x", "z")
        assert cos("x", "y") > cos("y", "z")

    def test_objective_trend_over_epochs(self):
        lines = _toy_corpus(np.random.default_rng(12), n_lines=60)
        vocab = build_vocabulary(lines, min_count=1)
        cfg = TrainingConfig(dim=6, negatives=3, window=2, epochs=5,
                             subsample=None, min_count=1, learning_rate=0.05,
                             track_objective=True)
        model = train_sgns(lines, vocab, cfg, progress=open("/dev/null", "w"))
        objectives = [h["objective"] for h in model.history]
        assert len(objectives) == 5
        for prev, cur in zip(objectives, objectives[1:]):
            assert cur >= prev - 0.05 * abs(prev)
        assert objectives[-1] > objectives[0]

    def test_validation_errors(self):
        lines = [["a", "b"], ["a"]]
        vocab = build_vocabulary(lines, min_count=1)
        with pytest.raises(TrainingError, match="min_count"):
            train_sgns(lines, vocab, TrainingConfig(dim=2, min_count=5))
        cfg = TrainingConfig(dim=2, min_count=1, subsample=None)
        with pytest.raises(CorpusError, match="empty corpus"):
            train_sgns([["zzz"]], vocab, cfg)
        with pytest.raises(TrainingError, match="no training pairs"):
            train_sgns([["a"], ["b"]], vocab, cfg)
        with pytest.raises(TrainingError, match="empty vocabulary"):
            train_sgns([], Vocabulary.from_counts({}), cfg)

    def test_progress_stream_format(self, tmp_path):
        lines = _toy_corpus(np.random.default_rng(13), n_lines=30)
        vocab = build_vocabulary(lines, min_count=1)
        cfg = TrainingConfig(dim=3, negatives=2, window=2, epochs=2,
                             subsample=None, min_count=1, track_objective=True)
        log = tmp_path / "progress.tsv"
        with open(log, "w") as fh:
            train_sgns(lines, vocab, cfg, progress=fh)
        rows = [line.split("\t") for line in log.read_text().splitlines()]
        assert len(rows) == 2
        assert [r[0] for r in rows] == ["0", "1"]
        assert all(len(r) == 4 for r in rows)

    def test_divergence_fails_fast_naming_the_update(self):
        lines = _toy_corpus(np.random.default_rng(20), n_lines=900)
        vocab = build_vocabulary(lines, min_count=1)
        cfg = TrainingConfig(dim=4, negatives=2, window=2, subsample=None,
                             min_count=1, learning_rate=1e10)
        assert len(_epoch_pairs(encode_lines(lines, vocab), vocab, cfg, 0)[0]) > 10_000
        with pytest.raises(TrainingError, match=r"NaN or Inf after update 10000$"):
            train_sgns(lines, vocab, cfg)

    def test_threads_other_than_one_are_refused(self):
        for threads in (0, 2, 8):
            with pytest.raises(TrainingError, match=f"threads must be 1, got {threads}"):
                TrainingConfig(dim=6, min_count=1, threads=threads)
        assert TrainingConfig(dim=6, min_count=1, threads=1).threads == 1

    def test_embeddings_export(self):
        lines = _toy_corpus(np.random.default_rng(15), n_lines=20)
        vocab = build_vocabulary(lines, min_count=1)
        cfg = TrainingConfig(dim=4, negatives=2, window=2, epochs=1,
                             subsample=None, min_count=1)
        model = train_sgns(lines, vocab, cfg, progress=open("/dev/null", "w"))
        emb = model.embeddings(source="sgns")
        assert emb.source == "sgns"
        assert emb.words == list(vocab.words)
        averaged = model.embeddings(average_contexts=True)
        np.testing.assert_allclose(averaged.matrix, (model.W + model.C) / 2.0)


class TestContrastTraining:
    def test_empty_lexicon_is_bit_identical_to_plain_sgns(self):
        lines = _toy_corpus(np.random.default_rng(16))
        vocab = build_vocabulary(lines, min_count=1)
        cfg = TrainingConfig(dim=8, negatives=4, window=3, epochs=2,
                             subsample=None, min_count=1, seed=3)
        plain = train_sgns(lines, vocab, cfg, progress=open("/dev/null", "w"))
        empty = ContrastLexicon.from_pairs([], [])
        contrast = train_dlce(lines, vocab, cfg, empty, _full_index(len(vocab)),
                              progress=open("/dev/null", "w"))
        np.testing.assert_array_equal(plain.W, contrast.W)
        np.testing.assert_array_equal(plain.C, contrast.C)

    def test_lexicon_pulls_synonyms_and_pushes_antonyms(self):
        lines = _toy_corpus(np.random.default_rng(17))
        vocab = build_vocabulary(lines, min_count=1)
        cfg = TrainingConfig(dim=8, negatives=4, window=3, epochs=4,
                             subsample=None, min_count=1, seed=2,
                             learning_rate=0.05, contrast_coefficient=1.0)
        plain = train_sgns(lines, vocab, cfg, progress=open("/dev/null", "w"))
        lex = ContrastLexicon.from_pairs([("w0", "w1")], [("w0", "w2")])
        tuned = train_dlce(lines, vocab, cfg, lex, _full_index(len(vocab)),
                           progress=open("/dev/null", "w"))

        def cos(model, a, b):
            va = model.W[vocab.id_of(a)]
            vb = model.W[vocab.id_of(b)]
            return float(va @ vb) / (np.linalg.norm(va) * np.linalg.norm(vb))

        assert cos(tuned, "w0", "w1") > cos(plain, "w0", "w1")
        assert cos(tuned, "w0", "w2") < cos(plain, "w0", "w2")

    def test_zero_coefficient_matches_plain_sgns(self):
        lines = _toy_corpus(np.random.default_rng(18), n_lines=50)
        vocab = build_vocabulary(lines, min_count=1)
        cfg = TrainingConfig(dim=5, negatives=3, window=2, epochs=1,
                             subsample=None, min_count=1, contrast_coefficient=0.0)
        lex = ContrastLexicon.from_pairs([("w0", "w1")], [("w0", "w2")])
        tuned = train_dlce(lines, vocab, cfg, lex, _full_index(len(vocab)),
                           progress=open("/dev/null", "w"))
        plain = train_sgns(lines, vocab, cfg, progress=open("/dev/null", "w"))
        np.testing.assert_allclose(tuned.W, plain.W, atol=1e-15)
        np.testing.assert_allclose(tuned.C, plain.C, atol=1e-15)

    def test_apply_ascends_the_contrast_value(self):
        rng = np.random.default_rng(19)
        vocab = Vocabulary.from_counts({f"w{i}": 10 - i for i in range(6)})
        lex = ContrastLexicon.from_pairs([("w0", "w1"), ("w0", "w2")], [("w0", "w3")])
        cfg = TrainingConfig(dim=5, min_count=1, contrast_coefficient=1.0)
        state = _ContrastState(lex, vocab, _full_index(6), cfg)
        W = rng.standard_normal((6, 5))
        sets = state.pair_sets(0, 4)
        assert sets is not None
        before = contrast_value(W, 0, sets[0], sets[1])
        state.apply(W, 0, 4, alpha=1e-3)
        after = contrast_value(W, 0, sets[0], sets[1])
        assert after > before

    def test_neighbor_cap_is_deterministic(self):
        vocab = Vocabulary.from_counts({f"w{i}": 10 - i for i in range(8)})
        syn_pairs = [("w0", f"w{i}") for i in range(1, 7)]
        lex = ContrastLexicon.from_pairs(syn_pairs, [])
        cfg = TrainingConfig(dim=4, min_count=1, max_contrast_neighbors=2, seed=9)
        a = _ContrastState(lex, vocab, _full_index(8), cfg)
        b = _ContrastState(lex, vocab, _full_index(8), cfg)
        sa = a.pair_sets(0, 7)
        sb = b.pair_sets(0, 7)
        assert len(sa[0]) == 2
        np.testing.assert_array_equal(sa[0], sb[0])
        # uncapped set keeps every holder
        unc = _ContrastState(lex, vocab, _full_index(8),
                             TrainingConfig(dim=4, min_count=1))
        assert len(unc.pair_sets(0, 7)[0]) == 6

    def test_numpy_integer_ids_sample_like_python_ints(self):
        vocab = Vocabulary.from_counts({f"w{i}": 10 - i for i in range(8)})
        lex = ContrastLexicon.from_pairs([("w0", f"w{i}") for i in range(1, 7)], [])
        cfg = TrainingConfig(dim=4, min_count=1, max_contrast_neighbors=2, seed=9)
        a = _ContrastState(lex, vocab, _full_index(8), cfg)
        b = _ContrastState(lex, vocab, _full_index(8), cfg)
        np.testing.assert_array_equal(a.pair_sets(np.int32(0), np.int32(7))[0], b.pair_sets(0, 7)[0])

    def test_capped_training_completes_and_is_deterministic(self):
        world = build_world(7, sentences=3000)
        vocab = build_vocabulary(world.lines, min_count=5)
        idx = build_feature_index(compute_lmi(count_cooccurrences(world.lines, vocab, 2), vocab))
        cfg = TrainingConfig(dim=10, negatives=3, window=2, subsample=None, min_count=5,
                             max_contrast_neighbors=1, seed=4)
        a = train_dlce(world.lines, vocab, cfg, world.lexicon, idx)
        b = train_dlce(world.lines, vocab, cfg, world.lexicon, idx)
        np.testing.assert_array_equal(a.W, b.W)
        np.testing.assert_array_equal(a.C, b.C)

    def test_pair_sets_cached(self):
        vocab = Vocabulary.from_counts({"a": 3, "b": 2, "c": 1})
        lex = ContrastLexicon.from_pairs([("a", "b")], [])
        state = _ContrastState(lex, vocab, _full_index(3),
                               TrainingConfig(dim=2, min_count=1))
        first = state.pair_sets(0, 2)
        assert state.pair_sets(0, 2) is first

    def test_word_outside_lexicon_gets_no_contrast(self):
        vocab = Vocabulary.from_counts({"a": 3, "b": 2, "c": 1})
        lex = ContrastLexicon.from_pairs([("a", "b")], [])
        state = _ContrastState(lex, vocab, _full_index(3),
                               TrainingConfig(dim=2, min_count=1))
        assert state.pair_sets(2, 0) is None

    def test_restrictive_index_blocks_contrast(self):
        # the context word must be a shared feature of the neighbor
        vocab = Vocabulary.from_counts({"a": 3, "b": 2, "c": 1})
        lex = ContrastLexicon.from_pairs([("a", "b")], [])
        idx = FeatureOccurrenceIndex({0: frozenset({0}), 1: frozenset({0})})
        state = _ContrastState(lex, vocab, idx, TrainingConfig(dim=2, min_count=1))
        assert state.pair_sets(0, 1) is None
        assert state.pair_sets(0, 5) is None
