"""Vocabulary building, subsampling, and windowed co-occurrence counting."""

import math

import numpy as np
import pytest

from lexcontrast.corpus import (
    CorpusError,
    Vocabulary,
    build_vocabulary,
    count_cooccurrences,
    discard_probabilities,
    encode_lines,
    read_counts,
    read_vocabulary,
    subsample_ids,
    write_counts,
    write_vocabulary,
)


def _random_lines(rng, n_tokens, vocab_size, max_line=40):
    words = [f"w{i}" for i in range(vocab_size)]
    lines, left = [], n_tokens
    while left > 0:
        take = min(int(rng.integers(1, max_line + 1)), left)
        lines.append([words[i] for i in rng.integers(0, vocab_size, take)])
        left -= take
    return lines


class TestVocabulary:
    def test_min_count_filters(self):
        vocab = build_vocabulary([["a", "a", "a", "b"]], min_count=2)
        assert list(vocab.words) == ["a"]
        assert vocab.count_of(0) == 3

    def test_ordering_by_frequency_then_word(self):
        vocab = build_vocabulary([["a", "a", "a", "b"]], min_count=1)
        assert list(vocab.words) == ["a", "b"]
        assert vocab.id_of("a") == 0 and vocab.id_of("b") == 1
        # tie on count falls back to lexicographic order
        tied = build_vocabulary([["z", "y", "z", "y"]], min_count=1)
        assert list(tied.words) == ["y", "z"]

    def test_empty_stream(self):
        vocab = build_vocabulary([], min_count=1)
        assert len(vocab) == 0
        assert vocab.total_tokens == 0

    def test_bad_min_count(self):
        with pytest.raises(CorpusError):
            build_vocabulary([["a"]], min_count=0)

    def test_ids_dense_and_unique(self):
        rng = np.random.default_rng(0)
        lines = _random_lines(rng, 500, 30)
        vocab = build_vocabulary(lines, min_count=1)
        assert sorted(vocab.word_ids.values()) == list(range(len(vocab)))
        assert len(set(vocab.words)) == len(vocab)
        assert (vocab.counts >= 1).all()

    def test_round_trip(self, tmp_path):
        vocab = build_vocabulary([["b", "a", "b", "c", "b", "a"]], min_count=1)
        path = tmp_path / "vocab.tsv"
        write_vocabulary(path, vocab, meta={"note": "test"})
        loaded = read_vocabulary(path)
        assert loaded.words == vocab.words
        np.testing.assert_array_equal(loaded.counts, vocab.counts)
        assert loaded.word_ids == vocab.word_ids
        assert loaded.total_tokens == vocab.total_tokens

    def test_read_rejects_gapped_ids(self, tmp_path):
        path = tmp_path / "vocab.tsv"
        path.write_text("a\t0\t5\nb\t2\t3\n")
        with pytest.raises(CorpusError):
            read_vocabulary(path)

    def test_read_rejects_duplicate_words(self, tmp_path):
        path = tmp_path / "vocab.tsv"
        path.write_text("a\t0\t5\na\t1\t3\n")
        with pytest.raises(CorpusError):
            read_vocabulary(path)


class TestSubsampling:
    def test_discard_probability_formula(self):
        # f(w) = 1e-3 at threshold 1e-5 discards with probability 1 - 0.1
        vocab = Vocabulary.from_counts({"x": 1, "y": 999})
        probs = discard_probabilities(vocab, 1e-5)
        f = vocab.relative_frequencies()
        assert f[vocab.id_of("x")] == pytest.approx(1e-3)
        assert probs[vocab.id_of("x")] == pytest.approx(0.9)

    def test_rare_word_never_discarded(self):
        vocab = Vocabulary.from_counts({"rare": 1, "common": 10**6})
        probs = discard_probabilities(vocab, 1e-5)
        # f(rare) ~ 1e-6 <= t, so discard probability clamps to 0
        assert probs[vocab.id_of("rare")] == 0.0
        assert probs[vocab.id_of("common")] > 0.9

    def test_empirical_discard_rate(self):
        # one word, known discard probability, many tokens: observed rate
        # should sit within ~4 sigma of the binomial expectation
        vocab = Vocabulary.from_counts({"a": 900, "b": 100})
        probs = discard_probabilities(vocab, 0.01)
        p = probs[vocab.id_of("a")]
        assert 0.0 < p < 1.0
        n = 200_000
        ids = [np.full(n, vocab.id_of("a"), dtype=np.int64)]
        kept = subsample_ids(ids, probs, np.random.default_rng(7))
        observed = 1.0 - len(kept[0]) / n
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(observed - p) < 4 * sigma



def _brute_force_counts(lines, vocab, window):
    """Independent oracle: double loop over positions within each line."""
    pairs: dict[tuple[int, int], int] = {}
    for line in lines:
        ids = [vocab.word_ids[t] for t in line if t in vocab.word_ids]
        for i, wi in enumerate(ids):
            for j in range(max(0, i - window), min(len(ids), i + window + 1)):
                if j != i:
                    key = (wi, ids[j])
                    pairs[key] = pairs.get(key, 0) + 1
    return pairs


class TestCooccurrence:
    def test_window_one(self):
        vocab = build_vocabulary([["a", "b", "c"]], min_count=1)
        counts = count_cooccurrences([["a", "b", "c"]], vocab, 1)
        a, b, c = vocab.id_of("a"), vocab.id_of("b"), vocab.id_of("c")
        assert counts.to_dict() == {(a, b): 1, (b, a): 1, (b, c): 1, (c, b): 1}

    def test_window_two_adds_skip_pair(self):
        vocab = build_vocabulary([["a", "b", "c"]], min_count=1)
        d1 = count_cooccurrences([["a", "b", "c"]], vocab, 1).to_dict()
        d2 = count_cooccurrences([["a", "b", "c"]], vocab, 2).to_dict()
        a, c = vocab.id_of("a"), vocab.id_of("c")
        assert d2[(a, c)] == 1 and d2[(c, a)] == 1
        for key, value in d1.items():
            assert d2[key] == value

    def test_windows_close_over_oov_gaps(self):
        # the dropped middle token does not consume a window position
        vocab = build_vocabulary([["a", "b"]], min_count=1)
        counts = count_cooccurrences([["a", "zzz", "b"]], vocab, 1)
        a, b = vocab.id_of("a"), vocab.id_of("b")
        assert counts.to_dict() == {(a, b): 1, (b, a): 1}

    def test_lines_are_boundaries(self):
        vocab = build_vocabulary([["a"], ["b"]], min_count=1)
        counts = count_cooccurrences([["a"], ["b"]], vocab, 5)
        assert counts.to_dict() == {}

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(11)
        for trial in range(12):
            lines = _random_lines(rng, int(rng.integers(50, 2000)), int(rng.integers(2, 25)))
            vocab = build_vocabulary(lines, min_count=1)
            window = int(rng.integers(1, 7))
            counts = count_cooccurrences(lines, vocab, window)
            assert counts.to_dict() == _brute_force_counts(lines, vocab, window)

    def test_aggregate_symmetry(self):
        rng = np.random.default_rng(12)
        lines = _random_lines(rng, 3000, 15)
        vocab = build_vocabulary(lines, min_count=1)
        counts = count_cooccurrences(lines, vocab, 4)
        matrix = counts.to_csr().toarray()
        np.testing.assert_array_equal(matrix, matrix.T)

    def test_dynamic_window_is_seeded_and_contained(self):
        rng = np.random.default_rng(14)
        lines = _random_lines(rng, 1500, 10)
        vocab = build_vocabulary(lines, min_count=1)
        fixed = count_cooccurrences(lines, vocab, 5).to_dict()
        dyn1 = count_cooccurrences(lines, vocab, 5, dynamic_window=True, seed=21)
        dyn2 = count_cooccurrences(lines, vocab, 5, dynamic_window=True, seed=21)
        assert dyn1.to_dict() == dyn2.to_dict()
        for key, value in dyn1.to_dict().items():
            assert value <= fixed[key]

    def test_dynamic_window_one_equals_fixed(self):
        lines = [["a", "b", "c", "a", "b"]]
        vocab = build_vocabulary(lines, min_count=1)
        fixed = count_cooccurrences(lines, vocab, 1).to_dict()
        dyn = count_cooccurrences(lines, vocab, 1, dynamic_window=True, seed=5).to_dict()
        assert dyn == fixed

    def test_window_validation(self):
        vocab = build_vocabulary([["a", "b"]], min_count=1)
        with pytest.raises(CorpusError):
            count_cooccurrences([["a", "b"]], vocab, 0)

    def test_counts_round_trip(self, tmp_path):
        rng = np.random.default_rng(15)
        lines = _random_lines(rng, 800, 9)
        vocab = build_vocabulary(lines, min_count=1)
        counts = count_cooccurrences(lines, vocab, 2)
        path = tmp_path / "counts.tsv"
        write_counts(path, counts)
        loaded = read_counts(path)
        assert loaded.to_dict() == counts.to_dict()
        assert loaded.n_words == counts.n_words
        assert loaded.window == counts.window

    def test_read_counts_rejects_nonpositive(self, tmp_path):
        path = tmp_path / "counts.tsv"
        path.write_text("#n_words=3\n#window=2\n0\t1\t0\n")
        with pytest.raises(CorpusError):
            read_counts(path)

    def test_encode_drops_oov(self):
        vocab = build_vocabulary([["a", "b"]], min_count=1)
        encoded = encode_lines([["a", "x", "b", "y"]], vocab)
        assert encoded[0].tolist() == [vocab.id_of("a"), vocab.id_of("b")]
