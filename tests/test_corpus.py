"""Vocabulary building, subsampling, and windowed co-occurrence counting."""

import math
import tracemalloc
import warnings

import numpy as np
import oracles
import pytest

from lexcontrast.corpus import (
    CorpusError,
    Vocabulary,
    build_vocabulary,
    count_cooccurrences,
    discard_probabilities,
    encode_lines,
    read_corpus,
    read_counts,
    read_vocabulary,
    subsample_ids,
    window_keys,
    write_counts,
    write_vocabulary,
)
from lexcontrast.embeddings import TrainingConfig, _epoch_pairs, train_dlce, train_sgns
from lexcontrast.lexicon import ContrastLexicon, enrich_antonyms
from lexcontrast.weighting import build_feature_index, compute_lmi
from synthcorpus import build_world


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
        assert vocab.counts.tolist() == [3]

    def test_ordering_by_frequency_then_word(self):
        vocab = build_vocabulary([["a", "a", "a", "b"]], min_count=1)
        assert list(vocab.words) == ["a", "b"]
        assert vocab.word_ids["a"] == 0 and vocab.word_ids["b"] == 1
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

    def test_equality_is_over_words_and_counts(self):
        vocab = Vocabulary.from_counts({"a": 3, "b": 2})
        assert vocab == Vocabulary(("a", "b"), np.array([3, 2])) and not vocab != Vocabulary.from_counts({"a": 3, "b": 2})
        assert vocab != Vocabulary.from_counts({"a": 3, "b": 1})
        assert vocab != Vocabulary.from_counts({"a": 3, "c": 2})
        assert vocab != Vocabulary.from_counts({"a": 3})
        assert vocab != ("a", "b")

    def test_round_trip(self, tmp_path):
        vocab = build_vocabulary([["b", "a", "b", "c", "b", "a"]], min_count=1)
        path = tmp_path / "vocab.tsv"
        write_vocabulary(path, vocab, meta={"note": "test"})
        loaded = read_vocabulary(path)
        assert loaded.words == vocab.words
        np.testing.assert_array_equal(loaded.counts, vocab.counts)
        assert loaded.word_ids == vocab.word_ids
        assert loaded.total_tokens == vocab.total_tokens

    @pytest.mark.parametrize("meta, built", [
        ({"config": "corpus=a min_count=2.txt lowercase=True min_count=7"}, 7), ({"note": "test"}, None), (None, None),
    ], ids=["vocab-header", "other-header", "no-header"])
    def test_read_keeps_the_min_count_that_its_header_records(self, tmp_path, meta, built):
        vocab = build_vocabulary([["b", "a", "b", "c", "b", "a"]], min_count=2)
        assert vocab.min_count == 2
        write_vocabulary(tmp_path / "vocab.tsv", vocab, meta=meta)
        assert read_vocabulary(tmp_path / "vocab.tsv").min_count == built

    def test_round_trip_of_words_that_start_with_a_hash(self, tmp_path):
        # a row holds tabs and a `#key=value` header none, so a hashtag is a word, not a comment
        vocab = build_vocabulary([["#tbt", "hot", "cold"], ["hot", "#tbt", "#", "#a=b"]], min_count=1)
        path = tmp_path / "vocab.tsv"
        write_vocabulary(path, vocab, meta={"note": "test"})
        assert path.read_text().splitlines()[:2] == ["#note=test", "#tbt\t0\t2"]
        assert read_vocabulary(path) == vocab

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

    @pytest.mark.parametrize("count", ["-3", "0"])
    def test_read_rejects_counts_below_one(self, tmp_path, count):
        path = tmp_path / "vocab.tsv"
        path.write_text(f"#tool=x\na\t0\t5\nb\t1\t{count}\n")
        with pytest.raises(CorpusError, match=r"vocab\.tsv:3: .*column 3"):
            read_vocabulary(path)

    @pytest.mark.parametrize("reader, body, where", [
        (read_vocabulary, "a\t0\t5\nb\tone\t3\n", r"vocab\.tsv:2: .*'one'.*column 2"),
        (read_vocabulary, "a\t0\t5\nb\t1\n", r"vocab\.tsv:2: expected word<TAB>id<TAB>count"),
        (read_counts, "#n_words=3\n#window=2\n0\t1\t2\n1\t0\tfoo\n", r"vocab\.tsv:4: .*'foo'.*column 3"),
    ])
    def test_unparsable_fields_are_named(self, tmp_path, reader, body, where):
        path = tmp_path / "vocab.tsv"
        path.write_text(body)
        with pytest.raises(CorpusError, match=where):
            reader(path)


class TestSyntheticWorld:
    def test_more_mid_pairs_than_cross_concept_pairs_is_refused(self):
        # 3 concepts of 2 x 2 members have 3 * 4**2 = 48 cross-concept pairs, fewer than 60
        with pytest.raises(ValueError, match="n_mid_pairs=60 asks for more than the 48 cross-concept pairs"):
            build_world(0, n_concepts=3, pole_size=2, sentences=10)
        assert len(build_world(0, n_concepts=3, pole_size=2, sentences=10, n_mid_pairs=48).similarity_pairs.pairs) == 60


class TestSubsampling:
    def test_discard_probability_formula(self):
        # f(w) = 1e-3 at threshold 1e-5 discards with probability 1 - 0.1
        vocab = Vocabulary.from_counts({"x": 1, "y": 999})
        probs = discard_probabilities(vocab, 1e-5)
        assert vocab.counts[vocab.word_ids["x"]] / vocab.total_tokens == pytest.approx(1e-3)
        assert probs[vocab.word_ids["x"]] == pytest.approx(0.9)

    def test_rare_word_never_discarded(self):
        vocab = Vocabulary.from_counts({"rare": 1, "common": 10**6})
        probs = discard_probabilities(vocab, 1e-5)
        # f(rare) ~ 1e-6 <= t, so discard probability clamps to 0
        assert probs[vocab.word_ids["rare"]] == 0.0
        assert probs[vocab.word_ids["common"]] > 0.9

    def test_infinite_threshold_discards_nothing_without_a_warning(self):
        vocab = Vocabulary.from_counts({"rare": 1, "common": 10**6})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert discard_probabilities(vocab, math.inf).tolist() == [0.0, 0.0]

    def test_empirical_discard_rate(self):
        # one word, known discard probability, many tokens: observed rate
        # should sit within ~4 sigma of the binomial expectation
        vocab = Vocabulary.from_counts({"a": 900, "b": 100})
        probs = discard_probabilities(vocab, 0.01)
        p = probs[vocab.word_ids["a"]]
        assert 0.0 < p < 1.0
        n = 200_000
        ids = np.full(n, vocab.word_ids["a"], dtype=np.int64), np.zeros(n, dtype=np.int64)
        kept, _ = subsample_ids(ids, probs, np.random.default_rng(7))
        observed = 1.0 - len(kept) / n
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
        a, b, c = vocab.word_ids["a"], vocab.word_ids["b"], vocab.word_ids["c"]
        assert oracles.counts_dict(counts) == {(a, b): 1, (b, a): 1, (b, c): 1, (c, b): 1}

    def test_window_two_adds_skip_pair(self):
        vocab = build_vocabulary([["a", "b", "c"]], min_count=1)
        d1 = oracles.counts_dict(count_cooccurrences([["a", "b", "c"]], vocab, 1))
        d2 = oracles.counts_dict(count_cooccurrences([["a", "b", "c"]], vocab, 2))
        a, c = vocab.word_ids["a"], vocab.word_ids["c"]
        assert d2[(a, c)] == 1 and d2[(c, a)] == 1
        for key, value in d1.items():
            assert d2[key] == value

    def test_windows_close_over_oov_gaps(self):
        # the dropped middle token does not consume a window position
        vocab = build_vocabulary([["a", "b"]], min_count=1)
        counts = count_cooccurrences([["a", "zzz", "b"]], vocab, 1)
        a, b = vocab.word_ids["a"], vocab.word_ids["b"]
        assert oracles.counts_dict(counts) == {(a, b): 1, (b, a): 1}

    def test_lines_are_boundaries(self):
        vocab = build_vocabulary([["a"], ["b"]], min_count=1)
        counts = count_cooccurrences([["a"], ["b"]], vocab, 5)
        assert oracles.counts_dict(counts) == {}

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(11)
        for trial in range(12):
            lines = _random_lines(rng, int(rng.integers(50, 2000)), int(rng.integers(2, 25)))
            vocab = build_vocabulary(lines, min_count=1)
            window = int(rng.integers(1, 7))
            counts = count_cooccurrences(lines, vocab, window)
            assert oracles.counts_dict(counts) == _brute_force_counts(lines, vocab, window)

    def test_aggregate_symmetry(self):
        rng = np.random.default_rng(12)
        lines = _random_lines(rng, 3000, 15)
        vocab = build_vocabulary(lines, min_count=1)
        counts = count_cooccurrences(lines, vocab, 4)
        matrix = oracles.counts_csr(counts).toarray()
        np.testing.assert_array_equal(matrix, matrix.T)

    def test_dynamic_window_is_seeded_and_contained(self):
        rng = np.random.default_rng(14)
        lines = _random_lines(rng, 1500, 10)
        vocab = build_vocabulary(lines, min_count=1)
        fixed = oracles.counts_dict(count_cooccurrences(lines, vocab, 5))
        dyn1 = count_cooccurrences(lines, vocab, 5, dynamic_window=True, seed=21)
        dyn2 = count_cooccurrences(lines, vocab, 5, dynamic_window=True, seed=21)
        assert oracles.counts_dict(dyn1) == oracles.counts_dict(dyn2)
        for key, value in oracles.counts_dict(dyn1).items():
            assert value <= fixed[key]

    def test_dynamic_window_one_equals_fixed(self):
        lines = [["a", "b", "c", "a", "b"]]
        vocab = build_vocabulary(lines, min_count=1)
        fixed = oracles.counts_dict(count_cooccurrences(lines, vocab, 1))
        dyn = oracles.counts_dict(count_cooccurrences(lines, vocab, 1, dynamic_window=True, seed=5))
        assert dyn == fixed

    def test_window_validation(self):
        vocab = build_vocabulary([["a", "b"]], min_count=1)
        with pytest.raises(CorpusError):
            count_cooccurrences([["a", "b"]], vocab, 0)

    @pytest.mark.parametrize("window, bound", [(2, 48), (5, 56)])
    def test_counting_memory_per_token_is_bounded(self, window, bound):
        # tracemalloc peak of one call, in bytes per corpus token (204,887 tokens, 7,195 words):
        # 41 at window 2 and 46 at window 5 with uint32 keys filled into one array and sorted
        # in place; 66 and 87 with int64 keys, their chunks and np.unique's sorted copy
        text = encode_lines(build_world(5, n_concepts=300, sentences=41_000).lines)
        vocab = build_vocabulary(text, 5)
        tracemalloc.start()
        try:
            count_cooccurrences(text, vocab, window)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / len(text.tok) < bound

    def test_counts_round_trip(self, tmp_path):
        rng = np.random.default_rng(15)
        lines = _random_lines(rng, 800, 9)
        vocab = build_vocabulary(lines, min_count=1)
        counts = count_cooccurrences(lines, vocab, 2)
        path = tmp_path / "counts.tsv"
        write_counts(path, counts)
        loaded = read_counts(path)
        assert oracles.counts_dict(loaded) == oracles.counts_dict(counts)
        assert loaded.n_words == counts.n_words
        assert loaded.window == counts.window

    def test_read_counts_rejects_nonpositive(self, tmp_path):
        path = tmp_path / "counts.tsv"
        path.write_text("#n_words=3\n#window=2\n0\t1\t0\n")
        with pytest.raises(CorpusError):
            read_counts(path)

    @pytest.mark.parametrize("row", ["-1\t0\t2", "0\t-1\t2", "3\t0\t2", "0\t3\t2"])
    def test_read_counts_rejects_ids_outside_n_words(self, tmp_path, row):
        path = tmp_path / "counts.tsv"
        path.write_text(f"#n_words=3\n#window=2\n0\t1\t2\n{row}\n")
        with pytest.raises(CorpusError, match=r"counts\.tsv:4: id out of range"):
            read_counts(path)

    @pytest.mark.parametrize("row, where", [
        ("1\t0\t0", r"counts\.tsv:4: count below 1 \(bad count in column 3\)"),
        ("0\t3\t2", r"counts\.tsv:4: id out of range for n_words=3 \(bad feature in column 2\)"),
    ])
    def test_read_counts_bad_rows_name_the_line(self, tmp_path, row, where):
        path = tmp_path / "counts.tsv"
        path.write_text(f"#n_words=3\n#window=2\n0\t1\t2\n{row}\n")
        with pytest.raises(CorpusError, match=where):
            read_counts(path)

    @pytest.mark.parametrize("header, where", [
        ("#n_words=abc\n#window=2\n", "bad n_words header: invalid literal"),
        ("#n_words=-1\n#window=2\n", "bad n_words header: size outside 0"),
        ("#n_words=3\n#window=0\n", "bad window header: window below 1"),
        ("#n_words=3\n#window=2.0\n", "bad window header: invalid literal"),
        ("#n_words=3\n", "missing window header"),
    ])
    def test_read_counts_bad_headers_name_the_file_and_key(self, tmp_path, header, where):
        path = tmp_path / "counts.tsv"
        path.write_text(f"{header}0\t1\t2\n")
        with pytest.raises(CorpusError, match=rf"counts\.tsv: {where}"):
            read_counts(path)

    def test_read_counts_rejects_duplicate_cells(self, tmp_path):
        path = tmp_path / "counts.tsv"
        path.write_text("#n_words=3\n#window=2\n0\t1\t2\n1\t0\t2\n0\t1\t3\n")
        with pytest.raises(CorpusError, match="counts.tsv.*duplicate"):
            read_counts(path)

    def test_encode_drops_oov(self):
        vocab = build_vocabulary([["a", "b"]], min_count=1)
        tok, line = encode_lines([["a", "x", "b", "y"]]).ids(vocab)
        assert tok.tolist() == [vocab.word_ids["a"], vocab.word_ids["b"]]
        assert line.tolist() == [0, 0]

    def test_ids_are_int32_like_the_lines(self):
        # 4 bytes a token, as Corpus.tok: counting and both trainers hold these arrays for the whole corpus
        tok, line = encode_lines([["a", "x", "b"], ["b", "a"]]).ids(build_vocabulary([["a", "b"]], min_count=1))
        assert tok.dtype == line.dtype == np.int32


class TestKeyWidth:
    """Window keys are uint32 up to a scale of 65,536, whose largest key is
    (n-1) * n + n-1 = 2**32 - 1, and int64 above it."""

    @pytest.mark.parametrize("scale, dtype", [(65_536, np.uint32), (65_537, np.int64)])
    def test_window_keys_take_the_narrowest_type(self, scale, dtype):
        rng = np.random.default_rng(scale)
        tok = rng.integers(0, scale, 5_000)
        tok[:2] = scale - 1
        line_id = np.repeat(np.arange(500), 10)
        for eff in (None, rng.integers(1, 4, len(tok))):
            got = window_keys(tok, line_id, 3, scale, eff)
            assert got.dtype == dtype
            np.testing.assert_array_equal(got, oracles.window_keys(tok, line_id, 3, scale, eff))
            assert int(got.max()) == scale**2 - 1

    @pytest.mark.parametrize("n", [65_536, 65_537])
    @pytest.mark.parametrize("dynamic", [False, True])
    def test_counts_match_the_oracle_across_the_width(self, n, dynamic):
        rng = np.random.default_rng(n)
        words = [f"w{i:05d}" for i in range(n)]  # ids in this order: every count is 1
        vocab = Vocabulary.from_counts(dict.fromkeys(words, 1))
        lines = [[words[i] for i in rng.integers(0, n, int(rng.integers(1, 30)))] for _ in range(3_000)]
        lines.append([words[-1], words[-1], "oov", words[0], words[-1]])
        got = count_cooccurrences(lines, vocab, 3, dynamic_window=dynamic, seed=9)
        want = oracles.count_cooccurrences(lines, vocab, 3, dynamic_window=dynamic, seed=9)
        for field in ("targets", "features", "counts"):
            assert getattr(got, field).dtype == np.int64
            np.testing.assert_array_equal(getattr(got, field), getattr(want, field))
        assert (got.targets[-1], got.features[-1]) == (n - 1, n - 1)  # the largest key

    @pytest.mark.parametrize("n_tokens", [65_536, 65_537])
    def test_epoch_pairs_match_the_int64_oracle(self, n_tokens):
        rng = np.random.default_rng(n_tokens)
        vocab = Vocabulary.from_counts({f"w{i}": 1 for i in range(16)})
        ids = rng.integers(0, 16, n_tokens), np.sort(rng.integers(0, 2_000, n_tokens))
        cfg = TrainingConfig(dim=2, min_count=1, subsample=None, window=3)
        for got, want in zip(_epoch_pairs(ids, vocab, cfg, 0), oracles.epoch_pairs(ids, vocab, cfg, 0), strict=True):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)


class TestEncodedCorpus:
    TEXT = "The cat sat\n\nthe DOG  sat on the cat\ndog the  cat\n" * 20

    def test_read_corpus_keeps_lines_and_first_seen_types(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("b a\n\nA c b\n")
        text = read_corpus(path, lowercase=False)
        assert text.types == ("b", "a", "A", "c")
        assert text.tok.tolist() == [0, 1, 2, 3, 0]
        assert text.line.tolist() == [0, 0, 2, 2, 2]
        assert read_corpus(path).types == ("b", "a", "c")

    @pytest.mark.parametrize("lowercase", [True, False])
    def test_token_lines_and_read_corpus_agree(self, tmp_path, lowercase):
        path = tmp_path / "corpus.txt"
        path.write_text(self.TEXT)
        lines = [[t.lower() if lowercase else t for t in line.split()] for line in self.TEXT.splitlines()]
        text = read_corpus(path, lowercase=lowercase)
        vocab = build_vocabulary(lines, min_count=2)
        assert build_vocabulary(text, min_count=2) == vocab
        for dynamic in (False, True):
            got = count_cooccurrences(text, vocab, 2, dynamic_window=dynamic, seed=3)
            want = count_cooccurrences(lines, vocab, 2, dynamic_window=dynamic, seed=3)
            for field in ("targets", "features", "counts"):
                np.testing.assert_array_equal(getattr(got, field), getattr(want, field))
        idx = build_feature_index(compute_lmi(count_cooccurrences(lines, vocab, 2), vocab))
        lex = enrich_antonyms(ContrastLexicon.from_pairs([("cat", "dog")], [("sat", "on")]))
        cfg = TrainingConfig(dim=4, negatives=2, window=2, min_count=2, subsample=0.05, epochs=2, seed=4)
        for train in (lambda x: train_sgns(x, vocab, cfg), lambda x: train_dlce(x, vocab, cfg, lex, idx)):
            got, want = train(text), train(lines)
            np.testing.assert_array_equal(got.W, want.W)
            np.testing.assert_array_equal(got.C, want.C)
