"""LMI scoring and the lexical-contrast re-weighting, checked against a
dense double-loop oracle that shares no code with the implementation."""

import math
import warnings

import numpy as np
import oracles
import pytest
from scipy import sparse

from lexcontrast.corpus import (
    CooccurrenceCounts,
    Vocabulary,
    build_vocabulary,
    count_cooccurrences,
    read_counts,
    write_counts,
)
from lexcontrast.lexicon import ContrastLexicon, enrich_antonyms
from lexcontrast.weighting import (
    SCHEME_LMI,
    SCHEME_SA,
    WeightedMatrix,
    WeightingError,
    build_feature_index,
    compute_lmi,
    compute_weight_sa,
    pair_cosines,
    read_weighted,
    write_weighted,
)


def _counts_from_dict(n_words, cells):
    items = sorted(cells.items())
    t = np.array([k[0] for k, _ in items], dtype=np.int64)
    f = np.array([k[1] for k, _ in items], dtype=np.int64)
    c = np.array([v for _, v in items], dtype=np.int64)
    return CooccurrenceCounts(n_words, 1, t, f, c)


def _lmi_oracle(n_words, cells):
    """Dense LMI: value(w,f) = c * log2(c * N / (marg_w * marg_f)), keep > 0."""
    total = sum(cells.values())
    row = {}
    col = {}
    for (w, f), c in cells.items():
        row[w] = row.get(w, 0) + c
        col[f] = col.get(f, 0) + c
    dense = np.zeros((n_words, n_words))
    for (w, f), c in cells.items():
        value = c * math.log2(c * total / (row[w] * col[f]))
        if value > 0:
            dense[w, f] = value
    return dense


class TestLmi:
    def test_uniform_table_scores_nothing(self):
        # all four cells equal: every ratio inside the log is 1
        cells = {(0, 0): 3, (0, 1): 3, (1, 0): 3, (1, 1): 3}
        lmi = compute_lmi(_counts_from_dict(2, cells))
        assert len(lmi) == 0
        assert lmi.shape == (2, 2)

    def test_single_cell_scores_zero_and_is_dropped(self):
        lmi = compute_lmi(_counts_from_dict(2, {(0, 1): 5}))
        assert len(lmi) == 0

    def test_association_beats_chance(self):
        # (0,1) co-occurs more than independence predicts, (0,2) less
        cells = {(0, 1): 9, (0, 2): 1, (3, 1): 1, (3, 2): 9}
        lmi = compute_lmi(_counts_from_dict(4, cells))
        dense = lmi.matrix.toarray()
        assert dense[0, 1] > 0 and dense[3, 2] > 0
        assert dense[0, 2] == 0 and dense[3, 1] == 0

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(2, 15))
            n_cells = int(rng.integers(1, n * n + 1))
            cells = {}
            for _ in range(n_cells):
                w, f = int(rng.integers(n)), int(rng.integers(n))
                cells[(w, f)] = int(rng.integers(1, 50))
            lmi = compute_lmi(_counts_from_dict(n, cells))
            np.testing.assert_allclose(
                lmi.matrix.toarray(), _lmi_oracle(n, cells), rtol=0, atol=1e-12
            )
            lmi.validate()

    def test_symmetric_counts_give_symmetric_lmi(self):
        lines = [["a", "b", "c", "a", "c", "b", "b"], ["c", "a", "a", "b"]]
        vocab = build_vocabulary(lines, min_count=1)
        counts = count_cooccurrences(lines, vocab, 2)
        dense = compute_lmi(counts, vocab).matrix.toarray()
        np.testing.assert_allclose(dense, dense.T, rtol=0, atol=1e-12)

    def test_vocab_size_mismatch(self):
        vocab = Vocabulary.from_counts({"a": 1, "b": 1, "c": 1})
        with pytest.raises(WeightingError):
            compute_lmi(_counts_from_dict(2, {(0, 1): 2}), vocab)

    @pytest.mark.parametrize("source", ["cells", "one-token lines", "file"])
    @pytest.mark.parametrize("n", [0, 3])
    def test_empty_count_table_gives_an_empty_lmi_matrix(self, tmp_path, source, n):
        """No cell: an empty (n, n) float64 LMI matrix, without a warning, whatever made the table."""
        if source == "cells":
            counts = _counts_from_dict(n, {})
        else:
            lines = [[f"w{i}"] for i in range(n)]
            counts = count_cooccurrences(lines, build_vocabulary(lines, min_count=1), 2)
            if source == "file":
                write_counts(tmp_path / "c.tsv", counts)
                counts = read_counts(tmp_path / "c.tsv")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lmi = compute_lmi(counts)
        assert (lmi.scheme, lmi.shape, lmi.matrix.nnz, lmi.matrix.dtype) == (SCHEME_LMI, (n, n), 0, np.float64)
        assert lmi.matrix.format == "csr"


class TestCosine:
    def test_identities(self):
        v = np.array([1.0, 2.0, 3.0])
        rows = np.array([v, -v, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], np.zeros(3)])
        for matrix in (rows, sparse.csr_matrix(rows)):
            got = pair_cosines(matrix, [0, 0, 2, 4], [0, 1, 3, 0])
            np.testing.assert_allclose(got, [1.0, -1.0, 0.0, 0.0], rtol=0, atol=1e-15)
        assert len(pair_cosines(rows, [], [])) == 0


class TestFeatureIndex:
    def test_inverts_columns_exactly(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            n, m = int(rng.integers(2, 10)), int(rng.integers(2, 10))
            dense = rng.random((n, m)) * (rng.random((n, m)) > 0.6)
            wm = WeightedMatrix(SCHEME_LMI, sparse.csr_matrix(dense))
            idx = build_feature_index(wm)
            assert idx.shape == (n, m)
            np.testing.assert_array_equal(idx.toarray(), (dense > 0).astype(np.float64))

    def test_requires_lmi_scheme(self):
        wm = WeightedMatrix(SCHEME_SA, sparse.csr_matrix((2, 2)))
        with pytest.raises(WeightingError):
            build_feature_index(wm)

    def test_absent_feature_is_empty(self):
        dense = np.array([[1.0, 0.0, 2.0], [0.5, 0.0, 0.0]])
        idx = build_feature_index(WeightedMatrix(SCHEME_LMI, sparse.csr_matrix(dense)))
        assert idx[:, 1].nnz == 0

    def test_index_of_another_shape_is_refused(self):
        rng = np.random.default_rng(3)
        dense, wm, lex, vocab = _random_instance(rng)
        n, m = wm.shape
        for shape in ((n, m + 1), (n + 1, m)):
            with pytest.raises(WeightingError, match="shape"):
                compute_weight_sa(wm, sparse.csr_matrix(shape), lex, vocab)


def _sa_oracle(lmi_dense, lex, vocab, ant_mean):
    """Direct per-cell evaluation of the contrast weight on dense rows.

    Returns (weights, in_lexicon_row_mask). Cells of words outside the
    lexicon are left at zero and flagged via the mask.
    """
    n, m = lmi_dense.shape

    def cos(a, b):
        na, nb = np.linalg.norm(lmi_dense[a]), np.linalg.norm(lmi_dense[b])
        if na == 0.0 or nb == 0.0:
            return 0.0
        return float(lmi_dense[a] @ lmi_dense[b]) / float(na * nb)

    ids = vocab.word_ids
    out = np.zeros((n, m))
    in_lex = np.zeros(n, dtype=bool)
    for word in lex.words():
        if word not in ids:
            continue
        w = ids[word]
        in_lex[w] = True
        syns = [ids[u] for u in lex.synonyms(word) if u in ids]
        for f in range(m):
            if lmi_dense[w, f] <= 0.0:
                continue
            holders = set(np.nonzero(lmi_dense[:, f] > 0)[0].tolist())
            syn_vals = [cos(w, u) for u in syns if u in holders]
            term1 = float(np.mean(syn_vals)) if syn_vals else 0.0
            pooled = []
            grouped = []
            for opp in lex.ant_enriched.get(word, frozenset()):
                if opp not in ids:
                    continue
                a = ids[opp]
                vals = [
                    cos(a, ids[v])
                    for v in lex.synonyms(opp)
                    if v in ids and ids[v] in holders
                ]
                if vals:
                    pooled.extend(vals)
                    grouped.append(float(np.mean(vals)))
            if ant_mean == "pooled":
                term2 = float(np.mean(pooled)) if pooled else 0.0
            else:
                term2 = float(np.mean(grouped)) if grouped else 0.0
            out[w, f] = term1 - term2
    return out, in_lex


def _random_instance(rng, max_words=12, max_features=10):
    n = int(rng.integers(3, max_words + 1))
    m = int(rng.integers(3, max_features + 1))
    dense = rng.random((n, m)) * (rng.random((n, m)) > 0.4)
    words = [f"w{i}" for i in range(n)]
    vocab = Vocabulary.from_counts({w: n - i for i, w in enumerate(words)})

    def draw_pairs(k):
        pairs = set()
        for _ in range(k):
            a, b = rng.choice(n, size=2, replace=False)
            pairs.add((words[a], words[b]))
        return pairs

    lex = enrich_antonyms(
        ContrastLexicon.from_pairs(
            draw_pairs(int(rng.integers(0, 8))), draw_pairs(int(rng.integers(0, 6)))
        )
    )
    wm = WeightedMatrix(SCHEME_LMI, sparse.csr_matrix(dense))
    return dense, wm, lex, vocab


class TestContrastWeighting:
    def test_matches_dense_oracle_both_modes(self):
        rng = np.random.default_rng(5)
        for trial in range(30):
            dense, wm, lex, vocab = _random_instance(rng)
            idx = build_feature_index(wm)
            for mode in ("pooled", "per-antonym"):
                got = compute_weight_sa(wm, idx, lex, vocab, ant_mean=mode)
                expected, in_lex = _sa_oracle(dense, lex, vocab, mode)
                np.testing.assert_allclose(
                    got.matrix.toarray(), expected, rtol=0, atol=1e-12
                )
                for w in range(dense.shape[0]):
                    if not in_lex[w]:
                        assert got.matrix[w].nnz == 0

    def test_sign_structure(self):
        # features held only by a word's own side score positive, features
        # held only by the opposite side score negative, shared features
        # land near zero
        words = ["hot", "warm", "cold", "chilly"]
        vocab = Vocabulary.from_counts({w: 10 - i for i, w in enumerate(words)})
        #                 f0    f1    f2    f3
        dense = np.array(
            [
                [3.0, 0.2, 1.0, 2.0],  # hot: f1 is a small contamination cell
                [2.5, 0.0, 1.1, 0.0],  # warm
                [0.0, 3.0, 0.9, 0.0],  # cold
                [0.0, 2.8, 1.0, 0.0],  # chilly
            ]
        )
        wm = WeightedMatrix(SCHEME_LMI, sparse.csr_matrix(dense))
        lex = enrich_antonyms(
            ContrastLexicon.from_pairs(
                [("hot", "warm"), ("cold", "chilly")], [("hot", "cold")]
            )
        )
        sa = compute_weight_sa(wm, build_feature_index(wm), lex, vocab).matrix.toarray()
        assert sa[0, 0] > 0.0  # hot-side feature
        assert sa[0, 1] < 0.0  # cold-side feature
        assert abs(sa[0, 2]) < min(sa[0, 0], -sa[0, 1])  # shared feature

    def test_ant_mean_modes_disagree_when_pair_counts_differ(self):
        # enrichment expands A*(w) = {a1, a2, s1, s2, s3}; a1 contributes two
        # pairs while every other member contributes one, so the pooled mean
        # and the mean of per-member means disagree
        words = ["w", "a1", "a2", "s1", "s2", "s3"]
        vocab = Vocabulary.from_counts({w: 10 - i for i, w in enumerate(words)})
        rng = np.random.default_rng(6)
        dense = rng.random((6, 5)) + 0.1  # fully dense: every word holds every feature
        wm = WeightedMatrix(SCHEME_LMI, sparse.csr_matrix(dense))
        lex = enrich_antonyms(
            ContrastLexicon.from_pairs(
                [("a1", "s1"), ("a1", "s2"), ("a2", "s3")],
                [("w", "a1"), ("w", "a2")],
            )
        )
        idx = build_feature_index(wm)
        pooled = compute_weight_sa(wm, idx, lex, vocab, ant_mean="pooled")
        grouped = compute_weight_sa(wm, idx, lex, vocab, ant_mean="per-antonym")

        def cos(a, b):
            return float(dense[a] @ dense[b]) / (
                np.linalg.norm(dense[a]) * np.linalg.norm(dense[b])
            )

        # hand evaluation for the cell (w, 0): no synonyms of w, so the
        # weight is minus the antonym term; members pair with their own
        # synonyms, so each cosine appears once per direction
        c11, c12, c23 = cos(1, 3), cos(1, 4), cos(2, 5)
        want_pooled = -(2 * c11 + 2 * c12 + 2 * c23) / 6.0
        want_grouped = -((c11 + c12) / 2.0 + c23 + c11 + c12 + c23) / 5.0
        assert pooled.matrix[0, 0] == pytest.approx(want_pooled, abs=1e-12)
        assert grouped.matrix[0, 0] == pytest.approx(want_grouped, abs=1e-12)
        assert pooled.matrix[0, 0] != grouped.matrix[0, 0]

    def test_empty_lexicon_drops_everything(self):
        rng = np.random.default_rng(7)
        dense, wm, _, vocab = _random_instance(rng)
        empty = ContrastLexicon.from_pairs([], [])
        sa = compute_weight_sa(wm, build_feature_index(wm), empty, vocab)
        assert len(sa) == 0
        assert sa.scheme == SCHEME_SA

    def test_fallback_keeps_lmi_rows_for_uncovered_words(self):
        rng = np.random.default_rng(8)
        dense, wm, lex, vocab = _random_instance(rng)
        idx = build_feature_index(wm)
        strict = compute_weight_sa(wm, idx, lex, vocab)
        fallback = compute_weight_sa(wm, idx, lex, vocab, fallback_lmi=True)
        covered = {vocab.word_ids[w] for w in lex.words() if w in vocab.word_ids}
        for w in range(dense.shape[0]):
            got = fallback.matrix[w].toarray().ravel()
            if w in covered:
                np.testing.assert_array_equal(got, strict.matrix[w].toarray().ravel())
            else:
                np.testing.assert_array_equal(got, dense[w])

    def test_validate_flags_fallback_passthrough_rows(self):
        # passthrough rows keep raw LMI magnitudes, which the pure contrast
        # scheme's [-1, 1] check rejects by design
        words = ["w", "s", "x"]
        vocab = Vocabulary.from_counts({w: 3 - i for i, w in enumerate(words)})
        dense = np.array([[5.0, 0.0], [4.0, 1.0], [9.0, 3.0]])
        wm = WeightedMatrix(SCHEME_LMI, sparse.csr_matrix(dense))
        lex = enrich_antonyms(ContrastLexicon.from_pairs([("w", "s")], []))
        strict = compute_weight_sa(wm, build_feature_index(wm), lex, vocab)
        strict.validate()
        mixed = compute_weight_sa(
            wm, build_feature_index(wm), lex, vocab, fallback_lmi=True
        )
        with pytest.raises(WeightingError):
            mixed.validate()

    def test_support_contained_in_lmi_support(self):
        rng = np.random.default_rng(9)
        for _ in range(15):
            dense, wm, lex, vocab = _random_instance(rng)
            sa = compute_weight_sa(wm, build_feature_index(wm), lex, vocab)
            sa_support = set(zip(*sa.matrix.nonzero()))
            lmi_support = set(zip(*wm.matrix.nonzero()))
            assert sa_support <= lmi_support
            sa.validate()

    def test_deterministic(self):
        rng = np.random.default_rng(10)
        dense, wm, lex, vocab = _random_instance(rng)
        idx = build_feature_index(wm)
        first = compute_weight_sa(wm, idx, lex, vocab)
        second = compute_weight_sa(wm, idx, lex, vocab)
        np.testing.assert_array_equal(
            first.matrix.toarray(), second.matrix.toarray()
        )

    def test_guards(self):
        rng = np.random.default_rng(11)
        dense, wm, lex, vocab = _random_instance(rng)
        idx = build_feature_index(wm)
        sa = WeightedMatrix(SCHEME_SA, sparse.csr_matrix(dense.shape))
        with pytest.raises(WeightingError, match="expects an LMI matrix"):
            compute_weight_sa(sa, idx, lex, vocab)
        with pytest.raises(WeightingError, match="ant_mean"):
            compute_weight_sa(wm, idx, lex, vocab, ant_mean="mean")
        bare = ContrastLexicon.from_pairs([("w0", "w1")], [("w0", "w2")])
        with pytest.raises(WeightingError, match="enrich"):
            compute_weight_sa(wm, idx, bare, vocab)

    def test_oov_lexicon_words_ignored(self):
        words = ["a", "b"]
        vocab = Vocabulary.from_counts({w: 2 - i for i, w in enumerate(words)})
        dense = np.array([[1.0, 2.0], [2.0, 1.0]])
        wm = WeightedMatrix(SCHEME_LMI, sparse.csr_matrix(dense))
        # every related word is out of vocabulary: rows survive only via
        # lexicon membership of the target itself
        lex = enrich_antonyms(
            ContrastLexicon.from_pairs([("a", "zzz")], [("a", "qqq")])
        )
        sa = compute_weight_sa(wm, build_feature_index(wm), lex, vocab)
        # "a" is in the lexicon but all terms are empty -> all weights 0.0,
        # which are not stored; "b" is uncovered -> no row either
        assert len(sa) == 0


class TestWeightedIo:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(12)
        dense, wm, lex, vocab = _random_instance(rng)
        sa = compute_weight_sa(wm, build_feature_index(wm), lex, vocab)
        for matrix in (wm, sa):
            path = tmp_path / f"{matrix.scheme}.tsv"
            write_weighted(path, matrix)
            loaded = read_weighted(path)
            assert loaded.scheme == matrix.scheme
            assert loaded.shape == matrix.shape
            got, want = loaded.matrix, matrix.matrix
            np.testing.assert_array_equal(got.indptr, want.indptr)
            np.testing.assert_array_equal(got.indices, want.indices)
            # repr round-trip keeps float64 payloads bit-exact
            assert got.data.tobytes() == want.data.tobytes()

    def test_writers_match_the_per_cell_writers(self, tmp_path):
        rng = np.random.default_rng(31)
        words = [f"w{i}" for i in range(40)]
        lines = [[words[i] for i in rng.integers(0, 40, int(rng.integers(1, 30)))] for _ in range(200)]
        vocab = build_vocabulary(lines, min_count=1)
        counts = count_cooccurrences(lines, vocab, 3)
        lmi = compute_lmi(counts, vocab)
        syn = [(words[a], words[b]) for a, b in rng.integers(0, 40, (30, 2))]
        ant = [(words[a], words[b]) for a, b in rng.integers(0, 40, (20, 2))]
        lex = enrich_antonyms(ContrastLexicon.from_pairs(syn, ant))
        sa = compute_weight_sa(lmi, build_feature_index(lmi), lex, vocab, fallback_lmi=True)
        tiny = WeightedMatrix(SCHEME_SA, sparse.csr_matrix(np.array([[5e-324, -0.0], [0.0, -1e300]])))
        meta = {"tool": "lexcontrast", "stage": "test"}
        cases = [(write_counts, oracles.write_counts, counts)]
        cases += [(write_weighted, oracles.write_weighted, wm) for wm in (lmi, sa, tiny)]
        for new, old, table in cases:
            new(tmp_path / "new.tsv", table, meta)
            old(tmp_path / "old.tsv", table, meta)
            assert (tmp_path / "new.tsv").read_bytes() == (tmp_path / "old.tsv").read_bytes()
        assert len(sa) > len(lmi) // 2

    def test_readers_match_the_former_readers(self, tmp_path):
        rng = np.random.default_rng(37)
        words = [f"w{i}" for i in range(40)]
        lines = [[words[i] for i in rng.integers(0, 40, int(rng.integers(1, 30)))] for _ in range(200)]
        vocab = build_vocabulary(lines, min_count=1)
        counts = count_cooccurrences(lines, vocab, 3)
        lmi = compute_lmi(counts, vocab)
        lex = enrich_antonyms(ContrastLexicon.from_pairs(
            [(words[a], words[b]) for a, b in rng.integers(0, 40, (30, 2))],
            [(words[a], words[b]) for a, b in rng.integers(0, 40, (20, 2))]))
        sa = compute_weight_sa(lmi, build_feature_index(lmi), lex, vocab, ant_mean="per-antonym", fallback_lmi=True)
        meta = {"tool": "lexcontrast", "stage": "test"}
        oracles.write_counts(tmp_path / "counts.tsv", counts, meta)
        for wm in (lmi, sa):
            oracles.write_weighted(tmp_path / f"{wm.scheme}.tsv", wm, meta)
        # rows out of order, a wide SA table, and tables without cells
        (tmp_path / "shuffled.tsv").write_text("#n_words=3\n#window=1\n2\t0\t4\n0\t2\t1\n0\t1\t7\n")
        (tmp_path / "wide.tsv").write_text("#scheme=SA\n#n_words=2\n#n_features=5\n1\t4\t-0.0\n0\t3\t5e-324\n1\t0\t-1.5\n")
        (tmp_path / "no_counts.tsv").write_text("#n_words=0\n#window=2\n")
        (tmp_path / "no_weights.tsv").write_text("#scheme=LMI\n#n_words=4\n#n_features=4\n")
        for name in ("counts", "shuffled", "no_counts"):
            new, old = read_counts(tmp_path / f"{name}.tsv"), oracles.read_counts(tmp_path / f"{name}.tsv")
            assert (new.n_words, new.window) == (old.n_words, old.window)
            for field in ("targets", "features", "counts"):
                got, want = getattr(new, field), getattr(old, field)
                assert got.dtype == want.dtype == np.int64
                np.testing.assert_array_equal(got, want)
        for name in ("LMI", "SA", "wide", "no_weights"):
            new, old = read_weighted(tmp_path / f"{name}.tsv"), oracles.read_weighted(tmp_path / f"{name}.tsv")
            assert (new.scheme, new.shape) == (old.scheme, old.shape)
            for field in ("indptr", "indices", "data"):
                got, want = getattr(new.matrix, field), getattr(old.matrix, field)
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("key, value, error", [
        ("n_words", "abc", "invalid literal"), ("n_words", "-1", "size outside 0"),
        ("n_features", "2.0", "invalid literal"), ("scheme", "banana", "'banana' is not one of LMI, SA")])
    def test_bad_header_is_named(self, tmp_path, key, value, error):
        lines = {"scheme": "#scheme=SA", "n_words": "#n_words=2", "n_features": "#n_features=2"}
        lines[key] = f"#{key}={value}"
        path = tmp_path / "bad.tsv"
        path.write_text("\n".join(lines.values()) + "\n0\t1\t0.5\n")
        with pytest.raises(WeightingError, match=f"bad.tsv: bad {key} header: {error}"):
            read_weighted(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("#scheme=LMI\n#n_words=2\n0\t1\t0.5\n")
        with pytest.raises(WeightingError, match="n_features"):
            read_weighted(path)

    def test_duplicate_cells_rejected(self, tmp_path):
        path = tmp_path / "dup.tsv"
        path.write_text("#scheme=SA\n#n_words=2\n#n_features=2\n0\t1\t1.5\n0\t1\t2.5\n")
        with pytest.raises(WeightingError, match="dup.tsv.*duplicate"):
            read_weighted(path)

    @pytest.mark.parametrize("scheme", ["LMI", "SA"])
    @pytest.mark.parametrize("row", ["0\t5\t0.5", "0\t2\t0.5", "2\t0\t0.5", "-1\t0\t0.5", "0\t-1\t0.5"])
    def test_ids_outside_the_header_rejected(self, tmp_path, scheme, row):
        path = tmp_path / "ids.tsv"
        path.write_text(f"#scheme={scheme}\n#n_words=2\n#n_features=2\n0\t0\t1.0\n{row}\n")
        with pytest.raises(WeightingError, match="ids.tsv:5: id out of range"):
            read_weighted(path)

    @pytest.mark.parametrize("scheme", ["LMI", "SA"])
    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_weights_rejected(self, tmp_path, scheme, weight):
        path = tmp_path / "w.tsv"
        path.write_text(f"#scheme={scheme}\n#n_words=2\n#n_features=2\n0\t0\t0.5\n1\t1\t{weight}\n")
        with pytest.raises(WeightingError, match=r"w\.tsv:5: .*column 3"):
            read_weighted(path)

    @pytest.mark.parametrize("row", ["x\t0\t0.5", "0\t1.5\t0.5", "0\t0\tnope"])
    def test_unparsable_fields_are_named(self, tmp_path, row):
        path = tmp_path / "w.tsv"
        path.write_text(f"#scheme=SA\n#n_words=2\n#n_features=2\n{row}\n")
        with pytest.raises(WeightingError, match=r"w\.tsv:4: .*column"):
            read_weighted(path)

    @pytest.mark.parametrize("weight", ["-4.0", "0.0"])
    def test_lmi_weights_must_be_positive(self, tmp_path, weight):
        path = tmp_path / "lmi.tsv"
        path.write_text(f"#scheme=LMI\n#n_words=2\n#n_features=2\n0\t0\t1.0\n1\t1\t{weight}\n")
        with pytest.raises(WeightingError, match="lmi.tsv.*positive"):
            read_weighted(path)
