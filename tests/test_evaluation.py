"""Ranking metrics and report assembly, verified against brute-force
oracles and scipy's reference implementations."""

import math
import warnings

import numpy as np
import pytest
from scipy import stats

from lexcontrast.corpus import Vocabulary
from lexcontrast.evaluation import (
    ClassMetrics,
    EvalError,
    MetricReport,
    RelationPair,
    RelationPairSet,
    SimilarityPair,
    SimilarityPairSet,
    SparseRowTable,
    auc,
    average_precision,
    eval_ap,
    eval_auc,
    eval_spearman,
    load_relation_pairs,
    load_similarity_pairs,
    median_report,
    rank_classes,
    score_pairs,
    spearman,
)
from lexcontrast.vectors import DenseEmbeddings
from lexcontrast.weighting import SCHEME_LMI, WeightedMatrix

from scipy import sparse


def _ap_oracle(ranked, relevant):
    """Independent AP: average precision-at-k over a double loop."""
    precisions = []
    for k in range(1, len(ranked) + 1):
        if ranked[k - 1] == relevant:
            prefix = ranked[:k]
            precisions.append(sum(1 for x in prefix if x == relevant) / k)
    return sum(precisions) / len(precisions)


def _auc_oracle(scores, positive):
    """Independent AUC: all positive/negative pairs, ties worth half."""
    pos = [s for s, p in zip(scores, positive) if p]
    neg = [s for s, p in zip(scores, positive) if not p]
    wins = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                wins += 1.0
            elif sp == sn:
                wins += 0.5
    return wins / (len(pos) * len(neg))


class TestAveragePrecision:
    def test_worked_example(self):
        ranked = ["SYN", "SYN", "ANT", "ANT"]
        assert average_precision(ranked, "SYN") == pytest.approx(1.0)
        # ANT hits sit at ranks 3 and 4: (1/3 + 2/4) / 2
        assert average_precision(ranked, "ANT") == pytest.approx(5.0 / 12.0, abs=1e-12)

    def test_interleaved(self):
        assert average_precision(["ANT", "SYN", "ANT"], "ANT") == pytest.approx(
            (1.0 + 2.0 / 3.0) / 2.0, abs=1e-12
        )

    def test_all_relevant_is_one(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n = int(rng.integers(1, 20))
            assert average_precision(["SYN"] * n, "SYN") == 1.0

    def test_no_relevant_items(self):
        with pytest.raises(EvalError, match="no 'ANT' items"):
            average_precision(["SYN", "SYN"], "ANT")

    def test_matches_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(1, 60))
            ranked = [("SYN" if rng.random() < 0.5 else "ANT") for _ in range(n)]
            for label in ("SYN", "ANT"):
                if label not in ranked:
                    continue
                got = average_precision(ranked, label)
                assert got == pytest.approx(_ap_oracle(ranked, label), abs=1e-12)

    def test_precisions_are_summed_in_rank_order(self):
        # report bytes depend on the last bits: the sum must be the sequential one
        rng = np.random.default_rng(3)
        for _ in range(50):
            ranked = ["SYN" if x else "ANT" for x in rng.random(int(rng.integers(1, 3000))) < 0.3]
            ranked[0] = "SYN"
            hits, total = 0, 0.0
            for k, label in enumerate(ranked, start=1):
                if label == "SYN":
                    hits += 1
                    total += hits / k
            assert average_precision(ranked, "SYN") == total / hits

    def test_random_ranking_scores_near_class_prior(self):
        # uninformative rankings average out near the relevant-class
        # proportion (slightly above: early lucky hits weigh more)
        rng = np.random.default_rng(2)
        labels = ["SYN"] * 12 + ["ANT"] * 8
        values = []
        for _ in range(1000):
            perm = [labels[i] for i in rng.permutation(len(labels))]
            values.append(average_precision(perm, "SYN"))
        mean = float(np.mean(values))
        assert 0.60 <= mean <= 0.72
        assert float(np.std(values)) < 0.15


class TestAuc:
    def test_worked_example(self):
        got = auc([0.9, 0.8, 0.7, 0.1], [True, False, True, False])
        assert got == pytest.approx(0.75, abs=1e-12)

    def test_perfect_and_inverted(self):
        assert auc([0.9, 0.8, 0.2, 0.1], [True, True, False, False]) == 1.0
        assert auc([0.9, 0.8, 0.2, 0.1], [False, False, True, True]) == 0.0

    def test_ties_count_half(self):
        assert auc([0.5, 0.5], [True, False]) == 0.5

    def test_matches_oracle_with_ties(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(2, 50))
            scores = np.round(rng.random(n), 1)  # coarse grid forces ties
            positive = rng.random(n) < 0.5
            if positive.all() or not positive.any():
                continue
            got = auc(scores, positive)
            assert got == pytest.approx(_auc_oracle(scores, positive), abs=1e-12)

    def test_label_flip_complements(self):
        rng = np.random.default_rng(4)
        scores = rng.random(20)
        positive = rng.random(20) < 0.4
        positive[0], positive[1] = True, False
        assert auc(scores, positive) + auc(scores, ~positive) == pytest.approx(1.0, abs=1e-12)

    def test_negated_scores_swap_orientation(self):
        # detecting synonyms by high cosine is the same task as detecting
        # antonyms by low cosine: one AUC serves both orientations
        rng = np.random.default_rng(5)
        scores = rng.random(30)
        positive = rng.random(30) < 0.5
        positive[0], positive[1] = True, False
        assert auc(scores, positive) == pytest.approx(
            auc(-scores, ~positive), abs=1e-12
        )

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(6)
        scores = rng.standard_normal(25)
        positive = rng.random(25) < 0.5
        positive[0], positive[1] = True, False
        base = auc(scores, positive)
        assert auc(3.0 * scores + 1.0, positive) == pytest.approx(base, abs=1e-12)
        assert auc(np.exp(scores), positive) == pytest.approx(base, abs=1e-12)

    def test_needs_both_classes(self):
        with pytest.raises(EvalError, match="both"):
            auc([0.1, 0.2], [True, True])
        with pytest.raises(EvalError, match="length"):
            auc([0.1], [True, False])


class TestSpearman:
    def test_worked_examples(self):
        assert spearman([1, 2, 3, 4, 5], [10, 20, 30, 40, 50]) == pytest.approx(1.0)
        assert spearman([1, 2, 3, 4, 5], [5, 4, 3, 2, 1]) == pytest.approx(-1.0)
        # one adjacent swap in five items
        assert spearman([1, 2, 3, 5, 4], [1, 2, 3, 4, 5]) == pytest.approx(0.9, abs=1e-12)

    def test_matches_scipy_with_ties(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(3, 60))
            pred = np.round(rng.random(n), 1)
            gold = np.round(rng.random(n), 1)
            if len(set(pred.tolist())) < 2 or len(set(gold.tolist())) < 2:
                continue
            want = stats.spearmanr(pred, gold).statistic
            assert spearman(pred, gold) == pytest.approx(want, abs=1e-12)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(8)
        pred = rng.standard_normal(20)
        gold = rng.standard_normal(20)
        base = spearman(pred, gold)
        assert spearman(np.exp(pred), gold) == pytest.approx(base, abs=1e-12)

    def test_degenerate_inputs(self):
        with pytest.raises(EvalError, match="constant"):
            spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(EvalError, match="two pairs"):
            spearman([1.0], [1.0])
        with pytest.raises(EvalError, match="length"):
            spearman([1.0, 2.0], [1.0])


def _embeddings():
    words = ["hot", "warm", "cold", "wet"]
    matrix = np.array(
        [
            [1.0, 0.0, 0.0],
            [0.9, 0.1, 0.0],
            [-1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    return DenseEmbeddings(words, matrix)


class TestScoring:
    def test_cosine_scores_and_oov(self):
        emb = _embeddings()
        pairs = [
            RelationPair("hot", "hot", "SYN", "ADJ"),
            RelationPair("hot", "cold", "ANT", "ADJ"),
            RelationPair("hot", "missing", "SYN", "ADJ"),
        ]
        scored = score_pairs(emb, pairs)
        assert scored[0] == pytest.approx(1.0)
        assert scored[1] == pytest.approx(-1.0)
        assert np.isnan(scored[2])

    def test_sparse_table_matches_dense(self):
        rng = np.random.default_rng(10)
        dense = rng.random((4, 6)) * (rng.random((4, 6)) > 0.3)
        words = ["a", "b", "c", "d"]
        vocab = Vocabulary.from_counts({w: 4 - i for i, w in enumerate(words)})
        table = SparseRowTable(
            WeightedMatrix(SCHEME_LMI, sparse.csr_matrix(dense)), vocab
        )
        emb = DenseEmbeddings(words, dense)
        pairs = [
            RelationPair("a", "b", "SYN", "ADJ"),
            RelationPair("c", "d", "ANT", "ADJ"),
            RelationPair("a", "zzz", "SYN", "ADJ"),
        ]
        got = score_pairs(table, pairs)
        want = score_pairs(emb, pairs)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)  # NaN where `want` has NaN

    def test_sparse_table_shape_check(self):
        vocab = Vocabulary.from_counts({"a": 1})
        wm = WeightedMatrix(SCHEME_LMI, sparse.csr_matrix((3, 3)))
        with pytest.raises(EvalError, match="disagree"):
            SparseRowTable(wm, vocab)


class TestPairSets:
    def test_label_and_class_validation(self):
        with pytest.raises(EvalError, match="bad label"):
            RelationPairSet((RelationPair("a", "b", "SIM", "ADJ"),))
        with pytest.raises(EvalError, match="bad word class"):
            RelationPairSet((RelationPair("a", "b", "SYN", "ADV"),))

    def test_duplicate_unordered_pair_in_class(self):
        pairs = (
            RelationPair("a", "b", "SYN", "ADJ"),
            RelationPair("b", "a", "ANT", "ADJ"),
        )
        with pytest.raises(EvalError, match="duplicate"):
            RelationPairSet(pairs)
        # the same surface pair in another class is fine
        RelationPairSet(
            (
                RelationPair("a", "b", "SYN", "ADJ"),
                RelationPair("b", "a", "ANT", "NOUN"),
            )
        )

    def test_similarity_validation(self):
        with pytest.raises(EvalError, match="non-finite"):
            SimilarityPairSet((SimilarityPair("a", "b", math.nan),))
        with pytest.raises(EvalError, match="duplicate"):
            SimilarityPairSet(
                (SimilarityPair("a", "b", 1.0), SimilarityPair("b", "a", 2.0))
            )


class TestReports:
    def test_eval_ap_perfect_separation(self):
        # all synonym pairs above all antonym pairs: AP_SYN = 1 and AP_ANT
        # follows the bottom-block closed form (1/R) * sum_i i / (n - R + i)
        emb = _embeddings()
        pairs = RelationPairSet(
            (
                RelationPair("hot", "warm", "SYN", "ADJ"),
                RelationPair("warm", "hot", "SYN", "NOUN"),  # distinct class
                RelationPair("wet", "cold", "ANT", "NOUN"),
                RelationPair("hot", "cold", "ANT", "ADJ"),
                RelationPair("warm", "cold", "ANT", "ADJ"),
            )
        )
        report = eval_ap(emb, pairs)
        adj = report.classes["ADJ"]
        assert adj.ap_syn == 1.0
        n, r = 3, 2
        want = sum(i / (n - r + i) for i in range(1, r + 1)) / r
        assert adj.ap_ant == pytest.approx(want, abs=1e-12)
        assert adj.n_scored == adj.n_total == 3

    def test_eval_ap_tie_break_is_lexicographic_and_order_free(self):
        words = ["a", "b", "c", "d"]
        matrix = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        emb = DenseEmbeddings(words, matrix)
        # both pairs score exactly 1.0; tie resolves by (word1, word2)
        pairs = [
            RelationPair("c", "d", "ANT", "ADJ"),
            RelationPair("a", "b", "SYN", "ADJ"),
        ]
        fwd = eval_ap(emb, RelationPairSet(tuple(pairs)))
        rev = eval_ap(emb, RelationPairSet(tuple(reversed(pairs))))
        assert fwd.classes["ADJ"].ap_syn == rev.classes["ADJ"].ap_syn == 1.0
        assert fwd.classes["ADJ"].ap_ant == rev.classes["ADJ"].ap_ant == 0.5

    def test_eval_ap_oov_and_missing_label(self):
        emb = _embeddings()
        pairs = RelationPairSet(
            (
                RelationPair("hot", "warm", "SYN", "ADJ"),
                RelationPair("hot", "missing", "SYN", "ADJ"),
            )
        )
        with pytest.warns(UserWarning, match="no ANT pairs"):
            report = eval_ap(emb, pairs)
        adj = report.classes["ADJ"]
        assert adj.ap_ant is None
        assert adj.n_scored == 1 and adj.n_total == 2
        assert adj.coverage == 0.5
        assert adj.oov == [("hot", "missing")]

    def test_eval_ap_empty_class_listed_with_blank_fields(self):
        emb = _embeddings()
        pairs = RelationPairSet(
            (
                RelationPair("hot", "warm", "SYN", "ADJ"),
                RelationPair("gone", "missing", "SYN", "VERB"),
            )
        )
        with pytest.warns(UserWarning) as record:
            report = eval_ap(emb, pairs)
        verb = report.classes["VERB"]
        assert (verb.n_total, verb.n_scored, verb.coverage, verb.oov) == (1, 0, 0.0, [("gone", "missing")])
        assert verb.ap_syn is None and verb.ap_ant is None
        # one warning per blank field of a scored class, one per unscored class
        assert [str(w.message) for w in record] == ["class ADJ: no ANT pairs, AP_ANT unset",
                                                    "class VERB: no scorable pairs, fields blank"]

    def test_eval_auc_matches_direct_metric(self):
        emb = _embeddings()
        pairs = RelationPairSet(
            (
                RelationPair("hot", "warm", "SYN", "ADJ"),
                RelationPair("hot", "cold", "ANT", "ADJ"),
                RelationPair("warm", "cold", "ANT", "ADJ"),
            )
        )
        report = eval_auc(emb, pairs)
        scored = score_pairs(emb, pairs.pairs)
        want = auc(scored, [p.label == "SYN" for p in pairs.pairs])
        assert report.classes["ADJ"].auc == pytest.approx(want, abs=1e-15)

    def test_eval_auc_single_label_unset(self):
        emb = _embeddings()
        pairs = RelationPairSet((RelationPair("hot", "warm", "SYN", "ADJ"),))
        with pytest.warns(UserWarning, match="single-label"):
            report = eval_auc(emb, pairs)
        assert report.classes["ADJ"].auc is None

    def test_median_report_even_count_averages(self):
        words = ["a", "b", "c", "d", "e"]
        matrix = np.array(
            [[1.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [-1.0, 0.0]]
        )
        emb = DenseEmbeddings(words, matrix)
        pairs = RelationPairSet(
            (
                RelationPair("a", "b", "SYN", "ADJ"),  # cos 1
                RelationPair("a", "c", "SYN", "ADJ"),  # cos 1/sqrt(2)
                RelationPair("a", "d", "SYN", "ADJ"),  # cos 0
                RelationPair("a", "e", "SYN", "ADJ"),  # cos -1
            )
        )
        with pytest.warns(UserWarning, match="ANT"):
            report = median_report(emb, pairs)
        want = (0.0 + 1.0 / math.sqrt(2.0)) / 2.0
        assert report.classes["ADJ"].median_syn == pytest.approx(want, abs=1e-12)
        assert report.classes["ADJ"].median_ant is None

    def test_every_report_is_a_view_of_one_ranking(self):
        emb = _embeddings()
        pairs = RelationPairSet(
            (
                RelationPair("hot", "cold", "ANT", "ADJ"),
                RelationPair("hot", "warm", "SYN", "ADJ"),
                RelationPair("warm", "cold", "ANT", "ADJ"),
                RelationPair("wet", "missing", "SYN", "ADJ"),
                RelationPair("wet", "hot", "ANT", "NOUN"),
                RelationPair("gone", "missing", "SYN", "VERB"),
            )
        )
        ranked = rank_classes(emb, pairs)
        assert list(ranked.classes) == ["ADJ", "NOUN", "VERB"]
        adj = ranked.classes["ADJ"]
        assert (adj.n_total, adj.n_scored, adj.oov) == (4, 3, [("wet", "missing")])
        assert adj.ap_syn == adj.auc == 1.0 and adj.median_syn == pytest.approx(0.9 / math.sqrt(0.82))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            views = [eval_ap(emb, pairs), eval_auc(emb, pairs), median_report(emb, pairs)]
        assert [list(v.classes) for v in views] == [["ADJ", "NOUN", "VERB"]] * 3
        for view in views:
            for name, cm in view.classes.items():
                assert {k: v for k, v in vars(cm).items() if v is not None}.items() <= vars(ranked.classes[name]).items()

    @pytest.mark.parametrize("value", [1e308, 1e200, 1e-200])
    @pytest.mark.parametrize("layout", ["dense", "sparse"])
    def test_rows_far_from_one_are_scored(self, value, layout):
        """A pair of finite rows always scores; only an unrepresented word leaves it unscored."""
        words = ["a", "b", "c"]
        matrix = np.array([[value, value], [value, value], [value, 0.0]])
        vocab = Vocabulary.from_counts({w: 3 - i for i, w in enumerate(words)})
        vectors = (DenseEmbeddings(words, matrix) if layout == "dense"
                   else SparseRowTable(WeightedMatrix(SCHEME_LMI, sparse.csr_matrix(matrix)), vocab))
        pairs = [RelationPair("a", "b", "SYN", "ADJ"), RelationPair("a", "c", "ANT", "ADJ"),
                 RelationPair("b", "c", "ANT", "ADJ"), RelationPair("a", "zzz", "SYN", "ADJ")]
        cm = rank_classes(vectors, RelationPairSet(tuple(pairs))).classes["ADJ"]
        assert cm.n_scored + len(cm.oov) == cm.n_total == 4
        assert (cm.oov, cm.ap_syn, cm.auc) == ([("a", "zzz")], 1.0, 1.0)
        ratings = SimilarityPairSet(tuple(SimilarityPair(*p[:2], r) for p, r in zip(pairs, [9.0, 2.0, 1.0, 5.0])))
        report, n_scored, n_total = eval_spearman(vectors, ratings)
        assert (n_scored, n_total) == (3, 4)
        assert report.spearman == pytest.approx(math.sqrt(3) / 2, abs=1e-15)  # a-c and b-c tie

    def test_eval_spearman_coverage(self):
        emb = _embeddings()
        sim = SimilarityPairSet(
            (
                SimilarityPair("hot", "warm", 9.0),
                SimilarityPair("hot", "cold", 1.0),
                SimilarityPair("hot", "wet", 3.0),
                SimilarityPair("hot", "missing", 5.0),
            )
        )
        report, n_scored, n_total = eval_spearman(emb, sim)
        assert (n_scored, n_total) == (3, 4)
        got = [1.0, -1.0, 0.0]  # cosines in input order
        assert report.spearman == pytest.approx(spearman(got, [9.0, 1.0, 3.0]), abs=1e-15)

    def test_eval_spearman_undefined_rho_is_none_with_a_warning(self):
        """Where `spearman` raises, rho is unset and its reason is the warning:
        fewer than two scored pairs, constant cosines, constant ratings."""
        emb = _embeddings()
        emb = DenseEmbeddings([*emb.words, "nil", "void"], np.vstack([emb.matrix, np.zeros((2, 3))]))  # zero rows
        constant = "undefined: constant ranking"
        cases = [
            ([("hot", "missing", 5.0), ("hot", "warm", 9.0)], 1, "needs at least two pairs"),
            ([("nil", "hot", 5.0), ("void", "warm", 9.0), ("nil", "void", 1.0)], 3, constant),  # every cosine 0
            ([("hot", "warm", 5.0), ("hot", "cold", 5.0), ("warm", "wet", 5.0)], 3, constant),
        ]
        for rows, n_scored, reason in cases:
            with pytest.warns(UserWarning) as record:
                report, scored, total = eval_spearman(emb, SimilarityPairSet(tuple(SimilarityPair(*r) for r in rows)))
            assert report.spearman is None and "spearman" not in report.to_json_dict()
            assert (scored, total) == (n_scored, len(rows))
            assert [str(w.message) for w in record] == [f"rank correlation {reason}, rho unset"]

    def test_json_shape(self):
        report = MetricReport(
            classes={
                "ADJ": ClassMetrics(
                    n_total=4, n_scored=3, oov=[("a", "b")], ap_syn=0.5
                )
            },
            spearman=0.25,
        )
        data = report.to_json_dict()
        assert data["classes"]["ADJ"]["coverage"] == 0.75
        assert data["classes"]["ADJ"]["oov"] == [["a", "b"]]
        assert data["classes"]["ADJ"]["ap_syn"] == 0.5
        assert "ap_ant" not in data["classes"]["ADJ"]
        assert data["spearman"] == 0.25


class TestLoaders:
    def test_relation_pairs(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("# gold pairs\nhot\tcold\tANT\tADJ\nhot\twarm\tSYN\tADJ\n")
        pairs = load_relation_pairs(path)
        assert len(pairs.pairs) == 2
        assert pairs.pairs[0].label == "ANT"

    def test_relation_pairs_field_count(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("hot\tcold\tANT\n")
        with pytest.raises(EvalError, match=r"pairs\.tsv:1"):
            load_relation_pairs(path)

    def test_relation_pairs_duplicate_named_with_path(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("a\tb\tSYN\tADJ\nb\ta\tSYN\tADJ\n")
        with pytest.raises(EvalError, match=r"pairs\.tsv: duplicate"):
            load_relation_pairs(path)

    @pytest.mark.parametrize("row, where", [
        ("a\tb\tSIM\tADJ", r"pairs\.tsv:3: 'SIM' is not one of SYN, ANT \(bad label in column 3\)"),
        ("a\tb\tSYN\tADV", r"pairs\.tsv:3: 'ADV' is not one of ADJ, NOUN, VERB \(bad class in column 4\)"),
    ])
    def test_relation_pairs_bad_label_or_class_named_with_line(self, tmp_path, row, where):
        path = tmp_path / "pairs.tsv"
        path.write_text(f"# gold pairs\nhot\tcold\tANT\tADJ\n{row}\n")
        with pytest.raises(EvalError, match=where):
            load_relation_pairs(path)

    def test_similarity_pairs(self, tmp_path):
        path = tmp_path / "sim.tsv"
        path.write_text("hot\twarm\t8.5\nhot\tcold\t1.0\n")
        sim = load_similarity_pairs(path)
        assert sim.pairs[0].rating == 8.5

    def test_similarity_bad_rating(self, tmp_path):
        path = tmp_path / "sim.tsv"
        path.write_text("hot\twarm\twarm\n")
        with pytest.raises(EvalError, match="bad rating"):
            load_similarity_pairs(path)
