"""Lexicon parsing, symmetrization, conflict handling, and the enriched antonym sets."""

import numpy as np
import pytest

from lexcontrast.lexicon import (
    ContrastLexicon,
    LexiconError,
    enrich_antonyms,
    load_lexicon,
)
from oracles import enriched_antonyms, write_lexicon


def _random_lexicon(rng, n_words=12, n_syn=8, n_ant=6):
    words = [f"w{i}" for i in range(n_words)]
    def draw(n):
        pairs = set()
        while len(pairs) < n:
            a, b = rng.choice(n_words, size=2, replace=False)
            pairs.add((words[a], words[b]))
        return pairs
    return ContrastLexicon.from_pairs(draw(n_syn), draw(n_ant)), words


class TestLoading:
    def test_symmetrization(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("hot\tSYN\twarm\nhot\tANT\tcold\n")
        lex = load_lexicon(path)
        assert lex.synonyms("warm") == {"hot"}
        assert lex.ant.get("cold", frozenset()) == {"hot"}

    def test_duplicates_and_reversals_collapse(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("a\tSYN\tb\nb\tSYN\ta\na\tSYN\tb\n")
        lex = load_lexicon(path)
        assert lex.synonyms("a") == {"b"}
        assert lex.synonyms("b") == {"a"}

    def test_self_pairs_dropped(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("a\tSYN\ta\nb\tANT\tb\na\tSYN\tb\n")
        lex = load_lexicon(path)
        assert lex.synonyms("a") == {"b"}
        assert lex.ant.get("a", frozenset()) == frozenset()
        assert lex.ant.get("b", frozenset()) == frozenset()

    def test_conflicting_pair_reads_as_antonym(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("big\tSYN\tlarge\nlarge\tANT\tbig\n")
        lex = load_lexicon(path)
        assert lex.synonyms("big") == frozenset()
        assert lex.ant.get("big", frozenset()) == {"large"}
        assert lex.ant.get("large", frozenset()) == {"big"}

    def test_unknown_tag_rejected_with_line(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("a\tSYN\tb\na\tHYPER\tb\n")
        with pytest.raises(LexiconError, match=r"lex\.tsv:2"):
            load_lexicon(path)

    def test_field_count_enforced(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("a\tSYN\n")
        with pytest.raises(LexiconError, match="word1<TAB>REL<TAB>word2"):
            load_lexicon(path)

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("# header\n\na\tANT\tb\n")
        lex = load_lexicon(path)
        assert lex.ant.get("a", frozenset()) == {"b"}

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        for trial in range(10):
            lex, _ = _random_lexicon(rng)
            path = tmp_path / f"lex{trial}.tsv"
            write_lexicon(path, lex)
            loaded = load_lexicon(path)
            assert loaded.syn == lex.syn
            assert loaded.ant == lex.ant


class TestEnrichment:
    def test_a_hand_built_lexicon_computes_the_enriched_sets_once(self):
        """Any lexicon, built from its two sets alone, reads the sets of the oracle pass; the first read
        computes them, and `enrich_antonyms` returns the lexicon it is given."""
        rng = np.random.default_rng(3)
        for _ in range(50):
            drawn, _ = _random_lexicon(rng)
            lex = ContrastLexicon(drawn.syn, drawn.ant)
            assert "ant_enriched" not in vars(lex)
            assert lex.ant_enriched == enriched_antonyms(drawn) and lex.ant_enriched is lex.ant_enriched
            assert enrich_antonyms(lex) is lex and lex == drawn

    def test_worked_example(self):
        # A(good) = {bad, evil}, S(bad) = {awful}
        lex = enrich_antonyms(
            ContrastLexicon.from_pairs(
                syn_pairs=[("bad", "awful")],
                ant_pairs=[("good", "bad"), ("good", "evil")],
            )
        )
        assert lex.ant_enriched.get("good", frozenset()) == {"bad", "evil", "awful"}
        # symmetrized direction: A(bad) = {good}, S(good) = {} here
        assert lex.ant_enriched.get("bad", frozenset()) == {"good"}

    def test_own_synonyms_excluded(self):
        # u is both a synonym of w and a synonym of w's antonym; the
        # synonym reading of w wins and u stays out of the enriched set
        lex = enrich_antonyms(
            ContrastLexicon.from_pairs(
                syn_pairs=[("w", "u"), ("x", "u")],
                ant_pairs=[("w", "x")],
            )
        )
        assert lex.ant_enriched.get("w", frozenset()) == {"x"}

    def test_word_without_antonyms_gets_empty_set(self):
        lex = enrich_antonyms(
            ContrastLexicon.from_pairs(syn_pairs=[("a", "b")], ant_pairs=[])
        )
        assert lex.ant_enriched.get("a", frozenset()) == frozenset()
        assert not lex.ant_enriched

    def test_direct_antonyms_always_contained(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            lex, words = _random_lexicon(rng)
            enriched = enrich_antonyms(lex)
            for w in words:
                assert lex.ant.get(w, frozenset()) <= enriched.ant_enriched.get(w, frozenset())

    def test_enriched_set_invariants(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            lex, words = _random_lexicon(rng)
            enriched = enrich_antonyms(lex)
            for w in words:
                star = enriched.ant_enriched.get(w, frozenset())
                assert w not in star
                assert not (star & lex.synonyms(w))
                assert w not in lex.synonyms(w)
                assert w not in lex.ant.get(w, frozenset())

    def test_relations_are_symmetric(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            lex, words = _random_lexicon(rng)
            for w in words:
                for s in lex.synonyms(w):
                    assert w in lex.synonyms(s)
                for a in lex.ant.get(w, frozenset()):
                    assert w in lex.ant.get(a, frozenset())

    def test_monotone_under_nonincident_additions(self):
        # adding a pair that neither touches w nor conflicts with an
        # existing pair of the opposite relation can only grow A*(w)
        rng = np.random.default_rng(4)
        trials = 0
        while trials < 60:
            lex, words = _random_lexicon(rng)
            w = words[int(rng.integers(len(words)))]
            a, b = (words[i] for i in rng.choice(len(words), size=2, replace=False))
            if w in (a, b):
                continue
            existing = {frozenset(p) for pairs in (lex.syn, lex.ant) for x in pairs for p in [(x, y) for y in pairs[x]]}
            if frozenset((a, b)) in existing:
                continue
            syn_pairs = {tuple(sorted((x, y))) for x in lex.syn for y in lex.syn[x]}
            ant_pairs = {tuple(sorted((x, y))) for x in lex.ant for y in lex.ant[x]}
            if rng.random() < 0.5:
                syn_pairs.add(tuple(sorted((a, b))))
            else:
                ant_pairs.add(tuple(sorted((a, b))))
            before = enrich_antonyms(lex).ant_enriched.get(w, frozenset())
            after = enrich_antonyms(
                ContrastLexicon.from_pairs(syn_pairs, ant_pairs)
            ).ant_enriched.get(w, frozenset())
            assert before <= after
            trials += 1

    def test_synonym_of_target_can_shrink_enriched_set(self):
        # counterexample to unrestricted monotonicity: declaring SYN(w, u)
        # pulls u out of A*(w) even though u reached it via w's antonym
        base = ContrastLexicon.from_pairs(
            syn_pairs=[("x", "u")], ant_pairs=[("w", "x")]
        )
        assert enrich_antonyms(base).ant_enriched.get("w", frozenset()) == {"x", "u"}
        grown = ContrastLexicon.from_pairs(
            syn_pairs=[("x", "u"), ("w", "u")], ant_pairs=[("w", "x")]
        )
        assert enrich_antonyms(grown).ant_enriched.get("w", frozenset()) == {"x"}

    def test_reenrichment_fixed_point_on_synset_cliques(self):
        # when synonym sets are disjoint cliques, feeding A* back in as the
        # antonym relation reproduces A* exactly
        rng = np.random.default_rng(5)
        for _ in range(25):
            n_cliques = int(rng.integers(3, 7))
            cliques = []
            next_id = 0
            for _ in range(n_cliques):
                size = int(rng.integers(1, 5))
                cliques.append([f"w{next_id + i}" for i in range(size)])
                next_id += size
            syn_pairs = [
                (c[i], c[j])
                for c in cliques
                for i in range(len(c))
                for j in range(i + 1, len(c))
            ]
            ant_pairs = []
            for _ in range(int(rng.integers(2, 6))):
                ci, cj = rng.choice(n_cliques, size=2, replace=False)
                ant_pairs.append(
                    (
                        cliques[ci][int(rng.integers(len(cliques[ci])))],
                        cliques[cj][int(rng.integers(len(cliques[cj])))],
                    )
                )
            lex = enrich_antonyms(ContrastLexicon.from_pairs(syn_pairs, ant_pairs))
            again = enrich_antonyms(
                ContrastLexicon(syn=lex.syn, ant=dict(lex.ant_enriched))
            )
            for w in lex.ant_enriched:
                assert again.ant_enriched.get(w, frozenset()) == lex.ant_enriched.get(w, frozenset())

    def test_reenrichment_grows_under_chained_synonyms(self):
        # counterexample to the unrestricted fixed point: a-b-c chain synonymy
        # (no a-c edge) lets a second pass pick up c through b
        lex = enrich_antonyms(
            ContrastLexicon.from_pairs(
                syn_pairs=[("a", "b"), ("b", "c")], ant_pairs=[("w", "a")]
            )
        )
        assert lex.ant_enriched.get("w", frozenset()) == {"a", "b"}
        again = enrich_antonyms(ContrastLexicon(syn=lex.syn, ant=dict(lex.ant_enriched)))
        assert again.ant_enriched.get("w", frozenset()) == {"a", "b", "c"}

    def test_has_entries(self):
        lex = ContrastLexicon.from_pairs([("a", "b")], [("c", "d")])
        assert lex.words() == {"a", "b", "c", "d"}
        assert lex.synonyms("a") == {"b"} and lex.ant.get("d", frozenset()) == {"c"}
        assert not lex.synonyms("zzz") and not lex.ant.get("zzz", frozenset())
