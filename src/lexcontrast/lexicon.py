"""Synonym/antonym lexicon loading; the lexicon computes its enriched antonym sets.

File format: TSV `word1<TAB>REL<TAB>word2` with REL in {SYN, ANT}; lines
starting with `#` are comments. Relations are symmetrized on load and
self-pairs are dropped. A pair recorded as both synonym and antonym is
treated as an antonym pair only (the contrast signal is scarcer, so it wins).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import tsvio

_RELATIONS = ("SYN", "ANT")


class LexiconError(ValueError):
    """Malformed lexicon input."""


@dataclass(frozen=True)
class ContrastLexicon:
    """Per-word synonym sets S(w), antonym sets A(w), and the enriched antonym sets A*(w) these determine."""

    syn: dict[str, frozenset[str]]
    ant: dict[str, frozenset[str]]

    @cached_property  # kept in the instance __dict__, which the frozen __setattr__ does not guard: no slots
    def ant_enriched(self) -> dict[str, frozenset[str]]:
        """A*(w) = union over w' in A(w) of ({w'} | S(w')), minus {w}, minus S(w), computed on the first read.
        It is intentionally not re-symmetrized; it is consumed per target word."""
        enriched: dict[str, frozenset[str]] = {}
        for word, ants in self.ant.items():
            pool: set[str] = set()
            for opposite in ants:
                pool.add(opposite)
                pool |= self.synonyms(opposite)
            pool.discard(word)
            pool -= self.synonyms(word)
            enriched[word] = frozenset(pool)
        return enriched

    def synonyms(self, word: str) -> frozenset[str]:
        return self.syn.get(word, frozenset())

    def words(self) -> set[str]:
        return set(self.syn) | set(self.ant)

    @classmethod
    def from_pairs(
        cls,
        syn_pairs: list[tuple[str, str]] | set[tuple[str, str]],
        ant_pairs: list[tuple[str, str]] | set[tuple[str, str]],
    ) -> "ContrastLexicon":
        """Build from unordered pair lists; symmetrizes and resolves conflicts."""
        syn_set = {frozenset(p) for p in syn_pairs if p[0] != p[1]}
        ant_set = {frozenset(p) for p in ant_pairs if p[0] != p[1]}
        syn_set -= ant_set  # antonym reading wins on conflict
        sides: tuple[dict[str, set[str]], ...] = ({}, {})
        for pairs, related in zip((syn_set, ant_set), sides):
            for a, b in pairs:
                related.setdefault(a, set()).add(b)
                related.setdefault(b, set()).add(a)
        return cls(*({w: frozenset(s) for w, s in related.items()} for related in sides))


def _word(field: str) -> str:
    if not field:
        raise ValueError("empty word field")
    return field


def load_lexicon(path) -> ContrastLexicon:
    """Parse a relation TSV into a symmetrized, conflict-resolved lexicon."""
    columns = {"word1": _word, "REL": tsvio.one_of(_RELATIONS), "word2": _word}
    first, rel, second = tsvio.read_columns(path, columns, LexiconError)
    syn_pairs = {(w1, w2) for w1, r, w2 in zip(first, rel, second) if r == "SYN"}
    ant_pairs = {(w1, w2) for w1, r, w2 in zip(first, rel, second) if r == "ANT"}
    return ContrastLexicon.from_pairs(syn_pairs, ant_pairs)


def enrich_antonyms(lex: ContrastLexicon) -> ContrastLexicon:
    """`lex`, its enriched antonym sets computed now: a shim that the benchmark still calls and times."""
    lex.ant_enriched
    return lex
