"""Seeded benchmark inputs: corpora with planted synonym/antonym structure.

This is a frozen copy of the generator in `tests/synthcorpus.py` at the
commit that introduced the benchmark, so that the benchmark's inputs do not
move when the test helper does. For equal arguments `build_world` returns the
same corpus, lexicon and pair sets as `synthcorpus.build_world`.
"""

from __future__ import annotations

import dataclasses
import itertools
from pathlib import Path

import numpy as np

from lexcontrast.evaluation import (
    RelationPair,
    RelationPairSet,
    SimilarityPair,
    SimilarityPairSet,
)
from lexcontrast.lexicon import ContrastLexicon, enrich_antonyms

POLES = "ab"


@dataclasses.dataclass
class World:
    lines: list[list[str]]
    token_count: int
    syn_relations: list[tuple[str, str]]  # the lexicon handed to the program
    ant_relations: list[tuple[str, str]]
    relation_pairs: RelationPairSet  # evaluation pairs: every planted relation
    similarity_pairs: SimilarityPairSet

    def lexicon(self) -> ContrastLexicon:
        return enrich_antonyms(ContrastLexicon.from_pairs(self.syn_relations, self.ant_relations))

    def with_full_lexicon(self) -> "World":
        """The same world whose lexicon states every planted relation."""
        syn = [(p.word1, p.word2) for p in self.relation_pairs.pairs if p.label == "SYN"]
        ant = [(p.word1, p.word2) for p in self.relation_pairs.pairs if p.label == "ANT"]
        return dataclasses.replace(self, syn_relations=syn, ant_relations=ant)


def _member(c: int, pole: str, j: int) -> str:
    return f"c{c}{pole}{j}"


def build_world(
    seed: int,
    n_concepts: int = 30,
    pole_size: int = 3,
    sentences: int = 108_000,
    n_themes: int = 4,
    theme_tokens: int = 3,
    n_polar: int = 3,
    p_polar: float = 0.5,
    n_idio: int = 2,
    p_idio: float = 0.5,
    n_mid_pairs: int = 60,
    dirichlet_alpha: float = 0.4,
) -> World:
    """Sample one corpus with a chain lexicon, relation pairs and gold ratings.

    Every sentence names one pole member, then concept-wide theme contexts
    drawn from that member's own Dirichlet preference; with probability
    p_polar one pole-exclusive context and with probability p_idio one
    context private to the member. The lexicon lists synonyms as a chain and
    only aligned antonym pairs, so most evaluated pairs are held out.
    """
    rng = np.random.default_rng(seed)
    n_members = n_concepts * 2 * pole_size
    prefs = rng.dirichlet(np.full(n_themes, dirichlet_alpha), size=n_members)
    ci = rng.integers(n_concepts, size=sentences)
    pole = rng.integers(2, size=sentences)
    member = rng.integers(pole_size, size=sentences)
    mi = (ci * 2 + pole) * pole_size + member
    draws = rng.random((sentences, theme_tokens))
    themes = (draws[:, :, None] > np.cumsum(prefs, axis=1)[mi][:, None, :-1]).sum(axis=2)
    polar_on = rng.random(sentences) < p_polar
    polar_k = rng.integers(n_polar, size=sentences)
    idio_on = rng.random(sentences) < p_idio
    idio_k = rng.integers(n_idio, size=sentences)

    lines: list[list[str]] = []
    token_count = 0
    for s in range(sentences):
        c, p, m = ci[s], POLES[pole[s]], member[s]
        toks = [_member(c, p, m)]
        toks += [f"t{c}_{k}" for k in themes[s]]
        if polar_on[s]:
            toks.append(f"q{c}{p}{polar_k[s]}")
        if idio_on[s]:
            toks.append(f"x{c}{p}{m}_{idio_k[s]}")
        order = rng.permutation(len(toks))
        lines.append([toks[i] for i in order])
        token_count += len(toks)

    syn_rel: list[tuple[str, str]] = []
    ant_rel: list[tuple[str, str]] = []
    for c in range(n_concepts):
        for p in POLES:
            for j in range(pole_size - 1):
                syn_rel.append((_member(c, p, j), _member(c, p, j + 1)))
        for j in range(pole_size):
            ant_rel.append((_member(c, "a", j), _member(c, "b", j)))

    rel: list[RelationPair] = []
    for c in range(n_concepts):
        for p in POLES:
            for i, j in itertools.combinations(range(pole_size), 2):
                rel.append(RelationPair(_member(c, p, i), _member(c, p, j), "SYN", "ADJ"))
        for i in range(pole_size):
            for j in range(pole_size):
                rel.append(RelationPair(_member(c, "a", i), _member(c, "b", j), "ANT", "ADJ"))

    sims: list[SimilarityPair] = []
    used: set[tuple[str, str]] = set()

    def add(w1: str, w2: str, base: float) -> None:
        key = (min(w1, w2), max(w1, w2))
        if key not in used:
            used.add(key)
            sims.append(SimilarityPair(w1, w2, base + 0.01 * (len(sims) % 7)))

    for c in range(n_concepts):
        add(_member(c, "a", 0), _member(c, "a", pole_size - 1), 8.0)
        add(_member(c, "b", 0), _member(c, "b", 1), 8.0)
        add(_member(c, "a", 0), _member(c, "b", pole_size - 1), 1.0)
        add(_member(c, "a", 1), _member(c, "b", 1), 1.0)
    while len(sims) < 4 * n_concepts + n_mid_pairs:
        c1, c2 = rng.choice(n_concepts, size=2, replace=False)
        add(
            _member(c1, POLES[rng.integers(2)], rng.integers(pole_size)),
            _member(c2, POLES[rng.integers(2)], rng.integers(pole_size)),
            4.5,
        )

    return World(
        lines=lines,
        token_count=token_count,
        syn_relations=syn_rel,
        ant_relations=ant_rel,
        relation_pairs=RelationPairSet(tuple(rel)),
        similarity_pairs=SimilarityPairSet(tuple(sims)),
    )


def write_world(world: World, directory: Path) -> dict[str, Path]:
    """Write the world as the four input files the command line reads."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {name: directory / f"{name}.tsv" for name in ("lexicon", "pairs", "sim")}
    paths["corpus"] = directory / "corpus.txt"
    with open(paths["corpus"], "w") as fh:
        for line in world.lines:
            fh.write(" ".join(line) + "\n")
    with open(paths["lexicon"], "w") as fh:
        for w1, w2 in world.syn_relations:
            fh.write(f"{w1}\tSYN\t{w2}\n")
        for w1, w2 in world.ant_relations:
            fh.write(f"{w1}\tANT\t{w2}\n")
    with open(paths["pairs"], "w") as fh:
        for p in world.relation_pairs.pairs:
            fh.write(f"{p.word1}\t{p.word2}\t{p.label}\t{p.word_class}\n")
    with open(paths["sim"], "w") as fh:
        for p in world.similarity_pairs.pairs:
            fh.write(f"{p.word1}\t{p.word2}\t{p.rating}\n")
    return paths
