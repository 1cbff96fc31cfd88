"""Reference implementations that the vectorised code is checked against.

These are the per-pair and per-cell loops the package used before pair
scoring, the contrast transform and tie-averaged ranking became whole-array
operations, the frozenset feature index and the per-key contrast sets from
before both routes read one sparse holder matrix, the single-threaded
per-pair SGD loop from before training was batched, the trainers' check
before any work that counted training pairs without a pair stream, the
contrast waves' levels found hit by hit, the batch
rule spelled out one pair at a time, the antonym enrichment as a pass of its own
over a built lexicon, the vector writer from before it took the header
lines itself, the table writers that formatted cell by cell, the table
readers that parsed their own headers and found repeated cells each its own
way, co-occurrence counting with separate target and feature chunks, the
window keys as int64 chunks joined by one concatenation and the trainer's
pair stream sorted from them,
subsampling with one draw call per line, the SGNS step that sorted each batch's rows and built a CSR
matrix to sum them, noise sampling by one binary search per draw, the
randomized SVD that took a QR after every product of
its subspace iteration, the truncated SVD that factored the whole matrix,
empty rows and columns included, the block SVD that returned Vt as well,
and the corpus as token lists: a `Counter`
vocabulary and one id array per line. They stay here, unchanged in
behaviour, as oracles for the property tests. The one exception is the
per-pair loop's contrast gradients: their dot products and norms are
row-local sums, as the trainer defines them, and the BLAS form they had
before stays selectable as a second oracle.

Below them are helpers that only tests use: the pair objective and the
contrast value whose gradients the trainer takes, table views, the SVD
reconstruction and the lexicon writer.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from lexcontrast import corpus
from lexcontrast import embeddings as emb
from lexcontrast.corpus import CooccurrenceCounts, CorpusError, Vocabulary
from lexcontrast.reduction import DEFAULT_OVERSAMPLE, DEFAULT_POWER_ITERS, DENSE_CUTOFF, ReductionError, SvdResult
from lexcontrast.seeding import rng_for
from lexcontrast.tsvio import atomic_writer, bounded, read_columns, read_meta, write_rows
from lexcontrast.weighting import SCHEME_LMI, SCHEME_SA, WeightedMatrix, WeightingError, pair_cosines


# --- the corpus as token lists


def build_vocabulary(lines, min_count) -> Vocabulary:
    """Count all token types with a Counter and keep those with frequency >= min_count."""
    counter: Counter = Counter()
    for line in lines:
        counter.update(line)
    return Vocabulary.from_counts(counter, min_count)


def encode_lines(lines, vocab) -> list[np.ndarray]:
    """Map token lines to id arrays, dropping out-of-vocabulary tokens."""
    ids = vocab.word_ids
    return [np.array([ids[t] for t in line if t in ids], dtype=np.int64) for line in lines]


def flatten_lines(id_lines) -> tuple[np.ndarray, np.ndarray]:
    """The ids of all lines in one int64 array, and the line of each."""
    lengths = np.fromiter(map(len, id_lines), dtype=np.int64, count=len(id_lines))
    tok = np.concatenate(id_lines).astype(np.int64, copy=False) if len(id_lines) else np.zeros(0, dtype=np.int64)
    return tok, np.repeat(np.arange(len(id_lines)), lengths)


def vocabulary_ids(lines, vocab) -> tuple[np.ndarray, np.ndarray]:
    """`Corpus.ids` by way of one id array per line."""
    return flatten_lines(encode_lines(lines, vocab))


def subsample_ids(id_lines, discard, rng) -> list[np.ndarray]:
    """Drop each occurrence with its word's discard probability, one draw call per line."""
    out = []
    for ids in id_lines:
        if len(ids) == 0:
            out.append(ids)
            continue
        keep = rng.random(len(ids)) >= discard[ids]
        out.append(ids[keep])
    return out


def cosine(u, v) -> float:
    """Cosine similarity for dense arrays or sparse rows; 0 if a norm is 0."""
    if sparse.issparse(u) or sparse.issparse(v):
        dot = (u @ v.T).todense()[0, 0] if sparse.issparse(v) else float(u @ v)
        nu = np.sqrt(u.multiply(u).sum())
        nv = np.sqrt(v.multiply(v).sum()) if sparse.issparse(v) else np.linalg.norm(v)
    else:
        u = np.asarray(u, dtype=np.float64)
        v = np.asarray(v, dtype=np.float64)
        dot = float(u @ v)
        nu = np.linalg.norm(u)
        nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(dot / (nu * nv))


def row_lookup(vectors, word):
    """The vector of `word` in dense embeddings or a SparseRowTable, or None."""
    wid = vectors.word_ids.get(word)
    if wid is None:
        return None
    if sparse.issparse(vectors.matrix):
        return vectors.matrix.getrow(wid)
    return vectors.matrix[wid]


def score_pairs(vectors, pairs) -> list[tuple]:
    """Cosine per pair, one lookup and one cosine call at a time."""
    scored = []
    for pair in pairs:
        v1 = row_lookup(vectors, pair.word1)
        v2 = row_lookup(vectors, pair.word2)
        if v1 is None or v2 is None:
            scored.append((pair, None))
        else:
            scored.append((pair, cosine(v1, v2)))
    return scored


def average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties sharing the average of their positions."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    sorted_vals = values[order]
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


class RowCosineCache:
    """Memoized cosine between sparse matrix rows, keyed per unordered pair."""

    def __init__(self, matrix: sparse.csr_matrix):
        matrix.sort_indices()
        self._indptr = matrix.indptr
        self._indices = matrix.indices
        self._data = matrix.data
        sq = matrix.multiply(matrix)
        self._norms = np.sqrt(np.asarray(sq.sum(axis=1)).ravel())
        self._cache: dict[tuple[int, int], float] = {}

    def _row_dot(self, a: int, b: int) -> float:
        sa, ea = self._indptr[a], self._indptr[a + 1]
        sb, eb = self._indptr[b], self._indptr[b + 1]
        _, ia, ib = np.intersect1d(
            self._indices[sa:ea], self._indices[sb:eb],
            assume_unique=True, return_indices=True,
        )
        if len(ia) == 0:
            return 0.0
        return float(self._data[sa:ea][ia] @ self._data[sb:eb][ib])

    def __call__(self, a: int, b: int) -> float:
        key = (a, b) if a <= b else (b, a)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        na, nb = self._norms[a], self._norms[b]
        value = 0.0 if na == 0.0 or nb == 0.0 else self._row_dot(a, b) / (na * nb)
        self._cache[key] = value
        return value


def enriched_antonyms(lex) -> dict[str, frozenset[str]]:
    """A*(w) for every w with antonyms: each antonym w' of w and the synonyms of w', minus w and S(w). This is
    the pass over a built lexicon that filled its third field before the lexicon computed the sets itself."""
    return {w: frozenset().union(*({o} | lex.synonyms(o) for o in ants)) - {w} - lex.synonyms(w)
            for w, ants in lex.ant.items()}


def _lexicon_ids(lex, vocab):
    """Resolve lexicon words to vocabulary ids, dropping out-of-vocabulary ones."""
    syn: dict[int, list[int]] = {}
    ant_pairs: dict[int, list[tuple[int, int]]] = {}
    ids, enriched = vocab.word_ids, enriched_antonyms(lex)
    for word in lex.words():
        wid = ids.get(word)
        if wid is None:
            continue
        syn[wid] = sorted(ids[u] for u in lex.synonyms(word) if u in ids)
        pairs: list[tuple[int, int]] = []
        for opp in sorted(enriched.get(word, frozenset())):
            oid = ids.get(opp)
            if oid is None:
                continue
            for v in sorted(lex.synonyms(opp)):
                vid = ids.get(v)
                if vid is not None:
                    pairs.append((oid, vid))
        ant_pairs[wid] = pairs
    return syn, ant_pairs


def compute_weight_sa(lmi, idx, lex, vocab, ant_mean="pooled", fallback_lmi=False) -> WeightedMatrix:
    """The contrast transform evaluated cell by cell, with memoized row cosines."""
    n_words, n_features = lmi.shape
    matrix = lmi.matrix
    matrix.sort_indices()
    indptr, indices, data = matrix.indptr, matrix.indices, matrix.data
    row_cos = RowCosineCache(matrix)
    syn_ids, ant_pair_ids = _lexicon_ids(lex, vocab)

    out_rows: list[int] = []
    out_cols: list[int] = []
    out_vals: list[float] = []
    for w in range(n_words):
        start, end = indptr[w], indptr[w + 1]
        if start == end:
            continue
        if w not in syn_ids:  # word carries no lexicon entry at all
            if fallback_lmi:
                out_rows.extend([w] * (end - start))
                out_cols.extend(int(f) for f in indices[start:end])
                out_vals.extend(float(x) for x in data[start:end])
            continue
        synonyms = syn_ids.get(w, [])
        ant_pairs = ant_pair_ids.get(w, [])
        for f in indices[start:end]:
            holders = idx.words_for(int(f))
            syn_cos = [row_cos(w, u) for u in synonyms if u in holders]
            term_syn = sum(syn_cos) / len(syn_cos) if syn_cos else 0.0
            if ant_mean == "pooled":
                ant_cos = [row_cos(a, v) for a, v in ant_pairs if v in holders]
                term_ant = sum(ant_cos) / len(ant_cos) if ant_cos else 0.0
            else:
                per_ant: dict[int, list[float]] = {}
                for a, v in ant_pairs:
                    if v in holders:
                        per_ant.setdefault(a, []).append(row_cos(a, v))
                if per_ant:
                    means = [sum(vals) / len(vals) for vals in per_ant.values()]
                    term_ant = sum(means) / len(means)
                else:
                    term_ant = 0.0
            value = term_syn - term_ant
            if value != 0.0:
                out_rows.append(w)
                out_cols.append(int(f))
                out_vals.append(value)

    result = sparse.coo_matrix(
        (out_vals, (out_rows, out_cols)), shape=(n_words, n_features)
    ).tocsr()
    return WeightedMatrix(SCHEME_SA, result)


# --- the frozenset feature index and the per-key contrast sets


@dataclass(frozen=True)
class FeatureOccurrenceIndex:
    """Inverse map: feature id -> set of word ids with a positive stored weight."""

    index: dict[int, frozenset[int]]

    def words_for(self, feature_id: int) -> frozenset[int]:
        return self.index.get(feature_id, frozenset())

    def __len__(self) -> int:
        return len(self.index)


def feature_index(holders) -> FeatureOccurrenceIndex:
    """The frozenset index of a 0/1 holder matrix, inverted by column."""
    csc = sparse.csc_matrix(holders)
    bounds = zip(csc.indptr[:-1].tolist(), csc.indptr[1:].tolist())
    return FeatureOccurrenceIndex(
        {f: frozenset(csc.indices[s:e].tolist()) for f, (s, e) in enumerate(bounds) if e > s}
    )


class ContrastState:
    """Per-(word, context) synonym/antonym intersections, cached on first use.

    Uses the plain antonym sets, not the enriched ones. When a capped
    intersection exceeds max_contrast_neighbors it is sampled without
    replacement, deterministically per (word, context) key.
    """

    def __init__(self, lex, vocab, idx: FeatureOccurrenceIndex, cfg):
        ids = vocab.word_ids
        self.syn: dict[int, tuple[int, ...]] = {}
        self.ant: dict[int, tuple[int, ...]] = {}
        for word in lex.words():
            wid = ids.get(word)
            if wid is None:
                continue
            syn = tuple(sorted(ids[u] for u in lex.synonyms(word) if u in ids))
            ant = tuple(sorted(ids[v] for v in lex.ant.get(word, frozenset()) if v in ids))
            if syn:
                self.syn[wid] = syn
            if ant:
                self.ant[wid] = ant
        self.idx = idx
        self.cap = cfg.max_contrast_neighbors
        self.seed = cfg.seed
        self.beta = cfg.beta
        self.cache: dict[tuple[int, int], tuple[np.ndarray, np.ndarray] | None] = {}
        self.in_lexicon = np.zeros(len(vocab), dtype=bool)
        self.in_lexicon[list(self.syn.keys() | self.ant.keys())] = True

    def _capped(self, members: list[int], w: int, c: int, side: str) -> np.ndarray:
        arr = np.array(members, dtype=np.int64)
        if self.cap is not None and len(arr) > self.cap:
            rng = rng_for(self.seed, "contrast", side, w, c)
            arr = np.sort(rng.choice(arr, size=self.cap, replace=False))
        return arr

    def pair_sets(self, w: int, c: int):
        key = (w, c)
        if key in self.cache:
            return self.cache[key]
        syn = self.syn.get(w)
        ant = self.ant.get(w)
        sets = None
        if syn is not None or ant is not None:
            holders = self.idx.words_for(c)
            u = [x for x in syn or () if x in holders]
            v = [x for x in ant or () if x in holders]
            if u or v:
                sets = (self._capped(u, w, c, "syn"), self._capped(v, w, c, "ant"))
        self.cache[key] = sets
        return sets

    def hits(self, targets: np.ndarray, contexts: np.ndarray) -> np.ndarray:
        """Indices of the (target, context) pairs that have a contrast set."""
        cand = np.flatnonzero(self.in_lexicon[targets])
        pairs = zip(targets[cand].tolist(), contexts[cand].tolist())
        return cand[np.array([self.pair_sets(w, c) is not None for w, c in pairs], dtype=bool)]


# --- the SGNS/dLCE training loop, one pair at a time


def sigmoid(x):
    """Numerically stable logistic function; scalar in, scalar out."""
    arr = np.asarray(x, dtype=np.float64)
    out = np.empty_like(arr)
    pos = arr >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-arr[pos]))
    ex = np.exp(arr[~pos])
    out[~pos] = ex / (1.0 + ex)
    return float(out) if out.ndim == 0 else out


def sgns_pair_gradients(w_vec, ctx_rows, labels):
    """Ascent gradients of sgns_pair_loss wrt w and each context row."""
    err = labels - sigmoid(ctx_rows @ w_vec)
    return err @ ctx_rows, err[:, None] * w_vec


def row_dots(a, b):
    """Dot products along the last axis, each row summed on its own, as the
    trainer's contrast step takes them."""
    return np.add.reduce(a * b, axis=-1)


def _cosine_parts(w_vec, rows, dot):
    """cos(w, row) per row plus the pieces its gradient needs; zero-safe."""
    nw = np.sqrt(dot(w_vec, w_vec))
    nr = np.linalg.norm(rows, axis=1)
    ok = (nr > 0) & (nw > 0)
    cos = np.zeros(len(rows))
    inv = np.zeros(len(rows))
    np.divide(1.0, nr * nw, out=inv, where=ok)
    cos[ok] = dot(rows[ok], w_vec) * inv[ok]
    return cos, inv, nw, nr, ok


def contrast_gradients(W, w, syn_ids, ant_ids, dot=row_dots):
    """Ascent gradients of contrast_value wrt W[w], each synonym, each antonym.

    Members with zero norm contribute zero value and zero gradient but still
    count in the mean's normalizer. `dot=np.dot` gives the BLAS form the
    trainer took before its dot products and norms became row-local sums.
    Each side's d_w rows are summed one after another, at every d.
    """
    w_vec = W[w]
    g_w = np.zeros_like(w_vec)
    g_sides = []
    nw2 = float(dot(w_vec, w_vec))
    for ids, sign in ((syn_ids, 1.0), (ant_ids, -1.0)):
        if not len(ids):
            g_sides.append(np.zeros((0, len(w_vec))))
            continue
        rows = W[ids]
        cos, inv, _, nr, ok = _cosine_parts(w_vec, rows, dot)
        scale = sign / len(ids)
        d_w = rows * inv[:, None]
        d_w[ok] -= (cos[ok] / nw2)[:, None] * w_vec
        d_w[~ok] = 0.0
        side_sum = d_w[0].copy()
        for row in d_w[1:]:
            side_sum += row
        g_w += scale * side_sum
        coeff = np.zeros(len(rows))
        np.divide(cos, nr * nr, out=coeff, where=ok)
        d_r = inv[:, None] * w_vec - coeff[:, None] * rows
        d_r[~ok] = 0.0
        g_sides.append(scale * d_r)
    return g_w, g_sides[0], g_sides[1]


def apply_contrast(state, W, w, c, alpha):
    """One contrast step for the pair (w, c), if it has a contrast set, with
    the contrast_gradients above."""
    sets = state.pair_sets(int(w), int(c))
    if sets is None:
        return
    u_ids, v_ids = sets
    g_w, g_u, g_v = contrast_gradients(W, w, u_ids, v_ids)
    step = alpha * state.beta
    W[w] += step * g_w
    if len(u_ids):
        W[u_ids] += step * g_u
    if len(v_ids):
        W[v_ids] += step * g_v


def apply_hit(state, W, w, c, alpha):
    """The same step as the trainer takes it: a wave of one hit."""
    sets = state.pair_sets(int(w), int(c))
    if sets is not None:
        emb._apply_wave(W, emb._plan_hit(w, alpha * state.beta, *sets), 0)


def wave_levels(batch_of, targets, members, member_hit) -> np.ndarray:
    """`_wave_levels` by its definition, one hit at a time in stream order: within its batch, a hit's
    level is one more than the highest level already held by any of its rows (its w and its members),
    or 0 if it has none."""
    rows = [{int(w)} for w in targets]
    for r, h in zip(members.tolist(), member_hit.tolist()):
        rows[h].add(r)
    held = {}  # (batch, row): the level of the latest hit of the batch that holds the row
    level = np.zeros(len(targets), dtype=np.intp)
    for i, b in enumerate(batch_of.tolist()):
        level[i] = max((held[b, r] + 1 for r in rows[i] if (b, r) in held), default=0)
        held.update(((b, r), int(level[i])) for r in rows[i])
    return level


def sgns_pair_update(W, C, w, rows, labels, alpha, has_dupes):
    """One pair's SGNS update, rows already rid of colliding negatives."""
    w_vec = W[w]
    g_w, g_c = sgns_pair_gradients(w_vec, C[rows], labels)
    if has_dupes:
        np.add.at(C, rows, alpha * g_c)
    else:
        C[rows] += alpha * g_c
    W[w] = w_vec + alpha * g_w


def scatter_add(M, rows, weights, X) -> None:
    """M[rows[j]] += weights[j] * X[j] for every j, with repeated rows summed
    exactly once: a stable sort groups them (as np.unique does), and one
    sparse-times-dense product sums each group in stream order."""
    order = np.argsort(rows, kind="stable")
    srt = rows[order]
    starts = np.flatnonzero(np.concatenate(([True], srt[1:] != srt[:-1])))
    S = sparse.csr_matrix((weights[order], order, np.append(starts, len(srt))), shape=(len(starts), len(X)))
    M[srt[starts]] += S @ X


def sgns_step(W, C, targets, rows, keep, labels, alphas, groups=None, work=None) -> None:
    """embeddings._sgns_step with fresh arrays and each batch's scatter sorted
    and built in the step by `scatter_add`; the planned `groups` and the
    reused `work` arrays are ignored."""
    B, k1 = rows.shape
    g_w, g_c = emb.sgns_pair_gradients(W.take(targets, axis=0), C.take(rows, axis=0), labels, keep)
    scatter_add(C, rows.ravel(), np.repeat(alphas, k1), g_c.reshape(B * k1, -1))
    scatter_add(W, targets, alphas, g_w)


def sample_noise(noise, rng, shape) -> np.ndarray:
    """NoiseDistribution.sample by its definition: each uniform's count of
    cumulative probabilities at or below it, found by binary search, capped
    at the last word."""
    draws = np.searchsorted(noise.cumulative, rng.random(shape), side="right")
    return np.minimum(draws, len(noise.probabilities) - 1).astype(np.int32)


def _run_shard(
    W,
    C,
    targets,
    contexts,
    negs,
    has_dupes,
    has_collision,
    labels,
    alpha0,
    total_updates,
    counter,
    contrast,
    lock_step: bool,
    shard_base: int,
):
    """Sequential SGD over one shard of the epoch's pair stream."""
    k1 = negs.shape[1] + 1
    buffer = np.empty(k1, dtype=np.int32)
    for i in range(len(targets)):
        w = targets[i]
        buffer[0] = contexts[i]
        buffer[1:] = negs[i]
        if has_collision[i]:  # drop sampled negatives equal to the true context
            rows = buffer[np.concatenate(([True], buffer[1:] != buffer[0]))]
            pair_labels = labels[: len(rows)]
        else:
            rows = buffer
            pair_labels = labels
        if lock_step:
            update = shard_base + i
        else:
            update = counter[0]
            counter[0] = update + 1
        alpha = emb.learning_rate(alpha0, update, total_updates)
        sgns_pair_update(W, C, w, rows, pair_labels, alpha, has_dupes[i])
        if contrast is not None:
            apply_contrast(contrast, W, w, int(rows[0]), alpha)


def train(lines, vocab, cfg, lex=None, idx=None) -> emb.EmbeddingModel:
    """train_sgns, or train_dlce given a lexicon and an index, single-threaded.

    W and C are validated after each epoch, as the trainer does: a bounded
    check, unlike one for NaN, can pass at the end after failing earlier.
    The trainer also checks every CHECK_EVERY updates, which the property
    tests' toy corpora never reach."""
    contrast = None if lex is None else ContrastState(lex, vocab, feature_index(idx), cfg)
    if len(vocab) == 0:
        raise emb.TrainingError("empty vocabulary")
    if int(vocab.counts.min()) < cfg.min_count:
        raise emb.TrainingError(
            "vocabulary/config mismatch: vocabulary holds words below min_count"
        )
    ids = vocabulary_ids(lines, vocab)
    if len(ids[0]) == 0:
        raise CorpusError("empty corpus: no in-vocabulary tokens to train on")

    epoch_streams = [emb._epoch_pairs(ids, vocab, cfg, e) for e in range(cfg.epochs)]
    total_updates = sum(len(t) for t, _ in epoch_streams)
    if total_updates == 0:
        raise emb.TrainingError("no training pairs survive windowing/subsampling")

    n, d = len(vocab), cfg.dim
    init_rng = rng_for(cfg.seed, "init")
    W = (init_rng.random((n, d)) - 0.5) / d
    C = np.zeros((n, d))
    noise = emb.build_noise_distribution(vocab, cfg.noise_exponent)
    labels = np.zeros(cfg.negatives + 1)
    labels[0] = 1.0

    model = emb.EmbeddingModel(W=W, C=C, vocab=vocab)
    done = 0
    with np.errstate(over="ignore"):
        for epoch, (targets, contexts) in enumerate(epoch_streams):
            n_pairs = len(targets)
            negs = sample_noise(noise, rng_for(cfg.seed, "negatives", epoch), (n_pairs, cfg.negatives))
            stacked = np.column_stack((contexts, negs))
            srt = np.sort(stacked, axis=1)
            has_dupes = (srt[:, 1:] == srt[:, :-1]).any(axis=1)
            has_collision = (negs == contexts[:, None]).any(axis=1)
            alpha_start = emb.learning_rate(cfg.learning_rate, done, total_updates)
            _run_shard(
                W, C, targets, contexts, negs, has_dupes, has_collision,
                labels, cfg.learning_rate, total_updates, None, contrast,
                lock_step=True, shard_base=done,
            )
            done += n_pairs
            model.validate(done)
            record = {"epoch": epoch, "pairs": n_pairs, "alpha": alpha_start}
            if cfg.track_objective:
                record["objective"] = emb.sgns_objective(model, targets, contexts, noise, cfg.negatives)
            model.history.append(record)
    return require_moved(model, cfg, emb.batch_size(noise, cfg.negatives))


# --- the trainers' refusals, checked before any work


def require_trainable(ids, vocab, cfg) -> None:
    """Raise the trainers' first refusal that holds, before any work: an empty vocabulary or one with words
    below cfg.min_count, no token in `ids` (as `Corpus.ids` gives them), no pair in any epoch, or epochs
    that together fill one batch, found without a pair stream: a line that keeps L tokens after the
    epoch's draw has 2 * (L - k) pairs at each offset k from 1 to min(window, L - 1)."""
    if len(vocab) == 0:  # the text names the min_count that built the vocabulary, if known, not cfg's
        raise emb.TrainingError("empty vocabulary" if vocab.min_count is None else
                                f"empty vocabulary: no word occurs min_count={vocab.min_count} times")
    if int(vocab.counts.min()) < cfg.min_count:
        raise emb.TrainingError("vocabulary/config mismatch: vocabulary holds words below min_count")
    if len(ids[0]) == 0:
        raise CorpusError("empty corpus: no in-vocabulary tokens to train on")
    kept = [ids if cfg.subsample is None else corpus.subsample_ids(
        ids, corpus.discard_probabilities(vocab, cfg.subsample), rng_for(cfg.seed, "subsample", e))
        for e in range(cfg.epochs)]
    pairs = [sum(2 * (L - k) for L in np.unique(line, return_counts=True)[1].tolist()
                 for k in range(1, min(cfg.window, L - 1) + 1)) for _, line in kept]
    if sum(pairs) == 0:
        raise emb.TrainingError(f"no training pairs survive windowing/subsampling: {len(ids[0])} in-vocabulary "
                                f"tokens, window {cfg.window}, subsample {cfg.subsample or 'off'}")
    batch = emb.batch_size(emb.build_noise_distribution(vocab, cfg.noise_exponent), cfg.negatives)
    if sum(-(-p // batch) for p in pairs) == 1:
        raise emb.TrainingError(f"too few training pairs: all {sum(pairs)} fit in one batch of {batch}, and the "
                                "skip-gram step would leave W at its random initialization")


class DrawnW(emb.TrainingError):
    """The trainers' refusal of a run whose W ends bit for bit as drawn; `model` is that run."""

    def __init__(self, model, batch):
        pairs = ", ".join(str(h["pairs"]) for h in model.history)
        super().__init__(f"training left W at its random initialization: no update moved it over epochs of "
                         f"{pairs} pairs in batches of {batch}")
        self.model = model


def require_moved(model, cfg, batch) -> emb.EmbeddingModel:
    """`model`, unless its W equals the trainers' initial draw, drawn again here, bit for bit."""
    if model.W.tobytes() == ((rng_for(cfg.seed, "init").random(model.W.shape) - 0.5) / cfg.dim).tobytes():
        raise DrawnW(model, batch)
    return model


# --- the batch rule, one pair at a time


def train_batched(lines, vocab, cfg, batch, lex=None, idx=None) -> emb.EmbeddingModel:
    """train_sgns, or train_dlce given a lexicon and an index, with the batch
    rule spelled out pair by pair: within each block of `batch` pairs every
    SGNS gradient is taken at the block-start W and C, a sampled negative equal
    to the true context gets zero error, each row's updates are summed in
    stream order with np.add.at and then added once, and the block's contrast
    steps run in stream order after that. W and C are validated as in
    `train`."""
    contrast = None if lex is None else ContrastState(lex, vocab, feature_index(idx), cfg)
    ids = vocabulary_ids(lines, vocab)
    epoch_streams = [emb._epoch_pairs(ids, vocab, cfg, e) for e in range(cfg.epochs)]
    total_updates = sum(len(t) for t, _ in epoch_streams)
    if total_updates == 0:
        raise emb.TrainingError("no training pairs survive windowing/subsampling")
    n, d = len(vocab), cfg.dim
    W = (rng_for(cfg.seed, "init").random((n, d)) - 0.5) / d
    C = np.zeros((n, d))
    noise = emb.build_noise_distribution(vocab, cfg.noise_exponent)
    labels = np.zeros(cfg.negatives + 1)
    labels[0] = 1.0

    model = emb.EmbeddingModel(W=W, C=C, vocab=vocab)
    done = 0
    with np.errstate(over="ignore"):
        for epoch, (targets, contexts) in enumerate(epoch_streams):
            negs = sample_noise(noise, rng_for(cfg.seed, "negatives", epoch), (len(targets), cfg.negatives))
            for lo in range(0, len(targets), batch):
                block = range(lo, min(lo + batch, len(targets)))
                dW, dC = np.zeros_like(W), np.zeros_like(C)
                for i in block:  # gradients at the block-start W and C
                    rows = np.concatenate(([contexts[i]], negs[i]))
                    w_vec, ctx = W[targets[i]], C[rows]
                    err = labels - sigmoid(ctx @ w_vec)
                    err[1:][rows[1:] == rows[0]] = 0.0  # a colliding negative adds nothing
                    alpha = emb.learning_rate(cfg.learning_rate, done + i, total_updates)
                    np.add.at(dC, rows, alpha * (err[:, None] * w_vec))
                    np.add.at(dW, [targets[i]], alpha * (err @ ctx))
                touched = np.unique(np.concatenate((targets[block], contexts[block], negs[block].ravel())))
                W[touched] += dW[touched]
                C[touched] += dC[touched]
                if contrast is not None:
                    for i in block:
                        alpha = emb.learning_rate(cfg.learning_rate, done + i, total_updates)
                        apply_contrast(contrast, W, int(targets[i]), int(contexts[i]), alpha)
            record = {"epoch": epoch, "pairs": len(targets),
                      "alpha": emb.learning_rate(cfg.learning_rate, done, total_updates)}
            done += len(targets)
            model.validate(done)
            if cfg.track_objective:
                record["objective"] = emb.sgns_objective(model, targets, contexts, noise, cfg.negatives)
            model.history.append(record)
    return require_moved(model, cfg, batch)


# --- the vector writer


def write_embeddings_with_meta(path, vectors, meta) -> None:
    """`#key=value` header lines, then the word2vec text layout."""
    with atomic_writer(path) as fh:
        for key, value in meta.items():
            fh.write(f"#{key}={value}\n")
        fh.write(f"{len(vectors)} {vectors.dim}\n")
        for word, row in zip(vectors.words, vectors.matrix):
            fh.write(word + " " + " ".join(repr(float(x)) for x in row) + "\n")


def write_weighted(path, wm, meta=None) -> None:
    """The weighted-matrix writer that formatted each cell of a lexsorted COO copy."""
    full_meta = {"scheme": wm.scheme, "n_words": str(wm.shape[0]), "n_features": str(wm.shape[1])}
    full_meta.update(meta or {})
    coo = wm.matrix.tocoo()
    cells = ((int(coo.row[i]), int(coo.col[i]), repr(float(coo.data[i]))) for i in np.lexsort((coo.col, coo.row)))
    _write_rows(path, cells, full_meta)


def write_counts(path, counts, meta=None) -> None:
    """The count-table writer that formatted numpy scalars."""
    full_meta = {"n_words": str(counts.n_words), "window": str(counts.window)}
    full_meta.update(meta or {})
    _write_rows(path, zip(counts.targets, counts.features, counts.counts), full_meta)


def _write_rows(path, rows, meta) -> None:
    with atomic_writer(path) as fh:
        for key, value in meta.items():
            fh.write(f"#{key}={value}\n")
        for row in rows:
            fh.write("\t".join(str(field) for field in row) + "\n")


# --- the table readers that parsed their own headers


def read_counts(path) -> CooccurrenceCounts:
    """The count-table reader that parsed its headers with int() and found repeated cells with np.unique."""
    meta = read_meta(path)
    try:
        n_words = int(meta["n_words"])
        window = int(meta["window"])
    except KeyError as exc:
        raise CorpusError(f"{path}: missing {exc.args[0]} header") from None
    word_id = bounded(int, 0, n_words - 1, f"id out of range for n_words={n_words}")
    columns = {"target": word_id, "feature": word_id, "count": bounded(int, 1, math.inf, "count below 1")}
    targets, features, values = (np.array(c, dtype=np.int64) for c in read_columns(path, columns, CorpusError))
    if len(np.unique(targets * n_words + features)) < len(targets):
        raise CorpusError(f"{path}: duplicate (target, feature) rows")
    order = np.lexsort((features, targets))
    return CooccurrenceCounts(n_words, window, targets[order], features[order], values[order])


def read_weighted(path) -> WeightedMatrix:
    """The weighted-matrix reader that took any scheme and found repeated cells by converting to CSR."""
    meta = read_meta(path)
    try:
        scheme = meta["scheme"]
        n_words = int(meta["n_words"])
        n_features = int(meta["n_features"])
    except KeyError as exc:
        raise WeightingError(f"{path}: missing {exc.args[0]} header") from None
    outside = f"id out of range for n_words={n_words}, n_features={n_features}"
    columns = {"target": bounded(int, 0, n_words - 1, outside),
               "feature": bounded(int, 0, n_features - 1, outside),
               "weight": bounded(float, -sys.float_info.max, sys.float_info.max, "weight is NaN or infinite")}
    rows, cols, vals = read_columns(path, columns, WeightingError)
    wm = WeightedMatrix(scheme, sparse.coo_matrix((vals, (rows, cols)), shape=(n_words, n_features)).tocsr())
    if wm.matrix.nnz < len(vals):
        raise WeightingError(f"{path}: duplicate (target, feature) cells")
    if scheme == SCHEME_LMI:
        try:
            wm.validate()
        except WeightingError as exc:
            raise WeightingError(f"{path}: {exc}") from None
    return wm


# --- the randomized SVD


def randomized_svd(matrix, k: int, seed: int):
    """Subspace iteration with a QR after every product, and the SVD of the wide B."""
    n, m = matrix.shape
    sketch = min(k + DEFAULT_OVERSAMPLE, min(n, m))
    rng = rng_for(seed, "svd-sketch")
    omega = rng.standard_normal((m, sketch))
    q, _ = np.linalg.qr(matrix @ omega)
    for _ in range(DEFAULT_POWER_ITERS):
        q, _ = np.linalg.qr(matrix.T @ q)
        q, _ = np.linalg.qr(matrix @ q)
    b = q.T @ matrix
    if sparse.issparse(b):
        b = np.asarray(b.todense())
    ub, s, vt = np.linalg.svd(b, full_matrices=False)
    return (q @ ub)[:, :k], s[:k], vt[:k]


# --- the truncated SVD that factored the whole matrix


def lu_randomized_svd(matrix, k: int, seed: int):
    """The LU-normalized subspace iteration, sketched and run on all of
    `matrix`; every factorization works on a copy of its block."""
    from scipy.linalg import lu, qr, svd

    def normalized(block):
        return lu(block, permute_l=True, check_finite=False)[0]

    n, m = matrix.shape
    sketch = min(k + DEFAULT_OVERSAMPLE, min(n, m))
    y = matrix @ rng_for(seed, "svd-sketch").standard_normal((m, sketch))
    for _ in range(DEFAULT_POWER_ITERS):
        y = matrix @ normalized(matrix.T @ normalized(y))
    q = qr(y, mode="economic", check_finite=False)[0]
    del y
    v, s, ubt = svd(matrix.T @ q, full_matrices=False, check_finite=False)
    return q @ ubt[:k].T, s[:k].copy(), v[:, :k].T.copy()


def whole_matrix_svd(matrix, dim: int, mode: str = "auto", seed: int = 0, sigma_exponent: float = 1.0,
                     randomized=lu_randomized_svd) -> SvdResult:
    """`truncated_svd` as it was before it factored only the block of nonzero
    rows and columns: empty rows come out of it as rounding noise. Its
    randomized mode runs `randomized(matrix, k, seed)`."""
    if dim < 1:
        raise ReductionError(f"dim must be >= 1, got {dim}")
    if not sigma_exponent >= 0:
        raise ReductionError("sigma exponent must be >= 0")
    if mode not in ("auto", "dense", "randomized"):
        raise ReductionError(f"unknown svd mode {mode!r}")
    n, m = matrix.shape
    k = min(dim, n, m)
    if mode == "auto":
        mode = "dense" if max(n, m) < DENSE_CUTOFF else "randomized"
    if mode == "dense":
        dense = np.asarray(matrix.todense()) if sparse.issparse(matrix) else np.asarray(matrix)
        u, s, _ = np.linalg.svd(dense.astype(np.float64), full_matrices=False)
        u, s = u[:, :k].copy(), s[:k].copy()
    else:
        u, s, _ = randomized(matrix.astype(np.float64), k, seed)
    tol = (s[0] * max(n, m) * np.finfo(np.float64).eps) if len(s) else 0.0
    effective_rank = int((s > tol).sum())
    u *= s ** sigma_exponent
    return SvdResult(row_vectors=u, singular_values=s, effective_rank=effective_rank, mode_used=mode)


# --- the block SVD that returned Vt as well


def _block_randomized_svd(matrix, k: int, seed: int, shape: tuple[int, int], cols):
    """reduction._randomized_svd, which returned U, s and Vt."""
    from scipy.linalg import lu, qr, svd

    def normalized(block):
        return lu(block, permute_l=True, overwrite_a=True, check_finite=False)[0]

    n, m = shape
    sketch = min(k + DEFAULT_OVERSAMPLE, min(n, m))
    y = matrix @ rng_for(seed, "svd-sketch").standard_normal((m, sketch))[cols]
    for _ in range(DEFAULT_POWER_ITERS):
        y = normalized(y)
        y = matrix.T @ y
        y = normalized(y)
        y = matrix @ y
    y = np.asfortranarray(y)
    q = qr(y, mode="economic", overwrite_a=True, check_finite=False)[0]
    del y
    v, s, ubt = svd(np.asfortranarray(matrix.T @ q), full_matrices=False, overwrite_a=True, check_finite=False)
    vt = v[:, :k].T.copy()
    del v
    return q @ ubt[:k].T, s[:k].copy(), vt


def _block_factor(matrix, k: int, mode: str, seed: int, shape: tuple[int, int], cols):
    if mode == "randomized":
        return _block_randomized_svd(matrix.astype(np.float64), k, seed, shape, cols)
    u, s, vt = np.linalg.svd(matrix.toarray().astype(np.float64, copy=False), full_matrices=False)
    return u[:, :k].copy(), s[:k].copy(), vt[:k].copy()


def _nonempty(matrix) -> tuple[np.ndarray, np.ndarray]:
    n, m = matrix.shape
    coo = matrix.tocoo()
    nonzero = coo.data != 0
    return (np.flatnonzero(np.bincount(coo.row[nonzero], minlength=n)),
            np.flatnonzero(np.bincount(coo.col[nonzero], minlength=m)))


def block_svd(matrix, dim: int, mode: str = "auto", seed: int = 0,
              sigma_exponent: float = 1.0) -> tuple[SvdResult, np.ndarray]:
    """`truncated_svd` as it was while it also returned Vt: the result and
    Vt, which it wrote back into a (k, m) array of zeros on the block path."""
    n, m = matrix.shape
    k = min(dim, n, m)
    if mode == "auto":
        mode = "dense" if max(n, m) < DENSE_CUTOFF else "randomized"
    rows, cols = _nonempty(matrix)
    if len(rows) == n and len(cols) == m:
        u, s, vt = _block_factor(matrix, k, mode, seed, (n, m), slice(None))
    else:
        factors = _block_factor(matrix.tocsr()[rows][:, cols], k, mode, seed, (n, m), cols) if len(rows) else ()
        u, s, vt = np.zeros((n, k)), np.zeros(k), np.zeros((k, m))
        if factors:
            r = len(factors[1])
            u[rows, :r], s[:r], vt[:r, cols] = factors
    tol = (s[0] * max(n, m) * np.finfo(np.float64).eps) if len(s) else 0.0
    effective_rank = int((s > tol).sum())
    u *= s ** sigma_exponent
    return SvdResult(row_vectors=u, singular_values=s, effective_rank=effective_rank, mode_used=mode), vt


# --- co-occurrence counting


def count_cooccurrences(lines, vocab, window, dynamic_window=False, seed=0) -> CooccurrenceCounts:
    """Separate target and feature chunks per offset, one `np.full` per line."""
    if window < 1:
        raise CorpusError(f"window must be >= 1, got {window}")
    id_lines = encode_lines(lines, vocab)
    if not id_lines or len(vocab) == 0:
        empty = np.zeros(0, dtype=np.int64)
        return CooccurrenceCounts(len(vocab), window, empty, empty.copy(), empty.copy())

    tok = np.concatenate([ids for ids in id_lines]) if id_lines else np.zeros(0, dtype=np.int64)
    line_id = (
        np.concatenate([np.full(len(ids), i, dtype=np.int64) for i, ids in enumerate(id_lines)])
        if id_lines
        else np.zeros(0, dtype=np.int64)
    )
    if len(tok) < 2:
        empty = np.zeros(0, dtype=np.int64)
        return CooccurrenceCounts(len(vocab), window, empty, empty.copy(), empty.copy())

    if dynamic_window:
        rng = np.random.default_rng(seed)
        eff = rng.integers(1, window + 1, size=len(tok))
    else:
        eff = None

    target_chunks = []
    feature_chunks = []
    for off in range(1, window + 1):
        if off >= len(tok):
            break
        same_line = line_id[:-off] == line_id[off:]
        left = tok[:-off]
        right = tok[off:]
        # center on the left token: context is `off` to the right
        mask = same_line if eff is None else same_line & (eff[:-off] >= off)
        target_chunks.append(left[mask])
        feature_chunks.append(right[mask])
        # center on the right token: context is `off` to the left
        mask = same_line if eff is None else same_line & (eff[off:] >= off)
        target_chunks.append(right[mask])
        feature_chunks.append(left[mask])

    targets = np.concatenate(target_chunks) if target_chunks else np.zeros(0, dtype=np.int64)
    features = np.concatenate(feature_chunks) if feature_chunks else np.zeros(0, dtype=np.int64)
    keys = targets.astype(np.int64) * len(vocab) + features.astype(np.int64)
    uniq, counts = np.unique(keys, return_counts=True)
    t, f, c = uniq // len(vocab), uniq % len(vocab), counts.astype(np.int64)
    return CooccurrenceCounts(len(vocab), window, t, f, c)


def window_keys(tok, line_id, window, scale, eff=None) -> np.ndarray:
    """corpus.window_keys as int64 keys, one chunk per offset and side, concatenated."""
    tok = tok.astype(np.int64)
    chunks = [np.zeros(0, dtype=np.int64)]
    for off in range(1, min(window, len(tok) - 1) + 1):
        same_line = line_id[:-off] == line_id[off:]
        left, right = tok[:-off], tok[off:]
        mask = same_line if eff is None else same_line & (eff[:-off] >= off)
        chunks.append(left[mask] * scale + right[mask])
        mask = same_line if eff is None else same_line & (eff[off:] >= off)
        chunks.append(right[mask] * scale + left[mask])
    return np.concatenate(chunks)


def epoch_pairs(ids, vocab, cfg, epoch):
    """embeddings._epoch_pairs from the int64 `window_keys` of token positions, sorted."""
    if cfg.subsample is not None:
        ids = corpus.subsample_ids(ids, corpus.discard_probabilities(vocab, cfg.subsample),
                                   rng_for(cfg.seed, "subsample", epoch))
    tok, line_id = ids
    keys = np.sort(window_keys(np.arange(len(tok)), line_id, cfg.window, len(tok)))
    return tok[keys // len(tok)].astype(np.int32), tok[keys % len(tok)].astype(np.int32)


# --- helpers that only tests use


def sgns_pair_loss(w_vec: np.ndarray, ctx_rows: np.ndarray, labels: np.ndarray) -> float:
    """Sum of log sigma(+-dot) terms for one positive pair and its negatives."""
    x = ctx_rows @ w_vec
    return float(np.sum(labels * emb.log_sigmoid(x) + (1.0 - labels) * emb.log_sigmoid(-x)))


def contrast_value(W: np.ndarray, w: int, syn_ids, ant_ids) -> float:
    """mean cos(w, u) over synonyms minus mean cos(w, v) over antonyms."""
    value = 0.0
    for ids, sign in ((syn_ids, 1.0), (ant_ids, -1.0)):
        if len(ids):
            value += sign * pair_cosines(W, np.full(len(ids), w), ids).mean()
    return value


def counts_dict(counts: CooccurrenceCounts) -> dict[tuple[int, int], int]:
    """A count table as {(target, feature): count}."""
    return {(int(t), int(f)): int(c) for t, f, c in zip(counts.targets, counts.features, counts.counts)}


def counts_csr(counts: CooccurrenceCounts) -> sparse.csr_matrix:
    """A count table as an n_words x n_words float matrix."""
    m = sparse.coo_matrix((counts.counts.astype(np.float64), (counts.targets, counts.features)),
                          shape=(counts.n_words, counts.n_words))
    return m.tocsr()


def reconstruction(result, matrix) -> np.ndarray:
    """U U^T A for the SvdResult of `matrix` A at sigma_exponent=1, which
    every caller uses: U is then the row vectors over s, in the first
    effective_rank components, whose s exceed truncated_svd's tolerance.
    This is U diag(s) Vt in both modes up to the components below it, as
    U^T A = diag(s) Vt: the randomized U = Q Ub lies in span(Q), and
    B = Q^T A = Ub diag(s) Vt. Below the tolerance LAPACK may return s down
    to subnormals for a rank-deficient A, and row vectors over such an s are
    rounding noise, not a direction of U."""
    k = result.effective_rank
    u = result.row_vectors[:, :k] / result.singular_values[:k]
    return u @ (matrix.T @ u).T


def write_lexicon(path, lex, meta=None) -> None:
    """Emit each unordered pair once, synonyms first, sorted for determinism."""
    seen: set[frozenset[str]] = set()
    rows = []
    for rel, mapping in (("SYN", lex.syn), ("ANT", lex.ant)):
        for w in sorted(mapping):
            for other in sorted(mapping[w]):
                key = frozenset((w, other))
                if key in seen:
                    continue
                seen.add(key)
                rows.append((w, rel, other))
    write_rows(path, rows, meta)
