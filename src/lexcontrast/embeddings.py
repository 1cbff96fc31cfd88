"""Skip-gram negative-sampling embeddings and the lexical-contrast extension.

Plain SGNS scores observed word-context pairs above noise pairs. The
contrast-aware trainer applies the same per-pair update, then nudges the
target vector of the word toward its feature-sharing synonyms and away from
its feature-sharing antonyms via the analytic cosine gradient; synonym and
antonym target vectors receive the mirrored nudge.

Training is single-threaded SGD over the pair stream in batches of B pairs
(`batch_size`). Every SGNS gradient of a batch, for the positive context and
the k sampled negatives of each pair, is taken at the W and C of the batch
start; each pair keeps its own learning rate on the linear decay, a sampled
negative that collides with the true context contributes nothing, and the
updates to a row that the batch touches more than once are summed before
they are applied. Within one pair this is the rule of the per-pair update;
across a batch it makes gradients stale by up to B - 1 pairs, which SGD on
sparse rows tolerates (Hogwild!, Recht et al. 2011). B is the largest
divisor of CHECK_EVERY up to MAX_BATCH that keeps the expected count of the
likeliest noise word among one batch's negatives at about NOISE_REUSE, so B
shrinks on tiny vocabularies; at B = 1 training is the per-pair loop up to
rounding. C starts at zero, so the SGNS step of the first batch never moves
W, and the trainers refuse a run whose epochs together fill one batch. A
later batch that reads only rows of C still at zero leaves W as drawn too, so
they also refuse a run whose W ends bit for bit as drawn.

The contrast step is not batched the same way: taking a batch's cosine
gradients at one W and summing them lowered the contrast trainer's Spearman
rho by 0.02 to 0.06 on the benchmark's `train` world. After each batch's SGNS
step the batch's contrast hits update W as if one at a time, in stream order,
but in waves: a hit joins the first wave after every earlier hit of the batch
that shares a row with it (its w, a synonym or an antonym), so the hits of a
wave touch disjoint rows and commute, and one vectorized step applies a
whole wave (the conflict-free grouping of CYCLADES, Pan et al. 2016). The
step's arithmetic is row-local by definition: every dot product and squared
norm is a sum over one row, np.add.reduce(a * b, axis=1), and each side's
rows are summed in order. A hit therefore rounds the same in any wave, as
`contrast_gradients` rounds it alone, and W is bit-identical to the hits
applied one at a time.

W and C are checked every CHECK_EVERY updates, which always ends a batch,
and after each epoch: training stops once either holds NaN, Inf or a value
beyond ±MAX_ABS. Healthy runs stayed within ±10.3, and the finite runaways
of too high a learning rate passed 1e8 (README).

Training holds every epoch's (target, context) stream, 8 bytes a pair, and
one block of about PLAN_PAIRS pairs, a whole number of batches: each block
draws its negatives as the next rows of its epoch's generator, which equal
one whole draw of its guide table, and builds its own collision mask, rates,
contrast waves and scatter plan: each step's products need no sort.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TextIO

import numpy as np
from scipy import sparse
from scipy.sparse import _sparsetools

from .config import TrainingConfig, TrainingError
from .corpus import (
    Corpus,
    CorpusError,
    TokenLines,
    Vocabulary,
    _as_corpus,
    discard_probabilities,
    subsample_ids,
    window_keys,
)
from .lexicon import ContrastLexicon
from .seeding import rng_for
from .vectors import DenseEmbeddings
from .weighting import relation_matrix

MIN_ALPHA_FRACTION = 1e-4  # floor of the linear decay, as a fraction of alpha0
MAX_ABS = 1e4  # a value of W or C beyond ±MAX_ABS is divergence: about 1,000 times the largest healthy one measured


def sigmoid(x):
    """Numerically stable logistic function; scalar in, scalar out.

    With e = exp(-|x|), which never overflows, the numerator is 1 for x >= 0
    and e otherwise, so both halves equal the textbook forms bit for bit.
    max(e, sign(x)) picks it without masks, since e <= 1 and e == 1 at x == 0.
    """
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    out = np.maximum(e, np.sign(x)) / (e + 1.0)
    return float(out) if out.ndim == 0 else out


def log_sigmoid(x):
    """log(sigmoid(x)) without overflow for large negative x."""
    return -np.logaddexp(0.0, -np.asarray(x, dtype=np.float64))


def learning_rate(alpha0: float, update, total_updates: int):
    """Linear decay from alpha0 down to alpha0 * MIN_ALPHA_FRACTION, at one
    update index or at each of an array of them."""
    return alpha0 * np.maximum(MIN_ALPHA_FRACTION, 1.0 - update / total_updates)


@dataclass(frozen=True)
class NoiseDistribution:
    """Unigram^exponent sampling distribution over vocabulary ids."""

    probabilities: np.ndarray
    cumulative: np.ndarray = field(init=False, repr=False)
    guide: np.ndarray = field(init=False, repr=False)  # guide[i]: the count of cumulative <= i / (len - 1)

    def __post_init__(self):
        p = self.probabilities
        if abs(p.sum() - 1.0) > 1e-9:
            raise TrainingError("noise probabilities must sum to 1")
        if not (p > 0).all():
            raise TrainingError("every vocabulary word needs positive noise probability")
        object.__setattr__(self, "cumulative", np.cumsum(p))
        m = 1 << (4 * len(p) - 1).bit_length()  # at least 4 grid points per word, a power of two
        object.__setattr__(self, "guide", self.cumulative.searchsorted(np.arange(m + 1) / m, "right").astype(np.int32))

    def sample(self, rng: np.random.Generator, shape) -> np.ndarray:
        """min(count of cumulative <= u, n - 1) for uniforms u, by a guide table (Chen & Asau 1974):
        u * m is exact, m a power of two, so guide[floor(u * m)] <= the count. One step of a walk
        finishes most draws, binary search the rest, whose bucket holds two or more values <= u."""
        u = rng.random(int(np.prod(shape)))  # the draws of rng.random(shape), flat
        draws = self.guide[(u * (len(self.guide) - 1)).astype(np.int32)]
        late = np.flatnonzero(self.cumulative.take(draws, mode="clip") <= u)
        draws[late] += 1
        late = late[self.cumulative.take(draws[late], mode="clip") <= u[late]]
        draws[late] = np.searchsorted(self.cumulative, u[late], side="right")
        return np.minimum(draws, len(self.probabilities) - 1, dtype=np.int32).reshape(shape)


def build_noise_distribution(vocab: Vocabulary, exponent: float = 0.75) -> NoiseDistribution:
    """P(w) proportional to count(w) ** exponent."""
    if len(vocab) == 0:
        raise TrainingError("cannot build a noise distribution over an empty vocabulary")
    weights = vocab.counts.astype(np.float64) ** exponent
    return NoiseDistribution(weights / weights.sum())


@dataclass
class EmbeddingModel:
    """Target matrix W, context matrix C, and the per-epoch history of the run that made them."""

    W: np.ndarray
    C: np.ndarray
    vocab: Vocabulary
    history: list[dict] = field(default_factory=list, init=False)

    def embeddings(self, source: str = "sgns", average_contexts: bool = False) -> DenseEmbeddings:
        matrix = (self.W + self.C) / 2.0 if average_contexts else self.W.copy()
        return DenseEmbeddings(list(self.vocab.words), matrix, source=source)

    def validate(self, update: int | None = None) -> None:
        """Refuse W and C unless every value lies within ±MAX_ABS; NaN fails the comparison too."""
        ends = np.array([self.W.min(), self.W.max(), self.C.min(), self.C.max()])
        if np.abs(ends).max() <= MAX_ABS:
            return
        after = "" if update is None else f" after update {update}"
        if not np.isfinite(ends).all():
            raise TrainingError(f"training diverged: W or C holds NaN or Inf{after}")
        raise TrainingError(f"training diverged: W or C holds a value of magnitude above {MAX_ABS:g}{after}")


# --- pure gradients: the SGNS pair term and the contrast term


def sgns_pair_gradients(w_vec: np.ndarray, ctx_rows: np.ndarray, labels: np.ndarray, keep=None, out=(None, None)):
    """Ascent gradients of one pair's log-likelihood, the sum over its rows
    of log sigma(dot) for label 1 and log sigma(-dot) for label 0, wrt w and
    each context row.

    Takes one pair, or a stack of pairs along leading axes; matmul runs the
    same BLAS call for each pair of a stack as for that pair alone. Rows
    where `keep` is False get zero error and so add to neither gradient.
    `out`, if given, holds the arrays of shapes (..., 1, d) and
    (..., k+1, d) that the two gradients are written into.
    """
    err = labels - sigmoid(np.matmul(ctx_rows, w_vec[..., None])[..., 0])
    if keep is not None:
        err = np.where(keep, err, 0.0)
    g_w = np.matmul(err[..., None, :], ctx_rows, out=out[0])[..., 0, :]
    return g_w, np.multiply(err[..., None], w_vec[..., None, :], out=out[1])


def contrast_gradients(W: np.ndarray, w: int, syn_ids, ant_ids):
    """Ascent gradients of the contrast value, mean cos(w, u) over synonyms
    minus mean cos(w, v) over antonyms, wrt W[w], each synonym, each antonym.

    Members with zero norm contribute zero value and zero gradient but still
    count in the mean's normalizer. This is `_wave_gradients` on one hit, so
    it rounds as the hit does in any wave.
    """
    n_syn = len(syn_ids)
    out = _wave_gradients(W, _plan_hit(w, 0.0, syn_ids, ant_ids), 0)
    return out[0], out[1:1 + n_syn], out[1 + n_syn:]


# --- the contrast step, many hits at once


@dataclass(frozen=True)
class _Waves:
    """Contrast hits laid out wave by wave for `_wave_gradients`.

    No two hits of a wave share a row of W, so a wave's hits commute and one
    vectorized step applies them all. Within a wave the hits keep stream
    order, and each hit's member rows keep hit order: its synonyms, then its
    antonyms. A member's `side` is the row of the wave's (2 * hits, d) side
    sums that np.add.at adds its d_w to, in that order.
    """

    owners: np.ndarray  # (M,) the w of each member's hit
    side: np.ndarray  # (M,) each member's side in its wave: 2 * (hit in its wave) + (1 for antonyms)
    side_scale: np.ndarray  # (2H, 1) sign / length of each hit's synonym and antonym side (length 1 if empty)
    row_scale: np.ndarray  # (M, 1) the side_scale of each member's side
    scatter: np.ndarray  # per wave: each hit's w, then its member rows
    steps: np.ndarray  # (H + M, 1) alpha * beta of the hit behind each scatter entry
    bounds: list  # per wave: its hit bounds and its row bounds


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The concatenated ranges starts[i] .. starts[i] + lengths[i] - 1."""
    ends = np.cumsum(lengths)
    return np.repeat(starts - ends + lengths, lengths) + np.arange(ends[-1] if len(ends) else 0)


def _plan_waves(targets, steps, n_syn, n_ant, members, wave) -> _Waves:
    """Lay out hits given in wave order: `wave` rises from 0 by steps of 0
    or 1, and within a wave the hits are in stream order. Hit j has
    n_syn[j] synonyms, then n_ant[j] antonyms, next in `members`."""
    H, M = len(targets), len(members)
    n_waves = int(wave[-1]) + 1 if H else 0
    sizes = n_syn + n_ant
    first = np.cumsum(sizes) - sizes
    hb = np.searchsorted(wave, np.arange(n_waves + 1))
    rb = np.append(first, M)[hb]
    row_hit = np.repeat(np.arange(H), sizes)
    row_wave = wave[row_hit]
    ant = np.arange(M) - first[row_hit] >= n_syn[row_hit]
    side_scale = (np.array([1.0, -1.0]) / np.maximum(np.column_stack((n_syn, n_ant)), 1)).reshape(-1, 1)
    hit_at, row_at = rb[wave] + np.arange(H), hb[row_wave + 1] + np.arange(M)
    scatter, step = np.empty(H + M, dtype=np.intp), np.empty((H + M, 1))
    scatter[hit_at], scatter[row_at] = targets, members
    step[hit_at, 0], step[row_at, 0] = steps, steps[row_hit]
    return _Waves(owners=targets[row_hit], side=2 * (row_hit - hb[row_wave]) + ant, side_scale=side_scale,
                  row_scale=side_scale[2 * row_hit + ant], scatter=scatter, steps=step,
                  bounds=list(zip(hb[:-1].tolist(), hb[1:].tolist(), rb[:-1].tolist(), rb[1:].tolist())))


def _plan_hit(w: int, step: float, syn_ids, ant_ids) -> _Waves:
    """A plan of one wave that holds the one hit (w, syn_ids, ant_ids)."""
    return _plan_waves(np.array([w], dtype=np.intp), np.array([step]), np.array([len(syn_ids)]),
                       np.array([len(ant_ids)]), np.concatenate((syn_ids, ant_ids)).astype(np.intp),
                       np.zeros(1, dtype=np.intp))


def _wave_gradients(W: np.ndarray, plan: _Waves, i: int) -> np.ndarray:
    """contrast_gradients of every hit of wave i, at the W all of them see.

    Returns g_w of each hit, then the scaled gradient of each member row, in
    the order of the wave's scatter entries. Every dot product and squared
    norm is a row-local sum, np.add.reduce(a * b, axis=1), and every other
    step is elementwise, so a member row rounds the same whatever else is in
    the wave. Each side's d_w rows are summed in order at every d: np.add.at
    adds repeated indices one after another, into +0.0 zeros, so an empty
    side sums to +0.0. g_w is 0 plus the synonym term plus the antonym term,
    and 0.0 + (-0.0) is +0.0, so the sign of an all-zero side never reaches
    it. Rows where a norm is 0 get no cosine and no gradient.
    """
    h0, h1, r0, r1 = plan.bounds[i]
    h, M, d = h1 - h0, r1 - r0, W.shape[1]
    R, wv = W.take(plan.scatter[h1 + r0:h1 + r1], axis=0), W.take(plan.owners[r0:r1], axis=0)
    nw2 = np.add.reduce(wv * wv, axis=1)
    nr = np.sqrt(np.add.reduce(R * R, axis=1))
    ok = (nr > 0) & (nw2 > 0)
    inv = np.divide(1.0, nr * np.sqrt(nw2), out=np.zeros(M), where=ok)
    cos = np.add.reduce(R * wv, axis=1) * inv
    d_w = R * inv[:, None] - np.divide(cos, nw2, out=np.zeros(M), where=ok)[:, None] * wv
    d_r = inv[:, None] * wv - np.divide(cos, nr * nr, out=np.zeros(M), where=ok)[:, None] * R
    d_w[~ok] = 0.0
    d_r[~ok] = 0.0
    sums = np.zeros((2 * h, d))
    np.add.at(sums, plan.side[r0:r1], d_w)
    sums *= plan.side_scale[2 * h0:2 * h1]
    out = np.empty((h + M, d))
    np.add.reduce(sums.reshape(h, 2, d), axis=1, initial=0.0, out=out[:h])
    np.multiply(d_r, plan.row_scale[r0:r1], out=out[h:])
    return out


def _apply_wave(W: np.ndarray, plan: _Waves, i: int) -> None:
    """W[w] += step * g_w for every hit of wave i, then each member row its update.

    np.add.at adds the updates one by one in scatter order, so a row that
    repeats within a hit, which only a hand-built lexicon allows, takes w's
    update first and a synonym's before an antonym's.
    """
    h0, h1, r0, r1 = plan.bounds[i]
    update = _wave_gradients(W, plan, i)
    update *= plan.steps[h0 + r0:h1 + r1]
    np.add.at(W, plan.scatter[h0 + r0:h1 + r1], update)


# --- exact objective, the --track-objective report (not used in the SGD loop)

OBJECTIVE_BLOCK = 64  # targets per block of the exact objective; a block holds about this many vocabulary-long rows


def sgns_objective(model: EmbeddingModel, targets: np.ndarray, contexts: np.ndarray, noise: NoiseDistribution,
                   k: int) -> float:
    """Exact counted-pair SGNS objective of a pair stream (Levy & Goldberg 2014):
    the sum over distinct pairs (t, c) of #(t, c) * log sigma(W[t] . C[c]),
    plus, for each target t with #(t) pairs in the stream,
    k * #(t) * sum over the vocabulary of P_noise(x) * log sigma(-W[t] . C[x]).

    The negative term runs over blocks of OBJECTIVE_BLOCK targets, the
    positive one over blocks of OBJECTIVE_BLOCK * vocabulary / dim pairs, so
    a block holds about OBJECTIVE_BLOCK * vocabulary floats and memory is
    O(pairs + OBJECTIVE_BLOCK * vocabulary).
    """
    W, C = model.W, model.C
    n = len(W)
    keys, counts = np.unique(targets.astype(np.int64) * n + contexts, return_counts=True)
    dots = np.empty(len(keys))
    step = max(1, OBJECTIVE_BLOCK * n // W.shape[1])
    for lo in range(0, len(keys), step):
        block = keys[lo:lo + step]
        dots[lo:lo + step] = np.einsum("ij,ij->i", W[block // n], C[block % n])
    per_target = np.bincount(targets, minlength=n).astype(np.float64)
    hot = np.flatnonzero(per_target)
    expect = np.empty(len(hot))
    for lo in range(0, len(hot), OBJECTIVE_BLOCK):
        block = hot[lo:lo + OBJECTIVE_BLOCK]
        expect[lo:lo + OBJECTIVE_BLOCK] = log_sigmoid(-(C @ W[block].T)).T @ noise.probabilities
    positive = float(counts.astype(np.float64) @ log_sigmoid(dots))
    return positive + k * float(per_target[hot] @ expect)


# --- pair extraction


def _epoch_pairs(ids: tuple[np.ndarray, np.ndarray], vocab: Vocabulary, cfg: TrainingConfig, epoch: int):
    """One epoch's positive (target, context) pairs in corpus-scan order:
    each token that the epoch's subsample draw keeps in turn, with its
    contexts left to right. `ids` is the (token id, line) pair of
    `Corpus.ids`.

    The window keys of token positions, sorted, are that order.
    """
    if cfg.subsample is not None:
        ids = subsample_ids(ids, discard_probabilities(vocab, cfg.subsample), rng_for(cfg.seed, "subsample", epoch))
    tok, line_id = ids
    keys = window_keys(np.arange(len(tok)), line_id, cfg.window, len(tok))
    keys.sort()
    return tok[keys // len(tok)].astype(np.int32, copy=False), tok[keys % len(tok)].astype(np.int32, copy=False)


# --- contrast bookkeeping for the dLCE loop


class _ContrastState:
    """Per-(word, context) synonym/antonym sets, found in bulk.

    The synonyms of w that hold feature c are the row S[w] * H.T[c], with S
    the 0/1 synonym matrix of `relation_matrix`, H the feature-holder matrix
    of `build_feature_index` and * the elementwise product; the antonyms
    likewise, from the plain antonym matrix, not the enriched one. One
    product [S | A][words] * [H.T | H.T][contexts] finds both sides of many
    keys at once. When a set exceeds max_contrast_neighbors it is sampled
    without replacement, deterministically per (word, context) key.
    """

    def __init__(self, lex: ContrastLexicon, vocab: Vocabulary, idx: sparse.csr_matrix, cfg: TrainingConfig):
        self.n = len(vocab)
        vocab.check_rows("the feature index", idx.shape, TrainingError, square=True)
        self.relations = sparse.hstack((relation_matrix(lex, "syn", vocab), relation_matrix(lex, "ant", vocab)),
                                       format="csr")
        held_by = sparse.csr_matrix(idx.T)  # row c: the words that hold feature c
        self.held_by = sparse.hstack((held_by, held_by), format="csr")
        self.in_lexicon = np.diff(self.relations.indptr) > 0
        self.cap, self.seed, self.beta = cfg.max_contrast_neighbors, cfg.seed, cfg.beta

    def sets(self, words: np.ndarray, contexts: np.ndarray):
        """The contrast sets of the keys (words[i], contexts[i]): n_syn[i]
        synonyms, then n_ant[i] antonyms, next in `members`, each side in
        ascending id order. A key with no set has n_syn[i] = n_ant[i] = 0."""
        both = self.relations[words].multiply(self.held_by[contexts])
        ids, sizes = both.indices.astype(np.intp), np.diff(both.indptr)
        n_ant = np.bincount(np.repeat(np.arange(len(sizes)), sizes)[ids >= self.n], minlength=len(sizes))
        n_syn = sizes - n_ant
        members = ids % self.n
        if self.cap is None:
            return n_syn, n_ant, members
        keep = np.ones(len(members), dtype=bool)
        lengths = np.stack((n_syn, n_ant))
        starts = np.stack((both.indptr[:-1], both.indptr[:-1] + n_syn))
        for side, i in np.argwhere(lengths > self.cap).tolist():
            part = slice(starts[side, i], starts[side, i] + lengths[side, i])
            rng = rng_for(self.seed, "contrast", ("syn", "ant")[side], int(words[i]), int(contexts[i]))
            keep[part] = np.isin(members[part], rng.choice(members[part], size=self.cap, replace=False))
        return np.minimum(n_syn, self.cap), np.minimum(n_ant, self.cap), members[keep]

    def waves(self, targets: np.ndarray, contexts: np.ndarray, alphas: np.ndarray, batch: int):
        """The contrast hits of a pair stream laid out in waves, and where the
        waves of each batch of `batch` pairs start: batch b applies waves
        starts[b] to starts[b + 1] - 1.

        A hit goes to the first wave of its batch after every earlier hit of
        the batch that shares a row of W with it: its w, a synonym or an
        antonym. Applying the waves in turn then equals applying the hits one
        at a time in stream order.
        """
        cand = np.flatnonzero(self.in_lexicon[targets])
        codes, key = np.unique(targets[cand].astype(np.int64) * self.n + contexts[cand], return_inverse=True)
        n_syn, n_ant, flat = self.sets(codes // self.n, codes % self.n)
        sizes = n_syn + n_ant
        first = np.cumsum(sizes) - sizes
        hit = sizes[key] > 0
        hits, key = cand[hit], key[hit]

        def members(k):
            return flat[_ranges(first[k], sizes[k])]

        batch_of = hits // batch
        level = _wave_levels(batch_of, targets[hits], members(key), np.repeat(np.arange(len(hits)), sizes[key]))
        count = np.zeros(len(targets) // batch + 2, dtype=np.intp)  # count[b + 1]: the waves of batch b
        np.maximum.at(count, batch_of + 1, level + 1)
        starts = np.cumsum(count)
        wave = starts[batch_of] + level
        order = np.argsort(wave, kind="stable")
        k, hits = key[order], hits[order]
        plan = _plan_waves(targets[hits].astype(np.intp), alphas[hits] * self.beta, n_syn[k], n_ant[k], members(k),
                           wave[order])
        return plan, starts.tolist()


def _wave_levels(batch_of: np.ndarray, targets: np.ndarray, members: np.ndarray,
                 member_hit: np.ndarray) -> np.ndarray:
    """Each hit's wave within its batch: 0, or one more than the latest wave
    of an earlier hit of the batch that shares a row with it.

    Consecutive hits of a batch that share a row are links of a chain; the
    levels are the longest paths along the chains. Each round relaxes every
    link in place with one np.maximum.at, every link reading the previous
    round's levels, until nothing moves: one round more than the longest
    chain has links. A link runs from an earlier hit to a later one, and a
    row repeated within one hit makes no link, so the chains have no cycles.
    """
    hit = np.concatenate((np.arange(len(targets)), member_hit))
    row = np.concatenate((targets, members))
    order = np.lexsort((hit, row, batch_of[hit]))
    hit, row = hit[order], row[order]
    link = (row[1:] == row[:-1]) & (batch_of[hit[1:]] == batch_of[hit[:-1]]) & (hit[1:] != hit[:-1])
    src, dst = hit[:-1][link], hit[1:][link]
    level = np.zeros(len(targets), dtype=np.intp)
    while True:
        before = level.copy()
        np.maximum.at(level, dst, before[src] + 1)
        if np.array_equal(level, before):
            return level


# --- the trainers

CHECK_EVERY = 10_000  # updates between finiteness checks of W and C
MAX_BATCH = 500  # most pairs in one batched SGNS step
NOISE_REUSE = 10.0  # bound on the expected draws of the likeliest noise word per batch
PLAN_PAIRS = 5_000  # about this many pairs' negatives, scatter plan and contrast waves are built at once


def batch_size(noise: NoiseDistribution, negatives: int) -> int:
    """Pairs per SGNS step: the largest divisor of CHECK_EVERY that is at most
    MAX_BATCH and at most NOISE_REUSE / (negatives * max noise probability).

    The second bound keeps the expected number of times one batch samples its
    likeliest noise row, whose gradients all see that row's stale value, at
    about NOISE_REUSE. Dividing CHECK_EVERY puts a batch end on every check.
    """
    cap = int(min(MAX_BATCH, NOISE_REUSE / (negatives * float(noise.probabilities.max()))))
    return next(b for b in range(max(cap, 1), 0, -1) if CHECK_EVERY % b == 0)


def _plan_scatter(rows: np.ndarray, per_batch: int, n: int) -> list:
    """Per batch of `per_batch` entries of `rows` (ids below n), its entries grouped by row, stably: the
    CSR indptr and indices (places in the batch) of S in `_scatter_add`, and each group's row. The
    order sorts batch * n + row stably, an LSD radix sort over 16-bit digits: numpy radix-sorts uint16."""
    top = (len(rows) - 1) // per_batch * n + n  # every key lies below it
    key = np.arange(len(rows), dtype=np.int32 if top < 2**31 else np.int64) // per_batch * n + rows
    order = np.argsort(key.astype(np.uint16), kind="stable")
    for shift in range(16, (top - 1).bit_length(), 16):
        order = order[np.argsort((key[order] >> shift).astype(np.uint16), kind="stable")]
    key = key[order]
    heads = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1], [True]))).astype(np.int32)
    rows, firsts = (key[heads[:-1]] % n).astype(np.int32), range(0, len(key) + per_batch, per_batch)
    bounds = np.searchsorted(heads, firsts).tolist()  # each batch's first group
    return [(heads[g0:g1 + 1] - np.int32(e0), (order[e0:e0 + per_batch] - e0).astype(np.int32), rows[g0:g1])
            for e0, g0, g1 in zip(firsts, bounds, bounds[1:])]


@dataclass(frozen=True)
class _StepWork:
    """The arrays `_sgns_step` works in, for batches of up to `batch` pairs, made once per run: fresh
    ones every batch cost their pages' faults again each time the allocator returns them."""

    w: np.ndarray  # (batch, d): the targets' rows of W
    ctx: np.ndarray  # (batch, k+1, d): the rows of C
    g_w: np.ndarray  # (batch, 1, d)
    g_c: np.ndarray  # (batch, k+1, d)
    scatter: np.ndarray  # (2, batch * (k+1), d): `_scatter_add`'s sums and the rows of M they add to

    @classmethod
    def of(cls, batch: int, k1: int, d: int) -> "_StepWork":
        return cls(np.empty((batch, d)), np.empty((batch, k1, d)), np.empty((batch, 1, d)),
                   np.empty((batch, k1, d)), np.empty((2, batch * k1, d)))


def _scatter_add(M: np.ndarray, groups: tuple, weights: np.ndarray, X: np.ndarray, work: np.ndarray) -> None:
    """M[rows[j]] += weights[j] * X[j] for the entries j of a batch, repeated rows summed in stream order
    by S @ X, the CSR matrix S of the batch's `_plan_scatter` groups with weights, through its kernel.
    `work` is two arrays of at least len(X) rows of M's width, for the sums and the rows they add to."""
    indptr, indices, rows = groups
    sums, held = work[:, :len(rows)]
    sums.fill(0.0)
    _sparsetools.csr_matvecs(len(rows), len(X), X.shape[1], indptr, indices, weights[indices], X.ravel(), sums.ravel())
    M.take(rows, axis=0, mode="clip", out=held)
    held += sums
    M[rows] = held


def _sgns_step(W, C, targets, rows, keep, labels, alphas, groups, work: _StepWork) -> None:
    """One SGD step over a batch of B pairs, gradients at the batch-start W and C.

    rows is (B, k+1): each pair's true context, then its negatives; keep is
    False where a negative collides with the true context, which then
    contributes nothing; `groups` plans the scatter of rows, then targets.
    Only the summing of repeated rows differs from applying each pair's
    update in turn to the same W and C. Every (B, ., d) array is a view of
    `work`; `take` writes into its `out` directly only with mode="clip"
    (the default mode buffers it), which is safe because rows are ids.
    """
    B, k1 = rows.shape
    w, ctx = W.take(targets, axis=0, mode="clip", out=work.w[:B]), C.take(rows, axis=0, mode="clip", out=work.ctx[:B])
    g_w, g_c = sgns_pair_gradients(w, ctx, labels, keep, out=(work.g_w[:B], work.g_c[:B]))
    _scatter_add(C, groups[0], np.repeat(alphas, k1), g_c.reshape(B * k1, -1), work.scatter)
    _scatter_add(W, groups[1], alphas, g_w, work.scatter)


def _train(
    lines: Corpus | TokenLines,
    vocab: Vocabulary,
    cfg: TrainingConfig,
    lexicon: tuple[ContrastLexicon, sparse.csr_matrix] | None,
    progress: TextIO | None,
) -> EmbeddingModel:
    """Both trainers. Its refusals are the one check of whether a run can train; the last two before any
    work read the epoch streams it trains on, and one after the last epoch finds W as drawn."""
    if len(vocab) == 0:  # the text names the min_count that built the vocabulary, if known, not cfg's
        raise TrainingError("empty vocabulary" if vocab.min_count is None else
                            f"empty vocabulary: no word occurs min_count={vocab.min_count} times")
    if int(vocab.counts.min()) < cfg.min_count:
        raise TrainingError("vocabulary/config mismatch: vocabulary holds words below min_count")
    ids = _as_corpus(lines).ids(vocab)
    if len(ids[0]) == 0:
        raise CorpusError("empty corpus: no in-vocabulary tokens to train on")
    epoch_streams = [_epoch_pairs(ids, vocab, cfg, e) for e in range(cfg.epochs)]
    total_updates = sum(len(t) for t, _ in epoch_streams)
    if total_updates == 0:
        raise TrainingError(f"no training pairs survive windowing/subsampling: {len(ids[0])} in-vocabulary "
                            f"tokens, window {cfg.window}, subsample {cfg.subsample or 'off'}")
    noise = build_noise_distribution(vocab, cfg.noise_exponent)
    batch = batch_size(noise, cfg.negatives)
    if sum(-(-len(t) // batch) for t, _ in epoch_streams) == 1:
        raise TrainingError(f"too few training pairs: all {total_updates} fit in one batch of {batch}, and the "
                            "skip-gram step would leave W at its random initialization")
    contrast = None if lexicon is None else _ContrastState(lexicon[0], vocab, lexicon[1], cfg)

    n, d = len(vocab), cfg.dim
    W, C = (rng_for(cfg.seed, "init").random((n, d)) - 0.5) / d, np.zeros((n, d))
    drawn = hashlib.sha256(W).digest()  # W's bytes as drawn, with no copy of W kept to compare
    labels = np.zeros(cfg.negatives + 1)
    labels[0] = 1.0

    model = EmbeddingModel(W=W, C=C, vocab=vocab)
    work = _StepWork.of(batch, cfg.negatives + 1, d)
    span = batch * max(1, PLAN_PAIRS // batch)  # pairs per block, a whole number of batches
    done = 0
    for epoch, (targets, contexts) in enumerate(epoch_streams):
        n_pairs = len(targets)
        rng = rng_for(cfg.seed, "negatives", epoch)  # blocks of its rows equal one (n_pairs, k) draw
        with np.errstate(over="ignore"):
            for lo in range(0, n_pairs, span):
                first, t, c = done + lo, targets[lo:lo + span], contexts[lo:lo + span]
                rows = np.column_stack((c, noise.sample(rng, (len(t), cfg.negatives))))
                keep = rows != rows[:, :1]
                keep[:, 0] = True
                alphas = learning_rate(cfg.learning_rate, np.arange(first, first + len(t)), total_updates)
                groups = zip(_plan_scatter(rows.ravel(), batch * rows.shape[1], n), _plan_scatter(t, batch, n))
                if contrast is not None:
                    plan, starts = contrast.waves(t, c, alphas, batch)
                for b, i in enumerate(range(0, len(t), batch)):
                    j = slice(i, i + batch)
                    _sgns_step(W, C, t[j], rows[j], keep[j], labels, alphas[j], next(groups), work)
                    if contrast is not None:
                        for v in range(starts[b], starts[b + 1]):
                            _apply_wave(W, plan, v)
                    hi = first + min(i + batch, len(t))
                    if (first + i) // CHECK_EVERY < hi // CHECK_EVERY:
                        model.validate(hi)
        alpha_start = float(learning_rate(cfg.learning_rate, done, total_updates))
        done += n_pairs
        model.validate(done)
        record = {"epoch": epoch, "pairs": n_pairs, "alpha": alpha_start}
        if cfg.track_objective:
            record["objective"] = sgns_objective(model, targets, contexts, noise, cfg.negatives)
        model.history.append(record)
        if progress is not None:
            line = f"{epoch}\t{n_pairs}\t{alpha_start:.6f}"
            if "objective" in record:
                line += f"\t{record['objective']:.6f}"
            print(line, file=progress)
    if hashlib.sha256(W).digest() == drawn:
        raise TrainingError("training left W at its random initialization: no update moved it over epochs of "
                            f"{', '.join(str(len(t)) for t, _ in epoch_streams)} pairs in batches of {batch}")
    return model


def train_sgns(
    lines: Corpus | TokenLines,
    vocab: Vocabulary,
    cfg: TrainingConfig,
    progress: TextIO | None = None,
) -> EmbeddingModel:
    """Train plain skip-gram negative-sampling embeddings."""
    return _train(lines, vocab, cfg, lexicon=None, progress=progress)


def train_dlce(
    lines: Corpus | TokenLines,
    vocab: Vocabulary,
    cfg: TrainingConfig,
    lex: ContrastLexicon,
    idx: sparse.csr_matrix,
    progress: TextIO | None = None,
) -> EmbeddingModel:
    """Train embeddings with the per-context synonym/antonym contrast term,
    whose sets come from `idx`, the holder matrix of `build_feature_index`.

    With an empty lexicon this is bit-identical to train_sgns under the same
    seed.
    """
    return _train(lines, vocab, cfg, lexicon=(lex, idx), progress=progress)
