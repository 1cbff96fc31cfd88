"""Skip-gram negative-sampling embeddings and the lexical-contrast extension.

Plain SGNS scores observed word-context pairs above noise pairs. The
contrast-aware trainer applies the same per-pair update, then nudges the
target vector of the word toward its feature-sharing synonyms and away from
its feature-sharing antonyms via the analytic cosine gradient; synonym and
antonym target vectors receive the mirrored nudge.

Within one positive pair the gradients for the positive context and its k
sampled negatives are evaluated at the same parameter values and then
applied, with duplicate context rows accumulated exactly. A sampled negative
that collides with the true context is skipped.

Training is sequential SGD. Each pair's rows, learning rate and contrast set
are prepared a few thousand pairs at a time, so the per-pair loop runs only
the arithmetic; W and C are checked for NaN and Inf every CHECK_EVERY updates
and after each epoch. With threads > 1, threads run the same loop without
locks on contiguous shards of the stream, which is neither reproducible nor,
under the interpreter lock, faster.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Sequence, TextIO

import numpy as np

from .corpus import (
    CorpusError,
    Vocabulary,
    discard_probabilities,
    encode_lines,
    subsample_ids,
)
from .lexicon import ContrastLexicon
from .seeding import rng_for
from .vectors import DenseEmbeddings
from .weighting import FeatureOccurrenceIndex

MIN_ALPHA_FRACTION = 1e-4  # floor of the linear decay, as a fraction of alpha0


class TrainingError(ValueError):
    pass


@dataclass(frozen=True)
class TrainingConfig:
    """Knobs for both trainers; contrast fields are inert for plain SGNS."""

    dim: int = 500
    negatives: int = 15
    window: int = 5
    learning_rate: float = 0.025
    epochs: int = 1
    subsample: float | None = 1e-5  # None disables the frequency cut
    min_count: int = 100
    contrast_coefficient: float = 1.0
    max_contrast_neighbors: int | None = None
    noise_exponent: float = 0.75
    seed: int = 0
    threads: int = 1
    track_objective: bool = False

    def __post_init__(self):
        if self.dim < 1:
            raise TrainingError(f"dim must be >= 1, got {self.dim}")
        if self.negatives < 1:
            raise TrainingError(f"negatives must be >= 1, got {self.negatives}")
        if not self.learning_rate > 0:
            raise TrainingError(f"learning rate must be > 0, got {self.learning_rate}")
        if self.contrast_coefficient < 0:
            raise TrainingError("contrast coefficient must be >= 0")
        if self.epochs < 1 or self.window < 1 or self.min_count < 1 or self.threads < 1:
            raise TrainingError("epochs, window, min_count, threads must all be >= 1")
        if self.subsample is not None and not self.subsample > 0:
            raise TrainingError("subsample threshold must be > 0 or None")
        if self.noise_exponent < 0:
            raise TrainingError("noise exponent must be >= 0")
        if self.max_contrast_neighbors is not None and self.max_contrast_neighbors < 1:
            raise TrainingError("max_contrast_neighbors must be >= 1 or None")


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


def learning_rate(alpha0: float, update: int, total_updates: int) -> float:
    """Linear decay from alpha0 down to alpha0 * MIN_ALPHA_FRACTION."""
    return alpha0 * max(MIN_ALPHA_FRACTION, 1.0 - update / total_updates)


@dataclass(frozen=True)
class NoiseDistribution:
    """Unigram^exponent sampling distribution over vocabulary ids."""

    probabilities: np.ndarray
    cumulative: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        p = self.probabilities
        if abs(p.sum() - 1.0) > 1e-9:
            raise TrainingError("noise probabilities must sum to 1")
        if not (p > 0).all():
            raise TrainingError("every vocabulary word needs positive noise probability")
        object.__setattr__(self, "cumulative", np.cumsum(p))

    def sample(self, rng: np.random.Generator, shape) -> np.ndarray:
        draws = np.searchsorted(self.cumulative, rng.random(shape), side="right")
        return np.minimum(draws, len(self.probabilities) - 1).astype(np.int32)


def build_noise_distribution(vocab: Vocabulary, exponent: float = 0.75) -> NoiseDistribution:
    """P(w) proportional to count(w) ** exponent."""
    if len(vocab) == 0:
        raise TrainingError("cannot build a noise distribution over an empty vocabulary")
    weights = vocab.counts.astype(np.float64) ** exponent
    return NoiseDistribution(weights / weights.sum())


@dataclass
class EmbeddingModel:
    """Target matrix W, context matrix C, and the run that produced them."""

    W: np.ndarray
    C: np.ndarray
    vocab: Vocabulary
    config: TrainingConfig
    history: list[dict] = field(default_factory=list)

    def embeddings(self, source: str = "sgns", average_contexts: bool = False) -> DenseEmbeddings:
        matrix = (self.W + self.C) / 2.0 if average_contexts else self.W.copy()
        return DenseEmbeddings(list(self.vocab.words), matrix, source=source)

    def validate(self, update: int | None = None) -> None:
        if not (np.isfinite(self.W).all() and np.isfinite(self.C).all()):
            after = "" if update is None else f" after update {update}"
            raise TrainingError(f"training diverged: W or C holds NaN or Inf{after}")


# --- pure per-pair gradients (shared by the trainer and the finite-difference tests)


def sgns_pair_loss(w_vec: np.ndarray, ctx_rows: np.ndarray, labels: np.ndarray) -> float:
    """Sum of log sigma(+-dot) terms for one positive pair and its negatives."""
    x = ctx_rows @ w_vec
    return float(np.sum(labels * log_sigmoid(x) + (1.0 - labels) * log_sigmoid(-x)))


def sgns_pair_gradients(w_vec: np.ndarray, ctx_rows: np.ndarray, labels: np.ndarray):
    """Ascent gradients of sgns_pair_loss wrt w and each context row."""
    # np.dot runs the same BLAS gemv as `@`, with less dispatch overhead
    err = labels - sigmoid(np.dot(ctx_rows, w_vec))
    return np.dot(err, ctx_rows), err[:, None] * w_vec


def _cosine_parts(w_vec: np.ndarray, rows: np.ndarray):
    """cos(w, row) per row plus the pieces its gradient needs; zero-safe.

    The norms are np.linalg.norm's own sums. `ok` is None when no norm is 0
    (the masks are skipped), else the mask of rows that have a cosine.
    """
    nw = np.sqrt(np.dot(w_vec, w_vec))
    nr = np.sqrt(np.add.reduce(rows * rows, axis=1))
    if nw > 0 and all(n > 0 for n in nr.tolist()):
        inv = 1.0 / (nr * nw)
        return np.dot(rows, w_vec) * inv, inv, nw, nr, None
    ok = (nr > 0) & (nw > 0)
    cos = np.zeros(len(rows))
    inv = np.zeros(len(rows))
    np.divide(1.0, nr * nw, out=inv, where=ok)
    cos[ok] = (rows[ok] @ w_vec) * inv[ok]
    return cos, inv, nw, nr, ok


def contrast_value(W: np.ndarray, w: int, syn_ids, ant_ids) -> float:
    """mean cos(w, u) over synonyms minus mean cos(w, v) over antonyms."""
    value = 0.0
    for ids, sign in ((syn_ids, 1.0), (ant_ids, -1.0)):
        if len(ids):
            cos, *_ = _cosine_parts(W[w], W[ids])
            value += sign * cos.mean()
    return value


def contrast_gradients(W: np.ndarray, w: int, syn_ids, ant_ids):
    """Ascent gradients of contrast_value wrt W[w], each synonym, each antonym.

    Members with zero norm contribute zero value and zero gradient but still
    count in the mean's normalizer.
    """
    w_vec = W[w]
    g_w = np.zeros(len(w_vec))
    g_sides = []
    nw2 = float(np.dot(w_vec, w_vec))
    for ids, sign in ((syn_ids, 1.0), (ant_ids, -1.0)):
        if not len(ids):
            g_sides.append(np.zeros((0, len(w_vec))))
            continue
        rows = W.take(ids, axis=0)
        cos, inv, _, nr, ok = _cosine_parts(w_vec, rows)
        scale = sign / len(ids)
        d_w = rows * inv[:, None]
        if ok is None:
            d_w -= (cos / nw2)[:, None] * w_vec
            coeff = cos / (nr * nr)
        else:
            d_w[ok] -= (cos[ok] / nw2)[:, None] * w_vec
            d_w[~ok] = 0.0
            coeff = np.zeros(len(rows))
            np.divide(cos, nr * nr, out=coeff, where=ok)
        g_w += scale * np.add.reduce(d_w, axis=0)
        d_r = inv[:, None] * w_vec - coeff[:, None] * rows
        if ok is not None:
            d_r[~ok] = 0.0
        g_sides.append(scale * d_r)
    return g_w, g_sides[0], g_sides[1]


# --- exact objective (test oracle, not used in the SGD loop)


def sgns_objective(
    model: EmbeddingModel,
    pairs: Sequence[tuple[int, int, float]],
    noise: NoiseDistribution,
    k: int,
) -> float:
    """Exact counted-pair objective, with the negative expectation summed
    over the whole vocabulary weighted by the noise distribution."""
    W, C = model.W, model.C
    if not pairs:
        return 0.0
    t = np.array([p[0] for p in pairs])
    c = np.array([p[1] for p in pairs])
    cnt = np.array([p[2] for p in pairs], dtype=np.float64)
    positive = float(cnt @ log_sigmoid(np.einsum("ij,ij->i", W[t], C[c])))
    targets, inverse = np.unique(t, return_inverse=True)
    per_target = np.zeros(len(targets))
    np.add.at(per_target, inverse, cnt)
    expect = log_sigmoid(-(C @ W[targets].T)).T @ noise.probabilities
    return positive + k * float(per_target @ expect)


# --- pair extraction


def _window_pairs(id_lines: Sequence[np.ndarray], window: int):
    """Positive (target, context) pairs in corpus-scan order.

    For each position i the contexts are the up-to-`window` neighbors on each
    side within the same line, ordered left to right.
    """
    lines = [ids for ids in id_lines if len(ids)]
    if not lines:
        empty = np.empty(0, dtype=np.int32)
        return empty, empty
    toks = np.concatenate(lines)
    line_ids = np.repeat(np.arange(len(lines)), [len(ids) for ids in lines])
    pos = np.arange(len(toks))
    centers, contexts = [], []
    for off in range(1, window + 1):
        if off >= len(toks):
            break
        same = line_ids[off:] == line_ids[:-off]
        right = pos[:-off][same]
        centers.append(right)
        contexts.append(right + off)
        left = pos[off:][same]
        centers.append(left)
        contexts.append(left - off)
    if not centers:
        empty = np.empty(0, dtype=np.int32)
        return empty, empty
    ci = np.concatenate(centers)
    xi = np.concatenate(contexts)
    order = np.lexsort((xi, ci))
    return toks[ci[order]].astype(np.int32), toks[xi[order]].astype(np.int32)


def _epoch_pairs(id_lines, vocab: Vocabulary, cfg: TrainingConfig, epoch: int):
    if cfg.subsample is None:
        kept = id_lines
    else:
        discard = discard_probabilities(vocab, cfg.subsample)
        kept = subsample_ids(id_lines, discard, rng_for(cfg.seed, "subsample", epoch))
    return _window_pairs(kept, cfg.window)


def counted_pairs(targets: np.ndarray, contexts: np.ndarray) -> list[tuple[int, int, int]]:
    """Aggregate a pair stream into (target, context, count) triples."""
    if len(targets) == 0:
        return []
    n = int(max(targets.max(), contexts.max())) + 1
    keys, counts = np.unique(targets.astype(np.int64) * n + contexts, return_counts=True)
    return [(int(key // n), int(key % n), int(cnt)) for key, cnt in zip(keys, counts)]


# --- contrast bookkeeping for the dLCE loop


class _ContrastState:
    """Per-(word, context) synonym/antonym intersections, cached on first use.

    Uses the plain antonym sets, not the enriched ones. When a capped
    intersection exceeds max_contrast_neighbors it is sampled without
    replacement, deterministically per (word, context) key.
    """

    def __init__(
        self,
        lex: ContrastLexicon,
        vocab: Vocabulary,
        idx: FeatureOccurrenceIndex,
        cfg: TrainingConfig,
    ):
        ids = vocab.word_ids
        self.syn: dict[int, tuple[int, ...]] = {}
        self.ant: dict[int, tuple[int, ...]] = {}
        for word in lex.words():
            wid = ids.get(word)
            if wid is None:
                continue
            syn = tuple(sorted(ids[u] for u in lex.synonyms(word) if u in ids))
            ant = tuple(sorted(ids[v] for v in lex.antonyms(word) if v in ids))
            if syn:
                self.syn[wid] = syn
            if ant:
                self.ant[wid] = ant
        self.idx = idx
        self.cap = cfg.max_contrast_neighbors
        self.seed = cfg.seed
        self.beta = cfg.contrast_coefficient
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

    def hits(self, targets: list[int], contexts: list[int]) -> list[bool]:
        """Whether each (target, context) pair has a contrast set."""
        hit = [False] * len(targets)
        for j in np.flatnonzero(self.in_lexicon[targets]).tolist():
            hit[j] = self.pair_sets(targets[j], contexts[j]) is not None
        return hit

    def apply(self, W: np.ndarray, w: int, c: int, alpha: float) -> None:
        sets = self.pair_sets(w, c)
        if sets is None:
            return
        u_ids, v_ids = sets
        g_w, g_u, g_v = contrast_gradients(W, w, u_ids, v_ids)
        step = alpha * self.beta
        W[w] += step * g_w
        if len(u_ids):
            W[u_ids] += step * g_u
        if len(v_ids):
            W[v_ids] += step * g_v


# --- the trainers

CHUNK_PAIRS = 2_500  # pairs whose per-pair set-up is built at once; bounds its memory
CHECK_EVERY = 10_000  # updates between finiteness checks of W and C


def _run_shard(model, targets, rows, labels, first, total_updates, contrast, start, stop):
    """Sequential SGD over pairs start..stop of one epoch's pair stream.

    rows[i] is pair i's true context, then its negatives; `first` is the
    update index of the epoch's first pair, which fixes every pair's rate.
    """
    W, C, alpha0 = model.W, model.C, model.config.learning_rate
    for lo in range(start, stop, CHUNK_PAIRS):
        hi = min(lo + CHUNK_PAIRS, stop)
        block = rows[lo:hi].astype(np.intp)
        srt = np.sort(block, axis=1)
        dupes = (srt[:, 1:] == srt[:, :-1]).any(axis=1).tolist()
        pair_rows, pair_labels = list(block), [labels] * (hi - lo)
        for j in np.flatnonzero((block[:, 1:] == block[:, :1]).any(axis=1)).tolist():
            r = block[j]  # drop sampled negatives equal to the true context
            pair_rows[j] = r[np.concatenate(([True], r[1:] != r[0]))]
            pair_labels[j] = labels[: len(pair_rows[j])]
        decay = np.maximum(MIN_ALPHA_FRACTION, 1.0 - np.arange(first + lo, first + hi) / total_updates)
        # 0-d arrays: numpy multiplies by them faster than by Python floats
        alphas = [np.asarray(a) for a in (alpha0 * decay).tolist()]
        ws, cs = targets[lo:hi].tolist(), block[:, 0].tolist()
        hits = [False] * (hi - lo) if contrast is None else contrast.hits(ws, cs)
        with np.errstate(over="ignore"):
            for w, c, r, lab, alpha, dupe, hit in zip(ws, cs, pair_rows, pair_labels, alphas, dupes, hits):
                w_vec = W[w]
                ctx = C.take(r, axis=0)
                g_w, g_c = sgns_pair_gradients(w_vec, ctx, lab)
                if dupe:
                    np.add.at(C, r, alpha * g_c)
                else:
                    C[r] = ctx + alpha * g_c
                w_vec += alpha * g_w
                if hit:
                    contrast.apply(W, w, c, alpha)
        if (first + lo) // CHECK_EVERY < (first + hi) // CHECK_EVERY:
            model.validate(first + hi)


def _train(
    lines,
    vocab: Vocabulary,
    cfg: TrainingConfig,
    contrast: _ContrastState | None,
    progress: TextIO | None,
) -> EmbeddingModel:
    if len(vocab) == 0:
        raise TrainingError("empty vocabulary")
    if int(vocab.counts.min()) < cfg.min_count:
        raise TrainingError(
            "vocabulary/config mismatch: vocabulary holds words below min_count"
        )
    id_lines = encode_lines(lines, vocab)
    if sum(len(ids) for ids in id_lines) == 0:
        raise CorpusError("empty corpus: no in-vocabulary tokens to train on")

    epoch_streams = [_epoch_pairs(id_lines, vocab, cfg, e) for e in range(cfg.epochs)]
    total_updates = sum(len(t) for t, _ in epoch_streams)
    if total_updates == 0:
        raise TrainingError("no training pairs survive windowing/subsampling")

    n, d = len(vocab), cfg.dim
    W = (rng_for(cfg.seed, "init").random((n, d)) - 0.5) / d
    noise = build_noise_distribution(vocab, cfg.noise_exponent)
    labels = np.zeros(cfg.negatives + 1)
    labels[0] = 1.0

    model = EmbeddingModel(W=W, C=np.zeros((n, d)), vocab=vocab, config=cfg)
    done = 0
    for epoch, (targets, contexts) in enumerate(epoch_streams):
        n_pairs = len(targets)
        negs = noise.sample(rng_for(cfg.seed, "negatives", epoch), (n_pairs, cfg.negatives))
        shard = partial(_run_shard, model, targets, np.column_stack((contexts, negs)),
                        labels, done, total_updates, contrast)
        if cfg.threads == 1:
            shard(0, n_pairs)
        else:
            bounds = np.linspace(0, n_pairs, cfg.threads + 1).astype(int).tolist()
            with ThreadPoolExecutor(cfg.threads) as pool:
                list(pool.map(shard, bounds[:-1], bounds[1:]))
        alpha_start = learning_rate(cfg.learning_rate, done, total_updates)
        done += n_pairs
        model.validate(done)
        record = {"epoch": epoch, "pairs": n_pairs, "alpha": alpha_start}
        if cfg.track_objective:
            record["objective"] = sgns_objective(
                model, counted_pairs(targets, contexts), noise, cfg.negatives
            )
        model.history.append(record)
        if progress is not None:
            line = f"{epoch}\t{n_pairs}\t{alpha_start:.6f}"
            if "objective" in record:
                line += f"\t{record['objective']:.6f}"
            print(line, file=progress)
    return model


def train_sgns(
    lines,
    vocab: Vocabulary,
    cfg: TrainingConfig,
    progress: TextIO | None = None,
) -> EmbeddingModel:
    """Train plain skip-gram negative-sampling embeddings."""
    return _train(lines, vocab, cfg, contrast=None, progress=progress)


def train_dlce(
    lines,
    vocab: Vocabulary,
    cfg: TrainingConfig,
    lex: ContrastLexicon,
    idx: FeatureOccurrenceIndex,
    progress: TextIO | None = None,
) -> EmbeddingModel:
    """Train embeddings with the per-context synonym/antonym contrast term.

    With an empty lexicon this is bit-identical to train_sgns under the same
    seed in single-threaded mode.
    """
    contrast = _ContrastState(lex, vocab, idx, cfg)
    return _train(lines, vocab, cfg, contrast=contrast, progress=progress)
