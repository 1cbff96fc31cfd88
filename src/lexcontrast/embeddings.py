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
rounding.

The contrast step is not batched: taking a batch's cosine gradients at one W
and summing them lowered the contrast trainer's Spearman rho by 0.02 to 0.06
on the benchmark's `train` world. After each batch's SGNS step the batch's
contrast hits update W one at a time, in stream order. W and C are
checked for NaN and Inf every CHECK_EVERY updates, which always ends a batch,
and after each epoch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, TextIO

import numpy as np
from scipy import sparse

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
from .weighting import relation_matrix

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
    threads: int = 1  # only 1 is accepted; the field keeps configs that set it working
    track_objective: bool = False

    def __post_init__(self):
        if self.dim < 1:
            raise TrainingError(f"dim must be >= 1, got {self.dim}")
        if self.negatives < 1:
            raise TrainingError(f"negatives must be >= 1, got {self.negatives}")
        if not self.learning_rate > 0:
            raise TrainingError(f"learning rate must be > 0, got {self.learning_rate}")
        if not self.contrast_coefficient >= 0:
            raise TrainingError("contrast coefficient must be >= 0")
        if self.epochs < 1 or self.window < 1 or self.min_count < 1:
            raise TrainingError("epochs, window, min_count must all be >= 1")
        if self.threads != 1:
            raise TrainingError(f"threads must be 1, got {self.threads}: training runs in one thread")
        if self.subsample is not None and not self.subsample > 0:
            raise TrainingError("subsample threshold must be > 0 or None")
        if not self.noise_exponent >= 0:
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


# --- pure gradients: the SGNS pair term and the contrast term


def sgns_pair_loss(w_vec: np.ndarray, ctx_rows: np.ndarray, labels: np.ndarray) -> float:
    """Sum of log sigma(+-dot) terms for one positive pair and its negatives."""
    x = ctx_rows @ w_vec
    return float(np.sum(labels * log_sigmoid(x) + (1.0 - labels) * log_sigmoid(-x)))


def sgns_pair_gradients(w_vec: np.ndarray, ctx_rows: np.ndarray, labels: np.ndarray, keep=None):
    """Ascent gradients of sgns_pair_loss wrt w and each context row.

    Takes one pair, or a stack of pairs along leading axes; matmul runs the
    same BLAS call for each pair of a stack as for that pair alone. Rows
    where `keep` is False get zero error and so add to neither gradient.
    """
    err = labels - sigmoid(np.matmul(ctx_rows, w_vec[..., None])[..., 0])
    if keep is not None:
        err = np.where(keep, err, 0.0)
    return np.matmul(err[..., None, :], ctx_rows)[..., 0, :], err[..., None] * w_vec[..., None, :]


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
    count in the mean's normalizer. Both sides are gathered at once and share
    |w| and every elementwise step. The dot products and the sums over a side
    run per side, because BLAS rounds a row's dot product differently inside
    a taller matrix, and the results must equal the per-side masked form bit
    for bit.
    """
    n_syn, d = len(syn_ids), W.shape[1]
    rows = W.take(np.concatenate((syn_ids, ant_ids)).astype(np.intp), axis=0)
    if not len(rows):
        return np.zeros(d), np.zeros((0, d)), np.zeros((0, d))
    sides = [(part, sign) for part, sign in ((slice(0, n_syn), 1.0), (slice(n_syn, len(rows)), -1.0))
             if part.stop > part.start]
    w_vec = W[w]
    nw2 = np.dot(w_vec, w_vec)
    nw = np.sqrt(nw2)
    nr = np.sqrt(np.add.reduce(rows * rows, axis=1))
    if nw > 0 and all(n > 0 for n in nr.tolist()):
        inv = 1.0 / (nr * nw)
        cos = np.concatenate([np.dot(rows[part], w_vec) for part, _ in sides]) * inv
        d_w = rows * inv[:, None] - (cos / nw2)[:, None] * w_vec
        d_r = inv[:, None] * w_vec - (cos / (nr * nr))[:, None] * rows
    else:  # zero norms: those rows get no cosine and no gradient
        ok = (nr > 0) & (nw > 0)
        cos, inv, coeff = np.zeros(len(rows)), np.zeros(len(rows)), np.zeros(len(rows))
        np.divide(1.0, nr * nw, out=inv, where=ok)
        for part, _ in sides:
            keep = np.flatnonzero(ok[part]) + part.start
            if len(keep):
                cos[keep] = np.dot(rows[keep], w_vec) * inv[keep]
        np.divide(cos, nr * nr, out=coeff, where=ok)
        d_w = rows * inv[:, None]
        d_w[ok] -= (cos[ok] / nw2)[:, None] * w_vec
        d_r = inv[:, None] * w_vec - coeff[:, None] * rows
        d_w[~ok] = 0.0
        d_r[~ok] = 0.0
    g_w = np.zeros(d)
    for part, sign in sides:
        scale = sign / (part.stop - part.start)
        g_w += scale * np.add.reduce(d_w[part], axis=0)
        d_r[part] *= scale
    return g_w, d_r[:n_syn], d_r[n_syn:]


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
    """Per-(word, context) synonym/antonym sets, found in bulk and cached.

    The synonyms of w that hold feature c are the row S[w] * H.T[c], with S
    the 0/1 synonym matrix of `relation_matrix`, H the feature-holder matrix
    of `build_feature_index` and * the elementwise product; the antonyms
    likewise, from the plain antonym matrix, not the enriched one. When a set
    exceeds max_contrast_neighbors it is sampled without replacement,
    deterministically per (word, context) key.
    """

    def __init__(self, lex: ContrastLexicon, vocab: Vocabulary, idx: sparse.csr_matrix, cfg: TrainingConfig):
        self.n = len(vocab)
        if idx.shape != (self.n, self.n):
            raise TrainingError(f"feature index has shape {idx.shape}, the vocabulary {self.n} words")
        self.sides = (relation_matrix(lex, "syn", vocab), relation_matrix(lex, "ant", vocab))
        self.held_by = sparse.csr_matrix(idx.T)  # row c: the words that hold feature c
        self.in_lexicon = (np.diff(self.sides[0].indptr) + np.diff(self.sides[1].indptr)) > 0
        self.cap, self.seed, self.beta = cfg.max_contrast_neighbors, cfg.seed, cfg.contrast_coefficient
        self.cache: dict[tuple[int, int], tuple[np.ndarray, np.ndarray] | None] = {}

    def _capped(self, members: np.ndarray, key: tuple[int, int], side: str) -> np.ndarray:
        if self.cap is None or len(members) <= self.cap:
            return members
        rng = rng_for(self.seed, "contrast", side, *key)
        return np.sort(rng.choice(members, size=self.cap, replace=False))

    def _find(self, keys: list[tuple[int, int]]) -> None:
        """Cache the sets of the (w, c) keys, with one product per side for all of them."""
        words, contexts = np.array(keys, dtype=np.int64).reshape(-1, 2).T
        held = self.held_by[contexts]
        (syn, s_ptr), (ant, a_ptr) = ((m.indices.astype(np.int64), m.indptr.tolist())
                                      for m in (rel[words].multiply(held) for rel in self.sides))
        for i, key in enumerate(keys):
            u, v = syn[s_ptr[i]:s_ptr[i + 1]], ant[a_ptr[i]:a_ptr[i + 1]]
            self.cache[key] = (self._capped(u, key, "syn"), self._capped(v, key, "ant")) if len(u) or len(v) else None

    def pair_sets(self, w: int, c: int):
        key = (int(w), int(c))
        if key not in self.cache:
            self._find([key])
        return self.cache[key]

    def hits(self, targets: np.ndarray, contexts: np.ndarray) -> np.ndarray:
        """Indices of the (target, context) pairs that have a contrast set."""
        cand = np.flatnonzero(self.in_lexicon[targets])
        codes, inverse = np.unique(targets[cand].astype(np.int64) * self.n + contexts[cand], return_inverse=True)
        keys = [divmod(code, self.n) for code in codes.tolist()]
        self._find([key for key in keys if key not in self.cache])
        return cand[np.array([self.cache[key] is not None for key in keys], dtype=bool)[inverse]]

    def apply(self, W: np.ndarray, w: int, c: int, alpha: float) -> None:
        """One contrast step for the pair (w, c), if it has a contrast set.

        The members of both sides move in one scatter, synonyms first, so a
        row on both sides gets both updates.
        """
        sets = self.pair_sets(w, c)
        if sets is None:
            return
        g_w, g_u, g_v = contrast_gradients(W, w, *sets)
        step = alpha * self.beta
        W[w] += step * g_w
        np.add.at(W, np.concatenate(sets), step * np.concatenate((g_u, g_v)))


# --- the trainers

CHECK_EVERY = 10_000  # updates between finiteness checks of W and C
MAX_BATCH = 500  # most pairs in one batched SGNS step
NOISE_REUSE = 10.0  # bound on the expected draws of the likeliest noise word per batch


def batch_size(noise: NoiseDistribution, negatives: int) -> int:
    """Pairs per SGNS step: the largest divisor of CHECK_EVERY that is at most
    MAX_BATCH and at most NOISE_REUSE / (negatives * max noise probability).

    The second bound keeps the expected number of times one batch samples its
    likeliest noise row, whose gradients all see that row's stale value, at
    about NOISE_REUSE. Dividing CHECK_EVERY puts a batch end on every check.
    """
    cap = int(min(MAX_BATCH, NOISE_REUSE / (negatives * float(noise.probabilities.max()))))
    return next(b for b in range(max(cap, 1), 0, -1) if CHECK_EVERY % b == 0)


def _scatter_add(M: np.ndarray, rows: np.ndarray, weights: np.ndarray, cols: np.ndarray,
                 X: np.ndarray) -> None:
    """M[rows[j]] += weights[j] * X[cols[j]] for every j, with repeated rows
    summed exactly once: a stable sort groups them (as np.unique does), and
    one sparse-times-dense product sums each group in stream order."""
    order = np.argsort(rows, kind="stable")
    srt = rows[order]
    starts = np.flatnonzero(np.concatenate(([True], srt[1:] != srt[:-1])))
    S = sparse.csr_matrix((weights[order], cols[order], np.append(starts, len(srt))),
                          shape=(len(starts), len(X)))
    M[srt[starts]] += S @ X


def _sgns_step(W, C, targets, rows, keep, labels, alphas) -> None:
    """One SGD step over a batch of B pairs, gradients at the batch-start W and C.

    rows is (B, k+1): each pair's true context, then its negatives; keep is
    False where a negative collides with the true context, which then
    contributes nothing. Only the summing of repeated rows differs from
    applying each pair's update in turn to the same W and C.
    """
    B, k1 = rows.shape
    g_w, g_c = sgns_pair_gradients(W.take(targets, axis=0), C.take(rows, axis=0), labels, keep)
    _scatter_add(C, rows.ravel(), np.repeat(alphas, k1), np.arange(B * k1), g_c.reshape(B * k1, -1))
    _scatter_add(W, targets, alphas, np.arange(B), g_w)


def _run_epoch(model, targets, rows, labels, first, total_updates, contrast, batch) -> None:
    """SGD over one epoch's pair stream, `batch` pairs per SGNS step.

    rows[i] is pair i's true context, then its negatives; `first` is the
    update index of the epoch's first pair, which fixes every pair's rate.
    After each step, the batch's contrast hits update W one at a time, in
    stream order.
    """
    W, C, n = model.W, model.C, len(targets)
    keep = rows != rows[:, :1]
    keep[:, 0] = True
    alphas = model.config.learning_rate * np.maximum(
        MIN_ALPHA_FRACTION, 1.0 - np.arange(first, first + n) / total_updates)
    hits = np.empty(0, dtype=np.intp) if contrast is None else contrast.hits(targets, rows[:, 0])
    hit_pairs = list(zip(hits.tolist(), targets[hits].tolist(), rows[hits, 0].tolist(), alphas[hits].tolist()))
    h = 0
    with np.errstate(over="ignore"):
        for lo in range(0, n, batch):
            hi = min(lo + batch, n)
            _sgns_step(W, C, targets[lo:hi], rows[lo:hi], keep[lo:hi], labels, alphas[lo:hi])
            while h < len(hit_pairs) and hit_pairs[h][0] < hi:
                _, w, c, alpha = hit_pairs[h]
                contrast.apply(W, w, c, alpha)
                h += 1
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
    batch = batch_size(noise, cfg.negatives)
    done = 0
    for epoch, (targets, contexts) in enumerate(epoch_streams):
        n_pairs = len(targets)
        negs = noise.sample(rng_for(cfg.seed, "negatives", epoch), (n_pairs, cfg.negatives))
        _run_epoch(model, targets, np.column_stack((contexts, negs)), labels, done,
                   total_updates, contrast, batch)
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
    idx: sparse.csr_matrix,
    progress: TextIO | None = None,
) -> EmbeddingModel:
    """Train embeddings with the per-context synonym/antonym contrast term,
    whose sets come from `idx`, the holder matrix of `build_feature_index`.

    With an empty lexicon this is bit-identical to train_sgns under the same
    seed.
    """
    contrast = _ContrastState(lex, vocab, idx, cfg)
    return _train(lines, vocab, cfg, contrast=contrast, progress=progress)
