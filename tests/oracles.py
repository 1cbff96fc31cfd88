"""Reference implementations that the vectorised code is checked against.

These are the per-pair and per-cell loops the package used before pair
scoring, the contrast transform and tie-averaged ranking became whole-array
operations, the frozenset feature index and the per-key contrast sets from
before both routes read one sparse holder matrix, the single-threaded
per-pair SGD loop from before training was batched, the batch rule spelled
out one pair at a time, the vector writer from before it took the header
lines itself, co-occurrence counting with separate target and feature
chunks, subsampling with one draw call per line, and the randomized SVD
that took a QR after every product of its subspace iteration. They stay
here, unchanged in behaviour, as oracles for the property tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from lexcontrast import embeddings as emb
from lexcontrast.corpus import CooccurrenceCounts, CorpusError, encode_lines
from lexcontrast.seeding import rng_for
from lexcontrast.tsvio import atomic_writer
from lexcontrast.weighting import SCHEME_SA, WeightedMatrix


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


def _lexicon_ids(lex, vocab):
    """Resolve lexicon words to vocabulary ids, dropping out-of-vocabulary ones."""
    syn: dict[int, list[int]] = {}
    ant_pairs: dict[int, list[tuple[int, int]]] = {}
    ids = vocab.word_ids
    for word in lex.words():
        wid = ids.get(word)
        if wid is None:
            continue
        syn[wid] = sorted(ids[u] for u in lex.synonyms(word) if u in ids)
        pairs: list[tuple[int, int]] = []
        for opp in sorted(lex.enriched_antonyms(word)):
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


def _cosine_parts(w_vec, rows):
    """cos(w, row) per row plus the pieces its gradient needs; zero-safe."""
    nw = np.linalg.norm(w_vec)
    nr = np.linalg.norm(rows, axis=1)
    ok = (nr > 0) & (nw > 0)
    cos = np.zeros(len(rows))
    inv = np.zeros(len(rows))
    np.divide(1.0, nr * nw, out=inv, where=ok)
    cos[ok] = (rows[ok] @ w_vec) * inv[ok]
    return cos, inv, nw, nr, ok


def contrast_gradients(W, w, syn_ids, ant_ids):
    """Ascent gradients of contrast_value wrt W[w], each synonym, each antonym.

    Members with zero norm contribute zero value and zero gradient but still
    count in the mean's normalizer.
    """
    w_vec = W[w]
    g_w = np.zeros_like(w_vec)
    g_sides = []
    nw2 = float(w_vec @ w_vec)
    for ids, sign in ((syn_ids, 1.0), (ant_ids, -1.0)):
        if not len(ids):
            g_sides.append(np.zeros((0, len(w_vec))))
            continue
        rows = W[ids]
        cos, inv, _, nr, ok = _cosine_parts(w_vec, rows)
        scale = sign / len(ids)
        d_w = rows * inv[:, None]
        d_w[ok] -= (cos[ok] / nw2)[:, None] * w_vec
        d_w[~ok] = 0.0
        g_w += scale * d_w.sum(axis=0)
        coeff = np.zeros(len(rows))
        np.divide(cos, nr * nr, out=coeff, where=ok)
        d_r = inv[:, None] * w_vec - coeff[:, None] * rows
        d_r[~ok] = 0.0
        g_sides.append(scale * d_r)
    return g_w, g_sides[0], g_sides[1]


def apply_contrast(state, W, w, c, alpha):
    """_ContrastState.apply with the contrast_gradients above."""
    sets = state.pair_sets(w, c)
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


def sgns_pair_update(W, C, w, rows, labels, alpha, has_dupes):
    """One pair's SGNS update, rows already rid of colliding negatives."""
    w_vec = W[w]
    g_w, g_c = sgns_pair_gradients(w_vec, C[rows], labels)
    if has_dupes:
        np.add.at(C, rows, alpha * g_c)
    else:
        C[rows] += alpha * g_c
    W[w] = w_vec + alpha * g_w


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
    """train_sgns, or train_dlce given a lexicon and an index, single-threaded."""
    contrast = None if lex is None else emb._ContrastState(lex, vocab, idx, cfg)
    if len(vocab) == 0:
        raise emb.TrainingError("empty vocabulary")
    if int(vocab.counts.min()) < cfg.min_count:
        raise emb.TrainingError(
            "vocabulary/config mismatch: vocabulary holds words below min_count"
        )
    id_lines = encode_lines(lines, vocab)
    if sum(len(ids) for ids in id_lines) == 0:
        raise CorpusError("empty corpus: no in-vocabulary tokens to train on")

    epoch_streams = [emb._epoch_pairs(id_lines, vocab, cfg, e) for e in range(cfg.epochs)]
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

    model = emb.EmbeddingModel(W=W, C=C, vocab=vocab, config=cfg)
    done = 0
    with np.errstate(over="ignore"):
        for epoch, (targets, contexts) in enumerate(epoch_streams):
            n_pairs = len(targets)
            negs = noise.sample(rng_for(cfg.seed, "negatives", epoch), (n_pairs, cfg.negatives))
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
            record = {"epoch": epoch, "pairs": n_pairs, "alpha": alpha_start}
            if cfg.track_objective:
                record["objective"] = emb.sgns_objective(
                    model, emb.counted_pairs(targets, contexts), noise, cfg.negatives
                )
            model.history.append(record)
    model.validate()
    return model


# --- the batch rule, one pair at a time


def train_batched(lines, vocab, cfg, batch, lex=None, idx=None) -> emb.EmbeddingModel:
    """train_sgns, or train_dlce given a lexicon and an index, with the batch
    rule spelled out pair by pair: within each block of `batch` pairs every
    SGNS gradient is taken at the block-start W and C, a sampled negative equal
    to the true context gets zero error, each row's updates are summed in
    stream order with np.add.at and then added once, and the block's contrast
    steps run in stream order after that."""
    contrast = None if lex is None else emb._ContrastState(lex, vocab, idx, cfg)
    id_lines = encode_lines(lines, vocab)
    epoch_streams = [emb._epoch_pairs(id_lines, vocab, cfg, e) for e in range(cfg.epochs)]
    total_updates = sum(len(t) for t, _ in epoch_streams)
    if total_updates == 0:
        raise emb.TrainingError("no training pairs survive windowing/subsampling")
    n, d = len(vocab), cfg.dim
    W = (rng_for(cfg.seed, "init").random((n, d)) - 0.5) / d
    C = np.zeros((n, d))
    noise = emb.build_noise_distribution(vocab, cfg.noise_exponent)
    labels = np.zeros(cfg.negatives + 1)
    labels[0] = 1.0

    model = emb.EmbeddingModel(W=W, C=C, vocab=vocab, config=cfg)
    done = 0
    with np.errstate(over="ignore"):
        for epoch, (targets, contexts) in enumerate(epoch_streams):
            negs = noise.sample(rng_for(cfg.seed, "negatives", epoch), (len(targets), cfg.negatives))
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
            if cfg.track_objective:
                record["objective"] = emb.sgns_objective(
                    model, emb.counted_pairs(targets, contexts), noise, cfg.negatives
                )
            model.history.append(record)
    model.validate()
    return model


# --- the vector writer


def write_embeddings_with_meta(path, vectors, meta) -> None:
    """`#key=value` header lines, then the word2vec text layout."""
    with atomic_writer(path) as fh:
        for key, value in meta.items():
            fh.write(f"#{key}={value}\n")
        fh.write(f"{len(vectors)} {vectors.dim}\n")
        for word, row in zip(vectors.words, vectors.matrix):
            fh.write(word + " " + " ".join(repr(float(x)) for x in row) + "\n")


# --- the randomized SVD


def randomized_svd(matrix, k: int, seed: int, oversample: int, power_iters: int):
    """Subspace iteration with a QR after every product, and the SVD of the wide B."""
    n, m = matrix.shape
    sketch = min(k + oversample, min(n, m))
    rng = rng_for(seed, "svd-sketch")
    omega = rng.standard_normal((m, sketch))
    q, _ = np.linalg.qr(matrix @ omega)
    for _ in range(power_iters):
        q, _ = np.linalg.qr(matrix.T @ q)
        q, _ = np.linalg.qr(matrix @ q)
    b = q.T @ matrix
    if sparse.issparse(b):
        b = np.asarray(b.todense())
    ub, s, vt = np.linalg.svd(b, full_matrices=False)
    return (q @ ub)[:, :k], s[:k], vt[:k]


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
