"""Acceptance gate: eleven end-to-end checks, one printed verdict line each.

Exact-math claims are checked against independent oracles at tight
tolerances; behavioral claims run on generated corpora with planted
synonym/antonym structure (see synthcorpus) across three seeds.
"""

import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse, stats

from lexcontrast.cli import main
from lexcontrast.corpus import (
    CooccurrenceCounts,
    Vocabulary,
    build_vocabulary,
    count_cooccurrences,
)
from lexcontrast.embeddings import (
    TrainingConfig,
    contrast_gradients,
    sgns_pair_gradients,
    train_dlce,
    train_sgns,
)
from lexcontrast.evaluation import (
    SparseRowTable,
    auc,
    average_precision,
    eval_ap,
    eval_auc,
    eval_spearman,
    median_report,
    spearman,
)
from lexcontrast.lexicon import ContrastLexicon, enrich_antonyms
from lexcontrast.reduction import truncated_svd
from lexcontrast.vectors import DenseEmbeddings
from lexcontrast.weighting import (
    SCHEME_LMI,
    WeightedMatrix,
    build_feature_index,
    compute_lmi,
    compute_weight_sa,
)
from oracles import contrast_value, reconstruction, sgns_pair_loss
from synthcorpus import build_world, write_world

SEEDS = (1, 2, 3)


def _verdict(n: int, ok: bool, detail: str, capsys) -> None:
    with capsys.disabled():
        print(f"[criterion {n:2d}] {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {n}: {detail}"


# --- shared corpora and models ------------------------------------------

@dataclass
class SparseRoute:
    world: object
    vocab: Vocabulary
    lmi: WeightedMatrix
    sa: WeightedMatrix


@pytest.fixture(scope="module")
def sparse_routes():
    """Per-seed planted corpus plus the count-based weighting route."""
    t0 = time.perf_counter()
    routes = {}
    for seed in SEEDS:
        world = build_world(seed)
        vocab = build_vocabulary(world.lines, min_count=5)
        counts = count_cooccurrences(world.lines, vocab, window=2)
        lmi = compute_lmi(counts, vocab)
        idx = build_feature_index(lmi)
        sa = compute_weight_sa(lmi, idx, world.lexicon, vocab)
        routes[seed] = SparseRoute(world, vocab, lmi, sa)
    return routes, time.perf_counter() - t0


@pytest.fixture(scope="module")
def trained_models(sparse_routes):
    """SGNS and contrast-trained embeddings per seed at dim=50."""
    routes, _ = sparse_routes
    t0 = time.perf_counter()
    models = {}
    for seed, route in routes.items():
        cfg = TrainingConfig(
            dim=50, negatives=5, window=2, learning_rate=0.05, epochs=1,
            subsample=None, min_count=5, seed=seed, threads=1,
        )
        idx = build_feature_index(route.lmi)
        sgns = train_sgns(route.world.lines, route.vocab, cfg)
        dlce = train_dlce(route.world.lines, route.vocab, cfg, route.world.lexicon, idx)
        models[seed] = (sgns.embeddings(), dlce.embeddings())
    return models, time.perf_counter() - t0


# --- 1: ranking/correlation metrics against brute force ------------------

def test_01_metric_oracles(capsys):
    rng = np.random.default_rng(100)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 201))
        labels = ["SYN" if x else "ANT" for x in rng.random(n) < 0.4]
        if "SYN" not in labels:
            labels[0] = "SYN"
        hits, precs = 0, []
        for i, lab in enumerate(labels, 1):
            if lab == "SYN":
                hits += 1
                precs.append(hits / i)
        worst = max(worst, abs(average_precision(labels, "SYN") - sum(precs) / len(precs)))
    for _ in range(1000):
        n = int(rng.integers(2, 201))
        scores = rng.integers(0, 8, size=n) / 7.0  # coarse grid forces ties
        pos = rng.random(n) < 0.5
        if pos.all() or not pos.any():
            pos[0] = not pos[0]
        p, q = scores[pos], scores[~pos]
        oracle = ((p[:, None] > q[None, :]).sum() + 0.5 * (p[:, None] == q[None, :]).sum()) / (
            len(p) * len(q)
        )
        worst = max(worst, abs(auc(scores, pos) - oracle))
    done = 0
    while done < 1000:
        n = int(rng.integers(3, 201))
        x = rng.integers(0, 10, size=n) / 3.0
        y = x + rng.integers(-3, 4, size=n) / 2.0
        if len(set(x)) < 2 or len(set(y)) < 2:
            continue
        done += 1
        worst = max(worst, abs(spearman(x, y) - stats.spearmanr(x, y).statistic))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 10.0
    _verdict(1, ok, f"AP/AUC/Spearman vs brute force: max |Δ| {worst:.2e} over 3×1000 "
                    f"instances in {elapsed:.1f}s (limit 10s)", capsys)


# --- 2: LMI against a dense double-loop oracle ---------------------------

def test_02_lmi_oracle(capsys):
    rng = np.random.default_rng(200)
    t0 = time.perf_counter()
    worst = 0.0
    sizes = [int(rng.integers(2, 101)) for _ in range(11)] + [100]
    for n in sizes:
        cells = {}
        for _ in range(int(rng.integers(1, n * n // 2 + 2))):
            cells[(int(rng.integers(n)), int(rng.integers(n)))] = int(rng.integers(1, 60))
        items = sorted(cells.items())
        counts = CooccurrenceCounts(
            n, 1,
            np.array([k[0] for k, _ in items], dtype=np.int64),
            np.array([k[1] for k, _ in items], dtype=np.int64),
            np.array([v for _, v in items], dtype=np.int64),
        )
        total = sum(cells.values())
        row: dict[int, int] = {}
        col: dict[int, int] = {}
        for (w, f), c in cells.items():
            row[w] = row.get(w, 0) + c
            col[f] = col.get(f, 0) + c
        expected = np.zeros((n, n))
        for (w, f), c in cells.items():
            value = c * math.log2(c * total / (row[w] * col[f]))
            if value > 0:
                expected[w, f] = value
        got = compute_lmi(counts).matrix.toarray()
        if ((got > 0) != (expected > 0)).any():
            _verdict(2, False, f"kept-cell sets differ on a {n}x{n} table", capsys)
        worst = max(worst, float(np.abs(got - expected).max()))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 5.0
    _verdict(2, ok, f"LMI vs dense double loop: max |Δ| {worst:.2e} over {len(sizes)} tables "
                    f"up to 100x100 in {elapsed:.1f}s (limit 5s)", capsys)


# --- 3: contrast re-weighting against a scripted oracle ------------------

def _sa_oracle(lmi_dense, lex, vocab, ant_mean):
    n, m = lmi_dense.shape

    def cos(a, b):
        na, nb = np.linalg.norm(lmi_dense[a]), np.linalg.norm(lmi_dense[b])
        if na == 0.0 or nb == 0.0:
            return 0.0
        return float(lmi_dense[a] @ lmi_dense[b]) / float(na * nb)

    ids = vocab.word_ids
    out = np.zeros((n, m))
    for word in lex.words():
        if word not in ids:
            continue
        w = ids[word]
        syns = [ids[u] for u in lex.synonyms(word) if u in ids]
        for f in range(m):
            if lmi_dense[w, f] <= 0.0:
                continue
            holders = set(np.nonzero(lmi_dense[:, f] > 0)[0].tolist())
            syn_vals = [cos(w, u) for u in syns if u in holders]
            term1 = float(np.mean(syn_vals)) if syn_vals else 0.0
            pooled, grouped = [], []
            for opp in lex.ant_enriched.get(word, frozenset()):
                if opp not in ids:
                    continue
                vals = [
                    cos(ids[opp], ids[v])
                    for v in lex.synonyms(opp)
                    if v in ids and ids[v] in holders
                ]
                if vals:
                    pooled.extend(vals)
                    grouped.append(float(np.mean(vals)))
            side = pooled if ant_mean == "pooled" else grouped
            term2 = float(np.mean(side)) if side else 0.0
            out[w, f] = term1 - term2
    return out


def test_03_weight_sa_oracle(capsys):
    rng = np.random.default_rng(300)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(4, 21))
        m = int(rng.integers(3, 16))
        dense = rng.random((n, m)) * (rng.random((n, m)) > 0.4)
        words = [f"w{i}" for i in range(n)]
        vocab = Vocabulary.from_counts({w: n - i for i, w in enumerate(words)})

        def draw(k):
            pairs = set()
            for _ in range(k):
                a, b = rng.choice(n, size=2, replace=False)
                pairs.add((words[a], words[b]))
            return pairs

        lex = enrich_antonyms(
            ContrastLexicon.from_pairs(draw(int(rng.integers(0, 9))), draw(int(rng.integers(0, 7))))
        )
        wm = WeightedMatrix(SCHEME_LMI, sparse.csr_matrix(dense))
        idx = build_feature_index(wm)
        for mode in ("pooled", "per-antonym"):
            got = compute_weight_sa(wm, idx, lex, vocab, ant_mean=mode).matrix.toarray()
            worst = max(worst, float(np.abs(got - _sa_oracle(dense, lex, vocab, mode)).max()))
    ok = worst <= 1e-12
    _verdict(3, ok, f"contrast weights vs scripted oracle, both antonym means: "
                    f"max |Δ| {worst:.2e} over 50 instances", capsys)


# --- 4: gradients against central finite differences ---------------------

def test_04_gradient_checks(capsys):
    rng = np.random.default_rng(400)
    h = 1e-5
    worst = 0.0

    def rel(a, f):
        return abs(a - f) / max(abs(a) + abs(f), 1e-8)

    for _ in range(100):
        W = rng.normal(scale=0.5, size=(10, 8))
        C = rng.normal(scale=0.5, size=(10, 8))
        w_vec = W[0].copy()
        rows = C[:4].copy()
        labels = np.array([1.0, 0.0, 0.0, 0.0])
        g_w, g_rows = sgns_pair_gradients(w_vec, rows, labels)
        for i in range(8):
            e = np.zeros(8)
            e[i] = h
            fd = (sgns_pair_loss(w_vec + e, rows, labels)
                  - sgns_pair_loss(w_vec - e, rows, labels)) / (2 * h)
            worst = max(worst, rel(g_w[i], fd))
        for r in range(4):
            for i in range(8):
                up, dn = rows.copy(), rows.copy()
                up[r, i] += h
                dn[r, i] -= h
                fd = (sgns_pair_loss(w_vec, up, labels) - sgns_pair_loss(w_vec, dn, labels)) / (2 * h)
                worst = max(worst, rel(g_rows[r, i], fd))

        syn_ids = np.array([1, 2, 3])
        ant_ids = np.array([4, 5])
        g_w, g_syn, g_ant = contrast_gradients(W, 0, syn_ids, ant_ids)
        grads = {0: g_w, 1: g_syn[0], 2: g_syn[1], 3: g_syn[2], 4: g_ant[0], 5: g_ant[1]}
        for row_id, grad in grads.items():
            for i in range(8):
                up, dn = W.copy(), W.copy()
                up[row_id, i] += h
                dn[row_id, i] -= h
                fd = (contrast_value(up, 0, syn_ids, ant_ids)
                      - contrast_value(dn, 0, syn_ids, ant_ids)) / (2 * h)
                worst = max(worst, rel(grad[i], fd))
    ok = worst < 1e-4
    _verdict(4, ok, f"pair + contrast gradients vs central differences (h=1e-5): "
                    f"max rel err {worst:.2e} over 100 models", capsys)


# --- 5: empty-lexicon contrast training == plain SGNS ---------------------

def test_05_dlce_sgns_anchor(capsys):
    world = build_world(11, n_concepts=4, sentences=800)
    vocab = build_vocabulary(world.lines, min_count=2)
    counts = count_cooccurrences(world.lines, vocab, window=2)
    idx = build_feature_index(compute_lmi(counts, vocab))
    cfg = TrainingConfig(
        dim=16, negatives=3, window=2, learning_rate=0.05, epochs=2,
        subsample=1e-3, min_count=2, seed=123, threads=1,
    )
    empty = enrich_antonyms(ContrastLexicon.from_pairs([], []))
    plain = train_sgns(world.lines, vocab, cfg)
    contrast = train_dlce(world.lines, vocab, cfg, empty, idx)
    ok = np.array_equal(plain.W, contrast.W) and np.array_equal(plain.C, contrast.C)
    _verdict(5, ok, "empty-lexicon contrast training is bit-identical to plain SGNS", capsys)


# --- 6: contrast re-weighting moves both AP directions --------------------

def test_06_ap_directions(sparse_routes, capsys):
    routes, built = sparse_routes
    t0 = time.perf_counter()
    details = []
    ok = True
    for seed, route in routes.items():
        ok = ok and route.world.token_count >= 500_000
        base = eval_ap(SparseRowTable(route.lmi, route.vocab), route.world.relation_pairs)
        resc = eval_ap(SparseRowTable(route.sa, route.vocab), route.world.relation_pairs)
        b, r = base.classes["ADJ"], resc.classes["ADJ"]
        ok = ok and b.coverage == 1.0 and r.coverage == 1.0
        ok = ok and r.ap_syn >= b.ap_syn + 0.05 and r.ap_ant <= b.ap_ant - 0.05
        details.append(f"seed {seed}: syn {b.ap_syn:.3f}->{r.ap_syn:.3f} ant {b.ap_ant:.3f}->{r.ap_ant:.3f}")
    elapsed = built + (time.perf_counter() - t0)
    ok = ok and elapsed < 300.0
    _verdict(6, ok, f"AP margins >=0.05 in both directions, 3/3 seeds, >=500k tokens "
                    f"({'; '.join(details)}) in {elapsed:.0f}s (limit 300s)", capsys)


# --- 7: contrast-trained embeddings win at antonym detection --------------

def test_07_auc_margin(sparse_routes, trained_models, capsys):
    routes, _ = sparse_routes
    models, trained = trained_models
    t0 = time.perf_counter()
    details = []
    ok = True
    for seed, (emb_sgns, emb_dlce) in models.items():
        ok = ok and emb_sgns.dim == 50 and emb_dlce.dim == 50
        pairs = routes[seed].world.relation_pairs
        a_s = eval_auc(emb_sgns, pairs).classes["ADJ"].auc
        a_d = eval_auc(emb_dlce, pairs).classes["ADJ"].auc
        ok = ok and a_d >= 0.85 and a_d >= a_s + 0.10
        details.append(f"seed {seed}: {a_s:.3f}->{a_d:.3f}")
    elapsed = trained + (time.perf_counter() - t0)
    ok = ok and elapsed < 600.0
    _verdict(7, ok, f"antonym-detection AUC >=0.85 and >= SGNS+0.10 at dim=50, 3/3 seeds "
                    f"({'; '.join(details)}) in {elapsed:.0f}s (limit 600s)", capsys)


# --- 8: contrast-trained embeddings correlate better with graded gold -----

def test_08_spearman_margin(sparse_routes, trained_models, capsys):
    routes, _ = sparse_routes
    models, _ = trained_models
    details = []
    ok = True
    for seed, (emb_sgns, emb_dlce) in models.items():
        sims = routes[seed].world.similarity_pairs
        r_s = eval_spearman(emb_sgns, sims)[0].spearman
        r_d = eval_spearman(emb_dlce, sims)[0].spearman
        ok = ok and r_d >= r_s + 0.05
        details.append(f"seed {seed}: {r_s:.3f}->{r_d:.3f}")
    _verdict(8, ok, f"Spearman rho >= SGNS+0.05 on planted gold, 3/3 seeds "
                    f"({'; '.join(details)})", capsys)


# --- 9: truncated SVD reconstruction is optimal ---------------------------

def test_09_svd_optimality(capsys):
    rng = np.random.default_rng(900)
    worst = 0.0
    for _ in range(20):
        n, m = int(rng.integers(20, 201)), int(rng.integers(20, 201))
        k = int(rng.integers(50, 400))
        mat = sparse.coo_matrix(
            (rng.standard_normal(k), (rng.integers(n, size=k), rng.integers(m, size=k))),
            shape=(n, m),
        ).tocsr()
        d = int(rng.integers(1, 16))
        res = truncated_svd(mat, dim=d)
        dense = mat.toarray()
        u, s, vt = np.linalg.svd(dense, full_matrices=False)
        err_opt = float(np.linalg.norm(dense - (u[:, :d] * s[:d]) @ vt[:d]))
        err = float(np.linalg.norm(dense - reconstruction(res, mat)))
        worst = max(worst, abs(err - err_opt))
    ok = worst <= 1e-6
    _verdict(9, ok, f"rank-d reconstruction error vs dense optimum: max |Δ| {worst:.2e} "
                    f"over 20 sparse matrices <=200x200", capsys)


# --- 10: median separation grows under contrast weighting + SVD -----------

def test_10_median_separation(sparse_routes, capsys):
    routes, _ = sparse_routes
    details = []
    ok = True
    for seed, route in routes.items():
        gaps = {}
        for name, wm in (("lmi", route.lmi), ("sa", route.sa)):
            res = truncated_svd(wm.matrix, dim=100, seed=seed)
            emb = DenseEmbeddings(list(route.vocab.words), res.row_vectors, source=name)
            cm = median_report(emb, route.world.relation_pairs).classes["ADJ"]
            gaps[name] = cm.median_syn - cm.median_ant
        ok = ok and gaps["sa"] > gaps["lmi"]
        details.append(f"seed {seed}: {gaps['lmi']:+.3f} vs {gaps['sa']:+.3f}")
    _verdict(10, ok, f"median(SYN)-median(ANT) after SVD, contrast vs plain LMI "
                     f"({'; '.join(details)})", capsys)


# --- 11: pipeline reruns are byte-identical --------------------------------

def test_11_pipeline_determinism(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    world = build_world(17, n_concepts=4, sentences=700)
    paths = write_world(world, tmp_path)
    (tmp_path / "run.cfg").write_text(
        "min_count=2\nwindow=2\ndim=8\nsvd_dim=4\nnegatives=2\n"
        "epochs=1\nsubsample=0\nlearning_rate=0.05\nthreads=1\nseed=5\n"
    )
    args = [
        "pipeline", "--corpus", paths["corpus"].name, "--lexicon", paths["lexicon"].name,
        "--pairs", paths["pairs"].name, "--simpairs", paths["sim"].name,
        "--workdir", "run", "--config", "run.cfg",
    ]
    assert main(args) == 0
    first = {p.name: p.read_bytes() for p in sorted((tmp_path / "run").iterdir())}
    assert main(args) == 0
    second = {p.name: p.read_bytes() for p in sorted((tmp_path / "run").iterdir())}
    ok = bool(first) and first == second
    _verdict(11, ok, f"two single-thread pipeline runs, same config/seed: "
                     f"{len(first)} artifacts byte-identical", capsys)
