"""The benchmark's three workloads, their output checks and their metrics.

Each workload has a set-up, which makes its inputs from the seed, and a unit
of measured work that a run repeats a fixed number of times:

- pipeline: one `lexcontrast pipeline` child process over the wide world;
- train: `train_sgns`, then `train_dlce`, in process, on the small world;
- dense-lexicon: the count route (vocab, counts, LMI, contrast weights in
  both antonym means, sparse AP, SVD, dense AUC and rho) in process, with
  the full planted lexicon.

See README.md in this directory for why these three, and what each metric
is expected to move.
"""

from __future__ import annotations

import hashlib
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

from lexcontrast import cli, corpus, embeddings, evaluation, reduction, weighting
from lexcontrast.evaluation import SparseRowTable
from lexcontrast.vectors import DenseEmbeddings

import tracing
from world import build_world, write_world

SRC = Path(__file__).resolve().parents[1] / "src"
SETUP_REPS = 3  # set-ups per untraced run; setup_s is their median
PROBES = 5  # start-up probes per run, spread among the units
CHILD_TIMEOUT_S = 150

MIN_COUNT = 5
WINDOW = 2
SVD_DIM = 100
# the criterion-6/7 training settings
TRAIN_CONFIG = dict(dim=50, negatives=5, window=WINDOW, learning_rate=0.05, epochs=1,
                    subsample=None, min_count=MIN_COUNT, threads=1)
# the pipeline keeps the default subsample threshold
PIPELINE_FLAGS = ["--min-count", str(MIN_COUNT), "--window", str(WINDOW), "--dim", "50",
                  "--svd-dim", str(SVD_DIM), "--negatives", "5", "--learning-rate", "0.05"]

SIZES = {
    "pipeline": {"world": dict(n_concepts=300, sentences=30_000)},
    "train": {"world": dict(sentences=20_000), "prefix": 4_000},  # trainers see the prefix
    "dense-lexicon": {
        "world": dict(n_concepts=30, pole_size=10, n_themes=40, theme_tokens=8, sentences=30_000),
        "slice": 500,  # sentences the trainers run on once, outside the timed units
    },
}
# Typical wall time of one unit on the 2-vCPU build host. A run does
# round(seconds / UNIT_S) units, a number fixed before it starts, so that
# both sides of a comparison do the same work.
UNIT_S = {"pipeline": 14.0, "train": 5.0, "dense-lexicon": 8.0}

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cli_start_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_ops_share": "ratio",
    "ap_syn_sa": "score",
    "ap_ant_sa": "score",
    "auc_sa_svd": "score",
    "rho_sa_svd": "score",
    "auc_dlce": "score",
    "rho_dlce": "score",
}
CLI_VERSION = ["-m", "lexcontrast.cli", "--version"]
IMPORT_FLOOR = ["-c", "import numpy, scipy.sparse"]


class Ops:
    """Operations attempted and failed: timed calls plus output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def call(self, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:
            self.failed += 1
            traceback.print_exc()
            return None

    def check(self, what: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)


def _child_env() -> dict[str, str]:
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path)


def _child(argv: list[str], **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *argv], env=_child_env(), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S, **kwargs)


def probe_ms(argv: list[str], ops: Ops) -> float:
    """Wall time of one fresh child process, in ms."""
    t = time.perf_counter()
    proc = ops.call(_child, argv)
    elapsed = (time.perf_counter() - t) * 1e3
    ops.check(f"{' '.join(argv)} exits 0", proc is not None and proc.returncode == 0)
    return elapsed


def median_probe_ms(argv: list[str], ops: Ops) -> float:
    return statistics.median(probe_ms(argv, ops) for _ in range(PROBES))


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()


def _valid(wm) -> bool:
    try:
        wm.validate()
    except weighting.WeightingError:
        return False
    return True


def _sparse_ap(wm, vocab, world):
    return evaluation.eval_ap(SparseRowTable(wm, vocab), world.relation_pairs).classes["ADJ"]


def _dense_quality(emb, world) -> tuple[float, float]:
    auc = evaluation.eval_auc(emb, world.relation_pairs).classes["ADJ"].auc
    rho = evaluation.eval_spearman(emb, world.similarity_pairs)[0].spearman
    return auc, rho


def _svd_embeddings(wm, vocab, seed) -> DenseEmbeddings:
    result = reduction.truncated_svd(wm.matrix, SVD_DIM, seed=seed)
    return DenseEmbeddings(list(vocab.words), result.row_vectors, source="svd")


def _train_both(lines, s) -> tuple:
    return (embeddings.train_sgns(lines, s.vocab, s.cfg),
            embeddings.train_dlce(lines, s.vocab, s.cfg, s.lex, s.idx))


def _trainer_quality(sgns, dlce, world, ops: Ops) -> dict[str, float]:
    # DenseEmbeddings rejects NaN and Inf, so building them checks finiteness
    auc_sgns, _ = _dense_quality(sgns.embeddings(), world)
    auc_dlce, rho_dlce = _dense_quality(dlce.embeddings(source="dlce"), world)
    ops.check("dLCE beats SGNS on AUC", auc_dlce > auc_sgns)
    return {"auc_dlce": auc_dlce, "rho_dlce": rho_dlce}


def _check_sa(ops: Ops, ap_sa, ap_lmi, *sa) -> None:
    ops.check("pure SA weights lie in [-1, 1]", all(_valid(wm) for wm in sa))
    ops.check("SA beats LMI on AP_syn", ap_sa.ap_syn > ap_lmi.ap_syn)
    ops.check("SA beats LMI on AP_ant", ap_sa.ap_ant < ap_lmi.ap_ant)


def _count_route_quality(lmi, sa, vocab, world, seed, ops: Ops) -> dict[str, float]:
    ap_sa = _sparse_ap(sa, vocab, world)
    _check_sa(ops, ap_sa, _sparse_ap(lmi, vocab, world), sa)
    auc, rho = _dense_quality(_svd_embeddings(sa, vocab, seed), world)
    return {"ap_syn_sa": ap_sa.ap_syn, "ap_ant_sa": ap_sa.ap_ant, "auc_sa_svd": auc, "rho_sa_svd": rho}


class Workload:
    in_process = True  # the pipeline runs its unit as a child unless traced

    def __init__(self, sizes: dict, workdir: Path):
        self.sizes = sizes
        self.workdir = workdir

    def prepare(self) -> None:
        """Untimed step before each unit."""

    def artifacts(self) -> tuple[int, int]:
        return 0, 0

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Train(Workload):
    def setup(self, seed: int) -> None:
        world = build_world(seed, **self.sizes["world"])
        vocab = corpus.build_vocabulary(world.lines, MIN_COUNT)
        lmi = weighting.compute_lmi(corpus.count_cooccurrences(world.lines, vocab, WINDOW), vocab)
        self.s = SimpleNamespace(
            seed=seed, world=world, lex=world.lexicon(), vocab=vocab, lmi=lmi,
            idx=weighting.build_feature_index(lmi),
            cfg=embeddings.TrainingConfig(seed=seed, **TRAIN_CONFIG),
        )

    def unit(self):
        return _train_both(self.s.world.lines[: self.sizes["prefix"]], self.s)

    def verify(self, out, ops: Ops) -> str:
        sgns, dlce = out
        return _digest(sgns.W, sgns.C, dlce.W, dlce.C)

    def finish(self, out, ops: Ops) -> dict[str, float]:
        s = self.s
        sgns, dlce = out
        sa = weighting.compute_weight_sa(s.lmi, s.idx, s.lex, s.vocab)
        return {**_trainer_quality(sgns, dlce, s.world, ops),
                **_count_route_quality(s.lmi, sa, s.vocab, s.world, s.seed, ops)}


class DenseLexicon(Workload):
    def setup(self, seed: int) -> None:
        world = build_world(seed, **self.sizes["world"]).with_full_lexicon()
        self.s = SimpleNamespace(seed=seed, world=world, lex=world.lexicon(),
                                 cfg=embeddings.TrainingConfig(seed=seed, **TRAIN_CONFIG))

    def unit(self):
        s = self.s
        lines = s.world.lines
        vocab = corpus.build_vocabulary(lines, MIN_COUNT)
        lmi = weighting.compute_lmi(corpus.count_cooccurrences(lines, vocab, WINDOW), vocab)
        idx = weighting.build_feature_index(lmi)
        sa = weighting.compute_weight_sa(lmi, idx, s.lex, vocab)
        sa_per = weighting.compute_weight_sa(lmi, idx, s.lex, vocab, ant_mean="per-antonym")
        ap_lmi = _sparse_ap(lmi, vocab, s.world)
        ap_sa = _sparse_ap(sa, vocab, s.world)
        emb = _svd_embeddings(sa, vocab, s.seed)
        auc, rho = _dense_quality(emb, s.world)
        return SimpleNamespace(vocab=vocab, lmi=lmi, idx=idx, sa=sa, sa_per=sa_per,
                               ap_lmi=ap_lmi, ap_sa=ap_sa, emb=emb, auc=auc, rho=rho)

    def verify(self, out, ops: Ops) -> str:
        return _digest(out.sa.matrix.data, out.sa.matrix.indices, out.sa_per.matrix.data, out.emb.matrix)

    def finish(self, out, ops: Ops) -> dict[str, float]:
        s = self.s
        _check_sa(ops, out.ap_sa, out.ap_lmi, out.sa, out.sa_per)
        # dLCE quality from both trainers on a prefix, with the unit's vocabulary and index
        trained = SimpleNamespace(vocab=out.vocab, cfg=s.cfg, lex=s.lex, idx=out.idx)
        sgns, dlce = _train_both(s.world.lines[: self.sizes["slice"]], trained)
        return {**_trainer_quality(sgns, dlce, s.world, ops),
                "ap_syn_sa": out.ap_sa.ap_syn, "ap_ant_sa": out.ap_sa.ap_ant,
                "auc_sa_svd": out.auc, "rho_sa_svd": out.rho}


ARTIFACTS = 24


class Pipeline(Workload):
    in_process = False

    def setup(self, seed: int) -> None:
        self.inputs = write_world(build_world(seed, **self.sizes["world"]), self.workdir / "inputs")
        self.run_dir = self.workdir / "run"
        i = self.inputs
        self.argv = ["pipeline", "--corpus", str(i["corpus"]), "--lexicon", str(i["lexicon"]),
                     "--pairs", str(i["pairs"]), "--simpairs", str(i["sim"]),
                     "--workdir", str(self.run_dir), "--seed", str(seed), *PIPELINE_FLAGS]

    def prepare(self) -> None:
        shutil.rmtree(self.run_dir, ignore_errors=True)

    def unit(self):
        if self.in_process:
            return cli.main(self.argv), ""
        proc = _child(["-m", "lexcontrast.cli", *self.argv])
        return proc.returncode, proc.stderr

    def _files(self) -> list[Path]:
        return sorted(self.run_dir.iterdir()) if self.run_dir.is_dir() else []

    def artifacts(self) -> tuple[int, int]:
        files = self._files()
        return len(files), sum(f.stat().st_size for f in files)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    def verify(self, out, ops: Ops) -> str:
        returncode, stderr = out
        if stderr and returncode != 0:
            print(stderr, file=sys.stderr)
        files = self._files()
        ops.check("pipeline exits 0", returncode == 0)
        ops.check(f"pipeline writes {ARTIFACTS} artifacts", len(files) == ARTIFACTS)
        h = hashlib.sha256()
        for f in files:
            h.update(f.name.encode() + b"\0" + f.read_bytes())
        return h.hexdigest()

    def finish(self, out, ops: Ops) -> dict[str, float]:
        rd = self.run_dir

        def report(name: str) -> dict[str, str]:
            rows = [line.split("\t") for line in (rd / name).read_text().splitlines()
                    if line and not line.startswith("#")]
            return dict(zip(rows[0], rows[1]))

        auc = {k: float(report(f"eval_auc_{k}.tsv")["auc"]) for k in ("sgns", "dlce", "sa_svd")}
        rho = {k: float(report(f"spearman_{k}.tsv")["spearman"]) for k in ("dlce", "sa_svd")}
        ap = {k: report(f"eval_ap_{k}.tsv") for k in ("lmi_svd", "sa_svd")}
        ops.check("SA-SVD beats LMI-SVD on AP_syn", float(ap["sa_svd"]["ap_syn"]) > float(ap["lmi_svd"]["ap_syn"]))
        ops.check("SA-SVD beats LMI-SVD on AP_ant", float(ap["sa_svd"]["ap_ant"]) < float(ap["lmi_svd"]["ap_ant"]))
        ops.check("dLCE beats SGNS on AUC", auc["dlce"] > auc["sgns"])
        sa = weighting.read_weighted(rd / "sa.tsv")
        ops.check("pure SA weights lie in [-1, 1]", _valid(sa))
        vocab = corpus.read_vocabulary(rd / "vocab.tsv")
        ap_sa = evaluation.eval_ap(SparseRowTable(sa, vocab), evaluation.load_relation_pairs(self.inputs["pairs"]))
        return {"ap_syn_sa": ap_sa.classes["ADJ"].ap_syn, "ap_ant_sa": ap_sa.classes["ADJ"].ap_ant,
                "auc_sa_svd": auc["sa_svd"], "rho_sa_svd": rho["sa_svd"],
                "auc_dlce": auc["dlce"], "rho_dlce": rho["dlce"]}


WORKLOADS = {"pipeline": Pipeline, "train": Train, "dense-lexicon": DenseLexicon}


def _timed_unit(wl: Workload, ops: Ops):
    wl.prepare()
    t = time.perf_counter()
    out = ops.call(wl.unit)
    return out, time.perf_counter() - t


def _untraced(wl: Workload, units: int, seconds: float, seed: int, import_s: float, ops: Ops) -> dict[str, float]:
    setups = []
    for _ in range(SETUP_REPS):
        t = time.perf_counter()
        wl.setup(seed)
        setups.append(time.perf_counter() - t)

    # Load from other tenants shifts the host's speed over seconds to
    # minutes, so the probes are spread among the units and both are
    # averaged over the whole run.
    walls, probes, digests, out = [], [], [], None
    start = time.perf_counter()
    for k in range(units):
        if time.perf_counter() - start > 1.5 * seconds:
            break  # a much slower host does fewer units rather than overrun
        rep, wall = _timed_unit(wl, ops)
        if rep is not None:
            out = rep
            walls.append(wall)
            digests.append(wl.verify(rep, ops))
        for _ in range((k + 1) * PROBES // units - k * PROBES // units):
            probes.append(probe_ms(CLI_VERSION, ops))
    while len(probes) < PROBES:
        probes.append(probe_ms(CLI_VERSION, ops))
    for d in digests[1:]:
        ops.check("rerun gives the first run's digest", d == digests[0])
    quality = ops.call(wl.finish, out, ops) if out is not None else None

    metrics = dict(quality or {})
    metrics["setup_s"] = import_s + statistics.median(setups)
    metrics["wall_s"] = statistics.mean(walls) if walls else 0.0
    metrics["cli_start_ms"] = statistics.mean(probes)
    metrics["peak_rss_mb"] = wl.peak_rss_mb()
    metrics["ok_ops_share"] = (ops.attempted - ops.failed) / ops.attempted
    return metrics


def _traced(wl: Workload, seed: int, ops: Ops) -> dict[str, float]:
    wl.setup(seed)
    wl.in_process = True
    out, untraced_wall = _timed_unit(wl, ops)
    digest = wl.verify(out, ops) if out is not None else None

    tracer = tracing.Tracer()
    wl.prepare()
    tracer.install()
    try:
        with tracer.span(tracing.ROOT):
            traced_out = ops.call(wl.unit)
    finally:
        tracer.uninstall()
    if traced_out is not None:
        ops.check("traced run gives the untraced run's digest", wl.verify(traced_out, ops) == digest)
        ops.call(wl.finish, traced_out, ops)

    metrics = tracing.layer_metrics(tracer, untraced_wall)
    metrics.update(tracing.source_lines(SRC / "lexcontrast"))
    metrics["cli.artifacts"], metrics["cli.artifact_bytes"] = wl.artifacts()
    metrics["cli.import_overhead_ms"] = median_probe_ms(CLI_VERSION, ops) - median_probe_ms(IMPORT_FLOOR, ops)
    return metrics


def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path,
        import_s: float = 0.0, sizes: dict | None = None) -> dict:
    """One benchmark run; returns the result object the harness prints."""
    wl = WORKLOADS[name](sizes or SIZES[name], workdir)
    ops = Ops()
    if trace:
        metrics = _traced(wl, seed, ops)
        units = {key: tracing.unit_of(key) for key in tracing.metric_names()}
    else:
        metrics = _untraced(wl, max(1, round(seconds / UNIT_S[name])), seconds, seed, import_s, ops)
        units = E2E_UNITS
    return {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {key: {"value": metrics.get(key, 0.0), "unit": unit} for key, unit in units.items()},
    }
