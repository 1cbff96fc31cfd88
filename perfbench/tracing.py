"""Spans recorded from outside the program, at its public function boundaries.

`Tracer.install` replaces each traced function at every `lexcontrast`
module attribute that holds it, which is the name its callers look up at
call time (`lexcontrast.cli.read_corpus`, `lexcontrast.embeddings.encode_lines`
and so on). Each call records a span: name, start, end and parent. Spans stay
in memory; `layer_metrics` turns them into per-layer numbers at the end.

A span's self time is its duration minus the durations of its direct
children. Calls on one thread nest, so the children never overlap, and the
self times of all spans under a root add up to the root's duration.
"""

from __future__ import annotations

import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import lexcontrast
import lexcontrast.cli  # noqa: F401  (traced like every other module)
from lexcontrast.evaluation import RelationPair, SparseRowTable

# (module, function) pairs traced, in report order. Span names are
# "<module>.<function>", except compute_weight_sa, which is split by its
# antonym mean because the two modes are separate code paths.
TRACED = [
    ("corpus", "read_corpus"),
    ("corpus", "build_vocabulary"),
    ("corpus", "count_cooccurrences"),
    ("corpus", "encode_lines"),
    ("corpus", "subsample_ids"),
    ("lexicon", "load_lexicon"),
    ("lexicon", "enrich_antonyms"),
    ("weighting", "compute_lmi"),
    ("weighting", "build_feature_index"),
    ("weighting", "compute_weight_sa"),
    ("weighting", "read_weighted"),
    ("weighting", "write_weighted"),
    ("reduction", "truncated_svd"),
    ("embeddings", "train_sgns"),
    ("embeddings", "train_dlce"),
    ("embeddings", "contrast_gradients"),
    ("evaluation", "score_pairs"),
    ("evaluation", "eval_ap"),
    ("evaluation", "eval_auc"),
    ("evaluation", "eval_spearman"),
    ("evaluation", "median_report"),
    ("vectors", "read_embeddings"),
    ("tsvio", "write_rows"),
    ("cli", "stage_vocab"),
    ("cli", "stage_count"),
    ("cli", "stage_lmi"),
    ("cli", "stage_weight_sa"),
    ("cli", "stage_svd"),
    ("cli", "stage_train_sgns"),
    ("cli", "stage_train_dlce"),
    ("cli", "stage_eval_ap"),
    ("cli", "stage_eval_auc"),
    ("cli", "stage_eval_spearman"),
    ("cli", "stage_report_medians"),
    ("cli", "write_embeddings_with_meta"),
]
LAYERS = ("cli", "corpus", "lexicon", "weighting", "reduction", "embeddings",
          "evaluation", "vectors", "tsvio", "seeding")
ROOT = "bench.unit"


def _weight_sa_name(args, kwargs) -> str:
    mode = kwargs.get("ant_mean", args[4] if len(args) > 4 else "pooled")
    return "weighting.compute_weight_sa." + mode.replace("-", "_")


def span_names() -> list[str]:
    names = []
    for module, function in TRACED:
        if function == "compute_weight_sa":
            names += [f"weighting.{function}.pooled", f"weighting.{function}.per_antonym"]
        else:
            names.append(f"{module}.{function}")
    return names


def _modules():
    prefix = lexcontrast.__name__ + "."
    return [lexcontrast] + [m for name, m in list(sys.modules.items()) if name.startswith(prefix)]


def _fingerprint(vectors) -> tuple:
    """Content key of a vector set, equal for rereads of the same artifact."""
    if isinstance(vectors, SparseRowTable):
        m = vectors.weights.matrix
        return ("sparse", m.shape, m.nnz, hash(m.data[:64].tobytes()))
    m = vectors.matrix
    return ("dense", m.shape, hash(m[:2].tobytes()))


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self.counters: dict[str, float] = {}
        self.scored_keys: set = set()
        self.files_read: set[str] = set()

    def add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, original, name, observe):
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            with self.span(label):
                result = original(*args, **kwargs)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = _modules()
        for module_name, function in TRACED:
            original = getattr(sys.modules[f"lexcontrast.{module_name}"], function)
            name = _weight_sa_name if function == "compute_weight_sa" else f"{module_name}.{function}"
            wrapper = self._wrap(original, name, OBSERVERS.get(function))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def self_times(self) -> dict[str, tuple[float, int]]:
        """Total self time and call count per span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, tuple[float, int]] = {}
        for (name, start, end, _), children in zip(self.spans, child_time):
            seconds, calls = totals.get(name, (0.0, 0))
            totals[name] = (seconds + (end - start - children), calls + 1)
        return totals

    def inclusive(self, name: str) -> float:
        return sum(end - start for n, start, end, _ in self.spans if n == name)


# --- observers: counts taken at the same boundaries as the spans


def _lexicon_rows(lex, vocab):
    return [vocab.word_ids[w] for w in lex.words() if w in vocab.word_ids]


def _on_encode(tr, args, kwargs, result):
    tr.add("corpus.tokens", sum(len(line) for line in args[0]))


def _on_subsample(tr, args, kwargs, result):
    tr.add("corpus.subsample_in", sum(len(ids) for ids in args[0]))
    tr.add("corpus.subsample_kept", sum(len(ids) for ids in result))


def _on_weight_sa(tr, args, kwargs, result):
    lmi, _, lex, vocab = args[:4]
    rows = _lexicon_rows(lex, vocab)
    tr.add("weighting.sa_cells", int((lmi.matrix.indptr[1:] - lmi.matrix.indptr[:-1])[rows].sum()))
    tr.add("weighting.sa_kept", result.matrix.nnz)
    tr.counters["lexicon.oov_words"] = len(lex.words()) - len(rows)


def _on_train_dlce(tr, args, kwargs, result):
    lex, vocab = args[3], args[1]
    tr.counters["lexicon.oov_words"] = len(lex.words()) - len(_lexicon_rows(lex, vocab))
    tr.add("embeddings.dlce_pairs", sum(h["pairs"] for h in result.history))


def _on_train_sgns(tr, args, kwargs, result):
    tr.add("embeddings.sgns_pairs", sum(h["pairs"] for h in result.history))


def _on_svd(tr, args, kwargs, result):
    tr.counters["reduction.effective_rank"] = result.effective_rank


def _on_score(tr, args, kwargs, result):
    vectors, pairs = args[0], args[1]
    kind = "sparse" if isinstance(vectors, SparseRowTable) else "dense"
    tr.add(f"evaluation.{kind}_pairs", len(pairs))
    key = _fingerprint(vectors)
    relation = [p for p in pairs if isinstance(p, RelationPair)]
    tr.add("evaluation.relation_scorings", len(relation))
    tr.scored_keys.update((key, p) for p in relation)
    _, start, end, _ = tr.spans[-1]  # score_pairs calls nothing traced
    tr.add(f"evaluation.{kind}_score_s", end - start)


def _on_read_embeddings(tr, args, kwargs, result):
    path = os.fspath(args[0])
    tr.files_read.add(path)
    tr.add("vectors.read_bytes", os.path.getsize(path))


OBSERVERS = {
    "encode_lines": _on_encode,
    "subsample_ids": _on_subsample,
    "compute_weight_sa": _on_weight_sa,
    "train_sgns": _on_train_sgns,
    "train_dlce": _on_train_dlce,
    "truncated_svd": _on_svd,
    "score_pairs": _on_score,
    "read_embeddings": _on_read_embeddings,
}


# per-layer metrics other than the per-span ".share"/".calls" and the ".loc" counts
DERIVED_UNITS = {
    "bench.self_share": "ratio",
    "corpus.tokens_per_s": "tokens/s",
    "corpus.subsample_kept_share": "ratio",
    "weighting.sa_cells_per_s": "cells/s",
    "weighting.sa_kept_share": "ratio",
    "reduction.effective_rank": "count",
    "embeddings.pairs": "count",
    "embeddings.sgns_pairs_per_s": "pairs/s",
    "embeddings.dlce_pairs_per_s": "pairs/s",
    "embeddings.contrast_hit_share": "ratio",
    "embeddings.contrast_overhead_share": "ratio",
    "evaluation.sparse_pairs_per_s": "pairs/s",
    "evaluation.dense_pairs_per_s": "pairs/s",
    "evaluation.rescore_factor": "ratio",
    "lexicon.oov_words": "count",
    "vectors.files_read": "count",
    "vectors.read_mb_per_s": "MB/s",
    "cli.artifacts": "count",
    "cli.artifact_bytes": "bytes",
    "cli.import_overhead_ms": "ms",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_share": "ratio",
}


def metric_names() -> list[str]:
    """Every per-layer metric, in report order."""
    spans = [f"{name}.{kind}" for name in span_names() for kind in ("share", "calls")]
    return spans + list(DERIVED_UNITS) + [f"{layer}.loc" for layer in LAYERS] + ["src.loc"]


def unit_of(name: str) -> str:
    for suffix, unit in ((".share", "ratio"), (".calls", "count"), (".loc", "lines")):
        if name.endswith(suffix):
            return unit
    return DERIVED_UNITS[name]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def source_lines(src: Path) -> dict[str, int]:
    counts = {f"{layer}.loc": len((src / f"{layer}.py").read_text().splitlines()) for layer in LAYERS}
    counts["src.loc"] = sum(len(p.read_text().splitlines()) for p in src.glob("*.py"))
    return counts


def layer_metrics(tr: Tracer, untraced_wall: float) -> dict[str, float]:
    """Per-layer numbers of one traced unit, keyed as in BENCHMARK.json."""
    totals = tr.self_times()
    wall = tr.inclusive(ROOT)
    c = tr.counters
    out: dict[str, float] = {}
    for name in span_names():
        seconds, calls = totals.get(name, (0.0, 0))
        out[f"{name}.share"] = _ratio(seconds, wall)
        out[f"{name}.calls"] = calls
    out["bench.self_share"] = _ratio(totals[ROOT][0], wall)
    for kind in ("sparse", "dense"):
        out[f"evaluation.{kind}_pairs_per_s"] = _ratio(c.get(f"evaluation.{kind}_pairs", 0),
                                                       c.get(f"evaluation.{kind}_score_s", 0))
    out["corpus.tokens_per_s"] = _ratio(c.get("corpus.tokens", 0), totals.get("corpus.encode_lines", (0.0, 0))[0])
    out["corpus.subsample_kept_share"] = _ratio(c.get("corpus.subsample_kept", 0), c.get("corpus.subsample_in", 0))
    sa_s = tr.inclusive("weighting.compute_weight_sa.pooled") + tr.inclusive("weighting.compute_weight_sa.per_antonym")
    out["weighting.sa_cells_per_s"] = _ratio(c.get("weighting.sa_cells", 0), sa_s)
    out["weighting.sa_kept_share"] = _ratio(c.get("weighting.sa_kept", 0), c.get("weighting.sa_cells", 0))
    out["reduction.effective_rank"] = c.get("reduction.effective_rank", 0)
    out["embeddings.pairs"] = c.get("embeddings.sgns_pairs", 0) + c.get("embeddings.dlce_pairs", 0)
    for kind in ("sgns", "dlce"):
        out[f"embeddings.{kind}_pairs_per_s"] = _ratio(c.get(f"embeddings.{kind}_pairs", 0),
                                                       tr.inclusive(f"embeddings.train_{kind}"))
    out["embeddings.contrast_hit_share"] = _ratio(
        totals.get("embeddings.contrast_gradients", (0.0, 0))[1], c.get("embeddings.dlce_pairs", 0))
    dlce_s = tr.inclusive("embeddings.train_dlce")
    out["embeddings.contrast_overhead_share"] = _ratio(dlce_s - tr.inclusive("embeddings.train_sgns"), dlce_s)
    out["evaluation.rescore_factor"] = _ratio(c.get("evaluation.relation_scorings", 0), len(tr.scored_keys))
    out["lexicon.oov_words"] = c.get("lexicon.oov_words", 0)
    out["vectors.files_read"] = len(tr.files_read)
    out["vectors.read_mb_per_s"] = _ratio(c.get("vectors.read_bytes", 0) / 1e6, tr.inclusive("vectors.read_embeddings"))
    out["trace.wall_s"] = wall
    out["trace.untraced_wall_s"] = untraced_wall
    out["trace.overhead_share"] = _ratio(wall - untraced_wall, untraced_wall)
    return out
