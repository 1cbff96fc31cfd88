"""Command-line interface: one subcommand per pipeline stage plus `pipeline`.

Every artifact starts with comment lines recording the tool version, the
resolved stage configuration (verbatim and as a sha256), and the root seed.
Randomness flows from that single root seed, salted per stage, so a rerun
with the same config file is byte-identical in single-thread mode.

Option resolution order: command-line flag, then config-file entry, then
built-in default.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from . import __version__, tsvio
from .corpus import (
    CorpusError,
    build_vocabulary,
    count_cooccurrences,
    read_corpus,
    read_counts,
    read_vocabulary,
    write_counts,
    write_vocabulary,
)
from .embeddings import TrainingConfig, TrainingError, train_dlce, train_sgns
from .evaluation import (
    EvalError,
    MetricReport,
    SparseRowTable,
    eval_ap,
    eval_auc,
    eval_spearman,
    load_relation_pairs,
    load_similarity_pairs,
    median_report,
)
from .lexicon import LexiconError, enrich_antonyms, load_lexicon
from .reduction import ReductionError, truncated_svd
from .seeding import seed_sequence
from .vectors import DenseEmbeddings, VectorsError, read_embeddings, write_embeddings
from .weighting import (
    SCHEME_SA,
    WeightingError,
    build_feature_index,
    compute_lmi,
    compute_weight_sa,
    read_weighted,
    write_weighted,
)

_ERRORS = (
    CorpusError,
    LexiconError,
    WeightingError,
    ReductionError,
    VectorsError,
    TrainingError,
    EvalError,
)

DEFAULTS: dict[str, object] = {
    "lowercase": True,
    "min_count": 100,
    "window": 5,
    "dynamic_window": False,
    "dim": 500,
    "svd_dim": 100,
    "negatives": 15,
    "learning_rate": 0.025,
    "epochs": 1,
    "subsample": 1e-5,
    "noise_exponent": 0.75,
    "beta": 1.0,
    "max_contrast_neighbors": 0,
    "threads": 1,
    "ant_mean": "pooled",
    "fallback_lmi": False,
    "svd_mode": "auto",
    "sigma_exponent": 1.0,
    "average_contexts": False,
    "track_objective": False,
    "seed": 0,
}

_BOOL_KEYS = {
    "lowercase",
    "dynamic_window",
    "fallback_lmi",
    "average_contexts",
    "track_objective",
}
# keys naming input files or the pipeline's output directory; they have no default
_PATH_KEYS = {"corpus", "counts", "lexicon", "lmi", "pairs", "simpairs", "vectors", "vocab", "weights", "workdir"}
_INT_KEYS = {"min_count", "window", "dim", "svd_dim", "negatives", "epochs", "threads", "max_contrast_neighbors", "seed"}
_FLOAT_KEYS = {"learning_rate", "subsample", "noise_exponent", "beta", "sigma_exponent"}


def _parse_config_value(key: str, raw: str):
    if key in _BOOL_KEYS:
        low = raw.strip().lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"config key {key}: expected a boolean, got {raw!r}")
    if key in _INT_KEYS:
        return int(raw)
    if key in _FLOAT_KEYS:
        return float(raw)
    return raw


def read_config_file(path) -> dict[str, object]:
    """Parse flat `key=value` lines; '#' starts a comment."""
    out: dict[str, object] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            if "=" not in text:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, _, raw = text.partition("=")
            key = key.strip()
            if key not in DEFAULTS and key not in _PATH_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            out[key] = _parse_config_value(key, raw.strip())
    return out


class Settings:
    """Effective option values: flag beats config file beats default."""

    def __init__(self, args: argparse.Namespace):
        self.file_config: dict[str, object] = {}
        config_path = getattr(args, "config", None)
        if config_path is not None:
            if not Path(config_path).is_file():
                raise FileNotFoundError(config_path)
            self.file_config = read_config_file(config_path)
        self.args = args

    def get(self, key: str):
        flag = getattr(self.args, key, None)
        if flag is not None:
            return flag
        if key in self.file_config:
            return self.file_config[key]
        return DEFAULTS[key]

    def path(self, key: str) -> str | None:
        """Paths may come from flags or the config file, with no default."""
        flag = getattr(self.args, key, None)
        if flag is not None:
            return flag
        value = self.file_config.get(key)
        return None if value is None else str(value)

    def require_path(self, key: str) -> str:
        value = self.path(key)
        if value is None:
            raise ValueError(f"--{key.replace('_', '-')} is required (flag or config file)")
        return value


def _header(stage: str, params: dict[str, object], seed: int) -> dict[str, str]:
    serialized = " ".join(f"{k}={params[k]}" for k in sorted(params))
    digest = hashlib.sha256(serialized.encode("utf-8")).hexdigest()
    return {
        "tool": f"lexcontrast {__version__}",
        "stage": stage,
        "seed": str(seed),
        "config_sha256": digest,
        "config": serialized,
    }


def _stage_seed(root: int, label: str) -> int:
    """Derive one stage's integer seed from the root seed."""
    return int(seed_sequence(root, label).generate_state(1)[0])


def _require_files(*paths) -> None:
    for p in paths:
        if p is None:
            continue
        if not Path(p).is_file():
            raise FileNotFoundError(p)


def _missing_path_error(exc: FileNotFoundError) -> int:
    name = exc.args[0] if exc.args else exc.filename
    print(f"error: input file not found: {name}", file=sys.stderr)
    return 2


# --- stage implementations (shared by single subcommands and `pipeline`)


def stage_vocab(corpus_path, out_path, lowercase: bool, min_count: int, seed: int) -> None:
    _require_files(corpus_path)
    lines = read_corpus(corpus_path, lowercase=lowercase)
    vocab = build_vocabulary(lines, min_count)
    params = {"corpus": corpus_path, "lowercase": lowercase, "min_count": min_count}
    write_vocabulary(out_path, vocab, meta=_header("vocab", params, seed))


def stage_count(corpus_path, vocab_path, out_path, lowercase, window, dynamic_window, seed) -> None:
    _require_files(corpus_path, vocab_path)
    lines = read_corpus(corpus_path, lowercase=lowercase)
    vocab = read_vocabulary(vocab_path)
    counts = count_cooccurrences(
        lines, vocab, window, dynamic_window=dynamic_window, seed=_stage_seed(seed, "count")
    )
    params = {
        "corpus": corpus_path,
        "vocab": vocab_path,
        "lowercase": lowercase,
        "window": window,
        "dynamic_window": dynamic_window,
    }
    write_counts(out_path, counts, meta=_header("count", params, seed))


def stage_lmi(counts_path, out_path, vocab_path, seed) -> None:
    _require_files(counts_path, vocab_path)
    counts = read_counts(counts_path)
    vocab = read_vocabulary(vocab_path) if vocab_path else None
    lmi = compute_lmi(counts, vocab)
    params = {"counts": counts_path, "vocab": vocab_path or ""}
    write_weighted(out_path, lmi, meta=_header("lmi", params, seed))


def stage_weight_sa(lmi_path, lexicon_path, vocab_path, out_path, ant_mean, fallback_lmi, seed) -> None:
    _require_files(lmi_path, lexicon_path, vocab_path)
    lmi = read_weighted(lmi_path)
    if lmi.scheme != "LMI":
        raise WeightingError(f"{lmi_path}: expected an LMI matrix, found scheme {lmi.scheme}")
    vocab = read_vocabulary(vocab_path)
    lex = enrich_antonyms(load_lexicon(lexicon_path))
    idx = build_feature_index(lmi)
    sa = compute_weight_sa(lmi, idx, lex, vocab, ant_mean=ant_mean, fallback_lmi=fallback_lmi)
    params = {
        "lmi": lmi_path,
        "lexicon": lexicon_path,
        "vocab": vocab_path,
        "ant_mean": ant_mean,
        "fallback_lmi": fallback_lmi,
    }
    write_weighted(out_path, sa, meta=_header("weight-sa", params, seed))


def stage_svd(weights_path, vocab_path, out_path, dim, svd_mode, sigma_exponent, seed) -> None:
    _require_files(weights_path, vocab_path)
    weights = read_weighted(weights_path)
    vocab = read_vocabulary(vocab_path)
    if weights.shape[0] != len(vocab):
        raise ReductionError("weighted matrix and vocabulary disagree on word count")
    result = truncated_svd(
        weights.matrix,
        dim,
        mode=svd_mode,
        seed=_stage_seed(seed, "svd"),
        sigma_exponent=sigma_exponent,
    )
    emb = DenseEmbeddings(list(vocab.words), result.row_vectors, source="svd")
    params = {
        "weights": weights_path,
        "vocab": vocab_path,
        "svd_dim": dim,
        "svd_mode": svd_mode,
        "sigma_exponent": sigma_exponent,
    }
    meta = _header("svd", params, seed)
    meta["effective_rank"] = str(result.effective_rank)
    meta["mode_used"] = result.mode_used
    write_embeddings_with_meta(out_path, emb, meta)


def write_embeddings_with_meta(path, emb: DenseEmbeddings, meta: dict[str, str]) -> None:
    with tsvio.atomic_writer(path) as fh:
        for key, value in meta.items():
            fh.write(f"#{key}={value}\n")
        fh.write(f"{len(emb)} {emb.dim}\n")
        for word, row in zip(emb.words, emb.matrix):
            fh.write(word + " " + " ".join(repr(float(x)) for x in row) + "\n")


def _training_config(settings: Settings) -> TrainingConfig:
    subsample = float(settings.get("subsample"))
    cap = int(settings.get("max_contrast_neighbors"))
    return TrainingConfig(
        dim=int(settings.get("dim")),
        negatives=int(settings.get("negatives")),
        window=int(settings.get("window")),
        learning_rate=float(settings.get("learning_rate")),
        epochs=int(settings.get("epochs")),
        subsample=None if subsample <= 0 else subsample,
        min_count=int(settings.get("min_count")),
        contrast_coefficient=float(settings.get("beta")),
        max_contrast_neighbors=None if cap <= 0 else cap,
        noise_exponent=float(settings.get("noise_exponent")),
        seed=int(settings.get("seed")),
        threads=int(settings.get("threads")),
        track_objective=bool(settings.get("track_objective")),
    )


def _train_params(cfg: TrainingConfig, extra: dict[str, object]) -> dict[str, object]:
    params = {
        "dim": cfg.dim,
        "negatives": cfg.negatives,
        "window": cfg.window,
        "learning_rate": cfg.learning_rate,
        "epochs": cfg.epochs,
        "subsample": cfg.subsample,
        "min_count": cfg.min_count,
        "noise_exponent": cfg.noise_exponent,
        "threads": cfg.threads,
    }
    params.update(extra)
    return params


def stage_train_sgns(corpus_path, vocab_path, out_path, context_out, lowercase, average_contexts, cfg) -> None:
    _require_files(corpus_path, vocab_path)
    lines = read_corpus(corpus_path, lowercase=lowercase)
    vocab = read_vocabulary(vocab_path)
    model = train_sgns(lines, vocab, cfg, progress=sys.stderr)
    params = _train_params(
        cfg,
        {"corpus": corpus_path, "vocab": vocab_path, "lowercase": lowercase, "average_contexts": average_contexts},
    )
    emb = model.embeddings(source="sgns", average_contexts=average_contexts)
    write_embeddings_with_meta(out_path, emb, _header("train-sgns", params, cfg.seed))
    if context_out:
        ctx = DenseEmbeddings(list(vocab.words), model.C.copy(), source="sgns-context")
        write_embeddings_with_meta(context_out, ctx, _header("train-sgns-context", params, cfg.seed))


def stage_train_dlce(
    corpus_path, vocab_path, lexicon_path, lmi_path, out_path, context_out, lowercase, average_contexts, cfg
) -> None:
    _require_files(corpus_path, vocab_path, lexicon_path, lmi_path)
    lines = read_corpus(corpus_path, lowercase=lowercase)
    vocab = read_vocabulary(vocab_path)
    lex = load_lexicon(lexicon_path)
    lmi = read_weighted(lmi_path)
    if lmi.scheme != "LMI":
        raise WeightingError(f"{lmi_path}: expected an LMI matrix, found scheme {lmi.scheme}")
    idx = build_feature_index(lmi)
    model = train_dlce(lines, vocab, cfg, lex, idx, progress=sys.stderr)
    params = _train_params(
        cfg,
        {
            "corpus": corpus_path,
            "vocab": vocab_path,
            "lexicon": lexicon_path,
            "lmi": lmi_path,
            "lowercase": lowercase,
            "average_contexts": average_contexts,
            "beta": cfg.contrast_coefficient,
            "max_contrast_neighbors": cfg.max_contrast_neighbors,
        },
    )
    emb = model.embeddings(source="dlce", average_contexts=average_contexts)
    write_embeddings_with_meta(out_path, emb, _header("train-dlce", params, cfg.seed))
    if context_out:
        ctx = DenseEmbeddings(list(vocab.words), model.C.copy(), source="dlce-context")
        write_embeddings_with_meta(context_out, ctx, _header("train-dlce-context", params, cfg.seed))


def load_vectors(vectors_path, vocab_path):
    """Open dense text vectors or a sparse weighted matrix, by sniffing.

    A `scheme` header marks the sparse TSV form, which needs the vocabulary
    for word lookup.
    """
    _require_files(vectors_path)
    meta = tsvio.read_meta(vectors_path)
    if "scheme" in meta:
        if vocab_path is None:
            raise EvalError("sparse weighted vectors need --vocab for word lookup")
        _require_files(vocab_path)
        return SparseRowTable(read_weighted(vectors_path), read_vocabulary(vocab_path))
    return read_embeddings(vectors_path)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def _emit(out_path, lines) -> None:
    text = "".join(line + "\n" for line in lines)
    if out_path is None:
        sys.stdout.write(text)
    else:
        with tsvio.atomic_writer(out_path) as fh:
            fh.write(text)


def _report_lines(meta: dict[str, str], columns: list[str], rows: list[list]) -> list[str]:
    lines = [f"#{k}={v}" for k, v in meta.items()]
    lines.append("\t".join(columns))
    lines.extend("\t".join(_fmt(cell) for cell in row) for row in rows)
    return lines


def _json_report(meta: dict[str, str], report: MetricReport, extra: dict | None = None) -> list[str]:
    payload = {"meta": meta, **report.to_json_dict()}
    if extra:
        payload.update(extra)
    return [json.dumps(payload, indent=2, sort_keys=True)]


def stage_eval_ap(vectors, vectors_path, pairs_path, out_path, as_json, seed) -> None:
    _require_files(pairs_path)
    pair_set = load_relation_pairs(pairs_path)
    report = eval_ap(vectors, pair_set)
    meta = _header("eval-ap", {"vectors": vectors_path, "pairs": pairs_path}, seed)
    if as_json:
        _emit(out_path, _json_report(meta, report))
        return
    rows = [
        [name, cm.n_total, cm.n_scored, cm.coverage, cm.ap_syn, cm.ap_ant]
        for name, cm in sorted(report.classes.items())
    ]
    _emit(out_path, _report_lines(meta, ["class", "n_total", "n_scored", "coverage", "ap_syn", "ap_ant"], rows))


def stage_eval_auc(vectors, vectors_path, pairs_path, out_path, as_json, seed) -> None:
    _require_files(pairs_path)
    pair_set = load_relation_pairs(pairs_path)
    report = eval_auc(vectors, pair_set)
    meta = _header("eval-auc", {"vectors": vectors_path, "pairs": pairs_path}, seed)
    meta["positives"] = "SYN by descending cosine; equals ANT detection on negated scores"
    if as_json:
        _emit(out_path, _json_report(meta, report))
        return
    rows = [
        [name, cm.n_total, cm.n_scored, cm.coverage, cm.auc]
        for name, cm in sorted(report.classes.items())
    ]
    _emit(out_path, _report_lines(meta, ["class", "n_total", "n_scored", "coverage", "auc"], rows))


def stage_eval_spearman(vectors, vectors_path, pairs_path, out_path, as_json, seed) -> None:
    _require_files(pairs_path)
    pair_set = load_similarity_pairs(pairs_path)
    report, n_scored, n_total = eval_spearman(vectors, pair_set)
    meta = _header("eval-spearman", {"vectors": vectors_path, "pairs": pairs_path}, seed)
    if as_json:
        _emit(out_path, _json_report(meta, report, {"n_scored": n_scored, "n_total": n_total}))
        return
    rows = [[report.spearman, n_scored, n_total, n_scored / n_total if n_total else 0.0]]
    _emit(out_path, _report_lines(meta, ["spearman", "n_scored", "n_total", "coverage"], rows))


def stage_report_medians(vectors, vectors_path, pairs_path, out_path, as_json, seed) -> None:
    _require_files(pairs_path)
    pair_set = load_relation_pairs(pairs_path)
    report = median_report(vectors, pair_set)
    meta = _header("report-medians", {"vectors": vectors_path, "pairs": pairs_path}, seed)
    if as_json:
        _emit(out_path, _json_report(meta, report))
        return
    rows = [
        [name, cm.n_total, cm.n_scored, cm.coverage, cm.median_syn, cm.median_ant]
        for name, cm in sorted(report.classes.items())
    ]
    _emit(
        out_path,
        _report_lines(meta, ["class", "n_total", "n_scored", "coverage", "median_syn", "median_ant"], rows),
    )


# --- subcommand handlers


def _cmd_vocab(args) -> int:
    s = Settings(args)
    stage_vocab(s.require_path("corpus"), args.out, bool(s.get("lowercase")), int(s.get("min_count")), int(s.get("seed")))
    return 0


def _cmd_count(args) -> int:
    s = Settings(args)
    stage_count(
        s.require_path("corpus"),
        s.require_path("vocab"),
        args.out,
        bool(s.get("lowercase")),
        int(s.get("window")),
        bool(s.get("dynamic_window")),
        int(s.get("seed")),
    )
    return 0


def _cmd_lmi(args) -> int:
    s = Settings(args)
    stage_lmi(s.require_path("counts"), args.out, s.path("vocab"), int(s.get("seed")))
    return 0


def _cmd_weight_sa(args) -> int:
    s = Settings(args)
    stage_weight_sa(
        s.require_path("lmi"),
        s.require_path("lexicon"),
        s.require_path("vocab"),
        args.out,
        str(s.get("ant_mean")),
        bool(s.get("fallback_lmi")),
        int(s.get("seed")),
    )
    return 0


def _cmd_svd(args) -> int:
    s = Settings(args)
    stage_svd(
        s.require_path("weights"),
        s.require_path("vocab"),
        args.out,
        int(s.get("svd_dim")),
        str(s.get("svd_mode")),
        float(s.get("sigma_exponent")),
        int(s.get("seed")),
    )
    return 0


def _cmd_train_sgns(args) -> int:
    s = Settings(args)
    stage_train_sgns(
        s.require_path("corpus"),
        s.require_path("vocab"),
        args.out,
        args.context_out,
        bool(s.get("lowercase")),
        bool(s.get("average_contexts")),
        _training_config(s),
    )
    return 0


def _cmd_train_dlce(args) -> int:
    s = Settings(args)
    stage_train_dlce(
        s.require_path("corpus"),
        s.require_path("vocab"),
        s.require_path("lexicon"),
        s.require_path("lmi"),
        args.out,
        args.context_out,
        bool(s.get("lowercase")),
        bool(s.get("average_contexts")),
        _training_config(s),
    )
    return 0


def _eval_args(args, s: Settings):
    vectors_path, pairs_path = s.require_path("vectors"), s.require_path("pairs")
    return (
        load_vectors(vectors_path, s.path("vocab")),
        vectors_path,
        pairs_path,
        getattr(args, "out", None),
        bool(getattr(args, "json", False)),
        int(s.get("seed")),
    )


def _cmd_eval_ap(args) -> int:
    stage_eval_ap(*_eval_args(args, Settings(args)))
    return 0


def _cmd_eval_auc(args) -> int:
    stage_eval_auc(*_eval_args(args, Settings(args)))
    return 0


def _cmd_eval_spearman(args) -> int:
    stage_eval_spearman(*_eval_args(args, Settings(args)))
    return 0


def _cmd_report_medians(args) -> int:
    stage_report_medians(*_eval_args(args, Settings(args)))
    return 0


def _cmd_pipeline(args) -> int:
    s = Settings(args)
    corpus = s.require_path("corpus")
    lexicon = s.require_path("lexicon")
    pairs = s.path("pairs")
    simpairs = s.path("simpairs")
    _require_files(corpus, lexicon, pairs, simpairs)
    workdir = Path(args.workdir if args.workdir is not None else s.file_config.get("workdir", "pipeline-out"))
    workdir.mkdir(parents=True, exist_ok=True)

    seed = int(s.get("seed"))
    lowercase = bool(s.get("lowercase"))
    cfg = _training_config(s)

    vocab_p = str(workdir / "vocab.tsv")
    counts_p = str(workdir / "counts.tsv")
    lmi_p = str(workdir / "lmi.tsv")
    sa_p = str(workdir / "sa.tsv")

    stage_vocab(corpus, vocab_p, lowercase, int(s.get("min_count")), seed)
    stage_count(corpus, vocab_p, counts_p, lowercase, int(s.get("window")), bool(s.get("dynamic_window")), seed)
    stage_lmi(counts_p, lmi_p, vocab_p, seed)
    stage_weight_sa(lmi_p, lexicon, vocab_p, sa_p, str(s.get("ant_mean")), bool(s.get("fallback_lmi")), seed)

    svd_dim = int(s.get("svd_dim"))
    svd_mode = str(s.get("svd_mode"))
    sigma_exponent = float(s.get("sigma_exponent"))
    vector_sets: dict[str, str] = {}
    for name, weights_path in (("lmi_svd", lmi_p), ("sa_svd", sa_p)):
        out = str(workdir / f"{name}.txt")
        stage_svd(weights_path, vocab_p, out, svd_dim, svd_mode, sigma_exponent, seed)
        vector_sets[name] = out

    sgns_p = str(workdir / "sgns.txt")
    dlce_p = str(workdir / "dlce.txt")
    average_contexts = bool(s.get("average_contexts"))
    stage_train_sgns(corpus, vocab_p, sgns_p, None, lowercase, average_contexts, cfg)
    stage_train_dlce(corpus, vocab_p, lexicon, lmi_p, dlce_p, None, lowercase, average_contexts, cfg)
    vector_sets["sgns"] = sgns_p
    vector_sets["dlce"] = dlce_p

    if pairs is None and simpairs is None:
        return 0
    for name, path in vector_sets.items():
        vectors = load_vectors(path, vocab_p)  # read once, scored by every eval stage
        if pairs is not None:
            stage_eval_ap(vectors, path, pairs, str(workdir / f"eval_ap_{name}.tsv"), False, seed)
            stage_eval_auc(vectors, path, pairs, str(workdir / f"eval_auc_{name}.tsv"), False, seed)
            stage_report_medians(vectors, path, pairs, str(workdir / f"medians_{name}.tsv"), False, seed)
        if simpairs is not None:
            stage_eval_spearman(vectors, path, simpairs, str(workdir / f"spearman_{name}.tsv"), False, seed)
    return 0


# --- parser


def _add_common(sub, *names):
    sub.add_argument("--config", help="flat key=value config file; flags override it")
    sub.add_argument("--seed", type=int, help=f"root random seed (default: {DEFAULTS['seed']})")
    for name in names:
        flag = "--" + name.replace("_", "-")
        if name in _BOOL_KEYS:
            sub.add_argument(flag, action=argparse.BooleanOptionalAction, default=None,
                             help=f"(default: {DEFAULTS[name]})")
        elif name in _INT_KEYS:
            sub.add_argument(flag, type=int, help=f"(default: {DEFAULTS[name]})")
        elif name in _FLOAT_KEYS:
            sub.add_argument(flag, type=float, help=f"(default: {DEFAULTS[name]})")
        else:
            sub.add_argument(flag, help=f"(default: {DEFAULTS[name]})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lexcontrast",
        description="Count-based and embedding pipelines that tell synonyms from antonyms.",
    )
    parser.add_argument("--version", action="version", version=f"lexcontrast {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("vocab", help="build a frequency-filtered vocabulary from a corpus")
    p.add_argument("--corpus", help="one document per line, whitespace tokenized")
    p.add_argument("--out", required=True)
    _add_common(p, "lowercase", "min_count")
    p.set_defaults(func=_cmd_vocab)

    p = subs.add_parser("count", help="count windowed co-occurrences")
    p.add_argument("--corpus")
    p.add_argument("--vocab")
    p.add_argument("--out", required=True)
    _add_common(p, "lowercase", "window", "dynamic_window")
    p.set_defaults(func=_cmd_count)

    p = subs.add_parser("lmi", help="weight a count table by local mutual information")
    p.add_argument("--counts")
    p.add_argument("--vocab", help="optional, validates the id space")
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_lmi)

    p = subs.add_parser("weight-sa", help="re-weight LMI cells by synonym/antonym contrast")
    p.add_argument("--lmi")
    p.add_argument("--lexicon", help="TSV word1<TAB>SYN|ANT<TAB>word2")
    p.add_argument("--vocab")
    p.add_argument("--out", required=True)
    p.add_argument("--ant-mean", choices=("pooled", "per-antonym"),
                   help=f"antonym-term normalizer (default: {DEFAULTS['ant_mean']})")
    _add_common(p, "fallback_lmi")
    p.set_defaults(func=_cmd_weight_sa)

    p = subs.add_parser("svd", help="reduce a weighted matrix to dense vectors")
    p.add_argument("--weights")
    p.add_argument("--vocab")
    p.add_argument("--out", required=True)
    p.add_argument("--svd-mode", choices=("auto", "dense", "randomized"),
                   help=f"(default: {DEFAULTS['svd_mode']})")
    _add_common(p, "svd_dim", "sigma_exponent")
    p.set_defaults(func=_cmd_svd)

    for name, handler, needs_lexicon in (
        ("train-sgns", _cmd_train_sgns, False),
        ("train-dlce", _cmd_train_dlce, True),
    ):
        p = subs.add_parser(name, help=f"{name.replace('-', ' ')} embedding trainer")
        p.add_argument("--corpus")
        p.add_argument("--vocab")
        p.add_argument("--out", required=True)
        p.add_argument("--context-out", help="also write the context matrix")
        if needs_lexicon:
            p.add_argument("--lexicon")
            p.add_argument("--lmi", help="LMI matrix that defines each context's word set")
            _add_common(
                p, "lowercase", "dim", "negatives", "window", "learning_rate", "epochs",
                "subsample", "min_count", "noise_exponent", "threads",
                "average_contexts", "track_objective", "beta", "max_contrast_neighbors",
            )
        else:
            _add_common(
                p, "lowercase", "dim", "negatives", "window", "learning_rate", "epochs",
                "subsample", "min_count", "noise_exponent", "threads",
                "average_contexts", "track_objective",
            )
        p.set_defaults(func=handler)

    for name, handler, pairs_help in (
        ("eval-ap", _cmd_eval_ap, "relation pairs TSV"),
        ("eval-auc", _cmd_eval_auc, "relation pairs TSV"),
        ("eval-spearman", _cmd_eval_spearman, "similarity ratings TSV"),
        ("report-medians", _cmd_report_medians, "relation pairs TSV"),
    ):
        p = subs.add_parser(name, help=f"{name.replace('-', ' ')} over scored word pairs")
        p.add_argument("--vectors", help="dense text vectors or sparse weighted TSV")
        p.add_argument("--vocab", help="needed when --vectors is a sparse weighted TSV")
        p.add_argument("--pairs", help=pairs_help)
        p.add_argument("--out", help="write the report here instead of stdout")
        p.add_argument("--json", action="store_true", help="structured report with OOV lists")
        _add_common(p)
        p.set_defaults(func=handler)

    p = subs.add_parser("pipeline", help="run every stage into a work directory")
    p.add_argument("--corpus")
    p.add_argument("--lexicon")
    p.add_argument("--pairs", help="relation pairs for the eval stages (optional)")
    p.add_argument("--simpairs", help="similarity ratings for eval-spearman (optional)")
    p.add_argument("--workdir", help="output directory (default: pipeline-out)")
    _add_common(
        p, "lowercase", "min_count", "window", "dynamic_window", "dim", "svd_dim",
        "negatives", "learning_rate", "epochs", "subsample", "noise_exponent", "threads",
        "average_contexts", "track_objective", "beta", "max_contrast_neighbors",
        "fallback_lmi", "sigma_exponent",
    )
    p.add_argument("--ant-mean", choices=("pooled", "per-antonym"),
                   help=f"(default: {DEFAULTS['ant_mean']})")
    p.add_argument("--svd-mode", choices=("auto", "dense", "randomized"),
                   help=f"(default: {DEFAULTS['svd_mode']})")
    p.set_defaults(func=_cmd_pipeline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        return _missing_path_error(exc)
    except _ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
