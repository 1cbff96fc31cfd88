"""Command-line interface: one subcommand per pipeline stage plus `pipeline`.

One table, STAGES, drives every subcommand: a row names its input path keys
and option keys, and its pure stage function `stage_<name>` maps the loaded
inputs and the options to the result, which the subcommand writes after its
header. `pipeline` chains the same stages in memory (one ranking per vector
set for its three per-class reports), with the bytes of the subcommands.

Every artifact starts with comment lines recording the tool version, the
resolved stage configuration (verbatim and as a sha256), and the root seed.
Randomness flows from that single root seed, salted per stage, so a rerun
with the same config file is byte-identical.

An option comes from its flag, else the config file, else the default, and is checked before any work.
"""

from __future__ import annotations

import argparse
import errno
import hashlib
import json
import sys
from contextlib import ExitStack, nullcontext
from pathlib import Path
from typing import NamedTuple

from . import __version__, corpus, embeddings, evaluation, lexicon, reduction, tsvio, weighting
from .seeding import seed_sequence
from .vectors import DenseEmbeddings, read_embeddings, start_embeddings

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

# the values a string option may take, from a flag or a config file alike
_CHOICES = {"ant_mean": ("pooled", "per-antonym"), "svd_mode": ("auto", "dense", "randomized")}
# lower bounds of numeric options; NaN fails them too
_MINIMUM = {"min_count": 1, "window": 1, "dim": 1, "svd_dim": 1, "negatives": 1, "epochs": 1,
            "seed": 0, "noise_exponent": 0, "beta": 0, "sigma_exponent": 0}
# keys naming input files or the pipeline's output directory; they have no default
_PATH_KEYS = ("corpus", "counts", "lexicon", "lmi", "pairs", "simpairs", "vectors", "vocab", "weights", "workdir")
_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True, "0": False, "false": False, "no": False, "off": False}


def read_config_file(path) -> dict[str, object]:
    """Parse flat `key=value` lines; '#' starts a comment."""
    out: dict[str, object] = {}
    with tsvio.open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            if "=" not in text:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, _, raw = (part.strip() for part in text.partition("="))
            if key not in DEFAULTS and key not in _PATH_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            kind = type(DEFAULTS.get(key, ""))  # the type of the default; paths are strings
            try:
                out[key] = _BOOLEANS[raw.lower()] if kind is bool else kind(raw)
            except (KeyError, ValueError):
                raise ValueError(f"{path}:{lineno}: config key {key}: expected {kind.__name__}, got {raw!r}") from None
    return out


def _resolve(args: argparse.Namespace) -> dict[str, object]:
    """Every path key and option: flag beats config file beats default.

    Values, required inputs and input files are all checked here, so that a
    bad one fails before any input is read or any artifact written.
    """
    config: dict[str, object] = {}
    if args.config is not None:
        _require_files(args.config)
        config = read_config_file(args.config)
    s: dict[str, object] = {}
    for key in (*_PATH_KEYS, *DEFAULTS):
        flag = getattr(args, key, None)
        value = flag if flag is not None else config.get(key, DEFAULTS.get(key))
        if key in _CHOICES and value not in _CHOICES[key]:
            raise ValueError(f"{key} must be one of {', '.join(_CHOICES[key])}, got {value!r}")
        if key in _MINIMUM and not value >= _MINIMUM[key]:
            raise ValueError(f"{key} must be >= {_MINIMUM[key]}, got {value}")
        off = key in ("subsample", "max_contrast_neighbors") and value <= 0  # at or below zero, it is off
        s[key] = None if off else value
    for key in args.row.inputs:
        if not key.endswith("?") and s[key] is None:
            raise ValueError(f"--{key} is required (flag or config file)")
    _require_files(*(s[key] for key in args.row.keys))
    if set(_TRAIN) <= set(args.row.options):  # a row that trains: TrainingConfig checks the rest
        _training_config(s)
    return s


def _stage_seed(root: int, label: str) -> int:
    """Derive one stage's integer seed from the root seed."""
    return int(seed_sequence(root, label).generate_state(1)[0])


def _require_files(*paths) -> None:
    for p in paths:
        if p is not None and not Path(p).is_file():
            raise FileNotFoundError(errno.ENOENT, "input file not found", p)


def _training_config(s: dict) -> embeddings.TrainingConfig:
    same = ("dim", "negatives", "window", "learning_rate", "epochs", "subsample", "min_count",
            "max_contrast_neighbors", "noise_exponent", "seed", "threads", "track_objective")
    return embeddings.TrainingConfig(contrast_coefficient=s["beta"], **{key: s[key] for key in same})


# --- stage functions: loaded inputs in, in the row's input order, then the resolved options


class Report(NamedTuple):
    """An eval stage's result: a table whose first row names the columns, and its JSON form."""

    table: list[list]
    payload: dict
    notes: dict[str, str] = {}  # header lines after the stage's own


def stage_vocab(text, s) -> corpus.Vocabulary:
    return corpus.build_vocabulary(text, s["min_count"])


def stage_count(text, vocab, s) -> corpus.CooccurrenceCounts:
    seed = _stage_seed(s["seed"], "count")
    return corpus.count_cooccurrences(text, vocab, s["window"], dynamic_window=s["dynamic_window"], seed=seed)


def stage_lmi(counts, vocab, s) -> weighting.WeightedMatrix:
    return weighting.compute_lmi(counts, vocab)


def stage_weight_sa(lmi, lex, vocab, s) -> weighting.WeightedMatrix:
    idx = weighting.build_feature_index(lmi)
    return weighting.compute_weight_sa(lmi, idx, lexicon.enrich_antonyms(lex), vocab,
                                       ant_mean=s["ant_mean"], fallback_lmi=s["fallback_lmi"])


def stage_svd(weights, vocab, s) -> tuple[DenseEmbeddings, dict[str, str]]:
    """Reduced row vectors, and the header lines that annotate them."""
    if weights.shape[0] != len(vocab):
        raise reduction.ReductionError("weighted matrix and vocabulary disagree on word count")
    result = reduction.truncated_svd(weights.matrix, s["svd_dim"], mode=s["svd_mode"],
                                     seed=_stage_seed(s["seed"], "svd"), sigma_exponent=s["sigma_exponent"])
    vectors = DenseEmbeddings(list(vocab.words), result.row_vectors, source="svd")
    return vectors, {"effective_rank": str(result.effective_rank), "mode_used": result.mode_used}


def _trained(model, source: str, s) -> tuple[DenseEmbeddings, DenseEmbeddings]:
    """Word vectors, then the context matrix as vectors."""
    words = model.embeddings(source=source, average_contexts=s["average_contexts"])
    return words, DenseEmbeddings(list(model.vocab.words), model.C, source=f"{source}-context")


def stage_train_sgns(text, vocab, s) -> tuple[DenseEmbeddings, DenseEmbeddings]:
    return _trained(embeddings.train_sgns(text, vocab, _training_config(s), progress=sys.stderr), "sgns", s)


def stage_train_dlce(text, vocab, lex, lmi, s) -> tuple[DenseEmbeddings, DenseEmbeddings]:
    idx = weighting.build_feature_index(lmi)
    model = embeddings.train_dlce(text, vocab, _training_config(s), lex, idx, progress=sys.stderr)
    return _trained(model, "dlce", s)


def _class_report(view: evaluation.View, ranked: evaluation.MetricReport) -> Report:
    """The per-class report `view` of `ranked`, a result of `evaluation.rank_classes`."""
    report = view.of(ranked)
    rows = [[name, cm.n_total, cm.n_scored, cm.coverage, *(getattr(cm, f) for f in view.fields)]
            for name, cm in report.classes.items()]
    return Report([["class", "n_total", "n_scored", "coverage", *view.fields], *rows], report.to_json_dict(),
                  view.notes)


def stage_eval_ap(vectors, pairs, s) -> Report:
    return _class_report(evaluation.AP, evaluation.rank_classes(vectors, pairs))


def stage_eval_auc(vectors, pairs, s) -> Report:
    return _class_report(evaluation.AUC, evaluation.rank_classes(vectors, pairs))


def stage_eval_spearman(vectors, pairs, s) -> Report:
    report, n_scored, n_total = evaluation.eval_spearman(vectors, pairs)
    row = [report.spearman, n_scored, n_total, n_scored / n_total if n_total else 0.0]
    payload = {**report.to_json_dict(), "n_scored": n_scored, "n_total": n_total}
    return Report([["spearman", "n_scored", "n_total", "coverage"], row], payload)


def stage_report_medians(vectors, pairs, s) -> Report:
    return _class_report(evaluation.MEDIANS, evaluation.rank_classes(vectors, pairs))


class Stage(NamedTuple):
    """One subcommand, run by `stage_<name>` on its loaded inputs and the options."""

    name: str
    help: str
    inputs: tuple[str, ...]  # path keys, in the stage function's order; "?" marks an optional one
    options: tuple[str, ...] = ()  # DEFAULTS keys; the header records all but track_objective
    flags: tuple[str, ...] = ()  # further flags, neither loaded nor recorded

    @property
    def keys(self) -> tuple[str, ...]:
        return tuple(key.rstrip("?") for key in self.inputs)


_TRAIN = ("lowercase", "dim", "negatives", "window", "learning_rate", "epochs", "subsample",
          "min_count", "noise_exponent", "threads", "average_contexts", "track_objective")
_EVAL = ("vectors", "pairs")
_REPORT = ("vocab", "json")

STAGES = {row.name: row for row in (
    Stage("vocab", "build a frequency-filtered vocabulary from a corpus", ("corpus",), ("lowercase", "min_count")),
    Stage("count", "count windowed co-occurrences", ("corpus", "vocab"), ("lowercase", "window", "dynamic_window")),
    Stage("lmi", "weight a count table by local mutual information", ("counts", "vocab?")),
    Stage("weight-sa", "re-weight LMI cells by synonym/antonym contrast", ("lmi", "lexicon", "vocab"),
          ("ant_mean", "fallback_lmi")),
    Stage("svd", "reduce a weighted matrix to dense vectors", ("weights", "vocab"),
          ("svd_dim", "svd_mode", "sigma_exponent")),
    Stage("train-sgns", "train skip-gram embeddings with negative sampling", ("corpus", "vocab"), _TRAIN,
          ("context_out",)),
    Stage("train-dlce", "train skip-gram embeddings with the lexical-contrast term",
          ("corpus", "vocab", "lexicon", "lmi"), _TRAIN + ("beta", "max_contrast_neighbors"), ("context_out",)),
    Stage("eval-ap", "average precision of SYN and ANT pairs ranked by cosine", _EVAL, flags=_REPORT),
    Stage("eval-auc", "ROC AUC of SYN against ANT pairs by cosine", _EVAL, flags=_REPORT),
    Stage("eval-spearman", "Spearman's rho between cosines and similarity ratings", _EVAL, flags=_REPORT),
    Stage("report-medians", "median cosine of SYN and ANT pairs", _EVAL, flags=_REPORT),
)}
PIPELINE = Stage("pipeline", "run every stage into a work directory", ("corpus", "lexicon", "pairs?", "simpairs?"),
                 tuple(dict.fromkeys(key for row in STAGES.values() for key in row.options)), ("workdir",))

_HELP = {
    "corpus": "one document per line, whitespace tokenized",
    "vocab": "vocabulary TSV (optional for lmi; for the eval stages, needed by sparse --vectors)",
    "lexicon": "TSV word1<TAB>SYN|ANT<TAB>word2",
    "vectors": "dense text vectors or sparse weighted TSV",
    "pairs": "relation pairs TSV (similarity ratings for eval-spearman)",
    "simpairs": "similarity ratings for eval-spearman (optional)",
    "workdir": "output directory (default: pipeline-out)",
    "context_out": "also write the context matrix",
}


def _load(row: Stage, key: str, s: dict):
    """Open one input of a subcommand; the readers resolve at call time, like the stage functions."""
    path = s[key]
    if key == "corpus":
        return corpus.read_corpus(path, lowercase=s["lowercase"])
    if key == "vectors" and "scheme" in tsvio.read_meta(path):  # a sparse weighted matrix, not dense vectors
        if s["vocab"] is None:
            raise evaluation.EvalError("sparse weighted vectors need --vocab for word lookup")
        _require_files(s["vocab"])
        return evaluation.SparseRowTable(weighting.read_weighted(path), corpus.read_vocabulary(s["vocab"]))
    if key == "pairs" and row.name == "eval-spearman":
        return evaluation.load_similarity_pairs(path)
    readers = {"vocab": corpus.read_vocabulary, "counts": corpus.read_counts, "lexicon": lexicon.load_lexicon,
               "pairs": evaluation.load_relation_pairs, "vectors": read_embeddings}
    # lmi and weights: an LMI input's scheme is checked by the feature index its stage builds
    return readers.get(key, weighting.read_weighted)(path)


def _meta(row: Stage, s: dict, suffix: str = "") -> dict[str, str]:
    """Header lines of one artifact: its input paths and options, verbatim and hashed, and the seed."""
    params = {key: s[key] or "" for key in row.keys}
    params.update((key, s[key]) for key in row.options if key != "track_objective")
    serialized = " ".join(f"{k}={params[k]}" for k in sorted(params))
    return {
        "tool": f"lexcontrast {__version__}",
        "stage": row.name + suffix,
        "seed": str(s["seed"]),
        "config_sha256": hashlib.sha256(serialized.encode("utf-8")).hexdigest(),
        "config": serialized,
    }


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def _write(writes: ExitStack, path, result, meta: dict[str, str], as_json: bool = False, last: bool = False) -> None:
    """Write one stage result after its header lines; a report without a path goes to stdout."""
    if isinstance(result, Report):
        meta = {**meta, **result.notes}
        with nullcontext(sys.stdout) if path is None else tsvio.atomic_writer(path) as fh:
            if as_json:
                fh.write(json.dumps({"meta": meta, **result.payload}, indent=2, sort_keys=True) + "\n")
            else:
                tsvio.write_meta(fh, meta)
                fh.writelines("\t".join(map(_fmt, row)) + "\n" for row in result.table)
    elif isinstance(result, tuple):  # SVD vectors and their annotations
        write_embeddings_with_meta(path, result[0], {**meta, **result[1]}, writes, last)
    elif isinstance(result, DenseEmbeddings):
        write_embeddings_with_meta(path, result, meta, writes, last)
    else:
        writers = {corpus.Vocabulary: corpus.write_vocabulary, corpus.CooccurrenceCounts: corpus.write_counts,
                   weighting.WeightedMatrix: weighting.write_weighted}
        writers[type(result)](path, result, meta)


def write_embeddings_with_meta(path, emb: DenseEmbeddings, meta: dict[str, str], writes: ExitStack,
                               last: bool = False) -> None:
    """Hand one vector file to a writer child, which `writes` reaps when it closes.

    `last` marks a command's last vector file: `writes` is closed here, so that
    every writer is reaped before this returns, and the benchmark's tracer, which
    wraps this name, counts the wait for the writers as the vector writing it is.
    """
    writes.callback(start_embeddings(path, emb, meta).wait)
    if last:
        writes.close()


def run_stage(args: argparse.Namespace) -> None:
    """One subcommand: resolve the options, load the inputs, run the stage, write its result."""
    row, s = args.row, _resolve(args)
    outs = [out for out in (args.out, getattr(args, "context_out", None)) if out is not None]
    for out in outs:  # a bad output path fails before the work
        if not Path(out).parent.is_dir():
            raise FileNotFoundError(errno.ENOENT, "output directory not found", str(Path(out).parent))
        if Path(out).is_dir():
            raise IsADirectoryError(errno.EISDIR, "Is a directory", out)
    if len({Path(out).resolve() for out in outs}) < len(outs):
        raise ValueError(f"--out and --context-out name the same file: {outs[1]}")
    # looked up at call time, so that a wrapper set on the module attribute is the one called
    stage = globals()["stage_" + row.name.replace("-", "_")]
    result = stage(*(None if s[key] is None else _load(row, key, s) for key in row.keys), s)
    with ExitStack() as writes:
        if "context_out" in row.flags:
            _write(writes, args.out, result[0], _meta(row, s))
            if args.context_out:
                _write(writes, args.context_out, result[1], _meta(row, s, "-context"))
        else:
            _write(writes, args.out, result, _meta(row, s), getattr(args, "json", False))


def run_pipeline(args: argparse.Namespace) -> None:
    """Every stage, chained in memory; each artifact is written as it comes, under its subcommand's header.

    The corpus is read and encoded once; the vocabulary, the counts and both trainers take that `Corpus`.
    The four vector files are formatted by writer children while the stages go on; the last one's
    write reaps them all, and each is renamed into place once its child has exited 0.
    """
    s = _resolve(args)
    workdir = Path(s["workdir"] or "pipeline-out")
    workdir.mkdir(parents=True, exist_ok=True)
    paths = {**s, **{key: str(workdir / f"{key}.tsv") for key in ("vocab", "counts", "lmi")}}

    writes = ExitStack()  # entered below: every vector writer is reaped before this returns, also on failure

    def save(stage: str, result, name: str, last: bool = False, **inputs) -> None:
        _write(writes, str(workdir / name), result, _meta(STAGES[stage], {**paths, **inputs}), last=last)

    relation = None if s["pairs"] is None else evaluation.load_relation_pairs(s["pairs"])
    similarity = None if s["simpairs"] is None else evaluation.load_similarity_pairs(s["simpairs"])

    def score(name: str, vectors) -> None:
        """The reports of one vector set; its relation pairs are scored and ranked once for all three."""
        at = str(workdir / f"{name}.txt")
        if relation is not None:
            ranked = evaluation.rank_classes(vectors, relation)
            for stage, view, prefix in (("eval-ap", evaluation.AP, "eval_ap"), ("eval-auc", evaluation.AUC, "eval_auc"),
                                        ("report-medians", evaluation.MEDIANS, "medians")):
                save(stage, _class_report(view, ranked), f"{prefix}_{name}.tsv", vectors=at)
        if similarity is not None:
            save("eval-spearman", stage_eval_spearman(vectors, similarity, s), f"spearman_{name}.tsv",
                 vectors=at, pairs=s["simpairs"])

    with writes:
        text = corpus.read_corpus(s["corpus"], lowercase=s["lowercase"])
        vocab = stage_vocab(text, s)
        if not len(vocab):  # before any artifact is written
            raise corpus.CorpusError(f"empty vocabulary: no word occurs min_count={s['min_count']} times")
        save("vocab", vocab, "vocab.tsv")
        counts = stage_count(text, vocab, s)
        save("count", counts, "counts.tsv")
        lmi = stage_lmi(counts, vocab, s)
        del counts
        save("lmi", lmi, "lmi.tsv")
        lex = lexicon.load_lexicon(s["lexicon"])
        sa = stage_weight_sa(lmi, lex, vocab, s)
        save("weight-sa", sa, "sa.tsv")
        for name, weights, source in (("lmi_svd", lmi, "lmi.tsv"), ("sa_svd", sa, "sa.tsv")):
            reduced = stage_svd(weights, vocab, s)
            save("svd", reduced, f"{name}.txt", weights=str(workdir / source))
            score(name, reduced[0])
            del reduced, weights  # each vector set goes once scored
        del sa

        vectors = stage_train_sgns(text, vocab, s)[0]
        save("train-sgns", vectors, "sgns.txt")
        score("sgns", vectors)
        del vectors
        vectors = stage_train_dlce(text, vocab, lex, lmi, s)[0]
        score("dlce", vectors)  # before the save, whose wait for the writers ends the run
        save("train-dlce", vectors, "dlce.txt", last=True)


# --- parser


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lexcontrast",
        description="Count-based and embedding pipelines that tell synonyms from antonyms.",
    )
    parser.add_argument("--version", action="version", version=f"lexcontrast {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    for row in (*STAGES.values(), PIPELINE):
        p = subs.add_parser(row.name, help=row.help)
        for key in row.keys + row.flags:
            if key == "json":
                p.add_argument("--json", action="store_true", help="structured report with OOV lists")
            else:
                p.add_argument(_flag(key), help=_HELP.get(key))
        if row is not PIPELINE:
            p.add_argument("--out", required="json" not in row.flags,
                           help="write the report here instead of stdout" if "json" in row.flags else None)
        p.add_argument("--config", help="flat key=value config file; flags override it")
        for key in ("seed", *row.options):
            kind, default = type(DEFAULTS[key]), f"(default: {DEFAULTS[key]})"
            if kind is bool:
                p.add_argument(_flag(key), action=argparse.BooleanOptionalAction, default=None, help=default)
            else:
                p.add_argument(_flag(key), type=None if kind is str else kind, choices=_CHOICES.get(key),
                               help=default)
        p.set_defaults(run=run_pipeline if row is PIPELINE else run_stage, row=row)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.run(args)
    except OSError as exc:  # a file or directory: exit 2 when it is missing
        target = exc.filename2 or exc.filename  # os.replace's target is the second name
        print(f"error: {exc.strerror}: {target}" if target else f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, FileNotFoundError) else 1
    except ValueError as exc:  # every error type of the package is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
