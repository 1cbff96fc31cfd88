"""Command-line interface: one subcommand per pipeline stage plus `pipeline`.

One table, STAGES, drives every subcommand: a row names its input path keys
and option keys, and its pure stage function `stage_<name>` maps the loaded
inputs and the options to the result, which the subcommand writes after its
header. `pipeline` chains the same stages in memory (one ranking per vector
set for its three per-class reports), with the bytes of the subcommands.

Both run their outputs through one `Run`: it checks every output path before any input is read, writes each
result under its header, and holds the writer children that format vector files. Each save first polls them, so
a failed writer stops the command at the next save; the save of the last output reaps them all, and so does
leaving the run on failure. A failed write names its file, and one error names every failure of a command.

Every artifact starts with comment lines recording the tool version, the resolved stage configuration (verbatim
and as a sha256), and the root seed. Randomness flows from that single root seed, salted per stage, so a rerun
with the same config file is byte-identical. Importing this module sets OPENBLAS_NUM_THREADS to 1 unless it is
set, for the process and its children, so the SVD's bytes do not depend on the host's core count.

An option comes from its flag, else the config file, else the default. The training options are the fields of
`TrainingConfig`, which states their names, defaults and bounds (a None default is 0 here, "off"); the others are
this module's own. Every command checks every option before any work, and numpy and scipy load only after that:
`--version`, `--help`, and every refusal of an option, a config file, an input that is missing or an output that
clashes, exit before `_bind` imports the stage modules.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import hashlib
import json
import math
import os
import signal
import sys
import threading
import warnings
from contextlib import nullcontext
from pathlib import Path
from typing import NamedTuple

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before anything loads numpy; a value already set wins
from . import __version__, tsvio
from .config import TrainingConfig

DEFAULTS: dict[str, object] = {
    "lowercase": True,
    "dynamic_window": False,
    "svd_dim": 100,
    "ant_mean": "pooled",
    "fallback_lmi": False,
    "svd_mode": "auto",
    "sigma_exponent": 1.0,
    "average_contexts": False,
    # the training options are TrainingConfig's fields, a None default written as 0, "off"
    **{f.name: 0 if f.default is None else f.default for f in dataclasses.fields(TrainingConfig)},
}

# the values a string option may take, from a flag or a config file alike
_CHOICES = {"ant_mean": ("pooled", "per-antonym"), "svd_mode": ("auto", "dense", "randomized")}
# lower bounds that TrainingConfig does not state in these words, checked once a float option is known to be
# finite: the SVD options, and the two training options whose 0 reaches it as None
_MINIMUM = {"svd_dim": 1, "sigma_exponent": 0, "subsample": 0, "max_contrast_neighbors": 0}
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
            if key in out:  # the last value would win unseen
                raise ValueError(f"{path}:{lineno}: repeated config key {key!r}")
            kind = type(DEFAULTS.get(key, ""))  # the type of the default; paths are strings
            try:
                out[key] = _BOOLEANS[raw.lower()] if kind is bool else kind(raw)
            except (KeyError, ValueError):
                raise ValueError(f"{path}:{lineno}: config key {key}: expected {kind.__name__}, got {raw!r}") from None
    return out


def _resolve(args: argparse.Namespace) -> dict[str, object]:
    """Every path key and option: flag beats config file beats default.

    Values (the training options by the TrainingConfig that every command
    builds), required inputs and input files are all checked here, so that a
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
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{key} must be finite, got {value}")
        if key in _MINIMUM and not value >= _MINIMUM[key]:
            raise ValueError(f"{key} must be >= {_MINIMUM[key]}, got {value}")
        off = key in ("subsample", "max_contrast_neighbors") and value == 0  # 0 switches it off
        s[key] = None if off else value
    _training_config(s)
    for key in args.row.inputs:
        if not key.endswith("?") and s[key] is None:
            raise ValueError(f"--{key} is required (flag or config file)")
    _require_files(*(s[key] for key in args.row.keys))
    return s


def _stage_seed(root: int, label: str) -> int:
    """Derive one stage's integer seed from the root seed."""
    return int(seed_sequence(root, label).generate_state(1)[0])


def _require_files(*paths) -> None:
    for p in paths:
        if p is not None and not Path(p).is_file():
            raise FileNotFoundError(errno.ENOENT, "input file not found", p)


def _training_config(s: dict) -> TrainingConfig:
    return TrainingConfig(**{f.name: s[f.name] for f in dataclasses.fields(TrainingConfig)})


def _bind() -> None:
    """Import the stage modules, and so numpy, into this module. Every command calls this once its options and
    outputs are checked; a stand-in set on a stage module's attribute before then is the one the command calls."""
    global corpus, embeddings, evaluation, lexicon, reduction, weighting, \
        seed_sequence, DenseEmbeddings, VectorsError, read_embeddings, start_embeddings
    from . import corpus, embeddings, evaluation, lexicon, reduction, weighting
    from .seeding import seed_sequence
    from .vectors import DenseEmbeddings, VectorsError, read_embeddings, start_embeddings


# --- stage functions: loaded inputs in, in the row's input order, then the resolved options


class Report(NamedTuple):
    """An eval stage's result: a table whose first row names the columns, and its JSON form."""

    table: list[list]
    payload: dict
    notes: dict[str, str] = {}  # header lines after the stage's own
    warned: tuple[str, ...] = ()  # the stage's warnings, which `Run.save` issues under the report's path


def _warned(make, *args) -> tuple[object, tuple[str, ...]]:
    """`make(*args)`, and the texts of the warnings it issued, held back for `Run.save`."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        return make(*args), tuple(str(w.message) for w in caught)


def stage_vocab(text, s) -> corpus.Vocabulary:
    return corpus.build_vocabulary(text, s["min_count"])


def stage_count(text, vocab, s) -> corpus.CooccurrenceCounts:
    seed = _stage_seed(s["seed"], "count")
    return corpus.count_cooccurrences(text, vocab, s["window"], dynamic_window=s["dynamic_window"], seed=seed)


def stage_lmi(counts, vocab, s) -> weighting.WeightedMatrix:
    return weighting.compute_lmi(counts, vocab)


def stage_weight_sa(lmi, lex, vocab, s) -> weighting.WeightedMatrix:
    idx = weighting.build_feature_index(lmi)
    return weighting.compute_weight_sa(lmi, idx, lex, vocab, ant_mean=s["ant_mean"], fallback_lmi=s["fallback_lmi"])


def stage_svd(weights, vocab, s) -> tuple[DenseEmbeddings, dict[str, str]]:
    """Reduced row vectors, and the header lines that annotate them."""
    vocab.check_rows(f"the {weights.scheme} matrix", weights.shape, reduction.ReductionError)
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
    report, warned = _warned(view.of, ranked)
    rows = [[name, cm.n_total, cm.n_scored, cm.coverage, *(getattr(cm, f) for f in view.fields)]
            for name, cm in report.classes.items()]
    return Report([["class", "n_total", "n_scored", "coverage", *view.fields], *rows], report.to_json_dict(),
                  view.notes, warned)


def stage_eval_ap(vectors, pairs, s) -> Report:
    return _class_report(evaluation.AP, evaluation.rank_classes(vectors, pairs))


def stage_eval_auc(vectors, pairs, s) -> Report:
    return _class_report(evaluation.AUC, evaluation.rank_classes(vectors, pairs))


def stage_eval_spearman(vectors, pairs, s) -> Report:
    (report, n_scored, n_total), warned = _warned(evaluation.eval_spearman, vectors, pairs)
    row = [report.spearman, n_scored, n_total, n_scored / n_total if n_total else 0.0]
    payload = {**report.to_json_dict(), "n_scored": n_scored, "n_total": n_total}
    return Report([["spearman", "n_scored", "n_total", "coverage"], row], payload, {}, warned)


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
    """Open one input of a command; the readers resolve at call time, like the stage functions."""
    path = s[key]
    if key == "corpus":
        return corpus.read_corpus(path, lowercase=s["lowercase"])
    if key == "vectors" and "scheme" in tsvio.read_meta(path):  # a sparse weighted matrix, not dense vectors
        if s["vocab"] is None:
            raise evaluation.EvalError("sparse weighted vectors need --vocab for word lookup")
        _require_files(s["vocab"])
        return evaluation.SparseRowTable(weighting.read_weighted(path), corpus.read_vocabulary(s["vocab"]))
    key = "simpairs" if key == "pairs" and row.name == "eval-spearman" else key  # its pairs are ratings
    readers = {"vocab": corpus.read_vocabulary, "counts": corpus.read_counts, "lexicon": lexicon.load_lexicon,
               "pairs": evaluation.load_relation_pairs, "simpairs": evaluation.load_similarity_pairs,
               "vectors": read_embeddings}
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


def _message(exc: BaseException) -> str:
    """An error as `main` reports it: an OS error by its reason and the path it concerns, if it names one."""
    target = getattr(exc, "filename2", None) or getattr(exc, "filename", None)  # os.replace's target is the second
    return f"{exc.strerror}: {target}" if target else str(exc)


class Run:
    """The outputs of one command, `outputs` (name: path, None for stdout): checked as it is built, then written
    by `save`, each under its header; the writer children of its vector files are reaped by `reap`."""

    def __init__(self, args: argparse.Namespace, s: dict, outputs: dict[str, str | None]):
        """Each output must be in a directory (else exit 2), and be no directory, no input of the command (its
        --config file included) and no other output (else exit 1). Then the stage modules are bound."""
        named = {"config": args.config, **{key: s[key] for key in args.row.keys + args.row.flags if key in _PATH_KEYS}}
        inputs = {os.path.realpath(path): _flag(key) for key, path in named.items() if path is not None}
        seen = {}
        for name, out in outputs.items():
            if out is None:  # stdout
                continue
            label = f"artifact {name}" if args.row is PIPELINE else _flag(name)
            if not Path(out).parent.is_dir():
                raise FileNotFoundError(errno.ENOENT, "output directory not found", str(Path(out).parent))
            if os.path.isdir(out):
                raise IsADirectoryError(errno.EISDIR, "Is a directory", out)
            target = os.path.realpath(out)  # the string Path.resolve gives, at less cost per path
            if target in inputs:
                raise ValueError(f"{label} names the {inputs[target]} input: {out}")
            if target in seen:
                raise ValueError(f"{seen[target]} and {label} name the same file: {out}")
            seen[target] = label
        _bind()
        self.args, self.s, self.outputs, self.unsaved, self.pending = args, s, outputs, set(outputs), []

    def __enter__(self) -> Run:
        return self

    def __exit__(self, kind, exc, tb) -> None:
        self.reap(exc)

    def reap(self, exc: BaseException | None = None) -> None:
        """Wait for every writer, each good file renamed into place; if one failed, raise one error that names
        `exc`, the failure that stopped the command, if any, and then every failed writer."""
        failed = []
        while self.pending:
            try:
                self.pending.pop(0).wait()
            except (OSError, ValueError) as err:
                failed.append(err)
        if failed and isinstance(exc, (OSError, ValueError, type(None))):  # a bug or an interrupt stays itself
            raise VectorsError("; ".join(_message(err) for err in (exc, *failed) if err is not None)) from exc

    def save(self, stage: str, name: str, result, suffix: str = "", **inputs) -> None:
        """Write one stage result to the output `name`, under the header of `stage` and the options with `inputs`."""
        for pending in self.pending:
            try:
                pending.poll()
            except VectorsError:
                self.pending.remove(pending)  # reaped by the poll
                raise
        path, meta = self.outputs[name], _meta(STAGES[stage], {**self.s, **inputs}, suffix)
        self.unsaved.discard(name)
        try:
            if isinstance(result, Report):
                for text in result.warned:
                    warnings.warn(text if path is None else f"{path}: {text}", stacklevel=2)
                meta = {**meta, **result.notes}
                with nullcontext(sys.stdout) if path is None else tsvio.atomic_writer(path) as fh:
                    if getattr(self.args, "json", False):
                        fh.write(json.dumps({"meta": meta, **result.payload}, indent=2, sort_keys=True) + "\n")
                    else:
                        tsvio.write_meta(fh, meta)
                        fh.writelines("\t".join(map(_fmt, row)) + "\n" for row in result.table)
            elif isinstance(result, (tuple, DenseEmbeddings)):  # vectors, in a tuple with the SVD's annotations
                emb, notes = result if isinstance(result, tuple) else (result, {})
                write_embeddings_with_meta(path, emb, {**meta, **notes}, self, not self.unsaved)
            else:
                writers = {corpus.Vocabulary: corpus.write_vocabulary, corpus.CooccurrenceCounts: corpus.write_counts,
                           weighting.WeightedMatrix: weighting.write_weighted}
                writers[type(result)](path, result, meta)
        except OSError as exc:  # such as a full disk, which names no file
            if exc.filename is not None:
                raise
            raise OSError(exc.errno, exc.strerror or str(exc), path) from exc


def write_embeddings_with_meta(path, emb: DenseEmbeddings, meta: dict[str, str], run: Run, last: bool = False) -> None:
    """Hand one vector file to a writer child, which `run` reaps.

    `last` marks a command's last output: every writer of `run` is reaped here,
    so that the benchmark's tracer, which wraps this name, counts the wait for
    the writers as the vector writing it is.
    """
    run.pending.append(start_embeddings(path, emb, meta))
    if last:
        run.reap()


def run_stage(args: argparse.Namespace) -> None:
    """One subcommand: resolve the options, check the outputs, load the inputs, run the stage, write its result."""
    row, s = args.row, _resolve(args)
    keys = ("out", "context_out") if getattr(args, "context_out", None) is not None else ("out",)
    with Run(args, s, {key: getattr(args, key) for key in keys}) as run:
        # looked up at call time, so that a wrapper set on the module attribute is the one called
        stage = globals()["stage_" + row.name.replace("-", "_")]
        result = stage(*(None if s[key] is None else _load(row, key, s) for key in row.keys), s)
        parts = result if "context_out" in row.flags else (result,)  # a trainer's words, then its contexts
        for name, part, suffix in zip(keys, parts, ("", "-context")):
            run.save(row.name, name, part, suffix)


def run_pipeline(args: argparse.Namespace) -> None:
    """Every stage, chained in memory; each artifact is written as it comes, under its subcommand's header.

    Every artifact path is checked, as a subcommand checks its --out, before any input is read.
    The corpus is read and encoded once; the vocabulary, the counts and both trainers take that `Corpus`.
    SGNS trains right after the vocabulary, so its refusal of an input that cannot train comes before any
    artifact is written; dLCE trains last, on the LMI table.
    """
    s = _resolve(args)
    workdir = Path(s["workdir"] or "pipeline-out")
    workdir.mkdir(parents=True, exist_ok=True)  # a new one holds nothing that the check below refuses
    sets = ("lmi_svd", "sa_svd", "sgns", "dlce")  # each scored by every report whose pairs are given
    reports = [row for row in (  # stage, view in evaluation (None: rho), file prefix, the pairs read
        ("eval-ap", "AP", "eval_ap", "pairs"), ("eval-auc", "AUC", "eval_auc", "pairs"),
        ("report-medians", "MEDIANS", "medians", "pairs"), ("eval-spearman", None, "spearman", "simpairs"),
    ) if s[row[3]] is not None]
    names = ("vocab.tsv", "counts.tsv", "lmi.tsv", "sa.tsv", *(f"{v}.txt" for v in sets),
             *(f"{prefix}_{v}.tsv" for _, _, prefix, _ in reports for v in sets))
    out = {name: str(workdir / name) for name in names}  # every file of the run
    s.update((key, out[f"{key}.tsv"]) for key in ("vocab", "counts", "lmi"))  # inputs of the later stages
    with Run(args, s, out) as run:
        lex, relation, similarity, text = (None if s[key] is None else _load(PIPELINE, key, s)
                                           for key in ("lexicon", "pairs", "simpairs", "corpus"))

        def score(name: str, vectors) -> None:
            """The reports of one vector set; its relation pairs are scored and ranked once for all three."""
            ranked = None if relation is None else evaluation.rank_classes(vectors, relation)
            for stage, view, prefix, key in reports:
                result = _class_report(getattr(evaluation, view), ranked) if view else stage_eval_spearman(
                    vectors, similarity, s)
                run.save(stage, f"{prefix}_{name}.tsv", result, vectors=out[f"{name}.txt"], pairs=s[key])

        vocab = stage_vocab(text, s)
        vectors = stage_train_sgns(text, vocab, s)[0]  # the trainer's refusal comes before any artifact
        run.save("vocab", "vocab.tsv", vocab)
        run.save("train-sgns", "sgns.txt", vectors)
        score("sgns", vectors)
        del vectors
        counts = stage_count(text, vocab, s)
        run.save("count", "counts.tsv", counts)
        lmi = stage_lmi(counts, vocab, s)
        del counts
        run.save("lmi", "lmi.tsv", lmi)
        sa = stage_weight_sa(lmi, lex, vocab, s)
        run.save("weight-sa", "sa.tsv", sa)
        for name, weights, source in (("lmi_svd", lmi, "lmi.tsv"), ("sa_svd", sa, "sa.tsv")):
            reduced = stage_svd(weights, vocab, s)
            run.save("svd", f"{name}.txt", reduced, weights=out[source])
            score(name, reduced[0])
            del reduced, weights  # each vector set goes once scored
        del sa
        vectors = stage_train_dlce(text, vocab, lex, lmi, s)[0]
        score("dlce", vectors)
        run.save("train-dlce", "dlce.txt", vectors)


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


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    """Run one command. While it runs, SIGTERM unwinds as SIGINT does, so that `Run` reaps its writers, and the
    process exits 143; a handler can be set from the main thread only, so a call from another thread keeps its own."""
    args = build_parser().parse_args(argv)
    handled = threading.current_thread() is threading.main_thread()
    previous = signal.signal(signal.SIGTERM, _terminate) if handled else None
    try:
        args.run(args)
    except (OSError, ValueError) as exc:  # every error type of the package is a ValueError
        print(f"error: {_message(exc)}", file=sys.stderr)
        return 2 if isinstance(exc, FileNotFoundError) else 1  # a missing file or directory
    finally:
        if handled:
            signal.signal(signal.SIGTERM, previous or signal.SIG_DFL)  # None: a handler not set from Python
    return 0


if __name__ == "__main__":
    sys.exit(main())
