"""A seeded robustness probe: subcommands run in process on mutated inputs, and
the contract that every run keeps, whatever the bytes.

Each step copies one file that a subcommand reads, mutates the copy once and
runs the subcommand on it through `cli.main`. The files are a toy world's four
inputs, its config file and the artifacts of one `pipeline` run over them.
Every run:
- exits 0, 1 or 2, and no exception escapes `main`;
- leaves no `*.tmp` file of `tsvio.open_temp` beside its output;
- leaves no output after a nonzero exit;
- after exit 0, writes an output that parses with its own reader.

The test runs one fixed seed. The module's `__main__` sweeps seeds 0 to 19:

    PYTHONPATH=src python tests/test_robustness.py
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import tempfile
import warnings
from collections import Counter
from pathlib import Path

from synthcorpus import build_world, write_world

from lexcontrast import cli, corpus, tsvio, weighting
from lexcontrast.vectors import read_embeddings

SEED, BUDGET = 0, 250  # the test's; each step runs one command

CONFIG = ("min_count=1\nwindow=2\ndim=4\nsvd_dim=2\nnegatives=2\nepochs=1\nsubsample=0\nlearning_rate=0.05\n"
          "seed=7\n")


def _read_report(path: Path, as_json: bool) -> None:
    """An eval report: JSON with its header lines under "meta", or header lines and then a table whose rows all
    have the fields that its first row names."""
    if as_json:
        assert "stage" in json.loads(path.read_text(encoding="utf-8"))["meta"]
        return
    assert "stage" in tsvio.read_meta(path)
    rows = [line.split("\t") for line in path.read_text(encoding="utf-8").splitlines() if not line.startswith("#")]
    assert rows and all(len(row) == len(rows[0]) for row in rows), rows


# each subcommand: its input flags with the file each reads, and the reader of its output (None: a report)
COMMANDS = {
    "vocab": ({"corpus": "corpus.txt"}, corpus.read_vocabulary),
    "count": ({"corpus": "corpus.txt", "vocab": "vocab.tsv"}, corpus.read_counts),
    "lmi": ({"counts": "counts.tsv", "vocab": "vocab.tsv"}, weighting.read_weighted),
    "weight-sa": ({"lmi": "lmi.tsv", "lexicon": "lexicon.tsv", "vocab": "vocab.tsv"}, weighting.read_weighted),
    "svd": ({"weights": "lmi.tsv", "vocab": "vocab.tsv"}, read_embeddings),
    "train-sgns": ({"corpus": "corpus.txt", "vocab": "vocab.tsv"}, read_embeddings),
    "train-dlce": ({"corpus": "corpus.txt", "vocab": "vocab.tsv", "lexicon": "lexicon.tsv", "lmi": "lmi.tsv"},
                   read_embeddings),
    "eval-ap": ({"vectors": "sgns.txt", "pairs": "pairs.tsv"}, None),
    "eval-auc": ({"vectors": "sa.tsv", "vocab": "vocab.tsv", "pairs": "pairs.tsv"}, None),  # sparse vectors
    "eval-spearman": ({"vectors": "lmi_svd.txt", "pairs": "sim.tsv"}, None),
    "report-medians": ({"vectors": "dlce.txt", "pairs": "pairs.tsv"}, None),
}

MUTATIONS = ("truncate", "repeat", "drop", "empty", "header-only", "flip", "tabs", "extra-field", "field")
FIELDS = (b"nan", b"inf", b"-inf", b"1e308", b"-1", b"", b"\x00")  # values a field is replaced by
FLIPS = b"#\t =-9x\n\x00\xff"  # bytes a flipped character becomes; \xff is never UTF-8


def _mutate(data: bytes, kind: str, rng: random.Random) -> bytes:
    """`data` with one mutation of kind `kind` at a place drawn from `rng`."""
    if kind == "truncate":
        return data[:rng.randrange(len(data) + 1)]
    if kind == "flip":
        at = rng.randrange(len(data))
        return data[:at] + bytes([rng.choice(FLIPS)]) + data[at + 1:]
    lines = data.splitlines(keepends=True)
    if kind == "header-only":
        body = next((n for n, line in enumerate(lines) if not line.startswith(b"#")), len(lines))
        return b"".join(lines[:body])
    at = rng.randrange(len(lines))
    line = lines[at].rstrip(b"\n")
    sep = b"=" if line.startswith(b"#") or b"=" in line else b"\t" if b"\t" in line else b" "
    if kind == "repeat":
        lines.insert(at, lines[at])
    elif kind == "drop":
        del lines[at]
    elif kind == "empty":
        lines[at] = b"\n"
    elif kind == "tabs":
        lines[at] = lines[at].replace(b"\t", b" ")
    elif kind == "extra-field":
        lines[at] = line + sep + b"extra\n"
    else:  # one field replaced
        fields = line.split(sep)
        fields[rng.randrange(len(fields))] = rng.choice(FIELDS)
        lines[at] = sep.join(fields) + b"\n"
    return b"".join(lines)


def make_world(root: Path) -> Path:
    """A toy world's four inputs, its config file and the artifacts of one `pipeline` run, in `root`."""
    world = build_world(3, n_concepts=3, pole_size=2, sentences=300, n_mid_pairs=6)
    paths = {**write_world(world, root), "config": root / "run.cfg", "workdir": root}
    paths["simpairs"] = paths.pop("sim")
    paths["config"].write_text(CONFIG)
    with contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["pipeline", *(arg for key, path in paths.items() for arg in (f"--{key}", str(path)))])
    assert code == 0
    return root


def probe(world: Path, root: Path, seed: int, budget: int) -> tuple[list[str], Counter]:
    """Run `budget` mutated commands in directories under `root`: the broken promises, and the exit codes."""
    rng = random.Random(seed)
    failures, codes = [], Counter()
    for step in range(budget):
        command = rng.choice(sorted(COMMANDS))
        inputs, reader = COMMANDS[command]
        files = {**inputs, "config": "run.cfg"}
        key, kind = rng.choice(sorted(files)), rng.choice(MUTATIONS)
        here = root / f"step-{step}"
        here.mkdir(parents=True)
        mutated = here / files[key]
        mutated.write_bytes(_mutate((world / files[key]).read_bytes(), kind, rng))
        out = here / ("out.txt" if reader is read_embeddings else "out.tsv")
        as_json = reader is None and rng.random() < 0.5
        argv = [command, *(arg for flag, name in files.items()
                           for arg in (f"--{flag}", str(mutated if flag == key else world / name))),
                "--out", str(out), *(["--json"] if as_json else [])]
        where = f"seed {seed} step {step}: {command}, {kind} in {files[key]}"
        try:
            with warnings.catch_warnings(), contextlib.redirect_stderr(io.StringIO()) as err:
                warnings.simplefilter("ignore", UserWarning)  # the eval stages' coverage notes
                warnings.simplefilter("ignore", RuntimeWarning)  # numpy's, on values such as 1e308
                code = cli.main(argv)
        except (Exception, SystemExit) as exc:
            failures.append(f"{where}: {exc!r} escaped main")
            continue
        codes[code] += 1
        if code not in (0, 1, 2):
            failures.append(f"{where}: exit {code}")
        if list(here.glob("*.tmp")):
            failures.append(f"{where}: left {sorted(p.name for p in here.glob('*.tmp'))}")
        if code != 0 and out.exists():
            failures.append(f"{where}: exit {code} left its output ({err.getvalue().strip()})")
        if code == 0:
            try:
                reader(out) if reader is not None else _read_report(out, as_json)
            except (Exception, SystemExit) as exc:
                failures.append(f"{where}: its output does not parse: {exc!r}")
    return failures, codes


def test_mutated_inputs_keep_the_exit_contract(tmp_path):
    failures, codes = probe(make_world(tmp_path / "world"), tmp_path / "probe", SEED, BUDGET)
    assert failures == []
    assert codes[0] and codes[1]  # mutations that some commands refuse and some take


if __name__ == "__main__":
    found = []
    with tempfile.TemporaryDirectory() as tmp:
        world = make_world(Path(tmp) / "world")
        for seed in range(20):
            failures, codes = probe(world, Path(tmp) / f"seed-{seed}", seed, BUDGET)
            print(f"seed {seed}: exit codes {dict(sorted(codes.items()))}, {len(failures)} broken", flush=True)
            found += failures
    print(*found, sep="\n")
    sys.exit(1 if found else 0)
