"""Toy-size smoke test of the benchmark itself.

    python3 -m pytest perfbench

Every workload named in BENCHMARK.json runs once untraced and once traced on
a toy world. Each must emit every metric BENCHMARK.json lists, with its
unit, and pass its own output checks; the traced self times must add up to
the traced wall.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path[:0] = [str(REPO / "src"), str(HERE)]

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
TOY = {
    "pipeline": {"world": dict(n_concepts=20, sentences=3_000)},
    "train": {"world": dict(sentences=1_500), "prefix": 600},
    "dense-lexicon": {"world": dict(n_concepts=6, pole_size=10, n_themes=40, theme_tokens=8,
                                    sentences=3_000), "slice": 300},
}


@pytest.fixture(autouse=True)
def few_repeats(monkeypatch):
    monkeypatch.setattr(workloads, "SETUP_REPS", 1)
    monkeypatch.setattr(workloads, "PROBES", 1)


def _run(name: str, trace: bool, tmp_path: Path) -> dict:
    result = workloads.run(name, 3, 0.01, trace, tmp_path / "work", sizes=TOY[name])
    json.dumps(result)  # the harness prints it as JSON
    assert result["correct"], result
    assert result["attempted"] >= 1 and result["failed"] == 0
    return result["metrics"]


def _assert_emitted(metrics: dict, section: str) -> None:
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    for name, entry in metrics.items():
        assert isinstance(entry["value"], (int, float)), name


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_end_to_end_metrics(name, tmp_path):
    metrics = _run(name, False, tmp_path)
    _assert_emitted(metrics, "end_to_end")
    for m in SPEC["end_to_end"]:
        assert metrics[m["name"]]["value"] > 0, m["name"]


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_per_layer_metrics(name, tmp_path):
    metrics = _run(name, True, tmp_path)
    _assert_emitted(metrics, "per_layer")
    value = {k: v["value"] for k, v in metrics.items()}
    shares = [value[f"{span}.share"] for span in tracing.span_names()] + [value["bench.self_share"]]
    assert sum(shares) == pytest.approx(1.0, abs=1e-9)
    assert value["bench.self_share"] < 0.05  # wrappers, observers and glue code
    assert value["trace.wall_s"] > 0 and value["trace.untraced_wall_s"] > 0


def test_pipeline_waste_counts(tmp_path):
    value = {k: v["value"] for k, v in _run("pipeline", True, tmp_path).items()}
    assert value["corpus.read_corpus.calls"] == 4
    assert value["vectors.read_embeddings.calls"] == 16
    assert value["vectors.files_read"] == 4
    assert value["evaluation.rescore_factor"] == 3.0
    assert value["cli.artifacts"] == workloads.ARTIFACTS


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
