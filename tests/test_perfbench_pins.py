"""Every `lexcontrast` name that the benchmark pins still resolves.

`perfbench/` wraps the functions that `tracing.TRACED` lists and calls or
imports program names from `workloads.py`, `world.py` and `tracing.py`. A
name removed from the program fails only the benchmark's own run, so these
tests read those files with `ast`, without importing or running them, and
look each name up in the package.
"""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
USERS = ("workloads.py", "world.py", "tracing.py")


def _tree(name: str) -> ast.Module:
    return ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))


def traced_names() -> list[str]:
    """"module.function" of each (module, function) pair in tracing.py's TRACED."""
    for node in _tree("tracing.py").body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TRACED" for t in node.targets):
            return [f"{module}.{function}" for module, function in ast.literal_eval(node.value)]
    raise AssertionError("perfbench/tracing.py assigns no TRACED")


def used_names(name: str) -> set[str]:
    """"module" or "module.name" of each `lexcontrast` module and name that
    the file imports, and of each attribute it reads off such a module."""
    aliases, names = {}, set()
    tree = _tree(name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.name.removeprefix("lexcontrast.") for a in node.names if a.name.startswith("lexcontrast."))
        elif isinstance(node, ast.ImportFrom) and node.module == "lexcontrast":
            for a in node.names:
                aliases[a.asname or a.name] = a.name
                names.add(a.name)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("lexcontrast."):
            names.update(f"{node.module.removeprefix('lexcontrast.')}.{a.name}" for a in node.names)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
            names.add(f"{aliases[node.value.id]}.{node.attr}")
    return names


PINS = ({pin: f"perfbench/{user}" for user in USERS for pin in used_names(user)}
        | {pin: "perfbench/tracing.py's TRACED" for pin in traced_names()})


def test_every_file_pins_names():
    # a parser that found nothing would pass every pin below vacuously
    assert {"reduction.truncated_svd", "embeddings.train_dlce", "cli.stage_svd"} <= set(traced_names())
    assert {"reduction.truncated_svd", "embeddings.TrainingConfig", "cli.main"} <= used_names("workloads.py")
    assert {"lexicon.enrich_antonyms", "evaluation.RelationPairSet"} <= used_names("world.py")


@pytest.mark.parametrize("pin", sorted(PINS))
def test_pinned_name_resolves(pin):
    module, _, attr = pin.partition(".")
    found = importlib.import_module(f"lexcontrast.{module}")
    assert not attr or hasattr(found, attr), f"{PINS[pin]} pins lexcontrast.{pin}, which is gone"
