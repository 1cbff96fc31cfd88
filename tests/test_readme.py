"""The README's Library example runs as written, against whichever
`lexcontrast` is importable: the checkout's `src/` in the tier-1 runs, the
installed package when this file is run from outside the checkout."""

import ast
import re
from pathlib import Path

from synthcorpus import build_world, write_world

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    """The python block of the README's `## Library` section."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs(tmp_path, monkeypatch, capsys):
    write_world(build_world(1, sentences=4_000), tmp_path)
    monkeypatch.chdir(tmp_path)
    exec(compile(library_example(), str(README), "exec"), {})
    reports = [ast.literal_eval(line) for line in capsys.readouterr().out.splitlines()]
    assert len(reports) == 2  # the count route's AP report, then dLCE's
    for report in reports:  # every pair of the world's lexicon words is in the vocabulary and scored
        assert report["classes"]
        assert all(c["n_scored"] == c["n_total"] > 0 for c in report["classes"].values())
