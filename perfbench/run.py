"""Run one benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload train --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the program is imported from `src/`, and
work files go to `.perfbench_work/` there, which the run removes again. With
`--trace 0` the result holds the end-to-end metrics, with `--trace 1` the
per-layer metrics of one traced unit. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
WORKLOADS = ("pipeline", "train", "dense-lexicon")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long the measured units run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (REPO / "src" / "lexcontrast" / "__init__.py").is_file():
        print(f"error: {REPO / 'src' / 'lexcontrast'} not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    sys.path.insert(0, str(REPO / "src"))
    t = time.perf_counter()
    import workloads  # numpy, scipy and the program: part of setup_s

    import_s = time.perf_counter() - t
    scratch = REPO / ".perfbench_work"
    workdir = scratch / f"{args.workload}-{os.getpid()}"
    try:
        result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
