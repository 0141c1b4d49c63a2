#!/usr/bin/env python3
"""Time the census dispatch: the size gate's crossovers and the CLI end to end.

Every figure is the best of ``--repeats`` fresh ``continuants census``
interpreters, so each one includes interpreter start-up and, on the int64
path, the NumPy import.  Two sections:

* ``gate``: classes of growing size N, run once on each path: ``serial``
  (stdlib loop, size gate forced shut) and ``int64`` (size gate forced
  open, INT64_MIN_CLASSES = 0).  The crossover places INT64_MIN_CLASSES.
* ``cli``: ``census --alphabet 1,2,3,4 --parikh 3,3,3,3 --workers 2`` on the
  checkout's own dispatch, and on ``--baseline-src`` when given.

Usage:
    python scripts/bench_census.py --out BENCH_3.json
    python scripts/bench_census.py --baseline-src ../parent/src --out BENCH_3.json
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# argv: src, mode, census argv...; mode "default" leaves the dispatch alone.
RUNNER = """
import sys
src, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
sys.path.insert(0, src)
from continuants import census, cli
if mode != "default":
    census.INT64_MIN_CLASSES = 10**18 if mode == "serial" else 0
sys.exit(cli.main(argv))
"""

GATE_CLASSES = [
    ("1,2,3", "3,3,3"),
    ("1,2,3", "4,4,3"),
    ("1,2,3", "5,4,3"),
    ("1,2,3", "4,4,4"),
    ("1,2,3,4", "4,3,2,2"),
    ("1,2,3", "5,4,4"),
    ("1,2,3,4,5", "2,2,2,2,2"),
    ("1,2,3", "5,5,4"),
    ("1,2,3,4", "3,3,3,3"),
]
ANCHOR = ("1,2,3,4", "3,3,3,3")


def cli_seconds(src: str, mode: str, letters: str, counts: str, repeats: int) -> float:
    argv = ["census", "--alphabet", letters, "--parikh", counts, "--workers", "2", "--format", "json"]
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", RUNNER, src, mode, *argv], check=True, capture_output=True)
        best = min(best, time.perf_counter() - start)
    return best


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=5, help="fresh interpreters per figure (best taken)")
    ap.add_argument("--baseline-src", default=None, help="src/ directory of another checkout to time too")
    ap.add_argument("--out", default=None, help="write the JSON record here as well as to stdout")
    args = ap.parse_args()

    sys.path.insert(0, str(SRC))
    from continuants import ParikhVector, census

    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None

    record = {
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy_version,
            "platform": platform.platform(),
        },
        "constants": {
            "INT64_MIN_CLASSES": census.INT64_MIN_CLASSES,
            "INT64_CHUNK_ROWS": census.INT64_CHUNK_ROWS,
        },
        "repeats": args.repeats,
        "gate": [],
        "cli": {},
    }
    for letters, counts in GATE_CLASSES:
        n_classes = census.exact_class_count(ParikhVector(tuple(int(c) for c in counts.split(","))))
        row = {"alphabet": letters, "parikh": counts, "N": n_classes}
        for mode in ("serial", "int64"):
            row[f"{mode}_s"] = cli_seconds(str(SRC), mode, letters, counts, args.repeats)
        record["gate"].append(row)
        print(json.dumps(row), file=sys.stderr)

    record["cli"]["census_1234_3333_s"] = cli_seconds(str(SRC), "default", *ANCHOR, args.repeats)
    if args.baseline_src:
        record["cli"]["baseline_census_1234_3333_s"] = cli_seconds(
            str(Path(args.baseline_src).resolve()), "default", *ANCHOR, args.repeats
        )
    text = json.dumps(record, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
