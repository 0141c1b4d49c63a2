"""Workbench benchmark: seeded ``continuants`` CLI workloads, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload census-int64 --seed 1 --seconds 30 --trace 0

One closed-loop client issues the workload's jobs back to back, each one a
``continuants.cli.main(argv)`` call in this process with its output captured
and checked.  Passes over the job list repeat for ``--seconds``.  With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1`` it
makes one untraced and one traced pass and reports the per-layer metrics.
Every metric is printed to stderr by name with its unit, with the verdict of
the correctness gate; the last line of stdout is the JSON result, and the run
record (machine facts, counts, spans) goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import layers
import oracle
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
REFERENCE = BENCH / "reference.json"

DEFAULT_SEED = 0
SETUP_REPEATS = 7  # at least, per run
SETUP_PER_PASS = 2
MAX_WORKERS = 2

END_TO_END_UNITS = {
    "wall_s": "s",
    "job_p50_s": "s",
    "job_p90_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

# A fresh interpreter importing the CLI and building the job list: what every
# command of the workload pays before it starts work.
SETUP_CODE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import continuants.cli, workloads; "
    "print(len(workloads.build(sys.argv[3], int(sys.argv[4]), int(sys.argv[5]))))"
)


@dataclass
class Pass:
    wall: float = 0.0
    latencies: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    incorrect: list = field(default_factory=list)


def _invoke(main, argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a crash is a failed job, not the end of the run
        return f"raised {type(exc).__name__}: {exc}"


class Client:
    """One closed-loop client: the next job starts when the previous one returns."""

    def __init__(self, main, jobs, reference=None):
        self.main = main
        self.jobs = jobs
        self.reference = reference or {}
        self.gate = oracle.Gate()
        self.first_digests: list | None = None

    def run_pass(self, tracer=None) -> Pass:
        p = Pass()
        digests = []
        for i, job in enumerate(self.jobs):
            out, err = io.StringIO(), io.StringIO()
            span = tracer.span("cli.main") if tracer else contextlib.nullcontext()
            if tracer:
                tracer.job = i
            start = time.perf_counter()
            with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = _invoke(self.main, job["argv"])
            p.latencies.append(time.perf_counter() - start)
            text = out.getvalue()
            p.outputs.append(text if code == 0 else "")
            digests.append(oracle.digest(text))
            reason = self.gate.check(job, code, text)
            if reason is not None:
                if code != 0:
                    reason += ": " + (err.getvalue().strip().splitlines() or [""])[0]
                p.failures.append(f"job {i} ({job['kind']}): {reason}")
                if code == 0:
                    p.incorrect.append(f"job {i}: {reason}")
            if code == 0 and self.reference.get(str(i), digests[-1]) != digests[-1]:
                p.incorrect.append(f"job {i}: output differs from the recorded reference")
        if self.first_digests is None:
            self.first_digests = digests
        elif digests != self.first_digests:
            p.incorrect.append("output changed between passes")
        p.wall = sum(p.latencies)
        return p


class SetupTimer:
    """Times fresh interpreters that import the CLI and build the job list.

    Samples are spread between the passes, so that a burst of load on the
    machine moves a few of them rather than all.
    """

    def __init__(self, workload: str, seed: int, workers: int, expected_jobs: int):
        self.argv = [sys.executable, "-c", SETUP_CODE, str(SRC), str(BENCH), workload, str(seed), str(workers)]
        self.expected_jobs = expected_jobs
        self.samples: list[float] = []
        self._spawn()  # writes the bytecode caches; not a sample

    def _spawn(self) -> float:
        start = time.perf_counter()
        done = subprocess.run(self.argv, capture_output=True, text=True, timeout=60, check=True)
        elapsed = time.perf_counter() - start
        if int(done.stdout) != self.expected_jobs:
            raise RuntimeError(f"set-up built {done.stdout.strip()} jobs, expected {self.expected_jobs}")
        return elapsed

    def sample(self, n: int) -> None:
        self.samples += [self._spawn() for _ in range(n)]

    def median(self) -> float:
        self.sample(max(0, SETUP_REPEATS - len(self.samples)))
        return statistics.median(self.samples)


def peak_rss_mb() -> tuple[float, float]:
    """Peak RSS of this process and of its largest child (a pool worker or a set-up interpreter), in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return own / 1024, child / 1024


def end_to_end(client: Client, seconds: float, workload: str, seed: int, workers: int):
    setup = SetupTimer(workload, seed, workers, len(client.jobs))
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(client.run_pass())
        setup.sample(SETUP_PER_PASS)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(p.wall for p in passes) / 2 >= seconds:
            break
    rss = peak_rss_mb()
    samples = [x for p in passes for x in p.latencies]
    p90 = statistics.quantiles(samples, n=10)[-1] if len(samples) > 1 else samples[0]
    attempted = len(samples)
    failed = sum(len(p.failures) for p in passes)
    # Each job's median over the passes, summed over the list: one pass's
    # wall time, with every job's figure drawn from the whole run.
    job_medians = [statistics.median(col) for col in zip(*(p.latencies for p in passes))]
    metrics = {
        "wall_s": sum(job_medians),
        "job_p50_s": statistics.median(samples),
        "job_p90_s": p90,
        "setup_s": setup.median(),
        "peak_rss_mb": sum(rss),
        "ok_ratio": 1 - failed / attempted,
    }
    counts = {
        "passes": len(passes),
        "jobs_per_pass": len(client.jobs),
        "latency_samples": attempted,
        "samples_beyond_p90": sum(1 for x in samples if x > p90),
        "setup_samples_s": setup.samples,
        "measured_s": elapsed,
        "peak_rss_self_mb": rss[0],
        "peak_rss_largest_child_mb": rss[1],
    }
    counts["job_median_s"] = job_medians
    return metrics, counts, passes


def _load_workbench():
    """Import the workbench from this checkout's src/, never from anywhere else."""
    if not (SRC / "continuants" / "cli.py").is_file():
        sys.exit(f"perfbench: no workbench sources at {SRC / 'continuants'}")
    sys.path.insert(0, str(SRC))
    import continuants
    import continuants.cli

    if Path(continuants.__file__).resolve().parent != SRC / "continuants":
        sys.exit(f"perfbench: imported continuants from {continuants.__file__}, not from {SRC}")
    return continuants


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="store the output digests of one pass as the default seed's reference")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    pkg = _load_workbench()
    workers = min(MAX_WORKERS, os.cpu_count() or 1)
    jobs = workloads.build(args.workload, args.seed, workers)
    references = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    if args.record_reference:
        if args.seed != DEFAULT_SEED:
            parser.error("references are recorded for the default seed only")
        first = Client(pkg.cli.main, jobs).run_pass()
        references[args.workload] = {
            str(i): oracle.digest(text) for i, text in enumerate(first.outputs) if text
        }
        REFERENCE.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
        print(f"recorded {len(references[args.workload])} digests for {args.workload}", file=sys.stderr)
        return 0
    reference = references.get(args.workload) if args.seed == DEFAULT_SEED else None
    client = Client(pkg.cli.main, jobs, reference)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "workers": workers,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "int_max_str_digits": sys.get_int_max_str_digits(),
        "reference_checked": reference is not None,
    }
    if args.trace:
        reference_client = Client(pkg.cli.main, workloads.reference_jobs(workers))
        metrics, trace_record = layers.traced_run(pkg, client, reference_client, str(SRC), workers)
        units = layers.UNITS
        passes = trace_record.pop("passes")
        measured = passes[1:3]  # the untraced and traced passes; the others are gated only
        record.update(trace_record)
        record["counts"] = {"passes": 2, "jobs_per_pass": len(jobs)}
    else:
        metrics, counts, passes = end_to_end(client, args.seconds, args.workload, args.seed, workers)
        units = END_TO_END_UNITS
        measured = passes
        record["counts"] = counts

    attempted = sum(len(p.latencies) for p in measured)
    failed = sum(len(p.failures) for p in measured)
    incorrect = [msg for p in passes for msg in p.incorrect]
    correct = not incorrect
    record.update({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "failure_kinds": Counter(msg.split(": ", 1)[1] for p in measured for msg in p.failures),
        "incorrect": incorrect[:20],
        "pass_walls_s": [p.wall for p in measured],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    })
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=str) + "\n")

    print(f"{args.workload} seed={args.seed} trace={args.trace} workers={workers} "
          f"passes={len(measured)} jobs/pass={len(jobs)}", file=sys.stderr)
    for name, unit in units.items():
        print(f"  {name:34} {metrics[name]:>14.6g} {unit}", file=sys.stderr)
    print(f"  gate: {'correct' if correct else 'INCORRECT'}, {failed} of {attempted} jobs failed "
          f"(fail_ratio {failed / attempted:.4f})", file=sys.stderr)
    for kind, n in record["failure_kinds"].items():
        print(f"    {n} x {kind}", file=sys.stderr)
    for msg in incorrect[:5]:
        print(f"    incorrect: {msg}", file=sys.stderr)
    print(f"  record: {out.relative_to(ROOT)}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
