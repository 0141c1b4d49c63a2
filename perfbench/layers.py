"""The traced run: spans at each module boundary and per-layer probes.

Spans are recorded around the public functions one module calls in another
(cli -> library, explorer -> census._value_table, extremal ->
census.multiset_permutations, and the bounds functions the threshold search
calls).  Nothing that is pickled into the census pool is wrapped: the pool's
cost comes from running the same table once with one worker and once with
the pinned worker count.  Layer costs that spans cannot separate are
measured by probes that replay the traced pass's own inputs.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import pickle
import statistics
import subprocess
import sys
import time
from collections import Counter

# Every layer's metrics, in the order BENCHMARK.json lists them, with units.
UNITS = {
    "core.continuant.ns_per_letter": "ns",
    "census.enumerate.s": "s",
    "census.enumerate.perms": "count",
    "census.filter.s": "s",
    "census.filter.kept_ratio": "ratio",
    "census.table.s": "s",
    "census.table.values": "count",
    "census.table.collision_share": "ratio",
    "census.witness.s": "s",
    "census.witness.words": "count",
    "census.witness.useful_ratio": "ratio",
    "census.pool.s": "s",
    "census.pool.speedup": "ratio",
    "census.pool.shards": "count",
    "census.pool.spinups": "count",
    "census.pool.pickled_bytes": "bytes",
    "census.report.s": "s",
    "extremal.oracle.s": "s",
    "extremal.oracle.perms": "count",
    "extremal.build.s": "s",
    "explorer.scan.s": "s",
    "explorer.scan.parikhs": "count",
    "explorer.scan.classes": "count",
    "explorer.table.calls": "count",
    "bounds.density_scan.s": "s",
    "bounds.density_scan.steps": "count",
    "bounds.density_scan.calls": "1/job",
    "bounds.growth.calls": "count",
    "bounds.growth.max_prec_bits": "bits",
    "bounds.m_threshold.s": "s",
    "cli.startup.s": "s",
    "cli.parse.s": "s",
    "cli.emit.s": "s",
    "trace.overhead.s": "s",
}

CORE_WORDS_PER_CLASS = 100_000
STARTUP_REPEATS = 5


class Tracer:
    """Spans and counters kept in memory until the run writes them out."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self.table_calls: list[dict] = []
        self.job = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans) + len(self._stack),
            "parent": self._stack[-1] if self._stack else None,
            "job": self.job,
            "name": name,
            "start": time.perf_counter(),
        }
        self._stack.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
            self.spans.append(record)

    def wrap(self, module, attr: str, name: str, after=None) -> None:
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        self._saved.append((module, attr, fn))
        setattr(module, attr, traced)

    def count_yields(self, module, attr: str, counter: str) -> None:
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            seen = 0
            try:
                for item in fn(*args, **kwargs):
                    seen += 1
                    yield item
            finally:
                self.counts[counter] += seen

        self._saved.append((module, attr, fn))
        setattr(module, attr, counted)

    def restore(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    @contextlib.contextmanager
    def installed(self, pkg):
        """Wrap the module boundaries of the workbench package ``pkg``."""
        census, explorer, extremal, bounds = pkg.census, pkg.explorer, pkg.extremal, pkg.bounds
        counts = self.counts

        def table(caller):
            def after(args, kwargs, result):
                alphabet, parikh = args
                classes, values, words = result
                self.table_calls.append({
                    "caller": caller,
                    "alphabet": alphabet,
                    "parikh": parikh,
                    "words_per_value": kwargs.get("words_per_value", 0),
                    "value_budget": kwargs.get("value_budget", census.DEFAULT_VALUE_BUDGET),
                    "classes": classes,
                    "values": len(values),
                    "words": sum(len(ws) for ws in words.values()),
                })
                if caller == "explorer":
                    counts["explorer.table.calls"] += 1
            return after

        def scanned(args, kwargs, result):
            if isinstance(result, list):  # growing_multiplicity_scan: one class per m
                counts["explorer.scan.parikhs"] += len(result)
                counts["explorer.scan.classes"] += sum(census.exact_class_count(r.parikh) for _, _, r in result)
            elif hasattr(result, "parikhs_scanned"):
                counts["explorer.scan.parikhs"] += result.parikhs_scanned
                counts["explorer.scan.classes"] += result.classes_scanned
            else:  # find_witness: one class
                counts["explorer.scan.parikhs"] += 1
                counts["explorer.scan.classes"] += census.exact_class_count(args[1])

        def density(args, kwargs, result):
            t, l = args[:2]
            counts["bounds.density_scan.steps"] += result - (l - t + 1) + 1

        def growth(args, kwargs, result):
            counts["bounds.growth.calls"] += 1
            counts["bounds.growth.max_prec_bits"] = max(
                counts["bounds.growth.max_prec_bits"], kwargs.get("prec", bounds.DEFAULT_PREC_BITS)
            )

        class CountingPool(census.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                counts["census.pool.spinups"] += 1
                super().__init__(*args, **kwargs)

        try:
            self.wrap(census, "run_census", "census.run_census")
            self.wrap(census, "_value_table", "census._value_table", table("census"))
            self.wrap(explorer, "_value_table", "census._value_table", table("explorer"))
            for attr in ("find_witness", "growing_multiplicity_scan", "exact_multiplicity_scan"):
                self.wrap(explorer, attr, "explorer.scan", scanned)
            self.wrap(extremal, "verify_max_arrangement", "extremal.verify")
            self.wrap(extremal, "max_arrangement", "extremal.build")
            self.wrap(extremal, "brute_force_extrema", "extremal.oracle")
            self.count_yields(extremal, "multiset_permutations", "extremal.oracle.perms")
            self.wrap(bounds, "bounds_report", "bounds.report")
            self.wrap(bounds, "density_threshold_s", "bounds.density_scan", density)
            self.wrap(bounds, "growth_factor", "bounds.growth", growth)
            self.wrap(bounds, "simplified_bound_threshold", "bounds.m_threshold")
            self._saved.append((census, "ProcessPoolExecutor", census.ProcessPoolExecutor))
            census.ProcessPoolExecutor = CountingPool
            yield self
        finally:
            self.restore()

    # -- span arithmetic ---------------------------------------------------

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def self_time(self, name: str) -> float:
        """Time inside ``name`` spans not covered by their child spans."""
        ids = {s["id"] for s in self.spans if s["name"] == name}
        children = sum(s["end"] - s["start"] for s in self.spans if s["parent"] in ids)
        return self.total(name) - children

    def has(self, name: str) -> bool:
        return any(s["name"] == name for s in self.spans)


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - start, result


def _drain(iterator) -> int:
    return sum(1 for _ in iterator)


def _probe_tables(pkg, calls: list[dict], workers: int) -> dict:
    """Replay every recorded value-table call with one knob changed at a time."""
    census, continuant = pkg.census, pkg.core.continuant
    out = Counter()
    for call in calls:
        alphabet, parikh = call["alphabet"], call["parikh"]
        letters, counts = alphabet.letters, parikh.counts
        wpv, budget = call["words_per_value"], call["value_budget"]

        t_perms, perms = _timed(_drain, census.multiset_permutations(letters, counts))
        t_kept, kept = _timed(_drain, census.enumerate_classes(alphabet, parikh))
        t_bare, (classes, values, _) = _timed(
            census._value_table, alphabet, parikh, workers=1, words_per_value=0, value_budget=budget)
        t_words, _ = _timed(
            census._value_table, alphabet, parikh, workers=1, words_per_value=wpv, value_budget=budget)
        t_pool, _ = _timed(
            census._value_table, alphabet, parikh, workers=workers, words_per_value=wpv, value_budget=budget)
        out["enumerate.s"] += t_perms
        out["perms"] += perms
        out["filter.s"] += t_kept - t_perms
        out["kept"] += kept
        out["table.s"] += t_bare
        out["values"] += len(values)
        out["classes"] += classes
        out["witness.s"] += t_words - t_bare
        out["pool.s"] += t_pool - t_words
        out["one_worker.s"] += t_words
        out["pool_workers.s"] += t_pool
        if workers > 1 and parikh.n >= 2:
            for prefix in census._shard_prefixes(letters, counts):
                part = census._scan_shard((letters, counts, prefix, wpv, budget))
                out["pickled_bytes"] += len(pickle.dumps(part))
                out["shards"] += 1

        stride = -(-classes // CORE_WORDS_PER_CLASS)
        words = list(itertools.islice(census.enumerate_classes(alphabet, parikh), 0, None, stride))
        start = time.perf_counter()
        for w in words:
            continuant(w)
        out["continuant.s"] += time.perf_counter() - start
        out["letters"] += len(words) * parikh.n
    return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _report_words(jobs, outputs) -> int:
    """Witness words that made it into the job's printed document."""
    words = 0
    for job, text in zip(jobs, outputs):
        if not text:
            continue
        doc = json.loads(text)
        if job["kind"] == "census":
            words += sum(len(w["words"]) for w in doc["witnesses"])
        elif job["kind"] == "explore-budget":
            words += len(doc["witnesses"])
        elif job["kind"] == "explore-m-range":
            words += len(doc["entries"])
    return words


def _parse_time(cli, jobs) -> float:
    start = time.perf_counter()
    for job in jobs:
        cli.build_parser().parse_args(job["argv"])
    return time.perf_counter() - start


def segment_metrics(pkg, tracer: Tracer, jobs, outputs, workers: int) -> dict:
    """Per-layer figures of one traced pass, grouped by the layer that must run for them."""
    probe = _probe_tables(pkg, tracer.table_calls, workers)
    c = tracer.counts
    kept_words = sum(call["words"] for call in tracer.table_calls)
    bounds_jobs = sum(1 for job in jobs if job["kind"].startswith("bounds"))
    parse = _parse_time(pkg.cli, jobs)
    main_self = tracer.self_time("cli.main")
    return {
        "core": {
            "core.continuant.ns_per_letter": _ratio(probe["continuant.s"] * 1e9, probe["letters"]),
        },
        "census": {
            "census.enumerate.s": probe["enumerate.s"],
            "census.enumerate.perms": probe["perms"],
            "census.filter.s": probe["filter.s"],
            "census.filter.kept_ratio": _ratio(probe["kept"], probe["perms"]),
            "census.table.s": probe["table.s"],
            "census.table.values": probe["values"],
            "census.table.collision_share": 1 - _ratio(probe["values"], probe["classes"]),
            "census.witness.s": probe["witness.s"],
            "census.witness.words": kept_words,
            "census.witness.useful_ratio": _ratio(_report_words(jobs, outputs), kept_words),
            "census.pool.s": probe["pool.s"],
            "census.pool.speedup": _ratio(probe["one_worker.s"], probe["pool_workers.s"]),
            "census.pool.shards": probe["shards"],
            "census.pool.spinups": c["census.pool.spinups"],
            "census.pool.pickled_bytes": probe["pickled_bytes"],
        },
        "census.report": {
            "census.report.s": tracer.self_time("census.run_census"),
        },
        "extremal": {
            "extremal.oracle.s": tracer.total("extremal.oracle"),
            "extremal.oracle.perms": c["extremal.oracle.perms"],
            "extremal.build.s": tracer.total("extremal.build"),
        },
        "explorer": {
            "explorer.scan.s": tracer.total("explorer.scan"),
            "explorer.scan.parikhs": c["explorer.scan.parikhs"],
            "explorer.scan.classes": c["explorer.scan.classes"],
            "explorer.table.calls": c["explorer.table.calls"],
        },
        "bounds": {
            "bounds.density_scan.s": tracer.total("bounds.density_scan"),
            "bounds.density_scan.steps": c["bounds.density_scan.steps"],
            "bounds.density_scan.calls": _ratio(
                sum(1 for s in tracer.spans if s["name"] == "bounds.density_scan"), bounds_jobs),
            "bounds.growth.calls": c["bounds.growth.calls"],
            "bounds.growth.max_prec_bits": c["bounds.growth.max_prec_bits"],
            "bounds.m_threshold.s": tracer.total("bounds.m_threshold"),
        },
        "cli": {
            "cli.parse.s": parse,
            "cli.emit.s": main_self - parse,
        },
    }


# Which span or call shows that a pass entered each layer group.
_ENTERED = {
    "core": lambda tr: bool(tr.table_calls),
    "census": lambda tr: bool(tr.table_calls),
    "census.report": lambda tr: tr.has("census.run_census"),
    "extremal": lambda tr: tr.has("extremal.oracle"),
    "explorer": lambda tr: tr.has("explorer.scan"),
    "bounds": lambda tr: tr.has("bounds.density_scan"),
    "cli": lambda tr: True,
}


def startup_seconds(src: str) -> float:
    """Fresh interpreter importing continuants.cli, minus a bare interpreter."""
    def median_run(code):
        times = []
        for _ in range(STARTUP_REPEATS):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code, src], check=True, timeout=60)
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    bare = median_run("pass")
    return median_run("import sys; sys.path.insert(0, sys.argv[1]); import continuants.cli") - bare


def traced_run(pkg, client, reference_client, src: str, workers: int) -> tuple[dict, dict]:
    """A warm-up, an untraced and a traced pass of the workload, plus the reference jobs.

    A workload that never enters a layer takes that layer's figures from the
    reference jobs instead, so every traced run reports a number for every
    module; the record names the layers that came from there.  Returns
    (per-layer metrics, record) where the record holds the spans.
    """
    warm = client.run_pass()  # first calls into the workbench import and warm up
    untraced = client.run_pass()
    tracer = Tracer()
    with tracer.installed(pkg):
        traced = client.run_pass(tracer)
    groups = segment_metrics(pkg, tracer, client.jobs, traced.outputs, workers)

    ref_tracer = Tracer()
    with ref_tracer.installed(pkg):
        ref_pass = reference_client.run_pass(ref_tracer)
    ref_groups = segment_metrics(pkg, ref_tracer, reference_client.jobs, ref_pass.outputs, workers)

    metrics = {}
    from_reference = []
    for group, entered in _ENTERED.items():
        if entered(tracer):
            metrics.update(groups[group])
        else:
            metrics.update(ref_groups[group])
            from_reference.append(group)
    metrics["cli.startup.s"] = startup_seconds(src)
    metrics["trace.overhead.s"] = traced.wall - untraced.wall
    record = {
        "untraced_wall_s": untraced.wall,
        "traced_wall_s": traced.wall,
        "layers_from_reference_jobs": from_reference,
        "spans": tracer.spans,
        "reference_spans": ref_tracer.spans,
        "passes": [warm, untraced, traced, ref_pass],
    }
    return {name: metrics[name] for name in UNITS}, record
