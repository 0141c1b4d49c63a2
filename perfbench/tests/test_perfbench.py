"""Self-tests of the benchmark: job lists, workload bands, the gate, the oracle.

Run from the root of the repository:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
SRC = BENCH.parent / "src"
sys.path[:0] = [str(BENCH), str(SRC)]

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from continuants import bounds, cli  # noqa: E402

OTHER_SEEDS = range(1, 13)


def _cli(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_job_list(workload):
    first = workloads.build(workload, 7, 2)
    assert first == workloads.build(workload, 7, 2)
    assert first != workloads.build(workload, 8, 2)


def _shapes(classes):
    return [sorted(shape) for shape, copies in classes for _ in range(copies)]


@pytest.mark.parametrize("seed", OTHER_SEEDS)
def test_census_int64_bands(seed):
    jobs = workloads.build("census-int64", seed, 2)
    assert [sorted(j["counts"]) for j in jobs] == _shapes(workloads.INT64_CLASSES) + [[3, 3, 3, 3]]
    for job in jobs:
        letters, counts = job["letters"], job["counts"]
        assert 3 <= len(letters) <= 5 and set(letters) <= set(range(1, 7))
        assert 5 * 10**4 <= oracle.class_count(counts) <= 4 * 10**5
        assert oracle.continuant(oracle.max_arrangement(letters, counts)) < 2**63


@pytest.mark.parametrize("seed", OTHER_SEEDS)
def test_census_bigint_bands(seed):
    jobs = workloads.build("census-bigint", seed, 2)
    assert [sorted(j["counts"]) for j in jobs] == _shapes(workloads.BIGINT_CLASSES)
    for job in jobs:
        letters, counts = job["letters"], job["counts"]
        assert max(letters) >= 2**16
        assert oracle.class_count(counts) <= 2.5 * 10**5 < workloads.VALUE_BUDGET
        assert oracle.continuant(oracle.max_arrangement(letters, counts)) >= 2**63


@pytest.mark.parametrize("seed", OTHER_SEEDS)
def test_small_classes_bands(seed):
    jobs = workloads.build("small-classes", seed, 2)
    kinds = [job["kind"] for job in jobs]
    assert kinds.count("wmax") == workloads.WMAX_JOBS
    assert kinds.count("explore-budget") == workloads.EXPLORE_BUDGET_JOBS
    assert kinds.count("explore-m-range") == workloads.EXPLORE_M_RANGE_JOBS
    for job in jobs:
        assert set(job["letters"]) <= set(range(1, 7))
        if job["kind"] == "wmax":
            assert 2 <= len(job["letters"]) <= 4 and sum(job["counts"]) <= 10
    # The same multiset of Parikh shapes, hence the same oracle work, at every seed.
    shapes = sorted(tuple(sorted(j["counts"])) for j in jobs if j["kind"] == "wmax")
    assert shapes == sorted(tuple(sorted(j["counts"])) for j in workloads.build("small-classes", 0, 2)
                            if j["kind"] == "wmax")


@pytest.mark.parametrize("seed", OTHER_SEEDS)
def test_bounds_grid_bands(seed):
    jobs = workloads.build("bounds-grid", seed, 2)
    wide = 0
    for job in jobs:
        t, l = job["t"], job["l"]
        assert 1 <= t <= min(3, l) and l <= workloads.L_MAX
        if job["kind"] == "bounds-sm":
            s_min = oracle.smallest_admissible_s(t, l)
            assert s_min <= job["s"] < s_min + workloads.S_OFFSETS
            assert workloads.M_RANGE[0] <= job["m"] <= workloads.M_RANGE[1]
            wide += oracle.bounds_document_too_wide(t, l, job["s"], job["m"])
    assert wide == sum(count for *_, is_wide, count in workloads.S_BANDS if is_wide)


def test_float_thresholds_match_the_certified_search():
    for l in range(1, workloads.L_MAX + 1):
        for t in range(1, min(3, l) + 1):
            assert oracle.density_threshold_s(t, l) == bounds.density_threshold_s(t, l)
            s_min = bounds.smallest_admissible_s(t, l)
            assert oracle.smallest_admissible_s(t, l) == s_min
            for s in range(max(l + 1, s_min - 2), s_min + workloads.S_OFFSETS):
                assert oracle.is_admissible(t, l, s) == bounds.is_admissible(t, l, s)
                for m in range(workloads.M_RANGE[0], workloads.M_RANGE[1] + 1):
                    exact = max(oracle.value_count_upper(s, m), oracle.class_count_lower(t, l, s, m))
                    assert oracle.bounds_document_too_wide(t, l, s, m) == (exact >= 10**4300)
    for s in (2, 17, 111, 301):
        assert oracle.m_threshold(s) == bounds.simplified_bound_threshold(s)


CENSUS_JOB = {"kind": "census", "letters": [1, 2, 3], "counts": [3, 2, 3],
              "argv": ["census", "--alphabet", "1,2,3", "--parikh", "3,2,3", "--format", "json"]}


def test_gate_accepts_real_output():
    gate = oracle.Gate()
    assert gate.check(CENSUS_JOB, 0, _cli(CENSUS_JOB["argv"])) is None
    wmax = {"kind": "wmax", "letters": [1, 3, 4], "counts": [2, 3, 2],
            "argv": ["wmax", "--alphabet", "1,3,4", "--parikh", "2,3,2", "--verify", "--format", "json"]}
    assert gate.check(wmax, 0, _cli(wmax["argv"])) is None
    for job in workloads.build("bounds-grid", 0, 1)[:3]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(job["argv"])
        assert (gate.check(job, code, out.getvalue()) is None) == (code == 0)


def _corrupt(mutate):
    doc = json.loads(_cli(CENSUS_JOB["argv"]))
    mutate(doc)
    return json.dumps(doc)


@pytest.mark.parametrize("mutate", [
    lambda d: d["witnesses"][0].update(value=str(int(d["witnesses"][0]["value"]) + 1)),
    lambda d: d.update(max_value=str(int(d["max_value"]) - 1)),
    lambda d: d["witnesses"][0]["words"].__setitem__(0, "3,3,3,2,2,1,1,1"),  # not canonical
    lambda d: d["witnesses"][0]["words"].__setitem__(0, "1,1,1,2,2,3,3,1"),  # wrong class
    lambda d: d["spectrum"][0].__setitem__(1, d["spectrum"][0][1] + 1),
])
def test_corrupted_census_output_counts_as_failure(mutate):
    text = _corrupt(mutate)
    assert oracle.Gate().check(CENSUS_JOB, 0, text) is not None

    def fake_main(argv):
        print(text, end="")
        return 0

    done = run.Client(fake_main, [CENSUS_JOB]).run_pass()
    assert len(done.failures) == 1 and len(done.incorrect) == 1


def test_nonzero_exit_fails_without_being_incorrect():
    done = run.Client(lambda argv: 2, [CENSUS_JOB]).run_pass()
    assert len(done.failures) == 1 and not done.incorrect


def test_refuses_to_run_without_the_workbench(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bounds-grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout == ""
