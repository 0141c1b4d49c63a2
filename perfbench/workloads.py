"""Seeded job lists for the four workloads.

A job is one ``continuants`` command line plus the parameters the gate needs
to check its output.  The program sees only ``job["argv"]``.  Each list is
stratified so that another seed changes the inputs but not the amount of work
of each kind, which keeps one seed's figures comparable with another's.
"""

from __future__ import annotations

import itertools
import random

import oracle

WORKLOADS = ("census-int64", "census-bigint", "small-classes", "bounds-grid")

VALUE_BUDGET = 10**6  # the census value-table budget of the workbench

# Census classes per pass as (Parikh vector, copies).  The seed draws the
# letters and the order of the counts, so a class keeps its size N and length
# n (which set its cost) while its values change.  Several copies of one
# vector put the median job latency inside a group of like jobs.
# census-int64: letters from 1..6, always 1, 2 and 3, whose abundance makes
# values collide.
INT64_CLASSES = (((2, 2, 2, 2, 2), 1), ((1, 3, 3, 5), 4))
# The largest table of the pass sets its peak memory and its slowest job, and
# tables of equal N differ several-fold in distinct values; this class is the
# same at every seed (N = 184800, P = 51467: 72 % of its members share a
# value), so those figures compare across seeds.
INT64_ANCHOR = ((1, 2, 3, 4), (3, 3, 3, 3))
# census-bigint: one letter in BIG_LETTERS, which takes the last count, and the
# rest in SMALL_LETTERS, so values are of similar widths and almost never
# collide.
BIGINT_CLASSES = (((2, 6, 6), 1), ((1, 3, 4, 4), 4), ((2, 3, 3, 4), 1))
BIG_LETTERS = (2**16, 2**18)
SMALL_LETTERS = (500, 1000)

# small-classes: wmax --verify jobs from the acceptance sweep's grid, and
# enough explore jobs (one pool per Parikh vector each) to hold the 90th
# percentile of job latency.
WMAX_JOBS = 200
EXPLORE_BUDGET_JOBS = 8
EXPLORE_BUDGET = 500
EXPLORE_M_RANGE_JOBS = 20
EXPLORE_M_END = 6
# bounds-grid: find-admissible jobs, then s/m jobs per band of s as (lowest s,
# highest s, document over the digit limit, jobs).  An s/m job's cost grows
# with s, so the bands fix each seed's work: the cheap find-admissible jobs
# fill the bottom of the latency distribution, the middle of the first band
# holds its median, and the four jobs with s above 150 (a sixth of the list)
# hold its 90th percentile.  The first band is most of the list so that the
# median rests on many samples in a run.
ADMISSIBLE_JOBS = 4
S_BANDS = (
    (52, 55, False, 16),
    (152, 158, False, 2),
    (152, 158, True, 2),
)
L_MAX = 20
S_OFFSETS = 12
M_RANGE = (1, 16)


def _job(kind: str, argv: list, workers: int, **params) -> dict:
    return {"kind": kind, "argv": argv + ["--workers", str(workers), "--format", "json"], **params}


def _text(values) -> str:
    return ",".join(str(v) for v in values)


def _census_job(letters, counts, workers):
    return _job(
        "census",
        ["census", "--alphabet", _text(letters), "--parikh", _text(counts)],
        workers,
        letters=list(letters),
        counts=list(counts),
    )


def _draw_class(rng, shape, draw_letters, accept, keep_last=False):
    while True:
        letters = draw_letters(len(shape))
        counts = list(shape[:-1]) if keep_last else list(shape)
        rng.shuffle(counts)
        counts += [shape[-1]] if keep_last else []
        if accept(letters, counts):
            return letters, counts


def _census_jobs(rng, classes, draw_letters, accept, workers, keep_last=False):
    return [
        _census_job(*_draw_class(rng, shape, draw_letters, accept, keep_last), workers)
        for shape, copies in classes
        for _ in range(copies)
    ]


def census_int64(rng, workers):
    def letters(k):
        return [1, 2, 3] + sorted(rng.sample(range(4, 7), k - 3))

    def fits(letters, counts):
        return oracle.continuant(oracle.max_arrangement(letters, counts)) < oracle.INT64_LIMIT

    return _census_jobs(rng, INT64_CLASSES, letters, fits, workers) + [_census_job(*INT64_ANCHOR, workers)]


def census_bigint(rng, workers):
    def letters(k):
        return sorted(rng.sample(range(*SMALL_LETTERS), k - 1)) + [rng.randint(*BIG_LETTERS)]

    def wide(letters, counts):
        return oracle.continuant(oracle.max_arrangement(letters, counts)) >= oracle.INT64_LIMIT

    return _census_jobs(rng, BIGINT_CLASSES, letters, wide, workers, keep_last=True)


def _criterion_grid():
    """(letters, counts) for every alphabet in 1..6 of 2-4 letters and n <= 10."""
    for size in (2, 3, 4):
        for letters in itertools.combinations(range(1, 7), size):
            for n in range(size, 11):
                for counts in oracle.compositions(n, size):
                    yield letters, counts


def small_classes(rng, workers):
    # Stratify by the sorted counts: members of one stratum enumerate the
    # same number of permutations, so each seed draws the same work.
    strata: dict = {}
    for letters, counts in _criterion_grid():
        strata.setdefault(tuple(sorted(counts)), []).append((letters, counts))
    total = sum(len(v) for v in strata.values())
    keys = sorted(strata)
    quota = {k: WMAX_JOBS * len(strata[k]) // total for k in keys}
    by_remainder = sorted(keys, key=lambda k: (-(WMAX_JOBS * len(strata[k]) % total), k))
    for k in by_remainder[: WMAX_JOBS - sum(quota.values())]:
        quota[k] += 1
    jobs = []
    for k in keys:
        for letters, counts in rng.sample(strata[k], quota[k]):
            jobs.append(_job(
                "wmax",
                ["wmax", "--alphabet", _text(letters), "--parikh", _text(counts), "--verify"],
                workers,
                letters=list(letters),
                counts=list(counts),
            ))
    for _ in range(EXPLORE_BUDGET_JOBS):
        letters = sorted(rng.sample(range(1, 7), 3))
        jobs.append(_job(
            "explore-budget",
            ["explore", "--alphabet", _text(letters), "--budget", str(EXPLORE_BUDGET)],
            workers,
            letters=letters,
            budget=EXPLORE_BUDGET,
            target_mu=2,
        ))
    for _ in range(EXPLORE_M_RANGE_JOBS):
        letters = sorted(rng.sample(range(1, 7), 2))
        jobs.append(_job(
            "explore-m-range",
            ["explore", "--alphabet", _text(letters), "--m-range", f"1..{EXPLORE_M_END}"],
            workers,
            letters=letters,
            m_start=1,
            m_end=EXPLORE_M_END,
        ))
    rng.shuffle(jobs)
    return jobs


def bounds_grid(rng, workers):
    jobs = []
    for _ in range(ADMISSIBLE_JOBS):
        l = rng.randint(1, L_MAX)
        t = rng.randint(1, min(3, l))
        jobs.append(_job(
            "bounds-admissible",
            ["bounds", "--t", str(t), "--l", str(l), "--find-admissible"],
            workers,
            t=t,
            l=l,
        ))
    # Documents over the digit limit exit 2 today; their quota is fixed so
    # that every seed fails the same number of jobs.
    for s_lo, s_hi, wide, count in S_BANDS:
        for _ in range(count):
            while True:
                l = rng.randint(1, L_MAX)
                t = rng.randint(1, min(3, l))
                s = oracle.smallest_admissible_s(t, l) + rng.randrange(S_OFFSETS)
                if not s_lo <= s <= s_hi:
                    continue
                ms = [m for m in range(M_RANGE[0], M_RANGE[1] + 1)
                      if oracle.bounds_document_too_wide(t, l, s, m) == wide]
                if ms:
                    break
            m = rng.choice(ms)
            jobs.append(_job(
                "bounds-sm",
                ["bounds", "--t", str(t), "--l", str(l), "--s", str(s), "--m", str(m)],
                workers,
                t=t,
                l=l,
                s=s,
                m=m,
            ))
    rng.shuffle(jobs)
    return jobs


def reference_jobs(workers: int) -> list[dict]:
    """Five small fixed jobs, one per kind, that enter every layer of the workbench."""
    return [
        _census_job([1, 2, 3], [3, 3, 3], workers),
        _job("wmax", ["wmax", "--alphabet", "1,2,3", "--parikh", "2,2,3", "--verify"], workers,
             letters=[1, 2, 3], counts=[2, 2, 3]),
        _job("explore-budget", ["explore", "--alphabet", "1,2,3", "--budget", "2000"], workers,
             letters=[1, 2, 3], budget=2000, target_mu=2),
        _job("bounds-sm", ["bounds", "--t", "1", "--l", "6", "--s", "36", "--m", "4"], workers,
             t=1, l=6, s=36, m=4),
        _job("bounds-admissible", ["bounds", "--t", "1", "--l", "6", "--find-admissible"], workers,
             t=1, l=6),
    ]


_BUILDERS = {
    "census-int64": census_int64,
    "census-bigint": census_bigint,
    "small-classes": small_classes,
    "bounds-grid": bounds_grid,
}


def build(workload: str, seed: int, workers: int) -> list[dict]:
    """The job list of one workload; the same arguments give the same list."""
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"), workers)
