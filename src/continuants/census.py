"""Abelian-class enumeration and exact continuant-value censuses.

An Abelian class is the set of all rearrangements of a word, with every
word identified with its reversal.  This module enumerates a class exactly
once per reversal pair, evaluates the continuant on every member, and
reports the class size N, the number of distinct values P, the multiplicity
spectrum (how many values are hit exactly mu times), and witnesses.

Enumeration is lexicographic next-multiset-permutation; a permutation is
kept iff it is <= its reversal, which visits each reversal class exactly
once (at its canonical representative, in lexicographic order) without any
seen-set.  Values are keyed by exact integer equality, never by hash alone.

``_members`` is the one stdlib enumerate-and-evaluate kernel: it yields
(w, K(w)) for each canonical member, optionally below a fixed prefix.  Its
three users are the census scan ``_scan_shard``, ``multiplicity_of`` and
the extremal oracle ``extremal.brute_force_extrema``.  ``_class_size`` is
the one enumeration limit gate, which every class-wide routine passes first.

Two kernels compute the value table, both in the calling process, and
``_value_table`` alone picks one from what it sees in its input.  When NumPy
is importable and every value provably fits in int64 (``_fits_int64``),
large classes go to an exact int64 kernel that enumerates all arrangements
breadth-first in prefix chunks of bounded size.  Every other class runs the
stdlib kernel, which is the reference.  Both kernels return identical tables
and witness words.  No path starts a process.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .core import (
    Alphabet,
    CanonicalWord,
    ParikhVector,
    Word,
    abelian_class_of,
    check_aligned,
    continuant,
    format_word,
)

DEFAULT_CLASS_LIMIT = 10**8
DEFAULT_VALUE_BUDGET = 10**6

# Witness retention: the top WITNESS_TOP_K distinct multiplicities, at most
# WITNESS_VALUES_PER_MULT values for each, at most WITNESS_WORDS_PER_VALUE
# words for each value.  Bounded memory, useful diagnostics.
WITNESS_TOP_K = 3
WITNESS_VALUES_PER_MULT = 10
WITNESS_WORDS_PER_VALUE = 10

# Classes with fewer members up to reversal always run on the stdlib loop:
# below it the NumPy import (~80 ms) does not pay for itself.  On a 2-vCPU
# VM the int64 kernel overtook the stdlib loop at 14k-45k members in fresh
# interpreters (BENCH_3.json), and this constant sits inside that band.
INT64_MIN_CLASSES = 40_000

# Arrangements per chunk of the int64 kernel, which bounds its working
# memory whatever the class size.
INT64_CHUNK_ROWS = 1 << 17

INT64_LIMIT = 2**63


class ClassTooLargeError(Exception):
    """The Abelian class exceeds the configured enumeration limit."""

    def __init__(self, class_size: int, limit: int):
        super().__init__(
            f"class has {class_size} members up to reversal, exceeding the limit of {limit}"
        )
        self.class_size = class_size
        self.limit = limit


class ValueBudgetExceededError(Exception):
    """The census value table outgrew its memory budget.

    The attached counters describe partial progress only; they are not
    valid census statistics.
    """

    def __init__(self, distinct_values_seen: int, budget: int, classes_evaluated: int):
        super().__init__(
            f"value table reached {distinct_values_seen} distinct values, exceeding the "
            f"budget of {budget} after {classes_evaluated} classes; partial counts are "
            "not valid statistics"
        )
        self.distinct_values_seen = distinct_values_seen
        self.budget = budget
        self.classes_evaluated = classes_evaluated


def _counts_of(parikh) -> tuple[int, ...]:
    if isinstance(parikh, ParikhVector):
        return parikh.counts
    return ParikhVector(tuple(parikh)).counts


def _multinomial(counts: Sequence[int]) -> int:
    out = math.factorial(sum(counts))
    for p in counts:
        out //= math.factorial(p)
    return out


def exact_class_count(parikh) -> int:
    """Exact number of class members up to reversal: (multinomial + palindromes) / 2.

    The multinomial n!/(p_1! ... p_s!) counts raw permutations; each
    palindromic arrangement is its own reversal, every other one pairs off.
    """
    counts = _counts_of(parikh)
    return (_multinomial(counts) + palindromic_count(counts)) // 2


def palindromic_count(parikh) -> int:
    """Number of palindromic arrangements: 0, or the multinomial of the halved counts."""
    counts = _counts_of(parikh)
    if sum(p % 2 for p in counts) > 1:
        return 0
    return _multinomial([p // 2 for p in counts])


def _class_size(alphabet: Alphabet, parikh: ParikhVector, limit: int) -> int:
    """Exact class size up to reversal; ClassTooLargeError if it exceeds ``limit``."""
    check_aligned(alphabet, parikh)
    size = exact_class_count(parikh)
    if size > limit:
        raise ClassTooLargeError(size, limit)
    return size


def multiset_permutations(letters: Sequence[int], counts: Sequence[int]) -> Iterator[tuple]:
    """All permutations of the multiset {letters[i] x counts[i]}, lex ascending."""
    start = []
    for a, p in zip(letters, counts):
        start.extend([a] * p)
    start.sort()
    return _perms_from(start)


def _perms_from(start: list, lo: int = 0) -> Iterator[tuple]:
    # Lexicographic successor loop on a working list; O(1) amortized extra
    # work per permutation.  The first ``lo`` letters stay fixed.
    w = list(start)
    n = len(w)
    while True:
        yield tuple(w)
        i = n - 2
        while i >= lo and w[i] >= w[i + 1]:
            i -= 1
        if i < lo:
            return
        j = n - 1
        while w[j] <= w[i]:
            j -= 1
        w[i], w[j] = w[j], w[i]
        w[i + 1 :] = w[:i:-1]


def enumerate_classes(
    alphabet: Alphabet,
    parikh: ParikhVector,
    *,
    limit: int = DEFAULT_CLASS_LIMIT,
) -> Iterator[CanonicalWord]:
    """Yield each reversal class of the Abelian class exactly once.

    Palindromes appear once; output is in lexicographic order of the
    canonical representatives.  Raises ClassTooLargeError before yielding
    anything if the class exceeds ``limit``.
    """
    _class_size(alphabet, parikh, limit)

    def gen() -> Iterator[CanonicalWord]:
        for w in multiset_permutations(alphabet.letters, parikh.counts):
            if w <= w[::-1]:
                yield CanonicalWord._trusted(w)

    return gen()


def _members(letters: Sequence[int], counts: Sequence[int], prefix: tuple = ()) -> Iterator[tuple]:
    """Yield (w, K(w)) for each class member w <= reversed(w) starting with ``prefix``.

    Each reversal class arrives once, at its canonical representative, in
    lexicographic order.  K is ``core.continuant``'s recursion without its
    letter check: class letters are already validated.
    """
    rest = list(counts)
    for a in prefix:
        rest[letters.index(a)] -= 1
    tail = sorted(a for a, p in zip(letters, rest) for _ in range(p))
    for w in _perms_from(list(prefix) + tail, len(prefix)):
        if w <= w[::-1]:
            prev, cur = 0, 1
            for a in w:
                prev, cur = cur, a * cur + prev
            yield w, cur


# ---------------------------------------------------------------------------
# Census engine
# ---------------------------------------------------------------------------

def _scan_shard(args) -> tuple[int, dict, dict]:
    """Count continuant values over the class members that start with ``prefix``.

    Returns (classes_seen, value -> count, value -> list of first words).
    Raises ValueBudgetExceededError as soon as the table outgrows
    ``value_budget``; with the empty prefix that is the whole class's table.
    """
    letters, counts, prefix, words_per_value, value_budget = args
    table: dict = {}
    words: dict = {}
    classes = 0
    for w, cur in _members(letters, counts, prefix):
        classes += 1
        seen = table.get(cur)
        if seen is None:
            table[cur] = 1
            if len(table) > value_budget:
                raise ValueBudgetExceededError(len(table), value_budget, classes)
        else:
            table[cur] = seen + 1
        if words_per_value:
            got = words.get(cur)
            if got is None:
                words[cur] = [w]
            elif len(got) < words_per_value:
                got.append(w)
    return classes, table, words


# Unused here; perfbench/layers.py calls it to replay and size a sharded scan.
def _shard_prefixes(letters: tuple, counts: tuple) -> list[tuple]:
    """Distinct two-letter prefixes of class members, in lexicographic order."""
    prefixes = []
    for i, a in enumerate(letters):
        if counts[i] == 0:
            continue
        for j, b in enumerate(letters):
            left = counts[j] - (1 if i == j else 0)
            if left > 0:
                prefixes.append((a, b))
    return prefixes


def _fits_int64(letters: Sequence[int], counts: Sequence[int]) -> bool:
    """True when the rolling loop stays below 2**63 on every arrangement.

    For positive letters continuants never decrease along a word, so
    K_j = a_j K_{j-1} + K_{j-2} <= (a_j + 1) K_{j-1}.  Every product and sum
    the loop forms is therefore at most prod (a_i + 1)^{p_i}, whatever the
    order of the letters.  The proof needs no extremal theorem, so the
    extremal oracle stays independent of the census.
    """
    bound = 1
    for a, p in zip(letters, counts):
        bound *= (a + 1) ** p
    return bound < INT64_LIMIT


def __getattr__(name: str):
    # Unused here; perfbench/layers.py subclasses census.ProcessPoolExecutor to
    # count pool start-ups.  Resolved on first access, because importing it
    # loads multiprocessing (~20 ms and ~2 MB) into every command.
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _numpy():
    """The numpy module, or None where it is not installed."""
    try:
        import numpy
    except ImportError:
        return None
    return numpy


def _value_table(
    alphabet: Alphabet,
    parikh: ParikhVector,
    *,
    workers: int = 1,  # unused; perfbench/layers.py _probe_tables still passes it
    limit: int = DEFAULT_CLASS_LIMIT,
    value_budget: int = DEFAULT_VALUE_BUDGET,
    words_per_value: int = 0,
    witness_values: Callable[[dict], Iterable[int]] | None = None,
) -> tuple[int, dict, dict]:
    """Full census table: (class count, value -> count, value -> first words).

    ``witness_values`` picks, from the finished value table, the values
    whose words are returned, in the order of the returned dict; by default
    every value.  Each gets its first ``words_per_value`` canonical words in
    lexicographic order.  The result is the same for fixed inputs whichever
    kernel runs.

    The kernel is chosen here, from the input alone: classes of at least
    INT64_MIN_CLASSES members whose values fit int64 run the NumPy kernel
    when NumPy imports; the rest run the stdlib loop.
    """
    size = _class_size(alphabet, parikh, limit)
    letters, counts = alphabet.letters, parikh.counts
    if size >= INT64_MIN_CLASSES and _fits_int64(letters, counts):
        np = _numpy()
        if np is not None:
            return _int64_table(np, letters, counts, value_budget, words_per_value, witness_values)

    classes, table, words = _scan_shard((letters, counts, (), words_per_value, value_budget))
    if not words_per_value:
        return classes, table, {}
    wanted = table if witness_values is None else witness_values(table)
    return classes, table, {v: tuple(words[v]) for v in wanted}


# ---------------------------------------------------------------------------
# Exact int64 kernel (optional NumPy)
# ---------------------------------------------------------------------------

def _grow(np, let, state, depth):
    """Extend every prefix by each letter it has left, children in lex order."""
    rem, prev, cur, words = state
    # Row-major flat positions, so children come out (parent, letter)
    # ascending.  np.take is several times faster here than fancy indexing.
    rows, j = np.divmod(np.flatnonzero(rem), len(let))
    rem = np.take(rem, rows, axis=0) - np.take(np.eye(len(let), dtype=np.uint8), j, axis=0)
    words = np.take(words, rows, axis=0)
    words[:, depth] = j
    cur = np.take(cur, rows)
    return rem, cur, let[j] * cur + np.take(prev, rows), words


def _int64_members(np, letters, counts, chunk_rows):
    """Yield (words, values) of the canonical class members, lex ascending.

    ``words`` holds letter indices, one row per member; ``values`` their
    continuants as int64, exact under ``_fits_int64`` (which also keeps n, and
    so every count and index, below 63).  The class is expanded breadth-first
    to the shallowest prefix depth at which no prefix has more than
    ``chunk_rows`` completions; consecutive prefixes are then packed into
    chunks of at most ``chunk_rows`` arrangements and each chunk is expanded
    to full length, so memory does not grow with the class size.
    """
    n = sum(counts)
    let = np.array(letters, dtype=np.int64)
    state = (
        np.array([counts], dtype=np.uint8),
        np.zeros(1, dtype=np.int64),
        np.ones(1, dtype=np.int64),
        np.zeros((1, n), dtype=np.uint8),
    )
    memo: dict = {}

    def completions(rem) -> list[int]:
        out = []
        for r in map(tuple, rem.tolist()):
            if r not in memo:
                memo[r] = _multinomial(r)
            out.append(memo[r])
        return out

    depth = 0
    sizes = completions(state[0])
    while max(sizes) > chunk_rows:
        state = _grow(np, let, state, depth)
        depth += 1
        sizes = completions(state[0])

    cuts = [0]
    total = 0
    for i, size in enumerate(sizes):
        if total + size > chunk_rows:
            cuts.append(i)
            total = 0
        total += size
    cuts.append(len(sizes))

    for lo, hi in zip(cuts, cuts[1:]):
        chunk = tuple(a[lo:hi] for a in state)
        for d in range(depth, n):
            chunk = _grow(np, let, chunk, d)
        words, values = chunk[3], chunk[2]
        # Keep w iff w <= reversed(w), comparing columns from the outside in.
        cols = np.ascontiguousarray(words.T)
        less = np.zeros(len(values), dtype=bool)
        equal = np.ones(len(values), dtype=bool)
        for i in range(n // 2):
            a, b = cols[i], cols[n - 1 - i]
            less |= equal & (a < b)
            equal &= a == b
        keep = less | equal
        yield words[keep], values[keep]


def _merge_counts(np, vals, cnts, new_vals, new_cnts):
    """Union of two sorted (value, count) tables, counts of equal values summed."""
    allv = np.concatenate([vals, new_vals])
    allc = np.concatenate([cnts, new_cnts])
    order = np.argsort(allv, kind="stable")
    allv, allc = allv[order], allc[order]
    starts = np.flatnonzero(np.concatenate([[True], allv[1:] != allv[:-1]]))
    return allv[starts], np.add.reduceat(allc, starts)


def _int64_table(np, letters, counts, value_budget, words_per_value, witness_values):
    """``_value_table`` on the int64 kernel: a counting pass, then a witness pass."""
    vals = np.zeros(0, dtype=np.int64)
    cnts = np.zeros(0, dtype=np.int64)
    classes = 0
    only = None  # the class's chunk while it has just one: the witness pass reuses it
    for i, chunk in enumerate(_int64_members(np, letters, counts, INT64_CHUNK_ROWS)):
        values = chunk[1]
        classes += len(values)
        vals, cnts = _merge_counts(np, vals, cnts, *np.unique(values, return_counts=True))
        if len(vals) > value_budget:
            raise ValueBudgetExceededError(len(vals), value_budget, classes)
        only = chunk if i == 0 else None
    table = dict(zip(vals.tolist(), cnts.tolist()))
    if not words_per_value:
        return classes, table, {}

    found = {v: [] for v in (table if witness_values is None else witness_values(table))}
    missing = sum(min(words_per_value, table[v]) for v in found)
    wanted = np.array(list(found), dtype=np.int64)
    let = np.array(letters, dtype=np.int64)
    chunks = [only] if only is not None else _int64_members(np, letters, counts, INT64_CHUNK_ROWS)
    for words, values in chunks if missing else ():
        hits = np.flatnonzero(np.isin(values, wanted))
        # The first words_per_value hits of each value in this chunk: sort
        # the hits stably by value and rank each within its value.
        order = np.argsort(values[hits], kind="stable")
        hv = values[hits[order]]
        rank = np.arange(len(hv)) - np.searchsorted(hv, hv)
        take = np.sort(hits[order[rank < words_per_value]])
        for v, w in zip(values[take].tolist(), let[words[take]].tolist()):
            got = found[v]
            if len(got) < words_per_value:
                got.append(tuple(w))
                missing -= 1
        if not missing:
            break
    return classes, table, {v: tuple(ws) for v, ws in found.items()}


@dataclass(frozen=True)
class ValueWitnesses:
    """One census value with its multiplicity and some attaining words."""

    value: int
    multiplicity: int
    words: tuple[CanonicalWord, ...]

    def to_json_dict(self) -> dict:
        return {
            "value": str(self.value),
            "multiplicity": self.multiplicity,
            "words": [format_word(w) for w in self.words],
        }


@dataclass(frozen=True)
class CensusReport:
    """Exact census of continuant values over one Abelian class.

    spectrum maps multiplicity mu -> number of distinct values attained
    exactly mu times, stored as (mu, count) pairs in increasing mu.
    """

    alphabet: Alphabet
    parikh: ParikhVector
    class_size: int
    distinct_values: int
    spectrum: tuple[tuple[int, int], ...]
    max_multiplicity: int
    max_value: int
    min_value: int
    witnesses: tuple[ValueWitnesses, ...]

    def __post_init__(self) -> None:
        total = sum(mu * cnt for mu, cnt in self.spectrum)
        if total != self.class_size:
            raise ValueError(f"spectrum mass {total} != class size {self.class_size}")
        values = sum(cnt for _, cnt in self.spectrum)
        if values != self.distinct_values:
            raise ValueError(f"spectrum support {values} != distinct values {self.distinct_values}")

    @property
    def n(self) -> int:
        return self.parikh.n

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "alphabet": list(self.alphabet.letters),
            "parikh": list(self.parikh.counts),
            "N": str(self.class_size),
            "P": str(self.distinct_values),
            "spectrum": [[mu, cnt] for mu, cnt in self.spectrum],
            "max_multiplicity": self.max_multiplicity,
            "max_value": str(self.max_value),
            "min_value": str(self.min_value),
            "witnesses": [w.to_json_dict() for w in self.witnesses],
        }


def _report_values(table: dict, top_k: int) -> list[int]:
    """The values a report shows: for each of the top_k largest multiplicities,
    its WITNESS_VALUES_PER_MULT smallest values; by multiplicity descending,
    then value ascending."""
    values = []
    for mu in heapq.nlargest(top_k, set(table.values())):
        values += heapq.nsmallest(WITNESS_VALUES_PER_MULT, [v for v, c in table.items() if c == mu])
    return values


def run_census(
    alphabet: Alphabet,
    parikh: ParikhVector,
    *,
    limit: int = DEFAULT_CLASS_LIMIT,
    value_budget: int = DEFAULT_VALUE_BUDGET,
) -> CensusReport:
    """Census the class: evaluate K on every member and aggregate by value."""
    classes, table, words = _value_table(
        alphabet,
        parikh,
        limit=limit,
        value_budget=value_budget,
        words_per_value=WITNESS_WORDS_PER_VALUE,
        witness_values=lambda t: _report_values(t, WITNESS_TOP_K),
    )
    spectrum = Counter(table.values())
    witnesses = tuple(
        ValueWitnesses(
            value=v,
            multiplicity=table[v],
            words=tuple(CanonicalWord._trusted(w) for w in ws),
        )
        for v, ws in words.items()
    )
    return CensusReport(
        alphabet=alphabet,
        parikh=parikh,
        class_size=classes,
        distinct_values=len(table),
        spectrum=tuple(sorted(spectrum.items())),
        max_multiplicity=max(spectrum),
        max_value=max(table),
        min_value=min(table),
        witnesses=witnesses,
    )


def multiplicity_of(word: Sequence[int], *, limit: int = DEFAULT_CLASS_LIMIT) -> int:
    """How many reversal classes in the Abelian class of ``word`` share its value.

    Streaming count, O(1) memory: enumerates the class and counts members
    whose continuant equals K(word).
    """
    w = Word(word)
    target = continuant(w)
    if len(w) == 0:
        return 1
    alphabet, parikh = abelian_class_of(w)
    _class_size(alphabet, parikh, limit)
    return sum(1 for _, v in _members(alphabet.letters, parikh.counts) if v == target)
