"""Abelian-class enumeration and exact continuant-value censuses.

An Abelian class is the set of all rearrangements of a word, with every
word identified with its reversal.  This module enumerates a class exactly
once per reversal pair, evaluates the continuant on every member, and
reports the class size N, the number of distinct values P, the multiplicity
spectrum (how many values are hit exactly mu times), and witnesses.

``_members`` is the lexicographic reference: next-multiset-permutation
keeps a permutation iff it is <= its reversal, so each reversal class
arrives once, at its canonical representative, in lexicographic order,
without any seen-set, and is yielded with its rolling continuant.
``enumerate_classes`` streams the same words; ``multiplicity_of``, the
reference census scan ``_scan_shard`` and the extremal oracle
``extremal.brute_force_extrema`` run on it.
``_class_size`` is the one enumeration limit gate, which every class-wide
routine passes first.

``_value_table``, behind ``run_census`` and the explorer, is a
meet-in-the-middle kernel (``_rows``): it splits each member into two
halves, memoises the arrangements of every half count vector with their
continuant pairs, and evaluates each reversal class once by the splitting
identity, with no reversal comparison.  It shares that identity with
``extremal.pareto_max``; the reference does not, so the oracles the tests
compare it with stay independent of it.  Values are keyed by exact integer
equality, and no path starts a process.  The value budget is checked
after every row, so the table holds at most the budget plus one row, and
the kernel raises ``ValueBudgetExceededError`` with its own counters.
Witness words come from a second pass over the rows; when only some values
are picked, it skips every row whose exact value interval holds none of
them.
"""

from __future__ import annotations

import bisect
import heapq
import math
import sys
from array import array
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
    int_text,
)

DEFAULT_CLASS_LIMIT = 10**8
DEFAULT_VALUE_BUDGET = 10**6

# Witness retention: the top WITNESS_TOP_K distinct multiplicities, at most
# WITNESS_VALUES_PER_MULT values for each, at most WITNESS_WORDS_PER_VALUE
# words for each value.  Bounded memory, useful diagnostics.
WITNESS_TOP_K = 3
WITNESS_VALUES_PER_MULT = 10
WITNESS_WORDS_PER_VALUE = 10


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
    valid census statistics.  They count the distinct values and the
    classes seen up to and including the kernel row that crossed the
    budget, so they depend on the kernel's row order.
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

# Unused here; the tests and perfbench/layers.py call it as the reference scan.
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


def __getattr__(name: str):
    # Unused here; perfbench/layers.py subclasses census.ProcessPoolExecutor to
    # count pool start-ups.  Resolved on first access, because importing it
    # loads multiprocessing (~20 ms and ~2 MB) into every command.
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _fits_64_bits(letters: Sequence[int], counts: Sequence[int]) -> bool:
    """True when every continuant of the class is below 2**64.

    K_j = a_j K_{j-1} + K_{j-2} <= (a_j + 1) K_{j-1} for positive letters, so
    every arrangement's value is at most prod (a_i + 1)^{p_i}.
    """
    return math.prod((a + 1) ** p for a, p in zip(letters, counts)) < 2**64


def _half_tables(letters: Sequence[int], counts: Sequence[int], h: int) -> dict:
    """Map each count vector c <= counts of sum h to its arrangements z,
    with the lists K(z) and K(z minus its last letter), built one letter
    at a time: K(z a) = a K(z) + K(z minus its last letter)."""
    tables = {(0,) * len(counts): ([()], [1], [0])}
    for _ in range(h):
        grown: dict = {}
        for c, (zs, ks, kms) in tables.items():
            for i, a in enumerate(letters):
                if c[i] < counts[i]:
                    words, k, km = grown.setdefault(c[:i] + (c[i] + 1,) + c[i + 1 :], ([], [], []))
                    words += [z + (a,) for z in zs]
                    k += [a * x + y for x, y in zip(ks, kms)]
                    km += ks
        tables = grown
    return tables


def _rows(letters: Sequence[int], counts: Sequence[int], wanted: list[int] | None = None) -> Iterator[tuple]:
    """Yield (head, ys, lo, values): the values K(head + reversed(y)) for y in ys[lo:].

    Every member is w = x m reversed(y), with halves |x| = |y| = n // 2 and
    a middle letter m when n is odd.  By the splitting identity, K(w) =
    A K(y) + B K(y minus its last letter), with (A, B) = (K(x), K(x minus
    its last letter)) for n even and (m K(x) + K(x minus its last letter),
    K(x)) for n odd.  Reversal maps (c, x, y) to (d, y, x), where c and d
    count the letters of x and y, so one member per reversal class is the
    pairs with c < d, and those with x at or before y when c == d.  When
    every value fits 64 bits, a row is one multiply-add on the half table
    packed into 64-bit fields.

    With ``wanted``, a sorted list, only the rows that may hold one of its
    values are yielded.  A and B are nonnegative, so every value of a row
    lies in [A min K(y) + B min K(y-), A max K(y) + B max K(y-)] over the
    arrangements y of d; a row is skipped, unevaluated, when that closed
    integer interval holds no wanted value.
    """
    n = sum(counts)
    tables = _half_tables(letters, counts, n // 2)
    packed = sys.byteorder == "little" and _fits_64_bits(letters, counts)
    packs: dict = {}
    for k in range(len(letters)) if n % 2 else (None,):
        rest = counts if k is None else counts[:k] + (counts[k] - 1,) + counts[k + 1 :]
        for c, (xs, kx, kxm) in tables.items():
            d = tuple(r - x for r, x in zip(rest, c))
            if d < c or min(d, default=0) < 0:  # n = 0: the empty word alone
                continue
            ys, ky, kym = tables[d]
            if packed and d not in packs:
                packs[d] = tuple(int.from_bytes(array("Q", t), "little") for t in (ky, kym))
            if wanted is not None:
                low, low_m, high, high_m = min(ky), min(kym), max(ky), max(kym)
            for i, head in enumerate(xs):
                a, b = kx[i], kxm[i]
                if k is not None:
                    head, a, b = head + (letters[k],), letters[k] * a + b, a
                if wanted is not None:
                    j = bisect.bisect_left(wanted, a * low + b * low_m)
                    if j == len(wanted) or wanted[j] > a * high + b * high_m:
                        continue
                lo = i if c == d else 0
                if packed:
                    py, pym = packs[d]
                    values = memoryview((a * py + b * pym).to_bytes(8 * len(ys), "little")).cast("Q")[lo:]
                else:
                    values = [a * y + b * ym for y, ym in zip(ky[lo:], kym[lo:])]
                yield head, ys, lo, values


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
    every value.  Each gets its ``words_per_value`` smallest canonical words,
    in lexicographic order, found by a second pass that evaluates only the
    rows whose value interval holds a picked value (every row when all
    values are picked).
    """
    _class_size(alphabet, parikh, limit)
    letters, counts = alphabet.letters, parikh.counts
    table: Counter = Counter()
    classes = 0
    for _, _, _, values in _rows(letters, counts):
        table.update(values)
        classes += len(values)
        if len(table) > value_budget:
            raise ValueBudgetExceededError(len(table), value_budget, classes)
    if not words_per_value:
        return classes, table, {}

    found = {v: [] for v in (table if witness_values is None else witness_values(table))}
    wanted = None if witness_values is None else sorted(found)
    for head, ys, lo, values in _rows(letters, counts, wanted):
        if found.keys().isdisjoint(values):
            continue
        for j, v in enumerate(values, lo):
            got = found.get(v)
            if got is not None:
                w = head + ys[j][::-1]
                w = min(w, w[::-1])
                if len(got) < words_per_value or w < got[-1]:
                    bisect.insort(got, w)
                    del got[words_per_value:]
    return classes, table, {v: tuple(ws) for v, ws in found.items()}


@dataclass(frozen=True)
class ValueWitnesses:
    """One census value with its multiplicity and some attaining words."""

    value: int
    multiplicity: int
    words: tuple[CanonicalWord, ...]

    def to_json_dict(self) -> dict:
        return {
            "value": int_text(self.value),
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
            "N": int_text(self.class_size),
            "P": int_text(self.distinct_values),
            "spectrum": [[mu, cnt] for mu, cnt in self.spectrum],
            "max_multiplicity": self.max_multiplicity,
            "max_value": int_text(self.max_value),
            "min_value": int_text(self.min_value),
            "witnesses": [w.to_json_dict() for w in self.witnesses],
        }


def _report_values(table: dict, top_k: int, spectrum: dict | None = None) -> list[int]:
    """The values a report shows: for each of the top_k largest multiplicities,
    its WITNESS_VALUES_PER_MULT smallest values; by multiplicity descending,
    then value ascending.  ``spectrum``, the table's multiplicity counts, is
    read for its keys when given."""
    values = []
    for mu in heapq.nlargest(top_k, set(table.values()) if spectrum is None else spectrum):
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
    spectrum: Counter = Counter()

    def pick(table: dict) -> list[int]:
        spectrum.update(table.values())
        return _report_values(table, WITNESS_TOP_K, spectrum)

    classes, table, words = _value_table(
        alphabet,
        parikh,
        limit=limit,
        value_budget=value_budget,
        words_per_value=WITNESS_WORDS_PER_VALUE,
        witness_values=pick,
    )
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
