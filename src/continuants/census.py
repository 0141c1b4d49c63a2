"""Exact continuant-value censuses of Abelian classes.

An Abelian class is the set of all rearrangements of a word, with every
word identified with its reversal.  A census evaluates the continuant on
every member once per reversal pair and reports the class size N, the
number of distinct values P, the multiplicity spectrum (how many values
are hit exactly mu times), and witnesses.

``_value_table``, behind ``run_census`` and the explorer, is a
meet-in-the-middle kernel (``_rows``): it splits each member into two
halves, keeps for every half count vector the continuant pairs of its
arrangements (``_half_tables``, built once per call, no words stored),
and evaluates each reversal class once by the splitting identity, with no
reversal comparison.  It shares that identity with
``extremal.pareto_max``; the lexicographic reference in ``reference``,
its scan ``_scan_shard`` included, does not, and no function here names
anything of it, so the oracles the tests compare it with stay
independent of it.  Values are keyed by exact integer equality, and no
path starts a process.  The class-size gate ``core._class_size`` runs
first, and the kernel's class count must equal the size it returns, or
``_value_table`` raises ``RuntimeError``.  The value budget is checked
after every row, so the table holds at most the budget plus one row, and
the kernel raises ``core.ValueBudgetExceededError`` with its own
counters.  Witness words come from a second pass over the same tables;
when only some values are picked, it skips every row whose exact value
interval holds none of them.  The tables are in a closed-form order, so
``_arrangement`` spells the word at a table index, and a word is spelled
only where a picked value lies.
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

from .core import DEFAULT_CLASS_LIMIT, Alphabet, CanonicalWord, ParikhVector, ValueBudgetExceededError
from .core import _class_size, _multinomial, format_word, int_text

# Unused here; perfbench/layers.py calls census.multiset_permutations,
# enumerate_classes, exact_class_count, and _shard_prefixes and _scan_shard
# to replay and size a sharded reference scan.
from .core import exact_class_count
from .reference import _scan_shard, _shard_prefixes, enumerate_classes, multiset_permutations

DEFAULT_VALUE_BUDGET = 10**6

# Witness retention: the top WITNESS_TOP_K distinct multiplicities, at most
# WITNESS_VALUES_PER_MULT values for each, at most WITNESS_WORDS_PER_VALUE
# words for each value.  Bounded memory, useful diagnostics.
WITNESS_TOP_K = 3
WITNESS_VALUES_PER_MULT = 10
WITNESS_WORDS_PER_VALUE = 10


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
    """Map each count vector c <= counts of sum h to the lists K(z) and
    K(z minus its last letter) over the arrangements z of c, built one
    letter at a time: K(z a) = a K(z) + K(z minus its last letter).

    The vectors come in lexicographically descending order, and the
    arrangements of c in descending order of their reversed words, so
    ``_arrangement`` spells the word at any index; no word is stored."""
    tables = {(0,) * len(counts): ([1], [0])}
    for _ in range(h):
        grown: dict = {}
        for c, (ks, kms) in tables.items():
            for i, a in enumerate(letters):
                if c[i] < counts[i]:
                    k, km = grown.setdefault(c[:i] + (c[i] + 1,) + c[i + 1 :], ([], []))
                    k += [a * x + y for x, y in zip(ks, kms)]
                    km += ks
        tables = grown
    return tables


def _arrangement(letters: Sequence[int], c: Sequence[int], i: int) -> tuple:
    """The arrangement of c at index i of its half-table lists.

    Of the M = multinomial(c) arrangements, the first M c_j / |c| end in
    the last letter j of c, the next ones in the letter before it, and so
    on; each block is ordered as the table of c minus that letter.  So
    the word is read backwards, one integer division per letter and step.
    """
    c, m, word = list(c), _multinomial(c), []
    for n in range(sum(c), 0, -1):
        for j in reversed(range(len(c))):
            block = m * c[j] // n
            if i < block:
                break
            i -= block
        word.append(letters[j])
        c[j] -= 1
        m = block
    return tuple(word[::-1])


def _rows(
    letters: Sequence[int], counts: Sequence[int], tables: dict, wanted: list[int] | None = None
) -> Iterator[tuple]:
    """Yield (c, i, k, d, lo, values): the values K(x m reversed(y)), for x
    the arrangement i of c, m the letter k (none when k is None) and y the
    arrangements of d from index lo on.

    ``tables`` is ``_half_tables(letters, counts, n // 2)``.  Every member
    is w = x m reversed(y), with halves |x| = |y| = n // 2 and a middle
    letter m when n is odd.  By the splitting identity, K(w) = A K(y) + B
    K(y minus its last letter), with (A, B) = (K(x), K(x minus its last
    letter)) for n even and (m K(x) + K(x minus its last letter), K(x))
    for n odd.  Reversal maps (c, x, y) to (d, y, x), so one member per
    reversal class is the pairs with c < d, and those with x at or before
    y when c == d.  When every value fits 64 bits, a row is one
    multiply-add on the half table packed into 64-bit fields.

    With ``wanted``, a sorted list, only the rows that may hold one of its
    values are yielded.  A and B are nonnegative, so every value of a row
    lies in [A min K(y) + B min K(y-), A max K(y) + B max K(y-)] over the
    arrangements y of d; a row is skipped, unevaluated, when that closed
    integer interval holds no wanted value.
    """
    n = sum(counts)
    packed = sys.byteorder == "little" and _fits_64_bits(letters, counts)
    packs: dict = {}
    for k in range(len(letters)) if n % 2 else (None,):
        rest = counts if k is None else counts[:k] + (counts[k] - 1,) + counts[k + 1 :]
        for c, (kx, kxm) in tables.items():
            d = tuple(r - x for r, x in zip(rest, c))
            if d < c or min(d, default=0) < 0:  # n = 0: the empty word alone
                continue
            ky, kym = tables[d]
            if packed and d not in packs:
                packs[d] = tuple(int.from_bytes(array("Q", t), "little") for t in (ky, kym))
            if wanted is not None:
                low, low_m, high, high_m = min(ky), min(kym), max(ky), max(kym)
            for i, (a, b) in enumerate(zip(kx, kxm)):
                if k is not None:
                    a, b = letters[k] * a + b, a
                if wanted is not None:
                    j = bisect.bisect_left(wanted, a * low + b * low_m)
                    if j == len(wanted) or wanted[j] > a * high + b * high_m:
                        continue
                lo = i if c == d else 0
                if packed:
                    py, pym = packs[d]
                    values = memoryview((a * py + b * pym).to_bytes(8 * len(ky), "little")).cast("Q")[lo:]
                else:
                    values = [a * y + b * ym for y, ym in zip(ky[lo:], kym[lo:])]
                yield c, i, k, d, lo, values


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
    in lexicographic order, found by a second pass over the same half
    tables that evaluates only the rows whose value interval holds a picked
    value (every row when all values are picked) and spells a word only
    where a picked value lies.
    """
    size = _class_size(alphabet, parikh, limit)
    letters, counts = alphabet.letters, parikh.counts
    tables = _half_tables(letters, counts, sum(counts) // 2)
    table: Counter = Counter()
    classes = 0
    for *_, values in _rows(letters, counts, tables):
        table.update(values)
        classes += len(values)
        if len(table) > value_budget:
            raise ValueBudgetExceededError(len(table), value_budget, classes)
    if classes != size:  # a reversal-bookkeeping fault in _rows must not print a wrong N
        raise RuntimeError(f"kernel evaluated {int_text(classes)} classes, but the class has {int_text(size)}")
    if not words_per_value:
        return classes, table, {}

    found = {v: [] for v in (table if witness_values is None else witness_values(table))}
    wanted = None if witness_values is None else sorted(found)
    for c, i, k, d, lo, values in _rows(letters, counts, tables, wanted):
        if found.keys().isdisjoint(values):
            continue
        head = _arrangement(letters, c, i) + (() if k is None else (letters[k],))
        for j, v in enumerate(values, lo):
            got = found.get(v)
            if got is not None:
                w = head + _arrangement(letters, d, j)[::-1]
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


def _report_values(table: dict, spectrum: dict) -> list[int]:
    """The values a report shows: for each of the WITNESS_TOP_K largest
    multiplicities, its WITNESS_VALUES_PER_MULT smallest values; by
    multiplicity descending, then value ascending.  ``spectrum``, the
    table's multiplicity counts, is read for its keys."""
    values = []
    for mu in heapq.nlargest(WITNESS_TOP_K, spectrum):
        values += heapq.nsmallest(WITNESS_VALUES_PER_MULT, [v for v, c in table.items() if c == mu])
    return values


def run_census(
    alphabet: Alphabet,
    parikh: ParikhVector,
    *,
    limit: int = DEFAULT_CLASS_LIMIT,
) -> CensusReport:
    """Census the class: evaluate K on every member and aggregate by value."""
    spectrum: Counter = Counter()

    def pick(table: dict) -> list[int]:
        spectrum.update(table.values())
        return _report_values(table, spectrum)

    classes, table, words = _value_table(
        alphabet,
        parikh,
        limit=limit,
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
