"""Searches for multiplicity witnesses: words sharing their continuant value.

A witness is a word whose value K(w) is attained by at least (or exactly)
a target number of reversal classes within its own Abelian class.  The
searches here are exhaustive censuses over small classes; results are
fully deterministic, with tie-breaks fixed as: smallest word length, then
lexicographically smallest Parikh vector, then smallest value, then
lexicographically smallest word.  Whether small classes contain collisions
at all is an empirical question this module exists to answer.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .census import _value_table
from .core import DEFAULT_CLASS_LIMIT, Alphabet, CanonicalWord, ParikhVector, exact_class_count
from .core import format_word, int_text


@dataclass(frozen=True)
class WitnessRecord:
    """A self-contained multiplicity witness."""

    alphabet: Alphabet
    parikh: ParikhVector
    word: CanonicalWord
    value: int
    multiplicity: int

    def to_json_dict(self) -> dict:
        return {
            "alphabet": list(self.alphabet.letters),
            "parikh": list(self.parikh.counts),
            "word": format_word(self.word),
            "value": int_text(self.value),
            "multiplicity": self.multiplicity,
        }


@dataclass(frozen=True)
class ExactSearchResult:
    """Outcome of a budgeted exact-multiplicity scan.

    The scan over n never runs out of Parikh vectors, so only the budget
    ends it: ``budget_exhausted`` is always True.
    """

    records: tuple[WitnessRecord, ...]
    classes_scanned: int
    parikhs_scanned: int
    budget_exhausted: bool


def _witnesses(alphabet, parikh, pick, limit) -> list[WitnessRecord]:
    """One record per value that ``pick`` chooses from the class's value table,
    in pick's order, each carrying the value's lexicographically smallest word."""
    _, table, first_words = _value_table(
        alphabet, parikh, limit=limit, words_per_value=1, witness_values=pick
    )
    return [
        WitnessRecord(alphabet, parikh, CanonicalWord._trusted(words[0]), value, table[value])
        for value, words in first_words.items()
    ]


def find_witness(
    alphabet: Alphabet,
    parikh: ParikhVector,
    target_mu: int,
    *,
    limit: int = DEFAULT_CLASS_LIMIT,
) -> WitnessRecord | None:
    """A witness with multiplicity >= target_mu in the class, if any.

    Returns the record for the smallest qualifying value; its word is the
    lexicographically smallest attaining one.  None when the spectrum has
    no multiplicity at or above the target.
    """
    if target_mu < 1:
        raise ValueError(f"need target_mu >= 1, got {target_mu}")

    def smallest_hit(table):
        hits = [v for v, c in table.items() if c >= target_mu]
        return [min(hits)] if hits else []

    records = _witnesses(alphabet, parikh, smallest_hit, limit)
    return records[0] if records else None


def _equipartitioned_range(size: int, m_start: int, m_end: int) -> Iterator[tuple[int, ParikhVector]]:
    """(m, the equipartitioned Parikh vector of repetition count m) for m = m_start .. m_end.

    The range is checked before the first pair is yielded.
    """
    if not 1 <= m_start <= m_end:
        raise ValueError(f"need 1 <= m_start <= m_end, got {int_text(m_start)}..{int_text(m_end)}")
    for m in range(m_start, m_end + 1):
        yield m, ParikhVector.equipartitioned(size, m)


def growing_multiplicity_scan(
    alphabet: Alphabet,
    m_start: int,
    m_end: int,
    *,
    limit: int = DEFAULT_CLASS_LIMIT,
) -> list[tuple[int, int, WitnessRecord]]:
    """Maximal multiplicity of each equipartitioned class, m = m_start .. m_end.

    Returns (m, max multiplicity, one maximal witness) per m, in scan
    order.  The witness follows the standard tie-break.  A class over the
    limit aborts the scan with ClassTooLargeError naming its size.
    """
    def smallest_top(table):
        max_mu = max(table.values())
        return [min(v for v, c in table.items() if c == max_mu)]

    out = []
    for m, parikh in _equipartitioned_range(alphabet.size, m_start, m_end):
        [record] = _witnesses(alphabet, parikh, smallest_top, limit)
        out.append((m, record.multiplicity, record))
    return out


def _positive_compositions(n: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All compositions of n into ``parts`` positive parts, lex ascending:
    the gaps between 0, each set of ``parts - 1`` cut points, and n."""
    for cuts in itertools.combinations(range(1, n), parts - 1):
        ends = (0, *cuts, n)
        yield tuple(b - a for a, b in zip(ends, ends[1:]))


def exact_multiplicity_scan(
    alphabet: Alphabet,
    target_mu: int,
    budget: int,
    *,
    limit: int = DEFAULT_CLASS_LIMIT,
) -> ExactSearchResult:
    """Scan Parikh vectors in increasing n, then lex, for exact-multiplicity hits.

    ``budget`` caps the total number of reversal classes enumerated; the
    scan stops before the first class that would overrun it, and only
    there.  One record is emitted per (class, value) whose value is
    attained exactly target_mu times, carrying the lexicographically
    smallest witness word.
    An empty result is a valid outcome; an empty alphabet is a ValueError.
    """
    if target_mu < 1:
        raise ValueError(f"need target_mu >= 1, got {target_mu}")
    if budget < 0:
        raise ValueError(f"need budget >= 0, got {budget}")
    if alphabet.size == 0:
        # A Parikh vector has one positive count per letter, so no n >= 1 has
        # one and the scan over n would never end.
        raise ValueError("need a non-empty alphabet for the exact-multiplicity scan")

    def exact_hits(table):
        return sorted(v for v, c in table.items() if c == target_mu)

    records: list[WitnessRecord] = []
    scanned = parikhs = 0
    for n in itertools.count(alphabet.size):
        for counts in _positive_compositions(n, alphabet.size):
            parikh = ParikhVector(counts)
            size = exact_class_count(parikh)
            if scanned + size > budget:
                return ExactSearchResult(tuple(records), scanned, parikhs, budget_exhausted=True)
            records += _witnesses(alphabet, parikh, exact_hits, limit)
            scanned += size
            parikhs += 1
