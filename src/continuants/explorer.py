"""Searches for multiplicity witnesses: words sharing their continuant value.

A witness is a word whose value K(w) is attained by at least (or exactly)
a target number of reversal classes within its own Abelian class.  The
searches here are exhaustive censuses over small classes; results are
fully deterministic, with tie-breaks fixed as: smallest word length, then
lexicographically smallest Parikh vector, then smallest value, then
lexicographically smallest word.  Whether small classes contain collisions
at all is an empirical question this module exists to answer.

The ``workers`` keyword of each search is accepted and has no effect.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .census import DEFAULT_CLASS_LIMIT, DEFAULT_VALUE_BUDGET, _value_table, exact_class_count
from .core import Alphabet, CanonicalWord, ParikhVector, format_word


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
            "value": str(self.value),
            "multiplicity": self.multiplicity,
        }


@dataclass(frozen=True)
class ExactSearchResult:
    """Outcome of a budgeted exact-multiplicity scan."""

    records: tuple[WitnessRecord, ...]
    classes_scanned: int
    parikhs_scanned: int
    budget_exhausted: bool


def _table(alphabet, parikh, workers, limit, value_budget, witness_values):
    return _value_table(
        alphabet,
        parikh,
        workers=workers,
        limit=limit,
        value_budget=value_budget,
        words_per_value=1,
        witness_values=witness_values,
    )


def _record(alphabet, parikh, table, first_words, value) -> WitnessRecord:
    return WitnessRecord(
        alphabet=alphabet,
        parikh=parikh,
        word=CanonicalWord._trusted(first_words[value][0]),
        value=value,
        multiplicity=table[value],
    )


def find_witness(
    alphabet: Alphabet,
    parikh: ParikhVector,
    target_mu: int,
    *,
    workers: int = 1,
    limit: int = DEFAULT_CLASS_LIMIT,
    value_budget: int = DEFAULT_VALUE_BUDGET,
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

    _, table, first_words = _table(alphabet, parikh, workers, limit, value_budget, smallest_hit)
    if not first_words:
        return None
    return _record(alphabet, parikh, table, first_words, next(iter(first_words)))


def growing_multiplicity_scan(
    alphabet: Alphabet,
    m_start: int,
    m_end: int,
    *,
    workers: int = 1,
    limit: int = DEFAULT_CLASS_LIMIT,
    value_budget: int = DEFAULT_VALUE_BUDGET,
) -> list[tuple[int, int, WitnessRecord]]:
    """Maximal multiplicity of each equipartitioned class, m = m_start .. m_end.

    Returns (m, max multiplicity, one maximal witness) per m, in scan
    order.  The witness follows the standard tie-break.  A class over the
    limit aborts the scan with ClassTooLargeError naming its size.
    """
    if not 1 <= m_start <= m_end:
        raise ValueError(f"need 1 <= m_start <= m_end, got {m_start}..{m_end}")

    def smallest_top(table):
        max_mu = max(table.values())
        return [min(v for v, c in table.items() if c == max_mu)]

    out = []
    for m in range(m_start, m_end + 1):
        parikh = ParikhVector.equipartitioned(alphabet.size, m)
        _, table, first_words = _table(alphabet, parikh, workers, limit, value_budget, smallest_top)
        record = _record(alphabet, parikh, table, first_words, next(iter(first_words)))
        out.append((m, record.multiplicity, record))
    return out


def _positive_compositions(n: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All compositions of n into ``parts`` positive parts, lex ascending."""
    if parts == 1:
        yield (n,)
        return
    for head in range(1, n - parts + 2):
        for rest in _positive_compositions(n - head, parts - 1):
            yield (head,) + rest


def exact_multiplicity_scan(
    alphabet: Alphabet,
    target_mu: int,
    budget: int,
    *,
    workers: int = 1,
    limit: int = DEFAULT_CLASS_LIMIT,
    value_budget: int = DEFAULT_VALUE_BUDGET,
) -> ExactSearchResult:
    """Scan Parikh vectors in increasing n, then lex, for exact-multiplicity hits.

    ``budget`` caps the total number of reversal classes enumerated; the
    scan stops before the first class that would overrun it.  One record
    is emitted per (class, value) whose value is attained exactly
    target_mu times, carrying the lexicographically smallest witness word.
    An empty result is a valid outcome.
    """
    if target_mu < 1:
        raise ValueError(f"need target_mu >= 1, got {target_mu}")
    if budget < 0:
        raise ValueError(f"need budget >= 0, got {budget}")

    def exact_hits(table):
        return sorted(v for v, c in table.items() if c == target_mu)

    records: list[WitnessRecord] = []
    scanned = 0
    parikhs = 0
    exhausted = False
    n = alphabet.size
    while True:
        for counts in _positive_compositions(n, alphabet.size):
            parikh = ParikhVector(counts)
            size = exact_class_count(parikh)
            if scanned + size > budget:
                exhausted = True
                break
            _, table, first_words = _table(alphabet, parikh, workers, limit, value_budget, exact_hits)
            scanned += size
            parikhs += 1
            records.extend(_record(alphabet, parikh, table, first_words, v) for v in first_words)
        else:
            n += 1
            continue
        break
    return ExactSearchResult(
        records=tuple(records),
        classes_scanned=scanned,
        parikhs_scanned=parikhs,
        budget_exhausted=exhausted,
    )

