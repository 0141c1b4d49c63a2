"""The lexicographic reference: enumerate a class and evaluate each member.

``_members`` steps through the arrangements by the next-permutation
successor and keeps each one that is <= its reversal, so every reversal
class arrives once, at its canonical word, in lexicographic order, with its
rolling continuant.  Every oracle the fast kernels are checked against runs
on it and lives here: ``enumerate_classes``, ``multiplicity_of``, the
census reference scan ``_scan_shard`` (with ``_shard_prefixes``, which
splits a class by its two-letter prefixes) and the extremal oracle
``brute_force_extrema``.  It imports only ``core`` and uses no splitting
identity, so it is independent of the census kernel and of
``extremal.pareto_max``, which the tests check against it;
``tests/test_layering.py`` keeps it so.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .core import DEFAULT_CLASS_LIMIT, Alphabet, CanonicalWord, ParikhVector, ValueBudgetExceededError, Word
from .core import _class_size, abelian_class_of, continuant


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


@dataclass(frozen=True)
class ExtremalResult:
    """Extreme continuant values over a class, with all attaining words.

    ``argmax`` and ``argmin`` hold canonical representatives, sorted
    lexicographically.  For the regular continuant the argmax is a
    singleton (uniqueness up to reversal); the argmin is reported for
    exploratory use.
    """

    argmax: tuple[CanonicalWord, ...]
    argmin: tuple[CanonicalWord, ...]
    max_value: int
    min_value: int


def brute_force_extrema(
    alphabet: Alphabet,
    parikh: ParikhVector,
    *,
    limit: int = DEFAULT_CLASS_LIMIT,
) -> ExtremalResult:
    """Exhaustive extremal oracle: evaluate K on the whole class.

    The reference loop ``_members`` yields each reversal class once, as its
    canonical word in lexicographic order; the extreme values are kept with
    every class attaining them, so argmax and argmin come out sorted.
    """
    _class_size(alphabet, parikh, limit)
    best = worst = None
    best_words: list[tuple] = []
    worst_words: list[tuple] = []
    for w, cur in _members(alphabet.letters, parikh.counts):
        if best is None or cur > best:
            best, best_words = cur, [w]
        elif cur == best:
            best_words.append(w)
        if worst is None or cur < worst:
            worst, worst_words = cur, [w]
        elif cur == worst:
            worst_words.append(w)
    argmax = tuple(CanonicalWord._trusted(w) for w in best_words)
    argmin = tuple(CanonicalWord._trusted(w) for w in worst_words)
    return ExtremalResult(argmax=argmax, argmin=argmin, max_value=best, min_value=worst)
