"""The lexicographic reference: enumerate a class and evaluate each member.

``_members`` steps through the arrangements by the next-permutation
successor and keeps each one that is <= its reversal, so every reversal
class arrives once, at its canonical word, in lexicographic order, with its
rolling continuant.  ``enumerate_classes``, ``multiplicity_of``,
``extremal.brute_force_extrema`` and the census reference scan run on it.
It imports only ``core`` and uses no splitting identity, so it is
independent of the census kernel and of ``extremal.pareto_max``, which the
tests check against it; ``tests/test_layering.py`` keeps it so.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .core import DEFAULT_CLASS_LIMIT, Alphabet, CanonicalWord, ParikhVector, Word, _class_size
from .core import abelian_class_of, continuant


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
