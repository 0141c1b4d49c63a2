"""The continuant-maximizing arrangement of an Abelian class.

Within the Abelian class described by an alphabet a_1 < ... < a_s and a
Parikh vector (p_1, ..., p_s), the continuant is maximized by a single
arrangement (up to reversal) whose shape depends only on s and the counts,
never on the letter values.  Writing a run a_i^{p_i - 1} as the "block" of
letter i, the arrangement walks the alphabet top-down emitting, per letter,
either the single letter or its block according to the parity of its
distance from the top, then walks bottom-up emitting the complementary
piece:

    down (i = s..1): single a_i if s - i even, block a_i^{p_i - 1} if odd
    up   (i = 1..s): block a_i^{p_i - 1} if s - i even, single a_i if odd

The two halves meet at the smallest letter, which consequently occurs as
one contiguous run a_1^{p_1} in the middle.  For the full alphabet
{1 < ... < s} with all counts m this reproduces

    s (s-1)^{m-1} (s-2) ... 1 1^{m-1} ... (s-2)^{m-1} (s-1) s^{m-1}.

The construction is checked rather than trusted, by two oracles.
:func:`pareto_max` is exact on classes far past enumeration: a dynamic
program over the remaining letter counts that keeps, per count vector,
only the Pareto front of (K(prefix), K(prefix minus its last letter))
pairs.  It shares no code with the census, and :func:`verify_max_arrangement`
runs on it.  The small-class reference ``reference.brute_force_extrema``
evaluates K on every reversal class of the lexicographic reference; it is
bound here only for the benchmark probe.  ``tests/test_layering.py``
checks that this module does not import the census and that no function
or class here names anything of the reference.
"""

from __future__ import annotations

from .core import DEFAULT_CLASS_LIMIT, Alphabet, ParikhVector, Word, _class_size, check_aligned, continuant

# Unused here; perfbench/layers.py wraps extremal.brute_force_extrema and
# counts the yields of extremal.multiset_permutations.
from .reference import brute_force_extrema, multiset_permutations


def max_arrangement(alphabet: Alphabet, parikh: ParikhVector) -> Word:
    """Build the K-maximizing arrangement of the class.

    Rejects any zero count (shrink the alphabet first) and mismatched
    alphabet/Parikh lengths.  The output is a permutation of the class:
    its Parikh vector equals the input.
    """
    check_aligned(alphabet, parikh)
    letters, counts = alphabet.letters, parikh.counts
    s = len(letters)
    out: list[int] = []
    for idx in range(s - 1, -1, -1):  # top-down half
        if (s - 1 - idx) % 2 == 0:
            out.append(letters[idx])
        else:
            out.extend([letters[idx]] * (counts[idx] - 1))
    for idx in range(s):  # bottom-up half
        if (s - 1 - idx) % 2 == 0:
            out.extend([letters[idx]] * (counts[idx] - 1))
        else:
            out.append(letters[idx])
    return Word(out)


def pareto_max(alphabet: Alphabet, parikh: ParikhVector) -> tuple[int, int]:
    """Exact maximum of K over the class, and how many arrangements attain it.

    The count is over raw arrangements, so a unique maximum up to reversal
    gives 1 for a palindrome and 2 otherwise.  The dynamic program places
    one letter per step.  A prefix enters every later value only through its
    pair (cur, prev) = (K(prefix), K(prefix minus its last letter)): by the
    splitting identity, ``K(prefix + suffix) = cur * K(suffix) + prev *
    K(suffix minus its first letter)``, and both factors are >= 1 for a
    nonempty suffix.  So a pair that another pair with the same remaining
    counts dominates can never reach the maximum, and each count vector
    keeps only its non-dominated pairs.  The last step has an empty suffix,
    where prev no longer matters, so it is not pruned.

    Each pair stands for exactly one prefix: cur/prev is the continued
    fraction [w_k; w_{k-1}, ..., w_1] in lowest terms, and the two
    expansions of a rational differ in length, so prefixes of one length
    never share a pair.  The maximum's arrangements are counted as its
    pairs.  No class is enumerated and no limit applies: the cost follows
    the number of count vectors, prod(p_i + 1), times the front sizes.
    """
    check_aligned(alphabet, parikh)
    letters = alphabet.letters
    points = {parikh.counts: {(1, 0)}}
    for _ in range(parikh.n):
        level, points = points, {}
        while level:  # frees each vector's points once expanded
            rest, pts = level.popitem()
            front = _front(pts)
            for i, a in enumerate(letters):
                if rest[i]:
                    child = points.setdefault(rest[:i] + (rest[i] - 1,) + rest[i + 1:], set())
                    child.update((a * cur + prev, cur) for cur, prev in front)
    (last,) = points.values()
    best = max(cur for cur, _ in last)
    return best, sum(1 for cur, _ in last if cur == best)


def _front(points: set) -> list[tuple[int, int]]:
    """The non-dominated (cur, prev) points, cur descending."""
    front = []
    top_prev = -1
    for cur, prev in sorted(points, reverse=True):
        if prev > top_prev:
            front.append((cur, prev))
            top_prev = prev
    return front


def verify_max_arrangement(
    alphabet: Alphabet,
    parikh: ParikhVector,
    *,
    limit: int = DEFAULT_CLASS_LIMIT,
) -> bool:
    """True iff the built arrangement is the unique maximum up to reversal.

    The check runs on :func:`pareto_max`: the built word must attain its
    maximum, on 1 arrangement if the word is a palindrome and on 2 (the
    word and its reversal) otherwise.  Classes over ``limit`` members up to
    reversal raise ClassTooLargeError, as the brute-force oracle would.
    """
    _class_size(alphabet, parikh, limit)
    built = max_arrangement(alphabet, parikh)
    return pareto_max(alphabet, parikh) == (continuant(built), 1 if built.is_palindrome() else 2)
