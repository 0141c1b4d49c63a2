"""Exact arithmetic for regular continuants over words of positive integers.

The continuant K maps a finite word w = w_1 ... w_n of positive integers to
the denominator of the terminating continued fraction whose partial
quotients are the letters.  It satisfies the three-term recursion

    K(empty) = 1,  K(w_1) = w_1,
    K(w_1 ... w_j) = w_j * K(w_1 ... w_{j-1}) + K(w_1 ... w_{j-2}),

is invariant under word reversal, and obeys the splitting identity

    K(w) = K(w_1..w_j) K(w_{j+1}..w_n) + K(w_1..w_{j-1}) K(w_{j+2}..w_n).

All arithmetic in this module is exact (Python integers).  Continuants grow
exponentially and the census machinery downstream needs true value equality,
so no floating point appears anywhere here.

Words are identified with their reversals throughout the package; the
canonical representative of a reversal pair is the lexicographically
smaller sequence.

The class counts, the one enumeration limit gate ``_class_size`` and both
limit errors live here too, so the census, the extremal oracles and the
lexicographic reference share them without importing one another.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from typing import Iterable, Sequence


class Word(tuple):
    """An immutable word of positive integer letters.

    Subclasses ``tuple``, so indexing, slicing (plain tuples), comparison
    and hashing all act on the letter sequence directly.
    """

    __slots__ = ()

    def __new__(cls, letters: Iterable[int] = ()) -> "Word":
        w = super().__new__(cls, letters)
        for a in w:
            if not isinstance(a, int) or isinstance(a, bool) or a < 1:
                raise ValueError(f"word letters must be integers >= 1, got {a!r}")
        return w

    @classmethod
    def _trusted(cls, letters: tuple) -> "Word":
        # Fast path for enumeration loops: caller guarantees validity.
        return tuple.__new__(cls, letters)

    def reversal(self) -> "Word":
        return Word._trusted(self[::-1])

    def is_palindrome(self) -> bool:
        return self[:] == self[::-1]

    @property
    def text(self) -> str:
        return format_word(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.text!r})"


class CanonicalWord(Word):
    """A word that is lexicographically <= its reversal.

    Two words map to the same CanonicalWord exactly when one is the
    reversal of the other; use :func:`canonicalize` to build one from an
    arbitrary word.
    """

    __slots__ = ()

    def __new__(cls, letters: Iterable[int] = ()) -> "CanonicalWord":
        w = super().__new__(cls, letters)
        if w[:] > w[::-1]:
            raise ValueError("not canonical: the reversal is lexicographically smaller")
        return w


def canonicalize(word: Iterable[int]) -> CanonicalWord:
    """Return the canonical representative of ``word`` under reversal.

    Idempotent, and canonicalize(w) == canonicalize(reversed(w)).
    """
    t = tuple(Word(word))
    r = t[::-1]
    return CanonicalWord._trusted(t if t <= r else r)


def check_shape(t: int, l: int, s: int | None = None) -> None:
    """Raise ValueError unless 1 <= t <= l, and l < s when s is given.

    (t, l, s) is the shape of a lacunary alphabet {b_1<...<b_t} | {l+1..s}.
    """
    if s is None:
        if not 1 <= t <= l:
            raise ValueError(f"need 1 <= t <= l, got t={int_text(t)}, l={int_text(l)}")
    elif not 1 <= t <= l < s:
        raise ValueError(
            f"need 1 <= t <= l < s, got t={int_text(t)}, l={int_text(l)}, s={int_text(s)}"
        )


@dataclass(frozen=True)
class Alphabet:
    """A strictly increasing tuple of positive integer letters."""

    letters: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "letters", tuple(self.letters))
        for a in self.letters:
            if not isinstance(a, int) or isinstance(a, bool) or a < 1:
                raise ValueError(f"alphabet letters must be integers >= 1, got {a!r}")
        if any(x >= y for x, y in zip(self.letters, self.letters[1:])):
            raise ValueError("alphabet letters must be strictly increasing")

    @classmethod
    def from_lacunary(cls, t: int, l: int, s: int, low: Iterable[int]) -> "Alphabet":
        """The lacunary alphabet {b_1<...<b_t} | {l+1..s}, low = (b_1, ..., b_t).

        The low part sits entirely at or below l; the high part is the full
        integer interval l+1 .. s.
        """
        check_shape(t, l, s)
        low = tuple(low)
        if len(low) != t:
            raise ValueError(f"low part has {len(low)} letters, expected t={t}")
        if any(b < 1 for b in low):
            raise ValueError("low-part letters must be >= 1")
        if any(x >= y for x, y in zip(low, low[1:])):
            raise ValueError("low-part letters must be strictly increasing")
        if low[-1] > l:
            raise ValueError(f"largest low-part letter {int_text(low[-1])} exceeds l={int_text(l)}")
        return cls(low + tuple(range(l + 1, s + 1)))

    @property
    def size(self) -> int:
        return len(self.letters)

    @property
    def text(self) -> str:
        return format_word(self.letters)


@dataclass(frozen=True)
class ParikhVector:
    """Occurrence counts (p_1, ..., p_s), aligned with an Alphabet.

    Every count is >= 1: a letter that does not occur should be dropped
    from the alphabet instead of carried with a zero.
    """

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "counts", tuple(self.counts))
        for p in self.counts:
            if not isinstance(p, int) or isinstance(p, bool) or p < 1:
                raise ValueError(f"Parikh counts must be integers >= 1, got {p!r}")

    @classmethod
    def equipartitioned(cls, size: int, m: int) -> "ParikhVector":
        return cls((m,) * size)

    @property
    def n(self) -> int:
        return sum(self.counts)

    @property
    def size(self) -> int:
        return len(self.counts)

    @property
    def text(self) -> str:
        return format_word(self.counts)


def abelian_class_of(word: Sequence[int]) -> tuple[Alphabet, ParikhVector]:
    """Alphabet and Parikh vector of the Abelian class containing ``word``."""
    w = Word(word)
    letters = tuple(sorted(set(w)))
    counts = tuple(w.count(a) for a in letters)
    return Alphabet(letters), ParikhVector(counts)


def check_aligned(alphabet: Alphabet, parikh: ParikhVector) -> None:
    if alphabet.size != parikh.size:
        raise ValueError(
            f"alphabet has {alphabet.size} letters but Parikh vector has {parikh.size} counts"
        )


# ---------------------------------------------------------------------------
# Class counting, the enumeration limit gate and the limit errors
# ---------------------------------------------------------------------------

DEFAULT_CLASS_LIMIT = 10**8


class ClassTooLargeError(Exception):
    """The Abelian class exceeds the configured enumeration limit."""

    def __init__(self, class_size: int, limit: int):
        super().__init__(
            f"class has {int_text(class_size)} members up to reversal, exceeding the limit of "
            f"{int_text(limit)}"
        )
        self.class_size = class_size
        self.limit = limit


class ValueBudgetExceededError(Exception):
    """A census value table outgrew its memory budget.

    The attached counters describe partial progress only; they are not
    valid census statistics.  They count the distinct values and classes
    seen up to the step that crossed the budget, in the order of the scan
    that raised it: the kernel's rows (``census._value_table``) or the
    lexicographic members (``reference._scan_shard``).
    """

    def __init__(self, distinct_values_seen: int, budget: int, classes_evaluated: int):
        super().__init__(
            f"value table reached {int_text(distinct_values_seen)} distinct values, exceeding the "
            f"budget of {int_text(budget)} after {int_text(classes_evaluated)} classes; partial "
            "counts are not valid statistics"
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


# ---------------------------------------------------------------------------
# Continuant evaluation
# ---------------------------------------------------------------------------

def continuant(word: Sequence[int]) -> int:
    """K(word), by the three-term recursion with two rolling accumulators.

    The empty word gives 1.  Iterative, O(n) big-integer multiply-adds, no
    recursion depth limit.
    """
    prev, cur = 0, 1
    for a in word:
        if a < 1:
            raise ValueError(f"word letters must be integers >= 1, got {a!r}")
        prev, cur = cur, a * cur + prev
    return cur


def continuant_matrix(word: Sequence[int]) -> int:
    """K(word) as the determinant of the associated tridiagonal matrix.

    The matrix has the letters on the diagonal, -1 on the superdiagonal and
    +1 on the subdiagonal.  Evaluated by fraction-free (Bareiss) elimination
    on the dense matrix, exact over the integers, so this route stays
    algorithmically independent of the recursion in :func:`continuant`.

    The empty word is rejected; the 0x0 determinant case belongs to the
    recursive definition.
    """
    n = len(word)
    if n == 0:
        raise ValueError("matrix form needs a nonempty word")
    for a in word:
        if a < 1:
            raise ValueError(f"word letters must be integers >= 1, got {a!r}")
    m = [[0] * n for _ in range(n)]
    for i, a in enumerate(word):
        m[i][i] = a
        if i + 1 < n:
            m[i][i + 1] = -1
            m[i + 1][i] = 1
    # Bareiss: pivots are the leading principal minors, here continuants of
    # prefixes, hence always >= 1; no pivoting needed.
    denom = 1
    for k in range(n - 1):
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) // denom
            m[i][k] = 0
        denom = pivot
    return m[n - 1][n - 1]


def split_identity(word: Sequence[int], j: int) -> tuple[int, int]:
    """Both sides of the splitting identity at cut position j (1-based).

    Returns (K(w), K(w_1..w_j) K(w_{j+1}..w_n) + K(w_1..w_{j-1}) K(w_{j+2}..w_n)).
    The two components are always equal; the operation exists as a
    verification surface.
    """
    n = len(word)
    if not 1 <= j <= n - 1:
        raise IndexError(f"cut position must satisfy 1 <= j <= n-1, got j={j}, n={n}")
    lhs = continuant(word)
    rhs = continuant(word[:j]) * continuant(word[j:]) + continuant(word[: j - 1]) * continuant(
        word[j + 1 :]
    )
    return lhs, rhs


def doubling_bound_check(word: Sequence[int], j: int) -> bool:
    """Whether K(w) < 2 K(w_1..w_j) K(w_{j+1}..w_n) at cut j (1-based).

    Holds for every word except the degenerate two-letter all-ones case
    (w = 1,1 with j = 1, where both sides equal 2).
    """
    n = len(word)
    if not 1 <= j <= n - 1:
        raise IndexError(f"cut position must satisfy 1 <= j <= n-1, got j={j}, n={n}")
    return continuant(word) < 2 * continuant(word[:j]) * continuant(word[j:])


def generalized_fibonacci(r: int, j: int) -> int:
    """j-th element of the r-th generalized Fibonacci sequence.

    Q_{r,0} = 1, Q_{r,1} = r, Q_{r,j+1} = r Q_{r,j} + Q_{r,j-1}; equals the
    continuant of the constant word r^j.  r = 1 gives the Fibonacci numbers.
    """
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    if j < 0:
        raise ValueError(f"need j >= 0, got {j}")
    return continuant((r,) * j)


# ---------------------------------------------------------------------------
# Word text format: comma-separated positive decimal integers
# ---------------------------------------------------------------------------

def parse_word(text: str) -> Word:
    """Parse the comma-separated word format; the empty string is the empty word.

    Whitespace around tokens is ignored.  Raises ValueError naming the
    offending token on anything that is not a positive decimal integer.
    """
    return Word(_parse_positive(text, "word token"))


def _parse_positive(text: str, what: str) -> list[int]:
    """Comma-separated positive integers; ValueError names the bad token as ``what``.

    Tokens go through Decimal, which has no str-to-int digit limit.  A
    token that passes isdigit() yet is no decimal literal (such as a
    superscript digit) raises int()'s own ValueError, as it always has.
    """
    if text.strip() == "":
        return []
    out = []
    for token in text.split(","):
        tok = token.strip()
        try:
            n = int(Decimal(tok)) if tok.isdigit() else 0
        except InvalidOperation:
            n = int(tok)  # raises the ValueError int() gives for this token
        if n < 1:
            raise ValueError(f"invalid {what} {tok!r}: expected a positive integer")
        out.append(n)
    return out


def format_word(letters: Sequence[int]) -> str:
    try:
        return ",".join(map(str, letters))
    except ValueError:  # a letter past the int-to-str digit limit
        return ",".join(map(int_text, letters))


def int_text(n: int) -> str:
    """Every decimal digit of n; str() refuses ints past the int-to-str digit limit."""
    return str(Decimal(n))
