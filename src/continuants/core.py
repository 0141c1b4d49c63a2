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
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass(frozen=True)
class LacunaryShape:
    """Descriptor (t, l, s, low) of an alphabet {b_1<...<b_t} | {l+1,...,s}.

    The low part ``low = (b_1, ..., b_t)`` sits entirely at or below ``l``
    and the high part is the full integer interval l+1 .. s.
    """

    t: int
    l: int
    s: int
    low: tuple[int, ...]

    def __post_init__(self) -> None:
        if not (1 <= self.t <= self.l < self.s):
            raise ValueError(f"need 1 <= t <= l < s, got t={self.t}, l={self.l}, s={self.s}")
        if len(self.low) != self.t:
            raise ValueError(f"low part has {len(self.low)} letters, expected t={self.t}")
        if any(b < 1 for b in self.low):
            raise ValueError("low-part letters must be >= 1")
        if any(x >= y for x, y in zip(self.low, self.low[1:])):
            raise ValueError("low-part letters must be strictly increasing")
        if self.low[-1] > self.l:
            raise ValueError(f"largest low-part letter {self.low[-1]} exceeds l={self.l}")

    @property
    def letters(self) -> tuple[int, ...]:
        return self.low + tuple(range(self.l + 1, self.s + 1))

    @property
    def size(self) -> int:
        return self.s - self.l + self.t


@dataclass(frozen=True)
class Alphabet:
    """A strictly increasing tuple of positive integer letters.

    ``shape`` is an optional lacunary descriptor; when present the letters
    are exactly shape.low followed by the interval l+1 .. s.
    """

    letters: tuple[int, ...]
    shape: LacunaryShape | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "letters", tuple(self.letters))
        for a in self.letters:
            if not isinstance(a, int) or isinstance(a, bool) or a < 1:
                raise ValueError(f"alphabet letters must be integers >= 1, got {a!r}")
        if any(x >= y for x, y in zip(self.letters, self.letters[1:])):
            raise ValueError("alphabet letters must be strictly increasing")
        if self.shape is not None and self.shape.letters != self.letters:
            raise ValueError(
                f"lacunary descriptor expands to {self.shape.letters}, not {self.letters}"
            )

    @classmethod
    def from_lacunary(cls, t: int, l: int, s: int, low: Iterable[int]) -> "Alphabet":
        shape = LacunaryShape(t, l, s, tuple(low))
        return cls(shape.letters, shape)

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

    def is_equipartitioned(self) -> bool:
        return len(set(self.counts)) <= 1

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
    prev, cur = 0, 1
    for _ in range(j):
        prev, cur = cur, r * cur + prev
    return cur


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
    """Comma-separated positive integers; ValueError names the bad token as ``what``."""
    if text.strip() == "":
        return []
    out = []
    for token in text.split(","):
        tok = token.strip()
        if not tok.isdigit() or int(tok) < 1:
            raise ValueError(f"invalid {what} {tok!r}: expected a positive integer")
        out.append(int(tok))
    return out


def format_word(letters: Sequence[int]) -> str:
    return ",".join(str(a) for a in letters)
