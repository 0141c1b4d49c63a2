"""Counting bounds, growth thresholds, and certified real comparisons.

Everything decidable over the integers or rationals is decided exactly:
the distinct-value upper bound 2^{2s} s! ((s+1)!)^m, the class-size lower
bound ((s-l+t)m)! / (2 (m!)^{s-l+t}), and the repetition threshold from
which the simplified per-letter bound holds (least m with
2^{2s} s! 99^m <= 100^m).  That threshold compares directed-rounding
dyadic enclosures of 100^m and 99^m (a 128-bit mantissa beside a binary
exponent) and builds the exact powers only when the enclosures cannot
settle the comparison.

Transcendental quantities (powers of e, pi, square roots) are evaluated as
interval enclosures with exact rational endpoints: the constants e and pi
come from series with rational truncation-error brackets, square roots use
integer isqrt with directed rounding, and all other arithmetic is exact on
Fractions.  A threshold comparison is decided only when the enclosure
excludes the threshold; otherwise precision doubles, up to MAX_PREC_BITS,
and failing that the comparison raises instead of guessing.  The printed
enclosures are taken at DEFAULT_PREC_BITS; only growth_factor, which the
growth check climbs through, takes a precision, checked by
_check_precision (1 <= prec <= MAX_PREC_BITS).  Boundary
misclassification would silently change which alphabets count as
admissible, so nothing here ever rounds to nearest.

Floats only ever propose where a search starts; each answer is then
certified by exact checks on both sides of it.  Certified reals are
printed by rounding their exact midpoint and padded radius with one
integer divmod each, to the digits Decimal division would give.

Quantities tied to a lacunary alphabet {b_1<...<b_t} | {l+1..s}:

* density_power(t, l, s): ((s-l+t)/(s+1))^{s+1}, the (s+1)-th power of the
  alphabet-density ratio.  Exactly rational; increases in s toward
  e^{-(l-t)-1}.
* density_threshold_s(t, l): least s where density_power reaches half its
  limit, scanned from a float proposal after stepping down past every s
  that is not certified below it.
* growth_factor(t, l, s): (363/800) e^{s-l+t} / (sqrt(2 pi (s+1))
  (s-l+t)^{l-t+1}).  For large repetition counts m the class-size to
  distinct-value ratio N/P of equipartitioned classes exceeds
  growth_factor^m, so any s with growth_factor > 1 forces value collisions
  whose multiplicity grows geometrically.
* smallest_admissible_s(t, l): least such s (also >= the threshold above
  and > l, since the alphabet shape needs l < s).  bounds_report alone
  decides admissibility; is_admissible and smallest_admissible_s read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache

from .core import check_shape, int_text

DEFAULT_PREC_BITS = 128
MAX_PREC_BITS = 4096

# Extra working bits on top of the requested precision.
_GUARD_BITS = 16

# Mantissa bits of the directed-rounding powers in simplified_bound_threshold.
_DYADIC_BITS = 128


def _check_precision(prec: int) -> None:
    """Raise ValueError unless 1 <= prec <= MAX_PREC_BITS."""
    if prec < 1:
        raise ValueError(f"precision must be positive, got {prec}")
    if prec > MAX_PREC_BITS:
        raise ValueError(f"precision must be at most {int_text(MAX_PREC_BITS)} bits, got {int_text(prec)}")


class PrecisionExhaustedError(Exception):
    """A certified comparison stayed undecided at the maximum precision."""

    def __init__(self, description: str, max_prec: int):
        super().__init__(
            f"{description}: enclosure still straddles the threshold at {max_prec} bits"
        )
        self.description = description
        self.max_prec = max_prec


def _next_prec(q: int, description: str) -> int:
    """The rung after q of a doubling ladder; at MAX_PREC_BITS, raise for ``description``."""
    if q >= MAX_PREC_BITS:
        raise PrecisionExhaustedError(description, MAX_PREC_BITS)
    return min(2 * q, MAX_PREC_BITS)


# ---------------------------------------------------------------------------
# Rational enclosures.  Each quantity is a (lo, hi) pair of exact Fractions,
# lo <= hi.  The constants e and pi are rounded outward to q-bit dyadics and
# sqrt(2 pi n) outward at q bits; everything else is exact Fraction arithmetic,
# with each endpoint built from the matching endpoints of its positive inputs.
# ---------------------------------------------------------------------------

def _dyadic_floor(x: Fraction, q: int) -> Fraction:
    return Fraction((x.numerator << q) // x.denominator, 1 << q)


def _dyadic_ceil(x: Fraction, q: int) -> Fraction:
    return Fraction(-((-x.numerator << q) // x.denominator), 1 << q)


@lru_cache(maxsize=None)
def _e_interval(q: int) -> tuple[Fraction, Fraction]:
    """Enclosure of e from partial sums of sum 1/k!; remainder < 2/(K+1)!."""
    k, fact, t = 0, 1, 1
    while fact.bit_length() <= q + 5:  # (K+1)! >= 2^(q+5) makes 2/(K+1)! <= 2^-(q+4)
        k += 1
        fact *= k
        t = 1 + k * t  # Horner: t = sum_{i <= k} k!/i!
    lo = Fraction(t, fact)
    hi = lo + Fraction(2, fact * (k + 1))
    return _dyadic_floor(lo, q), _dyadic_ceil(hi, q)


def _atan_inv_brackets(x: int, eps: Fraction) -> tuple[Fraction, Fraction]:
    """Brackets for arctan(1/x) by the alternating series, error <= first omitted term."""
    s = Fraction(0)
    k = 0
    while True:
        term = Fraction(1, (2 * k + 1) * x ** (2 * k + 1))
        if term <= eps:
            return s - term, s + term
        s += term if k % 2 == 0 else -term
        k += 1


@lru_cache(maxsize=None)
def _pi_interval(q: int) -> tuple[Fraction, Fraction]:
    """Enclosure of pi via Machin's formula 16 atan(1/5) - 4 atan(1/239)."""
    eps = Fraction(1, 1 << (q + 8))
    a5_lo, a5_hi = _atan_inv_brackets(5, eps / 32)
    a239_lo, a239_hi = _atan_inv_brackets(239, eps / 8)
    lo = 16 * a5_lo - 4 * a239_hi
    hi = 16 * a5_hi - 4 * a239_lo
    return _dyadic_floor(lo, q), _dyadic_ceil(hi, q)


def _sqrt_2pi_interval(n: int, q: int) -> tuple[Fraction, Fraction]:
    """Enclosure of sqrt(2 pi n) for n >= 1, isqrt rounded outward at q bits."""
    pi_lo, pi_hi = _pi_interval(q)
    r_lo = math.isqrt((2 * n * pi_lo.numerator << (2 * q)) // pi_lo.denominator)
    t_hi = -((-2 * n * pi_hi.numerator << (2 * q)) // pi_hi.denominator)
    r_hi = math.isqrt(t_hi)
    if r_hi * r_hi < t_hi:
        r_hi += 1
    return Fraction(r_lo, 1 << q), Fraction(r_hi, 1 << q)


# ---------------------------------------------------------------------------
# Certified real values
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CertifiedReal:
    """An interval [lower, upper] of exact rationals enclosing a real value.

    ``prec_bits`` records the working precision used to produce the
    enclosure; 0 marks an exactly rational value (lower == upper).
    """

    lower: Fraction
    upper: Fraction
    prec_bits: int

    def __post_init__(self) -> None:
        if self.lower > self.upper:
            raise ValueError(f"empty enclosure: {self.lower} > {self.upper}")

    @property
    def midpoint(self) -> Fraction:
        return (self.lower + self.upper) / 2

    @property
    def radius(self) -> Fraction:
        return (self.upper - self.lower) / 2

    @property
    def is_exact(self) -> bool:
        return self.lower == self.upper

    def to_json_dict(self, digits: int = 36) -> dict:
        # The midpoint N/D and radius R/D share the unreduced denominator
        # D = 2bd.  The decimal radius is padded by the midpoint's decimal
        # rounding error and rounded up, so the serialized interval still
        # contains the true value.
        a, b = self.lower.numerator, self.lower.denominator
        c, d = self.upper.numerator, self.upper.denominator
        n, r, den = a * d + c * b, c * b - a * d, 2 * b * d
        coef, exp = _round_quotient(n, den, digits, ceiling=False)
        scale = 10 ** abs(exp)
        if exp >= 0:  # error |N/D - coef 10^exp| over D
            pad, pad_den = r + abs(n - coef * scale * den), den
        else:  # over D 10^-exp
            pad, pad_den = r * scale + abs(n * scale - coef * den), den * scale
        return {
            "midpoint": _decimal_text(coef, exp),
            "radius": _decimal_text(*_round_quotient(pad, pad_den, digits, ceiling=True)),
            "precision_bits": self.prec_bits,
        }


def _round_quotient(n: int, d: int, digits: int, *, ceiling: bool) -> tuple[int, int]:
    """(coefficient, exponent) of Decimal(n) / Decimal(d), for d > 0, in a
    context of ``digits`` digits rounding half-even, or toward +infinity
    when ``ceiling``.

    A float log proposes the exponent that leaves a ``digits``-digit
    quotient, and one divmod checks it (another only when the proposal is
    off by one).  The remainder decides the rounding; an exact quotient
    sheds trailing zeros toward exponent 0, as Decimal division does.
    """
    if n == 0:
        return 0, 0
    mag = abs(n)
    exp = math.floor(math.log10(mag) - math.log10(d)) - digits + 1
    while True:
        num, den = (mag, d * 10**exp) if exp >= 0 else (mag * 10**-exp, d)
        quo, rem = divmod(num, den)
        if quo >= 10**digits:
            exp += 1
        elif quo < 10 ** (digits - 1):
            exp -= 1
        else:
            break
    if ceiling:
        up = rem > 0 and n > 0
    else:
        up = 2 * rem > den or (2 * rem == den and quo % 2 == 1)
    if up:
        quo += 1
        if quo == 10**digits:
            quo, exp = quo // 10, exp + 1
    elif rem == 0:
        while exp < 0 and quo % 10 == 0:
            quo, exp = quo // 10, exp + 1
    return (quo if n > 0 else -quo), exp


def _decimal_text(coef: int, exp: int) -> str:
    return str(Decimal((int(coef < 0), tuple(map(int, str(abs(coef)))), exp)))


# ---------------------------------------------------------------------------
# Exact integer bounds
# ---------------------------------------------------------------------------

def value_count_upper_bound(s: int, m: int) -> int:
    """Upper bound 2^{2s} s! ((s+1)!)^m on distinct continuant values.

    Bounds the number of distinct values over any equipartitioned class
    with repetition count m on an alphabet whose largest letter is s;
    strictly increasing in both arguments.
    """
    if s < 2:
        raise ValueError(f"need s >= 2, got {s}")
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    return (1 << (2 * s)) * math.factorial(s) * math.factorial(s + 1) ** m


def class_count_lower_bound(t: int, l: int, s: int, m: int) -> int:
    """Lower bound floor(((s-l+t)m)! / (2 (m!)^{s-l+t})) on the class size.

    The true quotient is a half-integer when palindromes exist; flooring
    keeps it a valid lower bound for the reversal-quotient count.
    """
    check_shape(t, l, s)
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    k = s - l + t
    return math.factorial(k * m) // (2 * math.factorial(m) ** k)


def _dyadic_pow(b: int, m: int, *, up: bool) -> tuple[int, int]:
    """(x, e) with x 2^e <= b^m, or >= b^m when ``up``; x has at most
    _DYADIC_BITS bits (one more after an upward carry).

    Left-to-right square-and-multiply; each step's exact product is
    rounded down (up) to the mantissa width, so it stays on its side.
    """
    x, e = 1, 0
    for bit in bin(m)[2:]:
        x, e = x * x, 2 * e
        if bit == "1":
            x *= b
        extra = x.bit_length() - _DYADIC_BITS
        if extra > 0:
            x = -(-x >> extra) if up else x >> extra
            e += extra
    return x, e


def _dyadic_ge(x: tuple[int, int], c: int, y: tuple[int, int]) -> bool:
    """a 2^e >= c b 2^f for x = (a, e) and y = (b, f), by one shift and compare."""
    (a, e), (b, f) = x, y
    return a << (e - f) >= c * b if e >= f else a >= (c * b) << (f - e)


def _exact_ge(m: int, target: int) -> bool:
    """100^m >= target 99^m, with both sides built."""
    return 100**m >= target * 99**m


def _power_ratio_ge(m: int, target: int) -> bool:
    """100^m >= target 99^m, decided by dyadic enclosures when they settle it."""
    if _dyadic_ge(_dyadic_pow(100, m, up=False), target, _dyadic_pow(99, m, up=True)):
        return True
    if not _dyadic_ge(_dyadic_pow(100, m, up=True), target, _dyadic_pow(99, m, up=False)):
        return False
    return _exact_ge(m, target)


def simplified_bound_threshold(s: int) -> int:
    """Least m with 2^{2s} s! 99^m <= 100^m, decided exactly.

    From this repetition count on, the distinct-value bound collapses to
    ((100/99) (s+1)!)^m.  A float logarithm only picks the starting m; the
    predicate is monotone in m, and certified checks step from there to
    the least m that satisfies it.  Each check brackets 100^m and 99^m
    between directed-rounding dyadic powers and compares the brackets by
    an integer shift; only when they overlap the target are the exact
    powers built and compared.
    """
    if s < 2:
        raise ValueError(f"need s >= 2, got {s}")
    target = (1 << (2 * s)) * math.factorial(s)
    m = max(1, math.ceil(math.log(target) / math.log1p(1 / 99)))
    while _power_ratio_ge(m - 1, target):  # never holds at m = 1 since target > 1
        m -= 1
    while not _power_ratio_ge(m, target):
        m += 1
    return m


# ---------------------------------------------------------------------------
# Density power, growth factor, thresholds
# ---------------------------------------------------------------------------

def _density(c: int, s: int) -> Fraction:
    """((s-c+1)/(s+1))^{s+1}: density_power(t, l, s) for c = l-t+1."""
    return Fraction(s - c + 1, s + 1) ** (s + 1)


def density_power(t: int, l: int, s: int) -> CertifiedReal:
    """((s-l+t)/(s+1))^{s+1} as an exact rational enclosure (radius 0).

    Strictly increasing in s on [l-t+1, oo), with limit e^{-(l-t)-1}.
    """
    check_shape(t, l)
    if s < l - t:
        raise ValueError(f"density base is negative for s={s} < l-t={l - t}")
    f = _density(l - t + 1, s)
    return CertifiedReal(f, f, 0)


def _half_exp_neg_interval(c: int, q: int) -> tuple[Fraction, Fraction]:
    """Enclosure of e^{-c} / 2 for integer c >= 1."""
    e_lo, e_hi = _e_interval(q)
    return Fraction(1, 2) / e_hi**c, Fraction(1, 2) / e_lo**c


def _density_start(c: int) -> int:
    """Float proposal for the least s >= c with (s+1) log1p(-c/(s+1)) >= -c - log 2,
    the log form of density_threshold_s's test; found by doubling and bisection."""

    def reaches(s: int) -> bool:
        return (s + 1) * math.log1p(-c / (s + 1)) >= -c - math.log(2)

    if reaches(c):
        return c
    lo, hi = c, 2 * c
    while not reaches(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if reaches(mid) else (mid, hi)
    return hi


def density_threshold_s(t: int, l: int) -> int:
    """Least s >= l-t+1 with density_power(t, l, s) >= e^{-(l-t)-1} / 2.

    The left side is exactly rational and the threshold is irrational, so
    the certified comparison resolves at some precision, which the scan
    doubles from DEFAULT_PREC_BITS.  A float proposes where the scan
    starts.  The start steps down while the s below it is not certified
    below the threshold at the first precision; the density power
    increases in s, so every s left below is one a scan from l-t+1 would
    reject at that precision, and the scan from the start reaches the same
    s, precisions and errors.  A finer enclosure never changes a decision,
    so the scan keeps the precision it has reached and rebuilds e^{-c}/2
    only when the precision doubles.
    """
    check_shape(t, l)
    c = l - t + 1
    s, q = _density_start(c), DEFAULT_PREC_BITS
    thr_lo, thr_hi = _half_exp_neg_interval(c, q + _GUARD_BITS)
    while s > c and _density(c, s - 1) >= thr_lo:
        s -= 1
    while True:
        f = _density(c, s)
        if f >= thr_hi:
            return s
        if f < thr_lo:
            s += 1
        else:
            q = _next_prec(q, f"density_power({t},{l},{s}) vs half-limit")
            thr_lo, thr_hi = _half_exp_neg_interval(c, q + _GUARD_BITS)


def growth_factor(t: int, l: int, s: int, *, prec: int = DEFAULT_PREC_BITS) -> CertifiedReal:
    """Certified enclosure of the per-repetition collision growth factor.

    (363/400) e^{s+1} / (sqrt(2 pi (s+1)) (s-l+t)^{l-t+1}) * e^{-(l-t)-1}/2,
    with the e powers folded to e^{s-l+t}.
    """
    check_shape(t, l, s)
    _check_precision(prec)
    q = prec + _GUARD_BITS
    k = s - l + t
    e_lo, e_hi = _e_interval(q)
    r_lo, r_hi = _sqrt_2pi_interval(s + 1, q)
    c = Fraction(363, 800 * k ** (l - t + 1))
    return CertifiedReal(c * e_lo**k / r_hi, c * e_hi**k / r_lo, prec)


def _growth_exceeds_one(t: int, l: int, s: int, g: CertifiedReal) -> bool:
    """Whether growth_factor(t, l, s) > 1, decided from its enclosure g.

    Only while g straddles 1 is it rebuilt, at twice its precision, up to
    MAX_PREC_BITS.
    """
    while not (g.lower > 1 or g.upper < 1):
        g = growth_factor(t, l, s, prec=_next_prec(g.prec_bits, f"growth_factor({t},{l},{s}) vs 1"))
    return g.lower > 1


def smallest_admissible_s(t: int, l: int) -> int:
    """Least s >= max(density_threshold_s(t, l), l+1) with growth_factor > 1.

    Exists because the growth factor behaves like e^s over a polynomial.
    """
    return bounds_report(t, l, find_admissible=True).admissible_s


def is_admissible(t: int, l: int, s: int) -> bool:
    """Whether the alphabet shape (t, l, s) has certified growth_factor > 1.

    Also requires s >= density_threshold_s(t, l) (the growth bound only
    applies from there on) and s > l (the shape itself needs it).
    """
    return bounds_report(t, l, s).admissible


def stirling_enclosure(n: int) -> tuple[CertifiedReal, CertifiedReal]:
    """Certified (lower, upper) factorial bounds around n!, at DEFAULT_PREC_BITS.

    lower encloses e^{-n} n^n sqrt(2 pi n) and upper encloses 12/11 times
    that; the exact factorial lies strictly between the two enclosed
    values for every n >= 1.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    prec = DEFAULT_PREC_BITS
    q = prec + _GUARD_BITS
    e_lo, e_hi = _e_interval(q)
    r_lo, r_hi = _sqrt_2pi_interval(n, q)
    lo, hi = r_lo * n**n / e_hi**n, r_hi * n**n / e_lo**n
    c = Fraction(12, 11)
    return CertifiedReal(lo, hi, prec), CertifiedReal(c * lo, c * hi, prec)


# ---------------------------------------------------------------------------
# Bundled report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundsReport:
    """All bound and threshold values for one parameter choice.

    Fields not derivable from the supplied parameters are None: s-dependent
    quantities need s, the integer bounds need s and m, and admissible_s is
    only searched on request.
    """

    t: int
    l: int
    s: int | None
    m: int | None
    s_threshold: int
    m_threshold: int | None
    density_power: CertifiedReal | None
    growth_factor: CertifiedReal | None
    admissible: bool | None
    admissible_s: int | None
    value_count_upper: int | None
    class_count_lower: int | None

    def to_json_dict(self) -> dict:
        return {
            "t": self.t,
            "l": self.l,
            "s": self.s,
            "m": self.m,
            "s_threshold": self.s_threshold,
            "m_threshold": self.m_threshold,
            "density_power": None if self.density_power is None else self.density_power.to_json_dict(),
            "growth_factor": None if self.growth_factor is None else self.growth_factor.to_json_dict(),
            "admissible": self.admissible,
            "admissible_s": self.admissible_s,
            "value_count_upper": None if self.value_count_upper is None else str(self.value_count_upper),
            "class_count_lower": None if self.class_count_lower is None else str(self.class_count_lower),
        }


def bounds_report(
    t: int, l: int, s: int | None = None, m: int | None = None, *, find_admissible: bool = False
) -> BoundsReport:
    """Evaluate every bound derivable from the given parameters.

    The only code that combines the density threshold with the certified
    growth check.  The whole input is checked, the integer bounds included,
    before the density scan.  The printed growth-factor enclosure and the
    first rung of each growth check are at DEFAULT_PREC_BITS.
    """
    check_shape(t, l, s)
    if m is not None and s is None:
        raise ValueError("m was given without s")
    vcu = ccl = None
    if m is not None:
        vcu = value_count_upper_bound(s, m)
        ccl = class_count_lower_bound(t, l, s, m)
    s_thr = density_threshold_s(t, l)
    m_thr = dens = growth = adm = None
    if s is not None:
        m_thr = simplified_bound_threshold(s)
        dens = density_power(t, l, s)
        growth = growth_factor(t, l, s, prec=DEFAULT_PREC_BITS)
        adm = s >= s_thr and _growth_exceeds_one(t, l, s, growth)
    adm_s = None
    if find_admissible:
        adm_s = max(s_thr, l + 1)
        while not _growth_exceeds_one(t, l, adm_s, growth_factor(t, l, adm_s, prec=DEFAULT_PREC_BITS)):
            adm_s += 1
    return BoundsReport(
        t=t,
        l=l,
        s=s,
        m=m,
        s_threshold=s_thr,
        m_threshold=m_thr,
        density_power=dens,
        growth_factor=growth,
        admissible=adm,
        admissible_s=adm_s,
        value_count_upper=vcu,
        class_count_lower=ccl,
    )
