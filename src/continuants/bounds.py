"""Counting bounds, growth thresholds, and certified real comparisons.

Everything decidable over the integers or rationals is decided exactly:
the distinct-value upper bound 2^{2s} s! ((s+1)!)^m, the class-size lower
bound ((s-l+t)m)! / (2 (m!)^{s-l+t}), and the repetition threshold from
which the simplified per-letter bound holds (least m with
2^{2s} s! 99^m <= 100^m).

Transcendental quantities (powers of e, pi, square roots) are evaluated as
interval enclosures with exact rational endpoints: the constants e and pi
come from series with rational truncation-error brackets, square roots use
integer isqrt with directed rounding, and all other arithmetic is exact on
Fractions.  A threshold comparison is decided only when the enclosure
excludes the threshold; otherwise precision doubles, up to a hard maximum,
and failing that the comparison raises instead of guessing.  Boundary
misclassification would silently change which alphabets count as
admissible, so nothing here ever rounds to nearest.

Quantities tied to a lacunary alphabet {b_1<...<b_t} | {l+1..s}:

* density_power(t, l, s): ((s-l+t)/(s+1))^{s+1}, the (s+1)-th power of the
  alphabet-density ratio.  Exactly rational; increases in s toward
  e^{-(l-t)-1}.
* density_threshold_s(t, l): least s where density_power reaches half its
  limit.
* growth_factor(t, l, s): (363/800) e^{s-l+t} / (sqrt(2 pi (s+1))
  (s-l+t)^{l-t+1}).  For large repetition counts m the class-size to
  distinct-value ratio N/P of equipartitioned classes exceeds
  growth_factor^m, so any s with growth_factor > 1 forces value collisions
  whose multiplicity grows geometrically.
* smallest_admissible_s(t, l): least such s (also >= the threshold above
  and > l, since the alphabet shape needs l < s).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import ROUND_CEILING, ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from functools import lru_cache

from .core import check_shape

DEFAULT_PREC_BITS = 128
MAX_PREC_BITS = 4096

# Extra working bits on top of the requested precision.
_GUARD_BITS = 16


class PrecisionExhaustedError(Exception):
    """A certified comparison stayed undecided at the maximum precision."""

    def __init__(self, description: str, max_prec: int):
        super().__init__(
            f"{description}: enclosure still straddles the threshold at {max_prec} bits"
        )
        self.description = description
        self.max_prec = max_prec


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
    k, fact = 0, 1
    while fact.bit_length() <= q + 5:  # (K+1)! >= 2^(q+5) makes 2/(K+1)! <= 2^-(q+4)
        k += 1
        fact *= k
    s = Fraction(0)
    f = 1
    for i in range(k):
        s += Fraction(1, f)
        f *= i + 1
    s += Fraction(1, f)  # term 1/K!
    lo = s
    hi = s + Fraction(2, f * (k + 1))
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

    def definitely_greater(self, c) -> bool:
        return self.lower > Fraction(c)

    def definitely_less(self, c) -> bool:
        return self.upper < Fraction(c)

    def to_json_dict(self, digits: int = 36) -> dict:
        # The decimal radius is padded by the midpoint's decimal rounding
        # error and rounded up, so the serialized interval still contains
        # the true value.
        mid = self.midpoint
        mid_dec = _fraction_to_decimal(mid, digits, ROUND_HALF_EVEN)
        err = abs(mid - Fraction(mid_dec))
        rad_dec = _fraction_to_decimal(self.radius + err, digits, ROUND_CEILING)
        return {
            "midpoint": str(mid_dec),
            "radius": str(rad_dec),
            "precision_bits": self.prec_bits,
        }


def _fraction_to_decimal(x: Fraction, digits: int, rounding: str) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = digits
        ctx.rounding = rounding
        return Decimal(x.numerator) / Decimal(x.denominator)


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


def simplified_bound_threshold(s: int) -> int:
    """Least m with 2^{2s} s! 99^m <= 100^m, decided in exact integer arithmetic.

    From this repetition count on, the distinct-value bound collapses to
    ((100/99) (s+1)!)^m.  A float logarithm only picks the starting m; the
    predicate is monotone in m, and exact integer checks step from there to
    the least m that satisfies it.
    """
    if s < 2:
        raise ValueError(f"need s >= 2, got {s}")
    target = (1 << (2 * s)) * math.factorial(s)
    m = max(1, math.ceil(math.log(target) / math.log1p(1 / 99)))
    # Invariant: p = 100^m and q = target 99^m, so ok(m) is p >= q.
    p, q = 100**m, target * 99**m
    while 99 * p >= 100 * q:  # ok(m - 1); never holds at m = 1 since target > 1
        p, q, m = p // 100, q // 99, m - 1
    while p < q:
        p, q, m = p * 100, q * 99, m + 1
    return m


# ---------------------------------------------------------------------------
# Density power, growth factor, thresholds
# ---------------------------------------------------------------------------

def _density_fraction(t: int, l: int, s: int) -> Fraction:
    check_shape(t, l)
    if s < l - t:
        raise ValueError(f"density base is negative for s={s} < l-t={l - t}")
    return Fraction(s - l + t, s + 1) ** (s + 1)


def density_power(t: int, l: int, s: int) -> CertifiedReal:
    """((s-l+t)/(s+1))^{s+1} as an exact rational enclosure (radius 0).

    Strictly increasing in s on [l-t+1, oo), with limit e^{-(l-t)-1}.
    """
    f = _density_fraction(t, l, s)
    return CertifiedReal(f, f, 0)


def _half_exp_neg_interval(c: int, q: int) -> tuple[Fraction, Fraction]:
    """Enclosure of e^{-c} / 2 for integer c >= 1."""
    e_lo, e_hi = _e_interval(q)
    return Fraction(1, 2) / e_hi**c, Fraction(1, 2) / e_lo**c


def density_threshold_s(
    t: int,
    l: int,
    *,
    prec: int = DEFAULT_PREC_BITS,
    max_prec: int = MAX_PREC_BITS,
) -> int:
    """Least s >= l-t+1 with density_power(t, l, s) >= e^{-(l-t)-1} / 2.

    The left side is exactly rational and the threshold is irrational, so
    the certified comparison always resolves at some precision.  A finer
    enclosure never changes a decision, so the scan keeps the precision it
    has reached and rebuilds e^{-c}/2 only when the precision doubles.
    """
    check_shape(t, l)
    c = l - t + 1
    s, q = c, prec
    thr_lo, thr_hi = _half_exp_neg_interval(c, q + _GUARD_BITS)
    while True:
        f = _density_fraction(t, l, s)
        if f >= thr_hi:
            return s
        if f < thr_lo:
            s += 1
        elif q >= max_prec:
            raise PrecisionExhaustedError(f"density_power({t},{l},{s}) vs half-limit", max_prec)
        else:
            q = min(2 * q, max_prec)
            thr_lo, thr_hi = _half_exp_neg_interval(c, q + _GUARD_BITS)


def growth_factor(t: int, l: int, s: int, *, prec: int = DEFAULT_PREC_BITS) -> CertifiedReal:
    """Certified enclosure of the per-repetition collision growth factor.

    (363/400) e^{s+1} / (sqrt(2 pi (s+1)) (s-l+t)^{l-t+1}) * e^{-(l-t)-1}/2,
    with the e powers folded to e^{s-l+t}.
    """
    check_shape(t, l, s)
    q = prec + _GUARD_BITS
    k = s - l + t
    e_lo, e_hi = _e_interval(q)
    r_lo, r_hi = _sqrt_2pi_interval(s + 1, q)
    c = Fraction(363, 800 * k ** (l - t + 1))
    return CertifiedReal(c * e_lo**k / r_hi, c * e_hi**k / r_lo, prec)


def _growth_exceeds_one(t: int, l: int, s: int, g: CertifiedReal, max_prec: int) -> bool:
    """Whether growth_factor(t, l, s) > 1, decided from its enclosure g.

    Only while g straddles 1 is it rebuilt, at twice its precision, up to
    max_prec.
    """
    while not (g.definitely_greater(1) or g.definitely_less(1)):
        if g.prec_bits >= max_prec:
            raise PrecisionExhaustedError(f"growth_factor({t},{l},{s}) vs 1", max_prec)
        g = growth_factor(t, l, s, prec=min(2 * g.prec_bits, max_prec))
    return g.definitely_greater(1)


def smallest_admissible_s(
    t: int,
    l: int,
    *,
    prec: int = DEFAULT_PREC_BITS,
    max_prec: int = MAX_PREC_BITS,
) -> int:
    """Least s >= max(density_threshold_s(t, l), l+1) with growth_factor > 1.

    Exists because the growth factor behaves like e^s over a polynomial.
    """
    return _smallest_admissible_s(
        t, l, density_threshold_s(t, l, prec=prec, max_prec=max_prec), prec, max_prec
    )


def _smallest_admissible_s(t: int, l: int, s_thr: int, prec: int, max_prec: int) -> int:
    """smallest_admissible_s with density_threshold_s(t, l) = s_thr already known."""
    s = max(s_thr, l + 1)
    while not _growth_exceeds_one(t, l, s, growth_factor(t, l, s, prec=prec), max_prec):
        s += 1
    return s


def is_admissible(
    t: int,
    l: int,
    s: int,
    *,
    prec: int = DEFAULT_PREC_BITS,
    max_prec: int = MAX_PREC_BITS,
) -> bool:
    """Whether the alphabet shape (t, l, s) has certified growth_factor > 1.

    Also requires s >= density_threshold_s(t, l) (the growth bound only
    applies from there on) and s > l (the shape itself needs it).
    """
    check_shape(t, l, s)
    if s < density_threshold_s(t, l, prec=prec, max_prec=max_prec):
        return False
    return _growth_exceeds_one(t, l, s, growth_factor(t, l, s, prec=prec), max_prec)


def stirling_enclosure(n: int, *, prec: int = DEFAULT_PREC_BITS) -> tuple[CertifiedReal, CertifiedReal]:
    """Certified (lower, upper) factorial bounds around n!.

    lower encloses e^{-n} n^n sqrt(2 pi n) and upper encloses 12/11 times
    that; the exact factorial lies strictly between the two enclosed
    values for every n >= 1.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
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
    t: int,
    l: int,
    s: int | None = None,
    m: int | None = None,
    *,
    find_admissible: bool = False,
    prec: int = DEFAULT_PREC_BITS,
    max_prec: int = MAX_PREC_BITS,
) -> BoundsReport:
    """Evaluate every bound derivable from the given parameters."""
    check_shape(t, l)
    if m is not None and s is None:
        raise ValueError("m was given without s")
    s_thr = density_threshold_s(t, l, prec=prec, max_prec=max_prec)
    m_thr = dens = growth = adm = vcu = ccl = None
    if s is not None:
        check_shape(t, l, s)
        m_thr = simplified_bound_threshold(s)
        dens = density_power(t, l, s)
        growth = growth_factor(t, l, s, prec=prec)
        adm = s >= s_thr and _growth_exceeds_one(t, l, s, growth, max_prec)
        if m is not None:
            vcu = value_count_upper_bound(s, m)
            ccl = class_count_lower_bound(t, l, s, m)
    adm_s = _smallest_admissible_s(t, l, s_thr, prec, max_prec) if find_admissible else None
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
