"""Counting bounds, thresholds, and certified enclosures.

mpmath (plain high-precision point arithmetic, 60 digits) serves as the
independent oracle for every transcendental quantity; the implementation
itself never touches it.
"""

import inspect
import math
import random
from decimal import ROUND_CEILING, ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from types import SimpleNamespace

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from continuants import (
    Alphabet,
    CertifiedReal,
    ParikhVector,
    PrecisionExhaustedError,
    bounds_report,
    class_count_lower_bound,
    continuant,
    density_power,
    density_threshold_s,
    exact_class_count,
    growth_factor,
    is_admissible,
    max_arrangement,
    run_census,
    simplified_bound_threshold,
    smallest_admissible_s,
    stirling_enclosure,
    value_count_upper_bound,
)
from continuants import bounds

mpmath.mp.dps = 60


def growth_oracle(t, l, s):
    """H by direct substitution with 60-digit point arithmetic."""
    return (
        (mpmath.mpf(363) / 400)
        * mpmath.e ** (s + 1)
        / (mpmath.sqrt(2 * mpmath.pi * (s + 1)) * mpmath.mpf(s - l + t) ** (l - t + 1))
        * mpmath.mpf(1)
        / 2
        * mpmath.e ** (-(l - t) - 1)
    )


class TestValueCountUpperBound:
    def test_examples(self):
        assert value_count_upper_bound(2, 1) == 16 * 2 * 6 == 192
        assert value_count_upper_bound(2, 2) == 16 * 2 * 36 == 1152

    def test_strictly_increasing_in_both_arguments(self):
        for s in range(2, 6):
            for m in range(1, 5):
                assert value_count_upper_bound(s + 1, m) > value_count_upper_bound(s, m)
                assert value_count_upper_bound(s, m + 1) > value_count_upper_bound(s, m)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            value_count_upper_bound(1, 1)
        with pytest.raises(ValueError):
            value_count_upper_bound(2, 0)


class TestClassCountLowerBound:
    def test_examples(self):
        assert class_count_lower_bound(1, 1, 2, 2) == 3
        assert class_count_lower_bound(1, 1, 2, 1) == 1
        assert class_count_lower_bound(1, 1, 3, 2) == 45

    def test_bounds_true_class_count(self):
        # equipartitioned classes with n <= 12: exact count >= the bound
        for t, l, s in [(1, 1, 2), (1, 1, 3), (1, 2, 3), (2, 2, 3), (1, 1, 4), (2, 3, 5)]:
            k = s - l + t
            for m in range(1, 12 // k + 1):
                exact = exact_class_count(ParikhVector.equipartitioned(k, m))
                assert exact >= class_count_lower_bound(t, l, s, m)

    @pytest.mark.parametrize(
        "args, message",
        [
            ((2, 1, 3, 1), "need 1 <= t <= l < s, got t=2, l=1, s=3"),
            ((1, 2, 2, 1), "need 1 <= t <= l < s, got t=1, l=2, s=2"),
            ((1, 1, 2, 0), "need m >= 1, got 0"),
        ],
    )
    def test_rejects_bad_arguments(self, args, message):
        with pytest.raises(ValueError) as exc:
            class_count_lower_bound(*args)
        assert str(exc.value) == message


class TestSimplifiedBoundThreshold:
    def test_golden_value(self):
        # Independently re-derived below; frozen here.  The three large
        # values are those the earlier bisection over 100^m and 99^m gave.
        assert simplified_bound_threshold(2) == 345
        assert simplified_bound_threshold(54) == 23799
        assert simplified_bound_threshold(156) == 84722
        assert simplified_bound_threshold(158) == 86005

    def test_rejects_s_below_two(self):
        with pytest.raises(ValueError, match="^need s >= 2, got 1$"):
            simplified_bound_threshold(1)

    @pytest.mark.parametrize("offset", [3, -3])
    def test_float_start_only_proposes(self, monkeypatch, offset):
        # Start 3 above or below the float proposal: the certified steps
        # down or up must still reach the same least m.
        expected = [simplified_bound_threshold(s) for s in range(2, 61)]
        moved = SimpleNamespace(**{**vars(math), "ceil": lambda x: math.ceil(x) + offset})
        monkeypatch.setattr(bounds, "math", moved)
        assert [simplified_bound_threshold(s) for s in range(2, 61)] == expected

    def test_boundary_exactly(self):
        assert 32 * 99**344 > 100**344
        assert 32 * 99**345 <= 100**345

    def test_independent_accumulation_oracle(self):
        # Multiply 100/99 step by step until it absorbs 2^{2s} s!.
        for s in (2, 3):
            target = Fraction(2 ** (2 * s) * math.factorial(s))
            r, m = Fraction(1), 0
            while r < target:
                r *= Fraction(100, 99)
                m += 1
            assert simplified_bound_threshold(s) == m

    def test_least_m_for_every_s_up_to_160(self):
        # The defining property, with both sides built from scratch per s:
        # fails at m - 1, holds at m.
        for s in range(2, 161):
            m = simplified_bound_threshold(s)
            left, right = 100 ** (m - 1), 4**s * math.factorial(s) * 99 ** (m - 1)
            assert left < right, s
            assert 100 * left >= 99 * right, s

    def test_exact_fallback_decides_when_mantissas_are_tiny(self, monkeypatch):
        # Two-bit dyadic powers are far too coarse to settle a check near
        # the threshold, so each one there falls through to the exact
        # comparison.  The test stands in for it with its own: both sides
        # built from scratch, or carried from m - 1 by one multiplication.
        monkeypatch.setattr(bounds, "_DYADIC_BITS", 2)
        decided = {}  # m -> whether 100^m >= 4^s s! 99^m, for the current s
        sides = {}

        def exact(m, target):
            assert target == 4**s * math.factorial(s)
            if m - 1 in sides:
                p, q = sides[m - 1]
                p, q = 100 * p, 99 * q
            else:
                p, q = 100**m, target * 99**m
            sides[m] = p, q
            decided[m] = p >= q
            return decided[m]

        monkeypatch.setattr(bounds, "_exact_ge", exact)
        for s in range(2, 161):
            decided.clear()
            sides.clear()
            m = simplified_bound_threshold(s)
            assert (decided.get(m - 1), decided.get(m)) == (False, True), s

    @pytest.mark.parametrize("bits", [2, 128])
    def test_dyadic_powers_bracket_the_exact_power(self, monkeypatch, bits):
        monkeypatch.setattr(bounds, "_DYADIC_BITS", bits)
        for b in (99, 100):
            for m in [*range(0, 300), 4097, 84722]:
                power = b**m
                x, e = bounds._dyadic_pow(b, m, up=False)
                y, f = bounds._dyadic_pow(b, m, up=True)
                assert x * 2**e <= power <= y * 2**f, (b, m)
                if bits == 128:  # and tight: width under 2^-100 of the power
                    assert (y * 2**f - x * 2**e) << 100 <= power, (b, m)
                assert max(x, y).bit_length() <= bits + 1

    def test_exact_fallback_is_the_defining_inequality(self):
        for s in (2, 3, 10):
            m = simplified_bound_threshold(s)
            target = 4**s * math.factorial(s)
            assert not bounds._exact_ge(m - 1, target)
            assert bounds._exact_ge(m, target)

    def test_monotone_in_s(self):
        prev = 0
        for s in range(2, 8):
            cur = simplified_bound_threshold(s)
            assert cur > prev
            prev = cur

    def test_simplified_bound_holds_from_threshold_on(self):
        # For m >= threshold: 2^{2s} s! ((s+1)!)^m <= ((100/99)(s+1)!)^m,
        # checked as exact rationals; fails just below the threshold.
        for s in (2, 3):
            m0 = simplified_bound_threshold(s)
            fac = math.factorial(s + 1)
            for m in (m0, m0 + 1, m0 + 50):
                assert Fraction(value_count_upper_bound(s, m)) <= (Fraction(100, 99) * fac) ** m
            assert Fraction(value_count_upper_bound(s, m0 - 1)) > (Fraction(100, 99) * fac) ** (m0 - 1)


class TestDensityPower:
    def test_exact_rational_values(self):
        assert density_power(1, 1, 1).lower == Fraction(1, 4)
        assert density_power(1, 2, 3).lower == Fraction(1, 16)
        for cr in (density_power(1, 1, 1), density_power(1, 2, 3)):
            assert cr.is_exact
            assert cr.radius == 0

    def test_t_equals_l_form(self):
        for s in range(1, 8):
            assert density_power(1, 1, s).lower == Fraction(s, s + 1) ** (s + 1)

    def test_strictly_increasing_in_s(self):
        for t, l in [(1, 1), (1, 2), (2, 3), (1, 3)]:
            lo = l - t + 1
            for s in range(lo, lo + 12):
                assert density_power(t, l, s + 1).lower > density_power(t, l, s).lower

    def test_increases_toward_limit(self):
        # (s/(s+1))^{s+1} climbs toward 1/e and stays below it
        inv_e = mpmath.mpf(1) / mpmath.e
        for s in (5, 50, 500):
            f = density_power(1, 1, s).lower
            assert mpmath.mpf(f.numerator) / f.denominator < inv_e
        f = density_power(1, 1, 10_000).lower
        assert abs(mpmath.mpf(f.numerator) / f.denominator - inv_e) < mpmath.mpf("1e-4")

    def test_domain_error_on_negative_base(self):
        with pytest.raises(ValueError):
            density_power(1, 3, 1)  # s < l - t

    def test_serialized_exactly_when_dyadic(self):
        doc = density_power(1, 2, 3).to_json_dict()
        assert doc["midpoint"] == "0.0625"
        assert doc["radius"] == "0"


class TestDensityThreshold:
    def test_known_values(self):
        # frozen from the 60-digit oracle below
        assert density_threshold_s(1, 1) == 1
        assert density_threshold_s(2, 2) == 1
        assert density_threshold_s(1, 2) == 4
        assert density_threshold_s(2, 3) == 4
        assert density_threshold_s(1, 3) == 8

    def test_against_point_oracle(self):
        for t, l in [(1, 1), (1, 2), (2, 3), (3, 3), (2, 5)]:
            c = l - t + 1
            thr = mpmath.exp(-c) / 2
            s = c
            while True:
                f = Fraction(s - l + t, s + 1) ** (s + 1)
                if mpmath.mpf(f.numerator) / f.denominator >= thr:
                    break
                s += 1
            assert density_threshold_s(t, l) == s

    def test_against_one_step_scan_for_every_shape_up_to_l_40(self):
        # The scan from s = l-t+1, one s at a time, each compared with the
        # 60-digit e^{-c}/2.  Its answer depends on (t, l) only through
        # c = l-t+1, so each c is scanned once.
        scanned = {}
        for l in range(1, 41):
            for t in range(1, l + 1):
                c = l - t + 1
                if c not in scanned:
                    thr = mpmath.exp(-c) / 2
                    s = c
                    while True:
                        f = Fraction(s - l + t, s + 1) ** (s + 1)
                        if mpmath.mpf(f.numerator) / f.denominator >= thr:
                            break
                        s += 1
                    scanned[c] = s
                assert density_threshold_s(t, l) == scanned[c], (t, l)

    def test_first_point_already_qualifies_when_t_equals_l(self):
        # threshold is half the limit and (s/(s+1))^{s+1} >= 1/4 from s = 1
        for t in range(1, 5):
            assert density_threshold_s(t, t) == 1

    def test_raises_when_precision_runs_out(self, monkeypatch):
        precisions = []

        def never_decides(c, q):  # (0, 1) holds every density power
            precisions.append(q)
            return Fraction(0), Fraction(1)

        monkeypatch.setattr(bounds, "_half_exp_neg_interval", never_decides)
        monkeypatch.setattr(bounds, "DEFAULT_PREC_BITS", 64)
        monkeypatch.setattr(bounds, "MAX_PREC_BITS", 256)
        with pytest.raises(PrecisionExhaustedError) as info:
            density_threshold_s(1, 3)
        assert info.value.max_prec == 256
        assert info.value.description == "density_power(1,3,3) vs half-limit"
        assert precisions == [q + bounds._GUARD_BITS for q in (64, 128, 256)]


class TestGrowthFactor:
    def test_certified_against_one(self):
        assert growth_factor(1, 1, 3).upper < 1
        assert growth_factor(1, 1, 4).lower > 1

    def test_encloses_point_oracle(self):
        for t, l, s in [(1, 1, 2), (1, 1, 3), (1, 1, 4), (2, 3, 5), (1, 2, 6), (3, 4, 9)]:
            g = growth_factor(t, l, s)
            oracle = growth_oracle(t, l, s)
            assert mpmath.mpf(g.lower.numerator) / g.lower.denominator <= oracle
            assert mpmath.mpf(g.upper.numerator) / g.upper.denominator >= oracle
            assert g.radius < Fraction(1, 2**100)

    def test_t_equals_l_simplification(self):
        # (363/800) e^s / (s sqrt(2 pi (s+1)))
        for s in (2, 3, 5):
            g = growth_factor(1, 1, s)
            simplified = (
                mpmath.mpf(363) / 800 * mpmath.e**s / (s * mpmath.sqrt(2 * mpmath.pi * (s + 1)))
            )
            assert encloses(g, simplified)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            growth_factor(1, 2, 2)


def encloses(cr: CertifiedReal, x) -> bool:
    lo = mpmath.mpf(cr.lower.numerator) / cr.lower.denominator
    hi = mpmath.mpf(cr.upper.numerator) / cr.upper.denominator
    return lo <= x <= hi


class TestSmallestAdmissible:
    def test_golden_values(self):
        # frozen from the point oracle below
        assert smallest_admissible_s(1, 1) == 4
        assert smallest_admissible_s(2, 2) == 4
        assert smallest_admissible_s(1, 2) == 8
        assert smallest_admissible_s(2, 3) == 8

    def test_against_point_oracle(self):
        for t, l in [(1, 1), (1, 2), (2, 3), (3, 3)]:
            s = max(density_threshold_s(t, l), l + 1)
            while growth_oracle(t, l, s) <= 1:
                s += 1
            assert smallest_admissible_s(t, l) == s

    def test_is_admissible(self):
        assert not is_admissible(1, 1, 2)
        assert not is_admissible(1, 1, 3)
        assert is_admissible(1, 1, 4)
        assert is_admissible(1, 1, 7)
        # below the density threshold: not admissible even if growth > 1
        assert density_threshold_s(1, 3) == 8
        assert not is_admissible(1, 3, 7)

    def test_is_admissible_raises_when_precision_runs_out(self, monkeypatch):
        precisions = []

        def never_decides(t, l, s, *, prec):  # [1/2, 2] straddles 1 at every precision
            precisions.append(prec)
            return CertifiedReal(Fraction(1, 2), Fraction(2), prec)

        monkeypatch.setattr(bounds, "growth_factor", never_decides)
        monkeypatch.setattr(bounds, "MAX_PREC_BITS", 256)
        with pytest.raises(PrecisionExhaustedError) as info:
            bounds_report(1, 1, 5)
        assert info.value.max_prec == 256
        assert info.value.description == "growth_factor(1,1,5) vs 1"
        assert precisions == [128, 256]
        precisions.clear()  # the first rung is DEFAULT_PREC_BITS, read at call time
        monkeypatch.setattr(bounds, "DEFAULT_PREC_BITS", 64)
        with pytest.raises(PrecisionExhaustedError) as info:
            is_admissible(1, 1, 5)
        assert (info.value.max_prec, info.value.description) == (256, "growth_factor(1,1,5) vs 1")
        assert precisions == [64, 128, 256]


# FIRST_ADMISSIBLE_BY_GAP[l - t] is the least admissible s of the shape
# (t, l) whenever it exceeds l, and l + 1 is otherwise; growth_oracle and
# perfbench/oracle.py give the same values for every t <= l <= 12.
FIRST_ADMISSIBLE_BY_GAP = (4, 8, 12, 17, 22, 30, 40, 51, 64, 78, 94, 111)


class TestAdmissibilityGrid:
    @pytest.mark.parametrize("l", range(1, 13))
    def test_every_shape_up_to_l_12(self, l):
        for t in range(1, l + 1):
            first = max(FIRST_ADMISSIBLE_BY_GAP[l - t], l + 1)
            assert smallest_admissible_s(t, l) == first, (t, l)
            for s in range(l + 1, first + 3):
                assert is_admissible(t, l, s) == (s >= first), (t, l, s)

    def test_both_read_bounds_report(self, monkeypatch):
        calls = []
        report = bounds.bounds_report

        def counted(*args, **kwargs):
            calls.append((args, kwargs))
            return report(*args, **kwargs)

        monkeypatch.setattr(bounds, "bounds_report", counted)
        assert is_admissible(1, 1, 4)
        assert smallest_admissible_s(1, 2) == 8
        assert calls == [((1, 1, 4), {}), ((1, 2), {"find_admissible": True})]


POSITIVE = "precision must be positive, got {}"
CAPPED = "precision must be at most 4096 bits, got {}"


class TestPrecisionRule:
    """growth_factor, the one function that takes a precision, refuses one it cannot use."""

    @pytest.mark.parametrize(
        "prec, message", [(0, POSITIVE.format(0)), (-5, POSITIVE.format(-5)), (32768, CAPPED.format(32768))]
    )
    def test_refused_with_its_message(self, prec, message):
        with pytest.raises(ValueError) as exc:
            growth_factor(1, 1, 4, prec=prec)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "fn", [bounds_report, stirling_enclosure, density_threshold_s, is_admissible, smallest_admissible_s]
    )
    def test_takes_no_precision(self, fn):
        assert "prec" not in inspect.signature(fn).parameters

    def test_the_cap_is_read_at_call_time(self, monkeypatch):
        monkeypatch.setattr(bounds, "MAX_PREC_BITS", 64)
        with pytest.raises(ValueError, match="^precision must be at most 64 bits, got 65$"):
            growth_factor(1, 1, 4, prec=65)

    @pytest.mark.parametrize("prec", [1, bounds.MAX_PREC_BITS])
    def test_both_ends_are_precisions(self, prec):
        assert growth_factor(1, 1, 4, prec=prec).prec_bits == prec


class TestStirlingEnclosure:
    def test_brackets_small_factorials(self):
        for n, fact in [(1, 1), (5, 120), (10, 3628800)]:
            lo, hi = stirling_enclosure(n)
            assert lo.upper < fact < hi.lower

    def test_n_one_constants(self):
        lo, hi = stirling_enclosure(1)
        # sqrt(2 pi)/e ~ 0.9221, (12/11) of it ~ 1.006
        assert Fraction(92, 100) < lo.lower < lo.upper < Fraction(93, 100)
        assert Fraction(100, 100) < hi.lower < hi.upper < Fraction(101, 100)

    def test_upper_is_twelve_elevenths_of_lower(self):
        lo, hi = stirling_enclosure(7)
        assert hi.lower == lo.lower * Fraction(12, 11)
        assert hi.upper == lo.upper * Fraction(12, 11)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            stirling_enclosure(0)


def sqrt_2pi_by_hand(n, q):
    """sqrt(2 pi n) rounded outward at q bits, from pi's q-bit enclosure."""
    pi_lo, pi_hi = bounds._pi_interval(q)
    lo_sq = math.floor(2 * n * pi_lo * 4**q)
    hi_sq = math.ceil(2 * n * pi_hi * 4**q)
    r_hi = math.isqrt(hi_sq)
    if r_hi**2 < hi_sq:
        r_hi += 1
    return Fraction(math.isqrt(lo_sq), 2**q), Fraction(r_hi, 2**q)


class TestExactEndpoints:
    """Each endpoint is the formula evaluated on the matching endpoints of e,
    pi and the square root, at the working precision prec + guard bits."""

    @pytest.mark.parametrize("t,l,s,prec", [(1, 1, 2, 8), (1, 1, 4, 64), (2, 3, 6, 128), (3, 5, 12, 32)])
    def test_growth_factor(self, t, l, s, prec):
        q = prec + bounds._GUARD_BITS
        e_lo, e_hi = bounds._e_interval(q)
        r_lo, r_hi = sqrt_2pi_by_hand(s + 1, q)
        k = s - l + t
        g = growth_factor(t, l, s, prec=prec)
        assert g.lower == Fraction(363, 800) * e_lo**k / (r_hi * k ** (l - t + 1))
        assert g.upper == Fraction(363, 800) * e_hi**k / (r_lo * k ** (l - t + 1))
        assert g.prec_bits == prec

    @pytest.mark.parametrize("n,prec", [(1, 8), (2, 64), (5, 128), (10, 32)])
    def test_stirling_enclosure(self, monkeypatch, n, prec):
        monkeypatch.setattr(bounds, "DEFAULT_PREC_BITS", prec)  # read at call time
        q = prec + bounds._GUARD_BITS
        e_lo, e_hi = bounds._e_interval(q)
        r_lo, r_hi = sqrt_2pi_by_hand(n, q)
        lo, hi = stirling_enclosure(n)
        assert (lo.lower, lo.upper) == (r_lo * n**n / e_hi**n, r_hi * n**n / e_lo**n)
        assert (hi.lower, hi.upper) == (lo.lower * 12 / 11, lo.upper * 12 / 11)
        assert lo.prec_bits == hi.prec_bits == prec


class TestDeskScaleBoundChain:
    def test_distinct_values_below_upper_bound(self):
        # P <= W_max < 2^{2s} s! ((s+1)!)^m for s in {2,3}, m in {1,2}
        for s in (2, 3):
            for m in (1, 2):
                a = Alphabet(tuple(range(1, s + 1)))
                p = ParikhVector.equipartitioned(s, m)
                rep = run_census(a, p)
                wmax = continuant(max_arrangement(a, p))
                assert rep.distinct_values <= wmax
                assert rep.max_value == wmax
                assert wmax < value_count_upper_bound(s, m)

    def test_restricted_alphabet_never_beats_full_alphabet(self):
        # W_max over {b_1..b_t, l+1..s} with counts m never exceeds W_max
        # over the full {1..s} with the same m.
        cases = [(1, 2, 3, (1,)), (2, 3, 5, (1, 3)), (1, 1, 4, (1,)), (2, 2, 4, (1, 2))]
        for t, l, s, low in cases:
            lac = Alphabet.from_lacunary(t, l, s, low)
            full = Alphabet(tuple(range(1, s + 1)))
            for m in (1, 2):
                small = continuant(max_arrangement(lac, ParikhVector.equipartitioned(lac.size, m)))
                big = continuant(max_arrangement(full, ParikhVector.equipartitioned(s, m)))
                assert small <= big

    def test_arrangement_value_below_bound_wider_grid(self):
        for s in (2, 3, 4):
            for m in (1, 2, 3):
                a = Alphabet(tuple(range(1, s + 1)))
                p = ParikhVector.equipartitioned(s, m)
                assert continuant(max_arrangement(a, p)) < value_count_upper_bound(s, m)


class TestCertifiedReal:
    def test_midpoint_radius(self):
        cr = CertifiedReal(Fraction(1, 4), Fraction(1, 2), 16)
        assert cr.midpoint == Fraction(3, 8)
        assert cr.radius == Fraction(1, 8)
        assert not cr.is_exact

    def test_rejects_inverted_interval(self):
        with pytest.raises(ValueError):
            CertifiedReal(Fraction(1), Fraction(0), 8)

    @given(
        st.fractions(min_value=0, max_value=10),
        st.fractions(min_value=0, max_value=1),
    )
    @settings(max_examples=200)
    def test_serialization_keeps_containment(self, mid, rad):
        cr = CertifiedReal(mid - rad, mid + rad, 32)
        doc = cr.to_json_dict(digits=12)
        ser_mid = Fraction(doc["midpoint"])
        ser_rad = Fraction(doc["radius"])
        assert ser_mid - ser_rad <= cr.lower
        assert cr.upper <= ser_mid + ser_rad
        assert doc["precision_bits"] == 32


def decimal_quotient(n, d, digits, rounding):
    """The oracle for every rounding: Decimal's own division."""
    with localcontext() as ctx:
        ctx.prec = digits
        ctx.rounding = rounding
        return Decimal(n) / Decimal(d)


def decimal_document(cr, digits):
    """CertifiedReal.to_json_dict by reduced Fractions and Decimal division."""
    mid = (cr.lower + cr.upper) / 2
    mid_dec = decimal_quotient(mid.numerator, mid.denominator, digits, ROUND_HALF_EVEN)
    pad = (cr.upper - cr.lower) / 2 + abs(mid - Fraction(mid_dec))
    rad_dec = decimal_quotient(pad.numerator, pad.denominator, digits, ROUND_CEILING)
    return {"midpoint": str(mid_dec), "radius": str(rad_dec), "precision_bits": cr.prec_bits}


DIGITS = (12, 24, 36)


def random_rationals(rng, count):
    """(n, d) pairs, d > 0: signed, exact quotients, quotients that carry to
    10^digits, and zero."""
    out = [(0, 1), (0, 7), (1, 1), (-1, 3), (10**40, 1), (1, 8), (-5, 4)]
    for _ in range(count):
        k = rng.choice([1, 3, 12, 40, 120])
        d = rng.randint(1, 10**k)
        out.append((rng.randint(-(10**k), 10**k), d))
        out.append((rng.randint(1, 10**k) * d, d))  # integer quotient
        out.append((rng.randint(1, 10**k), 2 ** rng.randint(0, 60) * 5 ** rng.randint(0, 30)))  # terminating
        for digits in DIGITS:
            # 10^(digits+j) - 1 over 10^j, and just above: both round up to a power of ten
            j = rng.randint(1, 20)
            out.append((10 ** (digits + j) - rng.randint(1, 4), 10**j))
            out.append((-(10 ** (digits + j) + rng.randint(1, 4)), 10**j))
    return out


class TestDecimalRounding:
    """to_json_dict rounds with one integer divmod; Decimal division is the oracle."""

    @pytest.mark.parametrize("rounding", [ROUND_HALF_EVEN, ROUND_CEILING])
    @pytest.mark.parametrize("digits", DIGITS)
    def test_round_quotient_matches_decimal_division(self, digits, rounding):
        for n, d in random_rationals(random.Random(digits), 150):
            got = bounds._round_quotient(n, d, digits, ceiling=rounding == ROUND_CEILING)
            assert bounds._decimal_text(*got) == str(decimal_quotient(n, d, digits, rounding)), (n, d)

    @pytest.mark.parametrize("digits", DIGITS)
    def test_documents_match_decimal_division(self, digits):
        rng = random.Random(100 + digits)
        rationals = random_rationals(rng, 60)
        for (n1, d1), (n2, d2) in zip(rationals, rationals[1:]):
            lo, hi = sorted([Fraction(n1, d1), Fraction(n2, d2)])
            for cr in (CertifiedReal(lo, hi, 7), CertifiedReal(lo, lo, 0)):
                assert cr.to_json_dict(digits) == decimal_document(cr, digits), cr

    @pytest.mark.parametrize(
        "s,doc",
        [
            (1369, {
                "midpoint": "1.26505293252813196514799903388262686E+589",
                "radius": "2.53534883299007522814291378895981241E+553",
                "precision_bits": 128,
            }),
            (1370, {
                "midpoint": "3.43500692366752548151068491257126283E+589",
                "radius": "3.97793846880580491617993078935609365E+553",
                "precision_bits": 128,
            }),
        ],
    )
    def test_wide_growth_factors(self, s, doc):
        # Endpoints of ~200 kbit each.  The midpoint's unreduced numerator and
        # denominator go through Decimal once; the radius is pinned (frozen
        # from Decimal division of the reduced Fractions).
        g = growth_factor(1, 1, s)
        a, b = g.lower.numerator, g.lower.denominator
        c, d = g.upper.numerator, g.upper.denominator
        n, den = a * d + c * b, 2 * b * d
        dn, dd = Decimal(n), Decimal(den)
        for digits in DIGITS:
            for rounding in (ROUND_HALF_EVEN, ROUND_CEILING):
                with localcontext() as ctx:
                    ctx.prec = digits
                    ctx.rounding = rounding
                    want = str(dn / dd)
                got = bounds._round_quotient(n, den, digits, ceiling=rounding == ROUND_CEILING)
                assert bounds._decimal_text(*got) == want, (digits, rounding)
        assert g.to_json_dict() == doc


class TestBoundsReport:
    def test_full_report(self):
        rep = bounds_report(1, 1, 2, 2)
        assert rep.value_count_upper == 1152
        assert rep.class_count_lower == 3
        assert rep.m_threshold == 345
        assert rep.s_threshold == 1
        assert rep.admissible is False
        doc = rep.to_json_dict()
        assert doc["value_count_upper"] == "1152"
        assert doc["class_count_lower"] == "3"
        assert doc["admissible_s"] is None

    def test_partial_report_without_s(self):
        rep = bounds_report(1, 2)
        assert rep.s is None
        assert rep.m_threshold is None
        assert rep.density_power is None
        assert rep.s_threshold == 4

    def test_find_admissible(self):
        rep = bounds_report(1, 1, find_admissible=True)
        assert rep.admissible_s == 4

    def test_m_without_s_rejected(self):
        with pytest.raises(ValueError):
            bounds_report(1, 1, None, 3)

    @pytest.mark.parametrize(
        "s, find_admissible", [(None, True), (5, False), (5, True), (9, False), (9, True)]
    )
    def test_one_density_scan_per_report(self, monkeypatch, s, find_admissible):
        expected = bounds_report(1, 3, s, find_admissible=find_admissible)
        calls = []
        scan = bounds.density_threshold_s

        def counted(*args, **kwargs):
            calls.append(args)
            return scan(*args, **kwargs)

        monkeypatch.setattr(bounds, "density_threshold_s", counted)
        assert bounds_report(1, 3, s, find_admissible=find_admissible) == expected
        assert calls == [(1, 3)]

    def test_density_scan_builds_one_threshold_per_precision(self, monkeypatch):
        precisions = []
        enclose = bounds._half_exp_neg_interval

        def counted(c, q):
            precisions.append(q)
            return enclose(c, q)

        monkeypatch.setattr(bounds, "_half_exp_neg_interval", counted)
        assert density_threshold_s(1, 3) == 8  # six values of s scanned
        assert len(precisions) == len(set(precisions)) >= 1

    def test_one_growth_enclosure_when_decided_at_prec(self, monkeypatch):
        expected = bounds_report(1, 1, 5, 2)
        assert expected.admissible is True
        calls = []
        enclose = bounds.growth_factor

        def counted(*args, **kwargs):
            calls.append((args, kwargs))
            return enclose(*args, **kwargs)

        monkeypatch.setattr(bounds, "growth_factor", counted)
        assert bounds_report(1, 1, 5, 2) == expected
        assert calls == [((1, 1, 5), {"prec": bounds.DEFAULT_PREC_BITS})]

    @pytest.mark.parametrize(
        "args, message",
        [
            ((1, 400, 5), "need 1 <= t <= l < s, got t=1, l=400, s=5"),
            ((1, 300, 400, 0), "need m >= 1, got 0"),
        ],
    )
    def test_input_checked_before_the_density_scan(self, monkeypatch, args, message):
        calls = []
        monkeypatch.setattr(bounds, "density_threshold_s", lambda *a: calls.append(a))
        with pytest.raises(ValueError) as exc:
            bounds_report(*args)
        assert (str(exc.value), calls) == (message, [])


class TestShapeRule:
    """One shape rule: every entry point that meets a bad shape raises its one message."""

    @pytest.mark.parametrize(
        "shape, message",
        [
            ((1, 2, 2), "need 1 <= t <= l < s, got t=1, l=2, s=2"),
            ((2, 3, 1), "need 1 <= t <= l < s, got t=2, l=3, s=1"),
            ((0, 1), "need 1 <= t <= l, got t=0, l=1"),
            ((3, 2), "need 1 <= t <= l, got t=3, l=2"),
            ((3, 2, 5), "need 1 <= t <= l < s, got t=3, l=2, s=5"),
        ],
    )
    def test_every_entry_point_raises_the_same_message(self, shape, message):
        if len(shape) == 3:
            t, l, s = shape
            calls = [
                lambda: Alphabet.from_lacunary(t, l, s, range(1, t + 1)),
                lambda: class_count_lower_bound(t, l, s, 1),
                lambda: growth_factor(t, l, s),
                lambda: is_admissible(t, l, s),
                lambda: bounds_report(t, l, s),
            ]
        else:
            t, l = shape
            calls = [
                lambda: density_threshold_s(t, l),
                lambda: density_power(t, l, l + 1),
                lambda: bounds_report(t, l),
            ]
        for call in calls:
            with pytest.raises(ValueError) as exc:
                call()
            assert str(exc.value) == message
