"""The maximizing arrangement against the Pareto-front and brute-force oracles."""

import itertools

import pytest
from hypothesis import example, given, settings

from continuants import (
    Alphabet,
    ClassTooLargeError,
    ParikhVector,
    Word,
    brute_force_extrema,
    canonicalize,
    continuant,
    extremal,
    max_arrangement,
    pareto_max,
    verify_max_arrangement,
)

from helpers import continuant_by_definition, small_classes


def alpha(*letters):
    return Alphabet(tuple(letters))


def parikh(*counts):
    return ParikhVector(tuple(counts))


class TestMaxArrangement:
    def test_two_letter_class(self):
        assert tuple(max_arrangement(alpha(1, 2), parikh(2, 2))) == (2, 1, 1, 2)

    def test_single_letter_class(self):
        assert tuple(max_arrangement(alpha(7,), parikh(3,))) == (7, 7, 7)

    def test_full_alphabet_equipartitioned_pattern(self):
        # s (s-1)^{m-1} (s-2) ... 1 1^{m-1} ... (s-2)^{m-1} (s-1) s^{m-1}
        for s in range(1, 7):
            for m in range(1, 4):
                expected = []
                for i in range(s, 0, -1):
                    expected.extend([i] if (s - i) % 2 == 0 else [i] * (m - 1))
                for i in range(1, s + 1):
                    expected.extend([i] * (m - 1) if (s - i) % 2 == 0 else [i])
                got = max_arrangement(
                    Alphabet(tuple(range(1, s + 1))), ParikhVector.equipartitioned(s, m)
                )
                assert tuple(got) == tuple(expected)

    def test_explicit_small_patterns(self):
        assert tuple(max_arrangement(alpha(1, 2, 3), parikh(1, 1, 1))) == (3, 1, 2)
        assert tuple(max_arrangement(alpha(1, 2, 3), parikh(2, 2, 2))) == (3, 2, 1, 1, 2, 3)
        assert tuple(max_arrangement(alpha(1, 2, 3, 4), parikh(1, 1, 1, 1))) == (4, 2, 1, 3)

    @given(small_classes())
    def test_parikh_preserved(self, cls):
        letters, counts = cls
        w = max_arrangement(alpha(*letters), parikh(*counts))
        assert sorted(w) == sorted(
            a for a, p in zip(letters, counts) for _ in range(p)
        )

    @given(small_classes())
    def test_smallest_letter_forms_one_middle_block(self, cls):
        letters, counts = cls
        w = tuple(max_arrangement(alpha(*letters), parikh(*counts)))
        a1, p1 = letters[0], counts[0]
        runs = [len(list(g)) for key, g in itertools.groupby(w) if key == a1]
        assert runs == [p1]

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            max_arrangement(alpha(1, 2, 3), parikh(1, 1))

    def test_zero_count_rejected_at_construction(self):
        with pytest.raises(ValueError):
            parikh(2, 0)


class TestBruteForceOracle:
    def test_two_letter_class(self):
        r = brute_force_extrema(alpha(1, 2), parikh(2, 2))
        assert r.max_value == 13
        assert [tuple(w) for w in r.argmax] == [(2, 1, 1, 2)]
        assert r.min_value == 10
        assert [tuple(w) for w in r.argmin] == [(1, 2, 2, 1)]

    def test_singleton_class(self):
        r = brute_force_extrema(alpha(1, 2), parikh(1, 1))
        assert r.max_value == r.min_value == 3
        assert [tuple(w) for w in r.argmax] == [(1, 2)]

    def test_three_distinct_letters(self):
        r = brute_force_extrema(alpha(1, 2, 3), parikh(1, 1, 1))
        built = canonicalize(max_arrangement(alpha(1, 2, 3), parikh(1, 1, 1)))
        assert r.argmax == (built,)
        assert r.max_value == continuant(built) == 11

    def test_limit_error_carries_exact_size(self):
        with pytest.raises(ClassTooLargeError) as info:
            brute_force_extrema(alpha(1, 2), parikh(3, 3), limit=5)
        assert info.value.class_size == 10
        assert info.value.limit == 5

    @given(small_classes(max_total=7))
    def test_extrema_members_lie_in_class_and_attain_values(self, cls):
        letters, counts = cls
        r = brute_force_extrema(alpha(*letters), parikh(*counts))
        bag = sorted(a for a, p in zip(letters, counts) for _ in range(p))
        for w in r.argmax:
            assert sorted(w) == bag
            assert continuant(w) == r.max_value
        for w in r.argmin:
            assert sorted(w) == bag
            assert continuant(w) == r.min_value
        assert len(r.argmax) == 1  # uniqueness up to reversal

    @given(small_classes(max_total=7))
    @settings(max_examples=40, deadline=None)
    def test_matches_itertools_enumeration(self, cls):
        # Independent route: the reversal quotient from itertools.permutations
        # and canonicalize, valued by the literal recursion.
        letters, counts = cls
        bag = [a for a, p in zip(letters, counts) for _ in range(p)]
        classes = {canonicalize(p) for p in itertools.permutations(bag)}
        values = {w: continuant_by_definition(w) for w in classes}
        hi, lo = max(values.values()), min(values.values())
        r = brute_force_extrema(alpha(*letters), parikh(*counts))
        assert (r.max_value, r.min_value) == (hi, lo)
        assert r.argmax == tuple(sorted(w for w, v in values.items() if v == hi))
        assert r.argmin == tuple(sorted(w for w, v in values.items() if v == lo))


class TestVerifyMaxArrangement:
    def test_examples(self):
        assert verify_max_arrangement(alpha(1, 2), parikh(2, 2))
        assert verify_max_arrangement(alpha(1, 2, 3), parikh(2, 2, 2))
        assert verify_max_arrangement(alpha(4,), parikh(5,))

    def test_small_sweep(self):
        # Alphabets inside {1..4} with at most 3 letters, classes with
        # n <= 7; the full acceptance sweep extends to {1..6} and n <= 10.
        letters_pool = range(1, 5)
        for size in (1, 2, 3):
            for letters in itertools.combinations(letters_pool, size):
                for counts in itertools.product(range(1, 5), repeat=size):
                    if sum(counts) > 7:
                        continue
                    assert verify_max_arrangement(alpha(*letters), parikh(*counts)), (
                        letters,
                        counts,
                    )


def unique_max(a, p):
    """pareto_max's figures if max_arrangement is the unique maximum up to reversal."""
    built = max_arrangement(a, p)
    return continuant(built), 1 if built.is_palindrome() else 2


class TestParetoMax:
    def test_examples(self):
        assert pareto_max(alpha(1, 2), parikh(2, 2)) == (13, 1)  # 2,1,1,2
        assert pareto_max(alpha(1, 2, 3), parikh(1, 1, 1)) == (11, 2)  # 3,1,2 and 2,1,3
        assert pareto_max(alpha(7,), parikh(3,)) == (continuant((7, 7, 7)), 1)

    @given(small_classes(max_total=7))
    @example(((4,), (1,)))
    @example(((2,), (4,)))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, cls):
        letters, counts = cls
        a, p = alpha(*letters), parikh(*counts)
        r = brute_force_extrema(a, p)
        attaining = sum(1 if w.is_palindrome() else 2 for w in r.argmax)
        assert pareto_max(a, p) == (r.max_value, attaining)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            pareto_max(alpha(1, 2, 3), parikh(1, 1))

    def test_a_pair_identifies_its_prefix(self):
        # pareto_max counts arrangements as distinct (cur, prev) pairs.
        for n in range(1, 7):
            words = list(itertools.product(range(1, 5), repeat=n))
            pairs = {(continuant(w), continuant(w[:-1])) for w in words}
            assert len(pairs) == len(words)

    def test_unique_max_on_six_letters_past_enumeration(self):
        # N = 18!/(3!)^6 / 2 ~ 3.4e10 reversal classes; no limit applies.
        a, p = Alphabet(tuple(range(1, 7))), ParikhVector.equipartitioned(6, 3)
        assert pareto_max(a, p) == unique_max(a, p)

    def test_three_letter_classes_of_length_11_and_12(self):
        # Past the n <= 10 brute-force sweep of criterion 1; about 1.5 s.
        classes = 0
        for letters in itertools.combinations(range(1, 7), 3):
            for counts in itertools.product(range(1, 11), repeat=3):
                if sum(counts) in (11, 12):
                    a, p = alpha(*letters), parikh(*counts)
                    assert pareto_max(a, p) == unique_max(a, p), (letters, counts)
                    classes += 1
        assert classes == 2000


class TestVerifyVerdict:
    def test_a_non_maximal_word_fails(self, monkeypatch):
        a, p = alpha(1, 2, 3), parikh(2, 1, 2)
        monkeypatch.setattr(extremal, "max_arrangement", lambda a, p: Word((1, 1, 2, 3, 3)))
        assert not verify_max_arrangement(a, p)

    def test_the_reversal_of_the_built_word_passes(self, monkeypatch):
        a, p = alpha(1, 2, 3), parikh(2, 1, 2)
        built = max_arrangement(a, p)
        assert not built.is_palindrome()
        monkeypatch.setattr(extremal, "max_arrangement", lambda a, p: built.reversal())
        assert verify_max_arrangement(a, p)

    def test_a_second_maximal_palindrome_fails(self, monkeypatch):
        # Two maximal palindromes would also attain the maximum twice.
        a, p = alpha(1, 2), parikh(2, 2)
        assert max_arrangement(a, p).is_palindrome()
        monkeypatch.setattr(extremal, "pareto_max", lambda a, p: (13, 2))
        assert not verify_max_arrangement(a, p)
