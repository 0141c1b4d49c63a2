"""Core continuant arithmetic, canonicalization, and the word text format."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from continuants import (
    Alphabet,
    CanonicalWord,
    ParikhVector,
    Word,
    abelian_class_of,
    canonicalize,
    continuant,
    continuant_matrix,
    doubling_bound_check,
    format_word,
    generalized_fibonacci,
    parse_word,
    split_identity,
)

from helpers import continuant_by_definition, fibonacci, nonempty_words, words


class TestContinuant:
    def test_empty_word(self):
        assert continuant(()) == 1
        assert continuant([]) == 1

    def test_single_letter(self):
        assert continuant((5,)) == 5

    def test_known_value(self):
        assert continuant((2, 1, 1, 2)) == 13

    def test_all_ones_gives_fibonacci(self):
        for n in range(0, 20):
            assert continuant((1,) * n) == fibonacci(n + 1)

    @given(words)
    def test_matches_literal_recursion(self, w):
        assert continuant(w) == continuant_by_definition(w)

    @given(words)
    def test_reversal_invariance(self, w):
        assert continuant(w) == continuant(w[::-1])

    @given(nonempty_words, st.integers(1, 9))
    def test_appending_strictly_increases(self, w, a):
        assert continuant(w + (a,)) > continuant(w)

    def test_rejects_zero_letter(self):
        with pytest.raises(ValueError):
            continuant((1, 0, 2))


class TestContinuantMatrix:
    def test_one_by_one(self):
        assert continuant_matrix((7,)) == 7

    def test_two_by_two(self):
        # det [[1, -1], [1, 2]] = 1*2 - (-1)*1
        assert continuant_matrix((1, 2)) == 3

    def test_known_value(self):
        assert continuant_matrix((2, 1, 1, 2)) == 13

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            continuant_matrix(())

    def test_agreement_sweep(self):
        # Module invariant: determinant route equals the recursion on
        # >= 10^4 random words with n <= 12 and letters <= 9.
        rng = random.Random(20260808)
        for _ in range(10_000):
            n = rng.randint(1, 12)
            w = tuple(rng.randint(1, 9) for _ in range(n))
            assert continuant_matrix(w) == continuant(w)


class TestSplitIdentity:
    def test_known_split(self):
        assert split_identity((2, 1, 1, 2), 2) == (13, 13)

    def test_two_letter_split(self):
        for a in range(1, 6):
            for b in range(1, 6):
                assert split_identity((a, b), 1) == (a * b + 1, a * b + 1)

    def test_three_letter_split(self):
        assert split_identity((1, 2, 3), 2) == (10, 10)

    @given(st.lists(st.integers(1, 9), min_size=2, max_size=12).map(tuple))
    def test_holds_at_every_cut(self, w):
        for j in range(1, len(w)):
            lhs, rhs = split_identity(w, j)
            assert lhs == rhs

    @pytest.mark.parametrize("fn", [split_identity, doubling_bound_check])
    def test_cut_out_of_range(self, fn):
        for j in (2, 0):
            with pytest.raises(IndexError) as exc:
                fn((1, 2), j)
            assert str(exc.value) == f"cut position must satisfy 1 <= j <= n-1, got j={j}, n=2"


class TestDoublingBound:
    def test_known_cases(self):
        assert doubling_bound_check((2, 1, 1, 2), 2)  # 13 < 18
        assert doubling_bound_check((3, 2), 1)  # 7 < 12

    def test_degenerate_all_ones_pair_fails(self):
        # K(1,1) = 2 and 2 < 2*1*1 is false; the strict inequality needs
        # the two factors to multiply past 1.
        assert not doubling_bound_check((1, 1), 1)

    def test_exhaustive_two_letter_words(self):
        for a in range(1, 10):
            for b in range(1, 10):
                expected = a * b + 1 < 2 * a * b  # fails only at a = b = 1
                assert doubling_bound_check((a, b), 1) == expected

    @given(st.lists(st.integers(1, 9), min_size=2, max_size=12).map(tuple))
    def test_holds_outside_degenerate_case(self, w):
        for j in range(1, len(w)):
            if w == (1, 1) and j == 1:
                continue
            assert doubling_bound_check(w, j)


class TestGeneralizedFibonacci:
    def test_zeroth_element_is_one(self):
        for r in range(1, 8):
            assert generalized_fibonacci(r, 0) == 1

    def test_known_value(self):
        assert generalized_fibonacci(2, 3) == 12

    def test_r_one_is_fibonacci(self):
        for j in range(0, 30):
            assert generalized_fibonacci(1, j) == fibonacci(j + 1)

    def test_matches_constant_word_continuant(self):
        for r in range(1, 11):
            for j in range(0, 51):
                assert generalized_fibonacci(r, j) == continuant((r,) * j)

    def test_growth_claim_small_grid(self):
        # Q_{r,j-1} < (r+1)^j; the full r <= 20, j <= 200 grid runs in the
        # acceptance suite.
        for r in range(1, 6):
            for j in range(1, 31):
                assert generalized_fibonacci(r, j - 1) < (r + 1) ** j

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            generalized_fibonacci(0, 3)
        with pytest.raises(ValueError):
            generalized_fibonacci(2, -1)


class TestCanonicalize:
    def test_reversal_is_smaller(self):
        assert canonicalize((2, 2, 1, 1)) == (1, 1, 2, 2)

    def test_palindrome_is_fixed(self):
        assert canonicalize((1, 2, 2, 1)) == (1, 2, 2, 1)

    def test_word_already_minimal(self):
        assert canonicalize((1, 2, 1, 3)) == (1, 2, 1, 3)

    @given(words)
    def test_idempotent(self, w):
        c = canonicalize(w)
        assert canonicalize(c) == c

    @given(words)
    def test_equal_on_reversal(self, w):
        assert canonicalize(w) == canonicalize(w[::-1])

    @given(words)
    def test_result_not_above_its_reversal(self, w):
        c = tuple(canonicalize(w))
        assert c <= c[::-1]


class TestWordTypes:
    def test_word_validates_letters(self):
        with pytest.raises(ValueError):
            Word((1, 0))
        with pytest.raises(ValueError):
            Word((1, -3))
        with pytest.raises(ValueError):
            Word((1, "2"))

    def test_word_is_a_tuple(self):
        w = Word((2, 1, 1, 2))
        assert len(w) == 4
        assert w[1:3] == (1, 1)
        assert w.reversal() == (2, 1, 1, 2)
        assert w.is_palindrome()

    def test_canonical_word_rejects_non_canonical(self):
        with pytest.raises(ValueError):
            CanonicalWord((2, 1, 1))
        assert CanonicalWord((1, 1, 2)) == (1, 1, 2)

    def test_two_words_same_canonical_iff_reversal(self):
        u, v = (1, 2, 3), (3, 2, 1)
        assert canonicalize(u) == canonicalize(v)
        assert canonicalize(u) != canonicalize((2, 1, 3))


class _Letter(int):
    """An int subclass: a valid letter, though not a plain int."""


class TestPositiveIntegerRule:
    """Letters and counts share one rule: an int, not a bool, and >= 1."""

    @pytest.mark.parametrize("bad", [0, -3, 2.5, 2.0, True, False, "2"], ids=repr)
    @pytest.mark.parametrize(
        "build, what",
        [
            (Word, "word letters"),
            (continuant, "word letters"),
            (continuant_matrix, "word letters"),
            (Alphabet, "alphabet letters"),
            (ParikhVector, "Parikh counts"),
        ],
        ids=lambda v: getattr(v, "__name__", None),
    )
    def test_every_entry_point_refuses_with_its_message(self, build, what, bad):
        with pytest.raises(ValueError) as exc:
            build((1, bad))
        assert str(exc.value) == f"{what} must be integers >= 1, got {bad!r}"

    def test_int_subclass_letters_are_letters(self):
        w = (_Letter(2), 1, _Letter(3))
        assert Word(w) == (2, 1, 3)
        assert continuant(w) == continuant_matrix(w) == continuant((2, 1, 3)) == 11


class TestAlphabetAndParikh:
    def test_alphabet_must_increase(self):
        with pytest.raises(ValueError):
            Alphabet((2, 2))
        with pytest.raises(ValueError):
            Alphabet((3, 1))

    def test_alphabet_letters_positive(self):
        with pytest.raises(ValueError):
            Alphabet((0, 1))

    def test_lacunary_expansion(self):
        a = Alphabet.from_lacunary(2, 3, 6, (1, 3))
        assert a == Alphabet((1, 3, 4, 5, 6))
        assert a.size == 5

    def test_lacunary_full_alphabet(self):
        # b_1 = t = l = 1 gives the largest alphabet {1, ..., s}.
        a = Alphabet.from_lacunary(1, 1, 4, (1,))
        assert a.letters == (1, 2, 3, 4)

    def test_lacunary_validation(self):
        cases = [
            ((1, 2, 2, (1,)), "need 1 <= t <= l < s, got t=1, l=2, s=2"),
            ((2, 3, 6, (1,)), "low part has 1 letters, expected t=2"),
            ((2, 3, 6, (0, 1)), "low-part letters must be >= 1"),
            ((2, 3, 5, (3, 1)), "low-part letters must be strictly increasing"),
            ((2, 2, 4, (1, 3)), "largest low-part letter 3 exceeds l=2"),
        ]
        for shape, message in cases:
            with pytest.raises(ValueError) as exc:
                Alphabet.from_lacunary(*shape)
            assert str(exc.value) == message

    def test_parikh_counts_positive(self):
        with pytest.raises(ValueError):
            ParikhVector((2, 0))
        with pytest.raises(ValueError):
            ParikhVector((2, -1))

    def test_parikh_totals(self):
        p = ParikhVector((2, 3, 1))
        assert p.n == 6
        assert ParikhVector.equipartitioned(3, 2).counts == (2, 2, 2)

    def test_abelian_class_of(self):
        a, p = abelian_class_of((2, 1, 1, 2))
        assert a.letters == (1, 2)
        assert p.counts == (2, 2)


class TestWordTextFormat:
    def test_parse_examples(self):
        assert parse_word("2,1,1,2") == (2, 1, 1, 2)
        assert parse_word("") == ()
        assert parse_word("5") == (5,)
        assert parse_word(" 1 , 2 ") == (1, 2)

    def test_parse_names_bad_token(self):
        with pytest.raises(ValueError, match="'x'"):
            parse_word("1,x,2")
        with pytest.raises(ValueError):
            parse_word("1,,2")
        with pytest.raises(ValueError):
            parse_word("0")
        with pytest.raises(ValueError):
            parse_word("-3")

    @given(words)
    def test_round_trip(self, w):
        assert tuple(parse_word(format_word(w))) == w
