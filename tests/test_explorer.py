"""Witness searches: deterministic scans for value collisions."""

import pytest

from continuants import (
    Alphabet,
    ParikhVector,
    exact_class_count,
    exact_multiplicity_scan,
    find_witness,
    growing_multiplicity_scan,
    multiplicity_of,
)
from continuants.explorer import _equipartitioned_range


def alpha(*letters):
    return Alphabet(tuple(letters))


def parikh(*counts):
    return ParikhVector(tuple(counts))


class TestFindWitness:
    def test_no_collisions_in_small_class(self):
        assert find_witness(alpha(1, 2), parikh(2, 2), 2) is None

    def test_target_one_returns_smallest_value(self):
        rec = find_witness(alpha(1, 2), parikh(2, 2), 1)
        assert rec.value == 10
        assert tuple(rec.word) == (1, 2, 2, 1)
        assert rec.multiplicity == 1

    def test_first_collision_class(self):
        rec = find_witness(alpha(1, 2, 3, 4), parikh(1, 1, 1, 1), 2)
        assert rec.value == 38
        assert tuple(rec.word) == (1, 3, 4, 2)
        assert rec.multiplicity == 2

    def test_witness_reverified_by_independent_census(self):
        rec = find_witness(alpha(1, 2, 3, 4), parikh(1, 1, 2, 1), 2)
        assert rec is not None
        assert multiplicity_of(rec.word) == rec.multiplicity

    def test_rejects_target_below_one(self):
        with pytest.raises(ValueError):
            find_witness(alpha(1, 2), parikh(1, 1), 0)


class TestGrowingMultiplicityScan:
    def test_two_letter_scan(self):
        entries = growing_multiplicity_scan(alpha(1, 2), 1, 3)
        assert [(m, mu) for m, mu, _ in entries] == [(1, 1), (2, 1), (3, 2)]
        assert tuple(entries[0][2].word) == (1, 2)
        assert entries[0][2].value == 3
        assert tuple(entries[1][2].word) == (1, 2, 2, 1)
        assert entries[1][2].value == 10
        # first collision of the {1,2} alphabet appears at m = 3
        assert entries[2][2].value == 41
        assert tuple(entries[2][2].word) == (1, 1, 2, 2, 2, 1)

    def test_single_letter_alphabet_never_collides(self):
        entries = growing_multiplicity_scan(alpha(5,), 1, 4)
        assert [mu for _, mu, _ in entries] == [1, 1, 1, 1]

    def test_three_letter_scan(self):
        entries = growing_multiplicity_scan(alpha(1, 2, 3), 1, 2)
        assert [(m, mu) for m, mu, _ in entries] == [(1, 1), (2, 3)]
        assert entries[1][2].value == 111

    def test_pigeonhole_floor(self):
        from continuants import run_census

        for m, mu, rec in growing_multiplicity_scan(alpha(1, 2, 3), 1, 2):
            rep = run_census(rec.alphabet, rec.parikh)
            assert mu >= -(-rep.class_size // rep.distinct_values)

    def test_witnesses_reverified(self):
        for _, mu, rec in growing_multiplicity_scan(alpha(1, 2), 1, 4):
            assert multiplicity_of(rec.word) == mu == rec.multiplicity

    def test_bad_range(self):
        with pytest.raises(ValueError):
            growing_multiplicity_scan(alpha(1, 2), 3, 2)


class TestEquipartitionedRange:
    def test_pairs(self):
        assert list(_equipartitioned_range(3, 2, 4)) == [(m, parikh(m, m, m)) for m in (2, 3, 4)]

    @pytest.mark.parametrize("m_start,m_end", [(3, 1), (0, 2), (-1, -1)])
    def test_range_rule(self, m_start, m_end):
        with pytest.raises(ValueError, match=rf"^need 1 <= m_start <= m_end, got {m_start}\.\.{m_end}$"):
            next(_equipartitioned_range(2, m_start, m_end))


class TestExactMultiplicityScan:
    def test_budget_semantics(self):
        # over {1,2}: classes in scan order have sizes 1 (n=2), 2, 2 (n=3), ...
        res = exact_multiplicity_scan(alpha(1, 2), 2, 5)
        assert res.classes_scanned == 5
        assert res.parikhs_scanned == 3
        assert res.records == ()

    def test_zero_budget(self):
        res = exact_multiplicity_scan(alpha(1, 2), 2, 0)
        assert res.classes_scanned == 0
        assert res.parikhs_scanned == 0

    def test_four_letter_golden(self):
        # Frozen findings of the first exhaustive scan over {1,2,3,4}:
        # the n=4 class already holds four exact-double values, and the
        # first n=5 class adds four more (its value 181 has multiplicity 3
        # and is correctly excluded).
        res = exact_multiplicity_scan(alpha(1, 2, 3, 4), 2, 50)
        assert res.classes_scanned == 42
        assert res.parikhs_scanned == 2
        got = [(r.parikh.counts, r.value, tuple(r.word)) for r in res.records]
        assert got == [
            ((1, 1, 1, 1), 38, (1, 3, 4, 2)),
            ((1, 1, 1, 1), 42, (1, 2, 4, 3)),
            ((1, 1, 1, 1), 43, (1, 2, 3, 4)),
            ((1, 1, 1, 1), 47, (2, 1, 3, 4)),
            ((1, 1, 1, 2), 169, (1, 3, 2, 4, 4)),
            ((1, 1, 1, 2), 178, (1, 2, 4, 4, 3)),
            ((1, 1, 1, 2), 179, (2, 4, 1, 3, 4)),
            ((1, 1, 1, 2), 191, (2, 1, 4, 4, 3)),
        ]
        for r in res.records:
            assert multiplicity_of(r.word) == 2

    def test_search_returns_record_list(self):
        records = exact_multiplicity_scan(alpha(1, 2, 3, 4), 2, 50).records
        assert len(records) == 8
        assert records == exact_multiplicity_scan(alpha(1, 2, 3, 4), 2, 50).records

    def test_scan_order_is_by_n_then_lex(self):
        res = exact_multiplicity_scan(alpha(1, 2, 3), 2, 200)
        seen = []
        for r in res.records:
            key = (r.parikh.n, r.parikh.counts)
            if key not in seen:
                seen.append(key)
        assert seen == sorted(seen)

    def test_empty_result_is_valid(self):
        assert exact_multiplicity_scan(alpha(1, 2), 2, 5).records == ()

    @pytest.mark.parametrize(
        "target_mu, budget, message",
        [(0, 10, "need target_mu >= 1, got 0"), (2, -1, "need budget >= 0, got -1")],
    )
    def test_rejects_bad_arguments(self, target_mu, budget, message):
        with pytest.raises(ValueError) as exc:
            exact_multiplicity_scan(alpha(1, 2), target_mu, budget)
        assert str(exc.value) == message

    def test_empty_alphabet_rejected(self):
        # No Parikh vector of n >= 1 has zero letters, so the scan could not end.
        with pytest.raises(ValueError, match="non-empty alphabet"):
            exact_multiplicity_scan(alpha(), 2, 10)
