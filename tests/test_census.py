"""Class enumeration, exact counts, and the value census."""

import concurrent.futures
import json
import math
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from continuants import census, reference

from continuants import (
    Alphabet,
    CensusReport,
    ClassTooLargeError,
    ParikhVector,
    ValueBudgetExceededError,
    brute_force_extrema,
    canonicalize,
    continuant,
    enumerate_classes,
    exact_class_count,
    max_arrangement,
    multiplicity_of,
    multiset_permutations,
    palindromic_count,
    run_census,
    verify_max_arrangement,
)
from continuants.reference import _members

from helpers import small_classes, words

SRC = str(Path(census.__file__).resolve().parent.parent)


def alpha(*letters):
    return Alphabet(tuple(letters))


def parikh(*counts):
    return ParikhVector(tuple(counts))


class TestExactClassCount:
    def test_examples(self):
        assert exact_class_count(parikh(2, 2)) == 4  # (6 + 2) / 2
        assert exact_class_count(parikh(1, 1)) == 1  # (2 + 0) / 2
        assert exact_class_count(parikh(2, 2, 2)) == 48  # (90 + 6) / 2

    def test_palindromic_counts(self):
        assert palindromic_count(parikh(2, 2)) == 2  # 1221, 2112
        assert palindromic_count(parikh(1, 1)) == 0
        assert palindromic_count(parikh(2, 2, 2)) == 6
        assert palindromic_count(parikh(1, 3)) == 0  # two odd counts

    def test_single_letter_classes(self):
        for k in range(1, 8):
            assert exact_class_count(parikh(k)) == 1

    def test_halved_multinomial_is_a_lower_bound(self):
        for counts in [(1, 1), (2, 1), (2, 2), (3, 2, 1), (1, 1, 1, 1), (4, 4)]:
            p = parikh(*counts)
            n = p.n
            multi = math.factorial(n)
            for c in counts:
                multi //= math.factorial(c)
            assert exact_class_count(p) >= multi // 2
            # equality exactly when no palindrome exists
            if palindromic_count(p) == 0:
                assert exact_class_count(p) * 2 == multi


class TestEnumerateClasses:
    def test_golden_order(self):
        got = [tuple(w) for w in enumerate_classes(alpha(1, 2), parikh(2, 2))]
        assert got == [(1, 1, 2, 2), (1, 2, 1, 2), (1, 2, 2, 1), (2, 1, 1, 2)]

    def test_single_pair(self):
        assert [tuple(w) for w in enumerate_classes(alpha(1, 2), parikh(1, 1))] == [(1, 2)]

    def test_three_letters_three_classes(self):
        got = list(enumerate_classes(alpha(1, 2, 3), parikh(1, 1, 1)))
        assert len(got) == 3

    def test_each_class_exactly_once(self):
        seen = set()
        for w in enumerate_classes(alpha(1, 2, 3), parikh(2, 1, 2)):
            c = canonicalize(w)
            assert c == tuple(w)
            assert c not in seen
            seen.add(c)
        assert len(seen) == exact_class_count(parikh(2, 1, 2))

    @given(small_classes(max_total=9))
    @settings(max_examples=60, deadline=None)
    def test_stream_length_matches_formula(self, cls):
        letters, counts = cls
        stream = sum(1 for _ in enumerate_classes(alpha(*letters), parikh(*counts)))
        assert stream == exact_class_count(parikh(*counts))

    def test_limit_raised_before_streaming(self):
        # multinomial 9!/(3!)^3 = 1680, no palindromes (three odd counts)
        with pytest.raises(ClassTooLargeError) as info:
            enumerate_classes(alpha(1, 2, 3), parikh(3, 3, 3), limit=100)
        assert info.value.class_size == 840
        assert "840" in str(info.value) and "100" in str(info.value)


class TestRunCensus:
    def test_desk_golden(self):
        rep = run_census(alpha(1, 2), parikh(2, 2))
        assert rep.class_size == 4
        assert rep.distinct_values == 4
        assert rep.spectrum == ((1, 4),)
        assert rep.max_multiplicity == 1
        assert rep.max_value == 13
        assert rep.min_value == 10
        values = {w.value for w in rep.witnesses}
        assert values == {10, 11, 12, 13}

    def test_singleton(self):
        rep = run_census(alpha(3,), parikh(5,))
        assert rep.class_size == rep.distinct_values == 1
        assert rep.spectrum == ((1, 1),)
        assert rep.max_value == rep.min_value == continuant((3,) * 5)

    def test_three_letter_equipartitioned(self):
        rep = run_census(alpha(1, 2, 3), parikh(2, 2, 2))
        assert rep.class_size == 48
        # frozen from the exhaustive enumeration
        assert rep.distinct_values == 35
        assert rep.spectrum == ((1, 23), (2, 11), (3, 1))
        assert rep.max_value == 149
        assert rep.min_value == 97

    def test_collision_class_golden(self):
        rep = run_census(alpha(1, 2, 3, 4), parikh(1, 1, 1, 1))
        assert rep.class_size == 12
        assert rep.distinct_values == 8
        assert rep.spectrum == ((1, 4), (2, 4))
        assert rep.max_multiplicity == 2
        pairs = {w.value: [tuple(x) for x in w.words] for w in rep.witnesses if w.multiplicity == 2}
        assert pairs[38] == [(1, 3, 4, 2), (1, 4, 2, 3)]
        assert pairs[43] == [(1, 2, 3, 4), (2, 3, 1, 4)]

    @given(small_classes(max_total=7))
    @settings(max_examples=40, deadline=None)
    def test_matches_naive_itertools_census(self, cls):
        # Independent route: materialize the reversal quotient with
        # itertools.permutations and a set, then count values naively.
        import itertools
        from collections import Counter

        letters, counts = cls
        bag = [a for a, p in zip(letters, counts) for _ in range(p)]
        classes = {canonicalize(p) for p in itertools.permutations(bag)}
        naive = Counter(continuant(w) for w in classes)

        rep = run_census(alpha(*letters), parikh(*counts))
        assert rep.class_size == len(classes)
        assert rep.distinct_values == len(naive)
        assert rep.spectrum == tuple(sorted(Counter(naive.values()).items()))
        assert rep.max_value == max(naive)
        assert rep.min_value == min(naive)
        for w in rep.witnesses:
            assert naive[w.value] == w.multiplicity

    @given(small_classes(max_total=8))
    @settings(max_examples=50, deadline=None)
    def test_sum_invariants(self, cls):
        letters, counts = cls
        rep = run_census(alpha(*letters), parikh(*counts))
        assert sum(mu * cnt for mu, cnt in rep.spectrum) == rep.class_size
        assert sum(cnt for _, cnt in rep.spectrum) == rep.distinct_values
        assert rep.class_size == exact_class_count(parikh(*counts))
        assert rep.max_multiplicity >= -(-rep.class_size // rep.distinct_values)

    def test_max_agrees_with_arrangement(self):
        for letters, counts in [((1, 2), (2, 2)), ((1, 2, 3), (2, 2, 2)), ((2, 5), (3, 2))]:
            rep = run_census(alpha(*letters), parikh(*counts))
            assert rep.max_value == continuant(max_arrangement(alpha(*letters), parikh(*counts)))

    def test_limit_exceeded(self):
        with pytest.raises(ClassTooLargeError):
            run_census(alpha(1, 2, 3, 4), parikh(4, 4, 4, 4), limit=1000)

    def test_value_budget_exceeded(self):
        with pytest.raises(ValueBudgetExceededError) as info:
            census._value_table(alpha(1, 2), parikh(2, 2), value_budget=3)
        assert info.value.budget == 3
        assert info.value.distinct_values_seen > 3
        assert "not valid" in str(info.value)

    def test_report_validates_spectrum_consistency(self):
        with pytest.raises(ValueError):
            CensusReport(
                alphabet=alpha(1, 2),
                parikh=parikh(1, 1),
                class_size=2,
                distinct_values=1,
                spectrum=((1, 1),),
                max_multiplicity=1,
                max_value=3,
                min_value=3,
                witnesses=(),
            )

    def test_json_document_shape(self):
        doc = run_census(alpha(1, 2), parikh(2, 2)).to_json_dict()
        assert set(doc) == {
            "n", "alphabet", "parikh", "N", "P", "spectrum",
            "max_multiplicity", "max_value", "min_value", "witnesses",
        }
        assert doc["n"] == 4
        assert doc["N"] == "4" and doc["P"] == "4"
        assert doc["spectrum"] == [[1, 4]]
        assert doc["max_value"] == "13" and doc["min_value"] == "10"
        assert doc["witnesses"][0]["words"] == ["1,2,2,1"]
        json.dumps(doc)  # must be serializable as-is


class TestMultiplicityOf:
    def test_unique_value(self):
        assert multiplicity_of((1, 2, 1, 2)) == 1

    def test_single_letter(self):
        assert multiplicity_of((7,)) == 1
        assert multiplicity_of(()) == 1

    def test_injective_class(self):
        # spectrum of the (2,2) class over {1,2} is {1: 4}
        for w in enumerate_classes(alpha(1, 2), parikh(2, 2)):
            assert multiplicity_of(w) == 1

    def test_collision_pair(self):
        assert multiplicity_of((1, 3, 4, 2)) == 2
        assert multiplicity_of((1, 4, 2, 3)) == 2

    @given(words.filter(lambda w: 0 < len(w) <= 8))
    @settings(max_examples=40, deadline=None)
    def test_reversal_soundness(self, w):
        assert multiplicity_of(w) == multiplicity_of(w[::-1])


class TestMembers:
    @given(small_classes(max_total=8))
    @settings(max_examples=50, deadline=None)
    def test_matches_filtered_permutations(self, cls):
        letters, counts = cls
        for prefix in [()] + reference._shard_prefixes(letters, counts):
            expected = [
                (w, continuant(w))
                for w in multiset_permutations(letters, counts)
                if w <= w[::-1] and w[: len(prefix)] == prefix
            ]
            assert list(_members(letters, counts, prefix)) == expected


def _class_word(a, p):
    return [x for x, c in zip(a.letters, p.counts) for _ in range(c)]


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda a, p, limit: list(enumerate_classes(a, p, limit=limit)), id="enumerate_classes"),
        pytest.param(lambda a, p, limit: run_census(a, p, limit=limit), id="run_census"),
        pytest.param(lambda a, p, limit: brute_force_extrema(a, p, limit=limit), id="brute_force_extrema"),
        pytest.param(
            lambda a, p, limit: verify_max_arrangement(a, p, limit=limit), id="verify_max_arrangement"
        ),
        pytest.param(lambda a, p, limit: multiplicity_of(_class_word(a, p), limit=limit), id="multiplicity_of"),
    ],
)
def test_limit_gate_admits_exactly_the_class_size(call):
    a, p = alpha(1, 2, 3), parikh(3, 3, 3)
    size = exact_class_count(p)
    call(a, p, size)
    with pytest.raises(ClassTooLargeError) as info:
        call(a, p, size - 1)
    assert (info.value.class_size, info.value.limit) == (size, size - 1)


class TestMultisetPermutations:
    def test_counts_and_order(self):
        perms = list(multiset_permutations((1, 2), (2, 1)))
        assert perms == [(1, 1, 2), (1, 2, 1), (2, 1, 1)]

    def test_total_is_multinomial(self):
        perms = list(multiset_permutations((1, 2, 3), (2, 2, 1)))
        assert len(perms) == math.factorial(5) // (2 * 2)
        assert perms == sorted(perms)
        assert len(set(perms)) == len(perms)


# ---------------------------------------------------------------------------
# The meet-in-the-middle kernel against the lexicographic reference scan
# ---------------------------------------------------------------------------


def reference_table(letters, counts, words_per_value, witness_values):
    """What _value_table returns, computed by the reference scan _scan_shard."""
    classes, table, words = reference._scan_shard((letters, counts, (), words_per_value, 10**9))
    if not words_per_value:
        return classes, table, {}
    wanted = table if witness_values is None else witness_values(table)
    return classes, table, {v: tuple(words[v]) for v in wanted}


def assert_matches_reference(letters, counts, words_per_value=3):
    for pick in (None, lambda t: census._report_values(t, 3, Counter(t.values()))):
        got = census._value_table(
            alpha(*letters), parikh(*counts), words_per_value=words_per_value, witness_values=pick
        )
        expected = reference_table(letters, counts, words_per_value, pick)
        assert got == expected
        if pick is not None:
            assert list(got[2]) == list(expected[2])  # witnesses in the order picked


def refuse_scan(args):
    raise AssertionError("the reference scan was run")


def kernel_rows(letters, counts, wanted=None):
    return census._rows(letters, counts, census._half_tables(letters, counts, sum(counts) // 2), wanted)


def row_kinds(letters, counts):
    return {type(row[-1]) for row in kernel_rows(letters, counts)}


class TestKernels:
    @given(
        st.one_of(small_classes(max_letters=5, max_total=10, max_letter=39), small_classes(max_letter=2**20)),
        st.integers(0, 4),
    )
    @settings(max_examples=60, deadline=None)
    @example(((), ()), 3)  # n = 0: the empty word alone
    @example(((7,), (1,)), 2)  # n = 1: no halves, only the middle letter
    @example(((3,), (6,)), 1)  # one letter, n even
    @example(((2**40,), (5,)), 1)  # one letter, n odd, plain rows
    @example(((1, 2), (2, 2)), 4)  # two palindromes, n even
    @example(((1, 2, 3), (2, 3, 2)), 4)  # palindromes, n odd
    @example(((5, 2**30), (3, 2)), 4)  # no palindrome, plain rows
    @example(((1, 2, 2**40), (2, 2, 3)), 3)  # n odd, plain rows: the middle-letter (A, B)
    @example(((754, 970, 186655), (2, 3, 4)), 10)  # n odd, census-bigint letters
    @example(((1, 2), (40, 1)), 3)  # thin classes: h arrangements per half vector
    @example(((1, 2), (41, 1)), 3)
    @example(((2, 5), (1, 30)), 3)
    @example(((1,), (31,)), 3)
    def test_kernel_matches_the_reference_scan(self, cls, words_per_value):
        assert_matches_reference(*cls, words_per_value)

    def test_int64_values_near_the_overflow_gate(self):
        # K(a, b) = ab + 1 and K(a, b, c) = abc + a + c, with every bound below 2**64:
        # values past 2**63, and just below 2**64, on packed rows.
        x = 2642245  # (x + 1)**3 > 2**64 > x**3
        cases = [
            ((2**21 - 3, 2**21 - 2, 2**21 - 1), (1, 1, 1), 2**63 - 2**45),
            ((2**32 - 2, 2**32 - 1), (1, 1), 2**64 - 2**46),
            ((x - 2, x - 1, x), (1, 1, 1), 2**64 - 2**46),
        ]
        for letters, counts, low in cases:
            assert census._fits_64_bits(letters, counts)
            assert row_kinds(letters, counts) == {memoryview}
            assert min(census._value_table(alpha(*letters), parikh(*counts))[1]) > low
            assert_matches_reference(letters, counts)

    def test_overflow_gate_bound(self):
        assert census._fits_64_bits((1,), (63,))
        assert not census._fits_64_bits((1,), (64,))  # 2**64 itself does not pass
        assert census._fits_64_bits((6,), (22,))  # 7**22 < 2**64: letters <= 6, n <= 22
        assert not census._fits_64_bits((6,), (23,))

    def test_class_over_the_overflow_gate_takes_plain_rows(self):
        # The bound 3 * 2**63 misses the gate, though every value is below 2**45.
        letters, counts = (1, 2), (63, 1)
        assert not census._fits_64_bits(letters, counts)
        assert row_kinds(letters, counts) == {list}
        assert max(census._value_table(alpha(*letters), parikh(*counts))[1]) < 2**45
        assert_matches_reference(letters, counts)

    def test_budget_is_checked_after_every_row(self, monkeypatch):
        # The kernel raises on the row that crosses the budget, with the
        # counters of the rows it has seen; the reference scan is not run.
        rows, kernel = [], census._rows
        monkeypatch.setattr(census, "_rows", lambda *a: (rows.append(list(r[-1])) or r for r in kernel(*a)))
        monkeypatch.setattr(reference, "_scan_shard", refuse_scan)
        with pytest.raises(ValueBudgetExceededError) as info:
            census._value_table(alpha(1, 2, 3, 4), parikh(3, 3, 3, 3), value_budget=20_000)
        before, seen = set().union(*rows[:-1]), set().union(*rows)
        assert len(before) <= 20_000 < len(seen)
        err = info.value
        assert (err.distinct_values_seen, err.classes_evaluated) == (len(seen), sum(map(len, rows)))
        assert err.distinct_values_seen <= 20_000 + max(map(len, rows))

    def test_witness_pass_skips_rows_without_a_picked_value(self):
        # A census-bigint class at seed 0: its 30 picked values sit in a few of 890 rows.
        letters, counts = (632, 926, 976, 100782), (3, 4, 1, 4)
        _, table, _ = census._value_table(alpha(*letters), parikh(*counts))
        picked = census._report_values(table, census.WITNESS_TOP_K, Counter(table.values()))
        every = [(r[:-1], set(r[-1])) for r in kernel_rows(letters, counts)]
        kept = [(r[:-1], set(r[-1])) for r in kernel_rows(letters, counts, sorted(picked))]
        holding = [r for r in every if not r[1].isdisjoint(picked)]
        assert len(holding) <= len(kept) < len(every)
        assert all(r in kept for r in holding)
        assert_matches_reference(letters, counts, census.WITNESS_WORDS_PER_VALUE)

    @pytest.mark.parametrize("n", [6, 7])
    def test_row_bound_is_inclusive(self, n):
        # One letter: each half count vector has one arrangement, so every row's
        # interval is the single value it holds, and the picked value is both ends.
        letters, counts = (3,), (n,)
        (row,) = kernel_rows(letters, counts)
        (value,) = row[-1]
        assert [list(r[-1]) for r in kernel_rows(letters, counts, [value])] == [[value]]
        assert list(kernel_rows(letters, counts, [value - 1, value + 1])) == []
        assert_matches_reference(letters, counts, 1)

    def test_every_value_wanted_takes_every_row_unbounded(self, monkeypatch):
        wanted, kernel = [], census._rows
        monkeypatch.setattr(census, "_rows", lambda *a: wanted.append(a[3:]) or kernel(*a))
        census._value_table(alpha(1, 2, 3), parikh(2, 2, 2), words_per_value=2)
        assert wanted == [(), (None,)]

    @given(small_classes(max_total=9))
    @settings(max_examples=40, deadline=None)
    def test_arrangement_spells_the_half_table_index(self, cls):
        # Independent of the kernel: the arrangements of c from multiset_permutations,
        # sorted by reversed word, descending, and their continuants.
        letters, counts = cls
        for h in range(sum(counts) + 1):
            for c, (ks, kms) in census._half_tables(letters, counts, h).items():
                spelled = [census._arrangement(letters, c, i) for i in range(len(ks))]
                expected = sorted(multiset_permutations(letters, c), key=lambda z: z[::-1], reverse=True)
                assert spelled == expected
                assert [continuant(z) for z in spelled] == ks
                assert [continuant(z[:-1]) if z else 0 for z in spelled] == kms

    def test_half_tables_are_built_once_per_census(self, monkeypatch):
        calls, build = [], census._half_tables
        monkeypatch.setattr(census, "_half_tables", lambda *a: calls.append(a) or build(*a))
        for letters, counts in [((1, 2, 3), (2, 2, 2)), ((1, 2), (2000, 1)), ((754, 970, 186655), (2, 6, 6))]:
            calls.clear()
            run_census(alpha(*letters), parikh(*counts))
            assert len(calls) == 1

    def test_thin_class_costs_what_its_rows_cost(self):
        # ~1000 members, but half words 1000 letters long: the census must not
        # pay for building or copying them.
        start = time.perf_counter()
        report = run_census(alpha(1, 2), parikh(2000, 1))
        assert time.perf_counter() - start < 2
        assert report.class_size == exact_class_count(parikh(2000, 1))

    def test_bigint_census_never_imports_numpy(self):
        code = (
            "import sys\n"
            f"sys.path.insert(0, {SRC!r})\n"
            "from continuants import cli\n"
            "for alphabet, counts in [('1,2,3,4', '3,3,3,3'), ('1,2,70000', '3,2,4')]:\n"
            "    assert cli.main(['census', '--alphabet', alphabet, '--parikh', counts]) == 0\n"
            "print('numpy' in sys.modules)\n"
        )
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "False"


class TestOneProcess:
    @pytest.mark.parametrize("calls", [1, 2])
    def test_value_budget_is_global(self, monkeypatch, calls):
        # The budget spans the whole class within one call and starts afresh
        # on the next call in the same process; the counters are the kernel's.
        monkeypatch.setattr(reference, "_scan_shard", refuse_scan)
        for _ in range(calls):
            with pytest.raises(ValueBudgetExceededError) as info:
                census._value_table(alpha(1, 2, 3, 4), parikh(3, 3, 3, 3), value_budget=20_000)
            assert (info.value.distinct_values_seen, info.value.classes_evaluated) == (20059, 26640)

    def test_no_process_is_started(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(concurrent.futures.ProcessPoolExecutor, "__init__", refuse)
        a, p = alpha(1, 2, 70000), parikh(3, 2, 4)
        assert not census._fits_64_bits(a.letters, p.counts)
        assert run_census(a, p).class_size == exact_class_count(p)
