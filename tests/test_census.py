"""Class enumeration, exact counts, and the value census."""

import concurrent.futures
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from continuants import census

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
)

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
            run_census(alpha(1, 2), parikh(2, 2), value_budget=3)
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
        for prefix in [()] + census._shard_prefixes(letters, counts):
            expected = [
                (w, continuant(w))
                for w in multiset_permutations(letters, counts)
                if w <= w[::-1] and w[: len(prefix)] == prefix
            ]
            assert list(census._members(letters, counts, prefix)) == expected


def _class_word(a, p):
    return [x for x, c in zip(a.letters, p.counts) for _ in range(c)]


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda a, p, limit: list(enumerate_classes(a, p, limit=limit)), id="enumerate_classes"),
        pytest.param(lambda a, p, limit: run_census(a, p, limit=limit), id="run_census"),
        pytest.param(lambda a, p, limit: brute_force_extrema(a, p, limit=limit), id="brute_force_extrema"),
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
# Kernel dispatch: the int64 kernel and the stdlib loop
# ---------------------------------------------------------------------------


def full_table(letters, counts, **kwargs):
    """_value_table with every value's first three words, as comparable data."""
    classes, table, words = census._value_table(
        alpha(*letters), parikh(*counts), words_per_value=3, **kwargs
    )
    return classes, table, sorted(words.items())


def report_of(letters, counts, **kwargs):
    return json.dumps(run_census(alpha(*letters), parikh(*counts), **kwargs).to_json_dict())


class TestKernels:
    @given(small_classes(max_total=9), st.integers(0, 4))
    @settings(max_examples=60, deadline=None)
    def test_int64_kernel_matches_stdlib(self, cls, words_per_value):
        np = pytest.importorskip("numpy")
        letters, counts = cls
        budget = census.DEFAULT_VALUE_BUDGET
        for pick in (None, lambda t: census._report_values(t, 3)):
            stdlib = census._value_table(
                alpha(*letters), parikh(*counts), words_per_value=words_per_value, witness_values=pick
            )
            fast = census._int64_table(np, letters, counts, budget, words_per_value, pick)
            assert fast == stdlib
            if pick is not None:
                assert list(fast[2]) == list(stdlib[2])  # witnesses in the order picked

    @given(small_classes(max_total=9), st.sampled_from([1, 2, 5, 64]))
    @settings(max_examples=40, deadline=None)
    def test_int64_kernel_in_several_chunks(self, cls, chunk_rows):
        pytest.importorskip("numpy")
        letters, counts = cls
        reference = full_table(letters, counts)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(census, "INT64_MIN_CLASSES", 0)
            mp.setattr(census, "INT64_CHUNK_ROWS", chunk_rows)
            assert full_table(letters, counts) == reference
            chunked = report_of(letters, counts)
        assert chunked == report_of(letters, counts)

    def test_int64_values_near_the_overflow_gate(self):
        np = pytest.importorskip("numpy")
        # prod (a_i + 1) = (2**21 - 2)(2**21 - 1) 2**21 < 2**63, and K(a,b,c) = abc + a + c.
        letters, counts = (2**21 - 3, 2**21 - 2, 2**21 - 1), (1, 1, 1)
        assert census._fits_int64(letters, counts)
        stdlib = census._value_table(alpha(*letters), parikh(*counts), words_per_value=2)
        assert min(stdlib[1]) > 2**63 - 2**45
        fast = census._int64_table(np, letters, counts, census.DEFAULT_VALUE_BUDGET, 2, None)
        assert fast == stdlib

    def test_overflow_gate_bound(self):
        assert census._fits_int64((1,), (62,))
        assert not census._fits_int64((1,), (63,))  # 2**63 itself does not pass
        assert census._fits_int64((6,), (22,))  # 7**22 < 2**63: letters <= 6, n <= 22
        assert not census._fits_int64((6,), (23,))

    def test_class_over_the_overflow_gate_takes_the_stdlib_path(self, monkeypatch):
        pytest.importorskip("numpy")
        calls = []
        kernel = census._int64_table
        monkeypatch.setattr(census, "_int64_table", lambda *a: calls.append(a) or kernel(*a))
        monkeypatch.setattr(census, "INT64_MIN_CLASSES", 0)
        over, under = ((1, 2), (63, 1)), ((1, 2), (60, 1))  # bounds 3 * 2**63 and 3 * 2**60
        assert not census._fits_int64(*over) and census._fits_int64(*under)
        run_census(alpha(1, 2), parikh(*over[1]))
        assert calls == []
        run_census(alpha(1, 2), parikh(*under[1]))
        assert len(calls) == 1

    def test_same_reports_without_numpy(self, monkeypatch):
        monkeypatch.setattr(census, "INT64_MIN_CLASSES", 0)
        cases = [((1, 2, 3), (2, 2, 2)), ((1, 2, 3, 4), (1, 1, 1, 1)), ((1, 2), (4, 3))]
        with_numpy = [report_of(*c) for c in cases]
        monkeypatch.setitem(sys.modules, "numpy", None)
        assert census._numpy() is None
        assert [report_of(*c) for c in cases] == with_numpy

    def test_bigint_census_never_imports_numpy(self):
        code = (
            "import sys\n"
            f"sys.path.insert(0, {SRC!r})\n"
            "from continuants import census, cli\n"
            "assert 'numpy' not in sys.modules, 'import continuants.cli imported numpy'\n"
            "census.INT64_MIN_CLASSES = 0\n"
            "assert cli.main(['census', '--alphabet', '1,2,70000', '--parikh', '3,2,4', '--workers', '1']) == 0\n"
            "print('numpy' in sys.modules)\n"
        )
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "False"


class TestOneProcess:
    @pytest.mark.parametrize("calls", [1, 2])
    def test_value_budget_is_global(self, monkeypatch, calls):
        # The budget spans the whole class within one call and starts afresh
        # on the next call in the same process.
        monkeypatch.setitem(sys.modules, "numpy", None)
        for _ in range(calls):
            with pytest.raises(ValueBudgetExceededError) as info:
                run_census(alpha(1, 2, 3, 4), parikh(3, 3, 3, 3), value_budget=20_000)
            assert (info.value.distinct_values_seen, info.value.classes_evaluated) == (20001, 33886)

    def test_no_process_is_started(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(concurrent.futures.ProcessPoolExecutor, "__init__", refuse)
        monkeypatch.setattr(census, "INT64_MIN_CLASSES", 0)
        a, p = alpha(1, 2, 70000), parikh(3, 2, 4)
        assert not census._fits_int64(a.letters, p.counts)
        assert run_census(a, p).class_size == exact_class_count(p)
