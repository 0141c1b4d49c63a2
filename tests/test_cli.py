"""CLI surface: parsing, formats, exit codes; no setting comes from the environment."""

import csv
import functools
import io
import json
import re
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from continuants import bounds, census, cli, exact_class_count, parse_word
from continuants.cli import EXIT_LIMIT, EXIT_OK, EXIT_PRECISION, EXIT_USAGE, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestContinuantCommand:
    def test_known_word(self, capsys):
        code, out, _ = run(capsys, "continuant", "2,1,1,2")
        assert code == EXIT_OK
        assert out.strip() == "13"

    def test_empty_word(self, capsys):
        code, out, _ = run(capsys, "continuant", "")
        assert code == EXIT_OK
        assert out.strip() == "1"

    def test_single_letter(self, capsys):
        code, out, _ = run(capsys, "continuant", "5")
        assert code == EXIT_OK
        assert out.strip() == "5"

    def test_parse_error_names_token(self, capsys):
        code, _, err = run(capsys, "continuant", "2,x,1")
        assert code == EXIT_USAGE
        assert "'x'" in err

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "continuant", "--format", "json", "9,9,9")
        doc = json.loads(out)
        assert doc == {"word": "9,9,9", "value": "747"}

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "continuant", "--format", "csv", "2,1,1,2")
        rows = list(csv.reader(io.StringIO(out)))
        assert rows == [["word", "value"], ["2,1,1,2", "13"]]

    def test_big_value_is_plain_decimal(self, capsys):
        _, out, _ = run(capsys, "continuant", ",".join(["9"] * 60))
        text = out.strip()
        assert text.isdigit()
        assert "e" not in text and "E" not in text


class TestWmaxCommand:
    def test_two_letter_class(self, capsys):
        code, out, _ = run(capsys, "wmax", "--alphabet", "1,2", "--parikh", "2,2")
        assert code == EXIT_OK
        assert out.strip() == "2,1,1,2"

    def test_single_letter(self, capsys):
        code, out, _ = run(capsys, "wmax", "--alphabet", "7", "--parikh", "3")
        assert out.strip() == "7,7,7"

    def test_verify_flag(self, capsys):
        code, out, _ = run(capsys, "wmax", "--alphabet", "1,2,3", "--parikh", "2,2,2", "--verify")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines == ["3,2,1,1,2,3", "verified"]

    def test_verify_keeps_the_limit_gate(self, capsys):
        argv = ("wmax", "--alphabet", "1,2,3", "--parikh", "9,9,9")
        code, out, err = run(capsys, *argv, "--verify")
        assert (code, out) == (EXIT_LIMIT, "")
        assert str(exact_class_count((9, 9, 9))) in err
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK

    def test_round_trip(self, capsys):
        _, out, _ = run(capsys, "wmax", "--alphabet", "2,5,9", "--parikh", "3,1,2")
        word = parse_word(out.strip())
        assert sorted(word) == [2, 2, 2, 5, 9, 9]

    def test_mismatched_lengths(self, capsys):
        code, _, err = run(capsys, "wmax", "--alphabet", "1,2,3", "--parikh", "2,2")
        assert code == EXIT_USAGE
        assert "letters" in err

    def test_zero_count(self, capsys):
        code, _, err = run(capsys, "wmax", "--alphabet", "1,2", "--parikh", "2,0")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("command", ["wmax", "census"])
    @pytest.mark.parametrize("token", ["x", "0", "-1"])
    def test_bad_parikh_token_names_a_count(self, capsys, command, token):
        code, out, err = run(capsys, command, "--alphabet", "1,2", "--parikh", f"2,{token}")
        assert code == EXIT_USAGE
        assert out == ""
        assert err == f"error: invalid Parikh count {token!r}: expected a positive integer\n"

    def test_lacunary_alphabet(self, capsys):
        code, out, _ = run(
            capsys, "wmax", "--lacunary", "1,1,3,1", "--parikh", "1,1,1"
        )
        assert code == EXIT_OK
        assert out.strip() == "3,1,2"

    @pytest.mark.parametrize(
        "lacunary, message",
        [
            ("1,1", "--lacunary needs at least t,l,s and one low-part letter"),
            ("1,x,3,1", "invalid lacunary field: 'x' is not an integer"),
            ("2,3,6,1", "--lacunary lists 1 low-part letters, expected t=2"),
            ("1,2,2,1", "need 1 <= t <= l < s, got t=1, l=2, s=2"),
            ("3,2,5,1,2,3", "need 1 <= t <= l < s, got t=3, l=2, s=5"),
            ("2,3,6,0,1", "low-part letters must be >= 1"),
            ("2,3,5,3,1", "low-part letters must be strictly increasing"),
            ("2,2,4,1,3", "largest low-part letter 3 exceeds l=2"),
            # The letter count, about 10^12, is wrong too; the low part is still reported first.
            ("2,3,1000000000001,3,1", "low-part letters must be strictly increasing"),
            ("1,2,1000000000000,3", "largest low-part letter 3 exceeds l=2"),
        ],
    )
    def test_bad_lacunary(self, capsys, lacunary, message):
        code, out, err = run(capsys, "wmax", "--lacunary", lacunary, "--parikh", "1,1,1")
        assert (code, out, err) == (EXIT_USAGE, "", f"error: {message}\n")


class TestCensusCommand:
    def test_json_golden(self, capsys):
        code, out, _ = run(capsys, "census", "--alphabet", "1,2", "--parikh", "2,2", "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["N"] == "4" and doc["P"] == "4"
        assert doc["spectrum"] == [[1, 4]]
        assert doc["max_value"] == "13" and doc["min_value"] == "10"
        assert doc["alphabet"] == [1, 2] and doc["parikh"] == [2, 2]

    def test_trivial_class(self, capsys):
        code, out, _ = run(capsys, "census", "--alphabet", "3", "--parikh", "1", "--format", "json")
        doc = json.loads(out)
        assert doc["N"] == "1" and doc["P"] == "1"

    def test_oversized_class_mentions_size_and_limit(self, capsys):
        code, _, err = run(
            capsys, "census", "--alphabet", "1,2,3,4", "--parikh", "5,5,5,5", "--limit", "1000"
        )
        assert code == EXIT_LIMIT
        assert "5866372512" in err
        assert "1000" in err

    def test_value_budget_error_at_the_default_budget(self, capsys):
        # 1.7e7 classes: the kernel stops at the row that crosses 10^6 values.
        code, out, err = run(capsys, "census", "--alphabet", "1,2,3,4,5", "--parikh", "3,3,3,3,2")
        assert (code, out) == (EXIT_LIMIT, "")
        assert "exceeding the budget of 1000000" in err

    def test_plain_format_lines(self, capsys):
        _, out, _ = run(capsys, "census", "--alphabet", "1,2", "--parikh", "2,2")
        assert "N: 4" in out
        assert "P: 4" in out
        assert "spectrum: 1:4" in out

    def test_csv_has_header_row(self, capsys):
        _, out, _ = run(capsys, "census", "--alphabet", "1,2", "--parikh", "2,2", "--format", "csv")
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][:5] == ["n", "alphabet", "parikh", "N", "P"]
        assert rows[1][:5] == ["4", "1,2", "2,2", "4", "4"]

    def test_empty_class(self, capsys):
        code, out, err = run(capsys, "census", "--alphabet", "", "--parikh", "", "--format", "csv")
        assert (code, err) == (EXIT_OK, "")
        assert out == "n,alphabet,parikh,N,P,max_multiplicity,max_value,min_value,spectrum\n0,,,1,1,1,1,1,1:1\n"

    def test_workers_flag_changes_nothing(self, capsys):
        _, out1, _ = run(capsys, "census", "--alphabet", "1,2,3", "--parikh", "2,2,2", "--format", "json")
        _, out8, _ = run(
            capsys, "census", "--alphabet", "1,2,3", "--parikh", "2,2,2", "--format", "json",
            "--workers", "8",
        )
        assert out1 == out8


class TestBoundsCommand:
    def test_desk_values(self, capsys):
        code, out, _ = run(
            capsys, "bounds", "--t", "1", "--l", "1", "--s", "2", "--m", "2", "--format", "json"
        )
        doc = json.loads(out)
        assert doc["value_count_upper"] == "1152"
        assert doc["class_count_lower"] == "3"
        assert doc["m_threshold"] == 345

    def test_find_admissible(self, capsys):
        code, out, _ = run(capsys, "bounds", "--t", "1", "--l", "1", "--find-admissible", "--format", "json")
        doc = json.loads(out)
        assert doc["admissible_s"] == 4

    def test_exact_rational_density(self, capsys):
        code, out, _ = run(capsys, "bounds", "--t", "1", "--l", "2", "--s", "3", "--format", "json")
        doc = json.loads(out)
        assert doc["density_power"]["midpoint"] == "0.0625"
        assert doc["density_power"]["radius"] == "0"

    def test_plain_shows_exact_fraction(self, capsys):
        _, out, _ = run(capsys, "bounds", "--t", "1", "--l", "2", "--s", "3")
        assert "density_power: 1/16 (exact)" in out

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--t", "2", "--l", "1"], "need 1 <= t <= l, got t=2, l=1"),
            (["--t", "3", "--l", "2", "--s", "5"], "need 1 <= t <= l < s, got t=3, l=2, s=5"),
        ],
    )
    def test_bad_shape(self, capsys, flags, message):
        assert run(capsys, "bounds", *flags) == (EXIT_USAGE, "", f"error: {message}\n")

    @pytest.mark.parametrize("s", [1369, 1370])
    def test_every_digit_of_an_exact_density(self, capsys, monkeypatch, s):
        # From s = 1370 on, the plain density fraction has more than 4300
        # digits, Python's default limit for int-to-str conversion.  The
        # report is built once and rendered in all three formats.
        monkeypatch.setattr(bounds, "bounds_report", functools.cache(bounds.bounds_report))
        argv = ["bounds", "--t", "1", "--l", "1", "--s", str(s)]
        code, out, err = run(capsys, *argv)
        assert (code, err) == (EXIT_OK, "")
        [line] = [x for x in out.splitlines() if x.startswith("density_power: ")]
        num, den = line.removeprefix("density_power: ").removesuffix(" (exact)").split("/")
        f = Fraction(s, s + 1) ** (s + 1)
        assert (Decimal(num), Decimal(den)) == (f.numerator, f.denominator)
        assert (max(len(num), len(den)) > 4300) == (s >= 1370)

        code, out, err = run(capsys, *argv, "--format", "json")
        assert (code, err) == (EXIT_OK, "")
        assert json.loads(out)["density_power"]["precision_bits"] == 0  # exact
        code, out, err = run(capsys, *argv, "--format", "csv")
        assert (code, err) == (EXIT_OK, "")
        assert len(list(csv.reader(io.StringIO(out)))) == 2


    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_plain_lines_only_for_plain(self, capsys, monkeypatch, fmt):
        calls = []
        plain = cli._certified_plain
        monkeypatch.setattr(cli, "_certified_plain", lambda cr: calls.append(cr) or plain(cr))
        argv = ["bounds", "--t", "1", "--l", "1", "--s", "5", "--m", "2"]
        assert run(capsys, *argv, "--format", fmt)[0] == EXIT_OK
        assert calls == []
        assert run(capsys, *argv)[0] == EXIT_OK
        assert len(calls) == 2  # density_power and growth_factor


ONE_MODE = "give exactly one of --m-range or --budget"


class TestExploreCommand:
    def test_empty_result_exits_zero(self, capsys):
        code, out, _ = run(
            capsys, "explore", "--alphabet", "1,2", "--target-mu", "2", "--m-range", "1..2",
            "--format", "json",
        )
        assert code == EXIT_OK
        assert json.loads(out) == {"witnesses": []}

    def test_single_letter_scan(self, capsys):
        code, out, _ = run(capsys, "explore", "--alphabet", "5", "--m-range", "1..3", "--format", "json")
        doc = json.loads(out)
        assert [e["max_multiplicity"] for e in doc["entries"]] == [1, 1, 1]
        assert len(doc["entries"]) == 3

    def test_budget_exhaustion_summary(self, capsys):
        code, out, _ = run(capsys, "explore", "--alphabet", "1,2", "--budget", "5")
        assert code == EXIT_OK
        assert "scanned 5 classes" in out
        assert "budget exhausted" in out

    def test_budget_json_fields(self, capsys):
        _, out, _ = run(
            capsys, "explore", "--alphabet", "1,2,3,4", "--budget", "50", "--format", "json"
        )
        doc = json.loads(out)
        assert doc["classes_scanned"] == 42
        assert doc["budget_exhausted"] is True
        assert len(doc["witnesses"]) == 8
        first = doc["witnesses"][0]
        assert first["word"] == "1,3,4,2" and first["value"] == "38"

    def test_csv_rows(self, capsys):
        _, out, _ = run(
            capsys, "explore", "--alphabet", "1,2,3,4", "--budget", "15", "--format", "csv"
        )
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["alphabet", "parikh", "word", "value", "multiplicity"]
        assert rows[1] == ["1,2,3,4", "1,1,1,1", "1,3,4,2", "38", "2"]

    def test_empty_alphabet(self, capsys):
        code, out, err = run(capsys, "explore", "--alphabet", "", "--m-range", "1..2")
        assert (code, err) == (EXIT_OK, "")
        assert out == "m=1 max_multiplicity=1 word= value=1\nm=2 max_multiplicity=1 word= value=1\n"
        code, out, err = run(capsys, "explore", "--alphabet", "", "--budget", "10")
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "error: need a non-empty alphabet for the exact-multiplicity scan\n"

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--alphabet", "1,2"], ONE_MODE),
            (["--alphabet", "1,2", "--m-range", "1..2", "--budget", "3"], ONE_MODE),
            (
                ["--alphabet", "1,2", "--lacunary", "1,1,3,1", "--budget", "3"],
                "give either --alphabet or --lacunary, not both",
            ),
            (["--budget", "3"], "an alphabet is required (--alphabet or --lacunary)"),
            (["--alphabet", "1,2", "--m-range", "1-2"], "invalid m-range '1-2': expected A..B"),
        ],
        ids=["no-mode", "both-modes", "both-alphabets", "no-alphabet", "m-range-form"],
    )
    def test_requires_mode(self, capsys, flags, message):
        assert run(capsys, "explore", *flags) == (EXIT_USAGE, "", f"error: {message}\n")

    @pytest.mark.parametrize("m_range", ["3..1", "0..2"])
    @pytest.mark.parametrize("target", [[], ["--target-mu", "2"]], ids=["scan", "target-mu"])
    def test_m_range_rule_with_and_without_target(self, capsys, m_range, target):
        code, out, err = run(capsys, "explore", "--alphabet", "1,2", "--m-range", m_range, *target)
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"error: need 1 <= m_start <= m_end, got {m_range}\n"


# 10^(D-1) has D digits, the most that str() accepts by default; K(low, 10^(D-1))
# = low 10^(D-1) + 1 has D digits for low = 9 and D + 1 for low = 10.
DIGIT_LIMIT = sys.get_int_max_str_digits() or 4300
WIDE_LETTER = "1" + "0" * (DIGIT_LIMIT - 1)


@pytest.mark.parametrize(
    "low,expected",
    [("9", "9" + "0" * (DIGIT_LIMIT - 2) + "1"), ("10", "1" + "0" * (DIGIT_LIMIT - 1) + "1")],
    ids=["at-limit", "past-limit"],
)
class TestEveryDigit:
    """Documents print every digit of a value, past the int-to-str digit limit too."""

    def formats(self, capsys, *argv):
        """The JSON document, after checking that all three formats exit 0."""
        for fmt in ("plain", "csv", "json"):
            code, out, err = run(capsys, *argv, "--format", fmt)
            assert (code, err) == (EXIT_OK, "")
        return json.loads(out)

    def test_continuant(self, capsys, low, expected):
        doc = self.formats(capsys, "continuant", f"{low},{WIDE_LETTER}")
        assert doc["value"] == expected

    def test_census(self, capsys, low, expected):
        doc = self.formats(capsys, "census", "--alphabet", f"{low},{WIDE_LETTER}", "--parikh", "1,1")
        assert doc["max_value"] == doc["min_value"] == doc["witnesses"][0]["value"] == expected
        assert (doc["N"], doc["P"]) == ("1", "1")

    def test_explore(self, capsys, low, expected):
        argv = ["explore", "--alphabet", f"{low},{WIDE_LETTER}", "--m-range", "1..1"]
        assert self.formats(capsys, *argv)["entries"][0]["witness"]["value"] == expected
        assert self.formats(capsys, *argv, "--target-mu", "1")["witnesses"][0]["value"] == expected


PAST_LIMIT = "1" + "0" * DIGIT_LIMIT  # one digit more than int() accepts


@pytest.mark.parametrize("token", [WIDE_LETTER, PAST_LIMIT], ids=["at-limit", "past-limit"])
class TestInputDigits:
    """Word tokens, --alphabet letters and --parikh counts parse at any length."""

    def test_word_token(self, capsys, token):
        for fmt in ("plain", "csv", "json"):
            code, out, err = run(capsys, "continuant", token, "--format", fmt)
            assert (code, err) == (EXIT_OK, "")
        assert json.loads(out) == {"word": token, "value": token}

    def test_alphabet(self, capsys, token):
        code, out, err = run(capsys, "census", "--alphabet", f"1,{token}", "--parikh", "1,1")
        assert (code, err) == (EXIT_OK, "")
        assert f"alphabet: 1,{token}\n" in out

    def test_parikh(self, capsys, token):
        # The count parses; only then does the alignment check refuse it.
        code, out, err = run(capsys, "census", "--alphabet", "1,2", "--parikh", token)
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "error: alphabet has 2 letters but Parikh vector has 1 counts\n"


class TestLongFields:
    """--lacunary and --m-range parse at any length."""

    def test_lacunary_prints_what_the_same_alphabet_prints(self, capsys):
        high = PAST_LIMIT[:-1] + "1"
        for fmt in ("plain", "csv"):
            flags = ("--parikh", "1,1", "--format", fmt)
            lacunary = run(capsys, "wmax", "--lacunary", f"1,{PAST_LIMIT},{high},5", *flags)
            alphabet = run(capsys, "wmax", "--alphabet", f"5,{high}", *flags)
            assert lacunary == alphabet
            assert lacunary[0] == EXIT_OK and high in lacunary[1]

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--lacunary", f"1,{PAST_LIMIT},5,1"], f"need 1 <= t <= l < s, got t=1, l={PAST_LIMIT}, s=5"),
            (
                ["--lacunary", f"{PAST_LIMIT},1,5,1"],
                f"--lacunary lists 1 low-part letters, expected t={PAST_LIMIT}",
            ),
            (
                ["--alphabet", "1,2", "--m-range", f"{PAST_LIMIT}..1"],
                f"need 1 <= m_start <= m_end, got {PAST_LIMIT}..1",
            ),
        ],
        ids=["lacunary-l", "lacunary-t", "m-range"],
    )
    def test_rule_names_the_long_field(self, capsys, flags, message):
        assert run(capsys, "explore", *flags) == (EXIT_USAGE, "", f"error: {message}\n")

    @given(st.text(st.sampled_from("0123456789 +-_.eE\u00b2\u0663\t"), max_size=8))
    def test_short_text_parses_as_int_does(self, text):
        try:
            expected = int(text)
        except ValueError:
            message = f"invalid field: {text!r} is not an integer"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                cli._parse_int(text, "field")
        else:
            assert cli._parse_int(text, "field") == expected


class TestLacunaryLetterCount:
    """wmax and census count a --lacunary alphabet's letters, t + s - l,
    against the Parikh vector before they build them."""

    @pytest.mark.parametrize("command", ["wmax", "census"])
    @pytest.mark.parametrize("s", ["3", "1000000000000", PAST_LIMIT], ids=["3", "10^12", "past-limit"])
    def test_count_is_checked_before_the_letters_are_built(self, capsys, command, s):
        # t = l = 1, so the alphabet would have s letters; s = 3 is today's check_aligned error.
        code, out, err = run(capsys, command, "--lacunary", f"1,1,{s},1", "--parikh", "1,1")
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"error: alphabet has {s} letters but Parikh vector has 2 counts\n"


@pytest.mark.parametrize(
    "argv",
    [["continuant", "1,\u00b2"], ["census", "--alphabet", "\u00b2", "--parikh", "1"],
     ["census", "--alphabet", "1", "--parikh", "\u00b2"]],
    ids=["word", "alphabet", "parikh"],
)
def test_digit_that_is_no_decimal_keeps_its_error(capsys, argv):
    # isdigit() accepts a superscript two, int() and Decimal refuse it.
    assert run(capsys, *argv) == (EXIT_USAGE, "", "error: invalid literal for int() with base 10: '\u00b2'\n")


@pytest.mark.parametrize("count", ["9" * 20, PAST_LIMIT])
def test_count_past_the_index_range_is_a_usage_error(capsys, count):
    code, out, err = run(capsys, "census", "--alphabet", "1", "--parikh", count)
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [["census", "--parikh", "10000,10000"], ["wmax", "--parikh", "10000,10000", "--verify"],
     ["explore", "--m-range", "10000..10000"]],
    ids=["census", "wmax-verify", "explore"],
)
def test_class_past_the_digit_limit_is_a_limit_error(capsys, argv):
    # The class size has 6019 digits: the error prints every one and exits 3.
    size = str(Decimal(exact_class_count((10000, 10000))))
    assert len(size) > DIGIT_LIMIT
    message = f"error: class has {size} members up to reversal, exceeding the limit of 100000000\n"
    assert run(capsys, argv[0], "--alphabet", "1,2", *argv[1:]) == (EXIT_LIMIT, "", message)


CENSUS_PLAIN = """\
n: 5
alphabet: 1,2,3
parikh: 2,2,1
N: 16
P: 10
max_multiplicity: 3
max_value: 44
min_value: 31
spectrum: 1:6;2:2;3:2
witnesses:
  mu=3 value=39 words: 1,1,2,3,2 1,1,3,2,2 2,1,3,1,2
  mu=3 value=41 words: 1,1,2,2,3 2,1,1,3,2 2,1,2,1,3
  mu=2 value=33 words: 1,2,3,2,1 1,3,1,2,2
  mu=2 value=37 words: 1,2,1,2,3 1,2,2,1,3
  mu=1 value=31 words: 1,2,2,3,1
  mu=1 value=34 words: 1,2,1,3,2
  mu=1 value=35 words: 1,3,2,1,2
  mu=1 value=36 words: 1,2,3,1,2
  mu=1 value=43 words: 2,2,1,1,3
  mu=1 value=44 words: 2,1,1,2,3
"""

BOUNDS_PLAIN = """\
t: 1
l: 2
s: 3
m: -
s_threshold: 4
m_threshold: 593
density_power: 1/16 (exact)
growth_factor: 0.167195922049079267172141 +- 4.01113109209878838458991E-25
admissible: False
admissible_s: -
value_count_upper: -
class_count_lower: -
"""

BOUNDS_CSV = """\
t,l,s,m,s_threshold,m_threshold,density_power,growth_factor,admissible,admissible_s,value_count_upper,class_count_lower
1,2,3,,4,593,0.0625~0,0.167195922049079267172141401113109210~1.21161549517077055280252884460347586E-37,False,,,
"""

EXPLORE_M_RANGE_CSV = """\
m,max_multiplicity,alphabet,parikh,word,value
1,1,"1,2","1,1","1,2",3
2,1,"1,2","2,2","1,2,2,1",10
3,2,"1,2","3,3","1,1,2,2,2,1",41
"""


class TestOutputBytes:
    """Plain and CSV output, byte for byte, one golden per subcommand."""

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["census", "--alphabet", "1,2,3", "--parikh", "2,2,1"], CENSUS_PLAIN),
            (["bounds", "--t", "1", "--l", "2", "--s", "3"], BOUNDS_PLAIN),
            (["bounds", "--t", "1", "--l", "2", "--s", "3", "--format", "csv"], BOUNDS_CSV),
            (["explore", "--alphabet", "1,2", "--m-range", "1..3", "--format", "csv"], EXPLORE_M_RANGE_CSV),
            (["continuant", "2,1,1,2", "--format", "csv"], 'word,value\n"2,1,1,2",13\n'),
            (
                ["wmax", "--alphabet", "1,2,3", "--parikh", "2,2,2", "--verify", "--format", "csv"],
                'alphabet,parikh,word,verified\n"1,2,3","2,2,2","3,2,1,1,2,3",True\n',
            ),
        ],
    )
    def test_golden(self, capsys, argv, expected):
        assert run(capsys, *argv) == (EXIT_OK, expected, "")


# One command line per subcommand.
ONE_PER_COMMAND = [
    ["continuant", "2,1,1,2"],
    ["wmax", "--alphabet", "1,2", "--parikh", "2,2", "--verify"],
    ["census", "--alphabet", "1,2", "--parikh", "2,2"],
    ["bounds", "--t", "1", "--l", "1", "--s", "5", "--m", "2"],
    ["explore", "--alphabet", "1,2", "--budget", "1"],
]


class TestGlobalFlags:
    @pytest.mark.parametrize("argv", ONE_PER_COMMAND, ids=lambda argv: argv[0])
    def test_precision_flag_is_refused(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main([*argv, "--precision", "64"])
        captured = capsys.readouterr()
        assert (info.value.code, captured.out) == (EXIT_USAGE, "")
        assert captured.err.startswith("usage: continuants")
        assert "unrecognized arguments: --precision 64" in captured.err

    @pytest.mark.parametrize(
        "name, value",
        [
            ("LIMIT", "2"),
            ("LIMIT", "0"),
            ("LIMIT", "x"),
            ("LIMIT", PAST_LIMIT),
            ("FORMAT", "json"),
            ("FORMAT", ""),
            ("FORMAT", "yaml"),
            ("PRECISION", "abc"),
        ],
        ids=[
            "limit-2", "limit-0", "limit-x", "limit-past-limit",
            "format-json", "format-empty", "format-yaml", "precision-abc",
        ],
    )
    @pytest.mark.parametrize("argv", ONE_PER_COMMAND, ids=lambda argv: argv[0])
    def test_no_variable_is_read(self, capsys, monkeypatch, argv, name, value):
        for unset in ("LIMIT", "FORMAT", "PRECISION"):
            monkeypatch.delenv("CONTINUANTS_" + unset, raising=False)
        expected = run(capsys, *argv)
        monkeypatch.setenv("CONTINUANTS_" + name, value)
        assert run(capsys, *argv) == expected
        assert expected[0] == EXIT_OK

    def test_precision_exhausted_exits_4(self, capsys, monkeypatch):
        precisions = []

        def never_decides(t, l, s, *, prec):  # [1/2, 2] straddles 1 at every precision
            precisions.append(prec)
            return bounds.CertifiedReal(Fraction(1, 2), Fraction(2), prec)

        monkeypatch.setattr(bounds, "growth_factor", never_decides)
        monkeypatch.setattr(bounds, "MAX_PREC_BITS", 256)
        assert run(capsys, "bounds", "--t", "1", "--l", "1", "--s", "5") == (
            EXIT_PRECISION,
            "",
            "error: growth_factor(1,1,5) vs 1: enclosure still straddles the threshold at 256 bits\n",
        )
        assert precisions == [128, 256]

    def test_workers_must_be_positive(self, capsys):
        code, out, err = run(capsys, "continuant", "1,2", "--workers", "0")
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "error: workers must be positive, got 0\n"


class TestRepeatedCalls:
    """main() reuses one parser per process; a second call must not notice."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["wmax", "--alphabet", "1,2,3", "--parikh", "2,2,3", "--verify"],
            ["bounds", "--t", "1", "--l", "1", "--s", "2", "--m", "2", "--format", "json"],
            ["bounds", "--t", "2", "--l", "1"],
        ],
    )
    def test_second_call_prints_the_same(self, capsys, argv):
        first = run(capsys, *argv)
        assert run(capsys, *argv) == first

    @pytest.mark.parametrize(
        "argv",
        [
            ["census", "--alphabet", "1,2"],
            ["bounds", "--t", "x", "--l", "1"],
            ["frobnicate"],
        ],
    )
    def test_second_usage_error_prints_the_same(self, capsys, argv):
        def usage_error():
            with pytest.raises(SystemExit) as info:
                main(list(argv))
            captured = capsys.readouterr()
            return info.value.code, captured.out, captured.err

        first = usage_error()
        assert first[0] == EXIT_USAGE and first[1] == ""
        assert first[2].startswith("usage: continuants")
        assert usage_error() == first

    def test_parser_is_built_once_but_build_parser_stays_fresh(self, capsys, monkeypatch):
        built = []
        build = cli.build_parser

        def counted():
            built.append(1)
            return build()

        monkeypatch.setattr(cli, "build_parser", counted)
        cli._parser.cache_clear()
        try:
            for _ in range(2):
                assert run(capsys, "continuant", "2,1,1,2")[:2] == (EXIT_OK, "13\n")
        finally:
            cli._parser.cache_clear()
        assert len(built) == 1
        assert build() is not build()


class TestSettings:
    """--limit and --format come from the flag, else the library default;
    --workers and then --limit are checked once, before the command runs."""

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--limit", "0"], "enumeration limit must be positive, got 0"),
            (["--workers", "0", "--limit", "0"], "workers must be positive, got 0"),
        ],
    )
    def test_bad_setting(self, capsys, flags, message):
        expected = (EXIT_USAGE, "", f"error: {message}\n")
        assert run(capsys, "bounds", "--t", "1", "--l", "1", *flags) == expected

    @staticmethod
    def spy(monkeypatch, module, name):
        """Record the keywords main() passes to module.name, which still runs."""
        seen = {}
        real = getattr(module, name)

        def recorded(*args, **kwargs):
            seen.update(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, recorded)
        return seen

    def test_default_limit(self, capsys, monkeypatch):
        seen = self.spy(monkeypatch, census, "run_census")
        assert run(capsys, "census", "--alphabet", "1,2", "--parikh", "2,2")[0] == EXIT_OK
        assert seen["limit"] == 10**8

    def test_bounds_takes_no_setting(self, capsys, monkeypatch):
        seen = self.spy(monkeypatch, bounds, "bounds_report")
        assert run(capsys, "bounds", "--t", "1", "--l", "1", "--s", "3")[0] == EXIT_OK
        assert seen == {"find_admissible": False}
