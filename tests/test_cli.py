"""CLI surface: parsing, formats, exit codes, environment overrides."""

import csv
import io
import json

import pytest

from continuants.cli import EXIT_LIMIT, EXIT_OK, EXIT_USAGE, RunConfig, main
from continuants import exact_class_count, parse_word


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

    def test_bad_shape(self, capsys):
        code, _, err = run(capsys, "bounds", "--t", "2", "--l", "1")
        assert code == EXIT_USAGE


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

    def test_requires_mode(self, capsys):
        code, _, err = run(capsys, "explore", "--alphabet", "1,2")
        assert code == EXIT_USAGE
        code, _, err = run(capsys, "explore", "--alphabet", "1,2", "--m-range", "1..2", "--budget", "3")
        assert code == EXIT_USAGE


class TestGlobalFlags:
    def test_env_override_format(self, capsys, monkeypatch):
        monkeypatch.setenv("CONTINUANTS_FORMAT", "json")
        _, out, _ = run(capsys, "continuant", "2,1,1,2")
        assert json.loads(out)["value"] == "13"

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("CONTINUANTS_FORMAT", "json")
        _, out, _ = run(capsys, "continuant", "--format", "plain", "2,1,1,2")
        assert out.strip() == "13"

    def test_env_override_limit(self, capsys, monkeypatch):
        monkeypatch.setenv("CONTINUANTS_LIMIT", "2")
        code, _, err = run(capsys, "census", "--alphabet", "1,2", "--parikh", "2,2")
        assert code == EXIT_LIMIT
        assert "2" in err

    @pytest.mark.parametrize(
        "name", ["CONTINUANTS_LIMIT", "CONTINUANTS_PRECISION", "CONTINUANTS_FORMAT"]
    )
    def test_bad_env_value_names_the_variable(self, capsys, monkeypatch, name):
        monkeypatch.setenv(name, "abc")
        code, out, err = run(capsys, "continuant", "1,2")
        assert code == EXIT_USAGE
        assert out == ""
        assert name in err and "'abc'" in err
        if name == "CONTINUANTS_FORMAT":
            assert all(fmt in err for fmt in ("plain", "json", "csv"))

    def test_precision_flag_forms(self, capsys):
        code, _, _ = run(capsys, "bounds", "--t", "1", "--l", "1", "--s", "3", "--precision", "64")
        assert code == EXIT_OK
        code, _, _ = run(capsys, "bounds", "--t", "1", "--l", "1", "--s", "3", "--precision", "64:512")
        assert code == EXIT_OK

    def test_bad_precision_rejected(self, capsys):
        code, _, err = run(capsys, "bounds", "--t", "1", "--l", "1", "--precision", "512:64")
        assert code == EXIT_USAGE

    def test_workers_must_be_positive(self, capsys):
        code, out, err = run(capsys, "continuant", "1,2", "--workers", "0")
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "error: workers must be positive, got 0\n"


class TestRunConfig:
    def test_defaults_are_positive(self):
        cfg = RunConfig()
        assert cfg.enumeration_limit == 10**8
        assert cfg.precision_bits == 128
        assert cfg.max_precision_bits == 4096

    def test_validation(self):
        with pytest.raises(ValueError):
            RunConfig(enumeration_limit=0)
        with pytest.raises(ValueError):
            RunConfig(precision_bits=256, max_precision_bits=128)
        with pytest.raises(ValueError):
            RunConfig(output_format="yaml")
