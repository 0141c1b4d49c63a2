"""Command-line front end: continuant, wmax, census, bounds, explore.

Every subcommand prints machine-readable output in one of three formats
(plain, json, csv) and uses a fixed exit-code discipline:

    0  success, including empty search results
    2  parse or validation error
    3  enumeration limit or value-table budget exceeded
    4  certified-comparison precision exhausted

Global flags may also be supplied through environment variables with the
CONTINUANTS_ prefix (CONTINUANTS_LIMIT, CONTINUANTS_PRECISION,
CONTINUANTS_FORMAT); explicit flags win over the environment.  --workers
must be a positive integer and has no effect: every command runs in one
process.  It is still accepted so that existing command lines keep working.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass

from . import bounds as bounds_mod
from . import census as census_mod
from . import explorer as explorer_mod
from . import extremal as extremal_mod
from .bounds import PrecisionExhaustedError
from .census import ClassTooLargeError, ValueBudgetExceededError
from .core import Alphabet, ParikhVector, _parse_positive, continuant, format_word, parse_word

ENV_PREFIX = "CONTINUANTS_"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_LIMIT = 3
EXIT_PRECISION = 4

FORMATS = ("plain", "json", "csv")


@dataclass(frozen=True)
class RunConfig:
    """Bundled run-time knobs shared by all subcommands."""

    enumeration_limit: int = census_mod.DEFAULT_CLASS_LIMIT
    precision_bits: int = bounds_mod.DEFAULT_PREC_BITS
    max_precision_bits: int = bounds_mod.MAX_PREC_BITS
    output_format: str = "plain"

    def __post_init__(self) -> None:
        if self.enumeration_limit < 1:
            raise ValueError(f"enumeration limit must be positive, got {self.enumeration_limit}")
        if self.precision_bits < 1:
            raise ValueError(f"precision must be positive, got {self.precision_bits}")
        if self.max_precision_bits < self.precision_bits:
            raise ValueError(
                f"maximum precision {self.max_precision_bits} is below the "
                f"initial precision {self.precision_bits}"
            )
        if self.output_format not in FORMATS:
            raise ValueError(f"unknown output format {self.output_format!r}")


def _env(name: str) -> str | None:
    return os.environ.get(ENV_PREFIX + name)


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"invalid {what}: {text!r} is not an integer") from None


def _parse_precision(text: str, what: str) -> tuple[int, int]:
    """'128' or '128:4096' -> (initial bits, maximum bits)."""
    if ":" in text:
        first, second = text.split(":", 1)
        return _parse_int(first, what), _parse_int(second, what)
    return _parse_int(text, what), bounds_mod.MAX_PREC_BITS


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--workers", type=int, default=None, help="accepted for compatibility; has no effect"
    )
    shared.add_argument("--limit", type=int, default=None, help="enumeration limit (reversal classes)")
    shared.add_argument("--precision", default=None, help="certified-real precision bits, BITS or INIT:MAX")
    shared.add_argument("--format", choices=FORMATS, default=None, help="output format")

    parser = argparse.ArgumentParser(prog="continuants", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("continuant", parents=[shared], help="evaluate K on a word")
    p.add_argument("word", help="comma-separated letters, empty string for the empty word")

    p = sub.add_parser("wmax", parents=[shared], help="build the maximizing arrangement")
    _add_class_flags(p)
    p.add_argument(
        "--verify", action="store_true", help="check it is the unique maximum (exact Pareto-front oracle)"
    )

    p = sub.add_parser("census", parents=[shared], help="census the continuant values of a class")
    _add_class_flags(p)

    p = sub.add_parser("bounds", parents=[shared], help="evaluate counting bounds and thresholds")
    p.add_argument("--t", type=int, required=True, help="low-part size t")
    p.add_argument("--l", type=int, required=True, help="gap parameter l")
    p.add_argument("--s", type=int, default=None, help="top letter s")
    p.add_argument("--m", type=int, default=None, help="repetition count m")
    p.add_argument("--find-admissible", action="store_true", help="search the smallest admissible s")

    p = sub.add_parser("explore", parents=[shared], help="search for multiplicity witnesses")
    p.add_argument("--alphabet", default=None, help="comma-separated alphabet letters")
    p.add_argument("--lacunary", default=None, help="t,l,s,b_1..b_t: lacunary alphabet shape")
    p.add_argument("--target-mu", type=int, default=None, help="multiplicity target (default 2)")
    p.add_argument("--m-range", default=None, help="A..B: equipartitioned scan range")
    p.add_argument("--budget", type=int, default=None, help="class budget for the exact search")

    return parser


def _add_class_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alphabet", default=None, help="comma-separated alphabet letters")
    p.add_argument("--lacunary", default=None, help="t,l,s,b_1..b_t: lacunary alphabet shape")
    p.add_argument("--parikh", required=True, help="comma-separated occurrence counts")


def _config_from(args: argparse.Namespace) -> RunConfig:
    limit = args.limit
    if limit is None:
        limit_text = _env("LIMIT")
        if limit_text is None:
            limit = census_mod.DEFAULT_CLASS_LIMIT
        else:
            limit = _parse_int(limit_text, ENV_PREFIX + "LIMIT")
    precision_text, precision_what = args.precision, "precision"
    if precision_text is None:
        precision_text, precision_what = _env("PRECISION"), ENV_PREFIX + "PRECISION"
    format_text = args.format if args.format is not None else _env("FORMAT")
    if format_text is not None and format_text not in FORMATS:  # argparse checks --format
        raise ValueError(
            f"invalid {ENV_PREFIX}FORMAT: {format_text!r} is not one of {', '.join(FORMATS)}"
        )

    if precision_text is not None:
        prec, max_prec = _parse_precision(precision_text, precision_what)
    else:
        prec, max_prec = bounds_mod.DEFAULT_PREC_BITS, bounds_mod.MAX_PREC_BITS
    fmt = format_text if format_text is not None else "plain"
    if args.workers is not None and args.workers < 1:
        raise ValueError(f"workers must be positive, got {args.workers}")
    return RunConfig(
        enumeration_limit=limit,
        precision_bits=prec,
        max_precision_bits=max_prec,
        output_format=fmt,
    )


def _parse_alphabet(args: argparse.Namespace) -> Alphabet:
    if args.lacunary is not None:
        if args.alphabet is not None:
            raise ValueError("give either --alphabet or --lacunary, not both")
        fields = [tok.strip() for tok in args.lacunary.split(",")]
        if len(fields) < 4:
            raise ValueError("--lacunary needs at least t,l,s and one low-part letter")
        values = [_parse_int(tok, "lacunary field") for tok in fields]
        t, l, s = values[0], values[1], values[2]
        low = values[3:]
        if len(low) != t:
            raise ValueError(f"--lacunary lists {len(low)} low-part letters, expected t={t}")
        return Alphabet.from_lacunary(t, l, s, low)
    if args.alphabet is None:
        raise ValueError("an alphabet is required (--alphabet or --lacunary)")
    return Alphabet(tuple(parse_word(args.alphabet)))


def _parse_parikh(text: str) -> ParikhVector:
    return ParikhVector(tuple(_parse_positive(text, "Parikh count")))


def _emit(config: RunConfig, doc: dict, plain_lines: list[str], header: list[str], rows: list[list]) -> None:
    if config.output_format == "json":
        print(json.dumps(doc, indent=2))
    elif config.output_format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        sys.stdout.write(buf.getvalue())
    else:
        for line in plain_lines:
            print(line)


def _certified_plain(cr) -> str:
    if cr is None:
        return "-"
    if cr.is_exact:
        return f"{cr.lower} (exact)"
    d = cr.to_json_dict(digits=24)
    return f"{d['midpoint']} +- {d['radius']}"


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_continuant(args: argparse.Namespace, config: RunConfig) -> int:
    word = parse_word(args.word)
    value = continuant(word)
    _emit(
        config,
        {"word": format_word(word), "value": str(value)},
        [str(value)],
        ["word", "value"],
        [[format_word(word), str(value)]],
    )
    return EXIT_OK


def _cmd_wmax(args: argparse.Namespace, config: RunConfig) -> int:
    alphabet = _parse_alphabet(args)
    parikh = _parse_parikh(args.parikh)
    word = extremal_mod.max_arrangement(alphabet, parikh)
    verified = None
    if args.verify:
        verified = extremal_mod.verify_max_arrangement(
            alphabet, parikh, limit=config.enumeration_limit
        )
    doc = {
        "alphabet": list(alphabet.letters),
        "parikh": list(parikh.counts),
        "word": format_word(word),
        "verified": verified,
    }
    plain = [format_word(word)]
    if verified is not None:
        plain.append("verified" if verified else "NOT verified")
    _emit(
        config,
        doc,
        plain,
        ["alphabet", "parikh", "word", "verified"],
        [[alphabet.text, parikh.text, format_word(word), verified]],
    )
    return EXIT_OK


def _census_plain(report) -> list[str]:
    lines = [
        f"n: {report.n}",
        f"alphabet: {report.alphabet.text}",
        f"parikh: {report.parikh.text}",
        f"N: {report.class_size}",
        f"P: {report.distinct_values}",
        f"max_multiplicity: {report.max_multiplicity}",
        f"max_value: {report.max_value}",
        f"min_value: {report.min_value}",
        "spectrum: " + ";".join(f"{mu}:{cnt}" for mu, cnt in report.spectrum),
        "witnesses:",
    ]
    for w in report.witnesses:
        words = " ".join(format_word(x) for x in w.words)
        lines.append(f"  mu={w.multiplicity} value={w.value} words: {words}")
    return lines


def _cmd_census(args: argparse.Namespace, config: RunConfig) -> int:
    alphabet = _parse_alphabet(args)
    parikh = _parse_parikh(args.parikh)
    report = census_mod.run_census(alphabet, parikh, limit=config.enumeration_limit)
    spectrum_cell = ";".join(f"{mu}:{cnt}" for mu, cnt in report.spectrum)
    _emit(
        config,
        report.to_json_dict(),
        _census_plain(report),
        ["n", "alphabet", "parikh", "N", "P", "max_multiplicity", "max_value", "min_value", "spectrum"],
        [[
            report.n,
            report.alphabet.text,
            report.parikh.text,
            str(report.class_size),
            str(report.distinct_values),
            report.max_multiplicity,
            str(report.max_value),
            str(report.min_value),
            spectrum_cell,
        ]],
    )
    return EXIT_OK


def _cmd_bounds(args: argparse.Namespace, config: RunConfig) -> int:
    report = bounds_mod.bounds_report(
        args.t,
        args.l,
        args.s,
        args.m,
        find_admissible=args.find_admissible,
        prec=config.precision_bits,
        max_prec=config.max_precision_bits,
    )
    doc = report.to_json_dict()
    plain = [
        f"t: {report.t}",
        f"l: {report.l}",
        f"s: {report.s if report.s is not None else '-'}",
        f"m: {report.m if report.m is not None else '-'}",
        f"s_threshold: {report.s_threshold}",
        f"m_threshold: {report.m_threshold if report.m_threshold is not None else '-'}",
        f"density_power: {_certified_plain(report.density_power)}",
        f"growth_factor: {_certified_plain(report.growth_factor)}",
        f"admissible: {report.admissible if report.admissible is not None else '-'}",
        f"admissible_s: {report.admissible_s if report.admissible_s is not None else '-'}",
        f"value_count_upper: {report.value_count_upper if report.value_count_upper is not None else '-'}",
        f"class_count_lower: {report.class_count_lower if report.class_count_lower is not None else '-'}",
    ]
    header = list(doc.keys())
    row = [
        doc[k] if not isinstance(doc[k], dict) else f"{doc[k]['midpoint']}~{doc[k]['radius']}"
        for k in header
    ]
    _emit(config, doc, plain, header, [row])
    return EXIT_OK


def _witness_plain(r) -> str:
    return (
        f"word={format_word(r.word)} value={r.value} multiplicity={r.multiplicity} "
        f"parikh={r.parikh.text}"
    )


def _witness_rows(records) -> list[list]:
    return [
        [r.alphabet.text, r.parikh.text, format_word(r.word), str(r.value), r.multiplicity]
        for r in records
    ]


def _parse_m_range(text: str) -> tuple[int, int]:
    if ".." not in text:
        raise ValueError(f"invalid m-range {text!r}: expected A..B")
    first, second = text.split("..", 1)
    return _parse_int(first, "m-range"), _parse_int(second, "m-range")


def _cmd_explore(args: argparse.Namespace, config: RunConfig) -> int:
    alphabet = _parse_alphabet(args)
    if (args.m_range is None) == (args.budget is None):
        raise ValueError("give exactly one of --m-range or --budget")
    witness_header = ["alphabet", "parikh", "word", "value", "multiplicity"]

    if args.m_range is not None:
        m_start, m_end = _parse_m_range(args.m_range)
        if args.target_mu is not None:
            # Per-m witness search at the requested multiplicity.
            records = []
            for m in range(m_start, m_end + 1):
                parikh = ParikhVector.equipartitioned(alphabet.size, m)
                rec = explorer_mod.find_witness(
                    alphabet, parikh, args.target_mu, limit=config.enumeration_limit
                )
                if rec is not None:
                    records.append(rec)
            doc = {"witnesses": [r.to_json_dict() for r in records]}
            plain = [_witness_plain(r) for r in records] or ["no witnesses found"]
            _emit(config, doc, plain, witness_header, _witness_rows(records))
            return EXIT_OK
        entries = explorer_mod.growing_multiplicity_scan(
            alphabet, m_start, m_end, limit=config.enumeration_limit
        )
        doc = {
            "entries": [
                {"m": m, "max_multiplicity": mu, "witness": rec.to_json_dict()}
                for m, mu, rec in entries
            ]
        }
        plain = [
            f"m={m} max_multiplicity={mu} word={format_word(rec.word)} value={rec.value}"
            for m, mu, rec in entries
        ]
        rows = [
            [m, mu, alphabet.text, rec.parikh.text, format_word(rec.word), str(rec.value)]
            for m, mu, rec in entries
        ]
        _emit(config, doc, plain, ["m", "max_multiplicity", "alphabet", "parikh", "word", "value"], rows)
        return EXIT_OK

    target = args.target_mu if args.target_mu is not None else 2
    result = explorer_mod.exact_multiplicity_scan(
        alphabet, target, args.budget, limit=config.enumeration_limit
    )
    doc = {
        "witnesses": [r.to_json_dict() for r in result.records],
        "classes_scanned": result.classes_scanned,
        "parikhs_scanned": result.parikhs_scanned,
        "budget_exhausted": result.budget_exhausted,
    }
    plain = [_witness_plain(r) for r in result.records]
    summary = (
        f"scanned {result.classes_scanned} classes over {result.parikhs_scanned} Parikh vectors"
    )
    if result.budget_exhausted:
        summary += " (budget exhausted)"
    plain.append(summary)
    _emit(config, doc, plain, witness_header, _witness_rows(result.records))
    return EXIT_OK


_COMMANDS = {
    "continuant": _cmd_continuant,
    "wmax": _cmd_wmax,
    "census": _cmd_census,
    "bounds": _cmd_bounds,
    "explore": _cmd_explore,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from(args)
        return _COMMANDS[args.command](args, config)
    except (ClassTooLargeError, ValueBudgetExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except PrecisionExhaustedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECISION
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:  # console-script hook
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    entry()
