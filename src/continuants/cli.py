"""Command-line front end: continuant, wmax, census, bounds, explore.

Every subcommand prints machine-readable output in one of three formats
(plain, json, csv) and uses a fixed exit-code discipline:

    0  success, including empty search results
    2  parse or validation error
    3  enumeration limit or value-table budget exceeded
    4  certified-comparison precision exhausted

Every setting comes from the command line, and no variable is read:
--limit and --format default to the library's values (10^8 classes,
plain).  main() checks the settings once, before the command runs.  The
library picks the precision of every certified enclosure.  --workers must
be a positive integer and has no effect: every command runs in one process.
It is still accepted so that existing command lines keep working.  Integer
fields that are not argparse-typed (--lacunary and --m-range) parse at any
length.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from collections.abc import Callable, Sequence
from decimal import Decimal, InvalidOperation

from . import bounds as bounds_mod
from . import census as census_mod
from . import explorer as explorer_mod
from . import extremal as extremal_mod
from .bounds import PrecisionExhaustedError
from .core import (
    DEFAULT_CLASS_LIMIT, Alphabet, ClassTooLargeError, ParikhVector, ValueBudgetExceededError, _parse_positive,
    check_shape, continuant, format_word, int_text, parse_word,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_LIMIT = 3
EXIT_PRECISION = 4

FORMATS = ("plain", "json", "csv")


# The exit code main() returns for each error it reports.
_EXIT_CODES = {
    ClassTooLargeError: EXIT_LIMIT,
    ValueBudgetExceededError: EXIT_LIMIT,
    PrecisionExhaustedError: EXIT_PRECISION,
    ValueError: EXIT_USAGE,
    OverflowError: EXIT_USAGE,  # a count past the index range
}


def _parse_int(text: str, what: str) -> int:
    """int(text) without int()'s digit limit: a run of digits goes through
    Decimal, as in core._parse_positive; anything else is int()'s to accept."""
    try:
        return int(Decimal(text)) if text.strip().isdigit() else int(text)
    except (ValueError, InvalidOperation):
        raise ValueError(f"invalid {what}: {text!r} is not an integer") from None


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--workers", type=int, default=None, help="accepted for compatibility; has no effect"
    )
    shared.add_argument(
        "--limit", type=int, default=DEFAULT_CLASS_LIMIT, help="enumeration limit (reversal classes)"
    )
    shared.add_argument("--format", choices=FORMATS, default="plain", help="output format")

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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main() uses: built once per process, since parse_args never mutates it."""
    return build_parser()


def _add_class_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alphabet", default=None, help="comma-separated alphabet letters")
    p.add_argument("--lacunary", default=None, help="t,l,s,b_1..b_t: lacunary alphabet shape")
    p.add_argument("--parikh", required=True, help="comma-separated occurrence counts")


def _check_settings(args: argparse.Namespace) -> None:
    """Check --workers, then --limit; argparse has checked --format."""
    if args.workers is not None and args.workers < 1:
        raise ValueError(f"workers must be positive, got {args.workers}")
    if args.limit < 1:
        raise ValueError(f"enumeration limit must be positive, got {args.limit}")


def _parse_alphabet(args: argparse.Namespace, parikh: ParikhVector | None = None) -> Alphabet:
    """--alphabet or --lacunary.  A lacunary alphabet's letter count t + s - l
    is checked against ``parikh``, when given, before any letter is built."""
    if args.lacunary is not None:
        if args.alphabet is not None:
            raise ValueError("give either --alphabet or --lacunary, not both")
        fields = [tok.strip() for tok in args.lacunary.split(",")]
        if len(fields) < 4:
            raise ValueError("--lacunary needs at least t,l,s and one low-part letter")
        t, l, s, *low = [_parse_int(tok, "lacunary field") for tok in fields]
        if len(low) != t:
            raise ValueError(f"--lacunary lists {len(low)} low-part letters, expected t={int_text(t)}")
        if parikh is not None and t + s - l != parikh.size:  # a bad shape or low part is reported first
            check_shape(t, l, s)
            Alphabet.from_lacunary(t, l, l + 1, low)  # checks the low part; builds no high part
            raise ValueError(
                f"alphabet has {int_text(t + s - l)} letters but Parikh vector has {parikh.size} counts"
            )
        return Alphabet.from_lacunary(t, l, s, low)
    if args.alphabet is None:
        raise ValueError("an alphabet is required (--alphabet or --lacunary)")
    return Alphabet(tuple(parse_word(args.alphabet)))


def _parse_parikh(text: str) -> ParikhVector:
    return ParikhVector(tuple(_parse_positive(text, "Parikh count")))


def _cell(value):
    """One document value as a plain or CSV cell: letter and count lists
    comma-joined, the spectrum's [mu, count] pairs as mu:count;..., and a
    certified real as midpoint~radius.  Anything else passes through; the
    CSV writer prints None as an empty cell."""
    if isinstance(value, dict):
        return f"{value['midpoint']}~{value['radius']}"
    if isinstance(value, list):
        if value and isinstance(value[0], list):
            return ";".join(f"{mu}:{cnt}" for mu, cnt in value)
        return format_word(value)
    return value


def _emit(
    fmt: str, doc: dict, plain: Callable[[], list[str]], fields: Sequence[str], records: list[dict]
) -> None:
    """Print doc as JSON, the lines plain() returns, or one CSV row of fields per record.

    plain and records are read from doc, so every format prints the
    document's own strings; plain is called only for the plain format.
    """
    if fmt == "json":
        print(json.dumps(doc, indent=2))
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(fields)
        writer.writerows([_cell(r[k]) for k in fields] for r in records)
        sys.stdout.write(buf.getvalue())
    else:
        for line in plain():
            print(line)


def _certified_plain(cr) -> str:
    if cr.is_exact:
        x = cr.lower
        digits = int_text(x.numerator)
        if x.denominator != 1:
            digits += f"/{int_text(x.denominator)}"
        return f"{digits} (exact)"
    d = cr.to_json_dict(digits=24)
    return f"{d['midpoint']} +- {d['radius']}"


# ---------------------------------------------------------------------------
# Subcommands: each returns the arguments _emit prints after the format
# ---------------------------------------------------------------------------

_Output = tuple[dict, Callable[[], list[str]], Sequence[str], list[dict]]


def _cmd_continuant(args: argparse.Namespace) -> _Output:
    word = parse_word(args.word)
    doc = {"word": format_word(word), "value": int_text(continuant(word))}
    return doc, lambda: [doc["value"]], list(doc), [doc]


def _cmd_wmax(args: argparse.Namespace) -> _Output:
    parikh = _parse_parikh(args.parikh)
    alphabet = _parse_alphabet(args, parikh)
    word = extremal_mod.max_arrangement(alphabet, parikh)
    verified = None
    if args.verify:
        verified = extremal_mod.verify_max_arrangement(alphabet, parikh, limit=args.limit)
    doc = {
        "alphabet": list(alphabet.letters),
        "parikh": list(parikh.counts),
        "word": format_word(word),
        "verified": verified,
    }

    def plain():
        if doc["verified"] is None:
            return [doc["word"]]
        return [doc["word"], "verified" if doc["verified"] else "NOT verified"]

    return doc, plain, list(doc), [doc]


_CENSUS_FIELDS = (
    "n", "alphabet", "parikh", "N", "P", "max_multiplicity", "max_value", "min_value", "spectrum"
)


def _cmd_census(args: argparse.Namespace) -> _Output:
    parikh = _parse_parikh(args.parikh)
    alphabet = _parse_alphabet(args, parikh)
    doc = census_mod.run_census(alphabet, parikh, limit=args.limit).to_json_dict()

    def plain():
        return [f"{k}: {_cell(doc[k])}" for k in _CENSUS_FIELDS] + ["witnesses:"] + [
            f"  mu={w['multiplicity']} value={w['value']} words: {' '.join(w['words'])}"
            for w in doc["witnesses"]
        ]

    return doc, plain, _CENSUS_FIELDS, [doc]


def _cmd_bounds(args: argparse.Namespace) -> _Output:
    report = bounds_mod.bounds_report(args.t, args.l, args.s, args.m, find_admissible=args.find_admissible)
    doc = report.to_json_dict()

    def plain():
        lines = []
        for k, v in doc.items():
            if isinstance(v, dict):  # a certified real, shown at 24 digits
                v = _certified_plain(getattr(report, k))
            lines.append(f"{k}: {'-' if v is None else v}")
        return lines

    return doc, plain, list(doc), [doc]


_WITNESS_FIELDS = ("alphabet", "parikh", "word", "value", "multiplicity")


def _witness_plain(w: dict) -> str:
    return (
        f"word={w['word']} value={w['value']} multiplicity={w['multiplicity']} "
        f"parikh={_cell(w['parikh'])}"
    )


def _parse_m_range(text: str) -> tuple[int, int]:
    if ".." not in text:
        raise ValueError(f"invalid m-range {text!r}: expected A..B")
    first, second = text.split("..", 1)
    return _parse_int(first, "m-range"), _parse_int(second, "m-range")


def _cmd_explore(args: argparse.Namespace) -> _Output:
    alphabet = _parse_alphabet(args)
    if (args.m_range is None) == (args.budget is None):
        raise ValueError("give exactly one of --m-range or --budget")

    if args.m_range is not None:
        m_start, m_end = _parse_m_range(args.m_range)
        if args.target_mu is not None:
            # Per-m witness search at the requested multiplicity.
            found = (
                explorer_mod.find_witness(alphabet, parikh, args.target_mu, limit=args.limit)
                for _, parikh in explorer_mod._equipartitioned_range(alphabet.size, m_start, m_end)
            )
            records = [rec.to_json_dict() for rec in found if rec is not None]

            def plain():
                return [_witness_plain(w) for w in records] or ["no witnesses found"]

            return {"witnesses": records}, plain, _WITNESS_FIELDS, records
        entries = explorer_mod.growing_multiplicity_scan(alphabet, m_start, m_end, limit=args.limit)
        doc = {
            "entries": [
                {"m": m, "max_multiplicity": mu, "witness": rec.to_json_dict()}
                for m, mu, rec in entries
            ]
        }
        rows = [{**e, **e["witness"]} for e in doc["entries"]]

        def plain():
            return [
                f"m={r['m']} max_multiplicity={r['max_multiplicity']} word={r['word']} value={r['value']}"
                for r in rows
            ]

        return doc, plain, ("m", "max_multiplicity", "alphabet", "parikh", "word", "value"), rows

    target = args.target_mu if args.target_mu is not None else 2
    result = explorer_mod.exact_multiplicity_scan(alphabet, target, args.budget, limit=args.limit)
    doc = {
        "witnesses": [r.to_json_dict() for r in result.records],
        "classes_scanned": result.classes_scanned,
        "parikhs_scanned": result.parikhs_scanned,
        "budget_exhausted": True,
    }

    def plain():
        summary = f"scanned {doc['classes_scanned']} classes over {doc['parikhs_scanned']} Parikh vectors"
        return [_witness_plain(w) for w in doc["witnesses"]] + [summary + " (budget exhausted)"]

    return doc, plain, _WITNESS_FIELDS, doc["witnesses"]


_COMMANDS = {
    "continuant": _cmd_continuant,
    "wmax": _cmd_wmax,
    "census": _cmd_census,
    "bounds": _cmd_bounds,
    "explore": _cmd_explore,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        _check_settings(args)
        _emit(args.format, *_COMMANDS[args.command](args))
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for error, code in _EXIT_CODES.items() if isinstance(exc, error))
    return EXIT_OK


def entry() -> None:  # console-script hook
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    entry()
