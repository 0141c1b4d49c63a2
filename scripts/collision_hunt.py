#!/usr/bin/env python3
"""Hunt for continuant value collisions on small alphabets.

Scans Abelian classes in increasing word length and reports every value
attained by two or more reversal classes, i.e. multiplicity >= 2
witnesses.  Useful for mapping where collisions first appear: the
four-letter alphabet {1,2,3,4} already collides at word length 4, and
even {1,2} collides at length 5 (value 19).

Usage:
    python scripts/collision_hunt.py --alphabet 1,2,3,4 --budget 100000
    python scripts/collision_hunt.py --alphabet 1,2 --budget 5000 --target-mu 3
"""

import argparse
import sys
import time

sys.path.insert(0, "src")

from continuants import Alphabet, exact_multiplicity_scan, find_witness, parse_word


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--alphabet", default="1,2,3,4", help="comma-separated letters")
    ap.add_argument("--budget", type=int, default=100_000, help="total classes to enumerate")
    ap.add_argument("--target-mu", type=int, default=2, help="exact multiplicity to collect")
    args = ap.parse_args()

    alphabet = Alphabet(tuple(parse_word(args.alphabet)))
    t0 = time.time()
    result = exact_multiplicity_scan(alphabet, args.target_mu, args.budget)
    dt = time.time() - t0

    print(f"alphabet {alphabet.text}, target multiplicity {args.target_mu}")
    print(
        f"scanned {result.classes_scanned} classes across {result.parikhs_scanned} "
        f"Parikh vectors in {dt:.1f}s (budget exhausted)"
    )
    if not result.records:
        print("no witnesses in range")
        return 0

    last_parikh = None
    for rec in result.records:
        if rec.parikh.counts != last_parikh:
            last_parikh = rec.parikh.counts
            print(f"\n  parikh {rec.parikh.text} (n = {rec.parikh.n}):")
        print(f"    value {rec.value}  word {rec.word.text}")
    print(f"\ntotal witnesses: {len(result.records)}")

    best = find_witness(alphabet, result.records[-1].parikh, 2)
    if best is not None:
        print(f"smallest colliding value in the last class: {best.value} at {best.word.text}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
