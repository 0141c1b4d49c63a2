#!/usr/bin/env python3
"""Check the maximizing arrangement on every class of a grid, past enumeration.

For every alphabet of each size in --sizes drawn from --letters, and every
Parikh vector with total length up to --max-n, runs the exact Pareto-front
oracle ``pareto_max`` and checks that ``max_arrangement`` attains the
maximum and is its only arrangement up to reversal.  No class is
enumerated, so the grid can reach far past the brute-force range.  Prints
one line per failing class and a summary, and exits 1 on any failure.

Usage:
    python scripts/wmax_sweep.py --letters 1,2,3,4,5,6 --sizes 3 --max-n 12
"""

import argparse
import itertools
import sys
import time

sys.path.insert(0, "src")

from continuants import (
    Alphabet,
    ParikhVector,
    continuant,
    max_arrangement,
    pareto_max,
    parse_word,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--letters", default="1,2,3,4,5,6", help="comma-separated letter pool")
    ap.add_argument("--sizes", default="2,3", help="comma-separated alphabet sizes")
    ap.add_argument("--max-n", type=int, default=12, help="largest word length")
    args = ap.parse_args()

    pool = sorted(set(parse_word(args.letters)))
    sizes = parse_word(args.sizes)
    t0 = time.time()
    classes = failures = 0
    for size in sizes:
        for letters in itertools.combinations(pool, size):
            alphabet = Alphabet(letters)
            for counts in itertools.product(range(1, args.max_n - size + 2), repeat=size):
                if sum(counts) > args.max_n:
                    continue
                parikh = ParikhVector(counts)
                built = max_arrangement(alphabet, parikh)
                value, attaining = pareto_max(alphabet, parikh)
                expected = 1 if built.is_palindrome() else 2
                classes += 1
                if (continuant(built), attaining) != (value, expected):
                    failures += 1
                    print(
                        f"FAIL alphabet {alphabet.text} parikh {parikh.text}: built "
                        f"{built.text} has K={continuant(built)}, max {value} "
                        f"attained by {attaining} arrangements (expected {expected})"
                    )
    dt = time.time() - t0
    print(f"{classes} classes, {failures} failures, {dt:.1f}s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
