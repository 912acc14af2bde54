#!/usr/bin/env python3
"""Sweep the classifier against the attainment oracle over seeded models.

Runs every generator family (violators included) at several truncation
depths and prints one summary row per (family, depth) cell.  Any
disagreement is listed with its seed so it can be replayed with
``anop oracle`` by hand.  Exits nonzero if any cell disagrees.
"""

import argparse
import sys
import time

from anop.model import classify
from anop.oracle import FAMILIES, TruncationProfile, attainment_oracle, seeded_models


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=300,
                        help="models per (family, depth) cell")
    parser.add_argument("--seed", type=int, default=0, help="base seed")
    parser.add_argument("--depths", default="6,12,24",
                        help="comma-separated truncation depths")
    args = parser.parse_args(argv)

    depths = [int(d) for d in args.depths.split(",") if d]
    families = ("all", "violators") + FAMILIES
    failures = []

    print(f"{'family':<12} {'depth':>5} {'agree':>9} {'time':>8}")
    for family in families:
        for depth in depths:
            profile = TruncationProfile(depth=depth)
            agree = 0
            start = time.perf_counter()
            for seed, _, model in seeded_models(family, args.count, args.seed):
                verdict = classify(model)
                probe = attainment_oracle(model, profile)
                if verdict.is_an == probe.is_an:
                    agree += 1
                else:
                    failures.append((family, depth, seed,
                                     verdict.is_an, probe.is_an))
            elapsed = time.perf_counter() - start
            print(f"{family:<12} {depth:>5} {agree:>4}/{args.count:<4} "
                  f"{elapsed:>7.2f}s")

    if failures:
        print(f"\n{len(failures)} disagreements:")
        for family, depth, seed, cls, orc in failures:
            print(f"  family={family} depth={depth} seed={seed} "
                  f"classifier={cls} oracle={orc}")
        return 1
    print("\nall cells agree")
    return 0


if __name__ == "__main__":
    sys.exit(main())
