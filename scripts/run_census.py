"""Classify all unit-diagonal {-1,0,1} matrices of one order and summarize.

Runs the permutation-class census, prints aggregate counts and an orbit-size
histogram, lists the extremal classes, and optionally writes the full record
file.  Order 6 sweeps 14 348 907 candidates and needs --allow-large.

    python3 scripts/run_census.py 4
    python3 scripts/run_census.py 5 --output census_n5.txt
    python3 scripts/run_census.py 6 --allow-large
"""

import argparse
import time
from collections import Counter

from copocert.census import check_pair_supports, run_census, write_records


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("order", type=int, help="matrix order (1..6)")
    parser.add_argument("--output", metavar="PATH",
                        help="write the record file here")
    parser.add_argument("--allow-large", action="store_true",
                        help="bypass the candidate budget guard")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    start = time.monotonic()
    records = run_census(args.order, allow_large=args.allow_large)
    elapsed = time.monotonic() - start

    copositive = [r for r in records if r.copositive]
    extremal = [r for r in records if r.extremal]
    report = check_pair_supports(records)
    print(f"order {args.order}: {len(records)} classes in {elapsed:.2f}s")
    print(f"  copositive: {len(copositive)}")
    print(f"  extremal:   {len(extremal)}")
    print(f"  pair supports: {'ok' if report.ok else 'VIOLATED'}")

    histogram = Counter(r.orbit_size for r in records)
    print("  orbit sizes:")
    for size in sorted(histogram):
        print(f"    {size:>4}: {histogram[size]} classes")

    if extremal:
        print("  extremal classes:")
        for record in extremal:
            print(f"    {record.to_line()}")

    if args.output:
        write_records(records, args.output)
        print(f"  records written to {args.output}")
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
