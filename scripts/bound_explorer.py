#!/usr/bin/env python3
"""Explore the table-existence inequality over a parameter grid.

For each (n, m) point, binary-search the smallest rectangle side S whose
square beats the union-bound right-hand side, and print the two failure
exponents there.  Shows how much room the probabilistic argument leaves
at desk scale.

Example:
    python scripts/bound_explorer.py --n 16 24 32 --m 1 2 4 --k 1
"""

import argparse

from mpmath import nstr

from kextract import schedule


def minimal_s(N: int, M: int, n: int, k: int) -> int | None:
    lo, hi = 1, N
    if not schedule.check_existence_bound(N, M, N, n, k).holds:
        return None
    while lo < hi:
        mid = (lo + hi) // 2
        if schedule.check_existence_bound(N, M, mid, n, k).holds:
            hi = mid
        else:
            lo = mid + 1
    return lo


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, nargs="+", required=True)
    parser.add_argument("--m", type=int, nargs="+", required=True)
    parser.add_argument("--k", type=int, default=1)
    args = parser.parse_args()

    print(f"{'n':>4} {'m':>3} {'minimal S':>12} {'log N':>6}  exponents (eq.1, eq.2)")
    for n in args.n:
        N = 1 << n
        for m in args.m:
            M = 1 << m
            S = minimal_s(N, M, n, args.k)
            if S is None:
                print(f"{n:>4} {m:>3} {'unsatisfied':>12} {n:>6}")
                continue
            p1, p2 = schedule.failure_prob_bounds(N, M, S, n, args.k)
            print(
                f"{n:>4} {m:>3} {S:>12} {n:>6}  "
                f"{nstr(p1, 6)}, {nstr(p2, 6)}"
            )


if __name__ == "__main__":
    main()
