#!/usr/bin/env python3
"""Sweep the multiplicity/class boundary for the 2-dimensional dihedral
component: decide(m copies, class c) for 1 <= m, c <= 4 and print the YES/no
table. The exact criterion predicts YES iff m >= c + 1."""

import argparse
import time

from anosov.corpus import m_rho3
from anosov.decider import decide


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max", type=int, default=4, help="largest m and c to sweep")
    args = parser.parse_args()

    header = "m\\c " + " ".join(f"{c:>3}" for c in range(1, args.max + 1))
    print(header)
    t0 = time.perf_counter()
    mismatches = 0
    for m in range(1, args.max + 1):
        rep = m_rho3(m)
        cells = []
        for c in range(1, args.max + 1):
            verdict = decide(rep, c)
            predicted = m >= c + 1
            cells.append(f"{'YES' if verdict.admits_anosov else ' no'}")
            if verdict.admits_anosov != predicted:
                mismatches += 1
        print(f"{m:>3} " + " ".join(cells))
    print(f"\n{args.max * args.max} cases in {time.perf_counter() - t0:.2f}s, "
          f"{mismatches} disagreements with the m >= c+1 boundary")


if __name__ == "__main__":
    main()
