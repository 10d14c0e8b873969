#!/usr/bin/env python3
"""Stabilization study: how determinant and rank estimates settle (or
refuse to) as the truncation schedule deepens.

Four matrices with different tail behaviour are pushed through the same
detector at increasing schedule caps.  The rank-one kernel and the
finite-support perturbation settle immediately; the decaying diagonal
needs depth; the identity never stabilizes its rank.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from infmat import (ConvergencePolicy, TruncationSchedule, det_infinite,  # noqa: E402
                    diagonal_spec, entrywise_spec, identity_spec, rank_of,
                    MatrixSpec, INFINITE, BANDED)


def perturbed_identity():
    def entry(i, j):
        v = 1.0 if i == j else 0.0
        if i == j == 1:
            v = 1.5
        return v

    return MatrixSpec(INFINITE, INFINITE, entry, structure=BANDED, bandwidth=0)


CASES = [
    ("identity + 0.5 at (1,1)", perturbed_identity(), "det"),
    ("diag(1 + 2^-i)", diagonal_spec(lambda i: 1.0 + 2.0 ** -i), "det"),
    ("rank-one 2^-(i+j)", entrywise_spec(lambda i, j: 2.0 ** -(i + j)), "rank"),
    ("identity", identity_spec(), "rank"),
]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--tol", type=float, default=1e-8)
    ap.add_argument("--caps", type=int, nargs="+", default=[32, 128, 512])
    args = ap.parse_args()
    policy = ConvergencePolicy(tol=args.tol)

    print(f"{'matrix':<28} {'quantity':<8} " +
          " ".join(f"{('cap ' + str(c)):>26}" for c in args.caps))
    for name, spec, quantity in CASES:
        cells = []
        for cap in args.caps:
            schedule = TruncationSchedule(start=8, growth=2, max_size=cap)
            if quantity == "det":
                rep = det_infinite(spec, schedule, policy).report
            else:
                rep = rank_of(spec, schedule, policy)
            cells.append(f"{rep.estimate:.10g} [{rep.status[:5]}]")
        print(f"{name:<28} {quantity:<8} " +
              " ".join(f"{c:>26}" for c in cells))


if __name__ == "__main__":
    main()
