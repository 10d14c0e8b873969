#!/usr/bin/env python3
"""Apply the differentiation operator to Taylor coefficient sequences.

The operator is the banded infinite matrix with entry j on the first
superdiagonal: position j of a coefficient vector holds the coefficient
of x^j, and differentiation maps it to (j+1) times the next coefficient.
The exponential's coefficients are a fixed point; the demo also
differentiates the geometric function 1/(1 - x/2).
"""

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from infmat import INFINITE, MatrixSpec, banded_spec, matvec  # noqa: E402


def show(title, vec, out, expected, count=10):
    print(f"\n{title}")
    print(f"{'j':>3} {'input':>22} {'output':>22} {'expected':>22}")
    for j in range(1, count + 1):
        print(f"{j:>3} {vec.entry(j, 1):>22.15g} {out.entry(j, 1):>22.15g} "
              f"{expected(j):>22.15g}")


def main():
    derivative = banded_spec({1: lambda i, j: float(j)})

    # a coefficient sequence is a vector: a spec with one column
    exp_coeffs = MatrixSpec(INFINITE, 1, lambda j, _: 1.0 / math.factorial(j))
    out, reports = matvec(derivative, exp_coeffs)
    show("d/dx exp(x): the coefficient sequence is a fixed point",
         exp_coeffs, out, lambda j: 1.0 / math.factorial(j))
    print("sampled entry reports:",
          {i: r.status for i, r in sorted(reports.items())[:4]})

    geom = MatrixSpec(INFINITE, 1, lambda j, _: 2.0 ** -j)
    out2, _ = matvec(derivative, geom)
    show("d/dx 1/(1 - x/2) - constant term not tracked",
         geom, out2, lambda j: (j + 1) * 2.0 ** -(j + 1))


if __name__ == "__main__":
    main()
