#!/usr/bin/env python3
"""Oracle-layer timing: microseconds per entry of a section fill, scalar
against block, and microseconds per term of a series sum, scalar against
term runs.

Each spec is loaded from JSON and its top-left n-by-n section
(clipped to the spec's extents) is filled twice from nothing: once
through the block oracle (``MatrixSpec.block``, as ``truncate`` does)
and once with the block removed, cell by cell through the scalar oracle.
The specs are the dense ``expr`` of the golden CLI tests, the same
formula as a ``finite-support`` spec whose 384-by-384 support box the
512 section overruns, a 512-by-512 ``dense`` spec holding the values of
that formula, a Toeplitz formula, one whose powers are constant along
no diagonal line (so ``^`` is mapped cell by cell), and every ``expr``
spec shipped in ``specs/``.  The two fills must agree bit for bit.

The term-run line sums row 1 of ``c/(i+j+a)^p`` times column 1 of
another such spec, an entry of an infinite product: once term by term
through the scalar oracles with ``sum_series``, and once as a batch of
one fed term runs read through the block oracles (``matrix_core.Lines``),
as ``matmul`` does.
The two reports must agree bit for bit.  The script exits with status 1
if a fill or a report differs.

    python scripts/oracle_bench.py
"""

import json
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from infmat.algebra import _line_product  # noqa: E402  (from src/, put on the path above)
from infmat.matrix_core import Lines, MatrixSpec, clip_extent, truncate  # noqa: E402
from infmat.series import ConvergencePolicy, SeriesBatch, sum_series  # noqa: E402
from infmat.specio import matrix_from_obj  # noqa: E402

# the dense formula of tests/test_golden_cli.py
DENSE_EXPR = "delta(i,j) + 0.3/(i+j+1)^2.5"
SIZES = (256, 512)
REPEAT = 3  # fills (or sums) per timing; the fastest one counts
# the two algebraic factors of tests/test_golden_cli.py's mul; about a
# thousand terms by the quiet window
SERIES_ROW, SERIES_COL = "1.02/(i+j+0.37)^1.6", "0.95/(i+j+0.81)^1.61"
SERIES_POLICY = ConvergencePolicy(max_terms=20000)


def formulas():
    golden = {"rows": "inf", "cols": "inf", "kind": "expr", "expr": DENSE_EXPR}
    yield "golden DENSE_EXPR", golden
    yield "finite-support 384x384", {**golden, "kind": "finite-support",
                                     "support": {"rows": 384, "cols": 384}}
    yield "dense 512x512", {"kind": "dense", "data": truncate(
        matrix_from_obj(golden), max(SIZES), max(SIZES)).data.tolist()}
    # constant along diagonals, so ^ and exp are mapped once per line; and
    # series-sums' geometric family, constant along no line: one call a cell
    yield "toeplitz exp(-0.1*(i-j)^2)", {**golden, "expr": "exp(-0.1*(i-j)^2)"}
    yield "cell path 0.9^(i*j)", {**golden, "expr": "0.9^(i*j)"}
    for path in sorted((ROOT / "specs").glob("*.json")):
        obj = json.loads(path.read_text())
        if obj.get("kind") == "expr":
            yield f"specs/{path.name}", obj


def scalar_twin(spec):
    """``spec`` without its block oracle: every cell through ``entry``."""
    return MatrixSpec(spec.rows, spec.cols, spec.entry, decay=spec.decay,
                      bandwidth=spec.bandwidth, support=spec.support)


def best_fill(spec, m, n):
    best = None
    for _ in range(REPEAT):
        start = time.perf_counter()
        section = truncate(spec, m, n).data
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, section


def best_sum(A, B, runs):
    def term(l):
        return A.entry(1, l) * B.entry(l, 1)

    best = None
    for _ in range(REPEAT):
        batch = (SeriesBatch([None], SERIES_POLICY, _line_product(
            Lines(A, [1], 0), Lines(B, [1], 1), [(0, 0)])), 0) if runs else None
        start = time.perf_counter()
        report = sum_series(term, SERIES_POLICY, None, batch)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, report


def report_bits(report):
    return (np.float64(report.estimate).view(np.int64), report.status, report.terms_used,
            np.float64(report.last_delta).view(np.int64), report.certified)


def term_runs():
    """Print the term-run line; True when both sums give the same report."""
    A, B = (matrix_from_obj({"rows": "inf", "cols": "inf", "kind": "expr", "expr": e})
            for e in (SERIES_ROW, SERIES_COL))
    t_scalar, by_scalar = best_sum(A, B, runs=False)
    t_runs, by_runs = best_sum(A, B, runs=True)
    same = report_bits(by_scalar) == report_bits(by_runs)
    n = by_scalar.terms_used
    print(f"\n{'series':<28} {'terms':>9} {'scalar us':>10} {'runs us':>9} "
          f"{'speedup':>8}  bits")
    print(f"{'c/(i+j+a)^p row x column':<28} {n:>9} {1e6 * t_scalar / n:>10.3f} "
          f"{1e6 * t_runs / n:>9.3f} {t_scalar / t_runs:>7.1f}x  "
          f"{'identical' if same else 'DIFFER'}")
    return same


def main():
    print(f"{'formula':<28} {'section':>9} {'scalar us':>10} {'block us':>9} "
          f"{'speedup':>8}  bits")
    differ = 0
    for name, obj in formulas():
        spec = matrix_from_obj(obj)
        scalar = scalar_twin(spec)
        for size in SIZES:
            m, n = clip_extent(spec.rows, size), clip_extent(spec.cols, size)
            t_block, by_block = best_fill(spec, m, n)
            t_scalar, by_scalar = best_fill(scalar, m, n)
            same = np.array_equal(by_block.view(np.int64), by_scalar.view(np.int64))
            differ += not same
            print(f"{name:<28} {f'{m}x{n}':>9} {1e6 * t_scalar / (m * n):>10.3f} "
                  f"{1e6 * t_block / (m * n):>9.3f} {t_scalar / t_block:>7.1f}x  "
                  f"{'identical' if same else 'DIFFER'}")
    same = term_runs()
    return 1 if differ or not same else 0


if __name__ == "__main__":
    sys.exit(main())
