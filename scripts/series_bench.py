#!/usr/bin/env python3
"""Series-layer timing: microseconds per step of the stopping rule, for
the three ways a sum can feed it.

The series are the entries of the 8-by-8 probe of an infinite product,
the ``mul`` of the two algebraic factors of the golden CLI tests; each
stops by the quiet window after about a thousand terms.  Their terms are
read once, through the block oracles, into a table, so that the timings
hold the stopping rule and the feeding of it, not the oracle.  The
series are then summed three ways:

* one at a time: ``sum_series`` through the scalar term, one series after
  another, so the rule takes one value at a time, on plain floats;
* term runs: one series after another, each a batch of one fed chunks of
  terms from the table;
* batch: all 64 series as one ``SeriesBatch`` over shared chunks of
  terms, as ``matmul`` sums its probe.

Each line gives the steps of all series (their ``terms_used``), the
fastest of ``REPEAT`` runs and the microseconds per step.  All three ways
must give the same reports bit for bit; the script exits with status 1 if
they do not.

    python scripts/series_bench.py
"""

import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from infmat.matrix_core import Lines  # noqa: E402  (from src/, put on the path above)
from infmat.series import ConvergencePolicy, SeriesBatch, sum_series  # noqa: E402
from infmat.specio import matrix_from_obj  # noqa: E402

# the factors of the golden ``mul poly_a.json poly_b.json`` (tests/test_golden_cli.py)
ROW, COL = "1.02/(i+j+0.37)^1.6", "0.95/(i+j+0.81)^1.61"
SIDE = 8                   # the probe of matmul: SIDE x SIDE series
POLICY = ConvergencePolicy(max_terms=4096)
REPEAT = 3


def term_table(side: int, length: int) -> np.ndarray:
    """The first ``length`` terms of each probe entry's series, one row
    per entry (i, j) in row-major order."""
    A, B = (matrix_from_obj({"rows": "inf", "cols": "inf", "kind": "expr", "expr": e})
            for e in (ROW, COL))
    rows, cols = Lines(A, range(1, side + 1), 0)(length), Lines(B, range(1, side + 1), 1)(length)
    return (rows[:, None, :] * cols[None, :, :]).reshape(side * side, length)


def one_at_a_time(table, policy):
    lines = table.tolist()
    return [sum_series(lambda k, line=line: line[k - 1], policy) for line in lines]


def term_runs(table, policy):
    def runs_of(s):
        return lambda k0, k1, rows: table[s:s + 1, k0 - 1:k1 - 1]

    lines = table.tolist()
    return [sum_series(lambda k, line=line: line[k - 1], policy, None,
                       (SeriesBatch([None], policy, runs_of(s)), 0))
            for s, line in enumerate(lines)]


def batch(table, policy):
    lines = table.tolist()
    group = SeriesBatch([None] * len(lines), policy,
                        lambda k0, k1, rows: table[rows, k0 - 1:k1 - 1])
    return [sum_series(lambda k, line=line: line[k - 1], policy, None, (group, s))
            for s, line in enumerate(lines)]


WAYS = (("one at a time", one_at_a_time), ("term runs", term_runs), ("batch", batch))


def report_bits(report):
    return (np.float64(report.estimate).view(np.int64), report.status, report.terms_used,
            np.float64(report.last_delta).view(np.int64), report.certified)


def measure(side=SIDE, policy=POLICY, repeat=REPEAT):
    """``(way, steps, seconds, reports)`` per way: the fastest of
    ``repeat`` runs."""
    table = term_table(side, policy.max_terms)
    out = []
    for name, way in WAYS:
        best = None
        for _ in range(repeat):
            start = time.perf_counter()
            reports = way(table, policy)
            elapsed = time.perf_counter() - start
            best = elapsed if best is None else min(best, elapsed)
        out.append((name, sum(rep.terms_used for rep in reports), best, reports))
    return out


def main():
    rows = measure()
    want = [report_bits(rep) for rep in rows[0][3]]
    print(f"{'way':<16} {'series':>6} {'steps':>8} {'seconds':>9} {'us/step':>8}  bits")
    differ = 0
    for name, steps, seconds, reports in rows:
        same = [report_bits(rep) for rep in reports] == want
        differ += not same
        print(f"{name:<16} {len(reports):>6} {steps:>8} {seconds:>9.4f} "
              f"{1e6 * seconds / steps:>8.3f}  {'identical' if same else 'DIFFER'}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
