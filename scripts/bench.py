#!/usr/bin/env python3
"""Layer timing: each faster way of a layer against the way it must
match bit for bit.

Every case of a layer is computed by one, two or three ways; the first
is the reference, and each way's result must have its bits.  A line gives
the fastest of ``REPEAT`` runs, in seconds and in microseconds per unit
of the result (a cell, a term, a step of the stopping rule, a value, a
pivot), and is marked ``noisy`` when a run lies more than 10% from the
median of the runs.

* oracle: the top-left section, up to 256² and 512², of each formula of
  :func:`formulas`, filled cell by cell through the scalar oracle and as
  blocks (``truncate``); and row 1 times column 1 of the golden ``mul``
  factors, summed term by term through the scalar oracles and as a batch
  of one fed term runs read through the block oracles (``Lines``), as
  ``matmul`` does, the oracle inside the timed run.  The transformed rows
  A′ that ``orth`` gives of the golden four rows, over twice the largest
  size in columns, read cell by cell through ``entry``, by block through
  ``truncate`` and as one ``section``.  And the 8×8 block that ``mul``
  shows of a dense matrix of the largest size squared: the whole product
  by ``product_ascending``, sliced, and the lazy product through
  ``truncate``.  And the block reads that series-sums' term runs make
  (``Lines``), cell by cell through ``entry`` and as one block: 8 probe
  rows of the first ``mul`` factor by 256 terms from term 700, 256 terms
  of 8 probe columns of the second, and the four rows of ``orth``'s
  golden rows by 1,638 terms.
* truncation: the band rows of a tridiagonal and a pentadiagonal JSON
  ``banded`` spec, with bands as banded-spectral draws them, at n = 128
  and 1024, filled cell by cell through the scalar oracle and one band at
  a time through the block oracle (``Sections``); and the sections of the
  first two formulas of :func:`formulas` (an ``expr`` and a
  ``finite-support`` spec), grown through one ``Sections`` along n = 8,
  16, ..., 512, cell by cell and as blocks.
* series: the 64 probe series of that product at ``max_terms=4096``, their
  terms read into a table first, so the stopping rule and its feeding are
  timed, not the oracle: summed one at a time on plain floats, each as a
  batch of one fed term runs, and as one ``SeriesBatch`` of all 64.  And
  the same 64 series as ``matmul`` reads them: one at a time through the
  scalar oracles, and as one ``SeriesBatch`` fed by ``_line_product`` from
  two fresh ``Lines`` of the probe rows and columns, the reads inside the
  timed run.
* kernel: banded sections (diagonal ``1/i`` plus seeded entries, bands
  (0,0), (1,1) and (2,2), n = 128, 512 and 1024).  ``eig``'s 64-point grid
  of characteristic values, as a loop of ``char_value`` and as one batched
  ``_grid_values``, both fed band rows; and ``rank``'s echelon form, by
  the numpy sweep ``_sweep`` on the array and by ``echelon`` fed band
  rows.  And the log-series determinant of the section of the golden
  ``DENSE_EXPR`` at n = 128, 256, 512 and 1024, in µs per term of the
  series: one way, as no second way of the series gives its bits.  And
  the dense kernels of that section at the same sizes, in µs per pivot,
  one way each: ``lu_det`` (with its relative gap to
  ``np.linalg.slogdet``), ``echelon`` at ``rank``'s pivot threshold and
  ``gauss_solve`` of the golden dense system, b = 1/i².  And two cases
  whose first column has no pivot, each next to one where it has: at
  n = 1024, ``echelon`` of the golden section at ``rank``'s pivot
  threshold with its first column zeroed and intact, and ``char_value``
  of the banded :data:`SKIPPED_BANDS` at its root 1, where its first
  column is zero, and at 1 + 1e-9.
* solve: the compatibility ranks of ``solve --check-compat`` on the
  golden dense system, b = 1/i², wanted 1..3: ``cramer_solve(...)
  .compatibility()`` at max-size 128, 256, 512 and 1024, in µs per size
  of the schedule, one way, with the verdict and the rank of [A | b].
* eig: ``find_eigenvalues`` on the tridiagonal and pentadiagonal specs
  of the truncation layer, at max-size 128 with a 64-point grid, on an
  interval above their bands that holds isolated roots, in µs per
  operation, one way, with the verdict (``ok``, or the error raised) and
  the roots and their ``stable`` flags.  And the refinement of each sign
  change of that grid at max-size 128 (``_refine``; a checkout from before
  it bisects), in µs per characteristic value, with the roots and the
  values read per root.

* render: the documents of the CLI, rendered by ``tests/oracles.py``'s
  ``render_reference`` (one recursive call per value) and by
  ``render_document``, whose bytes must match: a ``mul`` document of the
  golden factors with its 64 per-entry reports, in µs per report, and
  ``truncate`` documents of ``1/(i+j-1)^2 + delta(i,j)`` at 256² and
  1024², in µs per cell, each with the whole command's time (``main``,
  output to a string) and the share of it that ``render_document`` takes;
  and ``render_csv`` of the 256² section against ``render_csv_reference``.

The last line is one JSON object: the timed checkout's revision, the
machine facts of ``perfbench/run.py``, numpy's version and every row.
The script exits with status 1 if any way differs from its reference.

    python scripts/bench.py [CHECKOUT] [--layer LAYER ...]
    python scripts/bench.py --parent PARENT [--rounds N] [--layer LAYER ...]

``CHECKOUT``, another checkout of the repository, times that checkout's
``src/`` with this script's cases.  ``--layer`` times only the named
layers.  ``--parent`` compares: it runs the script on ``PARENT``'s
``src/`` and on this checkout's in ``N`` rounds (5 by default), each run
a subprocess and the order swapped every round, and prints each row's
fastest and median seconds on both sides and the ratio of the medians
(this / parent), so that both sides see the same spells of the host.
"""

import argparse
import contextlib
import dataclasses
import functools
import io
import itertools
import json
import math
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def source_root(args):
    """The checkout whose ``src/`` is timed: the one command-line argument,
    else this script's own."""
    source = Path(args[0]).resolve() if args else ROOT
    if not (source / "src" / "infmat").is_dir():
        sys.exit(f"{args[0]}: no src/infmat to time")
    return source


def options(args):
    """The command line: the checkout to time and the parent comparison."""
    parser = argparse.ArgumentParser(description="time each layer of infmat's pipeline")
    parser.add_argument("checkout", nargs="?", help="another checkout, whose src/ is timed")
    parser.add_argument("--parent", help="compare PARENT's src/ with this checkout's")
    parser.add_argument("--rounds", type=int, default=5, help="alternating rounds of --parent")
    parser.add_argument("--layer", action="append", dest="layers", help="time only this layer")
    return parser.parse_args(args)


OPTIONS = options(sys.argv[1:] if __name__ == "__main__" else [])
SOURCE = source_root([OPTIONS.checkout] if OPTIONS.checkout else [])
sys.path[:0] = [str(SOURCE / "src"), str(ROOT), str(ROOT / "tests")]

# from the timed src/ and this checkout, put on the path above
from infmat import cli  # noqa: E402
from infmat._dense import (_sweep, band_rows, echelon, gauss_solve, lu_det,  # noqa: E402
                           norm_inf, product_ascending)
from infmat.algebra import PROBE_SIDE, _line_product, matmul  # noqa: E402
from infmat.bases_orth import orthogonalize  # noqa: E402
from infmat.determinant import det_log_series  # noqa: E402
from infmat.errors import InfmatError  # noqa: E402
from infmat.inverse_solve import RANK_PIVOT_SCALE, cramer_solve  # noqa: E402
from infmat.matrix_core import (INFINITE, DenseMatrix, Lines, MatrixSpec,  # noqa: E402
                                Sections, TruncationSchedule, clip_extent, truncate)
from infmat.series import ConvergencePolicy, SeriesBatch, sum_series  # noqa: E402
from infmat.specio import matrix_from_obj, vector_from_obj  # noqa: E402
from infmat.spectral import _grid_values, char_value, find_eigenvalues  # noqa: E402
try:
    from infmat.spectral import _refine  # noqa: E402
except ImportError:  # a checkout from before the ITP refinement bisects
    from infmat.spectral import _bisect  # noqa: E402

    def _refine(f, lo, hi, flo, fhi):
        return _bisect(f, lo, hi, flo)
from oracles import render_csv_reference, render_reference  # noqa: E402
from perfbench.run import machine_facts  # noqa: E402

REPEAT = 3  # runs per way; the fastest one counts
# the dense formula, the two factors of mul and the rows of orth in
# tests/test_golden_cli.py
DENSE_EXPR = "delta(i,j) + 0.3/(i+j+1)^2.5"
MUL_FACTORS = ("1.02/(i+j+0.37)^1.6", "0.95/(i+j+0.81)^1.61")
POLY_ROWS4 = {"rows": 4, "cols": "inf", "kind": "expr", "expr": "1.01/(i+j+0.42)^1.3"}
# the dense formula of the render layer's truncate documents
HILBERT_DELTA = "1/(i+j-1)^2 + delta(i,j)"
# bands as perfbench's banded-spectral draws them: s + c/i^p on the
# diagonal, e on the first off-diagonals and f on the second
TRI_BANDS = {"-1": "0.21", "0": "0.05 + 0.9/i^1.2", "1": "0.21"}
PENTA_BANDS = {**TRI_BANDS, "-2": "0.06", "2": "0.06"}
# the first column of this spec's sections is zero at its root 1
SKIPPED_BANDS = {"-1": "if(j-1, 0.2, 0)", "0": "if(i-1, 2 + 1/i, 1)", "1": "if(i-1, 0.2, 0)"}


def timed(run, repeat=REPEAT):
    """The seconds of each of ``repeat`` runs of ``run()``, and its last result."""
    seconds = []
    for _ in range(repeat):
        start = time.perf_counter()
        result = run()
        seconds.append(time.perf_counter() - start)
    return seconds, result


def bits(x):
    """``x`` with each float as its bits: an array as its shape and int64
    view, a report field by field, a tuple or list item by item."""
    if isinstance(x, np.ndarray):
        return x.shape, x.view(np.int64).tobytes()
    if isinstance(x, float):
        return int(np.float64(x).view(np.int64))
    if dataclasses.is_dataclass(x):
        return bits(dataclasses.astuple(x))
    if isinstance(x, (tuple, list)):
        return tuple(bits(item) for item in x)
    return x


def mul_factors():
    return [matrix_from_obj({"rows": "inf", "cols": "inf", "kind": "expr", "expr": e})
            for e in MUL_FACTORS]


def formulas():
    golden = {"rows": "inf", "cols": "inf", "kind": "expr", "expr": DENSE_EXPR}
    yield "golden DENSE_EXPR", golden
    yield "finite-support 384x384", {**golden, "kind": "finite-support",
                                     "support": {"rows": 384, "cols": 384}}
    yield "dense 512x512", {"kind": "dense", "data": truncate(
        matrix_from_obj(golden), 512, 512).data.tolist()}
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


def oracle_cases(sizes=(256, 512), policy=ConvergencePolicy(max_terms=20000)):
    for name, obj in formulas():
        spec = matrix_from_obj(obj)
        scalar = scalar_twin(spec)
        for size in sizes:
            m, n = clip_extent(spec.rows, size), clip_extent(spec.cols, size)
            yield f"{name} {m}x{n}", "cell", np.size, [
                ("scalar", lambda: truncate(scalar, m, n).data),
                ("block", lambda: truncate(spec, m, n).data)]
    A, B = mul_factors()

    def term(l):
        return A.entry(1, l) * B.entry(l, 1)

    def term_runs():
        runs = _line_product(Lines(A, [1], 0), Lines(B, [1], 1), [(0, 0)])
        return sum_series(term, policy, None, (SeriesBatch([None], policy, runs), 0))

    yield "c/(i+j+a)^p row x column", "term", lambda rep: rep.terms_used, [
        ("scalar", lambda: sum_series(term, policy)), ("term runs", term_runs)]

    # the block reads the source rows through the Lines that orth's Gram
    # series grew, as orth's check does
    a_prime = orthogonalize(matrix_from_obj(POLY_ROWS4), policy).A_prime
    rows, cols = a_prime.rows, 2 * max(sizes)
    yield f"orth A' of POLY_ROWS4 {rows}x{cols}", "cell", np.size, [
        ("entry", lambda: np.array([[a_prime.entry(p, j) for j in range(1, cols + 1)]
                                    for p in range(1, rows + 1)])),
        ("block", lambda: truncate(a_prime, rows, cols).data),
        ("section", lambda: a_prime.section(cols).data)]

    side = max(sizes)
    dense = DenseMatrix(truncate(matrix_from_obj(
        {"rows": "inf", "cols": "inf", "kind": "expr", "expr": DENSE_EXPR}), side, side).data)
    shown = min(side, PROBE_SIDE)
    yield f"mul {shown}x{shown} of dense {side}x{side} squared", "cell", np.size, [
        ("whole product", lambda: product_ascending(dense.data, dense.data)[:shown, :shown]),
        ("lazy product", lambda: truncate(matmul(dense, dense).matrix, shown, shown).data)]


def probe_read_cases(side=8, along=256, first=700, orth_cols=1638):
    """The block reads that series-sums' ``Lines`` make: ``side`` probe
    rows of A, and columns of B, by ``along`` terms from term ``first``,
    and the rows of POLY_ROWS4 by ``orth_cols`` terms from term 1."""
    A, B = mul_factors()
    probe, terms = np.arange(1, side + 1), np.arange(first, first + along)
    rows4 = matrix_from_obj(POLY_ROWS4)
    for name, spec, rows, cols in (
            (f"probe {side}x{along} of A from {first}", A, probe, terms),
            (f"probe {along}x{side} of B from {first}", B, terms, probe),
            (f"POLY_ROWS4 {rows4.rows}x{orth_cols} read", rows4, np.arange(1, rows4.rows + 1),
             np.arange(1, orth_cols + 1))):
        yield name, "cell", np.size, [
            ("scalar", lambda: np.array([[spec.entry(i, j) for j in cols.tolist()]
                                         for i in rows.tolist()])),
            ("block", lambda: spec.block(rows[:, None], cols[None, :]))]


def truncation_cases(sizes=(128, 1024)):
    for name, bands in (("tridiagonal", TRI_BANDS), ("pentadiagonal", PENTA_BANDS)):
        spec = matrix_from_obj({"rows": "inf", "cols": "inf", "kind": "banded", "bands": bands})
        scalar = scalar_twin(spec)
        for n in sizes:
            yield f"{name} band rows n={n}", "cell", np.size, [
                ("scalar", lambda: Sections(scalar)(n).cells),
                ("band fill", lambda: Sections(spec)(n).cells)]


def grown(spec, steps):
    """The last section of one ``Sections`` of ``spec`` grown along ``steps``."""
    sections = Sections(spec)
    for n in steps:
        section = sections(n)
    return section


def growth_cases(steps=(8, 16, 32, 64, 128, 256, 512)):
    for name, obj in itertools.islice(formulas(), 2):
        spec = matrix_from_obj(obj)
        scalar = scalar_twin(spec)
        yield f"{name} n={steps[0]}..{steps[-1]}", "cell", np.size, [
            ("scalar", lambda: grown(scalar, steps)), ("block fill", lambda: grown(spec, steps))]


def series_cases(side=8, policy=ConvergencePolicy(max_terms=4096)):
    A, B = mul_factors()
    probe = range(1, side + 1)
    rows, cols = Lines(A, probe, 0)(policy.max_terms), Lines(B, probe, 1)(policy.max_terms)
    # the first max_terms terms of each probe entry's series, in row-major order
    table = (rows[:, None, :] * cols[None, :, :]).reshape(side * side, policy.max_terms)

    def fed(batch_of):
        """Each series through its scalar term, and ``batch_of(s)`` for series s."""
        lines = table.tolist()
        return [sum_series(lambda k, line=line: line[k - 1], policy, None, batch_of(s))
                for s, line in enumerate(lines)]

    def runs_of(s):
        return SeriesBatch([None], policy, lambda k0, k1, rows: table[s:s + 1, k0 - 1:k1 - 1])

    def batch():
        group = SeriesBatch([None] * len(table), policy,
                            lambda k0, k1, rows: table[rows, k0 - 1:k1 - 1])
        return fed(lambda s: (group, s))

    yield f"{side}x{side} probe of mul", "step", lambda reps: sum(r.terms_used for r in reps), [
        ("one at a time", lambda: fed(lambda s: None)),
        ("term runs", lambda: fed(lambda s: (runs_of(s), 0))), ("batch", batch)]


def block_series_cases(side=8, policy=ConvergencePolicy(max_terms=4096)):
    A, B = mul_factors()
    probe = range(1, side + 1)
    pairs = [(i, j) for i in probe for j in probe]

    def summed(group):
        """Each probe series through its scalar term, and as series s of
        ``group``, when given."""
        return [sum_series(lambda l, i=i, j=j: A.entry(i, l) * B.entry(l, j), policy, None,
                           None if group is None else (group, s))
                for s, (i, j) in enumerate(pairs)]

    def batch():
        # fresh readers, as each matmul grows its own
        runs = _line_product(Lines(A, probe, 0), Lines(B, probe, 1),
                             [(i - 1, j - 1) for i, j in pairs])
        return SeriesBatch([None] * len(pairs), policy, runs)

    yield f"{side}x{side} probe of mul, block reads", "step", (
        lambda reps: sum(r.terms_used for r in reps)), [
        ("one at a time", lambda: summed(None)), ("batch", lambda: summed(batch()))]


def section(n, band):
    """The n-by-n section: diagonal 1/i, seeded entries on the other
    diagonals of the band."""
    rng = np.random.default_rng([n, band])
    i, j = np.indices((n, n))
    t = np.where(np.abs(i - j) <= band, rng.uniform(-0.5, 0.5, (n, n)), 0.0)
    t[np.diag_indices(n)] = 1.0 / np.arange(1, n + 1)
    return t


def kernel_cases(sizes=(128, 512, 1024), bands=(0, 1, 2), grid=64):
    xs, policy = np.linspace(0.4, 0.6, grid), ConvergencePolicy()
    for n in sizes:
        for band in bands:
            t = section(n, band)
            rows = band_rows(t, (band, band))
            yield f"char n={n} ({band},{band})", "value", len, [
                ("scalar loop", lambda: [char_value(rows, x, policy) for x in xs]),
                ("batched grid", lambda: _grid_values(rows, xs, policy))]
            tol = RANK_PIVOT_SCALE * norm_inf(t)
            yield f"echelon n={n} ({band},{band})", "pivot", lambda form: len(form[1]), [
                ("numpy sweep", lambda: _sweep(t, tol)[:2]),
                ("band sweep", lambda: echelon(rows, tol))]


def log_series_cases(sizes=(128, 256, 512, 1024)):
    golden = matrix_from_obj({"rows": "inf", "cols": "inf", "kind": "expr", "expr": DENSE_EXPR})
    for n in sizes:
        section = truncate(golden, n, n)
        yield f"log-series det n={n}", "term", lambda rep: rep.log_terms_used, [
            ("paired powers", lambda: det_log_series(section))]


def dense_kernel_cases(sizes=(128, 256, 512, 1024)):
    golden = matrix_from_obj({"rows": "inf", "cols": "inf", "kind": "expr", "expr": DENSE_EXPR})
    for n in sizes:
        a = truncate(golden, n, n).data
        sign, logdet = np.linalg.slogdet(a)
        want = sign * math.exp(logdet)
        yield f"dense lu_det n={n}", "pivot", lambda det: n, [("sweep", lambda: lu_det(a))], (
            lambda det: {"slogdet_gap": float(abs(det - want) / abs(want))})
        tol = RANK_PIVOT_SCALE * norm_inf(a)
        yield f"dense echelon n={n}", "pivot", lambda form: len(form[1]), [
            ("sweep", lambda: echelon(a, tol))]
        b = 1.0 / np.arange(1, n + 1) ** 2
        yield f"dense gauss_solve n={n}", "pivot", len, [("sweep", lambda: gauss_solve(a, b))]


def skipped_column_cases(n=1024):
    golden = matrix_from_obj({"rows": "inf", "cols": "inf", "kind": "expr", "expr": DENSE_EXPR})
    intact = truncate(golden, n, n).data
    zeroed = intact.copy()
    zeroed[:, 0] = 0.0
    for name, a in (("intact", intact), ("col 1 zero", zeroed)):
        tol = RANK_PIVOT_SCALE * norm_inf(a)
        yield f"dense echelon n={n} {name}", "pivot", lambda form: len(form[1]), [
            ("sweep", lambda: echelon(a, tol))]
    t = Sections(matrix_from_obj({"rows": "inf", "cols": "inf", "kind": "banded",
                                  "bands": SKIPPED_BANDS}))(n)
    for x in (1.0, 1.0 + 1e-9):
        yield f"col-1 char n={n} x={x!r}", "value", lambda value: 1, [
            ("char_value", lambda: char_value(t, x))]


def compat_cases(sizes=(128, 256, 512, 1024)):
    golden = matrix_from_obj({"rows": "inf", "cols": "inf", "kind": "expr", "expr": DENSE_EXPR})
    b = vector_from_obj({"kind": "expr", "expr": "1/i^2"}, INFINITE)
    for n in sizes:
        schedule = TruncationSchedule(max_size=n)

        def ranks():
            return cramer_solve(golden, b, [1, 2, 3], schedule).compatibility()

        yield f"cramer compatibility max-size={n}", "size", lambda rep: rep.rank_Ab.terms_used, [
            ("solve + ranks", ranks)], (
            lambda rep: {"verdict": rep.verdict, "rank_Ab": rep.rank_Ab.estimate})


def eig_verdict(result):
    """The verdict of an eig run, its roots and their stable flags."""
    if isinstance(result, InfmatError):
        return {"verdict": f"{type(result).__name__}: {result}", "roots": [], "stable": []}
    return {"verdict": "ok", "roots": [p.lam for p in result],
            "stable": [p.stable for p in result]}


def eig_cases(max_size=128, grid=64, interval=(0.6, 1.5)):
    schedule = TruncationSchedule(max_size=max_size)
    for name, bands in (("tridiagonal", TRI_BANDS), ("pentadiagonal", PENTA_BANDS)):
        spec = matrix_from_obj({"rows": "inf", "cols": "inf", "kind": "banded", "bands": bands})

        def roots():
            try:
                return find_eigenvalues(spec, interval, schedule, grid_points=grid)
            except InfmatError as exc:  # the verdict, so a failed run is not read as fast
                return exc

        yield f"{name} eig max-size={max_size}", "op", lambda result: 1, [
            ("find_eigenvalues", roots)], eig_verdict

        # the sign changes of the grid at the largest size, as eig reads them
        top, policy = Sections(spec)(max_size), ConvergencePolicy()
        xs = np.linspace(*interval, grid)
        fx = _grid_values(top, xs, policy)
        xs = xs.tolist()
        brackets = [(lo, hi, flo, fhi) for lo, hi, flo, fhi in zip(xs, xs[1:], fx, fx[1:])
                    if flo != 0.0 and fhi != 0.0 and (flo < 0) != (fhi < 0)]

        def refined():
            """The roots of the grid's sign changes and the values read."""
            read = []

            def f(x):
                read.append(x)
                return char_value(top, x, policy)

            return [_refine(f, *bracket) for bracket in brackets], len(read)

        yield f"{name} refine max-size={max_size}", "value", lambda result: result[1], [
            ("refine", refined)], lambda result: {
            "roots": result[0], "values_per_root": result[1] / max(len(result[0]), 1)}


def traced_cli(argv):
    """Run ``infmat`` on ``argv`` in this process: the document its ``main``
    rendered, the command's seconds and the seconds ``render_document``
    took within them."""
    seen, real = [], cli.render_document

    def render(doc):
        start = time.perf_counter()
        text = real(doc)
        seen.append((doc, time.perf_counter() - start))
        return text

    cli.render_document = render
    try:
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main([*argv, "--quiet"])
        seconds = time.perf_counter() - start
    finally:
        cli.render_document = real
    doc, render_s = seen[-1]
    return doc, seconds, render_s


def render_cases(sizes=(256, 1024), csv_size=256):
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name, expr in zip(("A", "B", "H"), (*MUL_FACTORS, HILBERT_DELTA)):
            paths.append(str(Path(tmp) / f"{name}.json"))
            Path(paths[-1]).write_text(json.dumps(
                {"rows": "inf", "cols": "inf", "kind": "expr", "expr": expr}))
        doc = traced_cli(["mul", *paths[:2]])[0]
        reports = len(doc["result"]["per_entry_reports"])
        yield f"mul document {reports} reports", "report", lambda text: reports, [
            ("reference", lambda: render_reference(doc) + "\n"),
            ("render_document", lambda: cli.render_document(doc))]
        for n in sizes:
            argv = ["truncate", paths[2], "--n", str(n)]
            doc = traced_cli(argv)[0]

            @functools.cache
            def command():
                """The command's fastest run, and the share of it that
                render_document took."""
                seconds, render = min(traced_cli(argv)[1:] for _ in range(REPEAT))
                return {"command_s": seconds, "render_share": render / seconds}

            yield f"truncate {n}x{n} document", "cell", lambda text: n * n, [
                ("reference", lambda: render_reference(doc) + "\n"),
                ("render_document", lambda: cli.render_document(doc))], (
                lambda text: command())
        section = truncate(matrix_from_obj(json.loads(Path(paths[2]).read_text())),
                           csv_size, csv_size)
        yield f"csv {csv_size}x{csv_size} section", "cell", lambda text: csv_size ** 2, [
            ("reference", lambda: render_csv_reference(section.data)),
            ("render_csv", lambda: cli.render_csv(section))]


def layers():
    return [("oracle", oracle_cases()), ("oracle", probe_read_cases()),
            ("truncation", truncation_cases()),
            ("truncation", growth_cases()), ("series", series_cases()),
            ("series", block_series_cases()),
            ("kernel", kernel_cases()), ("kernel", log_series_cases()),
            ("kernel", dense_kernel_cases()), ("kernel", skipped_column_cases()),
            ("solve", compat_cases()), ("eig", eig_cases()), ("render", render_cases())]


def measure(layers, repeat=REPEAT):
    """A row and a result per layer, case and way, as each is timed.

    ``layers`` holds ``(layer, cases)``; a case is ``(name, unit, count,
    ways)``, where ``count(result)`` is the number of units in a result,
    and a way is ``(name, run)``, the first the reference.  A fifth item
    ``facts(result)``, when given, adds its fields to each of the case's
    rows.  The cases are made one at a time, and a case's ways run before
    the next is made, so a way may read the variables of the loop that
    made it."""
    for layer, cases in layers:
        for case, unit, count, ways, *facts in cases:
            want = None
            for way, run in ways:
                runs, result = timed(run, repeat)
                seconds, middle = min(runs), statistics.median(runs)
                got, units = bits(result), count(result)
                want = got if want is None else want
                row = {"layer": layer, "case": case, "way": way, "units": units, "unit": unit,
                       "seconds": seconds, "us_per_unit": 1e6 * seconds / units,
                       "noisy": any(abs(t - middle) > 0.1 * middle for t in runs),
                       "bits": "identical" if got == want else "DIFFER"}
                for fact in facts:
                    row.update(fact(result))
                yield row, result


def revision(checkout=ROOT):
    """The commit of ``checkout``, ``-dirty`` when its tracked files differ."""
    try:
        return subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40",
                               "--exclude=*"], cwd=checkout, capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_round(checkout, names):
    """The rows of one subprocess of this script timing ``checkout``'s
    ``src/``, with only the layers ``names`` (all when ``None``)."""
    argv = [sys.executable, str(Path(__file__).resolve()), str(checkout)]
    for name in names or ():
        argv += ["--layer", name]
    proc = subprocess.run(argv, capture_output=True, text=True)
    if proc.returncode not in (0, 1):
        sys.exit(f"{checkout}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])["rows"]


def compare(parent, rounds, names=None, run=run_round):
    """Time ``parent``'s ``src/`` and :data:`SOURCE`'s in ``rounds``
    rounds, each side one ``run(checkout, names)`` a round and the order
    swapped every round; print each row's fastest and median seconds on
    both sides and the ratio of the medians, this side over the parent's.
    Returns the exit status: 1 if a way differed from its reference in
    any run."""
    sides = [("parent", Path(parent).resolve()), ("this", SOURCE)]
    times, bits = {}, {}
    for r in range(rounds):
        for side, checkout in sides if r % 2 == 0 else sides[::-1]:
            for row in run(checkout, names):
                key = row["layer"], row["case"], row["way"]
                times.setdefault(key, {"parent": [], "this": []})[side].append(row["seconds"])
                bits[key] = "DIFFER" if "DIFFER" in (bits.get(key), row["bits"]) else row["bits"]
    print(f"{'layer':<10} {'case':<34} {'way':<15} {'parent min':>10} {'median':>9} "
          f"{'this min':>9} {'median':>9} {'ratio':>6}  bits")
    rows = []
    for (layer, case, way), seconds in times.items():
        row = {"layer": layer, "case": case, "way": way}
        for side in ("parent", "this"):
            row[f"{side}_min"] = min(seconds[side])
            row[f"{side}_median"] = statistics.median(seconds[side])
        row["ratio"] = row["this_median"] / row["parent_median"]
        row["bits"] = bits[layer, case, way]
        rows.append(row)
        print(f"{layer:<10} {case:<34} {way:<15} {row['parent_min']:>10.4f} "
              f"{row['parent_median']:>9.4f} {row['this_min']:>9.4f} {row['this_median']:>9.4f} "
              f"{row['ratio']:>6.3f}  {row['bits']}")
    print(json.dumps({"revision": revision(SOURCE), "parent": revision(sides[0][1]),
                      "rounds": rounds, "machine": machine_facts(), "numpy": np.__version__,
                      "rows": rows}))
    return 0 if all(row["bits"] == "identical" for row in rows) else 1


def main(opts=OPTIONS):
    if opts.parent:
        return compare(opts.parent, opts.rounds, opts.layers)
    print(f"{'layer':<10} {'case':<34} {'way':<13} {'units':>13} {'seconds':>9} "
          f"{'us/unit':>10} {'':<5}  bits")
    rows = []
    chosen = [(layer, cases) for layer, cases in layers()
              if not opts.layers or layer in opts.layers]
    for row, _ in measure(chosen):
        rows.append(row)
        print(f"{row['layer']:<10} {row['case']:<34} {row['way']:<13} {row['units']:>7} "
              f"{row['unit']:<5} {row['seconds']:>9.4f} {row['us_per_unit']:>10.3f} "
              f"{'noisy' if row['noisy'] else '':<5}  {row['bits']}")
    print(json.dumps({"revision": revision(SOURCE), "machine": machine_facts(),
                      "numpy": np.__version__, "rows": rows}))
    return 0 if all(row["bits"] == "identical" for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
