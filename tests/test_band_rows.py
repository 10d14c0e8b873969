"""Sections of every store are filled by one grower, bit for bit with the
scalar path.

A spec that declares a bandwidth keeps its sections as band rows, any
other as an array; both grow through ``matrix_core._grow``, one block per
piece (a band, or a rectangle) through the block oracle, and back to the
scalar loop when a piece declines.  The store, and the array built from
it, hold the bits of the scalar path at every size, or raise its error.
No cell of a JSON ``banded`` or ``diag`` section is evaluated by the
scalar oracle, and ``det``, ``rank`` and ``eig`` on one keep no n-by-n
array, a root's eigenvector and residual included.
"""

import dataclasses
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from test_block_oracle import outcome, scalar

from infmat import expr_dsl
from infmat._dense import Band
from infmat.determinant import det_infinite
from infmat.errors import OracleValueError
from infmat.expr_dsl import EvalError
from infmat.inverse_solve import rank_of
from infmat.matrix_core import Sections, TruncationSchedule, clip_extent, truncate
from infmat.specio import matrix_from_obj
from infmat.spectral import char_value, eigenvector_for, find_eigenvalues

# plain formulas, signed zeros among them, and three that fail on some
# cells: a domain error, a zero divisor and an overflow to inf
FORMULAS = ["1/i", "0.25", "i - j", "(i + j)^0.5", "exp(-0.1*i)*j", "-0*i", "delta(i, 7)",
            "if(i - 4, 1, -0.5)", "ln(i-3)", "1/(i-5)", "2^(150*i)"]
EXTENTS = st.sampled_from(["inf", 1, 2, 5, 9, 20])


@st.composite
def section_objs(draw):
    """A JSON ``diag`` spec, a ``banded`` one of bandwidth up to 3, an
    ``expr`` one or a ``finite-support`` one."""
    rows, cols = draw(EXTENTS), draw(EXTENTS)
    kind = draw(st.sampled_from(["diag", "banded", "expr", "finite-support"]))
    if kind == "banded":
        offsets = draw(st.sets(st.integers(-3, 3), min_size=1))
        return {"rows": rows, "cols": cols, "kind": kind,
                "bands": {str(off): draw(st.sampled_from(FORMULAS)) for off in sorted(offsets)}}
    obj = {"rows": rows, "cols": rows if kind == "diag" else cols, "kind": kind,
           "expr": draw(st.sampled_from(FORMULAS))}
    if kind == "finite-support":
        obj["support"] = {"rows": draw(st.integers(1, 12)), "cols": draw(st.integers(1, 12))}
    return obj


def store(section):
    """The cells a section holds: its band rows, or the array itself."""
    return section.cells if isinstance(section, Band) else section


@given(section_objs(), st.lists(st.integers(1, 24), min_size=1, max_size=6))
def test_band_rows_hold_the_scalar_path_s_bits(obj, sizes):
    spec = matrix_from_obj(obj)
    assert spec.block is not None
    twin = scalar(spec)
    counts = Counter()
    with_block = Sections(spec)
    without = Sections(scalar(dataclasses.replace(
        spec, entry=lambda i, j: counts.update([(i, j)]) or spec.entry(i, j))))
    raised = False
    for n in sizes:
        m, k = clip_extent(spec.rows, n), clip_extent(spec.cols, n)
        want = outcome(lambda: truncate(twin, m, k))
        assert outcome(lambda: truncate(spec, m, k)) == want, n
        assert outcome(lambda: with_block.array(n)) == want, n
        assert outcome(lambda: without.array(n)) == want, n
        assert outcome(lambda: store(with_block(n))) == outcome(lambda: store(without(n))), n
        raised |= want[0] == "raised"
        if want[0] == "ok":
            section, w = with_block(n), spec.bandwidth
            if w is None:
                assert isinstance(section, np.ndarray) and section.shape == (m, k)
            else:
                assert isinstance(section, Band) and (section.lower, section.upper) == (w, w)
                assert section.shape == (m, k) and section.cells.shape == (m, 2 * w + 1)
    # a store that never failed to grow evaluated no cell twice
    assert raised or max(counts.values(), default=0) <= 1


@pytest.mark.parametrize("bands, error, index", [
    ({"0": "2^(150*i)"}, OracleValueError, (7, 7)),  # 2^1050 is inf
    ({"0": "1", "-1": "1/(i-5)"}, EvalError, None),
    ({"1": "1", "-1": "ln(5-i)"}, EvalError, None)])
def test_a_failing_cell_raises_what_the_scalar_path_raises(bands, error, index):
    spec = matrix_from_obj({"rows": "inf", "cols": "inf", "kind": "banded", "bands": bands})
    sections = Sections(spec)
    small = sections(4).cells
    for _ in range(2):
        got = outcome(lambda: sections(8))
        assert got == outcome(lambda: truncate(scalar(spec), 8, 8))
        assert got[:2] == ("raised", error) and got[3] == index
        # the store keeps what it held
        assert sections(4).cells.tobytes() == small.tobytes()


@pytest.mark.parametrize("obj, pieces", [
    # the strip right of the known corner fills; the rows below it hold the
    # zero divisor of row 9
    ({"kind": "expr", "expr": "1/(i-9)"}, [((1, 8), (9, 16), True), ((9, 16), (1, 16), False)]),
    # bands -1 and 0 fill; band 1 holds it at (9, 10)
    ({"kind": "banded", "bands": {"0": "1", "1": "1/(i-9)"}},
     [((9, 16), (8, 15), True), ((9, 16), (9, 16), True), ((8, 15), (9, 16), False)]),
], ids=["expr", "banded"])
def test_a_piece_that_declines_after_one_that_filled_takes_the_scalar_path(obj, pieces):
    spec = matrix_from_obj({"rows": "inf", "cols": "inf", **obj})
    asked = []

    def block(rows, cols):
        values = spec.block(rows, cols)
        asked.append(((rows.min(), rows.max()), (cols.min(), cols.max()),
                      values is not None and bool(np.all(np.isfinite(values)))))
        return values

    sections = Sections(dataclasses.replace(spec, block=block))
    small = store(sections(8)).copy()
    asked.clear()
    got = outcome(lambda: sections(16))
    assert asked == pieces
    assert got == outcome(lambda: truncate(scalar(spec), 16, 16))
    assert got[:2] == ("raised", EvalError)
    assert store(sections(8)).tobytes() == small.tobytes()


# banded-spectral's three families
SPECTRAL = [{"rows": "inf", "cols": "inf", "kind": "diag", "expr": "0.1 + 0.9/i^1.2"},
            {"rows": "inf", "cols": "inf", "kind": "banded",
             "bands": {"-1": "0.2", "0": "0.1 + 0.9/i^1.2", "1": "0.2"}},
            {"rows": "inf", "cols": "inf", "kind": "banded",
             "bands": {"-2": "0.05", "-1": "0.2", "0": "0.1 + 0.9/i^1.2", "1": "0.2",
                       "2": "0.05"}}]


@pytest.mark.parametrize("obj", SPECTRAL, ids=["diag", "tri", "penta"])
def test_section_fill_makes_no_scalar_evaluation(obj, monkeypatch):
    calls = []
    scalar_eval = expr_dsl.eval_ast
    monkeypatch.setattr(expr_dsl, "eval_ast", lambda *a, **k: calls.append(a) or scalar_eval(*a, **k))
    spec = matrix_from_obj(obj)
    sections = Sections(spec)
    for n in (8, 128, 1024):
        sections(n)
    truncate(spec, 40, 40)
    assert calls == []
    # the scalar oracle is still the one a point read takes
    assert spec.entry(3, 3) == scalar_eval(expr_dsl.parse(obj.get("expr") or obj["bands"]["0"]),
                                           i=3, j=3)
    assert len(calls) == 1


def peak_bytes(run):
    tracemalloc.start()
    try:
        result = run()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


N = 1024
SQUARE = 8 * N * N  # bytes of one n-by-n array


@pytest.mark.parametrize("obj", SPECTRAL[1:], ids=["tri", "penta"])
def test_det_rank_and_eig_at_1024_keep_no_square_array(obj):
    spec = matrix_from_obj({**obj, "bands": {**obj["bands"], "0": "1 + 1/i"}})
    schedule = TruncationSchedule(max_size=N)
    peak, rep = peak_bytes(lambda: det_infinite(spec, schedule))
    assert peak < SQUARE / 8 and rep.report.status == "undetermined"  # det ~ n grows
    peak, rep = peak_bytes(lambda: rank_of(spec, schedule))
    assert peak < SQUARE / 8 and rep.estimate == N
    # no root in the interval: the grid alone
    peak, pairs = peak_bytes(lambda: find_eigenvalues(spec, (5.0, 6.0), schedule, grid_points=16))
    assert peak < SQUARE / 8 and pairs == []


def test_eig_at_1024_keeps_one_square_array_at_a_time():
    # the grid, the refinement, the eigenvector and the residual all read
    # the band rows of the diagonal, so the peak stays far below this
    # bound of one array.  The root 1 is isolated, and the other diagonal
    # entries, 2 + 1/i, keep the determinant far from underflow
    spec = matrix_from_obj({"rows": "inf", "cols": "inf", "kind": "diag",
                            "expr": "if(i-1, 2 + 1/i, 1)"})
    peak, pairs = peak_bytes(lambda: find_eigenvalues(
        spec, (0.9, 1.1), TruncationSchedule(max_size=N), grid_points=32))
    assert [(p.lam, p.stable) for p in pairs] == [(1.0, True)]
    assert peak < 1.25 * SQUARE


@pytest.mark.parametrize("bands", [{"-1": "1", "0": "0", "1": "1"},
                                   {"-2": "0.25", "-1": "1", "0": "0", "1": "1", "2": "0.25"}],
                         ids=["tri", "penta"])
def test_banded_eig_at_1024_keeps_no_square_array(bands):
    # a root's eigenvector is back-substituted against the reduced band
    # rows one row at a time, and its residual is summed over the band's
    # offsets.  The eigenvectors of these Toeplitz sections spread over
    # every row, so the null direction shows as a small last pivot
    spec = matrix_from_obj({"rows": "inf", "cols": "inf", "kind": "banded", "bands": bands})
    peak, pairs = peak_bytes(lambda: find_eigenvalues(
        spec, (0.999, 1.004), TruncationSchedule(max_size=N), grid_points=32))
    assert len(pairs) == 1 and pairs[0].vec_residual < 1e-12
    assert peak < SQUARE / 8


def test_a_column_without_a_pivot_keeps_no_square_array():
    # at the root 1 the shifted section's first column is zero, so the
    # sweep skips it and every later column has a pivot
    spec = matrix_from_obj({"rows": "inf", "cols": "inf", "kind": "banded",
                            "bands": {"-1": "if(j-1, 0.2, 0)", "0": "if(i-1, 2 + 1/i, 1)",
                                      "1": "if(i-1, 0.2, 0)"}})
    section = Sections(spec)(N)
    peak, value = peak_bytes(lambda: char_value(section, 1.0))
    assert peak < SQUARE / 8 and value == 0.0
    peak, v = peak_bytes(lambda: eigenvector_for(section, 1.0))
    assert peak < SQUARE / 8 and v.data[0, 0] == 1.0
