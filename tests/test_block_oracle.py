"""The block oracle against the scalar one, bit for bit.

Sections of ``expr`` and ``finite-support`` specs, and of dense specs,
are filled through ``MatrixSpec.block``; with the block removed the
same cells are evaluated one by one.  Both must give the same bits, or
raise the same error (class, message and index): the block path never
raises itself, it hands a fill back to the scalar loop.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from test_expr_dsl import _asts
from test_golden_cli import DENSE_EXPR

from infmat import expr_dsl
from infmat.errors import InfmatError
from infmat.expr_dsl import compile_block, eval_ast, parse, pretty
from infmat.matrix_core import (DenseMatrix, MatrixSpec, Sections, clip_extent,
                                transpose, truncate)
from infmat.specio import load_matrix_file, matrix_from_obj

SPECS = Path(__file__).resolve().parent.parent / "specs"
SHIPPED = sorted(p.name for p in SPECS.glob("*.json")
                 if json.loads(p.read_text()).get("kind") in ("expr", "finite-support"))


def expr_spec(expr, **fields):
    return matrix_from_obj(dict({"rows": "inf", "cols": "inf", "kind": "expr",
                                 "expr": expr}, **fields))


def support_spec(expr):
    return matrix_from_obj({"rows": "inf", "cols": 12, "kind": "finite-support",
                            "expr": expr, "support": {"rows": 5, "cols": 9}})


def scalar(spec):
    return MatrixSpec(spec.rows, spec.cols, spec.entry, spec.structure, spec.decay,
                      spec.bandwidth, spec.support)


def outcome(fill):
    """Shape and bits of a filled section (a :class:`DenseMatrix` or an
    array), or the library error it raised; any other exception fails."""
    try:
        section = fill()
    except InfmatError as exc:  # compared, class and all, with the other path
        return ("raised", type(exc), str(exc), getattr(exc, "index", None))
    data = section.data if isinstance(section, DenseMatrix) else np.asarray(section)
    return ("ok", data.shape, data.view(np.int64).tolist())


def assert_truncations_agree(spec, m, n):
    assert spec.block is not None
    assert outcome(lambda: truncate(spec, m, n)) == outcome(lambda: truncate(scalar(spec), m, n))


def assert_sections_agree(spec, sizes):
    with_block, without = Sections(spec), Sections(scalar(spec))
    for n in sizes:
        assert outcome(lambda: with_block(n)) == outcome(lambda: without(n)), n


def test_shipped_specs_are_found():
    assert SHIPPED == ["geometric.json", "ones.json", "taylor_exp_rows.json"]


@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_spec_sections_agree(name):
    spec = load_matrix_file(SPECS / name)
    assert_truncations_agree(spec, clip_extent(spec.rows, 37), 41)
    assert_sections_agree(spec, [8, 16, 32, 64, 128])


def test_golden_dense_expr_sections_agree():
    spec = expr_spec(DENSE_EXPR)
    assert_truncations_agree(spec, 37, 41)
    assert_sections_agree(spec, [8, 16, 32, 64, 128])
    assert_sections_agree(spec, [3, 5, 128])


@given(_asts)
def test_random_formula_sections_agree(ast):
    src = pretty(ast)
    for spec in (expr_spec(src), support_spec(src)):
        assert_truncations_agree(spec, 7, 6)
        assert_sections_agree(spec, [1, 2, 4, 8, 12])


def block_and_scalar(ast, m, n):
    """The block function's values on the m-by-n section (None if it
    declines), and the scalar values cell by cell (None if one raises)."""
    rows, cols = np.arange(1.0, m + 1), np.arange(1.0, n + 1)
    got = compile_block(ast)(rows[:, None], cols[None, :])
    try:
        want = np.array([[eval_ast(ast, i=i, j=j) for j in range(1, n + 1)]
                         for i in range(1, m + 1)])
    except Exception:
        want = None
    if got is not None:
        got = np.broadcast_to(got, (m, n)).view(np.int64).tolist()
    return got, None if want is None else want.view(np.int64).tolist()


@given(_asts)
def test_block_value_is_the_scalar_value(ast):
    # the block function on its own, before any finiteness check: the
    # values it gives are the scalar bits, inf and nan included, and it
    # declines wherever the scalar evaluator raises
    got, want = block_and_scalar(ast, 6, 5)
    assert got is None or got == want


@pytest.mark.parametrize("expr", [
    DENSE_EXPR,
    "delta(i,j) + if(i==j, 0.25, 0.3)*exp(-0.137*(i+j))/(i+j+1.3)^1.7",
    "ln(i/j + 0.3)", "ln(j) * ln(i + 0.5) - abs(ln(1/i))",
    "(i/7)^(j/3) + (0-2)^j + 0^j + 2^(0-i*j)",      # integer powers of negatives
    "1/2^(100*(i+j)) + exp(800*i) - exp(799*j)",     # overflow saturates to inf
    "min(1, exp(1000)-exp(1000)) + max(j, exp(1000)-exp(1000))",  # nan order
    "min(exp(1000)-exp(1000), 1) + max(exp(1000)-exp(1000), j)",
    "min(0, -0)*i", "min(-0, 0)*i", "max(0, -0)*j", "max(-0, 0)*j",  # signed zeros
    "fact(i+j) + fact(j*100) + 1/fact(171+i)",       # table, and overflow to inf
    "if(exp(1000)-exp(1000), i, j) + if(0, 1/0, 2)",  # nan is true; branch untaken
    "if(i==j, 1, 1/(i-j)) + if(i==j, ln(i-j+1), j)",
])
def test_block_fills_itself_bit_for_bit(expr):
    got, want = block_and_scalar(parse(expr), 40, 37)
    assert got is not None and got == want


def test_fact_past_the_table_fills_by_block_as_the_scalar_value():
    # a million factorial overflows to inf in both paths, from the table
    got, want = block_and_scalar(parse("fact(1e6 + 0*i) + j"), 2, 2)
    assert got is not None and got == want
    assert np.all(np.array(want).view(np.float64) == np.inf)


def test_untaken_branch_is_never_evaluated():
    spec = expr_spec("if(i==j, 1, 1/(i-j))")
    rows, cols = np.arange(1, 9)[:, None], np.arange(1, 9)[None, :]
    assert spec.block(rows, cols) is not None
    assert_sections_agree(spec, [8, 16, 32])
    assert compile_block(parse("if(i==j, 1/(i-j), 2)"))(
        rows[:, None] * 1.0, cols[None, :] + 8.0) is not None


@pytest.mark.parametrize("expr", [
    "1/(i-3)",                 # division by zero on row 3
    "ln(j-2)",                 # ln of a value <= 0 in columns 1 and 2
    "(0-i)^0.5",               # domain error of ^
    "fact(i-2.5)",             # fact of a non-integer
    "fact(j-4)",               # fact of a negative integer
    "i + k",                   # unbound variable
    "exp(100*(i+j))",          # overflow: a non-finite entry
    "if(i==5, 0-exp(1000), 1)",
    "1/(i-j)",
    "1/(1/(i-3))",             # a zero divisor whose quotient is lost again
    "if(1/(i-j) == 0, 1, 2)",
    "fact(exp(1000*i))",       # fact of inf
    "fact(exp(1000) - exp(1000))",  # fact of nan
    "fact(if(i==3, 0-exp(1000), j))",  # fact of -inf on row 3 only
])
def test_errors_come_from_the_scalar_path(expr):
    spec = expr_spec(expr)
    assert_truncations_agree(spec, 9, 8)
    assert_sections_agree(spec, [2, 4, 8, 16])
    assert_truncations_agree(support_spec(expr), 9, 8)


def test_overflow_saturates_as_in_the_scalar_path():
    # 2^(i+j) overflows past i + j = 1023; the reciprocal is then 0
    spec = expr_spec("1/2^(i+j) + fact(i+j-2)*0 + 1/exp(i*j)")
    assert_truncations_agree(spec, 600, 600)


def test_min_max_keep_the_scalar_order():
    spec = expr_spec("min(i, 0-i*0) + max(j-3, 0*j) + min(i/j, j/i) - max(0, -0)")
    assert_sections_agree(spec, [8, 16])


def test_finite_support_block_stays_in_the_box():
    spec = support_spec("1/(i+j)")
    assert_sections_agree(spec, [2, 4, 8, 12])
    assert not np.any(truncate(spec, 12, 12).data[5:, :])
    assert not np.any(truncate(spec, 12, 12).data[:, 9:])


def test_decay_certificate_keeps_the_block():
    spec = expr_spec("1/2^(i+j)", decay={"kind": "geometric", "C": 1.0, "r": 0.5})
    assert spec.decay is not None
    assert_sections_agree(spec, [8, 16, 32])


@given(st.integers(1, 9), st.integers(1, 9))
def test_dense_spec_fills_by_slicing(m, n):
    data = np.random.default_rng(m * 10 + n).normal(size=(9, 9))
    spec = DenseMatrix(data)
    assert_truncations_agree(spec, m, n)
    assert_sections_agree(spec, [m, 9])


def test_transpose_keeps_the_block_oracle():
    spec = load_matrix_file(SPECS / "geometric.json")
    reads = []

    def entry(i, j):
        reads.append((i, j))
        return spec.entry(i, j)

    counted = MatrixSpec(spec.rows, spec.cols, entry, spec.structure, spec.decay,
                         spec.bandwidth, spec.support, spec.block)
    section = truncate(transpose(counted), 256, 256).data
    assert section.tobytes() == truncate(spec, 256, 256).data.T.tobytes()
    assert reads == []
    # a declined block is declined transposed, and the cells come from entry
    declining = MatrixSpec(3, 2, lambda i, j: 10.0 * i + j, block=lambda rows, cols: None)
    assert truncate(transpose(declining), 2, 3).tolist() == [[11.0, 21.0, 31.0],
                                                             [12.0, 22.0, 32.0]]


def test_transposed_block_agrees_with_the_scalar_path():
    spec = transpose(expr_spec("1/(i + 2*j)^1.5 + if(i == j + 1, i, 0)"))
    assert spec.block is not None
    assert_truncations_agree(spec, 37, 41)
    assert_sections_agree(spec, [8, 16, 32])


# ^, exp and ln are mapped once per diagonal line when every argument is
# constant along anti-diagonals (Hankel) or along diagonals (Toeplitz)
HANKEL, TOEPLITZ, MIXED = ("0.3/(i+j+1)^2.5 + exp(-0.137*(i+j)) * ln(i+j)",
                           "exp(-0.1*(i-j)^2) + 2^(j-i) + ln(abs(i-j) + 0.5)",
                           "(i+j)^(i-j) + 0.9^(i*j)")


def counting(fn):
    calls = []

    def counted(*args):
        calls.append(args)
        return fn(*args)

    return counted, calls


def cell_map(fn, *args):
    return np.asarray(np.frompyfunc(fn, len(args), 1)(*args), dtype=float)


@pytest.mark.parametrize("expr", [HANKEL, TOEPLITZ, MIXED])
def test_diagonal_lines_fill_bit_for_bit(expr):
    got, want = block_and_scalar(parse(expr), 40, 37)
    assert got is not None and got == want
    spec = expr_spec(expr)
    assert_truncations_agree(spec, 37, 41)
    # offset strips: the right strip and the bottom strip of each growth
    assert_sections_agree(spec, [3, 5, 128])


@pytest.mark.parametrize("m,n", [(256, 256), (2, 7), (9, 2)])
def test_a_line_maps_n_plus_m_minus_1_cells(m, n):
    I, J = np.arange(1.0, m + 1)[:, None], np.arange(1.0, n + 1)[None, :]
    for args, cells in [((I + J, 2.5), m + n - 1), ((0.5, J - I), m + n - 1),
                        ((1 + 1 / (I + J), I - J), m * n), ((I * J, 0.9), m * n)]:
        pow_, calls = counting(math.pow)
        got = expr_dsl._math_map(pow_, *args)
        assert len(calls) == cells
        assert got.shape == (m, n)
        assert got.tobytes() == cell_map(math.pow, *args).tobytes()


def test_equal_is_not_bitwise_equal_on_a_line():
    # -0.0 on row 1 and 0.0 below: every cell == 0, yet no line is constant
    # bit for bit, so each cell is mapped and pow(-0.0, 3) stays -0.0
    got, want = block_and_scalar(parse("((i-2)*0*j)^3"), 6, 5)
    assert got is not None and got == want
    signs = np.signbit(np.array(got).view(np.float64))
    assert signs[0].all() and not signs[1:].any()
    # two NaN payloads on one anti-diagonal are two arguments, not one
    nans = np.full((3, 3), 0.5)
    nans[0, 1], nans[1, 0] = np.array([0x7FF8000000000001, 0x7FF8000000000002]).view(float)
    ident, calls = counting(lambda x: x)
    assert expr_dsl._math_map(ident, nans).tobytes() == nans.tobytes()
    assert len(calls) == 9


def test_ln_of_a_line_with_a_non_positive_value_declines():
    I, J = np.arange(1.0, 9)[:, None], np.arange(1.0, 9)[None, :]
    for expr in ("ln(i+j-5)", "ln(i-j+3)", "(i+j-5)^0.5"):
        block = compile_block(parse(expr))
        assert block(I, J) is None, expr
        assert block(I + 8, J) is not None, expr
    assert_sections_agree(expr_spec("ln(i+j-5)"), [2, 4, 8])


def test_a_block_that_overflows_is_mapped_in_one_pass():
    # 2^(i*j), constant along no line, overflows from i*j = 1024 on: each
    # cell is mapped once, the overflowing ones to inf as in the scalar path
    I, J = np.arange(1.0, 65)[:, None], np.arange(1.0, 65)[None, :]
    pow_, calls = counting(math.pow)
    with np.errstate(over="ignore"):  # as compile_block maps it
        got = expr_dsl._math_map(pow_, 2.0, I * J)
        want = cell_map(expr_dsl._pow, 2.0, I * J)
    assert len(calls) == 64 * 64
    assert np.isinf(want).any() and got.tobytes() == want.tobytes()


def test_overflow_saturates_over_the_line_only(monkeypatch):
    # 1/2^(i+j) overflows past i + j = 1023: the map goes on past the
    # overflowing value, over the 1023 values of one line, not the
    # 512 * 512 cells
    spec = load_matrix_file(SPECS / "geometric.json")
    pow_, calls = counting(math.pow)
    monkeypatch.setattr(math, "pow", pow_)
    by_block = truncate(spec, 512, 512).data
    assert len(calls) == 512 + 512 - 1
    monkeypatch.undo()
    assert by_block.tobytes() == truncate(scalar(spec), 512, 512).data.tobytes()
    assert by_block[-1, -1] == 0.0


# probe-shaped reads, as Lines makes them: R probe rows of A (axis 0) or
# columns of B (axis 1) by C cells along the line, far from index 1; each
# formula's edge (overflow from, or domain error up to, where the argument
# is s) lies at a drawn cell, within the block or next to it
PROBE_ARGS = {"i+j": lambda i, j: i + j, "i-j": lambda i, j: i - j,
              "j-i": lambda i, j: j - i, "i*j": lambda i, j: i * j}
PROBE_FORMULAS = ("1.02/({a}+0.37)^1.6",
                  "2^({a}-{s}+1024)",      # inf from a = s on
                  "exp({a}-{s}+710)",      # inf from a = s on
                  "ln({a}-{s})",           # an error up to a = s
                  "({a}-{s})^0.5 + 0.9^({a}/1000)")  # an error below a = s


@given(st.sampled_from(PROBE_FORMULAS), st.sampled_from(sorted(PROBE_ARGS)),
       st.integers(1, 9), st.integers(1, 300), st.integers(1, 20000), st.integers(1, 20000),
       st.sampled_from((0, 1)), st.data())
def test_probe_reads_are_the_scalar_bits(template, arg, R, C, first_probe, first_term,
                                         axis, data):
    probe, along = np.arange(first_probe, first_probe + R), np.arange(first_term, first_term + C)
    rows, cols = (probe, along) if axis == 0 else (along, probe)
    edge_i = int(rows[0]) + data.draw(st.integers(-1, len(rows)))
    edge_j = int(cols[0]) + data.draw(st.integers(-1, len(cols)))
    ast = parse(template.format(a=f"({arg})", s=f"({PROBE_ARGS[arg](edge_i, edge_j)})"))
    got = compile_block(ast)(rows[:, None].astype(float), cols[None, :].astype(float))
    try:
        want = np.array([[eval_ast(ast, i=i, j=j) for j in cols.tolist()] for i in rows.tolist()])
    except InfmatError:
        assert got is None
    else:
        assert got is not None
        got = np.broadcast_to(got, want.shape)
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
