import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import gram_schmidt_rows, triple_loop_product

from infmat import bases_orth
from infmat.algebra import matmul
from infmat.bases_orth import (OrthogonalRows, orthogonalize,
                               transformation_matrix, transition_matrix)
from infmat.errors import (DependentRowsError, GramConvergenceError,
                           OracleValueError)
from infmat.matrix_core import (DecayCertificate, DenseMatrix, INFINITE, Lines,
                                MatrixSpec, TruncationSchedule, entrywise_spec,
                                finite_support_spec, transpose, truncate)
from infmat.series import ConvergencePolicy, sum_series
from infmat.specio import family_from_obj, load_family_file, matrix_from_obj

SPECS = Path(__file__).resolve().parent.parent / "specs"

SCHED = TruncationSchedule(8, 2, 64)


def standard_basis():
    # column i holds vector i, row j its j-th coordinate
    return MatrixSpec(INFINITE, INFINITE, lambda j, i: 1.0 if j == i else 0.0)


# --- orthogonalization --------------------------------------------------------

def test_orthogonalize_worked_example():
    rep = orthogonalize(DenseMatrix([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]]))
    assert rep.gram.tolist() == [[2.0, 1.0], [1.0, 2.0]]
    # single elimination step: row2 <- row2 - 0.5 row1
    assert rep.G.tolist() == [[2.0, 1.0], [0.0, 1.5]]
    assert rep.A_prime.tolist() == [[1.0, 1.0, 0.0], [-0.5, 0.5, 1.0]]
    d = np.dot(rep.A_prime.data[0], rep.A_prime.data[1])
    assert abs(d) <= 1e-15
    assert rep.max_offdiag_dot <= 1e-15


def test_orthogonalize_already_orthogonal_rows():
    a = DenseMatrix([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
    rep = orthogonalize(a)
    assert rep.A_prime.tolist() == a.tolist()
    assert rep.G.tolist() == [[1.0, 0.0], [0.0, 4.0]]


def test_orthogonalize_dependent_rows_named():
    with pytest.raises(DependentRowsError) as err:
        orthogonalize(DenseMatrix([[1.0, 2.0], [2.0, 4.0]]))
    assert err.value.row == 2


def test_orthogonalize_matches_gram_schmidt():
    rng = np.random.default_rng(0)
    for _ in range(100):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(m, 11))
        a = rng.uniform(-2, 2, (m, n))
        rep = orthogonalize(DenseMatrix(a))
        want = gram_schmidt_rows(a)
        assert np.max(np.abs(rep.A_prime.data - want)) <= 1e-9
        # G is upper triangular with exact zeros below the diagonal
        assert np.array_equal(np.tril(rep.G.data, -1), np.zeros((m, m)))
        prods = rep.A_prime.data @ rep.A_prime.data.T
        off = prods - np.diag(np.diag(prods))
        assert np.max(np.abs(off)) <= 1e-8 * max(1.0, np.max(np.diag(prods)))


def test_orthogonalize_row_space_preserved():
    rng = np.random.default_rng(1)
    for _ in range(30):
        m, n = int(rng.integers(1, 6)), 8
        a = rng.uniform(-1, 1, (m, n))
        rep = orthogonalize(DenseMatrix(a))
        # every original row solves as a combination of transformed rows
        sol, residuals, *_ = np.linalg.lstsq(rep.A_prime.data.T, a.T, rcond=None)
        recon = rep.A_prime.data.T @ sol
        assert np.max(np.abs(recon - a.T)) <= 1e-9


def test_orthogonalize_geometric_rows():
    spec = MatrixSpec(2, INFINITE,
                      lambda i, j: (2.0 if i == 1 else 3.0) ** -j)
    rep = orthogonalize(spec)
    assert rep.gram.at(1, 1) == pytest.approx(1.0 / 3.0, abs=1e-10)
    assert rep.gram.at(1, 2) == pytest.approx(1.0 / 5.0, abs=1e-10)
    assert rep.gram.at(2, 2) == pytest.approx(1.0 / 8.0, abs=1e-10)
    assert isinstance(rep.A_prime, OrthogonalRows)
    # second transformed row is r2 - (3/5) r1
    coeff = rep.A_prime.coefficients
    assert coeff[1, 0] == pytest.approx(-3.0 / 5.0, abs=1e-9)
    # its inner product with row 1 vanishes as a checked series
    resid = sum_series(lambda j: spec.entry(1, j) * rep.A_prime.entry(2, j))
    assert abs(resid.estimate) <= 1e-9
    assert rep.max_offdiag_dot <= 1e-8 * (1.0 / 3.0)


def test_orthogonalize_certified_rows_report():
    spec = entrywise_spec(lambda i, j: 0.5 ** (i + j), rows=2,
                          decay=DecayCertificate(1.0, 0.5))
    with pytest.raises(DependentRowsError):
        # geometric rows are proportional: dependent
        orthogonalize(spec)


def test_orthogonalize_negative_pivot_is_a_dependent_row():
    # row 2 is twice row 1; the Gram series' stopping error leaves the
    # second pivot slightly negative, a squared residual norm below 0
    spec = matrix_from_obj({"rows": 2, "cols": "inf", "kind": "expr", "expr": "i/(j+1)^1.5"})
    with pytest.raises(DependentRowsError, match="zero pivot at row 2") as err:
        orthogonalize(spec)
    assert err.value.row == 2


def test_orthogonalize_divergent_gram_entry():
    spec = MatrixSpec(2, INFINITE, lambda i, j: 1.0)
    with pytest.raises(GramConvergenceError) as err:
        orthogonalize(spec, ConvergencePolicy(tol=1e-4))
    assert err.value.pair == (1, 1)


def test_orthogonal_rows_section_matches_entries():
    spec = MatrixSpec(2, INFINITE,
                      lambda i, j: (2.0 if i == 1 else 3.0) ** -j)
    rep = orthogonalize(spec)
    sec = rep.A_prime.section(5)
    for p in (1, 2):
        for j in (1, 3, 5):
            assert sec.at(p, j) == pytest.approx(rep.A_prime.entry(p, j), abs=1e-14)


@pytest.mark.parametrize("p,j", [(0, 1), (-1, 1), (3, 1), (1, 0), (2, -1)])
def test_orthogonal_rows_have_no_entry_outside_them(p, j):
    # coefficients[-1] is row 2's, and the formula reads j = 0 as a column
    spec = matrix_from_obj({"kind": "expr", "expr": "1/(i+j)^2", "rows": 2, "cols": "inf"})
    rows = orthogonalize(spec).A_prime
    with pytest.raises(IndexError):
        rows.entry(p, j)
    assert rows.entry(2, 1) == pytest.approx(rows.section(1).at(2, 1), abs=1e-15)


@st.composite
def gram_rows(draw):
    """Up to 8 independent rows over infinitely many columns: an ``expr``
    spec with its block oracle, a ``banded`` or ``finite-support`` one, or
    dense rows read through a scalar oracle alone, each with or without a
    decay certificate."""
    m = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["expr", "banded", "finite-support", "dense"]))
    # a row's leading zeros would read as a quiet window and stop its sum
    c = draw(st.floats(0.05, 0.45))
    r = draw(st.sampled_from([None, 0.6, 0.75, 0.9]))
    # the diagonal keeps the rows independent; the rest couples them
    if r is None:
        p = draw(st.floats(1.5, 3.0))
        formula = f"delta(i,j) + {c}*(0-1)^(i*j)/(i+2*j)^{p}"
    else:
        formula = f"{r}^(i+j)*(delta(i,j) + {c}*(0-1)^(i*j)/(i+j))"
    obj = {"rows": m, "cols": "inf", "kind": "expr", "expr": formula}
    if kind == "banded":
        obj = dict(obj, kind="banded", bands={str(d): formula for d in range(-2, 3)})
    elif kind == "finite-support":
        obj = dict(obj, support={"rows": m, "cols": m + draw(st.integers(0, 5))})
    if r is not None:
        obj["decay"] = {"kind": "geometric", "C": 1 + c, "r": r}
    spec = matrix_from_obj(obj)
    if kind == "dense":
        spec = MatrixSpec(spec.rows, spec.cols, spec.entry, decay=spec.decay)
    return spec


@given(gram_rows())
def test_gram_entries_are_the_product_entries(spec):
    # the Gram block's inner products are the entries of A Aᵀ, bit for bit
    policy = ConvergencePolicy(max_terms=20000)
    gram = orthogonalize(spec, policy).gram.data
    reports = matmul(spec, transpose(spec), policy).per_entry_reports
    m = spec.rows
    assert set(reports) == {(p, q) for p in range(1, m + 1) for q in range(1, m + 1)}
    want = [[reports[(p, q)].estimate for q in range(1, m + 1)] for p in range(1, m + 1)]
    assert gram.view(np.int64).tolist() == np.array(want).view(np.int64).tolist()


@given(gram_rows())
def test_transformed_rows_are_a_spec_whose_block_reads_its_entries(spec):
    # A' is the product coefficients @ rows summed in ascending order, the
    # naive triple loop, through entry, section, the block that truncate
    # reads and the block that Lines reads, bit for bit
    rows = orthogonalize(spec, ConvergencePolicy(max_terms=20000)).A_prime
    m, n = spec.rows, 12
    source = np.array([[spec.entry(t, j) for j in range(1, n + 1)] for t in range(1, m + 1)])
    want = triple_loop_product(rows.coefficients, source)
    got = np.array([[rows.entry(p, j) for j in range(1, n + 1)] for p in range(1, m + 1)])
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
    for section in (rows.section(n), truncate(rows, m, n)):
        assert section.data.view(np.int64).tolist() == want.view(np.int64).tolist()
    for order in (range(1, m + 1), range(m, 0, -1)):
        read = Lines(rows, order)(n)
        assert (read is None) == (spec.block is None or spec.structure != "expr")
        if read is not None:
            picked = want[np.array(order) - 1]
            assert read.view(np.int64).tolist() == picked.view(np.int64).tolist()


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64).tolist()


def test_finite_rows_are_the_infinite_ones_with_the_same_entries():
    # a DenseMatrix and the same entries as rows of infinitely many columns
    # of finite support take one path: G, gram, A' and the check, bit for bit
    rng = np.random.default_rng(28)
    for _ in range(100):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(m, 12))
        a = rng.uniform(-2, 2, (m, n))
        finite = orthogonalize(DenseMatrix(a))
        infinite = orthogonalize(finite_support_spec(lambda i, j, a=a: a[i - 1, j - 1],
                                                     m, n, m, INFINITE))
        assert isinstance(finite.A_prime, DenseMatrix)
        assert _bits(finite.A_prime.data) == _bits(infinite.A_prime.section(n).data)
        assert _bits(finite.G.data) == _bits(infinite.G.data)
        assert _bits(finite.gram.data) == _bits(infinite.gram.data)
        assert _bits(finite.max_offdiag_dot) == _bits(infinite.max_offdiag_dot)


def test_gram_block_whose_row_sums_overflow_is_an_oracle_error():
    # Gram entries 1e308, 0.9e308 and 0.97e308 are finite; a row sum is not
    with pytest.raises(OracleValueError, match="2x2 array overflows"):
        orthogonalize(DenseMatrix([[1e154, 0.0], [0.9e154, 0.4e154]]))


# --- transition matrices --------------------------------------------------------

def test_transition_worked_pair():
    B = transpose(DenseMatrix([[1.0, 0.0], [0.0, 1.0]]))
    Bp = transpose(DenseMatrix([[1.0, 1.0], [1.0, -1.0]]))
    res = transition_matrix(B, Bp, 2)
    assert res.matrix.tolist() == [[1.0, 1.0], [1.0, -1.0]]
    assert set(res.column_status.values()) == {"converged"}


def test_transition_same_basis_is_identity():
    rng = np.random.default_rng(2)
    v = rng.uniform(-2, 2, (3, 3)) + 4 * np.eye(3)
    B = transpose(DenseMatrix(v))
    res = transition_matrix(B, B, 3)
    assert np.max(np.abs(res.matrix.data - np.eye(3))) <= 1e-12


def test_transition_inverse_relation():
    rng = np.random.default_rng(3)
    for _ in range(20):
        v = rng.uniform(-2, 2, (4, 4)) + 5 * np.eye(4)
        w = rng.uniform(-2, 2, (4, 4)) + 5 * np.eye(4)
        B = transpose(DenseMatrix(v))
        Bp = transpose(DenseMatrix(w))
        ab = transition_matrix(B, Bp, 4).matrix.data
        ba = transition_matrix(Bp, B, 4).matrix.data
        assert np.max(np.abs(ab @ ba - np.eye(4))) <= 1e-8


def test_transition_of_a_scaled_basis_is_solved():
    # the pivot threshold scales with the basis: 1e-12 I is no singular basis
    B = family_from_obj({"count": 3, "vectors": {"kind": "dense",
                                                "data": (1e-12 * np.eye(3)).tolist()}})
    identity = family_from_obj({"count": 3, "vectors": {"kind": "dense",
                                                       "data": np.eye(3).tolist()}})
    res = transition_matrix(B, identity, 3)
    assert res.matrix.tolist() == (1e12 * np.eye(3)).tolist()
    assert set(res.column_status.values()) == {"converged"}


def shifted_basis():
    return MatrixSpec(INFINITE, INFINITE, lambda j, i: 1.0 if j in (i, i + 1) else 0.0)


def test_transition_shifted_standard_family():
    res = transition_matrix(standard_basis(), shifted_basis(), 6, SCHED)
    m = res.matrix.data
    assert np.array_equal(np.diag(m), np.ones(6))
    assert np.array_equal(np.diag(m, -1), np.ones(5))
    assert np.max(np.abs(np.triu(m, 1))) == 0.0
    assert set(res.column_status.values()) == {"converged"}


def test_transition_reads_each_basis_coordinate_once():
    calls = Counter()

    def coordinate(i, j):
        calls[(i, j)] += 1
        return 1.0 if j == i else 0.0

    standard = MatrixSpec(INFINITE, INFINITE, lambda j, i: coordinate(i, j))
    res = transition_matrix(standard, shifted_basis(), 6, SCHED)
    assert set(res.column_status.values()) == {"converged"}
    # every column visits the sizes 8..64, all cut from one 64-by-64 section
    assert set(calls) == {(i, j) for i in range(1, 65) for j in range(1, 65)}
    assert sum(calls.values()) == 4096


def test_transition_reads_each_new_basis_coordinate_once():
    calls = Counter()

    def coordinate(i, j):
        calls[(i, j)] += 1
        return 1.0 if j in (i, i + 1) else 0.0

    shifted = MatrixSpec(INFINITE, INFINITE, lambda j, i: coordinate(i, j))
    res = transition_matrix(standard_basis(), shifted, 6, SCHED)
    assert set(res.column_status.values()) == {"converged"}
    # the 6 wanted vectors, each to the largest size 64, each coordinate once
    assert set(calls) == {(i, j) for i in range(1, 7) for j in range(1, 65)}
    assert max(calls.values()) == 1


def test_transition_eliminates_each_section_once(monkeypatch):
    sizes = []

    def counting_solve(a, b, pivot_tol=0.0, _solve=bases_orth.gauss_solve):
        sizes.append(a.shape[0])
        return _solve(a, b, pivot_tol)

    monkeypatch.setattr(bases_orth, "gauss_solve", counting_solve)
    res = transition_matrix(load_family_file(SPECS / "basis_shifted.json"),
                            load_family_file(SPECS / "basis_standard.json"), 6, SCHED)
    assert set(res.column_status.values()) == {"converged"}
    # all 6 columns at each size 8..64 from one elimination of that section
    assert sizes == [8, 16, 32, 64]


@pytest.mark.parametrize("old", [False, True])
def test_transition_non_finite_coordinate_names_its_cell(old):
    # coordinate 3 of vector 2 is nan, in the old basis or in the new one
    def coordinate(j, i):
        return math.nan if (i, j) == (2, 3) else float(j == i)

    family = MatrixSpec(INFINITE, INFINITE, coordinate)
    args = (family, standard_basis()) if old else (standard_basis(), family)
    with pytest.raises(OracleValueError) as err:
        transition_matrix(*args, 4, SCHED)
    assert err.value.index == (3, 2)


def test_transition_whose_row_sums_overflow_is_an_oracle_error():
    huge = transpose(DenseMatrix([[1e308, 1e308, 0.0], [1e308, -1e308, 0.0], [0.0, 0.0, 1.0]]))
    with pytest.raises(OracleValueError, match="3x3 array overflows"):
        transition_matrix(huge, DenseMatrix(np.eye(3)), 3)


def test_transformation_matrix_identity_map():
    # column i of the map's matrix holds the image of domain vector i
    tm = transformation_matrix(DenseMatrix(np.eye(3)), 3, 3)
    assert np.array_equal(tm.data, np.eye(3))


def test_transformation_matrix_monomial_derivative():
    def image(i):
        # derivative of x^(i-1) expressed in the monomial basis
        return [float(i - 1) if j == i - 1 else 0.0 for j in range(1, 5)]

    tm = transformation_matrix(transpose(DenseMatrix([image(i) for i in range(1, 5)])),
                               4, 4)
    want = np.zeros((4, 4))
    for i in range(2, 5):
        want[i - 2, i - 1] = i - 1
    assert np.array_equal(tm.data, want)


def test_transformation_matrix_zero_map():
    tm = transformation_matrix(DenseMatrix(np.zeros((2, 3))), 3, 2)
    assert np.array_equal(tm.data, np.zeros((2, 3)))


def test_transformation_matrix_with_target_basis():
    target = DenseMatrix(2.0 * np.eye(3))
    tm = transformation_matrix(DenseMatrix(np.eye(3)), 3, 3, target_basis=target)
    assert np.max(np.abs(tm.data - 0.5 * np.eye(3))) <= 1e-12


def _skew_target():
    return transpose(DenseMatrix([[2.0, 1.0, 0.0], [0.5, 3.0, 1.0], [0.0, 1.0, 4.0]]))


def _skew_images():
    return transpose(DenseMatrix([[1.0, 0.25, 2.0], [0.5, 1.0, -1.0], [3.0, 0.0, 1.0]]))


def test_transformation_matrix_asks_only_for_domain_images():
    images = _skew_images()
    calls = []

    def partial(j, i):
        calls.append(i)
        if i > 2:
            raise IndexError(f"the map has a 2-dimensional domain, asked for {i}")
        return images.entry(j, i)

    tm = transformation_matrix(MatrixSpec(3, 3, partial), 2, 3,
                               target_basis=_skew_target())
    assert tm.data.shape == (3, 2)
    # the 3 coordinates of images 1 and 2, each read once
    assert sorted(calls) == [1, 1, 1, 2, 2, 2]


def test_transformation_matrix_rectangular_columns_are_the_square_ones():
    # columns 1..2 of the 3-by-3 matrix solve the same systems bit for bit
    target = _skew_target()
    tm = transformation_matrix(_skew_images(), 2, 3, target_basis=target)
    square = transformation_matrix(_skew_images(), 3, 3, target_basis=target)
    assert tm.data.tobytes() == np.ascontiguousarray(square.data[:, :2]).tobytes()
