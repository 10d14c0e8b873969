import math

import numpy as np
import pytest

from oracles import triple_loop_product

from infmat.algebra import (add, matmul, matvec, scale, shift_diagonal,
                            trace_partial)
from infmat.errors import ExtentMismatchError, OracleValueError
from infmat.matrix_core import (DecayCertificate, DenseMatrix, INFINITE,
                                MatrixSpec, banded_spec, diagonal_spec, entrywise_spec,
                                finite_support_spec, identity_spec, transpose, truncate,
                                zero_spec)
from infmat.series import CONVERGED, ConvergencePolicy, ConvergenceReport
from infmat.specio import matrix_from_obj


def geometric_spec(scale_=1.0, r=0.5):
    return entrywise_spec(lambda i, j: scale_ * r ** (i + j),
                          decay=DecayCertificate(max(scale_, 1e-6), r))


def hashed_certified(seed, C=1.0, r=0.5):
    """Deterministic pseudo-random entries honouring |a_ij| <= C r^(i+j)."""
    def h(i, j):
        return math.sin(seed + i * 12.9898 + j * 78.233)

    return entrywise_spec(lambda i, j: C * r ** (i + j) * h(i, j),
                          decay=DecayCertificate(C, r))


# --- add / scale -----------------------------------------------------------

def test_add_dense_values():
    a = DenseMatrix([[1, 2], [3, 4]])
    b = DenseMatrix([[4, 3], [2, 1]])
    assert truncate(add(a, b), 2, 2).tolist() == [[5, 5], [5, 5]]


def test_add_zero_is_identity_on_samples():
    a = entrywise_spec(lambda i, j: math.cos(i * j))
    s = add(a, zero_spec())
    for i, j in [(1, 1), (4, 9), (17, 2)]:
        assert s.entry(i, j) == a.entry(i, j)


def test_add_additive_inverse():
    a = entrywise_spec(lambda i, j: 3.0 * i - j)
    z = add(a, scale(-1.0, a))
    for i, j in [(1, 1), (5, 3), (2, 8)]:
        assert z.entry(i, j) == 0.0


def test_add_extent_mismatch():
    with pytest.raises(ExtentMismatchError):
        add(identity_spec(3), identity_spec())


def test_scale_values_and_certificate():
    a = geometric_spec()
    doubled = scale(2.0, a)
    assert doubled.entry(2, 3) == 2.0 * a.entry(2, 3)
    assert doubled.decay.C == 2.0 * a.decay.C
    assert truncate(scale(2.0, DenseMatrix([[1, 2], [3, 4]])), 2, 2).tolist() \
        == [[2, 4], [6, 8]]
    assert scale(0.0, a).decay is None
    assert scale(1.0, a).entry(3, 3) == a.entry(3, 3)


def test_structure_join_banded():
    a = banded_spec({0: lambda i, j: 1.0})
    b = banded_spec({1: lambda i, j: 1.0, -1: lambda i, j: 1.0})
    joined = add(a, b)
    assert joined.structure == "banded" and joined.bandwidth == 1
    d = add(diagonal_spec(lambda i: 1.0), diagonal_spec(lambda i: 2.0))
    assert (d.structure, d.bandwidth) == ("banded", 0)


# --- matmul ----------------------------------------------------------------

def test_matmul_geometric_entry_value():
    prod = matmul(geometric_spec(), geometric_spec())
    # independent check: raw partial sums of the entry series at high depth
    brute = sum(2.0 ** -(1 + l) * 2.0 ** -(l + 1) for l in range(1, 200))
    assert prod.matrix.entry(1, 1) == pytest.approx(brute, abs=1e-9)
    assert prod.matrix.entry(1, 1) == pytest.approx(1.0 / 12.0, abs=1e-9)
    assert prod.overall_status == "converged"
    rep = prod.entry_report(1, 1)
    assert rep.certified and rep.status == CONVERGED


def test_matmul_identity_is_neutral():
    a = geometric_spec()
    prod = matmul(identity_spec(), a)
    for i, j in [(1, 1), (2, 5), (7, 3)]:
        assert prod.matrix.entry(i, j) == a.entry(i, j)
    assert prod.overall_status == "converged"


def test_matmul_all_ones_fails():
    ones = entrywise_spec(lambda i, j: 1.0)
    prod = matmul(ones, ones, ConvergencePolicy(tol=1e-4))
    assert prod.overall_status == "failed"
    assert all(r.status == "diverged" for r in prod.per_entry_reports.values())


def test_matmul_finite_matches_triple_loop_exactly():
    rng = np.random.default_rng(3)
    for _ in range(25):
        m, inner, n = rng.integers(1, 7, size=3)
        a = rng.uniform(-2, 2, (m, inner))
        b = rng.uniform(-2, 2, (inner, n))
        got = truncate(matmul(DenseMatrix(a), DenseMatrix(b)).matrix, m, n)
        assert np.array_equal(got.data, triple_loop_product(a, b))


def test_exact_entry_that_overflows_gets_the_series_verdict():
    # the partial sums 1e308, inf: diverged at the second term, as the series
    # rule reports a sum that turns non-finite; the product fails, and a
    # section through the entry raises as on any non-finite value
    prod = matmul(DenseMatrix([[1e308, 1e308], [1.0, 1.0]]), DenseMatrix([[1.0], [1.0]]))
    assert prod.overall_status == "failed"
    assert prod.per_entry_reports[(1, 1)] == ConvergenceReport(math.inf, "diverged", 2, math.inf)
    assert prod.per_entry_reports[(2, 1)] == ConvergenceReport(2.0, "converged", 2, 0.0)
    with pytest.raises(OracleValueError):
        truncate(prod.matrix, 2, 1)
    # a one-term span that overflows: diagonal 2^(150 i) squared at i = 4
    big = matrix_from_obj({"rows": "inf", "cols": "inf", "kind": "banded",
                           "bands": {"0": "2^(150*i)"}})
    prod = matmul(big, big)
    assert prod.overall_status == "failed"
    assert prod.entry_report(4, 4) == ConvergenceReport(math.inf, "diverged", 1, math.inf)
    assert prod.entry_report(3, 3) == ConvergenceReport(2.0 ** 900, "converged", 1, 0.0)


def test_finite_product_is_the_infinite_one_with_the_same_entries():
    # a DenseMatrix and the same entries as an infinite finite-support spec
    # take one path: the same section, bit for bit, and the same reports
    rng = np.random.default_rng(28)
    for _ in range(100):
        m, inner, n = rng.integers(1, 5), rng.integers(1, 12), rng.integers(1, 5)
        a, b = rng.uniform(-2, 2, (m, inner)), rng.uniform(-2, 2, (inner, n))
        finite = matmul(DenseMatrix(a), DenseMatrix(b))
        infinite = matmul(finite_support_spec(lambda i, j, a=a: a[i - 1, j - 1], m, inner),
                          finite_support_spec(lambda i, j, b=b: b[i - 1, j - 1], inner, n))
        got, want = (truncate(p.matrix, m, n).data for p in (finite, infinite))
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
        assert got.view(np.int64).tolist() == triple_loop_product(a, b).view(np.int64).tolist()
        assert finite.per_entry_reports == {
            (i, j): infinite.per_entry_reports[(i, j)]
            for i in range(1, m + 1) for j in range(1, n + 1)}
        assert finite.overall_status == infinite.overall_status == "converged"


def test_matmul_extent_mismatch():
    with pytest.raises(ExtentMismatchError):
        matmul(identity_spec(3), identity_spec(4))


def test_matmul_transpose_antihomomorphism():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = rng.uniform(-1, 1, (4, 5))
        b = rng.uniform(-1, 1, (5, 3))
        ab_t = truncate(transpose(matmul(DenseMatrix(a), DenseMatrix(b)).matrix), 3, 4)
        bt_at = truncate(matmul(DenseMatrix(b.T), DenseMatrix(a.T)).matrix, 3, 4)
        assert np.max(np.abs(ab_t.data - bt_at.data)) <= 1e-12


def test_matmul_tolerance_consistency_for_certified():
    a, b = hashed_certified(1.0), hashed_certified(2.0)
    tight = matmul(a, b, ConvergencePolicy(tol=1e-12))
    loose = matmul(a, b, ConvergencePolicy(tol=1e-10))
    for i, j in [(1, 1), (2, 4), (6, 6)]:
        assert loose.matrix.entry(i, j) == pytest.approx(
            tight.matrix.entry(i, j), abs=1e-8)


def test_matmul_banded_times_banded_is_exact_banded():
    a = banded_spec({1: lambda i, j: float(j)})
    prod = matmul(a, a)
    assert prod.matrix.structure == "banded" and prod.matrix.bandwidth == 2
    # second derivative on the monomial coefficient ladder
    assert prod.matrix.entry(1, 3) == 6.0
    assert prod.matrix.entry(1, 2) == 0.0
    assert prod.overall_status == "converged"


def test_product_certificate_derivation():
    prod = matmul(geometric_spec(), geometric_spec())
    # a finite inner sum is a partial sum of the bounding series
    cert_a = DecayCertificate(1.0, 0.5)
    finite = matmul(entrywise_spec(lambda i, j: 0.5 ** (i + j), INFINITE, 5, cert_a),
                    entrywise_spec(lambda i, j: 0.5 ** (i + j), 5, INFINITE, cert_a))
    for product in (prod, finite):
        cert = product.matrix.decay
        assert cert is not None
        for i, j in [(1, 1), (3, 2), (5, 5)]:
            assert abs(product.matrix.entry(i, j)) <= cert.bound(i, j) + 1e-15


def test_ring_axioms_on_truncations_sample():
    a, b, c = (hashed_certified(s, C=1.0, r=0.4) for s in (1.0, 2.0, 3.0))
    policy = ConvergencePolicy()
    ab_c = matmul(matmul(a, b, policy).matrix, c, policy).matrix
    a_bc = matmul(a, matmul(b, c, policy).matrix, policy).matrix
    left = truncate(ab_c, 5, 5).data
    right = truncate(a_bc, 5, 5).data
    assert np.max(np.abs(left - right)) <= 1e-9


# --- matvec ----------------------------------------------------------------

def test_derivative_operator_fixes_exponential_coefficients():
    # position j holds the coefficient of x^j in exp, so differentiation
    # maps the sequence to itself: (i+1) * 1/(i+1)! = 1/i!
    deriv = banded_spec({1: lambda i, j: float(j)})
    taylor = MatrixSpec(INFINITE, 1, lambda j, _: 1.0 / math.factorial(j))
    out, reports = matvec(deriv, taylor)
    for i in range(1, 21):
        assert out.entry(i, 1) == pytest.approx(taylor.entry(i, 1), abs=1e-12)
    assert all(r.converged for r in reports.values())


def test_matvec_identity_and_zero():
    x = MatrixSpec(INFINITE, 1, lambda j, _: 1.0 / j)
    out, _ = matvec(identity_spec(), x)
    for i in (1, 4, 9):
        assert out.entry(i, 1) == x.entry(i, 1)
    out0, _ = matvec(zero_spec(), x)
    assert out0.entry(3, 1) == 0.0


def test_matvec_finite():
    a = DenseMatrix([[2, 0], [0, 3]])
    out, _ = matvec(a, DenseMatrix([[1], [1]]))
    assert truncate(out, 2, 1).tolist() == [[2.0], [3.0]]


def _counted(fn):
    calls = []

    def entry(*index):
        calls.append(index)
        return fn(*index)

    return entry, calls


def test_product_and_matvec_entries_are_read_once():
    a_entry, a_calls = _counted(lambda i, j: 0.5 ** (i + j))
    product = matmul(entrywise_spec(a_entry), geometric_spec())
    probed = len(a_calls)
    assert product.matrix.entry(2, 3) == product.entry_report(2, 3).estimate
    assert len(a_calls) == probed  # inside the probe: no new reads
    first = product.matrix.entry(11, 2)
    grown = len(a_calls)
    assert grown > probed
    assert product.matrix.entry(11, 2) == first
    assert product.entry_report(11, 2).estimate == first
    assert len(a_calls) == grown

    x_entry, x_calls = _counted(lambda j: 1.0 / j ** 2)
    out, reports = matvec(entrywise_spec(a_entry),
                          MatrixSpec(INFINITE, 1, lambda j, _: x_entry(j)))
    probed = len(x_calls)
    assert out.entry(3, 1) == reports[3].estimate
    value = out.entry(12, 1)
    grown = len(x_calls)
    assert out.entry(12, 1) == value and len(x_calls) == grown > probed


def test_vector_accessors():
    v = DenseMatrix([[1.0], [2.0], [3.0]])
    assert v.at(2, 1) == 2.0
    with pytest.raises(IndexError):
        v.at(4, 1)
    with pytest.raises(IndexError):
        v.at(0, 1)


@pytest.mark.parametrize("i,j", [(0, 1), (-1, 2), (4, 1), (5, 1), (1, 0), (2, -3)])
def test_lazy_product_reports_no_entry_outside_it(i, j):
    # 3 rows over an infinite inner index: a line index of -1 would wrap to
    # the last probe row, and rows past 3 would read A's formula past A
    hilbert = {"kind": "expr", "expr": "1/(i+j)^2", "rows": "inf", "cols": "inf"}
    A = matrix_from_obj(dict(hilbert, rows=3))
    product = matmul(A, matrix_from_obj(hilbert))
    with pytest.raises(IndexError):
        product.entry_report(i, j)
    assert product.entry_report(3, 1) == product.per_entry_reports[(3, 1)]
    assert product.entry_report(3, 9).estimate == product.matrix.entry(3, 9)


def test_finite_product_reports_no_entry_outside_it():
    product = matmul(DenseMatrix([[1.0, 2.0]]), DenseMatrix([[3.0], [4.0]]))
    assert product.entry_report(1, 1).estimate == 11.0
    for i, j in [(0, 1), (2, 1), (1, 2)]:
        with pytest.raises(IndexError):
            product.entry_report(i, j)

# --- trace -----------------------------------------------------------------

def test_trace_finite_identity():
    rep = trace_partial(identity_spec(5))
    assert rep.converged and rep.estimate == 5.0


def test_trace_geometric_diagonal():
    rep = trace_partial(diagonal_spec(lambda i: 2.0 ** -i))
    assert rep.converged
    assert rep.estimate == pytest.approx(1.0, abs=1e-9)


def test_trace_infinite_identity_does_not_converge():
    rep = trace_partial(identity_spec(), ConvergencePolicy(max_terms=5000))
    assert rep.status in ("diverged", "undetermined")


def test_trace_requires_square():
    with pytest.raises(ExtentMismatchError):
        trace_partial(entrywise_spec(lambda i, j: 1.0, rows=3, cols=INFINITE))


def test_shift_diagonal():
    shifted = shift_diagonal(identity_spec(), -0.25)
    assert shifted.entry(3, 3) == 0.75
    assert shifted.entry(1, 2) == 0.0
    assert shifted.structure == "banded"


def test_matmul_infinite_outer_finite_inner_is_exact():
    from infmat.matrix_core import INFINITE as INF
    left = entrywise_spec(lambda i, j: 2.0 ** -(i + j), rows=INF, cols=2)
    right = entrywise_spec(lambda i, j: 3.0 ** -(i + j), rows=2, cols=INF)
    prod = matmul(left, right)
    assert prod.overall_status == "converged"
    want = sum(2.0 ** -(3 + l) * 3.0 ** -(l + 4) for l in (1, 2))
    assert prod.matrix.entry(3, 4) == pytest.approx(want, abs=1e-15)
    rep = prod.entry_report(3, 4)
    assert rep.converged and rep.last_delta == 0.0
