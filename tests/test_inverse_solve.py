import contextlib
import io
import json
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import counting, fraction_rank, section_cells

from infmat import _dense
from infmat.cli import main
from infmat.determinant import det_infinite
from infmat.inverse_solve import _neumann_sum
from infmat.errors import (ExtentMismatchError, OracleValueError,
                           PreconditionError, SingularSystemError)
from infmat.inverse_solve import (check_compatibility, cramer_solve,
                                  neumann_inverse, rank_of, solve_via_inverse)
from infmat.matrix_core import (DecayCertificate, DenseMatrix, INFINITE,
                                MatrixSpec, TruncationSchedule, diagonal_spec,
                                entrywise_spec, identity_spec, truncate)
from infmat.series import ConvergencePolicy
from infmat.specio import matrix_from_obj, vector_from_obj
from infmat.spectral import find_eigenvalues

SCHED = TruncationSchedule(8, 2, 64)
LONG = TruncationSchedule(4, 2, 256)

# contractions I - A < 1: a dense expr spec and a tridiagonal one
CONTRACTIONS = [(lambda i, j: float(i == j) + 0.3 / (i + j + 1) ** 2.5, None),
                (lambda i, j: 1.0 if i == j else 0.25 * (abs(i - j) == 1), 1)]
# ranks that settle at 1 and at 3 well before the end of LONG
LOW_RANK = [(lambda i, j: 2.0 ** -(i + j), None),
            (lambda i, j: 1.0 / i if i == j <= 3 else 0.0, 0)]


def counted_spec(fn, bandwidth):
    """Infinite spec over ``fn`` counting oracle calls; banded when a
    bandwidth is given."""
    entry, counts = counting(fn)
    structure = "expr" if bandwidth is None else "banded"
    return MatrixSpec(INFINITE, INFINITE, entry, structure=structure,
                      bandwidth=bandwidth), counts


def assert_section_evaluated_once(counts, n, bandwidth):
    assert set(counts) == section_cells(n, bandwidth)
    assert max(counts.values()) == 1


def perturbed_identity():
    def entry(i, j):
        v = 1.0 if i == j else 0.0
        if i == 1 and j == 1:
            v = 1.5
        return v

    return MatrixSpec(INFINITE, INFINITE, entry, structure="banded", bandwidth=0)


def e1():
    return MatrixSpec(INFINITE, 1, lambda i, _: 1.0 if i == 1 else 0.0)


# --- inversion ---------------------------------------------------------------

def test_neumann_nilpotent_terminates_exactly():
    rep = neumann_inverse(DenseMatrix([[1.0, 0.5], [0.0, 1.0]]))
    assert rep.block_report(2, 2)[0].tolist() == [[1.0, -0.5], [0.0, 1.0]]
    assert rep.series_terms == 2
    assert rep.residual == 0.0


def test_neumann_identity_single_term():
    rep = neumann_inverse(DenseMatrix(np.eye(3)))
    assert rep.block_report(3, 3)[0].tolist() == np.eye(3).tolist()
    assert rep.series_terms == 1


def test_neumann_boundary_norm_rejected():
    with pytest.raises(PreconditionError) as err:
        neumann_inverse(DenseMatrix([[2.0, 0.0], [0.0, 2.0]]))
    assert err.value.measured == pytest.approx(1.0)


def old_neumann_sum(a, policy):
    """The Neumann sum as the one-power-per-step loop from ``I`` took it:
    each power ``p @ (I - a)``, starting from ``p = I``."""
    eye = np.eye(a.shape[0])
    x, total, power, quiet = eye - a, eye.copy(), eye, 0
    for k in range(1, policy.max_terms + 1):
        power = power @ x
        total += power
        norm = float(np.max(np.sum(np.abs(power), axis=1)))
        if norm == 0.0:
            return total, k
        quiet = quiet + 1 if norm <= policy.tol else 0
        if quiet >= policy.window:
            return total, k


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 12), st.floats(0.0, 0.95),
       st.sampled_from(["dense", "zeros", "triangular"]))
def test_neumann_sum_gives_the_bits_of_the_sum_from_the_identity(seed, n, norm, kind):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, (n, n))
    if kind == "zeros":  # exact zeros of both signs, and rows of them
        x = np.where(rng.uniform(size=(n, n)) < 0.5, x, rng.choice([0.0, -0.0], (n, n)))
        x[rng.integers(n)] = -0.0
    elif kind == "triangular":  # nilpotent: the sum ends at a zero power
        x = np.triu(x, 1)
    x *= norm / max(np.max(np.sum(np.abs(x), axis=1)), 1e-300)
    a = np.eye(n) - x
    policy = ConvergencePolicy()
    total, terms = _neumann_sum(a, policy)
    want, want_terms = old_neumann_sum(a, policy)
    assert terms == want_terms
    assert total.tobytes() == want.tobytes()


def test_neumann_random_contractions_residual():
    rng = np.random.default_rng(0)
    tol = ConvergencePolicy().tol
    for _ in range(60):
        n = int(rng.integers(1, 9))
        x = rng.uniform(-1, 1, (n, n))
        x *= 0.9 * rng.uniform(0.1, 1.0) / max(np.max(np.sum(np.abs(x), axis=1)), 1e-9)
        a = DenseMatrix(np.eye(n) - x)
        rep = neumann_inverse(a)
        assert rep.residual <= 100 * tol
        inverse = rep.block_report(n, n)[0]
        assert np.max(np.abs(inverse.data @ a.data - np.eye(n))) <= 1e-7


def test_neumann_infinite_certified():
    pert = entrywise_spec(lambda i, j: 0.3 * 2.0 ** -(i + j),
                          decay=DecayCertificate(0.3, 0.5))
    from infmat.algebra import add
    a = add(identity_spec(), pert)
    sched = TruncationSchedule(8, 2, 256)
    rep = neumann_inverse(a, schedule=sched, perturbation=pert)
    assert rep.norm_check < 1.0
    block, brep = rep.block_report(8, 8)
    assert brep.converged
    oracle = np.linalg.inv(truncate(a, 256, 256).data)[:8, :8]
    assert np.max(np.abs(block.data - oracle)) <= 1e-9
    assert rep.residual <= 100 * ConvergencePolicy().tol
    # lazy spec agrees entrywise with the stabilized block
    assert rep.matrix.entry(2, 3) == pytest.approx(block.at(2, 3), abs=1e-12)


# --- rank ---------------------------------------------------------------------

def test_rank_of_geometric_outer_product():
    spec = entrywise_spec(lambda i, j: 2.0 ** -(i + j),
                          decay=DecayCertificate(1.0, 0.5))
    rep = rank_of(spec, SCHED)
    assert rep.converged
    assert rep.estimate == 1.0


def test_rank_of_infinite_identity_undetermined():
    rep = rank_of(identity_spec(), SCHED)
    assert rep.status == "undetermined"
    assert rep.estimate == 64.0


def test_rank_of_proportional_rows():
    rep = rank_of(DenseMatrix([[1.0, 2.0], [2.0, 4.0]]))
    assert rep.converged and rep.estimate == 1.0


def test_rank_matches_exact_oracle_and_transpose():
    rng = np.random.default_rng(1)
    for _ in range(120):
        m, n = rng.integers(1, 7, size=2)
        k = int(rng.integers(0, min(m, n) + 1))
        if k == 0:
            a = np.zeros((m, n))
        else:
            a = (rng.integers(-3, 4, (m, k)) @ rng.integers(-3, 4, (k, n))).astype(float)
        want = fraction_rank(a.tolist())
        assert rank_of(DenseMatrix(a)).estimate == want
        assert rank_of(DenseMatrix(a.T)).estimate == want


# --- compatibility -------------------------------------------------------------

def test_compatibility_worked_examples():
    a = DenseMatrix([[1.0, 2.0], [2.0, 4.0]])
    ok = check_compatibility(a, DenseMatrix([[1.0], [2.0]]))
    assert ok.compatible and ok.verdict == "compatible"
    assert ok.rank_A.estimate == ok.rank_Ab.estimate == 1.0
    bad = check_compatibility(a, DenseMatrix([[1.0], [3.0]]))
    assert not bad.compatible and bad.verdict == "incompatible"
    assert bad.rank_Ab.estimate == 2.0


def test_compatibility_identity_always():
    rep = check_compatibility(identity_spec(4),
                              DenseMatrix([[5.0], [-1.0], [0.0], [2.0]]))
    assert rep.compatible


def test_compatibility_matches_fraction_oracle():
    rng = np.random.default_rng(2)
    agree = 0
    for _ in range(200):
        m, n = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        k = int(rng.integers(0, min(m, n) + 1))
        if k == 0:
            a = np.zeros((m, n))
        else:
            a = (rng.integers(-3, 4, (m, k)) @ rng.integers(-3, 4, (k, n))).astype(float)
        if rng.uniform() < 0.5:
            b = a @ rng.integers(-3, 4, n).astype(float)
        else:
            b = rng.integers(-3, 4, m).astype(float)
        want = fraction_rank(a.tolist()) == fraction_rank(
            np.column_stack([a, b]).tolist())
        spec = MatrixSpec(m, n, lambda i, j, _a=a: float(_a[i - 1, j - 1]))
        got = check_compatibility(spec, DenseMatrix(b[:, None]))
        assert got.compatible == want
        assert got.rank_A.estimate <= got.rank_Ab.estimate
        agree += 1
    assert agree == 200


def test_compatibility_infinite_rank_one():
    spec = entrywise_spec(lambda i, j: 2.0 ** -(i + j))
    inside = MatrixSpec(INFINITE, 1, lambda i, _: 2.0 ** -i)  # equals column 1 scaled
    rep = check_compatibility(spec, inside, SCHED)
    assert rep.compatible and rep.verdict == "compatible"
    outside = MatrixSpec(INFINITE, 1, lambda i, _: 1.0 if i == 1 else 0.0)
    rep2 = check_compatibility(spec, outside, SCHED)
    assert not rep2.compatible and rep2.verdict == "incompatible"


@settings(max_examples=80)
@given(st.integers(1, 6), st.integers(0, 6), st.sampled_from([1e-14, 1e-12, 1e-6, 1.0, 1e6]),
       st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_rank_Ab_is_at_least_rank_A_at_any_scale(n, k, scale, inside, seed):
    # both ranks are read from one sweep of [A_n | b_n] under one threshold
    rng = np.random.default_rng(seed)
    a = scale * (rng.standard_normal((n, k)) @ rng.standard_normal((k, n)))
    b = a @ rng.standard_normal(n) if inside else rng.standard_normal(n)
    rep = check_compatibility(DenseMatrix(a), DenseMatrix(b[:, None]))
    assert rep.rank_A.estimate <= rep.rank_Ab.estimate


def test_a_scaled_identity_is_compatible_and_solved():
    # every pivot of 1e-12 I is above 1e-10 times its norm
    A, b = DenseMatrix(1e-12 * np.eye(3)), DenseMatrix(np.ones((3, 1)))
    rep = check_compatibility(A, b)
    assert rep.verdict == "compatible"
    assert rep.rank_A.estimate == rep.rank_Ab.estimate == 3.0
    solved = cramer_solve(A, b)
    assert [solved.unknowns[i].estimate for i in (1, 2, 3)] == [1.0 / 1e-12] * 3
    assert solved.compatibility() == rep


def counted_sweeps(monkeypatch):
    """The shape of the matrix of each sweep from now on, numpy or Python-float."""
    shapes = []
    for name in ("_sweep", "_sweep_rows"):
        def sweep(a, *args, _real=getattr(_dense, name), **kwargs):
            shapes.append(a.shape)
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(_dense, name, sweep)
    return shapes


def test_check_compat_of_the_golden_system_sweeps_each_section_once(monkeypatch, tmp_path):
    system = tmp_path / "system.json"
    system.write_text(json.dumps({
        "A": {"rows": "inf", "cols": "inf", "kind": "expr",
              "expr": "delta(i,j) + 0.3/(i+j+1)^2.5"},
        "b": {"kind": "expr", "expr": "1/i^2"}, "wanted": [1, 2, 3]}))
    shapes = counted_sweeps(monkeypatch)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(["solve", str(system), "--route", "cramer", "--check-compat",
              "--max-size", "1024", "--quiet"])
    assert '"compatibility"' in out.getvalue()
    assert shapes == [(n, n + 1) for n in TruncationSchedule().sizes()]


@pytest.mark.parametrize("fn,bandwidth", LOW_RANK + CONTRACTIONS,
                         ids=["low dense", "low banded", "dense", "banded"])
def test_check_compatibility_sweeps_each_size_once(fn, bandwidth, monkeypatch):
    A, _ = counted_spec(fn, bandwidth)
    shapes = counted_sweeps(monkeypatch)
    rep = check_compatibility(A, MatrixSpec(INFINITE, 1, lambda i, _: 2.0 ** -i), LONG)
    used = max(rep.rank_A.terms_used, rep.rank_Ab.terms_used)
    assert shapes == [(n, n + 1) for n in LONG.sizes()[:used]]


@pytest.mark.parametrize("route", ["cramer", "inverse"])
def test_a_solve_and_its_compatibility_sweep_each_size_once(route, monkeypatch):
    # the inverse route sweeps only for the ranks; Cramer's ranks reuse its sweeps
    A = MatrixSpec(INFINITE, INFINITE, CONTRACTIONS[0][0])
    b = MatrixSpec(INFINITE, 1, lambda i, _: 1.0 / i ** 2)
    shapes = counted_sweeps(monkeypatch)
    solved = SOLVERS[route](A, b, wanted=[1])
    solved_sizes = 0 if route == "inverse" else solved.unknowns[1].terms_used
    assert shapes == [(n, n + 1) for n in SCHED.sizes()[:solved_sizes]]
    rep = solved.compatibility()
    used = max(rep.rank_A.terms_used, rep.rank_Ab.terms_used)
    assert shapes == [(n, n + 1) for n in SCHED.sizes()[:max(used, solved_sizes)]]


def test_cramer_solve_and_compatibility_at_1024_peak_under_33_mib():
    # a solve keeps each size's ranks and solution, not its reduced array
    A = matrix_from_obj({"rows": "inf", "cols": "inf", "kind": "expr",
                         "expr": "delta(i,j) + 0.3/(i+j+1)^2.5"})
    b = vector_from_obj({"kind": "expr", "expr": "1/i^2"}, INFINITE)
    tracemalloc.start()
    try:
        cramer_solve(A, b, wanted=[1, 2, 3], schedule=TruncationSchedule()).compatibility()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 33 * 2 ** 20


# --- solving -------------------------------------------------------------------

def test_cramer_worked_two_by_two():
    a = DenseMatrix([[2.0, 1.0], [1.0, 3.0]])
    rep = cramer_solve(a, DenseMatrix([[3.0], [5.0]]))
    assert rep.unknowns[1].estimate == pytest.approx(4.0 / 5.0, abs=1e-12)
    assert rep.unknowns[2].estimate == pytest.approx(7.0 / 5.0, abs=1e-12)
    assert rep.residual <= 1e-12
    assert rep.route == "cramer"


def test_cramer_identity_returns_rhs():
    rep = cramer_solve(identity_spec(3), DenseMatrix([[1.0], [2.0], [3.0]]))
    assert [rep.unknowns[i].estimate for i in (1, 2, 3)] == [1.0, 2.0, 3.0]


def test_cramer_singular_rejected():
    with pytest.raises(SingularSystemError):
        cramer_solve(DenseMatrix([[1.0, 2.0], [2.0, 4.0]]),
                     DenseMatrix([[1.0], [2.0]]))


def test_cramer_infinite_closed_form():
    rep = cramer_solve(perturbed_identity(), e1(), wanted=[1, 2, 3],
                       schedule=SCHED)
    assert rep.unknowns[1].converged
    assert rep.unknowns[1].estimate == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert rep.unknowns[2].estimate == pytest.approx(0.0, abs=1e-12)
    # A - I = 0.5 e1 e1^T: von Koch's sum is 0.5 on every section
    assert rep.condition.converged and not rep.condition.certified
    assert rep.condition.estimate == 0.5


def test_cramer_condition_of_a_harmonic_diagonal_does_not_converge():
    # sum |a_ij - delta_ij| = sum 1/i, the harmonic series
    A = diagonal_spec(lambda i: 1.0 + 1.0 / i)
    rep = cramer_solve(A, e1(), wanted=[1], schedule=SCHED)
    assert not rep.condition.converged
    assert rep.condition.estimate == pytest.approx(sum(1.0 / i for i in range(1, 65)))


def test_cramer_condition_of_a_finite_system_is_exact():
    rep = cramer_solve(DenseMatrix([[2.0, 1.0], [-1.0, 3.0]]), DenseMatrix([[3.0], [5.0]]))
    assert (rep.condition.status, rep.condition.terms_used) == ("converged", 1)
    assert rep.condition.estimate == 1.0 + 1.0 + 1.0 + 2.0


def test_cramer_infinite_full_prefix_gets_residual():
    sched = TruncationSchedule(2, 2, 16)
    rep = cramer_solve(perturbed_identity(), e1(),
                       wanted=list(range(1, 17)), schedule=sched)
    assert rep.residual is not None and rep.residual <= 1e-6


def test_cramer_evaluates_each_a_cell_once():
    calls = Counter()

    def entry(i, j):
        calls[(i, j)] += 1
        if i == j:
            return 1.5 if i == 1 else 1.0
        return 0.5 ** (i + j) if abs(i - j) == 1 else 0.0

    A = MatrixSpec(INFINITE, INFINITE, entry, structure="banded", bandwidth=1)
    b = MatrixSpec(INFINITE, 1, lambda i, _: 1.0 / i ** 2)
    rep = cramer_solve(A, b, wanted=[1, 2, 3], schedule=SCHED)
    assert all(r.converged for r in rep.unknowns.values())
    # only the growing sections of A evaluate a cell
    assert calls[(3, 4)] == 1


@pytest.mark.parametrize("wanted", [[1], list(range(1, 9)), [20]],
                         ids=["one", "eight", "past-first-section"])
@pytest.mark.parametrize("fn,bandwidth", [(perturbed_identity().entry, 0)] + CONTRACTIONS,
                         ids=["diagonal", "dense", "banded"])
def test_cramer_reads_only_its_largest_section_and_that_prefix_of_b(wanted, fn, bandwidth):
    # the normal-determinant condition reads the sections the solve grew;
    # nothing else of A or b is evaluated
    A, counts = counted_spec(fn, bandwidth)
    b_calls = Counter()
    b = MatrixSpec(INFINITE, 1, lambda i, _: b_calls.update([i]) or 1.0 / i ** 2)
    rep = cramer_solve(A, b, wanted=wanted, schedule=LONG)
    assert rep.condition is not None
    grown = max(i for i, _ in counts)
    reach = [n for n in LONG.sizes() if n >= max(wanted)]
    assert all(reach[u.terms_used - 1] <= grown for u in rep.unknowns.values())
    assert_section_evaluated_once(counts, grown, bandwidth)
    # b is read once per row, as far as the largest section solved
    assert b_calls == Counter(range(1, max(b_calls) + 1)) and max(b_calls) <= grown


@pytest.mark.parametrize("fn,bandwidth", CONTRACTIONS, ids=["dense", "banded"])
def test_neumann_inverse_evaluates_each_a_cell_once(fn, bandwidth):
    A, counts = counted_spec(fn, bandwidth)
    rep = neumann_inverse(A, schedule=SCHED)
    rep.block_report(8, 8)
    rep.block_report(16, 16)
    assert_section_evaluated_once(counts, SCHED.sizes()[-1], bandwidth)


@pytest.mark.parametrize("fn,bandwidth", CONTRACTIONS, ids=["dense", "banded"])
def test_solve_via_inverse_evaluates_each_a_cell_once(fn, bandwidth):
    A, counts = counted_spec(fn, bandwidth)
    solve_via_inverse(A, MatrixSpec(INFINITE, 1, lambda i, _: 1.0 / i ** 2),
                      schedule=SCHED, wanted=[1, 2, 3])
    assert_section_evaluated_once(counts, SCHED.sizes()[-1], bandwidth)


@pytest.mark.parametrize("fn,bandwidth", LOW_RANK, ids=["dense", "banded"])
def test_rank_of_evaluates_each_cell_of_the_last_section_once(fn, bandwidth):
    M, counts = counted_spec(fn, bandwidth)
    rep = rank_of(M, LONG)
    assert rep.converged
    reached = LONG.sizes()[rep.terms_used - 1]
    assert reached < LONG.max_size
    assert_section_evaluated_once(counts, reached, bandwidth)


@pytest.mark.parametrize("fn,bandwidth", LOW_RANK, ids=["dense", "banded"])
def test_check_compatibility_shares_a_cells_between_both_ranks(fn, bandwidth):
    A, counts = counted_spec(fn, bandwidth)
    rep = check_compatibility(A, MatrixSpec(INFINITE, 1, lambda i, _: 2.0 ** -i), LONG)
    assert rep.rank_A.converged and rep.rank_Ab.converged
    used = max(rep.rank_A.terms_used, rep.rank_Ab.terms_used)
    assert_section_evaluated_once(counts, LONG.sizes()[used - 1], bandwidth)


def test_cramer_unknown_of_a_diagonal_system_is_exact():
    # A = I + diag(1/i), b = e_1: eliminating each section divides b_1 = 1
    # by a_11 = 2, so every section gives x_1 = 0.5 to the last bit
    rep = cramer_solve(diagonal_spec(lambda i: 1.0 + 1.0 / i), e1(), wanted=[1],
                       schedule=SCHED)
    assert rep.unknowns[1].estimate == 0.5


def test_cramer_unknown_beyond_the_first_section_is_solved_not_one():
    # on sections smaller than the unknown's index the ratio is
    # det A / det A = 1; only sections that hold x_100 may count
    rep = cramer_solve(perturbed_identity(), e1(), wanted=[100],
                       schedule=TruncationSchedule(8, 2, 1024))
    assert rep.unknowns[100].estimate == pytest.approx(0.0, abs=1e-12)
    assert rep.unknowns[100].terms_used == 4  # sizes 128 .. 1024


def non_finite_rhs(extent):
    """``10^(300 i)`` through the DSL, as a JSON spec gives it: inf from i = 2."""
    return vector_from_obj({"kind": "expr", "expr": "10^(300*i)"}, extent)


SOLVERS = {
    "cramer": lambda A, b, wanted=[1]: cramer_solve(A, b, wanted=wanted, schedule=SCHED),
    "inverse": lambda A, b, wanted=[1]: solve_via_inverse(A, b, schedule=SCHED,
                                                          wanted=wanted),
    "compatibility": lambda A, b: check_compatibility(A, b, SCHED),
}


@pytest.mark.parametrize("route", SOLVERS)
@pytest.mark.parametrize("A", [identity_spec(4), perturbed_identity()],
                         ids=["finite", "infinite"])
def test_non_finite_rhs_is_an_oracle_error_naming_its_row(route, A):
    with pytest.raises(OracleValueError) as err:
        SOLVERS[route](A, non_finite_rhs(A.rows))
    assert err.value.index[0] == 2
    assert "row 2" in str(err.value)


@pytest.mark.parametrize("route", SOLVERS)
def test_each_rhs_entry_is_read_once(route):
    calls = Counter()

    def rhs(i):
        calls[i] += 1
        return 1.0 / i ** 2

    A = MatrixSpec(INFINITE, INFINITE, CONTRACTIONS[1][0], structure="banded",
                   bandwidth=1)
    SOLVERS[route](A, MatrixSpec(INFINITE, 1, lambda i, _: rhs(i)))
    assert set(calls) == set(range(1, SCHED.max_size + 1))
    assert max(calls.values()) == 1


@pytest.mark.parametrize("route", ["cramer", "inverse"])
def test_empty_wanted_is_rejected_by_name(route):
    with pytest.raises(ValueError, match="wanted"):
        SOLVERS[route](perturbed_identity(), e1(), wanted=[])


@pytest.mark.parametrize("route", ["cramer", "inverse"])
def test_solve_report_compatibility_matches_check_compatibility(route):
    A = MatrixSpec(INFINITE, INFINITE, CONTRACTIONS[0][0])
    b = MatrixSpec(INFINITE, 1, lambda i, _: 1.0 / i ** 2)
    solved = SOLVERS[route](A, b, wanted=[1])
    rep = solved.compatibility()
    assert rep == check_compatibility(A, b, SCHED)
    assert rep.compatibility() is rep


def test_solve_via_inverse_checks_the_rhs_extent():
    with pytest.raises(ExtentMismatchError):
        solve_via_inverse(identity_spec(3), DenseMatrix([[1.0], [2.0]]))


# --- finite specs: one exact section, never the schedule -----------------------

FINITE_N = 12
SHORT = TruncationSchedule(4, 2, 1024)


def finite_contraction():
    entry, counts = counting(CONTRACTIONS[0][0])
    return MatrixSpec(FINITE_N, FINITE_N, entry), counts


def assert_exact(rep):
    assert (rep.status, rep.terms_used, rep.last_delta) == ("converged", 1, 0.0)


def _det(A, b):
    rep = det_infinite(A, SHORT)
    assert_exact(rep.report)


def _rank(A, b):
    assert_exact(rank_of(A, SHORT))


def _inverse(A, b):
    rep = neumann_inverse(A, schedule=SHORT)
    for n in (FINITE_N, 3):
        assert_exact(rep.block_report(n, n)[1])
    assert rep.matrix.entry(2, 3) == rep.block_report(3, 3)[0].at(2, 3)


def _solve(A, b):
    rep = solve_via_inverse(A, b, schedule=SHORT)
    assert sorted(rep.unknowns) == list(range(1, FINITE_N + 1))
    for r in rep.unknowns.values():
        assert_exact(r)


def _cramer(A, b):
    rep = cramer_solve(A, b, schedule=SHORT)
    assert sorted(rep.unknowns) == list(range(1, FINITE_N + 1))
    for r in rep.unknowns.values():
        assert_exact(r)
    assert rep.residual <= 1e-12


def _eig(A, b):
    pairs = find_eigenvalues(A, (0.95, 1.2), SHORT, grid_points=16)
    assert pairs and all(p.stable for p in pairs)


@pytest.mark.parametrize("run", [_det, _rank, _inverse, _solve, _cramer, _eig],
                         ids=["det", "rank", "inverse", "solve", "cramer", "eig"])
def test_finite_spec_is_one_exact_section(run, monkeypatch):
    import infmat.matrix_core as core
    grown = []
    grow = core._grow

    def recording(M, known, kk, m, n):
        grown.append((known.shape, m, n))
        return grow(M, known, kk, m, n)

    monkeypatch.setattr(core, "_grow", recording)
    A, counts = finite_contraction()
    b_calls = Counter()
    b = MatrixSpec(FINITE_N, 1, lambda i, _: b_calls.update([i]) or 1.0 / i ** 2)
    run(A, b)
    assert grown == [((0, 0), FINITE_N, FINITE_N)]
    assert set(counts) == section_cells(FINITE_N)
    assert max(counts.values()) == 1
    if run in (_solve, _cramer):
        assert b_calls == Counter(range(1, FINITE_N + 1))


def test_cramer_non_finite_rhs_names_its_row():
    b = MatrixSpec(INFINITE, 1, lambda i, _: math.inf if i == 5 else 0.0)
    with pytest.raises(OracleValueError) as err:
        cramer_solve(perturbed_identity(), b, wanted=[2], schedule=SCHED)
    assert err.value.index == (5,)
    assert "row 5" in str(err.value)


@settings(max_examples=100)
@given(st.integers(1, 8), st.data())
def test_cramer_matches_numpy_on_well_conditioned_systems(n, data):
    # strictly diagonally dominant by a margin of at least 0.5 with
    # off-diagonal entries in [-1, 1], then scaled: well conditioned at any
    # scale, while the diagonal may be far from 1, where the inverse route
    # refuses the system, and the determinant may be far below tol
    def draw(elements, size):
        return np.array(data.draw(st.lists(elements, min_size=size, max_size=size)))

    a = draw(st.floats(-1.0, 1.0), n * n).reshape(n, n)
    np.fill_diagonal(a, 0.0)
    signs = draw(st.sampled_from([-1.0, 1.0]), n)
    np.fill_diagonal(a, signs * (draw(st.floats(0.5, 5.0), n) + np.abs(a).sum(axis=1)))
    a *= 10.0 ** data.draw(st.integers(-6, 3))
    b = draw(st.floats(-2.0, 2.0), n)
    rep = cramer_solve(DenseMatrix(a), DenseMatrix(b[:, None]))
    want = np.linalg.solve(a, b)
    for i in range(1, n + 1):
        assert abs(rep.unknowns[i].estimate - want[i - 1]) <= 1e-12 * max(1.0, abs(want[i - 1]))
    if np.max(np.sum(np.abs(np.eye(n) - a), axis=1)) >= 1.0:
        with pytest.raises(PreconditionError):
            solve_via_inverse(DenseMatrix(a), DenseMatrix(b[:, None]))


def test_solve_via_inverse_identity():
    rep = solve_via_inverse(identity_spec(3), DenseMatrix([[4.0], [5.0], [6.0]]))
    assert [rep.unknowns[i].estimate for i in (1, 2, 3)] == [4.0, 5.0, 6.0]
    assert rep.residual == 0.0


def test_solve_via_inverse_nilpotent_exact():
    # keep row sums of the strictly-upper part under 1 so the norm gate passes
    n = 5
    upper = np.triu(np.full((n, n), 0.2), 1)
    a = DenseMatrix(np.eye(n) - upper)
    b = np.arange(1.0, n + 1.0)
    rep = solve_via_inverse(a, DenseMatrix(b[:, None]))
    x = np.array([rep.unknowns[i].estimate for i in range(1, n + 1)])
    # forward-substitution oracle
    want = np.linalg.solve(a.data, b)
    assert np.max(np.abs(x - want)) <= 1e-12
    assert rep.residual <= 1e-12


def test_solve_routes_agree_on_contractions():
    rng = np.random.default_rng(3)
    for _ in range(40):
        n = int(rng.integers(2, 9))
        x = rng.uniform(-1, 1, (n, n))
        x *= 0.5 / max(np.max(np.sum(np.abs(x), axis=1)), 1e-9)
        a = DenseMatrix(np.eye(n) + x)
        b = DenseMatrix(rng.uniform(-2, 2, (n, 1)))
        cram = cramer_solve(a, b)
        inv = solve_via_inverse(a, b)
        for i in range(1, n + 1):
            assert cram.unknowns[i].estimate == pytest.approx(
                inv.unknowns[i].estimate, abs=1e-7)
        assert cram.residual <= 1e-6 and inv.residual <= 1e-6


def test_solve_via_inverse_infinite_closed_form():
    rep = solve_via_inverse(perturbed_identity(), e1(), schedule=SCHED,
                            wanted=[1, 2])
    assert rep.unknowns[1].estimate == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert rep.unknowns[2].estimate == pytest.approx(0.0, abs=1e-12)
    assert rep.residual <= 1e-6


def test_solve_via_inverse_norm_precondition():
    with pytest.raises(PreconditionError):
        solve_via_inverse(diagonal_spec(lambda i: 2.0), e1(), schedule=SCHED)
