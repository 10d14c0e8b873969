"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Tolerances are fixed here and nowhere else.
"""

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from oracles import charpoly_roots, fraction_rank, gram_schmidt_rows

from infmat.algebra import add, matmul, matvec, scale
from infmat.bases_orth import orthogonalize
from infmat.determinant import cauchy_binet, det_log_series, det_oracle
from infmat.errors import PreconditionError
from infmat.inverse_solve import (check_compatibility, cramer_solve,
                                  neumann_inverse, rank_of, solve_via_inverse)
from infmat.matrix_core import (BANDED, DecayCertificate, DenseMatrix, INFINITE,
                                MatrixSpec, TruncationSchedule, banded_spec,
                                diagonal_spec, entrywise_spec, identity_spec,
                                truncate)
from infmat.series import ConvergencePolicy
from infmat.spectral import find_eigenvalues
from infmat.expr_dsl import eval_ast, parse

ROOT = Path(__file__).resolve().parent.parent
SPECS = ROOT / "specs"
TOL = ConvergencePolicy().tol


def _verdict(num, name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def _contraction(rng, n, radius):
    x = rng.uniform(-1.0, 1.0, (n, n))
    scale_ = radius * rng.uniform(0.05, 1.0)
    x *= scale_ / max(np.max(np.sum(np.abs(x), axis=1)), 1e-12)
    return x


def _certified(seed, C=1.0, r=0.35):
    def h(i, j):
        return math.sin(seed + 12.9898 * i + 78.233 * j)

    return entrywise_spec(lambda i, j: C * r ** (i + j) * h(i, j),
                          decay=DecayCertificate(C, r))


def test_criterion_01_log_series_determinant():
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 9))
        m = DenseMatrix(np.eye(n) + _contraction(rng, n, 0.8))
        want = det_oracle(m)
        got = det_log_series(m).value
        worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    elapsed = time.perf_counter() - started
    _verdict(1, "log-series determinant vs elimination oracle",
             worst <= 1e-8 and elapsed < 10.0,
             f"worst rel err {worst:.3g}, {elapsed:.2f}s")


def test_criterion_02_cauchy_binet_expansion():
    rng = np.random.default_rng(102)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, n + 1))
        a = rng.uniform(-1.0, 1.0, (m, n))
        b = rng.uniform(-1.0, 1.0, (n, m))
        want = det_oracle(DenseMatrix(a @ b))
        got = cauchy_binet(DenseMatrix(a), DenseMatrix(b))
        worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    a = DenseMatrix([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
    worked = cauchy_binet(a, a.transpose())
    elapsed = time.perf_counter() - started
    _verdict(2, "minor-sum expansion equals det of the product",
             worst <= 1e-9 and abs(worked - 3.0) <= 1e-12 and elapsed < 10.0,
             f"worst {worst:.3g}, worked case {worked}, {elapsed:.2f}s")


def test_criterion_03_multiplicativity():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(1, 9))
        a = rng.uniform(-1.0, 1.0, (n, n))
        b = rng.uniform(-1.0, 1.0, (n, n))
        lhs = det_oracle(DenseMatrix(a @ b))
        rhs = det_oracle(DenseMatrix(a)) * det_oracle(DenseMatrix(b))
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)))
    _verdict(3, "det(AB) = det(A) det(B) on square pairs",
             worst <= 1e-9, f"worst rel err {worst:.3g}")


def test_criterion_04_neumann_inverse_contract():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(1, 9))
        a = DenseMatrix(np.eye(n) - _contraction(rng, n, 0.9))
        rep = neumann_inverse(a)
        worst = max(worst, rep.residual)
    ok_finite = worst <= 100 * TOL

    ok_infinite = True
    sched = TruncationSchedule(8, 2, 256)
    for seed in (1.0, 2.0, 3.0):
        pert = _certified(seed, C=0.3, r=0.5)
        a = add(identity_spec(), pert)
        rep = neumann_inverse(a, schedule=sched, perturbation=pert)
        block, brep = rep.block_report(16, 16)
        oracle = np.linalg.inv(truncate(a, 256, 256).data)[:16, :16]
        ok_infinite &= (rep.residual <= 100 * TOL and brep.converged
                        and np.max(np.abs(block.data - oracle)) <= 1e-6)

    try:
        neumann_inverse(DenseMatrix([[2.0, 0.0], [0.0, 2.0]]))
        boundary_rejected = False
    except PreconditionError:
        boundary_rejected = True
    _verdict(4, "series inverse residual and norm gate",
             ok_finite and ok_infinite and boundary_rejected,
             f"worst residual {worst:.3g}")


def _perturbed_identity():
    def entry(i, j):
        v = 1.0 if i == j else 0.0
        if i == 1 and j == 1:
            v = 1.5
        return v

    return MatrixSpec(INFINITE, INFINITE, entry, structure=BANDED, bandwidth=0)


def test_criterion_05_solve_route_agreement():
    rng = np.random.default_rng(105)
    worst_gap = 0.0
    worst_residual = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 9))
        a = DenseMatrix(np.eye(n) + _contraction(rng, n, 0.6))
        b = DenseMatrix(rng.uniform(-2.0, 2.0, (n, 1)))
        cram = cramer_solve(a, b)
        inv = solve_via_inverse(a, b)
        gap = max(abs(cram.unknowns[i].estimate - inv.unknowns[i].estimate)
                  for i in range(1, n + 1))
        worst_gap = max(worst_gap, gap)
        worst_residual = max(worst_residual, cram.residual, inv.residual)

    sched = TruncationSchedule(8, 2, 64)
    e1 = MatrixSpec(INFINITE, 1, lambda i, _: 1.0 if i == 1 else 0.0)
    spec = _perturbed_identity()
    cram = cramer_solve(spec, e1, wanted=[1, 2], schedule=sched)
    inv = solve_via_inverse(spec, e1, schedule=sched, wanted=[1, 2])
    closed_ok = (abs(cram.unknowns[1].estimate - 2.0 / 3.0) <= 1e-9
                 and abs(inv.unknowns[1].estimate - 2.0 / 3.0) <= 1e-9
                 and abs(cram.unknowns[2].estimate) <= 1e-12
                 and abs(inv.unknowns[2].estimate) <= 1e-12)
    _verdict(5, "determinant-ratio and inverse routes agree",
             worst_gap <= 1e-7 and worst_residual <= 1e-6 and closed_ok,
             f"worst gap {worst_gap:.3g}, worst residual {worst_residual:.3g}")


def test_criterion_06_rank_compatibility():
    rng = np.random.default_rng(106)
    matched = 0
    for _ in range(500):
        m, n = int(rng.integers(1, 7)), int(rng.integers(1, 7))
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
        matched += int(got.compatible == want)

    geo = entrywise_spec(lambda i, j: 2.0 ** -(i + j),
                         decay=DecayCertificate(1.0, 0.5))
    sched = TruncationSchedule(8, 2, 64)
    rep = rank_of(geo, sched)
    first_size = rank_of(DenseMatrix(truncate(geo, 8, 8).data)).estimate
    rank_ok = rep.converged and rep.estimate == 1.0 and first_size == 1.0
    _verdict(6, "compatibility verdicts match the exact-rank oracle",
             matched == 500 and rank_ok,
             f"{matched}/500 verdicts, infinite rank status {rep.status}")


def test_criterion_07_derivative_operator():
    deriv = banded_spec({1: lambda i, j: float(j)})
    coeffs = MatrixSpec(INFINITE, 1, lambda j, _: 1.0 / math.factorial(j))
    out, reports = matvec(deriv, coeffs)
    worst = max(abs(out.entry(i, 1) - coeffs.entry(i, 1)) for i in range(1, 21))
    exact = all(r.converged for r in reports.values())
    _verdict(7, "differentiation fixes the exponential coefficients",
             worst <= 1e-12 and exact, f"worst abs err {worst:.3g}")


def test_criterion_08_orthogonalization():
    rng = np.random.default_rng(108)
    done = 0
    worst_gs = 0.0
    worst_dot = 0.0
    while done < 500:
        m = int(rng.integers(1, 7))
        n = int(rng.integers(m, 11))
        a = rng.uniform(-2.0, 2.0, (m, n))
        if fraction_rank(a.tolist()) < m:
            continue
        done += 1
        rep = orthogonalize(DenseMatrix(a))
        worst_gs = max(worst_gs, float(np.max(np.abs(rep.A_prime.data
                                                     - gram_schmidt_rows(a)))))
        assert np.array_equal(np.tril(rep.G.data, -1), np.zeros((m, m)))
        prods = rep.A_prime.data @ rep.A_prime.data.T
        off = np.abs(prods - np.diag(np.diag(prods)))
        if m > 1:
            worst_dot = max(worst_dot,
                            float(np.max(off)) / max(1e-30, float(np.max(np.diag(prods)))))

    rows = MatrixSpec(2, INFINITE, lambda i, j: (2.0 if i == 1 else 3.0) ** -j)
    orep = orthogonalize(rows)
    gram_ok = (abs(orep.gram.at(1, 1) - 1.0 / 3.0) <= 1e-10
               and abs(orep.gram.at(1, 2) - 1.0 / 5.0) <= 1e-10
               and abs(orep.gram.at(2, 2) - 1.0 / 8.0) <= 1e-10)
    _verdict(8, "block orthogonalization matches Gram-Schmidt",
             worst_gs <= 1e-9 and worst_dot <= 1e-8 and gram_ok,
             f"worst row gap {worst_gs:.3g}, worst dot {worst_dot:.3g}")


def test_criterion_09_spectral_roots():
    rng = np.random.default_rng(109)
    done = 0
    worst = 0.0
    while done < 100:
        n = int(rng.integers(2, 7))
        raw = rng.integers(-3, 4, (n, n))
        a = (raw + raw.T).astype(float)
        roots = charpoly_roots(a.astype(int).tolist())
        gaps = np.abs(np.diff(roots))
        if len(gaps) and np.min(gaps) < 1e-3:
            continue  # double or nearly-double roots are out of scope
        done += 1
        lo, hi = float(roots[0] - 1.0), float(roots[-1] + 1.0)
        min_gap = float(np.min(gaps)) if len(gaps) else (hi - lo)
        grid = int(min(8192, max(256, 4 * (hi - lo) / min_gap)))
        pairs = find_eigenvalues(DenseMatrix(a), (lo, hi), grid_points=grid)
        assert len(pairs) == len(roots)
        worst = max(worst, max(abs(p.lam - r) for p, r in zip(pairs, roots)))

    spec = diagonal_spec(lambda i: 1.0 / i)
    pairs = find_eigenvalues(spec, (0.4, 0.6), TruncationSchedule(8, 2, 64))
    v = pairs[0].vector.data[:, 0]
    diag_ok = (len(pairs) == 1 and abs(pairs[0].lam - 0.5) <= 1e-8
               and abs(v[1] - 1.0) <= 1e-8
               and max(abs(x) for k, x in enumerate(v) if k != 1) <= 1e-8
               and pairs[0].vec_residual <= 1e-8)
    _verdict(9, "interval search recovers simple characteristic roots",
             worst <= 1e-8 and diag_ok, f"worst root err {worst:.3g}")


def test_criterion_10_ring_axioms_on_truncations():
    policy = ConvergencePolicy()
    worst = 0.0
    for trial in range(200):
        a = _certified(float(trial) + 0.1)
        b = _certified(float(trial) + 0.2)
        c = _certified(float(trial) + 0.3)
        add_lhs = truncate(add(add(a, b), c), 6, 6).data
        add_rhs = truncate(add(a, add(b, c)), 6, 6).data
        worst = max(worst, float(np.max(np.abs(add_lhs - add_rhs))))

        ab = matmul(a, b, policy).matrix
        bc = matmul(b, c, policy).matrix
        assoc_lhs = truncate(matmul(ab, c, policy).matrix, 6, 6).data
        assoc_rhs = truncate(matmul(a, bc, policy).matrix, 6, 6).data
        worst = max(worst, float(np.max(np.abs(assoc_lhs - assoc_rhs))))

        dist_lhs = truncate(matmul(a, add(b, c), policy).matrix, 6, 6).data
        ac = matmul(a, c, policy).matrix
        dist_rhs = truncate(add(ab, ac), 6, 6).data
        worst = max(worst, float(np.max(np.abs(dist_lhs - dist_rhs))))
    _verdict(10, "ring axioms hold entrywise on truncations",
             worst <= 1e-9, f"worst entry gap {worst:.3g}")


def _cli(*args):
    return subprocess.run([sys.executable, "-m", "infmat.cli", *map(str, args)],
                          capture_output=True, cwd=ROOT)


def test_criterion_11_dsl_and_cli_contract():
    fixtures_ok = (eval_ast(parse("2+3*4")) == 14.0
                   and eval_ast(parse("2^3^2")) == 512.0
                   and eval_ast(parse("-2^2")) == -4.0)

    first = _cli("det", SPECS / "perturbation.json", "--max-size", 64, "--quiet")
    second = _cli("det", SPECS / "perturbation.json", "--max-size", 64, "--quiet")
    bytes_ok = first.stdout == second.stdout and first.returncode == 0

    scenarios = [
        (("det", SPECS / "perturbation.json", "--max-size", 64, "--quiet"), 0),
        (("rank", SPECS / "identity.json", "--max-size", 64, "--quiet"), 2),
        (("mul", SPECS / "ones.json", SPECS / "ones.json",
          "--tol", "1e-3", "--quiet"), 1),
        (("det", "definitely_missing.json", "--quiet"), 1),
        (("eig", SPECS / "harmonic_diag.json", "--interval", 0.4, 0.6,
          "--max-size", 32, "--quiet"), 0),
    ]
    exit_ok = True
    details = []
    for args, want in scenarios:
        got = _cli(*args).returncode
        details.append(f"{args[0]}->{got}")
        exit_ok &= got == want

    inv_bad = json.loads(_cli("inv", SPECS / "ones.json", "--max-size", 16,
                              "--quiet").stdout)
    precondition_ok = "error" in inv_bad and inv_bad["error"]["code"] == "precondition-error"

    _verdict(11, "parser fixtures, byte-identical reports, exit contract",
             fixtures_ok and bytes_ok and exit_ok and precondition_ok,
             ", ".join(details))
