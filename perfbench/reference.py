"""Independent references for every benchmark operation.

Nothing here imports infmat.  Each matrix is rebuilt from the parameters
the generator drew, with the benchmark's own numpy formulas
(``matrices.py``), and each answer is checked at the truncation size its
report stopped at:

* det, inv, solve: ``numpy.linalg`` (slogdet, inv, solve);
* eig: every reported root must be an eigenvalue of the final
  truncation (``numpy.linalg.eigvalsh``);
* rank: an SVD rank, checked only where no singular value lies within a
  factor RANK_GAP of the pivot threshold; the other checks are counted
  as skipped;
* mul and orth: each entry's partial sum is recomputed exactly
  (``math.fsum``) over the terms it used, and converged entries are
  compared with the infinite sum (``math.fsum`` head plus an ``mpmath``
  quadrature tail) within the error the stopping rule allows.

``check(op, doc)`` returns a :class:`Verdict`.  ``wrong`` marks an answer
outside tolerance; ``reason`` names what was compared.
"""

import math
from dataclasses import dataclass

import mpmath
import numpy as np

from matrices import banded_matrix, dense_matrix, grid, rhs, series_entry

# the CLI defaults the workloads run with
TOL = 1e-10
START, GROWTH = 8, 2
RANK_PIVOT_SCALE = 1e-10
RANK_GAP = 100.0
# same-size comparisons: float64 elimination against LAPACK
DENSE_RTOL = 1e-8
# reported roots are bisected to width 1e-10
EIG_ATOL = 1e-8
# head length before the quadrature tail of an infinite sum
SUM_HEAD = 2000


@dataclass
class Verdict:
    wrong: bool = False
    reason: str = ""
    checked: int = 0
    skipped: int = 0


def sizes(max_size):
    out, n = [], START
    while True:
        out.append(min(n, max_size))
        if n >= max_size:
            return out
        n *= GROWTH


def _norm_inf(a):
    return float(np.max(np.sum(np.abs(a), axis=1)))


def _close(value, ref, rtol):
    return abs(value - ref) <= rtol * max(1.0, abs(ref))


def _stop_size(report, max_size, at_least=1):
    usable = [s for s in sizes(max_size) if s >= at_least]
    return usable[report["terms_used"] - 1]


# ---------------------------------------------------------------------------
# dense-truncation and banded-spectral

def _matrix(op, n):
    spec = op.specs[0]
    return banded_matrix(spec, n) if spec.family in ("diag", "tri", "penta") \
        else dense_matrix(spec, n)


def det_rtol(t, logdet):
    """Relative error allowed in det(t).

    When ``norm_inf(t - I) = rho < 1`` infmat takes the log-series route:
    it stops summing log det once the terms fall below
    TOL * max(1, |log det|), and the terms shrink at least by ``rho`` per
    step, so the neglected tail is about that threshold / (1 - rho),
    doubled for slack.  Elimination is held to DENSE_RTOL.
    """
    rho = _norm_inf(t - np.eye(t.shape[0]))
    if rho >= 1.0:
        return DENSE_RTOL
    return DENSE_RTOL + 2.0 * TOL * max(1.0, abs(logdet)) / (1.0 - rho)


def _check_det(op, result):
    rep = result["report"]
    n = _stop_size(rep, op.extra["max_size"])
    t = _matrix(op, n)
    sign, logdet = np.linalg.slogdet(t)
    value = result["value"]
    if sign == 0 or logdet < -650:
        # the truncation determinant is below the float range
        ok = abs(value) < 1e-280
    else:
        ref = sign * math.exp(logdet)
        ok = abs(value - ref) <= det_rtol(t, logdet) * abs(ref)
    return Verdict(not ok, f"det at n={n}: {value!r} vs slogdet {sign:+.0f}*e^{logdet:.12g}", 1)


def _check_rank(op, result):
    rep = result["rank"]
    n = _stop_size(rep, op.extra["max_size"])
    t = _matrix(op, n)
    threshold = RANK_PIVOT_SCALE * _norm_inf(t)
    sv = np.linalg.svd(t, compute_uv=False)
    if np.any((sv > threshold / RANK_GAP) & (sv < threshold * RANK_GAP)):
        return Verdict(False, f"rank at n={n}: singular values near the threshold", 0, 1)
    ref = int(np.sum(sv > threshold))
    return Verdict(ref != rep["estimate"], f"rank at n={n}: {rep['estimate']} vs SVD {ref}", 1)


def _check_inv(op, result):
    rep = result["block_report"]
    block = np.array(result["matrix"], dtype=float)
    n = _stop_size(rep, op.extra["max_size"], at_least=block.shape[0])
    ref = np.linalg.inv(dense_matrix(op.specs[0], n))[:block.shape[0], :block.shape[1]]
    err = float(np.max(np.abs(block - ref)))
    return Verdict(err > DENSE_RTOL * max(1.0, float(np.max(np.abs(ref)))),
                   f"inverse block at n={n}: max error {err:.3g}", 1)


def _cramer_rtol(a, b, i):
    """Error allowed in a determinant ratio: the sum of both dets' allowances."""
    replaced = a.copy()
    replaced[:, i - 1] = b
    return sum(det_rtol(t, np.linalg.slogdet(t)[1]) for t in (a, replaced))


def _check_solve(op, result):
    spec = op.specs[0]
    wanted = op.extra["wanted"]
    verdict = Verdict(reason="solve")
    for key, rep in result["unknowns"].items():
        i = int(key)
        n = _stop_size(rep, op.extra["max_size"],
                       at_least=max(wanted) if op.kind == "solve-inverse" else 1)
        a, b = dense_matrix(spec, n), rhs(spec, n)
        x = np.linalg.solve(a, b)
        rtol = _cramer_rtol(a, b, i) if op.kind == "solve-cramer" else DENSE_RTOL
        verdict.checked += 1
        if not _close(rep["estimate"], x[i - 1], rtol):
            verdict.wrong = True
            verdict.reason = f"unknown {i} at n={n}: {rep['estimate']!r} vs {x[i - 1]!r}"
    return verdict


def _check_eig(op, result):
    n = op.extra["max_size"]
    ev = np.linalg.eigvalsh(banded_matrix(op.specs[0], n))
    verdict = Verdict(reason=f"{result['count']} roots at n={n}")
    for root in result["roots"]:
        lam = root["lambda"]
        verdict.checked += 1
        gap = float(np.min(np.abs(ev - lam)))
        if gap > EIG_ATOL * max(1.0, abs(lam)):
            verdict.wrong = True
            verdict.reason = f"root {lam!r} is {gap:.3g} from the nearest eigenvalue at n={n}"
    return verdict


# ---------------------------------------------------------------------------
# series-sums

def _infinite_sum(term):
    """sum_{l>=1} term(l): exact head over SUM_HEAD terms plus a quadrature tail.

    ``term`` must accept a numpy array (the head) and an mpmath number.
    """
    head = math.fsum(term(np.arange(1, SUM_HEAD + 1, dtype=float)).tolist())
    tail = mpmath.quad(term, [SUM_HEAD + 0.5, mpmath.inf])
    return head + float(tail)


def _series_allowance(estimate, terms, decay_exponent, certified, bound):
    """How far a converged partial sum may sit from the infinite sum.

    A certified stop carries its own tail bound.  The window rule stops
    once a term is below TOL * max(1, |S|); for terms decaying like
    l^-q the remaining tail is then at most about terms / (q - 1) such
    terms, doubled for slack.
    """
    if certified:
        return bound + 1e-14 * max(1.0, abs(estimate))
    return 2.0 * TOL * max(1.0, abs(estimate)) * terms / (decay_exponent - 1.0)


def _check_mul(op, result):
    a, b = op.specs
    verdict = Verdict(reason="mul")
    section = np.array(result["matrix"], dtype=float)
    poly = a.family == "poly"
    q = a.params["p"] + b.params["p"] if poly else None
    for key, rep in result["per_entry_reports"].items():
        i, j = (int(x) for x in key.split(","))
        L = rep["terms_used"]
        ls = np.arange(1, L + 1, dtype=float)
        partial = math.fsum((series_entry(a, i, ls) * series_entry(b, ls, j)).tolist())
        verdict.checked += 1
        if not abs(rep["estimate"] - partial) <= 1e-9 * max(abs(partial), 1e-300):
            verdict.wrong = True
            verdict.reason = f"entry {key}: {rep['estimate']!r} vs partial sum {partial!r}"
            continue
        if section[i - 1, j - 1] != rep["estimate"]:
            verdict.wrong = True
            verdict.reason = f"entry {key}: section and report differ"
            continue
        # the infinite sum is compared on the diagonal entries only
        if rep["status"] != "converged" or i != j:
            continue
        total = _infinite_sum(lambda l: series_entry(a, i, l) * series_entry(b, l, j))
        allow = _series_allowance(rep["estimate"], L, q, rep["certified"], rep["last_delta"])
        verdict.checked += 1
        if abs(rep["estimate"] - total) > allow:
            verdict.wrong = True
            verdict.reason = f"entry {key}: {rep['estimate']!r} vs sum {total!r} (allow {allow:.3g})"
    return verdict


def _check_orth(op, result):
    spec = op.specs[0]
    m = spec.params["rows"]
    gram = np.array(result["gram"], dtype=float)
    G = np.array(result["G"], dtype=float)
    coeff = np.array(result["A_prime"]["coefficients"], dtype=float)
    section = np.array(result["A_prime"]["section"], dtype=float)
    verdict = Verdict(reason="orth")
    poly = spec.family == "poly"
    for p in range(1, m + 1):
        for q in range(p, m + 1):
            total = _infinite_sum(lambda j: series_entry(spec, p, j) * series_entry(spec, q, j))
            est = gram[p - 1, q - 1]
            # the Gram report is not printed; bound its length by the cap
            allow = _series_allowance(est, op.extra["max_terms"],
                                      2 * spec.params["p"] if poly else None,
                                      not poly, TOL * max(1.0, abs(est)))
            verdict.checked += 1
            if abs(est - total) > allow:
                verdict.wrong = True
                verdict.reason = f"gram ({p}, {q}): {est!r} vs sum {total!r}"
    I, J = grid(m, section.shape[1])
    checks = {
        "coefficients are unit lower triangular":
            np.allclose(np.triu(coeff), np.eye(m), rtol=0, atol=0),
        "G = coefficients @ gram": np.allclose(G, coeff @ gram, rtol=1e-9, atol=1e-12),
        "G is upper triangular with positive diagonal":
            np.all(np.tril(G, -1) == 0) and np.all(np.diag(G) > 0),
        "section = coefficients @ rows":
            np.allclose(section, coeff @ series_entry(spec, I, J), rtol=1e-9, atol=1e-14),
        "rows are orthogonal":
            abs(result["max_offdiag_dot"]) <= 1e-6 * max(1.0, float(np.max(np.abs(gram)))),
    }
    for name, ok in checks.items():
        verdict.checked += 1
        if not ok:
            verdict.wrong = True
            verdict.reason = f"orth: not ({name})"
    return verdict


_CHECKS = {"det": _check_det, "rank": _check_rank, "inv": _check_inv,
           "solve-inverse": _check_solve, "solve-cramer": _check_solve,
           "eig": _check_eig, "mul-poly": _check_mul, "mul-geo": _check_mul,
           "orth-poly": _check_orth, "orth-geo": _check_orth}


def check(op, doc):
    """Compare one successful CLI document with its reference."""
    return _CHECKS[op.kind](op, doc["result"])
