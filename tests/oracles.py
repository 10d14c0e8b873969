"""Independent brute-force oracles used only by the tests.

Each oracle deliberately takes a different route than the library code it
checks: cofactor expansion against pivoted elimination, exact rational
elimination against floating-point rank, classical Gram-Schmidt against
the Gram-block elimination, an exact characteristic polynomial
against root bracketing, the stopping rule as a loop over steps
against the rule over arrays of steps, one power per term of the
log series against the traces read from paired powers, bisection's
worst-case count of steps against the ITP refinement's, and a renderer
with one recursive call per value against the CLI's row and key-set
paths.
"""

import itertools
import json
import math
from fractions import Fraction

import numpy as np


def cofactor_det(a) -> float:
    """Determinant by recursive cofactor expansion along the first row."""
    a = [list(map(float, row)) for row in a]
    n = len(a)
    if n == 1:
        return a[0][0]
    total = 0.0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in a[1:]]
        sign = 1.0 if j % 2 == 0 else -1.0
        total += sign * a[0][j] * cofactor_det(minor)
    return total


def fraction_rank(rows) -> int:
    """Exact rank over the rationals by fraction-free elimination."""
    mat = [[Fraction(x).limit_denominator(10**9) if not isinstance(x, Fraction)
            else x for x in row] for row in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    rank = 0
    r = 0
    for c in range(ncols):
        pivot = next((k for k in range(r, nrows) if mat[k][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        for k in range(r + 1, nrows):
            if mat[k][c] != 0:
                f = mat[k][c] / mat[r][c]
                mat[k] = [mat[k][t] - f * mat[r][t] for t in range(ncols)]
        r += 1
        rank += 1
        if r == nrows:
            break
    return rank


def gram_schmidt_rows(a: np.ndarray) -> np.ndarray:
    """Classical unnormalized Gram-Schmidt on the rows of ``a``."""
    a = np.array(a, dtype=float)
    out = np.zeros_like(a)
    for p in range(a.shape[0]):
        v = np.array(a[p])
        for q in range(p):
            u = out[q]
            v = v - (a[p] @ u) / (u @ u) * u
        out[p] = v
    return out


def charpoly_coefficients(a) -> list[Fraction]:
    """Exact characteristic polynomial coefficients (leading first) via the
    trace-recursion algorithm over rationals."""
    n = len(a)
    mat = [[Fraction(int(round(x))) if float(x).is_integer() else
            Fraction(x).limit_denominator(10**9) for x in row] for row in a]

    def matmul_frac(x, y):
        return [[sum(x[i][k] * y[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)]

    coeffs = [Fraction(1)]
    m = [[Fraction(0)] * n for _ in range(n)]
    c = Fraction(1)
    for k in range(1, n + 1):
        # M_k = A M_{k-1} + c_{k-1} I ; c_k = -tr(A M_k) / k
        for i in range(n):
            m[i][i] += c
        m = matmul_frac(mat, m)
        c = -sum(m[i][i] for i in range(n)) / k
        coeffs.append(c)
    return coeffs


def charpoly_roots(a) -> np.ndarray:
    """Real roots of the exact characteristic polynomial, ascending."""
    coeffs = [float(c) for c in charpoly_coefficients(a)]
    roots = np.roots(coeffs)
    real = roots[np.abs(roots.imag) < 1e-9].real
    return np.sort(real)


def triple_loop_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    m, inner = a.shape
    n = b.shape[1]
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            s = 0.0
            for l in range(inner):
                s += a[i, l] * b[l, j]
            out[i, j] = s
    return out


# --- dense-sweep elimination references ----------------------------------------
#
# The kernels in ``infmat._dense`` confine elimination to the nonzero window
# of the array.  These references sweep the whole trailing matrix with scalar
# Python arithmetic: ``x - f*y`` with ``f = x_ik / x_kk``, the same IEEE
# operations as a vectorized dense sweep, entry by entry.

def _pivot_row(a, col, start):
    """First row at or below ``start`` with the largest ``|a[row][col]|``."""
    best, p = -1.0, start
    for i in range(start, len(a)):
        if abs(a[i][col]) > best:
            best, p = abs(a[i][col]), i
    return p


def sweep_lu_det(a) -> float:
    """Partially pivoted elimination over the full trailing matrix."""
    a = [list(map(float, row)) for row in a]
    n = len(a)
    sign, det = 1.0, 1.0
    for k in range(n):
        p = _pivot_row(a, k, k)
        if a[p][k] == 0.0:
            return 0.0
        if p != k:
            a[k], a[p] = a[p], a[k]
            sign = -sign
        det *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            for j in range(k + 1, n):
                a[i][j] = a[i][j] - f * a[k][j]
    return sign * det


def sweep_echelon(a, pivot_tol):
    """Row echelon form, every row below the pivot updated from the pivot
    column rightwards."""
    return sweep_echelon_signed(a, pivot_tol)[:2]


def sweep_echelon_signed(a, pivot_tol):
    """:func:`sweep_echelon` and the sign of its row permutation.  A column
    without a pivot keeps the values it held when it was skipped, moved by
    row swaps only."""
    u = [list(map(float, row)) for row in a]
    rows, cols = len(u), len(u[0])
    pivots = []
    sign = 1.0
    r = 0
    for c in range(cols):
        if r == rows:
            break
        p = _pivot_row(u, c, r)
        if abs(u[p][c]) <= pivot_tol:
            continue
        if p != r:
            sign = -sign
        u[r], u[p] = u[p], u[r]
        for i in range(r + 1, rows):
            f = u[i][c] / u[r][c]
            for j in range(c, cols):
                u[i][j] = u[i][j] - f * u[r][j]
            u[i][c] = 0.0
        pivots.append(c)
        r += 1
    return np.array(u, dtype=float).reshape(rows, cols), pivots, sign


def sweep_null_vector(a, pivot_tol):
    """Null vector from :func:`sweep_echelon`: first free column set to 1.

    Back-substitution uses numpy's dot product on the same slices as the
    library, so only the elimination differs between the two.
    """
    u, pivots = sweep_echelon(a, pivot_tol)
    cols = u.shape[1]
    free = next((c for c in range(cols) if c not in pivots), None)
    if free is None:
        return None
    v = np.zeros(cols)
    v[free] = 1.0
    for row in range(len(pivots) - 1, -1, -1):
        pc = pivots[row]
        v[pc] = -float(u[row, pc + 1:] @ v[pc + 1:]) / u[row, pc]
    return v


def sweep_gauss_solve(a, b, pivot_tol):
    """Solution of ``a x = b`` by elimination over the full trailing matrix,
    or None when some column has no pivot above ``pivot_tol``.

    ``b`` holds one right-hand side (1-d) or several (columns of a 2-d
    array).  Each column is back-substituted on its own with numpy's dot
    product on contiguous slices, as :func:`sweep_null_vector` does.
    """
    a = [list(map(float, row)) for row in a]
    rhs = np.array(b, dtype=float)
    one = rhs.ndim == 1
    rhs = [list(map(float, row)) for row in (rhs[:, None] if one else rhs)]
    n = len(a)
    for k in range(n):
        p = _pivot_row(a, k, k)
        if abs(a[p][k]) <= pivot_tol:
            return None
        a[k], a[p] = a[p], a[k]
        rhs[k], rhs[p] = rhs[p], rhs[k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            for j in range(k + 1, n):
                a[i][j] = a[i][j] - f * a[k][j]
            rhs[i] = [x - f * y for x, y in zip(rhs[i], rhs[k])]
            a[i][k] = 0.0
    out = np.zeros((n, len(rhs[0])))
    for c in range(out.shape[1]):
        x = np.zeros(n)
        for k in range(n - 1, -1, -1):
            x[k] = (rhs[k][c] - float(np.array(a[k][k + 1:]) @ x[k + 1:])) / a[k][k]
        out[:, c] = x
    return out[:, 0] if one else out


def bisection_steps(lo, hi, width) -> int:
    """Values that bisection of ``[lo, hi]`` computes in the worst case:
    one per halving, each keeping the wider half, until the bracket is at
    most ``width`` wide or no float lies strictly between its ends.  No
    value is read, so no exact zero ends it early."""
    steps = 0
    while hi - lo > width:
        mid = lo / 2 + hi / 2
        if not lo < mid < hi:
            break
        steps += 1
        if mid - lo >= hi - mid:
            hi = mid
        else:
            lo = mid
    return steps


def counting(fn):
    """``fn`` wrapped to count its calls per ``(i, j)``; returns (entry, counts)."""
    counts = {}

    def entry(i, j):
        counts[(i, j)] = counts.get((i, j), 0) + 1
        return fn(i, j)

    return entry, counts


def section_cells(n, bandwidth=None) -> set:
    """1-based cells of the n-by-n section, only those within ``bandwidth``
    of the diagonal when it is given."""
    return {(i, j) for i in range(1, n + 1) for j in range(1, n + 1)
            if bandwidth is None or abs(i - j) <= bandwidth}


def stopping_rule(values, tol, window, max_terms, remainder=None):
    """The stopping rule stepped one value at a time, as a plain loop.

    ``values`` are successive scalar estimates and ``remainder(count)``
    an optional certificate's bound.  Returns ``(estimate, status,
    terms_used, last_delta, certified)``, the fields of the library's
    report, with the statuses as strings.
    """
    blowup = 1.0 / tol
    prev, prev_abs = None, 0.0
    estimate, last_delta = math.nan, math.inf
    quiet = growing = count = 0
    for value in values:
        count += 1
        mag = abs(value)
        if not math.isfinite(mag):
            return estimate, "diverged", count, math.inf, False
        estimate = value
        if remainder is not None:
            bound = remainder(count)
            if bound <= tol * max(1.0, mag):
                return value, "converged", count, bound, True
        if prev is not None:
            last_delta = abs(value - prev)
            if mag > blowup and mag > prev_abs:
                growing += 1
                if growing >= window:
                    return value, "diverged", count, last_delta, False
            else:
                growing = 0
            if remainder is None:
                if growing == 0 and last_delta <= tol * max(1.0, prev_abs):
                    quiet += 1
                    if quiet >= window:
                        return value, "converged", count, last_delta, False
                else:
                    quiet = 0
        prev, prev_abs = value, mag
        if count >= max_terms:
            break
    return estimate, "undetermined", count, last_delta, False


def log_series_det(a, tol, window, max_terms):
    """``exp`` of the traced logarithm series of ``a``, one power of
    ``B = a - I`` per term: term k is ``(-1)^(k+1) tr(B^k) / k`` with
    ``B^k = B^(k-1) @ B`` from ``B^0 = I``, its partial sums stepped
    through :func:`stopping_rule`.  Returns ``(log det, terms_used,
    status)``."""
    base = np.array(a, dtype=float) - np.eye(len(a))

    def partials():
        power, total = np.eye(len(base)), 0.0
        for k in itertools.count(1):
            power = power @ base
            total = total + (1.0 if k % 2 == 1 else -1.0) * float(np.trace(power)) / k
            yield total

    estimate, status, terms, _, _ = stopping_rule(partials(), tol, window, max_terms)
    return estimate, terms, status


def render_reference(value, indent=0):
    """JSON text of a report tree, one recursive call per value: the
    renderer the CLI's row and key-set paths must match byte for byte.
    Keys sorted by ``str``, floats to 17 significant digits, a non-finite
    float as ``"nan"``, ``"inf"`` or ``"-inf"``, a list of numbers on one
    line."""
    pad = "  " * indent
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if math.isnan(v):
            return '"nan"'
        if math.isinf(v):
            return '"inf"' if v > 0 else '"-inf"'
        return f"{v:.17g}"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        rows = [f'{pad}  {json.dumps(str(k))}: {render_reference(v, indent + 1)}'
                for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        items = list(value)
        if not items:
            return "[]"
        if all(isinstance(x, (int, float, np.integer, np.floating)) for x in items):
            return "[" + ", ".join(render_reference(x) for x in items) + "]"
        rows = [f"{pad}  {render_reference(x, indent + 1)}" for x in items]
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
    raise TypeError(f"cannot render {type(value)!r}")


def render_csv_reference(data) -> str:
    """CSV text of a 2-d array, value by value: a row per line, floats to
    17 significant digits."""
    return "\n".join(",".join(f"{float(v):.17g}" for v in row) for row in data) + "\n"
