"""Seeded workload generators.

Each workload turns a seed into a list of operations.  An operation is
one ``infmat`` command line over JSON spec files written by this module,
plus the parameters of every spec, so that ``reference.py`` can rebuild
each matrix with its own numpy formula and never has to call infmat.

Why these three workloads (see also README.md):

* ``dense-truncation``: dense ``expr`` specs at max-size 256-512.  The
  scalar DSL oracle inside ``truncate`` does almost all of the work, with
  few, large kernels (n = 512).  A block oracle or incremental sections
  show here.
* ``banded-spectral``: diagonal, tridiagonal and pentadiagonal specs.
  ``eig`` at max-size 128 with grid 64 makes many small ``lu_det`` /
  ``echelon`` calls and re-truncates a few oracle cells per row; ``det``
  and ``rank`` run at max-size 1024.  The DSL oracle does little here.
* ``series-sums``: ``mul`` of two infinite specs (64 probe entries, each a
  scalar series capped at 20000 terms) and ``orth`` of few-row,
  infinite-column specs (Gram series).  The ``series`` stopping rule runs
  once per term and the oracle is called one scalar at a time, with no
  truncation and no kernel.  Specs with decay certificates take the
  certified early stop.

Spec parameters are drawn from narrow seeded ranges, and within a run the
operation kinds and spec families rotate in a fixed order, so one run
sees the same mix whatever the seed.  Inputs are never filtered: what
the generator draws is what runs.
"""

import json
import os
from dataclasses import dataclass, field

import numpy as np

from matrices import banded_matrix


@dataclass
class Spec:
    """One generated matrix (or system) with the parameters that define it."""

    family: str
    params: dict
    path: str


@dataclass
class Op:
    kind: str
    argv: list
    specs: list
    extra: dict = field(default_factory=dict)


class _Writer:
    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.count = 0

    def write(self, obj):
        self.count += 1
        path = os.path.join(self.out_dir, f"spec{self.count:03d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        return path


def _num(x):
    """Shortest decimal text that reads back as exactly ``x``."""
    return repr(float(x))


# ---------------------------------------------------------------------------
# dense-truncation

# delta(i,j) + c/(i+j+a)^p: algebraic decay, so det, rank and the inverse
# never stabilize before max-size and the whole schedule is evaluated.
def _dense_poly(rng):
    p = dict(c=rng.uniform(0.2, 0.5), a=rng.uniform(0.5, 2.0), p=rng.uniform(2.0, 3.0))
    expr = f"delta(i,j) + {_num(p['c'])}/(i+j+{_num(p['a'])})^{_num(p['p'])}"
    return "poly", p, expr


# Cauchy-like kernel damped by exp, with its own diagonal weight through
# if(): decays geometrically, so limits stabilize part-way up the schedule.
def _dense_exp(rng, s_lo=0.08, s_hi=0.2):
    p = dict(c=rng.uniform(0.2, 0.5), d=rng.uniform(0.1, 0.4), s=rng.uniform(s_lo, s_hi),
             a=rng.uniform(0.5, 2.0), p=rng.uniform(1.0, 2.0))
    expr = (f"delta(i,j) + if(i==j, {_num(p['d'])}, {_num(p['c'])})"
            f"*exp(-{_num(p['s'])}*(i+j))/(i+j+{_num(p['a'])})^{_num(p['p'])}")
    return "exp", p, expr


def _dense_matrix_obj(expr):
    return {"rows": "inf", "cols": "inf", "kind": "expr", "expr": expr}


def _rhs(rng):
    q = rng.uniform(1.5, 2.5)
    return {"q": q}, {"kind": "expr", "expr": f"1/i^{_num(q)}"}


# The Cramer route raises unless the system determinant stabilizes, which
# at max-size 256 needs the faster decay s >= 0.4.
def _dense_exp_fast(rng):
    return _dense_exp(rng, 0.4, 0.6)


# (command, family, max-size); the rotation order is fixed.  Six in ten
# operations are inv and solve --route inverse, which cost about the same
# (1.2-1.8 s); the other two in ten on each side are cheaper (rank, det
# of the exp family) and dearer (det at 512, Cramer).  The median latency
# thus falls in the middle of the inverse cluster, not at the edge
# between two clusters, where it would jump with the operation-to-
# operation noise of a shared machine, and the cluster is large enough
# that its median moves little with that noise.
_DENSE_ROTATION = [
    ("det", _dense_poly, 512),
    ("inv", _dense_poly, 256),
    ("rank", _dense_exp, 256),
    ("solve-inverse", _dense_poly, 256),
    ("inv", _dense_poly, 256),
    ("solve-cramer", _dense_exp_fast, 256),
    ("solve-inverse", _dense_poly, 256),
    ("det", _dense_exp, 256),
    ("inv", _dense_poly, 256),
    ("solve-inverse", _dense_poly, 256),
]


def dense_truncation(rng, writer, count, smoke=False):
    ops = []
    for k in range(count):
        cmd, family, max_size = _DENSE_ROTATION[k % len(_DENSE_ROTATION)]
        if smoke:
            max_size = 32
        name, params, expr = family(rng)
        matrix = _dense_matrix_obj(expr)
        sched = ["--max-size", str(max_size)]
        if cmd in ("det", "rank", "inv"):
            spec = Spec(name, params, writer.write(matrix))
            argv = [cmd, spec.path] + sched
            if cmd == "inv":
                argv += ["--n", "8"]
            ops.append(Op(cmd, argv, [spec], {"max_size": max_size}))
        else:
            rhs_params, rhs = _rhs(rng)
            params = dict(params, b=rhs_params)
            # Cramer re-truncates A for every wanted unknown at every size, so
            # it asks for one unknown to keep the operation near the others' cost
            wanted = [1] if cmd == "solve-cramer" else [1, 2, 3]
            spec = Spec(name, params, writer.write({"A": matrix, "b": rhs, "wanted": wanted}))
            route = cmd.split("-")[1]
            argv = ["solve", spec.path, "--route", route] + sched
            ops.append(Op(cmd, argv, [spec], {"max_size": max_size, "wanted": wanted}))
    return ops


# ---------------------------------------------------------------------------
# banded-spectral

# Diagonal s + c/i^p plus symmetric constant off-diagonals e (and f).  The
# 1/i^p bump puts isolated eigenvalues above the band s +- 2(e + f); the
# band itself fills with roots as the truncation grows.
_BANDED_FAMILIES = ("diag", "tri", "penta")


def _banded_spec(rng, family):
    p = dict(s=rng.uniform(-0.2, 0.2), c=rng.uniform(0.6, 1.2), p=rng.uniform(0.8, 1.5),
             e=0.0, f=0.0)
    diag = f"{_num(p['s'])} + {_num(p['c'])}/i^{_num(p['p'])}"
    if family == "diag":
        return p, {"rows": "inf", "cols": "inf", "kind": "diag", "expr": diag}
    p["e"] = rng.uniform(0.15, 0.3)
    bands = {"-1": _num(p["e"]), "0": diag, "1": _num(p["e"])}
    if family == "penta":
        p["f"] = rng.uniform(0.03, 0.08)
        bands["-2"] = bands["2"] = _num(p["f"])
    return p, {"rows": "inf", "cols": "inf", "kind": "banded", "bands": bands}


def gershgorin(p):
    """Interval holding every eigenvalue of every truncation of the spec."""
    radius = 2 * (p["e"] + p["f"])
    return p["s"] - radius, p["s"] + p["c"] + radius


# Each eig interval covers this share of the spec's Gershgorin range, so
# that it holds zero to a few roots and eig latencies form one cluster.
EIG_WIDTH = 0.005
# eig runs with this term cap for det_truncation's log-series route.  Only
# the lower-bound slice (below) takes that route; there it needs 900 to
# 30000 terms, so it stops with series-cap in a few tenths of a second,
# the same way on every run.  Without the cap such an operation runs for
# 6 to 30 s, and a wall-clock cap would make the failure count depend on
# the machine's speed.
EIG_MAX_TERMS = 500
# Interval centres are stratified over EIG_SLICES slices of the range,
# visited in a fixed order, at a seeded point inside the slice.  Two
# slices are pinned where a known defect lives, so that it shows at the
# same rate in every run rather than in a random subset of runs:
# * slice 0 starts at the lower Gershgorin bound.  There
#   norm(T - lam*I - I) approaches 1, det_truncation takes its log-series
#   route and needs thousands of terms per value (series-cap at
#   EIG_MAX_TERMS), and its exp can underflow to 0, which bisection
#   accepts as a root.
# * the top slice is centred on the largest eigenvalue of the max-size
#   truncation.  For tri- and pentadiagonal specs it is isolated, and
#   eigenvector_for finds no elimination pivot small enough to mark a null
#   direction (singular-system).
# With the order below they come at the 8th/20th and 9th/21st eig
# operation.
EIG_SLICES = 12
_EIG_SLICE_ORDER = (6, 2, 9, 4, 1, 10, 3, 0, 11, 7, 5, 8)
# det stops early (the limit is 0) and rank at max-size 1024 costs about
# five eig operations; in this mix the median latency falls among the eig
# operations.
_BANDED_ROTATION = ("eig", "det", "eig", "eig", "det", "eig", "rank", "eig", "eig", "det")


def _eig_interval(rng, spec, slot, max_size):
    lo, hi = gershgorin(spec.params)
    width = EIG_WIDTH * (hi - lo)
    if slot == 0:
        return lo, lo + width
    if slot == EIG_SLICES - 1:
        centre = float(np.linalg.eigvalsh(banded_matrix(spec, max_size))[-1])
    else:
        centre = lo + (hi - lo) * (slot + rng.uniform()) / EIG_SLICES
    return centre - width / 2, centre + width / 2


def banded_spectral(rng, writer, count, smoke=False):
    ops = []
    n_eig = 0
    for k in range(count):
        cmd = _BANDED_ROTATION[k % len(_BANDED_ROTATION)]
        family = _BANDED_FAMILIES[k % len(_BANDED_FAMILIES)]
        params, obj = _banded_spec(rng, family)
        spec = Spec(family, params, writer.write(obj))
        if cmd == "eig":
            max_size, grid = (16, 16) if smoke else (128, 64)
            slot = _EIG_SLICE_ORDER[n_eig % EIG_SLICES]
            n_eig += 1
            interval = _eig_interval(rng, spec, slot, max_size)
            argv = ["eig", spec.path, "--max-size", str(max_size), "--grid", str(grid),
                    "--max-terms", str(EIG_MAX_TERMS),
                    "--interval", _num(interval[0]), _num(interval[1])]
            ops.append(Op("eig", argv, [spec], {"max_size": max_size, "interval": interval}))
        else:
            max_size = 32 if smoke else 1024
            ops.append(Op(cmd, [cmd, spec.path, "--max-size", str(max_size)], [spec],
                          {"max_size": max_size}))
    return ops


# ---------------------------------------------------------------------------
# series-sums

MUL_MAX_TERMS = 20000


def _series_poly(rng, lo, hi):
    """c/(i+j+a)^p: the product entry's terms decay like l^-(p1+p2)."""
    p = dict(c=rng.uniform(0.9, 1.1), a=rng.uniform(0.0, 1.0), p=rng.uniform(lo, hi))
    obj = {"rows": "inf", "cols": "inf", "kind": "expr",
           "expr": f"{_num(p['c'])}/(i+j+{_num(p['a'])})^{_num(p['p'])}"}
    return "poly", p, obj


def _series_geo(rng, rows="inf"):
    """c*r^(i*j) with the certificate C = c/r, since r^(ij) <= r^(i+j-1)."""
    p = dict(c=rng.uniform(0.5, 1.5), r=rng.uniform(0.3, 0.6))
    obj = {"rows": rows, "cols": "inf", "kind": "expr",
           "expr": f"{_num(p['c'])}*{_num(p['r'])}^(i*j)",
           "decay": {"kind": "geometric", "C": p["c"] / p["r"], "r": p["r"]}}
    return "geo", p, obj


# Algebraic factors (window rule, about a thousand terms per entry) make up
# most operations; certified factors stop early and cost little, so they
# are kept to one in five.  A 4-row algebraic orth costs about what an
# algebraic mul does, so eight in ten operations form one cluster and the
# median latency falls near its middle.
# Exponent ranges are narrow because the number of terms, and so the cost,
# grows like 10^(10/q) for terms decaying like l^-q: the ranges below keep
# each operation within about 10% of its kind's mean cost.
_SERIES_ROTATION = ("mul-poly", "orth-poly", "mul-poly", "mul-geo", "mul-poly",
                    "mul-poly", "orth-poly", "mul-poly", "orth-geo", "mul-poly")
# Row counts of the orth specs: fixed for algebraic ones, in turn for
# certified ones.  The cost of an orth grows with the number of Gram
# entries, so the counts are fixed by position rather than drawn: every
# run of the same length has the same mix.  Rows
# r^(i*j) are nearly dependent: with 4 of them the Gram pivot falls to
# ~1e-10 of its norm, the elimination's floor, so geo specs stay below 4.
_ORTH_POLY_ROWS = 4
_ORTH_GEO_ROWS = (2, 3)


def series_sums(rng, writer, count, smoke=False):
    ops = []
    max_terms = 2000 if smoke else MUL_MAX_TERMS
    n_geo_orth = 0
    for k in range(count):
        cmd = _SERIES_ROTATION[k % len(_SERIES_ROTATION)]
        if cmd.startswith("mul"):
            if cmd == "mul-poly":
                pair = [_series_poly(rng, 1.58, 1.62) for _ in range(2)]
            else:
                pair = [_series_geo(rng) for _ in range(2)]
            specs = [Spec(name, params, writer.write(obj)) for name, params, obj in pair]
            argv = ["mul", specs[0].path, specs[1].path, "--max-terms", str(max_terms)]
            ops.append(Op(cmd, argv, specs, {"max_terms": max_terms}))
        else:
            if cmd == "orth-poly":
                rows = _ORTH_POLY_ROWS
                # Gram terms decay like j^-2p: about 7000 terms, under the cap
                name, params, obj = _series_poly(rng, 1.29, 1.31)
                obj["rows"] = rows
            else:
                rows = _ORTH_GEO_ROWS[n_geo_orth % len(_ORTH_GEO_ROWS)]
                n_geo_orth += 1
                name, params, obj = _series_geo(rng, rows)
            params["rows"] = rows
            spec = Spec(name, params, writer.write(obj))
            argv = ["orth", spec.path, "--max-terms", str(max_terms), "--n", "8"]
            ops.append(Op(cmd, argv, [spec], {"max_terms": max_terms}))
    return ops


WORKLOADS = {
    "dense-truncation": dense_truncation,
    "banded-spectral": banded_spectral,
    "series-sums": series_sums,
}

# Seconds one operation takes on average on the reference machine (see
# README.md).  A run is a fixed list of round(seconds / OP_S) operations,
# so that for a given seed and --seconds it attempts the same operations,
# with the same verdicts, however fast the machine is at the time; the
# rotations above make the mix of kinds the same for every seed.  The
# values are a little high, so that a 30-second run loops for 26-30 s.
OP_S = {"dense-truncation": 1.6, "banded-spectral": 0.5, "series-sums": 0.68}

# An operation still running after this many seconds is stopped and counts
# as failed.  This guards against a hang only: no operation of the
# baseline takes a third of it.
OP_TIMEOUT_S = 30.0


def op_count(workload, seconds, smoke=False):
    """Number of operations of one run of ``seconds`` seconds."""
    return 10 if smoke else max(2, round(seconds / OP_S[workload]))


def build(workload, seed, out_dir, count, smoke=False):
    """Write the seeded spec files of one run and return its ``count`` operations."""
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload)])
    os.makedirs(out_dir, exist_ok=True)
    return WORKLOADS[workload](rng, _Writer(out_dir), count, smoke)
