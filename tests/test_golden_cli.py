"""Golden CLI bytes: stdout and exit code of a fixed command list.

``golden/cli.json`` holds the expected bytes, recorded from the
elimination kernels.  Kernel and caching work must leave every byte in
place; a change that moves output bits on purpose re-records the file
with ``python tests/test_golden_cli.py`` and lists each difference in
CHANGES.md.
"""

import contextlib
import io
import json
import os
import sys
import warnings
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "cli.json"

# written by the test next to the command's working directory
TRIDIAG = {"rows": "inf", "cols": "inf", "kind": "banded",
           "bands": {"-1": "0.25", "0": "1/i", "1": "0.25"}}
DENSE_EXPR = "delta(i,j) + 0.3/(i+j+1)^2.5"
DENSE = {"rows": "inf", "cols": "inf", "kind": "expr", "expr": DENSE_EXPR}
DENSE6 = {"rows": 6, "cols": 6, "kind": "expr", "expr": DENSE_EXPR}
FIN20 = dict(TRIDIAG, rows=20, cols=20)
# series specs: algebraic c/(i+j+a)^p factors stop by the quiet window after
# about a thousand (mul) or several thousand (orth) terms; c*r^(i*j) rows
# carry a geometric certificate (C = c/r, since r^(ij) <= r^(i+j-1))
POLY_A = {"rows": "inf", "cols": "inf", "kind": "expr", "expr": "1.02/(i+j+0.37)^1.6"}
POLY_B = {"rows": "inf", "cols": "inf", "kind": "expr", "expr": "0.95/(i+j+0.81)^1.61"}
POLY_ROWS4 = {"rows": 4, "cols": "inf", "kind": "expr", "expr": "1.01/(i+j+0.42)^1.3"}
GEO_ROWS3 = {"rows": 3, "cols": "inf", "kind": "expr", "expr": "0.9*0.45^(i*j)",
             "decay": {"kind": "geometric", "C": 2.0, "r": 0.45}}
# finite dense families: transition takes them as one exact section
FAM_B = {"count": 3, "vectors": {"kind": "dense",
                                 "data": [[2, 1, 0], [1, 3, 1], [0, 1, 4]]}}
FAM_B_PRIME = {"count": 3, "vectors": {"kind": "dense",
                                       "data": [[1, 0, 0.5], [0.25, 1, 0], [1, 1, 1]]}}
# a finite dense-kind spec and a finite-support one, and a copy of the shipped
# diagonal spec to multiply with the written tridiagonal one
DENSE3 = {"kind": "dense", "data": [[2, 1, 0], [1, 3, 1], [0, 1, 4]]}
FINSUP = {"rows": "inf", "cols": "inf", "kind": "finite-support", "expr": "1/(i+2*j)",
          "support": {"rows": 3, "cols": 2}}
HARMONIC = json.loads((ROOT / "specs" / "harmonic_diag.json").read_text())
# I + diag(1/i): sum |a_ij - delta_ij| is the harmonic series, so Cramer's
# normal-determinant condition cannot converge
# verdicts other than converged: a quiet window out of reach of --max-terms
# (partial), terms 1.5^l that blow up (failed), terms that turn nan at l = 40,
# inside the chunk [29, 61) of a run (failed), and a Gram series sum 1/j
# that cannot converge (divergence)
RISING = {"rows": "inf", "cols": "inf", "kind": "expr", "expr": "1.5^j/(i+1)"}
RECIP_COL = {"rows": "inf", "cols": "inf", "kind": "expr", "expr": "1/j"}
NAN_ROWS = {"rows": "inf", "cols": "inf", "kind": "expr", "expr": "1/(i+j)^2 + 0*2^(26*i)"}
SLOW_ROWS2 = {"rows": 2, "cols": "inf", "kind": "expr", "expr": "1/(i+j)^0.5"}
# rows that no block oracle reads (banded, finite-support): every term of the
# orthogonality check comes from the scalar oracle
BANDED_ROWS3 = {"rows": 3, "cols": "inf", "kind": "banded",
                "bands": {"-1": "0.5", "0": "2+1/i", "1": "0.5", "2": "0.25"}}
FINSUP_ROWS3 = {"rows": 3, "cols": "inf", "kind": "finite-support", "expr": "1/(i+2*j)",
                "support": {"rows": 3, "cols": 5}}
# tri(1, 4, 1): its determinant grows like 3.73^n, its section solutions settle
TRI141_SYSTEM = {"A": {"rows": "inf", "cols": "inf", "kind": "banded",
                       "bands": {"0": "4", "-1": "1", "1": "1"}},
                 "b": {"kind": "expr", "expr": "1/i"}, "wanted": [1, 2, 3]}
HARMONIC_SYSTEM = {"A": {"rows": "inf", "cols": "inf", "kind": "diag", "expr": "1 + 1/i"},
                   "b": {"kind": "expr", "expr": "delta(i,1)"}}
# finite sections whose one exact value overflows: det = 1e400 and x = 1e310
# are inf, which is diverged, as at the first size of an infinite schedule
BIG_DIAG3 = {"kind": "dense", "data": [[1e200, 0, 0], [0, 1e200, 0], [0, 0, 1]]}
TINY_SYSTEM = {"A": {"kind": "dense", "data": [[1e-300]]},
               "b": {"kind": "dense", "data": [1e10]}}
WRITTEN = {"tridiag.json": TRIDIAG, "fin20.json": FIN20, "dense.json": DENSE, "dense6.json": DENSE6,
           "dense_system.json": {"A": DENSE, "b": {"kind": "expr", "expr": "1/i^2"}},
           "dense6_system.json": {"A": DENSE6, "b": {"kind": "expr", "expr": "1/i^2"}},
           "poly_a.json": POLY_A, "poly_b.json": POLY_B, "poly_rows4.json": POLY_ROWS4,
           "geo_rows3.json": GEO_ROWS3, "fam_b.json": FAM_B, "fam_b_prime.json": FAM_B_PRIME,
           "dense3.json": DENSE3, "finsup.json": FINSUP, "harmonic_diag.json": HARMONIC,
           "harmonic_system.json": HARMONIC_SYSTEM, "rising.json": RISING,
           "recip_col.json": RECIP_COL, "nan_rows.json": NAN_ROWS,
           "slow_rows2.json": SLOW_ROWS2, "tri141_system.json": TRI141_SYSTEM,
           "banded_rows3.json": BANDED_ROWS3, "finsup_rows3.json": FINSUP_ROWS3,
           "big_diag3.json": BIG_DIAG3, "tiny_system.json": TINY_SYSTEM}

_SPECS = ("harmonic_diag", "identity", "perturbation", "derivative")
_EIG_INTERVALS = {"harmonic_diag": ("0.15", "0.6"), "identity": ("0.5", "1.5"),
                  "perturbation": ("1.2", "1.8"), "derivative": ("-1", "1")}

# (working directory, argv); "repo" runs from the checkout root with the
# shipped specs, "tmp" from a directory holding the WRITTEN specs
COMMANDS = (
    [("repo", ["det", f"specs/{s}.json", "--max-size", "64"]) for s in _SPECS]
    + [("repo", ["rank", f"specs/{s}.json", "--max-size", "64"]) for s in _SPECS]
    + [("repo", ["eig", f"specs/{s}.json", "--max-size", "64", "--grid", "32",
                 "--interval", *_EIG_INTERVALS[s]]) for s in _SPECS]
    + [("repo", ["eig", "specs/perturbation.json", "--max-size", "64", "--grid", "32",
                 "--interval", "0.2", "0.8"]),
       ("repo", ["solve", "specs/perturbed_system.json", "--route", "cramer",
                 "--max-size", "64"]),
       ("repo", ["solve", "specs/perturbed_system.json", "--route", "cramer",
                 "--wanted", "1,2,3,4,5,6,7,8", "--max-size", "64"]),
       ("repo", ["solve", "specs/perturbed_system.json", "--route", "inverse",
                 "--max-size", "64"]),
       ("repo", ["solve", "specs/perturbed_system.json", "--route", "cramer",
                 "--check-compat", "--max-size", "64"]),
       ("repo", ["inv", "specs/perturbation.json", "--max-size", "64"]),
       ("repo", ["inv", "specs/geometric.json", "--max-size", "64"]),
       ("repo", ["transition", "specs/basis_standard.json", "specs/basis_shifted.json",
                 "--n", "6", "--max-size", "64"]),
       ("repo", ["transition", "specs/basis_shifted.json", "specs/basis_standard.json",
                 "--n", "6", "--max-size", "64"]),
       ("repo", ["orth", "specs/taylor_exp_rows.json"]),
       ("repo", ["mul", "specs/geometric.json", "specs/geometric.json"]),
       ("repo", ["mul", "specs/derivative.json", "specs/geometric.json"]),
       ("tmp", ["det", "tridiag.json", "--max-size", "256"]),
       ("tmp", ["rank", "tridiag.json", "--max-size", "256"]),
       ("tmp", ["eig", "tridiag.json", "--max-size", "64", "--grid", "64",
                "--interval", "0.3", "0.5"]),
       ("tmp", ["eig", "tridiag.json", "--max-size", "64", "--grid", "64",
                "--interval", "0.3", "1.3"]),
       ("tmp", ["eig", "tridiag.json", "--max-size", "32", "--grid", "16",
                "--max-terms", "500", "--interval", "-0.45", "0.2"]),
       ("tmp", ["det", "dense.json", "--max-size", "128"]),
       ("tmp", ["rank", "dense.json", "--max-size", "128"]),
       ("tmp", ["inv", "dense.json", "--max-size", "128"]),
       ("tmp", ["solve", "dense_system.json", "--route", "inverse", "--max-size", "128"]),
       ("tmp", ["solve", "dense_system.json", "--route", "cramer", "--check-compat",
                "--max-size", "128"]),
       ("tmp", ["rank", "dense6.json"]),
       ("tmp", ["inv", "dense6.json"]),
       ("tmp", ["solve", "dense6_system.json", "--route", "cramer", "--check-compat"]),
       ("tmp", ["solve", "dense6_system.json", "--route", "inverse"]),
       ("tmp", ["det", "dense6.json"]),
       ("tmp", ["inv", "dense6.json", "--n", "4"]),
       ("tmp", ["eig", "fin20.json", "--interval", "0.3", "0.65", "--grid", "64"]),
       ("repo", ["solve", "specs/perturbed_system.json", "--route", "cramer",
                 "--wanted", "100"]),
       ("tmp", ["mul", "poly_a.json", "poly_b.json", "--max-terms", "20000"]),
       ("tmp", ["orth", "poly_rows4.json", "--max-terms", "20000"]),
       ("tmp", ["orth", "geo_rows3.json", "--max-terms", "20000"]),
       ("tmp", ["transition", "fam_b.json", "fam_b_prime.json", "--n", "3"]),
       ("repo", ["mul", "specs/harmonic_diag.json", "specs/harmonic_diag.json", "--n", "4"]),
       ("tmp", ["mul", "harmonic_diag.json", "tridiag.json", "--n", "4"]),
       ("tmp", ["mul", "dense3.json", "dense3.json"]),
       ("tmp", ["orth", "dense3.json"]),
       ("tmp", ["eig", "dense3.json", "--interval", "0", "6"]),
       ("tmp", ["truncate", "finsup.json", "--n", "5"]),
       ("tmp", ["mul", "finsup.json", "finsup.json", "--n", "4"]),
       ("tmp", ["solve", "harmonic_system.json", "--route", "cramer", "--max-size", "64"]),
       ("tmp", ["mul", "poly_a.json", "poly_b.json", "--max-terms", "200"]),
       ("tmp", ["mul", "rising.json", "recip_col.json"]),
       ("tmp", ["mul", "poly_a.json", "nan_rows.json"]),
       ("tmp", ["orth", "slow_rows2.json", "--max-terms", "2000"]),
       ("tmp", ["solve", "tri141_system.json", "--route", "cramer", "--max-size", "1024"]),
       ("tmp", ["orth", "banded_rows3.json"]),
       ("tmp", ["orth", "finsup_rows3.json"]),
       ("tmp", ["det", "big_diag3.json"]),
       ("tmp", ["solve", "tiny_system.json"])]
)


def _run(argv):
    from infmat.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv + ["--quiet"])
    return out.getvalue(), code


def _run_in(where, argv, tmp_dir):
    cwd = os.getcwd()
    os.chdir(ROOT if where == "repo" else tmp_dir)
    try:
        return _run(argv)
    finally:
        os.chdir(cwd)


def _write_specs(tmp_dir):
    for name, obj in WRITTEN.items():
        (Path(tmp_dir) / name).write_text(json.dumps(obj))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("where,argv", COMMANDS, ids=[" ".join(a) for _, a in COMMANDS])
def test_cli_bytes_match_golden(where, argv, golden, tmp_path):
    _write_specs(tmp_path)
    expected = golden[" ".join(argv)]
    stdout, code = _run_in(where, argv, tmp_path)
    assert code == expected["exit"]
    assert stdout == expected["stdout"]



def test_an_overflowing_unknown_warns_nothing(golden, tmp_path):
    # A = [[1e-300]], b = [1e10]: the unknown overflows to inf, which the
    # rule reports as diverged, with no numpy warning on stderr
    _write_specs(tmp_path)
    argv = ["solve", "tiny_system.json"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        stdout, code = _run_in("tmp", argv, tmp_path)
    assert code == golden[" ".join(argv)]["exit"] == 1
    assert stdout == golden[" ".join(argv)]["stdout"]

if __name__ == "__main__":
    import tempfile

    sys.path.insert(0, str(ROOT / "src"))
    record = {}
    with tempfile.TemporaryDirectory() as tmp:
        _write_specs(tmp)
        for where, argv in COMMANDS:
            stdout, code = _run_in(where, argv, tmp)
            record[" ".join(argv)] = {"exit": code, "stdout": stdout}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
