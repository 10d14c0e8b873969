import json
import logging
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import infmat.cli as cli
from infmat.cli import main
from infmat.matrix_core import INFINITE, MatrixSpec

ROOT = Path(__file__).resolve().parent.parent
SPECS = ROOT / "specs"


def run_cli(*args, **kwargs):
    return subprocess.run([sys.executable, "-m", "infmat.cli", *map(str, args)],
                          capture_output=True, cwd=ROOT, **kwargs)


def run_main(capsys, *args):
    code = main([str(a) for a in args])
    return code, capsys.readouterr().out


# --- end-to-end contract -------------------------------------------------------

def test_det_perturbation_converges_exit_zero():
    proc = run_cli("det", SPECS / "perturbation.json", "--max-size", "64")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["status"] == "ok"
    assert abs(doc["result"]["value"] - 1.5) <= 1e-9
    assert doc["result"]["report"]["status"] == "converged"


def test_byte_identical_reports():
    first = run_cli("det", SPECS / "perturbation.json", "--max-size", "64")
    second = run_cli("det", SPECS / "perturbation.json", "--max-size", "64")
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode == 0


def test_mul_divergent_ones_exit_one():
    proc = run_cli("mul", SPECS / "ones.json", SPECS / "ones.json",
                   "--tol", "1e-3", "--quiet")
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    assert doc["result"]["overall_status"] == "failed"
    sample = doc["result"]["per_entry_reports"]["1,1"]
    assert sample["status"] == "diverged"


def test_rank_identity_undetermined_exit_two():
    proc = run_cli("rank", SPECS / "identity.json", "--max-size", "64", "--quiet")
    assert proc.returncode == 2
    doc = json.loads(proc.stdout)
    assert doc["result"]["rank"]["status"] == "undetermined"


def test_missing_file_exit_one():
    proc = run_cli("det", "no_such_file.json")
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["error"]["code"] == "io-error"


def test_parse_error_carries_position(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"rows": "inf", "cols": "inf", "kind": "expr",
                               "expr": "2^^3"}))
    proc = run_cli("det", bad)
    assert proc.returncode == 1
    err = json.loads(proc.stdout)["error"]
    assert err["code"] == "parse-error"
    assert err["position"] == 2


def test_inv_precondition_exit_one(tmp_path):
    bad = tmp_path / "double.json"
    bad.write_text(json.dumps({"rows": "inf", "cols": "inf", "kind": "diag",
                               "expr": "2"}))
    proc = run_cli("inv", bad, "--max-size", "32")
    assert proc.returncode == 1
    err = json.loads(proc.stdout)["error"]
    assert err["code"] == "precondition-error"
    assert err["measured"] == 1.0


# --- individual commands ---------------------------------------------------------

def test_truncate_derivative_csv(capsys):
    code, out = run_main(capsys, "truncate", SPECS / "derivative.json",
                         "--n", 3, "--format", "csv", "--quiet")
    assert code == 0
    assert out == "0,2,0\n0,0,3\n0,0,0\n"


def test_truncate_requires_n_for_infinite(capsys):
    code, out = run_main(capsys, "truncate", SPECS / "identity.json", "--quiet")
    assert code == 1
    assert json.loads(out)["error"]["code"] == "extent-mismatch"


def test_csv_refused_without_dense_block(capsys):
    code, out = run_main(capsys, "det", SPECS / "perturbation.json",
                         "--max-size", 32, "--format", "csv", "--quiet")
    assert code == 1
    assert json.loads(out)["error"]["code"] == "format-error"


def test_solve_cramer_closed_form(capsys):
    code, out = run_main(capsys, "solve", SPECS / "perturbed_system.json",
                         "--max-size", 64, "--quiet")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["result"]["unknowns"]["1"]["estimate"] - 2.0 / 3.0) <= 1e-9
    assert doc["result"]["unknowns"]["2"]["estimate"] == 0.0
    assert doc["config"]["wanted"] == [1, 2, 3]
    # von Koch's sum of |a_ij - delta_ij|: A - I = 0.5 e1 e1^T
    condition = doc["result"]["normal_condition"]
    assert (condition["estimate"], condition["status"]) == (0.5, "converged")


def test_solve_cramer_short_schedule_is_undetermined_not_singular(capsys):
    # three sizes cannot fill a window of 3 quiet steps: the determinant is
    # undetermined, which says nothing about singularity, so each unknown
    # carries its own verdict, as on the inverse route
    argv = ["solve", SPECS / "perturbed_system.json", "--max-size", 32, "--quiet"]
    code, out = run_main(capsys, *argv, "--route", "cramer")
    assert code == 2
    doc = json.loads(out)
    assert doc["status"] == "undetermined"
    assert sorted(doc["result"]["unknowns"]) == ["1", "2", "3"]
    assert {u["status"] for u in doc["result"]["unknowns"].values()} == {"undetermined"}
    assert abs(doc["result"]["unknowns"]["1"]["estimate"] - 2.0 / 3.0) <= 1e-9
    code, out = run_main(capsys, *argv, "--route", "inverse")
    assert code == 2


def test_solve_cramer_on_a_growing_determinant_converges(tmp_path, capsys):
    # tri(1, 4, 1): det A_n grows like 3.73^n, yet the section solutions
    # agree to the last bit from n = 32 on
    system = {"A": {"rows": "inf", "cols": "inf", "kind": "banded",
                    "bands": {"0": "4", "-1": "1", "1": "1"}},
              "b": {"kind": "expr", "expr": "1/i"}, "wanted": [1, 2, 3]}
    path = tmp_path / "tri141_system.json"
    path.write_text(json.dumps(system))
    code, out = run_main(capsys, "solve", path, "--route", "cramer",
                         "--max-size", 1024, "--quiet")
    assert code == 0
    x1 = json.loads(out)["result"]["unknowns"]["1"]
    assert x1["status"] == "converged"
    assert abs(x1["estimate"] - 0.2374007861516) <= 1e-12


def test_solve_inverse_route(capsys):
    code, out = run_main(capsys, "solve", SPECS / "perturbed_system.json",
                         "--route", "inverse", "--max-size", 64, "--quiet")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["result"]["unknowns"]["1"]["estimate"] - 2.0 / 3.0) <= 1e-9
    assert doc["result"]["residual"] <= 1e-6


def test_geometric_rank_one(capsys):
    code, out = run_main(capsys, "rank", SPECS / "geometric.json",
                         "--max-size", 64, "--quiet")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["rank"]["estimate"] == 1


def test_eig_reciprocal_diagonal(capsys):
    code, out = run_main(capsys, "eig", SPECS / "harmonic_diag.json",
                         "--interval", 0.4, 0.6, "--max-size", 64, "--quiet")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["count"] == 1
    root = doc["result"]["roots"][0]
    assert abs(root["lambda"] - 0.5) <= 1e-9
    assert root["stable"] is True
    assert root["vector"][1] == 1


def test_eig_empty_interval_ok(capsys):
    code, out = run_main(capsys, "eig", SPECS / "identity.json",
                         "--interval", 2.0, 3.0, "--max-size", 16, "--quiet")
    assert code == 0
    assert json.loads(out)["result"]["count"] == 0


def test_orth_infinite_geometric(capsys):
    code, out = run_main(capsys, "orth", SPECS / "taylor_exp_rows.json",
                         "--n", 4, "--quiet")
    assert code == 0
    doc = json.loads(out)
    gram = doc["result"]["gram"]
    assert abs(gram[0][0] - 1.0 / 3.0) <= 1e-9
    assert abs(gram[0][1] - 1.0 / 5.0) <= 1e-9
    assert abs(gram[1][1] - 1.0 / 8.0) <= 1e-9
    assert doc["result"]["max_offdiag_dot"] <= 1e-9


def test_transition_banded(capsys):
    code, out = run_main(capsys, "transition", SPECS / "basis_standard.json",
                         SPECS / "basis_shifted.json", "--n", 5,
                         "--max-size", 64, "--quiet")
    assert code == 0
    doc = json.loads(out)
    m = doc["result"]["matrix"]
    assert [m[i][i] for i in range(5)] == [1, 1, 1, 1, 1]
    assert [m[i + 1][i] for i in range(4)] == [1, 1, 1, 1]


def test_inv_infinite_section(capsys):
    code, out = run_main(capsys, "inv", SPECS / "perturbation.json",
                         "--n", 4, "--max-size", 64, "--quiet")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["result"]["matrix"][0][0] - 2.0 / 3.0) <= 1e-9
    assert doc["result"]["matrix"][1][1] == 1
    assert doc["result"]["residual"] <= 1e-8


def test_inv_stabilizes_the_leading_block_once(capsys, caplog):
    caplog.set_level(logging.INFO, logger="infmat")
    code, _ = run_main(capsys, "inv", SPECS / "perturbation.json", "--max-size", 64)
    assert code == 0
    steps = [r.getMessage().split()[2] for r in caplog.records
             if "block-max" in r.getMessage()]
    assert steps == ["size=8", "size=16", "size=32", "size=64"]


def test_inv_short_schedule_warns_once():
    proc = run_cli("inv", SPECS / "perturbation.json", "--max-size", "16", "--quiet")
    assert proc.returncode == 2
    assert proc.stderr.decode().count("the result cannot converge") == 1


def test_mul_geometric_section(capsys):
    code, out = run_main(capsys, "mul", SPECS / "geometric.json",
                         SPECS / "geometric.json", "--n", 3, "--quiet")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["overall_status"] == "converged"
    assert abs(doc["result"]["matrix"][0][0] - 1.0 / 12.0) <= 1e-8


def test_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out = run_main(capsys, "det", SPECS / "perturbation.json",
                         "--max-size", 64, "--output", target, "--quiet")
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["status"] == "ok"


def test_det_finite_dense_spec(tmp_path, capsys):
    spec = tmp_path / "dense.json"
    spec.write_text(json.dumps({"kind": "dense", "data": [[2.0, 1.0], [1.0, 3.0]]}))
    code, out = run_main(capsys, "det", spec, "--quiet")
    assert code == 0
    doc = json.loads(out)
    # a finite spec is its own one-size schedule: one exact elimination
    assert doc["result"]["route"] == "truncation-limit"
    assert doc["result"]["value"] == 5
    report = doc["result"]["report"]
    assert (report["status"], report["terms_used"], report["last_delta"]) == \
        ("converged", 1, 0)


def test_eig_finite_dense_spec(tmp_path, capsys):
    spec = tmp_path / "sym.json"
    spec.write_text(json.dumps({"kind": "dense", "data": [[2.0, 1.0], [1.0, 2.0]]}))
    code, out = run_main(capsys, "eig", spec, "--interval", 0, 4, "--quiet")
    assert code == 0
    doc = json.loads(out)
    assert [round(r["lambda"], 9) for r in doc["result"]["roots"]] == [1.0, 3.0]


def test_eig_shift_that_overflows_is_an_oracle_error_with_no_warning(tmp_path):
    spec = tmp_path / "huge.json"
    spec.write_text(json.dumps({"kind": "dense", "data": [[-1e308, 1, 0], [1, -1.5e308, 1],
                                                          [0, 1, 2]]}))
    proc = run_cli("eig", spec, "--interval", 0, 1e308, "--grid", 16)
    assert proc.returncode == 1 and proc.stderr == b""
    assert json.loads(proc.stdout)["error"] == {
        "code": "oracle-error",
        "message": "diagonal entry (2, 2) overflowed when shifted by "
                   "lambda = 3.333333333333333e+307"}


def test_solve_check_compat_flag(capsys):
    code, out = run_main(capsys, "solve", SPECS / "perturbed_system.json",
                         "--check-compat", "--max-size", 64, "--quiet")
    assert code == 0
    doc = json.loads(out)
    # full-rank truncations keep growing, so the rank comparison stays open
    assert doc["result"]["compatibility"]["verdict"] == "undetermined"


@pytest.mark.parametrize("route", ["cramer", "inverse"])
def test_solve_check_compat_reads_each_cell_once(route, capsys, monkeypatch):
    # the rank check reads the sections of A and the prefix of b that the
    # route already holds
    a_calls, b_calls = Counter(), Counter()

    def entry(i, j):
        a_calls[(i, j)] += 1
        return float(i == j) + 0.3 / (i + j + 1) ** 2.5

    def rhs(i):
        b_calls[i] += 1
        return 1.0 / i ** 2

    system = (MatrixSpec(INFINITE, INFINITE, entry),
              MatrixSpec(INFINITE, 1, lambda i, _: rhs(i)), None)
    monkeypatch.setattr(cli, "load_system_file", lambda path: system)
    _, out = run_main(capsys, "solve", "system.json", "--route", route,
                      "--check-compat", "--max-size", 128, "--quiet")
    assert "compatibility" in json.loads(out)["result"]
    assert set(a_calls.values()) == {1} and len(a_calls) == 128 ** 2
    assert b_calls == Counter(range(1, 129))


def test_solve_empty_wanted_is_a_schema_error(tmp_path, capsys):
    # the file is rejected at load, before either route runs
    system = json.loads((SPECS / "perturbed_system.json").read_text())
    path = tmp_path / "system.json"
    path.write_text(json.dumps(dict(system, wanted=[])))
    code, out = run_main(capsys, "solve", path, "--quiet")
    assert code == 1
    error = json.loads(out)["error"]
    assert error["code"] == "schema-error"
    assert "wanted must be a non-empty list" in error["message"]


def test_schedule_progress_lines_on_stderr():
    proc = run_cli("rank", SPECS / "geometric.json", "--max-size", 64)
    assert proc.returncode == 0
    assert b"schedule step" in proc.stderr
    quiet = run_cli("rank", SPECS / "geometric.json", "--max-size", 64, "--quiet")
    assert b"schedule step" not in quiet.stderr


def test_invalid_flag_values_give_config_error(capsys):
    code, out = run_main(capsys, "rank", SPECS / "geometric.json",
                         "--start", 0, "--quiet")
    assert code == 1
    assert json.loads(out)["error"]["code"] == "config-error"


def test_bad_wanted_flag(capsys):
    code, out = run_main(capsys, "solve", SPECS / "perturbed_system.json",
                         "--wanted", "1,x", "--max-size", 64, "--quiet")
    assert code == 1
    assert json.loads(out)["error"]["code"] == "schema-error"


@pytest.mark.parametrize("args,message", [
    (["eig", SPECS / "harmonic_diag.json", "--interval", 0.1, 0.6, "--grid", 0,
      "--max-size", 16], "grid_points must be >= 1, got 0"),
    (["inv", SPECS / "perturbation.json", "--n", 0, "--max-size", 16],
     "section sizes must be >= 1, got 0x0"),
    (["inv", SPECS / "perturbation.json", "--n", -3, "--max-size", 16],
     "section sizes must be >= 1, got -3x-3"),
])
def test_bad_eig_and_inv_sizes_are_config_errors(capsys, args, message):
    code, out = run_main(capsys, *args, "--quiet")
    assert code == 1
    assert json.loads(out)["error"] == {"code": "config-error", "message": message}


_EIG = ["eig", SPECS / "harmonic_diag.json", "--max-size", 64]


@pytest.mark.parametrize("args,message", [
    (_EIG + ["--interval", 0.4, 0.6, "--max-roots", 0], "max_roots must be >= 1, got 0"),
    (_EIG + ["--interval", 0.4, 0.6, "--max-roots", -2], "max_roots must be >= 1, got -2"),
    (_EIG + ["--interval", 0.4, 0.6, "--n", -3], "--n must be >= 0, got -3"),
    (_EIG + ["--interval", 0.4, "inf"], "interval endpoints must be finite, got [0.4, inf]"),
    (_EIG + ["--interval", 0.4, "nan"], "interval endpoints must be finite, got [0.4, nan]"),
    (["det", SPECS / "perturbation.json", "--tol", "inf"],
     "tol must be positive and finite, got inf"),
    (["det", SPECS / "perturbation.json", "--tol", "nan"],
     "tol must be positive and finite, got nan"),
])
def test_bad_eig_arguments_and_tol_are_config_errors(capsys, args, message):
    code, out = run_main(capsys, *args, "--quiet")
    assert code == 1
    assert json.loads(out)["error"] == {"code": "config-error", "message": message}


@pytest.mark.parametrize("args,message", [
    (_EIG + ["--interval", "-inf", 0.6], "argument --interval: expected 2 arguments"),
    (["det", SPECS / "geometric.json", "--bogus"], "unrecognized arguments: --bogus"),
    (["det", SPECS / "geometric.json", "--tol", "abc"],
     "argument --tol: invalid float value: 'abc'"),
    (["det"], "the following arguments are required: matrix"),
])
def test_usage_errors_are_config_error_documents(capsys, args, message):
    code, out = run_main(capsys, *args)
    assert code == 1
    assert json.loads(out) == {"error": {"code": "config-error", "message": message}}


@pytest.mark.parametrize("low", ["-1e-3", "-1E-3", "-1.e-3", "-.1e-2"])
def test_eig_takes_negative_endpoints_in_exponent_notation(capsys, low):
    # the same bytes as the plain decimal -0.001, the endpoint included
    want = run_main(capsys, *_EIG, "--interval", "-0.001", 0.6, "--quiet")
    assert json.loads(want[1])["config"]["interval"] == [-0.001, 0.6]
    assert run_main(capsys, *_EIG, "--interval", low, 0.6, "--quiet") == want


def test_one_parser_serves_every_call_in_a_process(capsys):
    good = _EIG + ["--interval", 0.4, 0.6, "--quiet"]
    first = run_main(capsys, *good)
    code, out = run_main(capsys, *good, "--grid", "x")
    assert code == 1
    assert json.loads(out) == {"error": {
        "code": "config-error", "message": "argument --grid: invalid int value: 'x'"}}
    assert run_main(capsys, *good) == first
    assert first[0] == 0


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["det", "--help"])
    assert exc.value.code == 0
    assert "usage: infmat det" in capsys.readouterr().out


def _family(path, count, vectors):
    path.write_text(json.dumps({"count": count, "vectors": vectors}))
    return path


def _dense_family(path, rows):
    return _family(path, len(rows), {"kind": "dense", "data": rows})


EYE3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


@pytest.mark.parametrize("old,new,n,message", [
    # two vectors of three coordinates cannot be a basis
    (lambda d: _dense_family(d / "b.json", [[1, 0, 0], [0, 1, 0]]),
     lambda d: _dense_family(d / "bp.json", EYE3), 2,
     "the old basis has 2 vectors of 3 coordinates; it needs one vector per coordinate"),
    # three new vectors asked of a family of two
    (lambda d: _dense_family(d / "b.json", EYE3),
     lambda d: _dense_family(d / "bp.json", [[1, 1, 0], [0, 1, 1]]), 3,
     "the new basis has 2 vectors, fewer than the 3 asked for"),
    # new vectors of two coordinates in a three-dimensional space
    (lambda d: _dense_family(d / "b.json", EYE3),
     lambda d: _dense_family(d / "bp.json", [[1, 1], [0, 1], [1, 0]]), 2,
     "the new basis has vectors of 2 coordinates, the old basis 3"),
    # three vectors of infinitely many coordinates
    (lambda d: _family(d / "b.json", 3, {"kind": "expr", "expr": "delta(i,j)"}),
     lambda d: SPECS / "basis_standard.json", 2,
     "the old basis has 3 vectors of INFINITE coordinates; it needs one vector per "
     "coordinate"),
])
def test_transition_families_that_do_not_fit_are_extent_mismatches(
        tmp_path, capsys, old, new, n, message):
    code, out = run_main(capsys, "transition", old(tmp_path), new(tmp_path), "--n", n,
                         "--max-size", 64, "--quiet")
    assert code == 1
    assert json.loads(out)["error"] == {"code": "extent-mismatch", "message": message}


def test_truncate_fact_of_overflow_is_an_eval_error(tmp_path, capsys):
    spec = tmp_path / "fact.json"
    spec.write_text(json.dumps({"rows": "inf", "cols": "inf", "kind": "expr",
                                "expr": "fact(exp(1000*i))"}))
    code, out = run_main(capsys, "truncate", spec, "--n", 3, "--quiet")
    assert code == 1
    assert json.loads(out)["error"] == {
        "code": "eval-error", "message": "fact requires a non-negative integer, got inf"}


# --- --output paths that cannot be written ---------------------------------------

@pytest.mark.parametrize("args", [
    ["det", SPECS / "identity.json", "--max-size", 64],
    ["truncate", SPECS / "derivative.json", "--n", 3, "--format", "csv"],
    ["det", "missing.json"],
], ids=["success", "csv", "error"])
@pytest.mark.parametrize("where", ["directory", "missing-directory"])
def test_unwritable_output_is_an_io_error_document(tmp_path, capsys, args, where):
    target = tmp_path if where == "directory" else tmp_path / "missing" / "out.json"
    code, out = run_main(capsys, *args, "--output", target, "--quiet")
    assert code == 1
    error = json.loads(out)["error"]
    assert error["code"] == "io-error" and str(target) in error["message"]


# --- malformed dense vectors -------------------------------------------------------

EYE2 = {"kind": "dense", "data": [[1, 0], [0, 1]]}


@pytest.mark.parametrize("command,obj", [
    ("solve", {"A": EYE2, "b": {"kind": "dense", "data": [1, "x"]}}),
    ("transition", {"count": 2, "vectors": {"kind": "dense", "data": [[1, 0], [0]]}}),
    ("transition", {"count": 2, "vectors": {"kind": "dense",
                                            "data": [[1, float("nan")], [0, 1]]}}),
], ids=["rhs-string", "family-ragged", "family-nan"])
def test_malformed_dense_vectors_are_schema_errors_naming_the_file(
        tmp_path, capsys, command, obj):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    args = [path] if command == "solve" else [path, path, "--n", 2]
    code, out = run_main(capsys, command, *args, "--quiet")
    assert code == 1
    error = json.loads(out)["error"]
    assert error["code"] == "schema-error"
    assert error["message"].startswith(f"{path}: ")


# --- mul --n --------------------------------------------------------------------

DENSE3 = {"kind": "dense", "data": [[2, 1, 0], [1, 3, 1], [0, 1, 4]]}


def test_mul_honours_n_on_a_finite_product(tmp_path, capsys):
    spec = tmp_path / "d3.json"
    spec.write_text(json.dumps(DENSE3))
    code, out = run_main(capsys, "mul", spec, spec, "--n", 2, "--quiet")
    assert code == 0
    assert json.loads(out)["result"]["matrix"] == [[5, 5], [5, 11]]


@pytest.mark.parametrize("spec", ["d3", "geometric", "ones"])
@pytest.mark.parametrize("n", [0, -2])
def test_mul_n_below_one_is_a_config_error(tmp_path, capsys, spec, n):
    path = tmp_path / "d3.json"
    path.write_text(json.dumps(DENSE3))
    if spec != "d3":
        path = SPECS / f"{spec}.json"
    code, out = run_main(capsys, "mul", path, path, "--n", n, "--quiet")
    assert code == 1
    assert json.loads(out)["error"] == {"code": "config-error",
                                        "message": f"--n must be >= 1, got {n}"}
