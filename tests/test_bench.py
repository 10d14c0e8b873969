"""``scripts/bench.py`` computes each case of a layer two or three ways,
and every way must give its reference's bits.  The script is loaded from
its file, as ``python scripts/bench.py`` runs it, and measured at small
sizes."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from oracles import triple_loop_product

from infmat.errors import SingularSystemError
from infmat.matrix_core import clip_extent, truncate
from infmat.series import ConvergencePolicy, ConvergenceReport
from infmat.specio import matrix_from_obj

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench.py"
_spec = importlib.util.spec_from_file_location("bench", SCRIPT)
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

BANDS = (0, 1, 2)


def measured(layer, cases):
    """The ``(row, result)`` pairs of one run of each way."""
    return list(bench.measure([(layer, cases)], repeat=1))


def pairs(rows, kind):
    """The two ways of each case whose name starts with ``kind``."""
    rows = [pair for pair in rows if pair[0]["case"].startswith(kind)]
    return [rows[k:k + 2] for k in range(0, len(rows), 2)]


def test_two_ways_give_the_same_values():
    rows = pairs(measured("kernel", bench.kernel_cases(sizes=(1, 7, 20), grid=9)), "char")
    assert len(rows) == 3 * len(BANDS)
    for (scalar, want), (batched, got) in rows:
        assert (scalar["way"], batched["way"]) == ("scalar loop", "batched grid")
        assert scalar["case"] == batched["case"] and batched["seconds"] > 0
        assert len(want) == len(got) == scalar["units"] == 9
        assert bench.bits(got) == bench.bits(want) and batched["bits"] == "identical"
        assert np.any(np.array(want) != 0.0)


def test_echelon_two_ways_give_the_same_form():
    rows = pairs(measured("kernel", bench.kernel_cases(sizes=(1, 7, 20), grid=9)), "echelon")
    assert len(rows) == 3 * len(BANDS)
    for (numpy_way, (want_u, want_p)), (band_way, (u, p)) in rows:
        assert (numpy_way["way"], band_way["way"]) == ("numpy sweep", "band sweep")
        assert numpy_way["case"] == band_way["case"] and band_way["seconds"] > 0
        n = int(band_way["case"].split()[1][2:])
        assert p == want_p and len(p) == n == band_way["units"]
        assert np.array_equal(u.view(np.int64), want_u.view(np.int64))
        assert band_way["bits"] == "identical"
    # a difference in bits is one
    assert bench.bits((u, p)) != bench.bits((u, p[:-1]))
    assert bench.bits((u, p)) != bench.bits((np.where(u == 0.0, -0.0, u), p))


def test_three_ways_give_the_same_reports():
    # a cap below the quiet window's stop: every series ends at the cap,
    # part way through a chunk of the batch
    for policy in (ConvergencePolicy(max_terms=300), ConvergencePolicy(max_terms=3000)):
        rows = measured("series", bench.series_cases(side=3, policy=policy))
        assert [row["way"] for row, _ in rows] == ["one at a time", "term runs", "batch"]
        want = [bench.bits(rep) for rep in rows[0][1]]
        assert len(want) == 9
        for row, reports in rows:
            assert [bench.bits(rep) for rep in reports] == want, row["way"]
            assert row["units"] == sum(bits[2] for bits in want) and row["seconds"] > 0
            assert row["bits"] == "identical"
    statuses = {bits[1] for bits in want}
    assert statuses == {"converged"}


def test_block_read_batch_gives_the_scalar_reports():
    # the probe's series read as matmul reads them, against their scalar
    # terms; each run of the batch grows fresh readers
    policy = ConvergencePolicy(max_terms=3000)
    (case, _, count, ways), = bench.block_series_cases(side=3, policy=policy)
    assert case == "3x3 probe of mul, block reads" and [w for w, _ in ways] == [
        "one at a time", "batch"]
    rows = measured("series", iter([(case, "step", count, ways)]))
    want = [bench.bits(rep) for rep in rows[0][1]]
    assert len(want) == 9 and {bits[1] for bits in want} == {"converged"}
    for row, reports in rows:
        assert [bench.bits(rep) for rep in reports] == want, row["way"]
        assert row["units"] == sum(bits[2] for bits in want) and row["bits"] == "identical"
    # the product's own probe gives the same reports
    A, B = bench.mul_factors()
    probe = bench.matmul(A, B, policy).per_entry_reports
    assert [bench.bits(probe[(i, j)]) for i in range(1, 4) for j in range(1, 4)] == want


def test_orth_and_mul_ways_give_the_same_values():
    cases = (case for case in bench.oracle_cases(sizes=(6,))
             if case[0].startswith(("orth", "mul")))
    rows = measured("oracle", cases)
    orth, mul = "orth A' of POLY_ROWS4 4x12", "mul 6x6 of dense 6x6 squared"
    assert [(row["case"], row["way"]) for row, _ in rows] == [
        (orth, "entry"), (orth, "block"), (orth, "section"),
        (mul, "whole product"), (mul, "lazy product")]
    for row, result in rows:
        assert result.shape == ((4, 12) if row["case"] == orth else (6, 6))
        assert row["units"] == result.size and row["bits"] == "identical"
        assert bench.bits(result) == bench.bits(rows[0 if row["case"] == orth else 3][1])
    # the reference is the naive triple loop of the dense factor
    dense = truncate(matrix_from_obj({"rows": "inf", "cols": "inf", "kind": "expr",
                                      "expr": bench.DENSE_EXPR}), 6, 6).data
    assert bench.bits(rows[3][1]) == bench.bits(triple_loop_product(dense, dense))



def test_probe_reads_give_the_scalar_cells():
    rows = measured("oracle", bench.probe_read_cases(side=3, along=5, first=700, orth_cols=7))
    assert [(row["case"], row["way"]) for row, _ in rows] == [
        (case, way) for case in ("probe 3x5 of A from 700", "probe 5x3 of B from 700",
                                 "POLY_ROWS4 4x7 read") for way in ("scalar", "block")]
    A, B = bench.mul_factors()
    for (scalar, want), (block, got), shape, (i, j), spec in zip(
            rows[::2], rows[1::2], ((3, 5), (5, 3), (4, 7)), ((1, 700), (700, 1), (1, 1)),
            (A, B, matrix_from_obj(bench.POLY_ROWS4))):
        assert want.shape == shape and block["units"] == want.size
        assert bench.bits(np.ascontiguousarray(got)) == bench.bits(want)
        assert block["bits"] == "identical" and want[0, 0] == spec.entry(i, j)

def test_band_fill_gives_the_scalar_cells():
    rows = measured("truncation", bench.truncation_cases(sizes=(1, 5, 40)))
    assert [(row["case"], row["way"]) for row, _ in rows] == [
        (f"{name} band rows n={n}", way) for name in ("tridiagonal", "pentadiagonal")
        for n in (1, 5, 40) for way in ("scalar", "band fill")]
    for (scalar, want), (fill, got) in zip(rows[::2], rows[1::2]):
        width = 3 if scalar["case"].startswith("tri") else 5
        n = int(scalar["case"].split("=")[1])
        assert got.shape == want.shape == (n, width) and fill["units"] == n * width
        assert bench.bits(got) == bench.bits(want) and fill["bits"] == "identical"
        assert fill["seconds"] > 0
    # the cells inside the section hold the bands' values, the others 0.0
    tri = rows[5][1]
    assert tri[0, 0] == 0.0 and tri[-1, -1] == 0.0 and tri[1, 0] == 0.21
    assert tri[0, 1] == 0.05 + 0.9


def test_block_fill_grows_the_scalar_sections():
    rows = measured("truncation", bench.growth_cases(steps=(1, 3, 8, 20)))
    assert [(row["case"], row["way"]) for row, _ in rows] == [
        (f"{name} n=1..20", way) for name in ("golden DENSE_EXPR", "finite-support 384x384")
        for way in ("scalar", "block fill")]
    for (scalar, want), (fill, got) in zip(rows[::2], rows[1::2]):
        assert got.shape == want.shape == (20, 20) and fill["units"] == 400
        assert bench.bits(got) == bench.bits(want) and fill["bits"] == "identical"
        assert fill["seconds"] > 0
    # the grown section is the one truncate fills at once
    golden = matrix_from_obj({"rows": "inf", "cols": "inf", "kind": "expr",
                              "expr": bench.DENSE_EXPR})
    assert bench.bits(rows[1][1]) == bench.bits(truncate(golden, 20, 20).data)


def test_scalar_twin_of_every_timed_formula():
    names = []
    for name, obj in bench.formulas():
        spec = matrix_from_obj(obj)
        twin = bench.scalar_twin(spec)
        assert spec.block is not None and twin.block is None, name
        assert twin.entry is spec.entry, name
        m, n = clip_extent(spec.rows, 24), clip_extent(spec.cols, 24)
        assert np.array_equal(truncate(twin, m, n).data.view(np.int64),
                              truncate(spec, m, n).data.view(np.int64)), name
        names.append(name)
    assert names[:3] == ["golden DENSE_EXPR", "finite-support 384x384", "dense 512x512"]


def test_main_reports_identical_values(capsys, monkeypatch):
    monkeypatch.setattr(bench, "layers", lambda: [
        ("oracle", bench.oracle_cases(sizes=(6,))),
        ("truncation", bench.truncation_cases(sizes=(6,))),
        ("truncation", bench.growth_cases(steps=(2, 6))),
        ("series", bench.series_cases(side=2, policy=ConvergencePolicy(max_terms=500))),
        ("series", bench.block_series_cases(side=2, policy=ConvergencePolicy(max_terms=500))),
        ("kernel", bench.kernel_cases(sizes=(6,), grid=5))])
    assert bench.main() == 0
    lines = capsys.readouterr().out.splitlines()
    # two ways per formula, term case, banded spec, grown spec, block-read
    # series case and kernel case; three for A' and the table-fed series,
    # two for mul
    cases = len(list(bench.formulas())) + 1 + 2 + 2 + 1 + 2 * len(BANDS)
    ways = 2 * cases + 3 + 3 + 2
    assert len(lines) == 2 + ways
    body = lines[1:-1]
    assert [line.split()[0] for line in body] == (
        ["oracle"] * (2 * (cases - 5 - 2 * len(BANDS)) + 5) + ["truncation"] * 8
        + ["series"] * 5 + ["kernel"] * 4 * len(BANDS))
    assert sum(line.split()[1] == "echelon" for line in body) == 2 * len(BANDS)
    assert all(line.endswith("identical") for line in body)
    record = json.loads(lines[-1])
    assert set(record) == {"revision", "machine", "numpy", "rows"}
    assert record["numpy"] == np.__version__ and len(record["rows"]) == ways
    assert {"layer", "case", "way", "seconds", "us_per_unit", "bits"} <= set(record["rows"][0])


FORM = bench.echelon(bench.band_rows(bench.section(6, 1), (1, 1)), 1e-10)


@pytest.mark.parametrize("want, got", [
    (np.array([0.0, 1.0]), np.array([-0.0, 1.0])),
    (ConvergenceReport(0.5, "converged", 40, 0.0), ConvergenceReport(0.5, "converged", 40, -0.0)),
    (FORM, (FORM[0], FORM[1][:-1])),
], ids=["array", "report", "echelon"])
def test_main_exits_1_on_a_difference(capsys, monkeypatch, want, got):
    monkeypatch.setattr(bench, "layers", lambda: [("planted", [
        ("one case", "item", lambda result: 1,
         [("reference", lambda: want), ("other", lambda: got)])])])
    assert bench.main() == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].endswith("identical") and lines[-2].endswith("DIFFER")
    assert [row["bits"] for row in json.loads(lines[-1])["rows"]] == ["identical", "DIFFER"]


def test_log_series_rows_count_the_terms_of_the_golden_sections():
    rows = measured("kernel", bench.log_series_cases(sizes=(1, 8, 30)))
    assert [(row["case"], row["way"]) for row, _ in rows] == [
        (f"log-series det n={n}", "paired powers") for n in (1, 8, 30)]
    golden = matrix_from_obj({"rows": "inf", "cols": "inf", "kind": "expr",
                              "expr": bench.DENSE_EXPR})
    for (row, rep), n in zip(rows, (1, 8, 30)):
        assert rep.route == "log-series" and rep.report.converged
        assert row["unit"] == "term" and row["units"] == rep.log_terms_used > 1
        assert row["us_per_unit"] == 1e6 * row["seconds"] / row["units"] > 0
        assert row["bits"] == "identical" and row["noisy"] in (False, True)
        assert rep.value == pytest.approx(np.linalg.det(truncate(golden, n, n).data),
                                          rel=1e-12)


@pytest.mark.parametrize("ticks, noisy", [
    ([0.0, 1.0, 1.0, 2.05, 2.05, 3.0], False),  # runs 1.0, 1.05, 0.95
    ([0.0, 1.0, 1.0, 2.0, 2.0, 3.11], True),  # a run 11% above the median
    ([0.0, 1.0, 1.0, 1.85, 1.85, 2.85], True),  # a run 15% below it
], ids=["steady", "slow run", "fast run"])
def test_a_row_is_noisy_when_a_run_strays_from_the_median(monkeypatch, ticks, noisy):
    clock = iter(ticks)
    monkeypatch.setattr(bench, "time", SimpleNamespace(perf_counter=lambda: next(clock)))
    (row, result), = bench.measure([("planted", [
        ("one case", "item", lambda result: 2, [("only", lambda: 7.0)])])], repeat=3)
    assert result == 7.0 and row["noisy"] is noisy
    assert row["seconds"] == min(b - a for a, b in zip(ticks[::2], ticks[1::2]))
    assert row["bits"] == "identical"


def test_main_lists_the_log_series_rows(capsys, monkeypatch):
    monkeypatch.setattr(bench, "layers", lambda: [
        ("kernel", bench.kernel_cases(sizes=(6,), grid=5)),
        ("kernel", bench.log_series_cases(sizes=(4, 9)))])
    assert bench.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 + 4 * len(BANDS) + 2
    assert [line.split()[1:3] for line in lines[-3:-1]] == [["log-series", "det"]] * 2
    record = json.loads(lines[-1])
    assert [row["case"] for row in record["rows"][-2:]] == [
        "log-series det n=4", "log-series det n=9"]
    assert all(isinstance(row["noisy"], bool) for row in record["rows"])


def test_dense_kernel_rows_time_the_golden_sections():
    sizes = (1, 8, 70)
    rows = measured("kernel", bench.dense_kernel_cases(sizes=sizes))
    assert [(row["case"], row["way"]) for row, _ in rows] == [
        (f"dense {kernel} n={n}", "sweep") for n in sizes
        for kernel in ("lu_det", "echelon", "gauss_solve")]
    golden = matrix_from_obj({"rows": "inf", "cols": "inf", "kind": "expr",
                              "expr": bench.DENSE_EXPR})
    for (det_row, det), (form_row, (u, pivots)), (solve_row, x) in zip(*[iter(rows)] * 3):
        n = det_row["units"]
        a = truncate(golden, n, n).data
        for row in (det_row, form_row, solve_row):
            assert row["unit"] == "pivot" and row["units"] == n and row["bits"] == "identical"
            assert row["us_per_unit"] == 1e6 * row["seconds"] / n > 0
        # only the determinant's rows carry its gap to slogdet
        assert det == pytest.approx(np.linalg.det(a), rel=1e-12)
        assert 0.0 <= det_row["slogdet_gap"] <= 1e-12 and "slogdet_gap" not in form_row
        assert pivots == list(range(n)) and u.shape == (n, n)
        assert np.allclose(a @ x, 1.0 / np.arange(1, n + 1) ** 2, rtol=0.0, atol=1e-14)


def test_skipped_column_rows_pair_each_case_with_one_that_pivots():
    rows = measured("kernel", bench.skipped_column_cases(n=70))
    assert [(row["case"], row["way"]) for row, _ in rows] == [
        ("dense echelon n=70 intact", "sweep"), ("dense echelon n=70 col 1 zero", "sweep"),
        ("col-1 char n=70 x=1.0", "char_value"), ("col-1 char n=70 x=1.000000001", "char_value")]
    (intact, (_, pivots)), (zeroed, (u, skipped)), (root, at), (near, off) = rows
    assert pivots == list(range(70)) and skipped == list(range(1, 70))
    assert (intact["units"], zeroed["units"]) == (70, 69) and not u[:, 0].any()
    assert at == 0.0 and off != 0.0 and root["units"] == near["units"] == 1
    assert all(row["bits"] == "identical" for row, _ in rows)


def test_the_timed_checkout_is_the_argument(tmp_path):
    root = SCRIPT.parent.parent
    assert bench.SOURCE == bench.source_root([]) == root
    assert bench.source_root([str(root)]) == root
    with pytest.raises(SystemExit, match="no src/infmat"):
        bench.source_root([str(tmp_path)])
    # a command-line run reads its argument before it imports the package
    proc = subprocess.run([sys.executable, str(SCRIPT), str(tmp_path)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1 and "no src/infmat" in proc.stderr and not proc.stdout


def test_compat_rows_time_the_ranks_of_the_golden_system():
    sizes = (8, 16)
    rows = measured("solve", bench.compat_cases(sizes=sizes))
    assert [(row["case"], row["way"]) for row, _ in rows] == [
        (f"cramer compatibility max-size={n}", "solve + ranks") for n in sizes]
    for (row, rep), n in zip(rows, sizes):
        # the golden section is full rank at every size, so no rank settles
        assert rep.verdict == row["verdict"] == "undetermined"
        assert rep.rank_A.estimate == rep.rank_Ab.estimate == row["rank_Ab"] == n
        assert row["unit"] == "size"
        assert row["units"] == len(bench.TruncationSchedule(max_size=n).sizes())
        assert row["bits"] == "identical" and row["us_per_unit"] > 0


def test_eig_rows_record_the_verdict_roots_and_stable_flags():
    # at max-size 8 both specs' roots are found, and each refine row reads
    # the roots of eig's sign changes off the same grid
    interval, schedule = (0.5, 1.5), bench.TruncationSchedule(max_size=8)
    rows = measured("eig", bench.eig_cases(max_size=8, grid=64, interval=interval))
    assert [(row["case"], row["way"]) for row, _ in rows] == [
        (f"{name} {kind} max-size=8", way) for name in ("tridiagonal", "pentadiagonal")
        for kind, way in (("eig", "find_eigenvalues"), ("refine", "refine"))]
    for (row, pairs), (refine, (roots, values)), bands in zip(
            rows[::2], rows[1::2], (bench.TRI_BANDS, bench.PENTA_BANDS)):
        assert row["unit"] == "op" and row["units"] == 1 and row["bits"] == "identical"
        assert row["us_per_unit"] == 1e6 * row["seconds"] > 0
        spec = matrix_from_obj({"rows": "inf", "cols": "inf", "kind": "banded", "bands": bands})
        want = bench.find_eigenvalues(spec, interval, schedule, grid_points=64)
        assert row["verdict"] == "ok" and len(want) >= 2
        assert row["roots"] == [p.lam for p in pairs] == [p.lam for p in want]
        assert row["stable"] == [p.stable for p in want]
        # no grid value is 0, so every root is a refined sign change
        assert refine["roots"] == roots == row["roots"]
        assert refine["unit"] == "value" and refine["units"] == values > len(roots)
        assert refine["values_per_root"] == values / len(roots)
        assert refine["us_per_unit"] == 1e6 * refine["seconds"] / values
    error = SingularSystemError("no null direction at size 8")
    assert bench.eig_verdict(error) == {
        "verdict": f"SingularSystemError: {error}", "roots": [], "stable": []}
    json.dumps([row for row, _ in rows])


def test_parent_comparison_alternates_rounds_and_reads_both_sides(capsys, tmp_path):
    # a stub layer whose seconds name the side and the round: each round
    # runs both sides, the order swapped every round
    calls = []

    def run(checkout, names):
        calls.append(checkout)
        side = 1.0 if checkout == tmp_path else 2.0
        rows = [{"layer": "stub", "case": "one case", "way": way, "seconds": side * len(calls),
                 "bits": "identical"} for way in ("reference", "other")]
        if len(calls) == 6 and checkout != tmp_path:
            rows[1]["bits"] = "DIFFER"
        return rows

    assert bench.compare(tmp_path, 3, ["stub"], run=run) == 1
    this = bench.SOURCE
    assert calls == [tmp_path, this, this, tmp_path, tmp_path, this]
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4 and lines[1].split()[:4] == ["stub", "one", "case", "reference"]
    record = json.loads(lines[-1])
    assert record["rounds"] == 3 and {"revision", "parent", "machine", "rows"} <= set(record)
    reference, other = record["rows"]
    # parent runs were calls 1, 4 and 5; this side's 2, 3 and 6, at twice the seconds
    assert (reference["parent_min"], reference["parent_median"]) == (1.0, 4.0)
    assert (reference["this_min"], reference["this_median"]) == (4.0, 6.0)
    assert reference["ratio"] == 1.5 and reference["bits"] == "identical"
    assert other["bits"] == "DIFFER" and lines[2].endswith("DIFFER")


def test_layers_can_be_chosen_and_parsed():
    opts = bench.options(["--parent", "p", "--rounds", "4", "--layer", "series",
                          "--layer", "render"])
    assert (opts.parent, opts.rounds, opts.layers, opts.checkout) == (
        "p", 4, ["series", "render"], None)
    assert bench.options([]).layers is None and bench.options(["x"]).checkout == "x"
    assert "render" in [layer for layer, _ in bench.layers()]


def test_render_rows_give_the_reference_bytes():
    rows = measured("render", bench.render_cases(sizes=(3, 5), csv_size=4))
    assert [(row["case"], row["way"]) for row, _ in rows] == [
        (case, way) for case, ways in (
            ("mul document 64 reports", ("reference", "render_document")),
            ("truncate 3x3 document", ("reference", "render_document")),
            ("truncate 5x5 document", ("reference", "render_document")),
            ("csv 4x4 section", ("reference", "render_csv"))) for way in ways]
    assert all(row["bits"] == "identical" for row, _ in rows)
    (_, mul), (_, text) = rows[0], rows[2]
    assert json.loads(mul)["result"]["overall_status"] == "converged"
    assert json.loads(text)["result"]["matrix"][0][0] == 2.0  # 1 + delta(1, 1)
    for row, _ in rows[2:6]:
        assert 0.0 < row["render_share"] < 1.0 and row["command_s"] > 0.0
    assert rows[6][1].count("\n") == 4 and rows[6][0]["units"] == 16
