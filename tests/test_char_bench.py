"""``scripts/char_bench.py`` evaluates the same grid of characteristic
values two ways, and the same echelon form two ways, and the two ways must
agree bit for bit.  The script is loaded from its file, as ``python
scripts/char_bench.py`` runs it, and measured at a small size."""

import importlib.util
from pathlib import Path

import numpy as np

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "char_bench.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("char_bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_two_ways_give_the_same_values():
    bench = _load_script()
    rows = bench.measure(sizes=(1, 7, 20), grid=9, repeat=1)
    assert len(rows) == 3 * len(bench.BANDS) * 2
    for k in range(0, len(rows), 2):
        (n, band, scalar, _, want), (n2, band2, batched, seconds, got) = rows[k:k + 2]
        assert (scalar, batched) == ("scalar loop", "batched grid")
        assert (n, band) == (n2, band2) and seconds > 0
        assert want.size == got.size == 9
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert np.any(want != 0.0)


def test_echelon_two_ways_give_the_same_form():
    bench = _load_script()
    rows = bench.measure_echelon(sizes=(1, 7, 20), repeat=1)
    assert len(rows) == 3 * len(bench.BANDS) * 2
    for k in range(0, len(rows), 2):
        (n, band, numpy_way, _, (want_u, want_p)), (n2, band2, band_way, seconds, (u, p)) = \
            rows[k:k + 2]
        assert (numpy_way, band_way) == ("numpy sweep", "band sweep")
        assert (n, band) == (n2, band2) and seconds > 0
        assert p == want_p and len(p) == n
        assert np.array_equal(u.view(np.int64), want_u.view(np.int64))
    # a difference in bits is one
    u, p = rows[-1][4]
    assert not bench._same((u, p), (u, p[:-1]))
    assert not bench._same((u, p), (np.where(u == 0.0, -0.0, u), p))


def test_main_reports_identical_values(capsys, monkeypatch):
    bench = _load_script()
    small, small_echelon = bench.measure, bench.measure_echelon
    monkeypatch.setattr(bench, "measure", lambda: small(sizes=(6,), grid=5, repeat=1))
    monkeypatch.setattr(bench, "measure_echelon", lambda: small_echelon(sizes=(6,), repeat=1))
    assert bench.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 + 4 * len(bench.BANDS)
    assert lines[1 + 2 * len(bench.BANDS)].split()[2] == "echelon"
    body = lines[1:1 + 2 * len(bench.BANDS)] + lines[2 + 2 * len(bench.BANDS):]
    assert all(line.endswith("identical") for line in body)


def test_main_exits_1_on_a_difference(capsys, monkeypatch):
    bench = _load_script()
    small_echelon = bench.measure_echelon
    monkeypatch.setattr(bench, "measure", lambda: [])

    def one_differs():
        rows = small_echelon(sizes=(6,), bands=(1,), repeat=1)
        n, band, name, seconds, (u, p) = rows[-1]
        return rows[:-1] + [(n, band, name, seconds, (u, p[:-1]))]

    monkeypatch.setattr(bench, "measure_echelon", one_differs)
    assert bench.main() == 1
    assert capsys.readouterr().out.splitlines()[-1].endswith("DIFFER")
