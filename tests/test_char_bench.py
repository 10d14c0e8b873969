"""``scripts/char_bench.py`` evaluates the same grid of characteristic
values two ways, and the two must agree bit for bit.  The script is
loaded from its file, as ``python scripts/char_bench.py`` runs it, and
measured at a small size."""

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


def test_main_reports_identical_values(capsys, monkeypatch):
    bench = _load_script()
    small = bench.measure
    monkeypatch.setattr(bench, "measure", lambda: small(sizes=(6,), grid=5, repeat=1))
    assert bench.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 + 2 * len(bench.BANDS)
    assert all(line.endswith("identical") for line in lines[1:])
