"""``scripts/series_bench.py`` sums the same series three ways, and the
three must give the same reports bit for bit.  The script is loaded from
its file, as ``python scripts/series_bench.py`` runs it, and measured at
a small size."""

import importlib.util
from pathlib import Path

from infmat.series import ConvergencePolicy

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "series_bench.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("series_bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_three_ways_give_the_same_reports():
    bench = _load_script()
    # a cap below the quiet window's stop: every series ends at the cap,
    # part way through a chunk of the batch
    for policy in (ConvergencePolicy(max_terms=300), ConvergencePolicy(max_terms=3000)):
        rows = bench.measure(side=3, policy=policy, repeat=1)
        assert [name for name, *_ in rows] == ["one at a time", "term runs", "batch"]
        want = [bench.report_bits(rep) for rep in rows[0][3]]
        assert len(want) == 9
        for name, steps, seconds, reports in rows:
            assert [bench.report_bits(rep) for rep in reports] == want, name
            assert steps == sum(bits[2] for bits in want) and seconds > 0
    statuses = {bits[1] for bits in want}
    assert statuses == {"converged"}
