"""The example scripts run end to end as ``python scripts/<name>.py``.

Each is started as its own process, as a reader would run it, and must
exit 0 and print one known line of its table, or, for ``cli_digest.py``,
lines of its documented form.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"
BENCHMARK = ROOT / "BENCHMARK.json"


@pytest.mark.parametrize("script,line", [
    # d/dx maps the exponential's Taylor coefficients to themselves
    ("derivative_demo.py",
     "  2                    0.5                    0.5                    0.5"),
    # the perturbed identity's determinant settles once the schedule is long enough
    ("truncation_study.py",
     "identity + 0.5 at (1,1)      det                     1.5 [undet]        "
     "        1.5 [conve]                1.5 [conve]"),
])
def test_script_runs_and_prints_its_table(script, line):
    proc = subprocess.run([sys.executable, str(SCRIPTS / script)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert line in proc.stdout.splitlines()


def test_cli_digest_prints_one_line_per_workload_seed_and_kind():
    # counts and digests follow the benchmark's workloads, so only the
    # format and the (workload, seed) coverage are pinned
    workloads = {w["name"] for w in json.loads(BENCHMARK.read_text())["workloads"]}
    proc = subprocess.run([sys.executable, str(SCRIPTS / "cli_digest.py")],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    line = re.compile(r"(\S+) seed (\d+) (\S+) ops ([1-9]\d*) ([0-9a-f]{64})")
    matches = [line.fullmatch(text) for text in proc.stdout.splitlines()]
    assert matches and all(matches)
    seen = {(m[1], int(m[2])) for m in matches}
    assert seen == {(w, seed) for w in workloads for seed in (1, 2, 3)}
    assert len({(m[1], m[2], m[3]) for m in matches}) == len(matches)
