"""The example scripts run end to end as ``python scripts/<name>.py``.

Each is started as its own process, as a reader would run it, and must
exit 0 and print one known line of its table.
"""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("script,line", [
    # d/dx maps the exponential's Taylor coefficients to themselves
    ("derivative_demo.py",
     "  2                    0.5                    0.5                    0.5"),
    # the perturbed identity's determinant settles once the schedule is long enough
    ("truncation_study.py",
     "identity + 0.5 at (1,1)      det             1.500000001 [undet]        "
     "1.500000001 [conve]        1.500000001 [conve]"),
])
def test_script_runs_and_prints_its_table(script, line):
    proc = subprocess.run([sys.executable, str(SCRIPTS / script)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert line in proc.stdout.splitlines()
