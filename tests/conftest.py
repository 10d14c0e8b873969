import logging
import os
from pathlib import Path

from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

# schedule-step progress lines are noise under pytest
logging.getLogger("infmat").setLevel(logging.WARNING)

# CLI runs in subprocesses import the package from this checkout's src/,
# as pytest's own pythonpath setting does for the test process
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
