#!/usr/bin/env python3
"""One digest per benchmark run of the CLI's stdout, stderr and exit codes.

Builds every operation of the three perfbench workloads (dense-truncation,
banded-spectral, series-sums) at seeds 1-3, with the operation count of a
30-second benchmark run, and runs each one in-process through
``infmat.cli.main`` with ``--quiet``, as the benchmark worker does.  The
spec files are written into a temporary directory, which is also the
working directory of the runs, so the paths in every output are the same
from one checkout to the next.  Prints one line per (workload, seed,
operation kind), ``<workload> seed <seed> <kind> ops <count> <digest>``:
the number of operations of that kind and the SHA-256 of their stdout,
stderr and exit code (or raised exception), in order.  Two checkouts
print the same lines exactly when every operation gives the same bytes.

    python scripts/cli_digest.py
"""

import contextlib
import hashlib
import io
import logging
import os
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402  (from perfbench/, put on the path above)

from infmat.cli import main  # noqa: E402

SEEDS = (1, 2, 3)
RUN_SECONDS = 30


class _CurrentStderr:
    """Log stream that writes to whatever ``sys.stderr`` is at the time, so
    each operation's log lines land in that operation's capture."""

    def write(self, text):
        return sys.stderr.write(text)

    def flush(self):
        sys.stderr.flush()


def _run(argv) -> bytes:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = repr(main(argv + ["--quiet"]))
        except Exception as exc:  # a raise is an outcome to compare, too
            code = f"raised {type(exc).__name__}: {exc}"
    return "\0".join((out.getvalue(), err.getvalue(), code, "")).encode()


def main_digest() -> int:
    # the handler cli.main would install, bound to the current stderr
    logging.basicConfig(stream=_CurrentStderr(), level=logging.INFO,
                        format="%(message)s")
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for workload in sorted(workloads.WORKLOADS):
                count = workloads.op_count(workload, RUN_SECONDS)
                for seed in SEEDS:
                    ops = workloads.build(workload, seed, f"{workload}-{seed}", count)
                    digests, counts = {}, Counter(op.kind for op in ops)
                    for op in ops:
                        digests.setdefault(op.kind, hashlib.sha256()).update(_run(op.argv))
                    for kind in sorted(digests):
                        print(f"{workload} seed {seed} {kind} ops {counts[kind]} "
                              f"{digests[kind].hexdigest()}", flush=True)
        finally:
            os.chdir(cwd)
    return 0


if __name__ == "__main__":
    sys.exit(main_digest())
