"""One benchmark process: set-up, then a closed loop of CLI operations.

run.py starts this script in a fresh interpreter, from the root of the
checkout, with the BLAS thread count already in the environment.
Set-up imports infmat from ``src/`` and writes the seeded specs; the
process then reports the moment it is ready for its first operation.
Unless ``--setup-only`` is given, one client calls
``infmat.cli.main([..., '--quiet'])`` for each operation in the seeded
order, sending the next one only after the previous one returned.  The
run is the fixed list of operations that ``workloads.op_count`` sizes
to about ``--seconds``, so the operations attempted and their verdicts
depend on the seed and ``--seconds`` only.  Two guards keep a run within its time limit
on a much slower program: an operation that runs past ``OP_TIMEOUT_S``
is stopped and counts as failed, and no operation starts later than
``LOOP_LIMIT_S`` after set-up.  Answers are checked against
``reference.py`` after the loop, so checking does not count as
operation time.

With ``--trace 1`` the list is sized to half of ``--seconds`` and runs
untraced, then the same operations run again with the layer tracer
installed.  Layer numbers come from the traced pass; the tracing
overhead is the traced median latency minus the untraced one over those
operations.
"""

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass

# No operation starts later than this many seconds after set-up, so that
# a run ends well inside its 180 s limit even on a far slower program.
LOOP_LIMIT_S = 110.0


class OperationTimeout(BaseException):
    """Raised by SIGALRM when an operation outlives its cap.

    A BaseException, so that no ``except Exception`` inside infmat can
    swallow it.
    """


def _on_alarm(signum, frame):
    raise OperationTimeout


@dataclass
class Record:
    op: int
    seconds: float
    exit_code: int | None
    output: str
    error: str | None = None


def run_loop(ops, cli_main, timeout, deadline, tracer=None):
    """Closed loop: one client, the next call only after the previous one.

    Runs ``ops`` in order, each once; each call is stopped after
    ``timeout`` seconds and none starts after ``deadline``.
    """
    records = []
    signal.signal(signal.SIGALRM, _on_alarm)
    start = time.perf_counter()
    for k, op in enumerate(ops):
        if time.perf_counter() > deadline:
            break
        if tracer is not None:
            tracer.begin_op(k)
        buf = io.StringIO()
        t0 = time.perf_counter()
        error = None
        try:
            signal.setitimer(signal.ITIMER_REAL, timeout)
            with contextlib.redirect_stdout(buf):
                code = cli_main(op.argv + ["--quiet"])
            signal.setitimer(signal.ITIMER_REAL, 0)
        except OperationTimeout:
            code, error = None, f"timeout after {timeout} s"
        except Exception as exc:  # a raise is a failed operation, not a crash
            code, error = None, f"raised {type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        records.append(Record(k, time.perf_counter() - t0, code, buf.getvalue(), error))
    if tracer is not None:
        tracer.finish()
    return records, time.perf_counter() - start


def judge(records, ops):
    """Verdict of each record: ok, failed (with reason) and wrong answers."""
    import reference

    return [_judge_one(rec, ops[rec.op], reference) for rec in records]


def _judge_one(rec, op, reference):
    if rec.error is not None:
        return {"ok": False, "wrong": False, "reason": rec.error}
    doc = json.loads(rec.output)
    if rec.exit_code not in (0, 2):
        return {"ok": False, "wrong": False,
                "reason": f"exit {rec.exit_code}: {doc.get('error', {}).get('code')}: "
                          f"{doc.get('error', {}).get('message')}"}
    v = reference.check(op, doc)
    return {"ok": not v.wrong, "wrong": v.wrong, "reason": v.reason,
            "checked": v.checked, "skipped": v.skipped}


def p50(records, verdicts, wall):
    """Median latency; a failed operation counts as +inf.

    When the median falls on a failure, the loop's wall time is reported
    instead: it bounds every successful latency, so fixing a failure can
    only lower the figure.
    """
    lat = sorted(r.seconds if v["ok"] else math.inf for r, v in zip(records, verdicts))
    mid = statistics.median(lat)
    return mid if math.isfinite(mid) else wall


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, help="result file (JSON)")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes")
    args = parser.parse_args(argv)

    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    import numpy
    import infmat.cli
    import workloads

    if not os.path.abspath(infmat.__file__).startswith(os.path.join(root, "src") + os.sep):
        sys.exit(f"infmat imported from {infmat.__file__}, not from {root}/src")
    spec_dir = f"{args.out}.specs"
    count = workloads.op_count(args.workload, args.seconds / 2 if args.trace else args.seconds,
                               args.smoke)
    ops = workloads.build(args.workload, args.seed, spec_dir, count, smoke=args.smoke)
    ready = time.perf_counter()
    result = {"ready": ready}
    if args.setup_only:
        shutil.rmtree(spec_dir)
        _write(args.out, result)
        return 0

    timeout = workloads.OP_TIMEOUT_S
    deadline = ready + LOOP_LIMIT_S
    records, wall = run_loop(ops, infmat.cli.main, timeout, deadline)
    verdicts = judge(records, ops)
    ok = sum(v["ok"] for v in verdicts)
    result.update({
        "numpy": numpy.__version__,
        "blas": numpy.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name"),
        "attempted": len(records),
        "failed": len(records) - ok,
        "wrong": sum(v["wrong"] for v in verdicts),
        "checked": sum(v.get("checked", 0) for v in verdicts),
        "skipped_checks": sum(v.get("skipped", 0) for v in verdicts),
        "ops": [{"op": r.op, "kind": ops[r.op].kind, "seconds": r.seconds,
                 "exit": r.exit_code, **v} for r, v in zip(records, verdicts)],
        "metrics": {
            "ops_per_s": [ok / wall, "1/s"],
            "op_s.p50": [p50(records, verdicts, wall), "s"],
            "op_s.samples": [len(records), "count"],
            "ok_frac": [ok / len(records), "ratio"],
            "failed_frac": [(len(records) - ok) / len(records), "ratio"],
        },
    })
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        traced, _ = run_loop(ops[:len(records)], tracer.span("cli.main", infmat.cli.main),
                             timeout, deadline, tracer=tracer)
        # tracing must not change an answer; a timeout depends on speed only
        changed = [r.op for r, t in zip(records, traced)
                   if (r.output, r.error) != (t.output, t.error)
                   and not any(e and e.startswith("timeout") for e in (r.error, t.error))]
        if changed:
            result["wrong"] += len(changed)
            result["traced_output_differs"] = changed
        p_untraced = statistics.median(r.seconds for r in records[:len(traced)])
        p_traced = statistics.median(r.seconds for r in traced)
        result["metrics"] = {name: list(v) for name, v in tracer.metrics().items()}
        result["metrics"].update({
            "trace.ops": [len(traced), "count"],
            "trace.op_s.p50": [p_traced, "s"],
            "trace.overhead_s": [p_traced - p_untraced, "s"],
        })
        tracer.write(f"{args.out}.spans.jsonl.gz")
    # ru_maxrss is in KiB on Linux
    result["metrics"]["peak_rss_mb"] = [
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"]
    shutil.rmtree(spec_dir)
    _write(args.out, result)
    return 0


def _write(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1)


if __name__ == "__main__":
    sys.exit(main())
