"""Benchmark runner for infmat's truncation-limit pipeline.

Run from the root of a checkout:

    python3 perfbench/run.py --workload dense-truncation --seed 1 --seconds 30 --trace 0

The workloads are described in workloads.py and README.md.  Each run
starts fresh interpreters (worker.py): SETUP_RUNS of them only set up,
to time set-up, and one more sets up and then runs the closed loop over
a fixed, seeded list of operations sized to about ``--seconds``.
Answers are checked against independent references.

Output: one line per metric (name, value, unit), a line of machine
facts, then as the last line one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are BENCHMARK.json's ``end_to_end`` list, with ``--trace 1`` its
``per_layer`` list.  Everything a run measured, including each
operation's verdict, is also written to ``.perfbench_out/``.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

SETUP_RUNS = 8
# BLAS threads for every worker, never more than the cores available
BLAS_THREADS = 1
OUT_DIR = ".perfbench_out"
WORKER_TIMEOUT_S = 170


def machine_facts():
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": model,
            "python": platform.python_version(), "blas_threads": BLAS_THREADS}


def _worker(root, env, args, out, extra):
    cmd = [sys.executable, os.path.join(root, "perfbench", "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", out] + extra
    if args.smoke:
        cmd.append("--smoke")
    start = time.perf_counter()
    subprocess.run(cmd, env=env, cwd=root, check=True, timeout=WORKER_TIMEOUT_S)
    with open(out, encoding="utf-8") as fh:
        result = json.load(fh)
    # perf_counter is CLOCK_MONOTONIC, shared by every process on Linux
    result["setup_s"] = result["ready"] - start
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description="infmat benchmark runner")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, to check that the benchmark still works")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "infmat", "__init__.py")):
        print("run from the root of an infmat checkout (src/infmat not found)", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    facts = machine_facts()
    if BLAS_THREADS > facts["nproc"]:
        print(f"BLAS_THREADS {BLAS_THREADS} exceeds nproc {facts['nproc']}", file=sys.stderr)
        return 2

    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    stem = os.path.join(root, OUT_DIR, f"{args.workload}-s{args.seed}-t{args.trace}"
                                       + ("-smoke" if args.smoke else ""))

    try:
        setups = [_worker(root, env, args, f"{stem}.setup{k}.json", ["--setup-only"])["setup_s"]
                  for k in range(SETUP_RUNS)]
        result = _worker(root, env, args, f"{stem}.json", [])
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"worker failed: {exc}", file=sys.stderr)
        return 1
    for k in range(SETUP_RUNS):
        os.remove(f"{stem}.setup{k}.json")
    setups.append(result["setup_s"])
    metrics = result["metrics"]
    metrics["setup_s"] = [statistics.median(setups), "s"]
    facts.update(numpy=result["numpy"], blas=result["blas"])
    result.update(machine=facts, setup_samples=setups, workload=args.workload,
                  seed=args.seed, seconds=args.seconds, trace=args.trace)
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)

    names = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(f"checks: {result['checked']} passed or failed, {result['skipped_checks']} skipped; "
          f"{result['wrong']} wrong answers")
    for op in result["ops"]:
        if not op["ok"]:
            print(f"failed op {op['op']} ({op['kind']}): {op['reason']}")
    print("machine: " + json.dumps(facts, sort_keys=True))
    print(json.dumps({
        "correct": result["wrong"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
