"""Smoke run of the benchmark: every workload at tiny sizes.

    python3 perfbench/smoke.py

Runs each workload untraced and traced for three seconds with ``--smoke``
(max-size 16-32, 2000 series terms) and checks that every run exits 0,
that its answers are correct, and that its last line carries exactly the
metrics BENCHMARK.json lists.  Failed operations are allowed here: at
these sizes some limits cannot stabilize.  This is not part of the test
suite; it takes about a minute.
"""

import json
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
                   "--seed", "1", "--seconds", "3", "--trace", str(trace), "--smoke"]
            proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)
            label = f"{workload} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            wanted = {m["name"] for m in bench["per_layer" if trace else "end_to_end"]}
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            elif not result["correct"]:
                problems.append(f"{label}: wrong answers\n{proc.stdout}")
            elif set(result["metrics"]) != wanted:
                problems.append(f"{label}: metrics differ: {set(result['metrics']) ^ wanted}")
            print(f"{label}: {result['attempted']} ops, {result['failed']} failed")
    for problem in problems:
        print("PROBLEM " + problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
