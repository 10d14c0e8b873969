"""Summarize benchmark runs recorded in .perfbench_out/.

    python3 perfbench/summarize.py [--out FILE]

For each workload, takes every untraced run record and prints, for each
end-to-end metric of BENCHMARK.json, the median, the quartiles
(``statistics.quantiles(values, n=4)``) and their distance as a share of
the median, next to the metric's bound.  Traced run records add the
per-layer metrics and the tracing overhead.  ``--out`` also writes all of
it, with the machine facts and the failures, as JSON.
"""

import argparse
import glob
import json
import os
import statistics
import sys


def spread(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / med if med else 0.0, "n": len(values)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="write the summary as JSON to this file")
    args = parser.parse_args(argv)
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    summary = {}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = {}
        for trace in (0, 1):
            pattern = os.path.join(root, ".perfbench_out", f"{workload}-s*-t{trace}.json")
            runs[trace] = []
            for path in sorted(glob.glob(pattern)):
                with open(path, encoding="utf-8") as fh:
                    runs[trace].append(json.load(fh))
        if not runs[0] and not runs[1]:
            continue
        entry = summary[workload] = {"seeds": [r["seed"] for r in runs[0]], "metrics": {},
                                     "failures": {}}
        print(f"== {workload}: {len(runs[0])} untraced, {len(runs[1])} traced runs")
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]][0] for r in runs[0]]
            if not values:
                continue
            s = entry["metrics"][m["name"]] = dict(spread(values), unit=m["unit"],
                                                  bound=m["bound"])
            print(f"  {m['name']:14s} median {s['median']:.5g} {m['unit']:5s} "
                  f"quartiles [{s['q1']:.5g}, {s['q3']:.5g}]  spread {s['iqr_over_median']:.3f}"
                  f"  bound {m['bound']}")
        for r in runs[0]:
            entry["machine"] = r["machine"]
            attempted, failed = r["attempted"], r["failed"]
            entry["failures"][str(r["seed"])] = {
                "attempted": attempted, "failed": failed,
                "reasons": [f"{op['kind']}: {op['reason']}" for op in r["ops"] if not op["ok"]]}
        total = sum(f["attempted"] for f in entry["failures"].values())
        bad = sum(f["failed"] for f in entry["failures"].values())
        if total:
            entry["failed_frac"] = bad / total
            print(f"  failed_frac over all runs: {bad}/{total} = {bad / total:.4f}")
        if runs[1]:
            entry["per_layer"] = {}
            for m in bench["per_layer"]:
                values = [r["metrics"][m["name"]][0] for r in runs[1]]
                entry["per_layer"][m["name"]] = dict(spread(values), unit=m["unit"])
            untraced = {r["seed"]: r["metrics"]["op_s.p50"][0] for r in runs[0]}
            for r in runs[1]:
                over = r["metrics"]["trace.overhead_s"][0]
                line = f"  traced seed {r['seed']}: overhead {over:+.4f} s over the same ops"
                if r["seed"] in untraced:
                    diff = r["metrics"]["trace.op_s.p50"][0] - untraced[r["seed"]]
                    line += f"; traced p50 - untraced run p50 = {diff:+.4f} s"
                print(line)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
