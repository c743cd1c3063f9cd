"""Run the benchmark over several seeds and summarize every metric.

    python3 perfbench/record.py [--workloads NAME ...] [--seeds N]
                                [--first-seed S] [--traced-seeds K] [--out FILE]

Run from the repository root. For each workload, runs run.py untraced with
seeds S .. S+N-1 and traced with the first K of them, one run at a time,
each for BENCHMARK.json's run_seconds. Prints, per workload, every
end-to-end metric (median, quartiles, and the spread (Q3 - Q1) / median
next to the metric's bound) and fail_ratio; and the median of every
per-layer metric. With --out it also writes every run and the summary as
JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds, trace):
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    start = time.monotonic()
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit("%s seed %d trace %d failed with code %d" % (
            workload, seed, trace, done.returncode))
    result = json.loads(lines[-1])
    result["seed"] = seed
    result["elapsed_s"] = time.monotonic() - start
    for line in lines:
        if line.startswith("detail "):
            result["detail"] = json.loads(line[len("detail "):])
    return result


def summarize(runs, specs):
    out = {}
    for spec in specs:
        values = [
            r["detail"][spec["name"]] if spec.get("detail") else r["metrics"][spec["name"]]["value"]
            for r in runs
        ]
        median = statistics.median(values)
        entry = {"unit": spec["unit"], "median": median, "values": values}
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry.update(q1=q1, q3=q3, spread=(q3 - q1) / median if median else None)
        if "bound" in spec:
            entry["bound"] = spec["bound"]
        out[spec["name"]] = entry
    return out


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--traced-seeds", type=int, default=2)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]
    seeds = range(args.first_seed, args.first_seed + args.seeds)

    record = {"run_seconds": seconds, "workloads": {}}
    for workload in args.workloads:
        untraced = [run_once(workload, seed, seconds, 0) for seed in seeds]
        traced = [run_once(workload, seed, seconds, 1) for seed in seeds[: args.traced_seeds]]
        attempted = sum(r["attempted"] for r in untraced + traced)
        failed = sum(r["failed"] for r in untraced + traced)
        entry = {
            "fail_ratio": failed / attempted,
            "end_to_end": summarize(
                untraced, spec["end_to_end"] + [{"name": "wall_s", "unit": "s", "detail": True}]
            ),
            "per_layer": summarize(traced, spec["per_layer"]) if traced else {},
            "provenance": untraced[0]["detail"]["provenance"],
            "runs": untraced + traced,
        }
        record["workloads"][workload] = entry
        print("%s (%d untraced, %d traced runs, %.0f s in all)" % (
            workload, len(untraced), len(traced), sum(r["elapsed_s"] for r in untraced + traced)))
        for name, m in entry["end_to_end"].items():
            print("  %-12s median %12.6g %-3s  Q1 %12.6g  Q3 %12.6g  spread %.4f  bound %s" % (
                name, m["median"], m["unit"], m.get("q1", m["median"]), m.get("q3", m["median"]),
                m.get("spread") or 0.0, m.get("bound", "none")))
        print("  %-12s %g (%d of %d operations)" % ("fail_ratio", entry["fail_ratio"], failed, attempted))
        for name, m in entry["per_layer"].items():
            print("  %-44s median %14.6g %s" % (name, m["median"], m["unit"]))
        sys.stdout.flush()
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
