"""Benchmark of rydtools: time one workload end to end and check its outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Workloads and metrics are listed in
BENCHMARK.json and described in perfbench/README.md. Every sample runs in a
fresh worker process (worker.py) on the sources under src/. With --trace 0
the run reports the end-to-end metrics: the time of one pass in units of a
reference kernel (wall_ref), set-up time (median of several set-ups) and
peak memory. With --trace 1 it reports the per-layer metrics of a traced
run. Lines before the last describe the run; the last line is
one JSON object with the keys correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170.0
# One BLAS thread: never more threads than cores, and the dense eigh
# timing does not depend on what else the other core is doing.
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchmarkError(RuntimeError):
    pass


def run_worker(args, mode, deadline):
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode,
    ]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchmarkError("out of time before the %s worker" % mode)
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=dict(os.environ, **CHILD_ENV),
            stdout=subprocess.PIPE, text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        raise BenchmarkError("%s worker did not finish in time" % mode) from None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchmarkError("%s worker exited with code %d" % (mode, done.returncode))
    return json.loads(lines[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error("unknown workload %r" % args.workload)
    if not (ROOT / "src" / "rydtools" / "__init__.py").is_file():
        print("no rydtools sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2

    try:
        setups = [run_worker(args, "setup", deadline)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
        main_run = run_worker(args, "trace" if args.trace else "measure", deadline)
    except BenchmarkError as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 1
    setups.append(main_run["setup_s"])
    measured = dict(main_run["metrics"], setup_s=statistics.median(setups))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        print("benchmark failed: no value for %s" % ", ".join(missing), file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}

    attempted, failed = main_run["attempted"], main_run["failed"]
    print("workload %s, seed %d, %s, %d passes" % (
        args.workload, args.seed, "traced" if args.trace else "untraced", main_run["passes"]))
    if not args.trace:
        print("  pass times (s):   %s" % " ".join("%.4f" % t for t in main_run["pass_s"]))
        print("  pass times (ref): %s" % " ".join("%.3f" % t for t in main_run["pass_ref"]))
        print("  set-up times (s): %s" % " ".join("%.4f" % t for t in setups))
        print("  %-44s %14.6g s (printed, not bounded)" % ("wall_s", main_run["metrics"]["wall_s"]))
    for name, m in metrics.items():
        print("  %-44s %14.6g %s" % (name, m["value"], m["unit"]))
    print("  %-44s %14.6g (%d of %d operations)" % ("fail_ratio", failed / attempted, failed, attempted))
    for label, problem in sorted(main_run["problems"].items()):
        print("  FAILED %s: %s" % (label, problem))
    for name, value in sorted(main_run["figures"].items()):
        if name not in metrics:
            print("  info %s = %r" % (name, value))
    if args.trace:
        print("  absent probes: %s" % (", ".join(main_run["absent_probes"]) or "none"))
        print("  counts repeat across traced passes: %s" % main_run["counts_repeat"])
    detail = {key: main_run[key] for key in ("provenance", "problems", "figures")}
    detail.update(wall_s=main_run["metrics"].get("wall_s"), fail_ratio=failed / attempted)
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
