"""One benchmark process: set up a workload, time its passes, check outputs.

run.py starts one of these per sample, so that set-up time includes the
imports and peak memory belongs to one workload:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --mode MODE

MODE is ``setup`` (set up, report set-up time), ``measure`` (untraced
passes) or ``trace`` (untraced and traced passes in turn). The last line of
standard output is one JSON object.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _digest(obj):
    from workloads import fingerprint

    digest = hashlib.sha256()
    fingerprint(obj, digest)
    return digest.hexdigest()


def _git_head():
    if not (ROOT / ".git").exists():
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
    )
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(state, first_outputs):
    import numpy
    import scipy

    import rydtools

    data = sorted((SRC / "rydtools" / "data").glob("*.txt"))
    return {
        "rydtools": rydtools.__version__,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "git_head": _git_head(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py"))),
        "data_sha256": {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in data},
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "inputs_sha256": _digest(state.inputs),
        "outputs_sha256": _digest(first_outputs),
    }


def make_reference():
    """A fixed ~30 ms mix of interpreter loop, small-matrix and LAPACK work.

    It does not call rydtools. Timed between operations, it measures how
    fast the machine runs right then.
    """
    import numpy as np

    big = np.random.default_rng(0).standard_normal((200, 200))
    big = big + big.T
    small = big[:4, :4].copy()

    def reference_s():
        start = time.perf_counter()
        total = 0
        for i in range(120_000):
            total += i * i % 7
        for _ in range(800):
            np.linalg.eigh(small)
        for _ in range(3):
            np.linalg.eigh(big)
        return time.perf_counter() - start

    return reference_s


class Clock:
    """Times each operation of a pass, and the reference kernel between them.

    The reference runs before the first operation, after the last, and
    between operations once REFERENCE_EVERY_S of operation time has passed
    since the previous one. Each operation's time is also divided by the
    mean of the two reference timings around it. On a shared host the
    machine's speed drifts by 15 % or more within minutes; that ratio
    cancels most of the drift.
    """

    REFERENCE_EVERY_S = 0.3

    def __init__(self, reference_s):
        self.reference_s = reference_s
        self.seconds = {}
        self.in_refs = {}

    def run(self, workload, state):
        """One pass; returns its outputs and fills seconds and in_refs."""
        from workloads import attempt

        self.seconds, self.in_refs = {}, {}
        self._pending, self._since = [], 0.0
        self._last_ref = self.reference_s()

        def timed_attempt(outputs, label, fn, *args, **kwargs):
            if self._since >= self.REFERENCE_EVERY_S:
                self._close_segment()
            t0 = time.perf_counter()
            result = attempt(outputs, label, fn, *args, **kwargs)
            elapsed = time.perf_counter() - t0
            self.seconds[label] = elapsed
            self._pending.append(label)
            self._since += elapsed
            return result

        outputs = workload.run(state, timed_attempt)
        self._close_segment()
        return outputs

    def _close_segment(self):
        ref = self.reference_s()
        scale = 0.5 * (ref + self._last_ref)
        for label in self._pending:
            self.in_refs[label] = self.seconds[label] / scale
        self._pending, self._since, self._last_ref = [], 0.0, ref


def _median_metrics(samples):
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


def pass_total(samples):
    """Sum over operations of each operation's median over passes."""
    return sum(_median_metrics(samples).values())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import numpy as np

    import rydtools
    import workloads
    from tracer import LayerTrace

    if Path(rydtools.__file__).resolve().parent != SRC / "rydtools":
        raise SystemExit("rydtools was imported from %s, not from %s" % (rydtools.__file__, SRC))
    workload = workloads.WORKLOADS[args.workload]
    state = workload.setup(np.random.default_rng(args.seed))
    setup_s = time.perf_counter() - START
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    # Passes run while another one fits in the time left; at least two, so
    # that every output is also checked to repeat bit for bit. In trace
    # mode untraced and traced passes alternate.
    clock = Clock(make_reference())
    untraced_s, untraced_ref, traced_ref, layer_samples, digests = [], [], [], [], []
    first = None
    pass_wall = []
    deadline = time.perf_counter() + args.seconds
    while len(digests) < 2 or time.perf_counter() + statistics.median(pass_wall) <= deadline:
        started = time.perf_counter()
        if args.mode == "trace" and len(digests) % 2 == 1:
            with LayerTrace() as trace:
                outputs = clock.run(workload, state)
            layer_samples.append(trace.metrics())
            absent = trace.absent
            traced_ref.append(clock.in_refs)
        else:
            outputs = clock.run(workload, state)
            untraced_s.append(clock.seconds)
            untraced_ref.append(clock.in_refs)
        pass_wall.append(time.perf_counter() - started)
        digests.append({label: _digest(value) for label, value in outputs.items()})
        if first is None:
            first = outputs
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    figures = {}
    problems = {}
    for label, value in first.items():
        if isinstance(value, Exception):
            problems[label] = "raised %r" % (value,)
            continue
        try:
            problem = workload.check(state, label, value, figures)
        except Exception as exc:  # a broken output must not stop the run
            problem = "check raised %r" % (exc,)
        if problem:
            problems[label] = problem
    attempted = failed = 0
    for k, pass_digests in enumerate(digests):
        for label, digest in pass_digests.items():
            attempted += 1
            if label in problems:
                failed += 1
            elif digest != digests[0][label]:
                failed += 1
                problems.setdefault(label, "pass %d output differs from pass 1" % (k + 1))

    result = {
        "setup_s": setup_s,
        "passes": len(digests),
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "figures": figures,
        "provenance": provenance(state, first),
    }
    if args.mode == "measure":
        result["metrics"] = {
            "wall_ref": pass_total(untraced_ref),
            "wall_s": pass_total(untraced_s),
            "peak_rss_mb": peak_rss_mb,
        }
        result["pass_s"] = [sum(s.values()) for s in untraced_s]
        result["pass_ref"] = [sum(s.values()) for s in untraced_ref]
    else:
        layers = _median_metrics(layer_samples)
        layers.update({name: figures.get(name, 0.0) for name in workloads.ACCURACY_FIGURES})
        layers["trace.overhead_ratio"] = pass_total(traced_ref) / pass_total(untraced_ref)
        result["metrics"] = layers
        result["absent_probes"] = absent
        result["counts_repeat"] = all(
            s[k] == layer_samples[0][k]
            for s in layer_samples
            for k in s
            if not k.endswith("_s")
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
