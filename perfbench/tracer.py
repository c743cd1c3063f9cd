"""Per-layer spans and counters recorded from outside the program.

`LayerTrace` swaps each probed `rydtools` function for a wrapper while its
`with` block runs, and puts every original back when the block exits, even
on error. A function is swapped wherever a `rydtools` module holds it, so
aliases imported into other modules (`pair.radial_matrix_element`,
`blockade.forster_eigensystem`, ...) are caught as well.

A timed probe records calls and self time: its span minus the spans of
probed functions called inside it. A count-only probe records calls and
adds no span, for hot leaves where a clock read would distort the figure.
A probe whose target does not exist is listed in `absent` and skipped.
"""

import importlib
import inspect
import sys
import time
from dataclasses import dataclass
from functools import wraps
from typing import Callable, Optional

PACKAGE = "rydtools"

@dataclass(frozen=True)
class Probe:
    module: str
    function: str
    timed: bool = True
    # hook(trace, bound_arguments, result) updates trace.counters
    hook: Optional[Callable] = None

    @property
    def name(self):
        return "%s.%s" % (self.module, self.function)


def _grid_points(trace, args, result):
    trace.add("atoms.radial_solution.grid_points", len(result.r))


def _state_pairs(trace, args, result):
    trace.state_pairs.add((args["state_a"], args["state_b"]))


def _eigensystem(trace, args, result):
    trace.add("pair.eigensystem_dim", sum(len(v) for v in result.d_values))
    trace.add("pair.forster_zero_count", result.forster_zero_count)
    if "blockade.blockade_shift" in trace.open_spans:
        trace.add("blockade.eigensystems_under_shift", 1)


def _pairs(trace, args, result):
    n = args["geometry"].n
    trace.add("blockade.pairs", n * (n - 1) // 2)


def _amplitude_dim(trace, args, result):
    trace.add("blockade.integrate_amplitudes.dim", 2 + result.c_pairs.size)


def _basis_dim(trace, args, result):
    trace.add("ensemble.basis_dim", len(result))


def _norm_drift(trace, args, result):
    trace.maximum("ensemble.norm_drift_max", result.norm_drift)


def _kmc_trials(trace, args, result):
    trace.add("ensemble.kmc_trials", args["trials"])


PROBES = (
    Probe("atoms", "radial_solution", hook=_grid_points),
    Probe("atoms", "radial_matrix_element", hook=_state_pairs),
    Probe("angular", "dipole_angular_factor", timed=False),
    Probe("pair", "make_channel"),
    Probe("pair", "build_vdd"),
    Probe("pair", "forster_eigensystem", hook=_eigensystem),
    Probe("blockade", "blockade_shift", hook=_pairs),
    Probe("blockade", "pair_state_basis"),
    Probe("blockade", "effective_interaction_mhz"),
    Probe("blockade", "integrate_amplitudes", hook=_amplitude_dim),
    Probe("gates", "minimize_blockade_gate"),
    Probe("gates", "optimize_interaction_gate"),
    Probe("gates", "blockade_gate_error", timed=False),
    Probe("gates", "interaction_gate_error", timed=False),
    Probe("ensemble", "enumerate_basis", hook=_basis_dim),
    Probe("ensemble", "simulate_exact", hook=_norm_drift),
    Probe("ensemble", "kinetic_monte_carlo", hook=_kmc_trials),
)


class LayerTrace:
    """Context manager that records the probes while its block runs."""

    def __init__(self, probes=PROBES):
        self.probes = probes
        self.calls = {p.name: 0 for p in probes}
        self.self_s = {p.name: 0.0 for p in probes if p.timed}
        self.counters = {}
        self.state_pairs = set()
        self.open_spans = []
        self.absent = []
        self._child_s = []
        self._patched = []

    def add(self, key, amount):
        self.counters[key] = self.counters.get(key, 0) + amount

    def maximum(self, key, value):
        self.counters[key] = max(self.counters.get(key, value), value)

    def __enter__(self):
        targets = []
        for probe in self.probes:
            try:
                owner = importlib.import_module("%s.%s" % (PACKAGE, probe.module))
            except ImportError:
                owner = None
            original = getattr(owner, probe.function, None)
            if callable(original):
                targets.append((probe, original))
            else:
                self.absent.append(probe.name)
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        try:
            for probe, original in targets:
                wrapper = self._wrap(probe, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def _wrap(self, probe, original):
        name = probe.name
        hook = probe.hook
        signature = inspect.signature(original) if hook else None

        def finish(args, kwargs, result):
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self, bound.arguments, result)

        if not probe.timed:

            @wraps(original)
            def counted(*args, **kwargs):
                self.calls[name] += 1
                result = original(*args, **kwargs)
                finish(args, kwargs, result)
                return result

            return counted

        @wraps(original)
        def timed(*args, **kwargs):
            self.calls[name] += 1
            self.open_spans.append(name)
            self._child_s.append(0.0)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span = time.perf_counter() - start
                child = self._child_s.pop()
                self.open_spans.pop()
                self.self_s[name] += span - child
                if self._child_s:
                    self._child_s[-1] += span
            finish(args, kwargs, result)
            return result

        return timed

    def metrics(self):
        """Per-layer figures under the names listed in BENCHMARK.json."""
        c = self.counters
        calls = self.calls
        out = {}
        for name, count in calls.items():
            out[name + ".calls"] = count
        for name, seconds in self.self_s.items():
            out[name + ".self_s"] = seconds
        rme = calls.get("atoms.radial_matrix_element", 0)
        pairs = c.get("blockade.pairs", 0)
        out.update(
            {
                "atoms.radial_solution.grid_points": c.get("atoms.radial_solution.grid_points", 0),
                "atoms.radial_matrix_element.unique_ratio": len(self.state_pairs) / rme if rme else 0.0,
                "pair.eigensystem_dim": c.get("pair.eigensystem_dim", 0),
                "pair.forster_zero_count": c.get("pair.forster_zero_count", 0),
                "blockade.pairs": pairs,
                "blockade.eigensystems_per_pair": (
                    c.get("blockade.eigensystems_under_shift", 0) / pairs if pairs else 0.0
                ),
                "blockade.integrate_amplitudes.dim": c.get("blockade.integrate_amplitudes.dim", 0),
                "gates.objective_evals": (
                    calls.get("gates.blockade_gate_error", 0)
                    + calls.get("gates.interaction_gate_error", 0)
                ),
                "ensemble.basis_dim": c.get("ensemble.basis_dim", 0),
                "ensemble.norm_drift_max": c.get("ensemble.norm_drift_max", 0.0),
                "ensemble.kmc_trials": c.get("ensemble.kmc_trials", 0),
            }
        )
        return out
