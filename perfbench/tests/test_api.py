"""Every rydtools name the benchmark uses exists, with the parameters it passes.

The table mirrors API.md. A name the benchmark's files use but the table
lacks fails test_table_covers_the_benchmark, so the table stays complete.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import tracer

BENCH = Path(__file__).resolve().parent.parent

# module -> {name: parameter names the benchmark passes or binds}
API = {
    "atoms": {
        "QuantumDefectTable": ["species"],
        "RydbergState": ["n", "l", "j"],
        "radial_solution": [],
        "radial_matrix_element": ["state_a", "state_b"],
    },
    "angular": {"dipole_angular_factor": []},
    "pair": {
        "s_state_channels": ["n", "table"],
        "make_channel": ["initial_pair", "coupled_pair", "table"],
        "forster_eigensystem": ["channels", "theta", "b_field_t"],
        "build_vdd": ["channel", "theta"],
    },
    "blockade": {
        "EnsembleGeometry": ["positions_um"],
        "ExcitationField": [],
        "AmplitudeState": [],
        "pair_state_count": ["eig"],
        "pair_state_basis": ["eig", "r_um"],
        "overlap_kappa": ["eig", "field", "pair", "r_um"],
        "blockade_shift": ["geometry", "field", "eig"],
        "effective_interaction_mhz": [],
        "integrate_amplitudes": ["state", "geometry", "field", "eig", "t_us"],
        "double_excitation_probability": ["field", "n_atoms", "b_mhz"],
    },
    "gates": {
        "blockade_gate_landscape": ["n_values", "r_um_values", "table", "eigensystems"],
        "interaction_gate_landscape": ["n_values", "r_um_values", "table", "eigensystems"],
        "minimize_blockade_gate": [],
        "optimize_interaction_gate": [],
        "blockade_gate_error": [],
        "interaction_gate_error": [],
    },
    "ensemble": {
        "ExcitationModel": ["positions_um", "rabi_mhz", "c6_mhz_um6", "max_excitations"],
        "enumerate_basis": [],
        "simulate_exact": ["model", "times_us", "g2_bins_um"],
        "kinetic_monte_carlo": ["model", "gamma_mhz", "times_us", "trials", "seed"],
    },
}

# classmethods and methods the benchmark calls on program classes
METHODS = {
    ("blockade", "ExcitationField"): ["uniform"],
    ("blockade", "AmplitudeState"): ["ground", "norm_sq", "p2"],
    ("blockade", "EnsembleGeometry"): ["pairs", "axis_theta_rad", "separation_um"],
}


def _used_names():
    """(module, name) pairs the benchmark's files reach as module.name or probe."""
    used = set()
    for path in (BENCH / "workloads.py", BENCH / "tracer.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in API
            ):
                used.add((node.value.id, node.attr))
    used.update((p.module, p.function) for p in tracer.PROBES)
    return used


def test_table_covers_the_benchmark():
    listed = {(module, name) for module, names in API.items() for name in names}
    assert _used_names() <= listed


@pytest.mark.parametrize(
    "module,name,params",
    [(m, n, p) for m, names in API.items() for n, p in names.items()],
)
def test_name_exists_with_parameters(module, name, params):
    obj = getattr(importlib.import_module("rydtools." + module), name)
    assert callable(obj)
    signature = inspect.signature(obj)
    assert set(params) <= set(signature.parameters)


@pytest.mark.parametrize("key,methods", sorted(METHODS.items()))
def test_methods_exist(key, methods):
    cls = getattr(importlib.import_module("rydtools." + key[0]), key[1])
    for method in methods:
        assert callable(getattr(cls, method))
