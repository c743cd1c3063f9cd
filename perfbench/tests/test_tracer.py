"""The out-of-program tracer: originals restored, counts exact, absent probes."""

import sys

import pytest

from rydtools import atoms, blockade, pair
from rydtools.atoms import QuantumDefectTable, RydbergState
from tracer import PROBES, LayerTrace, Probe


@pytest.fixture(scope="module")
def table():
    return QuantumDefectTable("Rb87")


def _rydtools_attributes():
    return {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if name == "rydtools" or name.startswith("rydtools.")
        for attr, value in vars(module).items()
    }


def _make_30s_channel(table):
    s = RydbergState(30, 0, 0.5)
    return pair.make_channel((s, s), (RydbergState(30, 1, 1.5), RydbergState(29, 1, 1.5)), table)


def test_aliases_patched_then_originals_restored(table):
    before = _rydtools_attributes()
    original_rme = atoms.radial_matrix_element
    original_eig = pair.forster_eigensystem
    with LayerTrace():
        assert pair.radial_matrix_element is not original_rme
        assert pair.radial_matrix_element is atoms.radial_matrix_element
        assert blockade.forster_eigensystem is not original_eig
        assert blockade.forster_eigensystem is pair.forster_eigensystem
        _make_30s_channel(table)
    after = _rydtools_attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_originals_restored_when_the_block_raises():
    before = _rydtools_attributes()
    with pytest.raises(RuntimeError):
        with LayerTrace():
            raise RuntimeError("inside the traced block")
    after = _rydtools_attributes()
    assert all(after[key] is value for key, value in before.items())


def test_one_channel_counts(table):
    with LayerTrace() as trace:
        _make_30s_channel(table)
    metrics = trace.metrics()
    assert metrics["pair.make_channel.calls"] == 1
    assert metrics["atoms.radial_matrix_element.calls"] == 2
    assert metrics["atoms.radial_solution.calls"] == 4
    assert metrics["atoms.radial_matrix_element.unique_ratio"] == 1.0
    assert metrics["atoms.radial_solution.grid_points"] > 0
    # self time excludes the nested radial spans
    assert 0.0 <= metrics["pair.make_channel.self_s"] < metrics["atoms.radial_solution.self_s"]


def test_absent_probe_is_reported_and_skipped(table):
    probes = PROBES + (Probe("pair", "no_such_function"), Probe("no_such_module", "f"))
    with LayerTrace(probes) as trace:
        _make_30s_channel(table)
    assert trace.absent == ["pair.no_such_function", "no_such_module.f"]
    metrics = trace.metrics()
    assert metrics["pair.make_channel.calls"] == 1
    assert metrics["pair.no_such_function.calls"] == 0
