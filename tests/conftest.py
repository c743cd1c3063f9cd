"""Shared fixtures: quantum-defect tables and standard channel sets.

Heavy objects (radial integrations behind channel C3 values) are built once
per session and shared read-only across tests.
"""

import pytest

from rydtools.atoms import QuantumDefectTable, RydbergState
from rydtools.pair import make_channel, forster_eigensystem, s_state_channels


@pytest.fixture(scope="session")
def rb_table():
    return QuantumDefectTable("Rb87")


@pytest.fixture(scope="session")
def cs_table():
    return QuantumDefectTable("Cs133")


@pytest.fixture(scope="session")
def rb_s60_channels(rb_table):
    return s_state_channels(60, rb_table)


@pytest.fixture(scope="session")
def rb_s100_channels(rb_table):
    return s_state_channels(100, rb_table)


@pytest.fixture(scope="session")
def rb_s60_eigensystem(rb_s60_channels):
    return forster_eigensystem(rb_s60_channels)


@pytest.fixture(scope="session")
def rb_43d_channels(rb_table):
    d = RydbergState(43, 2, 2.5)
    return [
        make_channel(
            (d, d),
            (RydbergState(45, 1, 1.5), RydbergState(41, 3, jf)),
            rb_table,
        )
        for jf in (2.5, 3.5)
    ]


@pytest.fixture(scope="session")
def rb_s55_channels(rb_table):
    return s_state_channels(55, rb_table)


@pytest.fixture(scope="session")
def rb_s55_eigensystem(rb_s55_channels):
    return forster_eigensystem(rb_s55_channels)


@pytest.fixture(scope="session")
def rb_43d_eigensystem(rb_43d_channels):
    return forster_eigensystem(rb_43d_channels)
