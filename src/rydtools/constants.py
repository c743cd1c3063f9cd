"""Physical constants and the unit conversion layer.

Unit policy used throughout the package:

* external interfaces quote energies as cyclic frequencies (MHz or GHz) and
  lengths in micrometers or Bohr radii,
* time-domain formulas (gate errors, amplitude integration) work with angular
  frequencies in rad/s,
* radial integrals are in units of the Bohr radius a0.

The SI conversions and the shared input guards live here; the bare 2 pi
between cyclic MHz and rad/us is written inline (gates, blockade, ensemble).
"""

import math

import numpy as np
from scipy import constants as _const

# Fundamental constants (SI)
HBAR = _const.hbar
H_PLANCK = _const.h
KB = _const.k
C_LIGHT = _const.c
E_CHARGE = _const.e
A0 = _const.physical_constants["Bohr radius"][0]
FINE_STRUCTURE = _const.fine_structure
U_AMU = _const.physical_constants["atomic mass constant"][0]
EPS0 = _const.epsilon_0

# Reference Rydberg constant, infinite nuclear mass, cm^-1.
RYDBERG_INF_CM = 109737.315685

# Electron mass in u, used for the reduced-mass scaling of the Rydberg
# constant per species.
ELECTRON_MASS_U = _const.physical_constants["electron mass in u"][0]

# e^2 a0^2 / (4 pi eps0 h): converts a product of two radial dipole matrix
# elements (in a0^2) divided by R^3 (in um^3) to a cyclic frequency in MHz.
EA0_SQ_MHZ_UM3 = (
    E_CHARGE**2 * A0**2 / (4.0 * math.pi * EPS0) / H_PLANCK * 1e18 * 1e-6
)

# e a0 / hbar: single-photon Rabi frequency (rad/s) per unit field (V/m) and
# unit dipole matrix element (e a0).
EA0_RABI_RAD_PER_VM = E_CHARGE * A0 / HBAR

# Bohr magneton as a cyclic frequency per tesla (MHz/T).
MU_B_MHZ_PER_T = _const.physical_constants["Bohr magneton"][0] / H_PLANCK * 1e-6

SPECIES_MASS_U = {
    "Rb87": 86.909180527,
    "Cs133": 132.905451931,
}

# Ground-state hyperfine (qubit) splittings, cyclic MHz.
SPECIES_OMEGA10_MHZ = {
    "Rb87": 6834.682610904,
    "Cs133": 9192.631770,
}


def rydberg_cm(species):
    """Reduced-mass scaled Rydberg constant in cm^-1 for a species."""
    mass_u = SPECIES_MASS_U[species]
    return RYDBERG_INF_CM / (1.0 + ELECTRON_MASS_U / mass_u)


def ghz_from_cm(energy_cm):
    """Convert a wavenumber in cm^-1 to a cyclic frequency in GHz."""
    return energy_cm * C_LIGHT * 1e2 / 1e9


def rad_per_s_from_mhz(f_mhz):
    """Cyclic MHz to angular rad/s."""
    return 2.0 * math.pi * f_mhz * 1e6


def mhz_from_rad_per_s(w):
    """Angular rad/s to cyclic MHz."""
    return w / (2.0 * math.pi) / 1e6


def _require_positive(value, name):
    """ValueError naming the argument unless value > 0: nan fails, inf passes."""
    if not value > 0:
        raise ValueError("%s must be positive, got %r" % (name, value))


def _require_nonnegative(value, name):
    """ValueError naming the argument unless 0 <= value < inf; nan fails."""
    if not 0 <= value < math.inf:
        raise ValueError("%s must be finite and non-negative, got %r" % (name, value))


def _require_finite_positive(value, name):
    """ValueError naming the argument unless 0 < value < inf; nan fails."""
    if not 0 < value < math.inf:
        raise ValueError("%s must be finite and positive, got %r" % (name, value))


def _require_whole(value, name, least):
    """int(value), or ValueError naming the argument unless value is a whole
    number >= least: integral floats pass, nan and inf fail."""
    if not (value >= least and float(value).is_integer()):
        raise ValueError("%s must be a whole number >= %d, got %r" % (name, least, value))
    return int(value)


def _frozen(value, name, dtype=float):
    """A read-only copy of value as a dtype array, or ValueError naming the
    argument unless every entry is finite: what a model derives from it at
    construction then stays in step with what it stores."""
    array = np.array(value, dtype=dtype)
    if not np.isfinite(array).all():
        raise ValueError("%s must be finite" % name)
    array.flags.writeable = False
    return array


def thermal_velocity(temperature_k, mass_u):
    """1-D rms thermal velocity sqrt(kB T / m) in m/s."""
    _require_nonnegative(temperature_k, "temperature_k")
    return math.sqrt(KB * temperature_k / (mass_u * U_AMU))


def blackbody_rate(n, temperature_k):
    """Blackbody-induced decay rate 4 alpha^3 kB T / (3 hbar n^2) in 1/s."""
    _require_nonnegative(temperature_k, "temperature_k")
    return (
        4.0
        * FINE_STRUCTURE**3
        * KB
        * temperature_k
        / (3.0 * HBAR * n**2)
    )
