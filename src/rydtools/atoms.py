"""Alkali Rydberg level structure: energies, lifetimes and radial integrals.

Level energies come from modified Rydberg-Ritz quantum defect series read
from versioned data files, with measured term energies overriding the series
formula for low-lying states. Radial wavefunctions are bound solutions of a
core-screened Coulomb potential at the defect-shifted energy on a
logarithmic grid, whose r-dependent arrays are formed once for all the
states solved on it. The inward Numerov recurrence is solved as one banded
upper-triangular system by LAPACK back-substitution, in place. Each
solution's node count, taken in the allowed region outside the core
(r > 5 r_c), is checked against the quantum defect before a matrix element
is formed. Data files are read once per process.
"""

import math
import re
import warnings
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Optional

import numpy as np
from scipy.linalg.lapack import dtbtrs

from . import constants as cst
from .angular import _twice

L_LETTERS = "spdfghiklmnoqrtuv"

_LEVEL_RE = re.compile(r"^(\d+)([a-z])(?:(\d+)/2)?$")


class NumericsError(RuntimeError):
    """Raised when a numerical routine fails its internal consistency check."""


@dataclass(frozen=True)
class RydbergState:
    """A fine-structure level, optionally Zeeman resolved; the
    QuantumDefectTable it is evaluated with owns the species.

    Parameters
    ----------
    n : principal quantum number, a whole number >= 1
    l : orbital angular momentum, a whole number below n
    j : total electronic angular momentum, l +- 1/2
    m : optional Zeeman sublevel
    """

    n: int
    l: int
    j: float
    m: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "n", cst._require_whole(self.n, "n", 1))
        object.__setattr__(self, "l", cst._require_whole(self.l, "l", 0))
        if not self.l < self.n:
            raise ValueError("need 0 <= l < n, got l=%r n=%r" % (self.l, self.n))
        _twice(self.j, "j")
        if abs(self.j - self.l) != 0.5:
            raise ValueError("j must equal l +- 1/2, got l=%r j=%r" % (self.l, self.j))
        if self.m is not None:
            _twice(self.m, "m")
            if abs(self.m) > self.j:
                raise ValueError("|m| must not exceed j")

    @property
    def label(self):
        frac = round(2 * self.j)
        return "%d%s%d/2" % (self.n, L_LETTERS[self.l], frac)

    def with_m(self, m):
        return RydbergState(self.n, self.l, self.j, m)


def parse_level(text):
    """Parse a level label like "43d5/2" or "60s" into a RydbergState.

    A missing j defaults to l + 1/2; the table owns the species.
    """
    match = _LEVEL_RE.match(text.strip().lower())
    if not match:
        raise ValueError("cannot parse level label %r" % (text,))
    n = int(match.group(1))
    letter = match.group(2)
    if letter not in L_LETTERS:
        raise ValueError("unknown orbital letter %r" % (letter,))
    l = L_LETTERS.index(letter)
    if match.group(3) is not None:
        j = int(match.group(3)) / 2.0
    else:
        j = l + 0.5
    return RydbergState(n, l, j)


_DATA_FILES = {
    "Rb87": ("rb87_quantum_defects.txt", "rb87_lifetimes.txt"),
    "Cs133": ("cs133_quantum_defects.txt", "cs133_lifetimes.txt"),
}


def data_file_path(species, kind):
    """Filesystem path of a species data asset ("defects" or "lifetimes")."""
    if species not in _DATA_FILES:
        raise ValueError("unknown species %r" % (species,))
    if kind not in ("defects", "lifetimes"):
        raise ValueError("unknown kind %r" % (kind,))
    name = _DATA_FILES[species][0 if kind == "defects" else 1]
    return str(resources.files("rydtools.data").joinpath(name))


@lru_cache(maxsize=None)
def _data_rows(species, kind):
    """Whitespace-split fields of each data-file line as tuples, "#" comments
    and blank lines dropped; each file is read once per process."""
    with open(data_file_path(species, kind)) as fh:
        rows = (tuple(raw.split("#", 1)[0].split()) for raw in fh)
        return tuple(parts for parts in rows if parts)


class QuantumDefectTable:
    """Quantum defect series and level energies for one species, which the
    table owns: states are plain quantum numbers. Series not present in the
    data file fall back to a zero defect; the fallback is flagged through a
    warning and the ``used_fallback`` set.
    """

    def __init__(self, species="Rb87"):
        self.species = species
        self.series = {}
        self.exact_terms = {}
        self.used_fallback = set()
        self._load()
        self.rydberg_cm = cst.rydberg_cm(species)
        self.rydberg_ghz = cst.ghz_from_cm(self.rydberg_cm)

    def _load(self):
        self.core_charge = 1.0
        self.core_screening = 0.0
        for parts in _data_rows(self.species, "defects"):
            if parts[1] == "exact":
                n, l = int(parts[2]), int(parts[3])
                j = float(parts[4])
                self.exact_terms[(n, l, j)] = float(parts[5])
            elif parts[1] == "core":
                self.core_charge = float(parts[2])
                self.core_screening = float(parts[3])
            else:
                l = int(parts[1])
                j = float(parts[2])
                self.series[(l, j)] = (float(parts[3]), float(parts[4]))

    def defect(self, n, l, j):
        """Quantum defect delta(n, l, j), using an exact term when available."""
        if (n, l, j) in self.exact_terms:
            term = self.exact_terms[(n, l, j)]
            return n - math.sqrt(self.rydberg_cm / abs(term))
        if (l, j) not in self.series:
            if (l, j) not in self.used_fallback:
                self.used_fallback.add((l, j))
                warnings.warn(
                    "no defect series for %s l=%d j=%.1f; using delta=0"
                    % (self.species, l, j),
                    stacklevel=2,
                )
            return 0.0
        d0, d2 = self.series[(l, j)]
        if n - d0 <= 0:
            raise ValueError("n=%d below series limit for l=%d" % (n, l))
        return d0 + d2 / (n - d0) ** 2

    def n_star(self, state):
        return state.n - self.defect(state.n, state.l, state.j)

    def energy_ghz(self, state):
        """Binding energy of a level in GHz (negative, relative to threshold)."""
        if (state.n, state.l, state.j) in self.exact_terms:
            return cst.ghz_from_cm(self.exact_terms[(state.n, state.l, state.j)])
        nstar = self.n_star(state)
        return -self.rydberg_ghz / nstar**2


class LifetimeModel:
    """Radiative lifetimes: power-law 0 K part plus blackbody depopulation."""

    def __init__(self, table):
        self.table = table
        self.coeffs = {
            int(parts[1]): (float(parts[2]), float(parts[3]))
            for parts in _data_rows(table.species, "lifetimes")
        }

    def tau0_us(self, state):
        """Zero-temperature lifetime in microseconds."""
        if state.l not in self.coeffs:
            raise ValueError("no lifetime coefficients for l=%d" % (state.l,))
        tau0_ns, alpha = self.coeffs[state.l]
        return tau0_ns * self.table.n_star(state) ** alpha * 1e-3

    def tau_us(self, state, temperature_k=0.0):
        """Effective lifetime including blackbody-induced decay."""
        rate = 1.0 / (self.tau0_us(state) * 1e-6)
        rate += cst.blackbody_rate(state.n, temperature_k)
        return 1.0 / rate * 1e6


# ---------------------------------------------------------------------------
# Radial wavefunctions and matrix elements
# ---------------------------------------------------------------------------

R_MIN_DEFAULT = 0.05  # inner grid edge, a0
R_MAX_FACTOR = 2.5  # leading outer-edge coefficient on nstar^2
# nodes are counted only beyond this many core radii r_c. At 5 r_c the count
# equals that of the pure Coulomb solution for all Rb87 and Cs133 states with
# l <= 3 and n = 5-200; at 10 r_c every Rb87 s state loses one node
NODE_WINDOW_CORE_RADII = 5.0


def _outer_radius(n_star):
    # 2.5 nstar^2 contains the tail only for large nstar; the extra term keeps
    # the edge amplitude below ~1e-10 of the peak for low-lying states too
    return n_star**2 * R_MAX_FACTOR + 25.0 * n_star


@dataclass
class RadialSolution:
    """Radial function P(r) = r R(r) on a logarithmic grid, unit normalized."""

    r: np.ndarray
    p: np.ndarray
    nodes: int


def _inner_edge(n_star, l):
    # inward from the inner turning point r_in of y'' = g y the growing
    # solution rises as (r_in / r)^(l + 1/2): start where that reaches 1e100,
    # well inside double range, or at R_MIN_DEFAULT for every low l
    r_in = n_star**2 - n_star * math.sqrt(max(n_star**2 - (l + 0.5) ** 2, 0.0))
    return max(R_MIN_DEFAULT, r_in * 10.0 ** (-100.0 / (l + 0.5)))


def _grid_step(n_star, accuracy=1.0):
    # keep a fixed number of Numerov points per radial oscillation; the local
    # wavenumber in x = ln r peaks near n_star
    return min(7e-3, 2.0 * math.pi / (64.0 * max(n_star, 1.0))) / accuracy


def _log_grid(r_min, r_max, h):
    n_points = int(math.ceil((math.log(r_max) - math.log(r_min)) / h)) + 1
    return np.exp(math.log(r_min) + h * np.arange(n_points))


# exp(-x) rounds to exactly 0 past x = ln 2 - ln(smallest subnormal) = 745.13,
# so the core term 2 r (Z-1) exp(-r/r_c) is formed only below 746 r_c
_CORE_TERM_EXTENT = math.ceil(1.0 - math.log(np.finfo(float).smallest_subnormal))


def _workspace(n_points):
    """Scratch for solves on up to n_points: the Fortran band, three rows."""
    return np.empty((3, n_points), order="F"), np.empty((3, n_points))


class _LogGrid:
    """One log grid's r-dependent arrays, formed once for all its states: r,
    the step h (by default log r[1] - log r[0]), 2r, sqrt r, the start of the
    node window r > 5 r_c and the core term. Grids solved one after another
    may share one _workspace, which every solve overwrites."""

    def __init__(self, r, core_charge, core_screening, h=None, workspace=None):
        self.r, self.two_r, self.sqrt_r = r, 2.0 * r, np.sqrt(r)
        self.h = math.log(r[1]) - math.log(r[0]) if h is None else h
        self.i_window = int(np.searchsorted(r, NODE_WINDOW_CORE_RADII * core_screening, "right"))
        band, work = _workspace(len(r)) if workspace is None else workspace
        self.band, (self.g, self.t, self.work) = band[:, : len(r)], work[:, : len(r)]
        self.core = r[:0]
        if core_screening > 0.0 and core_charge > 1.0:
            k = int(np.searchsorted(r, _CORE_TERM_EXTENT * core_screening))
            self.core = self.two_r[:k] * (core_charge - 1.0) * np.exp(-r[:k] / core_screening)


def radial_solution(n_star, l, r_grid=None, core_charge=1.0, core_screening=0.0):
    """Integrate the radial equation inward at energy -1/(2 n_star^2).

    Returns a RadialSolution on the supplied (or self-chosen) grid, which
    must be uniform in ln r; the self-chosen one starts at _inner_edge, so
    that no l overflows; a prepared _LogGrid from radial_matrix_elements
    brings its own core and skips the check. The Numerov recurrence from two
    small values at the outer edge is one banded triangular system, written
    into the grid's band buffer and back-substituted in place in y by one
    LAPACK ``dtbtrs`` call; a zero pivot, or an overflow through a high
    centrifugal barrier, raises NumericsError.

    The solution is truncated at the divergence onset inside the inner
    classically forbidden region and normalized to unit norm. A screened
    core charge Z_eff(r) = 1 + (Z-1) exp(-r/r_c) sharpens the shape of
    low-lying wavefunctions inside the core without touching the Rydberg
    region; it is off (pure Coulomb) when core_screening is zero, and is
    subtracted only on the grid prefix r < 746 r_c, where it is nonzero.

    The one solve gives both P(r) and its node count. Nodes are counted
    where the solution is classically allowed and r > 5 r_c: the extra short
    lobes inside a screened core are physical, not an integration failure.
    For the Rb87 and Cs133 cores the count outside 5 r_c equals that of the
    pure Coulomb solution at the same n_star.
    """
    if not math.isfinite(n_star):
        raise ValueError("n_star must be finite, got %r" % (n_star,))
    l = cst._require_whole(l, "l", 0)
    if n_star <= l:
        raise ValueError("n_star must exceed l")
    r_max = _outer_radius(n_star)
    if isinstance(r_grid, _LogGrid):
        grid = r_grid
    elif r_grid is None:
        h = _grid_step(n_star)
        r = _log_grid(_inner_edge(n_star, l), r_max, h)
        grid = _LogGrid(r, core_charge, core_screening, h)
    else:
        r = np.asarray(r_grid, dtype=float)
        if len(r) < 2:
            raise ValueError("r_grid needs at least two points")
        grid = _LogGrid(r, core_charge, core_screening)
        if not np.ptp(r[1:] / r[:-1]) < 1e-8 * grid.h:
            raise ValueError("r_grid must be increasing and uniform in ln r")
    r, h = grid.r, grid.h
    i_max = min(int(np.searchsorted(r, r_max)), len(r) - 1)
    if i_max < 3:
        raise ValueError("radial grid does not cover the classical region")

    # y(x) = P(r) / sqrt(r) obeys y'' = g(x) y on the log grid; y = 0 past
    # i_max, so g is formed up to there only
    top = i_max + 1
    g = np.subtract((l + 0.5) ** 2, grid.two_r[:top], out=grid.g[:top])
    t = np.divide(r[:top], n_star, out=grid.t[:top])  # r / n_star, then t
    g += np.multiply(t, t, out=t)
    n_core = min(len(grid.core), top)
    g[:n_core] -= grid.core[:n_core]

    # (1 - t[k-1]) y[k-1] - 2 (1 + 5 t[k]) y[k] + (1 - t[k+1]) y[k+1] = 0 for
    # k < i_max, with y[i_max - 1:i_max + 1] given, is upper banded in y[:m];
    # its right-hand side sits in y[m - 2:m], solved in place
    np.multiply(g, h * h / 12.0, out=t)
    m = i_max - 1
    y = np.zeros(len(r))
    y[i_max] = 1e-18
    y[m] = 1e-18 * math.exp(math.sqrt(max(g[i_max], 1e-12)) * h)
    y[m - 1] = 2.0 * (1.0 + 5.0 * t[m]) * y[m] - (1.0 - t[i_max]) * y[i_max]
    y[m - 2] = -(1.0 - t[m]) * y[m]
    band = grid.band[:, :m]
    band[0] = band[2] = np.subtract(1.0, t[:m], out=grid.work[:m])
    band[1] = -2.0 * (1.0 + 5.0 * t[:m])
    x, info = dtbtrs(band, y[:m], uplo="U", overwrite_b=1)
    if info != 0:
        raise NumericsError("Numerov back-substitution failed, LAPACK info %d" % info)
    if not np.shares_memory(x, y):  # the wrapper solved a copy
        y[:m] = x

    # truncate below the divergence onset in the innermost forbidden region
    inner = np.flatnonzero(g[: np.searchsorted(r, n_star**2)] > 0)
    i_cut = 0
    if len(inner) > 0 and inner[-1] > 0:
        i_cut = int(np.argmin(np.abs(y[: inner[-1] + 1])))
    y[:i_cut] = 0.0

    weight = np.multiply(y, y, out=grid.work)
    weight *= r
    weight *= r
    norm_sq = np.sum(weight) * h  # integral P^2 dr on the log grid
    if not 0.0 < norm_sq < math.inf:
        raise NumericsError("radial integration produced a null or non-finite solution")
    p = np.multiply(y, grid.sqrt_r, out=y)
    p /= math.sqrt(norm_sq)
    magnitude = np.abs(p, out=grid.work)
    i_peak = int(np.argmax(magnitude))
    if p[i_peak] < 0:
        np.negative(p, out=p)

    # count nodes in the classically allowed region outside the core only;
    # the truncated divergent admixture near the cut can flip sign once
    # unphysically
    window = slice(max(i_cut, grid.i_window), top)
    keep = g[window] < 0
    keep &= magnitude[window] > 1e-12 * magnitude[i_peak]
    negative = np.signbit(p[window])[keep]  # kept values are nonzero
    nodes = int(np.count_nonzero(negative[1:] != negative[:-1]))
    return RadialSolution(r=r, p=p, nodes=nodes)


def _expected_nodes(n, l, defect):
    return n - l - 1 - int(math.floor(defect + 1e-9))


def _check_nodes(sol, state, defect):
    expected = _expected_nodes(state.n, state.l, defect)
    if abs(sol.nodes - expected) > 1:
        raise NumericsError(
            "node count %d for %s deviates from expected %d"
            % (sol.nodes, state.label, expected)
        )


def radial_matrix_element(state_a, state_b, table, accuracy=1.0):
    """Radial dipole integral <a| r |b> in a0: radial_matrix_elements' one pair."""
    return radial_matrix_elements([(state_a, state_b)], table, accuracy)[0]


def radial_matrix_elements(pairs, table, accuracy=1.0):
    """Radial dipole integrals <a| r |b> (a0) of the (a, b) state pairs.

    Each pair's wavefunctions share a logarithmic grid from the smaller
    _inner_edge; its r-dependent arrays are formed once, as one _LogGrid,
    and all grids share one solve workspace. A state is solved once per
    grid, one grid at a time, and its node count checked against the
    quantum defect before any overlap.
    """
    cst._require_finite_positive(accuracy, "accuracy")
    grids = {}
    for index, (state_a, state_b) in enumerate(pairs):
        if abs(state_a.l - state_b.l) != 1:
            raise ValueError("radial dipole integral needs |l_a - l_b| = 1")
        ns_a, ns_b = table.n_star(state_a), table.n_star(state_b)
        h = min(_grid_step(ns_a, accuracy), _grid_step(ns_b, accuracy))
        r_min = min(_inner_edge(ns_a, state_a.l), _inner_edge(ns_b, state_b.l))
        grids.setdefault((r_min, _outer_radius(max(ns_a, ns_b)), h), []).append(index)
    radii = {key: _log_grid(*key) for key in grids}
    workspace = _workspace(max(map(len, radii.values()), default=0))
    values = [0.0] * len(pairs)
    for (r_min, r_max, h), members in grids.items():
        r, solutions = radii[r_min, r_max, h], {}
        grid = _LogGrid(r, table.core_charge, table.core_screening, workspace=workspace)
        for state in dict.fromkeys(state for index in members for state in pairs[index]):
            solutions[state] = radial_solution(table.n_star(state), state.l, r_grid=grid)
            _check_nodes(solutions[state], state, table.defect(state.n, state.l, state.j))
        for index in members:
            p_a, p_b = (solutions[state].p for state in pairs[index])
            values[index] = float(np.sum(p_a * p_b * r * r) * h)
    return values
