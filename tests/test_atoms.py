"""Atomic-structure tests: level parsing, energies, lifetimes, radial solver,
dipole radial matrix elements and the semiclassical cross-check.

Expected values fall in three classes: closed-form results (hydrogenic
expectation values, Rydberg series arithmetic), published spectroscopic
anchors (D-line integral, high-n matrix elements, lifetimes), and frozen
regression pins computed once with this solver and recorded here.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg.lapack import dtbtrs

from rydtools import atoms, constants as cst
from rydtools.atoms import (
    LifetimeModel,
    NumericsError,
    QuantumDefectTable,
    RadialSolution,
    RydbergState,
    parse_level,
    radial_matrix_element,
    radial_matrix_elements,
    radial_solution,
)


def _anger(nu, z, n_points=40001):
    # Anger function: (1/pi) * integral of cos(nu*theta - z*sin(theta))
    theta = np.linspace(0.0, math.pi, n_points)
    return np.trapezoid(np.cos(nu * theta - z * np.sin(theta)), theta) / math.pi


def radial_matrix_element_semiclassical(state_a, state_b, table):
    """Semiclassical estimate of <a| r |b> (a0), for cross-checking.

    Correspondence-principle route: the dipole integral is built from Anger
    functions of the effective-quantum-number difference, organized as a
    power series in l_c/nu_c around the near-circular orbit limit. Valid for
    any real non-zero difference; singular as n*_a -> n*_b.
    """
    if abs(state_a.l - state_b.l) != 1:
        raise ValueError("semiclassical dipole integral needs |l_a - l_b| = 1")
    ns_a = table.n_star(state_a)
    ns_b = table.n_star(state_b)
    d_nu = ns_a - ns_b
    if abs(d_nu) < 0.05:
        raise ValueError("semiclassical form is singular for near-degenerate states")
    l_c = 0.5 * (state_a.l + state_b.l + 1)
    nu_c = math.sqrt(ns_a * ns_b)
    gamma = (state_b.l - state_a.l) * l_c / nu_c
    g0 = (_anger(d_nu - 1.0, -d_nu) - _anger(d_nu + 1.0, -d_nu)) / (3.0 * d_nu)
    g1 = -(_anger(d_nu - 1.0, -d_nu) + _anger(d_nu + 1.0, -d_nu)) / (3.0 * d_nu)
    g2 = g0 - math.sin(math.pi * d_nu) / (math.pi * d_nu)
    g3 = 0.5 * d_nu * g0 + g1
    series = g0 + gamma * g1 + gamma**2 * g2 + gamma**3 * g3
    return 1.5 * nu_c**2 * math.sqrt(max(1.0 - (l_c / nu_c) ** 2, 0.0)) * series


def hydrogenic_r_expectation(n, l):
    """Closed-form <n l| r |n l> = (3 n^2 - l(l+1))/2 for the Coulomb problem."""
    return 0.5 * (3.0 * n**2 - l * (l + 1))


def r_expectation(sol):
    h = math.log(sol.r[1] / sol.r[0])
    return float(np.sum(sol.p**2 * sol.r**2) * h)


def norm(sol):
    h = math.log(sol.r[1] / sol.r[0])
    return float(np.sum(sol.p**2 * sol.r) * h)


def numerov_loop_solution(n_star, l, r_grid, core_charge=1.0, core_screening=0.0):
    """Reference radial solver: the inward Numerov recurrence as a Python loop.

    Same grid, start values, truncation, normalization and node window as
    radial_solution, which solves the recurrence as one banded triangular
    system instead.
    """
    r = r_grid
    h = math.log(r[1]) - math.log(r[0])
    g = (l + 0.5) ** 2 - 2.0 * r + (r / n_star) ** 2
    if core_screening > 0.0 and core_charge > 1.0:
        g = g - 2.0 * r * (core_charge - 1.0) * np.exp(-r / core_screening)
    i_max = min(int(np.searchsorted(r, atoms._outer_radius(n_star))), len(r) - 1)
    t = g * (h * h / 12.0)
    y = np.zeros(len(r))
    y[i_max] = 1e-18
    y[i_max - 1] = 1e-18 * math.exp(math.sqrt(max(g[i_max], 1e-12)) * h)
    one_minus_t = 1.0 - t
    for k in range(i_max - 1, 0, -1):
        y[k - 1] = (
            2.0 * y[k] * (1.0 + 5.0 * t[k]) - y[k + 1] * one_minus_t[k + 1]
        ) / one_minus_t[k - 1]
    inner = np.where((g > 0) & (r < n_star**2))[0]
    i_cut = 0
    if len(inner) > 0 and inner[-1] > 0:
        i_cut = int(np.argmin(np.abs(y[: inner[-1] + 1])))
    y[:i_cut] = 0.0
    p = y * np.sqrt(r) / math.sqrt(np.sum(y * y * r * r) * h)
    if p[int(np.argmax(np.abs(p)))] < 0:
        p = -p
    allowed = np.zeros(len(r), dtype=bool)
    allowed[i_cut : i_max + 1] = True
    allowed &= (g < 0) & (r > atoms.NODE_WINDOW_CORE_RADII * core_screening)
    body = p[allowed]
    signs = np.sign(body[np.abs(body) > 1e-12 * np.max(np.abs(p))])
    return RadialSolution(r=r, p=p, nodes=int(np.sum(signs[1:] * signs[:-1] < 0)))


class TestRydbergState:
    def test_label_round_trip(self):
        for text in ("60s1/2", "43d5/2", "100p3/2", "41f7/2"):
            assert parse_level(text).label == text

    def test_default_j_is_l_plus_half(self):
        assert parse_level("60d").j == 2.5

    def test_invalid_labels_rejected(self):
        for bad in ("60x1/2", "s1/2", "60", "60d9/2"):
            with pytest.raises(ValueError):
                parse_level(bad)

    def test_quantum_number_validation(self):
        with pytest.raises(ValueError):
            RydbergState(5, 5, 5.5)  # l must be < n
        with pytest.raises(ValueError):
            RydbergState(5, 1, 2.5)  # j must be l +/- 1/2
        with pytest.raises(ValueError):
            RydbergState(5, 1, 1.5, m=2.5)  # |m| <= j
        # n and l are whole numbers: 43.5 was taken as the level "43d5/2",
        # n = inf was accepted, and l = 1.0 failed only in the label
        for n in (43.5, math.inf, math.nan):
            with pytest.raises(ValueError, match="n must be a whole number"):
                RydbergState(n, 2, 2.5)
        with pytest.raises(ValueError, match="l must be a whole number"):
            RydbergState(43, 1.5, 2.0)
        assert RydbergState(43.0, 1.0, 1.5).label == "43p3/2"

    @pytest.mark.parametrize(
        "name, bad", [("j", 0.3), ("j", math.nan), ("j", math.inf), ("m", math.nan), ("m", -math.inf)]
    )
    def test_non_half_integer_momentum_rejected(self, name, bad):
        # nan raised a ValueError that named neither j nor m, inf an OverflowError
        quantum_numbers = dict(n=5, l=1, j=1.5, m=0.5)
        quantum_numbers[name] = bad
        with pytest.raises(ValueError, match="%s must be half-integer" % name):
            RydbergState(**quantum_numbers)

    def test_with_m(self):
        s = RydbergState(60, 0, 0.5)
        assert s.with_m(-0.5).m == -0.5


class TestEnergies:
    def test_low_n_measured_term_exact(self, rb_table):
        # 5s binding energy equals the measured term value exactly
        e = rb_table.energy_ghz(RydbergState(5, 0, 0.5))
        assert e == pytest.approx(-cst.ghz_from_cm(33690.7989), rel=1e-12)

    def test_hydrogenic_n2_quarter_rydberg(self):
        # zero-defect n=2 level sits at -Ry*c/4
        e_ghz = -cst.ghz_from_cm(cst.RYDBERG_INF_CM) / 4.0
        assert e_ghz == pytest.approx(-822460.49, abs=0.5)

    def test_rydberg_ritz_defect_arithmetic(self, rb_table):
        # series formula delta0 + delta2/(n - delta0)^2 reproduced by hand
        d0, d2 = 3.1311804, 0.1784
        expected = d0 + d2 / (90 - d0) ** 2
        assert rb_table.defect(90, 0, 0.5) == pytest.approx(expected, rel=1e-12)

    def test_high_n_series_energy(self, rb_table):
        delta = rb_table.defect(90, 0, 0.5)
        ry_ghz = cst.ghz_from_cm(cst.rydberg_cm("Rb87"))
        expected = -ry_ghz / (90 - delta) ** 2
        got = rb_table.energy_ghz(RydbergState(90, 0, 0.5))
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(-435.958, abs=0.01)

    def test_energy_monotone_in_n(self, rb_table):
        energies = [rb_table.energy_ghz(RydbergState(n, 0, 0.5)) for n in range(30, 120, 10)]
        assert all(a < b < 0 for a, b in zip(energies, energies[1:]))

    def test_cs_table_loads(self, cs_table):
        assert cs_table.defect(100, 0, 0.5) == pytest.approx(4.0493532, abs=1e-3)
        assert cs_table.energy_ghz(RydbergState(60, 0, 0.5)) < 0


class TestDataFiles:
    def test_second_construction_reads_no_file(self, monkeypatch):
        first = QuantumDefectTable("Cs133")
        first_model = LifetimeModel(first)

        def no_open(*args, **kwargs):
            raise AssertionError("a data file was opened again")

        monkeypatch.setattr(atoms, "open", no_open, raising=False)
        second = QuantumDefectTable("Cs133")
        second_model = LifetimeModel(second)
        assert second.series == first.series and second.series is not first.series
        assert second.exact_terms == first.exact_terms
        assert (second.core_charge, second.core_screening) == (
            first.core_charge,
            first.core_screening,
        )
        assert second_model.coeffs == first_model.coeffs
        assert second_model.coeffs is not first_model.coeffs

    def test_unknown_species_rejected_when_loaded(self):
        # the table keeps no list of its own: the data lookup raises
        with pytest.raises(ValueError, match="unknown species 'K39'"):
            QuantumDefectTable("K39")

    def test_unknown_kind_rejected(self):
        # any kind but "defects" returned the lifetimes file
        with pytest.raises(ValueError, match="unknown kind 'typo'"):
            atoms.data_file_path("Rb87", "typo")
        assert atoms.data_file_path("Rb87", "lifetimes").endswith("rb87_lifetimes.txt")

    def test_fallback_sets_are_not_shared(self):
        first, second = QuantumDefectTable("Rb87"), QuantumDefectTable("Rb87")
        with pytest.warns(UserWarning, match="no defect series"):
            first.defect(30, 5, 5.5)
        assert first.used_fallback == {(5, 5.5)}
        assert second.used_fallback == set()


class TestLifetimes:
    # room-temperature ns-series values, paper anchors with 15% tolerance
    ANCHORS = {50: 70.0, 75: 180.0, 100: 340.0, 125: 570.0, 150: 860.0, 175: 1200.0, 200: 1600.0}
    # frozen pins from this implementation
    PINS = {50: 65.7, 75: 179.2, 100: 352.6, 125: 586.6, 150: 881.6, 175: 1237.8, 200: 1655.2}

    def test_room_temperature_band(self, rb_table):
        model = LifetimeModel(rb_table)
        for n, anchor in self.ANCHORS.items():
            tau = model.tau_us(RydbergState(n, 0, 0.5), 300.0)
            assert abs(tau - anchor) / anchor < 0.15, (n, tau)

    def test_regression_pins(self, rb_table):
        model = LifetimeModel(rb_table)
        for n, pin in self.PINS.items():
            tau = model.tau_us(RydbergState(n, 0, 0.5), 300.0)
            assert tau == pytest.approx(pin, rel=0.01)

    def test_radiative_limit_formula(self, rb_table):
        # tau(0 K) follows the fitted power law in effective quantum number
        model = LifetimeModel(rb_table)
        state = RydbergState(80, 0, 0.5)
        n_star = rb_table.n_star(state)
        assert model.tau_us(state, 0.0) == pytest.approx(
            1.368e-3 * n_star**3.0008, rel=1e-9
        )

    def test_blackbody_shortens_lifetime(self, rb_table):
        model = LifetimeModel(rb_table)
        state = RydbergState(100, 0, 0.5)
        assert model.tau_us(state, 300.0) < model.tau_us(state, 0.0)

    def test_blackbody_rate_hand_value(self):
        # 4 alpha^3 kB T / (3 hbar n^2) evaluated independently
        n, t_k = 60, 300.0
        rate = 4.0 * cst.FINE_STRUCTURE**3 * cst.KB * t_k / (3.0 * cst.HBAR * n**2)
        assert cst.blackbody_rate(n, t_k) == pytest.approx(rate, rel=1e-12)

    @pytest.mark.parametrize("t_k", [-1.0, -300.0, math.nan, math.inf])
    def test_unphysical_temperature_rejected(self, rb_table, t_k):
        # a negative rate would lengthen the lifetime (-1 K) or make it
        # negative (-300 K)
        with pytest.raises(ValueError, match="temperature_k"):
            cst.blackbody_rate(60, t_k)
        with pytest.raises(ValueError, match="temperature_k"):
            LifetimeModel(rb_table).tau_us(RydbergState(60, 0, 0.5), t_k)
        with pytest.raises(ValueError, match="temperature_k"):
            cst.thermal_velocity(t_k, cst.SPECIES_MASS_U["Rb87"])

    def test_zero_temperature_is_exactly_zero(self):
        assert cst.blackbody_rate(60, 0.0) == 0.0
        assert cst.thermal_velocity(0.0, cst.SPECIES_MASS_U["Rb87"]) == 0.0


def parent_radial_solution(n_star, l, r_grid=None, core_charge=1.0, core_screening=0.0):
    """Bit oracle: radial_solution as it was before grids were prepared.

    Forms everything per call on the whole grid: the core term, the band from
    one 1 - t array, a separate right-hand side, and the solve copied back.
    """
    r_max = atoms._outer_radius(n_star)
    if r_grid is None:
        h = atoms._grid_step(n_star)
        r = atoms._log_grid(atoms._inner_edge(n_star, l), r_max, h)
    else:
        r = np.asarray(r_grid, dtype=float)
        h = math.log(r[1]) - math.log(r[0])
    g = (l + 0.5) ** 2 - 2.0 * r + (r / n_star) ** 2
    if core_screening > 0.0 and core_charge > 1.0:
        g = g - 2.0 * r * (core_charge - 1.0) * np.exp(-r / core_screening)
    i_max = min(int(np.searchsorted(r, r_max)), len(r) - 1)
    t = g * (h * h / 12.0)
    one_minus_t = 1.0 - t
    m = i_max - 1
    y = np.zeros(len(r))
    y[i_max] = 1e-18
    y[m] = 1e-18 * math.exp(math.sqrt(max(g[i_max], 1e-12)) * h)
    ab = np.empty((3, m), order="F")
    ab[0] = ab[2] = one_minus_t[:m]
    ab[1] = -2.0 * (1.0 + 5.0 * t[:m])
    rhs = np.zeros(m)
    rhs[m - 1] = 2.0 * (1.0 + 5.0 * t[m]) * y[m] - one_minus_t[i_max] * y[i_max]
    rhs[m - 2] = -one_minus_t[m] * y[m]
    y[:m], info = dtbtrs(ab, rhs, uplo="U")
    assert info == 0
    inner = np.where((g > 0) & (r < n_star**2))[0]
    i_cut = 0
    if len(inner) > 0 and inner[-1] > 0:
        i_cut = int(np.argmin(np.abs(y[: inner[-1] + 1])))
    y[:i_cut] = 0.0
    p = y * np.sqrt(r)
    p /= math.sqrt(np.sum(y * y * r * r) * h)
    if p[int(np.argmax(np.abs(p)))] < 0:
        p = -p
    allowed = np.zeros(len(r), dtype=bool)
    allowed[i_cut : i_max + 1] = True
    allowed &= (g < 0) & (r > atoms.NODE_WINDOW_CORE_RADII * core_screening)
    body = p[allowed]
    signs = np.sign(body[np.abs(body) > 1e-12 * np.max(np.abs(p))])
    return RadialSolution(r=r, p=p, nodes=int(np.sum(signs[1:] * signs[:-1] < 0)))


def assert_same_bits(sol, oracle):
    assert np.array_equal(sol.r, oracle.r)
    assert np.array_equal(sol.p, oracle.p)
    assert sol.nodes == oracle.nodes


class TestRadialSolver:
    CASES = [(2, 0), (2, 1), (10, 0), (10, 9), (30, 2), (50, 0), (50, 49), (80, 3)]

    def test_hydrogen_r_expectation(self):
        for n, l in self.CASES:
            sol = radial_solution(float(n), l)
            exact = hydrogenic_r_expectation(n, l)
            assert abs(r_expectation(sol) - exact) / exact < 1e-3, (n, l)

    def test_hydrogen_node_counts(self):
        for n, l in self.CASES:
            sol = radial_solution(float(n), l)
            assert sol.nodes == n - l - 1, (n, l)

    def test_normalization(self):
        for n, l in [(20, 0), (45, 3), (70, 1)]:
            assert norm(radial_solution(float(n), l)) == pytest.approx(1.0, abs=1e-9)

    def test_outer_lobe_positive(self):
        sol = radial_solution(40.0, 2)
        assert sol.p[np.argmax(np.abs(sol.p))] > 0

    @settings(max_examples=8, deadline=None)
    @given(n=st.integers(min_value=15, max_value=60), l=st.integers(min_value=0, max_value=3))
    def test_hydrogen_property(self, n, l):
        sol = radial_solution(float(n), l)
        assert sol.nodes == n - l - 1
        exact = hydrogenic_r_expectation(n, l)
        assert abs(r_expectation(sol) - exact) / exact < 1e-3

    @settings(max_examples=40, deadline=None)
    @given(
        species=st.sampled_from(["Rb87", "Cs133"]),
        n=st.integers(min_value=5, max_value=200),
        l=st.integers(min_value=0, max_value=3),
        upper_j=st.booleans(),
        screened=st.booleans(),
    )
    @example(species="Rb87", n=5, l=0, upper_j=True, screened=True)
    @example(species="Cs133", n=200, l=3, upper_j=False, screened=False)
    def test_banded_solve_matches_loop_oracle(
        self, rb_table, cs_table, species, n, l, upper_j, screened
    ):
        table = rb_table if species == "Rb87" else cs_table
        j = l + 0.5 if upper_j or l == 0 else l - 0.5
        n_star = table.n_star(RydbergState(n, l, j))
        core = dict(core_charge=table.core_charge, core_screening=table.core_screening)
        if not screened:
            core = dict(core_charge=1.0, core_screening=0.0)
        sol = radial_solution(n_star, l, **core)
        oracle = numerov_loop_solution(n_star, l, sol.r, **core)
        assert sol.nodes == oracle.nodes
        outside = sol.r > atoms.NODE_WINDOW_CORE_RADII * core["core_screening"]
        peak = np.max(np.abs(oracle.p))
        assert np.max(np.abs(sol.p - oracle.p)[outside]) <= 1e-10 * peak
        # and the parent's whole-grid solve, bit for bit, on the self-chosen
        # grid and on a supplied array grid (the public path)
        assert_same_bits(sol, parent_radial_solution(n_star, l, **core))
        r = atoms._log_grid(0.5 * atoms.R_MIN_DEFAULT, atoms._outer_radius(n_star + 1.0), 4e-3)
        assert_same_bits(
            radial_solution(n_star, l, r_grid=r, **core),
            parent_radial_solution(n_star, l, r_grid=r, **core),
        )

    @settings(max_examples=40, deadline=None)
    @given(
        species=st.sampled_from(["Rb87", "Cs133"]),
        n=st.integers(min_value=5, max_value=200),
        l=st.integers(min_value=0, max_value=2),
        dn=st.integers(min_value=-4, max_value=4),
        upper_j=st.booleans(),
        accuracy=st.sampled_from([1.0, 1.5]),
    )
    @example(species="Rb87", n=5, l=0, dn=0, upper_j=True, accuracy=1.0)
    @example(species="Cs133", n=200, l=2, dn=-4, upper_j=False, accuracy=1.5)
    def test_prepared_grids_keep_parent_bits(
        self, rb_table, cs_table, species, n, l, dn, upper_j, accuracy
    ):
        # every solve radial_matrix_elements makes on its prepared grids is
        # re-solved by the oracle on that grid's r, and each grid's core term
        # is the whole-grid term, which is exactly 0 past its prefix
        table = rb_table if species == "Rb87" else cs_table
        n_low = 5 if species == "Rb87" else 6  # the ground-state shell
        n = max(n, n_low)
        a = RydbergState(n, l, l + 0.5)
        n_b = min(max(n + dn, n_low), 200)
        b = RydbergState(n_b, l + 1, l + 1.5 if upper_j else l + 0.5)
        c = RydbergState(n_b, l + 1, l + 0.5)
        solves = []

        def recording(n_star, l, r_grid=None, **core):
            sol = radial_solution(n_star, l, r_grid, **core)
            solves.append((n_star, l, r_grid, sol))
            return sol

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(atoms, "radial_solution", recording)
            radial_matrix_elements([(a, b), (c, a)], table, accuracy)
        assert len(solves) >= 2
        z, r_c = table.core_charge, table.core_screening
        for n_star, l_solved, grid, sol in solves:
            assert isinstance(grid, atoms._LogGrid)
            oracle = parent_radial_solution(
                n_star, l_solved, grid.r, core_charge=z, core_screening=r_c
            )
            assert_same_bits(sol, oracle)
            full = 2.0 * grid.r * (z - 1.0) * np.exp(-grid.r / r_c)
            assert np.array_equal(grid.core, full[: len(grid.core)])
            assert not np.any(full[len(grid.core) :])

    def test_core_term_extent_is_where_exp_underflows(self):
        # the first whole number of core radii past which exp(-r/r_c) is 0
        extent = float(atoms._CORE_TERM_EXTENT)
        assert np.exp(-extent) == 0.0
        assert np.exp(-(extent - 1.0)) > 0.0

    @pytest.mark.parametrize(
        "n_star, l, match",
        [
            (math.nan, 0, "n_star must be finite"),
            (math.inf, 0, "n_star must be finite"),
            (50.0, 0.5, "l must be a whole number"),
            (50.0, -1, "l must be a whole number"),
        ],
    )
    def test_bad_inputs_rejected(self, n_star, l, match):
        with pytest.raises(ValueError, match=match):
            radial_solution(n_star, l)

    def test_zero_pivot_raises(self, monkeypatch):
        monkeypatch.setattr(atoms, "dtbtrs", lambda ab, rhs, uplo, overwrite_b=0: (rhs, 7))
        with pytest.raises(NumericsError, match="info 7"):
            radial_solution(30.0, 1)

    @pytest.mark.parametrize("n_star, l", [(120.0, 100), (200.0, 150)])
    def test_overflow_raises(self, n_star, l):
        # the inward solve through a high centrifugal barrier down to
        # R_MIN_DEFAULT overflows: a supplied grid is used as given
        r = atoms._log_grid(
            atoms.R_MIN_DEFAULT, atoms._outer_radius(n_star), atoms._grid_step(n_star)
        )
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericsError, match="non-finite"):
                radial_solution(n_star, l, r_grid=r)

    @pytest.mark.parametrize("n_star, l", [(120.0, 100), (200.0, 150)])
    def test_high_l_self_chosen_grid(self, n_star, l):
        # the self-chosen grid starts where the inward growth below the
        # inner turning point reaches 1e100, so nothing overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = radial_solution(n_star, l)
        assert sol.r[0] > atoms.R_MIN_DEFAULT
        assert sol.nodes == round(n_star) - l - 1
        assert norm(sol) == pytest.approx(1.0, abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(n_star=st.floats(min_value=4.0, max_value=300.0), l=st.integers(0, 3))
    def test_low_l_grid_starts_at_r_min(self, n_star, l):
        sol = radial_solution(n_star, l)
        r = atoms._log_grid(
            atoms.R_MIN_DEFAULT, atoms._outer_radius(n_star), atoms._grid_step(n_star)
        )
        assert np.array_equal(sol.r, r)

    def test_non_log_uniform_grid_rejected(self):
        with pytest.raises(ValueError, match="uniform in ln r"):
            radial_solution(50.0, 0, r_grid=np.linspace(0.05, 7500.0, 20000))
        for short in (np.array([1.0]), np.array([])):
            with pytest.raises(ValueError, match="two points"):
                radial_solution(50.0, 0, r_grid=short)
        # a list is checked like an array (it used to raise TypeError)
        with pytest.raises(ValueError, match="classical region"):
            radial_solution(50.0, 0, r_grid=[1.0, 2.0, 4.0])


class TestMatrixElements:
    def test_d_line_integral(self, rb_table):
        v = radial_matrix_element(
            RydbergState(5, 0, 0.5), RydbergState(5, 1, 1.5), rb_table
        )
        assert abs(v - 5.1) / 5.1 < 0.02
        assert v == pytest.approx(5.1803, abs=0.003)

    def test_low_to_high_n_couplings(self, rb_table):
        p = RydbergState(5, 1, 1.5)
        to_s = radial_matrix_element(p, RydbergState(50, 0, 0.5), rb_table)
        to_d = radial_matrix_element(p, RydbergState(50, 2, 2.5), rb_table)
        assert to_s > 0 and abs(to_s - 0.014) / 0.014 < 0.10
        assert to_d < 0 and abs(abs(to_d) - 0.024) / 0.024 < 0.10
        assert to_s == pytest.approx(0.012776, abs=3e-4)
        assert to_d == pytest.approx(-0.024009, abs=5e-4)

    def test_high_n_quartet(self, rb_table):
        d = RydbergState(90, 2, 2.5)
        anchors = {
            (91, 1, 1.5): 1.30,
            (92, 1, 1.5): 0.76,
            (89, 3, 3.5): 1.30,
            (88, 3, 3.5): 0.80,
        }
        pins = {
            (91, 1, 1.5): 1.3161,
            (92, 1, 1.5): 0.7604,
            (89, 3, 3.5): 1.2960,
            (88, 3, 3.5): 0.7963,
        }
        for target, anchor in anchors.items():
            v = radial_matrix_element(d, RydbergState(*target), rb_table) / 90**2
            assert abs(abs(v) - anchor) / anchor < 0.05, target
            assert abs(v) == pytest.approx(pins[target], abs=0.005)

    def test_symmetry(self, rb_table):
        a, b = RydbergState(60, 0, 0.5), RydbergState(60, 1, 1.5)
        assert radial_matrix_element(a, b, rb_table) == pytest.approx(
            radial_matrix_element(b, a, rb_table), rel=1e-12
        )

    def test_forbidden_rejected(self, rb_table):
        with pytest.raises(ValueError):
            radial_matrix_element(
                RydbergState(60, 0, 0.5), RydbergState(60, 2, 2.5), rb_table
            )

    @pytest.mark.filterwarnings("ignore:no defect series")
    @pytest.mark.parametrize("n, l", [(120, 100), (200, 150)])
    def test_high_l_matches_hydrogen(self, rb_table, n, l):
        # no defect series above l = 4, so the states are hydrogenic:
        # <n l| r |n l-1> = (3/2) n sqrt(n^2 - l^2) a0
        value = radial_matrix_element(
            RydbergState(n, l, l + 0.5), RydbergState(n, l - 1, l - 0.5), rb_table
        )
        assert value == pytest.approx(1.5 * n * math.sqrt(n * n - l * l), rel=1e-6)

    def test_grid_refinement_stable(self, rb_table):
        a, b = RydbergState(60, 0, 0.5), RydbergState(60, 1, 1.5)
        v1 = radial_matrix_element(a, b, rb_table)
        v2 = radial_matrix_element(a, b, rb_table, accuracy=2.0)
        assert abs(v2 - v1) / abs(v1) < 0.01

    @pytest.mark.parametrize("species", ["Rb87", "Cs133"])
    def test_elements_are_the_one_pair_values(self, species):
        # pairs on shared and distinct grids, a repeat and a reversed pair:
        # each value is its own radial_matrix_element, bit for bit
        table = QuantumDefectTable(species)
        s, d = RydbergState(40, 0, 0.5), RydbergState(38, 2, 2.5)
        p = [RydbergState(n, 1, j) for n in (40, 39) for j in (1.5, 0.5)]
        pairs = [(s, q) for q in p] + [(p[1], d), (s, p[2]), (p[3], s)]
        for accuracy in (1.0, 1.5):
            values = radial_matrix_elements(pairs, table, accuracy)
            assert values == [radial_matrix_element(a, b, table, accuracy) for a, b in pairs]
        assert radial_matrix_elements([], table) == []

    @pytest.mark.parametrize("species", ["Rb87", "Cs133"])
    def test_covering_grid_is_finer_and_no_less_accurate(self, species):
        # the <ns|r|n'p_j> of s_state_channels on one covering grid: it is as
        # fine and as wide as each element's own grid, no element is farther
        # from its accuracy-8 value than on its own grid, and elements whose
        # own grids are one grid keep radial_matrix_elements' bits
        table = QuantumDefectTable(species)
        for n in (20, 30, 45, 60, 80, 100, 130, 160, 200):
            s = RydbergState(n, 0, 0.5)
            pairs = [(s, RydbergState(m, 1, j)) for m in (n, n - 1) for j in (1.5, 0.5)]
            r_min, r_max, h = atoms._grid_key(pairs, table, 1.0)
            for pair in pairs:
                own_min, own_max, own_h = atoms._grid_key([pair], table, 1.0)
                assert h <= own_h and r_min <= own_min and r_max >= own_max, (n, pair)
            covering = atoms._covering_elements(pairs, table)
            own = radial_matrix_elements(pairs, table)
            exact = radial_matrix_elements(pairs, table, accuracy=8.0)
            for value, own_value, reference in zip(covering, own, exact):
                own_error = abs(own_value - reference)
                assert abs(value - reference) <= (1.0 + 1e-3) * own_error, (n, value)
            shared = pairs[2:]  # both (n-1)p elements sit on the ns grid
            assert len({atoms._grid_key([pair], table, 1.0) for pair in shared}) == 1
            assert atoms._covering_elements(shared, table) == radial_matrix_elements(
                shared, table
            )

    @pytest.mark.parametrize("accuracy", [0.0, -1.0, math.nan, math.inf])
    def test_bad_accuracy_rejected(self, rb_table, accuracy):
        with pytest.raises(ValueError, match="accuracy"):
            radial_matrix_element(
                RydbergState(60, 0, 0.5), RydbergState(60, 1, 1.5), rb_table, accuracy
            )


class TestNodeCheck:
    @settings(max_examples=30, deadline=None)
    @given(
        species=st.sampled_from(["Rb87", "Cs133"]),
        n=st.integers(min_value=5, max_value=150),
        l=st.integers(min_value=0, max_value=3),
        upper_j=st.booleans(),
    )
    @example(species="Rb87", n=5, l=0, upper_j=True)
    @example(species="Cs133", n=5, l=1, upper_j=False)
    @example(species="Rb87", n=150, l=3, upper_j=False)
    @example(species="Cs133", n=150, l=2, upper_j=True)
    def test_screened_nodes_match_coulomb_reference(
        self, rb_table, cs_table, species, n, l, upper_j
    ):
        # nodes counted outside the core on the screened solution equal those
        # of the pure Coulomb solution at the same n_star on the same grid
        table = rb_table if species == "Rb87" else cs_table
        j = l + 0.5 if upper_j or l == 0 else l - 0.5
        n_star = table.n_star(RydbergState(n, l, j))
        screened = radial_solution(
            n_star,
            l,
            core_charge=table.core_charge,
            core_screening=table.core_screening,
        )
        reference = radial_solution(n_star, l, r_grid=screened.r)
        assert screened.nodes == reference.nodes

    @pytest.mark.parametrize("shift", [-2.0, 2.0])
    @pytest.mark.parametrize("shifted_l", [0, 1])
    def test_wrong_node_count_raises(self, monkeypatch, shift, shifted_l):
        # a defect off by two puts either state two nodes away from its
        # expected count, beyond the +-1 tolerance
        table = QuantumDefectTable("Rb87")
        true_n_star = table.n_star

        def shifted_n_star(state):
            return true_n_star(state) + (shift if state.l == shifted_l else 0.0)

        monkeypatch.setattr(table, "n_star", shifted_n_star)
        with pytest.raises(NumericsError):
            radial_matrix_element(
                RydbergState(60, 0, 0.5), RydbergState(60, 1, 1.5), table
            )


class TestSemiclassicalCrossCheck:
    PAIRS = [
        ((60, 0, 0.5), (60, 1, 1.5)),
        ((60, 0, 0.5), (59, 1, 1.5)),
        ((90, 2, 2.5), (91, 1, 1.5)),
        ((90, 2, 2.5), (88, 3, 3.5)),
        ((100, 0, 0.5), (100, 1, 0.5)),
        ((50, 2, 2.5), (51, 1, 1.5)),
        ((70, 1, 1.5), (68, 2, 2.5)),
        ((80, 3, 3.5), (79, 2, 2.5)),
    ]

    def test_agreement_with_numerov(self, rb_table):
        for qa, qb in self.PAIRS:
            a, b = RydbergState(*qa), RydbergState(*qb)
            num = radial_matrix_element(a, b, rb_table)
            semi = radial_matrix_element_semiclassical(a, b, rb_table)
            dev = abs(abs(semi) - abs(num)) / abs(num)
            assert dev < 0.05, (qa, qb, dev)
            assert dev < 0.005, (qa, qb, dev)  # frozen regression margin

    def test_degenerate_transition_rejected(self):
        # f -> g at equal n: effective quantum numbers nearly coincide. The
        # table has no g series, so a fresh table warns of its zero defect
        table = QuantumDefectTable("Rb87")
        with pytest.warns(UserWarning, match="no defect series"), pytest.raises(ValueError):
            radial_matrix_element_semiclassical(
                RydbergState(60, 3, 3.5), RydbergState(60, 4, 4.5), table
            )
