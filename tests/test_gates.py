"""Gate error budgets, optimization, landscapes, and excitation budgets.

Expected values were computed analytically where a closed form exists,
or frozen from converged runs of the released implementation after
cross-checks against independently coded formula transcriptions and the
exact two-atom interaction model.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from rydtools import atoms, blockade, gates
from rydtools import constants as cst
from rydtools.atoms import LifetimeModel, RydbergState
from rydtools.gates import (
    CAPACITY_2D,
    CAPACITY_3D,
    GateParams,
    GaussianBeam,
    array_capacity,
    blockade_gate_error,
    blockade_gate_landscape,
    interaction_gate_error,
    interaction_gate_floor,
    interaction_gate_landscape,
    loading_error,
    minimize_blockade_gate,
    minimize_interaction_gate,
    optimal_blockade_gate,
    optimal_interaction_gate,
    optimize_interaction_gate,
    position_phase_error,
    single_photon_rabi_mhz,
    spontaneous_rate_mhz,
    two_photon_budget,
)
from rydtools.blockade import ExcitationField, effective_interaction_mhz
from rydtools.pair import forster_eigensystem, s_state_channels

# Fig-style lifetime inputs (us) used for the landscape checkpoints.
LANDSCAPE_TAU_US = {50: 70.0, 100: 340.0, 150: 860.0, 200: 1600.0}


@pytest.fixture(scope="module")
def rb_s100_eig(rb_s100_channels):
    return forster_eigensystem(rb_s100_channels)


def oracle_minimum(error_at, rabi_mhz, bounds_mhz=(0.0, math.inf)):
    """(drive, error) of bounded Brent on a +-0.1 bracket in ln(drive) around
    rabi_mhz, clipped to bounds_mhz, with xatol 1e-12."""
    lo, hi = np.clip(rabi_mhz * np.exp([-0.1, 0.1]), *bounds_mhz)
    res = minimize_scalar(
        lambda t: error_at(math.exp(t)),
        bounds=(math.log(lo), math.log(hi)),
        method="bounded",
        options={"xatol": 1e-12},
    )
    return math.exp(res.x), res.fun


def assert_exact_optimum(error_at, budget, bounds_mhz=(0.0, math.inf)):
    """No lower error near the returned drive, and a stationary budget there
    unless the drive is a bound."""
    rabi = budget.rabi_opt_mhz
    oracle_rabi, oracle_error = oracle_minimum(error_at, rabi, bounds_mhz)
    assert budget.total_error <= oracle_error * (1.0 + 1e-12)
    assert rabi == pytest.approx(oracle_rabi, rel=1e-5)
    if rabi not in bounds_mhz:
        h = 1e-5 * rabi
        slope = (error_at(rabi + h) - error_at(rabi - h)) / (2.0 * h)
        assert abs(slope) * rabi / budget.total_error <= 1e-8


def assert_public_budget(budget, public):
    """budget, an optimizer's output, carries the formula fields of the
    public budget at its drive bit for bit."""
    for name in ("se_error", "rotation_error", "total_error", "regime_ok"):
        assert getattr(budget, name) == getattr(public, name), name


def bisection_optima(spectra, tau, splitting):
    """(drives, interior) of a reference search: the scan and bracket of
    gates._interaction_optima, then bisection in the drive to adjacent
    floats, returning the upper end."""
    w10 = 2.0 * math.pi * splitting

    def budget(omega):
        shift, shift_slope = blockade._saturated_shift(spectra, omega)
        terms = gates._interaction_terms(2.0 * math.pi * omega, 2.0 * math.pi * np.abs(shift), w10, tau)
        log_slope = omega * shift_slope / shift
        powers = (-log_slope, -1.0, 2.0 * log_slope - 2.0, 2.0)
        return sum(terms), sum(p * term for p, term in zip(powers, terms))

    points = gates.INTERACTION_SCAN_POINTS
    rows = np.arange(spectra[0].shape[0])
    lo, hi = gates.RABI_BOUNDS_MHZ
    scan = np.exp(np.linspace(math.log(lo), math.log(hi), points))
    scan[[0, -1]] = lo, hi
    totals, slopes = budget(scan[:, None])
    i0 = np.argmin(totals, axis=0)
    g0 = slopes[i0, rows]
    j = np.clip(np.where(g0 < 0.0, i0 + 1, i0 - 1), 0, points - 1)
    ends = np.sort([i0, np.where(g0 * slopes[j, rows] < 0.0, j, i0)], axis=0)
    a, ga, b = scan[ends[0]], slopes[ends[0], rows], scan[ends[1]]
    while np.any((a < (mid := 0.5 * (a + b))) & (mid < b)):
        up = budget(mid)[1] * ga > 0.0
        a, b = np.where(up, mid, a), np.where(up, b, mid)
    return b, (0 < i0) & (i0 < points - 1)


@pytest.fixture(scope="module")
def rb_s150_eig(rb_table):
    return forster_eigensystem(s_state_channels(150, rb_table))


@pytest.fixture(scope="module")
def rb_s200_eig(rb_table):
    return forster_eigensystem(s_state_channels(200, rb_table))


class TestGateParams:
    def test_rejects_nonpositive_inputs(self):
        with pytest.raises(ValueError):
            GateParams(0.0, 100.0, blockade_mhz=10.0)
        with pytest.raises(ValueError):
            GateParams(1.0, -5.0, blockade_mhz=10.0)
        with pytest.raises(ValueError):
            GateParams(1.0, 100.0, blockade_mhz=0.0)
        with pytest.raises(ValueError):
            GateParams(1.0, 100.0, interaction_mhz=-1.0)
        with pytest.raises(ValueError):
            GateParams(1.0, 100.0, qubit_splitting_mhz=0.0)

    @pytest.mark.parametrize("rabi", [math.inf, math.nan])
    def test_drive_must_be_finite(self, rabi):
        # an infinite drive gave blockade_gate_error a nan se_error and total
        with pytest.raises(ValueError, match="rabi_mhz must be finite"):
            GateParams(rabi, 100.0, blockade_mhz=10.0)

    def test_infinite_splitting_allowed(self):
        p = GateParams(1.0, 100.0, math.inf, blockade_mhz=10.0)
        assert p.qubit_splitting_mhz == math.inf

    def test_blockade_regime_flag(self):
        assert GateParams(1.0, 100.0, blockade_mhz=3.0).blockade_regime_ok
        assert not GateParams(1.0, 100.0, blockade_mhz=2.9).blockade_regime_ok

    def test_interaction_regime_flag(self):
        ok = GateParams(30.0, 100.0, interaction_mhz=10.0)
        assert ok.interaction_regime_ok
        weak = GateParams(20.0, 100.0, interaction_mhz=10.0)
        assert not weak.interaction_regime_ok


class TestBlockadeGateError:
    def test_budget_decomposition_is_exact(self):
        budget = blockade_gate_error(GateParams(1.7, 410.0, blockade_mhz=25.0))
        assert budget.total_error == budget.se_error + budget.rotation_error

    def test_spot_value_infinite_splitting(self):
        budget = blockade_gate_error(
            GateParams(1.0, 100.0, math.inf, blockade_mhz=10.0)
        )
        # 7pi/(4*w*tau)*(1 + w^2/(7 b^2)) + w^2/(8 b^2), angular units.
        assert budget.se_error == pytest.approx(7.0 / 800.0 * (1 + 1.0 / 700.0))
        assert budget.rotation_error == pytest.approx(1.0 / 800.0)
        assert budget.total_error == pytest.approx(0.010012499999999997, rel=1e-12)

    def test_spot_value_default_splitting(self):
        budget = blockade_gate_error(GateParams(1.0, 100.0, blockade_mhz=10.0))
        assert budget.total_error == pytest.approx(0.010012516242841291, rel=1e-12)
        # The finite splitting only adds (rabi/splitting)^2 corrections.
        assert budget.total_error > 0.010012499999999997

    def test_regime_flag_reported(self):
        assert blockade_gate_error(
            GateParams(1.0, 100.0, blockade_mhz=10.0)
        ).regime_ok
        assert not blockade_gate_error(
            GateParams(10.0, 100.0, blockade_mhz=10.0)
        ).regime_ok

    @given(
        rabi=st.floats(0.01, 1e3),
        blockade=st.floats(0.01, 1e4),
        tau=st.floats(1.0, 1e5),
    )
    @settings(max_examples=60, deadline=None)
    def test_error_never_beats_closed_minimum(self, rabi, blockade, tau):
        # The closed minimum drops positive terms, so it bounds every
        # operating point from below, at any drive strength.
        budget = blockade_gate_error(
            GateParams(rabi, tau, blockade_mhz=blockade)
        )
        _, e_min = optimal_blockade_gate(blockade, tau)
        assert budget.total_error > e_min

    def test_budget_is_finite_at_infinite_blockade(self):
        rabi, tau, splitting = 5.0, 100.0, 6834.68
        budget = blockade_gate_error(
            GateParams(rabi, tau, splitting, blockade_mhz=math.inf)
        )
        omega, w10 = 2.0 * math.pi * rabi, 2.0 * math.pi * splitting
        se = 7.0 * math.pi / (4.0 * omega * tau) * (1.0 + omega**2 / w10**2)
        assert budget.se_error == pytest.approx(se, rel=1e-15)
        assert budget.rotation_error == pytest.approx(
            3.0 * omega**2 / (4.0 * w10**2), rel=1e-15
        )
        assert budget.total_error == budget.se_error + budget.rotation_error


class TestOptimalBlockadeGate:
    def test_spot_value(self):
        rabi_opt, e_min = optimal_blockade_gate(10.0, 100.0)
        assert rabi_opt == pytest.approx(1.518294485937831, rel=1e-12)
        assert e_min == pytest.approx(0.00864456804760959, rel=1e-12)

    def test_two_thirds_scaling(self):
        _, e1 = optimal_blockade_gate(10.0, 100.0)
        _, e2 = optimal_blockade_gate(20.0, 400.0)  # B*tau x8
        assert e2 == pytest.approx(e1 / 4.0, rel=1e-12)
        slope = (math.log(e2) - math.log(e1)) / math.log(8.0)
        assert slope == pytest.approx(-2.0 / 3.0, rel=1e-12)

    def test_optimum_is_stationary_point_of_two_term_form(self):
        blockade, tau = 10.0, 100.0
        rabi_opt, _ = optimal_blockade_gate(blockade, tau)
        w, b = 2 * math.pi * rabi_opt, 2 * math.pi * blockade

        def two_term(x):
            return 7 * math.pi / (4 * x * tau) + x**2 / (8 * b**2)

        h = 1e-6 * w
        deriv = (two_term(w + h) - two_term(w - h)) / (2 * h)
        assert abs(deriv) * w / two_term(w) < 1e-8

    def test_numeric_minimum_matches_closed_form(self):
        # Infinite splitting: only the drive-leakage term separates the
        # full error from the two-term closed form.
        budget = minimize_blockade_gate(10.0, 100.0, math.inf)
        rabi_cl, e_cl = optimal_blockade_gate(10.0, 100.0)
        assert budget.total_error == pytest.approx(
            0.008663536319636036, rel=1e-9
        )
        assert budget.interior_optimum
        assert abs(budget.total_error / e_cl - 1.0) < 0.01
        assert abs(budget.rabi_opt_mhz / rabi_cl - 1.0) < 0.05

    def test_exact_optimum_against_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            blockade_mhz = 10.0 ** rng.uniform(-1.0, 4.0)
            tau = 10.0 ** rng.uniform(1.0, 4.0)
            splitting = 10.0 ** rng.uniform(3.0, 5.0)
            budget = minimize_blockade_gate(blockade_mhz, tau, splitting)
            assert budget.interior_optimum
            params = GateParams(budget.rabi_opt_mhz, tau, splitting, blockade_mhz=blockade_mhz)
            assert_public_budget(budget, blockade_gate_error(params))

            def error_at(rabi):
                params = GateParams(rabi, tau, splitting, blockade_mhz=blockade_mhz)
                return blockade_gate_error(params).total_error

            assert_exact_optimum(error_at, budget)

    def test_infinite_blockade_is_the_limiting_root(self):
        # at b = inf, C = 3 / (4 w10^2) and B = A / w10^2: the optimum is the
        # positive root of (3 / (2 w10^2)) Omega^3 + (A / w10^2) Omega^2 - A
        tau, splitting = 100.0, 6834.68
        w10 = 2.0 * math.pi * splitting
        a = 7.0 * math.pi / (4.0 * tau)
        roots = np.roots([1.5 / w10**2, a / w10**2, 0.0, -a])
        positive = [r.real for r in roots if r.real > 0.0 and abs(r.imag) == 0.0]
        assert len(positive) == 1
        budget = minimize_blockade_gate(math.inf, tau, splitting)
        assert budget.rabi_opt_mhz == pytest.approx(positive[0] / (2.0 * math.pi), rel=1e-12)
        assert math.isfinite(budget.total_error)
        near = minimize_blockade_gate(1e12, tau, splitting)
        assert near.rabi_opt_mhz == pytest.approx(budget.rabi_opt_mhz, rel=1e-12)
        assert near.total_error == pytest.approx(budget.total_error, rel=1e-12)

    def test_no_finite_optimum_without_blockade_or_splitting(self):
        with pytest.raises(ValueError, match="no finite optimum"):
            minimize_blockade_gate(math.inf, 100.0, math.inf)

    def test_no_finite_optimum_without_spontaneous_emission(self):
        # at tau = inf the error falls as the drive falls; the stationary
        # cubic's constant term is 0, so its positive root is no optimum
        with pytest.raises(ValueError, match="no finite optimum"):
            minimize_blockade_gate(5.0, math.inf)

    def test_closed_form_within_five_percent_on_grid(self):
        # Default qubit splitting, realistic blockade/lifetime ranges.
        for blockade in np.geomspace(1.0, 1e3, 10):
            for tau in np.geomspace(10.0, 1e4, 10):
                e_num = minimize_blockade_gate(blockade, tau).total_error
                _, e_cl = optimal_blockade_gate(blockade, tau)
                assert abs(e_num / e_cl - 1.0) < 0.05

    def test_error_curve_is_unimodal_in_drive(self):
        for blockade, tau in ((3.0, 50.0), (30.0, 300.0), (300.0, 3000.0)):
            rabi_opt, _ = optimal_blockade_gate(blockade, tau)
            grid = np.geomspace(rabi_opt / 50.0, rabi_opt * 50.0, 801)
            errors = [
                blockade_gate_error(
                    GateParams(r, tau, math.inf, blockade_mhz=blockade)
                ).total_error
                for r in grid
            ]
            diffs = np.sign(np.diff(errors))
            switches = int(np.sum(diffs[1:] != diffs[:-1]))
            assert switches == 1


class TestInteractionGateError:
    def test_budget_decomposition_is_exact(self):
        budget = interaction_gate_error(
            GateParams(50.0, 340.0, interaction_mhz=1.0)
        )
        assert budget.total_error == budget.se_error + budget.rotation_error

    def test_spot_value(self):
        budget = interaction_gate_error(
            GateParams(50.0, 340.0, interaction_mhz=1.0)
        )
        assert budget.se_error == pytest.approx(0.0015, rel=1e-12)
        assert budget.rotation_error == pytest.approx(
            0.000853518422711708, rel=1e-12
        )
        assert budget.regime_ok

    def test_regime_flag_spots_weak_phase_accumulation(self):
        # Interaction too strong relative to the drive: flagged.
        assert not interaction_gate_error(
            GateParams(50.0, 340.0, interaction_mhz=30.0)
        ).regime_ok
        # Total accumulated phase under ~10 rad: flagged.
        assert not interaction_gate_error(
            GateParams(50.0, 1.0, interaction_mhz=1.0)
        ).regime_ok

    def test_floor_spot_value(self):
        assert interaction_gate_floor(100.0) == pytest.approx(
            0.0028769235332566758, rel=1e-12
        )
        # Scales as 1/sqrt(lifetime).
        assert interaction_gate_floor(400.0) == pytest.approx(
            0.0028769235332566758 / 2.0, rel=1e-12
        )

    def test_floor_near_three_permille_at_hundred_us(self):
        assert abs(interaction_gate_floor(100.0) / 0.003 - 1.0) < 0.10

    @given(
        rabi=st.floats(0.1, 1e4),
        interaction=st.floats(0.01, 1e3),
        tau=st.floats(10.0, 1e5),
    )
    @settings(max_examples=60, deadline=None)
    def test_error_never_beats_floor(self, rabi, interaction, tau):
        budget = interaction_gate_error(
            GateParams(rabi, tau, interaction_mhz=interaction)
        )
        assert budget.total_error > interaction_gate_floor(tau)


class TestOptimalInteractionGate:
    def test_spot_value(self):
        rabi_opt, e_opt = optimal_interaction_gate(1.0, 340.0)
        assert rabi_opt == pytest.approx(88.83699505533806, rel=1e-12)
        assert e_opt == pytest.approx(0.001892956252990013, rel=1e-12)

    def test_closed_form_tracks_full_minimum(self):
        # Closed optimum evaluated through the full budget stays within
        # 2% of it across two decades of interaction strength and
        # lifetime; the minimum is flat enough that the approximate
        # stationary point does not matter.
        rng = np.random.default_rng(20260814)
        for _ in range(10):
            interaction = 10.0 ** rng.uniform(-1.0, 1.0)
            tau = 10.0 ** rng.uniform(1.5, 3.2)
            rabi_cl, e_cl = optimal_interaction_gate(interaction, tau)
            full = interaction_gate_error(
                GateParams(rabi_cl, tau, interaction_mhz=interaction)
            )
            assert abs(e_cl / full.total_error - 1.0) < 0.02

    def test_numeric_minimum_is_stationary(self):
        interaction, tau = 1.0, 340.0
        budget = minimize_interaction_gate(interaction, tau)
        rabi_num = budget.rabi_opt_mhz

        def err(r):
            return interaction_gate_error(
                GateParams(r, tau, interaction_mhz=interaction)
            ).total_error

        h = 1e-5 * rabi_num
        deriv = (err(rabi_num + h) - err(rabi_num - h)) / (2 * h)
        assert abs(deriv) * rabi_num / budget.total_error < 1e-3

    def test_numeric_minimum_within_two_percent_of_closed(self):
        rng = np.random.default_rng(20260814)
        worst = 0.0
        for _ in range(10):
            interaction = 10.0 ** rng.uniform(-1.0, 1.0)
            tau = 10.0 ** rng.uniform(1.5, 3.2)
            e_num = minimize_interaction_gate(interaction, tau).total_error
            _, e_cl = optimal_interaction_gate(interaction, tau)
            worst = max(worst, abs(e_num / e_cl - 1.0))
        assert worst < 0.02

    def test_exact_optimum_against_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            interaction = 10.0 ** rng.uniform(-2.0, 2.0)
            tau = 10.0 ** rng.uniform(1.0, 4.0)
            splitting = 10.0 ** rng.uniform(3.0, 5.0)
            budget = minimize_interaction_gate(interaction, tau, splitting)
            assert budget.interior_optimum
            assert budget.interaction_mhz == interaction
            params = GateParams(budget.rabi_opt_mhz, tau, splitting, interaction_mhz=interaction)
            assert_public_budget(budget, interaction_gate_error(params))

            def error_at(rabi):
                params = GateParams(rabi, tau, splitting, interaction_mhz=interaction)
                return interaction_gate_error(params).total_error

            assert_exact_optimum(error_at, budget)

    def test_infinite_splitting_has_no_finite_optimum(self):
        with pytest.raises(ValueError, match="no finite optimum"):
            minimize_interaction_gate(1.0, 340.0, math.inf)

    def test_infinite_lifetime_keeps_a_finite_optimum(self):
        # no spontaneous emission: 2 Omega^4 / omega10^2 = 4 d^2
        budget = minimize_interaction_gate(1.0, math.inf)
        w10 = 2.0 * math.pi * cst.SPECIES_OMEGA10_MHZ["Rb87"]
        omega = (2.0 * (2.0 * math.pi) ** 2 * w10**2) ** 0.25
        assert budget.rabi_opt_mhz == pytest.approx(omega / (2.0 * math.pi), rel=1e-14)
        assert budget.se_error == 0.0 and math.isfinite(budget.total_error)

    def test_minimum_dominates_floor_everywhere(self):
        # 30x30 log grid over interaction strength and lifetime: the
        # optimized error never undercuts the analytic floor.
        ratios = []
        for interaction in np.geomspace(0.01, 100.0, 30):
            for tau in np.geomspace(10.0, 1e4, 30):
                e_num = minimize_interaction_gate(interaction, tau).total_error
                ratios.append(e_num / interaction_gate_floor(tau))
        assert min(ratios) >= 1.0
        # The floor is attainable: the best case approaches it closely.
        assert min(ratios) < 1.1


class TestOptimizeInteractionGate:
    def test_strong_drive_shift_follows_inverse_sixth_power(self, rb_s100_eig):
        # Regression for degenerate-eigenspace weight splitting: the
        # saturated pair shift must track the van der Waals law.
        field = ExcitationField.uniform(2, 1e4)
        shift_a = effective_interaction_mhz(field, rb_s100_eig, 23.2)
        shift_b = effective_interaction_mhz(field, rb_s100_eig, 30.9)
        assert shift_a / shift_b == pytest.approx((30.9 / 23.2) ** 6, rel=1e-3)

    def test_saturated_shift_matches_known_dispersion_strength(self, rb_s60_eigensystem):
        plateau = effective_interaction_mhz(
            ExcitationField.uniform(2, 1e4), rb_s60_eigensystem, 12.6
        )
        assert plateau == pytest.approx(0.0347001062039537, rel=1e-9)
        # Dispersion coefficient in MHz um^6; literature ~1.39e5.
        assert plateau * 12.6**6 == pytest.approx(1.39e5, rel=0.02)

    @pytest.mark.parametrize("r_um", [0.0, -5.0, math.nan])
    def test_separation_must_be_positive(self, rb_s100_eig, r_um):
        # the pair-state layer's guard is the one check
        with pytest.raises(ValueError, match="r_um must be positive"):
            optimize_interaction_gate(rb_s100_eig, r_um, 340.0)

    def test_optimum_spot_value_and_determinism(self, rb_s100_eig):
        budget = optimize_interaction_gate(rb_s100_eig, 17.0, 340.0)
        assert budget.rabi_opt_mhz == pytest.approx(150.46236, rel=1e-5)
        assert budget.total_error == pytest.approx(
            0.00160525164613238, rel=1e-9
        )
        assert budget.interior_optimum
        # Independent of the search bracket as long as it contains the
        # optimum.
        alt = optimize_interaction_gate(
            rb_s100_eig, 17.0, 340.0, rabi_bounds_mhz=(1.3e-3, 1.1e4)
        )
        assert alt.rabi_opt_mhz == pytest.approx(budget.rabi_opt_mhz, rel=1e-6)
        assert alt.total_error == pytest.approx(budget.total_error, rel=1e-9)

    def test_one_pair_spectrum_per_separation(self, rb_s100_eig, monkeypatch):
        # the spectrum does not depend on the drive: the scan and the
        # refinement score every trial drive from one _pair_states call
        calls = []
        original = blockade._pair_states

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(blockade, "_pair_states", counting)
        optimize_interaction_gate(rb_s100_eig, 17.0, 340.0)
        assert len(calls) == 1

    def test_optimum_shift_is_the_effective_interaction(self, rb_s100_eig):
        budget = optimize_interaction_gate(rb_s100_eig, 17.0, 340.0)
        field = ExcitationField.uniform(2, budget.rabi_opt_mhz)
        assert budget.interaction_mhz == abs(
            effective_interaction_mhz(field, rb_s100_eig, 17.0)
        )

    def test_driven_zeeman_component_sets_the_spectrum(self, rb_s100_eig, monkeypatch):
        # the drive names one Zeeman target, |1/2, 1/2> by default, which
        # the former polarization=1, ground_m=-0.5 drove as well
        default = optimize_interaction_gate(rb_s100_eig, 17.0, 340.0)
        assert optimize_interaction_gate(rb_s100_eig, 17.0, 340.0, target_m=0.5) == default
        scored = []
        monkeypatch.setattr(
            gates, "interaction_gate_error", lambda params: scored.append(params)
        )
        with pytest.raises(ValueError, match="outside the j=0.5"):
            optimize_interaction_gate(rb_s100_eig, 17.0, 340.0, target_m=1.5)
        with pytest.raises(ValueError, match="target_m must be half-integer"):
            optimize_interaction_gate(rb_s100_eig, 17.0, 340.0, target_m=math.nan)
        assert scored == []

    @pytest.mark.parametrize("n", [50, 70, 100, 150])
    def test_exact_optimum_against_oracle(self, rb_table, n):
        eig = forster_eigensystem(s_state_channels(n, rb_table))
        bounds = (1e-3, 2e4)
        for r_um in np.geomspace(2.0, 20.0, 16):
            for tau in (100.0, 300.0, 1000.0):
                budget = optimize_interaction_gate(eig, r_um, tau)

                def error_at(rabi):
                    shift = effective_interaction_mhz(
                        ExcitationField.uniform(2, rabi), eig, r_um
                    )
                    params = GateParams(rabi, tau, interaction_mhz=abs(shift))
                    return interaction_gate_error(params).total_error

                assert budget.total_error == error_at(budget.rabi_opt_mhz)
                assert_exact_optimum(error_at, budget, bounds)

    def test_rejects_non_finite_bounds(self, rb_s100_eig):
        with pytest.raises(ValueError, match="rabi_bounds_mhz"):
            optimize_interaction_gate(
                rb_s100_eig, 17.0, 340.0, rabi_bounds_mhz=(1e-3, math.inf)
            )

    def test_boundary_optimum_is_flagged(self, rb_s100_eig):
        budget = optimize_interaction_gate(
            rb_s100_eig, 17.0, 340.0, rabi_bounds_mhz=(1e-3, 1e-2)
        )
        assert not budget.interior_optimum
        assert budget.rabi_opt_mhz == 1e-2

    def test_moderate_excitation_floor_blocks_millikelvin_error(self, rb_s100_eig):
        # At n=100 the spontaneous-emission floor sits above 1e-3, so no
        # separation reaches that error level.
        tau = LANDSCAPE_TAU_US[100]
        floor = interaction_gate_floor(tau)
        assert floor > 1e-3
        best = min(
            optimize_interaction_gate(rb_s100_eig, r, tau).total_error
            for r in np.geomspace(3.0, 60.0, 15)
        )
        assert best > 1e-3
        assert floor < best < 1.05 * floor

    def test_higher_excitation_dips_below_millikelvin_error(self, rb_s150_eig):
        budget = optimize_interaction_gate(
            rb_s150_eig, 4.8, LANDSCAPE_TAU_US[150]
        )
        assert budget.total_error == pytest.approx(
            0.0009902357709185513, rel=1e-6
        )
        assert budget.total_error < 1e-3

    def test_highest_excitation_long_range_window(self, rb_s200_eig):
        tau = LANDSCAPE_TAU_US[200]
        rows = interaction_gate_landscape(
            [200],
            np.geomspace(4.0, 120.0, 25),
            None,
            lifetimes_us=LANDSCAPE_TAU_US,
            eigensystems={200: rb_s200_eig},
        )
        errors = np.array([bud.total_error for _, _, bud in rows])
        radii = np.array([r for _, r, _ in rows])
        below = radii[errors < 1e-3]
        # Errors below 1e-3 over a wide range of separations.
        assert below.size > 0
        assert below.max() / below.min() > 8.0
        assert below.max() > 60.0
        # Floor dominance holds pointwise.
        assert np.all(errors > interaction_gate_floor(tau))
        # The landscape is multi-peaked: at least two interior minima.
        interior = [
            i
            for i in range(1, len(errors) - 1)
            if errors[i] < errors[i - 1] and errors[i] < errors[i + 1]
        ]
        assert len(interior) >= 2

    def test_long_range_spot_values(self, rb_s200_eig):
        near = optimize_interaction_gate(rb_s200_eig, 7.45, 1600.0)
        far = optimize_interaction_gate(rb_s200_eig, 66.6, 1600.0)
        assert near.total_error == pytest.approx(
            0.0007226701412235789, rel=1e-6
        )
        assert far.total_error == pytest.approx(
            0.0009028972884939599, rel=1e-6
        )
        assert far.interaction_mhz == pytest.approx(1.7426411195, rel=1e-6)

    def test_landscape_rows_are_ordered(self, rb_s100_eig):
        rows = interaction_gate_landscape(
            [100],
            [10.0, 20.0],
            None,
            lifetimes_us=LANDSCAPE_TAU_US,
            eigensystems={100: rb_s100_eig},
        )
        assert [(n, r) for n, r, _ in rows] == [(100, 10.0), (100, 20.0)]

    def test_landscape_rows_are_the_one_pair_optima(self, rb_s100_eig):
        # one array pass over every separation gives each row the bits of
        # its own optimize_interaction_gate call (pair on z: theta = 0)
        assert rb_s100_eig.theta == 0.0
        radii = np.geomspace(3.0, 40.0, 10)
        tau = LANDSCAPE_TAU_US[100]
        rows = interaction_gate_landscape(
            [100], radii, None, lifetimes_us=LANDSCAPE_TAU_US, eigensystems={100: rb_s100_eig}
        )
        for (_, r_um, budget), r in zip(rows, radii):
            assert budget == optimize_interaction_gate(rb_s100_eig, r, tau)


    @pytest.mark.parametrize("n", [50, 70, 100, 150])
    def test_sectioning_matches_bisection(self, rb_table, n):
        # every drive within 4 ulp of bisection to adjacent floats, with the
        # same interior flag
        eig = forster_eigensystem(s_state_channels(n, rb_table))
        radii = np.geomspace(2.0, 20.0, 16)
        spectra = blockade._grouped_spectra(eig, 0.5, radii, np.zeros(16))
        for tau in (100.0, 300.0, 1000.0):
            rows = interaction_gate_landscape(
                [n], radii, None, lifetimes_us={n: tau}, eigensystems={n: eig}
            )
            drives = np.array([budget.rabi_opt_mhz for _, _, budget in rows])
            oracle, interior = bisection_optima(spectra, tau, cst.SPECIES_OMEGA10_MHZ["Rb87"])
            assert np.all(np.abs(drives - oracle) <= 4.0 * np.spacing(oracle))
            assert [budget.interior_optimum for _, _, budget in rows] == interior.tolist()

    def test_landscape_scores_in_few_array_passes(self, rb_s100_eig, monkeypatch):
        # the scan, 9 sectioning steps from a scan cell to adjacent floats
        # and the final shifts: at most 12 passes over 16 separations
        calls = []
        original = gates._saturated_shift

        def counting(spectra, omega_mhz):
            calls.append(omega_mhz)
            return original(spectra, omega_mhz)

        monkeypatch.setattr(gates, "_saturated_shift", counting)
        interaction_gate_landscape(
            [100], np.geomspace(2.0, 20.0, 16), None, lifetimes_us=LANDSCAPE_TAU_US,
            eigensystems={100: rb_s100_eig},
        )
        assert len(calls) <= 12


class TestPositiveRoots:
    @staticmethod
    def one_root(coeffs):
        """np.roots, the root of largest real part, then one Newton step."""
        roots = np.roots(coeffs)
        x = float(roots[np.argmax(roots.real)].real)
        return x - np.polyval(coeffs, x) / np.polyval(np.polyder(coeffs), x)

    @staticmethod
    def gate_polynomials(rng, count):
        """Blockade-gate cubics and interaction-gate quartics (angular
        units) over wide ranges of shift, lifetime and splitting."""
        b, d = 2.0 * math.pi * 10.0 ** rng.uniform(-1.0, 4.0, (2, count))
        w10 = 2.0 * math.pi * 10.0 ** rng.uniform(3.0, 5.0, count)
        tau = 10.0 ** rng.uniform(1.0, 4.0, count)
        a = 7.0 * math.pi / (4.0 * tau)
        zero = np.zeros(count)
        cubics = np.stack([
            2.0 * (1.0 / (8.0 * b**2) + 3.0 / (4.0 * w10**2)),
            a * (1.0 / w10**2 + 1.0 / (7.0 * b**2)), zero, -a,
        ], axis=-1)
        quartics = np.stack([2.0 / w10**2, zero, zero, -math.pi / tau, -4.0 * d**2], axis=-1)
        return cubics, quartics

    def test_rows_are_one_row_calls_and_np_roots(self):
        rng = np.random.default_rng(20)
        for coeffs in self.gate_polynomials(rng, 2000):
            roots = gates._positive_roots(coeffs)
            assert np.all(roots > 0.0)
            for row, root in zip(coeffs, roots):
                assert gates._positive_roots(row[None])[0] == root
                reference = self.one_root(row)
                assert abs(root - reference) <= 2.0 * np.spacing(reference)


class TestInteractionOptimaRows:
    # synthetic grouped spectra (delta in MHz, w), one per search outcome at
    # the lifetime TAU and the Rb87 qubit splitting with the default bounds
    TAU = 340.0
    ROWS = {
        "interior": ([1.0], [1.0]),
        "near 1 MHz": ([0.02, -0.01], [3e-3, 5e-5]),
        "lower bound": ([1e-5, -3e-6], [0.2, 8e-5]),
        "upper bound": ([1e7], [1e-6]),
        "same-sign bracket": ([30.0, -10.0], [0.05, 0.07]),
    }

    def stack(self, rows):
        """(delta, w) of rows padded as _grouped_spectra pads: delta 1, w 0."""
        width = max(len(d) for d, _ in rows)
        delta, w = np.ones((len(rows), width)), np.zeros((len(rows), width))
        for i, (d, weight) in enumerate(rows):
            delta[i, : len(d)], w[i, : len(d)] = d, weight
        return delta, w

    def optima(self, rows):
        return gates._interaction_optima(
            self.stack(rows), self.TAU, cst.SPECIES_OMEGA10_MHZ["Rb87"], gates.RABI_BOUNDS_MHZ
        )

    def error_at(self, row):
        def error(rabi):
            shift = blockade._saturated_shift(self.stack([row]), [rabi])[0][0]
            return interaction_gate_error(
                GateParams(rabi, self.TAU, interaction_mhz=abs(shift))
            ).total_error

        return error

    def test_each_row_is_its_own_one_row_call(self):
        budgets = self.optima(list(self.ROWS.values()))
        for budget, row in zip(budgets, self.ROWS.values()):
            assert budget == self.optima([row])[0]

    def test_every_edge_rule_fires(self):
        budgets = dict(zip(self.ROWS, self.optima(list(self.ROWS.values()))))
        for budget in budgets.values():
            shift = budget.interaction_mhz
            params = GateParams(budget.rabi_opt_mhz, self.TAU, interaction_mhz=shift)
            assert_public_budget(budget, interaction_gate_error(params))
        lo, hi = gates.RABI_BOUNDS_MHZ
        scan = np.exp(np.linspace(math.log(lo), math.log(hi), gates.INTERACTION_SCAN_POINTS))
        assert budgets["lower bound"].rabi_opt_mhz == lo
        assert budgets["upper bound"].rabi_opt_mhz == hi
        assert not budgets["lower bound"].interior_optimum
        assert not budgets["upper bound"].interior_optimum
        # neighbour slopes of one sign: the best scanned drive is returned
        same = budgets["same-sign bracket"]
        assert same.interior_optimum and same.rabi_opt_mhz in scan
        assert abs(math.log(budgets["near 1 MHz"].rabi_opt_mhz)) < 0.01
        for name in ("interior", "near 1 MHz"):
            budget = budgets[name]
            assert budget.interior_optimum and budget.rabi_opt_mhz not in scan
            error_at = self.error_at(self.ROWS[name])
            assert budget.total_error == error_at(budget.rabi_opt_mhz)
            assert_exact_optimum(error_at, budget, gates.RABI_BOUNDS_MHZ)

    def test_a_row_without_interaction_is_rejected(self):
        with pytest.raises(ValueError, match="no effective interaction"):
            self.optima([([0.0], [1.0])])
        with pytest.raises(ValueError, match="no effective interaction"):
            self.optima([self.ROWS["interior"], ([0.0, 0.0], [0.5, 0.5])])


class TestBlockadeGateLandscape:
    @pytest.mark.parametrize("missing", ["eigensystems", "lifetimes_us"])
    def test_without_a_table_each_n_needs_both_overrides(self, rb_s100_eig, missing):
        overrides = {"eigensystems": {100: rb_s100_eig}, "lifetimes_us": {100: 340.0}}
        del overrides[missing]
        for landscape in (blockade_gate_landscape, interaction_gate_landscape):
            with pytest.raises(ValueError, match="n=100 needs a quantum-defect table"):
                landscape([100], [5.0], None, **overrides)

    def test_cs_table_lifetimes(self, cs_table):
        # the lifetime state is labelled with the table species, so the
        # Cs133 table accepts it and the Cs133 lifetime is used
        tau = LifetimeModel(cs_table).tau_us(
            RydbergState(60, 0, 0.5), 300.0
        )
        rows = blockade_gate_landscape([60], [5.0], cs_table)
        pinned = blockade_gate_landscape(
            [60], [5.0], cs_table, lifetimes_us={60: tau}
        )
        assert rows == pinned

    def test_qubit_splitting_defaults_to_the_table_species(self, cs_table, rb_s100_eig):
        # Cs133's 9192.631770 MHz, not Rb87's 6834.68 MHz: the interaction
        # drive is about 59.84 MHz, where Rb87's splitting gives 49.17 MHz
        for landscape in (blockade_gate_landscape, interaction_gate_landscape):
            rows = landscape([60], [12.0], cs_table)
            explicit = landscape([60], [12.0], cs_table, qubit_splitting_mhz=9192.631770)
            assert rows == explicit, landscape.__name__
        (_, _, budget), = interaction_gate_landscape([60], [12.0], cs_table)
        assert budget.rabi_opt_mhz == pytest.approx(59.84, abs=0.01)
        # without a table the default stays Rb87's, as in GateParams
        common = dict(lifetimes_us={100: 340.0}, eigensystems={100: rb_s100_eig})
        rows = interaction_gate_landscape([100], [12.0], None, **common)
        explicit = interaction_gate_landscape(
            [100], [12.0], None, qubit_splitting_mhz=cst.SPECIES_OMEGA10_MHZ["Rb87"], **common
        )
        assert rows == explicit

    def test_low_excitation_crossing_near_one_micron(self, rb_table):
        radii = np.geomspace(0.5, 60.0, 49)
        rows = blockade_gate_landscape(
            [50], radii, rb_table, lifetimes_us=LANDSCAPE_TAU_US
        )
        pts = [(r, bud.total_error) for _, r, bud in rows]
        crossing = None
        for (ra, ea), (rb, eb) in zip(pts, pts[1:]):
            if ea < 1e-3 <= eb:
                f = (math.log(1e-3) - math.log(ea)) / (math.log(eb) - math.log(ea))
                crossing = ra * (rb / ra) ** f
                break
        assert crossing == pytest.approx(1.850536, rel=1e-4)
        assert 0.5 <= crossing <= 2.0

    def test_high_excitation_holds_past_forty_microns(self, rb_table):
        rows = blockade_gate_landscape(
            [200], [40.0, 50.0], rb_table, lifetimes_us=LANDSCAPE_TAU_US
        )
        e40 = rows[0][2].total_error
        e50 = rows[1][2].total_error
        assert e40 == pytest.approx(0.0006876015925593684, rel=1e-6)
        assert e40 < 1e-3 < e50

    def test_rows_are_the_one_pair_optima(self, rb_s100_eig, monkeypatch):
        # one stacked root solve gives each row the bits of
        # minimize_blockade_gate at that row's blockade shift
        shifts = []
        original = gates._blockade_optima

        def recording(b_mhz, *args):
            shifts.append(b_mhz)
            return original(b_mhz, *args)

        monkeypatch.setattr(gates, "_blockade_optima", recording)
        tau = LANDSCAPE_TAU_US[100]
        rows = blockade_gate_landscape(
            [100], np.geomspace(0.5, 40.0, 16), None, lifetimes_us=LANDSCAPE_TAU_US,
            eigensystems={100: rb_s100_eig},
        )
        (b_mhz,) = shifts
        assert len(rows) == b_mhz.size == 16
        for (_, _, budget), b in zip(rows, b_mhz.tolist()):
            assert budget == minimize_blockade_gate(b, tau)

    def test_infinite_lifetime_has_no_finite_optimum(self, rb_table):
        with pytest.raises(ValueError, match="no finite optimum"):
            blockade_gate_landscape([60], [5.0], rb_table, lifetimes_us={60: math.inf})

    @pytest.mark.parametrize("t_k", [-1.0, -300.0, math.nan, math.inf])
    def test_unphysical_temperature_rejected(self, rb_table, t_k):
        with pytest.raises(ValueError, match="temperature_k"):
            blockade_gate_landscape([60], [5.0], rb_table, temperature_k=t_k)

    def test_default_lifetime_model_is_room_temperature(self, rb_table):
        rows = blockade_gate_landscape([60], [8.0], rb_table)
        tau = LifetimeModel(rb_table).tau_us(RydbergState(60, 0, 0.5), 300.0)
        explicit = blockade_gate_landscape(
            [60], [8.0], rb_table, lifetimes_us={60: tau}
        )
        assert rows[0][2].total_error == explicit[0][2].total_error


class TestLandscapeAngle:
    def test_both_families_put_the_pair_on_z(self, rb_s60_channels):
        # a prebuilt eigensystem's theta does not reach either landscape
        radii = [5.0, 8.0, 12.0]
        common = dict(lifetimes_us={60: 100.0})
        for landscape in (blockade_gate_landscape, interaction_gate_landscape):
            rows = [
                landscape([60], radii, None, eigensystems={60: eig}, **common)
                for eig in (
                    forster_eigensystem(rb_s60_channels),
                    forster_eigensystem(rb_s60_channels, 0.7),
                )
            ]
            assert rows[0] == rows[1], landscape.__name__


class TestGaussianBeam:
    def test_rejects_nonpositive_inputs(self):
        with pytest.raises(ValueError):
            GaussianBeam(0.0, 3.0, 780.0)
        with pytest.raises(ValueError):
            GaussianBeam(1e-3, -3.0, 780.0)
        with pytest.raises(ValueError):
            GaussianBeam(1e-3, 3.0, 0.0)

    def test_peak_intensity_and_field(self):
        beam = GaussianBeam(1e-3, 10.0, 480.0)
        # 2P/(pi w^2) with w in meters.
        assert beam.peak_intensity_w_m2 == pytest.approx(
            2e-3 / (math.pi * 1e-10), rel=1e-12
        )
        expected_field = math.sqrt(
            2.0 * beam.peak_intensity_w_m2 / (8.8541878128e-12 * 2.99792458e8)
        )
        assert beam.peak_field_v_m == pytest.approx(expected_field, rel=1e-9)
        assert beam.k_rad_m == pytest.approx(2 * math.pi / 480e-9, rel=1e-12)


@pytest.fixture(scope="module")
def example(rb_table):
    beam_lower = GaussianBeam(1e-6, 3.0, 780.0)
    beam_upper = GaussianBeam(0.3, 3.0, 480.0)
    return two_photon_budget(
        RydbergState(5, 0, 0.5),
        RydbergState(5, 1, 1.5),
        RydbergState(100, 2, 2.5),
        beam_lower,
        beam_upper,
        20000.0,
        rb_table,
        temperature_k=10e-6,
    )


class TestTwoPhotonBudget:
    def test_single_photon_rabi_spot_values(self, example):
        assert example.rabi1_mhz == pytest.approx(228.1168152223695, rel=1e-9)
        assert example.rabi2_mhz == pytest.approx(208.2089851614172, rel=1e-9)
        assert example.amplitude_ratio == pytest.approx(
            208.2089851614172 / 228.1168152223695, rel=1e-12
        )

    def test_two_photon_rabi_near_published_operating_point(self, example):
        assert example.rabi_mhz == pytest.approx(1.1873992648911582, rel=1e-9)
        assert abs(example.rabi_mhz / 1.2 - 1.0) < 0.10

    def test_intermediate_linewidth_computed_in_model(self, example):
        assert example.gamma_p_mhz == pytest.approx(6.078545210478034, rel=1e-9)
        # Measured D2 linewidth is 6.0666 MHz.
        assert abs(example.gamma_p_mhz / 6.0666 - 1.0) < 0.01

    def test_scattering_probability(self, example):
        assert example.se_probability == pytest.approx(
            0.0004793996468776432, rel=1e-9
        )
        assert abs(example.se_probability / 5e-4 - 1.0) < 0.10
        q = example.amplitude_ratio
        expected = (
            math.pi
            * example.gamma_p_mhz
            / (4.0 * 20000.0)
            * (q + 1.0 / q)
        )
        assert example.se_probability == pytest.approx(expected, rel=1e-12)

    def test_doppler_probability(self, example):
        assert example.doppler_probability == pytest.approx(
            0.0004356581144745928, rel=1e-9
        )
        assert abs(example.doppler_probability / 4e-4 - 1.0) < 0.10

    def test_doppler_uses_the_table_species_mass(self, cs_table):
        # Cs133 6s -> 6p3/2 -> 80d5/2 at 10 uK against the hand formula
        # (dk v_rms / Omega)^2 with the Cs133 mass, not the Rb87 one
        budget = two_photon_budget(
            RydbergState(6, 0, 0.5),
            RydbergState(6, 1, 1.5),
            RydbergState(80, 2, 2.5),
            GaussianBeam(1e-6, 3.0, 852.0),
            GaussianBeam(0.3, 3.0, 509.0),
            20000.0,
            cs_table,
            temperature_k=10e-6,
        )
        dk = 2.0 * math.pi / 852e-9 - 2.0 * math.pi / 509e-9
        v_rms = math.sqrt(1.380649e-23 * 10e-6 / (132.905451931 * 1.66053906660e-27))
        omega = 2.0 * math.pi * 1e6 * abs(budget.rabi_mhz)
        expected = (dk * v_rms / omega) ** 2
        assert budget.doppler_probability == pytest.approx(expected, rel=1e-6)

    def test_copropagating_is_worse_by_wavevector_ratio(self, rb_table, example):
        beam_lower = GaussianBeam(1e-6, 3.0, 780.0)
        beam_upper = GaussianBeam(0.3, 3.0, 480.0)
        co = two_photon_budget(
            RydbergState(5, 0, 0.5),
            RydbergState(5, 1, 1.5),
            RydbergState(100, 2, 2.5),
            beam_lower,
            beam_upper,
            20000.0,
            rb_table,
            temperature_k=10e-6,
            counterpropagating=False,
        )
        ratio = (
            (beam_lower.k_rad_m + beam_upper.k_rad_m)
            / (beam_lower.k_rad_m - beam_upper.k_rad_m)
        ) ** 2
        assert co.doppler_probability / example.doppler_probability == (
            pytest.approx(ratio, rel=1e-9)
        )

    def test_zero_temperature_kills_doppler(self, rb_table):
        budget = two_photon_budget(
            RydbergState(5, 0, 0.5),
            RydbergState(5, 1, 1.5),
            RydbergState(100, 2, 2.5),
            GaussianBeam(1e-6, 3.0, 780.0),
            GaussianBeam(0.3, 3.0, 480.0),
            20000.0,
            rb_table,
        )
        assert budget.doppler_probability == 0.0

    @pytest.mark.parametrize("t_k", [-1.0, -300.0, math.nan, math.inf])
    def test_unphysical_temperature_rejected(self, rb_table, t_k):
        with pytest.raises(ValueError, match="temperature_k"):
            two_photon_budget(
                RydbergState(5, 0, 0.5),
                RydbergState(5, 1, 1.5),
                RydbergState(100, 2, 2.5),
                GaussianBeam(1e-6, 3.0, 780.0),
                GaussianBeam(0.3, 3.0, 480.0),
                20000.0,
                rb_table,
                temperature_k=t_k,
            )

    def test_differential_stark_shifts(self, example):
        assert example.stark_ground_mhz == pytest.approx(
            0.6504660173400036, rel=1e-9
        )
        assert example.stark_rydberg_mhz == pytest.approx(
            -0.5418872687729851, rel=1e-9
        )
        # Ground shift is rabi1^2/4Delta, opposite sign for the target.
        assert example.stark_ground_mhz == pytest.approx(
            example.rabi1_mhz**2 / (4 * 20000.0), rel=1e-12
        )
        assert example.stark_rydberg_mhz == pytest.approx(
            -example.rabi2_mhz**2 / (4 * 20000.0), rel=1e-12
        )

    def test_balanced_drives_cancel_stark_and_minimize_scattering(self, rb_table):
        beam_upper = GaussianBeam(0.3, 3.0, 480.0)
        # Lower power tuned so both single-photon strengths match.
        beam_lower = GaussianBeam(1e-6 * 0.9127296686050359**2, 3.0, 780.0)
        budget = two_photon_budget(
            RydbergState(5, 0, 0.5),
            RydbergState(5, 1, 1.5),
            RydbergState(100, 2, 2.5),
            beam_lower,
            beam_upper,
            20000.0,
            rb_table,
        )
        assert budget.amplitude_ratio == pytest.approx(1.0, rel=1e-9)
        assert abs(budget.stark_ground_mhz + budget.stark_rydberg_mhz) < 1e-9
        # (q + 1/q) is minimized at q = 1.
        unbalanced = two_photon_budget(
            RydbergState(5, 0, 0.5),
            RydbergState(5, 1, 1.5),
            RydbergState(100, 2, 2.5),
            GaussianBeam(1e-6, 3.0, 780.0),
            beam_upper,
            20000.0,
            rb_table,
        )
        assert unbalanced.se_probability > budget.se_probability

    def test_far_detuned_flag(self, rb_table, example):
        assert example.far_detuned
        near = two_photon_budget(
            RydbergState(5, 0, 0.5),
            RydbergState(5, 1, 1.5),
            RydbergState(100, 2, 2.5),
            GaussianBeam(1e-6, 3.0, 780.0),
            GaussianBeam(0.3, 3.0, 480.0),
            2000.0,
            rb_table,
        )
        assert not near.far_detuned

    @pytest.mark.parametrize("detuning_mhz", [0.0, math.nan, math.inf, -math.inf])
    def test_detuning_must_be_finite_and_nonzero(self, rb_table, detuning_mhz):
        # nan returned a nan budget, inf raised ZeroDivisionError
        with pytest.raises(ValueError, match="detuning_mhz must be finite and nonzero"):
            two_photon_budget(
                RydbergState(5, 0, 0.5),
                RydbergState(5, 1, 1.5),
                RydbergState(100, 2, 2.5),
                GaussianBeam(1e-6, 3.0, 780.0),
                GaussianBeam(0.3, 3.0, 480.0),
                detuning_mhz,
                rb_table,
            )

    def test_each_radial_state_solved_once(self, rb_table, monkeypatch):
        # the decay rate's <5p|r|5s> is the first drive's <5s|r|5p>: 4 solves
        # for the 4 (state, grid) pairs, where solving each element alone
        # took 6; every field keeps the per-element functions' bits
        ground, middle, target = (
            RydbergState(5, 0, 0.5), RydbergState(5, 1, 1.5), RydbergState(100, 2, 2.5)
        )
        beam1, beam2 = GaussianBeam(1e-6, 3.0, 780.0), GaussianBeam(0.3, 3.0, 480.0)
        solve, solves = atoms.radial_solution, []

        def counting_solve(*args, **kwargs):
            solves.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(atoms, "radial_solution", counting_solve)
        budget = two_photon_budget(
            ground, middle, target, beam1, beam2, 20000.0, rb_table, temperature_k=10e-6
        )
        assert len(solves) == 4
        monkeypatch.undo()
        assert budget.rabi1_mhz == single_photon_rabi_mhz(beam1, ground, middle, 0, rb_table)
        assert budget.rabi2_mhz == single_photon_rabi_mhz(
            beam2, middle.with_m(0.5), target, 0, rb_table
        )
        assert budget.gamma_p_mhz == spontaneous_rate_mhz(middle, ground, 780.0, rb_table)

    def test_zero_detuning_rejected(self, rb_table):
        with pytest.raises(ValueError):
            two_photon_budget(
                RydbergState(5, 0, 0.5),
                RydbergState(5, 1, 1.5),
                RydbergState(100, 2, 2.5),
                GaussianBeam(1e-6, 3.0, 780.0),
                GaussianBeam(0.3, 3.0, 480.0),
                0.0,
                rb_table,
            )

    def test_forbidden_polarization_chain_rejected(self, rb_table):
        # sigma+ then sigma+ from m=1/2 targets m=5/2, impossible for a
        # j=1/2 final state.
        with pytest.raises(ValueError):
            two_photon_budget(
                RydbergState(5, 0, 0.5),
                RydbergState(5, 1, 1.5),
                RydbergState(100, 0, 0.5),
                GaussianBeam(1e-6, 3.0, 780.0),
                GaussianBeam(0.3, 3.0, 480.0),
                20000.0,
                rb_table,
                q1=1,
                q2=1,
            )

    def test_single_photon_rabi_sign_convention(self, rb_table):
        beam = GaussianBeam(1e-6, 3.0, 780.0)
        rabi = single_photon_rabi_mhz(
            beam, RydbergState(5, 0, 0.5), RydbergState(5, 1, 1.5), 0, rb_table
        )
        assert rabi == pytest.approx(228.11681522237745, rel=1e-9)

    def test_spontaneous_rate_reproduces_known_linewidth(self, rb_table):
        rate = spontaneous_rate_mhz(
            RydbergState(5, 1, 1.5), RydbergState(5, 0, 0.5), 780.241, rb_table
        )
        assert abs(rate / 6.0666 - 1.0) < 0.01


class TestArrayCapacityAndLoading:
    def test_calibration_constants(self):
        assert CAPACITY_2D == pytest.approx(
            470.0 / (0.001 ** (1.0 / 3.0) * 100.0 ** (2.0 / 3.0)), rel=1e-12
        )
        assert CAPACITY_3D == pytest.approx(
            7600.0 / (math.sqrt(0.001) * 100.0), rel=1e-12
        )

    def test_published_anchor_points(self):
        assert array_capacity(100, 0.001, 2) == pytest.approx(470.0, rel=1e-12)
        assert array_capacity(100, 0.001, 3) == pytest.approx(7600.0, rel=1e-12)

    def test_scaling_exponents(self):
        base2 = array_capacity(100, 0.001, 2)
        assert array_capacity(800, 0.001, 2) == pytest.approx(
            4.0 * base2, rel=1e-12
        )
        assert array_capacity(100, 0.008, 2) == pytest.approx(
            2.0 * base2, rel=1e-12
        )
        base3 = array_capacity(100, 0.001, 3)
        assert array_capacity(200, 0.001, 3) == pytest.approx(
            2.0 * base3, rel=1e-12
        )
        assert array_capacity(100, 0.004, 3) == pytest.approx(
            2.0 * base3, rel=1e-12
        )

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            array_capacity(100, 0.001, 1)
        with pytest.raises(ValueError):
            array_capacity(100, 0.001, 4)

    def test_loading_spot_values(self):
        budget = loading_error(600.0)
        assert budget.pi_pulse_error == pytest.approx(
            math.pi**2 / 9600.0, rel=1e-12
        )
        assert abs(budget.pi_pulse_error / 1e-3 - 1.0) < 0.05
        assert loading_error(7.0).empty_probability == pytest.approx(
            math.exp(-7.0), rel=1e-12
        )
        assert loading_error(7.0).empty_probability < 1e-3

    @pytest.mark.parametrize("mean_atoms", [0.5, math.nan, -math.inf])
    def test_mean_atoms_below_one_or_nan_rejected(self, mean_atoms):
        # nan returned a nan budget
        with pytest.raises(ValueError, match="mean_atoms must be at least 1, got"):
            loading_error(mean_atoms)

    def test_rejects_small_ensembles(self):
        with pytest.raises(ValueError):
            loading_error(0.5)

    def test_quadratic_approximation_against_poisson_average(self):
        # Exact Poisson average of cos^2(pi/2 sqrt(N/Nbar)) at Nbar=50,
        # summed to machine convergence.
        mean = 50.0
        exact = sum(
            math.exp(-mean + k * math.log(mean) - math.lgamma(k + 1))
            * math.cos(0.5 * math.pi * math.sqrt(k / mean)) ** 2
            for k in range(400)
        )
        assert exact == pytest.approx(0.012292711055778099, rel=1e-12)
        closed = loading_error(mean).pi_pulse_error
        assert abs(closed / exact - 1.0) < 0.15


class TestPositionPhaseError:
    def test_spot_values(self):
        assert position_phase_error(100.0, 0.0) == 0.0
        assert position_phase_error(100.0, 0.015) == pytest.approx(
            9e-4, rel=1e-12
        )
        assert position_phase_error(50.0, 0.015) == pytest.approx(
            1.8e-3, rel=1e-12
        )

    def test_linearity(self):
        assert position_phase_error(30.0, 0.02) == pytest.approx(
            2.0 * position_phase_error(30.0, 0.01), rel=1e-12
        )

    @pytest.mark.parametrize("delta_r_um", [-0.01, math.nan, math.inf])
    def test_spread_must_be_finite_and_non_negative(self, delta_r_um):
        # nan returned nan, inf an infinite phase error
        with pytest.raises(ValueError, match="delta_r_um must be finite and non-negative"):
            position_phase_error(5.0, delta_r_um)

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            position_phase_error(0.0, 0.01)
        with pytest.raises(ValueError):
            position_phase_error(10.0, -0.01)
