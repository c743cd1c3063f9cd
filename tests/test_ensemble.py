"""Scaling laws, truncated exact dynamics, exchange triples, and KMC.

Expected values come from hand-evaluated formulas, independent
Kronecker-product and effective-Hamiltonian oracles built inline, exact
statistics of synthetic samples, or frozen deterministic runs of the
released implementation.
"""

import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import linalg, sparse, special
from scipy.optimize import curve_fit
from scipy.sparse.linalg import expm_multiply

import rydtools.ensemble as ens
from rydtools.ensemble import (
    CountingStatistics,
    DriveConditions,
    ExcitationModel,
    TruncationError,
    axial_exchange_couplings_mhz,
    cubic_lattice,
    enumerate_basis,
    excitation_rate_scale_mhz,
    kinetic_monte_carlo,
    linewidth_limited_density_per_um3,
    mandel_q,
    saturated_fraction,
    scaled_excitation_rate,
    simulate_exact,
    simulate_triple_exchange,
    thin_counts,
    triple_exchange_pair_shift_mhz,
    uniform_box_positions,
    uniform_cylinder_positions,
    uniform_sphere_positions,
)

positive = st.floats(
    min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False
)


def reference_conditions():
    return DriveConditions(
        density_per_um3=2.0,
        rabi_mhz=3.0,
        c6_mhz_um6=400.0,
        linewidth_mhz=5.0,
        detuning_mhz=-7.0,
    )


class TestDriveConditions:
    def test_validation(self):
        with pytest.raises(ValueError):
            DriveConditions(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            DriveConditions(1.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            DriveConditions(1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            DriveConditions(1.0, 1.0, 1.0, linewidth_mhz=-0.1)

    @pytest.mark.parametrize("linewidth_mhz", [-0.1, math.nan, math.inf])
    def test_linewidth_must_be_finite_and_non_negative(self, linewidth_mhz):
        # nan was accepted
        with pytest.raises(ValueError, match="linewidth_mhz must be finite and non-negative"):
            DriveConditions(1.0, 1.0, 1.0, linewidth_mhz=linewidth_mhz)

    @pytest.mark.parametrize("detuning_mhz", [math.nan, math.inf, -math.inf])
    def test_detuning_must_be_finite(self, detuning_mhz):
        # nan was accepted, and gave a nan scaled_detuning
        with pytest.raises(ValueError, match="detuning_mhz must be finite"):
            DriveConditions(1.0, 1.0, 1.0, detuning_mhz=detuning_mhz)

    @pytest.mark.parametrize("name", ["density_per_um3", "rabi_mhz", "c6_mhz_um6"])
    def test_drive_inputs_must_be_finite(self, name):
        # an infinite c6 gave an infinite blockade radius, an infinite
        # density an alpha of 0
        values = dict(density_per_um3=1.0, rabi_mhz=1.0, c6_mhz_um6=1.0)
        with pytest.raises(ValueError, match=name + " must be finite"):
            DriveConditions(**{**values, name: math.inf})

    def test_blockade_radius_value(self):
        d = DriveConditions(1.0, 1.0, 100.0)
        assert d.blockade_radius_um == pytest.approx(
            100.0 ** (2.0 / 15.0), rel=1e-12
        )
        assert d.blockade_radius_um == pytest.approx(
            1.847849797422291, rel=1e-12
        )

    def test_blockade_radius_unit_point(self):
        # c6 = sqrt(eta) Omega makes the defining balance solve to R = 1
        assert DriveConditions(4.0, 0.5, 1.0).blockade_radius_um == 1.0

    def test_exponent_scalings(self):
        base = DriveConditions(1.0, 1.0, 100.0).blockade_radius_um
        doubled_c6 = DriveConditions(
            1.0, 1.0, 100.0 * 2 ** 7.5
        ).blockade_radius_um
        assert doubled_c6 == pytest.approx(2 * base, rel=1e-12)
        stronger = DriveConditions(1.0, 2 ** 7.5, 100.0).blockade_radius_um
        assert stronger == pytest.approx(base / 2, rel=1e-12)
        denser = DriveConditions(2 ** 15, 1.0, 100.0).blockade_radius_um
        assert denser == pytest.approx(base / 2, rel=1e-12)

    @given(eta=positive, omega=positive, c6=positive)
    @settings(max_examples=80, deadline=None)
    def test_radius_solves_defining_balance(self, eta, omega, c6):
        d = DriveConditions(eta, omega, c6)
        rb = d.blockade_radius_um
        collective = math.sqrt(eta * rb**3) * omega
        assert collective == pytest.approx(c6 / rb**6, rel=1e-9)
        assert d.collective_rabi_mhz == pytest.approx(collective, rel=1e-12)

    def test_saturated_density_inverse_cube(self):
        d = reference_conditions()
        assert d.saturated_density_per_um3 == pytest.approx(
            d.blockade_radius_um**-3, rel=1e-12
        )

    def test_saturated_density_exponents(self):
        # eta_R scales as eta^{1/5} Omega^{2/5} / c6^{2/5}
        base = reference_conditions()

        def eta_r(density=2.0, rabi=3.0, c6=400.0):
            return DriveConditions(density, rabi, c6).saturated_density_per_um3

        assert eta_r(density=2.0 * 32) == pytest.approx(
            2 * eta_r(), rel=1e-12
        )
        assert eta_r(rabi=3.0 * 2 ** 2.5) == pytest.approx(
            2 * eta_r(), rel=1e-12
        )
        assert eta_r(c6=400.0 * 2 ** 2.5) == pytest.approx(
            eta_r() / 2, rel=1e-12
        )
        assert base.saturated_density_per_um3 < base.density_per_um3

    def test_alpha_and_scaled_detuning(self):
        d = reference_conditions()
        assert d.alpha == pytest.approx(3.0 / 1600.0, rel=1e-14)
        assert d.scaled_detuning == pytest.approx(-7.0 / 1600.0, rel=1e-14)


class TestScalingFunctions:
    def test_saturated_fraction_value(self):
        d = reference_conditions()
        expected = ens.SATURATED_FRACTION_PREFACTOR * (3.0 / 1600.0) ** 0.4
        assert saturated_fraction(d) == pytest.approx(expected, rel=1e-12)
        assert saturated_fraction(d) == pytest.approx(
            0.1214163659254404, rel=1e-10
        )

    def test_saturated_fraction_needs_calibration(self, monkeypatch):
        d = reference_conditions()
        for bad in (-1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="calibrated positive prefactor"):
                saturated_fraction(d, prefactor=bad)
        monkeypatch.setattr(ens, "SATURATED_FRACTION_PREFACTOR", None)
        with pytest.raises(ValueError):
            saturated_fraction(d)

    def test_linewidth_limited_density(self):
        d = reference_conditions()
        assert linewidth_limited_density_per_um3(d) == pytest.approx(
            math.sqrt(5.0 / 400.0), rel=1e-12
        )
        no_width = DriveConditions(1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            linewidth_limited_density_per_um3(no_width)

    def test_rate_scale_normalization_and_exponents(self):
        unit = DriveConditions(1.0, 1.0, 1.0)
        assert excitation_rate_scale_mhz(unit, 1) == pytest.approx(
            1.0, rel=1e-12
        )
        d = reference_conditions()
        assert excitation_rate_scale_mhz(d, 50) == pytest.approx(
            50.0 * 3.0 ** 1.2 / (2.0 ** 0.4 * 400.0 ** 0.2), rel=1e-12
        )
        assert excitation_rate_scale_mhz(d, 100) == pytest.approx(
            2 * excitation_rate_scale_mhz(d, 50), rel=1e-12
        )
        boosted = DriveConditions(2.0, 3.0 * 2 ** (5.0 / 6.0), 400.0)
        assert excitation_rate_scale_mhz(boosted, 50) == pytest.approx(
            2 * excitation_rate_scale_mhz(d, 50), rel=1e-12
        )
        with pytest.raises(ValueError):
            excitation_rate_scale_mhz(d, 0)

    @given(eta=positive, omega=positive, c6=positive)
    @settings(max_examples=80, deadline=None)
    def test_dimensionless_rate_identity(self, eta, omega, c6):
        d = DriveConditions(eta, omega, c6)
        assert scaled_excitation_rate(d, 7) == pytest.approx(
            d.alpha ** 1.2, rel=1e-9
        )

    def test_dimensionless_rate_slope(self):
        alphas = []
        rates = []
        for omega in np.geomspace(0.1, 10.0, 7):
            d = DriveConditions(1.0, omega, 100.0)
            alphas.append(d.alpha)
            rates.append(scaled_excitation_rate(d, 5))
        slope = np.polyfit(np.log(alphas), np.log(rates), 1)[0]
        assert slope == pytest.approx(1.2, abs=1e-9)


class TestGeometryGenerators:
    def test_cubic_lattice_layout(self):
        pos = cubic_lattice((3, 2, 2), spacing_um=1.5)
        assert pos.shape == (12, 3)
        assert np.allclose(pos.mean(axis=0), 0.0)
        xs = np.unique(pos[:, 0])
        assert np.allclose(np.diff(xs), 1.5)
        assert len(xs) == 3

    def test_cubic_lattice_validation(self):
        with pytest.raises(ValueError):
            cubic_lattice((0, 1, 1), 1.0)
        with pytest.raises(ValueError):
            cubic_lattice((2, 2, 2), 0.0)
        with pytest.raises(ValueError, match="spacing_um must be finite"):
            cubic_lattice((2, 1, 1), math.inf)

    @pytest.mark.parametrize("shape", [(2.5, 1, 1), (1, 1.5, 1), (2, 2, math.nan)])
    def test_cubic_lattice_needs_whole_numbers(self, shape):
        # (2.5, 1, 1) gave the off-centre row x = -0.75, 0.25, 1.25
        with pytest.raises(ValueError, match="lattice shape entry must be a whole number >= 1"):
            cubic_lattice(shape, 1.0)

    def test_cubic_lattice_takes_integral_floats(self):
        assert np.array_equal(cubic_lattice((3.0, 2, 1), 1.5), cubic_lattice((3, 2, 1), 1.5))

    @pytest.mark.parametrize("n", [2.5, -1, math.nan, math.inf])
    def test_generators_need_a_whole_atom_count(self, n):
        # 2.5 raised numpy's TypeError, -1 "negative dimensions"
        for make in (
            lambda: uniform_box_positions(n, (1.0, 1.0, 1.0), 1),
            lambda: uniform_sphere_positions(n, 1.0, 1),
            lambda: uniform_cylinder_positions(n, 1.0, 1.0, 1),
        ):
            with pytest.raises(ValueError, match="n must be a whole number >= 0"):
                make()

    def test_generators_take_integral_floats_and_zero(self):
        for make in (
            lambda n: uniform_box_positions(n, (2.0, 1.0, 1.0), 7),
            lambda n: uniform_sphere_positions(n, 1.0, 7),
            lambda n: uniform_cylinder_positions(n, 1.0, 2.0, 7),
        ):
            assert np.array_equal(make(3.0), make(3))
            assert make(0).shape == (0, 3)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_one_finite_positive_guard(self, bad):
        # zero and nan said "must be positive", inf "must be finite and
        # non-negative": each size now has the one message
        cases = {
            "spacing_um": lambda: cubic_lattice((2, 1, 1), bad),
            "lengths_um": lambda: uniform_box_positions(2, (1.0, bad, 1.0), 1),
            "radius_um": lambda: uniform_sphere_positions(2, bad, 1),
            "length_um": lambda: uniform_cylinder_positions(2, 1.0, bad, 1),
            "rabi_mhz": lambda: simulate_triple_exchange(bad, 1.0, [0.0, 1.0]),
        }
        for name in ("density_per_um3", "rabi_mhz", "c6_mhz_um6"):
            values = {"density_per_um3": 1.0, "rabi_mhz": 1.0, "c6_mhz_um6": 1.0, name: bad}
            with pytest.raises(ValueError, match=name + " must be finite and positive"):
                DriveConditions(**values)
        for name, make in cases.items():
            with pytest.raises(ValueError, match=name + " must be finite and positive"):
                make()

    @pytest.mark.parametrize(
        "lengths_um", [(math.nan, 1.0, 1.0), (-1.0, 1.0, 1.0), (1.0, math.inf, 1.0), (1.0, 1.0)]
    )
    def test_box_needs_three_finite_positive_lengths(self, lengths_um):
        with pytest.raises(ValueError, match="lengths_um"):
            uniform_box_positions(2, lengths_um, 1)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_sphere_and_cylinder_need_finite_positive_sizes(self, bad):
        with pytest.raises(ValueError, match="radius_um"):
            uniform_sphere_positions(2, bad, 1)
        with pytest.raises(ValueError, match="radius_um"):
            uniform_cylinder_positions(2, bad, 1.0, 1)
        with pytest.raises(ValueError, match="length_um"):
            uniform_cylinder_positions(2, 1.0, bad, 1)

    def test_box_bounds_and_separation(self):
        pos = uniform_box_positions(
            40, (4.0, 2.0, 1.0), seed_or_rng=3, min_separation_um=0.3
        )
        assert pos.shape == (40, 3)
        assert np.all(np.abs(pos[:, 0]) <= 2.0)
        assert np.all(np.abs(pos[:, 1]) <= 1.0)
        assert np.all(np.abs(pos[:, 2]) <= 0.5)
        dists = np.linalg.norm(pos[:, None] - pos[None, :], axis=-1)
        np.fill_diagonal(dists, np.inf)
        assert dists.min() >= 0.3

    def test_sphere_bounds(self):
        pos = uniform_sphere_positions(60, 2.5, seed_or_rng=4)
        assert np.all(np.linalg.norm(pos, axis=1) <= 2.5)

    def test_cylinder_bounds(self):
        pos = uniform_cylinder_positions(
            60, radius_um=1.0, length_um=6.0, seed_or_rng=5
        )
        assert np.all(np.linalg.norm(pos[:, :2], axis=1) <= 1.0)
        assert np.all(np.abs(pos[:, 2]) <= 3.0)

    def test_seeded_determinism(self):
        a = uniform_box_positions(10, (2.0, 2.0, 2.0), seed_or_rng=11)
        b = uniform_box_positions(10, (2.0, 2.0, 2.0), seed_or_rng=11)
        c = uniform_box_positions(10, (2.0, 2.0, 2.0), seed_or_rng=12)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_generator_instance_accepted(self):
        rng = np.random.default_rng(11)
        a = uniform_box_positions(10, (2.0, 2.0, 2.0), seed_or_rng=rng)
        b = uniform_box_positions(10, (2.0, 2.0, 2.0), seed_or_rng=11)
        assert np.array_equal(a, b)

    def test_impossible_packing_raises(self):
        with pytest.raises(ValueError, match="min separation"):
            uniform_box_positions(
                10, (1.0, 1.0, 1.0), seed_or_rng=1, min_separation_um=2.0
            )


class TestExcitationModel:
    def test_validation(self):
        good = dict(
            positions_um=[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
            rabi_mhz=1.0,
            c6_mhz_um6=10.0,
        )
        ExcitationModel(**good)
        with pytest.raises(ValueError):
            ExcitationModel(
                positions_um=[[0.0, 0.0], [1.0, 0.0]],
                rabi_mhz=1.0,
                c6_mhz_um6=10.0,
            )
        with pytest.raises(ValueError):
            ExcitationModel(**{**good, "rabi_mhz": -1.0})
        with pytest.raises(ValueError):
            ExcitationModel(**{**good, "max_excitations": 0})
        with pytest.raises(ValueError):
            ExcitationModel(**{**good, "energy_cutoff_mhz": 0.0})
        # 2.5 was reported as "over the budget of 2", inf turned the guard off
        for budget in (0, 2.5, math.inf):
            with pytest.raises(ValueError, match="basis_budget must be a whole number >= 1"):
                ExcitationModel(**{**good, "basis_budget": budget})
        # exactly one interaction source
        with pytest.raises(ValueError):
            ExcitationModel(
                positions_um=good["positions_um"], rabi_mhz=1.0
            )
        with pytest.raises(ValueError):
            ExcitationModel(
                positions_um=good["positions_um"],
                rabi_mhz=1.0,
                c6_mhz_um6=10.0,
                interaction_mhz=np.zeros((2, 2)),
            )
        with pytest.raises(ValueError):
            ExcitationModel(
                positions_um=good["positions_um"],
                rabi_mhz=1.0,
                interaction_mhz=np.array([[0.0, 1.0], [2.0, 0.0]]),
            )

    def test_interaction_must_be_exactly_symmetric(self):
        # allclose accepted this V, and each layer read the pair its own
        # way: the basis screen 1.0, H their mean, KMC each atom's row
        v = np.array([[0.0, 1.0], [1.000001, 0.0]])
        with pytest.raises(ValueError, match="interaction_mhz must be a symmetric"):
            ExcitationModel(
                positions_um=[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], rabi_mhz=1.0, interaction_mhz=v
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_interaction_rejected(self, bad):
        # a nan entry was reported as "must be symmetric"
        v = np.array([[0.0, bad], [bad, 0.0]])
        with pytest.raises(ValueError, match="interaction_mhz must be finite"):
            ExcitationModel(
                positions_um=[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], rabi_mhz=1.0, interaction_mhz=v
            )

    @pytest.mark.parametrize(
        "detuning", [np.nan, np.inf, [0.0, np.nan]], ids=["nan", "inf", "per_atom"]
    )
    def test_non_finite_detuning_rejected(self, detuning):
        # a nan detuning gives kinetic_monte_carlo a nan rate total, which
        # never ends its event loop, and simulate_exact an eigh that fails
        with pytest.raises(ValueError, match="detuning_mhz"):
            ExcitationModel(
                positions_um=[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
                rabi_mhz=1.0,
                detuning_mhz=detuning,
                c6_mhz_um6=10.0,
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_positions_rejected(self, bad):
        # an inf coordinate gave 3 excitations at 0.5 us, a nan one a
        # LinAlgError from the propagation
        with pytest.raises(ValueError, match="positions_um"):
            ExcitationModel(
                positions_um=[[0.0, 0.0, 0.0], [1.0, 0.0, bad]],
                rabi_mhz=1.0,
                c6_mhz_um6=10.0,
            )

    def test_per_atom_arrays_broadcast(self):
        model = ExcitationModel(
            positions_um=np.zeros((3, 3)) + np.arange(3)[:, None],
            rabi_mhz=[1.0, 2.0, 3.0],
            detuning_mhz=0.5,
            c6_mhz_um6=10.0,
        )
        assert np.array_equal(model.rabi_mhz, [1.0, 2.0, 3.0])
        assert np.array_equal(model.detuning_mhz, [0.5, 0.5, 0.5])

    def test_pair_shift_matrix_values(self):
        model = ExcitationModel(
            positions_um=[[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 3.0, 0.0]],
            rabi_mhz=1.0,
            c6_mhz_um6=64.0,
        )
        v = model.pair_shift_matrix_mhz()
        assert v[0, 1] == pytest.approx(1.0, rel=1e-12)
        assert v[0, 2] == pytest.approx(64.0 / 729.0, rel=1e-12)
        assert np.allclose(np.diag(v), 0.0)
        assert np.allclose(v, v.T)

    def test_coincident_atoms_rejected(self):
        # the couplings are formed, and so checked, at construction
        with pytest.raises(ValueError, match="coincident"):
            ExcitationModel(
                positions_um=[[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
                rabi_mhz=1.0,
                c6_mhz_um6=10.0,
            )

    @pytest.mark.parametrize("c6", [math.nan, math.inf, -math.inf, 1e300])
    def test_non_finite_c6_couplings_rejected(self, c6):
        # a nan or infinite c6 (or a finite one whose c6 / r^6 overflows at
        # r = 1e-3) stopped simulate_exact with "Eigenvalues did not converge"
        with pytest.raises(ValueError, match="c6_mhz_um6 must be finite"):
            ExcitationModel(
                positions_um=[[0.0, 0.0, 0.0], [1e-3, 0.0, 0.0]], rabi_mhz=1.0, c6_mhz_um6=c6
            )

    def test_couplings_stored_once(self):
        v = np.array([[7.0, 1.5], [1.5, -2.0]])
        model = ExcitationModel(
            positions_um=[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], rabi_mhz=1.0, interaction_mhz=v
        )
        first = model.pair_shift_matrix_mhz()
        assert np.array_equal(first, [[0.0, 1.5], [1.5, 0.0]])
        # each call returns a copy: changing it, or the input, moves nothing
        first[0, 1] = v[0, 1] = 99.0
        assert np.array_equal(model.pair_shift_matrix_mhz(), [[0.0, 1.5], [1.5, 0.0]])
        assert np.array_equal(model.interaction_mhz, [[7.0, 1.5], [1.5, -2.0]])

    @pytest.mark.parametrize("form", ["c6", "interaction"])
    def test_inputs_are_read_only_copies(self, form):
        # the couplings are formed at construction; a caller's later write
        # to its positions moved positions_um, while the couplings stayed
        # at the old ones, and interaction_mhz was a writable copy
        rng = np.random.default_rng(11)
        pos = uniform_box_positions(5, (3.0, 3.0, 3.0), seed_or_rng=rng, min_separation_um=0.8)
        rabi = rng.uniform(0.5, 1.5, size=5)
        detuning = rng.normal(scale=0.3, size=5)
        inputs = [pos, rabi, detuning]
        kwargs = dict(positions_um=pos, rabi_mhz=rabi, detuning_mhz=detuning)
        if form == "c6":
            kwargs["c6_mhz_um6"] = 2.0
        else:
            v = rng.normal(scale=1.0, size=(5, 5))
            inputs.append(v + v.T)
            kwargs["interaction_mhz"] = inputs[-1]
        model = ExcitationModel(**kwargs)
        stored = [model.positions_um, model.rabi_mhz, model.detuning_mhz, model._couplings_mhz]
        if form == "interaction":
            stored.append(model.interaction_mhz)
        times = np.linspace(0.0, 2.0, 5)

        def results():
            return (
                [array.tolist() for array in stored],
                model.pair_shift_matrix_mhz().tolist(),
                simulate_exact(model, times).mean_excitations.tolist(),
                kinetic_monte_carlo(model, 1.0, times, 8, seed=3).trajectories.tolist(),
            )

        before = results()
        for array in inputs:
            array *= 1.5
        assert results() == before
        for array in stored:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0

    @pytest.mark.parametrize("count", [2.5, 0, math.nan, math.inf])
    def test_max_excitations_must_be_a_whole_number(self, count):
        # 2.5 and nan built a model that failed later
        with pytest.raises(ValueError, match="max_excitations must be a whole number >= 1"):
            ExcitationModel(
                positions_um=cubic_lattice((3, 1, 1), 1.0),
                rabi_mhz=0.5,
                c6_mhz_um6=10.0,
                max_excitations=count,
            )

    def test_max_excitations_takes_integral_floats(self):
        model = dict(positions_um=cubic_lattice((4, 1, 1), 1.0), rabi_mhz=0.5, c6_mhz_um6=10.0)
        two = ExcitationModel(**model, max_excitations=2.0)
        assert two.max_excitations == 2 and type(two.max_excitations) is int
        assert enumerate_basis(two) == enumerate_basis(ExcitationModel(**model, max_excitations=2))


def loop_basis(model):
    """enumerate_basis as a Python loop over subsets: the oracle for its
    kept set, order and pair-energy sums."""
    v = model.pair_shift_matrix_mhz()
    basis = []
    for k in range(model.max_excitations + 1):
        for subset in itertools.combinations(range(model.n_atoms), k):
            if k >= 2:
                energy = sum(v[i, j] for i, j in itertools.combinations(subset, 2))
                if abs(energy) > model.energy_cutoff_mhz:
                    continue
            basis.append(subset)
    return basis


class TestBasisEnumeration:
    @pytest.mark.parametrize(
        "n_atoms, max_excitations, signed",
        [(9, 9, False), (9, 9, True), (40, 4, False), (64, 3, True)],
    )
    def test_matches_the_subset_loop(self, n_atoms, max_excitations, signed):
        # the cutoff is one subset's own loop-summed energy, so a sum in
        # another order would keep or drop it by rounding
        rng = np.random.default_rng(n_atoms)
        positions = rng.uniform(0.0, 3.0 * n_atoms ** (1 / 3), size=(n_atoms, 3))
        v = rng.normal(size=(n_atoms, n_atoms))
        kwargs = dict(interaction_mhz=v + v.T) if signed else dict(c6_mhz_um6=50.0)
        model = ExcitationModel(
            positions_um=positions, rabi_mhz=1.0, max_excitations=max_excitations, **kwargs
        )
        w = model.pair_shift_matrix_mhz()
        subset = sorted(rng.choice(n_atoms, size=min(max_excitations, 4), replace=False))
        cutoff = abs(sum(w[i, j] for i, j in itertools.combinations(subset, 2)))
        model = dataclasses.replace(model, energy_cutoff_mhz=cutoff)
        expected = loop_basis(model)
        assert tuple(subset) in expected
        assert len(expected) < ens._subset_count(model)
        basis = enumerate_basis(model)
        assert basis == expected
        assert all(type(s) is tuple for s in basis)

    def test_counts_and_ordering(self):
        model = ExcitationModel(
            positions_um=cubic_lattice((6, 1, 1), 1.0),
            rabi_mhz=1.0,
            c6_mhz_um6=1.0,
            max_excitations=3,
        )
        basis = enumerate_basis(model)
        assert len(basis) == 1 + 6 + 15 + 20
        assert basis[0] == ()
        sizes = [len(s) for s in basis]
        assert sizes == sorted(sizes)

    def test_energy_cutoff_filters_pairs(self):
        model = ExcitationModel(
            positions_um=[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [10.0, 0.0, 0.0]],
            rabi_mhz=1.0,
            c6_mhz_um6=100.0,
            max_excitations=3,
            energy_cutoff_mhz=1.0,
        )
        basis = enumerate_basis(model)
        assert (0, 1) not in basis
        assert (0, 2) in basis and (1, 2) in basis
        assert (0, 1, 2) not in basis
        assert len(basis) == 1 + 3 + 2

    def test_budget_overflow(self):
        model = ExcitationModel(
            positions_um=cubic_lattice((8, 1, 1), 1.0),
            rabi_mhz=1.0,
            c6_mhz_um6=1.0,
            max_excitations=2,
            basis_budget=10,
        )
        with pytest.raises(TruncationError, match="budget of 10"):
            enumerate_basis(model)

    def test_untruncated_count_guard(self):
        model = ExcitationModel(
            positions_um=np.random.default_rng(0).random((64, 3)) * 100,
            rabi_mhz=1.0,
            c6_mhz_um6=1.0,
            max_excitations=32,
            basis_budget=10,
        )
        with pytest.raises(TruncationError, match="too large"):
            enumerate_basis(model)

    def test_truncation_error_is_value_error(self):
        assert issubclass(TruncationError, ValueError)

    def test_default_budget(self):
        assert ens.DEFAULT_BASIS_BUDGET == 200_000


def kron_oracle_mean_excitations(positions, rabis, dets, c6, times):
    """Independent 2^N Kronecker-product evolution of the same model."""
    n = len(positions)
    sz = np.diag([0.0, 1.0])
    sx = np.array([[0.0, 0.5], [0.5, 0.0]])
    eye = np.eye(2)

    def emb(op, k):
        out = np.array([[1.0]])
        for i in range(n):
            out = np.kron(out, op if i == k else eye)
        return out

    h = np.zeros((2**n, 2**n))
    for k in range(n):
        h += 2 * math.pi * (rabis[k] * emb(sx, k) - dets[k] * emb(sz, k))
    for i in range(n):
        for j in range(i + 1, n):
            rij = np.linalg.norm(np.asarray(positions[i]) - positions[j])
            h += 2 * math.pi * c6 / rij**6 * (emb(sz, i) @ emb(sz, j))
    w, u = np.linalg.eigh(h)
    psi0 = np.zeros(2**n)
    psi0[0] = 1.0
    c0 = u.T @ psi0
    counts = np.array([bin(i).count("1") for i in range(2**n)], dtype=float)
    out = np.empty(len(times))
    for k, t in enumerate(times):
        psi = u @ (np.exp(-1j * w * t) * c0)
        out[k] = float(counts @ (np.abs(psi) ** 2))
    return out


def propagation_problem(complex_h):
    """A dense 15-state H (rad/us) and a random complex psi0."""
    rng = np.random.default_rng(5)
    model = ExcitationModel(
        positions_um=rng.random((4, 3)) * 3.0,
        rabi_mhz=[0.7, 1.1, 0.4, 0.9],
        detuning_mhz=[0.2, -0.5, 0.0, 0.3],
        c6_mhz_um6=4.0,
        max_excitations=3,
    )
    h = ens._build_hamiltonian(model, enumerate_basis(model)).toarray()
    dim = h.shape[0]
    if complex_h:
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = h + (a + a.conj().T) / 2.0
    psi0 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return h, psi0


def choice_kmc_oracle(model, gamma_mhz, times, trials, seed):
    """The event loop with rng.choice and a summed excited count."""
    v = model.pair_shift_matrix_mhz()
    n = model.n_atoms
    streams = np.random.SeedSequence(seed).spawn(trials)
    out = np.zeros((trials, times.size), dtype=np.int64)
    for trial in range(trials):
        rng = np.random.default_rng(streams[trial])
        excited = np.zeros(n)
        t = 0.0
        cursor = 0
        while cursor < times.size:
            detuning = 2 * math.pi * (model.detuning_mhz - v @ excited)
            gamma = 2 * math.pi * gamma_mhz
            omega = 2 * math.pi * model.rabi_mhz
            rates = omega**2 * gamma / (gamma**2 + 4.0 * detuning**2)
            total = rates.sum()
            wait = -np.log1p(-rng.random()) / total
            while cursor < times.size and times[cursor] < t + wait:
                out[trial, cursor] = int(excited.sum())
                cursor += 1
            t += wait
            atom = rng.choice(n, p=rates / total)
            excited[atom] = 1.0 - excited[atom]
    return out


def per_trial_kmc_oracle(model, gamma_mhz, times, trials, seed, events=None):
    """The event loop one trial at a time, which the lockstep
    kinetic_monte_carlo must reproduce bit for bit: one gemv, rate vector,
    draw and flip per event, the grid cursor advanced point by point. Each
    trial's flip count goes into events when it is given."""
    v = model.pair_shift_matrix_mhz()
    gamma = 2 * math.pi * gamma_mhz
    numerator = (2 * math.pi * model.rabi_mhz) ** 2 * gamma
    streams = np.random.SeedSequence(seed).spawn(trials)
    out = np.zeros((trials, times.size), dtype=np.int64)
    for trial in range(trials):
        rng = np.random.default_rng(streams[trial])
        excited = np.zeros(model.n_atoms)
        count = 0
        t = 0.0
        cursor = 0
        while cursor < times.size:
            detuning = 2 * math.pi * (model.detuning_mhz - v @ excited)
            rates = numerator / (gamma**2 + 4.0 * detuning**2)
            total = rates.sum()
            if total <= 0:
                break
            wait = -np.log1p(-rng.random()) / total
            while cursor < times.size and times[cursor] < t + wait:
                out[trial, cursor] = count
                cursor += 1
            t += wait
            cdf = np.cumsum(rates / total)
            cdf /= cdf[-1]
            atom = int(cdf.searchsorted(rng.random(), side="right"))
            excited[atom] = 1.0 - excited[atom]
            count += 1 if excited[atom] else -1
            if events is not None:
                events[trial] += 1
        out[trial, cursor:] = count
    return out


def lockstep_oracle_case(name, seed):
    """(model, gamma_mhz, times, trials) for the lockstep-vs-oracle test."""
    if name == "benchmark_shaped":
        pos = uniform_box_positions(
            150, (20.0, 20.0, 20.0), seed_or_rng=seed, min_separation_um=0.5
        )
        model = ExcitationModel(positions_um=pos, rabi_mhz=1.0, c6_mhz_um6=5000.0)
        return model, 5.0, np.linspace(0.0, 20.0, 21), 40
    if name == "facilitated_chain":
        # the detuning equals the nearest-neighbour shift: a trial that
        # excites one atom runs on resonant neighbours while one left in
        # the ground state barely moves; at seed 3 trials need 1 to 111 events
        model = ExcitationModel(
            positions_um=cubic_lattice((8, 1, 1), 1.0),
            rabi_mhz=0.5,
            detuning_mhz=5.0,
            c6_mhz_um6=5.0,
        )
        return model, 0.5, np.linspace(0.0, 10.0, 11), 40
    if name == "zero_rabi":
        model = ExcitationModel(
            positions_um=cubic_lattice((3, 2, 1), 1.0),
            rabi_mhz=0.0,
            c6_mhz_um6=50.0,
        )
        return model, 2.0, np.linspace(0.0, 3.0, 4), 5
    if name == "mixed_sign":
        # explicit couplings of both signs, a few MHz: shifts cancel in part
        pos = uniform_box_positions(
            20, (6.0, 6.0, 6.0), seed_or_rng=seed, min_separation_um=0.5
        )
        v = np.random.default_rng(seed).normal(scale=2.0, size=(20, 20))
        model = ExcitationModel(
            positions_um=pos, rabi_mhz=0.5, detuning_mhz=0.3, interaction_mhz=v + v.T
        )
        return model, 2.0, np.linspace(0.0, 6.0, 7), 60
    if name == "zero_coupling":
        # test_independent_atoms_poissonian's atoms, run long enough that
        # about half of them are excited
        model = ExcitationModel(
            positions_um=cubic_lattice((10, 1, 1), 1.0),
            rabi_mhz=0.2,
            interaction_mhz=np.zeros((10, 10)),
            max_excitations=10,
        )
        return model, 4.0, np.linspace(0.0, 20.0, 11), 40
    # near_symmetric: couplings moved off the c6 form by about 1e-10 in
    # each pair's own way, exactly symmetric as interaction_mhz must be
    pos = uniform_box_positions(
        30, (8.0, 8.0, 8.0), seed_or_rng=7, min_separation_um=0.5
    )
    v = ExcitationModel(positions_um=pos, rabi_mhz=0.5, c6_mhz_um6=200.0)
    v = v.pair_shift_matrix_mhz()
    noise = np.random.default_rng(seed).normal(size=v.shape)
    v = v + 1e-10 * (noise + noise.T)
    model = ExcitationModel(positions_um=pos, rabi_mhz=0.5, interaction_mhz=v)
    return model, 2.0, np.linspace(0.0, 6.0, 7), 60


def loop_hamiltonian(model, basis):
    """Dense H from a per-subset loop over tuples: the _build_hamiltonian oracle."""
    v = model.pair_shift_matrix_mhz()
    index = {subset: i for i, subset in enumerate(basis)}
    h = np.zeros((len(basis), len(basis)))
    for row, subset in enumerate(basis):
        energy = -sum(model.detuning_mhz[i] for i in subset)
        energy += sum(v[i, j] for i, j in itertools.combinations(subset, 2))
        h[row, row] = 2 * math.pi * energy
        for atom in set(range(model.n_atoms)) - set(subset):
            col = index.get(tuple(sorted(subset + (atom,))))
            if col is not None:
                h[row, col] = h[col, row] = math.pi * model.rabi_mhz[atom]
    return h


class TestExactDynamics:
    @pytest.mark.parametrize(
        "times",
        [np.array([0.0, 0.3, 1.1, 2.5]), np.linspace(0.0, 2.5, 6)],
        ids=["uneven", "even"],
    )
    @pytest.mark.parametrize("as_csr", [False, True], ids=["dense", "csr"])
    @pytest.mark.parametrize("complex_h", [False, True])
    def test_propagate_matches_expm(self, complex_h, as_csr, times):
        h, psi0 = propagation_problem(complex_h)
        dim = h.shape[0]
        out = ens.propagate(sparse.csr_array(h) if as_csr else h, psi0, times)
        assert out.shape == (dim, times.size)
        for col, t in enumerate(times):
            expected = linalg.expm(-1j * t * h) @ psi0
            assert np.max(np.abs(out[:, col] - expected)) < 1e-12

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_times_rejected(self, bad):
        h, psi0 = propagation_problem(False)
        for matrix in (h, sparse.csr_array(h)):
            with pytest.raises(ValueError, match="finite"):
                ens.propagate(matrix, psi0, [0.0, bad])
        model = ExcitationModel(
            positions_um=cubic_lattice((3, 1, 1), 1.0),
            rabi_mhz=0.5,
            c6_mhz_um6=10.0,
        )
        with pytest.raises(ValueError, match="finite"):
            simulate_exact(model, [0.0, bad])
        with pytest.raises(ValueError, match="finite"):
            simulate_triple_exchange(1.0, 10.0, [0.0, bad])

    def test_no_times_rejected(self):
        # an empty time grid used to fail inside numpy's max of norm_drift
        model = ExcitationModel(
            positions_um=cubic_lattice((3, 1, 1), 1.0),
            rabi_mhz=0.5,
            c6_mhz_um6=10.0,
        )
        with pytest.raises(ValueError, match="times_us"):
            simulate_exact(model, [])

    @pytest.mark.parametrize("times", [[[0.0, 1.0], [2.0, 3.0]], []], ids=["2d", "empty"])
    @pytest.mark.parametrize("entry", ["propagate", "exact", "triple", "kmc"])
    def test_one_time_grid_rule(self, entry, times):
        # a 2-D grid was flattened by propagate, simulate_exact (times_us of
        # shape (2, 2) beside 4 rows of probabilities) and
        # simulate_triple_exchange, and failed in KMC with numpy's "truth
        # value ... is ambiguous"; an empty one gave propagate and
        # simulate_triple_exchange empty results
        model = ExcitationModel(
            positions_um=cubic_lattice((3, 1, 1), 1.0), rabi_mhz=0.5, c6_mhz_um6=10.0
        )
        h, psi0 = propagation_problem(False)
        run = {
            "propagate": lambda: ens.propagate(h, psi0, times),
            "exact": lambda: simulate_exact(model, times),
            "triple": lambda: simulate_triple_exchange(1.0, 10.0, times),
            "kmc": lambda: kinetic_monte_carlo(model, 2.0, times, trials=2, seed=1),
        }[entry]
        with pytest.raises(ValueError, match="times_us"):
            run()

    def test_one_time_accepted_everywhere(self):
        model = ExcitationModel(
            positions_um=cubic_lattice((3, 1, 1), 1.0), rabi_mhz=0.5, c6_mhz_um6=10.0
        )
        h, psi0 = propagation_problem(False)
        assert np.array_equal(ens.propagate(h, psi0, 0.7), ens.propagate(h, psi0, [0.7]))
        exact = simulate_exact(model, 0.7)
        assert exact.times_us.shape == () and exact.number_probabilities.shape == (1, 4)
        triple = simulate_triple_exchange(1.0, 10.0, 0.7)
        assert triple.excitation_probabilities.shape == (1, 4)
        # kinetic_monte_carlo failed in np.diff on a single time
        kmc = kinetic_monte_carlo(model, 2.0, 0.7, trials=2, seed=1)
        assert kmc.trajectories.shape == (2, 1)
        assert np.array_equal(
            kmc.trajectories, kinetic_monte_carlo(model, 2.0, [0.7], trials=2, seed=1).trajectories
        )

    @pytest.mark.parametrize("complex_h", [False, True])
    def test_memory_ceiling_takes_sparse_path(self, monkeypatch, complex_h):
        h, psi0 = propagation_problem(complex_h)
        times = np.linspace(0.3, 2.5, 5)
        uneven = np.array([0.0, 0.3, 1.1, 2.5])
        dense = ens.propagate(h, psi0, times)
        dense_uneven = ens.propagate(h, psi0, uneven)
        monkeypatch.setattr(ens, "DENSE_MEMORY_CEILING_BYTES", 1024)

        def no_eigh(*args, **kwargs):
            raise AssertionError("dense eigh above the memory ceiling")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        out = ens.propagate(sparse.csr_array(h), psi0, times)
        assert np.max(np.abs(out - dense)) < 1e-12
        # any grid takes the series above the ceiling
        out = ens.propagate(h, psi0, uneven)
        assert np.max(np.abs(out - dense_uneven)) < 1e-12

    def test_weak_interactions_take_sparse_path(self, monkeypatch):
        # weak, sparse couplings: the Taylor cost is far below dim^3
        model = ExcitationModel(
            positions_um=uniform_box_positions(
                10, (8.0, 8.0, 8.0), seed_or_rng=3, min_separation_um=2.0
            ),
            rabi_mhz=0.4,
            c6_mhz_um6=20.0,
            max_excitations=4,
        )
        times = np.linspace(0.0, 1.5, 31)
        basis = enumerate_basis(model)
        h = ens._build_hamiltonian(model, basis)
        energies, modes = linalg.eigh(h.toarray())
        coeffs = modes[0, :]  # psi0 is the all-ground state, index 0
        psi = modes @ (np.exp(-1j * np.outer(energies, times)) * coeffs[:, None])
        weights = np.abs(psi) ** 2
        sizes = np.array([len(subset) for subset in basis])
        oracle_probs = np.stack(
            [weights[sizes == k].sum(axis=0) for k in range(11)], axis=1
        )

        def no_eigh(*args, **kwargs):
            raise AssertionError("the cost rule should avoid dense eigh")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        dyn = simulate_exact(model, times)
        assert dyn.dimension == len(basis) == 386
        assert dyn.method == "chebyshev"
        assert np.max(np.abs(dyn.mean_excitations - sizes @ weights)) < 1e-12
        assert np.max(np.abs(dyn.number_probabilities - oracle_probs)) < 1e-12
        assert dyn.norm_drift < 1e-8

    def test_bessel_table_matches_scipy(self):
        x = np.concatenate(
            [[0.0, 1e-300, 1e-12, 1e-3, 0.5, 7.3], np.linspace(-5000.0, 5000.0, 41)]
        )
        need = ens._series_length(x, 1e-16)
        assert np.all(need > np.abs(x))
        table = ens._bessel_table(x, int(need.max()))
        orders = np.arange(table.shape[0])[:, None]
        assert np.max(np.abs(table - special.jv(orders, x))) < 1e-13
        # the stated tail bound holds: sum_{k >= K} 2 |J_k(x)| <= 1e-16
        for xj, kj in zip(x, need):
            tail = 2.0 * np.abs(special.jv(np.arange(kj, kj + 400), xj)).sum()
            assert tail <= 1e-16

    @pytest.mark.parametrize(
        "grid",
        [
            [1.7, 0.0, 2.5, 0.3, 1.1],
            [-2.5, -0.4, 0.0, 0.9],
            np.linspace(0.7, 3.1, 7),
            np.linspace(0.0, 2.5, 6),
        ],
        ids=["unsorted", "negative", "offset", "even"],
    )
    @pytest.mark.parametrize("as_csr", [False, True], ids=["dense", "csr"])
    @pytest.mark.parametrize("kind", ["real", "complex_psi0", "complex_h"])
    def test_series_matches_expm(self, monkeypatch, kind, as_csr, grid):
        monkeypatch.setattr(ens, "SPARSE_COST_RATIO", math.inf)
        h, psi0 = propagation_problem(kind == "complex_h")
        if kind == "real":
            psi0 = psi0.real.copy()
        times = np.asarray(grid)
        out, method = ens._propagate(
            sparse.csr_array(h) if as_csr else h, psi0, times
        )
        assert method == "chebyshev"
        assert out.shape == (h.shape[0], times.size)
        for col, t in enumerate(times):
            expected = linalg.expm(-1j * t * h) @ psi0
            assert np.max(np.abs(out[:, col] - expected)) < 1e-12

    @pytest.mark.parametrize(
        "h",
        [2.7 * np.eye(5), np.array([[-3.1]]), sparse.csr_array(0.4 * np.eye(4))],
        ids=["scaled_identity", "one_by_one", "csr_identity"],
    )
    def test_series_zero_spectral_width(self, monkeypatch, h):
        # Gershgorin width 0: the series is the phase exp(-i c t) alone
        monkeypatch.setattr(ens, "SPARSE_COST_RATIO", math.inf)
        dim = h.shape[0]
        psi0 = np.arange(1.0, dim + 1.0) + 0.5j
        times = np.array([0.0, -1.3, 2.0, 1e6])
        out, method = ens._propagate(h, psi0, times)
        assert method == "chebyshev"
        c = h.diagonal()[0]
        expected = psi0[:, None] * np.exp(-1j * c * times)
        assert np.max(np.abs(out - expected)) < 1e-12

    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_series_rounding_at_large_term_count(self, monkeypatch, seed):
        # K ~ 46 800, the most the cost rule admits at the benchmark's
        # dim 2517 and T = 60. A diagonal H puts eigenvalues on both
        # Gershgorin edges, where recurrence rounding grows fastest;
        # integer energies and half-integer times make every E t exact.
        monkeypatch.setattr(ens, "SPARSE_COST_RATIO", math.inf)
        rng = np.random.default_rng(seed)
        energies = np.concatenate([[0.0, 3300.0], rng.integers(0, 3301, 38)])
        psi0 = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        psi0 /= np.linalg.norm(psi0)
        times = rng.permutation(np.linspace(0.0, 28.0, 57))
        out, method = ens._propagate(sparse.diags_array(energies), psi0, times)
        assert method == "chebyshev"
        assert ens._series_length(1650.0 * times, 1e-16).max() > 46_000
        expected = psi0[:, None] * np.exp(-1j * np.outer(energies, times))
        # no worse than a relative change of eps in t: eps ||H|| |t| |psi0_i|
        floor = np.finfo(float).eps * 3300.0 * np.outer(np.abs(psi0), np.abs(times))
        assert np.all(np.abs(out - expected) <= floor + 1e-15)

    def test_stiff_ensemble_takes_series(self, monkeypatch):
        # benchmark-sized: 16 atoms, C6 = 500, <= 4 excitations, dim 2517
        model = ExcitationModel(
            positions_um=uniform_box_positions(
                16, (8.0, 8.0, 8.0), seed_or_rng=4, min_separation_um=1.0
            ),
            rabi_mhz=1.0,
            c6_mhz_um6=500.0,
            max_excitations=4,
        )
        basis = enumerate_basis(model)
        h = ens._build_hamiltonian(model, basis)
        psi0 = np.zeros(len(basis))
        psi0[0] = 1.0
        times = np.array([0.0, 0.35, 0.1])
        expected = [expm_multiply(-1j * t * h, psi0) for t in times]

        def no_eigh(*args, **kwargs):
            raise AssertionError("dense eigh for a stiff sparse ensemble")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        out, method = ens._propagate(h, psi0, times)
        assert method == "chebyshev"
        for col in range(times.size):
            assert np.max(np.abs(out[:, col] - expected[col])) < 1e-12
        dyn = simulate_exact(model, np.linspace(0.0, 0.35, 8))
        assert dyn.method == "chebyshev"
        assert dyn.dimension == 2517
        assert dyn.norm_drift < 1e-12

    def test_small_single_time_problem_takes_eigh(self):
        # dim 42 at t = 0: one term, but the series' fixed cost per call
        # (SERIES_CALL_COST) exceeds eigh's whole cost there
        model = ExcitationModel(
            positions_um=np.random.default_rng(0).uniform(0.0, 6.0, (6, 3)),
            rabi_mhz=1.0,
            c6_mhz_um6=500.0,
            max_excitations=3,
        )
        h = ens._build_hamiltonian(model, enumerate_basis(model))
        psi0 = np.zeros(42)
        psi0[0] = 1.0
        out, method = ens._propagate(h, psi0, [0.0])
        assert h.shape == (42, 42) and method == "eigh"
        assert np.max(np.abs(out[:, 0] - psi0)) < 1e-14

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_benchmark_ensembles_keep_the_series(self, monkeypatch, seed):
        # the driven ensembles of the benchmark (16 atoms in an 8 um box, at
        # least 1 um apart, <= 4 excitations, 60 times over 2 us): the call
        # cost leaves them on the series; the series itself is stubbed out
        rng = np.random.default_rng(seed)
        points = []
        while len(points) < 16:
            p = (rng.random(3) - 0.5) * 8.0
            if all(np.linalg.norm(p - q) >= 1.0 for q in points):
                points.append(p)
        model = ExcitationModel(
            positions_um=np.array(points), rabi_mhz=1.0, c6_mhz_um6=500.0, max_excitations=4
        )
        h = ens._build_hamiltonian(model, enumerate_basis(model))
        monkeypatch.setattr(ens, "_chebyshev", lambda *args: None)
        _, method = ens._propagate(h, np.eye(h.shape[0])[0], np.linspace(0.0, 2.0, 60))
        assert h.shape == (2517, 2517) and method == "chebyshev"

    def test_reports_method_and_rejected_states(self, monkeypatch):
        model = ExcitationModel(
            positions_um=cubic_lattice((6, 1, 1), 1.0),
            rabi_mhz=0.7,
            c6_mhz_um6=10.0,
            max_excitations=3,
            energy_cutoff_mhz=5.0,
        )
        v = model.pair_shift_matrix_mhz()
        rejected = sum(
            abs(sum(v[i, j] for i, j in itertools.combinations(subset, 2))) > 5.0
            for k in range(4)
            for subset in itertools.combinations(range(6), k)
        )
        assert rejected > 0
        times = np.linspace(0.0, 1.0, 11)
        results = {}
        for ratio, method in ((0.0, "eigh"), (math.inf, "chebyshev")):
            monkeypatch.setattr(ens, "SPARSE_COST_RATIO", ratio)
            dyn = simulate_exact(model, times)
            assert dyn.method == method
            assert dyn.rejected_states == rejected
            assert dyn.dimension + rejected == 1 + 6 + 15 + 20
            results[method] = dyn.mean_excitations
        assert np.max(np.abs(results["eigh"] - results["chebyshev"])) < 1e-12

    @pytest.mark.parametrize("n_atoms", [9, 64])
    def test_hamiltonian_matches_loop_oracle(self, n_atoms):
        # 64 atoms overflow an int64 bitmask and use Python-integer masks
        rng = np.random.default_rng(n_atoms)
        model = ExcitationModel(
            positions_um=rng.random((n_atoms, 3)) * 6.0,
            rabi_mhz=rng.uniform(0.0, 2.0, n_atoms),
            detuning_mhz=rng.normal(size=n_atoms),
            c6_mhz_um6=3.0,
            max_excitations=3 if n_atoms < 20 else 2,
            energy_cutoff_mhz=5.0,
        )
        basis = enumerate_basis(model)
        h = ens._build_hamiltonian(model, basis)
        assert sparse.issparse(h) and h.format == "csr"
        expected = loop_hamiltonian(model, basis)
        assert np.allclose(h.toarray(), expected, rtol=1e-13, atol=1e-12)
        assert h.nnz == np.count_nonzero(expected)

    def test_single_atom_resonant_rabi(self):
        model = ExcitationModel(
            positions_um=[[0.0, 0.0, 0.0]],
            rabi_mhz=0.5,
            interaction_mhz=np.zeros((1, 1)),
            max_excitations=1,
        )
        times = np.linspace(0.0, 4.0, 401)
        dyn = simulate_exact(model, times)
        expected = np.sin(math.pi * 0.5 * times) ** 2
        assert np.abs(dyn.mean_excitations - expected).max() < 1e-12
        assert dyn.mean_excitations.max() == pytest.approx(1.0, abs=1e-9)

    def test_single_atom_detuned_rabi(self):
        model = ExcitationModel(
            positions_um=[[0.0, 0.0, 0.0]],
            rabi_mhz=0.8,
            detuning_mhz=0.6,
            interaction_mhz=np.zeros((1, 1)),
            max_excitations=1,
        )
        times = np.linspace(0.0, 5.0, 400)
        dyn = simulate_exact(model, times)
        gen = math.hypot(0.8, 0.6)
        expected = (0.8 / gen) ** 2 * np.sin(math.pi * gen * times) ** 2
        assert np.abs(dyn.mean_excitations - expected).max() < 1e-12

    def test_three_atom_kron_oracle(self):
        positions = np.array(
            [[0.0, 0.0, 0.0], [1.1, 0.0, 0.0], [0.3, 0.9, 0.0]]
        )
        rabis = np.array([0.7, 1.1, 0.4])
        dets = np.array([0.2, -0.5, 0.0])
        model = ExcitationModel(
            positions_um=positions,
            rabi_mhz=rabis,
            detuning_mhz=dets,
            c6_mhz_um6=4.0,
            max_excitations=3,
        )
        times = np.linspace(0.0, 4.0, 160)
        dyn = simulate_exact(model, times)
        oracle = kron_oracle_mean_excitations(
            positions, rabis, dets, 4.0, times
        )
        assert np.abs(dyn.mean_excitations - oracle).max() < 1e-12

    def test_two_atom_collective_speedup(self):
        model = ExcitationModel(
            positions_um=[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
            rabi_mhz=1.0,
            c6_mhz_um6=1.0e6,
            max_excitations=2,
        )
        times = np.linspace(0.0, 3.0, 1500)
        dyn = simulate_exact(model, times)
        popt, _ = curve_fit(
            lambda t, a, f: a * np.sin(math.pi * f * t) ** 2,
            times,
            dyn.mean_excitations,
            p0=(1.0, 1.4),
        )
        assert popt[1] / math.sqrt(2) == pytest.approx(1.0, rel=1e-6)
        assert popt[0] == pytest.approx(1.0, abs=1e-6)
        assert dyn.number_probabilities[:, 2].max() < 1e-10

    def test_probabilities_shape_and_normalization(self):
        model = ExcitationModel(
            positions_um=cubic_lattice((4, 1, 1), 1.2),
            rabi_mhz=0.7,
            c6_mhz_um6=30.0,
            max_excitations=4,
        )
        times = np.linspace(0.0, 6.0, 120)
        dyn = simulate_exact(model, times)
        assert dyn.number_probabilities.shape == (120, 5)
        assert np.all(dyn.number_probabilities >= -1e-12)
        sums = dyn.number_probabilities.sum(axis=1)
        assert np.abs(sums - 1.0).max() < 1e-10
        assert dyn.norm_drift < 1e-8
        recomputed = dyn.number_probabilities @ np.arange(5)
        assert np.allclose(recomputed, dyn.mean_excitations, atol=1e-10)
        assert dyn.g2 is None and dyn.g2_r_um is None

    @pytest.mark.parametrize("cap", [2, 3])
    def test_cap_population_is_the_peak_at_the_cap(self, cap):
        # weak couplings: the cap, not the blockade, limits the excitation
        model = ExcitationModel(
            positions_um=cubic_lattice((5, 1, 1), 2.0),
            rabi_mhz=1.0,
            c6_mhz_um6=5.0,
            max_excitations=cap,
        )
        dyn = simulate_exact(model, np.linspace(0.0, 2.0, 21))
        assert dyn.cap_population == dyn.number_probabilities[:, cap].max()
        assert dyn.cap_population > 0.05

    @pytest.mark.parametrize("cap", [4, 6])
    def test_cap_population_zero_without_a_binding_cap(self, cap):
        model = ExcitationModel(
            positions_um=cubic_lattice((4, 1, 1), 2.0),
            rabi_mhz=1.0,
            c6_mhz_um6=5.0,
            max_excitations=cap,
        )
        dyn = simulate_exact(model, np.linspace(0.0, 2.0, 21))
        assert dyn.number_probabilities[:, 4].max() > 0.05
        assert dyn.cap_population == 0.0

    @pytest.mark.parametrize(
        "bins",
        [[3.0, 2.0, 0.0], [0.0, 2.0, 2.0], [2.0], [], [0.0, math.nan, 3.0], [0.0, 2.0, math.inf]],
        ids=["descending", "repeated", "one_edge", "no_edge", "nan", "inf"],
    )
    def test_g2_bins_must_be_increasing_finite_edges(self, bins):
        # descending edges were binned by numpy's reversed digitize rule
        # (g2_r_um [2.5, 1.0]); one edge or none gave empty arrays
        model = ExcitationModel(
            positions_um=cubic_lattice((3, 1, 1), 1.2), rabi_mhz=0.7, c6_mhz_um6=30.0
        )
        with pytest.raises(ValueError, match="g2_bins_um"):
            simulate_exact(model, [0.0, 1.0], g2_bins_um=bins)

    def test_g2_window_must_be_a_fraction_of_the_grid(self):
        model = ExcitationModel(
            positions_um=cubic_lattice((3, 1, 1), 1.2),
            rabi_mhz=0.7,
            c6_mhz_um6=30.0,
            max_excitations=3,
        )
        times = np.linspace(0.0, 2.0, 20)
        bins = np.array([0.0, 2.0, 3.0])
        for window in (0.0, -0.5, 1.5, math.nan):
            with pytest.raises(ValueError, match="g2_window"):
                simulate_exact(model, times, g2_bins_um=bins, g2_window=window)
        whole = simulate_exact(model, times, g2_bins_um=bins, g2_window=1.0)
        assert np.all(np.isfinite(whole.g2))

    def test_g2_window_shorter_than_one_time_keeps_the_last_time(self):
        # ceil(4 x 0.9) = 4 would leave no time in the window: the window
        # keeps at least the last time, as 0.25 does
        model = ExcitationModel(
            positions_um=cubic_lattice((3, 1, 1), 1.2),
            rabi_mhz=0.7,
            c6_mhz_um6=30.0,
            max_excitations=3,
        )
        times = np.linspace(0.0, 2.0, 4)
        bins = np.array([0.0, 2.0, 3.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            short = simulate_exact(model, times, g2_bins_um=bins, g2_window=0.1)
        last = simulate_exact(model, times, g2_bins_um=bins, g2_window=0.25)
        assert np.all(np.isfinite(short.g2))
        assert np.array_equal(short.g2, last.g2)

    def test_truncation_convergence_when_strongly_blockaded(self):
        # with every pair shift far above the drive, sectors beyond two
        # excitations carry negligible weight and the cutoff is harmless
        kwargs = dict(
            positions_um=cubic_lattice((6, 1, 1), 1.0),
            rabi_mhz=0.1,
            c6_mhz_um6=1.0e5,
        )
        times = np.linspace(0.0, 8.0, 100)
        loose = simulate_exact(
            ExcitationModel(max_excitations=2, **kwargs), times
        )
        tight = simulate_exact(
            ExcitationModel(max_excitations=4, **kwargs), times
        )
        diff = np.abs(loose.mean_excitations - tight.mean_excitations)
        assert diff.max() < 1e-8
        assert tight.dimension > loose.dimension

    def test_hamiltonian_real_symmetric(self):
        model = ExcitationModel(
            positions_um=cubic_lattice((4, 1, 1), 1.0),
            rabi_mhz=[0.5, 1.0, 1.5, 2.0],
            detuning_mhz=[0.1, -0.2, 0.3, 0.0],
            c6_mhz_um6=25.0,
            max_excitations=3,
        )
        basis = enumerate_basis(model)
        h = ens._build_hamiltonian(model, basis).toarray()
        assert np.array_equal(h, h.T)
        assert np.isrealobj(h)
        # diagonal of the pair (0, 1): interaction minus detunings, angular
        idx = basis.index((0, 1))
        expected = 2 * math.pi * (25.0 - (0.1 - 0.2))
        assert h[idx, idx] == pytest.approx(expected, rel=1e-12)

    def test_blockade_hole_in_pair_correlation(self):
        pos = uniform_box_positions(
            12, (7.0, 2.2, 2.2), seed_or_rng=7, min_separation_um=0.62
        )
        eta = 12 / (7.0 * 2.2 * 2.2)
        drive = DriveConditions(eta, 1.0, 60.0)
        rb = drive.blockade_radius_um
        t_end = 40.0 / drive.collective_rabi_mhz
        times = np.linspace(0.0, t_end, 1200)
        model = ExcitationModel(
            positions_um=pos, rabi_mhz=1.0, c6_mhz_um6=60.0, max_excitations=6
        )
        dyn = simulate_exact(
            model, times, g2_bins_um=np.array([0.0, rb, 2 * rb, 8.0, 20.0])
        )
        assert dyn.dimension == 2510
        assert dyn.norm_drift < 1e-8
        inside, ring, far, empty = dyn.g2
        assert inside < 0.1
        assert inside == pytest.approx(0.04977592, rel=1e-5)
        assert ring > 1.0  # intermediate pile-up just outside the hole
        assert far == pytest.approx(1.0, abs=0.05)
        assert far == pytest.approx(1.01026026, rel=1e-5)
        assert math.isnan(empty)


class TestSuperatomScaling:
    def test_saturated_fraction_calibration_ladder(self):
        # compact clusters at unit density, each driven so the blockade
        # sphere holds 3N atoms; f_R = <N_R>/N against alpha = (3N)^{-5/2}
        shapes = {
            1: (1, 1, 1),
            2: (2, 1, 1),
            4: (2, 2, 1),
            6: (3, 2, 1),
            8: (2, 2, 2),
            12: (3, 2, 2),
        }
        rows = []
        for n_atoms, shape in shapes.items():
            pos = cubic_lattice(shape, spacing_um=1.0)
            alpha = (3.0 * n_atoms) ** -2.5
            omega = 500.0 * alpha
            t_end = 80.0 / (math.sqrt(n_atoms) * omega)
            times = np.linspace(0.0, t_end, 600)
            model = ExcitationModel(
                positions_um=pos,
                rabi_mhz=omega,
                c6_mhz_um6=500.0,
                max_excitations=min(n_atoms, 4),
            )
            dyn = simulate_exact(model, times)
            nbar = float(dyn.mean_excitations[times > 0.25 * t_end].mean())
            # the cluster behaves as one collective two-level system
            assert nbar == pytest.approx(0.5, abs=0.02)
            rows.append((alpha, nbar / n_atoms))
        arr = np.array(rows)
        loga, logf = np.log(arr[:, 0]), np.log(arr[:, 1])
        assert (loga.max() - loga.min()) / math.log(10) > 2.0
        slope, intercept = np.polyfit(loga, logf, 1)
        assert slope == pytest.approx(0.4, abs=0.04)
        assert slope == pytest.approx(0.399720, abs=1e-3)
        assert math.exp(intercept) == pytest.approx(
            ens.SATURATED_FRACTION_PREFACTOR, rel=1e-3
        )


def triangle_positions(side_um):
    r_circ = side_um / math.sqrt(3.0)
    return np.array(
        [
            [math.cos(a) * r_circ, math.sin(a) * r_circ, 0.0]
            for a in (
                math.pi / 2,
                math.pi / 2 + 2 * math.pi / 3,
                math.pi / 2 + 4 * math.pi / 3,
            )
        ]
    )


def effective_kernel_p3(rabi_mhz, vmat, times):
    """Oracle: second-order effective dynamics on the zero-shift kernel."""
    h_full = ens._triple_exchange_hamiltonian(rabi_mhz, vmat)
    h_int = ens._triple_exchange_hamiltonian(0.0, vmat)
    h_drive = h_full - h_int
    w, u = np.linalg.eigh(h_int)
    zero = np.abs(w) < 1e-9
    p = u[:, zero]
    q = u[:, ~zero]
    green = q @ np.diag(-1.0 / w[~zero]) @ q.T
    h_eff = p.T @ h_drive @ p + p.T @ h_drive @ green @ h_drive @ p
    we, ue = np.linalg.eigh(h_eff)
    ground = np.zeros(64)
    ground[0] = 1.0
    c0 = ue.T @ (p.T @ ground)
    counts = ens._excited_count_vector()
    tri_weight = (p[counts == 3, :] ** 2).sum(axis=0)
    return np.array(
        [
            float(np.abs(ue @ (np.exp(-1j * we * t) * c0)) ** 2 @ tri_weight)
            for t in times
        ]
    )


class TestTripleExchange:
    def test_excited_counts_match_product_loop(self):
        # state index l0 * 16 + l1 * 4 + l2 over levels (g, p, s, s')
        levels = itertools.product(range(4), repeat=3)
        expected = [sum(level > 0 for level in state) for state in levels]
        counts = ens._excited_count_vector()
        assert counts.dtype.kind == "i" and counts.tolist() == expected

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_hamiltonian_matches_kron_embedding(self, seed):
        # oracle: one-atom operators embedded by np.kron, summed term by term
        rng = np.random.default_rng(seed)
        rabi, v = rng.uniform(0.1, 2.0), rng.normal(size=(3, 3))
        vmat = ens._as_exchange_matrix(v + v.T)
        eye = np.eye(4)

        def embed(op, atom):
            mats = [eye, eye, eye]
            mats[atom] = op
            return np.kron(np.kron(mats[0], mats[1]), mats[2])

        def ket_bra(a, b):
            op = np.zeros((4, 4))
            op[a, b] = 1.0
            return op

        expected = np.zeros((64, 64))
        drive = 0.5 * (ket_bra(0, 1) + ket_bra(1, 0))
        for atom in range(3):
            expected += 2 * math.pi * rabi * embed(drive, atom)
        for i, j in itertools.combinations(range(3), 2):
            for a, b in ((2, 3), (3, 2)):
                op = embed(ket_bra(a, 1), i) @ embed(ket_bra(b, 1), j)
                expected += 2 * math.pi * vmat[i, j] * (op + op.T)
        assert np.array_equal(ens._triple_exchange_hamiltonian(rabi, vmat), expected)

    def test_hamiltonian_built_once(self, monkeypatch):
        # the zero-shift count reads the triple block of the driven H: the
        # drive only turns g into p, so it has no entry there
        built = []
        original = ens._triple_exchange_hamiltonian

        def counted(rabi_mhz, exchange_matrix_mhz):
            built.append(rabi_mhz)
            return original(rabi_mhz, exchange_matrix_mhz)

        monkeypatch.setattr(ens, "_triple_exchange_hamiltonian", counted)
        vmat = axial_exchange_couplings_mhz(triangle_positions(1.0), 5.0)
        dyn = simulate_triple_exchange(0.12, vmat, np.linspace(0.0, 1.0, 3))
        assert built == [0.12]
        assert dyn.zero_shift_triple_dimension == 13

    def test_angular_coupling_values(self):
        vmat = axial_exchange_couplings_mhz(
            triangle_positions(1.0), c3_mhz_um3=5.0, axis=(1.0, 0.0, 0.0)
        )
        # side along the axis: 1 - 3cos^2(0) = -2; the other two sides sit
        # at 60 degrees: 1 - 3/4 = 1/4
        assert vmat[1, 2] == pytest.approx(-10.0, rel=1e-12)
        assert vmat[0, 1] == pytest.approx(1.25, rel=1e-12)
        assert vmat[0, 2] == pytest.approx(1.25, rel=1e-12)
        assert np.allclose(vmat, vmat.T)
        assert np.allclose(np.diag(vmat), 0.0)

    def test_angular_coupling_magic_angle_and_distance(self):
        magic = math.degrees(math.acos(1.0 / math.sqrt(3.0)))
        pos = [[0.0, 0.0, 0.0],
               [2.0 * math.cos(math.radians(magic)),
                2.0 * math.sin(math.radians(magic)), 0.0]]
        vmat = axial_exchange_couplings_mhz(pos, 8.0, axis=(1.0, 0.0, 0.0))
        assert vmat[0, 1] == pytest.approx(0.0, abs=1e-12)
        perp = axial_exchange_couplings_mhz(
            [[0.0, 0.0, 0.0], [0.0, 2.0, 0.0]], 8.0, axis=(1.0, 0.0, 0.0)
        )
        assert perp[0, 1] == pytest.approx(8.0 / 2.0**3, rel=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_positions_rejected_by_couplings(self, bad):
        # a nan coordinate gave nan couplings, which simulate_triple_exchange
        # then rejected as "must be symmetric"
        with pytest.raises(ValueError, match="positions_um must be finite"):
            axial_exchange_couplings_mhz([[0.0, 0.0, 0.0], [1.0, 0.0, bad], [0.0, 2.0, 0.0]], 5.0)

    @pytest.mark.parametrize("c3", [math.nan, math.inf, -math.inf])
    def test_angular_coupling_needs_finite_c3(self, c3):
        # a nan c3 gave nan couplings
        with pytest.raises(ValueError, match="c3_mhz_um3"):
            axial_exchange_couplings_mhz(triangle_positions(1.0), c3)

    def test_angular_coupling_validation(self):
        for axis in ((0.0, 0.0, 0.0), (math.nan, 0.0, 1.0), (math.inf, 0.0, 0.0)):
            with pytest.raises(ValueError, match="axis"):
                axial_exchange_couplings_mhz(triangle_positions(1.0), 5.0, axis=axis)
        # either sign of c3 is a coupling
        assert np.array_equal(
            axial_exchange_couplings_mhz(triangle_positions(1.0), -5.0),
            -axial_exchange_couplings_mhz(triangle_positions(1.0), 5.0),
        )
        with pytest.raises(ValueError, match="coincident"):
            axial_exchange_couplings_mhz(
                [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]], 5.0
            )

    def test_input_validation(self):
        times = np.linspace(0.0, 1.0, 5)
        with pytest.raises(ValueError):
            simulate_triple_exchange(0.0, 10.0, times)
        # an infinite drive gave all-nan probabilities
        with pytest.raises(ValueError, match="rabi_mhz must be finite"):
            simulate_triple_exchange(math.inf, 1.0, [0.0, 1.0])
        with pytest.raises(ValueError):
            simulate_triple_exchange(1.0, 0.0, times)
        with pytest.raises(ValueError, match="shape"):
            simulate_triple_exchange(1.0, np.ones((2, 2)), times)
        with pytest.raises(ValueError, match="symmetric"):
            simulate_triple_exchange(
                1.0, np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0],
                               [2.5, 3.0, 0.0]]), times
            )
        # allclose accepted this matrix, whose lower triangle the
        # Hamiltonian never reads
        with pytest.raises(ValueError, match="symmetric"):
            simulate_triple_exchange(
                1.0, np.array([[0.0, 1.0, 2.0], [1.000001, 0.0, 3.0], [2.0, 3.0, 0.0]]), times
            )

    @pytest.mark.parametrize(
        "exchange", [np.nan, np.inf, -np.inf, "entry"], ids=["nan", "inf", "-inf", "entry"]
    )
    def test_non_finite_exchange_rejected(self, exchange):
        # a scalar nan failed in eigh (LinAlgError), a nan (3, 3) entry was
        # reported as "must be symmetric"
        if exchange == "entry":
            exchange = np.ones((3, 3))
            exchange[0, 2] = exchange[2, 0] = np.nan
        with pytest.raises(ValueError, match="exchange_mhz must be finite"):
            simulate_triple_exchange(1.0, exchange, np.linspace(0.0, 1.0, 5))

    def test_all_zero_matrix_rejected(self):
        # as for the scalar 0, no triple state would be shifted; the
        # diagonal is ignored, so it cannot make the couplings nonzero
        times = np.linspace(0.0, 1.0, 5)
        with pytest.raises(ValueError, match="couple at least one pair"):
            simulate_triple_exchange(1.0, np.zeros((3, 3)), times)
        with pytest.raises(ValueError, match="couple at least one pair"):
            simulate_triple_exchange(1.0, np.eye(3), times)
        one_pair = np.zeros((3, 3))
        one_pair[0, 1] = one_pair[1, 0] = 10.0
        out = simulate_triple_exchange(1.0, one_pair, times)
        assert np.array_equal(
            out.pair_shifts_mhz, [math.sqrt(2.0) * 10.0, 0.0, 0.0]
        )

    def test_scalar_matches_uniform_matrix(self):
        times = np.linspace(0.0, 5.0, 50)
        scalar = simulate_triple_exchange(0.4, 10.0, times)
        mat = np.full((3, 3), 10.0)
        matrix = simulate_triple_exchange(0.4, mat, times)
        assert np.allclose(
            scalar.excitation_probabilities,
            matrix.excitation_probabilities,
            atol=1e-12,
        )

    def test_pair_shift_helper(self):
        assert triple_exchange_pair_shift_mhz(10.0) == pytest.approx(
            math.sqrt(2.0) * 10.0, rel=1e-12
        )
        assert triple_exchange_pair_shift_mhz(-10.0) == pytest.approx(
            math.sqrt(2.0) * 10.0, rel=1e-12
        )

    def test_unequal_couplings_break_two_photon_blockade(self):
        vmat = axial_exchange_couplings_mhz(
            triangle_positions(1.0), 5.0, axis=(1.0, 0.0, 0.0)
        )
        results = {}
        for rabi in (0.12, 0.06):
            times = np.linspace(0.0, 60.0 / rabi, 6000)
            out = simulate_triple_exchange(rabi, vmat, times)
            results[rabi] = out
            shift_min = out.pair_shifts_mhz.min()
            scale = rabi**2 / shift_min**2
            # triple population of order (drive / smallest pair shift)^2
            assert 0.5 < out.max_triple_population / scale < 1.2
            # while each pair stays blockaded at the same order
            assert out.excitation_probabilities[:, 2].max() < 3 * scale
            # unitary: probabilities stay normalized
            sums = out.excitation_probabilities.sum(axis=1)
            assert np.abs(sums - 1.0).max() < 1e-8
        strong = results[0.12]
        assert strong.max_triple_population == pytest.approx(
            0.0038381965, rel=1e-5
        )
        assert np.allclose(
            strong.pair_shifts_mhz,
            math.sqrt(2.0) * np.array([1.25, 1.25, 10.0]),
            rtol=1e-9,
        )
        quadratic_ratio = (
            strong.max_triple_population
            / results[0.06].max_triple_population
        )
        assert quadratic_ratio == pytest.approx(4.0, rel=0.05)

    def test_effective_kernel_oracle_cross_check(self):
        vmat = axial_exchange_couplings_mhz(
            triangle_positions(1.0), 5.0, axis=(1.0, 0.0, 0.0)
        )
        rabi = 0.12
        times = np.linspace(0.0, 60.0 / rabi, 6000)
        exact = simulate_triple_exchange(rabi, vmat, times)
        oracle = effective_kernel_p3(rabi, vmat, times[::10])
        ratio = oracle.max() / exact.max_triple_population
        assert 0.65 < ratio < 0.95

    def test_equal_couplings_keep_blockade(self):
        times = np.linspace(0.0, 120.0, 6000)
        out = simulate_triple_exchange(0.5, 10.0, times)
        scale = 0.5**2 / (math.sqrt(2.0) * 10.0) ** 2
        assert out.max_triple_population == pytest.approx(
            1.652e-07, rel=1e-3
        )
        # fourth order in the drive, far below the broken-symmetry level
        assert out.max_triple_population < 1e-3 * scale
        assert out.excitation_probabilities[:, 2].max() == pytest.approx(
            scale, rel=0.1
        )

    def test_zero_shift_subspace_reported(self):
        times = np.linspace(0.0, 1.0, 3)
        sym = simulate_triple_exchange(0.5, 10.0, times)
        assert sym.zero_shift_triple_dimension == 13
        vmat = axial_exchange_couplings_mhz(
            triangle_positions(1.0), 5.0, axis=(1.0, 0.0, 0.0)
        )
        asym = simulate_triple_exchange(0.12, vmat, times)
        assert asym.zero_shift_triple_dimension == 13


class TestCountingStatistics:
    def test_constant_samples(self):
        assert mandel_q([4, 4, 4, 4]) == pytest.approx(-1.0, abs=1e-12)

    def test_poisson_samples_near_zero(self):
        rng = np.random.default_rng(123)
        q = mandel_q(rng.poisson(3.0, size=100_000))
        assert abs(q) < 0.01

    @pytest.mark.parametrize("samples", [[0, 0, 0], [1.0, math.nan], [2.0, -math.inf]])
    def test_mean_must_be_positive(self, samples):
        # a nan sample returned q = nan
        with pytest.raises(ValueError, match="mean of samples must be positive"):
            mandel_q(samples)

    def test_validation(self):
        with pytest.raises(ValueError):
            mandel_q([3])
        with pytest.raises(ValueError):
            mandel_q([0, 0, 0])

    def test_from_samples_consistency(self):
        stats = CountingStatistics.from_samples([0, 1, 2, 1, 0, 1])
        samples = np.array([0, 1, 2, 1, 0, 1], dtype=float)
        assert stats.mean == pytest.approx(samples.mean(), rel=1e-12)
        assert stats.variance == pytest.approx(
            samples.var(ddof=1), rel=1e-12
        )
        assert stats.q == pytest.approx(
            samples.var(ddof=1) / samples.mean() - 1.0, rel=1e-12
        )
        assert stats.variance >= 0.0
        assert stats.q >= -1.0

    @pytest.mark.parametrize("samples", [[math.nan, 1], [-1, -1], [3.0]])
    def test_from_samples_needs_two_finite_non_negative_samples(self, samples):
        # [nan, 1] gave nan statistics, [-1, -1] a mean of -1, and [3.0] a
        # numpy degrees-of-freedom warning and a nan variance
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="samples"):
                CountingStatistics.from_samples(samples)

    @pytest.mark.parametrize("samples", [[[1, 2], [3, 5]], [[1, 2]]])
    def test_samples_must_be_one_dimensional(self, samples):
        # both pooled the entries: q 0.0606 and -0.667
        with pytest.raises(ValueError, match="samples must be 1-D"):
            CountingStatistics.from_samples(samples)
        with pytest.raises(ValueError, match="samples must be 1-D"):
            mandel_q(samples)

    def test_from_samples_all_zero(self):
        stats = CountingStatistics.from_samples([0, 0, 0])
        assert stats.mean == 0.0
        assert math.isnan(stats.q)

    @given(
        st.lists(st.integers(min_value=0, max_value=30), min_size=2,
                 max_size=40).filter(lambda s: sum(s) > 0)
    )
    @settings(max_examples=120, deadline=None)
    def test_q_bounded_below(self, samples):
        assert mandel_q(samples) >= -1.0 - 1e-12

    def test_binomial_thinning_scales_q(self):
        rng = np.random.default_rng(77)
        samples = rng.binomial(8, 0.6, size=100_000)
        q_full = mandel_q(samples)
        assert q_full == pytest.approx(-0.6, abs=0.01)
        thinned = thin_counts(samples, 0.4, seed_or_rng=3)
        q_thin = mandel_q(thinned)
        assert q_thin == pytest.approx(0.4 * q_full, abs=0.02)

    @pytest.mark.parametrize("samples", [[2.7, 3.2], [math.nan, 2], [math.inf, 2], [-1, 2]])
    def test_thinning_needs_finite_non_negative_whole_counts(self, samples):
        # [2.7, 3.2] thinned [2, 3]; nan warned in the cast; -1 failed in numpy
        with pytest.raises(ValueError, match="samples must be finite, non-negative whole"):
            thin_counts(samples, 0.5, seed_or_rng=1)

    @pytest.mark.parametrize("samples", [[1, math.inf], [-1, 3]])
    def test_mandel_q_needs_finite_non_negative_samples(self, samples):
        # [1, inf] warned in the variance; [-1, 3] returned 7.0
        with pytest.raises(ValueError, match="samples must be finite, non-negative"):
            mandel_q(samples)

    def test_thinning_validation_and_identity(self):
        with pytest.raises(ValueError):
            thin_counts([1, 2], 0.0, seed_or_rng=1)
        with pytest.raises(ValueError):
            thin_counts([1, 2], 1.5, seed_or_rng=1)
        samples = np.array([3, 1, 4, 1, 5])
        assert np.array_equal(
            thin_counts(samples, 1.0, seed_or_rng=1), samples
        )
        a = thin_counts(samples, 0.5, seed_or_rng=9)
        b = thin_counts(samples, 0.5, seed_or_rng=9)
        assert np.array_equal(a, b)
        assert np.all(a <= samples)


class TestKineticMonteCarlo:
    def test_input_validation(self):
        model = ExcitationModel(
            positions_um=[[0.0, 0.0, 0.0]],
            rabi_mhz=1.0,
            interaction_mhz=np.zeros((1, 1)),
        )
        with pytest.raises(ValueError):
            kinetic_monte_carlo(model, 0.0, [1.0], trials=2, seed=1)
        with pytest.raises(ValueError):
            kinetic_monte_carlo(model, 1.0, [1.0], trials=0, seed=1)
        with pytest.raises(ValueError):
            kinetic_monte_carlo(model, 1.0, [1.0], trials=1, seed=1)
        with pytest.raises(ValueError):
            kinetic_monte_carlo(model, 1.0, [2.0, 1.0], trials=2, seed=1)
        with pytest.raises(ValueError):
            kinetic_monte_carlo(model, 1.0, [-1.0], trials=2, seed=1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_times_rejected(self, bad):
        # a non-finite grid point is never passed, so the event loop
        # would never end
        model = ExcitationModel(
            positions_um=cubic_lattice((3, 1, 1), 1.0),
            rabi_mhz=0.5,
            c6_mhz_um6=10.0,
        )
        with pytest.raises(ValueError, match="finite"):
            kinetic_monte_carlo(model, 2.0, [0.0, bad], trials=2, seed=1)

    @pytest.mark.parametrize("gamma_mhz", [0.0, math.nan, math.inf])
    def test_linewidth_must_be_finite_and_positive(self, gamma_mhz):
        model = ExcitationModel(
            positions_um=cubic_lattice((3, 1, 1), 1.0), rabi_mhz=1.0, c6_mhz_um6=10.0
        )
        with pytest.raises(ValueError, match="gamma_mhz must be finite and positive"):
            kinetic_monte_carlo(model, gamma_mhz, [0.0, 1.0], trials=2, seed=1)

    def test_non_finite_rates_rejected(self):
        # gamma = inf made every rate nan and returned all-zero
        # trajectories; a drive of 1e160 MHz overflows the rate total to
        # inf, every wait is 0 and the event loop never ended
        model = ExcitationModel(
            positions_um=cubic_lattice((3, 1, 1), 1.0),
            rabi_mhz=1.0,
            c6_mhz_um6=10.0,
        )
        with pytest.raises(ValueError, match="gamma_mhz"):
            kinetic_monte_carlo(model, np.inf, [0.0, 1.0], trials=2, seed=1)
        loud = ExcitationModel(
            positions_um=cubic_lattice((3, 1, 1), 1.0),
            rabi_mhz=1e160,
            c6_mhz_um6=10.0,
        )
        # the ValueError comes before any overflow warning of the rates
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="rate total"):
                kinetic_monte_carlo(loud, 1.0, [0.0, 1.0], trials=2, seed=1)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_huge_linewidth_gives_zero_rates(self):
        # Gamma^2 overflows to inf, so every rate is 0: exact to double
        # precision, since the true rate is about Omega^2 / Gamma ~ 1e-159 /us
        model = ExcitationModel(
            positions_um=cubic_lattice((3, 1, 1), 1.0),
            rabi_mhz=1.0,
            c6_mhz_um6=10.0,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = kinetic_monte_carlo(model, 1e160, [0.0, 1.0], trials=2, seed=1)
        assert np.array_equal(result.trajectories, np.zeros((2, 2), dtype=np.int64))

    def test_lorentzian_rate_arithmetic(self):
        model = ExcitationModel(
            positions_um=[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
            rabi_mhz=[0.4, 0.6],
            detuning_mhz=[0.2, -0.1],
            c6_mhz_um6=10.0,
        )
        v = model.pair_shift_matrix_mhz()
        rates = ens._lorentzian_rates(model, gamma_mhz=2.0)(
            v @ np.array([1.0, 0.0])
        )
        two_pi = 2 * math.pi
        for i, shift in enumerate((0.0, 10.0)):
            omega = two_pi * model.rabi_mhz[i]
            gamma = two_pi * 2.0
            det = two_pi * (model.detuning_mhz[i] - shift)
            expected = omega**2 * gamma / (gamma**2 + 4 * det**2)
            assert rates[i] == pytest.approx(expected, rel=1e-12)

    def test_stacked_rates_use_each_row_shift(self):
        # row b of the rates of a (B, N) stack of shifts excited @ v.T must
        # use v @ excited[b], and write into out when it is given; the
        # perturbation is symmetric, as interaction_mhz must be exactly
        rng = np.random.default_rng(8)
        pos = cubic_lattice((3, 2, 2), 1.0)
        v = ExcitationModel(positions_um=pos, rabi_mhz=0.5, c6_mhz_um6=50.0)
        noise = rng.random((12, 12))
        v = v.pair_shift_matrix_mhz() * (1.0 + 1e-6 * (noise + noise.T))
        model = ExcitationModel(
            positions_um=pos, rabi_mhz=0.5, detuning_mhz=0.3, interaction_mhz=v
        )
        excited = (rng.random((5, 12)) < 0.4).astype(float)
        shifts = excited @ model.pair_shift_matrix_mhz().T
        out = np.empty_like(shifts)
        rates = ens._lorentzian_rates(model, 2.0)(shifts, out=out)
        assert rates is out
        two_pi = 2 * math.pi
        for row, got in zip(excited, rates):
            det = two_pi * (0.3 - model.pair_shift_matrix_mhz() @ row)
            expected = (two_pi * 0.5) ** 2 * two_pi * 2.0 / (
                (two_pi * 2.0) ** 2 + 4 * det**2
            )
            assert np.allclose(got, expected, rtol=1e-12, atol=0.0)

    def test_single_trial_rejected_before_simulating(self):
        # one sample has no variance: this seed ends with no excitation
        # and would report variance = q = nan, other seeds raise late
        model = ExcitationModel(
            positions_um=cubic_lattice((3, 1, 1), 1.0),
            rabi_mhz=0.5,
            c6_mhz_um6=10.0,
            max_excitations=3,
        )
        with pytest.raises(ValueError, match="trials"):
            kinetic_monte_carlo(model, 5.0, [0.0, 5.0], trials=1, seed=3)

    @pytest.mark.parametrize("trials", [2.5, 3.5, math.nan, math.inf])
    def test_trials_must_be_a_whole_number(self, trials):
        # 2.5 raised numpy's TypeError from SeedSequence.spawn
        model = ExcitationModel(
            positions_um=cubic_lattice((3, 1, 1), 1.0), rabi_mhz=0.5, c6_mhz_um6=10.0
        )
        with pytest.raises(ValueError, match="trials must be a whole number >= 2"):
            kinetic_monte_carlo(model, 5.0, [0.0, 5.0], trials=trials, seed=3)

    def test_trials_take_integral_floats(self):
        model = ExcitationModel(
            positions_um=cubic_lattice((3, 1, 1), 1.0), rabi_mhz=0.5, c6_mhz_um6=10.0
        )
        runs = [kinetic_monte_carlo(model, 5.0, [0.0, 5.0], trials=t, seed=3) for t in (3, 3.0)]
        assert np.array_equal(runs[0].trajectories, runs[1].trajectories)

    def test_independent_atoms_poissonian(self):
        pos = cubic_lattice((10, 1, 1), 1.0)
        model = ExcitationModel(
            positions_um=pos,
            rabi_mhz=0.2,
            interaction_mhz=np.zeros((10, 10)),
            max_excitations=10,
        )
        gamma = 4.0
        k_rate = (2 * math.pi * 0.2) ** 2 / (2 * math.pi * gamma)
        t_pulse = 0.01 / k_rate
        res = kinetic_monte_carlo(
            model, gamma_mhz=gamma, times_us=[t_pulse], trials=8000, seed=42
        )
        assert abs(res.statistics.q) < 3 * math.sqrt(2.0 / 8000)
        assert res.statistics.q == pytest.approx(-0.0139, abs=5e-4)
        assert res.statistics.mean == pytest.approx(0.1060, abs=5e-4)

    def test_blockaded_cluster_sub_poissonian(self):
        model = ExcitationModel(
            positions_um=cubic_lattice((3, 2, 2), 1.0),
            rabi_mhz=0.5,
            c6_mhz_um6=500.0,
            max_excitations=12,
        )
        res = kinetic_monte_carlo(
            model,
            gamma_mhz=2.0,
            times_us=np.linspace(0.0, 6.0, 13),
            trials=2000,
            seed=11,
        )
        assert res.statistics.q < -0.3
        assert res.statistics.q == pytest.approx(-0.7717, abs=5e-4)
        assert res.statistics.mean == pytest.approx(1.3595, abs=2e-3)
        assert np.all(res.trajectories >= 0)
        assert np.all(res.trajectories <= 12)
        # thinning the recorded counts dilutes the sub-Poissonian signal
        thinned = thin_counts(res.statistics.samples, 0.4, seed_or_rng=3)
        assert mandel_q(thinned) == pytest.approx(
            0.4 * res.statistics.q, abs=0.06
        )

    def test_densification_deepens_antibunching(self):
        qs = {}
        for n in (4, 20):
            pos = uniform_box_positions(
                n,
                (6.0, 6.0, 6.0),
                seed_or_rng=5,
                min_separation_um=2.5 if n == 4 else 0.4,
            )
            model = ExcitationModel(
                positions_um=pos,
                rabi_mhz=0.5,
                c6_mhz_um6=200.0,
                max_excitations=n,
            )
            res = kinetic_monte_carlo(
                model, gamma_mhz=2.0, times_us=[6.0], trials=2000, seed=13
            )
            qs[n] = res.statistics.q
        assert qs[4] == pytest.approx(-0.4819, abs=5e-4)
        assert qs[20] == pytest.approx(-0.6133, abs=5e-4)
        assert qs[20] < qs[4] - 0.05

    def test_seeded_bitwise_reproducibility(self):
        model = ExcitationModel(
            positions_um=cubic_lattice((3, 2, 2), 1.0),
            rabi_mhz=0.5,
            c6_mhz_um6=500.0,
            max_excitations=12,
        )
        times = np.linspace(0.0, 6.0, 13)
        a = kinetic_monte_carlo(model, 2.0, times, trials=80, seed=11)
        b = kinetic_monte_carlo(model, 2.0, times, trials=80, seed=11)
        c = kinetic_monte_carlo(model, 2.0, times, trials=80, seed=12)
        assert np.array_equal(a.trajectories, b.trajectories)
        assert a.statistics.q == b.statistics.q
        assert not np.array_equal(a.trajectories, c.trajectories)

    def test_pick_below_the_normal_range_has_a_positive_rate(self):
        # below 2^-1021, u * total rounds up to total for u = 1 - 2^-53: an
        # unguarded table > u * total finds no entry and picks atom 0
        table = np.cumsum([[0.0, 4e-321, 1e-321, 0.0]], axis=1)
        u = np.array([1.0 - 2.0**-53])
        assert u * table[:, -1] == table[:, -1]
        assert ens._direct_pick(table, u).tolist() == [2]

    @given(
        rates=st.lists(
            st.one_of(st.just(0.0), st.floats(1e-3, 1.0)), min_size=1, max_size=12
        ).filter(any),
        log_total=st.floats(-320.0, 300.0),
        u=st.one_of(st.floats(0.0, 1.0, exclude_max=True), st.just(1.0 - 2.0**-53)),
    )
    @example(rates=[0.0, 0.8, 0.2, 0.0], log_total=math.log10(5e-321), u=1.0 - 2.0**-53)
    @settings(max_examples=300, deadline=None)
    def test_pick_matches_the_normalized_cdf(self, rates, log_total, u):
        # the direct method on raw cumulative rates against the normalized
        # cdf rng.choice forms, away from ties; at any u the atom has a
        # positive rate
        rates = np.array(rates) * (10.0**log_total / sum(rates))
        total = rates.sum()
        assume(total > 0)
        atom = ens._direct_pick(np.cumsum(rates)[None], np.array([u]))[0]
        assert rates[atom] > 0
        cdf = np.cumsum(rates / total)
        cdf /= cdf[-1]
        # u * total rounds to a multiple of 2^-1074, coarse for a tiny total
        if np.abs(cdf - u).min() > 1e-12 + 2.0**-1073 / total:
            assert atom == np.searchsorted(cdf, u, "right")

    def test_draw_matches_rng_choice_oracle(self):
        model = ExcitationModel(
            positions_um=uniform_box_positions(
                8, (3.0, 3.0, 3.0), seed_or_rng=4, min_separation_um=0.5
            ),
            rabi_mhz=np.linspace(0.3, 0.9, 8),
            detuning_mhz=np.linspace(-0.5, 0.5, 8),
            c6_mhz_um6=50.0,
        )
        times = np.linspace(0.0, 5.0, 11)
        res = kinetic_monte_carlo(model, 2.0, times, trials=60, seed=21)
        oracle = choice_kmc_oracle(model, 2.0, times, trials=60, seed=21)
        assert np.array_equal(res.trajectories, oracle)
        assert oracle[:, -1].std() > 0

    @pytest.mark.parametrize(
        "name, seed",
        [
            ("benchmark_shaped", 1),
            ("benchmark_shaped", 2),
            ("facilitated_chain", 3),
            ("zero_rabi", 4),
            ("near_symmetric", 5),
            ("mixed_sign", 6),
            ("zero_coupling", 7),
        ],
    )
    def test_lockstep_matches_per_trial_oracle(self, name, seed):
        model, gamma, times, trials = lockstep_oracle_case(name, seed)
        res = kinetic_monte_carlo(model, gamma, times, trials, seed)
        oracle = per_trial_kmc_oracle(model, gamma, times, trials, seed)
        assert np.array_equal(res.trajectories, oracle)
        if name == "zero_rabi":
            assert not oracle.any()
        else:
            assert oracle[:, -1].std() > 0

    @pytest.mark.parametrize(
        "name, seed",
        [("benchmark_shaped", 1), ("mixed_sign", 6), ("near_symmetric", 5)],
    )
    def test_running_shifts_equal_the_product(self, name, seed):
        # one coupling column added or subtracted per flip keeps the bits of
        # excited @ v_r.T; _RunningShifts takes any v, and near_symmetric
        # gets one with v != v.T here, so a column is not a row
        model = lockstep_oracle_case(name, seed)[0]
        v = model.pair_shift_matrix_mhz()
        if name == "near_symmetric":
            v = v + 1e-10 * np.random.default_rng(seed).normal(size=v.shape)
        state = ens._RunningShifts(v, 8)
        e, v_r = state.exponent, state.couplings
        # e = ceil(log2 max_i sum_j |v_ij|) - 52, v_r on the grid of 2^e
        scale = np.abs(v).sum(axis=1).max()
        assert np.ldexp(1.0, e + 51) < scale <= np.ldexp(1.0, e + 52)
        units = np.ldexp(v_r, -e)
        assert np.array_equal(units, np.rint(units))
        assert np.all(np.abs(v_r - v) <= np.ldexp(1.0, e - 1))
        rng = np.random.default_rng(seed)
        for step in range(400):
            if step == 200:
                state.keep(np.array([True, False, True, True, False, True, True, True]))
            state.flip(rng.integers(model.n_atoms, size=state.shifts.shape[0]))
            assert np.array_equal(state.shifts, state.excited @ v_r.T)
        assert 0.3 < state.excited.mean() < 0.7
        if name == "near_symmetric":
            assert not np.array_equal(state.shifts, state.excited @ v_r)

    def test_coupling_row_sum_must_be_finite(self, monkeypatch):
        # each coupling is finite, but the middle atom's row sums to 2e308:
        # the running shifts could leave the float range. No generator is
        # made before the check.
        model = ExcitationModel(
            positions_um=cubic_lattice((3, 1, 1), 1.0), rabi_mhz=0.5, c6_mhz_um6=1e308
        )

        def no_generator(*args):
            raise AssertionError("a generator was made before the check")

        monkeypatch.setattr(np.random, "default_rng", no_generator)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="row sums must be finite"):
                kinetic_monte_carlo(model, 2.0, [0.0, 1.0], trials=2, seed=1)

    @pytest.mark.parametrize("unit", [0.0, 5e-324])
    def test_zero_and_subnormal_couplings(self, unit):
        # e = -52 for zero couplings and -1121 for these subnormal ones,
        # where 2.0**e underflows to 0: neither divides by zero or warns,
        # and shifts far below every detuning leave the trajectories alone
        pattern = np.add.outer(np.arange(10), np.arange(10)) % 4
        v = unit * pattern
        state = ens._RunningShifts(v, 2)
        assert np.array_equal(state.couplings, v)
        times = np.linspace(0.0, 20.0, 11)

        def run(interaction):
            model = ExcitationModel(
                positions_um=cubic_lattice((10, 1, 1), 1.0),
                rabi_mhz=0.2,
                interaction_mhz=interaction,
                max_excitations=10,
            )
            return kinetic_monte_carlo(model, 4.0, times, trials=40, seed=7)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run(v)
        assert np.array_equal(result.trajectories, run(np.zeros((10, 10))).trajectories)
        assert result.trajectories[:, -1].std() > 0

    def test_per_trial_streams_independent_of_total(self):
        model = ExcitationModel(
            positions_um=cubic_lattice((3, 2, 2), 1.0),
            rabi_mhz=0.5,
            c6_mhz_um6=500.0,
            max_excitations=12,
        )
        times = np.linspace(0.0, 6.0, 13)
        small = kinetic_monte_carlo(model, 2.0, times, trials=50, seed=11)
        large = kinetic_monte_carlo(model, 2.0, times, trials=200, seed=11)
        assert np.array_equal(
            small.trajectories, large.trajectories[:50]
        )

    @pytest.mark.parametrize(
        "name, seed",
        [
            ("benchmark_shaped", 1),
            ("benchmark_shaped", 2),
            ("facilitated_chain", 3),
            ("zero_rabi", 4),
            ("near_symmetric", 5),
            ("mixed_sign", 6),
            ("zero_coupling", 7),
        ],
    )
    def test_events_match_per_trial_oracle(self, name, seed):
        model, gamma, times, trials = lockstep_oracle_case(name, seed)
        res = kinetic_monte_carlo(model, gamma, times, trials, seed)
        events = np.zeros(trials, dtype=np.int64)
        per_trial_kmc_oracle(model, gamma, times, trials, seed, events=events)
        assert res.events.dtype == np.int64
        assert np.array_equal(res.events, events)
        if name == "zero_rabi":
            assert not res.events.any()
        else:
            assert res.events.min() > 0

    def test_events_independent_of_total(self):
        model, gamma, times, _ = lockstep_oracle_case("facilitated_chain", 3)
        small = kinetic_monte_carlo(model, gamma, times, trials=10, seed=3)
        large = kinetic_monte_carlo(model, gamma, times, trials=40, seed=3)
        assert np.array_equal(small.events, large.events[:10])
        # some trials outlast a block of events, many end after one event
        assert large.events.max() > ens._BLOCK
        assert large.events.min() == 1

    @pytest.mark.parametrize("name, seed", [("facilitated_chain", 3), ("zero_rabi", 4)])
    def test_block_length_does_not_move_trajectories(self, monkeypatch, name, seed):
        # random(n) gives the doubles of n random() calls, so the block
        # length changes only how often a trial calls its generator
        model, gamma, times, trials = lockstep_oracle_case(name, seed)
        runs = []
        for block in (1, 3, ens._BLOCK):
            monkeypatch.setattr(ens, "_BLOCK", block)
            runs.append(kinetic_monte_carlo(model, gamma, times, trials, seed))
        for run in runs[1:]:
            assert np.array_equal(run.trajectories, runs[0].trajectories)
            assert np.array_equal(run.events, runs[0].events)


def cauchy_averaged_exact(model_kwargs, gamma_mhz, times, draws, seed):
    """Exact dynamics averaged over static Cauchy-distributed detunings.

    A Lorentzian line of half width gamma/2 reproduces the rate-equation
    growth once the coherence has built up (a delay of 1/(pi gamma)).
    """
    rng = np.random.default_rng(seed)
    mean = np.zeros(len(times))
    for _ in range(draws):
        det = rng.standard_cauchy(8) * gamma_mhz / 2.0
        model = ExcitationModel(detuning_mhz=det, **model_kwargs)
        mean += simulate_exact(model, times).mean_excitations
    return mean / draws


class TestRateEquationAgreement:
    def test_matches_disorder_averaged_exact_free_atoms(self):
        pos = cubic_lattice((8, 1, 1), 1.5)
        gamma = 8.0
        kwargs = dict(
            positions_um=pos,
            rabi_mhz=0.3,
            interaction_mhz=np.zeros((8, 8)),
            max_excitations=4,
        )
        times = np.linspace(0.1, 0.5, 9)
        exact = cauchy_averaged_exact(kwargs, gamma, times, draws=120,
                                      seed=2026)
        shifted = times - 1.0 / (math.pi * gamma)
        res = kinetic_monte_carlo(
            ExcitationModel(**kwargs),
            gamma_mhz=gamma,
            times_us=shifted,
            trials=4000,
            seed=99,
        )
        rel = np.abs(res.trajectories.mean(axis=0) - exact) / exact
        assert rel.max() < 0.2

    def test_matches_disorder_averaged_exact_blockaded(self):
        pos = cubic_lattice((8, 1, 1), 1.5)
        gamma = 8.0
        kwargs = dict(
            positions_um=pos,
            rabi_mhz=0.3,
            c6_mhz_um6=60.0,
            max_excitations=4,
        )
        times = np.linspace(0.1, 0.35, 6)
        exact = cauchy_averaged_exact(kwargs, gamma, times, draws=120,
                                      seed=2026)
        shifted = times - 1.0 / (math.pi * gamma)
        res = kinetic_monte_carlo(
            ExcitationModel(**kwargs),
            gamma_mhz=gamma,
            times_us=shifted,
            trials=4000,
            seed=99,
        )
        rel = np.abs(res.trajectories.mean(axis=0) - exact) / exact
        assert rel.max() < 0.2
