"""Blockade shift, overlap factors, and amplitude-equation integration.

Expected values were either computed analytically, taken from an exact
two-atom diagonalization oracle (full initial + coupled manifolds), or
frozen from converged runs of the released implementation.
"""

import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg

import rydtools.blockade as blockade_module
import rydtools.pair as pair_module
from rydtools import constants as cst, ensemble
from rydtools.angular import wigner_small_d
from rydtools.atoms import RydbergState
from rydtools.blockade import (
    KAPPA_WEIGHT_FLOOR,
    AmplitudeState,
    EnsembleGeometry,
    ExcitationField,
    _build_hamiltonian,
    _driven_states,
    _pair_spectra,
    blockade_shift,
    double_excitation_probability,
    effective_interaction_mhz,
    integrate_amplitudes,
    overlap_kappa,
    pair_state_basis,
    pair_state_count,
)
from rydtools.pair import (
    FORSTER_ZERO_FLOOR,
    ForsterChannel,
    ForsterEigensystem,
    _channel_shifts_mhz,
    _defects_mhz,
    _driven_index,
    _zeeman_diagonal,
    build_vdd,
    forster_eigensystem,
    s_state_channels,
)


def two_atoms(r_um, theta=0.0):
    """Atom pair separated by r_um with axis at angle theta from z."""
    return EnsembleGeometry(
        np.array(
            [[0.0, 0.0, 0.0], [r_um * math.sin(theta), 0.0, r_um * math.cos(theta)]]
        )
    )


def xy_ring(n, spacing_um):
    """n atoms on a ring in the xy plane, nearest-neighbour distance fixed."""
    ang = 2 * math.pi / n
    rad = spacing_um / (2 * math.sin(ang / 2))
    return EnsembleGeometry(
        np.array(
            [[rad * math.cos(i * ang), rad * math.sin(i * ang), 0.0] for i in range(n)]
        )
    )


def random_cloud(rng, n, side_um=12.0, min_separation_um=3.0):
    """n atoms uniform in a cube, redrawn until all pairs keep their distance."""
    points = []
    while len(points) < n:
        p = (rng.random(3) - 0.5) * side_um
        if all(np.linalg.norm(p - q) >= min_separation_um for q in points):
            points.append(p)
    return np.array(points)


def exact_two_atom_inv_b2(channels, theta, r_um, target_m=0.5):
    """Oracle: diagonalize the full two-atom Hamiltonian over the initial
    and all coupled Zeeman manifolds, then sum overlap/energy^2 directly."""
    mats = [build_vdd(ch, theta) for ch in channels]
    ni = mats[0].shape[1]
    dims_c = [m.shape[0] for m in mats]
    h = np.zeros((ni + sum(dims_c),) * 2)
    off = ni
    for ch, m, dc in zip(channels, mats, dims_c):
        v = ch.c3_mhz_um3 / r_um**3 * m
        h[off : off + dc, :ni] = v
        h[:ni, off : off + dc] = v.T
        h[off : off + dc, off : off + dc] = np.eye(dc) * ch.defect_mhz
        off += dc
    vals, vecs = np.linalg.eigh(h)
    j = channels[0].initial[0].j
    dj = round(2 * j) + 1
    idx = round(target_m + j) * dj + round(target_m + j)
    ov = np.abs(vecs[idx, :]) ** 2
    good = np.abs(vals) > 1e-12
    return float(np.sum(ov[good] / vals[good] ** 2))


def loop_zeeman_defects(ch, theta, vals, vecs, b_field_t):
    """Oracle: the per-vector Zeeman defects of a field along z, one Python
    loop over the lab-frame Gram eigenvectors vecs at pair angle theta."""
    defects = np.full(len(vals), ch.defect_mhz)
    if b_field_t == 0.0:
        return defects
    m = build_vdd(ch, theta)
    c1, c2 = ch.coupled
    coupled_diag = [_zeeman_diagonal((c1, c2))]
    if (c1.n, c1.l, c1.j) != (c2.n, c2.l, c2.j):
        coupled_diag.append(_zeeman_diagonal((c2, c1)))
    coupled_diag = np.concatenate(coupled_diag)
    initial_diag = _zeeman_diagonal(ch.initial)
    for k in range(len(vals)):
        shift = -float(initial_diag @ (vecs[:, k] ** 2))
        if vals[k] > FORSTER_ZERO_FLOOR:
            chi = m @ vecs[:, k]
            shift += float(coupled_diag @ (chi / np.linalg.norm(chi)) ** 2)
        defects[k] += cst.MU_B_MHZ_PER_T * b_field_t * shift
    return defects


def per_angle_eigensystem(channels, theta, b_field_t=0.0):
    """Oracle: each channel's Gram matrix diagonalized at theta itself, as
    forster_eigensystem did before it kept pair-frame vectors."""
    # the vectors are diagonalized at theta, so they are already in the lab
    # frame: theta = 0.0 keeps pair_state_basis from turning them again
    mats = [build_vdd(ch, theta) for ch in channels]
    vals, vecs = np.linalg.eigh(np.stack([m.T @ m for m in mats]))
    vals = np.clip(vals, 0.0, None)
    defects = [
        loop_zeeman_defects(ch, theta, d, v, b_field_t) for ch, d, v in zip(channels, vals, vecs)
    ]
    return ForsterEigensystem(
        channels=list(channels),
        theta=0.0,
        b_field_t=b_field_t,
        d_values=vals,
        vectors=vecs,
        forster_zero_count=int(np.sum(vals < FORSTER_ZERO_FLOOR)),
        defects_mhz=np.array(defects),
    )


def full_matrix_states(eig, field, r_um):
    """Oracle for a per_angle_eigensystem, whose lab-frame vectors have no
    definite M: (shifts, weights) from one eigh of the whole combined shift
    operator W = V diag(s) V^T, weights the driven state's |overlap|^2."""
    vectors = np.concatenate(eig.vectors, axis=1)
    s = _channel_shifts_mhz(eig, r_um, eig.defects_mhz).ravel()
    shifts, states = np.linalg.eigh((vectors * s) @ vectors.T)
    return shifts, states[_driven_index(eig, field.target_m)] ** 2


# full-matrix oracles (one eigh of the whole operator, no definite M) return
# degenerate shifts a rounding gap apart: their eigenspaces are runs of
# ascending values closer than this x max(1, |max|)
ORACLE_RTOL = 1e-9


def degenerate_groups(values):
    """Index arrays of runs of ascending values closer than ORACLE_RTOL x
    max(1, |max|)."""
    tol = ORACLE_RTOL * max(1.0, float(np.max(np.abs(values))))
    return np.split(np.arange(len(values)), np.flatnonzero(np.diff(values) > tol) + 1)


def exact_groups(shifts):
    """Oracle of _eigenspaces's rule, as a loop over one row's ascending
    shifts: a shift joins the open eigenspace if it equals the shift before
    it bit for bit, or if both are zero-shift states (|shift| at most 1e-12
    x max(1, |max|))."""
    zero_tol = 1e-12 * max(1.0, float(np.max(np.abs(shifts))))
    groups = []
    for p_idx, delta in enumerate(shifts):
        before = shifts[p_idx - 1]
        if groups and (delta == before or max(abs(delta), abs(before)) <= zero_tol):
            groups[-1].append(p_idx)
        else:
            groups.append([p_idx])
    return groups


def loop_blockade_terms(spectra):
    """Oracle: blockade_shift as a loop over each pair's degenerate
    pair-state eigenspaces (exact_groups), spectra the ((k, l), shifts,
    kappas) of every pair. Returns (total, contribution rows, zero_term)."""
    total = 0.0
    contributions = []
    zero_term = None
    for (k, l), shifts, kappas in spectra:
        zero_tol = 1e-12 * max(1.0, float(np.max(np.abs(shifts))))
        groups = exact_groups(shifts)
        for group in groups:
            weight = sum(abs(kappas[i]) ** 2 for i in group)
            if weight < KAPPA_WEIGHT_FLOOR:
                continue
            if any(abs(shifts[i]) <= zero_tol for i in group):
                zero_term = (group[0], k, l)
                contributions.append((k, l, group[0], math.inf))
                continue
            term = sum(abs(kappas[i]) ** 2 / shifts[i] ** 2 for i in group)
            contributions.append((k, l, group[0], term))
            total += term
    contributions.sort(key=lambda row: -row[-1])
    return total, contributions, zero_term


class TestGeometry:
    def test_counts_and_pairs(self):
        geo = two_atoms(5.0)
        assert geo.n == 2
        assert list(geo.pairs()) == [(0, 1)]
        assert geo.separation_um(0, 1) == pytest.approx(5.0, rel=1e-12)

    def test_axis_angles(self):
        assert two_atoms(3.0, 0.0).axis_theta_rad(0, 1) == pytest.approx(0.0, abs=1e-12)
        assert two_atoms(3.0, math.pi / 2).axis_theta_rad(0, 1) == pytest.approx(
            math.pi / 2, abs=1e-12
        )
        # opposite axis directions are the same physical configuration
        up = EnsembleGeometry(np.array([[0, 0, 0], [0, 0, 4.0]]))
        down = EnsembleGeometry(np.array([[0, 0, 4.0], [0, 0, 0]]))
        assert up.axis_theta_rad(0, 1) == down.axis_theta_rad(0, 1)

    def test_axis_angle_near_z_axis(self):
        # acos(|dz| / r) returned 1e-7 with 4e-4 relative error and 1e-9 as 0
        for theta in (1e-7, 1e-9):
            assert two_atoms(3.0, theta).axis_theta_rad(0, 1) == pytest.approx(
                theta, rel=1e-12
            )

    def test_coincident_atoms_rejected(self):
        with pytest.raises(ValueError):
            EnsembleGeometry(np.array([[0, 0, 0], [0.0, 0.0, 0.0]]))

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            EnsembleGeometry(np.zeros((2, 2)))

    def test_stored_pair_axes_match_single_pairs(self):
        # the axes formed at construction, which blockade_shift reads, carry
        # the bits of the one-pair accessors
        positions = np.random.default_rng(5).normal(scale=4.0, size=(6, 3))
        geo = EnsembleGeometry(positions)
        separations, thetas = geo._axes
        for p, (k, l) in enumerate(geo.pairs()):
            assert separations[p] == geo.separation_um(k, l)
            assert thetas[p] == geo.axis_theta_rad(k, l)

    def test_positions_are_a_read_only_copy(self, rb_43d_eigensystem):
        # the pair axes that blockade_shift reads are formed at construction;
        # a caller's later write to its array moved separation_um, which
        # reads the positions, while the axes stayed at the old ones
        pos = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 5.0], [4.0, 3.0, 2.0]])
        geo = EnsembleGeometry(pos)
        field = ExcitationField.uniform(3, 1.0)

        def results():
            pairs = list(geo.pairs())
            return (
                [geo.separation_um(k, l) for k, l in pairs],
                [geo.axis_theta_rad(k, l) for k, l in pairs],
                blockade_shift(geo, field, rb_43d_eigensystem),
                geo.positions_um.tolist(),
            )

        before = results()
        assert before[0][0] == 5.0
        pos[1, 2] = 10.0
        pos[2] = [-6.0, 1.0, 0.5]
        assert results() == before
        for stored in (geo.positions_um, *geo._pair_index, *geo._axes):
            with pytest.raises(ValueError, match="read-only"):
                stored[0] = 1.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_positions_rejected(self, bad):
        # a nan coordinate gave B = 15.36 MHz with blockade_valid True
        with pytest.raises(ValueError, match="finite"):
            EnsembleGeometry(np.array([[0.0, 0.0, 0.0], [0.0, bad, 5.0], [3.0, 0.0, 0.0]]))


class TestField:
    def test_collective_rabi_invariant(self):
        for n in (1, 2, 7, 50):
            f = ExcitationField.uniform(n, 1.7)
            assert f.omega_n_mhz == pytest.approx(
                math.sqrt(n) * f.omega_rms_mhz, rel=1e-12
            )

    def test_target_m(self):
        # the drive names one Zeeman target, a finite half-integer: the
        # former ground_m + polarization pair was read only as its sum
        assert ExcitationField.uniform(2, 1.0, target_m=1.5).target_m == 1.5
        assert ExcitationField.uniform(2, 1.0, target_m=-0.5).target_m == -0.5
        assert ExcitationField.uniform(2, 1.0).target_m == 0.5

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"target_m": math.nan}, "target_m must be half-integer"),
            ({"target_m": math.inf}, "target_m must be half-integer"),
            ({"target_m": 0.7}, "target_m must be half-integer"),
            ({"target_m": -math.inf}, "target_m must be half-integer"),
        ],
    )
    def test_non_finite_ground_m_or_fractional_polarization_rejected(self, kwargs, message):
        # target_m replaces the ground_m + polarization pair; a non-finite or
        # non-half-integer target is refused when the field is built, not
        # later inside blockade_shift
        with pytest.raises(ValueError, match=message):
            ExcitationField.uniform(2, 1.0, **kwargs)
        assert ExcitationField.uniform(2, 1.0, target_m=-0.5).target_m == -0.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ExcitationField(rabi_mhz=np.zeros((0,)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(1.0, math.inf)])
    def test_non_finite_rabi_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            ExcitationField(rabi_mhz=[bad, 1.0])

    def test_rabi_frequencies_are_a_read_only_copy(self):
        # the rms and collective drives are computed once, so a caller's
        # later write to its array must not reach the field
        rabi = np.array([1.0 + 0j, 2.0])
        f = ExcitationField(rabi_mhz=rabi)
        assert f.omega_n_mhz == pytest.approx(math.sqrt(5.0), rel=1e-15)
        rabi[1] = 10.0
        assert f.omega_n_mhz == pytest.approx(math.sqrt(5.0), rel=1e-15)
        assert np.array_equal(f.rabi_mhz, [1.0, 2.0])
        with pytest.raises(ValueError, match="read-only"):
            f.rabi_mhz[0] = 3.0


class TestOverlapKappa:
    def test_parseval_uniform(self, rb_43d_eigensystem):
        f = ExcitationField.uniform(2, 0.01)
        k = overlap_kappa(rb_43d_eigensystem, f, r_um=10.0)
        assert np.sum(np.abs(k) ** 2) == pytest.approx(1.0, abs=1e-10)

    def test_single_state_completeness(self, rb_s60_eigensystem):
        # at theta=0 the driven s-pair product is itself a pair eigenstate
        f = ExcitationField.uniform(2, 0.01)
        w = np.abs(overlap_kappa(rb_s60_eigensystem, f, r_um=8.0)) ** 2
        assert np.sum(w > 1e-12) == 1
        assert w.max() == pytest.approx(1.0, abs=1e-12)

    def test_nonuniform_pair_prefactor(self, rb_s60_eigensystem):
        f = ExcitationField(rabi_mhz=np.array([1.0, 2.0]))
        k = overlap_kappa(rb_s60_eigensystem, f, pair=(0, 1), r_um=8.0)
        expected = (1.0 * 2.0 / f.omega_rms_mhz**2) ** 2
        assert np.sum(np.abs(k) ** 2) == pytest.approx(expected, rel=1e-12)

    def test_polarization_domain_error(self, rb_s60_eigensystem):
        f = ExcitationField.uniform(2, 0.01, target_m=2.5)
        with pytest.raises(ValueError):
            overlap_kappa(rb_s60_eigensystem, f, r_um=8.0)

    def test_separation_is_required(self, rb_s60_eigensystem):
        f = ExcitationField.uniform(2, 0.01)
        with pytest.raises(TypeError):
            pair_state_basis(rb_s60_eigensystem)
        with pytest.raises(TypeError):
            overlap_kappa(rb_s60_eigensystem, f)
        with pytest.raises(TypeError):
            overlap_kappa(rb_s60_eigensystem, f, None, 8.0)

    @pytest.mark.parametrize("r_um", [0.0, -5.0, np.nan])
    def test_invalid_separation_rejected(self, rb_s60_eigensystem, r_um):
        # 0 and nan gave nan with RuntimeWarnings, -5 the answer at +5 um
        f = ExcitationField.uniform(2, 1.0)
        with pytest.raises(ValueError, match="positive"):
            pair_state_basis(rb_s60_eigensystem, r_um)
        with pytest.raises(ValueError, match="positive"):
            overlap_kappa(rb_s60_eigensystem, f, r_um=r_um)
        with pytest.raises(ValueError, match="positive"):
            effective_interaction_mhz(f, rb_s60_eigensystem, r_um)

    def test_angle_changes_weight_distribution(self, rb_43d_channels, rb_43d_eigensystem):
        f = ExcitationField.uniform(2, 0.01)
        w0 = np.sort(np.abs(overlap_kappa(rb_43d_eigensystem, f, r_um=10.0)) ** 2)
        side = forster_eigensystem(rb_43d_channels, math.pi / 2)
        w90 = np.sort(np.abs(overlap_kappa(side, f, r_um=10.0)) ** 2)
        assert np.sum(np.abs(w0 - w90)) > 0.5

    def test_channel_shifts_resonant_and_zero_floor(self, rb_s60_channels):
        # a zero defect takes the resonant branch -C3 sqrt(D) / R^3, and
        # eigenstates below the coupling floor are left unshifted
        resonant = dataclasses.replace(rb_s60_channels[3], defect_mhz=0.0)
        eig = forster_eigensystem(rb_s60_channels[:3] + [resonant], 0.4)
        d_vals = eig.d_values[3]
        live = d_vals >= FORSTER_ZERO_FLOOR
        assert live.any() and not live.all()
        # channel 3 of four, dim 4
        shifts = _channel_shifts_mhz(eig, 5.3, eig.defects_mhz).ravel()[12:16]
        assert np.all(shifts[~live] == 0.0)
        expected = -resonant.c3_mhz_um3 * np.sqrt(d_vals[live]) / 5.3**3
        assert np.allclose(shifts[live], expected, rtol=1e-14, atol=0.0)


class TestBlockadeShift:
    def test_single_state_b_equals_delta(self, rb_s60_eigensystem):
        f = ExcitationField.uniform(2, 0.01)
        shifts, vectors = pair_state_basis(rb_s60_eigensystem, 8.0)
        w = np.abs(overlap_kappa(rb_s60_eigensystem, f, r_um=8.0)) ** 2
        delta = shifts[int(np.argmax(w))]
        res = blockade_shift(two_atoms(8.0), f, rb_s60_eigensystem)
        assert res.b_mhz == pytest.approx(abs(delta), rel=1e-12)
        assert res.blockade_valid
        assert res.b_mhz > 0

    def test_brute_force_oracle_55s(self, rb_s55_channels, rb_s55_eigensystem):
        f = ExcitationField.uniform(2, 0.001)
        for theta in (0.0, math.pi / 2):
            b_exact = exact_two_atom_inv_b2(rb_s55_channels, theta, 10.0) ** -0.5
            b_model = blockade_shift(
                two_atoms(10.0, theta), f, rb_s55_eigensystem
            ).b_mhz
            assert b_model == pytest.approx(b_exact, rel=5e-3)

    def test_brute_force_oracle_43d(self, rb_43d_channels, rb_43d_eigensystem):
        f = ExcitationField.uniform(2, 0.001)
        b_model = {}
        b_exact = {}
        for theta in (0.0, math.pi / 2, 0.3 + 5e-4):
            b_exact[theta] = exact_two_atom_inv_b2(rb_43d_channels, theta, 10.0) ** -0.5
            b_model[theta] = blockade_shift(
                two_atoms(10.0, theta), f, rb_43d_eigensystem
            ).b_mhz
            assert b_model[theta] == pytest.approx(b_exact[theta], rel=0.01)
        ratio_model = b_model[0.0] / b_model[math.pi / 2]
        ratio_exact = b_exact[0.0] / b_exact[math.pi / 2]
        assert ratio_model == pytest.approx(ratio_exact, rel=0.02)

    def test_exact_angle_matches_reference(self, rb_43d_channels, rb_43d_eigensystem):
        # angles off the 1 mrad grid, where bucketed eigensystems were off
        # by 4.0e-4 to 4.1e-3
        f = ExcitationField.uniform(2, 0.001)
        for theta in (0.3 + 5e-4, 1.0 + 4e-4):
            local = forster_eigensystem(rb_43d_channels, theta)
            for r in (5.0, 10.0):
                shifts, _ = pair_state_basis(local, r)
                w = np.abs(overlap_kappa(local, f, r_um=r)) ** 2
                keep = w >= 1e-12
                b_ref = float(np.sum(w[keep] / shifts[keep] ** 2)) ** -0.5
                b = blockade_shift(two_atoms(r, theta), f, rb_43d_eigensystem).b_mhz
                assert b == pytest.approx(b_ref, rel=1e-12)

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        phi=st.floats(min_value=0.0, max_value=2 * math.pi),
    )
    def test_rotation_about_z_invariance(self, rb_43d_eigensystem, seed, phi):
        pos = random_cloud(np.random.default_rng(seed), 5)
        f = ExcitationField.uniform(5, 0.001)
        c, s = math.cos(phi), math.sin(phi)
        turn = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        b = blockade_shift(EnsembleGeometry(pos), f, rb_43d_eigensystem).b_mhz
        b_turned = blockade_shift(
            EnsembleGeometry(pos @ turn.T), f, rb_43d_eigensystem
        ).b_mhz
        assert b_turned == pytest.approx(b, rel=1e-12)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_atom_permutation_invariance(self, rb_43d_eigensystem, seed):
        rng = np.random.default_rng(seed)
        pos = random_cloud(rng, 5)
        f = ExcitationField.uniform(5, 0.001)
        b = blockade_shift(EnsembleGeometry(pos), f, rb_43d_eigensystem).b_mhz
        b_permuted = blockade_shift(
            EnsembleGeometry(pos[rng.permutation(5)]), f, rb_43d_eigensystem
        ).b_mhz
        assert b_permuted == pytest.approx(b, rel=1e-12)

    def test_angular_stability_s_vs_d(self, rb_s55_eigensystem, rb_43d_eigensystem):
        f = ExcitationField.uniform(2, 0.001)
        thetas = np.linspace(0.0, math.pi / 2, 7)
        b_s = np.array(
            [
                blockade_shift(two_atoms(10.0, t), f, rb_s55_eigensystem).b_mhz
                for t in thetas
            ]
        )
        b_d = np.array(
            [
                blockade_shift(two_atoms(10.0, t), f, rb_43d_eigensystem).b_mhz
                for t in thetas
            ]
        )
        assert b_s.max() / b_s.min() < 1.2
        assert b_d.max() / b_d.min() > 5.0

    def test_zero_shift_short_circuit(self, rb_43d_channels):
        # stretched m=5/2 drive: the doubly-stretched pair state cannot
        # couple to p3/2+f5/2 along the axis, so its shift vanishes exactly
        one = forster_eigensystem(rb_43d_channels[:1])
        f = ExcitationField.uniform(2, 0.01, target_m=2.5)
        res = blockade_shift(two_atoms(10.0), f, one)
        assert res.b_mhz == 0.0
        assert not res.blockade_valid
        assert res.zero_term is not None
        assert math.isinf(res.p2)
        # the second channel lifts the zero
        both = forster_eigensystem(rb_43d_channels)
        res2 = blockade_shift(two_atoms(10.0), f, both)
        assert res2.b_mhz > 0
        assert res2.zero_term is None

    @pytest.mark.parametrize("gap_mhz", [2e-9, 0.0])
    def test_only_bit_equal_shifts_share_an_eigenspace(
        self, rb_s60_eigensystem, monkeypatch, gap_mhz
    ):
        # a chain of shifts gap_mhz apart: at 2e-9 MHz, a gap that a 1e-9 x
        # 3 MHz tolerance joined, it is three eigenspaces; bit-equal, one
        shifts = np.array([-3.0, 1.0, 1.0 + gap_mhz, 1.0 + 2 * gap_mhz])
        groups = [[0], [1, 2, 3]] if gap_mhz == 0.0 else [[0], [1], [2], [3]]
        vectors, _ = np.linalg.qr(np.random.default_rng(5).normal(size=(4, 4)))
        monkeypatch.setattr(
            blockade_module,
            "_pair_states",
            lambda eig, r_um, theta, lab_rows: (shifts[None], vectors[lab_rows][None]),
        )
        omega = 2.0
        geo, f = two_atoms(8.0), ExcitationField.uniform(2, omega)
        res = blockade_shift(geo, f, rb_s60_eigensystem)
        weights = vectors[3] ** 2  # the driven state |1/2, 1/2> is index 3
        terms = {g[0]: float(np.sum(weights[g] / shifts[g] ** 2)) for g in groups}
        assert sorted(r[2] for r in res.contributions) == sorted(terms)
        for row in res.contributions:
            assert row[-1] == pytest.approx(terms[row[2]], rel=1e-14)
        _, rows, _ = loop_blockade_terms(zip(*_pair_spectra(geo, f, rb_s60_eigensystem)))
        assert [r[:3] for r in rows] == [r[:3] for r in res.contributions]
        delta = np.array([np.mean(shifts[g]) for g in groups])
        w = np.array([np.sum(weights[g]) for g in groups])
        expected = np.sum(delta * w * omega**2 / (w * omega**2 + delta**2))
        got = effective_interaction_mhz(f, rb_s60_eigensystem, 8.0)
        assert got == pytest.approx(expected, rel=1e-14)

    def test_field_degenerate_shifts_apart_by_rounding_are_one_eigenspace(
        self, rb_43d_channels
    ):
        # one 43d channel at 0.01 T: the driven neighbours that eigh leaves a
        # rounding gap apart are all zero-shift (Forster-zero) states, which
        # _eigenspaces joins into one eigenspace by the zero-shift rule
        eig = forster_eigensystem(rb_43d_channels[:1], 0.0, 0.01)
        rng = np.random.default_rng(1)
        r_um, theta = rng.uniform(2.0, 20.0, 20), rng.uniform(0.0, math.pi, 20)
        shifts, kappas = _driven_states(eig, 0.5, r_um, theta)
        gaps = np.diff(shifts, axis=1)
        scale = np.maximum(1.0, np.abs(shifts).max(axis=1, keepdims=True))
        w = np.abs(kappas) ** 2
        driven = np.minimum(w[:, :-1], w[:, 1:]) >= 1e-3
        close = np.argwhere((gaps > 0.0) & (gaps <= ORACLE_RTOL * scale) & driven)
        assert close.size
        for row, j in close:
            assert np.all(np.abs(shifts[row, j : j + 2]) <= 1e-12 * scale[row])
            one = slice(row, row + 1)
            _, first, _, _, terms = blockade_module._eigenspaces(shifts[one], kappas[one])
            assert j + 1 not in first  # both weights pass KAPPA_WEIGHT_FLOOR
            assert math.isinf(terms[np.searchsorted(first, j, side="right") - 1])

    def test_removing_largest_term_increases_b(self, rb_43d_eigensystem):
        f = ExcitationField.uniform(2, 0.001)
        res = blockade_shift(two_atoms(10.0, 0.6), f, rb_43d_eigensystem)
        rows = [r for r in res.contributions if math.isfinite(r[-1])]
        assert rows == sorted(rows, key=lambda r: -r[-1])
        total = sum(r[-1] for r in rows)
        reduced = total - rows[0][-1]
        assert math.sqrt(1.0 / reduced) > res.b_mhz

    def test_equidistant_ring_matches_pair(self, rb_s60_eigensystem):
        # all ring pairs share separation and in-plane axis angle, so the
        # blockade average reduces to the two-atom value exactly
        b3 = blockade_shift(
            xy_ring(3, 6.0), ExcitationField.uniform(3, 0.01), rb_s60_eigensystem
        ).b_mhz
        b2 = blockade_shift(
            two_atoms(6.0, math.pi / 2),
            ExcitationField.uniform(2, 0.01),
            rb_s60_eigensystem,
        ).b_mhz
        assert b3 == pytest.approx(b2, rel=1e-12)

    def test_square_diagonals_weaken_blockade(self, rb_s60_eigensystem):
        side = 6.0
        square = EnsembleGeometry(
            np.array([[0, 0, 0], [side, 0, 0], [side, side, 0], [0, side, 0]], float)
        )
        b4 = blockade_shift(
            square, ExcitationField.uniform(4, 0.01), rb_s60_eigensystem
        ).b_mhz
        b3 = blockade_shift(
            xy_ring(3, side), ExcitationField.uniform(3, 0.01), rb_s60_eigensystem
        ).b_mhz
        assert b4 < b3

    def test_input_validation(self, rb_s60_eigensystem):
        with pytest.raises(ValueError):
            blockade_shift(
                two_atoms(8.0), ExcitationField.uniform(3, 0.01), rb_s60_eigensystem
            )
        with pytest.raises(ValueError):
            blockade_shift(
                EnsembleGeometry(np.zeros((1, 3))),
                ExcitationField.uniform(1, 0.01),
                rb_s60_eigensystem,
            )

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_array_terms_match_loop_oracle(self, rb_43d_eigensystem, seed):
        geo = EnsembleGeometry(random_cloud(np.random.default_rng(seed), 8))
        f = ExcitationField(
            rabi_mhz=np.random.default_rng(seed).uniform(0.5, 1.5, 8) * 0.001
        )
        spectra = zip(*_pair_spectra(geo, f, rb_43d_eigensystem))
        total, rows, zero_term = loop_blockade_terms(spectra)
        res = blockade_shift(geo, f, rb_43d_eigensystem)
        assert zero_term is None and res.zero_term is None
        assert res.b_mhz == pytest.approx(math.sqrt(28.0 / total), rel=1e-12)
        assert [r[:3] for r in res.contributions] == [r[:3] for r in rows]
        got = np.array([r[-1] for r in res.contributions])
        expected = np.array([r[-1] for r in rows])
        assert np.max(np.abs(got / expected - 1.0)) < 1e-12

    def test_zero_term_matches_loop_oracle(self, rb_43d_channels):
        one = forster_eigensystem(rb_43d_channels[:1])
        f = ExcitationField.uniform(3, 0.01, target_m=2.5)
        geo = EnsembleGeometry(np.array([[0, 0, 0], [0, 0, 10.0], [0, 0, 17.0]]))
        _, rows, zero_term = loop_blockade_terms(zip(*_pair_spectra(geo, f, one)))
        res = blockade_shift(geo, f, one)
        assert zero_term is not None
        assert res.zero_term == zero_term
        assert res.b_mhz == 0.0
        assert [r[:3] for r in res.contributions] == [r[:3] for r in rows]
        assert [math.isinf(r[-1]) for r in res.contributions] == [
            math.isinf(r[-1]) for r in rows
        ]

    @pytest.mark.parametrize("theta", [0.3 + 5e-4, 1.0 + 4e-4, math.pi / 2, 2.5])
    def test_rotated_eigensystem_matches_per_angle_oracle(
        self, rb_43d_channels, rb_43d_eigensystem, theta
    ):
        turned = forster_eigensystem(rb_43d_channels, theta)
        oracle = per_angle_eigensystem(rb_43d_channels, theta)
        assert turned.forster_zero_count == oracle.forster_zero_count
        for ours, theirs in zip(turned.d_values, oracle.d_values):
            assert np.max(np.abs(ours - theirs)) < 1e-12
        f = ExcitationField.uniform(2, 0.001)
        for r in (5.0, 10.0):
            shifts, _ = pair_state_basis(turned, r)
            expected, w_oracle = full_matrix_states(oracle, f, r)
            scale = max(1.0, float(np.max(np.abs(expected))))
            assert np.max(np.abs(shifts - expected)) < 1e-12 * scale
            # only the summed weight of a degenerate eigenspace is physical
            w = np.abs(overlap_kappa(turned, f, r_um=r)) ** 2
            for group in degenerate_groups(expected):
                assert abs(w[group].sum() - w_oracle[group].sum()) < 1e-12
            keep = w_oracle >= KAPPA_WEIGHT_FLOOR
            b_oracle = float(np.sum(w_oracle[keep] / expected[keep] ** 2)) ** -0.5
            b = blockade_shift(two_atoms(r, theta), f, rb_43d_eigensystem).b_mhz
            assert b == pytest.approx(b_oracle, rel=1e-12)

    def test_cloud_matches_per_angle_oracle(self, rb_43d_channels, rb_43d_eigensystem):
        geo = EnsembleGeometry(random_cloud(np.random.default_rng(7), 6))
        f = ExcitationField.uniform(6, 0.001)
        total = 0.0
        for k, l in geo.pairs():
            local = per_angle_eigensystem(rb_43d_channels, geo.axis_theta_rad(k, l))
            r = geo.separation_um(k, l)
            shifts, w = full_matrix_states(local, f, r)  # uniform drive: weight 1
            keep = w >= KAPPA_WEIGHT_FLOOR
            total += float(np.sum(w[keep] / shifts[keep] ** 2))
        b = blockade_shift(geo, f, rb_43d_eigensystem).b_mhz
        assert b == pytest.approx(math.sqrt(15.0 / total), rel=1e-12)

    @pytest.mark.parametrize("n_atoms", [5, 6])
    def test_field_cloud_matches_per_pair_public_calls(self, rb_43d_channels, n_atoms):
        # at 0.01 T every pair's defects follow its own axis: B and the rows
        # match each pair's own public forster_eigensystem at its angle
        b_field_t = 0.01
        geo = EnsembleGeometry(random_cloud(np.random.default_rng(n_atoms), n_atoms))
        f = ExcitationField(rabi_mhz=np.random.default_rng(n_atoms).uniform(0.5, 1.5, n_atoms))

        def public_spectra():
            for k, l in geo.pairs():
                local = forster_eigensystem(
                    rb_43d_channels, geo.axis_theta_rad(k, l), b_field_t
                )
                r = geo.separation_um(k, l)
                kappas = overlap_kappa(local, f, (k, l), r_um=r)
                yield (k, l), pair_state_basis(local, r)[0], kappas

        eig = forster_eigensystem(rb_43d_channels, 0.0, b_field_t)
        total, rows, zero_term = loop_blockade_terms(public_spectra())
        res = blockade_shift(geo, f, eig)
        assert zero_term is None and res.zero_term is None
        n_pairs = n_atoms * (n_atoms - 1) // 2
        assert res.b_mhz == pytest.approx(math.sqrt(n_pairs / total), rel=1e-12)
        assert [r[:3] for r in res.contributions] == [r[:3] for r in rows]
        # the field moves B: the oracle is not the zero-field answer
        zero_field = blockade_shift(geo, f, forster_eigensystem(rb_43d_channels))
        assert abs(res.b_mhz / zero_field.b_mhz - 1.0) > 1e-6

    def test_no_gram_diagonalization_per_pair(
        self, rb_43d_channels, rb_43d_eigensystem, monkeypatch
    ):
        # 12 atoms, 66 pairs: every pair uses eig's pair-frame vectors,
        # whatever eig.theta is, and all pairs share one _pair_states call
        # with its one batched eigh of sector blocks; in a field one build_vdd per
        # channel gives every pair's defects
        tilted = forster_eigensystem(rb_43d_channels, 0.7)
        in_field = forster_eigensystem(rb_43d_channels, 0.7, 0.01)
        calls = {"forster_eigensystem": 0, "eigh": 0, "_pair_states": 0, "build_vdd": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for module in (blockade_module, pair_module):
            monkeypatch.setattr(
                module,
                "forster_eigensystem",
                counted("forster_eigensystem", module.forster_eigensystem),
            )
        monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
        monkeypatch.setattr(
            blockade_module,
            "_pair_states",
            counted("_pair_states", blockade_module._pair_states),
        )
        monkeypatch.setattr(pair_module, "build_vdd", counted("build_vdd", pair_module.build_vdd))
        geo = EnsembleGeometry(random_cloud(np.random.default_rng(12), 12))
        for eig, build_vdd_calls in ((rb_43d_eigensystem, 0), (tilted, 0), (in_field, 2)):
            calls.update(forster_eigensystem=0, eigh=0, _pair_states=0, build_vdd=0)
            res = blockade_shift(geo, ExcitationField.uniform(12, 0.001), eig)
            assert res.b_mhz > 0
            assert calls == {
                "forster_eigensystem": 0,
                "eigh": 1,
                "_pair_states": 1,
                "build_vdd": build_vdd_calls,
            }

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_contributions_do_not_depend_on_degenerate_basis(
        self, rb_43d_eigensystem, seed, monkeypatch
    ):
        # mixing every degenerate pair-state eigenspace (bit-equal shifts, or
        # all zero shifts) by a random rotation leaves the rows and, to
        # rounding, their terms
        geo = EnsembleGeometry(random_cloud(np.random.default_rng(seed), 8))
        f = ExcitationField.uniform(8, 0.001)
        res = blockade_shift(geo, f, rb_43d_eigensystem)
        rng = np.random.default_rng(seed)
        original = blockade_module._pair_states

        def mixed(eig, r_um, theta, lab_rows):
            shifts, turned = original(eig, r_um, theta, lab_rows)
            for row, rows in zip(shifts, turned):
                for group in exact_groups(row):
                    q, _ = np.linalg.qr(rng.normal(size=(len(group), len(group))))
                    rows[:, group] = rows[:, group] @ q
            return shifts, turned

        monkeypatch.setattr(blockade_module, "_pair_states", mixed)
        res_mixed = blockade_shift(geo, f, rb_43d_eigensystem)
        rows = {r[:3]: r[-1] for r in res.contributions}
        rows_mixed = {r[:3]: r[-1] for r in res_mixed.contributions}
        assert rows.keys() == rows_mixed.keys()
        total = sum(rows.values())
        assert max(abs(rows[key] - rows_mixed[key]) for key in rows) < 1e-12 * total
        assert res_mixed.b_mhz == pytest.approx(res.b_mhz, rel=1e-12)

    @pytest.mark.parametrize("r_um", [5.0, 10.0])
    def test_basis_turns_as_a_whole(self, rb_43d_channels, rb_43d_eigensystem, r_um):
        # in zero field the pair-state shifts do not depend on theta at all,
        # and the states are the theta = 0 ones turned by D(theta)
        shifts0, vectors0 = pair_state_basis(rb_43d_eigensystem, r_um)
        for theta in (0.3, 1.0, math.pi / 2, 2.5):
            shifts, vectors = pair_state_basis(
                forster_eigensystem(rb_43d_channels, theta), r_um
            )
            assert np.array_equal(shifts, shifts0)
            d = wigner_small_d(2.5, theta)
            assert np.max(np.abs(vectors - np.kron(d, d) @ vectors0)) < 1e-15

    def test_eigensystem_off_axis_is_turned_from_theta_zero(self, rb_43d_channels):
        # eig at theta != 0: one theta = 0 eigensystem serves every pair, and
        # a pair at eig.theta sees eig's own vectors bit for bit
        theta = 0.7
        eig = forster_eigensystem(rb_43d_channels, theta)
        geo = two_atoms(8.0, theta)
        f = ExcitationField.uniform(2, 0.001)
        _, (shifts,), (kappas,) = _pair_spectra(geo, f, eig)
        expected_shifts, vectors = pair_state_basis(eig, 8.0)
        assert np.array_equal(shifts, expected_shifts)
        # the driven |1/2, 1/2> is index 3 * 6 + 3 of the j = 5/2 pair space
        assert np.array_equal(kappas, vectors[21, :].conj())


def zeeman_group_operator(ch, theta, vecs, live):
    """Oracle: first-order Zeeman operator (units of mu_B B) of a field along
    z inside one degenerate Gram eigenspace, pair-frame columns vecs at pair
    angle theta; basis-free through its eigenvalues."""
    i1, i2 = ch.initial
    phi = np.kron(wigner_small_d(i1.j, theta), wigner_small_d(i2.j, theta)) @ vecs
    op = -(phi.T * _zeeman_diagonal(ch.initial)) @ phi
    if live:
        c1, c2 = ch.coupled
        coupled = [_zeeman_diagonal((c1, c2))]
        if (c1.n, c1.l, c1.j) != (c2.n, c2.l, c2.j):
            coupled.append(_zeeman_diagonal((c2, c1)))
        chi = build_vdd(ch, theta) @ phi
        chi /= np.linalg.norm(chi, axis=0)
        op += (chi.T * np.concatenate(coupled)) @ chi
    return op


def block_of_columns(vecs, j1, j2):
    """M = m1 + m2 of each column's largest component."""
    m1, m2 = np.meshgrid(np.arange(-j1, j1 + 1), np.arange(-j2, j2 + 1), indexing="ij")
    return (m1 + m2).ravel()[np.abs(vecs).argmax(axis=0)]


class TestFieldAtAngle:
    @pytest.mark.parametrize("theta", [0.3, 1.1, 2.0])
    def test_defect_sums_per_degenerate_group_match_oracle(self, rb_43d_channels, theta):
        # a field along z breaks the rotation of the defects, not of the Gram
        # eigenspaces: per-vector defects depend on the basis chosen inside a
        # degenerate eigenspace (up to 1.6 GHz apart at 0.01 T), their sum
        # over the eigenspace does not
        for b_field_t in (0.01, 1.0):
            turned = forster_eigensystem(rb_43d_channels, theta, b_field_t)
            oracle = per_angle_eigensystem(rb_43d_channels, theta, b_field_t)
            zeeman_mhz = cst.MU_B_MHZ_PER_T * b_field_t
            for c_idx in range(len(rb_43d_channels)):
                ours, theirs = turned.defects_mhz[c_idx], oracle.defects_mhz[c_idx]
                for group in degenerate_groups(oracle.d_values[c_idx]):
                    assert abs(ours[group].sum() - theirs[group].sum()) < 1e-12 * zeeman_mhz
                assert abs(ours.sum() - theirs.sum()) < 1e-12 * zeeman_mhz

    @pytest.mark.parametrize("theta", [0.3, 1.1, 2.0])
    def test_per_vector_defects_are_the_group_zeeman_eigenvalues(
        self, rb_43d_channels, theta
    ):
        # M-definite Gram vectors: the turned field changes M by at most 1,
        # so inside a degenerate group whose M values never differ by 1 the
        # per-vector defects are the first-order degenerate values. At 43d
        # every group is a +-M pair or a Forster-zero group of M values
        # {-5, 0, 0, 5} or {0, 0}: none holds two M differing by 1
        for b_field_t in (0.01, 1.0):
            zeeman_mhz = cst.MU_B_MHZ_PER_T * b_field_t
            eig = forster_eigensystem(rb_43d_channels, theta, b_field_t)
            for ch, vals, vecs, defects in zip(
                rb_43d_channels, eig.d_values, eig.vectors, eig.defects_mhz
            ):
                m = block_of_columns(vecs, 2.5, 2.5)
                groups = degenerate_groups(vals)
                assert sum(len(g) == 2 for g in groups) >= 14
                for group in groups:
                    assert not np.any(np.abs(m[group][:, None] - m[group]) == 1)
                    live = vals[group[0]] > FORSTER_ZERO_FLOOR
                    op = zeeman_group_operator(ch, theta, vecs[:, group], live)
                    ours = np.sort(defects[group] - ch.defect_mhz) / zeeman_mhz
                    assert np.max(np.abs(ours - np.linalg.eigvalsh(op))) < 1e-12

    @settings(max_examples=10, deadline=None)
    @given(
        r_um=st.floats(min_value=2.0, max_value=20.0),
        theta=st.floats(min_value=0.0, max_value=math.pi),
        b_field_t=st.sampled_from([0.01, 1.0]),
    )
    def test_axis_reversal_keeps_the_shifts(self, rb_43d_channels, r_um, theta, b_field_t):
        # the pair at pi - theta is the pair at theta with its atoms exchanged
        # (and turned about z, along the field): the same shifts, which
        # EnsembleGeometry._pair_axes relies on when it folds theta into
        # [0, pi/2]. The scale is _eigenspaces' max(1 MHz, largest |shift|):
        # the van der Waals branch rounds like its GHz defects, whatever R
        eig = forster_eigensystem(rb_43d_channels, 0.0, b_field_t)
        shifts, _ = pair_module._pair_states(
            eig, np.array([r_um, r_um]), np.array([theta, math.pi - theta]), [0]
        )
        scale = max(1.0, np.abs(shifts[0]).max())
        assert np.max(np.abs(shifts[1] - shifts[0])) <= 1e-11 * scale

    @settings(max_examples=10, deadline=None)
    @given(b_field_t=st.floats(min_value=1e-3, max_value=10.0))
    def test_field_across_the_axis_moves_no_defect(
        self, rb_s60_channels, rb_43d_channels, b_field_t
    ):
        # at theta = pi/2 the field is across the pair axis: it changes M by
        # 1 and has no first-order part on the M-definite Gram vectors
        zeeman_mhz = cst.MU_B_MHZ_PER_T * b_field_t
        for channels in (rb_s60_channels, rb_43d_channels):
            eig = forster_eigensystem(channels, math.pi / 2, b_field_t)
            channel = np.array([[ch.defect_mhz] for ch in channels])
            assert np.max(np.abs(eig.defects_mhz - channel)) <= 1e-12 * zeeman_mhz


    @pytest.mark.parametrize("b_field_t", [0.01, 1.0])
    def test_defects_exact_on_the_axis_and_across_it(
        self, rb_s60_channels, rb_43d_channels, b_field_t
    ):
        # the factor of the field along the pair axis is exactly 1, 0 and -1
        # at theta = 0, pi/2 and pi: the defects are the channel defect plus
        # +- the field part, and at pi/2 the zero-field defects
        theta = np.array([0.0, math.pi / 2, math.pi])
        for channels in (rb_s60_channels, rb_43d_channels):
            eig = forster_eigensystem(channels, 0.0, b_field_t)
            defects = _defects_mhz(eig, theta)
            channel = _defects_mhz(forster_eigensystem(channels), theta)
            no_defect = [dataclasses.replace(ch, defect_mhz=0.0) for ch in channels]
            field_part = _defects_mhz(dataclasses.replace(eig, channels=no_defect), theta)
            assert np.any(field_part[0] != 0.0)
            assert np.array_equal(field_part[1], np.zeros_like(channel))
            assert np.array_equal(field_part[2], -field_part[0])
            assert np.array_equal(defects[0], channel + field_part[0])
            assert np.array_equal(defects[1], channel)
            assert np.array_equal(defects[2], channel - field_part[0])

    @pytest.mark.parametrize("b_field_t", [0.01, 1.0])
    def test_in_plane_pairs_feel_no_field(self, rb_s60_channels, rb_43d_channels, b_field_t):
        # a field along z lies across the axis of a pair in the xy plane and
        # moves no M-definite pair state (Walker & Saffman, PRA 77, 032723
        # (2008)): the states, B and the rows are the zero-field ones bit for bit
        geo = EnsembleGeometry(
            np.array([[0, 0, 0], [6, 0, 0], [0, 8, 0], [5, 5, 0], [-4, 6, 0]], float)
        )
        f = ExcitationField(rabi_mhz=np.random.default_rng(3).uniform(0.5, 1.5, 5) * 0.01)
        for channels in (rb_s60_channels, rb_43d_channels):
            in_field = forster_eigensystem(channels, math.pi / 2, b_field_t)
            zero_field = forster_eigensystem(channels, math.pi / 2)
            for r_um in (3.0, 8.0):
                shifts, vectors = pair_state_basis(in_field, r_um)
                shifts0, vectors0 = pair_state_basis(zero_field, r_um)
                assert np.array_equal(shifts, shifts0)
                assert np.array_equal(vectors, vectors0)
            res, res0 = blockade_shift(geo, f, in_field), blockade_shift(geo, f, zero_field)
            assert res.b_mhz == res0.b_mhz
            assert res.contributions == res0.contributions


class TestPairFrame:
    @pytest.mark.parametrize("b_field_t", [0.0, 0.01])
    def test_vectors_do_not_depend_on_theta(self, rb_43d_channels, b_field_t):
        base = forster_eigensystem(rb_43d_channels, 0.0, b_field_t)
        for theta in (0.3, 1.1, 2.0):
            eig = forster_eigensystem(rb_43d_channels, theta, b_field_t)
            for ours, theirs in zip(eig.vectors, base.vectors):
                assert np.array_equal(ours, theirs)

    @pytest.mark.parametrize("theta", [0.0, 0.3, 1.1, 2.0])
    def test_defects_match_per_vector_loop(self, rb_s60_channels, rb_43d_channels, theta):
        # the closed form (cos theta times the pair-frame moment) against the
        # Zeeman moments of the turned vectors D(theta) v at theta itself
        for b_field_t, channels in itertools.product(
            (0.01, 1.0), (rb_s60_channels, rb_43d_channels)
        ):
            zeeman_mhz = cst.MU_B_MHZ_PER_T * b_field_t
            eig = forster_eigensystem(channels, theta, b_field_t)
            i1, i2 = channels[0].initial
            turn = np.kron(wigner_small_d(i1.j, theta), wigner_small_d(i2.j, theta))
            for ch, vals, vecs, defects in zip(
                channels, eig.d_values, eig.vectors, eig.defects_mhz
            ):
                expected = loop_zeeman_defects(ch, theta, vals, turn @ vecs, b_field_t)
                assert np.max(np.abs(defects - expected)) < 1e-12 * zeeman_mhz


def tilted_triangle(turn_rad):
    """Three atoms 10 um apart, tilted by 0.3 rad about z then 0.7 rad
    about x, then turned about z by turn_rad: no pair on or across z."""
    def about(axis, angle):
        c, s = math.cos(angle), math.sin(angle)
        i, j = [k for k in range(3) if k != axis]
        m = np.eye(3)
        m[i, i] = m[j, j] = c
        m[i, j], m[j, i] = -s, s
        return m

    triangle = 10.0 * np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, math.sqrt(3) / 2, 0.0]])
    return EnsembleGeometry(triangle @ (about(2, turn_rad) @ about(0, 0.7) @ about(2, 0.3)).T)


def public_pair_hamiltonian(geometry, field, channels):
    """Oracle: H (rad/us) of the amplitude equations, each pair's states
    from its own public forster_eigensystem / pair_state_basis /
    overlap_kappa calls at its angle."""
    pairs = list(geometry.pairs())
    n_phi = 36
    h = np.zeros((2 + len(pairs) * n_phi,) * 2, complex)
    omega_n = 2.0 * math.pi * field.omega_n_mhz
    h[0, 1] = h[1, 0] = omega_n / 2.0
    for p, (k, l) in enumerate(pairs):
        local = forster_eigensystem(channels, geometry.axis_theta_rad(k, l))
        r = geometry.separation_um(k, l)
        shifts, _ = pair_state_basis(local, r)
        coupling = omega_n * overlap_kappa(local, field, (k, l), r_um=r) / geometry.n
        rows = slice(2 + p * n_phi, 2 + (p + 1) * n_phi)
        h[1, rows] = np.conj(coupling)
        h[rows, 1] = coupling
        h[rows, rows] = np.diag(2.0 * math.pi * shifts)
    return h


def exchange(vectors, j=2.5):
    """P vectors, P|m1 m2> = |m2 m1> on the Zeeman product space of one level."""
    dim = round(2 * j) + 1
    return vectors.reshape(dim, dim, -1).swapaxes(0, 1).reshape(vectors.shape)


def exchange_sectors(j):
    """Oracle of the (M, exchange) sector bases of one level's pair space, as
    _m_blocks defines them: (slots, N) arrays, by ascending M, even before
    odd. Block M >= 0 lists its states by ascending index i = (j + m1)(2j +
    1) + j + m2; each state |a b> whose index is at most that of |b a> gives
    the even slot (|a b> + |b a>)/sqrt(2), or |a a>, and the odd slot
    (|a b> - |b a>)/sqrt(2); block -M takes the mirror images, index N - 1 - i."""
    dim = round(2 * j) + 1
    n = dim * dim
    total = np.add.outer(np.arange(dim), np.arange(dim)).ravel() - (dim - 1)
    sectors = []
    for big in range(-(dim - 1), dim):
        even, odd = [], []
        for i in np.flatnonzero(total == abs(big)):
            partner = (i % dim) * dim + i // dim
            if i > partner:
                continue
            lo, hi = (i, partner) if big >= 0 else (n - 1 - i, n - 1 - partner)
            e = np.zeros(n)
            e[lo] += 1.0
            if lo == hi:
                even.append(e)
                continue
            f = np.zeros(n)
            f[hi] = 1.0
            even.append((e + f) / math.sqrt(2.0))
            odd.append((e - f) / math.sqrt(2.0))
        sectors.extend(np.array(slots).reshape(-1, n) for slots in (even, odd))
    return sectors


class TestMBlocks:
    @pytest.mark.parametrize("r_um", [5.0, 10.0])
    def test_pair_frame_states_have_definite_m(self, rb_43d_eigensystem, r_um):
        # at theta = 0, D = 1: every pair state is exactly zero off its block
        _, vectors = pair_state_basis(rb_43d_eigensystem, r_um)
        m = block_of_columns(vectors, 2.5, 2.5)
        m1, m2 = np.meshgrid(np.arange(-2.5, 3.0), np.arange(-2.5, 3.0), indexing="ij")
        off_block = (m1 + m2).ravel()[:, None] != m
        assert np.all(vectors[off_block] == 0.0)
        # the sign rule: sum_a x_a / 2^a > 0 over the coordinates x of each
        # state in the basis of its (M, exchange) sector
        for col in vectors.T:
            (x,) = [b @ col for b in exchange_sectors(2.5) if np.any(b @ col != 0.0)]
            assert x @ 0.5 ** np.arange(len(x)) > 0.0
        for vecs in rb_43d_eigensystem.vectors:
            gram_m = block_of_columns(vecs, 2.5, 2.5)
            assert np.all(vecs[(m1 + m2).ravel()[:, None] != gram_m] == 0.0)

    def test_gram_blocks_of_plus_minus_m_are_mirror_images(self, rb_43d_eigensystem):
        # the block of -M takes the eigenpairs of the block of M: d_values
        # tie exactly (stable order: -M first) and the vectors are mirrored
        for vals, vecs in zip(rb_43d_eigensystem.d_values, rb_43d_eigensystem.vectors):
            m = block_of_columns(vecs, 2.5, 2.5)
            for big in range(1, 6):
                assert np.array_equal(vals[m == -big], vals[m == big])
                mirror = np.abs(vecs[::-1][:, m == -big])
                assert np.array_equal(mirror, np.abs(vecs[:, m == big]))
            ties = np.flatnonzero(vals[1:] == vals[:-1])
            assert np.all(m[ties] <= m[ties + 1])

    @pytest.mark.parametrize("theta", [0.0, 0.7])
    def test_plus_minus_m_partners_tie_exactly_in_ascending_m(
        self, rb_43d_channels, theta
    ):
        # the blocks of M and -M are one matrix in zero field: their shifts
        # are the same bits, and the stable order puts -M first
        shifts, vectors = pair_state_basis(forster_eigensystem(rb_43d_channels, theta), 7.0)
        _, pair_frame = pair_state_basis(forster_eigensystem(rb_43d_channels), 7.0)
        m = block_of_columns(pair_frame, 2.5, 2.5)
        for big in range(1, 6):
            assert np.array_equal(shifts[m == -big], shifts[m == big])
        ties = np.flatnonzero(shifts[1:] == shifts[:-1])
        assert len(ties) == 15
        assert np.all(m[ties] == -m[ties + 1]) and np.all(m[ties] < 0)
        turn = np.kron(wigner_small_d(2.5, theta), wigner_small_d(2.5, theta))
        assert np.max(np.abs(vectors - turn @ pair_frame)) < 1e-15

    def test_states_follow_the_separation_continuously(self, rb_43d_channels):
        # a canonical basis: a relative change of 1e-12 in R moves no state
        # by more than rounding, although 30 of the 36 states come in
        # degenerate +-M pairs whose basis eigh alone would leave open
        eig = forster_eigensystem(rb_43d_channels, 0.7)
        for r in (4.0, 7.0, 12.0):
            shifts, vectors = pair_state_basis(eig, r)
            shifts_near, vectors_near = pair_state_basis(eig, r * (1.0 + 1e-12))
            assert np.max(np.abs(shifts_near / shifts - 1.0)) < 1e-10
            assert np.max(np.abs(vectors_near - vectors)) < 1e-9

    @pytest.mark.parametrize("b_field_t", [0.0, 0.01])
    def test_one_pair_matches_the_batch_bit_for_bit(self, rb_43d_channels, b_field_t):
        # in a field too: one pair's defects at its angle are the bits of its
        # row in the batch, and those of its own public eigensystem
        eig = forster_eigensystem(rb_43d_channels, 0.0, b_field_t)
        geo = EnsembleGeometry(random_cloud(np.random.default_rng(4), 12))
        f = ExcitationField(rabi_mhz=np.random.default_rng(4).uniform(0.5, 1.5, 12))
        pairs, shifts, kappas = _pair_spectra(geo, f, eig)
        for (k, l), row_shifts, row_kappas in zip(pairs, shifts, kappas):
            theta, r = geo.axis_theta_rad(k, l), geo.separation_um(k, l)
            one = _driven_states(eig, f.target_m, np.array([r]), np.array([theta]))
            assert np.array_equal(one[0][0], row_shifts)
            local = forster_eigensystem(rb_43d_channels, theta, b_field_t)
            assert np.array_equal(pair_state_basis(local, r)[0], row_shifts)
            assert np.array_equal(overlap_kappa(local, f, (k, l), r_um=r), row_kappas)

    def test_pair_states_form_no_full_product(self, rb_43d_channels):
        # W_0 is formed block by block from eig.block_stack: one call on a 66-pair
        # cloud (driven row) peaks below the (P, N, C N) product of all
        # channels' vectors that forming the whole W_0 takes (2.1 MB that way);
        # at 0.01 T the defects form no per-angle array either (5.2 MB that way)
        geo = EnsembleGeometry(random_cloud(np.random.default_rng(11), 12))
        r_um, theta = geo._pair_axes(*geo._pair_index)
        assert len(r_um) == 66
        for b_field_t in (0.0, 0.01):
            eig = forster_eigensystem(rb_43d_channels, 0.0, b_field_t)
            rows = [_driven_index(eig, 0.5)]
            pair_module._pair_states(eig, r_um, theta, rows)  # fill the caches and eig.block_stack
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                pair_module._pair_states(eig, r_um, theta, rows)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            c, n = eig.d_values.shape
            assert peak < len(r_um) * n * c * n * 8

    @pytest.mark.parametrize("turn_rad", [0.0, 1.9])
    def test_propagation_matches_public_per_pair_hamiltonian(
        self, rb_43d_channels, rb_43d_eigensystem, turn_rad
    ):
        # c_pairs are amplitudes on the canonical pair states, so they match
        # element for element an H built pair by pair from the public calls
        geo = tilted_triangle(turn_rad)
        f = ExcitationField.uniform(3, 1.0)
        out = integrate_amplitudes(
            AmplitudeState.ground(3, 36), geo, f, rb_43d_eigensystem, 0.2
        )
        psi0 = np.zeros(2 + 3 * 36, complex)
        psi0[0] = 1.0
        h = public_pair_hamiltonian(geo, f, rb_43d_channels)
        expected = linalg.expm(-0.2j * h) @ psi0
        assert abs(out.c_g - expected[0]) < 1e-12
        assert abs(out.c_s - expected[1]) < 1e-12
        assert np.max(np.abs(out.c_pairs.ravel() - expected[2:])) < 1e-12
        assert np.max(np.abs(out.c_pairs)) > 1e-3

    @pytest.mark.parametrize("b_field_t", [0.0, 0.01])
    def test_states_have_the_exchange_parity_of_their_sector(self, rb_43d_channels, b_field_t):
        # the pair-frame Gram vectors and pair states of one level each lie
        # in one (M, exchange) sector, and P v = +v in an even sector, -v in
        # an odd one
        eig = forster_eigensystem(rb_43d_channels, 0.0, b_field_t)
        states = list(eig.vectors) + [pair_state_basis(eig, r)[1] for r in (5.0, 10.0)]
        sectors = exchange_sectors(2.5)
        parity = np.tile([1.0, -1.0], len(sectors) // 2)
        for vectors in states:
            coordinates = np.array([np.linalg.norm(b @ vectors, axis=0) for b in sectors])
            own = coordinates.argmax(axis=0)
            coordinates[own, np.arange(36)] = 0.0
            assert np.all(coordinates <= 1e-15)
            assert np.max(np.abs(exchange(vectors) - parity[own] * vectors)) <= 1e-15

    @pytest.mark.parametrize("b_field_t", [0.0, 0.01])
    def test_rounding_level_input_change_moves_no_state(
        self, rb_43d_channels, b_field_t, monkeypatch
    ):
        # above FORSTER_ZERO_FLOOR no sector holds a degenerate pair of 43d
        # Gram states, so a relative change of 2^-52 in every coupling moves
        # the vectors by rounding; in M-blocks alone it moved them by 1.43 of
        # their largest entry. Below the floor two unshifted states of one
        # sector differ by rounding of the 6j symbols alone: with exactly
        # rounded 6j values the [0.0] case moved them by 1.36. The triangle's
        # pairs hold no degenerate pair-state eigenspace inside one sector
        # either, so every amplitude holds as well
        def solve():
            eig = forster_eigensystem(rb_43d_channels, 0.0, b_field_t)
            amplitudes = [
                integrate_amplitudes(
                    AmplitudeState.ground(3, 36),
                    tilted_triangle(turn_rad),
                    ExcitationField.uniform(3, 1.0),
                    eig,
                    0.2,
                ).c_pairs
                for turn_rad in (0.0, 1.9)
            ]
            return eig.vectors, np.array(amplitudes)

        vectors, c_pairs = solve()
        build_vdd_exact = pair_module.build_vdd
        monkeypatch.setattr(
            pair_module, "build_vdd", lambda *args: build_vdd_exact(*args) * (1.0 + 2.0**-52)
        )
        moved_vectors, moved_c_pairs = solve()
        assert np.max(np.abs(moved_vectors - vectors)) <= 1e-12 * np.max(np.abs(vectors))
        assert np.max(np.abs(moved_c_pairs - c_pairs)) <= 1e-12 * np.max(np.abs(c_pairs))

    def test_distinct_levels_match_full_matrix(self):
        # 43d5/2 + 44s1/2: blocks of sizes 1, 2, 2, 2, 2, 2, 1; in a field
        # every block is solved, none taken from its mirror
        d, s = RydbergState(43, 2, 2.5), RydbergState(44, 0, 0.5)
        p = RydbergState(44, 1, 1.5)
        for b_field_t in (0.0, 0.01):
            eig = forster_eigensystem([ForsterChannel((d, s), (p, p), -100.0, 1.0)], 0.4, b_field_t)
            shifts, vectors = pair_state_basis(eig, 0.5)
            scale = np.abs(shifts).max()
            turn = np.kron(wigner_small_d(2.5, 0.4), wigner_small_d(0.5, 0.4))
            full = turn @ np.concatenate(eig.vectors, axis=1)
            w = (full * _channel_shifts_mhz(eig, 0.5, eig.defects_mhz).ravel()) @ full.T
            assert np.max(np.abs(shifts - np.linalg.eigvalsh(w))) < 1e-12 * scale
            assert np.max(np.abs(vectors.T @ vectors - np.eye(12))) < 1e-14
            assert np.max(np.abs(w @ vectors - vectors * shifts)) < 1e-12 * scale


class TestDrivenLevel:
    # 43d5/2 + 44s1/2 -> 44p3/2 + 44p3/2: a 12-dimensional initial space
    # whose two atoms hold different j
    @pytest.mark.parametrize("target_m", [0.5, -1.5])
    def test_distinct_initial_levels_rejected(self, target_m):
        d, s = RydbergState(43, 2, 2.5), RydbergState(44, 0, 0.5)
        p = RydbergState(44, 1, 1.5)
        eig = forster_eigensystem([ForsterChannel((d, s), (p, p), -100.0, 1.0)])
        assert eig.vectors[0].shape == (12, 12)
        f = ExcitationField.uniform(2, 1.0, target_m=target_m)
        with pytest.raises(ValueError, match="one initial level"):
            overlap_kappa(eig, f, r_um=5.0)

    def test_m_outside_the_manifold_rejected(self, rb_s60_eigensystem, rb_43d_eigensystem):
        # m = 0 has no state at j = 1/2, and m = 1 or 2 none at j = 5/2
        # (they rounded to |-1/2, -1/2> and |3/2, 3/2>)
        with pytest.raises(ValueError, match="outside"):
            _driven_index(rb_s60_eigensystem, 0.0)
        with pytest.raises(ValueError, match="outside"):
            overlap_kappa(
                rb_s60_eigensystem, ExcitationField.uniform(2, 1.0, target_m=0.0), r_um=8.0
            )
        for target_m in (1.0, 2.0):
            with pytest.raises(ValueError, match="outside"):
                _driven_index(rb_43d_eigensystem, target_m)
        assert _driven_index(rb_43d_eigensystem, 1.5) == 4 * 6 + 4


class TestDoubleExcitation:
    def test_arithmetic(self):
        f = ExcitationField.uniform(2, 1.0 / math.sqrt(2))
        assert f.omega_n_mhz == pytest.approx(1.0, rel=1e-12)
        assert double_excitation_probability(f, 2, 10.0) == pytest.approx(
            0.0025, rel=1e-12
        )

    def test_large_n_saturates(self):
        b = 10.0
        limit = 1.0 / (2 * b**2)
        p50 = double_excitation_probability(
            ExcitationField.uniform(50, 1.0 / math.sqrt(50)), 50, b
        )
        assert p50 == pytest.approx(limit, rel=0.021)
        p500 = double_excitation_probability(
            ExcitationField.uniform(500, 1.0 / math.sqrt(500)), 500, b
        )
        assert p500 == pytest.approx(limit, rel=0.0021)

    def test_sentinels(self):
        f = ExcitationField.uniform(2, 100.0)
        assert math.isinf(double_excitation_probability(f, 2, 1.0))
        assert math.isinf(double_excitation_probability(f, 2, 0.0))
        assert double_excitation_probability(f, 1, 1.0) == 0.0


class TestIntegration:
    def test_two_level_limit(self):
        # with all doubly-excited states removed the dynamics is exact Rabi
        # oscillation at the collective frequency
        f = ExcitationField.uniform(2, 0.05)
        geo = two_atoms(4.0)
        for frac in (0.25, 0.5, 1.0):
            t = frac / f.omega_n_mhz
            out = integrate_amplitudes(AmplitudeState.ground(1, 0), geo, f, None, t)
            assert abs(out.c_g) ** 2 == pytest.approx(
                math.cos(math.pi * f.omega_n_mhz * t) ** 2, abs=1e-6
            )
            assert abs(out.norm_sq() - 1.0) < 1e-8

    def test_collective_speedup_sqrt2(self, rb_s60_eigensystem):
        omega = 0.05

        def first_minimum(geo, n, eig, guess):
            f = ExcitationField.uniform(n, omega)
            n_pairs = n * (n - 1) // 2
            st = AmplitudeState.ground(n_pairs, pair_state_count(eig))

            def ground_pop(t):
                return abs(integrate_amplitudes(st, geo, f, eig, t).c_g) ** 2

            lo, hi = 0.7 * guess, 1.3 * guess
            for _ in range(36):
                m1, m2 = lo + (hi - lo) / 3, hi - (hi - lo) / 3
                if ground_pop(m1) < ground_pop(m2):
                    hi = m2
                else:
                    lo = m1
            return 0.5 * (lo + hi)

        t1 = first_minimum(
            EnsembleGeometry(np.zeros((1, 3))), 1, None, 1.0 / (2 * omega)
        )
        t2 = first_minimum(
            two_atoms(4.0), 2, rb_s60_eigensystem, 1.0 / (2 * math.sqrt(2) * omega)
        )
        assert t1 / t2 == pytest.approx(math.sqrt(2), rel=1e-3)

    @pytest.mark.parametrize("n_atoms", [2, 3, 4])
    def test_perturbative_p2_oracle(self, rb_s60_eigensystem, n_atoms):
        geo = two_atoms(6.0) if n_atoms == 2 else xy_ring(n_atoms, 6.0)
        probe = ExcitationField.uniform(n_atoms, 0.01)
        b = blockade_shift(geo, probe, rb_s60_eigensystem).b_mhz
        f = ExcitationField.uniform(n_atoms, 0.0999 * b / math.sqrt(n_atoms))
        assert f.omega_n_mhz / b <= 0.1
        st = AmplitudeState.ground(
            n_atoms * (n_atoms - 1) // 2, pair_state_count(rb_s60_eigensystem)
        )
        out = integrate_amplitudes(
            st, geo, f, rb_s60_eigensystem, 1.0 / (2 * f.omega_n_mhz)
        )
        pert = double_excitation_probability(f, n_atoms, b)
        assert out.p2() == pytest.approx(pert, rel=0.25)
        assert abs(out.norm_sq() - 1.0) < 1e-8

    def test_perturbative_p2_tighter_at_weaker_drive(self, rb_s60_eigensystem):
        geo = xy_ring(3, 6.0)
        b = blockade_shift(
            geo, ExcitationField.uniform(3, 0.01), rb_s60_eigensystem
        ).b_mhz
        f = ExcitationField.uniform(3, 0.05 * b / math.sqrt(3))
        st = AmplitudeState.ground(3, pair_state_count(rb_s60_eigensystem))
        out = integrate_amplitudes(
            st, geo, f, rb_s60_eigensystem, 1.0 / (2 * f.omega_n_mhz)
        )
        assert out.p2() == pytest.approx(
            double_excitation_probability(f, 3, b), rel=0.2
        )

    def test_adiabatic_following(self, rb_s60_channels, rb_s60_eigensystem):
        geo = two_atoms(4.0)
        b = blockade_shift(
            geo, ExcitationField.uniform(2, 0.01), rb_s60_eigensystem
        ).b_mhz
        devs = {}
        for ratio in (0.02, 0.01):
            f = ExcitationField.uniform(2, ratio * b / math.sqrt(2))
            t = 0.25 / f.omega_n_mhz
            out = integrate_amplitudes(
                AmplitudeState.ground(1, 4), geo, f, rb_s60_eigensystem, t
            )
            shifts, _ = pair_state_basis(rb_s60_eigensystem, 4.0)
            kap = overlap_kappa(rb_s60_eigensystem, f, (0, 1), r_um=4.0)
            mask = (np.abs(kap) ** 2 > 1e-12) & (shifts != 0)
            predicted = -f.omega_n_mhz * kap[mask] / (2 * shifts[mask]) * out.c_s
            dev = np.max(
                np.abs(out.c_pairs[0][mask] - predicted) / np.abs(predicted)
            )
            devs[ratio] = dev
            assert dev < 5 * ratio / 2
            p2_adiabatic = float(np.sum(np.abs(predicted) ** 2))
            assert out.p2() == pytest.approx(p2_adiabatic, rel=5e-3)
        assert devs[0.01] < devs[0.02]

    def test_decay_damping(self, rb_s60_eigensystem):
        silent = ExcitationField(rabi_mhz=np.zeros(2))
        geo = two_atoms(8.0)
        single = AmplitudeState(c_g=0.0j, c_s=1.0 + 0.0j, c_pairs=np.zeros((1, 4), complex))
        out = integrate_amplitudes(
            single, geo, silent, rb_s60_eigensystem, 5.0, decay_tau_us=10.0
        )
        assert abs(out.c_s) ** 2 == pytest.approx(math.exp(-0.5), abs=1e-6)
        pair_amp = np.zeros((1, 4), complex)
        pair_amp[0, 0] = 1.0
        double = AmplitudeState(c_g=0.0j, c_s=0.0j, c_pairs=pair_amp)
        out2 = integrate_amplitudes(
            double, geo, silent, rb_s60_eigensystem, 5.0, decay_tau_us=10.0
        )
        assert np.sum(np.abs(out2.c_pairs) ** 2) == pytest.approx(
            math.exp(-1.0), abs=1e-6
        )

    def test_hamiltonian_hermitian(self, rb_s60_eigensystem):
        f = ExcitationField.uniform(2, 0.01)
        h = _build_hamiltonian(two_atoms(8.0), f, rb_s60_eigensystem)
        assert np.allclose(h, h.conj().T, atol=1e-14)
        hd = _build_hamiltonian(
            two_atoms(8.0), f, rb_s60_eigensystem, decay_tau_us=10.0
        )
        anti = (hd - hd.conj().T) / 2j
        assert np.all(np.diag(anti) <= 0)
        assert np.allclose(anti - np.diag(np.diag(anti)), 0, atol=1e-14)

    @pytest.mark.parametrize("decay_tau_us", [None, 10.0])
    def test_matches_expm(self, rb_s60_eigensystem, decay_tau_us):
        geo = xy_ring(3, 6.0)
        f = ExcitationField.uniform(3, 0.3)
        rng = np.random.default_rng(11)
        vec = rng.normal(size=14) + 1j * rng.normal(size=14)
        vec /= np.linalg.norm(vec)
        state = AmplitudeState(
            c_g=complex(vec[0]), c_s=complex(vec[1]), c_pairs=vec[2:].reshape(3, 4)
        )
        t = 0.7
        out = integrate_amplitudes(
            state, geo, f, rb_s60_eigensystem, t, decay_tau_us=decay_tau_us
        )
        h = _build_hamiltonian(geo, f, rb_s60_eigensystem, decay_tau_us)
        expected = linalg.expm(-1j * t * h) @ vec
        got = np.concatenate(([out.c_g, out.c_s], out.c_pairs.ravel()))
        assert np.max(np.abs(got - expected)) < 1e-12

    def test_cost_rule_on_the_angular_propagation(self, rb_43d_eigensystem):
        # three 43d atoms, dim 110: the series' fixed cost per term makes
        # eigh the faster method past about 100 terms (t = 1.2 us here)
        side = 10.0
        c, s = math.cos(0.7), math.sin(0.7)
        tilt = np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
        triangle = side * np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, 0.866, 0.0]])
        geo = EnsembleGeometry(triangle @ tilt.T)
        h = _build_hamiltonian(geo, ExcitationField.uniform(3, 1.0), rb_43d_eigensystem)
        assert h.shape == (110, 110)
        psi0 = np.zeros(110, complex)
        psi0[0] = 1.0
        for t, method in ((0.2, "chebyshev"), (2.0, "eigh"), (8.0, "eigh"), (20.0, "eigh")):
            out, ran = ensemble._propagate(h, psi0, [t])
            assert ran == method
            expected = linalg.expm(-1j * t * h) @ psi0
            assert np.max(np.abs(out[:, 0] - expected)) < 1e-12

    @pytest.mark.parametrize("decay_tau_us", [None, 10.0])
    @pytest.mark.parametrize("t_us", [np.nan, np.inf, -1.0])
    def test_bad_time_rejected_on_both_paths(self, rb_s60_eigensystem, t_us, decay_tau_us):
        # the damped path returned nan amplitudes at nan and inf
        with pytest.raises(ValueError, match="t_us"):
            integrate_amplitudes(
                AmplitudeState.ground(1, 4),
                two_atoms(8.0),
                ExcitationField.uniform(2, 0.05),
                rb_s60_eigensystem,
                t_us,
                decay_tau_us=decay_tau_us,
            )

    def test_negative_time_rejected(self, rb_s60_eigensystem):
        with pytest.raises(ValueError):
            integrate_amplitudes(
                AmplitudeState.ground(1, 4),
                two_atoms(8.0),
                ExcitationField.uniform(2, 0.05),
                rb_s60_eigensystem,
                -0.2,
            )

    @pytest.mark.parametrize("t_us", [np.nan, np.inf])
    def test_non_finite_time_rejected(self, rb_s60_eigensystem, t_us):
        with pytest.raises(ValueError, match="finite"):
            integrate_amplitudes(
                AmplitudeState.ground(1, 4),
                two_atoms(8.0),
                ExcitationField.uniform(2, 0.05),
                rb_s60_eigensystem,
                t_us,
            )

    @pytest.mark.parametrize("decay_tau_us", [0.0, -5.0, np.nan])
    def test_non_positive_decay_time_rejected(self, rb_s60_eigensystem, decay_tau_us):
        # a zero, negative or nan lifetime is no damping rate
        with pytest.raises(ValueError, match="decay_tau_us"):
            integrate_amplitudes(
                AmplitudeState.ground(1, 4),
                two_atoms(8.0),
                ExcitationField.uniform(2, 0.3),
                rb_s60_eigensystem,
                1.0,
                decay_tau_us=decay_tau_us,
            )

    def test_state_shape_validation(self, rb_s60_eigensystem):
        f = ExcitationField.uniform(2, 0.05)
        with pytest.raises(ValueError):
            integrate_amplitudes(
                AmplitudeState.ground(1, 3),
                two_atoms(8.0),
                f,
                rb_s60_eigensystem,
                1.0,
            )

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_norm_conserved_random_states(self, rb_s60_eigensystem, seed):
        rng = np.random.default_rng(seed)
        vec = rng.normal(size=6) + 1j * rng.normal(size=6)
        vec /= np.linalg.norm(vec)
        state = AmplitudeState(
            c_g=complex(vec[0]), c_s=complex(vec[1]), c_pairs=vec[2:].reshape(1, 4)
        )
        t = float(rng.uniform(0.1, 3.0))
        out = integrate_amplitudes(
            state,
            two_atoms(6.0),
            ExcitationField.uniform(2, 0.3),
            rb_s60_eigensystem,
            t,
        )
        assert abs(out.norm_sq() - 1.0) < 1e-8


class TestEffectiveInteraction:
    def test_needs_a_drive(self, rb_s60_eigensystem):
        with pytest.raises(ValueError, match="field.omega_rms_mhz must be positive"):
            effective_interaction_mhz(ExcitationField.uniform(2, 0.0), rb_s60_eigensystem, 8.0)

    def test_weak_drive_limit(self, rb_s60_eigensystem):
        shifts, _ = pair_state_basis(rb_s60_eigensystem, 8.0)
        w = (
            np.abs(
                overlap_kappa(
                    rb_s60_eigensystem, ExcitationField.uniform(2, 1.0), r_um=8.0
                )
            )
            ** 2
        )
        nz = w > 1e-12
        for omega in (1e-4, 1e-3):
            f = ExcitationField.uniform(2, omega)
            dd = effective_interaction_mhz(f, rb_s60_eigensystem, 8.0)
            perturbative = float(np.sum(w[nz] * omega**2 / shifts[nz]))
            assert dd == pytest.approx(perturbative, rel=1e-3)

    def test_strong_drive_plateau(self, rb_s60_eigensystem):
        shifts, _ = pair_state_basis(rb_s60_eigensystem, 8.0)
        w = (
            np.abs(
                overlap_kappa(
                    rb_s60_eigensystem, ExcitationField.uniform(2, 1.0), r_um=8.0
                )
            )
            ** 2
        )
        plateau = float(np.sum(shifts[w > 1e-12]))
        d3 = effective_interaction_mhz(
            ExcitationField.uniform(2, 1e3), rb_s60_eigensystem, 8.0
        )
        d4 = effective_interaction_mhz(
            ExcitationField.uniform(2, 1e4), rb_s60_eigensystem, 8.0
        )
        assert d3 == pytest.approx(plateau, rel=1e-5)
        assert d4 == pytest.approx(plateau, rel=1e-7)

    def test_interior_maximum(self, rb_s60_eigensystem):
        f = ExcitationField.uniform(2, 1.0)
        rs = np.linspace(2.0, 30.0, 57)
        vals = [abs(effective_interaction_mhz(f, rb_s60_eigensystem, r)) for r in rs]
        i = int(np.argmax(vals))
        assert 0 < i < len(rs) - 1
        fine = np.linspace(rs[i - 1], rs[i + 1], 201)
        peak = max(
            abs(effective_interaction_mhz(f, rb_s60_eigensystem, r)) for r in fine
        )
        # a single dominant pair state saturates at Omega/2 when its shift
        # sweeps through Omega
        assert peak == pytest.approx(0.5, rel=1e-3)

    def test_zero_drive_rejected(self, rb_s60_eigensystem):
        with pytest.raises(ValueError):
            effective_interaction_mhz(
                ExcitationField(rabi_mhz=np.zeros(2)), rb_s60_eigensystem, 8.0
            )

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_weak_spectra_match_loop_oracle(self, rb_table, seed):
        # Rb 30s at 25-40 um: shifts near 1e-7 MHz whose undriven neighbour
        # lies closer than 1e-9 MHz to the driven eigenspace yet is not in it
        eig = forster_eigensystem(s_state_channels(30, rb_table))
        rng = np.random.default_rng(seed)
        for r_um, omega, target_m in zip(
            rng.uniform(25.0, 40.0, 8),
            10.0 ** rng.uniform(-8.0, 0.0, 8),
            rng.integers(-1, 1, 8) + 0.5,
        ):
            f = ExcitationField.uniform(2, omega, target_m=target_m)
            shifts, _ = pair_state_basis(eig, r_um)
            w = np.abs(overlap_kappa(eig, f, r_um=r_um)) ** 2
            expected = 0.0
            for group in exact_groups(shifts):
                weight = sum(w[i] for i in group)
                if weight >= KAPPA_WEIGHT_FLOOR:
                    delta = sum(shifts[i] for i in group) / len(group)
                    expected += delta * weight * omega**2 / (weight * omega**2 + delta**2)
            got = effective_interaction_mhz(f, eig, r_um)
            assert got == pytest.approx(expected, rel=1e-12)
