"""Rydberg blockade of a driven ensemble.

The ensemble occupies the ground state, one symmetric singly-excited state,
and doubly-excited pair states. For each atom pair every interaction channel
contributes a level shift; the channel contributions are combined into a
single effective shift operator over the initial Zeeman-pair manifold, whose
eigenstates are the pair states entering the blockade average. The
inverse-square overlap-weighted average of those shifts defines the blockade
shift B; perturbation theory gives the double-excitation probability, and
exact propagation of the truncated amplitude equations validates it for small
systems.

Frequencies are linear (MHz); propagation converts to angular units
internally (rad/us = 2 pi x MHz).
"""

import math
from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np
from scipy import linalg

from .ensemble import propagate
from .pair import (  # also re-exports forster_eigensystem
    FORSTER_ZERO_FLOOR,
    _at_angle,
    _level_key,
    _pair_rotation,
    forster_eigensystem,
    pair_shift_mhz,
)

KAPPA_WEIGHT_FLOOR = 1e-12
# pair-state shifts closer than DEGENERACY_RTOL x max(1 MHz, largest |shift|)
# are treated as one degenerate eigenspace: an absolute 1e-9 MHz for spectra
# below 1 MHz
DEGENERACY_RTOL = 1e-9


@dataclass(frozen=True)
class EnsembleGeometry:
    """Fixed atom positions in microns."""

    positions_um: np.ndarray

    def __post_init__(self):
        pos = np.atleast_2d(np.asarray(self.positions_um, dtype=float))
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise ValueError("positions must be an (N, 3) array of microns")
        object.__setattr__(self, "positions_um", pos)
        if self.n >= 2:
            for k, l in self.pairs():
                if self.separation_um(k, l) <= 0.0:
                    raise ValueError("atoms %d and %d coincide" % (k, l))

    @property
    def n(self):
        return self.positions_um.shape[0]

    def pairs(self):
        for k in range(self.n):
            for l in range(k + 1, self.n):
                yield k, l

    def separation_um(self, k, l):
        return float(np.linalg.norm(self.positions_um[l] - self.positions_um[k]))

    def axis_theta_rad(self, k, l):
        """Angle between the pair axis and the quantization axis z."""
        d = self.positions_um[l] - self.positions_um[k]
        # +/- axis directions are equivalent for a rank-2 interaction; atan2
        # keeps full relative precision near the axis, where acos does not
        return math.atan2(math.hypot(d[0], d[1]), abs(d[2]))


@dataclass(frozen=True)
class ExcitationField:
    """Per-atom excitation Rabi frequencies and polarization geometry.

    polarization is the net Zeeman quantum transferred to the Rydberg state;
    the driven Rydberg Zeeman component is ground_m + polarization.
    """

    rabi_mhz: np.ndarray
    polarization: int = 0
    ground_m: float = 0.5

    def __post_init__(self):
        rabi = np.atleast_1d(np.asarray(self.rabi_mhz, dtype=complex))
        if rabi.ndim != 1 or rabi.size < 1:
            raise ValueError("need at least one single-atom Rabi frequency")
        object.__setattr__(self, "rabi_mhz", rabi)

    @classmethod
    def uniform(cls, n_atoms, omega_mhz, **kwargs):
        return cls(rabi_mhz=np.full(n_atoms, omega_mhz, dtype=complex), **kwargs)

    @property
    def n_atoms(self):
        return self.rabi_mhz.size

    @property
    def omega_rms_mhz(self):
        return float(np.sqrt(np.mean(np.abs(self.rabi_mhz) ** 2)))

    @property
    def omega_n_mhz(self):
        """Collective Rabi frequency sqrt(N) x rms single-atom value."""
        return float(np.sqrt(np.sum(np.abs(self.rabi_mhz) ** 2)))

    @property
    def target_m(self):
        return self.ground_m + self.polarization


def _driven_index(eig, target_m):
    """Index of the driven Zeeman product |target_m, target_m> in the
    initial pair basis shared by all channels of the eigensystem. Both
    atoms are driven to the same level, so the pair's two initial levels
    must be one."""
    first, second = eig.channels[0].initial
    if _level_key(first) != _level_key(second):
        raise ValueError(
            "the driven pair needs one initial level, got %s and %s"
            % (first.label, second.label)
        )
    j = first.j
    if abs(target_m) > j or abs(2 * target_m - round(2 * target_m)) > 1e-9:
        raise ValueError(
            "drive targets m=%s outside the j=%s Zeeman manifold" % (target_m, j)
        )
    dim = round(2 * j) + 1
    offset = round(target_m + j)
    return offset * dim + offset


def _channel_shifts_mhz(eig, r_um):
    """Interaction shift of every channel eigenstate at separation r_um, the
    channels' eigenstates concatenated in order.

    Eigenstates below the coupling floor are unshifted by their channel.
    """
    d_vals = np.concatenate(eig.d_values)
    sizes = [len(d) for d in eig.d_values]
    c3 = np.repeat([ch.c3_mhz_um3 for ch in eig.channels], sizes)
    shifts = pair_shift_mhz(np.concatenate(eig.defects_mhz), c3, d_vals, r_um)
    return np.where(d_vals >= FORSTER_ZERO_FLOOR, shifts, 0.0)


def pair_state_basis(eig, r_um):
    """Doubly-excited pair states and their shifts at separation r_um.

    Every channel contributes its eigenstate shifts as a projector sum; the
    combined operator W_0 = V diag(s) V^T over the initial Zeeman-pair
    manifold, with V all channels' pair-frame vectors side by side, is
    diagonalized once and its eigenvectors are turned to eig.theta by the
    one Wigner rotation D(theta).

    Returns (shifts, vectors): shifts[i] in MHz, ascending, and vectors[:, i]
    the pair states over the initial (lab-frame) Zeeman-product basis.
    """
    vectors = np.concatenate(eig.vectors, axis=1)
    w = (vectors * _channel_shifts_mhz(eig, r_um)) @ vectors.T
    shifts, states = np.linalg.eigh(w)
    return shifts, _pair_rotation(eig.channels[0].initial, eig.theta) @ states


def _shifts_and_kappas(eig, field, pair, r_um):
    """Pair-state shifts and laser overlaps from one pair_state_basis call."""
    idx = _driven_index(eig, field.target_m)
    if pair is None:
        prefactor = 1.0
    else:
        k, l = pair
        omega = field.omega_rms_mhz
        if omega == 0.0:
            prefactor = 0.0
        else:
            prefactor = (field.rabi_mhz[k] * field.rabi_mhz[l]) / omega**2
    shifts, vectors = pair_state_basis(eig, r_um)
    return shifts, vectors[idx, :].conj() * prefactor


def overlap_kappa(eig, field, pair=None, *, r_um):
    """Laser-overlap amplitudes kappa over the pair-state basis at r_um.

    Projection of the doubly-driven Zeeman product state onto each pair
    state, weighted by the two atoms' Rabi frequencies relative to the rms
    value. The basis is orthonormal and complete over the initial manifold,
    so the weights satisfy sum |kappa|^2 = |Omega_k Omega_l|^2 / Omega^4
    (unity for uniform drive).
    """
    return _shifts_and_kappas(eig, field, pair, r_um)[1]


def _pair_spectra(geometry, field, eig):
    """(k, l, shifts, kappas) of every atom pair in lexicographic order.

    Each pair uses its own separation and its exact interatomic-axis angle:
    eig's pair-frame vectors serve every angle, and pair._at_angle only
    sets theta (and the defects in a field), so no pair diagonalizes a
    Gram matrix.
    """
    by_angle = {}
    for k, l in geometry.pairs():
        theta = geometry.axis_theta_rad(k, l)
        if theta not in by_angle:
            by_angle[theta] = _at_angle(eig, theta)
        r_um = geometry.separation_um(k, l)
        yield (k, l) + _shifts_and_kappas(by_angle[theta], field, (k, l), r_um)


@dataclass
class BlockadeResult:
    """Mean blockade shift with its per-eigenspace audit trail: one row
    (k, l, p_idx, term) of contributions per atom pair and degenerate
    pair-state eigenspace of summed |kappa|^2 >= KAPPA_WEIGHT_FLOOR, p_idx
    its first state and term its sum of |kappa|^2 / delta^2."""

    b_mhz: float
    p2: float
    n_atoms: int
    omega_n_mhz: float
    contributions: list = dc_field(default_factory=list)
    blockade_valid: bool = True
    zero_term: Optional[tuple] = None


def _degenerate_starts(shifts):
    """Start index of each degenerate eigenspace of ascending shifts: a shift
    joins the open eigenspace while it lies within DEGENERACY_RTOL x max(1
    MHz, largest |shift|) of the eigenspace's first shift."""
    tol = DEGENERACY_RTOL * max(1.0, float(np.max(np.abs(shifts))))
    values = shifts.tolist()
    starts = [0]
    for i, value in enumerate(values):
        if value - values[starts[-1]] > tol:
            starts.append(i)
    return starts


def blockade_shift(geometry, field, eig):
    """Inverse-square laser-weighted average of pair interaction shifts.

    Each atom pair uses its own separation and its exact interatomic-axis
    angle. Terms are summed per degenerate pair-state eigenspace, so the
    contribution table does not depend on the basis chosen inside one; it
    is sorted so the weakest-blockade terms come first. An eigenspace with
    zero shift but nonzero laser overlap short-circuits the blockade: B = 0
    is reported with the offending (pair-state, k, l) triple, the
    eigenspace's first state.
    """
    if geometry.n != field.n_atoms:
        raise ValueError("field and geometry atom counts differ")
    if geometry.n < 2:
        raise ValueError("blockade shift needs at least two atoms")
    total = 0.0
    contributions = []
    zero_term = None
    for k, l, shifts, kappas in _pair_spectra(geometry, field, eig):
        # zero within 1e-12 x max(1 MHz, largest |shift| of the pair): an
        # absolute 1e-12 MHz for spectra below 1 MHz
        zero_tol = 1e-12 * max(1.0, float(np.max(np.abs(shifts))))
        weights = np.abs(kappas) ** 2
        zero_state = np.abs(shifts) <= zero_tol
        starts = np.array(_degenerate_starts(shifts))
        keep = np.add.reduceat(weights, starts) >= KAPPA_WEIGHT_FLOOR
        inverse_sq = weights / np.where(zero_state, 1.0, shifts) ** 2
        terms = np.add.reduceat(inverse_sq, starts)[keep]
        zero = np.logical_or.reduceat(zero_state, starts)[keep]
        first = starts[keep]
        terms[zero] = math.inf
        if zero.any():
            zero_term = (int(first[zero][-1]), k, l)
        total += float(np.sum(terms[~zero]))
        rows = zip(first.tolist(), terms.tolist())
        contributions.extend((k, l, p_idx, term) for p_idx, term in rows)
    contributions.sort(key=lambda row: -row[-1])
    n = geometry.n
    if zero_term is not None:
        return BlockadeResult(
            b_mhz=0.0,
            p2=math.inf,
            n_atoms=n,
            omega_n_mhz=field.omega_n_mhz,
            contributions=contributions,
            blockade_valid=False,
            zero_term=zero_term,
        )
    b = math.sqrt(n * (n - 1) / (2.0 * total)) if total > 0 else math.inf
    p2 = double_excitation_probability(field, n, b)
    return BlockadeResult(
        b_mhz=b,
        p2=p2,
        n_atoms=n,
        omega_n_mhz=field.omega_n_mhz,
        contributions=contributions,
        blockade_valid=math.isfinite(p2) and p2 <= 1.0,
    )


def double_excitation_probability(field, n_atoms, b_mhz):
    """Perturbative two-excitation probability ((N-1)/N) OmegaN^2 / 2B^2.

    Returns math.inf when the perturbative expression leaves [0, 1] (the
    blockade assumption is then invalid).
    """
    if n_atoms < 2:
        return 0.0
    if b_mhz == 0.0:
        return math.inf
    p2 = ((n_atoms - 1) / n_atoms) * field.omega_n_mhz**2 / (2.0 * b_mhz**2)
    return p2 if p2 <= 1.0 else math.inf


@dataclass
class AmplitudeState:
    """Amplitudes over ground, symmetric singly-excited and pair states.

    c_pairs has one row per atom pair (lexicographic k<l) and one column per
    pair state (shift-ascending order of that pair's basis).
    """

    c_g: complex
    c_s: complex
    c_pairs: np.ndarray

    @classmethod
    def ground(cls, n_pairs, n_phi):
        return cls(c_g=1.0 + 0.0j, c_s=0.0j, c_pairs=np.zeros((n_pairs, n_phi), complex))

    def norm_sq(self):
        return float(
            abs(self.c_g) ** 2 + abs(self.c_s) ** 2 + np.sum(np.abs(self.c_pairs) ** 2)
        )

    def p2(self):
        return float(np.sum(np.abs(self.c_pairs) ** 2))


def pair_state_count(eig):
    """Dimension of the doubly-excited basis per atom pair."""
    return 0 if eig is None else eig.vectors[0].shape[0]


def _build_hamiltonian(geometry, field, eig, decay_tau_us=None):
    """Dense (angular, rad/us) Hamiltonian of the truncated amplitude system."""
    pairs = list(geometry.pairs())
    n_phi = pair_state_count(eig)
    dim = 2 + len(pairs) * n_phi
    h = np.zeros((dim, dim), complex)
    omega_n = 2.0 * math.pi * field.omega_n_mhz
    h[0, 1] = omega_n / 2.0
    h[1, 0] = omega_n / 2.0
    if n_phi and pairs:
        _, _, shifts, kappas = zip(*_pair_spectra(geometry, field, eig))
        coupling = omega_n * np.concatenate(kappas) / geometry.n
        h[1, 2:] = np.conj(coupling)
        h[2:, 1] = coupling
        diagonal = np.arange(2, dim)
        h[diagonal, diagonal] = 2.0 * math.pi * np.concatenate(shifts)
    if decay_tau_us is not None:
        gamma = 1.0 / (2.0 * decay_tau_us)
        damping = np.zeros(dim)
        damping[1] = gamma
        damping[2:] = 2.0 * gamma
        h = h - 1j * np.diag(damping)
    return h


def integrate_amplitudes(state, geometry, field, eig, t_us, decay_tau_us=None):
    """Evolve the truncated amplitude system for t_us microseconds.

    Exact propagation under the constant Hamiltonian: ensemble.propagate
    (dense eigh or the Chebyshev series, by its cost rule) in the Hermitian
    case, and the matrix exponential of the non-Hermitian H when
    decay_tau_us adds damping. Passing eig=None removes all
    doubly-excited states (fully blockaded two-level limit).
    """
    if t_us < 0:
        raise ValueError("t_us must be nonnegative, got %r" % (t_us,))
    n_phi = pair_state_count(eig)
    pairs = list(geometry.pairs())
    if state.c_pairs.shape != (len(pairs), n_phi):
        raise ValueError("amplitude state shape does not match geometry/eigensystem")
    h_matrix = _build_hamiltonian(geometry, field, eig, decay_tau_us)
    psi = np.concatenate(([state.c_g, state.c_s], state.c_pairs.ravel()))
    if decay_tau_us is None:
        psi = propagate(h_matrix, psi, [t_us])[:, 0]
    else:
        psi = linalg.expm(-1j * t_us * h_matrix) @ psi
    return AmplitudeState(
        c_g=complex(psi[0]),
        c_s=complex(psi[1]),
        c_pairs=psi[2:].reshape(len(pairs), n_phi),
    )


def _grouped_spectrum(field, eig, r_um):
    """(delta, w) arrays of the distinct pair-state shifts at r_um and the
    driven state's total overlap on each shift's eigenspace. field sets
    only the driven Zeeman component."""
    shifts, kappas = _shifts_and_kappas(eig, field, None, r_um)
    starts = _degenerate_starts(shifts)
    w = np.add.reduceat(np.abs(kappas) ** 2, starts)
    delta = np.add.reduceat(shifts, starts) / np.diff(starts + [len(shifts)])
    keep = w >= KAPPA_WEIGHT_FLOOR
    return delta[keep], w[keep]


def _saturated_shift(spectrum, omega_mhz):
    """(s, s') at rms drive omega_mhz, which may be an array, for a grouped
    spectrum (delta, w): s = sum delta w Omega^2 / (w Omega^2 + delta^2)
    and its slope s' = sum 2 w Omega delta^3 / (w Omega^2 + delta^2)^2."""
    delta, w = spectrum
    omega = np.asarray(omega_mhz, dtype=float)[..., None]
    coupling_sq = w * omega**2
    denom = coupling_sq + delta**2
    shift = np.sum(coupling_sq / denom * delta, axis=-1)
    return shift, np.sum(2.0 * w * omega * delta**3 / denom**2, axis=-1)


def effective_interaction_mhz(field, eig, r_um):
    """Two-atom effective interaction of the doubly-driven product state.

    Each distinct pair-state shift delta contributes delta weighted by the
    saturation factor w Omega^2 / (w Omega^2 + delta^2), with w the driven
    state's total overlap on that shift's eigenspace and Omega the rms drive.
    Shifts that agree to DEGENERACY_RTOL are grouped first: eigenvectors
    inside a degenerate subspace are an arbitrary rotation and only the
    summed overlap is physical (the saturation factor is not invariant under
    splitting one weight across equal shifts). Groups with w below
    KAPPA_WEIGHT_FLOOR are dropped. The sum is _saturated_shift on the
    (delta, w) arrays of _grouped_spectrum, which optimize_interaction_gate
    evaluates at every trial drive together with its analytic slope.
    """
    omega = field.omega_rms_mhz
    if omega <= 0:
        raise ValueError("effective interaction needs a positive drive")
    return float(_saturated_shift(_grouped_spectrum(field, eig, r_um), omega)[0])
