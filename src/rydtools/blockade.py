"""Rydberg blockade of a driven ensemble.

The ensemble occupies the ground state, one symmetric singly-excited state,
and doubly-excited pair states. For each atom pair every interaction channel
contributes a level shift; the channel contributions are combined into a
single effective shift operator over the initial Zeeman-pair manifold, whose
eigenstates are the pair states entering the blockade average. The
inverse-square overlap-weighted average of those shifts defines the blockade
shift B; perturbation theory gives the double-excitation probability, and
exact propagation of the truncated amplitude equations validates it for small
systems. The pair states come from pair._pair_states as (pairs, states)
arrays; of the eigensystem this module reads only the state count.

Frequencies are linear (MHz); propagation converts to angular units
internally (rad/us = 2 pi x MHz).
"""

import math
from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np
from scipy import linalg

from .ensemble import propagate
from .pair import _driven_index, _pair_states, forster_eigensystem  # re-exports the last

KAPPA_WEIGHT_FLOOR = 1e-12
# a gap above DEGENERACY_RTOL x max(1 MHz, largest |shift|) between neighbouring
# ascending pair-state shifts opens a new degenerate eigenspace, so a chain of
# close shifts is one: an absolute 1e-9 MHz gap for spectra below 1 MHz
DEGENERACY_RTOL = 1e-9


@dataclass(frozen=True)
class EnsembleGeometry:
    """Fixed atom positions in microns."""

    positions_um: np.ndarray

    def __post_init__(self):
        pos = np.atleast_2d(np.asarray(self.positions_um, dtype=float))
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise ValueError("positions must be an (N, 3) array of microns")
        if not np.isfinite(pos).all():
            raise ValueError("positions must be finite")
        object.__setattr__(self, "positions_um", pos)
        k, l = np.triu_indices(self.n, 1)
        coincide = np.flatnonzero(self._pair_axes(k, l)[0] <= 0.0)
        if coincide.size:
            raise ValueError("atoms %d and %d coincide" % (k[coincide[0]], l[coincide[0]]))

    @property
    def n(self):
        return self.positions_um.shape[0]

    def pairs(self):
        k, l = np.triu_indices(self.n, 1)
        yield from zip(k.tolist(), l.tolist())

    def _pair_axes(self, k, l):
        """(separations, axis angles to z) of the atom pairs (k, l), index
        arrays; one formula for one pair or many, so both agree bit for bit."""
        d = self.positions_um[l] - self.positions_um[k]
        # +/- axis directions are equivalent for a rank-2 interaction; atan2
        # keeps full relative precision near the axis, where acos does not
        theta = np.arctan2(np.hypot(d[..., 0], d[..., 1]), np.abs(d[..., 2]))
        return np.sqrt(np.sum(d * d, axis=-1)), theta

    def separation_um(self, k, l):
        return float(self._pair_axes(k, l)[0])

    def axis_theta_rad(self, k, l):
        """Angle between the pair axis and the quantization axis z."""
        return float(self._pair_axes(k, l)[1])


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
        if not np.isfinite(rabi).all():
            raise ValueError("Rabi frequencies must be finite")
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


def pair_state_basis(eig, r_um):
    """Doubly-excited pair states and their shifts at separation r_um.

    Every channel contributes its eigenstate shifts as a projector sum; the
    combined operator W_0 over the initial Zeeman-pair manifold is
    diagonalized by _m_block_states and turned to eig.theta by D(theta).
    This is the one-pair case of _pair_states, which blockade_shift and
    integrate_amplitudes run for all pairs at once, so they agree bit for
    bit.

    Returns (shifts, vectors): shifts[i] in MHz, ascending (equal shifts of
    +-M partners in ascending M), and vectors[:, i] the pair states over
    the initial (lab-frame) Zeeman-product basis: D(theta) times pair-frame
    states of definite M, each signed by _m_block_states's rule.
    """
    shifts, turned = _pair_states(
        eig, np.array([r_um], float), np.array([eig.theta]), np.arange(pair_state_count(eig))
    )
    return shifts[0], turned[0]


def _laser_weights(field, k, l):
    """Omega_k Omega_l / Omega^2 of the atom pairs (k, l), index arrays; 0
    without drive."""
    omega = field.omega_rms_mhz
    if omega == 0.0:
        return np.zeros(len(k))
    return field.rabi_mhz[k] * field.rabi_mhz[l] / omega**2


def _driven_states(eig, field, r_um, theta):
    """(shifts, kappas) of _pair_states for pairs at r_um and theta, kappas
    the driven product state's unweighted overlaps (the driven row)."""
    shifts, turned = _pair_states(eig, r_um, theta, [_driven_index(eig, field.target_m)])
    return shifts, turned[:, 0]


def overlap_kappa(eig, field, pair=None, *, r_um):
    """Laser-overlap amplitudes kappa over the pair-state basis at r_um.

    Projection of the doubly-driven Zeeman product state onto each pair
    state, weighted by the two atoms' Rabi frequencies relative to the rms
    value. The basis is orthonormal and complete over the initial manifold,
    so the weights satisfy sum |kappa|^2 = |Omega_k Omega_l|^2 / Omega^4
    (unity for uniform drive).
    """
    kappas = _driven_states(eig, field, np.array([r_um], float), np.array([eig.theta]))[1][0]
    return kappas if pair is None else kappas * _laser_weights(field, [pair[0]], [pair[1]])[0]


def _pair_spectra(geometry, field, eig):
    """(pairs, shifts, kappas) of every atom pair, lexicographic: the (k, l)
    list and (P, N) arrays from one _pair_states call.

    Each pair uses its own separation and its exact interatomic-axis angle:
    eig's pair-frame vectors serve every angle, so no pair diagonalizes a
    Gram matrix.
    """
    k, l = np.triu_indices(geometry.n, 1)
    shifts, kappas = _driven_states(eig, field, *geometry._pair_axes(k, l))
    pairs = list(zip(k.tolist(), l.tolist()))
    return pairs, shifts, kappas * _laser_weights(field, k, l)[:, None]


def _eigenspaces(shifts, kappas):
    """(pair, first, delta, weight, inverse_sq) over the degenerate
    eigenspaces (DEGENERACY_RTOL) of each row's ascending shifts, one row
    per pair, whose summed |kappa|^2 is at least KAPPA_WEIGHT_FLOOR: row,
    first state, mean shift, summed |kappa|^2 and sum of |kappa|^2 /
    shift^2, inf when the eigenspace holds a shift within 1e-12 x max(1
    MHz, the row's largest |shift|) of zero. One reduceat over the
    flattened rows."""
    n = shifts.shape[1]
    scale = np.maximum(1.0, np.abs(shifts).max(axis=1, keepdims=True))
    opens = np.ones(shifts.shape, bool)
    opens[:, 1:] = shifts[:, 1:] - shifts[:, :-1] > DEGENERACY_RTOL * scale
    starts = np.flatnonzero(opens)
    flat = shifts.ravel()
    weights = np.abs(kappas.ravel()) ** 2
    zero_state = (np.abs(shifts) <= 1e-12 * scale).ravel()
    weight = np.add.reduceat(weights, starts)
    delta = np.add.reduceat(flat, starts) / np.add.reduceat(np.ones(flat.size), starts)
    inverse_sq = np.add.reduceat(weights / np.where(zero_state, 1.0, flat) ** 2, starts)
    inverse_sq[np.logical_or.reduceat(zero_state, starts)] = math.inf
    keep = weight >= KAPPA_WEIGHT_FLOOR
    pair, first = np.divmod(starts[keep], n)
    return pair, first, delta[keep], weight[keep], inverse_sq[keep]


@dataclass
class BlockadeResult:
    """Mean blockade shift with its per-eigenspace audit trail: one row
    (k, l, p_idx, term) per atom pair and _eigenspaces entry, p_idx the
    eigenspace's first state and term its sum of |kappa|^2 / delta^2 (inf
    on a zero shift). zero_term is the (p_idx, k, l) of the last inf term;
    B is then 0, p2 inf and blockade_valid False."""

    b_mhz: float
    p2: float
    n_atoms: int
    omega_n_mhz: float
    contributions: list = dc_field(default_factory=list)
    blockade_valid: bool = True
    zero_term: Optional[tuple] = None


def blockade_shift(geometry, field, eig):
    """Inverse-square laser-weighted average of pair interaction shifts.

    Each atom pair uses its own separation and its exact interatomic-axis
    angle; all pairs' states come from one _pair_states call (one batched
    M-block eigh) and their terms from one _eigenspaces call, so the
    contribution table, sorted weakest blockade first (ties in pair order),
    does not depend on the basis inside a degenerate eigenspace.
    B = sqrt(N (N-1) / (2 sum of terms)): a zero shift with laser overlap
    makes the sum inf and B = 0 (zero_term).
    """
    if geometry.n != field.n_atoms:
        raise ValueError("field and geometry atom counts differ")
    if geometry.n < 2:
        raise ValueError("blockade shift needs at least two atoms")
    pairs, shifts, kappas = _pair_spectra(geometry, field, eig)
    pair, first, _, _, terms = _eigenspaces(shifts, kappas)
    zero = np.flatnonzero(np.isinf(terms))
    zero_term = (int(first[zero[-1]]),) + pairs[pair[zero[-1]]] if zero.size else None
    total = float(np.sum(terms))
    rank = np.argsort(-terms, kind="stable")
    rows = zip(pair[rank].tolist(), first[rank].tolist(), terms[rank].tolist())
    contributions = [pairs[p] + (p_idx, term) for p, p_idx, term in rows]
    n = geometry.n
    b = math.sqrt(n * (n - 1) / (2.0 * total)) if total > 0 else math.inf
    p2 = double_excitation_probability(field, n, b)
    return BlockadeResult(
        b_mhz=b,
        p2=p2,
        n_atoms=n,
        omega_n_mhz=field.omega_n_mhz,
        contributions=contributions,
        blockade_valid=math.isfinite(p2) and p2 <= 1.0,
        zero_term=zero_term,
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
    pair state, in pair_state_basis order: ascending shift, +-M partners of
    equal shift in ascending M. The states are canonical (definite M in the
    pair frame, a fixed sign rule), so each amplitude is reproducible.
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
    n_pairs = geometry.n * (geometry.n - 1) // 2
    n_phi = pair_state_count(eig)
    dim = 2 + n_pairs * n_phi
    h = np.zeros((dim, dim), complex)
    omega_n = 2.0 * math.pi * field.omega_n_mhz
    h[0, 1] = omega_n / 2.0
    h[1, 0] = omega_n / 2.0
    if n_phi and n_pairs:
        _, shifts, kappas = _pair_spectra(geometry, field, eig)
        coupling = omega_n * kappas.ravel() / geometry.n
        h[1, 2:] = np.conj(coupling)
        h[2:, 1] = coupling
        diagonal = np.arange(2, dim)
        h[diagonal, diagonal] = 2.0 * math.pi * shifts.ravel()
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
    case, and the matrix exponential of the non-Hermitian H when a positive
    decay_tau_us adds damping. Passing eig=None removes all doubly-excited
    states (fully blockaded two-level limit).
    """
    if not 0 <= t_us < math.inf:
        raise ValueError("t_us must be finite and nonnegative, got %r" % (t_us,))
    if decay_tau_us is not None and not decay_tau_us > 0:
        raise ValueError("decay_tau_us must be positive, got %r" % (decay_tau_us,))
    n_phi = pair_state_count(eig)
    n_pairs = geometry.n * (geometry.n - 1) // 2
    if state.c_pairs.shape != (n_pairs, n_phi):
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
        c_pairs=psi[2:].reshape(n_pairs, n_phi),
    )


def _grouped_spectra(field, eig, r_um, theta):
    """(delta, w), (R, G) arrays over R pairs at separations r_um and angles
    theta (arrays), from one _pair_states call: each row holds its pair's
    _eigenspaces mean shifts and the driven state's summed overlap on each,
    padded to the longest row with delta = 1, w = 0, which adds exact zeros
    in _saturated_shift. field sets only the driven Zeeman component."""
    r_um = np.asarray(r_um, dtype=float)
    spectra = _driven_states(eig, field, r_um, np.asarray(theta, dtype=float))
    pair, _, delta, weight, _ = _eigenspaces(*spectra)
    column = np.arange(pair.size) - np.searchsorted(pair, pair)
    shape = (r_um.size, column.max(initial=-1) + 1)
    padded = np.ones(shape), np.zeros(shape)
    padded[0][pair, column], padded[1][pair, column] = delta, weight
    return padded


def _saturated_shift(spectrum, omega_mhz):
    """(s, s') of every row of a grouped spectrum (delta, w) at rms drives
    omega_mhz, an array whose last axis runs over (or broadcasts to) the
    rows: s = sum delta w Omega^2 / (w Omega^2 + delta^2) and its slope
    s' = sum 2 w Omega delta^3 / (w Omega^2 + delta^2)^2."""
    delta, w = spectrum
    omega = np.asarray(omega_mhz, dtype=float)[..., None]
    coupling_sq = w * omega**2
    denom = coupling_sq + delta**2
    shift = np.sum(coupling_sq / denom * delta, axis=-1)
    return shift, np.sum(2.0 * w * omega * delta**3 / denom**2, axis=-1)


def effective_interaction_mhz(field, eig, r_um):
    """Two-atom effective interaction of the doubly-driven product state.

    Each degenerate pair-state eigenspace contributes its mean shift delta
    weighted by the saturation factor w Omega^2 / (w Omega^2 + delta^2),
    with w the driven state's summed overlap on it and Omega the rms drive.
    The eigenspaces are those of _eigenspaces (neighbour gaps of at most
    DEGENERACY_RTOL, w at least KAPPA_WEIGHT_FLOOR): eigenvectors inside a
    degenerate subspace are an arbitrary rotation and only the summed
    overlap is physical (the saturation factor is not invariant under
    splitting one weight across equal shifts). The sum is _saturated_shift
    on row 0 of the one-row _grouped_spectra, the same arrays that
    optimize_interaction_gate scores at every trial drive together with
    their analytic slope.
    """
    omega = field.omega_rms_mhz
    if omega <= 0:
        raise ValueError("effective interaction needs a positive drive")
    return float(_saturated_shift(_grouped_spectra(field, eig, [r_um], [eig.theta]), omega)[0][0])
