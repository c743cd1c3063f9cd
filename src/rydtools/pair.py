"""Dipole-dipole pair interactions between Rydberg atoms.

A coupling channel connects an initial pair of levels to an energy-nearby
coupled pair through the dipole-dipole operator. Diagonalizing the squared
coupling on the initial Zeeman product space gives dimensionless interaction
strengths D_phi; together with the channel energy defect and the radial
coupling scale C3 these parameterize the R-dependent pair potential curves,
their resonant-to-van-der-Waals crossover, and the blockade-relevant
eigenstate structure.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np

from . import constants as cst
from .angular import dipole_angular_factor, lande_g
from .atoms import RydbergState, radial_matrix_element

FORSTER_ZERO_FLOOR = 1e-8


def _level_key(state):
    return (state.n, state.l, state.j)


def _m_values(j):
    two_j = round(2 * j)
    return [m / 2.0 for m in range(-two_j, two_j + 1, 2)]


def _zeeman_states(state):
    return [state.with_m(m) for m in _m_values(state.j)]


@dataclass(frozen=True)
class ForsterChannel:
    """One dipole-dipole coupling channel between pair levels.

    The coupled pair is stored in canonical order; when its two levels
    differ, both physical orderings belong to the channel and are included
    in the coupling matrix.
    """

    initial: tuple
    coupled: tuple
    defect_mhz: float
    c3_mhz_um3: float

    @property
    def label(self):
        return "%s+%s->%s+%s" % (
            self.initial[0].label,
            self.initial[1].label,
            self.coupled[0].label,
            self.coupled[1].label,
        )


def _require_dipole_allowed(a, c):
    if abs(a.l - c.l) != 1 or abs(a.j - c.j) > 1:
        raise ValueError(
            "channel leg %s -> %s is not dipole-allowed" % (a.label, c.label)
        )


def make_channel(initial_pair, coupled_pair, table):
    """Assemble a ForsterChannel: defect from level energies, C3 from radials.

    C3 = e^2 <r>_a <r>_b expressed in MHz um^3; the energy defect is
    E(coupled) - E(initial) in MHz, signed.
    """
    i1, i2 = initial_pair
    c1, c2 = coupled_pair
    if _level_key(c2) < _level_key(c1):
        c1, c2 = c2, c1
    if _level_key(i1) != _level_key(i2) and _level_key(c1) != _level_key(c2):
        raise ValueError(
            "channels with two distinct coupled levels require identical initial levels"
        )
    _require_dipole_allowed(i1, c1)
    _require_dipole_allowed(i2, c2)
    energy = table.energy_ghz
    defect_mhz = 1e3 * (energy(c1) + energy(c2) - energy(i1) - energy(i2))
    rad_1 = radial_matrix_element(i1, c1, table)
    rad_2 = radial_matrix_element(i2, c2, table)
    c3 = cst.EA0_SQ_MHZ_UM3 * rad_1 * rad_2
    if c3 == 0.0:
        raise ValueError("channel %s has vanishing radial coupling" % (c1.label,))
    return ForsterChannel(
        initial=(i1, i2), coupled=(c1, c2), defect_mhz=defect_mhz, c3_mhz_um3=c3
    )


def s_state_channels(n, table):
    """The four fine-structure exchange channels n s + n s -> n p_ja + (n-1) p_jb.

    These are the dominant dipole-coupled channels for a pair of atoms in the
    same s-state and drive both the van der Waals shift and the blockade.
    """
    s = RydbergState(n, 0, 0.5)
    return [
        make_channel(
            (s, s),
            (RydbergState(n, 1, ja), RydbergState(n - 1, 1, jb)),
            table,
        )
        for ja in (1.5, 0.5)
        for jb in (1.5, 0.5)
    ]


def _c2_component(q, theta):
    # rank-2 spherical harmonic direction factors C^2_q(theta, phi=0)
    c, s = math.cos(theta), math.sin(theta)
    if q == 0:
        return 0.5 * (3.0 * c * c - 1.0)
    if abs(q) == 1:
        return -q * math.sqrt(1.5) * s * c
    return math.sqrt(3.0 / 8.0) * s * s


def _cg_11_2(mu, nu):
    # <1 mu 1 nu | 2 mu+nu> Clebsch-Gordan coefficients
    q = mu + nu
    if abs(q) == 2:
        return 1.0
    if abs(q) == 1:
        return 1.0 / math.sqrt(2.0)
    if mu == 0 and nu == 0:
        return math.sqrt(2.0 / 3.0)
    return 1.0 / math.sqrt(6.0)


@lru_cache(maxsize=None)
def _ordering_amplitudes(initial_lj, final_lj):
    """Angle-independent factors of <final Zeeman pair| a.b - 3(a.n)(n.b) |initial>.

    Every element couples Zeeman pairs whose m differ by mu on one atom and
    nu on the other, so it carries the single direction factor C^2_{-q}(theta)
    with q = mu + nu. Returns (amplitudes, qmap): the element's coefficient
    of that factor, and q + 2. Both depend only on the (l, j) of the four
    legs, so channels at every n share them; the arrays are read-only.
    """
    (li1, ji1), (li2, ji2) = initial_lj
    (lf1, jf1), (lf2, jf2) = final_lj
    rows = [(ma, mb) for ma in _m_values(jf1) for mb in _m_values(jf2)]
    cols = [(ma, mb) for ma in _m_values(ji1) for mb in _m_values(ji2)]
    amplitudes = np.zeros((len(rows), len(cols)))
    qmap = np.full(amplitudes.shape, 2)
    for row, (fa, fb) in enumerate(rows):
        for col, (ia, ib) in enumerate(cols):
            mu, nu = round(fa - ia), round(fb - ib)
            if abs(mu) > 1 or abs(nu) > 1:
                continue
            q = mu + nu
            amplitudes[row, col] = (
                -math.sqrt(6.0)
                * (-1) ** q
                * _cg_11_2(mu, nu)
                * dipole_angular_factor(lf1, jf1, fa, li1, ji1, ia, mu)
                * dipole_angular_factor(lf2, jf2, fb, li2, ji2, ib, nu)
            )
            qmap[row, col] = q + 2
    amplitudes.flags.writeable = False
    qmap.flags.writeable = False
    return amplitudes, qmap


def build_vdd(channel, theta=0.0):
    """Dimensionless dipole-dipole coupling matrix of a channel.

    Returns the matrix of angular factors such that the physical coupling is
    (C3 / R^3) times the returned matrix, rows indexing the coupled Zeeman
    pair space (both orderings stacked when the coupled levels differ) and
    columns the initial Zeeman pair space. Each element is a cached
    angle-independent amplitude times one direction factor C^2_{-q}(theta),
    so the matrix is exact at every angle.
    """
    c1, c2 = channel.coupled
    _require_dipole_allowed(channel.initial[0], c1)
    _require_dipole_allowed(channel.initial[1], c2)
    c2_minus_q = np.array([_c2_component(-q, theta) for q in range(-2, 3)])
    orderings = [(c1, c2)]
    if _level_key(c1) != _level_key(c2):
        orderings.append((c2, c1))
    initial_lj = tuple((s.l, s.j) for s in channel.initial)
    blocks = []
    for final_pair in orderings:
        amplitudes, qmap = _ordering_amplitudes(
            initial_lj, tuple((s.l, s.j) for s in final_pair)
        )
        blocks.append(amplitudes * c2_minus_q[qmap])
    return np.vstack(blocks)


@dataclass
class ForsterEigensystem:
    """Eigen-decomposition of V_dd^dagger V_dd per channel.

    For each channel: dimensionless eigenvalues d_values (ascending),
    eigenvectors (columns, over the initial Zeeman product space) and the
    per-eigenstate energy defects (Zeeman-shifted when a magnetic field is
    present). forster_zero_count tallies eigenvalues below the zero floor.
    """

    channels: list
    theta: float
    b_field_t: float
    d_values: list = field(default_factory=list)
    vectors: list = field(default_factory=list)
    defects_mhz: list = field(default_factory=list)
    forster_zero_count: int = 0


def _zeeman_diagonal(pair_states):
    s1_list = _zeeman_states(pair_states[0])
    s2_list = _zeeman_states(pair_states[1])
    diag = np.zeros(len(s1_list) * len(s2_list))
    for a_idx, sa in enumerate(s1_list):
        ga = lande_g(sa.l, sa.j)
        for b_idx, sb in enumerate(s2_list):
            gb = lande_g(sb.l, sb.j)
            diag[a_idx * len(s2_list) + b_idx] = ga * sa.m + gb * sb.m
    return diag


def forster_eigensystem(channels, theta=0.0, b_field_t=0.0):
    """Diagonalize each channel's squared coupling on the initial pair space."""
    if not channels:
        raise ValueError("need at least one channel")
    key0 = tuple(_level_key(s) for s in channels[0].initial)
    for ch in channels[1:]:
        if tuple(_level_key(s) for s in ch.initial) != key0:
            raise ValueError("all channels must share the same initial pair")
    eig = ForsterEigensystem(channels=list(channels), theta=theta, b_field_t=b_field_t)
    zeros = 0
    for ch in channels:
        m = build_vdd(ch, theta)
        gram = m.T @ m
        vals, vecs = np.linalg.eigh(gram)
        vals = np.clip(vals, 0.0, None)
        defects = np.full(len(vals), ch.defect_mhz)
        if b_field_t != 0.0:
            mu_b = cst.MU_B_MHZ_PER_T * b_field_t
            c1, c2 = ch.coupled
            coupled_diag = [_zeeman_diagonal((c1, c2))]
            if _level_key(c1) != _level_key(c2):
                coupled_diag.append(_zeeman_diagonal((c2, c1)))
            coupled_diag = np.concatenate(coupled_diag)
            initial_diag = _zeeman_diagonal(ch.initial)
            for k in range(len(vals)):
                phi = vecs[:, k]
                shift = -float(initial_diag @ (np.abs(phi) ** 2))
                if vals[k] > FORSTER_ZERO_FLOOR:
                    chi = m @ phi
                    chi /= np.linalg.norm(chi)
                    shift += float(coupled_diag @ (np.abs(chi) ** 2))
                defects[k] = ch.defect_mhz + mu_b * shift
        zeros += int(np.sum(vals < FORSTER_ZERO_FLOOR))
        eig.d_values.append(vals)
        eig.vectors.append(vecs)
        eig.defects_mhz.append(defects)
    eig.forster_zero_count = zeros
    return eig


@dataclass
class PotentialCurve:
    """Pair interaction energies Delta_phi(R) for one channel."""

    r_um: np.ndarray
    delta_mhz: np.ndarray  # shape (n_phi, n_R)
    d_values: np.ndarray
    channel: ForsterChannel


def pair_shift_mhz(defect_mhz, c3_mhz_um3, d_phi, r_um):
    """Eigenstate branch of the two-level pair Hamiltonian that connects to
    the initial pair: delta/2 - sign(delta) sqrt((delta/2)^2 + C3^2 D / R^6).

    Defects, D values and separations broadcast against each other; a zero
    defect takes the resonant branch -sqrt(C3^2 D / R^6).
    """
    defect = np.asarray(defect_mhz, dtype=float)
    coupling_sq = (c3_mhz_um3**2) * d_phi / np.asarray(r_um, dtype=float) ** 6
    half = 0.5 * defect
    return np.where(
        defect == 0.0,
        -np.sqrt(coupling_sq),
        half - np.sign(defect) * np.sqrt(half * half + coupling_sq),
    )


def potential_curves(eig, channel_index, r_um):
    """Evaluate Delta_phi(R) for every eigenstate of one channel."""
    ch = eig.channels[channel_index]
    r = np.asarray(r_um, dtype=float)
    if np.any(r <= 0):
        raise ValueError("pair separations must be positive")
    d_vals = eig.d_values[channel_index]
    curves = pair_shift_mhz(
        eig.defects_mhz[channel_index][:, None], ch.c3_mhz_um3, d_vals[:, None], r
    )
    return PotentialCurve(r_um=r, delta_mhz=curves, d_values=d_vals.copy(), channel=ch)


def crossover_radius_um(channel, d_phi):
    """Distance where the resonant and van der Waals regimes meet.

    Returns math.inf for a resonant (zero-defect) channel.
    """
    if d_phi <= 0:
        raise ValueError("crossover radius needs D_phi > 0")
    if channel.defect_mhz == 0.0:
        return math.inf
    return (abs(channel.c3_mhz_um3) * math.sqrt(d_phi) / abs(channel.defect_mhz)) ** (
        1.0 / 3.0
    )


def vdw_coefficient_mhz_um6(channel, d_phi):
    """Coefficient A such that Delta_phi -> A / R^6 far outside the crossover."""
    if channel.defect_mhz == 0.0:
        raise ValueError("van der Waals limit undefined for a resonant channel")
    return -(channel.c3_mhz_um3**2) * d_phi / channel.defect_mhz


def first_order_dipole_shift_mhz(dipole_ea0, theta, r_um):
    """Static interaction of two aligned permanent dipoles (each e*a0 units)."""
    if r_um <= 0:
        raise ValueError("pair separation must be positive")
    geom = 1.0 - 3.0 * math.cos(theta) ** 2
    return cst.EA0_SQ_MHZ_UM3 * dipole_ea0**2 * geom / r_um**3
