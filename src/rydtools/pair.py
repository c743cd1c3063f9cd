"""Dipole-dipole pair interactions between Rydberg atoms.

A coupling channel connects an initial pair of levels to an energy-nearby
coupled pair through the dipole-dipole operator. Diagonalizing the squared
coupling on the initial Zeeman product space gives dimensionless interaction
strengths D_phi; together with the channel energy defect and the radial
coupling scale C3 these parameterize the R-dependent pair potential curves,
their resonant-to-van-der-Waals crossover, and the blockade-relevant
eigenstate structure.

The squared coupling is diagonalized once, in the pair frame (pair axis
along z). At a pair axis tilted by theta from z it is the same matrix turned
by the Wigner rotation D(theta) = d^{j1}(theta) (x) d^{j2}(theta) (Walker &
Saffman, PRA 77, 032723 (2008)), so its D_phi stay and its eigenvectors are
the pair-frame ones turned by D(theta). An eigensystem keeps the pair-frame
vectors at every theta; a magnetic field along z changes only the
defects (_defects_mhz, at any array of angles). In the pair frame the
coupling conserves M = m1 + m2: the Gram matrices and the pair-state
operators are all diagonalized by _m_block_states, per M-block as
pairinteraction does per symmetry sector (Weber et al., J. Phys. B 50,
133001 (2017)), so each eigenvector has a definite M.

This module owns that layout: the solver's stacked arrays
(ForsterEigensystem), the Zeeman-product index (_m_blocks, _pair_rotation,
_driven_index) and the pair-state solve (_pair_states).
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import constants as cst
from .angular import clebsch_gordan, dipole_angular_factor, lande_g, wigner_small_d
from .atoms import RydbergState, radial_matrix_element

FORSTER_ZERO_FLOOR = 1e-8


def _level_key(state):
    return (state.n, state.l, state.j)


def _m_values(j):
    two_j = round(2 * j)
    return [m / 2.0 for m in range(-two_j, two_j + 1, 2)]


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


def _orderings(channel):
    """Physical orderings of the coupled pair: both when its levels differ."""
    c1, c2 = channel.coupled
    return [(c1, c2)] if _level_key(c1) == _level_key(c2) else [(c1, c2), (c2, c1)]


def _require_dipole_allowed(a, c):
    if abs(a.l - c.l) != 1 or abs(a.j - c.j) > 1:
        raise ValueError(
            "channel leg %s -> %s is not dipole-allowed" % (a.label, c.label)
        )


def make_channel(initial_pair, coupled_pair, table, *, _radial=None):
    """Assemble a ForsterChannel: defect from level energies, C3 from radials.

    C3 = e^2 <r>_a <r>_b expressed in MHz um^3; the energy defect is
    E(coupled) - E(initial) in MHz, signed. ``_radial`` stands in for
    radial_matrix_element when a caller shares elements between channels.
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
    radial = _radial or radial_matrix_element
    rad_1 = radial(i1, c1, table)
    rad_2 = radial(i2, c2, table)
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
    species = table.species
    s = RydbergState(n, 0, 0.5, species=species)
    # the four channels need four distinct <ns|r|n'p_j>; solve each once
    radial = lru_cache(maxsize=None)(radial_matrix_element)
    return [
        make_channel(
            (s, s),
            (
                RydbergState(n, 1, ja, species=species),
                RydbergState(n - 1, 1, jb, species=species),
            ),
            table,
            _radial=radial,
        )
        for ja in (1.5, 0.5)
        for jb in (1.5, 0.5)
    ]


@lru_cache(maxsize=None)
def _ordering_amplitudes(initial_lj, final_lj):
    """Angle-independent factors of <final Zeeman pair| a.b - 3(a.n)(n.b) |initial>.

    Every element couples Zeeman pairs whose m differ by mu on one atom and
    nu on the other, so it carries the single direction factor
    C^2_{-q}(theta, 0) = d^2_{-q,0}(theta) with q = mu + nu. Returns
    (amplitudes, qmap): the element's coefficient of that factor, and q + 2.
    Both depend only on the (l, j) of the four legs, so channels at every n
    share them; the arrays are read-only.
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
                * clebsch_gordan(1, mu, 1, nu, 2, q)
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
    so the matrix is exact at every angle. An array of angles gives one
    matrix per angle, shape theta.shape + (rows, columns).
    """
    c1, c2 = channel.coupled
    _require_dipole_allowed(channel.initial[0], c1)
    _require_dipole_allowed(channel.initial[1], c2)
    c2_minus_q = wigner_small_d(2, theta)[..., ::-1, 2]  # [q + 2] = d^2_{-q,0}
    initial_lj = tuple((s.l, s.j) for s in channel.initial)
    blocks = []
    for final_pair in _orderings(channel):
        amplitudes, qmap = _ordering_amplitudes(
            initial_lj, tuple((s.l, s.j) for s in final_pair)
        )
        blocks.append(amplitudes * c2_minus_q[..., qmap])
    return np.concatenate(blocks, axis=-2)


@dataclass
class ForsterEigensystem:
    """Eigen-decomposition of V_dd^dagger V_dd per channel at one pair angle.

    The arrays _m_block_states returns, one row per channel c: d_values
    (C, N), dimensionless, ascending; vectors (C, N, N), vectors[c] the
    eigenvectors (columns, over the initial Zeeman product space),
    column-major; defects_mhz (C, N), the energy defects at theta
    (Zeeman-shifted in a magnetic field). forster_zero_count tallies
    eigenvalues below the zero floor. vectors are the pair-frame (theta =
    0) eigenvectors at every theta, each with a definite M = m1 + m2 (exact
    zeros off its M-block); the eigenvectors at theta are D(theta) @
    vectors, D(theta) = d^{j1}(theta) (x) d^{j2}(theta). Only the defects
    depend on theta (in a field); _pair_states takes them from _defects_mhz
    at each pair's own angle, not from defects_mhz.
    """

    channels: list
    theta: float
    b_field_t: float
    d_values: np.ndarray
    vectors: np.ndarray
    forster_zero_count: int
    defects_mhz: np.ndarray = None


def _zeeman_diagonal(pair_states):
    """g1 m1 + g2 m2 over the Zeeman product space of a pair of levels."""
    gm = [lande_g(s.l, s.j) * np.array(_m_values(s.j)) for s in pair_states]
    return np.add.outer(*gm).ravel()


@lru_cache(maxsize=None)
def _m_blocks(tj1, tj2):
    """M-blocks of the Zeeman product space of two levels with doubled
    angular momenta tj1 and tj2 (state (m1, m2) at index (j1 + m1)(tj2 + 1)
    + j2 + m2): rows[k, a] is the index of the a-th state of block k, the
    blocks in ascending M = k - j1 - j2, padded with -1 to the largest
    size. Block M >= 0 lists its states by ascending index, block -M their
    mirror images (-m1, -m2), index N - 1 - i, in the same order: the
    rotation by pi about y, which leaves the pair-frame coupling as it is,
    maps one onto the other with one sign per block, so both blocks of a
    pair-frame operator are the same matrix. Read-only."""
    m = np.add.outer(np.arange(tj1 + 1), np.arange(tj2 + 1)).ravel()  # k of each state
    count = tj1 + tj2 + 1
    rows = np.full((count, min(tj1, tj2) + 1), -1)
    for k in range(count):
        states = np.flatnonzero(m == max(k, count - 1 - k))
        rows[k, : len(states)] = states if 2 * k >= count - 1 else m.size - 1 - states
    rows.flags.writeable = False
    return rows


def _m_block_states(ops, turn, initial, mirrored):
    """Eigenpairs of a stack ops (..., N, N) of pair-frame operators on the
    Zeeman product space of the pair of levels initial, each conserving M,
    from one eigh over their M-blocks (_m_blocks); with mirrored set only
    blocks of M >= 0 are solved, that of -M taking their eigenpairs.
    Padding has a diagonal above every eigenvalue (1 + L max|element|), so
    each block's eigenpairs come first, ascending, and exactly zero there.
    Each block vector v is signed so that sum_a v_a / 2^a > 0: "largest
    component positive" would be left to rounding, as exchanging the atoms
    reverses each block and so gives half of the vectors equal and opposite
    components. Row i of a state turned by turn (..., R, N) is sum_a
    turn[i, rows[a]] v_a, so its bits depend neither on the other rows nor
    on the other operators.

    Returns (values (..., N), turned (..., R, N)), columns by ascending M,
    then ascending within a block.
    """
    first, second = initial
    rows = _m_blocks(round(2 * first.j), round(2 * second.j))
    k = np.arange(len(rows))
    low = len(rows) // 2 if mirrored else 0  # blocks M >= 0 are rows[low:]
    copies = (np.maximum(k, k[::-1]) if mirrored else k) - low
    index, valid = rows[low:], rows >= 0
    live = valid[low:, :, None] & valid[low:, None, :]
    blocks = np.where(live, ops[..., index[:, :, None], index[:, None, :]], 0.0)
    top = np.abs(blocks).max(axis=(-3, -2, -1))[..., None]
    pad_k, pad_a = np.nonzero(~valid[low:])
    blocks[..., pad_k, pad_a, pad_a] = 1.0 + rows.shape[1] * top
    values, vectors = np.linalg.eigh(blocks)
    leading = 0.5 ** np.arange(rows.shape[1]) @ vectors
    vectors *= np.where(leading < 0.0, -1.0, 1.0)[..., None, :]
    # padding rows of the vectors are zero, so the turn rows read there do not count
    turned = (turn[..., rows, None] * vectors[..., None, copies, :, :]).sum(axis=-2)
    return values[..., copies, :][..., valid], turned[..., valid]


def _pair_rotation(initial, theta, rows):
    """Rows (an index array) of D(theta) = d^{j1}(theta) (x) d^{j2}(theta)
    on the Zeeman product space of the pair of levels initial, exactly the
    identity at theta = 0: element [i, (a, b)] is d^{j1}[i1, a] d^{j2}[i2, b]
    for row i = (i1, i2). An array of angles gives one block of rows per
    angle, shape theta.shape + (len(rows), N)."""
    d1 = wigner_small_d(initial[0].j, theta)
    d2 = d1 if initial[1].j == initial[0].j else wigner_small_d(initial[1].j, theta)
    i1, i2 = np.divmod(rows, d2.shape[-1])
    turn = d1[..., i1, :, None] * d2[..., i2, None, :]
    return turn.reshape(turn.shape[:-2] + (-1,))


def _defects_mhz(eig, theta):
    """Defects of eig's Gram eigenstates at every pair angle of the array
    theta: shape theta.shape + (C, N), or (C, N) in zero field, where they
    are the channel defects at every angle.

    build_vdd(ch, theta) = D_c build_vdd(ch, 0) D^T with D =
    _pair_rotation(initial, theta), so the pair-frame vectors and d_values
    serve every angle. Only the defects change: a field along z is
    evaluated on the turned vectors phi = D v, as the initial pair's
    Zeeman moment on phi and the coupled pair's on build_vdd(ch, theta) phi.
    """
    defects = np.array([[ch.defect_mhz] for ch in eig.channels]) * np.ones(eig.d_values.shape)
    if eig.b_field_t == 0.0:
        return defects
    theta = np.asarray(theta, dtype=float)
    turn = _pair_rotation(eig.channels[0].initial, theta, np.arange(eig.vectors.shape[1]))
    shifts = []
    for ch, vals, vecs in zip(eig.channels, eig.d_values, eig.vectors):
        phi = turn @ vecs
        live = vals > FORSTER_ZERO_FLOOR
        chi_sq = (build_vdd(ch, theta) @ phi[..., live]) ** 2
        coupled_diag = np.concatenate([_zeeman_diagonal(o) for o in _orderings(ch)])
        shift = -(_zeeman_diagonal(ch.initial) @ phi**2)
        shift[..., live] += coupled_diag @ chi_sq / chi_sq.sum(axis=-2)
        shifts.append(shift)
    return defects + cst.MU_B_MHZ_PER_T * eig.b_field_t * np.stack(shifts, axis=-2)


def forster_eigensystem(channels, theta=0.0, b_field_t=0.0):
    """Diagonalize each channel's squared coupling on the initial pair space.

    The Gram matrices of all channels are diagonalized once, in the pair
    frame, by one mirrored _m_block_states call: d_values (clipped at 0,
    then in stable ascending order, so equal d_values keep ascending M),
    M-definite pair-frame vectors and the Forster-zero count serve every
    theta. _defects_mhz evaluates the (Zeeman-shifted, along z) defects at
    theta.
    """
    if not channels:
        raise ValueError("need at least one channel")
    if not (math.isfinite(theta) and math.isfinite(b_field_t)):
        raise ValueError("theta and b_field_t must be finite, got %r and %r" % (theta, b_field_t))
    key0 = tuple(_level_key(s) for s in channels[0].initial)
    for ch in channels[1:]:
        if tuple(_level_key(s) for s in ch.initial) != key0:
            raise ValueError("all channels must share the same initial pair")
    grams = np.stack([m.T @ m for m in map(build_vdd, channels)])
    vals, vecs = _m_block_states(grams, np.eye(grams.shape[-1]), channels[0].initial, True)
    vals = np.clip(vals, 0.0, None)
    order = np.argsort(vals, axis=-1, kind="stable")
    vals = np.take_along_axis(vals, order, -1)
    vecs = np.take_along_axis(vecs, order[:, None, :], -1)
    # each vectors[c] column-major: BLAS rounds _defects_mhz's products by operand layout
    vecs = np.ascontiguousarray(vecs.swapaxes(1, 2)).swapaxes(1, 2)
    zeros = int(np.sum(vals < FORSTER_ZERO_FLOOR))
    eig = ForsterEigensystem(list(channels), theta, b_field_t, vals, vecs, zeros)
    eig.defects_mhz = _defects_mhz(eig, theta)
    return eig


def _driven_index(eig, target_m):
    """Index (j + m)(2 j + 1) + j + m, as in _m_blocks, of the driven
    Zeeman product |target_m, target_m> in eig's initial pair basis. Both
    atoms are driven to the same level, so the pair's two initial levels
    must be one, and target_m must be one of its m (m + j an integer)."""
    first, second = eig.channels[0].initial
    if _level_key(first) != _level_key(second):
        raise ValueError(
            "the driven pair needs one initial level, got %s and %s"
            % (first.label, second.label)
        )
    j = first.j
    offset = round(target_m + j)
    if abs(target_m) > j or abs(target_m + j - offset) > 1e-9:
        raise ValueError(
            "drive targets m=%s outside the j=%s Zeeman manifold" % (target_m, j)
        )
    return offset * (round(2 * j) + 1) + offset


def _channel_shifts_mhz(eig, r_um, defects_mhz):
    """Interaction shift of every channel eigenstate, (..., C, N) like
    eig.d_values, at separations r_um and defects defects_mhz (arrays that
    broadcast to it). Eigenstates below the coupling floor are unshifted
    by their channel."""
    c3 = np.array([[ch.c3_mhz_um3] for ch in eig.channels])
    shifts = pair_shift_mhz(defects_mhz, c3, eig.d_values, r_um)
    return np.where(eig.d_values >= FORSTER_ZERO_FLOOR, shifts, 0.0)


def _pair_states(eig, r_um, theta, lab_rows):
    """Pair states of P atom pairs at positive separations r_um and pair
    angles theta (arrays of P), on eig's M-definite pair-frame vectors V.

    W_0 = V diag(s) V^T (s the channels' shifts, _channel_shifts_mhz, at
    the defects _defects_mhz gives at each pair's angle) of every pair is
    solved by one _m_block_states call, mirrored in zero field, with the
    rows lab_rows of D(theta) (_pair_rotation) as the turn, so a pair alone
    gets the bits it gets in a batch, in a field too.

    Returns (shifts, turned): shifts (P, N) in stable ascending order per
    pair and turned (P, len(lab_rows), N) the rows lab_rows of each pair's
    lab-frame states, columns in shift order.
    """
    if not (r_um > 0).all():
        raise ValueError("pair separations must be positive")
    initial = eig.channels[0].initial
    s = _channel_shifts_mhz(eig, r_um[:, None, None], _defects_mhz(eig, theta))
    v = eig.vectors.swapaxes(0, 1).reshape(eig.vectors.shape[1], -1)  # channels side by side
    turn = _pair_rotation(initial, theta, lab_rows)
    w0 = (v * s.reshape(len(s), 1, -1)) @ v.T
    values, turned = _m_block_states(w0, turn, initial, eig.b_field_t == 0.0)
    order = np.argsort(values, axis=-1, kind="stable")
    return np.take_along_axis(values, order, -1), np.take_along_axis(turned, order[:, None, :], -1)


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
    if not np.all(r > 0):
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
