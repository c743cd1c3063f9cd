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
vectors at every theta. In the pair frame the coupling conserves
M = m1 + m2 and, for two atoms in one level, commutes with the exchange of
the atoms: the Gram matrices and the pair-state operators are all
diagonalized by _m_block_states, per (M, exchange parity) sector as
pairinteraction does per symmetry sector (Weber et al., J. Phys. B 50,
133001 (2017)), so each eigenvector has a definite M and parity, and the
sign rule fixes it. Above FORSTER_ZERO_FLOOR no sector of the 43d Gram
matrices holds a degenerate pair, so a rounding-level change of the input
moves those vectors by rounding; the unshifted states below it differ by
rounding alone and may turn in their sector. A magnetic field B along z
changes only the defects, and only through B cos(theta), its part along the
pair axis: the part across the axis changes M by 1 and has no expectation
value on an M-definite state (_defects_mhz, at any array of angles).

This module owns that layout: the Zeeman-product index and the sector
layout built once per level pair (_m_blocks, _pair_rotation,
_driven_index), the solver's stacked arrays (ForsterEigensystem, which also
keeps the vectors' sector coordinates as a stack) and the pair-state solve
(_pair_states), which forms each pair's shift operator sector by sector
from that stack and never as a whole matrix.
"""

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import constants as cst
from .angular import _twice, clebsch_gordan, dipole_angular_factor, lande_g, wigner_small_d
from .atoms import RydbergState, radial_matrix_element, radial_matrix_elements
from .constants import _require_positive

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
    s = RydbergState(n, 0, 0.5)
    # the four channels share four distinct <ns|r|n'p_j>, each on its
    # make_channel grid; both (n-1)p elements use the ns grid (7 solves)
    p_states = [RydbergState(m, 1, j) for m in (n, n - 1) for j in (1.5, 0.5)]
    pairs = [(s, p) for p in p_states]
    radial = dict(zip(pairs, radial_matrix_elements(pairs, table)))
    return [
        make_channel((s, s), (pa, pb), table, _radial=lambda a, b, _: radial[a, b])
        for pa in p_states[:2]
        for pb in p_states[2:]
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
    eigenvectors (columns, over the initial Zeeman product space);
    defects_mhz (C, N), the energy defects at theta (in a magnetic field
    B along z, Zeeman-shifted by mu_B B cos(theta) times a pair-frame
    moment). forster_zero_count tallies eigenvalues below the zero floor.
    vectors are the pair-frame (theta = 0) eigenvectors at every theta,
    each in one (M, exchange) sector of _m_blocks (exact zeros off its
    M-block; for one level P v = +v or -v bit for bit, P the atom
    exchange); the eigenvectors at theta are D(theta) @ vectors, D(theta) =
    d^{j1}(theta) (x) d^{j2}(theta). Only the defects depend on theta (in a
    field); _pair_states takes them from _defects_mhz at each pair's own
    angle, not from defects_mhz.

    block_stack holds the vectors' sector coordinates, the stack that
    _pair_states forms W_0 from.
    """

    channels: list
    theta: float
    b_field_t: float
    d_values: np.ndarray
    vectors: np.ndarray
    forster_zero_count: int
    defects_mhz: np.ndarray = None

    @cached_property
    def block_stack(self):
        """(stack, columns), built once from vectors, which must each lie
        in one sector (forster_eigensystem's). stack (K, L, C L): block k
        of the K blocks of _m_blocks holds, in its L slots, the coordinates
        basis[k] @ v on the slots of its own sector of the columns v of all
        channels that lie in block k, channel by channel and in column order
        within a channel, zero elsewhere. columns (K, C L): the index c N +
        n of each stack column's vectors[c][:, n], 0 in padding. Not a
        dataclass field: fields(), repr and == see only the solver's
        arrays."""
        layout = _layout(self.channels[0].initial, True)
        coords = layout.basis @ self.vectors[:, None]  # (C, K, L, N)
        c, k, size, n = coords.shape
        slot = np.abs(coords).reshape(c, k * size, n).argmax(axis=1).ravel()  # of each column
        block, sector = slot // size, layout.sector.ravel()[slot]
        count = np.bincount(block, minlength=k)
        by_block = np.argsort(block, kind="stable")  # in column order within a block
        place = np.arange(c * n) - np.repeat(np.cumsum(count) - count, count)
        columns = np.zeros((k, c * size), int)
        filled = np.zeros(columns.shape, bool)
        columns[block[by_block], place] = by_block
        filled[block[by_block], place] = True
        side_by_side = coords.transpose(1, 2, 0, 3).reshape(k, size, c * n)
        stack = np.take_along_axis(side_by_side, columns[:, None, :], axis=2)
        own = filled[:, None, :] & (layout.sector[:, :, None] == sector[columns][:, None, :])
        return np.where(own, stack, 0.0), columns


def _zeeman_diagonal(pair_states):
    """g1 m1 + g2 m2 over the Zeeman product space of a pair of levels."""
    gm = [lande_g(s.l, s.j) * np.array(_m_values(s.j)) for s in pair_states]
    return np.add.outer(*gm).ravel()


@dataclass(frozen=True)
class _MBlocks:
    """The sector layout of one pair of levels (_m_blocks): K blocks of L
    slots, each holding whole (M, exchange) sectors, every array read-only.

    basis (K, L, N): slot a of block k is the state basis[k, a], the slots
    of one sector side by side, zero in padding; the basis is orthonormal.
    sector (K, L): which of its block's sectors (0, 1, ...) each slot
    holds, -1 in padding. turn_rows and turn_coefs (2, L, N): for each
    solver column, the two state indices and weights of each slot of its
    block, basis[k, a] = sum over the two of weight x e_index (weight 0
    where a slot has one state, and in padding). low: the first solved
    block, the first of M = 0 when only the blocks of M >= 0 are solved,
    else 0. live (K - low, L, L): the slot pairs of one sector in a solved
    block. pad: the (block, slot) index arrays of the solved blocks'
    padding. signs (L,): the sign rule's weights 2^-a.
    gather (N,): each solver column's eigenpair among the solved blocks'
    eigenpairs, flattened by (block, slot), a block of -M taking those of
    its mirror block of M when only M >= 0 is solved. pick (1, L, N): the
    index of each component of each solver column's eigenvector among the
    solved blocks' eigenvector arrays, flattened by (block, row, column).
    """

    basis: np.ndarray
    sector: np.ndarray
    turn_rows: np.ndarray
    turn_coefs: np.ndarray
    low: int
    live: np.ndarray
    pad: tuple
    signs: np.ndarray
    gather: np.ndarray
    pick: np.ndarray


def _layout(initial, mirrored):
    """_m_blocks of the pair of levels initial: exchange sectors when its
    two levels are one."""
    first, second = initial
    exchange = _level_key(first) == _level_key(second)
    return _m_blocks(round(2 * first.j), round(2 * second.j), mirrored, exchange)


def _pack(sizes, capacity):
    """Indices of sizes packed first-fit, by decreasing size (ties in index
    order), into groups whose sizes sum to at most capacity."""
    groups = []
    for i in sorted(range(len(sizes)), key=lambda i: -sizes[i]):
        fits = (g for g in groups if sum(sizes[j] for j in g) + sizes[i] <= capacity)
        group = next(fits, None)
        if group is None:
            groups.append(group := [])
        group.append(i)
    return groups


@lru_cache(maxsize=None)
def _m_blocks(tj1, tj2, mirrored, exchange):
    """The sector layout (_MBlocks) of the Zeeman product space of two
    levels with doubled angular momenta tj1 and tj2 (state (m1, m2) at
    index (j1 + m1)(tj2 + 1) + j2 + m2), cached, so every index array that
    depends only on the level pair is built once per pair and solve kind.

    The pair-frame operators conserve M = m1 + m2 and, when the two levels
    are one (exchange), commute with the atom exchange P|m1 m2> = |m2 m1>
    (Walker & Saffman, PRA 77, 032723 (2008)); pairinteraction splits the
    pair basis the same way (Weber et al., J. Phys. B 50, 133001 (2017)).
    M >= 0 lists its states by ascending index; each state |a b> of index
    at most that of |b a> gives an even slot (|a b> + |b a>)/sqrt(2), or
    |a a> alone, and an odd slot (|a b> - |b a>)/sqrt(2). Without exchange
    the states of M are the slots of one sector: the identity. -M lists
    the mirror images (-m1, -m2), index N - 1 - i, in the same order: the
    rotation by pi about y, which leaves the pair-frame operators as they
    are, maps each sector of M onto that of -M with one sign, so both are
    the same matrix. L is the largest sector. The sectors of M = 0, and
    those of M > 0, are packed whole into blocks of L slots (_pack); each
    block of M > 0 has a mirror block of -M. Blocks run: -M, M = 0, M > 0.
    With mirrored set only the blocks of M >= 0 are solved."""
    n = (tj1 + 1) * (tj2 + 1)
    m = np.add.outer(np.arange(tj1 + 1), np.arange(tj2 + 1)).ravel()  # k of each state
    swap = np.arange(n).reshape(tj1 + 1, -1).T.ravel() if exchange else np.arange(n)
    half, count = math.sqrt(0.5), tj1 + tj2 + 1
    middle, upper = [], []  # the sectors of M = 0 and of M > 0: (legs (2, a), weights (2, a))
    for k in range(count // 2, count):
        states = np.flatnonzero(m == k)
        lo = states[states <= swap[states]]
        legs, two = np.stack([lo, swap[lo]]), lo != swap[lo]
        group = upper if 2 * k > count - 1 else middle
        group.append((legs, np.stack([np.where(two, half, 1.0), np.where(two, half, 0.0)])))
        if two.any():
            group.append((legs[:, two], np.array([[half], [-half]]) * np.ones(two.sum())))
    size = max(legs.shape[1] for legs, _ in middle + upper)
    middle, upper = (
        [[group[i] for i in ids] for ids in _pack([legs.shape[1] for legs, _ in group], size)]
        for group in (middle, upper)
    )
    lower = [[(n - 1 - legs, weights) for legs, weights in block] for block in upper]
    rows = np.zeros((2, len(lower) + len(middle) + len(upper), size), int)
    coefs = np.zeros(rows.shape)
    sector = np.full(rows.shape[1:], -1)
    for k, block in enumerate(lower + middle + upper):
        a = 0
        for s, (legs, weights) in enumerate(block):
            width = legs.shape[1]
            rows[:, k, a : a + width], coefs[:, k, a : a + width] = legs, weights
            sector[k, a : a + width] = s
            a += width
    basis = np.zeros(sector.shape + (n,))
    k, a = np.indices(sector.shape)
    for leg in range(2):
        basis[k, a, rows[leg]] += coefs[leg]
    low = len(lower) if mirrored else 0
    solved = np.arange(len(sector)) - low
    if mirrored:
        solved[:low] += len(middle) + low  # the block of M > 0 each mirrors
    valid = sector >= 0
    column_block, slot = np.nonzero(valid)  # solver columns: by block, then by slot
    layout = _MBlocks(
        basis=basis,
        sector=sector,
        turn_rows=rows[:, column_block].swapaxes(1, 2),
        turn_coefs=coefs[:, column_block].swapaxes(1, 2),
        low=low,
        live=valid[low:, :, None] & (sector[low:, :, None] == sector[low:, None, :]),
        pad=np.nonzero(~valid[low:]),
        signs=0.5 ** np.arange(size),
        gather=solved[column_block] * size + slot,
        pick=((solved[column_block] * size + np.arange(size)[:, None]) * size + slot)[None],
    )
    arrays = (basis, sector, layout.turn_rows, layout.turn_coefs, layout.live, layout.signs)
    for array in arrays + (layout.gather, layout.pick) + layout.pad:
        array.flags.writeable = False
    return layout


def _m_block_states(blocks, turn, layout):
    """Eigenpairs of pair-frame operators that conserve M (and atom
    exchange, for one level), from one eigh of their solved blocks: blocks
    (..., K - low, L, L) in the sector basis of layout (an _MBlocks), zero
    between two sectors and in padding, so each eigenvector lies in one
    sector, exactly zero off it. With a mirrored layout a block of -M takes
    the eigenpairs of its block of M. Padding gets a diagonal above every
    eigenvalue (1 + L max|element|, written into blocks), so each block's
    eigenpairs come first, ascending, and exactly zero there. Each vector x
    is signed so that sum_a x_a / 2^a > 0, the sum over its own sector's
    slots but for a power of 2. Where its sector holds no other vector of
    the same eigenvalue (every sector of the 43d Gram matrices), x is then
    fixed: a rounding-level change of blocks moves it by rounding. Row i of
    a state turned by turn (..., R, N) is sum_a x_a (sum of turn[i,
    turn_rows] turn_coefs over the slot's two states), so its bits depend
    neither on the other rows nor on the other operators, and with turn the
    identity the two states of a slot get the same bits, of opposite sign
    in an odd slot.

    Returns (values (..., N), turned (..., R, N)), columns by block (-M,
    M = 0, M > 0), then ascending within a block.
    """
    pad_k, pad_a = layout.pad
    if pad_k.size:
        top = np.abs(blocks).max(axis=(-3, -2, -1))[..., None]
        blocks[..., pad_k, pad_a, pad_a] = 1.0 + layout.signs.size * top
    values, vectors = np.linalg.eigh(blocks)
    vectors *= np.where(layout.signs @ vectors < 0.0, -1.0, 1.0)[..., None, :]
    stacked = values.shape[:-2]
    values = values.reshape(stacked + (-1,))[..., layout.gather]
    columns = vectors.reshape(stacked + (-1,))[..., layout.pick]  # (..., 1, L, N)
    # padding slots of the vectors are zero, and so are their weights
    basis = (turn[..., layout.turn_rows] * layout.turn_coefs).sum(axis=-3)  # (..., R, L, N)
    return values, (basis * columns).sum(axis=-2)


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

    A field B along z is B cos(theta) along the pair axis and B sin(theta)
    across it. Across the axis it changes M by 1, so it has no expectation
    value on an M-definite vector v or on build_vdd(ch) v, and the defects
    are the channel defect + mu_B B cos(theta) zeta: zeta (C, N), in units
    of mu_B, is minus the initial pair's Zeeman moment on v plus, above
    FORSTER_ZERO_FLOOR, the coupled pair's on build_vdd(ch) v normalized,
    all in the pair frame, one build_vdd per channel. cos(theta) is taken
    as sin(pi/2 - theta): exactly 0 at an in-plane pair's float pi/2.
    """
    defects = np.array([[ch.defect_mhz] for ch in eig.channels]) * np.ones(eig.d_values.shape)
    if eig.b_field_t == 0.0:
        return defects
    zeta = []
    for ch, vals, vecs in zip(eig.channels, eig.d_values, eig.vectors):
        live = vals > FORSTER_ZERO_FLOOR
        chi_sq = (build_vdd(ch) @ vecs[:, live]) ** 2
        coupled_diag = np.concatenate([_zeeman_diagonal(o) for o in _orderings(ch)])
        moment = -(_zeeman_diagonal(ch.initial) @ vecs**2)
        moment[live] += coupled_diag @ chi_sq / chi_sq.sum(axis=0)
        zeta.append(moment)
    cos = np.sin(0.5 * np.pi - np.asarray(theta, dtype=float))[..., None, None]
    return defects + cst.MU_B_MHZ_PER_T * eig.b_field_t * cos * np.stack(zeta)


def forster_eigensystem(channels, theta=0.0, b_field_t=0.0):
    """Diagonalize each channel's squared coupling on the initial pair space.

    The Gram matrices of all channels are diagonalized once, in the pair
    frame, by one mirrored _m_block_states call on their sector blocks:
    d_values (clipped at 0, then in stable ascending order, so the equal
    d_values of a -M and +M pair keep -M first), pair-frame vectors of one
    sector each and the Forster-zero count serve every theta. _defects_mhz
    evaluates the (Zeeman-shifted, along z) defects at theta.
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
    layout = _layout(channels[0].initial, True)
    basis = layout.basis[layout.low :]
    blocks = np.where(layout.live, basis @ grams[:, None] @ basis.swapaxes(1, 2), 0.0)
    vals, vecs = _m_block_states(blocks, np.eye(grams.shape[-1]), layout)
    vals = np.clip(vals, 0.0, None)
    order = np.argsort(vals, axis=-1, kind="stable")
    vals = np.take_along_axis(vals, order, -1)
    vecs = np.take_along_axis(vecs, order[:, None, :], -1)
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
    tj, tm = round(2 * first.j), _twice(target_m, "target_m")
    if abs(tm) > tj or (tj + tm) % 2:
        raise ValueError(
            "drive targets m=%s outside the j=%s Zeeman manifold" % (target_m, first.j)
        )
    offset = (tj + tm) // 2
    return offset * (tj + 1) + offset


def _channel_shifts_mhz(eig, r_um, defects_mhz):
    """Interaction shift of every channel eigenstate, (..., C, N) like
    eig.d_values, at separations r_um and defects defects_mhz (arrays that
    broadcast to it). Eigenstates below the coupling floor are unshifted
    by their channel."""
    c3 = np.array([[ch.c3_mhz_um3] for ch in eig.channels])
    shifts = _pair_shift(defects_mhz, c3, eig.d_values, r_um)
    return np.where(eig.d_values >= FORSTER_ZERO_FLOOR, shifts, 0.0)


def _pair_states(eig, r_um, theta, lab_rows):
    """Pair states of P atom pairs at positive separations r_um and pair
    angles theta (arrays of P), on eig's pair-frame vectors V, one sector
    each.

    W_0 = V diag(s) V^T, s the channels' shifts (_channel_shifts_mhz) at
    the defects _defects_mhz gives at each pair's angle, is formed block by
    block of _m_blocks from eig.block_stack: block k is (stack[k] * s) @
    stack[k]^T over the channel columns of block k alone, a (P, K, L, L)
    stack, only the blocks of M >= 0 in zero field. Each column is zero off
    its own sector, so the sectors sharing a block stay exactly apart. One
    _m_block_states call solves them, with the rows lab_rows of D(theta)
    (_pair_rotation) as the turn. The columns of other blocks are zero in
    block k, so leaving them out drops only exact zeros from each sum, and
    a pair alone gets the bits it gets in a batch, in a field too.

    Returns (shifts, turned): shifts (P, N) in stable ascending order per
    pair and turned (P, len(lab_rows), N) the rows lab_rows of each pair's
    lab-frame states, columns in shift order.
    """
    _require_positive(float(r_um.min()), "r_um")
    initial = eig.channels[0].initial
    layout = _layout(initial, eig.b_field_t == 0.0)
    s = _channel_shifts_mhz(eig, r_um[:, None, None], _defects_mhz(eig, theta))
    stack, columns = (a[layout.low :] for a in eig.block_stack)
    # (P, K, 1, C L) in C order, so that matmul sums a pair alone as in a batch
    s = np.take(s.reshape(len(s), -1), columns, axis=1)[:, :, None, :]
    blocks = (stack * s) @ stack.swapaxes(1, 2)
    values, turned = _m_block_states(blocks, _pair_rotation(initial, theta, lab_rows), layout)
    order = np.argsort(values, axis=-1, kind="stable")
    p = np.arange(len(order))[:, None]
    rows = np.arange(turned.shape[1])[:, None]
    return values[p, order], turned[p[:, :, None], rows, order[:, None, :]]


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

    Defects, C3, D values and separations broadcast against each other; a
    zero defect takes the resonant branch -sqrt(C3^2 D / R^6). Every defect
    and C3 must be finite, every separation positive and finite, every D
    finite and non-negative.
    """
    for value, name in ((defect_mhz, "defect_mhz"), (c3_mhz_um3, "c3_mhz_um3")):
        if not np.all(np.isfinite(value)):
            raise ValueError("%s must be finite, got %r" % (name, value))
    r = np.asarray(r_um, dtype=float)
    if not np.all((r > 0) & (r < math.inf)):
        raise ValueError("r_um must be positive and finite, got %r" % (r_um,))
    d = np.asarray(d_phi, dtype=float)
    if not np.all((d >= 0) & (d < math.inf)):
        raise ValueError("d_phi must be finite and non-negative, got %r" % (d_phi,))
    return _pair_shift(defect_mhz, c3_mhz_um3, d, r)


def _pair_shift(defect_mhz, c3_mhz_um3, d_phi, r_um):
    """pair_shift_mhz without its input checks."""
    defect = np.asarray(defect_mhz, dtype=float)
    coupling_sq = (c3_mhz_um3**2) * d_phi / np.asarray(r_um, dtype=float) ** 6
    root = np.sqrt(defect * defect + 4.0 * coupling_sq)
    # delta/2 - sign(delta) root/2 cancels where the shift is much smaller
    # than the defect. Its conjugate form -2 C3^2 D / R^6 / (delta +
    # sign(delta) root) does not, and its denominator is never below
    # |delta|. A zero defect takes the resonant branch -root/2.
    shift = np.asarray(-0.5 * root)
    np.divide(
        -2.0 * coupling_sq,
        defect + np.copysign(root, defect),
        out=shift,
        where=defect != 0.0,
    )
    return shift


def potential_curves(eig, channel_index, r_um):
    """Evaluate Delta_phi(R) for every eigenstate of one channel."""
    ch = eig.channels[channel_index]
    r = np.asarray(r_um, dtype=float)
    d_vals = eig.d_values[channel_index]
    curves = pair_shift_mhz(
        eig.defects_mhz[channel_index][:, None], ch.c3_mhz_um3, d_vals[:, None], r
    )
    return PotentialCurve(r_um=r, delta_mhz=curves, d_values=d_vals.copy(), channel=ch)


def crossover_radius_um(channel, d_phi):
    """Distance where the resonant and van der Waals regimes meet.

    Returns math.inf for a resonant (zero-defect) channel.
    """
    if not 0 < d_phi < math.inf:
        raise ValueError("d_phi must be positive and finite, got %r" % (d_phi,))
    if channel.defect_mhz == 0.0:
        return math.inf
    return (abs(channel.c3_mhz_um3) * math.sqrt(d_phi) / abs(channel.defect_mhz)) ** (
        1.0 / 3.0
    )


def vdw_coefficient_mhz_um6(channel, d_phi):
    """Coefficient A such that Delta_phi -> A / R^6 far outside the crossover."""
    if channel.defect_mhz == 0.0:
        raise ValueError("van der Waals limit undefined for a resonant channel")
    if not abs(d_phi) < math.inf:
        raise ValueError("d_phi must be finite, got %r" % (d_phi,))
    return -(channel.c3_mhz_um3**2) * d_phi / channel.defect_mhz


def first_order_dipole_shift_mhz(dipole_ea0, theta, r_um):
    """Static interaction of two aligned permanent dipoles (each e*a0 units)."""
    _require_positive(r_um, "r_um")
    geom = 1.0 - 3.0 * math.cos(theta) ** 2
    return cst.EA0_SQ_MHZ_UM3 * dipole_ea0**2 * geom / r_um**3
