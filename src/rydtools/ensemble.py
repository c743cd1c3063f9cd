"""Extended-sample excitation dynamics under strong pair interactions.

Four layers, from coarse to fine:

* scaling laws: blockade-sphere counting turns a drive strength, a pair
  dispersion coefficient and an atom density into a blockade radius, a
  saturated excited density, and power-law expressions for the excited
  fraction and the excitation rate;
* truncated exact dynamics: unitary evolution of the product-state basis
  kept by capping the excitation number and the total interaction energy
  of the many-atom Hamiltonian, built as a sparse matrix and propagated
  by dense eigh or, when cheaper, by one Chebyshev series whose real
  three-term recurrence serves every requested time (see propagate);
* a three-atom exchange model showing how degenerate pair flip-flop
  interactions admit unshifted triply-excited states, which break the
  pairwise suppression whenever the three couplings are not all equal;
* rate-equation kinetic Monte Carlo for large samples, with interaction-
  shifted Lorentzian rates, plus counting statistics of the excited
  number. Each trial keeps its interaction shifts as running sums over
  couplings rounded once to multiples of 2^e, e = ceil(log2 max_i sum_j
  |V_ij|) - 52 (each within 2^(e-1) of V_ij), so that every sum is exact
  and an event moves them by one coupling column (see
  kinetic_monte_carlo).

Conventions: distances in micrometers, all frequencies (drives,
interaction shifts, linewidths, detunings) as cyclic MHz, times in
microseconds. Internally time evolution uses angular frequencies so that
MHz x us phases carry the usual 2 pi.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .constants import _require_finite_positive, _require_nonnegative, _require_positive
from .constants import _frozen, _require_whole

TWO_PI = 2.0 * math.pi

# Excited-fraction prefactor, calibrated once against exact dynamics of
# blockade-saturated compact lattice clusters (1..12 atoms at unit
# density, each driven so the blockade sphere holds 3N atoms): the
# fitted prefactor of f_R = kappa alpha^{2/5} over 2.7 decades in alpha,
# with fit slope 0.3997 and log residuals below 0.005.
SATURATED_FRACTION_PREFACTOR = 1.4965

# Default cap on the truncated many-atom basis. The memory of a propagation
# depends on the path propagate takes for dim states, T times and K terms:
# * dense eigh: 32 dim^2 + 16 dim T bytes (H, its eigenvectors, their
#   complex copy, the result); 1.3 TB at the full budget, so propagate
#   never takes it beyond DENSE_MEMORY_CEILING_BYTES;
# * Chebyshev series: 16 dim T bytes (the result), 8 K T (the Bessel
#   table), 512 dim (64 vectors), about 24 nnz (shifted copy of H) and
#   1 MB (gemm); measured 53 MB at dim 31 931, nnz 277 300, T = 60,
#   K = 618. Below the ceiling the cost rule keeps 8 K T under 4 dim^2;
#   above it the table grows with max|t|, 0.5 GB at K = 10^6 and T = 60.
DEFAULT_BASIS_BUDGET = 200_000

# Excitation subsets of k atoms screened per (SUBSET_CHUNK, k) index array
# in enumerate_basis: 0.5 MB per excited atom.
SUBSET_CHUNK = 1 << 16

# Largest dense propagation in bytes: beyond it the Chebyshev series
# always runs.
DENSE_MEMORY_CEILING_BYTES = 2 * 1024**3

# The Chebyshev series runs when its cost K (nnz + dim T + SERIES_TERM_COST)
# + SERIES_CALL_COST is below SPARSE_COST_RATIO times dim^3, the cost of
# dense eigh; measured on one BLAS thread (see propagate). SERIES_TERM_COST
# is the fixed work of one term (a sparse product call, the recurrence and
# the Bessel row, about 13-15 us) in units of one stored element's product
# (about 2 ns): with it the series and eigh break even near K = 100 at dim
# 110, as measured. SERIES_CALL_COST is the series' fixed work per call (the
# CSR copy of h and the Bessel table, 0.3-0.5 ms before the first term) in
# the same units, so that a dim-42 H at one time takes eigh (0.25-0.3 ms
# against 0.35-0.5 ms).
SPARSE_COST_RATIO = 0.5
SERIES_TERM_COST = 6000
SERIES_CALL_COST = 150_000

# KMC events a trial draws for per generator call (see kinetic_monte_carlo)
_BLOCK = 64


def _positions_um(value):
    """value as a read-only (N, 3) float copy of finite atom coordinates (um)."""
    positions = np.atleast_2d(_frozen(value, "positions_um"))
    if positions.ndim != 2 or positions.shape[1] != 3:
        raise ValueError("positions_um must be an (N, 3) array")
    return positions


# --------------------------------------------------------------------------
# Blockade-sphere scaling laws
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class DriveConditions:
    """Macroscopic sample and drive parameters for the scaling laws.

    density_per_um3 is the ground-state atom density, rabi_mhz the
    single-atom drive, c6_mhz_um6 the van der Waals coefficient of the
    excited pair potential V(R) = c6/R^6. linewidth_mhz is the total
    excitation linewidth used by the incoherent-broadening variant and
    the rate model; detuning_mhz the laser detuning from atomic
    resonance.
    """

    density_per_um3: float
    rabi_mhz: float
    c6_mhz_um6: float
    linewidth_mhz: float = 0.0
    detuning_mhz: float = 0.0

    def __post_init__(self):
        for name in ("density_per_um3", "rabi_mhz", "c6_mhz_um6"):
            _require_finite_positive(getattr(self, name), name)
        _require_nonnegative(self.linewidth_mhz, "linewidth_mhz")
        if not abs(self.detuning_mhz) < math.inf:
            raise ValueError("detuning_mhz must be finite, got %r" % (self.detuning_mhz,))

    @property
    def blockade_radius_um(self):
        """Separation where the collective drive matches the pair shift.

        Solves sqrt(eta R^3) Omega = c6/R^6 for R.
        """
        return (
            self.c6_mhz_um6
            / (math.sqrt(self.density_per_um3) * self.rabi_mhz)
        ) ** (2.0 / 15.0)

    @property
    def saturated_density_per_um3(self):
        """One excitation per blockade sphere: 1/R_b^3."""
        return self.blockade_radius_um**-3

    @property
    def collective_rabi_mhz(self):
        """sqrt(atoms per blockade sphere) x single-atom drive."""
        return (
            math.sqrt(self.density_per_um3 * self.blockade_radius_um**3)
            * self.rabi_mhz
        )

    @property
    def alpha(self):
        """Dimensionless drive strength Omega / (c6 eta^2)."""
        return self.rabi_mhz / (self.c6_mhz_um6 * self.density_per_um3**2)

    @property
    def scaled_detuning(self):
        """Laser detuning in the same dimensionless units as alpha."""
        return self.detuning_mhz / (
            self.c6_mhz_um6 * self.density_per_um3**2
        )


def saturated_fraction(conditions, prefactor=None):
    """Saturated excited fraction kappa_f alpha^{2/5}.

    The 2/5 exponent follows from blockade-sphere counting; the prefactor
    carries the geometry- and protocol-dependent factors and must come
    from a calibration against exact dynamics (the module constant
    SATURATED_FRACTION_PREFACTOR holds the shipped calibration).
    """
    if prefactor is None:
        prefactor = SATURATED_FRACTION_PREFACTOR
    if prefactor is None or not 0 < prefactor < math.inf:
        raise ValueError(
            "saturated_fraction needs a calibrated positive prefactor"
        )
    return prefactor * conditions.alpha ** (2.0 / 5.0)


def linewidth_limited_density_per_um3(conditions):
    """Excited density scale when broadening beats the collective drive.

    Valid for linewidth >> collective Rabi frequency; the returned
    sqrt(linewidth / c6) carries a geometry prefactor of order one.
    """
    _require_positive(conditions.linewidth_mhz, "linewidth_mhz")
    return math.sqrt(conditions.linewidth_mhz / conditions.c6_mhz_um6)


def excitation_rate_scale_mhz(conditions, n_atoms):
    """Initial excited-number growth-rate scale for n_atoms in the sample.

    Power-broadened superatoms excite at roughly their collective Rabi
    frequency, giving N Omega^{6/5} / (eta^{2/5} c6^{1/5}) up to a
    geometry prefactor.
    """
    _require_positive(n_atoms, "n_atoms")
    return (
        n_atoms
        * conditions.rabi_mhz ** (6.0 / 5.0)
        / (
            conditions.density_per_um3 ** (2.0 / 5.0)
            * conditions.c6_mhz_um6 ** (1.0 / 5.0)
        )
    )


def scaled_excitation_rate(conditions, n_atoms):
    """The dimensionless rate g_R = rate / (c6 N eta^2) = alpha^{6/5}."""
    return excitation_rate_scale_mhz(conditions, n_atoms) / (
        conditions.c6_mhz_um6 * n_atoms * conditions.density_per_um3**2
    )


# --------------------------------------------------------------------------
# Geometry generators
# --------------------------------------------------------------------------


def cubic_lattice(shape, spacing_um):
    """Centered rectangular lattice of shape (nx, ny, nz) sites, each a
    whole number >= 1."""
    nx, ny, nz = (_require_whole(count, "lattice shape entry", 1) for count in shape)
    _require_finite_positive(spacing_um, "spacing_um")
    axes = [spacing_um * (np.arange(count) - (count - 1) / 2.0) for count in (nx, ny, nz)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    return grid.reshape(-1, 3)


def _rejection_fill(n, draw, min_separation_um, rng):
    n = _require_whole(n, "n", 0)
    positions = np.empty((n, 3))
    count = 0
    attempts = 0
    while count < n:
        candidate = draw(rng)
        attempts += 1
        if attempts > 10000 * n:
            raise ValueError(
                "cannot place %d atoms with min separation %g um"
                % (n, min_separation_um)
            )
        if count and min_separation_um > 0:
            dists = np.linalg.norm(positions[:count] - candidate, axis=1)
            if dists.min() < min_separation_um:
                continue
        positions[count] = candidate
        count += 1
    return positions


def uniform_box_positions(n, lengths_um, seed_or_rng, min_separation_um=0.0):
    """n atoms uniformly random in a box centered at the origin, lengths_um
    its three finite, positive edge lengths."""
    lengths = np.asarray(lengths_um, dtype=float)
    if lengths.shape != (3,):
        raise ValueError("lengths_um must hold three box lengths, got %r" % (lengths_um,))
    for length in lengths.tolist():
        _require_finite_positive(length, "lengths_um")
    rng = np.random.default_rng(seed_or_rng)
    return _rejection_fill(
        n,
        lambda r: (r.random(3) - 0.5) * lengths,
        min_separation_um,
        rng,
    )


def uniform_sphere_positions(n, radius_um, seed_or_rng, min_separation_um=0.0):
    """n atoms uniformly random in a sphere centered at the origin."""
    _require_finite_positive(radius_um, "radius_um")
    rng = np.random.default_rng(seed_or_rng)

    def draw(r):
        while True:
            candidate = (r.random(3) - 0.5) * 2.0 * radius_um
            if np.dot(candidate, candidate) <= radius_um**2:
                return candidate

    return _rejection_fill(n, draw, min_separation_um, rng)


def uniform_cylinder_positions(
    n, radius_um, length_um, seed_or_rng, min_separation_um=0.0
):
    """n atoms uniformly random in a z-axis cylinder centered at the origin."""
    for value, name in ((radius_um, "radius_um"), (length_um, "length_um")):
        _require_finite_positive(value, name)
    rng = np.random.default_rng(seed_or_rng)

    def draw(r):
        while True:
            xy = (r.random(2) - 0.5) * 2.0 * radius_um
            if np.dot(xy, xy) <= radius_um**2:
                return np.array(
                    [xy[0], xy[1], (r.random() - 0.5) * length_um]
                )

    return _rejection_fill(n, draw, min_separation_um, rng)


# --------------------------------------------------------------------------
# Truncated exact dynamics
# --------------------------------------------------------------------------


class TruncationError(ValueError):
    """Raised when the truncated basis exceeds the configured budget."""


@dataclass(frozen=True, eq=False)
class ExcitationModel:
    """Driven two-level ensemble with diagonal pair interactions.

    positions_um: (N, 3) atom coordinates. rabi_mhz and detuning_mhz may
    be scalars or per-atom arrays. Pair shifts come either from
    c6_mhz_um6 (V = c6 / r^6) or from an explicit symmetric
    interaction_mhz matrix, formed and checked (finite, no coincident atoms)
    once, at construction. positions_um, rabi_mhz, detuning_mhz and
    interaction_mhz are kept as read-only copies, so the couplings stay
    those of the stored arrays. The simulated basis keeps product states
    with at most max_excitations excited atoms whose total interaction
    energy stays within energy_cutoff_mhz in magnitude, at most
    basis_budget of them.
    """

    positions_um: np.ndarray
    rabi_mhz: object
    c6_mhz_um6: float = None
    interaction_mhz: np.ndarray = None
    detuning_mhz: object = 0.0
    max_excitations: int = 4
    energy_cutoff_mhz: float = math.inf
    basis_budget: int = DEFAULT_BASIS_BUDGET

    def __post_init__(self):
        object.__setattr__(self, "positions_um", _positions_um(self.positions_um))
        n = self.positions_um.shape[0]
        for name in ("rabi_mhz", "detuning_mhz"):
            values = _frozen(np.broadcast_to(getattr(self, name), (n,)), name)
            object.__setattr__(self, name, values)
        if np.any(self.rabi_mhz < 0):
            raise ValueError("rabi_mhz must be finite and nonnegative")
        if (self.c6_mhz_um6 is None) == (self.interaction_mhz is None):
            raise ValueError("specify exactly one of c6_mhz_um6 and interaction_mhz")
        if self.interaction_mhz is None:
            p = self.positions_um  # r2 by coordinate: no (N, N, 3) array, the same sums
            r2 = sum((p[:, None, a] - p[None, :, a]) ** 2 for a in range(3))
            np.fill_diagonal(r2, np.inf)
            if np.any(r2 == 0.0):
                raise ValueError("coincident atoms have no pair interaction")
            with np.errstate(all="ignore"):  # a non-finite V raises next
                v = self.c6_mhz_um6 / r2**3
            if not np.isfinite(v).all():
                raise ValueError("c6_mhz_um6 must be finite, got a non-finite coupling")
        else:
            v = _frozen(self.interaction_mhz, "interaction_mhz")
            object.__setattr__(self, "interaction_mhz", v)
            v = v.copy()
        if v.shape != (n, n) or not np.array_equal(v, v.T):
            raise ValueError("interaction_mhz must be a symmetric (N, N) matrix")
        np.fill_diagonal(v, 0.0)
        v.flags.writeable = False
        object.__setattr__(self, "_couplings_mhz", v)
        for name in ("max_excitations", "basis_budget"):
            object.__setattr__(self, name, _require_whole(getattr(self, name), name, 1))
        _require_positive(self.energy_cutoff_mhz, "energy_cutoff_mhz")

    @property
    def n_atoms(self):
        return self.positions_um.shape[0]

    def pair_shift_matrix_mhz(self):
        """Symmetric V_ij matrix in MHz with zero diagonal: a copy of the
        couplings formed at construction."""
        return self._couplings_mhz.copy()


def _subset_count(model):
    """Excitation subsets within max_excitations, before the energy cutoff."""
    return sum(
        math.comb(model.n_atoms, k) for k in range(model.max_excitations + 1)
    )


def enumerate_basis(model):
    """Excitation subsets kept by the truncation, as index tuples.

    Ordered by excitation number then lexicographically; the empty
    subset (all atoms in the ground state) comes first. The subsets of k
    atoms are screened SUBSET_CHUNK at a time as a (chunk, k) index array,
    their pair energies summed column pair by column pair in
    combinations(range(k), 2) order, as a sum over each subset's pairs.
    """
    raw = _subset_count(model)
    if raw > max(50 * model.basis_budget, 5_000_000):
        raise TruncationError(
            "untruncated subset count %d is too large to filter; reduce "
            "max_excitations or the atom number" % raw
        )
    v = model._couplings_mhz
    basis = []
    for k in range(model.max_excitations + 1):
        subsets = itertools.combinations(range(model.n_atoms), k)
        while chunk := list(itertools.islice(subsets, SUBSET_CHUNK)):
            flat = itertools.chain.from_iterable(chunk)
            index = np.fromiter(flat, np.intp, len(chunk) * k).reshape(len(chunk), k)
            energy = np.zeros(len(chunk))
            for a, b in itertools.combinations(range(k), 2):
                energy += v[index[:, a], index[:, b]]
            keep = ~(np.abs(energy) > model.energy_cutoff_mhz)
            basis.extend(itertools.compress(chunk, keep.tolist()))
            if len(basis) > model.basis_budget:
                raise TruncationError(
                    "truncated basis needs at least %d states, over the "
                    "budget of %d (raise basis_budget or tighten the "
                    "cutoffs)" % (len(basis), model.basis_budget)
                )
    return basis


def _membership(basis, n_atoms):
    """(dim, n_atoms) float matrix: 1 where the atom is excited in the state."""
    sizes = np.fromiter(map(len, basis), dtype=np.intp, count=len(basis))
    rows = np.repeat(np.arange(len(basis)), sizes)
    cols = np.fromiter(itertools.chain.from_iterable(basis), dtype=np.intp)
    membership = np.zeros((len(basis), n_atoms))
    membership[rows, cols] = 1.0
    return membership


def _build_hamiltonian(model, basis):
    """Sparse real-symmetric CSR Hamiltonian in angular rad/us units.

    Each subset is an integer bitmask (Python integers beyond 62 atoms);
    the state one more excitation away on atom a is found by one
    searchsorted of mask | 2^a among the sorted masks.
    """
    n = model.n_atoms
    dim = len(basis)
    membership = _membership(basis, n)
    energy = -(membership @ model.detuning_mhz)
    # sum of v_ij over excited pairs i < j: m.v.m / 2, as v has a zero diagonal
    energy += 0.5 * np.einsum("ri,ri->r", membership @ model._couplings_mhz, membership)
    rows = [np.arange(dim)]
    cols = [np.arange(dim)]
    values = [TWO_PI * energy]
    bits = [1 << atom for atom in range(n)]
    bits = np.array(bits, dtype=np.int64 if n < 63 else object)
    masks = membership.astype(np.int64).astype(bits.dtype, copy=False) @ bits
    order = np.argsort(masks)
    sorted_masks = masks[order]
    for atom in range(n):
        ground = np.flatnonzero(membership[:, atom] == 0.0)
        grown = masks[ground] | bits[atom]
        pos = np.minimum(np.searchsorted(sorted_masks, grown), dim - 1)
        kept = sorted_masks[pos] == grown
        row, col = ground[kept], order[pos[kept]]
        coupling = np.full(row.size, TWO_PI * model.rabi_mhz[atom] / 2.0)
        rows += [row, col]
        cols += [col, row]
        values += [coupling, coupling]
    h = scipy.sparse.csr_array(
        (np.concatenate(values), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dim, dim),
    )
    h.eliminate_zeros()
    return h


def _series_length(x, tol):
    """Smallest K > |x| with sum_{k >= K} 2 |J_k(x)| <= tol, for each x.

    Kapteyn's inequality (DLMF 10.14.8) bounds |J_n(n sech u)| by
    exp(-n (u - tanh u)). That exponent grows by at least u from n to
    n + 1, so the tail from K is at most 2 exp(-K (u - tanh u)) /
    (1 - exp(-u)) with u = arccosh(K / |x|). K ~ |x| + O(|x|^(1/3)).
    """
    x = np.abs(x)

    def tail(k):
        with np.errstate(divide="ignore"):
            u = np.arccosh(k / x)
        return -2.0 * np.exp(-k * (u - np.tanh(u))) / np.expm1(-u)

    lo, hi = np.floor(x), np.floor(x) + 1.0  # the bound needs K > |x|
    while np.any(short := tail(hi) > tol):
        hi = np.where(short, 2.0 * hi - lo, hi)
    while np.any(hi - lo > 1.0):
        mid = np.ceil(0.5 * (lo + hi))
        enough = tail(mid) <= tol
        hi, lo = np.where(enough, mid, hi), np.where(enough, lo, mid)
    return hi.astype(np.intp)


def _bessel_table(x, terms):
    """(terms, T) table of J_k(x_j), k < terms, for real x_j of either sign.

    Miller's backward recurrence J_{k-1} = (2k / x) J_k - J_{k+1}, started
    in each column where the Kapteyn tail falls below 1e-32 (so the start
    error reaches no tabulated order above 1e-16) and normalized by
    J_0 + 2 sum_k J_2k = 1. |x| < 1e-30 is raised to 1e-30, which moves
    J_1 ~ x / 2 by a negligible 5e-31.
    """
    x = np.copysign(np.maximum(np.abs(x), 1e-30), x)  # no division by 0
    start = _series_length(x, 1e-32)
    table = np.zeros((terms, x.size))
    ratio = 2.0 / x
    upper, value, even = np.zeros((3, x.size))
    for k in range(int(start.max(initial=0)), -1, -1):
        value[start == k] = 1e-250  # no column overflows on its way down
        if k < terms:
            table[k] = value
        if k % 2 == 0:
            even += value
        upper, value = value, (k * ratio) * value - upper
    table /= 2.0 * even - table[0]
    return table


def _chebyshev(h, psi0, times, lo, hi, need):
    """exp(-i h t) psi0 for every t, with h's spectrum in [lo, hi].

    Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967 (1984): with b, a the centre
    and half-width of [lo, hi] and X = (h - b) / a, exp(-i h t) =
    exp(-i b t) sum_k (2 - delta_k0) (-i)^k J_k(a t) T_k(X). The vectors
    v_k = T_k(X) psi0 obey v_{k+1} = 2 X v_k - v_{k-1}, real when h and psi0
    are, and are summed in blocks of 64 by gemm; time j takes need[j]
    terms, past which the tail moves no amplitude by 1e-16 |psi0|.
    """
    dim = h.shape[0]
    centre, half = 0.5 * (lo + hi), max(0.5 * (hi - lo), np.finfo(float).tiny)
    dtype = np.result_type(h.dtype, psi0.dtype, float)
    m = scipy.sparse.csr_array(h - centre * scipy.sparse.eye_array(dim), dtype=dtype)
    m *= 2.0 / half  # m = 2 X
    terms = int(need.max(initial=1))
    order = np.argsort(need, kind="stable")  # so each block sums a suffix
    need, times = need[order], times[order]
    table = _bessel_table(half * times, terms)  # J_k(-x) = (-1)^k J_k(x)
    table[0] *= 0.5  # so that every term carries the weight 2 (-i)^k
    width = 64  # a multiple of 4, the period of (-i)^k
    weight = 2.0 * (-1j) ** np.arange(width)
    out = np.zeros((dim, times.size), complex)
    span = max(1, 2**16 // max(times.size, 1))
    block = np.empty((width, dim), dtype)
    block[0] = psi0
    block[1] = 0.5 * (m @ psi0)
    for k0 in range(0, terms, width):
        rows = min(width, terms - k0)
        for i in range(2 if k0 == 0 else 0, rows):
            # negative indices reach back into the previous block
            np.subtract(m @ block[i - 1], block[i - 2], out=block[i])
        cols = slice(np.searchsorted(need, k0, side="right"), None)
        coef = table[k0:k0 + rows, cols] * weight[:rows, None]
        # 2^16 / T rows per gemm keep its temporary within 1 MB
        for r in range(0, dim, span):
            part = slice(r, r + span)
            if dtype.kind == "f":
                # (-i)^k is real for even k and imaginary for odd k
                out.real[part, cols] += block[:rows:2, part].T @ coef[::2].real
                out.imag[part, cols] += block[1:rows:2, part].T @ coef[1::2].imag
            else:
                out[part, cols] += block[:rows, part].T @ coef
    out *= np.exp(-1j * centre * times)
    inverse = np.argsort(order)
    for r in range(0, dim, span):  # back to the given order, span rows at once
        out[r:r + span] = out[r:r + span, inverse]
    return out


def _time_grid(times_us):
    """times_us as a float array; ValueError unless one time or a non-empty 1-D grid, finite."""
    times = np.asarray(times_us, dtype=float)
    if times.ndim > 1 or times.size == 0 or not np.isfinite(times).all():
        raise ValueError("times_us must be one finite time or a non-empty 1-D grid of them")
    return times


def _propagate(h, psi0, times_us):
    """propagate, also returning the method that ran: "eigh" or "chebyshev"."""
    times = _time_grid(times_us)
    psi0 = np.asarray(psi0)
    dim = h.shape[0]
    # Gershgorin discs bound the spectrum exactly
    diag = h.diagonal().real
    radius = np.asarray(abs(h).sum(axis=1)).ravel() - np.abs(diag)
    lo, hi = np.min(diag - radius), np.max(diag + radius)
    need = _series_length(0.5 * (hi - lo) * times, 1e-16)
    nnz = h.nnz if scipy.sparse.issparse(h) else np.count_nonzero(h)
    terms = need.max(initial=1)
    series_cost = terms * (nnz + dim * times.size + SERIES_TERM_COST) + SERIES_CALL_COST
    # eigh holds H, its eigenvectors, their complex copy and the result
    dense_bytes = 32 * dim**2 + 16 * dim * times.size
    if (
        dense_bytes > DENSE_MEMORY_CEILING_BYTES
        or series_cost < SPARSE_COST_RATIO * dim**3
    ):
        return _chebyshev(h, psi0, times, lo, hi, need), "chebyshev"
    if scipy.sparse.issparse(h):
        h = h.toarray()
    energies, modes = np.linalg.eigh(h)
    # conjugating the vector, not the matrix, avoids a dim^2 copy of modes
    coeffs = (np.conj(psi0) @ modes).conj()
    phases = np.exp(-1j * np.outer(energies, times))
    return modes @ (phases * coeffs[:, None]), "eigh"


def propagate(h, psi0, times_us):
    """Exact evolution of psi0 under a constant Hermitian h (rad/us).

    h may be a dense array or a scipy.sparse matrix. Returns the (dim, T)
    amplitudes at times_us, any finite times in any order, by one of two
    exact methods:

    * dense eigh: one eigendecomposition serves every time. Cost ~ dim^3.
    * Chebyshev series (see _chebyshev): one three-term recurrence serves
      every time, with K ~ a max|t| terms for a the Gershgorin half-width
      of h. Cost ~ K (nnz + dim T + SERIES_TERM_COST) + SERIES_CALL_COST,
      the fixed work of one term and of one call; no dim^2 array is formed.

    The series runs when its cost is below SPARSE_COST_RATIO * dim^3, and
    always when eigh would need more than DENSE_MEMORY_CEILING_BYTES. Both
    round to about what a relative change of eps in t gives, eps ||h|| |t|
    per unit of |psi0|, whatever K. times_us is one time or a non-empty 1-D
    grid of finite times (the rule of every function here that takes times).
    """
    return _propagate(h, psi0, times_us)[0]


def _number_probabilities(weights, counts, n_atoms):
    """(T, n_atoms + 1) probabilities of each excitation number: the state
    weights (dim, T) summed over the states whose count is k."""
    probs = np.zeros((weights.shape[1], n_atoms + 1))
    for k in range(n_atoms + 1):
        probs[:, k] = weights[counts == k].sum(axis=0)
    return probs


@dataclass(frozen=True, eq=False)
class ExactDynamics:
    """Unitary time series of the truncated driven ensemble."""

    times_us: np.ndarray
    mean_excitations: np.ndarray
    number_probabilities: np.ndarray  # (T, n_atoms + 1)
    dimension: int
    norm_drift: float
    method: str  # the propagate method that ran: "eigh" or "chebyshev"
    rejected_states: int  # subsets within max_excitations the cutoff dropped
    cap_population: float  # peak P(n = max_excitations), 0.0 when it is >= N
    g2_r_um: np.ndarray = None
    g2: np.ndarray = None


def simulate_exact(model, times_us, g2_bins_um=None, g2_window=0.5):
    """Evolve the truncated ensemble from all-ground and report statistics.

    Returns mean excited number and the excited-number distribution at
    each requested time, and cap_population, the peak population at
    max_excitations (it flags a binding cap). When g2_bins_um is given, the
    normalized two-point correlation <n_i n_j> / (<n_i><n_j>) is
    averaged over the trailing g2_window fraction of the time grid and
    over the pairs falling in each separation bin; 0 < g2_window <= 1,
    and the window holds at least the last time. g2_bins_um holds at least
    two finite, strictly increasing edges; times_us is as for propagate.
    """
    if not 0.0 < g2_window <= 1.0:
        raise ValueError("g2_window must be in (0, 1], got %r" % (g2_window,))
    times = _time_grid(times_us)
    if g2_bins_um is not None:
        edges = np.asarray(g2_bins_um, dtype=float)
        if not (edges.ndim == 1 and edges.size > 1 and np.isfinite(edges).all()
                and np.all(np.diff(edges) > 0)):
            raise ValueError("g2_bins_um must hold at least two finite, strictly increasing edges")
    basis = enumerate_basis(model)
    dim = len(basis)
    h = _build_hamiltonian(model, basis)
    # all population starts in the all-ground state, basis index 0
    psi0 = np.zeros(dim)
    psi0[0] = 1.0
    amplitudes, method = _propagate(h, psi0, times)
    weights = np.abs(amplitudes) ** 2

    sizes = np.fromiter(map(len, basis), dtype=np.intp, count=dim)
    norms = weights.sum(axis=0)
    norm_drift = float(np.max(np.abs(norms - 1.0)))
    mean = sizes @ weights
    probs = _number_probabilities(weights, sizes, model.n_atoms)
    cap = model.max_excitations
    cap_population = float(probs[:, cap].max()) if cap < model.n_atoms else 0.0

    g2_r = g2_vals = None
    if g2_bins_um is not None:
        membership = _membership(basis, model.n_atoms)
        start = min(int(math.ceil(times.size * (1.0 - g2_window))), times.size - 1)
        late = weights[:, start:].mean(axis=1)
        occupancy = late @ membership
        joint = (membership * late[:, None]).T @ membership
        i, j = np.triu_indices(model.n_atoms, 1)
        dists = np.linalg.norm(
            model.positions_um[i] - model.positions_um[j], axis=1
        )
        g2_r = 0.5 * (edges[1:] + edges[:-1])
        # bin b holds edges[b] <= d < edges[b + 1]
        bins = np.digitize(dists, edges) - 1
        inside = (bins >= 0) & (bins < g2_r.size)
        bins = bins[inside]
        num = np.bincount(bins, joint[i, j][inside], g2_r.size)
        den = np.bincount(
            bins, (occupancy[i] * occupancy[j])[inside], g2_r.size
        )
        g2_vals = np.full(g2_r.size, np.nan)
        filled = den > 0  # a bin with no pair or no occupancy stays nan
        g2_vals[filled] = num[filled] / den[filled]
    return ExactDynamics(
        times_us=times,
        mean_excitations=mean,
        number_probabilities=probs,
        dimension=dim,
        norm_drift=norm_drift,
        method=method,
        rejected_states=_subset_count(model) - dim,
        cap_population=cap_population,
        g2_r_um=g2_r,
        g2=g2_vals,
    )


# --------------------------------------------------------------------------
# Three-atom exchange (flip-flop) model
# --------------------------------------------------------------------------

# Single-atom levels of the exchange model: ground, driven excited level,
# and the two exchange product levels.
_G, _P, _S, _SP = 0, 1, 2, 3


@dataclass(frozen=True, eq=False)
class TripleExchangeDynamics:
    """Dynamics of three driven atoms with resonant pair exchange."""

    times_us: np.ndarray
    excitation_probabilities: np.ndarray  # (T, 4): 0..3 excited atoms
    pair_shifts_mhz: np.ndarray  # (3,): blockade shift of pairs 01, 02, 12
    zero_shift_triple_dimension: int

    @property
    def max_triple_population(self):
        return float(self.excitation_probabilities[:, 3].max())


def axial_exchange_couplings_mhz(positions_um, c3_mhz_um3, axis=(1.0, 0.0, 0.0)):
    """Pairwise exchange couplings with the axial dipole-dipole weight.

    Each pair acquires ``c3 * (1 - 3 cos^2 theta) / r^3`` where ``theta``
    is the angle between the pair separation and the quantization
    ``axis``.  Atoms at equal separations generally end up with unequal
    couplings because their pair axes point in different directions.
    Returns a symmetric (N, N) matrix with zero diagonal; c3_mhz_um3 may
    have either sign but must be finite.
    """
    _require_nonnegative(abs(c3_mhz_um3), "|c3_mhz_um3|")
    pos = _positions_um(positions_um)
    axis = np.asarray(axis, dtype=float)
    norm = np.linalg.norm(axis)
    if not 0 < norm < math.inf:
        raise ValueError("axis must be a nonzero finite vector")
    axis = axis / norm
    n = pos.shape[0]
    out = np.zeros((n, n))
    for i, j in itertools.combinations(range(n), 2):
        rvec = pos[j] - pos[i]
        r = np.linalg.norm(rvec)
        if r == 0:
            raise ValueError("atoms %d and %d are coincident" % (i, j))
        cos_t = float(rvec @ axis) / r
        out[i, j] = out[j, i] = c3_mhz_um3 * (1.0 - 3.0 * cos_t**2) / r**3
    return out


def _as_exchange_matrix(exchange_mhz):
    """Normalize scalar or (3, 3) exchange input to a symmetric matrix with
    zero diagonal and at least one nonzero pair coupling."""
    arr = np.asarray(exchange_mhz, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("exchange_mhz must be finite")
    if arr.ndim == 0:
        arr = np.full((3, 3), float(arr))
    elif arr.shape != (3, 3):
        raise ValueError(
            "exchange_mhz must be a scalar or a (3, 3) matrix, got shape %s"
            % (arr.shape,)
        )
    elif not np.array_equal(arr, arr.T):
        raise ValueError("exchange_mhz matrix must be symmetric")
    mat = np.where(np.eye(3, dtype=bool), 0.0, arr)
    if not np.any(mat):
        raise ValueError("exchange_mhz must couple at least one pair")
    return mat


def _triple_exchange_hamiltonian(rabi_mhz, exchange_matrix_mhz):
    """64-level Hamiltonian: drive on g<->p, pair exchange pp<->ss' + s's,
    written at the product index 16 a0 + 4 a1 + a2 (np.kron's) of the atoms'
    levels a: a drive moves one digit, an exchange two."""
    levels, place = np.indices((4, 4, 4)).reshape(3, -1), np.array([16, 4, 1])
    v = TWO_PI * exchange_matrix_mhz
    h = np.zeros((64, 64))  # each coupling once; h + h.T adds its mirror
    for atom in range(3):
        ground = np.flatnonzero(levels[atom] == _G)
        h[ground, ground + (_P - _G) * place[atom]] = TWO_PI * rabi_mhz * 0.5
    for i, j in itertools.combinations(range(3), 2):
        pp = np.flatnonzero((levels[i] == _P) & (levels[j] == _P))
        for a, b in ((_S, _SP), (_SP, _S)):
            h[pp + (a - _P) * place[i] + (b - _P) * place[j], pp] = v[i, j]
    return h + h.T


def _excited_count_vector():
    """Number of excited atoms (p, s or s') for each of the 64 product states."""
    return np.count_nonzero(np.indices((4, 4, 4)) != _G, axis=0).ravel()


def triple_exchange_pair_shift_mhz(exchange_mhz):
    """Blockade shift of one driven pair: the pp state splits by sqrt(2)|V|."""
    return math.sqrt(2.0) * abs(exchange_mhz)


def simulate_triple_exchange(rabi_mhz, exchange_mhz, times_us):
    """Drive three exchange-coupled atoms from the ground state.

    ``exchange_mhz`` is either one number applied to every pair or a
    symmetric (3, 3) matrix of per-pair couplings, equal bit for bit across
    the diagonal, which is ignored.

    Every doubly-excited configuration is shifted by at least the
    smallest pair splitting sqrt(2)|V_ij|, yet the triply-excited block
    retains eigenstates at zero interaction energy.  Whether the drive
    can reach them depends on the coupling pattern: with all three
    couplings equal, permutation symmetry decouples the zero-shift
    states exactly and triple excitation stays fourth order in the
    drive; with unequal couplings (the generic case once the angular
    dependence of the interaction is accounted for), a resonant
    two-photon path from one to three excitations opens and the peak
    triple population grows to order (rabi / pair shift)^2 even though
    every pair remains blockaded. rabi_mhz is finite and positive, times_us
    as for propagate.
    """
    _require_finite_positive(rabi_mhz, "rabi_mhz")
    vmat = _as_exchange_matrix(exchange_mhz)
    times = _time_grid(times_us)
    h = _triple_exchange_hamiltonian(rabi_mhz, vmat)
    psi0 = np.zeros(h.shape[0])
    psi0[0] = 1.0
    weights = np.abs(propagate(h, psi0, times)) ** 2

    counts = _excited_count_vector()
    probs = _number_probabilities(weights, counts, 3)

    # dimension of the zero-shift subspace of the triply-excited block; the
    # drive only turns g into p, so it has no entry inside this block
    triple = np.flatnonzero(counts == 3)
    evals = np.linalg.eigvalsh(h[np.ix_(triple, triple)])
    vscale = float(np.abs(vmat).max())
    n_zero = int(np.count_nonzero(np.abs(evals) < 1e-9 * TWO_PI * vscale))

    pairs = [(0, 1), (0, 2), (1, 2)]
    shifts = np.array([triple_exchange_pair_shift_mhz(vmat[i, j]) for i, j in pairs])
    return TripleExchangeDynamics(
        times_us=times,
        excitation_probabilities=probs,
        pair_shifts_mhz=shifts,
        zero_shift_triple_dimension=n_zero,
    )


# --------------------------------------------------------------------------
# Kinetic Monte Carlo
# --------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CountingStatistics:
    """Excited-number samples and their normalized variance.

    samples are at least two finite, non-negative numbers in a 1-D array.
    q is nan when every sample is zero (no excitation to normalize by).
    """

    samples: np.ndarray
    mean: float
    variance: float
    q: float

    @classmethod
    def from_samples(cls, samples):
        samples = _require_counts(samples, whole=False)
        if samples.ndim != 1:
            raise ValueError("samples must be 1-D, got shape %r" % (samples.shape,))
        if samples.size < 2:
            raise ValueError("counting statistics need at least two samples")
        mean, variance = samples.mean(), samples.var(ddof=1)
        q = float(variance / mean - 1.0) if mean > 0 else math.nan
        return cls(samples=samples, mean=float(mean), variance=float(variance), q=q)


def _require_counts(samples, whole):
    """samples as a float array, or ValueError naming them unless every
    sample is finite and >= 0 and, when whole, a whole number."""
    samples = np.asarray(samples, dtype=float)
    good = np.isfinite(samples) & (samples >= 0)
    if whole:
        good &= samples == np.floor(samples)
    if not good.all():
        kind = "whole numbers" if whole else "numbers"
        raise ValueError("samples must be finite, non-negative " + kind)
    return samples


def mandel_q(samples):
    """Normalized variance excess: variance / mean - 1.

    Zero for Poissonian counts, negative for sub-Poissonian ones, -1 for
    a deterministic count. Uses the unbiased sample variance. samples are
    finite and non-negative, with a positive mean, in a 1-D array.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.size < 2:
        raise ValueError("mandel_q needs at least two samples")
    # a nan or -inf sample makes the mean fail first
    _require_positive(samples.mean(), "the mean of samples")
    return CountingStatistics.from_samples(samples).q


def thin_counts(samples, efficiency, seed_or_rng):
    """Binomially thin counts, finite non-negative whole numbers, by a
    detection efficiency."""
    if not 0.0 < efficiency <= 1.0:
        raise ValueError("efficiency must be in (0, 1]")
    samples = _require_counts(samples, whole=True)
    rng = np.random.default_rng(seed_or_rng)
    return rng.binomial(samples.astype(np.int64), efficiency)


@dataclass(frozen=True, eq=False)
class KineticResult:
    """Trajectories and final counting statistics of a rate-equation run."""

    times_us: np.ndarray
    trajectories: np.ndarray  # (trials, T) excited counts
    events: np.ndarray  # (trials,) flips applied to each trial
    statistics: CountingStatistics
    seed: int


def _lorentzian_rates(model, gamma_mhz):
    """Per-atom transition rates (rad/us) as a function of interaction shifts.

    shifts is one (N,) vector or a (B, N) stack of them (MHz); row b of the
    result holds the rates of row b, written into out when it is given. The
    factors that do not depend on the shifts are formed once.
    """
    gamma = TWO_PI * gamma_mhz
    with np.errstate(over="ignore"):
        numerator = (TWO_PI * model.rabi_mhz) ** 2 * gamma
        # inf for a huge linewidth: every rate, about Omega^2 / Gamma, is then 0
        gamma_sq = np.float64(gamma) ** 2
    if not np.all(np.isfinite(numerator)):
        # an atom's rate is then inf or nan whatever its shift
        raise ValueError("transition rate total is not finite")
    detuning_mhz = model.detuning_mhz

    def rates(shifts, out=None):
        # numerator / (gamma^2 + 4 (2 pi (delta - shift))^2), one pass at a time
        out = np.subtract(detuning_mhz, shifts, out=out)
        out *= TWO_PI
        np.square(out, out=out)
        out *= 4.0
        out += gamma_sq
        return np.divide(numerator, out, out=out)

    return rates


class _RunningShifts:
    """Interaction shifts excited @ couplings.T of a stack of trials, kept
    up to date one flip at a time (see kinetic_monte_carlo).

    couplings is v rounded to multiples of 2^e. Every 0/1 partial sum of
    one of its rows is then a multiple of 2^e below 2^(e+53) in magnitude,
    which a double holds exactly, so the running sums are exact.
    """

    def __init__(self, v, trials):
        with np.errstate(over="ignore"):
            scale = np.abs(v).sum(axis=1).max(initial=0.0)
        # 2^1023 keeps the rounded partial sums below the float range
        if not scale <= 2.0**1023:
            raise ValueError(
                "interaction row sums must be finite and at most 2**1023 MHz"
            )
        mantissa, exponent = math.frexp(scale)
        # ceil(log2 scale) - 52; frexp gives 0 for a zero scale. ldexp, not
        # 2.0**e, since 2^e underflows to 0 for subnormal couplings
        self.exponent = exponent - 52 - (mantissa == 0.5)
        self.couplings = np.ldexp(
            np.rint(np.ldexp(v, -self.exponent)), self.exponent
        )
        # row 0 holds the column an excitation adds, row 1 the one a decay
        # subtracts: flip reads it at (was excited, atom)
        self._signed_columns = np.stack((self.couplings.T, -self.couplings.T))
        self.excited = np.zeros((trials, v.shape[0]), dtype=bool)
        self.shifts = np.zeros((trials, v.shape[0]))
        self._rows = np.arange(trials)

    def flip(self, atoms):
        """Flip atom atoms[k] of trial row k; True where it was excited."""
        rows = self._rows[: atoms.size]
        was = self.excited[rows, atoms]
        self.shifts += self._signed_columns[was.view(np.int8), atoms]
        self.excited[rows, atoms] = ~was
        return was

    def keep(self, rows):
        """Keep only the trial rows that rows selects, in order."""
        self.excited = self.excited[rows]
        self.shifts = self.shifts[rows]


def _direct_pick(table, u):
    """Per row, the first atom whose cumulative rate exceeds u * total, kept below total."""
    total = table[:, -1]
    return (table > np.minimum(u * total, np.nextafter(total, 0))[:, None]).argmax(axis=1)


def kinetic_monte_carlo(model, gamma_mhz, times_us, trials, seed):
    """Stochastic excitation dynamics with interaction-shifted rates.

    Each atom flips between ground and excited with a Lorentzian rate
    Omega^2 Gamma / (Gamma^2 + 4 (delta - sum_j V_ij n_j)^2); excited
    atoms return at the rate evaluated with their own current shift.
    Trials advance in lockstep, one event for every unfinished trial per
    step, but each trial draws from its own generator, spawned off the
    given seed, as if it ran alone. An event takes two Generator.random
    uniforms in turn: u1 sets the wait -log1p(-u1) / total by inverse
    transform, u2 the atom by Gillespie's direct method on the raw
    cumulative rates, whose last entry is total: the first atom whose entry
    exceeds u2 * total. Below 2^-1021 that product can round up to total,
    so it is held below total and the atom always has a positive rate. A
    trial fetches _BLOCK events' uniforms per random(out=) call, the same
    doubles as one call each, so a trajectory depends on neither the block
    length nor the trial count. events counts each trial's flips. Samples
    for the counting statistics are the excited numbers at the final
    requested time, so trials is a whole number >= 2.

    The shifts sum_j V_ij n_j are running sums: an event adds or subtracts
    the flipped atom's column of V, O(N) per trial instead of a matrix
    product. V is rounded once to multiples of 2^e, e = ceil(log2 max_i
    sum_j |V_ij|) - 52, which moves each coupling by at most 2^(e-1), less
    than 2^-52 of the largest row sum. Every running sum is then exact:
    bit for bit the rounded V times the excited set, whatever the order of
    events. A row sum of |V| that is not finite (or above 2^1023 MHz)
    raises ValueError. times_us: as for propagate, nondecreasing, nonnegative.
    """
    _require_finite_positive(gamma_mhz, "gamma_mhz")
    trials = _require_whole(trials, "trials", 2)
    times = _time_grid(times_us).reshape(-1)
    if np.any(np.diff(times) < 0) or times[0] < 0:
        raise ValueError("times_us must be nondecreasing and nonnegative")
    rates_of = _lorentzian_rates(model, gamma_mhz)
    state = _RunningShifts(model._couplings_mhz, trials)
    streams = np.random.SeedSequence(seed).spawn(trials)
    uniforms = [np.random.default_rng(stream).random for stream in streams]
    # Row k of state and of every array below belongs to trial live[k]; a
    # trial that ends leaves them all. Every live trial has made step
    # events, so all of them are at the same place in their block.
    live = np.arange(trials)
    draws = np.empty((trials, 2 * _BLOCK))
    t = np.zeros(trials)
    cursor = np.zeros(trials, dtype=np.intp)
    count = np.zeros(trials, dtype=np.int64)
    events = np.zeros(trials, dtype=np.int64)
    trajectories = np.zeros((trials, times.size), dtype=np.int64)
    rate_buffer = np.empty((trials, model.n_atoms))
    step = 0

    def leave(ending):
        nonlocal live, draws, t, cursor, count
        # a trial that ends holds its last count on the rest of the grid
        for k in np.flatnonzero(ending):
            trajectories[live[k], cursor[k]:] = count[k]
        events[live[ending]] = step
        kept = ~ending
        state.keep(kept)
        live, draws, t, cursor, count = (a[kept] for a in (live, draws, t, cursor, count))

    while live.size:
        # the cumulative rate table; its last column is each trial's total
        table = rates_of(state.shifts, out=rate_buffer[: live.size])
        np.cumsum(table, axis=1, out=table)
        total = table[:, -1]
        if not np.isfinite(total).all():
            # an infinite total waits 0 forever, a nan one ends the trial
            raise ValueError("transition rate total is not finite")
        # a trial with no allowed transition (total 0, as no rate is
        # negative) is finished, and draws nothing more
        if not total.all():
            moving = total > 0
            leave(~moving)
            table, total = table[moving], total[moving]
        slot = 2 * (step % _BLOCK)
        if not slot:
            for trial, row in zip(live, draws):
                uniforms[trial](out=row)
        t -= np.log1p(-draws[:, slot]) / total  # the wait is -log1p(-u1) / total
        u = draws[:, slot + 1]
        # record the state on every grid point passed by this step
        new = np.searchsorted(times, t, side="left")
        for k in np.flatnonzero(new > cursor):
            trajectories[live[k], cursor[k]:new[k]] = count[k]
        cursor = new
        count += np.where(state.flip(_direct_pick(table, u)), -1, 1)
        step += 1
        ended = new == times.size
        if ended.any():
            leave(ended)
    stats = CountingStatistics.from_samples(trajectories[:, -1])
    return KineticResult(
        times_us=times,
        trajectories=trajectories,
        events=events,
        statistics=stats,
        seed=seed,
    )
