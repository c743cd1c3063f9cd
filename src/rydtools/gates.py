"""Error budgets for entangling gates and the excitation laser system.

Two gate families are budgeted here. The blockade gate drives one atom
conditioned on the other sitting deep inside the blockade radius; its error
trades spontaneous emission during the pulses against double-excitation
leakage and off-resonant qubit rotation. The interaction gate instead lets a
weak pair shift accumulate a conditional phase; its error trades spontaneous
emission against imperfect rotations at both the drive and qubit-splitting
scales. On top of the per-operating-point budgets this module optimizes the
drive strength (in leading-order closed form, and exactly as the budget's
stationary point: a polynomial root, or for a saturating shift a scan and a
sectioning to adjacent floats), scans error landscapes over principal
quantum number and atom separation in array passes, using the
pair-interaction and blockade machinery, and budgets the supporting
hardware: two-photon excitation (spontaneous emission from the intermediate
state, Doppler dephasing, AC Stark shifts), Poisson-loading statistics, and
the array size reachable within a total error budget.

Drive strengths, level shifts and splittings are cyclic frequencies in MHz;
times are microseconds. Formulas mixing rates and times convert to angular
units internally.
"""

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import constants as cst
from .angular import dipole_angular_factor, reduced_c1_lsj
from .atoms import LifetimeModel, RydbergState, radial_matrix_element, radial_matrix_elements
from .blockade import _driven_states, _eigenspaces, _grouped_spectra, _saturated_shift
from .constants import _require_finite_positive, _require_nonnegative, _require_positive
from .pair import forster_eigensystem, s_state_channels

# Scale ratio treated as a clear separation by the advisory regime flags.
REGIME_FACTOR = 3.0
# Minimum accumulated interaction phase (rad) per lifetime for the
# interaction gate to make sense at all.
MIN_PHASE_RAD = 10.0
# Hyperfine span of the low-lying intermediate p state (MHz); the two-photon
# detuning should clear it by a wide margin.
INTERMEDIATE_HYPERFINE_SPAN_MHZ = 500.0
# Drives in the log-spaced scan of optimize_interaction_gate, and its
# default drive bounds (MHz).
INTERACTION_SCAN_POINTS = 61
RABI_BOUNDS_MHZ = (1e-3, 2e4)

# Array-capacity prefactors, calibrated so a gate error budget of 0.001 at
# n = 100 gives 470 qubits in 2D and 7600 in 3D.
CAPACITY_2D = 470.0 / (0.001 ** (1.0 / 3.0) * 100.0 ** (2.0 / 3.0))
CAPACITY_3D = 7600.0 / (math.sqrt(0.001) * 100.0)


@dataclass(frozen=True)
class GateParams:
    """Operating point of a two-atom gate (cyclic MHz, microseconds).

    blockade_mhz is the pair shift suppressing double excitation (blockade
    gate); interaction_mhz is the weak pair shift accumulating the
    conditional phase (interaction gate). Either may be omitted when the
    other gate family is budgeted.
    """

    rabi_mhz: float
    lifetime_us: float
    qubit_splitting_mhz: float = cst.SPECIES_OMEGA10_MHZ["Rb87"]
    blockade_mhz: Optional[float] = None
    interaction_mhz: Optional[float] = None

    def __post_init__(self):
        _require_finite_positive(self.rabi_mhz, "rabi_mhz")
        _require_positive(self.lifetime_us, "lifetime_us")
        _require_positive(self.qubit_splitting_mhz, "qubit_splitting_mhz")
        if self.blockade_mhz is not None:
            _require_positive(self.blockade_mhz, "blockade_mhz")
        if self.interaction_mhz is not None:
            _require_positive(self.interaction_mhz, "interaction_mhz")

    @property
    def blockade_regime_ok(self):
        """True when the blockade shift clearly dominates the drive."""
        return (
            self.blockade_mhz is not None
            and self.blockade_mhz >= REGIME_FACTOR * self.rabi_mhz
        )

    @property
    def interaction_regime_ok(self):
        """True when qubit splitting >> drive >> interaction shift."""
        return (
            self.interaction_mhz is not None
            and self.rabi_mhz >= REGIME_FACTOR * self.interaction_mhz
            and self.qubit_splitting_mhz >= REGIME_FACTOR * self.rabi_mhz
        )


@dataclass(frozen=True)
class GateErrorBudget:
    """Additive gate-error decomposition.

    total_error is the exact sum of the spontaneous-emission and rotation
    terms. Optimizer outputs (optimal drive, whether the optimum is
    interior, the self-consistent pair shift) are attached when a budget
    comes out of an optimization. interior_optimum is False only when
    optimize_interaction_gate's best scanned drive is an end of its scan.
    """

    se_error: float
    rotation_error: float
    total_error: float
    rabi_opt_mhz: Optional[float] = None
    interior_optimum: Optional[bool] = None
    regime_ok: bool = True
    interaction_mhz: Optional[float] = None


def blockade_gate_error(params):
    """Input-averaged error of a blockade-phase entangling gate.

    The spontaneous-emission term scales with the time spent in the excited
    state, 1/(drive * lifetime); the rotation term collects imperfect
    blockade (double-excitation leakage) and off-resonant excitation of the
    other qubit level. Both terms stay finite at blockade_mhz = inf.
    """
    if params.blockade_mhz is None:
        raise ValueError("blockade_mhz is required for the blockade gate")
    omega = 2.0 * math.pi * params.rabi_mhz
    b = 2.0 * math.pi * params.blockade_mhz
    w10 = 2.0 * math.pi * params.qubit_splitting_mhz
    tau = params.lifetime_us
    se = (7.0 * math.pi / (4.0 * omega * tau)) * (
        1.0 + omega**2 / w10**2 + omega**2 / (7.0 * b**2)
    )
    rot = omega**2 / (8.0 * b**2) + 3.0 * omega**2 / (4.0 * w10**2)
    return GateErrorBudget(
        se_error=se,
        rotation_error=rot,
        total_error=se + rot,
        regime_ok=params.blockade_regime_ok,
    )


def optimal_blockade_gate(blockade_mhz, lifetime_us):
    """Closed-form optimal drive and error for the blockade gate.

    Balances only the two dominant terms (spontaneous emission against
    blockade leakage), i.e. assumes an infinite qubit splitting. Returns
    (rabi_opt_mhz, error_min); the error falls off as the -2/3 power of the
    blockade-shift--lifetime product.
    """
    _require_positive(blockade_mhz, "blockade_mhz")
    _require_positive(lifetime_us, "lifetime_us")
    b = 2.0 * math.pi * blockade_mhz
    omega_opt = (7.0 * math.pi) ** (1.0 / 3.0) * b ** (2.0 / 3.0) / lifetime_us ** (1.0 / 3.0)
    e_min = 3.0 * (7.0 * math.pi) ** (2.0 / 3.0) / 8.0 * (b * lifetime_us) ** (-2.0 / 3.0)
    return omega_opt / (2.0 * math.pi), e_min


def _positive_roots(coeffs):
    """The one positive root of each polynomial in a stack (coefficients
    from the highest power, last axis) whose coefficients change sign once:
    for the gate polynomials the companion eigenvalue of largest real part.
    One stacked eigvals, one Newton step; rows are independent bit for bit."""
    coeffs = np.asarray(coeffs, dtype=float)
    deg = coeffs.shape[-1] - 1
    companion = np.zeros(coeffs.shape[:-1] + (deg, deg)) + np.eye(deg, k=-1)
    companion[..., 0, :] = -coeffs[..., 1:] / coeffs[..., :1]
    roots = np.linalg.eigvals(companion).real
    x = np.take_along_axis(roots, np.argmax(roots, axis=-1)[..., None], -1)[..., 0]
    value = slope = 0.0
    for power, column in zip(range(deg, 0, -1), np.moveaxis(coeffs, -1, 0)):
        value, slope = value * x + column, slope * x + column * power
    return x - (value * x + coeffs[..., -1]) / slope


def minimize_blockade_gate(
    blockade_mhz,
    lifetime_us,
    qubit_splitting_mhz=cst.SPECIES_OMEGA10_MHZ["Rb87"],
):
    """Blockade-gate error minimized over the drive strength.

    Uses the full budget including the finite qubit splitting. In angular
    units it is A/Omega + B Omega + C Omega^2 with A = 7 pi / (4 tau),
    B = A (1/omega10^2 + 1/(7 b^2)) and C = 1/(8 b^2) + 3/(4 omega10^2),
    so its one stationary point, the minimum, is the positive root of
    2 C Omega^3 + B Omega^2 - A, exact at b = inf; if omega10 = inf too
    (B = C = 0) or tau = inf (A = 0) there is no finite optimum (ValueError).
    """
    return _blockade_optima(np.array([blockade_mhz]), lifetime_us, qubit_splitting_mhz)[0]


def _blockade_optima(b_mhz, lifetime_us, qubit_splitting_mhz):
    """minimize_blockade_gate, bit for bit, at each shift of the array
    b_mhz: a list of budgets from one _positive_roots call."""
    _require_positive(np.min(b_mhz), "blockade_mhz")
    _require_positive(lifetime_us, "lifetime_us")
    _require_positive(qubit_splitting_mhz, "qubit_splitting_mhz")
    b = 2.0 * math.pi * b_mhz
    w10 = 2.0 * math.pi * qubit_splitting_mhz
    a = 7.0 * math.pi / (4.0 * lifetime_us)
    c = 1.0 / (8.0 * b**2) + 3.0 / (4.0 * w10**2)
    linear = a * (1.0 / w10**2 + 1.0 / (7.0 * b**2))
    if a == 0.0 or np.any((c == 0.0) & (linear == 0.0)):
        raise ValueError("no finite optimum: the blockade-gate error is monotonic in the drive")
    coeffs = np.stack(np.broadcast_arrays(2.0 * c, linear, 0.0, -a), axis=-1)
    rabi_mhz = (_positive_roots(coeffs) / (2.0 * math.pi)).tolist()
    budgets = []
    for rabi, shift in zip(rabi_mhz, b_mhz.tolist()):
        params = GateParams(rabi, lifetime_us, qubit_splitting_mhz, blockade_mhz=shift)
        budget = blockade_gate_error(params)
        budgets.append(replace(budget, rabi_opt_mhz=rabi, interior_optimum=True))
    return budgets


def _interaction_terms(omega, d, w10, tau):
    """Interaction-gate budget terms in angular units: wait-time and pulse
    spontaneous emission, shift and splitting rotation. omega and d may be
    arrays. The terms go as d^-1, omega^-1, d^2 omega^-2 and omega^2."""
    return math.pi / (tau * d), math.pi / (tau * omega), 2.0 * d**2 / omega**2, omega**2 / w10**2


def interaction_gate_error(params):
    """Input-averaged error of a weak-interaction conditional-phase gate.

    The spontaneous-emission term covers the phase-accumulation wait
    (1/shift) plus the excitation pulses (1/drive); the rotation term
    collects the shift-induced rotation error and off-resonant excitation of
    the other qubit level. Operating points outside the ordering
    qubit splitting >> drive >> shift, or accumulating less than
    MIN_PHASE_RAD of phase per lifetime, are flagged advisory-only.
    """
    if params.interaction_mhz is None:
        raise ValueError("interaction_mhz is required for the interaction gate")
    omega = 2.0 * math.pi * params.rabi_mhz
    d = 2.0 * math.pi * params.interaction_mhz
    w10 = 2.0 * math.pi * params.qubit_splitting_mhz
    tau = params.lifetime_us
    wait, pulse, shift_rot, split_rot = _interaction_terms(omega, d, w10, tau)
    se, rot = wait + pulse, shift_rot + split_rot
    phase_ok = d * tau >= MIN_PHASE_RAD
    return GateErrorBudget(
        se_error=se,
        rotation_error=rot,
        total_error=se + rot,
        regime_ok=params.interaction_regime_ok and phase_ok,
    )


def interaction_gate_floor(
    lifetime_us, qubit_splitting_mhz=cst.SPECIES_OMEGA10_MHZ["Rb87"]
):
    """Smallest interaction-gate error reachable at given lifetime/splitting.

    Attained in the limit where the shift is chosen to balance the wait-time
    spontaneous emission against the splitting-limited rotation error.
    """
    _require_positive(lifetime_us, "lifetime_us")
    _require_positive(qubit_splitting_mhz, "qubit_splitting_mhz")
    w10 = 2.0 * math.pi * qubit_splitting_mhz
    return math.sqrt(2.0**3.5 * math.pi / (lifetime_us * w10))


def optimal_interaction_gate(
    interaction_mhz,
    lifetime_us,
    qubit_splitting_mhz=cst.SPECIES_OMEGA10_MHZ["Rb87"],
):
    """Closed-form near-optimal drive and error for a fixed pair shift.

    The drive sits at the geometric mean of the shift and splitting scales
    (up to a constant); the returned error is the wait-time
    spontaneous-emission term plus the combined rotation error at that
    drive. Returns (rabi_opt_mhz, error_opt).
    """
    _require_positive(interaction_mhz, "interaction_mhz")
    _require_positive(lifetime_us, "lifetime_us")
    _require_positive(qubit_splitting_mhz, "qubit_splitting_mhz")
    d = 2.0 * math.pi * interaction_mhz
    w10 = 2.0 * math.pi * qubit_splitting_mhz
    omega_opt = math.sqrt(2.0) / 3.0**0.25 * math.sqrt(d * w10)
    e_opt = math.pi / (d * lifetime_us) + 5.0 * d / (math.sqrt(3.0) * w10)
    return omega_opt / (2.0 * math.pi), e_opt


def minimize_interaction_gate(
    interaction_mhz,
    lifetime_us,
    qubit_splitting_mhz=cst.SPECIES_OMEGA10_MHZ["Rb87"],
):
    """Fixed-shift interaction-gate error minimized over the drive strength.

    The budget (pi/tau)(1/d + 1/Omega) + 2 d^2/Omega^2 + Omega^2/omega10^2
    (angular units) has one stationary point, the minimum: the positive
    root of 2 Omega^4/omega10^2 - pi Omega/tau - 4 d^2. Without the
    splitting term the error falls with the drive for ever, so a qubit
    splitting too large for 1/omega10^2 to be nonzero raises ValueError.
    """
    _require_positive(interaction_mhz, "interaction_mhz")
    _require_positive(lifetime_us, "lifetime_us")
    _require_positive(qubit_splitting_mhz, "qubit_splitting_mhz")
    d = 2.0 * math.pi * interaction_mhz
    lead = 2.0 / (2.0 * math.pi * qubit_splitting_mhz) ** 2
    if lead == 0.0:
        raise ValueError(
            "no finite optimum: without a finite qubit splitting the "
            "interaction-gate error falls with the drive"
        )
    omega = _positive_roots([lead, 0.0, 0.0, -math.pi / lifetime_us, -4.0 * d**2])
    rabi_mhz = float(omega) / (2.0 * math.pi)
    params = GateParams(
        rabi_mhz, lifetime_us, qubit_splitting_mhz, interaction_mhz=interaction_mhz
    )
    budget = interaction_gate_error(params)
    return replace(
        budget, rabi_opt_mhz=rabi_mhz, interior_optimum=True, interaction_mhz=interaction_mhz
    )


def optimize_interaction_gate(
    eig,
    r_um,
    lifetime_us,
    qubit_splitting_mhz=cst.SPECIES_OMEGA10_MHZ["Rb87"],
    target_m=0.5,
    rabi_bounds_mhz=RABI_BOUNDS_MHZ,
):
    """Optimize the interaction gate with a drive-dependent pair shift.

    The effective pair shift s of the driven state |target_m, target_m>
    saturates with drive strength. The grouped pair spectrum is built once
    for this separation; only its saturation follows the trial drive, so the
    optimization is self-consistent. The budget and its slope in ln(drive),
    from the analytic s', are scored at INTERACTION_SCAN_POINTS log-spaced
    drives over rabi_bounds_mhz in one array expression. The slope at the
    best scanned drive points to the neighbour that brackets the stationary
    point. Steps that keep the first of INTERACTION_SCAN_POINTS even cells
    where the slope leaves its sign at the lower end close it to adjacent
    floats (9 steps); the upper end is returned. A slope out of the scan
    returns the bound, and neighbour slopes of one sign the scanned drive; a
    best scanned drive at either end gives interior_optimum=False. This is
    the one-row case of interaction_gate_landscape's pass, bit for bit.
    """
    spectra = _grouped_spectra(eig, target_m, [r_um], [eig.theta])
    return _interaction_optima(spectra, lifetime_us, qubit_splitting_mhz, rabi_bounds_mhz)[0]


def _interaction_optima(spectra, lifetime_us, qubit_splitting_mhz, rabi_bounds_mhz):
    """optimize_interaction_gate on every row of a grouped spectrum
    (delta, w) of _grouped_spectra: a list of one budget per row, each
    row's bits independent of the others."""
    _require_positive(lifetime_us, "lifetime_us")
    _require_positive(qubit_splitting_mhz, "qubit_splitting_mhz")
    lo, hi = rabi_bounds_mhz
    if not 0.0 < lo < hi < math.inf:
        raise ValueError("rabi_bounds_mhz must be finite, positive and increasing")
    delta, w = spectra
    if not np.any((delta != 0.0) & (w > 0.0), axis=-1).all():
        raise ValueError("no effective interaction at this separation")
    w10 = 2.0 * math.pi * qubit_splitting_mhz

    def budget(omega_mhz):
        """Budgets and their slopes in ln(drive) at the drives omega_mhz,
        whose last axis runs over the rows."""
        shift, shift_slope = _saturated_shift(spectra, omega_mhz)
        terms = _interaction_terms(
            2.0 * math.pi * omega_mhz, 2.0 * math.pi * np.abs(shift), w10, lifetime_us
        )
        log_slope = omega_mhz * shift_slope / shift  # d ln|s| / d ln(drive)
        powers = (-log_slope, -1.0, 2.0 * log_slope - 2.0, 2.0)
        return sum(terms), sum(p * term for p, term in zip(powers, terms))

    rows = np.arange(delta.shape[0])
    scan = np.exp(np.linspace(math.log(lo), math.log(hi), INTERACTION_SCAN_POINTS))
    scan[[0, -1]] = lo, hi  # a bound is returned as given
    totals, slopes = budget(scan[:, None])
    i0 = np.argmin(totals, axis=0)
    # the neighbour j the slope at i0 points to (i0 itself off the scan)
    # brackets the optimum when their slopes differ in sign; a row without a
    # bracket keeps its scanned drive, the others keep, each step, the cell
    # up to the first even cut whose slope leaves the sign ga at a
    g0 = slopes[i0, rows]
    j = np.clip(np.where(g0 < 0.0, i0 + 1, i0 - 1), 0, INTERACTION_SCAN_POINTS - 1)
    ends = np.sort([i0, np.where(g0 * slopes[j, rows] < 0.0, j, i0)], axis=0)
    a, ga, b = scan[ends[0]], slopes[ends[0], rows], scan[ends[1]]
    fractions = np.arange(1, INTERACTION_SCAN_POINTS)[:, None] / INTERACTION_SCAN_POINTS
    while np.any((a < (mid := 0.5 * (a + b))) & (mid < b)):
        cuts = np.vstack([a, a + (b - a) * fractions, b])
        kept = np.logical_and.accumulate(budget(cuts[1:-1])[1] * ga > 0.0).sum(axis=0)
        a, b = cuts[kept, rows], cuts[kept + 1, rows]
    shifts = np.abs(_saturated_shift(spectra, b)[0])
    interior = (0 < i0) & (i0 < INTERACTION_SCAN_POINTS - 1)
    budgets = []
    for omega, shift, inside in zip(b.tolist(), shifts.tolist(), interior.tolist()):
        params = GateParams(omega, lifetime_us, qubit_splitting_mhz, interaction_mhz=shift)
        budget = interaction_gate_error(params)
        budgets.append(
            replace(budget, rabi_opt_mhz=omega, interior_optimum=inside, interaction_mhz=shift)
        )
    return budgets


def position_phase_error(r0_um, delta_r_um):
    """Fractional conditional-phase error from a radial position spread.

    In the van der Waals regime the pair shift falls as the sixth power of
    separation, so a spread delta_R about separation R0 changes the
    accumulated phase by the fraction 6 delta_R / R0.
    """
    _require_positive(r0_um, "r0_um")
    _require_nonnegative(delta_r_um, "delta_r_um")
    return 6.0 * delta_r_um / r0_um


def array_capacity(n, error_budget, dimension):
    """Largest qubit array operable within a total gate-error budget.

    Larger arrays need gates over longer distances; the reachable size grows
    with the error budget and the principal quantum number, faster in 3D
    (linear in n) than in 2D (2/3 power).
    """
    _require_positive(n, "n")
    _require_positive(error_budget, "error_budget")
    if dimension == 2:
        return CAPACITY_2D * error_budget ** (1.0 / 3.0) * n ** (2.0 / 3.0)
    if dimension == 3:
        return CAPACITY_3D * math.sqrt(error_budget) * n
    raise ValueError("dimension must be 2 or 3")


def _landscape(
    n_values, r_um_values, table, lifetimes_us, temperature_k, eigensystems, evaluate
):
    """(n, r_um, budget) rows over the n x R grid, each n's budgets at
    every R from one evaluate(eig, r_um array, tau) call, which puts the
    pair axis along z (theta = 0) whatever eig.theta is."""
    r_um = [float(r) for r in r_um_values]
    for r in r_um:
        _require_positive(r, "r_um")
    eigensystems, lifetimes_us = eigensystems or {}, lifetimes_us or {}
    model = LifetimeModel(table) if table is not None else None
    rows = []
    for n in n_values:
        if model is None and not (n in eigensystems and n in lifetimes_us):
            raise ValueError(
                "n=%d needs a quantum-defect table or entries in both "
                "eigensystems and lifetimes_us" % n
            )
        if n in eigensystems:
            eig = eigensystems[n]
        else:
            eig = forster_eigensystem(s_state_channels(n, table))
        if n in lifetimes_us:
            tau = lifetimes_us[n]
        else:
            tau = model.tau_us(RydbergState(n, 0, 0.5), temperature_k)
        budgets = evaluate(eig, np.array(r_um), tau) if r_um else []
        rows.extend((n, r, budget) for r, budget in zip(r_um, budgets))
    return rows


def blockade_gate_landscape(
    n_values,
    r_um_values,
    table,
    lifetimes_us=None,
    qubit_splitting_mhz=cst.SPECIES_OMEGA10_MHZ["Rb87"],
    temperature_k=300.0,
    eigensystems=None,
):
    """Optimized blockade-gate error versus separation for s-state pairs.

    For each principal quantum number the four dominant coupling channels
    set the blockade shift of a pair on z (theta = 0, whatever a prebuilt
    eigensystem's theta): B = (sum of the pair's _eigenspaces terms)^-1/2,
    as blockade_shift gives for two atoms, at every separation from one
    batched pair-state call. One stacked root solve optimizes the drive at
    every separation, each row minimize_blockade_gate's bits at its B, also
    at B = inf. Lifetimes come from the blackbody-corrected model at
    temperature_k unless overridden by the lifetimes_us mapping (n ->
    microseconds); prebuilt channel eigensystems (n -> value) skip the
    channel construction. table may be None when both overrides cover every
    n. Returns deterministic (n, r_um, GateErrorBudget) rows in grid order.
    """

    def evaluate(eig, r_um, tau):
        spectra = _driven_states(eig, 0.5, r_um, np.zeros(r_um.size))
        pair, _, _, _, terms = _eigenspaces(*spectra)
        with np.errstate(divide="ignore"):
            b_mhz = np.sqrt(1.0 / np.bincount(pair, terms, r_um.size))
        return _blockade_optima(b_mhz, tau, qubit_splitting_mhz)

    return _landscape(
        n_values, r_um_values, table, lifetimes_us, temperature_k, eigensystems, evaluate
    )


def interaction_gate_landscape(
    n_values,
    r_um_values,
    table,
    lifetimes_us=None,
    qubit_splitting_mhz=cst.SPECIES_OMEGA10_MHZ["Rb87"],
    temperature_k=300.0,
    eigensystems=None,
):
    """Optimized interaction-gate error versus separation for s-state pairs.

    Same conventions as blockade_gate_landscape (pair on z), with the
    drive-shift self-consistency of optimize_interaction_gate per point;
    one batched pair-state call gives every separation's padded grouped
    spectrum, and one array scan and sectioning every optimum.
    """

    def evaluate(eig, r_um, tau):
        spectra = _grouped_spectra(eig, 0.5, r_um, np.zeros(r_um.size))
        return _interaction_optima(spectra, tau, qubit_splitting_mhz, RABI_BOUNDS_MHZ)

    return _landscape(
        n_values, r_um_values, table, lifetimes_us, temperature_k, eigensystems, evaluate
    )


@dataclass(frozen=True)
class GaussianBeam:
    """Focused excitation beam: power (W), intensity waist (um), wavelength (nm)."""

    power_w: float
    waist_um: float
    wavelength_nm: float

    def __post_init__(self):
        _require_positive(self.power_w, "power_w")
        _require_positive(self.waist_um, "waist_um")
        _require_positive(self.wavelength_nm, "wavelength_nm")

    @property
    def peak_intensity_w_m2(self):
        return 2.0 * self.power_w / (math.pi * (self.waist_um * 1e-6) ** 2)

    @property
    def peak_field_v_m(self):
        return math.sqrt(2.0 * self.peak_intensity_w_m2 / (cst.EPS0 * cst.C_LIGHT))

    @property
    def k_rad_m(self):
        return 2.0 * math.pi / (self.wavelength_nm * 1e-9)


@dataclass(frozen=True)
class ExcitationBudget:
    """Two-photon excitation figures at the beam focus (cyclic MHz).

    amplitude_ratio is the magnitude ratio of the second to the first
    single-photon drive; the spontaneous-emission and Doppler terms are
    probabilities clamped to [0, 1]; the Stark shifts are signed and cancel
    when the two drives are balanced.
    """

    rabi_mhz: float
    rabi1_mhz: float
    rabi2_mhz: float
    amplitude_ratio: float
    se_probability: float
    doppler_probability: float
    stark_ground_mhz: float
    stark_rydberg_mhz: float
    gamma_p_mhz: float
    far_detuned: bool


def single_photon_rabi_mhz(beam, state_a, state_b, q_pol, table):
    """Peak Rabi frequency (cyclic MHz) for one beam driving a -> b.

    state_a's Zeeman component defaults to +1/2; the final component is
    fixed by the beam polarization q_pol (net Zeeman transfer).
    """
    return _rabi_mhz(beam, state_a, state_b, q_pol, radial_matrix_element(state_a, state_b, table))


def _rabi_mhz(beam, state_a, state_b, q_pol, radial):
    """single_photon_rabi_mhz from the radial element <a| r |b> (a0)."""
    m_a = state_a.m if state_a.m is not None else 0.5
    m_b = m_a + q_pol
    angular = dipole_angular_factor(
        state_b.l, state_b.j, m_b, state_a.l, state_a.j, m_a, q_pol
    )
    rabi_rad_s = (
        cst.EA0_RABI_RAD_PER_VM * abs(radial * angular) * beam.peak_field_v_m
    )
    return cst.mhz_from_rad_per_s(rabi_rad_s)


def spontaneous_rate_mhz(upper, lower, wavelength_nm, table):
    """Radiative decay rate of upper -> lower as a cyclic linewidth (MHz).

    Built from the model's own radial matrix element and the reduced angular
    factor, averaged over the upper-state Zeeman components.
    """
    return _decay_rate_mhz(upper, lower, wavelength_nm, radial_matrix_element(upper, lower, table))


def _decay_rate_mhz(upper, lower, wavelength_nm, radial):
    """spontaneous_rate_mhz from the radial element <upper| r |lower> (a0)."""
    omega = 2.0 * math.pi * cst.C_LIGHT / (wavelength_nm * 1e-9)
    reduced = reduced_c1_lsj(lower.l, lower.j, upper.l, upper.j)
    rate_per_s = (
        omega**3
        * (cst.E_CHARGE * cst.A0 * radial) ** 2
        * reduced**2
        / (3.0 * math.pi * cst.EPS0 * cst.HBAR * cst.C_LIGHT**3 * (2.0 * upper.j + 1.0))
    )
    return cst.mhz_from_rad_per_s(rate_per_s)


def two_photon_budget(
    ground,
    intermediate,
    target,
    beam1,
    beam2,
    detuning_mhz,
    table,
    temperature_k=0.0,
    counterpropagating=True,
    q1=0,
    q2=0,
):
    """Error budget of two-photon excitation through an intermediate state.

    detuning_mhz is the first beam's detuning from the intermediate state
    (cyclic MHz, nonzero); two-photon resonance is assumed. Doppler
    dephasing uses the 1-D rms thermal velocity of table.species at
    temperature_k and the wavevector sum or difference of the two beams.
    The decay rate reuses the first drive's radial element, so one
    radial_matrix_elements call solves each radial state once.
    """
    if not 0.0 < abs(detuning_mhz) < math.inf:
        raise ValueError("detuning_mhz must be finite and nonzero, got %r" % (detuning_mhz,))
    m_g = ground.m if ground.m is not None else 0.5
    pairs = [(ground, intermediate), (intermediate, target)]
    radial1, radial2 = radial_matrix_elements(pairs, table)
    rabi1 = _rabi_mhz(beam1, ground.with_m(m_g), intermediate, q1, radial1)
    rabi2 = _rabi_mhz(beam2, intermediate.with_m(m_g + q1), target, q2, radial2)
    if rabi1 == 0.0 or rabi2 == 0.0:
        raise ValueError("excitation path has a vanishing dipole coupling")
    rabi = rabi1 * rabi2 / (2.0 * detuning_mhz)
    ratio = rabi2 / rabi1
    gamma_p = _decay_rate_mhz(intermediate, ground, beam1.wavelength_nm, radial1)
    p_se = (
        math.pi * gamma_p / (4.0 * abs(detuning_mhz)) * (ratio + 1.0 / ratio)
    )
    if counterpropagating:
        dk = abs(beam1.k_rad_m - beam2.k_rad_m)
    else:
        dk = beam1.k_rad_m + beam2.k_rad_m
    v_rms = cst.thermal_velocity(temperature_k, cst.SPECIES_MASS_U[table.species])
    p_doppler = (dk * v_rms / cst.rad_per_s_from_mhz(abs(rabi))) ** 2
    return ExcitationBudget(
        rabi_mhz=rabi,
        rabi1_mhz=rabi1,
        rabi2_mhz=rabi2,
        amplitude_ratio=ratio,
        se_probability=min(p_se, 1.0),
        doppler_probability=min(p_doppler, 1.0),
        stark_ground_mhz=rabi1**2 / (4.0 * detuning_mhz),
        stark_rydberg_mhz=-(rabi2**2) / (4.0 * detuning_mhz),
        gamma_p_mhz=gamma_p,
        far_detuned=abs(detuning_mhz) >= 10.0 * INTERMEDIATE_HYPERFINE_SPAN_MHZ,
    )


@dataclass(frozen=True)
class LoadingBudget:
    """Single-excitation preparation errors for Poisson-loaded ensembles."""

    pi_pulse_error: float
    empty_probability: float


def loading_error(mean_atoms):
    """Preparation error budget for a Poisson-loaded ensemble qubit.

    The collective drive scales with the square root of the atom number, so
    a pulse calibrated for the mean leaves a residual infidelity
    pi^2/(16 <N>); the probability that the trap loaded no atom at all is
    reported alongside.
    """
    if not mean_atoms >= 1.0:
        raise ValueError("mean_atoms must be at least 1, got %r" % (mean_atoms,))
    return LoadingBudget(
        pi_pulse_error=math.pi**2 / (16.0 * mean_atoms),
        empty_probability=math.exp(-mean_atoms),
    )
