"""The benchmark's workloads: seeded inputs, one timed pass, output checks.

Each workload has three functions:

* ``setup(rng)`` makes the inputs from the seeded generator, builds the
  fixed objects the workload needs and makes one warm-up call that fills
  process-lifetime caches (the ``angular`` lru_caches). Its cost is
  ``setup_s``. The state it returns keeps the generated inputs under
  ``inputs``.
* ``run(state, attempt)`` is one timed pass over the workload's result
  set. It makes every operation through ``attempt``, which the worker
  wraps around the function ``attempt`` below to time it, and returns
  ``{label: output}``. An operation that raises stores the exception
  instead, and the pass goes on.
* ``check(state, label, output, figures)`` returns why one operation's
  output misses a tolerance below, or None. It records accuracy figures
  (the traced run reports those named in BENCHMARK.json) in ``figures``.

The program is reached only through its module objects (``pair.make_channel``
and so on), so that the layer tracer can swap functions for wrappers. The
names used are listed in API.md.
"""

import math
from dataclasses import dataclass, fields, is_dataclass
from types import SimpleNamespace

import numpy as np
from scipy.linalg import expm

from rydtools import atoms, blockade, ensemble, gates, pair

# Tolerances, fixed before any run. Where the test suite checks the same
# quantity, its tolerance is used.
# total_error == se_error + rotation_error exactly (tests/test_gates.py).
BUDGET_SUM_RTOL = 0.0
# sum of |kappa|^2 over the pair-state basis (test_parseval_uniform).
PARSEVAL_ATOL = 1e-12
# two-atom B against the brute-force oracle at R = 10 um
# (test_brute_force_oracle_43d).
ORACLE_RTOL = 0.01
ORACLE_R_UM = 10.0
# B against the exact-angle reference; the oracle's tolerance.
ANGLE_RTOL = 0.01
# norm drift of integrate_amplitudes and simulate_exact
# (test_perturbative_p2_oracle, test_probabilities_shape_and_normalization).
NORM_ATOL = 1e-8
# number probabilities sum to 1 and reproduce the mean
# (test_probabilities_shape_and_normalization).
PROBABILITY_ATOL = 1e-10
# integrated amplitudes against expm of the same H; the tests' tolerance on
# integrated populations against their exact values (test_decay_damping).
AMPLITUDE_ATOL = 1e-6
# B recomputed from the returned contribution table.
CONTRIBUTION_RTOL = 1e-12

# Accuracy figures the traced run reports; 0 for a workload that does not
# compute them. Other figures a check records are printed for information.
ACCURACY_FIGURES = ("blockade.angle_rel_err_max", "blockade.amplitude_err_max")

# Overlap weights below this are dropped from B, as blockade.py does.
KAPPA_FLOOR = 1e-12
# The seed commit quantizes pair angles to multiples of this; swept angles
# keep clear of those multiples so the quantization error shows.
SEED_ANGLE_BUCKET_RAD = 1e-3


def attempt(outputs, label, fn, *args, **kwargs):
    """Store fn's output, or the exception it raised, under label."""
    try:
        result = fn(*args, **kwargs)
    except Exception as exc:  # a failed operation is counted, not fatal
        result = exc
    outputs[label] = result
    return result


def fingerprint(obj, digest):
    """Feed every number of an output into a hashlib digest, bit for bit."""
    if isinstance(obj, BaseException):
        digest.update(("raised %r;" % (obj,)).encode())
    elif isinstance(obj, np.ndarray):
        digest.update(("%s%s;" % (obj.dtype, obj.shape)).encode())
        digest.update(np.ascontiguousarray(obj).tobytes())
    elif is_dataclass(obj):
        digest.update(type(obj).__name__.encode())
        for f in fields(obj):
            fingerprint(getattr(obj, f.name), digest)
    elif isinstance(obj, (list, tuple)):
        digest.update(b"[")
        for item in obj:
            fingerprint(item, digest)
        digest.update(b"]")
    elif isinstance(obj, dict):
        for key in sorted(obj):
            digest.update(("%s:" % (key,)).encode())
            fingerprint(obj[key], digest)
    else:
        digest.update(("%r;" % (obj,)).encode())


def _two_atoms(r_um, theta):
    return blockade.EnsembleGeometry(
        np.array([[0.0, 0.0, 0.0], [r_um * math.sin(theta), 0.0, r_um * math.cos(theta)]])
    )


def _fill_box(rng, n, side_um, min_separation_um):
    """n points uniform in a cube, redrawn until all pairs keep their distance."""
    points = []
    while len(points) < n:
        p = (rng.random(3) - 0.5) * side_um
        if all(np.linalg.norm(p - q) >= min_separation_um for q in points):
            points.append(p)
    return np.array(points)


def _rotation(axis, angle):
    """Rotation matrix about coordinate axis 0, 1 or 2."""
    c, s = math.cos(angle), math.sin(angle)
    i, j = [k for k in range(3) if k != axis]
    m = np.eye(3)
    m[i, i] = m[j, j] = c
    m[i, j], m[j, i] = -s, s
    return m


def _inv_b2(shifts, kappas):
    """Sum of |kappa|^2 / delta^2 over the pair states that carry weight."""
    weights = np.abs(kappas) ** 2
    keep = weights >= KAPPA_FLOOR
    return float(np.sum(weights[keep] / shifts[keep] ** 2))


# ---------------------------------------------------------------------------
# gate_landscape
# ---------------------------------------------------------------------------

GATE_N = (50, 70, 100, 150)
GATE_R_POINTS = 16
GATE_R_RANGE_UM = (2.0, 20.0)


def gate_setup(rng):
    table = atoms.QuantumDefectTable("Rb87")
    lo, hi = np.log(GATE_R_RANGE_UM)
    r_um = {n: np.sort(np.exp(rng.uniform(lo, hi, GATE_R_POINTS))) for n in GATE_N}
    warm = pair.forster_eigensystem(pair.s_state_channels(30, table))
    gates.blockade_gate_landscape([30], [5.0], table, eigensystems={30: warm})
    gates.interaction_gate_landscape([30], [5.0], table, eigensystems={30: warm})
    return SimpleNamespace(table=table, r_um=r_um, inputs=r_um)


def _channels_eigensystem(n, table):
    return pair.forster_eigensystem(pair.s_state_channels(n, table))


def gate_run(s, attempt):
    out = {}
    for n in GATE_N:
        eig = attempt(out, "eigensystem n=%d" % n, _channels_eigensystem, n, s.table)
        for family, landscape in (
            ("blockade", gates.blockade_gate_landscape),
            ("interaction", gates.interaction_gate_landscape),
        ):
            attempt(
                out, "%s n=%d" % (family, n), landscape,
                [n], s.r_um[n], s.table, eigensystems={n: eig},
            )
    return out


def _budget_problem(budget):
    values = (budget.se_error, budget.rotation_error, budget.total_error)
    if not all(math.isfinite(v) for v in values):
        return "non-finite budget %r" % (values,)
    expected = budget.se_error + budget.rotation_error
    if abs(budget.total_error - expected) > BUDGET_SUM_RTOL * abs(expected):
        return "total_error %r != se + rotation %r" % (budget.total_error, expected)
    return None


def gate_check(s, label, value, figures):
    n = int(label.rsplit("=", 1)[1])
    if label.startswith("eigensystem"):
        field = blockade.ExcitationField.uniform(2, 1.0)
        for r in s.r_um[n]:
            total = float(np.sum(np.abs(blockade.overlap_kappa(value, field, r_um=r)) ** 2))
            if abs(total - 1.0) > PARSEVAL_ATOL:
                return "Parseval sum %r at R=%g" % (total, r)
        return None
    if len(value) != GATE_R_POINTS:
        return "%d rows for %d separations" % (len(value), GATE_R_POINTS)
    for row_n, r, budget in value:
        problem = _budget_problem(budget) or ("row for n=%r" % row_n if row_n != n else None)
        if problem:
            return "R=%g: %s" % (r, problem)
    return None


# ---------------------------------------------------------------------------
# blockade_angular
# ---------------------------------------------------------------------------

SWEEP_R_UM = (5.0, ORACLE_R_UM)
SWEEP_ANGLES = 23  # 0, pi/2 and 21 seeded angles between them
CLOUDS = 3
CLOUD_ATOMS = 12
CLOUD_SIDE_UM = 12.0
CLOUD_MIN_SEPARATION_UM = 3.0
PROPAGATION_SIDE_UM = 10.0  # equilateral triangle of three atoms
# The triangle is tilted by fixed generic angles, then turned about z by a
# seeded angle. Turning about z keeps every pair angle to z, so the
# stiffness of H, and with it the integrator's step count, is the same for
# every seed.
PROPAGATION_TILT_RAD = (0.3, 0.7)
PROPAGATION_RABI_MHZ = 1.0
PROPAGATION_T_US = 0.2


def _rb_43d_channels(table):
    d = atoms.RydbergState(43, 2, 2.5)
    return [
        pair.make_channel(
            (d, d), (atoms.RydbergState(45, 1, 1.5), atoms.RydbergState(41, 3, jf)), table
        )
        for jf in (2.5, 3.5)
    ]


def _sweep_angles(rng):
    step = (math.pi / 2) / (SWEEP_ANGLES - 1)
    angles = [0.0, math.pi / 2]
    while len(angles) < SWEEP_ANGLES:
        k = len(angles) - 1
        theta = (k + rng.random()) * step
        # keep at least a tenth of a bucket away from the nearest multiple
        frac = theta / SEED_ANGLE_BUCKET_RAD
        if abs(frac - round(frac)) > 0.1:
            angles.append(theta)
    return sorted(angles)


def angular_setup(rng):
    table = atoms.QuantumDefectTable("Rb87")
    channels = _rb_43d_channels(table)
    eig = pair.forster_eigensystem(channels)
    sweep = {
        "sweep R=%g theta=%.9f" % (r, theta): (r, theta)
        for r in SWEEP_R_UM
        for theta in _sweep_angles(rng)
    }
    clouds = {
        "cloud %d" % k: _fill_box(rng, CLOUD_ATOMS, CLOUD_SIDE_UM, CLOUD_MIN_SEPARATION_UM)
        for k in range(CLOUDS)
    }
    triangle = PROPAGATION_SIDE_UM * np.array(
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, math.sqrt(3) / 2, 0.0]]
    )
    turn = (
        _rotation(2, rng.uniform(0.0, 2.0 * math.pi))
        @ _rotation(0, PROPAGATION_TILT_RAD[1])
        @ _rotation(2, PROPAGATION_TILT_RAD[0])
    )
    propagation = triangle @ turn.T
    blockade.blockade_shift(_two_atoms(ORACLE_R_UM, 0.3), blockade.ExcitationField.uniform(2, 1.0), eig)
    return SimpleNamespace(
        channels=channels, eig=eig, sweep=sweep, clouds=clouds, propagation=propagation,
        inputs=(sweep, clouds, propagation),
    )


def angular_run(s, attempt):
    out = {}
    pair_field = blockade.ExcitationField.uniform(2, 1.0)
    for label, (r, theta) in s.sweep.items():
        attempt(out, label, blockade.blockade_shift, _two_atoms(r, theta), pair_field, s.eig)
    for label, positions in s.clouds.items():
        attempt(
            out, label, blockade.blockade_shift,
            blockade.EnsembleGeometry(positions),
            blockade.ExcitationField.uniform(len(positions), 1.0), s.eig,
        )
    geometry = blockade.EnsembleGeometry(s.propagation)
    n_pairs = geometry.n * (geometry.n - 1) // 2
    attempt(
        out, "propagation", blockade.integrate_amplitudes,
        blockade.AmplitudeState.ground(n_pairs, blockade.pair_state_count(s.eig)),
        geometry, blockade.ExcitationField.uniform(geometry.n, PROPAGATION_RABI_MHZ),
        s.eig, PROPAGATION_T_US,
    )
    return out


def brute_force_inv_b2(channels, theta, r_um, target_m=0.5):
    """Oracle of tests/test_blockade.py: diagonalize the full two-atom
    Hamiltonian over the initial and coupled Zeeman manifolds."""
    mats = [pair.build_vdd(ch, theta) for ch in channels]
    ni = mats[0].shape[1]
    dims = [m.shape[0] for m in mats]
    h = np.zeros((ni + sum(dims),) * 2)
    off = ni
    for ch, m, dc in zip(channels, mats, dims):
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


def _pair_terms(channels, b_field_t, field, geometry, k, l, theta):
    """Shifts and overlaps of one atom pair from the public pair functions."""
    r = geometry.separation_um(k, l)
    local = pair.forster_eigensystem(channels, theta, b_field_t)
    shifts, _ = blockade.pair_state_basis(local, r)
    return shifts, blockade.overlap_kappa(local, field, (k, l), r_um=r)


def reference_hamiltonian(geometry, field, eig):
    """H (rad/us) of the truncated amplitude equations, from public functions.

    Pair angles are quantized as the program quantizes them, when it does
    (``blockade.ANGLE_BUCKET_RAD``), so that this is the H it integrates.
    """
    bucket = getattr(blockade, "ANGLE_BUCKET_RAD", None)
    pairs = list(geometry.pairs())
    n_phi = blockade.pair_state_count(eig)
    h = np.zeros((2 + len(pairs) * n_phi,) * 2, complex)
    omega_n = 2.0 * math.pi * field.omega_n_mhz
    h[0, 1] = h[1, 0] = omega_n / 2.0
    for p, (k, l) in enumerate(pairs):
        theta = geometry.axis_theta_rad(k, l)
        if bucket:
            theta = round(theta / bucket) * bucket
        shifts, kappas = _pair_terms(eig.channels, eig.b_field_t, field, geometry, k, l, theta)
        for i in range(n_phi):
            row = 2 + p * n_phi + i
            coupling = omega_n * kappas[i] / geometry.n
            h[1, row] = np.conj(coupling)
            h[row, 1] = coupling
            h[row, row] = 2.0 * math.pi * shifts[i]
    return h


def _check_sweep(s, r, theta, res, figures):
    if not (math.isfinite(res.b_mhz) and res.b_mhz > 0):
        return "B = %r" % (res.b_mhz,)
    field = blockade.ExcitationField.uniform(2, 1.0)
    shifts, kappas = _pair_terms(s.channels, 0.0, field, _two_atoms(r, theta), 0, 1, theta)
    total = float(np.sum(np.abs(kappas) ** 2))
    exact = _inv_b2(shifts, kappas) ** -0.5
    err = abs(res.b_mhz / exact - 1.0)
    figures["blockade.angle_rel_err_max"] = max(figures.get("blockade.angle_rel_err_max", 0.0), err)
    if abs(total - 1.0) > PARSEVAL_ATOL:
        return "Parseval sum %r" % (total,)
    if err > ANGLE_RTOL:
        return "B %r vs exact-angle %r" % (res.b_mhz, exact)
    if r == ORACLE_R_UM:
        oracle = brute_force_inv_b2(s.channels, theta, r) ** -0.5
        if abs(res.b_mhz / oracle - 1.0) > ORACLE_RTOL:
            return "B %r vs brute force %r" % (res.b_mhz, oracle)
    return None


def _check_cloud(positions, res):
    n = len(positions)
    terms = sum(row[-1] for row in res.contributions)
    recomputed = math.sqrt(n * (n - 1) / (2.0 * terms))
    if not (math.isfinite(res.b_mhz) and res.b_mhz > 0):
        return "B = %r" % (res.b_mhz,)
    if abs(res.b_mhz / recomputed - 1.0) > CONTRIBUTION_RTOL:
        return "B %r vs contributions %r" % (res.b_mhz, recomputed)
    return None


def _check_propagation(s, res, figures):
    geometry = blockade.EnsembleGeometry(s.propagation)
    field = blockade.ExcitationField.uniform(geometry.n, PROPAGATION_RABI_MHZ)
    h = reference_hamiltonian(geometry, field, s.eig)
    psi0 = np.zeros(h.shape[0], complex)
    psi0[0] = 1.0
    exact = expm(-1j * h * PROPAGATION_T_US) @ psi0
    psi = np.concatenate(([res.c_g, res.c_s], res.c_pairs.ravel()))
    amplitude_err = float(np.max(np.abs(psi - exact)))
    figures["blockade.amplitude_err_max"] = amplitude_err
    b = blockade.blockade_shift(geometry, field, s.eig).b_mhz
    figures["propagation p2"] = res.p2()
    figures["perturbative p2"] = blockade.double_excitation_probability(field, geometry.n, b)
    drift = abs(res.norm_sq() - 1.0)
    if drift > NORM_ATOL:
        return "norm drift %r" % (drift,)
    if amplitude_err > AMPLITUDE_ATOL:
        return "amplitude error %r against expm" % (amplitude_err,)
    return None


def angular_check(s, label, value, figures):
    if label in s.sweep:
        r, theta = s.sweep[label]
        return _check_sweep(s, r, theta, value, figures)
    if label in s.clouds:
        return _check_cloud(s.clouds[label], value)
    return _check_propagation(s, value, figures)


# ---------------------------------------------------------------------------
# ensemble_dynamics
# ---------------------------------------------------------------------------

EXACT_ATOMS = 16
EXACT_MAX_EXCITATIONS = 4
EXACT_SIDE_UM = 8.0
EXACT_MIN_SEPARATION_UM = 1.0
EXACT_C6_MHZ_UM6 = 500.0
EXACT_TIMES_US = np.linspace(0.0, 2.0, 60)
EXACT_G2_BINS_UM = np.linspace(0.0, 10.0, 11)
KMC_ATOMS = 150
KMC_SIDE_UM = 20.0
KMC_MIN_SEPARATION_UM = 0.5
KMC_C6_MHZ_UM6 = 5000.0
KMC_GAMMA_MHZ = 5.0
KMC_TIMES_US = np.linspace(0.0, 20.0, 21)
KMC_TRIALS = 40


def ensemble_setup(rng):
    exact = ensemble.ExcitationModel(
        positions_um=_fill_box(rng, EXACT_ATOMS, EXACT_SIDE_UM, EXACT_MIN_SEPARATION_UM),
        rabi_mhz=1.0,
        c6_mhz_um6=EXACT_C6_MHZ_UM6,
        max_excitations=EXACT_MAX_EXCITATIONS,
    )
    kmc = ensemble.ExcitationModel(
        positions_um=_fill_box(rng, KMC_ATOMS, KMC_SIDE_UM, KMC_MIN_SEPARATION_UM),
        rabi_mhz=1.0,
        c6_mhz_um6=KMC_C6_MHZ_UM6,
    )
    kmc_seed = int(rng.integers(2**32))
    small = ensemble.ExcitationModel(
        positions_um=exact.positions_um[:4], rabi_mhz=1.0, c6_mhz_um6=EXACT_C6_MHZ_UM6
    )
    ensemble.simulate_exact(small, EXACT_TIMES_US[:4], g2_bins_um=EXACT_G2_BINS_UM)
    ensemble.kinetic_monte_carlo(small, KMC_GAMMA_MHZ, KMC_TIMES_US[:2], trials=2, seed=0)
    return SimpleNamespace(
        exact=exact, kmc=kmc, kmc_seed=kmc_seed,
        inputs=(exact.positions_um, kmc.positions_um, kmc_seed),
    )


def ensemble_run(s, attempt):
    out = {}
    attempt(
        out, "simulate_exact", ensemble.simulate_exact,
        s.exact, EXACT_TIMES_US, g2_bins_um=EXACT_G2_BINS_UM,
    )
    attempt(
        out, "kinetic_monte_carlo", ensemble.kinetic_monte_carlo,
        s.kmc, KMC_GAMMA_MHZ, KMC_TIMES_US, trials=KMC_TRIALS, seed=s.kmc_seed,
    )
    return out


def _check_exact(dyn):
    expected_dim = sum(math.comb(EXACT_ATOMS, k) for k in range(EXACT_MAX_EXCITATIONS + 1))
    sums = dyn.number_probabilities.sum(axis=1)
    mean = dyn.number_probabilities @ np.arange(EXACT_ATOMS + 1)
    if dyn.dimension != expected_dim:
        return "dimension %d, expected %d" % (dyn.dimension, expected_dim)
    if dyn.norm_drift > NORM_ATOL:
        return "norm drift %r" % (dyn.norm_drift,)
    if np.max(np.abs(sums - 1.0)) > PROBABILITY_ATOL:
        return "probabilities sum to %r" % (sums,)
    if np.max(np.abs(mean - dyn.mean_excitations)) > PROBABILITY_ATOL:
        return "mean excitation disagrees with probabilities"
    return None


def _check_kmc(kmc):
    final = kmc.trajectories[:, -1]
    if kmc.trajectories.shape != (KMC_TRIALS, KMC_TIMES_US.size):
        return "trajectory shape %r" % (kmc.trajectories.shape,)
    if kmc.trajectories.min() < 0 or kmc.trajectories.max() > KMC_ATOMS:
        return "excited count outside [0, N]"
    if kmc.statistics.mean != float(final.astype(float).mean()):
        return "statistics do not match the final counts"
    return None


def ensemble_check(s, label, value, figures):
    if label == "simulate_exact":
        return _check_exact(value)
    return _check_kmc(value)


@dataclass(frozen=True)
class Workload:
    setup: object
    run: object
    check: object


# Names as in BENCHMARK.json, which also says why each workload is there.
WORKLOADS = {
    "gate_landscape": Workload(gate_setup, gate_run, gate_check),
    "blockade_angular": Workload(angular_setup, angular_run, angular_check),
    "ensemble_dynamics": Workload(ensemble_setup, ensemble_run, ensemble_check),
}
