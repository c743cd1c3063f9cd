"""Angular momentum coupling coefficients and spherical tensor elements.

Half-integer angular momenta are passed as floats (0.5, 1.5, ...) and are
converted internally to doubled integers. Reduced matrix elements follow the
convention

    <j1 m1| T^k_q |j2 m2> = <j2 m2; k q | j1 m1> <j1||T^k||j2> / sqrt(2 j1 + 1)
"""

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np


def _twice(j):
    tj = round(2 * j)
    if abs(2 * j - tj) > 1e-9:
        raise ValueError("angular momentum %r is not half-integer" % (j,))
    return tj


def _triangle_ok(tj1, tj2, tj3):
    return (
        abs(tj1 - tj2) <= tj3 <= tj1 + tj2
        and (tj1 + tj2 + tj3) % 2 == 0
    )


@lru_cache(maxsize=None)
def _fact(n):
    return math.factorial(n)


def _delta(tj1, tj2, tj3):
    # Delta(j1 j2 j3) as an exact rational; arguments are doubled
    return Fraction(
        _fact((tj1 + tj2 - tj3) // 2)
        * _fact((tj1 - tj2 + tj3) // 2)
        * _fact((-tj1 + tj2 + tj3) // 2),
        _fact((tj1 + tj2 + tj3) // 2 + 1),
    )


@lru_cache(maxsize=None)
def _wigner_3j_cached(tj1, tj2, tj3, tm1, tm2, tm3):
    if tm1 + tm2 + tm3 != 0:
        return 0.0
    if not _triangle_ok(tj1, tj2, tj3):
        return 0.0
    for tj, tm in ((tj1, tm1), (tj2, tm2), (tj3, tm3)):
        if abs(tm) > tj or (tj - tm) % 2 != 0:
            return 0.0

    # Racah sum in exact rationals: the symbol's square is formed exactly and
    # rounded once, so large j cannot overflow and a vanishing sum is exactly 0
    kmin = max(0, (tj2 - tj3 - tm1) // 2, (tj1 - tj3 + tm2) // 2)
    kmax = min(
        (tj1 + tj2 - tj3) // 2,
        (tj1 - tm1) // 2,
        (tj2 + tm2) // 2,
    )
    total = sum(
        Fraction(
            (-1) ** k,
            _fact(k)
            * _fact((tj1 + tj2 - tj3) // 2 - k)
            * _fact((tj1 - tm1) // 2 - k)
            * _fact((tj2 + tm2) // 2 - k)
            * _fact((tj3 - tj2 + tm1) // 2 + k)
            * _fact((tj3 - tj1 - tm2) // 2 + k),
        )
        for k in range(kmin, kmax + 1)
    )
    norm = math.prod(
        _fact((tj + tm) // 2) * _fact((tj - tm) // 2)
        for tj, tm in ((tj1, tm1), (tj2, tm2), (tj3, tm3))
    )
    phase = (-1) ** ((tj1 - tj2 - tm3) // 2) * (1 if total > 0 else -1)
    return phase * math.sqrt(_delta(tj1, tj2, tj3) * norm * total**2) if total else 0.0


def wigner_3j(j1, j2, j3, m1, m2, m3):
    """Wigner 3j symbol (j1 j2 j3; m1 m2 m3)."""
    return _wigner_3j_cached(
        _twice(j1), _twice(j2), _twice(j3), _twice(m1), _twice(m2), _twice(m3)
    )


@lru_cache(maxsize=None)
def _wigner_6j_cached(tj1, tj2, tj3, tj4, tj5, tj6):
    triads = (
        (tj1, tj2, tj3),
        (tj1, tj5, tj6),
        (tj4, tj2, tj6),
        (tj4, tj5, tj3),
    )
    if not all(_triangle_ok(*t) for t in triads):
        return 0.0
    prefactor = math.prod(math.sqrt(_delta(*t)) for t in triads)
    sums = [sum(t) // 2 for t in triads]
    quads = [
        (tj1 + tj2 + tj4 + tj5) // 2,
        (tj2 + tj3 + tj5 + tj6) // 2,
        (tj3 + tj1 + tj6 + tj4) // 2,
    ]
    total = 0.0
    for k in range(max(sums), min(quads) + 1):
        denom = math.prod(_fact(k - s) for s in sums) * math.prod(_fact(q - k) for q in quads)
        total += (-1) ** k * _fact(k + 1) / denom
    return prefactor * total


def wigner_6j(j1, j2, j3, j4, j5, j6):
    """Wigner 6j symbol {j1 j2 j3; j4 j5 j6}."""
    return _wigner_6j_cached(
        _twice(j1), _twice(j2), _twice(j3), _twice(j4), _twice(j5), _twice(j6)
    )


def clebsch_gordan(j1, m1, j2, m2, j, m):
    """Clebsch-Gordan coefficient <j1 m1 j2 m2 | j m>."""
    if abs(m1 + m2 - m) > 1e-9:
        return 0.0
    phase = (-1) ** round(j1 - j2 + m)
    return phase * math.sqrt(2 * j + 1) * wigner_3j(j1, j2, j, m1, m2, -m)


@lru_cache(maxsize=None)
def _small_d_table(tj):
    # Wigner's formula as d[m', m] = sum_p table[m', m, p] cos(theta/2)^(2j-p)
    # sin(theta/2)^p, p = m' - m + 2s for its sum index s. Square roots of
    # exact rationals make the p = 0 entries, all diagonal, exactly 1
    table = np.zeros((tj + 1,) * 3)
    for a, b in np.ndindex(tj + 1, tj + 1):  # a = j + m', b = j + m
        norm = _fact(a) * _fact(tj - a) * _fact(b) * _fact(tj - b)
        for s in range(max(0, b - a), min(b, tj - a) + 1):
            den = _fact(b - s) * _fact(s) * _fact(a - b + s) * _fact(tj - a - s)
            root = math.sqrt(Fraction(norm, den * den))
            table[a, b, a - b + 2 * s] = (-1) ** (a - b + s) * root
    table.flags.writeable = False
    return table


def wigner_small_d(j, theta):
    """Wigner small-d matrix d^j(theta)[m', m] = <j m'| exp(-i theta J_y) |j m>.

    Rows m' and columns m run over -j..j ascending. A rotation by theta
    about y turns |j m> into sum_m' d[m', m] |j m'>. The matrix is real and
    orthogonal, and exactly the identity at theta = 0. An array of angles
    gives one matrix per angle (shape theta.shape + (2j+1, 2j+1)), each the
    same bits as its own scalar call.
    """
    table = _small_d_table(_twice(j))
    p = np.arange(table.shape[0])
    half = 0.5 * np.asarray(theta, dtype=float)[..., None]
    powers = np.cos(half) ** p[::-1] * np.sin(half) ** p
    return (table @ powers[..., None, :, None])[..., 0]


def reduced_c1_l(l1, l2):
    """Reduced matrix element <l1 || C^1 || l2> of the rank-1 spherical tensor."""
    return (-1) ** l1 * math.sqrt((2 * l1 + 1) * (2 * l2 + 1)) * wigner_3j(
        l1, 1, l2, 0, 0, 0
    )


def reduced_c1_lsj(l1, j1, l2, j2, s=0.5):
    """Reduced matrix element <l1 s j1 || C^1 || l2 s j2> in the fine-structure basis."""
    return (
        (-1) ** (l1 + s + j2 + 1)
        * math.sqrt((2 * j1 + 1) * (2 * j2 + 1))
        * wigner_6j(l1, j1, s, j2, l2, 1)
        * reduced_c1_l(l1, l2)
    )


def dipole_angular_factor(l1, j1, m1, l2, j2, m2, q, s=0.5):
    """Angular part <l1 j1 m1| C^1_q |l2 j2 m2> of a dipole matrix element.

    The full matrix element is this factor times the radial integral.
    """
    return (
        clebsch_gordan(j2, m2, 1, q, j1, m1)
        * reduced_c1_lsj(l1, j1, l2, j2, s)
        / math.sqrt(2 * j1 + 1)
    )


def lande_g(l, j, s=0.5):
    """Lande g factor for an (l, s, j) fine-structure level."""
    if j == 0:
        return 0.0
    return 1.0 + (j * (j + 1) + s * (s + 1) - l * (l + 1)) / (2 * j * (j + 1))
