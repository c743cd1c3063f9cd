"""Wigner small-d rotation matrices: orthogonality, the group law, the
exponential of J_y, the closed form at j = 1/2 and the Clebsch-Gordan
series that couples two of them; 3j symbols against exact closed forms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import linalg

from fractions import Fraction

from rydtools.angular import clebsch_gordan, reduced_c1_lsj, wigner_3j, wigner_small_d

J_VALUES = [k / 2.0 for k in range(8)]  # 0 .. 7/2
ANGLES = st.floats(min_value=-2 * math.pi, max_value=2 * math.pi)


def m_values(j):
    return [-j + k for k in range(round(2 * j) + 1)]


def j_y(j):
    """J_y over m = -j..j ascending, from J+ |m> = sqrt(j(j+1) - m(m+1)) |m+1>."""
    ms = m_values(j)
    raise_ = np.zeros((len(ms), len(ms)))
    for k, m in enumerate(ms[:-1]):
        raise_[k + 1, k] = math.sqrt(j * (j + 1) - m * (m + 1))
    return (raise_ - raise_.T) / 2j


@pytest.mark.parametrize("j", J_VALUES)
def test_identity_at_zero_exactly(j):
    d = wigner_small_d(j, 0.0)
    assert np.array_equal(d, np.eye(len(m_values(j))))


@settings(max_examples=30, deadline=None)
@given(theta=ANGLES)
def test_orthogonal(theta):
    for j in J_VALUES:
        d = wigner_small_d(j, theta)
        assert np.max(np.abs(d @ d.T - np.eye(d.shape[0]))) < 1e-14


@settings(max_examples=30, deadline=None)
@given(a=ANGLES, b=ANGLES)
def test_group_law(a, b):
    for j in J_VALUES:
        product = wigner_small_d(j, a) @ wigner_small_d(j, b)
        assert np.max(np.abs(product - wigner_small_d(j, a + b))) < 1e-13


@settings(max_examples=30, deadline=None)
@given(theta=ANGLES)
def test_matches_exponential_of_j_y(theta):
    for j in J_VALUES:
        expected = linalg.expm(-1j * theta * j_y(j))
        assert np.max(np.abs(wigner_small_d(j, theta) - expected)) < 1e-13


@settings(max_examples=30, deadline=None)
@given(theta=ANGLES)
def test_spin_half_closed_form(theta):
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    # rows m' = -1/2, +1/2: d_{-1/2,+1/2} = sin, d_{+1/2,-1/2} = -sin
    expected = np.array([[c, s], [-s, c]])
    assert np.max(np.abs(wigner_small_d(0.5, theta) - expected)) < 1e-15


@settings(max_examples=10, deadline=None)
@given(theta=ANGLES)
def test_clebsch_gordan_series(theta):
    # d^{j1}_{m1' m1} d^{j2}_{m2' m2}
    #   = sum_J <j1 m1 j2 m2|J M> <j1 m1' j2 m2'|J M'> d^J_{M' M}
    for j1, j2 in ((0.5, 0.5), (1.0, 1.5), (2.5, 2.5)):
        d1, d2 = wigner_small_d(j1, theta), wigner_small_d(j2, theta)
        big = {}
        for a, m1p in enumerate(m_values(j1)):
            for b, m2p in enumerate(m_values(j2)):
                for c, m1 in enumerate(m_values(j1)):
                    for e, m2 in enumerate(m_values(j2)):
                        total = 0.0
                        for k in range(round(2 * min(j1, j2)) + 1):
                            big_j = abs(j1 - j2) + k
                            if abs(m1 + m2) > big_j or abs(m1p + m2p) > big_j:
                                continue
                            if big_j not in big:
                                big[big_j] = wigner_small_d(big_j, theta)
                            total += (
                                clebsch_gordan(j1, m1, j2, m2, big_j, m1 + m2)
                                * clebsch_gordan(j1, m1p, j2, m2p, big_j, m1p + m2p)
                                * big[big_j][round(m1p + m2p + big_j), round(m1 + m2 + big_j)]
                            )
                        assert d1[a, c] * d2[b, e] == pytest.approx(total, abs=1e-13)


def test_rank_two_direction_factors():
    # C^2_q(theta, phi = 0) = d^2_{q0}(theta): the direction factors of the
    # dipole-dipole operator, in closed form at 37 angles
    for theta in np.linspace(0.0, math.pi, 37):
        c, s = math.cos(theta), math.sin(theta)
        closed = {
            0: 0.5 * (3.0 * c * c - 1.0),
            1: -math.sqrt(1.5) * s * c,
            -1: math.sqrt(1.5) * s * c,
            2: math.sqrt(3.0 / 8.0) * s * s,
            -2: math.sqrt(3.0 / 8.0) * s * s,
        }
        d = wigner_small_d(2, theta)
        for q, value in closed.items():
            assert d[q + 2, 2] == pytest.approx(value, abs=1e-15)


def test_two_rank_one_clebsch_gordan():
    # <1 mu 1 nu | 2 mu+nu> in closed form
    for mu in (-1, 0, 1):
        for nu in (-1, 0, 1):
            if abs(mu + nu) == 2:
                expected = 1.0
            elif abs(mu + nu) == 1:
                expected = 1.0 / math.sqrt(2.0)
            elif mu == 0:
                expected = math.sqrt(2.0 / 3.0)
            else:
                expected = 1.0 / math.sqrt(6.0)
            assert clebsch_gordan(1, mu, 1, nu, 2, mu + nu) == pytest.approx(
                expected, abs=1e-15
            )


def closed_3j_m0(l1, l2, l3):
    """Oracle: (l1 l2 l3; 0 0 0) from its closed form, squared in exact
    rationals and rounded once; 0 when l1 + l2 + l3 is odd."""
    big_j = l1 + l2 + l3
    if big_j % 2:
        return 0.0
    f, g = math.factorial, big_j // 2
    square = Fraction(
        f(big_j - 2 * l1) * f(big_j - 2 * l2) * f(big_j - 2 * l3) * f(g) ** 2,
        f(big_j + 1) * (f(g - l1) * f(g - l2) * f(g - l3)) ** 2,
    )
    return (-1) ** g * math.sqrt(square)


def closed_3j_stretched(j1, j2, m1, m2):
    """Oracle: (j1 j2 j1+j2; m1 m2 -m1-m2), integer j, from the stretched
    Clebsch-Gordan closed form, squared in exact rationals."""
    f, big_j, big_m = math.factorial, j1 + j2, m1 + m2
    square = Fraction(
        f(2 * j1) * f(2 * j2) * f(big_j + big_m) * f(big_j - big_m),
        f(2 * big_j + 1) * f(j1 + m1) * f(j1 - m1) * f(j2 + m2) * f(j2 - m2),
    )
    return (-1) ** (j1 - j2 + big_m) * math.sqrt(square)


@pytest.mark.parametrize("l", range(57, 100))
def test_wigner_3j_large_l_matches_exact_closed_forms(l):
    # l up to 99, which n = 100 states reach; the float Racah sum overflowed from 57
    for l2, l3 in ((1, l + 1), (1, l - 1), (2, l), (l, l), (l + 3, 3)):
        assert wigner_3j(l, l2, l3, 0, 0, 0) == closed_3j_m0(l, l2, l3)
    for m1 in (-l, -l // 2, 0, 1, l - 1, l):
        for m2 in (-1, 0, 1):
            if abs(m1 + m2) <= l + 1:
                expected = closed_3j_stretched(l, 1, m1, m2)
                assert wigner_3j(l, 1, l + 1, m1, m2, -m1 - m2) == expected
    assert math.isfinite(reduced_c1_lsj(l, l + 0.5, l + 1, l + 1.5))


def test_wigner_3j_parity_forbidden_is_exactly_zero():
    assert wigner_3j(3, 3, 3, 0, 0, 0) == 0.0
    for l1 in range(9):
        for l2 in range(9):
            for l3 in range(abs(l1 - l2), l1 + l2 + 1):
                if (l1 + l2 + l3) % 2:
                    assert wigner_3j(l1, l2, l3, 0, 0, 0) == 0.0
                else:
                    assert wigner_3j(l1, l2, l3, 0, 0, 0) == closed_3j_m0(l1, l2, l3)
