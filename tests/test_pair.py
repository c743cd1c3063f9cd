"""Pair-interaction tests: coupling-matrix algebra, eigenvalue spectra,
Zeeman-shifted defects, potential curves, crossover radii and scaling laws.

Exact spectra below were verified with exact rational arithmetic (the
coupling matrices have Clebsch-Gordan entries); channel defects and C3
values are frozen regression pins from the bundled quantum-defect data.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import linalg

from rydtools import atoms, constants as cst, pair
from rydtools.angular import _small_d_table, dipole_angular_factor, wigner_small_d
from rydtools.atoms import RydbergState
from rydtools.pair import (
    ForsterChannel,
    build_vdd,
    crossover_radius_um,
    first_order_dipole_shift_mhz,
    forster_eigensystem,
    make_channel,
    pair_shift_mhz,
    potential_curves,
    s_state_channels,
    vdw_coefficient_mhz_um6,
)


def angular_channel(i_nlj, a_nlj, b_nlj, defect=-100.0, c3=1.0):
    """Channel with placeholder radial scale, for angular-structure tests."""
    i = RydbergState(*i_nlj)
    return ForsterChannel(
        initial=(i, i),
        coupled=(RydbergState(*a_nlj), RydbergState(*b_nlj)),
        defect_mhz=defect,
        c3_mhz_um3=c3,
    )


def gram_eigenvalues(channel, theta=0.0):
    m = build_vdd(channel, theta)
    return np.clip(np.linalg.eigvalsh(m.T @ m), 0.0, None)


def pair_rotation(first, second, theta):
    """d^{j1}(theta) (x) d^{j2}(theta) on a Zeeman product space."""
    return np.kron(wigner_small_d(first.j, theta), wigner_small_d(second.j, theta))


def zeeman(state):
    two_j = round(2 * state.j)
    return [state.with_m(m / 2.0) for m in range(-two_j, two_j + 1, 2)]


S_FS_CHANNELS = [
    ((60, 1, ja), (59, 1, jb)) for ja in (1.5, 0.5) for jb in (1.5, 0.5)
]


class TestCouplingMatrix:
    def test_degenerate_s_channels_sum_to_four_thirds(self):
        total = np.zeros((4, 4))
        for a, b in S_FS_CHANNELS:
            m = build_vdd(angular_channel((60, 0, 0.5), a, b))
            total += m.T @ m
        assert np.allclose(total, (4.0 / 3.0) * np.eye(4), atol=1e-12)

    def test_exact_fine_structure_spectra(self):
        expected = {
            (1.5, 1.5): [36, 44, 44, 68],
            (1.5, 0.5): [4, 28, 28, 36],
            (0.5, 1.5): [4, 28, 28, 36],
            (0.5, 0.5): [0, 8, 8, 32],
        }
        for (a, b), spec in expected.items():
            vals = gram_eigenvalues(angular_channel((60, 0, 0.5), (60, 1, a), (59, 1, b)))
            assert np.allclose(np.sort(vals) * 81.0, spec, atol=1e-10), (a, b)

    def test_clebsch_gordan_oracle_at_theta_zero(self):
        # independent assembly: -(2 a0 b0 + a(+1) b(-1) + a(-1) b(+1))
        ch = angular_channel((60, 0, 0.5), (60, 1, 1.5), (59, 1, 0.5))

        def block(i1, i2, f1, f2):
            rows1, rows2 = zeeman(f1), zeeman(f2)
            cols1, cols2 = zeeman(i1), zeeman(i2)
            out = np.zeros((len(rows1) * len(rows2), len(cols1) * len(cols2)))
            for ai, fa in enumerate(rows1):
                for bi, fb in enumerate(rows2):
                    for ci, ia in enumerate(cols1):
                        for di, ib in enumerate(cols2):
                            val = 0.0
                            for mu, nu, w in ((0, 0, 2.0), (1, -1, 1.0), (-1, 1, 1.0)):
                                if fa.m - ia.m == mu and fb.m - ib.m == nu:
                                    val -= w * dipole_angular_factor(
                                        fa.l, fa.j, fa.m, ia.l, ia.j, ia.m, mu
                                    ) * dipole_angular_factor(
                                        fb.l, fb.j, fb.m, ib.l, ib.j, ib.m, nu
                                    )
                            out[ai * len(rows2) + bi, ci * len(cols2) + di] = val
            return out

        i1, i2 = ch.initial
        c1, c2 = ch.coupled
        oracle = np.vstack([block(i1, i2, c1, c2), block(i1, i2, c2, c1)])
        assert np.allclose(build_vdd(ch, 0.0), oracle, atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(theta=st.floats(min_value=0.0, max_value=math.pi))
    def test_cartesian_oracle_at_any_angle(self, theta):
        # independent assembly: d1.d2 - 3 (d1.n)(n.d2), n = (sin t, 0, cos t),
        # from the Cartesian components of each atom's dipole matrix
        n = np.array([math.sin(theta), 0.0, math.cos(theta)])
        tensor = np.eye(3) - 3.0 * np.outer(n, n)

        def cartesian(final, initial):
            d = {
                q: np.array(
                    [
                        [
                            dipole_angular_factor(f.l, f.j, f.m, i.l, i.j, i.m, q)
                            for i in zeeman(initial)
                        ]
                        for f in zeeman(final)
                    ]
                )
                for q in (-1, 0, 1)
            }
            return [
                (d[-1] - d[1]) / math.sqrt(2.0),
                1j * (d[-1] + d[1]) / math.sqrt(2.0),
                d[0],
            ]

        def block(i1, i2, f1, f2):
            d1, d2 = cartesian(f1, i1), cartesian(f2, i2)
            return sum(
                tensor[a, b] * np.kron(d1[a], d2[b]) for a in range(3) for b in range(3)
            )

        for i_nlj, a, b in [
            ((60, 0, 0.5), (60, 1, 1.5), (59, 1, 0.5)),
            ((60, 0, 0.5), (60, 1, 1.5), (60, 1, 1.5)),
            ((43, 2, 2.5), (45, 1, 1.5), (41, 3, 3.5)),
            ((60, 2, 1.5), (60, 1, 0.5), (59, 3, 2.5)),
        ]:
            ch = angular_channel(i_nlj, a, b)
            i1, i2 = ch.initial
            c1, c2 = ch.coupled
            blocks = [block(i1, i2, c1, c2)]
            if (c1.n, c1.l, c1.j) != (c2.n, c2.l, c2.j):
                blocks.append(block(i1, i2, c2, c1))
            oracle = np.vstack(blocks)
            assert np.max(np.abs(oracle.imag)) < 1e-12
            assert np.allclose(build_vdd(ch, theta), oracle.real, rtol=0.0, atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(theta=st.floats(min_value=0.0, max_value=math.pi))
    def test_rotation_leaves_singular_values_invariant(self, theta):
        for i_nlj, a, b in [
            ((60, 0, 0.5), (60, 1, 1.5), (59, 1, 0.5)),
            ((43, 2, 2.5), (45, 1, 1.5), (41, 3, 3.5)),
        ]:
            ch = angular_channel(i_nlj, a, b)
            s0 = np.sort(np.linalg.svd(build_vdd(ch, 0.0), compute_uv=False))
            s1 = np.sort(np.linalg.svd(build_vdd(ch, theta), compute_uv=False))
            assert np.max(np.abs(s1 - s0)) < 1e-10

    @settings(max_examples=25, deadline=None)
    @given(theta=st.floats(min_value=-math.pi, max_value=math.pi))
    def test_wigner_rotation_convention(self, rb_s60_channels, rb_43d_channels, theta):
        # build_vdd(theta) = D_c(theta) build_vdd(0) D_i(theta)^T, with D the
        # product of small-d matrices on each pair space and D_c stacking
        # both orderings of two distinct coupled levels
        swapped = [
            ForsterChannel(ch.initial, ch.coupled[::-1], ch.defect_mhz, ch.c3_mhz_um3)
            for ch in rb_43d_channels
        ]
        rules = [angular_channel(i, a, b) for i, a, b, _ in TestForsterZeros.RULE_MATRIX]
        for ch in rb_s60_channels + rb_43d_channels + swapped + rules:
            c1, c2 = ch.coupled
            blocks = [pair_rotation(c1, c2, theta)]
            if (c1.n, c1.l, c1.j) != (c2.n, c2.l, c2.j):
                blocks.append(pair_rotation(c2, c1, theta))
            turned = (
                linalg.block_diag(*blocks)
                @ build_vdd(ch, 0.0)
                @ pair_rotation(*ch.initial, theta).T
            )
            assert np.max(np.abs(build_vdd(ch, theta) - turned)) < 1e-13

    def test_dipole_forbidden_channel_rejected(self):
        ch = angular_channel((60, 0, 0.5), (60, 2, 2.5), (59, 1, 1.5))
        with pytest.raises(ValueError):
            build_vdd(ch)


class TestForsterZeros:
    # (initial nlj, coupled level a, coupled level b, expect_zero_states)
    RULE_MATRIX = [
        ((60, 0, 0.5), (60, 1, 1.5), (59, 1, 1.5), False),
        ((60, 0, 0.5), (60, 1, 1.5), (60, 1, 1.5), False),
        ((60, 1, 1.5), (60, 2, 2.5), (59, 2, 2.5), False),
        ((60, 2, 1.5), (60, 3, 2.5), (59, 3, 2.5), False),
        ((60, 2, 2.5), (60, 3, 3.5), (59, 3, 3.5), False),
        ((60, 1, 0.5), (60, 2, 1.5), (59, 2, 1.5), False),
        ((60, 0, 0.5), (60, 1, 0.5), (59, 1, 0.5), True),
        ((60, 1, 1.5), (60, 0, 0.5), (59, 0, 0.5), True),
        ((60, 1, 1.5), (60, 2, 1.5), (59, 2, 1.5), True),
        ((60, 2, 2.5), (60, 1, 1.5), (59, 1, 1.5), True),
        ((60, 2, 2.5), (60, 1, 1.5), (59, 3, 2.5), True),
        ((60, 2, 1.5), (60, 1, 0.5), (59, 1, 1.5), True),
    ]

    def test_zero_state_rule_matrix(self):
        for i_nlj, a, b, expect_zero in self.RULE_MATRIX:
            eig = forster_eigensystem([angular_channel(i_nlj, a, b)])
            has_zero = eig.forster_zero_count >= 1
            assert has_zero == expect_zero, (i_nlj, a, b)

    def test_full_coupling_families_have_no_zero(self):
        # channels with both coupled j equal to j+1 keep every state coupled
        for i_nlj, a, b, expect_zero in self.RULE_MATRIX:
            if not expect_zero:
                vals = gram_eigenvalues(angular_channel(i_nlj, a, b))
                assert vals.min() > 1e-2

    def test_mixed_j_channel_without_zero(self):
        # s pair coupled to (p3/2, p1/2): smallest strength is exactly 4/81
        vals = gram_eigenvalues(angular_channel((60, 0, 0.5), (60, 1, 1.5), (59, 1, 0.5)))
        assert vals.min() == pytest.approx(4.0 / 81.0, abs=1e-10)

    def test_tiny_but_nonzero_minimum(self):
        # d5/2 pair coupled to two f5/2 levels: the minimum eigenvalue is
        # small but provably nonzero (full coupling-matrix rank, checked with
        # exact rational arithmetic), so it must not count as a zero state
        eig = forster_eigensystem([angular_channel((60, 2, 2.5), (60, 3, 2.5), (59, 3, 2.5))])
        assert eig.forster_zero_count == 0
        vals = eig.d_values[0]
        assert 2e-7 < vals.min() < 8e-7

    def test_poor_blockade_channel_structure(self, rb_43d_channels):
        eig = forster_eigensystem(rb_43d_channels)
        zero_counts = [int(np.sum(d < 1e-8)) for d in eig.d_values]
        assert zero_counts == [4, 2]
        for d in eig.d_values:
            assert d.min() / d.max() < 1e-2
        # the two channels share no common decoupled state: their summed
        # coupling Gram has a small but nonzero floor
        g = sum(
            build_vdd(ch).T @ build_vdd(ch) for ch in rb_43d_channels
        )
        union = np.linalg.eigvalsh(g)
        ratio = union.min() / union.max()
        assert int(np.sum(union < 1e-8)) == 0
        assert 1.5e-3 < ratio < 5e-3


class TestChannelConstruction:
    # frozen pins: (defect MHz, C3 MHz um^3) per fine-structure channel
    PINS_60 = {
        (1.5, 1.5): (-1225.8155, 12457.812),
        (0.5, 1.5): (-1711.5230, 12233.478),
        (1.5, 0.5): (-1686.5584, 12656.120),
        (0.5, 0.5): (-2172.2659, 12428.215),
    }

    def channel_key(self, ch):
        return (ch.coupled[0].j, ch.coupled[1].j)

    def test_60s_channel_pins(self, rb_s60_channels):
        seen = {}
        for ch in rb_s60_channels:
            seen[self.channel_key(ch)] = (ch.defect_mhz, ch.c3_mhz_um3)
        for key, (defect, c3) in self.PINS_60.items():
            got_defect, got_c3 = seen[key]
            assert got_defect == pytest.approx(defect, rel=1e-4)
            assert got_c3 == pytest.approx(c3, rel=0.01)

    def test_60s_nearest_defect_anchor(self, rb_s60_channels):
        # the p1/2 + p3/2 channel defect magnitude is 1.7 GHz
        defects = sorted(abs(ch.defect_mhz) for ch in rb_s60_channels)
        assert abs(defects[1] - 1700.0) / 1700.0 < 0.10

    def test_defect_recomputation_invariant(self, rb_table, rb_s60_channels):
        for ch in rb_s60_channels:
            recomputed = 1e3 * (
                rb_table.energy_ghz(ch.coupled[0])
                + rb_table.energy_ghz(ch.coupled[1])
                - rb_table.energy_ghz(ch.initial[0])
                - rb_table.energy_ghz(ch.initial[1])
            )
            assert recomputed == pytest.approx(ch.defect_mhz, rel=1e-6)
            assert math.isfinite(ch.c3_mhz_um3) and ch.c3_mhz_um3 != 0.0

    def test_43d_channel_defects(self, rb_43d_channels):
        by_jf = {
            next(s.j for s in ch.coupled if s.l == 3): ch.defect_mhz
            for ch in rb_43d_channels
        }
        assert by_jf[2.5] < 0 and 3.0 < abs(by_jf[2.5]) < 12.0
        assert by_jf[3.5] < 0 and 4.15 < abs(by_jf[3.5]) < 16.6
        assert by_jf[2.5] == pytest.approx(-6.05, abs=0.4)
        assert by_jf[3.5] == pytest.approx(-8.33, abs=0.5)

    def test_s_state_channels_solve_each_element_once(self, rb_table, monkeypatch):
        # four channels share four distinct <ns|r|n'p_j> on one covering
        # grid: 5 solves, and each channel is make_channel's but for C3,
        # which differs by discretization error only (4e-8 at most)
        grids = []
        solve = atoms.radial_solution

        def counted(*args, **kwargs):
            grids.append(kwargs["r_grid"])
            return solve(*args, **kwargs)

        monkeypatch.setattr(atoms, "radial_solution", counted)
        channels = s_state_channels(50, rb_table)
        assert len(grids) == 5
        assert len({id(grid) for grid in grids}) == 1
        monkeypatch.undo()
        s = RydbergState(50, 0, 0.5)
        for ch in channels:
            own = make_channel((s, s), ch.coupled, rb_table)
            assert (ch.initial, ch.coupled, ch.defect_mhz) == (
                own.initial, own.coupled, own.defect_mhz
            )
            assert ch.c3_mhz_um3 == pytest.approx(own.c3_mhz_um3, rel=1e-7, abs=0.0)

    def test_forbidden_channel_rejected(self, rb_table):
        s = RydbergState(60, 0, 0.5)
        with pytest.raises(ValueError):
            make_channel((s, s), (RydbergState(60, 2, 2.5), RydbergState(59, 1, 1.5)), rb_table)


class TestEigensystem:
    def test_vectors_orthonormal(self, rb_s60_eigensystem):
        for vecs in rb_s60_eigensystem.vectors:
            assert np.max(np.abs(vecs.T @ vecs - np.eye(vecs.shape[1]))) < 1e-10

    def test_eigenvalues_nonnegative(self, rb_s60_eigensystem):
        for vals in rb_s60_eigensystem.d_values:
            assert vals.min() >= -1e-12
            assert np.all(np.diff(vals) >= 0)

    def test_mixed_initial_pairs_rejected(self, rb_s60_channels, rb_43d_channels):
        with pytest.raises(ValueError):
            forster_eigensystem([rb_s60_channels[0], rb_43d_channels[0]])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_or_field_rejected(self, rb_s60_channels, bad):
        with pytest.raises(ValueError, match="finite"):
            forster_eigensystem(rb_s60_channels, bad)
        with pytest.raises(ValueError, match="finite"):
            forster_eigensystem(rb_s60_channels, 0.3, bad)

    @pytest.mark.parametrize("channel_set", ["60s", "43d", "43d5/2+44s1/2"])
    def test_channel_stack_does_not_change_the_bits(
        self, rb_table, rb_s60_channels, rb_43d_channels, channel_set
    ):
        # all channels' Gram matrices are solved in one stack: each channel
        # gets the bits of its own single-channel eigensystem
        d, s = RydbergState(43, 2, 2.5), RydbergState(44, 0, 0.5)
        channels = {
            "60s": rb_s60_channels,
            "43d": rb_43d_channels,
            "43d5/2+44s1/2": [
                make_channel((d, s), (RydbergState(n, 1, 1.5),) * 2, rb_table)
                for n in (43, 44, 45)
            ],
        }[channel_set]
        eig = forster_eigensystem(channels)
        for ch, vals, vecs in zip(channels, eig.d_values, eig.vectors):
            one = forster_eigensystem([ch])
            assert np.array_equal(one.d_values[0], vals)
            assert np.array_equal(one.vectors[0], vecs)

    @pytest.mark.parametrize("b_field_t", [0.0, 0.01])
    @pytest.mark.parametrize("channel_set", ["60s", "43d", "43d5/2+44s1/2"])
    def test_block_stack_scatters_back_to_the_vectors(
        self, rb_table, rb_s60_channels, rb_43d_channels, channel_set, b_field_t
    ):
        # the sector stack _pair_states solves in holds every column once, in
        # its own (M, exchange) sector and zero elsewhere: column c L + a of
        # block k is channel c's solver column at slot a of block k, a zero
        # column where that slot is padding, and scattered back through the
        # sector basis its coordinates are the vectors to rounding
        d, s = RydbergState(43, 2, 2.5), RydbergState(44, 0, 0.5)
        channels = {
            "60s": rb_s60_channels,
            "43d": rb_43d_channels,
            "43d5/2+44s1/2": [
                make_channel((d, s), (RydbergState(n, 1, 1.5),) * 2, rb_table)
                for n in (43, 44, 45)
            ],
        }[channel_set]
        eig = forster_eigensystem(channels, 0.3, b_field_t)
        c, n = eig.d_values.shape
        layout = pair._layout(channels[0].initial, False)
        k, size = layout.sector.shape
        stack, columns = eig.block_stack
        assert stack.shape == (k, size, c * size) and columns.shape == (k, c * size)
        padding = np.tile(layout.sector, c) < 0  # slot a's, for column c L + a
        assert np.all(stack.swapaxes(1, 2)[padding] == 0.0) and np.all(columns[padding] == 0)
        home = np.take_along_axis(layout.sector, np.abs(stack).argmax(axis=1), axis=1)
        assert np.all(stack[layout.sector[:, :, None] != home[:, None, :]] == 0.0)
        assert sorted(columns[~padding]) == list(range(c * n))
        assert np.array_equal((columns // n)[~padding], np.nonzero(~padding)[1] // size)
        side_by_side = eig.vectors.swapaxes(0, 1).reshape(n, c * n)
        scattered = np.zeros_like(side_by_side)
        for slots, block, block_columns, free in zip(layout.basis, stack, columns, padding):
            filled = block_columns[~free]
            coordinates = slots @ side_by_side[:, filled]
            assert np.all(np.abs(coordinates - block[:, ~free]) < 1e-15)
            scattered[:, filled] = slots.T @ block[:, ~free]
        assert np.max(np.abs(scattered - side_by_side)) < 1e-15

    @pytest.mark.parametrize(
        "tj1, tj2, exchange",
        [(1, 1, True), (3, 3, True), (5, 5, True), (7, 7, True), (1, 3, False), (3, 5, False)],
    )
    def test_sector_blocks_solve_any_pair_frame_operator(self, tj1, tj2, exchange):
        # a random symmetric operator that conserves M and commutes with the
        # rotation by pi about y (and with the exchange P for one level):
        # solved from its sector blocks, mirrored or not, it gives the full
        # matrix's eigenpairs, and with exchange P v = +-v bit for bit
        d1, d2 = tj1 + 1, tj2 + 1
        n = d1 * d2
        m1, m2 = np.repeat(np.arange(d1) - tj1 / 2, d2), np.tile(np.arange(d2) - tj2 / 2, d1)
        h = np.random.default_rng(tj1 + tj2).normal(size=(n, n))
        h[(m1 + m2)[:, None] != (m1 + m2)] = 0.0
        mirror = np.zeros((n, n))
        mirror[n - 1 - np.arange(n), np.arange(n)] = (-1.0) ** np.round(tj1 / 2 - m1 + tj2 / 2 - m2)
        h = h + h.T + mirror.T @ (h + h.T) @ mirror
        swap = np.eye(n)[np.arange(n).reshape(d1, d2).T.ravel()]
        if exchange:
            h = h + swap @ h @ swap.T
        for mirrored in (True, False):
            layout = pair._m_blocks(tj1, tj2, mirrored, exchange)
            basis = layout.basis[layout.low :]
            blocks = np.where(layout.live, basis @ h @ basis.swapaxes(1, 2), 0.0)
            vals, vecs, _ = pair._m_block_states(blocks, np.eye(n), layout)
            scale = np.abs(h).max()
            assert np.max(np.abs(np.sort(vals) - np.linalg.eigvalsh(h))) < 1e-14 * scale
            assert np.max(np.abs(h @ vecs - vecs * vals)) < 1e-14 * scale
            assert np.max(np.abs(vecs.T @ vecs - np.eye(n))) < 1e-14
            if exchange:
                parity = np.sign(np.sum(swap @ vecs * vecs, axis=0))
                assert np.array_equal(swap @ vecs, vecs * parity)

    @pytest.mark.parametrize("mirrored", [True, False])
    @pytest.mark.parametrize("tj1, tj2, exchange", [(1, 1, True), (5, 5, True), (5, 1, False)])
    def test_cached_arrays_are_read_only(self, tj1, tj2, exchange, mirrored):
        # _m_blocks, _ordering_amplitudes and _small_d_table are cached and
        # shared by every later call: writing into any of their arrays raises
        layout = pair._m_blocks(tj1, tj2, mirrored, exchange)
        fields = [getattr(layout, f.name) for f in dataclasses.fields(layout)]
        arrays = [a for f in fields for a in (f if isinstance(f, tuple) else (f,))]
        arrays = [a for a in arrays if isinstance(a, np.ndarray)]
        assert len(arrays) == 12  # pad and slots hold two index arrays each
        arrays += pair._ordering_amplitudes(((2, 2.5),) * 2, ((1, 1.5), (3, 3.5)))
        arrays.append(_small_d_table(tj1))
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0

    @pytest.mark.parametrize("b_field_t", [0.0, 0.01])
    def test_stacked_layout(self, rb_s60_channels, rb_43d_channels, b_field_t):
        # the solver's arrays, one row per channel: (C, N) values and
        # defects, (C, N, N) vectors
        for channels, n in ((rb_s60_channels, 4), (rb_43d_channels, 36)):
            eig = forster_eigensystem(channels, 0.7, b_field_t)
            c = len(channels)
            assert eig.d_values.shape == eig.defects_mhz.shape == (c, n)
            assert eig.vectors.shape == (c, n, n)
            # what the tracer reports as pair.eigensystem_dim
            assert sum(len(v) for v in eig.d_values) == c * n

    def test_zeeman_stretched_state_oracle(self, rb_table):
        # stretched pair state: coupled moment 4/3*1, initial moment 2*1,
        # so the defect shifts by -(2/3) muB B exactly
        s = RydbergState(60, 0, 0.5)
        ch = make_channel(
            (s, s), (RydbergState(60, 1, 1.5), RydbergState(59, 1, 1.5)), rb_table
        )
        b_field = 0.01
        eig = forster_eigensystem([ch], 0.0, b_field)
        vecs, defects = eig.vectors[0], eig.defects_mhz[0]
        stretched = int(np.argmax(np.abs(vecs[3, :])))
        anti = int(np.argmax(np.abs(vecs[0, :])))
        expected = (2.0 / 3.0) * cst.MU_B_MHZ_PER_T * b_field
        assert defects[stretched] - ch.defect_mhz == pytest.approx(-expected, rel=1e-9)
        assert defects[anti] - ch.defect_mhz == pytest.approx(+expected, rel=1e-9)

    def test_zeeman_linear_and_vanishing(self, rb_s60_channels):
        ch = rb_s60_channels[0]
        e0 = forster_eigensystem([ch], 0.0, 0.0)
        e1 = forster_eigensystem([ch], 0.0, 0.005)
        e2 = forster_eigensystem([ch], 0.0, 0.010)
        assert np.allclose(e0.defects_mhz[0], ch.defect_mhz)
        shift1 = e1.defects_mhz[0] - ch.defect_mhz
        shift2 = e2.defects_mhz[0] - ch.defect_mhz
        assert np.allclose(shift2, 2.0 * shift1, atol=1e-9)


class TestPotentialCurves:
    def test_resonant_channel_exact_cube_law(self):
        d_phi, c3 = 0.5, 2000.0
        r = np.geomspace(0.5, 20.0, 50)
        shift = pair_shift_mhz(0.0, c3, d_phi, r)
        assert np.allclose(shift, -c3 * math.sqrt(d_phi) / r**3, rtol=1e-12)

    @pytest.mark.parametrize("r_um", [-2.0, 0.0, math.nan, math.inf])
    def test_shift_needs_positive_finite_separation(self, r_um):
        # r_um = -2 returned the +2 um shift, nan a nan shift
        with pytest.raises(ValueError, match="r_um must be positive and finite"):
            pair_shift_mhz(-100.0, 1.0, 0.5, r_um)
        with pytest.raises(ValueError, match="r_um must be positive and finite"):
            pair_shift_mhz(-100.0, 1.0, 0.5, np.array([3.0, r_um]))

    @pytest.mark.parametrize("d_phi", [-0.5, math.nan, math.inf])
    def test_shift_needs_finite_non_negative_d_phi(self, d_phi):
        # a nan d_phi returned a nan shift
        with pytest.raises(ValueError, match="d_phi must be finite and non-negative"):
            pair_shift_mhz(-100.0, 1.0, d_phi, 2.0)
        assert pair_shift_mhz(-100.0, 1.0, 0.0, 2.0) == 0.0

    @pytest.mark.parametrize("name", ["defect_mhz", "c3_mhz_um3"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_shift_needs_finite_defect_and_c3(self, name, bad):
        # a nan defect returned nan; an infinite C3 returned nan after an
        # "invalid value encountered in divide" warning
        args = {"defect_mhz": -100.0, "c3_mhz_um3": 1.0, "d_phi": 0.5, "r_um": 5.0}
        args[name] = np.array([1.0, bad]) if name == "defect_mhz" else bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="%s must be finite" % name):
                pair_shift_mhz(**args)

    @pytest.mark.parametrize("r_um", [5.0, 20.0, 40.0])
    def test_shift_to_a_few_ulp_against_mpmath(self, rb_s60_eigensystem, r_um):
        # delta/2 - sign(delta) sqrt((delta/2)^2 + C3^2 D / R^6) cancels to
        # about eps |delta| / 2 at any shift: relative errors of 7e-11 at
        # 20 um and 5e-9 at 40 um for the 60s channels
        mpmath = pytest.importorskip("mpmath")
        eig = rb_s60_eigensystem
        with mpmath.workdps(50):
            for idx, ch in enumerate(eig.channels):
                for d_phi in [0.5, *eig.d_values[idx]]:
                    got = pair_shift_mhz(ch.defect_mhz, ch.c3_mhz_um3, d_phi, r_um)
                    delta = mpmath.mpf(ch.defect_mhz)
                    coupling_sq = (
                        mpmath.mpf(ch.c3_mhz_um3) ** 2 * mpmath.mpf(d_phi) / mpmath.mpf(r_um) ** 6
                    )
                    exact = delta / 2 - mpmath.sign(delta) * mpmath.sqrt(
                        delta**2 / 4 + coupling_sq
                    )
                    assert abs(float(got) - exact) <= 4 * np.finfo(float).eps * abs(exact)

    def test_zero_defect_and_coupling_give_zero_without_warning(self):
        # the conjugate form would divide 0 by 0 where the resonant branch
        # is taken
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            shift = pair_shift_mhz([0.0, -0.0, 3.0, -3.0], 1.0, 0.0, 2.0)
            resonant = pair_shift_mhz(0.0, 2.0, 0.5, 2.0)
        assert np.array_equal(shift, np.zeros(4))
        assert resonant == -2.0 * math.sqrt(0.5) / 8.0

    def test_asymptotes_outside_crossover_window(self, rb_s60_eigensystem):
        eig = rb_s60_eigensystem
        for idx, ch in enumerate(eig.channels):
            for d_phi in eig.d_values[idx]:
                if d_phi < 1e-8:
                    continue
                rc = crossover_radius_um(ch, d_phi)
                # short range: coupling term, with the half-defect offset
                r_in = rc / 3.0
                full_in = pair_shift_mhz(ch.defect_mhz, ch.c3_mhz_um3, d_phi, np.array([r_in]))[0]
                near = ch.defect_mhz / 2.0 - math.copysign(1.0, ch.defect_mhz) * abs(
                    ch.c3_mhz_um3
                ) * math.sqrt(d_phi) / r_in**3
                assert abs(near - full_in) / abs(full_in) < 0.01
                # long range: inverse-sixth law
                r_out = 3.0 * rc
                full_out = pair_shift_mhz(ch.defect_mhz, ch.c3_mhz_um3, d_phi, np.array([r_out]))[0]
                far = vdw_coefficient_mhz_um6(ch, d_phi) / r_out**6
                assert abs(far - full_out) / abs(full_out) < 0.01

    def test_deep_limits_pure_power_laws(self, rb_s60_eigensystem):
        eig = rb_s60_eigensystem
        ch = eig.channels[0]
        d_phi = eig.d_values[0].max()
        rc = crossover_radius_um(ch, d_phi)
        r_in, r_out = rc / 10.0, rc * 10.0
        full_in = abs(pair_shift_mhz(ch.defect_mhz, ch.c3_mhz_um3, d_phi, np.array([r_in]))[0])
        full_out = abs(pair_shift_mhz(ch.defect_mhz, ch.c3_mhz_um3, d_phi, np.array([r_out]))[0])
        assert abs(full_in - abs(ch.c3_mhz_um3) * math.sqrt(d_phi) / r_in**3) / full_in < 0.01
        assert (
            abs(full_out - abs(ch.c3_mhz_um3) ** 2 * d_phi / (abs(ch.defect_mhz) * r_out**6))
            / full_out
            < 0.01
        )

    def test_magnitude_monotone_and_vanishing(self, rb_s60_eigensystem):
        r = np.geomspace(0.2, 60.0, 200)
        for idx in range(len(rb_s60_eigensystem.channels)):
            curve = potential_curves(rb_s60_eigensystem, idx, r)
            mags = np.abs(curve.delta_mhz)
            assert np.all(np.diff(mags, axis=1) <= 1e-12)
            assert np.all(mags[:, -1] < mags[:, 0] + 1e-12)
        far = potential_curves(rb_s60_eigensystem, 0, np.array([1e4])).delta_mhz
        assert np.max(np.abs(far)) < 1e-6

    def test_vdw_shift_repulsive_for_negative_defect(self, rb_s60_eigensystem):
        # coupled pair below the initial pair pushes the initial state up
        eig = rb_s60_eigensystem
        curve = potential_curves(eig, 0, np.array([30.0]))
        strong = curve.delta_mhz[np.argmax(eig.d_values[0]), 0]
        assert eig.channels[0].defect_mhz < 0 and strong > 0

    def test_positive_separation_required(self, rb_s60_eigensystem):
        # nan fails r > 0 as well as r <= 0, so only the first test rejects it
        for bad in (0.0, -5.0, np.nan):
            with pytest.raises(ValueError, match="positive"):
                potential_curves(rb_s60_eigensystem, 0, np.array([bad, 1.0]))


class TestCrossover:
    def test_100s_dominant_channel_radius(self, rb_s100_channels):
        eig = forster_eigensystem(rb_s100_channels)
        strengths = [
            ch.c3_mhz_um3**2 * d.max() / abs(ch.defect_mhz)
            for ch, d in zip(eig.channels, eig.d_values)
        ]
        idx = int(np.argmax(strengths))
        rc = crossover_radius_um(eig.channels[idx], eig.d_values[idx].max())
        assert abs(rc - 9.5) / 9.5 < 0.20
        assert rc == pytest.approx(7.73, abs=0.15)

    def test_cube_root_scaling_in_c3(self, rb_s60_channels):
        ch = rb_s60_channels[0]
        doubled = ForsterChannel(
            initial=ch.initial,
            coupled=ch.coupled,
            defect_mhz=ch.defect_mhz,
            c3_mhz_um3=2.0 * ch.c3_mhz_um3,
        )
        assert crossover_radius_um(doubled, 0.5) == pytest.approx(
            2.0 ** (1.0 / 3.0) * crossover_radius_um(ch, 0.5), rel=1e-12
        )

    def test_resonant_channel_marker(self):
        ch = angular_channel((60, 0, 0.5), (60, 1, 1.5), (59, 1, 1.5), defect=0.0)
        assert math.isinf(crossover_radius_um(ch, 0.5))
        with pytest.raises(ValueError):
            vdw_coefficient_mhz_um6(ch, 0.5)

    @pytest.mark.parametrize("d_phi", [0.0, -1.0, math.nan, math.inf])
    def test_crossover_needs_positive_d_phi(self, d_phi):
        # nan returned a nan radius, inf an infinite one
        ch = angular_channel((60, 0, 0.5), (60, 1, 1.5), (59, 1, 1.5))
        with pytest.raises(ValueError, match="d_phi must be positive"):
            crossover_radius_um(ch, d_phi)

    @pytest.mark.parametrize("d_phi", [math.nan, math.inf, -math.inf])
    def test_vdw_coefficient_needs_finite_d_phi(self, d_phi):
        # nan returned nan, inf an infinite coefficient
        ch = angular_channel((60, 0, 0.5), (60, 1, 1.5), (59, 1, 1.5))
        with pytest.raises(ValueError, match="d_phi must be finite"):
            vdw_coefficient_mhz_um6(ch, d_phi)

    def test_knee_location_matches_crossover(self, rb_s60_eigensystem):
        # maximum log-log curvature of the strongest curve sits at the
        # crossover radius (frozen ratio 1.12 from this implementation)
        eig = rb_s60_eigensystem
        idx = 1
        ch = eig.channels[idx]
        d_phi = eig.d_values[idx].max()
        rc = crossover_radius_um(ch, d_phi)
        r = np.geomspace(rc / 20.0, rc * 20.0, 400)
        curve = potential_curves(eig, idx, r)
        mags = np.abs(curve.delta_mhz[int(np.argmax(eig.d_values[idx]))])
        slope = np.gradient(np.log(mags), np.log(r))
        curvature = np.gradient(slope, np.log(r))
        r_knee = r[int(np.argmin(curvature))]
        assert 0.7 < r_knee / rc < 1.6
        # local power law midway between resonant and van der Waals exponents
        assert -5.0 < slope[int(np.argmin(np.abs(r - rc)))] < -3.5


class TestStaticDipole:
    def test_magic_angle_null(self):
        theta = math.acos(1.0 / math.sqrt(3.0))
        assert first_order_dipole_shift_mhz(100.0, theta, 5.0) == pytest.approx(0.0, abs=1e-9)

    def test_aligned_and_perpendicular(self):
        d, r = 100.0, 5.0
        scale = cst.EA0_SQ_MHZ_UM3 * d**2 / r**3
        assert first_order_dipole_shift_mhz(d, 0.0, r) == pytest.approx(-2.0 * scale)
        assert first_order_dipole_shift_mhz(d, math.pi / 2.0, r) == pytest.approx(scale)

    @pytest.mark.parametrize("r_um", [0.0, -5.0, math.nan])
    def test_separation_must_be_positive(self, r_um):
        # nan returned a nan shift
        with pytest.raises(ValueError, match="r_um must be positive"):
            first_order_dipole_shift_mhz(1.0, 0.3, r_um)


class TestScalingLaw:
    def test_vdw_strength_exponent(self, rb_table):
        ns = list(range(40, 91, 5))
        strength = []
        for n in ns:
            best = max(
                ch.c3_mhz_um3**2 / abs(ch.defect_mhz)
                for ch in s_state_channels(n, rb_table)
            )
            strength.append(best)
        log_s = np.log(strength)
        n_star = np.array([n - rb_table.defect(n, 0, 0.5) for n in ns])
        slope_eff = np.polyfit(np.log(n_star), log_s, 1)[0]
        slope_raw = np.polyfit(np.log(np.array(ns, dtype=float)), log_s, 1)[0]
        # scaling law in effective quantum number; raw-n fit pinned
        assert 10.0 <= slope_eff <= 12.0
        assert slope_eff == pytest.approx(11.393, abs=0.05)
        assert slope_raw == pytest.approx(12.028, abs=0.06)

