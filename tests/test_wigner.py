import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import sph_harm_y

from equisphere.samples import flat_index, make_grid, node_angles, sample_weights, theta_nodes
from equisphere import wigner
from equisphere.transforms import row_weights
from equisphere.wigner import norm_legendre_tables, ylm_points

import oracles
from oracles import build_delta_table, delta_quadrants, legendre, ylm, ylm_matrix


class TestLegendre:
    def test_closed_forms(self):
        assert legendre(0, 0, 0.3) == 1.0
        assert legendre(1, 0, 0.5) == 0.5
        assert legendre(1, 1, 0.0) == pytest.approx(-1.0, abs=1e-15)

    def test_against_high_precision(self):
        rng = np.random.default_rng(2)
        for _ in range(120):
            el = int(rng.integers(0, 24))
            m = int(rng.integers(0, el + 1))
            x = float(rng.uniform(-1, 1))
            expect = oracles.legendre_exact(el, m, x)
            scale = max(1.0, abs(expect))
            assert legendre(el, m, x) == pytest.approx(expect, rel=1e-11, abs=1e-11 * scale)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            legendre(2, 1, 1.5)
        with pytest.raises(ValueError):
            legendre(1, 2, 0.0)
        with pytest.raises(ValueError):
            legendre(-1, 0, 0.0)

    @pytest.mark.parametrize("kind", ["dh", "mw"])
    def test_ring_tables_match_per_order_loop(self, kind):
        # the profiles the harmonic solver's bases are built from; the loop's
        # own recursion is up to 2e-14 off the exact values on these rings
        theta = theta_nodes(make_grid(kind, 32))
        got = norm_legendre_tables(32, theta)
        expect = oracles.norm_legendre_tables_loop(32, np.cos(theta))
        assert [a.shape for a in got] == [b.shape for b in expect]
        for a, b in zip(got, expect):
            assert np.abs(a - b).max() < 5e-14

    @pytest.mark.parametrize("L", [1, 2, 13])
    def test_tables_exact_every_entry(self, L):
        theta = np.array([0.0, 1e-3, 0.5, 1.0, np.pi / 2, 2.5, np.pi - 1e-3, np.pi])
        tables = norm_legendre_tables(L, theta)
        assert [t.shape for t in tables] == [(L - m, theta.size) for m in range(L)]
        for m, table in enumerate(tables):
            for el, row in enumerate(table, start=m):
                expect = [oracles.norm_legendre_exact(el, m, t) for t in theta]
                assert np.abs(row - expect).max() < 1e-14

    def test_tables_exact_high_degree(self):
        # poles included; the recursion the Delta sums replaced was 7.6e-13
        # off at l = 256, m = 0, theta = pi
        theta = np.array([0.0, 1e-3, 1.0, np.pi / 2, np.pi])
        tables = norm_legendre_tables(257, theta)
        for el in range(250, 257):
            for m in (0, 1, el // 2, el):
                expect = [oracles.norm_legendre_exact(el, m, t) for t in theta]
                assert np.abs(tables[m][el - m] - expect).max() < 1e-13

    def test_tables_above_delta_range(self):
        with pytest.raises(ValueError, match="up to 1024"):
            norm_legendre_tables(1025, np.zeros(1))

    def test_normalized_tables_match_pointwise(self):
        x = np.linspace(-0.99, 0.99, 7)
        L = 12
        tables = norm_legendre_tables(L, np.arccos(x))
        for m in range(L):
            for el in range(m, L):
                norm = math.sqrt(
                    (2 * el + 1)
                    / (4 * math.pi)
                    * math.factorial(el - m)
                    / math.factorial(el + m)
                )
                for j, xv in enumerate(x):
                    assert tables[m][el - m, j] == pytest.approx(
                        norm * legendre(el, m, float(xv)), rel=1e-11, abs=1e-13
                    )


class TestYlm:
    def test_examples(self):
        assert ylm(0, 0, 0.123, 4.5) == pytest.approx(0.28209479177387814)
        assert ylm(1, 0, np.pi / 2, 0.0) == pytest.approx(0.0, abs=1e-16)
        assert ylm(1, 1, np.pi / 2, 0.0) == pytest.approx(-math.sqrt(3 / (8 * math.pi)))

    def test_y00_quadrature_normalization(self):
        # int |Y_00|^2 = 1 via an independent dense quadrature
        val = oracles.sphere_integral_refined(
            lambda th, ph: np.full(np.broadcast_shapes(th.shape, ph.shape),
                                   abs(ylm(0, 0, 0.0, 0.0)) ** 2),
            n_theta=1 << 21, n_phi=8,
        )
        assert val.real == pytest.approx(1.0, abs=1e-10)

    def test_against_scipy(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            el = int(rng.integers(0, 40))
            m = int(rng.integers(-el, el + 1)) if el else 0
            th = float(rng.uniform(0, np.pi))
            ph = float(rng.uniform(0, 2 * np.pi))
            assert ylm(el, m, th, ph) == pytest.approx(
                complex(sph_harm_y(el, m, th, ph)), abs=1e-12
            )

    def test_domain_error(self):
        with pytest.raises(ValueError):
            ylm(1, 2, 0.0, 0.0)

    @pytest.mark.parametrize("kind", ["dh", "mw"])
    def test_orthonormality_under_quadrature(self, kind):
        # <Y_lm, Y_l'm'> = delta delta for all l, l' < 8 with a grid whose
        # band-limit covers the product bandwidth
        L_pairs = 8
        grid = make_grid(kind, 2 * L_pairs)
        th, ph = node_angles(grid)
        w = sample_weights(grid, row_weights(grid))
        ymat = ylm_matrix(grid)
        gram = ymat.conj().T @ (w[:, None] * ymat)
        expect = np.eye(L_pairs * L_pairs)
        sub = gram[: L_pairs * L_pairs, : L_pairs * L_pairs]
        assert np.abs(sub - expect).max() < 1e-10


class TestDeltaTable:
    def test_closed_forms(self):
        tab = build_delta_table(2)
        assert tab.value(0, 0, 0) == pytest.approx(1.0, abs=1e-15)
        assert tab.value(1, 0, 0) == pytest.approx(0.0, abs=1e-15)
        assert tab.value(1, 1, 0) == pytest.approx(-1 / math.sqrt(2), abs=1e-12)
        assert tab.value(1, 1, 1) == pytest.approx(0.5, abs=1e-12)

    def test_exhaustive_against_exact(self):
        tab = build_delta_table(13)
        for el in range(13):
            d = tab.slice(el)
            for m in range(-el, el + 1):
                for n in range(-el, el + 1):
                    assert d[m + el, n + el] == pytest.approx(
                        oracles.delta_exact(el, m, n), abs=5e-14
                    )

    def test_spot_checks_high_degree(self):
        tab = build_delta_table(64)
        for el, m, n in [(40, 17, -5), (63, 63, 0), (63, 0, 0), (50, -31, 22)]:
            assert tab.value(el, m, n) == pytest.approx(
                oracles.delta_exact(el, m, n), abs=1e-12
            )

    def test_symmetries_and_normalization(self):
        tab = build_delta_table(64)
        for el in (0, 1, 2, 7, 31, 63):
            d = tab.slice(el)
            ms = np.arange(-el, el + 1)
            sign = (-1.0) ** np.abs(ms[:, None] - ms[None, :])
            assert np.abs(d - sign * d.T).max() < 1e-12
            assert np.abs(d - sign * d[::-1, ::-1]).max() < 1e-12
            assert np.abs((d**2).sum(axis=1) - 1.0).max() < 1e-12
            assert np.abs(d).max() <= 1.0 + 1e-14

    def test_fourier_series_reproduces_ylm(self):
        # sqrt((2l+1)/4pi) conj(D_{m0}(phi, theta, 0)) == Y_lm with the
        # d-function built from its Delta Fourier series
        L = 10
        tab = build_delta_table(L)
        rng = np.random.default_rng(4)
        for _ in range(60):
            el = int(rng.integers(0, L))
            m = int(rng.integers(-el, el + 1)) if el else 0
            th = float(rng.uniform(0, np.pi))
            ph = float(rng.uniform(0, 2 * np.pi))
            d = tab.slice(el)
            mp_ = np.arange(-el, el + 1)
            d_m0 = (1j) ** (-m) * np.sum(d[:, m + el] * d[:, el] * np.exp(1j * mp_ * th))
            val = math.sqrt((2 * el + 1) / (4 * math.pi)) * np.conj(
                np.exp(-1j * m * ph) * d_m0
            )
            assert val == pytest.approx(ylm(el, m, th, ph), abs=1e-10)

    def test_slice_bounds(self):
        tab = build_delta_table(4)
        with pytest.raises(ValueError):
            tab.slice(4)
        with pytest.raises(ValueError):
            tab.value(2, 3, 0)


class TestDeltaQuadrants:
    def test_shapes_and_first_degrees(self):
        quads = [q.copy() for q in delta_quadrants(3)]
        assert [q.shape for q in quads] == [(1, 1), (2, 2), (3, 3)]
        assert quads[0][0, 0] == 1.0
        r = 1 / math.sqrt(2)
        assert np.abs(quads[1] - [[0.0, r], [-r, 0.5]]).max() < 1e-15

    def test_exhaustive_against_exact(self):
        for el, quad in enumerate(delta_quadrants(13)):
            for m in range(el + 1):
                for n in range(el + 1):
                    assert quad[m, n] == pytest.approx(
                        oracles.delta_exact(el, m, n), abs=5e-14
                    )

    def test_matches_risbo_composition(self):
        L = 256
        worst = 0.0
        for el, (quad, full) in enumerate(
            zip(delta_quadrants(L), oracles.risbo_delta_slices(L))
        ):
            worst = max(worst, np.abs(quad - full[el:, el:]).max())
        assert el == L - 1
        assert worst < 1e-13
        # the last degree's quadrant is still intact: spot-check it exactly
        spots = ((0, 0), (3, 100), (100, 3), (0, 255), (255, 0), (128, 200), (254, 1), (255, 255))
        for m, n in spots:
            assert quad[m, n] == pytest.approx(oracles.delta_exact(el, m, n), abs=1e-13)

    def test_corner_seed_is_exact(self):
        for el, quad in enumerate(delta_quadrants(40)):
            assert quad[el, el] == 2.0**-el

    def test_supported_range(self):
        # values the size of the corner seed 2**-l lose at most one bit through l = 1023 only
        assert next(delta_quadrants(1024))[0, 0] == 1.0
        with pytest.raises(ValueError, match="up to 1024"):
            next(delta_quadrants(1025))
        with pytest.raises(ValueError, match="up to 1024"):
            build_delta_table(4096)
        with pytest.raises(ValueError):
            next(delta_quadrants(0))


def _triangles(L):
    """``(l, E^l)`` with ``E^l_{mn} = (-1)**m d^l_{mn}(pi/2)`` unpacked from the
    package's stream, after checking that its entries past degree ``l`` are zero."""
    for el, tri in enumerate(wigner._delta_triangles(L)):
        size = (el + 1) * (el + 2) // 2
        assert tri.shape == (L * (L + 1) // 2,)
        assert not tri[size:].any()
        yield el, oracles.unpack_triangle(tri, el)


class TestPackedTriangle:
    def test_exhaustive_against_exact(self):
        for el, e in _triangles(13):
            for m in range(el + 1):
                for n in range(el + 1):
                    assert e[m, n] == pytest.approx(
                        (-1) ** m * oracles.delta_exact(el, m, n), abs=5e-14
                    )

    def test_matches_risbo_composition(self):
        L = 256
        worst = 0.0
        for (el, e), full in zip(_triangles(L), oracles.risbo_delta_slices(L)):
            sign = (-1.0) ** np.arange(el + 1)
            worst = max(worst, np.abs(sign[:, None] * e - full[el:, el:]).max())
        assert el == L - 1
        assert worst < 1e-13

    def test_corner_seed_is_exact(self):
        for el, tri in enumerate(wigner._delta_triangles(40)):
            assert tri[(el + 1) * (el + 2) // 2 - 1] == (-1) ** el * 2.0**-el

    @pytest.mark.parametrize("L", [1, 2, 3, 8, 64, 256])
    def test_weights_match_quadrant_oracle(self, L):
        expect = {el: w.copy() for el, w in oracles.contraction_weights_from_quadrants(L)}
        for p, degrees, w in wigner._weight_batches(L):
            assert len(degrees) == w.shape[0] <= 8
            assert w.shape[1:] == (degrees[-1] + 1, degrees[-1] // 2 + 1)
            for i, el in enumerate(degrees):
                assert el % 2 == p
                got = w[i].copy()
                assert np.abs(got[: el + 1, : el // 2 + 1] - expect.pop(el)).max() <= 1e-15
                got[: el + 1, : el // 2 + 1] = 0.0
                assert not got.any()  # zero past the degree, as the batched products need
        assert not expect  # every degree came once

    def test_supported_range(self):
        tracemalloc.start()
        try:
            for gen in (wigner._delta_triangles, wigner._weight_batches):
                with pytest.raises(ValueError, match="up to 1024"):
                    next(gen(1025))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e6  # refused before any table or buffer is built
        for transform in (wigner.delta_forward, wigner.delta_inverse):
            with pytest.raises(ValueError, match="up to 1024"):
                transform(np.zeros(1), 1025)


class TestYlmPoints:
    def test_matches_scalar_ylm(self):
        rng = np.random.default_rng(6)
        theta = np.concatenate(([0.0, np.pi], rng.uniform(0, np.pi, 6)))
        phi = rng.uniform(0, 2 * np.pi, theta.size)
        mat = ylm_points(9, theta, phi)
        for i, (th, ph) in enumerate(zip(theta, phi)):
            for el in range(9):
                for m in range(-el, el + 1):
                    assert abs(mat[i, flat_index(el, m)] - ylm(el, m, th, ph)) < 1e-14


class TestYlmMatrix:
    def test_columns_match_pointwise(self):
        g = make_grid("mw", 5)
        th, ph = node_angles(g)
        mat = ylm_matrix(g)
        rng = np.random.default_rng(5)
        for _ in range(30):
            i = int(rng.integers(0, g.n_samples))
            el = int(rng.integers(0, g.L))
            m = int(rng.integers(-el, el + 1)) if el else 0
            assert mat[i, flat_index(el, m)] == pytest.approx(
                ylm(el, m, th[i], ph[i]), abs=1e-13
            )
