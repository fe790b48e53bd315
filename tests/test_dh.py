import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import eval_legendre

from equisphere.dh import (
    dh_forward,
    dh_integrate,
    dh_inverse,
    dh_sample_weights,
    dh_weights,
)
from equisphere.mw import mw_forward
from equisphere.samples import (
    GridMismatchError,
    HarmonicCoeffs,
    SphereSignal,
    flat_index,
    make_grid,
    node_angles,
    random_coeffs,
    theta_nodes,
)

import oracles
from oracles import dh_forward_direct, inverse_direct, ylm


class TestWeights:
    def test_degenerate_bandlimit(self):
        w = dh_weights(1)
        assert w.q[0] == 0.0
        assert w.q[1] == pytest.approx(2 * np.pi, abs=1e-12)

    def test_pole_weight_zero(self):
        for L in (1, 2, 8, 33):
            assert dh_weights(L).q[0] == 0.0

    def test_row_sum(self):
        for L in (1, 2, 4, 16, 64):
            assert dh_weights(L).q.sum() == pytest.approx(2 * np.pi / L, abs=1e-11)

    def test_nonnegative_and_finite(self):
        for L in (1, 3, 17, 64):
            q = dh_weights(L).q
            assert np.all(np.isfinite(q))
            assert np.all(q >= -1e-14)

    @pytest.mark.parametrize("L", [1, 2, 3, 8, 23, 64])
    def test_implicit_condition(self, L):
        # sum_t q(theta_t) P_l(cos theta_t) = (2 pi / L) delta_{l0}, l < 2L
        q = dh_weights(L).q
        x = np.cos(theta_nodes(make_grid("dh", L)))
        for el in range(2 * L):
            val = float(q @ eval_legendre(el, x))
            expect = 2 * np.pi / L if el == 0 else 0.0
            assert val == pytest.approx(expect, abs=1e-10)

    @pytest.mark.parametrize("L", [1, 2, 3, 33, 256, 1024])
    def test_fft_matches_dense_sum(self, L):
        q, expect = dh_weights(L).q, oracles.dh_weights_dense(L)
        assert np.abs(q - expect).max() <= 1e-14 * np.abs(expect).max()


class TestForward:
    def test_constant_signal(self):
        g = make_grid("dh", 4)
        c = 2.5 - 0.5j
        got = dh_forward(SphereSignal(g, np.full(g.n_samples, c)))
        assert got.values[0] == pytest.approx(c * math.sqrt(4 * math.pi), abs=1e-10)
        assert np.abs(got.values[1:]).max() < 1e-10

    def test_single_harmonic(self):
        g = make_grid("dh", 6)
        th, ph = node_angles(g)
        vals = np.array([ylm(2, 1, t, p) for t, p in zip(th, ph)])
        got = dh_forward(SphereSignal(g, vals))
        expect = np.zeros(36, dtype=complex)
        expect[flat_index(2, 1)] = 1.0
        assert np.abs(got.values - expect).max() < 1e-10

    def test_roundtrip_recovers_coefficients(self):
        rng = np.random.default_rng(7)
        x = random_coeffs(16, rng)
        assert np.abs(dh_forward(dh_inverse(x)).values - x.values).max() < 1e-10

    def test_rejects_mw_signal(self):
        g = make_grid("mw", 4)
        with pytest.raises(GridMismatchError):
            dh_forward(SphereSignal(g, np.zeros(g.n_samples)))

    @pytest.mark.parametrize("L", [1, 2, 3, 7, 8, 9])
    def test_matches_direct_quadrature(self, L):
        # an arbitrary, not band-limited signal: the route through the torus
        # must equal the explicit quadrature for any samples, pole row included
        rng = np.random.default_rng(8)
        g = make_grid("dh", L)
        sig = SphereSignal(
            g, rng.standard_normal(g.n_samples) + 1j * rng.standard_normal(g.n_samples)
        )
        a = dh_forward(sig).values
        b = dh_forward_direct(sig).values
        assert np.abs(a - b).max() < 1e-11


class TestInverse:
    def test_zero_and_constant(self):
        sig = dh_inverse(HarmonicCoeffs.zeros(5))
        assert np.abs(sig.values).max() == 0.0
        vals = np.zeros(25, dtype=complex)
        vals[0] = math.sqrt(4 * math.pi)
        sig = dh_inverse(HarmonicCoeffs(5, vals))
        assert np.abs(sig.values - 1.0).max() < 1e-12

    @pytest.mark.parametrize("L", [1, 2, 3, 8, 9])
    def test_matches_direct_synthesis(self, L):
        rng = np.random.default_rng(9)
        x = random_coeffs(L, rng)
        direct = inverse_direct(make_grid("dh", L), x)
        assert np.abs(dh_inverse(x).values - direct.values).max() < 1e-11

    def test_bandlimit_mismatch(self):
        with pytest.raises(GridMismatchError):
            dh_inverse(HarmonicCoeffs.zeros(4), 5)

    @pytest.mark.parametrize("L", [1, 2, 4, 8, 16, 32, 64])
    def test_exact_roundtrip(self, L):
        rng = np.random.default_rng(L)
        for _ in range(3):
            x = random_coeffs(L, rng)
            back = dh_forward(dh_inverse(x))
            assert np.abs(back.values - x.values).max() < 1e-9

    def test_roundtrip_large_bandlimit(self):
        x = random_coeffs(256, np.random.default_rng(256))
        back = dh_forward(dh_inverse(x))
        assert np.abs(back.values - x.values).max() < 1e-9

    def test_roundtrip_working_memory(self):
        # Wigner-Delta recursion streamed one degree at a time: no O(L^3)
        # table is built per call (the full Delta table at L = 256 is about 180 MB)
        x = random_coeffs(256, np.random.default_rng(1))
        tracemalloc.start()
        try:
            dh_forward(dh_inverse(x))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64e6

    def test_bandlimit_above_delta_recursion_range(self):
        # zero-stride samples keep this small; the check comes before any FFT
        g = make_grid("dh", 1025)
        sig = SphereSignal(g, np.broadcast_to(np.complex128(0), (g.n_samples,)))
        with pytest.raises(ValueError, match="up to 1024"):
            dh_forward(sig)
        with pytest.raises(ValueError, match="up to 1024"):
            dh_inverse(HarmonicCoeffs.zeros(1025))

    def test_linearity(self):
        rng = np.random.default_rng(10)
        a, b = random_coeffs(8, rng), random_coeffs(8, rng)
        lhs = dh_inverse(HarmonicCoeffs(8, 2.0 * a.values - 1.5j * b.values)).values
        rhs = 2.0 * dh_inverse(a).values - 1.5j * dh_inverse(b).values
        assert np.abs(lhs - rhs).max() < 1e-12
        ga = dh_forward(dh_inverse(a))
        sig_sum = SphereSignal(
            make_grid("dh", 8), dh_inverse(a).values + dh_inverse(b).values
        )
        assert np.abs(
            dh_forward(sig_sum).values - ga.values - dh_forward(dh_inverse(b)).values
        ).max() < 1e-11


class TestIntegrate:
    def test_constant(self):
        g = make_grid("dh", 3)
        val = dh_integrate(SphereSignal(g, np.ones(g.n_samples)))
        assert val == pytest.approx(4 * np.pi, abs=1e-10)

    def test_zero_mean_harmonic(self):
        g = make_grid("dh", 5)
        th, ph = node_angles(g)
        vals = np.array([ylm(1, 1, t, p) for t, p in zip(th, ph)])
        assert abs(dh_integrate(SphereSignal(g, vals))) < 1e-10

    def test_equals_f00(self):
        rng = np.random.default_rng(11)
        x = random_coeffs(12, rng)
        sig = dh_inverse(x)
        assert dh_integrate(sig) == pytest.approx(
            complex(x.values[0]) * math.sqrt(4 * math.pi), abs=1e-10
        )

    def test_band_limited_product_against_oracles(self):
        # f = (1 + Y_20)^2 sampled at L = 8: band-limit 5, exactly integrable
        def f(th, ph):
            y20 = np.sqrt(5 / (16 * np.pi)) * (3 * np.cos(th) ** 2 - 1)
            return (1 + y20) ** 2 + 0 * ph

        g = make_grid("dh", 8)
        th, ph = node_angles(g)
        got = dh_integrate(SphereSignal(g, f(th, ph)))
        coarse = oracles.sphere_integral_trapezoid(f, n_theta=2048, n_phi=2048)
        # the 2048^2 trapezoid oracle itself carries O(h^2) ~ 1e-5 error
        assert got == pytest.approx(coarse, abs=2e-5)
        fine = oracles.sphere_integral_refined(f, n_theta=1 << 22, n_phi=64)
        assert got == pytest.approx(fine, abs=1e-8)

    def test_sample_weights_fold_pole(self):
        g = make_grid("dh", 4)
        w = dh_sample_weights(g)
        assert w.shape == (g.n_samples,)
        assert w[0] == 0.0  # pole ring carries zero weight


class TestCrossTheorem:
    def test_same_function_same_coefficients(self):
        rng = np.random.default_rng(12)
        x = random_coeffs(9, rng)
        a = dh_forward(dh_inverse(x)).values
        from equisphere.mw import mw_inverse

        b = mw_forward(mw_inverse(x)).values
        assert np.abs(a - x.values).max() < 1e-10
        assert np.abs(b - x.values).max() < 1e-10
