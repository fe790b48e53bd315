import math
import tracemalloc

import numpy as np
import pytest

from equisphere.dh import dh_forward, dh_inverse
from equisphere.mw import (
    _torus_spectrum,
    _weight_fn,
    mw_forward,
    mw_integrate,
    mw_inverse,
    mw_weights,
)
from equisphere.samples import (
    GridMismatchError,
    HarmonicCoeffs,
    SphereSignal,
    flat_index,
    make_grid,
    node_angles,
    random_coeffs,
    sample_count,
    sample_weights,
)

import oracles
from oracles import inverse_direct, ylm, ylm_matrix


def _w(mp: int) -> complex:
    return complex(_weight_fn(np.array([mp]))[0])


class TestWeights:
    def test_tabulated_values(self):
        assert _w(0) == 2.0
        assert _w(1) == pytest.approx(0.5j * np.pi)
        assert _w(-1) == pytest.approx(-0.5j * np.pi)
        assert _w(3) == 0.0
        assert _w(2) == pytest.approx(-2 / 3)

    def test_weight_integral_definition(self):
        # w(m') = int_0^pi sin(theta) e^{i m' theta} dtheta
        for mp in range(-8, 9):
            val = oracles.sphere_integral_refined(
                lambda th, ph: np.exp(1j * mp * th) + 0 * ph,
                n_theta=1 << 20, n_phi=4,
            ) / (2 * np.pi)
            assert _w(mp) == pytest.approx(val, abs=1e-10)

    def test_q_real_and_finite(self):
        for L in (1, 2, 3, 9, 64):
            q = mw_weights(L)
            assert q.dtype == np.float64 and q.shape == (L,)
            assert not q.flags.writeable
            assert np.all(np.isfinite(q))

    def test_constant_quadrature_sum(self):
        for L in (1, 2, 5, 17, 64):
            q = mw_weights(L)
            assert (2 * L - 1) * q.sum() == pytest.approx(4 * np.pi, abs=1e-10)

    def test_degenerate_bandlimit(self):
        assert mw_weights(1)[0] == pytest.approx(4 * np.pi, abs=1e-12)

    @pytest.mark.parametrize("L", [1, 2, 3, 33, 256, 1024])
    def test_fft_matches_dense_sum(self, L):
        q, expect = mw_weights(L), oracles.mw_weights_dense(L)
        assert np.abs(q - expect).max() <= 1e-14 * np.abs(expect).max()


class TestForward:
    def test_constant_signal(self):
        for L in (1, 4):
            g = make_grid("mw", L)
            c = -1.25 + 0.75j
            got = mw_forward(SphereSignal(g, np.full(g.n_samples, c)))
            assert got.values[0] == pytest.approx(c * math.sqrt(4 * math.pi), abs=1e-10)
            if L > 1:
                assert np.abs(got.values[1:]).max() < 1e-10

    def test_single_harmonic(self):
        g = make_grid("mw", 8)
        th, ph = node_angles(g)
        vals = np.array([ylm(3, 2, t, p) for t, p in zip(th, ph)])
        got = mw_forward(SphereSignal(g, vals))
        expect = np.zeros(64, dtype=complex)
        expect[flat_index(3, 2)] = 1.0
        assert np.abs(got.values - expect).max() < 1e-10

    def test_cross_check_against_dh(self):
        # same underlying function sampled on both grids
        rng = np.random.default_rng(20)
        x = random_coeffs(8, rng)
        via_mw = mw_forward(mw_inverse(x)).values
        via_dh = dh_forward(dh_inverse(x)).values
        assert np.abs(via_mw - via_dh).max() < 1e-10

    def test_degenerate_single_sample(self):
        g = make_grid("mw", 1)
        c = 3.25
        got = mw_forward(SphereSignal(g, np.array([c])))
        assert got.values[0] == pytest.approx(c * math.sqrt(4 * math.pi), abs=1e-12)
        assert mw_integrate(SphereSignal(g, np.array([1.0]))) == pytest.approx(
            4 * np.pi, abs=1e-12
        )

    def test_rejects_dh_signal(self):
        g = make_grid("dh", 4)
        with pytest.raises(GridMismatchError):
            mw_forward(SphereSignal(g, np.zeros(g.n_samples)))

    def test_forward_as_least_squares(self):
        # exact coefficients are also the least-squares solution against
        # the dense synthesis matrix (independent of the FFT chain)
        rng = np.random.default_rng(21)
        x = random_coeffs(6, rng)
        sig = mw_inverse(x)
        sol, *_ = np.linalg.lstsq(ylm_matrix(sig.grid), sig.values, rcond=None)
        assert np.abs(sol - x.values).max() < 1e-9
        assert np.abs(mw_forward(sig).values - sol).max() < 1e-9


class TestInverse:
    def test_zero_and_constant(self):
        sig = mw_inverse(HarmonicCoeffs.zeros(4))
        assert np.abs(sig.values).max() == 0.0
        vals = np.zeros(16, dtype=complex)
        vals[0] = math.sqrt(4 * math.pi)
        sig = mw_inverse(HarmonicCoeffs(4, vals))
        assert np.abs(sig.values - 1.0).max() < 1e-12

    @pytest.mark.parametrize("L", [1, 2, 4, 8, 16, 32, 64])
    def test_exact_roundtrip(self, L):
        rng = np.random.default_rng(100 + L)
        for _ in range(3):
            x = random_coeffs(L, rng)
            back = mw_forward(mw_inverse(x))
            assert np.abs(back.values - x.values).max() < 1e-9

    def test_matches_direct_synthesis(self):
        rng = np.random.default_rng(23)
        x = random_coeffs(9, rng)
        direct = inverse_direct(make_grid("mw", 9), x)
        assert np.abs(mw_inverse(x).values - direct.values).max() < 1e-11

    def test_bandlimit_mismatch(self):
        with pytest.raises(GridMismatchError):
            mw_inverse(HarmonicCoeffs.zeros(4), 3)


class TestIntegrate:
    def test_constant_and_zero_mean(self):
        g = make_grid("mw", 5)
        assert mw_integrate(SphereSignal(g, np.ones(g.n_samples))) == pytest.approx(
            4 * np.pi, abs=1e-10
        )
        th, ph = node_angles(g)
        vals = np.array([ylm(2, 0, t, p) for t, p in zip(th, ph)])
        assert abs(mw_integrate(SphereSignal(g, vals))) < 1e-10

    def test_equals_f00(self):
        rng = np.random.default_rng(24)
        x = random_coeffs(10, rng)
        sig = mw_inverse(x)
        assert mw_integrate(sig) == pytest.approx(
            complex(x.values[0]) * math.sqrt(4 * math.pi), abs=1e-10
        )

    def test_band_limited_square_against_oracles(self):
        # square of an L = 5 function, sampled at L = 9 where it is
        # band-limited, against dense numeric quadrature
        rng = np.random.default_rng(25)
        base = random_coeffs(5, rng, real_signal=True)
        g9 = make_grid("mw", 9)
        padded = np.zeros(81, dtype=complex)
        padded[:25] = base.values
        f5 = mw_inverse(HarmonicCoeffs(9, padded))
        sq = SphereSignal(g9, f5.values.real**2)
        got = mw_integrate(sq)

        def f(th, ph):
            vals = oracles.synthesize_grid(5, base.values, th.ravel(), ph.ravel())
            return vals.real**2

        coarse = oracles.sphere_integral_trapezoid(f, n_theta=2048, n_phi=64)
        assert got == pytest.approx(coarse, abs=2e-5)
        fine = oracles.sphere_integral_refined(f, n_theta=1 << 20, n_phi=64)
        assert got == pytest.approx(fine, abs=1e-8)

    def test_sample_weights_fold_pole(self):
        g = make_grid("mw", 3)
        q = mw_weights(3)
        w = sample_weights(g, q)
        assert w[-1] == pytest.approx(q[-1] * g.n_phi)
        assert w[0] == pytest.approx(q[0])


class TestInvariants:
    @pytest.mark.parametrize("L", [1, 2, 3, 5, 9, 17, 33, 64])
    def test_cross_theorem_agreement(self, L):
        rng = np.random.default_rng(200 + L)
        x = random_coeffs(L, rng)
        assert np.abs(dh_forward(dh_inverse(x)).values - x.values).max() < 1e-9
        assert np.abs(mw_forward(mw_inverse(x)).values - x.values).max() < 1e-9

    def test_sample_efficiency(self):
        for L in range(2, 129):
            assert sample_count("mw", L) < sample_count("dh", L) / 2 + 2

    def test_parseval_inner_product(self):
        # <f, g> via the quadrature at doubled band-limit equals the
        # coefficient inner product
        rng = np.random.default_rng(26)
        L = 8
        f = random_coeffs(L, rng)
        g = random_coeffs(L, rng)
        big = 2 * L
        fpad = np.zeros(big * big, dtype=complex)
        gpad = np.zeros(big * big, dtype=complex)
        fpad[: L * L] = f.values
        gpad[: L * L] = g.values
        fs = mw_inverse(HarmonicCoeffs(big, fpad))
        gs = mw_inverse(HarmonicCoeffs(big, gpad))
        prod = SphereSignal(fs.grid, fs.values * np.conj(gs.values))
        lhs = mw_integrate(prod)
        rhs = complex(np.vdot(g.values, f.values))  # sum f conj(g)
        assert lhs == pytest.approx(rhs, abs=1e-9)


class TestFoldedContraction:
    @pytest.mark.parametrize("L", [1, 2, 3, 8, 9])
    def test_inverse_matches_direct_synthesis(self, L):
        rng = np.random.default_rng(300 + L)
        x = random_coeffs(L, rng)
        direct = inverse_direct(make_grid("mw", L), x)
        assert np.abs(mw_inverse(x).values - direct.values).max() < 1e-12

    @pytest.mark.parametrize("L", [1, 2, 3, 8, 9])
    def test_forward_matches_unfolded_contraction(self, L):
        # an arbitrary, not band-limited, signal: the folding must hold for
        # any torus spectrum, not only for one with band-limited symmetry
        rng = np.random.default_rng(310 + L)
        g = make_grid("mw", L)
        sig = SphereSignal(
            g, rng.standard_normal(g.n_samples) + 1j * rng.standard_normal(g.n_samples)
        )
        expect = oracles.mw_delta_contraction_unfolded(_torus_spectrum(sig), L)
        assert np.abs(mw_forward(sig).values - expect).max() < 1e-12

    def test_roundtrip_at_512(self):
        rng = np.random.default_rng(512)
        x = random_coeffs(512, rng)
        assert np.abs(mw_forward(mw_inverse(x)).values - x.values).max() < 1e-9

    def test_roundtrip_memory_at_256(self):
        x = random_coeffs(256, np.random.default_rng(256))
        tracemalloc.start()
        try:
            back = mw_forward(mw_inverse(x))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.abs(back.values - x.values).max() < 1e-9
        assert peak < 64e6
