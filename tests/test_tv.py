import numpy as np
import pytest

from equisphere.dh import dh_weights
from equisphere.inpaint import make_cap_signal
from equisphere.mw import mw_inverse, mw_weights
from equisphere.samples import (
    GridMismatchError,
    HarmonicCoeffs,
    SphereSignal,
    make_grid,
    random_coeffs,
)
from equisphere.tv import (
    GradientField,
    _row_scales,
    gradient,
    gradient_adjoint,
    tv_adjoint_raw,
    tv_apply_raw,
    tv_gradient,
    tv_norm,
)

import oracles


def _axisymmetric_rows(grid, row_values):
    vals = np.empty(grid.n_samples, dtype=complex)
    for t in range(grid.n_theta):
        if t == (0 if grid.kind.value == "dh" else grid.L - 1):
            vals[0 if grid.kind.value == "dh" else -1] = row_values[t]
        else:
            start = (
                1 + (t - 1) * grid.n_phi if grid.kind.value == "dh" else t * grid.n_phi
            )
            vals[start : start + grid.n_phi] = row_values[t]
    return SphereSignal(grid, vals)


class TestGradient:
    @pytest.mark.parametrize("kind", ["dh", "mw"])
    def test_constant_signal(self, kind):
        g = make_grid(kind, 5)
        field = gradient(SphereSignal(g, np.full(g.n_samples, 3.3)))
        assert np.abs(field.d_theta).max() == 0.0
        assert np.abs(field.d_phi).max() == 0.0

    def test_phi_only_variation(self):
        g = make_grid("dh", 4)
        vals = np.zeros(g.n_samples, dtype=complex)
        phis = np.exp(1j * np.pi * np.arange(g.n_phi) / g.L)
        for t in range(1, g.n_theta):
            vals[1 + (t - 1) * g.n_phi : 1 + t * g.n_phi] = phis
        field = gradient(SphereSignal(g, vals))
        # equal theta-neighbors difference to zero everywhere off the pole
        assert np.abs(field.d_theta[1:-1]).max() < 1e-15

    def test_axisymmetric_ramp_on_mw(self):
        g = make_grid("mw", 4)
        sig = _axisymmetric_rows(g, np.arange(g.n_theta, dtype=float))
        field = gradient(sig)
        assert np.allclose(field.d_theta[:-1].real, 1.0)
        assert np.abs(field.d_theta[-1]).max() == 0.0
        assert np.abs(field.d_phi).max() == 0.0

    def test_field_shape_validation(self):
        g = make_grid("mw", 3)
        with pytest.raises(ValueError):
            GradientField(g, np.zeros((2, 2)), np.zeros((g.n_theta, g.n_phi)))


class TestTvNorm:
    @pytest.mark.parametrize("kind", ["dh", "mw"])
    def test_constant_is_zero(self, kind):
        g = make_grid(kind, 6)
        assert tv_norm(SphereSignal(g, np.full(g.n_samples, -2.0))) == 0.0

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(30)
        g = make_grid("mw", 6)
        x = rng.standard_normal(g.n_samples)
        base = tv_norm(SphereSignal(g, x))
        for a in (-3.0, 0.5, 7.25):
            assert tv_norm(SphereSignal(g, a * x)) == pytest.approx(
                abs(a) * base, rel=1e-12
            )

    def test_triangle_inequality(self):
        rng = np.random.default_rng(31)
        g = make_grid("dh", 5)
        for _ in range(20):
            x = rng.standard_normal(g.n_samples)
            y = rng.standard_normal(g.n_samples)
            assert tv_norm(SphereSignal(g, x + y)) <= tv_norm(
                SphereSignal(g, x)
            ) + tv_norm(SphereSignal(g, y)) + 1e-12

    def test_nonnegative_zero_only_for_constant(self):
        rng = np.random.default_rng(32)
        g = make_grid("mw", 5)
        for _ in range(10):
            x = rng.standard_normal(g.n_samples)
            assert tv_norm(SphereSignal(g, x)) > 0

    def test_weights_must_match(self):
        g = make_grid("mw", 4)
        sig = SphereSignal(g, np.zeros(g.n_samples))
        with pytest.raises(GridMismatchError):
            tv_norm(sig, dh_weights(4))
        with pytest.raises(GridMismatchError):
            tv_norm(sig, mw_weights(5))
        assert tv_norm(sig, mw_weights(4)) == 0.0

    @pytest.mark.parametrize(
        "bad, message",
        [(np.nan, "non-finite"), (np.inf, "non-finite"), (-np.inf, "non-finite"),
         (-0.25, "non-negative")],
    )
    def test_rejects_bad_raw_weights(self, bad, message):
        g = make_grid("mw", 4)
        sig = SphereSignal(g, np.arange(g.n_samples, dtype=float))
        q = mw_weights(4).q.copy()
        q[1] = bad
        with pytest.raises(ValueError, match=message):
            tv_norm(sig, q)
        with pytest.raises(ValueError, match=message):
            tv_gradient(sig, q)

    def test_rejects_non_finite(self):
        g = make_grid("mw", 3)
        vals = np.zeros(g.n_samples)
        vals[2] = np.inf
        with pytest.raises(ValueError):
            tv_norm(SphereSignal(g, vals))

    def test_complex_signal_splits_parts(self):
        rng = np.random.default_rng(33)
        g = make_grid("mw", 5)
        re = rng.standard_normal(g.n_samples)
        im = rng.standard_normal(g.n_samples)
        combined = tv_norm(SphereSignal(g, re + 1j * im))
        assert combined == pytest.approx(
            tv_norm(SphereSignal(g, re)) + tv_norm(SphereSignal(g, im)), rel=1e-12
        )

    def test_two_cap_signal_against_continuous_oracle(self):
        g = make_grid("mw", 32)
        sig, coeffs = make_cap_signal(g)
        discrete = tv_norm(SphereSignal(g, sig.values.real))
        continuous = oracles.continuous_tv_norm(32, coeffs.values, n=4096)
        assert abs(discrete - continuous) / continuous < 0.05

    def test_convergence_toward_continuous(self):
        # one fixed band-limited function, measured on MW grids built at
        # increasing band-limit: errors must shrink monotonically and sit
        # inside per-resolution tolerance bands (first-order stencil)
        base = make_cap_signal(make_grid("mw", 16), smoothing=1.2 / 16)[1]
        continuous = oracles.continuous_tv_norm(16, base.values, n=4096)
        errs = []
        for L in (16, 32, 64):
            padded = np.zeros(L * L, dtype=complex)
            padded[: 16 * 16] = base.values
            sig = mw_inverse(HarmonicCoeffs(L, padded))
            errs.append(abs(tv_norm(SphereSignal(sig.grid, sig.values.real)) - continuous))
        assert errs[0] > errs[1] > errs[2]
        for err, band in zip(errs, (0.08, 0.012, 0.002)):
            assert err < band * continuous

    def test_cap_signal_sparser_than_random(self):
        g = make_grid("mw", 32)
        sig, _ = make_cap_signal(g)
        x = sig.values.real
        rng = np.random.default_rng(35)
        rand = mw_inverse(random_coeffs(32, rng, real_signal=True)).values.real
        rand = rand * (np.linalg.norm(x) / np.linalg.norm(rand))
        assert tv_norm(SphereSignal(g, x)) < tv_norm(SphereSignal(g, rand))


class TestAdjoint:
    @pytest.mark.parametrize("kind", ["dh", "mw"])
    def test_dot_identity(self, kind):
        rng = np.random.default_rng(36)
        g = make_grid(kind, 8)
        for _ in range(50):
            x = rng.standard_normal(g.n_samples)
            u_t = rng.standard_normal((g.n_theta, g.n_phi))
            u_p = rng.standard_normal((g.n_theta, g.n_phi))
            gx = tv_gradient(SphereSignal(g, x))
            lhs = float((gx.d_theta.real * u_t).sum() + (gx.d_phi.real * u_p).sum())
            rhs = float(
                (x * gradient_adjoint(GradientField(g, u_t, u_p)).values.real).sum()
            )
            scale = max(1.0, abs(lhs))
            assert abs(lhs - rhs) < 1e-12 * scale

    def test_zero_field_maps_to_zero(self):
        g = make_grid("dh", 4)
        z = gradient_adjoint(
            GradientField(g, np.zeros((g.n_theta, g.n_phi)), np.zeros((g.n_theta, g.n_phi)))
        )
        assert np.abs(z.values).max() == 0.0

    def test_single_theta_entry_touches_two_samples(self):
        g = make_grid("mw", 4)
        u_t = np.zeros((g.n_theta, g.n_phi))
        u_t[1, 2] = 1.0
        out = gradient_adjoint(GradientField(g, u_t, np.zeros_like(u_t))).values
        nz = np.nonzero(np.abs(out) > 1e-15)[0]
        assert len(nz) == 2
        # transpose of the forward difference: -a at (1,2), +a at (2,2)
        q = mw_weights(4).q
        a = q[1] / (2 * np.pi / 7)
        assert out[1 * g.n_phi + 2].real == pytest.approx(-a)
        assert out[2 * g.n_phi + 2].real == pytest.approx(a)


def _same_bits(a, b):
    # stricter than np.array_equal: signed zeros must match as well
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(
        a.view(np.uint64), b.view(np.uint64)
    )


def _with_signed_zeros(rng, a):
    # about half the entries replaced by +0.0 or -0.0 at random
    zeros = np.where(rng.random(a.shape) < 0.5, 0.0, -0.0)
    return np.where(rng.random(a.shape) < 0.5, zeros, a)


class TestBufferedKernels:
    @pytest.mark.parametrize("kind", ["dh", "mw"])
    @pytest.mark.parametrize("L", [1, 2, 5, 32])
    def test_match_roll_kernels_exactly(self, kind, L):
        g = make_grid(kind, L)
        scales = _row_scales(g, None)
        a_theta, a_phi = scales[:, :, 0]
        shape = (2, g.n_theta, g.n_phi)
        spread = np.ascontiguousarray(np.broadcast_to(scales, shape))
        out, work, full = np.empty(shape), np.empty(shape), np.empty(shape[1:])
        back = np.empty(g.n_samples)
        rng = np.random.default_rng(40 + L)
        # one set of buffers across two different inputs; the second has
        # signed zeros, whose signs the kernels must reproduce
        for trial in range(2):
            x = rng.standard_normal(g.n_samples)
            u = rng.standard_normal(shape)
            if trial:
                x, u = _with_signed_zeros(rng, x), _with_signed_zeros(rng, u)
            u_before = u.copy()
            e_t, e_p = oracles.tv_apply_roll(g, a_theta, a_phi, x)
            e_back = oracles.tv_adjoint_roll(g, a_theta, a_phi, u[0], u[1])
            for sc in (scales, spread):
                got = tv_apply_raw(g, sc, x, out=out, full=full)
                assert got is out
                assert _same_bits(got[0], e_t) and _same_bits(got[1], e_p)
                got = tv_adjoint_raw(g, sc, u, out=back, work=work, full=full)
                assert got is back
                assert _same_bits(got, e_back)
                assert _same_bits(u, u_before)
            # without buffers, the kernels allocate their own
            got = tv_apply_raw(g, scales, x)
            assert _same_bits(got[0], e_t) and _same_bits(got[1], e_p)
            assert _same_bits(tv_adjoint_raw(g, scales, u), e_back)

    def test_rejects_unfit_buffers(self):
        g = make_grid("dh", 4)
        scales = _row_scales(g, None)
        shape = (2, g.n_theta, g.n_phi)
        x = np.zeros(g.n_samples)
        with pytest.raises(ValueError):
            tv_apply_raw(g, scales, x, out=np.empty((2, g.n_theta, g.n_phi + 1)))
        with pytest.raises(ValueError):
            tv_apply_raw(g, scales, x, full=np.empty((g.n_phi, g.n_theta)).T)
        with pytest.raises(ValueError):
            tv_apply_raw(g, scales, x + 1j, full=np.empty(shape[1:]))
        with pytest.raises(ValueError):
            tv_adjoint_raw(g, scales, np.zeros(shape), work=np.empty(shape[::-1]).T)
