import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from equisphere.inpaint import (
    DEFAULT_CAPS,
    ExperimentConfig,
    MeasurementOp,
    SolveDomain,
    SolverError,
    _STEP_SAFETY,
    _steps,
    _subspace_basis,
    make_cap_signal,
    make_problem,
    run_experiment,
    snr,
    solve_harmonic,
    solve_spatial,
)
from equisphere.mw import mw_forward
from equisphere.samples import (
    GridKind,
    HarmonicCoeffs,
    SphereSignal,
    conjugate_pairs,
    flat_index,
    make_grid,
    random_coeffs,
)
from equisphere.transforms import inverse
from equisphere.tv import _row_scales, tv_apply_raw, tv_norm

import oracles


def _real_cap_signal(kind="mw", L=16, **kwargs):
    g = make_grid(kind, L)
    sig, coeffs = make_cap_signal(g, **kwargs)
    return SphereSignal(g, sig.values.real.astype(complex)), coeffs


class TestCapSignal:
    def test_zero_caps(self):
        sig, coeffs = make_cap_signal(make_grid("mw", 8), caps=())
        assert np.abs(sig.values).max() == 0.0
        assert np.abs(coeffs.values).max() == 0.0

    def test_polar_cap_is_axisymmetric(self):
        sig, coeffs = make_cap_signal(
            make_grid("mw", 8), caps=((0.0, 0.0, 0.7, 1.0),)
        )
        nonzero = np.abs(coeffs.values) > 1e-14
        for el in range(8):
            for m in range(-el, el + 1):
                if m != 0:
                    assert not nonzero[flat_index(el, m)]

    def test_consistent_under_transform(self):
        for kind in ("dh", "mw"):
            sig, coeffs = make_cap_signal(make_grid(kind, 12))
            if kind == "mw":
                back = mw_forward(sig)
            else:
                from equisphere.dh import dh_forward

                back = dh_forward(sig)
            assert np.abs(back.values - coeffs.values).max() < 1e-9

    def test_signal_is_real(self):
        sig, _ = make_cap_signal(make_grid("dh", 10))
        assert np.abs(sig.values.imag).max() < 1e-12

    def test_rejects_tiny_bandlimit(self):
        with pytest.raises(ValueError):
            make_cap_signal(make_grid("mw", 1))

    @pytest.mark.parametrize("kind", ["dh", "mw"])
    @pytest.mark.parametrize(
        "caps, smoothing",
        # the default caps, and the acceptance experiment's caps and smoothing
        [(DEFAULT_CAPS, None),
         (((1.3, 1.0, 1.25, 1.0), (2.3, 4.4, 0.5, 0.7), (0.7, 3.0, 0.4, -0.5)), 0.8 / 32)],
    )
    def test_coefficients_match_closed_form(self, kind, caps, smoothing):
        L = 12
        s = 2.5 / L if smoothing is None else smoothing
        expect = np.zeros(L * L, dtype=complex)
        for theta, phi, radius, amp in caps:
            x0 = math.cos(radius)
            for el in range(L):
                # 2 pi int_{x0}^1 Y_l0 dx, as (2l+1) P_l = (P_{l+1} - P_{l-1})'
                p = (1.0 if el == 0 else oracles.legendre(el - 1, 0, x0)) - oracles.legendre(el + 1, 0, x0)
                c = amp * math.sqrt(math.pi / (2 * el + 1)) * p
                c *= math.sqrt(4 * math.pi / (2 * el + 1)) * math.exp(-el * (el + 1) * s * s / 2)
                for m in range(-el, el + 1):
                    expect[flat_index(el, m)] += c * np.conj(oracles.ylm(el, m, theta, phi))
        _, coeffs = make_cap_signal(make_grid(kind, L), caps, smoothing)
        assert np.abs(coeffs.values - expect).max() < 1e-13


class TestMeasurementOp:
    def test_apply_and_adjoint(self):
        op = MeasurementOp(np.array([4, 1, 7]), 10)
        x = np.arange(10.0)
        assert np.array_equal(op.apply(x), [1.0, 4.0, 7.0])  # sorted indices
        y = np.array([2.0, -1.0, 0.5])
        back = op.adjoint(y)
        assert back[1] == 2.0 and back[4] == -1.0 and back[7] == 0.5
        assert np.count_nonzero(back) == 3

    def test_adjoint_dot_identity(self):
        rng = np.random.default_rng(40)
        for _ in range(100):
            n = int(rng.integers(5, 60))
            m = int(rng.integers(1, n + 1))
            op = MeasurementOp(rng.choice(n, m, replace=False), n)
            x = rng.standard_normal(n)
            y = rng.standard_normal(m)
            assert np.vdot(op.apply(x), y) == pytest.approx(
                np.vdot(x, op.adjoint(y)), rel=1e-12, abs=1e-13
            )

    def test_validation(self):
        with pytest.raises(ValueError):
            MeasurementOp(np.array([0, 0]), 5)
        with pytest.raises(ValueError):
            MeasurementOp(np.array([5]), 5)


class TestMakeProblem:
    def test_complete_noiseless(self):
        x_true, _ = _real_cap_signal(L=8)
        n = x_true.grid.n_samples
        prob, rec = make_problem(x_true, n / 64, 0.0, "spatial", 1)
        assert prob.op.m == n
        assert prob.epsilon == 0.0
        assert np.array_equal(np.sort(rec.mask), np.arange(n))
        assert np.array_equal(prob.y, x_true.values.real[prob.op.indices])

    def test_paper_shape_counts(self):
        x_true, _ = _real_cap_signal("mw", 32)
        prob, _ = make_problem(x_true, 0.5, 0.01, "harmonic", 3)
        assert prob.op.m == 512
        assert prob.op.n == 1954

    def test_determinism(self):
        x_true, _ = _real_cap_signal(L=8)
        a, ra = make_problem(x_true, 0.5, 0.02, "spatial", 99)
        b, rb = make_problem(x_true, 0.5, 0.02, "spatial", 99)
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.op.indices, b.op.indices)
        assert np.array_equal(ra.noise, rb.noise)

    def test_epsilon_rule(self):
        x_true, _ = _real_cap_signal(L=8)
        prob, _ = make_problem(x_true, 1.0, 0.05, "spatial", 5)
        m = prob.op.m
        sigma = 0.05 * float(np.abs(x_true.values.real).max())
        assert prob.sigma == pytest.approx(sigma)
        assert prob.epsilon == pytest.approx(sigma * math.sqrt(m + 2 * math.sqrt(2 * m)))

    def test_ratio_bounds(self):
        x_true, _ = _real_cap_signal(L=8)
        with pytest.raises(ValueError):
            make_problem(x_true, 0.0, 0.01, "spatial", 1)
        with pytest.raises(ValueError):
            make_problem(x_true, 100.0, 0.01, "spatial", 1)

    @pytest.mark.parametrize(
        "name, ratio, sigma_rel",
        [
            ("ratio", math.inf, 0.01),
            ("ratio", math.nan, 0.01),
            ("ratio", -0.5, 0.01),
            ("sigma_rel", 0.5, -1.0),
            ("sigma_rel", 0.5, math.nan),
            ("sigma_rel", 0.5, math.inf),
        ],
    )
    def test_rejects_bad_ratio_or_noise_level(self, name, ratio, sigma_rel):
        x_true, _ = _real_cap_signal(L=8)
        with pytest.raises(ValueError, match=f"^{name} must be"):
            make_problem(x_true, ratio, sigma_rel, "spatial", 1)

    @pytest.mark.parametrize(
        "name, sigma, epsilon",
        [
            ("epsilon", 0.1, math.nan),
            ("epsilon", 0.1, math.inf),
            ("sigma", math.nan, 0.5),
            ("sigma", math.inf, 0.5),
            ("sigma", -1.0, 0.5),
        ],
    )
    def test_problem_rejects_bad_sigma_or_epsilon(self, name, sigma, epsilon):
        # built directly, as make_problem never yields these; with all-zero
        # measurements a NaN bound used to reach the solver's ball projection
        from equisphere.inpaint import InpaintProblem

        g = make_grid("mw", 4)
        op = MeasurementOp(np.arange(3), g.n_samples)
        with pytest.raises(ValueError, match=f"^{name} must be"):
            InpaintProblem(np.zeros(3), op, sigma, epsilon, "spatial", g)

    def test_rejects_non_finite_signal(self):
        g = make_grid("mw", 8)
        vals = np.zeros(g.n_samples, dtype=complex)
        vals[3] = math.nan
        with pytest.raises(ValueError, match="non-finite"):
            make_problem(SphereSignal(g, vals), 0.5, 0.01, "spatial", 1)

    def test_rejects_complex_signal(self):
        g = make_grid("mw", 8)
        vals = np.zeros(g.n_samples, dtype=complex)
        vals[3] = 1j
        with pytest.raises(ValueError):
            make_problem(SphereSignal(g, vals), 0.5, 0.0, "spatial", 1)


class TestRealParameterization:
    def test_synthesis_matrix_matches_complex(self):
        rng = np.random.default_rng(42)
        g = make_grid("mw", 7)
        coeffs = random_coeffs(7, rng, real_signal=True)
        from equisphere.mw import mw_inverse

        direct = mw_inverse(coeffs).values.real
        zero, pos, neg, _ = conjugate_pairs(7)
        z = np.empty(49)
        z[zero] = coeffs.values[zero].real
        z[pos] = coeffs.values[pos].real
        z[neg] = coeffs.values[pos].imag
        via_real = oracles.real_synthesis_matrix(g) @ z
        assert np.abs(direct - via_real).max() < 1e-11


class TestPackingMatchesLoops:
    @pytest.mark.parametrize("L", [1, 2, 9])
    def test_random_coeffs(self, L):
        for real in (False, True):
            got = random_coeffs(L, np.random.default_rng(L), real_signal=real).values
            expect = oracles.random_coeffs_loop(L, np.random.default_rng(L), real)
            assert np.array_equal(got, expect)

    @pytest.mark.parametrize("kind", ["dh", "mw"])
    def test_real_synthesis_matrix(self, kind):
        g = make_grid(kind, 6)
        expect = oracles.real_synthesis_matrix_loop(6, oracles.ylm_matrix(g))
        assert np.array_equal(oracles.real_synthesis_matrix(g), expect)


class TestBandLimitProjector:
    """The per-order projector against the dense ``Q Q^T`` of the synthesis operator."""

    @pytest.mark.parametrize("kind", ["dh", "mw"])
    @pytest.mark.parametrize("L", range(1, 17))
    def test_matches_dense_reference(self, kind, L):
        g = make_grid(kind, L)
        q = np.linalg.qr(oracles.real_synthesis_matrix(g))[0]
        basis = _subspace_basis(g)
        eye = np.eye(g.n_samples)
        got = np.stack([basis.project(e) for e in eye], axis=1)
        ref = q @ q.T
        assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)

    @pytest.mark.parametrize("kind", ["dh", "mw"])
    @pytest.mark.parametrize("L", [1, 2, 9])
    def test_idempotent_and_self_adjoint(self, kind, L):
        g = make_grid(kind, L)
        project = _subspace_basis(g).project
        rng = np.random.default_rng(L)
        a, b = rng.standard_normal((2, g.n_samples))
        pa, pb = project(a), project(b)
        assert np.linalg.norm(project(pa) - pa) <= 1e-13 * np.linalg.norm(a)
        assert np.dot(pa, b) == pytest.approx(np.dot(a, pb), rel=1e-13, abs=1e-13)

    @pytest.mark.parametrize("kind", ["dh", "mw"])
    @pytest.mark.parametrize("L", [1, 2, 9, 16])
    def test_fixes_band_limited_signals(self, kind, L):
        coeffs = random_coeffs(L, np.random.default_rng(L), real_signal=True)
        x = inverse(kind, coeffs, L).values.real
        got = _subspace_basis(make_grid(kind, L)).project(x)
        assert np.linalg.norm(got - x) <= 1e-13 * np.linalg.norm(x)

    @pytest.mark.parametrize("kind", ["dh", "mw"])
    @pytest.mark.parametrize("L", [1, 2, 9, 16])
    def test_rows_are_orthonormal_and_match_lift(self, kind, L):
        g = make_grid(kind, L)
        basis = _subspace_basis(g)
        rows = basis.rows(np.arange(g.n_samples))
        assert rows.shape == (g.n_samples, L * L)
        assert np.abs(rows.T @ rows - np.eye(L * L)).max() <= 1e-13
        rng = np.random.default_rng(L)
        pole = g.pole_row * g.n_phi
        mask = np.union1d(rng.choice(g.n_samples, (g.n_samples + 1) // 2, replace=False), [pole])
        c = rng.standard_normal(L * L)
        lifted = basis.lift(c)
        assert np.abs(basis.rows(mask) @ c - lifted[mask]).max() <= 1e-13 * np.abs(c).sum()


class TestSteps:
    """The closed-form diagonal steps against a dense ``K = [W grad; Phi]``."""

    @staticmethod
    def _dense_k(g, mask):
        scales = _row_scales(g, None)
        eye = np.eye(g.n_samples)
        tv_rows = np.stack([tv_apply_raw(g, scales, e).reshape(-1) for e in eye], axis=1)
        return np.vstack((tv_rows, eye[mask]))

    @pytest.mark.parametrize("kind", ["dh", "mw"])
    @pytest.mark.parametrize("L", [2, 3, 8])
    @pytest.mark.parametrize("pole_measured", [True, False])
    def test_steps_bound_the_preconditioned_norm(self, kind, L, pole_measured):
        g = make_grid(kind, L)
        pole = g.pole_row * g.n_phi
        rng = np.random.default_rng(L)
        mask = np.setdiff1d(rng.choice(g.n_samples, g.n_samples // 2, replace=False), [pole])
        if pole_measured:
            mask = np.union1d(mask, [pole])
        k = self._dense_k(g, mask)
        colsum = np.abs(k).sum(axis=0)

        sigma, tau = _steps(g, mask, harmonic=False)
        # tau is the safety factor over the column sum, and 0 on an empty
        # column, which only DH's unmeasured north pole is
        empty = colsum == 0
        pole_empty = kind == "dh" and not pole_measured
        assert np.array_equal(empty, (np.arange(g.n_samples) == pole) & pole_empty)
        assert np.all(tau[empty] == 0.0)
        assert np.allclose(tau[~empty] * colsum[~empty], _STEP_SAFETY, rtol=1e-13, atol=0)

        # one sigma per TV site on both of its rows, 1 on the measurement rows
        sigma_rows = np.concatenate((np.broadcast_to(sigma, (2, g.n_theta, g.n_phi)).reshape(-1),
                                     np.ones(mask.size)))
        assert np.all(np.abs(k).sum(axis=1) * sigma_rows <= 1.0 + 1e-13)

        # harmonic solves take the smallest step of a non-empty column
        tau_h = _steps(g, mask, harmonic=True)[1]
        assert tau_h == tau[~empty].min()
        for t in (tau, tau_h):
            pre = np.sqrt(sigma_rows)[:, None] * k * np.sqrt(t)
            norm = np.linalg.norm(pre, 2)
            assert norm < 1.0
            assert norm <= math.sqrt(_STEP_SAFETY) * (1.0 + 1e-12)  # Lemma 2's bound


class TestSnr:
    def test_examples(self):
        g = make_grid("mw", 4)
        x = SphereSignal(g, np.full(g.n_samples, 2.0))
        assert snr(x, x) == math.inf
        zero = SphereSignal(g, np.zeros(g.n_samples))
        assert snr(x, zero) == pytest.approx(0.0, abs=1e-12)
        with pytest.raises(ValueError):
            snr(zero, x)

    def test_twenty_db(self):
        g = make_grid("mw", 4)
        n = g.n_samples
        x = np.full(n, 10.0 / math.sqrt(n))
        err = np.zeros(n)
        err[0] = 1.0
        assert snr(SphereSignal(g, x), SphereSignal(g, x + err)) == pytest.approx(20.0)


class TestSolvers:
    @pytest.mark.parametrize("kind", ["dh", "mw"])
    @pytest.mark.parametrize("domain", ["spatial", "harmonic"])
    def test_noiseless_complete_recovery(self, kind, domain):
        x_true, coeffs = _real_cap_signal(kind, 16)
        n = x_true.grid.n_samples
        prob, _ = make_problem(x_true, n / 256, 0.0, domain, 7)
        solver = solve_spatial if domain == "spatial" else solve_harmonic
        res = solver(prob)
        rel = np.linalg.norm(res.x_star.values - x_true.values) / np.linalg.norm(
            x_true.values
        )
        assert rel < 1e-4
        if domain == "harmonic":
            crel = np.abs(res.x_hat_star.values - coeffs.values).max() / np.abs(
                coeffs.values
            ).max()
            assert crel < 1e-4

    @pytest.mark.parametrize("kind, ratio", [("dh", 1.0), ("mw", 1.0), ("mw", 0.9)])
    def test_noiseless_full_rank_masks(self, kind, ratio):
        # M close to L**2 leaves the masked basis rows square or nearly so,
        # and the exact-fit polish must still land on the constraint
        x_true, _ = _real_cap_signal(kind, 16)
        prob, _ = make_problem(x_true, ratio, 0.0, "harmonic", 77)
        res = solve_harmonic(prob)
        assert res.final_residual <= 1e-8 * max(1.0, np.linalg.norm(prob.y))
        x_star = res.x_star.values
        back = inverse(kind, res.x_hat_star, 16).values
        assert np.linalg.norm(back - x_star) <= 1e-8 * np.linalg.norm(x_star)
        if ratio == 1.0:
            rel = np.linalg.norm(x_star - x_true.values) / np.linalg.norm(x_true.values)
            assert rel < 1e-4

    @pytest.mark.parametrize("domain", ["harmonic", "spatial"])
    def test_noiseless_l32_returns(self, domain):
        # the stop rule fires on a noiseless L = 32 solve within the default
        # iteration budget, and the result lies on the constraint
        x_true, _ = _real_cap_signal("dh", 32)
        prob, _ = make_problem(x_true, 1.0, 0.0, domain, 77)
        solver = solve_spatial if domain == "spatial" else solve_harmonic
        res = solver(prob)
        assert res.final_residual <= 1e-8 * max(1.0, np.linalg.norm(prob.y))

    def test_retained_memory_is_one_basis_per_grid(self):
        # after a DH and an MW harmonic solve at L = 32 only their two
        # subspace bases stay allocated
        _subspace_basis.cache_clear()
        tracemalloc.start()
        try:
            for kind in ("dh", "mw"):
                x_true, _ = _real_cap_signal(kind, 32)
                prob, _ = make_problem(x_true, 0.5, 0.01, "harmonic", 3)
                try:
                    solve_harmonic(prob, max_iter=1)
                except SolverError:
                    pass
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained < 64e6

    def test_retained_memory_after_harmonic_solves_is_small(self):
        # the per-order bases of DH and MW at L = 32 take under 1 MB together
        _subspace_basis.cache_clear()
        tracemalloc.start()
        try:
            for kind in ("dh", "mw"):
                x_true, _ = _real_cap_signal(kind, 32)
                prob, _ = make_problem(x_true, 0.5, 0.01, "harmonic", 3)
                try:
                    solve_harmonic(prob, max_iter=1)
                except SolverError:
                    pass
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained < 4e6

    def test_harmonic_solves_at_l64_peak_small(self):
        # a dense N x L**2 basis would take 533 MB (DH) at this band-limit
        _subspace_basis.cache_clear()
        tracemalloc.start()
        try:
            for kind in ("dh", "mw"):
                x_true, _ = _real_cap_signal(kind, 64)
                prob, _ = make_problem(x_true, 0.5, 0.01, "harmonic", 3)
                try:
                    solve_harmonic(prob, max_iter=20)
                except SolverError:
                    pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64e6

    def test_zero_measurements_give_zero(self):
        g = make_grid("mw", 8)
        x_true = SphereSignal(g, np.zeros(g.n_samples))
        from equisphere.inpaint import InpaintProblem

        op = MeasurementOp(np.arange(20), g.n_samples)
        prob = InpaintProblem(np.zeros(20), op, 0.1, 0.5, "spatial", g)
        res = solve_spatial(prob)
        assert np.abs(res.x_star.values).max() < 1e-12
        assert res.final_objective == 0.0

    def test_feasibility_contract(self):
        x_true, _ = _real_cap_signal("dh", 8)
        prob, _ = make_problem(x_true, 0.5, 0.02, "harmonic", 13)
        res = solve_harmonic(prob)
        assert res.final_residual <= prob.epsilon * (1 + 1e-3)
        assert res.iterations >= 1
        assert len(res.objective_trace) == res.iterations

    def test_monotone_recorded_objective(self):
        # +inf entries mark iterations before the first feasible iterate;
        # after burn-in the finite tail must be non-increasing
        x_true, _ = _real_cap_signal("mw", 12)
        for domain, solver in (("spatial", solve_spatial), ("harmonic", solve_harmonic)):
            prob, _ = make_problem(x_true, 1.0, 0.01, domain, 17)
            res = solver(prob)
            trace = res.objective_trace[50:]
            finite = trace[np.isfinite(trace)]
            assert np.all(np.diff(finite) <= 1e-12)
            # infinities only ever precede the feasible phase
            first_finite = np.argmax(np.isfinite(trace))
            assert np.all(np.isfinite(trace[first_finite:]))

    def test_snr_improves_on_zero_fill(self):
        x_true, _ = _real_cap_signal("mw", 16)
        prob, _ = make_problem(x_true, 1.0, 0.01, "spatial", 11)
        res = solve_spatial(prob)
        zero_fill = SphereSignal(
            x_true.grid, prob.op.adjoint(prob.y).astype(complex)
        )
        assert snr(x_true, res.x_star) >= snr(x_true, zero_fill) + 10.0

    def test_harmonic_beats_spatial_on_shared_instance(self):
        x_true, _ = _real_cap_signal("mw", 16)
        seed = 23
        prob_s, _ = make_problem(x_true, 0.5, 0.01, "spatial", seed)
        prob_h, _ = make_problem(x_true, 0.5, 0.01, "harmonic", seed)
        assert np.array_equal(prob_s.y, prob_h.y)
        r_s = solve_spatial(prob_s)
        r_h = solve_harmonic(prob_h)
        assert snr(x_true, r_h.x_star) >= snr(x_true, r_s.x_star)

    def test_records_setup_and_loop_seconds(self):
        x_true, _ = _real_cap_signal("dh", 8)
        for domain, solver, sigma_rel in (
            ("spatial", solve_spatial, 0.01),
            ("harmonic", solve_harmonic, 0.01),
            ("harmonic", solve_harmonic, 0.0),  # with the polish factorisation
        ):
            prob, _ = make_problem(x_true, 1.0, sigma_rel, domain, 19)
            res = solver(prob)
            assert res.setup_seconds >= 0.0
            assert res.loop_seconds >= 0.0
            # the timings take no part in comparing results
            assert res == dataclasses.replace(res, setup_seconds=-1.0, loop_seconds=-1.0)

    def test_domain_guards(self):
        x_true, _ = _real_cap_signal("mw", 8)
        prob, _ = make_problem(x_true, 0.5, 0.01, "harmonic", 3)
        with pytest.raises(ValueError):
            solve_spatial(prob)

    def test_nonconvergence_carries_result(self):
        x_true, _ = _real_cap_signal("mw", 12)
        prob, _ = make_problem(x_true, 0.5, 0.01, "spatial", 5)
        with pytest.raises(SolverError) as exc:
            solve_spatial(prob, max_iter=3)
        assert exc.value.result is not None
        assert exc.value.result.iterations == 3


class TestRunExperiment:
    def test_small_grid_shape(self):
        cfg = ExperimentConfig(
            L=8,
            kinds=(GridKind.DH, GridKind.MW),
            domains=(SolveDomain.SPATIAL, SolveDomain.HARMONIC),
            ratios=(0.5, 1.0),
            trials=2,
            sigma_rel=0.01,
            seed=3,
            max_iter=2500,
        )
        rows, manifest = run_experiment(cfg)
        assert len(rows) == 8
        assert all(r.trials == 2 for r in rows)
        assert manifest["failures"] == []
        assert len(manifest["cells"]) == 4

    def test_determinism(self):
        cfg = ExperimentConfig(
            L=8, kinds=(GridKind.MW,), domains=(SolveDomain.SPATIAL,),
            ratios=(0.5,), trials=1, sigma_rel=0.01, seed=12, max_iter=2500,
        )
        rows_a, _ = run_experiment(cfg)
        rows_b, _ = run_experiment(cfg)
        assert rows_a == rows_b

    def test_ratio_clamped_to_complete_sampling(self):
        cfg = ExperimentConfig(
            L=8, kinds=(GridKind.MW,), domains=(SolveDomain.SPATIAL,),
            ratios=(4.0,), trials=1, sigma_rel=0.0, seed=1, max_iter=2500,
        )
        rows, manifest = run_experiment(cfg)
        n = make_grid("mw", 8).n_samples
        assert manifest["cells"][0]["measurements"] == n
        assert rows[0].mean_snr_db > 60  # noiseless complete sampling

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(ratios=()).validate()
        with pytest.raises(ValueError):
            ExperimentConfig(trials=0).validate()
        with pytest.raises(ValueError):
            ExperimentConfig(domains=("fourier",)).validate()
        for bad in (
            dict(ratios=(0.5, math.nan)),
            dict(ratios=(math.inf,)),
            dict(sigma_rel=math.nan),
            dict(sigma_rel=math.inf),
            dict(smoothing=math.nan),
            dict(smoothing=-math.inf),
            dict(tol=math.nan),
            dict(tol=math.inf),
            dict(tol=-1.0),
            dict(tol=0.0),
            dict(max_iter=0),
        ):
            with pytest.raises(ValueError):
                ExperimentConfig(**bad).validate()
        ExperimentConfig(max_iter=2).validate()


class TestCapSignalSparsity:
    def test_caps_sparser_than_random(self):
        # gradient sparsity holds against any equal-power random signal
        g = make_grid("mw", 32)
        sig, _ = make_cap_signal(g)
        from equisphere.mw import mw_inverse

        x = sig.values.real
        cap_tv = tv_norm(SphereSignal(g, x))
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            rand = mw_inverse(random_coeffs(32, rng, real_signal=True)).values.real
            rand = rand * (np.linalg.norm(x) / np.linalg.norm(rand))
            assert cap_tv < tv_norm(SphereSignal(g, rand))
