"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see per-criterion
status lines.  The experiment criterion (7) runs the full L = 32 sweep and
dominates the suite's runtime.
"""

import math
import time

import numpy as np
import pytest
from scipy.special import eval_legendre

from equisphere.dh import dh_forward, dh_integrate, dh_inverse, dh_weights
from equisphere.fileio import write_result_csv
from equisphere.inpaint import (
    ExperimentConfig,
    MeasurementOp,
    make_cap_signal,
    make_problem,
    run_experiment,
    snr,
    solve_harmonic,
    solve_spatial,
)
from equisphere.mw import mw_forward, mw_integrate, mw_inverse
from equisphere.samples import (
    GridKind,
    SphereSignal,
    make_grid,
    random_coeffs,
    sample_count,
    theta_nodes,
)
from equisphere.tv import GradientField, gradient_adjoint, tv_gradient, tv_norm

import oracles

# experiment signal: continent-style caps, sharp enough to keep the
# gradient support sparse at the L = 32 grid scale
EXPERIMENT_CAPS = ((1.3, 1.0, 1.25, 1.0), (2.3, 4.4, 0.5, 0.7), (0.7, 3.0, 0.4, -0.5))
EXPERIMENT_SMOOTHING = 0.8 / 32
EXPERIMENT_SEED = 42


def _report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} {detail}".rstrip())
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_transform_exactness():
    t0 = time.monotonic()
    worst = 0.0
    for L in (1, 2, 4, 8, 16, 32, 64, 128):
        rng = np.random.default_rng(1000 + L)
        for _ in range(20):
            x = random_coeffs(L, rng)
            err_dh = np.abs(dh_forward(dh_inverse(x)).values - x.values).max()
            err_mw = np.abs(mw_forward(mw_inverse(x)).values - x.values).max()
            worst = max(worst, err_dh, err_mw)
    elapsed = time.monotonic() - t0
    _report(
        "1 (round-trip exactness)",
        worst < 1e-9 and elapsed < 120.0,
        f"max abs error {worst:.3e}, {elapsed:.1f}s",
    )


def test_criterion_2_sample_counts():
    ok = sample_count(GridKind.DH, 32) == 4033
    ok &= sample_count(GridKind.MW, 32) == 1954
    ratios = [
        sample_count(GridKind.MW, L) / sample_count(GridKind.DH, L)
        for L in range(3, 257)
    ]
    ok &= all(r < 0.5 for r in ratios)
    _report("2 (sample counts)", bool(ok), f"max ratio {max(ratios):.4f}")


def test_criterion_3_dh_implicit_weight_condition():
    worst = 0.0
    for L in range(1, 65):
        q = dh_weights(L)
        x = np.cos(theta_nodes(make_grid("dh", L)))
        for el in range(2 * L):
            val = float(q @ eval_legendre(el, x))
            expect = 2 * np.pi / L if el == 0 else 0.0
            worst = max(worst, abs(val - expect))
    _report("3 (DH implicit weights)", worst < 1e-10, f"max abs error {worst:.3e}")


def test_criterion_4_mw_quadrature_exactness():
    worst = 0.0
    for L in range(1, 65):
        rng = np.random.default_rng(2000 + L)
        for _ in range(20):
            x = random_coeffs(L, rng)
            sig = mw_inverse(x)
            err = abs(
                mw_integrate(sig) - math.sqrt(4 * math.pi) * complex(x.values[0])
            )
            worst = max(worst, err)
    const_err = 0.0
    for kind, integrate in (("dh", dh_integrate), ("mw", mw_integrate)):
        for L in (1, 2, 16, 64):
            g = make_grid(kind, L)
            val = integrate(SphereSignal(g, np.ones(g.n_samples)))
            const_err = max(const_err, abs(val - 4 * np.pi))
    _report(
        "4 (MW quadrature exactness)",
        worst < 1e-10 and const_err < 1e-10,
        f"band-limited {worst:.3e}, constant {const_err:.3e}",
    )


def test_criterion_5_tv_norm_oracle():
    g = make_grid("mw", 32)
    sig, coeffs = make_cap_signal(g)  # two-cap default signal
    continuous = oracles.continuous_tv_norm(32, coeffs.values, n=4096)
    discrete = tv_norm(SphereSignal(g, sig.values.real))
    rel = abs(discrete - continuous) / continuous
    _report(
        "5 (TV norm vs continuous oracle)",
        rel < 0.05,
        f"discrete {discrete:.6f}, oracle {continuous:.6f}, rel {rel:.4f}",
    )


def test_criterion_6_adjoint_identities():
    rng = np.random.default_rng(3000)
    worst = 0.0
    for kind in ("dh", "mw"):
        g = make_grid(kind, 8)
        for _ in range(100):
            x = rng.standard_normal(g.n_samples)
            u_t = rng.standard_normal((g.n_theta, g.n_phi))
            u_p = rng.standard_normal((g.n_theta, g.n_phi))
            gx = tv_gradient(SphereSignal(g, x))
            lhs = float((gx.d_theta.real * u_t).sum() + (gx.d_phi.real * u_p).sum())
            rhs = float(
                (x * gradient_adjoint(GradientField(g, u_t, u_p)).values.real).sum()
            )
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    for _ in range(100):
        n = int(rng.integers(10, 200))
        m = int(rng.integers(1, n + 1))
        op = MeasurementOp(rng.choice(n, m, replace=False), n)
        x = rng.standard_normal(n)
        y = rng.standard_normal(m)
        lhs = float(op.apply(x) @ y)
        rhs = float(x @ op.adjoint(y))
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    _report("6 (adjoint identities)", worst < 1e-12, f"max rel error {worst:.3e}")


@pytest.fixture(scope="module")
def experiment_results():
    config = ExperimentConfig(
        L=32,
        kinds=(GridKind.DH, GridKind.MW),
        domains=("spatial", "harmonic"),
        ratios=(0.25, 0.5, 1.0, 1.5, 2.0),
        trials=10,
        sigma_rel=0.01,
        seed=EXPERIMENT_SEED,
        max_iter=8000,
        tol=1e-6,
        caps=EXPERIMENT_CAPS,
        smoothing=EXPERIMENT_SMOOTHING,
    )
    t0 = time.monotonic()
    rows, manifest = run_experiment(config)
    return config, rows, manifest, time.monotonic() - t0


def test_criterion_7_reconstruction_orderings(experiment_results, tmp_path):
    config, rows, manifest, elapsed = experiment_results
    write_result_csv(tmp_path / "acceptance_experiment.csv", rows)
    cell = {(r.kind.value, r.domain, r.ratio): r for r in rows}
    checks = []

    mw_beats_dh = all(
        cell[("mw", d, rt)].mean_snr_db > cell[("dh", d, rt)].mean_snr_db
        for d in ("spatial", "harmonic")
        for rt in config.ratios
    )
    checks.append(("7a MW > DH at every ratio, both domains", mw_beats_dh))

    harmonic_ge_spatial = all(
        cell[(k, "harmonic", rt)].mean_snr_db >= cell[(k, "spatial", rt)].mean_snr_db
        for k in ("dh", "mw")
        for rt in config.ratios
    )
    checks.append(("7b harmonic >= spatial per kind", harmonic_ge_spatial))

    def monotone(kind, domain):
        cells = [cell[(kind, domain, rt)] for rt in config.ratios]
        sem = [c.std_snr_db / math.sqrt(config.trials) for c in cells]
        return all(
            cells[i + 1].mean_snr_db
            >= cells[i].mean_snr_db - (sem[i] + sem[i + 1])
            for i in range(len(cells) - 1)
        )

    mono = all(monotone(k, d) for k in ("dh", "mw") for d in ("spatial", "harmonic"))
    checks.append(("7c SNR non-decreasing in ratio up to error bars", mono))
    checks.append(("7 runtime < 60 min", elapsed < 3600.0))
    checks.append(("7 all cells solved", not manifest["failures"]))

    detail = "; ".join(f"{name}={'ok' if ok else 'FAIL'}" for name, ok in checks)
    for r in rows:
        print(
            f"    {r.kind.value:2s} {r.domain:8s} ratio {r.ratio:4.2f}: "
            f"{r.mean_snr_db:7.3f} +- {r.std_snr_db:6.3f} dB ({r.trials} trials)"
        )
    _report(
        "7 (reconstruction orderings)",
        all(ok for _, ok in checks),
        f"{detail}; wall {elapsed:.0f}s",
    )


def test_criterion_8_noiseless_complete_recovery():
    worst = 0.0
    for kind in ("dh", "mw"):
        g = make_grid(kind, 16)
        sig, _ = make_cap_signal(g)
        x_true = SphereSignal(g, sig.values.real.astype(complex))
        for domain, solver in (("spatial", solve_spatial), ("harmonic", solve_harmonic)):
            prob, _ = make_problem(x_true, g.n_samples / 256, 0.0, domain, 77)
            res = solver(prob)
            rel = float(
                np.linalg.norm(res.x_star.values - x_true.values)
                / np.linalg.norm(x_true.values)
            )
            worst = max(worst, rel)
    _report("8 (noiseless complete recovery)", worst < 1e-4, f"max rel error {worst:.3e}")


def test_criterion_9_experiment_determinism(tmp_path):
    config = ExperimentConfig(
        L=8,
        kinds=(GridKind.MW, GridKind.DH),
        domains=("spatial", "harmonic"),
        ratios=(0.5, 1.0),
        trials=2,
        sigma_rel=0.01,
        seed=5,
        max_iter=2500,
    )
    paths = []
    for run in range(2):
        rows, _ = run_experiment(config)
        path = tmp_path / f"run{run}.csv"
        write_result_csv(path, rows)
        paths.append(path)
    identical = paths[0].read_bytes() == paths[1].read_bytes()
    _report("9 (fixed-seed determinism)", identical, "byte-identical CSV")
