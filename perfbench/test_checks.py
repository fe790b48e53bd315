"""Each output check passes on a right output and fails on a wrong one.

    python3 -m pytest perfbench/test_checks.py -q
"""

import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402
from equisphere import dh, fileio, inpaint, mw, samples, tv  # noqa: E402

L = 8


def _inverse(kind):
    return dh.dh_inverse if kind == "dh" else mw.mw_inverse


def _forward(kind):
    return dh.dh_forward if kind == "dh" else mw.mw_forward


@pytest.fixture
def coeffs():
    return samples.random_coeffs(L, np.random.default_rng(3))


def _bumped(values, index=0, by=1e-3):
    out = np.array(values, dtype=complex)
    out[index] += by
    return out


@pytest.mark.parametrize("kind", ["dh", "mw"])
def test_node_layout_matches_the_package(kind):
    grid = samples.make_grid(kind, L)
    theta, phi = samples.node_angles(grid)
    n_theta, n_phi = checks.grid_shape(kind, L)
    assert (n_theta, n_phi) == (grid.n_theta, grid.n_phi)
    for t in range(n_theta):
        for p in range(n_phi):
            th, ph, i = checks.node(kind, L, t, p)
            assert th == pytest.approx(theta[i])
            pole = (t == 0) if kind == "dh" else (t == L - 1)
            if not pole:
                assert ph == pytest.approx(phi[i])


@pytest.mark.parametrize("kind", ["dh", "mw"])
def test_roundtrip(kind, coeffs):
    back = _forward(kind)(_inverse(kind)(coeffs)).values
    checks.roundtrip(coeffs.values, back)
    with pytest.raises(CheckFailed):
        checks.roundtrip(coeffs.values, _bumped(back, index=5))


@pytest.mark.parametrize("kind", ["dh", "mw"])
def test_direct_sum(kind, coeffs):
    signal = _inverse(kind)(coeffs).values
    checks.direct_sum(kind, L, coeffs.values, signal, np.random.default_rng(0), n_nodes=4)
    # Y_00 is constant, so a wrong f_00 moves every sample
    wrong = _inverse(kind)(samples.HarmonicCoeffs(L, _bumped(coeffs.values))).values
    with pytest.raises(CheckFailed):
        checks.direct_sum(kind, L, coeffs.values, wrong, np.random.default_rng(0))


def test_integral(coeffs):
    signal = dh.dh_inverse(coeffs)
    value = dh.dh_integrate(signal)
    checks.integral(value, coeffs.values[0], signal.values)
    with pytest.raises(CheckFailed):
        checks.integral(value + 1e-6, coeffs.values[0], signal.values)


def test_snr_db():
    x = np.ones(4)
    assert checks.snr_db(x, x) == math.inf
    assert checks.snr_db(x, 0.9 * x) == pytest.approx(20.0)


@pytest.fixture(scope="module")
def noisy_solve():
    grid = samples.make_grid("mw", L)
    signal, _ = inpaint.make_cap_signal(grid)
    x_true = samples.SphereSignal(grid, signal.values.real.astype(complex))
    problem, record = inpaint.make_problem(x_true, 1.0, 0.01, "harmonic", 5)
    return x_true, problem, record, inpaint.solve_harmonic(problem)


def test_residual(noisy_solve):
    _, problem, record, result = noisy_solve
    checks.residual(problem.y, result.x_star.values, record.mask, problem.epsilon)
    infeasible = np.zeros(problem.op.n)
    with pytest.raises(CheckFailed):
        checks.residual(problem.y, infeasible, record.mask, problem.epsilon)


def test_tv_not_above_truth(noisy_solve):
    x_true, problem, record, result = noisy_solve
    tv_true = tv.tv_norm(x_true)
    tv_hat = tv.tv_norm(result.x_star)
    checks.tv_not_above_truth(tv_hat, tv_true, 0.0, problem.epsilon)
    with pytest.raises(CheckFailed):
        checks.tv_not_above_truth(1.01 * tv_true, tv_true, 0.0, problem.epsilon)
    # an infeasible truth promises nothing
    checks.tv_not_above_truth(1.01 * tv_true, tv_true, 2 * problem.epsilon, problem.epsilon)


def test_band_limited(noisy_solve):
    _, _, _, result = noisy_solve
    x = result.x_star
    checks.band_limited(x.values, mw.mw_inverse(mw.mw_forward(x)).values, "round trip")
    checks.band_limited(x.values, mw.mw_inverse(result.x_hat_star).values, "synthesis")
    spiked = samples.SphereSignal(x.grid, _bumped(x.values, index=7, by=0.1))
    with pytest.raises(CheckFailed):
        checks.band_limited(spiked.values, mw.mw_inverse(mw.mw_forward(spiked)).values, "spike")


def test_exact_fit():
    y = np.array([1.0, 2.0, 3.0])
    x = np.array([1.0, 0.0, 2.0, 3.0])
    mask = np.array([0, 2, 3])
    checks.exact_fit(y, x, mask)
    with pytest.raises(CheckFailed):
        checks.exact_fit(y, x + 1e-6, mask)


def test_exit_ok():
    checks.exit_ok(0, ["forward"])
    with pytest.raises(CheckFailed):
        checks.exit_ok(2, ["forward", "--in", "missing"])


def test_matches(coeffs):
    checks.matches(coeffs.values, coeffs.values.copy(), "same")
    with pytest.raises(CheckFailed):
        checks.matches(_bumped(coeffs.values, by=1e-7), coeffs.values, "perturbed")


def test_tv_agrees():
    checks.tv_agrees(7.5, 7.5, "same")
    with pytest.raises(CheckFailed):
        checks.tv_agrees(7.5, 7.5 + 1e-9, "different")
    with pytest.raises(CheckFailed):
        checks.tv_agrees(math.nan, math.nan, "nan")


@pytest.mark.parametrize("binary", [False, True])
def test_load_values_reads_package_files(tmp_path, coeffs, binary):
    signal = mw.mw_inverse(coeffs)
    fileio.write_signal(tmp_path / "s", signal, binary=binary)
    fileio.write_coeffs(tmp_path / "c", coeffs, binary=binary)
    np.testing.assert_array_equal(checks.load_values(tmp_path / "s"), signal.values)
    np.testing.assert_array_equal(checks.load_values(tmp_path / "c"), coeffs.values)


def test_tracer_records_nested_spans_and_restores(coeffs):
    original = dh.dh_forward
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.op = "r1:0"
        dh.dh_forward(dh.dh_inverse(coeffs))
        with tracer.paused():
            dh.dh_forward(dh.dh_inverse(coeffs))
    finally:
        tracer.uninstall()
    assert dh.dh_forward is original
    names = [s.name for s in tracer.spans]
    assert names.count("dh.forward") == 1 and names.count("dh.inverse") == 1
    fwd = next(s for s in tracer.spans if s.name == "dh.forward")
    children = [s for s in tracer.spans if s.parent is fwd]
    assert [c.name for c in children] == ["wigner.legendre_tables"]
    assert 0.0 <= fwd.self_seconds <= fwd.seconds
    metrics = run.labelled(spans.layer_metrics(tracer, "r1:", 0.0), "per_layer")
    assert metrics["wigner.legendre_tables_calls"]["value"] == 2


def test_end_to_end_names_match_benchmark_json():
    ops = [workloads.Op("dh", "a", 0.5, snr_db=20.0), workloads.Op("dh", "b", 0.25),
           workloads.Op("mw", "c", 0.25), workloads.Op("mw", "d", 9.0, failed=True)]
    metrics = run.labelled(run.end_to_end(ops, 1.5), "end_to_end")
    assert metrics["dh_op_ms"] == {"value": 375.0, "unit": "ms"}
    assert metrics["mw_op_ms"]["value"] == 250.0
    assert metrics["dh_snr_db"]["value"] == 20.0
    assert metrics["ops_per_s"]["value"] == pytest.approx(3 / 1.0)


def test_absent_wrapped_name_is_reported(monkeypatch):
    monkeypatch.setattr(spans, "WRAPPED", spans.WRAPPED + (("equisphere.inpaint", "no_such_name", "x"),))
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["equisphere.inpaint.no_such_name"]


def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "transforms", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
