"""The four workloads: inputs, set-up, one round of operations, checks.

Every call into the package goes through a module attribute
(``dh.dh_forward``, not a name bound at import), so the wrappers a traced
run installs see the benchmark's own calls as well as the package's.
Untraced rounds call only names that the repository's tests import.
"""

from __future__ import annotations

import math
import os
import shutil
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import equisphere.cli as cli
from equisphere import dh, inpaint, mw, samples, tv, wigner

import checks

# The acceptance experiment (criterion 7): cap signal, noise, solver
# settings and seed keys (seed, grid index, ratio index, trial).
EXPERIMENT_CAPS = ((1.3, 1.0, 1.25, 1.0), (2.3, 4.4, 0.5, 0.7), (0.7, 3.0, 0.4, -0.5))
EXPERIMENT_L = 32
EXPERIMENT_SMOOTHING = 0.8 / EXPERIMENT_L
EXPERIMENT_SEED = 42
EXPERIMENT_RATIOS = (0.25, 0.5, 1.0, 1.5, 2.0)
EXPERIMENT_TRIAL = 0
SIGMA_REL = 0.01
SOLVER = {"max_iter": 8000, "tol": 1e-6}

HARMONIC_RATIOS = (1.0, 2.0)
NOISELESS_L = 16
NOISELESS_SEED = 77

TRANSFORM_L = 256
CLI_L = 256
KINDS = ("dh", "mw")


@dataclass
class Op:
    """One timed operation; ``failed`` ones are left out of times and SNR."""

    grid: str
    label: str
    seconds: float = 0.0
    failed: bool = False
    snr_db: float | None = None


class Recorder:
    """Records operations and failed checks; holds the tracer of a traced run."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.ops: list[Op] = []
        self.failures: list[str] = []
        self.round = 0

    @contextmanager
    def op(self, grid: str, label: str):
        op = Op(grid, label)
        if self.tracer is not None:
            self.tracer.op = f"r{self.round}:{len(self.ops)}:{grid}:{label}"
        start = time.perf_counter()
        yield op
        op.seconds = time.perf_counter() - start
        self.ops.append(op)

    def untraced(self):
        return self.tracer.paused() if self.tracer is not None else nullcontext()

    @contextmanager
    def checking(self):
        """Run output checks untraced; a failed check is recorded."""
        with self.untraced():
            try:
                yield
            except checks.CheckFailed as err:
                self.failures.append(f"round {self.round}: {err}")


def _transforms(kind: str):
    if kind == "dh":
        return dh.dh_inverse, dh.dh_forward, dh.dh_integrate
    return mw.mw_inverse, mw.mw_forward, mw.mw_integrate


def _real(signal):
    return samples.SphereSignal(signal.grid, signal.values.real.astype(complex))


class Workload:
    """Inputs come from ``seed``; ``in_process`` is set for traced runs."""

    name = ""

    def __init__(self, seed: int, in_process: bool = False):
        self.seed = seed
        self.in_process = in_process

    def setup(self, recorder: Recorder) -> None:
        pass

    def run_round(self, recorder: Recorder) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass


class Transforms(Workload):
    """Warm DH and MW inverse+forward round trips at L = 256."""

    name = "transforms"
    pool_size = 4

    def setup(self, recorder: Recorder) -> None:
        rng = np.random.default_rng(self.seed)
        self.pool = [samples.random_coeffs(TRANSFORM_L, rng) for _ in range(self.pool_size)]
        self.node_rng = np.random.default_rng([self.seed, 1])
        for kind in KINDS:  # fills the Delta table and the FFT plans
            inverse, forward, _ = _transforms(kind)
            forward(inverse(self.pool[0]))

    def run_round(self, recorder: Recorder) -> None:
        coeffs = self.pool[recorder.round % self.pool_size]
        for kind in KINDS:
            inverse, forward, integrate = _transforms(kind)
            with recorder.op(kind, "roundtrip") as op:
                signal = inverse(coeffs)
                back = forward(signal)
            with recorder.checking():
                checks.roundtrip(coeffs.values, back.values)
                op.snr_db = checks.snr_db(coeffs.values, back.values)
                checks.integral(integrate(signal), coeffs.values[0], signal.values)
                if recorder.round == 0:
                    checks.direct_sum(kind, TRANSFORM_L, coeffs.values, signal.values,
                                      self.node_rng)


@dataclass
class Problem:
    ratio: float
    problem: object
    record: object
    x_true: object
    tv_true: float


def _experiment_problems(domain: str, ratios) -> list[Problem]:
    out = []
    for ki, kind in enumerate(KINDS):
        grid = samples.make_grid(kind, EXPERIMENT_L)
        signal, _ = inpaint.make_cap_signal(grid, EXPERIMENT_CAPS, EXPERIMENT_SMOOTHING)
        x_true = _real(signal)
        tv_true = tv.tv_norm(x_true)
        for ratio in ratios:
            ri = EXPERIMENT_RATIOS.index(ratio)
            ratio_eff = min(ratio, grid.n_samples / EXPERIMENT_L**2)
            key = (EXPERIMENT_SEED, ki, ri, EXPERIMENT_TRIAL)
            problem, record = inpaint.make_problem(
                x_true, ratio_eff, SIGMA_REL, domain, np.random.SeedSequence(key)
            )
            out.append(Problem(ratio, problem, record, x_true, tv_true))
    return out


def _check_noisy(recorder: Recorder, op: Op, p: Problem, result) -> None:
    with recorder.checking():
        x_hat = result.x_star.values.real
        checks.residual(p.problem.y, x_hat, p.record.mask, p.problem.epsilon)
        checks.tv_not_above_truth(
            tv.tv_norm(samples.SphereSignal(p.problem.grid, x_hat.astype(complex))),
            p.tv_true,
            float(np.linalg.norm(p.record.noise)),
            p.problem.epsilon,
        )
        op.snr_db = checks.snr_db(p.x_true.values.real, x_hat)


def _check_band_limited(signal, coeffs) -> None:
    """Forward/inverse leaves ``signal`` unchanged and ``coeffs`` make it."""
    inverse, forward, _ = _transforms(signal.grid.kind.value)
    checks.band_limited(signal.values, inverse(forward(signal)).values,
                        "x_star round trip")
    checks.band_limited(signal.values, inverse(coeffs).values,
                        "x_hat_star synthesis")


class SpatialSolves(Workload):
    """Noisy spatial TV inpainting at L = 32, both grids, ratios 0.25-2.0."""

    name = "spatial-solves"

    def setup(self, recorder: Recorder) -> None:
        self.problems = _experiment_problems(inpaint.SolveDomain.SPATIAL, EXPERIMENT_RATIOS)

    def run_round(self, recorder: Recorder) -> None:
        for p in self.problems:
            with recorder.op(p.problem.grid.kind.value, f"spatial {p.ratio}") as op:
                try:
                    result = inpaint.solve_spatial(p.problem, **SOLVER)
                except inpaint.SolverError:
                    op.failed = True
            if not op.failed:
                _check_noisy(recorder, op, p, result)


class HarmonicSolves(Workload):
    """Noisy harmonic solves at L = 32, plus noiseless M = L^2 ones at L = 16."""

    name = "harmonic-solves"

    def setup(self, recorder: Recorder) -> None:
        self.problems = _experiment_problems(inpaint.SolveDomain.HARMONIC, HARMONIC_RATIOS)
        self.noiseless = []
        for kind in KINDS:
            grid = samples.make_grid(kind, NOISELESS_L)
            signal, _ = inpaint.make_cap_signal(grid)
            problem, record = inpaint.make_problem(
                _real(signal), 1.0, 0.0, inpaint.SolveDomain.HARMONIC, NOISELESS_SEED
            )
            self.noiseless.append((problem, record))
        # One iteration per grid fills the per-grid synthesis matrix and its
        # factorisation; it cannot converge, so its SolverError is expected.
        warm = [p.problem for p in self.problems[:: len(HARMONIC_RATIOS)]]
        for problem in warm + [problem for problem, _ in self.noiseless]:
            try:
                inpaint.solve_harmonic(problem, max_iter=1)
            except inpaint.SolverError:
                pass

    def run_round(self, recorder: Recorder) -> None:
        for p in self.problems:
            with recorder.op(p.problem.grid.kind.value, f"harmonic {p.ratio}") as op:
                try:
                    result = inpaint.solve_harmonic(p.problem, **SOLVER)
                except inpaint.SolverError:
                    op.failed = True
            if not op.failed:
                _check_noisy(recorder, op, p, result)
                with recorder.checking():
                    _check_band_limited(result.x_star, result.x_hat_star)
        for problem, record in self.noiseless:
            with recorder.op(problem.grid.kind.value, "noiseless") as op:
                try:
                    result = inpaint.solve_harmonic(problem)
                except inpaint.SolverError:
                    op.failed = True
            if op.failed:
                continue
            # A returned solve succeeds only if it fits exactly and is
            # band-limited; otherwise it counts as failed, not as wrong.
            try:
                with recorder.untraced():
                    checks.exact_fit(problem.y, result.x_star.values, record.mask)
                    _check_band_limited(result.x_star, result.x_hat_star)
            except checks.CheckFailed:
                op.failed = True


def _random_caps(rng: np.random.Generator, n: int = 3) -> str:
    caps = []
    for _ in range(n):
        theta = rng.uniform(0.4, math.pi - 0.4)
        phi = rng.uniform(0.0, 2 * math.pi)
        radius = rng.uniform(0.3, 1.0)
        amp = float(rng.choice((-1.0, 1.0))) * rng.uniform(0.5, 1.0)
        caps.append(f"{theta!r},{phi!r},{radius!r},{amp!r}")
    return ";".join(caps)


class Cli(Workload):
    """make-signal -> forward -> inverse -> integrate -> tv-norm, L = 256.

    Each step is its own ``python -m equisphere.cli`` process.  A traced run
    calls ``equisphere.cli.main`` in-process instead, clearing the package's
    table caches before each call as a fresh process would find them.
    """

    name = "cli"

    def setup(self, recorder: Recorder) -> None:
        self.caps = _random_caps(np.random.default_rng(self.seed))
        root = Path(__file__).resolve().parent
        self.tmp = root / "out" / f"cli-{os.getpid()}"
        self.tmp.mkdir(parents=True, exist_ok=True)
        src = str(root.parent / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    def call(self, argv: list[str]) -> int:
        if not self.in_process:
            done = subprocess.run(
                [sys.executable, "-m", "equisphere.cli", *argv],
                env=self.env, cwd=self.tmp,
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            )
            return done.returncode
        for name in ("cached_delta_table", "cached_ylm_matrix"):
            clear = getattr(getattr(wigner, name, None), "cache_clear", None)
            if clear is not None:
                clear()
        return cli.main(argv)

    def startup_s(self, repeats: int = 3) -> float:
        """Interpreter start plus package import, from ``--help``."""
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-m", "equisphere.cli", "--help"],
                           env=self.env, cwd=self.tmp, stdout=subprocess.DEVNULL)
            times.append(time.perf_counter() - start)
        return float(np.median(times))

    def run_round(self, recorder: Recorder) -> None:
        forward = {}
        tv_norms = {}
        for binary in (False, True):
            for kind in KINDS:
                tag = f"{kind}{'-bin' if binary else ''}"
                f = {n: str(self.tmp / f"{n}.{tag}") for n in
                     ("signal", "coeffs", "forward", "inverse", "integral", "tv")}
                flag = ["--binary"] if binary else []
                steps = (
                    ("make-signal", ["make-signal", "--kind", kind, "-L", str(CLI_L),
                                     "--caps", self.caps, "--out", f["signal"],
                                     "--coeffs-out", f["coeffs"], *flag]),
                    ("forward", ["forward", "--in", f["signal"], "--out", f["forward"], *flag]),
                    ("inverse", ["inverse", "--in", f["forward"], "--kind", kind,
                                 "--out", f["inverse"], *flag]),
                    ("integrate", ["integrate", "--in", f["inverse"], "--out", f["integral"]]),
                    ("tv-norm", ["tv-norm", "--in", f["signal"], "--out", f["tv"]]),
                )
                ok = True
                ops = {}
                for label, argv in steps:
                    with recorder.op(kind, label) as op:
                        code = self.call(argv)
                    op.failed = code != 0
                    ops[label] = op
                    with recorder.checking():
                        checks.exit_ok(code, argv)
                    ok = ok and code == 0
                if not ok:
                    continue
                with recorder.checking():
                    closed_form = checks.load_values(f["coeffs"])
                    got = checks.load_values(f["forward"])
                    checks.matches(got, closed_form, f"{tag} forward vs make-signal coefficients")
                    ops["forward"].snr_db = checks.snr_db(closed_form, got)
                    signal = checks.load_values(f["signal"])
                    checks.matches(checks.load_values(f["inverse"]), signal,
                                   f"{tag} inverse vs make-signal samples")
                    re, _ = checks.read_pair(f["integral"])
                    checks.integral(re, closed_form[0].real, signal)
                    forward[tag] = got
                    with open(f["tv"]) as fh:
                        tv_norms[tag] = float(fh.read())
            with recorder.checking():
                suffix = "-bin" if binary else ""
                if f"dh{suffix}" in forward and f"mw{suffix}" in forward:
                    checks.matches(forward[f"dh{suffix}"], forward[f"mw{suffix}"],
                                   f"DH vs MW coefficients{suffix}")
        with recorder.checking():
            for kind in KINDS:
                if kind in tv_norms and f"{kind}-bin" in tv_norms:
                    checks.tv_agrees(tv_norms[kind], tv_norms[f"{kind}-bin"],
                                     f"{kind} CSV vs binary")


WORKLOADS = {w.name: w for w in (Transforms, SpatialSolves, HarmonicSolves, Cli)}
