"""TV-regularized inpainting on the sphere and the DH-vs-MW experiment.

Measurements follow ``y = Phi x + n`` with ``Phi`` a random masking of the
stored samples and ``n`` i.i.d. zero-mean Gaussian noise.  Recovery solves

    spatial:   min_x  ||x||_TV   s.t. ||y - Phi x||_2 <= eps
    harmonic:  min_z  ||Psi z||_TV  s.t. ||y - Phi Psi z||_2 <= eps

where ``Psi`` is the inverse spherical harmonic transform of the signal's
grid.  Both are handled by one first-order primal-dual scheme: the TV term
through its dual (a per-site disc projection) and the residual ball by
Euclidean projection, with the diagonal step sizes of Pock & Chambolle
2011 (Lemma 2), one per sample and per TV site, from closed-form sums of
the stacked operator's entries.  Each iteration runs one TV adjoint (the
primal step) and two TV applies (the dual step and the recorded objective) on
work arrays that are allocated once per solve and updated in place; the
TV dual is one stacked ``(2, n_theta, n_phi)`` array.  The whole pipeline
is real-valued.  Harmonic solves iterate in sample space inside the
band-limited subspace of real signals.  Both grids sample each ring at
``n_phi >= 2L - 1`` equispaced longitudes, so a real FFT along the rings
separates the orders ``m`` and the projection onto the subspace splits
into one small projection per order, onto a cached QR basis of that
order's Legendre profiles; no ``N x L**2`` matrix is formed.  The reported coefficients are the grid's
forward transform of the result.

The solver records, per iteration, the objective of the best feasible
iterate found so far (``+inf`` until one exists) and returns that iterate,
so the recorded objective sequence is non-increasing once feasibility is
reached.  Noiseless problems (``eps = 0``) are polished to exact
feasibility: spatial ones by reinserting the measurements, harmonic ones
by a least-squares correction inside the subspace, through the SVD of the
``M x L**2`` masked rows of its per-order orthonormal basis, lifted back
through the per-order synthesis.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .samples import (
    GridDescriptor,
    GridKind,
    GridMismatchError,
    HarmonicCoeffs,
    SphereSignal,
    checked_grid,
    contract_adjoint,
    theta_nodes,
)
from .transforms import forward, inverse
from .tv import _row_scales, _tv_total, tv_adjoint_raw, tv_apply_raw
from .wigner import norm_legendre_tables, ylm_points

__all__ = [
    "SolveDomain",
    "MeasurementOp",
    "InpaintProblem",
    "ProblemRecord",
    "SolveResult",
    "SolverError",
    "ExperimentConfig",
    "ExperimentCell",
    "DEFAULT_CAPS",
    "make_cap_signal",
    "make_problem",
    "solve_spatial",
    "solve_harmonic",
    "snr",
    "run_experiment",
]

_FEAS_RTOL = 1e-3  # relative slack on the residual constraint
_STALL_WINDOW = 10
_RELAX = 1.9
_STEP_SAFETY = 0.95  # the relaxed scheme needs the bound of _steps strictly below 1


class SolveDomain:
    SPATIAL = "spatial"
    HARMONIC = "harmonic"
    ALL = (SPATIAL, HARMONIC)


@dataclass(frozen=True)
class MeasurementOp:
    """Random masking operator: selection of ``m`` distinct sample indices."""

    indices: np.ndarray
    n: int

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        idx = np.sort(idx)
        if idx.size and (idx[0] < 0 or idx[-1] >= self.n):
            raise ValueError("mask indices out of range")
        if np.unique(idx).size != idx.size:
            raise ValueError("mask indices must be distinct")
        if idx.size > self.n:
            raise ValueError(f"cannot take {idx.size} measurements of {self.n} samples")
        idx.flags.writeable = False
        object.__setattr__(self, "indices", idx)

    @property
    def m(self) -> int:
        return int(self.indices.size)

    def apply(self, x: np.ndarray) -> np.ndarray:
        return x[self.indices]

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        out = np.zeros(self.n, dtype=y.dtype)
        out[self.indices] = y
        return out


@dataclass(frozen=True)
class InpaintProblem:
    """Measurements, noise level, residual bound, and solve domain."""

    y: np.ndarray
    op: MeasurementOp
    sigma: float
    epsilon: float
    domain: str
    grid: GridDescriptor

    def __post_init__(self):
        y = np.asarray(self.y, dtype=np.float64)
        if y.shape != (self.op.m,):
            raise ValueError(f"expected {self.op.m} measurements, got shape {y.shape}")
        if not np.all(np.isfinite(y)):
            raise ValueError("measurements contain non-finite values")
        for name in ("sigma", "epsilon"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and non-negative, got {value}")
        if self.domain not in SolveDomain.ALL:
            raise ValueError(f"unknown solve domain {self.domain!r}")
        if self.op.n != self.grid.n_samples:
            raise GridMismatchError("measurement operator does not match the grid")
        y = y.copy()
        y.flags.writeable = False
        object.__setattr__(self, "y", y)


@dataclass(frozen=True)
class ProblemRecord:
    """Ground truth bundled with the drawn mask and noise, for scoring."""

    x_true: SphereSignal
    mask: np.ndarray
    noise: np.ndarray
    seed: object


@dataclass(frozen=True)
class SolveResult:
    """Recovered signal plus solver diagnostics.

    ``x_hat_star`` is populated for harmonic-domain solves only.
    ``objective_trace[k]`` is the objective of the best feasible iterate
    after ``k + 1`` iterations (``+inf`` before feasibility is reached).
    ``setup_seconds`` is the wall time before the first iteration (step
    sizes, noiseless polish factorisation) and ``loop_seconds`` that of the
    iterations; neither takes part in comparisons.
    """

    x_star: SphereSignal
    x_hat_star: HarmonicCoeffs | None
    iterations: int
    final_objective: float
    final_residual: float
    objective_trace: np.ndarray
    setup_seconds: float = field(compare=False)
    loop_seconds: float = field(compare=False)


class SolverError(RuntimeError):
    """Solver failed to converge; carries the last iterate as ``result``."""

    def __init__(self, message: str, result: SolveResult | None = None):
        super().__init__(message)
        self.result = result


# default two-cap test signal: (theta, phi, radius, amplitude) per cap
DEFAULT_CAPS = ((1.05, 0.7, 0.85, 1.0), (2.2, 3.8, 0.55, 0.8))


def make_cap_signal(
    grid: GridDescriptor,
    caps=DEFAULT_CAPS,
    smoothing: float | None = None,
) -> tuple[SphereSignal, HarmonicCoeffs]:
    """Band-limited, gradient-sparse test signal built from spherical caps.

    Each cap is an indicator of angular radius ``radius`` centered at
    ``(theta, phi)`` with the given amplitude.  Cap coefficients are exact
    (closed-form axisymmetric profile rotated by the addition theorem),
    then low-passed in harmonic space by ``exp(-l (l+1) s**2 / 2)`` and
    truncated at the grid's band-limit.  The harmonics at all cap centres
    come from one Delta stream, so ``L <= 1024``, the limit of the final
    inverse transform too.

    Args:
        grid: Target grid; fixes both the band-limit and the sample layout.
        caps: Iterable of ``(theta, phi, radius, amplitude)`` tuples.
        smoothing: Smoothing scale ``s`` in radians; defaults to ``2.5 / L``.

    Returns:
        The synthesized samples and their harmonic coefficients (consistent
        under the grid's transform to rounding).
    """
    L = grid.L
    if L < 2:
        raise ValueError("cap signals need a band-limit of at least 2")
    s = 2.5 / L if smoothing is None else float(smoothing)
    theta_c, phi_c, radius, amp = np.array([tuple(c) for c in caps], dtype=np.float64).reshape(-1, 4).T
    x0 = np.cos(radius)
    # P_l(x0), l <= L, by Bonnet's recursion (l + 1) P_{l+1} = (2l + 1) x P_l - l P_{l-1}
    p = np.ones((L + 1, x0.size))
    p[1] = x0
    for el in range(1, L):
        p[el + 1] = ((2 * el + 1) * x0 * p[el] - el * p[el - 1]) / (el + 1)
    c = np.empty((L, x0.size))  # per degree and cap: the axisymmetric cap profile
    c[0] = math.sqrt(math.pi) * (1.0 - x0)
    c[1:] = np.sqrt(np.pi / (2 * np.arange(1, L) + 1))[:, None] * (p[: L - 1] - p[2:])
    ybar = np.conj(ylm_points(L, theta_c, phi_c))
    ell_of = np.floor(np.sqrt(np.arange(L * L))).astype(int)
    coeffs = (amp * c[ell_of] * ybar.T).sum(axis=1) * np.sqrt(4 * np.pi / (2 * ell_of + 1))
    coeffs *= np.exp(-ell_of * (ell_of + 1) * s * s / 2.0)
    hc = HarmonicCoeffs(L, coeffs)
    return inverse(grid.kind, hc, L), hc


def _real_values(signal: SphereSignal) -> np.ndarray:
    scale = max(1.0, float(np.abs(signal.values).max()))
    if np.abs(signal.values.imag).max() > 1e-9 * scale:
        raise ValueError("inpainting requires a real-valued signal")
    return signal.values.real.copy()


def make_problem(
    x_true: SphereSignal,
    ratio: float,
    sigma_rel: float,
    domain: str,
    seed,
) -> tuple[InpaintProblem, ProblemRecord]:
    """Draw a random inpainting problem from a ground-truth signal.

    ``M = round(ratio * L**2)`` mask indices are drawn uniformly without
    replacement; the noise is Gaussian with ``sigma = sigma_rel *
    max|x_true|`` and the residual bound uses the chi-square tail estimate
    ``eps**2 = sigma**2 (M + 2 sqrt(2 M))``.

    Args:
        x_true: Real-valued ground truth on its grid.
        ratio: Measurement ratio ``M / L**2``; must satisfy
            ``0 < ratio <= N / L**2``.
        sigma_rel: Noise level relative to the signal's peak magnitude;
            finite and non-negative.
        domain: ``"spatial"`` or ``"harmonic"``.
        seed: Anything accepted by ``numpy.random.default_rng``.

    Returns:
        The problem and a record holding the ground truth, mask, and noise.
    """
    grid = checked_grid(None, x_true)
    L, n = grid.L, grid.n_samples
    if not 0 < ratio < math.inf:
        raise ValueError(f"ratio must be finite and positive, got {ratio}")
    if not 0 <= sigma_rel < math.inf:
        raise ValueError(f"sigma_rel must be finite and non-negative, got {sigma_rel}")
    m = int(round(ratio * L * L))
    if m < 1 or m > n:
        raise ValueError(f"measurement count {m} outside [1, {n}]")
    xr = _real_values(x_true)
    rng = np.random.default_rng(seed)
    mask = np.sort(rng.choice(n, size=m, replace=False))
    sigma = float(sigma_rel) * float(np.abs(xr).max())
    noise = sigma * rng.standard_normal(m)
    y = xr[mask] + noise
    eps = sigma * math.sqrt(m + 2.0 * math.sqrt(2.0 * m))
    problem = InpaintProblem(y, MeasurementOp(mask, n), sigma, eps, domain, grid)
    return problem, ProblemRecord(x_true, mask, noise, seed)


def snr(x_true: SphereSignal, x_rec: SphereSignal) -> float:
    """Reconstruction SNR ``20 log10(||x_true|| / ||x_true - x_rec||)`` in dB.

    Returns ``+inf`` for an exact reconstruction; raises on zero truth.
    """
    if x_true.grid != x_rec.grid:
        raise GridMismatchError("signals live on different grids")
    ref = float(np.linalg.norm(x_true.values))
    if ref == 0.0:
        raise ValueError("SNR undefined for a zero reference signal")
    err = float(np.linalg.norm(x_true.values - x_rec.values))
    if err == 0.0:
        return math.inf
    return 20.0 * math.log10(ref / err)


def _steps(grid: GridDescriptor, mask: np.ndarray, harmonic: bool):
    # Diagonal steps of Pock & Chambolle 2011 (ICCV), Lemma 2 with alpha = 1,
    # for K = [W grad; Phi]: one over each row's and each column's |K| sum,
    # so ||Sigma^1/2 K T^1/2|| <= 1, with the sums in closed form.  A TV
    # site's two rows hold +-a_theta(t) and +-a_phi(t) and share the smaller
    # step, so the dual prox stays a disc projection; a measurement row holds
    # one 1 (sigma = 1).  A ring sample's column holds a_theta(t),
    # a_theta(t-1) and a_phi(t) twice, the pole slot the a_theta entries of
    # its ring, a measured sample one more 1.  An empty column (DH's
    # unmeasured north pole, of weight 0) gets tau = 0.  Harmonic solves take
    # the smallest tau as a scalar: a diagonal metric would break their
    # orthogonal projection.
    # Returns sigma per site as an (n_theta, 1) column, and tau.
    a_theta, a_phi = _row_scales(grid, None)[:, :, 0]
    site = np.maximum(a_theta, a_phi)
    sigma = np.divide(0.5, site, out=np.zeros_like(site), where=site > 0)[:, None]
    ring = a_theta + np.concatenate(([0.0], a_theta[:-1])) + 2.0 * a_phi
    colsum = contract_adjoint(grid, np.repeat(ring[:, None], grid.n_phi, axis=1))
    colsum[mask] += 1.0
    if harmonic:
        return sigma, _STEP_SAFETY / float(colsum.max())
    tau = np.divide(_STEP_SAFETY, colsum, out=np.zeros_like(colsum), where=colsum > 0)
    return sigma, tau


@dataclass(frozen=True)
class _OrderBases:
    """Orthonormal basis of a grid's band-limited real subspace, one order at a time.

    In orthonormal ring coordinates (``rfft / sqrt(n_phi)`` of each non-pole
    ring, times ``sqrt(2)`` for ``m > 0``; the pole sample joins ``m = 0``,
    since ``Y_lm`` vanishes there for ``m != 0``) the subspace is a direct
    sum over orders ``m < L``; orders ``m >= L`` (DH's Nyquist) are zero.
    ``q[m]`` is an orthonormal basis of order ``m``'s block, zero-padded to
    ``L`` columns; its last row is the pole.  The ``L**2`` basis vectors are
    the real and (for ``m > 0``) imaginary parts of each column of ``q[m]``.
    """

    grid: GridDescriptor
    q: np.ndarray  # (L, R + 1, L)

    def _to_orders(self, x: np.ndarray) -> np.ndarray:
        # stored samples -> orthonormal per-order coordinates, shape (L, R + 1, 2)
        g, L = self.grid, self.grid.L
        k = g.pole_row * g.n_phi
        rings = np.concatenate((x[:k], x[k + 1 :])).reshape(-1, g.n_phi)
        spec = np.fft.rfft(rings, axis=1, norm="ortho")[:, :L]
        spec[:, 1:] *= math.sqrt(2.0)
        c = np.zeros((L, rings.shape[0] + 1), dtype=np.complex128)
        c[:, :-1] = spec.T
        c[0, -1] = x[k]
        return c.view(np.float64).reshape(L, -1, 2)

    def _from_orders(self, c: np.ndarray) -> np.ndarray:
        # the adjoint of _to_orders, an isometry, and its inverse on the
        # coordinates _to_orders produces
        g, L = self.grid, self.grid.L
        k = g.pole_row * g.n_phi
        c = c.view(np.complex128)[..., 0]
        spec = np.zeros((c.shape[1] - 1, g.n_phi // 2 + 1), dtype=np.complex128)
        spec[:, :L] = c[:, :-1].T
        spec[:, 1:L] *= math.sqrt(0.5)
        rings = np.fft.irfft(spec, n=g.n_phi, axis=1, norm="ortho").reshape(-1)
        return np.concatenate((rings[:k], [c[0, -1].real], rings[k:]))

    def project(self, x: np.ndarray) -> np.ndarray:
        """Orthogonal projection of stored samples onto the subspace."""
        c = self._to_orders(x)
        return self._from_orders(self.q @ (self.q.transpose(0, 2, 1) @ c))

    def _columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # (order, column, real/imag part) of each of the L**2 basis vectors
        L = self.grid.L
        m, j, part = np.indices((L, L, 2)).reshape(3, -1)
        keep = (j < L - m) & ((m > 0) | (part == 0))
        return m[keep], j[keep], part[keep]

    def lift(self, coeffs: np.ndarray) -> np.ndarray:
        """Samples of ``sum_j coeffs[j] b_j`` over the ``L**2`` basis vectors."""
        L = self.grid.L
        c = np.zeros((L, L, 2))
        c[self._columns()] = coeffs
        return self._from_orders(self.q @ c)

    def rows(self, idx: np.ndarray) -> np.ndarray:
        """The basis vectors at stored samples ``idx``, as an ``(len(idx), L**2)`` matrix."""
        g = self.grid
        n, k = g.n_phi, g.pole_row * g.n_phi
        idx = np.asarray(idx)
        j = idx - (idx > k)  # position among the non-pole ring samples
        ring = np.where(idx == k, self.q.shape[1] - 1, j // n)
        phase = 2.0 * np.pi * (j % n) / n
        m, col, part = self._columns()
        arg = phase[:, None] * m
        wave = np.where(part == 0, np.cos(arg), -np.sin(arg))
        wave *= np.where(m == 0, 1.0, math.sqrt(2.0)) / math.sqrt(n)
        wave[idx == k] = m == 0  # the pole sample is its own m = 0 coordinate
        return self.q[m, ring[:, None], col] * wave


@lru_cache(maxsize=4)
def _subspace_basis(grid: GridDescriptor) -> _OrderBases:
    # Per-order QR bases of the Legendre profiles at the non-pole rings (and,
    # for m = 0, the pole), ring rows of m = 0 scaled by sqrt(n_phi) to match
    # the coordinates of _OrderBases._to_orders.
    L, pole = grid.L, grid.pole_row
    theta = theta_nodes(grid)
    theta = np.concatenate((np.delete(theta, pole), theta[pole : pole + 1]))
    tables = norm_legendre_tables(L, theta)
    q = np.zeros((L, theta.size, L))
    a0 = tables[0].T.copy()
    a0[:-1] *= math.sqrt(grid.n_phi)
    q[0] = np.linalg.qr(a0)[0]
    for m in range(1, L):
        q[m, :-1, : L - m] = np.linalg.qr(tables[m][:, :-1].T)[0]
    q.flags.writeable = False
    return _OrderBases(grid, q)


def _solve(problem: InpaintProblem, max_iter: int, tol: float) -> SolveResult:
    t_start = time.perf_counter()
    grid = problem.grid
    y, eps = problem.y, problem.epsilon
    mask = problem.op.indices
    harmonic = problem.domain == SolveDomain.HARMONIC

    # Work arrays, allocated once per solve and updated in place by every
    # iteration: `full` takes the pole-broadcast samples and the per-site
    # magnitudes, `grad` the TV applies and the adjoint's weighted duals.
    # The TV dual is one stacked (colatitude, longitude) array, and the row
    # factors are spread over that shape so each weighting is one flat run;
    # the dual step's TV apply takes them times the per-site steps.
    shape = (2, grid.n_theta, grid.n_phi)
    sigma, tau = _steps(grid, mask, harmonic)
    rows = _row_scales(grid, None)
    scales = np.ascontiguousarray(np.broadcast_to(rows, shape))
    dual_scales = np.ascontiguousarray(np.broadcast_to(rows * sigma, shape))
    full = np.empty(shape[1:])
    grad = np.empty(shape)
    dual = np.zeros(shape)
    dual_new = np.empty(shape)
    back, s_ex, cand_buf, best_buf = (np.empty(grid.n_samples) for _ in range(4))
    v = np.zeros(mask.size)
    v_new, w, r = (np.empty(mask.size) for _ in range(3))

    # Both domains iterate over sample space; the harmonic problem adds the
    # band-limited subspace as a primal constraint whose prox is the
    # orthogonal projection onto it, one order at a time.
    if harmonic:
        basis = _subspace_basis(grid)
        prox_primal = basis.project
        x = prox_primal(problem.op.adjoint(y))
    else:
        prox_primal = lambda z: z
        x = problem.op.adjoint(y)  # zero-fill start, already feasible

    feas_bound = eps * (1.0 + _FEAS_RTOL)
    exact_fit = eps == 0.0
    # Candidates are corrected onto the constraint.  In the spatial domain the
    # masked entries are moved onto the eps-ball around y, which for eps = 0
    # reinserts y itself.  With eps = 0 the harmonic iterates can only
    # approach the constraint, so there the correction is the least-squares
    # solution inside the subspace, applied through the SVD factors of the
    # basis' masked rows (negligible singular values dropped) and lifted back
    # through the per-order synthesis, leaving machine-level residue that is
    # accepted explicitly.
    feas_accept = feas_bound if not exact_fit else 1e-8 * max(1.0, float(np.linalg.norm(y)))
    if exact_fit and harmonic:
        u, s, vt = np.linalg.svd(basis.rows(mask), full_matrices=False)
        keep = s > s[0] * max(mask.size, grid.L * grid.L) * np.finfo(float).eps
        u, s, vt = u[:, keep], s[keep], vt[keep]
        fit_correct = lambda r: basis.lift(vt.T @ ((u.T @ r) / s))

    def candidate(z, r, d):
        if d <= feas_bound:
            return z
        if harmonic:  # noisy harmonic iterates enter the slack band on their own
            return z + fit_correct(r) if exact_fit else z
        np.copyto(cand_buf, z)
        cand_buf[mask] = y - (eps / d) * r  # d > feas_bound >= 0
        return cand_buf

    def tv_of(z):
        return _tv_total(tv_apply_raw(grid, scales, z, out=grad, full=full), out=full)

    best_obj = math.inf
    best_x = None
    trace = np.empty(max_iter)
    raw_objs = np.empty(max_iter)
    converged = False
    iterations = 0

    t_loop = time.perf_counter()
    for k in range(max_iter):
        # primal step from the current duals
        tv_adjoint_raw(grid, scales, dual, out=back, work=grad, full=full)
        back[mask] += v
        np.multiply(tau, back, out=back)
        np.subtract(x, back, out=back)
        x_new = prox_primal(back)

        # dual steps at the extrapolated point
        np.multiply(2.0, x_new, out=s_ex)
        np.subtract(s_ex, x, out=s_ex)
        g = tv_apply_raw(grid, dual_scales, s_ex, out=grad, full=full)
        np.add(dual, g, out=dual_new)
        np.square(dual_new, out=g)
        mag = np.add(g[0], g[1], out=full)
        np.sqrt(mag, out=mag)
        np.maximum(mag, 1.0, out=mag)
        np.divide(dual_new, mag, out=dual_new)

        np.take(s_ex, mask, out=v_new)
        np.add(v, v_new, out=v_new)
        np.subtract(v_new, y, out=w)
        d = float(np.linalg.norm(w))
        if d <= eps:
            np.copyto(w, y)
        else:  # the ball projection of v_new (sigma = 1 on these rows)
            np.multiply(w, eps / d, out=w)
            np.add(y, w, out=w)
        np.subtract(v_new, w, out=v_new)

        # over-relaxation (rho < 2 keeps the scheme convergent)
        for cur, new in ((x, x_new), (dual, dual_new), (v, v_new)):
            np.subtract(new, cur, out=new)
            np.multiply(_RELAX, new, out=new)
            np.add(cur, new, out=cur)

        np.take(x, mask, out=r)
        np.subtract(y, r, out=r)
        d = float(np.linalg.norm(r))
        cand = candidate(x, r, d)
        if cand is not x:
            res = float(np.linalg.norm(y - cand[mask]))
        else:
            res = d
        obj = tv_of(cand)
        raw_objs[k] = obj
        if res <= max(feas_accept, feas_bound) and obj < best_obj:
            best_obj = obj
            np.copyto(best_buf, cand)
            best_x = best_buf
        trace[k] = best_obj
        iterations = k + 1
        if k >= _STALL_WINDOW and best_x is not None:
            prev = raw_objs[k - _STALL_WINDOW]
            if abs(obj - prev) <= tol * max(abs(prev), 1e-12):
                converged = True
                break
    loop_seconds = time.perf_counter() - t_loop

    if best_x is None:
        r = y - x[mask]
        best_x = candidate(x, r, float(np.linalg.norm(r)))
        best_obj = tv_of(best_x)
        converged = False

    final_res = float(np.linalg.norm(y - best_x[mask]))
    x_star = SphereSignal(grid, best_x.astype(np.complex128))
    result = SolveResult(
        x_star=x_star,
        # best_x lies in the band-limited subspace, where forward is exact
        x_hat_star=forward(x_star) if harmonic else None,
        iterations=iterations,
        final_objective=best_obj,
        final_residual=final_res,
        objective_trace=trace[:iterations].copy(),
        setup_seconds=t_loop - t_start,
        loop_seconds=loop_seconds,
    )
    if not converged:
        raise SolverError(
            f"no converged feasible iterate within {max_iter} iterations "
            f"(residual {final_res:.3e}, bound {feas_bound:.3e})",
            result=result,
        )
    return result


def solve_spatial(problem: InpaintProblem, max_iter: int = 5000, tol: float = 1e-6) -> SolveResult:
    """Solve the TV inpainting problem directly over the sphere samples."""
    if problem.domain != SolveDomain.SPATIAL:
        raise ValueError(f"problem domain is {problem.domain!r}, expected 'spatial'")
    return _solve(problem, max_iter, tol)


def solve_harmonic(problem: InpaintProblem, max_iter: int = 5000, tol: float = 1e-6) -> SolveResult:
    """Solve the TV inpainting problem over harmonic coefficients.

    Iterates over sample space constrained to the band-limited subspace,
    which is the same convex program as recovering the coefficients
    directly.  The projection onto the subspace is a real FFT along the
    rings, one small orthogonal projection per order ``m`` onto a cached QR
    basis of its Legendre profiles (the pole sample joins ``m = 0``), and
    the inverse FFT.  Noiseless problems are polished onto the constraint
    through the SVD of the ``M x L**2`` masked rows of that orthonormal
    basis, the correction lifted back through the per-order synthesis.  The
    reported coefficients are the grid's forward transform of the
    recovered, band-limited signal.
    """
    if problem.domain != SolveDomain.HARMONIC:
        raise ValueError(f"problem domain is {problem.domain!r}, expected 'harmonic'")
    return _solve(problem, max_iter, tol)


@dataclass(frozen=True)
class ExperimentConfig:
    """Settings for the reconstruction-quality sweep over both grids."""

    L: int = 32
    kinds: tuple = (GridKind.DH, GridKind.MW)
    domains: tuple = (SolveDomain.SPATIAL, SolveDomain.HARMONIC)
    ratios: tuple = (0.25, 0.5, 1.0, 1.5, 2.0)
    trials: int = 10
    sigma_rel: float = 0.01
    seed: int = 0
    max_iter: int = 3000
    tol: float = 1e-5
    caps: tuple = DEFAULT_CAPS
    smoothing: float | None = None
    coeffs: HarmonicCoeffs | None = None  # overrides the cap signal
    out: str | None = None

    def validate(self):
        if self.L < 2:
            raise ValueError("experiment band-limit must be at least 2")
        if not self.ratios or not all(0 < r < math.inf for r in self.ratios):
            raise ValueError("ratios must be a non-empty list of finite positive numbers")
        if self.trials < 1:
            raise ValueError("trial count must be at least 1")
        if not 0 <= self.sigma_rel < math.inf:
            raise ValueError("relative noise level must be finite and non-negative")
        if self.smoothing is not None and not math.isfinite(self.smoothing):
            raise ValueError("smoothing scale must be finite")
        if not 0 < self.tol < math.inf:
            raise ValueError("solver tolerance must be finite and positive")
        if self.max_iter < 1:
            raise ValueError("iteration budget must be at least 1")
        for d in self.domains:
            if d not in SolveDomain.ALL:
                raise ValueError(f"unknown solve domain {d!r}")
        if not self.kinds or not self.domains:
            raise ValueError("kinds and domains must be non-empty")
        if self.coeffs is not None and self.coeffs.L != self.L:
            raise ValueError("supplied coefficients do not match the band-limit")


@dataclass(frozen=True)
class ExperimentCell:
    """Aggregated reconstruction quality for one (kind, domain, ratio)."""

    kind: GridKind
    domain: str
    ratio: float
    mean_snr_db: float
    std_snr_db: float
    trials: int


def run_experiment(config: ExperimentConfig) -> tuple[list[ExperimentCell], dict]:
    """Run the masked-reconstruction sweep and aggregate SNR per cell.

    Per (kind, ratio, trial) the mask and noise are drawn once and shared
    by the spatial and harmonic solves, so the domain comparison is paired.
    Ratios beyond complete sampling are clamped to ``M = N`` (the requested
    ratio labels the cell; the effective count is recorded).  Solver
    failures are recorded per trial without aborting the remaining cells.

    Returns:
        The result rows (kind-major, then domain, then ratio order) and a
        manifest dict with seeds, effective measurement counts, solver
        settings, failures, and wall time.
    """
    config.validate()
    t_start = time.monotonic()
    snr_lists: dict = {}
    cell_info: list = []
    failures: list = []
    for ki, kind in enumerate(config.kinds):
        grid = GridDescriptor(kind, config.L)
        if config.coeffs is not None:
            x_sig = inverse(grid.kind, config.coeffs, grid.L)
        else:
            x_sig, _ = make_cap_signal(grid, config.caps, config.smoothing)
        x_true = SphereSignal(grid, x_sig.values.real.astype(np.complex128))
        n = grid.n_samples
        for ri, ratio in enumerate(config.ratios):
            ratio_eff = min(ratio, n / (config.L * config.L))
            seeds = []
            for trial in range(config.trials):
                seed_key = (config.seed, ki, ri, trial)
                seeds.append(seed_key)
                for domain in config.domains:
                    problem, _rec = make_problem(
                        x_true, ratio_eff, config.sigma_rel, domain,
                        np.random.SeedSequence(seed_key),
                    )
                    solver = solve_spatial if domain == SolveDomain.SPATIAL else solve_harmonic
                    try:
                        result = solver(problem, max_iter=config.max_iter, tol=config.tol)
                    except SolverError as err:
                        failures.append(
                            {
                                "kind": kind.value,
                                "domain": domain,
                                "ratio": ratio,
                                "trial": trial,
                                "error": str(err),
                            }
                        )
                        continue
                    snr_lists.setdefault((ki, domain, ri), []).append(
                        snr(x_true, result.x_star)
                    )
            cell_info.append(
                {
                    "kind": kind.value,
                    "ratio": ratio,
                    "ratio_effective": ratio_eff,
                    "measurements": int(round(ratio_eff * config.L * config.L)),
                    "samples": n,
                    "seeds": seeds,
                }
            )
    rows = []
    for ki, kind in enumerate(config.kinds):
        for domain in config.domains:
            for ri, ratio in enumerate(config.ratios):
                vals = snr_lists.get((ki, domain, ri), [])
                if vals:
                    mean = float(np.mean(vals))
                    std = float(np.std(vals, ddof=1)) if len(vals) > 1 else 0.0
                else:
                    mean = math.nan
                    std = math.nan
                rows.append(
                    ExperimentCell(kind, domain, ratio, mean, std, len(vals))
                )
    manifest = {
        "config": {
            "L": config.L,
            "kinds": [k.value for k in config.kinds],
            "domains": list(config.domains),
            "ratios": list(config.ratios),
            "trials": config.trials,
            "sigma_rel": config.sigma_rel,
            "seed": config.seed,
            "max_iter": config.max_iter,
            "tol": config.tol,
            "caps": [list(c) for c in config.caps],
            "smoothing": config.smoothing,
        },
        "cells": cell_info,
        "failures": failures,
        "wall_time_s": time.monotonic() - t_start,
    }
    return rows, manifest
