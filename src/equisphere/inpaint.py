"""TV-regularized inpainting on the sphere and the DH-vs-MW experiment.

Measurements follow ``y = Phi x + n`` with ``Phi`` a random masking of the
stored samples and ``n`` i.i.d. zero-mean Gaussian noise.  Recovery solves

    spatial:   min_x  ||x||_TV   s.t. ||y - Phi x||_2 <= eps
    harmonic:  min_z  ||Psi z||_TV  s.t. ||y - Phi Psi z||_2 <= eps

where ``Psi`` is the inverse spherical harmonic transform of the signal's
grid.  Both read ``min_x G(x) + F(K x)`` with ``K = [W grad; Phi]`` and are
solved by one relaxed primal-dual loop (Chambolle & Pock 2011, JMIV,
over-relaxed as in Condat 2013, JOTA), written once over the blocks of
``K``.  Each iteration takes ``K^T`` of the duals (a TV adjoint and the
mask's scatter), the primal step through ``prox_G``, ``Sigma K`` at the
extrapolated point (a TV apply and the mask), ``prox_F*`` per block (a
per-site disc projection for the TV dual, the residual ball's conjugate
prox for the measurement dual) and the relaxation, on work arrays
allocated once per solve.  The steps are the diagonal ones of Pock &
Chambolle 2011 (ICCV, Lemma 2), from closed-form sums of ``|K|``.  The
domains differ in ``G`` only: zero, or the indicator of the band-limited
real subspace, whose prox is the orthogonal projection onto it; harmonic
solves iterate in sample space and take one scalar primal step.  Both
grids sample each ring at ``n_phi >= 2L - 1`` longitudes, so a real FFT
along the rings separates the orders ``m`` and the projection splits into
one small projection per order onto a cached QR basis of its Legendre
profiles; no ``N x L**2`` matrix is formed.  The reported coefficients are
the grid's forward transform of the result.

A per-domain feasibility map turns each iterate into the candidate scored
in its place, and the solver records, per iteration, the TV of the best
feasible candidate so far (``+inf`` until one exists) and returns it, so
the recorded objective sequence is non-increasing once feasibility is
reached.  Noiseless problems (``eps = 0``) are polished to exact
feasibility: spatial ones by reinserting the measurements, harmonic ones
by a least-squares correction inside the subspace, through the SVD of the
``M x L**2`` masked rows of its per-order orthonormal basis.
"""

from __future__ import annotations

import math
import numbers
import operator
import time
from dataclasses import dataclass, field, fields
from functools import lru_cache

import numpy as np

from .samples import (
    GridDescriptor,
    GridKind,
    GridMismatchError,
    HarmonicCoeffs,
    SphereSignal,
    as_kind,
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


def _cap_table(caps) -> np.ndarray:
    """``caps`` as a ``(k, 4)`` float table; ``ValueError`` unless each cap
    is four finite numbers ``(theta, phi, radius, amplitude)``."""
    try:
        table = [tuple(cap) for cap in caps]
        ok = all(len(cap) == 4 and all(isinstance(v, numbers.Real) for v in cap) for cap in table)
    except TypeError:
        ok = False
    if not ok:
        raise ValueError(f"caps must be (theta, phi, radius, amplitude) numbers, got {caps!r}")
    table = np.array(table, dtype=np.float64).reshape(-1, 4)
    for name, column in zip(("theta", "phi", "radius", "amplitude"), table.T):
        if not np.isfinite(column).all():
            raise ValueError(f"cap {name} must be finite, got {column.tolist()}")
    return table


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
        caps: Iterable of ``(theta, phi, radius, amplitude)`` tuples, four
            numbers each.
        smoothing: Smoothing scale ``s`` in radians; defaults to ``2.5 / L``.
            It and every cap value must be finite (``ValueError`` otherwise).

    Returns:
        The synthesized samples and their harmonic coefficients (consistent
        under the grid's transform to rounding).
    """
    L = grid.L
    if L < 2:
        raise ValueError("cap signals need a band-limit of at least 2")
    s = 2.5 / L if smoothing is None else float(smoothing)
    if not math.isfinite(s):
        raise ValueError(f"smoothing must be finite, got {smoothing!r}")
    theta_c, phi_c, radius, amp = _cap_table(caps).T
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
    a_theta, a_phi = _row_scales(grid)[:, :, 0]
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


def _disc_project(p: np.ndarray, work=None, mag=None) -> np.ndarray:
    # prox of the TV term's conjugate: each site's dual pair (p[0], p[1])
    # projected onto the unit disc, in place; work (shaped like p) and mag
    # (one site grid) are optional buffers
    sq = np.square(p, out=work)
    mag = np.add(sq[0], sq[1], out=mag)
    np.sqrt(mag, out=mag)
    np.maximum(mag, 1.0, out=mag)
    return np.divide(p, mag, out=p)


def _ball_dual_prox(v: np.ndarray, y: np.ndarray, eps: float) -> np.ndarray:
    # prox of the conjugate of the residual ball's indicator (sigma = 1):
    # v minus its projection onto the eps-ball around y, so 0 inside the
    # ball, in place
    np.subtract(v, y, out=v)
    d = float(np.linalg.norm(v))
    return np.multiply(v, 1.0 - eps / d if d > eps else 0.0, out=v)


def _feasibility_map(problem: InpaintProblem, basis: _OrderBases | None, bound: float, buf):
    # Iterate -> (candidate scored in its place, candidate's residual).
    # Spatial iterates outside the slack band have their masked entries moved
    # onto the eps-ball around y (for eps = 0, y itself), in the work array
    # buf; noisy harmonic ones enter the band on their own; noiseless harmonic
    # ones get the least-squares correction inside the subspace, through the
    # SVD of the basis' masked rows (negligible singular values dropped).
    y, eps, mask = problem.y, problem.epsilon, problem.op.indices
    residual = lambda z: float(np.linalg.norm(y - z[mask]))
    if basis is not None and eps > 0:
        return lambda z: (z, residual(z))
    if basis is None:
        def correct(z, r, d):
            np.copyto(buf, z)
            buf[mask] = y - (eps / d) * r  # d > bound >= 0
            return buf
    else:
        u, s, vt = np.linalg.svd(basis.rows(mask), full_matrices=False)
        keep = s > s[0] * max(mask.size, problem.grid.L ** 2) * np.finfo(float).eps
        u, s, vt = u[:, keep], s[keep], vt[keep]
        correct = lambda z, r, d: z + basis.lift(vt.T @ ((u.T @ r) / s))

    def feasible(z):
        r = y - z[mask]
        d = float(np.linalg.norm(r))
        if d <= bound:
            return z, d
        z = correct(z, r, d)
        return z, residual(z)

    return feasible


def _solve(problem: InpaintProblem, max_iter: int, tol: float) -> SolveResult:
    try:
        max_iter = operator.index(max_iter)
    except TypeError:
        raise ValueError(f"max_iter must be an integer, got {max_iter!r}") from None
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")
    t_start = time.perf_counter()
    grid = problem.grid
    y, eps = problem.y, problem.epsilon
    mask = problem.op.indices
    harmonic = problem.domain == SolveDomain.HARMONIC

    # Work arrays, updated in place by every iteration: `full` takes the
    # pole-broadcast samples and the per-site magnitudes, `grad` the TV
    # applies and the adjoint's weighted duals, `fix` the spatial feasibility
    # correction.  The row factors are spread over the stacked dual's shape,
    # and times sigma for the dual step.  All are zeroed slices, each from a
    # 64-byte line, of one page-aligned block, so the loop's speed does not
    # depend on what the heap held before the solve (as separate arrays, the
    # L = 32 spatial solves moved by 5-10% with one changed set-up allocation).
    shape = (2, grid.n_theta, grid.n_phi)
    sigma, tau = _steps(grid, mask, harmonic)
    shapes = [shape] * 5 + [shape[1:]] + [(grid.n_samples,)] * 6 + [(mask.size,)] * 2
    starts = np.cumsum([0] + [-(-math.prod(s) // 8) * 8 for s in shapes])
    block = np.zeros(int(starts[-1]) + 512)
    block = block[(-block.ctypes.data % 4096) // 8 :]
    scales, dual_scales, grad, dual, dual_new, full, x, back, s_ex, best_x, fix, taus, v, v_new = (
        block[a : a + math.prod(s)].reshape(s) for a, s in zip(starts, shapes)
    )
    scales[...] = _row_scales(grid)
    dual_scales[...] = scales * sigma
    taus[...] = tau  # a harmonic solve's one scalar step fills it

    basis = _subspace_basis(grid) if harmonic else None
    prox_primal = basis.project if harmonic else (lambda z: z)
    x[...] = prox_primal(problem.op.adjoint(y))  # spatial: the feasible zero fill
    bound = eps * (1.0 + _FEAS_RTOL)
    feasible = _feasibility_map(problem, basis, bound, fix)
    # with eps = 0 the polish leaves machine-level residue, accepted explicitly
    accept = bound if eps > 0 else 1e-8 * max(1.0, float(np.linalg.norm(y)))

    best_obj = math.inf
    trace, raw_objs = np.empty(max_iter), np.empty(max_iter)
    converged = False

    t_loop = time.perf_counter()
    for k in range(max_iter):
        # K^T [p; v], then the primal step through prox_G
        tv_adjoint_raw(grid, scales, dual, out=back, work=grad, full=full)
        back[mask] += v
        np.multiply(taus, back, out=back)
        x_new = prox_primal(np.subtract(x, back, out=back))

        # Sigma K at the extrapolated point, then prox_F* per block
        np.multiply(2.0, x_new, out=s_ex)
        np.subtract(s_ex, x, out=s_ex)
        tv_apply_raw(grid, dual_scales, s_ex, out=grad, full=full)
        _disc_project(np.add(dual, grad, out=dual_new), grad, full)
        _ball_dual_prox(np.add(v, s_ex[mask], out=v_new), y, eps)

        # over-relaxation (rho < 2 keeps the scheme convergent)
        for cur, new in ((x, x_new), (dual, dual_new), (v, v_new)):
            np.subtract(new, cur, out=new)
            np.multiply(_RELAX, new, out=new)
            np.add(cur, new, out=cur)

        cand, res = feasible(x)
        obj = _tv_total(tv_apply_raw(grid, scales, cand, out=grad, full=full), out=full)
        raw_objs[k] = obj
        if res <= accept and obj < best_obj:
            best_obj = obj
            np.copyto(best_x, cand)
        trace[k] = best_obj
        if k >= _STALL_WINDOW and best_obj < math.inf:
            prev = raw_objs[k - _STALL_WINDOW]
            if abs(obj - prev) <= tol * max(abs(prev), 1e-12):
                converged = True
                break
    loop_seconds = time.perf_counter() - t_loop
    iterations = k + 1
    if best_obj == math.inf:  # never feasible: report the last candidate
        best_x, best_obj = cand, obj

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
            f"(residual {final_res:.3e}, bound {accept:.3e})",
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
    directly; the coefficients reported are the grid's forward transform
    of the recovered, band-limited signal.
    """
    if problem.domain != SolveDomain.HARMONIC:
        raise ValueError(f"problem domain is {problem.domain!r}, expected 'harmonic'")
    return _solve(problem, max_iter, tol)


@dataclass(frozen=True)
class ExperimentConfig:
    """Settings for the reconstruction-quality sweep, checked when made (``ValueError``)."""

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

    def __post_init__(self):
        for name in ("L", "trials", "seed", "max_iter"):
            try:
                object.__setattr__(self, name, operator.index(getattr(self, name)))
            except TypeError:
                value = getattr(self, name)
                raise ValueError(f"{name} must be an integer, got {value!r}") from None
        object.__setattr__(self, "kinds", tuple(as_kind(k) for k in self.kinds))
        if self.L < 2:
            raise ValueError("experiment band-limit must be at least 2")
        ratios_ok = all(isinstance(r, numbers.Real) and 0 < r < math.inf for r in self.ratios)
        if not self.ratios or not ratios_ok:
            raise ValueError(f"ratios must be finite positive numbers, got {self.ratios!r}")
        if self.trials < 1:
            raise ValueError("trial count must be at least 1")
        if not (isinstance(self.sigma_rel, numbers.Real) and 0 <= self.sigma_rel < math.inf):
            raise ValueError(f"sigma_rel must be finite and non-negative, got {self.sigma_rel!r}")
        if self.smoothing is not None and not (
            isinstance(self.smoothing, numbers.Real) and math.isfinite(self.smoothing)
        ):
            raise ValueError(f"smoothing must be finite, got {self.smoothing!r}")
        if not (isinstance(self.tol, numbers.Real) and 0 < self.tol < math.inf):
            raise ValueError(f"tol must be finite and positive, got {self.tol!r}")
        if self.max_iter < 1:
            raise ValueError("iteration budget must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        for d in self.domains:
            if d not in SolveDomain.ALL:
                raise ValueError(f"unknown solve domain {d!r}")
        if not self.kinds or not self.domains:
            raise ValueError("kinds and domains must be non-empty")
        if self.coeffs is not None and self.coeffs.L != self.L:
            raise ValueError("supplied coefficients do not match the band-limit")
        object.__setattr__(self, "caps", tuple(map(tuple, _cap_table(self.caps).tolist())))
        if not self.caps and self.coeffs is None:
            raise ValueError("caps must hold at least one cap when no coeffs are given")


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

    Walks kind, domain, ratio, then trial: the order of the result rows and
    of the failure records.  Trial ``t`` of a (kind, ratio) draws its mask
    and noise from the seed key ``(seed, kind index, ratio index, t)``, so
    the spatial and harmonic solves see the same problem and the domain
    comparison is paired.  Ratios beyond complete sampling are clamped to
    ``M = N`` (the requested ratio labels the cell; the effective count is
    recorded).  Solver failures are recorded per trial without aborting
    the remaining cells.

    Returns:
        The result rows and a manifest dict with the config (every field
        but ``coeffs`` and ``out``), seeds and effective measurement counts
        per (kind, ratio), failures, and wall time.
    """
    t_start = time.monotonic()
    area = config.L * config.L
    cells, rows, failures = [], [], []
    for ki, kind in enumerate(config.kinds):
        grid = GridDescriptor(kind, config.L)
        if config.coeffs is not None:
            x_sig = inverse(grid.kind, config.coeffs, grid.L)
        else:
            x_sig, _ = make_cap_signal(grid, config.caps, config.smoothing)
        x_true = SphereSignal(grid, x_sig.values.real.astype(np.complex128))
        n = grid.n_samples
        kind_cells = []
        for ri, ratio in enumerate(config.ratios):
            ratio_eff = min(ratio, n / area)
            kind_cells.append(
                {
                    "kind": kind.value,
                    "ratio": ratio,
                    "ratio_effective": ratio_eff,
                    "measurements": int(round(ratio_eff * area)),
                    "samples": n,
                    "seeds": [(config.seed, ki, ri, trial) for trial in range(config.trials)],
                }
            )
        cells += kind_cells
        for domain in config.domains:
            for cell in kind_cells:
                vals = []
                for trial, seed_key in enumerate(cell["seeds"]):
                    problem, _ = make_problem(
                        x_true, cell["ratio_effective"], config.sigma_rel, domain,
                        np.random.SeedSequence(seed_key),
                    )
                    try:
                        vals.append(snr(x_true, _solve(problem, config.max_iter, config.tol).x_star))
                    except SolverError as err:
                        failures.append(
                            {
                                "kind": kind.value,
                                "domain": domain,
                                "ratio": cell["ratio"],
                                "trial": trial,
                                "error": str(err),
                            }
                        )
                if vals:
                    mean = float(np.mean(vals))
                    std = float(np.std(vals, ddof=1)) if len(vals) > 1 else 0.0
                else:
                    mean = math.nan
                    std = math.nan
                rows.append(ExperimentCell(kind, domain, cell["ratio"], mean, std, len(vals)))
    settings = {f.name: getattr(config, f.name) for f in fields(config)
                if f.name not in ("coeffs", "out")}
    return rows, {
        "config": settings | {"kinds": [k.value for k in config.kinds]},
        "cells": cells,
        "failures": failures,
        "wall_time_s": time.monotonic() - t_start,
    }
