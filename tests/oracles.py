"""Independent numerical oracles used to freeze expected test values.

Everything here avoids the library's transform/stencil code paths: Wigner
values come from the exact factorial sum (high-precision arithmetic),
sphere integrals from dense trapezoid grids over explicit callables, and
the continuous TV norm from analytic derivatives of the harmonic basis
evaluated on a fine midpoint grid.

The ``*_loop`` functions are the plain-loop forms of code the package
now runs vectorised, and the ``*_branch`` functions the per-grid-kind
forms of layout code the package now reads off one table; tests require
the package to match both bit for bit.  ``risbo_delta_slices`` is the full
Delta builder the MW transforms used before they streamed the quadrant
recursion, and ``delta_quadrants`` that quadrant recursion, which the
package replaced by one on the packed symmetric triangle; tests hold the
streams to both.  ``dh_weights_dense`` and ``mw_weights_dense`` are the
quadrature weights as dense O(L**2) sums, which the package replaced by
one FFT each.
``real_synthesis_matrix`` is the dense synthesis operator the harmonic
solver projected with before it worked one order at a time.
``tv_apply_roll`` / ``tv_adjoint_roll`` are the TV kernels as they were
before they took slice differences into reused buffers: separate row
factors, ``np.roll`` along longitude, new arrays on every call; tests
require the buffered kernels to match them bit for bit.
``legendre`` and ``ylm`` evaluate one harmonic at one point,
``build_delta_table`` holds every Delta matrix at once, and
``ylm_matrix`` with ``inverse_direct`` and ``dh_forward_direct`` are the
dense O(L**4) transforms; the package streams all of them, and tests hold
the streams to these forms.  ``norm_legendre_tables_loop`` is the
normalized Legendre recurrence, which the package replaced by Delta sums;
``ylm_matrix`` is built on it, so no oracle shares the package's harmonic
code.  ``norm_legendre_exact`` gives the same profiles at high precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp
import numpy as np

mp.mp.dps = 50


def wigner_d_exact(el: int, m: int, n: int, beta: float) -> float:
    """Wigner small-d by the explicit factorial sum at 50-digit precision."""
    total = mp.mpf(0)
    c = mp.cos(mp.mpf(beta) / 2)
    s = mp.sin(mp.mpf(beta) / 2)
    for k in range(max(0, n - m), min(el + n, el - m) + 1):
        term = (
            mp.mpf(1)
            / (
                mp.factorial(el + n - k)
                * mp.factorial(k)
                * mp.factorial(m - n + k)
                * mp.factorial(el - m - k)
            )
            * c ** (2 * el + n - m - 2 * k)
            * s ** (m - n + 2 * k)
        )
        total += (-1) ** ((m - n + k) % 2) * term
    pref = mp.sqrt(
        mp.factorial(el + m)
        * mp.factorial(el - m)
        * mp.factorial(el + n)
        * mp.factorial(el - n)
    )
    return float(pref * total)


def delta_exact(el: int, m: int, n: int) -> float:
    """Exact ``d^l_{mn}(pi/2)``, at any degree.

    At ``beta = pi/2``, ``cos(beta/2) = sin(beta/2) = 2**-0.5``, so every term
    of the factorial sum carries the same factor ``2**-l``.  The sum is taken
    exactly as a ``Fraction``; only the square root of the factorial prefactor
    and the power of two are evaluated, in mpmath.
    """
    f = math.factorial
    total = sum(
        Fraction(
            (-1) ** ((m - n + k) % 2),
            f(el + n - k) * f(k) * f(m - n + k) * f(el - m - k),
        )
        for k in range(max(0, n - m), min(el + n, el - m) + 1)
    )
    pref = f(el + m) * f(el - m) * f(el + n) * f(el - n)
    value = mp.sqrt(pref) * mp.mpf(total.numerator) / total.denominator
    return float(value * mp.mpf(2) ** -el)


def legendre_exact(el: int, m: int, x: float) -> float:
    """Associated Legendre (Condon-Shortley) at 50-digit precision.

    Taken at ``|x|`` by ``P_l^m(-x) = (-1)**(l+m) P_l^m(x)``: mpmath's series
    converges slowly near ``x = -1``, up to seconds per value.
    """
    return float((-1) ** ((el + m) * (x < 0)) * mp.legenp(el, m, mp.mpf(abs(x))))


def norm_legendre_exact(el: int, m: int, theta: float) -> float:
    """``sqrt((2l+1)/(4pi) (l-m)!/(l+m)!) P_l^m(cos theta)``, any degree, poles included.

    It equals ``sqrt((2l+1)/(4pi)) d^l_{m0}(theta)``: the factorial sum of
    :func:`wigner_d_exact`, run with 50 digits to spare past its
    cancellation, which costs fewer than ``l`` digits.
    """
    with mp.workdps(50 + el):
        return math.sqrt((2 * el + 1) / (4 * math.pi)) * wigner_d_exact(el, m, 0, theta)


def sphere_integral_trapezoid(f, n_theta: int = 2048, n_phi: int = 2048) -> complex:
    """Trapezoid (theta) x rectangle (phi) quadrature of ``f(theta, phi)``.

    ``f`` must accept broadcast arrays.  Accuracy is limited by the theta
    trapezoid rule to roughly ``O(k / n_theta**2)`` for trigonometric
    content of degree ``k``; raise ``n_theta`` for tight tolerances.
    """
    theta = np.linspace(0.0, np.pi, n_theta + 1)
    phi = 2 * np.pi * np.arange(n_phi) / n_phi
    total = 0.0 + 0.0j
    # row blocks keep memory bounded for large grids
    block = max(1, int(4e6) // n_phi)
    wt = np.full(n_theta + 1, np.pi / n_theta)
    wt[0] *= 0.5
    wt[-1] *= 0.5
    for start in range(0, n_theta + 1, block):
        sl = slice(start, min(start + block, n_theta + 1))
        th = theta[sl][:, None]
        vals = np.asarray(f(th, phi[None, :]), dtype=np.complex128)
        total += (wt[sl] * np.sin(theta[sl]) * vals.sum(axis=1)).sum() * (
            2 * np.pi / n_phi
        )
    return complex(total)


def sphere_integral_refined(f, n_theta: int = 1 << 22, n_phi: int = 64) -> complex:
    """Midpoint quadrature with a very fine theta axis.

    The phi rectangle rule is exact for trigonometric content below
    ``n_phi``; the fine theta axis pushes the midpoint error to ~1e-12.
    """
    phi = 2 * np.pi * np.arange(n_phi) / n_phi
    total = 0.0 + 0.0j
    block = 1 << 16
    h = np.pi / n_theta
    for start in range(0, n_theta, block):
        stop = min(start + block, n_theta)
        th = (np.arange(start, stop) + 0.5)[:, None] * h
        vals = np.asarray(f(th, phi[None, :]), dtype=np.complex128)
        total += (np.sin(th[:, 0]) * vals.sum(axis=1)).sum() * h * (2 * np.pi / n_phi)
    return complex(total)


def _norm_profiles(L: int, theta: np.ndarray) -> list[np.ndarray]:
    # Normalized theta profiles N_l^m for all l < L, m >= 0, via the
    # normalized recurrences; independent of the package's stencil code
    # (shares only the basis definition).
    x = np.cos(theta)
    s = np.sin(theta)
    prof = []
    pmm = np.full_like(x, 0.5 / math.sqrt(math.pi))
    for m in range(L):
        if m > 0:
            pmm = pmm * (-math.sqrt((2 * m + 1) / (2.0 * m))) * s
        tab = np.empty((L - m, x.size))
        tab[0] = pmm
        if L - m > 1:
            tab[1] = x * math.sqrt(2.0 * m + 3.0) * pmm
        for ell in range(m + 2, L):
            a = math.sqrt((4.0 * ell**2 - 1.0) / (ell**2 - m**2))
            b = math.sqrt(((ell - 1.0) ** 2 - m**2) / (4.0 * (ell - 1.0) ** 2 - 1.0))
            tab[ell - m] = a * (x * tab[ell - m - 1] - b * tab[ell - m - 2])
        prof.append(tab)
    return prof


def _norm_profile_derivatives(
    L: int, theta: np.ndarray, prof: list[np.ndarray]
) -> list[np.ndarray]:
    # d/dtheta of the profiles; valid away from the poles (sin theta > 0).
    x = np.cos(theta)
    s = np.sin(theta)
    dprof = []
    for m in range(L):
        tab = prof[m]
        dtab = np.empty_like(tab)
        for ell in range(m, L):
            below = tab[ell - m - 1] if ell > m else 0.0
            coeff = math.sqrt((2 * ell + 1) * (ell**2 - m**2) / max(2 * ell - 1, 1))
            dtab[ell - m] = (coeff * below - ell * x * tab[ell - m]) / s
        dprof.append(dtab)
    return dprof


def synthesize_grid(
    L: int, flat_coeffs: np.ndarray, theta: np.ndarray, phi: np.ndarray
) -> np.ndarray:
    """Evaluate the band-limited expansion on a ``theta x phi`` tensor grid.

    Uses this module's own profile recurrence, so it is independent of the
    package's transform code paths.
    """
    prof = _norm_profiles(L, np.asarray(theta, dtype=float))
    ms = np.arange(-(L - 1), L)
    h = np.zeros((2 * L - 1, len(theta)), dtype=np.complex128)
    for m in range(L):
        ells = np.arange(m, L)
        h[m + L - 1] += flat_coeffs[ells * ells + ells + m] @ prof[m]
        if m > 0:
            h[-m + L - 1] += ((-1) ** m) * (
                flat_coeffs[ells * ells + ells - m] @ prof[m]
            )
    phase = np.exp(1j * np.outer(ms, np.asarray(phi, dtype=float)))
    return h.T @ phase


def continuous_tv_norm(L: int, flat_coeffs: np.ndarray, n: int = 4096) -> float:
    """Continuous TV norm of a band-limited function on an ``n x n`` grid.

    Evaluates the analytic gradient magnitude
    ``sqrt(f_theta**2 + f_phi**2 / sin(theta)**2)`` on midpoint colatitudes
    and integrates with the invariant measure.  The derivative relation is
    exercised against finite differences in the test suite.
    """
    theta = (np.arange(n) + 0.5) * np.pi / n
    prof = _norm_profiles(L, theta)
    dprof = _norm_profile_derivatives(L, theta, prof)
    # per-order theta profiles of f, df/dtheta, and the i*m phi factor
    h = np.zeros((2 * L - 1, n), dtype=np.complex128)
    dh = np.zeros_like(h)
    for m in range(L):
        ells = np.arange(m, L)
        cpos = flat_coeffs[ells * ells + ells + m]
        h[m + L - 1] += cpos @ prof[m]
        dh[m + L - 1] += cpos @ dprof[m]
        if m > 0:
            cneg = flat_coeffs[ells * ells + ells - m] * (-1) ** m
            h[-m + L - 1] += cneg @ prof[m]
            dh[-m + L - 1] += cneg @ dprof[m]
    ms = np.arange(-(L - 1), L)
    total = 0.0
    hphi = np.pi / n
    block = max(1, int(2e6) // n)
    for start in range(0, n, block):
        sl = slice(start, min(start + block, n))
        # synthesize over phi with a zero-padded inverse FFT
        spec_t = np.zeros((sl.stop - sl.start, n), dtype=np.complex128)
        spec_p = np.zeros_like(spec_t)
        for j, m in enumerate(ms):
            spec_t[:, m % n] += dh[j, sl]
            spec_p[:, m % n] += 1j * m * h[j, sl]
        f_t = np.fft.ifft(spec_t, axis=1) * n
        f_p = np.fft.ifft(spec_p, axis=1) * n
        sin_t = np.sin(theta[sl])[:, None]
        mag = np.sqrt(
            np.abs(f_t.real) ** 2 + (np.abs(f_p.real) / sin_t) ** 2
        )
        total += float((mag * sin_t).sum()) * hphi * (2 * np.pi / n)
    return total


def norm_legendre_tables_loop(L: int, x: np.ndarray) -> list[np.ndarray]:
    """Normalized theta profiles built order by order, one row per call."""
    x = np.asarray(x, dtype=np.float64)
    s = np.sqrt((1.0 - x) * (1.0 + x))
    tables: list[np.ndarray] = []
    pmm = np.full_like(x, 0.5 / math.sqrt(math.pi))
    for m in range(L):
        if m > 0:
            pmm = pmm * (-math.sqrt((2 * m + 1) / (2.0 * m))) * s
        tab = np.empty((L - m, x.size))
        tab[0] = pmm
        if L - m > 1:
            tab[1] = x * math.sqrt(2.0 * m + 3.0) * pmm
        for ell in range(m + 2, L):
            a = math.sqrt((4.0 * ell * ell - 1.0) / (ell * ell - m * m))
            b = math.sqrt(
                ((ell - 1.0) ** 2 - m * m) / (4.0 * (ell - 1.0) ** 2 - 1.0)
            )
            tab[ell - m] = a * (x * tab[ell - m - 1] - b * tab[ell - m - 2])
        tables.append(tab)
    return tables


def _fi(el: int, m: int) -> int:
    return el * el + el + m


def random_coeffs_loop(L: int, rng: np.random.Generator, real_signal: bool = False) -> np.ndarray:
    """Flat random coefficients, conjugate symmetry imposed per (l, m)."""
    vals = rng.standard_normal(L * L) + 1j * rng.standard_normal(L * L)
    if real_signal:
        for el in range(L):
            vals[_fi(el, 0)] = vals[_fi(el, 0)].real
            for m in range(1, el + 1):
                vals[_fi(el, -m)] = (-1) ** m * np.conj(vals[_fi(el, m)])
    return vals


def real_synthesis_matrix_loop(L: int, ymat: np.ndarray) -> np.ndarray:
    """Real synthesis columns from a complex synthesis matrix, column by column."""
    out = np.empty((ymat.shape[0], L * L))
    for el in range(L):
        out[:, _fi(el, 0)] = ymat[:, _fi(el, 0)].real
        for m in range(1, el + 1):
            col = ymat[:, _fi(el, m)]
            out[:, _fi(el, m)] = 2.0 * col.real
            out[:, _fi(el, -m)] = -2.0 * col.imag
    return out


def real_synthesis_matrix(grid) -> np.ndarray:
    """Dense real synthesis operator mapping ``L**2`` real parameters to samples.

    Parameters are ``Re f_{l0}`` at ``flat_index(l, 0)`` and, for ``m > 0``,
    ``Re f_lm`` / ``Im f_lm`` at ``flat_index(l, +-m)``; columns follow from
    ``x = sum_l a_{l0} Y_l0 + sum_{m>0} 2 Re((a + i b) Y_lm)``.  Its QR basis
    ``Q`` gives the dense reference ``Q Q^T`` of the band-limit projector.
    """
    from equisphere.samples import conjugate_pairs

    ymat = ylm_matrix(grid)
    zero, pos, neg, _ = conjugate_pairs(grid.L)
    out = np.empty((grid.n_samples, grid.L * grid.L))
    out[:, zero] = ymat[:, zero].real
    out[:, pos] = 2.0 * ymat[:, pos].real
    out[:, neg] = -2.0 * ymat[:, pos].imag
    return out


# Per-kind layout code, one branch per grid kind.  ``grid`` needs only
# ``kind``, ``L``, ``n_theta``, ``n_phi`` and ``n_samples``.


def _is_dh(grid) -> bool:
    return grid.kind.value == "dh"


def theta_node_branch(grid, t: int) -> float:
    if _is_dh(grid):
        return np.pi * t / (2 * grid.L)
    return np.pi * (2 * t + 1) / (2 * grid.L - 1)


def phi_node_branch(grid, p: int) -> float:
    if _is_dh(grid):
        return np.pi * p / grid.L
    return 2 * np.pi * p / (2 * grid.L - 1)


def theta_nodes_branch(grid) -> np.ndarray:
    t = np.arange(grid.n_theta)
    if _is_dh(grid):
        return np.pi * t / (2 * grid.L)
    return np.pi * (2 * t + 1) / (2 * grid.L - 1)


def phi_nodes_branch(grid) -> np.ndarray:
    p = np.arange(grid.n_phi)
    if _is_dh(grid):
        return np.pi * p / grid.L
    return 2 * np.pi * p / (2 * grid.L - 1)


def pole_row_branch(grid) -> int:
    return 0 if _is_dh(grid) else grid.L - 1


def sample_index_branch(grid, t: int, p: int) -> int:
    if _is_dh(grid):
        return 0 if t == 0 else 1 + (t - 1) * grid.n_phi + p
    return (grid.L - 1) * grid.n_phi if t == grid.L - 1 else t * grid.n_phi + p


def node_angles_branch(grid) -> tuple[np.ndarray, np.ndarray]:
    thetas = theta_nodes_branch(grid)
    phis = phi_nodes_branch(grid)
    th = np.empty(grid.n_samples)
    ph = np.empty(grid.n_samples)
    for t in range(grid.n_theta):
        if t == pole_row_branch(grid):
            i = sample_index_branch(grid, t, 0)
            th[i] = thetas[t]
            ph[i] = 0.0
        else:
            i0 = sample_index_branch(grid, t, 0)
            th[i0 : i0 + grid.n_phi] = thetas[t]
            ph[i0 : i0 + grid.n_phi] = phis
    return th, ph


def expand_values_branch(grid, v: np.ndarray) -> np.ndarray:
    full = np.empty((grid.n_theta, grid.n_phi), dtype=v.dtype)
    if _is_dh(grid):
        full[0, :] = v[0]
        full[1:, :] = v[1:].reshape(grid.n_theta - 1, grid.n_phi)
    else:
        full[: grid.L - 1, :] = v[: grid.n_samples - 1].reshape(
            grid.L - 1, grid.n_phi
        )
        full[grid.L - 1, :] = v[-1]
    return full


def contract_branch(grid, full: np.ndarray) -> np.ndarray:
    out = np.empty(grid.n_samples, dtype=full.dtype)
    if _is_dh(grid):
        out[0] = full[0, 0]
        out[1:] = full[1:, :].ravel()
    else:
        out[: grid.n_samples - 1] = full[: grid.L - 1, :].ravel()
        out[-1] = full[grid.L - 1, 0]
    return out


def contract_adjoint_branch(grid, full: np.ndarray) -> np.ndarray:
    out = np.empty(grid.n_samples, dtype=full.dtype)
    if _is_dh(grid):
        out[0] = full[0, :].sum()
        out[1:] = full[1:, :].ravel()
    else:
        out[: grid.n_samples - 1] = full[: grid.L - 1, :].ravel()
        out[-1] = full[grid.L - 1, :].sum()
    return out


def tv_apply_roll(grid, a_theta, a_phi, vec):
    """Weighted forward differences ``(u_theta, u_phi)`` of stored samples."""
    full = expand_values_branch(grid, vec)
    d_theta = np.zeros_like(full)
    d_theta[:-1] = full[1:] - full[:-1]
    d_phi = np.roll(full, -1, axis=1) - full
    return a_theta[:, None] * d_theta, a_phi[:, None] * d_phi


def tv_adjoint_roll(grid, a_theta, a_phi, u_theta, u_phi):
    """Adjoint of :func:`tv_apply_roll`, as stored samples."""
    u_t = a_theta[:, None] * u_theta
    u_p = a_phi[:, None] * u_phi
    out = np.zeros((grid.n_theta, grid.n_phi), dtype=np.result_type(u_t, u_p))
    out[1:] += u_t[:-1]
    out -= u_t
    out += np.roll(u_p, 1, axis=1) - u_p
    return contract_adjoint_branch(grid, out)


def tv_spacings_branch(grid) -> tuple[float, float]:
    """Colatitude and longitude steps of the TV differences."""
    if _is_dh(grid):
        return np.pi / (2 * grid.L), np.pi / grid.L
    return 2 * np.pi / (2 * grid.L - 1), 2 * np.pi / (2 * grid.L - 1)


def sample_weights_branch(grid, q: np.ndarray) -> np.ndarray:
    """Per stored sample weights from the grid kind's row weights ``q``."""
    w = np.empty(grid.n_samples)
    if _is_dh(grid):
        w[0] = q[0] * grid.n_phi
        w[1:] = np.repeat(q[1:], grid.n_phi)
    else:
        w[: grid.n_samples - 1] = np.repeat(q[: grid.L - 1], grid.n_phi)
        w[-1] = q[grid.L - 1] * grid.n_phi
    return w


# Wigner d at pi/2 by Risbo's composition of spin one-half rotations, two
# half steps per degree, over the full order range; and the MW Delta
# contraction summed over every m' with those matrices.  Neither uses the
# quadrant recursion or the folding the package runs.


def _half_step(old: np.ndarray) -> np.ndarray:
    # One spin one-half rotation composed into the table: degree j - 1/2 to
    # degree j at beta = pi/2, where cos(beta/2) = sin(beta/2) = 1/sqrt(2).
    n = old.shape[0]  # n = 2j, old holds 2j values per axis
    c = 1.0 / math.sqrt(2.0)
    k = np.arange(1, n + 1, dtype=np.float64)
    root = np.sqrt(k)
    rootc = np.sqrt(k[::-1])  # sqrt(2j - k) for k = 0 .. n-1
    new = np.zeros((n + 1, n + 1))
    new[1:, 1:] += np.outer(root, root) * old
    new[1:, :n] -= np.outer(root, rootc) * old
    new[:n, 1:] += np.outer(rootc, root) * old
    new[:n, :n] += np.outer(rootc, rootc) * old
    new *= c / n
    return new


def risbo_delta_slices(L: int):
    """Yield ``d^l(pi/2)`` for ``l < L``, indexed ``[m + l, n + l]``."""
    cur = np.array([[1.0]])
    yield cur
    for _ in range(1, L):
        cur = _half_step(_half_step(cur))
        yield cur


def delta_quadrants(L: int):
    """Stream ``D[m', m] = d^l_{m'm}(pi/2)`` for ``m', m >= 0``, ``l < L``.

    Runs ``d^{l+1} = -(2l+1)/l (m/u_m)(n/u_n) d^l - (l+1)/l (v_m/u_m)(v_n/u_n)
    d^{l-1}``, ``u_m = sqrt((l+1)**2 - m**2)``, ``v_m = sqrt(l**2 - m**2)``, in
    three rotating ``(L, L)`` buffers, seeding the new edge row by ``d^l_{l,n}
    = sqrt(2l(2l-1) / ((l+n)(l+n-1))) d^{l-1}_{l-1,n-1} / 2``, ``d^l_{l,0} =
    -sqrt((2l-1)/(2l)) d^{l-1}_{l-1,0}``.  Each ``(l+1, l+1)`` view stays valid
    for three more degrees.  ``L > 1024`` raises ``ValueError`` before any work.
    """
    from equisphere.samples import check_bandlimit

    L = check_bandlimit(L)
    if L > 1024:  # the corner seed 2**-l underflows to zero near l = 1075
        raise ValueError(f"Wigner recursion supports band-limits up to 1024, got {L}")
    bufs = [np.zeros((L, L)) for _ in range(3)]
    for el in range(L):
        cur, p1, p2 = bufs[el % 3], bufs[(el - 1) % 3], bufs[(el - 2) % 3]
        k = el - 1  # degree l comes from degrees k and k - 1
        if el < 2:
            cur[0, 0] = 1.0 - el  # d^1_00 = cos(pi/2) = 0
        else:  # orders equal to k have v = 0: no d^{k-1} term
            m = np.arange(el, dtype=np.float64)
            u = np.sqrt(el * el - m * m)
            a, b = m / u, np.sqrt(k * k - m[:k] ** 2) / u[:k]
            np.multiply(p1[:el, :el], np.outer(a, a * (-(2 * k + 1) / k)), out=cur[:el, :el])
            cur[:k, :k] -= p2[:k, :k] * np.outer(b, b * ((k + 1) / k))
        if el:
            n = np.arange(1, el + 1, dtype=np.float64)
            seed = 0.5 * np.sqrt(2 * el * (2 * el - 1) / ((el + n) * (el + n - 1)))
            cur[el, 1 : el + 1] = p1[k, :el] * seed
            cur[el, 0] = -math.sqrt((2 * el - 1) / (2.0 * el)) * p1[k, 0]
            cur[:el, el] = cur[el, :el] * (-1.0) ** (el - np.arange(el))  # d_{nl} = +-d_{ln}
        yield cur[: el + 1, : el + 1]


def unpack_triangle(tri: np.ndarray, el: int) -> np.ndarray:
    """The ``(l+1, l+1)`` symmetric matrix whose lower triangle ``tri`` packs row by row."""
    r, c = np.tril_indices(el + 1)
    full = np.zeros((el + 1, el + 1))
    full[r, c] = tri[: r.size]
    full[c, r] = tri[: r.size]
    return full


def contraction_weights_from_quadrants(L: int):
    """Yield ``(l, W)``, ``W[m, j] = sqrt((2l+1)/(4 pi)) (-1)**m D_{m,m'} D_{0,m'}``,
    ``m' = l % 2 + 2j <= l``, from :func:`delta_quadrants`."""
    for el, quad in enumerate(delta_quadrants(L)):
        cols = quad[:, el % 2 :: 2]
        sign = (-1.0) ** np.arange(el + 1)
        yield el, sign[:, None] * cols * (math.sqrt((2 * el + 1) / (4 * math.pi)) * cols[0])


def mw_delta_contraction_unfolded(g_mm: np.ndarray, L: int) -> np.ndarray:
    """``f_lm = i**m sqrt((2l+1)/(4 pi)) sum_{m'} D_{m'm} D_{m'0} G_{mm'}``, every ``m'``."""
    coeffs = np.zeros(L * L, dtype=np.complex128)
    for el, d in enumerate(risbo_delta_slices(L)):
        weighted = d * d[:, el][:, None]
        block = g_mm[L - 1 - el : L + el, L - 1 - el : L + el]
        marr = np.arange(-el, el + 1)
        coeffs[el * el : (el + 1) ** 2] = (
            np.array([1, 1j, -1, -1j])[marr % 4]
            * math.sqrt((2 * el + 1) / (4 * math.pi))
            * np.einsum("am,ma->m", weighted, block)
        )
    return coeffs


# Scalar harmonics, the full Delta table and the dense transforms.  The
# package streams all three; these are the per-point and dense forms the
# tests compare the streams with.

_INV_SQRT_4PI = 0.5 / math.sqrt(math.pi)


def legendre(el: int, m: int, x: float) -> float:
    """Associated Legendre function ``P_l^m(x)`` with Condon-Shortley phase.

    Args:
        el: Degree, ``el >= 0``.
        m: Order, ``0 <= m <= el``.
        x: Argument in ``[-1, 1]``.

    Returns:
        ``P_l^m(x)`` including the ``(-1)**m`` factor.
    """
    if el < 0 or not 0 <= m <= el:
        raise ValueError(f"invalid Legendre index (el={el}, m={m})")
    if not -1.0 <= x <= 1.0:
        raise ValueError(f"Legendre argument must lie in [-1, 1], got {x!r}")
    # P_m^m = (-1)^m (2m-1)!! (1-x^2)^{m/2}, then upward in degree.
    pmm = 1.0
    if m > 0:
        s = math.sqrt((1.0 - x) * (1.0 + x))
        for k in range(1, m + 1):
            pmm *= -(2 * k - 1) * s
    if el == m:
        return pmm
    pm1 = x * (2 * m + 1) * pmm
    if el == m + 1:
        return pm1
    for ell in range(m + 2, el + 1):
        pm1, pmm = (
            (x * (2 * ell - 1) * pm1 - (ell + m - 1) * pmm) / (ell - m),
            pm1,
        )
    return pm1


def _norm_theta_profile(el: int, m: int, x: float) -> float:
    # sqrt((2l+1)/(4pi) (l-m)!/(l+m)!) P_l^m(x) for m >= 0, via the
    # normalized recurrence (no factorials).
    s = math.sqrt((1.0 - x) * (1.0 + x))
    pmm = _INV_SQRT_4PI
    for k in range(1, m + 1):
        pmm *= -math.sqrt((2 * k + 1) / (2.0 * k)) * s
    if el == m:
        return pmm
    pm1 = x * math.sqrt(2.0 * m + 3.0) * pmm
    if el == m + 1:
        return pm1
    for ell in range(m + 2, el + 1):
        a = math.sqrt((4.0 * ell * ell - 1.0) / (ell * ell - m * m))
        b = math.sqrt(((ell - 1.0) ** 2 - m * m) / (4.0 * (ell - 1.0) ** 2 - 1.0))
        pm1, pmm = a * (x * pm1 - b * pmm), pm1
    return pm1


def ylm(el: int, m: int, theta: float, phi: float) -> complex:
    """Spherical harmonic ``Y_lm`` at a point, any ``|m| <= el``.

    Negative orders use ``Y_{l,-m} = (-1)**m conj(Y_lm)``.
    """
    if el < 0 or abs(m) > el:
        raise ValueError(f"invalid harmonic index (el={el}, m={m})")
    am = abs(m)
    profile = _norm_theta_profile(el, am, math.cos(theta))
    phase = complex(math.cos(am * phi), math.sin(am * phi))
    val = profile * phase
    if m < 0:
        val = (-1) ** am * np.conj(val)
    return complex(val)


def ylm_matrix(grid) -> np.ndarray:
    """Dense synthesis matrix ``Y[i, flat_index(l, m)] = Y_lm(node_i)``.

    Multiplying a flat coefficient vector by this matrix evaluates the
    band-limited expansion at every stored sample, which is the inverse
    transform written as a single dense operator.
    """
    from equisphere.samples import node_angles

    th, ph = node_angles(grid)
    tables = norm_legendre_tables_loop(grid.L, np.cos(th))
    mat = np.empty((th.size, grid.L**2), dtype=np.complex128)
    for m, table in enumerate(tables):
        phase = np.exp(1j * m * ph)
        for el, profile in enumerate(table, start=m):
            mat[:, _fi(el, -m)] = (-1) ** m * profile * phase.conj()
            mat[:, _fi(el, m)] = profile * phase  # m = 0 last, over its own conjugate
    return mat


def inverse_direct(grid, coeffs):
    """Inverse transform onto ``grid``: the dense synthesis matrix applied to coefficients."""
    from equisphere.samples import SphereSignal

    return SphereSignal(grid, ylm_matrix(grid) @ coeffs.values)


def dh_forward_direct(signal):
    """DH forward transform as one dense quadrature sum per coefficient, O(L**4)."""
    from equisphere.dh import dh_sample_weights
    from equisphere.samples import HarmonicCoeffs

    grid = signal.grid
    w = dh_sample_weights(grid)
    return HarmonicCoeffs(grid.L, ylm_matrix(grid).conj().T @ (w * signal.values))


@dataclass(frozen=True)
class DeltaTable:
    """Wigner small-d values at ``beta = pi/2`` for all degrees below ``L``.

    ``slice(el)`` has shape ``(2 el + 1, 2 el + 1)`` and is indexed by
    ``[m + el, n + el]``.
    """

    L: int
    _slices: tuple

    def slice(self, el: int) -> np.ndarray:
        if not 0 <= el < self.L:
            raise ValueError(f"degree {el} outside table range [0, {self.L})")
        return self._slices[el]

    def value(self, el: int, m: int, n: int) -> float:
        if abs(m) > el or abs(n) > el:
            raise ValueError(f"invalid orders (m={m}, n={n}) for degree {el}")
        return float(self.slice(el)[m + el, n + el])


def build_delta_table(L: int) -> DeltaTable:
    """All ``d^l_{mn}(pi/2)``, ``l < L``, in ``O(L**3)`` memory: the quadrant
    stream expanded by ``d^l_{m,-n} = (-1)**(l+m) d^l_{mn}`` and
    ``d^l_{-m,n} = (-1)**(m+n) d^l_{m,-n}``."""
    slices = []
    for el, quad in enumerate(delta_quadrants(L)):
        ms = np.arange(-el, el + 1)
        half = quad[:, np.abs(ms)] * np.where(ms < 0, (-1.0) ** (el + ms[el:, None]), 1.0)
        full = np.vstack([(-1.0) ** (ms[:el, None] + ms) * half[:0:-1, ::-1], half])
        full.flags.writeable = False
        slices.append(full)
    return DeltaTable(len(slices), tuple(slices))


# The quadrature weights as dense sums over every (node, frequency) pair.
# Each sine or exponential takes its argument reduced exactly in integers
# first: unreduced, float64 loses up to 1.9e-14 * max|q| at L = 1024 (DH),
# against a 40-digit evaluation of the same sum.


def dh_weights_dense(L: int) -> np.ndarray:
    """``q(theta_t) = (2 pi / L**2) sin(theta_t) sum_{k<L} sin((2k+1) theta_t) / (2k+1)``,
    ``theta_t = pi t / 2L``, ``t < 2L``."""
    t, k = np.arange(2 * L), 2 * np.arange(L) + 1
    s = (np.sin(np.pi * (np.outer(t, k) % (4 * L)) / (2 * L)) / k).sum(axis=1)
    return (2 * np.pi / L**2) * np.sin(np.pi * t / (2 * L)) * s


def mw_weights_dense(L: int) -> np.ndarray:
    """``q(theta_t) = (2 pi / n) [v(theta_t) + (1 - delta_{t,L-1}) v(theta_{2L-2-t})]``,
    ``n = 2L - 1``, with ``v(theta) = sum_{|m'|<L} w(-m') e^{i m' theta} / n`` at
    ``theta_t = pi (2t + 1) / n``, ``t < n``."""
    from equisphere.mw import _weight_fn

    n = 2 * L - 1
    mp_ = np.arange(-(L - 1), L)
    arg = np.pi * (np.outer(2 * np.arange(n) + 1, mp_) % (2 * n)) / n
    v = np.exp(1j * arg) @ _weight_fn(-mp_) / n
    t = np.arange(L)
    q = (2 * np.pi / n) * (v[:L] + np.where(t == L - 1, 0, v[2 * L - 2 - t]))
    return q.real
