"""Associated Legendre functions, spherical harmonics, and the Wigner-Delta engine.

Spherical harmonics follow the Condon-Shortley phase convention with the
``(-1)**m`` factor folded into the associated Legendre functions:

    Y_lm(theta, phi) = sqrt((2l+1)/(4 pi) (l-m)!/(l+m)!)
                       P_l^m(cos theta) exp(i m phi)

and ``Y_{l,-m} = (-1)**m conj(Y_lm)``.  Normalized theta profiles are
produced by an upward recurrence in degree from the sectoral seed, which
is stable over the whole supported range; unnormalized ``(l-m)!/(l+m)!``
factors are never materialized.  :func:`legendre_degrees` streams the
profiles one degree at a time in ``O(L * len(x))`` working memory;
:func:`norm_legendre_tables` collects them into per-order tables.

Wigner small-d values at ``beta = pi/2`` (the Delta matrices) come from
:func:`delta_quadrants`, the three-term recurrence in degree (Kostelec &
Rockmore 2008) on the quadrant ``m', m >= 0``, one degree at a time in
``O(L**2)`` memory.  Its smallest value, the exact corner seed
``d^l_{ll}(pi/2) = 2**-l``, loses at most one bit to the subnormal range
through ``l = 1023`` but reaches zero near ``l = 1075``, where the recursion
would silently return zeros: so ``L <= 1024`` is supported (an MW round trip
there is exact to about 6e-14) and larger band-limits raise ``ValueError``.

Both grids' transforms share one harmonic step on a torus spectrum (the
signal's Fourier series in ``theta``, continued to ``[0, 2 pi)``):
:func:`delta_forward` is the Delta contraction ``f_lm = i**m sqrt((2l+1)/
(4 pi)) sum_{m'} D^l_{m'm} D^l_{m'0} G_{mm'}`` and :func:`delta_inverse`
returns the torus coefficients ``F_{mm'}`` of an expansion.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np

from .samples import check_bandlimit

__all__ = [
    "delta_quadrants",
    "check_delta_bandlimit",
    "delta_forward",
    "delta_inverse",
    "legendre_degrees",
    "norm_legendre_tables",
    "ylm_points",
]

_INV_SQRT_4PI = 0.5 / math.sqrt(math.pi)


def legendre_degrees(L: int, x: np.ndarray) -> Iterator[np.ndarray]:
    """Stream normalized theta profiles one degree at a time.

    Runs the normalized three-term recurrence in degree order, vectorised
    over the order ``m``, in three rotating ``(L, len(x))`` buffers, so the
    working memory is ``O(L * len(x))`` whatever ``L`` is and nothing is
    stored between calls.

    Args:
        L: Band-limit.
        x: Vector of ``cos(theta)`` values.

    Yields:
        For ``l = 0 .. L - 1``, an array of shape ``(l + 1, len(x))`` whose
        row ``m`` holds ``sqrt((2l+1)/(4pi) (l-m)!/(l+m)!) P_l^m(x)``.  The
        array is a view into a reused buffer: it stays valid until the
        generator is advanced three more degrees.
    """
    L = check_bandlimit(L)
    x = np.asarray(x, dtype=np.float64)
    s = np.sqrt((1.0 - x) * (1.0 + x))
    bufs = [np.empty((L, x.size)) for _ in range(3)]
    tmp = np.empty((L, x.size))
    for el in range(L):
        cur, p1, p2 = bufs[el % 3], bufs[(el - 1) % 3], bufs[(el - 2) % 3]
        if el == 0:
            cur[0] = _INV_SQRT_4PI
        else:
            k = el - 1  # orders m < l - 1 come from the three-term recurrence
            m = np.arange(k)
            a = np.sqrt((4.0 * el * el - 1.0) / (el * el - m * m))
            e1 = (el - 1.0) ** 2
            b = np.sqrt((e1 - m * m) / (4.0 * e1 - 1.0))
            # a (x p_{l-1} - b p_{l-2}) with the operations, and their order,
            # of the row-by-row recurrence, so the results match it bit for bit
            np.multiply(x, p1[:k], out=cur[:k])
            np.multiply(b[:, None], p2[:k], out=tmp[:k])
            np.subtract(cur[:k], tmp[:k], out=cur[:k])
            np.multiply(a[:, None], cur[:k], out=cur[:k])
            # m = l - 1 and m = l from the sectoral profile of degree l - 1
            cur[k] = x * math.sqrt(2.0 * k + 3.0) * p1[k]
            cur[el] = p1[k] * (-math.sqrt((2 * el + 1) / (2.0 * el))) * s
        yield cur[: el + 1]


def norm_legendre_tables(L: int, x: np.ndarray) -> list[np.ndarray]:
    """Normalized theta profiles for all degrees below ``L`` at nodes ``x``.

    Collects :func:`legendre_degrees` into per-order tables, which are
    consecutive row ranges of one array, so each degree's block is placed
    with a single indexed assignment.

    Args:
        L: Band-limit.
        x: Vector of ``cos(theta)`` values.

    Returns:
        List indexed by order ``m``; entry ``m`` is an array of shape
        ``(L - m, len(x))`` whose row ``j`` holds
        ``sqrt((2l+1)/(4pi) (l-m)!/(l+m)!) P_l^m(x)`` for ``l = m + j``.
    """
    L = check_bandlimit(L)
    x = np.asarray(x, dtype=np.float64)
    m = np.arange(L)
    start = m * L - m * (m - 1) // 2  # first row of order m's table
    rows = np.empty((L * (L + 1) // 2, x.size))
    for el, block in enumerate(legendre_degrees(L, x)):
        rows[start[: el + 1] + el - m[: el + 1]] = block
    return [rows[start[k] : start[k] + L - k] for k in range(L)]


def ylm_points(L: int, x: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Harmonics below ``L`` at points given by ``cos(theta)`` and ``phi``.

    Returns ``Y[i, flat_index(l, m)] = Y_lm(theta_i, phi_i)`` where
    ``x[i] = cos(theta_i)``.
    """
    tables = norm_legendre_tables(L, x)
    mat = np.empty((len(phi), L * L), dtype=np.complex128)
    for m in range(L):
        phase = np.exp(1j * m * phi)
        ells = np.arange(m, L)
        cols_pos = ells * ells + ells + m
        mat[:, cols_pos] = (tables[m] * phase[None, :]).T
        if m > 0:
            cols_neg = ells * ells + ells - m
            mat[:, cols_neg] = ((-1) ** m) * (tables[m] * np.conj(phase)[None, :]).T
    return mat


def check_delta_bandlimit(L) -> int:
    """``L`` as a band-limit the Delta recursion supports: ``1 <= L <= 1024``."""
    L = check_bandlimit(L)
    if L > 1024:  # see the module docstring
        raise ValueError(f"Wigner recursion supports band-limits up to 1024, got {L}")
    return L


def delta_quadrants(L: int) -> Iterator[np.ndarray]:
    """Stream ``D[m', m] = d^l_{m'm}(pi/2)`` for ``m', m >= 0``, ``l < L``.

    Runs ``d^{l+1} = -(2l+1)/l (m/u_m)(n/u_n) d^l - (l+1)/l (v_m/u_m)(v_n/u_n)
    d^{l-1}``, ``u_m = sqrt((l+1)**2 - m**2)``, ``v_m = sqrt(l**2 - m**2)``, in
    three rotating ``(L, L)`` buffers, seeding the new edge row by ``d^l_{l,n}
    = sqrt(2l(2l-1) / ((l+n)(l+n-1))) d^{l-1}_{l-1,n-1} / 2``, ``d^l_{l,0} =
    -sqrt((2l-1)/(2l)) d^{l-1}_{l-1,0}``.  Each ``(l+1, l+1)`` view stays valid
    for three more degrees.  ``L > 1024`` raises ``ValueError`` before any work.
    """
    L = check_delta_bandlimit(L)
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


# The contraction at degree l reads only the rows m' = l (mod 2), where D_{m'0}
# is non-zero and D_{m',-m} = D_{m'm}; there D_{m'm} = (-1)**(m' - m) D_{mm'}.
# So with W[m, j] = sqrt((2l+1)/(4 pi)) D_{m,m'} D_{0,m'}, m >= 0, m' = l % 2 + 2j,
# sqrt((2l+1)/(4 pi)) sum_{m'} D_{m',+-m} D_{m'0} x_{m'} = (-1)**m W[m] @ x.
def _contraction_weights(L: int) -> Iterator[tuple[int, np.ndarray]]:
    for el, quad in enumerate(delta_quadrants(L)):
        cols = quad[:, el % 2 :: 2]
        yield el, cols * (math.sqrt((2 * el + 1) / (4 * math.pi)) * cols[0])


def _torus_orders(L: int) -> tuple[np.ndarray, np.ndarray]:
    # (-1)**m for m = -(L-1) .. L-1, and i**m (-1)**m = (-i)**m for m = 0 .. L-1
    m = np.arange(1 - L, L)
    return 1.0 - 2.0 * (m % 2), np.array([1, -1j, -1, 1j])[m[L - 1 :] % 4]


def delta_forward(g_mm: np.ndarray, L: int) -> np.ndarray:
    """Flat coefficients from ``g_mm[m + L - 1, m' + L - 1] = int_0^pi G_m(theta)
    sin(theta) e^{-i m' theta} dtheta``, ``|m|, |m'| < L``, where ``G_m`` is the
    ``e^{-i m phi}`` Fourier coefficient over longitude.  As ``D_{-m',m} D_{-m',0}
    = (-1)**m D_{m'm} D_{m'0}``, ``G_{m,-m'}`` is folded onto ``G_{m,m'}`` once."""
    L = check_delta_bandlimit(L)
    parity, phase = _torus_orders(L)
    # h[m + L - 1, m'] = G_{m,m'} + (-1)**m G_{m,-m'} for m' > 0, G_{m,0} at m' = 0
    h = g_mm[:, L - 1 :].copy()
    h[:, 1:] += parity[:, None] * g_mm[:, : L - 1][:, ::-1]
    # real (m >= 0, re/im of +m and of -m, m'), one array per parity of m'
    pm = np.stack([h[L - 1 :], h[L - 1 :: -1]], axis=1)
    rows = np.stack([pm.real, pm.imag], axis=2).reshape(L, 4, L)
    halves = [np.ascontiguousarray(rows[:, :, p::2]) for p in (0, 1)]
    coeffs = np.empty(L * L, dtype=np.complex128)
    for el, w in _contraction_weights(L):
        r = np.matmul(halves[el % 2][: el + 1, :, : w.shape[1]], w[:, :, None])
        r = r.reshape(el + 1, 4).view(np.complex128)  # (m, +m/-m)
        centre = el * el + el
        coeffs[centre : centre + el + 1] = phase[: el + 1] * r[:, 0]
        coeffs[el * el : centre] = (phase[1 : el + 1].conj() * r[1:, 1])[::-1]
    return coeffs


def delta_inverse(values: np.ndarray, L: int) -> np.ndarray:
    """Torus coefficients ``F[m + L - 1, m' + L - 1]`` of the expansion with flat
    coefficients ``values``: ``f(theta, phi) = sum F_{mm'} e^{i m' theta} e^{i m
    phi}``, with ``F_{m,-m'} = (-1)**m F_{m,m'}``; the adjoint steps of
    :func:`delta_forward`, streaming :func:`delta_quadrants` the same way."""
    L = check_delta_bandlimit(L)
    parity, phase = _torus_orders(L)
    acc = [np.zeros((L, 4, (L + 1 - p) // 2)) for p in (0, 1)]
    batch = [[], []]  # per parity of l, up to 8 degrees added by one matmul
    for el, w in _contraction_weights(L):
        m, centre = np.arange(el + 1), el * el + el
        c = np.stack([phase[m].conj() * values[centre + m], phase[m] * values[centre - m]], 1)
        pending = batch[el % 2]
        pending.append((c.view(np.float64), w))  # c: (m, +m/-m), phased
        if len(pending) == 8 or el >= L - 2:
            n, a = w.shape
            cb, wb = np.zeros((n, 4, len(pending))), np.zeros((n, len(pending), a))
            for i, (ci, wi) in enumerate(pending):
                cb[: len(ci), :, i] = ci
                wb[: len(wi), i, : wi.shape[1]] = wi
            acc[el % 2][:n, :, :a] += cb @ wb
            pending.clear()
    f = np.empty((2 * L - 1, 2 * L - 1), dtype=np.complex128)
    for p, part in enumerate(acc):  # part[m >= 0, re/im of +m and of -m, m' = p + 2j]
        f[L - 1 :, L - 1 + p :: 2] = part[:, 0] + 1j * part[:, 1]
        f[L - 1 :: -1, L - 1 + p :: 2] = part[:, 2] + 1j * part[:, 3]
    f[:, : L - 1] = parity[:, None] * f[:, : L - 1 : -1]
    return f
