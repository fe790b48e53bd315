"""Spherical harmonics and the Wigner-Delta engine they are evaluated with.

Spherical harmonics follow the Condon-Shortley phase convention with the
``(-1)**m`` factor folded into the associated Legendre functions:

    Y_lm(theta, phi) = sqrt((2l+1)/(4 pi) (l-m)!/(l+m)!)
                       P_l^m(cos theta) exp(i m phi)

and ``Y_{l,-m} = (-1)**m conj(Y_lm)``.

Wigner small-d values at ``beta = pi/2`` come from the three-term recurrence
in degree (Kostelec & Rockmore 2008), run on ``E^l_{mn} = (-1)**m
d^l_{mn}(pi/2)``.  As ``d_{nm} = (-1)**(m-n) d_{mn}`` (Trapani & Navaza 2006),
``E`` is symmetric, so :func:`_delta_triangles` keeps one packed row-major
lower triangle, ``n <= m``: degree ``l`` is a contiguous prefix of
``(l+1)(l+2)/2`` entries and each step is a few flat passes over it, one
degree at a time in ``O(L**2)`` memory.  Its smallest value, the exact corner
seed ``|E^l_{ll}| = 2**-l``, loses at most one bit to the subnormal range
through ``l = 1023`` but reaches zero near ``l = 1075``, where the recursion
would silently return zeros: so ``L <= 1024`` is supported (an MW round trip
there is exact to about 6e-14) and larger band-limits raise ``ValueError``.

Both grids' transforms share one harmonic step on a torus spectrum (the
signal's Fourier series in ``theta``, continued to ``[0, 2 pi)``):
:func:`delta_forward` is the Delta contraction ``f_lm = i**m sqrt((2l+1)/
(4 pi)) sum_{m'} D^l_{m'm} D^l_{m'0} G_{mm'}`` and :func:`delta_inverse`
returns the torus coefficients ``F_{mm'}`` of an expansion.  Both take the
contraction weights from :func:`_weight_batches`, gathered from the triangle
eight degrees of one parity at a time, so each order meets a batch in one
matrix product.  The same weights give the normalized theta profiles of
:func:`norm_legendre_tables` as Delta sums, so this one recursion is the
package's only special-function engine.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np

from .samples import check_bandlimit

__all__ = [
    "check_delta_bandlimit",
    "delta_forward",
    "delta_inverse",
    "norm_legendre_tables",
    "ylm_points",
]


def norm_legendre_tables(L: int, theta: np.ndarray) -> list[np.ndarray]:
    """Normalized theta profiles for all degrees below ``L`` at colatitudes ``theta``.

    As ``d^l_{m0}(theta) = i**-m sum_{m'} D^l_{m'm} D^l_{m'0} e^{i m' theta}``,
    each profile is a contraction weight row of :func:`_weight_batches`
    applied to ``kappa cos(m' theta)`` for even ``m`` and ``kappa sin(m'
    theta)`` for odd ``m``, ``kappa = 2`` (1 at ``m' = 0``), with the sign
    ``(-1)**(m // 2)``.  ``L > 1024`` raises ``ValueError``.

    Returns:
        List indexed by order ``m``; entry ``m`` is an array of shape
        ``(L - m, len(theta))`` whose row ``j`` holds
        ``sqrt((2l+1)/(4pi) (l-m)!/(l+m)!) P_l^m(cos theta)`` for ``l = m + j``.
    """
    L = check_delta_bandlimit(L)
    theta = np.asarray(theta, dtype=np.float64)
    m = np.arange(L)
    arg = np.multiply.outer(m, theta)
    kappa = np.where(m == 0, 1.0, 2.0)[:, None]
    trig = (kappa * np.cos(arg), kappa * np.sin(arg))  # rows m'; for even, odd m
    sign = (1.0 - 2.0 * (m // 2 % 2))[:, None]
    start = m * L - m * (m - 1) // 2  # first row of order m's table
    rows = np.empty((L * (L + 1) // 2, theta.size))
    for p, degrees, w in _weight_batches(L):
        k, n, a = w.shape
        prof = np.empty((k, n, theta.size))
        for q in (0, 1):
            np.matmul(w[:, q::2], trig[q][p : p + 2 * a : 2], out=prof[:, q::2])
        prof *= sign[:n]
        for el, block in zip(degrees, prof):
            rows[start[: el + 1] + el - m[: el + 1]] = block[: el + 1]
    return [rows[start[k] : start[k] + L - k] for k in range(L)]


def ylm_points(L: int, theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Harmonics below ``L`` at the points ``(theta, phi)``.

    Returns ``Y[i, flat_index(l, m)] = Y_lm(theta_i, phi_i)``.
    """
    m = np.repeat(np.arange(L), np.arange(L, 0, -1))  # order of each table row
    el = np.arange(m.size) - m * L + m * (m + 1) // 2  # its degree
    y = np.concatenate(norm_legendre_tables(L, theta)).T * np.exp(1j * np.multiply.outer(phi, m))
    mat = np.empty((len(phi), L * L), dtype=np.complex128)
    mat[:, el * el + el - m] = (1.0 - 2.0 * (m % 2)) * y.conj()
    mat[:, el * el + el + m] = y  # m = 0 last, over its own conjugate
    return mat


def check_delta_bandlimit(L) -> int:
    """``L`` as a band-limit the Delta recursion supports: ``1 <= L <= 1024``."""
    L = check_bandlimit(L)
    if L > 1024:  # see the module docstring
        raise ValueError(f"Wigner recursion supports band-limits up to 1024, got {L}")
    return L


def _packed_index(L: int) -> tuple[np.ndarray, np.ndarray]:
    # row m and column n of each entry of a row-major packed lower triangle,
    # entry (m, n) at m (m + 1) / 2 + n, n <= m < L
    rows = np.repeat(np.arange(L), np.arange(1, L + 1))
    return rows, np.arange(rows.size) - rows * (rows + 1) // 2


def _delta_triangles(L: int) -> Iterator[np.ndarray]:
    """Stream ``E^l_{mn} = (-1)**m d^l_{mn}(pi/2)``, ``n <= m <= l``, for ``l < L``.

    ``E`` is symmetric, so one row-major lower triangle holds it: entry
    ``(m, n)`` sits at ``m (m + 1) / 2 + n`` whatever the degree, and degree
    ``l`` fills the prefix of length ``(l + 1)(l + 2) / 2``.  Rows ``m < l``
    come from ``E^l = -(2l-1)/(l-1) a_m a_n E^{l-1} - l/(l-1) b_m b_n
    E^{l-2}``, ``a_m = m / u_m``, ``b_m = sqrt((l-1)**2 - m**2) / u_m``, ``u_m
    = sqrt(l**2 - m**2)``: flat passes over a prefix, with both terms'
    factors gathered per packed entry at once.  The edge row comes from the
    last row of degree ``l - 1``: ``E^l_{ln} = -sqrt(2l(2l-1) / ((l+n)(l+n-1)))
    / 2 E^{l-1}_{l-1,n-1}`` and ``E^l_{l0} = sqrt((2l-1)/(2l)) E^{l-1}_{l-1,0}``.

    Yields the whole buffer of length ``L (L + 1) / 2`` for each degree:
    the prefix holds degree ``l`` and every entry past it is zero.  The three
    rotating buffers are allocated once per call, and each yielded one stays
    valid for three more degrees.  ``L > 1024`` raises ``ValueError`` before
    any work.
    """
    L = check_delta_bandlimit(L)
    rows, cols = _packed_index(L)
    size = rows.size
    bufs = [np.zeros(size) for _ in range(3)]
    m = np.arange(L, dtype=np.float64)
    msq = m * m
    j = np.arange(2 * L, dtype=np.float64)
    pairs = j * (j - 1)  # (l + n)(l + n - 1) of the edge seed, at j = l + n
    # [row, column factor][order, E^{l-1} / E^{l-2} term]; per packed entry
    # their products, fac[:, 0] = c a_m a_n and fac[:, 1] = c' b_m b_n
    src = np.zeros((2, L, 2))
    fac, tmp = np.empty((size, 2)), np.empty((size, 2))
    u_prev, u = np.empty(L), np.empty(L)
    for el in range(L):
        cur, p1, p2 = bufs[el % 3], bufs[(el - 1) % 3], bufs[(el - 2) % 3]
        k = el - 1  # degree l comes from degrees k and k - 1
        t, tk = el * (el + 1) // 2, k * el // 2  # entries of rows m < l, m < k
        u_prev, u = u, u_prev  # u_m of degree k, then of degree l
        np.sqrt(el * el - msq[:el], out=u[:el])
        if el < 2:
            cur[0] = 1.0 - el  # d^1_00 = cos(pi/2) = 0
        else:  # row k has b = 0: no E^{k-1} term
            np.divide(m[:el], u[:el], out=src[0, :el, 0])
            np.divide(u_prev[:k], u[:k], out=src[0, :k, 1])
            np.multiply(src[0, :el], ((2 * k + 1) / -k, (k + 1) / k), out=src[1, :el])
            np.take(src[0], rows[:t], axis=0, out=fac[:t], mode="clip")
            np.multiply(fac[:t], np.take(src[1], cols[:t], axis=0, out=tmp[:t], mode="clip"), out=fac[:t])
            np.multiply(p1[:t], fac[:t, 0], out=cur[:t])
            np.multiply(p2[:tk], fac[:tk, 1], out=tmp[:tk, 0])
            np.subtract(cur[:tk], tmp[:tk, 0], out=cur[:tk])
        if el:
            seed = -0.5 * np.sqrt(2 * el * (2 * el - 1) / pairs[el + 1 : 2 * el + 1])
            np.multiply(p1[tk:t], seed, out=cur[t + 1 : t + el + 1])
            cur[t] = math.sqrt((2 * el - 1) / (2.0 * el)) * p1[tk]
        yield cur


# The contraction at degree l reads only the columns m' = l (mod 2), where
# D_{m'0} is non-zero and D_{m',-m} = D_{m'm}; there D_{m'm} = (-1)**(m' - m)
# D_{mm'} = (-1)**m E_{mm'}.  So with W[m, j] = sqrt((2l+1)/(4 pi)) E_{mm'} E_{0m'},
# m >= 0, m' = l % 2 + 2j <= l: sqrt((2l+1)/(4 pi)) sum_{m'} D_{m',+-m} D_{m'0}
# x_{m'} = W[m] @ x.
def _weight_batches(L: int) -> Iterator[tuple[int, range, np.ndarray]]:
    """Stream the contraction weights ``W`` eight degrees of one parity at a time.

    Yields ``(p, degrees, w)``: ``w[i, m, j]`` is ``W[m, j]`` of degree ``l =
    degrees[i]`` (all ``= p`` mod 2) and zero where ``m > l`` or ``p + 2j > l``;
    ``w`` has shape ``(len(degrees), n + 1, n // 2 + 1)`` for the batch's last
    degree ``n``, and stays valid until the generator advances.

    Slot ``i`` of a parity's ring holds each batch's ``i``-th degree, as that
    batch's ``(n + 1, n // 2 + 1)`` layout from the slot's start, gathered
    from the whole triangle in one take through ``pos[m, j]``, the packed
    place of ``E_{m, p + 2j}``: of ``(m, m')`` when ``m >= m'``, else of
    ``(m', m)``, the larger offset.  The positions of ``m' > l`` fall past
    the degree's prefix, where the triangle is zero.  A slot's degrees and
    layouts only grow, so what a batch reads past its degree's rows is still
    zero from the allocation.
    """
    L = check_delta_bandlimit(L)
    m = np.arange(L)
    tri_row = m * (m + 1) // 2  # packed offset of row m
    ring = [np.zeros((8, L * ((L + 1 - p) // 2))) for p in (0, 1)]
    pos = [None, None]
    for el, tri in enumerate(_delta_triangles(L)):
        p, i = el % 2, (el // 2) % 8
        last = min(el - 2 * i + 14, L - 1 - (L - 1 - p) % 2)  # the batch's last degree
        mp = m[p : last + 1 : 2]
        if i == 0:
            pos[p] = np.maximum(np.add.outer(tri_row[: last + 1], mp), np.add.outer(m[: last + 1], tri_row[mp]))
        size = (el + 1) * mp.size
        # every position is in range; "clip" only spares the copy "raise" makes of out
        w = np.take(tri, pos[p].ravel()[:size], out=ring[p][i, :size], mode="clip").reshape(el + 1, -1)
        w *= math.sqrt((2 * el + 1) / (4 * math.pi)) * w[0]
        if el == last:
            yield p, range(el - 2 * i, el + 1, 2), ring[p][: i + 1, : pos[p].size].reshape(i + 1, *pos[p].shape)


def _torus_orders(L: int) -> tuple[np.ndarray, np.ndarray]:
    # (-1)**m for m = -(L-1) .. L-1, and i**m for m = 0 .. L-1
    m = np.arange(1 - L, L)
    return 1.0 - 2.0 * (m % 2), np.array([1, 1j, -1, -1j])[m[L - 1 :] % 4]


def delta_forward(g_mm: np.ndarray, L: int) -> np.ndarray:
    """Flat coefficients from ``g_mm[m + L - 1, m' + L - 1] = int_0^pi G_m(theta)
    sin(theta) e^{-i m' theta} dtheta``, ``|m|, |m'| < L``, where ``G_m`` is the
    ``e^{-i m phi}`` Fourier coefficient over longitude.  As ``D_{-m',m} D_{-m',0}
    = (-1)**m D_{m'm} D_{m'0}``, ``G_{m,-m'}`` is folded onto ``G_{m,m'}`` once;
    then one matrix product per order and batch of eight degrees applies the
    weights gathered from the packed symmetric triangle."""
    L = check_delta_bandlimit(L)
    parity, phase = _torus_orders(L)
    # h[m + L - 1, m'] = G_{m,m'} + (-1)**m G_{m,-m'} for m' > 0, G_{m,0} at m' = 0
    h = g_mm[:, L - 1 :].copy()
    h[:, 1:] += parity[:, None] * g_mm[:, : L - 1][:, ::-1]
    # real (m >= 0, re/im of +m and of -m, m' = p + 2j), one array per parity p
    halves = [np.empty((L, 4, (L + 1 - p) // 2)) for p in (0, 1)]
    for p, half in enumerate(halves):
        for q, part in enumerate((h[L - 1 :, p::2], h[L - 1 :: -1, p::2])):
            half[:, 2 * q], half[:, 2 * q + 1] = part.real, part.imag
    del h  # not held through the loop, where the weights' buffers live
    r = np.empty((L * (L + 1) // 2, 2), dtype=np.complex128)  # (l, m) packed; +m/-m
    for p, degrees, w in _weight_batches(L):
        _, n, a = w.shape
        rb = np.matmul(halves[p][:n, :, :a], w.transpose(1, 2, 0))  # (m, 4, degree)
        rb = np.ascontiguousarray(rb.transpose(2, 0, 1)).view(np.complex128)  # (degree, m, +m/-m)
        for el, x in zip(degrees, rb):
            r[el * (el + 1) // 2 : (el + 1) * (el + 2) // 2] = x[: el + 1]
    deg, m = _packed_index(L)
    centre, neg = deg * deg + deg, m > 0
    coeffs = np.empty(L * L, dtype=np.complex128)
    coeffs[centre + m] = phase[m] * r[:, 0]
    coeffs[centre[neg] - m[neg]] = phase[m[neg]].conj() * r[neg, 1]
    return coeffs


def delta_inverse(values: np.ndarray, L: int) -> np.ndarray:
    """Torus coefficients ``F[m + L - 1, m' + L - 1]`` of the expansion with flat
    coefficients ``values``: ``f(theta, phi) = sum F_{mm'} e^{i m' theta} e^{i m
    phi}``, with ``F_{m,-m'} = (-1)**m F_{m,m'}``; the adjoint steps of
    :func:`delta_forward`, on the same batches of weights."""
    L = check_delta_bandlimit(L)
    parity, phase = _torus_orders(L)
    widths = [(L + 1 - p) // 2 for p in (0, 1)]  # m' = p + 2j < L
    acc = [np.zeros((L, 4, a)) for a in widths]
    # phased coefficients (m, re/im of +m and of -m, slot); a slot's degrees
    # only grow, so what a batch reads past its own degree is still zero
    cb, prod = np.zeros((L, 4, 8)), np.empty((L, 4, widths[0]))
    deg, m = _packed_index(L)
    centre = deg * deg + deg
    c = np.stack([phase[m].conj() * values[centre + m], phase[m] * values[centre - m]], 1)
    c = c.view(np.float64)  # (l, m) packed; re/im of +m and of -m, phased
    for p, degrees, w in _weight_batches(L):
        k, n, a = w.shape
        for i, el in enumerate(degrees):
            cb[: el + 1, :, i] = c[el * (el + 1) // 2 : (el + 1) * (el + 2) // 2]
        np.matmul(cb[:n, :, :k], w.transpose(1, 0, 2), out=prod[:n, :, :a])
        acc[p][:n, :, :a] += prod[:n, :, :a]
    f = np.empty((2 * L - 1, 2 * L - 1), dtype=np.complex128)
    for p, part in enumerate(acc):  # part[m >= 0, re/im of +m and of -m, m' = p + 2j]
        f[L - 1 :, L - 1 + p :: 2] = part[:, 0] + 1j * part[:, 1]
        f[L - 1 :: -1, L - 1 + p :: 2] = part[:, 2] + 1j * part[:, 3]
    f[:, : L - 1] = parity[:, None] * f[:, : L - 1 : -1]
    return f
