"""McEwen-Wiaux sampling theorem: FFT chain through the torus.

The forward transform runs, in order:

1. ``G_m(theta_t)``: length ``2L - 1`` FFTs over longitude with a
   ``2 pi / (2L - 1)`` prefactor (``e^{-i m phi}`` convention).
2. Periodic extension of each ``G_m`` to colatitudes covering ``[0, 2 pi)``
   with the parity factor ``(-1)**m``; the reflection uses rows
   ``theta_{2L-2-t}`` so the pole row is never duplicated.
3. ``F_{mm'}``: FFTs over the extended colatitude axis.  The nodes sit at
   ``theta_t = 2 pi (t + 1/2) / (2L - 1)``, so each frequency picks up a
   half-sample phase ``e^{-i pi m' / (2L - 1)}``.
4. ``G_{mm'} = 2 pi sum_{m''} F_{mm''} w(m'' - m')`` where ``w`` is the
   exact integral of ``sin(theta) e^{i m' theta}`` over ``[0, pi]``: one
   product with the ``(2L - 1) x (2L - 1)`` Toeplitz matrix of ``w``.
5. The Delta contraction shared with DH,
   ``f_lm = i**m sqrt((2l+1)/(4 pi)) sum_{m'} D^l_{m'm} D^l_{m'0} G_{mm'}``
   (:func:`~equisphere.wigner.delta_forward`).

Every step is exact for band-limited inputs, so the whole chain is an
exact forward transform at ``O(L**3)`` cost, for ``L <= 1024`` (the Delta
recursion's range).  The inverse is :func:`~equisphere.wigner.synthesize`,
shared with DH.  Only spin zero (scalar) signals are supported.  Entry
checks and per-sample weights are shared with DH through ``samples``, the
Delta engine through ``wigner``.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .samples import (
    GridKind,
    HarmonicCoeffs,
    SphereSignal,
    check_bandlimit,
    checked_grid,
    expand,
    frozen_array,
    sample_weights,
)
from .wigner import check_delta_bandlimit, delta_forward, synthesize

__all__ = [
    "mw_weights",
    "mw_forward",
    "mw_inverse",
    "mw_integrate",
]

# Construction must fail loudly if q picks up imaginary residue beyond this.
_IMAG_TOL = 1e-12


def _weight_fn(mp: np.ndarray) -> np.ndarray:
    # w(m') = int_0^pi sin(theta) e^{i m' theta} dtheta
    mp = np.asarray(mp)
    w = np.zeros(mp.shape, dtype=np.complex128)
    even = mp % 2 == 0
    w[even] = 2.0 / (1.0 - mp[even].astype(np.float64) ** 2)
    w[mp == 1] = 0.5j * np.pi
    w[mp == -1] = -0.5j * np.pi
    return w


def mw_weights(L: int) -> np.ndarray:
    """MW row weights ``q(theta_t)``, ``t < L``, as a read-only float64 vector.

    ``q(theta_t) = (2 pi / (2L-1)) [v(theta_t) + (1 - delta_{t,L-1})
    v(theta_{2L-2-t})]`` where ``v`` is the inverse DFT of the reflected
    weights ``w(-m')`` over ``|m'| < L``.
    """
    L = check_bandlimit(L)
    n = 2 * L - 1
    mp = np.arange(-(L - 1), L)
    # theta_t = pi (2t + 1) / n on the extended axis, so e^{i m' theta_t} is the
    # half-sample phase e^{i pi m' / n} times a length n inverse DFT kernel
    v = np.fft.ifft(np.fft.ifftshift(_weight_fn(-mp) * np.exp(1j * np.pi * mp / n)))
    t = np.arange(L)
    q = (2 * np.pi / n) * (v[:L] + np.where(t == L - 1, 0, v[2 * L - 2 - t]))
    if np.abs(q.imag).max() > _IMAG_TOL:
        raise ValueError(
            f"MW weights have imaginary residue {np.abs(q.imag).max():.3e} "
            f"above {_IMAG_TOL:.0e}; convention error likely"
        )
    return frozen_array(q.real, L, "MW weights", np.float64)


def _torus_spectrum(signal: SphereSignal) -> np.ndarray:
    """Steps 1-4 of the forward chain: ``G_{mm'}``, indexed ``[m + L - 1, m' + L - 1]``."""
    grid = checked_grid(GridKind.MW, signal)
    L = grid.L
    n = 2 * L - 1
    g = (2 * np.pi / n) * np.fft.fftshift(np.fft.fft(expand(signal), axis=1), axes=1)
    g_ext = np.vstack([g, (-1.0) ** np.abs(np.arange(1 - L, L)) * g[: L - 1][::-1]])
    del g  # each temporary goes as soon as the next is made, to bound the peak
    # FFT over the extended colatitude axis; half-sample node offset.
    mp = np.arange(-(L - 1), L)
    farr = np.fft.fftshift(np.fft.fft(g_ext, axis=0), axes=0)  # [m', m]
    del g_ext
    f_mm = farr.T * np.exp(-1j * np.pi * mp / n)[None, :] / (2 * np.pi * n)
    del farr
    w = _weight_fn(np.arange(1 - n, n))  # entry m'' - m' + n - 1
    # toeplitz[m'', m'] = w(m'' - m'): row m'' of the reversed sliding windows
    toeplitz = np.ascontiguousarray(sliding_window_view(w[::-1], n)[::-1])
    return 2 * np.pi * (f_mm @ toeplitz)


def mw_forward(signal: SphereSignal) -> HarmonicCoeffs:
    """Harmonic coefficients of an MW-sampled band-limited signal.

    Exact (to rounding) for signals band-limited at the grid's ``L``.
    """
    L = check_delta_bandlimit(signal.grid.L)
    return HarmonicCoeffs(L, delta_forward(_torus_spectrum(signal), L))


def mw_inverse(coeffs: HarmonicCoeffs, L: int | None = None) -> SphereSignal:
    """Synthesize the band-limited expansion at every MW node."""
    return synthesize(GridKind.MW, coeffs, L)


def mw_integrate(signal: SphereSignal) -> complex:
    """Integral of a band-limited signal over the sphere via the MW rule.

    Equals ``sqrt(4 pi) f_00`` whenever the signal is band-limited at the
    grid's ``L``.
    """
    grid = checked_grid(GridKind.MW, signal)
    return complex(sample_weights(grid, mw_weights(grid.L)) @ signal.values)
