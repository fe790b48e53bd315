"""Driscoll-Healy sampling theorem: weights, forward, inverse, integration.

The forward transform is the explicit quadrature

    f_lm = sum_t sum_p q(theta_t) f(theta_t, phi_p) conj(Y_lm)

run through the torus: length ``2L`` FFTs over longitude give ``G_m``,
``|m| < L``; as the nodes ``theta_t = 2 pi t / 4L`` are half of a
``4L``-point torus, a zero-padded length ``4L`` FFT of the weighted rows
gives ``G_{mm'} = sum_t q(theta_t) G_m(theta_t) e^{-i m' theta_t}``, and
the Delta contraction shared with MW
(:func:`~equisphere.wigner.delta_forward`) does the rest.  The weights

    q(theta_t) = (2 pi / L**2) sin(theta_t)
                 sum_{k<L} sin((2k+1) theta_t) / (2k+1)

satisfy ``sum_t q(theta_t) P_l(cos theta_t) = (2 pi / L) delta_{l0}`` for
every ``l < 2L``, so the rule is exact for each product of a band-limited
``G_m`` with ``cos(m' theta)`` (even ``m``) or ``sin(m' theta)`` (odd
``m``), the only parts of ``G_{mm'}`` the contraction reads.  The pole row
has zero weight, so the forward transform ignores it; the inverse still
synthesizes it, from :func:`~equisphere.wigner.delta_inverse`'s torus
coefficients by an inverse FFT on a ``(4L, 2L)`` torus, keeping rows
``t < 2L``.  Both directions cost ``O(L**3)`` in ``O(L**2)`` memory for
``L <= 1024``.  Entry checks and per-sample weights are shared with MW
through ``samples``, the Delta engine through ``wigner``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .samples import (
    GridDescriptor,
    GridKind,
    HarmonicCoeffs,
    SphereSignal,
    check_bandlimit,
    checked_grid,
    contract,
    expand,
    frozen_array,
    make_grid,
    sample_weights,
    theta_nodes,
)
from .wigner import check_delta_bandlimit, delta_forward, delta_inverse

__all__ = [
    "DhWeights",
    "dh_weights",
    "dh_forward",
    "dh_inverse",
    "dh_integrate",
    "dh_sample_weights",
]


@dataclass(frozen=True)
class DhWeights:
    """Per-latitude-row quadrature weights ``q(theta_t)``, ``t < 2L``."""

    kind: ClassVar[GridKind] = GridKind.DH
    L: int
    q: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "q", frozen_array(self.q, 2 * self.L, "q", np.float64))


def dh_weights(L: int) -> DhWeights:
    """Quadrature weights for the DH grid at band-limit ``L``."""
    L = check_bandlimit(L)
    theta = theta_nodes(make_grid(GridKind.DH, L))  # pi t / 2L, t < 2L
    # sum_{k<L} sin((2k+1) theta_t) / (2k+1) = Im(e^{i theta_t} sum_k e^{2 pi i k t / 2L}
    # / (2k+1)): one inverse FFT of length 2L
    inv_odd = np.zeros(2 * L)
    inv_odd[:L] = 1.0 / (2 * np.arange(L) + 1)
    s = (np.exp(1j * theta) * np.fft.ifft(inv_odd) * (2 * L)).imag
    q = (2 * np.pi / L**2) * np.sin(theta) * s
    return DhWeights(L, q)


def dh_forward(signal: SphereSignal) -> HarmonicCoeffs:
    """Harmonic coefficients of a DH-sampled band-limited signal.

    Exact (to rounding) for signals band-limited at the grid's ``L``.
    """
    grid = checked_grid(GridKind.DH, signal)
    L = check_delta_bandlimit(grid.L)
    orders = np.arange(1 - L, L)  # m and m', negative ones wrapped
    g = np.fft.fft(expand(signal), axis=1)[:, orders]  # sum_p f e^{-i m phi_p}
    # sum_t q(theta_t) g e^{-i m' theta_t}, theta_t = 2 pi t / 4L: zero-padded FFT
    g_mm = np.fft.fft(dh_weights(L).q[:, None] * g, n=4 * L, axis=0)[orders].T
    return HarmonicCoeffs(L, delta_forward(g_mm, L))


def dh_inverse(coeffs: HarmonicCoeffs, L: int | None = None) -> SphereSignal:
    """Synthesize the band-limited expansion at every DH node."""
    grid = checked_grid(GridKind.DH, coeffs, L)
    L = grid.L
    orders = np.arange(1 - L, L)
    torus = np.zeros((4 * L, 2 * L - 1), dtype=np.complex128)  # [m', m]
    torus[orders] = delta_inverse(coeffs.values, L).T
    h = np.zeros((grid.n_theta, grid.n_phi), dtype=np.complex128)
    h[:, orders] = np.fft.ifft(torus, axis=0)[: 2 * L] * (4 * L)  # rows t < 2L
    f = np.fft.ifft(h, axis=1) * grid.n_phi
    return SphereSignal(grid, contract(grid, f))


def dh_sample_weights(grid: GridDescriptor) -> np.ndarray:
    """Quadrature weight attached to each stored sample (pole ring folded)."""
    return sample_weights(checked_grid(GridKind.DH, grid), dh_weights(grid.L).q)


def dh_integrate(signal: SphereSignal) -> complex:
    """Integral of a band-limited signal over the sphere via the DH rule.

    Equals ``sqrt(4 pi) f_00`` whenever the signal is band-limited at the
    grid's ``L``.
    """
    grid = checked_grid(GridKind.DH, signal)
    return complex(dh_sample_weights(grid) @ signal.values)
