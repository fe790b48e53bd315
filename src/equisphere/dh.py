"""Driscoll-Healy sampling theorem: weights, forward, inverse, integration.

The forward transform is the explicit quadrature

    f_lm = sum_t sum_p q(theta_t) f(theta_t, phi_p) conj(Y_lm)

evaluated by separation of variables: length ``2L`` FFTs over longitude,
then weighted contractions against normalized Legendre profiles over the
latitude rows, for an ``O(L**3)`` total.  The profiles are streamed one
degree at a time (:func:`~equisphere.wigner.legendre_degrees`) on the
``L + 1`` northern rows only, pole and equator included; row ``2L - t``
sits at ``-cos(theta_t)``, so the equatorial symmetry
``P_l^m(-x) = (-1)**(l + m) P_l^m(x)`` supplies the southern rows.  The
forward folds each southern row onto its northern partner as a sum and a
difference and contracts every degree against the one of matching
``l + m`` parity; the inverse keeps even-degree and odd-degree sums apart
and unfolds them at the end.  No table is stored: working memory is
``O(L * n_theta)``.  The quadrature weights

    q(theta_t) = (2 pi / L**2) sin(theta_t)
                 sum_{k<L} sin((2k+1) theta_t) / (2k+1)

satisfy ``sum_t q(theta_t) P_l(cos theta_t) = (2 pi / L) delta_{l0}`` for
every ``l < 2L``, which makes the rule exact for signals band-limited at
``L``.  The pole row has zero weight, so the forward transform ignores it;
the inverse still synthesizes it.  Entry checks, per-sample weights and the
dense reference inverse are the ones shared with MW (``samples``, ``wigner``).
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
from .wigner import inverse_direct, legendre_degrees, ylm_matrix

__all__ = [
    "DhWeights",
    "dh_weights",
    "dh_forward",
    "dh_inverse",
    "dh_integrate",
    "dh_forward_direct",
    "dh_inverse_direct",
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
    theta = theta_nodes(make_grid(GridKind.DH, L))
    k = 2 * np.arange(L) + 1
    # sum_k sin((2k+1) theta) / (2k+1), one row per theta
    s = (np.sin(np.outer(theta, k)) / k).sum(axis=1)
    q = (2 * np.pi / L**2) * np.sin(theta) * s
    return DhWeights(L, q)


def _signs(L: int) -> np.ndarray:
    return 1.0 - 2.0 * (np.arange(L) % 2)  # (-1)**m


def _real_rows(a: np.ndarray) -> np.ndarray:
    # complex (t, m, +m/-m) -> real (m, re/im of +m/-m, t), contiguous in t
    return np.ascontiguousarray(a.view(np.float64).transpose(1, 2, 0))


def dh_forward(signal: SphereSignal) -> HarmonicCoeffs:
    """Harmonic coefficients of a DH-sampled band-limited signal.

    Exact (to rounding) for signals band-limited at the grid's ``L``.
    """
    grid = checked_grid(GridKind.DH, signal)
    L = grid.L
    g = np.fft.fft(expand(signal), axis=1)  # column m: sum_p f e^{-i m phi_p}
    wg = dh_weights(L).q[:, None] * g
    m = np.arange(L)
    w = np.stack([wg[:, m], wg[:, -m]], axis=-1)  # (t, m, +m/-m)
    # Row 2L - t sits at -cos(theta_t): fold it onto row t as a sum, which
    # pairs with profiles of even l + m, and a difference, which pairs with
    # odd l + m.  The pole (t = 0) and the equator (t = L) have no partner.
    north = w[: L + 1]
    south = np.zeros_like(north)
    south[1:L] = w[: L : -1]
    even, odd = north + south, north - south
    odd_m = (m % 2 == 1)[None, :, None]
    # fold[l % 2]: real (m, re/im of +m/-m, t) rows for degrees of that parity
    fold = [
        _real_rows(np.where(odd_m, odd, even)),
        _real_rows(np.where(odd_m, even, odd)),
    ]
    signs = _signs(L)
    coeffs = np.empty(L * L, dtype=np.complex128)
    x = np.cos(theta_nodes(grid)[: L + 1])
    for el, block in enumerate(legendre_degrees(L, x)):
        r = np.matmul(fold[el % 2][: el + 1], block[:, :, None])
        r = r[:, :, 0].view(np.complex128)  # (m, +m/-m)
        centre = el * el + el
        coeffs[centre : centre + el + 1] = r[:, 0]
        coeffs[el * el : centre] = (signs[1 : el + 1] * r[1:, 1])[::-1]
    return HarmonicCoeffs(L, coeffs)


def dh_inverse(coeffs: HarmonicCoeffs, L: int | None = None) -> SphereSignal:
    """Synthesize the band-limited expansion at every DH node."""
    grid = checked_grid(GridKind.DH, coeffs, L)
    L = grid.L
    x = np.cos(theta_nodes(grid)[: L + 1])
    signs = _signs(L)
    vals = coeffs.values
    # Northern-row sums over even and over odd degrees, kept apart so the
    # southern rows follow from P_l^m(-x) = (-1)**(l + m) P_l^m(x).
    acc = np.zeros((2, L, 4, L + 1))  # (l parity, m, re/im of +m/-m, t)
    c = np.zeros((L, 2), dtype=np.complex128)
    cr = c.view(np.float64)
    for el, block in enumerate(legendre_degrees(L, x)):
        centre = el * el + el
        c[: el + 1, 0] = vals[centre : centre + el + 1]
        c[1 : el + 1, 1] = signs[1 : el + 1] * vals[el * el : centre][::-1]
        acc[el % 2, : el + 1] += cr[: el + 1, :, None] * block[:, None, :]
    even, odd = (
        np.ascontiguousarray(a.transpose(2, 0, 1)).view(np.complex128) for a in acc
    )  # (t, m, +m/-m)
    rows = np.concatenate(
        [even + odd, ((even - odd) * signs[None, :, None])[L - 1 : 0 : -1]]
    )
    h = np.zeros((grid.n_theta, grid.n_phi), dtype=np.complex128)
    h[:, :L] = rows[:, :, 0]
    h[:, grid.n_phi - L + 1 :] = rows[:, :0:-1, 1]
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


def dh_forward_direct(signal: SphereSignal) -> HarmonicCoeffs:
    """Reference forward path: one dense quadrature sum per coefficient.

    O(L**4); kept as an independent check on the separated transform.
    """
    grid = checked_grid(GridKind.DH, signal)
    w = dh_sample_weights(grid)
    coeffs = ylm_matrix(grid).conj().T @ (w * signal.values)
    return HarmonicCoeffs(grid.L, coeffs)


def dh_inverse_direct(coeffs: HarmonicCoeffs, L: int | None = None) -> SphereSignal:
    """Reference inverse path: dense synthesis matrix applied to coefficients."""
    return inverse_direct(checked_grid(GridKind.DH, coeffs, L), coeffs)
