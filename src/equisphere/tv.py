"""Quadrature-weighted discrete total variation on equiangular grids.

The discrete norm approximates ``int |grad f| dOmega`` by

    sum_{t,p} q(theta_t) sqrt( (D_theta x / dtheta)**2
                               + (D_phi x / (sin(theta_t) dphi))**2 )

with forward differences ``(D_theta x)_{t,p} = x_{t+1,p} - x_{t,p}`` (zero
on the last row) and cyclic forward differences along longitude, both
divided by the node spacing.  Because ``q(theta_t)`` carries a
``sin(theta_t)`` factor, the ``1/sin(theta)`` in the gradient magnitude
never blows up; pole rows are single-valued so their longitude term is
identically zero and is excluded from the weighted operator.

:func:`tv_gradient` / :func:`gradient_adjoint` expose the weighted linear
map inside the norm (and its exact adjoint) for use by convex solvers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .samples import (
    GridDescriptor,
    GridMismatchError,
    SphereSignal,
    checked_grid,
    contract_adjoint,
    expand,
    expand_values,
    theta_nodes,
)
from .dh import DhWeights
from .mw import MwWeights
from .transforms import row_weights

__all__ = [
    "GradientField",
    "gradient",
    "tv_gradient",
    "tv_norm",
    "gradient_adjoint",
    "tv_apply_raw",
    "tv_adjoint_raw",
]


@dataclass(frozen=True)
class GradientField:
    """Forward differences along colatitude and longitude, full-grid shape."""

    grid: GridDescriptor
    d_theta: np.ndarray
    d_phi: np.ndarray

    def __post_init__(self):
        shape = (self.grid.n_theta, self.grid.n_phi)
        for name in ("d_theta", "d_phi"):
            arr = np.asarray(getattr(self, name))
            if arr.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
            object.__setattr__(self, name, arr)


def _raw_diffs(full: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    d_theta = np.zeros_like(full)
    d_theta[:-1] = full[1:] - full[:-1]
    d_phi = np.roll(full, -1, axis=1) - full
    return d_theta, d_phi


def gradient(signal: SphereSignal) -> GradientField:
    """Raw forward-difference field of a signal (pole rows broadcast)."""
    full = expand(signal)
    d_theta, d_phi = _raw_diffs(full)
    return GradientField(signal.grid, d_theta, d_phi)


def _resolve_weights(grid: GridDescriptor, weights) -> np.ndarray:
    if weights is None:
        weights = row_weights(grid)
    elif isinstance(weights, (DhWeights, MwWeights)):
        if weights.kind is not grid.kind or weights.L != grid.L:
            raise GridMismatchError(
                f"{weights.kind.name} weights do not match the signal grid"
            )
        weights = weights.q
    q = np.asarray(weights, dtype=np.float64)
    if q.shape != (grid.n_theta,):
        raise GridMismatchError(
            f"expected {grid.n_theta} row weights, got shape {q.shape}"
        )
    return q


def _row_scales(grid: GridDescriptor, weights) -> tuple[np.ndarray, np.ndarray]:
    # Per-row factors applied to the raw differences inside the norm.
    q = _resolve_weights(grid, weights)
    a_theta = q / grid.dtheta
    a_theta = a_theta.copy()
    a_theta[-1] = 0.0  # no theta difference out of the last row
    sin_t = np.sin(theta_nodes(grid))
    a_phi = np.zeros(grid.n_theta)
    mask = np.ones(grid.n_theta, dtype=bool)
    mask[grid.pole_row] = False  # single-valued ring: no longitude term
    mask &= sin_t > 0
    a_phi[mask] = q[mask] / (sin_t[mask] * grid.dphi)
    return a_theta, a_phi


def tv_apply_raw(
    grid: GridDescriptor,
    a_theta: np.ndarray,
    a_phi: np.ndarray,
    vec: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    # Weighted difference operator on a stored sample vector.
    d_theta, d_phi = _raw_diffs(expand_values(grid, vec))
    return a_theta[:, None] * d_theta, a_phi[:, None] * d_phi


def tv_adjoint_raw(
    grid: GridDescriptor,
    a_theta: np.ndarray,
    a_phi: np.ndarray,
    u_theta: np.ndarray,
    u_phi: np.ndarray,
) -> np.ndarray:
    u_t = a_theta[:, None] * u_theta
    u_p = a_phi[:, None] * u_phi
    out = np.zeros((grid.n_theta, grid.n_phi), dtype=np.result_type(u_t, u_p))
    out[1:] += u_t[:-1]
    out -= u_t
    out += np.roll(u_p, 1, axis=1) - u_p
    return contract_adjoint(grid, out)


def tv_gradient(signal: SphereSignal, weights=None) -> GradientField:
    """The weighted linear map whose per-site magnitudes sum to the TV norm.

    Args:
        signal: Samples on either grid.
        weights: Matching :class:`~equisphere.dh.DhWeights`,
            :class:`~equisphere.mw.MwWeights`, or a raw per-row vector;
            computed from the grid when omitted.
    """
    u_theta, u_phi = tv_apply_raw(
        signal.grid, *_row_scales(signal.grid, weights), signal.values
    )
    return GradientField(signal.grid, u_theta, u_phi)


def tv_norm(signal: SphereSignal, weights=None) -> float:
    """Quadrature-weighted discrete TV norm of a signal.

    Complex signals are handled as the TV of the real part plus the TV of
    the imaginary part; the experiment pipeline is real-valued.
    """
    a_theta, a_phi = _row_scales(checked_grid(None, signal), weights)
    full = expand(signal)
    total = 0.0
    parts = (full.real,) if np.all(full.imag == 0.0) else (full.real, full.imag)
    for part in parts:
        d_theta, d_phi = _raw_diffs(part)
        total += float(
            np.sqrt((a_theta[:, None] * d_theta) ** 2 + (a_phi[:, None] * d_phi) ** 2).sum()
        )
    return total


def gradient_adjoint(field: GradientField, weights=None) -> SphereSignal:
    """Exact adjoint of :func:`tv_gradient`, as a signal on the same grid.

    Satisfies ``<tv_gradient(x), u> == <x, gradient_adjoint(u)>`` to
    rounding for real inputs.
    """
    grid = field.grid
    a_theta, a_phi = _row_scales(grid, weights)
    out = tv_adjoint_raw(grid, a_theta, a_phi, field.d_theta, field.d_phi)
    return SphereSignal(grid, out)
