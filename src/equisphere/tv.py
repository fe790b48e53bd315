"""Quadrature-weighted discrete total variation on equiangular grids.

The discrete norm approximates ``int |grad f| dOmega`` by

    sum_{t,p} q(theta_t) sqrt( (D_theta x / dtheta)**2
                               + (D_phi x / (sin(theta_t) dphi))**2 )

with forward differences ``(D_theta x)_{t,p} = x_{t+1,p} - x_{t,p}`` (zero
on the last row) and cyclic forward differences along longitude, both
divided by the node spacing.  The row weights ``q`` are always the
grid's own quadrature weights (:func:`~equisphere.transforms.row_weights`).
Because ``q(theta_t)`` carries a ``sin(theta_t)`` factor, the
``1/sin(theta)`` in the gradient magnitude never blows up; pole rows are
single-valued so their longitude term is identically zero and is excluded
from the weighted operator.

:func:`tv_gradient` / :func:`gradient_adjoint` expose the weighted linear
map inside the norm (and its exact adjoint) for use by convex solvers.

Every entry point runs the same two kernels, :func:`tv_apply_raw` and
:func:`tv_adjoint_raw`.  They work on a stacked ``(2, n_theta, n_phi)``
field (``[0]`` the colatitude part, ``[1]`` the longitude part), take
their differences as slice differences (the cyclic longitude one as an
interior slice plus the wrap column), and write into caller-supplied
buffers when given, so an iterative solver can allocate its work arrays
once per solve and run every iteration in place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .samples import (
    GridDescriptor,
    SphereSignal,
    checked_grid,
    contract_adjoint,
    expand,
    expand_values,
    theta_nodes,
)
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


def _raw_diffs(full: np.ndarray, out: np.ndarray) -> np.ndarray:
    # Forward differences of a full grid into out[0] (colatitude, zero on
    # the last row) and out[1] (cyclic along longitude); both C-contiguous.
    # Along longitude the rows are differenced as one flat run, whose values
    # across row ends land in the wrap column, which is then overwritten.
    d_theta, d_phi = out
    np.subtract(full[1:], full[:-1], out=d_theta[:-1])
    d_theta[-1] = 0
    flat, d_flat = full.reshape(-1), d_phi.reshape(-1)
    np.subtract(flat[1:], flat[:-1], out=d_flat[:-1])
    np.subtract(full[:, 0], full[:, -1], out=d_phi[:, -1])
    return out


def _buffer(buf: np.ndarray | None, shape: tuple, dtype) -> np.ndarray:
    # A caller-supplied work array, checked, or a new one.
    if buf is None:
        return np.empty(shape, dtype=dtype)
    if buf.shape != shape or not buf.flags.c_contiguous:
        raise ValueError(f"buffer must be a C-contiguous {shape} array, got {buf.shape}")
    return buf


def gradient(signal: SphereSignal) -> GradientField:
    """Raw forward-difference field of a signal (pole rows broadcast)."""
    full = expand(signal)
    d_theta, d_phi = _raw_diffs(full, np.empty((2,) + full.shape, dtype=full.dtype))
    return GradientField(signal.grid, d_theta, d_phi)


def _row_scales(grid: GridDescriptor) -> np.ndarray:
    """Per-row factors applied to the raw differences inside the norm.

    Shape ``(2, n_theta, 1)``, broadcasting against a stacked field:
    ``[0]`` scales the colatitude differences, ``[1]`` the longitude ones.
    """
    q = row_weights(grid)
    scales = np.zeros((2, grid.n_theta, 1))
    a_theta, a_phi = scales[:, :, 0]
    a_theta[:] = q / grid.dtheta
    a_theta[-1] = 0.0  # no theta difference out of the last row
    sin_t = np.sin(theta_nodes(grid))
    mask = np.ones(grid.n_theta, dtype=bool)
    mask[grid.pole_row] = False  # single-valued ring: no longitude term
    mask &= sin_t > 0
    a_phi[mask] = q[mask] / (sin_t[mask] * grid.dphi)
    return scales


def tv_apply_raw(
    grid: GridDescriptor,
    scales: np.ndarray,
    vec: np.ndarray,
    out: np.ndarray | None = None,
    full: np.ndarray | None = None,
) -> np.ndarray:
    """Weighted difference operator on a stored sample vector.

    ``scales`` are the row factors of :func:`_row_scales`, or those spread
    to the field's shape.  Returns the stacked ``(2, n_theta, n_phi)``
    field, in ``out`` when given; ``full`` is an optional ``(n_theta,
    n_phi)`` work array for the pole-broadcast samples.  Both buffers must be
    C-contiguous.
    """
    full = expand_values(grid, vec, out=full)
    out = _buffer(out, (2,) + full.shape, np.result_type(scales, full))
    _raw_diffs(full, out)
    return np.multiply(scales, out, out=out)


def tv_adjoint_raw(
    grid: GridDescriptor,
    scales: np.ndarray,
    field: np.ndarray,
    out: np.ndarray | None = None,
    work: np.ndarray | None = None,
    full: np.ndarray | None = None,
) -> np.ndarray:
    """Exact adjoint of :func:`tv_apply_raw`, as a stored sample vector.

    ``field`` (stacked, as :func:`tv_apply_raw` returns it) is read only.
    ``out`` (``(n_samples,)``), ``work`` (shaped like ``field``, not
    ``field`` itself) and ``full`` (``(n_theta, n_phi)``) are optional
    buffers for the result and the work arrays; the work arrays must be
    C-contiguous.
    """
    dtype = np.result_type(scales, field)
    work = np.multiply(scales, field, out=_buffer(work, field.shape, dtype))
    u_t, u_p = work
    full = _buffer(full, u_t.shape, dtype)
    full.fill(0)
    full[1:] += u_t[:-1]
    full -= u_t
    # the cyclic backward difference along longitude, into the spent u_t:
    # one flat run, then the wrap column it crossed
    p_flat, r_flat = u_p.reshape(-1), u_t.reshape(-1)
    np.subtract(p_flat[:-1], p_flat[1:], out=r_flat[1:])
    np.subtract(u_p[:, -1], u_p[:, 0], out=u_t[:, 0])
    full += u_t
    return contract_adjoint(grid, full, out=out)


def _tv_total(field: np.ndarray, out: np.ndarray | None = None) -> float:
    # Sum of the per-site magnitudes of a real weighted field.  Squares
    # ``field`` in place; ``out`` is an optional (n_theta, n_phi) work array.
    sq = np.square(field, out=field)
    mag = np.add(sq[0], sq[1], out=out)
    return float(np.sqrt(mag, out=mag).sum())


def tv_gradient(signal: SphereSignal) -> GradientField:
    """The weighted linear map whose per-site magnitudes sum to the TV norm."""
    grid = signal.grid
    d_theta, d_phi = tv_apply_raw(grid, _row_scales(grid), signal.values)
    return GradientField(grid, d_theta, d_phi)


def tv_norm(signal: SphereSignal) -> float:
    """Discrete TV norm of a signal, weighted by its grid's quadrature.

    Complex signals are handled as the TV of the real part plus the TV of
    the imaginary part; the experiment pipeline is real-valued.
    """
    grid = checked_grid(None, signal)
    scales = _row_scales(grid)
    v = signal.values
    parts = (v.real,) if np.all(v.imag == 0.0) else (v.real, v.imag)
    return sum(_tv_total(tv_apply_raw(grid, scales, part)) for part in parts)


def gradient_adjoint(field: GradientField) -> SphereSignal:
    """Exact adjoint of :func:`tv_gradient`, as a signal on the same grid.

    Satisfies ``<tv_gradient(x), u> == <x, gradient_adjoint(u)>`` to
    rounding for real inputs.
    """
    grid = field.grid
    stacked = np.stack((field.d_theta, field.d_phi))
    return SphereSignal(grid, tv_adjoint_raw(grid, _row_scales(grid), stacked))
