"""Each grid kind's transforms, row weights and integral, picked by kind.

Each is ``<kind>_<operation>`` of the kind's module, looked up at call time,
so one replaced there (a tracing wrapper, say) also sees the calls made here.
"""

from __future__ import annotations

import numpy as np

from . import dh, mw
from .samples import GridDescriptor, GridKind, HarmonicCoeffs, SphereSignal, as_kind

__all__ = ["forward", "inverse", "row_weights", "integrate"]

_MODULES = {GridKind.DH: dh, GridKind.MW: mw}


def _lookup(kind, operation: str):
    kind = as_kind(kind)
    return getattr(_MODULES[kind], f"{kind.value}_{operation}")


def forward(signal: SphereSignal) -> HarmonicCoeffs:
    """Harmonic coefficients of a signal, by its grid's forward transform."""
    return _lookup(signal.grid.kind, "forward")(signal)


def inverse(kind, coeffs: HarmonicCoeffs, L: int | None = None) -> SphereSignal:
    """Samples of ``coeffs`` on the ``kind`` grid at band-limit ``L``."""
    return _lookup(kind, "inverse")(coeffs, L)


def row_weights(grid: GridDescriptor) -> np.ndarray:
    """Per-row quadrature weights ``q(theta_t)`` of a grid, read-only."""
    return _lookup(grid.kind, "weights")(grid.L)


def integrate(signal: SphereSignal) -> complex:
    """Integral of a signal over the sphere by its grid's quadrature."""
    return _lookup(signal.grid.kind, "integrate")(signal)
