"""Each grid kind's transforms, row weights and integral, picked by kind.

Functions are looked up on their module at call time, so one replaced
there (a tracing wrapper, say) also sees the calls made through here.
"""

from __future__ import annotations

import numpy as np

from . import dh, mw
from .samples import GridDescriptor, GridKind, HarmonicCoeffs, SphereSignal, as_kind

__all__ = ["forward", "inverse", "row_weights", "integrate"]

# kind -> (its module, the names there of its operations)
_TRANSFORMS = {
    GridKind.DH: (dh, dict(forward="dh_forward", inverse="dh_inverse",
                           weights="dh_weights", integrate="dh_integrate")),
    GridKind.MW: (mw, dict(forward="mw_forward", inverse="mw_inverse",
                           weights="mw_weights", integrate="mw_integrate")),
}


def _lookup(kind, operation: str):
    module, names = _TRANSFORMS[as_kind(kind)]
    return getattr(module, names[operation])


def forward(signal: SphereSignal) -> HarmonicCoeffs:
    """Harmonic coefficients of a signal, by its grid's forward transform."""
    return _lookup(signal.grid.kind, "forward")(signal)


def inverse(kind, coeffs: HarmonicCoeffs, L: int | None = None) -> SphereSignal:
    """Samples of ``coeffs`` on the ``kind`` grid at band-limit ``L``."""
    return _lookup(kind, "inverse")(coeffs, L)


def row_weights(grid: GridDescriptor) -> np.ndarray:
    """Per-row quadrature weights ``q(theta_t)`` of a grid."""
    return _lookup(grid.kind, "weights")(grid.L).q


def integrate(signal: SphereSignal) -> complex:
    """Integral of a signal over the sphere by its grid's quadrature."""
    return _lookup(signal.grid.kind, "integrate")(signal)
