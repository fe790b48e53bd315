"""Equiangular sphere grids, harmonic indexing, and sample containers.

Two equiangular layouts are supported for signals band-limited at ``L``
(harmonic coefficients vanish for all degrees ``el >= L``):

* ``DH``: ``theta_t = pi t / (2 L)`` for ``t < 2 L`` and
  ``phi_p = pi p / L`` for ``p < 2 L``.  ``(2L - 1) 2L + 1`` samples; the
  north-pole ring (``t = 0``) is stored once.
* ``MW``: ``theta_t = pi (2 t + 1) / (2 L - 1)`` for ``t < L`` and
  ``phi_p = 2 pi p / (2 L - 1)`` for ``p < 2 L - 1``.
  ``(L - 1)(2L - 1) + 1`` samples; the south-pole ring (``t = L - 1``) is
  stored once.

Stored sample vectors are row-major in ``(t, p)`` with the pole ring
collapsed to a single slot.  Harmonic coefficient vectors are ordered by
the flat index ``el * (el + 1) + m`` and have length ``L**2``.

All containers are immutable after construction (arrays are marked
read-only), so they can be shared freely across threads.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GridKind",
    "GridDescriptor",
    "GridMismatchError",
    "HarmonicCoeffs",
    "SphereSignal",
    "make_grid",
    "sample_count",
    "flat_index",
    "theta_node",
    "phi_node",
    "theta_nodes",
    "phi_nodes",
    "pole_row",
    "sample_index",
    "node_angles",
    "expand",
    "expand_values",
    "contract",
    "contract_adjoint",
    "random_coeffs",
]


class GridKind(enum.Enum):
    """Which sampling theorem a grid belongs to."""

    DH = "dh"
    MW = "mw"


class GridMismatchError(ValueError):
    """A signal or coefficient object disagrees with the expected grid."""


def as_kind(kind) -> GridKind:
    """Coerce a ``GridKind`` or a ``"dh"``/``"mw"`` string to the enum."""
    if isinstance(kind, GridKind):
        return kind
    try:
        return GridKind(str(kind).lower())
    except ValueError:
        raise ValueError(f"unknown grid kind: {kind!r}") from None


def check_bandlimit(L) -> int:
    """Validate that ``L`` is a positive integer band-limit."""
    if int(L) != L or L < 1:
        raise ValueError(f"band-limit must be a positive integer, got {L!r}")
    return int(L)


def sample_count(kind, L: int) -> int:
    """Number of stored samples on the sphere for a grid of the given kind.

    The pole ring is counted once: ``(2L - 1) 2L + 1`` for DH and
    ``(L - 1)(2L - 1) + 1`` for MW.
    """
    L = check_bandlimit(L)
    if as_kind(kind) is GridKind.DH:
        return (2 * L - 1) * 2 * L + 1
    return (L - 1) * (2 * L - 1) + 1


@dataclass(frozen=True)
class GridDescriptor:
    """Fully determined equiangular grid: kind, band-limit, and node counts."""

    kind: GridKind
    L: int

    def __post_init__(self):
        object.__setattr__(self, "kind", as_kind(self.kind))
        object.__setattr__(self, "L", check_bandlimit(self.L))

    @property
    def n_theta(self) -> int:
        return 2 * self.L if self.kind is GridKind.DH else self.L

    @property
    def n_phi(self) -> int:
        return 2 * self.L if self.kind is GridKind.DH else 2 * self.L - 1

    @property
    def n_samples(self) -> int:
        return sample_count(self.kind, self.L)


def make_grid(kind, L: int) -> GridDescriptor:
    """Build a grid descriptor from a kind (enum or string) and a band-limit."""
    return GridDescriptor(as_kind(kind), L)


def flat_index(el: int, m: int) -> int:
    """Flat position of the ``(el, m)`` coefficient: ``el**2 + el + m``.

    Bijective from ``{0 <= el, |m| <= el}`` onto the naturals; coefficients
    of a band-limited signal occupy ``[0, L**2)``.
    """
    if el < 0 or abs(m) > el:
        raise ValueError(f"invalid harmonic index (el={el}, m={m})")
    return el * el + el + m


def pole_row(grid: GridDescriptor) -> int:
    """Row index of the single-valued pole ring (0 for DH, L - 1 for MW)."""
    return 0 if grid.kind is GridKind.DH else grid.L - 1


def theta_node(grid: GridDescriptor, t: int) -> float:
    """Colatitude of row ``t``; raises if ``t`` is out of range."""
    if not 0 <= t < grid.n_theta:
        raise ValueError(f"theta row {t} out of range [0, {grid.n_theta})")
    if grid.kind is GridKind.DH:
        return np.pi * t / (2 * grid.L)
    return np.pi * (2 * t + 1) / (2 * grid.L - 1)


def phi_node(grid: GridDescriptor, p: int) -> float:
    """Longitude of column ``p``; raises if ``p`` is out of range."""
    if not 0 <= p < grid.n_phi:
        raise ValueError(f"phi column {p} out of range [0, {grid.n_phi})")
    if grid.kind is GridKind.DH:
        return np.pi * p / grid.L
    return 2 * np.pi * p / (2 * grid.L - 1)


def theta_nodes(grid: GridDescriptor) -> np.ndarray:
    """All colatitude nodes as a vector of length ``n_theta``."""
    t = np.arange(grid.n_theta)
    if grid.kind is GridKind.DH:
        return np.pi * t / (2 * grid.L)
    return np.pi * (2 * t + 1) / (2 * grid.L - 1)


def phi_nodes(grid: GridDescriptor) -> np.ndarray:
    """All longitude nodes as a vector of length ``n_phi``."""
    p = np.arange(grid.n_phi)
    if grid.kind is GridKind.DH:
        return np.pi * p / grid.L
    return 2 * np.pi * p / (2 * grid.L - 1)


def sample_index(grid: GridDescriptor, t: int, p: int) -> int:
    """Stored-vector position of grid node ``(t, p)``.

    Every ``p`` on the pole ring maps to the same slot.
    """
    if not 0 <= t < grid.n_theta:
        raise ValueError(f"theta row {t} out of range [0, {grid.n_theta})")
    if not 0 <= p < grid.n_phi:
        raise ValueError(f"phi column {p} out of range [0, {grid.n_phi})")
    if grid.kind is GridKind.DH:
        return 0 if t == 0 else 1 + (t - 1) * grid.n_phi + p
    return (grid.L - 1) * grid.n_phi if t == grid.L - 1 else t * grid.n_phi + p


def node_angles(grid: GridDescriptor) -> tuple[np.ndarray, np.ndarray]:
    """Per stored sample ``(theta, phi)`` positions (pole gets ``phi = 0``)."""
    thetas = theta_nodes(grid)
    phis = phi_nodes(grid)
    th = np.empty(grid.n_samples)
    ph = np.empty(grid.n_samples)
    for t in range(grid.n_theta):
        if t == pole_row(grid):
            i = sample_index(grid, t, 0)
            th[i] = thetas[t]
            ph[i] = 0.0
        else:
            i0 = sample_index(grid, t, 0)
            th[i0 : i0 + grid.n_phi] = thetas[t]
            ph[i0 : i0 + grid.n_phi] = phis
    return th, ph


def _frozen_complex(values, n: int, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.complex128)
    if arr.shape != (n,):
        raise ValueError(f"{what} must have shape ({n},), got {arr.shape}")
    if arr.flags.writeable:
        arr = arr.copy()
        arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class HarmonicCoeffs:
    """Band-limited harmonic coefficients as a flat length ``L**2`` vector."""

    L: int
    values: np.ndarray

    def __post_init__(self):
        L = check_bandlimit(self.L)
        object.__setattr__(self, "L", L)
        object.__setattr__(
            self, "values", _frozen_complex(self.values, L * L, "coefficients")
        )

    @classmethod
    def zeros(cls, L: int) -> "HarmonicCoeffs":
        return cls(L, np.zeros(check_bandlimit(L) * L, dtype=np.complex128))

    def value(self, el: int, m: int) -> complex:
        """Coefficient at degree ``el`` and order ``m``."""
        if el >= self.L:
            raise ValueError(f"degree {el} outside band-limit {self.L}")
        return complex(self.values[flat_index(el, m)])


@dataclass(frozen=True)
class SphereSignal:
    """Samples of a function on an equiangular grid, pole stored once."""

    grid: GridDescriptor
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self,
            "values",
            _frozen_complex(self.values, self.grid.n_samples, "signal samples"),
        )


def expand_values(grid: GridDescriptor, v: np.ndarray) -> np.ndarray:
    """Stored sample vector as a full ``(n_theta, n_phi)`` array, pole broadcast."""
    v = np.asarray(v)
    if v.shape != (grid.n_samples,):
        raise GridMismatchError(
            f"expected {grid.n_samples} stored samples, got shape {v.shape}"
        )
    full = np.empty((grid.n_theta, grid.n_phi), dtype=v.dtype)
    if grid.kind is GridKind.DH:
        full[0, :] = v[0]
        full[1:, :] = v[1:].reshape(grid.n_theta - 1, grid.n_phi)
    else:
        full[: grid.L - 1, :] = v[: grid.n_samples - 1].reshape(
            grid.L - 1, grid.n_phi
        )
        full[grid.L - 1, :] = v[-1]
    return full


def expand(signal: SphereSignal) -> np.ndarray:
    """Stored samples as a full ``(n_theta, n_phi)`` array, pole broadcast."""
    return expand_values(signal.grid, signal.values)


def contract(grid: GridDescriptor, full: np.ndarray) -> np.ndarray:
    """Inverse of :func:`expand`: keep the ``p = 0`` entry of the pole ring."""
    if full.shape != (grid.n_theta, grid.n_phi):
        raise GridMismatchError(
            f"expected array of shape {(grid.n_theta, grid.n_phi)}, got {full.shape}"
        )
    out = np.empty(grid.n_samples, dtype=full.dtype)
    if grid.kind is GridKind.DH:
        out[0] = full[0, 0]
        out[1:] = full[1:, :].ravel()
    else:
        out[: grid.n_samples - 1] = full[: grid.L - 1, :].ravel()
        out[-1] = full[grid.L - 1, 0]
    return out


def contract_adjoint(grid: GridDescriptor, full: np.ndarray) -> np.ndarray:
    """Adjoint of the expansion map: sums the pole ring into its single slot."""
    if full.shape != (grid.n_theta, grid.n_phi):
        raise GridMismatchError(
            f"expected array of shape {(grid.n_theta, grid.n_phi)}, got {full.shape}"
        )
    out = np.empty(grid.n_samples, dtype=full.dtype)
    if grid.kind is GridKind.DH:
        out[0] = full[0, :].sum()
        out[1:] = full[1:, :].ravel()
    else:
        out[: grid.n_samples - 1] = full[: grid.L - 1, :].ravel()
        out[-1] = full[grid.L - 1, :].sum()
    return out


def conjugate_pairs(L: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Flat index arrays pairing each order ``m > 0`` with ``-m``, below ``L``.

    Returns ``(zero, pos, neg, sign)``: ``zero[l] = flat_index(l, 0)`` for
    ``l < L``; for every ``1 <= m <= l < L`` in degree-major order,
    ``pos = flat_index(l, m)``, ``neg = flat_index(l, -m)`` and
    ``sign = (-1)**m``.
    """
    L = check_bandlimit(L)
    ell = np.arange(L)
    zero = ell * ell + ell
    deg, col = np.tril_indices(L, -1)
    m = col + 1
    return zero, zero[deg] + m, zero[deg] - m, 1 - 2 * (m % 2)


def random_coeffs(L: int, rng: np.random.Generator, real_signal: bool = False) -> HarmonicCoeffs:
    """Random complex coefficients, optionally with real-signal conjugate symmetry."""
    L = check_bandlimit(L)
    vals = rng.standard_normal(L * L) + 1j * rng.standard_normal(L * L)
    if real_signal:
        zero, pos, neg, sign = conjugate_pairs(L)
        vals[zero] = vals[zero].real
        vals[neg] = sign * np.conj(vals[pos])
    return HarmonicCoeffs(L, vals)
