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

Both are read off one per-kind layout table: rows, columns, the pole row,
the first row's offset (DH 0, MW half a step) and the step ``dtheta``.
Stored sample vectors are row-major in ``(t, p)`` with the pole ring
collapsed to one slot, which on both grids sits at ``pole_row * n_phi``.
Harmonic coefficient vectors are ordered by the flat index
``el * (el + 1) + m`` and have length ``L**2``.

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
    "sample_index",
    "node_angles",
    "expand",
    "expand_values",
    "contract",
    "contract_adjoint",
    "checked_grid",
    "sample_weights",
    "random_coeffs",
]


class GridKind(enum.Enum):
    """Which sampling theorem a grid belongs to."""

    DH = "dh"
    MW = "mw"


# The layout of each kind at band-limit L.  The first row sits
# ``theta_offset`` half steps from the north pole, and ``dtheta`` is
# ``2 pi / theta_steps``, so theta_t = pi (2 t + theta_offset) / theta_steps.
_LAYOUT = {
    GridKind.DH: lambda L: dict(n_theta=2 * L, n_phi=2 * L, pole_row=0,
                                theta_offset=0, theta_steps=4 * L),
    GridKind.MW: lambda L: dict(n_theta=L, n_phi=2 * L - 1, pole_row=L - 1,
                                theta_offset=1, theta_steps=2 * L - 1),
}


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
    try:
        if int(L) == L and L >= 1:
            return int(L)
    except (TypeError, ValueError, OverflowError):  # None, inf, nan, text
        pass
    raise ValueError(f"band-limit must be a positive integer, got {L!r}")


def sample_count(kind, L: int) -> int:
    """Number of stored samples on the sphere for a grid of the given kind.

    The pole ring is counted once: ``(2L - 1) 2L + 1`` for DH and
    ``(L - 1)(2L - 1) + 1`` for MW.
    """
    return make_grid(kind, L).n_samples


@dataclass(frozen=True)
class GridDescriptor:
    """Fully determined equiangular grid: kind, band-limit, and node counts.

    The kind's layout at ``L`` is set as attributes: ``n_theta``,
    ``n_phi``, ``pole_row``, ``theta_offset`` and ``theta_steps``.
    """

    kind: GridKind
    L: int

    def __post_init__(self):
        object.__setattr__(self, "kind", as_kind(self.kind))
        object.__setattr__(self, "L", check_bandlimit(self.L))
        for name, value in _LAYOUT[self.kind](self.L).items():
            object.__setattr__(self, name, value)

    @property
    def n_samples(self) -> int:
        return (self.n_theta - 1) * self.n_phi + 1

    @property
    def dtheta(self) -> float:
        return 2 * np.pi / self.theta_steps

    @property
    def dphi(self) -> float:
        return 2 * np.pi / self.n_phi


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


def theta_node(grid: GridDescriptor, t: int) -> float:
    """Colatitude of row ``t``; raises if ``t`` is out of range."""
    if not 0 <= t < grid.n_theta:
        raise ValueError(f"theta row {t} out of range [0, {grid.n_theta})")
    return float(theta_nodes(grid)[t])


def phi_node(grid: GridDescriptor, p: int) -> float:
    """Longitude of column ``p``; raises if ``p`` is out of range."""
    if not 0 <= p < grid.n_phi:
        raise ValueError(f"phi column {p} out of range [0, {grid.n_phi})")
    return float(phi_nodes(grid)[p])


def theta_nodes(grid: GridDescriptor) -> np.ndarray:
    """All colatitude nodes as a vector of length ``n_theta``."""
    t = np.arange(grid.n_theta)
    return np.pi * (2 * t + grid.theta_offset) / grid.theta_steps


def phi_nodes(grid: GridDescriptor) -> np.ndarray:
    """All longitude nodes as a vector of length ``n_phi``."""
    return 2 * np.pi * np.arange(grid.n_phi) / grid.n_phi


def sample_index(grid: GridDescriptor, t: int, p: int) -> int:
    """Stored-vector position of grid node ``(t, p)``.

    Every ``p`` on the pole ring maps to the same slot, ``pole_row * n_phi``.
    """
    if not 0 <= t < grid.n_theta:
        raise ValueError(f"theta row {t} out of range [0, {grid.n_theta})")
    if not 0 <= p < grid.n_phi:
        raise ValueError(f"phi column {p} out of range [0, {grid.n_phi})")
    if t == grid.pole_row:
        return grid.pole_row * grid.n_phi
    return t * grid.n_phi + p - (grid.n_phi - 1 if t > grid.pole_row else 0)


def node_angles(grid: GridDescriptor) -> tuple[np.ndarray, np.ndarray]:
    """Per stored sample ``(theta, phi)`` positions (pole gets ``phi = 0``)."""
    shape = (grid.n_theta, grid.n_phi)
    th = contract(grid, np.broadcast_to(theta_nodes(grid)[:, None], shape))
    return th, contract(grid, np.broadcast_to(phi_nodes(grid), shape))


def frozen_array(values, n: int, what: str, dtype=np.complex128) -> np.ndarray:
    """``values`` as a read-only vector of length ``n``, copied if writable."""
    arr = np.asarray(values, dtype=dtype)
    if arr.shape != (n,):
        raise ValueError(f"{what} must have shape ({n},), got {arr.shape}")
    if arr.flags.writeable:
        arr = arr.copy()
        arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class HarmonicCoeffs:
    """Band-limited harmonic coefficients as a flat length ``L**2`` vector.

    NaN and inf are accepted here on purpose, so any array can be wrapped.
    Every entry point rejects them where data enters: :func:`checked_grid`
    (transforms, integrals, TV norm), the file readers and ``make_problem``.
    """

    L: int
    values: np.ndarray

    def __post_init__(self):
        L = check_bandlimit(self.L)
        object.__setattr__(self, "L", L)
        object.__setattr__(
            self, "values", frozen_array(self.values, L * L, "coefficients")
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
    """Samples on an equiangular grid, pole stored once; NaN as in HarmonicCoeffs."""

    grid: GridDescriptor
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self,
            "values",
            frozen_array(self.values, self.grid.n_samples, "signal samples"),
        )


def checked_grid(kind, data, L: int | None = None) -> GridDescriptor:
    """The grid of ``kind`` that ``data`` lies on, after the shared entry checks.

    ``data`` is a grid or a signal, whose grid must be of ``kind`` (any when
    None), or coefficients, synthesized on the ``kind`` grid at their own
    band-limit, which ``L`` may restate.  Raises :class:`GridMismatchError`
    on a wrong kind or band-limit and ``ValueError`` on a NaN or inf value.
    """
    if isinstance(data, HarmonicCoeffs):
        if L is not None and L != data.L:
            raise GridMismatchError(f"coefficients have L={data.L}, requested {L}")
        grid = make_grid(kind, data.L)
    else:
        grid = getattr(data, "grid", data)
        if kind is not None and grid.kind is not as_kind(kind):
            raise GridMismatchError(f"expected {as_kind(kind).name} grid, got {grid.kind}")
    values = getattr(data, "values", None)
    if values is not None and not np.isfinite(values).all():
        what = "coefficients" if isinstance(data, HarmonicCoeffs) else "signal samples"
        raise ValueError(f"{what} contain non-finite values")
    return grid


def expand_values(
    grid: GridDescriptor, v: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Stored sample vector as a full ``(n_theta, n_phi)`` array, pole broadcast.

    ``out``, if given, is a C-contiguous ``(n_theta, n_phi)`` array that
    receives the result and is returned.
    """
    v = np.asarray(v)
    if v.shape != (grid.n_samples,):
        raise GridMismatchError(
            f"expected {grid.n_samples} stored samples, got shape {v.shape}"
        )
    k, n = grid.pole_row * grid.n_phi, grid.n_phi
    if out is None:
        out = np.empty((grid.n_theta, n), dtype=v.dtype)
    elif (
        out.shape != (grid.n_theta, n)
        or not out.flags.c_contiguous
        or not np.can_cast(v.dtype, out.dtype)
    ):
        raise ValueError(
            f"out must be a C-contiguous {(grid.n_theta, n)} array that can hold {v.dtype}"
        )
    full = out.reshape(-1)
    full[:k] = v[:k]
    full[k : k + n] = v[k]
    full[k + n :] = v[k + 1 :]
    return out


def expand(signal: SphereSignal) -> np.ndarray:
    """Stored samples as a full ``(n_theta, n_phi)`` array, pole broadcast."""
    return expand_values(signal.grid, signal.values)


def contract(grid: GridDescriptor, full: np.ndarray) -> np.ndarray:
    """Inverse of :func:`expand`: keep the ``p = 0`` entry of the pole ring."""
    if full.shape != (grid.n_theta, grid.n_phi):
        raise GridMismatchError(
            f"expected array of shape {(grid.n_theta, grid.n_phi)}, got {full.shape}"
        )
    k = grid.pole_row * grid.n_phi
    flat = full.reshape(-1)
    return np.concatenate((flat[: k + 1], flat[k + grid.n_phi :]))


def contract_adjoint(
    grid: GridDescriptor, full: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Adjoint of the expansion map: sums the pole ring into its single slot.

    ``out``, if given, is an ``(n_samples,)`` array that receives the result
    and is returned.
    """
    if out is None:
        out = np.empty(grid.n_samples, dtype=full.dtype)
    if full.shape != (grid.n_theta, grid.n_phi) or out.shape != (grid.n_samples,):
        raise GridMismatchError(
            f"expected {(grid.n_theta, grid.n_phi)} into {(grid.n_samples,)}, "
            f"got {full.shape} into {out.shape}"
        )
    k, n = grid.pole_row * grid.n_phi, grid.n_phi
    flat = full.reshape(-1)
    out[:k] = flat[:k]
    out[k] = full[grid.pole_row].sum()
    out[k + 1 :] = flat[k + n :]
    return out


def sample_weights(grid: GridDescriptor, q: np.ndarray) -> np.ndarray:
    """Quadrature weight of each stored sample from the per-row weights ``q``.

    The pole slot stands for its whole ring: it gets ``q[pole_row] * n_phi``.
    """
    w = contract(grid, np.broadcast_to(q[:, None], (grid.n_theta, grid.n_phi)))
    w[grid.pole_row * grid.n_phi] = q[grid.pole_row] * grid.n_phi
    return w


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
