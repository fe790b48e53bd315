"""Output checks that do not compare against a stored copy of earlier output.

Each check either returns quietly or raises :class:`CheckFailed`.  They use
numpy and scipy only, plus the grid layouts written out below from their
definitions, so a fault in the package cannot hide in its own reference.
"""

from __future__ import annotations

import math

import numpy as np

ROUNDTRIP_TOL = 1e-9
DIRECT_SUM_RTOL = 1e-8
INTEGRAL_TOL = 1e-9
CLI_TOL = 1e-9
FEAS_RTOL = 1e-3
BANDLIMIT_RTOL = 1e-8
EXACT_FIT_RTOL = 1e-8


class CheckFailed(AssertionError):
    """An output of the program is wrong."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def snr_db(truth: np.ndarray, estimate: np.ndarray) -> float:
    """``20 log10(||truth|| / ||truth - estimate||)`` over the given samples."""
    err = float(np.linalg.norm(np.asarray(truth) - np.asarray(estimate)))
    ref = float(np.linalg.norm(truth))
    return math.inf if err == 0.0 else 20.0 * math.log10(ref / err)


# --- grid layouts, from the sampling theorems' definitions -------------

def grid_shape(kind: str, L: int) -> tuple[int, int]:
    """``(n_theta, n_phi)``: DH ``2L x 2L``, MW ``L x (2L - 1)``."""
    return (2 * L, 2 * L) if kind == "dh" else (L, 2 * L - 1)


def node(kind: str, L: int, t: int, p: int) -> tuple[float, float, int]:
    """Colatitude, longitude and stored-vector index of node ``(t, p)``.

    DH stores its north-pole ring (``t = 0``) once, first; MW stores its
    south-pole ring (``t = L - 1``) once, last.
    """
    n_phi = grid_shape(kind, L)[1]
    if kind == "dh":
        theta, phi = math.pi * t / (2 * L), math.pi * p / L
        index = 0 if t == 0 else 1 + (t - 1) * n_phi + p
    else:
        theta = math.pi * (2 * t + 1) / (2 * L - 1)
        phi = 2 * math.pi * p / (2 * L - 1)
        index = (L - 1) * n_phi if t == L - 1 else t * n_phi + p
    return theta, phi, index


# --- transforms ----------------------------------------------------------

def roundtrip(coeffs: np.ndarray, back: np.ndarray) -> None:
    """Inverse then forward must return the coefficients exactly."""
    err = float(np.abs(np.asarray(back) - np.asarray(coeffs)).max())
    _require(err < ROUNDTRIP_TOL, f"round-trip error {err:.3e} >= {ROUNDTRIP_TOL:g}")


def direct_sum(kind: str, L: int, coeffs: np.ndarray, samples: np.ndarray,
               rng: np.random.Generator, n_nodes: int = 2) -> None:
    """Samples at random nodes equal ``sum_lm f_lm Y_lm`` from scipy."""
    from scipy.special import sph_harm_y

    ell = np.floor(np.sqrt(np.arange(L * L))).astype(int)
    m = np.arange(L * L) - ell * ell - ell
    scale = float(np.sqrt(np.mean(np.abs(samples) ** 2)))
    n_theta, n_phi = grid_shape(kind, L)
    for _ in range(n_nodes):
        t, p = int(rng.integers(n_theta)), int(rng.integers(n_phi))
        theta, phi, index = node(kind, L, t, p)
        want = complex(np.sum(coeffs * sph_harm_y(ell, m, theta, phi)))
        err = abs(complex(samples[index]) - want)
        _require(
            err <= DIRECT_SUM_RTOL * scale,
            f"{kind} sample at node ({t}, {p}) is off the direct sum by "
            f"{err:.3e} (signal rms {scale:.3e})",
        )


def integral(value: complex, f00: complex, samples: np.ndarray) -> None:
    """The quadrature integral of a band-limited signal is ``sqrt(4 pi) f_00``."""
    want = math.sqrt(4 * math.pi) * complex(f00)
    # |integral| <= 4 pi max|f| sets the scale of rounding error
    tol = INTEGRAL_TOL * max(1.0, 4 * math.pi * float(np.abs(samples).max()))
    err = abs(complex(value) - want)
    _require(err <= tol, f"integral off sqrt(4 pi) f_00 by {err:.3e} (tol {tol:.1e})")


# --- solves --------------------------------------------------------------

def residual(y: np.ndarray, x_hat: np.ndarray, mask: np.ndarray, epsilon: float) -> float:
    """``||y - x_hat[mask]|| <= eps (1 + 1e-3)``; returns the residual."""
    res = float(np.linalg.norm(np.asarray(y) - np.asarray(x_hat).real[mask]))
    bound = epsilon * (1.0 + FEAS_RTOL)
    _require(res <= bound, f"residual {res:.6e} exceeds bound {bound:.6e}")
    return res


def tv_not_above_truth(tv_hat: float, tv_true: float, noise_norm: float,
                       epsilon: float) -> None:
    """When the truth is feasible the minimiser's TV cannot exceed it."""
    if noise_norm > epsilon:
        return
    _require(
        tv_hat <= tv_true * (1.0 + 1e-9),
        f"TV of the solution {tv_hat:.6e} above TV of the feasible truth {tv_true:.6e}",
    )


def band_limited(x: np.ndarray, x_again: np.ndarray, what: str) -> None:
    """``x`` unchanged (to ``1e-8`` relative) by a band-limited re-synthesis."""
    x = np.asarray(x)
    err = float(np.linalg.norm(np.asarray(x_again) - x))
    scale = max(1e-300, float(np.linalg.norm(x)))
    _require(err <= BANDLIMIT_RTOL * scale,
             f"{what}: relative change {err / scale:.3e} > {BANDLIMIT_RTOL:g}")


def exact_fit(y: np.ndarray, x_hat: np.ndarray, mask: np.ndarray) -> None:
    """Noiseless solves: ``||y - x_hat[mask]|| <= 1e-8 max(1, ||y||)``."""
    res = float(np.linalg.norm(np.asarray(y) - np.asarray(x_hat).real[mask]))
    bound = EXACT_FIT_RTOL * max(1.0, float(np.linalg.norm(y)))
    _require(res <= bound, f"noiseless residual {res:.3e} > {bound:.3e}")


# --- command line --------------------------------------------------------

def exit_ok(code: int, argv) -> None:
    _require(code == 0, f"`equisphere {' '.join(map(str, argv))}` exited {code}")


def matches(got: np.ndarray, want: np.ndarray, what: str) -> None:
    """Two arrays the same to ``1e-9`` in every entry."""
    err = float(np.abs(np.asarray(got) - np.asarray(want)).max())
    _require(err <= CLI_TOL, f"{what}: max difference {err:.3e} > {CLI_TOL:g}")


def tv_agrees(a: float, b: float, what: str) -> None:
    _require(
        math.isfinite(a) and abs(a - b) <= 1e-12 * max(1.0, abs(a)),
        f"{what}: TV norms {a!r} and {b!r} disagree",
    )


# --- independent readers for the package's file formats -------------------

def load_values(path) -> np.ndarray:
    """Complex payload of a signal or coefficient file, CSV or binary.

    Binary: 64-byte header, then little-endian float64 (re/im interleaved
    for complex).  CSV: one header line, then ``re,im`` or ``re`` rows.
    """
    with open(path, "rb") as fh:
        magic = fh.read(8)
    if magic == b"EQSPHBIN":
        raw = np.fromfile(path, dtype="<f8", offset=64)
        value_type = np.fromfile(path, dtype="<u4", count=1, offset=24)[0]
        return raw[0::2] + 1j * raw[1::2] if value_type == 1 else raw.astype(complex)
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return rows[:, 0] + 1j * rows[:, 1] if rows.shape[1] == 2 else rows[:, 0].astype(complex)


def read_pair(path) -> tuple[float, float]:
    """``re,im`` line written by ``equisphere integrate --out``."""
    with open(path) as fh:
        re, im = fh.read().strip().split(",")
    return float(re), float(im)
