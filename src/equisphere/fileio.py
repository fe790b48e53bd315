"""On-disk formats: signal/coefficient files, experiment config, result CSV.

Text formats are CSV with a single header line and one node (or
coefficient) per row, two columns ``re,im`` for complex payloads and one
column for real ones.  Floats are written with shortest round-trip
precision, so write -> read -> write is byte-identical.

The binary container is a 64-byte little-endian header followed by raw
float64 payload (interleaved re/im for complex):

    bytes 0-7    magic ``EQSPHBIN``
    bytes 8-11   format version (u32, currently 1)
    bytes 12-15  record type (u32): 1 signal, 2 coefficients
    bytes 16-19  grid kind (u32): 0 DH, 1 MW, 0xff not applicable
    bytes 20-23  band-limit L (u32)
    bytes 24-27  value type (u32): 0 real, 1 complex
    bytes 28-35  payload element count (u64)
    bytes 36-63  zero padding

Readers reject payloads holding NaN or infinite values with
:class:`FormatError`, in both formats.

Experiment configs are flat ``key=value`` text files; ``#`` starts a
comment.  Result CSVs carry one row per (kind, domain, ratio) cell.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .inpaint import ExperimentCell, ExperimentConfig
from .samples import GridKind, HarmonicCoeffs, SphereSignal, as_kind, make_grid

__all__ = [
    "FormatError",
    "read_signal",
    "write_signal",
    "read_coeffs",
    "write_coeffs",
    "parse_experiment_config",
    "read_experiment_config",
    "write_result_csv",
    "write_weights_csv",
]

_MAGIC = b"EQSPHBIN"
_VERSION = 1
_SIGNAL_TAG = "equisphere-signal"
_COEFFS_TAG = "equisphere-coeffs"
_KIND_CODE = {GridKind.DH: 0, GridKind.MW: 1}
_CODE_KIND = {0: GridKind.DH, 1: GridKind.MW}


class FormatError(ValueError):
    """Raised when an input file does not parse."""


def _fmt(x: float) -> str:
    return repr(float(x))


def _rows(values: np.ndarray, complex_vals: bool):
    if complex_vals:
        for v in values:
            yield f"{_fmt(v.real)},{_fmt(v.imag)}\n"
    else:
        for v in values:
            yield f"{_fmt(v.real)}\n"


def _finite(values: np.ndarray, path) -> np.ndarray:
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise FormatError(f"{path}: non-finite payload value at element {bad[0]}")
    return values


def _parse_rows(lines, n: int, complex_vals: bool, path) -> np.ndarray:
    # Every row takes at least one byte, so a header claiming more rows than
    # the file has bytes is refused before its payload array is allocated.
    if n > Path(path).stat().st_size:
        raise FormatError(f"{path}: expected {n} payload rows, file is too short")
    out = np.empty(n, dtype=np.complex128)
    count = 0
    for line in lines:
        line = line.strip()
        if not line:
            continue
        if count >= n:
            raise FormatError(f"{path}: more than {n} payload rows")
        parts = line.split(",")
        try:
            if complex_vals:
                if len(parts) != 2:
                    raise ValueError
                out[count] = complex(float(parts[0]), float(parts[1]))
            else:
                if len(parts) != 1:
                    raise ValueError
                out[count] = float(parts[0])
        except ValueError:
            raise FormatError(f"{path}: bad payload row {line!r}") from None
        count += 1
    if count != n:
        raise FormatError(f"{path}: expected {n} payload rows, found {count}")
    return _finite(out, path)


def _write_binary(path: Path, rectype: int, kind_code: int, L: int,
                  complex_vals: bool, values: np.ndarray) -> None:
    payload = (
        np.ascontiguousarray(
            np.stack([values.real, values.imag], axis=1).ravel()
        )
        if complex_vals
        else np.ascontiguousarray(values.real)
    ).astype("<f8")
    header = struct.pack(
        "<8sIIIIIQ28x",
        _MAGIC,
        _VERSION,
        rectype,
        kind_code,
        L,
        1 if complex_vals else 0,
        payload.size,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload.tobytes())


def _read_binary(path: Path):
    with open(path, "rb") as fh:
        header = fh.read(64)
        if len(header) != 64:
            raise FormatError(f"{path}: truncated binary header")
        magic, version, rectype, kind_code, L, vtype, count = struct.unpack(
            "<8sIIIIIQ28x", header
        )
        if magic != _MAGIC:
            raise FormatError(f"{path}: bad magic")
        if version != _VERSION:
            raise FormatError(f"{path}: unsupported format version {version}")
        payload = fh.read()
    if len(payload) % (16 if vtype == 1 else 8):  # whole real or complex values
        raise FormatError(f"{path}: payload of {len(payload)} bytes is not whole values")
    raw = np.frombuffer(payload, dtype="<f8")
    if raw.size != count:
        raise FormatError(f"{path}: expected {count} payload values, found {raw.size}")
    _finite(raw, path)
    if vtype == 1:
        values = raw[0::2] + 1j * raw[1::2]
    else:
        values = raw.astype(np.complex128)
    return rectype, kind_code, L, vtype == 1, values


def _is_binary(path: Path) -> bool:
    with open(path, "rb") as fh:
        return fh.read(8) == _MAGIC


def write_signal(path, signal: SphereSignal, complex_vals: bool = True,
                 binary: bool = False) -> None:
    """Write a signal file; ``complex_vals=False`` stores the real parts only."""
    path = Path(path)
    if binary:
        _write_binary(path, 1, _KIND_CODE[signal.grid.kind], signal.grid.L,
                      complex_vals, signal.values)
        return
    with open(path, "w") as fh:
        vtype = "complex" if complex_vals else "real"
        fh.write(f"{_SIGNAL_TAG},{_VERSION},{signal.grid.kind.value},"
                 f"{signal.grid.L},{vtype}\n")
        fh.writelines(_rows(signal.values, complex_vals))


def read_signal(path) -> tuple[SphereSignal, bool]:
    """Read a signal file; returns the signal and its declared complex flag."""
    path = Path(path)
    try:
        if _is_binary(path):
            rectype, kind_code, L, complex_vals, values = _read_binary(path)
            if rectype != 1:
                raise FormatError(f"{path}: not a signal record")
            if kind_code not in _CODE_KIND:
                raise FormatError(f"{path}: unknown grid kind code {kind_code}")
            grid = make_grid(_CODE_KIND[kind_code], L)
            if values.size != grid.n_samples:
                raise FormatError(
                    f"{path}: expected {grid.n_samples} samples, found {values.size}"
                )
            return SphereSignal(grid, values), complex_vals
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            if len(header) != 5 or header[0] != _SIGNAL_TAG:
                raise FormatError(f"{path}: not a signal file")
            tag, version, kind, L_str, vtype = header
            if version != str(_VERSION):
                raise FormatError(f"{path}: unsupported version {version}")
            if vtype not in ("real", "complex"):
                raise FormatError(f"{path}: unknown value type {vtype!r}")
            try:
                grid = make_grid(as_kind(kind), int(L_str))
            except ValueError as err:
                raise FormatError(f"{path}: {err}") from None
            complex_vals = vtype == "complex"
            values = _parse_rows(fh, grid.n_samples, complex_vals, path)
        return SphereSignal(grid, values), complex_vals
    except OSError as err:
        raise FormatError(f"{path}: {err}") from None


def write_coeffs(path, coeffs: HarmonicCoeffs, binary: bool = False) -> None:
    """Write a coefficient file (always complex, flat-index order)."""
    path = Path(path)
    if binary:
        _write_binary(path, 2, 0xFF, coeffs.L, True, coeffs.values)
        return
    with open(path, "w") as fh:
        fh.write(f"{_COEFFS_TAG},{_VERSION},{coeffs.L}\n")
        fh.writelines(_rows(coeffs.values, True))


def read_coeffs(path) -> HarmonicCoeffs:
    """Read a coefficient file."""
    path = Path(path)
    try:
        if _is_binary(path):
            rectype, _kind, L, complex_vals, values = _read_binary(path)
            if rectype != 2 or not complex_vals:
                raise FormatError(f"{path}: not a coefficient record")
            if values.size != L * L:
                raise FormatError(
                    f"{path}: expected {L * L} coefficients, found {values.size}"
                )
            return HarmonicCoeffs(L, values)
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            if len(header) != 3 or header[0] != _COEFFS_TAG:
                raise FormatError(f"{path}: not a coefficient file")
            _tag, version, L_str = header
            if version != str(_VERSION):
                raise FormatError(f"{path}: unsupported version {version}")
            try:
                L = int(L_str)
            except ValueError:
                raise FormatError(f"{path}: bad band-limit {L_str!r}") from None
            if L < 1:
                raise FormatError(f"{path}: bad band-limit {L}")
            values = _parse_rows(fh, L * L, True, path)
        return HarmonicCoeffs(L, values)
    except OSError as err:
        raise FormatError(f"{path}: {err}") from None


def _split_list(value: str) -> list[str]:
    return [v.strip() for v in value.split(",") if v.strip()]


# config key -> converter of its value, which sets the ExperimentConfig field
# of the same name; ``signal_coeffs`` (a coefficient file) sets ``coeffs``
_CONFIG_KEYS = {
    "L": int,
    "kinds": lambda v: tuple(as_kind(k) for k in _split_list(v)),
    "domains": lambda v: tuple(_split_list(v)),
    "ratios": lambda v: tuple(float(r) for r in _split_list(v)),
    "trials": int,
    "sigma_rel": float,
    "seed": int,
    "max_iter": int,
    "tol": float,
    "smoothing": float,
    "out": str,
}


def parse_experiment_config(text: str, base_dir: Path | None = None) -> ExperimentConfig:
    """Parse a flat ``key=value`` experiment config."""
    fields: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FormatError(f"config line {lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        fields[key] = value
    unknown = sorted(set(fields) - set(_CONFIG_KEYS) - {"signal_coeffs"})
    if unknown:
        raise FormatError(f"unknown config keys: {unknown}")
    try:
        values = {k: _CONFIG_KEYS[k](v) for k, v in fields.items() if k in _CONFIG_KEYS}
    except ValueError as err:
        raise FormatError(f"bad config value: {err}") from None
    if "signal_coeffs" in fields:
        coeff_path = Path(fields["signal_coeffs"])
        if base_dir is not None and not coeff_path.is_absolute():
            coeff_path = base_dir / coeff_path
        values["coeffs"] = read_coeffs(coeff_path)
    config = ExperimentConfig(**values)
    try:
        config.validate()
    except ValueError as err:
        raise FormatError(str(err)) from None
    return config


def read_experiment_config(path) -> ExperimentConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as err:
        raise FormatError(f"{path}: {err}") from None
    return parse_experiment_config(text, base_dir=path.parent)


def write_result_csv(path, rows: list[ExperimentCell]) -> None:
    """Write experiment cells as deterministic CSV."""
    with open(path, "w") as fh:
        fh.write("kind,domain,ratio,mean_snr_db,std_snr_db,trials\n")
        for row in rows:
            fh.write(
                f"{row.kind.value},{row.domain},{_fmt(row.ratio)},"
                f"{_fmt(row.mean_snr_db)},{_fmt(row.std_snr_db)},{row.trials}\n"
            )


def write_weights_csv(path, thetas: np.ndarray, q: np.ndarray) -> None:
    """Write a per-row quadrature table with columns ``t,theta,weight``."""
    with open(path, "w") as fh:
        fh.write("t,theta,weight\n")
        for t, (theta, w) in enumerate(zip(thetas, q)):
            fh.write(f"{t},{_fmt(theta)},{_fmt(w)}\n")
