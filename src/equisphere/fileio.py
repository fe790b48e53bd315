"""On-disk formats: signal/coefficient files, experiment config, result CSV.

Text formats are CSV with a single header line and one node (or
coefficient) per row, two columns ``re,im`` for complex payloads and one
column for real ones.  Floats are written with shortest round-trip
precision, so write -> read -> write is byte-identical.  Rows are read by
``numpy.loadtxt``: empty lines, spaces around a value and CRLF line ends
are accepted; a line of spaces only, an empty field (a trailing comma),
``#``, quoted values, hex floats and digits grouped with underscores
(``1_0``, which Python's ``float`` would read as 10) are rejected.

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
import warnings
from pathlib import Path

import numpy as np

from .inpaint import ExperimentCell, ExperimentConfig
from .samples import GridKind, HarmonicCoeffs, SphereSignal, check_bandlimit, make_grid

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
_HEADER = struct.Struct("<8sIIIIIQ28x")
_TAGS = {1: "equisphere-signal", 2: "equisphere-coeffs"}  # by record type
_KIND_CODE = {GridKind.DH: 0, GridKind.MW: 1}
_CODE_KIND = {0: GridKind.DH, 1: GridKind.MW}
_VTYPE = {0: "real", 1: "complex"}


class FormatError(ValueError):
    """Raised when an input file does not parse."""


def _fmt(x: float) -> str:
    return repr(float(x))


def _write(path, kind, L: int, values: np.ndarray, complex_vals: bool, binary: bool) -> None:
    """Write a signal on a ``kind`` grid, or coefficients when ``kind`` is None."""
    rectype, vcode = (2 if kind is None else 1), (1 if complex_vals else 0)
    with open(path, "wb" if binary else "w") as fh:
        if binary:
            raw = np.ascontiguousarray(values).view(np.float64)  # interleaved re, im
            payload = (raw if complex_vals else raw[::2]).astype("<f8")
            fh.write(_HEADER.pack(_MAGIC, _VERSION, rectype, _KIND_CODE.get(kind, 0xFF), L,
                                  vcode, payload.size))
            fh.write(payload)
            return
        fields = (L,) if kind is None else (kind.value, L, _VTYPE[vcode])
        fh.write(",".join(map(str, (_TAGS[rectype], _VERSION, *fields))) + "\n")
        # one row at a time: the payload text is never held whole
        if complex_vals:
            fh.writelines(f"{_fmt(v.real)},{_fmt(v.imag)}\n" for v in values)
        else:
            fh.writelines(f"{_fmt(v)}\n" for v in values.real)


def _read(path, rectype: int):
    """Grid (None for coefficients), band-limit, complex flag and values of a
    signal (record type 1) or coefficient (2) file in either encoding."""
    path = Path(path)
    what = ("signal", "coefficient")[rectype - 1]
    try:
        with open(path, "rb") as fh:
            binary = fh.read(8) == _MAGIC
        with open(path, "rb" if binary else "r") as fh:
            if binary:
                head = fh.read(_HEADER.size)
                if len(head) != _HEADER.size:
                    raise FormatError(f"{path}: truncated binary header")
                _, version, rtype, code, L, vcode, count = _HEADER.unpack(head)
                tag, kind = _TAGS.get(rtype), _CODE_KIND.get(code, code)
                vtype = _VTYPE.get(vcode, vcode)
            else:
                header = fh.readline().strip().split(",")
                if len(header) != (5 if rectype == 1 else 3):
                    raise FormatError(f"{path}: not a {what} file")
                if rectype == 2:  # no grid kind; always complex
                    header = [*header[:2], None, header[2], "complex"]
                tag, version, kind, L, vtype = header
            if tag != _TAGS[rectype]:
                raise FormatError(f"{path}: not a {what} file")
            if str(version) != str(_VERSION):
                raise FormatError(f"{path}: unsupported version {version}")
            if vtype not in ("real", "complex")[rectype - 1 :]:  # coefficients are complex
                raise FormatError(f"{path}: unknown value type {vtype!r}")
            try:
                L = check_bandlimit(int(L))
                grid = make_grid(kind, L) if rectype == 1 else None
            except ValueError as err:
                raise FormatError(f"{path}: {err}") from None
            n = L * L if grid is None else grid.n_samples
            width = 2 if vtype == "complex" else 1
            if binary:
                payload = fh.read()
                if len(payload) % (8 * width):  # whole real or complex values
                    raise FormatError(
                        f"{path}: payload of {len(payload)} bytes is not whole values")
                rows = np.frombuffer(payload, dtype="<f8")
                if rows.size != count:
                    raise FormatError(f"{path}: expected {count} payload values, found {rows.size}")
                rows = rows.reshape(-1, width)
            else:
                # Every row takes at least one byte, so a header claiming more
                # rows than the file has bytes is refused before they are read.
                if n > path.stat().st_size:
                    raise FormatError(f"{path}: expected {n} payload rows, file is too short")
                try:
                    with warnings.catch_warnings():
                        # about blank lines or no rows at all; the row count is checked below
                        warnings.simplefilter("ignore", UserWarning)
                        rows = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2,
                                          max_rows=n + 1)
                except ValueError as err:
                    raise FormatError(f"{path}: bad payload: {err}") from None
    except (OSError, UnicodeDecodeError) as err:
        raise FormatError(f"{path}: {err}") from None
    if rows.shape != (n, width):
        raise FormatError(f"{path}: expected {n} payload rows of {width} values, "
                          f"read {rows.shape[0]} of {rows.shape[1]}")
    bad = np.flatnonzero(~np.isfinite(rows))
    if bad.size:
        raise FormatError(f"{path}: non-finite payload value at element {bad[0]}")
    values = np.zeros((n, 2))  # re, im
    values[:, :width] = rows
    return grid, L, width == 2, values.view(np.complex128)[:, 0]


def write_signal(path, signal: SphereSignal, complex_vals: bool = True,
                 binary: bool = False) -> None:
    """Write a signal file; ``complex_vals=False`` stores the real parts only."""
    _write(path, signal.grid.kind, signal.grid.L, signal.values, complex_vals, binary)


def read_signal(path) -> tuple[SphereSignal, bool]:
    """Read a signal file; returns the signal and its declared complex flag."""
    grid, _, complex_vals, values = _read(path, 1)
    return SphereSignal(grid, values), complex_vals


def write_coeffs(path, coeffs: HarmonicCoeffs, binary: bool = False) -> None:
    """Write a coefficient file (always complex, flat-index order)."""
    _write(path, None, coeffs.L, coeffs.values, True, binary)


def read_coeffs(path) -> HarmonicCoeffs:
    """Read a coefficient file."""
    _, L, _, values = _read(path, 2)
    return HarmonicCoeffs(L, values)


def _split_list(value: str) -> list[str]:
    return [v.strip() for v in value.split(",") if v.strip()]


# config key -> converter of its value, which sets the ExperimentConfig field
# of the same name; ``signal_coeffs`` (a coefficient file) sets ``coeffs``
_CONFIG_KEYS = {
    "L": int,
    "kinds": lambda v: tuple(_split_list(v)),
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
    try:
        return ExperimentConfig(**values)
    except ValueError as err:
        raise FormatError(str(err)) from None


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
