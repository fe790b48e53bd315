"""Command-line interface.

Commands: ``forward``, ``inverse``, ``weights``, ``tv-norm``, ``integrate``,
``make-signal``, ``experiment``.  Exit codes: 0 success, 2 parse or
validation failure (a band-limit too large for memory included; ``weights``
and ``make-signal`` refuse one above the transforms' 1024 before allocating
anything), 3 grid/band-limit contract violation, 4 every experiment cell
failed.
Result files never contain timestamps or other nondeterministic content;
wall time lives in the experiment manifest.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import fileio
from .inpaint import make_cap_signal, run_experiment
from .samples import GridMismatchError, make_grid, theta_nodes
from .transforms import forward, integrate, inverse, row_weights
from .tv import tv_norm
from .wigner import check_delta_bandlimit

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CONTRACT = 3
EXIT_ALL_FAILED = 4


def _cmd_forward(args) -> int:
    signal, _ = fileio.read_signal(args.infile)
    fileio.write_coeffs(args.out, forward(signal), binary=args.binary)
    return EXIT_OK


def _cmd_inverse(args) -> int:
    coeffs = fileio.read_coeffs(args.infile)
    signal = inverse(args.kind, coeffs, args.bandlimit)
    fileio.write_signal(args.out, signal, binary=args.binary)
    return EXIT_OK


def _cmd_weights(args) -> int:
    grid = make_grid(args.kind, check_delta_bandlimit(args.bandlimit))
    fileio.write_weights_csv(args.out, theta_nodes(grid), row_weights(grid))
    return EXIT_OK


def _cmd_tv_norm(args) -> int:
    signal, _ = fileio.read_signal(args.infile)
    value = tv_norm(signal)
    line = repr(float(value))
    if args.out:
        Path(args.out).write_text(line + "\n")
    else:
        print(line)
    return EXIT_OK


def _cmd_integrate(args) -> int:
    signal, _ = fileio.read_signal(args.infile)
    value = integrate(signal)
    line = f"{float(value.real)!r},{float(value.imag)!r}"
    if args.out:
        Path(args.out).write_text(line + "\n")
    else:
        print(line)
    return EXIT_OK


def _parse_caps(spec: str):
    caps = []
    for part in spec.split(";"):
        part = part.strip()
        if not part:
            continue
        nums = [float(v) for v in part.split(",")]
        if len(nums) != 4:
            raise ValueError(
                "each cap needs four numbers: theta,phi,radius,amplitude"
            )
        caps.append(tuple(nums))
    if not caps:
        raise ValueError("no caps given")
    return tuple(caps)


def _cmd_make_signal(args) -> int:
    grid = make_grid(args.kind, check_delta_bandlimit(args.bandlimit))
    caps = _parse_caps(args.caps) if args.caps else None
    kwargs = {} if caps is None else {"caps": caps}
    if args.smoothing is not None:
        kwargs["smoothing"] = args.smoothing
    signal, coeffs = make_cap_signal(grid, **kwargs)
    fileio.write_signal(args.out, signal, binary=args.binary)
    if args.coeffs_out:
        fileio.write_coeffs(args.coeffs_out, coeffs, binary=args.binary)
    return EXIT_OK


def _cmd_experiment(args) -> int:
    config = fileio.read_experiment_config(args.config)
    out = Path(args.out or config.out or "experiment_results.csv")
    rows, manifest = run_experiment(config)
    fileio.write_result_csv(out, rows)
    manifest_path = out.with_suffix(out.suffix + ".manifest.json")
    manifest_path.write_text(json.dumps(manifest, indent=2, default=str) + "\n")
    if all(row.trials == 0 or math.isnan(row.mean_snr_db) for row in rows):
        print("all experiment cells failed; see manifest", file=sys.stderr)
        return EXIT_ALL_FAILED
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="equisphere",
        description="Exact sampling theorems on the sphere with TV inpainting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("forward", help="signal file -> coefficient file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--binary", action="store_true")
    p.set_defaults(func=_cmd_forward)

    p = sub.add_parser("inverse", help="coefficient file -> signal file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--kind", choices=["dh", "mw"], required=True)
    p.add_argument("--bandlimit", "-L", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--binary", action="store_true")
    p.set_defaults(func=_cmd_inverse)

    p = sub.add_parser("weights", help="emit a quadrature weight table")
    p.add_argument("--kind", choices=["dh", "mw"], required=True)
    p.add_argument("--bandlimit", "-L", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_weights)

    p = sub.add_parser("tv-norm", help="discrete TV norm of a signal file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_tv_norm)

    p = sub.add_parser("integrate", help="quadrature integral of a signal file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_integrate)

    p = sub.add_parser("make-signal", help="synthesize a band-limited cap signal")
    p.add_argument("--kind", choices=["dh", "mw"], required=True)
    p.add_argument("--bandlimit", "-L", type=int, required=True)
    p.add_argument("--caps", default=None,
                   help="semicolon-separated theta,phi,radius,amplitude tuples")
    p.add_argument("--smoothing", type=float, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--coeffs-out", default=None)
    p.add_argument("--binary", action="store_true")
    p.set_defaults(func=_cmd_make_signal)

    p = sub.add_parser("experiment", help="run the reconstruction experiment")
    p.add_argument("config")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GridMismatchError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONTRACT
    except (fileio.FormatError, ValueError, OSError, MemoryError) as err:
        print(f"error: {str(err) or type(err).__name__}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
