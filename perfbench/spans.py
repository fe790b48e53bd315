"""Span recording around the public functions each layer is entered through.

Wrappers are installed on the module attribute the *calling* module looks
the name up in (``equisphere.inpaint.tv_apply_raw``, not only
``equisphere.tv.tv_apply_raw``), so calls made inside the package are seen
without touching its source.  Spans stay in memory and are written once,
when the run ends.  A wrapped name that no longer exists is listed as
absent; it never fails the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import time
from contextlib import contextmanager

# (module the caller looks the name up in, attribute, span name)
WRAPPED = (
    ("equisphere.wigner", "build_delta_table", "wigner.delta_build"),
    ("equisphere.wigner", "norm_legendre_tables", "wigner.legendre_tables"),
    ("equisphere.dh", "norm_legendre_tables", "wigner.legendre_tables"),
    ("equisphere.inpaint", "norm_legendre_tables", "wigner.legendre_tables"),
    ("equisphere.wigner", "ylm_matrix", "wigner.ylm_matrix"),
    ("equisphere.dh", "dh_forward", "dh.forward"),
    ("equisphere.cli", "dh_forward", "dh.forward"),
    ("equisphere.dh", "dh_inverse", "dh.inverse"),
    ("equisphere.cli", "dh_inverse", "dh.inverse"),
    ("equisphere.inpaint", "dh_inverse", "dh.inverse"),
    ("equisphere.dh", "dh_integrate", "dh.integrate"),
    ("equisphere.cli", "dh_integrate", "dh.integrate"),
    ("equisphere.mw", "mw_forward", "mw.forward"),
    ("equisphere.cli", "mw_forward", "mw.forward"),
    ("equisphere.mw", "mw_inverse", "mw.inverse"),
    ("equisphere.cli", "mw_inverse", "mw.inverse"),
    ("equisphere.inpaint", "mw_inverse", "mw.inverse"),
    ("equisphere.mw", "mw_integrate", "mw.integrate"),
    ("equisphere.cli", "mw_integrate", "mw.integrate"),
    ("equisphere.tv", "tv_apply_raw", "tv.apply"),
    ("equisphere.inpaint", "tv_apply_raw", "tv.apply"),
    ("equisphere.inpaint", "tv_adjoint_raw", "tv.adjoint"),
    ("equisphere.tv", "tv_norm", "tv.norm"),
    ("equisphere.cli", "tv_norm", "tv.norm"),
    ("equisphere.inpaint", "make_cap_signal", "inpaint.cap_signal"),
    ("equisphere.cli", "make_cap_signal", "inpaint.cap_signal"),
    ("equisphere.inpaint", "make_problem", "inpaint.make_problem"),
    ("equisphere.inpaint", "solve_spatial", "inpaint.solve"),
    ("equisphere.inpaint", "solve_harmonic", "inpaint.solve"),
    ("equisphere.inpaint", "real_synthesis_matrix", "inpaint.real_synthesis_matrix"),
    ("equisphere.fileio", "read_signal", "fileio.read"),
    ("equisphere.fileio", "read_coeffs", "fileio.read"),
    ("equisphere.fileio", "write_signal", "fileio.write"),
    ("equisphere.fileio", "write_coeffs", "fileio.write"),
    ("equisphere.cli", "main", "cli.command"),
)

SETUP_OP = "setup"


class Span:
    __slots__ = ("name", "parent", "op", "start", "end", "info", "children_s")

    def __init__(self, name, parent, op):
        self.name = name
        self.parent = parent
        self.op = op
        self.start = self.end = 0.0
        self.info = {}
        self.children_s = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return self.seconds - self.children_s


def _annotate(span: Span, args, kwargs, result, error) -> None:
    # Counts measured where the work happens: table sizes, file sizes,
    # solver iterations.
    layer = span.name
    if layer == "wigner.delta_build" and result is not None:
        span.info["bytes"] = sum(result.slice(el).nbytes for el in range(result.L))
    elif layer in ("fileio.read", "fileio.write"):
        path = args[0] if args else kwargs.get("path")
        try:
            span.info["bytes"] = os.path.getsize(path)
        except (OSError, TypeError):
            pass
    elif layer == "inpaint.solve":
        res = result if error is None else getattr(error, "result", None)
        if res is not None:
            span.info["iterations"] = int(res.iterations)
        span.info["failed"] = error is not None


class Tracer:
    """In-memory span recorder; ``op`` labels spans with an operation id."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = SETUP_OP
        self.absent: list[str] = []
        self._stack: list[Span] = []
        self._saved: list[tuple] = []
        self._paused = False

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else None
            span = Span(name, parent, self.op)
            self.spans.append(span)
            self._stack.append(span)
            result = error = None
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                error = err
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    parent.children_s += span.seconds
                _annotate(span, args, kwargs, result, error)

        return wrapper

    def install(self) -> None:
        if self._saved:
            return
        self.absent = []
        for modname, attr, name in WRAPPED:
            module = importlib.import_module(modname)
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(f"{modname}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self.wrap(name, fn))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    @contextmanager
    def paused(self):
        """Run output checks without recording their calls."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def write(self, path) -> None:
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                row = {
                    "id": i,
                    "name": s.name,
                    "parent": None if s.parent is None else index[id(s.parent)],
                    "op": s.op,
                    "start": s.start,
                    "end": s.end,
                }
                row.update(s.info)
                fh.write(json.dumps(row) + "\n")


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(
    tracer: Tracer,
    first_round: str,
    overhead_s: float,
    cli_startup_s: float = 0.0,
) -> dict:
    """Per-layer figures from a traced run, by metric name.

    Times are medians over every span of a name.  Counts cover the set-up
    and the first traced round (operation ids starting with
    ``first_round``), so they repeat exactly for a fixed seed.
    """
    spans = tracer.spans

    def named(*names):
        return [s for s in spans if s.name in names]

    def counted(*names):
        return [s for s in named(*names) if s.op == SETUP_OP or s.op.startswith(first_round)]

    solves = [s for s in named("inpaint.solve") if s.op != SETUP_OP and not s.info.get("failed")]
    solve_ids = {id(s) for s in solves}
    iterations = sum(s.info.get("iterations", 0) for s in solves)
    applies_in_solves = sum(
        1 for s in named("tv.apply") if s.parent is not None and id(s.parent) in solve_ids
    )
    first_solves = [s for s in solves if s.op.startswith(first_round)]
    builds = named("wigner.delta_build")

    return {
        "wigner.delta_build_s": _median(s.seconds for s in builds),
        "wigner.delta_build_calls": len(counted("wigner.delta_build")),
        "wigner.delta_table_mb": max((s.info.get("bytes", 0) for s in builds), default=0) / 1e6,
        "wigner.legendre_tables_s": _median(s.seconds for s in named("wigner.legendre_tables")),
        "wigner.legendre_tables_calls": len(counted("wigner.legendre_tables")),
        "wigner.ylm_matrix_s": _median(s.seconds for s in named("wigner.ylm_matrix")),
        "dh.forward_s": _median(s.seconds for s in named("dh.forward")),
        "dh.inverse_s": _median(s.seconds for s in named("dh.inverse")),
        "dh.self_s": _median(s.self_seconds for s in named("dh.forward", "dh.inverse")),
        "mw.forward_s": _median(s.seconds for s in named("mw.forward")),
        "mw.inverse_s": _median(s.seconds for s in named("mw.inverse")),
        "mw.self_s": _median(s.self_seconds for s in named("mw.forward", "mw.inverse")),
        "tv.apply_s": _median(s.seconds for s in named("tv.apply")),
        "tv.adjoint_s": _median(s.seconds for s in named("tv.adjoint")),
        "tv.apply_calls": len(counted("tv.apply")),
        "tv.adjoint_calls": len(counted("tv.adjoint")),
        "inpaint.setup_s": sum(
            s.seconds for s in named("inpaint.solve") if s.op == SETUP_OP
        ),
        "inpaint.solve_s": _median(s.seconds for s in solves),
        "inpaint.loop_self_s": _median(s.self_seconds for s in solves),
        "inpaint.ms_per_iter": _median(
            1e3 * s.seconds / s.info["iterations"] for s in solves if s.info.get("iterations")
        ),
        "inpaint.iterations": sum(s.info.get("iterations", 0) for s in first_solves),
        "inpaint.tv_applies_per_iter": applies_in_solves / iterations if iterations else 0.0,
        "inpaint.cap_signal_s": _median(s.seconds for s in named("inpaint.cap_signal")),
        "inpaint.make_problem_s": _median(s.seconds for s in named("inpaint.make_problem")),
        "fileio.read_s": _median(s.seconds for s in named("fileio.read")),
        "fileio.write_s": _median(s.seconds for s in named("fileio.write")),
        "fileio.bytes_read": sum(s.info.get("bytes", 0) for s in counted("fileio.read")),
        "fileio.bytes_written": sum(s.info.get("bytes", 0) for s in counted("fileio.write")),
        "cli.startup_s": cli_startup_s,
        "cli.command_s": _median(s.seconds for s in named("cli.command")),
        "trace.overhead_s": overhead_s,
        "trace.wrappers_absent": len(tracer.absent),
    }
