"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload transforms --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the same
workload with spans recorded around each layer's entry points and prints
the per-layer metrics instead.  The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
A fuller record (environment, every operation) and, for traced runs, the
spans go to ``perfbench/out/``.
"""

import time

START = time.perf_counter()
# Interpreter start-up before this line, taken as the CPU time it used.
START_CPU = time.process_time()

import os  # noqa: E402

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported, here and in children

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

def _since_start() -> float:
    return time.perf_counter() - START + START_CPU


def peak_rss_mb() -> float:
    """Largest resident set of this process and of any child it waited for."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib * 1024 / 1e6


def labelled(values: dict, kind: str) -> dict:
    """Attach the units ``BENCHMARK.json`` declares; the names must match it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec[kind]}
    if set(units) != set(values):
        raise RuntimeError(f"{kind} metrics differ from BENCHMARK.json: "
                           f"{sorted(set(units) ^ set(values))}")
    return {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}


def end_to_end(ops, setup_s: float) -> dict:
    done = [op for op in ops if not op.failed]
    values = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb()}
    for grid in ("dh", "mw"):
        times = [1e3 * op.seconds for op in done if op.grid == grid]
        snrs = [op.snr_db for op in done if op.grid == grid and op.snr_db is not None]
        # A round is a fixed mix of unlike operations (five ratios, five
        # commands); the median jumps between members of such a mix, the
        # mean over whole rounds does not.
        values[f"{grid}_op_ms"] = statistics.fmean(times) if times else 0.0
        values[f"{grid}_snr_db"] = statistics.fmean(snrs) if snrs else 0.0
    busy = sum(op.seconds for op in done)
    values["ops_per_s"] = len(done) / busy if busy else 0.0
    return values


def measure(workload, recorder, seconds: float, tracer) -> dict:
    """Run whole rounds until ``seconds`` have passed; return busy time per round.

    A traced run starts with an untraced warm-up round, then alternates
    traced and untraced rounds (at least one of each), so that the tracing
    overhead compares warm rounds with warm rounds.  ``busy[True]`` holds
    the traced rounds' time spent in operations, ``busy[False]`` the rest.
    """
    busy = {True: [], False: []}
    if tracer is not None:
        tracer.uninstall()
        workload.run_round(recorder)
        recorder.round += 1
    traced = tracer is not None
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.install() if traced else tracer.uninstall()
        n_before = len(recorder.ops)
        workload.run_round(recorder)
        busy[traced].append(sum(op.seconds for op in recorder.ops[n_before:]))
        recorder.round += 1
        if time.perf_counter() - start >= seconds and (tracer is None or busy[False]):
            break
        traced = tracer is not None and not traced
    if tracer is not None:
        tracer.uninstall()
    return busy


def _git_sha(root: Path):
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    src_lines = sum(
        len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py"))
    )
    return {
        "git_sha": _git_sha(ROOT),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "threads": {v: os.environ.get(v) for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "src_lines": src_lines,
    }


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "equisphere").is_dir():
        print(f"perfbench: no package source at {ROOT / 'src' / 'equisphere'}", file=sys.stderr)
        return 2
    try:
        import spans
        import workloads
    except ImportError as err:
        print(f"perfbench: cannot import the package from {ROOT / 'src'}: {err}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    tracer = spans.Tracer() if args.trace else None
    recorder = workloads.Recorder(tracer)
    workload = workloads.WORKLOADS[args.workload](args.seed, in_process=tracer is not None)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace}
    try:
        if tracer is not None:
            tracer.install()
        workload.setup(recorder)
        setup_s = _since_start()
        busy = measure(workload, recorder, args.seconds, tracer)
        if tracer is not None:
            startup = workload.startup_s() if isinstance(workload, workloads.Cli) else 0.0
            overhead = statistics.median(busy[True]) - statistics.median(busy[False])
            metrics = labelled(spans.layer_metrics(tracer, "r1:", overhead, startup),
                               "per_layer")
        else:
            metrics = labelled(end_to_end(recorder.ops, setup_s), "end_to_end")
    finally:
        workload.close()

    result = {
        "correct": not recorder.failures,
        "attempted": len(recorder.ops),
        "failed": sum(op.failed for op in recorder.ops),
        "metrics": metrics,
    }
    record.update(
        result,
        rounds=recorder.round,
        check_failures=recorder.failures,
        absent_wrappers=tracer.absent if tracer is not None else [],
        environment=environment(),
        ops=[vars(op) for op in recorder.ops],
    )
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write(out / f"{stem}.spans.jsonl")
    for failure in recorder.failures:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
