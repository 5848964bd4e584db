"""Benchmark entry point.

    python3 benchmarks/run.py --workload train_paper --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout: the program is imported from
``src/`` there and nowhere else.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The line before it is the run record (machine, seeds,
set-up times, check failures, tracing overhead).  Inputs are written to
``.bench_work/`` in the checkout and removed at exit; a traced run leaves
its spans in ``.bench_work/spans-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
END_TO_END = ("setup_s", "tok_per_s", "op_s", "peak_rss_mb")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _pin_blas_threads() -> None:
    # Must run before NumPy is imported: BLAS reads these once, at load.
    # One thread: the program's matrix products are vector-by-matrix sized,
    # where a second thread only adds synchronisation.  Measured on 2 cores,
    # two threads made train_paper ~10% slower and its run-to-run spread
    # about five times wider.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and line.rstrip().endswith(".so")}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_thread_env": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "platform": platform.platform(),
    }


def _import_program():
    """Import syngcn from this checkout's src/, or exit with an error when it is absent."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import syngcn
    except ImportError as exc:
        sys.exit(f"benchmark: cannot import the program from {src}: {exc}")
    if not Path(syngcn.__file__).resolve().is_relative_to(src):
        sys.exit(f"benchmark: syngcn was imported from {syngcn.__file__}, not from {src}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["train_paper", "predict_paper", "epochs_small"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    _pin_blas_threads()
    _import_program()
    import workloads

    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    run = workloads.Run(seed=args.seed, seconds=args.seconds, trace=bool(args.trace), workdir=workdir)
    try:
        workloads.WORKLOADS[args.workload](run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    names = [n for n in run.metrics if (n in END_TO_END) != bool(args.trace)]
    record = {
        "workload": args.workload,
        "seeds": {"workload": args.seed, "inputs": f"numpy.random.default_rng([{args.seed}, k])"},
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": _machine(),
        "failures": run.failures,
        **run.details,
    }
    if args.trace:
        spans_path = ROOT / ".bench_work" / f"spans-{args.workload}-{args.seed}.json"
        spans_path.write_text(json.dumps({"record": record, "spans": run.spans}), encoding="utf-8")
        record["spans_file"] = str(spans_path.relative_to(ROOT))
    print(json.dumps(record, default=float))
    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {n: {"value": float(run.metrics[n][0]), "unit": run.metrics[n][1]} for n in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
