"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload mpc_s5 --seed 1 --seconds 10 --trace 0

Run from a checkout of the repository: the program is imported from its
``src`` directory. With ``--trace 0`` the last line of standard output holds
the end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
run. Every line before it explains the result: the environment stamp, each
metric with its unit, sample counts, and per-layer metrics whose public
names no longer exist (absent). Exits with 2, printing no result, when the
program's sources are missing.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOAD_NAMES = ("offline_train", "mpc_s20", "mpc_s5")


def pin_blas_threads():
    """Cap BLAS threads at nproc (lower if the environment already asks for
    fewer). Must run before numpy is imported. Returns (nproc, threads)."""
    nproc = len(os.sched_getaffinity(0))
    try:
        threads = min(nproc, int(os.environ.get("OPENBLAS_NUM_THREADS", nproc)))
    except ValueError:
        threads = nproc
    threads = max(threads, 1)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return nproc, threads


def blas_threads_in_effect():
    """Thread count reported by numpy's bundled OpenBLAS, or None."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "libscipy_openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment_stamp(args, nproc, threads, candidates):
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "candidates_per_step": candidates,
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_requested": threads,
        "blas_threads_in_effect": blas_threads_in_effect(),
        "nproc": nproc,
        "python": platform.python_version(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure for at least this long (at least one unit of work)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (SRC / "minreal" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}; run from a checkout", file=sys.stderr)
        return 2
    nproc, threads = pin_blas_threads()
    sys.path.insert(0, str(SRC))

    import workloads

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        result = workloads.WORKLOADS[args.workload](
            args.seed, args.seconds, trace=bool(args.trace), workdir=workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run still uses it
            pass

    metrics = result.layers if args.trace else result.metrics
    print("env:", json.dumps(environment_stamp(args, nproc, threads, result.candidates)))
    for note in result.notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name:26s} {value!r} {unit}")
    if result.tracer is not None:
        absent = workloads.absent_metrics(result.tracer)
        print("absent names:", ", ".join(result.tracer.absent_names) or "none")
        print("absent metrics (reported as 0):", ", ".join(absent) or "none")
    checks = result.checks
    for failure in checks.failures:
        print("FAILED:", failure)
    print(json.dumps({
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
