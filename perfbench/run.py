"""Benchmark entry point: one workload, one seed, one run.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload query-flat --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the same workload with the layers' entry points wrapped
in spans (alternating traced and untraced blocks on the query path) and
reports the per-layer metrics instead; it also writes a Perfetto trace of
the first traced operations to ``.perfbench/``.

The metrics printed, with their units, are those ``BENCHMARK.json`` at the
repository root lists.  The last line of standard output is one JSON
object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Lines before it are JSON too: the run's metadata (BLAS library and thread
count, core count, versions, seed) and details such as sample counts.
The process exits 1 when an output check fails, 2 when the program's
source tree is missing.  Thread counts are left as the environment sets
them: the benchmark measures the program as it runs by default.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")


def blas_info() -> dict:
    """BLAS build and its current thread count (read, never set)."""
    import numpy as np

    info: dict = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"] = blas.get("name")
        info["version"] = blas.get("version")
    except (KeyError, TypeError):
        pass
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                break
    return info


def metadata(args) -> dict:
    import numpy as np

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "thread_env": {k: v for k, v in os.environ.items()
                       if k.endswith("_NUM_THREADS") or k == "OMP_PROC_BIND"},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"program source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads
    from layertrace import Instrumentation

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    print(json.dumps({"meta": metadata(args)}), flush=True)

    inst = Instrumentation() if args.trace else None
    run = workloads.Run(args.seed, args.seconds, inst, OUT_DIR)
    try:
        outcome = workloads.WORKLOADS[args.workload](run)
    finally:
        if inst is not None:
            inst.close()
    if inst is not None:
        path = run.probe.write_trace(
            os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.json"))
        outcome.details["perfetto_trace"] = path and os.path.relpath(path, ROOT)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.trace:
        # A layer the workload does not exercise reads 0.
        metrics = {m["name"]: {"value": float(outcome.layers.get(m["name"], 0.0)),
                               "unit": m["unit"]} for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": float(outcome.e2e[m["name"]]), "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    correct = not outcome.errors
    print(json.dumps({"details": outcome.details, "errors": outcome.errors[:20]}))
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
