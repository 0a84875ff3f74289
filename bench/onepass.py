"""One benchmark pass, run in a fresh process by run.py.

Usage: python3 bench/onepass.py --workload W --seed S --out-dir D --t0 T
                                [--trace] [--tiny]

Run from the root of an oppwalk checkout.  ``--t0`` is the CLOCK_MONOTONIC
time at which the parent started this process; setup_s runs from then until
oppwalk is imported and the workload's argv lists are built.  The pass then
calls ``oppwalk.cli.main`` once per workload step, each writing its CSV into
the output directory, and writes ``result.json`` there.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import sys
import time


def _call(main, argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects bad usage this way
        return exc.code if isinstance(exc.code, int) else 2


def _blas() -> dict:
    """BLAS library and the thread count it runs with in this process."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as maps:
        libs = sorted({ln.split()[-1] for ln in maps if "openblas" in ln})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, sym):
                getter = getattr(handle, sym)
                getter.restype = ctypes.c_int
                threads = getter()
                break
    return {"numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import oppwalk
    from oppwalk import cli
    import workloads

    steps = [(label, [*argv, "--out", os.path.join(args.out_dir, f"{label}.csv")])
             for label, argv in workloads.steps(args.workload, args.seed, args.tiny)]
    setup_s = time.monotonic() - args.t0

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(oppwalk)

    results = []
    start = time.perf_counter()
    for label, argv in steps:
        t = time.perf_counter()
        if tracer is None:
            rc = _call(cli.main, argv)
        else:
            with tracer.command(label):
                rc = _call(cli.main, argv)
        results.append({"label": label, "rc": rc,
                        "seconds": time.perf_counter() - t})
    wall_s = time.perf_counter() - start

    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "steps": results,
        "env": _blas(),
    }
    if tracer is not None:
        out["layers"] = tracer.metrics()
        out["spans"] = tracer.spans
    with open(os.path.join(args.out_dir, "result.json"), "w") as f:
        json.dump(out, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
