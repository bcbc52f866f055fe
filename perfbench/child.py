"""
One benchmark process.  run.py starts a fresh one for every set-up sample,
every pass and the probe, so each pays the library's cold start.

    python3 child.py --mode setup|pass|probe [--workload W --seed N --trace 0|1]

Every mode first imports meshlab and runs one length-4 dist_brute (set-up,
so any engine warm-up lands there), then prints a ready line, which is when
run.py stops the set-up clock, and times one reference slice (calib.py) to
rescale that set-up time.  The last line of output is one JSON object.
"""
from __future__ import annotations

import argparse
import json
import sys
import time

import calib


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "pass", "probe"), required=True)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out")
    args = parser.parse_args()

    t0 = time.perf_counter()
    import meshlab

    import_s = time.perf_counter() - t0
    meshlab.dist_brute(4, meshlab.UP_DOWN, meshlab.MMP_Q1)
    print(json.dumps({"ready": True, "import_s": import_s, "engine": engine()}), flush=True)
    setup_slice_s = calib.slice_s()
    if args.mode == "setup":
        print(json.dumps({"setup_slice_s": setup_slice_s}))
        return 0
    if args.mode == "probe":
        from probe import run_probe

        print(json.dumps({"setup_slice_s": setup_slice_s, "probe": run_probe()}))
        return 0

    import workloads

    extra = {}
    if not args.trace:
        result = workloads.run_pass(args.workload, args.seed)
    else:
        from tracer import Tracer

        tracer = Tracer(f"{args.workload}-seed{args.seed}-traced")
        tracer.install()
        try:
            t0 = time.perf_counter()
            with tracer.span("bench.pass"):
                result = workloads.run_pass(args.workload, args.seed)
            traced_wall = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        extra["trace"] = tracer.summary(traced_wall)
        if args.trace_out:
            with open(args.trace_out, "w") as fh:
                json.dump({"summary": extra["trace"], "spans": tracer.dump()}, fh)
    workloads.check_golden(result, workloads.load_golden())
    print(json.dumps({"setup_slice_s": setup_slice_s, "pass": vars(result), **extra}))
    return 0


def engine() -> str:
    """The engine dist_brute(engine="auto") resolves to, as the library decides it."""
    try:
        from meshlab import _kernel
    except ImportError:
        return "unknown"
    return "compiled" if getattr(_kernel, "AVAILABLE", False) else "python"


if __name__ == "__main__":
    sys.exit(main())
