"""
Run the benchmark over several seeds and summarise each metric: median,
quartiles and the spread (q3 - q1) / median that the run-to-run bounds in
BENCHMARK.json are set against.

    python3 perfbench/collect.py --runs 10 --out perfbench/baseline.json

With --out, also takes one traced run per workload and writes the medians,
quartiles, per-layer values and provenance there as the recorded baseline.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{' '.join(cmd)} reported incorrect output:\n{proc.stdout}")
    return result


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
        "values": values,
    }


def main() -> int:
    names = [w["name"] for w in BENCHMARK["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    summary: dict = {"runs": args.runs, "seconds": args.seconds, "workloads": {}}
    ok = True
    for workload in args.workloads:
        seeds = range(args.first_seed, args.first_seed + args.runs)
        results = [run_once(workload, seed, args.seconds, 0) for seed in seeds]
        entry = {}
        for name, bound in bounds.items():
            stats = spread([r["metrics"][name]["value"] for r in results])
            entry[name] = stats
            within = name == "setup_s" or stats["spread"] < bound / 3
            ok &= within
            print(
                f"{workload:14s} {name:12s} median {stats['median']:10.4f}  "
                f"spread {stats['spread']:.4f}  bound {bound}  "
                f"{'ok' if within else 'WIDER THAN BOUND/3'}",
                flush=True,
            )
        if args.out:
            traced = run_once(workload, args.first_seed, args.seconds, 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        summary["workloads"][workload] = entry
    if args.out:
        record = ROOT / ".bench_out" / f"result-{args.workloads[0]}-seed{args.first_seed}-trace0.json"
        summary["provenance"] = json.loads(record.read_text())["provenance"]
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
