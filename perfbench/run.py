"""
The meshlab benchmark.

    python3 perfbench/run.py --workload enum-distinct --seed 1 --seconds 15 --trace 0

Load is a closed loop with one caller: one process makes back-to-back
library calls, and every pass of a workload runs in a fresh interpreter,
because each command-line invocation pays the library's cold memos.  A run

  1. starts one untimed process (it leaves the bytecode cache written),
  2. times SETUP_SAMPLES cold starts: spawn, import meshlab and one length-4
     dist_brute, up to the child's ready line,
  3. runs passes of the workload, each in a new process, until --seconds
     have gone and MIN_PASSES have run; each pass's own start is one more
     set-up sample,
  4. with --trace 1, adds one traced pass and one layer-probe process.

Every time is rescaled to reference CPU speed by the slices of calib.py
that bracket it, because other tenants of a shared host slow this CPU by
up to half for minutes at a time.  A pass's time is the sum of its
rescaled steps; wall_s and cpu_s are the median over the run's passes and
setup_s the median of the rescaled set-up samples.  The raw median pass
time is printed beside them.

It prints each metric by name and unit, with the machine and provenance
facts, and as its last line one JSON object: correct, attempted, failed and
metrics (the end-to-end metrics, or with --trace 1 the per-layer ones).
Every check on every output counts in attempted; failed / attempted is the
failure fraction.  Results and spans go to .bench_out/ in the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

import calib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
TMP = ROOT / ".bench_tmp"

WORKLOADS = ("enum-distinct", "enum-parallel", "level-laws", "exact-series")
SETUP_SAMPLES = 5
MIN_PASSES = 2
RUN_BUDGET_S = 165.0

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

MODULES = ("bench", "permutations", "distributions", "algebra", "coeff_laws", "verify", "cli")

PROBE_TIMES = (
    "permutations.enumerate_s",
    "distributions.dist_brute.len8_s",
    "distributions.dist_brute.len9_s",
    "distributions.dist_brute.len10_s",
    "distributions.recursion_s",
    "distributions.egf_family.o40_s",
    "distributions.egf_family.o80_s",
    "distributions.sec_power_s",
    "algebra.solve_linear_ode_s",
    "algebra.egf_mul_s",
    "algebra.zigzag_s",
    "coeff_laws.level_law.recursion_s",
    "coeff_laws.level_law.brute_s",
    "coeff_laws.values_s",
    "coeff_laws.closed_form_s",
    "verify.tables_s",
    "verify.symmetry_s",
    "verify.oracle_s",
    "verify.egf_s",
    "verify.coeff_laws_s",
    "verify.closed_forms_s",
    "verify.unimodality_s",
    "cli.main_s",
)

PER_LAYER = {
    "setup.import_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
    "perms_per_s": "1/s",
    "fail_frac": "ratio",
    **{f"{m}.self_share": "share" for m in MODULES},
    "permutations.perms": "count",
    "permutations.cmp_ops": "count",
    "permutations.mmp_count.calls": "count",
    "permutations.enumerations": "count",
    "permutations.mmp_count_us_per_perm": "us",
    "_kernel.available": "count",
    "_kernel.calls": "count",
    "distributions.dist_brute.calls": "count",
    "distributions.dist_brute.distinct": "count",
    "distributions.dist_brute.useful_ratio": "ratio",
    "distributions.dist_brute.share": "share",
    "distributions.parallel_speedup": "ratio",
    "algebra.solve_linear_ode.calls": "count",
    "algebra.egf_mul.calls": "count",
    "algebra.ode_terms": "count",
    "verify.report_bytes": "bytes",
    "cli.output_bytes": "bytes",
    **{name: "s" for name in PROBE_TIMES},
}


class BenchError(RuntimeError):
    pass


def run_child(mode: str, deadline: float, *extra: str) -> tuple[float, dict, dict]:
    """
    Start child.py in a fresh interpreter and wait for it to end.  Returns
    the seconds from spawn to its ready line, the ready record and its last
    JSON line.  The child's working, home, temporary and cache directories
    are new and removed afterwards, so nothing it persists there reaches the
    next process; source_files() catches what it leaves beside the library.
    """
    scratch = tempfile.mkdtemp(dir=TMP)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["HOME"] = env["XDG_CACHE_HOME"] = env["TMPDIR"] = scratch
    cmd = [sys.executable, str(HERE / "child.py"), "--mode", mode, *extra]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=scratch, env=env)
    try:
        ready_at, data = _read_all(proc, deadline)
        code = proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} process did not finish in time") from exc
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        shutil.rmtree(scratch, ignore_errors=True)
    lines = data.decode().strip().splitlines()
    if code != 0 or ready_at is None or len(lines) < 1:
        raise BenchError(f"{mode} process failed with exit code {code}")
    return ready_at - t0, json.loads(lines[0]), json.loads(lines[-1])


def _read_all(proc: subprocess.Popen, deadline: float) -> tuple[float | None, bytes]:
    """Read the child's stdout to its end, noting when the first line arrived."""
    fd = proc.stdout.fileno()
    data = b""
    ready_at = None
    while True:
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            raise subprocess.TimeoutExpired(proc.args, 0)
        readable, _, _ = select.select([fd], [], [], remaining)
        if not readable:
            continue
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            return ready_at, data
        data += chunk
        if ready_at is None and b"\n" in data:
            ready_at = time.perf_counter()


def provenance(seed: int, engine: str) -> dict:
    def read(path: Path) -> str | None:
        try:
            return path.read_text().strip()
        except OSError:
            return None

    cpu_model = None
    for line in (read(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in range(8):
        base = Path(f"/sys/devices/system/cpu/cpu0/cache/index{index}")
        level, kind, size = read(base / "level"), read(base / "type"), read(base / "size")
        if level in ("2", "3") and kind != "Instruction" and size:
            caches[f"L{level}"] = size
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    import importlib.util

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "numba_available": importlib.util.find_spec("numba") is not None,
        "engine": engine,
        "commit": git_commit(),
        "seed": seed,
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def source_files() -> set[str]:
    """Files under src/ other than bytecode."""
    found = set()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = [d for d in dirnames if d != "__pycache__"]
        found.update(os.path.join(dirpath, name) for name in filenames)
    return found


def pass_at_reference(result: dict, column: int) -> float:
    """A pass's steps summed at reference speed; column 1 is wall, 2 is CPU time."""
    return sum(calib.at_reference(seg[column], seg[3]) for seg in result["segments"])


def median_pass(passes: list[dict], column: int) -> float:
    return median([pass_at_reference(p, column) for p in passes])


def setup_at_reference(setup: tuple) -> float:
    return calib.at_reference(setup[0], setup[2]["setup_slice_s"])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "meshlab" / "__init__.py").is_file():
        print(f"error: no meshlab sources under {SRC}", file=sys.stderr)
        return 2
    # A terminated run unwinds through run_child, which kills its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    start = time.perf_counter()
    OUT.mkdir(exist_ok=True)
    TMP.mkdir(exist_ok=True)
    try:
        files = source_files()
        setups, passes, traced, probe = measure(args, start + RUN_BUDGET_S)
        left = sorted(source_files() - files)
        report(args, setups, passes, traced, probe, left, start)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def measure(args, deadline: float):
    """Set-up samples, untraced passes, and with --trace the traced pass and probe."""
    pass_args = ("--workload", args.workload, "--seed", str(args.seed))
    run_child("setup", deadline)
    setups = [run_child("setup", deadline) for _ in range(SETUP_SAMPLES)]
    passes = []
    t_measure = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        sample = run_child("pass", deadline, *pass_args)
        setups.append(sample)
        passes.append(sample[2]["pass"])
        now = time.perf_counter()
        reserve = (now - t_pass) * (3 if args.trace else 1)
        done = len(passes) >= MIN_PASSES and now - t_measure >= args.seconds
        if done or now + reserve > deadline - 15:
            break
    traced = probe = None
    if args.trace:
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        traced = run_child(
            "pass", deadline, *pass_args, "--trace", "1", "--trace-out", str(trace_file)
        )[2]
        probe = run_child("probe", deadline)[2]["probe"]
    return setups, passes, traced, probe


def report(args, setups, passes, traced, probe, left: list[str], start: float) -> None:
    engine = setups[0][1]["engine"]
    facts = provenance(args.seed, engine)
    all_passes = passes + ([traced["pass"]] if traced else [])
    # Two checks more: every pass, traced or not, made the same exact counts
    # and output digests; and no process left a file beside the library's
    # sources, where a persisted result cache would let later passes skip
    # work.
    attempted = sum(p["attempted"] for p in all_passes) + 2
    failed = sum(p["failed"] for p in all_passes)
    failed += not all(
        p["counts"] == passes[0]["counts"] and p["digests"] == passes[0]["digests"]
        for p in all_passes
    )
    failed += bool(left)
    counts = passes[0]["counts"]
    setup_samples = [setup_at_reference(s) for s in setups]
    e2e = {
        "setup_s": median(setup_samples),
        "wall_s": median_pass(passes, 1),
        "cpu_s": median_pass(passes, 2),
        "peak_rss_mb": median([p["peak_rss_mb"] for p in passes]),
    }
    extra = {
        "perms_per_s": counts.get("permutations.perms", 0) / e2e["wall_s"],
        "fail_frac": failed / attempted,
    }

    print(f"# meshlab benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# provenance: {json.dumps(facts)}")
    print(f"# {len(setups)} cold starts, {len(passes)} passes, one process each; "
          f"raw median pass {median([p['wall_s'] for p in passes]):.6g} s")
    for name, value in e2e.items():
        print(f"{name} = {value:.6g} {END_TO_END[name]}")
    print(f"perms_per_s = {extra['perms_per_s']:.6g} 1/s")
    print(f"fail_frac = {extra['fail_frac']:.6g} ({failed} of {attempted} checks failed)")
    for line in [f for p in all_passes for f in p["failures"]] + [f"left {x}" for x in left]:
        print(f"  FAILED: {line}")
    print(f"# counts (computed, exact): {json.dumps(counts, sort_keys=True)}")

    metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}
    if args.trace:
        layer = per_layer(setups, passes, traced, probe, counts, engine, extra)
        for name, unit in PER_LAYER.items():
            print(f"{name} = {layer[name]:.6g} {unit}")
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in PER_LAYER.items()}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "provenance": facts,
        "setup_s_raw": [s[0] for s in setups],
        "setup_s_at_reference": setup_samples,
        "passes": passes,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "elapsed_s": time.perf_counter() - start,
    }
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(
        {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))


def per_layer(setups, passes, traced, probe, counts, engine, extra) -> dict[str, float]:
    summary = traced["trace"]
    traced_counts = summary["counts"]
    traced_wall = pass_at_reference(traced["pass"], 1)
    calls = counts.get("distributions.dist_brute.calls", 0)
    brute = summary["names"].get("distributions.dist_brute", {}).get("total_s", 0.0)
    layer = {
        "setup.import_s": median([s[1]["import_s"] for s in setups]),
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - median_pass(passes, 1),
        "trace.spans": summary["spans"],
        **extra,
        **{f"{m}.self_share": summary["module_self_share"].get(m, 0.0) for m in MODULES},
        "permutations.perms": counts.get("permutations.perms", 0),
        "permutations.cmp_ops": counts.get("permutations.cmp_ops", 0),
        "permutations.mmp_count.calls": traced_counts.get("permutations.mmp_count.calls", 0),
        "permutations.enumerations": traced_counts.get(
            "permutations.enumerate_alternating.calls", 0
        ),
        "permutations.mmp_count_us_per_perm": probe["permutations.mmp_count_us_per_perm"],
        "_kernel.available": 1 if engine == "compiled" else 0,
        "_kernel.calls": traced_counts.get("_kernel.count_distribution.calls", 0),
        "distributions.dist_brute.calls": calls,
        "distributions.dist_brute.distinct": counts.get("distributions.dist_brute.distinct", 0),
        "distributions.dist_brute.useful_ratio": (
            counts.get("distributions.dist_brute.distinct", 0) / calls if calls else 0.0
        ),
        "distributions.dist_brute.share": brute / summary["wall_s"],
        "distributions.parallel_speedup": probe["distributions.parallel_speedup"],
        "algebra.solve_linear_ode.calls": traced_counts.get("algebra.solve_linear_ode.calls", 0),
        "algebra.egf_mul.calls": traced_counts.get("algebra.egf_mul.calls", 0),
        "algebra.ode_terms": traced_counts.get("algebra.ode_terms", 0),
        "verify.report_bytes": counts.get("verify.report_bytes", 0),
        "cli.output_bytes": counts.get("cli.output_bytes", 0),
        **{name: probe[name] for name in PROBE_TIMES},
    }
    return layer


if __name__ == "__main__":
    sys.exit(main())
