"""
The four benchmark workloads: their inputs, one timed pass over them, and
the checks on every output.

A pass runs inside one fresh interpreter (see child.py), so every memo the
library keeps starts cold, as it does for each command-line invocation.
Every library call goes through a module attribute looked up at call time
(``dist.dist_brute``, not a name bound at import), so the tracer's and the
checks' wrappers see it.

Inputs depend only on the seed.  Only the enum workloads draw anything from
it (the spec S); level-laws and exact-series run fixed inputs, which is what
their golden digests pin down.
"""
from __future__ import annotations

import hashlib
import io
import json
import random
import resource
import statistics
import time
from contextlib import contextmanager, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import meshlab.cli as cli
import meshlab.distributions as dist
import meshlab.verify as verify
from meshlab.algebra import Poly, zigzag_numbers
from meshlab.distributions import MMP_Q1, Family
from meshlab.permutations import DOWN_UP, UP_DOWN, QuadrantSpec

import calib
from tracer import patch_everywhere

ENUM_MAX_LENGTH = 10
SPEC_ENTRIES = (None, 0, 1, 2)  # None is the empty-quadrant entry "e"
LEVEL_LAWS_MAX_LENGTH = 10
SERIES_ORDER = 80
RECURSION_MAX_INDEX = 40
CLOSED_FORM_ORDER = 40
CLI_CALLS = tuple(
    ["table", "--family", f, "--max-index", "12", "--format", "latex"] for f in "ABCD"
) + tuple(
    ["series", "--gf", gf, "--order", "40", "--format", "json"]
    for gf in ("A", "B", "C", "D", "sec^x")
)

GOLDEN_PATH = Path(__file__).with_name("golden.json")


@dataclass
class PassResult:
    """What one pass did: its timed region, its checks and its exact counts."""

    wall_s: float = 0.0
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    counts: dict[str, int | float] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)
    segments: list[list] = field(default_factory=list)
    slices: list[float] = field(default_factory=list)

    def calibrate(self) -> float:
        self.slices.append(calib.slice_s())
        return self.slices[-1]

    @contextmanager
    def segment(self, name: str):
        """
        Time one step of the timed region between two reference slices (the
        closing slice of one step opens the next):
        [name, wall seconds, CPU seconds, mean slice seconds].
        """
        before = self.slices[-1] if self.slices else self.calibrate()
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            yield
        finally:
            wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
            self.segments.append([name, wall, cpu, (before + self.calibrate()) / 2])

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def stop_clock(self, t0: float) -> None:
        """Close the timed region: raw wall time and peak RSS so far."""
        self.wall_s = time.perf_counter() - t0
        self.peak_rss_mb = max(
            resource.getrusage(who).ru_maxrss
            for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
        ) / 1024


def digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def load_golden() -> dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text())


def check_golden(result: PassResult, golden: dict[str, str]) -> None:
    for key, value in sorted(result.digests.items()):
        result.check(golden.get(key) == value, f"golden digest {key}")


def zigzag(length: int) -> int:
    """E_L, the size of either alternating class of length L."""
    return zigzag_numbers(length)[length]


def family_row(length: int, cls) -> tuple[Family, int]:
    if length % 2 == 0:
        family = Family.A if cls is UP_DOWN else Family.C
    else:
        family = Family.B if cls is UP_DOWN else Family.D
    return family, (length + 1) // 2


def add_enumeration_counts(result: PassResult, inputs) -> None:
    """Counts computed from the inputs, so they repeat exactly run to run."""
    result.counts["permutations.perms"] = sum(zigzag(n) for n, _, _ in inputs)
    result.counts["permutations.cmp_ops"] = sum(zigzag(n) * n * (n - 1) for n, _, _ in inputs)
    result.counts["distributions.dist_brute.calls"] = len(inputs)
    result.counts["distributions.dist_brute.distinct"] = len(set(inputs))


# ---------------------------------------------------------------------------
# enum-distinct and enum-parallel
# ---------------------------------------------------------------------------


def rc_image(spec: QuadrantSpec) -> QuadrantSpec:
    """Reverse-complement turns the plot by 180 degrees: I <-> III, II <-> IV."""
    a, b, c, d = spec.requirements
    return QuadrantSpec(c, d, a, b)


def rc_class(length: int, cls):
    """Reverse-complement keeps the alternating class at even length only."""
    if length % 2 == 0:
        return cls
    return DOWN_UP if cls is UP_DOWN else UP_DOWN


def draw_spec(seed: int) -> QuadrantSpec:
    """
    The seed's spec S, entries in {e, 0, 1, 2}.  S, its image and MMP(1,0,0,0)
    are pairwise different, so every enum input is distinct.
    """
    rng = random.Random(seed)
    while True:
        spec = QuadrantSpec(*(rng.choice(SPEC_ENTRIES) for _ in range(4)))
        image = rc_image(spec)
        if spec != image and MMP_Q1 not in (spec, image):
            return spec


def enum_inputs(seed: int, max_length: int = ENUM_MAX_LENGTH) -> list[tuple]:
    """Per length and class: MMP(1,0,0,0), S, and S's image over the mapped class."""
    spec = draw_spec(seed)
    image = rc_image(spec)
    inputs = []
    for length in range(1, max_length + 1):
        for cls in (UP_DOWN, DOWN_UP):
            inputs.append((length, cls, MMP_Q1))
            inputs.append((length, cls, spec))
            inputs.append((length, rc_class(length, cls), image))
    return inputs


def run_enum(inputs: list[tuple], workers: int) -> PassResult:
    result = PassResult()
    outputs = []
    t0 = time.perf_counter()
    for length, cls, spec in inputs:
        with result.segment(f"dist_brute {length} {cls.value} {spec}"):
            try:
                outputs.append(dist.dist_brute(length, cls, spec, workers=workers))
            except Exception as exc:  # a call that raises is a failed check, not a crash
                outputs.append(exc)
    result.stop_clock(t0)

    for (length, cls, spec), out in zip(inputs, outputs):
        ok = isinstance(out, Poly) and out(1) == zigzag(length)
        result.check(ok, f"histogram sum {length} {cls.value} {spec}")
    for i in range(0, len(inputs), 3):
        (length, cls, _), (q1, s, image) = inputs[i], outputs[i : i + 3]
        family, index = family_row(length, cls)
        result.check(
            isinstance(q1, Poly) and q1 == dist.family_polynomial(family, index),
            f"MMP(1,0,0,0) vs recursion at {length} {cls.value}",
        )
        result.check(isinstance(s, Poly) and s == image, f"S vs image at {length} {cls.value}")
    add_enumeration_counts(result, inputs)
    return result


# ---------------------------------------------------------------------------
# level-laws
# ---------------------------------------------------------------------------


def run_level_laws(max_length: int = LEVEL_LAWS_MAX_LENGTH) -> PassResult:
    """
    The coeff-laws suite with oracle-backed level laws to max_length.  Its
    dist_brute calls come from inside the library; a checking wrapper
    records each input, output and time.  The suite's other work is one
    more segment: the pass time less the calls.
    """
    result = PassResult()
    calls = []
    original = dist.dist_brute

    def checked(length, cls, spec, **kwargs):
        with result.segment(f"dist_brute {length} {cls.value} {spec}"):
            out = original(length, cls, spec, **kwargs)
        calls.append(((length, cls, spec), out))
        return out

    restore = patch_everywhere(original, checked)
    try:
        t0, cpu0 = time.perf_counter(), time.process_time()
        try:
            suite = verify.run_coeff_laws(brute_level_max_length=max_length)
        except Exception as exc:
            suite = exc
        result.stop_clock(t0)
        cpu = time.process_time() - cpu0
    finally:
        restore()
    spent = sum(result.slices)
    result.segments.append([
        "coeff_laws other",
        result.wall_s - spent - sum(seg[1] for seg in result.segments),
        cpu - spent - sum(seg[2] for seg in result.segments),
        statistics.median(result.slices) if result.slices else result.calibrate(),
    ])

    if not isinstance(suite, verify.SuiteResult):
        result.check(False, f"run_coeff_laws raised {suite!r}")
        return result
    for rec in suite.records:
        if not verify.is_adjudication(rec):
            result.check(rec["verdict"] == "pass", f"{rec['check']} {rec['family']} k={rec['k']} n={rec['n']}")
    for (length, _, _), out in calls:
        result.check(out(1) == zigzag(length), f"histogram sum at length {length}")
    result.digests["level-laws.records"] = digest(suite.records)
    result.counts["verify.report_bytes"] = len(
        json.dumps([{"suite": suite.name, "records": suite.records}], indent=2)
    )
    add_enumeration_counts(result, [key for key, _ in calls])
    return result


# ---------------------------------------------------------------------------
# exact-series
# ---------------------------------------------------------------------------


def run_exact_series() -> PassResult:
    result = PassResult()
    series, rows, suites, cli_out = {}, {}, [], []
    t0 = time.perf_counter()
    for f in Family:
        with result.segment(f"egf_family {f.value} {SERIES_ORDER}"):
            series[f] = dist.egf_family(f, SERIES_ORDER)
    for f in Family:
        with result.segment(f"family_polynomial {f.value} to {RECURSION_MAX_INDEX}"):
            rows[f] = {
                i: dist.family_polynomial(f, i)
                for i in range(f.min_index(), RECURSION_MAX_INDEX + 1)
            }
    with result.segment(f"sec_t_power_of_x {SERIES_ORDER}"):
        sec_power = dist.sec_t_power_of_x(SERIES_ORDER)
    with result.segment(f"closed_form_series_check {CLOSED_FORM_ORDER}"):
        records = dist.closed_form_series_check(CLOSED_FORM_ORDER)
    for name in ("run_tables", "run_closed_forms", "run_unimodality"):
        with result.segment(name):
            suites.append(getattr(verify, name)())
    for argv in CLI_CALLS:
        buf = io.StringIO()
        with result.segment(" ".join(argv)), redirect_stdout(buf):
            code = cli.main(list(argv))
        cli_out.append((code, buf.getvalue()))
    result.stop_clock(t0)

    for family in Family:
        for m in range(SERIES_ORDER + 1):
            if (m % 2 == 0) == family.even_length:
                expected = rows[family][family.index_for_length(m)]
            else:
                expected = Poly.zero()
            result.check(
                series[family].coefficient(m) == expected,
                f"EGF {family.value} coefficient {m} vs recursion",
            )
    ee = zigzag_numbers(SERIES_ORDER)
    result.check(
        sec_power.at_x(1) == [ee[m] if m % 2 == 0 else 0 for m in range(SERIES_ORDER + 1)],
        "(sec t)^x at x = 1 is sec t",
    )
    records = records + [rec for suite in suites for rec in suite.records]
    for rec in records:
        if not verify.is_adjudication(rec):
            result.check(rec["verdict"] == "pass", f"{rec['check']} {rec['family']} n={rec['n']}")
    for argv, (code, _) in zip(CLI_CALLS, cli_out):
        result.check(code == 0, f"cli {' '.join(argv)} exit code {code}")
    result.digests["exact-series.records"] = digest(records)
    result.digests["exact-series.cli"] = digest([text for _, text in cli_out])
    result.counts["verify.report_bytes"] = len(
        json.dumps([{"suite": s.name, "records": s.records} for s in suites], indent=2)
    )
    result.counts["cli.output_bytes"] = sum(len(text.encode()) for _, text in cli_out)
    return result


def run_pass(workload: str, seed: int) -> PassResult:
    """One pass of a workload, golden digests not yet compared."""
    if workload == "enum-distinct":
        return run_enum(enum_inputs(seed), workers=1)
    if workload == "enum-parallel":
        return run_enum(enum_inputs(seed), workers=2)
    if workload == "level-laws":
        return run_level_laws()
    if workload == "exact-series":
        return run_exact_series()
    raise ValueError(f"unknown workload {workload!r}")
