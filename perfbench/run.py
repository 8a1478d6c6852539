"""End-to-end and per-layer benchmark of the hamrank certified pipeline.

Run from the root of a hamrank checkout:

    python3 perfbench/run.py --workload supp-sweep --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Each workload (see perfbench/workloads.json) is a fixed list of real CLI
jobs, run back to back in this process through ``hamrank.cli.main`` with a
``--report`` on every job: a closed loop with one client.  With
``--trace 0`` the job list is repeated for ``--seconds`` and the
end-to-end metrics are medians over passes, of job times calibrated
against a speed probe (see ``calibrate``).  With ``--trace 1`` an
untraced, a traced and another untraced pass run; the traced pass yields
the per-layer metrics, from wrappers around each module's public entry
points.

Every job's report and artifact is checked (status, violation count, the
stated work counts, canonical bytes stable across passes, and at the
default seed the SHA-256 digests recorded in digests.json), and an
independent spot check compares artifacts with the definitions.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from measure import Tracer, self_times, summarize

HERE = Path(__file__).resolve().parent
MANIFEST = HERE / "workloads.json"
DIGESTS = HERE / "digests.json"  # SHA-256 of every output at the default seed
WORK_ROOT = Path(".perfbench_work")
SETUP_PROBES = 2  # fresh set-up processes before each pass and after the last
MIN_PASSES = 3  # so that a median over passes exists however long a pass takes
REFERENCE_LOOP = 200_000  # iterations of the speed probe, about 20 ms
REFERENCE_S = 0.02  # probe time that makes one calibrated second one wall second
BUILD_COMMANDS = {"build-supp", "build-sign", "compose"}
VERIFY_COMMANDS = {"verify-supp", "verify-sign", "rp-verify", "lower-bound"}
SPOT_SAMPLES = {"supp": 1000, "sign": 300, "exact-2-of-6": 200}

END_TO_END = {
    "setup_s": "s",
    "certify_s": "s",
    "build_s": "s",
    "verify_s": "s",
    "peak_rss_mb": "MB",
}


def load_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def load_manifest() -> dict:
    return load_json(MANIFEST)


def import_hamrank():
    """Import the checkout's own hamrank from ./src, with no HAMRANK_* overrides."""
    if not Path("src/hamrank/__init__.py").is_file():
        raise SystemExit(
            "perfbench: src/hamrank not found; run from the root of a hamrank checkout"
        )
    sys.path.insert(0, str(Path("src").resolve()))
    for key in [k for k in os.environ if k.startswith("HAMRANK_")]:
        del os.environ[key]
    import hamrank.cli

    return hamrank


# -------------------------------------------------------------------
# Inputs
# -------------------------------------------------------------------


def input_document(name: str, seed: int) -> dict:
    """The compose specs a workload writes during set-up."""
    from hamrank.rankprob import (
        CompositionSpec,
        example_cc_hd,
        hd_rank_problem,
        spec_to_json,
    )

    if name == "cc-hd.spec.json":
        return spec_to_json(example_cc_hd(c=1, r=2, n=2, m=3, seed=seed))
    if name == "exact-2-of-6.spec.json":
        inequality = hd_rank_problem(1, 1, (0, 1), seed=seed)
        return spec_to_json(CompositionSpec(r=2, h=(0, 0, 1), inners=(inequality,) * 6))
    raise ValueError(f"unknown input {name!r}")


def write_json(path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_inputs(names: list[str], seed: int, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for name in names:
        write_json(directory / name, input_document(name, seed))


def measure_setup(workload: str, seed: int, root: Path, directory: Path) -> list[float]:
    """Calibrated time of fresh processes that import hamrank and write the inputs.

    They run from the checkout root ``root``, as a user's first job would.
    """
    times = []
    before = reference_s()
    for i in range(SETUP_PROBES):
        argv = [sys.executable, str(Path(__file__)), "--workload", workload,
                "--seed", str(seed), "--setup-only", str(directory / f"probe{i}")]
        start = time.perf_counter()
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL, cwd=root)
        wall = time.perf_counter() - start
        after = reference_s()
        times.append(calibrate(wall, before, after))
        before = after
    return times


# -------------------------------------------------------------------
# Jobs and passes
# -------------------------------------------------------------------


def job_argv(job: dict, seed: int) -> list[str]:
    return job["argv"] + ["--seed", str(seed), "--report", f"{job['id']}.report.json"]


def run_job(cli, argv: list[str]) -> tuple[float, str | None]:
    """Run one CLI job in-process; returns (seconds, error or None)."""
    captured = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured):
            code = cli.main(argv)
    except (Exception, SystemExit) as exc:
        return time.perf_counter() - start, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if code != 0:
        return elapsed, f"exit {code}: {captured.getvalue().strip()}"
    return elapsed, None


def reference_s() -> float:
    """Wall time of a fixed pure-Python loop: a probe of the machine's speed now."""
    start = time.perf_counter()
    acc = 0
    for i in range(REFERENCE_LOOP):
        acc += i * i % 7
    return time.perf_counter() - start


def calibrate(wall: float, before: float, after: float) -> float:
    """``wall`` scaled to the reference speed, by probes taken just before and after.

    The host's speed drifts by up to 2x over seconds to minutes (CPU time
    tracks wall time, so it is not preemption); hamrank is pure-Python
    integer code, so it slows by about as much as the probe does.
    """
    return wall * REFERENCE_S * 2 / (before + after)


def run_pass(cli, jobs: list[dict], seed: int) -> dict:
    """One closed-loop pass over the job list; checks happen afterwards.

    ``wall`` holds each job's wall time, ``times`` the calibrated ones.
    """
    gc.collect()
    wall, times, errors = {}, {}, {}
    before = reference_s()
    for job in jobs:
        wall[job["id"]], errors[job["id"]] = run_job(cli, job_argv(job, seed))
        after = reference_s()
        times[job["id"]] = calibrate(wall[job["id"]], before, after)
        before = after
    return {"wall_s": sum(wall.values()), "wall": wall, "times": times, "errors": errors}


def part_seconds(passes: list[dict], jobs: list[dict], commands: set) -> tuple[float, list]:
    """Calibrated time in the jobs of ``commands``: the sum of each job's median.

    Per-job medians over passes drop a burst of machine slowness that hits
    one job in one pass.  Also returns the per-pass sums, as samples.
    """
    ids = [job["id"] for job in jobs if job["argv"][0] in commands]
    value = sum(statistics.median(p["times"][i] for p in passes) for i in ids)
    return value, [sum(p["times"][i] for i in ids) for p in passes]


# -------------------------------------------------------------------
# Output checks
# -------------------------------------------------------------------


def canonical_bytes(report: dict) -> bytes:
    """The report without its timing section, as Report.canonical_bytes forms it."""
    doc = {k: v for k, v in report.items() if k != "timing"}
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def lookup(doc: dict, dotted: str):
    for part in dotted.split("."):
        if not isinstance(doc, dict) or part not in doc:
            return None
        doc = doc[part]
    return doc


def family_patterns(report: dict) -> int | None:
    """Diagonal-difference patterns a build-supp report certifies: |A - A|^n."""
    cons = report.get("construction", {})
    if not report.get("verification", {}).get("family_checked"):
        return 0
    alphabet = [int(a) for a in cons.get("alphabet", [])]
    return len({a - b for a in alphabet for b in alphabet}) ** cons.get("n", 0)


def check_report(report: dict, expect: dict) -> list[str]:
    problems = []
    if report.get("status") != "certified":
        problems.append(f"status {report.get('status')!r}: {report.get('error')}")
    violations = report.get("verification", {}).get("violation_count", 0)
    if violations != 0:
        problems.append(f"violation_count {violations}")
    for key, want in expect.items():
        got = family_patterns(report) if key == "patterns" else lookup(report, key)
        if got != want:
            problems.append(f"{key} = {got!r}, expected {want!r}")
    return problems


class Checker:
    """Output checks for the jobs of one workload across the passes of a run."""

    def __init__(self, spec: dict, expected: dict | None):
        self.spec = spec
        self.expected = expected
        self.first: dict[str, str] = {}
        self.digests: dict[str, dict] = {}
        self.failures: list[str] = []
        self.failed = 0

    def check_inputs(self, directory: Path) -> None:
        for name in self.spec["inputs"]:
            digest = sha256_file(directory / name)
            self.digests[name] = {"file": digest}
            if self.expected is None:
                continue
            want = self.expected.get(name, {}).get("file")
            if digest != want:
                self.failures.append(f"input {name}: sha256 {digest}, expected {want}")

    def check_pass(self, result: dict, directory: Path) -> None:
        for job in self.spec["jobs"]:
            problems = self.check_job(job, result["errors"][job["id"]], directory)
            if problems:
                self.failed += 1
                self.failures.extend(f"{job['id']}: {p}" for p in problems)

    def check_job(self, job: dict, error: str | None, directory: Path) -> list[str]:
        if error is not None:
            return [error]
        report_path = directory / f"{job['id']}.report.json"
        report = load_json(report_path)
        problems = check_report(report, job.get("expect", {}))
        digests = {"report": hashlib.sha256(canonical_bytes(report)).hexdigest()}
        if "artifact" in job:
            digests["artifact"] = sha256_file(directory / job["artifact"])
        previous = self.first.setdefault(job["id"], digests["report"])
        if previous != digests["report"]:
            problems.append("canonical report bytes differ from the first pass")
        self.digests[job["id"]] = digests
        if self.expected is not None:
            want = self.expected.get(job["id"], {})
            for key, digest in digests.items():
                if want.get(key) != digest:
                    problems.append(f"{key} sha256 {digest}, expected {want.get(key)}")
        return problems


# -------------------------------------------------------------------
# Independent spot check
# -------------------------------------------------------------------


def _pair_samples(rng: random.Random, alphabet, n: int, k: int, count: int):
    """Seeded word pairs: half uniform, half within distance k+1 of each other."""
    for i in range(count):
        x = tuple(rng.choice(alphabet) for _ in range(n))
        if i % 2:
            y = tuple(rng.choice(alphabet) for _ in range(n))
        else:
            y = list(x)
            for pos in rng.sample(range(n), rng.randint(0, min(n, k + 1))):
                y[pos] = rng.choice([a for a in alphabet if a != x[pos]])
            y = tuple(y)
        yield x, y


def _differing(x, y) -> int:
    return sum(1 for a, b in zip(x, y) if a != b)


def spot_check(kind: str, doc: dict, rng: random.Random) -> list[str]:
    """Compare an artifact against the benchmark's own definitions."""
    from hamrank.hamming import load_supp
    from hamrank.rankprob import problem_from_json
    from hamrank.signcompile import eval_sign, sign_from_json

    count = SPOT_SAMPLES[kind]
    bad = []
    if kind == "supp":
        rep = load_supp(doc)
        for x, y in _pair_samples(rng, rep.alphabet, rep.n, rep.k, count):
            if (rep.dot(x, y) != 0) != (_differing(x, y) >= rep.k):
                bad.append((x, y))
    elif kind == "sign":
        rep = sign_from_json(doc)
        n, k = doc["meta"]["n"], doc["meta"]["k"]
        for x, y in _pair_samples(rng, (0, 1), n, k, count):
            if eval_sign(rep, x, y) != (1 if _differing(x, y) == k else -1):
                bad.append((x, y))
    elif kind == "exact-2-of-6":
        problem = problem_from_json(doc)
        for _ in range(count):
            x, y = rng.randrange(64), rng.randrange(64)
            if problem.eval(x, y) != (1 if (x ^ y).bit_count() == 2 else 0):
                bad.append((x, y))
    else:
        raise ValueError(f"unknown spot check {kind!r}")
    return [f"spot check disagrees at {x!r}, {y!r}" for x, y in bad[:3]] + (
        [f"... {len(bad)} disagreements of {count}"] if bad else []
    )


def run_spot_checks(spec: dict, seed: int, directory: Path, checker: Checker) -> None:
    for job in spec["jobs"]:
        if "spot" not in job:
            continue
        doc = load_json(directory / job["artifact"])
        rng = random.Random(f"perfbench-spot:{seed}:{job['id']}")
        problems = spot_check(job["spot"], doc, rng)
        if problems:
            checker.failed += 1
            checker.failures.extend(f"{job['id']}: {p}" for p in problems)


# -------------------------------------------------------------------
# Traced run
# -------------------------------------------------------------------

PER_LAYER = {
    "compression.fit_s": "s",
    "compression.retries": "count",
    "compression.verify_s": "s",
    "compression.patterns": "count",
    "compression.patterns_per_s": "1/s",
    "compression.apply_calls": "count",
    "exact.rank_calls": "count",
    "exact.rank_s": "s",
    "exact.det_calls": "count",
    "exact.det_s": "s",
    "exact.mat_allocs": "count",
    "veronese.embed_calls": "count",
    "veronese.embed_s": "s",
    "veronese.max_entry_bits": "bits",
    "hamming.build_s": "s",
    "hamming.sweep_s": "s",
    "hamming.pairs": "count",
    "hamming.pairs_per_s": "1/s",
    "hamming.dot_calls": "count",
    "hamming.identity_s": "s",
    "parallel.map_rows_s": "s",
    "parallel.rows": "count",
    "parallel.speedup_2t": "ratio",
    "signcompile.build_s": "s",
    "signcompile.gamma_s": "s",
    "signcompile.gamma_bits": "bits",
    "signcompile.compile_verify_s": "s",
    "signcompile.eval_calls": "count",
    "signcompile.eval_s": "s",
    "rankprob.compose_s": "s",
    "rankprob.fit_calls": "count",
    "rankprob.family_members": "count",
    "rankprob.eval_calls": "count",
    "rankprob.eval_s": "s",
    "rankprob.semantics_s": "s",
    "serialize.self_s": "s",
    "harness.self_s": "s",
    "harness.artifact_bytes": "bytes",
    "trace.certify_s": "s",
    "trace.self_sum_s": "s",
    "trace.overhead_s": "s",
}

SERIALIZERS = ("load_supp", "sign_from_json", "problem_from_json", "problem_to_json",
               "spec_from_json")


class LayerCounters:
    """Values the span hooks collect beyond call counts and times."""

    def __init__(self):
        self.retries = 0
        self.patterns = 0
        self.pattern_s = 0.0
        self.rp_fit_calls = 0
        self.rp_members = 0
        self.pairs = 0
        self.sweep_total_s = 0.0
        self.max_entry_bits = 0
        self.gamma_bits = 0
        self.rows = 0

    def on_fit(self, via, args, kwargs, comp, duration):
        family = args[0] if args else kwargs["family"]
        self.retries += comp.retries
        if via != "compression":  # fit -> verify inside compression is one check
            self.patterns += family.size
            self.pattern_s += duration
        if via == "rankprob":
            self.rp_fit_calls += 1
            self.rp_members += family.size

    def on_verify_family(self, via, args, kwargs, report, duration):
        if via != "compression":
            self.patterns += (args[1] if len(args) > 1 else kwargs["family"]).size
            self.pattern_s += duration

    def on_embed(self, via, args, kwargs, vector, duration):
        bits = max((abs(c).bit_length() for c in vector), default=0)
        self.max_entry_bits = max(self.max_entry_bits, bits)

    def on_sweep(self, via, args, kwargs, result, duration):
        self.pairs += result.pairs_checked
        self.sweep_total_s += duration

    def on_rows(self, via, args, kwargs, result, duration):
        self.rows += args[1] if len(args) > 1 else kwargs["count"]

    def on_gamma(self, via, args, kwargs, gamma, duration):
        self.gamma_bits = max(self.gamma_bits, gamma.bit_length())


def make_tracer(counters: LayerCounters) -> Tracer:
    t = Tracer()
    t.span("compression.fit_compressor", counters.on_fit)
    t.span("compression.verify_compressor", counters.on_verify_family)
    t.count("compression.Compressor.apply_diag")
    t.count("compression.Compressor.apply")
    t.span("exact.rank_exact")
    t.span("exact.det_exact")
    t.count("exact.Mat.__post_init__")
    t.span("veronese.minor_embed", counters.on_embed)
    t.span("hamming.build_hd_supp")
    t.span("hamming.load_supp")
    t.span("hamming.verify_support_rep", counters.on_sweep)
    t.span("hamming.identity_certificate")
    t.count("hamming.SupportRep.dot")
    t.span("parallel.map_rows", counters.on_rows)
    t.span("signcompile.build_hd_sign")
    t.span("signcompile.choose_gamma", counters.on_gamma)
    t.span("signcompile.compile_tree")
    t.span("signcompile.eval_sign")
    t.span("signcompile.sign_from_json")
    t.span("rankprob.distance_r_compose")
    t.span("rankprob.compose_semantics")
    t.span("rankprob.RankProblem.eval")
    t.span("rankprob.problem_from_json")
    t.span("rankprob.problem_to_json")
    t.span("rankprob.spec_from_json")
    t.span("harness.run")
    return t


def layer_metrics(st: dict, counts: Counter, counters: LayerCounters, extra: dict) -> dict:
    """Per-layer metrics from per-name span totals, call counts and hook values."""

    def self_s(*names):
        return sum(st[n]["self_s"] for n in names if n in st)

    def calls(*names):
        return sum(st[n]["calls"] for n in names if n in st)

    def rate(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    values = {
        "compression.fit_s": self_s("fit_compressor"),
        "compression.retries": counters.retries,
        "compression.verify_s": self_s("verify_compressor"),
        "compression.patterns": counters.patterns,
        "compression.patterns_per_s": rate(counters.patterns, counters.pattern_s),
        "compression.apply_calls": counts["Compressor.apply_diag"] + counts["Compressor.apply"],
        "exact.rank_calls": calls("rank_exact"),
        "exact.rank_s": self_s("rank_exact"),
        "exact.det_calls": calls("det_exact"),
        "exact.det_s": self_s("det_exact"),
        "exact.mat_allocs": counts["Mat.__post_init__"],
        "veronese.embed_calls": calls("minor_embed"),
        "veronese.embed_s": self_s("minor_embed"),
        "veronese.max_entry_bits": counters.max_entry_bits,
        "hamming.build_s": self_s("build_hd_supp"),
        "hamming.sweep_s": self_s("verify_support_rep"),
        "hamming.pairs": counters.pairs,
        "hamming.pairs_per_s": rate(counters.pairs, counters.sweep_total_s),
        "hamming.dot_calls": counts["SupportRep.dot"],
        "hamming.identity_s": self_s("identity_certificate"),
        "parallel.map_rows_s": self_s("map_rows"),
        "parallel.rows": counters.rows,
        "signcompile.build_s": self_s("build_hd_sign"),
        "signcompile.gamma_s": self_s("choose_gamma"),
        "signcompile.gamma_bits": counters.gamma_bits,
        "signcompile.compile_verify_s": self_s("compile_tree"),
        "signcompile.eval_calls": calls("eval_sign"),
        "signcompile.eval_s": self_s("eval_sign"),
        "rankprob.compose_s": self_s("distance_r_compose"),
        "rankprob.fit_calls": counters.rp_fit_calls,
        "rankprob.family_members": counters.rp_members,
        "rankprob.eval_calls": calls("RankProblem.eval"),
        "rankprob.eval_s": self_s("RankProblem.eval"),
        "rankprob.semantics_s": self_s("compose_semantics"),
        "serialize.self_s": self_s(*SERIALIZERS),
        "harness.self_s": self_s("run"),
        "trace.self_sum_s": sum(agg["self_s"] for agg in st.values()),
    }
    values.update(extra)
    return values


def hamrank_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "hamrank" or name.startswith("hamrank.")]


def written_bytes(spec: dict, directory: Path) -> int:
    """Bytes of the reports and --out artifacts one pass writes."""
    total = 0
    for job in spec["jobs"]:
        total += (directory / f"{job['id']}.report.json").stat().st_size
        if "artifact" in job:
            total += (directory / job["artifact"]).stat().st_size
    return total


def run_speedup(cli, spec: dict, seed: int, checker: Checker) -> tuple[float, int]:
    """Calibrated sweep time at 1 thread over that at 2 threads, untraced."""
    times = {}
    for threads in spec["speedup"]["threads"]:
        argv = spec["speedup"]["argv"] + ["--threads", str(threads), "--seed", str(seed),
                                          "--report", f"speedup-{threads}t.report.json"]
        gc.collect()
        before = reference_s()
        wall, error = run_job(cli, argv)
        times[threads] = calibrate(wall, before, reference_s())
        problems = [error] if error else []
        if not problems:
            report = load_json(Path(f"speedup-{threads}t.report.json"))
            problems = check_report(report, spec["speedup"]["expect"])
        if problems:
            checker.failed += 1
            checker.failures.extend(f"speedup {threads}t: {p}" for p in problems)
    return times[1] / times[2], len(times)


# -------------------------------------------------------------------
# Driver
# -------------------------------------------------------------------


def print_timing(name: str, value: float, samples: list[float], unit: str) -> None:
    s = summarize(samples)
    tail = (f"p{s['tail']['p']} {s['tail']['value']:.4f} {unit}" if s["tail"]
            else "no percentile has 10 samples beyond it")
    print(f"  {name}: {value:.4f} {unit} [n={s['n']}, sample median {s['median']:.4f} {unit}, "
          f"{tail}]")


def measure_untraced(cli, name: str, spec: dict, seed: int, seconds: float,
                     root: Path, checker: Checker) -> tuple[dict, int]:
    """End-to-end metrics from passes repeated for at least ``seconds``."""
    # set-up probes are spread over the run, so a phase of machine
    # slowness moves their median no more than it moves the passes
    setup_dir = Path("setup").resolve()
    passes, setup = [], []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        setup += measure_setup(name, seed, root, setup_dir)
        passes.append(run_pass(cli, spec["jobs"], seed))
        checker.check_pass(passes[-1], Path("."))
    setup += measure_setup(name, seed, root, setup_dir)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    write_json("timings.json", {"setup_s": setup, "passes": passes})

    timings = {
        "setup_s": (statistics.median(setup), setup),
        "certify_s": part_seconds(passes, spec["jobs"], BUILD_COMMANDS | VERIFY_COMMANDS),
        "build_s": part_seconds(passes, spec["jobs"], BUILD_COMMANDS),
        "verify_s": part_seconds(passes, spec["jobs"], VERIFY_COMMANDS),
    }
    print(f"workload {name}, seed {seed}: {len(passes)} passes of {len(spec['jobs'])} jobs")
    for key, (value, samples) in timings.items():
        print_timing(key, value, samples, "s")
    print(f"  peak_rss_mb: {peak_rss_mb:.2f} MB")
    print("  pass wall times: " + " ".join(f"{p['wall_s']:.3f}" for p in passes) + " s")
    values = {key: value for key, (value, _) in timings.items()}
    values["peak_rss_mb"] = peak_rss_mb
    metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    return metrics, len(passes) * len(spec["jobs"])


def measure_traced(cli, name: str, spec: dict, seed: int, checker: Checker) -> tuple[dict, int]:
    """Per-layer metrics from one traced pass between two untraced ones.

    The untraced passes on both sides keep the overhead estimate from
    mistaking a drift in machine speed for tracing cost.
    """
    untraced = [run_pass(cli, spec["jobs"], seed)]
    checker.check_pass(untraced[0], Path("."))
    counters = LayerCounters()
    tracer = make_tracer(counters)
    with tracer.installed(hamrank_modules()):
        traced = run_pass(cli, spec["jobs"], seed)
    checker.check_pass(traced, Path("."))
    extra = {
        "harness.artifact_bytes": written_bytes(spec, Path(".")),
        "trace.certify_s": traced["wall_s"],
        "parallel.speedup_2t": 0.0,
    }
    untraced.append(run_pass(cli, spec["jobs"], seed))
    checker.check_pass(untraced[1], Path("."))
    extra["trace.overhead_s"] = traced["wall_s"] - statistics.mean(p["wall_s"] for p in untraced)
    attempted = 3 * len(spec["jobs"])
    if "speedup" in spec:
        extra["parallel.speedup_2t"], runs = run_speedup(cli, spec, seed, checker)
        attempted += runs

    spans, counts = self_times(tracer.spans()), tracer.counts()
    write_json("trace.json", {"spans": spans, "counts": counts})
    values = layer_metrics(spans, counts, counters, extra)
    if values["trace.self_sum_s"] > traced["wall_s"]:
        checker.failures.append("tracer: self times sum to more than the traced pass")
    print(f"workload {name}, seed {seed}: 3 passes of {len(spec['jobs'])} jobs, one traced")
    for key, unit in PER_LAYER.items():
        print(f"  {key}: {values[key]:.6g} {unit}")
    return {k: {"value": values[k], "unit": u} for k, u in PER_LAYER.items()}, attempted


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    hamrank = import_hamrank()
    manifest = load_manifest()
    spec = manifest["workloads"][name]
    directory = (WORK_ROOT / name).resolve()
    write_inputs(spec["inputs"], seed, directory)
    expected = load_json(DIGESTS).get(name, {}) if seed == manifest["default_seed"] else None
    checker = Checker(spec, expected)
    checker.check_inputs(directory)

    root = Path.cwd()
    os.chdir(directory)
    if trace:
        metrics, attempted = measure_traced(hamrank.cli, name, spec, seed, checker)
    else:
        metrics, attempted = measure_untraced(hamrank.cli, name, spec, seed, seconds,
                                              root, checker)
    run_spot_checks(spec, seed, Path("."), checker)
    write_json("digests.json", checker.digests)

    failed = checker.failed
    print(f"  failed_frac: {failed / attempted:.4g} ({failed} of {attempted} jobs)")
    for line in checker.failures:
        print(f"  FAILED {line}", file=sys.stderr)
    return {
        "correct": not checker.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def run_all(args) -> int:
    """Each workload in its own process, so set-up and peak RSS are its own."""
    status = attempted = failed = 0
    for name in load_manifest()["workloads"]:
        argv = [sys.executable, str(Path(__file__)), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            status = 1
            continue
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        if not result["correct"]:
            status = 1
    frac = failed / attempted if attempted else 1.0
    print(f"all workloads: failed_frac {frac:.4g} ({failed} of {attempted} jobs)"
          + ("" if status == 0 else "; some check failed, see above"))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload of perfbench/workloads.json, or 'all'")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20,
                        help="measure passes for at least this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR",
                        help="only import hamrank and write the inputs into DIR")
    args = parser.parse_args(argv)

    if args.workload == "all":
        return run_all(args)
    manifest = load_manifest()
    if args.workload not in manifest["workloads"]:
        parser.error(f"unknown workload {args.workload!r}")
    if args.setup_only:
        import_hamrank()
        write_inputs(manifest["workloads"][args.workload]["inputs"], args.seed,
                     Path(args.setup_only))
        return 0
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
