"""Run configuration, report generation, and the verification driver.

Every subcommand produces a single report with a versioned schema.  Reports
separate timing (inherently nondeterministic) from everything else, so the
canonical byte form of a report is reproducible: same config and inputs,
same bytes.  Certification is strict: exit status reflects zero violations
and nothing less.
"""

from __future__ import annotations

import csv
import json
import os
import time
from dataclasses import dataclass, field

from . import __version__
from .errors import HamrankError, InputError, PatternViolationError
from .hamming import (
    SupportRep,
    build_hd_supp,
    dist,
    identity_certificate,
    indexed_words,
    load_supp,
    verify_support_rep,
)
from .parallel import map_rows  # noqa: F401 (perfbench traces this binding)
from .parallel import sweep
from .rankprob import (
    CompositionSpec,
    RankProblem,
    compose_semantics,
    distance_r_compose,
    problem_from_json,
    problem_to_json,
    spec_from_json,
)
from .seeds import rng_stream
from .signcompile import (
    Combine,
    build_hd_sign,
    eval_sign,
    gamma_values,
    sign_from_json,
    sign_to_json,
)

REPORT_SCHEMA = "hamrank-report/1"

CSV_COLUMNS = [
    "command",
    "n",
    "k",
    "dim",
    "order",
    "pairs_checked",
    "violations",
    "certified",
    "millis",
]


@dataclass
class RunConfig:
    """Knobs shared by every subcommand; one seed feeds all randomness."""

    seed: int = 0
    threads: int = 1
    verify_mode: str = "exhaustive"
    sample_count: int | None = None
    max_bits: int | None = None
    max_dim: int = 1 << 20
    max_pairs: int = 1 << 24
    out: str | None = None
    report_path: str | None = None
    csv_path: str | None = None
    params: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "threads": self.threads,
            "verify_mode": self.verify_mode,
            "sample_count": self.sample_count,
            "max_bits": self.max_bits,
            "max_dim": self.max_dim,
            "max_pairs": self.max_pairs,
            "params": self.params,
        }


@dataclass
class Report:
    command: str
    config: dict
    construction: dict = field(default_factory=dict)
    verification: dict = field(default_factory=dict)
    bounds: dict = field(default_factory=dict)
    status: str = "failed"
    error: str | None = None
    timing: dict = field(default_factory=dict)

    @property
    def certified(self) -> bool:
        return self.status == "certified"

    def to_json(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "version": __version__,
            "command": self.command,
            "config": self.config,
            "construction": self.construction,
            "verification": self.verification,
            "bounds": self.bounds,
            "status": self.status,
            "error": self.error,
            "timing": self.timing,
        }

    def canonical_bytes(self) -> bytes:
        """Deterministic byte form: everything except the timing section."""
        doc = self.to_json()
        doc.pop("timing")
        return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()

    def csv_row(self) -> list:
        cons = self.construction
        ver = self.verification
        return [
            self.command,
            cons.get("n", ""),
            cons.get("k", ""),
            cons.get("dim", ""),
            cons.get("order", ""),
            ver.get("pairs_checked", ""),
            ver.get("violation_count", ""),
            int(self.certified),
            self.timing.get("millis", ""),
        ]


def write_report(report: Report, config: RunConfig) -> None:
    if config.report_path:
        with open(config.report_path, "w", encoding="utf-8") as fh:
            json.dump(report.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    if config.csv_path:
        with open(config.csv_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            writer.writerow(report.csv_row())


def _load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _save_json(doc: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run(subcommand: str, config: RunConfig) -> Report:
    """Dispatch a subcommand and return its report.

    Budget violations and module errors are caught and carried in the
    report with a failed status instead of crashing the process.
    """
    handlers = {
        "build-supp": _run_build_supp,
        "verify-supp": _run_verify_supp,
        "build-sign": _run_build_sign,
        "verify-sign": _run_verify_sign,
        "compose": _run_compose,
        "rp-verify": _run_rp_verify,
        "lower-bound": _run_lower_bound,
        "bench": _run_bench,
    }
    if subcommand not in handlers:
        raise ValueError(f"unknown subcommand {subcommand!r}")
    report = Report(command=subcommand, config=config.to_json())
    start = time.perf_counter()
    try:
        handlers[subcommand](config, report)
    except HamrankError as exc:
        report.status = "failed"
        report.error = f"{type(exc).__name__}: {exc}"
    report.timing["millis"] = int((time.perf_counter() - start) * 1000)
    write_report(report, config)
    return report


# -------------------------------------------------------------------
# Subcommand handlers
# -------------------------------------------------------------------


def _supp_construction(rep: SupportRep) -> dict:
    comp = rep.compressor
    return {
        "n": rep.n,
        "k": rep.k,
        "alphabet": [str(a) for a in rep.alphabet],
        "dim": rep.dim,
        "seed": rep.seed,
        "predicate": rep.predicate,
        "compressor": {
            "method": comp.method,
            "retries": comp.retries,
            "entry_range": comp.entry_range,
            "verified": comp.verified,
            "target_shape": list(comp.target_shape),
        },
    }


def _supp_bounds(k: int, dim: int) -> dict:
    from math import comb

    return {
        "dim": dim,
        "binomial_bound": comb(2 * k, k),
        "four_power_k": 4**k,
        "lower_bound": 2**k,
    }


def _run_build_supp(config: RunConfig, report: Report) -> None:
    p = config.params
    n, k = p["n"], p["k"]
    alphabet = tuple(p.get("alphabet", (0, 1)))
    rep = build_hd_supp(n, k, alphabet, seed=config.seed)
    report.construction = _supp_construction(rep)
    report.bounds = _supp_bounds(k, rep.dim)
    report.verification = {
        "family_checked": rep.compressor.verified,
    }
    if config.out:
        _save_json(rep.to_json(), config.out)
    report.status = "certified" if rep.compressor.verified else "failed"


def _run_verify_supp(config: RunConfig, report: Report) -> None:
    rep = load_supp(_load_json(config.params["rep"]))
    report.construction = _supp_construction(rep)
    report.bounds = _supp_bounds(rep.k, rep.dim)
    result = verify_support_rep(
        rep,
        mode=config.verify_mode,
        sample_count=config.sample_count,
        sample_seed=config.seed,
        threads=config.threads,
        max_pairs=config.max_pairs if config.verify_mode == "exhaustive" else None,
    )
    report.verification = result.to_json()
    report.status = "certified" if result.certified else "failed"


def _run_build_sign(config: RunConfig, report: Report) -> None:
    p = config.params
    n, k = p["n"], p["k"]
    gamma_mode = p.get("gamma_mode", "exact_scan")
    rep = build_hd_sign(
        n, k, seed=config.seed, gamma_mode=gamma_mode, max_pairs=config.max_pairs
    )
    from math import comb

    dim_formula = 1 + comb(2 * k, k) ** 2 + comb(2 * k + 2, k + 1) ** 2
    r = comb(2 * k + 2, k + 1)
    report.construction = {
        "n": n,
        "k": k,
        "dim": rep.dim,
        "gamma_mode": gamma_mode,
        "gammas": [str(g) for g in gamma_values(rep)],
        "seed": config.seed,
    }
    report.bounds = {
        "dim": rep.dim,
        "dim_formula": dim_formula,
        "proof_bound": (1 + r * r) ** 2,
    }
    if config.out:
        meta = {"n": n, "k": k, "predicate": f"HD=={k}", "seed": config.seed}
        _save_json(sign_to_json(rep, meta), config.out)
    # build_hd_sign already checked sign == (dist == k) on every pair
    report.status = "certified"


def _run_verify_sign(config: RunConfig, report: Report) -> None:
    doc = _load_json(config.params["rep"])
    rep = sign_from_json(doc)
    meta = doc.get("meta")
    if not isinstance(meta, dict) or "n" not in meta or "k" not in meta:
        raise InputError("sign document has no meta with n and k")
    if not isinstance(rep, Combine):
        raise InputError("sign document has no oracle to take the alphabet from")
    n, k = meta["n"], meta["k"]
    alphabet = rep.oracle.alphabet

    def prepare():
        words = indexed_words(n, alphabet, config.verify_mode)

        def bad_cols(i: int, cols) -> list[int]:
            x = words[i]
            return [
                j
                for j in cols
                if eval_sign(rep, x, words[j]) != (1 if dist(x, words[j]) == k else -1)
            ]

        return bad_cols

    result = sweep(
        len(alphabet) ** n,
        prepare,
        config.verify_mode,
        config.sample_count,
        rng_stream(config.seed, "verify-sign", n, k),
        config.threads,
        config.max_pairs,
    )
    report.construction = {"n": n, "k": k, "dim": rep.dim}
    report.verification = {
        "pairs_checked": result.pairs_checked,
        "violation_count": result.violation_count,
        "mode": config.verify_mode,
    }
    report.status = "certified" if result.certified else "failed"


def _load_spec(spec_path: str) -> CompositionSpec:
    base_dir = os.path.dirname(os.path.abspath(spec_path))

    def load_ref(rel: str) -> dict:
        return _load_json(os.path.join(base_dir, rel))

    return spec_from_json(_load_json(spec_path), load_file=load_ref)


def _check_semantics(
    problem: RankProblem, spec: CompositionSpec, config: RunConfig, report: Report
) -> None:
    """Compare every pair's evaluation with the composition semantics."""
    tuples = [spec.tuple_of(x) for x in range(problem.index_count)]

    def bad_cols(x: int, cols) -> list[int]:
        tx = tuples[x]
        return [
            y
            for y in cols
            if problem.eval(x, y) != compose_semantics(spec, tx, tuples[y])
        ]

    result = sweep(
        len(tuples),
        lambda: bad_cols,
        threads=config.threads,
        max_pairs=config.max_pairs,
    )
    report.verification = {
        "pairs_checked": result.pairs_checked,
        "violation_count": result.violation_count,
        "against": "composition semantics",
    }
    report.status = "certified" if result.certified else "failed"


def _run_compose(config: RunConfig, report: Report) -> None:
    spec = _load_spec(config.params["spec"])
    problem = distance_r_compose(spec, seed=config.seed)
    report.construction = {
        "coordinates": spec.coordinates,
        "r": spec.r,
        "inner_order": spec.inners[0].order,
        "order": problem.order,
        "index_count": problem.index_count,
        "name": problem.name,
        "gate_order": problem.meta.get("gate_order"),
    }
    _check_semantics(problem, spec, config, report)
    if config.out:
        doc = problem_to_json(problem, max_entries=config.max_dim)
        doc["provenance"] = {"composition_spec": config.params["spec"]}
        _save_json(doc, config.out)


def _run_rp_verify(config: RunConfig, report: Report) -> None:
    doc = _load_json(config.params["rp"])
    problem = problem_from_json(doc)
    spec_path = config.params.get("spec") or doc.get("provenance", {}).get(
        "composition_spec"
    )
    if spec_path is None:
        raise InputError("no composition spec available to verify against")
    spec = _load_spec(spec_path)
    report.construction = {"order": problem.order, "index_count": problem.index_count}
    _check_semantics(problem, spec, config, report)


def _run_lower_bound(config: RunConfig, report: Report) -> None:
    rep = load_supp(_load_json(config.params["rep"]))
    report.construction = _supp_construction(rep)
    try:
        cert = identity_certificate(rep)
    except PatternViolationError as exc:
        report.verification = {"violation_count": 1, "detail": str(exc)}
        report.status = "failed"
        return
    report.verification = {
        "identity_size": cert.size,
        "expected": 2**rep.k,
        "pairs_checked": cert.size * cert.size,
        "violation_count": 0 if cert.size == 2**rep.k else 1,
    }
    report.bounds = _supp_bounds(rep.k, rep.dim)
    report.status = "certified" if cert.size == 2**rep.k else "failed"


BENCH_SUITES = {
    "hd-supp": [(6, 1), (8, 1), (6, 2), (8, 2)],
}


def _run_bench(config: RunConfig, report: Report) -> None:
    suite = config.params.get("suite", "hd-supp")
    if suite not in BENCH_SUITES:
        raise ValueError(f"unknown bench suite {suite!r}")
    rows = []
    all_ok = True
    for n, k in BENCH_SUITES[suite]:
        rep = build_hd_supp(n, k, seed=config.seed)
        start = time.perf_counter()
        result = verify_support_rep(rep, threads=config.threads)
        millis = max(1, int((time.perf_counter() - start) * 1000))
        all_ok = all_ok and result.certified
        rows.append(
            {
                "n": n,
                "k": k,
                "dim": rep.dim,
                "pairs": result.pairs_checked,
                "millis": millis,
                "pairs_per_sec": result.pairs_checked * 1000 // millis,
                "certified": result.certified,
            }
        )
    report.construction = {"suite": suite}
    report.verification = {
        "rows": [
            {key: row[key] for key in ("n", "k", "dim", "pairs", "certified")}
            for row in rows
        ],
        "violation_count": 0 if all_ok else 1,
    }
    report.timing["rows"] = [
        {key: row[key] for key in ("n", "k", "millis", "pairs_per_sec")}
        for row in rows
    ]
    if config.out:
        with open(config.out, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n", "k", "dim", "pairs", "millis", "pairs_per_sec"])
            for row in rows:
                writer.writerow(
                    [row[c] for c in ("n", "k", "dim", "pairs", "millis", "pairs_per_sec")]
                )
    report.status = "certified" if all_ok else "failed"
