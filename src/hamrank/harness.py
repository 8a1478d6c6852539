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
from functools import cache
from typing import Callable, TextIO, TypeVar

from . import __version__
from .errors import HamrankError, InputError, PatternViolationError
from .hamming import (
    SupportRep,
    build_hd_supp,
    dist,
    identity_certificate,
    load_supp,
    verify_support_rep,
    word_of_index,
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
    proof_dim_bound,
    sign_from_json,
    sign_to_json,
)

REPORT_SCHEMA = "hamrank-report/1"

T = TypeVar("T")

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
    """Knobs shared by every subcommand; one seed feeds all randomness.

    ``threads`` and ``max_bits`` are recorded in the report's config and
    change nothing else.
    """

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
        _save_json(report.to_json(), config.report_path)
    if config.csv_path:
        rows = [CSV_COLUMNS, report.csv_row()]
        _save(config.csv_path, lambda fh: csv.writer(fh).writerows(rows))


def _load(path: str, loader: Callable[[dict], T] = lambda doc: doc) -> T:
    """Read, parse and load one input document.

    Any failure on the way (a missing file, bad or too deeply nested JSON,
    a wrong schema or a missing field) becomes an ``InputError`` naming it.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            return loader(json.load(fh))
    except (
        OSError, LookupError, TypeError, AttributeError, ValueError, RecursionError
    ) as exc:
        raise InputError(f"cannot load {path}: {type(exc).__name__}: {exc}") from exc


def _check_outputs(config: RunConfig) -> None:
    """Refuse an output path in a missing directory, before any work."""
    for path in filter(None, (config.out, config.report_path, config.csv_path)):
        folder = os.path.dirname(path) or "."
        if not os.path.isdir(folder):
            raise InputError(f"cannot write {path}: no directory {folder}")


def _save(path: str, write: Callable[[TextIO], object]) -> None:
    """Write one output file: every report, summary and artifact goes here,
    and any failure becomes an ``InputError`` that names the path."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            write(fh)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {type(exc).__name__}: {exc}") from exc


def _save_json(doc: dict, path: str) -> None:
    _save(path, lambda fh: fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n"))


def run(subcommand: str, config: RunConfig) -> Report:
    """Dispatch a subcommand and return its report.

    Budget violations, module errors and too deep a recursion (a sign tree
    past the stack) end in a failed report instead of crashing.  An output
    path in a missing directory raises ``InputError`` before any work, and
    so does a report or summary that cannot be written after it.
    """
    handlers = {
        "build-supp": _run_build_supp,
        "verify-supp": _run_verify_supp,
        "build-sign": _run_build_sign,
        "verify-sign": _run_verify_sign,
        "compose": _run_compose,
        "rp-verify": _run_rp_verify,
        "lower-bound": _run_lower_bound,
    }
    if subcommand not in handlers:
        raise ValueError(f"unknown subcommand {subcommand!r}")
    _check_outputs(config)
    report = Report(command=subcommand, config=config.to_json())
    start = time.perf_counter()
    try:
        handlers[subcommand](config, report)
    except (HamrankError, RecursionError) as exc:
        report.status = "failed"
        report.error = f"{type(exc).__name__}: {exc}"
    report.timing["millis"] = int((time.perf_counter() - start) * 1000)
    write_report(report, config)
    return report


# -------------------------------------------------------------------
# Subcommand handlers
# -------------------------------------------------------------------


def _supp_construction(rep: SupportRep) -> dict:
    """The rep's document without its schema, the compressor cut to its
    provenance: how it was made and that it was verified, not its entries."""
    doc = rep.to_json()
    del doc["schema"]
    keys = ("method", "retries", "entry_range", "verified", "target_shape")
    doc["compressor"] = {key: doc["compressor"][key] for key in keys}
    return doc


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
    rep = _load(config.params["rep"], load_supp)
    report.construction = _supp_construction(rep)
    report.bounds = _supp_bounds(rep.k, rep.dim)
    result = verify_support_rep(
        rep,
        mode=config.verify_mode,
        sample_count=config.sample_count,
        sample_seed=config.seed,
        max_pairs=config.max_pairs,
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
        "proof_bound": proof_dim_bound(rep),
    }
    if config.out:
        meta = {"n": n, "k": k, "predicate": f"HD=={k}", "seed": config.seed}
        _save_json(sign_to_json(rep, meta), config.out)
    # build_hd_sign already checked sign == (dist == k) on every pair's class
    report.status = "certified"


def _load_sign(doc: dict) -> tuple[Combine, int, int]:
    """A sign document's tree and its meta n and k; every oracle in the
    tree must take words of length n over the root oracle's alphabet."""
    rep, meta = sign_from_json(doc), doc.get("meta")
    if not isinstance(meta, dict) or any(
        type(meta.get(key)) is not int or meta[key] < 0 for key in ("n", "k")
    ):
        raise InputError("sign document has no meta with integers n, k >= 0")
    if not isinstance(rep, Combine):
        raise InputError("sign document has no oracle to take the alphabet from")
    n, alphabet = meta["n"], rep.oracle.alphabet
    nodes = [rep]
    while nodes:
        node = nodes.pop()
        if isinstance(node, Combine):
            if node.oracle.n != n or node.oracle.alphabet != alphabet:
                raise InputError(
                    f"an oracle on words of length {node.oracle.n} over "
                    f"{list(node.oracle.alphabet)} does not fit meta n = {n} "
                    f"and the root alphabet {list(alphabet)}"
                )
            nodes += [node.rep0, node.rep1]
    return rep, n, meta["k"]


def _run_verify_sign(config: RunConfig, report: Report) -> None:
    rep, n, k = _load(config.params["rep"], _load_sign)
    alphabet = rep.oracle.alphabet
    word = cache(lambda i: word_of_index(i, n, alphabet))

    def check(i: int, cols) -> tuple[int, list[int]]:
        x = word(i)
        bad = [
            j
            for j in cols
            if eval_sign(rep, x, word(j)) != (1 if dist(x, word(j)) == k else -1)
        ]
        return len(bad), bad

    result = sweep(
        len(alphabet) ** n,
        lambda: check,
        config.verify_mode,
        config.sample_count,
        rng_stream(config.seed, "verify-sign", n, k),
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
        return _load(os.path.join(base_dir, rel))

    return _load(spec_path, lambda doc: spec_from_json(doc, load_file=load_ref))


def _check_semantics(
    problem: RankProblem, spec: CompositionSpec, config: RunConfig, report: Report
) -> None:
    """Compare every pair's evaluation with the composition semantics."""
    tuple_of = cache(spec.tuple_of)

    def check(x: int, cols) -> tuple[int, list[int]]:
        tx = tuple_of(x)
        bad = [
            y
            for y in cols
            if problem.eval(x, y) != compose_semantics(spec, tx, tuple_of(y))
        ]
        return len(bad), bad

    result = sweep(problem.index_count, lambda: check, max_pairs=config.max_pairs)
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
    problem, recorded_spec = _load(
        config.params["rp"],
        lambda doc: (
            problem_from_json(doc),
            doc.get("provenance", {}).get("composition_spec"),
        ),
    )
    spec_path = config.params.get("spec") or recorded_spec
    if spec_path is None:
        raise InputError("no composition spec available to verify against")
    spec = _load_spec(spec_path)
    if problem.index_count != spec.index_count:
        raise InputError(
            f"rank problem has {problem.index_count} indices, its composition "
            f"spec {spec.index_count}"
        )
    report.construction = {"order": problem.order, "index_count": problem.index_count}
    _check_semantics(problem, spec, config, report)


def _run_lower_bound(config: RunConfig, report: Report) -> None:
    rep = _load(config.params["rep"], load_supp)
    report.construction = _supp_construction(rep)
    try:
        cert = identity_certificate(rep)
    except PatternViolationError as exc:
        count, detail = exc.violation_count, str(exc)
        report.verification = {"violation_count": count, "detail": detail}
        report.status = "failed"
        return
    # identity_certificate either raises or returns the full 2^k identity
    report.verification = {
        "identity_size": cert.size,
        "expected": 2**rep.k,
        "pairs_checked": cert.size * cert.size,
        "violation_count": 0,
    }
    report.bounds = _supp_bounds(rep.k, rep.dim)
    report.status = "certified"

