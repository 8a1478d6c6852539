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
from dataclasses import dataclass, field, replace
from functools import cache
from math import comb
from typing import Callable, TextIO, TypeVar

from . import __version__
from .errors import BudgetExceededError, HamrankError, InputError, PatternViolationError
from .hamming import (
    SupportRep,
    build_hd_supp,
    dist,
    identity_certificate,
    load_supp,
    shell_flags,
    verify_support_rep,
    word_of_index,
)
from .parallel import map_rows  # noqa: F401 (perfbench traces this binding)
from .parallel import check_pairs, mirrored, pairwise, sweep
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
    MAX_SIGN_DIM,
    SignForm,
    build_hd_sign,
    check_sign_dim,
    domain_rows,
    eval_sign,
    gamma_values,
    hd_sign_dim,
    proof_dim_bound,
    sign_error,
    sign_from_json,
    sign_misses,
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

    ``sample`` is the verifiers' only mode switch: ``None`` checks every
    pair, a count draws that many.  The report's config writes it as
    ``verify_mode`` and ``sample_count``.  ``threads`` is only recorded
    there, beside a null ``max_bits`` that keeps the report bytes of earlier
    versions.
    """

    seed: int = 0
    threads: int = 1
    sample: int | None = None
    max_dim: int = MAX_SIGN_DIM
    max_pairs: int = 1 << 24
    out: str | None = None
    report_path: str | None = None
    csv_path: str | None = None
    params: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "threads": self.threads,
            "verify_mode": "exhaustive" if self.sample is None else "sample",
            "sample_count": self.sample,
            "max_bits": None,
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


def _recorded_spec(rp_path: str, doc: dict) -> str | None:
    """The composition spec an rp document records, as a path: compose
    records it relative to the rp file.  A ``provenance`` that is not an
    object, or a ``composition_spec`` that is not a string, is refused by
    name."""
    provenance = doc.get("provenance", {})
    if not isinstance(provenance, dict):
        raise InputError(f"provenance {provenance!r} is not an object")
    recorded = provenance.get("composition_spec")
    if recorded is None:
        return None
    if not isinstance(recorded, str):
        raise InputError(f"provenance.composition_spec {recorded!r} is not a string")
    return os.path.join(os.path.dirname(rp_path), recorded)


def _spec_files(spec_path: str, doc: dict) -> list[str]:
    """The inner problem files a spec document references, as paths: each
    ``{"file": ...}`` is relative to the spec's directory.  An entry of
    ``inners`` that is not an object is refused by name."""
    base_dir = os.path.dirname(os.path.abspath(spec_path))
    files = []
    for t, entry in enumerate(doc["inners"]):
        if not isinstance(entry, dict):
            raise InputError(f"inners[{t}] {entry!r} is not an object")
        if "file" in entry:
            files.append(os.path.join(base_dir, entry["file"]))
    return files


def _check_outputs(config: RunConfig) -> None:
    """Refuse an output path in a missing directory, and an output path that
    resolves to the same file as another output or an input, before any
    work.  The inputs are ``rep``, ``rp`` and ``spec``, or without ``spec``
    the spec the rp file records, and the inner problem files the spec
    references (an rp file or spec that cannot be read names none here; the
    run reports it)."""
    p = config.params
    spec = p.get("spec")
    if spec is None and "rp" in p:
        try:
            spec = _load(p["rp"], lambda doc: _recorded_spec(p["rp"], doc))
        except InputError:
            pass
    inputs = [path for path in (p.get("rep"), p.get("rp"), spec) if path]
    if spec is not None:
        try:
            inputs += _load(spec, lambda doc: _spec_files(spec, doc))
        except InputError:
            pass
    seen = {os.path.realpath(path): f"the input {path}" for path in inputs}
    for path in filter(None, (config.out, config.report_path, config.csv_path)):
        folder = os.path.dirname(path) or "."
        if not os.path.isdir(folder):
            raise InputError(f"cannot write {path}: no directory {folder}")
        if (real := os.path.realpath(path)) in seen:
            raise InputError(f"cannot write {path}: {seen[real]} names the same file")
        seen[real] = path


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

    Budget violations and module errors end in a failed report instead of
    crashing.  Output paths in a missing directory or naming one file raise
    ``InputError`` before any work, and so does a report or summary
    unwritable after it.
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
    """The rep's document without its schema, the compressor cut to its
    provenance: how it was made and that it was verified, not its entries."""
    doc = rep.to_json()
    del doc["schema"]
    keys = ("method", "retries", "entry_range", "verified", "target_shape")
    doc["compressor"] = {key: doc["compressor"][key] for key in keys}
    return doc


def _supp_bounds(k: int, dim: int) -> dict:
    return {
        "dim": dim,
        "binomial_bound": comb(2 * k, k),
        "four_power_k": 4**k,
        "lower_bound": 2**k,
    }


def _check_supp_dim(k: int, limit: int) -> None:
    """Refuse C(2k, k) over ``limit``, unexpanded where 2^k alone exceeds it."""
    if k > limit.bit_length():
        dim = f"C({2 * k}, {k})"
    elif k < 0 or (dim := comb(2 * k, k)) <= limit:
        return
    raise BudgetExceededError(f"support dimension {dim} exceeds the budget {limit}")


def _run_build_supp(config: RunConfig, report: Report) -> None:
    p = config.params
    n, k = p["n"], p["k"]
    alphabet = tuple(p.get("alphabet", (0, 1)))
    _check_supp_dim(k, config.max_dim)
    rep = build_hd_supp(n, k, alphabet, seed=config.seed)
    report.construction = _supp_construction(rep)
    report.bounds = _supp_bounds(k, rep.dim)
    report.verification = {"family_checked": rep.compressor.verified}
    if config.out:
        _save_json(rep.to_json(), config.out)
    report.status = "certified" if rep.compressor.verified else "failed"


def _run_verify_supp(config: RunConfig, report: Report) -> None:
    """Check the loaded rep on every pair or on drawn pairs; the timing
    section records the pairs evaluated and the sampled pairs whose residue
    read 0, each rechecked by its exact dot."""
    rep = _load(config.params["rep"], load_supp)
    _check_supp_dim(rep.k, config.max_dim)
    report.construction = _supp_construction(rep)
    report.bounds = _supp_bounds(rep.k, rep.dim)
    result = verify_support_rep(rep, config.sample, config.seed, config.max_pairs)
    report.timing["pairs_evaluated"] = result.pairs_checked
    report.timing["exact_rechecks"] = result.exact_rechecks
    report.verification = result.to_json()
    report.status = "certified" if result.certified else "failed"


def _run_build_sign(config: RunConfig, report: Report) -> None:
    p = config.params
    n, k = p["n"], p["k"]
    gamma_mode = p.get("gamma_mode", "exact_scan")
    dim_formula = hd_sign_dim(n, k)
    check_sign_dim(dim_formula, config.max_dim)
    rep = build_hd_sign(
        n, k, seed=config.seed, gamma_mode=gamma_mode, max_pairs=config.max_pairs
    )
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


def _load_sign(doc: dict) -> tuple[SignForm, int, int]:
    """A sign document's form and its meta n and k; every oracle in the
    form must take words of length n over the root oracle's alphabet,
    checked root first."""
    rep, meta = sign_from_json(doc), doc.get("meta")
    if not isinstance(meta, dict) or any(
        type(meta.get(key)) is not int or meta[key] < 0 for key in ("n", "k")
    ):
        raise InputError("sign document has no meta with integers n, k >= 0")
    if not rep.terms:
        raise InputError("sign document has no oracle to take the alphabet from")
    n, alphabet = meta["n"], rep.terms[-1].oracle.alphabet
    for oracle in reversed([term.oracle for term in rep.terms]):
        if oracle.n != n or oracle.alphabet != alphabet:
            raise InputError(
                f"an oracle on words of length {oracle.n} over "
                f"{list(oracle.alphabet)} does not fit meta n = {n} "
                f"and the root alphabet {list(alphabet)}"
            )
    return rep, n, meta["k"]


def _run_verify_sign(config: RunConfig, report: Report) -> None:
    """Check sign == +1 iff dist == k on every ordered pair: ``sign_misses``
    on the upper triangle of ``domain_rows`` against the flags of distance
    k (``shell_flags``), a row's first vanishing value raising its error and
    each miss off the diagonal counted for (j, i) too (``mirrored``); or
    each drawn pair alone by ``eval_sign``.  The timing section records the
    pairs evaluated."""
    rep, n, k = _load(config.params["rep"], _load_sign)
    check_sign_dim(rep.dim, config.max_dim)
    alphabet = rep.terms[-1].oracle.alphabet
    count = len(alphabet) ** n
    word = cache(lambda i: word_of_index(i, n, alphabet))

    def prepare():
        if config.sample is not None:
            return pairwise(
                lambda i, j: eval_sign(rep, word(i), word(j))
                != (1 if dist(word(i), word(j)) == k else -1)
            )
        upper = [range(i, count) for i in range(count)]
        rows = replace(domain_rows(list(map(word, range(count)))), cols=upper)
        misses = sign_misses(rep, rows, shell_flags(n, len(alphabet), k))

        def bad_from(i):
            row = misses(i)
            if zeros := [j for j, value in row if not value]:
                raise sign_error(*rows.pair(i, zeros[0]), 0)
            return [j for j, _ in row]

        return mirrored(bad_from)

    rng = rng_stream(config.seed, "verify-sign", n, k)
    result = sweep(count, prepare, config.sample, rng, config.max_pairs)
    evaluated = count * (count + 1) // 2 if config.sample is None else config.sample
    report.timing["pairs_evaluated"] = evaluated
    report.construction = {"n": n, "k": k, "dim": rep.dim}
    report.verification = {
        "pairs_checked": result.pairs_checked,
        "violation_count": result.violation_count,
        "mode": result.mode,
    }
    report.status = "certified" if result.certified else "failed"


def _load_spec(spec_path: str) -> CompositionSpec:
    """The spec, each inner problem file loaded on its own, so that a bad
    one is named in the error."""
    base_dir = os.path.dirname(os.path.abspath(spec_path))

    def load_ref(rel: str) -> RankProblem:
        return _load(os.path.join(base_dir, rel), problem_from_json)

    return _load(spec_path, lambda doc: spec_from_json(doc, load_file=load_ref))


def _check_semantics(
    problem: RankProblem, spec: CompositionSpec, report: Report
) -> None:
    """Compare every pair's evaluation with the composition semantics; the
    caller checks the pair budget.

    Both sides are symmetric in the pair (see ``RankProblem``; the semantics
    reads only Delta and the inner evaluations), so each unordered pair is
    evaluated once and every ordered pair is still counted (``mirrored``);
    the timing section records how many pairs were evaluated."""
    count = problem.index_count
    tuple_of = cache(spec.tuple_of)

    def fails(x: int, y: int) -> bool:
        return problem.eval(x, y) != compose_semantics(spec, tuple_of(x), tuple_of(y))

    result = sweep(
        count, lambda: mirrored(lambda x: [y for y in range(x, count) if fails(x, y)])
    )
    report.timing["pairs_evaluated"] = count * (count + 1) // 2
    report.verification = {
        "pairs_checked": result.pairs_checked,
        "violation_count": result.violation_count,
        "against": "composition semantics",
    }
    report.status = "certified" if result.certified else "failed"


def _run_compose(config: RunConfig, report: Report) -> None:
    spec = _load_spec(config.params["spec"])
    check_pairs(spec.index_count**2, config.max_pairs)
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
    _check_semantics(problem, spec, report)
    if config.out:
        doc = problem_to_json(problem, max_entries=config.max_dim)
        # relative to the artifact, so rp-verify finds it from any directory
        spec = os.path.relpath(config.params["spec"], os.path.dirname(config.out))
        doc["provenance"] = {"composition_spec": spec}
        _save_json(doc, config.out)


def _run_rp_verify(config: RunConfig, report: Report) -> None:
    """Check the loaded rank problem against its composition spec on every
    pair; the timing section also records the loaded problem's block
    eliminations."""
    rp_path = config.params["rp"]
    problem, recorded_spec = _load(
        rp_path, lambda doc: (problem_from_json(doc), _recorded_spec(rp_path, doc))
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
    check_pairs(problem.index_count**2, config.max_pairs)
    _check_semantics(problem, spec, report)
    report.timing["exact_rechecks"] = problem.meta["exact_rechecks"]


def _run_lower_bound(config: RunConfig, report: Report) -> None:
    rep = _load(config.params["rep"], load_supp)
    _check_supp_dim(rep.k, config.max_dim)
    check_pairs((1 << rep.k) ** 2, config.max_pairs)
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

