"""Command-line interface.

Every subcommand writes a JSON report (and a one-line CSV summary) and
exits 0 only when the run is certified: constructed artifacts verified,
zero violations.  Every integer input (a flag, an ``--alphabet`` letter,
a sample COUNT, the budgets HAMRANK_MAX_PAIRS and HAMRANK_MAX_DIM, which
caps sign and support dimensions and the entries ``compose --out``
writes) is read by ``int_from_json`` as documents are,
and a bad one exits at once.  Negative letters need
``--alphabet=-1,0``; ``--threads`` is only recorded in the report.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .errors import InputError
from .exact import int_from_json
from .harness import RunConfig, run


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name) or str(default)
    try:
        return int_from_json(raw)
    except InputError:
        raise SystemExit(f"bad {name}={raw!r}: expected an integer") from None


def _parse_alphabet(raw: str) -> tuple[int, ...]:
    return tuple(map(int_from_json, raw.split(",")))


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int_from_json, default=0)
    parser.add_argument("--threads", type=int_from_json, default=1)
    parser.add_argument("--report", help="path for the JSON report")
    parser.add_argument("--csv", help="path for the one-line CSV summary")


def _add_verify_mode(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--mode",
        default="exhaustive",
        help="'exhaustive' or 'sample:COUNT' (mandatory above the pair budget)",
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of every ``main`` call, built on the first: parsing
    leaves no state in it, so a bad flag on one call does not reach the
    next."""
    parser = argparse.ArgumentParser(
        prog="hamrank",
        description=(
            "Build and exhaustively verify exact support-rank and sign-rank "
            "representations of Hamming-distance matrices."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-supp", help="build a threshold-distance support rep")
    p.add_argument("--n", type=int_from_json, required=True)
    p.add_argument("--k", type=int_from_json, required=True)
    p.add_argument("--alphabet", type=_parse_alphabet, default=(0, 1))
    p.add_argument("--out", required=True, help="path for the rep JSON")
    _add_common(p)

    p = sub.add_parser("verify-supp", help="verify a support rep against distances")
    p.add_argument("rep", help="rep JSON from build-supp")
    _add_verify_mode(p)
    _add_common(p)

    p = sub.add_parser("build-sign", help="build the exact-distance sign rep")
    p.add_argument("--n", type=int_from_json, required=True)
    p.add_argument("--k", type=int_from_json, required=True)
    p.add_argument(
        "--gamma-mode", default="exact_scan", choices=["exact_scan", "norm_bound"]
    )
    p.add_argument("--out", required=True, help="path for the sign JSON")
    _add_common(p)

    p = sub.add_parser("verify-sign", help="verify a sign rep against distances")
    p.add_argument("rep", help="sign JSON from build-sign")
    _add_verify_mode(p)
    _add_common(p)

    p = sub.add_parser("compose", help="realize a distance-r composition")
    p.add_argument("--spec", required=True, help="composition spec JSON")
    p.add_argument("--out", help="path for the composed rank-problem JSON")
    _add_common(p)

    p = sub.add_parser("rp-verify", help="verify a composed rank problem")
    p.add_argument("rp", help="rank-problem JSON from compose")
    p.add_argument(
        "--against",
        default="semantics",
        choices=["semantics"],
        help="ground truth to compare with",
    )
    p.add_argument("--spec", help="composition spec (defaults to rp provenance)")
    _add_common(p)

    p = sub.add_parser("lower-bound", help="identity-submatrix certificate")
    p.add_argument("rep", help="rep JSON from build-supp")
    _add_common(p)

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    config = RunConfig(
        seed=args.seed,
        threads=args.threads,
        max_dim=_env_int("HAMRANK_MAX_DIM", RunConfig.max_dim),
        max_pairs=_env_int("HAMRANK_MAX_PAIRS", RunConfig.max_pairs),
        out=getattr(args, "out", None),
        report_path=args.report,
        csv_path=args.csv,
    )
    mode = getattr(args, "mode", None)
    if mode is not None and mode != "exhaustive":
        kind, _, count = mode.partition(":")
        bad = f"bad --mode {mode!r}: use exhaustive or sample:COUNT, COUNT >= 1"
        try:
            config.sample = int_from_json(count)
        except InputError:
            raise SystemExit(bad) from None
        if kind != "sample" or config.sample < 1:
            raise SystemExit(bad)
    return config


def _params_from_args(args: argparse.Namespace) -> dict:
    params = {}
    for key in ("n", "k", "rep", "rp", "spec", "against", "gamma_mode"):
        value = getattr(args, key, None)
        if value is not None:
            params[key] = value
    if hasattr(args, "alphabet"):
        params["alphabet"] = list(args.alphabet)
    return params


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    config = _config_from_args(args)
    config.params = _params_from_args(args)
    try:
        report = run(args.command, config)
    except InputError as exc:  # an output path run() could not write
        raise SystemExit(f"{args.command}: {exc}") from None
    ver = report.verification
    line = f"{args.command}: {report.status}"
    if "pairs_checked" in ver:
        line += f" ({ver['pairs_checked']} pairs, {ver.get('violation_count', '?')} violations)"
    if report.error:
        line += f" [{report.error}]"
    print(line)
    return 0 if report.certified else 1


if __name__ == "__main__":
    sys.exit(main())
