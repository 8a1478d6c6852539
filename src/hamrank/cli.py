"""Command-line interface.

Every subcommand writes a JSON report (and a one-line CSV summary) and
exits 0 only when the run is certified: constructed artifacts verified,
zero violations.  Budgets can also come from the environment:
HAMRANK_MAX_DIM, HAMRANK_MAX_PAIRS.  A non-integer environment value and
an output path in a missing directory exit at once, like a bad ``--mode``.
Sweeps run in one thread;
``--threads`` / HAMRANK_THREADS and HAMRANK_MAX_BITS are accepted and
recorded in the report's config, and change nothing else.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import InputError
from .harness import RunConfig, run


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if not raw:
        return default
    try:
        return int(raw)
    except ValueError:
        raise SystemExit(f"bad {name}={raw!r}: expected an integer") from None


def _parse_alphabet(raw: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in raw.split(","))


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--threads", type=int, default=None)
    parser.add_argument("--report", help="path for the JSON report")
    parser.add_argument("--csv", help="path for the one-line CSV summary")


def _add_verify_mode(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--mode",
        default="exhaustive",
        help="'exhaustive' or 'sample:COUNT' (mandatory above the pair budget)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hamrank",
        description=(
            "Build and exhaustively verify exact support-rank and sign-rank "
            "representations of Hamming-distance matrices."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-supp", help="build a threshold-distance support rep")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--alphabet", type=_parse_alphabet, default=(0, 1))
    p.add_argument("--out", required=True, help="path for the rep JSON")
    _add_common(p)

    p = sub.add_parser("verify-supp", help="verify a support rep against distances")
    p.add_argument("rep", help="rep JSON from build-supp")
    _add_verify_mode(p)
    _add_common(p)

    p = sub.add_parser("build-sign", help="build the exact-distance sign rep")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
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
        threads=args.threads
        if args.threads is not None
        else _env_int("HAMRANK_THREADS", 1),
        max_bits=_env_int("HAMRANK_MAX_BITS", 0) or None,
        max_dim=_env_int("HAMRANK_MAX_DIM", 1 << 20),
        max_pairs=_env_int("HAMRANK_MAX_PAIRS", 1 << 24),
        out=getattr(args, "out", None),
        report_path=args.report,
        csv_path=args.csv,
    )
    mode = getattr(args, "mode", None)
    if mode is not None and mode != "exhaustive":
        kind, _, count = mode.partition(":")
        # "²" and "٣" pass isdigit() too, and int() refuses the one, reads the other
        digits = count.isascii() and count.isdigit()
        if kind != "sample" or not digits or int(count) < 1:
            raise SystemExit(
                f"bad --mode {mode!r}: use exhaustive or sample:COUNT, COUNT >= 1"
            )
        config.verify_mode = "sample"
        config.sample_count = int(count)
    return config


def _params_from_args(args: argparse.Namespace) -> dict:
    params = {}
    for key in ("n", "k", "rep", "rp", "spec", "against"):
        value = getattr(args, key, None)
        if value is not None:
            params[key] = value
    if hasattr(args, "alphabet"):
        params["alphabet"] = list(args.alphabet)
    if hasattr(args, "gamma_mode"):
        params["gamma_mode"] = args.gamma_mode
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
