"""Pins the canonical report bytes of every certifying subcommand, and the
output of ``to_sign_rep`` on two rank problems.

Each case runs in a fresh working directory with relative paths, because
the report's ``config.params`` embeds the paths it was given.  A change to
any verification path that alters a report (a count, a violation record,
their order or the cap on them) changes a digest here.
"""

import hashlib
import json
from math import comb

import pytest

from hamrank.exact import Mat
from hamrank.harness import RunConfig, run
from hamrank.rankprob import (
    CompositionSpec,
    hd_rank_problem,
    spec_to_json,
    symmetric_problem,
    to_sign_rep,
)
from hamrank.signcompile import eval_value, gamma_values

from .conftest import random_table_problem


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_report(command, params, seed=0, out=None, sample=None):
    return run(command, RunConfig(seed=seed, out=out, sample=sample, params=params))


def supp_cases(prefix, n, k, alphabet):
    rep = f"{prefix}.supp.json"
    build = run_report(
        "build-supp", {"n": n, "k": k, "alphabet": list(alphabet)}, seed=3, out=rep
    )
    exhaustive = run_report("verify-supp", {"rep": rep})
    sample = run_report("verify-supp", {"rep": rep}, seed=11, sample=500)
    return {
        f"{prefix}-build": build,
        f"{prefix}-verify": exhaustive,
        f"{prefix}-sample": sample,
    }


def zeroed_rep(src: str, dst: str) -> None:
    """Copy a supp document with its compressor's left factor set to zero."""
    with open(src) as fh:
        doc = json.load(fh)
    left = doc["compressor"]["left"]
    left["entries"] = ["0"] * len(left["entries"])
    with open(dst, "w") as fh:
        json.dump(doc, fh)


def compose_spec(path: str, r: int = 1, h=(0, 1), coordinates: int = 2) -> None:
    inner = symmetric_problem(2, lambda x: Mat(1, 1, (x,)), (0, 1), name="neq")
    spec = CompositionSpec(r=r, h=h, inners=(inner,) * coordinates)
    with open(path, "w") as fh:
        json.dump(spec_to_json(spec), fh)


def sign_rep_bytes(p, seed: int) -> bytes:
    """dim, gammas and the value table of ``to_sign_rep(p, seed)``."""
    rep = to_sign_rep(p, seed=seed)
    indices = range(p.index_count)
    table = [[eval_value(rep, x, y) for y in indices] for x in indices]
    return json.dumps([rep.dim, gamma_values(rep), table]).encode()


EXPECTED = {
    "bin-build": "d9cb4c8abe253b973f7c5f4bef9a1e30f1c973a122521b8a036dce51ee04ffe2",
    "bin-verify": "a408510ba111863cc6327866cd6b856497ed53b0863bb6d597773bd0db54bcd8",
    "bin-sample": "307c754af41322a5ff435e34222bcdf4643628d902463d07cdaedfdc1fe76d50",
    "ter-build": "6bd343d73a21252328c81367a65f2c8a18c31c885cd458019242df57050f9f9b",
    "ter-verify": "b9a7cca85c83b7dbd47cae2d2390a9bc793790c1db6e3acd9c9d4cbf2038fbe4",
    "ter-sample": "d3b9ff0d6fc521b8cd65aafa958584927bf9795122961fe3546cea7a095f9522",
    "zeroed-verify": "b98777b05aae101e272182eab5a95bd5708cdfcdb4ca969cadc355cbf6eafaa0",
    # all 4 diagonal cells of the k = 2 identity fail
    "zeroed-lower-bound": "1df2445ef41327fe3413d4e2d9c114c1f5463c2f71b5eb7c39e389e4f5db94df",
    "lower-bound": "eee11863830dad97362b539465521d924dff78e6d91aa2a448242e41ad876897",
    "sign-build": "1a53978ed144525bb3fe4eebba74f2608ddbd325b84225ad76205a8d19773f86",
    "sign-verify": "3a9a1bc340ebb58c10d061a60225942f2172a58b59175309a3290accab3150a7",
    "sign-sample": "f5a42b235af951a342086eb577a9fc08da288c7b3139595285ef14939235b5d8",
    # gammas [2, 6274]
    "sign-build-norm": "a1dd879ab7872ba874e91ea7ab06a4894204f6b57aca31f3bbcc5279af7e1b9f",
    "compose": "e2e47776a8eeb5bcf63c4c1104f6709c8c027a09ddc1d3aa7f8d3936ffb854a8",
    "compose-threshold": "66c02183953ad9376d474f83d80bd606bba5594981ba4dcf83532ce30b8daf4f",
    "rp-verify": "ba4e09a0273d22ce580ae5cba5b8aced10f15e143564519f80a84999b395b9df",
    "artifact:bin.supp.json": "a29b4ef6627270b7bd522858076dcf234fd1564b9bcefe9837ea5f1382c5f11d",
    "artifact:ter.supp.json": "8ac8e2cdec3e589715c7d63a4c1270820db68ec338298ad32f7306bc1114c65a",
    "artifact:s.sign.json": "e55ea2b66b5d0ee63df8e098f9bc3b9500c13bea1a6da5a00d79c4d91ed06abe",
    "artifact:sn.sign.json": "43cfaaeef4a27ac195cf00645ebb089f4b39ee84a65184e6ef0d7bc3a76e9641",
    "artifact:rp.json": "1716d1a6ce19f43c9f97ff962507b54d504df2c3dbdd89eb396ae9374b5294dd",
    "artifact:rp-r2.json": "a753abe7402a8ae54bdf13da8dd11fd7cb4535e666be0aacf3f93c9b644c434b",
    # dim 37, gammas [2]
    "to-sign-rep:hd-4-2": "a54821e8dbe2975dbd52e74e34ddff876cf895661a02c34fdc55d86b5b9e61b4",
    # dim 441, gammas [2, 2] and a 38-digit root gamma
    "to-sign-rep:table-55": "6e4a52b77c12daf47bef0660436e2cf6b69a33509b982d6da237bd5eb8edd8af",
}


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    mp = pytest.MonkeyPatch()
    mp.chdir(tmp_path_factory.mktemp("bytes"))
    try:
        reports = {}
        reports.update(supp_cases("bin", 4, 2, (0, 1)))
        reports.update(supp_cases("ter", 3, 2, (0, 1, 2)))
        zeroed_rep("bin.supp.json", "zeroed.supp.json")
        reports["zeroed-verify"] = run_report("verify-supp", {"rep": "zeroed.supp.json"})
        reports["lower-bound"] = run_report("lower-bound", {"rep": "bin.supp.json"})
        reports["zeroed-lower-bound"] = run_report(
            "lower-bound", {"rep": "zeroed.supp.json"}
        )
        reports["sign-build"] = run_report(
            "build-sign",
            {"n": 3, "k": 1, "gamma_mode": "exact_scan"},
            seed=5,
            out="s.sign.json",
        )
        reports["sign-build-norm"] = run_report(
            "build-sign",
            {"n": 3, "k": 1, "gamma_mode": "norm_bound"},
            seed=5,
            out="sn.sign.json",
        )
        reports["sign-verify"] = run_report("verify-sign", {"rep": "s.sign.json"})
        reports["sign-sample"] = run_report(
            "verify-sign", {"rep": "s.sign.json"}, seed=2, sample=300
        )
        compose_spec("spec.json")
        reports["compose"] = run_report(
            "compose", {"spec": "spec.json"}, seed=5, out="rp.json"
        )
        reports["rp-verify"] = run_report("rp-verify", {"rp": "rp.json"})
        # r * t = 2 > 1, so the capped map is compressed once more per s < 2
        compose_spec("spec-r2.json", r=2, h=(0, 0, 1), coordinates=4)
        reports["compose-threshold"] = run_report(
            "compose", {"spec": "spec-r2.json"}, seed=5, out="rp-r2.json"
        )
        out = {name: digest(r.canonical_bytes()) for name, r in reports.items()}
        for path in (
            "bin.supp.json",
            "ter.supp.json",
            "s.sign.json",
            "sn.sign.json",
            "rp.json",
            "rp-r2.json",
        ):
            with open(path, "rb") as fh:
                out[f"artifact:{path}"] = digest(fh.read())
        out["to-sign-rep:hd-4-2"] = digest(
            sign_rep_bytes(hd_rank_problem(4, 2, seed=17), seed=18)
        )
        out["to-sign-rep:table-55"] = digest(sign_rep_bytes(random_table_problem(), 56))
        out["_zeroed_violations"] = reports["zeroed-verify"].verification
        out["_zeroed_identity"] = reports["zeroed-lower-bound"].verification
        out["_evaluated"] = {
            name: reports[name].timing["pairs_evaluated"]
            for name in ("compose", "rp-verify", "compose-threshold")
        }
        out["_sign_evaluated"] = {
            name: reports[name].timing["pairs_evaluated"]
            for name in ("sign-verify", "sign-sample")
        }
        return out
    finally:
        mp.undo()


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_canonical_bytes_pinned(digests, name):
    assert digests[name] == EXPECTED[name]


def test_zeroed_rep_violation_sample_is_capped(digests):
    ver = digests["_zeroed_violations"]
    # 176 of the 256 ordered pairs of {0,1}^4 are at distance >= 2
    assert ver["violation_count"] == 176
    assert len(ver["violations"]) == 32


def test_zeroed_lower_bound_counts_every_failing_cell(digests):
    # the zero left factor makes every dot zero: the 4 diagonal cells fail
    ver = digests["_zeroed_identity"]
    assert ver["violation_count"] == 4
    assert ver["detail"].startswith("identity pattern broken at (0, 0): dot zero")


def test_composition_checks_evaluate_each_unordered_pair_once(digests):
    # in the timing section, outside the pinned bytes: 4 and 16 indices
    assert digests["_evaluated"] == {
        "compose": 4 * 5 // 2,
        "rp-verify": 4 * 5 // 2,
        "compose-threshold": 16 * 17 // 2,
    }


def test_verify_sign_evaluates_each_unordered_pair_once(digests):
    # in the timing section, so the sign-verify and sign-sample bytes pinned
    # above are those of the ordered sweep: 8 words, 300 drawn pairs
    assert digests["_sign_evaluated"] == {
        "sign-verify": 8 * 9 // 2,
        "sign-sample": 300,
    }


def edge_supp_doc(n: int, k: int, left, right) -> dict:
    """A binary supp document whose k x n factors are given by hand."""
    return {
        "schema": "hamrank-supp/1",
        "predicate": f"HD>={k}",
        "n": n,
        "k": k,
        "alphabet": ["0", "1"],
        "dim": comb(2 * k, k),
        "seed": 0,
        "compressor": {
            "left": {"rows": k, "cols": n, "entries": [str(e) for e in left]},
            "right": {"rows": k, "cols": n, "entries": [str(e) for e in right]},
            "seed": 0,
            "verified": True,
            "retries": 0,
            "entry_range": 0,
            "method": "fit",
            "source_shape": [n, n],
            "target_shape": [k, k],
        },
    }


EDGE_EXPECTED = {
    # det of the 0 x 0 difference is 1: every pair nonzero, as dist >= 0 says
    "k0": (
        edge_supp_doc(3, 0, [], []),
        64,
        "233edd29a45750d194a46e81b1fbb66ed6a9410d4a8ec0a7d35e3331c8fc4f56",
    ),
    # rank C(x) - C(y) <= n < k: every dot is zero, as no pair reaches dist k
    "k-over-n": (
        edge_supp_doc(2, 3, [1, 2, 3, 5, 7, 11], [1, 1, 2, 3, 5, 8]),
        16,
        "b48808d6fdc9e76cdf58231525c432a4d48cc74a3d422ae6648e05594bf68a4f",
    ),
}


@pytest.mark.parametrize("name", sorted(EDGE_EXPECTED))
def test_edge_supp_documents_pinned(tmp_path, monkeypatch, name):
    doc, pairs, expected = EDGE_EXPECTED[name]
    monkeypatch.chdir(tmp_path)
    rep = f"{name}.supp.json"
    with open(rep, "w") as fh:
        json.dump(doc, fh)
    report = run_report("verify-supp", {"rep": rep})
    assert report.status == "certified"
    assert report.verification["pairs_checked"] == pairs
    assert digest(report.canonical_bytes()) == expected
