import csv
import hashlib
import itertools
import json
import threading
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hamrank.cli import main
from hamrank.harness import CSV_COLUMNS, RunConfig, run
from hamrank.seeds import rng_stream, seed_stream
from hamrank.veronese import minor_embed

from . import reference
from .conftest import assert_loaded_ranks_are_dense


def weights_supp_doc(n):
    """A hand-built supp document for dist >= 1 on binary words of length n."""
    return {
        "schema": "hamrank-supp/1",
        "predicate": "HD>=1",
        "n": n,
        "k": 1,
        "alphabet": ["0", "1"],
        "dim": 2,
        "seed": 0,
        "compressor": {
            "left": {"rows": 1, "cols": n, "entries": [str(1 << i) for i in range(n)]},
            "right": {"rows": 1, "cols": n, "entries": ["1"] * n},
            "seed": 0,
            "verified": True,
            "retries": 0,
            "entry_range": 0,
            "method": "weights",
            "source_shape": [n, n],
            "target_shape": [1, 1],
        },
    }


def truncated_supp_doc(n):
    """A supp document cut off before its compressor."""
    doc = weights_supp_doc(n)
    del doc["compressor"]
    return doc


def float_rows_supp_doc(n):
    """A supp document whose compressor's left factor has a float row count."""
    doc = weights_supp_doc(n)
    doc["compressor"]["left"]["rows"] = 1.0
    return doc


def shaped_supp_doc(n, source_shape, target_shape):
    """A supp document whose compressor states the given shapes."""
    doc = weights_supp_doc(n)
    doc["compressor"]["source_shape"] = source_shape
    doc["compressor"]["target_shape"] = target_shape
    return doc


def neq_problem_doc(**changes):
    """A rank-problem document for inequality on two symbols, with changes."""
    from hamrank.exact import Mat
    from hamrank.rankprob import problem_to_json, symmetric_problem

    inner = symmetric_problem(2, lambda x: Mat(1, 1, (x,)), (0, 1), name="neq")
    return {**problem_to_json(inner), **changes}


def identity_json(n):
    from hamrank.exact import Mat

    return Mat.identity(n).to_json()


def neq_spec_doc(**changes):
    """The two-coordinate distance-1 spec over ``neq_problem_doc``, with changes."""
    doc = {
        "schema": "hamrank-compspec/1",
        "r": 1,
        "h": [0, 1],
        "inners": [{"problem": neq_problem_doc()}] * 2,
    }
    return {**doc, **changes}


def hd_sign_doc(n, k):
    """The document ``build-sign --n n --k k`` writes at seed 0."""
    from hamrank.signcompile import build_hd_sign, sign_to_json

    meta = {"n": n, "k": k, "predicate": f"HD=={k}", "seed": 0}
    return sign_to_json(build_hd_sign(n, k), meta)


def equality_sign_doc(n):
    """A sign document for dist == 0: +1 off the oracle's support, -1 on it."""
    return {
        "schema": "hamrank-sign/1",
        "tree": {
            "type": "combine",
            "gamma": "2",
            "oracle": weights_supp_doc(n),
            "rep0": {"type": "const", "sign": -1},
            "rep1": {"type": "const", "sign": 1},
        },
        "meta": {"n": n, "k": 0},
    }


DROP = object()


def doc_at(doc, path):
    """The value at the key sequence ``path`` in ``doc``."""
    for key in path:
        doc = doc[key]
    return doc


def doc_with(doc, path, value):
    """A copy of ``doc`` with the value at the key sequence ``path``
    replaced, or deleted when ``value`` is ``DROP``."""
    doc = json.loads(json.dumps(doc))
    *head, last = path
    if value is DROP:
        del doc_at(doc, head)[last]
    else:
        doc_at(doc, head)[last] = value
    return doc


def supp_with(path, value):
    return doc_with(weights_supp_doc(3), path, value)


def sign_with(path, value):
    return doc_with(equality_sign_doc(3), ["tree", *path], value)


# int() reads each of these as 1
NON_INTEGERS = [1.5, True, "+1", " 1", "1_0", "\u0661"]
NON_INTEGER_IDS = ["float", "bool", "plus", "space", "underscore", "arabic-digit"]

# one stored matrix per loader: command, document, key path to the matrix
MATRIX_SITES = [
    ("verify-supp", weights_supp_doc(3), ["compressor", "left"]),
    ("rp-verify", neq_problem_doc(), ["a", 1]),
    ("verify-sign", equality_sign_doc(3), ["tree", "oracle", "compressor", "left"]),
]


def make_config(tmp_path, name, **kwargs):
    params = kwargs.pop("params", {})
    config = RunConfig(
        report_path=str(tmp_path / f"{name}.report.json"),
        csv_path=str(tmp_path / f"{name}.csv"),
        **kwargs,
    )
    config.params = params
    return config


class TestRunBuildVerify:
    def test_build_then_verify_certified(self, tmp_path):
        out = tmp_path / "rep.json"
        build = make_config(
            tmp_path, "build", seed=7, out=str(out), params={"n": 6, "k": 2}
        )
        report = run("build-supp", build)
        assert report.certified
        assert report.construction["dim"] == 6
        assert report.bounds["four_power_k"] == 16

        verify = make_config(tmp_path, "verify", params={"rep": str(out)})
        vreport = run("verify-supp", verify)
        assert vreport.certified
        assert vreport.verification["pairs_checked"] == 4**6
        assert vreport.verification["violation_count"] == 0
        # exhaustive rows read exact dots: no residue, no recheck
        assert vreport.timing["pairs_evaluated"] == 4**6
        assert vreport.timing["exact_rechecks"] == 0

    def test_lower_bound_subcommand(self, tmp_path):
        out = tmp_path / "rep.json"
        run(
            "build-supp",
            make_config(tmp_path, "b", seed=3, out=str(out), params={"n": 5, "k": 2}),
        )
        report = run("lower-bound", make_config(tmp_path, "lb", params={"rep": str(out)}))
        assert report.certified
        assert report.verification["identity_size"] == 4

    def test_sample_mode(self, tmp_path):
        out = tmp_path / "rep.json"
        run(
            "build-supp",
            make_config(tmp_path, "b", seed=3, out=str(out), params={"n": 8, "k": 2}),
        )
        config = make_config(
            tmp_path,
            "v",
            seed=11,
            sample=5000,
            params={"rep": str(out)},
        )
        report = run("verify-supp", config)
        assert report.certified
        assert report.verification["pairs_checked"] == 5000

    def test_budget_violation_reported_not_raised(self, tmp_path):
        out = tmp_path / "rep.json"
        run(
            "build-supp",
            make_config(tmp_path, "b", seed=3, out=str(out), params={"n": 6, "k": 1}),
        )
        config = make_config(tmp_path, "v", max_pairs=10, params={"rep": str(out)})
        report = run("verify-supp", config)
        assert not report.certified
        assert report.status == "failed"

    def test_verify_supp_counts_its_pairs_and_exact_rechecks(
        self, tmp_path, monkeypatch
    ):
        """perfbench's seed-7 sample-9-3 job: its recheck count is the drawn
        pairs at distance < 3 (dot 0) plus the far ones whose dot 32749
        divides, and its canonical bytes are perfbench's pinned digest."""
        from hamrank.hamming import word_of_index

        monkeypatch.chdir(tmp_path)
        build = ["build-supp", "--n", "9", "--k", "3", "--alphabet", "0,1"]
        assert main([*build, "--out", "b9k3.supp.json", "--seed", "7"]) == 0
        argv = ["verify-supp", "b9k3.supp.json", "--mode", "sample:50000"]
        assert main([*argv, "--seed", "7", "--report", "r.json"]) == 0
        report = json.loads((tmp_path / "r.json").read_text())
        timing = report.pop("timing")
        canonical = json.dumps(report, sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(canonical.encode()).hexdigest() == (
            "627570ccd1edf3ac090a21e89ff3ec6a321d9cdd7a46c3ff8a089127ce11aa19"
        )

        dot = reference.supp_dot(json.loads((tmp_path / "b9k3.supp.json").read_text()))
        rng = rng_stream(7, "verify-sample", 9, 3)
        near = far_zero = 0
        for _ in range(50000):
            i, j = rng.randrange(512), rng.randrange(512)
            x, y = word_of_index(i, 9, (0, 1)), word_of_index(j, 9, (0, 1))
            if reference.dist(x, y) < 3:
                near += 1
            else:
                far_zero += dot(x, y) % 32749 == 0
        assert timing["pairs_evaluated"] == 50000
        assert timing["exact_rechecks"] == near + far_zero
        # both kinds occur: the far ones are the residue's own false zeros
        assert (near, far_zero) == (4580, 5)


class TestDeterminism:
    def test_reports_byte_identical_across_reruns(self, tmp_path):
        out1 = tmp_path / "rep1.json"
        out2 = tmp_path / "rep2.json"
        r1 = run(
            "build-supp",
            make_config(tmp_path, "b1", seed=42, out=str(out1), params={"n": 6, "k": 2}),
        )
        r2 = run(
            "build-supp",
            make_config(tmp_path, "b2", seed=42, out=str(out2), params={"n": 6, "k": 2}),
        )
        assert r1.canonical_bytes() == r2.canonical_bytes()
        assert out1.read_text() == out2.read_text()

    def test_different_seed_changes_artifact(self, tmp_path):
        out1 = tmp_path / "rep1.json"
        out2 = tmp_path / "rep2.json"
        run(
            "build-supp",
            make_config(tmp_path, "b1", seed=1, out=str(out1), params={"n": 6, "k": 2}),
        )
        run(
            "build-supp",
            make_config(tmp_path, "b2", seed=2, out=str(out2), params={"n": 6, "k": 2}),
        )
        assert out1.read_text() != out2.read_text()

    def test_thread_count_does_not_change_verification(self, tmp_path):
        out = tmp_path / "rep.json"
        run(
            "build-supp",
            make_config(tmp_path, "b", seed=9, out=str(out), params={"n": 5, "k": 2}),
        )
        lone = run(
            "verify-supp", make_config(tmp_path, "v1", threads=1, params={"rep": str(out)})
        )
        pooled = run(
            "verify-supp", make_config(tmp_path, "v4", threads=4, params={"rep": str(out)})
        )
        assert lone.verification == pooled.verification

    def test_thread_count_starts_no_thread(self, tmp_path, monkeypatch):
        out = tmp_path / "rep.json"
        run(
            "build-supp",
            make_config(tmp_path, "b", seed=9, out=str(out), params={"n": 5, "k": 2}),
        )

        def refuse(self):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        report = run(
            "verify-supp", make_config(tmp_path, "v", threads=4, params={"rep": str(out)})
        )
        assert report.certified
        assert report.config["threads"] == 4

    def test_seed_stream_is_stable(self):
        assert seed_stream(7, "a", 1) == seed_stream(7, "a", 1)
        assert seed_stream(7, "a", 1) != seed_stream(7, "a", 2)
        assert seed_stream(7, "a") != seed_stream(8, "a")


class TestArtifacts:
    def test_csv_columns_fixed(self, tmp_path):
        out = tmp_path / "rep.json"
        config = make_config(
            tmp_path, "build", seed=7, out=str(out), params={"n": 5, "k": 1}
        )
        run("build-supp", config)
        with open(config.csv_path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == CSV_COLUMNS
        assert rows[1][0] == "build-supp"

    def test_report_schema(self, tmp_path):
        out = tmp_path / "rep.json"
        config = make_config(
            tmp_path, "build", seed=7, out=str(out), params={"n": 5, "k": 1}
        )
        run("build-supp", config)
        doc = json.loads((tmp_path / "build.report.json").read_text())
        assert doc["schema"] == "hamrank-report/1"
        assert "timing" in doc and "millis" in doc["timing"]


class TestSignCommands:
    def test_build_and_verify_sign(self, tmp_path):
        out = tmp_path / "sign.json"
        build = make_config(
            tmp_path, "bs", seed=5, out=str(out), params={"n": 5, "k": 1}
        )
        report = run("build-sign", build)
        assert report.certified
        assert report.construction["dim"] == 41
        assert report.bounds["dim_formula"] == 41
        verify = make_config(tmp_path, "vs", params={"rep": str(out)})
        vreport = run("verify-sign", verify)
        assert vreport.certified
        assert vreport.verification["pairs_checked"] == 4**5

    def test_verify_sign_uses_the_oracle_alphabet(self, tmp_path):
        from hamrank.signcompile import build_hd_sign, sign_to_json

        rep = build_hd_sign(3, 1, alphabet=(0, 1, 2))
        path = tmp_path / "ternary.sign.json"
        path.write_text(json.dumps(sign_to_json(rep, {"n": 3, "k": 1})))
        report = run("verify-sign", make_config(tmp_path, "vs", params={"rep": str(path)}))
        assert report.certified
        assert report.verification["pairs_checked"] == 729

    @pytest.mark.parametrize("k,dim", [(3, 5301), (4, 68405), (5, 917281)])
    def test_the_k_curve_at_n8_verifies_on_every_pair(self, tmp_path, k, dim):
        out = str(tmp_path / "s.json")
        build = make_config(tmp_path, "bs", seed=7, out=out, params={"n": 8, "k": k})
        report = run("build-sign", build)
        assert report.certified
        assert report.construction["dim"] == report.bounds["dim_formula"] == dim
        vreport = run("verify-sign", make_config(tmp_path, "vs", params={"rep": out}))
        assert vreport.certified
        assert vreport.verification["pairs_checked"] == 65536
        assert vreport.timing["pairs_evaluated"] == 256 * 257 // 2

    def test_sampled_verify_sign_replays_the_randrange_stream(
        self, tmp_path, monkeypatch
    ):
        from hamrank import harness
        from hamrank.hamming import word_of_index

        doc = hd_sign_doc(3, 1)
        doc["tree"]["rep0"]["sign"] = -doc["tree"]["rep0"]["sign"]  # the root term
        path = tmp_path / "broken.sign.json"
        path.write_text(json.dumps(doc))
        swept, harness_sweep = [], harness.sweep

        def recorded(*args, **kwargs):
            swept.append(harness_sweep(*args, **kwargs))
            return swept[-1]

        monkeypatch.setattr(harness, "sweep", recorded)
        config = make_config(tmp_path, "vs", seed=2, sample=300, params={"rep": str(path)})
        report = run("verify-sign", config)

        words = [word_of_index(i, 3, (0, 1)) for i in range(8)]
        rng = rng_stream(2, "verify-sign", 3, 1)
        drawn = [(words[rng.randrange(8)], words[rng.randrange(8)]) for _ in range(300)]
        bad = [
            (words.index(x), words.index(y))
            for x, y in reference.sign_failures(doc, drawn)
        ]
        assert report.status == "failed"
        assert report.verification["violation_count"] == len(bad) == 153
        assert swept[0].violations == tuple(bad[:32])

    def test_exhaustive_verify_sign_records_its_failures_at_i_le_j(
        self, tmp_path, monkeypatch
    ):
        """The exhaustive sweep counts every ordered failing pair and
        records each unordered one once, i <= j, in row order."""
        from hamrank import harness
        from hamrank.hamming import word_of_index

        doc = hd_sign_doc(3, 1)
        doc["tree"]["rep0"]["sign"] = -doc["tree"]["rep0"]["sign"]  # the root term
        path = tmp_path / "broken.sign.json"
        path.write_text(json.dumps(doc))
        swept, harness_sweep = [], harness.sweep

        def recorded(*args, **kwargs):
            swept.append(harness_sweep(*args, **kwargs))
            return swept[-1]

        monkeypatch.setattr(harness, "sweep", recorded)
        config = make_config(tmp_path, "vs", params={"rep": str(path)})
        report = run("verify-sign", config)

        words = [word_of_index(i, 3, (0, 1)) for i in range(8)]
        pairs = itertools.product(words, repeat=2)
        bad = [
            (words.index(x), words.index(y))
            for x, y in reference.sign_failures(doc, pairs)
        ]
        assert report.status == "failed"
        assert report.verification["violation_count"] == len(bad)
        assert swept[0].violations == tuple([(i, j) for i, j in bad if i <= j][:32])
        assert report.timing["pairs_evaluated"] == 8 * 9 // 2

    def test_verify_sign_mirrors_only_under_the_det_sum_identity(
        self, tmp_path, request
    ):
        path = tmp_path / "rep.sign.json"
        path.write_text(json.dumps(hd_sign_doc(3, 1)))
        request.getfixturevalue("flipped_det_sum_sign")  # after the build
        params = {"rep": str(path)}
        report = run("verify-sign", make_config(tmp_path, "vs", params=params))
        assert report.status == "failed"
        assert report.error.startswith("PatternViolationError: det-sum identity")
        assert report.verification == {}
        # sample mode evaluates each drawn pair alone, with no proof to gate it
        config = make_config(tmp_path, "vss", sample=50, params=params)
        sample = run("verify-sign", config)
        assert sample.error is None
        assert sample.verification["pairs_checked"] == 50
        assert sample.timing["pairs_evaluated"] == 50

    @staticmethod
    def pairwise_verify_sign(path):
        """The per-pair check the row kernel replaced: ``eval_sign`` on every
        ordered pair in row-major order, against dist == k."""
        from hamrank.errors import HamrankError
        from hamrank.harness import _load, _load_sign
        from hamrank.hamming import word_of_index
        from hamrank.parallel import pairwise, sweep
        from hamrank.signcompile import eval_sign

        rep, n, k = _load(str(path), _load_sign)
        alphabet = rep.terms[-1].oracle.alphabet
        words = [word_of_index(i, n, alphabet) for i in range(len(alphabet) ** n)]
        check = pairwise(
            lambda i, j: eval_sign(rep, words[i], words[j])
            != (1 if reference.dist(words[i], words[j]) == k else -1)
        )
        try:
            result = sweep(len(words), lambda: check)
        except HamrankError as exc:
            return None, None, "failed", f"{type(exc).__name__}: {exc}"
        status = "certified" if result.certified else "failed"
        return result.pairs_checked, result.violation_count, status, None

    @pytest.mark.parametrize(
        "case",
        ["hd-6-1", "hd-6-2", "ternary-4-1", "ternary-3-2", "equality-3",
         "meta-k-over-n", "gamma-lowered", "gamma-negative", "gamma-vanishing",
         "vanishing-twice-in-a-row"],
    )
    def test_row_kernel_matches_the_pairwise_check(self, tmp_path, case):
        from hamrank.signcompile import build_hd_sign, sign_to_json

        if case.startswith("ternary"):
            n, k = int(case[-3]), int(case[-1])
            rep = build_hd_sign(n, k, alphabet=(0, 1, 2))
            doc = sign_to_json(rep, {"n": n, "k": k})
        elif case == "equality-3":
            doc = equality_sign_doc(3)
        elif case == "gamma-vanishing":  # 1 - s^2 is 0 where s = +-1
            doc = doc_with(equality_sign_doc(3), ["tree", "gamma"], "1")
        elif case == "vanishing-twice-in-a-row":
            # row (0, 0, 0) meets s = -1 twice: at (0, 1, 0), then (1, 0, 0)
            doc = doc_with(equality_sign_doc(3), ["tree", "gamma"], "1")
            doc["tree"]["oracle"]["compressor"]["left"]["entries"] = ["1", "1", "4"]
        elif case == "meta-k-over-n":
            doc = doc_with(hd_sign_doc(6, 1), ["meta", "k"], 7)
        elif case == "gamma-lowered":  # the root's sign is its rep1's: dist >= 1
            doc = doc_with(hd_sign_doc(6, 1), ["tree", "gamma"], "0")
        elif case == "gamma-negative":  # +1 where dist >= 2 too, not -1
            doc = doc_with(hd_sign_doc(3, 1), ["tree", "gamma"], "-5")
        else:
            doc = hd_sign_doc(6, int(case[-1]))
        path = tmp_path / "rep.sign.json"
        path.write_text(json.dumps(doc))
        report = run("verify-sign", make_config(tmp_path, "vs", params={"rep": str(path)}))
        ver = report.verification
        got = ver.get("pairs_checked"), ver.get("violation_count")
        assert (*got, report.status, report.error) == self.pairwise_verify_sign(path)
        violations = {
            "meta-k-over-n": 64 * 6,  # every positive pair, at distance 1
            "gamma-lowered": 4096 - 64 - 64 * 6,  # the pairs at distance >= 2
            "gamma-negative": 8 * (3 + 1),  # the pairs at distance >= 2
            "gamma-vanishing": None,  # no count: the first zero ends the check
            "vanishing-twice-in-a-row": None,
        }
        assert ver.get("violation_count") == violations.get(case, 0)
        vanished = {
            "gamma-vanishing": "((0, 0, 0), (1, 0, 0))",
            "vanishing-twice-in-a-row": "((0, 0, 0), (0, 1, 0))",
        }
        if case in vanished:
            assert report.error == (
                f"ZeroValueError: sign value vanished at {vanished[case]}; "
                "dominance constant or construction is broken"
            )
        else:
            assert report.error is None


PERFBENCH_DIGESTS = Path(__file__).resolve().parent.parent / "perfbench" / "digests.json"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def exact_2_of_6(tmp_path_factory):
    """A directory holding the compose workload's exact-2-of-6 spec and the
    artifact its seed-7 ``compose --out`` job writes."""
    from hamrank.rankprob import CompositionSpec, hd_rank_problem, spec_to_json

    base = tmp_path_factory.mktemp("exact-2-of-6")
    inequality = hd_rank_problem(1, 1, (0, 1), seed=7)
    spec = CompositionSpec(r=2, h=(0, 0, 1), inners=(inequality,) * 6)
    (base / "exact-2-of-6.spec.json").write_text(json.dumps(spec_to_json(spec)))
    mp = pytest.MonkeyPatch()
    mp.chdir(base)
    try:
        argv = ["compose", "--spec", "exact-2-of-6.spec.json", "--seed", "7"]
        out = ["--out", "exact-2-of-6.rp.json", "--report", "compose.report.json"]
        assert main(argv + out) == 0
    finally:
        mp.undo()
    return base


class TestComposeCommands:
    def test_compose_and_rp_verify(self, tmp_path):
        from hamrank.exact import Mat
        from hamrank.rankprob import CompositionSpec, spec_to_json, symmetric_problem

        inner = symmetric_problem(2, lambda x: Mat(1, 1, (x,)), (0, 1), name="neq")
        spec = CompositionSpec(r=1, h=(0, 1), inners=(inner,) * 2)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec_to_json(spec)))
        out = tmp_path / "rp.json"
        report = run(
            "compose",
            make_config(
                tmp_path, "c", seed=5, out=str(out), params={"spec": str(spec_path)}
            ),
        )
        assert report.certified
        assert report.verification["violation_count"] == 0
        vreport = run(
            "rp-verify", make_config(tmp_path, "rv", params={"rp": str(out)})
        )
        assert vreport.certified

    def test_rp_verify_ranks_block_by_block(self, tmp_path, monkeypatch):
        from hamrank import exact, rankprob
        from hamrank.exact import Mat, pattern_blocks
        from hamrank.rankprob import CompositionSpec, spec_to_json, symmetric_problem

        inner = symmetric_problem(2, lambda x: Mat(1, 1, (x,)), (0, 1), name="neq")
        spec = CompositionSpec(r=2, h=(0, 0, 1), inners=(inner,) * 4)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec_to_json(spec)))
        out = tmp_path / "rp.json"
        params = {"spec": str(spec_path)}
        config = make_config(tmp_path, "c", out=str(out), params=params)
        assert run("compose", config).certified
        table = [Mat.from_json(m) for m in json.loads(out.read_text())["a"]]
        blocks = pattern_blocks(table)
        assert len(blocks) > 1

        shapes = []
        bareiss = exact.bareiss

        def recording_bareiss(a):
            shapes.append((len(a), len(a[0]) if a else 0))
            return bareiss(a)

        monkeypatch.setattr(exact, "bareiss", recording_bareiss)
        monkeypatch.setattr(rankprob, "bareiss", recording_bareiss)
        vreport = run("rp-verify", make_config(tmp_path, "rv", params={"rp": str(out)}))
        assert vreport.certified
        assert shapes
        assert max(r for r, _ in shapes) == max(len(rows) for rows, _ in blocks)
        assert max(c for _, c in shapes) == max(len(cols) for _, cols in blocks)

    @pytest.mark.parametrize(
        "case,violations",
        [("certified", 0), ("entry-changed", 30), ("g0-flipped", 64)],
    )
    def test_symmetric_check_matches_the_pairwise_check(
        self, tmp_path, monkeypatch, case, violations
    ):
        """rp-verify decides each unordered pair once and reports what the
        pair-by-pair check reports on every ordered pair."""
        from hamrank import harness
        from hamrank.exact import Mat
        from hamrank.parallel import sweep
        from hamrank.rankprob import (
            CompositionSpec,
            RankProblem,
            distance_r_compose,
            problem_to_json,
            spec_to_json,
            symmetric_problem,
        )

        inner = symmetric_problem(2, lambda x: Mat(1, 1, (x,)), (0, 1), name="neq")
        spec = CompositionSpec(r=2, h=(0, 0, 1), inners=(inner,) * 6)
        doc = problem_to_json(distance_r_compose(spec, seed=3))
        if case == "entry-changed":  # entry (0, 1) of A(5)
            entries = doc["a"][5]["entries"]
            entries[1] = str(int(entries[1]) + 1)
        elif case == "g0-flipped":  # every diagonal pair fails
            doc["g"][0] ^= 1
        spec_path, rp_path = tmp_path / "spec.json", tmp_path / "rp.json"
        spec_path.write_text(json.dumps(spec_to_json(spec)))
        rp_path.write_text(json.dumps(doc))

        results = []

        def recording_sweep(*args, **kwargs):
            results.append(sweep(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(harness, "sweep", recording_sweep)
        evals = Counter()
        real_eval = RankProblem.eval

        def counting_eval(p, x, y):
            evals[p.index_count] += 1
            return real_eval(p, x, y)

        monkeypatch.setattr(RankProblem, "eval", counting_eval)
        params = {"rp": str(rp_path), "spec": str(spec_path)}
        report = run("rp-verify", make_config(tmp_path, "rv", params=params))
        monkeypatch.undo()

        assert_loaded_ranks_are_dense(doc)
        truth = reference.spec_semantics(spec_to_json(spec))
        pairs = itertools.product(range(64), repeat=2)
        count, _ = reference.tally(reference.rank_failures(doc, pairs, truth))
        assert [(r.pairs_checked, r.mode, r.violation_count) for r in results] == [
            (4096, "exhaustive", count)
        ]
        upper = itertools.combinations_with_replacement(range(64), 2)
        _, first = reference.tally(reference.rank_failures(doc, upper, truth))
        assert list(results[0].violations) == first
        assert count == violations
        assert report.verification["violation_count"] == violations
        assert report.certified == (violations == 0)
        assert evals[64] == report.timing["pairs_evaluated"] == 64 * 65 // 2

    def test_exact_2_of_6_ranks_are_the_dense_ranks(self, exact_2_of_6):
        path = exact_2_of_6 / "exact-2-of-6.rp.json"
        want = json.loads(PERFBENCH_DIGESTS.read_text())["compose"]
        assert sha256(path.read_bytes()) == want["compose-exact-2-of-6"]["artifact"]
        assert_loaded_ranks_are_dense(json.loads(path.read_text()))

    def test_rp_verify_counts_its_exact_rechecks(self, exact_2_of_6, monkeypatch):
        """The table's 13 pattern blocks (one 3 x 3, eight 2 x 2, four
        1 x 1) are copies of 3 distinct ones.  The 2,016 pairs x < y, whose
        cuts all differ, meet 364 distinct differences of each, and each
        distinct difference is eliminated once; the 64 pairs x = y eliminate
        nothing.  The count is timing, so the report's canonical bytes stay
        the benchmark's."""
        from hamrank import rankprob

        sizes = []
        bareiss = rankprob.bareiss
        monkeypatch.setattr(
            rankprob, "bareiss", lambda a: sizes.append(len(a)) or bareiss(a)
        )
        monkeypatch.chdir(exact_2_of_6)
        argv = ["rp-verify", "exact-2-of-6.rp.json", "--seed", "7"]
        assert main(argv + ["--report", "rp-verify.report.json"]) == 0
        with open("rp-verify.report.json") as fh:
            report = json.load(fh)
        assert report["timing"]["exact_rechecks"] == 3 * 364
        # the spec's six 2-index inners load through the same function and
        # eliminate their 1 x 1 difference once per order the semantics
        # asks: the leading coordinate's inner as (0, 1) only, so 1 + 5 * 2
        assert Counter(sizes) == {1: 364 + 11, 2: 364, 3: 364}
        del report["timing"]
        canonical = json.dumps(report, sort_keys=True, separators=(",", ":"))
        want = json.loads(PERFBENCH_DIGESTS.read_text())["compose"]
        assert sha256(canonical.encode()) == want["rp-verify-exact-2-of-6"]["report"]

    def test_spec_file_references(self, tmp_path):
        from hamrank.exact import Mat
        from hamrank.rankprob import problem_to_json, symmetric_problem

        inner = symmetric_problem(2, lambda x: Mat(1, 1, (x,)), (0, 1), name="neq")
        (tmp_path / "inner.json").write_text(json.dumps(problem_to_json(inner)))
        spec_doc = {
            "schema": "hamrank-compspec/1",
            "r": 1,
            "h": [0, 1],
            "inners": [{"file": "inner.json"}, {"file": "inner.json"}],
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec_doc))
        report = run(
            "compose",
            make_config(tmp_path, "c", seed=6, params={"spec": str(spec_path)}),
        )
        assert report.certified


JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 5),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=3),
    st.sampled_from(NON_INTEGERS + ["1.0", "0x1", "-", ""]),
    st.lists(st.one_of(st.integers(-2, 2), st.text(max_size=2)), max_size=4),
    st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=2),
    st.builds(identity_json, st.integers(0, 2)),
)


@st.composite
def mutated_problem_docs(draw):
    """``neq_problem_doc`` with one field, one matrix, one matrix's shape
    or entries, or one entry replaced by an arbitrary JSON value."""
    doc = neq_problem_doc()
    field = draw(
        st.sampled_from(
            ["index_count", "order", "g", "a", "symmetric", "b", "matrix",
             "rows", "cols", "entries", "entry"]
        )
    )
    value, m = draw(JSON_VALUES), draw(st.integers(0, 1))
    if field == "matrix":
        doc["a"][m] = value
    elif field in ("rows", "cols", "entries"):
        doc["a"][m][field] = value
    elif field == "entry":
        doc["a"][m]["entries"][0] = value
    else:
        doc[field] = value
    return doc


SUPP_INTEGER_FIELDS = (
    [[key] for key in ("n", "k", "dim", "seed")]
    + [["alphabet"], ["alphabet", 0], ["alphabet", 1]]
    + [["compressor", key] for key in ("seed", "retries", "entry_range")]
    + [["compressor", key, i] for key in ("source_shape", "target_shape")
       for i in (0, 1)]
    + [["compressor", side, key] for side in ("left", "right")
       for key in ("rows", "cols", "entries")]
    + [["compressor", side, "entries", 0] for side in ("left", "right")]
)
SUPP_OTHER_FIELDS = [["schema"], ["predicate"], ["compressor"]] + [
    ["compressor", key] for key in ("left", "right", "verified", "method")
]


@st.composite
def mutated_supp_docs(draw):
    """``weights_supp_doc(3)`` with one field dropped or replaced by an
    arbitrary JSON value, most often an integer field."""
    field = draw(st.sampled_from(SUPP_INTEGER_FIELDS + SUPP_OTHER_FIELDS))
    value = draw(st.one_of(st.just(DROP), JSON_VALUES))
    return doc_with(weights_supp_doc(3), field, value)


@st.composite
def mutated_sign_docs(draw):
    """``equality_sign_doc(3)`` with one tree or meta field, or one field of
    its oracle, dropped or replaced by an arbitrary JSON value."""
    doc = equality_sign_doc(3)
    if draw(st.booleans()):
        doc["tree"]["oracle"] = draw(mutated_supp_docs())
        return doc
    field = draw(
        st.sampled_from(
            [["schema"], ["tree"], ["meta"], ["meta", "n"], ["meta", "k"]]
            + [["tree", key] for key in ("type", "gamma", "oracle", "rep0", "rep1")]
            + [["tree", r, key] for r in ("rep0", "rep1") for key in ("type", "sign")]
        )
    )
    return doc_with(doc, field, draw(st.one_of(st.just(DROP), JSON_VALUES)))


def loads_or_names_the_path(tmp_path, doc, loader):
    """Load ``doc`` from a file through ``harness._load``: the result, or
    ``None`` after an ``InputError`` that names the path."""
    from hamrank.errors import InputError
    from hamrank.harness import _load

    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    try:
        return _load(str(path), loader)
    except InputError as exc:
        assert str(exc).startswith(f"cannot load {path}: ")
        return None


class TestLoaderFuzz:
    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(doc=mutated_problem_docs())
    def test_rank_problem_loads_or_names_the_path(self, tmp_path, doc):
        from hamrank.errors import InputError
        from hamrank.harness import _load
        from hamrank.rankprob import problem_from_json

        path = tmp_path / "rp.json"
        path.write_text(json.dumps(doc))
        try:
            problem = _load(str(path), problem_from_json)
        except InputError as exc:
            assert str(exc).startswith(f"cannot load {path}: ")
            return
        pairs = itertools.product(range(problem.index_count), repeat=2)
        assert {problem.eval(x, y) for x, y in pairs} <= {0, 1}

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(doc=mutated_supp_docs())
    def test_supp_loads_or_names_the_path(self, tmp_path, doc):
        from hamrank.hamming import load_supp

        rep = loads_or_names_the_path(tmp_path, doc, load_supp)
        if rep is not None:
            assert all(type(a) is int for a in rep.alphabet)
            word = (rep.alphabet[0],) * rep.n
            assert not rep.query(word, word)

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(doc=mutated_sign_docs())
    def test_sign_loads_or_names_the_path(self, tmp_path, doc):
        from hamrank.harness import _load_sign
        from hamrank.signcompile import eval_sign

        loaded = loads_or_names_the_path(tmp_path, doc, _load_sign)
        if loaded is not None:
            rep = loaded[0]
            assert [type(term.gamma) for term in rep.terms] == [int]
            root = rep.terms[-1].oracle
            word = (root.alphabet[0],) * root.n
            assert eval_sign(rep, word, word) in (1, -1)


class TestCli:
    def test_console_script_subprocess(self, tmp_path):
        import os
        import subprocess
        import sys

        import hamrank

        # the child imports the same package as this process, installed or not
        src = os.path.dirname(os.path.dirname(hamrank.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        out = tmp_path / "rep.json"
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "hamrank.cli",
                "build-supp",
                "--n",
                "4",
                "--k",
                "1",
                "--seed",
                "2",
                "--out",
                str(out),
            ],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert "certified" in proc.stdout
        assert out.exists()

    def test_cli_round_trip(self, tmp_path):
        out = tmp_path / "rep.json"
        code = main(
            [
                "build-supp",
                "--n",
                "5",
                "--k",
                "2",
                "--seed",
                "3",
                "--out",
                str(out),
                "--report",
                str(tmp_path / "r.json"),
            ]
        )
        assert code == 0
        code = main(["verify-supp", str(out), "--mode", "exhaustive"])
        assert code == 0
        code = main(["lower-bound", str(out)])
        assert code == 0

    def test_cli_parser_is_built_once_and_keeps_no_state(self, tmp_path, monkeypatch):
        from hamrank import cli

        assert cli.build_parser() is cli.build_parser()
        build = ["build-supp", "--n", "4", "--k", "2", "--seed", "3", "--out", "rep.json"]
        verify = ["verify-supp", "rep.json", "--mode", "sample:500", "--seed", "11"]

        def reports(directory):
            monkeypatch.chdir(directory)
            assert main([*build, "--report", "build.json"]) == 0
            with pytest.raises(SystemExit) as exc:
                main(["verify-supp", "rep.json", "--no-such-flag"])
            assert exc.value.code == 2
            assert main([*verify, "--report", "verify.json"]) == 0
            docs = [json.loads(Path(name).read_text()) for name in ("build.json", "verify.json")]
            for doc in docs:
                del doc["timing"]
            return docs

        (tmp_path / "cached").mkdir()
        (tmp_path / "fresh").mkdir()
        cached = reports(tmp_path / "cached")
        # every call parses with a parser of its own
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        assert reports(tmp_path / "fresh") == cached

    def test_cli_sample_mode_flag(self, tmp_path):
        out = tmp_path / "rep.json"
        main(["build-supp", "--n", "6", "--k", "2", "--seed", "3", "--out", str(out)])
        assert main(["verify-supp", str(out), "--mode", "sample:2000"]) == 0

    def test_cli_nonbinary_alphabet(self, tmp_path):
        out = tmp_path / "rep.json"
        args = [
            "build-supp", "--n", "3", "--k", "2",
            "--alphabet", "0,1,2", "--seed", "3", "--out", str(out),
        ]
        assert main(args) == 0
        assert main(["verify-supp", str(out)]) == 0

    def test_cli_unknown_mode(self, tmp_path):
        out = tmp_path / "rep.json"
        main(["build-supp", "--n", "4", "--k", "1", "--seed", "3", "--out", str(out)])
        report = tmp_path / "v.report.json"
        modes = ("half", "sample", "sample:0", "sample:-3", "sample:x", "sample:\u00b2",
                 "sample:\u0663", "sample:+5", "sample: 5", "sample:5_0")
        for mode in modes:
            for command in ("verify-supp", "verify-sign"):
                with pytest.raises(SystemExit) as exc:
                    main([command, str(out), "--mode", mode, "--report", str(report)])
                assert str(exc.value).startswith(f"bad --mode {mode!r}: ")
        assert list(tmp_path.iterdir()) == [out]

    def test_cli_lower_bound_on_ternary_rep_certifies(self, tmp_path):
        out = tmp_path / "rep.json"
        report = tmp_path / "lb.report.json"
        args = ["build-supp", "--n", "3", "--k", "2", "--alphabet", "0,1,2", "--out"]
        assert main(args + [str(out)]) == 0
        assert main(["lower-bound", str(out), "--report", str(report)]) == 0
        verification = json.loads(report.read_text())["verification"]
        assert verification["identity_size"] == 4
        assert verification["violation_count"] == 0

    def test_cli_lower_bound_on_one_letter_rep_reports_failure(self, tmp_path):
        out = tmp_path / "rep.json"
        args = ["build-supp", "--n", "3", "--k", "1", "--alphabet", "0", "--out"]
        assert main(args + [str(out)]) == 0
        error = self.failed_report(tmp_path, ["lower-bound", str(out)])
        assert error == "InputError: the identity certificate needs at least two letters"

    def test_cli_lower_bound_with_k_over_n_names_both(self, tmp_path):
        from .test_report_bytes import edge_supp_doc

        file = tmp_path / "rep.json"
        doc = edge_supp_doc(2, 3, [1, 2, 3, 5, 7, 11], [1, 1, 2, 3, 5, 8])
        file.write_text(json.dumps(doc))
        error = self.failed_report(tmp_path, ["lower-bound", str(file)])
        assert error == (
            "InputError: the identity certificate needs k <= n, got k=3, n=2"
        )

    def test_cli_verify_sign_without_meta_reports_failure(self, tmp_path):
        out = tmp_path / "sign.json"
        report = tmp_path / "vs.report.json"
        main(["build-sign", "--n", "3", "--k", "1", "--out", str(out)])
        doc = json.loads(out.read_text())
        del doc["meta"]
        out.write_text(json.dumps(doc))
        assert main(["verify-sign", str(out), "--report", str(report)]) == 1
        doc = json.loads(report.read_text())
        assert doc["status"] == "failed"
        assert doc["error"].startswith("InputError:")

    def failed_report(self, tmp_path, argv):
        report = tmp_path / "failed.report.json"
        assert main(argv + ["--report", str(report)]) == 1
        doc = json.loads(report.read_text())
        assert doc["status"] == "failed"
        return doc["error"]

    def test_cli_family_over_budget_reports_failure_at_once(self, tmp_path):
        out = str(tmp_path / "r.json")
        args = ["build-supp", "--n", "40", "--k", "2", "--out", out]
        start = time.perf_counter()
        error = self.failed_report(tmp_path, args)
        assert time.perf_counter() - start < 1.0
        assert error.startswith("BudgetExceededError:")

    @pytest.mark.parametrize(
        "extra",
        [
            ["--n", "3", "--k", "5"],
            ["--n", "3", "--k", "0"],
            ["--n", "3", "--k", "2", "--alphabet", "0,0"],
        ],
    )
    def test_cli_build_supp_bad_parameters_report_failure(self, tmp_path, extra):
        args = ["build-supp", *extra, "--out", str(tmp_path / "r.json")]
        assert self.failed_report(tmp_path, args).startswith("InputError:")

    def test_cli_build_sign_over_pair_budget_reports_failure_at_once(self, tmp_path):
        args = ["build-sign", "--n", "16", "--k", "1", "--out", str(tmp_path / "s.json")]
        start = time.perf_counter()
        error = self.failed_report(tmp_path, args)
        assert time.perf_counter() - start < 1.0
        assert error.startswith("BudgetExceededError: 21523361 pairs exceed")

    @pytest.mark.parametrize(
        "command,doc",
        [("verify-supp", weights_supp_doc(40)), ("verify-sign", equality_sign_doc(40))],
    )
    def test_cli_sample_mode_never_enumerates_the_domain(
        self, tmp_path, monkeypatch, command, doc
    ):
        product = itertools.product

        def guarded(*iterables, repeat=1):
            if repeat >= 40:
                raise AssertionError("the word domain was enumerated")
            return product(*iterables, repeat=repeat)

        monkeypatch.setattr(itertools, "product", guarded)
        embedded = Counter()

        def counting(m):
            embedded["minor_embed"] += 1
            return minor_embed(m)

        monkeypatch.setattr("hamrank.hamming.minor_embed", counting)
        rep = tmp_path / "rep.json"
        rep.write_text(json.dumps(doc))
        report = tmp_path / "v.report.json"
        argv = [command, str(rep), "--mode", "sample:200", "--report", str(report)]
        assert main(argv) == 0
        verification = json.loads(report.read_text())["verification"]
        assert verification["pairs_checked"] == 200
        assert verification["violation_count"] == 0
        assert sum(embedded.values()) <= 2 * 200

    @pytest.mark.parametrize(
        "command,doc",
        [("verify-supp", weights_supp_doc(40)), ("verify-sign", equality_sign_doc(40))],
    )
    def test_cli_sample_count_is_held_to_the_pair_budget(
        self, tmp_path, monkeypatch, command, doc
    ):
        monkeypatch.setenv("HAMRANK_MAX_PAIRS", "300")
        rep = tmp_path / "rep.json"
        rep.write_text(json.dumps(doc))

        def sample(count):
            return [command, str(rep), "--mode", f"sample:{count}"]

        report = tmp_path / "v.report.json"
        assert main(sample(300) + ["--report", str(report)]) == 0
        assert json.loads(report.read_text())["verification"]["pairs_checked"] == 300
        error = self.failed_report(tmp_path, sample(301))
        assert error.startswith("BudgetExceededError: 301 pairs exceed")

    def test_cli_exhaustive_sign_over_the_pair_budget_never_embeds(
        self, tmp_path, monkeypatch
    ):
        def never(*args):
            raise AssertionError("embedded or packed a word over the budget")

        monkeypatch.setenv("HAMRANK_MAX_PAIRS", "63")
        monkeypatch.setattr("hamrank.hamming.minor_embed", never)
        monkeypatch.setattr("hamrank.signcompile.packed_dots", never)
        rep = tmp_path / "rep.json"
        rep.write_text(json.dumps(equality_sign_doc(3)))
        error = self.failed_report(tmp_path, ["verify-sign", str(rep)])
        assert error == (
            "BudgetExceededError: 64 pairs exceed the exhaustive budget of 63; "
            "rerun in sample mode with an explicit count"
        )

    @pytest.mark.parametrize("value", ["abc", " 30", "3_0", "\u0663\u0660"])
    @pytest.mark.parametrize("name", ["HAMRANK_MAX_PAIRS", "HAMRANK_MAX_DIM"])
    def test_cli_bad_environment_value_exits_cleanly(
        self, tmp_path, monkeypatch, name, value
    ):
        monkeypatch.setenv(name, value)
        args = ["build-supp", "--n", "3", "--k", "1", "--out", str(tmp_path / "r.json")]
        with pytest.raises(SystemExit) as exc:
            main(args + ["--report", str(tmp_path / "r.report.json")])
        assert str(exc.value) == f"bad {name}={value!r}: expected an integer"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--n", "\u0663"),
            ("--k", " 1"),
            ("--seed", "1_0"),
            ("--threads", "+2"),
            ("--alphabet", "0, 1"),
            ("--alphabet", "0,\u0663"),
        ],
    )
    def test_cli_integer_flags_take_ascii_decimals_only(
        self, tmp_path, capsys, flag, value
    ):
        args = ["build-supp", "--n", "3", "--k", "1", "--out", str(tmp_path / "r.json")]
        with pytest.raises(SystemExit) as exc:
            main(args + ["--report", str(tmp_path / "r.report.json"), flag, value])
        assert exc.value.code == 2
        error = capsys.readouterr().err
        assert f"argument {flag}: invalid" in error and repr(value) in error
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv,alphabet",
        [
            (["--alphabet", "0,1,2", "--seed", "007"], [0, 1, 2]),
            (["--alphabet=-1,0", "--seed", "7"], [-1, 0]),
        ],
    )
    def test_cli_ascii_integers_build_what_run_builds(self, tmp_path, argv, alphabet):
        cli = tmp_path / "cli"
        cli.mkdir()
        args = ["build-supp", "--n", "3", "--k", "2", "--threads", "2", *argv]
        paths = ["--out", str(cli / "rep.json"), "--report", str(cli / "r.report.json")]
        assert main(args + paths) == 0
        params = {"n": 3, "k": 2, "alphabet": alphabet}
        config = make_config(
            tmp_path, "r", seed=7, threads=2, out=str(tmp_path / "rep.json"), params=params
        )
        assert run("build-supp", config).certified
        for name in ("rep.json", "r.report.json"):
            docs = [json.loads((d / name).read_text()) for d in (cli, tmp_path)]
            for doc in docs:
                doc.pop("timing", None)
            assert docs[0] == docs[1]

    @pytest.mark.parametrize(
        "argv,doc,flag",
        [
            (["verify-supp"], weights_supp_doc(3), "--report"),
            (["lower-bound"], weights_supp_doc(3), "--csv"),
            (["verify-sign"], equality_sign_doc(3), "--report"),
            (["rp-verify"], neq_problem_doc(), "--csv"),
            (["compose", "--spec"], neq_spec_doc(), "--out"),
        ],
        ids=["verify-supp", "lower-bound", "verify-sign", "rp-verify", "compose"],
    )
    def test_cli_output_naming_the_input_refused_before_work(
        self, tmp_path, argv, doc, flag
    ):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(doc))
        before = path.read_bytes()
        out = f"{tmp_path}/./input.json"
        with pytest.raises(SystemExit) as exc:
            main([*argv, str(path), flag, out])
        assert str(exc.value) == (
            f"{argv[0]}: cannot write {out}: the input {path} names the same file"
        )
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize(
        "first,second", [("--out", "--report"), ("--out", "--csv"), ("--report", "--csv")]
    )
    def test_cli_two_outputs_naming_one_file_refused_before_work(
        self, tmp_path, monkeypatch, first, second
    ):
        def never(*args, **kwargs):
            raise AssertionError("construction started")

        monkeypatch.setattr("hamrank.harness.build_hd_supp", never)
        paths = {f: str(tmp_path / f"out{f}") for f in ("--out", "--report", "--csv")}
        paths[first] = str(tmp_path / "same.json")
        paths[second] = f"{tmp_path}/./same.json"
        args = ["build-supp", "--n", "3", "--k", "1"]
        with pytest.raises(SystemExit) as exc:
            main(args + [arg for item in paths.items() for arg in item])
        assert str(exc.value) == (
            f"build-supp: cannot write {paths[second]}: {paths[first]} names the same file"
        )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag", ["--out", "--report", "--csv"])
    def test_cli_output_in_missing_directory_refused_before_work(
        self, tmp_path, monkeypatch, flag
    ):
        def never(*args, **kwargs):
            raise AssertionError("construction started")

        monkeypatch.setattr("hamrank.harness.build_hd_supp", never)
        paths = {f: str(tmp_path / f"out{f}") for f in ("--out", "--report", "--csv")}
        paths[flag] = str(tmp_path / "missing" / "x")
        args = ["build-supp", "--n", "3", "--k", "1"]
        with pytest.raises(SystemExit) as exc:
            main(args + [arg for item in paths.items() for arg in item])
        missing = tmp_path / "missing"
        assert str(exc.value) == (
            f"build-supp: cannot write {paths[flag]}: no directory {missing}"
        )
        assert list(tmp_path.iterdir()) == []

    def test_cli_build_sign_over_the_dimension_budget_builds_nothing(
        self, tmp_path, monkeypatch
    ):
        from hamrank.signcompile import hd_sign_dim

        def never(*args):
            raise AssertionError("proved or built past the dimension budget")

        monkeypatch.setattr("hamrank.signcompile.prove_det_sum", never)
        monkeypatch.setattr("hamrank.signcompile.build_hd_supp", never)
        args = ["build-sign", "--n", "7", "--k", "6", "--out", str(tmp_path / "s.json")]
        assert self.failed_report(tmp_path, args) == (
            "BudgetExceededError: sign dimension 12632401 exceeds the budget 1048576"
        )
        assert not (tmp_path / "s.json").exists()
        # k = 5 stays under the default HAMRANK_MAX_DIM
        assert hd_sign_dim(6, 5) == 917281 <= 1 << 20

    @pytest.mark.parametrize(
        "mode", [[], ["--mode", "sample:10"]], ids=["exhaustive", "sample"]
    )
    def test_cli_verify_sign_over_the_dimension_budget_proves_nothing(
        self, tmp_path, monkeypatch, mode
    ):
        from hamrank.signcompile import sign_from_json

        def never(*args):
            raise AssertionError("proved past the dimension budget")

        doc = equality_sign_doc(3)
        dim = sign_from_json(doc).dim
        monkeypatch.setenv("HAMRANK_MAX_DIM", str(dim - 1))
        monkeypatch.setattr("hamrank.signcompile.prove_det_sum", never)
        rep = tmp_path / "rep.json"
        rep.write_text(json.dumps(doc))
        assert self.failed_report(tmp_path, ["verify-sign", str(rep), *mode]) == (
            f"BudgetExceededError: sign dimension {dim} exceeds the budget {dim - 1}"
        )

    @pytest.mark.parametrize(
        "n,k,dim",
        [
            (12, 12, "2704156"),
            (9000, 8000, "C(16000, 8000)"),
            (10**9, 10**9, "C(2000000000, 1000000000)"),
        ],
    )
    def test_cli_build_supp_over_the_dimension_budget_fits_nothing(
        self, tmp_path, monkeypatch, n, k, dim
    ):
        # a k past the budget's 21 bits is refused unexpanded: C(16000, 8000)
        # has 4,815 digits, past the 4,300 an int converts to text, and
        # C(2 * 10^9, 10^9) would take hours to expand
        def never(*args, **kwargs):
            raise AssertionError("fitted past the dimension budget")

        monkeypatch.setattr("hamrank.harness.build_hd_supp", never)
        out = tmp_path / "r.json"
        args = ["build-supp", "--n", str(n), "--k", str(k), "--out", str(out)]
        assert self.failed_report(tmp_path, args) == (
            f"BudgetExceededError: support dimension {dim} exceeds the budget 1048576"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "command",
        [["verify-supp"], ["verify-supp", "--mode", "sample:10"], ["lower-bound"]],
        ids=["exhaustive", "sample", "lower-bound"],
    )
    def test_cli_supp_over_the_dimension_budget_embeds_nothing(
        self, tmp_path, monkeypatch, command
    ):
        rep = tmp_path / "rep.json"
        args = ["build-supp", "--n", "6", "--k", "3", "--seed", "3", "--out", str(rep)]
        assert main(args) == 0

        def never(*args):
            raise AssertionError("embedded past the dimension budget")

        monkeypatch.setenv("HAMRANK_MAX_DIM", "5")
        monkeypatch.setattr("hamrank.hamming.minor_embed", never)
        monkeypatch.setattr("hamrank.hamming.pack_residues", never)
        assert self.failed_report(tmp_path, [command[0], str(rep), *command[1:]]) == (
            "BudgetExceededError: support dimension 20 exceeds the budget 5"
        )

    def test_cli_lower_bound_over_the_pair_budget_checks_no_row(
        self, tmp_path, monkeypatch
    ):
        rep = tmp_path / "rep.json"
        args = ["build-supp", "--n", "6", "--k", "3", "--seed", "3", "--out", str(rep)]
        assert main(args) == 0

        def never(*args):
            raise AssertionError("built the identity past the pair budget")

        monkeypatch.setenv("HAMRANK_MAX_PAIRS", "63")
        monkeypatch.setattr("hamrank.hamming.pairwise", never)
        monkeypatch.setattr("hamrank.hamming.minor_embed", never)
        assert self.failed_report(tmp_path, ["lower-bound", str(rep)]) == (
            "BudgetExceededError: 64 pairs exceed the exhaustive budget of 63"
        )
        monkeypatch.undo()
        monkeypatch.setenv("HAMRANK_MAX_PAIRS", "64")
        assert main(["lower-bound", str(rep)]) == 0

    def test_cli_build_sign_bad_k_reports_failure(self, tmp_path):
        args = ["build-sign", "--n", "3", "--k", "3", "--out", str(tmp_path / "s.json")]
        assert self.failed_report(tmp_path, args).startswith("InputError:")

    def test_cli_rp_verify_without_spec_reports_failure(self, tmp_path):
        from hamrank.exact import Mat
        from hamrank.rankprob import problem_to_json, symmetric_problem

        inner = symmetric_problem(2, lambda x: Mat(1, 1, (x,)), (0, 1), name="neq")
        rp = tmp_path / "rp.json"
        rp.write_text(json.dumps(problem_to_json(inner)))
        error = self.failed_report(tmp_path, ["rp-verify", str(rp)])
        assert error.startswith("InputError:")

    def test_cli_rp_verify_refuses_a_shrunk_problem(self, tmp_path):
        from hamrank.exact import Mat
        from hamrank.rankprob import CompositionSpec, spec_to_json, symmetric_problem

        inner = symmetric_problem(2, lambda x: Mat(1, 1, (x,)), (0, 1), name="neq")
        spec = CompositionSpec(r=1, h=(0, 1), inners=(inner,) * 3)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec_to_json(spec)))
        rp = tmp_path / "rp.json"
        assert main(["compose", "--spec", str(spec_path), "--out", str(rp)]) == 0
        doc = json.loads(rp.read_text())
        rp.write_text(json.dumps({**doc, "a": doc["a"][:4], "index_count": 4}))
        error = self.failed_report(tmp_path, ["rp-verify", str(rp)])
        assert error == (
            "InputError: rank problem has 4 indices, its composition spec 8"
        )

    def test_cli_compose_over_the_pair_budget_fits_nothing(
        self, tmp_path, monkeypatch
    ):
        from .test_report_bytes import compose_spec

        def never(*args):
            raise AssertionError("fitted a compressor over the budget")

        monkeypatch.setenv("HAMRANK_MAX_PAIRS", "100")
        monkeypatch.setattr("hamrank.rankprob.fit_compressor", never)
        spec, rp = tmp_path / "spec.json", tmp_path / "rp.json"
        compose_spec(str(spec), r=2, h=(0, 0, 1), coordinates=6)
        argv = ["compose", "--spec", str(spec), "--out", str(rp)]
        assert self.failed_report(tmp_path, argv) == (
            "BudgetExceededError: 4096 pairs exceed the exhaustive budget of 100"
        )
        assert not rp.exists()

    def test_cli_rp_verify_over_the_pair_budget_gives_no_sample_advice(
        self, tmp_path, monkeypatch
    ):
        from .test_report_bytes import compose_spec

        spec, rp = tmp_path / "spec.json", tmp_path / "rp.json"
        compose_spec(str(spec), coordinates=3)
        assert main(["compose", "--spec", str(spec), "--out", str(rp)]) == 0
        monkeypatch.setenv("HAMRANK_MAX_PAIRS", "63")
        assert self.failed_report(tmp_path, ["rp-verify", str(rp)]) == (
            "BudgetExceededError: 64 pairs exceed the exhaustive budget of 63"
        )

    def test_cli_rp_verify_finds_the_recorded_spec_from_another_directory(
        self, tmp_path, monkeypatch
    ):
        from .test_report_bytes import compose_spec

        (tmp_path / "specs").mkdir()
        (tmp_path / "out").mkdir()
        monkeypatch.chdir(tmp_path)
        compose_spec("specs/s.json")
        assert main(["compose", "--spec", "specs/s.json", "--out", "out/rp.json"]) == 0
        doc = json.loads((tmp_path / "out" / "rp.json").read_text())
        assert doc["provenance"] == {"composition_spec": "../specs/s.json"}
        assert main(["rp-verify", "out/rp.json"]) == 0
        monkeypatch.chdir(tmp_path / "out")
        assert main(["rp-verify", "rp.json"]) == 0
        assert main(["rp-verify", "rp.json", "--spec", "../specs/s.json"]) == 0
        error = self.failed_report(tmp_path, ["rp-verify", "rp.json", "--spec", "s.json"])
        assert error.startswith("InputError: cannot load s.json: FileNotFoundError")

    @pytest.mark.parametrize(
        "provenance,detail",
        [
            ("s.json", "provenance 's.json' is not an object"),
            (["s.json"], "provenance ['s.json'] is not an object"),
            ({"composition_spec": 3}, "provenance.composition_spec 3 is not a string"),
            (
                {"composition_spec": ["s.json"]},
                "provenance.composition_spec ['s.json'] is not a string",
            ),
        ],
    )
    def test_cli_rp_verify_names_a_malformed_recorded_spec(
        self, tmp_path, monkeypatch, provenance, detail
    ):
        from .test_report_bytes import compose_spec

        monkeypatch.chdir(tmp_path)
        compose_spec("s.json")
        assert main(["compose", "--spec", "s.json", "--out", "rp.json"]) == 0
        doc = json.loads((tmp_path / "rp.json").read_text())
        (tmp_path / "rp.json").write_text(json.dumps({**doc, "provenance": provenance}))
        error = self.failed_report(tmp_path, ["rp-verify", "rp.json"])
        assert error == f"InputError: cannot load rp.json: InputError: {detail}"
        # a --spec override does not read the recorded one, but the loader
        # still refuses the malformed field
        error = self.failed_report(tmp_path, ["rp-verify", "rp.json", "--spec", "s.json"])
        assert error == f"InputError: cannot load rp.json: InputError: {detail}"

    @pytest.mark.parametrize("entry", ["inner.json", ["inner.json"], 3, None])
    def test_spec_files_names_an_inner_that_is_not_an_object(self, tmp_path, entry):
        from hamrank.errors import InputError
        from hamrank.harness import _spec_files

        doc = {"inners": [{"file": "a.json"}, entry]}
        with pytest.raises(InputError, match=r"^inners\[1\] .* is not an object$"):
            _spec_files(str(tmp_path / "s.json"), doc)
        assert _spec_files(str(tmp_path / "s.json"), {"inners": [{"file": "a.json"}]}) == [
            str(tmp_path / "a.json")
        ]

    @pytest.mark.parametrize("flag", ["--report", "--csv"])
    def test_cli_rp_verify_never_writes_over_the_recorded_spec(
        self, tmp_path, monkeypatch, flag
    ):
        from .test_report_bytes import compose_spec

        monkeypatch.chdir(tmp_path)
        compose_spec("s.json")
        assert main(["compose", "--spec", "s.json", "--out", "rp.json"]) == 0
        before = (tmp_path / "s.json").read_bytes()
        for rp in ("rp.json", "broken.rp.json"):  # one certifies, one fails
            if rp == "broken.rp.json":
                doc = json.loads((tmp_path / "rp.json").read_text())
                (tmp_path / rp).write_text(json.dumps({**doc, "index_count": 3}))
            with pytest.raises(SystemExit) as exc:
                main(["rp-verify", rp, flag, "./s.json"])
            assert str(exc.value) == (
                "rp-verify: cannot write ./s.json: the input s.json names the same file"
            )
            assert (tmp_path / "s.json").read_bytes() == before
        names = sorted(path.name for path in tmp_path.iterdir())
        assert names == ["broken.rp.json", "rp.json", "s.json"]

    def write_file_spec(self, folder):
        """A spec in ``folder`` whose two inners reference specs/inner.json."""
        (folder / "specs").mkdir()
        (folder / "specs" / "inner.json").write_text(json.dumps(neq_problem_doc()))
        spec = folder / "specs" / "s.json"
        inners = [{"file": "inner.json"}] * 2
        spec.write_text(json.dumps(neq_spec_doc(inners=inners)))
        return spec, folder / "specs" / "inner.json"

    @pytest.mark.parametrize("flag", ["--out", "--report", "--csv"])
    def test_cli_compose_never_writes_over_an_inner_file(
        self, tmp_path, monkeypatch, flag
    ):
        def never(*args, **kwargs):
            raise AssertionError("composition started")

        monkeypatch.setattr("hamrank.harness.distance_r_compose", never)
        spec, inner = self.write_file_spec(tmp_path)
        before = inner.read_bytes()
        out = f"{tmp_path}/specs/./inner.json"
        with pytest.raises(SystemExit) as exc:
            main(["compose", "--spec", str(spec), flag, out])
        assert str(exc.value) == (
            f"compose: cannot write {out}: the input {inner} names the same file"
        )
        assert inner.read_bytes() == before

    @pytest.mark.parametrize("given", [False, True], ids=["recorded", "--spec"])
    def test_cli_rp_verify_never_writes_over_an_inner_file(self, tmp_path, given):
        spec, inner = self.write_file_spec(tmp_path)
        rp = tmp_path / "rp.json"
        assert main(["compose", "--spec", str(spec), "--out", str(rp)]) == 0
        before = inner.read_bytes()
        argv = ["rp-verify", str(rp), *(["--spec", str(spec)] if given else [])]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--report", str(inner)])
        assert str(exc.value) == (
            f"rp-verify: cannot write {inner}: the input {inner} names the same file"
        )
        assert inner.read_bytes() == before

    def test_cli_bad_inner_file_is_named_in_the_load_error(self, tmp_path):
        spec, inner = self.write_file_spec(tmp_path)
        inner.write_text(json.dumps({"schema": "hamrank-report/1"}))
        error = self.failed_report(tmp_path, ["compose", "--spec", str(spec)])
        assert error == (
            f"InputError: cannot load {spec}: InputError: cannot load {inner}: "
            "ValueError: not a rank-problem document: 'hamrank-report/1'"
        )

    @pytest.mark.parametrize(
        "command,text",
        [
            ("verify-supp", None),
            ("verify-supp", json.dumps(truncated_supp_doc(3))),
            ("lower-bound", "not json"),
            ("verify-sign", json.dumps(weights_supp_doc(3))),
            ("rp-verify", json.dumps(weights_supp_doc(3))),
            ("verify-supp", json.dumps({**weights_supp_doc(3), "n": "3"})),
            ("lower-bound", json.dumps({**weights_supp_doc(3), "n": "3"})),
            ("verify-supp", json.dumps({**weights_supp_doc(3), "n": -1})),
            ("lower-bound", json.dumps({**weights_supp_doc(3), "n": -1})),
            ("verify-supp", json.dumps({**weights_supp_doc(3), "k": 0})),
            ("verify-supp", json.dumps({**weights_supp_doc(3), "k": 9})),
            ("verify-sign", json.dumps({**equality_sign_doc(3), "meta": {"n": "3"}})),
            ("verify-sign", json.dumps({**equality_sign_doc(3), "meta": {"n": 3}})),
            ("verify-supp", json.dumps({**weights_supp_doc(3), "alphabet": []})),
            ("verify-supp", json.dumps({**weights_supp_doc(3), "alphabet": ["0", "0"]})),
            ("verify-supp", json.dumps(float_rows_supp_doc(3))),
            ("verify-supp", json.dumps(shaped_supp_doc(3, [3.0, 3.0], [1.0, 1.0]))),
            ("verify-supp", json.dumps(shaped_supp_doc(3, [4, 4], [1, 1]))),
            ("rp-verify", json.dumps(neq_problem_doc(index_count=3))),
            ("rp-verify", json.dumps(neq_problem_doc(a=neq_problem_doc()["a"][:1]))),
            (
                "rp-verify",
                json.dumps(neq_problem_doc(symmetric=False, b=neq_problem_doc()["a"])),
            ),
            ("rp-verify", json.dumps(neq_problem_doc(b=neq_problem_doc()["a"]))),
            ("rp-verify", json.dumps(neq_problem_doc(order=2))),
            (
                "rp-verify",
                json.dumps(
                    neq_problem_doc(a=[neq_problem_doc()["a"][0], identity_json(2)])
                ),
            ),
            ("rp-verify", json.dumps(neq_problem_doc(g=[False, True]))),
            # each of these reads, under int(), as a document that certifies
            ("verify-supp", json.dumps(supp_with(["alphabet"], [0.9, 1]))),
            ("verify-supp", json.dumps(supp_with(["alphabet"], [False, True]))),
            ("verify-supp", json.dumps(supp_with(["alphabet"], ["+0", "1"]))),
            ("verify-supp", json.dumps(supp_with(["alphabet"], "01"))),
            ("verify-sign", json.dumps(sign_with(["gamma"], 2.9))),
            ("verify-sign", json.dumps(sign_with(["gamma"], True))),
            ("verify-sign", json.dumps(sign_with(["gamma"], " 2"))),
            ("verify-sign", json.dumps(sign_with(["rep1", "sign"], True))),
            ("verify-sign", json.dumps(sign_with(["rep1", "sign"], 1.0))),
            ("verify-sign", json.dumps(doc_with(equality_sign_doc(3), ["meta", "n"], 4))),
            (
                "verify-sign",
                json.dumps(
                    doc_with(
                        hd_sign_doc(3, 1), ["tree", "rep1", "oracle", "alphabet"], ["0", "2"]
                    )
                ),
            ),
            ("verify-sign", json.dumps(sign_with(["type"], "banana"))),
        ],
        ids=[
            "missing", "truncated-supp", "not-json", "sign-schema", "rp-schema",
            "supp-n-string", "lower-bound-n-string", "supp-n-negative",
            "lower-bound-n-negative", "supp-k-zero", "supp-k-nine",
            "sign-meta-n-string", "sign-meta-no-k", "supp-alphabet-empty",
            "supp-alphabet-repeated", "supp-float-rows", "supp-float-shapes",
            "supp-shape-mismatch", "rp-index-count-over", "rp-a-short",
            "rp-asymmetric", "rp-b-table", "rp-order-two", "rp-mixed-shapes",
            "rp-g-booleans", "supp-alphabet-float", "supp-alphabet-bools",
            "supp-alphabet-plus", "supp-alphabet-string", "sign-gamma-float",
            "sign-gamma-bool", "sign-gamma-space", "sign-const-bool",
            "sign-const-float", "sign-meta-n-over-oracle", "sign-inner-alphabet",
            "sign-type-unknown",
        ],
    )
    def test_cli_bad_input_file_reports_failure(self, tmp_path, command, text):
        path = tmp_path / "input.json"
        if text is not None:
            path.write_text(text)
        error = self.failed_report(tmp_path, [command, str(path)])
        assert error.startswith(f"InputError: cannot load {path}: ")

    def test_cli_verify_supp_refuses_a_non_square_target(self, tmp_path):
        doc = weights_supp_doc(3)
        doc["compressor"]["right"] = {"rows": 2, "cols": 3, "entries": ["1"] * 6}
        doc["compressor"]["target_shape"] = [1, 2]
        path = tmp_path / "input.json"
        path.write_text(json.dumps(doc))
        error = self.failed_report(tmp_path, ["verify-supp", str(path)])
        assert error == (
            f"InputError: cannot load {path}: InputError: factor shapes (1, 3) "
            "and (2, 3) do not give a square target"
        )

    def test_cli_constant_sign_tree_reports_failure(self, tmp_path):
        # a lone constant leaf names no oracle, so no alphabet to verify over
        path = tmp_path / "const.json"
        tree = {"type": "const", "sign": 1}
        doc = {"schema": "hamrank-sign/1", "tree": tree, "meta": {"n": 2, "k": 1}}
        path.write_text(json.dumps(doc))
        error = self.failed_report(tmp_path, ["verify-sign", str(path)])
        assert error == (
            f"InputError: cannot load {path}: InputError: sign document has no "
            "oracle to take the alphabet from"
        )

    @pytest.mark.parametrize(
        "entry", NON_INTEGERS + [None], ids=NON_INTEGER_IDS + ["string"]
    )
    @pytest.mark.parametrize(
        "command,doc,matrix",
        MATRIX_SITES,
        ids=["supp-factor", "rp-table", "sign-oracle"],
    )
    def test_cli_matrix_entries_must_be_integers(
        self, tmp_path, command, doc, matrix, entry
    ):
        # None: the entries as one string, which int() would read digit by digit
        entries = [*matrix, "entries"]
        if entry is None:
            doc = doc_with(doc, entries, "".join(doc_at(doc, entries)))
        else:
            doc = doc_with(doc, [*entries, 0], entry)
        path = tmp_path / "input.json"
        path.write_text(json.dumps(doc))
        error = self.failed_report(tmp_path, [command, str(path)])
        assert error.startswith(f"InputError: cannot load {path}: ")

    @pytest.mark.parametrize(
        "command,doc",
        [
            ("verify-supp", supp_with(["alphabet"], [0, 1])),
            ("verify-supp", supp_with(["compressor", "left", "entries"], [1, 2, 4])),
            ("verify-sign", sign_with(["gamma"], 2)),
            ("verify-sign", sign_with(["rep1", "sign"], "1")),
        ],
        ids=["alphabet-ints", "entries-ints", "gamma-int", "sign-string"],
    )
    def test_cli_document_integers_may_be_ints_or_decimal_strings(
        self, tmp_path, command, doc
    ):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(doc))
        assert main([command, str(path)]) == 0

    @pytest.mark.parametrize(
        "r,h",
        [(-1, []), (1.0, [0, 1]), (1, [0, 2]), (1, ["0", "1"]), (1, [0])],
        ids=["r-negative", "r-float", "h-two", "h-strings", "h-short"],
    )
    def test_cli_compose_bad_r_reports_failure(self, tmp_path, r, h):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(neq_spec_doc(r=r, h=h)))
        error = self.failed_report(tmp_path, ["compose", "--spec", str(path)])
        assert error.startswith(f"InputError: cannot load {path}: ")

    @pytest.mark.parametrize(
        "inners,error",
        [
            ([], "InputError: need at least one coordinate"),
            (
                [neq_problem_doc(), neq_problem_doc(g=[0, 1, 1], order=2)],
                "InputError: all inners must share one order",
            ),
            (
                [neq_problem_doc(), neq_problem_doc(g=[1, 0])],
                "InputError: distance-r composition needs a family",
            ),
            (
                [neq_problem_doc(g=[1, 0], a=[neq_problem_doc()["a"][0]] * 2)] * 2,
                "InputError: inner 0 is not injective and has g(0) = 1",
            ),
            (
                [neq_problem_doc(a=[], index_count=0)] * 2,
                "InputError: cannot load {path}: InputError: every inner needs",
            ),
        ],
        ids=["no-inners", "mixed-order", "mixed-g", "not-injective", "empty-inner"],
    )
    def test_cli_compose_bad_inners_reports_failure(self, tmp_path, inners, error):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(neq_spec_doc(inners=[{"problem": p} for p in inners])))
        got = self.failed_report(tmp_path, ["compose", "--spec", str(path)])
        assert got.startswith(error.format(path=path))

    @pytest.mark.parametrize(
        "path,value",
        [
            (["compressor", "retries"], "abc"),
            (["compressor", "entry_range"], [1]),
            (["compressor", "seed"], 1.5),
            (["compressor", "verified"], "no"),
            (["compressor", "method"], 7),
            (["compressor", "retries"], -5),
            (["compressor", "entry_range"], -1),
            (["compressor", "method"], "banana"),
            (["seed"], True),
            (["predicate"], 5),
            (["predicate"], "HD>=7 (banana)"),
            (["dim"], 3),
            (["compressor", "retries"], DROP),
            (["compressor", "entry_range"], DROP),
            (["compressor", "method"], DROP),
        ],
        ids=[
            "retries-string", "entry-range-list", "compressor-seed-float",
            "verified-string", "method-int", "retries-negative",
            "entry-range-negative", "method-unknown", "seed-bool", "predicate-int",
            "predicate-wrong",
            "dim-wrong", "no-retries", "no-entry-range", "no-method",
        ],
    )
    def test_cli_supp_metadata_is_read_strictly(self, tmp_path, path, value):
        file = tmp_path / "input.json"
        file.write_text(json.dumps(supp_with(path, value)))
        error = self.failed_report(tmp_path, ["verify-supp", str(file)])
        assert error.startswith(f"InputError: cannot load {file}: ")

    @pytest.mark.parametrize(
        "argv",
        [["verify-supp"], ["verify-sign"], ["lower-bound"], ["rp-verify"],
         ["compose", "--spec"]],
        ids=["verify-supp", "verify-sign", "lower-bound", "rp-verify", "compose"],
    )
    def test_cli_deeply_nested_json_reports_failure(self, tmp_path, argv):
        file = tmp_path / "deep.json"
        file.write_text("[" * 100000 + "]" * 100000)
        error = self.failed_report(tmp_path, [*argv, str(file)])
        assert error.startswith(f"InputError: cannot load {file}: RecursionError: ")

    def test_cli_sign_chain_as_deep_as_json_reads_verifies(self, tmp_path):
        from hamrank.hamming import build_hd_supp

        def headroom():
            try:
                return 1 + headroom()
            except RecursionError:
                return 0

        def verify(depth, mode):
            """The verify-sign report on a chain of ``depth`` combine nodes
            over one dist >= 2 oracle on words of length 2, value -1 + 2 s^2
            per node, so sign +1 iff dist == 2; json.dumps itself recurses,
            so the document is built as a string."""
            node = (
                '{"type": "combine", "gamma": "2", "oracle": ' + oracle
                + ', "rep0": {"type": "const", "sign": 1}, "rep1": '
            )
            tree = node * depth + '{"type": "const", "sign": -1}' + "}" * depth
            file.write_text(
                '{"schema": "hamrank-sign/1", "meta": {"n": 2, "k": 2}, "tree": '
                + tree + "}"
            )
            main(["verify-sign", str(file), "--mode", mode, "--report", str(report)])
            return json.loads(report.read_text())

        # the deepest chain that json decodes: reading and evaluating the
        # form recurse no further, so it verifies like any other document,
        # in both modes, and one node more fails only in json.  The first
        # assert fails if a frame more in loading takes this depth from
        # json, the last if a frame less gives it one more.
        depth = headroom() - 14
        oracle = json.dumps(build_hd_supp(2, 2).to_json())
        file, report = tmp_path / "chain.json", tmp_path / "chain.report.json"
        for mode in ("exhaustive", "sample:5"):
            doc = verify(depth, mode)
            assert (doc["status"], doc["error"]) == ("certified", None)
            assert doc["construction"]["dim"] == 1 + depth * 6**2
        doc = verify(depth + 1, "exhaustive")
        assert doc["schema"] == "hamrank-report/1" and doc["status"] == "failed"
        error = f"InputError: cannot load {file}: RecursionError: "
        assert doc["error"].startswith(error)

    def test_cli_threads_are_recorded_and_change_nothing_else(self, tmp_path):
        rep = tmp_path / "rep.json"
        main(["build-supp", "--n", "4", "--k", "2", "--seed", "3", "--out", str(rep)])

        def report(name, *extra):
            path = tmp_path / f"{name}.report.json"
            assert main(["verify-supp", str(rep), *extra, "--report", str(path)]) == 0
            doc = json.loads(path.read_text())
            del doc["timing"]
            return doc

        lone = report("lone")
        flag = report("flag", "--threads", "2")
        assert (lone["config"]["threads"], flag["config"]["threads"]) == (1, 2)
        flag["config"]["threads"] = 1
        assert flag == lone
