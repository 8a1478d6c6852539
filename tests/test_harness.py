import csv
import itertools
import json
import threading
import time
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hamrank.cli import main
from hamrank.harness import CSV_COLUMNS, RunConfig, run
from hamrank.seeds import seed_stream
from hamrank.veronese import minor_embed


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
            verify_mode="sample",
            sample_count=5000,
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
            assert type(rep.gamma) is int
            word = (rep.oracle.alphabet[0],) * rep.oracle.n
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
        modes = ("half", "sample", "sample:0", "sample:-3", "sample:x", "sample:\u00b2",
                 "sample:\u0663")
        for mode in modes:
            with pytest.raises(SystemExit):
                main(["verify-supp", str(out), "--mode", mode])
            with pytest.raises(SystemExit):
                main(["verify-sign", str(out), "--mode", mode])

    def test_cli_lower_bound_on_ternary_rep_reports_failure(self, tmp_path):
        out = tmp_path / "rep.json"
        report = tmp_path / "lb.report.json"
        args = ["build-supp", "--n", "3", "--k", "2", "--alphabet", "0,1,2", "--out"]
        main(args + [str(out)])
        assert main(["lower-bound", str(out), "--report", str(report)]) == 1
        doc = json.loads(report.read_text())
        assert doc["status"] == "failed"
        assert doc["error"].startswith("InputError:")

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
        args = ["build-sign", "--n", "13", "--k", "1", "--out", str(tmp_path / "s.json")]
        start = time.perf_counter()
        error = self.failed_report(tmp_path, args)
        assert time.perf_counter() - start < 1.0
        assert error.startswith("BudgetExceededError: 67108864 pairs exceed")

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

        def counting(m, side):
            embedded[side] += 1
            return minor_embed(m, side)

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

    @pytest.mark.parametrize(
        "name",
        ["HAMRANK_MAX_PAIRS", "HAMRANK_MAX_DIM", "HAMRANK_THREADS", "HAMRANK_MAX_BITS"],
    )
    def test_cli_bad_environment_value_exits_cleanly(self, tmp_path, monkeypatch, name):
        monkeypatch.setenv(name, "abc")
        args = ["build-supp", "--n", "3", "--k", "1", "--out", str(tmp_path / "r.json")]
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert str(exc.value) == f"bad {name}='abc': expected an integer"

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
        ],
    )
    def test_cli_bad_input_file_reports_failure(self, tmp_path, command, text):
        path = tmp_path / "input.json"
        if text is not None:
            path.write_text(text)
        error = self.failed_report(tmp_path, [command, str(path)])
        assert error.startswith(f"InputError: cannot load {path}: ")

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

    def test_cli_sign_tree_too_deep_to_evaluate_reports_failure(self, tmp_path):
        from hamrank.hamming import build_hd_supp

        def headroom():
            try:
                return 1 + headroom()
            except RecursionError:
                return 0

        # a chain that loads but overflows the stack in eval_value: 980
        # combine nodes from the top of a fresh interpreter.  json.dumps
        # itself recurses, so the document is built as a string.
        depth = headroom() - 16
        oracle = json.dumps(build_hd_supp(2, 1).to_json())
        node = (
            '{"type": "combine", "gamma": "1", "oracle": ' + oracle
            + ', "rep0": {"type": "const", "sign": 1}, "rep1": '
        )
        tree = node * depth + '{"type": "const", "sign": 1}' + "}" * depth
        file = tmp_path / "chain.json"
        file.write_text(
            '{"schema": "hamrank-sign/1", "meta": {"n": 2, "k": 1}, "tree": '
            + tree + "}"
        )
        error = self.failed_report(tmp_path, ["verify-sign", str(file)])
        assert error.startswith("RecursionError: ")

    def test_cli_threads_are_recorded_and_change_nothing_else(
        self, tmp_path, monkeypatch
    ):
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
        monkeypatch.setenv("HAMRANK_THREADS", "2")
        env = report("env")
        assert (lone["config"]["threads"], flag["config"]["threads"]) == (1, 2)
        assert env["config"]["threads"] == 2
        for doc in (flag, env):
            doc["config"]["threads"] = 1
            assert doc == lone
