import csv
import itertools
import json
import time

import pytest

from hamrank.cli import main
from hamrank.harness import CSV_COLUMNS, RunConfig, run
from hamrank.seeds import seed_stream


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

    def test_bench_writes_csv(self, tmp_path):
        config = make_config(
            tmp_path,
            "bench",
            out=str(tmp_path / "measurements.csv"),
            params={"suite": "hd-supp"},
        )
        report = run("bench", config)
        assert report.certified
        with open(tmp_path / "measurements.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["n", "k", "dim", "pairs", "millis", "pairs_per_sec"]
        assert len(rows) == 5


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

        inner = symmetric_problem(2, lambda x: Mat(1, 1, (x,)), (0, 1), 1, name="neq")
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

    def test_spec_file_references(self, tmp_path):
        from hamrank.exact import Mat
        from hamrank.rankprob import problem_to_json, symmetric_problem

        inner = symmetric_problem(2, lambda x: Mat(1, 1, (x,)), (0, 1), 1, name="neq")
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


class TestCli:
    def test_console_script_subprocess(self, tmp_path):
        import subprocess
        import sys

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
        for mode in ("half", "sample", "sample:0", "sample:-3", "sample:x"):
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
        rep = tmp_path / "rep.json"
        rep.write_text(json.dumps(doc))
        report = tmp_path / "v.report.json"
        argv = [command, str(rep), "--mode", "sample:200", "--report", str(report)]
        assert main(argv) == 0
        verification = json.loads(report.read_text())["verification"]
        assert verification["pairs_checked"] == 200
        assert verification["violation_count"] == 0

    def test_cli_build_sign_bad_k_reports_failure(self, tmp_path):
        args = ["build-sign", "--n", "3", "--k", "3", "--out", str(tmp_path / "s.json")]
        assert self.failed_report(tmp_path, args).startswith("InputError:")

    def test_cli_rp_verify_without_spec_reports_failure(self, tmp_path):
        from hamrank.exact import Mat
        from hamrank.rankprob import problem_to_json, symmetric_problem

        inner = symmetric_problem(2, lambda x: Mat(1, 1, (x,)), (0, 1), 1, name="neq")
        rp = tmp_path / "rp.json"
        rp.write_text(json.dumps(problem_to_json(inner)))
        error = self.failed_report(tmp_path, ["rp-verify", str(rp)])
        assert error.startswith("InputError:")
