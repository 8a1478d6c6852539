"""Tests for the benchmark's own code: statistics, self time and the tracer.

Run from the root of a hamrank checkout:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import hamrank  # noqa: E402
import hamrank.cli  # noqa: E402,F401
from hamrank import compression, exact, hamming, rankprob  # noqa: E402

import measure  # noqa: E402
import run  # noqa: E402


# -------------------------------------------------------------------
# median and tail percentile
# -------------------------------------------------------------------


def test_tail_percentile_needs_more_than_ten_samples():
    assert measure.tail_percentile(list(range(10))) is None
    assert measure.tail_percentile([]) is None


@pytest.mark.parametrize(
    "n, p, value",
    [(11, 9, 1), (20, 50, 10), (100, 90, 90), (105, 90, 95), (1000, 99, 990)],
)
def test_tail_percentile_leaves_ten_samples_beyond(n, p, value):
    values = list(range(n, 0, -1))  # unsorted input
    got = measure.tail_percentile(values)
    assert got == (p, value)
    assert sum(1 for v in values if v > got[1]) >= 10


def test_summarize_reports_median_count_and_tail():
    s = measure.summarize([3.0, 1.0, 2.0])
    assert s == {"median": 2.0, "n": 3, "tail": None}
    s = measure.summarize([float(i) for i in range(1, 101)])
    assert s["median"] == 50.5 and s["tail"] == {"p": 90, "value": 90.0}


def test_calibration_scales_by_the_probes_around_a_job():
    ref = run.REFERENCE_S
    assert run.calibrate(1.5, ref, ref) == pytest.approx(1.5)
    # the machine ran at a third of the reference speed on average
    assert run.calibrate(3.0, 2 * ref, 4 * ref) == pytest.approx(1.0)


def test_part_seconds_sums_per_job_medians():
    jobs = [{"id": "b", "argv": ["build-supp"]}, {"id": "v", "argv": ["verify-supp"]}]
    passes = [
        {"times": {"b": 1.0, "v": 5.0}},
        {"times": {"b": 3.0, "v": 1.0}},
        {"times": {"b": 2.0, "v": 2.0}},
    ]
    assert run.part_seconds(passes, jobs, run.BUILD_COMMANDS) == (2.0, [1.0, 3.0, 2.0])
    total, samples = run.part_seconds(passes, jobs, run.BUILD_COMMANDS | run.VERIFY_COMMANDS)
    assert total == 4.0 and samples == [6.0, 4.0, 4.0]


# -------------------------------------------------------------------
# self time
# -------------------------------------------------------------------


def test_self_time_subtracts_children():
    spans = [
        (0, "root", 0.0, 10.0, -1),
        (1, "a", 1.0, 4.0, 0),
        (2, "a", 5.0, 7.0, 0),
        (3, "leaf", 1.5, 2.5, 1),
    ]
    st = measure.self_times(spans)
    assert st["root"] == {"calls": 1, "total_s": 10.0, "self_s": 5.0}
    assert st["a"]["calls"] == 2
    assert st["a"]["total_s"] == pytest.approx(5.0)
    assert st["a"]["self_s"] == pytest.approx(4.0)
    assert st["leaf"]["self_s"] == pytest.approx(1.0)
    total_self = sum(v["self_s"] for v in st.values())
    assert total_self == pytest.approx(10.0)


def test_self_time_takes_the_union_of_overlapping_children():
    # two worker-thread spans under one parent overlap on [3, 4]
    spans = [
        (0, "root", 0.0, 10.0, -1),
        (1, "w", 2.0, 4.0, 0),
        (2, "w", 3.0, 6.0, 0),
        (3, "w", 9.0, 12.0, 0),  # clipped to the parent's end
    ]
    st = measure.self_times(spans)
    assert st["root"]["self_s"] == pytest.approx(10.0 - 4.0 - 1.0)


# -------------------------------------------------------------------
# tracer
# -------------------------------------------------------------------


def _bindings():
    """Every attribute of every hamrank module and of the traced classes."""
    snap = {}
    for module in run.hamrank_modules():
        for attr, value in vars(module).items():
            snap[(module.__name__, attr)] = value
    for cls in (hamming.SupportRep, rankprob.RankProblem, compression.Compressor, exact.Mat):
        for attr, value in vars(cls).items():
            snap[(cls.__qualname__, attr)] = value
    return snap


def test_tracer_wraps_every_binding_and_restores_them():
    before = _bindings()
    originals = {
        "fit_compressor": (compression.fit_compressor, ["compression", "hamming", "rankprob"]),
        "rank_exact": (exact.rank_exact, ["exact", "compression", "rankprob"]),
        "minor_embed": (hamrank.veronese.minor_embed, ["veronese", "hamming", "rankprob"]),
        "eval_sign": (hamrank.signcompile.eval_sign, ["signcompile", "harness", "rankprob"]),
        "map_rows": (hamrank.parallel.map_rows, ["parallel", "hamming", "harness"]),
    }
    tracer = run.make_tracer(run.LayerCounters())
    with tracer.installed(run.hamrank_modules()):
        for name, (fn, modules) in originals.items():
            for mod in modules:
                bound = getattr(sys.modules[f"hamrank.{mod}"], name)
                assert bound is not fn, f"hamrank.{mod}.{name} not wrapped"
        for cls, meth in [
            (hamming.SupportRep, "dot"),
            (rankprob.RankProblem, "eval"),
            (compression.Compressor, "apply_diag"),
            (exact.Mat, "__post_init__"),
        ]:
            assert vars(cls)[meth] is not before[(cls.__qualname__, meth)]
        assert hamrank.cli.run is not before[("hamrank.harness", "run")]
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def test_tracer_restores_bindings_when_the_block_raises():
    before = _bindings()
    tracer = run.make_tracer(run.LayerCounters())
    with pytest.raises(RuntimeError):
        with tracer.installed(run.hamrank_modules()):
            raise RuntimeError("boom")
    after = _bindings()
    assert all(after[key] is before[key] for key in before)


def test_tracer_records_spans_counts_and_parents():
    counters = run.LayerCounters()
    tracer = run.make_tracer(counters)
    with tracer.installed(run.hamrank_modules()):
        rep = hamming.build_hd_supp(4, 2, seed=3)
        result = hamming.verify_support_rep(rep)
    assert result.certified
    spans = list(tracer.spans())
    by_id = {s[0]: s for s in spans}
    names = {s[1] for s in spans}
    assert {"build_hd_supp", "fit_compressor", "rank_exact", "verify_support_rep",
            "minor_embed", "det_exact", "map_rows"} <= names
    for sid, name, start, end, parent in spans:
        assert end >= start
        if name == "rank_exact":
            assert by_id[parent][1] == "fit_compressor"
        if name == "map_rows":
            assert by_id[parent][1] == "verify_support_rep"
    counts = tracer.counts()
    assert counts["Mat.__post_init__"] > 0 and counts["Compressor.apply_diag"] > 0
    assert counters.patterns == 3**4  # one boundary fit over the family
    assert counters.pairs == 16 * 16
    assert counters.rows == 16
    st = measure.self_times(spans)
    roots = [s for s in spans if s[4] == -1]
    assert sum(v["self_s"] for v in st.values()) == pytest.approx(
        sum(end - start for _, _, start, end, _ in roots)
    )


# -------------------------------------------------------------------
# metric declarations agree with BENCHMARK.json
# -------------------------------------------------------------------


def test_metric_names_match_the_benchmark_declaration():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == run.PER_LAYER
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END
    manifest = run.load_manifest()
    assert [w["name"] for w in declared["workloads"]] == list(manifest["workloads"])


def test_report_checks_catch_a_shrunk_domain():
    report = {
        "status": "certified",
        "construction": {"n": 10, "alphabet": ["0", "1"]},
        "verification": {"family_checked": True},
    }
    assert run.check_report(report, {"patterns": 3**10}) == []
    assert run.check_report(report, {"patterns": 3**11}) != []
    report["verification"] = {"pairs_checked": 4, "violation_count": 1}
    problems = run.check_report(report, {"verification.pairs_checked": 4})
    assert problems == ["violation_count 1"]
