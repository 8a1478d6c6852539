"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Everything here is exact integer or rational arithmetic; "tolerance" is
equality.  Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion lines.
"""

import itertools
import random
from math import comb
from pathlib import Path

import pytest

from hamrank.exact import Mat
from hamrank.compression import MatFamily, fit_compressor, verify_compressor
from hamrank.veronese import (
    det_sum_terms,
    hypercube_unit_embed,
    minor_embed,
    negated_right,
    sq_dist,
    unit_distance_vector,
)
from hamrank.hamming import build_hd_supp, identity_certificate, verify_support_rep
from hamrank.signcompile import build_hd_sign, eval_sign, eval_value, materialize
from hamrank.rankprob import (
    bool_combine,
    distance_r_compose,
    example_cc_hd,
    hd_rank_problem,
    multiset_decode,
    negate,
    problem_to_json,
    spec_to_json,
    symmetric_problem,
)
from hamrank.harness import RunConfig, run

from . import reference
from .conftest import assert_loaded_ranks_are_dense, random_mat


class _criterion:
    def __init__(self, num, desc):
        self.num = num
        self.desc = desc

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.num:02d} {status}: {self.desc}")
        return False


HEADLINE = [(1, 12), (2, 10), (3, 8)]


@pytest.fixture(scope="module")
def headline_reps():
    return {
        (k, n): build_hd_supp(n, k, seed=100 + k) for k, n in HEADLINE
    }


def test_criterion_01_support_rank_upper_bound(headline_reps):
    with _criterion(1, "support reps of threshold distance: dims 2/6/20, exhaustive"):
        for (k, n), rep in headline_reps.items():
            assert rep.dim == comb(2 * k, k) <= 4**k
            report = verify_support_rep(rep)
            assert report.pairs_checked == 4**n
            assert report.violation_count == 0, (k, n, report.violations[:3])


def test_criterion_02_lower_bound_certificate(headline_reps):
    with _criterion(2, "identity-submatrix certificates of size exactly 2^k"):
        for (k, n), rep in headline_reps.items():
            cert = identity_certificate(rep)
            assert cert.size == 2**k
            assert all(w[k:] == (0,) * (n - k) for w in cert.row_words)


def test_criterion_03_determinant_sum_identity():
    with _criterion(
        3, "minor-embedding dots equal det(A+B) and det(A-B), 200 pairs per k in 1..4"
    ):
        for k in (1, 2, 3, 4):
            terms = det_sum_terms(k)
            assert len(terms) == comb(2 * k, k)
            for t in terms:
                assert t.sign == reference.expansion_sign(t.alpha, t.beta, k)
            flip = negated_right(k)
            rng = random.Random(1000 + k)
            for _ in range(200):
                a = random_mat(rng, k, k)
                b = random_mat(rng, k, k)
                u = minor_embed(a)
                # the expansion by its definition, then the pairing SupportRep runs
                right = reference.expansion(b.to_lists(), "right")
                assert reference.dot(u, right) == reference.det((a + b).to_lists())
                right = flip(minor_embed(b))
                assert reference.dot(u, right) == reference.det((a - b).to_lists())


def test_criterion_04_sign_rank_construction():
    with _criterion(4, "exact-distance sign reps: dims 41/437, exhaustive sign check"):
        for k, n in ((1, 8), (2, 8)):
            rep = build_hd_sign(n, k, seed=200 + k)
            assert rep.dim == 1 + comb(2 * k, k) ** 2 + comb(2 * k + 2, k + 1) ** 2
            assert rep.dim == {1: 41, 2: 437}[k]
            r = comb(2 * k + 2, k + 1)
            assert rep.dim <= (1 + r * r) ** 2
            words = list(itertools.product((0, 1), repeat=n))
            for x in words:
                for y in words:
                    assert (eval_sign(rep, x, y) == 1) == (reference.dist(x, y) == k)
        rep6 = build_hd_sign(6, 1, seed=205)
        words6 = list(itertools.product((0, 1), repeat=6))
        u_mat, v_mat = materialize(rep6, words6)
        table = u_mat.mul(v_mat.transpose())
        assert reference.rank(table.to_lists()) <= 41
        for i, x in enumerate(words6):
            for j, y in enumerate(words6):
                assert table.at(i, j) == eval_value(rep6, x, y)


def test_criterion_05_rank_compression():
    with _criterion(5, "fitted compressors verified over all 3^n diagonal patterns"):
        for n, k in ((5, 1), (7, 2), (10, 3)):
            family = MatFamily.diagonal_differences(n, (0, 1))
            comp = fit_compressor(family, k, seed=300 + n)
            assert comp.verified
            assert comp.seed == 300 + n and comp.retries >= 0  # bookkeeping present
            report = verify_compressor(comp, family)
            assert report.pairs_checked == 3**n
            assert report.violation_count == 0


def test_criterion_06_boolean_combination():
    with _criterion(6, "mixed-radix combination: truth tables, rank identity, order"):
        # sanity instance: AND of (dist >= 1) and not(dist >= 2) is exact distance 1
        lo = hd_rank_problem(4, 1, seed=401)
        hi = negate(hd_rank_problem(4, 2, seed=402))
        combined = bool_combine(lambda bits: bits[0] & bits[1], [lo, hi], seed=403)
        from hamrank.hamming import word_of_index

        for x in range(16):
            wx = word_of_index(x, 4, (0, 1))
            for y in range(16):
                wy = word_of_index(y, 4, (0, 1))
                assert combined.eval(x, y) == (1 if reference.dist(wx, wy) == 1 else 0)

        # three components of orders <= 2 on 8 indices, random truth table
        rng = random.Random(404)
        comps = []
        for i in range(3):
            order = rng.randint(1, 2)
            mats = [random_mat(rng, order, order, bound=3) for _ in range(8)]
            g = tuple(rng.randint(0, 1) for _ in range(order + 1))
            comps.append(symmetric_problem(8, lambda x, mats=mats: mats[x], g))
        table = [rng.randint(0, 1) for _ in range(8)]

        def gamma(bits):
            return table[bits[0] | bits[1] << 1 | bits[2] << 2]

        combined = bool_combine(gamma, comps, seed=405)
        expected_order = 1
        for p in comps:
            expected_order *= p.order + 1
        assert combined.order == expected_order - 1
        weights = combined.meta["weights"]
        for x in range(8):
            for y in range(8):
                assert combined.eval(x, y) == gamma(
                    tuple(p.eval(x, y) for p in comps)
                )
                dense = reference.rank(
                    (combined.a_map(x) - combined.a_map(y)).to_lists()
                )
                assert dense == sum(
                    w * p.rank_fn(x, y) for w, p in zip(weights, comps)
                )


def test_criterion_07_distance_r_composition():
    with _criterion(7, "distance-r composition equals semantics; capped-rank identity"):
        spec = example_cc_hd(1, 2, 2, 3, seed=501)
        prob = distance_r_compose(spec, seed=502)
        count = spec.index_count
        assert count**2 == 4096
        truth = reference.spec_semantics(spec_to_json(spec))
        for x in range(count):
            for y in range(count):
                assert prob.eval(x, y) == truth(x, y)
        # capped-rank identity wherever at most r coordinates differ
        capped_maps = prob.meta["capped_maps"]
        k = spec.inners[0].order
        inner_rank = [reference.table_rank(problem_to_json(p)) for p in spec.inners]
        for x in range(count):
            tx = spec.tuple_of(x)
            for y in range(count):
                ty = spec.tuple_of(y)
                if sum(1 for a, b in zip(tx, ty) if a != b) > spec.r:
                    continue
                for t in range(1, k + 1):
                    capped = capped_maps[t](x) - capped_maps[t](y)
                    lhs = reference.rank(capped.to_lists())
                    rhs = sum(
                        min(inner_rank[i](tx[i], ty[i]), t)
                        for i in range(spec.coordinates)
                    )
                    assert lhs == rhs
        # exact distance as a composition: h = 1{t=2} over inequality inners
        inner = symmetric_problem(2, lambda x: Mat(1, 1, (x,)), (0, 1), name="neq")
        from hamrank.rankprob import CompositionSpec

        hd_spec = CompositionSpec(r=2, h=(0, 0, 1), inners=(inner,) * 4)
        hd_prob = distance_r_compose(hd_spec, seed=503)
        for x in range(16):
            tx = hd_spec.tuple_of(x)
            for y in range(16):
                ty = hd_spec.tuple_of(y)
                want = 1 if reference.dist(tx, ty) == 2 else 0
                assert hd_prob.eval(x, y) == want
        # its loaded document ranks every pair as the dense rank does
        assert_loaded_ranks_are_dense(problem_to_json(hd_prob))


def test_criterion_08_multiset_fingerprint():
    with _criterion(8, "capped-sum fingerprints: injective and decodable"):
        seen = {}
        for size in range(5):
            for multiset in itertools.combinations_with_replacement(range(4), size):
                fp = tuple(sum(min(u, t) for u in multiset) for t in (1, 2, 3))
                nonzero = tuple(sorted(u for u in multiset if u > 0))
                if fp in seen:
                    assert seen[fp] == nonzero
                else:
                    seen[fp] = nonzero
                assert multiset_decode(dict(zip((1, 2, 3), fp)), 4) == nonzero


def test_criterion_09_unit_distance_embedding():
    with _criterion(9, "planar unit-distance embedding and dim-4 support rep"):
        n = 6
        points = hypercube_unit_embed(n, seed=601)
        for x in range(1 << n):
            for y in range(x + 1, 1 << n):
                assert (sq_dist(points[x], points[y]) == 1) == (
                    (x ^ y).bit_count() == 1
                )
        left = [unit_distance_vector(p, "left") for p in points]
        right = [unit_distance_vector(p, "right") for p in points]
        assert {len(u) for u in left + right} == {4}
        for x in range(1 << n):
            for y in range(1 << n):
                value = reference.dot(left[x], right[y])
                assert (value == 0) == ((x ^ y).bit_count() == 1)


def test_criterion_10_exactness_and_determinism(tmp_path):
    with _criterion(10, "no floating point in the math path; byte-identical reruns"):
        src = Path(__file__).resolve().parent.parent / "src" / "hamrank"
        float_free = [
            "exact.py",
            "compression.py",
            "veronese.py",
            "hamming.py",
            "signcompile.py",
            "rankprob.py",
            "seeds.py",
            "errors.py",
            "parallel.py",
        ]
        for name in float_free:
            text = (src / name).read_text()
            assert "numpy" not in text, name
            assert "float(" not in text, name
            assert "math.sqrt" not in text, name
            assert " 1e" not in text and "e-0" not in text, name
        # identical configs reproduce identical artifacts and reports
        out = tmp_path / "rep.json"
        reports = []
        artifacts = []
        for _ in range(2):
            config = RunConfig(
                seed=777, out=str(out), report_path=str(tmp_path / "build.json")
            )
            config.params = {"n": 6, "k": 2}
            reports.append(run("build-supp", config))
            artifacts.append(out.read_text())
            vconfig = RunConfig(seed=777, report_path=str(tmp_path / "verify.json"))
            vconfig.params = {"rep": str(out)}
            reports.append(run("verify-supp", vconfig))
        assert reports[0].canonical_bytes() == reports[2].canonical_bytes()
        assert reports[1].canonical_bytes() == reports[3].canonical_bytes()
        assert artifacts[0] == artifacts[1]
        assert all(r.certified for r in reports)
