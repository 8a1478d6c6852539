import itertools
import random
from dataclasses import replace
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamrank.errors import PatternViolationError
from hamrank.exact import Mat, det_exact
from hamrank.hamming import (
    SupportRep,
    build_hd_supp,
    dist,
    identity_certificate,
    load_supp,
    minor_rep,
    verify_support_rep,
)

from .conftest import hamming


def all_words(n, alphabet=(0, 1)):
    return list(itertools.product(alphabet, repeat=n))


def zeroed(rep: SupportRep) -> SupportRep:
    """Same rep with the compressor's left factor nulled out."""
    comp = replace(rep.compressor, left=Mat.zeros(*rep.compressor.left.shape))
    return minor_rep(
        comp.apply_diag,
        lambda y: -comp.apply_diag(y),
        rep.k,
        rep.predicate,
        n=rep.n,
        k=rep.k,
        alphabet=rep.alphabet,
        compressor=comp,
        seed=rep.seed,
    )


class TestBuild:
    def test_k1_fast_path(self):
        rep = build_hd_supp(8, 1, seed=4)
        assert rep.compressor.method == "weights"
        assert rep.dim == 2
        words = all_words(8)
        for x, y in itertools.product(words[:10], words[-10:]):
            assert rep.query(x, y) == (x != y)

    def test_k1_dot_is_weighted_difference(self):
        rep = build_hd_supp(4, 1, seed=0)
        weights = [1, 2, 4, 8]
        for x in all_words(4)[:6]:
            for y in all_words(4)[:6]:
                px = sum(w * c for w, c in zip(weights, x))
                py = sum(w * c for w, c in zip(weights, y))
                assert rep.dot(x, y) == px - py

    def test_k2_binary_exhaustive(self):
        rep = build_hd_supp(4, 2, seed=6)
        assert rep.dim == 6
        for x in all_words(4):
            for y in all_words(4):
                assert rep.query(x, y) == (hamming(x, y) >= 2)

    def test_k2_ternary_alphabet(self):
        alphabet = (0, 1, 2)
        rep = build_hd_supp(4, 2, alphabet, seed=8)
        words = all_words(4, alphabet)
        for x in words:
            for y in words:
                assert rep.query(x, y) == (hamming(x, y) >= 2)

    def test_two_letter_nonbinary_alphabet_fast_path(self):
        rep = build_hd_supp(5, 1, (3, 8), seed=2)
        assert rep.compressor.method == "weights"
        words = all_words(5, (3, 8))
        for x in words[:8]:
            for y in words[:8]:
                assert rep.query(x, y) == (x != y)

    def test_dim_is_central_binomial(self):
        for k in (1, 2, 3):
            rep = build_hd_supp(2 * k, k, seed=k)
            assert rep.dim == comb(2 * k, k) <= 4**k

    def test_alphabet_must_be_distinct(self):
        with pytest.raises(ValueError):
            build_hd_supp(3, 1, (0, 0), seed=1)

    def test_bounds_on_k(self):
        with pytest.raises(ValueError):
            build_hd_supp(3, 4, seed=1)


class TestEvaluationPaths:
    def test_dot_equals_compressed_determinant(self):
        rep = build_hd_supp(5, 2, seed=10)
        comp = rep.compressor
        rng = random.Random(3)
        words = all_words(5)
        for _ in range(50):
            x = rng.choice(words)
            y = rng.choice(words)
            diff = tuple(a - b for a, b in zip(x, y))
            assert rep.dot(x, y) == det_exact(comp.apply_diag(diff))

    def test_diagonal_vanishes(self):
        rep = build_hd_supp(5, 2, seed=10)
        for x in all_words(5):
            assert rep.dot(x, x) == 0

    @settings(max_examples=30, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_support_is_symmetric(self, hrng):
        rep = build_hd_supp(4, 2, seed=12)
        words = all_words(4)
        x = hrng.choice(words)
        y = hrng.choice(words)
        assert rep.query(x, y) == rep.query(y, x)


class TestVerify:
    def test_fresh_rep_exhaustive(self):
        rep = build_hd_supp(5, 2, seed=1)
        report = verify_support_rep(rep)
        assert report.certified
        assert report.pairs_checked == 4**5

    def test_zeroed_compressor_violates_every_far_pair(self):
        rep = build_hd_supp(3, 2, seed=1)
        report = verify_support_rep(zeroed(rep))
        words = all_words(3)
        far = sum(
            1 for x in words for y in words if hamming(x, y) >= 2
        )
        assert report.violation_count == far
        assert not report.certified

    def test_sample_mode(self):
        rep = build_hd_supp(8, 3, seed=14)
        report = verify_support_rep(rep, mode="sample", sample_count=20000, sample_seed=5)
        assert report.certified
        assert report.pairs_checked == 20000

    def test_sample_mode_seeded_k3_n10(self):
        rep = build_hd_supp(10, 3, seed=15)
        report = verify_support_rep(
            rep, mode="sample", sample_count=100_000, sample_seed=7
        )
        assert report.certified

    def test_pair_budget_guard(self):
        from hamrank.errors import BudgetExceededError

        rep = build_hd_supp(4, 1, seed=1)
        with pytest.raises(BudgetExceededError):
            verify_support_rep(rep, max_pairs=100)

    def test_thread_count_does_not_change_results(self):
        rep = build_hd_supp(4, 2, seed=3)
        lone = verify_support_rep(zeroed(rep), threads=1)
        pooled = verify_support_rep(zeroed(rep), threads=4)
        assert lone.to_json() == pooled.to_json()

    def test_ternary_exhaustive(self):
        rep = build_hd_supp(3, 2, (0, 1, 2), seed=4)
        report = verify_support_rep(rep)
        assert report.certified and report.pairs_checked == 9**3


class TestIdentityCertificate:
    def test_k1(self):
        rep = build_hd_supp(4, 1, seed=0)
        cert = identity_certificate(rep)
        assert cert.size == 2
        assert cert.row_words == ((0, 0, 0, 0), (1, 0, 0, 0))

    def test_k2_n5_pattern_enumerated(self):
        rep = build_hd_supp(5, 2, seed=5)
        cert = identity_certificate(rep)
        assert cert.size == 4
        for i, x in enumerate(cert.row_words):
            for j, y in enumerate(cert.col_words):
                assert rep.query(x, y) == (i == j)
                assert (hamming(x, y) >= 2) == (i == j)

    def test_k3_n6(self):
        rep = build_hd_supp(6, 3, seed=6)
        assert identity_certificate(rep).size == 8

    def test_violation_raises(self):
        # the text lands in a failed lower-bound report, so it is pinned
        rep = build_hd_supp(4, 2, seed=2)
        with pytest.raises(
            PatternViolationError,
            match=r"^identity pattern broken at \(0, 0\): dot zero, expected diagonal$",
        ):
            identity_certificate(zeroed(rep))
        rep = build_hd_supp(4, 1, seed=0)
        rep.k = 2  # read as dist >= 2, the dist >= 1 rep is nonzero off the diagonal
        with pytest.raises(
            PatternViolationError,
            match=r"^identity pattern broken at \(0, 1\): dot nonzero, "
            r"expected off-diagonal$",
        ):
            identity_certificate(rep)

    def test_needs_two_letter_alphabet(self):
        rep = build_hd_supp(3, 2, (0, 1, 2), seed=2)
        with pytest.raises(ValueError):
            identity_certificate(rep)


class TestSerialization:
    def test_round_trip_preserves_dots(self):
        rep = build_hd_supp(4, 2, seed=21)
        back = load_supp(rep.to_json())
        for x in all_words(4)[:8]:
            for y in all_words(4)[:8]:
                assert back.dot(x, y) == rep.dot(x, y)
        assert back.dim == rep.dim and back.k == rep.k


def test_dist_helper():
    assert dist((0, 1, 1), (1, 1, 0)) == 2
