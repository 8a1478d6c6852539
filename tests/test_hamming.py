import itertools
import random
from collections import Counter
from dataclasses import replace
from math import comb, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hamrank.compression import Compressor
from hamrank.errors import BudgetExceededError, PatternViolationError
from hamrank.exact import Mat, det_exact
from hamrank.hamming import (
    SupportRep,
    build_hd_supp,
    difference_classes,
    dist,
    identity_certificate,
    load_supp,
    near_indices,
    verify_support_rep,
    word_of_index,
)
from hamrank.parallel import sweep
from hamrank.seeds import rng_stream
from hamrank.veronese import minor_embed

from .conftest import hamming, pair_reference_report


def all_words(n, alphabet=(0, 1)):
    return list(itertools.product(alphabet, repeat=n))


def with_left(rep: SupportRep, entries) -> SupportRep:
    """Same rep with the compressor's left factor entries replaced."""
    left = Mat(*rep.compressor.left.shape, tuple(entries))
    comp = replace(rep.compressor, left=left)
    return SupportRep.of_compressor(comp, rep.alphabet, rep.seed)


def zeroed(rep: SupportRep) -> SupportRep:
    """Same rep with the compressor's left factor nulled out."""
    return with_left(rep, [0] * len(rep.compressor.left.entries))


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

        # sample mode counts every far draw; replay the sweep's own stream
        sample = verify_support_rep(
            zeroed(rep), mode="sample", sample_count=200, sample_seed=5
        )
        rng = rng_stream(5, "verify-sample", 3, 2)
        drawn = [(words[rng.randrange(8)], words[rng.randrange(8)]) for _ in range(200)]
        far_drawn = [(x, y) for x, y in drawn if hamming(x, y) >= 2]
        assert sample.pairs_checked == 200
        assert sample.violation_count == len(far_drawn) > 32
        kept = [(tuple(v["x"]), tuple(v["y"])) for v in sample.violations]
        assert kept == far_drawn[:32]

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

    def test_sample_budget_counts_drawn_pairs(self):
        rep = build_hd_supp(4, 1, seed=1)
        report = verify_support_rep(rep, mode="sample", sample_count=100, max_pairs=100)
        assert report.certified and report.pairs_checked == 100
        with pytest.raises(BudgetExceededError, match="^101 pairs exceed"):
            verify_support_rep(rep, mode="sample", sample_count=101, max_pairs=100)

    def test_sample_budget_is_checked_before_the_table_is_built(self):
        def prepare():
            raise AssertionError("prepared over budget")

        with pytest.raises(BudgetExceededError):
            sweep(4, prepare, "sample", 10**20, random.Random(0), max_pairs=1 << 24)

    def test_ternary_exhaustive(self):
        rep = build_hd_supp(3, 2, (0, 1, 2), seed=4)
        report = verify_support_rep(rep)
        assert report.certified and report.pairs_checked == 9**3

    def test_exhaustive_sweep_embeds_each_word_once_per_side(self, monkeypatch):
        calls = Counter()

        def counting(m, side):
            calls[side] += 1
            return minor_embed(m, side)

        monkeypatch.setattr("hamrank.hamming.minor_embed", counting)
        # zeroed: every far pair is a violation, whose record recomputes a dot
        rep = zeroed(build_hd_supp(4, 2, seed=1))
        assert verify_support_rep(rep).violation_count == 176
        verify_support_rep(rep)
        assert calls == {"left": 2**4, "right": 2**4}


def hand_rep(n, k, alphabet, left, right) -> SupportRep:
    """The rep of a hand-built compressor with k x n factors."""
    comp = Compressor(
        left=Mat(k, n, tuple(left)),
        right=Mat(k, n, tuple(right)),
        seed=0,
        verified=False,
    )
    return SupportRep.of_compressor(comp, alphabet, None)


WIDE = 1 << 200


@st.composite
def wide_reps(draw):
    """Hand-built reps whose entries reach 2^200, so dots pass 400 bits."""
    n = draw(st.integers(1, 3))
    k = draw(st.integers(0, 3))
    alphabet = draw(st.lists(st.integers(-4, 4), min_size=1, max_size=3, unique=True))
    entries = st.lists(st.integers(-WIDE, WIDE), min_size=k * n, max_size=k * n)
    return hand_rep(n, k, tuple(alphabet), draw(entries), draw(entries))


class TestPackedSweep:
    """The packed row kernel against the pair-by-pair reference."""

    @pytest.mark.parametrize(
        "n,k", [(1, 1), (3, 1), (8, 1), (2, 2), (5, 2), (8, 2), (3, 3), (6, 3), (8, 3)]
    )
    def test_binary_matches_reference(self, n, k):
        rep = build_hd_supp(n, k, seed=n + k)
        assert verify_support_rep(rep).to_json() == pair_reference_report(rep)

    @pytest.mark.parametrize("n,k,alphabet", [(5, 2, (0, 1, 2)), (4, 2, (-1, 0, 3))])
    def test_wider_alphabets_match_reference(self, n, k, alphabet):
        rep = build_hd_supp(n, k, alphabet, seed=3)
        assert verify_support_rep(rep).to_json() == pair_reference_report(rep)

    def test_broken_reps_match_reference(self):
        fitted = build_hd_supp(6, 2, seed=2)
        entries = list(fitted.compressor.left.entries)
        entries[0] = entries[4] = 0
        broken = [
            zeroed(build_hd_supp(6, 2, seed=1)),
            with_left(build_hd_supp(8, 1), [1] * 8),  # dot |x|_w - |y|_w, all ones
            with_left(fitted, entries),
        ]
        for rep in broken:
            report = verify_support_rep(rep).to_json()
            assert report == pair_reference_report(rep)
            assert report["violation_count"] > 0

    @settings(max_examples=40, deadline=None)
    @given(rep=wide_reps())
    @example(rep=hand_rep(2, 2, (0, 1), [0] * 4, [0] * 4))  # bias 1
    @example(rep=hand_rep(3, 2, (-3, 0, 4), [WIDE] * 6, [-WIDE] * 6))
    @example(rep=hand_rep(2, 0, (-1, 2), [], []))
    # dots reach +-(bias - 1) = +-2^199 and 2 bias fills 201 bits: a byte
    # less than bitlen(2 bias) + 1 rounded up would overflow a slot
    @example(rep=hand_rep(1, 1, (-1, 1), [1 << 198], [1]))
    def test_slot_width_comes_from_the_data(self, rep):
        assert verify_support_rep(rep).to_json() == pair_reference_report(rep)

    def test_zeroed_n11_counts_every_far_pair(self):
        rep = zeroed(build_hd_supp(11, 1))
        report = verify_support_rep(rep)
        assert report.violation_count == 4**11 - 2**11
        # the first failing pairs in pair order: row 0 against columns 1..32
        zero = [0] * 11
        assert [v["x"] for v in report.violations] == [zero] * 32
        assert [v["y"] for v in report.violations] == [
            list(word_of_index(j, 11, (0, 1))) for j in range(1, 33)
        ]
        assert {(v["dot"], v["expected_nonzero"]) for v in report.violations} == {
            ("0", True)
        }


@pytest.mark.parametrize("alphabet", [(0, 1), (0, 2), (0, 1, 2), (-1, 0, 3)])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_near_indices_is_the_hamming_ball(alphabet, n):
    words = all_words(n, alphabet)
    for k in range(n + 2):
        for i, x in enumerate(words):
            near = near_indices(i, n, len(alphabet), k)
            assert sorted(near) == [j for j, y in enumerate(words) if dist(x, y) < k]
            if k == 0:
                assert near == []
            if k > n:
                assert len(near) == len(words)


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
        # no real rep fails off the diagonal: there rank(C(x) - C(y)) <= dist < k
        rep.query = lambda x, y: True
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


class TestDifferenceClasses:
    @pytest.mark.parametrize("alphabet", [(0, 1), (0, 2), (0, 1, 2), (-1, 0, 3)])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_each_difference_once_up_to_sign(self, alphabet, n):
        ways = Counter(a - b for a in alphabet for b in alphabet)
        seen = set()
        pairs = 0
        for x, y in difference_classes(n, alphabet):
            assert set(x) | set(y) <= set(alphabet)
            z = tuple(a - b for a, b in zip(x, y))
            minus = tuple(-d for d in z)
            assert z not in seen and minus not in seen
            seen.add(z)
            pairs += prod(ways[d] for d in z)
            if minus != z:
                pairs += prod(ways[d] for d in minus)
        signed = seen | {tuple(-d for d in z) for z in seen}
        assert signed == set(itertools.product(sorted(ways), repeat=n))
        assert pairs == len(alphabet) ** (2 * n)

    def test_binary_n8_count(self):
        assert sum(1 for _ in difference_classes(8, (0, 1))) == (3**8 + 1) // 2 == 3281


def test_dist_helper():
    assert dist((0, 1, 1), (1, 1, 0)) == 2
