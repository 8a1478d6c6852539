import gc
import itertools
import random
import weakref
from collections import Counter
from dataclasses import replace
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hamrank.compression import Compressor, MatFamily, verify_compressor
from hamrank.errors import BudgetExceededError, InputError, PatternViolationError
from hamrank.exact import Mat
from hamrank.hamming import (
    SupportRep,
    build_hd_supp,
    dist,
    identity_certificate,
    load_supp,
    near_indices,
    shell_flags,
    verify_support_rep,
    word_of_index,
)
from hamrank.parallel import sweep
from hamrank.seeds import rng_stream
from hamrank.veronese import minor_embed

from . import reference


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
                assert rep.query(x, y) == (reference.dist(x, y) >= 2)

    def test_k2_ternary_alphabet(self):
        alphabet = (0, 1, 2)
        rep = build_hd_supp(4, 2, alphabet, seed=8)
        words = all_words(4, alphabet)
        for x in words:
            for y in words:
                assert rep.query(x, y) == (reference.dist(x, y) >= 2)

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

    def test_largest_binary_family_under_the_budget_certifies(self):
        # 3^15 patterns, the largest binary family MAX_DIAGONAL_PATTERNS admits
        rep = build_hd_supp(15, 1)
        family = MatFamily.diagonal_differences(15, (0, 1))
        report = verify_compressor(rep.compressor, family)
        assert rep.compressor.verified
        assert (report.pairs_checked, report.violation_count) == (3**15, 0)

    def test_n14_k2_fit_is_verified(self):
        rep = build_hd_supp(14, 2, seed=7)
        assert rep.compressor.verified and rep.compressor.method == "fit"
        assert (rep.n, rep.k, rep.dim) == (14, 2, 6)


class TestEvaluationPaths:
    def test_dot_equals_compressed_determinant(self):
        rep = build_hd_supp(5, 2, seed=10)
        dot = reference.supp_dot(rep.to_json())
        rng = random.Random(3)
        words = all_words(5)
        for _ in range(50):
            x = rng.choice(words)
            y = rng.choice(words)
            assert rep.dot(x, y) == dot(x, y)

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
            1 for x in words for y in words if reference.dist(x, y) >= 2
        )
        assert report.violation_count == far
        assert not report.certified

        # sample mode counts every far draw; replay the sweep's own stream
        sample = verify_support_rep(zeroed(rep), sample=200, sample_seed=5)
        rng = rng_stream(5, "verify-sample", 3, 2)
        drawn = [(words[rng.randrange(8)], words[rng.randrange(8)]) for _ in range(200)]
        far_drawn = [(x, y) for x, y in drawn if reference.dist(x, y) >= 2]
        assert sample.pairs_checked == 200
        assert sample.violation_count == len(far_drawn) > 32
        kept = [(tuple(v["x"]), tuple(v["y"])) for v in sample.violations]
        assert kept == far_drawn[:32]

    def test_sample_mode(self):
        rep = build_hd_supp(8, 3, seed=14)
        report = verify_support_rep(rep, sample=20000, sample_seed=5)
        assert report.certified
        assert report.pairs_checked == 20000

    def test_sample_mode_compresses_each_half_word_at_most_once(self, monkeypatch):
        calls = Counter()
        real = Compressor.apply_diag
        monkeypatch.setattr(
            Compressor, "apply_diag", lambda c, z: calls.update([z]) or real(c, z)
        )
        # 2^8 words split after position 3: 2^3 prefixes, 2^5 suffixes; the
        # 2,000 drawn pairs touch nearly every word
        rep = build_hd_supp(8, 2, seed=14)
        calls.clear()
        report = verify_support_rep(rep, sample=2000, sample_seed=5)
        assert report.certified
        assert sum(calls.values()) <= 2**3 + 2**5

    def test_sample_mode_seeded_k3_n10(self):
        rep = build_hd_supp(10, 3, seed=15)
        report = verify_support_rep(rep, sample=100_000, sample_seed=7)
        assert report.certified

    def test_pair_budget_guard(self):
        from hamrank.errors import BudgetExceededError

        rep = build_hd_supp(4, 1, seed=1)
        with pytest.raises(BudgetExceededError):
            verify_support_rep(rep, max_pairs=100)

    def test_sample_budget_counts_drawn_pairs(self):
        rep = build_hd_supp(4, 1, seed=1)
        report = verify_support_rep(rep, sample=100, max_pairs=100)
        assert report.certified and report.pairs_checked == 100
        with pytest.raises(BudgetExceededError, match="^101 pairs exceed"):
            verify_support_rep(rep, sample=101, max_pairs=100)

    @pytest.mark.parametrize(
        "sample,error",
        [(10**20, BudgetExceededError), (0, InputError), (-1, InputError)],
        ids=["over-budget", "zero", "negative"],
    )
    def test_refused_sample_never_builds_the_table(self, monkeypatch, sample, error):
        def prepare():
            raise AssertionError("prepared a refused sample")

        with pytest.raises(error):
            sweep(4, prepare, sample, random.Random(0), max_pairs=1 << 24)

        def never(*args):
            raise AssertionError("embedded a word for a refused sample")

        rep = build_hd_supp(4, 1, seed=1)
        monkeypatch.setattr("hamrank.hamming.minor_embed", never)
        with pytest.raises(error):
            verify_support_rep(rep, sample=sample, max_pairs=1 << 24)

    def test_ternary_exhaustive(self):
        rep = build_hd_supp(3, 2, (0, 1, 2), seed=4)
        report = verify_support_rep(rep)
        assert report.certified and report.pairs_checked == 9**3

    def test_exhaustive_sweep_embeds_each_word_once_per_side(self, monkeypatch):
        calls = Counter()

        def counting(m):
            calls["minor_embed"] += 1
            return minor_embed(m)

        monkeypatch.setattr("hamrank.hamming.minor_embed", counting)
        # zeroed: every far pair is a violation, and each record reads a dot
        # from the sweep's own vectors
        rep = zeroed(build_hd_supp(4, 2, seed=1))
        report = verify_support_rep(rep)
        assert report.violation_count == 176
        assert {v["dot"] for v in report.violations} == {"0"}
        # one Laplace pass per word: v is a signed permutation of u
        assert calls == {"minor_embed": 2**4}
        # the grid is not kept in the rep's memo: a second sweep embeds anew
        verify_support_rep(rep)
        assert calls == {"minor_embed": 2 * 2**4}


def hand_rep(n, k, alphabet, left, right) -> SupportRep:
    """The rep of a hand-built compressor with k x n factors."""
    comp = Compressor(
        left=Mat(k, n, tuple(left)),
        right=Mat(k, n, tuple(right)),
        seed=0,
        verified=False,
    )
    return SupportRep.of_compressor(comp, alphabet, None)


def random_rep(n, k, alphabet, seed) -> SupportRep:
    """A hand-built rep with k x n factors of random entries in [-9, 9]."""
    rng = random.Random(seed)
    left, right = ([rng.randint(-9, 9) for _ in range(k * n)] for _ in range(2))
    return hand_rep(n, k, alphabet, left, right)


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
        assert verify_support_rep(rep).to_json() == reference_report(rep)

    @pytest.mark.parametrize("n,k,alphabet", [(5, 2, (0, 1, 2)), (4, 2, (-1, 0, 3))])
    def test_wider_alphabets_match_reference(self, n, k, alphabet):
        rep = build_hd_supp(n, k, alphabet, seed=3)
        assert verify_support_rep(rep).to_json() == reference_report(rep)

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
            assert report == reference_report(rep)
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
        assert verify_support_rep(rep).to_json() == reference_report(rep)

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


def reference_report(rep, drawn=None):
    """``verify_support_rep(rep).to_json()`` by the reference on the rep's
    document: exhaustive over every ordered pair of words in product order,
    or in sample mode over the ``drawn`` pairs."""
    words = all_words(rep.n, rep.alphabet)
    pairs = list(itertools.product(words, repeat=2)) if drawn is None else drawn
    count, records = reference.tally(reference.supp_failures(rep.to_json(), pairs))
    return {
        "pairs_checked": len(pairs),
        "violation_count": count,
        "violations": records,
        "mode": "exhaustive" if drawn is None else "sample",
        "certified": count == 0,
    }


def sample_reference(rep, sample, seed):
    """(report, zero residues): the sampled ``verify_support_rep`` report by
    the reference, and how many drawn pairs have a dot divisible by 32749.
    The sweep's own stream is replayed, row index first."""
    words = all_words(rep.n, rep.alphabet)
    rng = rng_stream(seed, "verify-sample", rep.n, rep.k)
    drawn = [
        (words[rng.randrange(len(words))], words[rng.randrange(len(words))])
        for _ in range(sample)
    ]
    dot = reference.supp_dot(rep.to_json())
    return reference_report(rep, drawn), sum(dot(x, y) % 32749 == 0 for x, y in drawn)


PIN_REPS = [
    *((n, k, (0, 1)) for n in range(2, 7) for k in range(1, min(n, 3) + 1)),
    *((n, k, (0, 1, 2)) for n in range(2, 5) for k in (1, 2)),
]


class TestResidueCertificate:
    """Sample mode's residue certificate, with the exact dot only where the
    residue reads 0, against the pair-by-pair exact reference."""

    @staticmethod
    def assert_reference(rep, sample, seed):
        kept = rep.v.cache_info().currsize
        report = verify_support_rep(rep, sample=sample, sample_seed=seed)
        # the check keeps no right embedding in the rep's memo
        assert rep.v.cache_info().currsize == kept
        want, zeros = sample_reference(rep, sample, seed)
        assert report.to_json() == want
        assert report.exact_rechecks == zeros
        return report

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n,k,alphabet", PIN_REPS)
    def test_fitted_and_zeroed_reps_match_the_exact_path(self, n, k, alphabet, seed):
        rep = build_hd_supp(n, k, alphabet, seed=seed)
        for sample in (1, 37, 500):
            assert self.assert_reference(rep, sample, seed).certified
            broken = self.assert_reference(zeroed(rep), sample, seed)
            # every far pair fails and every residue reads 0
            assert broken.exact_rechecks == sample

    @pytest.mark.parametrize(
        "rep",
        [
            random_rep(3, 2, (-1, 0, 3), seed=5),
            hand_rep(2, 0, (-1, 2), [], []),  # dim 1: the digit is the lowest
            hand_rep(3, 2, (-3, 0, 4), [WIDE] * 6, [-WIDE] * 6),
            hand_rep(3, 3, (0, 1), [WIDE + 1, -WIDE, 7] * 3, [1, -WIDE, WIDE] * 3),
        ],
        ids=["random", "k0", "wide", "wide-k3"],
    )
    def test_hand_reps_match_the_exact_path(self, rep):
        for seed in (0, 1):
            self.assert_reference(rep, 200, seed)

    @pytest.mark.parametrize("n,k", [(4, 1), (6, 2), (6, 3)])
    def test_a_rep_whose_every_residue_is_zero_certifies_by_the_fallback(self, n, k):
        rep = build_hd_supp(n, k, seed=1)
        # 32749 divides every entry of C(x), so it divides every dot
        scaled = with_left(rep, [32749 * e for e in rep.compressor.left.entries])
        report = self.assert_reference(scaled, 500, 3)
        assert report.certified and report.exact_rechecks == 500


@pytest.mark.parametrize("alphabet", [(0, 1), (0, 2), (0, 1, 2), (-1, 0, 3)])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_near_indices_is_the_hamming_ball(alphabet, n):
    words = all_words(n, alphabet)
    for k in range(n + 2):
        for i, x in enumerate(words):
            near = near_indices(i, n, len(alphabet), k)
            assert sorted(near) == [
                j for j, y in enumerate(words) if reference.dist(x, y) < k
            ]
            if k == 0:
                assert near == []
            if k == 1:
                assert near == [i]
            if k > n:
                assert len(near) == len(words)


@pytest.mark.parametrize("alphabet", [(0, 1), (0, 2), (0, 1, 2), (-1, 0, 3)])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_shell_flags_are_the_distance(alphabet, n):
    words = all_words(n, alphabet)
    for k in range(n + 2):
        upper = shell_flags(n, len(alphabet), k)
        for i, x in enumerate(words):
            want = [reference.dist(x, y) == k for y in words[i:]]
            assert upper(i) == want


class TestWordEmbeddings:
    """The word grid from compressed halves (``SupportRep.embed``) against
    the definition."""

    @staticmethod
    def assert_definition(rep):
        compress = reference.compressor(rep.compressor.to_json())
        words = all_words(rep.n, rep.alphabet)
        us, vs = rep.embed(words)
        assert len(us) == len(vs) == len(words)
        for x, u, v in zip(words, us, vs):
            negated = compress(reference.diagonal([-a for a in x]))
            assert u == reference.expansion(compress(reference.diagonal(x)), "left")
            assert v == reference.expansion(negated, "right")

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_binary(self, n, k):
        self.assert_definition(random_rep(n, k, (0, 1), seed=100 * n + k))

    @pytest.mark.parametrize(
        "n,k,alphabet", [(3, 2, (0, 1, 2)), (5, 2, (-1, 0, 3)), (7, 2, (0, 1))]
    )
    def test_other_alphabets_and_odd_n(self, n, k, alphabet):
        self.assert_definition(random_rep(n, k, alphabet, seed=n))

    def test_a_built_rep_and_its_memo(self):
        rep = build_hd_supp(5, 2, seed=3)
        self.assert_definition(rep)
        us, vs = rep.embed(all_words(5))
        assert (rep.u.cache_info().currsize, rep.v.cache_info().currsize) == (0, 0)
        for i, x in enumerate(all_words(5)):
            assert (rep.u(x), rep.v(x)) == (us[i], vs[i])

    def test_apply_diag_runs_once_per_half_word(self, monkeypatch):
        calls = Counter()
        real = Compressor.apply_diag

        def counting(self, pattern):
            calls[len(pattern)] += 1
            return real(self, pattern)

        monkeypatch.setattr(Compressor, "apply_diag", counting)
        # 2^11 words split after position 5: 2^5 prefixes, 2^6 suffixes
        rep = hand_rep(11, 1, (0, 1), range(1, 12), [1] * 11)
        assert len(rep.embed(all_words(11))[0]) == 2**11
        assert calls == {11: 2**5 + 2**6}


def test_piece_rep_vectors_are_the_definition():
    from hamrank.rankprob import _compress_problem, piece_support_rep

    from .conftest import random_table_problem

    p = random_table_problem()
    for threshold in (1, 2, 3):
        rep = piece_support_rep(p, threshold, seed=46 + threshold)
        a_map = _compress_problem(p, threshold, 46 + threshold).a_map
        for x in range(p.index_count):
            assert rep.u(x) == reference.expansion(a_map(x).to_lists(), "left")
            assert rep.v(x) == reference.expansion((-a_map(x)).to_lists(), "right")


def test_a_rep_dies_on_del_without_the_garbage_collector():
    # a cycle through the memo closures would keep it until a gc pass
    gc.disable()
    try:
        rep = build_hd_supp(4, 2, seed=1)
        assert rep.dot((0, 0, 1, 1), (1, 1, 0, 0)) != 0
        ref = weakref.ref(rep)
        del rep
        assert ref() is None
    finally:
        gc.enable()


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
                assert (reference.dist(x, y) >= 2) == (i == j)

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

    @pytest.mark.parametrize(
        "n,k,alphabet", [(3, 2, (0, 1, 2)), (5, 2, (-1, 0, 3)), (4, 3, (0, 1, 2))]
    )
    def test_any_alphabet_lends_its_first_two_letters(self, n, k, alphabet):
        rep = build_hd_supp(n, k, alphabet, seed=2)
        cert = identity_certificate(rep)
        assert cert.size == 2**k
        for word in cert.row_words + cert.col_words:
            assert set(word) <= set(alphabet[:2])

    def test_needs_two_letters(self):
        rep = build_hd_supp(3, 1, (5,), seed=2)
        with pytest.raises(InputError, match="^the identity certificate needs at least two"):
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
