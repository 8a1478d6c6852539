import itertools
import random
from fractions import Fraction
from math import comb, perm

import pytest

from hamrank import veronese
from hamrank.errors import PatternViolationError, RetriesExhaustedError
from hamrank.exact import Mat
from hamrank.veronese import (
    det_sum_terms,
    hypercube_unit_embed,
    minor_embed,
    prove_det_sum,
    sq_dist,
    unit_distance_vector,
)

from . import reference
from .conftest import random_mat


class TestDetSumTerms:
    def test_k1_literal(self):
        terms = det_sum_terms(1)
        assert [(t.alpha, t.beta, t.sign) for t in terms] == [
            ((), (), 1),
            ((0,), (0,), 1),
        ]

    def test_k2_count(self):
        assert len(det_sum_terms(2)) == 6

    @pytest.mark.parametrize("k", range(6))
    def test_count_is_central_binomial(self, k):
        assert len(det_sum_terms(k)) == comb(2 * k, k) <= 4**k

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_signs_match_inversion_oracle(self, k):
        for t in det_sum_terms(k):
            assert t.sign == reference.expansion_sign(t.alpha, t.beta, k)

    def test_canonical_order_is_stable(self):
        first = det_sum_terms(3)
        again = det_sum_terms(3)
        assert first == again
        sizes = [len(t.alpha) for t in first]
        assert sizes == sorted(sizes)


class TestMinorEmbed:
    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_laplace_pass_matches_the_definition(self, k, side):
        rng = random.Random(f"{k}{side}")
        for trial in range(40):
            # random, then zero-heavy with some wide entries
            wide = [0, 0, 0, 1, -1, 1 << 70, -(1 << 33)]
            entries = [
                rng.randint(-9, 9) if trial % 2 else rng.choice(wide)
                for _ in range(k * k)
            ]
            a = Mat(k, k, tuple(entries))
            if side == "left":
                assert minor_embed(a) == reference.expansion(a.to_lists(), side)
            else:
                flip = veronese.negated_right(k)
                assert flip(minor_embed(-a)) == reference.expansion(a.to_lists(), side)

    def test_k1_literal(self):
        a, b = 7, -3
        left = minor_embed(Mat(1, 1, (a,)))
        right = veronese.negated_right(1)(minor_embed(Mat(1, 1, (-b,))))
        assert left == (1, a)
        assert right == (b, 1)
        assert reference.dot(left, right) == a + b

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_dot_is_det_of_sum(self, k):
        rng = random.Random(400 + k)
        for _ in range(60):
            a = random_mat(rng, k, k)
            b = random_mat(rng, k, k)
            u = minor_embed(a)
            v = veronese.negated_right(k)(minor_embed(-b))
            assert reference.dot(u, v) == reference.det((a + b).to_lists())

    def test_zero_matrix_left_pattern(self):
        k = 3
        zero = Mat.zeros(k, k)
        u = minor_embed(zero)
        assert u[0] == 1 and all(c == 0 for c in u[1:])
        b = random_mat(random.Random(9), k, k)
        v = veronese.negated_right(k)(minor_embed(-b))
        assert reference.dot(u, v) == reference.det(b.to_lists())

    def test_pairing_with_negation_computes_difference(self):
        rng = random.Random(12)
        a = random_mat(rng, 2, 2)
        b = random_mat(rng, 2, 2)
        u = minor_embed(a)
        v = veronese.negated_right(2)(minor_embed(b))
        assert reference.dot(u, v) == reference.det((a - b).to_lists())

    @pytest.mark.parametrize("k", range(5))
    def test_coordinates_match_cofactor_minors(self, k):
        # canonical term order: by size, then alpha, then beta, lexicographic
        rng = random.Random(700 + k)
        for _ in range(3):
            a = random_mat(rng, k, k)
            left = reference.expansion(a.to_lists(), "left")
            right = reference.expansion(a.to_lists(), "right")
            assert minor_embed(a) == left
            assert veronese.negated_right(k)(minor_embed(-a)) == right
            # the empty term is 1 on the left; its complement is det(A)
            assert left[0] == 1 and right[0] == reference.det(a.to_lists())


class TestDetSumProof:
    @pytest.mark.parametrize(
        "k,points", [(1, 3), (2, 17), (3, 139), (4, 1473), (5, 19091)]
    )
    def test_checks_every_rook_point(self, k, points):
        # partial rook placements of s cells, each cell given to A or to B
        assert points == sum(comb(k, s) * perm(k, s) * 2**s for s in range(k + 1))
        veronese.prove_det_sum.cache_clear()
        assert prove_det_sum(k) == points

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_a_flipped_sign_is_caught_with_k_and_the_point(
        self, k, flipped_det_sum_sign
    ):
        with pytest.raises(PatternViolationError, match=rf"k={k} at A=\[\["):
            prove_det_sum(k)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_a_term_with_alpha_and_beta_swapped_is_caught(
        self, k, swapped_det_sum_term
    ):
        # negated_right(k) runs first and refuses the plan
        with pytest.raises(PatternViolationError, match=rf"for k={k}: a co-minor"):
            prove_det_sum(k)

    @pytest.mark.parametrize(
        "k,placements", [(1, 2), (2, 7), (3, 34), (4, 209), (5, 1546)]
    )
    def test_one_embedding_and_one_determinant_per_placement(
        self, monkeypatch, k, placements
    ):
        calls = {"minor_embed": 0, "det_exact": 0}

        def counting(name):
            real = getattr(veronese, name)

            def counted(m):
                calls[name] += 1
                return real(m)

            monkeypatch.setattr(veronese, name, counted)

        counting("minor_embed")
        counting("det_exact")
        veronese.prove_det_sum.cache_clear()
        try:
            prove_det_sum(k)
        finally:
            veronese.prove_det_sum.cache_clear()
        assert len(veronese._rook_mats(k)) == placements
        assert calls == {"minor_embed": placements, "det_exact": placements}


class TestNegatedRight:
    @pytest.mark.parametrize("k", range(6))
    def test_is_the_right_embedding_of_the_negation(self, k):
        flip = veronese.negated_right(k)
        rng = random.Random(k)
        for bound in (1, 9, 1 << 70):
            for _ in range(20):
                a = random_mat(rng, k, k, bound)
                want = reference.expansion((-a).to_lists(), "right")
                assert flip(minor_embed(a)) == want

    @pytest.mark.parametrize("k", range(6))
    def test_agrees_with_the_negation_at_every_rook_placement(self, k):
        # the points of the multilinear argument prove_det_sum rests on
        flip = veronese.negated_right(k)
        for m in veronese._rook_mats(k).values():
            assert flip(minor_embed(m)) == reference.expansion((-m).to_lists(), "right")

    @pytest.mark.parametrize("k", range(6))
    def test_embeds_no_matrix(self, monkeypatch, k):
        def never(a):
            raise AssertionError("negated_right embedded a matrix")

        veronese.negated_right.cache_clear()
        monkeypatch.setattr(veronese, "minor_embed", never)
        try:
            veronese.negated_right(k)
        finally:
            veronese.negated_right.cache_clear()

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_a_plan_off_its_own_minors_is_refused(self, k, swapped_det_sum_term):
        with pytest.raises(PatternViolationError, match=rf"for k={k}: a co-minor"):
            veronese.negated_right(k)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_a_right_side_off_the_permutation_is_caught(self, monkeypatch, k):
        real = veronese.negated_right

        def off(size):
            flip = real(size)

            def wrong(u):
                # the full right minor, det(-B), with the wrong sign
                v = flip(u)
                return (-v[0], *v[1:])

            return wrong

        veronese.prove_det_sum.cache_clear()
        monkeypatch.setattr(veronese, "negated_right", off)
        try:
            with pytest.raises(PatternViolationError, match=rf"k={k} at A=\[\["):
                prove_det_sum(k)
        finally:
            veronese.prove_det_sum.cache_clear()

    def test_a_flipped_expansion_sign_cancels(self, flipped_det_sum_sign):
        # the map reads the term signs that the left side applies
        a = Mat(2, 2, (1, 2, 3, 4))
        flip = veronese.negated_right(2)
        assert flip(minor_embed(a)) == reference.expansion((-a).to_lists(), "right")


class TestUnitDistanceEmbedding:
    def test_index_convention(self):
        points = hypercube_unit_embed(3, seed=0)
        # index x sums the steps of its set bits: bit i is step i
        assert points[0] == (0, 0)
        for i in range(3):
            assert sq_dist(points[0], points[1 << i]) == 1
        assert points[3] == tuple(a + b for a, b in zip(points[1], points[2]))

    def test_seeded_n3_exhaustive(self):
        points = hypercube_unit_embed(3, seed=5)
        for x in range(8):
            for y in range(8):
                want = (x ^ y).bit_count() == 1
                assert (sq_dist(points[x], points[y]) == 1) == want

    def test_points_are_exact_rationals(self):
        points = hypercube_unit_embed(2, seed=1)
        for p in points:
            assert all(isinstance(c, (int, Fraction)) for c in p)

    def test_unfaithful_draws_exhaust(self, monkeypatch):
        # one step for every bit puts 100 and 011 at distance 1
        monkeypatch.setattr(veronese, "_rational_unit_vector", lambda rng: (1, 0))
        with pytest.raises(RetriesExhaustedError, match="after 64 draws"):
            hypercube_unit_embed(3, seed=0)

    def test_feeds_support_rep_of_not_distance_one(self):
        n = 4
        points = hypercube_unit_embed(n, seed=11)
        left = [unit_distance_vector(p, "left") for p in points]
        right = [unit_distance_vector(p, "right") for p in points]
        assert {len(u) for u in left + right} == {4}
        # dot vanishes exactly on Hamming-distance-1 pairs
        for x in range(1 << n):
            for y in range(1 << n):
                value = reference.dot(left[x], right[y])
                assert (value == 0) == ((x ^ y).bit_count() == 1)
                assert value == sq_dist(points[x], points[y]) - 1


class TestUnitDistanceVector:
    AXIS_SQUARE = [
        ((0, 0), (-1, 1, 0, 0), (1, 0, 0, 0)),
        ((1, 0), (0, 1, -2, 0), (1, 1, 1, 0)),
        ((0, 1), (0, 1, 0, -2), (1, 1, 0, 1)),
        ((1, 1), (1, 1, -2, -2), (1, 2, 1, 1)),
    ]

    @pytest.mark.parametrize("point,left,right", AXIS_SQUARE)
    def test_axis_square_points(self, point, left, right):
        assert unit_distance_vector(point, "left") == left
        assert unit_distance_vector(point, "right") == right

    def test_seeded_rational_point(self):
        point = hypercube_unit_embed(2, seed=1)[1]
        assert point == (Fraction(320845, 358933), Fraction(160908, 358933))
        assert unit_distance_vector(point, "left") == (
            0,
            1,
            Fraction(-641690, 358933),
            Fraction(-321816, 358933),
        )
        assert unit_distance_vector(point, "right") == (
            1,
            1,
            Fraction(320845, 358933),
            Fraction(160908, 358933),
        )

    def test_bad_side_rejected(self):
        with pytest.raises(ValueError, match="side must be"):
            unit_distance_vector((0, 0), "middle")
