import itertools
import random
from dataclasses import replace

import pytest

from hamrank import compression
from hamrank.compression import (
    Compressor,
    MatFamily,
    certified,
    fit_compressor,
    nth_product,
    verify_compressor,
)
from hamrank.errors import (
    BudgetExceededError,
    RetriesExhaustedError,
    SizeMismatchError,
)
from hamrank.exact import Mat, rank_exact

from .conftest import random_mat


def support(z):
    return sum(1 for v in z if v != 0)


class TestMatFamily:
    def test_diagonal_differences_binary_count(self):
        for n in (2, 4, 6):
            fam = MatFamily.diagonal_differences(n, (0, 1))
            assert fam.size == 3**n

    def test_diagonal_differences_cover_all_pairs(self):
        fam = MatFamily.diagonal_differences(3, (0, 1))
        patterns = set(itertools.product(*fam.diag_values))
        for x in itertools.product((0, 1), repeat=3):
            for y in itertools.product((0, 1), repeat=3):
                diff = tuple(a - b for a, b in zip(x, y))
                assert diff in patterns

    def test_multi_alphabet(self):
        fam = MatFamily.diagonal_differences_multi([(0, 1), (0, 1, 2)])
        assert fam.shape == (2, 2)
        assert fam.size == 3 * 5

    def test_family_budget_checked_before_enumeration(self):
        assert MatFamily.diagonal_differences(15, (0, 1)).size == 3**15
        with pytest.raises(BudgetExceededError):
            MatFamily.diagonal_differences(16, (0, 1))
        with pytest.raises(BudgetExceededError):
            MatFamily.diagonal_differences_multi([(0, 1, 2)] * 11)

    def test_explicit_dedupe(self, rng):
        m = random_mat(rng, 2, 2)
        fam = MatFamily.from_members([m, m, Mat.zeros(2, 2)])
        assert fam.size == 2

    def test_mixed_shapes_rejected(self):
        with pytest.raises(SizeMismatchError):
            MatFamily.from_members([Mat.zeros(2, 2), Mat.zeros(3, 3)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            MatFamily.from_members([])

    def test_empty_product_checks_its_one_member(self):
        fam = MatFamily.diagonal_differences_multi([])
        comp = fit_compressor(fam, 1, seed=0)
        report = verify_compressor(comp, fam)
        assert (report.checked, report.violation_count) == (1, 0)

    def test_nth_product_enumerates_product_order(self):
        values = [(0, 1), (5,), (-2, 0, 7), range(4)]
        expected = list(itertools.product(*values))
        assert [nth_product(i, values) for i in range(len(expected))] == expected


class TestFit:
    def test_sign_patterns_3cube_onto_2x2(self):
        # family {Diag(z) : z in {-1,0,1}^3}: compression must realize
        # min(#supp(z), 2) on all 27 members
        patterns = list(itertools.product((-1, 0, 1), repeat=3))
        fam = MatFamily.diagonal_differences(3, (0, 1))
        assert list(itertools.product(*fam.diag_values)) == patterns
        comp = fit_compressor(fam, 2, seed=101)
        assert comp.verified
        for z in patterns:
            assert rank_exact(comp.apply(Mat.diag(z))) == min(support(z), 2)

    def test_zero_family(self):
        fam = MatFamily.from_members([Mat.zeros(3, 3)])
        comp = fit_compressor(fam, 1, seed=5)
        assert comp.verified
        assert rank_exact(comp.apply(Mat.zeros(3, 3))) == 0

    def test_identity_case(self, rng):
        mats = [random_mat(rng, 3, 3) for _ in range(4)]
        fam = MatFamily.from_members(mats)
        comp = fit_compressor(fam, 3, seed=1)
        assert comp.method == "identity"
        for m in mats:
            assert comp.apply(m) == m

    def test_identity_embedding_pads(self, rng):
        mats = [random_mat(rng, 2, 2) for _ in range(3)]
        fam = MatFamily.from_members(mats)
        comp = fit_compressor(fam, 4, seed=1)
        assert comp.method == "identity"
        for m in mats:
            out = comp.apply(m)
            assert out.shape == (4, 4)
            assert rank_exact(out) == rank_exact(m)

    def test_rectangular_members_embed_into_a_square_target(self, rng):
        mats = [random_mat(rng, 2, 3) for _ in range(4)] + [Mat.zeros(2, 3)]
        fam = MatFamily.from_members(mats)
        comp = fit_compressor(fam, 3, seed=1)
        assert comp.method == "identity"
        assert comp.target_shape == (3, 3)
        for m in mats:
            assert rank_exact(comp.apply(m)) == rank_exact(m)

    def test_determinism(self):
        fam = MatFamily.diagonal_differences(4, (0, 1))
        a = fit_compressor(fam, 2, seed=77)
        b = fit_compressor(fam, 2, seed=77)
        assert a.left == b.left and a.right == b.right

    def test_retries_exhausted_carries_context(self, monkeypatch):
        fam = MatFamily.diagonal_differences(3, (0, 1))
        # an entry range of zero draws the zero map, which cannot verify
        monkeypatch.setattr(compression, "ENTRY_RANGE", 0)
        with pytest.raises(RetriesExhaustedError) as exc:
            fit_compressor(fam, 2, seed=3)
        assert exc.value.member is not None
        assert exc.value.achieved != exc.value.required


class TestVerify:
    def test_fitted_compressor_clean(self):
        fam = MatFamily.diagonal_differences(5, (0, 1))
        comp = fit_compressor(fam, 2, seed=9)
        report = verify_compressor(comp, fam)
        assert report.ok and report.checked == 3**5

    def test_zero_left_flags_every_nonzero_member(self):
        fam = MatFamily.diagonal_differences(3, (0, 1))
        comp = fit_compressor(fam, 2, seed=9)
        broken = Compressor(left=Mat.zeros(2, 3), right=comp.right, seed=0, verified=False)
        report = verify_compressor(broken, fam)
        patterns = itertools.product(*fam.diag_values)
        nonzero_members = sum(1 for p in patterns if support(p) > 0)
        assert report.violation_count == nonzero_members

    def test_zero_left_on_explicit_family_records_entries(self, rng):
        members = [random_mat(rng, 3, 3, bound=4) for _ in range(40)]
        fam = MatFamily.from_members([Mat.zeros(3, 3)] + members)
        right = random_mat(rng, 2, 3)
        broken = Compressor(left=Mat.zeros(2, 3), right=right, seed=0, verified=False)
        report = verify_compressor(broken, fam)
        want = [
            {
                "index": i,
                "achieved": 0,
                "required": min(rank, 2),
                "entries": [str(e) for e in m.entries],
            }
            for i, (m, rank) in enumerate(zip(fam.explicit, fam.member_ranks))
            if rank > 0
        ]
        assert report.checked == fam.size
        assert report.violation_count == len(want) > 32
        assert list(report.violations) == want[:32]

    def test_shape_mismatch_rejected(self):
        fam = MatFamily.diagonal_differences(3, (0, 1))
        comp = fit_compressor(MatFamily.diagonal_differences(4, (0, 1)), 2, seed=1)
        with pytest.raises(SizeMismatchError):
            verify_compressor(comp, fam)

    def test_rank_never_increases_even_unverified(self, rng):
        # rank(L M R^T) <= min(rank M, a', b') holds for any linear map
        fam_mats = [random_mat(rng, 3, 3, bound=4) for _ in range(6)]
        left = random_mat(rng, 2, 3)
        right = random_mat(rng, 2, 3)
        comp = Compressor(
            left=left,
            right=right,
            seed=0,
            verified=False,
        )
        for m in fam_mats:
            assert rank_exact(comp.apply(m)) <= min(rank_exact(m), 2, 2)


class TestCertified:
    def test_marks_verified_or_names_the_first_violation(self):
        fam = MatFamily.diagonal_differences(3, (0, 1))
        ones = Mat(1, 3, (1, 1, 1))
        comp = Compressor(ones, ones, 0, verified=False, method="weights")
        report = verify_compressor(comp, fam)  # (1, -1, 0) sums to zero
        message = "^weights compressor failed family verification$"
        with pytest.raises(RetriesExhaustedError, match=message) as exc:
            certified(comp, report)
        assert exc.value.member == report.violations[0]
        comp = replace(comp, left=Mat(1, 3, (1, 2, 4)))
        verified = certified(comp, verify_compressor(comp, fam))
        assert verified == replace(comp, verified=True)


class TestDiagonalFastPath:
    def test_apply_diag_matches_dense(self, rng):
        fam = MatFamily.diagonal_differences(4, (0, 1, 2))
        comp = fit_compressor(fam, 2, seed=13)
        for z in list(itertools.product(*fam.diag_values))[::7]:
            assert comp.apply_diag(z) == comp.apply(Mat.diag(z))

    def test_diagonal_apply_is_outer_product_sum(self):
        fam = MatFamily.diagonal_differences(3, (0, 1))
        comp = fit_compressor(fam, 2, seed=3)
        z = (1, -1, 1)
        total = Mat.zeros(2, 2)
        for i, zi in enumerate(z):
            p = [comp.left.at(r, i) for r in range(2)]
            q = [comp.right.at(r, i) for r in range(2)]
            total = total + Mat.from_rows([[zi * a * b for b in q] for a in p])
        assert comp.apply_diag(z) == total


class TestSerialization:
    def test_round_trip(self):
        fam = MatFamily.diagonal_differences(4, (0, 1))
        comp = fit_compressor(fam, 2, seed=19)
        back = Compressor.from_json(comp.to_json())
        assert back == comp


def brute_force_report(comp, alphabets, cap=32):
    """The compression report by definition: every Diag(z) in product order."""
    value_sets = [sorted({a - b for a in alpha for b in alpha}) for alpha in alphabets]
    a1, b1 = comp.target_shape
    checked = count = 0
    records = []
    for index, z in enumerate(itertools.product(*value_sets)):
        checked += 1
        required = min(support(z), a1, b1)
        achieved = rank_exact(comp.apply(Mat.diag(z)))
        if achieved != required:
            count += 1
            if len(records) < cap:
                records.append(
                    {
                        "index": index,
                        "achieved": achieved,
                        "required": required,
                        "pattern": list(z),
                    }
                )
    return {"checked": checked, "violation_count": count, "violations": records}


def random_compressor(rng, n, rows, cols):
    return Compressor(
        left=random_mat(rng, rows, n, bound=2),
        right=random_mat(rng, cols, n, bound=2),
        seed=0,
        verified=False,
    )


WALK_FAMILIES = [
    ("binary", [(0, 1)] * 4),
    ("ternary", [(0, 1, 2)] * 3),
    ("multi", [(0, 1), (0, 1, 2)]),
    ("one-letter", [(0, 1), (5,), (0, 1, 2)]),
]


class TestFamilyWalkMatchesBruteForce:
    @pytest.mark.parametrize("name,alphabets", WALK_FAMILIES)
    def test_fitted_zero_left_and_random_compressors(self, name, alphabets):
        if len(set(alphabets)) == 1:
            fam = MatFamily.diagonal_differences(len(alphabets), alphabets[0])
        else:
            fam = MatFamily.diagonal_differences_multi(alphabets)
        n = len(alphabets)
        fitted = fit_compressor(fam, 2, seed=17)
        zero_left = Compressor(
            left=Mat.zeros(2, n),
            right=fitted.right,
            seed=0,
            verified=False,
        )
        rng = random.Random(name)
        randoms = [
            random_compressor(rng, n, rows, cols)
            for rows, cols in [(1, 1), (2, 2), (1, 2), (2, 1), (2, 3)] * 2
        ]
        counts = []
        for comp in [fitted, zero_left, *randoms]:
            expected = brute_force_report(comp, alphabets)
            report = verify_compressor(comp, fam)
            assert report.checked == expected["checked"]
            assert report.violation_count == expected["violation_count"]
            assert list(report.violations) == expected["violations"]
            counts.append(expected["violation_count"])
        assert counts[0] == 0
        # the zero map fails every nonzero member (over 32 for two families)
        assert counts[1] == fam.size - 1
        assert sum(1 for c in counts[2:] if c > 0) >= 4

    def test_retries_exhausted_member_really_violates(self, monkeypatch):
        fam = MatFamily.diagonal_differences(3, (0, 1, 2))
        monkeypatch.setattr(compression, "ENTRY_RANGE", 0)
        with pytest.raises(RetriesExhaustedError) as exc:
            fit_compressor(fam, 2, seed=3)
        member = exc.value.member
        z = tuple(member["pattern"])
        patterns = list(itertools.product(range(-2, 3), repeat=3))
        assert patterns[member["index"]] == z
        zero = Compressor(
            left=Mat.zeros(2, 3),
            right=Mat.zeros(2, 3),
            seed=0,
            verified=False,
        )
        achieved = rank_exact(zero.apply(Mat.diag(z)))
        assert member["achieved"] == exc.value.achieved == achieved
        assert member["required"] == exc.value.required == min(support(z), 2)
        assert achieved != min(support(z), 2)
