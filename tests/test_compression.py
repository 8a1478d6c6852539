import itertools
import math
import random
from collections import Counter
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
    InputError,
    RetriesExhaustedError,
    SizeMismatchError,
)
from hamrank.exact import Mat, rank_exact
from hamrank.parallel import packed_dots

from . import reference
from .conftest import distinct_differences, random_mat, reference_fit


def support(z):
    return sum(1 for v in z if v != 0)


def compressed_rank(comp, rows):
    """rank(L M R^T) by the reference, from the compressor's raw factors."""
    return reference.rank(reference.compressor(comp.to_json())(rows))


def records(shortfalls, key, values):
    """The report records of the first 32 reference shortfalls, each with
    its member's ``key`` field taken from ``values``."""
    return [
        {"index": i, "achieved": got, "required": required, key: values[i]}
        for i, got, required in shortfalls[:32]
    ]


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
        fam = MatFamily.differences([m, m, Mat.zeros(2, 2)])
        assert fam.size == 2  # the zero matrix and m

    def test_mixed_shapes_rejected(self):
        with pytest.raises(SizeMismatchError):
            MatFamily.differences([Mat.zeros(2, 2), Mat.zeros(3, 3)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            MatFamily.differences([])

    def test_empty_product_checks_its_one_member(self):
        fam = MatFamily.diagonal_differences_multi([])
        comp = fit_compressor(fam, 1, seed=0)
        report = verify_compressor(comp, fam)
        assert (report.pairs_checked, report.violation_count) == (1, 0)

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
            assert compressed_rank(comp, reference.diagonal(z)) == min(support(z), 2)

    def test_zero_family(self):
        fam = MatFamily.differences([Mat.zeros(3, 3)])
        comp = fit_compressor(fam, 1, seed=5)
        assert comp.verified
        assert compressed_rank(comp, Mat.zeros(3, 3).to_lists()) == 0

    def test_identity_case(self, rng):
        mats = [random_mat(rng, 3, 3) for _ in range(4)]
        fam = MatFamily.differences(mats)
        comp = fit_compressor(fam, 3, seed=1)
        assert comp.method == "identity"
        for m in mats:
            assert comp.apply(m) == m

    def test_identity_embedding_pads(self, rng):
        mats = [random_mat(rng, 2, 2) for _ in range(3)]
        fam = MatFamily.differences(mats)
        comp = fit_compressor(fam, 4, seed=1)
        assert comp.method == "identity"
        for m in mats:
            out = comp.apply(m)
            assert out.shape == (4, 4)
            assert reference.rank(out.to_lists()) == reference.rank(m.to_lists())

    def test_rectangular_members_embed_into_a_square_target(self, rng):
        mats = [random_mat(rng, 2, 3) for _ in range(4)] + [Mat.zeros(2, 3)]
        fam = MatFamily.differences(mats)
        comp = fit_compressor(fam, 3, seed=1)
        assert comp.method == "identity"
        assert comp.target_shape == (3, 3)
        for m in mats:
            assert compressed_rank(comp, m.to_lists()) == reference.rank(m.to_lists())

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
        assert report.certified and report.pairs_checked == 3**5

    def test_zero_left_flags_every_nonzero_member(self):
        fam = MatFamily.diagonal_differences(4, (0, 1))
        comp = fit_compressor(fam, 2, seed=9)
        broken = Compressor(left=Mat.zeros(2, 4), right=comp.right, seed=0, verified=False)
        report = verify_compressor(broken, fam)
        patterns = itertools.product(*fam.diag_values)
        want = [
            {"index": i, "achieved": 0, "required": min(support(p), 2), "pattern": list(p)}
            for i, p in enumerate(patterns)
            if support(p) > 0
        ]
        assert report.pairs_checked == 3**4
        assert report.violation_count == len(want) > 32
        assert list(report.violations) == want[:32]

    def test_zero_left_on_explicit_family_records_entries(self, rng):
        members = [random_mat(rng, 3, 3, bound=4) for _ in range(40)]
        fam = MatFamily.differences([Mat.zeros(3, 3)] + members)
        right = random_mat(rng, 2, 3)
        broken = Compressor(left=Mat.zeros(2, 3), right=right, seed=0, verified=False)
        report = verify_compressor(broken, fam)
        want = [
            {
                "index": i,
                "achieved": 0,
                "required": min(rank, 2),
                "entries": [str(e) for e in fam.member(i).entries],
            }
            for i, rank in enumerate(fam.member_ranks)
            if rank > 0
        ]
        assert report.pairs_checked == fam.size
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
            rows = m.to_lists()
            assert compressed_rank(comp, rows) <= min(reference.rank(rows), 2, 2)


def difference_tables(rng):
    """(name, bases): random integer tables, a rank-2 table of 4 x 4
    products, and tables with repeated and zero bases."""
    square = [random_mat(rng, 3, 3, bound=2) for _ in range(6)]
    low = [
        random_mat(rng, 4, 2, bound=2).mul(random_mat(rng, 2, 4, bound=2))
        for _ in range(7)
    ]
    return [
        ("random-3x3", [random_mat(rng, 3, 3, bound=1) for _ in range(9)]),
        ("random-4x4", [random_mat(rng, 4, 4, bound=3) for _ in range(6)]),
        ("rectangular", [random_mat(rng, 3, 4, bound=2) for _ in range(6)]),
        ("rank-2", low),
        ("repeats", square + square[:3] + [Mat.zeros(3, 3)] * 2),
    ]


def deficient_compressors(rng, a, b, k):
    """A random compressor, one whose L repeats its first row, one whose R
    has a zero first column, and the zero-left map, all onto k x k."""
    left, right = random_mat(rng, k, a, bound=3), random_mat(rng, k, b, bound=3)
    repeated = Mat(k, a, left.entries[:a] * 2 + left.entries[2 * a :])
    zero_col = Mat(k, b, tuple(e * bool(j % b) for j, e in enumerate(right.entries)))
    factors = [(left, right), (repeated, right), (left, zero_col), (Mat.zeros(k, a), right)]
    return [Compressor(lf, rf, seed=0, verified=False) for lf, rf in factors]


class TestDifferenceFamily:
    """The difference family compresses each base once and ranks member
    (x, y) as C(B_x) - C(B_y); a member-by-member check is the reference."""

    def test_shortfalls_and_records_are_the_per_member_check(self):
        rng = random.Random("differences")
        failing = 0
        for name, bases in difference_tables(rng):
            fam, members = MatFamily.differences(bases), distinct_differences(bases)
            assert fam.size == len(members)
            assert [fam.member(i) for i in range(fam.size)] == members
            rows = [m.to_lists() for m in members]
            assert fam.member_ranks == tuple(map(reference.rank, rows))
            a, b = fam.shape
            for comp in deficient_compressors(rng, a, b, 2):
                want = list(reference.compressor_failures(comp.to_json(), rows))
                assert list(compression._shortfalls(comp, fam)) == want, name
                report = verify_compressor(comp, fam)
                assert (report.pairs_checked, report.violation_count) == (
                    fam.size,
                    len(want),
                )
                entries = [[str(e) for e in m.entries] for m in members]
                assert list(report.violations) == records(want, "entries", entries)
                failing += bool(want)
        # the repeated row and the zero left fail every table's rank-2 members
        assert failing >= 10

    def test_fit_keeps_the_per_member_draw(self, monkeypatch):
        # entries from [-1, 1] first: early draws fail, and the range doubles
        monkeypatch.setattr(compression, "ENTRY_RANGE", 1)
        rng = random.Random(5)
        retried = 0
        for name, bases in difference_tables(rng):
            fam, members = MatFamily.differences(bases), distinct_differences(bases)
            for size in (1, 2):
                for seed in range(4):
                    want = reference_fit(members, size, seed)
                    comp = fit_compressor(fam, size, seed)
                    got = (comp.left, comp.right, comp.retries, comp.entry_range)
                    assert got == want, (name, size, seed)
                    retried += comp.retries > 0
        assert retried >= 5

    def test_a_draw_applies_the_compressor_once_per_base(self, monkeypatch):
        rng = random.Random(8)
        bases = [random_mat(rng, 3, 3, bound=2) for _ in range(9)]
        fam = MatFamily.differences(bases)
        # 36 distinct differences of x < y and the one zero member of x = y
        assert fam.size == 9 * 8 // 2 + 1
        applied = []
        apply = Compressor.apply
        monkeypatch.setattr(
            Compressor, "apply", lambda comp, m: applied.append(m) or apply(comp, m)
        )
        comp = fit_compressor(fam, 2, seed=3)
        assert comp.retries == 0 and len(applied) <= len(bases)
        applied.clear()
        # the zero map fails every draw
        monkeypatch.setattr(compression, "ENTRY_RANGE", 0)
        with pytest.raises(RetriesExhaustedError):
            fit_compressor(fam, 2, seed=3)
        assert len(applied) <= compression.FIT_DRAWS * len(bases)


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

    @pytest.mark.parametrize(
        "alphabets",
        [
            ((0, 1, 2), (5,), (-3, 4), (-1, 0, 1, 7), (0, 1)),
            ((7,), (-2, -1)),
            ((0, 1),) * 6,
        ],
    )
    def test_word_map_is_apply_diag(self, rng, alphabets):
        # mixed sizes, one-letter positions and negative letters
        n = len(alphabets)
        comp = Compressor(random_mat(rng, 2, n), random_mat(rng, 2, n), 0, False)
        word = compression.word_map(comp, alphabets)
        for x in itertools.product(*alphabets):
            assert word(x) == comp.apply_diag(x)

    def test_word_map_compresses_each_half_word_once(self, monkeypatch, rng):
        alphabets = ((0, 1, 2),) * 3 + ((-1, 4),) * 3
        comp = Compressor(random_mat(rng, 3, 6), random_mat(rng, 3, 6), 0, False)
        calls = Counter()
        real = Compressor.apply_diag
        monkeypatch.setattr(
            Compressor, "apply_diag", lambda c, z: calls.update([z]) or real(c, z)
        )
        word = compression.word_map(comp, alphabets)
        for x in itertools.product(*alphabets):
            word(x)
            word(x)
        split = compression.split_positions(alphabets)[0]
        halves = math.prod(map(len, alphabets[:split]))
        halves += math.prod(map(len, alphabets[split:]))
        assert sum(calls.values()) == halves


class TestSerialization:
    def test_round_trip(self):
        fam = MatFamily.diagonal_differences(4, (0, 1))
        comp = fit_compressor(fam, 2, seed=19)
        back = Compressor.from_json(comp.to_json())
        assert back == comp

    def test_factors_with_different_row_counts_are_refused(self):
        # the target is square: both factors have k rows
        message = r"^factor shapes \(1, 3\) and \(2, 3\) do not give a square target$"
        with pytest.raises(InputError, match=message):
            Compressor(Mat.zeros(1, 3), Mat.zeros(2, 3), seed=0, verified=False)
        fam = MatFamily.diagonal_differences(3, (0, 1))
        doc = fit_compressor(fam, 1, seed=19).to_json()
        doc["right"] = Mat.zeros(2, 3).to_json()
        doc["target_shape"] = [1, 2]
        with pytest.raises(InputError, match=message):
            Compressor.from_json(doc)


def random_compressor(rng, n, rows, cols):
    return Compressor(
        left=random_mat(rng, rows, n, bound=2),
        right=random_mat(rng, cols, n, bound=2),
        seed=0,
        verified=False,
    )


WALK_FAMILIES = [
    ("binary", [(0, 1)] * 7),
    ("ternary", [(0, 1, 2)] * 5),
    ("mixed", [(0, 1), (0, 1, 2), (0, 1), (-1, 0, 3), (0, 1)]),
    ("one-letter", [(0, 1), (5,), (0, 1, 2), (7,), (0, 1)]),
]

TARGETS = [(1, 1), (2, 2)]
NON_SQUARE = [(1, 2), (2, 1), (2, 3), (3, 2)]


def family_of(alphabets):
    if len(set(alphabets)) == 1:
        return MatFamily.diagonal_differences(len(alphabets), alphabets[0])
    return MatFamily.diagonal_differences_multi(alphabets)


def assert_walk_is_brute_force(comp, fam, alphabets):
    """The walk's report against the reference on every Diag(z), in product
    order; returns the violation count."""
    value_sets = [sorted({a - b for a in alpha for b in alpha}) for alpha in alphabets]
    patterns = list(itertools.product(*value_sets))
    members = map(reference.diagonal, patterns)
    want = list(reference.compressor_failures(comp.to_json(), members))
    report = verify_compressor(comp, fam)
    assert report.pairs_checked == len(patterns)
    assert report.violation_count == len(want)
    pattern_lists = [list(z) for z in patterns]
    assert list(report.violations) == records(want, "pattern", pattern_lists)
    return len(want)


def reuse(m):
    """``m`` with column 0 reused as column 1."""
    entries = list(m.entries)
    entries[1 :: m.cols] = entries[:: m.cols]
    return Mat(m.rows, m.cols, tuple(entries))


class TestFamilyWalkMatchesBruteForce:
    @pytest.mark.parametrize("name,alphabets", WALK_FAMILIES)
    def test_the_walk_splits_into_prefix_rows_and_suffix_columns(self, name, alphabets):
        values = family_of(alphabets).diag_values
        split, count = compression.split_positions(values)
        assert 0 < split < len(values)
        assert 1 < count < math.prod(map(len, values))

    @pytest.mark.parametrize("name,alphabets", WALK_FAMILIES)
    def test_fitted_zero_left_and_random_compressors(self, name, alphabets):
        fam = family_of(alphabets)
        n = len(alphabets)
        fitted = fit_compressor(fam, 2, seed=17)
        zero_left = Compressor(
            left=Mat.zeros(2, n),
            right=fitted.right,
            seed=0,
            verified=False,
        )
        rng = random.Random(name)
        randoms = [random_compressor(rng, n, rows, cols) for rows, cols in TARGETS * 6]
        counts = [
            assert_walk_is_brute_force(comp, fam, alphabets)
            for comp in [fitted, zero_left, *randoms]
        ]
        assert counts[0] == 0
        # the zero map fails every nonzero member, over 32 of them, in index order
        assert counts[1] == fam.size - 1 > 32
        indices = [v["index"] for v in verify_compressor(zero_left, fam).violations]
        patterns = enumerate(itertools.product(*fam.diag_values))
        assert indices == [i for i, z in patterns if any(z)][:32]
        assert sum(1 for c in counts[2:] if c > 0) >= 4

    @pytest.mark.parametrize("rows,cols", NON_SQUARE)
    def test_non_square_targets(self, rows, cols):
        # factors of different row counts are refused, built or loaded
        message = (
            rf"^factor shapes \({rows}, 7\) and \({cols}, 7\) "
            "do not give a square target$"
        )
        rng = random.Random(f"{rows}x{cols}")
        with pytest.raises(InputError, match=message):
            random_compressor(rng, 7, rows, cols)
        doc = random_compressor(rng, 7, rows, rows).to_json()
        doc["right"] = random_mat(rng, cols, 7, bound=2).to_json()
        doc["target_shape"] = [rows, cols]
        with pytest.raises(InputError, match=message):
            Compressor.from_json(doc)

    @pytest.mark.parametrize("rows,cols", [*TARGETS, (3, 3)])
    def test_flags_decide_every_member_at_the_cap(
        self, monkeypatch, rows, cols
    ):
        # the packed flags decide every member at the cap, and each support
        # below it is checked once: the only exact ranks are of the columns
        # of L and R on each support of fewer than k positions; no member is
        # reranked
        calls = []
        monkeypatch.setattr(
            compression, "rank_exact", lambda m: calls.append(m) or rank_exact(m)
        )
        rng = random.Random(rows * 10 + cols)
        left = random_mat(rng, rows, 7, bound=1 << 16)
        right = random_mat(rng, cols, 7, bound=1 << 16)
        wide = Compressor(left, right, seed=0, verified=False)
        fam = MatFamily.diagonal_differences(7, (0, 1))
        assert verify_compressor(wide, fam).certified
        supports = [
            s for size in range(rows) for s in itertools.combinations(range(7), size)
        ]
        assert Counter(calls) == Counter(
            f.submatrix(range(f.rows), s) for s in supports for f in (left, right)
        )

    @pytest.mark.parametrize("name,alphabets", WALK_FAMILIES[:3])
    def test_cap_three(self, name, alphabets):
        # a fitted 3 x 3 compressor passes; with column 0 reused as column 1
        # of both factors, C(z) sees only z_0 + z_1 there, so members on
        # supports holding 0 and 1, such as (1, -1, 0, ...), fall short
        fam = family_of(alphabets)
        fitted = fit_compressor(fam, 3, seed=17)
        reused = replace(fitted, left=reuse(fitted.left), right=reuse(fitted.right))
        assert assert_walk_is_brute_force(fitted, fam, alphabets) == 0
        assert assert_walk_is_brute_force(reused, fam, alphabets) > 0
        for v in verify_compressor(reused, fam).violations:
            assert 0 not in v["pattern"][:2]

    def test_a_dependent_support_fails_every_member_on_it(self):
        # columns 0 and 1 of L are equal, so C(z) has rank 1 on every member
        # whose support is {0, 1}, whatever its values, and (generically)
        # rank 2 on every larger support: the 4 x 4 members on {0, 1} are
        # exactly the failures, each with Bareiss's achieved rank
        alphabets = [(0, 1, 2)] * 5
        rng = random.Random(3)
        entries = list(random_mat(rng, 2, 5, bound=1 << 16).entries)
        entries[1::5] = entries[::5]
        comp = Compressor(
            Mat(2, 5, tuple(entries)),
            random_mat(rng, 2, 5, bound=1 << 16),
            seed=0,
            verified=False,
        )
        fam = family_of(alphabets)
        assert assert_walk_is_brute_force(comp, fam, alphabets) == 16
        for v in verify_compressor(comp, fam).violations:
            assert 0 not in v["pattern"][:2] and v["pattern"][2:] == [0, 0, 0]
            assert (v["achieved"], v["required"]) == (1, 2)

    @pytest.mark.parametrize("rows,cols", [*TARGETS, (3, 3)])
    def test_empty_family_and_one_letter_positions(self, rows, cols):
        rng = random.Random(rows * 10 + cols)
        for alphabets in ([], [(5,)], [(5,), (3,), (0, 1)]):
            fam = MatFamily.diagonal_differences_multi(alphabets)
            comp = random_compressor(rng, len(alphabets), rows, cols)
            assert_walk_is_brute_force(comp, fam, alphabets)

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
        achieved = compressed_rank(zero, reference.diagonal(z))
        assert member["achieved"] == exc.value.achieved == achieved
        assert member["required"] == exc.value.required == min(support(z), 2)
        assert achieved != min(support(z), 2)


DET_ROW_CASES = [
    *[(7, k, (0, 1)) for k in (1, 2, 3)],
    (5, 2, (0, 1, 2)),
    (4, 2, (-1, 0, 3)),
]


class TestDetRows:
    @staticmethod
    def rows_of(comp, values):
        """{z: <us[i], vs[j]>} of ``det_vectors``, prefix i and suffix j of
        z, packed as sign-tree rows pack them, over the product of ``values``."""
        split, count = compression.split_positions(values)
        row = packed_dots(*compression.det_vectors(comp, values, split))
        out = {}
        for i, pre in enumerate(itertools.product(*values[:split])):
            dets = row(i)
            assert len(dets) == count
            for det, suf in zip(dets, itertools.product(*values[split:])):
                out[pre + suf] = det
        return out

    @pytest.mark.parametrize("n,k,alphabet", DET_ROW_CASES)
    def test_entries_are_the_determinants_and_the_oracle_dots(self, n, k, alphabet):
        from hamrank.hamming import build_hd_supp

        rep = build_hd_supp(n, k, alphabet, seed=n + k)
        values = MatFamily.diagonal_differences(n, alphabet).diag_values
        dets = self.rows_of(rep.compressor, values)
        assert list(dets) == list(itertools.product(*values))
        compress = reference.compressor(rep.compressor.to_json())
        for z, det in dets.items():
            assert det == reference.det(compress(reference.diagonal(z)))
        words = list(itertools.product(alphabet, repeat=n))
        for x, y in itertools.product(words, repeat=2):
            assert rep.dot(x, y) == dets[tuple(a - b for a, b in zip(x, y))]

    def test_a_family_with_no_live_position_has_zero_rows(self):
        comp = fit_compressor(MatFamily.diagonal_differences(4, (5,)), 2, seed=1)
        values = MatFamily.diagonal_differences(4, (5,)).diag_values
        assert self.rows_of(comp, values) == {(0, 0, 0, 0): 0}
