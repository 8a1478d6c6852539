import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamrank.errors import InputError, NonSquareError, SizeMismatchError
from hamrank.exact import (
    Mat,
    block_diag,
    det_exact,
    pattern_blocks,
    rank_exact,
)

from . import reference
from .conftest import random_mat

small_entries = st.integers(min_value=-50, max_value=50)


def square_mats(max_n=5):
    return st.integers(min_value=0, max_value=max_n).flatmap(
        lambda n: st.lists(
            small_entries, min_size=n * n, max_size=n * n
        ).map(lambda es: Mat(n, n, tuple(es)))
    )


class TestConstruction:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Mat(2, 2, (1, 2, 3))

    def test_rejects_non_int_entries(self):
        with pytest.raises(TypeError):
            Mat(1, 1, (1.5,))

    def test_json_round_trip(self, rng):
        m = random_mat(rng, 3, 4, bound=10**30)
        assert Mat.from_json(m.to_json()) == m
        assert all(isinstance(e, str) for e in m.to_json()["entries"])

    @pytest.mark.parametrize(
        "entries",
        [[1.5], [True], ["+1"], [" 1"], ["1_0"], ["1.0"], ["\u0661"], "1"],
        ids=["float", "bool", "plus", "space", "underscore", "decimal-point",
             "arabic-digit", "string"],
    )
    def test_json_entries_are_ints_or_decimal_strings(self, entries):
        # each of these reads as the 1 x 1 matrix (1) under int()
        with pytest.raises(InputError):
            Mat.from_json({"rows": 1, "cols": 1, "entries": entries})
        assert Mat.from_json({"rows": 1, "cols": 1, "entries": [1]}) == Mat.identity(1)

    def test_json_entries_string_is_not_split_into_digits(self):
        with pytest.raises(InputError):
            Mat.from_json({"rows": 1, "cols": 2, "entries": "12"})
        doc = {"rows": 1, "cols": 2, "entries": ["-12", 7]}
        assert Mat.from_json(doc) == Mat(1, 2, (-12, 7))
        with pytest.raises(ValueError):
            Mat.from_json({"rows": 1, "cols": 2, "entries": ["1,2", "3"]})
        doc = {"rows": 1, "cols": 3, "entries": ["-0", "007", str(-(10**40))]}
        assert Mat.from_json(doc) == Mat(1, 3, (0, 7, -(10**40)))


class TestDet:
    def test_empty_matrix_is_one(self):
        assert det_exact(Mat.zeros(0, 0)) == 1

    def test_two_by_two(self):
        assert det_exact(Mat.from_rows([[1, 2], [3, 4]])) == -2

    def test_non_square_rejected(self):
        with pytest.raises(NonSquareError):
            det_exact(Mat.zeros(2, 3))

    def test_matches_cofactor_oracle_on_random_5x5(self):
        rng = random.Random(5)
        for _ in range(30):
            m = random_mat(rng, 5, 5)
            assert det_exact(m) == reference.det_cofactor(m.to_lists())

    def test_singular(self):
        m = Mat.from_rows([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
        assert det_exact(m) == 0

    def test_matches_cofactor_oracle_on_sparse_matrices(self):
        # mostly-zero rows make the pivot search swap rows and columns
        rng = random.Random(6)
        for _ in range(300):
            n = rng.randint(1, 5)
            entries = [rng.choice((0, 0, 0, rng.randint(-9, 9))) for _ in range(n * n)]
            m = Mat(n, n, tuple(entries))
            assert det_exact(m) == reference.det_cofactor(m.to_lists())


class TestRank:
    def test_diagonal_counts_nonzeros(self):
        assert rank_exact(Mat.diag((1, -1, 0))) == 2

    def test_identity(self):
        assert rank_exact(Mat.identity(4)) == 4

    def test_outer_product_stack_is_rank_one(self):
        # rows (1,2,3)*(4,5,6)^T outer product stacked with its double
        outer = [[u * v for v in (4, 5, 6)] for u in (1, 2, 3)]
        stacked = Mat.from_rows(outer + [[2 * e for e in row] for row in outer])
        assert reference.brute_rank(stacked.to_lists()) == 1
        assert rank_exact(stacked) == 1

    def test_matches_brute_force_on_random(self):
        rng = random.Random(17)
        for _ in range(25):
            m = random_mat(rng, rng.randint(1, 4), rng.randint(1, 4), bound=3)
            assert rank_exact(m) == reference.brute_rank(m.to_lists())

    def test_zero_and_empty(self):
        assert rank_exact(Mat.zeros(3, 3)) == 0
        assert rank_exact(Mat.zeros(0, 5)) == 0


class TestBlockDiag:
    def test_empty(self):
        assert block_diag([]) == Mat.zeros(0, 0)

    def test_rank_additivity(self, rng):
        rank2 = Mat.from_rows([[1, 0, 0], [0, 1, 0], [1, 1, 0]])
        rank1 = Mat.from_rows([[2, 4], [1, 2]])
        assembled = block_diag([rank2, rank1])
        assert rank_exact(rank2) == 2 and rank_exact(rank1) == 1
        assert rank_exact(assembled) == 3

    def test_rectangular_blocks(self):
        b = block_diag([Mat.zeros(1, 2), Mat.identity(2)])
        assert b.shape == (3, 4)
        assert rank_exact(b) == 2


class TestPatternBlocks:
    def test_components_of_the_union_pattern(self):
        # rows 0 and 2 meet in column 1; rows 1 and 3 meet in column 3 only
        # across the two matrices; columns 2 and 4 are zero in both
        a = Mat.from_rows(
            [[0, 5, 0, 0, 0], [7, 0, 0, 0, 0], [0, 0, 0, 0, 0], [0, 0, 0, 0, 0]]
        )
        b = Mat.from_rows(
            [[0, 0, 0, 0, 0], [0, 0, 0, 1, 0], [0, 2, 0, 0, 0], [0, 0, 0, 3, 0]]
        )
        assert pattern_blocks([a, b]) == [((0, 2), (1,)), ((1, 3), (0, 3))]

    def test_no_nonzeros_no_blocks(self):
        assert pattern_blocks([]) == []
        assert pattern_blocks([Mat.zeros(3, 2), Mat.zeros(3, 2)]) == []
        assert pattern_blocks([Mat.zeros(0, 4)]) == []

    def test_mixed_shapes_refused(self):
        with pytest.raises(SizeMismatchError):
            pattern_blocks([Mat.zeros(1, 1), Mat.zeros(2, 2)])

    def test_block_diagonal_assembly_splits_back(self):
        m = block_diag([Mat.identity(2), Mat.zeros(1, 1), Mat.from_rows([[1, 1]])])
        assert pattern_blocks([m]) == [((0,), (0,)), ((1,), (1,)), ((3,), (3, 4))]


class TestInvariants:
    @settings(max_examples=40, deadline=None)
    @given(square_mats())
    def test_det_nonzero_iff_full_rank(self, m):
        assert (det_exact(m) != 0) == (rank_exact(m) == m.rows)

    @settings(max_examples=40, deadline=None)
    @given(square_mats(4), st.integers(min_value=0, max_value=3))
    def test_laplace_expansion_along_any_row(self, m, row):
        if m.rows == 0:
            return
        row %= m.rows
        n = m.rows
        total = 0
        for j in range(n):
            sub = m.submatrix(
                [i for i in range(n) if i != row], [c for c in range(n) if c != j]
            )
            total += (-1) ** (row + j) * m.at(row, j) * det_exact(sub)
        assert total == det_exact(m)

    @settings(max_examples=40, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_rank_invariant_under_permutation_and_scaling(self, hrng):
        m = random_mat(hrng, hrng.randint(1, 4), hrng.randint(1, 4))
        base = rank_exact(m)
        rows = list(range(m.rows))
        hrng.shuffle(rows)
        cols = list(range(m.cols))
        hrng.shuffle(cols)
        permuted = m.submatrix(rows, cols)
        scale_row = hrng.randrange(m.rows)
        factor = hrng.choice([-3, -1, 2, 5])
        scaled = Mat.from_rows(
            [
                [factor * e for e in permuted.row(i)]
                if i == scale_row
                else list(permuted.row(i))
                for i in range(permuted.rows)
            ]
        )
        assert rank_exact(scaled) == base

    def test_rank_le_min_dims(self, rng):
        for _ in range(10):
            m = random_mat(rng, rng.randint(0, 5), rng.randint(0, 5))
            assert rank_exact(m) <= min(m.rows, m.cols)
