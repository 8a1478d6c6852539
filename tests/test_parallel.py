"""The symmetric row check against the pair-by-pair one, the sample
draws against ``randrange``, and the one module that packs exact dots."""

import ast
import itertools
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hamrank
from hamrank.parallel import (
    REPORT_CAP,
    RESIDUE_PRIME,
    pack_residues,
    pairwise,
    sweep,
    symmetric,
    uniform,
)


@st.composite
def symmetric_tables(draw):
    """A symmetric 0/1 failure table on up to 12 indices, dense enough to
    pass the report cap."""
    count = draw(st.integers(0, 12))
    density = draw(st.sampled_from([0.0, 0.05, 0.3, 1.0]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    table = [[False] * count for _ in range(count)]
    for i, j in itertools.combinations_with_replacement(range(count), 2):
        table[i][j] = table[j][i] = rng.random() < density
    return table


class TestSymmetricRowCheck:
    @settings(max_examples=120, deadline=None)
    @given(symmetric_tables())
    def test_matches_the_pairwise_check(self, table):
        count = len(table)
        asked = []

        def fails(i, j):
            asked.append((i, j))
            return table[i][j]

        got = sweep(count, lambda: symmetric(pairwise(fails)))
        assert got == sweep(count, lambda: pairwise(lambda i, j: table[i][j]))
        # each unordered pair once, the diagonal included
        upper = itertools.combinations_with_replacement(range(count), 2)
        assert sorted(asked) == list(upper)

    def test_dense_failures_fill_the_report_in_pair_order(self):
        got = sweep(12, lambda: symmetric(pairwise(lambda i, j: True)))
        assert got.violation_count == 144
        first = itertools.islice(itertools.product(range(12), repeat=2), REPORT_CAP)
        assert got.violations == tuple(first)

    @pytest.mark.parametrize(
        "rows",
        [
            [1],  # row 0 skipped
            [0, 2],  # row 1 skipped
            [0, 1, 1],  # a row twice
            [0, 1, 2, 3, 0],  # a second sweep through one check
        ],
        ids=["first-skipped", "middle-skipped", "repeated", "restarted"],
    )
    def test_refuses_rows_out_of_order(self, rows):
        check = symmetric(pairwise(lambda i, j: False))
        *before, last = rows
        for i in before:
            check(i, range(4))
        with pytest.raises(ValueError, match="whole rows in index order"):
            check(last, range(4))

    @pytest.mark.parametrize(
        "cols",
        [(2,), range(1, 4), range(0, 4, 2), [0, 1, 2, 3], range(0)],
        ids=["sampled-pair", "tail", "strided", "list", "empty"],
    )
    def test_refuses_partial_rows(self, cols):
        check = symmetric(pairwise(lambda i, j: False))
        with pytest.raises(ValueError, match="whole rows in index order"):
            check(0, cols)

    def test_refuses_a_row_of_another_width(self):
        check = symmetric(pairwise(lambda i, j: False))
        check(0, range(4))
        with pytest.raises(ValueError, match="whole rows in index order"):
            check(1, range(5))

    def test_refuses_sample_mode(self):
        def never(i, j):
            raise AssertionError("evaluated a sampled pair")

        check = symmetric(pairwise(never))
        with pytest.raises(ValueError, match="whole rows in index order"):
            sweep(4, lambda: check, sample=3, rng=random.Random(0))


@pytest.mark.parametrize("count", [1, 2, 3, 7, 512, 2048, 2187, 3**15, 2**64 + 1])
def test_uniform_draws_the_randrange_stream(count):
    for seed in range(5):
        draw, reference = uniform(random.Random(seed), count), random.Random(seed)
        drawn = [draw() for _ in range(1000)]
        assert drawn == [reference.randrange(count) for _ in range(1000)]


class NoBits(random.Random):
    """A stream that fails a test drawing from it, where a draw from an
    empty range would loop for ever."""

    def getrandbits(self, k):
        raise AssertionError("drew from an empty range")


@pytest.mark.parametrize("count", [0, -1])
def test_uniform_refuses_an_empty_range_before_any_draw(count):
    with pytest.raises(ValueError, match="empty range"):
        uniform(NoBits(0), count)


def test_sampled_sweep_refuses_an_empty_grid_before_prepare():
    def prepare():
        raise AssertionError("prepared a check over an empty grid")

    with pytest.raises(ValueError, match="empty range"):
        sweep(0, prepare, sample=5, rng=NoBits(0))


def test_only_signcompile_packs_dots():
    """``packed_dots`` is named in the package by its definition in
    ``parallel`` and by ``signcompile``, the one site that packs an
    oracle's vectors, and by no other module."""
    naming = set()
    for path in Path(hamrank.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            named = (
                getattr(node, "id", None),  # a name
                getattr(node, "attr", None),  # an attribute
                getattr(node, "name", None),  # a def or an imported name
                getattr(node, "asname", None),
            )
            if "packed_dots" in named:
                naming.add(path.stem)
    assert naming == {"parallel", "signcompile"}


@settings(max_examples=60, deadline=None)
@given(
    dim=st.sampled_from([1, 2, 6, 20, 70, 924]),
    data=st.data(),
)
def test_residue_digit_is_the_dot_mod_the_prime(dim, data):
    """The middle digit of left(u) * right(v) is sum (u_c mod P)(v_c mod P)
    with no carry in from the lower digits, for any entries, the largest
    residues included."""
    left, right, shift, mask = pack_residues(dim)
    big = st.integers(-(1 << 120), 1 << 120)
    edge = st.sampled_from([0, -1, RESIDUE_PRIME - 1, RESIDUE_PRIME, -RESIDUE_PRIME])
    u = data.draw(st.lists(big | edge, min_size=dim, max_size=dim))
    v = data.draw(st.lists(big | edge, min_size=dim, max_size=dim))
    digit = left(u) * right(v) >> shift & mask
    P = RESIDUE_PRIME
    assert digit == sum((a % P) * (b % P) for a, b in zip(u, v))
    assert digit % P == sum(a * b for a, b in zip(u, v)) % P


@pytest.mark.parametrize("dim", [1, 2, 6, 20, 70, 252, 924])
def test_every_residue_at_its_largest_still_carries_nothing(dim):
    """With every residue P - 1, digit t of the product holds
    min(t, 2 dim - 2 - t) + 1 terms (P - 1)^2, dim of them in the middle
    one, the most a digit can hold: each digit reads its own sum."""
    left, right, shift, mask = pack_residues(dim)
    width = mask.bit_length()
    assert shift == (dim - 1) * width
    product = left([-1] * dim) * right([RESIDUE_PRIME - 1] * dim)
    digits = [product >> t * width & mask for t in range(2 * dim)]
    terms = [min(t, 2 * dim - 2 - t) + 1 for t in range(2 * dim - 1)] + [0]
    assert digits == [m * (RESIDUE_PRIME - 1) ** 2 for m in terms]
