"""The mirrored row check against the pair-by-pair one, the sample draws
against ``randrange``, and the one module that packs exact dots."""

import ast
import itertools
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hamrank
from hamrank import parallel
from hamrank.parallel import (
    REPORT_CAP,
    RESIDUE_PRIME,
    mirrored,
    pack_residues,
    pairwise,
    sweep,
    uniform,
)

from . import reference


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


@settings(max_examples=120, deadline=None)
@given(symmetric_tables())
def test_mirrored_check_counts_what_the_pairwise_check_counts(table):
    count = len(table)
    asked = []

    def bad_from(i):
        asked.extend((i, j) for j in range(i, count))
        return [j for j in range(i, count) if table[i][j]]

    got = sweep(count, lambda: mirrored(bad_from))
    every = pairwise(lambda i, j: table[i][j])
    want = sweep(count, lambda: every)
    assert got.pairs_checked == want.pairs_checked
    assert got.violation_count == want.violation_count
    # each unordered pair once, the diagonal included, in row order
    upper = list(itertools.combinations_with_replacement(range(count), 2))
    assert asked == upper
    failures = [(i, j) for i in range(count) for j in every(i, range(count))[1]]
    assert list(got.violations) == [(i, j) for i, j in failures if i <= j][:REPORT_CAP]


@pytest.mark.parametrize(
    "bad,count",
    [([], 0), ([2], 1), ([3], 2), ([2, 3], 3), ([2, 3, 4, 5], 7)],
    ids=["none", "diagonal", "off-diagonal", "both", "whole-row"],
)
def test_mirrored_counts_the_diagonal_once_and_the_rest_twice(bad, count):
    check = mirrored(lambda i: bad)
    assert check(2, range(6)) == (count, bad)


def test_mirrored_dense_failures_fill_the_report_in_row_order():
    got = sweep(12, lambda: mirrored(lambda i: list(range(i, 12))))
    assert got.violation_count == 144
    upper = itertools.combinations_with_replacement(range(12), 2)
    assert got.violations == tuple(itertools.islice(upper, REPORT_CAP))


@pytest.mark.parametrize(
    "rows",
    [[1], [0, 2], [0, 1, 1], [0, 1, 2, 3, 0]],
    ids=["first-skipped", "middle-skipped", "repeated", "restarted"],
)
def test_mirrored_rows_are_the_same_in_any_order(rows):
    """Each row's result is its own: no row depends on the rows checked
    before it, or on the columns it is given."""

    def bad_from(i):
        return [j for j in range(i, 4) if (i + j) % 3 == 0]

    fresh = [mirrored(bad_from)(i, ()) for i in range(4)]
    check = mirrored(bad_from)
    assert [check(i, range(4)) for i in rows] == [fresh[i] for i in rows]
    assert fresh == [(3, [0, 3]), (2, [2]), (0, []), (1, [3])]


def test_row_checks_keep_no_state():
    """A row check is a function of its row alone: ``parallel`` rebinds
    no name of an enclosing scope, so no check counts or replays rows."""
    tree = ast.parse(Path(parallel.__file__).read_text())
    assert not [node for node in ast.walk(tree) if isinstance(node, ast.Nonlocal)]


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


# bias bit lengths on both sides of the one- and two-word slot boundaries
# (a slot of W bytes holds a bias of at most 8 W - 2 bits), and a few wider
SLOT_BITS = [*range(60, 67), *range(124, 131), 20, 140, 200]


@st.composite
def dot_grids(draw):
    """(us, vs, bits): vectors whose packing bias has ``bits`` bits, one
    pinned coordinate carrying it, with negative entries, a coordinate no
    left vector weighs, an all-zero right vector and one-column grids."""
    bits = draw(st.sampled_from(SLOT_BITS))
    dim = draw(st.integers(1, 4))
    rows = draw(st.integers(1, 4))
    count = draw(st.integers(1, 7))
    small = st.integers(-(1 << 6), 1 << 6)
    us = [draw(st.lists(small, min_size=dim, max_size=dim)) for _ in range(rows)]
    vs = [draw(st.lists(small, min_size=dim, max_size=dim)) for _ in range(count)]
    if dim > 1 and draw(st.booleans()):
        for u in us:
            u[1] = 0  # no row weighs coordinate 1
    if count > 1 and draw(st.booleans()):
        vs[draw(st.integers(1, count - 1))] = [0] * dim
    # coordinate 0 carries 2^(bits - 1) of the bias, the rest under 2^14,
    # so bitlen(bias) = bits
    left = draw(st.integers(0, bits - 1))
    top_u, top_v = 1 << left, 1 << (bits - 1 - left)
    us[0][0] = draw(st.sampled_from([top_u, -top_u]))
    vs[0][0] = draw(st.sampled_from([top_v, -top_v]))
    for vec, top in [*((u, top_u) for u in us[1:]), *((v, top_v) for v in vs[1:])]:
        vec[0] = draw(st.integers(-top, top))
    return us, vs, bits


@settings(max_examples=150, deadline=None)
@given(grid=dot_grids(), data=st.data())
def test_packed_dots_are_the_reference_dots(grid, data):
    """Row i from column lo is <us[i], vs[j]> for every j >= lo, at lo 0,
    in the middle and at the last column, whatever the slot width."""
    us, vs, bits = grid
    _, width, bias = parallel.pack_columns(us, vs, 2)
    assert bias.bit_length() == bits
    assert width % 8 == 0 if width <= 16 else width == (bits + 9) // 8
    dots = parallel.packed_dots(us, vs)
    count = len(vs)
    i = data.draw(st.integers(0, len(us) - 1))
    for lo in sorted({0, count // 2, count - 1}):
        want = [reference.dot(us[i], v) for v in vs[lo:]]
        assert dots(i, lo) == want


@pytest.mark.parametrize("bits", SLOT_BITS)
def test_cast_slots_are_whole_words_and_wider_ones_keep_byte_widths(bits):
    us, vs = [[1 << (bits - 1)]], [[1], [-1]]
    _, bytewise, bias = parallel.pack_columns(us, vs)
    _, width, _ = parallel.pack_columns(us, vs, 2)
    assert bias.bit_length() == bits
    assert bytewise == (bits + 1 + 8) // 8  # bitlen(2 bias) + 1, in whole bytes
    assert width == (-(-bytewise // 8) * 8 if bytewise <= 16 else bytewise)


def grid(scale):
    """Dots of about ``scale`` bits: one-word slots at 2^20, two at 2^100."""
    return [[3, -5, 0], [-7, 5, 0]], [[scale, 9, 4], [0, 0, 0], [-2, scale, -1]]


@pytest.mark.parametrize("scale", [1 << 20, 1 << 100])
def test_a_big_endian_host_reads_every_slot_from_bytes(monkeypatch, scale):
    def no_cast(*args):
        raise AssertionError("cast a row on a big-endian host")

    monkeypatch.setattr(sys, "byteorder", "big")
    monkeypatch.setattr(parallel, "memoryview", no_cast, raising=False)
    us, vs = grid(scale)
    want = [[reference.dot(u, v) for v in vs] for u in us]
    dots = parallel.packed_dots(us, vs)
    assert [dots(i) for i in range(len(us))] == want
    assert [dots(i, 1) for i in range(len(us))] == [row[1:] for row in want]
