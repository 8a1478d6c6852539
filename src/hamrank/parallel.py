"""The pair-sweep core: exhaustive or sampled checks over an index grid.

Every certificate that compares a construction with ground truth pair by
pair runs through ``sweep``.  The caller supplies one check per row that
evaluates a whole row in one pass and returns its failure count with its
first failing columns (``pairwise`` makes one from a pair test, and
``mirrored`` one from the failing columns j >= i of a table that fails at
(j, i) where it fails at (i, j), deciding each unordered pair once and
counting both its orders); the core owns the budget check, the
exhaustive/sample dispatch, the row scan and the capped violation sample.
A sample count is the only mode switch: ``None`` sweeps every pair; a count
draws its pairs through ``uniform``, the ``randrange`` stream.  Rows run in
index order, in the calling thread.

Every exhaustive row check over exact dot products shares one packed-dot
kernel, ``pack_columns``: it packs the right vectors column by column into
big integers, with a slot width taken from the largest entries, so a row of
exact dots costs one multiply-add per coordinate.  ``packed_nonzero`` reads
each slot's nonzero test from its top bit without unpacking (the Hamming
pair check, the family walk of ``compression``), at byte widths;
``packed_dots`` unpacks the slots from any column on, for sign-tree rows,
which only ``signcompile._packed`` packs, casting slots of one or two
8-byte words from the row's bytes at once on a little-endian host
(``memoryview.cast``, built in and copying nothing, where ``array`` would
load a shared library).  A
sampled pair has no row to share, so ``pack_residues`` packs its two
vectors modulo a small prime instead: one small product certifies most
dots nonzero, and the caller computes the exact dot only where the residue
reads 0.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass, field
from operator import mul
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from .errors import BudgetExceededError, InputError

T = TypeVar("T")

REPORT_CAP = 32  # violation records a SweepReport keeps

RowCheck = Callable[[int, Sequence[int]], tuple[int, list]]


def map_rows(fn: Callable[[int], T], count: int) -> list[T]:
    """Apply ``fn`` to 0..count-1, returning results in index order."""
    return [fn(i) for i in range(count)]


def check_pairs(pairs: int, max_pairs: int | None, advice: str = "") -> None:
    """Refuse an exhaustive check of ``pairs`` pairs over ``max_pairs``."""
    if max_pairs is not None and pairs > max_pairs:
        raise BudgetExceededError(
            f"{pairs} pairs exceed the exhaustive budget of {max_pairs}{advice}"
        )


@dataclass(frozen=True)
class SweepReport:
    """What an exhaustive or sampled check found: the pairs (or family
    members) checked, every failure counted, the first ``REPORT_CAP`` kept."""

    pairs_checked: int
    violation_count: int
    violations: tuple  # capped sample, in check order
    mode: str = "exhaustive"  # "sample" when the pairs were drawn
    # pairs a one-sided fast path left to the exact check: a cost, not an
    # outcome, so neither compared nor serialized
    exact_rechecks: int = field(default=0, compare=False)

    @property
    def certified(self) -> bool:
        return self.violation_count == 0

    def to_json(self) -> dict:
        return {
            "pairs_checked": self.pairs_checked,
            "violation_count": self.violation_count,
            "violations": list(self.violations),
            "mode": self.mode,
            "certified": self.certified,
        }


def pairwise(fails: Callable[[int, int], bool]) -> RowCheck:
    """The row check of a pair test: column j of row i fails where
    ``fails(i, j)`` is true."""

    def check(i: int, cols: Sequence[int]) -> tuple[int, list[int]]:
        bad = [j for j in cols if fails(i, j)]
        return len(bad), bad

    return check


def mirrored(bad_from: Callable[[int], list[int]]) -> RowCheck:
    """The row check of a failure table with (j, i) failing where (i, j)
    does, from ``bad_from(i)``: row i's failing columns j >= i, in order.

    Each failure off the diagonal counts for (i, j) and (j, i) and is
    recorded once, as (i, j).  The count holds over the exhaustive sweep's
    whole rows only; the check reads no ``cols``.
    """

    def check(i: int, cols: Sequence[int]) -> tuple[int, list[int]]:
        bad = bad_from(i)
        return 2 * len(bad) - (i in bad), bad

    return check


def uniform(rng: random.Random, count: int) -> Callable[[], int]:
    """``draw()``: one uniform draw from range(count), the same stream as
    ``rng.randrange(count)``.

    Each draw takes r = ``rng.getrandbits(count.bit_length())`` and draws
    again while r >= count, which is CPython's ``_randbelow`` for a
    ``Random`` (``_randbelow_with_getrandbits``), without ``randrange``'s
    argument handling around it.  A count below 1 raises ``ValueError``
    here, as ``randrange`` would at its first draw: with no value to draw,
    the loop would never end.
    """
    if count < 1:
        raise ValueError(f"no uniform draw from an empty range({count})")
    getrandbits, bits = rng.getrandbits, count.bit_length()

    def draw() -> int:
        r = getrandbits(bits)
        while r >= count:
            r = getrandbits(bits)
        return r

    return draw


def sweep(
    count: int,
    prepare: Callable[[], RowCheck],
    sample: int | None = None,
    rng: random.Random | None = None,
    max_pairs: int | None = None,
) -> SweepReport:
    """Check ordered index pairs (i, j) of range(count) x range(count).

    ``prepare()`` runs once, after the budget check, and returns the row
    check ``check(i, cols)``.  It returns ``(bad_count, first_bad)``: how
    many columns j of ``cols`` fail at pair (i, j), and their failing
    columns in order, at least the first ``REPORT_CAP`` of them; the sweep
    alone caps what it keeps.  With ``sample`` None the sweep is exhaustive:
    it refuses grids over ``max_pairs``, then checks each row i once, with
    ``cols`` the whole row ``range(count)``.  Otherwise it refuses a
    ``sample`` below 1 or over ``max_pairs``, and an empty grid, then draws
    that many pairs from ``rng`` through ``uniform``, row index first, the
    stream ``rng.randrange(count)`` gives, and checks each as a one-column
    row as it is drawn; no draw is stored.  The report counts every failure
    and keeps the first ``REPORT_CAP`` failing (i, j) pairs in pair order;
    under a ``mirrored`` check these are unordered pairs i <= j in row order,
    each off-diagonal one standing for (j, i) too.
    """
    if sample is not None:
        if sample < 1:
            raise InputError(f"a sample needs at least one pair, got {sample}")
        check_pairs(sample, max_pairs, "; draw fewer sample pairs")
        draw = uniform(rng, count)
        check = prepare()
        bad = 0
        violations = []
        for _ in range(sample):
            i = draw()
            j = draw()
            if check(i, (j,))[0]:
                bad += 1
                if len(violations) < REPORT_CAP:
                    violations.append((i, j))
        return SweepReport(sample, bad, tuple(violations), "sample")
    check_pairs(
        count * count, max_pairs, "; rerun in sample mode with an explicit count"
    )
    check = prepare()
    cols = range(count)
    bad = 0
    violations = []
    for i, (row_bad, row_cols) in enumerate(map_rows(lambda i: check(i, cols), count)):
        bad += row_bad
        violations.extend((i, j) for j in row_cols[: REPORT_CAP - len(violations)])
    return SweepReport(count * count, bad, tuple(violations))


# -------------------------------------------------------------------
# Packed exact dots
# -------------------------------------------------------------------


def _slot_ones(width: int, count: int) -> int:
    """R = sum_j 2^(jW): a one in the lowest byte of each of ``count``
    slots of ``width`` bytes."""
    return int.from_bytes(b"\x01".ljust(width, b"\0") * count, "little")


def pack_columns(
    us: Sequence[Sequence[int]], vs: Sequence[Sequence[int]], words: int = 0
) -> tuple[Callable[[int], int], int, int]:
    """Every dot <us[i], vs[j]> of row i at once, as one exact integer.

    Each coordinate column of ``vs`` is packed once into one integer
    P_c = sum_j vs[j][c] 2^(jW), so row i is the single integer
    S_i = bias R + sum_c us[i][c] P_c with R = sum_j 2^(jW): a multiply-add
    per coordinate.  The slot width W comes from the data, never assumed:
    bias = 1 + sum_c max_i |us[i][c]| max_j |vs[j][c]| bounds every |dot| by
    bias - 1, and W = bitlen(2 bias) + 1, rounded up to whole bytes, puts
    every slot dot_ij + bias in [1, 2^(W-1)).  A width of at most
    ``words`` 8-byte words is then rounded up to whole words, which keeps
    the bound, as any wider slot would.  The digits of S_i in base 2^W are
    therefore exactly those slots, slot j the dot with vs[j], with no carry
    between slots.  This is an integer identity: no modulus and no
    fallback.  Returns ``(row, width, bias)``: ``row(i)`` is S_i and
    ``width`` is W in bytes.
    """
    count = len(vs)
    u_max = [max(map(abs, col)) for col in zip(*us)]
    v_max = [max(map(abs, col)) for col in zip(*vs)]
    bias = 1 + sum(map(mul, u_max, v_max))
    width = ((2 * bias).bit_length() + 8) // 8  # slot bytes, W = 8 width bits
    if width <= 8 * words:
        width = -(-width // 8) * 8
    ones = _slot_ones(width, count)
    packed = []
    for weight, off, col in zip(u_max, v_max, zip(*vs)):
        if not weight:
            # no row weighs this column, and bias does not bound its entries
            packed.append(0)
            continue
        # shifted by off >= 0, each entry packs as unsigned bytes, below 2 bias
        data = b"".join((c + off).to_bytes(width, "little") for c in col)
        packed.append(int.from_bytes(data, "little") - off * ones)
    base = bias * ones

    def row(i: int) -> int:
        s = base
        for c, p in zip(us[i], packed):
            if c:
                s += c * p
        return s

    return row, width, bias


RESIDUE_PRIME = 32749  # the largest prime below 2^15


def pack_residues(
    dim: int,
) -> tuple[Callable[[Sequence[int]], int], Callable[[Sequence[int]], int], int, int]:
    """A one-sided nonzero test of <u, v> for ``dim``-vectors: one product
    of two small integers, read modulo P = ``RESIDUE_PRIME``.

    Returns ``(left, right, shift, mask)``.  With W = bitlen(dim P^2),
    ``left(u)`` = sum_c (u_c mod P) 2^(cW) and ``right(v)`` packs v mod P in
    reverse order, v_c at digit dim - 1 - c.  Base-2^W digit t of
    left(u) right(v) is the sum of (u_a mod P)(v_b mod P) over
    a + dim - 1 - b = t: at most dim terms, each below P^2, so the digit is
    below dim P^2 < 2^W and no digit carries into the next.  Digit
    dim - 1, ``left(u) * right(v) >> shift & mask``, is therefore exactly
    sum_c (u_c mod P)(v_c mod P), which is congruent to <u, v> mod P.  A
    digit nonzero mod P proves <u, v> != 0; one that reads 0 proves
    nothing, and the caller computes the exact dot.
    """
    width = (dim * RESIDUE_PRIME**2).bit_length()

    def right(v: Iterable[int]) -> int:
        packed = 0  # Horner: v[0] ends in the top digit
        for c in v:
            packed = packed << width | c % RESIDUE_PRIME
        return packed

    return (lambda u: right(reversed(u))), right, (dim - 1) * width, (1 << width) - 1


def packed_dots(
    us: Sequence[Sequence[int]], vs: Sequence[Sequence[int]]
) -> Callable[..., list[int]]:
    """``dots(i, lo=0)``: row i's exact dots <us[i], vs[j]> for j >= lo, the
    packed row of ``pack_columns`` unpacked from slot lo.  On a
    little-endian host, slots of one or two 8-byte words come from one "Q"
    cast of the row's bytes, low word first.  Wider slots, or any on a
    big-endian host, come from ``int.from_bytes``: a three-word cast
    measured slower in verify-sign at n = 8, k = 3 and 4.
    """
    little = sys.byteorder == "little"
    row, width, bias = pack_columns(us, vs, 2 if little else 0)
    size = len(vs) * width
    starts = range(0, size, width)
    cast = little and width in (8, 16)

    def dots(i: int, lo: int = 0) -> list[int]:
        data = row(i).to_bytes(size, "little")
        if not cast:
            at = starts[lo:]  # the byte offsets of slots lo, lo + 1, ...
            return [int.from_bytes(data[j : j + width], "little") - bias for j in at]
        cells = memoryview(data)[lo * width :].cast("Q")
        if width == 8:
            return [c - bias for c in cells]
        pairs = iter(cells)
        return [low + (high << 64) - bias for low, high in zip(pairs, pairs)]

    return dots


def packed_nonzero(
    us: Sequence[Sequence[int]], vs: Sequence[Sequence[int]]
) -> tuple[Callable[[int], int], int]:
    """Row i's nonzero tests <us[i], vs[j]> != 0, all j at once.

    Returns ``(nonzero, width)``.  ``nonzero(i)`` is the packed row of
    ``pack_columns``, slot j holding dot_ij + bias in [1, 2^(W-1)), with the
    biases xored out and 2^(W-1) - 1 added to each slot: that sets the
    slot's top bit exactly where the dot is nonzero, without a carry between
    slots, and every other bit is masked off.  No slot is unpacked;
    ``top_bytes`` turns the flags into one byte per slot.
    """
    row, width, bias = pack_columns(us, vs)
    ones = _slot_ones(width, len(vs))
    base = bias * ones
    low = ((1 << (8 * width - 1)) - 1) * ones
    tops = low + ones
    return (lambda i: ((row(i) ^ base) + low) & tops), width


def top_bytes(flags: int, width: int, count: int) -> bytes:
    """The top byte of each of ``count`` slots of ``width`` bytes in
    ``flags``: 0x80 where a slot's top bit is set, 0 elsewhere, for flags
    that set no other bit."""
    return flags.to_bytes(count * width, "little")[width - 1 :: width]


def flagged(flags: bytes) -> Iterator[int]:
    """The slots whose byte in ``flags`` (from ``top_bytes``) is set, in order."""
    j = flags.find(0x80)
    while j >= 0:
        yield j
        j = flags.find(0x80, j + 1)
