"""Dense matrices of arbitrary-precision integers with exact rank and determinant.

All entries are Python ints, which are arbitrary precision natively, so
addition, subtraction and multiplication are closed and equality is exact.
Rank and determinant use fraction-free (Bareiss) elimination: every
intermediate value is an integer equal to a minor of the input, which keeps
entry growth polynomial in the input size instead of exponential.

Rationals appear in exactly one place in the package (the unit-distance
embedding) and are carried by ``fractions.Fraction``, which maintains the
canonical reduced form ``den > 0, gcd(num, den) = 1`` by itself.

Matrices are immutable after construction.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import InputError, NonSquareError, SizeMismatchError


@dataclass(frozen=True)
class Mat:
    """An immutable rows x cols integer matrix in row-major order."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if type(self.rows) is not int or type(self.cols) is not int:
            raise TypeError("matrix dimensions must be ints")
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"entry count {len(self.entries)} does not match shape "
                f"{self.rows}x{self.cols}"
            )
        for e in self.entries:
            if not isinstance(e, int):
                raise TypeError(f"matrix entries must be ints, got {type(e).__name__}")

    # ---------------------------------------------------------------
    # constructors
    # ---------------------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "Mat":
        rows = [list(r) for r in rows]
        if not rows:
            return cls(0, 0, ())
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        return cls(len(rows), ncols, tuple(e for r in rows for e in r))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Mat":
        return cls(rows, cols, (0,) * (rows * cols))

    @classmethod
    def identity(cls, n: int) -> "Mat":
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @classmethod
    def diag(cls, values: Sequence[int]) -> "Mat":
        n = len(values)
        return cls(
            n, n, tuple(values[i] if i == j else 0 for i in range(n) for j in range(n))
        )

    # ---------------------------------------------------------------
    # element and shape access
    # ---------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_lists(self) -> list[list[int]]:
        c = self.cols
        return [list(self.entries[i * c : (i + 1) * c]) for i in range(self.rows)]

    def is_square(self) -> bool:
        return self.rows == self.cols

    # ---------------------------------------------------------------
    # arithmetic
    # ---------------------------------------------------------------

    def __add__(self, other: "Mat") -> "Mat":
        if self.shape != other.shape:
            raise SizeMismatchError(f"cannot add {self.shape} and {other.shape}")
        return Mat(
            self.rows,
            self.cols,
            tuple(a + b for a, b in zip(self.entries, other.entries)),
        )

    def __sub__(self, other: "Mat") -> "Mat":
        if self.shape != other.shape:
            raise SizeMismatchError(f"cannot subtract {self.shape} and {other.shape}")
        return Mat(
            self.rows,
            self.cols,
            tuple(a - b for a, b in zip(self.entries, other.entries)),
        )

    def __neg__(self) -> "Mat":
        return Mat(self.rows, self.cols, tuple(-a for a in self.entries))

    def transpose(self) -> "Mat":
        return Mat(
            self.cols,
            self.rows,
            tuple(self.at(i, j) for j in range(self.cols) for i in range(self.rows)),
        )

    def mul(self, other: "Mat") -> "Mat":
        """Exact matrix product."""
        if self.cols != other.rows:
            raise SizeMismatchError(
                f"cannot multiply {self.shape} by {other.shape}"
            )
        n, m, p = self.rows, self.cols, other.cols
        a, b = self.entries, other.entries
        out = [0] * (n * p)
        for i in range(n):
            arow = a[i * m : (i + 1) * m]
            base = i * p
            for k, aik in enumerate(arow):
                if aik == 0:
                    continue
                brow = b[k * p : (k + 1) * p]
                for j in range(p):
                    out[base + j] += aik * brow[j]
        return Mat(n, p, tuple(out))

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "Mat":
        return Mat(
            len(row_idx),
            len(col_idx),
            tuple(self.at(i, j) for i in row_idx for j in col_idx),
        )

    # ---------------------------------------------------------------
    # serialization: entries as decimal strings to survive any precision
    # ---------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [str(e) for e in self.entries],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Mat":
        return cls(obj["rows"], obj["cols"], ints_from_json(obj["entries"]))


_DECIMAL = re.compile("-?[0-9]+")
_DECIMALS = re.compile("-?[0-9]+(?:,-?[0-9]+)*")


def int_from_json(value: object) -> int:
    """A document integer: an int (not a bool) or a decimal string, as
    ``str(int)`` writes it; anything else ``int()`` would coerce is refused."""
    if type(value) is int or (type(value) is str and _DECIMAL.fullmatch(value)):
        return int(value)
    raise InputError(f"{value!r} is not an integer or a decimal string")


def ints_from_json(values: object) -> tuple[int, ...]:
    """A JSON list of document integers; a list of decimal strings, as
    documents write it, is checked in one match."""
    if type(values) is not list:
        raise InputError(f"{values!r} is not a list of integers")
    if all(type(v) is str for v in values) and _DECIMALS.fullmatch(",".join(values)):
        return tuple(map(int, values))
    return tuple(map(int_from_json, values))


def bareiss(a: list[list[int]]) -> tuple[int, int]:
    """Rank and determinant of equal-length integer rows ``a``, consumed.

    Fraction-free elimination (Bareiss, Math. Comp. 22, 1968) with full
    pivoting: any nonzero entry of the remaining block can serve as the
    pivot, every intermediate value is an integer minor of the input, and
    the last pivot is the determinant up to the sign of the row and column
    swaps.  The determinant is meaningful for square input only; it is 0
    when the rank falls short and 1 for the empty matrix.
    """
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    sign = prev = 1
    for r in range(nrows if nrows < ncols else ncols):
        for pi in range(r, nrows):
            row = a[pi]
            for pj in range(r, ncols):
                if row[pj]:
                    break
            else:
                continue
            break
        else:
            return r, 0
        if pi != r:
            a[r], a[pi] = a[pi], a[r]
            sign = -sign
        if pj != r:
            for row in a:
                row[r], row[pj] = row[pj], row[r]
            sign = -sign
        top = a[r]
        pivot = top[r]
        for i in range(r + 1, nrows):
            cur = a[i]
            factor = cur[r]
            for j in range(r + 1, ncols):
                # the division by the previous pivot is exact
                cur[j] = (pivot * cur[j] - factor * top[j]) // prev
            cur[r] = 0
        prev = pivot
    return (nrows if nrows < ncols else ncols), sign * prev


def det_exact(m: Mat) -> int:
    """Exact determinant over the integers.

    The empty 0x0 matrix has determinant 1 (the empty-product convention;
    the minor-expansion identity needs it for its empty term).
    """
    if not m.is_square():
        raise NonSquareError(f"determinant requires a square matrix, got {m.shape}")
    return bareiss(m.to_lists())[1]


def rank_exact(m: Mat) -> int:
    """Exact rank over the rationals."""
    return bareiss(m.to_lists())[0]


def block_diag(blocks: Sequence[Mat]) -> Mat:
    """Block-diagonal assembly; rank is additive over the blocks."""
    total_r = sum(b.rows for b in blocks)
    total_c = sum(b.cols for b in blocks)
    out = [0] * (total_r * total_c)
    ro = co = 0
    for b in blocks:
        for i in range(b.rows):
            base = (ro + i) * total_c + co
            row = b.row(i)
            for j in range(b.cols):
                out[base + j] = row[j]
        ro += b.rows
        co += b.cols
    return Mat(total_r, total_c, tuple(out))


def pattern_blocks(
    mats: Sequence[Mat],
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Row and column index sets of the blocks of equal-shape matrices.

    The blocks are the connected components of the bipartite graph joining
    row i to column j wherever some matrix in ``mats`` has a nonzero (i, j)
    entry.  Every linear combination of ``mats`` is zero outside the blocks,
    so its rank is the sum of the ranks of its block submatrices.  Rows and
    columns that are zero in every matrix belong to no block.  Blocks are
    listed by their first row.
    """
    if not mats:
        return []
    nrows, ncols = mats[0].shape
    if any(m.shape != (nrows, ncols) for m in mats):
        raise SizeMismatchError("pattern blocks need matrices of one shape")
    parent = list(range(nrows + ncols))  # rows, then columns

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    support = {t for m in mats for t, e in enumerate(m.entries) if e}
    for t in support:
        i, j = divmod(t, ncols)
        parent[find(i)] = find(nrows + j)
    blocks: dict[int, tuple[list[int], list[int]]] = {}
    for i in sorted({t // ncols for t in support}):
        blocks.setdefault(find(i), ([], []))[0].append(i)
    for j in sorted({t % ncols for t in support}):
        blocks[find(nrows + j)][1].append(j)
    return [(tuple(rows), tuple(cols)) for rows, cols in blocks.values()]
