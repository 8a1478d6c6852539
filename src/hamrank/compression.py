"""Rank-preserving compression of finite matrix families.

A compressor is a two-sided linear map M -> L * M * R^T chosen so that for
every member M of a fixed finite family,

    rank(L * M * R^T) == min(rank(M), a', b')

where (a', b') is the target shape.  Such maps exist generically; we fit one
onto a square target by drawing integer entries at random, verifying the
equality exhaustively over the family, and retrying with a doubled entry
range on failure.  The returned compressor is always carried together with
its verification status: nothing in the package ever assumes genericity
without checking it.

The families that matter are diagonal products {Diag(z) : z in D_1 x ... x
D_n}, e.g. the (2|A|-1)^n difference patterns of words over an alphabet A.
They are kept as the value sets D_p and checked by one exact odometer walk
in index order, last position fastest: each step advances one position p
and wraps every later position back to its first value, so each compressed
matrix is the previous one plus a precomputed integer combination of the
outer products of matching columns of L and R.  No pattern list and no
matrix object is built per member.

When the target is at least as large as the source, the identity embedding
avoids randomness altogether.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, replace
from functools import cached_property
from operator import add
from typing import Iterator, Sequence

from .errors import (
    BudgetExceededError,
    InputError,
    RetriesExhaustedError,
    SizeMismatchError,
)
from .exact import Mat, bareiss, int_from_json, rank_exact
from .parallel import REPORT_CAP, SweepReport

FIT_DRAWS = 16  # draws fit_compressor tries, the entry range doubling each time
ENTRY_RANGE = 1 << 16  # entries of the first draw lie in [-ENTRY_RANGE, ENTRY_RANGE]
# 3^15 binary difference patterns fit; the check runs before any enumeration
MAX_DIAGONAL_PATTERNS = 1 << 24
METHODS = ("fit", "identity", "weights")  # the constructions that write a compressor


def nth_product(index: int, values: Sequence[Sequence]) -> tuple:
    """The ``index``-th tuple of ``itertools.product(*values)``."""
    out = []
    for vals in reversed(values):
        index, digit = divmod(index, len(vals))
        out.append(vals[digit])
    return tuple(reversed(out))


# -------------------------------------------------------------------
# Matrix families
# -------------------------------------------------------------------


@dataclass(frozen=True)
class MatFamily:
    """A finite, deterministically enumerable set of a x b matrices.

    Either an explicit tuple of members, or a diagonal product family
    {Diag(z) : z in D_1 x ... x D_n} given by the sorted value sets D_p
    (``diag_values``) and never materialized.  Diagonal members are numbered
    in product order, last position fastest; the rank of Diag(z) is the
    support size of z.
    """

    shape: tuple[int, int]
    explicit: tuple[Mat, ...] | None = None
    diag_values: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        if (self.explicit is None) == (self.diag_values is None):
            raise ValueError("exactly one of explicit/diag_values must be given")

    @classmethod
    def from_members(cls, members: Sequence[Mat]) -> "MatFamily":
        """The distinct members, in first-occurrence order."""
        members = list(members)
        if not members:
            raise ValueError("family must be nonempty")
        shape = members[0].shape
        if any(m.shape != shape for m in members):
            raise SizeMismatchError("family members must share one shape")
        seen = {}
        for m in members:
            seen.setdefault(m.entries, m)
        return cls(shape=shape, explicit=tuple(seen.values()))

    @classmethod
    def diagonal_differences(cls, n: int, alphabet: Sequence[int]) -> "MatFamily":
        """The family {Diag(x - y) : x, y in alphabet^n}, deduplicated.

        Because positions are independent, the set of patterns is exactly
        D^n for D = {a - b : a, b in alphabet}; for a binary alphabet this
        shrinks the 4^n ordered pairs to 3^n canonical patterns.
        """
        return cls.diagonal_differences_multi([tuple(alphabet)] * n)

    @classmethod
    def diagonal_differences_multi(
        cls, alphabets: Sequence[Sequence[int]]
    ) -> "MatFamily":
        """Diagonal differences with a separate alphabet per position.

        Raises ``BudgetExceededError`` when the product has more than
        ``MAX_DIAGONAL_PATTERNS`` members.
        """
        values = tuple(
            tuple(sorted({a - b for a in alpha for b in alpha})) for alpha in alphabets
        )
        count = math.prod(len(v) for v in values)
        if count > MAX_DIAGONAL_PATTERNS:
            raise BudgetExceededError(
                f"{count} diagonal patterns exceed the family budget of "
                f"{MAX_DIAGONAL_PATTERNS}"
            )
        return cls(shape=(len(alphabets), len(alphabets)), diag_values=values)

    @property
    def size(self) -> int:
        if self.explicit is not None:
            return len(self.explicit)
        return math.prod(len(v) for v in self.diag_values)

    @property
    def is_diagonal(self) -> bool:
        return self.diag_values is not None

    @cached_property
    def member_ranks(self) -> tuple[int, ...]:
        """Rank of every explicit member, in enumeration order."""
        return tuple(rank_exact(m) for m in self.explicit)


# -------------------------------------------------------------------
# Compressor
# -------------------------------------------------------------------


@dataclass(frozen=True)
class Compressor:
    """A verified two-sided rank compressor M -> left * M * right^T."""

    left: Mat  # a' x a
    right: Mat  # b' x b
    seed: int
    verified: bool
    retries: int = 0
    entry_range: int = 0  # 0 for deterministic constructions
    method: str = "fit"

    @property
    def source_shape(self) -> tuple[int, int]:
        return (self.left.cols, self.right.cols)

    @property
    def target_shape(self) -> tuple[int, int]:
        return (self.left.rows, self.right.rows)

    @cached_property
    def _right_t(self) -> Mat:
        return self.right.transpose()

    def apply(self, m: Mat) -> Mat:
        """The two-sided product left * m * right^T."""
        if m.shape != self.source_shape:
            raise SizeMismatchError(
                f"compressor expects {self.source_shape}, got {m.shape}"
            )
        return self.left.mul(m).mul(self._right_t)

    def apply_diag(self, pattern: Sequence[int]) -> Mat:
        """apply(Diag(pattern)) as the support sum of column outer products."""
        a1, a = self.left.shape
        b1, b = self.right.shape
        if a != b or len(pattern) != a:
            raise SizeMismatchError(
                f"diagonal pattern of length {len(pattern)} does not fit "
                f"source shape {self.source_shape}"
            )
        out = [0] * (a1 * b1)
        le, re = self.left.entries, self.right.entries
        for idx, z in enumerate(pattern):
            if z == 0:
                continue
            for i in range(a1):
                li = z * le[i * a + idx]
                if li == 0:
                    continue
                base = i * b1
                for j in range(b1):
                    out[base + j] += li * re[j * b + idx]
        return Mat(a1, b1, tuple(out))

    def to_json(self) -> dict:
        return {
            "left": self.left.to_json(),
            "right": self.right.to_json(),
            "seed": self.seed,
            "verified": self.verified,
            "retries": self.retries,
            "entry_range": self.entry_range,
            "method": self.method,
            "source_shape": list(self.source_shape),
            "target_shape": list(self.target_shape),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Compressor":
        """Load every field ``to_json`` writes, none optional: integers as
        document integers, and the stated shapes exactly the factors'."""
        if type(obj["verified"]) is not bool:
            raise InputError(f"verified {obj['verified']!r} is not a bool")
        if obj["method"] not in METHODS:
            raise InputError(f"method {obj['method']!r} is not one of {METHODS}")
        comp = cls(
            left=Mat.from_json(obj["left"]),
            right=Mat.from_json(obj["right"]),
            seed=int_from_json(obj["seed"]),
            verified=obj["verified"],
            retries=int_from_json(obj["retries"]),
            entry_range=int_from_json(obj["entry_range"]),
            method=obj["method"],
        )
        if min(comp.retries, comp.entry_range) < 0:
            raise InputError(
                f"retries {comp.retries}, entry_range {comp.entry_range}: not >= 0"
            )
        for key in ("source_shape", "target_shape"):
            stated, shape = obj[key], list(getattr(comp, key))
            # [3.0, 3.0] == [3, 3], so the entry types are checked too
            if stated != shape or any(type(d) is not int for d in stated):
                raise InputError(f"{key} {stated!r} is not the factors' shape {shape}")
        return comp


# -------------------------------------------------------------------
# Fitting and verification
# -------------------------------------------------------------------


def _diagonal_shortfalls(
    comp: Compressor, values: tuple[tuple[int, ...], ...]
) -> Iterator[tuple[int, int, int]]:
    """(index, achieved, required) for each Diag(z), z in the product of
    ``values``, whose compressed rank falls short, in index order.

    The walk is an odometer in product order, last position fastest,
    starting from the all-first-values pattern, which is compressed
    directly.  Each later step advances one position p by one value and
    wraps every later position from its last value back to its first, so
    the flat compressed matrix gains one precomputed integer combination of
    the outer products l_q r_q^T, q >= p, of columns of L and R.  The update
    is an exact integer identity, and every member gets one exact Bareiss
    rank.
    """
    a1, b1 = comp.target_shape
    cap = min(a1, b1)
    n = len(values)
    le, re = comp.left.entries, comp.right.entries
    rows = [slice(i * b1, (i + 1) * b1) for i in range(a1)]

    # moves[p][d]: (flat delta, support change) of advancing position p from
    # its d-th value while every later position wraps to its first
    moves = [None] * n
    wrap, wrap_supp = [0] * (a1 * b1), 0
    for p in reversed(range(n)):
        vals = values[p]
        outer = [x * y for x in le[p::n] for y in re[p::n]]  # l_p r_p^T
        moves[p] = [
            (
                [w + (hi - lo) * o for w, o in zip(wrap, outer)],
                wrap_supp + (hi != 0) - (lo != 0),
            )
            for lo, hi in zip(vals, vals[1:])
        ]
        wrap = [w + (vals[0] - vals[-1]) * o for w, o in zip(wrap, outer)]
        wrap_supp += (vals[0] != 0) - (vals[-1] != 0)

    start = comp.apply_diag([vals[0] for vals in values])
    achieved = rank_exact(start)
    flat = list(start.entries)
    support = sum(1 for vals in values if vals[0] != 0)
    last = [len(vals) - 1 for vals in values]
    digits = [0] * n
    for index in itertools.count():
        required = support if support < cap else cap
        if achieved != required:
            yield index, achieved, required
        p = n - 1
        while p >= 0 and digits[p] == last[p]:
            digits[p] = 0
            p -= 1
        if p < 0:
            return
        delta, dsupp = moves[p][digits[p]]
        digits[p] += 1
        flat = list(map(add, flat, delta))
        support += dsupp
        achieved = bareiss(list(map(flat.__getitem__, rows)))[0]


def _shortfalls(comp: Compressor, family: MatFamily) -> Iterator[tuple[int, int, int]]:
    """(index, achieved, required) for every member the compressor fails."""
    if family.is_diagonal:
        yield from _diagonal_shortfalls(comp, family.diag_values)
        return
    a1, b1 = comp.target_shape
    for index, (m, rank) in enumerate(zip(family.explicit, family.member_ranks)):
        required = min(rank, a1, b1)
        achieved = rank_exact(comp.apply(m))
        if achieved != required:
            yield index, achieved, required


def _violation(family: MatFamily, index: int, achieved: int, required: int) -> dict:
    record = {"index": index, "achieved": achieved, "required": required}
    if family.explicit is not None:
        record["entries"] = [str(e) for e in family.explicit[index].entries]
    else:
        record["pattern"] = list(nth_product(index, family.diag_values))
    return record


def verify_compressor(comp: Compressor, family: MatFamily) -> SweepReport:
    """Exhaustively check rank(apply(M)) == min(rank(M), a', b') over the family.

    Deterministic: members are visited in index order.  The report's
    ``pairs_checked`` is the family size; it counts every violating member
    and lists the first ``REPORT_CAP`` of them as records.
    """
    if comp.source_shape != family.shape:
        raise SizeMismatchError(
            f"compressor source {comp.source_shape} does not match family "
            f"shape {family.shape}"
        )
    first: list[tuple[int, int, int]] = []
    count = 0
    for shortfall in _shortfalls(comp, family):
        count += 1
        if count <= REPORT_CAP:
            first.append(shortfall)
    records = tuple(_violation(family, *shortfall) for shortfall in first)
    return SweepReport(family.size, count, records)


def certified(comp: Compressor, report: SweepReport) -> Compressor:
    """``comp`` marked verified by ``report``, its check over the family, or
    ``RetriesExhaustedError`` naming the first violating member.  For the
    deterministic constructions, which are never redrawn; the caller runs
    the check, so perfbench counts its patterns under the caller's module."""
    if not report.certified:
        raise RetriesExhaustedError(
            f"{comp.method} compressor failed family verification",
            member=report.violations[0],
        )
    return replace(comp, verified=True)


def _identity_embedding(a: int, b: int, size: int, seed: int) -> Compressor:
    left = Mat(size, a, tuple(int(i == j) for i in range(size) for j in range(a)))
    right = Mat(size, b, tuple(int(i == j) for i in range(size) for j in range(b)))
    return Compressor(left, right, seed, verified=False, method="identity")


def fit_compressor(family: MatFamily, size: int, seed: int) -> Compressor:
    """Fit a verified compressor for ``family`` onto size x size targets.

    If ``size`` is at least both source dimensions, the identity embedding
    works unconditionally and is returned without randomness.  Otherwise
    the left (size x a) and then the right (size x b) entries are drawn
    uniformly from [-ENTRY_RANGE, ENTRY_RANGE], verified against the full
    family, and redrawn with a doubled range on failure, ``FIT_DRAWS``
    draws in all: over a large integer range a random draw is generic with
    overwhelming probability, and the doubling covers the remaining mass.
    Both constants are read at call time.

    Raises ``RetriesExhaustedError`` carrying a failing member of the last
    draw and the achieved vs. required rank on it.  A draw stops at its
    first failing member, the one of smallest index.
    """
    if size < 1:
        raise ValueError("target size must be at least 1")
    a, b = family.shape
    if size >= max(a, b):
        # cannot fail: the embedding preserves rank exactly
        comp = _identity_embedding(a, b, size, seed)
        return certified(comp, verify_compressor(comp, family))

    rng = random.Random(seed)
    span = ENTRY_RANGE
    last = None
    for attempt in range(FIT_DRAWS):
        left = Mat(size, a, tuple(rng.randint(-span, span) for _ in range(size * a)))
        right = Mat(size, b, tuple(rng.randint(-span, span) for _ in range(size * b)))
        candidate = Compressor(
            left=left,
            right=right,
            seed=seed,
            verified=False,
            retries=attempt,
            entry_range=span,
        )
        shortfall = next(_shortfalls(candidate, family), None)
        if shortfall is None:
            return replace(candidate, verified=True)
        last = _violation(family, *shortfall)
        span *= 2
    raise RetriesExhaustedError(
        f"no verified compressor after {FIT_DRAWS} draws "
        f"(final entry range {span // 2})",
        member=last,
        achieved=None if last is None else last["achieved"],
        required=None if last is None else last["required"],
    )
