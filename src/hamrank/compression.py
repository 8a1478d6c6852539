"""Rank-preserving compression of finite matrix families.

A compressor is a two-sided linear map M -> L * M * R^T chosen so that for
every member M of a fixed finite family,

    rank(L * M * R^T) == min(rank(M), a', b')

where (a', b') is the target shape.  Such maps exist generically; we fit one
by drawing integer entries at random, verifying the equality exhaustively
over the family, and retrying with a doubled entry range on failure.  The
returned compressor is always carried together with its verification status:
nothing in the package ever assumes genericity without checking it.

When the target is at least as large as the source, the identity embedding
avoids randomness altogether.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, replace
from typing import Iterator, Sequence

from .errors import RetriesExhaustedError, SizeMismatchError
from .exact import Mat, rank_exact

DEFAULT_ENTRY_RANGE = 1 << 16


# -------------------------------------------------------------------
# Matrix families
# -------------------------------------------------------------------


@dataclass(frozen=True)
class MatFamily:
    """A finite, deterministically enumerable set of a x b matrices.

    Either an explicit list of members, or a diagonal family described by
    the tuple of diagonal patterns.  Diagonal families admit much faster
    rank/apply paths: the rank of Diag(z) is the support size of z, and
    applying a compressor to Diag(z) is a support-weighted sum of column
    outer products.
    """

    shape: tuple[int, int]
    descriptor: dict
    explicit: tuple[Mat, ...] | None = None
    diag_patterns: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        if (self.explicit is None) == (self.diag_patterns is None):
            raise ValueError("exactly one of explicit/diag_patterns must be given")

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
        members = list(seen.values())
        return cls(
            shape=shape,
            descriptor={"kind": "explicit", "count": len(members)},
            explicit=tuple(members),
        )

    @classmethod
    def diagonal(cls, patterns: Sequence[Sequence[int]]) -> "MatFamily":
        pats = tuple(dict.fromkeys(tuple(p) for p in patterns))
        if not pats:
            raise ValueError("family must be nonempty")
        n = len(pats[0])
        if any(len(p) != n for p in pats):
            raise SizeMismatchError("diagonal patterns must share one length")
        return cls(
            shape=(n, n),
            descriptor={"kind": "diagonal", "count": len(pats)},
            diag_patterns=pats,
        )

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
        """Diagonal differences with a separate alphabet per position."""
        diff_sets = []
        for alpha in alphabets:
            vals = sorted({a - b for a in alpha for b in alpha})
            diff_sets.append(vals)
        pats = tuple(itertools.product(*diff_sets))
        fam = cls(
            shape=(len(alphabets), len(alphabets)),
            descriptor={
                "kind": "diagonal-differences",
                "alphabets": [list(a) for a in alphabets],
                "count": len(pats),
            },
            diag_patterns=pats,
        )
        return fam

    @property
    def size(self) -> int:
        if self.explicit is not None:
            return len(self.explicit)
        return len(self.diag_patterns)

    @property
    def is_diagonal(self) -> bool:
        return self.diag_patterns is not None

    def members(self) -> Iterator[Mat]:
        if self.explicit is not None:
            yield from self.explicit
        else:
            for p in self.diag_patterns:
                yield Mat.diag(p)

    def member_ranks(self) -> list[int]:
        """Rank of every member, in enumeration order."""
        if self.is_diagonal:
            return [sum(1 for v in p if v != 0) for p in self.diag_patterns]
        return [rank_exact(m) for m in self.explicit]


# -------------------------------------------------------------------
# Compressor
# -------------------------------------------------------------------


@dataclass(frozen=True)
class Compressor:
    """A verified two-sided rank compressor M -> left * M * right^T."""

    left: Mat  # a' x a
    right: Mat  # b' x b
    source_shape: tuple[int, int]
    target_shape: tuple[int, int]
    seed: int
    verified: bool
    retries: int = 0
    entry_range: int = 0  # 0 for deterministic constructions
    method: str = "fit"

    def __post_init__(self):
        a1, a = self.left.shape
        b1, b = self.right.shape
        if (a, b) != self.source_shape or (a1, b1) != self.target_shape:
            raise SizeMismatchError(
                f"compressor factor shapes {self.left.shape}/{self.right.shape} "
                f"inconsistent with {self.source_shape}->{self.target_shape}"
            )

    def apply(self, m: Mat) -> Mat:
        if m.shape != self.source_shape:
            raise SizeMismatchError(
                f"compressor expects {self.source_shape}, got {m.shape}"
            )
        return self.left.mul(m).mul(self.right.transpose())

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
        return cls(
            left=Mat.from_json(obj["left"]),
            right=Mat.from_json(obj["right"]),
            source_shape=tuple(obj["source_shape"]),
            target_shape=tuple(obj["target_shape"]),
            seed=obj["seed"],
            verified=obj["verified"],
            retries=obj.get("retries", 0),
            entry_range=obj.get("entry_range", 0),
            method=obj.get("method", "fit"),
        )


@dataclass(frozen=True)
class CompressionReport:
    """Outcome of checking a compressor against a family, in enumeration order."""

    checked: int
    violation_count: int
    violations: tuple[dict, ...]  # capped sample of violation records

    @property
    def ok(self) -> bool:
        return self.violation_count == 0

    def to_json(self) -> dict:
        return {
            "checked": self.checked,
            "violation_count": self.violation_count,
            "violations": list(self.violations),
        }


# -------------------------------------------------------------------
# Fitting and verification
# -------------------------------------------------------------------


def _compressed_rank(comp: Compressor, family: MatFamily, index: int) -> int:
    if family.is_diagonal:
        return rank_exact(comp.apply_diag(family.diag_patterns[index]))
    return rank_exact(comp.apply(family.explicit[index]))


def _scan(
    comp: Compressor,
    family: MatFamily,
    ranks: list[int],
    stop_early: bool,
    cap: int = 32,
) -> CompressionReport:
    a1, b1 = comp.target_shape
    violations = []
    count = 0
    for idx in range(family.size):
        required = min(ranks[idx], a1, b1)
        achieved = _compressed_rank(comp, family, idx)
        if achieved != required:
            count += 1
            if len(violations) < cap:
                member = (
                    {"pattern": list(family.diag_patterns[idx])}
                    if family.is_diagonal
                    else {"entries": [str(e) for e in family.explicit[idx].entries]}
                )
                violations.append(
                    {"index": idx, "achieved": achieved, "required": required, **member}
                )
            if stop_early:
                break
    return CompressionReport(
        checked=family.size if not (stop_early and count) else idx + 1,
        violation_count=count,
        violations=tuple(violations),
    )


def verify_compressor(comp: Compressor, family: MatFamily) -> CompressionReport:
    """Exhaustively check rank(apply(M)) == min(rank(M), a', b') over the family.

    Deterministic: members are visited in family enumeration order and the
    report lists violations in that order.
    """
    if comp.source_shape != family.shape:
        raise SizeMismatchError(
            f"compressor source {comp.source_shape} does not match family "
            f"shape {family.shape}"
        )
    return _scan(comp, family, family.member_ranks(), stop_early=False)


def _identity_embedding(a: int, b: int, a1: int, b1: int, seed: int) -> Compressor:
    left = Mat(a1, a, tuple(1 if i == j else 0 for i in range(a1) for j in range(a)))
    right = Mat(b1, b, tuple(1 if i == j else 0 for i in range(b1) for j in range(b)))
    return Compressor(
        left=left,
        right=right,
        source_shape=(a, b),
        target_shape=(a1, b1),
        seed=seed,
        verified=True,
        method="identity",
    )


def fit_compressor(
    family: MatFamily,
    target_rows: int,
    target_cols: int,
    seed: int,
    max_retries: int = 16,
    entry_range: int = DEFAULT_ENTRY_RANGE,
) -> Compressor:
    """Fit a verified compressor for ``family`` onto target_rows x target_cols.

    If the target dominates the source in both dimensions, the identity
    embedding works unconditionally and is returned without randomness.
    Otherwise entries are drawn uniformly from [-entry_range, entry_range],
    verified against the full family, and redrawn with a doubled range on
    failure: over a large integer range a random draw is generic with
    overwhelming probability, and the doubling escape hatch covers the
    remaining mass.

    Raises ``RetriesExhaustedError`` carrying the last failing member and
    the achieved vs. required rank; the remedy is a larger range or more
    retries.
    """
    if target_rows < 1 or target_cols < 1:
        raise ValueError("target shape must be at least 1x1")
    a, b = family.shape
    if target_rows >= a and target_cols >= b:
        comp = _identity_embedding(a, b, target_rows, target_cols, seed)
        report = verify_compressor(comp, family)
        if not report.ok:  # cannot happen: embedding preserves rank exactly
            raise RetriesExhaustedError(
                "identity embedding failed verification",
                member=report.violations[0],
            )
        return comp

    ranks = family.member_ranks()
    rng = random.Random(seed)
    span = entry_range
    last = None
    for attempt in range(max_retries):
        left = Mat(
            target_rows,
            a,
            tuple(rng.randint(-span, span) for _ in range(target_rows * a)),
        )
        right = Mat(
            target_cols,
            b,
            tuple(rng.randint(-span, span) for _ in range(target_cols * b)),
        )
        candidate = Compressor(
            left=left,
            right=right,
            source_shape=(a, b),
            target_shape=(target_rows, target_cols),
            seed=seed,
            verified=False,
            retries=attempt,
            entry_range=span,
        )
        report = _scan(candidate, family, ranks, stop_early=True)
        if report.ok:
            return replace(candidate, verified=True)
        last = report.violations[0]
        span *= 2
    raise RetriesExhaustedError(
        f"no verified compressor after {max_retries} draws "
        f"(final entry range {span // 2})",
        member=last,
        achieved=None if last is None else last["achieved"],
        required=None if last is None else last["required"],
    )
