"""The pair-sweep core: exhaustive or sampled checks over an index grid.

Every certificate that compares a construction with ground truth pair by
pair runs through ``sweep``.  The caller supplies one check per row that
evaluates a whole row in one pass; the core owns the budget check, the
exhaustive/sample dispatch, the row partitioning and the capped violation
sample.  Rows are read-only closures over immutable representations;
results are merged in row-index order regardless of completion order, so
the outcome is identical for any thread count.
"""

from __future__ import annotations

import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

from .errors import BudgetExceededError, InputError

T = TypeVar("T")


def map_rows(fn: Callable[[int], T], count: int, threads: int = 1) -> list[T]:
    """Apply ``fn`` to 0..count-1, returning results in index order."""
    if threads <= 1 or count <= 1:
        return [fn(i) for i in range(count)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, range(count)))


def check_pairs(pairs: int, max_pairs: int | None, advice: str = "") -> None:
    """Refuse an exhaustive check of ``pairs`` pairs over ``max_pairs``."""
    if max_pairs is not None and pairs > max_pairs:
        raise BudgetExceededError(
            f"{pairs} pairs exceed the exhaustive budget of {max_pairs}{advice}"
        )


@dataclass(frozen=True)
class SweepReport:
    pairs_checked: int
    violation_count: int
    violations: tuple  # capped sample, in pair order
    mode: str

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


def sweep(
    count: int,
    prepare: Callable[[], Callable[[int, Sequence[int]], list[int]]],
    mode: str = "exhaustive",
    sample_count: int | None = None,
    rng: random.Random | None = None,
    threads: int = 1,
    max_pairs: int | None = None,
    cap: int = 32,
) -> SweepReport:
    """Check ordered index pairs (i, j) of range(count) x range(count).

    ``prepare()`` runs once, after the budget check, and returns the row
    check ``bad_cols(i, cols)``: the columns j of ``cols``, in order, at
    which pair (i, j) fails.  Exhaustive mode checks every row against all
    columns, after refusing grids over ``max_pairs``; sample mode draws
    ``sample_count`` pairs from ``rng``, row index first, and checks each
    as a one-column row.  The report counts every failure and keeps the
    first ``cap`` failing (i, j) pairs in pair order.
    """
    if mode == "sample":
        if not sample_count or sample_count < 1:
            raise InputError("sample mode needs a positive sample_count")
    elif mode != "exhaustive":
        raise InputError(f"unknown mode {mode!r}")
    else:
        check_pairs(
            count * count, max_pairs, "; rerun in sample mode with an explicit count"
        )
    bad_cols = prepare()
    if mode == "sample":
        bad = 0
        violations = []
        for _ in range(sample_count):
            i = rng.randrange(count)
            j = rng.randrange(count)
            if bad_cols(i, (j,)):
                bad += 1
                if len(violations) < cap:
                    violations.append((i, j))
        return SweepReport(sample_count, bad, tuple(violations), mode)

    cols = range(count)

    def scan_row(i: int) -> tuple[int, list[int]]:
        row = bad_cols(i, cols)
        return len(row), row[:cap]

    bad = 0
    violations = []
    for i, (row_bad, row_cols) in enumerate(map_rows(scan_row, count, threads)):
        bad += row_bad
        violations.extend((i, j) for j in row_cols[: cap - len(violations)])
    return SweepReport(count * count, bad, tuple(violations), mode)
