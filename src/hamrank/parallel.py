"""The pair-sweep core: exhaustive or sampled checks over an index grid.

Every certificate that compares a construction with ground truth pair by
pair runs through ``sweep``.  The caller supplies one check per row that
evaluates a whole row in one pass and returns its failure count with its
first failing columns (``pairwise`` makes one from a pair test); the core
owns the budget check, the exhaustive/sample dispatch, the row scan and the
capped violation sample.  A sample count is the only mode switch: ``None``
sweeps every pair.  Rows run in index order, in the calling thread.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

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
    ``sample`` below 1 or over ``max_pairs``, then draws that many pairs
    from ``rng``, row index first, and checks each as a one-column row.  The
    report counts every failure and keeps the first ``REPORT_CAP`` failing
    (i, j) pairs in pair order.
    """
    if sample is not None:
        if sample < 1:
            raise InputError(f"a sample needs at least one pair, got {sample}")
        check_pairs(sample, max_pairs, "; draw fewer sample pairs")
        check = prepare()
        bad = 0
        violations = []
        for _ in range(sample):
            i = rng.randrange(count)
            j = rng.randrange(count)
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
