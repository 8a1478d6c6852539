"""The pair-sweep core: exhaustive or sampled checks over an index grid.

Every certificate that compares a construction with ground truth pair by
pair runs through ``sweep``.  The caller supplies one check per row that
evaluates a whole row in one pass and returns its failure count with its
first failing columns; the core owns the budget check, the
exhaustive/sample dispatch, the row scan and the capped violation sample.
Rows run in index order, in the calling thread.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

from .errors import BudgetExceededError, InputError

T = TypeVar("T")

REPORT_CAP = 32  # violation records kept in a sweep or compression report


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


class _Memo(dict):
    """An index -> value table filled on first lookup."""

    def __init__(self, fn: Callable[[int], object]):
        super().__init__()
        self._fn = fn

    def __missing__(self, key: int) -> object:
        value = self[key] = self._fn(key)
        return value


def sweep(
    count: int,
    prepare: Callable[[Callable], Callable[[int, Sequence[int]], tuple[int, list]]],
    mode: str = "exhaustive",
    sample_count: int | None = None,
    rng: random.Random | None = None,
    max_pairs: int | None = None,
) -> SweepReport:
    """Check ordered index pairs (i, j) of range(count) x range(count).

    ``prepare(table)`` runs once, after the budget check, and returns the
    row check ``check(i, cols)``.  It returns ``(bad_count, first_bad)``:
    how many columns j of ``cols`` fail at pair (i, j), and their failing
    columns in order, at least the first ``REPORT_CAP`` of them; the sweep
    alone caps what it keeps.  ``table(f)`` is how
    the check tabulates its per-index data: in exhaustive mode it is the
    list of f(i) for every index, in sample mode a table that computes
    f(i) on first lookup, so only drawn indices cost anything.  Exhaustive
    mode refuses grids over ``max_pairs``, then checks each row i once,
    with ``cols`` the whole row ``range(count)``; sample mode refuses a
    ``sample_count`` over ``max_pairs``, then draws that many pairs from
    ``rng``, row index first, and checks each as a one-column row.  The
    report counts every failure and keeps the first ``REPORT_CAP``
    failing (i, j) pairs in pair order.
    """
    if mode == "sample":
        if not sample_count or sample_count < 1:
            raise InputError("sample mode needs a positive sample_count")
        check_pairs(sample_count, max_pairs, "; draw fewer sample pairs")
        check = prepare(_Memo)
        bad = 0
        violations = []
        for _ in range(sample_count):
            i = rng.randrange(count)
            j = rng.randrange(count)
            if check(i, (j,))[0]:
                bad += 1
                if len(violations) < REPORT_CAP:
                    violations.append((i, j))
        return SweepReport(sample_count, bad, tuple(violations), mode)
    if mode != "exhaustive":
        raise InputError(f"unknown mode {mode!r}")
    check_pairs(
        count * count, max_pairs, "; rerun in sample mode with an explicit count"
    )
    check = prepare(lambda f: [f(i) for i in range(count)])
    cols = range(count)
    bad = 0
    violations = []
    for i, (row_bad, row_cols) in enumerate(map_rows(lambda i: check(i, cols), count)):
        bad += row_bad
        violations.extend((i, j) for j in row_cols[: REPORT_CAP - len(violations)])
    return SweepReport(count * count, bad, tuple(violations), mode)
