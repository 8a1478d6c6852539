"""Shared fixtures and test data.

Ground truth lives in ``tests/reference.py``, which imports nothing from
hamrank.  Two helpers here call it on raw JSON: ``reference_fit`` replays
the fit's draws and checks each by the reference's member check, and
``assert_loaded_ranks_are_dense`` holds a loaded rank problem to the
reference's ranks.  The rest build inputs: random matrices, the distinct
differences of a table by definition, a random rank problem, and the
fixtures that break the det-sum expansion.
"""

from __future__ import annotations

import dataclasses
import itertools
import random

import pytest

from hamrank import veronese
from hamrank.exact import Mat

from . import reference


def random_mat(rng: random.Random, rows: int, cols: int, bound: int = 9) -> Mat:
    return Mat(
        rows, cols, tuple(rng.randint(-bound, bound) for _ in range(rows * cols))
    )


def distinct_differences(bases) -> list[Mat]:
    """{B_x - B_y : x <= y} by definition: every difference built as a
    matrix, x-major, the first of equal ones kept."""
    seen = {}
    for x, bx in enumerate(bases):
        for by in bases[x:]:
            diff = bx - by
            seen.setdefault(diff.entries, diff)
    return list(seen.values())


def reference_fit(members, size, seed):
    """(left, right, retries, entry_range) of the draw ``fit_compressor``
    keeps, each draw checked member by member by the reference; None if
    every draw fails."""
    from hamrank import compression

    a, b = members[0].shape
    rows = [m.to_lists() for m in members]
    rng = random.Random(seed)
    span = compression.ENTRY_RANGE
    for attempt in range(compression.FIT_DRAWS):
        left = Mat(size, a, tuple(rng.randint(-span, span) for _ in range(size * a)))
        right = Mat(size, b, tuple(rng.randint(-span, span) for _ in range(size * b)))
        comp = {"left": left.to_json(), "right": right.to_json()}
        if next(reference.compressor_failures(comp, rows), None) is None:
            return left, right, attempt, span
        span *= 2
    return None


def assert_loaded_ranks_are_dense(doc: dict):
    """Load a rank-problem document and check its ``rank_fn``, which ranks
    each distinct pattern block of a pair by Bareiss, against the
    reference's rank of A(x) - A(y) on the raw table, on every pair
    x <= y; return the loaded problem."""
    from hamrank.rankprob import problem_from_json

    loaded = problem_from_json(doc)
    dense = reference.table_rank(doc)
    for x, y in itertools.combinations_with_replacement(range(len(doc["a"])), 2):
        assert loaded.rank_fn(x, y) == dense(x, y), (x, y)
    return loaded


def random_table_problem():
    """Eight random 3 x 3 maps under g = (1, 0, 1, 0): order 3, three change points."""
    from hamrank.rankprob import symmetric_problem

    rng = random.Random(55)
    mats = [random_mat(rng, 3, 3, bound=2) for _ in range(8)]
    return symmetric_problem(8, lambda x: mats[x], (1, 0, 1, 0))


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240817)


def _mutated_det_sum_terms(monkeypatch, mutate):
    """Serve ``mutate(terms)`` for every det-sum expansion.

    The proof cache, the embedding plans and the proved negated-right maps,
    which read the terms, are emptied on both sides, so the broken expansion
    is embedded and proved afresh and no result outlives the patch.
    """
    real = veronese.det_sum_terms
    caches = (veronese.prove_det_sum, veronese._laplace_plan, veronese.negated_right)
    for cached in caches:
        cached.cache_clear()
    monkeypatch.setattr(veronese, "det_sum_terms", lambda k: mutate(real(k)))
    yield
    monkeypatch.undo()
    for cached in caches:
        cached.cache_clear()


@pytest.fixture
def flipped_det_sum_sign(monkeypatch):
    """Flip the sign of the full-minor term of every det-sum expansion."""

    def flip(terms):
        *rest, last = terms
        return (*rest, dataclasses.replace(last, sign=-last.sign))

    yield from _mutated_det_sum_terms(monkeypatch, flip)


@pytest.fixture
def swapped_det_sum_term(monkeypatch):
    """Swap alpha and beta in the first term where they differ (k >= 2)."""

    def swap(terms):
        i = next(i for i, t in enumerate(terms) if t.alpha != t.beta)
        t = terms[i]
        swapped = dataclasses.replace(t, alpha=t.beta, beta=t.alpha)
        return (*terms[:i], swapped, *terms[i + 1 :])

    yield from _mutated_det_sum_terms(monkeypatch, swap)
