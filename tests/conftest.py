"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the library's own algorithms: the
determinant oracle is cofactor expansion, the rank oracle enumerates
minors, the expansion-sign oracle counts permutation inversions, the
minor-embedding oracle takes one determinant per det-sum term, the
support-rep sweep oracle checks one dot product per ordered pair, and the
compressor references check each member of a family by its own two-sided
product and Bareiss rank, where the family check compresses bases.
Expected values asserted in tests come from these, not from the code
under test.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
from operator import mul

import pytest

from hamrank import veronese
from hamrank.exact import Mat, det_exact, rank_exact
from hamrank.veronese import det_sum_terms


def det_cofactor(m: Mat) -> int:
    """Determinant by cofactor expansion along the first row."""
    n = m.rows
    assert m.cols == n
    if n == 0:
        return 1
    if n == 1:
        return m.at(0, 0)
    total = 0
    cols = list(range(n))
    for j in range(n):
        entry = m.at(0, j)
        if entry == 0:
            continue
        rest = m.submatrix(range(1, n), [c for c in cols if c != j])
        total += (-1) ** j * entry * det_cofactor(rest)
    return total


def brute_rank(m: Mat) -> int:
    """Largest size of a nonvanishing minor, by enumeration."""
    best = 0
    for size in range(1, min(m.rows, m.cols) + 1):
        found = False
        for rows in itertools.combinations(range(m.rows), size):
            for cols in itertools.combinations(range(m.cols), size):
                if det_cofactor(m.submatrix(rows, cols)) != 0:
                    found = True
                    break
            if found:
                break
        if found:
            best = size
        else:
            break
    return best


def hamming(x, y) -> int:
    assert len(x) == len(y)
    return sum(1 for a, b in zip(x, y) if a != b)


def pair_reference_report(rep) -> dict:
    """The exhaustive ``verify_support_rep(rep).to_json()``, pair by pair.

    Every ordered pair of words, in product order, is checked by its own
    dot product of the rep's embeddings against dist(x, y) >= k; the first
    32 failures are kept as records.
    """
    words = list(itertools.product(rep.alphabet, repeat=rep.n))
    bad = 0
    records = []
    for x in words:
        for y in words:
            dot = sum(map(mul, rep.u(x), rep.v(y)))
            far = hamming(x, y) >= rep.k
            if (dot != 0) != far:
                bad += 1
                if len(records) < 32:
                    records.append(
                        {
                            "x": list(x),
                            "y": list(y),
                            "dot": str(dot),
                            "expected_nonzero": far,
                        }
                    )
    return {
        "pairs_checked": len(words) ** 2,
        "violation_count": bad,
        "violations": records,
        "mode": "exhaustive",
        "certified": bad == 0,
    }


def expansion_sign(alpha: tuple[int, ...], beta: tuple[int, ...], k: int) -> int:
    """Sign of the unique (alpha -> beta)-matching permutation that is order
    preserving on alpha and its complement, by counting inversions."""
    co_alpha = [i for i in range(k) if i not in alpha]
    co_beta = [j for j in range(k) if j not in beta]
    perm = [0] * k
    for a, b in zip(sorted(alpha), sorted(beta)):
        perm[a] = b
    for a, b in zip(co_alpha, co_beta):
        perm[a] = b
    inversions = sum(
        1
        for i in range(k)
        for j in range(i + 1, k)
        if perm[i] > perm[j]
    )
    return -1 if inversions % 2 else 1


def defined_embed(a: Mat, side: str) -> tuple[int, ...]:
    """One side of the det(A + B) expansion by its definition, one
    determinant per term: sign * det A[alpha, beta] on the left,
    det A[co-alpha, co-beta] on the right."""
    full = range(a.rows)
    if side == "left":
        return tuple(
            t.sign * det_exact(a.submatrix(t.alpha, t.beta))
            for t in det_sum_terms(a.rows)
        )
    return tuple(
        det_exact(
            a.submatrix(
                [i for i in full if i not in t.alpha],
                [j for j in full if j not in t.beta],
            )
        )
        for t in det_sum_terms(a.rows)
    )


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


def reference_shortfalls(comp, members):
    """(index, achieved, required) of each member the compressor fails, by
    definition: one two-sided product and one rank per member."""
    for index, m in enumerate(members):
        required = min(rank_exact(m), comp.left.rows)
        achieved = rank_exact(comp.apply(m))
        if achieved != required:
            yield index, achieved, required


def reference_fit(members, size, seed):
    """(left, right, retries, entry_range) of the draw ``fit_compressor``
    keeps, each draw checked member by member; None if every draw fails."""
    from hamrank import compression

    a, b = members[0].shape
    rng = random.Random(seed)
    span = compression.ENTRY_RANGE
    for attempt in range(compression.FIT_DRAWS):
        left = Mat(size, a, tuple(rng.randint(-span, span) for _ in range(size * a)))
        right = Mat(size, b, tuple(rng.randint(-span, span) for _ in range(size * b)))
        comp = compression.Compressor(left, right, seed, verified=False)
        if next(reference_shortfalls(comp, members), None) is None:
            return left, right, attempt, span
        span *= 2
    return None


def assert_loaded_ranks_are_dense(doc: dict, dense_rank=None):
    """Load a rank-problem document and check its ``rank_fn``, which ranks
    each distinct pattern block of a pair by Bareiss, against the dense rank
    of A(x) - A(y) on every pair x <= y: ``rank_exact`` of the difference,
    or ``dense_rank(A(x), A(y))`` when given; return the loaded problem."""
    from hamrank.rankprob import problem_from_json

    loaded = problem_from_json(doc)
    table = [Mat.from_json(m) for m in doc["a"]]
    dense_rank = dense_rank or (lambda a, b: rank_exact(a - b))
    for x, y in itertools.combinations_with_replacement(range(len(table)), 2):
        assert loaded.rank_fn(x, y) == dense_rank(table[x], table[y]), (x, y)
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
