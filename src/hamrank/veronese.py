"""From polynomial identities to inner-product identities.

Three constructions live here:

* the determinant-of-sum expansion det(A + B) as a signed sum of paired
  complementary minors (Marcus, "Determinants of sums", 1990), realized as
  one minor embedding of length C(2k, k) per matrix and a signed
  permutation of its terms that turns the embedding of B into the right
  embedding of -B, whose dot product with the embedding of A is exactly
  det(A - B), with a finite proof of that pairing per k;
* a rational-coordinate embedding of binary strings into the plane such
  that squared distance 1 characterizes Hamming distance 1, built from
  Pythagorean-parametrized unit vectors and verified exhaustively;
* the form |a - b|^2 - 1 written out as left/right vectors of dimension
  d + 2, so that distance 1 between embedded points becomes a vanishing
  inner product.

Everything here is a pure function of immutable inputs.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from operator import mul
from typing import Callable, Sequence

from .errors import (
    NonSquareError,
    PatternViolationError,
    RetriesExhaustedError,
    SizeMismatchError,
)
from .exact import Mat, det_exact

Number = int | Fraction

# -------------------------------------------------------------------
# Determinant-of-sum expansion terms
# -------------------------------------------------------------------


@dataclass(frozen=True)
class MinorIndex:
    """One term of the det(A+B) expansion: row set, column set, sign.

    Index sets are 0-based; the sign is the parity of the element sums,
    which is the same whether sets are read 0- or 1-based because the two
    sets have equal size.
    """

    alpha: tuple[int, ...]
    beta: tuple[int, ...]
    sign: int

    def __post_init__(self):
        if len(self.alpha) != len(self.beta):
            raise SizeMismatchError("alpha and beta must have equal size")


@lru_cache(maxsize=None)
def det_sum_terms(k: int) -> tuple[MinorIndex, ...]:
    """All (alpha, beta) pairs with |alpha| = |beta|, alpha, beta within [k].

    Canonical order: by subset size, then lexicographically in alpha, then
    in beta, so independently computed left and right embeddings align.
    The list has exactly C(2k, k) entries.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    terms = []
    for size in range(k + 1):
        for alpha in itertools.combinations(range(k), size):
            for beta in itertools.combinations(range(k), size):
                sign = -1 if (sum(alpha) + sum(beta)) % 2 else 1
                terms.append(MinorIndex(alpha, beta, sign))
    assert len(terms) == comb(2 * k, k)
    return tuple(terms)


@lru_cache(maxsize=None)
def _laplace_plan(k: int) -> tuple[tuple, tuple, tuple, tuple]:
    """How ``minor_embed`` computes every minor of a k x k matrix at once.

    The minors det A[alpha, beta], |alpha| = |beta|, are numbered by size,
    then alpha, then beta, so the Laplace expansion of one along its first
    row alpha[0] reads only earlier ones: its steps are (entry index of
    (alpha[0], beta[t]), number of the minor on alpha[1:] and beta without
    beta[t], (-1)^t).  Per term of ``det_sum_terms(k)`` the plan also keeps
    the sign and the numbers of the minor (alpha, beta) and of its
    complement (co-alpha, co-beta), which ``negated_right`` pairs.
    """
    pairs = [
        (alpha, beta)
        for size in range(k + 1)
        for alpha in itertools.combinations(range(k), size)
        for beta in itertools.combinations(range(k), size)
    ]
    number = {pair: i for i, pair in enumerate(pairs)}
    steps = tuple(
        tuple(
            (
                alpha[0] * k + col,
                number[alpha[1:], beta[:pos] + beta[pos + 1 :]],
                -1 if pos % 2 else 1,
            )
            for pos, col in enumerate(beta)
        )
        for alpha, beta in pairs
    )
    terms = det_sum_terms(k)
    full = range(k)
    own = tuple(number[t.alpha, t.beta] for t in terms)
    complement = tuple(
        number[
            tuple(i for i in full if i not in t.alpha),
            tuple(j for j in full if j not in t.beta),
        ]
        for t in terms
    )
    return steps, tuple(t.sign for t in terms), own, complement


def minor_embed(a: Mat) -> tuple[int, ...]:
    """Embed a k x k matrix as its signed minors: per term of
    ``det_sum_terms(k)``, sign * det(A[alpha, beta]), where the empty minor
    is 1 and the full minor is the determinant.  Its dot with
    ``negated_right(k)`` of the embedding of B is det(A - B)
    (``prove_det_sum``).  All C(2k, k) minors come from one memoized Laplace
    pass (``_laplace_plan``): each is a signed sum of entries times smaller
    minors, in exact integers.
    """
    if not a.is_square():
        raise NonSquareError(f"minor embedding requires a square matrix, got {a.shape}")
    steps, signs, own, _ = _laplace_plan(a.rows)
    e = a.entries
    minors = []
    for expansion in steps:
        total = 0 if expansion else 1  # the empty minor
        for entry, sub, sign in expansion:
            if x := e[entry]:
                total += sign * x * minors[sub]
        minors.append(total)
    return tuple(map(mul, signs, map(minors.__getitem__, own)))


def _rook_mats(k: int) -> dict[tuple[int, ...], Mat]:
    """The 0/1 matrix of every partial rook placement of a k x k matrix: at
    most k cells, no two in one row or column, keyed by the cells'
    row-major indices in row order, so every sub-placement taken in order is
    itself a key.  There are sum_s C(k, s) k!/(k - s)! of them (209 at
    k = 4)."""
    placements = [
        tuple(i * k + j for i, j in zip(rows, cols))
        for size in range(k + 1)
        for rows in itertools.combinations(range(k), size)
        for cols in itertools.permutations(range(k), size)
    ]
    return {p: Mat(k, k, tuple(int(t in p) for t in range(k * k))) for p in placements}


@lru_cache(maxsize=None)
def negated_right(k: int) -> Callable[[Sequence[int]], tuple[int, ...]]:
    """The map from ``minor_embed(A)`` to the right embedding of -A, whose
    dot with ``minor_embed(B)`` is det(B - A), for every k x k integer
    matrix A, read off ``_laplace_plan(k)``.

    Right coordinate t of -A is det(-A)[co-alpha, co-beta], which is
    (-1)^|co-alpha| det A[co-alpha, co-beta] since a minor of size s is
    homogeneous of degree s; left coordinate t' of A, at the term
    t' = (co-alpha, co-beta), is sign(t') det A[co-alpha, co-beta].  So the
    map is a signed permutation, coordinate t is (-1)^|co-alpha| sign(t')
    left[t'], and no matrix is embedded here.  A plan whose complementary
    minor is no term's own minor raises ``PatternViolationError`` naming k;
    ``prove_det_sum`` proves the map.
    """
    _, signs, own, complement = _laplace_plan(k)
    term = {minor: t for t, minor in enumerate(own)}
    if not term.keys() >= set(complement):
        raise PatternViolationError(
            f"negated right embedding fails for k={k}: a co-minor is no term's minor"
        )
    order = [term[minor] for minor in complement]
    factors = [
        (-1) ** (k - len(t.alpha)) * signs[co]
        for t, co in zip(det_sum_terms(k), order)
    ]

    def flip(left: Sequence[int]) -> tuple[int, ...]:
        return tuple(map(mul, factors, map(left.__getitem__, order)))

    return flip


@lru_cache(maxsize=None)
def prove_det_sum(k: int) -> int:
    """Prove det(A - B) == <minor_embed(A), negated_right(k)(minor_embed(B))>,
    the pairing ``hamming.SupportRep`` runs, for all k x k matrices A, B;
    return the number of points checked.

    Both sides are polynomials in the 2k^2 entries of A and B.
    ``negated_right`` pairs term t with +-1 times the left coordinate of the
    term whose own minor is t's complement, so every monomial of det(A - B)
    and of every sign * det A[alpha, beta] * +-det B[co-alpha, co-beta]
    takes exactly one entry from each row and from each column of A and B
    together: a full rook placement whose cells are each given to A or to B.
    Each monomial is multilinear, so its coefficient is the signed sum of
    the polynomial's values at the 0/1 points on its sub-placements.  Two
    such polynomials therefore agree everywhere iff they agree at every rook
    point: a partial rook placement (``_rook_mats``) with each cell given to
    A or to B.  That is sum_s C(k, s) k!/(k - s)! 2^s points: 3, 17, 139,
    1,473 and 19,091 for k = 1, ..., 5.  Each placement's 0/1 matrix is
    embedded once, its flip kept as its nonzero (coordinate, value) pairs,
    and its determinant taken once: giving its cells to_b to B multiplies
    that by (-1)^|to_b|, as each B cell is alone in its row.
    ``negated_right(k)`` runs first, so a plan off its own minors is refused
    there (and a negative k by ``det_sum_terms``); then the first mismatch
    raises ``PatternViolationError`` naming k and the point.
    """
    flip = negated_right(k)
    mats = _rook_mats(k)
    lefts = {p: minor_embed(m) for p, m in mats.items()}
    rights = {p: [(t, x) for t, x in enumerate(flip(u)) if x] for p, u in lefts.items()}
    points = 0
    for p, m in mats.items():
        det = det_exact(m)
        for size in range(len(p) + 1):
            lhs = -det if (len(p) - size) % 2 else det
            for to_a in itertools.combinations(p, size):
                to_b = tuple(t for t in p if t not in to_a)
                rhs = sum(lefts[to_a][t] * x for t, x in rights[to_b])
                points += 1
                if lhs != rhs:
                    a, b = mats[to_a], mats[to_b]
                    raise PatternViolationError(
                        f"det-sum identity fails for k={k} at A={a.to_lists()}, "
                        f"B={b.to_lists()}: det(A - B) = {lhs}, embeddings give {rhs}"
                    )
    return points


# -------------------------------------------------------------------
# Hypercube unit-distance embedding
# -------------------------------------------------------------------


def _rational_unit_vector(rng: random.Random) -> tuple[Fraction, Fraction]:
    # Pythagorean parametrization: ((1 - t^2)/(1 + t^2), 2t/(1 + t^2)) has
    # exact squared norm 1 for every rational t.
    num = rng.randint(1, 997)
    den = rng.randint(1, 997)
    t = Fraction(num, den)
    d = 1 + t * t
    return ((1 - t * t) / d, 2 * t / d)


def sq_dist(p: Sequence[Number], q: Sequence[Number]) -> Number:
    return sum((a - b) ** 2 for a, b in zip(p, q))


UNIT_EMBED_DRAWS = 64  # step-vector draws hypercube_unit_embed tries


def hypercube_unit_embed(n: int, seed: int) -> list[tuple[Number, ...]]:
    """Embed {0,1}^n in the rational plane so distance 1 = Hamming distance 1.

    The point for x is the sum of the step vectors u_i over the set bits of
    x; each u_i is an exact rational unit vector.  For any such choice,
    adjacent strings land at squared distance exactly 1; the (generic)
    requirement that no other pair does is verified exhaustively over all
    pairs, redrawing the step vectors on any violation.

    Points are returned in the order of x as an integer with bit i = x_i.
    ``UNIT_EMBED_DRAWS`` unfaithful draws raise ``RetriesExhaustedError``.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = random.Random(seed)
    for _ in range(UNIT_EMBED_DRAWS):
        steps = [_rational_unit_vector(rng) for _ in range(n)]
        points = []
        for x in range(1 << n):
            px: list[Number] = [0, 0]
            for i in range(n):
                if (x >> i) & 1:
                    px[0] += steps[i][0]
                    px[1] += steps[i][1]
            points.append(tuple(px))
        # unordered pairs, stopping a failed draw at its first bad pair:
        # parallel.sweep would check both orders and scan the whole grid
        if all(
            (sq_dist(points[x], points[y]) == 1) == ((x ^ y).bit_count() == 1)
            for x in range(1 << n)
            for y in range(x + 1, 1 << n)
        ):
            return points
    raise RetriesExhaustedError(
        f"no faithful unit-distance embedding after {UNIT_EMBED_DRAWS} draws"
    )


# -------------------------------------------------------------------
# Unit-distance form
# -------------------------------------------------------------------


def unit_distance_vector(point: Sequence[Number], side: str) -> tuple[Number, ...]:
    """One side of the form |a - b|^2 - 1 = (|a|^2 - 1) + |b|^2 - 2 a.b.

    The left vector of a is (|a|^2 - 1, 1, -2a_0, ..., -2a_{d-1}) and the
    right vector of b is (1, |b|^2, b_0, ..., b_{d-1}), so their dot product
    is |a - b|^2 - 1 in dimension d + 2 and vanishes exactly on pairs at
    squared distance 1.
    """
    sq = sum(c * c for c in point)
    if side == "left":
        return (sq - 1, 1, *(-2 * c for c in point))
    if side == "right":
        return (1, sq, *point)
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")
