"""From polynomial identities to inner-product identities.

Three constructions live here:

* the determinant-of-sum expansion det(A + B) as a signed sum of paired
  complementary minors, realized as aligned left/right embedding vectors of
  length C(2k, k) whose dot product is exactly det(A + B);
* general monomial forms: a polynomial split into terms that factor across
  the two sides becomes a pair of coordinate vectors, one per term, whose
  inner product evaluates the polynomial;
* a rational-coordinate embedding of binary strings into the plane such
  that squared distance 1 characterizes Hamming distance 1, built from
  Pythagorean-parametrized unit vectors and verified exhaustively.

Everything here is a pure function of immutable inputs.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Mapping, Sequence

from .errors import (
    MissingFeatureError,
    NonSquareError,
    RetriesExhaustedError,
    SizeMismatchError,
)
from .exact import Mat, minor

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


def minor_embed(a: Mat, side: str) -> tuple[int, ...]:
    """Embed a k x k matrix as its vector of (signed) minors.

    The left side emits sign * det(A | alpha x beta) per term; the right
    side emits det(B | complement(alpha) x complement(beta)).  For equal-size
    square A, B the dot product of the two embeddings equals det(A + B)
    exactly, so pairing left(A) with right(-B) computes det(A - B).
    """
    if not a.is_square():
        raise NonSquareError(f"minor embedding requires a square matrix, got {a.shape}")
    k = a.rows
    full = range(k)
    out = []
    if side == "left":
        for t in det_sum_terms(k):
            out.append(t.sign * minor(a, t.alpha, t.beta))
    elif side == "right":
        for t in det_sum_terms(k):
            co_alpha = tuple(i for i in full if i not in t.alpha)
            co_beta = tuple(j for j in full if j not in t.beta)
            out.append(minor(a, co_alpha, co_beta))
    else:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    return tuple(out)


def dot(u: Sequence[Number], v: Sequence[Number]) -> Number:
    if len(u) != len(v):
        raise SizeMismatchError(f"dot of lengths {len(u)} and {len(v)}")
    return sum(a * b for a, b in zip(u, v))


# -------------------------------------------------------------------
# Monomial forms
# -------------------------------------------------------------------

Exponents = tuple[tuple[str, int], ...]  # sorted (feature name, exponent) pairs


@dataclass(frozen=True)
class MonomialForm:
    """A polynomial split into terms factoring across left/right inputs.

    Each term is (coefficient, left exponents, right exponents) over named
    features.  Terms are deduplicated by exponent pair with coefficients
    merged, and zero-coefficient terms dropped, so the term list is in
    canonical form and its length is the embedding dimension.
    """

    terms: tuple[tuple[int, Exponents, Exponents], ...]

    @classmethod
    def build(
        cls, raw_terms: Sequence[tuple[int, Mapping[str, int], Mapping[str, int]]]
    ) -> "MonomialForm":
        merged: dict[tuple[Exponents, Exponents], int] = {}
        order: list[tuple[Exponents, Exponents]] = []
        for coef, left, right in raw_terms:
            key = (_canon_exp(left), _canon_exp(right))
            if key not in merged:
                merged[key] = 0
                order.append(key)
            merged[key] += coef
        terms = tuple(
            (merged[key], key[0], key[1]) for key in order if merged[key] != 0
        )
        return cls(terms)

    @property
    def dim(self) -> int:
        return len(self.terms)


def _canon_exp(exp: Mapping[str, int]) -> Exponents:
    return tuple(sorted((name, e) for name, e in exp.items() if e != 0))


def _eval_exponents(exp: Exponents, features: Mapping[str, Number]) -> Number:
    val: Number = 1
    for name, e in exp:
        if name not in features:
            raise MissingFeatureError(f"input does not supply feature {name!r}")
        val *= features[name] ** e
    return val


def poly_to_vectors(
    form: MonomialForm,
    left_input: Mapping[str, Number],
    right_input: Mapping[str, Number],
) -> tuple[tuple[Number, ...], tuple[Number, ...]]:
    """Evaluate a monomial form into one coordinate pair per term.

    The coefficient rides on the left vector.  By construction
    dot(u, v) equals the form evaluated at the two inputs, so polynomial
    vanishing becomes inner-product vanishing in dimension ``form.dim``.
    """
    u = []
    v = []
    for coef, left_exp, right_exp in form.terms:
        u.append(coef * _eval_exponents(left_exp, left_input))
        v.append(_eval_exponents(right_exp, right_input))
    return tuple(u), tuple(v)


def unit_distance_form(d: int) -> MonomialForm:
    """The form sum_i (a_i - b_i)^2 - 1 over d-dimensional points.

    Grouped so the dimension is d + 2: one term carrying |a|^2 - 1 on the
    left, one carrying |b|^2 on the right, and one cross term -2 a_i b_i per
    coordinate.  Vanishes exactly on pairs at squared distance 1.
    """
    raw: list[tuple[int, Mapping[str, int], Mapping[str, int]]] = [
        (1, {"sq_minus_1": 1}, {}),
        (1, {}, {"sq": 1}),
    ]
    for i in range(d):
        raw.append((-2, {f"a{i}": 1}, {f"b{i}": 1}))
    return MonomialForm.build(raw)


def unit_point_features(point: Sequence[Number], side: str) -> dict[str, Number]:
    """Feature map for ``unit_distance_form`` from a concrete point."""
    sq = sum(c * c for c in point)
    if side == "left":
        feats: dict[str, Number] = {"sq_minus_1": sq - 1}
        feats.update({f"a{i}": c for i, c in enumerate(point)})
    elif side == "right":
        feats = {"sq": sq}
        feats.update({f"b{i}": c for i, c in enumerate(point)})
    else:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    return feats


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


def hypercube_unit_embed(
    n: int,
    seed: int,
    vectors: Sequence[tuple[Number, Number]] | None = None,
    max_retries: int = 64,
) -> list[tuple[Number, ...]]:
    """Embed {0,1}^n in the rational plane so distance 1 = Hamming distance 1.

    The point for x is the sum of the step vectors u_i over the set bits of
    x; each u_i is an exact rational unit vector.  For any such choice,
    adjacent strings land at squared distance exactly 1; the (generic)
    requirement that no other pair does is verified exhaustively over all
    pairs, redrawing the step vectors on any violation.

    Points are returned in the order of x as an integer with bit i = x_i.
    An explicit ``vectors`` list skips the draw but not the verification.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = random.Random(seed)
    for _ in range(max_retries):
        steps = list(vectors) if vectors is not None else [
            _rational_unit_vector(rng) for _ in range(n)
        ]
        if len(steps) != n:
            raise SizeMismatchError(f"need {n} step vectors, got {len(steps)}")
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
        if vectors is not None:
            raise RetriesExhaustedError(
                "supplied step vectors do not give a faithful embedding"
            )
    raise RetriesExhaustedError(
        f"no faithful unit-distance embedding after {max_retries} draws"
    )
