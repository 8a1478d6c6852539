"""Explicit support-rank representations of threshold Hamming distance.

The pipeline: compress the diagonal-difference family so that the rank of
Diag(x - y) is preserved up to a cap of k, then replace the full-rank test
det != 0 by an inner product of minor embeddings.  The result is a pair of
vector families u(x), v(y) of dimension C(2k, k) with

    <u(x), v(y)> != 0   if and only if   dist(x, y) >= k,

valid over any finite integer alphabet.  Construction certifies itself
through the compressor's exhaustive family verification; an independent
exhaustive (or sampled) pair check and an explicit identity-submatrix
certificate for the 2^k lower bound are provided on top.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from math import comb
from operator import getitem, mul
from typing import Callable, Sequence

from .compression import Compressor, MatFamily, fit_compressor, verify_compressor
from .errors import (
    InputError,
    PatternViolationError,
    RetriesExhaustedError,
    SizeMismatchError,
)
from .exact import Mat
from .parallel import map_rows  # noqa: F401 (perfbench traces this binding)
from .parallel import SweepReport, sweep
from .seeds import rng_stream, seed_stream
from .veronese import minor_embed

Word = tuple[int, ...]


class SupportRep:
    """An indexed family of integer vector pairs witnessing a support bound.

    ``u`` and ``v`` are lazy: vectors are derived from the compressor on
    demand and memoized, so a representation over 2^n strings costs memory
    only for the strings actually touched.  Instances are immutable and
    safe to share across threads (the memo dicts only ever grow, and any
    interleaving computes identical values).
    """

    def __init__(
        self,
        dim: int,
        u_fn: Callable[[Word], tuple[int, ...]],
        v_fn: Callable[[Word], tuple[int, ...]],
        predicate: str,
        n: int | None = None,
        k: int | None = None,
        alphabet: tuple[int, ...] | None = None,
        compressor: Compressor | None = None,
        seed: int | None = None,
    ):
        self.dim = dim
        self.predicate = predicate
        self.n = n
        self.k = k
        self.alphabet = alphabet
        self.compressor = compressor
        self.seed = seed
        self._u_fn = u_fn
        self._v_fn = v_fn
        self._u_cache: dict = {}
        self._v_cache: dict = {}

    def u(self, x) -> tuple[int, ...]:
        vec = self._u_cache.get(x)
        if vec is None:
            vec = self._u_fn(x)
            self._u_cache[x] = vec
        return vec

    def v(self, y) -> tuple[int, ...]:
        vec = self._v_cache.get(y)
        if vec is None:
            vec = self._v_fn(y)
            self._v_cache[y] = vec
        return vec

    def dot(self, x, y) -> int:
        return sum(a * b for a, b in zip(self.u(x), self.v(y)))

    def query(self, x, y) -> bool:
        """The boolean matrix entry this representation supports."""
        return self.dot(x, y) != 0

    def to_json(self) -> dict:
        if self.compressor is None:
            raise ValueError("only compressor-backed representations serialize")
        return {
            "schema": "hamrank-supp/1",
            "predicate": self.predicate,
            "n": self.n,
            "k": self.k,
            "alphabet": [str(a) for a in self.alphabet],
            "dim": self.dim,
            "seed": self.seed,
            "compressor": self.compressor.to_json(),
        }


def minor_rep(
    a_map: Callable, b_map: Callable, size: int, predicate: str, **fields
) -> SupportRep:
    """The support rep <u(x), v(y)> = det(a_map(x) + b_map(y)) for square maps.

    u and v are the left and right minor embeddings of the size x size
    maps, so the dot product is nonzero exactly where the sum has full rank.
    ``fields`` are the remaining ``SupportRep`` attributes.
    """
    return SupportRep(
        dim=comb(2 * size, size),
        u_fn=lambda x: minor_embed(a_map(x), "left"),
        v_fn=lambda y: minor_embed(b_map(y), "right"),
        predicate=predicate,
        **fields,
    )


class _Memo(dict):
    """An index -> value table filled on first lookup."""

    def __init__(self, fn: Callable[[int], object]):
        super().__init__()
        self._fn = fn

    def __missing__(self, key: int) -> object:
        value = self[key] = self._fn(key)
        return value


def word_of_index(i: int, n: int, alphabet: tuple[int, ...]) -> Word:
    """Index -> word, matching itertools.product enumeration order."""
    base = len(alphabet)
    digits = []
    for _ in range(n):
        digits.append(alphabet[i % base])
        i //= base
    return tuple(reversed(digits))


def indexed_words(n: int, alphabet: tuple[int, ...], mode: str):
    """Index -> word in product order, for a sweep over the word domain.

    Exhaustive mode lists every word up front; sample mode derives only the
    drawn indices' words, on first lookup, and never enumerates the domain.
    """
    if mode == "exhaustive":
        return list(itertools.product(alphabet, repeat=n))
    return _Memo(lambda i: word_of_index(i, n, alphabet))


def dist(x: Sequence[int], y: Sequence[int]) -> int:
    """Hamming distance between equal-length words."""
    if len(x) != len(y):
        raise SizeMismatchError("words must have equal length")
    return sum(1 for a, b in zip(x, y) if a != b)


def _weights_compressor(n: int) -> Compressor:
    # Power-of-two row against all-ones row: the compressed 1x1 entry of
    # Diag(z) is the weighted support sum, nonzero for every nonzero +-c
    # pattern by distinctness of binary subset sums.
    left = Mat(1, n, tuple(1 << i for i in range(n)))
    right = Mat(1, n, (1,) * n)
    return Compressor(
        left=left,
        right=right,
        source_shape=(n, n),
        target_shape=(1, 1),
        seed=0,
        verified=False,
        method="weights",
    )


def build_hd_supp(
    n: int,
    k: int,
    alphabet: Sequence[int] = (0, 1),
    seed: int = 0,
    max_retries: int = 16,
) -> SupportRep:
    """Build a verified dim-C(2k,k) support representation of dist >= k.

    The alphabet is any tuple of distinct integers; values embed as
    themselves.  For k = 1 over a two-letter alphabet the compressor is the
    deterministic power-of-two weight row (differences are +-c multiples of
    distinct subset sums, hence nonzero), removing randomness from the
    smallest case; it is still verified against the full difference family
    rather than trusted.
    """
    alphabet = tuple(int(a) for a in alphabet)
    if len(set(alphabet)) != len(alphabet):
        raise InputError("alphabet values must be distinct")
    if not (1 <= k <= n):
        raise InputError(f"need 1 <= k <= n, got k={k}, n={n}")

    family = MatFamily.diagonal_differences(n, alphabet)
    if k == 1 and len(alphabet) == 2:
        comp = _weights_compressor(n)
        report = verify_compressor(comp, family)
        if not report.ok:
            raise RetriesExhaustedError(
                "weight compressor failed family verification",
                member=report.violations[0],
            )
        comp = replace(comp, verified=True)
    else:
        comp = fit_compressor(
            family, k, k, seed_stream(seed, "hd-supp", n, k), max_retries=max_retries
        )

    return minor_rep(
        comp.apply_diag,
        lambda y: -comp.apply_diag(y),
        k,
        f"HD>={k}",
        n=n,
        k=k,
        alphabet=alphabet,
        compressor=comp,
        seed=seed,
    )


def load_supp(obj: dict) -> SupportRep:
    """Rebuild a support representation from its JSON form."""
    if obj.get("schema") != "hamrank-supp/1":
        raise ValueError(f"not a support-rep document: {obj.get('schema')!r}")
    comp = Compressor.from_json(obj["compressor"])
    k = obj["k"]
    return minor_rep(
        comp.apply_diag,
        lambda y: -comp.apply_diag(y),
        k,
        obj["predicate"],
        n=obj["n"],
        k=k,
        alphabet=tuple(int(a) for a in obj["alphabet"]),
        compressor=comp,
        seed=obj["seed"],
    )


# -------------------------------------------------------------------
# Verification
# -------------------------------------------------------------------


def _violation(x: Word, y: Word, value: int, expected: bool) -> dict:
    return {
        "x": list(x),
        "y": list(y),
        "dot": str(value),
        "expected_nonzero": expected,
    }


def verify_support_rep(
    rep: SupportRep,
    mode: str = "exhaustive",
    sample_count: int | None = None,
    sample_seed: int = 0,
    threads: int = 1,
    max_pairs: int | None = None,
    violation_cap: int = 32,
) -> SweepReport:
    """Check <u(x), v(y)> != 0 iff dist(x, y) >= k over ordered pairs.

    Exhaustive mode sweeps all |alphabet|^(2n) ordered pairs in product
    order; sample mode draws seeded uniform ordered pairs.  The report is
    deterministic for a given mode and seed, and independent of the thread
    count (see ``parallel.sweep``).
    """
    if rep.n is None or rep.k is None or rep.alphabet is None:
        raise ValueError("verification needs a Hamming-threshold representation")
    n, k, alphabet = rep.n, rep.k, rep.alphabet

    def prepare():
        # one-hot letter codes: each differing position sets two bits of the xor
        a = len(alphabet)
        bits = [{c: 1 << (p * a + b) for b, c in enumerate(alphabet)} for p in range(n)]

        def code(w: Word) -> int:
            return sum(map(getitem, bits, w))

        words = indexed_words(n, alphabet, mode)
        if mode == "exhaustive":
            # every vector is used: embed once, before the rows are shared out
            us, vs, codes = ([f(w) for w in words] for f in (rep.u, rep.v, code))
        else:
            us, vs, codes = (
                _Memo(lambda i, f=f: f(words[i])) for f in (rep.u, rep.v, code)
            )
        need = 2 * k

        def bad_cols(i: int, cols) -> list[int]:
            ui, ci = us[i], codes[i]
            return [
                j
                for j in cols
                if (sum(map(mul, ui, vs[j])) != 0)
                != ((ci ^ codes[j]).bit_count() >= need)
            ]

        return bad_cols

    result = sweep(
        len(alphabet) ** n,
        prepare,
        mode,
        sample_count,
        rng_stream(sample_seed, "verify-sample", n, k),
        threads,
        max_pairs,
        violation_cap,
    )
    records = []
    for i, j in result.violations:
        x, y = word_of_index(i, n, alphabet), word_of_index(j, n, alphabet)
        records.append(_violation(x, y, rep.dot(x, y), dist(x, y) >= k))
    return replace(result, violations=tuple(records))


# -------------------------------------------------------------------
# Lower-bound certificate
# -------------------------------------------------------------------


@dataclass(frozen=True)
class IdentityCertificate:
    """An m x m identity pattern inside the support, forcing rank >= m."""

    size: int
    row_words: tuple[Word, ...]
    col_words: tuple[Word, ...]

    def to_json(self) -> dict:
        return {
            "size": self.size,
            "rows": [list(w) for w in self.row_words],
            "cols": [list(w) for w in self.col_words],
        }


def identity_certificate(rep: SupportRep) -> IdentityCertificate:
    """Exhibit the 2^k x 2^k identity inside dist >= k and check it.

    Rows are the words w . 0^(n-k) over the first k coordinates; column j
    complements the first k bits of row j.  Row i meets column j at distance
    k - dist(w_i, w_j), which reaches k exactly on the diagonal, so the
    pattern of nonzero dots must be the identity.  An identity of size m
    forces any same-support matrix to have rank at least m.
    """
    if rep.alphabet is None or len(rep.alphabet) != 2:
        raise InputError("the identity certificate needs a two-letter alphabet")
    lo, hi = rep.alphabet
    n, k = rep.n, rep.k
    rows = []
    cols = []
    for bits in itertools.product((lo, hi), repeat=k):
        rows.append(tuple(bits) + (lo,) * (n - k))
        flipped = tuple(hi if b == lo else lo for b in bits)
        cols.append(flipped + (lo,) * (n - k))

    def bad_cols(i: int, js) -> list[int]:
        return [j for j in js if rep.query(rows[i], cols[j]) != (i == j)]

    result = sweep(len(rows), lambda: bad_cols, cap=1)
    if not result.certified:
        i, j = result.violations[0]
        raise PatternViolationError(
            f"identity pattern broken at ({i}, {j}): "
            f"dot {'nonzero' if i != j else 'zero'}, "
            f"expected {'diagonal' if i == j else 'off-diagonal'}"
        )
    return IdentityCertificate(1 << k, tuple(rows), tuple(cols))
