"""Rank-preserving compression of finite matrix families.

A compressor is a two-sided linear map M -> L * M * R^T chosen so that for
every member M of a fixed finite family,

    rank(L * M * R^T) == min(rank(M), k)

where the target is k x k: L and R both have k rows.  Such maps exist
generically; we fit one by drawing integer entries at random, verifying the
equality exhaustively over the family, and retrying with a doubled entry
range on failure.  The returned compressor is always carried together with
its verification status: nothing in the package ever assumes genericity
without checking it.

The families that matter are diagonal products {Diag(z) : z in D_1 x ... x
D_n}, e.g. the (2|A|-1)^n difference patterns of words over an alphabet A.
They are kept as the value sets D_p and checked exactly, in index order, by
rows of packed determinants (``_diagonal_shortfalls``), with no pattern list
and no matrix object per member.  The same prefix and suffix vectors
(``det_vectors``) are what ``signcompile`` packs into build-sign's exact
oracle values, read back from each oracle's own family walk
(``shared_det_vectors``).

Explicit families are the all-pairs difference families {B_x - B_y} of a
rank problem's maps (``MatFamily.differences``): a check compresses each
base once and eliminates one compressed difference per member.

When the target is at least as large as the source, the identity embedding
avoids randomness altogether.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import cached_property
from operator import add, sub
from typing import Callable, Iterator, Sequence

from .errors import InputError, RetriesExhaustedError, SizeMismatchError
from .exact import Mat, bareiss, det_exact, int_from_json, pack_keys, rank_exact
from .parallel import REPORT_CAP, SweepReport, check_size, flagged, packed_nonzero
from .parallel import top_bytes

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

    Either an explicit difference family or a diagonal product family.

    A difference family holds base maps B_0, ..., B_(N-1) (``bases``) and,
    for each distinct member in first-occurrence order, the first pair
    (x, y) with B_x - B_y equal to it (``pairs``).  A compressor is linear,
    L (B_x - B_y) R^T = L B_x R^T - L B_y R^T, so a check compresses each
    base once and ranks one k x k difference per member.  ``rank(x, y)``,
    a rank problem's ``rank_fn``, states the rank of B_x - B_y.

    A diagonal product family {Diag(z) : z in D_1 x ... x D_n} is given by
    the sorted value sets D_p (``diag_values``) and never materialized.
    Diagonal members are numbered in product order, last position fastest;
    the rank of Diag(z) is the support size of z.
    """

    shape: tuple[int, int]
    bases: tuple[Mat, ...] | None = None
    pairs: tuple[tuple[int, int], ...] | None = None
    diag_values: tuple[tuple[int, ...], ...] | None = None
    rank: Callable[[int, int], int] | None = field(default=None, compare=False)
    _compressed: dict = field(default_factory=dict, init=False, compare=False)

    def __post_init__(self):
        if (self.bases is None) == (self.diag_values is None):
            raise ValueError("exactly one of bases/diag_values must be given")

    @classmethod
    def differences(cls, bases: Sequence[Mat], rank=None) -> "MatFamily":
        """The family {B_x - B_y : x <= y} of the bases' differences, told
        apart by their packed keys' differences (``exact.pack_keys``) in
        x-major order, each member kept at its first pair; x > y would only
        negate a member."""
        bases = tuple(bases)
        if not bases:
            raise ValueError("family must be nonempty")
        shape = bases[0].shape
        if any(b.shape != shape for b in bases):
            raise SizeMismatchError("family members must share one shape")
        keys = pack_keys([b.entries for b in bases])
        first: dict[int, tuple[int, int]] = {}
        for x, kx in enumerate(keys):
            for y, ky in enumerate(keys[x:], x):
                first.setdefault(kx - ky, (x, y))
        return cls(shape, bases, tuple(first.values()), rank=rank)

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
        ``MAX_DIAGONAL_PATTERNS`` members, named as a product of powers,
        unexpanded, past the budget's bit length (``parallel.check_size``).
        """
        values = tuple(
            tuple(sorted({a - b for a in alpha for b in alpha})) for alpha in alphabets
        )
        powers = Counter(len(v) for v in values if len(v) > 1)
        check_size(
            "{} diagonal patterns exceed the family budget of {}",
            MAX_DIAGONAL_PATTERNS,
            lambda: math.prod(len(v) for v in values),
            powers.total(),
            " * ".join(f"{size}^{m}" for size, m in sorted(powers.items())),
        )
        return cls(shape=(len(alphabets), len(alphabets)), diag_values=values)

    @property
    def size(self) -> int:
        if self.pairs is not None:
            return len(self.pairs)
        return math.prod(len(v) for v in self.diag_values)

    @property
    def is_diagonal(self) -> bool:
        return self.diag_values is not None

    def member(self, index: int) -> Mat:
        """The difference family's member ``index``, B_x - B_y."""
        x, y = self.pairs[index]
        return self.bases[x] - self.bases[y]

    @cached_property
    def member_ranks(self) -> tuple[int, ...]:
        """Rank of every member of a difference family, in index order,
        ``rank`` at its first pair or else Bareiss on the member; computed
        once per family, however many draws check it."""
        rank = self.rank or (lambda x, y: rank_exact(self.bases[x] - self.bases[y]))
        return tuple(rank(x, y) for x, y in self.pairs)

    def compressed(self, comp: "Compressor") -> tuple[Mat, ...]:
        """C(B_0), ..., C(B_(N-1)), computed once per compressor."""
        key = (comp.left, comp.right)
        if key not in self._compressed:
            self._compressed[key] = tuple(map(comp.apply, self.bases))
        return self._compressed[key]


# -------------------------------------------------------------------
# Compressor
# -------------------------------------------------------------------


@dataclass(frozen=True)
class Compressor:
    """A verified two-sided rank compressor M -> left * M * right^T onto a
    square k x k target; factors with different row counts are refused."""

    left: Mat  # k x a
    right: Mat  # k x b
    seed: int
    verified: bool
    retries: int = 0
    entry_range: int = 0  # 0 for deterministic constructions
    method: str = "fit"

    def __post_init__(self):
        if self.left.rows != self.right.rows:
            shapes = f"{self.left.shape} and {self.right.shape}"
            raise InputError(f"factor shapes {shapes} do not give a square target")

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
        k, a = self.left.shape
        if self.right.cols != a or len(pattern) != a:
            raise SizeMismatchError(
                f"diagonal pattern of length {len(pattern)} does not fit "
                f"source shape {self.source_shape}"
            )
        out = [0] * (k * k)
        le, re = self.left.entries, self.right.entries
        for idx, z in enumerate(pattern):
            if z == 0:
                continue
            for i in range(k):
                li = z * le[i * a + idx]
                if li == 0:
                    continue
                base = i * k
                for j in range(k):
                    out[base + j] += li * re[j * a + idx]
        return Mat(k, k, tuple(out))

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


def split_positions(values: Sequence[Sequence[int]]) -> tuple[int, int]:
    """(first suffix position, suffix pattern count) of the longest run of
    trailing positions with at most 2 sqrt(family size) patterns."""
    size = math.prod(map(len, values))
    split, count = len(values), 1
    while split and (count * len(values[split - 1])) ** 2 <= 4 * size:
        split -= 1
        count *= len(values[split])
    return split, count


def word_map(
    comp: Compressor, alphabets: Sequence[Sequence[int]]
) -> Callable[[tuple[int, ...]], Mat]:
    """x -> comp.apply_diag(x) on word tuples over ``alphabets`` (one per
    position) as C(prefix . 0) + C(0 . suffix), exact as ``apply_diag`` is
    linear, split by ``split_positions``; each half-word is compressed once,
    on first use, about 2 sqrt(|A|^n) ``apply_diag`` calls for all words."""
    split = split_positions(alphabets)[0]
    k, head, tail = comp.left.rows, (0,) * split, (0,) * (len(alphabets) - split)
    prefix = functools.cache(lambda p: comp.apply_diag(p + tail).entries)
    suffix = functools.cache(lambda q: comp.apply_diag(head + q).entries)

    def apply(x: tuple[int, ...]) -> Mat:
        return Mat(k, k, tuple(map(add, prefix(x[:split]), suffix(x[split:]))))

    return apply


def supports(values: tuple[tuple[int, ...], ...], positions: range) -> list[int]:
    """The support of each z over the product of ``values[p]``, p in
    ``positions``, as a bit mask, in product order."""
    masks = [0]
    for p in positions:
        masks = [mask | (v != 0) << p for mask in masks for v in values[p]]
    return masks


def _diagonal_shortfalls(
    comp: Compressor, values: tuple[tuple[int, ...], ...]
) -> Iterator[tuple[int, int, int]]:
    """(index, achieved, required) for each Diag(z), z in the product of
    ``values``, whose compressed rank falls short, in index order.

    The positions split into a prefix and a suffix, the longest run of
    trailing positions whose pattern count is at most 2 sqrt(family size).
    Member (i, j), prefix i with suffix j, has index i * #suffixes + j.

    A member of support S below the rank cap k, the target size, has
    C(z) = L_S Diag(z_S) R_S^T with Diag(z_S) invertible, so its rank is
    |S| exactly when the columns of L and of R on S are independent: a
    property of S alone, checked once per support by two exact ranks.

    The cap is reached exactly where the k x k determinant det C(z) is
    nonzero, a dot product of prefix and suffix vectors (``det_vectors``).
    So the suffixes' vectors are packed once (``parallel.packed_nonzero``),
    and each prefix row gets every exact determinant for one big-integer
    multiply-add per nonzero monomial of the prefix; the top-bit flags mark
    the members of rank k.  A row whose members all lie below the cap reads
    no flags, and a family with no member at the cap expands nothing.  Exact
    Bareiss ranks of C(z) (``apply_diag``, one ``rank_exact`` call each) run
    only on the members that fail, for their achieved rank.
    """
    cap = comp.left.rows
    n = len(values)
    split, count = split_positions(values)
    prefixes = supports(values, range(split))
    suffixes = supports(values, range(split, n))
    sizes = [mask.bit_count() for mask in suffixes]
    top = max(sizes)
    # per deficit t = cap - prefix support: the suffixes reaching the cap, as
    # flag bytes, and the suffixes below it
    reach = [
        int.from_bytes(bytes(0x80 * (size >= t) for size in sizes), "little")
        for t in range(cap + 1)
    ]
    below = [[j for j, size in enumerate(sizes) if size < t] for t in range(cap + 1)]

    @functools.cache
    def independent(mask: int) -> bool:
        cols = [p for p in range(n) if mask >> p & 1]
        return all(
            rank_exact(factor.submatrix(range(factor.rows), cols)) == len(cols)
            for factor in (comp.left, comp.right)
        )

    # a row reads flags only if t <= top, that is only when this kernel exists
    if any(cap - mask.bit_count() <= top for mask in prefixes):
        nonzero, slot_bytes = packed_nonzero(*det_vectors(comp, values, split))

    for i, pre_mask in enumerate(prefixes):
        t = max(cap - pre_mask.bit_count(), 0)
        checks = [j for j in below[t] if not independent(pre_mask | suffixes[j])]
        if t <= top:
            flags = int.from_bytes(top_bytes(nonzero(i), slot_bytes, count), "little")
            if diff := flags ^ reach[t]:
                odd = flagged(diff.to_bytes(count, "little"))
                checks = sorted({*checks, *odd})
        for j in checks:
            achieved = rank_exact(comp.apply_diag(nth_product(i * count + j, values)))
            required = min((pre_mask | suffixes[j]).bit_count(), cap)
            if achieved != required:
                yield i * count + j, achieved, required


# det_vectors' results inside shared_det_vectors, else None: a plain
# variable, as hamrank runs in one thread, where contextvars would load a
# shared library into every process
_shared: dict | None = None


@contextmanager
def shared_det_vectors() -> Iterator[None]:
    """Inside the block, ``det_vectors`` expands each of its argument tuples
    once, so a call for an oracle that a family walk checked reads the
    walk's vectors back; they are dropped when the block ends."""
    global _shared
    outer, _shared = _shared, {}
    try:
        yield
    finally:
        _shared = outer


def det_vectors(
    comp: Compressor, values: tuple[tuple[int, ...], ...], split: int
) -> tuple[list[list[int]], list[list[int]]]:
    """(us, vs) with det C(z) = <us[i], vs[j]> for prefix i and suffix j of
    z, in product order.  ``_cap_coefficients`` expands det = sum_S coef(S)
    z^S over the k-sets S of positions, and splitting each S into its prefix
    part T and suffix part U makes it

        det = <(z_pre^T over T), (sum_U coef(T + U) z_suf^U over T)>.
    """
    shared, key = _shared, (comp.left, comp.right, values, split)
    if shared is not None and key in shared:
        return shared[key]  # lists no caller changes
    pre = (1 << split) - 1
    expansion = _cap_coefficients(comp, values)
    slot = {t: i for i, t in enumerate(sorted({s & pre for s in expansion}))}
    width = len(slot)
    monomials = {t: [int(i == j) for j in range(width)] for t, i in slot.items()}
    poly: dict[int, list[int]] = {}
    for s, coef in expansion.items():
        poly.setdefault(s & ~pre, [0] * width)[slot[s & pre]] += coef
    vectors = (
        _evaluate(monomials, values, range(split), width),
        _evaluate(poly, values, range(split, len(values)), width),
    )
    if shared is not None:
        shared[key] = vectors
    return vectors


def _cap_coefficients(
    comp: Compressor, values: tuple[tuple[int, ...], ...]
) -> dict[int, int]:
    """det C(z) = sum_S coef(S) z^S as {bit mask of S: coef(S)}, without
    the zeros.

    C(z) = sum_p z_p l_p r_p^T adds one rank-one term per position, so the
    determinant of the k x k matrix C(z) is affine in each z_p and
    homogeneous of degree k in z: a sum over the k-sets S of positions of
    coef(S) z^S.  At the indicator z = 1_S every other term vanishes, so
    coef(S) is det C(1_S), one exact k x k determinant.  Positions whose
    only value is 0 never contribute and are left out of S.
    """
    k = comp.left.rows
    n = len(values)
    le, re = comp.left.entries, comp.right.entries
    live = [p for p, vals in enumerate(values) if any(vals)]
    outer = {p: [x * y for x in le[p::n] for y in re[p::n]] for p in live}
    zero = [0] * (k * k)
    expansion = {}
    for subset in itertools.combinations(live, k):
        flat = tuple(sum(col) for col in zip(zero, *map(outer.__getitem__, subset)))
        if coef := det_exact(Mat(k, k, flat)):
            expansion[sum(1 << p for p in subset)] = coef
    return expansion


def _evaluate(
    poly: dict[int, list[int]],
    values: tuple[tuple[int, ...], ...],
    positions: range,
    width: int,
) -> list[list[int]]:
    """The vector sum_T z^T poly[T] (T a bit mask of positions) for z over
    the product of ``values[p]``, p in ``positions``, in product order; the
    masks hold no other positions.  Each position is substituted in turn,
    so a prefix shared by many points is substituted once."""
    states = [poly]
    for p in positions:
        bit = 1 << p
        states = [_substitute(state, bit, v) for state in states for v in values[p]]
    zero = [0] * width
    return [state.get(0, zero) for state in states]


def _substitute(poly: dict[int, list[int]], bit: int, v: int) -> dict[int, list[int]]:
    """``poly`` with the variable of ``bit`` set to v."""
    out: dict[int, list[int]] = {}
    for mask, vec in poly.items():
        if mask & bit:
            if not v:
                continue
            mask ^= bit
            vec = [v * x for x in vec]
        out[mask] = list(map(add, out[mask], vec)) if mask in out else vec
    return out


def _shortfalls(comp: Compressor, family: MatFamily) -> Iterator[tuple[int, int, int]]:
    """(index, achieved, required) for every member the compressor fails."""
    if family.is_diagonal:
        yield from _diagonal_shortfalls(comp, family.diag_values)
        return
    k = comp.left.rows
    rows = [[c.row(i) for i in range(k)] for c in family.compressed(comp)]
    for index, ((x, y), rank) in enumerate(zip(family.pairs, family.member_ranks)):
        required = min(rank, k)
        achieved = bareiss([list(map(sub, *pair)) for pair in zip(rows[x], rows[y])])[0]
        if achieved != required:
            yield index, achieved, required


def _violation(family: MatFamily, index: int, achieved: int, required: int) -> dict:
    record = {"index": index, "achieved": achieved, "required": required}
    if family.pairs is not None:
        record["entries"] = [str(e) for e in family.member(index).entries]
    else:
        record["pattern"] = list(nth_product(index, family.diag_values))
    return record


def verify_compressor(comp: Compressor, family: MatFamily) -> SweepReport:
    """Exhaustively check rank(apply(M)) == min(rank(M), k) over the family,
    for the compressor's k x k target and a difference family's member ranks.

    Deterministic: members are visited in index order.  The report's
    ``pairs_checked`` is the family size; it counts every violating member
    and lists the first ``REPORT_CAP`` of them as records.
    """
    if comp.source_shape != family.shape:
        raise SizeMismatchError(
            f"compressor source {comp.source_shape} does not match family "
            f"shape {family.shape}"
        )
    shortfalls = _shortfalls(comp, family)
    first = list(itertools.islice(shortfalls, REPORT_CAP))
    count = len(first) + sum(1 for _ in shortfalls)
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
        left, right = (
            Mat(size, c, tuple(int(i == j) for i in range(size) for j in range(c)))
            for c in (a, b)
        )
        comp = Compressor(left, right, seed, verified=False, method="identity")
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
