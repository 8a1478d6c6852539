"""Rank problems: construction, evaluation, and closure operations.

A rank problem evaluates g(rank(A(x) - A(y))) for a lazy matrix map A and a
step function g that is constant from its order, len(g) - 1, onward.  Every
value depends on the difference A(x) - A(y) only, as the determinant
certificate det(C(x) - C(y)) of the support reps needs.  This module
builds the threshold-Hamming-distance instances, combines problems on one
index set under arbitrary boolean functions via mixed-radix block-diagonal
assembly, compiles problems to sign representations through the minimal
threshold tree, one verified support rep per change point of the step
function, and closes problems under distance-r composition using capped
rank sums and multiset fingerprint decoding.

Every resize of a problem's maps goes through ``_compress_problem``, which
fits over the problem's difference family {A(x) - A(y) : x <= y}
(``RankProblem.differences``), built once per problem with each member's
rank from ``rank_fn`` at its first pair.  The fit eliminates every
compressed member against that rank, and nothing eliminates an
uncompressed member, so each constructor's rank source is its own proof
obligation (see ``RankProblem``).  A problem built on others reads their
ranks a row at a time (``RankProblem.row``).  Deterministic per seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cache, cached_property
from math import prod
from typing import Callable, Mapping, Sequence

from .compression import MatFamily, fit_compressor, nth_product, word_map
from .errors import (
    BudgetExceededError,
    InconsistentFingerprintError,
    InputError,
    SizeMismatchError,
)
from .exact import Mat, bareiss, block_diag, pack_keys, pattern_blocks, rank_exact
from .hamming import SupportRep, check_alphabet, dist
from .parallel import check_pairs
from .seeds import seed_stream
from .signcompile import SignForm, check_sign_dim, compile_tree, domain_rows
from .signcompile import threshold_dim, threshold_tree
from .signcompile import eval_sign  # noqa: F401 (perfbench traces this binding)
from .veronese import minor_embed  # noqa: F401 (perfbench traces this binding)


# -------------------------------------------------------------------
# The core object
# -------------------------------------------------------------------


@dataclass(frozen=True)
class RankProblem:
    """A boolean matrix of the form g(rank(A(x) - A(y))).

    ``g`` is tabulated on {0, ..., order}, order = len(g) - 1; ranks above
    the order are capped before lookup, which is harmless because g is
    constant there.  ``rank_fn(x, y)`` is the exact rank of A(x) - A(y);
    fits over ``differences`` check their compressed members against it and
    rank no member otherwise, so each constructor proves its source:
    ``symmetric_problem`` eliminates the difference; ``_hamming_problem``
    takes min(dist, k) and ``_compress_problem`` min(rank, size), each
    proved by its fit; ``_block_problem`` sums weighted block ranks, rank
    being additive over blocks; ``problem_from_json`` sums its pattern
    blocks' Bareiss ranks, memoized per pair; the resized and block
    problems compute each row of ranks once (``_tabulated``).

    Every problem is symmetric: ``eval(x, y) == eval(y, x)``, because
    A(y) - A(x) = -(A(x) - A(y)) and rank(M) = rank(-M), and each
    ``rank_fn`` above is symmetric too.  The composition check decides each
    unordered pair once on this contract.
    """

    index_count: int
    a_map: Callable[[int], Mat]
    g: tuple[int, ...]
    rank_fn: Callable[[int, int], int]
    name: str = ""
    meta: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        if not self.g or any(type(b) is not int or b not in (0, 1) for b in self.g):
            raise ValueError("g must be a nonempty 0/1 table")

    @property
    def order(self) -> int:
        return len(self.g) - 1

    def eval(self, x: int, y: int) -> int:
        return self.g[min(self.rank_fn(x, y), self.order)]

    def row(self, x: int) -> list[int]:
        """``rank_fn(x, y)`` at y = x..index_count - 1: a ``_tabulated``
        rank_fn's own row, else asked pair by pair."""
        row, rank = getattr(self.rank_fn, "row", None), self.rank_fn
        return row(x) if row else [rank(x, y) for y in range(x, self.index_count)]

    @cached_property
    def differences(self) -> MatFamily:
        """{A(x) - A(y) : x <= y} as a difference family over the maps
        A(0), ..., A(index_count - 1), ranked by ``rank_fn``; built once per
        problem, so every fit over it shares one family and member ranks."""
        bases = map(self.a_map, range(self.index_count))
        return MatFamily.differences(bases, self.rank_fn)


def symmetric_problem(
    index_count: int, a_map: Callable[[int], Mat], g: Sequence[int], name: str = ""
) -> RankProblem:
    """The rank problem g(rank(A(x) - A(y))) of a hand-written map, with A
    memoized per index and the dense rank of the difference."""
    a_map = cache(a_map)
    return RankProblem(
        index_count, a_map, tuple(g), lambda x, y: rank_exact(a_map(x) - a_map(y)), name
    )


def _tabulated(row: Callable[[int], list[int]]) -> Callable[[int, int], int]:
    """The rank_fn that reads ``row(x)``, the ranks at y = x..N-1, each row
    computed once; rank(A(y) - A(x)) = rank(A(x) - A(y)) serves y < x."""
    row = cache(row)
    rank_fn = lambda x, y: row(x)[y - x] if x <= y else row(y)[x - y]  # noqa: E731
    rank_fn.row = row
    return rank_fn


def _step(s: int) -> tuple[int, ...]:
    """The step function 1{rank >= s} tabulated on {0, ..., s}."""
    return (0,) * s + (1,)


def negate(p: RankProblem) -> RankProblem:
    """The entry-wise negation: same maps, flipped step function."""
    return replace(p, g=tuple(1 - bit for bit in p.g), name=f"not({p.name})")


# -------------------------------------------------------------------
# Threshold Hamming distance as a rank problem
# -------------------------------------------------------------------


def _hamming_problem(
    alphabets: Sequence[Sequence[int]], k: int, seed: int, name: str
) -> RankProblem:
    """The order-k problem with eval(x, y) = 1 iff dist >= k between
    the tuples of ``product(*alphabets)`` numbered x and y.

    A is ``compression.word_map`` of a k x k compressor fitted over the full
    diagonal-difference family, so rank(A(x) - A(y)) equals min(dist, k)
    for every pair; g is the threshold step at k.
    """
    comp = fit_compressor(MatFamily.diagonal_differences_multi(alphabets), k, seed)
    word = cache(lambda i: nth_product(i, alphabets))
    compress = word_map(comp, alphabets)

    def rank_fn(x: int, y: int) -> int:
        # certified by the compressor's exhaustive family verification
        return min(dist(word(x), word(y)), k)

    a_map = cache(lambda i: compress(word(i)))
    return RankProblem(prod(map(len, alphabets)), a_map, _step(k), rank_fn, name)


def hd_rank_problem(
    n: int,
    k: int,
    alphabet: Sequence[int] = (0, 1),
    seed: int = 0,
) -> RankProblem:
    """Threshold Hamming distance dist(x, y) >= k on words of length n,
    indexed in product order."""
    alphabet = check_alphabet(alphabet)
    if not (1 <= k <= n):
        raise InputError(f"need 1 <= k <= n, got k={k}, n={n}")
    seed = seed_stream(seed, "hd-rank", n, k)
    return _hamming_problem((alphabet,) * n, k, seed, f"HD>={k}^{n}")


# -------------------------------------------------------------------
# Boolean combination
# -------------------------------------------------------------------


def _compress_problem(p: RankProblem, size: int, seed: int) -> RankProblem:
    """``p`` on size x size maps, every rank capped at size, evaluation at
    order <= size preserved; the one way this module resizes a problem.

    Maps already size x size are kept; size 0 gives 0 x 0 maps of rank 0.
    Otherwise a compressor C is fitted over ``p.differences``, which every
    resize of ``p`` shares, and the maps are the bases its accepted draw
    compressed: C(A(x)) - C(A(y)) = C(A(x) - A(y)) by linearity, of rank
    min(rank_fn(x, y), size), which the fit checked on every member, and
    row x caps p's row x: a resize of a resize reads the first one's rows.
    """
    if p.a_map(0).shape == (size, size):
        return p
    if size == 0:
        return _block_problem([], p.index_count, p.g, f"norm({p.name})")
    family = p.differences
    a_map = family.compressed(fit_compressor(family, size, seed)).__getitem__
    rank_fn = _tabulated(lambda x: [r if r < size else size for r in p.row(x)])
    return replace(p, a_map=a_map, rank_fn=rank_fn, name=f"norm({p.name})")


def _block_problem(
    parts: Sequence[tuple], index_count: int, g: Sequence[int], name: str
) -> RankProblem:
    """A(x) places, per part (w, P, ix), w copies of P's A(ix[x]) along the
    diagonal, where ``ix`` lists P's index at each x, or is None for x
    itself; rank is additive, so row x sums w * rank_P part by part, from
    P's row x, or with ``ix`` from P's ranks on all pairs, tabulated once."""

    def a_map(x: int) -> Mat:
        maps = [(w, p.a_map(x if ix is None else ix[x])) for w, p, ix in parts]
        return block_diag([m for w, m in maps for _ in range(w)])

    @cache
    def table(i: int) -> list[list[int]]:
        indices, rank = range(parts[i][1].index_count), parts[i][1].rank_fn
        return [[rank(u, v) for v in indices] for u in indices]

    def row(x: int) -> list[int]:
        sums = [0] * (index_count - x)
        for i, (w, p, ix) in enumerate(parts):
            ranks = p.row(x) if ix is None else map(table(i)[ix[x]].__getitem__, ix[x:])
            sums = [s + w * r for s, r in zip(sums, ranks)]
        return sums

    return RankProblem(index_count, a_map, tuple(g), _tabulated(row), name)


def _combined_order(orders: Sequence[int]) -> int:
    """prod (k_i + 1) - 1, refused past 20 components or order 2^22."""
    q = len(orders)
    if q > 20:
        raise BudgetExceededError(f"{q} components need a 2^{q} truth table")
    total_order = prod(k_i + 1 for k_i in orders) - 1
    if total_order > 1 << 22:
        raise BudgetExceededError(
            f"combined order {total_order} exceeds the tabulation budget"
        )
    return total_order


def bool_combine(
    gamma: Callable[[tuple[int, ...]], object],
    problems: Sequence[RankProblem],
    seed: int = 0,
    name: str = "",
) -> RankProblem:
    """Combine problems on one index set under an arbitrary boolean function.

    Problem i, of order k_i, is resized to k_i x k_i maps, and w_i block
    copies of them go along the diagonal, with mixed-radix weights
    w_i = prod_(j<i) (k_j + 1).  Block-diagonal rank is additive, so

        rank(A(x) - A(y)) = sum_i w_i * rank_i(x, y),

    and rank_i is the weight-w_i digit of the total in the mixed radix.
    The combined step function decodes the digits, applies each problem's
    g, then ``gamma``, called on the tuple of problem bits.  The order,
    prod (k_i + 1) - 1, and the problem count are checked against the
    budget before any resize; different index counts raise ``InputError``.
    """
    q = len(problems)
    if q == 0:
        raise ValueError("need at least one component")
    counts = sorted({p.index_count for p in problems})
    if len(counts) > 1:
        raise InputError(f"problems to combine have different index counts {counts}")
    orders = [p.order for p in problems]
    _combined_order(orders)  # refuses an order over the budget
    # the combiner's truth table: index bit i is component i's bit
    table = [
        1 if gamma(tuple((idx >> i) & 1 for i in range(q))) else 0
        for idx in range(1 << q)
    ]
    # digits decode only if every rank is capped at its order, which square
    # order-sized maps enforce
    resized = [
        _compress_problem(p, p.order, seed_stream(seed, "combine-normalize", i))
        for i, p in enumerate(problems)
    ]
    weights = [prod(k_i + 1 for k_i in orders[:i]) for i in range(q)]
    # rank t's code: the g bit of each digit, radix k_i + 1, the last slowest
    codes = [0]
    for i in reversed(range(q)):
        codes = [c | resized[i].g[d] << i for c in codes for d in range(orders[i] + 1)]
    g_table = [table[c] for c in codes]

    combined = _block_problem(
        [(w, p, None) for w, p in zip(weights, resized)],
        counts[0],
        g_table,
        name or f"combine[{','.join(p.name for p in resized)}]",
    )
    return replace(combined, meta={"weights": weights})


# -------------------------------------------------------------------
# Sign compilation
# -------------------------------------------------------------------


def piece_support_rep(p: RankProblem, threshold: int, seed: int) -> SupportRep:
    """A verified support representation of 1{rank(A(x) - A(y)) >= threshold}.

    Compress the finite family {A(x) - A(y)} to threshold x threshold, then
    pair the minor embeddings of the compressed map: the dot product is the
    compressed determinant, nonzero exactly when the rank clears the
    threshold.  Dimension C(2s, s) for threshold s.  The rep is not
    compressor-backed (its maps act on indices, not words), so it does not
    serialize.
    """
    q = _compress_problem(p, threshold, seed)
    return SupportRep(q.a_map, threshold)


def to_sign_rep(p: RankProblem, seed: int = 0) -> SignForm:
    """Compile a rank problem to a verified structured sign representation.

    ``threshold_tree`` asks rank >= t at the change points of g through
    ``piece_support_rep``, the least dimension of any threshold tree.  More
    than COMPOSE_PAIR_BUDGET index pairs, or a tree dimension
    ``threshold_dim(p.g)`` above ``MAX_SIGN_DIM``, are refused before any
    piece is fitted.  The sign is checked against ``p.eval`` on the first
    pair (x, y) of each member of ``p.differences``: once
    the det-sum identity is proved, a piece's dot is det(C(B_x - B_y)), C
    linear, and the form reads it only through s^2, so all pairs of a
    member, (y, x) too, take its values.
    """
    check_pairs(p.index_count**2, COMPOSE_PAIR_BUDGET)
    check_sign_dim(threshold_dim(p.g))
    tree = threshold_tree(
        p.g, lambda t: piece_support_rep(p, t, seed_stream(seed, "piece", t))
    )
    cols: list[list[int]] = [[] for _ in range(p.index_count)]
    for x, y in p.differences.pairs:
        cols[x].append(y)
    rows = replace(domain_rows(range(p.index_count)), cols=cols)
    return compile_tree(tree, rows, p.eval)


# -------------------------------------------------------------------
# Distance-r composition
# -------------------------------------------------------------------

COMPOSE_PAIR_BUDGET = 1 << 14  # index pairs to_sign_rep and distance_r_compose fit


@dataclass(frozen=True)
class CompositionSpec:
    """Distance bound r, outer table h on {0..r}, and the inner problems."""

    r: int
    h: tuple[int, ...]
    inners: tuple[RankProblem, ...]

    def __post_init__(self):
        if type(self.r) is not int or self.r < 0:
            raise InputError(f"r must be an int >= 0, got {self.r!r}")
        if len(self.h) != self.r + 1 or any(
            type(b) is not int or b not in (0, 1) for b in self.h
        ):
            raise InputError(f"h must be a 0/1 int table on 0..{self.r}: {self.h!r}")
        if any(p.index_count < 1 for p in self.inners):
            raise InputError("every inner needs at least one index")

    @property
    def coordinates(self) -> int:
        return len(self.inners)

    @property
    def index_count(self) -> int:
        return prod(p.index_count for p in self.inners)

    def tuple_of(self, idx: int) -> tuple[int, ...]:
        """Combined index -> per-coordinate indices (product order)."""
        return nth_product(idx, [range(p.index_count) for p in self.inners])


def compose_semantics(spec: CompositionSpec, x: Sequence[int], y: Sequence[int]) -> int:
    """Ground truth straight from the definition of distance-r composition."""
    if len(x) != spec.coordinates or len(y) != spec.coordinates:
        raise SizeMismatchError("tuple lengths must match the inner count")
    delta = [i for i in range(spec.coordinates) if x[i] != y[i]]
    if len(delta) > spec.r:
        return 0
    total = sum(spec.inners[i].eval(x[i], y[i]) for i in delta)
    return spec.h[total]


def multiset_decode(
    capped_sums: Mapping[int, int], size_bound: int
) -> tuple[int, ...]:
    """Recover a multiset of positive integers from its capped-sum fingerprint.

    ``capped_sums[t]`` must equal sum over elements u of min(u, t) for
    t = 1..k.  First differences count the elements >= t, and consecutive
    differences of those counts give the exact multiplicities.  Zero
    elements are unobservable (they contribute nothing to any capped sum)
    and are not returned.  Raises when no multiset of at most
    ``size_bound`` positive elements matches.
    """
    if not capped_sums:
        return ()
    k = max(capped_sums)
    if set(capped_sums) != set(range(1, k + 1)):
        raise InconsistentFingerprintError(
            f"fingerprint keys {sorted(capped_sums)} must be 1..{k}"
        )
    counts_ge = [capped_sums[t] - capped_sums.get(t - 1, 0) for t in range(1, k + 1)]
    if counts_ge[0] > size_bound:
        raise InconsistentFingerprintError(
            f"{counts_ge[0]} nonzero elements exceed the size bound {size_bound}"
        )
    multiset = []
    for t in range(1, k + 1):
        above = counts_ge[t] if t < k else 0
        # an inconsistent fingerprint can ask for more than size_bound copies,
        # and the round trip refuses it anyway
        multiset.extend([t] * min(counts_ge[t - 1] - above, size_bound))
    result = tuple(multiset)
    for t in range(1, k + 1):  # exact, so every inconsistent fingerprint fails
        if sum(min(u, t) for u in result) != capped_sums[t]:
            raise InconsistentFingerprintError("fingerprint does not round-trip")
    return result


def distance_r_compose(spec: CompositionSpec, seed: int = 0) -> RankProblem:
    """Realize a distance-r composition as a single rank problem.

    Components combined by ``bool_combine``:

    * the coordinate-distance gate: threshold Hamming distance over the
      index alphabets, order r+1, answering |Delta| <= r;
    * for each cap t in 1..k and each s in 1..r*t, the threshold
      1{rank(A_t(x) - A_t(y)) >= s}, where A_t compresses the block
      diagonal of per-coordinate t-capped maps down to rt x rt.  Whenever
      |Delta| <= r the rank of the A_t difference equals the capped sum
      sum_i min(rank_i, t).

    The combined step function decodes: gate 0 forces output 0; otherwise
    the threshold bits rebuild each capped sum, the multiset fingerprint
    recovers the nonzero inner ranks, and the shared inner step function
    plus the outer table finish the job.

    Requires a shared g across inners (a family in the strict sense), and
    either injective inner maps or g(0) = 0: a coordinate that differs in
    index but not in matrix has rank 0, which no capped sum can see.  The
    compressions fit all-pairs families, so more than COMPOSE_PAIR_BUDGET
    index pairs are refused before any fitting, and so is a combination
    over ``bool_combine``'s budget, with its message.
    """
    m = spec.coordinates
    r = spec.r
    if m == 0:
        raise InputError("need at least one coordinate")
    k = spec.inners[0].order
    shared_g = spec.inners[0].g
    for p in spec.inners:
        if p.order != k:
            raise InputError("all inners must share one order")
        if p.g != shared_g:
            raise InputError(
                "distance-r composition needs a family: all inners must "
                "share one step function"
            )
    check_pairs(spec.index_count**2, COMPOSE_PAIR_BUDGET)
    # the gate, then per cap t the thresholds s = 1..r*t; at r = 0 the gate
    # alone decides
    gate_order = min(r + 1, m)
    caps = range(1, k + 1) if r else ()
    bit_layout = [(t, s) for t in caps for s in range(1, r * t + 1)]
    _combined_order([gate_order] + [s for _, s in bit_layout])

    for i, p in enumerate(spec.inners):
        values = {p.a_map(x).entries for x in range(p.index_count)}
        if len(values) != p.index_count and shared_g[0] == 1:
            raise InputError(
                f"inner {i} is not injective and has g(0) = 1: rank-0 "
                "differing coordinates would be invisible to the fingerprint"
            )

    # coordinate-distance gate: HD >= r+1 over the index alphabets, negated
    alphabets = [tuple(range(p.index_count)) for p in spec.inners]
    gate = replace(
        _hamming_problem(
            alphabets, gate_order, seed_stream(seed, "compose-gate"), f"|Delta|<={r}"
        ),
        g=tuple(1 if t <= r else 0 for t in range(gate_order + 1)),
    )
    components = [gate]
    capped_maps: dict[int, Callable[[int], Mat]] = {}
    # coordinate i's index at every combined index
    columns = list(zip(*map(spec.tuple_of, range(spec.index_count))))
    for t in caps:
        capped = [
            _compress_problem(p, t, seed_stream(seed, "compose-coord", i, t))
            for i, p in enumerate(spec.inners)
        ]
        parts = [(1, q, ix) for q, ix in zip(capped, columns)]
        target = r * t
        capsum = _compress_problem(
            _block_problem(parts, spec.index_count, _step(target), ""),
            target,
            seed_stream(seed, "compose-global", t),
        )
        capped_maps[t] = capsum.a_map
        for s in range(1, target + 1):
            thr = _compress_problem(
                capsum, s, seed_stream(seed, "compose-threshold", t, s)
            )
            components.append(replace(thr, g=_step(s), name=f"capsum[t={t}]>={s}"))

    def decoder(bits: tuple[int, ...]) -> int:
        if not bits[0]:
            return 0
        capped: dict[int, int] = {t: 0 for t in range(1, k + 1)}
        for bit, (t, _) in zip(bits[1:], bit_layout):
            capped[t] += bit
        try:
            ranks = multiset_decode(capped, size_bound=r)
        except InconsistentFingerprintError:
            return 0  # unreachable from real inputs; keeps the table total
        # at most r ranks, each adding at most 1
        return spec.h[sum(shared_g[min(u, k)] for u in ranks)]

    combined = bool_combine(
        decoder,
        components,
        seed=seed_stream(seed, "compose-combine"),
        name=f"distance-{r}-composition",
    )
    return replace(
        combined,
        meta={**combined.meta, "gate_order": gate_order, "capped_maps": capped_maps},
    )


# -------------------------------------------------------------------
# The {c,r}-Hamming-Distance family
# -------------------------------------------------------------------


def example_cc_hd(
    c: int, r: int, n: int, m: int, seed: int = 0
) -> CompositionSpec:
    """Distance-r composition with row-distance inners: h = 1{t <= r} over
    inners answering dist <= c on length-n words, m coordinates."""
    inner = negate(hd_rank_problem(n, c + 1, seed=seed_stream(seed, "cc-inner")))
    h = tuple(1 if t <= r else 0 for t in range(r + 1))
    return CompositionSpec(r=r, h=h, inners=(inner,) * m)


def strict_cc_hd(c: int, r: int, n: int, m: int, seed: int = 0) -> CompositionSpec:
    """The two-condition membership test: at most r coordinates differ AND
    every differing coordinate stays within distance c.

    Encoded with bad-row indicators (dist >= c+1) and h = 1{t = 0}: the sum
    over differing coordinates counts violations, so the outer table can
    demand zero of them.  With good-row indicators the sum cannot separate
    "one far row" from "no row at all", so that encoding provably cannot
    express the second condition.
    """
    inner = hd_rank_problem(n, c + 1, seed=seed_stream(seed, "cc-inner"))
    h = tuple(1 if t == 0 else 0 for t in range(r + 1))
    return CompositionSpec(r=r, h=h, inners=(inner,) * m)


# -------------------------------------------------------------------
# Serialization
# -------------------------------------------------------------------


def problem_to_json(p: RankProblem, max_entries: int = 2_000_000) -> dict:
    """Explicit-table JSON form; guarded so huge assemblies fail loudly."""
    shape = p.a_map(0).shape
    total = p.index_count * shape[0] * shape[1]
    if total > max_entries:
        raise BudgetExceededError(
            f"explicit tables would hold {total} entries, over the "
            f"{max_entries} budget"
        )
    return {
        "schema": "hamrank-rankproblem/1",
        "name": p.name,
        "index_count": p.index_count,
        "order": p.order,
        "symmetric": True,  # the format's B table is always -A
        "g": list(p.g),
        "a": [p.a_map(x).to_json() for x in range(p.index_count)],
        "b": None,
    }


def problem_from_json(doc: dict) -> RankProblem:
    """Rebuild a rank problem from its A table.

    The document must say ``"symmetric": true``, hold no B table, state
    ``order`` as len(g) - 1 and ``index_count`` as the length of A, whose
    matrices must share one shape.  The blocks of the table's union nonzero
    pattern (``pattern_blocks``) are found once, here, and grouped by shape
    and cut over every index, each cut packed into a key (``pack_keys``):
    blocks with equal cuts have equal differences on every pair, so a table
    of w_i copies of A_i (``bool_combine``'s layout) ranks each A_i once,
    weighted by w_i.  Every A(x) - A(y) is zero outside the blocks, so the
    loaded ``rank_fn``, memoized per pair, adds 0 for a block whose key
    difference is 0 and w times the Bareiss rank of the block difference
    for every other, built and eliminated once per shape and key difference;
    ``meta["exact_rechecks"]`` counts those eliminations.
    """
    if doc.get("schema") != "hamrank-rankproblem/1":
        raise ValueError(f"not a rank-problem document: {doc.get('schema')!r}")
    if doc["symmetric"] is not True or doc.get("b") is not None:
        raise InputError("a rank problem needs \"symmetric\": true and no b table")
    a_tab = [Mat.from_json(o) for o in doc["a"]]
    count, order, g = doc["index_count"], doc["order"], tuple(doc["g"])
    if type(count) is not int or len(a_tab) != count:
        raise InputError(
            f"index_count {count!r} does not match a table of {len(a_tab)} matrices"
        )
    if type(order) is not int or order != len(g) - 1:
        raise InputError(f"order {order!r} is not len(g) - 1 = {len(g) - 1}")
    shapes = sorted({m.shape for m in a_tab})
    if len(shapes) > 1:
        raise InputError(f"the A table mixes matrix shapes {shapes}")
    width = shapes[0][1] if shapes else 0
    # each block as rows of entry positions, and its cut at each index as a key
    blocks = [
        [[i * width + j for j in cols] for i in rows]
        for rows, cols in pattern_blocks(a_tab)
    ]
    cuts = [[m.entries[c] for r in block for c in r] for block in blocks for m in a_tab]
    keys = pack_keys(cuts)
    groups: dict[tuple, list] = {}  # (rows, cols, keys) -> [copies, block]
    for i, block in enumerate(blocks):
        cut = (len(block), len(block[0]), tuple(keys[i * count : (i + 1) * count]))
        groups.setdefault(cut, [0, block])[0] += 1
    meta = {"exact_rechecks": 0}
    ranks = {(rows, cols, 0): 0 for rows, cols, _ in groups}  # by key difference

    @cache
    def rank_fn(x: int, y: int) -> int:
        total = 0
        for (rows, cols, cut), (w, block) in groups.items():
            diff = (rows, cols, cut[x] - cut[y])
            if diff not in ranks:
                meta["exact_rechecks"] += 1
                ax, ay = a_tab[x].entries, a_tab[y].entries
                ranks[diff] = bareiss([[ax[c] - ay[c] for c in r] for r in block])[0]
            total += w * ranks[diff]
        return total

    return RankProblem(count, a_tab.__getitem__, g, rank_fn, doc.get("name", ""), meta)


def spec_to_json(spec: CompositionSpec) -> dict:
    return {
        "schema": "hamrank-compspec/1",
        "r": spec.r,
        "h": list(spec.h),
        "inners": [{"problem": problem_to_json(p)} for p in spec.inners],
    }


def spec_from_json(doc: dict, load_file=None) -> CompositionSpec:
    """Rebuild a composition spec; ``load_file`` turns a file reference into
    its rank problem."""
    if doc.get("schema") != "hamrank-compspec/1":
        raise ValueError(f"not a composition spec: {doc.get('schema')!r}")
    inners = []
    for entry in doc["inners"]:
        if "problem" in entry:
            inners.append(problem_from_json(entry["problem"]))
        elif "file" in entry:
            if load_file is None:
                raise ValueError("file references need a loader")
            inners.append(load_file(entry["file"]))
        else:
            raise ValueError("inner entry needs 'problem' or 'file'")
    return CompositionSpec(r=doc["r"], h=tuple(doc["h"]), inners=tuple(inners))
