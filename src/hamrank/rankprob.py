"""Rank problems: construction, evaluation, and closure operations.

A rank problem evaluates g(rank(A(x) + B(y))) for lazy matrix maps A, B and
a step function g that is constant from its order onward.  This module
builds the threshold-Hamming-distance instances, combines problems under
arbitrary boolean functions via mixed-radix block-diagonal assembly,
decomposes any problem into monotone threshold pieces queried by binary
search, compiles problems to sign representations through those pieces,
and closes symmetric problems under distance-r composition using capped
rank sums and multiset fingerprint decoding.

Construction is deterministic per seed; every fitted compressor inside a
construction carries its own exhaustive family verification.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cache
from math import prod
from typing import Callable, Mapping, Sequence

from .compression import MatFamily, fit_compressor
from .errors import (
    BudgetExceededError,
    InconsistentFingerprintError,
    InputError,
    SizeMismatchError,
)
from .exact import Mat, block_diag, rank_exact, repeat_diag
from .hamming import SupportRep, minor_rep, word_of_index
from .seeds import seed_stream
from .signcompile import (
    Leaf,
    Node,
    OracleTree,
    SignRep,
    compile_tree,
)
from .signcompile import eval_sign  # noqa: F401 (perfbench traces this binding)
from .veronese import minor_embed  # noqa: F401 (perfbench traces this binding)


# -------------------------------------------------------------------
# The core object
# -------------------------------------------------------------------


@dataclass(frozen=True)
class RankProblem:
    """A boolean matrix of the form g(rank(A(x) + B(y))).

    ``g`` is tabulated on {0, ..., order}; ranks above the order are capped
    before lookup, which is harmless because g is constant there.  When
    ``rank_fn`` is set (by the structured constructors) it must return the
    exact rank of A(x) + B(y); block-diagonal constructions use it to sum
    block ranks instead of eliminating the assembled matrix, and tests pin
    the two paths against each other.
    """

    index_count: int
    a_map: Callable[[int], Mat]
    b_map: Callable[[int], Mat]
    g: tuple[int, ...]
    order: int
    symmetric: bool
    name: str = ""
    rank_fn: Callable[[int, int], int] | None = None
    meta: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        if len(self.g) != self.order + 1:
            raise SizeMismatchError(
                f"g table has {len(self.g)} entries, expected order+1="
                f"{self.order + 1}"
            )
        if any(bit not in (0, 1) for bit in self.g):
            raise ValueError("g must be 0/1-valued")

    def rank_of_pair(self, x: int, y: int) -> int:
        if self.rank_fn is not None:
            return self.rank_fn(x, y)
        return rank_exact(self.a_map(x) + self.b_map(y))

    def eval(self, x: int, y: int) -> int:
        return self.g[min(self.rank_of_pair(x, y), self.order)]

    def dense_eval(self, x: int, y: int) -> int:
        """Evaluation through the assembled matrices, ignoring rank_fn."""
        return self.g[min(rank_exact(self.a_map(x) + self.b_map(y)), self.order)]


def symmetric_problem(
    index_count: int,
    a_map: Callable[[int], Mat],
    g: Sequence[int],
    order: int,
    name: str = "",
    rank_fn: Callable[[int, int], int] | None = None,
    meta: dict | None = None,
) -> RankProblem:
    """A rank problem with B = -A."""
    a_map = cache(a_map)

    def b_map(y: int) -> Mat:
        return -a_map(y)

    return RankProblem(
        index_count=index_count,
        a_map=a_map,
        b_map=b_map,
        g=tuple(g),
        order=order,
        symmetric=True,
        name=name,
        rank_fn=rank_fn,
        meta=meta or {},
    )


def negate(p: RankProblem) -> RankProblem:
    """The entry-wise negation: same maps, flipped step function."""
    return replace(p, g=tuple(1 - bit for bit in p.g), name=f"not({p.name})")


# -------------------------------------------------------------------
# Threshold Hamming distance as a rank problem
# -------------------------------------------------------------------


def hd_rank_problem(
    n: int,
    k: int,
    alphabet: Sequence[int] = (0, 1),
    seed: int = 0,
    max_retries: int = 16,
) -> RankProblem:
    """The symmetric order-k problem with eval(x, y) = 1 iff dist(x, y) >= k.

    A(x) compresses Diag(word(x)) to k x k through a compressor fitted over
    the full diagonal-difference family, so rank(A(x) - A(y)) equals
    min(dist, k) for every pair; g is the threshold step at k.
    """
    alphabet = tuple(int(a) for a in alphabet)
    if len(set(alphabet)) != len(alphabet):
        raise InputError("alphabet values must be distinct")
    if not (1 <= k <= n):
        raise InputError(f"need 1 <= k <= n, got k={k}, n={n}")
    family = MatFamily.diagonal_differences(n, alphabet)
    comp = fit_compressor(
        family, k, k, seed_stream(seed, "hd-rank", n, k), max_retries=max_retries
    )
    count = len(alphabet) ** n

    def a_map(i: int) -> Mat:
        return comp.apply_diag(word_of_index(i, n, alphabet))

    def rank_fn(x: int, y: int) -> int:
        # certified by the compressor's exhaustive family verification
        wx = word_of_index(x, n, alphabet)
        wy = word_of_index(y, n, alphabet)
        d = sum(1 for a, b in zip(wx, wy) if a != b)
        return min(d, k)

    g = tuple(1 if t >= k else 0 for t in range(k + 1))
    return symmetric_problem(
        count,
        a_map,
        g,
        k,
        name=f"HD>={k}^{n}",
        rank_fn=rank_fn,
        meta={"n": n, "k": k, "alphabet": alphabet, "compressor": comp},
    )


# -------------------------------------------------------------------
# Boolean combination
# -------------------------------------------------------------------


def _gamma_table(gamma, q: int) -> tuple[int, ...]:
    """Normalize a boolean combiner to a truth table over q bits.

    Table index packs bit i of the input at binary weight 2^i.
    """
    if callable(gamma):
        table = []
        for idx in range(1 << q):
            bits = tuple((idx >> i) & 1 for i in range(q))
            table.append(1 if gamma(bits) else 0)
        return tuple(table)
    table = tuple(1 if b else 0 for b in gamma)
    if len(table) != 1 << q:
        raise SizeMismatchError(
            f"truth table of length {len(table)} does not cover {q} bits"
        )
    return table


def _pair_sum_family(
    a_map: Callable[[int], Mat], b_map: Callable[[int], Mat], count: int
) -> MatFamily:
    """The family {a_map(x) + b_map(y)} over all index pairs, x-major."""
    bs = [b_map(y) for y in range(count)]
    return MatFamily.from_members(
        [ax + b for ax in map(a_map, range(count)) for b in bs]
    )


def _compress_problem(
    p: RankProblem, size: int, seed: int, max_retries: int = 16
) -> RankProblem:
    """``p`` with both maps compressed to size x size.

    The compressor is fitted over the finite family {A(x) + B(y)}, so no
    rank below the cap changes and evaluation at order <= size is preserved.
    """
    family = _pair_sum_family(p.a_map, p.b_map, p.index_count)
    comp = fit_compressor(family, size, size, seed, max_retries=max_retries)
    right_t = comp.right.transpose()

    def a_map(x: int) -> Mat:
        return comp.left.mul(p.a_map(x)).mul(right_t)

    def b_map(y: int) -> Mat:
        return comp.left.mul(p.b_map(y)).mul(right_t)

    return replace(
        p,
        a_map=cache(a_map),
        b_map=cache(b_map),
        rank_fn=None,
        name=f"norm({p.name})",
        meta={**p.meta, "normalizer": comp},
    )


def _normalize_component(p: RankProblem, seed: int) -> RankProblem:
    """Re-realize maps on order x order matrices, preserving evaluation.

    Needed before digit encoding: the mixed-radix weights only decode if
    every component's rank is capped at its order, which square order-sized
    maps enforce.  Compression (or zero-padding when the maps are small)
    changes no rank below the cap.
    """
    k = p.order
    sample = p.a_map(0)
    if sample.shape == (k, k):
        return p
    if k == 0:
        zero = Mat.zeros(0, 0)
        return replace(
            p,
            a_map=lambda x: zero,
            b_map=lambda y: zero,
            rank_fn=lambda x, y: 0,
            name=f"norm({p.name})",
        )
    return _compress_problem(p, k, seed)


def bool_combine(
    gamma,
    components: Sequence[tuple[RankProblem, Callable[[int], int]]],
    index_count: int,
    seed: int = 0,
    name: str = "",
) -> RankProblem:
    """Combine component problems under an arbitrary boolean function.

    The combined maps place, for component i of order k_i, w_i block copies
    of its maps along the diagonal with mixed-radix weights
    w_i = prod_(j<i) (k_j + 1).  Block-diagonal rank is additive, so

        rank(A(x) + B(y)) = sum_i w_i * rank_i(x_i, y_i),

    and each component's rank is recovered as a digit: digit_i is the
    weight-w_i digit of the total in the mixed radix.  The combined step
    function decodes the digits, applies each component's g, then the
    boolean combiner.  Order is prod (k_i + 1) - 1; symmetry is preserved.
    """
    q = len(components)
    if q == 0:
        raise ValueError("need at least one component")
    if q > 20:
        raise BudgetExceededError(f"{q} components need a 2^{q} truth table")
    table = _gamma_table(gamma, q)
    normalized = [
        (_normalize_component(p, seed_stream(seed, "combine-normalize", i)), imap)
        for i, (p, imap) in enumerate(components)
    ]
    orders = [p.order for p, _ in normalized]
    weights = []
    w = 1
    for k_i in orders:
        weights.append(w)
        w *= k_i + 1
    total_order = w - 1
    if total_order > 1 << 22:
        raise BudgetExceededError(
            f"combined order {total_order} exceeds the tabulation budget"
        )

    g_table = []
    for t in range(total_order + 1):
        bits_idx = 0
        for i, (p, _) in enumerate(normalized):
            digit = (t // weights[i]) % (orders[i] + 1)
            bits_idx |= p.g[digit] << i
        g_table.append(table[bits_idx])

    def a_map(x: int) -> Mat:
        return block_diag(
            [
                repeat_diag(p.a_map(imap(x)), weights[i])
                for i, (p, imap) in enumerate(normalized)
            ]
        )

    def b_map(y: int) -> Mat:
        return block_diag(
            [
                repeat_diag(p.b_map(imap(y)), weights[i])
                for i, (p, imap) in enumerate(normalized)
            ]
        )

    def rank_fn(x: int, y: int) -> int:
        return sum(
            weights[i] * p.rank_of_pair(imap(x), imap(y))
            for i, (p, imap) in enumerate(normalized)
        )

    return RankProblem(
        index_count=index_count,
        a_map=a_map,
        b_map=b_map,
        g=tuple(g_table),
        order=total_order,
        symmetric=all(p.symmetric for p, _ in normalized),
        name=name or f"combine[{','.join(p.name for p, _ in normalized)}]",
        rank_fn=rank_fn,
        meta={
            "weights": weights,
            "component_orders": orders,
            "components": [p for p, _ in normalized],
        },
    )


# -------------------------------------------------------------------
# Monotone decomposition and sign compilation
# -------------------------------------------------------------------


@dataclass(frozen=True)
class MonotonePiece:
    """The threshold problem 1{rank >= threshold} sharing the parent's maps."""

    problem: RankProblem
    threshold: int

    def query(self, x: int, y: int) -> bool:
        return self.problem.eval(x, y) == 1


def monotone_decompose(
    p: RankProblem,
) -> tuple[list[MonotonePiece], OracleTree]:
    """Split into threshold pieces and a binary-search tree over them.

    The tree determines rank(A(x) + B(y)) capped at the order by binary
    search on "rank >= s" queries and outputs g(rank) at its leaves, so its
    depth is at most ceil(log2(order + 1)) and its output equals the
    problem's evaluation pointwise.  Intervals where g is constant collapse
    to leaves immediately (the search only needs to separate value changes),
    so a constant problem decomposes to a bare leaf.
    """
    pieces = []
    for s in range(1, p.order + 1):
        g = tuple(1 if t >= s else 0 for t in range(p.order + 1))
        pieces.append(
            MonotonePiece(
                problem=replace(p, g=g, name=f"{p.name}|rank>={s}"), threshold=s
            )
        )

    def build(lo: int, hi: int) -> OracleTree:
        if all(p.g[t] == p.g[lo] for t in range(lo, hi + 1)):
            return Leaf(p.g[lo])
        mid = (lo + hi + 1) // 2
        return Node(
            oracle=pieces[mid - 1],
            child0=build(lo, mid - 1),
            child1=build(mid, hi),
        )

    return pieces, build(0, p.order)


def piece_support_rep(
    p: RankProblem, threshold: int, seed: int, max_retries: int = 16
) -> SupportRep:
    """A verified support representation of 1{rank(A(x) + B(y)) >= threshold}.

    Compress the finite family {A(x) + B(y)} to threshold x threshold, then
    pair the minor embeddings of the compressed maps: the dot product is the
    compressed determinant, nonzero exactly when the rank clears the
    threshold.  Dimension C(2s, s) for threshold s.
    """
    q = _compress_problem(p, threshold, seed, max_retries)
    return minor_rep(
        q.a_map,
        q.b_map,
        threshold,
        f"rank>={threshold}",
        compressor=q.meta["normalizer"],
        seed=seed,
    )


def to_sign_rep(
    p: RankProblem, seed: int = 0, gamma_mode: str = "exact_scan"
) -> SignRep:
    """Compile a rank problem to a verified structured sign representation.

    Pipeline: monotone decomposition, one support representation per
    threshold piece the search tree queries, then the tree compiler.  The
    compiled sign is checked against the problem's evaluation on every
    index pair.
    """
    pieces, tree = monotone_decompose(p)
    used: set[int] = set()

    def collect(node: OracleTree):
        if isinstance(node, Node):
            used.add(node.oracle.threshold)
            collect(node.child0)
            collect(node.child1)

    collect(tree)
    reps = {
        s: piece_support_rep(p, s, seed_stream(seed, "piece", s)) for s in used
    }

    def substitute(node: OracleTree) -> OracleTree:
        if isinstance(node, Leaf):
            return node
        return Node(
            oracle=reps[node.oracle.threshold],
            child0=substitute(node.child0),
            child1=substitute(node.child1),
        )

    return compile_tree(
        substitute(tree), range(p.index_count), gamma_mode, truth=p.eval
    )


# -------------------------------------------------------------------
# Distance-r composition
# -------------------------------------------------------------------


@dataclass(frozen=True)
class CompositionSpec:
    """Distance bound r, outer table h on {0..r}, and symmetric inners."""

    r: int
    h: tuple[int, ...]
    inners: tuple[RankProblem, ...]

    def __post_init__(self):
        if len(self.h) != self.r + 1:
            raise SizeMismatchError("h must be tabulated on {0, ..., r}")
        if any(not p.symmetric for p in self.inners):
            raise ValueError("all inner problems must be symmetric")

    @property
    def coordinates(self) -> int:
        return len(self.inners)

    @property
    def index_count(self) -> int:
        return prod(p.index_count for p in self.inners)

    def tuple_of(self, idx: int) -> tuple[int, ...]:
        """Combined index -> per-coordinate indices (product order)."""
        out = []
        for p in reversed(self.inners):
            out.append(idx % p.index_count)
            idx //= p.index_count
        return tuple(reversed(out))

    def index_of(self, coords: Sequence[int]) -> int:
        idx = 0
        for p, c in zip(self.inners, coords):
            idx = idx * p.index_count + c
        return idx


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
    counts_ge = []
    prev = 0
    for t in range(1, k + 1):
        c = capped_sums[t] - prev
        counts_ge.append(c)
        prev = capped_sums[t]
    if any(c < 0 for c in counts_ge):
        raise InconsistentFingerprintError("capped sums must be nondecreasing")
    if any(counts_ge[i] < counts_ge[i + 1] for i in range(k - 1)):
        raise InconsistentFingerprintError(
            "element counts above thresholds must be non-increasing"
        )
    if counts_ge and counts_ge[0] > size_bound:
        raise InconsistentFingerprintError(
            f"{counts_ge[0]} nonzero elements exceed the size bound {size_bound}"
        )
    multiset = []
    for t in range(1, k + 1):
        above = counts_ge[t] if t < k else 0
        multiset.extend([t] * (counts_ge[t - 1] - above))
    result = tuple(sorted(multiset))
    for t in range(1, k + 1):  # round-trip check, cheap and total
        if sum(min(u, t) for u in result) != capped_sums[t]:
            raise InconsistentFingerprintError("fingerprint does not round-trip")
    return result


def distance_r_compose(
    spec: CompositionSpec,
    seed: int = 0,
    max_retries: int = 16,
    pair_budget: int = 1 << 14,
) -> RankProblem:
    """Realize a distance-r composition as a single symmetric rank problem.

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
    index but not in matrix has rank 0, which no capped sum can see.
    """
    m = spec.coordinates
    r = spec.r
    if m == 0:
        raise ValueError("need at least one coordinate")
    k = spec.inners[0].order
    shared_g = spec.inners[0].g
    for p in spec.inners:
        if p.order != k:
            raise ValueError("all inners must share one order")
        if p.g != shared_g:
            raise ValueError(
                "distance-r composition needs a family: all inners must "
                "share one step function"
            )
    if spec.index_count**2 > pair_budget:
        raise BudgetExceededError(
            f"{spec.index_count}^2 pairs exceed the composition budget "
            f"{pair_budget}"
        )
    for i, p in enumerate(spec.inners):
        values = {p.a_map(x).entries for x in range(p.index_count)}
        if len(values) != p.index_count and shared_g[0] == 1:
            raise ValueError(
                f"inner {i} is not injective and has g(0) = 1: rank-0 "
                "differing coordinates would be invisible to the fingerprint"
            )

    # coordinate-distance gate: HD >= r+1 over the index alphabets, negated
    alphabets = [tuple(range(p.index_count)) for p in spec.inners]
    gate_order = min(r + 1, m)
    family0 = MatFamily.diagonal_differences_multi(alphabets)
    comp0 = fit_compressor(
        family0,
        gate_order,
        gate_order,
        seed_stream(seed, "compose-gate"),
        max_retries=max_retries,
    )
    count = spec.index_count

    def gate_a(x: int) -> Mat:
        return comp0.apply_diag(spec.tuple_of(x))

    def gate_rank(x: int, y: int) -> int:
        tx, ty = spec.tuple_of(x), spec.tuple_of(y)
        d = sum(1 for a, b in zip(tx, ty) if a != b)
        return min(d, gate_order)

    gate = symmetric_problem(
        count,
        gate_a,
        tuple(1 if t <= r else 0 for t in range(gate_order + 1)),
        gate_order,
        name=f"|Delta|<={r}",
        rank_fn=gate_rank,
        meta={"compressor": comp0},
    )

    # capped-rank components
    components: list[tuple[RankProblem, Callable[[int], int]]] = [
        (gate, lambda x: x)
    ]
    bit_layout: list[tuple[int, int]] = []
    capped_maps: dict[int, Callable[[int], Mat]] = {}
    for t in range(1, k + 1):
        per_coord = [
            _compress_problem(
                p, t, seed_stream(seed, "compose-coord", i, t), max_retries
            ).a_map
            for i, p in enumerate(spec.inners)
        ]

        def block_map(x: int, per_coord=per_coord) -> Mat:
            coords = spec.tuple_of(x)
            return block_diag([per_coord[i](c) for i, c in enumerate(coords)])

        block_map = cache(block_map)
        target = r * t
        fam_t = _pair_sum_family(block_map, lambda y: -block_map(y), count)
        comp_t = fit_compressor(
            fam_t,
            target,
            target,
            seed_stream(seed, "compose-global", t),
            max_retries=max_retries,
        )

        def capped_map(x: int, block_map=block_map, comp_t=comp_t) -> Mat:
            return comp_t.apply(block_map(x))

        capped_map = cache(capped_map)
        capped_maps[t] = capped_map

        for s in range(1, target + 1):
            if s == target:
                thr_map = capped_map
            else:
                fam_ts = _pair_sum_family(capped_map, lambda y: -capped_map(y), count)
                comp_ts = fit_compressor(
                    fam_ts,
                    s,
                    s,
                    seed_stream(seed, "compose-threshold", t, s),
                    max_retries=max_retries,
                )

                def thr_map(x: int, capped_map=capped_map, comp_ts=comp_ts) -> Mat:
                    return comp_ts.apply(capped_map(x))

                thr_map = cache(thr_map)
            threshold_problem = symmetric_problem(
                count,
                thr_map,
                tuple(1 if u >= s else 0 for u in range(s + 1)),
                s,
                name=f"capsum[t={t}]>={s}",
            )
            components.append((threshold_problem, lambda x: x))
            bit_layout.append((t, s))

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
        total = sum(shared_g[min(u, k)] for u in ranks)
        if total > r:
            return 0
        return spec.h[total]

    combined = bool_combine(
        decoder,
        components,
        count,
        seed=seed_stream(seed, "compose-combine"),
        name=f"distance-{r}-composition",
    )
    return replace(
        combined,
        meta={
            **combined.meta,
            "spec": spec,
            "gate": gate,
            "gate_order": gate_order,
            "capped_maps": capped_maps,
            "bit_layout": bit_layout,
        },
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
    per_index = shape[0] * shape[1]
    total = p.index_count * per_index * (1 if p.symmetric else 2)
    if total > max_entries:
        raise BudgetExceededError(
            f"explicit tables would hold {total} entries, over the "
            f"{max_entries} budget"
        )
    doc = {
        "schema": "hamrank-rankproblem/1",
        "name": p.name,
        "index_count": p.index_count,
        "order": p.order,
        "symmetric": p.symmetric,
        "g": list(p.g),
        "a": [p.a_map(x).to_json() for x in range(p.index_count)],
    }
    doc["b"] = (
        None if p.symmetric else [p.b_map(y).to_json() for y in range(p.index_count)]
    )
    return doc


def problem_from_json(doc: dict) -> RankProblem:
    if doc.get("schema") != "hamrank-rankproblem/1":
        raise ValueError(f"not a rank-problem document: {doc.get('schema')!r}")
    a_tab = [Mat.from_json(o) for o in doc["a"]]
    if doc["symmetric"]:
        b_tab = [-m for m in a_tab]
    else:
        b_tab = [Mat.from_json(o) for o in doc["b"]]
    return RankProblem(
        index_count=doc["index_count"],
        a_map=lambda x: a_tab[x],
        b_map=lambda y: b_tab[y],
        g=tuple(doc["g"]),
        order=doc["order"],
        symmetric=doc["symmetric"],
        name=doc.get("name", ""),
    )


def spec_to_json(spec: CompositionSpec, max_entries: int = 2_000_000) -> dict:
    return {
        "schema": "hamrank-compspec/1",
        "r": spec.r,
        "h": list(spec.h),
        "inners": [
            {"problem": problem_to_json(p, max_entries)} for p in spec.inners
        ],
    }


def spec_from_json(doc: dict, load_file=None) -> CompositionSpec:
    """Rebuild a composition spec; ``load_file`` resolves file references."""
    if doc.get("schema") != "hamrank-compspec/1":
        raise ValueError(f"not a composition spec: {doc.get('schema')!r}")
    inners = []
    for entry in doc["inners"]:
        if "problem" in entry:
            inners.append(problem_from_json(entry["problem"]))
        elif "file" in entry:
            if load_file is None:
                raise ValueError("file references need a loader")
            inners.append(problem_from_json(load_file(entry["file"])))
        else:
            raise ValueError("inner entry needs 'problem' or 'file'")
    return CompositionSpec(r=doc["r"], h=tuple(doc["h"]), inners=tuple(inners))
