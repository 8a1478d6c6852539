"""Decision trees of support reps and the support-to-sign compiler.

A decision tree whose inner nodes query verified support representations
and whose leaves are constant +-1 signs compiles bottom-up into a
structured sign representation: each inner node becomes a combine node

    value(x, y) = value1(x, y) + gamma * s(x, y)^2 * value0(x, y)

where s is the oracle's inner product at (x, y).  Wherever
the oracle entry is 0 the squared term vanishes identically (not
approximately), so value1 dictates the sign; wherever it is 1 the integer
dominance constant gamma makes the squared term strictly dominate, so
value0 dictates the sign.  Dimensions follow the exact recursion

    dim(combine) = dim(rep1) + oracle_dim^2 * dim(rep0),

which the compiler tracks per node; ``proof_dim_bound`` gives the coarse
(1 + r^2)^depth bound of a compiled rep, and both numbers are reported.
Every compile runs on ``PairRows``, pairs that its caller says stand for
the whole domain: every ordered pair (``domain_rows``), one per difference
class of words (``build_hd_sign``) or one per distinct member of a rank
problem's difference family (``rankprob.to_sign_rep``), once
``veronese.prove_det_sum`` has passed at every oracle size.  Oracle dots
come a row at a time from the one packing site, ``_packed``: a row source
gives each oracle's (left, right) vectors, ``SupportRep.embed`` over a
domain or ``compression.det_vectors`` over difference classes, and they are
packed once per oracle (``parallel.packed_dots``).  One column recursion,
``value_row``, serves the gamma scan, the check against the caller's
ground truth and verify-sign.
A ``SupportRep`` built on maps from indices to matrices already answers at
indices, so other index domains need no translation layer.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache
from math import comb
from typing import Callable, Sequence

from .errors import (
    BudgetExceededError,
    InputError,
    PatternViolationError,
    SizeMismatchError,
    ZeroValueError,
)
from .compression import det_vectors, split_positions
from .exact import Mat, int_from_json
from .hamming import (
    SupportRep,
    build_hd_supp,
    check_alphabet,
    dist,
    load_supp,
)
from .parallel import check_pairs, packed_dots
from .seeds import seed_stream
from .veronese import prove_det_sum


# -------------------------------------------------------------------
# Structured sign representations
# -------------------------------------------------------------------


@dataclass(frozen=True)
class ConstLeaf:
    sign: int  # +1 or -1

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("constant sign must be +1 or -1")

    @property
    def dim(self) -> int:
        return 1


@dataclass(frozen=True)
class Combine:
    """One compile step; rep0 rides the dominant squared-oracle term."""

    oracle: SupportRep
    rep0: "SignRep"  # sign on the oracle's support (tree branch for answer 1)
    rep1: "SignRep"  # sign where the oracle vanishes (branch for answer 0)
    gamma: int

    @property
    def dim(self) -> int:
        return self.rep1.dim + self.oracle.dim**2 * self.rep0.dim


SignRep = ConstLeaf | Combine


@dataclass(frozen=True)
class Node:
    """Inner tree node: query the oracle at (x, y), branch on the answer."""

    oracle: SupportRep
    child0: "OracleTree"
    child1: "OracleTree"


OracleTree = Node | ConstLeaf


def eval_value(rep: SignRep, x, y) -> int:
    """The exact integer value whose sign encodes the matrix entry."""
    if isinstance(rep, ConstLeaf):
        return rep.sign
    s = rep.oracle.dot(x, y)
    v1 = eval_value(rep.rep1, x, y)
    if s == 0:
        return v1
    return v1 + rep.gamma * s * s * eval_value(rep.rep0, x, y)


def eval_sign(rep: SignRep, x, y) -> int:
    value = eval_value(rep, x, y)
    if value == 0:
        raise _vanished(x, y)
    return 1 if value > 0 else -1


def _vanished(x, y) -> ZeroValueError:
    return ZeroValueError(
        f"sign value vanished at ({x!r}, {y!r}); dominance constant or "
        "construction is broken"
    )


@dataclass(frozen=True)
class PairRows:
    """The ordered pairs a compile scans and checks, standing for every pair
    of its domain, as rows of ``width`` columns: ``cols[i]`` lists the
    columns of row i that stand for pairs, ascending, ``pair(i, j)``
    names the pair (x, y) of one, and ``dots(oracle)(i, lo=0)`` lists the
    oracle's exact dots at columns lo, lo + 1, ... of row i.  Every row
    source builds ``dots`` with ``_packed``, the one place an oracle's
    vectors are packed."""

    cols: Sequence[Sequence[int]]
    width: int
    pair: Callable[[int, int], tuple]
    dots: Callable[[SupportRep], Callable[..., list[int]]]


def _packed(
    vectors: Callable[[SupportRep], tuple[list, list]],
) -> Callable[[SupportRep], Callable[..., list[int]]]:
    """``PairRows.dots`` for rows whose dots are <us[i], vs[j]>, (us, vs) =
    vectors(oracle): each oracle's vectors packed once (``packed_dots``)."""
    return cache(lambda oracle: packed_dots(*vectors(oracle)))


def domain_rows(domain: Sequence) -> PairRows:
    """Every ordered pair (domain[i], domain[j]), each oracle's dots packed
    from its ``SupportRep.embed`` of the domain; its memo stays empty."""
    count = len(domain)
    return PairRows(
        [range(count)] * count,
        count,
        lambda i, j: (domain[i], domain[j]),
        _packed(lambda oracle: oracle.embed(domain)),
    )


def value_row(rep: SignRep, rows: PairRows, i: int, lo: int = 0) -> list[int]:
    """``eval_value`` at columns lo, lo + 1, ... of row i, column by column:
    a leaf is its sign, a combine is a where s == 0, else a + gamma s^2 b."""
    if isinstance(rep, ConstLeaf):
        return [rep.sign] * (rows.width - lo)
    gamma = rep.gamma
    return [
        a if s == 0 else a + gamma * s * s * b
        for a, s, b in zip(
            value_row(rep.rep1, rows, i, lo),
            rows.dots(rep.oracle)(i, lo),
            value_row(rep.rep0, rows, i, lo),
        )
    ]


def oracles(tree: OracleTree | SignRep) -> list[SupportRep]:
    """Every oracle of a tree or compiled rep: root, answer-0 branch, then 1."""
    if isinstance(tree, ConstLeaf):
        return []
    if isinstance(tree, Node):
        return [tree.oracle, *oracles(tree.child0), *oracles(tree.child1)]
    return [tree.oracle, *oracles(tree.rep1), *oracles(tree.rep0)]


MAX_SIGN_DIM = 1 << 20  # default budget on a sign rep's dimension


def check_sign_dim(dim: int, max_dim: int = MAX_SIGN_DIM) -> None:
    """Refuse a sign dimension above ``max_dim`` before any det-sum proof:
    a proof of size c takes sum_s C(c, s) c!/(c - s)! 2^s rook points."""
    if dim > max_dim:
        raise BudgetExceededError(f"sign dimension {dim} exceeds the budget {max_dim}")


def _prove_det_sums(tree: OracleTree | SignRep) -> None:
    for size in sorted({oracle.size for oracle in oracles(tree)}):
        prove_det_sum(size)


def positive_upper(rep: SignRep, rows: PairRows) -> Callable[[int], list[int]]:
    """The exhaustive row form of ``eval_sign`` over the square grid
    ``rows`` of ``domain_rows``, read from its packed dots, upper triangle
    only: ``row(i)`` lists the j >= i with eval_sign(rep, *rows.pair(i, j))
    == 1, in order, and raises its ``ZeroValueError`` at the first such j
    where the value vanishes.  The rest of the row is the mirror image once
    ``_prove_det_sums`` passes, which runs first: an oracle's dot at (x, y)
    is then det(C(x) - C(y)), (-1)^size times its dot at (y, x), and nodes
    read it only through s == 0 and s^2, so any tree's value is symmetric,
    a broken tree's too."""
    _prove_det_sums(rep)

    def row(i: int) -> list[int]:
        got = value_row(rep, rows, i, i)
        if 0 in got:
            raise _vanished(*rows.pair(i, i + got.index(0)))
        return [j for j, value in enumerate(got, i) if value > 0]

    return row


def gamma_values(rep: SignRep) -> list[int]:
    """Dominance constants in bottom-up (rep1 before rep0) order."""
    if isinstance(rep, ConstLeaf):
        return []
    return gamma_values(rep.rep1) + gamma_values(rep.rep0) + [rep.gamma]


def proof_dim_bound(rep: SignRep) -> int:
    """The (1 + r^2)^depth bound, r the largest oracle dimension queried."""

    def depth(node: SignRep) -> int:
        if isinstance(node, ConstLeaf):
            return 0
        return 1 + max(depth(node.rep0), depth(node.rep1))

    r = max((oracle.dim for oracle in oracles(rep)), default=0)
    return (1 + r * r) ** depth(rep)


# -------------------------------------------------------------------
# Dominance constants
# -------------------------------------------------------------------


def choose_gamma(
    oracle: SupportRep, rep0: SignRep, rep1: SignRep, rows: PairRows
) -> int:
    """The integer making the squared-oracle term dominate on its support.

    It scans every pair of ``rows`` with a nonzero oracle value and returns
    1 + max ceil(|value1| / (s^2 |value0|)); multiplying out shows
    gamma * s^2 * |value0| >= s^2 |value0| + |value1| > |value1| pointwise,
    so dominance is strict while pairs off the support are untouched.  The
    rows must take every value triple (s^2, value0, value1) that the
    domain's pairs take, as the rows of ``compile_tree``'s callers do.  It
    returns 1 when the oracle's support on the rows is empty (dominance is
    vacuous there).  Each row is evaluated from its first listed column.
    """
    best = 0
    for i, cols in enumerate(rows.cols):
        if not cols:
            continue
        s_row = rows.dots(oracle)(i, lo := cols[0])
        v0_row, v1_row = value_row(rep0, rows, i, lo), value_row(rep1, rows, i, lo)
        for j in cols:
            s, v0, v1 = s_row[j - lo], v0_row[j - lo], v1_row[j - lo]
            if s == 0:
                continue
            if v0 == 0:
                x, y = rows.pair(i, j)
                raise ZeroValueError(f"support branch value vanished at ({x!r}, {y!r})")
            best = max(best, -((-abs(v1)) // (s * s * abs(v0))))  # ceil
    return 1 + best


def _dot_bound(oracle: SupportRep) -> int:
    # |<u, v>| <= (max_x sum_i |u_i(x)|) * (max_y max_i |v_i(y)|) over the
    # oracle's word grid: two single-input sweeps, never a pair scan.
    us, vs = oracle.embed(itertools.product(oracle.alphabet, repeat=oracle.n))
    usum = max(sum(map(abs, u)) for u in us)
    vmax = max(max(map(abs, v)) for v in vs)
    return usum * vmax


def _value_bound(rep: SignRep) -> int:
    """A certified upper bound on |value| over the oracles' words."""
    if isinstance(rep, ConstLeaf):
        return 1
    s_squared = _dot_bound(rep.oracle) ** 2
    return _value_bound(rep.rep1) + rep.gamma * s_squared * _value_bound(rep.rep0)


# -------------------------------------------------------------------
# Compiler
# -------------------------------------------------------------------


def threshold_tree(g: Sequence[int], oracle: Callable[[int], SupportRep]) -> OracleTree:
    """The tree deciding g(rank), g a 0/1 table, by ``oracle(t)`` of rank >= t.

    It asks rank >= t at each change point t (g[t] != g[t-1]), the largest
    at the root; answer 1 is the leaf of g[t], answer 0 the next smaller
    change point, and below the smallest sits the leaf of g[0].  Its
    dimension, 1 + sum d(t)^2 over the change points for oracles of
    dimension d(t), is the least of any rank-threshold tree: by induction,
    splitting at t costs best(below t) + d(t)^2 * best(from t), at least
    best(below t) + d(t)^2 + sum of d^2 above t, as d(t)^2 >= 1.
    """
    tree = ConstLeaf(2 * g[0] - 1)
    for t in range(1, len(g)):
        if g[t] != g[t - 1]:
            tree = Node(oracle(t), child0=tree, child1=ConstLeaf(2 * g[t] - 1))
    return tree


def compile_tree(
    tree: OracleTree, rows: PairRows, truth: Callable, gamma_mode: str = "exact_scan"
) -> SignRep:
    """Compile a tree of support reps into a verified structured sign rep.

    ``_prove_det_sums`` runs first.  Then, bottom-up, each inner node
    combines its compiled children: the branch for answer 1 rides the
    squared-oracle term (the oracle value is nonzero exactly there), the
    branch for answer 0 stands alone (the term vanishes exactly there).
    Gammas come from ``choose_gamma`` (exact_scan), or from a bound on
    |value1| over the words of compressor-backed oracles (norm_bound,
    ``_value_bound``), as s^2 |value0| >= 1 on the support.

    The sign is then checked against ``truth(x, y)``, the 0/1 entry it must
    encode, which the caller knows independently of the oracles.  The scan
    and the check visit ``rows`` only: the caller vouches that every node
    value and the truth take the same values there as on every pair of the
    domain.  A disagreement raises ``PatternViolationError`` naming the
    first failing pair in row order.
    """
    _prove_det_sums(tree)
    rep = _compile(tree, rows, gamma_mode)
    for i, cols in enumerate(rows.cols):
        values = value_row(rep, rows, i, lo := cols[0]) if cols else ()
        for j in cols:
            x, y = rows.pair(i, j)
            want = 1 if truth(x, y) else -1
            got = (values[j - lo] > 0) - (values[j - lo] < 0)
            if got == 0:
                raise _vanished(x, y)
            if got != want:
                raise PatternViolationError(
                    f"compiled sign disagrees with the truth at ({x!r}, {y!r}): "
                    f"{got} vs {want}"
                )
    return rep


def _compile(tree: OracleTree, rows: PairRows, gamma_mode: str) -> SignRep:
    if isinstance(tree, ConstLeaf):
        return tree
    rep0 = _compile(tree.child1, rows, gamma_mode)
    rep1 = _compile(tree.child0, rows, gamma_mode)
    if gamma_mode == "exact_scan":
        gamma = choose_gamma(tree.oracle, rep0, rep1, rows)
    elif gamma_mode == "norm_bound" and tree.oracle.compressor is not None:
        gamma = 1 + _value_bound(rep1)
    elif gamma_mode == "norm_bound":
        raise ValueError("gamma mode 'norm_bound' needs compressor-backed oracles")
    else:
        raise ValueError(f"unknown gamma mode {gamma_mode!r}")
    return Combine(oracle=tree.oracle, rep0=rep0, rep1=rep1, gamma=gamma)


# -------------------------------------------------------------------
# Materialization
# -------------------------------------------------------------------


def _row(rep: SignRep, w, side: str) -> list[int]:
    """Row w of the U factor (side "u") or of the V factor (side "v")."""
    if isinstance(rep, ConstLeaf):
        return [rep.sign if side == "u" else 1]
    row1 = _row(rep.rep1, w, side)
    s = rep.oracle.u(w) if side == "u" else rep.oracle.v(w)
    row0 = _row(rep.rep0, w, side)
    g = rep.gamma if side == "u" else 1
    return row1 + [g * si * sj * c for si in s for sj in s for c in row0]


def materialize(
    rep: SignRep, indices: Sequence, max_dim: int | None = None
) -> tuple[Mat, Mat]:
    """Explicit factor matrices U, V with <U(x), V(y)> = value(x, y).

    Row x of U concatenates the rep1 row with the gamma-scaled tensor
    u(x) (x) u(x) (x) U0(x); V mirrors it without the gamma.  The tensor
    identity <a (x) c, b (x) d> = <a, b><c, d> collapses the dot product
    back to the combine recursion, term by term, so structural and
    materialized evaluation agree exactly.  Column count equals ``rep.dim``.
    """
    if max_dim is not None:
        check_sign_dim(rep.dim, max_dim)
    u_rows = [_row(rep, x, "u") for x in indices]
    v_rows = [_row(rep, y, "v") for y in indices]
    dim = rep.dim
    if any(len(r) != dim for r in u_rows) or any(len(r) != dim for r in v_rows):
        raise SizeMismatchError("materialized row length disagrees with dim")
    u_mat = Mat(len(u_rows), dim, tuple(c for r in u_rows for c in r))
    v_mat = Mat(len(v_rows), dim, tuple(c for r in v_rows for c in r))
    return u_mat, v_mat


# -------------------------------------------------------------------
# The headline construction: exact k-Hamming-Distance sign representation
# -------------------------------------------------------------------


def hd_sign_dim(n: int, k: int) -> int:
    """The dimension of ``build_hd_sign(n, k)``, 1 + C(2k, k)^2 +
    C(2k+2, k+1)^2 (41 at k=1, 437 at k=2), for 1 <= k < n only."""
    if not (1 <= k < n):
        raise InputError(f"need 1 <= k < n, got k={k}, n={n}")
    return 1 + comb(2 * k, k) ** 2 + comb(2 * k + 2, k + 1) ** 2


def build_hd_sign(
    n: int,
    k: int,
    seed: int = 0,
    gamma_mode: str = "exact_scan",
    alphabet: Sequence[int] = (0, 1),
    max_pairs: int | None = None,
) -> SignRep:
    """Sign representation of dist(x, y) == k on words of length n.

    "Distance exactly k" is g(dist) for g = (0, ..., 0, 1, 0), 1 at k
    only, and ``threshold_tree`` decides it with two queries: dist >= k+1
    at the root (answer 1 settles the output to 0), then dist >= k.  The
    compiled dimension is ``hd_sign_dim(n, k)``.  Oracles are freshly
    built, verified support representations sharing the root seed through
    named substreams.

    The exact_scan gammas and the check against the definition
    dist(x, y) == k run over ``_class_rows``: one pair per difference class
    {z, -z}, z = x - y, standing for all |alphabet|^(2n) ordered pairs;
    ``max_pairs`` bounds the (|A - A|^n + 1) / 2 class pairs before any
    oracle is built.  Once ``compile_tree`` has proved the det-sum identity,
    an oracle's dot at (x, y) is det(C(z)) for its linear compressor map C,
    det(C(-z)) = +-det(C(z)), and nodes read it only through s == 0 and
    s^2, so each value and the truth is constant on a class, and the dots
    are read from the family walk's determinant rows, with no word embedded.
    """
    hd_sign_dim(n, k)  # refuses k outside 1..n-1
    diffs = {a - b for a, b in itertools.product(check_alphabet(alphabet), repeat=2)}
    check_pairs((len(diffs) ** n + 1) // 2, max_pairs)
    tree = threshold_tree(
        (0,) * k + (1, 0),
        lambda t: build_hd_supp(n, t, alphabet, seed_stream(seed, "sign-oracle", t)),
    )
    rows = _class_rows(n, alphabet)
    return compile_tree(tree, rows, lambda x, y: dist(x, y) == k, gamma_mode)


def _class_rows(n: int, alphabet: Sequence[int]) -> PairRows:
    """One pair (x, y) per class {z, -z}, z = x - y over (A - A)^n in
    product order, prefix i of z in row i and suffix j in column j, the
    dots packed from ``compression.det_vectors``; x_p, y_p is the letter
    pair first met with a - b = z_p.  A z whose first nonzero entry is
    negative, met at -z, is skipped: the differences are sorted and
    symmetric, so z -> -z reverses product order, and those z are the ones
    before 0, in the rows before the middle (zero prefix) row and in its
    columns before the middle."""
    letters: dict[int, tuple[int, int]] = {}
    for a, b in itertools.product(check_alphabet(alphabet), repeat=2):
        letters.setdefault(a - b, (a, b))
    values = (tuple(sorted(letters)),) * n
    split, count = split_positions(values)
    prefixes, suffixes = (
        [
            (tuple(letters[d][0] for d in z), tuple(letters[d][1] for d in z))
            for z in itertools.product(*part)
        ]
        for part in (values[:split], values[split:])
    )
    half = len(prefixes) // 2
    cols = [()] * half + [range(count // 2, count)] + [range(count)] * half

    def pair(i: int, j: int) -> tuple:
        (x0, y0), (x1, y1) = prefixes[i], suffixes[j]
        return x0 + x1, y0 + y1

    dots = _packed(lambda oracle: det_vectors(oracle.compressor, values, split))
    return PairRows(cols, count, pair, dots)


# -------------------------------------------------------------------
# Serialization (compressor-backed oracles only)
# -------------------------------------------------------------------


def sign_to_json(rep: SignRep, meta: dict | None = None) -> dict:
    doc = {"schema": "hamrank-sign/1", "tree": _node_to_json(rep)}
    if meta:
        doc["meta"] = meta
    return doc


def _node_to_json(rep: SignRep) -> dict:
    if isinstance(rep, ConstLeaf):
        return {"type": "const", "sign": rep.sign}
    return {
        "type": "combine",
        "gamma": str(rep.gamma),
        "oracle": rep.oracle.to_json(),
        "rep0": _node_to_json(rep.rep0),
        "rep1": _node_to_json(rep.rep1),
    }


def sign_from_json(doc: dict) -> SignRep:
    if doc.get("schema") != "hamrank-sign/1":
        raise ValueError(f"not a sign-rep document: {doc.get('schema')!r}")
    return _node_from_json(doc["tree"])


def _node_from_json(obj: dict) -> SignRep:
    if obj["type"] == "const":
        return ConstLeaf(int_from_json(obj["sign"]))
    if obj["type"] != "combine":
        raise InputError(f"unknown sign node type {obj['type']!r}")
    return Combine(
        oracle=load_supp(obj["oracle"]),
        rep0=_node_from_json(obj["rep0"]),
        rep1=_node_from_json(obj["rep1"]),
        gamma=int_from_json(obj["gamma"]),
    )
