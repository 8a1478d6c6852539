"""Oracle decision trees and the support-to-sign compiler.

A decision tree whose inner nodes query boolean matrices through verified
support representations compiles bottom-up into a structured sign
representation: leaves become constant +-1 values, and each internal node
becomes a combine node

    value(x, y) = value1(x, y) + gamma * s(x, y)^2 * value0(x, y)

where s is the oracle's inner product at the translated inputs.  Wherever
the oracle entry is 0 the squared term vanishes identically (not
approximately), so value1 dictates the sign; wherever it is 1 the integer
dominance constant gamma makes the squared term strictly dominate, so
value0 dictates the sign.  Dimensions follow the exact recursion

    dim(combine) = dim(rep1) + oracle_dim^2 * dim(rep0),

which the compiler tracks per node instead of the coarse (1 + r^2)^depth
bound; both numbers are reported.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb
from typing import Callable, Sequence

from .errors import (
    BudgetExceededError,
    InputError,
    PatternViolationError,
    SizeMismatchError,
    ZeroValueError,
)
from .exact import Mat
from .hamming import SupportRep, build_hd_supp, dist, load_supp
from .parallel import check_pairs, sweep
from .seeds import seed_stream


def _identity(x):
    return x


# -------------------------------------------------------------------
# Oracle decision trees
# -------------------------------------------------------------------


@dataclass(frozen=True)
class Leaf:
    value: int  # 0 or 1

    def __post_init__(self):
        if self.value not in (0, 1):
            raise ValueError("leaf output must be 0 or 1")


@dataclass(frozen=True)
class Node:
    """Inner node: query the oracle at translated inputs, branch on the answer."""

    oracle: object  # anything with .query(x, y); SupportRep for compilation
    child0: "Leaf | Node"
    child1: "Leaf | Node"
    a_map: Callable = _identity
    b_map: Callable = _identity


OracleTree = Leaf | Node


def tree_eval(tree: OracleTree, x, y) -> int:
    node = tree
    while isinstance(node, Node):
        bit = node.oracle.query(node.a_map(x), node.b_map(y))
        node = node.child1 if bit else node.child0
    return node.value


def tree_depth(tree: OracleTree) -> int:
    if isinstance(tree, Leaf):
        return 0
    return 1 + max(tree_depth(tree.child0), tree_depth(tree.child1))


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
    a_map: Callable = _identity
    b_map: Callable = _identity

    @property
    def dim(self) -> int:
        return self.rep1.dim + self.oracle.dim**2 * self.rep0.dim


SignRep = ConstLeaf | Combine


def eval_value(rep: SignRep, x, y) -> int:
    """The exact integer value whose sign encodes the matrix entry."""
    if isinstance(rep, ConstLeaf):
        return rep.sign
    s = rep.oracle.dot(rep.a_map(x), rep.b_map(y))
    v1 = eval_value(rep.rep1, x, y)
    if s == 0:
        return v1
    return v1 + rep.gamma * s * s * eval_value(rep.rep0, x, y)


def eval_sign(rep: SignRep, x, y) -> int:
    value = eval_value(rep, x, y)
    if value == 0:
        raise ZeroValueError(
            f"sign value vanished at ({x!r}, {y!r}); dominance constant or "
            "construction is broken"
        )
    return 1 if value > 0 else -1


def gamma_values(rep: SignRep) -> list[int]:
    """Dominance constants in bottom-up (rep1 before rep0) order."""
    if isinstance(rep, ConstLeaf):
        return []
    return gamma_values(rep.rep1) + gamma_values(rep.rep0) + [rep.gamma]


def proof_dim_bound(tree: OracleTree) -> int:
    """The (1 + r^2)^depth bound over the largest oracle dimension queried."""
    if isinstance(tree, Leaf):
        return 1
    dims = []

    def walk(node):
        if isinstance(node, Node):
            dims.append(node.oracle.dim)
            walk(node.child0)
            walk(node.child1)

    walk(tree)
    r = max(dims)
    return (1 + r * r) ** tree_depth(tree)


# -------------------------------------------------------------------
# Dominance constants
# -------------------------------------------------------------------


def choose_gamma(
    oracle: SupportRep,
    rep0: SignRep,
    rep1: SignRep,
    domain: Sequence,
    mode: str = "exact_scan",
    a_map: Callable = _identity,
    b_map: Callable = _identity,
) -> int:
    """The integer making the squared-oracle term dominate on its support.

    exact_scan visits every domain pair with a nonzero oracle value and
    returns 1 + max ceil(|value1| / (s^2 |value0|)); multiplying out shows
    gamma * s^2 * |value0| >= s^2 |value0| + |value1| > |value1| pointwise,
    so dominance is strict while pairs off the support are untouched.  The
    scan is a max reduction, not a pass/fail check, so it keeps its own
    pair loop instead of going through ``parallel.sweep``.

    norm_bound certifies a possibly larger constant without scanning pairs:
    |value1| is bounded through the combine recursion using single-input
    coordinate bounds for each oracle, and s^2 * |value0| >= 1 on the
    support because both factors are nonzero integers there.  It is always
    >= the scanned value.

    Returns 1 when the oracle's support over the domain is empty (dominance
    is vacuous there).
    """
    if mode == "exact_scan":
        best = 0
        seen_support = False
        for x in domain:
            ax = a_map(x)
            for y in domain:
                s = oracle.dot(ax, b_map(y))
                if s == 0:
                    continue
                seen_support = True
                v0 = eval_value(rep0, x, y)
                if v0 == 0:
                    raise ZeroValueError(
                        f"support branch value vanished at ({x!r}, {y!r})"
                    )
                v1 = eval_value(rep1, x, y)
                need = -((-abs(v1)) // (s * s * abs(v0)))  # ceil division
                if need > best:
                    best = need
        return 1 + best if seen_support else 1
    if mode == "norm_bound":
        return 1 + _value_bound(rep1, domain)
    raise ValueError(f"unknown gamma mode {mode!r}")


def _dot_bound(oracle: SupportRep, domain, a_map, b_map) -> int:
    # |<u, v>| <= (max_x sum_i |u_i(x)|) * (max_y max_i |v_i(y)|): two
    # single-input sweeps, never a pair scan.
    usum = max(sum(abs(c) for c in oracle.u(a_map(x))) for x in domain)
    vmax = max(max(abs(c) for c in oracle.v(b_map(y))) for y in domain)
    return usum * vmax


def _value_bound(rep: SignRep, domain) -> int:
    """A certified upper bound on |value| over the domain."""
    if isinstance(rep, ConstLeaf):
        return 1
    s_bound = _dot_bound(rep.oracle, domain, rep.a_map, rep.b_map)
    return (
        _value_bound(rep.rep1, domain)
        + rep.gamma * s_bound * s_bound * _value_bound(rep.rep0, domain)
    )


# -------------------------------------------------------------------
# Compiler
# -------------------------------------------------------------------


def compile_tree(
    tree: OracleTree,
    domain: Sequence,
    gamma_mode: str = "exact_scan",
    truth: Callable | None = None,
) -> SignRep:
    """Compile an oracle tree into a verified structured sign representation.

    Bottom-up: output leaves become constant signs under the 0/1 -> -1/+1
    encoding; each inner node combines its compiled children.  The branch
    taken when the oracle answers 1 rides the squared-oracle term (the
    oracle value is nonzero exactly there), the branch for answer 0 stands
    alone (the term vanishes exactly there).

    The compiled sign is then checked on every ordered pair of ``domain``
    (one ``parallel.sweep``) against ``truth(x, y)``, the 0/1 entry the sign
    must encode.  ``truth`` defaults to the tree's own output, which trusts
    the oracles; callers that know the ground truth pass it instead.  Any
    disagreement raises ``PatternViolationError`` naming the first failing
    pair in pair order.
    """
    rep = _compile(tree, domain, gamma_mode)
    truth = truth or (lambda x, y: tree_eval(tree, x, y))

    def want(x, y) -> int:
        return 1 if truth(x, y) else -1

    def bad_cols(i: int, cols) -> list[int]:
        x = domain[i]
        return [j for j in cols if eval_sign(rep, x, domain[j]) != want(x, domain[j])]

    result = sweep(len(domain), lambda: bad_cols, cap=1)
    if not result.certified:
        i, j = result.violations[0]
        x, y = domain[i], domain[j]
        raise PatternViolationError(
            f"compiled sign disagrees with the truth at ({x!r}, {y!r}): "
            f"{eval_sign(rep, x, y)} vs {want(x, y)}"
        )
    return rep


def _compile(tree: OracleTree, domain, gamma_mode: str) -> SignRep:
    if isinstance(tree, Leaf):
        return ConstLeaf(2 * tree.value - 1)
    if not isinstance(tree.oracle, SupportRep):
        raise TypeError(
            "compilation requires SupportRep oracles; substitute "
            "representations for abstract oracles first"
        )
    rep0 = _compile(tree.child1, domain, gamma_mode)
    rep1 = _compile(tree.child0, domain, gamma_mode)
    gamma = choose_gamma(
        tree.oracle, rep0, rep1, domain, gamma_mode, tree.a_map, tree.b_map
    )
    return Combine(
        oracle=tree.oracle,
        rep0=rep0,
        rep1=rep1,
        gamma=gamma,
        a_map=tree.a_map,
        b_map=tree.b_map,
    )


# -------------------------------------------------------------------
# Materialization
# -------------------------------------------------------------------


def _u_row(rep: SignRep, x) -> list[int]:
    if isinstance(rep, ConstLeaf):
        return [rep.sign]
    row1 = _u_row(rep.rep1, x)
    u = rep.oracle.u(rep.a_map(x))
    row0 = _u_row(rep.rep0, x)
    g = rep.gamma
    tail = [g * ui * uj * c for ui in u for uj in u for c in row0]
    return row1 + tail


def _v_row(rep: SignRep, y) -> list[int]:
    if isinstance(rep, ConstLeaf):
        return [1]
    row1 = _v_row(rep.rep1, y)
    v = rep.oracle.v(rep.b_map(y))
    row0 = _v_row(rep.rep0, y)
    tail = [vi * vj * c for vi in v for vj in v for c in row0]
    return row1 + tail


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
    if max_dim is not None and rep.dim > max_dim:
        raise BudgetExceededError(
            f"materializing dimension {rep.dim} exceeds the budget {max_dim}"
        )
    u_rows = [_u_row(rep, x) for x in indices]
    v_rows = [_v_row(rep, y) for y in indices]
    dim = rep.dim
    if any(len(r) != dim for r in u_rows) or any(len(r) != dim for r in v_rows):
        raise SizeMismatchError("materialized row length disagrees with dim")
    u_mat = Mat(len(u_rows), dim, tuple(c for r in u_rows for c in r))
    v_mat = Mat(len(v_rows), dim, tuple(c for r in v_rows for c in r))
    return u_mat, v_mat


# -------------------------------------------------------------------
# The headline construction: exact k-Hamming-Distance sign representation
# -------------------------------------------------------------------


def build_hd_sign(
    n: int,
    k: int,
    seed: int = 0,
    gamma_mode: str = "exact_scan",
    alphabet: Sequence[int] = (0, 1),
    max_pairs: int | None = None,
) -> SignRep:
    """Sign representation of dist(x, y) == k on words of length n.

    Decide "distance exactly k" with two threshold queries: ask
    dist >= k+1 first (answer 1 settles the output to 0), then dist >= k.
    Querying the larger threshold at the root places the deeper subtree on
    the branch where the oracle vanishes, so the compiled dimension is
    exactly

        1 + C(2k, k)^2 + C(2k+2, k+1)^2,

    e.g. 41 for k=1 and 437 for k=2, inside the (1 + r^2)^2 proof bound.
    Oracles are freshly built, verified support representations sharing the
    root seed through named substreams.  The compiled sign is checked
    against the definition dist(x, y) == k on all |alphabet|^(2n) ordered
    pairs, which ``max_pairs`` bounds before anything is built.
    """
    if not (1 <= k < n):
        raise InputError(f"need 1 <= k < n, got k={k}, n={n}")
    check_pairs(len(alphabet) ** (2 * n), max_pairs)
    rep_hi = build_hd_supp(n, k + 1, alphabet, seed_stream(seed, "sign-oracle", k + 1))
    rep_lo = build_hd_supp(n, k, alphabet, seed_stream(seed, "sign-oracle", k))
    tree = Node(
        oracle=rep_hi,
        child1=Leaf(0),
        child0=Node(oracle=rep_lo, child1=Leaf(1), child0=Leaf(0)),
    )
    domain = list(itertools.product(tuple(alphabet), repeat=n))
    rep = compile_tree(tree, domain, gamma_mode, truth=lambda x, y: dist(x, y) == k)
    assert rep.dim == 1 + comb(2 * k, k) ** 2 + comb(2 * k + 2, k + 1) ** 2
    return rep


# -------------------------------------------------------------------
# Serialization (identity input maps only)
# -------------------------------------------------------------------


def sign_to_json(rep: SignRep, meta: dict | None = None) -> dict:
    doc = {"schema": "hamrank-sign/1", "tree": _node_to_json(rep)}
    if meta:
        doc["meta"] = meta
    return doc


def _node_to_json(rep: SignRep) -> dict:
    if isinstance(rep, ConstLeaf):
        return {"type": "const", "sign": rep.sign}
    if rep.a_map is not _identity or rep.b_map is not _identity:
        raise ValueError("only identity input maps serialize")
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
        return ConstLeaf(obj["sign"])
    return Combine(
        oracle=load_supp(obj["oracle"]),
        rep0=_node_from_json(obj["rep0"]),
        rep1=_node_from_json(obj["rep1"]),
        gamma=int(obj["gamma"]),
    )
