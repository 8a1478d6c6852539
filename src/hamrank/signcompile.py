"""Threshold decision trees of support reps and the support-to-sign compiler.

A threshold tree decides g(rank), g a 0/1 table, by asking rank >= t at
each change point t of g, and every such tree is a chain, so it compiles
to one flat form, a ``SignForm``:

    value(x, y) = sigma_0 + sum_t gamma_t * sigma_t * s_t(x, y)^2,

one ``Term`` per change point, ascending by threshold, where s_t is that
oracle's inner product at (x, y) and sigma_t the sign of g from t on.
Wherever s_t is 0 its term vanishes identically (not approximately), so
the smaller terms dictate the sign; wherever it is nonzero the integer
dominance constant gamma_t makes its term strictly dominate them, so
sigma_t does.  The dimension is

    dim = 1 + sum_t d_t^2,

d_t the oracle's dimension (``threshold_dim`` before any oracle is
built); ``proof_dim_bound`` gives the coarse (1 + r^2)^terms bound, and
both numbers are reported.  ``hamrank-sign/1`` documents store the form as
the nested chain of combine nodes it came from, and the reader accepts
only chains.
Every compile runs on ``PairRows``, pairs that its caller says stand for
the whole domain: every ordered pair (``domain_rows``), one per difference
class of words (``build_hd_sign``) or one per distinct member of a rank
problem's difference family (``rankprob.to_sign_rep``), once
``veronese.prove_det_sum`` has passed at every oracle size.  Oracle dots
come a row at a time from the one packing site, ``_packed``: a row source
gives each oracle's (left, right) vectors, ``SupportRep.embed`` over a
domain or ``compression.det_vectors`` over difference classes, and they are
packed once per oracle (``parallel.packed_dots``).  One row loop,
``value_row``, serves the gamma scan and the truth check, and one check,
``sign_misses``, decides every miss of a sign row against its truth flags
for build-sign, ``to_sign_rep`` and verify-sign alike.
A ``SupportRep`` built on maps from indices to matrices already answers at
indices, so other index domains need no translation layer.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import cache
from math import comb
from typing import Callable, Sequence

from .errors import (
    InputError,
    PatternViolationError,
    SizeMismatchError,
    ZeroValueError,
)
from .compression import det_vectors, shared_det_vectors, split_positions, supports
from .exact import Mat, int_from_json
from .hamming import SupportRep, build_hd_supp, check_alphabet, load_supp
from .parallel import PAIRS_OVER, check_size, packed_dots
from .seeds import seed_stream
from .veronese import prove_det_sum


# -------------------------------------------------------------------
# Flat sign forms
# -------------------------------------------------------------------


@dataclass(frozen=True)
class Term:
    """One change point: gamma * sign * s(x, y)^2, s the oracle's dot."""

    oracle: SupportRep
    sign: int  # +1 or -1: the sign of g from this change point on
    gamma: int | None = None  # None until ``compile_tree`` chooses it


@dataclass(frozen=True)
class SignForm:
    """value(x, y) = const + the sum of the terms, ascending by threshold
    with the root last; dim 1 + sum d^2 over the terms' oracles."""

    const: int  # +1 or -1: the sign of g[0]
    terms: tuple[Term, ...] = ()

    def __post_init__(self):
        signs = (self.const, *(term.sign for term in self.terms))
        if any(sign not in (1, -1) for sign in signs):
            raise ValueError("constant sign must be +1 or -1")

    @property
    def dim(self) -> int:
        return 1 + sum(term.oracle.dim**2 for term in self.terms)


def eval_value(form: SignForm, x, y) -> int:
    """The exact integer value whose sign encodes the matrix entry."""
    value = form.const
    for term in form.terms:
        s = term.oracle.dot(x, y)
        value += term.gamma * term.sign * s * s
    return value


def eval_sign(form: SignForm, x, y) -> int:
    value = eval_value(form, x, y)
    if value == 0:
        raise sign_error(x, y, value)
    return 1 if value > 0 else -1


def sign_error(x, y, value: int) -> ZeroValueError | PatternViolationError:
    """The error of a sign value that misses its truth at (x, y): it
    vanishes, or its sign is the opposite of the truth's."""
    if value:
        got = "1 vs -1" if value > 0 else "-1 vs 1"
        return PatternViolationError(
            f"compiled sign disagrees with the truth at ({x!r}, {y!r}): {got}"
        )
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


def value_row(form: SignForm, rows: PairRows, i: int, lo: int = 0) -> list[int]:
    """``eval_value`` at columns lo, lo + 1, ..., width - 1 of row i, listed
    or not, term by term: each adds gamma sign s^2 where its dot s, from a
    row decoded at once, is nonzero."""
    values = [form.const] * (rows.width - lo)
    for term in form.terms:
        c = term.gamma * term.sign
        dots = rows.dots(term.oracle)(i, lo)
        values = [a + c * s * s if s else a for a, s in zip(values, dots)]
    return values


def _listed(row: list, cols: Sequence[int], lo: int) -> list:
    """``row``, from column lo on, at the ascending ``cols``: itself where
    they are all of its columns."""
    return row if len(row) == len(cols) else [row[j - lo] for j in cols]


MAX_SIGN_DIM = 1 << 20  # default budget on a sign rep's dimension
SIGN_OVER = "sign dimension {} exceeds the budget {}"


def check_sign_dim(dim: int, max_dim: int = MAX_SIGN_DIM) -> None:
    """Refuse a sign dimension above ``max_dim`` before any det-sum proof:
    a proof of size c takes sum_s C(c, s) c!/(c - s)! 2^s rook points."""
    check_size(SIGN_OVER, max_dim, lambda: dim)


def _prove_det_sums(form: SignForm) -> None:
    for size in sorted({term.oracle.size for term in form.terms}):
        prove_det_sum(size)


def sign_misses(form: SignForm, rows: PairRows, want: Callable) -> Callable:
    """The one sign-row check: ``misses(i)``, the (column, value) pairs of
    row i's listed columns, in order, where the value vanishes or its sign
    is not +1 exactly where ``want(i)`` flags the column.  A row is compared
    whole first and walked only where it disagrees.  ``_prove_det_sums``
    runs first, so a row of ``domain_rows`` cut to its columns j >= i
    stands for its mirror too: an oracle's dot at (x, y) is then
    det(C(x) - C(y)), (-1)^size times its dot at (y, x), read only as s^2."""
    _prove_det_sums(form)

    def misses(i: int) -> list[tuple[int, int]]:
        cols = rows.cols[i]
        if not cols:
            return []
        values = _listed(value_row(form, rows, i, lo := cols[0]), cols, lo)
        flags = want(i)
        if 0 not in values and [v > 0 for v in values] == flags:
            return []
        return [
            (j, v) for j, v, hit in zip(cols, values, flags) if not v or (v > 0) != hit
        ]

    return misses


def gamma_values(form: SignForm) -> list[int]:
    """Dominance constants, ascending by threshold (the root's last)."""
    return [term.gamma for term in form.terms]


def proof_dim_bound(form: SignForm) -> int:
    """The (1 + r^2)^terms bound, r the largest oracle dimension queried."""
    r = max((term.oracle.dim for term in form.terms), default=0)
    return (1 + r * r) ** len(form.terms)


# -------------------------------------------------------------------
# Dominance constants
# -------------------------------------------------------------------


def choose_gamma(oracle: SupportRep, below: SignForm, rows: PairRows) -> int:
    """The integer making the oracle's squared term dominate ``below``, the
    form of the smaller terms, on the oracle's support.

    It scans every pair of ``rows`` with a nonzero oracle value s and
    returns 1 + max ceil(|below| / s^2); multiplying out shows
    gamma * s^2 >= s^2 + |below| > |below| pointwise, so dominance is
    strict while pairs off the support are untouched.  The rows must take
    every value pair (s^2, below) that the domain's pairs take, as the
    rows of ``compile_tree``'s callers do.  It returns 1 when the oracle's
    support on the rows is empty (dominance is vacuous there).  Each row is
    evaluated from its first listed column and scanned in one generator.
    """
    best = 0
    for i, cols in enumerate(rows.cols):
        if not cols:
            continue
        s_row = _listed(rows.dots(oracle)(i, lo := cols[0]), cols, lo)
        v_row = _listed(value_row(below, rows, i, lo), cols, lo)
        ceils = (-(-abs(v) // (s * s)) for s, v in zip(s_row, v_row) if s)
        best = max(best, max(ceils, default=0))
    return 1 + best


def _dot_bound(oracle: SupportRep) -> int:
    # |<u, v>| <= (max_x sum_i |u_i(x)|) * (max_y max_i |v_i(y)|) over the
    # oracle's word grid: two single-input sweeps, never a pair scan.
    us, vs = oracle.embed(itertools.product(oracle.alphabet, repeat=oracle.n))
    usum = max(sum(map(abs, u)) for u in us)
    vmax = max(max(map(abs, v)) for v in vs)
    return usum * vmax


# -------------------------------------------------------------------
# Compiler
# -------------------------------------------------------------------


def _changes(g: Sequence[int]) -> list[int]:
    """The change points of a 0/1 table: the t >= 1 with g[t] != g[t-1]."""
    return [t for t in range(1, len(g)) if g[t] != g[t - 1]]


def threshold_dim(g: Sequence[int]) -> int:
    """The dimension of ``threshold_tree(g, ...)`` over Hamming or rank
    oracles of threshold t, dimension C(2t, t): 1 + sum C(2t, t)^2 over
    the change points t of g, known before any oracle is built."""
    return 1 + sum(comb(2 * t, t) ** 2 for t in _changes(g))


def threshold_tree(g: Sequence[int], oracle: Callable[[int], SupportRep]) -> SignForm:
    """The tree deciding g(rank), g a 0/1 table, by ``oracle(t)`` of rank >= t.

    It asks rank >= t at each change point t (g[t] != g[t-1]), the largest
    at the root; answer 1 is the sign of g[t], answer 0 the next smaller
    change point, and below the smallest sits the sign of g[0].  So it is a
    chain, returned as its flat form with the gammas still unchosen: the
    constant 2 g[0] - 1 and one ``Term(oracle(t), 2 g[t] - 1)`` per change
    point, ascending.  Its dimension, 1 + sum d(t)^2 over the change points
    for oracles of dimension d(t), is the least of any rank-threshold tree:
    by induction, splitting at t costs best(below t) + d(t)^2 *
    best(from t), at least best(below t) + d(t)^2 + sum of d^2 above t, as
    d(t)^2 >= 1.
    """
    terms = tuple(Term(oracle(t), 2 * g[t] - 1) for t in _changes(g))
    return SignForm(2 * g[0] - 1, terms)


def compile_tree(
    tree: SignForm, rows: PairRows, truth: Callable, gamma_mode: str = "exact_scan"
) -> SignForm:
    """Fill in the gammas of a threshold tree's form and verify its sign.

    ``_prove_det_sums`` runs first.  Then, smallest threshold first, each
    term gets a gamma that makes it dominate the form of the terms below
    it on its oracle's support (off it the term vanishes exactly): from
    ``choose_gamma`` (exact_scan), or from a bound on the form below over
    the words of compressor-backed oracles (norm_bound), the running sum
    1 + sum gamma * ``_dot_bound``^2, as s^2 >= 1 on the support.

    The sign is then checked against ``truth(x, y)``, the 0/1 entry it must
    encode, which the caller knows independently of the oracles, asked once
    per listed pair in row order.  The scan and the check visit ``rows``
    only: the caller vouches that every term and the truth take the same
    values there as on every pair of the domain.  ``sign_misses`` checks
    each row, and the first miss in row order raises its ``sign_error``.
    """

    def want(i: int) -> list[bool]:
        return [bool(truth(*rows.pair(i, j))) for j in rows.cols[i]]

    return _compile_rows(tree, rows, want, gamma_mode)


def _compile_rows(
    tree: SignForm,
    rows: PairRows,
    want: Callable[[int], list[bool]],
    gamma_mode: str = "exact_scan",
) -> SignForm:
    """``compile_tree`` with its truth a row at a time: ``want(i)`` flags
    the listed columns of row i."""
    _prove_det_sums(tree)
    terms: list[Term] = []
    bound = 1  # norm_bound: 1 + sum gamma * _dot_bound^2 over ``terms``
    for term in tree.terms:
        if gamma_mode == "exact_scan":
            gamma = choose_gamma(term.oracle, SignForm(tree.const, tuple(terms)), rows)
        elif gamma_mode == "norm_bound" and term.oracle.compressor is not None:
            if terms:
                bound += terms[-1].gamma * _dot_bound(terms[-1].oracle) ** 2
            gamma = 1 + bound
        elif gamma_mode == "norm_bound":
            raise ValueError("gamma mode 'norm_bound' needs compressor-backed oracles")
        else:
            raise ValueError(f"unknown gamma mode {gamma_mode!r}")
        terms.append(replace(term, gamma=gamma))
    form = SignForm(tree.const, tuple(terms))
    misses = sign_misses(form, rows, want)
    for i in range(len(rows.cols)):
        if row := misses(i):
            j, value = row[0]
            raise sign_error(*rows.pair(i, j), value)
    return form


# -------------------------------------------------------------------
# Materialization
# -------------------------------------------------------------------


def _row(form: SignForm, w, side: str) -> list[int]:
    """Row w of the U factor (side "u"), [const] ++ gamma sign u(w) (x) u(w)
    per term, or of the V factor (side "v"), [1] ++ v(w) (x) v(w) per term."""
    row = [form.const if side == "u" else 1]
    for term in form.terms:
        s = term.oracle.u(w) if side == "u" else term.oracle.v(w)
        c = term.gamma * term.sign if side == "u" else 1
        row += [c * si * sj for si in s for sj in s]
    return row


def materialize(
    form: SignForm, indices: Sequence, max_dim: int | None = None
) -> tuple[Mat, Mat]:
    """Explicit factor matrices U, V with <U(x), V(y)> = value(x, y).

    Row x of U concatenates the constant with each term's gamma- and
    sign-scaled tensor u(x) (x) u(x); V mirrors it with 1 and v(y) (x) v(y).
    The tensor identity <a (x) a, b (x) b> = <a, b>^2 gives each term's
    s^2, so structural and materialized evaluation agree exactly.  Column
    count equals ``form.dim``.
    """
    if max_dim is not None:
        check_sign_dim(form.dim, max_dim)
    u_rows = [_row(form, x, "u") for x in indices]
    v_rows = [_row(form, y, "v") for y in indices]
    dim = form.dim
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
    return threshold_dim((0,) * k + (1, 0))


def build_hd_sign(
    n: int,
    k: int,
    seed: int = 0,
    gamma_mode: str = "exact_scan",
    alphabet: Sequence[int] = (0, 1),
    max_pairs: int | None = None,
) -> SignForm:
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
    det(C(-z)) = +-det(C(z)), and the form reads it only through s^2, so
    each value and the truth is constant on a class, and the dots
    are read from the family walk's determinant rows, with no word embedded:
    the vectors that each oracle's own walk expanded (``shared_det_vectors``,
    for this build only).  The truth comes from the weight tables of
    ``_class_rows``.
    """
    hd_sign_dim(n, k)  # refuses k outside 1..n-1
    letters = check_alphabet(alphabet)
    d = len({a - b for a in letters for b in letters})  # odd: (d^n + 1)/2 >= 2^n
    pairs = lambda: (d**n + 1) // 2  # noqa: E731
    check_size(PAIRS_OVER, max_pairs, pairs, n * (d > 1), f"({d}^{n} + 1)/2")
    with shared_det_vectors():
        tree = threshold_tree(
            (0,) * k + (1, 0),
            lambda t: build_hd_supp(
                n, t, alphabet, seed_stream(seed, "sign-oracle", t)
            ),
        )
        rows, want = _class_rows(n, alphabet, k)
        return _compile_rows(tree, rows, want, gamma_mode)


def _class_rows(
    n: int, alphabet: Sequence[int], k: int
) -> tuple[PairRows, Callable[[int], list[bool]]]:
    """One pair (x, y) per class {z, -z}, z = x - y over (A - A)^n in
    product order, prefix i of z in row i and suffix j in column j, the
    dots packed from ``compression.det_vectors``; x_p, y_p is the letter
    pair first met with a - b = z_p.  A z whose first nonzero entry is
    negative, met at -z, is skipped: the differences are sorted and
    symmetric, so z -> -z reverses product order, and those z are the ones
    before 0, in the rows before the middle (zero prefix) row and in its
    columns before the middle.

    Also ``want(i)``, the flags of dist(x, y) == k at row i's columns: the
    weight of z's prefix plus that of its suffix, each the popcount of its
    ``compression.supports`` mask, one flag row per prefix weight."""
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
    masks = supports(values, range(split)), supports(values, range(split, n))
    prefix, suffix = ([mask.bit_count() for mask in part] for part in masks)
    by_weight = [[w + v == k for v in suffix] for w in range(split + 1)]

    def want(i: int) -> list[bool]:
        return by_weight[prefix[i]][cols[i][0] :]

    return PairRows(cols, count, pair, dots), want


# -------------------------------------------------------------------
# Serialization (compressor-backed oracles only)
# -------------------------------------------------------------------


def sign_to_json(form: SignForm, meta: dict | None = None) -> dict:
    """The form as the nested chain it came from: the root combine first,
    each combine's answer-1 branch ("rep0") the const of its sign and its
    answer-0 branch ("rep1") the next smaller term, the const at the bottom."""
    tree = {"type": "const", "sign": form.const}
    for term in form.terms:
        tree = {
            "type": "combine",
            "gamma": str(term.gamma),
            "oracle": term.oracle.to_json(),
            "rep0": {"type": "const", "sign": term.sign},
            "rep1": tree,
        }
    doc = {"schema": "hamrank-sign/1", "tree": tree}
    if meta:
        doc["meta"] = meta
    return doc


def sign_from_json(doc: dict) -> SignForm:
    """The form of a ``sign_to_json`` chain, read from the root down the
    "rep1" branches; a combine under "rep0" is refused, as the tree is then
    not a chain."""
    if doc.get("schema") != "hamrank-sign/1":
        raise ValueError(f"not a sign-rep document: {doc.get('schema')!r}")
    node, terms = doc["tree"], []
    while _node_type(node) == "combine":
        oracle = load_supp(node["oracle"])
        if _node_type(node["rep0"]) == "combine":
            raise InputError("sign tree is not a chain: a combine under rep0")
        sign = int_from_json(node["rep0"]["sign"])
        terms.append(Term(oracle, sign, int_from_json(node["gamma"])))
        node = node["rep1"]
    return SignForm(int_from_json(node["sign"]), tuple(reversed(terms)))


def _node_type(node: dict) -> str:
    if node["type"] not in ("const", "combine"):
        raise InputError(f"unknown sign node type {node['type']!r}")
    return node["type"]
