"""Explicit support-rank representations of threshold Hamming distance.

The pipeline: compress the diagonal-difference family so that the rank of
Diag(x - y) is preserved up to a cap of k, then replace the full-rank test
det != 0 by an inner product of minor embeddings.  A ``SupportRep`` is
built from one square map A and pairs the minor embedding of A(x) with the
right one of -A(y), a signed permutation of that of A(y), so
<u(x), v(y)> = det(A(x) - A(y)) (``veronese.prove_det_sum``).  For threshold
distance, ``SupportRep.of_compressor`` takes A = C, where C compresses
Diag(word) to k x k by ``compression.word_map``, the one map that feeds the
rep's memo, its embedded grids (``SupportRep.embed``) and ``rankprob``'s
Hamming problems; the vectors have dimension C(2k, k) and

    <u(x), v(y)> != 0   if and only if   dist(x, y) >= k,

valid over any finite integer alphabet.  Construction certifies itself
through the compressor's exhaustive family verification; an independent
exhaustive (or sampled) pair check and an explicit identity-submatrix
certificate for the 2^k lower bound are provided on top.

The exhaustive pair check (``_packed_rows``) embeds the word grid once, a
Laplace pass per word (``SupportRep.embed``), and runs on the packed-dot
kernel of ``parallel``: the right embeddings of all |A|^n words are packed
once, so a row of exact dots costs one multiply-add per coordinate, and
each slot's nonzero test is read from its top bit without unpacking.  The
compressor's family walk runs on the same kernel; sign trees read exact
dots from rows that ``signcompile`` alone packs.

The sampled pair check has no row to share.  It certifies a drawn pair by
a residue instead: each drawn word's u and v are packed once modulo the
prime ``RESIDUE_PRIME`` (``parallel.pack_residues``), and one small
product gives the dot mod that prime.  A nonzero residue proves the dot
nonzero; a zero one is only a prompt, and the pair's exact dot decides
it, so the verdicts and report bytes are those of the exact check.  The
check is a row check: it reads the row's packed word once and loops over
the drawn columns.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import cache
from math import comb
from operator import getitem, mul, ne
from typing import Callable, Hashable, Iterable, Sequence

from .compression import (
    Compressor,
    MatFamily,
    certified,
    fit_compressor,
    nth_product,
    verify_compressor,
    word_map,
)
from .errors import (
    InputError,
    PatternViolationError,
    SizeMismatchError,
)
from .exact import Mat, int_from_json, ints_from_json
from .parallel import map_rows  # noqa: F401 (perfbench traces this binding)
from .parallel import (
    REPORT_CAP,
    RESIDUE_PRIME,
    SweepReport,
    flagged,
    pack_residues,
    packed_nonzero,
    pairwise,
    sweep,
    top_bytes,
)
from .seeds import rng_stream, seed_stream
from .veronese import minor_embed, negated_right

Word = tuple[int, ...]
Vector = tuple[int, ...]  # one side of a minor embedding


class SupportRep:
    """The support rep <u(x), v(y)> = det(a_map(x) - a_map(y)) for a square map.

    ``a_map``, kept as given, sends an index to a size x size integer
    matrix; a Hamming rep's (``of_compressor``) is ``compression.word_map``,
    the one map both its memo and ``embed`` read.
    u(x), the minor embedding of a_map(x) (``veronese.minor_embed``) of
    dimension ``dim`` = C(2 ``size``, ``size``), is one Laplace pass,
    computed on first use and memoized; v(y), the right embedding of
    -a_map(y), is the signed permutation ``veronese.negated_right`` of u(y),
    memoized too.  The dot product is det(a_map(x) - a_map(y))
    (``veronese.prove_det_sum``), nonzero exactly where the difference has
    full rank.  A rep over 2^n words costs memory only for the words
    touched.  Besides Hamming reps, ``rankprob`` pairs index maps: a sign
    piece's compressed map.  A Hamming rep also carries its compressor,
    alphabet and seed, and derives ``n``, ``k`` and its document's
    predicate ``HD>=k`` from the compressor; other reps have none.
    """

    alphabet: tuple[int, ...] | None = None
    compressor: Compressor | None = None
    seed: int | None = None

    def __init__(self, a_map: Callable[[Hashable], Mat], size: int):
        self.a_map, self.size, self.dim = a_map, size, comb(2 * size, size)
        # the closures hold u, never self: a cycle would keep every rep
        # alive until a garbage-collector pass
        self.u = u = cache(lambda x: minor_embed(a_map(x)))
        self.v = cache(lambda y: negated_right(size)(u(y)))

    @classmethod
    def of_compressor(
        cls, comp: Compressor, alphabet: Sequence[int], seed: int | None
    ) -> "SupportRep":
        """The rep det(C(x) - C(y)) of dist >= k, C = ``word_map`` of comp.

        The compressor's factors are k x n, both of one shape: n is the word
        length and k the threshold.  The alphabet must pass
        ``check_alphabet``.
        """
        if comp.left.shape != comp.right.shape:
            raise InputError(f"factor shapes {comp.left.shape} != {comp.right.shape}")
        alphabet = check_alphabet(alphabet)
        rep = cls(word_map(comp, (alphabet,) * comp.left.cols), comp.left.rows)
        rep.alphabet, rep.compressor, rep.seed = alphabet, comp, seed
        return rep

    @property
    def n(self) -> int:
        return self.compressor.source_shape[0]

    @property
    def k(self) -> int:
        return self.compressor.target_shape[0]

    def embed(self, domain: Iterable) -> tuple[list[Vector], list[Vector]]:
        """(us, vs): u(x) and v(x) for each x of ``domain``, words or indices,
        in order: one ``minor_embed`` of a_map(x) each, v its signed
        permutation ``negated_right``; the memo is neither read nor filled."""
        us = [minor_embed(self.a_map(x)) for x in domain]
        return us, list(map(negated_right(self.size), us))

    def dot(self, x, y) -> int:
        return sum(map(mul, self.u(x), self.v(y)))

    def query(self, x, y) -> bool:
        """The boolean matrix entry this representation supports."""
        return self.dot(x, y) != 0

    def to_json(self) -> dict:
        if self.compressor is None:
            raise ValueError("only compressor-backed representations serialize")
        return {
            "schema": "hamrank-supp/1",
            "predicate": f"HD>={self.k}",
            "n": self.n,
            "k": self.k,
            "alphabet": [str(a) for a in self.alphabet],
            "dim": self.dim,
            "seed": self.seed,
            "compressor": self.compressor.to_json(),
        }


def check_alphabet(alphabet: Sequence[int]) -> tuple[int, ...]:
    """The letters as ints; empty, repeated or non-integer letters are refused."""
    alphabet = tuple(map(int_from_json, alphabet))
    if not alphabet or len(set(alphabet)) != len(alphabet):
        raise InputError(f"alphabet {alphabet} needs distinct letters, at least one")
    return alphabet


def word_of_index(i: int, n: int, alphabet: tuple[int, ...]) -> Word:
    """Index -> word, matching itertools.product enumeration order."""
    return nth_product(i, (alphabet,) * n)


def dist(x: Sequence[int], y: Sequence[int]) -> int:
    """Hamming distance between equal-length words."""
    if len(x) != len(y):
        raise SizeMismatchError("words must have equal length")
    return sum(map(ne, x, y))


def _weights_compressor(n: int) -> Compressor:
    # Power-of-two row against all-ones row: the compressed 1x1 entry of
    # Diag(z) is the weighted support sum, nonzero for every nonzero +-c
    # pattern by distinctness of binary subset sums.
    left = Mat(1, n, tuple(1 << i for i in range(n)))
    right = Mat(1, n, (1,) * n)
    return Compressor(left=left, right=right, seed=0, verified=False, method="weights")


def build_hd_supp(
    n: int, k: int, alphabet: Sequence[int] = (0, 1), seed: int = 0
) -> SupportRep:
    """Build a verified dim-C(2k,k) support representation of dist >= k.

    The alphabet is any tuple of distinct integers; values embed as
    themselves.  For k = 1 over a two-letter alphabet the compressor is the
    deterministic power-of-two weight row (differences are +-c multiples of
    distinct subset sums, hence nonzero), removing randomness from the
    smallest case; it is still verified against the full difference family
    rather than trusted.
    """
    alphabet = check_alphabet(alphabet)
    if not (1 <= k <= n):
        raise InputError(f"need 1 <= k <= n, got k={k}, n={n}")

    family = MatFamily.diagonal_differences(n, alphabet)
    if k == 1 and len(alphabet) == 2:
        comp = _weights_compressor(n)
        comp = certified(comp, verify_compressor(comp, family))
    else:
        comp = fit_compressor(family, k, seed_stream(seed, "hd-supp", n, k))

    return SupportRep.of_compressor(comp, alphabet, seed)


def load_supp(obj: dict) -> SupportRep:
    """Rebuild a support rep from every field ``to_json`` writes, none
    optional.  The rep is its compressor, alphabet and seed; the stated
    predicate, ``n``, ``k`` (JSON ints) and dim (a document integer) must
    each equal the value the compressor gives."""
    if obj.get("schema") != "hamrank-supp/1":
        raise ValueError(f"not a support-rep document: {obj.get('schema')!r}")
    rep = SupportRep.of_compressor(
        Compressor.from_json(obj["compressor"]),
        ints_from_json(obj["alphabet"]),
        int_from_json(obj["seed"]),
    )
    stated, derived = dict(obj, dim=int_from_json(obj["dim"])), rep.to_json()
    for key in ("predicate", "n", "k", "dim"):
        want = derived[key]
        # True == 1 and 3.0 == 3, so the type is checked too
        if type(stated[key]) is not type(want) or stated[key] != want:
            raise InputError(f"{key} {obj[key]!r} is not the compressor's {want!r}")
    return rep


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


def near_indices(i: int, n: int, size: int, k: int) -> list[int]:
    """The indices of the words at distance below k from word ``i``: the
    ball of radius k - 1, empty at k = 0, every index once k > n.

    Words of length ``n`` over ``size`` letters are numbered in
    ``word_of_index`` order, so letter positions are base-``size`` digits,
    the first position most significant.  A word at distance t arises once:
    from the t positions where it differs and one other digit at each.  A
    ball of radius 0, at k = 1, builds no steps.
    """
    top = min(k, n + 1)  # the radii are 0 <= t < top
    if top <= 1:
        return [i] if top == 1 else []
    steps = []  # per position, the index changes that move it to another letter
    for p in range(n):
        place = size ** (n - 1 - p)
        digit = i // place % size
        steps.append([(e - digit) * place for e in range(size) if e != digit])
    near = []
    for t in range(top):
        for chosen in itertools.combinations(steps, t):
            near.extend(i + sum(step) for step in itertools.product(*chosen))
    return near


def shell_flags(n: int, size: int, k: int) -> Callable[[int], list[bool]]:
    """``upper(i)``: for each word index j >= i, in order, whether words i
    and j (``word_of_index`` order) lie at distance exactly k: a head
    distance, over the first n // 2 positions, plus a tail distance over
    the rest, each from a table over the half-words of that length.
    """
    split = n // 2
    top, span = n - split, size ** (n - split)  # the tails' length and count

    def table(m: int) -> list[list[int]]:
        halves = list(itertools.product(range(size), repeat=m))
        return [[dist(x, y) for y in halves] for x in halves]

    heads = table(split)
    # per tail and distance t, the flags of the tails at distance t from it
    tails = [[[d == t for d in row] for t in range(top + 1)] for row in table(top)]
    miss = [False] * span

    def upper(i: int) -> list[bool]:
        head, tail = divmod(i, span)
        at = tails[tail]
        rows = (at[k - d] if 0 <= k - d <= top else miss for d in heads[head][head:])
        return list(itertools.chain.from_iterable(rows))[tail:]

    return upper


def _packed_rows(
    us: Sequence[Sequence[int]],
    vs: Sequence[Sequence[int]],
    near: Callable[[int], list[int]],
) -> Callable[[int, Sequence[int]], tuple[int, list[int]]]:
    """The exhaustive row check of <us[i], vs[j]> != 0 iff j not in near(i).

    Row i's nonzero tests come packed from ``parallel.packed_nonzero``, one
    top bit per slot.  The truth sets every top bit except those of
    ``near(i)``; the row's failures are the set bits of the xor of the two,
    counted by popcount; only the first ``REPORT_CAP`` are turned back into
    columns, from the top byte of each slot.

    The check takes whole rows: its ``cols`` is always the
    ``range(len(vs))`` an exhaustive ``sweep`` passes, and is not read.
    """
    count = len(vs)
    nonzero, width = packed_nonzero(us, vs)
    tops = int.from_bytes(b"\x80".rjust(width, b"\0") * count, "little")

    def check(i: int, cols: Sequence[int]) -> tuple[int, list[int]]:
        ball = bytearray(count * width)
        for j in near(i):
            ball[j * width + width - 1] = 0x80
        diff = nonzero(i) ^ tops ^ int.from_bytes(ball, "little")
        if not diff:
            return 0, []
        first = itertools.islice(flagged(top_bytes(diff, width, count)), REPORT_CAP)
        return diff.bit_count(), list(first)

    return check


def verify_support_rep(
    rep: SupportRep,
    sample: int | None = None,
    sample_seed: int = 0,
    max_pairs: int | None = None,
) -> SweepReport:
    """Check <u(x), v(y)> != 0 iff dist(x, y) >= k over ordered pairs.

    With ``sample`` None the check is exhaustive: it sweeps all
    |alphabet|^(2n) ordered pairs in product order and embeds every word
    once, left side only, from compressed half-words (``SupportRep.embed``),
    before the first row; each row is checked by ``_packed_rows``, one
    big-integer multiply-add per coordinate against the packed columns, with
    the Hamming ball of radius k - 1 as ground truth.  Otherwise it draws
    ``sample`` seeded uniform ordered pairs (at least one) and embeds only
    the drawn words, u(x) each once through the rep's memo ``rep.u``.  One
    memo per drawn index holds ``(left, right, code)``: u and its signed
    permutation v packed mod ``RESIDUE_PRIME`` by ``pack_residues``, and
    the word's one-hot letter code; v itself is never kept, and ``rep.v``
    stays empty.  A pair's residue, the middle digit of left(x) right(y)
    mod the prime, is <u(x), v(y)> mod the prime: where it is nonzero the
    dot is nonzero; where it reads 0 (every pair at distance < k, about 1
    in 32,749 of the others) the exact dot, from ``rep.u`` and v =
    ``negated_right(size)(u)``, decides, and the report counts the pair in
    ``exact_rechecks``, outside its JSON.  The truth is read from the xor
    of the letter codes.  The check is one row check: it reads row i's
    ``(left, code)`` once and loops over ``cols``, which the sweep gives
    as the one drawn column, each pair checked as it is drawn.  Violation
    records read the exact dot of the same vectors.  Either way
    ``max_pairs`` bounds the pairs checked, before anything is embedded.
    The report is deterministic for a given sample count and seed.
    """
    if rep.compressor is None:
        raise ValueError("verification needs a Hamming-threshold representation")
    n, k, alphabet = rep.n, rep.k, rep.alphabet
    a = len(alphabet)

    word = cache(lambda i: word_of_index(i, n, alphabet))
    u = v = None  # index -> u, v vector: what prepare embeds
    rechecks = 0  # sampled pairs whose residue read 0

    def dot(i: int, j: int) -> int:
        return sum(map(mul, u(i), v(j)))

    def prepare():
        nonlocal u, v
        if sample is None:
            us, vs = rep.embed(itertools.product(alphabet, repeat=n))
            u, v = us.__getitem__, vs.__getitem__
            return _packed_rows(us, vs, lambda i: near_indices(i, n, a, k))
        # u from the rep's memo; v, a signed permutation of u, is never kept
        flip = negated_right(rep.size)
        u, v = (lambda i: rep.u(word(i))), (lambda j: flip(u(j)))
        left, right, shift, mask = pack_residues(rep.dim)
        # one-hot letter codes: each differing position sets two bits of the xor
        bits = [{c: 1 << (p * a + b) for b, c in enumerate(alphabet)} for p in range(n)]

        @cache
        def packed(i: int) -> tuple[int, int, int]:
            ui = u(i)
            return left(ui), right(flip(ui)), sum(map(getitem, bits, word(i)))

        need = 2 * k

        def check(i: int, cols: Sequence[int]) -> tuple[int, list[int]]:
            nonlocal rechecks
            left_i, _, code_i = packed(i)
            bad = []
            for j in cols:
                _, right_j, code_j = packed(j)
                nonzero = (left_i * right_j >> shift & mask) % RESIDUE_PRIME != 0
                if not nonzero:
                    rechecks += 1
                    nonzero = dot(i, j) != 0
                if nonzero != ((code_i ^ code_j).bit_count() >= need):
                    bad.append(j)
            return len(bad), bad

        return check

    rng = rng_stream(sample_seed, "verify-sample", n, k)
    result = sweep(a**n, prepare, sample, rng, max_pairs)
    records = []
    for i, j in result.violations:
        x, y = word(i), word(j)
        records.append(_violation(x, y, dot(i, j), dist(x, y) >= k))
    return replace(result, violations=tuple(records), exact_rechecks=rechecks)


# -------------------------------------------------------------------
# Lower-bound certificate
# -------------------------------------------------------------------


@dataclass(frozen=True)
class IdentityCertificate:
    """An m x m identity pattern inside the support, forcing rank >= m."""

    size: int
    row_words: tuple[Word, ...]
    col_words: tuple[Word, ...]


def identity_certificate(rep: SupportRep) -> IdentityCertificate:
    """Exhibit the 2^k x 2^k identity inside dist >= k and check it.

    With lo and hi the alphabet's first two letters, the rows are the words
    w . lo^(n-k) for w in {lo, hi}^k; column j swaps lo and hi in the first
    k letters of row j.  Row i meets column j at distance k - dist(w_i, w_j),
    which reaches k exactly on the diagonal, so the pattern of nonzero dots
    must be the identity.  An identity of size m forces any same-support
    matrix to have rank at least m.  A broken pattern raises
    ``PatternViolationError`` with its failing-cell count.
    """
    if rep.alphabet is None or len(rep.alphabet) < 2:
        raise InputError("the identity certificate needs at least two letters")
    lo, hi = rep.alphabet[:2]
    n, k = rep.n, rep.k
    if k > n:
        raise InputError(f"the identity certificate needs k <= n, got k={k}, n={n}")
    heads, tail = list(itertools.product((lo, hi), repeat=k)), (lo,) * (n - k)
    rows = [w + tail for w in heads]
    cols = [tuple(hi if b == lo else lo for b in w) + tail for w in heads]

    check = pairwise(lambda i, j: rep.query(rows[i], cols[j]) != (i == j))
    result = sweep(len(rows), lambda: check)
    if not result.certified:
        i, j = result.violations[0]
        raise PatternViolationError(
            f"identity pattern broken at ({i}, {j}): "
            f"dot {'nonzero' if i != j else 'zero'}, "
            f"expected {'diagonal' if i == j else 'off-diagonal'}",
            violation_count=result.violation_count,
        )
    return IdentityCertificate(1 << k, tuple(rows), tuple(cols))
