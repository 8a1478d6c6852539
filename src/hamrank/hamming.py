"""Explicit support-rank representations of threshold Hamming distance.

The pipeline: compress the diagonal-difference family so that the rank of
Diag(x - y) is preserved up to a cap of k, then replace the full-rank test
det != 0 by an inner product of minor embeddings.  A ``SupportRep`` is
built from one square map A and pairs the left minor embedding of A(x) with
the right one of -A(y), so <u(x), v(y)> = det(A(x) - A(y)).  For threshold
distance, ``SupportRep.of_compressor`` takes A = C, where C compresses
Diag(word) to k x k; the vectors have dimension C(2k, k) and

    <u(x), v(y)> != 0   if and only if   dist(x, y) >= k,

valid over any finite integer alphabet.  Construction certifies itself
through the compressor's exhaustive family verification; an independent
exhaustive (or sampled) pair check and an explicit identity-submatrix
certificate for the 2^k lower bound are provided on top.  The exhaustive
pair check packs the right embeddings column by column into big integers,
with a slot width taken from the largest entries, so a row of |A|^n pairs
costs one exact multiply-add per coordinate (``_packed_rows``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import cache
from math import comb
from operator import getitem, mul
from typing import Callable, Hashable, Iterator, Sequence

from .compression import (
    Compressor,
    MatFamily,
    certified,
    fit_compressor,
    nth_product,
    verify_compressor,
)
from .errors import (
    InputError,
    PatternViolationError,
    SizeMismatchError,
)
from .exact import Mat, int_from_json, ints_from_json
from .parallel import map_rows  # noqa: F401 (perfbench traces this binding)
from .parallel import REPORT_CAP, SweepReport, sweep
from .seeds import rng_stream, seed_stream
from .veronese import minor_embed

Word = tuple[int, ...]


class SupportRep:
    """The support rep <u(x), v(y)> = det(a_map(x) - a_map(y)) for a square map.

    ``a_map`` sends an index (a word, for Hamming reps) to a size x size
    integer matrix.  u and v are the left minor embedding of a_map(x) and
    the right one of -a_map(y) (``veronese.minor_embed``), of dimension
    C(2 size, size), so the dot product is nonzero exactly where the
    difference has full rank.  Each embedding is computed on first use and
    memoized, so a representation over 2^n words costs memory only for the
    words actually touched.  A Hamming rep (``of_compressor``) also carries
    its compressor, alphabet and seed, and derives ``n``, ``k`` and its
    document's predicate ``HD>=k`` from the compressor; other reps have none.
    """

    alphabet: tuple[int, ...] | None = None
    compressor: Compressor | None = None
    seed: int | None = None

    def __init__(self, a_map: Callable[[Hashable], Mat], size: int):
        self.dim = comb(2 * size, size)
        self.u = cache(lambda x: minor_embed(a_map(x), "left"))
        self.v = cache(lambda y: minor_embed(-a_map(y), "right"))

    @classmethod
    def of_compressor(
        cls, comp: Compressor, alphabet: Sequence[int], seed: int | None
    ) -> "SupportRep":
        """The rep det(C(x) - C(y)) of dist >= k, C = comp.apply_diag.

        The compressor's factors are k x n, both of one shape: n is the word
        length and k the threshold.  The alphabet must pass
        ``check_alphabet``.
        """
        if comp.left.shape != comp.right.shape:
            raise InputError(f"factor shapes {comp.left.shape} != {comp.right.shape}")
        rep = cls(comp.apply_diag, comp.left.rows)
        rep.alphabet, rep.compressor, rep.seed = check_alphabet(alphabet), comp, seed
        return rep

    @property
    def n(self) -> int:
        return self.compressor.source_shape[0]

    @property
    def k(self) -> int:
        return self.compressor.target_shape[0]

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


def difference_classes(n: int, alphabet: Sequence[int]) -> Iterator[tuple[Word, Word]]:
    """One word pair (x, y) per class {z, -z} of differences z = x - y.

    z runs over (A - A)^n, A the alphabet, in product order over the sorted
    differences, skipping each z whose first nonzero entry is negative (its
    class was met at -z).  Coordinate i of the pair is one fixed letter pair
    (a, b) with a - b = z_i.  The class of z stands for
    prod_i #{(a, b) : a - b = z_i} ordered pairs, and so does that of -z:
    3^n + 1 over 2 classes for a two-letter alphabet, 3,281 at n = 8.
    """
    letters: dict[int, tuple[int, int]] = {}
    for a, b in itertools.product(check_alphabet(alphabet), repeat=2):
        letters.setdefault(a - b, (a, b))
    words: dict[Word, Word] = {}  # one tuple per word, however many classes use it
    for z in itertools.product(sorted(letters), repeat=n):
        if next((d for d in z if d), 0) >= 0:
            x = tuple(letters[d][0] for d in z)
            y = tuple(letters[d][1] for d in z)
            yield words.setdefault(x, x), words.setdefault(y, y)


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
    return Compressor(left=left, right=right, seed=0, verified=False, method="weights")


def build_hd_supp(
    n: int,
    k: int,
    alphabet: Sequence[int] = (0, 1),
    seed: int = 0,
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
    """The indices of the words at distance < k from word ``i``.

    Words of length ``n`` over ``size`` letters are numbered in
    ``word_of_index`` order, so letter positions are base-``size`` digits,
    the first position most significant.  A word at distance t arises once:
    from the t positions where it differs and one other digit at each.  The
    list is empty at k = 0 and holds every index once k > n.
    """
    steps = []  # per position, the index changes that move it to another letter
    for p in range(n):
        place = size ** (n - 1 - p)
        digit = i // place % size
        steps.append([(e - digit) * place for e in range(size) if e != digit])
    near = []
    for t in range(min(k, n + 1)):
        for chosen in itertools.combinations(steps, t):
            near.extend(i + sum(step) for step in itertools.product(*chosen))
    return near


def _packed_rows(
    us: Sequence[Sequence[int]],
    vs: Sequence[Sequence[int]],
    near: Callable[[int], list[int]],
) -> Callable[[int, Sequence[int]], tuple[int, list[int]]]:
    """The exhaustive row check of <us[i], vs[j]> != 0 iff j not in near(i).

    Each coordinate column of ``vs`` is packed once into one integer
    P_c = sum_j vs[j][c] 2^(jW), so row i is the single integer
    S = bias R + sum_c us[i][c] P_c with R = sum_j 2^(jW): a multiply-add per
    coordinate.  The slot width W comes from the data, never assumed:
    bias = 1 + sum_c max_i |us[i][c]| max_j |vs[j][c]| bounds every |dot| by
    bias - 1, and W = bitlen(2 bias) + 1, rounded up to whole bytes, puts
    every slot dot_ij + bias in [1, 2^(W-1)).  The digits of S in base 2^W
    are therefore exactly those slots, and xoring out bias R and adding
    2^(W-1) - 1 to each slot sets its top bit exactly where the dot is
    nonzero, without a carry between slots.  This is an integer identity:
    no modulus and no fallback.  The truth sets every top bit except those
    of ``near(i)``; the row's failures are the set bits of the xor of the
    two, counted by popcount; only the first ``REPORT_CAP`` are turned back
    into columns, from the top byte of each slot.

    The check takes whole rows: its ``cols`` is always the
    ``range(len(vs))`` an exhaustive ``sweep`` passes, and is not read.
    """
    count = len(vs)
    u_max = [max(map(abs, col)) for col in zip(*us)]
    v_max = [max(map(abs, col)) for col in zip(*vs)]
    bias = 1 + sum(map(mul, u_max, v_max))
    width = ((2 * bias).bit_length() + 8) // 8  # slot bytes, W = 8 width bits
    ones = int.from_bytes(b"\x01".ljust(width, b"\0") * count, "little")
    packed = []
    for weight, off, col in zip(u_max, v_max, zip(*vs)):
        if not weight:
            # no row weighs this column, and bias does not bound its entries
            packed.append(0)
            continue
        # shifted by off >= 0, each entry packs as unsigned bytes, below 2 bias
        data = b"".join((c + off).to_bytes(width, "little") for c in col)
        packed.append(int.from_bytes(data, "little") - off * ones)
    base = bias * ones
    low = ((1 << (8 * width - 1)) - 1) * ones
    tops = low + ones

    def check(i: int, cols: Sequence[int]) -> tuple[int, list[int]]:
        s = base
        for c, p in zip(us[i], packed):
            if c:
                s += c * p
        nonzero = ((s ^ base) + low) & tops
        ball = bytearray(count * width)
        for j in near(i):
            ball[j * width + width - 1] = 0x80
        diff = nonzero ^ tops ^ int.from_bytes(ball, "little")
        if not diff:
            return 0, []
        flags = diff.to_bytes(count * width, "little")[width - 1 :: width]
        first = []
        j = flags.find(0x80)
        while j >= 0 and len(first) < REPORT_CAP:
            first.append(j)
            j = flags.find(0x80, j + 1)
        return diff.bit_count(), first

    return check


def verify_support_rep(
    rep: SupportRep,
    mode: str = "exhaustive",
    sample_count: int | None = None,
    sample_seed: int = 0,
    max_pairs: int | None = None,
) -> SweepReport:
    """Check <u(x), v(y)> != 0 iff dist(x, y) >= k over ordered pairs.

    Exhaustive mode sweeps all |alphabet|^(2n) ordered pairs in product
    order and embeds every word once, before the first row; each row is
    checked by ``_packed_rows``, one big-integer multiply-add per
    coordinate against the packed columns, with the Hamming ball of radius
    k - 1 as ground truth.  Sample mode draws ``sample_count`` seeded
    uniform ordered pairs, embeds only the drawn words, each once, and
    checks each pair by its own dot product and letter codes.  Either way
    ``max_pairs`` bounds the pairs checked, before anything is embedded.
    The report is deterministic for a given mode and seed.
    """
    if rep.compressor is None:
        raise ValueError("verification needs a Hamming-threshold representation")
    n, k, alphabet = rep.n, rep.k, rep.alphabet
    a = len(alphabet)

    def prepare():
        if mode == "exhaustive":
            words = [word_of_index(i, n, alphabet) for i in range(a**n)]
            us, vs = list(map(rep.u, words)), list(map(rep.v, words))
            return _packed_rows(us, vs, lambda i: near_indices(i, n, a, k))
        word = cache(lambda i: word_of_index(i, n, alphabet))
        u, v = cache(lambda i: rep.u(word(i))), cache(lambda i: rep.v(word(i)))
        # one-hot letter codes: each differing position sets two bits of the xor
        bits = [{c: 1 << (p * a + b) for b, c in enumerate(alphabet)} for p in range(n)]
        code = cache(lambda i: sum(map(getitem, bits, word(i))))
        need = 2 * k

        def check(i: int, cols) -> tuple[int, list[int]]:
            ui, ci = u(i), code(i)
            bad = [
                j
                for j in cols
                if (sum(map(mul, ui, v(j))) != 0)
                != ((ci ^ code(j)).bit_count() >= need)
            ]
            return len(bad), bad

        return check

    result = sweep(
        a**n,
        prepare,
        mode,
        sample_count,
        rng_stream(sample_seed, "verify-sample", n, k),
        max_pairs,
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


def identity_certificate(rep: SupportRep) -> IdentityCertificate:
    """Exhibit the 2^k x 2^k identity inside dist >= k and check it.

    Rows are the words w . 0^(n-k) over the first k coordinates; column j
    complements the first k bits of row j.  Row i meets column j at distance
    k - dist(w_i, w_j), which reaches k exactly on the diagonal, so the
    pattern of nonzero dots must be the identity.  An identity of size m
    forces any same-support matrix to have rank at least m.  A broken
    pattern raises ``PatternViolationError`` with its failing-cell count.
    """
    if rep.alphabet is None or len(rep.alphabet) != 2:
        raise InputError("the identity certificate needs a two-letter alphabet")
    lo, hi = rep.alphabet
    n, k = rep.n, rep.k
    if k > n:
        raise InputError(f"the identity certificate needs k <= n, got k={k}, n={n}")
    rows = []
    cols = []
    for bits in itertools.product((lo, hi), repeat=k):
        rows.append(tuple(bits) + (lo,) * (n - k))
        flipped = tuple(hi if b == lo else lo for b in bits)
        cols.append(flipped + (lo,) * (n - k))

    def check(i: int, js) -> tuple[int, list[int]]:
        bad = [j for j in js if rep.query(rows[i], cols[j]) != (i == j)]
        return len(bad), bad

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
