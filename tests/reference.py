"""Independent ground truth for the verifier tests.

Every verifier test holds hamrank to this module, so it imports the
standard library only, and ``tests/test_reference.py`` keeps it that way:
no hamrank module and no test helper.  A fault in hamrank's Bareiss
elimination, its minor embedding or its composition semantics therefore
cannot reappear in the check meant to catch it.

- A matrix is a list of rows of ints; ``matrix`` reads the JSON form
  hamrank writes.  ``det`` and ``rank`` eliminate modulo a Mersenne prime
  above the Hadamard bound, exact because no nonzero minor reaches the
  prime; ``det_cofactor`` and ``brute_rank`` are the slow definitions
  they are tested against.
- Each counter reads a document's raw JSON, never a hamrank loader.  It
  takes the pairs (or members) to check as an iterable, so exhaustive and
  replayed-sample tests share it, and yields each failure in the record
  format the product reports.  ``tally`` counts the failures and keeps the
  first ``REPORT_CAP``.
"""

import itertools
from fractions import Fraction
from functools import cache
from math import isqrt, prod
from operator import mul

REPORT_CAP = 32  # failure records a report keeps

# The Mersenne primes 2^e - 1 that ``det`` and ``rank`` eliminate modulo,
# the first above the matrix's bound; a bound past the last is eliminated
# over Fraction.
MERSENNE_PRIMES = tuple(
    2**e - 1
    for e in (31, 61, 89, 107, 127, 521, 607, 1279, 2203, 2281, 3217, 4253, 4423)
)


# -------------------------------------------------------------------
# Words and vectors
# -------------------------------------------------------------------


def dist(x, y):
    """The Hamming distance: the positions where two words differ."""
    if len(x) != len(y):
        raise ValueError(f"distance between words of lengths {len(x)} and {len(y)}")
    return sum(a != b for a, b in zip(x, y))


def dot(u, v):
    """The inner product of two vectors of ints or Fractions."""
    if len(u) != len(v):
        raise ValueError(f"dot of lengths {len(u)} and {len(v)}")
    return sum(map(mul, u, v))


# -------------------------------------------------------------------
# Matrices
# -------------------------------------------------------------------


def matrix(obj):
    """The rows of a JSON matrix {"rows", "cols", "entries"}, row-major,
    each entry parsed by ``int``."""
    entries, cols = [int(e) for e in obj["entries"]], obj["cols"]
    return [entries[i * cols : (i + 1) * cols] for i in range(obj["rows"])]


def submatrix(a, rows, cols):
    return [[a[i][j] for j in cols] for i in rows]


def diagonal(z):
    """Diag(z)."""
    return [[v if i == j else 0 for j in range(len(z))] for i, v in enumerate(z)]


def det_cofactor(a):
    """The determinant by cofactor expansion along the first row."""
    if any(len(row) != len(a) for row in a):
        raise ValueError("the determinant needs a square matrix")
    if not a:
        return 1
    return sum(
        (-1) ** j * entry * det_cofactor([row[:j] + row[j + 1 :] for row in a[1:]])
        for j, entry in enumerate(a[0])
        if entry
    )


def brute_rank(a):
    """The largest size of a nonzero minor, by enumeration."""
    rows, cols = len(a), len(a[0]) if a else 0
    best = 0
    for size in range(1, min(rows, cols) + 1):
        if not any(
            det_cofactor(submatrix(a, r, c))
            for r in itertools.combinations(range(rows), size)
            for c in itertools.combinations(range(cols), size)
        ):
            break
        best = size
    return best


def _bound(a):
    """An integer above |M| for every minor M of ``a``: the product of the
    row norms, each rounded up (Hadamard's inequality)."""
    return prod(isqrt(sum(map(mul, row, row))) + 1 for row in a)


def _eliminate(a, bound):
    """(rank, det, p): Gaussian elimination of ``a`` modulo p, the first
    Mersenne prime above ``bound``, or over Fraction (p None) past the
    last.  det is the product of the pivots with the sign of the row swaps,
    a residue mod p; it is the determinant only for a square ``a`` of full
    rank.  Modulo p a row is cleared as head * row - factor * top, with no
    inverse per pivot; each such step multiplies the determinant by head,
    which one inverse at the end divides out."""
    p = next((q for q in MERSENNE_PRIMES if q > bound), None)
    if p is None:
        rows = [list(map(Fraction, row)) for row in a]
    else:
        rows = [[e % p for e in row] for row in a]
    rank, det, scale = 0, 1, 1
    for c in range(len(a[0]) if a else 0):
        for pivot in range(rank, len(rows)):
            if rows[pivot][c]:
                break
        else:
            continue
        if pivot != rank:
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            det = -det
        top = rows[rank]
        head, tail = top[c], top[c + 1 :]
        det *= head
        # entries left of column c + 1 below the pivot are never read again
        for row in rows[rank + 1 :]:
            if not (factor := row[c]):
                continue
            pairs = zip(row[c + 1 :], tail)
            if p is None:
                factor /= head
                row[c + 1 :] = [e - factor * t for e, t in pairs]
            else:
                row[c + 1 :] = [(head * e - factor * t) % p for e, t in pairs]
                scale = scale * head % p
        rank += 1
    if p is not None:
        det = det * pow(scale, -1, p) % p
    return rank, det, p


def rank(a):
    """The exact rank: a minor below the prime is nonzero exactly when it
    is nonzero modulo the prime."""
    return _eliminate(a, _bound(a))[0]


def det(a):
    """The exact determinant: the residue modulo a prime above twice the
    Hadamard bound, taken in (-p/2, p/2)."""
    if any(len(row) != len(a) for row in a):
        raise ValueError("the determinant needs a square matrix")
    full, residue, p = _eliminate(a, 2 * _bound(a))
    if full < len(a):
        return 0
    if p is None:
        return int(residue)
    return residue - p if residue > p // 2 else residue


# -------------------------------------------------------------------
# The det(A + B) expansion
# -------------------------------------------------------------------


def expansion_sign(alpha, beta, k):
    """The sign of the (alpha -> beta)-matching permutation of [k] that is
    order preserving on alpha and on its complement, by counting
    inversions."""
    co_alpha = [i for i in range(k) if i not in alpha]
    co_beta = [j for j in range(k) if j not in beta]
    perm = [0] * k
    for a, b in zip(sorted(alpha), sorted(beta)):
        perm[a] = b
    for a, b in zip(co_alpha, co_beta):
        perm[a] = b
    inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(k), 2))
    return -1 if inversions % 2 else 1


def expansion(a, side):
    """One side of det(A + B) = sum over the terms of
    sign * det A[alpha, beta] * det B[co-alpha, co-beta], one cofactor
    expansion per term: the signed minors of ``a`` on the left, its
    complementary minors on the right.  The terms (alpha, beta) have
    |alpha| = |beta| and go by size, then alpha, then beta, each in
    lexicographic order."""
    k = len(a)
    out = []
    for size in range(k + 1):
        subsets = list(itertools.combinations(range(k), size))
        for alpha, beta in itertools.product(subsets, repeat=2):
            if side == "left":
                minor = submatrix(a, alpha, beta)
                out.append(expansion_sign(alpha, beta, k) * det_cofactor(minor))
            else:
                co_alpha = [i for i in range(k) if i not in alpha]
                co_beta = [j for j in range(k) if j not in beta]
                out.append(det_cofactor(submatrix(a, co_alpha, co_beta)))
    return tuple(out)


# -------------------------------------------------------------------
# Counters, one per document kind
# -------------------------------------------------------------------


def tally(failures):
    """(count, first ``REPORT_CAP``) of a counter's failures."""
    count, first = 0, []
    for record in failures:
        count += 1
        if len(first) < REPORT_CAP:
            first.append(record)
    return count, first


def compressor(comp):
    """The map M -> (L M) R^T of a JSON compressor's factors L, R."""
    left, right = matrix(comp["left"]), matrix(comp["right"])

    def apply(m):
        lm = [[sum(map(mul, row, col)) for col in zip(*m)] for row in left]
        return [[sum(map(mul, row, r)) for r in right] for row in lm]

    return apply


def compressor_failures(comp, members):
    """The shortfalls (index, achieved, required) of a JSON compressor on
    the members M (matrices, in order) of a family: achieved is
    rank(L M R^T), required min(rank M, k) for the k x k target, and each
    member where they differ is yielded."""
    apply, k = compressor(comp), comp["left"]["rows"]
    for index, m in enumerate(members):
        achieved, required = rank(apply(m)), min(rank(m), k)
        if achieved != required:
            yield index, achieved, required


def supp_dot(doc):
    """dot(x, y) = det(L Diag(x - y) R^T) of a JSON support-rep document,
    from its raw factor entries, memoized per difference x - y."""
    left, right = matrix(doc["compressor"]["left"]), matrix(doc["compressor"]["right"])

    @cache
    def of_difference(z):
        # L Diag(z) R^T entry by entry: sum over p of L[i][p] z[p] R[j][p]
        scaled = [[lv * v for lv, v in zip(lr, z)] for lr in left]
        return det([[dot(sr, rr) for rr in right] for sr in scaled])

    return lambda x, y: of_difference(tuple(a - b for a, b in zip(x, y)))


def supp_failures(doc, pairs):
    """The word pairs (x, y) where a JSON support-rep document's dot is
    nonzero other than exactly when dist(x, y) >= k, as the product's
    records."""
    value, k = supp_dot(doc), doc["k"]
    for x, y in pairs:
        s, far = value(x, y), dist(x, y) >= k
        if (s != 0) != far:
            yield {"x": list(x), "y": list(y), "dot": str(s), "expected_nonzero": far}


def sign_value(node):
    """value(x, y) of a JSON sign tree, node by node: a const is its sign,
    a combine value(rep1) + gamma s^2 value(rep0), s its oracle's
    ``supp_dot``."""
    if node["type"] == "const":
        sign = int(node["sign"])
        return lambda x, y: sign
    s, gamma = supp_dot(node["oracle"]), int(node["gamma"])
    rep0, rep1 = sign_value(node["rep0"]), sign_value(node["rep1"])
    return lambda x, y: rep1(x, y) + gamma * s(x, y) ** 2 * rep0(x, y)


def sign_failures(doc, pairs):
    """The word pairs (x, y) where the sign of a JSON sign document's value
    is not +1 exactly when dist(x, y) == its meta k."""
    value, k = sign_value(doc["tree"]), doc["meta"]["k"]
    for x, y in pairs:
        v = value(x, y)
        if (v > 0) - (v < 0) != (1 if dist(x, y) == k else -1):
            yield x, y


@cache
def _difference_rank(a, b):
    return rank([[p - q for p, q in zip(ra, rb)] for ra, rb in zip(a, b)])


def table_rank(doc):
    """rank(A(x) - A(y)) on a JSON rank-problem document's A table,
    memoized per unordered pair of matrices, as rank(-M) = rank(M)."""
    table = [tuple(map(tuple, matrix(m))) for m in doc["a"]]
    return lambda x, y: _difference_rank(*sorted((table[x], table[y])))


def problem_value(doc):
    """value(x, y) = g[min(rank(A(x) - A(y)), order)] of a JSON
    rank-problem document, order = len(g) - 1."""
    ranked, g = table_rank(doc), doc["g"]
    return lambda x, y: g[min(ranked(x, y), len(g) - 1)]


def rank_failures(doc, pairs, truth):
    """The index pairs (x, y) where a JSON rank-problem document's value is
    not truth(x, y)."""
    value = problem_value(doc)
    for x, y in pairs:
        if value(x, y) != truth(x, y):
            yield x, y


def spec_semantics(doc):
    """truth(x, y) of a JSON composition spec over its combined indices,
    by the definition of distance-r composition.  Each index decodes
    mixed-radix, the last inner fastest; Delta is the set of coordinates
    where the two decoded tuples differ; truth is 0 when |Delta| > r, else
    h at the sum over Delta of each inner's ``problem_value``.  Inners must
    be inline problems."""
    values = [problem_value(entry["problem"]) for entry in doc["inners"]]
    sizes = [len(entry["problem"]["a"]) for entry in doc["inners"]]
    r, h = doc["r"], doc["h"]

    def decode(index):
        digits = []
        for size in reversed(sizes):
            index, digit = divmod(index, size)
            digits.append(digit)
        return digits[::-1]

    def truth(x, y):
        pairs = enumerate(zip(decode(x), decode(y)))
        delta = [(c, a, b) for c, (a, b) in pairs if a != b]
        if len(delta) > r:
            return 0
        return h[sum(values[c](a, b) for c, a, b in delta)]

    return truth
