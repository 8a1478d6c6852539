"""The test reference on its own: it imports the standard library only, its
modular determinant and rank equal the slow definitions, its edge cases
hold, and ``hamrank.exact`` agrees with it."""

import ast
import itertools
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from hamrank.exact import Mat, det_exact, rank_exact

from . import reference


def test_the_reference_imports_the_standard_library_only():
    """Every import in ``tests/reference.py`` names a top-level standard
    library module: no hamrank, no relative import, no conftest."""
    imported = []
    for node in ast.walk(ast.parse(Path(reference.__file__).read_text())):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    assert "itertools" in imported
    stdlib = sys.stdlib_module_names
    outside = [name for name in imported if name.split(".")[0] not in stdlib]
    assert outside == []


def random_rows(rng, rows, cols, bound):
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


def deficient(rng, rows, cols):
    """A random matrix grown twice by a row that repeats one row or sums
    two, and a column that repeats one column or sums two, each inserted at
    a drawn place: its rank stays below both dimensions."""
    a = random_rows(rng, rows, cols, 3)
    for _ in range(2):
        i, j = rng.randrange(len(a)), rng.randrange(len(a))
        summed = [p + q for p, q in zip(a[i], a[j])]
        extra = summed if rng.random() < 0.5 else list(a[i])
        a.insert(rng.randrange(len(a) + 1), extra)
        width = len(a[0])
        i, j, at = rng.randrange(width), rng.randrange(width), rng.randrange(width + 1)
        summed = rng.random() < 0.5
        for row in a:
            row.insert(at, row[i] + row[j] if summed else row[i])
    return a


class TestDetAndRank:
    @pytest.mark.parametrize("n", range(6))
    def test_det_is_the_cofactor_expansion(self, n):
        rng = random.Random(n)
        for bound in (1, 9, 1 << 70):
            for _ in range(20):
                a = random_rows(rng, n, n, bound)
                assert reference.det(a) == reference.det_cofactor(a)

    def test_rank_is_the_largest_nonzero_minor(self):
        rng = random.Random("deficient")
        for _ in range(60):
            a = deficient(rng, rng.randint(1, 3), rng.randint(1, 3))
            assert reference.rank(a) == reference.brute_rank(a)
            assert reference.rank(a) < min(len(a), len(a[0]))

    def test_a_bound_past_every_prime_eliminates_over_fractions(self):
        rng = random.Random(3)
        a = random_rows(rng, 3, 3, 1 << 3000)
        assert reference._bound(a) > reference.MERSENNE_PRIMES[-1]
        assert reference.det(a) == reference.det_cofactor(a)
        a[2] = [p - q for p, q in zip(a[0], a[1])]
        assert reference.det(a) == 0
        assert reference.rank(a) == reference.brute_rank(a) == 2

    def test_empty_matrices(self):
        assert reference.det([]) == reference.det_cofactor([]) == 1
        assert reference.rank([]) == reference.brute_rank([]) == 0
        assert reference.rank([[], []]) == 0

    def test_non_square_det_is_refused(self):
        with pytest.raises(ValueError, match="square"):
            reference.det([[1, 2]])

    @pytest.mark.parametrize("n", [1, 4, 12, 23])
    def test_hamrank_exact_agrees(self, n):
        """Bareiss against the modular elimination, up to the 23 x 23 blocks
        of the exact-2-of-6 table, past the reach of the definitions."""
        rng = random.Random(f"exact-{n}")
        for _ in range(10):
            a = random_rows(rng, n, n, rng.choice((2, 1 << 40)))
            assert det_exact(Mat.from_rows(a)) == reference.det(a)
            b = deficient(rng, n, n)
            assert rank_exact(Mat.from_rows(b)) == reference.rank(b)


def test_dot_takes_fractions():
    u = (Fraction(1, 3), 2, Fraction(-5, 7))
    v = (3, Fraction(1, 2), 7)
    assert reference.dot(u, v) == 1 + 1 - 5
    with pytest.raises(ValueError, match="lengths"):
        reference.dot(u, v[:2])


def test_a_k0_support_doc_is_far_everywhere():
    """Its dot is the determinant of a 0 x 0 matrix, 1, on every pair, and
    every pair is at distance >= 0."""
    empty = {"rows": 0, "cols": 2, "entries": []}
    doc = {"k": 0, "compressor": {"left": empty, "right": empty}}
    words = list(itertools.product((0, 1), repeat=2))
    pairs = list(itertools.product(words, repeat=2))
    assert {reference.supp_dot(doc)(x, y) for x, y in pairs} == {1}
    assert reference.tally(reference.supp_failures(doc, pairs)) == (0, [])


def test_tally_keeps_the_first_records():
    assert reference.tally(iter(range(40))) == (40, list(range(32)))
