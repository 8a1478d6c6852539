import itertools
import random
from collections import Counter
from dataclasses import replace
from functools import cache
from math import comb, prod
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamrank import compression, exact, rankprob, signcompile
from hamrank.errors import (
    BudgetExceededError,
    InconsistentFingerprintError,
    InputError,
    PatternViolationError,
    RetriesExhaustedError,
    SizeMismatchError,
)
from hamrank.exact import Mat, pattern_blocks
from hamrank.hamming import word_of_index
from hamrank.rankprob import (
    CompositionSpec,
    RankProblem,
    bool_combine,
    compose_semantics,
    distance_r_compose,
    example_cc_hd,
    hd_rank_problem,
    multiset_decode,
    negate,
    problem_from_json,
    problem_to_json,
    spec_from_json,
    spec_to_json,
    strict_cc_hd,
    symmetric_problem,
    to_sign_rep,
)
from hamrank.signcompile import (
    SignForm,
    compile_tree,
    domain_rows,
    eval_sign,
    gamma_values,
    sign_to_json,
    threshold_dim,
    threshold_tree,
)

from . import reference
from .conftest import (
    assert_loaded_ranks_are_dense,
    distinct_differences,
    random_mat,
    random_table_problem,
    reference_fit,
)


def neq_inner() -> RankProblem:
    """Inequality on two symbols as a symmetric order-1 problem."""
    return symmetric_problem(2, lambda x: Mat(1, 1, (x,)), (0, 1), name="neq2")


def brute_words(n):
    return [word_of_index(i, n, (0, 1)) for i in range(2**n)]


def every_path_doc() -> dict:
    """A rank-problem document on six 12 x 13 maps, block diagonal with a
    5 x 5, a 2 x 3, a 3 x 3 and a 2 x 2 block, every block entry nonzero.
    A(0) and A(1) agree on the 5 x 5 block.  On the 3 x 3 block, indices
    0, 1, 2 differ by multiples of one rank-1 matrix, as the even indices
    do on the 2 x 2 block, so those square differences are singular and
    nonzero; the other entries are drawn from 1..3."""
    rng = random.Random(37)

    def drawn(count):
        return [rng.randint(1, 3) for _ in range(count)]

    big = [drawn(25) for _ in range(6)]
    big[1] = big[0]
    wide = [drawn(6) for _ in range(6)]
    base3, ones3 = [2, 1, 1, 1, 3, 1, 1, 1, 4], [1, 2, 1, 2, 4, 2, 1, 2, 1]
    mid = [[b + x * u for b, u in zip(base3, ones3)] if x < 3 else drawn(9)
           for x in range(6)]
    small = [[1 + x, 2 + x, 3 + x, 4 + x] if x % 2 == 0 else drawn(4)
             for x in range(6)]
    layout = [((0, 0), 5, 5, big), ((5, 5), 2, 3, wide), ((7, 8), 3, 3, mid),
              ((10, 11), 2, 2, small)]
    table = []
    for x in range(6):
        entries = [0] * (12 * 13)
        for (r0, c0), rows, cols, values in layout:
            for i, j in itertools.product(range(rows), range(cols)):
                entries[(r0 + i) * 13 + c0 + j] = values[x][i * cols + j]
        table.append(Mat(12, 13, tuple(entries)))
    return problem_to_json(symmetric_problem(6, table.__getitem__, (0, 1, 0)))


# one 2 x 2 block per index, flattened, with all entries nonzero; the odd
# copy differs from it at index 2 only, where the difference from index 0
# has rank 2 instead of 1
REPEATED = [[1, 2, 3, 4], [2, 1, 1, 3], [2, 3, 4, 5], [3, 1, 2, 2]]
ODD = [*REPEATED[:2], [2, 3, 4, 6], REPEATED[3]]


def repeated_block_doc() -> dict:
    """A rank-problem document on four 6 x 6 maps, block diagonal with three
    2 x 2 blocks: two copies of ``REPEATED`` and then one of ``ODD``."""
    table = []
    for x in range(4):
        entries = [0] * 36
        for offset, block in ((0, REPEATED), (2, REPEATED), (4, ODD)):
            for i, j in itertools.product(range(2), repeat=2):
                entries[(offset + i) * 6 + offset + j] = block[x][i * 2 + j]
        table.append(Mat(6, 6, tuple(entries)))
    return problem_to_json(symmetric_problem(4, table.__getitem__, (0, 1, 0, 1, 0)))


def differing_blocks(table, blocks, x, y):
    """The differences A(x) - A(y), as tuples of rows, on the blocks of
    ``table`` (from ``pattern_blocks``) where the two maps differ."""
    diffs = (
        tuple(tuple(table[x].at(i, j) - table[y].at(i, j) for j in cols) for i in rows)
        for rows, cols in blocks
    )
    return [diff for diff in diffs if any(map(any, diff))]


def as_tuples(a):
    """The rows of ``a`` as a tuple of tuples."""
    return tuple(map(tuple, a))


def recorded_bareiss(monkeypatch, record=lambda a: (len(a), len(a[0]))):
    """Patch ``rankprob.bareiss`` to append ``record`` of each input, its
    shape by default, to the returned list; ``record`` runs before the
    elimination consumes the input."""
    calls = []
    bareiss = rankprob.bareiss
    monkeypatch.setattr(
        rankprob, "bareiss", lambda a: calls.append(record(a)) or bareiss(a)
    )
    return calls


@st.composite
def block_tables(draw):
    """A small A table whose nonzeros lie in a row- and column-permuted
    block pattern; an r x 0 block is r zero rows, a 0 x c block c zero
    columns."""
    shapes = draw(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=4
        )
    )
    nrows = sum(r for r, _ in shapes)
    ncols = sum(c for _, c in shapes)
    row_of = draw(st.permutations(range(nrows)))
    col_of = draw(st.permutations(range(ncols)))
    pattern = set()
    r0 = c0 = 0
    for r, c in shapes:
        pattern |= {
            (row_of[r0 + i], col_of[c0 + j]) for i in range(r) for j in range(c)
        }
        r0, c0 = r0 + r, c0 + c
    return [
        Mat(
            nrows,
            ncols,
            tuple(
                draw(st.integers(-2, 2)) if (i, j) in pattern else 0
                for i in range(nrows)
                for j in range(ncols)
            ),
        )
        for _ in range(draw(st.integers(1, 4)))
    ]


class TestEval:
    def test_hd_problem_matches_distance(self):
        p = hd_rank_problem(4, 2, seed=1)
        ws = brute_words(4)
        for x in range(16):
            for y in range(16):
                assert p.eval(x, y) == (1 if reference.dist(ws[x], ws[y]) >= 2 else 0)

    def test_symmetric_diagonal_is_g_of_zero(self):
        p = hd_rank_problem(3, 1, seed=2)
        for x in range(8):
            assert p.eval(x, x) == p.g[0] == 0

    def test_constant_g_constant_eval(self):
        p = symmetric_problem(4, lambda x: Mat(1, 1, (x,)), (1, 1), name="one")
        assert all(p.eval(x, y) == 1 for x in range(4) for y in range(4))

    def test_fast_and_dense_paths_agree(self):
        """Every constructor's row x is its ``rank_fn`` at y = x..N-1, and
        each rank, either way round, is the dense rank of the difference."""
        p = hd_rank_problem(3, 2, seed=3)
        # a 3 x 3 map of rank up to 3, compressed to 2 x 2
        words = brute_words(3)
        wide = symmetric_problem(8, lambda x: Mat.diag(words[x]), (0, 1))
        combined = bool_combine(
            lambda bits: bits[0] ^ bits[1],
            [hd_rank_problem(3, 1, seed=4), hd_rank_problem(3, 2, seed=5)],
            seed=6,
        )
        problems = [
            p,
            wide,
            rankprob._compress_problem(wide, 2, seed=3),
            combined,
            small_composition(7),
            problem_from_json(problem_to_json(small_composition(8))),
        ]
        for q in problems:
            n = q.index_count
            for x in range(n):
                dense = [
                    reference.rank((q.a_map(x) - q.a_map(y)).to_lists())
                    for y in range(x, n)
                ]
                assert q.row(x) == [q.rank_fn(x, y) for y in range(x, n)] == dense
                assert [q.rank_fn(y, x) for y in range(x, n)] == dense
        # a replaced rank_fn is read afresh, not through the old rows
        assert replace(combined, rank_fn=lambda x, y: 9).row(0) == [9] * 8

    def test_g_table_must_be_boolean(self):
        with pytest.raises(ValueError):
            symmetric_problem(2, lambda x: Mat(1, 1, (x,)), (0, 2))


def assert_symmetric(p: RankProblem) -> None:
    """rank_fn and eval agree on (x, y) and (y, x) for every pair."""
    for x, y in itertools.combinations(range(p.index_count), 2):
        assert p.rank_fn(x, y) == p.rank_fn(y, x)
        assert p.eval(x, y) == p.eval(y, x)


def small_composition(seed: int) -> RankProblem:
    spec = CompositionSpec(r=1, h=(0, 1), inners=(neq_inner(),) * 3)
    return distance_r_compose(spec, seed=seed)


class TestSymmetry:
    """The contract the composition check reads each unordered pair once on."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: hd_rank_problem(3, 2, seed=61),
            lambda: hd_rank_problem(2, 1, (0, 1, 2), seed=62),
            lambda: rankprob._compress_problem(random_table_problem(), 2, seed=63),
            lambda: bool_combine(
                lambda bits: bits[0] ^ bits[1],
                [hd_rank_problem(3, 1, seed=64), hd_rank_problem(3, 2, seed=65)],
                seed=66,
            ),
            lambda: small_composition(67),
            lambda: problem_from_json(problem_to_json(small_composition(68))),
        ],
        ids=[
            "hd_rank_problem", "hd_rank_problem-ternary", "_compress_problem",
            "bool_combine", "distance_r_compose", "problem_from_json-composed",
        ],
    )
    def test_constructed_problems_are_symmetric(self, build):
        assert_symmetric(build())

    @settings(max_examples=60, deadline=None)
    @given(block_tables(), st.lists(st.integers(0, 1), min_size=1, max_size=4))
    def test_table_problems_are_symmetric(self, table, g):
        p = symmetric_problem(len(table), table.__getitem__, g)
        assert_symmetric(p)
        assert_symmetric(problem_from_json(problem_to_json(p)))

    @settings(max_examples=40, deadline=None)
    @given(block_tables(), st.data())
    def test_compose_semantics_is_symmetric(self, table, data):
        g = data.draw(st.lists(st.integers(0, 1), min_size=1, max_size=3))
        r = data.draw(st.integers(0, 3))
        h = data.draw(st.lists(st.integers(0, 1), min_size=r + 1, max_size=r + 1))
        inner = symmetric_problem(len(table), table.__getitem__, g)
        spec = CompositionSpec(
            r=r, h=tuple(h), inners=(inner,) * data.draw(st.integers(1, 3))
        )
        tuples = [spec.tuple_of(x) for x in range(spec.index_count)]
        for x, y in itertools.combinations(tuples, 2):
            assert compose_semantics(spec, x, y) == compose_semantics(spec, y, x)


class TestHdRankProblem:
    def test_k1_is_inequality(self):
        p = hd_rank_problem(3, 1, seed=4)
        for x in range(8):
            for y in range(8):
                assert p.eval(x, y) == (0 if x == y else 1)

    def test_k2_n5(self):
        p = hd_rank_problem(5, 2, seed=5)
        ws = brute_words(5)
        for x in range(32):
            for y in range(32):
                assert p.eval(x, y) == (1 if reference.dist(ws[x], ws[y]) >= 2 else 0)

    def test_bad_parameters_raise_input_error(self):
        for n, k, alphabet in [(3, 0, (0, 1)), (3, 4, (0, 1)), (3, 2, (0, 0))]:
            with pytest.raises(InputError):
                hd_rank_problem(n, k, alphabet)

    def test_order_and_shape(self):
        p = hd_rank_problem(6, 2, seed=6)
        assert p.order == 2
        assert p.a_map(0).shape == (2, 2)

    def test_negation(self):
        p = negate(hd_rank_problem(3, 1, seed=7))
        for x in range(8):
            for y in range(8):
                assert p.eval(x, y) == (1 if x == y else 0)

    @pytest.mark.parametrize(
        "n,k,alphabet", [(4, 2, (0, 1)), (3, 2, (-1, 0, 5)), (5, 3, (0, 1))]
    )
    def test_a_map_is_apply_diag_of_each_word(self, monkeypatch, n, k, alphabet):
        fitted = []
        fit = rankprob.fit_compressor
        monkeypatch.setattr(
            rankprob, "fit_compressor", lambda *a: fitted.append(fit(*a)) or fitted[-1]
        )
        p = hd_rank_problem(n, k, alphabet, seed=9)
        (comp,) = fitted
        for i in range(p.index_count):
            assert p.a_map(i) == comp.apply_diag(word_of_index(i, n, alphabet))

    def test_each_index_is_decoded_once(self, monkeypatch):
        decoded = []
        nth_product = rankprob.nth_product
        monkeypatch.setattr(
            rankprob, "nth_product", lambda i, v: decoded.append(i) or nth_product(i, v)
        )
        p = hd_rank_problem(3, 2, seed=8)
        for x in range(8):
            p.a_map(x)
            for y in range(8):
                p.eval(x, y)
        assert sorted(decoded) == list(range(8))


class TestBoolCombine:
    def test_identity_gamma_reproduces_component(self):
        p = hd_rank_problem(3, 1, seed=8)
        combined = bool_combine(lambda bits: bits[0], [p], seed=1)
        for x in range(8):
            for y in range(8):
                assert combined.eval(x, y) == p.eval(x, y)

    def test_and_of_thresholds_is_exact_distance(self):
        lo = hd_rank_problem(4, 1, seed=9)
        hi = negate(hd_rank_problem(4, 2, seed=10))
        combined = bool_combine(lambda bits: bits[0] & bits[1], [lo, hi], seed=2)
        ws = brute_words(4)
        for x in range(16):
            for y in range(16):
                want = 1 if reference.dist(ws[x], ws[y]) == 1 else 0
                assert combined.eval(x, y) == want

    def test_three_random_components_joint_truth_table(self):
        rng = random.Random(33)
        comps = []
        for i in range(3):
            order = rng.randint(1, 2)
            mats = [random_mat(rng, order, order, bound=3) for _ in range(8)]
            g = tuple(rng.randint(0, 1) for _ in range(order + 1))
            comps.append(
                symmetric_problem(8, lambda x, mats=mats: mats[x], g)
            )
        table = [rng.randint(0, 1) for _ in range(8)]
        gamma = lambda bits: table[bits[0] | bits[1] << 1 | bits[2] << 2]
        combined = bool_combine(gamma, comps, seed=3)
        assert combined.order == prod(p.order + 1 for p in comps) - 1
        for x in range(8):
            for y in range(8):
                want = gamma(tuple(p.eval(x, y) for p in comps))
                assert combined.eval(x, y) == want

    def test_rank_identity_on_assembled_matrices(self):
        lo = hd_rank_problem(3, 1, seed=11)
        hi = hd_rank_problem(3, 2, seed=12)
        combined = bool_combine(lambda bits: bits[0] ^ bits[1], [lo, hi], seed=4)
        weights = combined.meta["weights"]
        for x in range(8):
            for y in range(8):
                dense = reference.rank(
                    (combined.a_map(x) - combined.a_map(y)).to_lists()
                )
                split = weights[0] * lo.rank_fn(x, y) + weights[1] * hi.rank_fn(x, y)
                assert dense == split == combined.rank_fn(x, y)

    def test_normalization_of_oversized_maps(self):
        # order-1 problem carried by 3x3 matrices: maps must shrink to 1x1
        rng = random.Random(44)
        mats = [random_mat(rng, 3, 3, bound=2) for _ in range(4)]
        p = symmetric_problem(4, lambda x: mats[x], (0, 1))
        combined = bool_combine(lambda bits: bits[0], [p], seed=5)
        assert combined.a_map(0).shape == (1, 1)
        for x in range(4):
            for y in range(4):
                assert combined.eval(x, y) == p.eval(x, y)

    def test_order_zero_problem_gets_empty_maps(self):
        # an order-0 problem decides nothing by rank: its 1x1 maps become 0x0
        const = symmetric_problem(4, lambda x: Mat(1, 1, (x,)), (1,), name="one")
        neq = hd_rank_problem(2, 1, seed=6)
        combined = bool_combine(lambda bits: bits[0] & bits[1], [const, neq], seed=6)
        assert combined.order == 1 and combined.meta["weights"] == [1, 1]
        assert combined.a_map(0).shape == neq.a_map(0).shape == (1, 1)
        for x in range(4):
            for y in range(4):
                assert combined.rank_fn(x, y) == neq.rank_fn(x, y)
                assert combined.eval(x, y) == (0 if x == y else 1)

    def test_different_index_counts_rejected(self):
        four, eight = hd_rank_problem(2, 1, seed=7), hd_rank_problem(3, 1, seed=7)
        with pytest.raises(InputError, match="different index counts"):
            bool_combine(lambda bits: bits[0] | bits[1], [four, eight])


def workload_spec(name: str, seed: int) -> CompositionSpec:
    """The compose workload's cc-hd or exact-2-of-6 spec at ``seed``, through
    its JSON form, so the inners are loaded problems as the CLI's are."""
    if name == "cc-hd":
        spec = example_cc_hd(1, 2, 2, 3, seed=seed)
    else:
        inequality = hd_rank_problem(1, 1, seed=seed)
        spec = CompositionSpec(r=2, h=(0, 0, 1), inners=(inequality,) * 6)
    return spec_from_json(spec_to_json(spec))


def reference_maps(mats, size, seed):
    """The compressed maps by definition: zero padding when the maps fit
    in size x size, else the draw that a member-by-member check of the
    distinct differences keeps, applied to each map."""
    a, b = mats[0].shape
    if size >= max(a, b):
        cells = [(i, j) for i in range(size) for j in range(size)]
        return [
            Mat(size, size, tuple(m.at(i, j) if i < a and j < b else 0 for i, j in cells))
            for m in mats
        ]
    left, right, _, _ = reference_fit(distinct_differences(mats), size, seed)
    compress = reference.compressor({"left": left.to_json(), "right": right.to_json()})
    return [Mat.from_rows(compress(m.to_lists())) for m in mats]


SMALL = ([[1, 0], [0, 1]], [[2, 1], [1, 0]], [[0, 0], [1, 1]])
EDGE_TABLES = {
    # (maps, target size, distinct differences): equal maps leave only the
    # zero difference
    "one-index": ([Mat.from_rows([[1, 2, 0], [0, 1, 3], [2, 0, 1]])], 2, 1),
    "all-equal": ([Mat.from_rows([[1, -1, 2], [0, 2, 1], [3, 1, 0]])] * 5, 1, 1),
    "all-zero": ([Mat.zeros(3, 3)] * 5, 2, 1),
    "smaller-than-target": ([Mat.from_rows(rows) for rows in SMALL], 3, 4),
}


class TestCompressProblem:
    @pytest.mark.parametrize("name", EDGE_TABLES)
    def test_edge_tables_keep_the_per_member_maps(self, name):
        mats, size, members = EDGE_TABLES[name]
        p = symmetric_problem(len(mats), mats.__getitem__, (0, 1), name=name)
        q = rankprob._compress_problem(p, size, seed=9)
        compressed = [q.a_map(x) for x in range(len(mats))]
        assert compressed == reference_maps(mats, size, seed=9)
        assert all(m.shape == (size, size) for m in compressed)
        for x, y in itertools.product(range(len(mats)), repeat=2):
            dense = reference.rank((compressed[x] - compressed[y]).to_lists())
            assert q.rank_fn(x, y) == min(p.rank_fn(x, y), size) == dense
        assert p.differences.size == members

    def test_compose_ranks_each_family_once_for_all_its_fits(self, monkeypatch):
        """Every difference family a composition fits takes its member
        ranks from its problem's ``rank_fn``, asked once per member at the
        member's first pair however many fits share the family; no
        uncompressed member is built."""
        spec = example_cc_hd(1, 2, 2, 3, seed=31)
        made, fits, members = [], [], []
        differences = compression.MatFamily.differences.__func__

        def record_ranks(cls, bases, rank=None):
            asked = []
            family = differences(
                cls, bases, lambda x, y: asked.append((x, y)) or rank(x, y)
            )
            made.append((family, asked))
            return family

        monkeypatch.setattr(
            compression.MatFamily, "differences", classmethod(record_ranks)
        )
        member = compression.MatFamily.member
        monkeypatch.setattr(
            compression.MatFamily,
            "member",
            lambda family, i: members.append(i) or member(family, i),
        )
        fit = rankprob.fit_compressor

        def record_fit(family, size, seed):
            if not family.is_diagonal:
                fits.append((family, size))
            return fit(family, size, seed)

        monkeypatch.setattr(rankprob, "fit_compressor", record_fit)
        distance_r_compose(spec, seed=32)
        assert members == []
        assert all(asked == list(f.pairs) for f, asked in made if asked)
        ranked = [f for f, asked in made if asked]
        sizes = {id(f): [s for g, s in fits if g is f] for f in ranked}
        assert {id(f) for f, _ in fits} == sizes.keys()
        # the inner at cap 1 (one family for the three coordinates), each
        # capped sum's block assembly, and each capped sum at its thresholds
        assert sorted(sizes.values()) == [[1], [1, 1, 1], [1, 2, 3], [2], [4]]

    @pytest.mark.parametrize("seed", [7, 11])
    @pytest.mark.parametrize("name", ["cc-hd", "exact-2-of-6"])
    def test_compose_member_ranks_are_the_dense_ranks(self, monkeypatch, name, seed):
        """Every difference family a workload composition fits ranks its
        members by its problem's ``rank_fn``, and each rank is the
        reference's rank of the member built by definition."""
        fitted = {}
        fit = rankprob.fit_compressor

        def record_fit(family, size, seed):
            if not family.is_diagonal:
                fitted[id(family)] = family
            return fit(family, size, seed)

        monkeypatch.setattr(rankprob, "fit_compressor", record_fit)
        distance_r_compose(workload_spec(name, seed), seed=seed)
        assert len(fitted) == {"cc-hd": 7, "exact-2-of-6": 2}[name]
        for family in fitted.values():
            members = distinct_differences(family.bases)
            assert family.rank is not None
            assert family.member_ranks == tuple(
                reference.rank(m.to_lists()) for m in members
            )

    def test_an_overstated_rank_fails_every_draw(self):
        """The fit checks each compressed member against ``rank_fn``: a
        ``rank_fn`` that states rank 2 for a rank-1 difference, below the
        target size 2, leaves no draw that passes."""
        rng = random.Random(61)
        mats = [random_mat(rng, 3, 3, bound=3) for _ in range(5)]
        mats.append(mats[0] + Mat.from_rows([[1, 2, 0], [2, 4, 0], [3, 6, 0]]))
        p = symmetric_problem(6, mats.__getitem__, (0, 1, 0))
        assert p.rank_fn(0, 5) == 1
        assert rankprob._compress_problem(p, 2, seed=62).a_map(5).shape == (2, 2)
        overstated = replace(
            p, rank_fn=lambda x, y: 2 if {x, y} == {0, 5} else p.rank_fn(x, y)
        )
        with pytest.raises(RetriesExhaustedError) as info:
            rankprob._compress_problem(overstated, 2, seed=62)
        index = overstated.differences.pairs.index((0, 5))
        assert info.value.member["index"] == index
        assert (info.value.achieved, info.value.required) == (1, 2)

    def test_workload_cc_hd_eliminates_compressed_members_only(self, monkeypatch):
        """The compose workload's seed-7 cc-hd build eliminates 2,226
        matrices: 2,205 compressed k x k members, k <= 4, in the fits'
        checks, 15 in the gate's diagonal walk and 6 block differences of
        the loaded inners.  It applies a compressor 396 times: each base of
        a fitted family once per draw, and no base again for the maps."""
        spec = workload_spec("cc-hd", 7)
        shapes = Counter()
        bareiss = exact.bareiss
        for module in (exact, compression, rankprob):
            name = module.__name__

            def counted(a, name=name):
                shapes[name, len(a), len(a[0]) if a else 0] += 1
                return bareiss(a)

            monkeypatch.setattr(module, "bareiss", counted)
        applied, fits = [], []
        apply = compression.Compressor.apply
        monkeypatch.setattr(
            compression.Compressor,
            "apply",
            lambda comp, m: applied.append(m) or apply(comp, m),
        )
        fit = rankprob.fit_compressor

        def record_fit(family, size, seed):
            comp = fit(family, size, seed)
            fits.append((family, comp))
            return comp

        monkeypatch.setattr(rankprob, "fit_compressor", record_fit)
        distance_r_compose(spec, seed=7)
        by_module = Counter()
        for (name, _, _), count in shapes.items():
            by_module[name] += count
        assert by_module == {
            "hamrank.compression": 2205, "hamrank.exact": 15, "hamrank.rankprob": 6
        }
        checked = {
            (rows, cols): count
            for (name, rows, cols), count in shapes.items()
            if name == "hamrank.compression"
        }
        assert checked == {(1, 1): 745, (2, 2): 730, (3, 3): 365, (4, 4): 365}
        draws = sum(
            len(f.bases) * (comp.retries + 1) for f, comp in fits if not f.is_diagonal
        )
        assert len(applied) == draws == 396

    def test_workload_cc_hd_computes_each_row_once(self, monkeypatch):
        """The compose workload's seed-7 cc-hd build, and evaluating its
        2,080 pairs x <= y, compute each problem's row x once: the rows of
        12 tabulated problems (the 3 capped inners at cap 1, per cap the
        block assembly, its capped sum and the thresholds below it, and the
        combination), each read by the next from its parent's row, and the
        rows the gate and the loaded inners give pair by pair."""
        tabulated, computed = rankprob._tabulated, []

        def counting(row):
            rows = Counter()
            computed.append(rows)
            return tabulated(lambda x: rows.update((x,)) or row(x))

        handed = {}  # (problem, x) -> every row object RankProblem.row returned
        row = RankProblem.row

        def recorded(p, x):
            handed.setdefault((id(p), x), [p]).append(row(p, x))
            return handed[id(p), x][-1]

        monkeypatch.setattr(rankprob, "_tabulated", counting)
        monkeypatch.setattr(RankProblem, "row", recorded)
        p = distance_r_compose(workload_spec("cc-hd", 7), seed=7)
        for x, y in itertools.combinations_with_replacement(range(64), 2):
            p.eval(x, y)
        assert [max(rows.values()) for rows in computed] == [1] * 12
        assert [rows.total() for rows in computed] == [4] * 3 + [64] * 9
        assert all(all(r is rows[1] for r in rows[2:]) for rows in handed.values())
        # the gate's and the loaded inners' rows, asked pair by pair once
        pairwise = [r for r in handed.values() if not hasattr(r[0].rank_fn, "row")]
        assert [len(rows) for rows in pairwise] == [2] * (64 + 3 * 4)
        # every row of the 3 loaded inners, read by their cap-1 resizes, and
        # of 11 problems on the 64 indices (the gate, and per cap the block
        # assembly, its capped sum and its 2 or 4 thresholds)
        read = Counter(rows[0].index_count for rows in handed.values())
        assert read == {4: 3 * 4, 64: 11 * 64}


def tree_dim(tree) -> int:
    """The compiled dimension of a threshold tree by the combine recursion
    dim(below) + d^2 * dim(answer-1 sign), down the chain of its terms."""
    dim = 1
    for term in tree.terms:
        dim += term.oracle.dim**2 * 1
    return dim


def best_threshold_dim(g, lo, hi) -> int:
    """The least compiled dimension of any tree of rank >= t queries that
    decides g on the rank interval [lo, hi], oracle dims C(2t, t)."""
    if len(set(g[lo : hi + 1])) == 1:
        return 1
    return min(
        best_threshold_dim(g, lo, t - 1)
        + comb(2 * t, t) ** 2 * best_threshold_dim(g, t, hi)
        for t in range(lo + 1, hi + 1)
    )


class TestThresholdTree:
    """The change-point tree that ``to_sign_rep`` compiles."""

    @pytest.mark.parametrize("order", range(6))
    def test_every_table_gets_the_least_dimension(self, order):
        for g in itertools.product((0, 1), repeat=order + 1):
            built = []

            def oracle(t):
                built.append(t)
                return SimpleNamespace(dim=comb(2 * t, t))

            tree = threshold_tree(g, oracle)
            changes = [t for t in range(1, order + 1) if g[t] != g[t - 1]]
            assert built == changes
            want = 1 + sum(comb(2 * t, t) ** 2 for t in changes)
            assert tree_dim(tree) == best_threshold_dim(g, 0, order) == want
            assert tree.dim == threshold_dim(g) == want
            assert tree.const == 2 * g[0] - 1
            assert [term.sign for term in tree.terms] == [2 * g[t] - 1 for t in changes]
            assert gamma_values(tree) == [None] * len(changes)

    def test_order_one_single_piece_depth_one(self):
        p = hd_rank_problem(3, 1, seed=13)
        rep = to_sign_rep(p, seed=14)
        # one rank >= 1 piece of dimension C(2, 1), with sign leaves below it
        (root,) = rep.terms
        assert root.oracle.dim == 2
        assert root.sign == 1 and rep.const == -1

    def test_arbitrary_table_asks_every_change_point(self):
        p = random_table_problem()
        rep = to_sign_rep(p, seed=56)
        # g = (1, 0, 1, 0): the root asks rank >= 3, then rank >= 2, then
        # rank >= 1, each answer 1 settling to the sign of g there
        last, middle, root = rep.terms
        assert root.oracle.dim == 20 and root.sign == -1
        assert middle.oracle.dim == 6 and middle.sign == 1
        assert last.oracle.dim == 2
        assert last.sign == -1 and rep.const == 1
        assert rep.dim == 441 == 1 + 2**2 + 6**2 + 20**2
        for x in range(8):
            for y in range(8):
                assert (eval_sign(rep, x, y) == 1) == (p.eval(x, y) == 1)

    def test_constant_g_collapses_to_leaf(self):
        p = symmetric_problem(3, lambda x: Mat(1, 1, (x,)), (0, 0))
        assert to_sign_rep(p, seed=14) == SignForm(-1, ())

    def test_piece_support_rep_matches_threshold(self):
        from hamrank.rankprob import piece_support_rep

        p = hd_rank_problem(4, 2, seed=45)
        for s in (1, 2):
            rep = piece_support_rep(p, s, seed=46 + s)
            assert rep.dim == comb(2 * s, s)
            for x in range(16):
                for y in range(16):
                    assert rep.query(x, y) == (p.rank_fn(x, y) >= s)


class TestToSignRep:
    def test_inequality_sign_pattern(self):
        p = hd_rank_problem(6, 1, seed=15)
        rep = to_sign_rep(p, seed=16)
        for x in range(0, 64, 3):
            for y in range(0, 64, 5):
                assert (eval_sign(rep, x, y) == 1) == (x != y)

    def test_order_two_dims_follow_recursion(self):
        p = hd_rank_problem(4, 2, seed=17)
        rep = to_sign_rep(p, seed=18)
        # g = (0, 0, 1) changes only at 2: one rank >= 2 query over two leaves
        (root,) = rep.terms
        assert root.oracle.dim == 6
        assert root.sign == 1 and rep.const == -1
        assert rep.dim == 37 == SignForm(rep.const).dim + root.oracle.dim**2 * 1
        ws = brute_words(4)
        for x in range(16):
            for y in range(16):
                want = reference.dist(ws[x], ws[y]) >= 2
                assert (eval_sign(rep, x, y) == 1) == want

    @pytest.mark.parametrize("k,dim", [(1, 41), (2, 437)])
    def test_exact_distance_gets_the_build_sign_dim(self, k, dim):
        p = replace(hd_rank_problem(5, k + 1, seed=3), g=(0,) * k + (1, 0))
        rep = to_sign_rep(p, seed=4)
        assert rep.dim == dim == 1 + comb(2 * k, k) ** 2 + comb(2 * k + 2, k + 1) ** 2
        ws = brute_words(5)
        for x in range(32):
            for y in range(32):
                want = reference.dist(ws[x], ws[y]) == k
                assert (eval_sign(rep, x, y) == 1) == want

    def test_refuses_over_budget_before_building(self, monkeypatch):
        def no_build(*args, **kwargs):
            raise AssertionError("a piece was built")

        monkeypatch.setattr(rankprob, "piece_support_rep", no_build)
        with pytest.raises(BudgetExceededError, match="^65536 pairs exceed"):
            to_sign_rep(hd_rank_problem(8, 1))

    def test_refuses_a_tree_over_the_sign_budget_before_any_fit(self, monkeypatch):
        # g changes only at 7: a tree of dimension 1 + C(14, 7)^2 over two
        # random 7 x 7 maps, whose proof would walk 5,129,307 rook points
        def refused(*args, **kwargs):
            raise AssertionError("fitted or proved past the budget")

        monkeypatch.setattr(rankprob, "fit_compressor", refused)
        monkeypatch.setattr(signcompile, "prove_det_sum", refused)
        rng = random.Random(68)
        mats = [random_mat(rng, 7, 7) for _ in range(2)]
        p = symmetric_problem(2, lambda x: mats[x], (0,) * 7 + (1,))
        message = "^sign dimension 11778625 exceeds the budget 1048576$"
        with pytest.raises(BudgetExceededError, match=message):
            to_sign_rep(p)

    def test_constant_problem_compiles_to_constant(self):
        p = symmetric_problem(4, lambda x: Mat(1, 1, (x,)), (1, 1))
        rep = to_sign_rep(p, seed=19)
        assert rep.terms == () and rep.const == 1

    def test_checks_against_the_problem_not_its_oracles(self, monkeypatch):
        # each piece answers one threshold too high, so the compiled sign
        # follows its oracles and disagrees with the problem
        build = rankprob.piece_support_rep
        monkeypatch.setattr(
            rankprob,
            "piece_support_rep",
            lambda p, threshold, seed: build(p, threshold + 1, seed),
        )
        with pytest.raises(PatternViolationError):
            to_sign_rep(hd_rank_problem(3, 1, seed=1), seed=2)


def identity_problem(count, g):
    return symmetric_problem(count, lambda x: Mat(1, 1, (x,)), g)


# every problem that the tests here and in test_report_bytes.py compile
SIGN_PROBLEMS = {
    "hd-3-1": (lambda: hd_rank_problem(3, 1, seed=13), 14),
    "hd-3-1-s1": (lambda: hd_rank_problem(3, 1, seed=1), 2),
    "hd-6-1": (lambda: hd_rank_problem(6, 1, seed=15), 16),
    "hd-4-2": (lambda: hd_rank_problem(4, 2, seed=17), 18),
    "exact-1": (lambda: replace(hd_rank_problem(5, 2, seed=3), g=(0, 1, 0)), 4),
    "exact-2": (lambda: replace(hd_rank_problem(5, 3, seed=3), g=(0, 0, 1, 0)), 4),
    "table-55": (random_table_problem, 56),
    "const-0": (lambda: identity_problem(3, (0, 0)), 14),
    "const-1": (lambda: identity_problem(4, (1, 1)), 19),
}


def spy_compiles(monkeypatch):
    """Record each ``to_sign_rep`` compile's tree and the pairs its truth
    is asked about, in order."""
    calls = []
    real = rankprob.compile_tree

    def spy(tree, rows, truth):
        asked = []
        calls.append(SimpleNamespace(tree=tree, asked=asked))
        return real(tree, rows, lambda x, y: asked.append((x, y)) or truth(x, y))

    monkeypatch.setattr(rankprob, "compile_tree", spy)
    return calls


class TestMemberCompile:
    """``to_sign_rep`` compiles on one pair per distinct member of the
    problem's difference family; a compile over every index pair, against
    ``p.eval``, must agree with it."""

    @pytest.mark.parametrize("name", sorted(SIGN_PROBLEMS))
    def test_members_give_the_pair_path_rep(self, monkeypatch, name):
        build, seed = SIGN_PROBLEMS[name]
        p = build()
        calls = spy_compiles(monkeypatch)
        rep = to_sign_rep(p, seed=seed)
        (call,) = calls
        by_pairs = compile_tree(call.tree, domain_rows(range(p.index_count)), p.eval)
        assert by_pairs.dim == rep.dim
        assert gamma_values(by_pairs) == gamma_values(rep)

    @pytest.mark.parametrize(
        "name", sorted(n for n in SIGN_PROBLEMS if not n.startswith("const"))
    )
    def test_members_and_pairs_both_catch_pieces_one_threshold_too_high(
        self, monkeypatch, name
    ):
        build, seed = SIGN_PROBLEMS[name]
        p = build()
        piece = rankprob.piece_support_rep
        monkeypatch.setattr(
            rankprob,
            "piece_support_rep",
            lambda p, threshold, seed: piece(p, threshold + 1, seed),
        )
        calls = spy_compiles(monkeypatch)
        with pytest.raises(PatternViolationError, match="compiled sign disagrees"):
            to_sign_rep(p, seed=seed)
        (call,) = calls
        rows = domain_rows(range(p.index_count))
        with pytest.raises(PatternViolationError, match="compiled sign disagrees"):
            compile_tree(call.tree, rows, p.eval)

    def test_each_member_is_checked_once_in_family_order(self, monkeypatch):
        p = replace(hd_rank_problem(7, 2, seed=3), g=(0, 1, 0))
        calls = spy_compiles(monkeypatch)
        to_sign_rep(p)
        (call,) = calls
        assert call.asked == list(p.differences.pairs)
        assert len(call.asked) == p.differences.size == 1094

    def test_pieces_leave_their_memos_empty(self):
        p = replace(hd_rank_problem(7, 2, seed=3), g=(0, 1, 0))
        memos = [
            (piece.u.cache_info().currsize, piece.v.cache_info().currsize)
            for piece in (term.oracle for term in to_sign_rep(p).terms)
        ]
        assert memos == [(0, 0)] * 2

    def test_each_row_is_dotted_from_its_first_member(self, monkeypatch):
        # of the 64 x 128 = 8,192 columns of the rows that hold a member
        p = replace(hd_rank_problem(7, 2, seed=3), g=(0, 1, 0))
        real, widths = rankprob.compile_tree, {}

        def counting(tree, rows, truth):
            def dots(oracle):
                row = rows.dots(oracle)

                def counted(i, lo=0):
                    got = row(i, lo)
                    widths.setdefault(oracle, set()).add((i, len(got)))
                    return got

                return counted

            return real(tree, replace(rows, dots=cache(dots)), truth)

        monkeypatch.setattr(rankprob, "compile_tree", counting)
        to_sign_rep(p)
        assert [sum(w for _, w in seen) for seen in widths.values()] == [5462] * 2

    def test_the_det_sum_gate_runs_before_any_scan(self, flipped_det_sum_sign):
        with pytest.raises(PatternViolationError, match="^det-sum identity fails"):
            to_sign_rep(hd_rank_problem(3, 1, seed=1), seed=2)


class TestCompositionSemantics:
    def test_equal_tuples_hit_h_zero(self):
        spec = example_cc_hd(1, 2, 2, 3, seed=20)
        assert compose_semantics(spec, (0, 1, 2), (0, 1, 2)) == spec.h[0] == 1

    def test_over_distance_clause(self):
        spec = example_cc_hd(1, 2, 2, 3, seed=21)
        assert compose_semantics(spec, (0, 0, 0), (1, 1, 1)) == 0

    def test_toy_hand_enumeration(self):
        spec = example_cc_hd(1, 2, 2, 3, seed=22)
        words2 = brute_words(2)
        for x in itertools.product(range(4), repeat=3):
            for y in itertools.product(range(4), repeat=3):
                delta = [i for i in range(3) if x[i] != y[i]]
                if len(delta) > 2:
                    want = 0
                else:
                    total = sum(
                        1
                        for i in delta
                        if reference.dist(words2[x[i]], words2[y[i]]) <= 1
                    )
                    want = spec.h[total]
                assert compose_semantics(spec, x, y) == want

    def test_tuple_length_checked(self):
        spec = example_cc_hd(1, 1, 2, 2, seed=23)
        with pytest.raises(SizeMismatchError):
            compose_semantics(spec, (0,), (0, 0))


class TestMultisetDecode:
    def test_all_zero_sums(self):
        assert multiset_decode({1: 0, 2: 0}, 4) == ()

    def test_worked_example(self):
        assert multiset_decode({1: 3, 2: 5}, 3) == (1, 2, 2)

    def test_brute_force_inversion_elements_le2(self):
        for multiset in itertools.combinations_with_replacement((0, 1, 2), 3):
            sums = {t: sum(min(u, t) for u in multiset) for t in (1, 2)}
            decoded = multiset_decode(sums, 3)
            assert decoded == tuple(sorted(u for u in multiset if u > 0))

    def test_exhaustive_injectivity_and_round_trip(self):
        # all multisets with elements in {0..3}, size <= 4: distinct nonzero
        # parts give distinct fingerprints, and every fingerprint decodes back
        seen = {}
        for size in range(5):
            for multiset in itertools.combinations_with_replacement(range(4), size):
                fp = tuple(sum(min(u, t) for u in multiset) for t in (1, 2, 3))
                nonzero = tuple(sorted(u for u in multiset if u > 0))
                if fp in seen:
                    assert seen[fp] == nonzero
                else:
                    seen[fp] = nonzero
                assert multiset_decode(dict(zip((1, 2, 3), fp)), 4) == nonzero

    def test_inconsistent_rejected(self):
        with pytest.raises(InconsistentFingerprintError):
            multiset_decode({1: 0, 2: 5}, 4)
        with pytest.raises(InconsistentFingerprintError):
            multiset_decode({1: 3, 2: 2}, 4)
        with pytest.raises(InconsistentFingerprintError):
            multiset_decode({1: 5, 2: 5}, 2)

    @settings(max_examples=300, deadline=None)
    @given(
        st.dictionaries(st.integers(0, 4), st.integers(-3, 12), max_size=4),
        st.integers(0, 5),
    )
    def test_any_fingerprint_decodes_exactly_or_is_refused(self, capped_sums, bound):
        try:
            decoded = multiset_decode(capped_sums, bound)
        except InconsistentFingerprintError:
            return
        assert len(decoded) <= bound and all(u > 0 for u in decoded)
        assert {t: sum(min(u, t) for u in decoded) for t in capped_sums} == capped_sums

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=5), max_size=6))
    def test_round_trip_property(self, elements):
        fp = {t: sum(min(u, t) for u in elements) for t in range(1, 6)}
        decoded = multiset_decode(fp, size_bound=len(elements))
        assert decoded == tuple(sorted(u for u in elements if u > 0))


class TestDistanceRCompose:
    def test_single_inner_identity_h(self):
        spec = CompositionSpec(r=1, h=(0, 1), inners=(neq_inner(),))
        prob = distance_r_compose(spec, seed=24)
        inner = spec.inners[0]
        truth = reference.spec_semantics(spec_to_json(spec))
        for x in range(2):
            for y in range(2):
                want = 0 if x == y else inner.eval(x, y)
                assert prob.eval(x, y) == want
                assert prob.eval(x, y) == truth(x, y)

    def test_hd_as_composition(self):
        spec = CompositionSpec(r=2, h=(0, 0, 1), inners=(neq_inner(),) * 4)
        prob = distance_r_compose(spec, seed=25)
        truth = reference.spec_semantics(spec_to_json(spec))
        for x in range(16):
            tx = spec.tuple_of(x)
            for y in range(16):
                ty = spec.tuple_of(y)
                want = 1 if reference.dist(tx, ty) == 2 else 0
                assert prob.eval(x, y) == want == truth(x, y)

    def test_mismatched_inner_tables_rejected(self):
        a = neq_inner()
        b = negate(neq_inner())
        spec = CompositionSpec(r=1, h=(1, 0), inners=(a, b))
        with pytest.raises(ValueError):
            distance_r_compose(spec, seed=26)

    def test_distance_zero_is_equality_gate(self):
        spec = CompositionSpec(r=0, h=(1,), inners=(neq_inner(),) * 2)
        prob = distance_r_compose(spec, seed=29)
        truth = reference.spec_semantics(spec_to_json(spec))
        for x in range(4):
            for y in range(4):
                assert prob.eval(x, y) == truth(x, y) == (1 if x == y else 0)

    def test_pair_budget(self, monkeypatch):
        monkeypatch.setattr(rankprob, "COMPOSE_PAIR_BUDGET", 4)
        spec = CompositionSpec(r=1, h=(0, 1), inners=(neq_inner(),) * 3)
        with pytest.raises(BudgetExceededError):
            distance_r_compose(spec, seed=27)

    @pytest.mark.parametrize(
        "r,message",
        [
            (4, "^combined order 174182399 exceeds the tabulation budget$"),
            (8, "^25 components need a 2\\^25 truth table$"),
        ],
    )
    def test_over_budget_combination_refused_before_any_fit(
        self, monkeypatch, r, message
    ):
        spec = example_cc_hd(c=1, r=r, n=2, m=3)

        def no_fit(*args, **kwargs):
            raise AssertionError("a compressor was fitted")

        monkeypatch.setattr(rankprob, "_compress_problem", no_fit)
        monkeypatch.setattr(rankprob, "fit_compressor", no_fit)
        with pytest.raises(BudgetExceededError, match=message):
            distance_r_compose(spec, seed=30)

    def test_gate_caps_at_coordinate_count(self):
        # r+1 exceeds the coordinate count: the gate never fires
        spec = CompositionSpec(r=3, h=(1, 0, 0, 0), inners=(neq_inner(),) * 2)
        prob = distance_r_compose(spec, seed=28)
        truth = reference.spec_semantics(spec_to_json(spec))
        for x in range(4):
            for y in range(4):
                assert prob.eval(x, y) == truth(x, y)


class TestCcHdFamily:
    def test_spec_post_shape(self):
        spec = example_cc_hd(1, 2, 2, 3, seed=29)
        assert spec.r == 2
        assert spec.h == (1, 1, 1)
        assert spec.inners[0].order == 2
        assert spec.inners[0].g == (1, 1, 0)  # dist <= 1 on 2-bit words

    def test_strict_form_matches_membership_conditions(self):
        s = strict_cc_hd(4, 2, 5, 3, seed=30)
        base = (0, 0, 0)
        far_word = 2**5 - 1  # all five bits flipped: distance 5 = c+1
        assert compose_semantics(s, base, base) == 1
        assert compose_semantics(s, base, (1, 1, 1)) == 0  # three rows differ
        assert compose_semantics(s, base, (far_word, 0, 0)) == 0
        assert compose_semantics(s, base, (1, 0, 0)) == 1  # one row at dist 1
        assert compose_semantics(s, base, (far_word, 3, 0)) == 0
        assert compose_semantics(s, base, (3, 3, 0)) == 1  # two rows at dist 2

    def test_strict_form_composes_faithfully(self):
        s = strict_cc_hd(1, 1, 2, 2, seed=31)
        prob = distance_r_compose(s, seed=32)
        truth = reference.spec_semantics(spec_to_json(s))
        for x in range(s.index_count):
            for y in range(s.index_count):
                assert prob.eval(x, y) == truth(x, y)


class TestSerialization:
    def test_problem_round_trip(self):
        p = hd_rank_problem(3, 2, seed=33)
        doc = problem_to_json(p)
        back = problem_from_json(doc)
        for x in range(8):
            for y in range(8):
                assert back.eval(x, y) == p.eval(x, y)

    def test_piece_sign_rep_refuses_to_serialize(self):
        # piece reps act on indices through compressed maps, with no
        # word compressor to write down
        rep = to_sign_rep(hd_rank_problem(3, 1, seed=1), seed=2)
        with pytest.raises(ValueError, match="only compressor-backed"):
            sign_to_json(rep)

    @settings(max_examples=80, deadline=None)
    @given(block_tables())
    def test_loaded_block_rank_is_the_dense_rank(self, table):
        doc = problem_to_json(symmetric_problem(len(table), table.__getitem__, (0, 1)))
        loaded = problem_from_json(doc)
        for x, y in itertools.product(range(len(table)), repeat=2):
            dense = reference.rank((table[x] - table[y]).to_lists())
            assert loaded.rank_fn(x, y) == dense

    def test_loaded_block_rank_on_a_composed_table(self):
        spec = CompositionSpec(r=2, h=(0, 0, 1), inners=(neq_inner(),) * 4)
        built = distance_r_compose(spec, seed=25)
        loaded = problem_from_json(problem_to_json(built))
        assert len(pattern_blocks([loaded.a_map(x) for x in range(16)])) > 1
        for x, y in itertools.product(range(16), repeat=2):
            dense = reference.rank((loaded.a_map(x) - loaded.a_map(y)).to_lists())
            assert loaded.rank_fn(x, y) == dense
            # the rank built from the certified identities, not eliminated
            assert built.rank_fn(x, y) == dense

    def test_loaded_rank_takes_every_path(self, monkeypatch):
        """Each block of ``every_path_doc`` adds 0 on the pairs whose two
        cuts are equal and is eliminated on the others, once per distinct
        difference: the 5 x 5 block on pair (0, 1), every block on the
        diagonal, and a difference met again (index 0 to 1 and 1 to 2 on
        the 3 x 3 block) is not eliminated again."""
        doc = every_path_doc()
        table = [Mat.from_json(m) for m in doc["a"]]
        blocks = pattern_blocks(table)
        assert sorted((len(r), len(c)) for r, c in blocks) == [
            (2, 2), (2, 3), (3, 3), (5, 5)
        ]
        eliminated = recorded_bareiss(monkeypatch, record=as_tuples)
        loaded = problem_from_json(doc)
        seen, differing_total = set(), 0
        for x, y in itertools.combinations_with_replacement(range(6), 2):
            before = len(eliminated)
            dense = reference.rank((table[x] - table[y]).to_lists())
            assert loaded.rank_fn(x, y) == dense
            differing = differing_blocks(table, blocks, x, y)
            differing_total += len(differing)
            new = [diff for diff in dict.fromkeys(differing) if diff not in seen]
            seen.update(new)
            assert Counter(eliminated[before:]) == Counter(new), (x, y)
            shapes = {(len(diff), len(diff[0])) for diff in differing}
            assert ((5, 5) in shapes) == (x != y and (x, y) != (0, 1))
        assert loaded.meta["exact_rechecks"] == len(eliminated) == len(seen)
        assert len(seen) < differing_total

    def test_equal_copies_rank_once_and_an_odd_copy_alone(self, monkeypatch):
        """On ``repeated_block_doc`` each pair eliminates the difference of
        the two equal copies once, and that of the odd copy only where it
        is another difference: on the three pairs with index 2."""
        doc = repeated_block_doc()
        assert_loaded_ranks_are_dense(doc)
        eliminated = recorded_bareiss(monkeypatch, record=lambda a: sum(a, []))
        loaded = problem_from_json(doc)
        for x, y in itertools.combinations(range(4), 2):
            before = len(eliminated)
            loaded.rank_fn(x, y)
            copies = {
                tuple(p - q for p, q in zip(block[x], block[y]))
                for block in (REPEATED, ODD)
            }
            assert sorted(map(tuple, eliminated[before:])) == sorted(copies), (x, y)
            assert len(copies) == 1 + (2 in (x, y))
        assert loaded.meta["exact_rechecks"] == len(eliminated) == 6 + 3

    def test_each_block_and_pair_is_eliminated_once(self, monkeypatch):
        """The memos: two full passes of ``rank_fn`` and ``eval`` over every
        ordered pair eliminate each distinct block difference exactly once,
        fewer than the blocks on which the pairs differ."""
        doc = every_path_doc()
        table = [Mat.from_json(m) for m in doc["a"]]
        blocks = pattern_blocks(table)
        eliminated = recorded_bareiss(monkeypatch, record=as_tuples)
        loaded = problem_from_json(doc)
        pairs = list(itertools.product(range(6), repeat=2))
        for _ in range(2):
            for x, y in pairs:
                loaded.rank_fn(x, y)
                loaded.eval(x, y)
        differing = [d for x, y in pairs for d in differing_blocks(table, blocks, x, y)]
        assert sorted(eliminated) == sorted(set(differing))
        assert loaded.meta["exact_rechecks"] == len(set(differing)) < len(differing)

    def test_empty_table_loads(self):
        doc = problem_to_json(neq_inner())
        loaded = problem_from_json({**doc, "a": [], "index_count": 0})
        assert loaded.index_count == 0

    def test_problem_budget(self):
        p = hd_rank_problem(3, 2, seed=34)
        with pytest.raises(BudgetExceededError):
            problem_to_json(p, max_entries=4)

    def test_spec_round_trip(self):
        spec = CompositionSpec(r=1, h=(0, 1), inners=(neq_inner(),) * 2)
        back = spec_from_json(spec_to_json(spec))
        assert back.r == spec.r and back.h == spec.h
        for x in range(4):
            tx = spec.tuple_of(x)
            for y in range(4):
                assert compose_semantics(back, tx, spec.tuple_of(y)) == compose_semantics(
                    spec, tx, spec.tuple_of(y)
                )
