import itertools
import json
import re
from math import comb

import pytest

from hamrank import signcompile
from hamrank.cli import main
from hamrank.errors import (
    BudgetExceededError,
    HamrankError,
    PatternViolationError,
    ZeroValueError,
)
from hamrank.exact import rank_exact
from hamrank.hamming import SupportRep, build_hd_supp, dist
from hamrank.signcompile import (
    Combine,
    ConstLeaf,
    Node,
    build_hd_sign,
    choose_gamma,
    compile_tree,
    eval_sign,
    eval_value,
    gamma_values,
    materialize,
    proof_dim_bound,
    sign_from_json,
    sign_to_json,
    threshold_tree,
)

from .conftest import hamming


def words(n):
    return list(itertools.product((0, 1), repeat=n))


def differ(x, y) -> bool:
    return x != y


def neq_tree(oracle):
    """Answer 1 where the oracle's dot product is nonzero."""
    return Node(oracle=oracle, child0=ConstLeaf(-1), child1=ConstLeaf(1))


class TestLeaves:
    def test_constant_leaf_compiles_to_constant_sign(self):
        rep = compile_tree(ConstLeaf(1), words(2), lambda x, y: True)
        assert isinstance(rep, ConstLeaf)
        assert rep.sign == 1 and rep.dim == 1
        rep0 = compile_tree(ConstLeaf(-1), words(2), lambda x, y: False)
        assert rep0.sign == -1

    def test_constant_eval(self):
        rep = ConstLeaf(-1)
        for x, y in itertools.product(words(2), repeat=2):
            assert eval_sign(rep, x, y) == -1


class TestDepthOne:
    def test_neq_style_tree_dim_five(self):
        oracle = build_hd_supp(6, 1, seed=1)
        domain = words(6)
        rep = compile_tree(neq_tree(oracle), domain, differ)
        assert rep.dim == 1 + oracle.dim**2 * 1 == 5
        for x in domain:
            for y in domain:
                assert (eval_sign(rep, x, y) == 1) == (x != y)

    def test_gamma_for_constant_children(self):
        # both branches constant: gamma = 1 + ceil(1/min s^2) = 2
        oracle = build_hd_supp(4, 1, seed=2)
        gamma = choose_gamma(oracle, ConstLeaf(-1), ConstLeaf(1), words(4))
        assert gamma == 2

    def test_empty_support_gives_unit_gamma(self):
        oracle = build_hd_supp(4, 2, seed=3)
        base = (0, 0, 0, 0)
        near = (1, 0, 0, 0)  # distance 1 < 2: oracle vanishes on this domain
        gamma = choose_gamma(oracle, ConstLeaf(1), ConstLeaf(-1), [base, near])
        assert gamma == 1


class TestGammaModes:
    def build_pair(self, n, seed):
        oracle = build_hd_supp(n, 1, seed=seed)
        return oracle, neq_tree(oracle)

    def test_rescan_reproduces_gamma(self):
        oracle, tree = self.build_pair(5, 4)
        domain = words(5)
        rep = compile_tree(tree, domain, differ)
        best = 0
        for x in domain:
            for y in domain:
                s = oracle.dot(x, y)
                if s == 0:
                    continue
                v1 = abs(eval_value(rep.rep1, x, y))
                v0 = abs(eval_value(rep.rep0, x, y))
                need = -(-v1 // (s * s * v0))
                best = max(best, need)
        assert rep.gamma == 1 + best

    def test_root_gamma_rescan_on_full_build(self):
        # independent second pass over all 4096 pairs of the n=6 build
        rep = build_hd_sign(6, 1, seed=44)
        domain = words(6)
        best = 0
        seen = False
        for x in domain:
            for y in domain:
                s = rep.oracle.dot(x, y)
                if s == 0:
                    continue
                seen = True
                v1 = abs(eval_value(rep.rep1, x, y))
                v0 = abs(eval_value(rep.rep0, x, y))
                best = max(best, -(-v1 // (s * s * v0)))
        assert seen and rep.gamma == 1 + best

    @pytest.mark.parametrize("n,seed", [(3, 1), (4, 2), (5, 9)])
    def test_norm_bound_dominates_exact_scan(self, n, seed):
        oracle, tree = self.build_pair(n, seed)
        domain = words(n)
        scanned = compile_tree(tree, domain, differ, gamma_mode="exact_scan")
        bounded = compile_tree(tree, domain, differ, gamma_mode="norm_bound")
        assert bounded.gamma >= scanned.gamma
        for x in domain:
            for y in domain:
                assert eval_sign(bounded, x, y) == eval_sign(scanned, x, y)

    def test_norm_bound_full_build_still_correct(self):
        rep = build_hd_sign(5, 1, seed=3, gamma_mode="norm_bound")
        scan = build_hd_sign(5, 1, seed=3, gamma_mode="exact_scan")
        assert rep.gamma >= scan.gamma
        for x in words(5):
            for y in words(5):
                assert eval_sign(rep, x, y) == eval_sign(scan, x, y)


class TestEvaluation:
    def test_off_support_value_is_rep1_exactly(self):
        rep = build_hd_sign(5, 1, seed=7)
        for x in words(5):
            for y in words(5):
                if rep.oracle.dot(x, y) == 0:
                    assert eval_value(rep, x, y) == eval_value(rep.rep1, x, y)

    def test_zero_value_raises(self):
        oracle = build_hd_supp(2, 1, seed=0)
        # gamma too small by construction: value = -1 + 1*1*1 = 0 somewhere
        broken = Combine(
            oracle=oracle, rep0=ConstLeaf(1), rep1=ConstLeaf(-1), gamma=1
        )
        with pytest.raises(ZeroValueError):
            for x in words(2):
                for y in words(2):
                    eval_sign(broken, x, y)

    def test_structural_equals_materialized(self):
        rep = build_hd_sign(4, 1, seed=3)
        domain = words(4)
        u_mat, v_mat = materialize(rep, domain)
        assert u_mat.cols == rep.dim == 41
        table = u_mat.mul(v_mat.transpose())
        for i, x in enumerate(domain):
            for j, y in enumerate(domain):
                assert table.at(i, j) == eval_value(rep, x, y)

    def test_materialized_product_rank_within_dim(self):
        rep = build_hd_sign(4, 1, seed=3)
        u_mat, v_mat = materialize(rep, words(4))
        assert rank_exact(u_mat.mul(v_mat.transpose())) <= rep.dim

    def test_materialize_budget(self):
        rep = build_hd_sign(4, 1, seed=3)
        with pytest.raises(BudgetExceededError):
            materialize(rep, words(4), max_dim=10)

    def test_constant_leaf_materializes_to_ones(self):
        u_mat, v_mat = materialize(ConstLeaf(1), words(2))
        assert u_mat.entries == (1,) * 4
        assert v_mat.entries == (1,) * 4


class TestHdSign:
    def test_k1_dim_and_signs(self):
        rep = build_hd_sign(6, 1, seed=5)
        assert rep.dim == 41 == 1 + comb(2, 1) ** 2 + comb(4, 2) ** 2
        for x in words(6):
            for y in words(6):
                assert (eval_sign(rep, x, y) == 1) == (hamming(x, y) == 1)

    def test_k2_dim(self):
        rep = build_hd_sign(6, 2, seed=5)
        assert rep.dim == 437 == 1 + comb(4, 2) ** 2 + comb(6, 3) ** 2
        sample = words(6)[::9]
        for x in sample:
            for y in sample:
                assert (eval_sign(rep, x, y) == 1) == (hamming(x, y) == 2)

    def test_k3_dim(self):
        rep = build_hd_sign(4, 3, seed=5)
        assert rep.dim == 5301 == 1 + comb(6, 3) ** 2 + comb(8, 4) ** 2

    def test_dim_recursion_via_gammas(self):
        rep = build_hd_sign(5, 1, seed=6)
        assert isinstance(rep, Combine) and isinstance(rep.rep1, Combine)
        assert rep.dim == rep.rep1.dim + rep.oracle.dim**2 * rep.rep0.dim
        assert len(gamma_values(rep)) == 2

    def test_within_proof_bound(self):
        tree = threshold_tree((0, 1, 0), lambda t: build_hd_supp(5, t, seed=t))
        rep = compile_tree(tree, words(5), lambda x, y: dist(x, y) == 1)
        # depth 2 over oracles of dimension 2 and C(4, 2) = 6
        assert proof_dim_bound(rep) == (1 + 6 * 6) ** 2
        assert rep.dim == 41 <= proof_dim_bound(rep)
        assert proof_dim_bound(rep.rep1) == 1 + 2 * 2
        assert proof_dim_bound(ConstLeaf(1)) == 1

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            build_hd_sign(4, 4, seed=1)


class TestDomains:
    def test_two_word_tuple_domain_matches_the_list(self):
        tree = neq_tree(build_hd_supp(2, 1, seed=0))
        domain = [(0, 0), (1, 1)]
        as_list = compile_tree(tree, domain, differ)
        as_tuple = compile_tree(tree, tuple(domain), differ)
        assert as_tuple.gamma == as_list.gamma == 2
        for x, y in itertools.product(domain, repeat=2):
            assert eval_sign(as_tuple, x, y) == eval_sign(as_list, x, y)


class TestTruth:
    def test_first_disagreement_in_pair_order_is_named(self):
        tree = neq_tree(build_hd_supp(3, 1, seed=1))
        domain = words(3)
        flipped = {(domain[4], domain[1]), (domain[2], domain[5])}

        def truth(x, y):
            return (x != y) != ((x, y) in flipped)

        first = re.escape(f"at ({domain[2]!r}, {domain[5]!r}): 1 vs -1")
        with pytest.raises(PatternViolationError, match=first):
            compile_tree(tree, domain, truth)

    def test_build_hd_sign_checks_against_the_distance(self, monkeypatch):
        # the oracle tree is right; only the ground truth is made wrong
        monkeypatch.setattr(signcompile, "dist", lambda x, y: 0)
        with pytest.raises(PatternViolationError):
            build_hd_sign(4, 1, seed=2)

    def test_build_hd_sign_checks_against_the_distance_not_its_oracles(
        self, monkeypatch
    ):
        # each oracle answers one threshold too high, so the compiled sign
        # follows its oracles and disagrees with dist == k
        build = signcompile.build_hd_supp
        monkeypatch.setattr(
            signcompile,
            "build_hd_supp",
            lambda n, t, alphabet, seed: build(n, t + 1, alphabet, seed),
        )
        with pytest.raises(PatternViolationError, match="compiled sign disagrees"):
            build_hd_sign(4, 1, seed=2)

    def test_build_hd_sign_refuses_over_budget_before_building(self, monkeypatch):
        def no_build(*args, **kwargs):
            raise AssertionError("an oracle was built")

        monkeypatch.setattr(signcompile, "build_hd_supp", no_build)
        with pytest.raises(BudgetExceededError, match="^67108864 pairs exceed"):
            build_hd_sign(13, 1, max_pairs=1 << 24)


def tree_of(rep):
    """The oracle tree a compiled rep came from."""
    if isinstance(rep, ConstLeaf):
        return rep
    return Node(oracle=rep.oracle, child1=tree_of(rep.rep0), child0=tree_of(rep.rep1))


ACCEPTANCE_GRID = [
    (n, k, (0, 1)) for n in range(2, 9) for k in (1, 2) if k < n
] + [(4, 1, (0, 1, 2)), (4, 2, (0, 1, 2))]


class TestDifferenceClassCompile:
    @pytest.mark.parametrize("gamma_mode", ["exact_scan", "norm_bound"])
    @pytest.mark.parametrize("n,k,alphabet", ACCEPTANCE_GRID + [(4, 3, (0, 1))])
    def test_classes_give_the_pair_path_rep(self, n, k, alphabet, gamma_mode):
        rep = build_hd_sign(n, k, seed=n, gamma_mode=gamma_mode, alphabet=alphabet)
        domain = list(itertools.product(alphabet, repeat=n))

        def truth(x, y):
            return dist(x, y) == k

        by_pairs = compile_tree(tree_of(rep), domain, truth, gamma_mode)
        assert by_pairs.dim == rep.dim
        assert gamma_values(by_pairs) == gamma_values(rep)
        for x, y in itertools.product(domain, repeat=2):
            assert eval_sign(rep, x, y) == (1 if truth(x, y) else -1)

    def test_a_flipped_expansion_sign_fails_the_build(self, flipped_det_sum_sign):
        with pytest.raises(HamrankError, match=r"k=1 at A=\[\[1\]\], B=\[\[0\]\]"):
            build_hd_sign(4, 1, seed=2)

    def test_a_flipped_expansion_sign_fails_the_cli_report(
        self, tmp_path, flipped_det_sum_sign
    ):
        report = tmp_path / "sign.report.json"
        argv = ["build-sign", "--n", "3", "--k", "2", "--out", str(tmp_path / "s.json")]
        argv += ["--report", str(report)]
        assert main(argv) == 1
        doc = json.loads(report.read_text())
        assert doc["status"] == "failed"
        assert doc["error"].startswith("PatternViolationError: det-sum identity")
        assert "k=2 at A=" in doc["error"]


class TestInputMaps:
    def test_translation_maps_reduce_other_domains(self):
        # domain of plain integers, translated into words by the oracle's maps
        n = 4
        compress = build_hd_supp(n, 1, seed=8).compressor.apply_diag

        def to_word(i):
            return tuple((i >> b) & 1 for b in range(n))

        oracle = SupportRep(lambda i: compress(to_word(i)), 1)
        tree = Node(oracle=oracle, child0=ConstLeaf(1), child1=ConstLeaf(-1))
        domain = list(range(1 << n))
        rep = compile_tree(tree, domain, lambda i, j: i == j)
        for i in domain:
            for j in domain:
                assert (eval_sign(rep, i, j) == 1) == (i == j)


class TestSerialization:
    def test_round_trip(self):
        rep = build_hd_sign(4, 1, seed=9)
        doc = sign_to_json(rep, meta={"n": 4, "k": 1})
        back = sign_from_json(doc)
        assert back.dim == rep.dim
        assert gamma_values(back) == gamma_values(rep)
        for x in words(4)[:6]:
            for y in words(4)[:6]:
                assert eval_value(back, x, y) == eval_value(rep, x, y)

