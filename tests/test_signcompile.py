import ast
import itertools
import json
import random
import re
from collections import Counter
from dataclasses import replace
from math import comb, prod
from pathlib import Path

import pytest

import hamrank
from hamrank import compression, signcompile
from hamrank.cli import main
from hamrank.errors import (
    BudgetExceededError,
    HamrankError,
    InputError,
    PatternViolationError,
    ZeroValueError,
)
from hamrank.exact import Mat
from hamrank.hamming import SupportRep, build_hd_supp
from hamrank.signcompile import (
    SignForm,
    Term,
    build_hd_sign,
    choose_gamma,
    compile_tree,
    domain_rows,
    eval_sign,
    eval_value,
    gamma_values,
    materialize,
    proof_dim_bound,
    sign_error,
    sign_from_json,
    sign_misses,
    sign_to_json,
    threshold_tree,
)

from . import reference


def words(n):
    return list(itertools.product((0, 1), repeat=n))


def differ(x, y) -> bool:
    return x != y


def neq_tree(oracle):
    """Answer 1 where the oracle's dot product is nonzero."""
    return SignForm(-1, (Term(oracle, 1),))


def below(rep):
    """The form of every term of ``rep`` but its root."""
    return SignForm(rep.const, rep.terms[:-1])


class TestLeaves:
    def test_constant_leaf_compiles_to_constant_sign(self):
        rep = compile_tree(SignForm(1), domain_rows(words(2)), lambda x, y: True)
        assert rep == SignForm(1, ())
        assert rep.const == 1 and rep.dim == 1
        rep0 = compile_tree(SignForm(-1), domain_rows(words(2)), lambda x, y: False)
        assert rep0.const == -1

    def test_constant_eval(self):
        rep = SignForm(-1)
        for x, y in itertools.product(words(2), repeat=2):
            assert eval_sign(rep, x, y) == -1


class TestDepthOne:
    def test_neq_style_tree_dim_five(self):
        oracle = build_hd_supp(6, 1, seed=1)
        domain = words(6)
        rep = compile_tree(neq_tree(oracle), domain_rows(domain), differ)
        assert rep.dim == 1 + oracle.dim**2 * 1 == 5
        for x in domain:
            for y in domain:
                assert (eval_sign(rep, x, y) == 1) == (x != y)

    def test_gamma_for_constant_children(self):
        # both branches constant: gamma = 1 + ceil(1/min s^2) = 2
        oracle = build_hd_supp(4, 1, seed=2)
        gamma = choose_gamma(oracle, SignForm(1), domain_rows(words(4)))
        assert gamma == 2

    def test_empty_support_gives_unit_gamma(self):
        oracle = build_hd_supp(4, 2, seed=3)
        base = (0, 0, 0, 0)
        near = (1, 0, 0, 0)  # distance 1 < 2: oracle vanishes on this domain
        rows = domain_rows([base, near])
        gamma = choose_gamma(oracle, SignForm(-1), rows)
        assert gamma == 1


class TestGammaModes:
    def build_pair(self, n, seed):
        oracle = build_hd_supp(n, 1, seed=seed)
        return oracle, neq_tree(oracle)

    def test_rescan_reproduces_gamma(self):
        oracle, tree = self.build_pair(5, 4)
        domain = words(5)
        rep = compile_tree(tree, domain_rows(domain), differ)
        best = 0
        for x in domain:
            for y in domain:
                s = oracle.dot(x, y)
                if s == 0:
                    continue
                v1 = abs(eval_value(below(rep), x, y))
                v0 = abs(rep.terms[-1].sign)
                need = -(-v1 // (s * s * v0))
                best = max(best, need)
        assert rep.terms[-1].gamma == 1 + best

    def test_root_gamma_rescan_on_full_build(self):
        # independent second pass over all 4096 pairs of the n=6 build
        rep = build_hd_sign(6, 1, seed=44)
        domain = words(6)
        best = 0
        seen = False
        for x in domain:
            for y in domain:
                s = rep.terms[-1].oracle.dot(x, y)
                if s == 0:
                    continue
                seen = True
                v1 = abs(eval_value(below(rep), x, y))
                v0 = abs(rep.terms[-1].sign)
                best = max(best, -(-v1 // (s * s * v0)))
        assert seen and rep.terms[-1].gamma == 1 + best

    @pytest.mark.parametrize("n,seed", [(3, 1), (4, 2), (5, 9)])
    def test_norm_bound_dominates_exact_scan(self, n, seed):
        oracle, tree = self.build_pair(n, seed)
        domain = words(n)
        scanned = compile_tree(
            tree, domain_rows(domain), differ, gamma_mode="exact_scan"
        )
        bounded = compile_tree(
            tree, domain_rows(domain), differ, gamma_mode="norm_bound"
        )
        assert bounded.terms[-1].gamma >= scanned.terms[-1].gamma
        for x in domain:
            for y in domain:
                assert eval_sign(bounded, x, y) == eval_sign(scanned, x, y)

    def test_norm_bound_refuses_an_oracle_without_words(self):
        # an index rep has no compressor, so no alphabet or length to bound over
        oracle = SupportRep(lambda i: Mat(1, 1, (i,)), 1)
        rows = domain_rows(range(3))
        with pytest.raises(ValueError, match="^gamma mode 'norm_bound' needs"):
            compile_tree(neq_tree(oracle), rows, differ, gamma_mode="norm_bound")
        assert gamma_values(compile_tree(neq_tree(oracle), rows, differ)) == [2]

    def test_norm_bound_full_build_still_correct(self):
        rep = build_hd_sign(5, 1, seed=3, gamma_mode="norm_bound")
        scan = build_hd_sign(5, 1, seed=3, gamma_mode="exact_scan")
        assert rep.terms[-1].gamma >= scan.terms[-1].gamma
        for x in words(5):
            for y in words(5):
                assert eval_sign(rep, x, y) == eval_sign(scan, x, y)


class TestEvaluation:
    def test_off_support_value_is_rep1_exactly(self):
        rep = build_hd_sign(5, 1, seed=7)
        for x in words(5):
            for y in words(5):
                if rep.terms[-1].oracle.dot(x, y) == 0:
                    assert eval_value(rep, x, y) == eval_value(below(rep), x, y)

    def test_zero_value_raises(self):
        oracle = build_hd_supp(2, 1, seed=0)
        # gamma too small by construction: value = -1 + 1*1*1 = 0 somewhere
        broken = SignForm(-1, (Term(oracle, 1, gamma=1),))
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
        assert reference.rank(u_mat.mul(v_mat.transpose()).to_lists()) <= rep.dim

    def test_materialize_budget(self):
        rep = build_hd_sign(4, 1, seed=3)
        with pytest.raises(BudgetExceededError):
            materialize(rep, words(4), max_dim=10)

    def test_constant_leaf_materializes_to_ones(self):
        u_mat, v_mat = materialize(SignForm(1), words(2))
        assert u_mat.entries == (1,) * 4
        assert v_mat.entries == (1,) * 4


class TestHdSign:
    def test_k1_dim_and_signs(self):
        rep = build_hd_sign(6, 1, seed=5)
        assert rep.dim == 41 == 1 + comb(2, 1) ** 2 + comb(4, 2) ** 2
        for x in words(6):
            for y in words(6):
                assert (eval_sign(rep, x, y) == 1) == (reference.dist(x, y) == 1)

    def test_k2_dim(self):
        rep = build_hd_sign(6, 2, seed=5)
        assert rep.dim == 437 == 1 + comb(4, 2) ** 2 + comb(6, 3) ** 2
        sample = words(6)[::9]
        for x in sample:
            for y in sample:
                assert (eval_sign(rep, x, y) == 1) == (reference.dist(x, y) == 2)

    def test_k3_dim(self):
        rep = build_hd_sign(4, 3, seed=5)
        assert rep.dim == 5301 == 1 + comb(6, 3) ** 2 + comb(8, 4) ** 2

    def test_dim_recursion_via_gammas(self):
        rep = build_hd_sign(5, 1, seed=6)
        assert len(rep.terms) == 2
        assert rep.dim == below(rep).dim + rep.terms[-1].oracle.dim ** 2
        assert len(gamma_values(rep)) == 2

    def test_within_proof_bound(self):
        tree = threshold_tree((0, 1, 0), lambda t: build_hd_supp(5, t, seed=t))
        rep = compile_tree(
            tree, domain_rows(words(5)), lambda x, y: reference.dist(x, y) == 1
        )
        # depth 2 over oracles of dimension 2 and C(4, 2) = 6
        assert proof_dim_bound(rep) == (1 + 6 * 6) ** 2
        assert rep.dim == 41 <= proof_dim_bound(rep)
        assert proof_dim_bound(below(rep)) == 1 + 2 * 2
        assert proof_dim_bound(SignForm(1)) == 1

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            build_hd_sign(4, 4, seed=1)


class TestDomains:
    def test_two_word_tuple_domain_matches_the_list(self):
        tree = neq_tree(build_hd_supp(2, 1, seed=0))
        domain = [(0, 0), (1, 1)]
        as_list = compile_tree(tree, domain_rows(domain), differ)
        as_tuple = compile_tree(tree, domain_rows(tuple(domain)), differ)
        assert gamma_values(as_tuple) == gamma_values(as_list) == [2]
        for x, y in itertools.product(domain, repeat=2):
            assert eval_sign(as_tuple, x, y) == eval_sign(as_list, x, y)


def binary_oracle():
    return build_hd_supp(4, 2, seed=1), words(4)


def ternary_oracle():
    domain = list(itertools.product((0, 1, 2), repeat=3))
    return build_hd_supp(3, 2, (0, 1, 2), seed=2), domain


def piece_oracle():
    from hamrank.rankprob import piece_support_rep

    from .conftest import random_table_problem

    p = random_table_problem()
    return piece_support_rep(p, 2, seed=48), range(p.index_count)


class TestDomainRows:
    """Each oracle's row dots are packed from its ``embed`` of the domain."""

    @pytest.mark.parametrize("build", [binary_oracle, ternary_oracle, piece_oracle])
    def test_row_dots_are_the_oracle_dots_and_the_memo_stays_empty(self, build):
        oracle, domain = build()
        rows = domain_rows(domain)
        got = [rows.dots(oracle)(i) for i in range(len(domain))]
        assert (oracle.u.cache_info().currsize, oracle.v.cache_info().currsize) == (0, 0)
        assert got == [[oracle.dot(x, y) for y in domain] for x in domain]
        assert rows.dots(oracle)(1, 3) == got[1][3:]


class TestTruth:
    def test_first_disagreement_in_pair_order_is_named(self):
        tree = neq_tree(build_hd_supp(3, 1, seed=1))
        domain = words(3)
        flipped = {(domain[4], domain[1]), (domain[2], domain[5])}

        def truth(x, y):
            return (x != y) != ((x, y) in flipped)

        first = re.escape(f"at ({domain[2]!r}, {domain[5]!r}): 1 vs -1")
        with pytest.raises(PatternViolationError, match=first):
            compile_tree(tree, domain_rows(domain), truth)

    @pytest.mark.parametrize("const", [-1, 1])
    def test_a_row_whose_only_bad_value_vanishes_names_it(self, monkeypatch, const):
        # gamma 1 under the weights oracle: const - const s^2 vanishes
        # exactly where the words differ at position 0 alone (s = +-1), one
        # column a row, and has the truth's sign everywhere else; at const 1
        # the truth there is 0, so only the vanishing value is wrong
        monkeypatch.setattr(signcompile, "choose_gamma", lambda *args: 1)
        domain = words(3)
        tree = SignForm(const, (Term(build_hd_supp(3, 1), -const),))
        truth = differ if const == -1 else (lambda x, y: x == y)
        message = (
            "sign value vanished at ((0, 0, 0), (1, 0, 0)); dominance constant "
            "or construction is broken"
        )
        with pytest.raises(ZeroValueError, match=f"^{re.escape(message)}$"):
            compile_tree(tree, domain_rows(domain), truth)

    def test_build_hd_sign_checks_against_the_distance(self, monkeypatch):
        # the oracle tree is right; only the ground truth is made wrong: the
        # support masks read every prefix and suffix as distance 0
        def zeros(values, positions):
            return [0] * prod(len(values[p]) for p in positions)

        monkeypatch.setattr(signcompile, "supports", zeros)
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

    @pytest.mark.parametrize("gamma_mode", ["exact_scan", "norm_bound"])
    @pytest.mark.parametrize(
        "n,k,alphabet,pair",
        [
            (4, 1, (0, 1), ((0, 0, 0, 1), (0, 0, 0, 0))),
            (5, 2, (0, 1), ((0, 0, 0, 1, 0), (0, 0, 0, 0, 1))),
            (3, 1, (0, 1, 2), ((0, 0, 1), (0, 0, 0))),
        ],
    )
    def test_oracles_one_threshold_too_high_fail_at_a_pinned_pair(
        self, monkeypatch, n, k, alphabet, pair, gamma_mode
    ):
        # as above, in both gamma modes: the first failing pair and the
        # values there are named exactly
        build = signcompile.build_hd_supp
        monkeypatch.setattr(
            signcompile,
            "build_hd_supp",
            lambda n, t, alphabet, seed: build(n, t + 1, alphabet, seed),
        )
        message = f"compiled sign disagrees with the truth at {pair!r}: -1 vs 1"
        with pytest.raises(PatternViolationError, match=f"^{re.escape(message)}$"):
            build_hd_sign(n, k, seed=2, gamma_mode=gamma_mode, alphabet=alphabet)

    def test_build_hd_sign_refuses_over_budget_before_building(self, monkeypatch):
        def no_build(*args, **kwargs):
            raise AssertionError("an oracle was built")

        monkeypatch.setattr(signcompile, "build_hd_supp", no_build)
        with pytest.raises(BudgetExceededError, match="^21523361 pairs exceed"):
            build_hd_sign(16, 1, max_pairs=1 << 24)

    def test_build_hd_sign_budget_counts_the_class_pairs(self):
        # (3^5 + 1) / 2 = 122 classes {z, -z} stand for the 4^5 ordered pairs
        message = "^122 pairs exceed the exhaustive budget of 121$"
        with pytest.raises(BudgetExceededError, match=message):
            build_hd_sign(5, 1, max_pairs=121)
        assert build_hd_sign(5, 1, max_pairs=122).dim == 41


def verify_sign_report(tmp_path, form, n, k):
    """The exhaustive verify-sign report on ``form``'s document."""
    path, report = tmp_path / "form.sign.json", tmp_path / "form.report.json"
    path.write_text(json.dumps(sign_to_json(form, {"n": n, "k": k})))
    main(["verify-sign", str(path), "--report", str(report)])
    return json.loads(report.read_text())


class TestSignMisses:
    @staticmethod
    def early_disagreement():
        # gamma 1 under the weights oracle: -1 + s^2 is 35 > 0 at column 3,
        # (0, 1, 1) at distance 2, then 0 at column 4, (1, 0, 0)
        return SignForm(-1, (Term(build_hd_supp(3, 1), 1, 1),))

    def test_the_compile_check_names_the_first_miss_a_disagreement(self, monkeypatch):
        monkeypatch.setattr(signcompile, "choose_gamma", lambda *args: 1)
        message = (
            "compiled sign disagrees with the truth at ((0, 0, 0), (0, 1, 1)): 1 vs -1"
        )
        with pytest.raises(PatternViolationError, match=f"^{re.escape(message)}$"):
            compile_tree(
                tree_of(self.early_disagreement()),
                domain_rows(words(3)),
                lambda x, y: reference.dist(x, y) == 1,
            )

    def test_verify_sign_ends_in_the_rows_first_vanishing_value(self, tmp_path):
        report = verify_sign_report(tmp_path, self.early_disagreement(), 3, 1)
        assert report["schema"] == "hamrank-report/1"
        assert report["status"] == "failed"
        assert report["error"] == (
            "ZeroValueError: sign value vanished at ((0, 0, 0), (1, 0, 0)); "
            "dominance constant or construction is broken"
        )

    def test_misses_are_the_references_failures(self, tmp_path):
        # each gamma kept, set to 1 or raised by 2^256: certified forms,
        # forms that disagree and a form that vanishes all occur
        outcomes = set()
        cases = [(3, 1, (0, 1)), (4, 1, (0, 1)), (4, 2, (0, 1)), (5, 2, (0, 1))]
        for (n, k, alphabet), seed in itertools.product(
            cases + [(3, 1, (0, 1, 2))], range(6)
        ):
            rng = random.Random(f"misses-{n}-{k}-{len(alphabet)}-{seed}")
            built = build_hd_sign(n, k, seed=seed, alphabet=alphabet)
            terms = tuple(
                replace(t, gamma=rng.choice((1, t.gamma, t.gamma << 256)))
                for t in built.terms
            )
            form = replace(built, terms=terms)
            doc = sign_to_json(form, {"n": n, "k": k})
            value = reference.sign_value(doc["tree"])
            domain = list(itertools.product(alphabet, repeat=n))
            pairs = list(itertools.product(domain, repeat=2))
            failures = set(reference.sign_failures(doc, pairs))
            misses = sign_misses(
                form,
                domain_rows(domain),
                lambda i: [reference.dist(domain[i], y) == k for y in domain],
            )
            for i, x in enumerate(domain):
                failed = [(j, y) for j, y in enumerate(domain) if (x, y) in failures]
                want = [(j, value(x, y)) for j, y in failed]
                assert misses(i) == want, (n, k, alphabet, seed, i)
            report = verify_sign_report(tmp_path, form, n, k)
            zeros = [pair for pair in pairs if pair in failures and not value(*pair)]
            if zeros:
                assert report["error"] == f"ZeroValueError: {sign_error(*zeros[0], 0)}"
                outcomes.add("vanished")
            else:
                assert report["verification"]["violation_count"] == len(failures)
                outcomes.add(report["status"])
                assert report["status"] == ("failed" if failures else "certified")
        assert outcomes == {"certified", "failed", "vanished"}


def tree_of(rep):
    """The threshold tree a compiled rep came from: its gammas unchosen."""
    return SignForm(rep.const, tuple(replace(t, gamma=None) for t in rep.terms))


ACCEPTANCE_GRID = [
    (n, k, (0, 1)) for n in range(2, 9) for k in (1, 2) if k < n
] + [(4, 1, (0, 1, 2)), (4, 2, (0, 1, 2))]


class TestDifferenceClassCompile:
    @pytest.mark.parametrize("gamma_mode", ["exact_scan", "norm_bound"])
    @pytest.mark.parametrize(
        "n,k,alphabet", ACCEPTANCE_GRID + [(4, 3, (0, 1)), (6, 3, (0, 1))]
    )
    def test_classes_give_the_pair_path_rep(self, n, k, alphabet, gamma_mode):
        rep = build_hd_sign(n, k, seed=n, gamma_mode=gamma_mode, alphabet=alphabet)
        domain = list(itertools.product(alphabet, repeat=n))

        def truth(x, y):
            return reference.dist(x, y) == k

        by_pairs = compile_tree(tree_of(rep), domain_rows(domain), truth, gamma_mode)
        assert by_pairs.dim == rep.dim
        assert gamma_values(by_pairs) == gamma_values(rep)
        for x, y in itertools.product(domain, repeat=2):
            assert eval_sign(rep, x, y) == (1 if truth(x, y) else -1)

    def test_a_one_letter_alphabet_has_empty_oracle_supports(self):
        rep = build_hd_sign(4, 1, alphabet=(5,))
        assert gamma_values(rep) == [1, 1]
        assert eval_sign(rep, (5,) * 4, (5,) * 4) == -1

    def test_the_oracle_values_are_read_from_the_compressor(self, monkeypatch):
        # a zero left column 0 hides position 0 from both oracles
        build = signcompile.build_hd_supp

        def zeroed(n, t, alphabet, seed):
            comp = build(n, t, alphabet, seed).compressor
            left = list(comp.left.entries)
            left[:: comp.left.cols] = [0] * comp.left.rows
            comp = replace(comp, left=Mat(comp.left.rows, comp.left.cols, tuple(left)))
            return SupportRep.of_compressor(comp, alphabet, seed)

        monkeypatch.setattr(signcompile, "build_hd_supp", zeroed)
        with pytest.raises(PatternViolationError, match="compiled sign disagrees"):
            build_hd_sign(4, 1, seed=2)

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


class TestClassRows:
    @staticmethod
    def pairs(n, alphabet):
        rows, _ = signcompile._class_rows(n, alphabet, 1)
        return [rows.pair(i, j) for i, cols in enumerate(rows.cols) for j in cols]

    @pytest.mark.parametrize("alphabet", [(0, 1), (0, 2), (0, 1, 2), (-1, 0, 3)])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_each_difference_once_up_to_sign_in_product_order(self, alphabet, n):
        ways = Counter(a - b for a in alphabet for b in alphabet)
        first = {}
        for a, b in itertools.product(alphabet, repeat=2):
            first.setdefault(a - b, (a, b))
        seen = []
        pairs = 0
        for x, y in self.pairs(n, alphabet):
            z = tuple(a - b for a, b in zip(x, y))
            assert [(a, b) for a, b in zip(x, y)] == [first[d] for d in z]
            assert next((d for d in z if d), 0) >= 0
            seen.append(z)
            pairs += prod(ways[d] for d in z) * (2 if any(z) else 1)
        assert seen == sorted(set(seen))
        signed = set(seen) | {tuple(-d for d in z) for z in seen}
        assert signed == set(itertools.product(sorted(ways), repeat=n))
        assert pairs == len(alphabet) ** (2 * n)

    def test_binary_n8_count(self):
        assert len(self.pairs(8, (0, 1))) == (3**8 + 1) // 2 == 3281

    @pytest.mark.parametrize(
        "n,alphabet",
        [(n, (0, 1)) for n in range(1, 8)] + [(n, (0, 1, 2)) for n in range(1, 5)],
    )
    def test_the_weight_tables_are_the_distance(self, n, alphabet):
        for k in range(n + 2):
            rows, want = signcompile._class_rows(n, alphabet, k)
            for i, cols in enumerate(rows.cols):
                if cols:
                    truth = [reference.dist(*rows.pair(i, j)) == k for j in cols]
                    assert want(i) == truth


class TestSharedDetVectors:
    @staticmethod
    def expansions(monkeypatch):
        """The compressors ``_cap_coefficients`` expands, in call order."""
        seen = []
        real = compression._cap_coefficients

        def counted(comp, values):
            seen.append(comp)
            return real(comp, values)

        monkeypatch.setattr(compression, "_cap_coefficients", counted)
        return seen

    @pytest.mark.parametrize("entry_range", [compression.ENTRY_RANGE, 1])
    def test_each_draw_expands_once_per_build(self, monkeypatch, entry_range):
        # entries in [-1, 1] make the fits reject draws: 5 and 4 at seed 7
        monkeypatch.setattr(compression, "ENTRY_RANGE", entry_range)
        seen = self.expansions(monkeypatch)
        form = build_hd_sign(8, 2, seed=7)
        comps = [term.oracle.compressor for term in form.terms]
        draws = sum(comp.retries + 1 for comp in comps)
        assert draws == (2 if entry_range > 1 else 11)
        assert len(seen) == draws
        expanded = [(comp.left, comp.right) for comp in seen]
        for comp in comps:  # each accepted draw once, by its own walk
            assert expanded.count((comp.left, comp.right)) == 1
        # nothing is kept once the build ends: the next build expands again
        assert compression._shared is None
        assert gamma_values(build_hd_sign(8, 2, seed=7)) == gamma_values(form)
        assert len(seen) == 2 * draws

    def test_an_oracle_its_walk_never_expanded_is_expanded_by_the_build(
        self, monkeypatch
    ):
        # a one-letter alphabet has no member at the cap, so no walk expands
        seen = self.expansions(monkeypatch)
        build_hd_sign(4, 1, alphabet=(5,))
        assert len(seen) == 2

    def test_outside_a_build_every_call_expands(self, monkeypatch):
        seen = self.expansions(monkeypatch)
        draws = build_hd_supp(6, 2, seed=1).compressor.retries + 1
        build_hd_supp(6, 2, seed=1)
        assert len(seen) == 2 * draws


class TestPackageRoot:
    def test_a_depth_one_tree_compiles_from_package_root_names(self):
        oracle = hamrank.build_hd_supp(3, 1, seed=1)
        tree = hamrank.SignForm(-1, (hamrank.Term(oracle, 1),))
        rows = hamrank.domain_rows(words(3))
        rep = hamrank.compile_tree(tree, rows, differ)
        assert rep.dim == 5
        for x, y in itertools.product(words(3), repeat=2):
            assert hamrank.eval_sign(rep, x, y) == (1 if x != y else -1)


class TestInputMaps:
    def test_translation_maps_reduce_other_domains(self):
        # domain of plain integers, translated into words by the oracle's maps
        n = 4
        compress = build_hd_supp(n, 1, seed=8).compressor.apply_diag

        def to_word(i):
            return tuple((i >> b) & 1 for b in range(n))

        oracle = SupportRep(lambda i: compress(to_word(i)), 1)
        tree = SignForm(1, (Term(oracle, -1),))
        domain = list(range(1 << n))
        rep = compile_tree(tree, domain_rows(domain), lambda i, j: i == j)
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
        # any node type but const and combine is refused, at any depth
        for path in (["rep0"], ["rep1"], ["rep1", "rep0"], ["rep1", "rep1"]):
            bad = json.loads(json.dumps(doc))
            node = bad["tree"]
            for key in path:
                node = node[key]
            node["type"] = "banana"
            with pytest.raises(InputError, match="^unknown sign node type 'banana'$"):
                sign_from_json(bad)

    @pytest.mark.parametrize("gamma_mode", ["exact_scan", "norm_bound"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_a_built_document_reads_back_to_the_same_document(self, k, gamma_mode):
        rep = build_hd_sign(4, k, seed=k, gamma_mode=gamma_mode)
        doc = sign_to_json(rep, meta={"n": 4, "k": k})
        back = sign_from_json(doc)
        assert sign_to_json(back, meta={"n": 4, "k": k}) == doc
        assert json.dumps(sign_to_json(back, meta={"n": 4, "k": k})) == json.dumps(doc)
        assert back.const == rep.const == -1
        assert [t.sign for t in back.terms] == [t.sign for t in rep.terms] == [1, -1]
        assert gamma_values(back) == gamma_values(rep)

    def test_the_chain_runs_from_the_root_down_its_answer_0_branches(self):
        rep = build_hd_sign(4, 1, seed=9)
        tree = sign_to_json(rep)["tree"]
        root, smaller = rep.terms[::-1]
        assert tree["gamma"] == str(root.gamma) and tree["rep0"]["sign"] == -1
        assert tree["rep1"]["gamma"] == str(smaller.gamma)
        assert tree["rep1"]["rep0"] == {"type": "const", "sign": 1}
        assert tree["rep1"]["rep1"] == {"type": "const", "sign": -1}
        assert [key for key in tree] == ["type", "gamma", "oracle", "rep0", "rep1"]

    def test_a_combine_under_rep0_is_not_a_chain(self, tmp_path):
        # a rep0 of a combine is the answer-1 branch; a threshold tree only
        # puts a sign there
        doc = sign_to_json(build_hd_sign(4, 1, seed=9), meta={"n": 4, "k": 1})
        inner = doc["tree"]["rep1"]
        doc["tree"]["rep0"], doc["tree"]["rep1"] = inner, inner["rep1"]
        with pytest.raises(InputError, match="^sign tree is not a chain: "):
            sign_from_json(doc)
        path = tmp_path / "tree.sign.json"
        path.write_text(json.dumps(doc))
        report_path = tmp_path / "tree.report.json"
        assert main(["verify-sign", str(path), "--report", str(report_path)]) == 1
        report = json.loads(report_path.read_text())
        assert report["schema"] == "hamrank-report/1"
        assert report["status"] == "failed"
        assert report["error"] == (
            f"InputError: cannot load {path}: InputError: sign tree is not a "
            "chain: a combine under rep0"
        )


def test_the_sign_form_stays_flat():
    """No function in ``signcompile`` calls itself, and the tree types it
    replaced are named nowhere in the package."""
    tree = ast.parse(Path(signcompile.__file__).read_text())
    recursive = []
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            called = {
                node.func.id
                for node in ast.walk(fn)
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            }
            if fn.name in called:
                recursive.append(fn.name)
    assert recursive == []
    naming = set()
    for path in Path(hamrank.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            named = (
                getattr(node, "id", None),  # a name
                getattr(node, "attr", None),  # an attribute
                getattr(node, "name", None),  # a def, a class or an imported name
                getattr(node, "asname", None),
            )
            naming.update({"Combine", "ConstLeaf", "Node", "OracleTree"} & set(named))
    assert naming == set()

