"""Damaged support-rep documents: verify-supp never certifies a wrong one.

Certified ``build-supp`` documents (binary n = 4 at k = 1 and 2, ternary
n = 3 at k = 2) are damaged by a seeded mutator, one JSON leaf or one
dropped key at a time, and each mutant is verified exhaustively and on a
sample of 400 drawn pairs.  Every mutant must end in a
``hamrank-report/1``, and a certified one must pass
``reference.supp_failures`` on every pair.  That reference reads the
document's raw entries and imports nothing from hamrank: the dot is
det(L Diag(x - y) R^T) by its own modular elimination and the truth is its
own dist(x, y) >= k, with no minor embedding, packing, residue or letter
codes.
"""

import itertools
import json
import random

import pytest

from hamrank.cli import main

from . import reference
from .mutants import dropped_keys, leaf_mutants, leaves, ops

DOCS = {"bin-4-1": (4, 1, "0,1"), "bin-4-2": (4, 2, "0,1"), "ter-3-2": (3, 2, "0,1,2")}
MODES = ("exhaustive", "sample:400")


def in_entries(path):
    """Whether a leaf path is a compressor factor entry."""
    return path[0] == "compressor" and "entries" in path


def reference_violations(doc):
    """The reference's failing pairs among every ordered pair of words of
    length n over the document's alphabet."""
    words = list(itertools.product([int(a) for a in doc["alphabet"]], repeat=doc["n"]))
    pairs = itertools.product(words, repeat=2)
    return reference.tally(reference.supp_failures(doc, pairs))[0]


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    """The certified seed-3 build-supp documents, by name."""
    base = tmp_path_factory.mktemp("supp-mutants")
    docs = {}
    for name, (n, k, alphabet) in DOCS.items():
        out = base / f"{name}.supp.json"
        argv = ["build-supp", "--n", str(n), "--k", str(k), "--alphabet", alphabet]
        assert main([*argv, "--seed", "3", "--out", str(out)]) == 0
        docs[name] = json.loads(out.read_text())
    return docs


def verify(tmp_path, doc, mode):
    """The verify-supp report on ``doc``, checked to be a hamrank-report/1."""
    path, report = tmp_path / "mutant.supp.json", tmp_path / "mutant.report.json"
    path.write_text(json.dumps(doc))
    report.unlink(missing_ok=True)
    argv = ["verify-supp", str(path), "--mode", mode, "--seed", "5"]
    code = main([*argv, "--report", str(report)])
    got = json.loads(report.read_text())
    assert got["schema"] == "hamrank-report/1"
    assert code == (0 if got["status"] == "certified" else 1)
    return got


@pytest.mark.parametrize("name", DOCS)
def test_a_certified_mutant_is_correct_by_the_reference(tmp_path, built, name):
    doc = built[name]
    assert reference_violations(doc) == 0
    inside = sum(len(ops(value)) for path, value in leaves(doc) if in_entries(path))
    rng = random.Random(f"supp-leaves-{name}")
    mutants = [
        *leaf_mutants(doc, in_entries, rng, min(60, inside)),
        *dropped_keys(doc),
    ]
    statuses = {mode: set() for mode in MODES}
    for label, mutant in mutants:
        certified = False
        for mode in MODES:
            report = verify(tmp_path, mutant, mode)
            statuses[mode].add(report["status"])
            certified |= report["status"] == "certified"
        if certified:
            assert reference_violations(mutant) == 0, label
    # both outcomes occur in each mode, so the property is not vacuous
    assert all(seen == {"certified", "failed"} for seen in statuses.values())
