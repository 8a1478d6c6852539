"""Damaged sign documents: verify-sign never certifies a wrong one.

Certified ``build-sign`` documents at n = 4 are damaged by a seeded
mutator, one JSON leaf or one tree node at a time.  Every mutant must end
in a ``hamrank-report/1``, and a certified one must pass
``reference.sign_failures`` on every pair.  That reference reads the
document's raw entries and imports nothing from hamrank: each oracle's dot
is det(L Diag(x - y) R^T) by its own modular elimination, the tree is
evaluated node by node, and the truth is its own dist(x, y) == k, with no
minor embedding, packing, mirror or difference classes.
"""

import itertools
import json
import random

import pytest

from hamrank.cli import main

from . import reference
from .mutants import at, copy, dropped_keys, leaf_mutants


def structural_mutants(doc):
    """Each combine's branches swapped; the inner combine moved under the
    root's rep0, the bottom const in its place; and each key dropped."""
    for path in (("tree",), ("tree", "rep1")):
        mutant = copy(doc)
        node = at(mutant, path)
        node["rep0"], node["rep1"] = node["rep1"], node["rep0"]
        yield f"swap:{'/'.join(path)}", mutant
    mutant = copy(doc)
    root = mutant["tree"]
    root["rep0"], root["rep1"] = root["rep1"], root["rep1"]["rep1"]
    yield "move-inner-under-rep0", mutant
    yield from dropped_keys(doc)


def reference_violations(doc):
    """(violations, pairs): the reference's failing pairs among every
    ordered pair of words of length meta n over the root oracle's
    alphabet."""
    alphabet = [int(a) for a in doc["tree"]["oracle"]["alphabet"]]
    words = list(itertools.product(alphabet, repeat=doc["meta"]["n"]))
    pairs = itertools.product(words, repeat=2)
    return reference.tally(reference.sign_failures(doc, pairs))[0], len(words) ** 2


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    """The certified build-sign documents at n = 4, k = 1 and 2, seed 3."""
    base = tmp_path_factory.mktemp("mutants")
    docs = {}
    for k in (1, 2):
        out, report = base / f"s{k}.sign.json", base / f"s{k}.report.json"
        argv = ["build-sign", "--n", "4", "--k", str(k), "--seed", "3"]
        assert main(argv + ["--out", str(out), "--report", str(report)]) == 0
        docs[k] = json.loads(out.read_text())
    return docs


def verify(tmp_path, doc):
    """The verify-sign report on ``doc``, checked to be a hamrank-report/1."""
    path, report = tmp_path / "mutant.sign.json", tmp_path / "mutant.report.json"
    path.write_text(json.dumps(doc))
    report.unlink(missing_ok=True)
    argv = ["verify-sign", str(path), "--mode", "exhaustive", "--report", str(report)]
    code = main(argv)
    got = json.loads(report.read_text())
    assert got["schema"] == "hamrank-report/1"
    assert code == (0 if got["status"] == "certified" else 1)
    return got


@pytest.mark.parametrize("k", [1, 2])
def test_a_certified_mutant_is_correct_by_the_reference(tmp_path, built, k):
    doc = built[k]
    assert reference_violations(doc) == (0, 256)
    mutants = [
        *leaf_mutants(
            doc, lambda path: "oracle" in path, random.Random(f"sign-leaves-{k}"), 60
        ),
        *structural_mutants(doc),
    ]
    statuses = set()
    for name, mutant in mutants:
        report = verify(tmp_path, mutant)
        statuses.add(report["status"])
        if report["status"] == "certified":
            pairs = report["verification"]["pairs_checked"]
            assert reference_violations(mutant) == (0, pairs), name
    # both outcomes occur, so the property is not vacuous either way
    assert statuses == {"certified", "failed"}
