"""Damaged sign documents: verify-sign never certifies a wrong one.

Certified ``build-sign`` documents at n = 4 are damaged by a seeded
mutator, one JSON leaf or one tree node at a time.  Every mutant must end
in a ``hamrank-report/1``, and a certified one must agree on every pair
with an independent reference that reads the document's raw entries: each
oracle's dot is det_exact(L Diag(x - y) R^T), the tree is evaluated node by
node, and the truth is dist(x, y) == k.  The reference uses no minor
embedding, packing, mirror or difference classes.
"""

import itertools
import json
import random

import pytest

from hamrank.cli import main
from hamrank.exact import Mat, det_exact
from hamrank.hamming import dist

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


def reference_dot(oracle, x, y):
    """det(L Diag(x - y) R^T) from the oracle's raw factor entries."""
    left, right = oracle["compressor"]["left"], oracle["compressor"]["right"]
    k, n = left["rows"], left["cols"]
    lv, rv = [int(e) for e in left["entries"]], [int(e) for e in right["entries"]]
    z = [a - b for a, b in zip(x, y)]
    c = [
        sum(lv[i * n + p] * z[p] * rv[j * n + p] for p in range(n))
        for i in range(k)
        for j in range(k)
    ]
    return det_exact(Mat(k, k, tuple(c)))


def reference_value(node, x, y):
    """The tree's value node by node: a const is its sign, a combine
    value(rep1) + gamma s^2 value(rep0)."""
    if node["type"] == "const":
        return int(node["sign"])
    s = reference_dot(node["oracle"], x, y)
    below = reference_value(node["rep1"], x, y)
    return below + int(node["gamma"]) * s * s * reference_value(node["rep0"], x, y)


def reference_violations(doc):
    """(violations, pairs) of sign == +1 iff dist == k over every ordered
    pair of words of length meta n over the root oracle's alphabet."""
    n, k = doc["meta"]["n"], doc["meta"]["k"]
    alphabet = [int(a) for a in doc["tree"]["oracle"]["alphabet"]]
    words = list(itertools.product(alphabet, repeat=n))
    bad = 0
    for x, y in itertools.product(words, repeat=2):
        value = reference_value(doc["tree"], x, y)
        bad += (value > 0) - (value < 0) != (1 if dist(x, y) == k else -1)
    return bad, len(words) ** 2


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
