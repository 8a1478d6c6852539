"""Damaged rank-problem documents: rp-verify never certifies a wrong one.

The certified ``compose --out`` document of exact Hamming distance 2 over
four inequality inners (r = 2, 16 indices) is damaged by a seeded mutator:
one JSON leaf at a time, each key dropped, two A matrices swapped, or one
bit of g flipped.  Every mutant must end in a ``hamrank-report/1``, and a
certified one must agree on every pair with an independent reference: the
dense ``rank_exact`` of each difference of the mutated table, read through
the mutated g, against ``compose_semantics``.  The reference uses no
pattern blocks and no det pairing.
"""

import itertools
import json
import random
from functools import cache

import pytest

from hamrank.cli import main
from hamrank.exact import Mat, rank_exact
from hamrank.rankprob import (
    CompositionSpec,
    compose_semantics,
    spec_to_json,
    symmetric_problem,
)

from .mutants import copy, dropped_keys, leaf_mutants

INEQUALITY = symmetric_problem(2, lambda x: Mat(1, 1, (x,)), (0, 1), name="neq")
SPEC = CompositionSpec(r=2, h=(0, 0, 1), inners=(INEQUALITY,) * 4)


def structural_mutants(doc, rng):
    """Each key dropped, 12 drawn pairs of A matrices swapped, and each bit
    of g flipped."""
    yield from dropped_keys(doc)
    pairs = itertools.combinations(range(len(doc["a"])), 2)
    for x, y in rng.sample(list(pairs), 12):
        mutant = copy(doc)
        mutant["a"][x], mutant["a"][y] = mutant["a"][y], mutant["a"][x]
        yield f"swap:a/{x}/{y}", mutant
    for t in range(len(doc["g"])):
        mutant = copy(doc)
        mutant["g"][t] ^= 1
        yield f"flip:g/{t}", mutant


def reference_violations(doc, dense_rank):
    """(violations, pairs) of g(rank(A(x) - A(y))) against the composition
    semantics over every ordered pair of the spec's indices, the table's
    entries parsed by ``int``."""
    table = [
        (m["rows"], m["cols"], tuple(int(e) for e in m["entries"])) for m in doc["a"]
    ]
    g = [int(bit) for bit in doc["g"]]
    indices = range(SPEC.index_count)
    bad = 0
    for x, y in itertools.product(indices, repeat=2):
        rank = dense_rank(table[x], table[y])
        truth = compose_semantics(SPEC, SPEC.tuple_of(x), SPEC.tuple_of(y))
        bad += g[min(rank, len(g) - 1)] != truth
    return bad, len(indices) ** 2


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    """A directory holding the spec and its certified seed-3 rank problem."""
    base = tmp_path_factory.mktemp("rp-mutants")
    (base / "spec.json").write_text(json.dumps(spec_to_json(SPEC)))
    mp = pytest.MonkeyPatch()
    mp.chdir(base)
    try:
        argv = ["compose", "--spec", "spec.json", "--seed", "3", "--out", "rp.json"]
        assert main(argv + ["--report", "compose.report.json"]) == 0
    finally:
        mp.undo()
    return base


def verify(base, doc):
    """The rp-verify report on ``doc``, written beside the spec it records,
    checked to be a hamrank-report/1."""
    path, report = base / "mutant.rp.json", base / "mutant.report.json"
    path.write_text(json.dumps(doc))
    report.unlink(missing_ok=True)
    code = main(["rp-verify", str(path), "--report", str(report)])
    got = json.loads(report.read_text())
    assert got["schema"] == "hamrank-report/1"
    assert code == (0 if got["status"] == "certified" else 1)
    return got


def test_a_certified_mutant_is_correct_by_the_reference(built):
    @cache
    def dense_rank(a, b):
        (rows, cols, ea), (_, _, eb) = a, b
        return rank_exact(Mat(rows, cols, tuple(p - q for p, q in zip(ea, eb))))

    doc = json.loads((built / "rp.json").read_text())
    assert reference_violations(doc, dense_rank) == (0, 256)
    rng = random.Random("rp-mutants")
    mutants = [
        *leaf_mutants(doc, lambda path: path[0] == "a", rng, 80),
        *structural_mutants(doc, rng),
    ]
    statuses = set()
    for name, mutant in mutants:
        report = verify(built, mutant)
        statuses.add(report["status"])
        if report["status"] == "certified":
            pairs = report["verification"]["pairs_checked"]
            assert reference_violations(mutant, dense_rank) == (0, pairs), name
    # both outcomes occur, so the property is not vacuous either way
    assert statuses == {"certified", "failed"}
