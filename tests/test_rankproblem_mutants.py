"""Damaged rank-problem and composition-spec documents: rp-verify and
compose never certify a wrong one.

The certified ``compose --out`` document of exact Hamming distance 2 over
four inequality inners (r = 2, 16 indices) is damaged by a seeded mutator:
one JSON leaf at a time, each key dropped, two A matrices swapped, one bit
of g flipped, or one entry of one copy of a repeated pattern block changed
at one index.  Every mutant must end in a ``hamrank-report/1``, and a
certified one must pass ``reference.rank_failures`` on every pair: the
reference's rank of each difference of the mutated table, read through
the mutated g, against ``reference.spec_semantics`` of the spec file that
rp-verify reads.  The reference imports nothing from hamrank, so neither
``compose_semantics`` nor the pattern blocks that rp-verify runs decide
the truth.

The spec of that composition, its inners inline, is damaged the same way
(every leaf, each key dropped, each bit of h flipped) and composed.  A
certified mutant's ``--out`` table must agree in the same way with the
reference semantics of the mutated spec document.

``compose_semantics`` itself is pinned against the reference semantics on
every pair of this spec and of the seed-7 exact-2-of-6 spec.
"""

import itertools
import json
import random
from math import prod

import pytest

from hamrank.cli import main
from hamrank.exact import Mat, pattern_blocks
from hamrank.rankprob import (
    CompositionSpec,
    compose_semantics,
    hd_rank_problem,
    spec_to_json,
    symmetric_problem,
)

from . import reference
from .conftest import assert_loaded_ranks_are_dense
from .mutants import copy, dropped_keys, leaf_mutants

INEQUALITY = symmetric_problem(2, lambda x: Mat(1, 1, (x,)), (0, 1), name="neq")
SPEC = CompositionSpec(r=2, h=(0, 0, 1), inners=(INEQUALITY,) * 4)
EXACT_2_OF_6 = CompositionSpec(
    r=2, h=(0, 0, 1), inners=(hd_rank_problem(1, 1, (0, 1), seed=7),) * 6
)


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
    yield from copy_mutants(doc, rng)


def copy_mutants(doc, rng):
    """For each pattern block the table repeats (equal cuts over every
    index), its last copy with one drawn entry at one drawn index x set to
    that entry's value at another index y, so that copy alone changes, and
    its difference at (x, y) loses that entry."""
    table = [Mat.from_json(m) for m in doc["a"]]
    width = table[0].shape[1]
    copies = {}
    for rows, cols in pattern_blocks(table):
        cells = [i * width + j for i in rows for j in cols]
        cut = tuple(tuple(m.entries[t] for t in cells) for m in table)
        copies.setdefault(cut, []).append(cells)
    for blocks in copies.values():
        if len(blocks) > 1:
            t = rng.choice(blocks[-1])
            x, y = rng.choice([
                (x, y)
                for x, y in itertools.permutations(range(len(table)), 2)
                if table[x].entries[t] != table[y].entries[t]
            ])
            mutant = copy(doc)
            mutant["a"][x]["entries"][t] = doc["a"][y]["entries"][t]
            yield f"copy:a/{x}/entries/{t}", mutant


def reference_violations(doc, spec_doc):
    """(violations, pairs): the reference's failing pairs of the rank
    problem ``doc`` against the semantics of ``spec_doc``, over every
    ordered pair of the spec's indices."""
    count = prod(len(entry["problem"]["a"]) for entry in spec_doc["inners"])
    truth = reference.spec_semantics(spec_doc)
    pairs = itertools.product(range(count), repeat=2)
    return reference.tally(reference.rank_failures(doc, pairs, truth))[0], count**2


@pytest.mark.parametrize("spec", [SPEC, EXACT_2_OF_6], ids=["neq-4", "exact-2-of-6"])
def test_compose_semantics_is_the_reference(spec):
    truth = reference.spec_semantics(spec_to_json(spec))
    for x, y in itertools.product(range(spec.index_count), repeat=2):
        got = compose_semantics(spec, spec.tuple_of(x), spec.tuple_of(y))
        assert got == truth(x, y), (x, y)


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
    doc = json.loads((built / "rp.json").read_text())
    spec = json.loads((built / "spec.json").read_text())
    assert reference_violations(doc, spec) == (0, 256)
    rng = random.Random("rp-mutants")
    mutants = [
        *leaf_mutants(doc, lambda path: path[0] == "a", rng, 80),
        *structural_mutants(doc, rng),
    ]
    assert "provenance/composition_spec:retype" in dict(mutants)
    statuses, tables = set(), set()
    for name, mutant in mutants:
        report = verify(built, mutant)
        statuses.add(report["status"])
        if name == "provenance/composition_spec:retype":
            # the recorded spec, now a list, is refused by its field's name
            assert report["status"] == "failed"
            assert report["error"].startswith("InputError: cannot load "), name
            assert report["error"].endswith(
                ": InputError: provenance.composition_spec ['spec.json'] "
                "is not a string"
            ), report["error"]
        if report["status"] == "certified":
            pairs = report["verification"]["pairs_checked"]
            assert reference_violations(mutant, spec) == (0, pairs), name
            # the loaded ranks depend on the table alone
            table = json.dumps([reference.matrix(m) for m in mutant["a"]])
            if table not in tables:
                tables.add(table)
                assert_loaded_ranks_are_dense(mutant)
    # both outcomes occur, so the property is not vacuous either way
    assert statuses == {"certified", "failed"}


def spec_mutants(doc):
    """Every op on every leaf, each key dropped, and each bit of h flipped."""
    yield from leaf_mutants(doc, lambda path: False, random.Random(), 0)
    yield from dropped_keys(doc)
    for t in range(len(doc["h"])):
        mutant = copy(doc)
        mutant["h"][t] ^= 1
        yield f"flip:h/{t}", mutant


def test_a_certified_spec_mutant_is_correct_by_the_reference(tmp_path):
    spec, out, report = (tmp_path / name for name in ("spec.json", "rp.json", "r.json"))
    statuses = set()
    for name, mutant in spec_mutants(spec_to_json(SPEC)):
        spec.write_text(json.dumps(mutant))
        out.unlink(missing_ok=True)
        report.unlink(missing_ok=True)
        argv = ["compose", "--spec", str(spec), "--seed", "3", "--out", str(out)]
        code = main(argv + ["--report", str(report)])
        got = json.loads(report.read_text())
        assert got["schema"] == "hamrank-report/1", name
        assert code == (0 if got["status"] == "certified" else 1), name
        statuses.add(got["status"])
        if got["status"] == "certified":
            pairs = got["verification"]["pairs_checked"]
            built = json.loads(out.read_text())
            violations = reference_violations(built, mutant)
            assert violations == (0, pairs), name
            for entry in mutant["inners"]:
                assert_loaded_ranks_are_dense(entry["problem"])
    assert statuses == {"certified", "failed"}
