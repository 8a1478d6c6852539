"""A seeded JSON mutator shared by the damaged-document tests: leaf
mutations (retyped, nulled, +1, negated, zeroed, scaled) and dropped
dict keys."""

import json
import re

DECIMAL = re.compile(r"-?[0-9]+")

NUMERIC_OPS = {
    "plus-one": lambda v: v + 1,
    "negate": lambda v: -v,
    "zero": lambda v: 0,
    "scale": lambda v: v * 1_000_003,
}


def leaves(doc, path=()):
    """Every (path, value) of a JSON leaf, not a dict or a list, in ``doc``."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        yield path, doc
        return
    for key, value in items:
        yield from leaves(value, (*path, key))


def keys(doc, path=()):
    """The path of every dict key in ``doc``."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield (*path, key)
            yield from keys(value, (*path, key))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from keys(value, (*path, i))


def numeric(value):
    """The integer a document leaf writes, or None: a JSON int, not a bool,
    or a decimal string."""
    if type(value) is int:
        return value
    if type(value) is str and DECIMAL.fullmatch(value):
        return int(value)
    return None


def ops(value):
    """The mutations that apply to a leaf: the numeric ones to integers only."""
    return ["retype", "null", *(NUMERIC_OPS if numeric(value) is not None else ())]


def mutated(value, op):
    """``value`` under one leaf mutation; a numeric op keeps the leaf's type."""
    if op == "null":
        return None
    if op == "retype":
        if type(value) is str:
            return [value] if numeric(value) is None else int(value)
        return int(value) if type(value) is bool else str(value)
    got = NUMERIC_OPS[op](numeric(value))
    return str(got) if type(value) is str else got


def at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def copy(doc):
    return json.loads(json.dumps(doc))


def leaf_mutants(doc, drawn, rng, count):
    """One leaf under one op: every op on every leaf whose path ``drawn``
    refuses, and ``count`` (leaf, op) pairs of the others, drawn by ``rng``."""
    pairs = [(path, value, op) for path, value in leaves(doc) for op in ops(value)]
    inside = [pair for pair in pairs if drawn(pair[0])]
    outside = [pair for pair in pairs if not drawn(pair[0])]
    for path, value, op in outside + rng.sample(inside, count):
        mutant = copy(doc)
        *head, last = path
        at(mutant, head)[last] = mutated(value, op)
        yield f"{'/'.join(map(str, path))}:{op}", mutant


def dropped_keys(doc):
    """One mutant per dict key of ``doc``, with that key deleted."""
    for path in keys(doc):
        mutant = copy(doc)
        *head, last = path
        del at(mutant, head)[last]
        yield f"drop:{'/'.join(map(str, path))}", mutant
