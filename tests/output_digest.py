"""sha256 digests of the library's outputs, to show that a change keeps them byte-identical.

Run from the root of a checkout, on both commits, and compare the lines::

    PYTHONPATH=src python3 tests/output_digest.py

The script re-runs itself under ``PYTHONHASHSEED=0``.  It hashes, for every
arena of the shipped fixtures, 1,500 ``random_arena`` arenas (seed 7) and
the arenas of 1,000 ``random_document`` documents (seed 11):
``reduce``'s machine with its sorted report, and ``expand`` in both modes
with its ``parts`` and the ``quotient`` of its machine.  For every machine
of the fixtures and 3,000 ``random_fsm`` machines (seed 3) it hashes the
``quotient``.  It also hashes ``serialize(parse(text))`` of the fixtures and
of the 1,000 documents.  A call that raises contributes its error class
and message instead.  pytest does not collect this file.

It prints one sha256 per section (the documents; their machines and
arenas; the random arenas; the random machines), so that a mismatch names
its section, and then the sha256 over all of them in that order.

A last line hashes the verdicts on arena pairs: every ordered pair of
arenas within each fixture, 1,000 pairs of ``random_arena`` arenas (seed
13), each arena declaring initial states with probability 0.7, and the
first arena of each of those pairs with a copy whose every machine is
``bloated_copy``'d, which it is compositionally bisimilar to.  Per
pair it hashes ``is_comp_bisimilar``, the sorted ``comp_bisimulation``,
the ``serialize_arena`` of both ``arena_quotient`` results and, where
both full expansions have an initial state, ``is_bisimilar`` of those
expansions.  It is printed apart so that the line before it still
compares with older versions of this script.
"""

import hashlib
import os
import random
import sys

from afsm import (
    arena_quotient,
    comp_bisimulation,
    expand,
    fixture_path,
    is_bisimilar,
    is_comp_bisimilar,
    parse,
    quotient,
    reduce,
    serialize,
    validate_arena,
)
from afsm.formats import serialize_arena, serialize_fsm
from conftest import bloated_copy, random_arena, random_document, random_fsm

FIXTURES = ("euclid.afsm", "counterexample.afsm", "ecoli.afsm")
MAX_STATES = 60_000  # above ecoli_min's 55,296 states


def outcome(call, *args, **kwargs):
    """``call``'s result, or its error as text."""
    try:
        return call(*args, **kwargs)
    except ValueError as exc:  # the base of every library error
        return f"{type(exc).__name__}: {exc}"


def machine_text(m) -> str:
    return m if isinstance(m, str) else serialize_fsm(m)


def arena_texts(arena):
    got = outcome(reduce, arena, max_states=MAX_STATES)
    if isinstance(got, str):
        yield got
    else:
        yield serialize_fsm(got[0]) + repr(sorted(got[1].items()))
    for mode in ("full", "accessible"):
        flat = outcome(expand, arena, mode=mode, max_states=MAX_STATES)
        if isinstance(flat, str):
            yield flat
        else:
            yield serialize_fsm(flat.fsm) + repr(sorted(flat.parts.items()))
            yield machine_text(outcome(quotient, flat.fsm))


def document_texts(docs):
    """``serialize(parse(text))`` of the fixtures and 1,000 random documents, kept in ``docs``."""
    for name in FIXTURES:
        text = fixture_path(name).read_text(encoding="utf-8")
        docs.append(parse(text))
        yield serialize(docs[-1])
    rng = random.Random(11)
    for _ in range(1000):
        docs.append(parse(serialize(random_document(rng))))
        yield serialize(docs[-1])


def document_machine_texts(docs):
    for doc in docs:
        for name in sorted(doc.fsms):
            yield machine_text(outcome(quotient, doc.fsms[name]))
        for name in sorted(doc.arenas):
            yield from arena_texts(doc.arenas[name])


def random_arena_texts():
    rng = random.Random(7)
    for _ in range(1500):
        yield from arena_texts(random_arena(rng))


def random_machine_texts():
    rng = random.Random(3)
    for _ in range(3000):
        yield machine_text(outcome(quotient, random_fsm(rng)))


def arena_pairs():
    for name in FIXTURES:
        doc = parse(fixture_path(name).read_text(encoding="utf-8"))
        arenas = [doc.arenas[k] for k in sorted(doc.arenas)]
        yield from ((a, b) for a in arenas for b in arenas)
    rng = random.Random(13)
    for _ in range(1000):
        a = random_arena(rng, "a", with_initial=rng.random() < 0.7)
        yield a, random_arena(rng, "b", with_initial=rng.random() < 0.7)
        # and a compositionally bisimilar partner: each machine of ``a`` bloated
        bloated = {v: bloated_copy(rng, fsm, f"{fsm.id}b") for v, fsm in a.vertices}
        yield a, validate_arena("c", bloated, a.edges)


def verdict_texts():
    for a, b in arena_pairs():
        yield repr(outcome(is_comp_bisimilar, a, b))
        rel = outcome(comp_bisimulation, a, b)
        yield rel if isinstance(rel, str) else repr(sorted(rel))
        for arena in (a, b):
            q = outcome(arena_quotient, arena)
            yield q if isinstance(q, str) else serialize_arena(q)
        m1, m2 = (outcome(expand, x, mode="full", max_states=MAX_STATES) for x in (a, b))
        if isinstance(m1, str) or isinstance(m2, str):
            continue
        if m1.fsm.initial is not None and m2.fsm.initial is not None:
            yield repr(is_bisimilar(m1.fsm, m2.fsm))


def main() -> None:
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": "0"})
    docs = []  # filled by the first section, read by the second
    sections = (
        ("documents", document_texts(docs)),
        ("document machines and arenas", document_machine_texts(docs)),
        ("random arenas", random_arena_texts()),
        ("random machines", random_machine_texts()),
    )
    digest = hashlib.sha256()
    for name, texts in sections:
        part = hashlib.sha256()
        for text in texts:
            data = text.encode("utf-8") + b"\0"
            part.update(data)
            digest.update(data)
        print(part.hexdigest(), name)
    print(digest.hexdigest())
    part = hashlib.sha256()
    for text in verdict_texts():
        part.update(text.encode("utf-8") + b"\0")
    print(part.hexdigest(), "verdicts of arena pairs")


if __name__ == "__main__":
    main()
