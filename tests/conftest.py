"""Shared generators for the property campaigns.

All randomness is seeded per-test via ``random.Random`` so failures are
reproducible.  The Hypothesis strategies run under the derandomized
``tier1`` profile for the same reason; failures they find shrink to
minimal arenas.
"""

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

from hypothesis import settings, strategies as st

import afsm
from afsm import load_fixture, validate_arena, validate_fsm

settings.register_profile(
    "tier1", derandomize=True, database=None, deadline=None, max_examples=150
)
settings.load_profile("tier1")

# filled by test_acceptance, printed at the end of the run
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def random_fsm(rng, fid="m", max_states=6, max_inputs=3, max_outputs=3,
               max_trans=10, with_initial=True):
    n = rng.randint(1, max_states)
    states = [f"s{i}" for i in range(n)]
    inputs = [f"a{i}" for i in range(rng.randint(0, max_inputs))]
    outputs = [f"y{i}" for i in range(rng.randint(0, max_outputs))]
    output_map = {
        s: rng.sample(outputs, rng.randint(0, len(outputs))) for s in states
    }
    trans = set()
    for _ in range(rng.randint(0, max_trans)):
        label = frozenset(rng.sample(inputs, rng.randint(0, len(inputs))))
        trans.add((rng.choice(states), label, rng.choice(states)))
    return validate_fsm(
        fid, states, inputs, outputs, output_map, trans,
        initial=states[0] if with_initial else None,
    )


def random_arena(rng, aid="a", max_vertices=4, max_states=4, edge_p=0.3,
                 with_initial=True):
    """Small arena; machines are drawn from a pool so duplicates are common."""
    nv = rng.randint(1, max_vertices)
    pool = [
        random_fsm(rng, f"m{i}", max_states=max_states, max_inputs=2,
                   max_outputs=2, max_trans=6, with_initial=with_initial)
        for i in range(rng.randint(1, nv))
    ]
    vertices = {f"v{i}": rng.choice(pool) for i in range(nv)}
    edges = [
        (a, b)
        for a, b in itertools.permutations(sorted(vertices), 2)
        if rng.random() < edge_p
    ]
    return validate_arena(aid, vertices, edges)


def renamed_copy(rng, fsm, new_id):
    """Same machine with shuffled fresh state names (an isomorphic copy)."""
    names = [f"t{i}" for i in range(len(fsm.states))]
    rng.shuffle(names)
    return fsm.renamed(new_id, dict(zip(fsm.states, names)))


def bloated_copy(rng, fsm, new_id):
    """A bisimilar but larger machine: one state is split into two clones."""
    victim = rng.choice(fsm.states)
    clone = "dup0"
    states = list(fsm.states) + [clone]
    output_map = {s: fsm.output_map[s] for s in fsm.states}
    output_map[clone] = fsm.output_map[victim]
    trans = list(fsm.transitions)
    trans += [(clone, u, d) for (s, u, d) in fsm.transitions if s == victim]
    # redirect a random subset of the victim's incoming edges to the clone
    # (the clone may end up unreachable; it is bisimilar to the victim
    # either way)
    redirected = []
    for (s, u, d) in trans:
        if d == victim and rng.random() < 0.5:
            redirected.append((s, u, clone))
        else:
            redirected.append((s, u, d))
    return validate_fsm(
        new_id, states, fsm.inputs, fsm.outputs, output_map, redirected,
        initial=fsm.initial,
    )


def ecoli_subset(*dropped):
    """``ecoli_min`` of the E. coli fixture without the vertices ``dropped``, as arena ``sub``.

    Without ``AraB`` and ``GalE`` its full product has 3,456 states.
    """
    base = load_fixture("ecoli.afsm").arenas["ecoli_min"]
    vertices = {v: m for v, m in base.vertices if v not in dropped}
    edges = [(a, b) for a, b in base.edges if a not in dropped and b not in dropped]
    return validate_arena("sub", vertices, edges)


def random_document(rng):
    """A small in-memory model document (machines plus arenas)."""
    from afsm.formats import ModelDocument

    fsms = {}
    for i in range(rng.randint(1, 3)):
        m = random_fsm(rng, f"M{i}", max_states=4, max_trans=6,
                       with_initial=rng.random() < 0.7)
        fsms[m.id] = m
    arenas = {}
    for i in range(rng.randint(0, 2)):
        nv = rng.randint(1, 3)
        names = {f"v{j}": rng.choice(sorted(fsms)) for j in range(nv)}
        vertices = {v: fsms[n] for v, n in names.items()}
        edges = [
            (a, b)
            for a, b in itertools.permutations(sorted(vertices), 2)
            if rng.random() < 0.4
        ]
        arena = validate_arena(f"A{i}", vertices, edges)
        arenas[arena.id] = arena
    return ModelDocument(fsms=fsms, arenas=arenas)


# state ids with dots and pluses exercise the composite-name escape; one
# pool of symbols serves as inputs and outputs, so outputs strip labels
HYP_STATE_IDS = ["s", "t", "s.1", "1.t", "x+y", "x.y"]
HYP_SYMBOLS = ["a", "b", "c"]


def _subset(symbols, mask):
    return [x for k, x in enumerate(symbols) if mask >> k & 1]


@st.composite
def hyp_fsms(draw, fid, with_initial):
    # symbol sets are drawn as bitmasks, which keeps generation cheap
    states = draw(st.lists(st.sampled_from(HYP_STATE_IDS), min_size=1, max_size=3, unique=True))
    sets = st.sampled_from(range(8))
    inputs = _subset(HYP_SYMBOLS, draw(sets))
    outputs = _subset(HYP_SYMBOLS, draw(sets))
    output_map = {s: _subset(outputs, draw(sets)) for s in states}
    # a state without outgoing transitions deadlocks the composite
    transitions = [
        (src, _subset(inputs, label), dst)
        for src, label, dst in draw(st.lists(
            st.tuples(st.sampled_from(states), sets, st.sampled_from(states)), max_size=5
        ))
    ]
    initial = draw(st.sampled_from(states)) if with_initial else None
    return validate_fsm(fid, states, inputs, outputs, output_map, transitions, initial=initial)


@st.composite
def hyp_arenas(draw):
    """Arena of 1-4 vertices, with or without initial states; vertices may share machines."""
    with_initial = draw(st.booleans())
    pool = [draw(hyp_fsms(f"m{i}", with_initial)) for i in range(draw(st.integers(1, 2)))]
    n = draw(st.sampled_from(range(1, 5)))
    vertices = {f"v{i}": pool[draw(st.integers(0, len(pool) - 1))] for i in range(n)}
    pairs = list(itertools.permutations(sorted(vertices), 2))
    edges = [pair for pair in pairs if draw(st.booleans())]
    return validate_arena("h", vertices, edges)


# label sets of the raw machines below; few symbols and one output give
# deep bisimulation structure
HYP_LABELS = [(), ("a",), ("a", "b")]


@st.composite
def hyp_machines(draw, fid):
    """Machine of 1-14 states and 1-3 labels, without an initial state.

    It mixes the shapes that stress refinement: a chain whose last state
    alone outputs ``end``, clones that copy a chain state's move and may
    take over the move into it, same-label fan-out from one state to
    several targets, and states without moves (deadlocks).
    """
    n = draw(st.integers(1, 14))
    states = [f"s{i}" for i in range(n)]
    labels = draw(st.lists(st.sampled_from(HYP_LABELS), min_size=1, max_size=3, unique=True))
    length = draw(st.integers(1, n))
    output_map = {s: [] for s in states}
    output_map[states[length - 1]] = ["end"]
    transitions = {(states[i], labels[0], states[i + 1]) for i in range(length - 1)}
    for clone in states[length:]:
        if draw(st.booleans()):
            i = draw(st.integers(0, length - 1))
            output_map[clone] = output_map[states[i]]
            if i < length - 1:
                transitions.add((clone, labels[0], states[i + 1]))
            if i > 0 and draw(st.booleans()):
                transitions.discard((states[i - 1], labels[0], states[i]))
                transitions.add((states[i - 1], labels[0], clone))
    for src, label, targets in draw(st.lists(st.tuples(
        st.sampled_from(states),
        st.sampled_from(labels),
        st.lists(st.sampled_from(states), min_size=1, max_size=4, unique=True),
    ), max_size=6)):
        transitions.update((src, label, dst) for dst in targets)
    return validate_fsm(fid, states, ["a", "b"], ["end"], output_map, transitions)


def fresh_trace(setup: str, call: str, text: str = "") -> tuple:
    """The traced (size, peak) of the result of ``call`` in a fresh interpreter.

    Earlier tests in this process can move a peak measured here, so
    ``call`` is evaluated in a new one, after ``setup`` has run untraced
    with ``text`` on its stdin.  The size is what is still traced while
    the result is held.
    """
    code = (
        f"import sys, tracemalloc\n{setup}\n"
        "tracemalloc.start()\n"
        f"result = {call}\n"
        "print(*tracemalloc.get_traced_memory())\n"
    )
    src = Path(afsm.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), str(Path(__file__).parent)])}
    done = subprocess.run(
        [sys.executable, "-c", code], input=text, env=env, capture_output=True,
        encoding="utf-8", check=True, timeout=60,
    )
    return tuple(map(int, done.stdout.split()))


def parse_peak(text: str) -> int:
    """The traced peak of ``parse(text)`` in a fresh interpreter."""
    return fresh_trace("from afsm import parse\ntext = sys.stdin.read()", "parse(text)", text)[1]


def random_machine_text() -> str:
    """A 2,000-state machine of 12,000 transitions, listed in no particular order."""
    rng = random.Random(2)
    n, labels = 2000, ("{}", "{a}", "{b}", "{a,b}", "{a,c}", "{a,b,c}")
    text = "fsm big\n  inputs {a,b,c}\n  outputs {y,z}\n"
    text += "".join(f"  state q{i:04d} {rng.choice(('{}', '{y}', '{y,z}'))}\n" for i in range(n))
    text += "".join(
        f"  trans q{rng.randrange(n):04d} {rng.choice(labels)} q{rng.randrange(n):04d}\n"
        for _ in range(12000)
    )
    return text + "  initial q0000\nend\n"
