import ast
import gc
import itertools
import random
import time
import weakref
from pathlib import Path

import pytest
from hypothesis import given

from afsm import (
    expand,
    is_bisimilar,
    load_fixture,
    state_count,
    validate_arena,
    validate_fsm,
)
from afsm.expand import (
    GuardExceeded,
    NoInitialState,
    _Expander,
    composite_name,
)
from afsm.cli import _bench_arena, _bench_machine
from afsm.model import _label_key
from conftest import hyp_arenas, random_arena
from oracles import ArityMismatch, UnknownComponentState, composite_successors


def euclid_arena():
    return load_fixture("euclid.afsm").arenas["euclid"]


def test_accessible_expansion_of_euclid_is_exact():
    comp = expand(euclid_arena(), mode="accessible")
    assert comp.fsm.initial == "1.3.5"
    assert set(comp.fsm.states) == {"1.3.5", "2.4.6", "1.3.7"}
    assert set(comp.fsm.transitions) == {
        ("1.3.5", frozenset({"z1", "z2"}), "2.4.6"),
        ("2.4.6", frozenset(), "1.3.7"),
        ("1.3.7", frozenset({"z1", "z2"}), "2.4.6"),
    }
    assert comp.fsm.output_map["1.3.5"] == frozenset()
    assert comp.fsm.output_map["2.4.6"] == frozenset({"z1sq", "z2sq"})
    assert comp.fsm.output_map["1.3.7"] == frozenset({"norm_z"})


def test_composite_successors_strips_predecessor_outputs():
    arena = euclid_arena()
    # the aggregator's {z1sq,z2sq} demand is fully supplied by the two
    # squaring units' current outputs, so the composite label is empty
    assert composite_successors(arena, ("2", "4", "6")) == {
        (frozenset(), ("1", "3", "7"))
    }
    assert composite_successors(arena, ("1", "3", "5")) == {
        (frozenset({"z1", "z2"}), ("2", "4", "6"))
    }


def test_full_mode_enumerates_whole_product():
    arena = euclid_arena()
    comp = expand(arena, mode="full")
    assert state_count(arena) == 2 * 2 * 3
    assert len(comp.fsm.states) == 12
    acc = expand(arena, mode="accessible")
    assert set(acc.fsm.states) <= set(comp.fsm.states)
    assert set(acc.fsm.transitions) <= set(comp.fsm.transitions)


def test_expansion_is_deterministic():
    a = expand(euclid_arena(), mode="full")
    b = expand(euclid_arena(), mode="full")
    assert a.fsm == b.fsm


def test_single_vertex_arena_expansion_is_the_machine_itself():
    doc = load_fixture("euclid.afsm")
    m1 = doc.fsms["M1"]
    arena = validate_arena("solo", {"v": m1}, [])
    comp = expand(arena, mode="full")
    # 1-tuple wrapping only: same states, labels and outputs
    assert set(comp.fsm.states) == set(m1.states)
    assert set(comp.fsm.transitions) == set(m1.transitions)
    assert comp.fsm.initial == m1.initial


def test_deadlock_states_have_no_outgoing_transitions():
    dead = validate_fsm(
        "dead", ["ok", "stuck"], ["a"], [], {"ok": [], "stuck": []},
        [("ok", ["a"], "stuck")], initial="ok",
    )
    live = validate_fsm(
        "live", ["x"], [], [], {"x": []}, [("x", [], "x")], initial="x",
    )
    arena = validate_arena("d", {"v": dead, "w": live}, [])
    comp = expand(arena, mode="full")
    blocked = [s for s in comp.fsm.states if comp.parts[s][0] == "stuck"]
    assert blocked
    for s in blocked:
        assert not comp.fsm.successors(s)


def test_label_union_merges_duplicate_composite_transitions():
    # one state, two self-loops: with two concurrent copies the label
    # {a,b} arises from both mixed choices, which collapse to one triple
    q = validate_fsm(
        "Q", ["q0"], ["a", "b"], [], {"q0": []},
        [("q0", ["a"], "q0"), ("q0", ["b"], "q0")], initial="q0",
    )
    arena = validate_arena("two", {"v1": q, "v2": q}, [])
    comp = expand(arena, mode="full")
    labels = {u for _, u, _ in comp.fsm.transitions}
    assert labels == {
        frozenset({"a"}),
        frozenset({"b"}),
        frozenset({"a", "b"}),
    }
    assert len(comp.fsm.transitions) == 3


def test_composite_labels_stay_within_input_alphabet_union():
    rng = random.Random(3001)
    for _ in range(15):
        arena = random_arena(rng)
        alphabet = set()
        for _, fsm in arena.vertices:
            alphabet |= fsm.inputs
        comp = expand(arena, mode="full", max_states=10**5)
        for _, u, _ in comp.fsm.transitions:
            assert set(u) <= alphabet


def test_full_state_count_matches_analytic_value():
    rng = random.Random(3002)
    for _ in range(15):
        arena = random_arena(rng)
        comp = expand(arena, mode="full", max_states=10**5)
        assert len(comp.fsm.states) == state_count(arena)
        assert set(comp.parts.values()) == set(
            itertools.product(*[fsm.states for _, fsm in arena.vertices])
        )


def test_guard_exceeded_reports_analytic_count():
    arena = load_fixture("ecoli.afsm").arenas["ecoli"]
    with pytest.raises(GuardExceeded) as exc:
        expand(arena, mode="full")
    assert exc.value.count == 3623878656


def test_accessible_guard_reports_states_seen():
    arena = load_fixture("ecoli.afsm").arenas["ecoli"]
    with pytest.raises(GuardExceeded) as exc:
        expand(arena, mode="accessible", max_states=50)
    assert exc.value.count == 51


def test_the_accessible_guard_counts_the_initial_state():
    m = validate_fsm("m", ["s"], [], [], {"s": []}, [("s", [], "s")], initial="s")
    arena = validate_arena("one", {"v": m}, [])
    for mode in ("full", "accessible"):
        with pytest.raises(GuardExceeded) as exc:
            expand(arena, mode=mode, max_states=0)
        assert exc.value.count == 1
        assert len(expand(arena, mode=mode, max_states=1).fsm.states) == 1


@pytest.mark.parametrize("enabled", [True, False])
def test_expand_restores_the_gc_state_when_the_guard_fires(enabled, monkeypatch):
    arena = load_fixture("ecoli.afsm").arenas["ecoli"]
    during = []
    successors = _Expander.successors
    monkeypatch.setattr(
        _Expander, "successors", lambda ex, ds: during.append(gc.isenabled()) or successors(ex, ds)
    )
    before = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        with pytest.raises(GuardExceeded):
            expand(arena, mode="accessible", max_states=50)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if before else gc.disable)()
    # the guard fired partway through exploring, with the collector paused
    assert during and not any(during)


def test_an_expander_is_freed_without_the_cyclic_collector():
    # the fold closes over the expander's tables, not over the expander, so
    # no cycle outlives an expansion that runs with the collector paused
    ex = _Expander(euclid_arena())
    ex.explore("full", 100)
    ex.explore("accessible", 100)
    freed = weakref.ref(ex)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del ex
        assert freed() is None
    finally:
        if enabled:
            gc.enable()


def test_composite_names_are_injective_on_dotted_state_ids():
    # "a" + "b.c" and "a.b" + "c" would both join to "a.b.c"
    def two_cycle(fid, states):
        x, y = states
        return validate_fsm(
            fid, states, [], [], {s: [] for s in states},
            [(x, [], y), (y, [], x)], initial=x,
        )

    arena = validate_arena(
        "dots",
        {"v": two_cycle("A", ["a", "a.b"]), "w": two_cycle("B", ["c", "b.c"])},
        [],
    )
    comp = expand(arena, mode="full")
    assert len(comp.fsm.states) == len(comp.parts) == 4
    assert set(comp.parts.values()) == set(
        itertools.product(["a", "a.b"], ["c", "b.c"])
    )
    assert comp.parts[comp.fsm.initial] == ("a", "c")
    for src, _, dst in comp.fsm.transitions:
        a, c = comp.parts[src]
        assert comp.parts[dst] == (
            "a.b" if a == "a" else "a", "b.c" if c == "c" else "c"
        )


def test_accessible_mode_requires_initial_states():
    m = validate_fsm("m", ["x"], [], [], {"x": []}, [("x", [], "x")])
    arena = validate_arena("a", {"v": m}, [])
    with pytest.raises(NoInitialState):
        expand(arena, mode="accessible")
    assert len(expand(arena, mode="full").fsm.states) == 1


def test_composite_successors_errors():
    arena = euclid_arena()
    with pytest.raises(ArityMismatch):
        composite_successors(arena, ("1", "3"))
    with pytest.raises(UnknownComponentState):
        composite_successors(arena, ("1", "3", "ghost"))


def test_the_reference_semantics_imports_nothing_from_the_library():
    # the oracle is an independent reference only while it shares no code
    # with the expansion it checks
    def imported_modules(node):
        if isinstance(node, ast.Import):
            return [alias.name for alias in node.names]
        if isinstance(node, ast.ImportFrom):
            return ["." * node.level + (node.module or "")]
        return []

    tree = ast.parse((Path(__file__).resolve().parent / "oracles.py").read_text(encoding="utf-8"))
    found = [name for node in ast.walk(tree) for name in imported_modules(node)]
    assert found  # the scan sees the oracle's own imports
    assert not [name for name in found if name.split(".")[0] in ("afsm", "")]


def test_expand_rejects_unknown_mode():
    with pytest.raises(ValueError):
        expand(euclid_arena(), mode="lazy")


def test_accessible_equals_reachable_part_of_full():
    rng = random.Random(3003)
    for _ in range(10):
        arena = random_arena(rng, with_initial=True)
        full = expand(arena, mode="full", max_states=10**5)
        acc = expand(arena, mode="accessible", max_states=10**5)
        # both carry the initial composite and are bisimilar from it
        assert acc.fsm.initial == full.fsm.initial
        assert is_bisimilar(acc.fsm, full.fsm)


def reference_states(arena, mode):
    """State tuples of an expansion, from the machines and composite_successors."""
    machines = [fsm for _, fsm in arena.vertices]
    if mode == "full":
        return set(itertools.product(*(m.states for m in machines)))
    seen = {tuple(m.initial for m in machines)}
    frontier = list(seen)
    while frontier:
        for _, dst in composite_successors(arena, frontier.pop()):
            if dst not in seen:
                seen.add(dst)
                frontier.append(dst)
    return seen


@given(hyp_arenas())
def test_expansion_matches_the_reference_semantics(arena):
    machines = [fsm for _, fsm in arena.vertices]
    initial = tuple(m.initial for m in machines)
    for mode in ("full", "accessible"):
        if None in initial and mode == "accessible":
            with pytest.raises(NoInitialState):
                expand(arena, mode=mode)
            continue
        comp = expand(arena, mode=mode)
        states = reference_states(arena, mode)

        # parts inverts the names, and the names are the composite names
        name = {p: s for s, p in comp.parts.items()}
        assert set(comp.parts) == set(comp.fsm.states)
        assert set(name) == states and len(name) == len(comp.fsm.states)
        assert all(s == composite_name(p) for s, p in comp.parts.items())
        assert comp.fsm.initial == (None if None in initial else name[initial])
        assert comp.vertex_order == arena.vertex_ids

        expected = {
            (name[p], label, name[q])
            for p in states
            for label, q in composite_successors(arena, p)
        }
        assert set(comp.fsm.transitions) == expected
        assert len(comp.fsm.transitions) == len(expected)
        assert comp.fsm.output_map == {
            name[p]: frozenset().union(*(m.output_map[s] for m, s in zip(machines, p)))
            for p in states
        }

        # canonical order
        assert list(comp.fsm.states) == sorted(comp.fsm.states)
        assert list(comp.fsm.transitions) == sorted(
            comp.fsm.transitions, key=lambda t: (t[0], _label_key(t[1]), t[2])
        )
        assert comp.fsm.inputs == frozenset().union(*(m.inputs for m in machines))
        assert comp.fsm.outputs == frozenset().union(*(m.outputs for m in machines))


def machine(fid, moves, outputs=None):
    """A machine with ``moves`` (src, label, dst); ``outputs`` maps states to output sets."""
    outputs = outputs or {}
    states = sorted({s for s, _, _ in moves} | {d for _, _, d in moves} | set(outputs))
    inputs = sorted({x for _, label, _ in moves for x in label})
    return validate_fsm(
        fid, states, inputs, sorted({y for ys in outputs.values() for y in ys}),
        {s: outputs.get(s, []) for s in states}, moves,
    )


def assert_counts_the_full_expansion(arena):
    # no successors found beforehand, so every transition is counted
    full = expand(arena, mode="full").fsm
    assert _Expander(arena).count_transitions([], []) == len(full.transitions)


def late_predecessor_arena():
    # a0 moves to a0 on {x} and on {x,y}; b, after a in vertex order,
    # outputs y in b1, which strips the two moves to one
    a = machine("A", [("a0", ["x"], "a0"), ("a0", ["x", "y"], "a0"), ("a0", [], "a1"), ("a1", [], "a0")])
    b = machine("B", [("b0", [], "b1"), ("b1", [], "b0")], {"b1": ["y"]})
    return validate_arena("late", {"a": a, "b": b}, [("b", "a")])


def deadlocked_last_vertex_arena():
    # z, last in vertex order, cannot move in z1; x branches on z's output
    x = machine("X", [("x0", ["p"], "x0"), ("x0", ["p", "q"], "x0"), ("x0", ["p"], "x1"), ("x1", [], "x0")])
    y = machine("Y", [("y0", ["q"], "y1"), ("y1", [], "y0"), ("y1", ["q"], "y1")], {"y0": ["q"]})
    z = machine("Z", [("z0", [], "z1"), ("z0", ["p"], "z0")], {"z0": ["q"], "z1": ["p"]})
    return validate_arena("dead", {"x": x, "y": y, "z": z}, [("z", "x"), ("x", "y"), ("y", "z")])


def complete_digraph_arena():
    m = machine(
        "M",
        [("s0", ["a"], "s0"), ("s0", ["a", "b"], "s0"), ("s0", ["b"], "s1"),
         ("s1", [], "s0"), ("s1", ["a"], "s1")],
        {"s0": ["a"], "s1": ["b"]},
    )
    n = machine("N", [("t0", ["b"], "t1"), ("t1", ["a"], "t0"), ("t1", [], "t1")], {"t1": ["a", "b"]})
    vertices = {"v0": m, "v1": n, "v2": m, "v3": n}
    return validate_arena("k4", vertices, list(itertools.permutations(vertices, 2)))


def branching_hub_arena():
    # the hub's moves {a} and {a,b} into h0 give one label beside a leaf's
    # single move {b}, and two beside a silent one; leaves strip b in l1
    hub = machine("H", [("h0", ["a"], "h0"), ("h0", ["a", "b"], "h0"), ("h0", ["c"], "h1"), ("h1", ["a"], "h0")])
    leaf = machine("L", [("l0", ["b"], "l1"), ("l1", [], "l0")], {"l1": ["b"]})
    vertices = {"hub": hub, **{f"leaf{i}": leaf for i in range(3)}}
    return validate_arena("star", vertices, [(f"leaf{i}", "hub") for i in range(3)])


def test_count_keeps_a_vertex_whose_predecessor_comes_later():
    arena = late_predecessor_arena()
    assert arena.vertex_ids == ("a", "b")
    assert_counts_the_full_expansion(arena)


def test_count_drops_every_state_of_a_deadlocked_last_vertex():
    arena = deadlocked_last_vertex_arena()
    assert _Expander(arena).count_transitions([], []) > 0
    assert_counts_the_full_expansion(arena)


def test_count_on_a_complete_digraph():
    assert_counts_the_full_expansion(complete_digraph_arena())


def test_count_on_a_star_whose_hub_branches():
    assert_counts_the_full_expansion(branching_hub_arena())


@given(hyp_arenas())
def test_count_transitions_matches_the_full_expansion(arena):
    assert_counts_the_full_expansion(arena)


def assert_the_walk_matches_each_state(arena):
    """``explore("full")`` against the successors and outputs of each state on its own."""
    codes, names, outputs, succ = _Expander(arena).explore("full", 10**5)
    machines = [fsm for _, fsm in arena.vertices]
    assert list(codes) == list(range(state_count(arena)))
    parts = list(itertools.product(*(m.states for m in machines)))
    assert names == list(map(composite_name, parts))
    ref = _Expander(arena)  # its own caches, filled state by state
    low = (1 << ref.shift) - 1
    for code in codes:
        want = ref.successors(ref.decode(code))
        assert set(succ[code]) == set(want) and len(succ[code]) == len(want)
        # the walk and successors share the fold, so the oracle checks it too
        assert {(ref.symbol_set(p), parts[p & low]) for p in succ[code]} == composite_successors(
            arena, parts[code]
        )
        assert ref.symbol_set(outputs[code]) == frozenset().union(
            *(m.output_map[s] for m, s in zip(machines, parts[code]))
        )


@given(hyp_arenas())
def test_the_walk_matches_each_state(arena):
    assert_the_walk_matches_each_state(arena)


@pytest.mark.parametrize(
    "build",
    [
        late_predecessor_arena,
        deadlocked_last_vertex_arena,
        complete_digraph_arena,
        branching_hub_arena,
    ],
)
def test_the_walk_matches_each_state_when_a_predecessor_comes_after_its_reader(build):
    arena = build()
    at = {v: i for i, v in enumerate(arena.vertex_ids)}
    assert any(at[a] > at[b] for a, b in arena.edges)
    assert_the_walk_matches_each_state(arena)


def test_a_single_move_merges_the_successors_it_makes_equal():
    # a forks into a0 on {x} and on {}; b, which reads a and so comes later
    # in the walk, has the single move {x}, which covers the one bit in
    # which a's two partial successors differ: a0.b0 has one successor
    a = machine("A", [("a0", ["x"], "a0"), ("a0", [], "a0")])
    b = machine("B", [("b0", ["x"], "b0")])
    arena = validate_arena("merge", {"a": a, "b": b}, [("a", "b")])
    comp = expand(arena, mode="full")
    assert set(comp.fsm.transitions) == {
        ("a0.b0", label, composite_name(dst))
        for label, dst in composite_successors(arena, ("a0", "b0"))
    } == {("a0.b0", frozenset({"x"}), "a0.b0")}
    # the machine holds each transition once whatever explore returns, so
    # the successors are counted where the walk writes them
    _, names, _, succ = _Expander(arena).explore("full", 1)
    assert names == ["a0.b0"]
    assert [len(s) for s in succ] == [len(composite_successors(arena, ("a0", "b0")))] == [1]


@pytest.mark.parametrize("family", ["path", "star"])
def test_a_full_expansion_of_2000_one_state_machines_takes_little_time(family):
    # the product has one state under 2,000 levels: a walk that recursed
    # per level would raise RecursionError, and a nesting order or place
    # values quadratic in the vertices would take a large part of the bound
    m = validate_fsm("M", ["s"], ["a"], ["b"], {"s": ["b"]}, [("s", ["a"], "s")], initial="s")
    ids = [f"v{i:04d}" for i in range(2000)]
    edges = list(zip(ids, ids[1:])) if family == "path" else [(v, ids[0]) for v in ids[1:]]
    arena = validate_arena(family, dict.fromkeys(ids, m), edges)
    t0 = time.perf_counter()
    comp = expand(arena, mode="full")
    elapsed = time.perf_counter() - t0
    assert len(comp.fsm.states) == len(comp.fsm.transitions) == 1
    assert elapsed < 0.5


@pytest.mark.parametrize("family", ["ring", "star"])
def test_counting_transitions_does_not_visit_the_states(family):
    # every state of the ping and pong machines has one move, so each of
    # the 2**n composite states has one transition; visiting the 524,288
    # states of n = 19 takes seconds
    ping, pong = _bench_machine("ping", "tick", "hot"), _bench_machine("pong", "tock", "cold")
    assert len(expand(_bench_arena(family, 6, ping, pong), mode="full").fsm.transitions) == 2**6
    arena = _bench_arena(family, 19, ping, pong)
    t0 = time.perf_counter()
    count = _Expander(arena).count_transitions([], [])
    elapsed = time.perf_counter() - t0
    assert count == state_count(arena) == 2**19
    assert elapsed < 1.0
