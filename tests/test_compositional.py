import importlib
import random

import pytest
from hypothesis import given

from afsm import (
    GuardExceeded,
    InitialStateMismatch,
    QuotientSelfLoop,
    arena_quotient,
    comp_bisimulation,
    expand,
    induce_fsm,
    is_bisimilar,
    is_comp_bisimilar,
    is_isomorphic,
    load_fixture,
    machine_classes,
    max_bisimulation,
    quotient,
    reduce,
    self_partition,
    state_count,
    validate_arena,
    validate_fsm,
)
from afsm import bisim, compositional
from afsm.compositional import ClassCoverageGap
from afsm.formats import serialize_fsm
from conftest import bloated_copy, hyp_arenas, random_arena, random_fsm, renamed_copy

# the module, which the package's ``expand`` function shadows
expand_module = importlib.import_module("afsm.expand")


def two_loop_machine():
    return validate_fsm(
        "Q", ["q0"], ["a", "b"], [], {"q0": []},
        [("q0", ["a"], "q0"), ("q0", ["b"], "q0")], initial="q0",
    )


def test_machine_classes_of_counterexample_arenas():
    doc = load_fixture("counterexample.afsm")
    a1 = doc.arenas["A1"]
    a2 = doc.arenas["A2"]
    classes = machine_classes(a1, a2)
    # M2 appears in both arenas and shares a class; every other machine
    # is alone (M4 in particular is bisimilar to none of M1..M3)
    blocks = set(classes.classes)
    assert frozenset({(0, "v2"), (1, "w2")}) in blocks
    assert frozenset({(1, "w4")}) in blocks
    assert len(blocks) == 4


def test_machine_classes_tokens_are_stable():
    doc = load_fixture("counterexample.afsm")
    classes = machine_classes(doc.arenas["A1"])
    assert classes.tokens() == ("C0", "C1", "C2")
    assert classes.token_of(0, "v1") == "C0"


def test_machine_classes_agree_with_pairwise_check():
    rng = random.Random(4001)
    cases = [(random_arena(rng), None) for _ in range(15)]
    # with and without initial states (the totality convention): two
    # random arenas, and an arena whose vertices carry distinct but
    # bisimilar Fsm objects next to the arena they were copied from
    for with_initial in (True, False):
        for _ in range(10):
            a1 = random_arena(rng, "a1", with_initial=with_initial)
            cases.append((a1, random_arena(rng, "a2", with_initial=with_initial)))
            copies = {
                v: bloated_copy(rng, renamed_copy(rng, fsm, "t"), f"c{i}")
                for i, (v, fsm) in enumerate(a1.vertices)
            }
            cases.append((a1, validate_arena("a2", copies, a1.edges)))
    for a1, a2 in cases:
        classes = machine_classes(a1, a2)
        tagged = [(0, v, fsm) for v, fsm in a1.vertices]
        if a2 is not None:
            tagged += [(1, v, fsm) for v, fsm in a2.vertices]
        for t, v, m in tagged:
            for u, w, n in tagged:
                same = classes.token_of(t, v) == classes.token_of(u, w)
                assert same == is_bisimilar(m, n)


def test_machine_classes_reject_mixed_initial_presence():
    with_init = random_fsm(random.Random(1), "a", with_initial=True)
    without = random_fsm(random.Random(2), "b", with_initial=False)
    arena = validate_arena("mix", {"v": with_init, "w": without}, [])
    with pytest.raises(InitialStateMismatch):
        machine_classes(arena)


def test_machine_classes_refine_each_distinct_machine_once(monkeypatch):
    # one arena parsed from two documents: equal machines, distinct objects
    a1 = load_fixture("ecoli.afsm").arenas["ecoli"]
    a2 = load_fixture("ecoli.afsm").arenas["ecoli"]
    assert dict(a1.vertices)["LacZ"] is not dict(a2.vertices)["LacZ"]
    refined = []
    blocks = compositional._blocks
    monkeypatch.setattr(compositional, "_blocks", lambda *ms: refined.extend(ms) or blocks(*ms))
    classes = machine_classes(a1, a2)
    assert sorted(m.id for m in refined) == sorted({fsm.id for _, fsm in a1.vertices})
    for v in a1.vertex_ids:
        assert classes.token_of(0, v) == classes.token_of(1, v)


def test_induce_fsm_shape():
    doc = load_fixture("counterexample.afsm")
    a2 = doc.arenas["A2"]
    classes = machine_classes(a2)
    f = induce_fsm(a2, classes)
    assert f.states == ("w2", "w4")
    assert f.initial is None
    assert f.transitions == (("w2", frozenset(), "w4"),)
    assert f.output_map["w2"] != f.output_map["w4"]


def test_induce_fsm_requires_covering_classes():
    doc = load_fixture("counterexample.afsm")
    classes = machine_classes(doc.arenas["A2"])
    with pytest.raises(ClassCoverageGap):
        induce_fsm(doc.arenas["A1"], classes)


def test_counterexample_arenas_not_comp_bisimilar():
    doc = load_fixture("counterexample.afsm")
    assert not is_comp_bisimilar(doc.arenas["A1"], doc.arenas["A2"])
    assert is_comp_bisimilar(doc.arenas["A1"], doc.arenas["A1"])


def test_comp_bisimulation_matches_induced_machine_bisimulation():
    rng = random.Random(4002)
    for _ in range(20):
        a1 = random_arena(rng, "a1")
        a2 = random_arena(rng, "a2")
        classes = machine_classes(a1, a2)
        f1 = induce_fsm(a1, classes, 0)
        f2 = induce_fsm(a2, classes, 1)
        assert is_comp_bisimilar(a1, a2) == is_bisimilar(f1, f2)
        assert comp_bisimulation(a1, a2) == max_bisimulation(f1, f2)


def _outcome(call, *args):
    """``call``'s result, or its error class and message."""
    try:
        return call(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def _induced_quotient(arena):
    # the arena quotient as the induced machine defines it: one vertex
    # per block of its self-partition, named after the least member
    rep = {
        v: min(block)
        for block in self_partition(induce_fsm(arena, machine_classes(arena)))
        for v in block
    }
    machines = dict(arena.vertices)
    edges = set()
    for a, b in arena.edges:
        if rep[a] == rep[b]:
            raise QuotientSelfLoop(
                f"arena {arena.id}: edge ({a!r}, {b!r}) connects two vertices of one block"
            )
        edges.add((rep[a], rep[b]))
    return validate_arena(f"{arena.id}_min", {v: machines[v] for v in rep.values()}, edges)


@given(hyp_arenas(), hyp_arenas())
def test_integer_compositional_path_matches_the_induced_machines(a1, a2):
    def on_machines(decide):
        # ``decide`` on the two induced machines, as the reference path
        def call(a1, a2):
            classes = machine_classes(a1, a2)
            return decide(induce_fsm(a1, classes, 0), induce_fsm(a2, classes, 1))
        return call

    assert _outcome(is_comp_bisimilar, a1, a2) == _outcome(on_machines(is_bisimilar), a1, a2)
    assert _outcome(comp_bisimulation, a1, a2) == _outcome(on_machines(max_bisimulation), a1, a2)
    for arena in (a1, a2):
        assert _outcome(arena_quotient, arena) == _outcome(_induced_quotient, arena)


def test_comp_bisim_invariant_under_vertex_and_state_renaming():
    rng = random.Random(4003)
    for _ in range(10):
        a1 = random_arena(rng, "a1")
        renamed = {
            v: renamed_copy(rng, fsm, f"{fsm.id}r") for v, fsm in a1.vertices
        }
        mapping = {v: f"w{i}" for i, (v, _) in enumerate(a1.vertices)}
        a2 = validate_arena(
            "a2",
            {mapping[v]: renamed[v] for v, _ in a1.vertices},
            [(mapping[x], mapping[y]) for x, y in a1.edges],
        )
        assert is_comp_bisimilar(a1, a2)


def test_arena_vertex_partition_refines_classes_by_edges():
    m = two_loop_machine()
    # identical machines but only one vertex has an outgoing edge:
    # same machine class, different blocks
    arena = validate_arena("a", {"v1": m, "v2": m, "v3": m}, [("v1", "v3")])
    assert len(machine_classes(arena).classes) == 1
    # v2 and v3 form one block, named after v2; v1 is a block of its own
    q = arena_quotient(arena)
    assert q.vertex_ids == ("v1", "v2")
    assert q.edges == (("v1", "v2"),)


def test_arena_quotient_of_one_directed_edge_pair_is_the_arena():
    m = two_loop_machine()
    arena = validate_arena("a", {"v1": m, "v2": m}, [("v1", "v2")])
    q = arena_quotient(arena)
    assert len(q.vertices) == 2
    assert q.edges == (("v1", "v2"),)


def test_arena_quotient_self_loop_error_on_two_cycle():
    m = two_loop_machine()
    arena = validate_arena("a", {"v1": m, "v2": m}, [("v1", "v2"), ("v2", "v1")])
    with pytest.raises(QuotientSelfLoop):
        arena_quotient(arena)


def test_arena_quotient_is_idempotent_and_comp_bisimilar():
    rng = random.Random(4004)
    done = 0
    while done < 20:
        arena = random_arena(rng)
        try:
            q = arena_quotient(arena)
        except QuotientSelfLoop:
            continue
        done += 1
        assert is_comp_bisimilar(arena, q)
        q2 = arena_quotient(q)
        assert len(q2.vertices) == len(q.vertices)
        assert len(q2.edges) == len(q.edges)


def test_ecoli_quotient_matches_published_minimal_arena():
    doc = load_fixture("ecoli.afsm")
    arena = doc.arenas["ecoli"]
    a_min = doc.arenas["ecoli_min"]
    q = arena_quotient(arena)
    assert len(q.vertices) == 9
    assert len(q.edges) == 18
    assert is_comp_bisimilar(arena, a_min)
    assert is_comp_bisimilar(q, a_min)


def test_reduce_singleton_arena_equals_direct_minimization():
    rng = random.Random(4005)
    for _ in range(10):
        m = random_fsm(rng, "m", with_initial=True)
        arena = validate_arena("solo", {"v": m}, [])
        minimal, report = reduce(arena)
        assert is_isomorphic(minimal, quotient(expand(arena, mode="full").fsm))
        assert report["classes"] == 1
        assert report["quotient_vertices"] == 1
        assert report["final_states"] == len(minimal.states)


def test_reduce_report_keys():
    doc = load_fixture("counterexample.afsm")
    _, report = reduce(doc.arenas["A2"])
    assert set(report) == {
        "classes",
        "quotient_vertices",
        "expanded_states",
        "expanded_transitions",
        "final_states",
        "final_transitions",
    }


def test_reduce_computes_the_classes_once(monkeypatch):
    arena = load_fixture("euclid.afsm").arenas["euclid"]
    n_classes = len(machine_classes(arena).classes)
    n_vertices = len(arena_quotient(arena).vertices)
    calls = []
    classes_of = compositional.machine_classes
    monkeypatch.setattr(
        compositional, "machine_classes", lambda *a: calls.append(1) or classes_of(*a)
    )
    _, report = reduce(arena)
    assert len(calls) == 1
    assert report["classes"] == n_classes
    assert report["quotient_vertices"] == n_vertices


@given(hyp_arenas())
def test_reduce_matches_the_full_expansion(arena):
    # with initial states reduce builds only the accessible part, without
    # them the whole product; either way the machine and the report are
    # those of the full expansion of the quotient arena
    try:
        a_min = arena_quotient(arena)
    except QuotientSelfLoop:
        with pytest.raises(QuotientSelfLoop):
            reduce(arena)
        return
    full = expand(a_min, mode="full")
    minimal, report = reduce(arena)
    assert serialize_fsm(minimal) == serialize_fsm(quotient(full.fsm))
    assert report["expanded_states"] == len(full.fsm.states)
    assert report["expanded_transitions"] == len(full.fsm.transitions)
    assert report["final_states"] == len(minimal.states)
    assert report["final_transitions"] == len(minimal.transitions)


@given(hyp_arenas())
def test_reduce_guard_fires_where_the_full_expansion_guard_does(arena):
    try:
        a_min = arena_quotient(arena)
    except QuotientSelfLoop:
        return
    n = state_count(a_min)
    for max_states in (n - 1, n):
        try:
            expand(a_min, mode="full", max_states=max_states)
        except GuardExceeded as exc:
            with pytest.raises(GuardExceeded) as fired:
                reduce(arena, max_states=max_states)
            assert fired.value.count == exc.count == n
        else:
            reduce(arena, max_states=max_states)


def test_reduce_counts_the_transitions_of_unreached_states():
    # v's two self-loops {a} and {a,b} lead to one target.  Beside w's
    # move {b} (in q1) both give the label {a,b}, one transition; beside a
    # silent move (in q0 and q2) they stay two.  Only q0 is reached, so q1
    # and q2 are counted by the count-only pass, which must tell the two
    # cases apart: 2 + 1 + 2 transitions.
    p = validate_fsm(
        "P", ["p0"], ["a", "b"], [], {"p0": []},
        [("p0", ["a"], "p0"), ("p0", ["a", "b"], "p0")], initial="p0",
    )
    q = validate_fsm(
        "Q", ["q0", "q1", "q2"], ["b"], [], {"q0": [], "q1": [], "q2": []},
        [("q0", [], "q0"), ("q1", ["b"], "q1"), ("q2", [], "q2")], initial="q0",
    )
    arena = validate_arena("pq", {"v": p, "w": q}, [])
    full = expand(arena, mode="full")
    assert len(full.fsm.transitions) == 5
    _, report = reduce(arena)
    assert report["expanded_states"] == 3
    assert report["expanded_transitions"] == 5


def test_reduce_computes_the_moves_of_each_state_at_most_once(monkeypatch):
    rng = random.Random(4006)
    arenas = [load_fixture("euclid.afsm").arenas["euclid"]]
    arenas += [random_arena(rng, with_initial=i % 2 == 0) for i in range(20)]
    seen = []
    successors = expand_module._Expander.successors
    monkeypatch.setattr(
        expand_module._Expander, "successors", lambda ex, ds: seen.append(ds) or successors(ex, ds)
    )
    for arena in arenas:
        seen.clear()
        try:
            reduce(arena)
        except QuotientSelfLoop:
            continue
        assert len(seen) == len(set(seen))


def test_reduce_of_ecoli_names_only_the_reachable_states(monkeypatch):
    named = []
    name_of = expand_module.composite_name
    monkeypatch.setattr(expand_module, "composite_name", lambda p: named.append(p) or name_of(p))
    minimal, report = reduce(load_fixture("ecoli.afsm").arenas["ecoli"])
    assert 0 < len(named) <= 306
    assert report["expanded_states"] == 55296
    assert report["expanded_transitions"] == 400000
    assert len(minimal.states) == report["final_states"] == 48


def test_reduce_of_ecoli_computes_the_moves_of_the_reachable_states_only(monkeypatch):
    # no machine state of E. coli's quotient arena has two moves into one
    # target, so the full product's transitions are counted without
    # visiting any of the 54,990 unreached states
    seen = []
    successors = expand_module._Expander.successors
    monkeypatch.setattr(
        expand_module._Expander, "successors", lambda ex, ds: seen.append(ds) or successors(ex, ds)
    )
    _, report = reduce(load_fixture("ecoli.afsm").arenas["ecoli"])
    assert 0 < len(seen) <= 306
    assert report["expanded_transitions"] == 400000


def test_reduce_names_a_block_after_its_least_name_not_its_least_code():
    # "-" sorts below ".", so the least code of the one block, a.b, is not
    # its least name, a-.b
    x = validate_fsm("X", ["a", "a-"], [], [], {"a": [], "a-": []}, [("a", [], "a-"), ("a-", [], "a")])
    y = validate_fsm("Y", ["b", "z"], [], [], {"b": [], "z": []}, [("b", [], "z"), ("z", [], "b")])
    arena = validate_arena("xy", {"v0": x, "v1": y}, [("v0", "v1")])
    minimal, _ = reduce(arena)
    direct = quotient(expand(arena_quotient(arena), mode="full").fsm)
    assert serialize_fsm(minimal) == serialize_fsm(direct)
    assert minimal.states == ("a-.b",)


def test_reduce_builds_only_the_minimal_machine(monkeypatch):
    rng = random.Random(4007)
    arenas = [load_fixture("euclid.afsm").arenas["euclid"], load_fixture("ecoli.afsm").arenas["ecoli"]]
    arenas += [random_arena(rng, with_initial=i % 2 == 0) for i in range(20)]
    called = []

    def spy(name, original):
        return lambda *args: called.append(name) or original(*args)

    assemble = expand_module._Expander.assemble
    monkeypatch.setattr(expand_module._Expander, "assemble", spy("assemble", assemble))
    for module in (bisim, compositional):  # every binding of quotient that reduce could reach
        if hasattr(module, "quotient"):
            monkeypatch.setattr(module, "quotient", spy("quotient", module.quotient))
    reduced = 0
    for arena in arenas:
        try:
            minimal, report = reduce(arena)
        except QuotientSelfLoop:
            continue
        reduced += 1
        assert len(minimal.states) == report["final_states"]
    assert reduced > 10
    assert called == []


def test_ecoli_reduction_agrees_with_the_direct_path():
    # the accessible expansion of the 17-vertex arena (73,746 states)
    # quotients to the machine that reduce builds from the 9-vertex
    # quotient arena: on the paper's own example the reduction holds from
    # the initial state, though merging vertices is unsound in general
    arena = load_fixture("ecoli.afsm").arenas["ecoli"]
    direct = quotient(expand(arena, mode="accessible").fsm)
    minimal, _ = reduce(arena)
    assert len(direct.states) == 48
    assert is_isomorphic(direct, minimal)


def test_expansion_preservation_has_a_genuine_counterexample():
    # Merging compositionally equivalent vertices is NOT sound for the
    # expansion semantics: composite labels are unions of component
    # labels, so two concurrent copies of this machine produce an {a,b}
    # step that a single copy cannot.  This documents the defect; the
    # reduction pipeline is therefore a heuristic, not an equivalence.
    q = two_loop_machine()
    a1 = validate_arena("two", {"v1": q, "v2": q}, [])
    a2 = validate_arena("one", {"w": q}, [])
    assert is_comp_bisimilar(a1, a2)
    m1 = expand(a1, mode="full").fsm
    m2 = expand(a2, mode="full").fsm
    assert not is_bisimilar(m1, m2)
