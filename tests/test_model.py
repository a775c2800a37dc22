import ast
import dataclasses
import operator
import random
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from afsm import (
    load_fixture,
    symbol,
    symbol_set,
    validate_arena,
    validate_fsm,
)
from afsm import model
from afsm.model import (
    AlphabetViolation,
    BadInitial,
    BadSymbol,
    DanglingEdge,
    EmptyStateSet,
    MissingState,
    ModelError,
    SelfLoop,
    UnknownMachine,
    _label_key,
)
from conftest import hyp_machines, random_fsm


def make_m1():
    return validate_fsm(
        "M1",
        ["1", "2"],
        ["z1"],
        ["z1sq"],
        {"1": [], "2": ["z1sq"]},
        [("1", ["z1"], "2"), ("2", [], "1")],
        initial="1",
    )


def test_symbols_validate_and_intern():
    assert symbol("CRP*") == "CRP*"
    assert symbol("z1'") == "z1'"
    assert symbol_set(["b", "a", "a"]) == frozenset({"a", "b"})
    with pytest.raises(BadSymbol):
        symbol("no spaces")
    with pytest.raises(BadSymbol):
        symbol("")
    with pytest.raises(BadSymbol):
        symbol_set(["ok", "{bad}"])


def test_validate_fsm_canonical_order():
    m = make_m1()
    assert m.states == ("1", "2")
    assert m.initial == "1"
    assert m.output_map["2"] == frozenset({"z1sq"})
    # transitions sorted by (src, label, dst); labels are frozensets
    assert m.transitions == (
        ("1", frozenset({"z1"}), "2"),
        ("2", frozenset(), "1"),
    )
    # building the same machine twice gives identical values
    assert make_m1() == m


def test_validate_fsm_deduplicates_transitions():
    m = validate_fsm(
        "m", ["x"], ["a"], [], {"x": []},
        [("x", ["a"], "x"), ("x", ("a",), "x")],
    )
    assert len(m.transitions) == 1


def test_validate_fsm_keeps_canonical_transitions_and_sets():
    # every transition, in any form, is rebuilt as a tuple of the declared
    # ids and the checked sets
    label, out = frozenset({"a"}), frozenset({"y"})
    kept = ("x", label, "y")
    copy = "".join(["x"])  # equal to a declared id, but another object
    m = validate_fsm(
        "m", ["x", "y"], ["a"], ["y"], {"x": out, "y": []},
        [kept, ["y", label, "x"], (copy, label, "x"), ("y", frozenset(["a"]), "y")],
    )
    assert len(m.transitions) == 4
    assert all(type(t) is tuple for t in m.transitions)
    assert m.transitions[0][0] is m.states[0]


def test_validate_fsm_errors():
    with pytest.raises(EmptyStateSet):
        validate_fsm("m", [], [], [], {}, [])
    with pytest.raises(BadInitial):
        validate_fsm("m", ["x"], [], [], {"x": []}, [], initial="y")
    with pytest.raises(MissingState):
        validate_fsm("m", ["x"], [], [], {"x": []}, [("x", [], "ghost")])
    with pytest.raises(MissingState):
        validate_fsm("m", ["x"], [], [], {}, [])  # no output set for x
    with pytest.raises(MissingState):
        validate_fsm("m", ["x"], [], [], {"x": [], "ghost": []}, [])
    with pytest.raises(BadSymbol):
        validate_fsm("m", ["x"], [], [], {"x": []}, [("x", [["a"]], "x")])
    with pytest.raises(AlphabetViolation):
        validate_fsm("m", ["x"], [], [], {"x": []}, [("x", ["u"], "x")])
    with pytest.raises(AlphabetViolation):
        validate_fsm("m", ["x"], [], [], {"x": ["y"]}, [])
    with pytest.raises(ModelError):
        validate_fsm("bad id!", ["x"], [], [], {"x": []}, [])


def test_transition_state_errors_report_the_first_fault():
    def fault(src, dst):
        with pytest.raises(ModelError) as exc:
            validate_fsm("m", ["x"], [], [], {"x": []}, [("x", [], "x"), (src, [], dst)])
        return type(exc.value), str(exc.value)

    invalid = (ModelError, "invalid state id token: 'bad id'")
    assert fault("bad id", "ghost") == invalid
    assert fault("ghost", "bad id") == invalid
    assert fault("x", "bad id") == invalid
    assert fault("ghost", "x") == (MissingState, "fsm m: transition source 'ghost' is not declared")
    assert fault("x", "ghost") == (MissingState, "fsm m: transition target 'ghost' is not declared")
    assert fault(["x"], "x") == (ModelError, "invalid state id token: ['x']")


def test_validate_fsm_checks_state_tokens_once_per_state(monkeypatch):
    # transitions between declared states are looked up, not re-checked
    calls = []
    token = model._token

    def spy(kind, name, *error):
        if kind != "symbol":  # symbols are checked once per distinct set
            calls.append(name)
        return token(kind, name, *error)

    monkeypatch.setattr(model, "_token", spy)
    states = [f"s{i}" for i in range(5)]
    trans = [(a, ["a"], b) for a in states for b in states]
    m = validate_fsm("m", states, ["a"], [], {s: [] for s in states}, trans)
    assert len(m.transitions) == 25
    assert len(calls) == 1 + len(states)  # the fsm id and the states


def test_transitions_are_ordered_by_the_label_key():
    # from one source, labels sort as tuples of their sorted symbols
    labels = [["b"], ["a", "c"], [], ["a"], ["c", "a", "b"]]
    m = validate_fsm(
        "m", ["x", "y"], ["a", "b", "c"], [], {"x": [], "y": []},
        [(s, u, d) for u in labels for s in ("y", "x") for d in ("y", "x")],
    )
    assert [tuple(sorted(u)) for s, u, d in m.transitions if s == "x" and d == "x"] == [
        (), ("a",), ("a", "b", "c"), ("a", "c"), ("b",),
    ]
    rng = random.Random(1003)
    for _ in range(200):
        m = random_fsm(rng, "m", max_trans=12)
        assert list(m.transitions) == sorted(
            m.transitions, key=lambda t: (t[0], _label_key(t[1]), t[2])
        )


@given(hyp_machines("m"), st.randoms(use_true_random=False))
def test_fsm_orders_any_listing_and_keeps_a_canonical_one(m, rng):
    # the trusted constructor puts any listing of the transitions in
    # canonical order, collapsing equal ones, and keeps a canonical listing
    # as given: the same tuple objects
    fields = (m.id, m.states[::-1], m.initial, m.inputs, m.outputs, m.output_map)
    canonical = list(m.transitions)
    shuffled = canonical[:]
    rng.shuffle(shuffled)
    # each transition twice in a row; equal ids that are other objects
    doubled = [t for t in canonical for _ in (0, 1)]
    copies = [(a[:1] + a[1:], u, d[:1] + d[1:]) for a, u, d in canonical]
    for listing in (canonical, shuffled, doubled, shuffled + canonical, copies, copies + shuffled):
        built = model._fsm(*fields, listing)
        assert built == m and built.transitions == m.transitions
    kept = model._fsm(*fields, canonical).transitions
    assert len(kept) == len(canonical) and all(map(operator.is_, kept, canonical))


def test_empty_label_and_empty_output_are_legal():
    m = validate_fsm("m", ["x"], [], [], {"x": []}, [("x", [], "x")])
    assert m.transitions == (("x", frozenset(), "x"),)
    assert m.output_map["x"] == frozenset()


def test_renamed_is_isomorphic_copy():
    m = make_m1()
    r = m.renamed("M1r", {"1": "a", "2": "b"})
    assert r.states == ("a", "b")
    assert r.initial == "a"
    assert r.output_map["b"] == m.output_map["2"]
    assert len(r.transitions) == len(m.transitions)


def test_renamed_rejects_a_mapping_that_merges_states():
    m = make_m1()
    with pytest.raises(ModelError, match="maps states '1' and '2' to 'a'"):
        m.renamed("M1r", {"1": "a", "2": "a"})


def test_renamed_rejects_a_mapping_that_leaves_out_a_state():
    m = make_m1()
    with pytest.raises(ModelError, match="fsm M1: renaming leaves state '2' unmapped"):
        m.renamed("M1r", {"1": "a"})


def test_successors():
    m = make_m1()
    assert m.successors("1") == [(frozenset({"z1"}), "2")]
    assert m.successors("2") == [(frozenset(), "1")]


def test_successors_of_a_replaced_machine_are_its_own():
    m = make_m1()
    assert m.successors("1") == [(frozenset({"z1"}), "2")]
    # the successor cache belongs to one machine: a copy with other
    # transitions computes its own
    bare = dataclasses.replace(m, transitions=())
    assert bare.successors("1") == []
    assert bare.successors("2") == []
    # and takes no part in equality
    assert m == make_m1()
    assert bare == dataclasses.replace(make_m1(), transitions=())


def test_machines_hash_by_value_without_reading_their_states_or_transitions():
    m = make_m1()
    # the hash covers id, initial state and alphabets only, so its cost
    # does not grow with the machine
    assert hash(m) == hash(dataclasses.replace(m, transitions=()))
    assert hash(m) == hash(dataclasses.replace(m, states=None, output_map=None, transitions=None))
    # equal machines built apart are one key; a machine that differs only
    # in what the hash skips is another
    assert len({m, make_m1()}) == 1
    assert len({m, dataclasses.replace(m, transitions=())}) == 2


def calls_in_package(matches, node_type=ast.Call):
    """File name -> enclosing function of every call in ``src/afsm/`` that ``matches``.

    ``node_type`` widens the scan from calls to other syntax nodes.
    """
    found = {}

    def visit(node, where, calls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, node_type) and matches(child):
                calls.append(where)
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where
            visit(child, inner, calls)

    for path in sorted(Path(model.__file__).parent.glob("*.py")):
        calls = []
        visit(ast.parse(path.read_text(encoding="utf-8")), None, calls)
        if calls:
            found[path.name] = calls
    return found


def test_only_the_trusted_constructor_builds_machines():
    # every Fsm is built by model._fsm, which owns the canonical order
    def builds_fsm(call):
        func = call.func
        return (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == "Fsm"

    assert calls_in_package(builds_fsm) == {"model.py": ["_fsm"]}


def test_only_the_indexer_numbers_states():
    # model._index is the one place all of a machine's states become positions
    def enumerates_states(call):
        return (
            isinstance(call.func, ast.Name)
            and call.func.id == "enumerate"
            and bool(call.args)
            and isinstance(call.args[0], ast.Attribute)
            and call.args[0].attr == "states"
        )

    assert calls_in_package(enumerates_states) == {"model.py": ["_index"]}


def test_only_the_one_fold_reads_the_stripped_moves():
    # expand's fold is the one place a vertex's moves are stripped, for the
    # full walk, the accessible walk and the transition count alike
    def reads_stripped(node):
        name = getattr(node, "id", None) or getattr(node, "attr", None)
        return name == "_stripped" and isinstance(node.ctx, ast.Load)

    assert calls_in_package(reads_stripped, (ast.Name, ast.Attribute)) == {"expand.py": ["fold"]}


def test_only_the_token_checker_reads_the_token_grammar():
    # model._token is the one checker of the token grammar; a reference
    # anywhere else (an import, an attribute, a name) would be a second one
    def names_the_grammar(node):
        name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
        return name == "TOKEN_RE"

    found = calls_in_package(names_the_grammar, (ast.Name, ast.Attribute, ast.alias))
    assert found == {"model.py": [None, "_token"]}  # its definition and its one reader


def test_validate_arena_and_predecessors():
    doc = load_fixture("euclid.afsm")
    arena = doc.arenas["euclid"]
    assert arena.vertex_ids == ("m1", "m2", "m3")
    assert {a for a, b in arena.edges if b == "m3"} == {"m1", "m2"}
    assert {a for a, b in arena.edges if b == "m1"} == set()
    machines = dict(arena.vertices)
    assert "nope" not in machines
    assert machines["m1"].id == "M1"
    assert arena == load_fixture("euclid.afsm").arenas["euclid"]


def test_validate_arena_errors():
    m = make_m1()
    with pytest.raises(SelfLoop):
        validate_arena("a", {"v": m}, [("v", "v")])
    with pytest.raises(DanglingEdge):
        validate_arena("a", {"v": m, "w": m}, [("v", "ghost")])
    with pytest.raises(DanglingEdge):
        validate_arena("a", {"v": m, "w": m}, [("ghost", "v")])
    with pytest.raises(UnknownMachine):
        validate_arena("a", {"v": "not a machine"}, [])
    with pytest.raises(ModelError):
        validate_arena("a", {}, [])


def test_validate_arena_reports_the_first_fault_of_the_description():
    # each id is checked just before the arena is built from it, so a bad
    # id comes after a fault of an earlier vertex or edge, and before one
    # of a later vertex or edge
    m = make_m1()

    def fault(vertices, edges):
        with pytest.raises(ModelError) as exc:
            validate_arena("a", vertices, edges)
        return type(exc.value), str(exc.value)

    invalid = (ModelError, "invalid vertex id token: 'bad id'")
    unattached = (UnknownMachine, "arena a: vertex 'v' has no machine attached")
    assert fault({"v": "no", "bad id": m}, []) == unattached
    assert fault({"bad id": "no", "v": m}, []) == invalid
    assert fault({"v": "no"}, [("bad id", "v")]) == unattached
    assert fault({"v": m}, [("v", "v"), ("bad id", "v")]) == (
        SelfLoop, "arena a: self-loop on vertex 'v'",
    )
    assert fault({"v": m}, [("bad id", "v"), ("v", "v")]) == invalid
    assert fault({"v": m}, [("v", "ghost"), ("v", "bad id")]) == (
        DanglingEdge, "arena a: edge target 'ghost' is not a vertex",
    )
    assert fault({}, [("bad id", "v")]) == (ModelError, "arena a: at least one vertex is required")
    with pytest.raises(ModelError, match="invalid arena id token: 'bad id'"):
        validate_arena("bad id", {}, [])


def test_arena_edge_deduplication_and_order():
    m = make_m1()
    arena = validate_arena(
        "a", {"v": m, "w": m}, [("w", "v"), ("v", "w"), ("v", "w")]
    )
    assert arena.edges == (("v", "w"), ("w", "v"))


def test_shared_machine_between_vertices():
    m = make_m1()
    arena = validate_arena("a", {"v": m, "w": m}, [])
    machines = dict(arena.vertices)
    assert machines["v"] is machines["w"]

