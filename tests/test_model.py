import ast
import contextlib
import dataclasses
import gc
import operator
import random
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from afsm import (
    expand,
    induce_fsm,
    load_fixture,
    machine_classes,
    parse,
    quotient,
    record,
    reduce,
    symbol,
    symbol_set,
    validate_arena,
    validate_fsm,
)
from afsm import model
from afsm.formats import serialize_fsm
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
from conftest import hyp_arenas, hyp_fsms, hyp_machines, random_fsm


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
    # successors are read from the copy's own transitions: a copy without
    # transitions has none
    bare = dataclasses.replace(m, transitions=())
    assert bare.successors("1") == []
    assert bare.successors("2") == []
    # and takes no part in equality
    assert m == make_m1()
    assert bare == dataclasses.replace(make_m1(), transitions=())


def shuffled_text(m, rng) -> str:
    """The text of ``m`` with its state lines, and its transition lines, in shuffled order."""
    lines = serialize_fsm(m).split("\n")
    states = [line for line in lines if line.startswith("  state ")]
    trans = [line for line in lines if line.startswith("  trans ")]
    rest = [line for line in lines if line not in states and line not in trans]
    rng.shuffle(states)
    rng.shuffle(trans)
    return "\n".join(rest[:3] + states + rest[3:-1] + trans + rest[-1:]) + "\n"


@given(hyp_machines("m"), hyp_fsms("f", True), hyp_arenas(), st.randoms(use_true_random=False))
def test_every_builder_hands_over_where_each_state_starts(m, f, arena, rng):
    # successors(s) reads the transitions from where the machine says the
    # moves of s start; they must be exactly the transitions out of s, for
    # whichever code built the machine and put its transitions in order
    names = [f"r{i}" for i in range(len(m.states))]
    rng.shuffle(names)
    built = [m, f, quotient(m), quotient(f), m.renamed("r", dict(zip(m.states, names)))]
    for x in (m, f):
        built += [parse(serialize_fsm(x)).fsms[x.id], parse(shuffled_text(x, rng)).fsms[x.id]]
    modes = ["full", "accessible"] if all(v.initial is not None for _, v in arena.vertices) else ["full"]
    for mode in modes:
        flat = expand(arena, mode=mode).fsm
        built += [flat, quotient(flat)]
    built.append(induce_fsm(arena, machine_classes(arena)))
    for x in built:
        moves = {s: [] for s in x.states}
        for src, label, dst in x.transitions:
            moves[src].append((label, dst))
        assert {s: x.successors(s) for s in x.states} == moves


def test_where_states_start_is_outside_equality_hash_and_repr():
    m = make_m1()
    other = dataclasses.replace(m, _starts={"1": 1, "2": 0})
    assert m == other and hash(m) == hash(other)
    assert repr(m) == repr(other) and "_starts" not in repr(m)


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
    # model._reach is the one walk that turns a machine's states into
    # positions, all of them or those its initial state reaches: it alone
    # enumerates a machine's states, and it and Fsm.successors alone read
    # where each state's transitions start
    def reads_starts(node):
        return node.attr == "_starts" and isinstance(node.ctx, ast.Load)

    def enumerates_states(call):
        return (
            isinstance(call.func, ast.Name)
            and call.func.id == "enumerate"
            and bool(call.args)
            and isinstance(call.args[0], ast.Attribute)
            and call.args[0].attr == "states"
        )

    assert calls_in_package(enumerates_states) == {"model.py": ["_reach"]}
    assert calls_in_package(reads_starts, ast.Attribute) == {"model.py": ["successors", "_reach"]}


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


def test_a_string_is_not_a_set_of_its_characters():
    # a bare str would otherwise be read as a set of one-character tokens
    def fault(**changed):
        args = dict(states=["x"], inputs=["e", "n", "d"], outputs=["e", "n", "d"],
                    output_map={"x": ["end"]}, transitions=[("x", ["e"], "x")])
        args.update(changed)
        with pytest.raises(ModelError) as exc:
            validate_fsm("m", **args)
        return type(exc.value), str(exc.value)

    assert fault(output_map={"x": "end"}) == (
        BadSymbol, "expected a set of symbols, got the string 'end'",
    )
    assert fault(transitions=[("x", "end", "x")])[0] is BadSymbol
    assert fault(inputs="end")[0] is BadSymbol
    assert fault(outputs="end")[0] is BadSymbol
    assert fault(states="xy", output_map={"x": [], "y": []}) == (
        ModelError, "fsm m: expected a set of state ids, got the string 'xy'",
    )
    with pytest.raises(BadSymbol, match="'ab'"):
        symbol_set("ab")
    # a one-symbol set is still read from any other iterable
    assert symbol_set(("ab",)) == frozenset({"ab"})


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



def test_stages_keep_nothing_outside_a_record():
    arena = load_fixture("ecoli.afsm").arenas["ecoli"]
    with record() as entries:
        pass
    reduce(arena)
    assert entries == []
    assert model._entries is None


def test_the_record_of_reduce_holds_its_stages_at_their_depths():
    arena = load_fixture("ecoli.afsm").arenas["ecoli"]
    with record() as entries:
        minimal, _ = reduce(arena)
    assert [(e["stage"], e["depth"]) for e in entries] == [
        ("reduce", 0),
        ("machine_classes", 1), ("_blocks", 2), ("_refine", 3),
        ("_arena_quotient", 1), ("_refine", 2),
        ("explore", 1),
        ("minimal", 1), ("_refine", 2),
        ("count_transitions", 1),
    ]
    explore = entries[6]
    assert (explore["mode"], explore["states"]) == ("accessible", 306)
    last = entries[8]
    assert (last["states"], last["blocks"]) == (306, len(minimal.states))
    assert last["moves"] > last["states"]
    assert explore["transitions"] == last["moves"]  # one move per successor explored


@pytest.mark.parametrize("mode", ["full", "accessible"])
def test_the_record_holds_the_sizes_of_explore_and_quotient(mode):
    name, path = ("ecoli_min", "ecoli.afsm") if mode == "accessible" else ("euclid", "euclid.afsm")
    arena = load_fixture(path).arenas[name]
    with record() as entries:
        flat = expand(arena, mode=mode).fsm
        minimal = quotient(flat)
    (explore,) = [e for e in entries if e["stage"] == "explore"]
    assert (explore["mode"], explore["states"]) == (mode, len(flat.states))
    assert explore["transitions"] == len(flat.transitions)
    (q,) = [e for e in entries if e["stage"] == "quotient"]
    assert (q["states"], q["states_out"]) == (len(flat.states), len(minimal.states))
    assert q["depth"] == 0 and q["states_out"] < q["states"]


def test_self_times_and_inner_totals_fit_in_their_stage():
    arena = load_fixture("euclid.afsm").arenas["euclid"]
    with record() as entries:
        quotient(expand(arena, mode="full").fsm)
    assert {e["stage"] for e in entries} >= {"expand", "explore", "_walk", "assemble", "quotient"}
    for i, e in enumerate(entries):
        assert 0 <= e["self_s"] <= e["total_s"]
        inner = []
        for later in entries[i + 1:]:
            if later["depth"] <= e["depth"]:
                break
            if later["depth"] == e["depth"] + 1:
                inner.append(later["total_s"])
        assert sum(inner) <= e["total_s"]
        assert e["self_s"] == pytest.approx(e["total_s"] - sum(inner), abs=1e-9)


@pytest.mark.parametrize("recording", [False, True])
@pytest.mark.parametrize("enabled", [True, False])
def test_a_stage_that_raises_restores_the_collector(enabled, recording):
    arena = load_fixture("ecoli.afsm").arenas["ecoli"]
    before = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        with record() if recording else contextlib.nullcontext([]) as entries:
            with pytest.raises(model.ModelError):
                expand(arena, mode="accessible", max_states=50)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if before else gc.disable)()
    # the stages that raised are timed too
    assert [e["stage"] for e in entries] == (["expand", "explore"] if recording else [])
    assert all(e["total_s"] >= 0 for e in entries)


def test_only_the_stage_wrapper_pauses_the_collector():
    # model.stage is the one place that turns the cyclic collector off
    def disables_gc(call):
        func = call.func
        return (
            isinstance(func, ast.Attribute)
            and func.attr == "disable"
            and isinstance(func.value, ast.Name)
            and func.value.id == "gc"
        )

    assert calls_in_package(disables_gc) == {"model.py": ["staged"]}


def test_the_timing_script_reads_no_private_name():
    # tests/stage_timing.py reads the library through its public names and
    # the stage record only, so refactoring private code cannot break it
    script = Path(__file__).resolve().parent / "stage_timing.py"
    private = []
    for node in ast.walk(ast.parse(script.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.ImportFrom):
            names = [*(node.module or "").split("."), *(a.name for a in node.names)]
        elif isinstance(node, ast.Import):
            names = [part for a in node.names for part in a.name.split(".")]
        else:
            continue
        private += [n for n in names if n.startswith("_") and not n.startswith("__")]
    assert private == []
