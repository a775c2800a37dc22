import random
import sys

import pytest
from hypothesis import given

from afsm import (
    QuotientSelfLoop,
    expand,
    export_dot,
    fixture_path,
    induce_fsm,
    load_fixture,
    machine_classes,
    parse,
    quotient,
    reduce,
    serialize,
    validate_fsm,
)
from afsm import formats, model
from afsm.formats import (
    DuplicateName,
    FormatError,
    MissingStateAtLine,
    serialize_arena,
    serialize_fsm,
)
from afsm.model import AlphabetViolation, BadSymbol, MissingState, ModelError
from conftest import fresh_trace, hyp_arenas, parse_peak, random_document, random_machine_text

FIXTURES = ("euclid.afsm", "counterexample.afsm", "ecoli.afsm")


def test_parse_euclid_document():
    doc = load_fixture("euclid.afsm")
    assert sorted(doc.fsms) == ["M1", "M2", "M3"]
    assert sorted(doc.arenas) == ["euclid"]
    m3 = doc.fsms["M3"]
    assert m3.states == ("5", "6", "7")
    assert m3.output_map["7"] == frozenset({"norm_z"})


def test_serialize_is_parse_fixpoint_on_fixtures():
    for name in FIXTURES:
        text = fixture_path(name).read_text(encoding="utf-8")
        doc = parse(text, source=name)
        canon = serialize(doc)
        again = parse(canon, source=name + ":canon")
        assert serialize(again) == canon
        assert again == doc


def test_serialization_preserves_vertex_machine_assignment():
    doc = load_fixture("ecoli.afsm")
    canon = serialize(doc)
    again = parse(canon)
    # LacA reuses the LacY shape; the node line must say so after a round
    # trip, not degrade to a copy
    assert again.arena_nodes["ecoli"]["LacA"] == "LacY"
    assert dict(again.arenas["ecoli"].vertices)["LacA"] is again.fsms["LacY"]


def test_declaration_order_is_irrelevant():
    a = parse(
        "fsm m\n  inputs {a}\n  outputs {}\n"
        "  state x {}\n  state y {}\n  initial x\n  trans x {a} y\nend\n"
    )
    b = parse(
        "fsm m\n  outputs {}\n  inputs {a}\n"
        "  state y {}\n  state x {}\n  trans x {a} y\n  initial x\nend\n"
    )
    assert a == b
    assert serialize(a) == serialize(b)


def test_comments_and_blank_lines_are_ignored():
    doc = parse(
        "# leading comment\n\n"
        "fsm m  # trailing comment\n"
        "  inputs {}\n  outputs {}\n"
        "  state x {}   # a state\n"
        "end\n"
    )
    assert doc.fsms["m"].states == ("x",)
    # CRLF line ends, a comment after a transition, and a form feed, which
    # ends a line as it does for str.splitlines
    doc = parse(
        "fsm m\r\n  inputs {a}\r\n  outputs {}\r\n  state x {}\f  state y {}\r\n"
        "  trans x {a} y  # a transition\r\nend\r\n"
    )
    assert doc.fsms["m"].states == ("x", "y")
    assert doc.fsms["m"].transitions == (("x", frozenset({"a"}), "y"),)


def test_trans_before_state_declaration_reports_line():
    text = "fsm m\n  inputs {a}\n  outputs {}\n  trans x {a} y\n  state x {}\nend\n"
    with pytest.raises(MissingStateAtLine) as exc:
        parse(text)
    assert isinstance(exc.value, MissingState)
    assert exc.value.line == 4
    assert "line 4" in str(exc.value)


def test_parse_error_line_numbers():
    cases = [
        ("fsm m\n  bogus x\nend\n", 2),
        ("state x {}\n", 1),
        ("fsm m\n  inputs {a b}\nend\n", 2),
        ("fsm m\n  inputs {a}\nfsm n\nend\n", 3),
        ("fsm m\n  inputs {}\n  outputs {}\n  state x {}\n", 4),
        ("arena a\n  node v ghost\nend\n", 2),
        ("fsm m\n  state x {}\nend\narena a\n  node v m\n  node w ghost\nend\n", 6),
        # the machine is checked at 'end' and reported at its opening line
        ("fsm m\n  inputs {}\n  outputs {}\n  state x {}\n  initial y\nend\n", 1),
        ("fsm m\n  inputs {a}\n  outputs {}\n  state x {}\n  trans x {b} x\nend\n", 1),
        ("fsm m\n  inputs {}\n  outputs {}\n  state x {y}\nend\n", 1),
        ("fsm m\n  inputs {}\n  outputs {}\nend\n", 1),
        # so is the arena
        ("fsm m\n  state x {}\nend\narena a\n  node v m\n  edge v v\nend\n", 4),
        ("fsm m\n  state x {}\nend\narena a\n  node v m\n  edge v w\nend\n", 4),
        ("fsm m\n  inputs a\nend\n", 2),
        ("fsm m extra\nend\n", 1),
        ("fsm m\nend x\n", 2),
        ("fsm m\n  inputs {}\n  inputs {}\nend\n", 3),
        ("fsm m\n  state x {}\n  initial x\n  initial x\nend\n", 4),
        ("fsm m\n  state x\nend\n", 2),
        ("fsm m\n  state x {}\n  initial\nend\n", 3),
        ("fsm m\n  state x {}\n  trans x {}\nend\n", 3),
        ("arena a\n  node v\nend\n", 2),
        ("fsm m\n  state x {}\nend\narena a\n  node v m\n  edge v\nend\n", 6),
        ("fsm m\n  state x {}\nend\narena a\n  node v m\n  node v m\nend\n", 6),
        ("arena a\n  bogus v\nend\n", 2),
        ("trans a {} b\n", 1, "outside any block"),
        ("fsm m\n  state x {}\nend\narena a\n  node v m\n  trans x {} x\nend\n", 6,
         "unknown directive 'trans' in arena block"),
        ("fsm m\n  state x {a, b}\nend\n", 2, "'state' takes an id and an output set"),
        ("fsm m\f  bogus x\nend\n", 2),  # a form feed ends a line
    ]
    for text, line, *message in cases:
        with pytest.raises(FormatError) as exc:
            parse(text)
        assert exc.value.line == line, text
        assert all(m in str(exc.value) for m in message), text


def test_invalid_symbol_in_a_repeated_set_is_reported_at_its_first_line():
    # set texts are checked once per parse; the first use still reports
    text = (
        "fsm m\n  inputs {a,b}\n  outputs {}\n  state x {}\n"
        "  trans x {a} x\n  trans x {a,b$} x\n  trans x {a,b$} x\nend\n"
    )
    with pytest.raises(FormatError) as exc:
        parse(text)
    assert exc.value.line == 6
    assert "'b$'" in str(exc.value)


def test_token_checks_do_not_grow_with_the_transitions(monkeypatch):
    # a declared state is a valid token and each distinct set text is
    # checked once, so m and 10 m transitions match the token grammar
    # equally often
    grammar = model.TOKEN_RE
    matched = []

    class Counting:
        def match(self, name):
            matched.append(name)
            return grammar.match(name)

    for module in (model, formats):  # every module that holds the grammar
        if hasattr(module, "TOKEN_RE"):
            monkeypatch.setattr(module, "TOKEN_RE", Counting())
    n, labels = 20, ("{}", "{a}", "{a,b}")

    def matches(m):
        matched.clear()
        text = "fsm m\n  inputs {a,b}\n  outputs {y}\n"
        text += "".join(f"  state s{i} {{y}}\n" for i in range(n))
        text += "".join(f"  trans s{i % n} {labels[i % 3]} s{i // n % n}\n" for i in range(m))
        assert len(parse(text + "end\n").fsms["m"].transitions) == m  # all distinct
        return len(matched)

    assert matches(100) == matches(1000) > 0


def test_parsed_transitions_hold_the_declared_state_ids(monkeypatch):
    # a trans line refers to the id objects its state lines declared, not
    # to copies cut from the line, and the machine keeps those tuples
    given = []
    build = formats._from_tokens
    monkeypatch.setattr(formats, "_from_tokens", lambda *args: given.append(args) or build(*args))
    m = parse(
        "fsm m\n  inputs {a}\n  outputs {}\n  state x {}\n  state y {}\n"
        "  trans x {a} y\n  trans y {} x\n  trans y {a} y\nend\n"
    ).fsms["m"]
    ((_, states, _, _, _, _, trans),) = given
    ids = {id(s) for s in states}
    assert len(trans) == 3 and all(id(a) in ids and id(b) in ids for a, _, b in trans)
    assert {id(t) for t in m.transitions} == {id(t) for t in trans}
    ids = {id(s) for s in m.states}
    assert all(id(a) in ids and id(b) in ids for a, _, b in m.transitions)


def test_parse_checks_each_arena_token_once(monkeypatch):
    # node and edge lines are checked at their line, and the arena is
    # built from them without checking its ids again; a machine name is
    # looked up among the defined machines, whose names are checked
    kinds = []
    token = model._token

    def spy(kind, name, *error):
        kinds.append(kind)
        return token(kind, name, *error)

    for module in (model, formats):
        monkeypatch.setattr(module, "_token", spy)
    doc = parse(
        "fsm m\n  inputs {}\n  outputs {}\n  state x {}\nend\n"
        "arena a\n  node v m\n  node w m\n  node u m\n  edge v w\n  edge w u\nend\n"
    )
    assert doc.arenas["a"].edges == (("v", "w"), ("w", "u"))
    assert [kinds.count(k) for k in ("arena name", "arena id", "vertex id", "machine name")] == [
        1, 0, 3 + 2 * 2, 0,
    ]
    with pytest.raises(FormatError, match="line 7: invalid machine name token: 'm!'"):
        parse("fsm m\n  inputs {}\n  outputs {}\n  state x {}\nend\narena a\n  node v m!\nend\n")


def test_parsed_state_ids_are_not_interned():
    # a transition shares the declared id object, so interning would only
    # grow the interned-string table, which never shrinks
    m = parse(
        "fsm m\n  inputs {a}\n  outputs {}\n  state parsed_id_7 {}\n"
        "  trans parsed_id_7 {a} parsed_id_7\nend\n"
    ).fsms["m"]
    (sid,) = m.states
    assert sys.intern("".join(sid)) is not sid
    assert m.transitions[0][0] is sid


def test_alphabet_faults_come_after_token_faults_and_name_the_first():
    # of two alphabet violations, validate_fsm and parse name the least state
    # id with an undeclared output, else the first transition listed with an
    # undeclared label; a bad token anywhere is reported before either
    def fault(call, *args):
        with pytest.raises(ModelError) as exc:
            call(*args)
        return type(exc.value), str(exc.value)

    def machine(output_map, transitions):
        return fault(validate_fsm, "m", ["b", "a"], ["i"], ["o"], output_map, transitions)

    def document(outputs, trans):
        return fault(parse, "fsm m\n  inputs {i}\n  outputs {o}\n"
                     f"  state b {outputs[0]}\n  state a {outputs[1]}\n"
                     + "".join(f"  trans {t}\n" for t in trans) + "end\n")

    outputs = "fsm m: output of state 'a' uses undeclared symbols ['q']"
    labels = "fsm m: transition label of 'b' uses undeclared symbols ['u']"
    assert machine({"b": ["p"], "a": ["q"]}, []) == (AlphabetViolation, outputs)
    assert document(["{p}", "{q}"], []) == (FormatError, f"line 1: {outputs}")
    two_labels = [("b", ["u"], "a"), ("a", ["v"], "b")]
    assert machine({"b": [], "a": []}, two_labels) == (AlphabetViolation, labels)
    assert document(["{}", "{}"], ["b {u} a", "a {v} b"]) == (FormatError, f"line 1: {labels}")
    both = "fsm m: output of state 'b' uses undeclared symbols ['p']"
    assert machine({"b": ["p"], "a": []}, two_labels) == (AlphabetViolation, both)
    assert document(["{p}", "{}"], ["b {u} a"]) == (FormatError, f"line 1: {both}")
    # a bad symbol after an alphabet violation
    bad = [("a", ["u"], "b"), ("b", ["{c}"], "a")]
    assert machine({"b": ["p"], "a": []}, bad) == (BadSymbol, "invalid symbol token: '{c}'")
    assert document(["{p}", "{}"], ["a {u} b", "b {c,} a"]) == (
        FormatError, "line 7: invalid symbol token: ''",
    )


def test_parse_peak_memory_is_a_small_multiple_of_the_text():
    # lines are released once read and transitions share the declared ids
    # and the checked sets, so parsing holds little beyond the machine it
    # builds: on this 0.34 MB text the peak was 17 times the text when every
    # line and every transition was held twice, and is about 8 times now
    text = random_machine_text()
    assert parse_peak(text) < 13 * len(text)


def test_parse_of_canonical_text_builds_no_ordering_tables():
    # transitions listed in canonical order are kept as read: ordering them
    # with one dict per source state took the peak to about 8 times the text
    text = serialize(parse(random_machine_text()))
    assert parse_peak(text) < 6 * len(text)


def test_full_expansion_peak_memory_is_close_to_its_result():
    # the walk's successor ints, the sort keys and the transition tuples
    # are never all held at once: the peak was 1.53 times the machine
    # and its parts when they were, and is about 1.1 times now
    size, peak = fresh_trace(
        "from afsm import expand\nfrom conftest import ecoli_subset\n"
        "arena = ecoli_subset('AraB', 'GalE')",
        'expand(arena, mode="full")',
    )
    assert peak < 1.35 * size


def test_equal_symbol_sets_are_one_object():
    m = parse(
        "fsm m\n  inputs {a,b}\n  outputs {y}\n  state x {y}\n  state z {y}\n"
        "  trans x {a,b} z\n  trans z {a,b} x\nend\n"
    ).fsms["m"]
    (_, l1, _), (_, l2, _) = m.transitions
    assert l1 == {"a", "b"} and l1 is l2
    assert m.output_map["x"] is m.output_map["z"]


def test_duplicate_names_rejected():
    with pytest.raises(DuplicateName):
        parse("fsm m\n  inputs {}\n  outputs {}\n  state x {}\nend\n"
              "fsm m\n  inputs {}\n  outputs {}\n  state x {}\nend\n")
    with pytest.raises(DuplicateName):
        parse("fsm m\n  inputs {}\n  outputs {}\n  state x {}\n  state x {}\nend\n")


def test_serialize_fsm_without_initial_omits_directive():
    m = validate_fsm("m", ["x"], [], [], {"x": []}, [])
    text = serialize_fsm(m)
    assert "initial" not in text
    assert parse(text + "\n").fsms["m"].initial is None


def test_serialize_fsm_formats_each_distinct_set_once(monkeypatch):
    states = [f"s{i:02d}" for i in range(50)]
    m = validate_fsm(
        "m", states, ["a", "b"], ["y"], {s: ["y"] if s < "s25" else [] for s in states},
        [(s, ["a"], t) for s, t in zip(states, states[1:])] + [(s, ["a", "b"], "s00") for s in states],
    )
    sets = {m.inputs, m.outputs, *m.output_map.values(), *(u for _, u, _ in m.transitions)}
    assert len(sets) == 4  # {a,b}, {y}, {} and {a}, on 151 lines
    formatted = []
    fmt_set = formats._fmt_set
    monkeypatch.setattr(formats, "_fmt_set", lambda s: formatted.append(s) or fmt_set(s))
    text = serialize_fsm(m)
    assert len(formatted) == len(set(formatted)) == len(sets)
    monkeypatch.undo()
    assert parse(text + "\n").fsms[m.id] == m


def test_export_dot_fsm():
    doc = load_fixture("euclid.afsm")
    dot = export_dot(doc.fsms["M1"])
    assert dot.startswith('digraph "M1" {')
    assert '__start__ -> "1";' in dot
    assert '"1" [label="1 / {}"];' in dot
    assert '"2" [label="2 / {z1sq}"];' in dot
    assert dot.count("->") == 3  # two transitions plus the start marker


def test_export_dot_fsm_without_initial_has_no_start_marker():
    m = validate_fsm("m", ["x"], [], [], {"x": []}, [])
    assert "__start__" not in export_dot(m)


def test_export_dot_arena():
    doc = load_fixture("ecoli.afsm")
    dot = export_dot(doc.arenas["ecoli"])
    assert dot.count("shape=box") == 17
    assert dot.count("->") == 43
    assert '"LacA" [shape=box, label="LacA : LacY"];' in dot


def test_export_dot_rejects_other_types():
    with pytest.raises(TypeError):
        export_dot("not a model")


def test_random_documents_round_trip():
    rng = random.Random(5001)
    for _ in range(100):
        doc = random_document(rng)
        canon = serialize(doc)
        again = parse(canon)
        assert again == doc
        assert serialize(again) == canon


# every line break str.splitlines honours; "\r\n" is one break of two characters
LINE_BREAKS = ("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


def with_every_line_break(rng, text: str, long_line: str) -> str:
    """``text`` with each line ended by a random break, and ``long_line`` put in at random."""
    lines = text.splitlines()
    lines.insert(rng.randrange(len(lines) + 1), long_line)
    breaks = list(LINE_BREAKS) + [rng.choice(LINE_BREAKS) for _ in lines[len(LINE_BREAKS):]]
    rng.shuffle(breaks)
    return "".join(map(str.__add__, lines, breaks))


@pytest.mark.parametrize("block", [7, 64])
def test_a_text_file_is_read_a_block_at_a_time(tmp_path, monkeypatch, block):
    # a file is read _BLOCK characters at a time, and its lines are
    # numbered as str.splitlines numbers the whole text, whichever break
    # ends a line, wherever the blocks are cut and however long a line is
    monkeypatch.setattr(formats, "_BLOCK", block)
    rng = random.Random(block)
    path = tmp_path / "doc.afsm"
    for _ in range(40):
        text = with_every_line_break(rng, serialize(random_document(rng)), "# " + "x" * 3 * block)
        path.write_text(text, encoding="utf-8", newline="")
        with open(path, encoding="utf-8", newline="") as fh:
            blocks = list(formats._blocks(fh))
        assert blocks == list(formats._blocks(text))
        assert all(b.endswith("\n") for b in blocks[:-1])
        assert [line for b in blocks for line in b.splitlines()] == text.splitlines()
        with open(path, encoding="utf-8", newline="") as fh:
            assert parse(fh) == parse(text)
        # a fault is reported at the same line from a file as from a str
        lines = text.splitlines(keepends=True)
        k = rng.randrange(len(lines) + 1)
        bad = "".join(lines[:k]) + "  bogus x\n" + "".join(lines[k:])
        path.write_text(bad, encoding="utf-8", newline="")
        with pytest.raises(FormatError) as from_str:
            parse(bad)
        with open(path, encoding="utf-8", newline="") as fh, pytest.raises(FormatError) as from_file:
            parse(fh)
        assert from_str.value.line == from_file.value.line == k + 1


def test_serialize_arena_standalone():
    doc = load_fixture("euclid.afsm")
    text = serialize_arena(doc.arenas["euclid"])
    assert text.splitlines()[0] == "arena euclid"
    assert "  edge m1 m3" in text.splitlines()


@given(hyp_arenas())
def test_every_machine_the_library_builds_is_a_parse_fixpoint(arena):
    # parsing puts a machine in canonical order, so a built machine that
    # survives the round trip unchanged was built in canonical order
    built = [induce_fsm(arena, machine_classes(arena))]
    modes = ("full", "accessible") if arena.vertices[0][1].initial is not None else ("full",)
    for mode in modes:
        flat = expand(arena, mode=mode).fsm
        built += [flat, quotient(flat)]
    try:
        built.append(reduce(arena)[0])
    except QuotientSelfLoop:
        pass
    for m in built:
        assert parse(serialize_fsm(m)).fsms[m.id] == m
