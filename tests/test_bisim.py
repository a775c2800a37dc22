import contextlib
import io
import itertools
import random
import time

import pytest
from hypothesis import example, given, strategies as st

from afsm import (
    InitialStateMismatch,
    bisim,
    comp_bisimulation,
    fixture_path,
    is_bisimilar,
    is_isomorphic,
    load_fixture,
    machine_classes,
    max_bisimulation,
    naive_bisim_oracle,
    quotient,
    self_partition,
    serialize,
    validate_fsm,
)
from afsm.bisim import TooLarge, TooLargeForGeneralIso
from afsm import cli, compositional
from afsm.cli import run
from afsm.formats import ModelDocument
from conftest import bloated_copy, hyp_fsms, hyp_machines, random_fsm, renamed_copy


def double_chain():
    # two disjoint identical 2-state chains, no initial state
    return validate_fsm(
        "dc",
        ["a1", "a2", "b1", "b2"],
        ["u"],
        ["go"],
        {"a1": [], "a2": ["go"], "b1": [], "b2": ["go"]},
        [("a1", ["u"], "a2"), ("b1", ["u"], "b2")],
    )


def test_identity_pairs_always_present():
    rng = random.Random(2001)
    for _ in range(20):
        m = random_fsm(rng)
        rel = max_bisimulation(m, m)
        for s in m.states:
            assert (s, s) in rel


def test_relation_is_symmetric_across_argument_swap():
    rng = random.Random(2002)
    for _ in range(20):
        m1 = random_fsm(rng, "x")
        m2 = random_fsm(rng, "y")
        rel = max_bisimulation(m1, m2)
        rev = max_bisimulation(m2, m1)
        assert {(b, a) for a, b in rel} == set(rev)


def test_relation_pairs_satisfy_bisimulation_conditions():
    rng = random.Random(2003)
    for _ in range(20):
        m1 = random_fsm(rng, "x")
        m2 = random_fsm(rng, "y")
        rel = max_bisimulation(m1, m2)
        for s1, s2 in rel:
            assert m1.output_map[s1] == m2.output_map[s2]
            for u, d1 in m1.successors(s1):
                assert any(
                    u2 == u and (d1, d2) in rel for u2, d2 in m2.successors(s2)
                )
            for u, d2 in m2.successors(s2):
                assert any(
                    u1 == u and (d1, d2) in rel for u1, d1 in m1.successors(s1)
                )


def test_oracle_agrees_with_refinement():
    rng = random.Random(2004)
    for _ in range(60):
        m1 = random_fsm(rng, "x", with_initial=False)
        m2 = random_fsm(rng, "y", with_initial=False)
        assert max_bisimulation(m1, m2) == naive_bisim_oracle(m1, m2)


@given(hyp_machines("x"), hyp_machines("y"))
def test_refinement_matches_the_oracle_on_shrinkable_machines(m1, m2):
    assert max_bisimulation(m1, m1) == naive_bisim_oracle(m1, m1)
    assert max_bisimulation(m1, m2) == naive_bisim_oracle(m1, m2)


@given(hyp_fsms("x", with_initial=True), hyp_fsms("y", with_initial=True))
def test_is_bisimilar_with_initial_states_matches_the_oracle(m1, m2):
    # only the part the two initial states reach is refined; the verdict
    # is still membership of the initial pair in R* of the whole machines
    assert is_bisimilar(m1, m2) == ((m1.initial, m2.initial) in naive_bisim_oracle(m1, m2))


def _blank(moves):
    # a machine of blank states on one label, from "p q" move pairs
    moves = [move.split() for move in moves]
    states = sorted({s for move in moves for s in move})
    return validate_fsm(
        "m", states, ["a"], [], {s: [] for s in states},
        [(p, ["a"], q) for p, q in moves],
    )


MIXED_SHAPES = {
    # (moves, bisimilarity classes)
    # a 3-cycle beside a 3-chain that ends in a deadlock: never bisimilar
    "cycle beside chain": (
        ["x0 x1", "x1 x2", "x2 x0", "y0 y1", "y1 y2"],
        ["x0 x1 x2", "y0", "y1", "y2"],
    ),
    # two 2-cycles whose states move into a well-founded tail t0 -> t1,
    # where they differ, and q, whose only move enters the tail
    "cycles into a tail": (
        ["c0 c1", "c1 c0", "c0 t0", "c1 t1", "d0 d1", "d1 d0", "d0 t0", "d1 t1",
         "t0 t1", "q t0"],
        ["c0 d0", "c1 d1", "q", "t0", "t1"],
    ),
    # f and f2 fan out on one label into a loop and a deadlock; g only
    # moves into the loop and h only into the deadlock
    "fan into cycle and tail": (
        ["f x", "f t", "x x", "f2 x2", "f2 t2", "x2 x2", "g x", "h t"],
        ["f f2", "g x x2", "h", "t t2"],
    ),
    # a chain into a looped end that also moves into a deadlock: the states
    # left after the peel differ only by their distance to that end, which
    # the splitter-based refinement finishes beside the peeled class
    "chain into a looped exit": (
        ["r0 r1", "r1 r2", "r2 r3", "r3 r3", "r3 t"],
        ["r0", "r1", "r2", "r3", "t"],
    ),
    # p moves twice on one label, into the bisimilar well-founded t1 and
    # t2, and q once, into t3: the peel must key p's two moves as q's one
    "two moves into well-founded twins": (
        ["p t1", "p t2", "t1 u1", "t2 u2", "q t3", "t3 u3"],
        ["p q", "t1 t2 t3", "u1 u2 u3"],
    ),
    # the same on cycles: p moves into c0 and its twin d0, q into c0 alone,
    # and c1 and d1 back into them; after the peel of the deadlocks t and
    # t2 the signature passes must key p's two moves as q's and c1's one
    "two moves into cyclic twins": (
        ["c0 c1", "c1 c0", "c0 t", "d0 d1", "d1 d0", "d0 t2", "p c0", "p d0", "q c0"],
        ["c0 d0", "c1 d1 p q", "t t2"],
    ),
}


@pytest.mark.parametrize("shape", MIXED_SHAPES)
def test_refinement_of_well_founded_and_cyclic_states(shape):
    moves, classes = MIXED_SHAPES[shape]
    m = _blank(moves)
    assert set(self_partition(m)) == {frozenset(c.split()) for c in classes}
    assert max_bisimulation(m, m) == naive_bisim_oracle(m, m)
    rng = random.Random(2020)
    assert is_isomorphic(renamed_copy(rng, m, "r1"), renamed_copy(rng, m, "r2"))


def test_refinement_splits_by_both_halves_of_a_split_block():
    # {y1, y2, y3} splits into {y1} and {y2, y3} only once z1 and z2 are
    # told apart.  p moves into both halves, q only into the smaller half
    # {y1} and r only into the larger one.  Splitting by the smaller half
    # alone separates r, but leaves p and q together: that they differ
    # shows only as p's move into the half that is not used to split.
    m = validate_fsm(
        "m",
        ["e", "p", "q", "r", "y1", "y2", "y3", "z1", "z2"],
        ["a"],
        ["end", "src", "y"],
        {"e": ["end"], "p": ["src"], "q": ["src"], "r": ["src"],
         "y1": ["y"], "y2": ["y"], "y3": ["y"], "z1": [], "z2": []},
        [("z1", ["a"], "e"), ("y1", ["a"], "z1"), ("y2", ["a"], "z2"),
         ("y3", ["a"], "z2"), ("p", ["a"], "y1"), ("p", ["a"], "y2"),
         ("q", ["a"], "y1"), ("r", ["a"], "y2")],
    )
    assert set(self_partition(m)) == {
        frozenset({s}) for s in ("e", "p", "q", "r", "y1", "z1", "z2")
    } | {frozenset({"y2", "y3"})}
    assert max_bisimulation(m, m) == naive_bisim_oracle(m, m)


def _chain(n, hub, loop=False):
    # c0 -> c1 -> ... -> c{n-1}, where only the last state outputs end, so
    # each state is told apart only by its distance to the end; the hub has
    # a move on the same label to every chain state.  With the loop, the
    # last state moves to itself, so no state is well-founded.
    states = [f"c{i}" for i in range(n)] + ["hub"] * hub
    output_map = {s: [] for s in states}
    output_map[f"c{n - 1}"] = ["end"]
    transitions = [(f"c{i}", ["a"], f"c{i + 1}") for i in range(n - 1)]
    transitions += [("hub", ["a"], f"c{i}") for i in range(n)] * hub
    transitions += [(f"c{n - 1}", ["a"], f"c{n - 1}")] * loop
    return validate_fsm("chain", states, ["a"], ["end"], output_map, transitions)


@pytest.mark.parametrize(
    "hub, loop",
    [(False, False), (True, False), (False, True), (True, True)],
    ids=["False", "True", "looped", "hub-looped"],
)
def test_refinement_of_long_chains_is_not_quadratic(monkeypatch, hub, loop):
    # a refinement that recomputes signatures per round needs n rounds
    # here, about 30 s at n = 4,000; peeling the well-founded states from
    # the end takes one pass, and the splitter-based O(m log n) refinement
    # of the looped chains takes milliseconds
    calls = []
    split = bisim._split_until_stable
    monkeypatch.setattr(
        bisim, "_split_until_stable", lambda *a: calls.append(1) or split(*a)
    )
    n = 4000
    m = _chain(n, hub, loop)
    t0 = time.perf_counter()
    blocks = self_partition(m)
    elapsed = time.perf_counter() - t0
    assert len(blocks) == n + hub
    assert elapsed < 1.0
    assert len(calls) == loop


def test_oracle_guard():
    m = validate_fsm(
        "big", [f"s{i}" for i in range(40)], [], [],
        {f"s{i}": [] for i in range(40)}, [],
    )
    with pytest.raises(TooLarge):
        naive_bisim_oracle(m, m, guard=100)


def test_example_machines_not_bisimilar():
    doc = load_fixture("counterexample.afsm")
    m4 = doc.fsms["M4"]
    for name in ("M1", "M2", "M3"):
        assert not is_bisimilar(doc.fsms[name], m4)
    # M1 vs M2: initial outputs differ ({b} vs {d})
    assert not is_bisimilar(doc.fsms["M1"], doc.fsms["M2"])


def test_is_bisimilar_initial_conventions():
    doc = load_fixture("euclid.afsm")
    m1 = doc.fsms["M1"]
    assert is_bisimilar(m1, m1)
    no_init = validate_fsm(
        "n", ["x"], [], [], {"x": []}, [("x", [], "x")]
    )
    with pytest.raises(InitialStateMismatch):
        is_bisimilar(m1, no_init)
    assert is_bisimilar(no_init, no_init)


def test_quotient_double_chain_merges_to_two_states():
    m = double_chain()
    q = quotient(m)
    assert len(q.states) == 2
    assert is_bisimilar(m, q)
    # independent confirmation of the blocks via the brute-force fixpoint
    rel = naive_bisim_oracle(m, m)
    assert ("a1", "b1") in rel and ("a2", "b2") in rel
    assert ("a1", "a2") not in rel


def test_quotient_of_minimal_machine_is_isomorphic_to_it():
    doc = load_fixture("euclid.afsm")
    m1 = doc.fsms["M1"]
    assert is_isomorphic(quotient(m1), m1)


def test_quotient_idempotent_and_bisimilar():
    rng = random.Random(2005)
    for _ in range(25):
        m = random_fsm(rng, "m", with_initial=rng.random() < 0.5)
        q = quotient(m)
        assert is_bisimilar(m, q)
        assert is_isomorphic(quotient(q), q)


def test_quotient_pairs_every_state_with_its_block_representative():
    rng = random.Random(2006)
    for _ in range(15):
        m = random_fsm(rng, "m", max_states=8, with_initial=False)
        q = quotient(m)
        rel = max_bisimulation(m, q)
        blocks = self_partition(m)
        for b in blocks:
            rep = min(b)
            for s in b:
                assert (s, rep) in rel


def test_quotient_prunes_unreachable_states_of_initialized_machine():
    m = validate_fsm(
        "m",
        ["s0", "s1", "island"],
        ["a"],
        ["y"],
        {"s0": [], "s1": ["y"], "island": []},
        [("s0", ["a"], "s1"), ("island", ["a"], "island")],
        initial="s0",
    )
    q = quotient(m)
    assert set(q.states) == {"s0", "s1"}
    assert is_bisimilar(m, q)


def test_quotient_names_a_block_after_its_least_reachable_state():
    # "early" sorts first and is bisimilar to the reachable "s1", but it is
    # unreachable, so the block is named after s1
    m = validate_fsm(
        "m",
        ["early", "s0", "s1"],
        ["a"],
        ["y"],
        {"early": ["y"], "s0": [], "s1": ["y"]},
        [("s0", ["a"], "s1"), ("s1", ["a"], "s1"), ("early", ["a"], "s1")],
        initial="s0",
    )
    q = quotient(m)
    assert q.states == ("s0", "s1")
    assert q.transitions == (
        ("s0", frozenset({"a"}), "s1"), ("s1", frozenset({"a"}), "s1"),
    )
    assert q.initial == "s0"


def test_quotient_indexes_only_the_reachable_part(monkeypatch):
    # three reachable states, and 0 or 10,000 transitions out of states that
    # the initial state cannot reach: the walk reads the same three moves
    built = []
    reach = bisim._reach

    def counting_reach(*args):
        found, succ = reach(*args)
        built.extend(map(len, succ))
        return found, succ

    monkeypatch.setattr(bisim, "_reach", counting_reach)
    island = [f"u{i:02d}" for i in range(100)]
    counts, results = [], []
    for unreachable in ([], [(a, ["a"], b) for a in island for b in island]):
        m = validate_fsm(
            "m", ["r0", "r1", "r2", *island], ["a"], ["y"],
            {s: ["y"] if s == "r2" else [] for s in ["r0", "r1", "r2", *island]},
            [("r0", ["a"], "r1"), ("r1", ["a"], "r2"), ("r2", [], "r0"), *unreachable],
            initial="r0",
        )
        built.clear()
        results.append(quotient(m))
        counts.append(sum(built))
    assert len(results[1].states) == 3
    assert results[0] == results[1]
    assert counts == [3, 3]


def test_is_bisimilar_refines_only_the_reachable_part(monkeypatch):
    # three reachable states per machine, and 0 or 10,000 moves between
    # states that the initial state cannot reach: the refinement sees the
    # same six states, and every state once all are reachable
    sizes = []
    refine = bisim._refine
    monkeypatch.setattr(bisim, "_refine", lambda n, *a: sizes.append(n) or refine(n, *a))
    island = [f"u{i:02d}" for i in range(100)]
    for unreachable in ([], [(a, ["a"], b) for a in island for b in island]):
        m = validate_fsm(
            "m", ["r0", "r1", "r2", *island], ["a"], ["y"],
            {s: ["y"] if s == "r2" else [] for s in ["r0", "r1", "r2", *island]},
            [("r0", ["a"], "r1"), ("r1", ["a"], "r2"), ("r2", [], "r0"), *unreachable],
            initial="r0",
        )
        assert is_bisimilar(m, renamed_copy(random.Random(2012), m, "r"))
        reachable = validate_fsm(
            "m", m.states, m.inputs, m.outputs, m.output_map,
            [*m.transitions, *(("r0", frozenset(), u) for u in island)],
            initial="r0",
        )
        assert is_bisimilar(reachable, reachable)
    assert sizes == [6, 206, 6, 206]


def test_mixed_initial_presence_fails_before_any_refinement(monkeypatch, tmp_path):
    # a 500-state chain with an initial state against one without: the
    # mismatch is raised, and check-bisim exits 2 with its message, before
    # either machine is refined
    calls = []
    refine = bisim._refine
    monkeypatch.setattr(bisim, "_refine", lambda *a: calls.append(1) or refine(*a))
    free = _chain(500, hub=0)
    rooted = validate_fsm(
        "rooted", free.states, free.inputs, free.outputs, free.output_map, free.transitions,
        initial="c0",
    )
    message = "rooted and chain disagree on declaring an initial state"
    with pytest.raises(InitialStateMismatch) as exc:
        is_bisimilar(rooted, free)
    assert str(exc.value) == message
    path = tmp_path / "mixed.afsm"
    path.write_text(serialize(ModelDocument(fsms={"rooted": rooted, "chain": free})))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert run(["check-bisim", str(path), "rooted", "chain"]) == 2
    assert err.getvalue() == f"error: {message}\n"
    assert calls == []


@given(hyp_machines("m"), st.none() | st.integers(0, 13))
@example(
    # the walk reaches y before b, which are bisimilar: the block is named b
    validate_fsm("m", ["s", "y", "b"], ["a", "b"], ["end"], {"s": [], "y": [], "b": []},
                 [("s", ["a"], "y"), ("s", ["b"], "b")]),
    1,
)
def test_quotient_names_each_block_after_its_least_reachable_member(m, k):
    if k is not None:
        initial = m.states[k % len(m.states)]
        m = validate_fsm(m.id, m.states, m.inputs, m.outputs, m.output_map, m.transitions,
                         initial=initial)
    reached = {m.initial} if m.initial is not None else set(m.states)
    todo = list(reached)
    while todo:
        for _, d in m.successors(todo.pop()):
            if d not in reached:
                reached.add(d)
                todo.append(d)
    rep = {s: min(block & reached) for block in self_partition(m) for s in block & reached}
    q = quotient(m)
    assert set(q.states) == set(rep.values())
    assert q.initial == (None if m.initial is None else rep[m.initial])


def test_quotient_keeps_unreachable_states_without_initial():
    m = validate_fsm(
        "m",
        ["s0", "s1"],
        ["a"],
        ["y"],
        {"s0": [], "s1": ["y"]},
        [("s0", ["a"], "s1")],
    )
    assert len(quotient(m).states) == 2


def test_self_partition_blocks_agree_with_oracle():
    rng = random.Random(2007)
    for _ in range(15):
        m = random_fsm(rng, "m", with_initial=False)
        rel = naive_bisim_oracle(m, m)
        blocks = {frozenset(b for (a, b) in rel if a == s) for s in m.states}
        assert set(self_partition(m)) == blocks


def test_is_isomorphic_on_renamed_copies():
    rng = random.Random(2008)
    doc = load_fixture("ecoli.afsm")
    lacy = doc.fsms["LacY"]
    assert is_isomorphic(lacy, renamed_copy(rng, lacy, "LacY2"))
    for _ in range(15):
        m = random_fsm(rng, "m", with_initial=rng.random() < 0.5)
        assert is_isomorphic(m, renamed_copy(rng, m, "mr"))


def test_is_isomorphic_negative_cases():
    doc = load_fixture("euclid.afsm")
    assert not is_isomorphic(doc.fsms["M1"], doc.fsms["M2"])  # symbols differ
    assert not is_isomorphic(doc.fsms["M1"], doc.fsms["M3"])  # sizes differ


def test_general_iso_guard():
    n = 14
    states = [f"s{i}" for i in range(n)]
    m = validate_fsm("m", states, [], [], {s: [] for s in states}, [])
    with pytest.raises(TooLargeForGeneralIso):
        is_isomorphic(m, m)


def test_is_isomorphic_is_guarded_by_block_size_not_output_class():
    # two disjoint 7-state chains, no initial state: every state outputs
    # nothing and is told apart only by its distance to the deadlocked
    # end, so one output class of 14 states has blocks of 2
    states = [f"{c}{i}" for c in "cd" for i in range(7)]
    m = validate_fsm(
        "m", states, ["a"], [], {s: [] for s in states},
        [(f"{c}{i}", ["a"], f"{c}{i + 1}") for c in "cd" for i in range(6)],
    )
    assert {len(b) for b in self_partition(m)} == {2}
    assert is_isomorphic(m, renamed_copy(random.Random(2012), m, "r"))
    # a 14-state chain: as many states, all in one output class, but not
    # bisimilar to m
    states = [f"e{i}" for i in range(14)]
    long_chain = validate_fsm(
        "l", states, ["a"], [], {s: [] for s in states},
        [(f"e{i}", ["a"], f"e{i + 1}") for i in range(13)],
    )
    assert not is_isomorphic(m, long_chain)
    assert not is_isomorphic(long_chain, m)


def test_general_iso_is_not_limited_by_the_recursion_depth():
    # 1,200 states in bisimilar groups of 4: not minimal, so the search
    # pairs states by hand, on a work list and not by recursion
    n = 1200
    states = [f"s{i}" for i in range(n)]
    m = validate_fsm(
        "m", states, [], [f"y{k}" for k in range(n // 4)],
        {f"s{i}": [f"y{i // 4}"] for i in range(n)},
        [(f"s{i}", [], f"s{(i + 4) % n}") for i in range(n)],
    )
    assert is_isomorphic(m, m)


def _brute_force_isomorphic(m1, m2):
    if len(m1.states) != len(m2.states):
        return False
    for image in itertools.permutations(m2.states):
        f = dict(zip(m1.states, image))
        if (
            (m1.initial is None or f[m1.initial] == m2.initial)
            and all(m1.output_map[s] == m2.output_map[f[s]] for s in m1.states)
            and {(f[a], u, f[b]) for a, u, b in m1.transitions} == set(m2.transitions)
        ):
            return True
    return False


def assert_is_isomorphism(m1, m2, f):
    assert sorted(f) == list(m1.states) and sorted(f.values()) == list(m2.states)
    assert f.get(m1.initial) == m2.initial
    assert all(m1.output_map[s] == m2.output_map[f[s]] for s in m1.states)
    assert {(f[a], u, f[b]) for a, u, b in m1.transitions} == set(m2.transitions)


def in_move_star(rng, hubs, leaves, moves, labels=("a",), with_initial=False):
    """Hubs with ``moves`` moves each into deadlocked leaves of one output.

    The leaves are shuffled and dealt to the moves in turn, so with
    ``hubs * moves == leaves`` each leaf has one move into it, with fewer
    leaves some have several, and with more some have none.
    """
    hs = [f"h{i}" for i in range(hubs)]
    ls = [f"l{i}" for i in range(leaves)]
    dealt = rng.sample(ls, leaves)
    trans = [
        (h, [rng.choice(labels)], dealt[(k * moves + j) % leaves])
        for k, h in enumerate(hs)
        for j in range(moves)
    ]
    return validate_fsm(
        "star", hs + ls, labels, ["y"], {**{h: [] for h in hs}, **{x: ["y"] for x in ls}},
        trans, initial=hs[0] if with_initial else None,
    )


def test_is_isomorphic_on_minimal_but_inaccessible_machines():
    # self-minimal (the oracle's R*(m, m) is the identity) with states
    # unreachable from the initial one
    rng = random.Random(2010)
    found = []
    while len(found) < 12:
        m = random_fsm(rng, "m", max_states=5, max_outputs=3)
        identity = {(s, s) for s in m.states}
        reachable = {m.initial} | {d for s in m.states for _, d in m.successors(s)}
        if naive_bisim_oracle(m, m) == identity and reachable != set(m.states):
            found.append(m)
    for m in found:
        assert is_isomorphic(m, renamed_copy(rng, m, "mr"))
    for m1 in found:
        for m2 in found:
            assert is_isomorphic(m1, m2) == _brute_force_isomorphic(m1, m2)


def test_is_isomorphic_agrees_with_brute_force_when_blocks_offer_choices():
    # few outputs and labels, so bisimilar states are common and the search
    # has choices; partners are near-misses of renamed copies
    rng = random.Random(2013)
    answers = set()
    for k in range(200):
        if k < 150:
            m = random_fsm(rng, "m", max_states=6, max_inputs=1, max_outputs=1,
                           max_trans=rng.choice([4, 8, 12]), with_initial=rng.random() < 0.5)
        else:  # leaves told apart only by the moves into them
            hubs = rng.randint(1, 3)
            m = in_move_star(rng, hubs, rng.randint(1, 8 - hubs), rng.randint(1, 3),
                             labels=rng.choice([("a",), ("a", "b")]),
                             with_initial=rng.random() < 0.5)
        r = renamed_copy(rng, m, "r")
        moved = list(r.transitions)
        if moved:
            a, u, b = moved.pop(rng.randrange(len(moved)))
            moved.append((a if rng.random() < 0.5 else rng.choice(r.states), u,
                          b if rng.random() < 0.5 else rng.choice(r.states)))
        near = validate_fsm("n", r.states, r.inputs, r.outputs, r.output_map, moved,
                            initial=None if r.initial is None else rng.choice(r.states))
        for partner in (r, near):
            verdict = is_isomorphic(m, partner)
            assert verdict == _brute_force_isomorphic(m, partner)
            f = bisim._isomorphism(m, partner)
            assert (f is not None) == verdict
            if verdict:
                assert_is_isomorphism(m, partner, f)
            answers.add((verdict, partner is r))
    assert answers == {(True, True), (True, False), (False, False)}


def test_in_move_stars_need_few_refinements(monkeypatch):
    # 16 states: 4 hubs, each with 3 moves into 12 deadlocked leaves of one
    # output.  Only the moves into a leaf tell it apart, so a search that
    # read moves forwards only would pair leaves by hand, far more often.
    calls = []
    refine = bisim._refine
    monkeypatch.setattr(bisim, "_refine", lambda *a: calls.append(1) or refine(*a))
    rng = random.Random(2014)
    for _ in range(20):
        m = in_move_star(rng, 4, 12, 3, labels=rng.choice([("a",), ("a", "b")]))
        r = renamed_copy(rng, m, "r")
        calls.clear()
        assert is_isomorphic(m, r)
        assert len(calls) <= 16
        assert_is_isomorphism(m, r, bisim._isomorphism(m, r))


def test_each_question_is_one_refinement(monkeypatch):
    calls = []
    refine = bisim._refine
    monkeypatch.setattr(bisim, "_refine", lambda *a: calls.append(1) or refine(*a))

    doc = load_fixture("counterexample.afsm")
    machine_classes(doc.arenas["A1"], doc.arenas["A2"])
    assert len(calls) == 1

    calls.clear()
    m1 = load_fixture("euclid.afsm").fsms["M1"]
    assert is_isomorphic(m1, renamed_copy(random.Random(2011), m1, "r"))
    assert len(calls) == 1

    calls.clear()
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(["check-bisim", str(fixture_path("euclid.afsm")), "M1", "M1"]) == 0
    assert len(calls) == 1

    # quotient restricts to the reachable states on integers and builds
    # one machine, the result
    calls.clear()
    built = []
    fsm = bisim._fsm
    monkeypatch.setattr(bisim, "_fsm", lambda *a: built.append(1) or fsm(*a))
    m = validate_fsm(
        "m", ["s0", "s1", "s2", "island"], ["a"], ["y"],
        {"s0": [], "s1": ["y"], "s2": ["y"], "island": []},
        [("s0", ["a"], "s1"), ("s0", ["a"], "s2"), ("island", ["a"], "s0")],
        initial="s0",
    )
    assert quotient(m).states == ("s0", "s1")
    assert len(calls) == 1
    assert len(built) == 1


def test_check_comp_bisim_computes_the_classes_once(monkeypatch):
    # one machine_classes refinement and one refinement of the two induced
    # machines per job; the verdict and the witness come from the latter
    path = str(fixture_path("counterexample.afsm"))
    doc = load_fixture("counterexample.afsm")
    expected = {
        name: sorted(comp_bisimulation(doc.arenas["A1"], doc.arenas[name]))
        for name in ("A1", "A2")
    }
    classes_calls, refine_calls = [], []
    classes_of = compositional.machine_classes
    refine = bisim._refine

    def counted_classes(*a):
        classes_calls.append(1)
        return classes_of(*a)

    monkeypatch.setattr(compositional, "machine_classes", counted_classes)
    monkeypatch.setattr(cli, "machine_classes", counted_classes)
    monkeypatch.setattr(bisim, "_refine", lambda *a: refine_calls.append(1) or refine(*a))

    for name, code, n_classes in [("A2", 1, 4), ("A1", 0, 3)]:
        for witness in ([], ["--witness"]):
            classes_calls.clear()
            refine_calls.clear()
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert run(["check-comp-bisim", path, "A1", path, name, *witness]) == code
            assert len(classes_calls) == 1
            assert len(refine_calls) == 2
            assert f"classes: {n_classes}" in out.getvalue()
            pairs = [
                tuple(line.split(" ~ "))
                for line in out.getvalue().splitlines()
                if " ~ " in line
            ]
            assert [(a.strip(), b) for a, b in pairs] == (expected[name] if witness else [])


def test_bisimilar_quotients_are_isomorphic():
    # the uniqueness half of minimization: minimal machines of bisimilar
    # machines coincide up to isomorphism
    rng = random.Random(2009)
    for _ in range(25):
        m1 = random_fsm(rng, "m1", with_initial=rng.random() < 0.5)
        m2 = bloated_copy(rng, renamed_copy(rng, m1, "tmp"), "m2")
        assert is_bisimilar(m1, m2)
        assert is_isomorphic(quotient(m1), quotient(m2))
