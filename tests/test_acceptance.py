"""Acceptance gate: one pass/fail line per criterion.

The lines are collected in ``conftest.ACCEPTANCE_LINES`` and printed in
the terminal summary at the end of the run.

Criteria 3 (in part), 6 and 7 assert published claims that this
implementation demonstrably cannot reproduce (see the fixture README for
the state-count claims and test_compositional.py for the minimal
counterexample to quotient-reduction soundness).  They are asserted
faithfully as stated and are expected to fail.
"""

import csv
import random
import time

from afsm import (
    QuotientSelfLoop,
    arena_quotient,
    expand,
    fixture_path,
    induce_fsm,
    is_bisimilar,
    is_comp_bisimilar,
    is_isomorphic,
    load_fixture,
    machine_classes,
    max_bisimulation,
    naive_bisim_oracle,
    parse,
    quotient,
    reduce,
    serialize,
    state_count,
    validate_arena,
)
from afsm.cli import run as cli_run
from conftest import ACCEPTANCE_LINES, random_arena, random_document, random_fsm, renamed_copy


def record(num, ok, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    ACCEPTANCE_LINES.append(line)
    assert ok, line


def test_criterion_1_euclid_expansion():
    t0 = time.perf_counter()
    comp = expand(load_fixture("euclid.afsm").arenas["euclid"], mode="accessible")
    elapsed = time.perf_counter() - t0
    exact = (
        set(comp.fsm.states) == {"1.3.5", "2.4.6", "1.3.7"}
        and set(comp.fsm.transitions)
        == {
            ("1.3.5", frozenset({"z1", "z2"}), "2.4.6"),
            ("2.4.6", frozenset(), "1.3.7"),
            ("1.3.7", frozenset({"z1", "z2"}), "2.4.6"),
        }
        and comp.fsm.output_map["1.3.5"] == frozenset()
        and comp.fsm.output_map["2.4.6"] == frozenset({"z1sq", "z2sq"})
        and comp.fsm.output_map["1.3.7"] == frozenset({"norm_z"})
    )
    record(
        1,
        exact and elapsed < 1.0,
        f"norm-arena accessible expansion exact 3-state machine in {elapsed:.3f}s",
    )


def test_criterion_2_counterexample_verdicts():
    doc = load_fixture("counterexample.afsm")
    a1, a2 = doc.arenas["A1"], doc.arenas["A2"]
    t0 = time.perf_counter()
    flat = is_bisimilar(
        expand(a1, mode="full").fsm, expand(a2, mode="full").fsm
    )
    comp = is_comp_bisimilar(a1, a2)
    elapsed = time.perf_counter() - t0
    record(
        2,
        flat and not comp and elapsed < 1.0,
        f"expansions bisimilar={flat}, compositionally bisimilar={comp} "
        f"in {elapsed:.3f}s",
    )


def test_criterion_3_transcription_network_pipeline():
    doc = load_fixture("ecoli.afsm")
    arena = doc.arenas["ecoli"]
    expected_classes = {
        frozenset({"CRP"}),
        frozenset({"LacZ"}),
        frozenset({"LacI"}),
        frozenset({"GalS"}),
        frozenset({"AraC"}),
        frozenset({"LacY", "LacA"}),
        frozenset({"GalE", "GalT", "GalK"}),
        frozenset({"AraB", "AraA", "AraD"}),
        frozenset({"AraE", "AraF", "AraG", "AraH"}),
    }
    t0 = time.perf_counter()
    classes = machine_classes(arena)
    got_classes = {frozenset(v for _, v in b) for b in classes.classes}
    a_min = arena_quotient(arena)
    induced = len(induce_fsm(arena, classes).states)
    composite = expand(a_min, mode="full")
    minimal = quotient(composite.fsm)
    elapsed = time.perf_counter() - t0
    classes_ok = got_classes == expected_classes
    quot_ok = len(a_min.vertices) == 9
    exp_ok = len(composite.fsm.states) == 55296
    induced_ok = induced == 17
    identity_ok = len(minimal.states) == 55296
    record(
        3,
        classes_ok and quot_ok and exp_ok and induced_ok and identity_ok
        and elapsed < 60.0,
        f"9 classes={classes_ok}, 9-vertex quotient={quot_ok}, "
        f"55296-state expansion={exp_ok}, 17-state induced machine={induced_ok}, "
        f"identity quotient={identity_ok} (minimal machine has "
        f"{len(minimal.states)} states), {elapsed:.1f}s",
    )


def test_criterion_4_published_size_discrepancy():
    arena = load_fixture("ecoli.afsm").arenas["ecoli"]
    count = state_count(arena)
    readme = (fixture_path("ecoli.afsm").parent / "README.md").read_text(
        encoding="utf-8"
    )
    documented = "4,831,838,208" in readme and "3,623,878,656" in readme
    record(
        4,
        count == 3623878656 and count != 4831838208 and documented,
        f"analytic count {count}; published figure documented as "
        f"discrepant in fixture README={documented}",
    )


def test_criterion_5_oracle_equivalence():
    rng = random.Random(90005)
    t0 = time.perf_counter()
    pairs = 0
    for _ in range(200):
        m1 = random_fsm(rng, "x", max_states=20, max_inputs=4, max_outputs=4,
                        max_trans=40, with_initial=False)
        m2 = random_fsm(rng, "y", max_states=20, max_inputs=4, max_outputs=4,
                        max_trans=40, with_initial=False)
        assert max_bisimulation(m1, m2) == naive_bisim_oracle(m1, m2)
        pairs += 1
    elapsed = time.perf_counter() - t0
    record(
        5,
        pairs == 200 and elapsed < 30.0,
        f"refinement = brute-force fixpoint on {pairs} random pairs "
        f"in {elapsed:.1f}s",
    )


def _paired_arena(rng, a1, k):
    """A second arena biased toward compositional bisimilarity with a1."""
    if k == 0:
        return random_arena(rng, "b")
    if k == 1:
        mapping = {v: f"w{i}" for i, (v, _) in enumerate(a1.vertices)}
        return validate_arena(
            "b",
            {mapping[v]: renamed_copy(rng, fsm, f"{fsm.id}r")
             for v, fsm in a1.vertices},
            [(mapping[x], mapping[y]) for x, y in a1.edges],
        )
    try:
        return arena_quotient(a1)
    except QuotientSelfLoop:
        return random_arena(rng, "b")


def test_criterion_6_preservation_campaign():
    rng = random.Random(90006)
    checked = comp_true = violations = 0
    first = None
    while checked < 500:
        a1 = random_arena(rng, "a")
        a2 = _paired_arena(rng, a1, checked % 3)
        checked += 1
        if not is_comp_bisimilar(a1, a2):
            continue
        comp_true += 1
        m1 = expand(a1, mode="full", max_states=10**5).fsm
        m2 = expand(a2, mode="full", max_states=10**5).fsm
        if not is_bisimilar(m1, m2):
            violations += 1
            if first is None:
                first = (
                    f"{len(a1.vertices)}-vertex arena vs "
                    f"{len(a2.vertices)}-vertex partner"
                )
    detail = (
        f"{checked} pairs, {comp_true} compositionally bisimilar, "
        f"{violations} expansion-bisimilarity violations"
    )
    if first:
        detail += f" (first: {first})"
    record(6, violations == 0, detail)


def test_criterion_7_reduction_soundness_campaign():
    rng = random.Random(90007)
    checked = violations = 0
    first = None
    while checked < 100:
        arena = random_arena(rng, "a")
        try:
            reduced, _ = reduce(arena, max_states=10**5)
        except QuotientSelfLoop:
            continue
        checked += 1
        direct = quotient(expand(arena, mode="full", max_states=10**5).fsm)
        if not is_isomorphic(direct, reduced):
            violations += 1
            if first is None:
                first = (
                    f"direct path {len(direct.states)} states vs "
                    f"reduction {len(reduced.states)} states"
                )
    detail = f"{checked} arenas, {violations} direct-vs-reduced mismatches"
    if first:
        detail += f" (first: {first})"
    record(7, violations == 0, detail)


def test_criterion_8_scaling_separation(tmp_path):
    csv_path = tmp_path / "scaling.csv"
    code = cli_run(["bench-scaling", "--n-max", "20", "--csv", str(csv_path)])
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    shapes_ok = len(rows) == 20 and all(
        int(r["product_states"]) == 2 ** int(r["N"])
        and int(r["induced_states"]) == int(r["N"])
        for r in rows
    )
    last_ms = float(rows[-1]["comp_check_ms"])
    record(
        8,
        code == 0 and shapes_ok and last_ms < 1000.0,
        f"product grows 2^N up to {rows[-1]['product_states']}, induced "
        f"machine stays N, check at N=20 took {last_ms:.1f}ms",
    )


def test_criterion_9_round_trip_campaign():
    for name in ("euclid.afsm", "counterexample.afsm", "ecoli.afsm"):
        text = fixture_path(name).read_text(encoding="utf-8")
        canon = serialize(parse(text))
        assert serialize(parse(canon)) == canon
    rng = random.Random(90009)
    docs = 0
    for _ in range(1000):
        doc = random_document(rng)
        canon = serialize(doc)
        assert parse(canon) == doc
        assert serialize(parse(canon)) == canon
        docs += 1
    record(
        9,
        docs == 1000,
        f"parse/serialize fixpoint on 3 fixtures and {docs} random documents",
    )
