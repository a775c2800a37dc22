import argparse
import contextlib
import csv
import io
import json
import re
import random
import shlex
import tracemalloc
import types
from pathlib import Path

import pytest

import afsm
from afsm import cli, expand, fixture_path, formats, parse, quotient, reduce, serialize, validate_fsm
from afsm.cli import run
from afsm.formats import ModelDocument

EUCLID = str(fixture_path("euclid.afsm"))
COUNTER = str(fixture_path("counterexample.afsm"))
ECOLI = str(fixture_path("ecoli.afsm"))


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_check_bisim_positive_and_negative():
    code, out, _ = invoke("check-bisim", EUCLID, "M1", "M1")
    assert code == 0
    assert "verdict: yes" in out
    code, out, _ = invoke("check-bisim", EUCLID, "M1", "M2")
    assert code == 1
    assert "verdict: no" in out


def test_check_bisim_json_and_oracle():
    code, out, _ = invoke("check-bisim", EUCLID, "M1", "M1", "--json", "--oracle")
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "check-bisim"
    assert report["verdict"] is True
    assert report["statistics"]["oracle"] == "agree"


def test_check_bisim_json_reports_blocks():
    # M1 against itself: one block per state of the self-minimal M1
    code, out, _ = invoke("check-bisim", EUCLID, "M1", "M1", "--json")
    assert code == 0
    stats = json.loads(out)["statistics"]
    assert stats["blocks"] == stats["pairs"] == 2
    # M1 and M2 differ in their symbols, so no block is shared
    code, out, _ = invoke("check-bisim", EUCLID, "M1", "M2", "--json")
    assert code == 1
    stats = json.loads(out)["statistics"]
    assert stats["pairs"] == 0
    assert stats["blocks"] == 4


def test_check_bisim_witness_lists_pairs():
    code, out, _ = invoke("check-bisim", EUCLID, "M1", "M1", "--witness")
    assert code == 0
    assert "  1 ~ 1" in out
    assert "  2 ~ 2" in out


def test_unknown_machine_is_a_usage_error():
    code, _, err = invoke("check-bisim", EUCLID, "M1", "nope")
    assert code == 2
    assert "error:" in err
    code, _, err = invoke("reduce", EUCLID, "nosuch")
    assert code == 2
    assert "no arena named 'nosuch'" in err


def test_oracle_divergence_is_a_usage_error(monkeypatch):
    monkeypatch.setattr(cli, "naive_bisim_oracle", lambda m1, m2: frozenset())
    code, out, err = invoke("check-bisim", EUCLID, "M1", "M1", "--oracle")
    assert code == 2
    assert "oracle divergence" in err
    assert out == ""


def test_unreadable_file_is_a_usage_error():
    code, _, err = invoke("check-bisim", "/no/such/file.afsm", "a", "b")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("verb", [["stats"], ["check-bisim", "M1", "M1"]])
def test_a_file_that_is_not_utf8_is_a_read_error(tmp_path, monkeypatch, verb):
    path = tmp_path / "bad.afsm"
    path.write_bytes(b"\xff")
    code, out, err = invoke(verb[0], str(path), *verb[1:])
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot read {path}: 'utf-8' codec can't decode byte 0xff")
    # the same when the bad byte comes after many lines that were parsed:
    # the text is decoded a block at a time, as parsing reads it
    monkeypatch.setattr(formats, "_BLOCK", 64)
    lines = formats._lines
    read = []
    monkeypatch.setattr(formats, "_lines", lambda text: (read.append(x) or x for x in lines(text)))
    path.write_bytes(fixture_path("euclid.afsm").read_bytes() + b"# padding\n" * 2000 + b"# \xff\n")
    code, out, err = invoke(verb[0], str(path), *verb[1:])
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot read {path}: 'utf-8' codec can't decode byte 0xff")
    assert len(read) > 1000


MIXED_INITIAL = """\
fsm P
  inputs {}
  outputs {}
  state p {}
  initial p
  trans p {} p
end

fsm Q
  inputs {}
  outputs {}
  state q {}
  trans q {} q
end

arena A
  node u P
end

arena B
  node w Q
end
"""


def test_mixed_initial_states_are_a_usage_error(tmp_path):
    # one machine declares an initial state and the other does not, so
    # neither acceptance condition applies
    path = tmp_path / "mixed.afsm"
    path.write_text(MIXED_INITIAL, encoding="utf-8")
    code, out, err = invoke("check-bisim", str(path), "P", "Q")
    assert code == 2
    assert err.startswith("error:") and "initial state" in err
    assert out == ""
    code, _, err = invoke("check-comp-bisim", str(path), "A", str(path), "B")
    assert code == 2
    assert err.startswith("error:") and "initial state" in err


def test_expand_accessible_writes_machine(tmp_path):
    out_path = tmp_path / "flat.afsm"
    code, out, _ = invoke(
        "expand", EUCLID, "euclid", "--accessible", "-o", str(out_path)
    )
    assert code == 0
    assert "states: 3" in out
    doc = parse(out_path.read_text(encoding="utf-8"))
    (m,) = doc.fsms.values()
    assert len(m.states) == 3
    assert m.initial == "1.3.5"


def test_expand_guard_reports_analytic_count():
    code, _, err = invoke("expand", ECOLI, "ecoli")
    assert code == 2
    assert "3623878656" in err


def test_expand_accessible_guard_reports_states_seen():
    code, _, err = invoke("expand", ECOLI, "ecoli", "--accessible", "--max-states", "50")
    assert code == 2
    assert "states seen: 51" in err
    assert "3623878656" not in err


def test_expand_accessible_guard_counts_the_initial_state():
    code, _, err = invoke("expand", ECOLI, "ecoli", "--accessible", "--max-states", "0")
    assert code == 2
    assert "states seen: 1" in err


def test_minimize(tmp_path):
    out_path = tmp_path / "min.afsm"
    code, out, _ = invoke("minimize", EUCLID, "M3", "-o", str(out_path))
    assert code == 0
    assert "states_in: 3" in out
    doc = parse(out_path.read_text(encoding="utf-8"))
    assert "M3" in doc.fsms


def test_minimize_json_reports_blocks(tmp_path):
    # the double chain has two states per block
    text = (
        "fsm dc\n  inputs {u}\n  outputs {go}\n"
        "  state a1 {}\n  state a2 {go}\n  state b1 {}\n  state b2 {go}\n"
        "  trans a1 {u} a2\n  trans b1 {u} b2\nend\n"
    )
    path = tmp_path / "dc.afsm"
    path.write_text(text, encoding="utf-8")
    code, out, _ = invoke("minimize", str(path), "dc", "--json")
    assert code == 0
    stats = json.loads(out)["statistics"]
    assert stats["states_in"] == 4
    assert stats["blocks"] == stats["states_out"] == 2


def test_written_machines_are_their_serialized_documents(tmp_path, monkeypatch):
    # a machine is written a block of lines at a time, and the file holds
    # exactly the canonical text of the document of that one machine
    monkeypatch.setattr(formats, "_LINES", 3)
    out_path = tmp_path / "out.afsm"
    euclid, ecoli = afsm.load_fixture("euclid.afsm"), afsm.load_fixture("ecoli.afsm")
    cases = [
        (["expand", EUCLID, "euclid"], expand(euclid.arenas["euclid"], mode="full").fsm),
        (["expand", EUCLID, "euclid", "--accessible"],
         expand(euclid.arenas["euclid"], mode="accessible").fsm),
        (["minimize", EUCLID, "M3"], quotient(euclid.fsms["M3"])),
        (["reduce", ECOLI, "ecoli"], reduce(ecoli.arenas["ecoli"])[0]),
    ]
    for argv, m in cases:
        code, _, _ = invoke(*argv, "-o", str(out_path))
        assert code == 0
        assert out_path.read_bytes() == serialize(ModelDocument(fsms={m.id: m})).encode("utf-8")


def test_writing_a_machine_holds_a_small_part_of_its_text(tmp_path):
    rng = random.Random(16)
    states = [f"q{i:05d}" for i in range(10_000)]
    labels = [[], ["a"], ["b"], ["a", "b"], ["a", "c"]]
    m = validate_fsm(
        "big", states, ["a", "b", "c"], ["y"], {s: ["y"] if s[-1] in "13579" else [] for s in states},
        [(s, rng.choice(labels), rng.choice(states)) for s in states for _ in range(4)],
    )
    text = serialize(ModelDocument(fsms={m.id: m}))
    path = tmp_path / "big.afsm"
    tracemalloc.start()
    try:
        cli._write_fsm(str(path), m, cli.RunReport("expand"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.read_text(encoding="utf-8") == text
    assert peak < len(text) / 4


def test_check_comp_bisim_verdicts():
    code, out, _ = invoke("check-comp-bisim", COUNTER, "A1", COUNTER, "A2")
    assert code == 1
    assert "verdict: no" in out
    code, out, _ = invoke("check-comp-bisim", COUNTER, "A1", COUNTER, "A1")
    assert code == 0
    assert "verdict: yes" in out


def test_check_comp_bisim_witness():
    code, out, _ = invoke(
        "check-comp-bisim", COUNTER, "A1", COUNTER, "A1", "--witness"
    )
    assert code == 0
    assert "class C0:" in out
    assert "  v1 ~ v1" in out


def test_reduce_reports_step_sizes(tmp_path):
    out_path = tmp_path / "reduced.afsm"
    code, out, _ = invoke("reduce", EUCLID, "euclid", "-o", str(out_path))
    assert code == 0
    for key in ("classes:", "quotient_vertices:", "expanded_states:", "final_states:"):
        assert key in out
    assert out_path.exists()


def test_classes_lists_members():
    code, out, _ = invoke("classes", ECOLI, "ecoli")
    assert code == 0
    assert "classes: 9" in out
    assert "vertices: 17" in out


@pytest.mark.parametrize(
    "argv, listed",
    [
        (("check-bisim", ECOLI, "CRP", "CRP", "--witness"), "  1 ~ 1"),
        (("check-comp-bisim", ECOLI, "ecoli", ECOLI, "ecoli", "--witness"), "  LacA ~ LacY"),
        (("classes", ECOLI, "ecoli"), "  class C0: AraA, AraB, AraD"),
        (("export-dot", ECOLI, "ecoli"), 'digraph "ecoli" {'),
    ],
)
def test_json_is_one_document_that_carries_the_listing(argv, listed):
    code, text, _ = invoke(*argv)
    assert code == 0
    lines = text.splitlines()
    assert listed in lines
    code, out, _ = invoke(*argv, "--json")
    assert code == 0
    report = json.loads(out)
    # the text report is the listing, then the report lines
    assert report["listing"] == lines[: lines.index(f"command: {report['command']}")]


def test_the_readme_usage_block_runs(tmp_path, monkeypatch):
    readme = Path(__file__).resolve().parent.parent / "README.md"
    block = re.search(r"```sh\n(# where the bundled.*?)```", readme.read_text(encoding="utf-8"), re.S)
    commands = [shlex.split(line) for line in block.group(1).splitlines() if line.startswith("afsm ")]
    assert commands
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        argv = [EUCLID if a == "$FIX" else a for a in argv[1:]]
        code, _, err = invoke(*argv)
        assert code in (0, 1), (argv, err)


def test_the_readme_lists_exactly_the_public_api():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("The public API is re-exported"):]
    listed = re.findall(r"`(\w+)`", section.split("\n\n", 2)[1])
    public = {
        name
        for name, value in vars(afsm).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(listed) == len(set(listed))
    assert set(listed) == public


def test_export_dot_stdout_and_file(tmp_path):
    code, out, _ = invoke("export-dot", EUCLID, "M1")
    assert code == 0
    assert out.startswith('digraph "M1"')
    out_path = tmp_path / "euclid.dot"
    code, _, _ = invoke("export-dot", EUCLID, "euclid", "-o", str(out_path))
    assert code == 0
    assert out_path.read_text(encoding="utf-8").startswith('digraph "euclid"')
    code, _, err = invoke("export-dot", EUCLID, "nope")
    assert code == 2
    assert "error:" in err


def test_bench_scaling_csv(tmp_path):
    csv_path = tmp_path / "bench.csv"
    code, out, _ = invoke(
        "bench-scaling", "--family", "ring", "--n-max", "6", "--csv", str(csv_path)
    )
    assert code == 0
    assert "rows: 6" in out
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6
    for row in rows:
        n = int(row["N"])
        assert int(row["product_states"]) == 2**n
        assert int(row["induced_states"]) == n


def test_bench_scaling_needs_at_least_one_row():
    code, out, err = invoke("bench-scaling", "--n-max", "0")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "--n-max" in err


def test_bench_scaling_unwritable_csv_is_an_io_error(tmp_path):
    csv_path = tmp_path / "missing" / "bench.csv"
    code, out, err = invoke("bench-scaling", "--n-max", "2", "--csv", str(csv_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write") and "bench.csv" in err


def test_unwritable_output_is_an_io_error(tmp_path):
    out_path = tmp_path / "missing" / "x.afsm"
    code, out, err = invoke("minimize", EUCLID, "M1", "-o", str(out_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write") and "x.afsm" in err


def test_stats():
    code, out, _ = invoke("stats", ECOLI)
    assert code == 0
    assert "arena.ecoli.vertices: 17" in out
    assert "arena.ecoli.product_states: 3623878656" in out
    assert "fsm.CRP.states: 2" in out


def test_the_parser_is_built_once_and_keeps_no_state_between_runs(tmp_path, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    getattr(cli.build_parser, "cache_clear", lambda: None)()  # start from no parser
    out_path = tmp_path / "min.afsm"
    code, out, _ = invoke("minimize", EUCLID, "M3", "--json", "-o", str(out_path))
    assert code == 0
    assert json.loads(out)["outputs"] == [str(out_path)]
    out_path.unlink()
    code, out, _ = invoke("minimize", EUCLID, "M3")
    assert code == 0
    assert out.startswith("command: minimize\n") and "wrote:" not in out
    code, out, _ = invoke("reduce", ECOLI, "ecoli")
    assert code == 0
    assert out.startswith("command: reduce\n") and "expanded_states: 55296" in out
    assert "wrote:" not in out
    assert list(tmp_path.iterdir()) == []
    assert built.count("afsm") == 1


def test_unknown_verb_exits_with_argparse_error():
    with pytest.raises(SystemExit):
        invoke("frobnicate")
