"""Command-line front end.

Exit status discipline: 0 = positive verdict / success, 1 = negative
verdict, 2 = usage, I/O or model error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from functools import cache

from .model import Arena, Fsm, ModelError, stage, validate_arena, validate_fsm
from .bisim import BisimError, _blocks, _check_initials, _pairs, _verdict
from .bisim import naive_bisim_oracle, quotient
from .expand import DEFAULT_MAX_STATES, GuardExceeded, expand, state_count
from .compositional import (
    _comp_blocks,
    _comp_pairs,
    is_comp_bisimilar,
    machine_classes,
    reduce as reduce_arena,
)
from .formats import ModelDocument, _parse, _serialized, export_dot


@dataclass
class RunReport:
    command: str
    inputs: list = field(default_factory=list)
    verdict: bool | None = None
    statistics: dict = field(default_factory=dict)
    outputs: list = field(default_factory=list)
    listing: list = field(default_factory=list)  # lines that precede the report in text

    def render(self, as_json: bool) -> str:
        if as_json:
            return json.dumps(asdict(self), indent=2, sort_keys=True)
        lines = self.listing + [f"command: {self.command}"]
        if self.verdict is not None:
            lines.append(f"verdict: {'yes' if self.verdict else 'no'}")
        for k in sorted(self.statistics):
            lines.append(f"{k}: {self.statistics[k]}")
        for p in self.outputs:
            lines.append(f"wrote: {p}")
        return "\n".join(lines)


class CliError(Exception):
    pass


def _load(path: str) -> ModelDocument:
    # ``_parse`` is the body of ``parse``: perfbench's tracer wraps ``parse``
    # and sizes each call by the ``len`` of its text, which a file lacks
    try:
        with open(path, encoding="utf-8") as fh:
            return _parse(fh, path)
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc


def _get_fsm(doc: ModelDocument, name: str) -> Fsm:
    if name not in doc.fsms:
        raise CliError(f"no machine named {name!r} in {doc.source}")
    return doc.fsms[name]


def _get_arena(doc: ModelDocument, name: str) -> Arena:
    if name not in doc.arenas:
        raise CliError(f"no arena named {name!r} in {doc.source}")
    return doc.arenas[name]


@stage("_write")
def _write(path: str, blocks, report: RunReport):
    """Write the str ``blocks`` to ``path``, one after another."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(blocks)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from exc
    report.outputs.append(path)


def _write_fsm(path: str, fsm: Fsm, report: RunReport):
    _write(path, _serialized(ModelDocument(fsms={fsm.id: fsm})), report)


def cmd_check_bisim(args) -> tuple[int, RunReport]:
    doc = _load(args.file)
    m1 = _get_fsm(doc, args.m1)
    m2 = _get_fsm(doc, args.m2)
    _check_initials(m1, m2)
    report = RunReport("check-bisim", [args.file])
    t0 = time.perf_counter()
    b1, b2 = _blocks(m1, m2)
    verdict = _verdict(m1, m2, b1, b2)
    # R* holds every pair of states of one block, so its size needs no pairs
    size = Counter(b2)
    pairs = sum(map(size.__getitem__, b1))
    rel = _pairs(m1.states, b1, m2.states, b2) if args.oracle or args.witness else None
    if args.oracle:
        if rel != naive_bisim_oracle(m1, m2):
            raise CliError("oracle divergence: refinement and fixpoint disagree")
        report.statistics["oracle"] = "agree"
    report.verdict = verdict
    report.statistics["pairs"] = pairs
    report.statistics["blocks"] = len(set(b1).union(size))  # size holds the blocks of b2
    report.statistics["elapsed_ms"] = round((time.perf_counter() - t0) * 1000, 3)
    if args.witness:
        report.listing += [f"  {a} ~ {b}" for a, b in sorted(rel)]
    return (0 if verdict else 1), report


def cmd_expand(args) -> tuple[int, RunReport]:
    doc = _load(args.file)
    arena = _get_arena(doc, args.arena)
    report = RunReport("expand", [args.file])
    mode = "accessible" if args.accessible else "full"
    t0 = time.perf_counter()
    try:
        comp = expand(arena, mode=mode, max_states=args.max_states)
    except GuardExceeded as exc:
        what = "states seen" if args.accessible else "analytic state count"
        raise CliError(f"{exc} ({what}: {exc.count})") from exc
    report.statistics["states"] = len(comp.fsm.states)
    report.statistics["transitions"] = len(comp.fsm.transitions)
    report.statistics["elapsed_ms"] = round((time.perf_counter() - t0) * 1000, 3)
    if args.output:
        _write_fsm(args.output, comp.fsm, report)
    return 0, report


def cmd_minimize(args) -> tuple[int, RunReport]:
    doc = _load(args.file)
    m = _get_fsm(doc, args.machine)
    report = RunReport("minimize", [args.file])
    t0 = time.perf_counter()
    q = quotient(m)
    report.statistics["states_in"] = len(m.states)
    report.statistics["states_out"] = len(q.states)
    report.statistics["transitions_out"] = len(q.transitions)
    # a quotient has one state per block of its partition
    report.statistics["blocks"] = len(q.states)
    report.statistics["elapsed_ms"] = round((time.perf_counter() - t0) * 1000, 3)
    if args.output:
        _write_fsm(args.output, q, report)
    return 0, report


def cmd_check_comp_bisim(args) -> tuple[int, RunReport]:
    doc1 = _load(args.file1)
    a1 = _get_arena(doc1, args.arena1)
    doc2 = _load(args.file2)
    a2 = _get_arena(doc2, args.arena2)
    report = RunReport("check-comp-bisim", [args.file1, args.file2])
    t0 = time.perf_counter()
    classes = machine_classes(a1, a2)
    b1, b2 = _comp_blocks(a1, a2, classes)
    verdict = set(b1) == set(b2)
    report.verdict = verdict
    report.statistics["classes"] = len(classes.classes)
    report.statistics["elapsed_ms"] = round((time.perf_counter() - t0) * 1000, 3)
    if args.witness:
        for k, block in enumerate(classes.classes):
            members = ", ".join(f"{'AB'[t]}:{v}" for t, v in sorted(block))
            report.listing.append(f"  class {classes.token(k)}: {members}")
        report.listing += [f"  {v1} ~ {v2}" for v1, v2 in sorted(_comp_pairs(a1, a2, b1, b2))]
    return (0 if verdict else 1), report


def cmd_reduce(args) -> tuple[int, RunReport]:
    doc = _load(args.file)
    arena = _get_arena(doc, args.arena)
    report = RunReport("reduce", [args.file])
    t0 = time.perf_counter()
    minimal, steps = reduce_arena(arena, max_states=args.max_states)
    report.statistics.update(steps)
    report.statistics["elapsed_ms"] = round((time.perf_counter() - t0) * 1000, 3)
    if args.output:
        _write_fsm(args.output, minimal, report)
    return 0, report


def cmd_classes(args) -> tuple[int, RunReport]:
    doc = _load(args.file)
    arena = _get_arena(doc, args.arena)
    report = RunReport("classes", [args.file])
    classes = machine_classes(arena)
    report.statistics["classes"] = len(classes.classes)
    report.statistics["vertices"] = len(arena.vertices)
    for k, block in enumerate(classes.classes):
        members = ", ".join(v for _, v in sorted(block))
        report.listing.append(f"  class {classes.token(k)}: {members}")
    return 0, report


def cmd_export_dot(args) -> tuple[int, RunReport]:
    doc = _load(args.file)
    if args.name in doc.fsms:
        obj = doc.fsms[args.name]
    elif args.name in doc.arenas:
        obj = doc.arenas[args.name]
    else:
        raise CliError(f"no machine or arena named {args.name!r} in {args.file}")
    report = RunReport("export-dot", [args.file])
    text = export_dot(obj)
    if args.output:
        _write(args.output, [text], report)
    else:
        report.listing = text.splitlines()
    return 0, report


def _bench_machine(name: str, label: str, output: str) -> Fsm:
    """A two-state machine: on ``label`` it moves to a state that outputs ``output``."""
    return validate_fsm(
        name, ["p", "q"], [label], [output],
        {"p": [], "q": [output]},
        [("p", [label], "q"), ("q", [], "p")],
        initial="p",
    )


def _bench_arena(family: str, n: int, ping: Fsm, pong: Fsm) -> Arena:
    vertices = {f"v{i:03d}": (ping if i % 2 == 0 else pong) for i in range(n)}
    names = sorted(vertices)
    if n == 1:
        edges = []
    elif family == "star":
        edges = [(names[i], names[0]) for i in range(1, n)]
    else:  # ring
        edges = [(names[i], names[(i + 1) % n]) for i in range(n)]
    return validate_arena(f"{family}{n:03d}", vertices, edges)


def cmd_bench_scaling(args) -> tuple[int, RunReport]:
    if args.n_max < 1:
        raise CliError(f"--n-max must be at least 1, got {args.n_max}")
    report = RunReport("bench-scaling")
    rows = []
    ping, pong = _bench_machine("ping", "tick", "hot"), _bench_machine("pong", "tock", "cold")
    for n in range(1, args.n_max + 1):
        arena = _bench_arena(args.family, n, ping, pong)
        t0 = time.perf_counter()
        ok = is_comp_bisimilar(arena, arena)
        elapsed = (time.perf_counter() - t0) * 1000
        if not ok:
            raise CliError(f"self-check failed at N={n}")
        rows.append(
            {
                "N": n,
                "product_states": state_count(arena),
                "induced_states": len(arena.vertices),
                "comp_check_ms": round(elapsed, 3),
            }
        )
    if args.csv:
        text = io.StringIO()
        writer = csv.DictWriter(text, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
        _write(args.csv, [text.getvalue()], report)
    report.statistics["rows"] = len(rows)
    report.statistics["max_product_states"] = rows[-1]["product_states"]
    report.statistics["last_comp_check_ms"] = rows[-1]["comp_check_ms"]
    return 0, report


def cmd_stats(args) -> tuple[int, RunReport]:
    doc = _load(args.file)
    report = RunReport("stats", [args.file])
    for name, fsm in doc.fsms.items():
        report.statistics[f"fsm.{name}.states"] = len(fsm.states)
        report.statistics[f"fsm.{name}.transitions"] = len(fsm.transitions)
    for name, arena in doc.arenas.items():
        report.statistics[f"arena.{name}.vertices"] = len(arena.vertices)
        report.statistics[f"arena.{name}.edges"] = len(arena.edges)
        report.statistics[f"arena.{name}.product_states"] = state_count(arena)
    return 0, report


@cache  # built once per process: parsing leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="afsm", description="Arenas of finite state machines toolkit"
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, output=True):
        p.add_argument("--json", action="store_true", help="machine-readable report")
        if output:
            p.add_argument("-o", "--output", help="output file path")

    p = sub.add_parser("check-bisim", help="decide bisimilarity of two machines")
    p.add_argument("file")
    p.add_argument("m1")
    p.add_argument("m2")
    p.add_argument("--witness", action="store_true", help="print the maximal relation")
    p.add_argument("--oracle", action="store_true", help="cross-check with the brute-force oracle")
    common(p, output=False)
    p.set_defaults(func=cmd_check_bisim)

    p = sub.add_parser("expand", help="expand an arena to its flat machine")
    p.add_argument("file")
    p.add_argument("arena")
    p.add_argument("--accessible", action="store_true", help="reachable states only")
    p.add_argument("--max-states", type=int, default=DEFAULT_MAX_STATES)
    common(p)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("minimize", help="bisimulation quotient of a machine")
    p.add_argument("file")
    p.add_argument("machine")
    common(p)
    p.set_defaults(func=cmd_minimize)

    p = sub.add_parser("check-comp-bisim", help="decide compositional bisimilarity of two arenas")
    p.add_argument("file1")
    p.add_argument("arena1")
    p.add_argument("file2")
    p.add_argument("arena2")
    p.add_argument("--witness", action="store_true", help="print classes and vertex relation")
    common(p, output=False)
    p.set_defaults(func=cmd_check_comp_bisim)

    p = sub.add_parser("reduce", help="five-step compositional reduction of an arena")
    p.add_argument("file")
    p.add_argument("arena")
    p.add_argument("--max-states", type=int, default=DEFAULT_MAX_STATES)
    common(p)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("classes", help="machine-equivalence classes of an arena")
    p.add_argument("file")
    p.add_argument("arena")
    common(p, output=False)
    p.set_defaults(func=cmd_classes)

    p = sub.add_parser("export-dot", help="GraphViz rendering of a machine or arena")
    p.add_argument("file")
    p.add_argument("name")
    common(p)
    p.set_defaults(func=cmd_export_dot)

    p = sub.add_parser("bench-scaling", help="exponential vs polynomial scaling evidence")
    p.add_argument("--family", choices=["star", "ring"], default="star")
    p.add_argument("--n-max", type=int, default=20)
    p.add_argument("--csv", help="CSV output path")
    common(p, output=False)
    p.set_defaults(func=cmd_bench_scaling)

    p = sub.add_parser("stats", help="size statistics of a model file")
    p.add_argument("file")
    common(p, output=False)
    p.set_defaults(func=cmd_stats)

    return parser


@stage("run")
def run(argv=None) -> int:
    """Run one verb and return its exit status.

    The collector stays paused for the whole verb, not only inside the
    stages that pause it: a collection between two stages would walk every
    transition tuple the first one returned.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, report = args.func(args)
    except (CliError, ModelError, BisimError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report.render(args.json))
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
