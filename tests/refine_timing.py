"""Median time of one partition refinement, ``bisim._refine``, on fixed inputs.

Run from the root of a checkout::

    PYTHONPATH=src python3 tests/refine_timing.py [--repeat N]

The inputs are the chains that the ``chain-minimize`` benchmark workload
minimizes (``perfbench/gen.py``'s ``chain`` of 400 states, of 700 states
with 35 clones, whose 700 reachable states are refined, and of 1,000
states), the 4,000-state chain of ``tests/test_bisim.py`` without and with
a loop on its last state, and, on the E. coli arena of the fixture, the
17-state induced machine that ``reduce`` refines for the arena quotient,
two of whose states are well-founded, and the 306-state exploration that
it refines last.  Two more are the union of ``gen.chain``'s chains of 500
and 501 states that the benchmark's ``check-bisim`` job refines, put on
integers as ``_blocks`` puts it, and 1,000 states without moves in 500
output classes of two beside a renamed copy, coloured as the first
refinement of ``is_isomorphic`` colours them.  The others are put on
integers as ``quotient`` and ``reduce`` put them.  Each is refined ``N``
times (default 21) with the collector off.  The script prints one JSON
document: the Python version, the core count, the value of
``PYTHONDONTWRITEBYTECODE``, and per input its states, moves, median time
in ms and every run's time.  pytest does not collect this file.
"""

import argparse
import gc
import json
import os
import platform
import random
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import gen  # noqa: E402
from afsm import bisim, load_fixture, parse, reduce, validate_fsm  # noqa: E402
from afsm.compositional import _induced, machine_classes  # noqa: E402
from afsm.model import _reach  # noqa: E402


def on_integers(m):
    """(states, outputs, moves) of ``m``'s reachable part, as ``quotient`` reads it."""
    names, succ = _reach(m, {})
    return len(names), [m.output_map[s] for s in names], succ


def benchmark_chain(n, clones):
    rng = random.Random(f"chain/{n}/{clones}")
    text = gen.emit([gen.chain("A", n, clones, rng)], [], rng)
    return on_integers(parse(text).fsms["A"])


def long_chain(n, loop):
    states = [f"c{i}" for i in range(n)]
    output_map = {s: [] for s in states}
    output_map[f"c{n - 1}"] = ["end"]
    transitions = [(f"c{i}", ["a"], f"c{i + 1}") for i in range(n - 1)]
    transitions += [(f"c{n - 1}", ["a"], f"c{n - 1}")] * loop
    m = validate_fsm("chain", states, ["a"], ["end"], output_map, transitions, initial="c0")
    return on_integers(m)


def ecoli_induced():
    """The induced machine whose refinement gives the arena quotient of E. coli."""
    arena = load_fixture("ecoli.afsm").arenas["ecoli"]
    outputs, succ = _induced(arena, machine_classes(arena))
    return len(outputs), outputs, succ


def refinements(call):
    """The arguments of every ``bisim._refine`` call that ``call()`` makes."""
    seen = []
    refine = bisim._refine
    bisim._refine = lambda *args: seen.append(args) or refine(*args)
    try:
        call()
    finally:
        bisim._refine = refine
    return seen


def ecoli_exploration():
    """The largest refinement that ``reduce`` makes on the E. coli arena."""
    seen = refinements(lambda: reduce(load_fixture("ecoli.afsm").arenas["ecoli"]))
    return max(seen, key=lambda args: args[0])


def chain_union():
    """The refinement of the benchmark's ``check-bisim`` of chains of 500 and 501 states."""
    rng = random.Random("chain union")
    doc = parse(gen.emit([gen.chain("A", 500), gen.chain("B", 501)], [], rng))
    (args,) = refinements(lambda: bisim._blocks(doc.fsms["A"], doc.fsms["B"]))
    return args


def no_move_twins(n):
    """The first refinement of ``is_isomorphic`` of ``n`` twin states without moves."""
    states = [f"s{i}" for i in range(n)]
    output_map = {s: [f"y{i // 2}"] for i, s in enumerate(states)}
    m = validate_fsm("twins", states, [], sorted(output_map[s][0] for s in states[::2]),
                     output_map, [])
    names = [f"t{i}" for i in range(n)]
    random.Random("twins").shuffle(names)
    copy = m.renamed("copy", dict(zip(states, names)))
    return refinements(lambda: bisim.is_isomorphic(m, copy))[0]


def inputs():
    return {
        "chain 400": benchmark_chain(400, 0),
        "chain 700 + 35 clones": benchmark_chain(700, 35),
        "chain 1000": benchmark_chain(1000, 0),
        "chain 4000": long_chain(4000, False),
        "chain 4000 looped": long_chain(4000, True),
        "ecoli induced machine": ecoli_induced(),
        "ecoli exploration": ecoli_exploration(),
        "check-bisim chains 500 + 501": chain_union(),
        "1000 twins without moves": no_move_twins(1000),
    }


def time_refine(args, repeat):
    runs = []
    gc.disable()
    try:
        for _ in range(repeat):
            t = time.perf_counter()
            bisim._refine(*args)
            runs.append(1000 * (time.perf_counter() - t))
    finally:
        gc.enable()
    return runs


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--repeat", type=int, default=21)
    repeat = p.parse_args().repeat
    report = {
        "python": platform.python_version(),
        "cores": os.cpu_count(),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "repeat": repeat,
    }
    for name, args in inputs().items():
        runs = time_refine(args, repeat)
        report[name] = {
            "states": args[0],
            "moves": sum(map(len, args[2])),
            "median_ms": round(statistics.median(runs), 3),
            "runs_ms": [round(t, 3) for t in runs],
        }
    print(json.dumps(report, indent=1))


if __name__ == "__main__":
    main()
