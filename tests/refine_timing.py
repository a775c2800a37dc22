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
it refines last.  Each is put on integers as
``quotient`` and ``reduce`` put it, then refined ``N`` times (default 21)
with the collector off.  The script prints one JSON document: the Python
version, the core count, the value of ``PYTHONDONTWRITEBYTECODE``, and per
input its states, moves, median time in ms and every run's time.  pytest
does not collect this file.
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


def ecoli_exploration():
    """The largest refinement that ``reduce`` makes on the E. coli arena."""
    seen = []
    refine = bisim._refine
    bisim._refine = lambda *args: seen.append(args) or refine(*args)
    try:
        reduce(load_fixture("ecoli.afsm").arenas["ecoli"])
    finally:
        bisim._refine = refine
    return max(seen, key=lambda args: args[0])


def inputs():
    return {
        "chain 400": benchmark_chain(400, 0),
        "chain 700 + 35 clones": benchmark_chain(700, 35),
        "chain 1000": benchmark_chain(1000, 0),
        "chain 4000": long_chain(4000, False),
        "chain 4000 looped": long_chain(4000, True),
        "ecoli induced machine": ecoli_induced(),
        "ecoli exploration": ecoli_exploration(),
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
