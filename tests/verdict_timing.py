"""Before/after times of the compositional verdicts, ``reduce``, ``is_bisimilar`` and ``expand``.

Run from the root of a checkout, with the ``src`` directories of the two
versions to compare::

    python3 tests/verdict_timing.py --before OLD/src --after src [--repeat N] [-o FILE]

Both versions are imported into one interpreter, each as its own copy of
the ``afsm`` package, and each builds its own inputs from the same
files.  Every input is then timed ``N`` times on each side (default
101), interleaved: input by input, the side that runs first alternating
from one round to the next.  The inputs:

- ``is_comp_bisimilar``, ``reduce``, ``is_bisimilar``, ``parse``,
  ``expand`` and ``quotient``, each timed as one pass over the 240
  ``comp-campaign`` cases (``perfbench/gen.py``'s ``campaign_template``,
  written with seed 21): ``is_comp_bisimilar`` of the arenas ``a`` and
  ``b``, ``reduce`` of ``a`` (a ``QuotientSelfLoop`` counts as done),
  ``is_bisimilar`` of the full expansions of ``a`` and ``b`` where both
  declare initial states, ``parse`` of each case file, the full
  ``expand`` of each case's arena ``a``, and ``quotient`` of that
  expansion;
- the ``check-comp-bisim`` verb on the 300-vertex network pair of
  ``comp-campaign``, the bisimilar one and the one with an odd vertex;
- the ``bench-scaling`` verb for the ring and the star family up to N=20;
- ``is_bisimilar`` of a 1,000-state chain, every state of which its
  initial state reaches, and a renamed copy of it;
- ``reduce`` of the E. coli fixture's ``ecoli`` arena;
- the accessible ``expand`` of its ``ecoli_min`` arena;
- the full ``expand`` of the 13,824-state subset of ``ecoli_min``
  without the vertex ``LacY``.

The script prints, or writes to ``FILE``, one JSON document: the Python
version, the core count, the value of ``PYTHONDONTWRITEBYTECODE``, and per
input each side's median time, the median over the rounds of after/before
and the number of rounds the after side won.  pytest does not collect
this file.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import random
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "perfbench"))

import workloads  # noqa: E402

SEED = 21
ECOLI = HERE.parent / "src" / "afsm" / "fixtures" / "ecoli.afsm"
GUARD = 10**5  # the campaign's guard on expansions


def load(src):
    """The ``afsm`` package found in ``src``, imported apart from any other copy."""
    def ours():
        return [name for name in sys.modules if name == "afsm" or name.startswith("afsm.")]

    for name in ours():
        del sys.modules[name]
    sys.path.insert(0, str(Path(src).resolve()))
    try:
        import afsm
        import afsm.cli  # noqa: F401
    finally:
        del sys.path[0]
    for name in ours():
        del sys.modules[name]
    return afsm


def write_campaign(workdir):
    """The case files and check-comp-bisim arguments of ``comp-campaign``, written once."""
    campaign = workloads.CompCampaign(None, SEED, workdir, {})
    campaign.setup()
    texts = [Path(path).read_text(encoding="utf-8") for _, path in campaign.cases]
    return texts, campaign.pairs


def inputs(api, texts, networks):
    """Input name -> a call that takes no argument, on the ``afsm`` package ``api``."""
    pairs = [(doc.arenas["a"], doc.arenas["b"]) for doc in map(api.parse, texts)]
    expanded = [api.expand(a, mode="full", max_states=GUARD).fsm for a, _ in pairs]
    flat = []
    for a, b in pairs:
        m1, m2 = (api.expand(x, mode="full", max_states=GUARD).fsm for x in (a, b))
        if m1.initial is not None and m2.initial is not None:
            flat.append((m1, m2))

    def comp_checks():
        for a, b in pairs:
            api.is_comp_bisimilar(a, b)

    def reductions():
        for a, _ in pairs:
            try:
                api.reduce(a, max_states=GUARD)
            except api.QuotientSelfLoop:
                pass

    def flat_checks():
        for m1, m2 in flat:
            api.is_bisimilar(m1, m2)

    def parses():
        for text in texts:
            api.parse(text)

    def expansions():
        for a, _ in pairs:
            api.expand(a, mode="full", max_states=GUARD)

    def quotients():
        for m in expanded:
            api.quotient(m)

    def verb(argv):
        def call():
            with contextlib.redirect_stdout(io.StringIO()):
                api.cli.run(argv)
        return call

    n = 1000
    states = [f"c{i}" for i in range(n)]
    output_map = {s: [] for s in states}
    output_map[states[-1]] = ["end"]
    transitions = [(states[i], ["a"], states[i + 1]) for i in range(n - 1)]
    chain = api.validate_fsm("chain", states, ["a"], ["end"], output_map, transitions,
                             initial="c0")
    names = [f"d{i}" for i in range(n)]
    random.Random(SEED).shuffle(names)
    copy = chain.renamed("copy", dict(zip(states, names)))

    calls = {
        "campaign is_comp_bisimilar": comp_checks,
        "campaign reduce": reductions,
        "campaign is_bisimilar": flat_checks,
        "campaign parse": parses,
        "campaign expand": expansions,
        "campaign quotient": quotients,
    }
    for argv, odd in networks:
        calls[f"check-comp-bisim 300{' odd' if odd else ''}"] = verb(argv)
    for family in ("ring", "star"):
        calls[f"bench-scaling {family} 20"] = verb(
            ["bench-scaling", "--family", family, "--n-max", "20"]
        )
    calls["is_bisimilar chain 1000"] = lambda: api.is_bisimilar(chain, copy)

    ecoli = api.parse(ECOLI.read_text(encoding="utf-8")).arenas
    small = ecoli["ecoli_min"]
    subset = api.validate_arena(
        "sub",
        {v: m for v, m in small.vertices if v != "LacY"},
        [e for e in small.edges if "LacY" not in e],
    )
    calls["reduce ecoli"] = lambda: api.reduce(ecoli["ecoli"])
    calls["expand ecoli_min accessible"] = lambda: api.expand(small, mode="accessible")
    calls["expand ecoli_min without LacY full"] = lambda: api.expand(subset, mode="full")
    return calls


def compare(before, after, repeat) -> dict:
    sides = {"before": load(before), "after": load(after)}
    with tempfile.TemporaryDirectory() as workdir:
        texts, networks = write_campaign(Path(workdir))
        calls = {side: inputs(api, texts, networks) for side, api in sides.items()}
        times = {side: {name: [] for name in calls[side]} for side in sides}
        for k in range(repeat):
            for name in calls["before"]:
                for side in ("before", "after") if k % 2 == 0 else ("after", "before"):
                    t = time.perf_counter()
                    calls[side][name]()
                    times[side][name].append(1000 * (time.perf_counter() - t))
    report = {
        "what": "median ms per input from tests/verdict_timing.py, both versions interleaved "
                "in one process; before = the --before src, after = the --after src",
        "python": platform.python_version(),
        "cores": os.cpu_count(),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "repeat": repeat,
        "inputs": {},
    }
    for name in calls["before"]:
        old, new = times["before"][name], times["after"][name]
        ratios = [b / a for a, b in zip(old, new)]
        report["inputs"][name] = {
            "before_ms": round(statistics.median(old), 3),
            "after_ms": round(statistics.median(new), 3),
            "after_over_before": round(statistics.median(ratios), 3),
            "after_wins": sum(r < 1 for r in ratios),
        }
    return report


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--before", required=True, help="src directory of the version before")
    p.add_argument("--after", required=True, help="src directory of the version after")
    p.add_argument("--repeat", type=int, default=101, help="timed calls per input and side")
    p.add_argument("-o", "--output", help="write the JSON document here")
    args = p.parse_args()
    text = json.dumps(compare(args.before, args.after, args.repeat), indent=1)
    if args.output:
        Path(args.output).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


if __name__ == "__main__":
    main()
