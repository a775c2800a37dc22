"""Whole-call and per-stage times of the library on fixed inputs, read from its stage record.

Run from the root of a checkout::

    python3 tests/stage_timing.py [--before OLD/src] [--after src] [--repeat N] [--rss N]
                                  [--only SUBSTRING ...] [-o FILE]

A side is the ``afsm`` package of one ``src`` tree, imported apart from
any other copy: ``--after`` (default: this checkout's) and, to compare,
``--before``.  Each input is called ``N`` times per side (default 21),
warm and with no record open, the first side alternating from round to
round; then a side that has ``afsm.record`` calls it ``N`` more times
inside a record.  The inputs, named in the report by what they call, are
the calls of the benchmark's four workloads (``perfbench/workloads.py``,
seed 21): the five verbs of a ``chain-minimize`` round, both verbs of the
first ``flat-roundtrip`` job (13,824 states), and per call kind one pass
over the 240 ``comp-campaign`` cases, its networks and ``bench-scaling``;
``reduce`` of the fixture's ``ecoli`` and accessible ``expand`` of its
``ecoli_min``; and the refinement worst cases: a 4,000-state chain, with
and without a loop, 1,000 twin states without moves, and a 1,000-state
chain beside a renamed copy.  ``--only SUBSTRING``, which may be given
more than once, times only the inputs whose names contain one of them.

Per input and side it reports the median ms of the call and, from the
record, per stage its calls and median total and self ms; two sides add
the median after/before ratio and the rounds the after side won.
``--rss N`` runs ``expand -o`` then ``minimize`` of the flat-roundtrip
input and of ``ecoli_min`` (55,296 states) ``N`` times per side, each in
a new interpreter, for the medians of peak RSS (``VmHWM``), wall time and
RSS after import.  The Python version, core count and
``PYTHONDONTWRITEBYTECODE`` head the JSON document.  pytest does not
collect this file.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "perfbench"))

import workloads  # noqa: E402

SEED = 21
GUARD = 10**5  # the campaign's guard on expansions
ECOLI = HERE.parent / "src" / "afsm" / "fixtures" / "ecoli.afsm"


def load(src):
    """The ``afsm`` package found in ``src``, imported apart from any other copy."""
    def forget():
        for name in [name for name in sys.modules if name.partition(".")[0] == "afsm"]:
            del sys.modules[name]

    forget()
    sys.path.insert(0, str(Path(src).resolve()))
    try:
        import afsm.cli  # binds the package, with its cli module
    finally:
        del sys.path[0]
    forget()
    return afsm


def write_files(api, workdir):
    """The chain-minimize verbs, the flat-roundtrip subset and comp-campaign, written once."""
    chains = workloads.ChainMinimize(api, SEED, workdir / "chain", {})
    chains.setup()
    verbs = {}
    for slot, (verb, n, extra) in enumerate(chains.MIX):
        path, names = chains.files[slot, 0]
        if verb == "minimize":
            name = f"minimize chain {n}" + (f" + {extra} clones" if extra else "")
            verbs[name] = ["minimize", path, names[0], "-o", "min.afsm"]
        else:
            name = (f"check-bisim chain {n} + {extra} clones" if verb == "bisim-clone"
                    else f"check-bisim chains {n} + {extra}")
            verbs[name] = ["check-bisim", path, *names]
    expected = {"flat-roundtrip": dict.fromkeys(workloads.ECOLI_MIN_FOUR_STATE)}
    # ``afsm.fixture_path`` finds the package by its name, which ``load`` unbinds
    fixtures = SimpleNamespace(fixture_path=ECOLI.with_name, parse=api.parse)
    flat = workloads.FlatRoundtrip(fixtures, SEED, workdir / "flat", expected)
    flat.setup()
    campaign = workloads.CompCampaign(api, SEED, workdir / "campaign", {})
    campaign.setup()
    texts = [Path(path).read_text(encoding="utf-8") for _, path in campaign.cases]
    return verbs, flat.jobs[0][0], texts, campaign.pairs


def chain(api, n, loop=False):
    """A chain of ``n`` states from ``c0``, the last one outputting ``end``."""
    states = [f"c{i}" for i in range(n)]
    output_map = {s: [] for s in states}
    output_map[states[-1]] = ["end"]
    transitions = [(states[i], ["a"], states[i + 1]) for i in range(n - 1)]
    transitions += [(states[-1], ["a"], states[-1])] * loop
    return api.validate_fsm("chain", states, ["a"], ["end"], output_map, transitions, initial="c0")


def renamed(m):
    """``m`` with its states renamed in a shuffled order."""
    names = [f"r{i}" for i in range(len(m.states))]
    random.Random(SEED).shuffle(names)
    return m.renamed("copy", dict(zip(m.states, names)))


def inputs(api, files, out):
    """Input name -> a call that takes no argument, on the package ``api``; files go to ``out``."""
    verbs, subset, texts, networks = files
    docs = [api.parse(text) for text in texts]
    pairs = [(doc.arenas["a"], doc.arenas["b"]) for doc in docs]
    expanded = [api.expand(a, mode="full", max_states=GUARD).fsm for a, _ in pairs]
    flat = []
    for m1, (_, b) in zip(expanded, pairs):
        m2 = api.expand(b, mode="full", max_states=GUARD).fsm
        if m1.initial is not None and m2.initial is not None:
            flat.append((m1, m2))

    out.mkdir()

    def verb(argv):  # a bare file name is one of this side's outputs
        argv = [str(out / a) if a.endswith(".afsm") and "/" not in a else a for a in argv]
        return lambda: api.cli.run(argv)

    def reductions():
        for a, _ in pairs:
            with contextlib.suppress(api.QuotientSelfLoop):
                api.reduce(a, max_states=GUARD)

    calls = {name: verb(argv) for name, argv in verbs.items()}
    for loop in (False, True):
        name = f"quotient chain 4000{' looped' if loop else ''}"
        calls[name] = lambda m=chain(api, 4000, loop): api.quotient(m)
    twins = api.validate_fsm("twins", [f"s{i}" for i in range(1000)], [], [f"y{i}" for i in range(500)],
                             {f"s{i}": [f"y{i // 2}"] for i in range(1000)}, [])
    calls["is_isomorphic 1000 twins without moves"] = lambda c=renamed(twins): api.is_isomorphic(twins, c)
    m = chain(api, 1000)
    calls["is_bisimilar chain 1000"] = lambda c=renamed(m): api.is_bisimilar(m, c)
    ecoli = api.parse(ECOLI.read_text(encoding="utf-8")).arenas
    calls["reduce ecoli"] = lambda: api.reduce(ecoli["ecoli"])
    calls["expand ecoli_min accessible"] = lambda: api.expand(ecoli["ecoli_min"], mode="accessible")
    calls["flat-roundtrip expand 13824"] = verb(["expand", subset, "sub", "-o", "flat.afsm"])
    calls["flat-roundtrip minimize 13824"] = verb(["minimize", "flat.afsm", "M_sub", "-o", "min.afsm"])
    calls["campaign parse"] = lambda: [api.parse(text) for text in texts]
    calls["campaign expand"] = lambda: [api.expand(a, mode="full", max_states=GUARD) for a, _ in pairs]
    calls["campaign quotient"] = lambda: [api.quotient(m) for m in expanded]
    calls["campaign is_comp_bisimilar"] = lambda: [api.is_comp_bisimilar(a, b) for a, b in pairs]
    calls["campaign reduce"] = reductions
    calls["campaign is_bisimilar"] = lambda: [api.is_bisimilar(m1, m2) for m1, m2 in flat]
    calls["parse campaign case"] = lambda: api.parse(texts[0])
    network = Path(networks[0][0][1]).read_text(encoding="utf-8")
    calls["parse network 300"] = lambda: api.parse(network)
    for argv, odd in networks:
        calls[f"check-comp-bisim 300{' odd' if odd else ''}"] = verb(argv)
    for family in ("ring", "star"):
        calls[f"bench-scaling {family} 20"] = verb(["bench-scaling", "--family", family, "--n-max", "20"])
    return calls


def stages(runs) -> dict:
    """Stage name -> its calls per run and medians of total and self ms, from recorded runs."""
    rows = []  # per run: stage name -> (calls, total s, self s)
    for entries in runs:
        rows.append({})
        for e in entries:
            calls, total, own = rows[-1].get(e["stage"], (0, 0.0, 0.0))
            rows[-1][e["stage"]] = calls + 1, total + e["total_s"], own + e["self_s"]
    return {name: {"calls": n,
                   "total_ms": round(1000 * statistics.median(r[name][1] for r in rows), 3),
                   "self_ms": round(1000 * statistics.median(r[name][2] for r in rows), 3)}
            for name, (n, _, _) in rows[-1].items()}


def rounds(sides, repeat):
    """Per round, the sides in the order they run: the first side alternates."""
    return [list(sides)[::1 if k % 2 else -1] for k in range(repeat)]


def timing(sides, files, workdir, repeat, only=None) -> dict:
    calls = {side: inputs(api, files, workdir / side) for side, api in sides.items()}
    if only:
        calls = {side: {name: call for name, call in named.items() if any(o in name for o in only)}
                 for side, named in calls.items()}
    times = {side: {name: [] for name in calls[side]} for side in sides}
    report = {name: {} for name in calls["after"]}
    with contextlib.redirect_stdout(io.StringIO()):
        for order in rounds(sides, repeat):
            for name in calls["after"]:
                for side in order:
                    calls[side][name]()  # untimed, so that the timed call runs warm
                    t = time.perf_counter()
                    calls[side][name]()
                    times[side][name].append(1000 * (time.perf_counter() - t))
        for side, api in sides.items():
            for name, call in calls[side].items():
                report[name][side] = {"median_ms": round(statistics.median(times[side][name]), 3)}
                if hasattr(api, "record"):
                    runs = []
                    for _ in range(repeat):
                        with api.record() as entries:
                            call()
                        runs.append(entries)
                    report[name][side]["stages"] = stages(runs)
    if len(sides) == 2:
        for name, row in report.items():
            ratios = [b / a for a, b in zip(times["before"][name], times["after"][name])]
            row["after_over_before"] = round(statistics.median(ratios), 3)
            row["after_wins"] = sum(r < 1 for r in ratios)
    return report


def peak_rss_mb() -> float:
    """The peak RSS of this process so far, in MB: ``VmHWM``, or ``ru_maxrss`` without ``/proc``."""
    with contextlib.suppress(OSError), open("/proc/self/status", encoding="ascii") as status:
        return next(int(line.split()[1]) / 1024 for line in status if line.startswith("VmHWM:"))
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def child(src, argv) -> None:
    """Run one CLI verb of the package in ``src`` in this process, and print its figures."""
    sys.path.insert(0, str(Path(src).resolve()))
    from afsm.cli import run

    before = peak_rss_mb()
    t = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = run(argv)
    wall = time.perf_counter() - t
    print(json.dumps({"code": code, "peak_rss_mb": peak_rss_mb(), "wall_s": wall,
                      "import_rss_mb": before}))


def rss(srcs, subset, workdir, repeat) -> dict:
    """Medians of peak RSS, wall time and RSS after import of the flat round trip's verbs."""
    report = {}
    for name, path, arena in (("flat-roundtrip 13824", subset, "sub"),
                              ("ecoli_min 55296", str(ECOLI), "ecoli_min")):
        flat = {side: str(workdir / f"{side}-flat.afsm") for side in srcs}
        for verb in ("expand", "minimize"):
            runs = {side: [] for side in srcs}
            for order in rounds(srcs, repeat):
                for side in order:
                    argv = ([verb, path, arena, "-o", flat[side]] if verb == "expand" else
                            [verb, flat[side], f"M_{arena}", "-o", str(workdir / "min.afsm")])
                    out = subprocess.run([sys.executable, __file__, "--child", srcs[side], *argv],
                                         stdout=subprocess.PIPE, text=True, check=True).stdout
                    runs[side].append(json.loads(out.splitlines()[-1]))
                    if runs[side][-1]["code"] != 0:
                        raise SystemExit(f"afsm {' '.join(argv)} exited with {runs[side][-1]['code']}")
            report[f"{verb} {name}"] = {
                side: {key: round(statistics.median(r[key] for r in runs[side]), 4)
                       for key in ("peak_rss_mb", "wall_s", "import_rss_mb")}
                for side in srcs
            }
    return report


def main() -> None:
    if sys.argv[1:2] == ["--child"]:
        child(sys.argv[2], sys.argv[3:])
        return
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--before", help="src directory of the version before")
    p.add_argument("--after", default=str(HERE.parent / "src"), help="src directory of the version after")
    p.add_argument("--repeat", type=int, default=21, help="timed calls per input and side")
    p.add_argument("--rss", type=int, default=0, help="fresh-process runs per verb and side")
    p.add_argument("--only", action="append", metavar="SUBSTRING",
                   help="time only the inputs whose names contain SUBSTRING (repeatable)")
    p.add_argument("-o", "--output", help="write the JSON document here")
    args = p.parse_args()
    srcs = {side: src for side, src in (("before", args.before), ("after", args.after)) if src}
    report = {
        "what": "tests/stage_timing.py: median ms per input and side, and stages from the record",
        "python": platform.python_version(),
        "cores": os.cpu_count(),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "repeat": args.repeat,
        "only": args.only,
    }
    sides = {side: load(src) for side, src in srcs.items()}
    with tempfile.TemporaryDirectory() as workdir:
        workdir = Path(workdir)
        files = write_files(sides["after"], workdir)
        report["inputs"] = timing(sides, files, workdir, args.repeat, args.only)
        if args.rss:
            report["rss_runs"] = args.rss
            report["rss"] = rss(srcs, files[1], workdir, args.rss)
    text = json.dumps(report, indent=1)
    if args.output:
        Path(args.output).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


if __name__ == "__main__":
    main()
