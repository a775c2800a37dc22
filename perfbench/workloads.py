"""The four benchmark workloads: seeded inputs, jobs and answer checks.

A workload writes its inputs as `.afsm` files during set-up and hands out
jobs in rounds.  Every round has the same mix of job kinds and sizes for
every seed; the seed changes names, line order, graph shapes and which
subsets are taken.  A job's ``run`` is the timed part.  Its ``check`` runs
afterwards, untimed, and returns an error message or ``None``.

The library (``api``, the ``afsm`` package) is reached only through
attribute lookups at call time, so that the tracer's wrappers are used when
they are installed.
"""

from __future__ import annotations

import csv
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import gen

# Published in src/afsm/fixtures/README.md for the E. coli case study.
ECOLI_PUBLISHED = {
    "classes": 9, "quotient_vertices": 9, "expanded_states": 55296, "final_states": 48,
}
ECOLI_ARABINOSE = {"AraB", "AraE", "AraC"}
ECOLI_MIN_FOUR_STATE = ("AraB", "AraE", "GalE", "LacY", "LacZ")
CAMPAIGN_BASE_SEED = 1106_0342
CAMPAIGN_TEMPLATES = 240
ORACLE_MAX_PAIRS = 4096


class Job:
    def __init__(self, kind, run, check):
        self.kind = kind
        self.run = run
        self.check = check


def cli(api, argv):
    """``afsm.cli.run(argv)`` with its report captured; (exit code, text)."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(out):
        code = api.cli.run(argv)
    return code, out.getvalue()


def report(text):
    try:
        return json.loads(text)["statistics"]
    except (ValueError, KeyError):
        return None


def mismatch(what, got, want):
    return None if got == want else f"{what}: got {got!r}, expected {want!r}"


def first_error(*messages):
    return next((m for m in messages if m), None)


def state_lines(path: Path) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(1 for line in fh if line.startswith("  state "))


def cli_job(api, kind, argv, want_code, want_stats, out_states=None):
    """A CLI verb whose JSON report must carry ``want_stats``."""

    def check(result):
        code, text = result
        stats = report(text)
        if stats is None:
            return f"{kind}: unreadable report {text[:200]!r}"
        errors = [mismatch(f"{kind} exit code", code, want_code)]
        errors += [mismatch(f"{kind} {k}", stats.get(k), v) for k, v in want_stats.items()]
        if out_states is not None:
            path, n = out_states
            errors.append(mismatch(f"{kind} states written", state_lines(path), n))
        return first_error(*errors)

    return Job(kind, lambda: cli(api, argv), check)


def campaign_facts(api, doc, guard=10**5):
    """One campaign case as acceptance criteria 6 and 7 run it.

    Returns the name-independent facts (compositional and flat verdicts,
    reduce's class and vertex counts and final size, the direct quotient's
    size, the isomorphism verdict) and the machines behind the verdicts.
    """
    a, b = doc.arenas["a"], doc.arenas["b"]
    comp = api.is_comp_bisimilar(a, b)
    flat = m1 = m2 = None
    if comp:
        m1 = api.expand(a, mode="full", max_states=guard).fsm
        m2 = api.expand(b, mode="full", max_states=guard).fsm
        flat = api.is_bisimilar(m1, m2)
    try:
        reduced, steps = api.reduce(a, max_states=guard)
    except api.QuotientSelfLoop:
        reduced, steps = None, {}
    direct = api.quotient(api.expand(a, mode="full", max_states=guard).fsm)
    iso = None if reduced is None else api.is_isomorphic(direct, reduced)
    facts = [comp, flat, steps.get("classes"), steps.get("quotient_vertices"),
             steps.get("final_states"), len(direct.states), iso]
    return facts, (m1, m2, direct, reduced)


class Workload:
    prepared = 4  # distinct seeded inputs per job slot; later rounds reuse them
    # Jobs are reported at the reference speed (reference.py) where they are
    # short beside the host's speed swings, so that the reference points
    # taken just before and after a job show the speed it ran at.
    scale_jobs = True

    def __init__(self, api, seed, workdir: Path, expected):
        self.api = api
        self.seed = seed
        self.dir = workdir
        self.expected = expected
        self.dir.mkdir(parents=True, exist_ok=True)

    def rng(self, *tag):
        return random.Random("/".join(map(str, (self.name, self.seed) + tag)))

    def write(self, name, text) -> str:
        path = self.dir / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def ecoli(self):
        text = self.api.fixture_path("ecoli.afsm").read_text(encoding="utf-8")
        machines, nets = gen.from_document(self.api.parse(text))
        return machines, {n.name: n for n in nets}


class EcoliReduce(Workload):
    """``afsm reduce`` on seeded renamings of the E. coli case study."""

    name = "ecoli-reduce"
    scale_jobs = False  # 7 s jobs span the swings; measured, they spread less

    def setup(self):
        machines, nets = self.ecoli()
        full = nets["ecoli"]
        self.files = [
            self.write(f"ecoli{k}.afsm", self.renamed(machines, full, k))
            for k in range(self.prepared)
        ]
        # warm-up: the same pipeline without the arabinose subsystem (1,152 states)
        keep = [v for v, m in full.nodes.items() if m not in ECOLI_ARABINOSE]
        small = gen.restrict(full, keep, "ecoli")
        self.warm_file = self.write("warm.afsm", self.renamed(machines, small, "warm"))

    def renamed(self, machines, net, tag):
        rng = self.rng(tag)
        used = set(net.nodes.values())
        ms, ns = gen.rename([m for m in machines if m.name in used], [net], rng)
        return gen.emit(ms, ns, rng)

    def job(self, path, want=None):
        out = self.dir / "reduced.afsm"
        argv = ["reduce", path, "ecoli", "-o", str(out), "--json"]
        if want is None:
            return cli_job(self.api, "reduce", argv, 0, {})
        return cli_job(self.api, "reduce", argv, 0, want, (out, want["final_states"]))

    def warmup(self):
        return [self.job(self.warm_file)]

    def round(self, r):
        want = dict(self.expected["ecoli-reduce"], **ECOLI_PUBLISHED)
        return [self.job(self.files[r % self.prepared], want)]


class ChainMinimize(Workload):
    """``minimize`` and ``check-bisim`` on chains, the refinement worst case."""

    name = "chain-minimize"
    # (verb, chain length, clones or partner); quotient sizes are analytic.
    # The 700-state minimize takes about twice as long as each job below it
    # and half as long as each job above it, so it is always a run's median job.
    MIX = [
        ("minimize", 400, 0),
        ("bisim-clone", 250, 12),
        ("minimize", 700, 35),
        ("bisim-longer", 500, 501),
        ("minimize", 1000, 0),
    ]

    def setup(self):
        self.files = {
            (slot, k): self.input(f"chain{slot}-{k}", verb, n, extra, self.rng(slot, k))
            for slot, (verb, n, extra) in enumerate(self.MIX)
            for k in range(self.prepared)
        }
        self.warm = [self.input("warm-min", "minimize", 50, 5, self.rng("warm")),
                     self.input("warm-bis", "bisim-clone", 40, 4, self.rng("warm"))]

    def input(self, tag, verb, n, extra, rng):
        """(path, machine names) of one job's input file."""
        if verb == "minimize":
            ms = [gen.chain("A", n, extra, rng)]
        elif verb == "bisim-clone":
            ms = [gen.chain("A", n), gen.chain("B", n, extra, rng)]
        else:
            ms = [gen.chain("A", n), gen.chain("B", extra)]
        ms, _ = gen.rename(ms, [], rng)
        return self.write(f"{tag}.afsm", gen.emit(ms, [], rng)), [m.name for m in ms]

    def job(self, verb, n, extra, file):
        path, names = file
        if verb == "minimize":
            out = self.dir / "minimized.afsm"
            want = {"states_in": n + extra, "states_out": n, "transitions_out": n - 1}
            return cli_job(self.api, "minimize",
                           ["minimize", path, names[0], "-o", str(out), "--json"],
                           0, want, (out, n))
        argv = ["check-bisim", path, names[0], names[1], "--json"]
        if verb == "bisim-clone":
            # every chain state pairs with its copy and with its clone, if any
            return cli_job(self.api, "check-bisim", argv, 0, {"pairs": n + extra})
        # chains of n and n + 1 states relate the states at equal distance to the end
        return cli_job(self.api, "check-bisim", argv, 1, {"pairs": n})

    def warmup(self):
        return [self.job("minimize", 50, 5, self.warm[0]),
                self.job("bisim-clone", 40, 4, self.warm[1])]

    def round(self, r):
        return [self.job(verb, n, extra, self.files[slot, r % self.prepared])
                for slot, (verb, n, extra) in enumerate(self.MIX)]


class CompCampaign(Workload):
    """Many small arenas through the library, plus large known verdicts."""

    name = "comp-campaign"
    NETWORK = 300  # vertices of the check-comp-bisim networks
    SHAPES = 6

    @staticmethod
    def templates(count=CAMPAIGN_TEMPLATES):
        """The campaign cases; fixed, so their answers can be pinned."""
        rng = random.Random(CAMPAIGN_BASE_SEED)
        return [gen.campaign_template(rng, k) for k in range(count)]

    def setup(self):
        self.cases = []
        for k, (machines, nets) in enumerate(self.templates()):
            rng = self.rng("case", k)
            ms, ns = gen.rename(machines, nets, rng)
            self.cases.append((k, self.write(f"case{k}.afsm", gen.emit(ms, ns, rng))))
        self.pairs = [self.network_pair(self.NETWORK, odd, "net") for odd in (False, True)]
        warm_case = gen.campaign_template(self.rng("warm"), 1)
        self.warm_case = self.write("warm-case.afsm", gen.emit(*warm_case, self.rng("warm")))
        self.warm_pair = self.network_pair(40, False, "warm")
        self.csv = str(self.dir / "scaling.csv")

    def network_pair(self, n, odd, tag):
        """check-comp-bisim arguments for a network and a copy of it in another file.

        The copy has its own machine definitions (bisimilar, renamed), so the
        classes are found by pairwise checks; both files share one symbol
        renaming, as arenas that talk about the same signals would.
        """
        rng = self.rng(tag, n, odd)
        machines, net = gen.network(rng, n, self.SHAPES)
        copies, copy_net = machines, net
        if odd:
            copies, copy_net = gen.odd_one_out(machines, net, self.SHAPES)
        copies = [replace(m, name=f"{m.name}c") for m in copies]
        copy_net = gen.Net("copy", {v: f"{m}c" for v, m in copy_net.nodes.items()},
                           copy_net.edges)
        ms, (left, right) = gen.rename(machines + copies, [net, copy_net], rng)
        files = []
        for arena in (left, right):
            used = set(arena.nodes.values())
            text = gen.emit([m for m in ms if m.name in used], [arena], rng)
            files.append(self.write(f"{tag}-{odd}-{arena.name}.afsm", text))
        argv = ["check-comp-bisim", files[0], left.name, files[1], right.name, "--json"]
        return argv, odd

    def comp_job(self, argv, odd):
        # an odd vertex adds a class that the other arena lacks
        want = {"classes": self.SHAPES + odd}
        return cli_job(self.api, "check-comp-bisim", argv, 1 if odd else 0, want)

    def scaling_job(self, family, n_max):
        argv = ["bench-scaling", "--family", family, "--n-max", str(n_max),
                "--csv", self.csv, "--json"]

        def check(result):
            code, _ = result
            with open(self.csv, newline="", encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
            shapes_ok = [int(r["N"]) for r in rows] == list(range(1, n_max + 1)) and all(
                int(r["product_states"]) == 2 ** int(r["N"])
                and int(r["induced_states"]) == int(r["N"])
                for r in rows
            )
            return first_error(mismatch("bench-scaling exit code", code, 0),
                               None if shapes_ok else "bench-scaling: wrong CSV rows")

        return Job("bench-scaling", lambda: cli(self.api, argv), check)

    def case_job(self, path, want, with_oracle):
        def run():
            doc = self.api.parse(Path(path).read_text(encoding="utf-8"))
            return campaign_facts(self.api, doc)

        def check(result):
            if want is None:
                return None
            facts, machines = result
            error = mismatch(f"campaign case {Path(path).stem}", facts, want)
            if error is None and with_oracle:
                error = self.oracle(facts, *machines)
            return error

        return Job("campaign", run, check)

    def oracle(self, facts, m1, m2, direct, reduced):
        """Cross-check the verdicts with the brute-force fixpoint oracle."""
        api = self.api
        for x, y, verdict, what in ((m1, m2, facts[1], "flat"), (direct, reduced, facts[6], "iso")):
            if x is None or y is None or len(x.states) * len(y.states) > ORACLE_MAX_PAIRS:
                continue
            related = (x.initial, y.initial) in api.naive_bisim_oracle(x, y)
            if related != verdict:
                return f"oracle disagrees with the {what} verdict"
        return None

    def warmup(self):
        return [self.case_job(self.warm_case, None, False), self.comp_job(*self.warm_pair),
                self.scaling_job("ring", 4)]

    def round(self, r):
        answers = self.expected["comp-campaign"]
        cases = list(self.cases)
        self.rng("order", r).shuffle(cases)
        jobs = [self.case_job(path, answers[k], r == 0) for k, path in cases]
        jobs += [self.comp_job(*pair) for pair in self.pairs]
        jobs += [self.scaling_job("ring", 20), self.scaling_job("star", 20)]
        return jobs


class FlatRoundtrip(Workload):
    """``expand -o`` then ``minimize`` of the written flat machine."""

    name = "flat-roundtrip"
    prepared = 8
    scale_jobs = False  # 3.4 s jobs span the swings; measured, they spread less

    def setup(self):
        machines, nets = self.ecoli()
        base = nets["ecoli_min"]
        self.jobs = []
        for k in range(self.prepared):
            rng = self.rng(k)
            dropped = rng.choice(ECOLI_MIN_FOUR_STATE)
            path = self.subset(machines, base, set(base.nodes) - {dropped}, rng, f"sub{k}")
            self.jobs.append((path, self.expected["flat-roundtrip"][dropped]))
        keep = {"CRP", "LacZ", "LacI", "LacY", "GalS"}  # 288 states
        self.warm = self.subset(machines, base, keep, self.rng("warm"), "warm")

    def subset(self, machines, base, keep, rng, tag):
        net = gen.restrict(base, keep, "sub")
        used = set(net.nodes.values())
        ms, ns = gen.rename([m for m in machines if m.name in used], [net], rng)
        return self.write(f"{tag}.afsm", gen.emit(ms, ns, rng))

    def job(self, path, want):
        flat = self.dir / "flat.afsm"
        out = self.dir / "flat-min.afsm"
        expand = ["expand", path, "sub", "-o", str(flat), "--json"]
        minimize = ["minimize", str(flat), "M_sub", "-o", str(out), "--json"]

        def run():
            return cli(self.api, expand), cli(self.api, minimize)

        if want is None:
            return Job("roundtrip", run, lambda result: first_error(
                *(mismatch("exit code", code, 0) for code, _ in result)))
        expand_check = cli_job(self.api, "expand", expand, 0, {
            "states": want["states"], "transitions": want["transitions"]}).check
        minimize_check = cli_job(self.api, "minimize", minimize, 0, {
            "states_in": want["states"], "states_out": want["states_out"],
            "transitions_out": want["transitions_out"]}, (out, want["states_out"])).check

        def check(result):
            return first_error(expand_check(result[0]), minimize_check(result[1]))

        return Job("roundtrip", run, check)

    def warmup(self):
        return [self.job(self.warm, None)]

    def round(self, r):
        path, want = self.jobs[r % self.prepared]
        return [self.job(path, want)]


WORKLOADS = {w.name: w for w in (EcoliReduce, ChainMinimize, CompCampaign, FlatRoundtrip)}
