"""Recompute ``expected.json``, the pinned answers the benchmark checks.

    python3 perfbench/pin.py

It holds only name-independent facts (sizes, class numbers, verdicts), so
the renamings that the seeds apply do not change them.  Facts that are
published or analytic (E. coli counts from the fixture README, chain
quotients, verdicts known by construction, bench-scaling rows) are checked
in ``workloads.py`` instead and are not pinned here.  Run this only when an
answer is meant to change, and say why in the change that does it.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import afsm  # noqa: E402
import gen  # noqa: E402
from workloads import ECOLI_MIN_FOUR_STATE, CompCampaign, campaign_facts  # noqa: E402


def document(machines, nets):
    return afsm.parse(gen.emit(machines, nets, random.Random(0)))


def main():
    ecoli_doc = afsm.load_fixture("ecoli.afsm")
    minimal, steps = afsm.reduce(ecoli_doc.arenas["ecoli"])
    ecoli = dict(steps)

    machines, nets = gen.from_document(ecoli_doc)
    base = next(n for n in nets if n.name == "ecoli_min")
    flat = {}
    for dropped in ECOLI_MIN_FOUR_STATE:
        sub = gen.restrict(base, set(base.nodes) - {dropped}, "sub")
        comp = afsm.expand(document(machines, [sub]).arenas["sub"], mode="full")
        q = afsm.quotient(comp.fsm)
        flat[dropped] = {"states": len(comp.fsm.states),
                         "transitions": len(comp.fsm.transitions),
                         "states_out": len(q.states), "transitions_out": len(q.transitions)}

    campaign = [campaign_facts(afsm, document(ms, ns))[0] for ms, ns in CompCampaign.templates()]
    out = {"ecoli-reduce": ecoli, "flat-roundtrip": flat, "comp-campaign": campaign}
    text = json.dumps(out, indent=1)
    (HERE / "expected.json").write_text(text + "\n", encoding="utf-8")
    print(f"wrote {HERE / 'expected.json'}: {len(campaign)} campaign cases")


if __name__ == "__main__":
    main()
