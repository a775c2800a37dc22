"""Median time of one ``parse`` on the benchmark's inputs, and the parse peak ratios.

Run from the root of a checkout::

    PYTHONPATH=src python3 tests/parse_timing.py [--repeat N] [--seed S]

The inputs are the files that the benchmark workloads write with seed
``S`` (default 21): the five input files of one ``chain-minimize`` round,
the canonical text of the full expansion of the first ``flat-roundtrip``
subset of ``ecoli_min`` (13,824 states, as its ``expand -o`` writes it),
the first ``comp-campaign`` case file and one 300-vertex
``check-comp-bisim`` network file.  Each text is parsed ``N`` times
(default 21), the inputs interleaved.  The peak ratios are those of
``tests/test_formats.py``: the traced peak of ``parse`` over the length
of the text, in a fresh interpreter, for the 2,000-state random machine
and for its canonical text.  The script prints one JSON document: the
Python version, the core count, the value of ``PYTHONDONTWRITEBYTECODE``,
and per input its length, median time in ms and every run's time.  pytest
does not collect this file.
"""

import argparse
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "perfbench"))
sys.path.insert(0, str(HERE))

import afsm  # noqa: E402
import workloads  # noqa: E402
from afsm import expand, parse, serialize  # noqa: E402
from afsm.formats import ModelDocument  # noqa: E402
from conftest import parse_peak, random_machine_text  # noqa: E402


def inputs(seed, workdir):
    """Input name -> text, read from the files the workloads write in ``workdir``."""
    chains = workloads.ChainMinimize(afsm, seed, workdir / "chain", {})
    chains.setup()
    texts = {
        f"chain {verb} {n}": Path(chains.files[slot, 0][0]).read_text(encoding="utf-8")
        for slot, (verb, n, _) in enumerate(chains.MIX)
    }
    answers = {"flat-roundtrip": dict.fromkeys(workloads.ECOLI_MIN_FOUR_STATE)}
    flat = workloads.FlatRoundtrip(afsm, seed, workdir / "flat", answers)
    flat.setup()
    sub = parse(Path(flat.jobs[0][0]).read_text(encoding="utf-8")).arenas["sub"]
    fsm = expand(sub, mode="full").fsm
    texts[f"flat {len(fsm.states)}"] = serialize(ModelDocument(fsms={fsm.id: fsm}))
    campaign = workloads.CompCampaign(afsm, seed, workdir / "campaign", {})
    campaign.setup()
    texts["campaign case"] = Path(campaign.cases[0][1]).read_text(encoding="utf-8")
    argv, _ = campaign.pairs[0]
    texts[f"network {campaign.NETWORK}"] = Path(argv[1]).read_text(encoding="utf-8")
    return texts


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--repeat", type=int, default=21)
    p.add_argument("--seed", type=int, default=21)
    args = p.parse_args()
    with tempfile.TemporaryDirectory() as workdir:
        texts = inputs(args.seed, Path(workdir))
    runs = {name: [] for name in texts}
    for _ in range(args.repeat):
        for name, text in texts.items():
            t = time.perf_counter()
            parse(text)
            runs[name].append(1000 * (time.perf_counter() - t))
    report = {
        "python": platform.python_version(),
        "cores": os.cpu_count(),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "repeat": args.repeat,
        "seed": args.seed,
    }
    for name, text in texts.items():
        report[name] = {
            "chars": len(text),
            "median_ms": round(statistics.median(runs[name]), 3),
            "runs_ms": [round(t, 3) for t in runs[name]],
        }
    random_text = random_machine_text()
    canonical_text = serialize(parse(random_text))
    report["peak_ratio"] = {
        "random": round(parse_peak(random_text) / len(random_text), 3),
        "canonical": round(parse_peak(canonical_text) / len(canonical_text), 3),
    }
    print(json.dumps(report, indent=1))


if __name__ == "__main__":
    main()
