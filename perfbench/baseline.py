"""Run every workload on several seeds and summarise the spread.

    python3 perfbench/baseline.py --seeds 10 --traced-seeds 3 --out perfbench/baseline.json

Each run is a fresh process (``run.py --workload ...``), one at a time;
the environment recorded is the one the runs print.
For every metric it reports the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread, (q3 - q1) / median.
A traced run follows the untraced run of the same seed directly, because
this machine's speed drifts over minutes; the tracing overhead is the
median over those pairs of 1 - (traced jobs/s) / (untraced measured jobs/s).
Beside the reported metrics, which are at the reference speed (see
reference.py), it keeps the measured ones as ``measured.*``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import measured, run_child  # noqa: E402


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def one_run(workload, seed, seconds, trace, env):
    code, result, out = run_child(workload, seed, seconds, trace)
    if result is None or not result["correct"]:
        sys.exit(f"{workload} seed {seed} trace {trace}: exit {code}, result {result}")
    if trace == 0:
        for name, value in measured(out).items():
            unit = "1/s" if name == "jobs_per_s" else "s"
            result["metrics"][f"measured.{name}"] = {"value": value, "unit": unit}
    for line in out.splitlines():
        if line.startswith("env "):
            env.update(json.loads(line[4:]))
        elif line.startswith("reference median "):
            result["metrics"]["reference.median_s"] = {"value": float(line.split()[2]), "unit": "s"}
        elif line.startswith("job_s.p90 "):  # printed only where a run has >= 100 jobs
            result["metrics"]["job_s.p90"] = {"value": float(line.split()[1]), "unit": "s"}
    print(f"  {workload} seed {seed} trace {trace}: "
          + " ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()
                     if trace == 0 or k.startswith("trace.")), flush=True)
    return result


def summarise(runs):
    names = runs[0]["metrics"]
    return {
        "runs": len(runs),
        "jobs_per_run": [r["attempted"] for r in runs],
        "metrics": {
            name: dict(summary([r["metrics"][name]["value"] for r in runs]),
                       unit=names[name]["unit"])
            for name in names
        },
    }


def main():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", type=int, default=10, help="untraced runs per workload")
    p.add_argument("--traced-seeds", type=int, default=0, help="traced runs per workload")
    p.add_argument("--workload", action="append", help="default: every workload")
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--out", help="write the summary here as JSON")
    args = p.parse_args()

    seeds = list(range(1, args.seeds + 1))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    result = {"env": {}, "seconds": args.seconds, "seeds": seeds,
              "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()), "workloads": {}}
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        untraced, traced, overheads = [], [], []
        for k, seed in enumerate(seeds):
            untraced.append(one_run(workload, seed, args.seconds, 0, result["env"]))
            if k < args.traced_seeds:
                traced.append(one_run(workload, seed, args.seconds, 1, result["env"]))
                overheads.append(1 - traced[-1]["metrics"]["trace.jobs_per_s"]["value"]
                                 / untraced[-1]["metrics"]["measured.jobs_per_s"]["value"])
        entry = {"untraced": summarise(untraced)}
        if traced:
            entry["traced"] = summarise(traced)
            entry["tracing_overhead"] = {"median": statistics.median(overheads),
                                         "pairs": overheads}
        result["workloads"][workload] = entry
        for name, s in entry["untraced"]["metrics"].items():
            bound = bounds.get(name)
            flag = "" if bound is None or s["spread"] <= bound / 3 else "  <-- above a third of the bound"
            print(f"{workload:<15} {name:<12} median {s['median']:<12.5g} "
                  f"spread {s['spread']:.3f} (bound {bound}){flag}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
