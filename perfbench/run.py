"""Benchmark of the afsm verbs.  Run from the root of a checkout:

    python3 perfbench/run.py --workload ecoli-reduce --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py            # every workload, untraced then traced

With ``--workload`` the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.
Without it, every workload runs in its own fresh process, one after the
other, and a table of all metrics and the tracing overhead is printed.

Runs use a fixed ``PYTHONHASHSEED``, so that the same seed does the same
work; the process re-executes itself to set it.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HASH_SEED = "0"
CHILD_TIMEOUT_S = 175


def parse_args(argv):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=names + ["all"], default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    return args, names


def run_child(workload, seed, seconds, trace):
    """One run in a fresh process; (exit code, result dict or None, stdout)."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return 3, None, ""
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return proc.returncode, result, proc.stdout


def measured(stdout) -> dict:
    """The untraced run's measured (unscaled) figures, printed beside its result."""
    for line in stdout.splitlines():
        if line.startswith("measured "):
            words = line.replace(",", "").split()
            return {words[k]: float(words[k + 1]) for k in (1, 4, 7)}
    raise ValueError("no measured line")


def run_all(names, seed, seconds) -> int:
    correct, attempted, failed, merged = True, 0, 0, {}
    for workload in names:
        runs, untraced = {}, None
        for trace in (0, 1):
            code, result, out = run_child(workload, seed, seconds, trace)
            if result is None:
                print(f"error: {workload} --trace {trace} exited with {code}", file=sys.stderr)
                return code or 2
            runs[trace] = result
            if trace == 0:
                untraced = measured(out)["jobs_per_s"]
            correct &= result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            print(f"== {workload} --trace {trace}: {result['attempted']} jobs, "
                  f"{result['failed']} failed, correct={result['correct']}")
            for name, m in result["metrics"].items():
                print(f"   {name:<45} {m['value']:>14.6g} {m['unit']}")
                merged[f"{workload}/{name}"] = m
        traced = runs[1]["metrics"]["trace.jobs_per_s"]["value"]
        overhead = 1 - traced / untraced
        print(f"   tracing overhead: measured jobs_per_s {untraced:.6g} untraced, "
              f"{traced:.6g} traced ({overhead:+.1%})")
        merged[f"{workload}/trace.overhead"] = {"value": overhead, "unit": "ratio"}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": merged}))
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args, names = parse_args(argv)
    if args.workload == "all":
        return run_all(names, args.seed, args.seconds)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *argv], env)
    sys.path.insert(0, str(HERE))
    import worker

    return worker.run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
