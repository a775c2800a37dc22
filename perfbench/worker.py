"""One benchmark run: one workload, in this process, closed loop.

Set-up (import of the library, input generation and an untimed warm-up)
is done ``SETUP_REPEATS`` times and its median reported.  Then whole rounds of
jobs run back to back, one client with no think time, until the timed
job work reaches ``--seconds``.  ``gc.collect()`` runs between jobs,
outside the timed region, and every job's answer is checked after it, also
untimed.  Between set-ups and between jobs a fixed reference computation is
timed too, and the reported times are at the reference speed (see
``reference.py``).  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

SETUP_REPEATS = 9
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load_api():
    """Import ``afsm`` afresh from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "afsm" or n.startswith("afsm.")]:
        del sys.modules[name]
    import afsm
    import afsm.cli

    if src.resolve() not in Path(afsm.__file__).resolve().parents:
        raise ImportError(f"afsm was imported from {afsm.__file__}, not from {src}")
    return afsm


def commit() -> str:
    """The checkout's commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit(),
        "gc_threshold": list(gc.get_threshold()),
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
    }


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def run_job(job, tracer=None, job_id=None, freeze=True):
    """Run one job; returns (seconds, error message or None).

    The collection before the job frees the last job's garbage outside the
    timed region; freezing what survives keeps the harness's own objects
    (inputs, results, spans) out of the collections made inside the job.
    Set-up does not freeze, so that each set-up starts from the same heap.
    """
    gc.collect()
    if freeze:
        gc.freeze()
    if tracer:
        tracer.begin_job(job_id)
    t0 = perf_counter()
    try:
        result = job.run()
        error = None
    except Exception as exc:  # a job that raises is a failed job, not a crash
        result, error = None, f"{job.kind} raised {exc!r}"
    elapsed = perf_counter() - t0
    if tracer:
        tracer.end_job()
    return elapsed, error or job.check(result)


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    from reference import Speed
    from tracer import Tracer
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
    workdir = ROOT / ".perfbench_work" / f"{workload}-{os.getpid()}"
    errors = []
    try:
        setups, setup_speed = [], Speed()
        setup_speed.sample()
        for k in range(SETUP_REPEATS):
            mark = setup_speed.mark()
            t = perf_counter()
            try:
                api = load_api()
            except ImportError as exc:
                print(f"error: cannot import the library: {exc}", file=sys.stderr)
                return 2
            wl = WORKLOADS[workload](api, seed, workdir / f"setup{k}", expected)
            wl.setup()
            for job in wl.warmup():
                _, error = run_job(job, freeze=False)
                if error:
                    errors.append(f"warm-up: {error}")
            gc.collect()
            setups.append((perf_counter() - t, mark))
            setup_speed.sample()
        print("setups " + " ".join(f"{t:.4f}" for t, _ in setups))

        tracer = None
        if trace:
            tracer = Tracer()
            tracer.install()
        times, marks, kinds = [], [], []
        failed = rounds = 0
        speed = Speed()
        while sum(times) < seconds:
            for job in wl.round(rounds):
                gc.collect()  # time the reference without the last job's garbage
                speed.maybe_sample()
                marks.append(speed.mark())
                elapsed, error = run_job(job, tracer, len(times))
                times.append(elapsed)
                kinds.append(job.kind)
                if error:
                    failed += 1
                    errors.append(error)
            rounds += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment()
    print(f"env {json.dumps(env)}")
    print(f"workload {workload} seed {seed} rounds {rounds} jobs {len(times)} "
          f"({', '.join(f'{k} {kinds.count(k)}' for k in sorted(set(kinds)))})")
    for message in errors[:10]:
        print(f"FAILED {message}", file=sys.stderr)

    if trace:
        layers = tracer.layer_metrics()
        out = ROOT / ".perfbench_out"
        out.mkdir(exist_ok=True)
        tracer.write(out / f"spans-{workload}.jsonl",
                     {"workload": workload, "seed": seed, "env": env})
        # self times plus the untraced remainder must add up to the job time
        total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
        closed = abs(total + layers["trace.untraced_s"] - layers["trace.job_s"]) < 1e-6
        if not closed:
            errors.append("trace: self times do not add up to the job time")
        wanted = spec["per_layer"]
        values = layers
    else:
        wanted = spec["end_to_end"]
        # times at the reference speed (reference.py); the measured ones are
        # printed too, and the traced run's trace.jobs_per_s is measured
        gc.collect()
        speed.sample()
        scaled = [speed.scale(t, mark) if wl.scale_jobs else t for t, mark in zip(times, marks)]
        setup_s = statistics.median(setup_speed.scale(t, mark) for t, mark in setups)
        print(f"measured jobs_per_s {len(times) / sum(times)} 1/s, job_s.p50 "
              f"{statistics.median(times)} s, setup_s {statistics.median(t for t, _ in setups)} s")
        print(f"reference median {statistics.median(speed.points)} s "
              f"({len(speed.points)} points)")
        values = {
            "jobs_per_s": len(times) / sum(scaled),
            "job_s.p50": statistics.median(scaled),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "pass_ratio": (len(times) - failed) / len(times),
            "setup_s": setup_s,
        }
        if len(times) >= 100:
            # only where at least ten samples lie beyond it
            print(f"job_s.p90 {percentile(scaled, 90)} s (n={len(times)})")

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not errors,
        "attempted": len(times),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0
