"""Peak memory and wall time of the flat round trip, each verb in a fresh process.

Run from the root of a checkout::

    PYTHONPATH=src python3 tests/peak_rss.py [--repeat N]

For the ``ecoli_min`` arena of the E. coli fixture (55,296 states) and for
``ecoli_min`` without its 4-state vertex ``AraB`` (13,824 states), it runs
``afsm expand ... -o flat.afsm`` and then ``afsm minimize flat.afsm ...``.
Each verb runs ``N`` times (default 3), each time in a new interpreter, and
the script prints one JSON document: the Python version, the core count,
``PYTHONDONTWRITEBYTECODE``, and per input and verb the peak RSS and the
wall time of every run, with their medians.  ``import_rss_mb`` is the peak
RSS of the same process after importing the package, before the verb runs.
Peak RSS is ``VmHWM`` from ``/proc/self/status``, which a new program
starts afresh; where there is no ``/proc`` it is ``ru_maxrss``, which on
Linux a child starts at the peak of the process that launched it.
``--child VERB ARGS...`` runs one verb in this process and prints its
figures as one JSON line; the script runs each measured verb that way, and
it serves to interleave the runs of two checkouts.  pytest does not
collect this file.
"""

import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

DROPPED = "AraB"  # a 4-state vertex of ecoli_min


def peak_rss_mb() -> float:
    """The peak RSS of this process so far, in MB."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024  # in kB
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def child(argv) -> None:
    """Run one CLI verb in this process and print its peak RSS and wall time."""
    from afsm.cli import run

    before = peak_rss_mb()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = run(argv)
    wall = time.perf_counter() - t0
    print(json.dumps({"code": code, "wall_s": wall, "peak_rss_mb": peak_rss_mb(),
                      "import_rss_mb": before}))


def subset_document(path: Path) -> None:
    """Write ``ecoli_min`` without ``DROPPED``, as arena ``sub``, to ``path``."""
    from afsm import load_fixture, serialize, validate_arena
    from afsm.formats import ModelDocument

    base = load_fixture("ecoli.afsm").arenas["ecoli_min"]
    vertices = {v: m for v, m in base.vertices if v != DROPPED}
    edges = [(a, b) for a, b in base.edges if DROPPED not in (a, b)]
    arena = validate_arena("sub", vertices, edges)
    doc = ModelDocument(fsms={m.id: m for m in vertices.values()}, arenas={"sub": arena})
    path.write_text(serialize(doc), encoding="utf-8")


def measure(argv, repeat: int) -> dict:
    runs = []
    for _ in range(repeat):
        out = subprocess.run([sys.executable, __file__, "--child", *argv],
                             stdout=subprocess.PIPE, text=True, check=True).stdout
        runs.append(json.loads(out.splitlines()[-1]))
        if runs[-1]["code"] != 0:
            raise SystemExit(f"afsm {' '.join(argv)} exited with {runs[-1]['code']}")
    return {
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "wall_s": statistics.median(r["wall_s"] for r in runs),
        "import_rss_mb": statistics.median(r["import_rss_mb"] for r in runs),
        "runs": [{k: round(r[k], 4) for k in ("peak_rss_mb", "wall_s")} for r in runs],
    }


def main() -> None:
    if sys.argv[1:2] == ["--child"]:
        child(sys.argv[2:])
        return
    repeat = int(sys.argv[sys.argv.index("--repeat") + 1]) if "--repeat" in sys.argv else 3
    from afsm import fixture_path

    result = {
        "python": sys.version.split()[0],
        "cores": len(os.sched_getaffinity(0)),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "repeat": repeat,
        "inputs": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        subset = tmp / "sub.afsm"
        subset_document(subset)
        cases = ((f"ecoli_min minus {DROPPED}", str(subset), "sub"),
                 ("ecoli_min", str(fixture_path("ecoli.afsm")), "ecoli_min"))
        for name, path, arena in cases:
            flat, small = tmp / "flat.afsm", tmp / "min.afsm"
            result["inputs"][name] = {
                "expand": measure(["expand", path, arena, "-o", str(flat)], repeat),
                "minimize": measure(["minimize", str(flat), f"M_{arena}", "-o", str(small)], repeat),
                "flat_bytes": flat.stat().st_size,
            }
    print(json.dumps(result, indent=2))


if __name__ == "__main__":
    main()
