"""Span tracing of the library's layers, done from outside the library.

Each traced function is replaced, at every binding inside the ``afsm``
modules that holds that very function object, by a wrapper that records a
span: name, job id, parent span, start and end.  Internal calls such as
``compositional.reduce`` -> ``expand`` go through module globals, so they
are caught as well.  Garbage-collector pauses are recorded through
``gc.callbacks`` and charged to the innermost open span.

A span's self time is its duration minus the durations of its child spans.
Every job is a root span, so the self times of all spans of a job add up
to the job's duration; the root's own self time is the part of the job
spent outside every traced function.
"""

from __future__ import annotations

import gc
import json
import sys
from collections import defaultdict
from time import perf_counter

MB = 1e6


def _expand_counts(args, kwargs, result):
    fsm = getattr(result, "fsm", result)
    return {"states_out": len(fsm.states), "transitions_out": len(fsm.transitions)}


def _text_arg(args, kwargs):
    return args[0] if args else kwargs["text"]


# module, function, counters taken from the call (outside the span)
TRACED = [
    ("afsm.cli", "run", None),
    ("afsm.expand", "expand", _expand_counts),
    ("afsm.bisim", "self_partition", lambda a, k, r: {"blocks_out": len(r)}),
    ("afsm.bisim", "quotient",
     lambda a, k, r: {"states_in": len((a[0] if a else k["m"]).states),
                      "states_out": len(r.states)}),
    ("afsm.bisim", "max_bisimulation", None),
    ("afsm.bisim", "is_bisimilar", lambda a, k, r: {"match": int(bool(r))}),
    ("afsm.bisim", "is_isomorphic", None),
    ("afsm.formats", "parse", lambda a, k, r: {"bytes": len(_text_arg(a, k))}),
    ("afsm.formats", "serialize", lambda a, k, r: {"bytes": len(r)}),
    ("afsm.model", "validate_fsm", None),
    ("afsm.compositional", "machine_classes", None),
    ("afsm.compositional", "arena_quotient", None),
    ("afsm.compositional", "reduce",
     lambda a, k, r: {"expanded_states": r[1]["expanded_states"],
                      "final_states": r[1]["final_states"]}),
]


def span_name(module: str, func: str) -> str:
    return f"{module.removeprefix('afsm.')}.{func}"


class Tracer:
    """In-memory span recorder.  Records only while a job is open."""

    def __init__(self):
        # span: [name, job, parent, start, end, counters, gc_pause]
        self.spans = []
        self.stack = []
        self.job = None
        self.gc_collections = 0
        self._gc_start = 0.0

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap every traced function at each of its bindings in ``afsm.*``."""
        modules = [m for n, m in sys.modules.items() if n == "afsm" or n.startswith("afsm.")]
        for module, func, counter in TRACED:
            original = getattr(sys.modules[module], func)
            wrapper = self._wrap(span_name(module, func), original, counter)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
        gc.callbacks.append(self._on_gc)

    def _wrap(self, name, fn, counter):
        tracer = self

        def traced(*args, **kwargs):
            if tracer.job is None:
                return fn(*args, **kwargs)
            span = [name, tracer.job, tracer.stack[-1], perf_counter(), 0.0, None, 0.0]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = perf_counter()
                tracer.stack.pop()
            if counter is not None:
                span[5] = counter(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def _on_gc(self, phase, info):
        if self.job is None:
            return
        if phase == "start":
            self._gc_start = perf_counter()
        else:
            self.spans[self.stack[-1]][6] += perf_counter() - self._gc_start
            self.gc_collections += 1

    # -- jobs ---------------------------------------------------------------

    def begin_job(self, job_id):
        # the root span exists before recording starts, for the GC callback
        self.stack = [len(self.spans)]
        self.spans.append(["job", job_id, -1, perf_counter(), 0.0, None, 0.0])
        self.job = job_id

    def end_job(self):
        self.spans[self.stack[0]][4] = perf_counter()
        self.job = None

    # -- results ------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-job layer figures; see README.md for what each one means."""
        spans = self.spans
        child = [0.0] * len(spans)
        for s in spans:
            if s[2] >= 0:
                child[s[2]] += s[4] - s[3]
        self_s = defaultdict(float)
        incl_s = defaultdict(float)
        calls = defaultdict(int)
        count = defaultdict(int)
        gc_pause = 0.0
        for i, s in enumerate(spans):
            name = s[0]
            dur = s[4] - s[3]
            self_s[name] += dur - child[i]
            incl_s[name] += dur
            calls[name] += 1
            gc_pause += s[6]
            for key, v in (s[5] or {}).items():
                count[f"{name}.{key}"] += v
        checks = matches = 0
        for s in spans:
            if s[0] == "bisim.is_bisimilar" and spans[s[2]][0] == "compositional.machine_classes":
                checks += 1
                matches += s[5]["match"]
        jobs = calls["job"]

        def per_job(x):
            return x / jobs

        def ratio(a, b):
            return a / b if b else 0.0

        m = {
            "trace.job_s": per_job(incl_s["job"]),
            "trace.untraced_s": per_job(self_s["job"]),
            "trace.jobs_per_s": ratio(jobs, incl_s["job"]),
            "expand.expand.states_out": per_job(count["expand.expand.states_out"]),
            "expand.expand.transitions_out": per_job(count["expand.expand.transitions_out"]),
            "expand.expand.states_per_s": ratio(
                count["expand.expand.states_out"], self_s["expand.expand"]),
            "bisim.self_partition.blocks_out": per_job(count["bisim.self_partition.blocks_out"]),
            "bisim.quotient.states_in": per_job(count["bisim.quotient.states_in"]),
            "bisim.quotient.states_out": per_job(count["bisim.quotient.states_out"]),
            "formats.parse.mb_per_s": ratio(
                count["formats.parse.bytes"] / MB, incl_s["formats.parse"]),
            "formats.serialize.mb_per_s": ratio(
                count["formats.serialize.bytes"] / MB, incl_s["formats.serialize"]),
            "compositional.machine_classes.bisim_checks": per_job(checks),
            "compositional.machine_classes.match_ratio": ratio(matches, checks),
            "compositional.reduce.useful_ratio": ratio(
                count["compositional.reduce.final_states"],
                count["compositional.reduce.expanded_states"]),
            "runtime.gc.pause_s": per_job(gc_pause),
            "runtime.gc.collections": per_job(self.gc_collections),
        }
        for module, func, _ in TRACED:
            name = span_name(module, func)
            m[f"{name}.self_s"] = per_job(self_s[name])
            m[f"{name}.calls"] = per_job(calls[name])
        return m

    def write(self, path, header: dict):
        """Write the header then one JSON array per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            fh.write('["name","job","parent","start","end","counters","gc_pause"]\n')
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
