"""Span tracer and small helpers shared by the workloads."""

from __future__ import annotations

import functools
import resource
import time
from dataclasses import dataclass, field


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class _Frame:
    sid: int
    label: str
    layer: str
    child_s: float = 0.0


@dataclass
class Tracer:
    """Spans around calls into the program, with per-layer self time.

    Functions are wrapped at the attribute their callers look up (the
    module global or class attribute), so the program itself is
    unchanged.  Span records stay in memory until the run writes them
    out; ``keep=False`` wrappers only aggregate, for functions called
    per trial.
    """

    spans: list = field(default_factory=list)
    self_s: dict = field(default_factory=dict)
    label_self_s: dict = field(default_factory=dict)
    incl_s: dict = field(default_factory=dict)
    calls: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    _stack: list = field(default_factory=list)
    _patches: list = field(default_factory=list)
    _next_id: int = 0

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def exclude(self, dt: float) -> None:
        """Time spent inside a span that belongs to no layer (reference loops)."""
        if self._stack:
            self._stack[-1].child_s += dt

    def wrap(self, owner, attr: str, layer: str, label: str, on_result=None, keep: bool = True):
        raw = owner.__dict__[attr]  # keeps classmethod descriptors intact for restore
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            sid = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1].sid if stack else -1
            frame = _Frame(sid, label, layer)
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                dur = t1 - t0
                own = dur - frame.child_s
                tracer.self_s[layer] = tracer.self_s.get(layer, 0.0) + own
                tracer.label_self_s[label] = tracer.label_self_s.get(label, 0.0) + own
                tracer.incl_s[label] = tracer.incl_s.get(label, 0.0) + dur
                tracer.calls[label] = tracer.calls.get(label, 0) + 1
                if stack:
                    stack[-1].child_s += dur
                if keep:
                    tracer.spans.append((sid, parent, label, t0, t1))
            if on_result is not None:
                on_result(tracer, result, dur, args, kwargs)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, raw))

    def unwrap_all(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()


# on_result hooks: counts taken from what a wrapped call returns


def on_graph(tracer, g, dur, args, kwargs):
    tracer.add("graphs.edges", len(g.edges))


def on_encode(tracer, cs, dur, args, kwargs):
    tracer.add("constraints.vars", cs.num_vars)
    tracer.add("constraints.constraints", len(cs.constraints))


def on_solve(tracer, res, dur, args, kwargs):
    st = res.stats
    tracer.add("solver.props", st.propagations)
    tracer.add("solver.conflicts", st.conflicts)
    tracer.add("solver.decisions", st.decisions)
    tracer.add("solver.restarts", st.restarts)
    tracer.add("solver." + res.verdict, 1)
    tracer.add(f"solver.{res.verdict}_s", dur)
    if res.verdict == "sat" and st.propagations == 0:
        tracer.add("solver.probe_hits", 1)


def on_export(tracer, export, dur, args, kwargs):
    tracer.add("cnf.clauses", export.num_clauses)
    tracer.add("cnf.bytes", len(export.text))


def on_trials(tracer, report, dur, args, kwargs):
    tracer.add("erasure.trials", report.trials)
