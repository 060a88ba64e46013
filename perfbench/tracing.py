"""Spans around the calls into each layer of oltsp_lab, installed from outside.

:meth:`Tracer.install` replaces the layer boundaries with timing wrappers and
:meth:`Tracer.uninstall` puts the originals back:

* class-level wrappers for ``distance``/``contains``/``plan_move`` on the five
  space classes;
* module-level wrappers on each name where callers look it up (``wait-all``
  imports ``oracle.opt_makespan`` at call time, ``adversaries`` binds its own
  ``opt_makespan``/``simulate`` at import);
* instance-level wrappers for ``begin``/``decide`` on the policy object a job
  hands to the engine (so alg2's delegated alg1 stays inside alg2's span) and
  for ``observe`` on each adversary.

Every span is kept in memory as (id, name, start, end, parent, job) and written
out by :meth:`Tracer.write` when the run ends.  A span's self time is its
duration minus that of its direct children; calls are single-threaded, so
children never overlap.
"""
from __future__ import annotations

import functools
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

from oltsp_lab import adversaries, algorithms, cli, engine, instance, metric, oracle

MARK = "__perfbench_span__"

SPACE_CLASSES = (metric.SemiLine, metric.Line, metric.Ring, metric.Star, metric.General)
SPACE_METHODS = ("distance", "contains", "plan_move")

# (module, attribute, span name): every place a layer function is looked up.
MODULE_FUNCTIONS = (
    (instance, "generate_random", "instance.generate"),
    (engine, "simulate", "engine.simulate"),
    (adversaries, "simulate", "engine.simulate"),
    (engine, "verify_outcome", "engine.verify"),
    (oracle, "opt_makespan", "oracle.dp"),
    (adversaries, "opt_makespan", "oracle.dp"),
    (oracle, "opt_bruteforce", "oracle.brute"),
    (adversaries, "materialize", "adversaries.materialize"),
    (algorithms, "knapsack_select", "algorithms.knapsack"),
    (cli, "report", "cli.report"),
)

POLICY_LABELS = (
    "alg1", "alg2-ring", "alg3-star", "alg3-star-fptas",
    "alg4-semiline", "alg5-semiline", "wait-all", "greedy",
)
JOB_SPAN = "bench.job"

# Layer spans reported as ``<name>.calls`` and ``<name>.self_s``.
TIMED_SPANS = (
    ("instance.generate",)
    + tuple(f"metric.{m}" for m in SPACE_METHODS)
    + ("engine.simulate", "engine.verify")
    + tuple(f"algorithms.{p}.{m}" for p in POLICY_LABELS for m in ("begin", "decide"))
    + ("algorithms.knapsack", "oracle.dp", "oracle.brute", "adversaries.observe",
       "cli.report")
)
COUNTERS = ("engine.steps", "engine.waypoints", "engine.zero_dt_steps",
            "oracle.dp.in_policy.calls", "adversaries.emissions")


def per_layer_names():
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for span in TIMED_SPANS:
        out.append((f"{span}.calls", "count"))
        out.append((f"{span}.self_s", "s"))
    out.append(("adversaries.materialize.self_s", "s"))
    out.extend((c, "count") for c in COUNTERS)
    out.append(("trace.overhead_ratio", "ratio"))
    return out


def installed_wrappers():
    """Names of layer boundaries that currently carry a tracing wrapper."""
    found = []
    for cls in SPACE_CLASSES:
        for meth in SPACE_METHODS:
            if hasattr(cls.__dict__[meth], MARK):
                found.append(f"{cls.__name__}.{meth}")
    for module, attr, _ in MODULE_FUNCTIONS:
        if hasattr(getattr(module, attr), MARK):
            found.append(f"{module.__name__}.{attr}")
    return found


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self._stack: list = []  # [span id, name id, parent id, start, child time]
        self._next = 0
        self.job = -1
        # Columns of the finished spans, in the order they ended.
        self.span_id = array("q")
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.job_id = array("q")
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(int)
        self._saved: list = []
        self._policy_spans: set = set()

    # Spans ---------------------------------------------------------------

    def _name(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _enter(self, nid: int) -> list:
        parent = self._stack[-1][0] if self._stack else -1
        frame = [self._next, nid, parent, 0.0, 0.0]
        self._next += 1
        self._stack.append(frame)
        frame[3] = perf_counter()
        return frame

    def _exit(self, frame: list) -> None:
        end = perf_counter()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError("span stack out of order")
        sid, nid, parent, start, child = frame
        duration = end - start
        if self._stack:
            self._stack[-1][4] += duration
        self.span_id.append(sid)
        self.name_id.append(nid)
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.job_id.append(self.job)
        self.calls[nid] += 1
        self.self_s[nid] += duration - child

    def _parent_name(self):
        return self.names[self._stack[-1][1]] if self._stack else None

    def wrap(self, fn, name: str, after=None):
        nid = self._name(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame)
            if after is not None:
                after(result)
            return result

        setattr(traced, MARK, name)
        return traced

    def run_job(self, job_index: int, fn, *args):
        """Run ``fn(*args)`` as job ``job_index`` under a root span."""
        self.job = job_index
        frame = self._enter(self._name(JOB_SPAN))
        try:
            return fn(*args)
        finally:
            self._exit(frame)
            self.job = -1

    # Installation -----------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for cls in SPACE_CLASSES:
            for meth in SPACE_METHODS:
                original = cls.__dict__[meth]
                self._saved.append((cls, meth, original))
                setattr(cls, meth, self.wrap(original, f"metric.{meth}"))
        for module, attr, name in MODULE_FUNCTIONS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            after = self._count_waypoints if name == "engine.simulate" else None
            traced = self.wrap(original, name, after)
            if name == "oracle.dp":
                traced = self._count_in_policy(traced)
            setattr(module, attr, traced)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def wrap_policy(self, policy) -> None:
        label = policy.name + ("-fptas" if getattr(policy, "mode", None) == "fptas" else "")
        for meth in ("begin", "decide"):
            name = f"algorithms.{label}.{meth}"
            self._policy_spans.add(name)
            after = self._count_step if meth == "decide" else None
            setattr(policy, meth, self.wrap(getattr(policy, meth), name, after))

    def wrap_adversary(self, adversary) -> None:
        adversary.observe = self.wrap(adversary.observe, "adversaries.observe",
                                      self._count_emissions)

    # Counters taken at the boundaries -----------------------------------------

    def _count_step(self, _action) -> None:
        self.counters["engine.steps"] += 1

    def _count_emissions(self, emissions) -> None:
        self.counters["adversaries.emissions"] += len(emissions)

    def _count_waypoints(self, outcome) -> None:
        waypoints = outcome.trajectory.waypoints
        self.counters["engine.waypoints"] += len(waypoints)
        self.counters["engine.zero_dt_steps"] += sum(
            1 for a, b in zip(waypoints, waypoints[1:])
            if b.tag in ("move", "wait") and b.time <= a.time
        )

    def _count_in_policy(self, fn):
        # Outside the span wrapper, so the top of the stack is the caller.
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self._parent_name() in self._policy_spans:
                self.counters["oracle.dp.in_policy.calls"] += 1
            return fn(*args, **kwargs)

        return counted

    # Results ---------------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer totals; ``trace.overhead_ratio`` is left to the caller."""
        by_name = {name: nid for nid, name in enumerate(self.names)}
        out = {}
        for name, _ in per_layer_names():
            if name == "trace.overhead_ratio":
                continue
            if name in COUNTERS:
                out[name] = self.counters.get(name, 0)
                continue
            span, _, field = name.rpartition(".")
            nid = by_name.get(span)
            if nid is None:
                out[name] = 0 if field == "calls" else 0.0
            else:
                out[name] = self.calls[nid] if field == "calls" else self.self_s[nid]
        return out

    def write(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            span=np.frombuffer(self.span_id, dtype=np.int64),
            name=np.frombuffer(self.name_id, dtype=np.uint16),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            job=np.frombuffer(self.job_id, dtype=np.int64),
        )
