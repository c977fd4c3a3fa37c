"""In-memory span tracing installed around the program's layer boundaries.

Nothing in ``src/`` knows about this module: :func:`install` replaces the
public functions and methods that form each layer's entry point with
timing wrappers, and a process writes its spans out with
:meth:`Tracer.dump` when it ends. Every timestamp comes from
``time.monotonic()`` (``CLOCK_MONOTONIC`` on Linux), so spans recorded in
the ``repro serve`` subprocess line up with the
client's op intervals and can be attributed to ops by time.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of
the enclosing span on the same thread (``-1`` for none) and ``op`` the
op id the span ran under (``""`` when the process does not know it; the
aggregator then assigns the span to the op whose interval holds it).
Counts are ``(name, value, time, op)`` events recorded at the same
boundaries.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

clock = time.monotonic


class Tracer:
    """Collects spans and count events for one process."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: List[tuple] = []
        self.op = ""
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def current_op(self) -> str:
        return getattr(self._local, "op", None) or self.op

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, clock(), 0.0, parent, self.current_op()])
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = clock()
        self._stack().pop()

    def count(self, name: str, value: float) -> None:
        with self._lock:
            self.counts.append((name, value, clock(), self.current_op()))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "counts": self.counts}, handle)

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap_method(self, cls, attr: str, name: str,
                    after: Optional[Callable] = None) -> None:
        """Time ``cls.attr`` as span ``name``; ``after(result, args, kwargs)``
        runs outside the span to record counts."""
        raw = cls.__dict__[attr]
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        func = raw.__func__ if kind else raw
        wrapper = self._timed(func, name, after)
        self._set(cls, attr, kind(wrapper) if kind else wrapper)

    def wrap_function(self, module, attr: str, name: str,
                      after: Optional[Callable] = None) -> None:
        """Time a module-level function, including every ``from module
        import attr`` alias already bound in another ``repro`` module."""
        original = getattr(module, attr)
        wrapper = self._timed(original, name, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "repro" and mod is not None:
                if mod.__dict__.get(attr) is original:
                    self._set(mod, attr, wrapper)

    def wrap_generator(self, cls, attr: str, name: str,
                       on_item: Callable) -> None:
        """Time each ``next()`` of a generator method as span ``name``,
        so work the consumer does between items is not charged to it."""
        func = cls.__dict__[attr]
        tracer = self

        def wrapper(*args, **kwargs):
            inner = func(*args, **kwargs)
            try:
                while True:
                    index = tracer.begin(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer.end(index)
                    on_item(item)
                    yield item
            finally:
                close = getattr(inner, "close", None)
                if close is not None:
                    close()

        wrapper.__wrapped__ = func
        self._set(cls, attr, wrapper)

    def _timed(self, func, name: str, after: Optional[Callable]):
        tracer = self

        def wrapper(*args, **kwargs):
            index = tracer.begin(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.end(index)
            if after is not None:
                after(result, args, kwargs)
            return result

        wrapper.__wrapped__ = func
        return wrapper

    def tag_thread(self, cls, attr: str, op: str, name: str) -> None:
        """Run ``cls.attr`` under op id ``op`` on its thread, as span
        ``name`` (HTTP handler threads tag their spans as reads)."""
        func = cls.__dict__[attr]
        tracer = self

        def wrapper(*args, **kwargs):
            tracer._local.op = op
            index = tracer.begin(name)
            try:
                return func(*args, **kwargs)
            finally:
                tracer.end(index)
                tracer._local.op = None

        wrapper.__wrapped__ = func
        self._set(cls, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def install(tracer: Tracer) -> Tracer:
    """Wrap every layer boundary the per-layer table reports.

    Imports each layer's module first, so aliases bound by ``from x
    import y`` exist before they are patched.
    """
    from repro.emu import campaign
    from repro.run import runner, spec, store
    from repro.run.transport import local
    from repro.service import app, db
    from repro.sim import cache, compile as sim_compile, parallel
    from repro.sim.backends import available_engines, fused, get_engine

    # layer 1: spec -> scenario
    tracer.wrap_method(spec.CampaignSpec, "scenario", "run.spec.scenario")
    population: Dict[str, int] = {}

    def drawn(result, args, kwargs):
        population["last"] = len(args[0])

    def built(result, args, kwargs):
        sampled = args[0].sample is not None
        tracer.count("run.spec.population_built",
                     population.pop("last", 0) if sampled else len(result))
        tracer.count("run.spec.sampled", len(result))

    tracer.wrap_function(spec, "draw_sample", "run.spec.draw_sample", drawn)
    tracer.wrap_method(spec.CampaignSpec, "build_faults",
                       "run.spec.build_faults", built)

    # layer 2: compile -> program
    tracer.wrap_function(sim_compile, "compile_netlist", "sim.compile")
    tracer.wrap_function(fused, "build_fused_program", "sim.program")
    seen: Dict[int, object] = {}

    def compiled(result, args, kwargs):
        hit = id(result) in seen
        seen[id(result)] = result
        tracer.count("sim.cache.compile_hits", 1 if hit else 0)

    tracer.wrap_function(cache, "compiled_for", "sim.cache.compiled_for",
                         compiled)

    # layer 3: golden
    tracer.wrap_function(cache, "golden_for", "sim.golden")

    # layer 4: kernel + bookkeeping
    def graded(result, args, kwargs):
        tracer.count("sim.grade.faults", len(args[3]))

    for engine_name in available_engines():
        tracer.wrap_method(type(get_engine(engine_name)), "grade", "sim.grade",
                           graded)
    tracer.wrap_function(parallel, "grade_faults", "sim.parallel.grade_faults")
    tracer.wrap_method(parallel.FaultGradingResult, "outcome_digest",
                       "sim.parallel.digest")

    # layer 5: transport
    def shard(record):
        tracer.count("run.transport.worker_busy_s", record.elapsed_s)

    tracer.wrap_generator(local.SerialTransport, "grade_windows",
                          "run.transport.grade_windows", shard)

    # layer 6: store -> merge -> accounting
    tracer.wrap_method(store.ResultsStore, "open", "run.store.open")
    append = store.ResultsStore.__dict__["append"]

    def timed_append(self, record):
        before = _size(self.shards_path)
        index = tracer.begin("run.store.append")
        try:
            append(self, record)
        finally:
            tracer.end(index)
        tracer.count("run.store.bytes", _size(self.shards_path) - before)

    tracer._set(store.ResultsStore, "append", timed_append)
    tracer.wrap_method(runner.CampaignRunner, "_graded", "run.runner.grade")
    tracer.wrap_function(campaign, "run_campaign", "emu.campaign.run_campaign")
    tracer.wrap_method(parallel.FaultGradingResult, "to_dictionary",
                       "faults.dictionary")

    # layer 7: DB -> HTTP
    tracer.wrap_method(db.ResultsDB, "record_outcomes",
                       "service.db.record_outcomes")
    tracer.wrap_method(db.ResultsDB, "record_shards", "service.db.record_shards")
    for query in ("campaign", "campaigns", "shards", "class_counts",
                  "flop_failure_rates", "class_breakdown"):
        tracer.wrap_method(db.ResultsDB, query, "service.db.query")
    tracer.tag_thread(app._Handler, "do_GET", "read", "service.app.get")
    return tracer


def _size(path: str) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------
def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Each span's duration minus the part of it its children cover.

    Children are the spans naming it as parent; overlapping children
    (there are none on one thread, but the arithmetic does not assume
    it) count their union once.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span[3] >= 0:
            children.setdefault(span[3], []).append((span[1], span[2]))
    result = []
    for index, span in enumerate(spans):
        start, end = span[1], span[2]
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo = max(child_start, cursor)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result.append(max(0.0, (end - start) - covered))
    return result


def attribute(op: str, when: float, intervals: Sequence[Tuple[str, float, float]]) -> str:
    """The op a span or count belongs to: its own tag, or else the op
    whose ``(op, start, end)`` interval holds ``when``."""
    if op:
        return op
    for op_id, start, end in intervals:
        if start <= when <= end:
            return op_id
    return ""


class Trace:
    """Spans and counts of one process, indexed for per-layer sums."""

    def __init__(self, spans, counts, intervals=()):
        self.self_s: Dict[Tuple[str, str], float] = {}
        self.total_s: Dict[Tuple[str, str], float] = {}
        self.counted: Dict[Tuple[str, str], float] = {}
        for span, own in zip(spans, self_times(spans)):
            key = (span[0], attribute(span[4], span[1], intervals))
            self.self_s[key] = self.self_s.get(key, 0.0) + own
            self.total_s[key] = self.total_s.get(key, 0.0) + span[2] - span[1]
        for name, value, when, op in counts:
            key = (name, attribute(op, when, intervals))
            self.counted[key] = self.counted.get(key, 0.0) + value

    @classmethod
    def load(cls, path: str, intervals=()) -> "Trace":
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        return cls(data["spans"], data["counts"], intervals)

    @classmethod
    def of(cls, tracer: Tracer, intervals=()) -> "Trace":
        return cls(tracer.spans, tracer.counts, intervals)

    def self_sum(self, name: str, ops) -> float:
        return sum(self.self_s.get((name, op), 0.0) for op in ops)

    def total_sum(self, name: str, ops) -> float:
        return sum(self.total_s.get((name, op), 0.0) for op in ops)

    def count_sum(self, name: str, ops) -> float:
        return sum(self.counted.get((name, op), 0.0) for op in ops)

    def all_ops(self) -> set:
        return {op for _, op in self.self_s} | {op for _, op in self.counted}
