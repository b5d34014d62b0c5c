"""Spans around the engine's layer entry points, recorded from outside.

The traced run wraps the public entry point of each layer on the live
objects of one Database (instance attributes such as
``db.executor.run`` or ``db.hooks.route_tokens``, plus the module-level
``repro.db.parse_command``).  The wrappers record only while
:attr:`Tracer.active` is set, which the benchmark does for the timed
phase.  The engine's source is not touched.

Each span records its name, start, end, parent span and op id.  Spans
live in flat arrays while the run goes and are written out when it
ends.  A span's *self time* is its duration minus the time its child
spans cover; per-layer metrics are self times per op.

``executor.run`` is split into ``executor.stmt`` and
``executor.action``: a call counts as an action when the thread has
planned a firing (``plan_firing``) and has not yet gone back to the
agenda (``select_rule``) or ended the cycle (``end_of_rule_processing``)
— the order in which ``Database._fire`` and ``_run_rule_cycle`` call
them.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from array import array
from collections import defaultdict

_perf = time.perf_counter
_MISSING = object()


class _ThreadState(threading.local):
    def __init__(self):
        self.stack: list[int] = []
        self.op = -1
        self.in_firing = False


class Tracer:
    """An in-memory span recorder that is safe to share across threads."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._lock = threading.Lock()
        self._state = _ThreadState()
        self._op_ids = itertools.count()
        self._installed: list[tuple] = []
        #: wrappers record only while this is set (the timed phase)
        self.active = False
        #: byte and call tallies gathered by wrappers (e.g. WAL bytes)
        self.tally: dict[str, float] = defaultdict(float)

    # ------------------------------------------------------------------
    # recording

    def name_id(self, name: str) -> int:
        found = self._name_ids.get(name)
        if found is None:
            found = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return found

    def open(self, name_id: int) -> int:
        state = self._state
        stack = state.stack
        if stack:
            parent = stack[-1]
        else:
            parent = -1
            state.op = next(self._op_ids)
            state.in_firing = False
        with self._lock:
            index = len(self.span_start)
            self.span_name.append(name_id)
            self.span_parent.append(parent)
            self.span_op.append(state.op)
            self.span_end.append(0.0)
            self.span_start.append(_perf())
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.span_end[index] = _perf()
        self._state.stack.pop()

    def span(self, name: str):
        """A context manager recording one span (used for op roots)."""
        return _Span(self, self.name_id(name))

    # ------------------------------------------------------------------
    # wrapping

    def wrap(self, owner, attr: str, name, firing: str | None = None):
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``name`` is a span name, or a pair ``(outside, inside)`` chosen
        by whether the thread is inside a firing.  ``firing="enter"``
        marks the thread as inside a firing once the call returns;
        ``firing="leave"`` clears the mark before the call.
        """
        original = getattr(owner, attr)
        had_own = attr in vars(owner)
        state = self._state
        if isinstance(name, tuple):
            outside, inside = (self.name_id(n) for n in name)
        else:
            outside = inside = self.name_id(name)

        def wrapper(*args, **kwargs):
            if not self.active:
                return original(*args, **kwargs)
            if firing == "leave":
                state.in_firing = False
            index = self.open(inside if state.in_firing else outside)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(index)
            if firing == "enter":
                state.in_firing = True
            return result

        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr,
                                original if had_own else _MISSING))
        return wrapper

    def wrap_calls(self, owner, attr: str, after):
        """Replace ``owner.attr`` with a wrapper that calls
        ``after(result, *args)`` once the original returns (no span)."""
        original = getattr(owner, attr)
        had_own = attr in vars(owner)

        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            after(result, *args)
            return result

        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr,
                                original if had_own else _MISSING))

    def unwrap_all(self) -> None:
        """Put every wrapped attribute back as it was."""
        for owner, attr, original in reversed(self._installed):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._installed.clear()

    def install_engine(self, db) -> None:
        """Wrap the layer entry points of one Database."""
        import repro.db

        self.wrap(repro.db, "parse_command", "lang.parse")
        self.wrap(db.analyzer, "analyze", "lang.analyze")
        self.wrap(db.optimizer, "plan_command", "planner.plan")
        self.wrap(db.executor, "run", ("executor.stmt", "executor.action"))
        self.wrap(db.hooks, "route_tokens", "core.route")
        index = db.network.selection_index
        self.wrap(index, "probe", "core.selection_probe")
        self.wrap(index, "probe_many", "core.selection_probe")
        self.wrap(db.manager, "select_rule", "core.agenda", firing="leave")
        self.wrap(db.manager, "end_of_rule_processing", "core.end_of_cycle",
                  firing="leave")
        self.wrap(db.action_planner, "plan_firing", "core.action_plan",
                  firing="enter")
        journal = db.hooks.journal
        if journal is not None:
            self.wrap(journal, "flush_boundary", "txn.wal_flush")
            self.wrap(journal, "checkpoint", "txn.checkpoint")
            # a checkpoint swaps in a new log object: follow it
            self.wrap_calls(journal, "checkpoint",
                            lambda _result: self._count_wal(journal.wal))
            self._count_wal(journal.wal)

    def install_service(self, service, sessions) -> None:
        """Wrap a RuleService: ``serve.read`` or ``serve.write`` around
        each ``execute_prepared`` in the calling thread, and
        ``serve.writer_exec`` around the writer thread's execution of
        each session's mutating prepared statements."""
        original = service.execute_prepared
        read_id = self.name_id("serve.read")
        write_id = self.name_id("serve.write")

        def execute_prepared(session, name, params=None):
            if not self.active:
                return original(session, name, params)
            read = session.prepared_statement(name).read_only
            index = self.open(read_id if read else write_id)
            try:
                return original(session, name, params)
            finally:
                self.close(index)

        service.execute_prepared = execute_prepared
        self._installed.append((service, "execute_prepared", _MISSING))
        # sessions may share one Prepared object: wrap each once
        statements = {id(p): p for session in sessions
                      for p in session.prepared.values()}
        for prepared in statements.values():
            if not prepared.read_only:
                self.wrap(prepared, "execute_with", "serve.writer_exec")

    def _count_wal(self, wal) -> None:
        """Tally the bytes each WAL append adds to the log file."""
        original = wal.append
        tally = self.tally

        def append(entries, *, sync):
            if not self.active:
                return original(entries, sync=sync)
            before = os.path.getsize(wal.path)
            original(entries, sync=sync)
            tally["wal_bytes"] += os.path.getsize(wal.path) - before

        wal.append = append
        self._installed.append((wal, "append", _MISSING))

    # ------------------------------------------------------------------
    # analysis

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: ``count``, total ``duration`` and total
        ``self`` seconds (duration minus the time child spans cover)."""
        start, end = self.span_start, self.span_end
        parent = self.span_parent
        n = len(start)
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out: dict[str, dict[str, float]] = {
            name: {"count": 0, "duration": 0.0, "self": 0.0}
            for name in self.names}
        names = self.names
        span_name = self.span_name
        for i in range(n):
            entry = out[names[span_name[i]]]
            duration = end[i] - start[i]
            entry["count"] += 1
            entry["duration"] += duration
            entry["self"] += duration - child[i]
        return out

    def dump(self, path) -> None:
        """Write every span as ``[name, start, end, parent, op]``."""
        names = self.names
        with open(path, "w") as f:
            f.write('{"fields": ["name", "start_s", "end_s", "parent", '
                    '"op"],\n "spans": [\n')
            n = len(self.span_start)
            for i in range(n):
                f.write(json.dumps([names[self.span_name[i]],
                                    self.span_start[i], self.span_end[i],
                                    self.span_parent[i], self.span_op[i]]))
                f.write(",\n" if i + 1 < n else "\n")
            f.write("]}\n")


class _Span:
    __slots__ = ("tracer", "name_id", "index")

    def __init__(self, tracer: Tracer, name_id: int):
        self.tracer = tracer
        self.name_id = name_id

    def __enter__(self):
        self.index = self.tracer.open(self.name_id)
        return self

    def __exit__(self, *exc_info):
        self.tracer.close(self.index)
        return False


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------

#: every per-layer metric: name, unit and which direction is better,
#: in report order
PER_LAYER = (
    ("lang.parse_us", "us", "lower"),
    ("lang.analyze_us", "us", "lower"),
    ("prepared.stmt_cache_hit_ratio", "ratio", "higher"),
    ("planner.plan_us", "us", "lower"),
    ("planner.plans_per_op", "1/op", "lower"),
    ("executor.stmt_self_us", "us", "lower"),
    ("executor.action_self_us", "us", "lower"),
    ("core.route_us", "us", "lower"),
    ("core.selection_probe_us", "us", "lower"),
    ("core.tokens_per_op", "1/op", "lower"),
    ("core.selection_probes_per_op", "1/op", "lower"),
    ("core.join_seeks_per_op", "1/op", "lower"),
    ("core.virtual_scans_per_op", "1/op", "lower"),
    ("core.leapfrog_seeks_per_op", "1/op", "lower"),
    ("core.pnode_inserts_per_op", "1/op", "lower"),
    ("core.multiway_planned", "count", "lower"),
    ("core.end_of_cycle_us", "us", "lower"),
    ("core.agenda_us", "us", "lower"),
    ("core.action_plan_us", "us", "lower"),
    ("core.firings_per_op", "1/op", "lower"),
    ("core.matches_per_firing", "1/firing", "higher"),
    ("txn.wal_flush_us", "us", "lower"),
    ("txn.checkpoint_ms", "ms", "lower"),
    ("txn.checkpoints", "count", "lower"),
    ("txn.wal_records_per_write", "1/write", "lower"),
    ("txn.wal_bytes_per_write", "B/write", "lower"),
    ("txn.recovery_replayed", "count", "lower"),
    ("txn.recover_s", "s", "lower"),
    ("serve.service_read_us", "us", "lower"),
    ("serve.service_write_us", "us", "lower"),
    ("serve.write_wait_us", "us", "lower"),
    ("trace.op_us", "us", "lower"),
    ("trace.unattributed_us", "us", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

#: span name -> per-layer metric taking that span's self time per op
_SELF_TIME = {
    "lang.parse": "lang.parse_us",
    "lang.analyze": "lang.analyze_us",
    "planner.plan": "planner.plan_us",
    "executor.stmt": "executor.stmt_self_us",
    "executor.action": "executor.action_self_us",
    "core.route": "core.route_us",
    "core.selection_probe": "core.selection_probe_us",
    "core.end_of_cycle": "core.end_of_cycle_us",
    "core.agenda": "core.agenda_us",
    "core.action_plan": "core.action_plan_us",
    "txn.wal_flush": "txn.wal_flush_us",
}

#: counter -> per-op metric
_PER_OP_COUNTERS = {
    "tokens.routed": "core.tokens_per_op",
    "selection.probes": "core.selection_probes_per_op",
    "joins.seeks": "core.join_seeks_per_op",
    "virtual.scans": "core.virtual_scans_per_op",
    "joins.leapfrog_seeks": "core.leapfrog_seeks_per_op",
    "pnode.inserts": "core.pnode_inserts_per_op",
    "rules.fired": "core.firings_per_op",
}


def counter_delta(before: dict, after: dict) -> dict[str, int]:
    return {k: after.get(k, 0) - before.get(k, 0)
            for k in set(before) | set(after)}


def layer_metrics(agg: dict, counters: dict, *, ops: int, writes: int,
                  matches: int, root_names: tuple[str, ...],
                  wal_bytes: float = 0.0) -> dict[str, float]:
    """Engine-side per-layer metrics from span aggregates and counter
    deltas of one timed phase.  Serving, recovery and run-level
    metrics are added by the caller; layers a workload does not use
    report 0."""
    ops = max(ops, 1)
    out: dict[str, float] = {}
    for span, metric in _SELF_TIME.items():
        out[metric] = agg.get(span, {}).get("self", 0.0) * 1e6 / ops
    for counter, metric in _PER_OP_COUNTERS.items():
        out[metric] = counters.get(counter, 0) / ops
    plans = agg.get("planner.plan", {}).get("count", 0)
    out["planner.plans_per_op"] = plans / ops
    # share of statement executions that reused a plan: ad-hoc text
    # that hit the statement cache, or a prepared statement that did
    # not need a replan
    executions = counters.get("plan_cache.executions", 0)
    planned = (counters.get("stmt_cache.misses", 0)
               + counters.get("plan_cache.replans", 0))
    out["prepared.stmt_cache_hit_ratio"] = (
        max(0.0, 1.0 - planned / executions) if executions else 0.0)
    out["core.multiway_planned"] = counters.get("joins.multiway_planned", 0)
    fired = counters.get("rules.fired", 0)
    out["core.matches_per_firing"] = matches / fired if fired else 0.0
    checkpoint = agg.get("txn.checkpoint", {})
    out["txn.checkpoint_ms"] = (
        checkpoint["duration"] * 1e3 / checkpoint["count"]
        if checkpoint.get("count") else 0.0)
    out["txn.checkpoints"] = counters.get("wal.checkpoints", 0)
    writes = max(writes, 1)
    out["txn.wal_records_per_write"] = counters.get("wal.records", 0) / writes
    out["txn.wal_bytes_per_write"] = wal_bytes / writes
    out["trace.unattributed_us"] = sum(
        agg.get(name, {}).get("self", 0.0) for name in root_names
    ) * 1e6 / ops
    return out
