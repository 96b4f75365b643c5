"""Span tracing installed from the benchmark's side of the API.

The program carries no tracing of its own; a traced run wraps the public
entry points of each layer (listed in :data:`TARGETS`), keeps spans in
memory, and restores every original function when the round ends.  An
untraced run never calls :meth:`Tracer.install`.

A span is ``(span_id, name, start, end, parent_id, statement, key)``.
``parent_id`` links spans nested in one thread; ``statement`` is shared
by every span of one benchmark operation (a statement, a transaction or
a session's script), also across threads (a server session runs the
statement its client sent); ``key`` is the session id where the wrapped
call has one.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import sys
import threading
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Iterable, Optional

# (module, class or None, attribute, span name, mode)
#   mode "span": a timed span; "count": a call counter only (hot polls);
#   "rows": counts the rows an iterator yields
TARGETS: tuple[tuple[str, Optional[str], str, str, str], ...] = (
    ("repro.sql.parser", None, "parse", "sql.parse", "span"),
    ("repro.sql.parser", None, "parse_script", "sql.parse", "span"),
    ("repro.engine.executor", "Executor", "execute", "engine.execute", "span"),
    ("repro.engine.executor", "Executor", "compile_select", "plan.compile",
     "span"),
    ("repro.optimizer.optimizer", "Optimizer", "optimize",
     "optimizer.optimize", "span"),
    ("repro.plan.binder", "Binder", "bind", "plan.bind", "span"),
    ("repro.engine.planner", "PhysicalPlanner", "plan",
     "engine.physical_plan", "span"),
    ("repro.storage.heap", "HeapTable", "scan", "heap.scan_rows", "rows"),
    ("repro.storage.heap", "HeapTable", "scan_values", "heap.scan_rows",
     "rows"),
    ("repro.storage.heap", "HeapTable", "scan_columns", "exec.scan_columns",
     "span"),
    ("repro.storage.engine", "StorageEngine", "insert", "storage.write",
     "span"),
    ("repro.storage.engine", "StorageEngine", "update", "storage.write",
     "span"),
    ("repro.storage.wal", "WriteAheadLog", "append", "storage.wal_append",
     "span"),
    ("repro.storage.wal", "WriteAheadLog", "flush", "storage.wal_flush",
     "span"),
    ("repro.storage.recovery", "DurableStorage", "checkpoint",
     "storage.checkpoint", "span"),
    # HeapTable.analyze (explicit ANALYZE) and the auto-analyze guard both
    # end in TableStatistics.analyze
    ("repro.storage.statistics", "TableStatistics", "analyze",
     "storage.analyze", "span"),
    ("repro.crowd.task_manager", "TaskManager", "settle", "crowd.settle",
     "span"),
    ("repro.crowd.task_manager", "CrowdFuture", "ready", "crowd.ready",
     "count"),
    ("repro.crowd.sim.base", "SimulatedCrowdPlatform", "run_until",
     "crowd.sim.run_until", "span"),
    ("repro.crowd.sim.clock", "EventQueue", "step", "crowd.sim.event",
     "count"),
    ("repro.server.scheduler", "CooperativeScheduler", "step",
     "server.step", "span"),
    ("repro.server.session", "Session", "run_slice", "server.run_slice",
     "span"),
    ("repro.net.client", "NetClient", "execute", "net.client_execute",
     "span"),
    ("repro.net.protocol", None, "result_pages", "net.encode", "span"),
    ("repro.net.protocol", None, "pack_frame", "net.encode", "span"),
    ("repro.net.protocol", None, "decode_payload", "net.decode", "span"),
    ("repro.net.protocol", None, "decode_row", "net.decode", "span"),
)


def resolve(module: str, owner: Optional[str], attr: str) -> tuple[Any, Any]:
    """``(holder, current attribute)`` of one target."""
    holder = sys.modules.get(module) or __import__(module, fromlist=["_"])
    if owner is not None:
        holder = getattr(holder, owner)
    return holder, getattr(holder, attr)


def snapshot_targets() -> dict[str, Any]:
    """The object currently bound at every target (self-tests compare)."""
    out = {}
    for module, owner, attr, _name, _mode in TARGETS:
        _holder, current = resolve(module, owner, attr)
        out[f"{module}.{owner or ''}.{attr}"] = current
    return out


_SESSION_THREAD = "crowddb-session-"


def _session_key(args: tuple) -> Optional[int]:
    """Session id of a wrapped call: a Session or NetClient carries it;
    an Executor owned by a server session reaches it through the
    session's crowd waiter; anything else a session's worker thread
    calls (parsing its script) is known by the thread's name."""
    if args:
        target = args[0]
        key = getattr(target, "session_id", None)
        if key is not None:
            return key
        waiter = getattr(target, "crowd_waiter", None)
        owner = getattr(waiter, "__self__", None)
        key = getattr(owner, "session_id", None)
        if key is not None:
            return key
    name = threading.current_thread().name
    if name.startswith(_SESSION_THREAD):
        return int(name[len(_SESSION_THREAD):])
    return None


class Tracer:
    """In-memory span recorder for one traced run."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._statements = itertools.count(1)
        self._local = threading.local()
        self._counts_lock = threading.Lock()
        self._thread_counts: list[defaultdict] = []
        # session id -> statement id it is running (set at submission)
        self._session_statement: dict[int, int] = {}
        self._patches: list[tuple[Any, str, Any]] = []

    # -- statement identity --------------------------------------------------

    def new_statement(self) -> int:
        return next(self._statements)

    def begin_statement(self, statement: int) -> None:
        """Spans opened by this thread belong to ``statement``."""
        self._local.statement = statement

    def end_statement(self) -> None:
        self._local.statement = None

    def bind_session(self, session_id: int, statement: int) -> None:
        """Spans of server session ``session_id`` belong to ``statement``."""
        self._session_statement[session_id] = statement

    def _counts(self) -> defaultdict:
        counts = getattr(self._local, "counts", None)
        if counts is None:
            counts = self._local.counts = defaultdict(int)
            with self._counts_lock:
                self._thread_counts.append(counts)
        return counts

    def counts(self) -> dict[str, int]:
        total: defaultdict = defaultdict(int)
        with self._counts_lock:
            for counts in self._thread_counts:
                for name, value in list(counts.items()):
                    total[name] += value
        return dict(total)

    # -- wrappers ------------------------------------------------------------

    def _span(self, name: str, original: Callable) -> Callable:
        tracer = self
        local = self._local
        spans = self.spans
        ids = self._ids
        is_client = name == "net.client_execute"
        is_encode = name == "net.encode" and original.__name__ == "pack_frame"

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            key = _session_key(args)
            if stack:
                parent, statement = stack[-1]
            else:
                parent = None
                statement = getattr(local, "statement", None)
            if statement is None and key is not None:
                statement = tracer._session_statement.get(key)
            if is_client and statement is not None and key is not None:
                # the remote session runs this statement next
                tracer._session_statement[key] = statement
            span_id = next(ids)
            stack.append((span_id, statement))
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((span_id, name, start, end, parent, statement,
                              key))
            if is_encode:
                counts = tracer._counts()
                counts["net.frames"] += 1
                counts["net.frame_bytes"] += len(result)
            elif name == "exec.scan_columns":
                tracer._counts()["heap.scan_rows"] += result[1]
            return result

        return wrapper

    def _count(self, name: str, original: Callable) -> Callable:
        tracer = self

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            tracer._counts()[name] += 1
            return original(*args, **kwargs)

        return wrapper

    def _rows(self, name: str, original: Callable) -> Callable:
        tracer = self

        def counted(iterator: Iterable, counts: defaultdict):
            seen = 0
            try:
                for item in iterator:
                    seen += 1
                    yield item
            finally:
                counts[name] += seen

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return counted(original(*args, **kwargs), tracer._counts())

        return wrapper

    # -- install / restore ---------------------------------------------------

    def install(self) -> None:
        """Wrap every target.  Module-level functions are also rebound in
        every ``repro`` module that imported them by name."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        makers = {"span": self._span, "count": self._count, "rows": self._rows}
        for module, owner, attr, name, mode in TARGETS:
            holder, original = resolve(module, owner, attr)
            wrapper = makers[mode](name, original)
            if owner is not None:
                self._patch(holder, attr, original, wrapper)
                continue
            for loaded_name, loaded in list(sys.modules.items()):
                if loaded is None or not (
                    loaded_name == "repro" or loaded_name.startswith("repro.")
                ):
                    continue
                for bound_name, value in list(vars(loaded).items()):
                    if value is original:
                        self._patch(loaded, bound_name, original, wrapper)

    def _patch(self, holder: Any, attr: str, original: Any,
               wrapper: Any) -> None:
        setattr(holder, attr, wrapper)
        self._patches.append((holder, attr, original))

    def uninstall(self) -> None:
        """Put every original function back."""
        while self._patches:
            holder, attr, original = self._patches.pop()
            setattr(holder, attr, original)

    # -- output --------------------------------------------------------------

    def write(self, path: str) -> None:
        """Dump the spans as gzipped JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for span in self.spans:
                span_id, name, start, end, parent, statement, key = span
                handle.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "statement": statement,
                    "session": key,
                }) + "\n")


# -- derivation ----------------------------------------------------------------


def self_times(spans: list[tuple]) -> dict[str, float]:
    """Seconds per span name, minus the time its child spans cover.

    A server session parks inside ``Executor.execute`` while it waits for
    the crowd or for other sessions; only the part of such a span that
    falls inside the session's own ``Session.run_slice`` intervals counts
    as its duration."""
    slices: defaultdict = defaultdict(list)
    for _sid, name, start, end, _parent, _stmt, key in spans:
        if name == "server.run_slice":
            slices[key].append((start, end))
    child_time: defaultdict = defaultdict(float)
    for _sid, _name, start, end, parent, _stmt, _key in spans:
        if parent is not None:
            child_time[parent] += end - start
    totals: defaultdict = defaultdict(float)
    for sid, name, start, end, _parent, _stmt, key in spans:
        duration = end - start
        if name == "engine.execute" and key in slices:
            duration = _overlap(start, end, slices[key])
        totals[name] += duration - child_time[sid]
    return dict(totals)


def _overlap(start: float, end: float,
             intervals: list[tuple[float, float]]) -> float:
    covered = 0.0
    for other_start, other_end in intervals:
        low = max(start, other_start)
        high = min(end, other_end)
        if high > low:
            covered += high - low
    return covered


def handoff_time(spans: list[tuple]) -> float:
    """``Session.run_slice`` time not spent inside ``Executor.execute``
    of the same session: the cost of passing the baton."""
    executes: defaultdict = defaultdict(list)
    slices = []
    for _sid, name, start, end, _parent, _stmt, key in spans:
        if name == "engine.execute" and key is not None:
            executes[key].append((start, end))
        elif name == "server.run_slice":
            slices.append((start, end, key))
    return sum(
        (end - start) - _overlap(start, end, executes.get(key, []))
        for start, end, key in slices
    )


def transport_time(spans: list[tuple]) -> float:
    """``NetClient.execute`` time minus the server-side outermost
    ``Executor.execute`` time of the same statement."""
    server: defaultdict = defaultdict(float)
    for _sid, name, start, end, parent, statement, _key in spans:
        # the server runs a wire statement as the outermost span of a
        # session thread
        if name == "engine.execute" and parent is None and statement:
            server[statement] += end - start
    total = 0.0
    for _sid, name, start, end, _parent, statement, _key in spans:
        if name == "net.client_execute":
            total += (end - start) - server.get(statement, 0.0)
    return total


def layer_metrics(tracer: Tracer, rounds: dict[str, list[float]],
                  deltas: dict[str, float], traced_ops: list,
                  crowd: dict[str, float]) -> dict[str, tuple[float, str]]:
    """The per-layer report of a traced run.

    Span times are reported as a share (%) of the traced rounds' wall
    time: a layer a workload never enters reads 0 % rather than a time.
    Counts are per operation of the traced rounds unless the unit says
    otherwise.  ``trace.overhead_pct`` compares the traced rounds' wall
    time with that of as many untraced rounds of the same run (traced
    wall time minus untraced, as a share of untraced).  Threads run
    concurrently in ``wire_tcp`` and ``crowd_server``, so shares summed
    over their threads can pass 100 %.
    """
    spans = tracer.spans
    counts = tracer.counts()
    selfs = self_times(spans)
    calls: defaultdict = defaultdict(int)
    for span in spans:
        calls[span[1]] += 1
    wall = sum(rounds["traced"]) or 1.0
    operations = max(1, len(traced_ops))
    rows_out = sum(op.rows for op in traced_ops)

    def share(name: str) -> tuple[float, str]:
        return 100.0 * selfs.get(name, 0.0) / wall, "%"

    def per_op(value: float, unit: str) -> tuple[float, str]:
        return value / operations, unit

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    traced_total = sum(rounds["traced"])
    untraced_total = sum(rounds["untraced"][:len(rounds["traced"])])
    return {
        "sql.parse_share": share("sql.parse"),
        "sql.parse_cache_hit_ratio": (ratio(
            deltas["parse_hits"], deltas["parse_hits"] + deltas["parse_misses"]
        ), "ratio"),
        "plan.compile_share": share("plan.compile"),
        "optimizer.optimize_share": share("optimizer.optimize"),
        "plan.bind_share": share("plan.bind"),
        "engine.physical_plan_share": share("engine.physical_plan"),
        "plan.cache_hit_ratio": (ratio(
            deltas["plan_hits"], deltas["plan_hits"] + deltas["plan_misses"]
        ), "ratio"),
        "engine.execute_self_share": share("engine.execute"),
        "engine.rows_examined_per_row": (ratio(
            counts.get("heap.scan_rows", 0), rows_out), "rows/row"),
        "exec.scan_columns_share": share("exec.scan_columns"),
        "exec.scan_columns_calls": per_op(
            calls["exec.scan_columns"], "calls/op"),
        "exec.kernel_fallbacks": (deltas["kernel_fallbacks"], "count"),
        "storage.write_share": share("storage.write"),
        "storage.wal_append_share": share("storage.wal_append"),
        "storage.wal_flush_share": share("storage.wal_flush"),
        "storage.wal_fsyncs": per_op(deltas["wal_fsyncs"], "fsyncs/op"),
        "storage.wal_bytes_per_row": (ratio(
            deltas["wal_bytes"], deltas["wal_records"]), "B/row"),
        "storage.checkpoint_share": share("storage.checkpoint"),
        "storage.checkpoints": (deltas["checkpoints"], "count"),
        "storage.analyze_share": share("storage.analyze"),
        "storage.analyze_calls": (calls["storage.analyze"], "count"),
        "crowd.settle_share": share("crowd.settle"),
        "crowd.ready_polls": per_op(counts.get("crowd.ready", 0),
                                    "polls/op"),
        "crowd.marketplace_rounds": per_op(
            deltas["marketplace_rounds"], "rounds/op"),
        "crowd.cache_hits": per_op(deltas["crowd_cache_hits"], "hits/op"),
        "crowd.makespan_sim_s": (crowd["makespan_sim_s"], "sim_s"),
        "crowd.cents": (crowd["cents"], "cents"),
        "crowd.assignments": (crowd["assignments"], "count"),
        "crowd.hits": (crowd["hits"], "count"),
        "crowd.sim.run_until_share": share("crowd.sim.run_until"),
        "crowd.sim.events": per_op(counts.get("crowd.sim.event", 0),
                                   "events/op"),
        "server.step_share": share("server.step"),
        "server.handoff_share": (100.0 * handoff_time(spans) / wall, "%"),
        "server.slices": per_op(deltas["slices"], "slices/op"),
        "server.clock_advances": per_op(deltas["clock_advances"],
                                        "advances/op"),
        "server.dedup_rate": (ratio(deltas["pool_dedup"],
                                    deltas["pool_lookups"]), "ratio"),
        "net.transport_share": (100.0 * transport_time(spans) / wall, "%"),
        "net.encode_share": share("net.encode"),
        "net.decode_share": share("net.decode"),
        "net.frames_per_op": per_op(counts.get("net.frames", 0),
                                    "frames/op"),
        "net.bytes_per_row": (ratio(counts.get("net.frame_bytes", 0),
                                    rows_out), "B/row"),
        "trace.overhead_pct": (
            100.0 * (traced_total / untraced_total - 1.0)
            if untraced_total else 0.0, "%"),
    }
