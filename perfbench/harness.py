"""Shared measurement plumbing: op recording, percentiles, machine
fingerprint, peak memory and the append-only trajectory."""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import time
from typing import Any, Callable, Optional

#: set-ups made per run; ``setup_s`` is their median.  A workload that
#: runs in episodes sets up once per episode and runs at least this many
SETUPS = 5


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile of ``values`` (``share`` in 0..1)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, min(len(ordered), math.ceil(share * len(ordered))))
    return ordered[rank - 1]


def median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


class OpRecord:
    """One statement the workload issued, with what the checkers need."""

    __slots__ = ("kind", "seconds", "failed", "rows", "detail")

    def __init__(self, kind: str, seconds: float, failed: bool,
                 rows: int, detail: Any) -> None:
        self.kind = kind
        self.seconds = seconds
        self.failed = failed
        self.rows = rows        # rows returned or affected
        self.detail = detail    # workload-specific payload for verify()


class Recorder:
    """Collects every operation of a run, in issue order.

    ``expected_failures`` names the operation kinds that fail on every
    attempt because of a known fault; any other failure makes the run
    incorrect.  Failed operations count in ``attempted`` and ``failed``
    but not in the latency samples or the throughput.
    """

    def __init__(self, expected_failures: tuple[str, ...] = ()) -> None:
        self.ops: list[OpRecord] = []
        self.expected_failures = expected_failures
        self.problems: list[str] = []
        self.verify_s = 0.0
        # set by the runner during traced rounds: each timed operation
        # then opens a statement id that its spans share
        self.tracer: Any = None

    def add(self, kind: str, seconds: float, failed: bool = False,
            rows: int = 0, detail: Any = None) -> OpRecord:
        record = OpRecord(kind, seconds, failed, rows, detail)
        self.ops.append(record)
        return record

    def timed(self, kind: str, call: Callable[[], Any],
              rows_of: Callable[[Any], int],
              detail: Callable[[Any], Any] = lambda result: result,
              ) -> OpRecord:
        """Time ``call()``; an exception marks the operation failed."""
        tracer = self.tracer
        if tracer is not None:
            tracer.begin_statement(tracer.new_statement())
        started = time.perf_counter()
        try:
            result = call()
            elapsed = time.perf_counter() - started
        except Exception as error:  # the op failed: record, keep going
            record = self.add(kind, time.perf_counter() - started, True,
                              0, repr(error))
            if kind not in self.expected_failures:
                self.problems.append(f"{kind} raised {error!r}")
            return record
        finally:
            if tracer is not None:
                tracer.end_statement()
        return self.add(kind, elapsed, False, rows_of(result), detail(result))

    def fail(self, record: OpRecord, why: str) -> None:
        """A checker found ``record``'s output wrong."""
        record.failed = True
        if record.kind not in self.expected_failures:
            self.problems.append(f"{record.kind}: {why}")

    # -- summaries -----------------------------------------------------------

    def latencies(self, ops: Optional[list[OpRecord]] = None,
                  kinds: Optional[tuple[str, ...]] = None) -> list[float]:
        """Seconds of the operations that did not fail, of ``kinds`` only
        when given."""
        ops = self.ops if ops is None else ops
        return [op.seconds for op in ops
                if not op.failed and (kinds is None or op.kind in kinds)]

    def tail(self, kinds: tuple[str, ...]) -> dict[str, Any]:
        """The highest of a few percentiles of ``kinds`` that has at least
        ten samples beyond it, with the sample count."""
        latencies = self.latencies(kinds=kinds)
        out: dict[str, Any] = {"samples": len(latencies)}
        for share in (0.99, 0.98, 0.97, 0.95, 0.9):
            if len(latencies) * (1.0 - share) >= 10:
                out["percentile"] = round(share * 100)
                out["ms"] = percentile(latencies, share) * 1000.0
                break
        return out

    def per_kind(self) -> dict[str, dict[str, Any]]:
        """Attempted, failed and latency figures per operation type."""
        kinds: dict[str, list[OpRecord]] = {}
        for op in self.ops:
            kinds.setdefault(op.kind, []).append(op)
        out = {}
        for kind, ops in sorted(kinds.items()):
            lat = self.latencies(ops)
            entry: dict[str, Any] = {
                "attempted": len(ops),
                "failed": sum(op.failed for op in ops),
                "samples": len(lat),
            }
            if lat:
                entry["p50_ms"] = median(lat) * 1000.0
                if len(lat) >= 100:
                    entry["p90_ms"] = percentile(lat, 0.90) * 1000.0
            out[kind] = entry
        return out


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fingerprint() -> dict[str, Any]:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
    }


def append_trajectory(path: str, entry: dict[str, Any]) -> None:
    """Append one run as a JSON line; earlier runs are never rewritten."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")


class Workload:
    """What every workload provides to the runner.

    ``setup(index)`` is timed and builds the data from scratch;
    ``start()`` then readies the clients, untimed; ``teardown()``
    releases both.  ``run_round(number, recorder)`` issues one whole
    round of the same operation types (parameters vary).
    ``verify(recorder)`` checks every recorded output after the timed
    window.  ``counters()`` reads the program's own counters.

    ``latency_kinds`` names the operation kinds whose latencies make the
    ``op_p50_ms``/``op_mean_ms`` metrics.  A workload with
    ``episode_rounds`` set runs in episodes: a fresh set-up, exactly that
    many rounds (numbered from 0 again), then ``episode_done``, repeated
    until the run's time is up, so every episode does the same work.  A
    run ends after a whole cycle of ``episodes_per_cycle`` episodes.
    """

    name = ""
    expected_failures: tuple[str, ...] = ()
    latency_kinds: tuple[str, ...] = ()
    episode_rounds: Optional[int] = None
    episodes_per_cycle = 1

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir

    def setup(self, index: int) -> None:
        raise NotImplementedError

    def start(self) -> None:
        pass

    def episode_done(self, recorder: Recorder) -> None:
        pass

    def teardown(self) -> None:
        raise NotImplementedError

    def run_round(self, number: int, recorder: Recorder) -> None:
        raise NotImplementedError

    def verify(self, recorder: Recorder) -> None:
        raise NotImplementedError

    def counters(self) -> dict[str, float]:
        raise NotImplementedError

    def crowd_figures(self) -> dict[str, float]:
        """Simulated crowd cost of one episode."""
        return {"makespan_sim_s": 0.0, "cents": 0, "assignments": 0,
                "hits": 0}


def connection_counters(db: Any, server: Any = None) -> dict[str, float]:
    """The program's own counters that the per-layer report uses."""
    out: dict[str, float] = {
        "parse_hits": db.parse_cache_stats["hits"],
        "parse_misses": db.parse_cache_stats["misses"],
        "plan_hits": db.executor.plan_cache.stats["hits"],
        "plan_misses": db.executor.plan_cache.stats["misses"],
        "kernel_fallbacks": db.metrics.counter("kernel_fallbacks_total").value,
        "wal_bytes": 0, "wal_records": 0, "wal_fsyncs": 0, "checkpoints": 0,
        "marketplace_rounds": 0, "crowd_cache_hits": 0,
        "slices": 0, "clock_advances": 0, "pool_lookups": 0, "pool_dedup": 0,
    }
    if db.storage is not None:
        wal = db.storage.wal.stats
        out.update(wal_bytes=wal.bytes_written, wal_records=wal.records,
                   wal_fsyncs=wal.fsyncs,
                   checkpoints=db.storage.checkpoints_written)
    if db.task_manager is not None:
        stats = db.task_manager.stats
        out.update(marketplace_rounds=stats.marketplace_rounds,
                   crowd_cache_hits=stats.cache_hits)
    if server is not None:
        scheduler = server.scheduler.stats
        pool = server.task_pool.stats
        out.update(slices=scheduler.slices,
                   clock_advances=scheduler.clock_advances,
                   pool_lookups=pool.lookups, pool_dedup=pool.deduplicated)
    return out
