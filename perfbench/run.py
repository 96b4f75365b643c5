"""Run one benchmark workload against the CrowdDB sources of this checkout.

    python3 perfbench/run.py --workload oltp_durable --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrapper installed;
``--trace 1`` alternates traced and untraced rounds and reports the
per-layer metrics plus the tracing overhead.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Every run is also appended to
``perfbench/results/trajectory.jsonl``.
"""

from __future__ import annotations

import argparse
import datetime
import gc
import json
import os
import shutil
import sys
import time
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")


def _import_program() -> bool:
    """Put this checkout's ``src`` first on the path and import it."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no CrowdDB sources under {SRC}", file=sys.stderr)
        return False
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported repro from {repro.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return False
    return True


#: workload name -> (module in this directory, class)
WORKLOADS = {
    "oltp_durable": ("oltp", "OltpDurable"),
    "crowd_server": ("crowd", "CrowdServer"),
    "wire_tcp": ("wire", "WireTcp"),
}


def measure(workload, seconds: float, trace: bool):
    """Set up, run whole rounds for ``seconds``, verify.

    Returns the recorder, the set-up times, the measured wall time (the
    sum of the round times), the tracer (or None) and the traced-round
    bookkeeping."""
    from harness import SETUPS, Recorder
    from tracing import Tracer

    episode = workload.episode_rounds
    setups = []

    def set_up() -> None:
        started = time.perf_counter()
        workload.setup(len(setups))
        setups.append(time.perf_counter() - started)
        workload.start()

    def tear_down() -> None:
        workload.teardown()
        # the discarded set-up's objects must not linger into the
        # measured window, where their collection would be charged to
        # whichever statement triggers it
        gc.collect()

    if episode is None:
        for _ in range(SETUPS - 1):
            set_up()
            tear_down()
    recorder = Recorder(workload.expected_failures)
    tracer = Tracer() if trace else None
    rounds = {"traced": [], "untraced": []}
    deltas: dict[str, float] = {}
    traced_ops = []
    try:
        deadline = time.perf_counter() + seconds
        number = 0
        while True:
            if episode is None:
                if number == 0:
                    set_up()
                within = number
            else:
                within = number % episode
                if within == 0:
                    if number:
                        tear_down()
                    set_up()
            # rounds run in pairs, one traced and one not, the traced one
            # first in every other pair, so a drift in round cost over
            # the run cancels out of the tracing overhead
            traced = tracer is not None and (number % 2) == (number // 2) % 2
            first = len(recorder.ops)
            if traced:
                before = workload.counters()
                recorder.tracer = tracer
                tracer.install()
            began = time.perf_counter()
            try:
                workload.run_round(within, recorder)
            finally:
                if traced:
                    tracer.uninstall()
                    recorder.tracer = None
            took = time.perf_counter() - began
            rounds["traced" if traced else "untraced"].append(took)
            if traced:
                after = workload.counters()
                for name, value in after.items():
                    deltas[name] = deltas.get(name, 0) + value - before[name]
                traced_ops.extend(recorder.ops[first:])
            number += 1
            if episode is not None and number % episode == 0:
                workload.episode_done(recorder)
            if time.perf_counter() < deadline:
                continue
            if tracer is not None and number % 2:
                continue
            if episode is not None and (
                number % episode or len(setups) < SETUPS
                or len(setups) % workload.episodes_per_cycle
            ):
                continue
            break
        wall = sum(rounds["traced"]) + sum(rounds["untraced"])
        began = time.perf_counter()
        workload.verify(recorder)
        recorder.verify_s = time.perf_counter() - began
    finally:
        workload.teardown()
    return recorder, setups, wall, tracer, rounds, deltas, traced_ops


def end_to_end(recorder, setups, wall, kinds) -> dict:
    from harness import median, peak_rss_mb

    latencies = recorder.latencies(kinds=kinds)
    return {
        "setup_s": (median(setups), "s"),
        "throughput_ops": (len(recorder.latencies()) / wall, "ops/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "op_p50_ms": (median(latencies) * 1000.0, "ms"),
        "op_mean_ms": (sum(latencies) / len(latencies) * 1000.0, "ms"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not _import_program():
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    module_name, class_name = WORKLOADS[args.workload]
    workload_class = getattr(__import__(module_name), class_name)

    from harness import append_trajectory, fingerprint
    from repro.crowd.model import reset_id_counters
    from repro.errors import CrowdDBWarning
    from tracing import layer_metrics

    warnings.simplefilter("ignore", CrowdDBWarning)
    reset_id_counters()
    workdir = os.path.join(RESULTS, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workload = workload_class(args.seed, workdir)
        (recorder, setups, wall, tracer, rounds, deltas,
         traced_ops) = measure(workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer is None:
        metrics = end_to_end(recorder, setups, wall,
                             workload.latency_kinds)
    else:
        metrics = layer_metrics(tracer, rounds, deltas, traced_ops,
                                workload.crowd_figures())
    correct = not recorder.problems
    attempted = len(recorder.ops)
    failed = sum(op.failed for op in recorder.ops)
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    detail = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "time": stamp,
        "machine": fingerprint(), "setups_s": setups,
        "rounds": len(rounds["traced"]) + len(rounds["untraced"]),
        "latency_kinds": list(workload.latency_kinds),
        "wall_s": wall, "verify_s": recorder.verify_s,
        "per_kind": recorder.per_kind(),
        "op_tail": recorder.tail(workload.latency_kinds),
        "crowd": workload.crowd_figures(),
        "problems": recorder.problems[:20],
    }
    result = {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    append_trajectory(os.path.join(RESULTS, "trajectory.jsonl"),
                      dict(detail, result=result))
    if tracer is not None:
        name = f"spans-{args.workload}-{args.seed}-{os.getpid()}.jsonl.gz"
        tracer.write(os.path.join(RESULTS, name))
    for problem in recorder.problems[:20]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
