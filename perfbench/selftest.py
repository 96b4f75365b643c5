"""Self-tests of the benchmark's own machinery.

    python3 perfbench/selftest.py

They check that an untraced run installs no wrapper, that a traced run
wraps every target and restores every original function, and that the
checkers reject deliberately wrong results.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import tracing  # noqa: E402
from checkers import rows_match  # noqa: E402
from crowd import CrowdServer, city  # noqa: E402
from harness import Recorder, Workload, connection_counters  # noqa: E402
from oltp import OltpDurable  # noqa: E402
from wire import WireTcp  # noqa: E402

from repro.sqltypes import CNULL, NULL  # noqa: E402


class TinyWorkload(Workload):
    """A few in-memory statements per round; records what the tracer
    looked like while each round ran."""

    name = "tiny"

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        self.seen: list[dict] = []
        self.db = None
        self.next_id = 50

    def setup(self, index: int) -> None:
        from repro import connect

        self.db = connect(with_crowd=False)
        self.db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        for i in range(50):
            self.db.execute("INSERT INTO t (id, v) VALUES (?, ?)", (i, i % 7))

    def teardown(self) -> None:
        self.db = None

    def run_round(self, number: int, recorder: Recorder) -> None:
        self.seen.append(tracing.snapshot_targets())
        db = self.db
        recorder.timed("read", lambda: db.execute(
            "SELECT v FROM t WHERE id = ?", (number % 50,)),
            lambda r: len(r.rows))
        recorder.timed("insert", lambda: db.execute(
            "INSERT INTO t (id, v) VALUES (?, ?)", (self.next_id, 1)),
            lambda r: r.rowcount)
        self.next_id += 1
        recorder.timed("aggregate", lambda: db.execute(
            "SELECT v, COUNT(*) FROM t GROUP BY v"), lambda r: len(r.rows))

    def verify(self, recorder: Recorder) -> None:
        pass

    def counters(self) -> dict:
        return connection_counters(self.db)


class TimingWrapperTests(unittest.TestCase):
    def setUp(self) -> None:
        os.makedirs(run.RESULTS, exist_ok=True)
        self.workdir = tempfile.mkdtemp(dir=run.RESULTS)

    def tearDown(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def test_untraced_run_installs_no_wrapper(self) -> None:
        before = tracing.snapshot_targets()
        workload = TinyWorkload(1, self.workdir)
        _recorder, _setups, _wall, tracer, *_rest = run.measure(
            workload, 0.05, trace=False)
        self.assertIsNone(tracer)
        self.assertTrue(workload.seen)
        for seen in workload.seen:
            self.assertEqual(seen, before)
        self.assertEqual(tracing.snapshot_targets(), before)

    def test_traced_run_wraps_and_restores_every_function(self) -> None:
        before = tracing.snapshot_targets()
        workload = TinyWorkload(1, self.workdir)
        (recorder, _setups, _wall, tracer, rounds, deltas,
         traced_ops) = run.measure(workload, 0.05, trace=True)
        self.assertEqual(tracing.snapshot_targets(), before)
        traced = [seen for seen in workload.seen if seen != before]
        self.assertEqual(len(traced), len(rounds["traced"]))
        for seen in traced:
            for name, current in seen.items():
                self.assertIsNot(current, before[name], name)
        self.assertTrue(tracer.spans)
        statements = {span[5] for span in tracer.spans}
        self.assertNotIn(None, statements)
        metrics = tracing.layer_metrics(tracer, rounds, deltas, traced_ops,
                                        workload.crowd_figures())
        self.assertGreater(metrics["engine.execute_self_share"][0], 0.0)
        self.assertGreater(metrics["engine.rows_examined_per_row"][0], 0.0)
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
                  encoding="utf-8") as handle:
            declared = json.load(handle)
        self.assertEqual(
            {(m["name"], m["unit"]) for m in declared["per_layer"]},
            {(name, unit) for name, (_value, unit) in metrics.items()})
        self.assertEqual(
            {(m["name"], m["unit"]) for m in declared["end_to_end"]},
            {(name, unit) for name, (_value, unit)
             in run.end_to_end(recorder, [1.0], 1.0, ("read",)).items()})

    def test_failed_round_still_restores(self) -> None:
        before = tracing.snapshot_targets()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            self.assertNotEqual(tracing.snapshot_targets(), before)
        finally:
            tracer.uninstall()
        self.assertEqual(tracing.snapshot_targets(), before)

        class Broken(TinyWorkload):
            def run_round(self, number, recorder):
                raise RuntimeError("round failed")

        with self.assertRaises(RuntimeError):
            run.measure(Broken(1, self.workdir), 0.05, trace=True)
        self.assertEqual(tracing.snapshot_targets(), before)


class CheckerTests(unittest.TestCase):
    def test_rows_match_rules(self) -> None:
        self.assertIsNone(rows_match([(1, NULL)], [(1, None)], True))
        self.assertIsNone(rows_match([(0.1 + 0.2,)], [(0.3,)], True))
        self.assertIsNone(rows_match([(-2,)], [(-2.0,)], True))
        self.assertIsNone(rows_match([(2,), (1,)], [(1,), (2,)], False))
        self.assertIsNotNone(rows_match([(2,), (1,)], [(1,), (2,)], True))
        self.assertIsNotNone(rows_match([(1, 2)], [(1, 3)], True))
        self.assertIsNotNone(rows_match([(1,)], [(1,), (2,)], False))
        self.assertIsNotNone(rows_match([(CNULL,)], [(None,)], True))
        self.assertIsNotNone(rows_match([(0,)], [(None,)], True))

    def test_sqlite_checker_rejects_a_wrong_query_result(self) -> None:
        workload = OltpDurable(3, "")
        recorder = Recorder(workload.expected_failures)
        # aid 7, teller 2, branch 1, delta -40: the balance reads -40
        txn = recorder.add("tpcb", 0.01, rows=5,
                           detail=((7, 2, 1, -40, 1),
                                   (1, [(-40,)], 1, 1, 1)))
        lost = recorder.add("tpcb", 0.01, rows=5,
                            detail=((7, 2, 1, 5, 2), (1, [(5,)], 1, 1, 1)))
        empty = recorder.add("aggregate", 0.01, rows=0, detail=[])
        bad = recorder.add("aggregate", 0.01, rows=1,
                           detail=[(1, 1250, 0, 0, 0)])
        probe = recorder.add("mod_negative", 0.01, rows=1, detail=[(0,)])
        workload.check_outputs(recorder)
        self.assertFalse(txn.failed)
        # the second transaction's read missed the first one's update
        self.assertTrue(lost.failed)
        # an expected-failure probe fails without making the run wrong
        self.assertTrue(empty.failed and bad.failed and probe.failed)
        self.assertEqual(len(recorder.problems), 3)
        self.assertIn("aggregate", recorder.problems[1])

    def test_model_checker_rejects_a_wrong_scan(self) -> None:
        workload = WireTcp(3, "")
        rows = [(key, workload.initial[key][2], workload.initial[key][3])
                for key in (7, 8)]
        recorder = Recorder()
        right = recorder.add("scan", 0.01, rows=2,
                             detail=((7, 8), rows, 2))
        short = recorder.add("scan", 0.01, rows=1,
                             detail=((7, 8), rows[:1], 1))
        wrong = recorder.add("scan", 0.01, rows=2,
                             detail=((7, 8), [rows[0], rows[0]], 2))
        workload.verify(recorder)
        self.assertFalse(right.failed)
        self.assertTrue(short.failed and wrong.failed)
        self.assertEqual(len(recorder.problems), 2)

    def test_oracle_checker_rejects_a_wrong_crowd_answer(self) -> None:
        workload = CrowdServer(3, "")
        population = workload.truth[city(4)]
        window = [(city(i), workload.truth[city(i)]) for i in range(4, 8)]
        ranked = sorted((f"pic5_{j}" for j in range(4)),
                        key=lambda name: -workload.scores[name])
        order = [(name,) for name in ranked[:2]]

        def script(fill, top):
            return [(("key", city(4)), [(fill,)]), (("range", 1), window),
                    (("equal", 5), [("Org 5 Inc",), ("ORG-5",)]),
                    (("order", 5), top)]

        recorder = Recorder()
        right = recorder.add("script", 0.01, rows=9,
                             detail=script(population, order))
        wrong = recorder.add("script", 0.01, rows=9,
                             detail=script(population + 1, order))
        unfilled = recorder.add("script", 0.01, rows=9,
                                detail=script(CNULL, order))
        misranked = recorder.add("script", 0.01, rows=9,
                                 detail=script(population, order[::-1]))
        workload.check_answers(recorder)
        self.assertFalse(right.failed)
        self.assertTrue(wrong.failed and unfilled.failed and misranked.failed)
        self.assertEqual(len(recorder.problems), 3)


if __name__ == "__main__":
    unittest.main()
