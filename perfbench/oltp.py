"""``oltp_durable``: one client running pgbench's TPC-B-like transaction
on a durable connection.

The operation mix is pgbench's built-in ``tpcb-like`` script (the
profile of TPC-B): update an account's balance by a random delta, read
it back, update a teller and a branch by the same delta, and append a
history row.  Each transaction is one measured operation; its five
statements run autocommitted with ``?`` parameters, because the engine
has no BEGIN/COMMIT.  Tables keep pgbench's shape (1 branch : 10 tellers)
at 4 branches, with 1,250 accounts per branch instead of 100,000.

Loads ``sql``, ``plan``, ``engine``, ``exec`` and ``storage`` (heap, key
index, statistics, WAL with ``wal_sync="commit"``, checkpoints); no crowd
or wire work.  The accounts table is large enough that a statement
scanning it costs visibly more than one using the primary-key index.

Each round also runs one grouped aggregate over the accounts, which
TPC-B does not have, and two operation types that fail on every attempt
because of known faults; both are counted in ``failed`` and their inputs
(``aid`` and ``bid``, which no statement changes) do not depend on the
seed:

``mod_negative``
    ``%`` is floored modulo in the interpreter, the compiled closures and
    the kernels; SQL and sqlite truncate (``-4 % 3 = -1``), so
    ``(aid - 2500) % 7 = -3`` matches none of the rows it should.
``group_by_expression``
    A grouped expression in the select list raises
    ``column 'bid' not found in scope``.
"""

from __future__ import annotations

import os
import random
import shutil
import sqlite3

from checkers import rows_match
from harness import Recorder, Workload, connection_counters

BRANCHES = 4
TELLERS = 10 * BRANCHES
ACCOUNTS = 1250 * BRANCHES
LOAD_BATCH = 100
#: pgbench's delta range
DELTA = 5000

TABLES = {
    "pgbench_accounts": ("aid", "bid", "abalance"),
    "pgbench_tellers": ("tid", "bid", "tbalance"),
    "pgbench_branches": ("bid", "bbalance"),
    "pgbench_history": ("tid", "bid", "aid", "delta", "mtime"),
}
CREATE = (
    "CREATE TABLE pgbench_accounts (aid INTEGER PRIMARY KEY, "
    "bid INTEGER, abalance INTEGER)",
    "CREATE TABLE pgbench_tellers (tid INTEGER PRIMARY KEY, "
    "bid INTEGER, tbalance INTEGER)",
    "CREATE TABLE pgbench_branches (bid INTEGER PRIMARY KEY, "
    "bbalance INTEGER)",
    # pgbench stamps mtime with CURRENT_TIMESTAMP; here it is the
    # transaction's sequence number, so the model can predict it
    "CREATE TABLE pgbench_history (tid INTEGER, bid INTEGER, aid INTEGER, "
    "delta INTEGER, mtime INTEGER)",
)
UPDATE_ACCOUNT = ("UPDATE pgbench_accounts SET abalance = abalance + ? "
                  "WHERE aid = ?")
SELECT_BALANCE = "SELECT abalance FROM pgbench_accounts WHERE aid = ?"
UPDATE_TELLER = ("UPDATE pgbench_tellers SET tbalance = tbalance + ? "
                 "WHERE tid = ?")
UPDATE_BRANCH = ("UPDATE pgbench_branches SET bbalance = bbalance + ? "
                 "WHERE bid = ?")
INSERT_HISTORY = ("INSERT INTO pgbench_history (tid, bid, aid, delta, "
                  "mtime) VALUES (?, ?, ?, ?, ?)")
AGGREGATE = ("SELECT bid, COUNT(*), SUM(abalance), MIN(abalance), "
             "MAX(abalance) FROM pgbench_accounts GROUP BY bid ORDER BY bid")
MOD_NEGATIVE = ("SELECT COUNT(*) FROM pgbench_accounts "
                "WHERE (aid - 2500) % 7 = -3")
GROUP_BY_EXPRESSION = ("SELECT bid + 1, COUNT(*) FROM pgbench_accounts "
                       "GROUP BY bid + 1")

#: one round: ten transactions, the aggregate, the two faulty probes
TRANSACTIONS_PER_ROUND = 10
PROBES = (("aggregate", AGGREGATE, True),
          ("mod_negative", MOD_NEGATIVE, True),
          ("group_by_expression", GROUP_BY_EXPRESSION, False))


def initial_tables() -> dict[str, list[tuple]]:
    """pgbench's initial data: every balance 0, accounts and tellers
    spread evenly over the branches."""
    return {
        "pgbench_accounts": [(aid, (aid - 1) // (ACCOUNTS // BRANCHES) + 1, 0)
                             for aid in range(1, ACCOUNTS + 1)],
        "pgbench_tellers": [(tid, (tid - 1) // (TELLERS // BRANCHES) + 1, 0)
                            for tid in range(1, TELLERS + 1)],
        "pgbench_branches": [(bid, 0) for bid in range(1, BRANCHES + 1)],
        "pgbench_history": [],
    }


def insert_sql(table: str, rows: int) -> str:
    columns = TABLES[table]
    marks = "(" + ", ".join("?" for _ in columns) + ")"
    return (f"INSERT INTO {table} ({', '.join(columns)}) VALUES "
            + ", ".join([marks] * rows))


class OltpDurable(Workload):
    name = "oltp_durable"
    expected_failures = ("mod_negative", "group_by_expression")
    latency_kinds = ("tpcb",)

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        self.rng = random.Random(seed)
        self.db = None
        self.path = ""
        self.transactions = 0

    def setup(self, index: int) -> None:
        from repro import connect

        self.path = os.path.join(self.workdir, f"oltp-{index}")
        # bulk load under wal_sync="batch" (an fsync per 64 records) and
        # close, which writes a checkpoint; a set-up of 5,000 per-row
        # fsyncs would time the host's disk more than the program
        loader = connect(with_crowd=False, path=self.path, wal_sync="batch")
        for statement in CREATE:
            loader.execute(statement)
        for table, rows in initial_tables().items():
            for start in range(0, len(rows), LOAD_BATCH):
                chunk = rows[start:start + LOAD_BATCH]
                loader.execute(insert_sql(table, len(chunk)),
                               [value for row in chunk for value in row])
        loader.close()
        # then reopen, recovering from that checkpoint, under the default
        # flush policy wal_sync="commit" that the measured statements
        # use: every record flushed and fsynced before it returns
        self.db = connect(with_crowd=False, path=self.path)

    def teardown(self) -> None:
        if self.db is not None:
            self.db.close()
            self.db = None
        shutil.rmtree(self.path, ignore_errors=True)

    def _transaction(self, aid: int, tid: int, bid: int, delta: int,
                     mtime: int) -> tuple:
        """pgbench's tpcb-like script; returns what each statement
        reported, for the checkers."""
        execute = self.db.execute
        return (
            execute(UPDATE_ACCOUNT, (delta, aid)).rowcount,
            execute(SELECT_BALANCE, (aid,)).rows,
            execute(UPDATE_TELLER, (delta, tid)).rowcount,
            execute(UPDATE_BRANCH, (delta, bid)).rowcount,
            execute(INSERT_HISTORY, (tid, bid, aid, delta, mtime)).rowcount,
        )

    def run_round(self, number: int, recorder: Recorder) -> None:
        rng = self.rng
        for _ in range(TRANSACTIONS_PER_ROUND):
            self.transactions += 1
            args = (rng.randint(1, ACCOUNTS), rng.randint(1, TELLERS),
                    rng.randint(1, BRANCHES), rng.randint(-DELTA, DELTA),
                    self.transactions)
            recorder.timed("tpcb", lambda: self._transaction(*args),
                           lambda r: 1 + len(r[1]) + r[2] + r[3] + r[4],
                           lambda r, args=args: (args, r))
        db = self.db
        for kind, sql, _ordered in PROBES:
            recorder.timed(kind, lambda: db.execute(sql),
                           lambda r: len(r.rows), lambda r: r.rows)

    def verify(self, recorder: Recorder) -> None:
        """Check every output, then prove every acknowledged write
        survives a restart."""
        self._verify_recovery(recorder, self.check_outputs(recorder))

    def check_outputs(self, recorder: Recorder) -> dict:
        """Replay the recorded operations against a dict model of the
        tables (transactions) and sqlite fed the same account writes
        (aggregates and probes); returns the model's final tables."""
        tables = initial_tables()
        accounts = {row[0]: list(row) for row in tables["pgbench_accounts"]}
        tellers = {row[0]: list(row) for row in tables["pgbench_tellers"]}
        branches = {row[0]: list(row) for row in tables["pgbench_branches"]}
        history = []
        mirror = sqlite3.connect(":memory:")
        mirror.execute(CREATE[0])
        mirror.executemany(insert_sql("pgbench_accounts", 1),
                           tables["pgbench_accounts"])
        expected_sql = {kind: sql for kind, sql, _ordered in PROBES}
        ordered = {kind: flag for kind, _sql, flag in PROBES}
        for op in recorder.ops:
            if op.failed:
                continue
            if op.kind == "tpcb":
                (aid, tid, bid, delta, mtime), reported = op.detail
                accounts[aid][2] += delta
                tellers[tid][2] += delta
                branches[bid][1] += delta
                history.append((tid, bid, aid, delta, mtime))
                mirror.execute(UPDATE_ACCOUNT, (delta, aid))
                problem = rows_match(reported[1], [(accounts[aid][2],)],
                                     ordered=True)
                counts = (reported[0],) + reported[2:]
                if problem is None and counts != (1, 1, 1, 1):
                    problem = f"rowcounts {counts}"
            else:
                problem = rows_match(
                    op.detail,
                    mirror.execute(expected_sql[op.kind]).fetchall(),
                    ordered[op.kind])
            if problem:
                recorder.fail(op, problem)
        mirror.close()
        return {
            "pgbench_accounts": [tuple(row) for row in accounts.values()],
            "pgbench_tellers": [tuple(row) for row in tellers.values()],
            "pgbench_branches": [tuple(row) for row in branches.values()],
            "pgbench_history": history,
        }

    def _verify_recovery(self, recorder: Recorder, model: dict) -> None:
        """Open a copy of the directory as it is on disk now, without the
        clean shutdown's final checkpoint, like a restart after a crash:
        only bytes already flushed reach the copy."""
        from repro import connect

        copy = self.path + "-recovered"
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(self.path, copy)
        try:
            recovered = connect(with_crowd=False, path=copy)
            try:
                found = {table: recovered.query(
                    f"SELECT {', '.join(columns)} FROM {table}")
                    for table, columns in TABLES.items()}
            finally:
                recovered.close()
        finally:
            shutil.rmtree(copy, ignore_errors=True)
        for table, rows in found.items():
            problem = rows_match(rows, model[table], ordered=False)
            if problem:
                recorder.problems.append(f"recovered {table}: {problem}")

    def counters(self) -> dict[str, float]:
        return connection_counters(self.db)
