"""``wire_tcp``: two client threads over ``serve_tcp``/``connect_tcp``
against an in-memory server, running YCSB's core workload E.

Workload E ("short ranges") is 95 % scans and 5 % inserts.  As in YCSB,
a scan starts at a key drawn from a scrambled Zipfian distribution
(constant 0.99) and covers a length drawn uniformly from 1 to 100 rows;
records are smaller than YCSB's ten 100-byte fields.  The wire protocol
has no parameters, so statements carry inline literals.  Inserts go to a
key range of their own per client, so a scan's expected rows do not
depend on how the two clients interleave.

Loads ``net`` (framing, per-row JSON, the thread hops between the
asyncio loop, the engine pump and the session); an optimisation of
``net`` should move only this workload.
"""

from __future__ import annotations

import bisect
import itertools
import random
from concurrent.futures import ThreadPoolExecutor

from checkers import rows_match
from harness import Recorder, Workload, connection_counters

CLIENTS = 2
ROWS = 20000
MAX_SCAN = 100
ZIPFIAN_CONSTANT = 0.99
LOAD_BATCH = 200
INSERTED_BASE = 1_000_000

CREATE = ("CREATE TABLE kv (id INTEGER PRIMARY KEY, grp INTEGER, "
          "val STRING, score INTEGER)")
#: one client round: YCSB-E's 95 % scans, 5 % inserts
ROUND = "S" * 19 + "I"
#: the first scan key a Zipfian rank maps to; a scan never passes ROWS
STARTS = ROWS - MAX_SCAN + 1


def fnv_hash(value: int) -> int:
    """YCSB's 64-bit FNV-1a hash of a long, used to scramble ranks."""
    digest = 0xCBF29CE484222325
    for _ in range(8):
        digest ^= value & 0xFF
        digest = (digest * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
        value >>= 8
    return digest


class WireTcp(Workload):
    name = "wire_tcp"
    latency_kinds = ("scan",)

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        rng = random.Random(seed)
        self.initial = [(i, i // MAX_SCAN, f"v{rng.randrange(10**9)}",
                         rng.randrange(10_000)) for i in range(ROWS)]
        self.rngs = [random.Random(seed * 1000 + client)
                     for client in range(CLIENTS)]
        self.zipf = list(itertools.accumulate(
            1.0 / (rank + 1) ** ZIPFIAN_CONSTANT for rank in range(STARTS)))
        self.inserted = [0] * CLIENTS
        self.db = None
        self.network = None
        self.clients = []
        self.pool = None

    def scan_start(self, rng: random.Random) -> int:
        rank = bisect.bisect_left(self.zipf, rng.random() * self.zipf[-1])
        return fnv_hash(min(rank, STARTS - 1)) % STARTS

    def setup(self, index: int) -> None:
        """Load the table; the server and its clients start untimed."""
        from repro import connect

        self.db = connect(with_crowd=False)
        self.db.execute(CREATE)
        batch = "INSERT INTO kv (id, grp, val, score) VALUES " + ", ".join(
            ["(?, ?, ?, ?)"] * LOAD_BATCH)
        for start in range(0, ROWS, LOAD_BATCH):
            chunk = self.initial[start:start + LOAD_BATCH]
            self.db.execute(batch, [value for row in chunk for value in row])

    def start(self) -> None:
        from repro.net.client import connect_tcp
        from repro.net.server import serve_tcp
        from repro.server import Server

        self.network = serve_tcp(server=Server(connection=self.db))
        self.clients = [connect_tcp("127.0.0.1", self.network.port)
                        for _ in range(CLIENTS)]
        self.pool = ThreadPoolExecutor(max_workers=CLIENTS,
                                       thread_name_prefix="perfbench-client")

    def teardown(self) -> None:
        if self.pool is not None:
            self.pool.shutdown(wait=True)
            self.pool = None
        for client in self.clients:
            client.close()
        self.clients = []
        if self.network is not None:
            self.network.close()
            self.network.server.close()
            self.network = None
        self.db = None

    def run_round(self, number: int, recorder: Recorder) -> None:
        """Both clients run one round concurrently; the round ends when
        both are done."""
        futures = [self.pool.submit(self._client_round, client, recorder)
                   for client in range(CLIENTS)]
        for future in futures:
            future.result()

    def _client_round(self, client: int, recorder: Recorder) -> None:
        connection = self.clients[client]
        rng = self.rngs[client]
        for code in ROUND:
            if code == "S":
                low = self.scan_start(rng)
                high = low + rng.randint(1, MAX_SCAN) - 1
                sql = (f"SELECT id, val, score FROM kv WHERE id BETWEEN "
                       f"{low} AND {high}")
                kind, check = "scan", (low, high)
            else:
                self.inserted[client] += 1
                row = (INSERTED_BASE * (client + 1) + self.inserted[client],
                       -1, f"w{client}-{self.inserted[client]}",
                       rng.randrange(10_000))
                sql = ("INSERT INTO kv (id, grp, val, score) VALUES "
                       f"({row[0]}, {row[1]}, '{row[2]}', {row[3]})")
                kind, check = "insert", row
            recorder.timed(kind, lambda: connection.execute(sql),
                           lambda r: len(r.rows) if r.rows else r.rowcount,
                           lambda r, check=check: (check, r.rows,
                                                   r.rowcount))

    def verify(self, recorder: Recorder) -> None:
        """Every scan against the loaded rows, every insert's row count;
        the scanned range never holds inserted keys."""
        for op in recorder.ops:
            if op.failed:
                continue
            check, rows, count = op.detail
            if op.kind == "insert":
                problem = None if count == 1 else f"rowcount {count}"
            else:
                low, high = check
                expected = [(key, self.initial[key][2], self.initial[key][3])
                            for key in range(low, high + 1)]
                problem = rows_match(rows, expected, ordered=False)
            if problem:
                recorder.fail(op, problem)

    def counters(self) -> dict[str, float]:
        server = self.network.server
        return connection_counters(server.connection, server)
