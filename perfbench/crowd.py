"""``crowd_server``: eight sessions on one in-process ``Server``, fed
closed-loop from one thread.

Each session runs a CrowdSQL script per round, one statement for each
crowd operator: a CrowdProbe fill of a CROWD column by key, a fill over a
range window, CROWDEQUAL and ``ORDER BY CROWDORDER ... LIMIT``.  The
script is the measured operation.  The composition is synthetic: one of
each operator, none weighted.

Neighbouring sessions overlap (fill keys and groups), so the shared task
pool can deduplicate.  Workers are a seeded, near-perfect simulated
population, so every answer must equal the oracle's ground truth.  Loads
``crowd`` (task manager), ``crowd/sim`` and ``server``; no storage
durability or wire work.
"""

from __future__ import annotations

import os
import random
import time

from checkers import CrowdNullInResult, normalize_rows
from harness import Recorder, Workload, connection_counters

SESSIONS = 8
CITIES = 8000
GROUPS = 1000
QUESTION = "Which picture is better?"
PICTURES_PER_GROUP = 4
TOP = 2
LOAD_BATCH = 100
#: assignments per HIT.  Simulated workers answer wrong with probability
#: at least 0.005 however skilled they are; with 7 votes a wrong majority
#: needs 4 wrong answers (about 2e-8 per task), so every answer of a run
#: can be held to the oracle's ground truth
REPLICATION = 7
REWARD_CENTS = 8
#: rounds per episode.  Every episode sets up afresh and runs exactly
#: these rounds, so every run and every version of the program buys the
#: same crowd work per episode, and a faster program does not post more
#: HITs into one marketplace and slow its own later rounds
EPISODE_ROUNDS = 3
#: worker populations, one per episode in turn: the first eight seeds of
#: ``generate_population``, the same in every run, like the machine the
#: run is on; ``--seed`` varies the data, the questions and the
#: marketplace's random stream.  The simulator draws worker activity
#: from a heavy tail, and about one draw in twenty has a single worker
#: with over half of all activity, who may take each HIT only once; a
#: run holding such a draw had a 97th-percentile script of 1.4 s against
#: about 0.5 s.  Populations drawn from the run's seed, eight per run,
#: spread ten runs by 0.20-0.23, so the set is fixed instead.  Its top
#: workers hold 3-32 % of activity (median 7.5 %; median 9 % over the
#: first forty seeds)
POPULATIONS = 8

DDL = (
    "CREATE TABLE City (name STRING PRIMARY KEY, region INTEGER, "
    "population CROWD INTEGER)",
    "CREATE TABLE Company (name STRING PRIMARY KEY, grp INTEGER)",
    "CREATE TABLE Picture (name STRING PRIMARY KEY, grp INTEGER)",
)


def city(index: int) -> str:
    return f"c{index % CITIES:05d}"


def company_rows(group: int) -> list[tuple[str, int]]:
    """Two spellings of entity ``Org<group>`` and a neighbour entity."""
    return [(f"Org {group} Inc", group), (f"ORG-{group}", group),
            (f"Org{(group + 1) % GROUPS}", group)]


class CrowdServer(Workload):
    name = "crowd_server"
    latency_kinds = ("script",)
    episode_rounds = EPISODE_ROUNDS
    episodes_per_cycle = POPULATIONS

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        rng = random.Random(seed)
        self.truth = {city(i): rng.randrange(1000, 10**6)
                      for i in range(CITIES)}
        self.scores = {
            f"pic{g}_{j}": rng.random()
            for g in range(GROUPS) for j in range(PICTURES_PER_GROUP)
        }
        self.platform = None
        self.server = None
        self.sessions = []
        # population index -> crowd figures of its first episode
        self.figures: dict[int, dict] = {}
        self.population = 0

    def setup(self, index: int) -> None:
        # the scheduler runs one session at a time and hands a baton
        # between nine threads; on one CPU those hand-offs cost the same
        # in every run instead of depending on where each thread wakes
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        from repro import CrowdConfig, connect
        from repro.crowd.model import reset_id_counters
        from repro.crowd.sim.amt import SimulatedAMT
        from repro.crowd.sim.behavior import BehaviorConfig
        from repro.crowd.sim.population import generate_population
        from repro.crowd.sim.traces import GroundTruthOracle
        from repro.server import Server

        reset_id_counters()
        self.population = index % POPULATIONS
        crowd_seed = self.seed * POPULATIONS + self.population
        oracle = GroundTruthOracle()
        for name, population in self.truth.items():
            oracle.load_fill("City", (name,), {"population": population})
        for group in range(GROUPS):
            oracle.declare_same_entity(f"Org{group}", f"Org {group} Inc",
                                       f"ORG-{group}")
        oracle.load_ranking(QUESTION, self.scores)
        workers = generate_population(200, seed=self.population,
                                      skill_range=(0.995, 1.0),
                                      id_prefix="amt-")
        self.platform = SimulatedAMT(
            oracle, workers=workers, seed=crowd_seed,
            config=BehaviorConfig(base_accuracy=0.999))
        db = connect(oracle=oracle, seed=crowd_seed,
                     platforms=(self.platform,), default_platform="amt",
                     crowd_config=CrowdConfig(replication=REPLICATION,
                                               reward_cents=REWARD_CENTS))
        for statement in DDL:
            db.execute(statement)
        names = list(self.truth)
        batch = "INSERT INTO City (name, region) VALUES " + ", ".join(
            ["(?, ?)"] * LOAD_BATCH)
        for start in range(0, CITIES, LOAD_BATCH):
            db.execute(batch, [value for i in range(start, start + LOAD_BATCH)
                               for value in (names[i], i // 4)])
        companies = "INSERT INTO Company (name, grp) VALUES " + ", ".join(
            ["(?, ?)"] * len(company_rows(0)))
        pictures = "INSERT INTO Picture (name, grp) VALUES " + ", ".join(
            ["(?, ?)"] * PICTURES_PER_GROUP)
        for group in range(GROUPS):
            db.execute(companies, [value for row in company_rows(group)
                                   for value in row])
            db.execute(pictures, [
                value for j in range(PICTURES_PER_GROUP)
                for value in (f"pic{group}_{j}", group)])
        self.server = Server(connection=db)
        self.sessions = [self.server.open_session() for _ in range(SESSIONS)]

    def teardown(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None
            self.sessions = []

    def _script(self, number: int, slot: int) -> list[tuple[str, tuple]]:
        """Session ``slot``'s statements in round ``number``: (sql, what
        verify() compares against).  The key a session fills lies in the
        window its neighbour fills, and sessions pair up on groups."""
        index = number * SESSIONS + slot
        base = index * 4
        group = (index // 2) % GROUPS
        region = index + 1
        return [
            (f"SELECT population FROM City WHERE name = '{city(base)}'",
             ("key", city(base))),
            (f"SELECT name, population FROM City WHERE region = {region}",
             ("range", region)),
            (f"SELECT name FROM Company WHERE grp = {group} "
             f"AND CROWDEQUAL(name, 'Org{group}')",
             ("equal", group)),
            (f"SELECT name FROM Picture WHERE grp = {group} "
             f"ORDER BY CROWDORDER(name, '{QUESTION}') LIMIT {TOP}",
             ("order", group)),
        ]

    def run_round(self, number: int, recorder: Recorder) -> None:
        """Each session runs its script one statement at a time: the next
        is submitted when the previous one's result appears.  A script's
        latency runs from its first submission to its last result."""
        server = self.server
        tracer = recorder.tracer
        queues = {s.session_id: self._script(number, slot)
                  for slot, s in enumerate(self.sessions)}
        # session id -> [check and rows per statement, results seen,
        #                first submission, error]
        pending = {}

        def submit(session) -> None:
            sql, check = queues[session.session_id].pop(0)
            entry = pending[session.session_id]
            entry[0].append([check, None])
            entry[1] = len(session.results)
            session.submit(sql)

        for session in self.sessions:
            if tracer is not None:
                tracer.bind_session(session.session_id,
                                    tracer.new_statement())
            pending[session.session_id] = [[], 0, time.perf_counter(), None]
            submit(session)
        while pending:
            server.scheduler.step(self.sessions, server.admission)
            now = time.perf_counter()
            for session in self.sessions:
                entry = pending.get(session.session_id)
                if entry is None or len(session.results) <= entry[1]:
                    continue
                result = session.results[-1]
                if isinstance(result, Exception):
                    entry[3] = result
                else:
                    entry[0][-1][1] = result.rows
                if queues[session.session_id] and entry[3] is None:
                    submit(session)
                    continue
                statements, _seen, submitted, error = pending.pop(
                    session.session_id)
                if error is not None:
                    recorder.add("script", now - submitted, True, 0,
                                 repr(error))
                    recorder.problems.append(f"script raised {error!r}")
                else:
                    recorder.add("script", now - submitted, False,
                                 sum(len(rows) for _check, rows in statements),
                                 statements)

    def episode_done(self, recorder: Recorder) -> None:
        """The crowd invariants over everything the episode bought; every
        episode must buy exactly what the first one with the same
        population did."""
        recorder.problems.extend(self._invariant_violations())
        figures = self._figures()
        first = self.figures.setdefault(self.population, figures)
        if figures != first:
            recorder.problems.append(
                f"episode bought {figures}, the first one with population "
                f"{self.population} bought {first}")

    def _figures(self) -> dict[str, float]:
        stats = self.server.connection.task_manager.stats
        return {
            "makespan_sim_s": self.server.simulated_seconds(),
            "cents": stats.cost_cents,
            "assignments": stats.assignments_received,
            "hits": stats.hits_posted,
        }

    def crowd_figures(self) -> dict[str, float]:
        """Summed over one episode of each population."""
        total = super().crowd_figures()
        for figures in self.figures.values():
            for name, value in figures.items():
                total[name] += value
        return total

    def verify(self, recorder: Recorder) -> None:
        """Every answer against the oracle's ground truth; the invariants
        were checked at the end of each episode."""
        self.check_answers(recorder)

    def check_answers(self, recorder: Recorder) -> None:
        for op in recorder.ops:
            if op.failed:
                continue
            for check, rows in op.detail:
                problem = self._answer_problem(check, rows)
                if problem:
                    recorder.fail(op, problem)
                    break

    def _answer_problem(self, check: tuple, rows: list) -> str:
        what, arg = check
        try:
            rows = normalize_rows(rows, ordered=what == "order")
        except CrowdNullInResult as error:
            return str(error)
        if what == "key":
            expected = [(self.truth[arg],)]
        elif what == "range":
            expected = sorted((city(i), self.truth[city(i)])
                              for i in range(arg * 4, arg * 4 + 4))
        elif what == "equal":
            expected = sorted([(f"ORG-{arg}",), (f"Org {arg} Inc",)])
        else:
            ranked = sorted(
                (f"pic{arg}_{j}" for j in range(PICTURES_PER_GROUP)),
                key=lambda name: -self.scores[name])
            expected = [(name,) for name in ranked[:TOP]]
        if rows != expected:
            return f"{what} {arg}: {rows!r} != {expected!r}"
        return ""

    def _invariant_violations(self) -> list[str]:
        problems = []
        filled: dict[tuple, str] = {}
        for hit in self.platform.all_hits():
            workers = [a.worker_id for a in hit.assignments]
            if len(workers) != len(set(workers)):
                problems.append(f"{hit.hit_id}: a worker was paid twice")
            task = hit.task
            for sub in getattr(task, "subtasks", (task,)):
                if type(sub).__name__ != "FillTask":
                    continue
                for column in sub.columns:
                    key = (sub.table.lower(), tuple(sub.primary_key),
                           column.lower())
                    if key in filled:
                        problems.append(
                            f"fill {key} bought in {filled[key]} and "
                            f"{hit.hit_id}")
                    filled[key] = hit.hit_id
        paid = self.server.connection.task_manager.stats.cost_cents
        if paid != self.platform.total_cost_cents:
            problems.append(f"task manager paid {paid} cents, platform "
                            f"charged {self.platform.total_cost_cents}")
        return problems

    def counters(self) -> dict[str, float]:
        return connection_counters(self.server.connection, self.server)
