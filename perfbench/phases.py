"""Set-up and the three measured loops: regeneration, interaction, serving.

Every loop times each operation from the outside, counts what it attempted
and what failed, and keeps its correctness checks out of the timed region.
Latencies are taken at reference machine speed (see ``speed.py``); a failed
operation's is raised to its deadline, so failures count as missing any
latency limit.
"""

from __future__ import annotations

import math
import os
import random
import threading
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.datasets import (
    load_covid_catalog,
    load_sdss_catalog,
    load_sp500_catalog,
    sdss_extended_query_log,
    sp500_query_log,
)
from repro.engine.options import ExecOptions
from repro.errors import ReproError
from repro.interface.state import InterfaceState
from repro.notebook import NotebookSession, Pi2Extension
from repro.pipeline import PipelineConfig, generate_interface
from repro.serving.service import InterfaceService, ServiceConfig

from scenarios import (
    REGEN_SCENARIOS,
    SCENARIO_DATASET,
    EventSource,
    covid_batch,
    covid_v3_log,
    interface_reads,
    maintainable_reads,
    regen_log,
)

LOADERS = {"covid": load_covid_catalog, "sdss": load_sdss_catalog, "sp500": load_sp500_catalog}

#: Interfaces the interaction loop drives: (dataset, query log).
INTERACT_INTERFACES = (
    ("covid", covid_v3_log),
    ("sdss", sdss_extended_query_log),
    ("sp500", sp500_query_log),
)

#: Share of events / reads whose results are re-checked against uncached execution.
CHECK_SHARE = 0.02

GENERATE_DEADLINE_MS = 60_000.0
EVENT_DEADLINE_MS = 1_000.0
SERVE_DEADLINE_MS = 1_000.0

#: Serving: analyst sessions; the first SERVE_WRITERS append, the rest read.
SERVE_SESSIONS = 16
SERVE_WRITERS = 2
#: Nominal open-loop arrival rate (requests/s) and the write share of arrivals.
#: A shared 2-vCPU host runs up to ~3x slower than its fast state for
#: seconds at a time; 30/s keeps the service lightly loaded even then, so
#: queueing - which grows faster than the slowdown - stays a small part of
#: the median read.  At 60/s the read median spread 0.23 over five seeds.
SERVE_RATE = 30.0
SERVE_WRITE_SHARE = 0.10
#: Read pool: SQL of the covid interface under bindings drawn from a fixed
#: seed, plus aggregates incremental maintenance folds forward across
#: appends.  The pool is the same in every run, like the queries a deployed
#: dashboard issues; the run's seed draws the traffic from it.
SERVE_INTERFACE_EVENTS = 60
SERVE_MAINTAINABLE_READS = 16


def percentile(values: list[float], fraction: float) -> float:
    """Linearly interpolated percentile of a non-empty sample."""
    ordered = sorted(values)
    position = fraction * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def bag(result) -> Counter:
    """Rows of a query result as a multiset (floats rounded to 9 places)."""
    return Counter(
        tuple(round(value, 9) if isinstance(value, float) else value for value in row)
        for row in result.rows
    )


@dataclass
class PhaseReport:
    """What one loop attempted, when each operation ran, what it checked."""

    name: str
    deadline_ms: float
    attempted: int = 0
    failed: int = 0
    #: (start, end, ok, kind) of each operation, in ``time.perf_counter`` seconds.
    timings: list[tuple[float, float, bool, str]] = field(default_factory=list)
    checks: int = 0
    check_failures: list[str] = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def record(self, started: float, ended: float, ok: bool, kind: str = "op") -> None:
        self.attempted += 1
        self.failed += not ok
        self.timings.append((started, ended, ok, kind))

    def latencies_ms(self, speed, kind: str | None = None) -> list[float]:
        """Each operation's latency at reference speed, failures at least the deadline."""
        return [
            speed.scaled_ms(start, end) if ok else max(speed.scaled_ms(start, end), self.deadline_ms)
            for start, end, ok, op_kind in self.timings
            if kind in (None, op_kind)
        ]

    def check(self, passed: bool, what: str) -> None:
        self.checks += 1
        if not passed:
            self.check_failures.append(what)


# --------------------------------------------------------------------------- #
# Set-up
# --------------------------------------------------------------------------- #


@dataclass
class LiveInterface:
    name: str
    catalog: object
    state: InterfaceState
    events: EventSource


@dataclass
class Fixture:
    """Everything the loops run against, built by :func:`build_fixture`."""

    regen_catalogs: dict
    interact: list[LiveInterface]
    service: InterfaceService
    serve_catalog: object
    readers: list
    writers: list
    read_pool: list[str]

    def catalogs(self) -> list:
        return [
            *self.regen_catalogs.values(),
            *(live.catalog for live in self.interact),
            self.serve_catalog,
        ]

    def close(self) -> None:
        self.service.shutdown(wait=True)


def build_fixture(seed: int) -> Fixture:
    """Load catalogs, pre-generate interfaces, start the service, warm up.

    Warm-up runs each lazy first-call path once (a two-cell generation per
    regeneration scenario, a refresh and one event per live interface, every
    serving read once), so the loops time steady-state operations.
    """
    rng = random.Random(f"{seed}:setup")
    regen_catalogs = {name: loader() for name, loader in LOADERS.items()}
    for scenario in REGEN_SCENARIOS:
        log = regen_log(scenario, random.Random(f"warm:{scenario}"))[:2]
        generate_interface(log, regen_catalogs[SCENARIO_DATASET[scenario]], PipelineConfig())

    interact = []
    covid_interface = None
    for name, log in INTERACT_INTERFACES:
        catalog = LOADERS[name]()
        result = generate_interface(log(), catalog, PipelineConfig(name=name))
        state = result.start_session(catalog)
        state.refresh_all()
        events = EventSource(state)
        events.draw(rng).apply(state)
        state.refresh_all()
        interact.append(LiveInterface(name, catalog, state, events))
        if name == "covid":
            covid_interface = result.interface

    serve_catalog = load_covid_catalog()
    pool_rng = random.Random("serve-pool")
    read_pool = interface_reads(
        InterfaceState(covid_interface, serve_catalog), pool_rng, SERVE_INTERFACE_EVENTS
    ) + maintainable_reads(pool_rng, SERVE_MAINTAINABLE_READS)
    service = InterfaceService(
        serve_catalog,
        ServiceConfig(
            max_workers=os.cpu_count() or 1, profile_workers=0, max_sessions=SERVE_SESSIONS
        ),
    )
    sessions = [service.create_session(f"analyst-{i}") for i in range(SERVE_SESSIONS)]
    for sql in read_pool:
        service.execute(sessions[0].session_id, sql)
    return Fixture(
        regen_catalogs=regen_catalogs,
        interact=interact,
        service=service,
        serve_catalog=serve_catalog,
        readers=sessions[SERVE_WRITERS:],
        writers=sessions[:SERVE_WRITERS],
        read_pool=read_pool,
    )


# --------------------------------------------------------------------------- #
# The loops.  Each runs in slices (``step``) so that the benchmark can
# interleave them and every loop sees the same stretches of machine time;
# ``finish`` runs the end-of-run checks and returns the loop's report.
# --------------------------------------------------------------------------- #


@contextmanager
def untimed(tracer):
    """Attribute spans recorded by correctness checks to a ``checks`` phase."""
    if tracer is None:
        yield
        return
    phase, tracer.phase = tracer.phase, "checks"
    try:
        yield
    finally:
        tracer.phase = phase


def missing_queries(result) -> int:
    """Log queries the generated interface cannot express."""
    return sum(tree.queries_missing for tree in result.cost.per_tree)


class RegenLoop:
    """Notebook sessions, one per scenario per cycle.

    A session ticks its cells one at a time and clicks Generate after each
    tick, so every request but a session's first extends the previous log.
    The seed perturbs each session's literals.  A request's search seed is its
    tick number and every cycle runs the scenarios in the same order, so the
    amount of search and the cache state each request meets do not depend on
    the run's seed.
    """

    def __init__(self, fixture: Fixture, rng: random.Random, cycles: int, tracer=None) -> None:
        self.fixture = fixture
        self.rng = rng
        self.tracer = tracer
        self.sessions = [
            (scenario, regen_log(scenario, rng))
            for _ in range(cycles)
            for scenario in REGEN_SCENARIOS
        ]
        self.report = PhaseReport("regen", GENERATE_DEADLINE_MS)
        self.costs: list[float] = []
        self.extends = 0
        self.requests: list[tuple] = []
        self.previous: list[str] = []

    def step(self, index: int) -> None:
        """Run planned session ``index``."""
        scenario, cells = self.sessions[index]
        catalog = self.fixture.regen_catalogs[SCENARIO_DATASET[scenario]]
        session = NotebookSession(catalog=catalog)
        cell_ids = [cell.cell_id for cell in session.add_cells(cells)]
        extension = Pi2Extension(session=session)
        for ticked in range(1, len(cell_ids) + 1):
            config = PipelineConfig(seed=ticked)
            t0 = time.perf_counter()
            try:
                version = extension.generate_interface(cell_ids[:ticked], config)
                ok = True
            except ReproError:
                ok = False
            self.report.record(t0, time.perf_counter(), ok)
            if ok:
                with untimed(self.tracer):
                    self._check(scenario, catalog, config, version)

    def _check(self, scenario, catalog, config, version) -> None:
        log = list(version.query_snapshot)
        previous = self.previous
        self.extends += len(previous) < len(log) and log[: len(previous)] == previous
        self.previous = log
        result = version.result
        self.costs.append(result.total_cost)
        missing = missing_queries(result)
        self.report.check(missing == 0, f"{scenario}: {missing} queries uncovered")
        try:
            result.interface.validate()
            self.report.check(True, "")
        except ReproError as exc:
            self.report.check(False, f"{scenario}: invalid interface: {exc}")
        self.requests.append((catalog, log, config, result.interface.fingerprint()))

    def finish(self) -> PhaseReport:
        if self.requests:
            with untimed(self.tracer):
                # Regenerating a sampled (log, seed) must give the same interface.
                catalog, log, config, fingerprint = self.rng.choice(self.requests)
                again = generate_interface(log, catalog, config).interface.fingerprint()
            self.report.check(again == fingerprint, "repeated (log, seed) changed the interface")
        self.report.extra = {
            "costs": self.costs,
            "extends_share": self.extends / max(1, len(self.requests)),
        }
        return self.report


def check_live_data(live: LiveInterface) -> bool:
    """Every chart's data bag-equals an uncached execution of its current SQL."""
    uncached = ExecOptions(use_cache=False)
    for vis in live.state.interface.visualizations:
        expected = live.catalog.execute(live.state.current_sql(vis.tree_index), uncached)
        if bag(live.state.data_for(vis.vis_id)) != bag(expected):
            return False
    return True


class InteractLoop:
    """Events round-robin over the live interfaces, each followed by a refresh."""

    def __init__(self, fixture: Fixture, rng: random.Random, tracer=None) -> None:
        self.fixture = fixture
        self.rng = rng
        self.tracer = tracer
        self.report = PhaseReport("interact", EVENT_DEADLINE_MS)
        self.events = 0
        # continuous? -> [events answered from the result cache, events]
        self.answered = {False: [0, 0], True: [0, 0]}

    def step(self, seconds: float) -> None:
        report = self.report
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            live = self.fixture.interact[self.events % len(self.fixture.interact)]
            self.events += 1
            event = live.events.draw(self.rng)
            sample = self.rng.random() < CHECK_SHARE
            stats = live.catalog.query_cache.stats
            misses_before = stats.misses
            t0 = time.perf_counter()
            try:
                event.apply(live.state)
                live.state.refresh_all()
                ok = True
            except ReproError:
                ok = False
            report.record(t0, time.perf_counter(), ok)
            tally = self.answered[event.continuous]
            tally[0] += ok and stats.misses == misses_before
            tally[1] += 1
            if sample and ok:
                with untimed(self.tracer):
                    report.check(check_live_data(live), f"{live.name}: data differs after {event}")

    def finish(self) -> PhaseReport:
        discrete, continuous = self.answered[False], self.answered[True]
        self.report.extra = {
            "cached_share_discrete": discrete[0] / max(1, discrete[1]),
            "cached_share_continuous": continuous[0] / max(1, continuous[1]),
        }
        return self.report


@dataclass
class Request:
    due: float  # seconds on the serving clock
    write: bool
    session: int
    payload: object  # SQL string (read) or rows (write)
    sample: bool = False
    wall_due: float = 0.0
    end: float | None = None
    ok: bool = False
    snapshot: object = None
    result: object = None


class ServeLoop:
    """Open-loop reads and appends from one generator thread.

    Arrivals are Poisson at :data:`SERVE_RATE`, precomputed from the seed over
    the loop's whole serving time.  A slice replays the arrivals due within
    it, each submitted at its due time, then waits for them to finish.  A
    reader first refreshes its session to the newest version unless one of
    its reads is still in flight (so every read runs on the snapshot pinned
    when it was submitted); a write is done once its rows are appended and
    the writer's session has refreshed.  Latency runs from the due time.
    """

    def __init__(self, fixture: Fixture, rng: random.Random, seconds: float, tracer=None) -> None:
        self.fixture = fixture
        self.tracer = tracer
        self.schedule: list[Request] = []
        due = rng.expovariate(SERVE_RATE)
        while due < seconds:
            if rng.random() < SERVE_WRITE_SHARE:
                request = Request(due, True, rng.randrange(SERVE_WRITERS), covid_batch(rng))
            else:
                request = Request(
                    due,
                    False,
                    rng.randrange(len(fixture.readers)),
                    rng.choice(fixture.read_pool),
                    sample=rng.random() < CHECK_SHARE,
                )
            self.schedule.append(request)
            due += rng.expovariate(SERVE_RATE)
        self.clock = 0.0
        self.cursor = 0
        self.lags_ms: list[float] = []
        self.acked_rows = 0
        self.inflight = [0] * len(fixture.readers)
        self.lock = threading.Lock()
        self.options = ExecOptions(deadline_ms=SERVE_DEADLINE_MS)
        catalog = fixture.serve_catalog
        self.initial_rows = self._row_count()
        self.folds_before = catalog.query_cache.stats.ivm_folds
        self.service_before = fixture.service.stats_snapshot()

    def _row_count(self) -> int:
        result = self.fixture.serve_catalog.execute(
            "SELECT count(*) AS n FROM covid_cases", ExecOptions(use_cache=False)
        )
        return result.rows[0][0]

    # Done-callbacks run on worker threads; ``end`` is set last, so a
    # request with an end time is fully recorded.
    def _read_done(self, request: Request, future) -> None:
        ended = time.perf_counter()
        with self.lock:
            self.inflight[request.session] -= 1
        if future.exception() is None:
            request.result = future.result()
            request.ok = True
        request.end = ended

    def _write_done(self, request: Request, future) -> None:
        try:
            if future.exception() is None:
                with self.lock:
                    self.acked_rows += future.result()
                self.fixture.writers[request.session].refresh()
                request.ok = True
        finally:
            request.end = time.perf_counter()

    def _submit(self, request: Request):
        service = self.fixture.service
        if request.write:
            future = service.submit_ingest("covid_cases", request.payload)
            future.add_done_callback(lambda f: self._write_done(request, f))
            return future
        session = self.fixture.readers[request.session]
        with self.lock:
            idle = self.inflight[request.session] == 0
            self.inflight[request.session] += 1
        try:
            if idle:
                session.refresh()
            request.snapshot = session.snapshot
            future = service.submit_execute(session.session_id, request.payload, self.options)
        except BaseException:
            with self.lock:
                self.inflight[request.session] -= 1
            raise
        future.add_done_callback(lambda f: self._read_done(request, f))
        return future

    def step(self, seconds: float) -> None:
        """Replay the arrivals due in the next ``seconds`` of serving time."""
        until = self.clock + seconds
        start = time.perf_counter() + 0.002 - self.clock
        futures = []
        while self.cursor < len(self.schedule) and self.schedule[self.cursor].due < until:
            request = self.schedule[self.cursor]
            self.cursor += 1
            request.wall_due = start + request.due
            delay = request.wall_due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            self.lags_ms.append((time.perf_counter() - request.wall_due) * 1000.0)
            try:
                futures.append(self._submit(request))
            except ReproError:
                request.end = time.perf_counter()
        for future in futures:
            try:
                future.result(timeout=SERVE_DEADLINE_MS / 1000.0 + 5.0)
            except (ReproError, TimeoutError):
                pass
        # A done-callback may still be finishing on a worker thread.
        settle = time.perf_counter() + 5.0
        while time.perf_counter() < settle and any(
            request.end is None for request in self.schedule[: self.cursor]
        ):
            time.sleep(0.001)
        self.clock = until

    def finish(self) -> PhaseReport:
        report = PhaseReport("serve", SERVE_DEADLINE_MS)
        uncached = ExecOptions(use_cache=False)
        replayed = self.schedule[: self.cursor]
        writes = 0
        for request in replayed:
            if request.end is None:  # never completed: failed at its deadline
                request.end = request.wall_due + SERVE_DEADLINE_MS / 1000.0
                request.ok = False
            kind = "write" if request.write else "read"
            report.record(request.wall_due, request.end, request.ok, kind)
            writes += request.write
        with untimed(self.tracer):
            for request in replayed:
                if request.sample and request.ok:
                    expected = request.snapshot.execute(request.payload, uncached)
                    report.check(
                        bag(request.result) == bag(expected), f"read differs: {request.payload}"
                    )
            final_rows = self._row_count()
        report.check(
            final_rows == self.initial_rows + self.acked_rows,
            f"covid_cases has {final_rows} rows, expected "
            f"{self.initial_rows} + {self.acked_rows} appended",
        )
        folds = self.fixture.serve_catalog.query_cache.stats.ivm_folds - self.folds_before
        service_after = self.fixture.service.stats_snapshot()
        report.extra = {
            "lags_ms": self.lags_ms,
            "write_share": writes / max(1, len(replayed)),
            "ivm_fold_share": folds / max(1, len(replayed) - writes),
            "queue_wait_p95_ms": service_after["frontend_queue_wait_p95_ms"] or 0.0,
            **{
                key: service_after[key] - self.service_before[key]
                for key in ("rejected", "shed", "failed")
            },
        }
        return report
