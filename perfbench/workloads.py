"""The three workloads: their inputs, set-up, and timed passes.

* ``trips-ch`` — California at scale 1.0, CH backend, R = 50 km,
  Q = 1 km, k = 5.  One closed-loop caller runs ``run_over_trip`` over a
  fixed block of three distinct trips of 5-6 segments (a *round*).
  Every round starts from a fresh environment that shares only the
  pre-built hierarchy, so every round does the same cold work and counts
  repeat exactly.
* ``serve-repeat`` — Oldenburg at scale 1.0, Dijkstra backend, paper
  defaults (R = 50 km, Q = 5 km, k = 5), served through a one-shard
  ``ShardedScheduler`` (``submit`` / ``run_one``) in an open loop.  Every
  round runs on a new scheduler, so every round starts cold.
* ``serve-incidents`` — the same requests on the CH backend and one
  scheduler for the whole pass; a seeded ``IncidentStream`` batch goes
  through ``GraphEpochManager.apply`` before every round and fences the
  warm state the previous round left.

A serving round is a fixed multiset of requests over six popular trips
with a skewed popularity (14, 2, 1, 1, 1, 1 requests): each trip's first
request is cold, its repeats are warm.  Every round requests the same
trips, so every round does the same work.  An untimed warm-up round
runs first, so the timed rounds do not pay the process's first calls and
the first batch of ``serve-incidents`` fences warm state like every
later one.  The seed shuffles each round's order, jitters the arrival
times of the fixed-rate open loop and seeds the incident stream; it does
not choose the trips, so the failed share is the same for every seed.
"""

from __future__ import annotations

import gc
import random
import resource
import time
from dataclasses import dataclass, field
from typing import Mapping

from repro.core.ecocharge import EcoChargeConfig, EcoChargeRanker
from repro.core.environment import ChargingEnvironment
from repro.core.ranking import run_over_trip
from repro.network.distance_engine import DistanceEngine
from repro.network.epochs import GraphEpochManager, IncidentStream
from repro.server.scheduling import (
    Outcome,
    Priority,
    SchedulerConfig,
    ShardedScheduler,
)
from repro.trajectories.datasets import load_workload

from .layers import Instrumenter

clock = time.perf_counter


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    why: str
    profile: str
    backend: str
    #: The paper's Q; R and k keep the paper defaults (50 km, 5).
    range_km: float = 5.0
    #: Closed loop: the trips of one round, in dataset order.
    round_trips: tuple[int, ...] = ()
    #: Open loop: requests per second.
    rate_per_s: float = 0.0
    #: Open loop: (trip, requests per round).
    popular: tuple[tuple[int, int], ...] = ()
    #: Open loop: apply one incident batch before every round, on one
    #: scheduler; without incidents every round gets a new scheduler.
    incidents: bool = False

    @property
    def serving(self) -> bool:
        return bool(self.popular)

    @property
    def round_requests(self) -> int:
        return sum(times for _, times in self.popular)

    def ranker_config(self) -> EcoChargeConfig:
        return EcoChargeConfig(range_km=self.range_km)


#: Arrival ``i`` of a round is due at ``(i + ARRIVAL_JITTER * u) / rate``
#: after the round starts, for a seeded uniform ``u``: a fixed-rate open
#: loop whose gaps stay within 20% of the period.  Poisson arrivals at
#: this sample size let arrival bunching decide the latency tail: its
#: quartile spread over seeds was 0.2-0.36, against 0.05-0.1 for the same
#: runs' throughput.
ARRIVAL_JITTER = 0.2

#: Incidents in each batch the serving loop applies between rounds.
INCIDENTS_PER_BATCH = 3

#: Popular Oldenburg trips and how often each is requested per round.
#: The trips are short, with (tables, adapted tables) of (3, 2), (6, 5),
#: (5, 4), (7, 6), (6, 5) and (7, 6): each computes one table and adapts
#: the rest, so every first request is one cold computation and the
#: latency tail (a central rank among the first requests) does not sit
#: on the boundary between first requests of different cost.  One trip
#: takes most repeats, so the median request is a warm repeat of one
#: shape.
POPULAR = ((19, 14), (10, 2), (22, 1), (38, 1), (35, 1), (25, 1))

#: Open-loop arrival rate of both serving workloads.
RATE_PER_S = 4.0

SPECS: dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            name="trips-ch",
            why="cold CCH ranking of distinct trips: every segment pays filter, "
            "L/A/D and Eq. 6 over a pool of hundreds",
            profile="california",
            backend="ch",
            range_km=1.0,
            round_trips=(3, 4, 5),
        ),
        WorkloadSpec(
            name="serve-repeat",
            why="open-loop serving of popular repeated trips: admission, queueing, "
            "cache adaptation and warm Dijkstra maps",
            profile="oldenburg",
            backend="dijkstra",
            rate_per_s=RATE_PER_S,
            popular=POPULAR,
        ),
        WorkloadSpec(
            name="serve-incidents",
            why="the same serving on CCH with incident batches between rounds, "
            "so every weight change fences the warm caches",
            profile="oldenburg",
            backend="ch",
            rate_per_s=RATE_PER_S,
            popular=POPULAR,
            incidents=True,
        ),
    )
}


# -- set-up ------------------------------------------------------------------


@dataclass
class World:
    """Everything set-up produced: the program, ready to serve."""

    spec: WorkloadSpec
    network: object
    registry: object
    trips: list
    hierarchy: object | None
    hierarchy_build_s: float
    setup_s: float
    environment: ChargingEnvironment | None = None
    scheduler: ShardedScheduler | None = None
    epochs: GraphEpochManager | None = None
    ranker: EcoChargeRanker | None = None

    def engine(self) -> DistanceEngine:
        return DistanceEngine(self.network, backend=self.spec.backend, hierarchy=self.hierarchy)

    def environment_for(self, instrumenter: Instrumenter | None = None) -> ChargingEnvironment:
        environment = ChargingEnvironment(self.network, self.registry, seed=0, engine=self.engine())
        if instrumenter is not None:
            instrumenter.attach_environment(environment)
        return environment

    def serve_on_new_scheduler(self, instrumenter: Instrumenter | None = None) -> None:
        """Replace the scheduler (and its environment and ranker) with a
        new one; ``epochs`` is kept."""
        self.scheduler = ShardedScheduler(
            lambda: self.environment_for(instrumenter),
            config=SchedulerConfig(
                shards=1,
                # Generous limits: no request of the open loop may be
                # rejected, shed or browned out, so every failure counted
                # is a wrong table, never an overload decision.
                queue_capacity=1024,
                max_inflight=1024,
                tenant_rate_per_s=1000.0,
                tenant_burst=1000.0,
            ),
            ranker_config=self.spec.ranker_config(),
            telemetry=instrumenter.telemetry if instrumenter is not None else None,
            epochs=self.epochs,
        )
        self.environment = self.scheduler.shards[0].environment
        self.ranker = self.scheduler.shards[0].ranker_for(self.spec.ranker_config())
        if instrumenter is not None:
            instrumenter.attach_serving(self.scheduler)


def set_up(
    spec: WorkloadSpec, scale: float = 1.0, instrumenter: Instrumenter | None = None
) -> World:
    """Build the program's state for ``spec`` up to ready-to-serve.

    ``setup_s`` covers network, catalog and trips, the spatial index, the
    environment(s), the contraction hierarchy where used, and the
    scheduler with its ranker.  With an ``instrumenter`` the scheduler
    and its environment record spans.
    """
    started = clock()
    dataset = load_workload(spec.profile, scale=scale)
    dataset.registry.index(spec.ranker_config().index_kind)
    hierarchy = None
    build_s = 0.0
    if spec.backend == "ch":
        engine = DistanceEngine(dataset.network, backend="ch")
        build_started = clock()
        hierarchy = engine.ensure_hierarchy()
        build_s = clock() - build_started
    world = World(
        spec=spec,
        network=dataset.network,
        registry=dataset.registry,
        trips=dataset.trips,
        hierarchy=hierarchy,
        hierarchy_build_s=build_s,
        setup_s=0.0,
    )
    if spec.serving:
        world.epochs = GraphEpochManager(world.network) if spec.incidents else None
        if instrumenter is not None and world.epochs is not None:
            instrumenter.attach_epochs(world.epochs)
        world.serve_on_new_scheduler(instrumenter)
    else:
        world.environment = world.environment_for()
        world.ranker = EcoChargeRanker(world.environment, spec.ranker_config())
    world.setup_s = clock() - started
    return world


# -- inputs --------------------------------------------------------------------


@dataclass(frozen=True)
class Request:
    #: Seconds after the start of its round.
    due_s: float
    trip_index: int
    priority: Priority


@dataclass(frozen=True)
class Round:
    requests: tuple[Request, ...]
    #: The incident batch applied before the round's first request.
    incidents: tuple = ()


def round_block(spec: WorkloadSpec) -> list[int]:
    """The trips of one round, each as often as it is requested."""
    return [trip for trip, times in spec.popular for _ in range(times)]


def serving_schedule(spec: WorkloadSpec, seed: int, seconds: float, network) -> list[Round]:
    """Whole rounds of requests, shuffled and timed by ``seed``; incident
    batches are drawn from ``network``'s edges."""
    rng = random.Random(f"{seed}:{spec.name}:schedule")
    rounds = max(1, round(seconds * spec.rate_per_s / spec.round_requests))
    period = 1.0 / spec.rate_per_s
    # The benchmark owns the stream; only its batches reach the program.
    stream = IncidentStream(network, seed=seed) if spec.incidents else None
    schedule = []
    for _ in range(rounds):
        block = round_block(spec)
        rng.shuffle(block)
        # Every round starts cold: a trip's first request in the round is
        # interactive, its repeats refresh.
        seen: set[int] = set()
        requests = []
        for i, trip in enumerate(spread_first_requests(block)):
            due = (i + ARRIVAL_JITTER * rng.random()) * period
            priority = Priority.REFRESH if trip in seen else Priority.INTERACTIVE
            seen.add(trip)
            requests.append(Request(due, trip, priority))
        incidents = stream.next_batch(INCIDENTS_PER_BATCH) if stream is not None else ()
        schedule.append(Round(tuple(requests), incidents))
    return schedule


def spread_first_requests(block: list[int]) -> list[int]:
    """Reorder a shuffled round so that each trip's first (cold) request
    falls on an evenly spaced slot and its repeats come after it.

    A plain shuffle bunches the first requests at the start of the round,
    where cold requests then queue behind each other and the latency
    tail measures the bunching.  Relative order is otherwise kept.
    """
    firsts = list(dict.fromkeys(block))
    repeats = list(block)
    for trip in firsts:
        repeats.remove(trip)
    slots = {round(i * len(block) / len(firsts)) for i in range(len(firsts))}
    out: list[int] = []
    for position in range(len(block)):
        ready = next((t for t in repeats if t in out), None)
        if firsts and (position in slots or ready is None):
            out.append(firsts.pop(0))
        else:
            repeats.remove(ready)
            out.append(ready)
    return out


# -- passes ----------------------------------------------------------------------


@dataclass
class Served:
    """One trip answer handed to a caller, with what grading needs."""

    trip_index: int
    tables: tuple
    fresh: bool
    version: int = 0
    factors: Mapping = field(default_factory=dict)


@dataclass
class PassResult:
    served: list[Served] = field(default_factory=list)
    segment_s: list[float] = field(default_factory=list)
    request_s: list[float] = field(default_factory=list)
    busy_s: float = 0.0
    round_rates: list[float] = field(default_factory=list)
    rounds: int = 0
    #: ``EngineStats`` counters summed over the pass's engines.
    engine_counts: dict[str, int] = field(default_factory=dict)
    #: Dynamic-cache entries dropped by epoch fences.
    cache_invalidations: int = 0
    peak_rss_mb: float = 0.0
    # serving only
    queue_wait_s: list[float] = field(default_factory=list)
    generator_lag_s: list[float] = field(default_factory=list)
    batches: int = 0
    peak_queue_depth: int = 0
    accounting_ok: bool = True


def time_segments(ranker, samples: list[float]) -> None:
    """Record the wall time of every ``rank_segment`` call of ``ranker``."""
    inner = ranker.rank_segment

    def rank_segment(*args, **kwargs):
        started = clock()
        try:
            return inner(*args, **kwargs)
        finally:
            samples.append(clock() - started)

    ranker.rank_segment = rank_segment


def work_counts(environment, ranker) -> dict[str, int]:
    """One environment's engine counters and its ranker's epoch
    invalidations (``cache_invalidations``), as they stand."""
    stats = environment.engine.stats
    counts = {name: getattr(stats, name) for name in stats.COUNTER_FIELDS}
    counts["cache_invalidations"] = ranker.cache_stats.epoch_invalidations
    return counts


def count_work(result: PassResult, environment, ranker, since: Mapping | None = None) -> None:
    """Add the work counted by ``environment`` and ``ranker`` (after
    the counts ``since``, when given) to ``result``."""
    for name, value in work_counts(environment, ranker).items():
        value -= since[name] if since is not None else 0
        if name == "cache_invalidations":
            result.cache_invalidations += value
        else:
            result.engine_counts[name] = result.engine_counts.get(name, 0) + value


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_trips(
    world: World,
    seed: int,
    seconds: float,
    rounds: int | None = None,
    instrumenter: Instrumenter | None = None,
) -> PassResult:
    """Closed loop over whole rounds of distinct trips.

    Runs until the next round would end after ``seconds`` (at least one),
    or exactly ``rounds`` rounds when given.  The seed rotates where in
    the block each round starts.
    """
    spec = world.spec
    block = list(spec.round_trips)
    start = seed % len(block)
    order = block[start:] + block[:start]
    result = PassResult()
    config = spec.ranker_config()
    began = clock()
    while True:
        if result.rounds == 0 and instrumenter is None:
            environment, ranker = world.environment, world.ranker
        else:
            environment = world.environment_for(instrumenter)
            ranker = EcoChargeRanker(environment, config)
        time_segments(ranker, result.segment_s)
        busy = 0.0
        tables = 0
        for index in order:
            started = clock()
            run = run_over_trip(ranker, environment, world.trips[index], segment_km=config.segment_km)
            elapsed = clock() - started
            busy += elapsed
            result.request_s.append(elapsed)
            tables += len(run.tables)
            result.served.append(Served(index, tuple(run.tables), fresh=run.completed_cleanly))
        result.busy_s += busy
        result.round_rates.append(tables / busy)
        count_work(result, environment, ranker)
        result.rounds += 1
        # Release the round's environment now (the timing and span
        # wrappers form reference cycles), so memory does not grow with
        # the number of rounds.
        environment = ranker = None
        gc.collect()
        if rounds is not None:
            if result.rounds >= rounds:
                break
        elif clock() - began + busy > seconds:
            break
    result.peak_rss_mb = peak_rss_mb()
    return result


def wait_until(deadline: float) -> None:
    """Spin until ``deadline``.

    A sleeping thread lets its vCPU idle and wakes up late and on cold
    caches by an amount the shared host decides; spinning keeps the
    ranking thread's core awake, so the request that follows the wait is
    timed on the same footing as the one before it.
    """
    while clock() < deadline:
        pass


def warm_up(world: World) -> None:
    """One untimed round, unpaced, on the current scheduler.

    The process's first calls (lazy imports, first allocations) land
    here instead of in the first timed round, and on ``serve-incidents``
    the first batch then fences warm state like every later batch.
    """
    scheduler = world.scheduler
    for trip in round_block(world.spec):
        scheduler.submit("warm-up", world.trips[trip], Priority.REFRESH)
        while scheduler.pending:
            scheduler.run_one(0)
        scheduler.drain_responses()


def run_serving(
    world: World,
    schedule: list[Round],
    instrumenter: Instrumenter | None = None,
) -> PassResult:
    """Open loop, round by round: submit each request when due, execute
    in between.

    One thread generates and executes.  A request's latency runs from its
    due time to the moment its response is drained; the generator's lag
    is how late each request was submitted.  Between rounds, untimed,
    ``serve-repeat`` moves to a new scheduler and ``serve-incidents``
    applies the round's incident batch.  Work done by the warm-up round
    is not counted.
    """
    spec = world.spec
    epochs = world.epochs
    result = PassResult()
    warm_up(world)
    if instrumenter is not None:
        instrumenter.mark_warm()
    if spec.incidents:
        warm = work_counts(world.environment, world.ranker)
        time_segments(world.ranker, result.segment_s)
    for round_ in schedule:
        if not spec.incidents:
            world.serve_on_new_scheduler(instrumenter)
            # The replaced scheduler is garbage with reference cycles;
            # collect it here rather than in the middle of a timed round.
            gc.collect()
            time_segments(world.ranker, result.segment_s)
        if round_.incidents:
            epochs.apply(round_.incidents)
        _serve_round(world, round_, result)
        if not spec.incidents:
            count_work(result, world.environment, world.ranker)
    if spec.incidents:
        count_work(result, world.environment, world.ranker, warm)
    result.peak_rss_mb = peak_rss_mb()
    result.rounds = len(schedule)
    result.batches = sum(1 for round_ in schedule if round_.incidents)
    return result


def _serve_round(world: World, round_: Round, result: PassResult) -> None:
    scheduler = world.scheduler
    epochs = world.epochs
    requests = round_.requests
    tenant = "tenant-0"
    due_at: dict[int, float] = {}
    trip_of: dict[int, int] = {}
    submitted_before = scheduler.stats.submitted
    busy_before = result.busy_s
    served_before = len(result.served)

    def execute_one() -> None:
        snapshot = epochs.snapshot() if epochs is not None else (0, {})
        started = clock()
        scheduler.run_one(0)
        result.busy_s += clock() - started
        _collect(scheduler, result, due_at, trip_of, started, snapshot)

    began = clock()
    i = 0
    total = len(requests)
    while i < total or scheduler.pending:
        now = clock()
        while i < total and began + requests[i].due_s <= now:
            request = requests[i]
            due = began + request.due_s
            submitted = clock()
            stamped = scheduler.submit(tenant, world.trips[request.trip_index], request.priority)
            result.generator_lag_s.append(submitted - due)
            due_at[stamped.request_id] = due
            trip_of[stamped.request_id] = request.trip_index
            i += 1
            _collect(scheduler, result, due_at, trip_of)
            now = clock()
        if scheduler.pending:
            execute_one()
        elif i < total:
            wait_until(began + requests[i].due_s)
    tables = sum(len(served.tables) for served in result.served[served_before:])
    result.round_rates.append(tables / (result.busy_s - busy_before))
    result.peak_queue_depth = max(result.peak_queue_depth, *scheduler.peak_depths())
    result.accounting_ok = (
        result.accounting_ok
        and scheduler.accounting_ok()
        and scheduler.pending == 0
        and scheduler.stats.submitted - submitted_before == total
        and scheduler.stats.submitted == scheduler.stats.resolved()
    )


def _collect(
    scheduler,
    result: PassResult,
    due_at: dict[int, float],
    trip_of: dict[int, int],
    started: float | None = None,
    snapshot: tuple[int, Mapping] | None = None,
) -> None:
    """Drain resolved responses and record their latency and outcome."""
    for response in scheduler.drain_responses():
        drained = clock()
        request = response.request
        result.request_s.append(drained - due_at[request.request_id])
        if started is not None:
            result.queue_wait_s.append(started - request.submitted_s)
        version, factors = snapshot if snapshot is not None else (0, {})
        fresh = (
            response.outcome is Outcome.COMPLETED
            and not response.widened
            and not response.epoch_degraded
        )
        result.served.append(
            Served(
                trip_of[request.request_id],
                tuple(response.tables),
                fresh=fresh,
                version=version,
                factors=factors,
            )
        )
