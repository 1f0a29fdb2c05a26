"""Grading every served table after timing, and counting failures.

One operation is one Offering Table.  Each is counted once, under the
first reason that applies:

* ``not_fresh`` — its request was not served fresh (rejected, shed,
  stale, failed, or widened); every segment of the trip counts;
* ``check`` — a property fails, the table differs bitwise from the
  reference ranking, or (for a computed table) the oracle finds an
  interval that misses its truth;
* ``adapted`` — a table adapted from the dynamic cache (only the
  serving workloads adapt; ``trips-ch`` moves more than Q between
  segments).  This is the kept known fault: ``EcoChargeRanker._adapt``
  shifts each cached ``D`` by a straight-line delta and keeps ``L`` and
  ``A`` from the original ETA, so its intervals carry no soundness
  guarantee.  These tables are still graded, and their misses are
  reported per component.

The reference for a trip is ``run_over_trip`` on a fresh environment
with no warm state: on ``trips-ch`` on the Dijkstra backend (the
backends are bit-comparable by design), on the serving workloads on the
served backend with the served epoch's incident factors.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping

from repro.core.ecocharge import EcoChargeRanker
from repro.core.environment import ChargingEnvironment
from repro.core.ranking import run_over_trip
from repro.network.distance_engine import DistanceEngine
from repro.network.epochs import GraphEpochManager, Incident

from .oracle import Grade, Oracle, property_failures, table_key
from .workloads import PassResult, World

REASONS = ("check", "not_fresh", "adapted")


@dataclass
class Tally:
    attempted: int = 0
    failed: Counter = field(default_factory=Counter)
    #: Adapted tables with at least one entry missing, per component.
    adapted_tables_missing: Counter = field(default_factory=Counter)
    #: Adapted entries missing, per component, and entries graded.
    adapted_entries_missing: Counter = field(default_factory=Counter)
    adapted_entries: int = 0
    details: list[str] = field(default_factory=list)

    def fail(self, reason: str, count: int, detail: str = "") -> None:
        self.failed[reason] += count
        if detail and len(self.details) < 10:
            self.details.append(f"{reason}: {detail}")

    @property
    def failed_total(self) -> int:
        return sum(self.failed.values())


class Checker:
    """References and oracle grades, memoised across passes."""

    def __init__(self, world: World) -> None:
        self.world = world
        self.spec = world.spec
        self.config = world.spec.ranker_config()
        grading = ChargingEnvironment(world.network, world.registry, seed=0)
        self.oracle = Oracle(
            world.network,
            grading.traffic,
            grading.sustainable,
            grading.availability,
            grading.derouting.max_derouting_h,
        )
        self._segments: dict[int, tuple] = {}
        self._references: dict[tuple[int, int], list[tuple]] = {}
        self._grades: dict[tuple, Grade] = {}

    def segments(self, trip_index: int) -> tuple:
        segments = self._segments.get(trip_index)
        if segments is None:
            segments = self.world.trips[trip_index].segments(self.config.segment_km)
            self._segments[trip_index] = segments
        return segments

    def reference(
        self, trip_index: int, version: int, factors: Mapping[tuple[int, int], float]
    ) -> list[tuple]:
        """Bitwise keys of the trip's tables ranked on a fresh environment."""
        key = (trip_index, version)
        cached = self._references.get(key)
        if cached is not None:
            return cached
        world = self.world
        backend = "dijkstra" if not self.spec.serving else self.spec.backend
        engine = DistanceEngine(world.network, backend=backend, hierarchy=world.hierarchy)
        environment = ChargingEnvironment(world.network, world.registry, seed=0, engine=engine)
        if world.epochs is not None:
            epochs = GraphEpochManager(world.network)
            if factors:
                epochs.apply(Incident(s, t, f) for (s, t), f in sorted(factors.items()))
            environment.set_epochs(epochs)
        ranker = EcoChargeRanker(environment, self.config)
        run = run_over_trip(
            ranker, environment, world.trips[trip_index], segment_km=self.config.segment_km
        )
        keys = [table_key(table) for table in run.tables]
        self._references[key] = keys
        return keys

    def grade(self, trip_index: int, table, key: tuple, version: int, factors) -> Grade:
        memo = (trip_index, key, version)
        grade = self._grades.get(memo)
        if grade is None:
            segments = self.segments(trip_index)
            position = [s.index for s in segments].index(table.segment_index)
            following = segments[position + 1] if position + 1 < len(segments) else None
            grade = self.oracle.grade(table, segments[position], following, version, factors)
            self._grades[memo] = grade
        return grade

    def tally(self, result: PassResult, tally: Tally | None = None) -> Tally:
        """Grade every table of one pass into ``tally``."""
        tally = tally if tally is not None else Tally()
        weights = self.config.weights.as_tuple()
        k = self.config.k
        for served in result.served:
            segments = self.segments(served.trip_index)
            count = len(segments)
            tally.attempted += count
            if not served.fresh:
                tally.fail("not_fresh", count, f"trip {served.trip_index}")
                continue
            if [t.segment_index for t in served.tables] != [s.index for s in segments]:
                tally.fail("check", count, f"trip {served.trip_index}: not one table per segment")
                continue
            reference = self.reference(served.trip_index, served.version, served.factors)
            for table, expected in zip(served.tables, reference):
                key = table_key(table)
                problems = property_failures(table, k, weights)
                if key != expected:
                    problems.append("differs bitwise from the fresh reference")
                grade = self.grade(served.trip_index, table, key, served.version, served.factors)
                where = f"trip {served.trip_index} segment {table.segment_index}"
                if problems:
                    tally.fail("check", 1, f"{where}: {'; '.join(problems)}")
                elif table.is_adapted:
                    tally.fail("adapted", 1)
                    tally.adapted_entries += grade.entries
                    for name, missing in grade.misses:
                        tally.adapted_entries_missing[name] += missing
                        tally.adapted_tables_missing[name] += bool(missing)
                elif not grade.sound:
                    missed = ", ".join(sorted(grade.missed))
                    tally.fail("check", 1, f"{where}: oracle misses {missed}")
        if not result.accounting_ok:
            tally.details.append("scheduler accounting: submitted != resolved")
        return tally
