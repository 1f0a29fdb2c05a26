"""Output checks: an independent soundness oracle and table properties.

The oracle recomputes every ground truth outside the ranking stack:

* ``D`` from :func:`scipy.sparse.csgraph.dijkstra` over the network's
  edges, each weighted by its static travel time times the traffic
  model's *true* congestion multiplier at the table's ETA, times the live
  incident factor of the epoch the table was served on (a closed edge is
  left out).  The program's own distance engine is never consulted.
* ``L`` and ``A`` from the estimators' ``true_*`` oracles at the ETA.

A table passes when every interval of every entry contains its truth.
Forecast distances are quantised by the program to ``DISTANCE_QUANTUM``
hours per leg, so the ``D`` check allows two quanta (outbound plus
return leg); ``L`` and ``A`` allow ``VALUE_TOL`` for last-digit rounding.

The property checks are arithmetic the benchmark redoes itself: entry
count and ranks, Eq. 4-5 recomputed bitwise from each entry's L/A/D
intervals, and the Eq. 6 output order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

#: The program's per-leg distance quantum, in hours (9 decimals).
DISTANCE_QUANTUM_H = 1e-9
#: Absolute slack for the [0, 1] L and A values (float rounding only).
VALUE_TOL = 1e-12


def table_key(table) -> tuple:
    """A bitwise identity for an Offering Table (floats as ``hex``)."""
    return (
        table.segment_index,
        table.origin.x.hex(),
        table.origin.y.hex(),
        float(table.generated_at_h).hex(),
        float(table.radius_km).hex(),
        table.adapted_from,
        tuple(
            (
                entry.rank,
                entry.charger_id,
                entry.score.sc_min.hex(),
                entry.score.sc_max.hex(),
                entry.sustainable.lo.hex(),
                entry.sustainable.hi.hex(),
                entry.availability.lo.hex(),
                entry.availability.hi.hex(),
                entry.derouting.lo.hex(),
                entry.derouting.hi.hex(),
                float(entry.eta_h).hex(),
            )
            for entry in table.entries
        ),
    )


def property_failures(table, k: int, weights: tuple[float, float, float]) -> list[str]:
    """Reasons ``table`` breaks a structural property (empty when it holds)."""
    problems: list[str] = []
    entries = table.entries
    if not 1 <= len(entries) <= k:
        problems.append(f"{len(entries)} entries, expected 1..{k}")
    if [entry.rank for entry in entries] != list(range(1, len(entries) + 1)):
        problems.append("ranks are not 1..n")
    w1, w2, w3 = weights
    for entry in entries:
        sc_min = (
            entry.sustainable.lo * w1
            + entry.availability.lo * w2
            + (1.0 - entry.derouting.lo) * w3
        )
        sc_max = (
            entry.sustainable.hi * w1
            + entry.availability.hi * w2
            + (1.0 - entry.derouting.hi) * w3
        )
        if sc_min.hex() != entry.score.sc_min.hex() or sc_max.hex() != entry.score.sc_max.hex():
            problems.append(f"charger {entry.charger_id}: SC differs from Eq. 4-5")
    order = [(-e.score.sc_max, -e.score.sc_min, e.charger_id) for e in entries]
    if order != sorted(order):
        problems.append("entries not in Eq. 6 order (SC_max, SC_min, id)")
    return problems


@dataclass(frozen=True)
class Grade:
    """How many of a table's entries missed their truth, per component."""

    entries: int
    misses: tuple[tuple[str, int], ...]

    @property
    def missed(self) -> frozenset[str]:
        """The components (``"L"``, ``"A"``, ``"D"``) with any miss."""
        return frozenset(name for name, count in self.misses if count)

    @property
    def sound(self) -> bool:
        return not self.missed


class Oracle:
    """Ground truth for one network and one set of estimators.

    ``traffic``, ``sustainable`` and ``availability`` should belong to an
    environment the timed program never uses, so grading warms nothing
    the benchmark measures.
    """

    def __init__(self, network, traffic, sustainable, availability, max_derouting_h: float):
        self._traffic = traffic
        self._sustainable = sustainable
        self._availability = availability
        self.max_h = max_derouting_h
        node_ids = sorted(network.node_ids())
        self._index = {node: i for i, node in enumerate(node_ids)}
        self._edges = list(network.edges())
        self._rows = np.array([self._index[e.source] for e in self._edges], dtype=np.int64)
        self._cols = np.array([self._index[e.target] for e in self._edges], dtype=np.int64)
        self._base_h = np.array([e.length_km / e.speed_kmh for e in self._edges])
        self._n = len(node_ids)
        self._graphs: dict[tuple, tuple[csr_matrix, csr_matrix]] = {}

    def _graphs_at(
        self, eta_h: float, version: int, factors: Mapping[tuple[int, int], float]
    ) -> tuple[csr_matrix, csr_matrix]:
        """Forward and reversed true-travel-time graphs at ``eta_h``."""
        key = (eta_h, version)
        cached = self._graphs.get(key)
        if cached is not None:
            return cached
        multiplier = np.array([self._traffic.multiplier(e, eta_h) for e in self._edges])
        factor = np.array([factors.get((e.source, e.target), 1.0) for e in self._edges])
        weight = self._base_h * multiplier * np.where(np.isinf(factor), 1.0, factor)
        keep = ~np.isinf(factor)
        rows, cols, weight = self._rows[keep], self._cols[keep], weight[keep]
        forward = csr_matrix((weight, (rows, cols)), shape=(self._n, self._n))
        backward = csr_matrix((weight, (cols, rows)), shape=(self._n, self._n))
        if len(self._graphs) > 512:
            self._graphs.clear()
        self._graphs[key] = (forward, backward)
        return forward, backward

    def derouting_truth(
        self,
        anchor: int,
        rejoins: Sequence[int],
        nodes: Sequence[int],
        eta_h: float,
        version: int = 0,
        factors: Mapping[tuple[int, int], float] | None = None,
    ) -> dict[int, float]:
        """Normalised true ``D`` for each of ``nodes``: out from ``anchor``
        to the node, then back to the cheaper of ``rejoins``, capped at the
        environment's maximum derouting time."""
        forward, backward = self._graphs_at(eta_h, version, factors or {})
        out = dijkstra(forward, directed=True, indices=self._index[anchor])
        back = dijkstra(
            backward, directed=True, indices=[self._index[node] for node in rejoins]
        ).min(axis=0)
        truth: dict[int, float] = {}
        for node in nodes:
            i = self._index[node]
            hours = min(self.max_h, float(out[i] + back[i]))
            truth[node] = min(1.0, hours / self.max_h)
        return truth

    def grade(
        self,
        table,
        segment,
        next_segment,
        version: int = 0,
        factors: Mapping[tuple[int, int], float] | None = None,
    ) -> Grade:
        """Check every interval of ``table`` against its truth.

        ``segment`` and ``next_segment`` are the trip segments the table
        was ranked for; ``version``/``factors`` the epoch it was served on.
        """
        rejoins = [segment.node_ids[-1]]
        if next_segment is not None:
            rejoins.append(next_segment.node_ids[-1])
        nodes = [entry.charger.node_id for entry in table.entries]
        truth_by_eta: dict[float, dict[int, float]] = {}
        d_tol = 2.0 * DISTANCE_QUANTUM_H / self.max_h
        misses = {"L": 0, "A": 0, "D": 0}
        for entry in table.entries:
            eta = entry.eta_h
            truth_d = truth_by_eta.get(eta)
            if truth_d is None:
                truth_d = self.derouting_truth(
                    segment.anchor_node, rejoins, nodes, eta, version, factors
                )
                truth_by_eta[eta] = truth_d
            charger = entry.charger
            power = self._sustainable.true_power_kw(charger, eta)
            truth_l = min(1.0, power / self._sustainable.max_power_kw)
            truth_a = self._availability.true_availability(charger, eta)
            misses["L"] += not _contains(entry.sustainable, truth_l, VALUE_TOL)
            misses["A"] += not _contains(entry.availability, truth_a, VALUE_TOL)
            misses["D"] += not _contains(entry.derouting, truth_d[charger.node_id], d_tol)
        return Grade(len(table.entries), tuple(misses.items()))


def _contains(interval, truth: float, tol: float) -> bool:
    if math.isnan(truth):
        return False
    return interval.lo - tol <= truth <= interval.hi + tol
