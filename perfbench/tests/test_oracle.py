"""The independent oracle and the table property checks, on a graph
small enough to compute by hand."""

import math
from types import SimpleNamespace

import pytest

from perfbench.oracle import Oracle, property_failures, table_key
from repro.intervals import Interval
from repro.network.graph import RoadNetwork
from repro.spatial.geometry import Point


class FlatTraffic:
    """Every edge congested by the same factor at every time."""

    def __init__(self, factor):
        self.factor = factor

    def multiplier(self, edge, time_h):
        return self.factor


class FixedSustainable:
    max_power_kw = 10.0

    def true_power_kw(self, charger, time_h):
        return 5.0  # normalised L = 0.5


class FixedAvailability:
    def true_availability(self, charger, time_h):
        return 0.75


def square():
    """0 -> 1 -> 3 and 0 -> 2 -> 3, plus 3 -> 0; travel times in hours:

        0->1: 1.0   1->3: 1.0   0->2: 0.5   2->3: 2.0   3->0: 1.0
        1->0: 2.0   2->0: 0.25
    """
    net = RoadNetwork()
    for node, (x, y) in enumerate([(0, 0), (1, 0), (0, 1), (1, 1)]):
        net.add_node(node, Point(x, y))
    for a, b, hours in [
        (0, 1, 1.0), (1, 3, 1.0), (0, 2, 0.5), (2, 3, 2.0), (3, 0, 1.0),
        (1, 0, 2.0), (2, 0, 0.25),
    ]:
        net.add_edge(a, b, length_km=hours * 40.0, speed_kmh=40.0)
    return net


def oracle(factor=1.0, max_h=10.0):
    return Oracle(square(), FlatTraffic(factor), FixedSustainable(), FixedAvailability(), max_h)


def test_round_trips_by_hand():
    # Out from 0, back to the cheaper of rejoins {3}:
    #   node 1: 1.0 out + 1.0 back = 2.0
    #   node 2: 0.5 out + 2.0 back = 2.5
    #   node 3: 2.0 out (0->1->3 beats 0->2->3 at 2.5) + 0.0 back = 2.0
    truth = oracle().derouting_truth(0, [3], [1, 2, 3], eta_h=8.0)
    assert truth == pytest.approx({1: 0.2, 2: 0.25, 3: 0.2})


def test_cheaper_rejoin_and_congestion():
    # Rejoins {3, 0}: node 2 returns to 0 in 0.25, node 1 in 2.0 (vs 1.0 to 3).
    truth = oracle(factor=2.0).derouting_truth(0, [3, 0], [1, 2], eta_h=8.0)
    assert truth == pytest.approx({1: 2 * 2.0 / 10, 2: 2 * 0.75 / 10})


def test_incidents_scale_and_close_edges():
    factors = {(0, 1): math.inf, (0, 2): 3.0}
    truth = oracle().derouting_truth(0, [3], [1, 2, 3], 8.0, version=1, factors=factors)
    # 0->1 closed and 1 has no other in-edge: unreachable, so capped at 1.
    # 0->2 now costs 1.5: node 2 = 1.5 + 2.0 back; node 3 = 1.5 + 2.0 out.
    assert truth == pytest.approx({1: 1.0, 2: 0.35, 3: 0.35})


def test_truth_capped_at_max_derouting():
    truth = oracle(max_h=2.2).derouting_truth(0, [3], [1, 2], eta_h=8.0)
    assert truth == pytest.approx({1: 2.0 / 2.2, 2: 1.0})


def entry(rank, charger_id, node, l, a, d, weights=(1 / 3, 1 / 3, 1 / 3)):
    w1, w2, w3 = weights
    sc_min = l.lo * w1 + a.lo * w2 + (1.0 - d.lo) * w3
    sc_max = l.hi * w1 + a.hi * w2 + (1.0 - d.hi) * w3
    return SimpleNamespace(
        rank=rank,
        charger=SimpleNamespace(charger_id=charger_id, node_id=node),
        charger_id=charger_id,
        score=SimpleNamespace(sc_min=sc_min, sc_max=sc_max),
        sustainable=l,
        availability=a,
        derouting=d,
        eta_h=8.0,
    )


def segment():
    return SimpleNamespace(anchor_node=0, node_ids=(0, 1, 3))


def table(*entries):
    return SimpleNamespace(
        segment_index=0,
        origin=Point(0.0, 0.0),
        generated_at_h=8.0,
        radius_km=50.0,
        adapted_from=None,
        entries=tuple(entries),
    )


def test_grade_sound_and_unsound_tables():
    o = oracle()
    sound = table(entry(1, 7, 1, Interval(0.4, 0.6), Interval(0.7, 0.8), Interval(0.1, 0.3)))
    assert o.grade(sound, segment(), None).sound
    # D truth for node 1 is 0.2; an interval that stops at 0.19 misses it.
    wrong = table(entry(1, 7, 1, Interval(0.4, 0.6), Interval(0.8, 0.9), Interval(0.1, 0.19)))
    grade = o.grade(wrong, segment(), None)
    assert grade.missed == {"A", "D"}
    assert dict(grade.misses) == {"L": 0, "A": 1, "D": 1}


def test_property_checks():
    weights = (1 / 3, 1 / 3, 1 / 3)
    good = table(
        entry(1, 1, 1, Interval(0.9, 0.9), Interval(0.9, 0.9), Interval(0.1, 0.1)),
        entry(2, 2, 2, Interval(0.1, 0.2), Interval(0.1, 0.2), Interval(0.5, 0.6)),
    )
    assert property_failures(good, 5, weights) == []
    assert property_failures(good, 1, weights) == ["2 entries, expected 1..1"]
    swapped = table(good.entries[1], good.entries[0])
    problems = property_failures(swapped, 5, weights)
    assert "ranks are not 1..n" in problems
    assert any("Eq. 6 order" in p for p in problems)
    forged = entry(1, 1, 1, Interval(0.9, 0.9), Interval(0.9, 0.9), Interval(0.1, 0.1))
    forged.score = SimpleNamespace(sc_min=forged.score.sc_min, sc_max=0.5)
    assert any("Eq. 4-5" in p for p in property_failures(table(forged), 5, weights))


def test_table_key_is_bitwise():
    a = table(entry(1, 1, 1, Interval(0.1, 0.2), Interval(0.3, 0.4), Interval(0.5, 0.6)))
    b = table(entry(1, 1, 1, Interval(0.1, 0.2), Interval(0.3, 0.4), Interval(0.5, 0.6)))
    assert table_key(a) == table_key(b)
    c = table(entry(1, 1, 1, Interval(0.1, 0.2), Interval(0.3, 0.4), Interval(0.5, math.nextafter(0.6, 1.0))))
    assert table_key(a) != table_key(c)
