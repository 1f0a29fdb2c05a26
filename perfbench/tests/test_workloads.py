"""A reduced pass of each workload completes and passes its checks.

``trips-ch`` runs on a quarter of its chargers and trips.  The serving
workloads name trips of the full Oldenburg profile, so they keep it but
run a single set-up and one or two rounds arriving ten times faster.
The checks are the full ones (oracle, properties, fresh references,
accounting).
"""

from dataclasses import replace

import pytest

from perfbench import bench
from perfbench.workloads import SPECS, round_block, serving_schedule, spread_first_requests

SCALE = 0.25


@pytest.fixture
def fast_serving(monkeypatch):
    """Serving requests arrive ten times faster; one set-up per run."""
    for name in ("serve-repeat", "serve-incidents"):
        spec = SPECS[name]
        monkeypatch.setitem(SPECS, name, replace(spec, rate_per_s=spec.rate_per_s * 10))
    monkeypatch.setattr(bench, "SETUPS_AFTER", 0)


def only_kept_faults(result, lines):
    assert result["correct"], "\n".join(lines)
    assert result["attempted"] > 0
    return result["failed"] / result["attempted"]


def test_trips_ch_pass_has_no_failures():
    result, lines = bench.run("trips-ch", seed=1, seconds=0.1, trace=False, scale=SCALE)
    assert only_kept_faults(result, lines) == 0.0
    assert set(result["metrics"]) == {name for name, _ in bench.END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", ["serve-repeat", "serve-incidents"])
def test_serving_pass_fails_only_adapted_tables(name, fast_serving):
    result, lines = bench.run(name, seed=1, seconds=0.1, trace=False)
    share = only_kept_faults(result, lines)
    assert 0.0 < share < 1.0
    assert any(line.strip().startswith("adapted tables missing") for line in lines)
    # The failed share is a property of the round, not of the seed.
    again, lines = bench.run(name, seed=7, seconds=0.1, trace=False)
    assert only_kept_faults(again, lines) == share


def test_traced_pass_reports_every_layer(fast_serving):
    # Two rounds; after the warm-up round every batch finds warm state.
    result, lines = bench.run(
        "serve-incidents", seed=3, seconds=1.0, trace=True
    )
    only_kept_faults(result, lines)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert set(metrics) == {name for name, _ in bench.PER_LAYER}
    assert metrics["core.computed_segments"] > 0
    assert metrics["core.adapted_segments"] > 0
    assert metrics["network.searches"] > 0
    assert metrics["network.epoch_invalidations"] > 0
    assert metrics["observability.trace_overhead"] > 0


def test_schedule_is_whole_rounds():
    spec = SPECS["serve-repeat"]
    schedule = serving_schedule(spec, seed=5, seconds=20.0, network=None)
    assert len(schedule) == round(20.0 * spec.rate_per_s / spec.round_requests)
    for round_ in schedule:
        assert sorted(q.trip_index for q in round_.requests) == sorted(round_block(spec))
        assert max(q.due_s for q in round_.requests) <= spec.round_requests / spec.rate_per_s
        assert round_.incidents == ()
        # Every round starts cold: a trip's first request in the round is
        # interactive, its repeats refresh.
        seen = set()
        for request in round_.requests:
            assert (request.priority.name == "INTERACTIVE") == (request.trip_index not in seen)
            seen.add(request.trip_index)
    assert schedule == serving_schedule(spec, seed=5, seconds=20.0, network=None)
    assert schedule != serving_schedule(spec, seed=6, seconds=20.0, network=None)


def test_incident_schedule_has_a_batch_before_every_round():
    from repro.trajectories.datasets import load_workload

    network = load_workload("oldenburg", scale=SCALE).network
    spec = SPECS["serve-incidents"]
    schedule = serving_schedule(spec, seed=2, seconds=20.0, network=network)
    assert all(len(round_.incidents) >= 3 for round_ in schedule)
    assert schedule == serving_schedule(spec, seed=2, seconds=20.0, network=network)


@pytest.mark.parametrize("seed", range(20))
def test_first_requests_are_spread_over_the_round(seed):
    import random

    block = [1] * 8 + [2] * 5 + [3] * 3 + [4] * 2 + [5] + [6]
    random.Random(seed).shuffle(block)
    out = spread_first_requests(block)
    assert sorted(out) == sorted(block)
    firsts = [i for i, trip in enumerate(out) if trip not in out[:i]]
    assert len(firsts) == 6
    # Evenly spaced slots are every 20/6 positions; a first request is
    # pulled forward only when no repeat of an earlier trip is left.
    assert max(b - a for a, b in zip(firsts, firsts[1:])) <= 4
