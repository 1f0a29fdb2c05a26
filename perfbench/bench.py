"""One benchmark run: set up, time a pass, check it, report metrics.

With ``trace=False`` the run reports the end-to-end metrics of one
untraced pass.  With ``trace=True`` it runs the same untraced pass, then
a second pass of the same inputs with spans recorded, and reports the
per-layer metrics of the traced pass; the ratio of the two passes' busy
time is the tracing overhead.  Every pass is graded.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.observability import Telemetry

from .grading import REASONS, Checker, Tally
from .layers import Instrumenter, span_totals
from .stats import Tail, median, tail
from .workloads import SPECS, PassResult, World, run_serving, run_trips, serving_schedule, set_up

#: Extra set-ups after the timed pass; ``setup_s`` is the median of these
#: and the set-up the pass ran on.  Spreading them over the run keeps a
#: slow moment of the machine from deciding it.
SETUPS_AFTER = 4

END_TO_END = (
    ("setup_s", "s"),
    ("segments_per_s", "1/s"),
    ("segment_p50_ms", "ms"),
    ("segment_tail_ms", "ms"),
    ("request_p50_ms", "ms"),
    ("request_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("spatial.filter_ms", "ms/segment"),
    ("spatial.pool_size", "chargers/segment"),
    ("estimation.la_ms", "ms/segment"),
    ("estimation.derouting_self_ms", "ms/segment"),
    ("network.hierarchy_build_s", "s"),
    ("network.query_ms", "ms/segment"),
    ("network.customize_ms", "ms/segment"),
    ("network.search_ms", "ms/segment"),
    ("network.join_ms", "ms/segment"),
    ("network.searches", "count/segment"),
    ("network.customisations", "count/segment"),
    ("network.evictions", "count/segment"),
    ("network.settled_hit_ratio", "ratio"),
    ("network.pair_hit_ratio", "ratio"),
    ("network.epoch_apply_ms", "ms/batch"),
    ("network.epoch_invalidations", "count/batch"),
    ("core.adapt_ms", "ms/adapted"),
    ("core.refine_ms", "ms/segment"),
    ("core.computed_segments", "count/round"),
    ("core.adapted_segments", "count/round"),
    ("scheduling.admit_us", "us/request"),
    ("scheduling.queue_wait_p50_ms", "ms"),
    ("scheduling.queue_wait_tail_ms", "ms"),
    ("scheduling.execute_ms", "ms/request"),
    ("scheduling.serve_ms", "ms/request"),
    ("scheduling.peak_queue_depth", "count"),
    ("scheduling.generator_lag_ms", "ms"),
    ("observability.trace_overhead", "ratio"),
)

OUT_DIR = Path(__file__).resolve().parent / "out"


def _pass(world: World, seed: int, seconds: float, schedule, rounds=None, instrumenter=None):
    if world.spec.serving:
        return run_serving(world, schedule, instrumenter)
    return run_trips(world, seed, seconds, rounds, instrumenter)


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: float = 1.0,
) -> tuple[dict, list[str]]:
    """Run one workload; returns the result object and report lines."""
    spec = SPECS[workload]
    world = set_up(spec, scale)
    schedule = serving_schedule(spec, seed, seconds, world.network) if spec.serving else None
    untraced = _pass(world, seed, seconds, schedule)
    checker = Checker(world)
    tally = checker.tally(untraced)
    setups = [world.setup_s]
    builds = [world.hierarchy_build_s]
    for _ in range(SETUPS_AFTER):
        later = set_up(spec, scale)
        setups.append(later.setup_s)
        builds.append(later.hierarchy_build_s)
        del later
    lines = [f"workload {workload}  seed {seed}  seconds {seconds:g}  trace {int(trace)}"]
    accounting_ok = untraced.accounting_ok

    if not trace:
        metrics, tails = _end_to_end(spec, untraced, setups)
        lines += _report_metrics(metrics, END_TO_END)
        lines += [f"  {name}: {t.label}" for name, t in tails.items()]
    else:
        telemetry = Telemetry.live(max_traces=1 << 40)
        instrumenter = Instrumenter(telemetry)
        traced_world = set_up(spec, scale, instrumenter) if spec.serving else world
        instrumenter.attach_registry(traced_world.registry)
        instrumenter.attach_scoring()
        try:
            traced = _pass(
                traced_world, seed, seconds, schedule, untraced.rounds, instrumenter
            )
        finally:
            instrumenter.restore()
        checker.tally(traced, tally)
        accounting_ok = accounting_ok and traced.accounting_ok
        totals = span_totals(instrumenter.timed_traces())
        metrics = _per_layer(traced, untraced, totals, instrumenter, builds)
        lines += _report_metrics(metrics, PER_LAYER)
        _write_trace(workload, seed, totals)

    # Adapted tables are the kept known fault; any other failure is wrong.
    correct = tally.failed["check"] == 0 and tally.failed["not_fresh"] == 0 and accounting_ok
    lines += _report_failures(tally, correct)
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed_total,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in (PER_LAYER if trace else END_TO_END)
        },
    }
    return result, lines


def _end_to_end(spec, result: PassResult, setups: list[float]) -> tuple[dict, dict[str, Tail]]:
    segment_tail = tail(result.segment_s)
    request_tail = tail(result.request_s)
    metrics = {
        "setup_s": median(setups),
        # Every round does identical work; the median round keeps a slow
        # moment of the machine during one round from deciding the rate.
        "segments_per_s": median(result.round_rates),
        "segment_p50_ms": median(result.segment_s) * 1e3,
        "segment_tail_ms": segment_tail.value * 1e3,
        "request_p50_ms": median(result.request_s) * 1e3,
        "request_tail_ms": request_tail.value * 1e3,
        "peak_rss_mb": result.peak_rss_mb,
    }
    return metrics, {"segment_tail_ms": segment_tail, "request_tail_ms": request_tail}


def _per_layer(traced: PassResult, untraced: PassResult, totals, instrumenter, builds):
    def total(*names: str) -> float:
        return sum(totals[n].total_s for n in names if n in totals)

    def own(*names: str) -> float:
        return sum(totals[n].self_s for n in names if n in totals)

    def count(name: str) -> int:
        return totals[name].count if name in totals else 0

    def per(value: float, base: int) -> float:
        return value / base if base else 0.0

    computed = count("ranker.compute")
    adapted = count("ranker.adapt")
    stats = traced.engine_counts
    lookups = stats["cache_hits"] + stats["cache_misses"]
    pair_lookups = stats["pair_hits"] + stats["pair_misses"]
    cache_invalidations = traced.cache_invalidations
    queries = ("network.one_to_many", "network.many_to_one")
    requests = count("scheduler.request")
    ms = 1e3
    metrics = {
        "spatial.filter_ms": per(own("spatial.within_radius") * ms, computed),
        "spatial.pool_size": per(sum(instrumenter.pool_sizes), computed),
        "estimation.la_ms": per(
            own("estimation.sustainable", "estimation.availability") * ms, computed
        ),
        "estimation.derouting_self_ms": per(own("estimation.derouting") * ms, computed),
        "network.hierarchy_build_s": median(builds),
        "network.query_ms": per(total(*queries) * ms, computed),
        "network.customize_ms": per(total("engine.customize") * ms, computed),
        "network.search_ms": per(own("engine.search") * ms, computed),
        "network.join_ms": per(own(*queries) * ms, computed),
        "network.searches": per(stats["searches"], computed),
        "network.customisations": per(stats["customisations"], computed),
        "network.evictions": per(stats["evictions"], computed),
        "network.settled_hit_ratio": per(stats["cache_hits"], lookups),
        "network.pair_hit_ratio": per(stats["pair_hits"], pair_lookups),
        "network.epoch_apply_ms": per(total("network.epoch_apply") * ms, traced.batches),
        "network.epoch_invalidations": per(
            stats["epoch_invalidations"] + cache_invalidations, traced.batches
        ),
        "core.adapt_ms": per(total("ranker.adapt") * ms, adapted),
        "core.refine_ms": per(
            total("core.sc_score_batch", "core.intersect_top_k_batch", "core.build_table") * ms,
            computed + adapted,
        ),
        "core.computed_segments": per(computed, traced.rounds),
        "core.adapted_segments": per(adapted, traced.rounds),
        "scheduling.admit_us": per(total("scheduling.submit") * 1e6, count("scheduling.submit")),
        "scheduling.queue_wait_p50_ms": (
            median(traced.queue_wait_s) * ms if traced.queue_wait_s else 0.0
        ),
        "scheduling.queue_wait_tail_ms": (
            tail(traced.queue_wait_s).value * ms if traced.queue_wait_s else 0.0
        ),
        "scheduling.execute_ms": per(total("ranker.trip") * ms, requests),
        "scheduling.serve_ms": per(
            (total("scheduling.run_one") - total("ranker.trip")) * ms, requests
        ),
        "scheduling.peak_queue_depth": traced.peak_queue_depth,
        "scheduling.generator_lag_ms": (
            tail(traced.generator_lag_s).value * ms if traced.generator_lag_s else 0.0
        ),
        "observability.trace_overhead": traced.busy_s / untraced.busy_s,
    }
    return metrics


def _report_metrics(metrics: dict, names) -> list[str]:
    return [f"  {name:32s} {metrics[name]:14.6g} {unit}" for name, unit in names]


def _report_failures(tally: Tally, correct: bool) -> list[str]:
    lines = [
        f"  operations attempted {tally.attempted}, failed {tally.failed_total}"
        f" ({', '.join(f'{r} {tally.failed[r]}' for r in REASONS)})",
    ]
    if tally.failed["adapted"]:
        entries = tally.adapted_entries
        lines.append(
            "  adapted tables missing their truth: "
            + ", ".join(
                f"{c} {tally.adapted_tables_missing[c]}/{tally.failed['adapted']} tables"
                f" ({tally.adapted_entries_missing[c]}/{entries} entries)"
                for c in ("L", "A", "D")
            )
        )
    lines += [f"  {detail}" for detail in tally.details]
    lines.append(f"  correct {correct}")
    return lines


def _write_trace(workload: str, seed: int, totals) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    rows = {
        name: {"count": t.count, "total_ms": t.total_s * 1e3, "self_ms": t.self_s * 1e3}
        for name, t in sorted(totals.items())
    }
    path = OUT_DIR / f"trace-{workload}-seed{seed}.json"
    path.write_text(json.dumps(rows, indent=1) + "\n")
