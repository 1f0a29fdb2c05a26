"""Spans around the program's public calls, and the per-layer figures.

Only the traced pass uses this module.  :class:`Instrumenter` installs a
live :class:`~repro.observability.Telemetry` and wraps public calls of
each layer in spans recorded by the program's own tracer, so they nest
with the spans the program already opens (``ranker.*``, ``cache.lookup``,
``engine.search``, ``engine.customize``, ``scheduler.request``).
Wrappers on objects that outlive the pass (the registry, the scoring
module, the scheduler) are removed again by :meth:`Instrumenter.restore`.

:func:`span_totals` folds the finished span trees into per-name count,
total time and self time (see :func:`perfbench.stats.self_time`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from .stats import self_time

#: Spans the benchmark adds, by the public call they wrap.
ENV_SPANS = (
    ("sustainable", "estimate", "estimation.sustainable", "estimation"),
    ("availability", "estimate", "estimation.availability", "estimation"),
    ("derouting", "batch_estimate", "estimation.derouting", "estimation"),
)
ENGINE_SPANS = (
    ("one_to_many", "network.one_to_many"),
    ("many_to_one", "network.many_to_one"),
    ("ensure_hierarchy", "network.ensure_hierarchy"),
)
#: The batch scoring and table-build functions, as the ranker calls them.
SCORING_SPANS = (
    ("sc_score_batch", "core.sc_score_batch"),
    ("intersect_top_k_batch", "core.intersect_top_k_batch"),
    ("build_table_from_arrays", "core.build_table"),
)


class Instrumenter:
    """Installs span wrappers on live objects and takes them off again."""

    def __init__(self, telemetry) -> None:
        self.telemetry = telemetry
        #: Pool size of every ``ChargerRegistry.within_radius`` answer.
        self.pool_sizes: list[int] = []
        self._restores: list[Callable[[], None]] = []
        #: Traces finished before the timed rounds began (warm-up).
        self._warm_traces = 0

    def wrap(
        self,
        owner: Any,
        attr: str,
        span_name: str,
        tier: str,
        on_result: Callable[[Any], None] | None = None,
        restorable: bool = True,
    ) -> None:
        inner = getattr(owner, attr)
        had_own = attr in vars(owner)
        span = self.telemetry.span

        def wrapped(*args, **kwargs):
            with span(span_name, tier):
                result = inner(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        setattr(owner, attr, wrapped)
        if not restorable:
            return
        if had_own:
            self._restores.append(lambda: setattr(owner, attr, inner))
        else:
            self._restores.append(lambda: delattr(owner, attr))

    def attach_environment(self, environment) -> None:
        """Telemetry plus spans on one environment's estimators and engine.

        The environment belongs to the traced pass and is dropped with it,
        so these wrappers are not restored (and not kept alive here).
        """
        environment.set_telemetry(self.telemetry)
        for part, attr, name, tier in ENV_SPANS:
            self.wrap(getattr(environment, part), attr, name, tier, restorable=False)
        for attr, name in ENGINE_SPANS:
            self.wrap(environment.engine, attr, name, "network", restorable=False)

    def attach_registry(self, registry) -> None:
        self.wrap(
            registry,
            "within_radius",
            "spatial.within_radius",
            "spatial",
            on_result=lambda pool: self.pool_sizes.append(len(pool)),
        )

    def attach_scoring(self) -> None:
        from repro.core import ecocharge

        for attr, name in SCORING_SPANS:
            self.wrap(ecocharge, attr, name, "core")

    def attach_serving(self, scheduler) -> None:
        self.wrap(scheduler, "submit", "scheduling.submit", "scheduling")
        self.wrap(scheduler, "run_one", "scheduling.run_one", "scheduling")

    def attach_epochs(self, epochs) -> None:
        self.wrap(epochs, "apply", "network.epoch_apply", "network")

    def mark_warm(self) -> None:
        """Leave what was recorded so far (a warm-up) out of the figures."""
        self._warm_traces = len(self.telemetry.tracer.traces)
        self.pool_sizes.clear()

    def timed_traces(self) -> list:
        """The finished root spans recorded since :meth:`mark_warm`."""
        return self.telemetry.tracer.traces[self._warm_traces :]

    def restore(self) -> None:
        while self._restores:
            self._restores.pop()()


@dataclass
class SpanTotal:
    count: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def span_totals(roots) -> dict[str, SpanTotal]:
    """Count, total and self time per span name over finished span trees."""
    totals: dict[str, SpanTotal] = {}
    stack = list(roots)
    while stack:
        span = stack.pop()
        if span.end_s is None:
            continue
        entry = totals.setdefault(span.name, SpanTotal())
        entry.count += 1
        entry.total_s += span.end_s - span.start_s
        children = [(c.start_s, c.end_s) for c in span.children if c.end_s is not None]
        entry.self_s += self_time(span.start_s, span.end_s, children)
        stack.extend(span.children)
    return totals
