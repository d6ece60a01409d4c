"""Which program entry points are probed, and the per-layer metrics.

Layer names follow the program's modules (``overlay``, ``core``,
``core.network``, ``core.timed``, ``sim.engine``, ``sim.rng``, ``pastry``,
``perturbation``, ``service``, ``experiments``).  Targets are written
``module:function`` or ``module:Class.method``.
"""

from __future__ import annotations

import dataclasses
import importlib
from typing import Any, Optional, Sequence

from probes import Observer, SetupClock, Tracer, patch


@dataclasses.dataclass(frozen=True)
class Probe:
    """One probe: its name, layer, kind and the calls it wraps."""

    name: str
    layer: str
    kind: str  #: "span", "count" or "hot" (see :mod:`probes`)
    targets: tuple[str, ...]
    observe: Optional[Observer] = None


def _observe_edges(tracer: Tracer, args: tuple, graph: Any) -> None:
    tracer.add("overlay.edges", graph.num_edges)


def _observe_events(tracer: Tracer, args: tuple, executed: int) -> None:
    tracer.add("sim.events", executed)


def _observe_arrivals(tracer: Tracer, args: tuple, report: Any) -> None:
    tracer.add("service.arrivals", len(report.records))


def _observe_counters(tracer: Tracer, args: tuple, result: Any) -> None:
    """Fold the run's own telemetry counters (all label sets) into the tracer."""
    final = (result.metrics or {}).get("final", {})
    for key, value in final.items():
        if isinstance(value, (int, float)):
            tracer.add("counter:" + key.split("{", 1)[0], value)


OVERLAY_GENERATORS = tuple(
    "repro.overlay." + target
    for target in (
        "power_law:power_law_graph",
        "random_graphs:fixed_degree_random_graph",
        "random_graphs:random_regular_graph",
        "random_graphs:gnp_random_graph",
        "random_graphs:ring_lattice_graph",
        "complete:complete_graph",
    )
)

PERTURBATION_CLASSES = (
    "repro.perturbation.base:ProcessBase",
    "repro.perturbation.flapping:FlappingSchedule",
    "repro.perturbation.churn:ChurnSchedule",
    "repro.perturbation.waves:ChurnWaveSchedule",
    "repro.perturbation.storms:JoinStormSchedule",
    "repro.perturbation.outage:RegionalOutage",
    "repro.perturbation.adversarial:AdversarialRemoval",
    "repro.perturbation.timeline:ScenarioTimeline",
)

#: construction calls whose outermost time is set-up (``setup_s``)
SETUP_TARGETS = OVERLAY_GENERATORS + (
    "repro.core.network:MPILNetwork.__init__",
    "repro.core.timed:TimedMPILNetwork.__init__",
    "repro.pastry.protocol:PastryNetwork.__init__",
    "repro.experiments.perturbed:build_testbed",
)


def _defined_methods(classes: Sequence[str], method: str) -> tuple[str, ...]:
    """``module:Class.method`` for each class that defines ``method`` itself."""
    found = []
    for target in classes:
        module_name, _, class_name = target.partition(":")
        cls = getattr(importlib.import_module(module_name), class_name)
        if method in cls.__dict__:
            found.append(f"{target}.{method}")
    return tuple(found)


def layer_probes() -> list[Probe]:
    """Every layer probe."""
    return [
        Probe("overlay.generate", "overlay", "span", OVERLAY_GENERATORS, _observe_edges),
        Probe(
            "core.build",
            "core",
            "span",
            (
                "repro.core.network:MPILNetwork.__init__",
                "repro.core.timed:TimedMPILNetwork.__init__",
            ),
        ),
        Probe(
            "core.sync_insert", "core.network", "span",
            ("repro.core.network:MPILNetwork.insert",),
        ),
        Probe(
            "core.sync_lookup", "core.network", "span",
            ("repro.core.network:MPILNetwork.lookup",),
        ),
        Probe(
            "core.timed_lookup", "core.timed", "span",
            ("repro.core.timed:TimedMPILNetwork.start_lookup",),
        ),
        Probe(
            "sim.drain",
            "sim.engine",
            "span",
            ("repro.sim.engine:EventScheduler.run", "repro.sim.engine:EventScheduler.run_until"),
            _observe_events,
        ),
        Probe("sim.derive_rng", "sim.rng", "count", ("repro.sim.rng:derive_rng",)),
        Probe("pastry.build", "pastry", "span", ("repro.pastry.protocol:PastryNetwork.__init__",)),
        Probe("pastry.lookup", "pastry", "span", ("repro.pastry.protocol:PastryNetwork.lookup",)),
        Probe(
            "pastry.view", "pastry", "span",
            ("repro.pastry.views:ProbedViewOracle.believes_alive",),
        ),
        Probe(
            "pastry.rejoin",
            "pastry",
            "count",
            (
                "repro.pastry.rejoin:RejoinAdjustedAvailability.is_online",
                "repro.pastry.rejoin:IntervalRejoinAvailability.is_online",
            ),
        ),
        Probe(
            "perturbation.point", "perturbation", "hot",
            _defined_methods(PERTURBATION_CLASSES, "is_online"),
        ),
        Probe(
            "perturbation.mask", "perturbation", "hot",
            _defined_methods(PERTURBATION_CLASSES, "online_mask"),
        ),
        Probe(
            "service.run", "service", "span",
            ("repro.service.driver:run_service",), _observe_arrivals,
        ),
        Probe(
            "experiments.run", "experiments", "span",
            ("repro.experiments.spec:ExperimentSpec.run",), _observe_counters,
        ),
        Probe(
            "experiments.store_save",
            "experiments",
            "span",
            (
                "repro.experiments.store:ResultStore.save",
                "repro.experiments.store:ResultStore.write_aggregate",
            ),
        ),
        Probe(
            "experiments.sweep", "experiments", "span",
            ("repro.experiments.runner:run_sweep",),
        ),
    ]


def install(
    tracer: Optional[Tracer],
    setup: Optional[SetupClock],
    layers: Optional[frozenset] = None,
) -> None:
    """Install the layer probes (when tracing) and the set-up clock.

    ``layers`` restricts the layer probes to those layers (``None``: all).
    The set-up clock is installed last, outside the probes, so its own
    overhead never lands inside a span.
    """
    if tracer is not None:
        for probe in layer_probes():
            if layers is not None and probe.layer not in layers:
                continue
            for target in probe.targets:
                if probe.kind == "span":
                    patch(target, lambda fn, p=probe: tracer.span(p.name, p.layer, fn, p.observe))
                elif probe.kind == "count":
                    patch(target, lambda fn, p=probe: tracer.count(p.name, p.layer, fn))
                else:
                    patch(target, lambda fn, p=probe: tracer.hot(p.name, p.layer, fn))
    if setup is not None:
        for target in SETUP_TARGETS:
            patch(target, setup.wrap)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, extra: dict, registry_load_s: float) -> dict[str, float]:
    """Every per-layer metric of one traced execution, by name.

    ``extra`` holds what only the workload sees (sweep task times, jobs and
    retries); layers a workload never reaches read 0.
    """
    values = tracer.values
    sync = ("core.sync_insert", "core.sync_lookup")
    messages = values.get("counter:mpil_messages_total", 0.0)
    overlay_s = tracer.total("overlay.generate")
    edges = values.get("overlay.edges", 0.0)
    drain_s = tracer.total("sim.drain")
    events = values.get("sim.events", 0.0)
    service_s = tracer.total("service.run")
    arrivals = values.get("service.arrivals", 0.0)
    sweep_s = tracer.total("experiments.sweep")
    jobs = extra.get("experiments.jobs", 1)
    task_s = extra.get("experiments.task_s", tracer.total("experiments.run"))
    return {
        "overlay.gen_s": overlay_s,
        "overlay.graphs": tracer.spans("overlay.generate"),
        "overlay.edges": edges,
        "overlay.us_per_edge": _ratio(overlay_s * 1e6, edges),
        "core.build_s": tracer.total("core.build"),
        "core.builds": tracer.spans("core.build"),
        "core.sync_requests": tracer.spans(*sync),
        "core.sync_s": tracer.total(*sync),
        "core.sync_lookup_us_p50": tracer.percentile_us("core.sync_lookup", 50),
        "core.sync_lookup_us_p99": tracer.percentile_us("core.sync_lookup", 99),
        "core.messages": messages,
        "core.duplicate_ratio": _ratio(
            values.get("counter:mpil_duplicates_total", 0.0), messages
        ),
        "core.timed_lookups": tracer.spans("core.timed_lookup"),
        "sim.drain_s": drain_s,
        "sim.events": events,
        "sim.events_per_s": _ratio(events, drain_s),
        "sim.derive_rng_calls": tracer.counted("sim.derive_rng"),
        "pastry.build_s": tracer.total("pastry.build"),
        "pastry.lookups": tracer.spans("pastry.lookup"),
        "pastry.lookup_s": tracer.total("pastry.lookup"),
        "pastry.lookup_us_p50": tracer.percentile_us("pastry.lookup", 50),
        "pastry.lookup_us_p99": tracer.percentile_us("pastry.lookup", 99),
        "pastry.view_queries": tracer.spans("pastry.view"),
        "pastry.view_s": tracer.total("pastry.view"),
        "pastry.rejoin_queries": tracer.counted("pastry.rejoin"),
        "perturbation.point_queries": tracer.counted("perturbation.point"),
        "perturbation.mask_queries": tracer.counted("perturbation.mask"),
        "perturbation.query_s": tracer.hot_estimate("perturbation.point", "perturbation.mask"),
        "service.run_s": service_s,
        "service.arrivals": arrivals,
        "service.arrivals_per_s": _ratio(arrivals, service_s),
        "experiments.registry_load_s": registry_load_s,
        "experiments.task_s": task_s,
        "experiments.sweep_s": sweep_s,
        "experiments.jobs": jobs if sweep_s else 0,
        "experiments.runtime_overhead_s": sweep_s - task_s / jobs if sweep_s else 0.0,
        "experiments.store_save_s": tracer.total("experiments.store_save"),
        "experiments.retries": extra.get("experiments.retries", 0),
    }
