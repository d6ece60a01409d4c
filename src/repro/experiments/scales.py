"""Experiment scale presets, the scale-rung registry, and run budgets.

``paper`` runs the published parameters (4000–16000-node static overlays,
10 graphs per setting, 100 insert/lookup pairs each; 1000-node Pastry with
1000 inserts + 1000 lookups).  ``default`` keeps every sweep dimension but
shrinks sizes so the full benchmark suite finishes in minutes on a laptop;
``smoke`` is for tests.  Above the paper sit the scale-ladder rungs:
``large`` (10^5-node static overlays) and ``massive`` (10^6, opt-in — it is
never a default and a single cell can run for hours on one core).  Both
carry an explicit :class:`BudgetSpec`; exceeding it aborts the run with a
one-line :class:`~repro.errors.ExperimentError` (see
:mod:`repro.experiments.budget`) and the budget is recorded in every
``BENCH_<id>.json`` the profiler writes.  The result store files every
artifact under the scale that produced it (``<id>/<scale>/seed_<n>.json``).

A :class:`Scale` is a named bundle of grouped frozen sub-specs —
``static``, ``analysis``, ``perturb``, ``service``, and ``budget``.  Every
historical flat spelling (``scale.pastry_nodes``, ``scale.static_ops``, …)
keeps working through pass-through properties, and the constructor accepts
either grouped sub-specs or the legacy flat keywords.

Custom rungs register through :func:`register_scale` (or
:func:`repro.api.register_scale`, or a ``[scale]`` table in a composed
spec); :func:`get_scale` resolves built-ins and registered rungs alike and
lists every known rung in its one-line error for unknown names.
"""

from __future__ import annotations

import dataclasses

from repro.errors import ExperimentError


@dataclasses.dataclass(frozen=True)
class StaticSpec:
    """Static-overlay experiment knobs (fig9, fig10, tab1-3)."""

    node_counts: tuple[int, ...]
    graphs: int  #: independent overlay samples per (family, n) setting
    ops: int  #: insert/lookup pairs per graph


@dataclasses.dataclass(frozen=True)
class AnalysisSpec:
    """Closed-form / Monte-Carlo analysis knobs (fig7, fig8)."""

    node_counts: tuple[int, ...]
    degrees: tuple[int, ...]
    complete_node_counts: tuple[int, ...]


@dataclasses.dataclass(frozen=True)
class PerturbSpec:
    """Perturbation-experiment knobs (fig1, fig11, fig12, ext-*)."""

    pastry_nodes: int
    inserts: int
    lookups: int
    flap_probabilities: tuple[float, ...]
    # scenario-engine extension sweeps; defaulted so hand-rolled specs
    # predating the scenario engine keep working
    outage_severities: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 1.0)
    wave_intensities: tuple[float, ...] = (1.0, 2.0, 4.0, 8.0)
    storm_fractions: tuple[float, ...] = (0.2, 0.4, 0.6, 0.8)
    removal_fractions: tuple[float, ...] = (0.0, 0.1, 0.2, 0.3, 0.4)


@dataclasses.dataclass(frozen=True)
class ServiceSpec:
    """Sustained-traffic service-mode knobs (svc-steady, svc-outage)."""

    duration: float = 600.0  #: simulated seconds of traffic
    rate: float = 1.0  #: baseline arrivals per simulated second
    window: float = 60.0  #: latency-percentile window length
    loads: tuple[float, ...] = (0.5, 1.0, 2.0)  #: rate multipliers


@dataclasses.dataclass(frozen=True)
class BudgetSpec:
    """Resource ceilings enforced while a run executes.

    ``None`` means unlimited (the historical behaviour; ``smoke`` through
    ``paper`` carry no budget).  The scale-ladder rungs set both so a
    regression that blows the envelope fails fast instead of thrashing the
    machine, and the profiler records them in ``BENCH_<id>.json`` where the
    bench gate checks measured wall clock and peak RSS against them.
    """

    max_rss_mb: float | None = None  #: peak resident set, mebibytes
    max_wall_s: float | None = None  #: wall clock per experiment run, seconds

    def __post_init__(self) -> None:
        for field in ("max_rss_mb", "max_wall_s"):
            value = getattr(self, field)
            if value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, (int, float)) or value <= 0:
                raise ExperimentError(
                    f"budget {field} must be a positive number or None, got {value!r}"
                )

    @property
    def unlimited(self) -> bool:
        return self.max_rss_mb is None and self.max_wall_s is None


#: flat legacy spelling -> (sub-spec attribute, field inside it)
_FLAT_FIELDS: dict[str, tuple[str, str]] = {
    "static_node_counts": ("static", "node_counts"),
    "static_graphs": ("static", "graphs"),
    "static_ops": ("static", "ops"),
    "analysis_node_counts": ("analysis", "node_counts"),
    "analysis_degrees": ("analysis", "degrees"),
    "complete_node_counts": ("analysis", "complete_node_counts"),
    "pastry_nodes": ("perturb", "pastry_nodes"),
    "perturbed_inserts": ("perturb", "inserts"),
    "perturbed_lookups": ("perturb", "lookups"),
    "flap_probabilities": ("perturb", "flap_probabilities"),
    "outage_severities": ("perturb", "outage_severities"),
    "wave_intensities": ("perturb", "wave_intensities"),
    "storm_fractions": ("perturb", "storm_fractions"),
    "removal_fractions": ("perturb", "removal_fractions"),
    "service_duration": ("service", "duration"),
    "service_rate": ("service", "rate"),
    "service_window": ("service", "window"),
    "service_loads": ("service", "loads"),
    "max_rss_mb": ("budget", "max_rss_mb"),
    "max_wall_s": ("budget", "max_wall_s"),
}

_GROUP_TYPES: dict[str, type] = {
    "static": StaticSpec,
    "analysis": AnalysisSpec,
    "perturb": PerturbSpec,
    "service": ServiceSpec,
    "budget": BudgetSpec,
}


@dataclasses.dataclass(frozen=True, init=False)
class Scale:
    """All size knobs used by the experiment modules, grouped by subsystem.

    Construct with grouped sub-specs::

        Scale(name="mine", static=StaticSpec((500,), 1, 20), ...)

    or with the legacy flat keywords (both spellings build the same frozen
    sub-specs; mixing a sub-spec and flat fields of the same group is
    rejected)::

        Scale(name="mine", static_node_counts=(500,), static_graphs=1, ...)
    """

    name: str
    static: StaticSpec
    analysis: AnalysisSpec
    perturb: PerturbSpec
    service: ServiceSpec
    budget: BudgetSpec

    def __init__(
        self,
        name: str,
        static: StaticSpec | None = None,
        analysis: AnalysisSpec | None = None,
        perturb: PerturbSpec | None = None,
        service: ServiceSpec | None = None,
        budget: BudgetSpec | None = None,
        **flat,
    ):
        groups: dict[str, object] = {
            "static": static,
            "analysis": analysis,
            "perturb": perturb,
            "service": service,
            "budget": budget,
        }
        flat_by_group: dict[str, dict[str, object]] = {g: {} for g in _GROUP_TYPES}
        for key, value in flat.items():
            try:
                group, field = _FLAT_FIELDS[key]
            except KeyError:
                raise TypeError(
                    f"Scale() got an unexpected keyword argument {key!r}"
                ) from None
            if groups[group] is not None:
                raise TypeError(
                    f"Scale() got both a {group}= sub-spec and the flat field {key!r}"
                )
            flat_by_group[group][field] = value
        object.__setattr__(self, "name", name)
        for group, spec_type in _GROUP_TYPES.items():
            spec = groups[group]
            if spec is None:
                spec = spec_type(**flat_by_group[group])
            elif not isinstance(spec, spec_type):
                raise TypeError(
                    f"Scale() {group}= must be a {spec_type.__name__}, "
                    f"got {type(spec).__name__}"
                )
            object.__setattr__(self, group, spec)

    def evolve(self, **changes) -> "Scale":
        """A copy with flat fields and/or whole sub-specs replaced.

        Accepts any legacy flat spelling (``pastry_nodes=...``), any group
        name with a sub-spec instance (``budget=BudgetSpec(...)``), and
        ``name=``.  Unknown fields raise a one-line
        :class:`~repro.errors.ExperimentError` listing the valid ones.
        """
        groups: dict[str, object] = {g: getattr(self, g) for g in _GROUP_TYPES}
        name = changes.pop("name", self.name)
        per_group: dict[str, dict[str, object]] = {g: {} for g in _GROUP_TYPES}
        for key, value in changes.items():
            if key in _GROUP_TYPES:
                spec_type = _GROUP_TYPES[key]
                if not isinstance(value, spec_type):
                    raise ExperimentError(
                        f"scale field {key!r} must be a {spec_type.__name__}, "
                        f"got {type(value).__name__}"
                    )
                groups[key] = value
            elif key in _FLAT_FIELDS:
                group, field = _FLAT_FIELDS[key]
                per_group[group][field] = value
            else:
                raise ExperimentError(
                    f"unknown scale field {key!r}; choose from "
                    f"{sorted(_FLAT_FIELDS) + sorted(_GROUP_TYPES)}"
                )
        resolved = {
            group: (
                dataclasses.replace(groups[group], **per_group[group])
                if per_group[group]
                else groups[group]
            )
            for group in _GROUP_TYPES
        }
        return Scale(name=name, **resolved)

    # -- flat pass-through views (the legacy spelling every experiment
    #    module reads; each simply hops into its sub-spec) ------------------

    @property
    def static_node_counts(self) -> tuple[int, ...]:
        return self.static.node_counts

    @property
    def static_graphs(self) -> int:
        return self.static.graphs

    @property
    def static_ops(self) -> int:
        return self.static.ops

    @property
    def analysis_node_counts(self) -> tuple[int, ...]:
        return self.analysis.node_counts

    @property
    def analysis_degrees(self) -> tuple[int, ...]:
        return self.analysis.degrees

    @property
    def complete_node_counts(self) -> tuple[int, ...]:
        return self.analysis.complete_node_counts

    @property
    def pastry_nodes(self) -> int:
        return self.perturb.pastry_nodes

    @property
    def perturbed_inserts(self) -> int:
        return self.perturb.inserts

    @property
    def perturbed_lookups(self) -> int:
        return self.perturb.lookups

    @property
    def flap_probabilities(self) -> tuple[float, ...]:
        return self.perturb.flap_probabilities

    @property
    def outage_severities(self) -> tuple[float, ...]:
        return self.perturb.outage_severities

    @property
    def wave_intensities(self) -> tuple[float, ...]:
        return self.perturb.wave_intensities

    @property
    def storm_fractions(self) -> tuple[float, ...]:
        return self.perturb.storm_fractions

    @property
    def removal_fractions(self) -> tuple[float, ...]:
        return self.perturb.removal_fractions

    @property
    def service_duration(self) -> float:
        return self.service.duration

    @property
    def service_rate(self) -> float:
        return self.service.rate

    @property
    def service_window(self) -> float:
        return self.service.window

    @property
    def service_loads(self) -> tuple[float, ...]:
        return self.service.loads


_FULL_PROBS = tuple(round(0.1 * i, 1) for i in range(1, 11))

SCALES: dict[str, Scale] = {
    "smoke": Scale(
        name="smoke",
        static_node_counts=(200,),
        static_graphs=1,
        static_ops=10,
        analysis_node_counts=(4000,),
        analysis_degrees=(10, 40, 100),
        complete_node_counts=(2000, 8000),
        pastry_nodes=80,
        perturbed_inserts=25,
        perturbed_lookups=25,
        flap_probabilities=(0.2, 0.6, 1.0),
        outage_severities=(0.0, 0.5, 1.0),
        wave_intensities=(1.0, 4.0),
        storm_fractions=(0.3, 0.6),
        removal_fractions=(0.0, 0.2, 0.4),
        service_duration=240.0,
        service_rate=0.5,
        service_window=60.0,
        service_loads=(1.0, 2.0),
    ),
    "default": Scale(
        name="default",
        static_node_counts=(1000, 2000, 4000),
        static_graphs=2,
        static_ops=30,
        analysis_node_counts=(4000, 8000, 16000),
        analysis_degrees=tuple(range(10, 101, 10)),
        complete_node_counts=(2000, 4000, 6000, 8000, 10000, 12000, 14000, 16000),
        pastry_nodes=400,
        perturbed_inserts=120,
        perturbed_lookups=120,
        flap_probabilities=_FULL_PROBS,
        service_duration=1200.0,
        service_rate=2.0,
        service_window=120.0,
    ),
    "paper": Scale(
        name="paper",
        static_node_counts=(4000, 8000, 16000),
        static_graphs=10,
        static_ops=100,
        analysis_node_counts=(4000, 8000, 16000),
        analysis_degrees=tuple(range(10, 101, 10)),
        complete_node_counts=(2000, 4000, 6000, 8000, 10000, 12000, 14000, 16000),
        pastry_nodes=1000,
        perturbed_inserts=1000,
        perturbed_lookups=1000,
        flap_probabilities=_FULL_PROBS,
        outage_severities=tuple(round(0.1 * i, 1) for i in range(0, 11)),
        wave_intensities=(1.0, 2.0, 4.0, 8.0, 16.0),
        storm_fractions=(0.1, 0.2, 0.4, 0.6, 0.8),
        removal_fractions=tuple(round(0.05 * i, 2) for i in range(0, 10)),
        service_duration=3600.0,
        service_rate=5.0,
        service_window=300.0,
        service_loads=(0.5, 1.0, 2.0, 4.0),
    ),
    # -- the scale ladder (ROADMAP: 10^5-10^6 nodes on one machine).  Both
    #    rungs carry enforced budgets; generation cost is dominated by the
    #    pairing model's stub shuffle (cold, on a shared 2-vCPU Intel Xeon
    #    VM with Python 3.11: a 20k-node degree-100 overlay in 1.5 s, 10^5
    #    nodes in 15 s at 0.9 GiB peak RSS; the 10^5-node power-law graph
    #    in 2.8 s), everything after it runs on the struct-of-arrays core.
    "large": Scale(
        name="large",
        static_node_counts=(100_000,),
        static_graphs=1,
        static_ops=100,
        analysis_node_counts=(100_000,),
        analysis_degrees=(10, 40, 100),
        complete_node_counts=(20_000, 50_000, 100_000),
        pastry_nodes=5000,
        perturbed_inserts=300,
        perturbed_lookups=300,
        flap_probabilities=(0.2, 0.6, 1.0),
        service_duration=1200.0,
        service_rate=2.0,
        service_window=120.0,
        service_loads=(1.0, 2.0),
        budget=BudgetSpec(max_rss_mb=16384.0, max_wall_s=1800.0),
    ),
    # Opt-in: never a default, and a single static cell generates a
    # 10^6-node overlay first.  Not measured: scaling the 10^5-node numbers
    # above gives minutes of pairing and ~9 GiB of Python stubs and edge
    # keys for the degree-100 graph.  The budget is the guard rail, not a
    # promise of comfort.
    "massive": Scale(
        name="massive",
        static_node_counts=(1_000_000,),
        static_graphs=1,
        static_ops=50,
        analysis_node_counts=(1_000_000,),
        analysis_degrees=(10, 40, 100),
        complete_node_counts=(200_000, 1_000_000),
        pastry_nodes=20_000,
        perturbed_inserts=500,
        perturbed_lookups=500,
        flap_probabilities=(0.2, 0.6, 1.0),
        service_duration=1200.0,
        service_rate=2.0,
        service_window=120.0,
        service_loads=(1.0,),
        budget=BudgetSpec(max_rss_mb=98304.0, max_wall_s=21600.0),
    ),
}

#: runtime-registered rungs (``register_scale``); resolved after built-ins
_REGISTERED: dict[str, Scale] = {}


def available_scales() -> tuple[str, ...]:
    """Names of every known rung — built-in and registered — sorted."""
    return tuple(sorted({**SCALES, **_REGISTERED}))


def all_scales() -> tuple[Scale, ...]:
    """Every known rung, sorted by name (the ``api.scales()`` view)."""
    merged = {**SCALES, **_REGISTERED}
    return tuple(merged[name] for name in sorted(merged))


def register_scale(scale: Scale, replace: bool = False) -> Scale:
    """Register a custom rung so name-based lookups (CLI ``--scale``,
    :func:`get_scale`, the profiler) resolve it.

    Built-in names are immutable; re-registering a custom name requires
    ``replace=True``.  Returns the scale for chaining.
    """
    if not isinstance(scale, Scale):
        raise ExperimentError(
            f"register_scale needs a Scale, got {type(scale).__name__}"
        )
    if scale.name in SCALES:
        raise ExperimentError(
            f"cannot register scale {scale.name!r}: built-in rungs are immutable"
        )
    if scale.name in _REGISTERED and not replace:
        raise ExperimentError(
            f"scale {scale.name!r} is already registered; pass replace=True to overwrite"
        )
    _REGISTERED[scale.name] = scale
    return scale


def unregister_scale(name: str) -> None:
    """Remove a runtime-registered rung (built-ins cannot be removed)."""
    if name in SCALES:
        raise ExperimentError(f"cannot unregister built-in scale {name!r}")
    if name not in _REGISTERED:
        raise ExperimentError(f"scale {name!r} is not registered")
    del _REGISTERED[name]


def get_scale(scale: str | Scale) -> Scale:
    """Resolve a scale by name (or pass a custom :class:`Scale` through)."""
    if isinstance(scale, Scale):
        return scale
    found = SCALES.get(scale)
    if found is None:
        found = _REGISTERED.get(scale)
    if found is None:
        raise ExperimentError(
            f"unknown scale {scale!r}; choose from {list(available_scales())}"
        )
    return found


def with_service_overrides(
    scale: str | Scale,
    rate: float | None = None,
    duration: float | None = None,
    window: float | None = None,
) -> Scale:
    """A scale with its service-traffic knobs selectively overridden.

    The ``serve`` CLI command and :func:`repro.api.serve` use this to dial
    the open-loop workload without defining a whole new preset; ``None``
    keeps the preset's value.  Range validation happens in
    :class:`repro.service.driver.ServiceConfig` when the run starts.
    """
    resolved = get_scale(scale)
    overrides: dict[str, float] = {}
    if rate is not None:
        overrides["service_rate"] = float(rate)
    if duration is not None:
        overrides["service_duration"] = float(duration)
    if window is not None:
        overrides["service_window"] = float(window)
    return resolved.evolve(**overrides) if overrides else resolved
