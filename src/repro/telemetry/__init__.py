"""repro.telemetry — deterministic spans, metrics, and run introspection.

The observability layer for the whole stack, in three parts:

- **spans** (:mod:`repro.telemetry.spans`) — parent-linked causal spans
  keyed by *simulation* time, so one lookup's full hop tree
  (send → forward → dup-drop → reply) is reconstructable;
- **metrics** (:mod:`repro.telemetry.metrics`) — one
  :class:`MetricsRegistry` of named counters/gauges/histograms absorbing
  the old module-global events counter and the drivers'
  ``TrafficCounters`` totals as labeled series;
- **sinks** (:mod:`repro.telemetry.sinks`) — deterministic JSONL span
  export and hop-tree rendering behind ``mpil-experiments trace`` and
  ``api.telemetry()``.

Drivers see all of this through one :class:`Telemetry` handle.  The
handle is *ambient*: :meth:`ExperimentSpec.run
<repro.experiments.spec.ExperimentSpec.run>` installs one via
:func:`use` and drivers resolve :func:`current` at request entry.  An
ambient handle (rather than a constructor argument) is deliberate —
networks and testbeds are memoized in bounded construction caches across
runs, so a handle captured at construction time would go stale; the
ambient lookup always observes the run in progress.

Zero-overhead-when-disabled contract: ``current().spans`` is ``None``
unless a caller opted into tracing, and drivers hoist it into a local
and guard every emission with one ``is not None`` test (the MPIL
drivers test their per-request :class:`~repro.core.step.StepTrace`).
Metrics are always-on but O(1) integer bumps at request granularity,
outside the per-event hot paths.  Determinism contract: telemetry draws no RNG and reads no wall
clock outside the DET003 allowlist (see
:mod:`repro.telemetry.progress`), so every experiment artifact is
byte-identical with telemetry off *and* on.
"""

from __future__ import annotations

import contextlib
import dataclasses
from typing import Iterator, Optional

from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    reset_runtime_metrics,
    runtime_registry,
)
from repro.telemetry.spans import Span, SpanRecorder

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "SpanRecorder",
    "Telemetry",
    "current",
    "reset_runtime_metrics",
    "runtime_registry",
    "use",
]


@dataclasses.dataclass
class Telemetry:
    """One run's observability handle: a metrics registry + optional spans.

    ``spans is None`` means tracing is disabled (the default); drivers
    skip all span work in that case.  ``metrics`` is always present so
    driver-side counter bumps never need a guard.
    """

    metrics: MetricsRegistry = dataclasses.field(default_factory=MetricsRegistry)
    spans: Optional[SpanRecorder] = None

    @classmethod
    def with_spans(cls, max_spans: Optional[int] = 200_000) -> "Telemetry":
        """A handle with tracing enabled."""
        return cls(spans=SpanRecorder(max_spans=max_spans))

    def snapshot(self) -> dict:
        """Metrics snapshot plus span accounting (for blobs and display)."""
        out = {"metrics": self.metrics.snapshot()}
        if self.spans is not None:
            out["spans"] = {
                "recorded": len(self.spans),
                "dropped": self.spans.dropped,
            }
        return out


#: the ambient handle drivers observe; the default drops no counter bumps
#: (they land in a throwaway registry) and records no spans
_DEFAULT = Telemetry()
_CURRENT = _DEFAULT


def current() -> Telemetry:
    """The ambient :class:`Telemetry` handle for the run in progress."""
    return _CURRENT


@contextlib.contextmanager
def use(telemetry: Telemetry) -> Iterator[Telemetry]:
    """Install ``telemetry`` as the ambient handle for the ``with`` body.

    Installed by :meth:`ExperimentSpec.run
    <repro.experiments.spec.ExperimentSpec.run>` around every experiment
    run; nests correctly (the previous handle is restored on exit) so a
    spec invoked from inside another run observes only its own scope.
    """
    global _CURRENT
    previous = _CURRENT
    _CURRENT = telemetry
    try:
        yield telemetry
    finally:
        _CURRENT = previous
