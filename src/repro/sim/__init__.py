"""Discrete-event simulation substrate.

This package provides the small, dependency-free pieces every simulation in
the library is built on:

- :mod:`repro.sim.rng` — deterministic named random streams;
- :mod:`repro.sim.engine` — a heap-based discrete-event scheduler;
- :mod:`repro.sim.counters` — traffic/bookkeeping counters;
- :mod:`repro.sim.latency` — message latency models;
- :mod:`repro.sim.availability` — node availability interfaces.

Structured tracing lives in :mod:`repro.telemetry` (causal spans).

The paper's first simulator ("a simulator written in Python that simulates
overlay-level routing ... a message-level simulator, not a packet-level
simulator") corresponds to the synchronous drivers in :mod:`repro.core`;
the MSPastry-style timed simulations are driven by the event engine here.
"""

from repro.sim.availability import AlwaysOnline, AvailabilityModel
from repro.sim.counters import TrafficCounters
from repro.sim.engine import (
    Event,
    EventScheduler,
    add_events_processed,
    events_processed_total,
    reset_events_processed,
)
from repro.sim.latency import ConstantLatency, LatencyModel, UnderlayLatency
from repro.sim.rng import derive_rng, derive_seed

__all__ = [
    "AlwaysOnline",
    "AvailabilityModel",
    "ConstantLatency",
    "Event",
    "EventScheduler",
    "LatencyModel",
    "TrafficCounters",
    "UnderlayLatency",
    "add_events_processed",
    "derive_rng",
    "derive_seed",
    "events_processed_total",
    "reset_events_processed",
]
