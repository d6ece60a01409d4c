"""Event-driven MPIL driver for perturbed (dynamic-availability) overlays.

Reproduces the paper's Section 6.2 setting: MPIL running over a structured
overlay's neighbor lists *without any maintenance*.  Messages take real
(simulated) time per hop; a message sent toward a node that is offline at
arrival is silently lost — MPIL has no per-hop ARQ; redundant flows are its
defence.  Because availability changes while a request is in flight,
duplicate copies processed later can take different routes, which is
exactly why "MPIL without DS always gives higher success rates than MPIL
with the duplicate suppression" under perturbation.

Insertions for the perturbation experiments happen in stage 1 on the static
overlay ("1000 insertion requests are generated to the static overlay"), so
this driver reuses the synchronous :class:`~repro.core.network.MPILNetwork`
for inserts and adds timed lookups.

The per-node rule is :class:`~repro.core.step.MPILStep`, the same one the
synchronous driver runs.  This driver adds only what time brings: it
posts each copy on an :class:`~repro.sim.engine.EventScheduler` after a
latency draw, loses copies that arrive at an offline node
(``lost-offline``) before the step sees them, applies the hop limit of
:func:`~repro.core.step.timed_hop_limit`, sends replies back to the
origin as timed messages, and completes the request once no copy is in
flight.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional, Sequence

from repro.core.config import MPILConfig
from repro.core.identifiers import Identifier, IdSpace
from repro.core.messages import KIND_LOOKUP, MPILMessage
from repro.core.network import MPILNetwork
from repro.core.step import HOP_LIMIT, REPLY, MPILStep, StepTrace, timed_hop_limit
from repro.errors import RoutingError
from repro.overlay.graph import OverlayGraph
from repro.sim.availability import AlwaysOnline, AvailabilityModel
from repro.sim.counters import TrafficCounters
from repro.sim.engine import EventScheduler
from repro.sim.latency import ConstantLatency, LatencyModel
from repro.sim.rng import derive_rng
from repro.telemetry import current as current_telemetry


@dataclasses.dataclass(frozen=True)
class TimedLookupResult:
    """Outcome of one timed MPIL lookup."""

    object_id: Identifier
    origin: int
    start_time: float
    success: bool
    first_reply_time: Optional[float]
    first_reply_hop: Optional[int]
    replies: tuple[tuple[int, int], ...]
    counters: TrafficCounters

    @property
    def latency(self) -> Optional[float]:
        if self.first_reply_time is None:
            return None
        return self.first_reply_time - self.start_time


class PendingLookup:
    """One in-flight timed lookup on a (possibly shared) scheduler.

    :meth:`TimedMPILNetwork.start_lookup` returns the handle immediately;
    the request's message events then run whenever the caller's scheduler
    executes them, interleaved with any other in-flight requests — the
    open-loop service drivers keep hundreds of these live at once.  The
    request is *complete* once every message copy it spawned has been
    delivered, lost, or suppressed (``outstanding`` reaches zero), at which
    point ``done`` flips and the optional completion callback fires.
    """

    __slots__ = (
        "object_id",
        "origin",
        "start_time",
        "counters",
        "replies",
        "first_reply_time",
        "first_reply_hop",
        "outstanding",
        "done",
    )

    def __init__(self, object_id: Identifier, origin: int, start_time: float):
        self.object_id = object_id
        self.origin = origin
        self.start_time = start_time
        self.counters = TrafficCounters()
        self.replies: list[tuple[int, int]] = []
        self.first_reply_time: Optional[float] = None
        self.first_reply_hop: Optional[int] = None
        #: message/reply events posted but not yet executed
        self.outstanding = 0
        self.done = False

    @property
    def success(self) -> bool:
        return bool(self.replies)

    def result(self) -> TimedLookupResult:
        """Snapshot the request as an immutable result (valid any time; the
        drivers call it after completion or a deadline cut-off)."""
        return TimedLookupResult(
            object_id=self.object_id,
            origin=self.origin,
            start_time=self.start_time,
            success=bool(self.replies),
            first_reply_time=self.first_reply_time,
            first_reply_hop=self.first_reply_hop,
            replies=tuple(self.replies),
            counters=self.counters,
        )


class TimedMPILNetwork:
    """MPIL over an arbitrary overlay with per-node availability.

    Parameters
    ----------
    overlay:
        Overlay adjacency (may be directed, e.g. Pastry neighbor lists).
    ids:
        Node identifiers (shared with any co-simulated protocol).
    config:
        MPIL parameters; ``duplicate_suppression`` selects DS / no-DS mode.
    availability:
        Ground-truth availability model (e.g. a flapping schedule).
    latency:
        Per-hop one-way latency model.
    """

    def __init__(
        self,
        overlay: OverlayGraph,
        space: IdSpace = IdSpace(),
        ids: Optional[Sequence[Identifier]] = None,
        config: MPILConfig = MPILConfig(),
        availability: AvailabilityModel = AlwaysOnline(),
        latency: LatencyModel = ConstantLatency(0.05),
        seed: object = 0,
    ):
        self.static = MPILNetwork(
            overlay, space=space, ids=ids, config=config, seed=seed
        )
        self.availability = availability
        self.latency = latency
        self.seed = seed
        self._request_counter = 0

    @property
    def request_counter(self) -> int:
        """Monotonic request id; each lookup's RNG stream derives from it.

        Service drivers snapshot and restore this around a run so a
        testbed shared across runs replays identical per-request noise.
        """
        return self._request_counter

    @request_counter.setter
    def request_counter(self, value: int) -> None:
        self._request_counter = int(value)

    # Convenience passthroughs ------------------------------------------------

    @property
    def config(self) -> MPILConfig:
        return self.static.config

    @property
    def overlay(self) -> OverlayGraph:
        return self.static.overlay

    @property
    def ids(self):
        return self.static.ids

    @property
    def directory(self):
        return self.static.directory

    def random_object_id(self, rng) -> Identifier:
        """Draw a fresh object identifier from the network's id space."""
        return self.static.random_object_id(rng)

    def insert_static(self, origin: int, object_id: Identifier, **kwargs):
        """Stage-1 insertion on the static (fully online) overlay."""
        return self.static.insert(origin, object_id, **kwargs)

    # Timed lookup -------------------------------------------------------------

    def start_lookup(
        self,
        engine: EventScheduler,
        origin: int,
        object_id: Identifier,
        start_time: Optional[float] = None,
        max_flows: Optional[int] = None,
        per_flow_replicas: Optional[int] = None,
        duplicate_suppression: Optional[bool] = None,
        on_complete: Optional[Callable[["PendingLookup"], None]] = None,
    ) -> PendingLookup:
        """Launch a lookup on a caller-owned scheduler and return its handle.

        This is the open-loop entry point: many lookups started on one
        shared ``engine`` stay in flight simultaneously, their message
        events interleaving in timestamp order — the service drivers issue
        arrivals this way while a perturbation timeline runs concurrently.
        ``start_time`` defaults to ``engine.now`` and must not precede it;
        the first message fires when the scheduler reaches that time.
        ``on_complete(pending)`` is invoked (inside the scheduler run) once
        every message copy has been delivered, lost, or suppressed.
        """
        n = self.overlay.n
        if not 0 <= origin < n:
            raise RoutingError(f"origin {origin} out of range (n={n})")
        launch_time = engine.now if start_time is None else float(start_time)
        request_id = self._request_counter
        self._request_counter += 1
        step = MPILStep(
            self.static,
            KIND_LOOKUP,
            request_id,
            object_id,
            origin,
            derive_rng(self.seed, "timed-request", request_id),
            max_hops=timed_hop_limit(self.config, self.static.space),
            suppress=duplicate_suppression,
        )
        advance = step.step
        pending = PendingLookup(object_id, origin, launch_time)
        counters = pending.counters

        telemetry = current_telemetry()
        spans = telemetry.spans  # None unless the run opted into tracing
        metrics = telemetry.metrics
        trace = None
        if spans is not None:
            trace = StepTrace(
                spans, "timed-lookup", origin, launch_time, request_id, object_id
            )

        def finish_event() -> None:
            """Retire one executed message/reply event; the request is
            complete when none remain outstanding."""
            pending.outstanding -= 1
            if pending.outstanding == 0 and not pending.done:
                pending.done = True
                metrics.inc("timed_lookups_total")
                if pending.replies:
                    metrics.inc("timed_lookups_success_total")
                metrics.inc("timed_messages_total", counters.messages_sent)
                if counters.lost_offline:
                    metrics.inc("timed_lost_offline_total", counters.lost_offline)
                if counters.duplicates:
                    metrics.inc("timed_duplicates_total", counters.duplicates)
                if trace is not None:
                    trace.spans.emit(
                        trace.trace_id,
                        "complete",
                        node=origin,
                        start=launch_time,
                        end=engine.now,
                        parent_id=trace.root,
                        success=pending.success,
                        messages=counters.messages_sent,
                    )
                if on_complete is not None:
                    on_complete(pending)

        def on_reply(holder: int, hop: int) -> None:
            counters.replies_received += 1
            pending.replies.append((holder, hop))
            if pending.first_reply_time is None:
                pending.first_reply_time = engine.now
                pending.first_reply_hop = hop
            finish_event()

        def process(msg: MPILMessage) -> None:
            node = msg.at
            now = engine.now
            if not self.availability.is_online(node, now):
                counters.lost_offline += 1
                if trace is not None:
                    trace.emit("lost-offline", node, now, msg.span)
                finish_event()
                return
            outcome = advance(msg)
            if trace is not None:
                trace.record(msg, outcome, now, 0.0)
            if outcome.duplicate:
                counters.duplicates += 1
            terminal = outcome.terminal
            if terminal is REPLY:
                # replies go straight back to the origin
                counters.replies_sent += 1
                pending.outstanding += 1
                engine.post(now + self.latency.latency(node, origin), on_reply, node, msg.hop)
            elif terminal is HOP_LIMIT:
                counters.drops_hop_limit += 1
            for child in outcome.children:
                counters.messages_sent += 1
                pending.outstanding += 1
                engine.post(now + self.latency.latency(node, child.at), process, child)
            finish_event()

        initial = step.launch(
            origin, max_flows, per_flow_replicas, None if trace is None else trace.root
        )
        pending.outstanding += 1
        engine.post(launch_time, process, initial)
        return pending

    def lookup_at(
        self,
        origin: int,
        object_id: Identifier,
        start_time: float,
        max_flows: Optional[int] = None,
        per_flow_replicas: Optional[int] = None,
        deadline: Optional[float] = None,
        duplicate_suppression: Optional[bool] = None,
    ) -> TimedLookupResult:
        """Issue a lookup at simulation time ``start_time``.

        The request runs to quiescence (all message copies delivered, lost,
        or stopped) or until ``deadline``; replies are direct messages back
        to the origin, which is assumed reachable (the experiment harness
        exempts the querying client from flapping, matching the paper's
        single always-querying node).  ``duplicate_suppression`` overrides
        the network config for this call — the Figure 11 experiment runs
        "MPIL with DS" and "MPIL without DS" against one shared insert
        stage.  This is the run-to-completion wrapper over
        :meth:`start_lookup`, which the open-loop service drivers use
        directly to keep many lookups in flight on one shared scheduler.
        """
        engine = EventScheduler(start_time=start_time)
        pending = self.start_lookup(
            engine,
            origin,
            object_id,
            start_time=start_time,
            max_flows=max_flows,
            per_flow_replicas=per_flow_replicas,
            duplicate_suppression=duplicate_suppression,
        )
        engine.run(until=deadline)
        return pending.result()
