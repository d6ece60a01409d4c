"""Synchronous MPIL driver for static overlays.

This is the reproduction of the paper's first simulator: "a simulator
written in Python that simulates overlay-level routing ... a message-level
simulator, not a packet-level simulator" (Section 6).  All nodes are
online; message propagation is hop-ordered (a FIFO queue gives exact
breadth-first timing, equivalent to unit per-hop latency), which is all the
static experiments of Section 6.1 measure.

The driver owns:

- the overlay graph and node identifiers;
- the vectorised :class:`~repro.core.metric.NeighborMetricTable`;
- the global :class:`~repro.core.replicas.ReplicaDirectory`;
- traffic/duplicate/flow accounting per request.

The per-node rule itself is :class:`~repro.core.step.MPILStep`, shared
with the timed driver; this driver only delivers copies in FIFO order and
applies no hop limit.
"""

from __future__ import annotations

import collections
from typing import Optional, Sequence

from repro.core.config import MPILConfig
from repro.core.identifiers import Identifier, IdSpace
from repro.core.messages import KIND_INSERT, KIND_LOOKUP, MPILMessage
from repro.core.metric import NeighborMetricTable, metric_by_name
from repro.core.replicas import ReplicaDirectory
from repro.core.results import InsertResult, LookupResult
from repro.core.step import REPLY, MPILStep, StepTrace
from repro.errors import ConfigurationError, RoutingError
from repro.overlay.graph import OverlayGraph
from repro.sim.engine import add_events_processed
from repro.sim.rng import derive_rng
from repro.telemetry import current as current_telemetry
from repro.util.cache import BoundedCache

#: node identifiers are a pure function of (seed, n, space); sweeps and
#: repeated runs over the same cell share one tuple
_IDS_CACHE: BoundedCache[tuple] = BoundedCache(maxsize=32)
#: neighbor metric tables are pure functions of (overlay, ids, metric);
#: keyed by identity of objects the entry itself keeps alive
_METRIC_TABLE_CACHE: BoundedCache[tuple] = BoundedCache(maxsize=12)


def _cached_node_ids(space: IdSpace, n: int, seed: object) -> tuple[Identifier, ...]:
    return _IDS_CACHE.get_or_build(
        (repr(seed), n, space),
        lambda: tuple(space.random_unique_identifiers(n, derive_rng(seed, "node-ids", n))),
    )


def _cached_metric_table(
    overlay: OverlayGraph, ids: tuple[Identifier, ...], metric_name: str
) -> NeighborMetricTable:
    # the entry holds the overlay and ids so the id()-based key stays valid
    # for exactly as long as the entry lives
    return _METRIC_TABLE_CACHE.get_or_build(
        (id(overlay), id(ids), metric_name),
        lambda: (
            overlay,
            ids,
            NeighborMetricTable(overlay, ids, metric=metric_by_name(metric_name)),
        ),
    )[2]


class MPILNetwork:
    """A static overlay running the MPIL insertion/lookup protocol.

    Parameters
    ----------
    overlay:
        Any :class:`OverlayGraph` (the algorithm is overlay-independent).
    space:
        Identifier space (default: the paper's 160-bit base-16 space).
    ids:
        Optional explicit node identifiers; drawn uniformly at random
        (distinct) when omitted.
    config:
        :class:`MPILConfig` defaults for insert/lookup operations; individual
        calls may override ``max_flows`` and ``per_flow_replicas``.
    seed:
        Root seed for identifier generation and tie-break randomness.
    """

    def __init__(
        self,
        overlay: OverlayGraph,
        space: IdSpace = IdSpace(),
        ids: Optional[Sequence[Identifier]] = None,
        config: MPILConfig = MPILConfig(),
        seed: object = 0,
    ):
        self.overlay = overlay
        self.space = space
        self.config = config
        self.seed = seed
        if ids is None:
            self.ids: tuple[Identifier, ...] = _cached_node_ids(space, overlay.n, seed)
            share_table = True
        else:
            if len(ids) != overlay.n:
                raise ConfigurationError(
                    f"{len(ids)} identifiers supplied for {overlay.n} nodes"
                )
            for identifier in ids:
                if identifier.space != space:
                    raise ConfigurationError(
                        "explicit identifiers must live in the network's id space"
                    )
            # identity-keyed sharing only helps callers that reuse one ids
            # tuple (e.g. mpil_on_pastry passing the cached Pastry ids); a
            # fresh list/tuple per construction would guarantee misses while
            # churning useful entries out of the bounded cache
            share_table = isinstance(ids, tuple)
            self.ids = ids if share_table else tuple(ids)
        if share_table:
            self.metric_table = _cached_metric_table(overlay, self.ids, config.metric)
        else:
            self.metric_table = NeighborMetricTable(
                overlay, self.ids, metric=metric_by_name(config.metric)
            )
        self.directory = ReplicaDirectory()
        self._next_request_id = 0

    # -- public API ---------------------------------------------------------

    @property
    def request_counter(self) -> int:
        """Monotonic request id; each request's RNG stream derives from it.

        Callers that replay workloads on a shared network (the service
        drivers) snapshot and restore this so repeats see identical noise.
        """
        return self._next_request_id

    @request_counter.setter
    def request_counter(self, value: int) -> None:
        self._next_request_id = int(value)

    def random_object_id(self, rng) -> Identifier:
        """Draw a fresh object identifier from the network's id space."""
        return self.space.random_identifier(rng)

    def insert(
        self,
        origin: int,
        object_id: Identifier,
        owner: Optional[int] = None,
        max_flows: Optional[int] = None,
        per_flow_replicas: Optional[int] = None,
    ) -> InsertResult:
        """Insert a pointer for ``object_id`` starting from ``origin``.

        ``owner`` identifies the node that actually holds the object (the
        pointer target); it defaults to the origin.
        """
        self._check_node(origin)
        owner = origin if owner is None else owner
        run = self._run_request(
            KIND_INSERT, origin, object_id, owner, max_flows, per_flow_replicas
        )
        return InsertResult(
            object_id=object_id,
            origin=origin,
            owner=owner,
            replicas=tuple(sorted(run["stored"])),
            traffic=run["traffic"],
            duplicates=run["duplicates"],
            flows_created=run["flows"],
            max_hop=run["max_hop"],
        )

    def lookup(
        self,
        origin: int,
        object_id: Identifier,
        max_flows: Optional[int] = None,
        per_flow_replicas: Optional[int] = None,
    ) -> LookupResult:
        """Query for ``object_id`` starting from ``origin``."""
        self._check_node(origin)
        run = self._run_request(
            KIND_LOOKUP, origin, object_id, origin, max_flows, per_flow_replicas
        )
        replies = tuple(run["replies"])
        return LookupResult(
            object_id=object_id,
            origin=origin,
            success=bool(replies),
            first_reply_hop=replies[0][1] if replies else None,
            replies=replies,
            traffic=run["traffic"],
            traffic_at_first_reply=run["traffic_at_first_reply"],
            duplicates=run["duplicates"],
            flows_created=run["flows"],
        )

    def delete(self, object_id: Identifier) -> int:
        """Remove every replica of an object from the directory.

        The full deletion *protocol* (heartbeats + explicit delete messages,
        Section 4.4) lives in :class:`repro.core.heartbeats.HeartbeatService`;
        this method is the directory-level primitive it uses.
        """
        return self.directory.remove_object(object_id)

    # -- request propagation -------------------------------------------------

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.overlay.n:
            raise RoutingError(f"node index {node} out of range (n={self.overlay.n})")

    def _run_request(
        self,
        kind: str,
        origin: int,
        object_id: Identifier,
        owner: int,
        max_flows: Optional[int],
        per_flow_replicas: Optional[int],
    ) -> dict:
        """Propagate one request to quiescence and return its accounting."""
        request_id = self._next_request_id
        self._next_request_id += 1
        rng = derive_rng(self.seed, "request", request_id)
        step = MPILStep(self, kind, request_id, object_id, owner, rng, max_hops=None)

        telemetry = current_telemetry()
        spans = telemetry.spans  # None unless the run opted into tracing
        trace = None
        if spans is not None:
            trace = StepTrace(spans, kind, origin, 0.0, request_id, object_id)

        queue: collections.deque[MPILMessage] = collections.deque()
        queue.append(
            step.launch(
                origin, max_flows, per_flow_replicas, None if trace is None else trace.root
            )
        )
        advance = step.step
        stored: list[int] = []
        replies: list[tuple[int, int]] = []
        traffic = 0
        traffic_at_first_reply: Optional[int] = None
        duplicates = 0
        flows = 0
        max_hop = 0
        events = 0

        # FIFO delivery: every copy sent at hop h is handled before any
        # copy sent at hop h + 1, so hop number is time
        while queue:
            msg = queue.popleft()
            events += 1
            if msg.hop > max_hop:
                max_hop = msg.hop
            outcome = advance(msg)
            if trace is not None:
                trace.record(msg, outcome, float(msg.hop), 1.0)
            if outcome.duplicate:
                duplicates += 1
            if outcome.terminal is REPLY:
                replies.append((msg.at, msg.hop))
                if traffic_at_first_reply is None:
                    traffic_at_first_reply = traffic
            elif outcome.stored and msg.at not in stored:
                stored.append(msg.at)
            children = outcome.children
            if children:
                flows += outcome.new_flows
                traffic += len(children)
                queue.extend(children)

        add_events_processed(events)
        metrics = telemetry.metrics
        metrics.inc("mpil_requests_total", kind=kind)
        if traffic:
            metrics.inc("mpil_messages_total", traffic, kind=kind)
        if duplicates:
            metrics.inc("mpil_duplicates_total", duplicates, kind=kind)
        if kind == KIND_LOOKUP:
            if replies:
                metrics.inc("mpil_replies_total", len(replies))
        elif stored:
            metrics.inc("mpil_replicas_stored_total", len(stored))
        metrics.histogram("mpil_request_max_hop", kind=kind).observe(max_hop)
        return {
            "stored": stored,
            "replies": replies,
            "traffic": traffic,
            "traffic_at_first_reply": traffic_at_first_reply,
            "duplicates": duplicates,
            "flows": flows,
            "max_hop": max_hop,
        }
