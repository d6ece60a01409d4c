"""The MPIL per-node rule (Figure 5's pseudo-code), written once.

:class:`MPILStep` holds one request's state.  ``step(msg)`` applies the
rule where a copy has arrived — duplicate check, directory hit, hop
limit, forwarding decision, in that order — and returns a
:class:`StepOutcome`.  The step knows nothing of time; its drivers only
choose when each copy is delivered: :class:`~repro.core.network.MPILNetwork`
from a FIFO queue, so hop number is time (Section 6.1), and
:class:`~repro.core.timed.TimedMPILNetwork` on an event scheduler after
latency draws and availability checks (Section 6.2).  :class:`StepTrace`
emits both drivers' spans from the outcomes.
"""

from __future__ import annotations

import dataclasses
import random
from typing import TYPE_CHECKING, Optional, Sequence

from repro.core.config import MPILConfig
from repro.core.identifiers import Identifier, IdSpace
from repro.core.messages import KIND_LOOKUP, MPILMessage
from repro.core.routing import decide_forwarding
from repro.telemetry.spans import SpanRecorder

if TYPE_CHECKING:
    from repro.core.network import MPILNetwork

#: terminal events of a step; compare them by identity
REPLY = "reply"  # the node holds a replica and replies to the origin
HOP_LIMIT = "hop-limit"  # the copy reached the hop limit and is dropped
SUPPRESSED = "suppressed"  # a duplicate copy discarded under DS


def timed_hop_limit(config: MPILConfig, space: IdSpace) -> int:
    """The timed driver's hop limit: ``config.max_hops``, or four times
    the identifier's digit count when that is ``None``."""
    if config.max_hops is not None:
        return config.max_hops
    return 4 * space.num_digits


@dataclasses.dataclass(slots=True)
class StepOutcome:
    """What one node did with one message copy (read-only: childless
    outcomes are shared).  ``terminal`` is :data:`REPLY`,
    :data:`HOP_LIMIT`, :data:`SUPPRESSED` or ``None``; ``children`` are
    the forwarded copies in decision order, creating ``new_flows`` flows."""

    duplicate: bool
    terminal: Optional[str] = None
    stored: bool = False
    children: Sequence[MPILMessage] = ()
    new_flows: int = 0


_SUPPRESSED = StepOutcome(True, SUPPRESSED)
#: indexed by ``duplicate``
_REPLY = (StepOutcome(False, REPLY), StepOutcome(True, REPLY))
_HOP_LIMIT = (StepOutcome(False, HOP_LIMIT), StepOutcome(True, HOP_LIMIT))
_STOP = (StepOutcome(False), StepOutcome(True))


class MPILStep:
    """The per-node MPIL rule for one request on ``network``.

    ``max_hops`` is ``None`` for no hop limit (the synchronous driver:
    routes only grow, so propagation ends) or :func:`timed_hop_limit`.
    ``suppress`` overrides ``config.duplicate_suppression`` when given.
    """

    __slots__ = (
        "kind",
        "is_lookup",
        "request_id",
        "object_id",
        "owner",
        "rng",
        "config",
        "suppress",
        "max_hops",
        "received",
        "directory",
        "scores_with_self",
        "neighbor_list",
    )

    def __init__(
        self,
        network: MPILNetwork,
        kind: str,
        request_id: int,
        object_id: Identifier,
        owner: int,
        rng: random.Random,
        max_hops: Optional[int],
        suppress: Optional[bool] = None,
    ):
        self.kind = kind
        self.is_lookup = kind == KIND_LOOKUP
        self.request_id = request_id
        self.object_id = object_id
        self.owner = owner
        self.rng = rng
        self.config = config = network.config
        self.suppress = config.duplicate_suppression if suppress is None else suppress
        self.max_hops = max_hops
        self.received: set[int] = set()
        self.directory = network.directory
        self.scores_with_self = network.metric_table.scores_with_self
        self.neighbor_list = network.metric_table.neighbor_list

    def launch(
        self,
        origin: int,
        max_flows: Optional[int],
        per_flow_replicas: Optional[int],
        span: Optional[int],
    ) -> MPILMessage:
        """The request's first copy, at ``origin``; ``None`` budgets take
        the config's values."""
        cfg = self.config
        return MPILMessage(
            kind=self.kind,
            request_id=self.request_id,
            object_id=self.object_id,
            origin=origin,
            owner=self.owner,
            at=origin,
            route=(),
            max_flows=cfg.max_flows if max_flows is None else max_flows,
            replicas_left=(
                cfg.per_flow_replicas if per_flow_replicas is None else per_flow_replicas
            ),
            span=span,
        )

    def step(self, msg: MPILMessage) -> StepOutcome:
        """Apply the rule at ``msg.at`` and report what happened."""
        node = msg.at
        duplicate = node in self.received
        if duplicate:
            if self.suppress:
                return _SUPPRESSED
        else:
            self.received.add(node)

        object_id = self.object_id
        if self.is_lookup and self.directory.has(node, object_id):
            # "each recipient node checks to see it has the object; if it
            # does, it stops forwarding the query and replies back
            # directly to the querying node."
            return _REPLY[duplicate]
        if self.max_hops is not None and msg.hop >= self.max_hops:
            return _HOP_LIMIT[duplicate]

        scores = self.scores_with_self(node, object_id)
        excluded = set(msg.route)
        excluded.add(node)
        decision = decide_forwarding(
            self_score=scores[0],
            neighbor_ids=self.neighbor_list(node),
            neighbor_scores=scores[1:],
            excluded=excluded,
            max_flows=msg.max_flows,
            given_flows=msg.given_flows,
            rng=self.rng,
            tie_break=self.config.tie_break,
            local_max_rule=self.config.local_max_rule,
        )

        replicas_left = msg.replicas_left
        stored = False
        if decision.is_local_max:
            if not self.is_lookup:
                self.directory.store(node, object_id, self.owner, hop=msg.hop)
                stored = True
            replicas_left -= 1
            if replicas_left <= 0:
                return StepOutcome(duplicate, None, True) if stored else _STOP[duplicate]

        children = []
        for next_node, budget in zip(decision.next_hops, decision.budgets):
            child = msg.child(next_node, budget)
            child.replicas_left = replicas_left
            children.append(child)
        return StepOutcome(duplicate, None, stored, children, decision.new_flows)


class StepTrace:
    """One request's spans, emitted from its step outcomes.

    Opening one emits the root span.  Each copy carries the id of the
    ``send`` span that delivered it (``msg.span``), so an outcome's spans
    hang under the right parent in any delivery order.
    """

    __slots__ = ("spans", "trace_id", "request_id", "root")

    def __init__(
        self,
        spans: SpanRecorder,
        name: str,
        origin: int,
        start: float,
        request_id: int,
        object_id: Identifier,
    ):
        self.spans = spans
        self.trace_id = spans.begin_trace(name)
        self.request_id = request_id
        self.root = self.emit(name, origin, start, None, object=str(object_id))

    def emit(self, name: str, node: int, start: float, parent_id: Optional[int], **attrs) -> int:
        """One span of this request's work; returns its id."""
        return self.spans.emit(
            self.trace_id,
            name,
            node=node,
            start=start,
            parent_id=parent_id,
            request=self.request_id,
            **attrs,
        )

    def record(
        self, msg: MPILMessage, outcome: StepOutcome, start: float, send_duration: float
    ) -> None:
        """Emit the spans of ``outcome`` at ``start``; each child's ``send``
        span ends ``send_duration`` later and becomes its ``msg.span``."""
        node = msg.at
        parent_id = msg.span
        terminal = outcome.terminal
        if outcome.duplicate:
            name = "dup-drop" if terminal is SUPPRESSED else "dup"
            self.emit(name, node, start, parent_id)
        if terminal is REPLY:
            self.emit("reply", node, start, parent_id, hop=msg.hop)
        elif terminal is HOP_LIMIT:
            self.emit("drop", node, start, parent_id, reason="hop-limit")
        if outcome.stored:
            self.emit("store", node, start, parent_id)
        end = start + send_duration
        for child in outcome.children:
            child.span = self.emit("send", node, start, parent_id, end=end, to=child.at)
