"""MPIL message types.

A request (insertion or lookup) is carried by :class:`MPILMessage` copies.
Each copy represents one flow segment and carries:

- the object identifier being inserted or queried;
- ``route`` — "a message field called route, which contains the list of
  nodes that the message has visited" (Section 4.3), used to exclude
  already-visited nodes from candidate selection;
- ``max_flows`` — the residual flow budget for this copy;
- ``replicas_left`` — per-flow replicas still to store (insertion) or local
  maxima still allowed before the flow stops (lookup);
- ``given_flows`` — 0 only for the copy being processed at the originator;
- ``span`` — the id of the span that sent this copy, when the run records
  spans (trace context only: the protocol never reads it).
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.core.identifiers import Identifier

KIND_INSERT = "insert"
KIND_LOOKUP = "lookup"


@dataclasses.dataclass(slots=True)
class MPILMessage:
    """One flow segment of an MPIL request."""

    kind: str
    request_id: int
    object_id: Identifier
    origin: int
    owner: int
    at: int
    route: tuple[int, ...]
    max_flows: int
    replicas_left: int
    hop: int = 0
    given_flows: int = 0
    span: Optional[int] = dataclasses.field(default=None, compare=False)

    def child(self, next_node: int, budget: int) -> "MPILMessage":
        """The copy forwarded from ``self.at`` to ``next_node``."""
        return MPILMessage(
            kind=self.kind,
            request_id=self.request_id,
            object_id=self.object_id,
            origin=self.origin,
            owner=self.owner,
            at=next_node,
            route=self.route + (self.at,),
            max_flows=budget,
            replicas_left=self.replicas_left,
            hop=self.hop + 1,
            given_flows=1,
        )


@dataclasses.dataclass(slots=True, frozen=True)
class LookupReply:
    """Direct reply from a replica holder to the querying node."""

    request_id: int
    object_id: Identifier
    holder: int
    owner: int
    hop: int
