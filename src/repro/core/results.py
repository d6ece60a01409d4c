"""Result records returned by the MPIL drivers.

Every metric the paper reports for Figures 9–10 and Tables 1–3 is a field
here: replica counts, traffic ("a counter is increased by one whenever a
node sends a message to a single neighbor"), duplicate messages ("whenever
a node receives the same insertion request from a different neighbor, it is
considered as a duplicate request"), flows actually created, hops of the
first successful reply, and the traffic consumed up to that first reply.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.core.identifiers import Identifier


@dataclasses.dataclass(frozen=True)
class InsertResult:
    """Outcome of one MPIL insertion."""

    object_id: Identifier
    origin: int
    owner: int
    replicas: tuple[int, ...]
    traffic: int
    duplicates: int
    flows_created: int
    max_hop: int

    @property
    def replica_count(self) -> int:
        return len(self.replicas)


@dataclasses.dataclass(frozen=True)
class LookupResult:
    """Outcome of one MPIL lookup."""

    object_id: Identifier
    origin: int
    success: bool
    first_reply_hop: Optional[int]
    replies: tuple[tuple[int, int], ...]  # (holder node, hop) pairs
    traffic: int
    traffic_at_first_reply: Optional[int]
    duplicates: int
    flows_created: int
