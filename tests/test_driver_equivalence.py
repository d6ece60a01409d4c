"""Cross-driver differential test: the synchronous and the timed MPIL
drivers run one protocol step, so under the conditions where their clocks
agree they must agree message for message.

With deterministic tie-breaking (no RNG draws decide a route), every node
online and a constant one-unit latency, the timed driver delivers each
copy at time = hop number, in the same FIFO order as the synchronous
driver's breadth-first queue.  Both drivers share one replica directory,
so a lookup through either sees the same holders.
"""

from __future__ import annotations

import pytest

from repro.core.config import MPILConfig
from repro.core.identifiers import IdSpace
from repro.core.timed import TimedMPILNetwork
from repro.overlay.power_law import power_law_graph
from repro.overlay.random_graphs import fixed_degree_random_graph
from repro.sim.availability import AlwaysOnline
from repro.sim.latency import ConstantLatency
from repro.sim.rng import derive_rng

SPACE = IdSpace(bits=32, digit_bits=4)
N = 120
OBJECTS = 10
LOOKUPS = 25

OVERLAYS = {
    "random-regular": lambda: fixed_degree_random_graph(N, degree=6, seed=3),
    "power-law": lambda: power_law_graph(N, seed=3),
}


@pytest.mark.parametrize("overlay_name", sorted(OVERLAYS))
@pytest.mark.parametrize("max_flows", [1, 4, 10])
@pytest.mark.parametrize("duplicate_suppression", [True, False], ids=["ds", "no-ds"])
def test_sync_and_timed_lookups_agree(overlay_name, max_flows, duplicate_suppression):
    config = MPILConfig(
        max_flows=max_flows,
        per_flow_replicas=3,
        duplicate_suppression=duplicate_suppression,
        tie_break="lowest-id",
    )
    net = TimedMPILNetwork(
        OVERLAYS[overlay_name](),
        space=SPACE,
        config=config,
        availability=AlwaysOnline(),
        latency=ConstantLatency(1.0),
        seed=5,
    )
    rng = derive_rng(5, "driver-equivalence", overlay_name, max_flows)
    objects = [SPACE.random_identifier(rng) for _ in range(OBJECTS)]
    for obj in objects:
        net.insert_static(rng.randrange(N), obj)

    successes = 0
    for _ in range(LOOKUPS):
        origin = rng.randrange(N)
        obj = objects[rng.randrange(OBJECTS)]
        sync = net.static.lookup(origin, obj)
        timed = net.lookup_at(origin, obj, 0.0)
        assert timed.replies == sync.replies
        assert timed.first_reply_hop == sync.first_reply_hop
        assert timed.counters.messages_sent == sync.traffic
        assert timed.counters.duplicates == sync.duplicates
        assert timed.counters.drops_hop_limit == 0
        successes += sync.success
    # the comparison has teeth: some lookups find a replica
    assert successes > 0
