"""Tests for RNG streams, counters, latency models, and tracing."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.overlay.transit_stub import TransitStubUnderlay
from repro.sim.counters import TrafficCounters
from repro.sim.latency import ConstantLatency, UniformRandomLatency, UnderlayLatency
from repro.sim.rng import derive_rng, derive_seed


class TestRng:
    def test_same_labels_same_stream(self):
        assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)
        r1, r2 = derive_rng(1, "a", 2), derive_rng(1, "a", 2)
        assert [r1.random() for _ in range(5)] == [r2.random() for _ in range(5)]

    def test_different_labels_different_streams(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")
        assert derive_seed(1, "a") != derive_seed(2, "a")
        assert derive_seed(1, "a", 0) != derive_seed(1, "a", 1)

    def test_tuple_seed_supported(self):
        assert derive_seed((1, "x"), "a") == derive_seed((1, "x"), "a")


class TestCounters:
    def test_merge_adds_fields(self):
        a = TrafficCounters(messages_sent=2, duplicates=1)
        b = TrafficCounters(messages_sent=3, retransmissions=4)
        a.merge(b)
        assert a.messages_sent == 5
        assert a.duplicates == 1
        assert a.retransmissions == 4

    def test_copy_is_independent(self):
        a = TrafficCounters(messages_sent=1)
        b = a.copy()
        b.messages_sent += 1
        assert a.messages_sent == 1

    def test_total_excludes_duplicates(self):
        c = TrafficCounters(
            messages_sent=2, duplicates=9, replies_sent=1, retransmissions=1, probes_sent=1
        )
        assert c.total == 5

    def test_as_dict(self):
        assert TrafficCounters(messages_sent=2).as_dict()["messages_sent"] == 2


class TestLatencyModels:
    def test_constant(self):
        model = ConstantLatency(0.2)
        assert model.latency(1, 2) == 0.2
        with pytest.raises(ConfigurationError):
            ConstantLatency(-1)

    def test_uniform_random_symmetric_and_stable(self):
        model = UniformRandomLatency(0.01, 0.05, seed=3)
        x = model.latency(1, 2)
        assert model.latency(2, 1) == x
        assert model.latency(1, 2) == x
        assert 0.01 <= x <= 0.05
        assert model.latency(1, 1) == 0.0
        with pytest.raises(ConfigurationError):
            UniformRandomLatency(0.5, 0.1)

    def test_underlay_latency(self):
        underlay = TransitStubUnderlay.for_size(60, seed=1)
        attachment = underlay.random_attachment(10, seed=2)
        model = UnderlayLatency(underlay, attachment)
        assert model.latency(0, 0) == 0.0
        value = model.latency(0, 5)
        assert value > 0
        assert model.latency(5, 0) == pytest.approx(value)

    def test_underlay_attachment_validated(self):
        underlay = TransitStubUnderlay.for_size(60, seed=1)
        with pytest.raises(ConfigurationError):
            UnderlayLatency(underlay, [underlay.num_nodes + 5])
