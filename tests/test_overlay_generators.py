"""Pinned graphs and networkx differentials for the overlay generators.

The power-law and random-regular generators are ports of networkx's
configuration and pairing models that consume the same ``random.Random``
stream.  The digests below were recorded with the networkx-backed
generators the ports replaced: a changed digest is a bug in the port,
never a reason to re-record.  The differential tests compare the ports
with networkx itself where networkx is installed.
"""

from __future__ import annotations

import hashlib
import itertools
import random

import numpy as np
import pytest

from repro.errors import OverlayError
from repro.overlay.graph import OverlayGraph
from repro.overlay.power_law import (
    _configuration_pairs,
    power_law_graph,
    sample_power_law_degrees,
)
from repro.overlay.random_graphs import (
    _pairing_edges,
    fixed_degree_random_graph,
    gnp_random_graph,
)
from repro.sim.rng import derive_seed

#: sha256 of ``adjacency_arrays()`` of ``power_law_graph(n, seed=seed)``,
#: keyed by ``(n, seed)``
POWER_LAW_DIGESTS = {
    (50, 0): "cf47dd5be612f53a585c5ffb7884ce556c282dc5d6f49c99d5b35b67d58a7bf0",
    (50, 1): "d2375885b45090393a0e82e8663904fe31a6e723adc985c09f6ea8b9a49c0cca",
    (50, 2): "3f541b14521cae36faecb6228c12b33d45e37fa6b778fb218ecb59a70b207373",
    (50, 7): "c7be3b5d3a314bbce93e41665503d4c5befedd16ba61314d47528867511957da",
    (1000, 0): "4f52e82e20f6f27d06ae26ea615bf4170b8a57a6888e43d9577c19332423c585",
    (1000, 1): "863435398ea52ad4146b90d7fc2c4971fe8c2cc32599843db98280f22155dc36",
    (1000, 2): "e7f271889f8d09c9e3017d97013d8595d064d61bdc2e748acaba5e0d43609d9a",
    (1000, 7): "c95ac7ea25f23b85cec30d37fc6ba21731bc5e2fd8ce201719fc102b1c532945",
    (4000, 0): "d6794f91624ffb9952f87a4ecd91c153f1c97b92b547c46bc973abeff0fb5642",
    (4000, 1): "65dad8d3e0a260a7f3351cbb011ca4b12388276ccdc6fc93401d164946f86037",
    (4000, 2): "b08203e16fdc328053405fedbb42f760869eed4e0fdbd6577f96564cf6cb5112",
    (4000, 7): "80198c8e825b40d7229b097e1c8275b714b7e83bd0d15996d375845562f634a3",
}

#: the same for ``fixed_degree_random_graph(n, degree, seed=seed)``, keyed
#: by ``(n, degree, seed)``.  (12, 2, *) need several connectivity
#: attempts; (50, 10, 1) and (50, 10, 3) restart the pairing loop.
FIXED_DEGREE_DIGESTS = {
    (12, 2, 0): "7a6650d235b9a05355b86872496e14d248c6c543f656e0995d1055fb94608701",
    (12, 2, 1): "ed3fe40f08c2ed7057d51ff84da7bdeb3e30b1bbe64990920df9e811e79b393d",
    (50, 10, 0): "e6d509445f1ccdb3c6431b461fd4a862b33b7816b3fa8dd756306b359d695712",
    (50, 10, 1): "c3d8217d4b4ddbf38054e03e2a05ba94181561261052281746133139d924065f",
    (50, 10, 2): "76e594ca023097f5c7056e0fbe970102e185776f2af4b39bfe787771047c9669",
    (50, 10, 3): "d07d693224ca2ca0a7977b8467c9d65dae8fd40b3b94367d267eb6e2f12440ad",
    (1000, 100, 0): "0adef027617de80e1cb0407fe06a91374a686d6661bcc0dc60080483000648a2",
    (1000, 100, 1): "9aa06aa99ab5fb303fd2065ca48a30d07247bc8c962792e9f7d58da5206eeeb5",
    (4000, 100, 0): "b2fca286c84b6f9a0cbfb906700ee3b01696c8002e7a1273981c2f51e591a326",
}


def _digest(overlay: OverlayGraph) -> str:
    indptr, indices = overlay.adjacency_arrays()
    digest = hashlib.sha256()
    digest.update(indptr.astype("<i8").tobytes())
    digest.update(indices.astype("<i8").tobytes())
    return digest.hexdigest()


class _ShuffleLog(random.Random):
    """``random.Random`` that records the length of every list it shuffles."""

    def __init__(self, seed: int):
        super().__init__(seed)
        self.shuffled: list[int] = []

    def shuffle(self, x) -> None:  # type: ignore[override]
        self.shuffled.append(len(x))
        super().shuffle(x)


def _edge_set(pairs) -> set[tuple[int, int]]:
    return {(min(u, v), max(u, v)) for u, v in pairs}


def _pairing_edge_set(n: int, degree: int, rng: random.Random) -> set[tuple[int, int]]:
    return {divmod(key, n) for key in _pairing_edges(n, degree, rng)}


# -- pinned outputs ----------------------------------------------------------


@pytest.mark.parametrize(("n", "seed"), sorted(POWER_LAW_DIGESTS))
def test_power_law_graph_matches_pinned_digest(n, seed):
    assert _digest(power_law_graph(n, seed=seed)) == POWER_LAW_DIGESTS[(n, seed)]


@pytest.mark.parametrize(("n", "degree", "seed"), sorted(FIXED_DEGREE_DIGESTS))
def test_fixed_degree_random_graph_matches_pinned_digest(n, degree, seed):
    overlay = fixed_degree_random_graph(n, degree, seed=seed)
    assert set(overlay.degrees) == {degree}
    assert _digest(overlay) == FIXED_DEGREE_DIGESTS[(n, degree, seed)]


@pytest.mark.parametrize("seed", [1, 3])
def test_pinned_cases_restart_the_pairing_loop(seed):
    """The pinned (50, 10, 1) and (50, 10, 3) graphs pass through a failed
    pairing (a second full-length shuffle), so the restart path is pinned."""
    rng = _ShuffleLog(derive_seed(seed, "random-regular", 50, 10, 0) % (2**32))
    _pairing_edges(50, 10, rng)
    assert rng.shuffled.count(500) > 1


# -- CSR helper --------------------------------------------------------------


def test_from_endpoints_simplifies_and_sorts():
    overlay = OverlayGraph.from_endpoints(
        4, [3, 0, 1, 1, 2, 0], [0, 3, 1, 2, 1, 1], name="x"
    )
    assert [overlay.neighbors(u) for u in range(4)] == [(1, 3), (0, 2), (1,), (0,)]
    assert overlay.name == "x"
    directed = OverlayGraph.from_endpoints(3, [2, 0, 0], [0, 2, 2], directed=True)
    assert [directed.neighbors(u) for u in range(3)] == [(2,), (), (0,)]


def test_from_endpoints_rejects_bad_input():
    with pytest.raises(OverlayError):
        OverlayGraph.from_endpoints(3, [0, 1], [1, 3])
    with pytest.raises(OverlayError):
        OverlayGraph.from_endpoints(3, [0, -1], [1, 2])
    with pytest.raises(OverlayError):
        OverlayGraph.from_endpoints(3, [0, 1], [1])
    empty = OverlayGraph.from_endpoints(3, [], [])
    assert empty.num_edges == 0 and not empty.is_connected()


# -- differentials against networkx -----------------------------------------

#: (n, d, seed) pairing cases: every even-stub degree on n = 4..13,
#: d = n - 1 (complete graphs, the hardest pairing) included
PAIRING_CASES = [
    (n, degree, seed)
    for n in range(4, 14)
    for degree in range(0, n)
    if (n * degree) % 2 == 0
    for seed in (0, 1)
]


def test_pairing_cases_cover_restarts_and_leftover_rounds():
    restarts = leftover_rounds = 0
    for n, degree, seed in PAIRING_CASES:
        rng = _ShuffleLog(seed)
        _pairing_edges(n, degree, rng)
        full = rng.shuffled.count(n * degree)
        restarts += full > 1
        leftover_rounds += len(rng.shuffled) > full
    assert len(PAIRING_CASES) >= 100
    assert any(degree == n - 1 for n, degree, _ in PAIRING_CASES)
    assert restarts and leftover_rounds


@pytest.mark.parametrize(("n", "degree", "seed"), PAIRING_CASES)
def test_pairing_matches_networkx_random_regular_graph(n, degree, seed):
    nx = pytest.importorskip("networkx")
    reference = nx.random_regular_graph(degree, n, seed=random.Random(seed))
    assert _pairing_edge_set(n, degree, random.Random(seed)) == _edge_set(
        reference.edges()
    )


@pytest.mark.parametrize("seed", range(6))
def test_pairing_matches_networkx_at_paper_degree(seed):
    nx = pytest.importorskip("networkx")
    reference = nx.random_regular_graph(100, 300, seed=random.Random(seed))
    assert _pairing_edge_set(300, 100, random.Random(seed)) == _edge_set(
        reference.edges()
    )


@pytest.mark.parametrize(("n", "seed"), [(50, 0), (50, 3), (400, 1), (1000, 2)])
def test_configuration_pairs_match_networkx(n, seed):
    nx = pytest.importorskip("networkx")
    degrees = sample_power_law_degrees(n, 2.2, 2, n - 1, seed)
    multigraph = nx.configuration_model(degrees, seed=random.Random(seed))
    sources, targets = _configuration_pairs(degrees, random.Random(seed))
    ours = sorted((min(u, v), max(u, v)) for u, v in zip(sources, targets))
    theirs = sorted((min(u, v), max(u, v)) for u, v in multigraph.edges())
    assert ours == theirs
    simple = nx.Graph(multigraph)
    simple.remove_edges_from(list(nx.selfloop_edges(simple)))
    overlay = OverlayGraph.from_endpoints(n, sources, targets)
    assert set(overlay.edges()) == _edge_set(simple.edges())


@pytest.mark.parametrize("p", [0.0, 0.1, 1.0])
@pytest.mark.parametrize(("n", "seed"), [(1, 0), (30, 0), (30, 5), (80, 2)])
def test_gnp_random_graph_matches_networkx(n, p, seed):
    nx = pytest.importorskip("networkx")
    reference = nx.gnp_random_graph(
        n, p, seed=derive_seed(seed, "gnp", n, p) % (2**32)
    )
    overlay = gnp_random_graph(n, p, seed=seed)
    assert set(overlay.edges()) == _edge_set(reference.edges())
    assert overlay.n == n


def test_from_networkx_round_trips_through_from_endpoints():
    nx = pytest.importorskip("networkx")
    graph = nx.MultiGraph()
    graph.add_nodes_from(range(5))
    graph.add_edges_from([(0, 1), (1, 0), (2, 2), (3, 4), (4, 1)])
    overlay = OverlayGraph.from_networkx(graph)
    assert set(overlay.edges()) == {(0, 1), (3, 4), (1, 4)}
    back = OverlayGraph.from_networkx(overlay.to_networkx())
    assert np.array_equal(back.adjacency_arrays()[1], overlay.adjacency_arrays()[1])
    directed = nx.DiGraph([(0, 1), (2, 1)])
    assert [OverlayGraph.from_networkx(directed).neighbors(u) for u in range(3)] == [
        (1,),
        (),
        (1,),
    ]


def test_pairing_at_degree_n_minus_1_gives_the_complete_graph():
    """d = n - 1 pairs into the complete graph, whatever the stream."""
    for n in (4, 6, 9):
        edges = _pairing_edge_set(n, n - 1, random.Random(7))
        assert edges == set(itertools.combinations(range(n), 2))
