"""Random overlay generators.

The paper's "random graphs" give every node exactly 100 neighbors — i.e.
random regular graphs ("In these random graphs, each node has 100
neighbors, equally").  :func:`fixed_degree_random_graph` is the exported
name for that family; :func:`random_regular_graph` is the underlying
generator.  A G(n, p) generator and a ring lattice are included for tests
and examples.
"""

from __future__ import annotations

import collections
import itertools
import random

from repro.errors import OverlayError
from repro.overlay.graph import OverlayGraph
from repro.sim.rng import derive_rng, derive_rng_32bit


def _pairing_edges(n: int, degree: int, rng: random.Random) -> set[int]:
    """Edges of a random ``degree``-regular graph, each as ``u * n + v``
    with ``u < v``.

    A port of networkx's ``random_regular_graph`` pairing loop (Steger and
    Wormald): the same shuffles of the same stub lists, the same order of
    leftover stubs and the same restart on a dead end, so a given ``rng``
    yields exactly networkx's edge set.
    """
    if degree == 0:
        return set()

    def suitable(edges: set[int], potential_edges: dict[int, int]) -> bool:
        # a round may leave only stubs that can no longer pair: restart
        if not potential_edges:
            return True
        for s1 in potential_edges:
            for s2 in potential_edges:
                if s1 == s2:
                    break
                if s1 > s2:
                    s1, s2 = s2, s1
                if s1 * n + s2 not in edges:
                    return True
        return False

    def try_creation() -> set[int] | None:
        edges: set[int] = set()
        stubs = list(range(n)) * degree
        while stubs:
            potential_edges: dict[int, int] = collections.defaultdict(int)
            rng.shuffle(stubs)
            stubiter = iter(stubs)
            for s1, s2 in zip(stubiter, stubiter):
                if s1 > s2:
                    s1, s2 = s2, s1
                key = s1 * n + s2
                if s1 != s2 and key not in edges:
                    edges.add(key)
                else:
                    potential_edges[s1] += 1
                    potential_edges[s2] += 1
            if not suitable(edges, potential_edges):
                return None
            stubs = [
                node
                for node, potential in potential_edges.items()
                for _ in range(potential)
            ]
        return edges

    edges = try_creation()
    while edges is None:
        edges = try_creation()
    return edges


def random_regular_graph(
    n: int, degree: int, seed: object = 0, max_attempts: int = 20
) -> OverlayGraph:
    """A connected random d-regular graph on ``n`` nodes.

    Samples the pairing model (:func:`_pairing_edges`, stream-identical to
    networkx's generator) and retries with derived seeds until the sample
    is connected — disconnected samples are rare for d >= 3 but possible.
    """
    import numpy as np

    if not 0 <= degree < n:
        raise OverlayError(f"degree {degree} must be in [0, n) for n={n}")
    if (n * degree) % 2 != 0:
        raise OverlayError(f"n*degree must be even, got n={n}, degree={degree}")
    for attempt in range(max_attempts):
        rng = derive_rng_32bit(seed, "random-regular", n, degree, attempt)
        edges = _pairing_edges(n, degree, rng)
        keys = np.fromiter(edges, dtype=np.int64, count=len(edges))
        sources, targets = np.divmod(keys, n)
        overlay = OverlayGraph.from_endpoints(
            n, sources, targets, name=f"random-regular-{degree}"
        )
        if overlay.is_connected():
            return overlay
    raise OverlayError(
        f"failed to generate a connected {degree}-regular graph on {n} nodes "
        f"after {max_attempts} attempts"
    )


def fixed_degree_random_graph(n: int, degree: int = 100, seed: object = 0) -> OverlayGraph:
    """The paper's "random topology": every node has exactly ``degree``
    neighbors chosen at random (default 100, the paper's setting)."""
    overlay = random_regular_graph(n, degree, seed=seed)
    return overlay.renamed(f"random-{degree}")


def gnp_random_graph(n: int, p: float, seed: object = 0) -> OverlayGraph:
    """Erdős–Rényi G(n, p) (not used by the paper; for tests/examples).

    One draw per node pair, in networkx's ``gnp_random_graph`` order, so
    the graph is the one networkx builds from the same seed.
    """
    if not 0 <= p <= 1:
        raise OverlayError(f"edge probability must be in [0, 1], got {p}")
    rng = derive_rng_32bit(seed, "gnp", n, p)
    pairs = [pair for pair in itertools.combinations(range(n), 2) if rng.random() < p]
    return OverlayGraph.from_endpoints(
        n, [u for u, _ in pairs], [v for _, v in pairs], name=f"gnp-{p}"
    )


def ring_lattice_graph(n: int, k: int = 1) -> OverlayGraph:
    """Ring where each node connects to its ``k`` nearest neighbors on
    each side.  Deterministic; handy for small worked examples."""
    if n < 3:
        raise OverlayError(f"ring needs at least 3 nodes, got {n}")
    if not 1 <= k < n / 2:
        raise OverlayError(f"k must be in [1, n/2), got k={k}, n={n}")
    adjacency = [
        [(u + offset) % n for offset in range(-k, k + 1) if offset != 0]
        for u in range(n)
    ]
    return OverlayGraph(adjacency, name=f"ring-{k}")


def connect_components(overlay: OverlayGraph, seed: object = 0) -> OverlayGraph:
    """Return a connected copy by adding one random edge between each
    smaller component and the giant component."""
    components = overlay.components()
    if len(components) <= 1:
        return overlay
    rng = derive_rng(seed, "connect-components", overlay.n)
    adjacency = [set(overlay.neighbors(u)) for u in range(overlay.n)]
    giant = components[0]
    for component in components[1:]:
        u = rng.choice(component)
        v = rng.choice(giant)
        adjacency[u].add(v)
        adjacency[v].add(u)
    return OverlayGraph(adjacency, name=overlay.name)
