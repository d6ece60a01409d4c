"""The MPIL forwarding decision (Figure 5's pseudo-code, as a pure function).

Given the metric scores of a node's neighbors against the message's object
ID, :func:`decide_forwarding` determines:

- whether the current node is a *local maximum* ("an object is inserted at
  a node when none of its neighbor nodes have a higher MPIL routing metric
  value than the node", Section 4.4);
- which neighbors the message is forwarded to (the highest-scoring
  unvisited neighbors, capped by the flow budget);
- the flow budget each child copy carries.

Keeping this a pure function of explicit inputs makes property testing
straightforward; its one caller is :class:`repro.core.step.MPILStep`, the
per-node rule both MPIL drivers run.
"""

from __future__ import annotations

import random
from typing import AbstractSet, NamedTuple, Optional, Sequence

import numpy as np

from repro.core.flows import allowed_fanout, flows_consumed, split_flow_budget


class ForwardDecision(NamedTuple):
    """Outcome of one node's handling of one message copy.

    A named tuple rather than a frozen dataclass: one is built per
    forwarding decision, and a frozen dataclass costs about twice as much
    to construct.
    """

    is_local_max: bool
    next_hops: tuple[int, ...]
    budgets: tuple[int, ...]
    self_score: int
    best_candidate_score: Optional[int]
    new_flows: int

    @property
    def fanout(self) -> int:
        return len(self.next_hops)


def decide_forwarding(
    self_score: int,
    neighbor_ids: "np.ndarray | Sequence[int]",
    neighbor_scores: "np.ndarray | Sequence[int]",
    excluded: AbstractSet[int],
    max_flows: int,
    given_flows: int,
    rng: random.Random,
    tie_break: str = "random",
    local_max_rule: str = "all-neighbors",
) -> ForwardDecision:
    """Apply the MPIL routing rule at one node.

    Parameters
    ----------
    self_score:
        Metric value of the current node against the object ID.
    neighbor_ids / neighbor_scores:
        Aligned arrays (or plain sequences) of neighbor indices and their
        metric values.
    excluded:
        Nodes that may not be chosen as next hops: the message's route plus
        the current node ("Choosing next_hop_list is dependent only on peers
        in neighbor_list, excluding the nodes in M.route and N").
    max_flows / given_flows:
        Flow-budget state of the message copy being processed.
    tie_break:
        ``"random"`` samples which equal-metric candidates are used when
        there are more than the budget allows; ``"lowest-id"`` picks
        deterministically.
    local_max_rule:
        ``"all-neighbors"`` tests the local maximum against every neighbor
        (the pseudo-code's "all nodes in neighbor list"); ``"unvisited-only"``
        tests only against the unvisited candidates (ablation).
    """
    # Plain-Python fast path: numpy arrays are converted to lists once, then
    # a single ascending pass finds the best unvisited score and collects the
    # tied positions — same candidate order (and therefore the same RNG
    # consumption) as the original max-then-filter formulation.
    ids_list: Sequence[int] = (
        neighbor_ids if isinstance(neighbor_ids, (list, tuple)) else neighbor_ids.tolist()
    )
    scores_list: Sequence[int] = (
        neighbor_scores
        if isinstance(neighbor_scores, (list, tuple))
        else neighbor_scores.tolist()
    )
    n = len(ids_list)
    best: Optional[int] = None
    best_positions: list[int] = []
    for i, neighbor in enumerate(ids_list):
        if neighbor in excluded:
            continue
        score = scores_list[i]
        if best is None or score > best:
            best = score
            best_positions = [i]
        elif score == best:
            best_positions.append(i)
    best_candidate_score: Optional[int] = best

    if local_max_rule == "all-neighbors":
        reference = max(scores_list) if n else None
    else:
        reference = best_candidate_score
    is_local_max = reference is None or self_score >= reference

    fanout = allowed_fanout(max_flows, given_flows, len(best_positions))
    if fanout == 0:
        return ForwardDecision(
            is_local_max=is_local_max,
            next_hops=(),
            budgets=(),
            self_score=self_score,
            best_candidate_score=best_candidate_score,
            new_flows=0,
        )

    if fanout < len(best_positions):
        if tie_break == "random":
            chosen = rng.sample(best_positions, fanout)
        else:
            by_id = sorted(best_positions, key=ids_list.__getitem__)
            chosen = by_id[:fanout]
    else:
        chosen = best_positions

    next_hops = tuple(ids_list[i] for i in chosen)
    budgets = tuple(split_flow_budget(max_flows, given_flows, fanout))
    return ForwardDecision(
        is_local_max=is_local_max,
        next_hops=next_hops,
        budgets=budgets,
        self_score=self_score,
        best_candidate_score=best_candidate_score,
        new_flows=flows_consumed(given_flows, fanout),
    )
