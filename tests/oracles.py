"""Test-only reference implementations of the package's fast paths.

These are the straightforward versions that the package's fast paths
replaced: one full BFS of H from every vertex for the edge stretch, one full
BFS from every member for a ruling set, and one program per vertex stepped
through the event loop for a one-shot broadcast round. They are slow but
obviously right, so the tests hold the fast versions to them result for
result.
"""

from __future__ import annotations

import math
from typing import (AbstractSet, Callable, Dict, Iterable, Optional, Sequence,
                    Set, Tuple)

from congestspan import sim
from congestspan.graph import Edge, Graph, bfs_on_adjacency, subgraph_adjacency
from congestspan.rulingset import RulingVerdict
from congestspan.sim import Message, NodeApi, NodeProgram, SimConfig, SimTrace


def max_edge_stretch(g: Graph, spanner_edges: Set[Edge]) -> Tuple[float, Optional[Edge]]:
    """Largest d_H(u,v) over the edges (u,v) of g, with the first edge in
    vertex-then-adjacency order that attains it; (inf, edge) on the first
    edge whose endpoints H disconnects."""
    adj_h = subgraph_adjacency(g.vertices, spanner_edges)
    worst: float = 0.0
    worst_edge: Optional[Edge] = None
    for u in g.vertices:
        dist = bfs_on_adjacency(adj_h, u)
        for v in g.adjacency[u]:
            if v < u:
                continue
            d = dist.get(v, math.inf)
            if d > worst:
                worst = d
                worst_edge = (u, v)
                if d == math.inf:
                    return worst, worst_edge
    return worst, worst_edge


def check_ruling(adjacency: Dict[int, Sequence[int]], members: Iterable[int],
                 target: Iterable[int], alpha: int,
                 beta: Optional[int] = None) -> RulingVerdict:
    """Brute-force alpha-separation and beta-domination from a full BFS of
    every member."""
    members = sorted(set(members))
    target = sorted(set(target))
    extra = [m for m in members if m not in set(target)]
    if extra:
        return RulingVerdict(False, "membership",
                             f"member {extra[0]} is outside the target set")
    dist_from_member: Dict[int, Dict[int, float]] = {}
    for m in members:
        dist_from_member[m] = bfs_on_adjacency(adjacency, m)
    for i, m in enumerate(members):
        for m2 in members[i + 1:]:
            d = dist_from_member[m].get(m2, math.inf)
            if d < alpha:
                return RulingVerdict(False, "separation",
                                     f"members {m} and {m2} at distance {d} < {alpha}")
    if beta is not None:
        for t in target:
            d = min((dist_from_member[m].get(t, math.inf) for m in members),
                    default=math.inf)
            if d > beta:
                return RulingVerdict(False, "domination",
                                     f"target {t} at distance {d} > {beta} from every member")
    return RulingVerdict(True)


class BroadcastOnce(NodeProgram):
    """Broadcast a message at the start, fold the inbox of the next round.

    Either part may be absent: msg None listens only, fold None sends only.
    """

    __slots__ = ("msg", "fold")

    def __init__(self, msg: Optional[Message],
                 fold: Optional[Callable[[int, Dict[int, Message]], None]]):
        self.msg = msg
        self.fold = fold

    def on_start(self, api: NodeApi) -> None:
        if self.msg is not None:
            api.broadcast(self.msg.tag, self.msg.ids, self.msg.scalar)
        if self.fold is None:
            api.halt()

    def on_round(self, api: NodeApi, inbox: Dict[int, Message]) -> None:
        self.fold(api.vertex, inbox)
        api.halt()


def broadcast_round(g: Graph, sends: Dict[int, Message],
                    listeners: AbstractSet[int],
                    fold: Callable[[int, Dict[int, Message]], None],
                    config: SimConfig, label: str = "") -> SimTrace:
    """One broadcast round as sim.run steps it: a program per sender, and one
    per listener adjacent to a sender, which keeps the listener's own ID
    object."""
    programs: Dict[int, NodeProgram] = {
        v: BroadcastOnce(msg, fold if v in listeners else None)
        for v, msg in sends.items()}
    quiet = listeners - sends.keys()
    if quiet:
        adj = g.adjacency
        deaf = quiet - set().union(*(adj[u] for u in sends if u in adj))
        for v in quiet - deaf:
            programs[v] = BroadcastOnce(None, fold)
    return sim.run(g, programs, config, label=label)
