"""Test-only reference implementations of the verifier's searches.

These are the straightforward all-sources versions that the package's
bounded searches replaced: one full BFS of H from every vertex for the edge
stretch, and one full BFS from every member for a ruling set. They are slow
but obviously right, so the tests hold the fast versions to them verdict for
verdict.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Optional, Sequence, Set, Tuple

from congestspan.graph import Edge, Graph, bfs_on_adjacency, subgraph_adjacency
from congestspan.rulingset import RulingVerdict


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
