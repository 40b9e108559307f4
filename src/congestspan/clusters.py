"""The cluster forest, the virtual cluster graph, and superclustering.

Both spanner constructions work phase by phase on a collection of disjoint
clusters, each with a designated center and a spanning tree living inside the
spanner built so far. A phase's clusters are recorded once, as the parent map
of the orientation: every active vertex maps to its tree parent and a center
to None; the verifier's forest check holds such a map to the spanner and
to its own radius bound. The virtual cluster graph
(build_cluster_graph) comes from the cluster-ID exchange, without a second
look at G: a cluster's superedges go to the clusters its members heard in it.
It keeps only which clusters they join, as a sorted neighbour tuple per
center; the verifier derives each superedge's witness edge from its own scan
of G. Popular clusters are merged into superclusters by a bounded-depth BFS
over that graph, executed through the simulator (run_supercluster_bfs), which
returns the joins by center, from which stitch_superclusters maps the next
phase's vertices to centers. The exploration takes the ruling set as given:
the verifier checks it to be (3, 2q)-ruling on the virtual cluster graph, and
holds the joins to its centralized exploration,
verify.reference_supercluster.

Tie-breaking is deterministic everywhere: on simultaneous arrivals a cluster
joins the exploration with the smallest root-center ID, then the smallest
witness edge in canonical (min endpoint, max endpoint) order.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Set, Tuple

from .exact import MAX_DIGITS
from .graph import Edge, edge_key
from . import comm
from .comm import Net, Orientation


# the reports and verdicts write a stretch bound out in full, so it may
# have at most MAX_DIGITS digits
_BOUND_LIMIT = 10 ** MAX_DIGITS


def radius_sequence(delta: int, ell: int, scale: int = 1) -> Tuple[int, ...]:
    """Cluster-radius bounds per phase, R_i bounding Rad(P_i): R_0 = 0 and
    R_{i+1} = (2*delta+1)*R_i + delta, for i in [0, ell].

    Raises ValueError when the stretch bound scale*R_ell + 1 would have more
    than MAX_DIGITS digits, as soon as some R_i shows it: R_i at least
    triples per step, so that takes at most about 9 000 steps, whatever ell.
    """
    if delta < 1 or ell < 0:
        raise ValueError("need delta >= 1 and ell >= 0")
    values = [0]
    for _ in range(ell):
        values.append((2 * delta + 1) * values[-1] + delta)
        if scale * values[-1] + 1 >= _BOUND_LIMIT:
            raise ValueError(f"the stretch bound {scale}*R_ell + 1 at ell = {ell}, "
                             f"delta = {delta} has more than {MAX_DIGITS} digits")
    return tuple(values)


def build_cluster_graph(center_of: Dict[int, int], popular: Iterable[int],
                        nbr_clusters: Mapping[int, Mapping[int, int]]
                        ) -> Dict[int, Tuple[int, ...]]:
    """The virtual cluster graph: each center, ascending, maps to the sorted
    centers of its neighbouring clusters across a superedge.

    Superedges are exactly the adjacent cluster pairs with a popular side.
    center_of maps every active vertex to its cluster center, and
    nbr_clusters each of them to its map from the other clusters it borders
    (their centers) to a neighbour in each, as the cluster-ID exchange
    returns it; dormant vertices are silent in the exchange, so they connect
    no clusters. A cluster's neighbours are the union of its members' keys,
    kept only where popular when the cluster itself is not.
    """
    popular_set = frozenset(popular)
    members: Dict[int, List[int]] = {}
    for v, c in center_of.items():
        members.setdefault(c, []).append(v)
    unknown = popular_set.difference(members)
    if unknown:
        raise ValueError(f"popular clusters not in the partition: {sorted(unknown)}")
    out: Dict[int, Tuple[int, ...]] = {}
    for c in sorted(members):
        near = set().union(*map(nbr_clusters.__getitem__, members[c]))
        if c not in popular_set:
            near &= popular_set
        out[c] = tuple(sorted(near))
    return out


class JoinInfo(NamedTuple):
    """How a cluster joined; a root has no pred and no witness edge."""
    root: int
    pred: Optional[int]
    witness: Optional[Edge]
    wave: int


# ---------------------------------------------------------------------------
# Distributed superclustering through the simulator.

def run_supercluster_bfs(net: Net, orient: Orientation, ruling: Set[int],
                         delta: int, popular: Set[int]) -> Dict[int, JoinInfo]:
    """Simulate the depth-delta exploration of the virtual cluster graph from
    the ruling clusters; maps the center of every joined cluster to how it
    joined.

    Per wave: the frontier clusters, those that joined in the last wave, stream
    the root ID down their trees, members broadcast it in one exploration
    hop, whose listeners keep the least sender of each root across a
    superedge (its accept_all, the vertices of the popular clusters, is
    gathered once), reached clusters converge the minimal candidate in
    three aggregation stages (pair, then tie-breaking endpoint, then the
    winning edge back down), and the vertex holding the winning edge adds it
    to the spanner. Every wave is a fixed slot of the schedule, so no
    message carries the hops left.
    """
    roots = sorted(ruling)
    joins: Dict[int, JoinInfo] = {r: JoinInfo(r, None, None, 0) for r in roots}
    member_center = orient.center_of
    loud = {v for c in popular for v in orient.members[c]}   # popular bit set
    frontier = roots   # the centers that joined in the last wave
    unjoined = member_center.keys() - {v for r in roots for v in orient.members[r]}

    for wave in range(1, delta + 1):
        if not frontier:
            break
        # stage 0: the frontier centers stream the root ID to their members
        payload = {c: (joins[c].root,) for c in frontier}
        comm.downcast_single(net, orient, frontier, f"w{wave}.relay", payload)
        # stage 1: frontier members broadcast the exploration; a member v of
        # an unjoined cluster keeps, per root, the least sender s it heard it
        # from: its least edge (min(s, v), max(s, v)) to that root's senders
        arrivals = comm.explore_hop(net, orient, f"w{wave}.explore",
                                    [(c, joins[c].root) for c in frontier],
                                    loud, unjoined)

        # stage 2: three-stage minimal-candidate aggregation per reached
        # cluster; each has a member with a candidate, so every stage
        # returns a value for each of them. Stage one converges the least
        # (root, smaller endpoint), each member offering its least root
        reached = sorted({member_center[v] for v in arrivals})
        vals1 = {v: (root, min(heard[root], v))
                 for v, heard in arrivals.items() for root in (min(heard),)}
        best1 = comm.upcast_best(net, orient, vals1, f"w{wave}.min1",
                                 centers=reached)
        # ask the members for the matching smallest other endpoint
        down1 = {c: best1[c] for c in reached}
        comm.downcast_single(net, orient, reached, f"w{wave}.win1", down1)
        vals2 = {}
        for v, heard in arrivals.items():
            root, m = best1[member_center[v]]
            if (s := heard.get(root)) is not None and min(s, v) == m:
                vals2[v] = (max(s, v),)
        best2 = comm.upcast_best(net, orient, vals2, f"w{wave}.min2",
                                 centers=reached)
        # announce the winning edge; the endpoint inside the cluster adds it
        down2 = {}
        for c in reached:
            root, m = best1[c]
            mm = best2[c][0]
            down2[c] = (m, mm)
            wedge = edge_key(m, mm)
            inside = m if member_center.get(m) == c else mm
            outside = wedge[0] if wedge[1] == inside else wedge[1]
            joins[c] = JoinInfo(root, member_center[outside], wedge, wave)
            unjoined.difference_update(orient.members[c])
        comm.downcast_single(net, orient, reached, f"w{wave}.win2", down2)
        frontier = reached

    return joins


def stitch_superclusters(center_of: Dict[int, int],
                         joins: Dict[int, JoinInfo]) -> Dict[int, int]:
    """The next phase's vertex -> center map: each vertex of a superclustered
    cluster (center_of maps this phase's vertices to their centers, joins
    each superclustered center to how it joined) goes to its root."""
    return {v: joins[c].root for v, c in center_of.items() if c in joins}
