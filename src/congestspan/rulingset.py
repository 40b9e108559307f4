"""Deterministic ruling sets, on the graph and on virtual cluster graphs.

The construction recursively splits the candidate ID range into t blocks,
solves the blocks in parallel, and merges them sequentially: each surviving
candidate of an earlier block floods a knock-out message to a fixed depth c,
and any still-alive candidate of a later block that hears it drops out. With
t chosen so that t**q covers the ID range, the recursion has at most q
levels, which yields a (c+1, c*q)-ruling set; the default c=2 gives (3, 2q).

Because the recursion tree is pure ID arithmetic on the globally known range,
every vertex can compute the whole merge timetable locally; the only traffic
is the knock-out flood itself, which runs in broadcast mode (one message
type, relayed with a decrementing hop counter by candidates and
non-candidates alike). On a virtual cluster graph each flood hop costs one
down-cast, one exchange round, and one up-cast within the cluster trees.

Empty blocks would produce no flood and consume no rounds, so the
orchestrator never visits them: per level it walks only the blocks that hold
an alive candidate. Its work therefore grows with the number of candidates,
not with the width of the ID range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from operator import itemgetter
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from . import comm
from .clusters import ClusterSet, verify_cluster_tree
from .comm import Net, Orientation
from .exact import ceil_log2_int, nth_root_ceil
from .graph import Graph, bfs_layers


class RulingError(ValueError):
    pass


@dataclass(frozen=True)
class RulingParams:
    """q bounds the recursion depth, c is the knock-out depth."""
    q: int
    c: int = 2

    def __post_init__(self):
        if self.q < 1 or self.c < 1:
            raise RulingError("need q >= 1 and c >= 1")

    @property
    def alpha(self) -> int:
        return self.c + 1

    @property
    def beta(self) -> int:
        return self.c * self.q


@dataclass(frozen=True)
class RulingSet:
    members: FrozenSet[int]
    target: FrozenSet[int]
    alpha: int
    beta: int
    rounds: int


@dataclass(frozen=True)
class RulingVerdict:
    ok: bool
    failure: Optional[str] = None
    detail: str = ""


def check_ruling(adjacency: Dict[int, Sequence[int]], members: Iterable[int],
                 target: Iterable[int], alpha: int,
                 beta: Optional[int] = None) -> RulingVerdict:
    """Exact verification: alpha-separation and beta-domination.

    Separation searches from each member only to depth alpha - 1, the
    radius a violation can lie within; domination takes exact distances from
    one multi-source BFS of all members. A failure names the first offending
    pair or target in ID order. adjacency may come from a Graph or a
    VirtualClusterGraph. beta=None skips the domination clause (used for
    precondition checks).
    """
    member_set = set(members)
    target_set = set(target)
    members = sorted(member_set)
    extra = [m for m in members if m not in target_set]
    if extra:
        return RulingVerdict(False, "membership",
                             f"member {extra[0]} is outside the target set")
    for m in members:
        near: Dict[int, int] = {}
        for d, layer in enumerate(islice(bfs_layers(adjacency, (m,)), alpha)):
            near.update(dict.fromkeys(layer & member_set, d))
        later = [m2 for m2 in near if m2 > m]
        if later:
            m2 = min(later)
            return RulingVerdict(False, "separation",
                                 f"members {m} and {m2} at distance {near[m2]} < {alpha}")
    if beta is not None:
        dist: Dict[int, float] = {}
        for d, layer in enumerate(bfs_layers(adjacency, members)):
            dist.update(dict.fromkeys(layer, d))
        for t in sorted(target_set):
            d = dist.get(t, math.inf)
            if d > beta:
                return RulingVerdict(False, "domination",
                                     f"target {t} at distance {d} > {beta} from every member")
    return RulingVerdict(True)


# ---------------------------------------------------------------------------
# Block arithmetic for the ID-range recursion.

def _block_widths(width: int, t: int) -> List[int]:
    """Interval width per recursion level, from the full range down to 1."""
    widths = [width]
    while widths[-1] > 1:
        widths.append(-(-widths[-1] // t))
    return widths


def _child_block(ident: int, lo: int, widths: List[int], level: int) -> int:
    """Index of ident's level-(level+1) block within its level-level interval."""
    off = ident - lo
    return (off % widths[level]) // widths[level + 1]


# ---------------------------------------------------------------------------
# The knock-out flood over the (virtual) cluster structure.

def _flood(net: Net, orient: Orientation, initiators: Sequence[int], depth: int,
           popular: Optional[Set[int]], label: str) -> Set[int]:
    """Flood a knock-out from the initiator clusters to the given virtual
    depth; returns every cluster (center) that heard it.

    With popular given, the flood travels only superedges with a popular
    side, matching the virtual cluster graph of the phase.
    """
    heard: Set[int] = set()
    relayed: Set[int] = set(initiators)
    frontier: List[Tuple[int, int]] = [(c, depth - 1) for c in sorted(initiators)]
    trivial = orient.max_depth() == 0
    wave = 0
    while frontier:
        wave += 1
        if not trivial:
            payload = {c: ((), h) for c, h in frontier}
            comm.downcast_single(net, orient, payload.keys(), comm.TAG_KNOCK_SEND,
                                 f"{label}.k{wave}.down", payload)
        hops_at: Dict[int, int] = {}   # listener -> max hops left it heard

        def fold(v: int, arrivals: List[Tuple[int, int, int]]) -> None:
            hops_at[v] = max(map(itemgetter(2), arrivals))

        comm.cluster_broadcast(net, orient, f"{label}.k{wave}.x", comm.TAG_KNOCK,
                               [(c, c, h) for c, h in frontier], popular,
                               orient.center_of.keys(), fold)
        got = hops_at
        if not trivial and hops_at:
            touched = sorted({orient.center_of[v] for v in hops_at})
            best = comm.upcast_best(net, orient,
                                    {v: (h,) for v, h in hops_at.items()},
                                    f"{label}.k{wave}.up", prefer_max=True,
                                    width=0, centers=touched)
            got = {c: b[0] for c, b in best.items() if b is not None}
        heard.update(got)
        frontier = [(c, h - 1) for c, h in sorted(got.items())
                    if h >= 1 and c not in relayed]
        relayed.update(c for c, _ in frontier)
    return heard


def run_knockout_schedule(net: Net, orient: Orientation, candidates: Set[int],
                          params: RulingParams, id_range: Tuple[int, int],
                          popular: Optional[Set[int]] = None,
                          label: str = "rs") -> Set[int]:
    """Execute the full merge timetable; returns the surviving candidates.

    Per level, only the blocks holding an alive candidate are visited, in
    ascending order, so the work never depends on the ID-range width.
    """
    lo, hi = id_range
    width = hi - lo + 1
    alive: Set[int] = set(candidates)
    if width <= 1 or len(alive) <= 1:
        return alive
    t = max(2, nth_root_ceil(width, params.q))
    widths = _block_widths(width, t)
    for level in range(len(widths) - 2, -1, -1):
        blocks: Dict[int, List[int]] = {}
        for c in sorted(alive):
            blocks.setdefault(_child_block(c, lo, widths, level), []).append(c)
        for block in sorted(blocks):
            senders = [c for c in blocks[block] if c in alive]
            if not senders:
                continue
            heard = _flood(net, orient, senders, params.c, popular,
                           f"{label}.L{level}.b{block}")
            for c in heard:
                if c in alive and _child_block(c, lo, widths, level) > block:
                    alive.discard(c)
    return alive


# ---------------------------------------------------------------------------
# Public constructions.

def congest_ruling_set(g: Graph, a: Iterable[int], params: RulingParams,
                       net: Optional[Net] = None) -> RulingSet:
    """Ruling set for a set of vertices, executed through the simulator.

    The knock-out flood relays through every vertex, candidate or not, with a
    decrementing hop counter, all in broadcast mode.
    """
    target = frozenset(a)
    if not target:
        raise RulingError("candidate set is empty")
    unknown = target - set(g.vertices)
    if unknown:
        raise RulingError(f"candidates outside the graph: {sorted(unknown)[:4]}")
    net = net or Net(g)
    orient = comm.orientation_from_parents({v: {v: None} for v in g.vertices})
    rounds0 = net.trace.rounds_total
    members = run_knockout_schedule(net, orient, set(target), params,
                                    g.id_range, popular=None, label="rs")
    return RulingSet(frozenset(members), target, params.alpha, params.beta,
                     net.trace.rounds_total - rounds0)


def aglp_ruling_set(g: Graph, a: Iterable[int], net: Optional[Net] = None) -> RulingSet:
    """The q = ceil(log2 n) instantiation: a (3, 2*ceil(log2 n))-ruling set."""
    q = max(1, ceil_log2_int(g.n))
    return congest_ruling_set(g, a, RulingParams(q=q, c=2), net=net)


def supergraph_ruling_set(g: Graph, p: ClusterSet, a: Iterable[int],
                          params: RulingParams, r_bound: int,
                          spanner_edges: Optional[Set] = None,
                          popular: Optional[Set[int]] = None,
                          net: Optional[Net] = None) -> RulingSet:
    """Ruling set over clusters, simulated on the host graph.

    Clusters are identified by their center IDs. Every cluster must carry a
    tree of depth at most r_bound inside spanner_edges (checked when the edge
    set is supplied); each virtual flood hop is simulated by tree casts.
    """
    target = frozenset(a)
    by_center = p.by_center()
    unknown = target - set(by_center)
    if unknown:
        raise RulingError(f"candidate clusters not in the partition: {sorted(unknown)[:4]}")
    if spanner_edges is not None:
        for c in p.clusters:
            verdict = verify_cluster_tree(c, spanner_edges, r_bound)
            if not verdict.ok:
                raise RulingError(
                    f"cluster {c.center} violates the tree precondition "
                    f"({verdict.failure}): {verdict.detail}")
    net = net or Net(g)
    orient = comm.orientation_from_parents({c.center: c.parent for c in p.clusters})
    rounds0 = net.trace.rounds_total
    members = run_knockout_schedule(net, orient, set(target), params,
                                    g.id_range, popular=popular, label="srs")
    return RulingSet(frozenset(members), target, params.alpha, params.beta,
                     net.trace.rounds_total - rounds0)
