"""Oracle verification of everything a build claims.

Every check here is independent of the construction code paths it audits,
and reads its bounds off one spanner.Schedule, which verify_build builds
once from n, kappa and rho (schedule; the report builds it too, and the
build records no bound): the spanner as a subgraph of G, stretch exactly for
every graph edge, each phase's parent map as a forest of cluster trees
inside the spanner at that phase's start (the edges the charge ledger
records for earlier phases), which gives the centers the other phase checks
use, each ruling set as (3, 2q)-ruling, the snapshots as numbered 0..ell,
one per phase, the charge ledger as the spanner's one account of its edges
(their union is the spanner), the ledger and the cluster counts against the
counting rules, and the recorded episodes' widest message and modes. At
n <= 64, each explored phase's virtual cluster graph is also held to the
verifier's own scan of G (superedge_scan, which also finds each superedge's
witness edge), its joins to the centralized reference exploration of that
scan, and neighbor knowledge to a direct edge scan. A report whose verdicts
all pass is the acceptance currency of the package.
verify_build runs with the cyclic garbage collector paused
(spanner.collector_paused); it makes no reference cycle, which
tests/test_collector.py pins, so reference counting frees all it drops.

Per-edge stretch peels the spanner to its 2-core, which is empty exactly when
the spanner is a forest, and searches only the core; an edge with a peeled
endpoint is a walk to the lowest common ancestor in the peeled forest, or is
measured from the heights of its endpoints over their anchors in the core. A
core of at most STRETCH_BATCH vertices is searched once: a ball grows from
every core vertex, and the balls of two vertices at distance d meet at a
midpoint after ceil(d / 2) levels, for the core's graph edges and the
anchors' pairs alike, until the frontiers of the pairs left grow thin. Those
pairs, and a larger core, take one bit-parallel BFS per batch of sources,
once for each of the two sets of pairs.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import chain, count, groupby, islice, zip_longest
from operator import attrgetter
from typing import (AbstractSet, Callable, Dict, Iterable, List, Optional,
                    Sequence, Set, Tuple)

from . import polylog as polylog_mod
from . import sparse as sparse_mod
from .clusters import JoinInfo
from .exact import as_fraction, count_le_pow, count_lt_pow, npow_decimal
from .graph import Edge, Graph, bfs_layers, edge_key, subgraph_adjacency
from .spanner import INTER, SUPER, BuildResult, Charge, Schedule, collector_paused

ALL_PAIRS_LIMIT = 64


@dataclass
class Verdict:
    name: str
    ok: bool
    detail: str = ""

    def as_dict(self) -> dict:
        return {"name": self.name, "ok": self.ok, "detail": self.detail}


def max_edge_stretch(g: Graph, spanner_edges: Set[Edge]) -> Tuple[float, Optional[Edge]]:
    """Largest d_H(u,v) over the edges (u,v) of g; names a witness edge.

    Returns (inf, edge) if some graph edge's endpoints are disconnected in
    the spanner. Every edge is measured exactly. H is peeled to its 2-core C
    (_peel), which is empty when H is a forest. Every path from a peeled
    vertex x out of the trees of its anchor passes through the anchor, so an
    edge (u, v) with a peeled endpoint has d_H(u, v) = the walk to the
    lowest common ancestor if a(u) = a(v), h(u) + h(v) + d_C(a(u), a(v)) if
    both anchors lie in C, and inf otherwise. The graph edges between two
    vertices of C need only the largest d_C and the least edge at it; the
    pairs of anchors that the other edges join need every d_C. A core of at
    most STRETCH_BATCH vertices measures both sets in one _meet_search;
    a larger one runs _bit_bfs, one batch of sources at a time, once for
    each set. The witness is the first edge, in vertex then adjacency
    order, that attains the maximum.
    """
    adj_h = subgraph_adjacency(g.vertices, spanner_edges)
    core, index, nbrs, parent, height, anchor = _peel(g.vertices, adj_h,
                                                      spanner_edges)
    del adj_h   # the core search keeps its own copy, by core index
    # the higher ends of each graph edge with a peeled endpoint, by its lower
    # end, in vertex then adjacency order: a strict > below keeps the first
    # edge at the maximum
    ends: Dict[int, Sequence[int]] = {}
    for u in g.vertices:
        if u not in index:
            adj = g.adjacency[u]
            k = bisect_right(adj, u)
            ends[u] = adj[k:]
            if index:   # u's lower neighbours in C are lower ends too
                for c in adj[:k]:
                    if c in index:
                        ends.setdefault(c, []).append(u)
    ends = dict(sorted(ends.items()))
    pairs: Set[Tuple[int, int]] = set()   # (lower, higher) anchor index
    for u, targets in ends.items():
        i = index.get(anchor[u])
        if i is not None:
            for v in targets:
                j = index.get(anchor[v])
                if j is not None and i != j:
                    pairs.add((i, j) if i < j else (j, i))
    # each graph edge between two core vertices, as (lower, higher) index,
    # in index order, which is vertex order
    inner = [(s, x) for s, c in enumerate(core)
             for x in map(index.get, g.adjacency[c][bisect_right(g.adjacency[c], c):])
             if x is not None]
    search = _meet_search if len(core) <= STRETCH_BATCH else _batched_search
    core_worst, (i, x), d_core = search(nbrs, inner, sorted(pairs))
    core_edge = (core[i], core[x]) if core_worst else None
    near = _tree_distances(parent, height, anchor)
    worst: float = 0.0
    worst_edge: Optional[Edge] = None
    for u, targets in ends.items():
        dist = near(u, targets)
        for v in targets:
            d = dist.get(v)
            if d is None:
                i, j = index.get(anchor[u]), index.get(anchor[v])
                d = math.inf
                if i is not None and j is not None:
                    d = height[u] + height[v] + d_core.get((min(i, j), max(i, j)), math.inf)
            if d > worst:
                worst, worst_edge = d, (u, v)
    # the core's maximum and least edge at it, against the peeled edges'
    if core_worst > worst or core_worst == worst and core_edge and core_edge < worst_edge:
        return core_worst, core_edge
    return worst, worst_edge


# the width, in bits, of the ints that a core search keeps per vertex,
# whatever the range of the vertex IDs: a core of at most this many vertices
# is searched by _meet_search, one bit per core vertex; a larger one by
# _bit_bfs, with its sources in batches of this many. Wider ints share more
# work for O(n * STRETCH_BATCH) bits of memory. On the polylog spanners of
# G(2048, 2 ln n / n), _bit_bfs in batches of 1024 took about a quarter
# longer than in batches of 2048, and in batches of 256 over three times as
# long.
STRETCH_BATCH = 2048

# _meet_search grows every ball at every level, while _bit_bfs advances only
# the frontiers of the sources still pending. Once those frontiers cover
# under 1 / THIN_FRONTIER of the core, _meet_search hands the pairs left to
# _bit_bfs. On a long cycle of the core they are a few vertices: for a
# chord of a 2000-cycle that H lacks, balls alone took 205 ms, the hand-off
# 12 ms and _bit_bfs alone 13 ms. No frontier of the benchmark's G(n, p)
# polylog spanners is thin; on its grid skeletons, 4 took a fifth longer
# than 16, and never handing over 4% less (in process, 2 vCPUs).
THIN_FRONTIER = 16


def _batched_search(nbrs: List[List[int]], edges: List[Tuple[int, int]],
                    pairs: List[Tuple[int, int]]
                    ) -> Tuple[float, Tuple[int, int], Dict[Tuple[int, int], int]]:
    """_meet_search's answer by _bit_bfs, for a core of more than
    STRETCH_BATCH vertices or the pairs that _meet_search hands over: one
    search for edges and one that records the distance of every connected
    pair of pairs, each from the lower ends of its pairs, which are given in
    ascending order."""
    def targets(ordered: List[Tuple[int, int]]) -> Callable[[int, int], Dict[int, int]]:
        def pending(lo: int, hi: int) -> Dict[int, int]:
            # each pair whose lower end is a source of the batch lo..hi-1
            want: Dict[int, int] = {}
            for s, x in ordered[bisect_left(ordered, (lo,)):bisect_left(ordered, (hi,))]:
                want[x] = want.get(x, 0) | 1 << (s - lo)
            return want
        return pending

    worst, pair = _bit_bfs(nbrs, targets(edges))
    d_core: Dict[Tuple[int, int], int] = {}
    if pairs:
        _bit_bfs(nbrs, targets(pairs), d_core)
    return worst, pair, d_core


def _peel(vertices: Sequence[int], adj: Dict[int, List[int]], edges: Set[Edge]) -> tuple:
    """The 2-core C of H = (vertices, edges), whose adjacency is adj: its
    vertices in order, their index in C and their adjacency lists by that
    index; and the forest that hangs the other vertices from C, as parent,
    height and anchor maps.

    Peeling the vertices of degree at most 1, again and again, leaves C,
    which is empty exactly when H is a forest. A BFS out of each vertex of
    C into the peeled ones hangs every peeled vertex x it reaches from its
    anchor a(x) in C at a height h(x); the other peeled vertices hang from
    the least vertex of their tree component. A vertex of C is its own
    anchor, at height 0.
    """
    degree = {v: len(adj[v]) for v in vertices}
    peel = [v for v, d in degree.items() if d <= 1]
    for x in peel:   # the list grows while it is walked
        for y in adj[x]:
            d = degree[y] - 1   # the neighbours of y not yet peeled
            degree[y] = d
            if d == 1:
                peel.append(y)
    core = [v for v in vertices if degree[v] > 1]
    index = {c: i for i, c in enumerate(core)}
    nbrs: List[List[int]] = [[] for _ in core]
    for u, v in edges:
        i, j = index.get(u), index.get(v)
        if i is not None and j is not None:
            nbrs[i].append(j)
            nbrs[j].append(i)
    parent: Dict[int, int] = {}
    height: Dict[int, int] = {}
    anchor: Dict[int, int] = {}
    if peel:   # else no walk needs a height or an anchor
        height.update(dict.fromkeys(core, 0))
        anchor.update(zip(core, core))
        for c in core:
            if degree[c] < len(adj[c]):   # c has a peeled neighbour
                _hang(adj, c, parent, height, anchor)
        for r in vertices:
            if r not in height:
                height[r], anchor[r] = 0, r
                _hang(adj, r, parent, height, anchor)
    return core, index, nbrs, parent, height, anchor


def _meet_search(nbrs: List[List[int]], edges: List[Tuple[int, int]],
                 pairs: List[Tuple[int, int]]
                 ) -> Tuple[float, Tuple[int, int], Dict[Tuple[int, int], int]]:
    """Hop distances on the graph of vertex indices 0..n-1 with adjacency
    lists nbrs, between the two ends of each index pair: over edges, given
    in ascending order, the largest and the least pair at it, or (inf, the
    least disconnected pair); and the distance of every connected pair of
    pairs, recorded in the returned map.

    Level k gives each vertex s its ball, the int whose bit t is set for
    every t within k hops of s: ball_k[s] is ball_{k-1}[s] or'ed with the
    ball_{k-1} of its neighbours. Two balls meet at a midpoint of the pair:
    a pair (s, x) that met at no earlier level is at least 2k - 1 apart, and
    is exactly 2k - 1 apart if ball_k[s] & ball_{k-1}[x], else 2k if
    ball_k[s] & ball_k[x]. So a pair at distance d is measured at level
    ceil(d / 2). Once no ball grows, every pair still pending is
    disconnected. Once the frontiers of the lower ends still pending are
    thin (THIN_FRONTIER), _batched_search measures the pairs left; they are
    all farther apart than any pair measured so far.
    """
    balls = [1 << s for s in range(len(nbrs))]
    worst: float = 0.0
    worst_pair = (0, 0)
    record: Dict[Tuple[int, int], int] = {}
    k = 0
    while edges or pairs:
        grown = []
        for b, ns in zip(balls, nbrs):
            for y in ns:
                b |= balls[y]
            grown.append(b)
        if grown == balls:
            break
        k += 1
        odd, even = 2 * k - 1, 2 * k
        first_odd = first_even = None
        left = []
        for pair in edges:
            s, x = pair
            b = grown[s]
            if b & balls[x]:
                if first_odd is None:
                    first_odd = pair
            elif b & grown[x]:
                if first_even is None:
                    first_even = pair
            else:
                left.append(pair)
        edges = left
        if first_even is not None:
            worst, worst_pair = even, first_even
        elif first_odd is not None:
            worst, worst_pair = odd, first_odd
        left = []
        for pair in pairs:
            s, x = pair
            b = grown[s]
            if b & balls[x]:
                record[pair] = odd
            elif b & grown[x]:
                record[pair] = even
            else:
                left.append(pair)
        pairs = left
        # the union of this level's frontiers of the lower ends left, up to
        # the size at which it is no longer thin
        frontier = 0
        for s in {s for s, _ in chain(edges, pairs)}:
            frontier |= grown[s] & ~balls[s]
            if THIN_FRONTIER * frontier.bit_count() >= len(nbrs):
                break
        balls = grown
        if (edges or pairs) and THIN_FRONTIER * frontier.bit_count() < len(nbrs):
            far, far_pair, far_record = _batched_search(nbrs, edges, pairs)
            record.update(far_record)
            if edges:
                return far, far_pair, record
            break
    if edges:
        return math.inf, edges[0], record
    return worst, worst_pair, record


def _bit_bfs(nbrs: List[List[int]], targets: Callable[[int, int], Dict[int, int]],
             record: Optional[Dict[Tuple[int, int], int]] = None
             ) -> Tuple[float, Tuple[int, int]]:
    """Hop distances from sources u to targets x, on the graph of vertex
    indices 0..n-1 with adjacency lists nbrs: the largest, and the least
    (u, x) at it.

    The sources are taken in batches of STRETCH_BATCH; bit i of an int
    stands for source lo + i of the batch starting at lo. targets(lo, hi)
    gives pending: pending[x] holds the sources of the batch with x still
    to be measured. frontier[y] holds the sources at distance exactly k - 1
    from y. In round k every pending x takes the sources in the frontier of
    its neighbours: those are at distance k. Only then does the frontier
    advance, and only for the sources that still have a target pending. The
    batch maximum is the last round with a hit, and its least pair the
    least (source, target) hit in that round. If the frontier dies with
    targets pending, the least of them is disconnected, and (inf, that
    pair) is returned at once. With record, the distance of every connected
    pair is written into it instead, and every batch is searched.
    """
    n = len(nbrs)
    worst: float = 0.0
    worst_pair = (0, 0)
    for lo in range(0, n, STRETCH_BATCH):
        hi = min(n, lo + STRETCH_BATCH)
        pending = targets(lo, hi)
        frontier = [0] * n
        seen = [0] * n
        for u in range(lo, hi):
            frontier[u] = seen[u] = 1 << (u - lo)
        live = list(range(lo, hi))
        k = 0
        batch_max = 0
        batch_pair: Tuple[int, int] = (0, 0)
        while pending:
            if not live:
                if record is not None:
                    break
                i, x = min(((want & -want).bit_length() - 1, x)
                           for x, want in pending.items())
                return math.inf, (lo + i, x)
            k += 1
            hit: Optional[Tuple[int, int]] = None
            for x in list(pending):
                want = pending[x]
                reach = 0
                for y in nbrs[x]:
                    reach |= frontier[y]
                got = want & reach
                if got:
                    first = ((got & -got).bit_length() - 1, x)
                    if hit is None or first < hit:
                        hit = first
                    if record is not None:
                        bits = got
                        while bits:
                            low = bits & -bits
                            record[lo + low.bit_length() - 1, x] = k
                            bits ^= low
                    if want == got:
                        del pending[x]
                    else:
                        pending[x] = want & ~got
            if hit is not None:
                batch_max, batch_pair = k, hit
            if not pending:
                break
            active = 0
            for want in pending.values():
                active |= want
            reached = [0] * n
            touched = []
            for y in live:
                f = frontier[y] & active
                frontier[y] = 0   # frees the old frontier while the new one grows
                if f:
                    for z in nbrs[y]:
                        if not reached[z]:
                            touched.append(z)
                        reached[z] |= f
            live = []
            for z in touched:
                fresh = reached[z] = reached[z] & ~seen[z]
                if fresh:
                    seen[z] |= fresh
                    live.append(z)
            frontier = reached
        if batch_max > worst:
            worst = batch_max
            i, x = batch_pair
            worst_pair = (lo + i, x)
    return worst, worst_pair


def _hang(adj: Dict[int, List[int]], r: int, parent: Dict[int, int],
          depth: Dict[int, int], root: Dict[int, int]) -> None:
    """Grow a BFS tree from r, already in depth, over the vertices not yet
    in depth, with r as their root."""
    layer = [r]
    d = depth[r]
    while layer:
        d += 1
        nxt = []
        for x in layer:
            for y in adj[x]:
                if y not in depth:
                    parent[y], depth[y], root[y] = x, d, r
                    nxt.append(y)
        layer = nxt


def _tree_distances(parent: Dict[int, int], depth: Dict[int, int],
                    root: Dict[int, int]) -> Callable[[int, List[int]], Dict[int, int]]:
    """The search (source, targets) -> {target: hop distance} over the
    targets with source's root, in the forest of parent and depth: the walk
    to the lowest common ancestor lifts the deeper endpoint to the other's
    depth, then both together, in d(u, v) steps."""
    def distances(source: int, targets: List[int]) -> Dict[int, int]:
        dist: Dict[int, int] = {}
        r, d_source = root[source], depth[source]
        for v in targets:
            if root[v] != r:
                continue
            dv = depth[v]
            a, da = source, d_source
            b, db = v, dv
            while da > db:
                a = parent[a]
                da -= 1
            while db > da:
                b = parent[b]
                db -= 1
            while a != b:
                a, b = parent[a], parent[b]
                da -= 1
            dist[v] = d_source + dv - 2 * da
        return dist

    return distances


def max_pair_stretch(g: Graph, spanner_edges: Set[Edge]) -> float:
    """Largest d_H(x,y) / d_G(x,y) over all vertex pairs."""
    adj_h = subgraph_adjacency(g.vertices, spanner_edges)
    worst = 1.0
    for u in g.vertices:
        dg, dh = ({v: d for d, layer in enumerate(bfs_layers(adj, (u,))) for v in layer}
                  for adj in (g.adjacency, adj_h))
        for v in g.vertices:
            if v <= u:
                continue
            if dh.get(v, math.inf) == math.inf:
                return math.inf
            worst = max(worst, dh[v] / dg[v])
    return worst


def verify_spanner_file(g: Graph, spanner_edges: Set[Edge],
                        bound: Optional[float] = None) -> dict:
    """Standalone check used by the verify command: subgraph membership,
    per-edge stretch, and (small n) all-pairs stretch."""
    verdicts: List[Verdict] = []
    outside = sorted(e for e in spanner_edges if e not in g.edge_set())
    verdicts.append(Verdict(
        "spanner_subgraph", not outside,
        "" if not outside else f"{len(outside)} edges outside the graph, "
                               f"first {outside[0]}"))
    stretch = math.inf
    if outside:
        verdicts.append(Verdict("stretch_finite", False,
                                "stretch not measured: the spanner has edges "
                                "outside the graph"))
    else:
        stretch, witness = max_edge_stretch(g, spanner_edges)
        if stretch == math.inf:
            verdicts.append(Verdict("stretch_finite", False,
                                    f"endpoints of {witness} are disconnected in the spanner"))
        else:
            verdicts.append(Verdict("stretch_finite", True,
                                    f"max per-edge stretch {stretch}"))
    if bound is not None and stretch != math.inf:
        verdicts.append(Verdict("stretch_bound", stretch <= bound,
                                f"max per-edge stretch {stretch} vs bound {bound}"))
    pair_stretch = None
    if g.n <= ALL_PAIRS_LIMIT and not outside:
        pair_stretch = max_pair_stretch(g, spanner_edges)
        if bound is not None:
            verdicts.append(Verdict("all_pairs_bound", pair_stretch <= bound,
                                    f"all-pairs stretch {pair_stretch} vs bound {bound}"))
    return {
        "verdicts": [v.as_dict() for v in verdicts],
        "max_edge_stretch": None if stretch == math.inf else stretch,
        "max_pair_stretch": None if pair_stretch == math.inf else pair_stretch,
        "spanner_size": len(spanner_edges),
        "passed": all(v.ok for v in verdicts),
    }


def schedule(result: BuildResult) -> Schedule:
    """The construction's schedule, from n, kappa and (sparse) rho alone: the
    one record of its radii, thresholds and stretch bound."""
    n, kappa = result.params["n"], result.params["kappa"]
    if result.algorithm == "sparse":
        return sparse_mod.degree_schedule(n, kappa, as_fraction(result.params["rho"]))
    return polylog_mod.polylog_schedule(n, kappa)


def verify_build(g: Graph, result: BuildResult) -> dict:
    """Full audit of a build result; returns the report verdict block."""
    with collector_paused():
        verdicts: List[Verdict] = []
        n = g.n
        is_sparse = result.algorithm == "sparse"
        kappa = result.params["kappa"]
        sched = schedule(result)
        stretch_cap = sched.stretch_bound

        # stretch, measured only on a subgraph of g
        outside = result.spanner.edges - g.edge_set()
        stretch: float = math.inf
        if outside:
            verdicts.append(Verdict(
                "stretch", False, f"stretch not measured: {len(outside)} edges "
                                  f"outside the graph, first {min(outside)}"))
        else:
            stretch, witness = max_edge_stretch(g, result.spanner.edges)
            verdicts.append(Verdict(
                "stretch", stretch <= stretch_cap,
                f"max per-edge stretch {stretch} vs bound {stretch_cap}"
                + (f" (witness {witness})" if witness else "")))
            if n <= ALL_PAIRS_LIMIT:
                pair = max_pair_stretch(g, result.spanner.edges)
                verdicts.append(Verdict("stretch_all_pairs", pair <= stretch_cap,
                                        f"all-pairs stretch {pair} vs bound {stretch_cap}"))

        # size
        if is_sparse:
            ok = sparse_mod.size_bound_holds(result)
            bound_text = f"n^(1+1/{kappa}) + n = {n ** (1 + 1 / kappa) + n:.2f}"
        else:
            ok = polylog_mod.size_bound_holds(result)
            bound_text = (f"(n-1) + n*(ceil(n^(1/{kappa})) - 1) = "
                          f"{polylog_mod.size_bound(n, kappa)}")
        verdicts.append(Verdict(
            "size", ok, f"{result.spanner.size()} edges vs {bound_text}"))

        # per-phase structure
        centers: List[Dict[int, int]] = []
        verdicts.append(_radius_verdict(result, sched, centers))
        verdicts.append(_partition_verdict(g, result, centers))
        verdicts.append(_popular_settled_verdict(result))
        verdicts.append(_ruling_verdict(result, sched))
        verdicts.append(_charge_verdict(result, sched))
        verdicts.append(_phase_counting_verdict(result, sched))
        verdicts.append(_congestion_verdict(result))
        if n <= ALL_PAIRS_LIMIT:
            verdicts.append(_supercluster_oracle_verdict(g, result, sched, centers))
            if is_sparse:
                verdicts.append(_knowledge_oracle_verdict(g, result, centers))

        return {
            "verdicts": [v.as_dict() for v in verdicts],
            "max_edge_stretch": None if stretch == math.inf else stretch,
            "stretch_bound": stretch_cap,
            "spanner_size": result.spanner.size(),
            "passed": all(v.ok for v in verdicts),
        }


class ForestError(ValueError):
    """A parent map that fails forest_centers. failure names the check: span
    (a cycle), members-only (a parent that is not an active vertex),
    tree-not-in-spanner or depth."""

    def __init__(self, failure: str, detail: str, cluster: Optional[int] = None):
        where = "" if cluster is None else f"cluster {cluster}: "
        super().__init__(f"{where}{failure}: {detail}")
        self.failure, self.detail, self.cluster = failure, detail, cluster

    def __reduce__(self):
        # args holds the message only; a worker's exception is rebuilt in the
        # parent from the constructor's own arguments
        return type(self), (self.failure, self.detail, self.cluster)


def forest_centers(parent: Dict[int, Optional[int]], spanner_edges: Set[Edge],
                   bound: int) -> Dict[int, int]:
    """Check that a phase's parent map is a forest of cluster trees inside
    the spanner, and return each vertex's center, the root of its tree.

    The keys of parent are the active vertices; each maps to its tree parent,
    and a center to None. Every parent must be an active vertex, the parent
    pointers must not cycle, every tree edge must lie in spanner_edges, and
    no vertex may lie deeper than bound. A walk up stops at the first vertex
    of known depth, so every tree edge is checked once. Raises ForestError on
    the first failure.
    """
    center: Dict[int, int] = {}
    depth: Dict[int, int] = {}
    for v in parent:
        path = []
        w = v
        while w not in depth:
            p = parent[w]
            if p is None:
                center[w], depth[w] = w, 0
                break
            if p not in parent:
                raise ForestError("members-only",
                                  f"parent {p} of {w} is not an active vertex")
            depth[w] = -1   # on this walk's path: reaching it again is a cycle
            path.append(w)
            w = p
        d = depth[w]
        if d < 0:
            raise ForestError("span", f"the parent pointers cycle through {w}")
        c = center[w]
        for x in reversed(path):
            if edge_key(x, parent[x]) not in spanner_edges:
                raise ForestError("tree-not-in-spanner", f"tree edge ({x},"
                                  f"{parent[x]}) missing from the spanner", c)
            d += 1
            center[x], depth[x] = c, d
        if d > bound:
            raise ForestError("depth", f"vertex {v} at depth {d} > bound {bound}", c)
    return center


def _radius_verdict(result: BuildResult, sched: Schedule,
                    centers: Optional[List[Dict[int, int]]] = None) -> Verdict:
    """Check each snapshot's parent map against the spanner at its phase
    start and the schedule's radius bound R_i; appends to centers, if given,
    each forest's map to the centers."""
    # one walk of the ledger in phase order: before each snapshot is checked,
    # at_start has grown to the edges charged in the phases before it
    charges = sorted(result.spanner.charges, key=lambda ch: ch.phase)
    at_start: Set[Edge] = set()
    k = 0
    for snap in result.snapshots:
        while k < len(charges) and charges[k].phase < snap.phase:
            at_start.update(charges[k].edges)
            k += 1
        # a snapshot numbered past the last phase is held to the largest
        # bound, R_ell; the other verdicts judge its clusters
        bound = sched.radius_bounds[min(snap.phase, len(sched.radius_bounds) - 1)]
        try:
            center_of = forest_centers(snap.parent, at_start, bound)
        except ForestError as exc:
            return Verdict("radius", False, f"phase {snap.phase}, {exc}")
        if centers is not None:
            centers.append(center_of)
    return Verdict("radius", True, "all cluster trees within the phase radius bound")


def _without_forest(name: str, result: BuildResult,
                    centers: List[Dict[int, int]]) -> Optional[Verdict]:
    """The failing verdict name for the first phase that the radius verdict
    gave no centers, or None if every phase has them."""
    if len(centers) < len(result.snapshots):
        broken = result.snapshots[len(centers)].phase
        return Verdict(name, False, f"phase {broken} has no cluster "
                                    f"forest (see the radius verdict)")
    return None


def _partition_verdict(g: Graph, result: BuildResult,
                       centers: List[Dict[int, int]]) -> Verdict:
    if (gap := _without_forest("partition", result, centers)) is not None:
        return gap
    covered: Dict[int, int] = {}
    for snap, center_of in zip(result.snapshots, centers):
        for v in snap.parent:
            if center_of[v] in snap.settled:
                if v in covered:
                    return Verdict("partition", False,
                                   f"vertex {v} settled twice "
                                   f"(phases {covered[v]} and {snap.phase})")
                covered[v] = snap.phase
    missing = set(g.vertices) - set(covered)
    if result.snapshots and missing:
        return Verdict("partition", False,
                       f"{len(missing)} vertices never settled, e.g. {min(missing)}")
    return Verdict("partition", True, "settled clusters partition the vertex set")


def _popular_settled_verdict(result: BuildResult) -> Verdict:
    for snap in result.snapshots:
        both = snap.popular & snap.settled
        if both:
            return Verdict("popular_superclustered", False,
                           f"phase {snap.phase}: popular cluster {min(both)} "
                           f"was not superclustered")
    return Verdict("popular_superclustered", True,
                   "every popular cluster was superclustered")


@dataclass(frozen=True)
class RulingVerdict:
    ok: bool
    failure: Optional[str] = None
    detail: str = ""


def check_ruling(adjacency: Dict[int, Sequence[int]], members: Iterable[int],
                 target: Iterable[int], alpha: int, beta: int) -> RulingVerdict:
    """Exact verification: alpha-separation and beta-domination.

    Separation searches from each member only to depth alpha - 1, the
    radius a violation can lie within; domination takes exact distances from
    one multi-source BFS of all members. A failure names the first offending
    pair or target in ID order. adjacency may be a Graph's or a phase's
    virtual cluster graph, which maps each center to its superedge
    neighbours.
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
    dist: Dict[int, float] = {}
    for d, layer in enumerate(bfs_layers(adjacency, members)):
        dist.update(dict.fromkeys(layer, d))
    for t in sorted(target_set):
        d = dist.get(t, math.inf)
        if d > beta:
            return RulingVerdict(False, "domination",
                                 f"target {t} at distance {d} > {beta} from every member")
    return RulingVerdict(True)


def _ruling_verdict(result: BuildResult, sched: Schedule) -> Verdict:
    for snap in result.snapshots:
        if snap.vgraph is None:
            continue
        rv = check_ruling(snap.vgraph, snap.selected, snap.popular,
                          alpha=3, beta=2 * sched.ruling_q)
        if not rv.ok:
            return Verdict("ruling", False,
                           f"phase {snap.phase}: {rv.failure}: {rv.detail}")
    return Verdict("ruling", True, "every phase ruling set is (3, 2q)-ruling")


def _charge_verdict(result: BuildResult, sched: Schedule) -> Verdict:
    # the ledger is the spanner's one account of its edges: their union
    # must be the spanner, since the radius verdict reads trees off it
    spanner = result.spanner
    charged = set(chain.from_iterable(map(attrgetter("edges"), spanner.charges)))
    if charged != spanner.edges:
        edge = min(charged ^ spanner.edges)
        return Verdict("charges", False,
                       f"spanner edge {edge} is charged to no vertex"
                       if edge in spanner.edges else
                       f"charged edge {edge} is not in the spanner")
    n, kappa = sched.n, sched.kappa
    is_sparse = result.algorithm == "sparse"
    final_phase = len(result.snapshots) - 1
    final_sizes = {snap.phase: len(snap.centers()) for snap in result.snapshots}
    # the exact cap each non-final phase's threshold n^e sets, the largest k
    # with count_lt_pow(k, n, e), found once per run of equal exponents:
    # polylog repeats 1/kappa in every phase
    caps: List[int] = []
    for e, run in groupby(sched.threshold_expos):
        cap = next(k for k in count() if not count_lt_pow(k + 1, n, e))
        caps += [cap] * len(list(run))
    # polylog holds each vertex to the one threshold of all its phases; a
    # single vertex has none, and no edge to charge
    vertex_cap = caps[0] if caps else 0
    by_vertex: Dict[int, List[Charge]] = {}
    for ch in spanner.charges:
        by_vertex.setdefault(ch.vertex, []).append(ch)
    for v, charges in by_vertex.items():
        supers = inters = 0
        for ch in charges:
            if ch.kind == SUPER:
                supers += len(ch.edges)
            elif ch.kind == INTER:
                inters += len(ch.edges)
        if supers > 1:
            return Verdict("charges", False,
                           f"vertex {v} charged for {supers} superclustering edges")
        if is_sparse:
            phases = {ch.phase for ch in charges}
            if len(phases) > 1:
                return Verdict("charges", False,
                               f"vertex {v} charged in phases {sorted(phases)}")
            if inters:
                ph = charges[0].phase
                if ph < final_phase:
                    if inters > caps[ph]:
                        return Verdict("charges", False,
                                       f"center {v} charged {inters} "
                                       f"interconnection edges in phase {ph}, "
                                       f"not below deg_{ph}")
                elif inters > max(0, final_sizes[ph] - 1):
                    return Verdict("charges", False,
                                   f"center {v} charged {inters} edges in the "
                                   f"final phase with {final_sizes[ph]} clusters")
        elif inters > vertex_cap:
            return Verdict("charges", False,
                           f"vertex {v} charged {inters} interconnection "
                           f"edges, not below n^(1/{kappa})")
    return Verdict("charges", True, "charge ledger within the per-vertex caps")


def _phase_counting_verdict(result: BuildResult, sched: Schedule) -> Verdict:
    # one snapshot per phase of the schedule, numbered 0..ell; a single
    # vertex has no phases. The counts below index the snapshots by phase.
    want = list(range(sched.ell + 1)) if sched.n > 1 else []
    got = [snap.phase for snap in result.snapshots]
    if got != want:
        k = next(k for k, (a, b) in enumerate(zip_longest(got, want)) if a != b)
        what = "missing" if k == len(got) else f"numbered {got[k]}"
        return Verdict("phase_counts", False,
                       f"snapshot {k} {what}: the schedule has {len(want)} "
                       f"phases, numbered from 0")
    if result.algorithm == "sparse":
        failures = _sparse_count_failures(result, sched)
    else:   # |P_i| <= n^((kappa-i)/kappa)
        n, kappa = sched.n, sched.kappa
        failures = []
        for snap in result.snapshots:
            clusters = len(snap.centers())
            if not count_le_pow(clusters, n, Fraction(kappa - snap.phase, kappa)):
                failures.append(f"phase {snap.phase}: {clusters} clusters "
                                f"exceed n^({kappa - snap.phase}/{kappa})")
    # the settled and the superclustered clusters split the phase's clusters
    for snap in result.snapshots:
        joined = snap.joins.keys()
        if snap.settled & joined or snap.settled | joined != snap.centers():
            failures.append(f"phase {snap.phase}: settled + joined != cluster count")
    if failures:
        return Verdict("phase_counts", False, "; ".join(failures[:3]))
    return Verdict("phase_counts", True, "all per-phase counting bounds hold")


def _sparse_count_failures(result: BuildResult, sched: Schedule) -> List[str]:
    """Every per-phase counting inequality of the sparse construction: exact
    big-integer checks, but for the one aggregate bound that mixes several
    fractional powers, which uses 60-digit decimals."""
    if not result.snapshots:
        return []
    n, kappa, rho, i0, ell = sched.n, sched.kappa, sched.rho, sched.i0, sched.ell
    sizes = {snap.phase: len(snap.centers()) for snap in result.snapshots}
    selected = {snap.phase: len(snap.selected) for snap in result.snapshots}
    settled = {snap.phase: len(snap.settled) for snap in result.snapshots}
    failures: List[str] = []

    def deg_pow(count: int, expo: Fraction) -> int:
        # count * n^expo <= bound  <=>  count^q * n^p <= bound^q
        return count ** expo.denominator * n ** expo.numerator

    for i in range(ell):
        e = sched.threshold_expos[i]
        room = sizes[i] - settled[i] - selected[i]
        if room < 0 or deg_pow(selected[i], e) > room ** e.denominator:
            failures.append(
                f"phase {i}: settled count {settled[i]} exceeds "
                f"|P_i| - |Q_i|*(deg_i+1)")
    for i in range(1, ell + 1):
        e = sched.threshold_expos[i - 1]
        if deg_pow(sizes[i], e) > sizes[i - 1] ** e.denominator:
            failures.append(
                f"phase {i}: {sizes[i]} clusters exceed the previous count "
                f"divided by deg_{i - 1}")
    for i in range(0, min(i0 + 1, ell) + 1):
        expo = Fraction(kappa - (2 ** i - 1), kappa)
        if not count_le_pow(sizes[i], n, expo):
            failures.append(
                f"phase {i}: {sizes[i]} clusters exceed the exponential-stage bound")
    for i in range(i0 + 1, ell + 1):
        expo = 1 + Fraction(1, kappa) - (i - i0) * rho
        if not count_le_pow(sizes[i], n, expo):
            failures.append(
                f"phase {i}: {sizes[i]} clusters exceed the fixed-stage bound")
    if not count_le_pow(sizes[ell], n, rho):
        failures.append(f"final phase holds {sizes[ell]} clusters, more than n^rho")

    inter_early = sum(len(ch.edges) for ch in result.spanner.charges
                      if ch.kind == INTER and ch.phase < ell)
    e0, el = sched.threshold_expos[0], sched.threshold_expos[ell - 1]
    with localcontext() as ctx:
        ctx.prec = 60
        bound = (Decimal(sizes[0]) * npow_decimal(n, e0)
                 - Decimal(sizes[ell]) * (npow_decimal(n, 2 * el) + npow_decimal(n, el)))
    if Decimal(inter_early) > bound:
        failures.append(
            f"{inter_early} interconnection edges before the final phase exceed "
            f"the aggregate bound {bound:.4f}")
    return failures


def _congestion_verdict(result: BuildResult) -> Verdict:
    tr = result.trace
    if tr.max_ids_per_message > 2:
        return Verdict("congestion", False,
                       f"a message carried {tr.max_ids_per_message} ids")
    for ep in tr.episodes:
        knockout_exchange = ".k" in ep.label and ep.label.endswith(".x")
        explore = ep.label.endswith(".explore") or ep.label.endswith(".exchange")
        if (knockout_exchange or explore) and ep.mode != "broadcast":
            return Verdict("congestion", False,
                           f"episode {ep.label} ran in mode {ep.mode}")
    return Verdict("congestion", True,
                   f"max {tr.max_ids_per_message} ids/message, "
                   f"knockout and exchange rounds broadcast-compliant")


def superedge_scan(center_of: Dict[int, int], popular: AbstractSet[int],
                   g: Graph) -> Tuple[Dict[int, Tuple[int, ...]], Dict[Edge, Edge]]:
    """A phase's virtual cluster graph from one scan of the edges of g: each
    center's sorted superedge neighbours, by center ascending, and each
    superedge (a, b), a < b, with its witness, the least edge of g between
    the two clusters.

    center_of maps every active vertex to its center; superedges join the
    adjacent cluster pairs with a center in popular. Edges at other vertices
    (dormant ones) join no clusters.
    """
    witness: Dict[Edge, Edge] = {}
    for v in g.vertices:
        cv = center_of.get(v)
        if cv is None:
            continue
        nbrs = g.adjacency[v]
        pv = cv in popular
        for u in nbrs[bisect_right(nbrs, v):]:
            cu = center_of.get(u)
            if cu is None or cu == cv or not (pv or cu in popular):
                continue
            # vertices and adjacency tuples ascend, so the first edge (v, u),
            # v < u, met for a cluster pair is its least
            witness.setdefault((cu, cv) if cu < cv else (cv, cu), (v, u))
    adj: Dict[int, List[int]] = {c: [] for c in sorted(set(center_of.values()))}
    for a, b in witness:
        adj[a].append(b)
        adj[b].append(a)
    return {c: tuple(sorted(ns)) for c, ns in adj.items()}, witness


def reference_supercluster(adjacency: Dict[int, Tuple[int, ...]],
                           witness: Dict[Edge, Edge], ruling: Iterable[int],
                           delta: int) -> Dict[int, JoinInfo]:
    """Centralized BFS of the superclustering step on the virtual cluster
    graph of superedge_scan; maps the center of every joined cluster to how
    it joined.

    Wave k joins every unjoined cluster adjacent to the wave-(k-1) frontier,
    choosing the minimal (root ID, witness edge) candidate.
    """
    roots = sorted(set(ruling))
    joins: Dict[int, JoinInfo] = {r: JoinInfo(r, None, None, 0) for r in roots}
    frontier = list(roots)
    for wave in range(1, delta + 1):
        if not frontier:
            break
        best: Dict[int, Tuple[int, Edge, int]] = {}
        for f in sorted(frontier):
            root = joins[f].root
            for t in adjacency.get(f, ()):
                if t in joins:
                    continue
                cand = (root, witness[(f, t) if f < t else (t, f)], f)
                if t not in best or cand[:2] < best[t][:2]:
                    best[t] = cand
        frontier = []
        for t in sorted(best):
            root, wedge, pred = best[t]
            joins[t] = JoinInfo(root, pred, wedge, wave)
            frontier.append(t)
    return joins


def _supercluster_oracle_verdict(g: Graph, result: BuildResult, sched: Schedule,
                                 centers: List[Dict[int, int]]) -> Verdict:
    """Each explored phase's virtual graph against superedge_scan of G with
    the centers of the radius verdict, and its joins against the reference
    exploration of that scan."""
    if (gap := _without_forest("supercluster_oracle", result, centers)) is not None:
        return gap
    for snap, center_of in zip(result.snapshots, centers):
        if snap.vgraph is None:
            continue
        adjacency, witness = superedge_scan(center_of, snap.popular, g)
        if snap.vgraph != adjacency:
            c = min(c for c in adjacency.keys() | snap.vgraph.keys()
                    if adjacency.get(c) != snap.vgraph.get(c))
            return Verdict("supercluster_oracle", False,
                           f"phase {snap.phase}: the virtual cluster graph "
                           f"differs from the edge scan at center {c}")
        ref = reference_supercluster(adjacency, witness, snap.selected,
                                     sched.delta)
        if ref != snap.joins:
            diff = {c for c in set(ref) | set(snap.joins)
                    if ref.get(c) != snap.joins.get(c)}
            return Verdict("supercluster_oracle", False,
                           f"phase {snap.phase}: exploration differs from the "
                           f"reference on clusters {sorted(diff)[:4]}")
    return Verdict("supercluster_oracle", True,
                   "simulated exploration matches the centralized reference")


def oracle_center_knowledge(center_of: Dict[int, int],
                            g: Graph) -> Dict[int, Dict[int, Set[int]]]:
    """Centrally computed neighboring clusters with all witness vertices.

    center_of maps each active vertex to its center. For each center: foreign
    center -> the set of own members with an edge into that cluster. The
    convergecast result must name one of these witnesses per foreign center,
    for every non-popular cluster.
    """
    out: Dict[int, Dict[int, Set[int]]] = {
        c: {} for c in sorted(set(center_of.values()))}
    for u, v in g.edges():
        cu, cv = center_of.get(u), center_of.get(v)
        if cu is None or cv is None or cu == cv:
            continue
        out[cu].setdefault(cv, set()).add(u)
        out[cv].setdefault(cu, set()).add(v)
    return out


def _knowledge_oracle_verdict(g: Graph, result: BuildResult,
                              centers: List[Dict[int, int]]) -> Verdict:
    if (gap := _without_forest("knowledge_oracle", result, centers)) is not None:
        return gap
    for snap, center_of in zip(result.snapshots, centers):
        if snap.knowledge is None:
            continue
        oracle = oracle_center_knowledge(center_of, g)
        for c, expected in oracle.items():
            if c in snap.popular:
                continue
            learned = snap.knowledge.get(c, {})
            if set(learned) != set(expected):
                return Verdict("knowledge_oracle", False,
                               f"phase {snap.phase}: center {c} learned "
                               f"{sorted(learned)} but neighbors are "
                               f"{sorted(expected)}")
            for cc, y in learned.items():
                if y not in expected[cc]:
                    return Verdict("knowledge_oracle", False,
                                   f"phase {snap.phase}: center {c} holds witness "
                                   f"{y} for {cc}, which has no edge there")
    return Verdict("knowledge_oracle", True,
                   "center knowledge matches the direct edge scan")
