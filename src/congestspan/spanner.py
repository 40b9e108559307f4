"""The shared phase loop both spanner constructions run on.

A build proceeds in ell+1 phases over a shrinking collection of clusters.
Each non-final phase: orient the cluster trees, exchange cluster IDs with
neighbors, detect popular clusters (variant-specific), pick a 3-separated
ruling set among them, grow superclusters around the ruling clusters by a
bounded-depth exploration of the virtual cluster graph, then interconnect
the clusters left behind (variant-specific). The final phase interconnects
everything that remains. Clusters that interconnect become dormant: their
vertices stay silent in all later exchanges, which makes "neighboring
cluster" always mean a cluster of the current phase. Each phase leaves one
record, its snapshot: the orientation's parent map, the only record of the
phase's clusters, and the sets the phase chose. The report's per-phase rows
and the verifier's counts are derived from the snapshots and the charges.
Each construction's schedule is one frozen Schedule, built before the phase
loop from n, kappa and rho alone: the phase count, delta, q, the radius
bounds, the stretch bound and the thresholds. The build records none of it:
the verifier and the report build the same record again (verify.schedule).
A phase hands the next one its clusters as one vertex -> center map; their
trees are the global tree adjacency, which the witness edges extend.

Edges enter the spanner in charging steps, each leaving one charge record
(vertex, kind, phase, edges), charged to the phase that adds it. The
verification layer audits the charging rules against these records, and
reads the spanner at the start of each phase off them: the edges charged in
earlier phases.

run_phases runs with the cyclic garbage collector paused (collector_paused),
as verify.verify_build does. That is safe because neither makes a reference
cycle, which tests/test_collector.py pins: reference counting frees all
they drop.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from typing import (Dict, FrozenSet, Iterator, List, NamedTuple, Optional, Protocol,
                    Set, Tuple)

from . import comm, rulingset
from .clusters import (JoinInfo, build_cluster_graph, run_supercluster_bfs,
                       stitch_superclusters)
from .comm import Net, Orientation
from .graph import Edge, Graph
from .rulingset import RulingParams

SUPER = "supercluster"
INTER = "interconnect"


class Charge(NamedTuple):
    """One charging step: a joined center's witness edge, a polylog vertex's
    interconnection edges or a sparse center's, all charged to vertex."""
    vertex: int
    kind: str
    phase: int
    edges: Tuple[Edge, ...]


class SpannerEdgeSet:
    """The growing spanner with its charge ledger. The verifier checks that
    it is a subgraph of G."""

    def __init__(self):
        self.edges: Set[Edge] = set()
        self.charges: List[Charge] = []

    def add(self, edges: Tuple[Edge, ...], vertex: int, kind: str, phase: int) -> None:
        """Charge one step's edges to vertex."""
        self.edges.update(edges)
        self.charges.append(Charge(vertex, kind, phase, edges))

    def size(self) -> int:
        return len(self.edges)


@dataclass
class PhaseSnapshot:
    """The build's one record of a phase: what the verifier needs, with the
    charge ledger (one Charge per charging step), to re-derive and audit it,
    and what the report counts. parent, the only record of the phase's
    clusters, is the orientation's parent map itself: every active vertex
    maps to its tree parent and a center to None, cluster by cluster by
    center ascending, each cluster's vertices ascending. settled is the set
    the build passed to interconnect; joins maps each superclustered center
    to how it joined, a JoinInfo tuple (root, pred, witness, wave), and
    vgraph, when the phase explored, is the virtual cluster graph it
    explored: each center's sorted superedge neighbours. rounds is the
    simulated rounds the phase took and radius_actual its deepest tree. It
    holds no bound, since the schedule determines those."""
    phase: int
    parent: Dict[int, Optional[int]]
    popular: FrozenSet[int]
    selected: FrozenSet[int]
    settled: FrozenSet[int]
    joins: Dict[int, JoinInfo]
    vgraph: Optional[Dict[int, Tuple[int, ...]]]
    knowledge: Optional[Dict[int, Dict[int, int]]]
    radius_actual: int
    rounds: int

    def centers(self) -> Set[int]:
        """The phase's cluster centers: the roots of parent."""
        return {v for v, p in self.parent.items() if p is None}


@dataclass
class BuildResult:
    """A build's inputs (params: n, kappa, rho and preset) and choices."""
    algorithm: str
    params: dict
    spanner: SpannerEdgeSet
    snapshots: List[PhaseSnapshot]
    trace: comm.BuildTrace


@dataclass(frozen=True)
class Schedule:
    """A construction's schedule, fixed by n, kappa and rho: phases 0..ell,
    the exploration depth delta, the q of each (3, 2q)-ruling set, the radius
    bounds R_0..R_ell, the stretch bound they give (1 for a single vertex)
    and the exponent e_i of each non-final phase's threshold n^(e_i). Only
    sparse sets rho and i0, the last phase of its exponential stage.
    polylog.polylog_schedule and sparse.degree_schedule build it."""
    n: int
    kappa: int
    ell: int
    delta: int
    ruling_q: int
    radius_bounds: Tuple[int, ...]
    stretch_bound: int
    threshold_expos: Tuple[Fraction, ...]
    rho: Optional[Fraction] = None
    i0: Optional[int] = None


class Variant(Protocol):
    name: str
    schedule: Schedule

    def detect(self, net: Net, orient: Orientation,
               nbr_clusters: Dict[int, Dict[int, int]], phase: int,
               is_final: bool) -> Tuple[Set[int], Optional[Dict[int, Dict[int, int]]]]: ...

    def interconnect(self, net: Net, orient: Orientation,
                     nbr_clusters: Dict[int, Dict[int, int]], settled: Set[int],
                     knowledge: Optional[Dict[int, Dict[int, int]]],
                     phase: int, spanner: SpannerEdgeSet) -> None: ...


@contextmanager
def collector_paused() -> Iterator[None]:
    """Runs its block with the cyclic garbage collector off, and restores the
    caller's setting on exit, also when the block raises. The build and the
    verifier make no reference cycles (a tier-1 test holds them to it), so a
    collection inside them finds nothing to free: reference counting frees
    all they drop."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def run_phases(g: Graph, variant: Variant, params: dict) -> BuildResult:
    """The build of g, recorded with params, its inputs. A single vertex
    needs no phases and no edges."""
    if g.n == 1:
        return BuildResult(variant.name, params, SpannerEdgeSet(), [], comm.BuildTrace())
    with collector_paused():
        sched = variant.schedule
        ruling_params = RulingParams(q=sched.ruling_q)
        net = Net(g)
        spanner = SpannerEdgeSet()
        tree_adj: Dict[int, List[int]] = {v: [] for v in g.vertices}
        center_of: Dict[int, int] = {v: v for v in g.vertices}   # the next clusters
        snapshots: List[PhaseSnapshot] = []

        for i in range(sched.ell + 1):
            first = len(net.trace.episodes)
            is_final = i == sched.ell

            orient = comm.orient_clusters(net, center_of, tree_adj, f"p{i}.orient")
            nbr_clusters = comm.exchange_cluster_ids(net, orient, f"p{i}.exchange")

            popular, knowledge = variant.detect(net, orient, nbr_clusters, i, is_final)
            vgraph: Optional[Dict[int, Tuple[int, ...]]] = None
            selected: Set[int] = set()
            joins: Dict[int, JoinInfo] = {}
            if not is_final and popular:
                comm.downcast_single(net, orient, popular, f"p{i}.popbit")
                vgraph = build_cluster_graph(orient.center_of, popular, nbr_clusters)
                selected = rulingset.run_knockout_schedule(
                    net, orient, popular, ruling_params, g.id_range,
                    popular=popular, label=f"p{i}.rs")
                joins = run_supercluster_bfs(net, orient, selected, sched.delta, popular)
            settled = orient.members.keys() - joins.keys()

            for c, info in sorted(joins.items()):
                if info.witness is not None:
                    spanner.add((info.witness,), vertex=c, kind=SUPER, phase=i)
                    a, b = info.witness
                    tree_adj[a].append(b)
                    tree_adj[b].append(a)

            variant.interconnect(net, orient, nbr_clusters, settled, knowledge, i, spanner)

            snapshots.append(PhaseSnapshot(
                phase=i,
                parent=orient.parent,
                popular=frozenset(popular),
                selected=frozenset(selected),
                settled=frozenset(settled),
                joins=joins,
                vgraph=vgraph,
                knowledge=knowledge,
                radius_actual=orient.max_depth(),
                rounds=sum(e.rounds_elapsed for e in net.trace.episodes[first:]),
            ))

            center_of = stitch_superclusters(orient.center_of, joins)

        return BuildResult(
            algorithm=variant.name, params=params, spanner=spanner,
            snapshots=snapshots, trace=net.trace)

