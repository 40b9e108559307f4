"""Oracle verification of everything a build claims.

Every check here is independent of the construction code paths it audits:
stretch via one BFS of the spanner per vertex, stopped once every higher-ID
neighbour of that vertex is reached (so every graph edge is still measured
exactly), cluster radii via tree walks against the spanner snapshot taken at
each phase start, superclustering against the centralized reference
exploration, neighbor knowledge against a direct edge scan, and the charge
ledger against the counting rules. A report whose verdicts all pass is the
acceptance currency of the package.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Set, Tuple

from . import polylog as polylog_mod
from . import sparse as sparse_mod
from .clusters import reference_supercluster, verify_cluster_tree
from .exact import as_fraction, count_lt_pow
from .graph import Edge, Graph, bfs_layers, bfs_on_adjacency, subgraph_adjacency
from .rulingset import check_ruling
from .spanner import INTER, SUPER, BuildResult

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
    the spanner. Every edge is measured exactly, by one BFS of H per vertex
    u that stops as soon as it has reached all of u's higher-ID neighbours
    in g (or has used up u's component of H). The witness is the first edge,
    in vertex then adjacency order, that attains the maximum.
    """
    adj_h = subgraph_adjacency(g.vertices, spanner_edges)
    worst: float = 0.0
    worst_edge: Optional[Edge] = None
    for u in g.vertices:
        higher = [v for v in g.adjacency[u] if v > u]
        dist = _distances_to(adj_h, u, higher)
        for v in higher:
            d = dist.get(v, math.inf)
            if d > worst:
                worst = d
                worst_edge = (u, v)
                if d == math.inf:
                    return worst, worst_edge
    return worst, worst_edge


def _distances_to(adj: Dict[int, List[int]], source: int,
                  targets: List[int]) -> Dict[int, int]:
    """Hop distances from source to those targets it can reach (source
    itself not among them).

    A target not yet reached that has a neighbour in BFS layer d is at
    distance exactly d + 1, so each layer is tested against the targets'
    own adjacency lists, and the search stops one layer short of the
    farthest target instead of expanding the largest layer just to find it.
    """
    dist: Dict[int, int] = {}
    remaining = targets
    if not remaining:
        return dist
    for d, layer in enumerate(bfs_layers(adj, (source,)), 1):
        left = []
        for v in remaining:
            if layer.isdisjoint(adj[v]):
                left.append(v)
            else:
                dist[v] = d
        remaining = left
        if not remaining:
            break
    return dist


def max_pair_stretch(g: Graph, spanner_edges: Set[Edge]) -> float:
    """Largest d_H(x,y) / d_G(x,y) over all vertex pairs."""
    adj_h = subgraph_adjacency(g.vertices, spanner_edges)
    worst = 1.0
    for u in g.vertices:
        dg = bfs_on_adjacency(g.adjacency, u)
        dh = bfs_on_adjacency(adj_h, u)
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
    stretch, witness = (math.inf, None)
    if not outside:
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
        "max_pair_stretch": pair_stretch,
        "spanner_size": len(spanner_edges),
        "passed": all(v.ok for v in verdicts),
    }


def verify_build(g: Graph, result: BuildResult) -> dict:
    """Full audit of a build result; returns the report verdict block."""
    verdicts: List[Verdict] = []
    n = g.n
    is_sparse = result.algorithm == "sparse"
    kappa = result.params["kappa"]

    if is_sparse:
        stretch_cap = sparse_mod.stretch_bound_exact(
            n, kappa, as_fraction(result.params["rho"]))
    else:
        stretch_cap = polylog_mod.stretch_bound_exact(n, kappa)

    # stretch
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
        bound_text = f"n^(1+1/{kappa}) + n"
    else:
        ok = polylog_mod.size_bound_holds(result)
        bound_text = f"n^(1+1/{kappa})"
    verdicts.append(Verdict(
        "size", ok, f"{result.spanner.size()} edges vs {bound_text} "
                    f"= {n ** (1 + 1 / kappa) + (n if is_sparse else 0):.2f}"))

    # per-phase structure
    verdicts.append(_radius_verdict(result))
    verdicts.append(_partition_verdict(g, result))
    verdicts.append(_popular_settled_verdict(result))
    verdicts.append(_ruling_verdict(result))
    verdicts.append(_charge_verdict(result))
    verdicts.append(_phase_counting_verdict(result))
    verdicts.append(_congestion_verdict(result))
    if n <= ALL_PAIRS_LIMIT:
        verdicts.append(_supercluster_oracle_verdict(result))
        if is_sparse:
            verdicts.append(_knowledge_oracle_verdict(g, result))

    return {
        "verdicts": [v.as_dict() for v in verdicts],
        "max_edge_stretch": None if stretch == math.inf else stretch,
        "stretch_bound": stretch_cap,
        "spanner_size": result.spanner.size(),
        "passed": all(v.ok for v in verdicts),
    }


def _radius_verdict(result: BuildResult) -> Verdict:
    for snap in result.snapshots:
        for c in snap.cluster_set.clusters:
            tv = verify_cluster_tree(c, snap.spanner_edges_at_start,
                                     snap.radius_bound)
            if not tv.ok:
                return Verdict("radius", False,
                               f"phase {snap.phase}, cluster {c.center}: "
                               f"{tv.failure}: {tv.detail}")
    return Verdict("radius", True, "all cluster trees within the phase radius bound")


def _partition_verdict(g: Graph, result: BuildResult) -> Verdict:
    covered: Dict[int, int] = {}
    for snap in result.snapshots:
        members_of: Dict[int, List[int]] = defaultdict(list)
        for v, cc in snap.cluster_set.member_center().items():
            members_of[cc].append(v)
        for c in snap.settled:
            for v in members_of.get(c, ()):
                if v in covered:
                    return Verdict("partition", False,
                                   f"vertex {v} settled twice "
                                   f"(phases {covered[v]} and {snap.phase})")
                covered[v] = snap.phase
    missing = set(g.vertices) - set(covered)
    if result.snapshots and missing:
        return Verdict("partition", False,
                       f"{len(missing)} vertices never settled, e.g. {min(missing)}")
    if set(result.partition) != set(g.vertices):
        return Verdict("partition", False, "partition record does not cover V")
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


def _ruling_verdict(result: BuildResult) -> Verdict:
    for snap in result.snapshots:
        if not snap.selected:
            continue
        q = result.params["ruling_q"]
        beta = 2 * q
        rv = check_ruling(snap.vgraph.adjacency, snap.selected, snap.popular,
                          alpha=3, beta=beta)
        if not rv.ok:
            return Verdict("ruling", False,
                           f"phase {snap.phase}: {rv.failure}: {rv.detail}")
    return Verdict("ruling", True, "every phase ruling set is (3, 2q)-ruling")


def _charge_verdict(result: BuildResult) -> Verdict:
    n = result.params["n"]
    kappa = result.params["kappa"]
    is_sparse = result.algorithm == "sparse"
    final_phase = len(result.reports) - 1
    final_sizes = {rep.phase: rep.num_clusters for rep in result.reports}
    by_vertex = result.spanner.charges_by_vertex()
    for v, charges in by_vertex.items():
        supers = [ch for ch in charges if ch.kind == SUPER]
        inters = [ch for ch in charges if ch.kind == INTER]
        if len(supers) > 1:
            return Verdict("charges", False,
                           f"vertex {v} charged for {len(supers)} superclustering edges")
        if is_sparse:
            phases = {ch.phase for ch in charges}
            if len(phases) > 1:
                return Verdict("charges", False,
                               f"vertex {v} charged in phases {sorted(phases)}")
            if inters:
                ph = inters[0].phase
                if ph < final_phase:
                    expo = as_fraction(result.params["rho"])
                    sched = sparse_mod.degree_schedule(n, kappa, expo)
                    if not count_lt_pow(len(inters), n, sched.deg_expos[ph]):
                        return Verdict("charges", False,
                                       f"center {v} charged {len(inters)} "
                                       f"interconnection edges in phase {ph}, "
                                       f"not below deg_{ph}")
                elif len(inters) > max(0, final_sizes[ph] - 1):
                    return Verdict("charges", False,
                                   f"center {v} charged {len(inters)} edges in the "
                                   f"final phase with {final_sizes[ph]} clusters")
        else:
            if inters and not count_lt_pow(len(inters), n, Fraction(1, kappa)):
                return Verdict("charges", False,
                               f"vertex {v} charged {len(inters)} interconnection "
                               f"edges, not below n^(1/{kappa})")
    return Verdict("charges", True, "charge ledger within the per-vertex caps")


def _phase_counting_verdict(result: BuildResult) -> Verdict:
    if result.algorithm == "sparse":
        failures = sparse_mod.phase_size_assertions(result)
    else:
        failures = polylog_mod.size_assertions(result)
    # settled + superclustered must account for every cluster of the phase
    for snap, rep in zip(result.snapshots, result.reports):
        if len(snap.settled) + len(snap.joins) != rep.num_clusters:
            failures.append(f"phase {snap.phase}: settled + joined != cluster count")
    if failures:
        return Verdict("phase_counts", False, "; ".join(failures[:3]))
    return Verdict("phase_counts", True, "all per-phase counting bounds hold")


def _congestion_verdict(result: BuildResult) -> Verdict:
    tr = result.trace
    if tr.max_ids_per_message > 2:
        return Verdict("congestion", False,
                       f"a message carried {tr.max_ids_per_message} ids")
    if tr.messages_per_edge_per_round_max > 1:
        return Verdict("congestion", False, "per-edge multiplicity above 1")
    for ep in tr.episodes:
        knockout_exchange = ".k" in ep.label and ep.label.endswith(".x")
        explore = ep.label.endswith(".explore") or ep.label.endswith(".exchange")
        if (knockout_exchange or explore) and ep.mode != "broadcast":
            return Verdict("congestion", False,
                           f"episode {ep.label} ran in mode {ep.mode}")
    return Verdict("congestion", True,
                   f"max {tr.max_ids_per_message} ids/message, "
                   f"knockout and exchange rounds broadcast-compliant")


def _supercluster_oracle_verdict(result: BuildResult) -> Verdict:
    for snap in result.snapshots:
        if not snap.selected:
            continue
        delta = result.params["delta"]
        ref = reference_supercluster(snap.vgraph, snap.selected, delta)
        if ref.joins != snap.joins:
            diff = {c for c in set(ref.joins) | set(snap.joins)
                    if ref.joins.get(c) != snap.joins.get(c)}
            return Verdict("supercluster_oracle", False,
                           f"phase {snap.phase}: exploration differs from the "
                           f"reference on clusters {sorted(diff)[:4]}")
    return Verdict("supercluster_oracle", True,
                   "simulated exploration matches the centralized reference")


def _knowledge_oracle_verdict(g: Graph, result: BuildResult) -> Verdict:
    for snap in result.snapshots:
        if snap.knowledge is None:
            continue
        oracle = sparse_mod.oracle_center_knowledge(snap, g)
        for c in snap.cluster_set.by_center():
            if c in snap.popular:
                continue
            learned = snap.knowledge.get(c, {})
            expected = oracle.get(c, {})
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
