"""The acceptance corpus and the worker functions that run one point each.

Kept importable (not a test module) so multiprocessing workers can unpickle
the task tuples, and so the calibration entry point can reuse the same runs.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, List, Set, Tuple

from congestspan import graph as gr
from congestspan import polylog, sparse, verify
from congestspan.clusters import build_cluster_graph
from congestspan.comm import Net
from congestspan.exact import ceil_log2_int
from congestspan.rulingset import RulingParams, run_knockout_schedule
from congestspan.verify import check_ruling, forest_centers
from oracles import exchange_maps, orientation_from_parents

SIZES = (16, 32, 64, 128, 256)
GNP_SEEDS = tuple(range(1, 21))


def gnp_p(n: int) -> float:
    return round(2 * math.log(n) / n, 4)


def graph_specs(n: int) -> Iterator[Tuple[str, dict]]:
    yield "path", {"kind": "path", "n": n}
    yield "cycle", {"kind": "cycle", "n": n}
    yield "grid", {"kind": "grid", "n": n}
    yield "random_tree", {"kind": "random_tree", "n": n, "seed": n}
    yield "complete", {"kind": "complete", "n": n}
    for seed in GNP_SEEDS:
        yield f"gnp{seed}", {"kind": "gnp_connected", "n": n,
                             "p": gnp_p(n), "seed": seed}


def make_graph(params: dict) -> gr.Graph:
    params = dict(params)
    kind = params.pop("kind")
    return gr.generate_graph(kind, **params)


def polylog_kappas(n: int) -> List[int]:
    out = []
    for k in (2, 3, ceil_log2_int(n)):
        if k not in out:
            out.append(k)
    return out


def sparse_configs(n: int) -> List[Tuple[int, str]]:
    skel = sparse.skeleton_kappa(n)
    return [(3, "1/3"), (skel, "0.34"), (skel, "0.45")]


def build_tasks() -> List[tuple]:
    """Every (algorithm, graph, parameters) point of the acceptance corpus."""
    tasks = []
    for n in SIZES:
        for name, spec in graph_specs(n):
            for kappa in polylog_kappas(n):
                tasks.append(("polylog", name, spec, kappa, None))
            for kappa, rho in sparse_configs(n):
                tasks.append(("sparse", name, spec, kappa, rho))
    return tasks


def run_build_point(task: tuple) -> dict:
    """Build + fully verify one corpus point; returns a summary row."""
    alg, name, spec, kappa, rho = task
    g = make_graph(spec)
    if alg == "polylog":
        result = polylog.build_spanner(g, kappa)
    else:
        result = sparse.build_spanner(g, kappa, _rho(rho))
    report = verify.verify_build(g, result)
    failures = [v["name"] for v in report["verdicts"] if not v["ok"]]
    details = {v["name"]: v["detail"] for v in report["verdicts"] if not v["ok"]}
    last = result.snapshots[-1] if result.snapshots else None
    return {
        "alg": alg, "name": name, "n": g.n, "kappa": kappa, "rho": rho,
        "graph_edges": g.num_edges(),
        "spanner_edges": result.spanner.size(),
        "rounds": result.trace.rounds_total,
        "max_ids": result.trace.max_ids_per_message,
        "max_stretch": report["max_edge_stretch"],
        "stretch_bound": report["stretch_bound"],
        "final_clusters": len(last.centers()) if last else 0,
        "failures": failures,
        "failure_details": details,
    }


def _rho(rho: str) -> Fraction:
    return Fraction(*map(int, rho.split("/"))) if "/" in rho else Fraction(rho)


# ---------------------------------------------------------------------------
# Ruling-set instances (criterion: 100 base runs + 20 supergraph runs).

def ruling_tasks() -> List[tuple]:
    """Exactly 100 instances: per size, 14 seeded G(n,p) plus 6 structured."""
    tasks = []
    idx = 0
    for n in SIZES:
        specs = [("gnp", {"kind": "gnp_connected", "n": n, "p": gnp_p(n),
                          "seed": s}) for s in range(1, 15)]
        specs += [("path", {"kind": "path", "n": n}),
                  ("cycle", {"kind": "cycle", "n": n}),
                  ("grid", {"kind": "grid", "n": n}),
                  ("tree1", {"kind": "random_tree", "n": n, "seed": 1}),
                  ("tree2", {"kind": "random_tree", "n": n, "seed": 2}),
                  ("complete", {"kind": "complete", "n": min(n, 64)})]
        for name, spec in specs:
            q = (2, 3, ceil_log2_int(n))[idx % 3]
            cand_mode = ("all", "evens", "sample")[idx % 3]
            tasks.append((name, spec, q, cand_mode, idx))
            idx += 1
    assert len(tasks) == 100
    return tasks


def knockout_ruling_set(g: gr.Graph, candidates, q: int, parent_maps=None,
                        popular=None, net=None) -> Tuple[Set[int], int]:
    """The (3, 2q)-ruling set that the build's knock-out schedule picks among
    the candidate clusters, and the rounds it took.

    parent_maps holds each cluster's tree, center -> {member: parent} (None
    for the center); by default every vertex of g is its own cluster.
    popular, all clusters by default, spans the virtual cluster graph the
    knock-out floods cross. The episodes are recorded on net, if given.
    """
    if parent_maps is None:
        parent_maps = {v: {v: None} for v in g.vertices}
    net = net or Net(g)
    rounds0 = net.trace.rounds_total
    members = run_knockout_schedule(
        net, orientation_from_parents(parent_maps), set(candidates),
        RulingParams(q=q), g.id_range,
        popular=set(parent_maps) if popular is None else popular, label="rs")
    return members, net.trace.rounds_total - rounds0


def run_ruling_point(task: tuple) -> dict:
    name, spec, q, cand_mode, idx = task
    g = make_graph(spec)
    if cand_mode == "all":
        a = set(g.vertices)
    elif cand_mode == "evens":
        a = {v for v in g.vertices if v % 2 == 0} or set(g.vertices)
    else:
        import random
        rnd = random.Random(idx)
        a = set(rnd.sample(sorted(g.vertices), max(1, g.n // 2)))
    members, rounds = knockout_ruling_set(g, a, q)
    verdict = check_ruling(g.adjacency, members, a, 3, 2 * q)
    return {"name": name, "n": g.n, "q": q, "mode": cand_mode,
            "ok": verdict.ok, "detail": verdict.detail,
            "members": len(members), "rounds": rounds}


def supergraph_ruling_tasks() -> List[tuple]:
    """20 build configurations whose phase-1 cluster graph gets re-ruled."""
    tasks = []
    for n in (32, 64):
        for seed in range(1, 11):
            tasks.append((n, seed))
    return tasks


def run_supergraph_ruling_point(task: tuple) -> dict:
    n, seed = task
    g = make_graph({"kind": "gnp_connected", "n": n, "p": gnp_p(n), "seed": seed})
    result = polylog.build_spanner(g, 3)
    if len(result.snapshots) < 2 or not result.snapshots[1].parent:
        return {"n": n, "seed": seed, "ok": True, "mode": "no-phase-1-clusters"}
    snap = result.snapshots[1]
    at_start = {e for ch in result.spanner.charges if ch.phase < snap.phase
                for e in ch.edges}
    center_of = forest_centers(snap.parent, at_start,
                               verify.schedule(result).radius_bounds[1])
    p = {}
    for v, parent in snap.parent.items():
        p.setdefault(center_of[v], {})[v] = parent
    q = max(2, ceil_log2_int(n))
    if snap.popular:
        a, popular = set(snap.popular), set(snap.popular)
        mode = "popular"
    else:
        a, popular = set(p), None
        mode = "all-clusters"
    members, _ = knockout_ruling_set(g, a, q, parent_maps=p, popular=popular)
    vg = build_cluster_graph(center_of, popular if popular is not None else set(p),
                             exchange_maps(center_of, g))
    verdict = check_ruling(vg, members, a, 3, 2 * q)
    return {"n": n, "seed": seed, "ok": verdict.ok, "mode": mode,
            "detail": verdict.detail, "members": len(members)}


# ---------------------------------------------------------------------------
# Round-count models for the regression criterion.

def polylog_round_model(n: int, kappa: int) -> float:
    return float(4 * ceil_log2_int(n) + 1) ** (kappa - 1)


def sparse_round_model(n: int, kappa: int, rho: str) -> float:
    frac = _rho(rho)
    sched = sparse.degree_schedule(n, kappa, frac)
    return float(n) ** float(frac) * float(4 / frac + 1) ** (sched.ell + 1)


def voronoi_clusters(g, roots):
    """Partition g's vertices around the roots by BFS, with parent maps."""
    from collections import deque
    owner = {r: r for r in roots}
    parent = {r: None for r in roots}
    queue = deque(sorted(roots))
    while queue:
        v = queue.popleft()
        for u in g.adjacency[v]:
            if u not in owner:
                owner[u] = owner[v]
                parent[u] = v
                queue.append(u)
    maps = {r: {} for r in roots}
    for v, r in owner.items():
        maps[r][v] = parent[v]
    return maps
