"""Build cost must not depend on the width of the vertex-ID range.

The knock-out schedule splits the ID range into blocks; it must visit only
the blocks that hold a candidate. With IDs up to 2**63 - 1 a walk over every
block would never finish, so each build here runs under a generous wall bound.
Any relabelling with distinct positive IDs up to 2**63 - 1 must still build
and verify, and a shift of every ID by one constant must leave the build
itself unchanged: the knock-out's blocks read IDs as offsets from the least.
Under any bijection of the vertices into [1, 2**63), the verifier reports the
same stretch values and verdict flags, for a spanner file and for a build
mapped alike; the one verdict that reads ID order is the supercluster
oracle, which re-derives the protocol's least-ID choices of the joins, so
for a build the bijection must keep the order for it.
"""

import dataclasses
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings, strategies as st

import oracles

from congestspan import graph as gr
from congestspan import polylog, sparse, verify
from congestspan.clusters import JoinInfo
from congestspan.spanner import Charge, SpannerEdgeSet
from congestspan.verify import verify_build

MAX_ID = 2 ** 63 - 1
WALL_BOUND_S = 10.0


def _k4_wide() -> gr.Graph:
    ids = (1, 2, 3, MAX_ID)
    return gr.from_edges((u, v) for u in ids for v in ids if u < v)


def _relabel(g: gr.Graph, ids) -> gr.Graph:
    new_id = dict(zip(g.vertices, ids))
    return gr.from_edges((new_id[u], new_id[v]) for u, v in g.edges())


def _gnp_wide() -> gr.Graph:
    g = gr.generate_graph("gnp_connected", n=40, p=0.15, seed=11)
    return _relabel(g, random.Random(11).sample(range(1, MAX_ID + 1), g.n - 1)
                    + [MAX_ID])


@pytest.mark.parametrize("make", [_k4_wide, _gnp_wide], ids=["K4", "gnp40"])
@pytest.mark.parametrize("build", [
    lambda g: polylog.build_spanner(g, 2),
    lambda g: sparse.build_skeleton(g, Fraction(34, 100)),
], ids=["polylog2", "skeleton"])
def test_ids_up_to_2_pow_63_build_and_verify(make, build):
    g = make()
    assert g.id_range[1] == MAX_ID
    start = time.perf_counter()
    result = build(g)
    report = verify_build(g, result)
    elapsed = time.perf_counter() - start
    assert report["passed"], [v for v in report["verdicts"] if not v["ok"]]
    assert elapsed < WALL_BOUND_S


# no shrink phase: each shrink step of 40 IDs runs two full builds, so a
# failing example would take minutes to shrink instead of failing at once
@settings(max_examples=40, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(kind=st.sampled_from(["path", "cycle", "grid", "random_tree",
                             "complete", "gnp_connected"]),
       n=st.integers(3, 40), seed=st.integers(0, 10 ** 6),
       ids=st.lists(st.integers(1, MAX_ID), min_size=40, max_size=40,
                    unique=True))
def test_random_relabelling_builds_and_verifies(kind, n, seed, ids):
    # complete graphs stop at 12 vertices to keep every example cheap
    params = {"n": min(n, 12) if kind == "complete" else n, "seed": seed}
    if kind == "gnp_connected":
        params["p"] = 0.15
    g = _relabel(gr.generate_graph(kind, **params), ids)
    for build in (lambda: polylog.build_spanner(g, 2),
                  lambda: sparse.build_skeleton(g, Fraction(34, 100))):
        report = verify_build(g, build())
        assert report["passed"], [v for v in report["verdicts"] if not v["ok"]]


def _shift(g: gr.Graph, c: int) -> gr.Graph:
    return gr.Graph({v + c: [u + c for u in nbrs]
                     for v, nbrs in g.adjacency.items()}, g.meta)


def _mapped(result, to):
    """(snapshots, ledger, spanner) of result with every ID v replaced by
    to[v]."""
    def vx(v):
        return None if v is None else to[v]

    def edge(e):
        return None if e is None else gr.edge_key(to[e[0]], to[e[1]])

    def ids(vs):
        return frozenset(map(to.__getitem__, vs))

    def maps(m):
        return None if m is None else {to[k]: {to[a]: to[b] for a, b in d.items()}
                                       for k, d in m.items()}
    snapshots = [dataclasses.replace(
        snap,
        parent={to[v]: vx(p) for v, p in snap.parent.items()},
        popular=ids(snap.popular), selected=ids(snap.selected),
        settled=ids(snap.settled),
        joins={to[k]: JoinInfo(to[j.root], vx(j.pred), edge(j.witness), j.wave)
               for k, j in snap.joins.items()},
        vgraph=None if snap.vgraph is None else {
            to[k]: tuple(sorted(map(to.__getitem__, vs))) for k, vs in snap.vgraph.items()},
        knowledge=maps(snap.knowledge)) for snap in result.snapshots]
    ledger = [Charge(to[ch.vertex], ch.kind, ch.phase, tuple(map(edge, ch.edges)))
              for ch in result.spanner.charges]
    return snapshots, ledger, set(map(edge, result.spanner.edges))


@settings(max_examples=50, deadline=None)
@given(kind=st.sampled_from(["gnp_connected", "grid", "random_tree", "cycle"]),
       n=st.integers(8, 64), seed=st.integers(0, 10 ** 6), data=st.data())
def test_a_shift_of_every_id_leaves_the_build_unchanged(kind, n, seed, data):
    """Shifting every ID by c, up to 2**63 - 1 minus the largest, gives the
    same episode list (labels, modes, widths and per-round counts), the same
    snapshots, ledger and spanner, once mapped back."""
    params = {"n": n, "seed": seed}
    if kind == "gnp_connected":
        params["p"] = 0.2
    g = gr.generate_graph(kind, **params)
    c = data.draw(st.integers(1, MAX_ID - max(g.vertices)), label="c")
    moved = _shift(g, c)
    for build in (lambda g: polylog.build_spanner(g, 2),
                  lambda g: sparse.build_skeleton(g, Fraction(34, 100))):
        result, shifted = build(g), build(moved)
        assert shifted.trace.episodes == result.trace.episodes
        back = {v + c: v for v in g.vertices}
        assert _mapped(shifted, back) == (result.snapshots, result.spanner.charges,
                                          result.spanner.edges)


# no shrink phase, as above: a shrink step builds and verifies again, and a
# failing example took minutes to shrink
@settings(max_examples=80, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(kind=st.sampled_from(["gnp_connected", "grid", "random_tree", "cycle"]),
       n=st.integers(3, 80), seed=st.integers(0, 10 ** 6),
       h=st.sampled_from(["polylog", "skeleton", 1.0, 0.85, 0.6]),
       bound=st.sampled_from([None, 1, 3, 8]),
       width=st.sampled_from([1, 3, verify.STRETCH_BATCH]), data=st.data())
def test_a_bijection_of_the_ids_leaves_the_verdicts_unchanged(
        kind, n, seed, h, bound, width, data):
    """Under a random bijection of V into [1, 2**63), max_edge_stretch's
    value and verify_spanner_file's stretch values, sizes and verdict flags
    do not change; H is a built spanner or a random edge subset, often a
    disconnecting one, and its core is searched in batches of width (or in
    one search, if it fits). A witness may change, but mapped back it is
    still an edge of G whose ends are that far apart in H."""
    params = {"seed": seed}
    if kind == "grid":
        params.update(rows=max(2, n // 8), cols=8)
    else:
        params["n"] = n
    if kind == "gnp_connected":
        params["p"] = 0.15
    g = gr.generate_graph(kind, **params)
    if h == "polylog":
        edges = polylog.build_spanner(g, 2).spanner.edges
    elif h == "skeleton":
        edges = sparse.build_skeleton(g, Fraction(34, 100)).spanner.edges
    else:
        rnd = random.Random(seed)
        edges = {e for e in g.edges() if rnd.random() < h}
    ids = data.draw(st.lists(st.integers(1, MAX_ID - 1), min_size=g.n,
                             max_size=g.n, unique=True), label="ids")
    new_id = dict(zip(g.vertices, ids))
    old_id = dict(zip(ids, g.vertices))
    moved = _relabel(g, ids)
    moved_edges = {gr.edge_key(new_id[u], new_id[v]) for u, v in edges}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "STRETCH_BATCH", width)
        before, after = (verify.max_edge_stretch(*gh)
                         for gh in ((g, edges), (moved, moved_edges)))
        reports = [verify.verify_spanner_file(*gh, bound=bound)
                   for gh in ((g, edges), (moved, moved_edges))]
    assert repr(after[0]) == repr(before[0])
    if after[1] is not None:
        u, v = (old_id[x] for x in after[1])
        assert v in g.adjacency[u]
        d = oracles.bfs_distances(gr.subgraph_adjacency(g.vertices, edges), u)
        assert d.get(v, math.inf) == before[0]

    def values(report):
        return ({k: repr(x) for k, x in report.items() if k != "verdicts"},
                [(x["name"], x["ok"]) for x in report["verdicts"]])
    assert values(reports[1]) == values(reports[0])


# no shrink phase, as above
@settings(max_examples=25, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(kind=st.sampled_from(["gnp_connected", "grid", "random_tree", "cycle"]),
       n=st.integers(3, 64), seed=st.integers(0, 10 ** 6),
       build=st.sampled_from(["polylog", "skeleton"]),
       keep_order=st.booleans(), data=st.data())
def test_a_bijection_of_a_build_leaves_verify_build_unchanged(
        kind, n, seed, build, keep_order, data):
    """verify_build on the image of a build under a random bijection of V
    into [1, 2**63), G and the build's record (snapshots, ledger and
    spanner; the episodes name no vertex) mapped alike, gives the same
    max_edge_stretch, the same all-pairs stretch (n <= 64 here) and the
    same verdict flags. The one exception is the supercluster oracle under
    a bijection that changes the order of the IDs: it re-derives the joins
    the protocol picks, the least (root ID, witness edge) per cluster, and
    the image of the build's joins need not be those of the mapped IDs."""
    params = {"seed": seed}
    if kind == "grid":
        params.update(rows=max(2, n // 8), cols=8)
    else:
        params["n"] = n
    if kind == "gnp_connected":
        params["p"] = 0.15
    g = gr.generate_graph(kind, **params)
    result = (polylog.build_spanner(g, 2) if build == "polylog"
              else sparse.build_skeleton(g, Fraction(34, 100)))
    ids = data.draw(st.lists(st.integers(1, MAX_ID - 1), min_size=g.n,
                             max_size=g.n, unique=True), label="ids")
    if keep_order:
        ids.sort()
    snapshots, ledger, edges = _mapped(result, dict(zip(g.vertices, ids)))
    spanner = SpannerEdgeSet()
    spanner.edges, spanner.charges = edges, ledger
    image = dataclasses.replace(result, spanner=spanner, snapshots=snapshots)

    def values(report):
        pair = [v["detail"] for v in report["verdicts"]
                if v["name"] == "stretch_all_pairs"]
        flags = [(v["name"], v["ok"]) for v in report["verdicts"]
                 if keep_order or v["name"] != "supercluster_oracle"]
        return report["max_edge_stretch"], pair, flags
    before = values(verify_build(g, result))
    assert before[1], "the all-pairs stretch is measured"
    assert values(verify_build(_relabel(g, ids), image)) == before
