"""Build cost must not depend on the width of the vertex-ID range.

The knock-out schedule splits the ID range into blocks; it must visit only
the blocks that hold a candidate. With IDs up to 2**63 - 1 a walk over every
block would never finish, so each build here runs under a generous wall bound.
Any relabelling with distinct positive IDs up to 2**63 - 1 must still build
and verify, and a shift of every ID by one constant must leave the build
itself unchanged: the knock-out's blocks read IDs as offsets from the least.
"""

import dataclasses
import random
import time
from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings, strategies as st

from congestspan import graph as gr
from congestspan import polylog, sparse
from congestspan.clusters import JoinInfo
from congestspan.spanner import Charge
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


def _unshifted(result, c: int):
    """(snapshots, ledger, spanner) of result with every ID moved down by c."""
    def vx(v):
        return None if v is None else v - c

    def edge(e):
        return None if e is None else (e[0] - c, e[1] - c)

    def ids(vs):
        return frozenset(v - c for v in vs)

    def maps(m):
        return None if m is None else {k - c: {a - c: b - c for a, b in d.items()}
                                       for k, d in m.items()}
    snapshots = [dataclasses.replace(
        snap,
        parent={v - c: vx(p) for v, p in snap.parent.items()},
        popular=ids(snap.popular), selected=ids(snap.selected),
        settled=ids(snap.settled),
        joins={k - c: JoinInfo(j.root - c, vx(j.pred), edge(j.witness), j.wave)
               for k, j in snap.joins.items()},
        vgraph=None if snap.vgraph is None else {
            k - c: tuple(v - c for v in vs) for k, vs in snap.vgraph.items()},
        knowledge=maps(snap.knowledge)) for snap in result.snapshots]
    ledger = [Charge(ch.vertex - c, ch.kind, ch.phase, tuple(map(edge, ch.edges)))
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
        assert _unshifted(shifted, c) == (result.snapshots, result.spanner.charges,
                                          result.spanner.edges)
