import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from corpus import gnp_p, voronoi_clusters

from congestspan import graph as gr
from congestspan import polylog, sparse, verify
from congestspan.clusters import build_cluster_graph, radius_sequence
from congestspan.comm import Net, Orientation, exchange_cluster_ids
from congestspan.verify import (ALL_PAIRS_LIMIT, ForestError, forest_centers,
                                reference_supercluster, superedge_scan)


def singletons(g):
    """The phase-0 partition as a center map: every vertex is its own center."""
    return {v: v for v in g.vertices}


def witnesses(center_of, popular, g):
    """The verifier's superedge witnesses."""
    return superedge_scan(center_of, popular, g)[1]


def reference(center_of, popular, g, ruling, delta):
    """The verifier's reference exploration of its own scan of g."""
    return reference_supercluster(*superedge_scan(center_of, popular, g),
                                  ruling, delta)


class TestSingletons:
    """A build's phase 0 is one radius-0 cluster per vertex."""

    def test_complete_graph(self):
        g = gr.generate_graph("complete", n=5)
        # bound 0 with no spanner edges: every tree is its center alone
        p = polylog.build_spanner(g, 2).snapshots[0].parent
        assert len(forest_centers(p, set(), 0)) == 5

    def test_covers_everything_radius_zero(self):
        g = gr.generate_graph("gnp_connected", n=24, p=0.2, seed=9)
        p = polylog.build_spanner(g, 3).snapshots[0].parent
        assert set(forest_centers(p, set(), 0)) == set(g.vertices)


class TestRadiusSequence:
    def test_first_value_delta_eight(self):
        # n = 16 makes delta = 2*log2(16) = 8; the recurrence gives R_1 = 8
        seq = radius_sequence(8, 2)
        assert seq[1] == (2 * 8 + 1) * 0 + 8 == 8

    def test_second_value_delta_eight(self):
        seq = radius_sequence(8, 2)
        assert seq[2] == 17 * 8 + 8 == 144

    def test_base_case(self):
        for delta in (1, 5, 64):
            assert radius_sequence(delta, 3)[0] == 0

    def test_closed_form_matches_recurrence(self):
        for delta in range(1, 65):
            seq = radius_sequence(delta, 12)
            for i in range(13):
                assert seq[i] == delta * sum((2 * delta + 1) ** j for j in range(i))

    def test_upper_bound(self):
        # R_i <= (2*delta+1)^i / 2
        for delta in range(1, 65):
            seq = radius_sequence(delta, 12)
            for i in range(13):
                assert 2 * seq[i] <= (2 * delta + 1) ** i

    def test_invalid(self):
        with pytest.raises(ValueError):
            radius_sequence(0, 3)

    def test_refuses_a_stretch_bound_too_long_to_print(self):
        # the stretch bound scale*R_ell + 1 may have 4300 digits, the most
        # Python turns into text by default; ell is the last phase it fits
        limit = 10 ** 4300
        for scale in (1, 2, 4):
            ell, radius = 0, 0
            while scale * (9 * radius + 4) + 1 < limit:
                ell, radius = ell + 1, 9 * radius + 4
            bound = scale * radius_sequence(4, ell, scale)[-1] + 1
            assert bound == scale * radius + 1
            assert len(str(bound)) == 4300
            with pytest.raises(ValueError, match="more than 4300 digits"):
                radius_sequence(4, ell + 1, scale)

    def test_refusal_stops_early(self):
        # refused at R_4507, long before the end of the sequence
        with pytest.raises(ValueError, match="ell = 1000000000000,"):
            radius_sequence(4, 10 ** 12)


class TestVirtualGraph:
    """The build's adjacency, and the witnesses of the verifier's scan."""

    def test_complete_all_popular(self):
        g = gr.generate_graph("complete", n=5)
        p = singletons(g)
        vg = build_cluster_graph(p, set(g.vertices), oracles.exchange_maps(p, g))
        assert len(witnesses(p, set(g.vertices), g)) == 10
        assert sorted(vg) == sorted(g.vertices)
        assert all(len(vg[c]) == 4 for c in vg)

    def test_path_one_popular(self):
        g = gr.generate_graph("path", n=3)
        p = singletons(g)
        assert set(witnesses(p, {2}, g)) == {(1, 2), (2, 3)}
        assert build_cluster_graph(p, {2}, oracles.exchange_maps(p, g)) \
            == {1: (2,), 2: (1, 3), 3: (2,)}

    def test_no_popular_no_edges(self):
        g = gr.generate_graph("path", n=3)
        p = singletons(g)
        assert len(witnesses(p, set(), g)) == 0
        assert build_cluster_graph(p, set(), oracles.exchange_maps(p, g)) \
            == {1: (), 2: (), 3: ()}

    def test_witness_is_lexicographically_smallest(self):
        # two clusters joined by several edges keep the smallest one
        g = gr.from_edges([(1, 4), (2, 3), (1, 2), (3, 4), (2, 4)])
        p = {1: 1, 2: 1, 3: 3, 4: 3}
        assert witnesses(p, {1, 3}, g)[(1, 3)] == (1, 4)
        assert build_cluster_graph(p, {1, 3}, oracles.exchange_maps(p, g)) \
            == {1: (3,), 3: (1,)}

    def test_dormant_vertices_carry_no_superedges(self):
        # vertex 2 is in no cluster: 1 and 3 only connect through it
        g = gr.generate_graph("path", n=3)
        p = {1: 1, 3: 3}
        assert len(witnesses(p, {1, 3}, g)) == 0
        assert build_cluster_graph(p, {1, 3}, oracles.exchange_maps(p, g)) \
            == {1: (), 3: ()}


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_cluster_graph_equals_the_edge_scan_oracle(data):
    """Random partitions of random graphs, some vertices dormant, IDs up to
    2^63 - 1: the build's adjacency and the verifier's scan give the same
    superedges as the oracle, and the scan the same witnesses, in the same
    order."""
    n = data.draw(st.integers(2, 40), label="n")
    g = gr.generate_graph("gnp_connected", n=n,
                          p=data.draw(st.sampled_from([0.05, 0.2, 0.5, 1.0]), label="p"),
                          seed=data.draw(st.integers(0, 10 ** 6), label="seed"))
    if data.draw(st.booleans(), label="wide ids"):
        new_id = dict(zip(g.vertices, random.Random(n).sample(range(1, 2 ** 63), n)))
        g = gr.from_edges((new_id[u], new_id[v]) for u, v in g.edges())
    vertices = st.sampled_from(g.vertices)
    centers = data.draw(st.lists(vertices, min_size=1, unique=True), label="centers")
    center_of = dict.fromkeys(centers)
    for v in data.draw(st.permutations(g.vertices), label="order"):
        c = data.draw(st.sampled_from([None, *centers]), label="center")
        if v in center_of:
            center_of[v] = v
        elif c is not None:
            center_of[v] = c
    popular = data.draw(st.sets(st.sampled_from(centers)), label="popular")

    adjacency, witness = oracles.build_cluster_graph(center_of, popular, g)
    vg = build_cluster_graph(center_of, popular,
                             oracles.exchange_maps(center_of, g))
    assert list(vg.items()) == list(adjacency.items())
    scan_adjacency, scan_witness = superedge_scan(center_of, popular, g)
    assert list(scan_adjacency.items()) == list(adjacency.items())
    assert list(scan_witness.items()) == list(witness.items())


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_exchange_equals_the_edge_scan_oracle(data):
    """Random partitions of random graphs, some vertices dormant, IDs up to
    2^63 - 1: every active vertex hears from the exchange the least active
    neighbour in each other cluster it borders, as the edge scan finds it."""
    n = data.draw(st.integers(2, 40), label="n")
    g = gr.generate_graph("gnp_connected", n=n,
                          p=data.draw(st.sampled_from([0.05, 0.2, 0.5, 1.0]), label="p"),
                          seed=data.draw(st.integers(0, 10 ** 6), label="seed"))
    if data.draw(st.booleans(), label="wide ids"):
        new_id = dict(zip(g.vertices, random.Random(n).sample(range(1, 2 ** 63), n)))
        g = gr.from_edges((new_id[u], new_id[v]) for u, v in g.edges())
    centers = data.draw(st.lists(st.sampled_from(g.vertices), min_size=1,
                                 unique=True), label="centers")
    center_of = {c: c for c in centers}
    for v in g.vertices:
        if v not in center_of:
            c = data.draw(st.sampled_from([None, *centers]), label="center")
            if c is not None:
                center_of[v] = c
    # the exchange reads only the orientation's vertex -> center map
    orient = Orientation(center_of, {}, {}, {}, {})
    heard = exchange_cluster_ids(Net(g), orient, "exchange")
    assert heard == oracles.exchange_maps(center_of, g)


class TestReferenceSupercluster:
    def test_everything_ruling_yields_identity(self):
        g = gr.generate_graph("complete", n=5)
        p = singletons(g)
        out = reference(p, set(g.vertices), g, set(g.vertices), delta=3)
        assert all(j.witness is None for j in out.values())
        assert set(out) == set(g.vertices)

    def test_star_hub_absorbs_leaves(self):
        g = gr.from_edges([(1, v) for v in range(2, 6)])
        p = singletons(g)
        out = reference(p, {1}, g, {1}, delta=1)
        assert set(out) == {1, 2, 3, 4, 5}
        assert sum(j.witness is not None for j in out.values()) == 4

    def test_path_depth_two(self):
        g = gr.generate_graph("path", n=3)
        p = singletons(g)
        out = reference(p, {1, 2, 3}, g, {1}, delta=2)
        assert set(out) == {1, 2, 3}
        assert out[3].pred == 2 and out[3].wave == 2

    def test_depth_limit_respected(self):
        g = gr.generate_graph("path", n=5)
        p = singletons(g)
        out = reference(p, set(g.vertices), g, {1}, delta=2)
        assert set(out) == {1, 2, 3}

    def test_min_root_wins_ties(self):
        # vertex 3 is reached by roots 2 and 4 simultaneously
        g = gr.generate_graph("path", n=5)
        p = singletons(g)
        out = reference(p, set(g.vertices), g, {2, 4}, delta=1)
        assert out[3].root == 2


def forest_failure(parent, edges, bound):
    """The failure name forest_centers raises, or None if it passes."""
    try:
        forest_centers(parent, edges, bound)
    except ForestError as exc:
        return exc.failure
    return None


class TestVerifyClusterTree:
    """The cluster-tree checks, made by forest_centers on a flat parent map."""

    def test_singleton_passes(self):
        assert forest_failure({7: None}, set(), 0) is None

    def test_non_member_parent_fails(self):
        assert forest_failure({1: None, 2: 9}, {(2, 9)}, 5) == "members-only"

    def test_edge_outside_spanner_fails(self):
        assert forest_failure({1: None, 2: 1}, set(), 5) == "tree-not-in-spanner"

    def test_depth_bound(self):
        parent = {1: None, 2: 1, 3: 2}
        edges = {(1, 2), (2, 3)}
        assert forest_failure(parent, edges, 2) is None
        assert forest_failure(parent, edges, 1) == "depth"

    def test_cycle_fails(self):
        parent = {1: None, 2: 3, 3: 4, 4: 2}
        edges = {(2, 3), (3, 4), (2, 4)}
        assert forest_failure(parent, edges, 5) == "span"

    def test_centers_of_several_trees(self):
        # walks that meet a vertex of known depth stop there
        parent = {5: 4, 4: 1, 1: None, 2: 1, 7: None, 3: 7, 6: 3}
        edges = {(1, 4), (4, 5), (1, 2), (3, 7), (3, 6)}
        assert forest_centers(parent, edges, 2) == {
            1: 1, 2: 1, 4: 1, 5: 1, 3: 7, 6: 7, 7: 7}
        with pytest.raises(ForestError, match=r"^cluster 1: depth: vertex 5 "
                                              r"at depth 2 > bound 1$"):
            forest_centers(parent, edges, 1)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(8, 36), seed=st.integers(0, 99), data=st.data())
def test_distributed_supercluster_matches_reference(n, seed, data):
    from congestspan.clusters import run_supercluster_bfs

    g = gr.generate_graph("gnp_connected", n=n, p=0.2, seed=seed)
    verts = sorted(g.vertices)
    centers = sorted(data.draw(st.sets(st.sampled_from(verts), min_size=1,
                                       max_size=max(1, n // 4))))
    parent_maps = voronoi_clusters(g, centers)
    p = {v: c for c, pm in parent_maps.items() for v in pm}
    popular = data.draw(st.sets(st.sampled_from(centers), min_size=1))
    vg = build_cluster_graph(p, popular, oracles.exchange_maps(p, g))
    ruling = []
    for c in sorted(popular):
        if all(oracles.bfs_distances(vg, c).get(r, 99) >= 3 for r in ruling):
            ruling.append(c)
    delta = data.draw(st.integers(1, 3))
    ref = reference(p, popular, g, ruling, delta)
    net = Net(g)
    orient = oracles.orientation_from_parents({c: dict(pm) for c, pm in parent_maps.items()})
    out = run_supercluster_bfs(net, orient, set(ruling), delta, set(popular))
    assert out == ref


@settings(max_examples=30, deadline=None)
@given(n=st.integers(4, 28), seed=st.integers(0, 99), data=st.data())
def test_reference_supercluster_properties(n, seed, data):
    g = gr.generate_graph("gnp_connected", n=n, p=0.25, seed=seed)
    p = singletons(g)
    popular = set(g.vertices)
    roots = data.draw(st.sets(st.sampled_from(sorted(g.vertices)), min_size=1, max_size=3))
    delta = data.draw(st.integers(1, 4))
    out = reference(p, popular, g, roots, delta)
    dist = {}
    for r in roots:
        d = oracles.bfs_distances(g.adjacency, r)
        for v, dv in d.items():
            dist[v] = min(dist.get(v, float("inf")), dv)
    # joined iff within delta of some root (the supergraph here equals g)
    for v in g.vertices:
        assert (v in out) == (dist[v] <= delta)
    for v, j in out.items():
        assert j.wave == dist[v]
        if j.witness is not None:
            u, w = j.witness
            assert v in (u, w)
            assert j.pred in (u, w)


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [128, 256])
@pytest.mark.parametrize("alg", ["polylog", "skeleton"])
def test_exploration_matches_reference_beyond_the_verifier_limit(alg, n, seed):
    """verify_build holds the joins to the reference exploration only at
    n <= ALL_PAIRS_LIMIT. Here every explored phase of larger builds is held
    to the reference exploration of the verifier's edge scan, with each
    phase's centers read off its parent map and the spanner at its start."""
    assert n > ALL_PAIRS_LIMIT
    g = gr.generate_graph("gnp_connected", n=n, p=gnp_p(n), seed=seed)
    if alg == "polylog":
        res = polylog.build_spanner(g, 3)
    else:
        res = sparse.build_skeleton(g, Fraction(34, 100))
    sched = verify.schedule(res)
    explored = 0
    for snap in res.snapshots:
        if snap.vgraph is None:
            continue
        at_start = {e for ch in res.spanner.charges if ch.phase < snap.phase
                    for e in ch.edges}
        center_of = forest_centers(snap.parent, at_start,
                                   sched.radius_bounds[snap.phase])
        adjacency, witness = superedge_scan(center_of, snap.popular, g)
        assert reference_supercluster(adjacency, witness, snap.selected,
                                      sched.delta) == snap.joins
        explored += any(j.witness is not None for j in snap.joins.values())
    assert explored
