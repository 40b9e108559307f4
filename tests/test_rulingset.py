from hypothesis import given, settings, strategies as st

from corpus import knockout_ruling_set, voronoi_clusters

from congestspan import graph as gr
from congestspan.comm import Net
from congestspan.exact import ceil_log2_int
from congestspan.rulingset import check_ruling


class TestCheckRuling:
    def test_single_vertex_passes(self):
        g = gr.generate_graph("path", n=4)
        assert check_ruling(g.adjacency, {2}, {2}, alpha=3, beta=1).ok

    def test_separation_violation_named(self):
        g = gr.generate_graph("path", n=5)
        v = check_ruling(g.adjacency, {1, 3}, {1, 2, 3}, alpha=3, beta=4)
        assert not v.ok and v.failure == "separation"
        assert "1" in v.detail and "3" in v.detail

    def test_empty_members_fail_domination(self):
        g = gr.generate_graph("path", n=4)
        v = check_ruling(g.adjacency, set(), {1, 2}, alpha=3, beta=4)
        assert not v.ok and v.failure == "domination"

    def test_member_outside_target(self):
        g = gr.generate_graph("path", n=4)
        v = check_ruling(g.adjacency, {4}, {1, 2}, alpha=3, beta=4)
        assert not v.ok and v.failure == "membership"


class TestCongestRulingSet:
    def test_singleton_candidate(self):
        g = gr.generate_graph("gnp_connected", n=10, p=0.4, seed=1)
        members, rounds = knockout_ruling_set(g, {5}, q=2)
        assert members == {5}
        assert rounds == 0

    def test_complete_graph_collapses_to_one(self):
        g = gr.generate_graph("complete", n=5)
        members, _ = knockout_ruling_set(g, g.vertices, q=2)
        assert len(members) == 1

    def test_path_q2_verified(self):
        g = gr.generate_graph("path", n=10)
        members, _ = knockout_ruling_set(g, g.vertices, q=2)
        assert check_ruling(g.adjacency, members, g.vertices, 3, 4).ok

    def test_two_vertex_edge(self):
        g = gr.generate_graph("path", n=2)
        members, _ = knockout_ruling_set(g, {1, 2}, q=ceil_log2_int(2))
        assert len(members) == 1

    def test_aglp_on_path_16(self):
        g = gr.generate_graph("path", n=16)
        q = ceil_log2_int(16)
        members, _ = knockout_ruling_set(g, g.vertices, q)
        beta = 2 * q
        assert beta == 8
        assert check_ruling(g.adjacency, members, g.vertices, 3, beta).ok

    def test_deterministic(self):
        g = gr.generate_graph("gnp_connected", n=40, p=0.15, seed=8)
        a, _ = knockout_ruling_set(g, g.vertices, q=3)
        b, _ = knockout_ruling_set(g, g.vertices, q=3)
        assert a == b

    def test_broadcast_compliance(self):
        g = gr.generate_graph("gnp_connected", n=30, p=0.2, seed=4)
        net = Net(g)
        knockout_ruling_set(g, g.vertices, q=3, net=net)
        exchanges = [ep for ep in net.trace.episodes if ep.label.endswith(".x")]
        assert exchanges
        assert all(ep.mode == "broadcast" for ep in exchanges)
        assert net.trace.max_ids_per_message <= 2


class TestSupergraphRulingSet:
    def test_two_adjacent_clusters_pick_one(self):
        g = gr.generate_graph("path", n=2)
        p = {v: {v: None} for v in g.vertices}
        members, _ = knockout_ruling_set(g, {1, 2}, q=2, parent_maps=p)
        assert len(members) == 1


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 40), q=st.integers(2, 3), seed=st.integers(0, 500),
       data=st.data())
def test_ruling_guarantee_random_graphs(n, q, seed, data):
    g = gr.generate_graph("gnp_connected", n=n, p=0.2, seed=seed)
    verts = sorted(g.vertices)
    a = data.draw(st.sets(st.sampled_from(verts), min_size=1))
    members, _ = knockout_ruling_set(g, a, q)
    verdict = check_ruling(g.adjacency, members, a, 3, 2 * q)
    assert verdict.ok, verdict.detail


@settings(max_examples=20, deadline=None)
@given(n=st.integers(8, 36), q=st.integers(2, 3), seed=st.integers(0, 99),
       data=st.data())
def test_supergraph_ruling_guarantee_random_clusters(n, q, seed, data):
    from congestspan.clusters import build_cluster_graph

    g = gr.generate_graph("gnp_connected", n=n, p=0.2, seed=seed)
    verts = sorted(g.vertices)
    centers = sorted(data.draw(st.sets(st.sampled_from(verts), min_size=2,
                                       max_size=max(2, n // 3))))
    p = voronoi_clusters(g, centers)
    a = data.draw(st.sets(st.sampled_from(centers), min_size=1))
    members, _ = knockout_ruling_set(g, a, q, parent_maps=p)
    vg = build_cluster_graph({v: c for c, pm in p.items() for v in pm},
                             set(centers), g)
    verdict = check_ruling(vg.adjacency, members, a, 3, 2 * q)
    assert verdict.ok, verdict.detail
