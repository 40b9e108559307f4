import re

from hypothesis import example, given, settings, strategies as st

import oracles
from oracles import orientation_from_parents
from corpus import gnp_p, knockout_ruling_set, voronoi_clusters

from congestspan import graph as gr
from congestspan.comm import Net
from congestspan.exact import ceil_log2_int
from congestspan.rulingset import RulingParams, run_knockout_schedule
from congestspan.verify import check_ruling

FLOOD_LABEL = re.compile(r"^rs\.L(\d+)\.b(\d+)\.k\d+\.(?:down|x|up)$")


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

    def test_last_wave_knocks_out_the_next_block(self):
        # clusters {1,2}, {5,6} and {3,4} along the path; at level 0 the
        # centers 1, 3 and 5 lie in blocks 0, 1 and 2 = K, and only the last
        # wave of block 0's flood reaches the candidate 3
        g = gr.from_edges([(1, 2), (2, 5), (5, 6), (6, 3), (3, 4)])
        p = {1: {1: None, 2: 1}, 5: {5: None, 6: 5}, 3: {3: None, 4: 3}}
        members, _ = knockout_ruling_set(g, {1, 3}, q=2, parent_maps=p,
                                         popular={1, 3, 5})
        assert members == {1}

    def test_last_wave_converges_only_in_later_blocks(self):
        # clusters {1,2} and {3,4}: at level 0 block 0's flood knocks out 3
        # in wave 1, and its last wave, relayed by 3, reaches only 1 in
        # block 0 itself, so no up-cast follows it; block 1 = K never floods
        g = gr.generate_graph("path", n=4)
        p = {1: {1: None, 2: 1}, 3: {3: None, 4: 3}}
        net = Net(g)
        members, _ = knockout_ruling_set(g, {1, 3}, q=2, parent_maps=p, net=net)
        assert members == {1}
        assert [ep.label for ep in net.trace.episodes] == [
            "rs.L1.b0.k1.down", "rs.L1.b0.k1.x",
            "rs.L0.b0.k1.down", "rs.L0.b0.k1.x", "rs.L0.b0.k1.up",
            "rs.L0.b0.k2.down", "rs.L0.b0.k2.x"]


    def test_up_cast_relays_the_round_it_hears(self):
        # the cluster of 2 is the path 2 - 3 - 4 - 5 - 6 - 7, and 1, a
        # single vertex, hangs off 3; at level 0 block 0's flood from 1 is
        # heard only by 3, the center's child, whose flag reaches 2 in one
        # round, although 3's subtree is 4 deep
        g = gr.from_edges([(1, 3), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)])
        orient = orientation_from_parents(
            {1: {1: None}, 2: {2: None, 3: 2, 4: 3, 5: 4, 6: 5, 7: 6}})
        assert orient.height[3] == 4
        net = Net(g)
        members = run_knockout_schedule(net, orient, {1, 2}, RulingParams(q=1),
                                        g.id_range, {1, 2}, "rs")
        assert members == {1}
        assert [ep.label for ep in net.trace.episodes] == [
            "rs.L0.b0.k1.down", "rs.L0.b0.k1.x", "rs.L0.b0.k1.up",
            "rs.L0.b0.k2.down", "rs.L0.b0.k2.x"]
        up = net.trace.episodes[2]
        assert (up.rounds_elapsed, up.messages_total) == (1, 1)


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
    center_of = {v: c for c, pm in p.items() for v in pm}
    vg = build_cluster_graph(center_of, set(centers),
                             oracles.exchange_maps(center_of, g))
    verdict = check_ruling(vg, members, a, 3, 2 * q)
    assert verdict.ok, verdict.detail


def _draw_ids(g: gr.Graph, draw, top: int = 10 ** 6) -> gr.Graph:
    """g itself, or g relabelled with IDs that draw takes from [1, top], so
    that a level's last interval can be a partial one."""
    if not draw(st.booleans(), label="wide ids"):
        return g
    ids = draw(st.lists(st.integers(1, top), min_size=g.n, max_size=g.n,
                        unique=True), label="ids")
    new = dict(zip(sorted(g.vertices), ids))
    return gr.from_edges((new[u], new[v]) for u, v in g.edges())


def _assert_schedule_matches_full_timetable(g, parent_maps, popular, candidates, q):
    orient = orientation_from_parents(parent_maps)
    params = RulingParams(q=q)
    fast, full = Net(g), Net(g)
    members = run_knockout_schedule(fast, orient, set(candidates), params,
                                    g.id_range, popular, "rs")
    assert members == oracles.knockout_schedule(
        full, orient, set(candidates), params, g.id_range, popular, "rs")
    assert fast.trace.rounds_total <= full.trace.rounds_total
    assert fast.trace.messages_total <= full.trace.messages_total
    assert len(fast.trace.episodes) <= len(full.trace.episodes)
    # every block the full timetable floods but the last, K, of its level
    last = oracles.last_blocks(g.id_range, q)
    assert _flooded_blocks(fast) == {
        (level, block) for level, block in _flooded_blocks(full)
        if block != last[level]}


def _flooded_blocks(net: Net):
    return {tuple(map(int, FLOOD_LABEL.match(ep.label).group(1, 2)))
            for ep in net.trace.episodes}


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 40), q=st.integers(2, 4), seed=st.integers(0, 500),
       data=st.data())
def test_schedule_equals_full_timetable_on_random_graphs(n, q, seed, data):
    g = _draw_ids(gr.generate_graph("gnp_connected", n=n, p=0.2, seed=seed), data.draw)
    verts = sorted(g.vertices)
    popular = data.draw(st.sets(st.sampled_from(verts), min_size=1), label="popular")
    candidates = data.draw(st.sets(st.sampled_from(sorted(popular)), min_size=1),
                           label="candidates")
    _assert_schedule_matches_full_timetable(
        g, {v: {v: None} for v in verts}, popular, candidates, q)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(4, 40), q=st.integers(2, 4), seed=st.integers(0, 500),
       data=st.data())
def test_schedule_equals_full_timetable_on_cluster_forests(n, q, seed, data):
    g = _draw_ids(gr.generate_graph("gnp_connected", n=n, p=0.2, seed=seed), data.draw)
    verts = sorted(g.vertices)
    centers = sorted(data.draw(st.sets(st.sampled_from(verts), min_size=2,
                                       max_size=max(2, n // 3)), label="centers"))
    popular = data.draw(st.sets(st.sampled_from(centers), min_size=1), label="popular")
    candidates = data.draw(st.sets(st.sampled_from(sorted(popular)), min_size=1),
                           label="candidates")
    _assert_schedule_matches_full_timetable(
        g, voronoi_clusters(g, centers), popular, candidates, q)


@st.composite
def _knockout_cases(draw):
    """A connected G(n, p) whose n is not a power of two, maybe relabelled
    with wide IDs; singleton clusters or a random cluster forest on it; its
    popular clusters, the candidates among them, and q."""
    n = draw(st.integers(3, 60).filter(lambda n: n & (n - 1)), label="n")
    p = draw(st.sampled_from([gnp_p(n), 0.2]), label="p")
    g = _draw_ids(gr.generate_graph("gnp_connected", n=n, p=p,
                                    seed=draw(st.integers(0, 500), label="seed")),
                  draw, 2 ** 40)
    verts = sorted(g.vertices)
    if draw(st.booleans(), label="cluster forest"):
        parent_maps = voronoi_clusters(g, draw(st.sets(
            st.sampled_from(verts), min_size=2, max_size=max(2, n // 3)), label="centers"))
    else:
        parent_maps = {v: {v: None} for v in verts}
    popular = draw(st.sets(st.sampled_from(sorted(parent_maps)), min_size=1),
                   label="popular")
    candidates = draw(st.sets(st.sampled_from(sorted(popular)), min_size=1),
                      label="candidates")
    return g, parent_maps, popular, candidates, draw(st.integers(2, 6), label="q")


# polylog's phase 0 on the path of 17 at kappa = 5: q = 5, so t = 2, and
# every inner vertex is a popular candidate
_PATH17 = gr.generate_graph("path", n=17)
_PATH17_Q5 = (_PATH17, {v: {v: None} for v in _PATH17.vertices},
              set(range(2, 17)), set(range(2, 17)), 5)


@settings(max_examples=60, deadline=None)
@given(case=_knockout_cases())
@example(case=_PATH17_Q5)
def test_knockout_schedule_rules_the_virtual_graph(case):
    g, parent_maps, popular, candidates, q = case
    members = run_knockout_schedule(Net(g), orientation_from_parents(parent_maps),
                                    set(candidates), RulingParams(q=q),
                                    g.id_range, popular, "rs")
    center_of = {v: c for c, pm in parent_maps.items() for v in pm}
    vgraph, _ = oracles.build_cluster_graph(center_of, popular, g)
    verdict = check_ruling(vgraph, members, candidates, 3, 2 * q)
    assert verdict.ok, verdict.detail
