import pytest

from congestspan import graph as gr
from congestspan import polylog, verify
from congestspan.comm import Net, exchange_cluster_ids, orient_clusters
from congestspan.polylog import _PolylogVariant, polylog_schedule


def detect_on_singletons(g, kappa, clusters=None):
    """The popular centers phase 0 detects on given clusters, a (vertex ->
    center, tree adjacency) pair; singletons by default."""
    net = Net(g)
    center_of, tree_adj = clusters or ({v: v for v in g.vertices}, {})
    orient = orient_clusters(net, center_of, tree_adj, "orient")
    nbr_clusters = exchange_cluster_ids(net, orient, "exchange")
    variant = _PolylogVariant(polylog_schedule(g.n, kappa))
    popular, _ = variant.detect(net, orient, nbr_clusters, 0, False)
    return popular


class TestDetectPopular:
    def test_complete_five_all_popular(self):
        # threshold n^(1/2) = sqrt(5) ~ 2.24; every vertex has 4 foreign clusters
        g = gr.generate_graph("complete", n=5)
        assert detect_on_singletons(g, 2) == set(g.vertices)

    def test_path_three_middle_only(self):
        # sqrt(3) ~ 1.73: the middle vertex has 2 foreign clusters, ends have 1
        g = gr.generate_graph("path", n=3)
        assert detect_on_singletons(g, 2) == {2}

    def test_own_cluster_is_not_foreign(self):
        # sqrt(3) ~ 1.73: vertex 2 hears its own center 1 and one foreign, 3
        g = gr.generate_graph("path", n=3)
        clusters = ({1: 1, 2: 1, 3: 3}, {1: [2], 2: [1]})
        assert detect_on_singletons(g, 2, clusters) == set()

    def test_path_four_exact_square_root(self):
        # 4^(1/2) = 2 exactly: the two interior vertices have 2 foreign clusters
        g = gr.generate_graph("path", n=4)
        assert detect_on_singletons(g, 2) == {2, 3}

    def test_path_256_exact_eighth_root(self):
        # 256^(1/8) = 2 exactly: every interior vertex, with its 2 foreign
        # clusters, is popular
        g = gr.generate_graph("path", n=256)
        assert detect_on_singletons(g, 8) == set(range(2, 256))

    def test_exact_fifth_root_a_float_puts_above(self):
        # 3125^(1/5) = 5 exactly, but 3125 ** (1/5) reads 5.000000000000001:
        # vertex 1 has 5 foreign clusters, every other vertex at most 3
        g = gr.from_edges([(i, i + 1) for i in range(1, 3125)]
                          + [(1, 3), (1, 4), (1, 5), (1, 6)])
        assert detect_on_singletons(g, 5) == {1}

    def test_threshold_above_every_degree(self):
        # path on 12 vertices: two foreign clusters < 12^(1/2), nobody popular
        g = gr.generate_graph("path", n=12)
        assert detect_on_singletons(g, 2) == set()


class TestBuild:
    def test_tree_input_keeps_every_edge(self):
        g = gr.generate_graph("random_tree", n=24, seed=5)
        res = polylog.build_spanner(g, 2)
        assert res.spanner.edges == g.edge_set()

    def test_k16_bounds(self):
        g = gr.generate_graph("complete", n=16)
        res = polylog.build_spanner(g, 2)
        assert res.spanner.size() <= 64  # 16^(3/2)
        stretch, _ = verify.max_edge_stretch(g, res.spanner.edges)
        assert stretch <= polylog.stretch_bound(16, 2) == 18

    def test_single_vertex(self):
        g = gr.generate_graph("path", n=1)
        res = polylog.build_spanner(g, 2)
        assert res.spanner.size() == 0
        assert res.trace.rounds_total == 0

    def test_invalid_kappa(self):
        g = gr.generate_graph("path", n=4)
        with pytest.raises(ValueError):
            polylog.build_spanner(g, 1)

    def test_determinism(self):
        g = gr.generate_graph("gnp_connected", n=48, p=0.12, seed=21)
        a = polylog.build_spanner(g, 3)
        b = polylog.build_spanner(g, 3)
        assert a.spanner.edges == b.spanner.edges
        assert a.spanner.charges == b.spanner.charges
        assert a.trace.summary() == b.trace.summary()

    def test_full_verification_on_mixed_corpus(self):
        cases = [
            gr.generate_graph("cycle", n=16),
            gr.generate_graph("grid", n=24),
            gr.generate_graph("gnp_connected", n=33, p=0.2, seed=2),
            gr.generate_graph("gnp_connected", n=48, p=0.08, seed=3),
        ]
        for g in cases:
            for kappa in (2, 3):
                res = polylog.build_spanner(g, kappa)
                report = verify.verify_build(g, res)
                bad = [v for v in report["verdicts"] if not v["ok"]]
                assert not bad, (g.meta, kappa, bad)


def interconnect_directly(g, settled, clusters=None):
    """Run only the vertex-wise interconnection step on given clusters, a
    (vertex -> center, tree adjacency) pair; singletons by default."""
    from congestspan.spanner import SpannerEdgeSet
    net = Net(g)
    center_of, tree_adj = clusters or ({v: v for v in g.vertices}, {})
    orient = orient_clusters(net, center_of, tree_adj, "orient")
    nbr_clusters = exchange_cluster_ids(net, orient, "exchange")
    variant = _PolylogVariant(polylog_schedule(g.n, 2))
    spanner = SpannerEdgeSet()
    variant.interconnect(net, orient, nbr_clusters, settled, None, 0, spanner)
    return spanner


class TestInterconnect:
    def test_no_neighboring_clusters_adds_nothing(self):
        # a single cluster covering everything has no foreign neighbors
        g = gr.generate_graph("path", n=3)
        spanner = interconnect_directly(
            g, settled={1},
            clusters=({1: 1, 2: 1, 3: 1}, {1: [2], 2: [1, 3], 3: [2]}))
        assert spanner.size() == 0

    def test_k5_settled_singleton_adds_degree_many_edges(self):
        g = gr.generate_graph("complete", n=5)
        spanner = interconnect_directly(g, settled={1})
        assert sum(len(c.edges) for c in spanner.charges if c.vertex == 1) == 4

    def test_dedup_to_min_id_neighbor(self):
        # vertex 1 has three edges into the cluster {2,3,4}: exactly one edge
        # is added, to the smallest endpoint
        g = gr.from_edges([(1, 2), (1, 3), (1, 4), (2, 3), (3, 4)])
        clusters = ({1: 1, 2: 2, 3: 2, 4: 2}, {2: [3], 3: [2, 4], 4: [3]})
        spanner = interconnect_directly(g, settled={1}, clusters=clusters)
        assert spanner.edges == {(1, 2)}
        assert spanner.charges[0].vertex == 1


class TestBounds:
    def test_stretch_bound_n16_k2(self):
        assert polylog.stretch_bound(16, 2) == 18

    def test_stretch_bound_n16_k3(self):
        assert polylog.stretch_bound(16, 3) == 17 ** 2 + 1 == 290

    def test_exact_vs_closed_form_slack(self):
        for n in (4, 16, 64, 256):
            for kappa in (2, 3, 4):
                exact = 2 * polylog_schedule(n, kappa).radius_bounds[-1] + 1
                assert exact <= polylog.stretch_bound(n, kappa)
