import decimal
from fractions import Fraction

import pytest

from congestspan import cli
from congestspan import graph as gr
from congestspan import sparse, verify
from congestspan.comm import Net, exchange_cluster_ids, orient_clusters
from congestspan.exact import pow_ceil
from congestspan.sparse import (_SparseVariant, degree_schedule, skeleton_kappa,
                                stretch_bound)


def phase_size_assertions(res):
    """The verifier's sparse per-phase counting checks, on its own schedule."""
    return verify._sparse_count_failures(res, verify.schedule(res))


class TestDegreeSchedule:
    def test_n256_k8_quarter(self):
        p = degree_schedule(256, 8, Fraction(1, 4))
        assert p.i0 == 1
        assert p.threshold_expos[0] == Fraction(1, 8)      # 256^(1/8) = 2
        assert p.threshold_expos[1] == Fraction(2, 8)      # 256^(1/4) = 4
        assert all(e == Fraction(1, 4) for e in p.threshold_expos[2:])
        assert [pow_ceil(p.n, e) for e in p.threshold_expos[:2]] == [2, 4]

    def test_kappa_rho_product_one(self):
        p = degree_schedule(64, 3, Fraction(1, 3))
        assert p.i0 == 0

    def test_rho_half_rejected(self):
        with pytest.raises(ValueError):
            degree_schedule(64, 4, Fraction(1, 2))
        with pytest.raises(ValueError):
            degree_schedule(64, 4, 0.6)

    def test_rho_below_one_over_kappa_rejected(self):
        with pytest.raises(ValueError):
            degree_schedule(64, 3, Fraction(1, 4))

    def test_schedule_invariants(self):
        for n in (16, 64, 256):
            for kappa, rho in [(3, Fraction(1, 3)), (9, Fraction(17, 50)),
                               (skeleton_kappa(n), Fraction(9, 20))]:
                p = degree_schedule(n, kappa, rho)
                assert p.ell >= 2
                for e in p.threshold_expos:
                    assert e <= p.rho                     # deg_i <= n^rho
                for i in range(p.ell - 1):
                    assert p.threshold_expos[i + 1] <= 2 * p.threshold_expos[i]
                assert p.threshold_expos[p.i0] >= p.rho / 2     # deg_{i0} >= n^(rho/2)
                assert 2 * p.ruling_q <= p.delta

    def test_power_degree_is_bounded(self):
        # the exact comparisons raise counts to powers of degree
        # lcm(kappa, den rho); past MAX_POWER_DEGREE they would run for
        # minutes, so the schedule is refused, at every n
        assert sparse.MAX_POWER_DEGREE == 2 ** 16
        assert degree_schedule(64, 2 ** 16, Fraction(1, 4)).ell == 18
        for n in (1, 64):
            for kappa, rho in [(2 ** 16, Fraction(1, 3)), (2 ** 64, "0.34"),
                               (3, "0.3400000001")]:
                with pytest.raises(ValueError, match="need exact powers of degree"):
                    degree_schedule(n, kappa, rho)

    def test_string_and_float_rho_accepted(self):
        a = degree_schedule(64, 8, "0.34")
        b = degree_schedule(64, 8, 0.34)
        c = degree_schedule(64, 8, Fraction(17, 50))
        assert a == b == c
        assert degree_schedule(64, 3, "1/3").rho == Fraction(1, 3)


def detect_directly(g, cap_expo_kappa_rho, final=False):
    kappa, rho = cap_expo_kappa_rho
    net = Net(g)
    orient = orient_clusters(net, {v: v for v in g.vertices}, {}, "orient")
    nbr_clusters = exchange_cluster_ids(net, orient, "exchange")
    variant = _SparseVariant(degree_schedule(g.n, kappa, rho))
    return variant.detect(net, orient, nbr_clusters, 0, final)


class TestDetectPopular:
    def test_k5_all_popular(self):
        # deg_0 = 5^(1/3) ~ 1.7, cap 2; every singleton has 4 neighbors
        g = gr.generate_graph("complete", n=5)
        popular, knowledge = detect_directly(g, (3, Fraction(1, 3)))
        assert popular == set(g.vertices)
        assert all(len(lc) == 2 for lc in knowledge.values())

    def test_star_hub_popular_leaves_not(self):
        # K_{1,4} with ids 1..5, hub 1: deg threshold 5^(1/3) ~ 1.7 -> cap 2
        g = gr.from_edges([(1, v) for v in range(2, 6)])
        popular, knowledge = detect_directly(g, (3, Fraction(1, 3)))
        assert popular == {1}
        for leaf in (2, 3, 4, 5):
            assert knowledge[leaf] == {1: leaf}   # knows the hub, witness itself

    def test_uncapped_collection_gives_complete_knowledge(self):
        g = gr.generate_graph("gnp_connected", n=20, p=0.3, seed=6)
        popular, knowledge = detect_directly(g, (5, Fraction(1, 5)), final=True)
        assert popular == set()
        for v in g.vertices:
            assert set(knowledge[v]) == set(g.adjacency[v])


class TestBuild:
    def test_tree_input_keeps_every_edge(self):
        g = gr.generate_graph("random_tree", n=26, seed=9)
        res = sparse.build_spanner(g, 3, Fraction(1, 3))
        assert res.spanner.edges == g.edge_set()

    def test_k8_bounds_verified(self):
        g = gr.generate_graph("complete", n=8)
        res = sparse.build_spanner(g, 3, Fraction(1, 3))
        rep = verify.verify_build(g, res)
        assert rep["passed"], [v for v in rep["verdicts"] if not v["ok"]]

    def test_single_vertex(self):
        g = gr.generate_graph("path", n=1)
        res = sparse.build_spanner(g, 3, Fraction(1, 3))
        assert res.spanner.size() == 0 and res.trace.rounds_total == 0

    def test_single_vertex_reports_the_parsed_rho(self):
        """One vertex spells rho as every larger graph does."""
        one, three = (sparse.build_spanner(gr.generate_graph("path", n=n), 3, 0.34)
                      for n in (1, 3))
        assert one.params["rho"] == three.params["rho"] == "17/50"

    def test_determinism(self):
        g = gr.generate_graph("gnp_connected", n=40, p=0.12, seed=31)
        a = sparse.build_spanner(g, skeleton_kappa(40), Fraction(17, 50))
        b = sparse.build_spanner(g, skeleton_kappa(40), Fraction(17, 50))
        assert a.spanner.edges == b.spanner.edges
        assert a.trace.summary() == b.trace.summary()

    def test_n256_random_graph_bounds(self):
        g = gr.generate_graph("gnp_connected", n=256, p=0.05, seed=1)
        res = sparse.build_spanner(g, 9, Fraction(17, 50))
        assert sparse.size_bound_holds(res)   # n^(10/9) + n ~ 471 + 256
        stretch, _ = verify.max_edge_stretch(g, res.spanner.edges)
        assert stretch <= 4 * verify.schedule(res).radius_bounds[-1] + 1
        assert not phase_size_assertions(res)

    def test_full_verification_on_mixed_corpus(self):
        cases = [
            gr.generate_graph("cycle", n=12),
            gr.generate_graph("grid", n=30),
            gr.generate_graph("gnp_connected", n=40, p=0.15, seed=17),
            gr.generate_graph("gnp_connected", n=56, p=0.07, seed=18),
        ]
        for g in cases:
            for kappa, rho in [(3, Fraction(1, 3)),
                               (skeleton_kappa(g.n), Fraction(17, 50)),
                               (skeleton_kappa(g.n), Fraction(9, 20))]:
                res = sparse.build_spanner(g, kappa, rho)
                report = verify.verify_build(g, res)
                bad = [v for v in report["verdicts"] if not v["ok"]]
                assert not bad, (g.meta, kappa, str(rho), bad)
                assert not phase_size_assertions(res)


class TestInterconnectCenterwise:
    def test_leaf_cluster_adds_one_edge_to_hub(self):
        g = gr.from_edges([(1, v) for v in range(2, 6)])
        net = Net(g)
        orient = orient_clusters(net, {v: v for v in g.vertices}, {}, "orient")
        nbr_clusters = exchange_cluster_ids(net, orient, "exchange")
        variant = _SparseVariant(degree_schedule(5, 3, Fraction(1, 3)))
        popular, knowledge = variant.detect(net, orient, nbr_clusters, 0, False)
        from congestspan.spanner import SpannerEdgeSet
        spanner = SpannerEdgeSet()
        variant.interconnect(net, orient, nbr_clusters, {2}, knowledge, 0, spanner)
        assert spanner.edges == {(1, 2)}
        assert spanner.charges[0].vertex == 2

    def test_three_neighbors_three_edges_charged_to_center(self):
        # cluster {4,5} with center 4 neighbors three singleton clusters
        g = gr.from_edges([(4, 5), (1, 4), (2, 5), (3, 5)])
        net = Net(g)
        orient = orient_clusters(net, {1: 1, 2: 2, 3: 3, 4: 4, 5: 4},
                                 {4: [5], 5: [4]}, "orient")
        nbr_clusters = exchange_cluster_ids(net, orient, "exchange")
        variant = _SparseVariant(degree_schedule(5, 3, Fraction(1, 3)))
        popular, knowledge = variant.detect(net, orient, nbr_clusters, 0, True)
        from congestspan.spanner import SpannerEdgeSet
        spanner = SpannerEdgeSet()
        variant.interconnect(net, orient, nbr_clusters, {4}, knowledge, 0, spanner)
        assert spanner.edges == {(1, 4), (2, 5), (3, 5)}
        assert all(c.vertex == 4 for c in spanner.charges)
        # the center's interconnection is one charging step
        assert [(c.kind, sorted(c.edges)) for c in spanner.charges] == [
            ("interconnect", [(1, 4), (2, 5), (3, 5)])]

    def test_one_member_witnesses_two_clusters(self):
        # cluster {4,5,6} with center 4: 5 borders clusters 1 and 2, 6
        # borders cluster 1 too, but 5's copy of key 1 reaches 4 first, so
        # 5 witnesses both clusters and 4 and 6 witness none
        g = gr.from_edges([(4, 5), (4, 6), (1, 5), (2, 5), (1, 6)])
        net = Net(g)
        orient = orient_clusters(net, {1: 1, 2: 2, 4: 4, 5: 4, 6: 4},
                                 {4: [5, 6], 5: [4], 6: [4]}, "orient")
        nbr_clusters = exchange_cluster_ids(net, orient, "exchange")
        variant = _SparseVariant(degree_schedule(6, 3, Fraction(1, 3)))
        _, knowledge = variant.detect(net, orient, nbr_clusters, 0, True)
        assert list(knowledge[4].items()) == [(1, 5), (2, 5)]
        from congestspan.spanner import SpannerEdgeSet
        spanner = SpannerEdgeSet()
        variant.interconnect(net, orient, nbr_clusters, {4}, knowledge, 0, spanner)
        assert [(c.vertex, c.kind, c.edges) for c in spanner.charges] == [
            (4, "interconnect", ((1, 5), (2, 5)))]
        # only the witness announces, one message per edge
        announce = net.trace.episodes[-1]
        assert (announce.label, announce.messages_total) == ("p0.inter", 2)


class TestBounds:
    def test_closed_form_values(self):
        assert stretch_bound(Fraction(1, 2) - Fraction(1, 1000), 0) == 3.0
        assert stretch_bound(Fraction(1, 4), 2) == 2 * 17 ** 2 + 1 == 579
        # boundary check of the formula shape
        assert abs(stretch_bound(0.5, 1) - 19.0) < 1e-9

    def test_exact_bound_at_ell_zero_vs_formula(self):
        # the recurrence gives 4*R_0 + 1 = 1 while the closed form floor is 3
        from congestspan.clusters import radius_sequence
        assert 4 * radius_sequence(5, 0)[0] + 1 == 1
        assert stretch_bound(Fraction(1, 3), 0) == 3.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            stretch_bound(Fraction(3, 5), 1)
        with pytest.raises(ValueError):
            stretch_bound(Fraction(1, 4), -1)

    def test_exact_bound_uses_recurrence(self):
        from congestspan.clusters import radius_sequence
        p = degree_schedule(64, 7, Fraction(17, 50))
        assert p.radius_bounds == radius_sequence(p.delta, p.ell)
        assert len(p.radius_bounds) == p.ell + 1

    def test_skeleton_preset(self):
        assert skeleton_kappa(64) == 7
        assert skeleton_kappa(256) == 9
        # never below 3, the least kappa whose rho range is not empty
        assert [skeleton_kappa(n) for n in (1, 2, 4)] == [3, 3, 3]


# Small graphs with a large exploration depth: delta = ceil(2/rho) exceeds
# n^3 / 2 at rho = 1/kappa for the larger kappas, so a hop count carried in a
# scalar would leave the n^3 message bound.
SMALL_SHAPES = [(kind, n) for kind in ("path", "complete", "cycle", "random_tree")
                for n in range(2, 13) if not (kind == "cycle" and n < 3)]
DEEP_CONFIGS = sorted({(kappa, rho) for kappa in (3, 5, 10, 20, 50, 100, 200)
                       for rho in (Fraction(1, kappa), Fraction(1, 3))})


def test_small_graphs_with_deep_exploration_build_and_verify():
    failed = []
    for kind, n in SMALL_SHAPES:
        g = gr.generate_graph(kind, n=n)
        for kappa, rho in DEEP_CONFIGS:
            report = verify.verify_build(g, sparse.build_spanner(g, kappa, rho))
            if not report["passed"]:
                failed.append((kind, n, kappa, str(rho)))
    assert len(SMALL_SHAPES) * len(DEEP_CONFIGS) == 559
    assert failed == []


def test_cli_builds_a_path_with_delta_above_the_scalar_bound(tmp_path, capsys):
    # delta = 20 on three vertices, whose scalar bound is 27
    rc = cli.main(["build", "--alg", "sparse", "--graph", "gen:path:n=3",
                   "--kappa", "10", "--rho", "1/10", "--out", str(tmp_path / "o")])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out


def test_verification_leaves_the_decimal_precision_alone():
    g = gr.generate_graph("gnp_connected", n=40, p=0.12, seed=31)
    res = sparse.build_spanner(g, skeleton_kappa(40), Fraction(17, 50))
    with decimal.localcontext() as ctx:
        ctx.prec = 17
        assert verify.verify_build(g, res)["passed"]
        assert decimal.getcontext().prec == 17
