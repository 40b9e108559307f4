"""Cross-checks of the verification layer itself against a second,
independently written distance oracle (Floyd-Warshall on a dense matrix)."""

import collections
import copy
import dataclasses
import itertools
import math
from fractions import Fraction

import pytest

from corpus import gnp_p, knockout_ruling_set

from congestspan import graph as gr
from congestspan import cli, polylog, sim, sparse, verify
from congestspan.clusters import JoinInfo
from congestspan.exact import ceil_log2_int
from congestspan.spanner import INTER, SUPER, Charge, PhaseSnapshot, Schedule


def floyd_warshall_edge_stretch(g, spanner_edges):
    """Max d_H over graph edges, via a dense all-pairs computation."""
    idx = {v: i for i, v in enumerate(g.vertices)}
    n = g.n
    big = math.inf
    dist = [[0 if i == j else big for j in range(n)] for i in range(n)]
    for u, v in spanner_edges:
        dist[idx[u]][idx[v]] = 1
        dist[idx[v]][idx[u]] = 1
    for k in range(n):
        dk = dist[k]
        for i in range(n):
            dik = dist[i][k]
            if dik == big:
                continue
            di = dist[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
    return max(dist[idx[u]][idx[v]] for u, v in g.edges())


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, 6])
def test_edge_stretch_matches_floyd_warshall(seed):
    g = gr.generate_graph("gnp_connected", n=24 + seed, p=0.15, seed=seed)
    res = polylog.build_spanner(g, 2)
    ours, _ = verify.max_edge_stretch(g, res.spanner.edges)
    independent = floyd_warshall_edge_stretch(g, res.spanner.edges)
    assert ours == independent


def test_edge_stretch_matches_on_disconnecting_subgraph():
    g = gr.generate_graph("cycle", n=10)
    sub = [e for e in g.edges() if e not in {(1, 2), (5, 6)}]
    ours, witness = verify.max_edge_stretch(g, set(sub))
    assert ours == math.inf and witness in {(1, 2), (5, 6)}
    assert floyd_warshall_edge_stretch(g, set(sub)) == math.inf


def test_radius_verdict_reads_the_phase_start_spanner_off_the_ledger():
    """The spanner at the start of phase 1 is the edges charged in phase 0.
    Recharging to phase 1 a phase-0 superclustering edge that a phase-1
    cluster tree uses takes it out of that spanner, and the radius verdict
    must name it."""
    g = gr.generate_graph("gnp_connected", n=128, p=0.08, seed=4)
    res = sparse.build_skeleton(g, Fraction(34, 100))
    sched = verify.schedule(res)
    assert verify._radius_verdict(res, sched).ok
    trees = {gr.edge_key(v, u) for v, u in res.snapshots[1].parent.items()
             if u is not None}
    k = next(i for i, ch in enumerate(res.spanner.charges)
             if ch.phase == 0 and ch.kind == SUPER and ch.edges[0] in trees)
    moved = res.spanner.charges[k] = res.spanner.charges[k]._replace(phase=1)
    verdict = verify._radius_verdict(res, sched)
    assert not verdict.ok
    assert verdict.detail.startswith("phase 1, cluster ")
    assert "tree-not-in-spanner" in verdict.detail
    (u, v), = moved.edges
    assert f"({u},{v})" in verdict.detail or f"({v},{u})" in verdict.detail


def _join_copied_into_settled(snaps):
    snap = snaps[0]
    c = min(c for c, j in snap.joins.items() if j.witness is not None)
    return 0, dataclasses.replace(snap, settled=snap.settled | {c})


def _join_keyed_by_a_member(snaps):
    snap = snaps[1]
    v = min(v for v, p in snap.parent.items() if p is not None)
    return 1, dataclasses.replace(snap, joins={**snap.joins,
                                               v: JoinInfo(v, None, None, 0)})


@pytest.mark.parametrize("mutate", [_join_copied_into_settled,
                                    _join_keyed_by_a_member])
def test_phase_counts_verdict_needs_settled_and_joins_to_split_the_centers(
        mutate):
    """Phase 0 of this build settles one cluster and superclusters the other
    127; phase 1 has 3 clusters over 127 vertices. Settled and joined
    clusters must be disjoint and together be the phase's clusters."""
    g = gr.generate_graph("gnp_connected", n=128, p=0.05, seed=3)
    res = polylog.build_spanner(g, 3)
    sched = verify.schedule(res)
    assert verify._phase_counting_verdict(res, sched).ok
    phase, snap = mutate(res.snapshots)
    res.snapshots[phase] = snap
    verdict = verify._phase_counting_verdict(res, sched)
    assert not verdict.ok
    assert verdict.detail == f"phase {phase}: settled + joined != cluster count"


def test_aglp_round_regression():
    # observed once (max ratio 1.75), then locked with small headroom
    locked_K = 2.0
    for n, kind in [(16, "path"), (64, "cycle"), (256, "path"),
                    (64, "gnp_connected"), (256, "gnp_connected")]:
        kw = {"p": round(2 * math.log(n) / n, 4), "seed": 3} \
            if kind == "gnp_connected" else {}
        g = gr.generate_graph(kind, n=n, **kw)
        q = ceil_log2_int(n)
        _, rounds = knockout_ruling_set(g, g.vertices, q)
        assert rounds <= locked_K * q * n ** (1.0 / q), (n, kind, rounds)


@pytest.fixture(scope="module", params=["polylog", "skeleton"])
def clean_build(request):
    """A build on G(64, 0.1) whose every verdict passes."""
    g = gr.generate_graph("gnp_connected", n=64, p=0.1, seed=1)
    res = (polylog.build_spanner(g, 3) if request.param == "polylog"
           else sparse.build_skeleton(g, Fraction(34, 100)))
    assert verify.verify_build(g, res)["passed"]
    return g, res


def _in_congest_mode(suffix):
    def tamper(trace):
        i = max(i for i, ep in enumerate(trace.episodes)
                if ep.label.endswith(suffix))
        trace.episodes[i] = dataclasses.replace(trace.episodes[i],
                                                mode=sim.CONGEST)
    return tamper


def _three_ids(trace):
    i = next(i for i, ep in enumerate(trace.episodes) if ep.max_ids_per_message)
    trace.episodes[i] = dataclasses.replace(trace.episodes[i],
                                            max_ids_per_message=3)


@pytest.mark.parametrize("tamper", [_in_congest_mode(".k1.x"),
                                    _in_congest_mode(".explore"), _three_ids],
                         ids=["knock-out hop in congest mode",
                              "exploration hop in congest mode",
                              "three ids in a message"])
def test_congestion_verdict_alone_fails_a_tampered_trace(clean_build, tamper):
    """The build's last knock-out or exploration hop recorded in congest
    mode, or its first episode that sends IDs recorded with a message of
    three, fails congestion and no other verdict."""
    g, res = clean_build
    trace = copy.deepcopy(res.trace)
    tamper(trace)
    report = verify.verify_build(g, dataclasses.replace(res, trace=trace))
    assert [v["name"] for v in report["verdicts"] if not v["ok"]] \
        == ["congestion"]


@pytest.fixture(scope="module", params=["polylog", "sparse"])
def sparse_gnp_build(request):
    """A build on G(128, 0.02), whose every verdict passes. The graph is
    sparse enough that phase 0's virtual graph is long (one ruling member
    alone dominates some popular clusters) and that some vertices reach
    their interconnection cap in phase 0: five charged edges, since
    5^3 < 128 <= 6^3 and both caps are below n^(1/3) there."""
    g = gr.generate_graph("gnp_connected", n=128, p=0.02, seed=1)
    if request.param == "polylog":
        res = polylog.build_spanner(g, 3)
    else:
        res = sparse.build_spanner(g, 3, Fraction(1, 3))
        assert sparse.degree_schedule(128, 3, Fraction(1, 3)).threshold_expos[0] \
            == Fraction(1, 3)
    assert verify.verify_build(g, res)["passed"]
    return g, res


def _failing(g, res):
    return sorted(v["name"] for v in verify.verify_build(g, res)["verdicts"]
                  if not v["ok"])


def _ruling_phase(res):
    return next(s for s in res.snapshots if len(s.selected) >= 2)


def _popular_settled(g, res):
    snap = next(s for s in res.snapshots if s.popular)
    snap.settled = snap.settled | {min(snap.popular)}


def _member_dropped(g, res):
    """Drops the least member without which some popular cluster lies
    farther than 2q from every member in the virtual graph."""
    snap = _ruling_phase(res)
    beta = 2 * verify.schedule(res).ruling_q
    for m in sorted(snap.selected):
        near = set().union(*itertools.islice(
            gr.bfs_layers(snap.vgraph, snap.selected - {m}), beta + 1))
        if snap.popular - near:
            snap.selected = snap.selected - {m}
            return
    raise AssertionError("every member is dominated by the others")


def _neighbour_added(g, res):
    snap = _ruling_phase(res)
    c = min(snap.selected)
    snap.selected = snap.selected | {min(
        u for u in snap.vgraph[c]
        if u in snap.popular and u not in snap.selected)}


def _charge_over_cap(g, res):
    """One more INTER edge charged to the least vertex with five in a phase,
    as a charging step of its own."""
    per = collections.defaultdict(list)
    for ch in res.spanner.charges:
        if ch.kind == INTER:
            per[ch.vertex, ch.phase] += ch.edges
    v, phase = min(k for k, edges in per.items() if len(edges) == 5)
    res.spanner.charges.append(Charge(v, INTER, phase, tuple(per[v, phase][:1])))


def test_ruling_verdict_takes_its_own_q():
    """In this skeleton build of the 12 x 12 grid, a ruling member dropped
    leaves a popular cluster at distance 7 > 2q = 6 from the other members.
    That fails the ruling verdict, whose 2q comes from its own schedule."""
    g = gr.generate_graph("grid", n=144)
    res = sparse.build_skeleton(g, Fraction(34, 100))
    _member_dropped(g, res)
    assert _failing(g, res) == ["ruling"]


@pytest.mark.parametrize("tamper, failing", [
    # a popular cluster is also superclustered, so marking it settled also
    # overlaps settled with joined and settles its vertices twice
    (_popular_settled, ["partition", "phase_counts", "popular_superclustered"]),
    (_member_dropped, ["ruling"]),
    (_neighbour_added, ["ruling"]),
    (_charge_over_cap, ["charges"]),
], ids=["popular center settled", "ruling member dropped",
        "virtual neighbour of a member added", "one charge over the cap"])
def test_verdicts_fail_on_a_tampered_phase(sparse_gnp_build, tamper, failing):
    g, res = sparse_gnp_build
    res = copy.deepcopy(res)
    tamper(g, res)
    assert _failing(g, res) == failing


def test_phase_counts_fails_a_phase_with_more_clusters_than_vertices(
        sparse_gnp_build):
    """Phase 0 with one more settled singleton cluster, centered at an ID
    outside G, holds n + 1 clusters: only the count bound of phase 0 fails,
    n^(3/3) for polylog and the exponential-stage bound for sparse."""
    g, res = sparse_gnp_build
    res = copy.deepcopy(res)
    snap = res.snapshots[0]
    outside = max(g.vertices) + 1
    snap.parent = {**snap.parent, outside: None}
    snap.settled = snap.settled | {outside}
    bound = ("n^(3/3)" if res.algorithm == "polylog"
             else "the exponential-stage bound")
    report = verify.verify_build(g, res)
    assert {v["name"]: v["detail"] for v in report["verdicts"] if not v["ok"]} \
        == {"phase_counts": f"phase 0: {g.n + 1} clusters exceed {bound}"}


def _skeleton_of_the_grid():
    g = gr.generate_graph("grid", n=144)
    return g, sparse.build_skeleton(g, Fraction(34, 100))


def _polylog_of_gnp():
    g = gr.generate_graph("gnp_connected", n=48, p=0.1, seed=2)
    return g, polylog.build_spanner(g, 3)


@pytest.mark.parametrize("build, renumber, detail", [
    (_skeleton_of_the_grid, lambda snaps: snaps[1:],
     "snapshot 0 numbered 1: the schedule has 5 phases, numbered from 0"),
    (_polylog_of_gnp, lambda snaps: snaps + snaps[-1:],
     "snapshot 3 numbered 2: the schedule has 3 phases, numbered from 0"),
    (_polylog_of_gnp, lambda snaps: snaps[:-1],
     "snapshot 2 missing: the schedule has 3 phases, numbered from 0"),
], ids=["sparse phase 0 dropped", "polylog last phase twice",
        "polylog last phase dropped"])
def test_phase_counts_needs_one_snapshot_per_phase(build, renumber, detail):
    """The snapshots must be numbered 0..ell, one per phase of the schedule.
    Each of these edits fails phase_counts alone; the counting checks, which
    read the snapshots by phase, do not run on them."""
    g, res = build()
    assert _failing(g, res) == []
    res.snapshots = renumber(res.snapshots)
    report = verify.verify_build(g, res)
    assert {v["name"]: v["detail"] for v in report["verdicts"] if not v["ok"]} \
        == {"phase_counts": detail}


@pytest.mark.parametrize("n, p, seed, failing", [
    (128, 0.05, 4, ["ruling"]),
    (64, 0.1, 1, ["ruling", "supercluster_oracle"]),
], ids=["G(128, 0.05)", "G(64, 0.1)"])
def test_an_emptied_ruling_set_fails(n, p, seed, failing):
    """Phase 0 of these polylog builds has popular clusters and a single
    ruling member. With no member left, the popular clusters are dominated
    by nobody, and at n <= 64 the joins no longer match the reference
    exploration from an empty ruling set."""
    g = gr.generate_graph("gnp_connected", n=n, p=p, seed=seed)
    res = polylog.build_spanner(g, 3)
    snap = res.snapshots[0]
    assert snap.popular and len(snap.selected) == 1
    assert _failing(g, res) == []
    snap.selected = frozenset()
    assert _failing(g, res) == failing


def _root_redirected(snap, info, g):
    return info._replace(root=min(snap.centers() - {info.root}))


def _witness_redirected(snap, info, g):
    return info._replace(witness=min(g.edge_set() - {info.witness}))


@pytest.mark.parametrize("redirect", [_root_redirected, _witness_redirected],
                         ids=["root", "witness"])
def test_supercluster_oracle_fails_a_redirected_join(clean_build, redirect):
    """The first cluster that joined in a wave, with its root or its witness
    edge changed, fails the supercluster oracle and no other verdict."""
    g, res = clean_build
    res = copy.deepcopy(res)
    snap = next(s for s in res.snapshots if s.selected)
    c = min(c for c, info in snap.joins.items() if info.wave >= 1)
    snap.joins[c] = redirect(snap, snap.joins[c], g)
    assert _failing(g, res) == ["supercluster_oracle"]


def test_supercluster_oracle_fails_a_dropped_superedge(clean_build):
    """The least superedge of the first explored phase, dropped from the
    snapshot's virtual graph on both sides, fails the supercluster oracle
    and no other verdict, which names the phase and the superedge's lower
    center."""
    g, res = clean_build
    res = copy.deepcopy(res)
    snap = next(s for s in res.snapshots if s.vgraph is not None)
    a = min(c for c, near in snap.vgraph.items() if near)
    b = snap.vgraph[a][0]
    snap.vgraph[a] = snap.vgraph[a][1:]
    snap.vgraph[b] = tuple(c for c in snap.vgraph[b] if c != a)
    report = verify.verify_build(g, res)
    assert {v["name"]: v["detail"] for v in report["verdicts"] if not v["ok"]} \
        == {"supercluster_oracle": f"phase {snap.phase}: the virtual cluster "
                                   f"graph differs from the edge scan at center {a}"}


def test_oracles_fail_a_phase_without_a_cluster_forest():
    """A vertex made its own parent in phase 0's map, in a sparse build of
    G(64, 0.1), leaves the radius verdict without centers for that phase.
    The partition verdict and both oracles, which take their centers from
    it, fail and name the phase, instead of passing on the phases they
    could not check."""
    g = gr.generate_graph("gnp_connected", n=64, p=0.1, seed=1)
    res = sparse.build_spanner(g, 3, Fraction(1, 3))
    snap = res.snapshots[0]
    v = min(snap.parent)
    snap.parent = {**snap.parent, v: v}
    report = verify.verify_build(g, res)
    details = {d["name"]: d["detail"] for d in report["verdicts"] if not d["ok"]}
    assert details["radius"].startswith("phase 0, span: ")
    for name in ("partition", "supercluster_oracle", "knowledge_oracle"):
        assert details[name] == ("phase 0 has no cluster forest "
                                 "(see the radius verdict)"), name


def test_knowledge_oracle_fails_a_forgotten_neighbour():
    """One foreign center deleted from what a non-popular center learned in
    a sparse build of G(64, 0.1) fails the knowledge oracle and no other
    verdict."""
    g = gr.generate_graph("gnp_connected", n=64, p=0.1, seed=1)
    res = sparse.build_spanner(g, 3, Fraction(1, 3))
    assert _failing(g, res) == []
    snap = next(s for s in res.snapshots if s.knowledge is not None)
    c = min(c for c, learned in snap.knowledge.items()
            if learned and c not in snap.popular)
    del snap.knowledge[c][min(snap.knowledge[c])]
    assert _failing(g, res) == ["knowledge_oracle"]


@pytest.mark.parametrize("build", [
    lambda g: polylog.build_spanner(g, 3),
    lambda g: sparse.build_spanner(g, 3, Fraction(1, 3)),
], ids=["polylog", "sparse"])
def test_size_verdict_fails_when_the_spanner_is_the_graph(build):
    """K_16 has 120 edges, past both 16^(4/3) ~ 40.3 and 16^(4/3) + 16:
    adding every edge of G to a build's spanner fails the size verdict, and
    the charges verdict, since no vertex is charged for the added edges."""
    g = gr.generate_graph("complete", n=16)
    res = build(g)
    assert _failing(g, res) == []
    res.spanner.edges |= g.edge_set()
    assert _failing(g, res) == ["charges", "size"]


def _polylog_of_gnp200():
    g = gr.generate_graph("gnp_connected", n=200, p=0.05, seed=3)
    return g, polylog.build_spanner(g, 3)


@pytest.mark.parametrize("build", [_polylog_of_gnp200, _skeleton_of_the_grid],
                         ids=["polylog gnp", "skeleton grid"])
def test_charges_verdict_fails_an_uncharged_spanner_edge(build):
    """An edge of G that no charge records, added to the spanner, keeps
    every bound of these builds, and fails the charges verdict alone, which
    names it."""
    g, res = build()
    assert _failing(g, res) == []
    edge = min(g.edge_set() - res.spanner.edges)
    res.spanner.edges.add(edge)
    report = verify.verify_build(g, res)
    assert {v["name"]: v["detail"] for v in report["verdicts"] if not v["ok"]} \
        == {"charges": f"spanner edge {edge} is charged to no vertex"}


def test_charges_verdict_fails_a_charged_edge_missing_from_the_spanner():
    """The radius verdict reads the cluster trees off the ledger, so a
    superclustering edge of the grid's skeleton, a tree edge of the next
    phase, dropped from the spanner alone keeps every other verdict; the
    charges verdict names it."""
    g, res = _skeleton_of_the_grid()
    edge = min(e for ch in res.spanner.charges if ch.kind == SUPER
               for e in ch.edges)
    res.spanner.edges.remove(edge)
    report = verify.verify_build(g, res)
    assert {v["name"]: v["detail"] for v in report["verdicts"] if not v["ok"]} \
        == {"charges": f"charged edge {edge} is not in the spanner"}


def test_polylog_size_verdict_is_exact_at_the_charge_bound():
    """G(18, 2 ln 18 / 18) at kappa = 8 builds 27 edges, past 18^(9/8) =
    25.83. The charge caps bound a polylog spanner by (n - 1) +
    n*(ceil(n^(1/kappa)) - 1) = 17 + 18*(2 - 1) = 35 edges: padded with
    edges of G to 35 it passes the size verdict, and one edge more fails it."""
    g = gr.generate_graph("gnp_connected", n=18, p=gnp_p(18), seed=18)
    res = polylog.build_spanner(g, 8)
    assert res.spanner.size() == 27 and _failing(g, res) == []
    spare = sorted(g.edge_set() - res.spanner.edges)
    res.spanner.edges.update(spare[:8])
    assert res.spanner.size() == polylog.size_bound(18, 8) == 35
    assert "size" not in _failing(g, res)
    res.spanner.edges.add(spare[8])
    assert "size" in _failing(g, res)


# what each PhaseSnapshot field records: the build's choices and measurements
SNAPSHOT_FIELDS = {
    "phase", "rounds", "radius_actual",          # measured
    "parent", "vgraph", "knowledge",             # the phase's clusters and maps
    "popular", "selected", "settled", "joins",   # chosen
}


def test_build_records_only_its_inputs_and_choices():
    """params holds the build's inputs and no derived key, and no snapshot
    field is one the schedule determines (a radius bound or a threshold):
    the verifier and the report derive those from the inputs alone."""
    g = gr.generate_graph("gnp_connected", n=32, p=0.2, seed=1)
    assert set(polylog.build_spanner(g, 3).params) == {"kappa", "n"}
    assert set(sparse.build_spanner(g, 3, Fraction(1, 3)).params) == \
        {"kappa", "rho", "n"}
    assert set(sparse.build_skeleton(g, Fraction(34, 100)).params) == \
        {"kappa", "rho", "n", "preset"}
    assert {f.name for f in dataclasses.fields(PhaseSnapshot)} == SNAPSHOT_FIELDS


BUILDS = {
    "polylog": lambda g: polylog.build_spanner(g, 3),
    "sparse": lambda g: sparse.build_spanner(g, 3, Fraction(1, 3)),
    "skeleton": lambda g: sparse.build_skeleton(g, Fraction(34, 100)),
}


@pytest.mark.parametrize("alg", sorted(BUILDS))
def test_schedule_is_one_record(alg):
    """verify.schedule hands the verifier and the report one frozen
    spanner.Schedule, and both take the stretch bound from it."""
    g = gr.generate_graph("gnp_connected", n=32, p=0.2, seed=1)
    res = BUILDS[alg](g)
    sched = verify.schedule(res)
    assert type(sched) is Schedule
    with pytest.raises(dataclasses.FrozenInstanceError):
        sched.delta = 1
    report = cli.build_report(g, res)
    assert sched.stretch_bound == report["verification"]["stretch_bound"] \
        == report["bounds"]["stretch_checked"]
    assert (sched.n, sched.kappa) == (res.params["n"], res.params["kappa"])
    assert len(sched.radius_bounds) == sched.ell + 1
    assert len(sched.threshold_expos) == sched.ell


@pytest.mark.parametrize("alg", ["polylog", "sparse"])
def test_a_phase_forged_onto_a_single_vertex_fails_phase_counts(alg):
    """A single vertex runs no phase. A snapshot forged onto its build fails
    phase_counts, and no verdict raises: the polylog schedule of one vertex
    has the one radius R_0 = 0."""
    g = gr.generate_graph("path", n=1)
    res = BUILDS[alg](g)
    res.snapshots.append(PhaseSnapshot(
        phase=0, parent={1: None}, popular=frozenset(), selected=frozenset(),
        settled=frozenset({1}), joins={}, vgraph=None, knowledge=None,
        radius_actual=0, rounds=0))
    assert _failing(g, res) == ["phase_counts"]


def test_sparse_verification_derives_one_schedule(monkeypatch):
    """verify_build derives the sparse schedule once, and every verdict
    reads its bounds off that one schedule."""
    g = gr.generate_graph("gnp_connected", n=64, p=0.1, seed=1)
    res = sparse.build_skeleton(g, Fraction(34, 100))
    calls = []

    def counted(*args):
        calls.append(args)
        return schedule(*args)

    schedule = sparse.degree_schedule
    monkeypatch.setattr(sparse, "degree_schedule", counted)
    assert verify.verify_build(g, res)["passed"]
    assert len(calls) == 1


def test_stretch_verdict_fails_a_spanner_edge_outside_the_graph(clean_build):
    """A shortcut between two vertices of G that is no edge of G, added to
    the spanner, fails the stretch verdict, which names it instead of
    measuring a stretch, and the report's max_edge_stretch is null."""
    g, res = clean_build
    res = copy.deepcopy(res)
    u = min(g.vertices)
    v = min(set(g.vertices) - set(g.adjacency[u]) - {u})
    res.spanner.edges.add((u, v))
    report = verify.verify_build(g, res)
    details = {d["name"]: d["detail"] for d in report["verdicts"] if not d["ok"]}
    assert details["stretch"] == (f"stretch not measured: 1 edges outside the "
                                  f"graph, first {(u, v)}")
    assert report["max_edge_stretch"] is None
