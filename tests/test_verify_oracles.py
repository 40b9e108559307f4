"""The verifier's bounded searches against slow, obviously right oracles.

``max_edge_stretch`` stops each per-source BFS once the source's higher-ID
neighbours are measured, and ``check_ruling`` searches separation only to
depth alpha - 1. Both must return exactly what the all-sources versions in
``oracles.py`` return, witness edge and failure text included; the stretch
value is also checked against networkx shortest paths.
"""

import dataclasses
import math
import random
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from corpus import _rho, build_tasks, make_graph

from congestspan import graph as gr
from congestspan import polylog, sparse, verify
from congestspan.graph import subgraph_adjacency
from congestspan.rulingset import check_ruling


def _random_graph(data, max_n: int = 40) -> gr.Graph:
    n = data.draw(st.integers(2, max_n), label="n")
    p = data.draw(st.sampled_from([0.05, 0.1, 0.2, 0.4]), label="p")
    seed = data.draw(st.integers(0, 10 ** 6), label="seed")
    g = gr.generate_graph("gnp_connected", n=n, p=p, seed=seed)
    if data.draw(st.booleans(), label="wide ids"):
        ids = random.Random(seed).sample(range(1, 2 ** 63), g.n)
        new_id = dict(zip(g.vertices, ids))
        g = gr.from_edges((new_id[u], new_id[v]) for u, v in g.edges())
    return g


def _random_subgraph(data, g: gr.Graph) -> set:
    """A random edge subset, often disconnecting, sometimes all of g."""
    keep = data.draw(st.sampled_from([0.3, 0.6, 0.85, 1.0]), label="keep")
    rnd = random.Random(data.draw(st.integers(0, 10 ** 6), label="edge seed"))
    return {e for e in g.edges() if rnd.random() < keep}


def _spanner_nx(g: gr.Graph, spanner_edges) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(g.vertices)
    h.add_edges_from(spanner_edges)
    return h


def _networkx_edge_stretch(g: gr.Graph, spanner_edges) -> float:
    dist = dict(nx.all_pairs_shortest_path_length(_spanner_nx(g, spanner_edges)))
    return max((dist[u].get(v, math.inf) for u, v in g.edges()), default=0)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_edge_stretch_equals_all_sources_oracle(data):
    g = _random_graph(data)
    sub = _random_subgraph(data, g)
    assert verify.max_edge_stretch(g, sub) == oracles.max_edge_stretch(g, sub)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_edge_stretch_value_matches_networkx(data):
    g = _random_graph(data, max_n=30)
    sub = _random_subgraph(data, g)
    stretch, witness = verify.max_edge_stretch(g, sub)
    expected = _networkx_edge_stretch(g, sub)
    assert stretch == expected
    h = _spanner_nx(g, sub)
    if expected == math.inf:
        assert not nx.has_path(h, *witness)
    else:
        assert nx.shortest_path_length(h, *witness) == expected


def test_edge_stretch_on_built_spanners_matches_networkx():
    for seed in (1, 2, 3):
        g = gr.generate_graph("gnp_connected", n=120, p=0.08, seed=seed)
        for res in (polylog.build_spanner(g, 3),
                    sparse.build_skeleton(g, Fraction(34, 100))):
            stretch, _ = verify.max_edge_stretch(g, res.spanner.edges)
            assert stretch == _networkx_edge_stretch(g, res.spanner.edges)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_check_ruling_equals_brute_force_oracle(data):
    g = _random_graph(data, max_n=30)
    # a disconnecting edge subset makes some distances infinite
    adjacency = subgraph_adjacency(g.vertices, _random_subgraph(data, g))
    verts = list(g.vertices)
    members = data.draw(st.sets(st.sampled_from(verts), max_size=8), label="members")
    target = data.draw(st.sets(st.sampled_from(verts)), label="target")
    if data.draw(st.booleans(), label="members in target"):
        target |= members
    alpha = data.draw(st.integers(1, 5), label="alpha")
    beta = data.draw(st.one_of(st.none(), st.integers(0, 8)), label="beta")
    assert (check_ruling(adjacency, members, target, alpha, beta)
            == oracles.check_ruling(adjacency, members, target, alpha, beta))


def test_check_ruling_reports_smallest_violating_pair():
    g = gr.generate_graph("path", n=9)
    v = check_ruling(g.adjacency, {2, 3, 4, 8}, g.vertices, alpha=3, beta=4)
    assert v == oracles.check_ruling(g.adjacency, {2, 3, 4, 8}, g.vertices, 3, 4)
    assert v.detail == "members 2 and 3 at distance 1 < 3"


def _small_corpus():
    return [t for t in build_tasks() if t[2]["n"] <= 64]


@pytest.mark.parametrize("alg", ["polylog", "sparse"])
def test_corpus_stretch_and_ruling_match_oracles(alg):
    tasks = [t for t in _small_corpus() if t[0] == alg]
    assert tasks
    for _, name, spec, kappa, rho in tasks:
        g = make_graph(spec)
        if alg == "polylog":
            result = polylog.build_spanner(g, kappa)
        else:
            result = sparse.build_spanner(g, kappa, _rho(rho))
        report = verify.verify_build(g, result)
        stretch, witness = oracles.max_edge_stretch(g, result.spanner.edges)
        where = (name, kappa, rho)
        assert report["max_edge_stretch"] == stretch, where
        stretch_detail = next(v["detail"] for v in report["verdicts"]
                              if v["name"] == "stretch")
        assert stretch_detail.endswith(f"(witness {witness})"), where
        q = result.params["ruling_q"]
        for snap in result.snapshots:
            if snap.selected:
                args = (snap.vgraph.adjacency, snap.selected, snap.popular, 3, 2 * q)
                assert check_ruling(*args) == oracles.check_ruling(*args), where


def test_partition_names_first_vertex_settled_twice():
    g = gr.generate_graph("gnp_connected", n=48, p=0.1, seed=2)
    result = polylog.build_spanner(g, 3)
    # a phase whose first settled cluster (in set order) has several members
    first = next(s for s in result.snapshots if s.settled and
                 len(s.cluster_set.by_center()[next(iter(s.settled))].members) > 1)
    result.snapshots.append(dataclasses.replace(first, phase=99))
    center = next(iter(first.settled))
    vertex = next(v for v, c in first.cluster_set.member_center().items() if c == center)
    report = verify.verify_build(g, result)
    partition = next(v for v in report["verdicts"] if v["name"] == "partition")
    assert not partition["ok"]
    assert partition["detail"] == (f"vertex {vertex} settled twice "
                                   f"(phases {first.phase} and 99)")
