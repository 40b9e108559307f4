"""Micro-benchmarks of the verifier's edge stretch against its oracle.

Not collected by the test suite (the file name does not match test_*.py).
Run it with

    python -m pytest tests/bench_verify.py --benchmark-only

Both sides compute the maximum per-edge stretch and its witness:
``verify.max_edge_stretch`` and ``oracles.max_edge_stretch``, one full BFS of
the spanner from every vertex.

The tree: the skeleton (rho = 0.34) of G(512, 2 ln n / n), seed 1, which is
a spanning tree. Peeling leaves an empty 2-core, so the verifier measures
every edge by the walk to the lowest common ancestor.

The near-tree: the skeleton of the 32 x 32 grid, with 43 edges more than a
spanning tree. Peeling its vertices of degree at most 1 leaves a 2-core of
459 of its 1 024 vertices, so the verifier runs its bit-parallel BFS per
batch of sources on that core only, over as many rounds as the largest
distance between two anchors, and measures the peeled trees by walks.

The permuted grid: the skeleton of the 48 x 48 grid with its IDs shuffled
(seed 1), as in the benchmark's grid-skeleton workload: 89 edges more than a
spanning tree, and a 2-core of 1 019 of its 2 304 vertices.

The low-stretch non-forest: the polylog spanner (kappa = 3) of
G(1024, 2 ln n / n), seed 1, thousands of edges more than a spanning tree but
with a small stretch. It is its own 2-core, so the bit-parallel BFS covers
all of it and shares nearly all of its few rounds across the sources of a
batch.
"""

import math
import random
from fractions import Fraction

import pytest

import oracles

from congestspan import polylog, sparse, verify
from congestspan import graph as gr

RHO = Fraction(34, 100)


def _tree_instance():
    n = 512
    g = gr.generate_graph("gnp_connected", n=n, p=2 * math.log(n) / n, seed=1)
    edges = sparse.build_skeleton(g, RHO).spanner.edges
    assert len(edges) == g.n - 1
    return g, edges


def _near_tree_instance():
    g = gr.generate_graph("grid", rows=32, cols=32)
    edges = sparse.build_skeleton(g, RHO).spanner.edges
    assert len(edges) >= g.n
    return g, edges


def _permuted_grid_instance():
    g = gr.generate_graph("grid", rows=48, cols=48)
    ids = list(range(1, g.n + 1))
    random.Random(1).shuffle(ids)
    new_id = dict(zip(g.vertices, ids))
    g = gr.from_edges((new_id[u], new_id[v]) for u, v in g.edges())
    edges = sparse.build_skeleton(g, RHO).spanner.edges
    assert len(edges) >= g.n
    return g, edges


def _low_stretch_instance():
    n = 1024
    g = gr.generate_graph("gnp_connected", n=n, p=2 * math.log(n) / n, seed=1)
    edges = polylog.build_spanner(g, 3).spanner.edges
    assert len(edges) >= g.n
    return g, edges


INSTANCES = {"tree": _tree_instance, "near-tree": _near_tree_instance,
             "permuted-grid": _permuted_grid_instance,
             "low-stretch": _low_stretch_instance}


@pytest.fixture(scope="module", params=list(INSTANCES))
def instance(request):
    g, edges = INSTANCES[request.param]()
    return g, edges, oracles.max_edge_stretch(g, edges)


@pytest.mark.parametrize("impl", [verify.max_edge_stretch, oracles.max_edge_stretch],
                         ids=["verifier", "oracle"])
def test_edge_stretch(benchmark, instance, impl):
    g, edges, expected = instance
    assert benchmark(impl, g, edges) == expected
