"""Micro-benchmarks of the verifier's edge stretch against its oracle.

Not collected by the test suite (the file name does not match test_*.py).
Run it with

    python -m pytest tests/bench_verify.py --benchmark-only

Both sides compute the maximum per-edge stretch and its witness:
``verify.max_edge_stretch`` and ``oracles.max_edge_stretch``, one full BFS of
the spanner from every vertex.

The verifier peels the spanner to its 2-core and searches only the core. A
core of at most ``verify.STRETCH_BATCH`` (2 048) vertices is measured by one
search of balls that meet in the middle (``_meet_search``), over half as
many levels as the largest distance; a larger core by the bit-parallel BFS
``_bit_bfs``, one batch of that many sources at a time, once for the edges
inside the core and once for the anchors of the edges with a peeled end.

The tree: the skeleton (rho = 0.34) of G(512, 2 ln n / n), seed 1, which is
a spanning tree. Peeling leaves an empty 2-core, so the verifier measures
every edge by the walk to the lowest common ancestor, and neither search
runs.

The near-tree: the skeleton of the 32 x 32 grid, with 43 edges more than a
spanning tree. Peeling its vertices of degree at most 1 leaves a 2-core of
459 of its 1 024 vertices, which the meet search measures; the peeled trees
are measured by walks.

The permuted grid: the skeleton of the 48 x 48 grid with its IDs shuffled
(seed 1), as in the benchmark's grid-skeleton workload: 89 edges more than a
spanning tree, and a 2-core of 1 019 of its 2 304 vertices, again one meet
search.

The low-stretch non-forest: the polylog spanner (kappa = 3) of
G(1024, 2 ln n / n), seed 1, thousands of edges more than a spanning tree but
with a small stretch. It is its own 2-core, which the meet search covers
whole in three levels.

The big core: the skeleton of the 128 x 128 grid with its IDs shuffled
(seed 1), 670 edges more than a spanning tree, and a 2-core of 7 429 of its
16 384 vertices, past STRETCH_BATCH, so the batched ``_bit_bfs`` measures it
in four batches. No benchmark workload has a core that large. The oracle
takes about 110 s here, so its answer, (43, (2718, 11411)), is pinned
instead of timed.
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


def _shuffled_grid_skeleton(side: int):
    g = gr.generate_graph("grid", rows=side, cols=side)
    ids = list(range(1, g.n + 1))
    random.Random(1).shuffle(ids)
    new_id = dict(zip(g.vertices, ids))
    g = gr.from_edges((new_id[u], new_id[v]) for u, v in g.edges())
    edges = sparse.build_skeleton(g, RHO).spanner.edges
    assert len(edges) >= g.n
    return g, edges


def _permuted_grid_instance():
    return _shuffled_grid_skeleton(48)


def _low_stretch_instance():
    n = 1024
    g = gr.generate_graph("gnp_connected", n=n, p=2 * math.log(n) / n, seed=1)
    edges = polylog.build_spanner(g, 3).spanner.edges
    assert len(edges) >= g.n
    return g, edges


def _big_core_instance():
    g, edges = _shuffled_grid_skeleton(128)
    core = verify._peel(g.vertices, gr.subgraph_adjacency(g.vertices, edges), edges)[0]
    assert len(core) > verify.STRETCH_BATCH
    return g, edges


INSTANCES = {"tree": _tree_instance, "near-tree": _near_tree_instance,
             "permuted-grid": _permuted_grid_instance,
             "low-stretch": _low_stretch_instance,
             "big-core": _big_core_instance}
# the oracle's answer where one run of it takes minutes
PINNED = {"big-core": (43, (2718, 11411))}


@pytest.fixture(scope="module", params=list(INSTANCES))
def instance(request):
    g, edges = INSTANCES[request.param]()
    expected = PINNED.get(request.param) or oracles.max_edge_stretch(g, edges)
    return request.param, g, edges, expected


@pytest.mark.parametrize("impl", [verify.max_edge_stretch, oracles.max_edge_stretch],
                         ids=["verifier", "oracle"])
def test_edge_stretch(benchmark, instance, impl):
    name, g, edges, expected = instance
    if impl is oracles.max_edge_stretch and name in PINNED:
        pytest.skip("the oracle's answer is pinned, not timed")
    assert benchmark(impl, g, edges) == expected
