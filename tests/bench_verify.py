"""Micro-benchmarks of the verifier's edge stretch against its oracle.

Not collected by the test suite (the file name does not match test_*.py).
Run it with

    python -m pytest tests/bench_verify.py --benchmark-only

Both sides compute the maximum per-edge stretch and its witness:
``verify.max_edge_stretch`` and ``oracles.max_edge_stretch``, one full BFS of
the spanner from every vertex.

The tree: the skeleton (rho = 0.34) of G(512, 2 ln n / n), seed 1, which is
a spanning tree, so the verifier takes the walk to the lowest common
ancestor.

The near-tree: the skeleton of the 32 x 32 grid, with 43 edges more than a
spanning tree, so the verifier falls back to its bounded BFS per vertex.
"""

import math
from fractions import Fraction

import pytest

import oracles

from congestspan import sparse, verify
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


@pytest.fixture(scope="module", params=["tree", "near-tree"])
def instance(request):
    make = _tree_instance if request.param == "tree" else _near_tree_instance
    g, edges = make()
    return g, edges, oracles.max_edge_stretch(g, edges)


@pytest.mark.parametrize("impl", [verify.max_edge_stretch, oracles.max_edge_stretch],
                         ids=["verifier", "oracle"])
def test_edge_stretch(benchmark, instance, impl):
    g, edges, expected = instance
    assert benchmark(impl, g, edges) == expected
