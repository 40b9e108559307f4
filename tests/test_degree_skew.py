"""Builds on graphs with one vertex of very high degree.

A star of 16 000 leaves and a broom (an 8 000-leaf hub plus a 2 000-vertex
path) build and verify with both algorithms. Each is a tree, so its only
spanner is the whole graph. The kernels test "u is a neighbour of v" with one
lookup in the graph's edge set, so the hub's degree does not multiply into
every check. No wall-clock bound is asserted: host speed varies too much.
"""

from fractions import Fraction

import pytest

from congestspan import graph as gr
from congestspan import polylog, sparse, verify


def _star(leaves: int) -> gr.Graph:
    return gr.from_edges((1, v) for v in range(2, leaves + 2))


def _broom(leaves: int, path: int) -> gr.Graph:
    first = leaves + 2
    edges = [(1, v) for v in range(2, first + 1)]
    edges += [(v, v + 1) for v in range(first, first + path - 1)]
    return gr.from_edges(edges)


SHAPES = {"star16000": lambda: _star(16_000),
          "broom8000+2000": lambda: _broom(8_000, 2_000)}
BUILDS = {"polylog": lambda g: polylog.build_spanner(g, 3),
          "skeleton": lambda g: sparse.build_skeleton(g, Fraction(34, 100))}


@pytest.fixture(scope="module", params=sorted(SHAPES))
def shape(request):
    return SHAPES[request.param]()


@pytest.mark.parametrize("alg", sorted(BUILDS))
def test_high_degree_tree_builds_and_verifies(shape, alg):
    result = BUILDS[alg](shape)
    assert result.spanner.edges == shape.edge_set()
    report = verify.verify_build(shape, result)
    assert [v["name"] for v in report["verdicts"] if not v["ok"]] == []

