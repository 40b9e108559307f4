"""The two ways to obtain an Orientation must agree field by field.

orient_clusters learns the trees through a simulated flood from the centers;
oracles.orientation_from_parents starts from parent maps that are already
known. Heights, and the deepest vertex's depth, are also checked against
their definitions, computed here by walking each tree directly. The key
order of center_of, parent and members must match too: the snapshot's
parent map is the orientation's, and its order feeds every later phase.
"""

from hypothesis import given, settings, strategies as st

from corpus import voronoi_clusters
from oracles import orientation_from_parents

from congestspan import graph as gr
from congestspan.comm import Net, orient_clusters

FIELDS = ("center_of", "parent", "children", "height", "members")
ORDERED = ("center_of", "parent", "members")


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 40), seed=st.integers(0, 99), data=st.data())
def test_orientation_from_parents_matches_flood(n, seed, data):
    g = gr.generate_graph("gnp_connected", n=n, p=0.15, seed=seed)
    centers = data.draw(st.sets(st.sampled_from(g.vertices), min_size=1,
                                max_size=max(1, n // 3)))
    # by center ascending, as the flood lists the clusters
    parent_maps = dict(sorted(voronoi_clusters(g, centers).items()))
    center_of = {v: c for c, pmap in parent_maps.items() for v in pmap}
    tree_adj = {v: [] for v in center_of}
    for v, c in center_of.items():
        p = parent_maps[c][v]
        if p is not None:
            tree_adj[v].append(p)
            tree_adj[p].append(v)
    # the flood's input in an order of its own
    shuffled = dict(data.draw(st.permutations(sorted(center_of.items()))))

    flooded = orient_clusters(Net(g), shuffled, tree_adj, "orient")
    known = orientation_from_parents(parent_maps)
    for name in FIELDS:
        assert getattr(known, name) == getattr(flooded, name), name
    for name in ORDERED:
        assert list(getattr(known, name)) == list(getattr(flooded, name)), name

    parent = {v: p for pmap in parent_maps.values() for v, p in pmap.items()}
    depth, height = {}, dict.fromkeys(parent, 0)
    for v in parent:
        u, up = v, 0
        while parent[u] is not None:
            u, up = parent[u], up + 1
            height[u] = max(height[u], up)
        depth[v] = up
    assert known.height == height
    assert known.max_depth() == flooded.max_depth() == max(depth.values())
