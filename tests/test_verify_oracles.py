"""The verifier's bounded searches against slow, obviously right oracles.

``max_edge_stretch`` peels the spanner to its 2-core, which is empty when the
spanner is a forest, and searches the core only: a core of at most
STRETCH_BATCH vertices by one search of balls that meet in the middle, a
larger one, and the pairs whose frontiers have grown thin, by a bit-parallel
BFS per batch of sources, each source stopping once its higher-ID neighbours
are measured (the tests narrow the batch width so that a core takes the
batched search and its sources span several batches, and widen what counts
as thin so that the meet search hands over early); the peeled trees are
measured by walks to the lowest common ancestor, skipped where the path
through the anchor cannot beat the maximum so far, and from their anchors
in the core; ``check_ruling`` searches separation only to depth
alpha - 1. Both must return exactly what the all-sources versions in
``oracles.py`` return, witness edge and failure text included; the stretch
value is also checked against networkx shortest paths.
"""

import dataclasses
import math
import random
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from corpus import _rho, build_tasks, make_graph

from congestspan import graph as gr
from congestspan import polylog, sparse, verify
from congestspan.graph import subgraph_adjacency
from congestspan.verify import check_ruling, forest_centers


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


def _tree_and_spanner(data, max_n: int = 40):
    """G = a random tree T plus up to 20 extra edges; H = T, or T less a few
    edges (a forest), possibly with some of the extra edges (cycles)."""
    n = data.draw(st.integers(1, max_n), label="n")
    seed = data.draw(st.integers(0, 10 ** 6), label="seed")
    tree = set(gr.generate_graph("random_tree", n=n, seed=seed).edges())
    chords = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
              if (u, v) not in tree]
    extra = data.draw(st.lists(st.sampled_from(chords), max_size=20, unique=True)
                      if chords else st.just([]), label="extra")
    dropped = data.draw(st.sets(st.sampled_from(sorted(tree)), max_size=3)
                        if tree else st.just(set()), label="dropped")
    chords_in_h = data.draw(st.sets(st.sampled_from(extra), max_size=3)
                            if extra else st.just(set()), label="chords in H")
    ids = list(range(1, n + 1))
    if data.draw(st.booleans(), label="wide ids"):
        ids = random.Random(seed).sample(range(1, 2 ** 63), n)
    new_id = dict(zip(range(1, n + 1), ids))

    def relabel(edges):
        return {gr.edge_key(new_id[u], new_id[v]) for u, v in edges}

    edges = relabel(tree | set(extra))
    g = gr.from_edges(edges) if edges else gr.Graph({ids[0]: []})
    return g, relabel((tree - dropped) | chords_in_h)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_forest_stretch_equals_all_sources_oracle(data):
    g, sub = _tree_and_spanner(data)
    # repr, not ==: the value must also keep its type (0.0, an int or inf)
    assert repr(verify.max_edge_stretch(g, sub)) == repr(oracles.max_edge_stretch(g, sub))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_forest_stretch_matches_networkx(data):
    g, sub = _tree_and_spanner(data, max_n=30)
    stretch, witness = verify.max_edge_stretch(g, sub)
    assert stretch == _networkx_edge_stretch(g, sub)
    h = _spanner_nx(g, sub)
    if witness is None:
        assert g.num_edges() == 0
    elif stretch == math.inf:
        assert not nx.has_path(h, *witness)
    else:
        assert nx.shortest_path_length(h, *witness) == stretch


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_peel_leaves_no_core_exactly_on_forests(data):
    """_peel leaves networkx's 2-core, which is empty exactly when H is a
    forest; the forest it then hangs gives two vertices one anchor exactly
    when they share a component, and the walk over it gives every such pair
    its networkx distance."""
    if data.draw(st.booleans(), label="tree based"):
        g, sub = _tree_and_spanner(data, max_n=25)
    else:
        g = _random_graph(data, max_n=25)
        sub = _random_subgraph(data, g)
    adj_h = subgraph_adjacency(g.vertices, sub)
    core, _, _, parent, height, anchor = verify._peel(g.vertices, adj_h, sub)
    h = _spanner_nx(g, sub)
    assert set(core) == set(nx.k_core(h, 2))
    assert (not core) == nx.is_forest(h)
    if not core:
        dist = dict(nx.all_pairs_shortest_path_length(h))
        for u in g.vertices:
            assert {v for v in g.vertices if anchor[v] == anchor[u]} == set(dist[u])
            for v, d in dist[u].items():
                assert verify._tree_distance(parent, height, u, v) == d


def _non_forest_spanner(data, max_n: int = 40):
    """A random graph with a cycle, and H = a random edge subset (often
    disconnecting) plus the edges of one cycle of g, so H is never a forest."""
    g = _random_graph(data, max_n)
    g_nx = _spanner_nx(g, g.edges())
    assume(not nx.is_forest(g_nx))
    cycle = {gr.edge_key(u, v) for u, v in nx.find_cycle(g_nx)}
    return g, _random_subgraph(data, g) | cycle


def _thin_frontier(data) -> int:
    """A THIN_FRONTIER for the meet search: 0 hands every pair left after
    the first level to _bit_bfs, 1 those whose frontiers leave a vertex
    out, and the default, on cores this small, mostly those whose frontiers
    are empty, which are disconnected."""
    return data.draw(st.sampled_from([0, 1, 2, verify.THIN_FRONTIER]),
                     label="thin frontier")


@settings(max_examples=250, deadline=None)
@given(data=st.data())
def test_batched_stretch_equals_all_sources_oracle(data):
    """The bit-parallel search, with batches as narrow as one source, so the
    maximum or the disconnected edge often lands in a later batch; at full
    width, the meet search, often handing its pairs left to _bit_bfs."""
    g, sub = _non_forest_spanner(data)
    width = data.draw(st.sampled_from([1, 2, 3, 4, 5, verify.STRETCH_BATCH]),
                      label="batch width")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "STRETCH_BATCH", width)
        mp.setattr(verify, "THIN_FRONTIER", _thin_frontier(data))
        got = verify.max_edge_stretch(g, sub)
    assert repr(got) == repr(oracles.max_edge_stretch(g, sub))


@pytest.mark.parametrize("width", [1, 2, 3, 4, 5, verify.STRETCH_BATCH])
@pytest.mark.parametrize("wide_ids", [False, True], ids=["ids 1..n", "wide ids"])
@pytest.mark.parametrize("cut", [False, True], ids=["connected", "disconnected"])
def test_batched_stretch_later_batches(width, wide_ids, cut):
    """G: a triangle 1-2-3 (so H is no forest), joined by (3, 4) to a 6-cycle
    4..9, then (9, 10), (10, 11) and a second 6-cycle 11..16. H lacks the
    cycle edges (4, 9) and (11, 16), so the maximum d_H = 5 is attained
    first by (4, 9), after the stretch-1 edges of earlier batches, and again
    in a later batch by (11, 16). With cut, H also lacks (9, 10), and the
    witness is that disconnected edge."""
    edges = [(1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8),
             (8, 9), (4, 9), (9, 10), (10, 11), (11, 12), (12, 13), (13, 14),
             (14, 15), (15, 16), (11, 16)]
    ids = list(range(1, 17))
    if wide_ids:
        ids = [2 ** 63 - 17 + i for i in range(1, 17)]
    new_id = dict(zip(range(1, 17), ids))
    g = gr.from_edges((new_id[u], new_id[v]) for u, v in edges)
    dropped = {(4, 9), (11, 16)} | ({(9, 10)} if cut else set())
    sub = {gr.edge_key(new_id[u], new_id[v]) for u, v in edges if (u, v) not in dropped}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "STRETCH_BATCH", width)
        got = verify.max_edge_stretch(g, sub)
    expected = (math.inf, (ids[8], ids[9])) if cut else (5, (ids[3], ids[8]))
    assert repr(got) == repr(expected) == repr(oracles.max_edge_stretch(g, sub))


def _cored_spanner(data, beside=None):
    """H: a 2-core C (a cycle 1..c with a few chords), pendant trees hanging
    off C, and sometimes (or as beside asks) a second cycle or tree
    components beside them. G: H plus random extra edges between pendant
    vertices or from a pendant vertex to C, which often join two pendant
    trees of one anchor, plus one edge more between consecutive components
    of H, which H lacks, so that H is connected exactly when beside is
    "nothing"."""
    c = data.draw(st.integers(3, 14), label="core size")
    h = {gr.edge_key(i, i % c + 1) for i in range(1, c + 1)}
    chords = [(u, v) for u in range(1, c + 1) for v in range(u + 2, c + 1)
              if (u, v) not in h]
    h |= set(data.draw(st.lists(st.sampled_from(chords), max_size=3)
                       if chords else st.just([]), label="chords"))
    # the pendant trees hang off at most three anchors, so that many pendant
    # vertices share one
    rnd = random.Random(data.draw(st.integers(0, 10 ** 6), label="edge seed"))
    anchors = rnd.sample(range(1, c + 1), data.draw(st.integers(1, 3), label="anchors"))
    p = data.draw(st.integers(1, 20), label="pendant vertices")
    for x in range(c + 1, c + p + 1):
        h.add((rnd.choice([*anchors, *range(c + 1, x)]), x))
    n = c + p
    if beside is None:
        beside = data.draw(st.sampled_from(["nothing", "nothing", "a cycle", "trees"]),
                           label="beside")
    if beside == "a cycle":
        h |= {(n + 1, n + 2), (n + 2, n + 3), (n + 1, n + 3)}
        n += 3
    elif beside == "trees":
        start = n + 1
        n += data.draw(st.integers(1, 8), label="tree vertices")
        for x in range(start, n + 1):
            parent = data.draw(st.sampled_from([None, *range(start, x)]),
                               label="tree parent")
            if parent is None:
                start = x   # x is the first vertex of a new tree
            else:
                h.add((parent, x))
    g_nx = nx.Graph(h)
    g_nx.add_nodes_from(range(1, n + 1))
    for low, size in ((1, 4), (c + 1, 10)):
        pairs = [(u, v) for u in range(low, c + p + 1)
                 for v in range(max(u, c) + 1, c + p + 1)]
        size = data.draw(st.integers(0, size), label="extra edges")
        g_nx.add_edges_from(rnd.sample(pairs, min(len(pairs), size)))
    parts = sorted(sorted(part) for part in nx.connected_components(g_nx))
    for a, b in zip(parts, parts[1:]):
        g_nx.add_edge(rnd.choice(a), rnd.choice(b))
    ids = list(range(1, n + 1))
    if data.draw(st.booleans(), label="wide ids"):
        ids = rnd.sample(range(1, 2 ** 63), n)
    new_id = dict(zip(range(1, n + 1), ids))

    def relabel(edges):
        return {gr.edge_key(new_id[u], new_id[v]) for u, v in edges}

    return gr.from_edges(relabel(g_nx.edges())), relabel(h)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_core_stretch_equals_all_sources_oracle(data):
    """The search of the 2-core only, with the pendant trees measured by
    walks to their anchors, and batches as narrow as one source, so that
    the maximum or the disconnected edge often lands in a later batch of
    the core's sources; at full width, the meet search, often handing its
    pairs left to _bit_bfs."""
    g, sub = _cored_spanner(data)
    core = verify._peel(g.vertices, subgraph_adjacency(g.vertices, sub), sub)[0]
    assert 3 <= len(core) < g.n
    width = data.draw(st.sampled_from([1, 2, 3, 4, 5, verify.STRETCH_BATCH]),
                      label="batch width")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "STRETCH_BATCH", width)
        mp.setattr(verify, "THIN_FRONTIER", _thin_frontier(data))
        got = verify.max_edge_stretch(g, sub)
    assert repr(got) == repr(oracles.max_edge_stretch(g, sub))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), connected=st.booleans())
def test_the_core_size_picks_the_search(data, connected):
    """A core of STRETCH_BATCH vertices is measured by one _meet_search, and
    one vertex more takes the batched _bit_bfs alone: at both sides of that
    limit the answer is the oracle's, value type included, on a connected H
    and on one that disconnects a graph edge (inf)."""
    g, sub = _cored_spanner(data, beside="nothing" if connected else
                            data.draw(st.sampled_from(["a cycle", "trees"]),
                                      label="beside"))
    size = len(verify._peel(g.vertices, subgraph_adjacency(g.vertices, sub), sub)[0])
    expected = oracles.max_edge_stretch(g, sub)
    assert (expected[0] < math.inf) == connected
    for width, search in ((size, "_meet_search"), (size - 1, "_bit_bfs")):
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(verify, "STRETCH_BATCH", width)
            for name in ("_meet_search", "_bit_bfs"):
                def spy(*args, _name=name, _search=getattr(verify, name)):
                    calls.append(_name)
                    return _search(*args)
                mp.setattr(verify, name, spy)
            got = verify.max_edge_stretch(g, sub)
        # the meet search may hand the pairs left to _bit_bfs
        assert calls[0] == search and "_meet_search" not in calls[1:], width
        assert repr(got) == repr(expected), width


def _recursive_tree(rnd: random.Random, first: int, last: int) -> set:
    """A random recursive tree on first..last: each vertex hangs from an
    earlier one, so the tree is a few levels deep and bushy."""
    return {(rnd.randrange(first, x), x) for x in range(first + 1, last + 1)}


def _leaf_edges(rnd: random.Random, tree: set, first: int, last: int,
                size: int) -> list:
    """Up to size random pairs of leaves of tree among first..last."""
    inner = {u for u, _ in tree}
    leaves = [x for x in range(first, last + 1) if x not in inner]
    pairs = [(a, b) for a in leaves for b in leaves if a < b]
    return rnd.sample(pairs, min(len(pairs), size))


def _bounded_walk_instance(data):
    """G and H for the walk bound, of one of three kinds:

    - "deep forest": H a random recursive tree, G = H plus many edges
      between its leaves, of many lengths, so that a later edge often beats
      the maximum of the earlier ones by a walk whose bound is larger;
    - "cut after maximum": H two trees (each sometimes with a chord, so a
      core), the first on the lower IDs with leaf edges in G, and G's one
      edge between them from the last vertex of the first, so the
      disconnected edge comes after the first tree's maximum, once the
      walks that cannot beat it are skipped;
    - "core tie": H a cycle of 2m to 2m + 3 vertices with two paths of m
      edges in all hanging from one of them; G adds a chord at cycle
      distance m and the edge between the paths' ends, at tree distance m,
      so the core's maximum ties the peeled one and the least of the two
      edges is the witness.
    """
    kind = data.draw(st.sampled_from(["deep forest", "cut after maximum", "core tie"]),
                     label="kind")
    rnd = random.Random(data.draw(st.integers(0, 10 ** 6), label="edge seed"))
    keep_order = False
    if kind == "deep forest":
        n = data.draw(st.integers(4, 40), label="n")
        h = _recursive_tree(rnd, 1, n)
        extra = _leaf_edges(rnd, h, 1, n, data.draw(st.integers(1, 40), label="leaf edges"))
    elif kind == "cut after maximum":
        a = data.draw(st.integers(3, 25), label="first tree")
        n = a + data.draw(st.integers(1, 10), label="second tree")
        h = _recursive_tree(rnd, 1, a) | _recursive_tree(rnd, a + 1, n)
        extra = _leaf_edges(rnd, h, 1, a, data.draw(st.integers(1, 25), label="leaf edges"))
        for first, last in ((1, a), (a + 1, n)):
            chords = [(u, v) for u in range(first, last + 1)
                      for v in range(u + 2, last + 1) if (u, v) not in h]
            if chords and data.draw(st.booleans(), label="chord"):
                h.add(rnd.choice(chords))
        extra.append((a, rnd.randint(a + 1, n)))
        keep_order = True   # the cut edge stays after the first tree's edges
    else:
        m = data.draw(st.integers(2, 5), label="tie")
        k = data.draw(st.integers(2 * m, 2 * m + 3), label="cycle")
        h = {(i, i % k + 1) for i in range(1, k + 1)}
        c = rnd.randint(1, k)
        ends = []
        n = k
        split = data.draw(st.integers(0, m // 2), label="split")
        for length in (split, m - split):
            x = c
            for _ in range(length):
                n += 1
                h.add((x, n))
                x = n
            ends.append(x)
        for _ in range(data.draw(st.integers(0, 8), label="pendant vertices")):
            n += 1
            h.add((rnd.randint(1, n - 1), n))
        extra = [(1, 1 + m), tuple(ends)]
    ids = list(range(1, n + 1))
    if data.draw(st.booleans(), label="wide ids"):
        ids = rnd.sample(range(1, 2 ** 63), n)
    if keep_order:
        ids.sort()
    else:
        rnd.shuffle(ids)
    new_id = dict(zip(range(1, n + 1), ids))

    def relabel(edges):
        return {gr.edge_key(new_id[u], new_id[v]) for u, v in edges}

    return gr.from_edges(relabel(h | set(extra))), relabel(h)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_bounded_walks_keep_value_and_witness(data):
    """Skipping the walks whose bound through the anchor cannot beat the
    maximum so far leaves the all-sources oracle's value and witness."""
    g, sub = _bounded_walk_instance(data)
    assert repr(verify.max_edge_stretch(g, sub)) == repr(oracles.max_edge_stretch(g, sub))


@pytest.mark.parametrize("vertex", [1, 2 ** 63 - 1])
def test_an_empty_core_is_measured_at_width_zero(vertex):
    """A single vertex has a core of 0 vertices, so STRETCH_BATCH = 0 still
    takes _meet_search, which runs no level: (0.0, None), as the oracle."""
    g = gr.Graph({vertex: []})
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "STRETCH_BATCH", 0)
        mp.setattr(verify, "_bit_bfs", None)   # a call would fail
        result = verify.max_edge_stretch(g, set())
    assert repr(result) == repr(oracles.max_edge_stretch(g, set())) == "(0.0, None)"


@pytest.mark.parametrize("vertex", [1, 2 ** 63 - 1])
def test_single_vertex_stretch_is_float_zero(vertex):
    g = gr.Graph({vertex: []})
    result = verify.max_edge_stretch(g, set())
    assert repr(result) == repr(oracles.max_edge_stretch(g, set())) == "(0.0, None)"


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
    beta = data.draw(st.integers(0, 8), label="beta")
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
        q = verify.schedule(result).ruling_q
        for snap in result.snapshots:
            if snap.selected:
                args = (snap.vgraph, snap.selected, snap.popular, 3, 2 * q)
                assert check_ruling(*args) == oracles.check_ruling(*args), where


def test_partition_names_first_vertex_settled_twice():
    g = gr.generate_graph("gnp_connected", n=48, p=0.1, seed=2)
    result = polylog.build_spanner(g, 3)
    radius_bounds = verify.schedule(result).radius_bounds

    def center_of(s):
        return forest_centers(s.parent, result.spanner.edges, radius_bounds[s.phase])

    # a phase whose first settled cluster (in set order) has several members
    first = next(s for s in result.snapshots if s.settled and
                 list(center_of(s).values()).count(next(iter(s.settled))) > 1)
    result.snapshots.append(dataclasses.replace(first, phase=99))
    # the verdict walks the vertices in parent-map order
    vertex = next(v for v in first.parent if center_of(first)[v] in first.settled)
    report = verify.verify_build(g, result)
    partition = next(v for v in report["verdicts"] if v["name"] == "partition")
    assert not partition["ok"]
    assert partition["detail"] == (f"vertex {vertex} settled twice "
                                   f"(phases {first.phase} and 99)")
