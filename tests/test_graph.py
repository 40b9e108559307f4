import hashlib
import json
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles

from congestspan import graph as gr


def write(tmp_path, text):
    p = tmp_path / "g.edges"
    p.write_text(text)
    return str(p)


class TestLoad:
    def test_path_on_three(self, tmp_path):
        g = gr.load_graph(write(tmp_path, "1 2\n2 3\n"))
        assert g.n == 3
        assert g.adjacency == {1: (2,), 2: (1, 3), 3: (2,)}

    def test_disconnected_rejected(self, tmp_path):
        with pytest.raises(gr.GraphError, match="disconnected"):
            gr.load_graph(write(tmp_path, "1 2\n3 4\n"))

    def test_self_loop_rejected(self, tmp_path):
        with pytest.raises(gr.GraphError, match="self-loop"):
            gr.load_graph(write(tmp_path, "1 1\n"))

    def test_duplicate_edge_rejected(self, tmp_path):
        with pytest.raises(gr.GraphError, match="duplicate"):
            gr.load_graph(write(tmp_path, "1 2\n2 1\n"))

    def test_comments_and_blank_lines(self, tmp_path):
        g = gr.load_graph(write(tmp_path, "# a comment\n\n1 2  # trailing\n"))
        assert g.num_edges() == 1

    def test_bad_line(self, tmp_path):
        with pytest.raises(gr.GraphParseError):
            gr.load_graph(write(tmp_path, "1 2 3\n"))
        with pytest.raises(gr.GraphParseError):
            gr.load_graph(write(tmp_path, "a b\n"))

    def test_id_range_recorded(self, tmp_path):
        g = gr.load_graph(write(tmp_path, "5 9\n9 21\n"))
        assert g.id_range == (5, 21)

    def test_roundtrip(self, tmp_path):
        g = gr.generate_graph("gnp_connected", n=20, p=0.2, seed=3)
        out = tmp_path / "out.edges"
        gr.save_edgelist(g.edges(), str(out), header="test")
        g2 = gr.load_graph(str(out))
        assert g2.edge_set() == g.edge_set()


class TestGenerate:
    def test_complete_five(self):
        g = gr.generate_graph("complete", n=5)
        assert g.num_edges() == 10
        assert all(len(g.adjacency[v]) == 4 for v in g.vertices)

    def test_cycle_eight(self):
        g = gr.generate_graph("cycle", n=8)
        assert g.num_edges() == 8
        assert all(len(g.adjacency[v]) == 2 for v in g.vertices)

    def test_grid_dimensions(self):
        g = gr.generate_graph("grid", n=32)
        assert g.n == 32
        assert g.meta["rows"] * g.meta["cols"] == 32

    def test_random_tree_is_tree(self):
        g = gr.generate_graph("random_tree", n=40, seed=11)
        assert g.num_edges() == 39

    def test_gnp_connected_fixed_seed_regression(self):
        # sha256 of the sorted edge list and the meta, recorded with the
        # per-pair generator (oracles.gnp_connected); the last two need
        # stitching, the last 2 118 stitching edges
        pins = {(64, 0.1, 7): "0bc6c247afb32849bc2649cfd71a0dbbb6ee7491f63e2dac4ad26d3ef82571f6",
                (40, 0.01, 1): "4c81f47b22eaa5ce3e92b38acf11bb502dde1c7026f1ce0370c667a9ac93efcb",
                (3000, 0.0002, 1): "8d72c0880fffd222dc662e93bf0014628dd904a382f3c720715aa191c2f7f316"}
        for (n, p, seed), digest in pins.items():
            g = gr.generate_graph("gnp_connected", n=n, p=p, seed=seed)
            assert g.num_edges() == g.meta["num_edges"]
            text = repr(sorted(g.edges())) + json.dumps(g.meta, sort_keys=True)
            assert hashlib.sha256(text.encode()).hexdigest() == digest, (n, p, seed)

    def test_gnp_augmentation_recorded(self):
        g = gr.generate_graph("gnp_connected", n=40, p=0.01, seed=1)
        assert g.is_connected()
        assert g.meta["augmented_edges"] >= 0

    def test_deterministic(self):
        a = gr.generate_graph("gnp_connected", n=30, p=0.3, seed=5)
        b = gr.generate_graph("gnp_connected", n=30, p=0.3, seed=5)
        assert a.edge_set() == b.edge_set()

    def test_invalid_params(self):
        with pytest.raises(gr.GraphError):
            gr.generate_graph("gnp_connected", n=10, p=0.0, seed=0)
        with pytest.raises(gr.GraphError):
            gr.generate_graph("path", n=0)
        with pytest.raises(gr.GraphError):
            gr.generate_graph("mystery", n=3)


def _distances(adj, source):
    """Hop distances from source, read off bfs_layers."""
    return {v: d for d, layer in enumerate(gr.bfs_layers(adj, [source])) for v in layer}


class TestBfs:
    def test_path_distances(self):
        g = gr.generate_graph("path", n=3)
        assert _distances(g.adjacency, 1) == {1: 0, 2: 1, 3: 2}

    def test_complete_distances(self):
        g = gr.generate_graph("complete", n=5)
        d = _distances(g.adjacency, 3)
        assert d[3] == 0
        assert all(d[v] == 1 for v in g.vertices if v != 3)

    def test_cycle_with_removed_edge(self):
        # removing one cycle edge forces the long way around: distance 7
        g = gr.generate_graph("cycle", n=8)
        removed = (1, 8)
        rest = [e for e in g.edges() if e != removed]
        d = _distances(gr.subgraph_adjacency(g.vertices, rest), 1)
        assert d[8] == 7

    def test_unreachable_is_inf(self):
        """An unreachable vertex has no entry: its distance is the inf that
        callers read with dist.get(v, math.inf)."""
        g = gr.generate_graph("path", n=4)
        d = _distances(gr.subgraph_adjacency(g.vertices, [(1, 2)]), 1)
        assert d == {1: 0, 2: 1}
        assert d.get(3, math.inf) == d.get(4, math.inf) == math.inf

    def test_unknown_source(self):
        g = gr.generate_graph("path", n=4)
        with pytest.raises(KeyError):
            _distances(g.adjacency, 99)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 40), p=st.floats(0.05, 0.9), seed=st.integers(0, 999))
def test_generated_graphs_satisfy_invariants(n, p, seed):
    g = gr.generate_graph("gnp_connected", n=n, p=p, seed=seed)
    for v in g.vertices:
        for u in g.adjacency[v]:
            assert v in g.adjacency[u]
            assert u != v
    assert g.is_connected()
    assert g.edge_set() == set(g.edges())


# p at the edges of the generator's byte decision, where the top byte of
# cut - 1 is 0 (from the least positive double to 1/256), 63, 254 or 255
# (every draw a hit, and one draw value short of it)
BYTE_EDGE_P = [1, 1.0, 5e-324, 2 ** -45, 3 * 2 ** -44, 1 / 256, 255 / 256,
               1 - 2 ** -53, 0.25]


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 80), seed=st.integers(),
       p=st.one_of(st.floats(0, 1, exclude_min=True), st.sampled_from(BYTE_EDGE_P),
                   st.floats(1e-4, 0.05)))
@example(n=40, p=0.01, seed=1)
def test_gnp_generator_equals_per_pair_oracle(n, p, seed):
    """The bulk draws give the graph and meta of one random() call per pair;
    a low p leaves many components, whose stitching reads the RNG after the
    pair draws."""
    g = gr.generate_graph("gnp_connected", n=n, p=p, seed=seed)
    want = oracles.gnp_connected(n, p, seed)
    assert g.adjacency == want.adjacency
    assert g.meta == want.meta


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gnp_draw_equal_to_p_is_not_an_edge(seed):
    """A p equal to a pair's own draw puts that draw on the byte boundary,
    where only its exact decode finds it not below p; one double up, it is
    below. Random p reaches such a draw about once in 2^45."""
    n = 8
    draw = random.Random(seed).random
    for x in [draw() for _ in range(n * (n - 1) // 2)]:
        for p in (x, math.nextafter(x, 2)):
            g = gr.generate_graph("gnp_connected", n=n, p=p, seed=seed)
            want = oracles.gnp_connected(n, p, seed)
            assert (g.adjacency, g.meta) == (want.adjacency, want.meta), p


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 25), seed=st.integers(0, 99), data=st.data())
def test_bfs_triangle_inequality_and_subgraph_dominance(n, seed, data):
    g = gr.generate_graph("gnp_connected", n=n, p=0.3, seed=seed)
    verts = list(g.vertices)
    a = data.draw(st.sampled_from(verts))
    b = data.draw(st.sampled_from(verts))
    c = data.draw(st.sampled_from(verts))
    da = _distances(g.adjacency, a)
    db = _distances(g.adjacency, b)
    assert da[a] == 0
    assert da[c] <= da[b] + db[c]
    # dropping an edge can only increase distances
    edges = list(g.edges())
    dropped = data.draw(st.sampled_from(edges))
    rest = [e for e in edges if e != dropped]
    dr = _distances(gr.subgraph_adjacency(g.vertices, rest), a)
    for v in g.vertices:
        assert dr.get(v, math.inf) >= da[v]


class TestValidate:
    def test_one_sided_edge_rejected(self):
        with pytest.raises(gr.GraphError) as exc:
            gr.Graph({1: [2, 3], 2: [1], 3: [], 4: [3]})
        assert str(exc.value) == "asymmetric adjacency on edge (1,3)"

    def test_parallel_entries_rejected(self):
        with pytest.raises(gr.GraphError) as exc:
            gr.Graph({1: [2], 2: [1, 3, 3], 3: [2, 2]})
        assert str(exc.value) == "parallel edge at vertex 2"

    def test_self_loop_reported_before_a_parallel_entry(self):
        # vertex 2 lists 1 twice before its self-loop, and twice before an
        # outside neighbour: the parallel entry is reported last
        with pytest.raises(gr.GraphError) as exc:
            gr.Graph({1: [2], 2: [1, 1, 2]})
        assert str(exc.value) == "self-loop at vertex 2"
        with pytest.raises(gr.GraphError) as exc:
            gr.Graph({1: [2], 2: [1, 1, 9]})
        assert str(exc.value) == "edge (2,9) points outside the vertex set"

    def test_no_vertices_rejected(self):
        with pytest.raises(gr.GraphError) as exc:
            gr.Graph({})
        assert str(exc.value) == "graph has no vertices"


def _error_text(fn, adjacency):
    try:
        fn(adjacency)
    except gr.GraphError as exc:
        return str(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_validation_errors_match_membership_oracle(data):
    """Random adjacency dicts, some of them symmetric, the others broken by a
    self-loop, an out-of-set neighbour, a parallel entry, a one-sided edge, a
    dropped side of an edge or a non-positive ID, get the same GraphError
    text (or none) from Graph as from the per-edge membership checks."""
    ids = data.draw(st.lists(st.integers(1, 2 ** 63 - 1), min_size=1,
                             max_size=12, unique=True), label="ids")
    adjacency = {v: [] for v in ids}
    if len(ids) >= 2:
        pairs = data.draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids))
                                   .filter(lambda e: e[0] != e[1]), max_size=30),
                          label="edges")
        for u, v in {gr.edge_key(u, v) for u, v in pairs}:
            adjacency[u].append(v)
            adjacency[v].append(u)
    # the symmetry faults twice as often: other faults are found first
    kinds = ["self-loop", "outside", "parallel", "non-positive",
             "one-sided", "one-sided", "drop side", "drop side"]
    for kind in data.draw(st.lists(st.sampled_from(kinds), max_size=3), label="faults"):
        v = data.draw(st.sampled_from(ids), label="at")
        if kind == "non-positive":
            adjacency.setdefault(data.draw(st.integers(-1, 0), label="bad id"), [])
        elif kind == "self-loop":
            adjacency[v].append(v)
        elif kind == "outside":
            adjacency[v].append(data.draw(st.integers(1, 2 ** 63 - 1)
                                          .filter(lambda u: u not in adjacency),
                                          label="outside id"))
        elif kind == "parallel" and adjacency[v]:
            adjacency[v].append(data.draw(st.sampled_from(adjacency[v]), label="twin"))
        elif kind == "one-sided" and len(ids) > 1:
            adjacency[v].append(data.draw(st.sampled_from(ids).filter(lambda u: u != v),
                                          label="target"))
        elif kind == "drop side" and adjacency[v]:
            adjacency[v].remove(data.draw(st.sampled_from(adjacency[v]), label="drop"))
    assert _error_text(gr.Graph, adjacency) == _error_text(oracles.validate_graph, adjacency)
