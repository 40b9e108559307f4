"""Micro-benchmarks of the sim kernels against their program oracles.

Not collected by the test suite (the file name does not match test_*.py).
Run it with

    python -m pytest tests/bench_sim.py --benchmark-only

The exchange round: both sides deliver, on a fixed G(512, 0.25), the round
of the cluster-ID exchange, about 65k messages: every vertex sends its ID,
accepts every sender, and gets ID -> least sender back, here each neighbour
mapped to itself.

The exploration hop: both sides deliver, on the same graph split into
singleton clusters, a hop of the exploration wave: the lowest quarter of the
vertices sends its ID as the root (about 16k messages), every other vertex
listens, and a listener keeps, per root, the least sender whose arrival
crosses a superedge: its own or the sender's cluster is popular, every even
vertex being popular.

The knock-out hop: both sides deliver, on the same graph, a round shaped like
a hop of the knock-out flood, folded to whether a listener heard a message
it accepts. Every eighth vertex sends its ID and, as the scalar, its popular
bit; the lower half of the vertices, the popular ones, accept every message,
the others only those with the bit set (about 8k messages).

The clustered knock-out hop: both sides deliver, on the 48 x 48 grid cut
into 144 clusters of 4 x 4 vertices, every other one popular, a hop of the
knock-out flood from the 72 clusters of the even block rows, as
comm.knockout_hop sends it: the sender map of every member of the frontier
to its center, then the round, whose listeners, the vertices of the other
clusters, keep whether they heard a sender they accept (about 4k messages).
The kernel side is comm.knockout_hop itself, so it sees the per-cluster
cost of the sender map, the oracle side the same map built by a loop and
oracles.broadcast_heard.

The tree casts: both sides run, on the BFS tree from vertex 1 of the 48 x 48
grid, a pipelined downcast of 64 payloads from the root (147k messages in
157 rounds) and then a collect of one key per vertex capped at 64 (57k
messages in 64 rounds).

The OR up-cast: on the same tree, every 20th vertex raises a flag (116 of
2 304) and the flags converge to the root; the kernel side is the collect
with cap 1 of one shared key in messages of no ID, as comm.upcast_flags runs
it, the oracle side one FlagUpcast program per vertex (586 messages in 8
rounds: a flag stops at the first flagged vertex above it).

The phase-0 casts: both sides run, on the 48 x 48 grid split into 2 304
single-vertex clusters, as every phase 0 is, a downcast of a one-ID payload
from every center and then a best-value upcast of one value per vertex to
every center. No message is sent; the kernels (through comm.downcast_single
and comm.upcast_best) do no work per cluster tree without an edge, and the
oracles step one program per vertex.
"""

import pytest

import oracles

from congestspan import comm, sim
from congestspan import graph as gr
from congestspan.sim import SimConfig


@pytest.fixture(scope="module")
def round_inputs():
    g = gr.generate_graph("gnp_connected", n=512, p=0.25, seed=1)
    return g, set(g.vertices), SimConfig(mode=sim.BROADCAST)


@pytest.mark.parametrize("impl", [sim.broadcast_ids, oracles.broadcast_ids],
                         ids=["kernel", "oracle"])
def test_exchange_round(benchmark, round_inputs, impl):
    g, listeners, config = round_inputs
    ids = {v: v for v in g.vertices}
    trace, heard = benchmark(impl, g, ids, listeners, listeners, config,
                             "p0.exchange")
    assert trace.messages_total == 2 * g.num_edges()
    assert heard == {u: {v: v for v in g.adjacency[u]} for u in g.vertices}


def _kernel_explore_hop(g, orient, frontier, accept_all, listeners, config, label):
    net = comm.Net(g)
    return net.trace, comm.explore_hop(net, orient, label, frontier, accept_all,
                                       listeners)


@pytest.mark.parametrize("impl", [_kernel_explore_hop, oracles.explore_hop],
                         ids=["kernel", "oracle"])
def test_explore_hop(benchmark, round_inputs, impl):
    g, _, config = round_inputs
    vertices = sorted(g.vertices)
    orient = oracles.orientation_from_parents({v: {v: None} for v in vertices})
    frontier = [(v, v) for v in vertices[:g.n // 4]]
    popular = set(vertices[::2])
    listeners = set(vertices[g.n // 4:])
    _, kept = benchmark(impl, g, orient, frontier, popular, listeners, config,
                        "w1.explore")
    assert kept and all(u == root and (u in popular or v in popular)
                        for v, got in kept.items() for root, u in got.items())


@pytest.mark.parametrize("impl", [sim.broadcast_heard, oracles.broadcast_heard],
                         ids=["kernel", "oracle"])
def test_knockout_hop(benchmark, round_inputs, impl):
    g, listeners, config = round_inputs
    vertices = sorted(g.vertices)
    accept_all = set(vertices[:g.n // 2])
    ids = {v: v for v in vertices[::8]}
    trace, heard = benchmark(impl, g, ids, listeners, accept_all, config, "k1.x")
    assert trace.messages_total == sum(len(g.adjacency[v]) for v in ids)
    # every other vertex hears a popular sender
    assert len(heard) == g.n - len(ids)


@pytest.fixture(scope="module")
def grid_blocks():
    g = gr.generate_graph("grid", rows=48, cols=48)
    parent_maps = {}   # 4 x 4 blocks, each a comb hanging off its top row
    for r0 in range(0, 48, 4):
        for c0 in range(0, 48, 4):
            center = r0 * 48 + c0 + 1
            parent_maps[center] = {
                r * 48 + c + 1: (None if (r, c) == (r0, c0) else
                                 r * 48 + c if r == r0 else (r - 1) * 48 + c + 1)
                for r in range(r0, r0 + 4) for c in range(c0, c0 + 4)}
    orient = oracles.orientation_from_parents(parent_maps)
    centers = list(parent_maps)
    popular = set(centers[::2])
    accept_all = {v for v, c in orient.center_of.items() if c in popular}
    frontier = [c for c in centers if (c - 1) // 48 % 8 == 0]
    return g, orient, frontier, accept_all


def _kernel_knockout_hop(g, orient, frontier, accept_all):
    net = comm.Net(g)
    heard = comm.knockout_hop(net, orient, "k1.x", frontier, accept_all)
    return net.trace.episodes[0], heard


def _oracle_knockout_hop(g, orient, frontier, accept_all):
    ids = {}
    for c in frontier:
        for v in orient.members[c]:
            ids[v] = c
    return oracles.broadcast_heard(g, ids, orient.center_of.keys(), accept_all,
                                   comm.Net(g).config, "k1.x")


@pytest.mark.parametrize("impl", [_kernel_knockout_hop, _oracle_knockout_hop],
                         ids=["kernel", "oracle"])
def test_clustered_knockout_hop(benchmark, grid_blocks, impl):
    g, orient, frontier, accept_all = grid_blocks
    trace, heard = benchmark(impl, g, orient, frontier, accept_all)
    senders = [v for c in frontier for v in orient.members[c]]
    assert trace.messages_total == sum(len(g.adjacency[v]) for v in senders)
    assert heard and not heard & set(senders)


@pytest.fixture(scope="module")
def grid_tree():
    g = gr.generate_graph("grid", rows=48, cols=48)
    dist = oracles.bfs_distances(g.adjacency, 1)
    parent = {v: min((u for u in g.adjacency[v] if dist[u] == dist[v] - 1),
                     default=None) for v in g.vertices}
    orient = oracles.orientation_from_parents({1: parent})
    payloads = {1: [(i + 1,) for i in range(64)]}
    items = {v: (v,) for v in g.vertices}
    return g, orient, payloads, items


def _kernel_collect(g, parent, items, cap, config, label):
    return sim.tree_collect(g, parent, items, cap, 2, config, label)


@pytest.mark.parametrize("impl", [(sim.tree_downcast, _kernel_collect),
                                  (oracles.tree_downcast, oracles.tree_collect)],
                         ids=["kernel", "oracle"])
def test_tree_casts(benchmark, grid_tree, impl):
    g, orient, payloads, items = grid_tree
    downcast, collect = impl
    config = SimConfig()

    def casts():
        down, _ = downcast(g, orient.children, payloads, config, "down")
        up, stores = collect(g, orient.parent, items, 64, config, "collect")
        return down, up, stores

    down, up, stores = benchmark(casts)
    assert down.messages_total == 64 * (g.n - 1)
    assert len(stores[1]) == 64


def _kernel_or(g, parent, flagged, config, label):
    trace, stores = sim.tree_collect(g, parent, {v: (0,) for v in flagged},
                                     1, 0, config, label)
    return trace, set(stores)


@pytest.mark.parametrize("impl", [_kernel_or, oracles.flag_upcast],
                         ids=["kernel", "oracle"])
def test_or_upcast(benchmark, grid_tree, impl):
    g, orient, _, _ = grid_tree
    flagged = set(sorted(g.vertices)[::20])
    trace, raised = benchmark(impl, g, orient.parent, flagged, SimConfig(), "or")
    assert raised == {1}
    assert trace.max_ids_per_message == 0


@pytest.fixture(scope="module")
def grid_alone():
    g = gr.generate_graph("grid", rows=48, cols=48)
    orient = oracles.orientation_from_parents({v: {v: None} for v in g.vertices})
    payload = {v: (v,) for v in g.vertices}
    values = {v: (v, v) for v in g.vertices}
    return g, orient, payload, values


def _kernel_phase0_casts(g, orient, payload, values):
    net = comm.Net(g)
    comm.downcast_single(net, orient, orient.members, "p0.down", payload)
    best = comm.upcast_best(net, orient, values, "p0.best", centers=orient.members)
    return net.trace.episodes, best


def _oracle_phase0_casts(g, orient, payload, values):
    config = comm.Net(g).config
    queues = {c: [payload[c]] for c in orient.members}
    down, _ = oracles.tree_downcast(g, orient.children, queues, config, "p0.down")
    up, best = oracles.best_upcast(g, orient.members, orient.parent, orient.height,
                                   values, config, "p0.best")
    return [down, up], best


@pytest.mark.parametrize("impl", [_kernel_phase0_casts, _oracle_phase0_casts],
                         ids=["kernel", "oracle"])
def test_phase0_casts(benchmark, grid_alone, impl):
    g, orient, payload, values = grid_alone
    episodes, best = benchmark(impl, g, orient, payload, values)
    assert [(e.label, e.messages_total) for e in episodes] == [
        ("p0.down", 0), ("p0.best", 0)]
    assert best == values
