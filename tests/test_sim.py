import pytest
from hypothesis import given, settings, strategies as st

import oracles

from congestspan import comm
from congestspan import graph as gr
from congestspan import sim
from congestspan.sim import NodeProgram, SimConfig


class HaltNow(NodeProgram):
    def on_start(self, api):
        api.halt()


class Flood(NodeProgram):
    """Relay a one-shot token away from whoever delivered it."""

    def __init__(self, start=False):
        self.start = start
        self.got = False

    def on_start(self, api):
        if self.start:
            self.got = True
            api.broadcast(9)

    def on_round(self, api, inbox):
        if inbox and not self.got:
            self.got = True
            for u in api.neighbors:
                if u not in inbox:
                    api.send(u, 9)


class SendWide(NodeProgram):
    def on_start(self, api):
        api.broadcast(1, ids=(1, 2, 3))


class DoubleSend(NodeProgram):
    def on_start(self, api):
        api.send(2, 1)
        api.send(2, 1)


class TestRun:
    def test_all_halt_immediately(self):
        g = gr.generate_graph("path", n=4)
        trace = sim.run(g, {v: HaltNow() for v in g.vertices}, SimConfig())
        assert trace.rounds_elapsed == 0
        assert trace.messages_total == 0

    def test_flood_on_path_takes_hop_count_rounds(self):
        g = gr.generate_graph("path", n=3)
        programs = {v: Flood(start=(v == 1)) for v in g.vertices}
        trace = sim.run(g, programs, SimConfig())
        assert trace.rounds_elapsed == 2
        assert all(p.got for p in programs.values())

    def test_message_capacity_enforced(self):
        g = gr.generate_graph("path", n=2)
        with pytest.raises(sim.ModelViolation, match="ids"):
            sim.run(g, {1: SendWide()}, SimConfig(ids_per_message=2))

    def test_per_edge_multiplicity_enforced(self):
        g = gr.generate_graph("path", n=2)
        with pytest.raises(sim.ModelViolation, match="two messages"):
            sim.run(g, {1: DoubleSend()}, SimConfig())

    def test_broadcast_mode_rejects_per_edge_send(self):
        g = gr.generate_graph("path", n=2)

        class Bad(NodeProgram):
            def on_start(self, api):
                api.send(2, 1)

        with pytest.raises(sim.ModelViolation, match="broadcast"):
            sim.run(g, {1: Bad()}, SimConfig(mode=sim.BROADCAST))

    def test_round_budget(self):
        g = gr.generate_graph("cycle", n=4)

        class Chatter(NodeProgram):
            def on_start(self, api):
                api.broadcast(1)

            def on_round(self, api, inbox):
                api.broadcast(1)

        with pytest.raises(sim.RoundBudgetExceeded):
            sim.run(g, {v: Chatter() for v in g.vertices}, SimConfig(max_rounds=10))

    def test_determinism(self):
        g = gr.generate_graph("gnp_connected", n=24, p=0.2, seed=4)
        t1 = sim.run(g, {v: Flood(start=(v == 1)) for v in g.vertices}, SimConfig())
        t2 = sim.run(g, {v: Flood(start=(v == 1)) for v in g.vertices}, SimConfig())
        assert t1 == t2

    def test_trace_counts(self):
        g = gr.generate_graph("path", n=3)
        programs = {v: Flood(start=(v == 1)) for v in g.vertices}
        trace = sim.run(g, programs, SimConfig())
        # round 0: vertex 1 broadcasts (1 msg); round 1: vertex 2 relays onward
        assert trace.per_round_message_counts == [1, 1]
        assert trace.messages_total == 2


def path_tree(n):
    """Path graph rooted at 1, parent map 1 <- 2 <- ... <- n."""
    g = gr.generate_graph("path", n=n)
    parent = {1: None}
    for v in range(2, n + 1):
        parent[v] = v - 1
    return g, parent


def star_tree(n):
    g = gr.from_edges([(1, v) for v in range(2, n + 1)])
    parent = {1: None, **{v: 1 for v in range(2, n + 1)}}
    return g, parent


def downcast(g, parent, payloads):
    """Rounds of the build's pipelined downcast of payloads from the root 1
    of parent, and each vertex's received list under the oracle's programs,
    which must be the root's list at every member."""
    net = comm.Net(g)
    orient = oracles.orientation_from_parents({1: parent})
    assert comm.downcast_payloads(net, orient, {1: payloads}, "downcast") is None
    trace, received = oracles.tree_downcast(g, orient.children, {1: payloads},
                                            net.config, "downcast")
    assert trace == net.trace.episodes[-1]
    assert oracles.ends_on_a_send(trace)
    assert received == dict.fromkeys(orient.members[1], list(payloads))
    return trace.rounds_elapsed, received


def upcast(g, parent, items, cap):
    """Rounds, and the root's key -> holder store, of the build's capped
    collect of the keys each vertex of items holds to the root 1 of parent;
    a root that collected nothing has no store."""
    net = comm.Net(g)
    orient = oracles.orientation_from_parents({1: parent})
    stores = comm.upcast_collect(net, orient, items, cap, "upcast")
    trace = net.trace.episodes[-1]
    assert oracles.ends_on_a_send(trace)
    return trace.rounds_elapsed, stores.get(1, {})


class TestDowncast:
    def test_single_message_star(self):
        g, parent = star_tree(5)
        rounds, received = downcast(g, parent, [(1,)])
        assert rounds == 1
        assert all(len(msgs) == 1 for msgs in received.values())

    def test_four_messages_depth_three(self):
        g, parent = path_tree(4)
        payloads = [(i,) for i in range(1, 5)]
        rounds, received = downcast(g, parent, payloads)
        assert rounds <= 4 + 3
        assert list(received[4]) == [(1,), (2,), (3,), (4,)]

    def test_zero_messages(self):
        g, parent = path_tree(3)
        rounds, received = downcast(g, parent, [])
        assert rounds == 0
        assert all(not msgs for msgs in received.values())


class TestUpcast:
    def test_below_cap_collects_everything(self):
        g, parent = path_tree(3)
        items = {3: [10, 11, 12]}
        rounds, store = upcast(g, parent, items, cap=10)
        assert set(store) == {10, 11, 12}
        assert rounds <= 10 + 2

    def test_cap_limits_root_knowledge(self):
        g, parent = star_tree(6)
        items = {v: [100 + v] for v in range(2, 7)}
        rounds, store = upcast(g, parent, items, cap=2)
        assert len(store) == 2

    def test_duplicates_counted_once(self):
        g, parent = star_tree(4)
        items = {2: [55], 3: [55], 4: [66]}
        _, store = upcast(g, parent, items, cap=10)
        assert set(store) == {55, 66}
        # first arrival wins: ascending child order puts vertex 2's copy first
        assert store[55] == 2


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 20), m=st.integers(0, 12), seed=st.integers(0, 99))
def test_downcast_round_bound(n, m, seed):
    g = gr.generate_graph("random_tree", n=n, seed=seed)
    dist = oracles.bfs_distances(g.adjacency, 1)
    parent = {1: None}
    for v in g.vertices:
        if v != 1:
            parent[v] = min(u for u in g.adjacency[v] if dist[u] == dist[v] - 1)
    depth = max(int(d) for d in dist.values())
    payloads = [(i + 1,) for i in range(m)]
    rounds, received = downcast(g, parent, payloads)
    assert rounds <= m + depth
    assert all(len(received[v]) == m for v in g.vertices)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 20), cap=st.integers(1, 8), seed=st.integers(0, 99),
       data=st.data())
def test_upcast_round_bound_and_cap(n, cap, seed, data):
    g = gr.generate_graph("random_tree", n=n, seed=seed)
    dist = oracles.bfs_distances(g.adjacency, 1)
    parent = {1: None}
    for v in g.vertices:
        if v != 1:
            parent[v] = min(u for u in g.adjacency[v] if dist[u] == dist[v] - 1)
    depth = max(int(d) for d in dist.values())
    items = {}
    all_keys = set()
    for v in g.vertices:
        ks = data.draw(st.lists(st.integers(1000, 1015), max_size=3, unique=True))
        items[v] = ks
        all_keys.update(ks)
    rounds, store = upcast(g, parent, items, cap=cap)
    assert len(store) == min(cap, len(store))
    assert rounds <= cap + depth
    if len(all_keys) <= cap:
        assert set(store) == all_keys
    else:
        assert len(store) == cap
