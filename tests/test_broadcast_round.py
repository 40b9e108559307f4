"""The one-round broadcast kernels against the program-per-vertex oracle.

``oracles.broadcast_round`` steps one ``BroadcastOnce`` program per sender
and per listener next to a sender through ``sim.run``. Each kernel must
return the trace that oracle returns and reject what ``sim.run`` rejects.
``sim.broadcast_ids``, the round of the cluster-ID exchange and of every
exploration hop, must equal it with one single-ID message per sender and
each inbox folded to the least accepted sender of each ID, for the same
listeners in the same order, keyed by each listener's own ID object; half
its draws share a few IDs among many senders, so that a listener hears
every ID in flight to it before its last neighbour and the kernel's walk
stops early. ``sim.broadcast_heard``, the knock-out hop's round, takes the
same ``{sender: ID}`` map, drawn from a few IDs too, with most vertices
listening, so that its unions can fill and stop; it must equal the oracle
with the senders deaf and each inbox folded to whether it holds an
accepted message, and hold exactly the listeners outside the senders that
``sim.broadcast_ids`` gives a map.
``comm.explore_hop`` must keep, per root, the least sender of the oracle's
arrivals that cross a superedge, and ``comm.exchange_cluster_ids`` give each
active vertex the least active neighbour in each other cluster it borders.
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles

from congestspan import comm, sim
from congestspan import graph as gr
from congestspan.sim import ModelViolation, SimConfig

MAX_ID = 2 ** 63 - 1


def _random_graph(data) -> gr.Graph:
    n = data.draw(st.integers(1, 40), label="n")
    if n == 1:
        g = gr.generate_graph("path", n=1)
    else:
        p = data.draw(st.sampled_from([0.05, 0.2, 0.5, 1.0]), label="p")
        seed = data.draw(st.integers(0, 10 ** 6), label="seed")
        g = gr.generate_graph("gnp_connected", n=n, p=p, seed=seed)
    if data.draw(st.booleans(), label="wide ids"):
        ids = random.Random(n).sample(range(1, MAX_ID + 1), g.n)
        new_id = dict(zip(g.vertices, ids))
        if g.n == 1:
            return gr.Graph({ids[0]: []})
        g = gr.from_edges((new_id[u], new_id[v]) for u, v in g.edges())
    return g


def _own_ids(g: gr.Graph) -> dict:
    """vertex -> an equal int that is a distinct object from the graph's own
    (for ints too large for the interpreter's small-int cache)."""
    return {v: int(str(v)) for v in g.vertices}


def _subset(data, items, label):
    """A random subset of items, empty half of the time."""
    if not data.draw(st.booleans(), label=f"any {label}"):
        return []
    return [x for x in items if data.draw(st.booleans(), label=label)]


def _accept_all_and_listeners(data, g, listeners):
    """A random accept-all set, a random subset of g's vertices or its
    complement, and listeners; as keys views or not, at random."""
    accept_all = set(_subset(data, g.vertices, "accept all"))
    if data.draw(st.booleans(), label="complement"):
        accept_all = set(g.vertices) - accept_all
    if data.draw(st.booleans(), label="keys views"):
        return dict.fromkeys(accept_all).keys(), dict.fromkeys(listeners).keys()
    return accept_all, listeners


def _heard(listeners, maps):
    """maps as a list of (listener, sorted map items), each listener checked
    to be one of listeners' own ID objects."""
    own = {id(v) for v in listeners}
    calls = []
    for v, got in maps.items():
        assert id(v) in own, f"a foreign ID object for {v}"
        calls.append((v, sorted(got.items())))
    return calls


def _star_clusters(data, g):
    """A random partition of some vertices into star clusters (the hops and
    the exchange read no tree), with the vertices left out dormant."""
    centers = data.draw(st.sets(st.sampled_from(g.vertices)), label="centers")
    parent_maps = {c: {c: None} for c in centers}
    if centers:
        for v in _subset(data, sorted(set(g.vertices) - centers), "member"):
            c = data.draw(st.sampled_from(sorted(centers)), label="center")
            parent_maps[c][v] = c
    return oracles.orientation_from_parents(parent_maps)


def test_no_episode_without_senders():
    g = gr.generate_graph("cycle", n=8)
    net = comm.Net(g)
    orient = oracles.orientation_from_parents({v: {v: None} for v in g.vertices})
    nobody = oracles.orientation_from_parents({})
    assert comm.exchange_cluster_ids(net, nobody, "quiet") == {}
    assert comm.explore_hop(net, orient, "quiet", [], set(), set(g.vertices)) == {}
    assert net.trace.episodes == []
    # an exploration hop: vertex 1 sends root 5 to 2 and 8; both keep it
    # when 1's singleton cluster is popular, only 2 when 2's cluster is
    heard = comm.explore_hop(net, orient, "loud", [(1, 5)], {1}, set(g.vertices))
    assert list(heard) == [2, 8]
    assert heard == {2: {5: 1}, 8: {5: 1}}
    assert comm.explore_hop(net, orient, "edge", [(1, 5)], {2},
                            set(g.vertices)) == {2: {5: 1}}
    # a knock-out hop: vertex 1 sends to 2 and 8; only 2 hears it when 1's
    # singleton cluster is not popular
    assert comm.knockout_hop(net, orient, "quiet", [], set(g.vertices)) == set()
    assert comm.knockout_hop(net, orient, "pop", [1], {1}) == {2, 8}
    assert comm.knockout_hop(net, orient, "unpop", [1], {2}) == {2}
    assert net.trace.episodes == [
        sim.SimTrace(label, sim.BROADCAST, 1, [2])
        for label in ("loud", "edge", "pop", "unpop")]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_explore_hop_keeps_the_superedge_arrivals_of_the_program_oracle(data):
    """On a random partition of some vertices into clusters, with random
    popular clusters, frontier and listeners, explore_hop keeps what the
    program oracle keeps, for the same listeners in the same order, and
    records its trace."""
    g = _random_graph(data)
    orient = _star_clusters(data, g)
    centers = sorted(orient.members)
    popular = _subset(data, centers, "popular")
    accept_all = {v for c in popular for v in orient.members[c]}
    frontier = [(c, data.draw(st.sampled_from(g.vertices), label="root"))
                for c in _subset(data, centers, "frontier")]
    listeners = set(_subset(data, sorted(orient.center_of), "listener"))
    net = comm.Net(g)

    kept = comm.explore_hop(net, orient, "lbl", frontier, accept_all, listeners)
    config = SimConfig(ids_per_message=net.config.ids_per_message,
                       mode=sim.BROADCAST)
    trace, expected = oracles.explore_hop(g, orient, frontier, accept_all,
                                          listeners, config, "lbl")
    assert _heard(listeners, kept) == _heard(listeners, expected)
    assert net.trace.episodes == ([] if trace is None else [trace])


def test_explore_hop_keeps_the_least_sender_of_a_root():
    """On the path 1-2-3, the singleton clusters 1 and 3 both send root 5;
    vertex 2 hears it twice and keeps only sender 1."""
    g = gr.generate_graph("path", n=3)
    net = comm.Net(g)
    orient = oracles.orientation_from_parents({v: {v: None} for v in g.vertices})
    heard = comm.explore_hop(net, orient, "w1.explore", [(3, 5), (1, 5)],
                             {1, 2, 3}, {2})
    assert heard == {2: {5: 1}}
    assert net.trace.episodes == [
        sim.SimTrace("w1.explore", sim.BROADCAST, 1, [2])]


# ---------------------------------------------------------------------------
# sim.broadcast_ids: one ID per sender, as in the cluster-ID exchange and
# the exploration hop, folded to the least accepted sender of each ID.

def _ids_both(g, ids, listeners, accept_all, config):
    """(trace, listener maps) of the kernel and of the oracle, or the
    exception each raised."""
    out = []
    for impl in (sim.broadcast_ids, oracles.broadcast_ids):
        try:
            trace, heard = impl(g, ids, listeners, accept_all, config, "lbl")
        except (ModelViolation, ValueError) as exc:
            out.append((type(exc), str(exc)))
        else:
            assert oracles.ends_on_a_send(trace)
            out.append((dataclasses.asdict(trace), _heard(listeners, heard)))
    return out


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_id_kernel_equals_projected_program_oracle(data):
    g = _random_graph(data)
    own = _own_ids(g)
    if data.draw(st.booleans(), label="few ids"):
        # a few IDs, each shared by the senders that draw it, as the members
        # of one cluster share their center, and most vertices listening: a
        # listener then often hears every ID in flight to it before its
        # last neighbour
        vertices = st.sampled_from(g.vertices)
        pool = data.draw(st.lists(vertices, min_size=1, max_size=4), label="pool")
        senders = data.draw(st.sets(vertices, min_size=1), label="senders")
        listening = set(g.vertices) - data.draw(st.sets(vertices), label="deaf")
    else:
        pool = g.vertices
        senders = _subset(data, g.vertices, "sender")
        listening = _subset(data, g.vertices, "listener")
    ids = {own[v]: data.draw(st.sampled_from(pool), label="id") for v in senders}
    accept_all, listeners = _accept_all_and_listeners(
        data, g, {own[v] for v in listening})
    config = SimConfig(ids_per_message=data.draw(st.integers(1, 3), label="cap"),
                       mode=sim.BROADCAST)

    kernel, oracle = _ids_both(g, ids, listeners, accept_all, config)
    assert kernel == oracle
    trace, calls = kernel
    sent = sum(len(g.adjacency[v]) for v in ids)
    counts = trace["per_round_message_counts"]
    assert (len(counts), sum(counts)) == (1 if sent else 0, sent)
    assert trace["max_ids_per_message"] == (1 if ids else 0)
    heard = {u for v in ids for u in g.adjacency[v]
             if u in accept_all or v in accept_all} & set(listeners)
    assert [v for v, _ in calls] == sorted(heard)


def test_id_kernel_unknown_sender_and_empty_round():
    """An unknown sender raises ValueError for the least unknown sender
    (sim.run names the first program it meets)."""
    g = gr.generate_graph("cycle", n=8)
    config = SimConfig(mode=sim.BROADCAST)
    ids = {3: 1, 120: 1, 99: 5}
    kernel, oracle = _ids_both(g, ids, {1, 2}, {1}, config)
    assert kernel[0] is oracle[0] is ValueError
    assert kernel[1] == "broadcast from unknown vertex 99"
    assert _ids_both(g, {}, set(g.vertices), set(g.vertices), config) \
        == [(dataclasses.asdict(sim.SimTrace("lbl", sim.BROADCAST)), [])] * 2


def test_exchange_gives_each_silent_vertex_its_own_dict():
    """On the 8-cycle: vertices 1 and 2 hear only each other, in their own
    cluster, and 6 hears nobody; then 1, 4 and 6 hear nobody. Each gets an
    empty dict of its own."""
    g = gr.generate_graph("cycle", n=8)
    net = comm.Net(g)
    orient = oracles.orientation_from_parents({1: {1: None, 2: 1}, 6: {6: None}})
    heard = comm.exchange_cluster_ids(net, orient, "p0.exchange")
    assert heard == {1: {}, 2: {}, 6: {}}
    assert len({id(m) for m in heard.values()}) == 3
    orient = oracles.orientation_from_parents({1: {1: None}, 4: {4: None},
                                            6: {6: None}})
    heard = comm.exchange_cluster_ids(net, orient, "p1.exchange")
    assert heard == {1: {}, 4: {}, 6: {}}
    assert len({id(m) for m in heard.values()}) == 3
    assert net.trace.episodes == [
        sim.SimTrace(label, sim.BROADCAST, 1, [6])
        for label in ("p0.exchange", "p1.exchange")]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_exchange_equals_a_scan_of_the_graph(data):
    """On random star clusters with dormant vertices, every active vertex
    maps each other cluster it borders to its least active neighbour there."""
    g = _random_graph(data)
    orient = _star_clusters(data, g)
    center_of = orient.center_of
    scan = {}
    for v in center_of:
        scan[v] = {}
        for u in g.adjacency[v]:   # ascending: the first is the least
            if u in center_of and center_of[u] != center_of[v]:
                scan[v].setdefault(center_of[u], u)
    net = comm.Net(g)
    assert comm.exchange_cluster_ids(net, orient, "p0.exchange") == scan
    sent = sum(len(g.adjacency[v]) for v in center_of)
    assert [(t.rounds_elapsed, t.messages_total) for t in net.trace.episodes] \
        == ([(1 if sent else 0, sent)] if center_of else [])


# ---------------------------------------------------------------------------
# sim.broadcast_heard: the listeners that heard a message they accept.

def _heard_both(g, sends, listeners, accept_all, config):
    """(trace, sorted listeners that heard) of the kernel and of the oracle,
    or the exception each raised."""
    out = []
    for impl in (sim.broadcast_heard, oracles.broadcast_heard):
        try:
            trace, heard = impl(g, sends, listeners, accept_all, config, "lbl")
        except (ModelViolation, ValueError) as exc:
            out.append((type(exc), str(exc)))
        else:
            assert oracles.ends_on_a_send(trace)
            out.append((dataclasses.asdict(trace), sorted(heard)))
    return out


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_max_kernel_equals_folded_program_oracle(data):
    g = _random_graph(data)
    vertices = st.sampled_from(g.vertices)
    # a few IDs, each shared by the senders that draw it, as the members of
    # one cluster share their center
    pool = data.draw(st.lists(vertices, min_size=1, max_size=4), label="pool")
    ids = {v: data.draw(st.sampled_from(pool), label="id")
           for v in data.draw(st.sets(vertices, min_size=1), label="senders")}
    # most vertices listen
    accept_all, listeners = _accept_all_and_listeners(
        data, g, set(g.vertices) - data.draw(st.sets(vertices), label="deaf"))
    config = SimConfig(ids_per_message=data.draw(st.integers(1, 3), label="cap"),
                       mode=sim.BROADCAST)

    kernel, oracle = _heard_both(g, ids, listeners, accept_all, config)
    assert kernel == oracle
    trace, heard = kernel
    assert sum(trace["per_round_message_counts"]) \
        == sum(len(g.adjacency[v]) for v in ids)
    assert not ids.keys() & set(heard)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_heard_is_where_the_id_kernel_keeps_a_sender(data):
    """Both broadcast kernels read one popular-side rule from accept_all:
    broadcast_heard returns exactly the listeners outside the senders to
    which broadcast_ids gives a non-empty map, and both record one trace."""
    g = _random_graph(data)
    ids = {v: data.draw(st.sampled_from(g.vertices), label="id")
           for v in _subset(data, g.vertices, "sender")}
    accept_all, listeners = _accept_all_and_listeners(
        data, g, set(_subset(data, g.vertices, "listener")))
    config = SimConfig(mode=sim.BROADCAST)

    heard_trace, heard = sim.broadcast_heard(g, ids, listeners, accept_all,
                                             config, "lbl")
    ids_trace, maps = sim.broadcast_ids(g, ids, listeners, accept_all, config, "lbl")
    assert heard == maps.keys() - ids.keys()
    assert heard_trace == ids_trace


def test_max_kernel_without_senders_returns_an_empty_trace():
    g = gr.generate_graph("cycle", n=8)
    config = SimConfig(mode=sim.BROADCAST)
    assert _heard_both(g, {}, set(g.vertices), set(g.vertices), config) \
        == [(dataclasses.asdict(sim.SimTrace("lbl", sim.BROADCAST)), [])] * 2


def test_single_vertex_sends_nothing():
    g = gr.generate_graph("path", n=1)
    config = SimConfig(mode=sim.BROADCAST)
    silent = dataclasses.asdict(sim.SimTrace("lbl", sim.BROADCAST,
                                             max_ids_per_message=1))
    assert _ids_both(g, {1: 1}, {1}, {1}, config) == [(silent, [])] * 2
    assert _heard_both(g, {1: 1}, {1}, {1}, config) \
        == [(silent, [])] * 2


@pytest.mark.parametrize("ids, error", [
    ({3: 3, 99: 99}, "broadcast from unknown vertex 99"),
    ({6: 6, 120: 1, 0: 6}, "broadcast from unknown vertex 0"),
], ids=["unknown", "unknown below the fault"])
def test_max_kernel_raises_for_the_least_faulty_sender(ids, error):
    """The least unknown sender is named, whatever the order (sim.run
    refuses a program for an unknown vertex before it steps any)."""
    g = gr.generate_graph("cycle", n=8)
    with pytest.raises(ValueError) as exc:
        sim.broadcast_heard(g, ids, {1, 2}, {1}, SimConfig(mode=sim.BROADCAST))
    assert str(exc.value) == error
