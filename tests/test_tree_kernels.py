"""The tree-cast kernels against the programs they replaced.

Each sim kernel (tree_downcast, best_upcast, tree_collect, orient_flood,
send_round) must return the trace that ``sim.run`` returns for one program
per vertex (the oracles in oracles.py), every field of it, and the same
result, or raise what ``sim.run`` raises, with the same text. tree_collect
runs both convergecasts: the keys vertices hold, each with its holder as
payload, against the TreeCollect programs, and the OR up-cast, a collect
with cap 1 of one shared key in messages of no ID, against the FlagUpcast
programs. A downcast returns nothing, so the oracle's programs must have
received their center's list at every member. The comm functions built on the kernels
must return what the program versions returned and record the oracle's
whole trace as the episode, and no episode when no vertex takes part. Clusters of a single vertex, the shape of phase 0,
take part but send nothing; they get cases of their own.
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles

from congestspan import comm, sim
from congestspan import graph as gr
from congestspan.sim import ModelViolation, RoundBudgetExceeded, SimConfig

MAX_ID = 2 ** 63 - 1
BIG_BUDGET = 10 ** 6


# ---------------------------------------------------------------------------
# Random inputs.

def _random_graph(data) -> gr.Graph:
    n = data.draw(st.integers(1, 40), label="n")
    if n == 1:
        g = gr.generate_graph("path", n=1)
    else:
        p = data.draw(st.sampled_from([0.05, 0.15, 0.4, 1.0]), label="p")
        seed = data.draw(st.integers(0, 10 ** 6), label="seed")
        g = gr.generate_graph("gnp_connected", n=n, p=p, seed=seed)
    if data.draw(st.booleans(), label="wide ids"):
        ids = random.Random(n).sample(range(1, MAX_ID + 1), g.n)
        if g.n == 1:
            return gr.Graph({ids[0]: []})
        new_id = dict(zip(g.vertices, ids))
        g = gr.from_edges((new_id[u], new_id[v]) for u, v in g.edges())
    return g


def _forest(rng: random.Random, g: gr.Graph):
    """center -> parent map of random cluster trees grown along graph edges.

    About a tenth of the vertices stay outside every cluster; most vertices
    no tree reaches become single-vertex clusters.
    """
    active = [v for v in g.vertices if rng.random() < 0.9] or [g.vertices[0]]
    centers = rng.sample(active, rng.randint(1, max(1, len(active) // 3)))
    owner = {c: c for c in centers}
    parent_maps = {c: {c: None} for c in centers}
    free = set(active) - set(centers)
    grown = list(centers)
    for _ in range(len(active)):
        v = rng.choice(grown)
        options = [u for u in g.adjacency[v] if u in free]
        if options:
            u = rng.choice(options)
            free.discard(u)
            owner[u] = owner[v]
            parent_maps[owner[v]][u] = v
            grown.append(u)
    for v in sorted(free):
        if rng.random() < 0.7:
            parent_maps[v] = {v: None}
    return parent_maps


def _rewire(rng: random.Random, parent_maps) -> None:
    """Give one non-root vertex a new parent in its cluster outside its own
    subtree, which is often not a graph neighbour."""
    clusters = [pm for pm in parent_maps.values() if len(pm) > 2]
    if not clusters:
        return
    pm = rng.choice(clusters)
    v = rng.choice(sorted(u for u in pm if pm[u] is not None))

    def under_v(u):
        while u is not None:
            if u == v:
                return True
            u = pm[u]
        return False

    pm[v] = rng.choice(sorted(u for u in pm if not under_v(u)))


def _setup(data):
    """(graph, parent maps, orientation, config, rng) for one example."""
    g = _random_graph(data)
    rng = random.Random(data.draw(st.integers(0, 2 ** 32), label="rng"))
    parent_maps = _forest(rng, g)
    if data.draw(st.integers(0, 4), label="rewire") == 0:
        _rewire(rng, parent_maps)
    ids_cap = data.draw(st.sampled_from([1, 2, 2, 3]), label="ids cap")
    budget = data.draw(st.sampled_from([1, 2, 4, BIG_BUDGET, BIG_BUDGET]),
                       label="budget")
    config = SimConfig(ids_per_message=ids_cap, max_rounds=budget)
    return g, parent_maps, oracles.orientation_from_parents(parent_maps), config, rng


def _some(rng: random.Random, items):
    """A random subset of items, in ascending order; empty now and then."""
    items = sorted(items)
    if rng.random() < 0.1:
        return []
    keep = rng.choice([0.2, 0.5, 1.0])
    return [x for x in items if rng.random() < keep]


def _faulty(data) -> bool:
    return data.draw(st.integers(0, 4), label="faulty") == 0


# ---------------------------------------------------------------------------
# Running both sides.

def _run(impl, *args):
    """(trace as a dict, result), or ((exception type, text), None)."""
    try:
        trace, result = impl(*args)
    except RuntimeError as exc:   # ModelViolation, RoundBudgetExceeded, orient
        return (type(exc), str(exc)), None
    assert oracles.ends_on_a_send(trace)
    return dataclasses.asdict(trace), result


def _net(g, config) -> comm.Net:
    net = comm.Net(g)
    net.config = config
    return net


def _episodes(net: comm.Net):
    """The recorded episodes, each the kernel's whole trace as a dict."""
    assert all(map(oracles.ends_on_a_send, net.trace.episodes))
    return [dataclasses.asdict(e) for e in net.trace.episodes]


def _comm(call):
    """call()'s result, or (exception type, text)."""
    try:
        return call()
    except RuntimeError as exc:
        return type(exc), str(exc)


def _keyed_collect(g, parent, items, cap, config, label):
    """The collect as comm.upcast_collect runs it: each message carries a key
    and its holder, two IDs."""
    return sim.tree_collect(g, parent, items, cap, 2, config, label)


def _or_collect(g, parent, flagged, config, label):
    """The OR up-cast as comm.upcast_flags runs it: a collect with cap 1 of
    one key that every flagged vertex holds, in messages of no ID; returns
    (trace, the roots it reached)."""
    trace, stores = sim.tree_collect(g, parent, {v: (0,) for v in flagged},
                                     1, 0, config, label)
    return trace, set(stores)


def _random_ids(rng, g, cap, bad) -> tuple:
    """An ID tuple of at most cap IDs, or now and then one more when bad."""
    width = rng.randint(0, cap + (1 if bad and rng.random() < 0.3 else 0))
    return tuple(rng.choice(g.vertices) for _ in range(width))


# ---------------------------------------------------------------------------
# Kernel against oracle, on random inputs.

@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_downcast_equals_oracle(data):
    g, _, orient, config, rng = _setup(data)
    bad = _faulty(data)
    payloads = {c: [_random_ids(rng, g, config.ids_per_message, bad)
                    for _ in range(rng.choice([0, 1, 1, 2, 5]))]
                for c in _some(rng, orient.members)}

    kernel, _ = _run(sim.tree_downcast, g, orient.children, payloads, config, "lbl")
    oracle, received = _run(oracles.tree_downcast, g, orient.children,
                            payloads, config, "lbl")
    assert kernel == oracle

    net = _net(g, config)
    got = _comm(lambda: comm.downcast_payloads(net, orient, payloads, "lbl"))
    if received is None:
        assert got == oracle
        return
    assert got is None
    # every member received its center's list, which the sparse
    # interconnect reads off the center's list itself
    assert received == {v: list(q) for c, q in payloads.items()
                        for v in orient.members[c]}
    assert _episodes(net) == ([oracle] if payloads else [])

    # downcast_single is the one-payload case, with no result
    single = {c: q[0] for c, q in payloads.items() if q}
    queues = {c: [single.get(c, ())] for c in payloads}
    oracle, _ = _run(oracles.tree_downcast, g, orient.children, queues, config, "one")
    net = _net(g, config)
    got = _comm(lambda: comm.downcast_single(net, orient, list(payloads), "one",
                                             single))
    if got is not None:
        assert got == oracle
    else:
        assert _episodes(net) == ([oracle] if payloads else [])


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_best_upcast_equals_oracle(data):
    g, _, orient, config, rng = _setup(data)
    bad = _faulty(data)
    width = data.draw(st.integers(1, 2), label="width")
    values = {}
    for v in orient.center_of:
        if rng.random() < 0.4:
            n_ids = width + (1 if bad and rng.random() < 0.3 else 0)
            values[v] = tuple(rng.choice(g.vertices) for _ in range(n_ids))
    wanted = set(_some(rng, orient.members))
    inside = {v: x for v, x in values.items() if orient.center_of[v] in wanted}
    args = (wanted, orient.parent, orient.height, inside, config, "lbl")

    kernel = _run(sim.best_upcast, g, *args)
    oracle = _run(oracles.best_upcast, g, *args)
    assert kernel == oracle
    assert kernel[1] is None or list(kernel[1]) == list(oracle[1])

    net = _net(g, config)
    got = _comm(lambda: comm.upcast_best(net, orient, values, "lbl",
                                         centers=wanted))
    if oracle[1] is None:
        assert got == oracle[0]
    else:
        assert got == oracle[1]
        assert _episodes(net) == ([oracle[0]] if wanted else [])


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_flag_upcast_equals_oracle(data):
    g, _, orient, config, rng = _setup(data)
    share = data.draw(st.sampled_from([0.0, 0.05, 0.3, 1.0]), label="share")
    flagged = {v for v in orient.center_of if rng.random() < share}
    if rng.random() < 0.3:
        flagged.add(rng.choice(sorted(orient.members)))

    kernel = _run(_or_collect, g, orient.parent, flagged, config, "lbl")
    oracle = _run(oracles.flag_upcast, g, orient.parent, flagged, config, "lbl")
    assert kernel == oracle

    net = _net(g, config)
    got = _comm(lambda: comm.upcast_flags(net, orient, flagged, "lbl"))
    if oracle[1] is None:
        assert got == oracle[0]
    else:
        assert got == {c for c in orient.members if c in oracle[1]}
        assert _episodes(net) == [oracle[0]]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_collect_equals_oracle(data):
    g, _, orient, config, rng = _setup(data)
    cap = data.draw(st.sampled_from([0, 1, 2, 3, 50]), label="cap")
    keys = rng.sample(range(1, 10 ** 6), 6)
    items = {v: [rng.choice(keys) for _ in range(rng.randint(0, 3))]
             for v in orient.center_of if rng.random() < 0.6}
    # the trees of some clusters only
    parent = {v: orient.parent[v] for c in _some(rng, orient.members)
              for v in orient.members[c]}

    def in_order(stores, parent):
        """The roots' non-empty stores, each as its list of items."""
        return {v: list(s.items()) for v, s in stores.items()
                if s and parent[v] is None}

    inside = {v: x for v, x in items.items() if v in parent}
    kernel, stores = _run(_keyed_collect, g, parent, inside, cap, config, "lbl")
    oracle, expected = _run(oracles.tree_collect, g, parent, inside, cap,
                            config, "lbl")
    assert kernel == oracle
    if expected is not None:
        assert all(parent[v] is None for v in stores)
        assert in_order(stores, parent) == in_order(expected, parent)

    # upcast_collect collects toward every center
    oracle, expected = _run(oracles.tree_collect, g, orient.parent, items, cap,
                            config, "lbl")
    net = _net(g, config)
    got = _comm(lambda: comm.upcast_collect(net, orient, items, cap, "lbl"))
    if expected is None:
        assert got == oracle
        return
    assert all(orient.parent[c] is None for c in got)
    assert {c: list(s.items()) for c, s in got.items()} == in_order(
        expected, orient.parent)
    assert _episodes(net) == ([oracle] if orient.members else [])


def _clusters(rng, parent_maps, mutation):
    """(vertex -> center, tree adjacency) of the trees, the vertices in a
    random order, with one mutation: a tree edge dropped, a chord that closes
    a cycle, a neighbour in another cluster added, a neighbour listed twice,
    or none."""
    members = {c: list(pm) for c, pm in parent_maps.items()}
    owner = {v: c for c, ms in members.items() for v in ms}
    vertices = list(owner)
    rng.shuffle(vertices)
    center_of = {v: owner[v] for v in vertices}
    tree_adj = {v: [] for v in vertices}
    for pm in parent_maps.values():
        for v, p in pm.items():
            if p is not None:
                tree_adj[v].append(p)
                tree_adj[p].append(v)
    if mutation == "drop":
        edges = [(v, u) for v in tree_adj for u in tree_adj[v]]
        if edges:
            v, u = rng.choice(edges)
            tree_adj[v].remove(u)
            tree_adj[u].remove(v)
    elif mutation == "chord":
        ms = rng.choice(list(members.values()))
        if len(ms) > 2:
            v, u = rng.sample(ms, 2)
            if u not in tree_adj[v]:
                tree_adj[v].append(u)
                tree_adj[u].append(v)
    elif mutation == "cross" and len(members) > 1:
        a, b = rng.sample(list(members.values()), 2)
        tree_adj[rng.choice(a)].append(rng.choice(b))
    elif mutation == "twice":
        v = rng.choice(vertices)
        if tree_adj[v]:
            tree_adj[v].append(rng.choice(tree_adj[v]))
    return center_of, tree_adj


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_orient_equals_oracle(data):
    g, parent_maps, _, config, rng = _setup(data)
    mutation = data.draw(st.sampled_from(["none", "none", "drop", "chord", "cross",
                                          "twice"]), label="mutation")
    center_of, tree_adj = _clusters(rng, parent_maps, mutation)
    tree_nbrs = {v: tree_adj[v] for v in center_of}
    roots = list(parent_maps)

    kernel = _run(sim.orient_flood, g, roots, tree_nbrs, config, "lbl")
    oracle = _run(oracles.orient_flood, g, roots, tree_nbrs, config, "lbl")
    assert kernel == oracle

    net = _net(g, config)
    got = _comm(lambda: dataclasses.asdict(
        comm.orient_clusters(net, center_of, tree_adj, "lbl")))
    expected = _comm(lambda: oracles.orient_clusters(g, center_of, tree_adj,
                                                     config, "lbl"))
    if isinstance(expected, tuple) and isinstance(expected[1], str):
        assert got == expected
        return
    assert got == dataclasses.asdict(expected[1])
    assert _episodes(net) == [dataclasses.asdict(expected[0])]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_send_round_equals_oracle(data):
    g, _, _, config, rng = _setup(data)
    bad = _faulty(data)
    targets = {}
    for v in _some(rng, g.vertices):
        nbrs = list(g.adjacency[v])
        ts = rng.sample(nbrs, rng.randint(0, len(nbrs)))
        if bad and rng.random() < 0.3:
            ts.insert(rng.randint(0, len(ts)), rng.choice(g.vertices + tuple(ts)))
        targets[v] = ts

    kernel = _run(sim.send_round, g, targets, config, "lbl")
    oracle = _run(oracles.send_round, g, targets, config, "lbl")
    assert kernel == oracle

    net = _net(g, config)
    got = _comm(lambda: comm.announce_edges(net, "lbl", targets))
    if got is not None:
        assert got == oracle[0]
    else:
        assert _episodes(net) == ([oracle[0]] if targets else [])


# ---------------------------------------------------------------------------
# Each check sim.run makes, on a path 1 - 2 - 3 - 4 - 5.

PATH = gr.generate_graph("path", n=5)
CHAIN = oracles.orientation_from_parents({1: {1: None, 2: 1, 3: 2, 4: 3, 5: 4}})
# 3 hangs off 1, which is not its graph neighbour
BENT = oracles.orientation_from_parents({1: {1: None, 2: 1, 3: 1, 4: 3, 5: 4}})
CHAIN_ADJ = {1: [2], 2: [1, 3], 3: [2, 4], 4: [3, 5], 5: [4]}
# every cluster a single vertex, as in phase 0
ALONE = oracles.orientation_from_parents({v: {v: None} for v in PATH.vertices})
# a chain of three beside two single-vertex clusters
MIXED = oracles.orientation_from_parents({1: {1: None, 2: 1, 3: 2}, 4: {4: None},
                                       5: {5: None}})


def _cases():
    """(name, kernel, oracle, args, config, expected exception type)."""
    ok, tight = SimConfig(), SimConfig(max_rounds=2)
    four = [(v,) for v in range(1, 5)]
    yield ("downcast: too many ids", sim.tree_downcast, oracles.tree_downcast,
           (CHAIN.children, {1: [(1,), (1, 2, 3)]}), ok, ModelViolation)
    yield ("downcast: parent not a neighbour", sim.tree_downcast,
           oracles.tree_downcast, (BENT.children, {1: four}), ok, ModelViolation)
    # the root checks its first child's edge before its first message
    yield ("downcast: bad first payload to a non-neighbour", sim.tree_downcast,
           oracles.tree_downcast, ({1: (3,), 3: ()}, {1: [(1, 2, 3)]}),
           ok, ModelViolation)
    yield ("downcast: round budget", sim.tree_downcast, oracles.tree_downcast,
           (CHAIN.children, {1: four}), tight, RoundBudgetExceeded)
    # a root with no child sends nothing, but wakes for each of its payloads
    yield ("downcast: round budget at a single-vertex root", sim.tree_downcast,
           oracles.tree_downcast, (ALONE.children, {3: four}), tight,
           RoundBudgetExceeded)
    for name, orient in (("chain", CHAIN), ("bent", BENT)):
        args = ([1], orient.parent, orient.height, {5: (4, 5, 1)})
        yield (f"best upcast ({name}): too many ids", sim.best_upcast,
               oracles.best_upcast, args, ok, ModelViolation)
    yield ("best upcast: parent not a neighbour", sim.best_upcast,
           oracles.best_upcast,
           ([1], BENT.parent, BENT.height, {5: (7,)}), ok, ModelViolation)
    yield ("best upcast: round budget, no value", sim.best_upcast,
           oracles.best_upcast,
           ([1], CHAIN.parent, CHAIN.height, {}), tight,
           RoundBudgetExceeded)
    yield ("flag upcast: parent not a neighbour", _or_collect,
           oracles.flag_upcast, (BENT.parent, {5}), ok, ModelViolation)
    yield ("flag upcast: round budget", _or_collect, oracles.flag_upcast,
           (CHAIN.parent, {5}), tight, RoundBudgetExceeded)
    yield ("collect: too many ids", _keyed_collect, oracles.tree_collect,
           (CHAIN.parent, {3: [9]}, 5),
           SimConfig(ids_per_message=1), ModelViolation)
    yield ("collect: parent not a neighbour", _keyed_collect, oracles.tree_collect,
           (BENT.parent, {5: [9, 8]}, 5), ok, ModelViolation)
    yield ("collect: round budget", _keyed_collect, oracles.tree_collect,
           (CHAIN.parent, {5: [9], 4: [8]}, 5), tight,
           RoundBudgetExceeded)
    yield ("orient: tree neighbour not a neighbour", sim.orient_flood,
           oracles.orient_flood, ([1], {**CHAIN_ADJ, 2: [1, 3, 5]}), ok,
           ModelViolation)
    yield ("orient: two messages on one edge", sim.orient_flood,
           oracles.orient_flood, ([1], {**CHAIN_ADJ, 3: [2, 4, 4]}), ok,
           ModelViolation)
    yield ("orient: round budget", sim.orient_flood, oracles.orient_flood,
           ([1], CHAIN_ADJ), tight, RoundBudgetExceeded)
    yield ("send round: not a neighbour", sim.send_round, oracles.send_round,
           ({2: [1, 3], 4: [3, 1]},), ok, ModelViolation)
    yield ("send round: two messages on one edge", sim.send_round,
           oracles.send_round, ({2: [1, 3, 1]},), ok, ModelViolation)


@pytest.mark.parametrize("name, kernel, oracle, args, config, expected",
                         list(_cases()), ids=[c[0] for c in _cases()])
def test_kernel_raises_what_run_raises(name, kernel, oracle, args, config,
                                       expected):
    got = _run(kernel, PATH, *args, config, "lbl")
    assert got == _run(oracle, PATH, *args, config, "lbl")
    assert got[0][0] is expected


def _no_fault_cases():
    """(name, kernel, oracle, args, config) in which sim.run raises nothing
    and the kernel must not either."""
    # cap 0 admits nothing, so no vertex may get a queue: an empty one would
    # be popped (IndexError)
    yield ("collect: cap 0", _keyed_collect, oracles.tree_collect,
           (CHAIN.parent, {5: [9], 3: [8, 7], 1: [6]}, 0),
           SimConfig())
    # a flag carries no ID, so messages of one ID hold it: the width checked
    # is the caller's, not the two entries of a (key, holder) item ("carries
    # 2 ids")
    yield ("flag upcast: messages of one ID", _or_collect, oracles.flag_upcast,
           (CHAIN.parent, {5, 3}), SimConfig(ids_per_message=1))


@pytest.mark.parametrize("name, kernel, oracle, args, config",
                         list(_no_fault_cases()),
                         ids=[c[0] for c in _no_fault_cases()])
def test_kernel_runs_what_run_runs(name, kernel, oracle, args, config):
    got = _run(kernel, PATH, *args, config, "lbl")
    assert got == _run(oracle, PATH, *args, config, "lbl")
    assert isinstance(got[0], dict)


def _edge_free_cases():
    """(name, kernel, oracle, args, config) on trees with no edge, where
    nothing is sent and nothing raises."""
    ok, tight = SimConfig(), SimConfig(max_rounds=2)
    oversize = [(1, 2, 3)]
    three = [(v,) for v in range(1, 4)]
    yield ("downcast: oversize payload at a single-vertex root", sim.tree_downcast,
           oracles.tree_downcast, (ALONE.children, {3: oversize, 4: []}), ok)
    # the root's last wake-up is at round 2, within the budget
    yield ("downcast: three payloads at a single-vertex root", sim.tree_downcast,
           oracles.tree_downcast, (MIXED.children, {5: three}), tight)
    yield ("best upcast: values at roots only", sim.best_upcast,
           oracles.best_upcast,
           ([1, 4, 5], MIXED.parent, MIXED.height, {1: (7,), 4: (9, 2), 5: (3,)}),
           ok)
    yield ("best upcast: oversize values at single-vertex roots", sim.best_upcast,
           oracles.best_upcast,
           ([4, 5], MIXED.parent, MIXED.height, {4: (1, 2, 3), 5: (10 ** 9,)}),
           tight)


@pytest.mark.parametrize("name, kernel, oracle, args, config",
                         list(_edge_free_cases()),
                         ids=[c[0] for c in _edge_free_cases()])
def test_edge_free_trees_equal_oracle(name, kernel, oracle, args, config):
    got = _run(kernel, PATH, *args, config, "lbl")
    expected = _run(oracle, PATH, *args, config, "lbl")
    assert got[0] == expected[0]
    assert sum(got[0]["per_round_message_counts"]) == 0
    if kernel is sim.best_upcast:   # each root keeps its own value
        roots, values = args[0], args[3]
        assert got[1] == expected[1] == {r: values.get(r) for r in roots}


def test_single_vertex_clusters_record_the_oracle_episodes():
    net = comm.Net(PATH)
    config = net.config
    # 1's payload is oversize, but it is never sent
    payload = {1: (1, 2, 3), 2: (2,), 3: (3,)}
    assert comm.downcast_single(net, ALONE, [1, 2, 3, 5], "down", payload) is None
    queues = {c: [payload.get(c, ())] for c in (1, 2, 3, 5)}
    down, received = _run(oracles.tree_downcast, PATH, ALONE.children, queues,
                          config, "down")
    assert received == queues

    values = {1: (4, 1), 2: (9, 9), 4: (1, 3)}
    got = comm.upcast_best(net, ALONE, values, "best", centers=[1, 4, 5])
    best, expected = _run(oracles.best_upcast, PATH, [1, 4, 5], ALONE.parent,
                          ALONE.height, {1: (4, 1), 4: (1, 3)}, config, "best")
    assert got == expected == {1: (4, 1), 4: (1, 3), 5: None}

    items = {1: [30, 10], 3: [20, 20], 5: []}
    got = comm.upcast_collect(net, ALONE, items, 1, "collect")
    collect, stores = _run(oracles.tree_collect, PATH, ALONE.parent, items, 1,
                           config, "collect")
    # only the centers that collected an item have a store
    assert got == stores == {1: {10: 1}, 3: {20: 3}}

    assert _episodes(net) == [down, best, collect]
    assert [(e["label"], sum(e["per_round_message_counts"]))
            for e in _episodes(net)] == [
        ("down", 0), ("best", 0), ("collect", 0)]


def test_best_upcast_round_budget_counts_sends_and_wakeups_only():
    # 1 has height 3 through the chain 3 - 4 - 5, but the only value is at
    # its leaf child 2, which sends at round 0; the last event is 3's wake-up
    # at round 2
    g = gr.from_edges([(1, 2), (1, 3), (3, 4), (4, 5)])
    spider = oracles.orientation_from_parents({1: {1: None, 2: 1, 3: 1, 4: 3, 5: 4}})
    args = ([1], spider.parent, spider.height, {2: (6,)})
    for budget, expected in ((2, {1: (6,)}), (1, None)):
        kernel = _run(sim.best_upcast, g, *args, SimConfig(max_rounds=budget), "lbl")
        assert kernel == _run(oracles.best_upcast, g, *args,
                              SimConfig(max_rounds=budget), "lbl")
        assert kernel[1] == expected


def test_orient_takes_the_smallest_first_sender():
    # on a 4-cycle the flood from 1 reaches 3 from 2 and from 4 in one round
    g = gr.generate_graph("cycle", n=4)
    cycle = {1: [2, 4], 2: [1, 3], 3: [2, 4], 4: [3, 1]}
    kernel = _run(sim.orient_flood, g, [1], cycle, SimConfig(), "lbl")
    assert kernel == _run(oracles.orient_flood, g, [1], cycle, SimConfig(), "lbl")
    assert kernel[1][3] == (1, 2)


def test_orient_runtime_errors_match():
    config = SimConfig()
    split = ({1: 1, 2: 1, 3: 1}, {1: [2], 2: [1], 3: []})
    foreign = ({1: 1, 2: 1, 3: 4, 4: 4, 5: 4}, {1: [2], 2: [1, 3], 4: [5], 5: [4]})
    for (center_of, tree_adj), text in (
            (split, "never reached vertex 3"),
            (foreign, "vertex 3 oriented to foreign center 1")):
        net = comm.Net(PATH)
        with pytest.raises(RuntimeError, match=text) as got:
            comm.orient_clusters(net, center_of, tree_adj, "lbl")
        with pytest.raises(RuntimeError) as expected:
            oracles.orient_clusters(PATH, center_of, tree_adj, config, "lbl")
        assert str(got.value) == str(expected.value)
        # the flood itself ran and is on the record
        assert len(net.trace.episodes) == 1


def test_episodes_only_when_a_vertex_takes_part():
    net = comm.Net(PATH)
    comm.downcast_single(net, CHAIN, [], "none")
    comm.downcast_payloads(net, CHAIN, {}, "none")
    comm.upcast_best(net, CHAIN, {1: (1,)}, "none", centers=[])
    comm.announce_edges(net, "none", {})
    empty = comm.orient_clusters(net, {}, {}, "none")
    assert comm.upcast_flags(net, empty, set(), "none") == set()
    assert comm.upcast_collect(net, empty, {}, 3, "none") == {}
    assert net.trace.episodes == []

    # a vertex that takes part but sends nothing still makes an episode
    single = oracles.orientation_from_parents({3: {3: None}})
    comm.downcast_single(net, single, [3], "quiet")
    comm.announce_edges(net, "quiet", {2: []})
    assert _episodes(net) == [dataclasses.asdict(sim.SimTrace("quiet"))] * 2
