"""The one-round broadcast kernel against the program-per-vertex oracle.

``sim.broadcast_round`` delivers a one-shot broadcast round directly. It must
return the trace that ``sim.run`` returns for one ``BroadcastOnce`` program
per sender and per listener next to a sender (``oracles.broadcast_round``),
call fold on the same vertices with the same inboxes in the same order, pass
each listener's own ID object, and reject what ``sim.run`` rejects.
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles

from congestspan import comm, sim
from congestspan import graph as gr
from congestspan.sim import Message, ModelViolation, SimConfig

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


def _recorder(listeners):
    calls = []
    own = {id(v) for v in listeners}

    def fold(v, inbox):
        assert id(v) in own, f"fold got a foreign ID object for {v}"
        assert list(inbox) == sorted(inbox)
        calls.append((v, list(inbox.items())))
    return calls, fold


def _both(g, sends, listeners, config):
    """(trace, fold calls) of the kernel and of the oracle, or the exception
    each raised."""
    out = []
    for impl in (sim.broadcast_round, oracles.broadcast_round):
        calls, fold = _recorder(listeners)
        try:
            trace = impl(g, sends, listeners, fold, config, "lbl")
        except (ModelViolation, ValueError) as exc:
            out.append((type(exc), str(exc)))
        else:
            out.append((dataclasses.asdict(trace), calls))
    return out


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_kernel_equals_program_oracle(data):
    g = _random_graph(data)
    own = _own_ids(g)
    cap = data.draw(st.integers(1, 3), label="cap")
    max_scalar = max(g.n, 2) ** 3
    senders = _subset(data, g.vertices, "sender")
    sends = {}
    for v in senders:
        k = data.draw(st.integers(0, cap), label="ids")
        ids = tuple(data.draw(st.sampled_from(g.vertices), label="id")
                    for _ in range(k))
        scalar = data.draw(st.integers(-max_scalar, max_scalar), label="scalar")
        tag = data.draw(st.integers(0, 30), label="tag")
        sends[own[v]] = Message(tag, ids, scalar)
    listeners = {own[v] for v in _subset(data, g.vertices, "listener")}
    if data.draw(st.booleans(), label="keys view"):
        listeners = dict.fromkeys(listeners).keys()
    config = SimConfig(ids_per_message=cap, mode=sim.BROADCAST)

    kernel, oracle = _both(g, sends, listeners, config)
    assert kernel == oracle
    trace, calls = kernel
    sent = sum(len(g.adjacency[v]) for v in sends)
    assert trace["rounds_elapsed"] == (1 if sent else 0)
    assert trace["messages_total"] == sent
    heard = {u for v in sends for u in g.adjacency[v]} & set(listeners)
    assert [v for v, _ in calls] == sorted(heard)


def test_single_vertex_sends_nothing():
    g = gr.generate_graph("path", n=1)
    kernel, oracle = _both(g, {1: Message(3, (1,))}, {1},
                           SimConfig(mode=sim.BROADCAST))
    assert kernel == oracle
    assert kernel == (dataclasses.asdict(sim.SimTrace(
        "lbl", sim.BROADCAST, max_ids_per_message=1)), [])


@pytest.mark.parametrize("msg", [Message(1, (1, 2, 3)), Message(1, (), 10 ** 9)],
                         ids=["too many ids", "scalar out of range"])
def test_kernel_rejects_what_run_rejects(msg):
    g = gr.generate_graph("cycle", n=8)
    sends = {2: Message(1, (4,)), 5: msg, 7: Message(1, (1, 2, 3))}
    kernel, oracle = _both(g, sends, set(g.vertices), SimConfig(mode=sim.BROADCAST))
    assert kernel[0] is ModelViolation
    assert kernel == oracle
    assert kernel[1].startswith("vertex 5:")


def test_unknown_sender_raises_value_error():
    g = gr.generate_graph("cycle", n=8)
    kernel, oracle = _both(g, {3: Message(1), 99: Message(1)}, {1, 2},
                           SimConfig(mode=sim.BROADCAST))
    assert kernel[0] is ValueError and oracle[0] is ValueError


def test_kernel_needs_broadcast_mode():
    g = gr.generate_graph("cycle", n=8)
    with pytest.raises(ValueError, match="broadcast"):
        sim.broadcast_round(g, {1: Message(1)}, {2}, lambda v, inbox: None,
                            SimConfig(), "lbl")


def test_no_episode_without_senders():
    g = gr.generate_graph("cycle", n=8)
    net = comm.Net(g)
    calls = []
    net.broadcast_round("quiet", {}, set(g.vertices),
                        lambda v, inbox: calls.append(v))
    assert net.trace.episodes == [] and calls == []
    net.broadcast_round("loud", {1: Message(1, (1,))}, set(g.vertices),
                        lambda v, inbox: calls.append(v))
    assert [(e.label, e.mode, e.rounds, e.messages, e.max_ids)
            for e in net.trace.episodes] == [("loud", sim.BROADCAST, 1, 2, 1)]
    assert calls == [2, 8]
