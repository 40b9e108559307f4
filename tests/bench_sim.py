"""Micro-benchmark of one broadcast round: the kernel against the oracle.

Not collected by the test suite (the file name does not match test_*.py).
Run it with

    python -m pytest tests/bench_sim.py --benchmark-only

Both sides deliver the same round on a fixed G(512, 0.25), about 65k
messages: every vertex broadcasts its own ID and every vertex folds its inbox
into a neighbor -> ID map, as the cluster-ID exchange does.
"""

import pytest

import oracles

from congestspan import graph as gr
from congestspan import sim
from congestspan.sim import Message, SimConfig


@pytest.fixture(scope="module")
def round_inputs():
    g = gr.generate_graph("gnp_connected", n=512, p=0.25, seed=1)
    sends = {v: Message(11, (v,)) for v in g.vertices}
    return g, sends, set(g.vertices), SimConfig(mode=sim.BROADCAST)


def _fold_into(heard):
    def fold(v, inbox):
        heard[v] = {u: msg.ids[0] for u, msg in inbox.items()}
    return fold


@pytest.mark.parametrize("impl", [sim.broadcast_round, oracles.broadcast_round],
                         ids=["kernel", "oracle"])
def test_broadcast_round(benchmark, round_inputs, impl):
    g, sends, listeners, config = round_inputs
    heard = {}
    trace = benchmark(impl, g, sends, listeners, _fold_into(heard), config,
                      "exchange")
    assert trace.messages_total == 2 * g.num_edges()
    assert len(heard) == g.n
