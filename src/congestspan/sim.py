"""Round-synchronous message-passing simulator with congestion accounting.

The model: each vertex hosts a program; in every round a program may place at
most one small message on each incident edge. A message carries a tag, at most
``ids_per_message`` vertex IDs (default 2), and one bounded integer scalar.
All round-t sends are delivered at round t+1; there is no intra-round
visibility. In ``broadcast`` mode a vertex must send the identical message on
all incident edges, which programs express by calling ``api.broadcast``; the
per-edge ``send`` is rejected in that mode, so uniformity holds structurally.

Programs are event driven: a program is stepped when it has incoming messages
or when it asked to be woken at the current round. An episode (one ``run``
call) ends when every program has halted, or when the network is quiescent
(no messages in flight and no wakeups pending). Silent rounds between
scheduled wakeups still count toward the round total but cost no work, so a
run's wall time is proportional to the traffic, not to the round count.

One-shot broadcast rounds (every sender broadcasts once, every listener
folds the inbox it hears) use ``broadcast_round`` instead of ``run``: it
delivers the round directly, without a program or an API object per vertex,
applies the same message checks and returns the same trace that ``run``
gives for one program per vertex.

Determinism: vertices are stepped in ascending ID order, inboxes are keyed by
sender in ascending order, and per-edge FIFO order is preserved by the
pipelined tree casts. Two runs with identical inputs produce identical traces
and final states.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import (AbstractSet, Callable, Dict, List, Optional, Sequence,
                    Tuple)

from .graph import Graph

CONGEST = "congest"
BROADCAST = "broadcast"


class ModelViolation(RuntimeError):
    """A program broke the messaging model (size, multiplicity, or mode)."""


class RoundBudgetExceeded(RuntimeError):
    """The episode did not finish within config.max_rounds."""


@dataclass(frozen=True)
class Message:
    tag: int
    ids: Tuple[int, ...] = ()
    scalar: int = 0


@dataclass
class SimConfig:
    ids_per_message: int = 2
    mode: str = CONGEST
    max_rounds: int = 1_000_000

    def __post_init__(self):
        if self.ids_per_message < 1:
            raise ValueError("ids_per_message must be >= 1")
        if self.mode not in (CONGEST, BROADCAST):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.max_rounds <= 0:
            raise ValueError("max_rounds must be positive")


@dataclass
class SimTrace:
    """Accounting for one episode.

    per_round_message_counts[r] is the number of messages sent at round r
    (delivered at round r+1). messages_per_edge_per_round_max can never
    exceed 1 because a second message on a directed edge raises.
    """
    label: str = ""
    mode: str = CONGEST
    rounds_elapsed: int = 0
    messages_total: int = 0
    max_ids_per_message: int = 0
    messages_per_edge_per_round_max: int = 0
    per_round_message_counts: List[int] = field(default_factory=list)


class NodeApi:
    """Per-vertex handle a program uses to act during its step."""

    __slots__ = ("vertex", "neighbors", "round", "_mode", "_sends", "_bcast",
                 "_halted", "_wake")

    def __init__(self, vertex: int, neighbors: Tuple[int, ...], mode: str):
        self.vertex = vertex
        self.neighbors = neighbors
        self.round = 0
        self._mode = mode
        self._sends: List[Tuple[int, Message]] = []
        self._bcast: Optional[Message] = None
        self._halted = False
        self._wake: Optional[int] = None

    def send(self, to: int, tag: int, ids: Tuple[int, ...] = (), scalar: int = 0) -> None:
        if self._mode == BROADCAST:
            raise ModelViolation(
                f"vertex {self.vertex}: per-edge send in broadcast mode")
        self._sends.append((to, Message(tag, tuple(ids), scalar)))

    def broadcast(self, tag: int, ids: Tuple[int, ...] = (), scalar: int = 0) -> None:
        if self._bcast is not None or self._sends:
            raise ModelViolation(
                f"vertex {self.vertex}: more than one broadcast in a round")
        self._bcast = Message(tag, tuple(ids), scalar)

    def wake_at(self, rnd: int) -> None:
        if rnd <= self.round:
            raise ValueError(f"wake_at({rnd}) not after current round {self.round}")
        if self._wake is None or rnd < self._wake:
            self._wake = rnd

    def halt(self) -> None:
        self._halted = True


class NodeProgram:
    """Base class; subclasses override on_start and on_round.

    on_start runs once at round 0. on_round runs only at rounds where the
    vertex has an inbox or a pending wakeup; inbox maps sender id -> Message
    in ascending sender order.
    """

    def on_start(self, api: NodeApi) -> None:
        pass

    def on_round(self, api: NodeApi, inbox: Dict[int, Message]) -> None:
        pass


def run(g: Graph, programs: Dict[int, NodeProgram], config: SimConfig,
        label: str = "") -> SimTrace:
    """Execute one episode; programs mutate in place, the trace is returned.

    Vertices without a program never send; messages addressed to them are
    counted on the sending edge and then dropped.
    """
    max_scalar = max(g.n, 2) ** 3
    cap = config.ids_per_message

    apis: Dict[int, NodeApi] = {}
    for v in programs:
        if v not in g.adjacency:
            raise ValueError(f"program for unknown vertex {v}")
        apis[v] = NodeApi(v, g.adjacency[v], config.mode)

    trace = SimTrace(label=label, mode=config.mode)
    wakeups: Dict[int, List[int]] = {}
    live = set(programs)

    def collect(v: int, api: NodeApi, nxt: Dict[int, List[Tuple[int, Message]]]) -> int:
        """Validate and enqueue v's sends for the next round."""
        sent = 0
        if api._bcast is not None:
            msg = api._bcast
            _check_message(v, msg, cap, max_scalar, trace)
            for u in api.neighbors:
                nxt.setdefault(u, []).append((v, msg))
            sent = len(api.neighbors)
            api._bcast = None
        elif api._sends:
            dests = set()
            for to, msg in api._sends:
                if to not in g.adjacency[v]:
                    raise ModelViolation(f"vertex {v}: send to non-neighbor {to}")
                if to in dests:
                    raise ModelViolation(
                        f"vertex {v}: two messages on edge ({v},{to}) in one round")
                dests.add(to)
                _check_message(v, msg, cap, max_scalar, trace)
                nxt.setdefault(to, []).append((v, msg))
            sent = len(api._sends)
            api._sends = []
        if api._halted:
            live.discard(v)
        elif api._wake is not None:
            wakeups.setdefault(api._wake, []).append(v)
            api._wake = None
        return sent

    def record(rnd: int, sent: int) -> None:
        trace.messages_total += sent
        while len(trace.per_round_message_counts) < rnd:
            trace.per_round_message_counts.append(0)
        trace.per_round_message_counts.append(sent)
        trace.messages_per_edge_per_round_max = 1

    # round 0: every program starts, possibly sending into round 1
    pending: Dict[int, List[Tuple[int, Message]]] = {}
    start_sent = 0
    for v in sorted(programs):
        api = apis[v]
        programs[v].on_start(api)
        start_sent += collect(v, api, pending)
    if start_sent:
        record(0, start_sent)

    rnd = 0
    last_activity = 0
    while True:
        next_wake = min((r for r, vs in wakeups.items()
                         if any(w in live for w in vs)), default=None)
        if pending:
            next_round = rnd + 1
        elif next_wake is not None:
            next_round = next_wake
        else:
            break  # quiescent (or fully halted with nothing in flight)
        if next_round > config.max_rounds:
            raise RoundBudgetExceeded(
                f"episode {label!r} exceeded {config.max_rounds} rounds")
        rnd = next_round

        inboxes = pending
        pending = {}
        woken = wakeups.pop(rnd, [])
        active = sorted(set(k for k in inboxes if k in live)
                        | set(w for w in woken if w in live))
        if inboxes:
            last_activity = rnd

        sent_this_round = 0
        for v in active:
            api = apis[v]
            api.round = rnd
            arrivals = inboxes.get(v)
            if arrivals:
                arrivals.sort(key=lambda pair: pair[0])
                inbox_map = dict(arrivals)
            else:
                inbox_map = {}
            programs[v].on_round(api, inbox_map)
            sent_this_round += collect(v, api, pending)
        if sent_this_round:
            record(rnd, sent_this_round)
            last_activity = rnd

    trace.rounds_elapsed = last_activity
    return trace


def broadcast_round(g: Graph, sends: Dict[int, Message],
                    listeners: AbstractSet[int],
                    fold: Callable[[int, Dict[int, Message]], None],
                    config: SimConfig, label: str = "") -> SimTrace:
    """One broadcast-mode round without programs.

    Every sender broadcasts its message once on all its edges; each listener
    that hears anything then gets fold(vertex, inbox), in ascending vertex
    order, with the inbox keyed by sender in ascending order. vertex is the
    listener's own ID object from listeners. The message checks and the
    returned trace are those of run() stepping one program per vertex that
    broadcasts at round 0 and folds its round-1 inbox.
    """
    if config.mode != BROADCAST:
        raise ValueError(f"broadcast_round needs mode {BROADCAST!r}, "
                         f"not {config.mode!r}")
    max_scalar = max(g.n, 2) ** 3
    cap = config.ids_per_message
    adjacency = g.adjacency
    trace = SimTrace(label=label, mode=BROADCAST)
    inboxes: Dict[int, Dict[int, Message]] = defaultdict(dict)
    sent = 0
    # walking the senders in ascending order fills every inbox in ascending
    # sender order, so no inbox needs a sort
    for v in sorted(sends):
        nbrs = adjacency.get(v)
        if nbrs is None:
            raise ValueError(f"broadcast from unknown vertex {v}")
        msg = sends[v]
        _check_message(v, msg, cap, max_scalar, trace)
        sent += len(nbrs)
        for u in nbrs:
            if u in listeners:
                inboxes[u][v] = msg
    if sent:
        trace.rounds_elapsed = 1
        trace.messages_total = sent
        trace.per_round_message_counts.append(sent)
        trace.messages_per_edge_per_round_max = 1
    if inboxes:
        # the difference keeps the listeners' own ID objects, not the equal
        # ints of the adjacency tuples: callers store them, and later dict
        # lookups on identical keys are faster
        for v in sorted(listeners - (listeners - inboxes.keys())):
            fold(v, inboxes[v])
    return trace


def _check_message(v: int, msg: Message, cap: int, max_scalar: int,
                   trace: SimTrace) -> None:
    if len(msg.ids) > cap:
        raise ModelViolation(
            f"vertex {v}: message carries {len(msg.ids)} ids, capacity {cap}")
    if abs(msg.scalar) > max_scalar:
        raise ModelViolation(f"vertex {v}: scalar {msg.scalar} out of range")
    if len(msg.ids) > trace.max_ids_per_message:
        trace.max_ids_per_message = len(msg.ids)


# ---------------------------------------------------------------------------
# Pipelined tree casts, reusable inside phases and standalone.

TAG_CAST = 1
TAG_COLLECT = 2


class TreeDowncast(NodeProgram):
    """The root streams a payload queue down the tree, one message per round.

    Every vertex stores the payloads it sees in arrival order; relays forward
    FIFO to all children simultaneously (one edge each).
    """

    __slots__ = ("parent", "children", "queue", "received")

    def __init__(self, parent: Optional[int], children: Sequence[int],
                 payloads: Sequence[Message] = ()):
        self.parent = parent
        self.children = tuple(children)
        self.queue: List[Message] = list(payloads) if parent is None else []
        self.received: List[Message] = list(self.queue)

    def on_start(self, api: NodeApi) -> None:
        self._pump(api)

    def on_round(self, api: NodeApi, inbox: Dict[int, Message]) -> None:
        if self.parent in inbox:
            msg = inbox[self.parent]
            self.received.append(msg)
            self.queue.append(msg)
        self._pump(api)

    def _pump(self, api: NodeApi) -> None:
        if self.queue:
            msg = self.queue.pop(0)
            for c in self.children:
                api.send(c, msg.tag, msg.ids, msg.scalar)
            if self.queue:
                api.wake_at(api.round + 1)


class TreeCollect(NodeProgram):
    """Upcast of keyed items with dedup and a per-vertex storage cap.

    Items are (key, payload) pairs; a vertex saves an item only if the key is
    new to it and it has stored fewer than ``cap`` items, then forwards it to
    the parent, one per round. Own items are admitted before relayed ones, in
    ascending key order. The root's store is the collected knowledge.
    """

    __slots__ = ("parent", "cap", "store", "outq")

    def __init__(self, parent: Optional[int], own_items: Sequence[Tuple[int, int]],
                 cap: int):
        self.parent = parent
        self.cap = cap
        self.store: Dict[int, int] = {}
        self.outq: List[Tuple[int, int]] = []
        for key, payload in sorted(own_items):
            self._admit(key, payload)

    def _admit(self, key: int, payload: int) -> None:
        if key in self.store or len(self.store) >= self.cap:
            return
        self.store[key] = payload
        if self.parent is not None:
            self.outq.append((key, payload))

    def on_start(self, api: NodeApi) -> None:
        self._pump(api)

    def on_round(self, api: NodeApi, inbox: Dict[int, Message]) -> None:
        for sender in inbox:
            msg = inbox[sender]
            if msg.tag == TAG_COLLECT:
                self._admit(msg.ids[0], msg.ids[1])
        self._pump(api)

    def _pump(self, api: NodeApi) -> None:
        if self.outq:
            key, payload = self.outq.pop(0)
            api.send(self.parent, TAG_COLLECT, (key, payload))
            if self.outq:
                api.wake_at(api.round + 1)


def pipelined_downcast(g: Graph, parent: Dict[int, Optional[int]],
                       payloads: Sequence[Message],
                       config: Optional[SimConfig] = None
                       ) -> Tuple[int, Dict[int, List[Message]]]:
    """Send payloads from the tree root to every tree vertex.

    parent maps each tree vertex to its tree parent (None for the root).
    Returns (rounds used, per-vertex received payloads in order). Rounds are
    at most len(payloads) + tree depth.
    """
    config = config or SimConfig()
    children = _children_of(parent)
    programs: Dict[int, NodeProgram] = {
        v: TreeDowncast(parent[v], children[v], payloads) for v in parent
    }
    trace = run(g, programs, config, label="downcast")
    received = {v: programs[v].received for v in parent}
    return trace.rounds_elapsed, received


def pipelined_upcast(g: Graph, parent: Dict[int, Optional[int]],
                     items: Dict[int, Sequence[Tuple[int, int]]], cap: int,
                     config: Optional[SimConfig] = None) -> Tuple[int, Dict[int, int]]:
    """Converge keyed items to the tree root with dedup and cap.

    Returns (rounds used, the root's collected key -> payload mapping).
    Rounds are at most cap + tree depth.
    """
    config = config or SimConfig()
    children = _children_of(parent)
    programs: Dict[int, NodeProgram] = {
        v: TreeCollect(parent[v], items.get(v, ()), cap) for v in parent
    }
    trace = run(g, programs, config, label="upcast")
    root = next(v for v in parent if parent[v] is None)
    return trace.rounds_elapsed, dict(programs[root].store)


def _children_of(parent: Dict[int, Optional[int]]) -> Dict[int, List[int]]:
    children: Dict[int, List[int]] = {v: [] for v in parent}
    roots = 0
    for v, p in parent.items():
        if p is None:
            roots += 1
        else:
            children[p].append(v)
    if roots != 1:
        raise ValueError(f"parent map must have exactly one root, found {roots}")
    for v in children:
        children[v].sort()
    return children
