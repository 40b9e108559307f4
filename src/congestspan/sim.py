"""Round-synchronous message-passing simulator with congestion accounting.

The model: each vertex hosts a program; in every round a program may place at
most one small message on each incident edge. A ``Message`` of ``run``
carries a tag (0 unless a program sets one), at most ``ids_per_message``
vertex IDs (default 2), and one bounded integer scalar. The kernels below
take the build's messages as plain ID tuples and check their ID count; only
the orient flood's also carry a scalar, the sender's depth, below the bound.
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

The episodes of a build run on kernels instead, which deliver them without a
program or an API object per vertex, apply the checks of ``run`` and return
the trace ``run`` gives for the programs they stand for, with the programs'
results: ``broadcast_ids`` for a one-shot broadcast round in which every
message is one ID, returning per listener the least sender it accepts of
each ID; ``broadcast_heard`` for one in which listeners keep only whether
they heard a sender they accept. Both take ``{sender: ID}`` and one rule: a
listener in ``accept_all`` accepts every sender, any other listener only the
senders in ``accept_all``.
``orient_flood``, ``tree_downcast``, ``best_upcast`` and ``tree_collect``
(the one convergecast, of the keys vertices hold, each sent with its
holder; a flag is one shared key) for the casts inside cluster trees,
walked level by level (the collect round by round); and ``send_round`` for
one round of per-edge sends. Each kernel fixes its own mode, that of the
programs it stands for (broadcast for the first two, congest for the
others), and writes it into its trace; only ``run`` reads ``config.mode``.
No build calls ``run``: it is the tests' reference engine, which runs those
programs and holds the kernels to them. A cluster tree with no edge sends
nothing in any tree cast, so the tree kernels do no work for it: its root
only keeps the episode on the record and, in a downcast, wakes once per
payload.

An episode's record, its SimTrace, stores no total: its rounds and messages
are read off its per-round message counts.

Determinism: vertices are stepped in ascending ID order, inboxes are keyed by
sender in ascending order, and per-edge FIFO order is preserved by the
pipelined tree casts. Two runs with identical inputs produce identical traces
and final states.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from itertools import accumulate, islice
from typing import (AbstractSet, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Set, Tuple)

from .graph import Edge, Graph, edge_key

CONGEST = "congest"
BROADCAST = "broadcast"


class ModelViolation(RuntimeError):
    """A program broke the messaging model (size, multiplicity, or mode)."""


class RoundBudgetExceeded(RuntimeError):
    """The episode did not finish within config.max_rounds."""


@dataclass(frozen=True)
class Message:
    tag: int = 0
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
    """One episode's record. per_round_message_counts[r] is the number of
    messages sent at round r (delivered at round r+1); the counts are empty
    or end in a nonzero count, and every total is read off them."""
    label: str = ""
    mode: str = CONGEST
    max_ids_per_message: int = 0
    per_round_message_counts: List[int] = field(default_factory=list)

    @property
    def rounds_elapsed(self) -> int:
        """The round of the last delivery."""
        return len(self.per_round_message_counts)

    @property
    def messages_total(self) -> int:
        return sum(self.per_round_message_counts)


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
                    raise _non_neighbor(v, to)
                if to in dests:
                    raise _two_on_edge(v, to)
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

    counts = trace.per_round_message_counts
    # round 0: every program starts, possibly sending into round 1
    pending: Dict[int, List[Tuple[int, Message]]] = {}
    start_sent = 0
    for v in sorted(programs):
        api = apis[v]
        programs[v].on_start(api)
        start_sent += collect(v, api, pending)
    if start_sent:
        counts.append(start_sent)

    rnd = 0
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
            raise _over_budget(config, label)
        rnd = next_round

        inboxes = pending
        pending = {}
        woken = wakeups.pop(rnd, [])
        active = sorted(set(k for k in inboxes if k in live)
                        | set(w for w in woken if w in live))

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
            counts += [0] * (rnd - len(counts)) + [sent_this_round]

    return trace


def broadcast_ids(g: Graph, ids: Mapping[int, int], listeners: AbstractSet[int],
                  accept_all: AbstractSet[int], config: SimConfig, label: str = ""
                  ) -> Tuple[SimTrace, Dict[int, Dict[int, int]]]:
    """One round in broadcast mode, in which every sender v broadcasts one
    message carrying the single ID ids[v] on all its edges, and a listener
    accepts any sender if it is in accept_all, only senders in accept_all
    elsewhere. Returns the trace run() returns for one program per vertex
    that broadcasts at round 0 and keeps its round-1 inbox, and each
    listener that accepts anything, in ascending order, -> {ID: the least
    sender of it that the listener accepts}. The listener keys are the
    listeners' own ID objects; a listener's map is one pass down its sorted
    adjacency tuple, so the least sender is written last."""
    adjacency = g.adjacency
    try:
        sent = sum(len(adjacency[v]) for v in ids)
    except KeyError:
        unknown = min(ids.keys() - adjacency.keys())
        raise ValueError(f"broadcast from unknown vertex {unknown}") from None
    loud = {v: i for v, i in ids.items() if v in accept_all}
    heard: Dict[int, Dict[int, int]] = {}
    for u in sorted(listeners):
        src = ids if u in accept_all else loud
        if got := {src[v]: v for v in reversed(adjacency.get(u, ())) if v in src}:
            heard[u] = got
    return _account(SimTrace(label, BROADCAST, 1 if ids else 0), [sent]), heard


def broadcast_heard(g: Graph, ids: Mapping[int, int],
                    listeners: AbstractSet[int], accept_all: AbstractSet[int],
                    config: SimConfig, label: str = ""
                    ) -> Tuple[SimTrace, Set[int]]:
    """One round in broadcast mode, in which every sender v broadcasts one
    message carrying the single ID ids[v] on all its edges, and each
    listener that does not send keeps only whether it heard a sender it
    accepts: any if it is in accept_all, only senders in accept_all
    elsewhere. Returns the trace run() returns for one program per vertex
    that broadcasts at round 0, the others listening, and the set of those
    listeners. Two set unions deliver the senders, so the work grows with
    their degrees and the listeners reached, not n."""
    adjacency = g.adjacency
    if not adjacency.keys() >= ids.keys():
        unknown = min(ids.keys() - adjacency.keys())
        raise ValueError(f"broadcast from unknown vertex {unknown}")
    # the neighbours of the senders in accept_all, and of the others
    loud = [adjacency[v] for v in ids if v in accept_all]
    quiet = [adjacency[v] for v in ids if v not in accept_all]
    heard = set().union(*loud) | (set().union(*quiet) & accept_all)
    heard = (heard & listeners) - ids.keys()
    sent = sum(map(len, loud)) + sum(map(len, quiet))
    return _account(SimTrace(label, BROADCAST, 1 if ids else 0), [sent]), heard


def _check_message(v: int, msg: Message, cap: int, max_scalar: int,
                   trace: SimTrace) -> None:
    if len(msg.ids) > cap or abs(msg.scalar) > max_scalar:
        raise _message_fault(v, len(msg.ids), cap, msg.scalar)
    if len(msg.ids) > trace.max_ids_per_message:
        trace.max_ids_per_message = len(msg.ids)


def _message_fault(v: int, ids: int, cap: int, scalar: int = 0) -> ModelViolation:
    """What run() raises when v sends a message of ids IDs and the given
    scalar, which carries more than cap IDs or a scalar out of range."""
    if ids > cap:
        return ModelViolation(f"vertex {v}: message carries {ids} ids, capacity {cap}")
    return ModelViolation(f"vertex {v}: scalar {scalar} out of range")


def _non_neighbor(v: int, to: int) -> ModelViolation:
    return ModelViolation(f"vertex {v}: send to non-neighbor {to}")


def _two_on_edge(v: int, to: int) -> ModelViolation:
    return ModelViolation(
        f"vertex {v}: two messages on edge ({v},{to}) in one round")


def _over_budget(config: SimConfig, label: str) -> RoundBudgetExceeded:
    return RoundBudgetExceeded(
        f"episode {label!r} exceeded {config.max_rounds} rounds")


# ---------------------------------------------------------------------------
# Tree-cast kernels. Each returns (trace, result), the trace being the one
# run() returns for the program per vertex the kernel stands for (kept in
# tests/oracles.py), and raises what run() raises first: run() meets
# violations round by round, in vertex order within a round, and stops on
# entering a round past max_rounds.

def _account(trace: SimTrace, counts: List[int]) -> SimTrace:
    """trace, with the messages sent per round, up to the last round that
    sends."""
    while counts and not counts[-1]:
        counts.pop()
    trace.per_round_message_counts = counts
    return trace


def _per_edge(v: int, edges: AbstractSet[Edge], targets: Iterable[int]) -> int:
    """The number of v's messages to targets, after run()'s checks on them;
    edges is the graph's edge set."""
    dests: Set[int] = set()
    for u in targets:
        if ((v, u) if v < u else (u, v)) not in edges:
            raise _non_neighbor(v, u)
        if u in dests:
            raise _two_on_edge(v, u)
        dests.add(u)
    return len(dests)


def tree_downcast(g: Graph, children: Mapping[int, Sequence[int]],
                  payloads: Mapping[int, Sequence[Tuple[int, ...]]],
                  config: SimConfig, label: str = "") -> Tuple[SimTrace, None]:
    """Pipelined downcast in congest mode: each root of payloads streams its
    queue of ID tuples down its tree (children maps a vertex to its
    children); a vertex at depth d sends payload j to all its children at
    round d + j. Walks trees by levels; a root with no child costs no work
    beyond its wake-up at round k - 1 for a queue of k, and its payloads go
    unchecked, as they are never sent."""
    cap, edges = config.ids_per_message, g.edge_set()
    trace = SimTrace(label=label)
    steps: List[int] = []   # steps[r]: the change in messages per round at r
    faults: List[Tuple[int, int, ModelViolation]] = []   # (round, vertex, error)
    last = 0
    for root, queue in payloads.items():
        k = len(queue)
        if not k:
            continue
        kids = children[root]
        if not kids:   # sends nothing, but wakes for every payload
            last = max(last, k - 1)
            continue
        bad = next((j for j, ids in enumerate(queue) if len(ids) > cap), None)
        # the root sends payload j at round j, checking its first child's
        # edge before the message; this fault goes first on a tie
        if bad is not None and (bad or edge_key(root, kids[0]) in edges):
            fault = _message_fault(root, len(queue[bad]), cap)
            faults.append((bad, root, fault))
        level, depth = [root], 0
        while True:
            below: List[int] = []
            for v in level:
                kids = children[v]
                if kids:
                    below += kids
                    for u in kids:
                        if edge_key(v, u) not in edges:
                            faults.append((depth, v, _non_neighbor(v, u)))
                            break
            if not below:
                break
            steps += [0] * (depth + k + 1 - len(steps))
            steps[depth] += len(below)
            steps[depth + k] -= len(below)
            level, depth = below, depth + 1
        trace.max_ids_per_message = max(trace.max_ids_per_message, *map(len, queue))
    first = min(faults, key=lambda f: f[:2], default=None)
    if first and first[0] <= config.max_rounds:
        raise first[2]
    _account(trace, list(accumulate(steps)))
    if max(last, trace.rounds_elapsed) > config.max_rounds:
        raise _over_budget(config, label)
    return trace, None


def best_upcast(g: Graph, roots: Iterable[int],
                parent: Mapping[int, Optional[int]], height: Mapping[int, int],
                values: Mapping[int, Tuple[int, ...]], config: SimConfig,
                label: str = ""
                ) -> Tuple[SimTrace, Dict[int, Optional[Tuple[int, ...]]]]:
    """Height-scheduled upcast in congest mode of the least value, a tuple of
    IDs, to each root: every other vertex of their trees wakes at the round
    of its height and, if it has a value, sends its parent the least of its
    own and its children's. values holds vertices of those trees only. A
    root never sends, so a tree with no edge costs no work: its value is
    its result."""
    cap, edges = config.ids_per_message, g.edge_set()
    trace = SimTrace(label=label)
    best = dict(values)
    carriers: Set[int] = set()
    at_height: Dict[int, List[int]] = defaultdict(list)
    for v in values:
        while v not in carriers and parent[v] is not None:
            carriers.add(v)
            at_height[height[v]].append(v)
            v = parent[v]
    counts: List[int] = []
    for h in sorted(at_height):
        for v in sorted(at_height[h]):
            p = parent[v]
            if h > config.max_rounds:
                raise _over_budget(config, label)
            ids = tuple(best[v])
            if edge_key(v, p) not in edges:
                raise _non_neighbor(v, p)
            if len(ids) > cap:
                raise _message_fault(v, len(ids), cap)
            trace.max_ids_per_message = max(trace.max_ids_per_message, len(ids))
            held = best.get(p)
            best[p] = ids if held is None else min(held, ids)
            counts += [0] * (h + 1 - len(counts))
            counts[h] += 1
    roots = list(roots)
    # the last wake-up is that of a child of the highest root
    woken = max((height[r] for r in roots), default=0) - 1
    if max(len(counts), woken) > config.max_rounds:
        raise _over_budget(config, label)
    return _account(trace, counts), {r: best.get(r) for r in roots}


def tree_collect(g: Graph, parent: Mapping[int, Optional[int]],
                 items: Mapping[int, Iterable[int]], cap: int,
                 ids: int, config: SimConfig, label: str = ""
                 ) -> Tuple[SimTrace, Dict[int, Dict[int, int]]]:
    """Capped, deduplicating keyed collect in congest mode up the trees of
    parent: items maps a vertex of parent to the keys it holds, and each key
    travels with its holder as payload. A vertex admits its own keys in
    ascending order, then the (key, payload) items its children send it, in
    child order; it keeps those with a new key while it holds fewer than cap
    and forwards them to its parent FIFO, one per round, in messages of ids
    IDs. Returns each root that admitted an item -> its store, key ->
    payload, in admission order. Cap 1 and one key make it the OR up-cast."""
    edges, limit = g.edge_set(), config.ids_per_message
    # a store and a forward queue are made at a vertex's first admission (a
    # root has no queue); a queue never holds more than cap items, so a list
    # serves, and it is dropped once empty
    stores: Dict[int, Dict[int, int]] = {}
    queues: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
    for v, own in items.items():   # round 0: each vertex's own keys
        store = dict.fromkeys(sorted(own), v)
        if len(store) > cap:
            store = dict.fromkeys(islice(store, cap), v)
        if store:
            stores[v] = store
            if parent[v] is not None:
                queues[v] = list(store.items())
    checked: Set[int] = set()   # the senders whose parent edge was checked
    counts: List[int] = []
    while queues:
        senders = sorted(queues)   # a queue made in this round sends from the next
        for v in senders:
            queue, p = queues[v], parent[v]
            item = queue.pop(0)
            if not queue:
                del queues[v]
            if v not in checked:
                checked.add(v)
                if edge_key(v, p) not in edges:
                    raise _non_neighbor(v, p)
                if ids > limit:
                    raise _message_fault(v, ids, limit)
            # p admits the item as it is sent, so it hears its children in
            # order; a first admission always succeeds, as cap > 0 here
            store = stores.get(p)
            if store is None:
                stores[p] = {item[0]: item[1]}
            elif item[0] not in store and len(store) < cap:
                store[item[0]] = item[1]
            else:
                continue
            if parent[p] is not None:
                queues[p].append(item)
        counts.append(len(senders))
        if len(counts) > config.max_rounds:
            raise _over_budget(config, label)
    trace = SimTrace(label=label, max_ids_per_message=ids if counts else 0)
    roots = {v: store for v, store in stores.items() if parent[v] is None}
    return _account(trace, counts), roots


def orient_flood(g: Graph, roots: Iterable[int],
                 tree_nbrs: Mapping[int, Sequence[int]], config: SimConfig,
                 label: str = "") -> Tuple[SimTrace, Dict[int, Tuple[int, Optional[int]]]]:
    """Orientation flood in congest mode: each root sends its ID to its tree
    neighbours at round 0; a vertex of tree_nbrs that hears it takes the
    center and, as parent, the least vertex it first hears from, and relays
    to its other tree neighbours. Returns vertex -> (center, parent) for
    every vertex the flood reached, roots included."""
    edges = g.edge_set()
    found: Dict[int, Tuple[int, Optional[int]]] = {r: (r, None) for r in roots}
    senders, counts = sorted(found), []
    while senders:
        heard: Dict[int, int] = {}
        sent = 0
        for v in senders:
            targets = [u for u in tree_nbrs[v] if u != found[v][1]]
            if targets:
                sent += _per_edge(v, edges, targets)
                for u in targets:
                    heard.setdefault(u, v)
        if not sent:
            break
        counts.append(sent)
        if len(counts) > config.max_rounds:
            raise _over_budget(config, label)
        senders = sorted(u for u in heard if u in tree_nbrs and u not in found)
        for u in senders:
            found[u] = (found[heard[u]][0], heard[u])
    # one ID and the sender's depth, which is below the scalar bound
    trace = SimTrace(label=label, max_ids_per_message=1 if counts else 0)
    return _account(trace, counts), found


def send_round(g: Graph, targets: Mapping[int, Sequence[int]],
               config: SimConfig, label: str = "") -> Tuple[SimTrace, None]:
    """One congest-mode round: every vertex of targets sends one empty
    message to each neighbour it lists."""
    edges = g.edge_set()
    sent = sum(_per_edge(v, edges, targets[v]) for v in sorted(targets))
    return _account(SimTrace(label=label), [sent]), None
