"""Test-only reference implementations of the package's fast paths.

These are the straightforward versions that the package's fast paths
replaced: one full BFS of H from every vertex for the edge stretch, one full
BFS from every member for a ruling set, a membership test per edge for the
symmetry of a graph's adjacency lists, one random() call per vertex pair for
G(n, p) with every component found again after each stitching edge, every
cluster pair's edges gathered from the whole edge set for the virtual
cluster graph (the build's adjacency and the verifier's scan with its
witnesses) and for each active vertex's neighbouring clusters (what the
cluster-ID exchange gives it, the input of the build's adjacency), and one
program per vertex stepped through the event loop for a one-shot broadcast
round (also with each inbox folded to whether it holds an accepted message,
to the largest accepted scalar, or to the least accepted sender of each ID,
as in the exchange and the exploration hop) and for each tree-cast episode.
They are slow but obviously right, so the tests hold the fast versions to
them result for result. Each episode oracle takes the arguments of the sim
kernel it checks and returns sim.run's trace with the programs' results. The
knock-out timetable is kept in full, with the flood it first had: every
block that holds an alive candidate floods, its messages carry the hops
left, and every wave converges the most hops heard in every cluster that
heard it; its blocks are nested intervals, split from the top and found by
containment, not by the build's arithmetic on offsets. Every search here is
bfs_distances, a plain queue-driven BFS, not the package's bfs_layers.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import replace
from functools import partial
from typing import (AbstractSet, Dict, Iterable, List, Mapping,
                    Optional, Sequence, Set, Tuple)

from congestspan import comm, sim
from congestspan.graph import (Edge, Graph, GraphError, edge_key, from_edges,
                               subgraph_adjacency)
from congestspan.rulingset import KNOCKOUT_DEPTH, RulingParams
from congestspan.sim import Message, NodeApi, NodeProgram, SimConfig, SimTrace
from congestspan.verify import RulingVerdict


def bfs_distances(adj: Mapping[int, Iterable[int]], source: int) -> Dict[int, int]:
    """Hop distances from source to every vertex it reaches in adj, by a
    queue-driven breadth-first search; a source outside adj is a KeyError."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for u in adj[v]:
            if u not in dist:
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


def max_edge_stretch(g: Graph, spanner_edges: Set[Edge]) -> Tuple[float, Optional[Edge]]:
    """Largest d_H(u,v) over the edges (u,v) of g, with the first edge in
    vertex-then-adjacency order that attains it; (inf, edge) on the first
    edge whose endpoints H disconnects."""
    adj_h = subgraph_adjacency(g.vertices, spanner_edges)
    worst: float = 0.0
    worst_edge: Optional[Edge] = None
    for u in g.vertices:
        dist = bfs_distances(adj_h, u)
        for v in g.adjacency[u]:
            if v < u:
                continue
            d = dist.get(v, math.inf)
            if d > worst:
                worst = d
                worst_edge = (u, v)
                if d == math.inf:
                    return worst, worst_edge
    return worst, worst_edge


def validate_graph(adjacency: Mapping[int, Sequence[int]]) -> None:
    """Raise the GraphError that Graph(adjacency) raises, if any: the checks
    of Graph._validate with the symmetry of every edge tested by membership
    in both sorted adjacency tuples."""
    adjacency = {v: tuple(sorted(adjacency[v])) for v in sorted(adjacency)}
    if not adjacency:
        raise GraphError("graph has no vertices")
    seen: Set[Edge] = set()
    for v, nbrs in adjacency.items():
        if v <= 0:
            raise GraphError(f"vertex id {v} is not a positive integer")
        for u in nbrs:
            if u == v:
                raise GraphError(f"self-loop at vertex {v}")
            if u not in adjacency:
                raise GraphError(f"edge ({v},{u}) points outside the vertex set")
            seen.add(edge_key(u, v))
        if len(set(nbrs)) != len(nbrs):
            raise GraphError(f"parallel edge at vertex {v}")
    for u, v in seen:
        if u not in adjacency[v] or v not in adjacency[u]:
            raise GraphError(f"asymmetric adjacency on edge ({u},{v})")
    start = next(iter(adjacency))
    if len(bfs_distances(adjacency, start)) != len(adjacency):
        raise GraphError("graph is disconnected")


def gnp_connected(n: int, p: float, seed: int = 0) -> Graph:
    """graph.generate_graph("gnp_connected", ...) as it was first written:
    one random() call per vertex pair, and a union-find over every edge
    after each stitching edge."""
    if not isinstance(n, int) or n < 1:
        raise GraphError(f"need integer n >= 1, got {n!r}")
    if not (0.0 < p <= 1.0):
        raise GraphError(f"gnp_connected needs p in (0, 1], got {p}")
    rnd = random.Random(seed)
    draw = rnd.random
    edges: Set[Edge] = set()
    for u in range(1, n + 1):
        edges.update([(u, v) for v in range(u + 1, n + 1) if draw() < p])
    added = 0
    comps = _components(n, edges)
    while len(comps) > 1:
        # join two random components with a random edge, tree-style
        a = comps[rnd.randrange(len(comps))]
        b = comps[rnd.randrange(len(comps))]
        while b is a:
            b = comps[rnd.randrange(len(comps))]
        u = a[rnd.randrange(len(a))]
        v = b[rnd.randrange(len(b))]
        edges.add(edge_key(u, v))
        added += 1
        comps = _components(n, edges)
    meta = {"kind": "gnp_connected", "n": n, "p": p, "seed": seed,
            "augmented_edges": added, "num_edges": len(edges)}
    return from_edges(edges, meta, n)


def _components(n: int, edges: Set[Edge]) -> List[List[int]]:
    parent = list(range(n + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    groups: Dict[int, List[int]] = {}
    for v in range(1, n + 1):
        groups.setdefault(find(v), []).append(v)
    return list(groups.values())


def check_ruling(adjacency: Dict[int, Sequence[int]], members: Iterable[int],
                 target: Iterable[int], alpha: int, beta: int) -> RulingVerdict:
    """Brute-force alpha-separation and beta-domination from a full BFS of
    every member."""
    members = sorted(set(members))
    target = sorted(set(target))
    extra = [m for m in members if m not in set(target)]
    if extra:
        return RulingVerdict(False, "membership",
                             f"member {extra[0]} is outside the target set")
    dist_from_member: Dict[int, Dict[int, float]] = {}
    for m in members:
        dist_from_member[m] = bfs_distances(adjacency, m)
    for i, m in enumerate(members):
        for m2 in members[i + 1:]:
            d = dist_from_member[m].get(m2, math.inf)
            if d < alpha:
                return RulingVerdict(False, "separation",
                                     f"members {m} and {m2} at distance {d} < {alpha}")
    for t in target:
        d = min((dist_from_member[m].get(t, math.inf) for m in members),
                default=math.inf)
        if d > beta:
            return RulingVerdict(False, "domination",
                                 f"target {t} at distance {d} > {beta} from every member")
    return RulingVerdict(True)


def build_cluster_graph(center_of: Mapping[int, int], popular: Iterable[int],
                        g: Graph) -> Tuple[Dict[int, Tuple[int, ...]],
                                           Dict[Tuple[int, int], Edge]]:
    """The virtual cluster graph as the adjacency of each center and the
    witness of each superedge: every pair of distinct centers with a popular
    side and an edge of G between their clusters, with its least such edge
    of g.edge_set() as witness. The witnesses are listed by edge, the
    centers ascending."""
    popular = set(popular)
    edges: Dict[Tuple[int, int], List[Edge]] = {}
    for u, v in g.edge_set():
        cu, cv = center_of.get(u), center_of.get(v)
        if cu is not None and cv is not None and cu != cv \
                and (cu in popular or cv in popular):
            edges.setdefault((min(cu, cv), max(cu, cv)), []).append((u, v))
    witness = dict(sorted(((pair, min(es)) for pair, es in edges.items()),
                          key=lambda item: item[1]))
    adjacency = {c: tuple(sorted({b for a, b in witness if a == c}
                                 | {a for a, b in witness if b == c}))
                 for c in sorted(set(center_of.values()))}
    return adjacency, witness


def exchange_maps(center_of: Mapping[int, int], g: Graph) -> Dict[int, Dict[int, int]]:
    """What the cluster-ID exchange gives every active vertex (a key of
    center_of), from a scan of g's edges: the center of each other cluster
    it borders -> its least active neighbour in that cluster."""
    maps: Dict[int, Dict[int, int]] = {v: {} for v in center_of}
    for u, v in g.edge_set():
        cu, cv = center_of.get(u), center_of.get(v)
        if cu is None or cv is None or cu == cv:
            continue
        for x, y, cy in ((u, v, cv), (v, u, cu)):
            if y < maps[x].get(cy, y + 1):
                maps[x][cy] = y
    return maps


class BroadcastOnce(NodeProgram):
    """Broadcast a message at the start and, if it listens, keep the inbox of
    the next round. msg None listens only."""

    __slots__ = ("msg", "listens", "inbox")

    def __init__(self, msg: Optional[Message], listens: bool):
        self.msg = msg
        self.listens = listens
        self.inbox: Optional[Dict[int, Message]] = None

    def on_start(self, api: NodeApi) -> None:
        if self.msg is not None:
            api.broadcast(self.msg.tag, self.msg.ids, self.msg.scalar)
        if not self.listens:
            api.halt()

    def on_round(self, api: NodeApi, inbox: Dict[int, Message]) -> None:
        self.inbox = inbox
        api.halt()


def broadcast_round(g: Graph, sends: Dict[int, Message],
                    listeners: AbstractSet[int], config: SimConfig,
                    label: str = "") -> Tuple[SimTrace, Dict[int, Dict[int, Message]]]:
    """One broadcast round as sim.run steps it: a program per sender, and one
    per listener adjacent to a sender. The result maps each listener whose
    program kept an inbox, by the listener's own ID object, to that inbox."""
    programs: Dict[int, BroadcastOnce] = {
        v: BroadcastOnce(msg, v in listeners) for v, msg in sends.items()}
    quiet = listeners - sends.keys()
    if quiet:
        adj = g.adjacency
        deaf = quiet - set().union(*(adj[u] for u in sends if u in adj))
        for v in quiet - deaf:
            programs[v] = BroadcastOnce(None, True)
    trace = sim.run(g, programs, config, label=label)
    return trace, {v: programs[v].inbox for v in sorted(listeners)
                   if v in programs and programs[v].inbox is not None}


def broadcast_max(g: Graph, sends: Dict[int, Message],
                  listeners: AbstractSet[int], accept_all: AbstractSet[int],
                  config: SimConfig, label: str = ""
                  ) -> Tuple[SimTrace, Dict[int, int]]:
    """The broadcast round above with the senders deaf, each listener's
    inbox folded to the largest scalar it accepts: any if it is in
    accept_all, odd ones otherwise."""
    trace, inboxes = broadcast_round(g, sends, set(listeners) - sends.keys(),
                                     config, label)
    best: Dict[int, int] = {}
    for v, inbox in inboxes.items():
        accepted = [msg.scalar for msg in inbox.values()
                    if v in accept_all or msg.scalar & 1]
        if accepted:
            best[v] = max(accepted)
    return trace, best


TAG_KNOCKOUT = 21


def broadcast_heard(g: Graph, ids: Mapping[int, int],
                    listeners: AbstractSet[int], accept_all: AbstractSet[int],
                    config: SimConfig, label: str = ""
                    ) -> Tuple[SimTrace, Set[int]]:
    """The broadcast round above with the senders deaf, each sender v's ID
    ids[v] in a message of its own with its popular bit (whether v is in
    accept_all) as the scalar, and each listener's inbox folded to whether
    it holds a message the listener accepts: any if it is in accept_all,
    one with the bit set otherwise."""
    sends = {v: Message(TAG_KNOCKOUT, (c,), int(v in accept_all))
             for v, c in ids.items()}
    trace, inboxes = broadcast_round(g, sends, set(listeners) - sends.keys(),
                                     config, label)
    return trace, {v for v, inbox in inboxes.items()
                   if any(v in accept_all or msg.scalar & 1
                          for msg in inbox.values())}


def _least_senders(inbox: Dict[int, Message], accepts) -> Dict[int, int]:
    """inbox folded to {ID: the least sender of it whose message accepts
    admits}."""
    got: Dict[int, int] = {}
    for v in sorted(inbox):
        if accepts(v, inbox[v]):
            got.setdefault(inbox[v].ids[0], v)
    return got


def broadcast_ids(g: Graph, ids: Mapping[int, int],
                  listeners: AbstractSet[int], accept_all: AbstractSet[int],
                  config: SimConfig, label: str = ""
                  ) -> Tuple[SimTrace, Dict[int, Dict[int, int]]]:
    """The broadcast round above with each sender v's ID ids[v] in a message
    of its own, each inbox folded to {ID: least sender} over the senders the
    listener accepts: any if it is in accept_all, those in accept_all
    otherwise. Listeners that accept nothing are left out."""
    sends = {v: Message(TAG_CLUSTER_ID, (c,)) for v, c in ids.items()}
    trace, inboxes = broadcast_round(g, sends, listeners, config, label)
    folded = {u: _least_senders(inbox, lambda v, msg: u in accept_all
                                or v in accept_all)
              for u, inbox in inboxes.items()}
    return trace, {u: got for u, got in folded.items() if got}


TAG_EXPLORE = 20


def explore_hop(g: Graph, orient: "comm.Orientation",
                frontier: Iterable[Tuple[int, int]], accept_all: AbstractSet[int],
                listeners: AbstractSet[int], config: SimConfig, label: str = ""
                ) -> Tuple[Optional[SimTrace], Dict[int, Dict[int, int]]]:
    """comm.explore_hop on programs: the broadcast round above, in which
    every member of each frontier cluster (center, root) sends the root with
    its cluster's popular bit (whether the member is in accept_all) as the
    scalar, and each listener outside the frontier keeps, per root, the
    least sender whose arrival it accepts: any when its own cluster is
    popular, one with the bit set otherwise. With no sender, no episode runs
    and the trace is None."""
    sends = {v: Message(TAG_EXPLORE, (root,), int(v in accept_all))
             for c, root in frontier for v in orient.members[c]}
    if not sends:
        return None, {}
    trace, inboxes = broadcast_round(g, sends, listeners - sends.keys(), config, label)
    kept: Dict[int, Dict[int, int]] = {}
    for v, inbox in inboxes.items():
        own_pop = v in accept_all
        got = _least_senders(inbox, lambda u, msg: own_pop or msg.scalar & 1)
        if got:
            kept[v] = got
    return trace, kept


# ---------------------------------------------------------------------------
# Tree casts: one program per tree vertex.

TAG_COLLECT = 2
TAG_ORIENT = 10
TAG_CLUSTER_ID = 11
TAG_FLAG = 12
TAG_MAXSCALAR = 14
TAG_EDGEADD = 25


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

    Items are (key, payload) pairs, a vertex's own being its keys, each with
    the vertex as payload; a vertex saves an item only if the key is new to
    it and it has stored fewer than ``cap`` items, then forwards it to the
    parent, one per round. Own items are admitted before relayed ones, in
    ascending key order. The root's store is the collected knowledge.
    """

    __slots__ = ("parent", "cap", "store", "outq")

    def __init__(self, vertex: int, parent: Optional[int], own_keys: Iterable[int],
                 cap: int):
        self.parent = parent
        self.cap = cap
        self.store: Dict[int, int] = {}
        self.outq: List[Tuple[int, int]] = []
        for key in sorted(own_keys):
            self._admit(key, vertex)

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


class BestUpcast(NodeProgram):
    """Single-shot aggregation upcast, scheduled by height below.

    A vertex of height h sends its best value (smallest or largest tuple,
    folding in everything received from its subtree) at round h, so each
    vertex transmits at most once and the center holds the final answer
    after depth rounds.
    """

    __slots__ = ("parent", "height", "best", "prefer_max", "width")

    def __init__(self, parent: Optional[int], height: int,
                 value: Optional[Tuple[int, ...]], prefer_max: bool, width: int):
        self.parent = parent
        self.height = height
        self.best = value
        self.prefer_max = prefer_max
        self.width = width

    def _fold(self, value: Tuple[int, ...]) -> None:
        if self.best is None:
            self.best = value
        elif self.prefer_max:
            self.best = max(self.best, value)
        else:
            self.best = min(self.best, value)

    def on_start(self, api: NodeApi) -> None:
        if self.parent is None:
            return
        if self.height == 0:
            self._emit(api)
        else:
            api.wake_at(self.height)

    def on_round(self, api: NodeApi, inbox: Dict[int, Message]) -> None:
        for msg in inbox.values():
            if msg.tag == TAG_MAXSCALAR:
                self._fold((msg.scalar,) if self.width == 0 else tuple(msg.ids))
        if self.parent is not None and api.round == self.height:
            self._emit(api)

    def _emit(self, api: NodeApi) -> None:
        if self.best is not None:
            if self.width == 0:
                api.send(self.parent, TAG_MAXSCALAR, (), self.best[0])
            else:
                api.send(self.parent, TAG_MAXSCALAR, self.best)
        api.halt()


class FlagUpcast(NodeProgram):
    """OR-converge a boolean to the center: forward at most once."""

    __slots__ = ("parent", "flag", "sent")

    def __init__(self, parent: Optional[int], flag: bool):
        self.parent = parent
        self.flag = flag
        self.sent = False

    def on_start(self, api: NodeApi) -> None:
        self._maybe_send(api)

    def on_round(self, api: NodeApi, inbox: Dict[int, Message]) -> None:
        if any(m.tag == TAG_FLAG for m in inbox.values()):
            self.flag = True
        self._maybe_send(api)

    def _maybe_send(self, api: NodeApi) -> None:
        if self.flag and not self.sent and self.parent is not None:
            api.send(self.parent, TAG_FLAG)
            self.sent = True
            api.halt()


class OrientFlood(NodeProgram):
    """Flood the center ID through the (undirected) cluster tree.

    Each vertex learns its parent (the vertex it first heard from), its
    cluster center, and its depth; children are the remaining tree neighbors.
    """

    __slots__ = ("tree_nbrs", "is_root", "center", "parent", "depth")

    def __init__(self, tree_nbrs: Sequence[int], is_root: bool):
        self.tree_nbrs = tuple(tree_nbrs)
        self.is_root = is_root
        self.center: Optional[int] = None
        self.parent: Optional[int] = None
        self.depth = 0

    def on_start(self, api: NodeApi) -> None:
        if self.is_root:
            self.center = api.vertex
            for u in self.tree_nbrs:
                api.send(u, TAG_ORIENT, (api.vertex,), 0)
            api.halt()

    def on_round(self, api: NodeApi, inbox: Dict[int, Message]) -> None:
        if self.center is not None:
            return
        for sender, msg in inbox.items():
            if msg.tag == TAG_ORIENT:
                self.center = msg.ids[0]
                self.parent = sender
                self.depth = msg.scalar + 1
                for u in self.tree_nbrs:
                    if u != sender:
                        api.send(u, TAG_ORIENT, (self.center,), self.depth)
                api.halt()
                return


class EdgeAnnounce(NodeProgram):
    """One round: tell each chosen neighbor that the shared edge joined H."""

    __slots__ = ("targets",)

    def __init__(self, targets: Sequence[int]):
        self.targets = targets

    def on_start(self, api: NodeApi) -> None:
        for u in self.targets:
            api.send(u, TAG_EDGEADD)
        api.halt()


def tree_downcast(g: Graph, children: Mapping[int, Sequence[int]],
                  payloads: Mapping[int, Sequence[Tuple[int, ...]]],
                  config: SimConfig, label: str = ""
                  ) -> Tuple[SimTrace, Dict[int, List[Tuple[int, ...]]]]:
    """message_downcast with each ID tuple sent as Message(0, ids); the
    result is every vertex's received list of ID tuples."""
    trace, received = message_downcast(
        g, children, {r: [Message(0, ids) for ids in queue]
                      for r, queue in payloads.items()}, config, label)
    return trace, {v: [msg.ids for msg in got] for v, got in received.items()}


def message_downcast(g: Graph, children: Mapping[int, Sequence[int]],
                     payloads: Mapping[int, Sequence[Message]],
                     config: SimConfig, label: str = ""
                     ) -> Tuple[SimTrace, Dict[int, List[Message]]]:
    """One TreeDowncast per vertex of the roots' trees; the result is every
    such vertex's received list."""
    parent: Dict[int, Optional[int]] = {}
    for root in payloads:
        parent[root] = None
        stack = [root]
        while stack:
            v = stack.pop()
            for u in children.get(v, ()):
                parent[u] = v
                stack.append(u)
    programs = {v: TreeDowncast(p, children.get(v, ()),
                                payloads[v] if p is None else ())
                for v, p in parent.items()}
    trace = sim.run(g, programs, config, label=label)
    return trace, {v: prog.received for v, prog in programs.items()}


def _root_of(parent: Mapping[int, Optional[int]], v: int) -> int:
    while parent[v] is not None:
        v = parent[v]
    return v


def best_upcast(g: Graph, roots: Iterable[int],
                parent: Mapping[int, Optional[int]], height: Mapping[int, int],
                values: Mapping[int, Tuple[int, ...]], config: SimConfig,
                label: str = "", prefer_max: bool = False, width: int = 1
                ) -> Tuple[SimTrace, Dict[int, Optional[Tuple[int, ...]]]]:
    """One BestUpcast per vertex of the roots' trees; the result is each
    root's best value. prefer_max and width 0 (the first entry sent as the
    scalar) are the knock-out's old hop-count upcast, which knockout_schedule
    below still runs."""
    roots = list(roots)
    wanted = set(roots)
    programs = {v: BestUpcast(p, height[v], values.get(v), prefer_max, width)
                for v, p in parent.items() if _root_of(parent, v) in wanted}
    trace = sim.run(g, programs, config, label=label)
    return trace, {r: programs[r].best for r in roots}


def flag_upcast(g: Graph, parent: Mapping[int, Optional[int]],
                flagged: Iterable[int], config: SimConfig, label: str = ""
                ) -> Tuple[SimTrace, Set[int]]:
    """One FlagUpcast per vertex of parent; the result is the roots that end
    up flagged."""
    flagged = set(flagged)
    programs = {v: FlagUpcast(p, v in flagged) for v, p in parent.items()}
    trace = sim.run(g, programs, config, label=label)
    return trace, {v for v, prog in programs.items()
                   if parent[v] is None and prog.flag}


def tree_collect(g: Graph, parent: Mapping[int, Optional[int]],
                 items: Mapping[int, Iterable[int]], cap: int,
                 config: SimConfig, label: str = ""
                 ) -> Tuple[SimTrace, Dict[int, Dict[int, int]]]:
    """One TreeCollect per vertex of parent, holding the keys items lists for
    it; the result is every non-empty store, relays' included."""
    programs = {v: TreeCollect(v, p, items.get(v, ()), cap)
                for v, p in parent.items()}
    trace = sim.run(g, programs, config, label=label)
    return trace, {v: prog.store for v, prog in programs.items() if prog.store}


def orient_flood(g: Graph, roots: Iterable[int],
                 tree_nbrs: Mapping[int, Sequence[int]], config: SimConfig,
                 label: str = "") -> Tuple[SimTrace, Dict[int, Tuple[int, Optional[int]]]]:
    """One OrientFlood per vertex of tree_nbrs; the result is (center,
    parent) of every vertex that learned a center."""
    roots = set(roots)
    programs = {v: OrientFlood(nbrs, v in roots) for v, nbrs in tree_nbrs.items()}
    trace = sim.run(g, programs, config, label=label)
    return trace, {v: (prog.center, prog.parent) for v, prog in programs.items()
                   if prog.center is not None}


def send_round(g: Graph, targets: Mapping[int, Sequence[int]],
               config: SimConfig, label: str = "") -> Tuple[SimTrace, None]:
    """One EdgeAnnounce per vertex of targets."""
    programs = {v: EdgeAnnounce(ts) for v, ts in targets.items()}
    return sim.run(g, programs, config, label=label), None


def ends_on_a_send(trace: SimTrace) -> bool:
    """Whether trace's per-round counts are empty or end in a nonzero count,
    which makes the length of the counts the round of its last delivery."""
    counts = trace.per_round_message_counts
    return not counts or counts[-1] != 0


def orient_clusters(g: Graph, center_of: Mapping[int, int],
                    tree_adj: Mapping[int, Sequence[int]], config: SimConfig,
                    label: str = "") -> Tuple[SimTrace, "comm.Orientation"]:
    """comm.orient_clusters as it ran on programs: one OrientFlood per vertex
    of center_of, then every vertex checked for its center, cluster by
    cluster in center order."""
    programs = {v: OrientFlood(tree_adj.get(v, ()), v == c)
                for v, c in center_of.items()}
    trace = sim.run(g, programs, config, label=label)
    parent_maps: Dict[int, Dict[int, Optional[int]]] = {}
    for center in sorted(set(center_of.values())):
        pmap = parent_maps[center] = {}
        for v in sorted(u for u, c in center_of.items() if c == center):
            prog = programs[v]
            if prog.center is None:
                raise RuntimeError(f"orientation never reached vertex {v} "
                                   f"(cluster tree of {center} is not connected)")
            if prog.center != center:
                raise RuntimeError(f"vertex {v} oriented to foreign center {prog.center}")
            pmap[v] = prog.parent
    return trace, orientation_from_parents(parent_maps)


def orientation_from_parents(parent_maps: Dict[int, Dict[int, Optional[int]]]
                             ) -> comm.Orientation:
    """The Orientation of clusters whose parent maps are already known, one
    per center (center -> {member: parent}, None for the center), without
    an episode: what comm.orient_clusters returns once its flood has found
    those parents. Heights come from a breadth-first visiting order from the
    centers, walked in reverse."""
    center_of: Dict[int, int] = {}
    parent: Dict[int, Optional[int]] = {}
    children: Dict[int, List[int]] = {}
    for center, pmap in parent_maps.items():
        for v in sorted(pmap):
            center_of[v] = center
            parent[v] = pmap[v]
            children.setdefault(v, [])
            if pmap[v] is not None:
                children.setdefault(pmap[v], []).append(v)
    kids = {v: tuple(sorted(cs)) for v, cs in children.items()}
    order = list(parent_maps)
    for v in order:   # breadth first: the list grows while it is walked
        order.extend(kids[v])
    height = dict.fromkeys(parent, 0)
    for v in reversed(order):
        p = parent[v]
        if p is not None and height[p] <= height[v]:
            height[p] = height[v] + 1
    members = {c: tuple(sorted(pmap)) for c, pmap in parent_maps.items()}
    return comm.Orientation(center_of, parent, kids, height, members)


def knockout_recursion(id_range: Tuple[int, int], q: int) -> Tuple[int, Tuple[int, int]]:
    """(t, the top interval) of the knock-out recursion on id_range, whose
    width is W: t is the least integer t >= 2 with t**q >= W, found by
    bisection, and the top interval starts at the range's low end and has
    width t**L, the least power of t that is at least W."""
    lo, hi = id_range
    width = hi - lo + 1
    low, high = 2, max(2, width)
    while low < high:
        mid = (low + high) // 2
        if mid ** q >= width:
            high = mid
        else:
            low = mid + 1
    top = 1
    while top < width:
        top *= low
    return low, (lo, lo + top - 1)


def block_path(c: int, top: Tuple[int, int], t: int) -> List[int]:
    """The child block of ID c at each level of the recursion, from the top:
    the interval top, of width t**L, splits into t child intervals of equal
    width, each of those into t more, down to single IDs, and at each level
    c lies in exactly one child of the interval that holds it."""
    path = []
    a, b = top
    while a < b:
        step = (b - a + 1) // t
        children = [(a + j * step, a + (j + 1) * step - 1) for j in range(t)]
        j = next(j for j, (x, y) in enumerate(children) if x <= c <= y)
        path.append(j)
        a, b = children[j]
    return path


def last_blocks(id_range: Tuple[int, int], q: int) -> List[int]:
    """Per level from the top, the last child block that an ID of id_range
    lies in: at the top level, the block of the range's high end, since the
    top interval may reach past it; below, t - 1, since the first interval
    of each lower level, of width at most t**(L-1) < W, lies in the range."""
    t, top = knockout_recursion(id_range, q)
    path = block_path(id_range[1], top, t)
    return path[:1] + [t - 1] * (len(path) - 1)


def _hop_count_round(g: Graph, sends: Dict[int, Message],
                     listeners: AbstractSet[int], accept_all: AbstractSet[int],
                     config: SimConfig, label: str = ""
                     ) -> Tuple[SimTrace, Dict[int, int]]:
    """broadcast_max in broadcast mode, the mode of a knock-out hop."""
    return broadcast_max(g, sends, listeners, accept_all,
                         replace(config, mode=sim.BROADCAST), label)


# the knock-out's old upcast: the most hops, sent as the scalar
_max_upcast = partial(best_upcast, prefer_max=True, width=0)


def knockout_schedule(net: "comm.Net", orient: "comm.Orientation",
                      candidates: Set[int], params: RulingParams,
                      id_range: Tuple[int, int], popular: AbstractSet[int],
                      label: str) -> Set[int]:
    """rulingset.run_knockout_schedule with the full timetable and the
    hop-count flood: per level, every block that holds an alive candidate
    floods in ascending order; each message carries the hops left, a
    listener keeps the most it hears, every wave converges that maximum in
    every cluster that heard it (a height-scheduled upcast), and a cluster
    relays once, while hops are left. A later block's alive candidate that
    heard an earlier block's flood drops out. A candidate's block at each
    level is the child of block_path's nested intervals that contains it.
    The hops and the upcasts run on the program oracles above."""
    t, top = knockout_recursion(id_range, params.q)
    alive = set(candidates)
    if id_range[0] == id_range[1] or len(alive) <= 1:
        return alive
    paths = {c: block_path(c, top, t) for c in alive}
    accept_all = {v for v, c in orient.center_of.items() if c in popular}
    trivial = orient.max_depth() == 0
    levels = len(block_path(top[0], top, t))   # every path has one block per level
    for level in range(levels - 1, -1, -1):
        def block_of(c: int) -> int:
            return paths[c][level]
        for block in sorted({block_of(c) for c in alive}):
            senders = sorted(c for c in alive if block_of(c) == block)
            if not senders:
                continue
            heard: Set[int] = set()
            relayed = set(senders)
            frontier = [(c, KNOCKOUT_DEPTH - 1) for c in senders]
            wave = 0
            while frontier:
                wave += 1
                tag = f"{label}.L{level}.b{block}.k{wave}"
                if not trivial:   # the center streams the hops left down
                    net.cast(f"{tag}.down", message_downcast, orient.children,
                             {c: [Message(0, (), h)] for c, h in frontier
                              if orient.children[c]})
                # the hop: the hops left above the popular bit, and each
                # listener keeps the largest it accepts
                sends: Dict[int, Message] = {}
                for c, h in frontier:
                    msg = Message(ids=(c,), scalar=(h << 1) | (c in accept_all))
                    sends.update(dict.fromkeys(orient.members[c], msg))
                best = net.cast(f"{tag}.x", _hop_count_round, sends,
                                orient.center_of.keys(), accept_all)
                got = hops_at = {v: s >> 1 for v, s in best.items()}
                if not trivial and hops_at:
                    best = net.cast(f"{tag}.up", _max_upcast,
                                    {orient.center_of[v] for v in hops_at},
                                    orient.parent, orient.height,
                                    {v: (h,) for v, h in hops_at.items()})
                    got = {c: b[0] for c, b in best.items() if b is not None}
                heard.update(got)
                frontier = [(c, h - 1) for c, h in sorted(got.items())
                            if h >= 1 and c not in relayed]
                relayed.update(c for c, _ in frontier)
            alive -= {c for c in heard & alive if block_of(c) > block}
    return alive
