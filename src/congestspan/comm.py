"""Cluster-level communication built from simulator episodes.

A phase of either construction is orchestrated as a sequence of short
simulator episodes over the same graph: orient the cluster trees, exchange
cluster IDs with neighbors, converge flags or keyed items to the centers,
stream payloads back down, announce new spanner edges. One one-shot
broadcast round (broadcast_once) serves the ID exchange and, through
cluster_broadcast, every hop of the knock-out floods and explorations on the
virtual cluster graph; it is delivered by sim.broadcast_round, with the
listeners' folds in place of programs. Every other episode runs each
participating vertex as a small program through sim.run. The orchestrator
only moves results between episodes, never inventing knowledge a vertex
could not have accumulated locally.

Round accounting sums episode traces into a BuildTrace, which also remembers
per-episode labels and modes so model-compliance checks (message size, one
message per edge per round, broadcast-only knockout rounds) can be audited
after a run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (AbstractSet, Callable, Dict, Iterable, List, Optional,
                    Sequence, Set, Tuple)

from .graph import Graph
from . import sim
from .sim import Message, NodeApi, NodeProgram, SimConfig

# message tags shared by the phase protocols
TAG_ORIENT = 10
TAG_MYCLUSTER = 11
TAG_FLAG = 12
TAG_POPBIT = 13
TAG_COLLECT = sim.TAG_COLLECT
TAG_MAXSCALAR = 14
TAG_MINPAIR = 15
TAG_MINSCALAR = 16
TAG_PAYLOAD = 17
TAG_KNOCK = 18
TAG_KNOCK_SEND = 19
TAG_EXPLORE = 20
TAG_RELAY = 21
TAG_WIN1 = 22
TAG_WIN2 = 23
TAG_SETTLED = 24
TAG_EDGEADD = 25


@dataclass
class EpisodeStat:
    label: str
    mode: str
    rounds: int
    messages: int
    max_ids: int


@dataclass
class BuildTrace:
    """Aggregated accounting across all episodes of a build."""
    episodes: List[EpisodeStat] = field(default_factory=list)
    rounds_total: int = 0
    messages_total: int = 0
    max_ids_per_message: int = 0
    messages_per_edge_per_round_max: int = 0

    def absorb(self, trace: sim.SimTrace) -> None:
        self.episodes.append(EpisodeStat(trace.label, trace.mode,
                                         trace.rounds_elapsed,
                                         trace.messages_total,
                                         trace.max_ids_per_message))
        self.rounds_total += trace.rounds_elapsed
        self.messages_total += trace.messages_total
        self.max_ids_per_message = max(self.max_ids_per_message,
                                       trace.max_ids_per_message)
        self.messages_per_edge_per_round_max = max(
            self.messages_per_edge_per_round_max,
            trace.messages_per_edge_per_round_max)

    def summary(self) -> dict:
        return {
            "episodes": len(self.episodes),
            "rounds_total": self.rounds_total,
            "messages_total": self.messages_total,
            "max_ids_per_message": self.max_ids_per_message,
            "messages_per_edge_per_round_max": self.messages_per_edge_per_round_max,
        }


class Net:
    """Graph plus messaging config plus the running trace."""

    def __init__(self, g: Graph, ids_per_message: int = 2,
                 max_rounds_per_episode: int = 4_000_000):
        self.g = g
        self.ids_per_message = ids_per_message
        self.max_rounds = max_rounds_per_episode
        self.trace = BuildTrace()

    def _config(self, mode: str) -> SimConfig:
        return SimConfig(ids_per_message=self.ids_per_message, mode=mode,
                         max_rounds=self.max_rounds)

    def episode(self, label: str, programs: Dict[int, NodeProgram],
                mode: str = sim.CONGEST) -> int:
        """Run one episode; returns rounds used."""
        if not programs:
            return 0
        trace = sim.run(self.g, programs, self._config(mode), label=label)
        self.trace.absorb(trace)
        return trace.rounds_elapsed

    def broadcast_round(self, label: str, sends: Dict[int, Message],
                        listeners: AbstractSet[int],
                        fold: Callable[[int, Dict[int, Message]], None]) -> int:
        """One sim.broadcast_round episode; returns rounds used."""
        if not sends:
            return 0
        trace = sim.broadcast_round(self.g, sends, listeners, fold,
                                    self._config(sim.BROADCAST), label)
        self.trace.absorb(trace)
        return trace.rounds_elapsed


@dataclass
class Orientation:
    """Per-vertex view of the current cluster trees, after the orient flood.

    center_of covers exactly the active vertices. height is the longest
    downward path, used to schedule single-shot aggregation upcasts.
    """
    center_of: Dict[int, int]
    parent: Dict[int, Optional[int]]
    children: Dict[int, Tuple[int, ...]]
    depth: Dict[int, int]
    height: Dict[int, int]
    members: Dict[int, Tuple[int, ...]]

    @property
    def centers(self) -> Iterable[int]:
        return self.members.keys()

    def max_depth(self) -> int:
        return max(self.depth.values(), default=0)


class _OrientFlood(NodeProgram):
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


def orient_clusters(net: Net, raw: Sequence[Tuple[int, Sequence[int], Dict[int, List[int]]]],
                    label: str) -> Orientation:
    """Orient every cluster tree at its center in one parallel episode.

    raw holds (center, members, tree_adj) triples; tree_adj maps each member
    to its tree neighbors within that cluster.
    """
    programs: Dict[int, NodeProgram] = {}
    for center, members, tree_adj in raw:
        for v in members:
            programs[v] = _OrientFlood(tree_adj.get(v, ()), v == center)
    net.episode(label, programs)

    parent_maps: Dict[int, Dict[int, Optional[int]]] = {}
    for center, members, _ in raw:
        pmap = parent_maps[center] = {}
        for v in sorted(members):
            prog = programs[v]
            if prog.center is None:
                raise RuntimeError(f"orientation never reached vertex {v} "
                                   f"(cluster tree of {center} is not connected)")
            if prog.center != center:
                raise RuntimeError(f"vertex {v} oriented to foreign center {prog.center}")
            pmap[v] = prog.parent
    return orientation_from_parents(parent_maps)


def orientation_from_parents(parent_maps: Dict[int, Dict[int, Optional[int]]]) -> Orientation:
    """Build an Orientation from already-known parent maps (no episode).

    Used when the caller starts from materialized Cluster objects whose trees
    were oriented in an earlier phase. Depths come from one top-down pass
    from the centers, heights from the same visiting order reversed.
    """
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
    depth = dict.fromkeys(parent_maps, 0)
    order = list(parent_maps)
    for v in order:   # breadth first: the list grows while it is walked
        for u in kids[v]:
            depth[u] = depth[v] + 1
            order.append(u)
    height = dict.fromkeys(parent, 0)
    for v in reversed(order):
        p = parent[v]
        if p is not None and height[p] <= height[v]:
            height[p] = height[v] + 1
    members = {c: tuple(sorted(pmap)) for c, pmap in parent_maps.items()}
    return Orientation(center_of, parent, kids, depth, height, members)


def broadcast_once(net: Net, label: str, sends: Dict[int, Message],
                   listeners: AbstractSet[int],
                   fold: Callable[[int, Dict[int, Message]], None]) -> None:
    """One broadcast-mode round: every sender broadcasts its message once.

    Each listener that hears anything calls fold(vertex, inbox) with the
    inbox in ascending sender order, listeners in ascending order. A vertex
    may both send and listen. The round is delivered by sim.broadcast_round,
    with no program per vertex; no episode is recorded when nobody sends.
    """
    net.broadcast_round(label, sends, listeners, fold)


def cluster_broadcast(net: Net, orient: Orientation, label: str, tag: int,
                      frontier: Iterable[Tuple[int, int, int]],
                      popular: Optional[AbstractSet[int]],
                      listeners: AbstractSet[int],
                      fold: Callable[[int, List[Tuple[int, int, int]]], None]) -> None:
    """One hop on the virtual cluster graph, in a single broadcast round.

    frontier holds (center, key, hops) triples: every member of each such
    cluster broadcasts the key with the hop count and its cluster's popular
    bit (popular None makes every cluster popular). A listener outside the
    frontier keeps only the arrivals that cross a superedge, i.e. where the
    sender's or its own cluster is popular, and calls fold(vertex, arrivals)
    with the (sender, key, hops) triples it kept, if any.
    """
    sends: Dict[int, Message] = {}
    for c, key, hops in frontier:
        pop = popular is None or c in popular
        msg = Message(tag, (key,), (hops << 1) | (1 if pop else 0))
        for v in orient.members[c]:
            sends[v] = msg

    def hear(v: int, inbox: Dict[int, Message]) -> None:
        own_pop = popular is None or orient.center_of[v] in popular
        arrivals = [(u, msg.ids[0], msg.scalar >> 1) for u, msg in inbox.items()
                    if own_pop or msg.scalar & 1]
        if arrivals:
            fold(v, arrivals)

    broadcast_once(net, label, sends, listeners - sends.keys(), hear)


def exchange_cluster_ids(net: Net, orient: Orientation, label: str) -> Dict[int, Dict[int, int]]:
    """One broadcast round: every active vertex announces its cluster.

    Returns, per active vertex, the map neighbor -> neighbor's cluster center.
    Dormant vertices stay silent, so only active neighbors appear.
    """
    heard: Dict[int, Dict[int, int]] = {v: {} for v in orient.center_of}
    sends = {v: Message(TAG_MYCLUSTER, (c,)) for v, c in orient.center_of.items()}

    def fold(v: int, inbox: Dict[int, Message]) -> None:
        heard[v] = {u: msg.ids[0] for u, msg in inbox.items()}

    broadcast_once(net, label, sends, heard.keys(), fold)
    return heard


class _EdgeAnnounce(NodeProgram):
    """One round: tell each chosen neighbor that the shared edge joined H."""

    __slots__ = ("targets",)

    def __init__(self, targets: Sequence[int]):
        self.targets = targets

    def on_start(self, api: NodeApi) -> None:
        for u in self.targets:
            api.send(u, TAG_EDGEADD)
        api.halt()


def announce_edges(net: Net, label: str, targets: Dict[int, Sequence[int]]) -> None:
    """One round: each vertex tells every listed neighbor that their shared
    edge joined the spanner."""
    net.episode(label, {v: _EdgeAnnounce(ts) for v, ts in targets.items()})


class _FlagUpcast(NodeProgram):
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


def upcast_flags(net: Net, orient: Orientation, flagged: Set[int], label: str) -> Set[int]:
    """Centers whose cluster contains at least one flagged vertex."""
    programs = {v: _FlagUpcast(orient.parent[v], v in flagged)
                for v in orient.center_of}
    net.episode(label, programs)
    return {c for c in orient.centers
            if programs[c].flag}


def downcast_single(net: Net, orient: Orientation, centers: Iterable[int],
                    tag: int, label: str,
                    payload: Optional[Dict[int, Tuple[Tuple[int, ...], int]]] = None
                    ) -> Dict[int, List[Message]]:
    """Stream one message from each listed center down its tree.

    payload maps center -> (ids, scalar); default is an empty flag message.
    Returns per-vertex received messages.
    """
    programs: Dict[int, NodeProgram] = {}
    targets = set(centers)
    for c in targets:
        ids, scalar = (payload or {}).get(c, ((), 0))
        for v in orient.members[c]:
            msgs = [Message(tag, ids, scalar)] if v == c else []
            programs[v] = sim.TreeDowncast(orient.parent[v], orient.children.get(v, ()), msgs)
    net.episode(label, programs)
    return {v: programs[v].received for v in programs}


def downcast_payloads(net: Net, orient: Orientation,
                      center_payloads: Dict[int, Sequence[Message]],
                      label: str) -> Dict[int, List[Message]]:
    """Pipelined downcast of a payload list from each center to its members."""
    programs: Dict[int, NodeProgram] = {}
    for c, payloads in center_payloads.items():
        for v in orient.members[c]:
            msgs = payloads if v == c else []
            programs[v] = sim.TreeDowncast(orient.parent[v], orient.children.get(v, ()), msgs)
    net.episode(label, programs)
    return {v: programs[v].received for v in programs}


def upcast_collect(net: Net, orient: Orientation,
                   items: Dict[int, Sequence[Tuple[int, int]]], cap: int,
                   label: str, centers: Optional[Iterable[int]] = None
                   ) -> Dict[int, Dict[int, int]]:
    """Pipelined keyed collection toward each center, dedup with cap.

    Returns center -> {key: payload} in admission order.
    """
    programs: Dict[int, NodeProgram] = {}
    wanted = set(centers) if centers is not None else set(orient.members)
    for c in wanted:
        for v in orient.members[c]:
            programs[v] = sim.TreeCollect(orient.parent[v], items.get(v, ()), cap)
    net.episode(label, programs)
    return {c: dict(programs[c].store) for c in wanted}


class _BestUpcast(NodeProgram):
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


def upcast_best(net: Net, orient: Orientation,
                values: Dict[int, Tuple[int, ...]], label: str,
                prefer_max: bool = False, width: int = 2,
                centers: Optional[Iterable[int]] = None) -> Dict[int, Optional[Tuple[int, ...]]]:
    """Aggregate per-vertex tuples to each center (min by default).

    width is the number of vertex IDs on the wire; width=0 sends the value in
    the scalar slot instead (for hop counters and similar non-ID data).
    """
    wanted = set(centers) if centers is not None else set(orient.members)
    programs: Dict[int, NodeProgram] = {}
    for c in wanted:
        for v in orient.members[c]:
            programs[v] = _BestUpcast(orient.parent[v], orient.height[v],
                                      values.get(v), prefer_max, width)
    net.episode(label, programs)
    return {c: programs[c].best for c in wanted}
