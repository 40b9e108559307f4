"""Cluster-level communication built from simulator episodes.

A phase of either construction is orchestrated as a sequence of short
simulator episodes over the same graph: orient the cluster trees, exchange
cluster IDs with neighbors, converge flags or keyed items to the centers,
stream payloads back down, announce new spanner edges. Every episode goes
through Net.cast, the one place that records episodes, and is delivered by a
sim kernel without a program per vertex: sim.broadcast_ids delivers the
cluster-ID exchange and every exploration hop on the virtual cluster graph
(explore_hop), each listener keeping the least sender of each ID it
accepts; a listener of a knock-out hop (knockout_hop) keeps only whether it
heard the hop, so sim.broadcast_heard delivers it. Both kernels take each
sender's one ID, and a hop crosses only the superedges with a popular side:
the kernels' accept_all is the vertices of popular clusters. Every other
episode is a tree cast or a one-round per-edge send (orient_flood,
tree_downcast, best_upcast, send_round, and tree_collect, which converges
the keys vertices hold, each with its holder; a flag is one shared key). An
episode in which no vertex takes part is not recorded. The orchestrator
only moves results between episodes, never inventing knowledge a vertex
could not have accumulated locally.

On the wire a message is a tuple of at most IDS_PER_MESSAGE vertex IDs; what
it means follows from the episode it belongs to, so it carries no tag, and a
bit that a receiver needs, such as a cluster's popularity, is read from the
episode's accept_all. Every Net runs its episodes under the same SimConfig,
built from IDS_PER_MESSAGE and MAX_ROUNDS_PER_EPISODE.

The kernel fixes an episode's mode: the two broadcast kernels run in
broadcast mode, the others in congest mode. A build's BuildTrace keeps each
kernel's SimTrace as it was returned (label, mode, widest message, messages
per round) and nothing else: its rounds, messages and widest message are
read off the episodes, so model-compliance checks (message size,
broadcast-only knockout rounds) audit the episodes themselves after a run.
A second message on one edge in one round never reaches the trace: the
kernels refuse it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (AbstractSet, Callable, Dict, Iterable, List, Mapping,
                    Optional, Sequence, Set, Tuple)

from .graph import Graph
from . import sim
from .sim import SimConfig

# the CONGEST message width, in vertex IDs, and the round budget of one episode
IDS_PER_MESSAGE = 2
MAX_ROUNDS_PER_EPISODE = 4_000_000


@dataclass
class BuildTrace:
    """A build's episodes, each the trace its kernel returned; the build's
    totals are read off them."""
    episodes: List[sim.SimTrace] = field(default_factory=list)

    def absorb(self, trace: sim.SimTrace) -> None:
        self.episodes.append(trace)

    @property
    def rounds_total(self) -> int:
        return sum(ep.rounds_elapsed for ep in self.episodes)

    @property
    def messages_total(self) -> int:
        return sum(ep.messages_total for ep in self.episodes)

    @property
    def max_ids_per_message(self) -> int:
        return max((ep.max_ids_per_message for ep in self.episodes), default=0)

    def summary(self) -> dict:
        return {
            "episodes": len(self.episodes),
            "rounds_total": self.rounds_total,
            "messages_total": self.messages_total,
            "max_ids_per_message": self.max_ids_per_message,
        }


class Net:
    """Graph plus messaging config plus the running trace."""

    def __init__(self, g: Graph):
        self.g = g
        self.config = SimConfig(ids_per_message=IDS_PER_MESSAGE,
                                max_rounds=MAX_ROUNDS_PER_EPISODE)
        self.trace = BuildTrace()

    def cast(self, label: str, kernel: Callable, *args):
        """One episode delivered by a sim kernel, in the mode that kernel
        stands for: kernel(g, *args, config, label) returns (trace, result);
        the trace is recorded and the result returned."""
        trace, result = kernel(self.g, *args, self.config, label)
        self.trace.absorb(trace)
        return result


@dataclass
class Orientation:
    """Per-vertex view of the current cluster trees, after the orient flood.

    center_of covers exactly the active vertices. height is the longest
    downward path, used to schedule single-shot aggregation upcasts.
    """
    center_of: Dict[int, int]
    parent: Dict[int, Optional[int]]
    children: Dict[int, Tuple[int, ...]]
    height: Dict[int, int]
    members: Dict[int, Tuple[int, ...]]

    def max_depth(self) -> int:
        """The deepest vertex's depth: the largest height of a center."""
        return max(map(self.height.__getitem__, self.members), default=0)


def orient_clusters(net: Net, center_of: Dict[int, int],
                    tree_adj: Mapping[int, Sequence[int]], label: str) -> Orientation:
    """Orient every cluster tree at its center in one parallel episode.

    center_of maps each vertex of the clusters to its center, and tree_adj
    each vertex to its tree neighbours. Each vertex learns its center and its
    parent, the tree neighbour it first heard the flood from. center_of,
    parent and members of the result list the clusters by center ascending,
    each cluster's vertices ascending.
    """
    vertices = sorted(center_of)
    groups: Dict[int, List[int]] = {v: [] for v in vertices if center_of[v] == v}
    roots = list(groups)
    for v in vertices:
        groups.setdefault(center_of[v], []).append(v)
    tree_nbrs = {v: tree_adj.get(v, ()) for v in vertices}
    found = net.cast(label, sim.orient_flood, roots, tree_nbrs) if tree_nbrs else {}
    # cluster by cluster, centers ascending (a center that is no root came late)
    for center in groups if len(groups) == len(roots) else sorted(groups):
        for v in groups[center]:
            if v not in found:
                raise RuntimeError(f"orientation never reached vertex {v} "
                                   f"(cluster tree of {center} is not connected)")
            if found[v][0] != center:
                raise RuntimeError(f"vertex {v} oriented to foreign center "
                                   f"{found[v][0]}")
    members = {c: tuple(vs) for c, vs in groups.items()}
    ordered = {v: c for c, vs in members.items() for v in vs}
    parent = {v: found[v][1] for v in ordered}
    # found lists the vertices by depth, then ID: children come out sorted,
    # and the reverse walk meets every child before its parent
    children: Dict[int, List[int]] = {v: [] for v in found}
    for v, (_, p) in found.items():
        if p is not None:
            children[p].append(v)
    height = dict.fromkeys(found, 0)
    for v in reversed(found):
        p = found[v][1]
        if p is not None and height[p] <= height[v]:
            height[p] = height[v] + 1
    return Orientation(ordered, parent,
                       {v: tuple(cs) for v, cs in children.items()},
                       height, members)


def explore_hop(net: Net, orient: Orientation, label: str,
                frontier: Iterable[Tuple[int, int]], accept_all: AbstractSet[int],
                listeners: AbstractSet[int]) -> Dict[int, Dict[int, int]]:
    """One exploration hop on the virtual cluster graph, in a single broadcast
    round: every member of each frontier cluster (center, root) broadcasts
    the root, with its cluster's popular bit, which the kernel reads from
    accept_all (the vertices of popular clusters). Returns, in ascending
    order, each listener outside the frontier that heard a root across a
    superedge (its own or the sender's cluster is popular) -> {root: the
    least sender it heard that root from across one}."""
    members = orient.members
    ids = {v: root for c, root in frontier for v in members[c]}
    return net.cast(label, sim.broadcast_ids, ids, listeners - ids.keys(),
                    accept_all) if ids else {}


def knockout_hop(net: Net, orient: Orientation, label: str,
                 frontier: Iterable[int], accept_all: AbstractSet[int]) -> Set[int]:
    """One knock-out hop on the virtual cluster graph, in a single broadcast
    round: every member of each frontier cluster broadcasts its center,
    with its cluster's popular bit, which the kernel reads from accept_all
    (the vertices of popular clusters), as explore_hop does. Returns the
    active vertices that do not send and heard the hop across a superedge
    with a popular side."""
    members = orient.members
    ids = {v: c for c in frontier for v in members[c]}
    return net.cast(label, sim.broadcast_heard, ids, orient.center_of.keys(),
                    accept_all) if ids else set()


def exchange_cluster_ids(net: Net, orient: Orientation, label: str) -> Dict[int, Dict[int, int]]:
    """One broadcast round: every active vertex announces its cluster.

    Returns, per active vertex, its own map neighbouring center -> the least
    neighbour in that cluster, for every cluster other than its own that it
    borders. Dormant vertices stay silent, so only active neighbours count.
    """
    center_of = orient.center_of
    heard = net.cast(label, sim.broadcast_ids, center_of, center_of.keys(),
                     center_of.keys()) if center_of else {}
    nbr_clusters = {}
    for v, c in center_of.items():
        got = nbr_clusters[v] = heard.get(v) or {}   # a silent vertex's own dict
        got.pop(c, None)
    return nbr_clusters


def announce_edges(net: Net, label: str, targets: Dict[int, Sequence[int]]) -> None:
    """One round: each vertex tells every listed neighbor that their shared
    edge joined the spanner."""
    if targets:
        net.cast(label, sim.send_round, targets)


def upcast_flags(net: Net, orient: Orientation, flagged: Set[int], label: str) -> Set[int]:
    """Centers whose cluster contains at least one flagged vertex."""
    if not orient.parent:
        return set()
    # a collect with cap 1 of one key, held by every flagged vertex; a flag
    # carries no ID
    items = dict.fromkeys(flagged, (0,))
    return set(net.cast(label, sim.tree_collect, orient.parent, items, 1, 0))


def downcast_single(net: Net, orient: Orientation, centers: Iterable[int], label: str,
                    payload: Optional[Dict[int, Tuple[int, ...]]] = None) -> None:
    """Stream one message from each listed center down its tree.

    payload maps center -> its ID tuple; default is an empty flag message.
    Every member of those clusters receives its center's message.
    """
    centers, payload, children = set(centers), payload or {}, orient.children
    # a center with no tree edge takes part but sends nothing
    queues = {c: (payload.get(c, ()),) for c in centers if children[c]}
    if centers:
        net.cast(label, sim.tree_downcast, children, queues)


def downcast_payloads(net: Net, orient: Orientation,
                      center_payloads: Dict[int, Sequence[Tuple[int, ...]]],
                      label: str) -> None:
    """Pipelined downcast of a list of ID tuples from each center to its
    members. Every member receives its center's list, in order, so the
    caller reads what a member heard off center_payloads itself.
    """
    if center_payloads:
        net.cast(label, sim.tree_downcast, orient.children, center_payloads)


def upcast_collect(net: Net, orient: Orientation,
                   items: Mapping[int, Iterable[int]], cap: int,
                   label: str) -> Dict[int, Dict[int, int]]:
    """Pipelined keyed collection toward each center, dedup with cap, of the
    keys each vertex holds, in messages of two IDs, a key and its holder.

    Returns each center that collected a key -> {key: holder} in admission
    order.
    """
    if not orient.parent:
        return {}
    return net.cast(label, sim.tree_collect, orient.parent, items, cap, 2)


def upcast_best(net: Net, orient: Orientation,
                values: Dict[int, Tuple[int, ...]], label: str, *,
                centers: Iterable[int]) -> Dict[int, Optional[Tuple[int, ...]]]:
    """Converge the least per-vertex tuple of vertex IDs to each of centers."""
    wanted = set(centers)
    if not wanted:
        return {}
    center_of = orient.center_of
    values = {v: val for v, val in values.items() if center_of.get(v) in wanted}
    return net.cast(label, sim.best_upcast, wanted, orient.parent,
                    orient.height, values)
