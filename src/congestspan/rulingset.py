"""Deterministic ruling sets of a phase's popular clusters.

Each phase grows its superclusters around a ruling set of the popular
clusters on the phase's virtual cluster graph; run_knockout_schedule
computes it inside the simulated network, and the verifier's exact check
holds the result to (3, 2q)-ruling.

The construction recursively splits the candidate ID range into t blocks,
solves the blocks in parallel, and merges them sequentially: each surviving
candidate of an earlier block floods a knock-out message KNOCKOUT_DEPTH = 2
hops deep, and any still-alive candidate of a later block that hears it
drops out. t is the least integer of at least 2 with t**q >= W, the width of
the ID range, and the blocks are nested powers of t: the top interval has
width t**L, the least power of t that is at least W, so L <= q, and every
interval of width t**(l+1) splits into t blocks of width t**l. Two distinct
IDs therefore lie in different blocks of one interval at some level, and
with at most q levels the result is a (3, 2q)-ruling set.

Because the recursion tree is pure ID arithmetic on the globally known range,
every vertex can compute the whole merge timetable locally; the only traffic
is the knock-out flood itself, a breadth-first search of the virtual cluster
graph in broadcast mode. Every wave is a fixed slot of the timetable, so no
message carries a hop count: a wave's frontier is the clusters first reached
in the wave before, candidates and non-candidates alike, and a hop is one
comm.knockout_hop round whose listeners keep only whether they heard it.
Unless every cluster is a single vertex, each wave also costs a flag
down-cast before the hop and an OR up-cast (comm.upcast_flags) after it,
within the cluster trees.

Empty blocks would produce no flood and consume no rounds, so the
orchestrator never visits them: per level it walks only the blocks that hold
an alive candidate. Its work therefore grows with the number of candidates,
not with the width of the ID range.

No flood is sent that cannot knock out a candidate. A level of K + 1 child
blocks floods at most K times: block K, the last, has no later block, so it
never floods. At the top level, whose interval may reach past the range, K
is the last block that the range reaches. No one relays a flood's last
wave, so that wave's up-cast runs only in the popular clusters of the
blocks after the flooding one, since a candidate is a popular cluster.
Every vertex can make both cuts from what it knows: K from the global ID
range and the timetable, its cluster's block from its center's ID (learnt
in the orient flood), and whether its cluster is popular from the popular
bit (sent down the tree after the popularity call). Neither cut looks at
which candidates are still alive, which no vertex knows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import AbstractSet, Dict, List, Mapping, Sequence, Set, Tuple

from . import comm
from .comm import Net, Orientation
from .exact import pow_ceil

# how many hops on the virtual cluster graph a knock-out flood travels
KNOCKOUT_DEPTH = 2


@dataclass(frozen=True)
class RulingParams:
    """q bounds the recursion depth."""
    q: int


# ---------------------------------------------------------------------------
# Block arithmetic for the ID-range recursion.

def _block_widths(width: int, t: int) -> List[int]:
    """Interval width per recursion level: t**L, ..., t, 1, where L is the
    least exponent with t**L >= width, so that every interval splits into t
    intervals of the level below."""
    widths = [1]
    while widths[-1] < width:
        widths.append(widths[-1] * t)
    return widths[::-1]


# ---------------------------------------------------------------------------
# The knock-out flood over the virtual cluster graph.

def _flood(net: Net, orient: Orientation, initiators: Sequence[int],
           accept_all: AbstractSet[int], trivial: bool,
           block_of: Mapping[int, int], block: int, label: str) -> Set[int]:
    """Flood a knock-out from the initiator clusters, whose child block is
    block, a breadth-first search of KNOCKOUT_DEPTH waves on the virtual
    cluster graph; returns the clusters (centers) it reached, initiators
    included, except that the last wave reports only the clusters that
    block_of maps to a later block.

    Each wave's frontier is the clusters first reached in the wave before:
    their centers send a flag down their trees, their members broadcast the
    hop, and the clusters that heard it converge the flag to their centers.
    accept_all holds the vertices of popular clusters: hops cross only the
    superedges with a popular side, as in the phase's virtual cluster graph.
    trivial says every cluster is a single vertex, so no tree cast is needed.
    No one relays the last wave, so its up-cast runs only in the clusters
    the flood can knock out; unless trivial, block_of maps every popular
    cluster to its child block, and each member knows from its center's ID
    and its popular bit whether its cluster is one of them.
    """
    reached = set(initiators)
    frontier = sorted(initiators)
    for wave in range(1, KNOCKOUT_DEPTH + 1):
        if not frontier:
            break
        if not trivial:
            comm.downcast_single(net, orient, frontier, f"{label}.k{wave}.down")
        got = comm.knockout_hop(net, orient, f"{label}.k{wave}.x", frontier,
                                accept_all)
        if not trivial:
            if wave == KNOCKOUT_DEPTH:
                center_of = orient.center_of
                got = {v for v in got if block_of.get(center_of[v], block) > block}
            got = comm.upcast_flags(net, orient, got,
                                    f"{label}.k{wave}.up") if got else set()
        frontier = sorted(got - reached)
        reached |= got
    return reached


def run_knockout_schedule(net: Net, orient: Orientation, candidates: Set[int],
                          params: RulingParams, id_range: Tuple[int, int],
                          popular: AbstractSet[int], label: str) -> Set[int]:
    """Execute the merge timetable over the clusters of orient, whose popular
    clusters span the virtual cluster graph; returns the surviving
    candidates, which must all be popular clusters.

    Per level, only the blocks holding an alive candidate are visited, in
    ascending order, so the work never depends on the ID-range width. Each
    level maps the clusters to their child blocks once: the alive
    candidates, and unless every cluster is a single vertex, the popular
    clusters too. The level's last child block K, at the top level the last
    that the ID range reaches, never floods, since no block comes after it,
    and a flood's last wave converges only in the popular clusters of the
    blocks after the flooding one.
    """
    lo, hi = id_range
    width = hi - lo + 1
    alive: Set[int] = set(candidates)
    if width <= 1 or len(alive) <= 1:
        return alive
    t = max(2, pow_ceil(width, Fraction(1, params.q)))
    widths = _block_widths(width, t)
    accept_all = {v for v, c in orient.center_of.items() if c in popular}
    trivial = orient.max_depth() == 0
    for level in range(len(widths) - 2, -1, -1):
        wide, narrow = widths[level], widths[level + 1]
        last = (min(wide, width) - 1) // narrow
        # the index of a cluster's child block within its interval
        block_of = {c: (c - lo) % wide // narrow
                    for c in (alive if trivial else alive | popular)}
        blocks: Dict[int, List[int]] = {}
        for c in sorted(alive):
            blocks.setdefault(block_of[c], []).append(c)
        for block in sorted(blocks):
            senders = [c for c in blocks[block] if c in alive]
            if block == last or not senders:
                continue
            heard = _flood(net, orient, senders, accept_all, trivial, block_of,
                           block, f"{label}.L{level}.b{block}")
            alive.difference_update([c for c in heard
                                     if c in alive and block_of[c] > block])
    return alive
