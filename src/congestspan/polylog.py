"""Polylogarithmic-round spanner construction.

Runs kappa phases (the last one interconnect-only). A vertex makes the
popularity call locally: it is popular when it has neighbors in at least
n^(1/kappa) distinct current clusters, and a cluster is popular when it
contains a popular vertex. Popular clusters are superclustered around a
(3, 2*ceil(log2 n))-ruling set by an exploration of depth 2*ceil(log2 n);
clusters left out interconnect vertex-wise: each of their vertices adds one
edge to every neighboring cluster (smallest-ID neighbor inside it).

Resulting guarantees, checked by the verification layer: per-edge stretch at
most 2*R_ell + 1 for the phase radius recurrence, and at most
(n - 1) + n*(ceil(n^(1/kappa)) - 1) edges overall (size_bound), the
n^(1+1/kappa) of the paper with n^(1/kappa) rounded up. polylog_schedule
builds the whole schedule, a spanner.Schedule; the build records none of
it, and the verifier and the report build it again (verify.schedule). The
verifier holds the cluster counts to |P_i| <= n^((kappa-i)/kappa).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Set, Tuple

from . import comm
from .clusters import radius_sequence
from .comm import Net, Orientation
from .exact import ceil_log2_int, pow_ceil
from .graph import Graph
from .spanner import INTER, BuildResult, Schedule, SpannerEdgeSet, run_phases


def polylog_schedule(n: int, kappa: int) -> Schedule:
    """ell = kappa - 1, delta = 2*ceil(log2 n), q = max(1, ceil(log2 n)), the
    threshold n^(1/kappa) and the stretch bound 2*R_ell + 1. Raises
    ValueError for a kappa below 2 or a stretch bound too long to print. A
    single vertex, whose delta is 0, has no thresholds and one radius,
    R_0 = 0."""
    if not isinstance(kappa, int) or kappa < 2:
        raise ValueError(f"kappa must be an integer >= 2, got {kappa}")
    ell, delta = kappa - 1, 2 * ceil_log2_int(n)
    radii = radius_sequence(delta, ell, 2) if n > 1 else (0,)
    return Schedule(n=n, kappa=kappa, ell=ell, delta=delta,
                    ruling_q=max(1, ceil_log2_int(n)), radius_bounds=radii,
                    stretch_bound=2 * radii[-1] + 1,
                    threshold_expos=(Fraction(1, kappa),) * ell if n > 1 else ())


class _PolylogVariant:
    name = "polylog"

    def __init__(self, schedule: Schedule):
        self.schedule = schedule

    def detect(self, net: Net, orient: Orientation,
               nbr_clusters: Dict[int, Dict[int, int]], phase: int,
               is_final: bool) -> Tuple[Set[int], None]:
        if is_final:
            return set(), None
        # a count reaches n^(1/kappa) exactly when it reaches its ceiling
        threshold = pow_ceil(self.schedule.n, self.schedule.threshold_expos[phase])
        flagged = {v for v, got in nbr_clusters.items() if len(got) >= threshold}
        return comm.upcast_flags(net, orient, flagged, f"p{phase}.popflag"), None

    def interconnect(self, net: Net, orient: Orientation,
                     nbr_clusters: Dict[int, Dict[int, int]], settled: Set[int],
                     knowledge: None, phase: int,
                     spanner: SpannerEdgeSet) -> None:
        if not settled:
            return
        comm.downcast_single(net, orient, sorted(settled), f"p{phase}.settle")
        targets: Dict[int, List[int]] = {}
        for c in sorted(settled):
            for v in orient.members[c]:
                if nbr_clusters[v]:
                    targets[v] = sorted(nbr_clusters[v].values())
        comm.announce_edges(net, f"p{phase}.inter", targets)
        for v in sorted(targets):
            spanner.add(tuple((v, u) if v < u else (u, v) for u in targets[v]),
                        vertex=v, kind=INTER, phase=phase)


def build_spanner(g: Graph, kappa: int) -> BuildResult:
    """Run the construction; returns the spanner with its phase snapshots.
    kappa is checked even on a single vertex, which needs no phases."""
    schedule = polylog_schedule(g.n, kappa)
    return run_phases(g, _PolylogVariant(schedule), {"kappa": kappa, "n": g.n})


def stretch_bound(n: int, kappa: int) -> int:
    """Closed-form stretch bound (4*ceil(log2 n) + 1)^(kappa-1) + 1."""
    if n < 2:
        raise ValueError("need n >= 2")
    if kappa < 1:
        raise ValueError("need kappa >= 1")
    return (4 * ceil_log2_int(n) + 1) ** (kappa - 1) + 1


def size_bound(n: int, kappa: int) -> int:
    """The most edges within the charge verdict's caps. Each edge is charged
    as a superclustering edge, which ends its center as a center: with one
    cluster at least left at the last phase, there are at most n - 1. Each
    vertex is charged at most ceil(n^(1/kappa)) - 1 interconnection edges,
    the most below n^(1/kappa). The sum, n*ceil(n^(1/kappa)) - 1, lies below
    n^(1+1/kappa) + n, and above n^(1+1/kappa) unless n^(1/kappa) is within
    1/n below an integer: 35 against 25.83 for 18 vertices at kappa = 8."""
    return (n - 1) + n * (pow_ceil(n, Fraction(1, kappa)) - 1)


def size_bound_holds(result: BuildResult) -> bool:
    """|H| <= size_bound(n, kappa), compared exactly."""
    n, kappa = result.params["n"], result.params["kappa"]
    return result.spanner.size() <= size_bound(n, kappa)

