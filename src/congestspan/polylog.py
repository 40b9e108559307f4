"""Polylogarithmic-round spanner construction.

Runs kappa phases (the last one interconnect-only). A vertex makes the
popularity call locally: it is popular when it has neighbors in at least
n^(1/kappa) distinct current clusters, and a cluster is popular when it
contains a popular vertex. Popular clusters are superclustered around a
(3, 2*ceil(log2 n))-ruling set by an exploration of depth 2*ceil(log2 n);
clusters left out interconnect vertex-wise: each of their vertices adds one
edge to every neighboring cluster (smallest-ID neighbor inside it).

Resulting guarantees, checked by the verification layer: per-edge stretch at
most 2*R_ell + 1 for the phase radius recurrence, and at most n^(1+1/kappa)
edges overall. PolylogParams is the whole schedule, delta, q and the radius
bounds R_i; the build records none of it, and the verifier and the report
derive it again (verify.schedule). The verifier holds the cluster counts to
|P_i| <= n^((kappa-i)/kappa).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Set, Tuple

from . import comm
from .clusters import radius_sequence
from .comm import Net, Orientation
from .exact import ceil_log2_int, count_le_pow, pow_ceil
from .graph import Graph
from .spanner import INTER, BuildResult, SpannerEdgeSet, run_phases


@dataclass(frozen=True)
class PolylogParams:
    n: int
    kappa: int

    def __post_init__(self):
        if not isinstance(self.kappa, int) or self.kappa < 2:
            raise ValueError(f"kappa must be an integer >= 2, got {self.kappa}")

    @property
    def ell(self) -> int:
        return self.kappa - 1

    @property
    def delta(self) -> int:
        return 2 * ceil_log2_int(self.n)

    @property
    def tau_expo(self) -> Fraction:
        return Fraction(1, self.kappa)

    @property
    def ruling_q(self) -> int:
        return max(1, ceil_log2_int(self.n))

    @property
    def radius_bounds(self) -> Tuple[int, ...]:
        """R_0..R_ell. Raises ValueError for a stretch bound 2*R_ell + 1 too
        long to print, and for a single vertex, whose delta is 0."""
        return radius_sequence(self.delta, self.ell, 2)


class _PolylogVariant:
    name = "polylog"

    def __init__(self, params: PolylogParams):
        self.params = params

    def detect(self, net: Net, orient: Orientation,
               nbr_clusters: Dict[int, Dict[int, int]], phase: int,
               is_final: bool) -> Tuple[Set[int], None]:
        if is_final:
            return set(), None
        # a count reaches n^(1/kappa) exactly when it reaches its ceiling
        threshold = pow_ceil(self.params.n, self.params.tau_expo)
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
    params = PolylogParams(n=g.n, kappa=kappa)
    return run_phases(g, _PolylogVariant(params), {"kappa": kappa, "n": g.n})


def stretch_bound(n: int, kappa: int) -> int:
    """Closed-form stretch bound (4*ceil(log2 n) + 1)^(kappa-1) + 1."""
    if n < 2:
        raise ValueError("need n >= 2")
    if kappa < 1:
        raise ValueError("need kappa >= 1")
    return (4 * ceil_log2_int(n) + 1) ** (kappa - 1) + 1


def size_bound_holds(result: BuildResult) -> bool:
    """|H| <= n^(1 + 1/kappa), compared exactly."""
    n = result.params["n"]
    kappa = result.params["kappa"]
    return count_le_pow(result.spanner.size(), n, Fraction(kappa + 1, kappa))

