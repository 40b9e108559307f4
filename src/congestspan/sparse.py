"""Low-polynomial-round sparse spanner and linear-size skeleton construction.

Compared to the polylog construction, popularity is decided per cluster, not
per vertex: a cluster is popular when it has at least deg_i neighboring
clusters, where deg_i follows an exponential-then-fixed schedule
(n^(2^i/kappa) while 2^i/kappa <= rho, then n^rho). The count is collected
by a capped, deduplicating convergecast toward each center, which as a side
effect hands every non-popular center the complete list of its neighboring
clusters together with a witness vertex for each. Interconnection is then
center-driven: the center streams (foreign center, witness) pairs down the
tree and each named witness adds one edge.

With kappa = ceil(log2 n) + 1 the edge bound n^(1+1/kappa) + n is at most 3n:
the skeleton preset, which takes kappa = ceil(1/rho) instead where rho is
too small for that kappa.

degree_schedule derives the whole schedule from n, kappa and rho: the
thresholds, delta, q and the radius bounds R_i. The build records none of
it; the verifier and the report derive it again (verify.schedule), and the
verifier holds the per-phase counting inequalities to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Set, Tuple

from . import comm
from .clusters import radius_sequence
from .comm import Net, Orientation
from .exact import (as_fraction, ceil_fraction, ceil_log2_int, count_le_pow,
                    floor_log2, pow_ceil)
from .graph import Edge, Graph, edge_key
from .spanner import INTER, BuildResult, SpannerEdgeSet, run_phases


@dataclass(frozen=True)
class SparseParams:
    """Validated parameters plus the whole degree-threshold schedule."""
    n: int
    kappa: int
    rho: Fraction
    i0: int
    ell: int
    delta: int
    deg_expos: Tuple[Fraction, ...]   # exponent of deg_i, phases 0..ell-1
    radius_bounds: Tuple[int, ...]    # R_0..R_ell

    @property
    def ruling_q(self) -> int:
        # 2q <= delta keeps the ruling set's domination radius within the
        # exploration depth, so every popular cluster gets superclustered
        return max(2, self.delta // 2)

    def degree_cap(self, phase: int) -> int:
        """Smallest integer >= deg_phase: the convergecast store capacity."""
        return pow_ceil(self.n, self.deg_expos[phase])


def degree_schedule(n: int, kappa: int, rho) -> SparseParams:
    """Compute and validate the phase schedule for given (kappa, rho). The
    schedule depends on kappa and rho alone, so one whose stretch bound
    4*R_ell + 1 is too long to print is refused at every n, before its
    phases are listed."""
    if not isinstance(kappa, int) or kappa < 2:
        raise ValueError(f"kappa must be an integer >= 2, got {kappa}")
    rho = as_fraction(rho)
    if not (Fraction(1, kappa) <= rho < Fraction(1, 2)):
        raise ValueError(
            f"rho must satisfy 1/kappa <= rho < 1/2, got {rho} with kappa={kappa}")
    i0 = floor_log2(kappa * rho)
    ell = i0 + ceil_fraction(Fraction(kappa + 1) / (kappa * rho)) - 1
    delta = ceil_fraction(2 / rho)
    radii = radius_sequence(delta, ell, 4)
    expos = []
    for i in range(ell):
        if i <= i0:
            expos.append(Fraction(2 ** i, kappa))
        else:
            expos.append(rho)
    return SparseParams(n=n, kappa=kappa, rho=rho, i0=i0, ell=ell,
                        delta=delta, deg_expos=tuple(expos),
                        radius_bounds=radii)


def skeleton_kappa(n: int) -> int:
    """The preset that makes n^(1+1/kappa) + n at most 3n. It is never below
    3, the least kappa whose range 1/kappa <= rho < 1/2 is not empty."""
    return max(3, ceil_log2_int(n) + 1)


class _SparseVariant:
    name = "sparse"

    def __init__(self, params: SparseParams):
        self.params = params

    def detect(self, net: Net, orient: Orientation,
               nbr_clusters: Dict[int, Dict[int, int]], phase: int,
               is_final: bool) -> Tuple[Set[int], Dict[int, Dict[int, int]]]:
        # the final phase needs complete neighbor knowledge: no binding cap
        cap = self.params.n + 1 if is_final else self.params.degree_cap(phase)
        knowledge = comm.upcast_collect(net, orient, nbr_clusters, cap,
                                        f"p{phase}.collect")
        popular: Set[int] = set()
        if not is_final:
            popular = {c for c, lc in knowledge.items() if len(lc) >= cap}
        return popular, knowledge

    def interconnect(self, net: Net, orient: Orientation,
                     nbr_clusters: Dict[int, Dict[int, int]], settled: Set[int],
                     knowledge: Dict[int, Dict[int, int]], phase: int,
                     spanner: SpannerEdgeSet) -> None:
        payloads = {c: list(knowledge[c].items())
                    for c in sorted(settled) if c in knowledge}
        comm.downcast_payloads(net, orient, payloads, f"p{phase}.intercast")
        adds: Dict[int, List[Edge]] = {}   # charged center -> its edges
        announce: Dict[int, List[int]] = {}
        for c, pairs in payloads.items():
            # every member heard c's list; each witness keeps its own pairs
            heard: Dict[int, List[int]] = {}
            for cc, y in pairs:
                heard.setdefault(y, []).append(nbr_clusters[y][cc])
            adds[c] = [edge_key(v, u) for v in sorted(heard) for u in heard[v]]
            announce.update((v, sorted(us)) for v, us in heard.items())
        comm.announce_edges(net, f"p{phase}.inter", announce)
        for c, edges in adds.items():
            spanner.add(tuple(edges), vertex=c, kind=INTER, phase=phase)


def build_spanner(g: Graph, kappa: int, rho) -> BuildResult:
    """Run the construction; rho may be a Fraction, float, or 'p/q' string.
    kappa and rho are checked even on a single vertex, which needs no phases."""
    params = degree_schedule(g.n, kappa, rho)
    return run_phases(g, _SparseVariant(params),
                      {"kappa": kappa, "rho": str(params.rho), "n": g.n})


def build_skeleton(g: Graph, rho) -> BuildResult:
    """The construction at the preset kappa: skeleton_kappa(n), raised to
    ceil(1/rho) when rho is below 1/skeleton_kappa(n), so that any rho with
    0 < rho < 1/2 builds. A larger kappa only lowers the size bound."""
    rho = as_fraction(rho)
    kappa = skeleton_kappa(g.n)
    if rho > 0:
        kappa = max(kappa, ceil_fraction(1 / rho))
    result = build_spanner(g, kappa, rho)
    result.params["preset"] = "skeleton"
    return result


def stretch_bound(rho, ell: int) -> float:
    """Closed-form stretch 2*(4/rho + 1)^ell + 1.

    Accepts rho = 1/2 so the formula itself can be probed at the boundary;
    the construction proper requires rho < 1/2.
    """
    rho = as_fraction(rho)
    if not (0 < rho <= Fraction(1, 2)):
        raise ValueError("need 0 < rho <= 1/2")
    if ell < 0:
        raise ValueError("need ell >= 0")
    return float(2 * (4 / rho + 1) ** ell + 1)


def size_bound_holds(result: BuildResult) -> bool:
    """|H| <= n^(1 + 1/kappa) + n, compared exactly."""
    n = result.params["n"]
    kappa = result.params["kappa"]
    extra = result.spanner.size() - n
    return extra <= 0 or count_le_pow(extra, n, Fraction(kappa + 1, kappa))

