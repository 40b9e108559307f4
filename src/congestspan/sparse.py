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

degree_schedule builds the whole schedule from n, kappa and rho, a
spanner.Schedule: the threshold exponents, delta, q, the radius bounds R_i
and the stretch bound 4*R_ell + 1. The build records none of it; the
verifier and the report build it again (verify.schedule), and the verifier
holds the per-phase counting inequalities to it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Set, Tuple

from . import comm
from .clusters import radius_sequence
from .comm import Net, Orientation
from .exact import (MAX_DIGITS, as_fraction, ceil_fraction, ceil_log2_int,
                    count_le_pow, floor_log2, pow_ceil)
from .graph import Edge, Graph, edge_key
from .spanner import INTER, BuildResult, Schedule, SpannerEdgeSet, run_phases


# the largest common denominator of kappa and rho: exact comparisons with
# n^(2^i/kappa), n^rho or n^(1 + 1/kappa - j*rho) raise counts to its power
MAX_POWER_DEGREE = 2 ** 16


def degree_schedule(n: int, kappa: int, rho) -> Schedule:
    """Compute and validate the phase schedule for given (kappa, rho). Its
    phases depend on kappa and rho alone, so one whose stretch bound
    4*R_ell + 1 is too long to print is refused at every n, before its
    phases are listed, and so is one whose kappa and rho have a common
    denominator above MAX_POWER_DEGREE. q = delta // 2 (at least 2):
    2q <= delta keeps the ruling set's domination radius within the
    exploration depth, so every popular cluster gets superclustered. A
    single vertex runs no phase, and its stretch bound is 1."""
    if not isinstance(kappa, int) or kappa < 2:
        raise ValueError(f"kappa must be an integer >= 2, got {kappa}")
    rho = as_fraction(rho)
    if not (Fraction(1, kappa) <= rho < Fraction(1, 2)):
        raise ValueError(f"rho must satisfy 1/kappa <= rho < 1/2, got "
                         f"{_shown(rho)} with kappa={kappa}")
    i0 = floor_log2(kappa * rho)
    ell = i0 + ceil_fraction(Fraction(kappa + 1) / (kappa * rho)) - 1
    delta = ceil_fraction(2 / rho)
    radii = radius_sequence(delta, ell, 4)
    degree = math.lcm(kappa, rho.denominator)
    if degree > MAX_POWER_DEGREE:
        raise ValueError(f"kappa = {kappa} and rho = {_shown(rho)} need exact "
                         f"powers of degree {_shown(degree)}, more than "
                         f"{MAX_POWER_DEGREE}")
    # deg_i = n^(2^i/kappa) up to phase i0, then n^rho
    expos = tuple(Fraction(2 ** i, kappa) if i <= i0 else rho for i in range(ell))
    return Schedule(n=n, kappa=kappa, ell=ell, delta=delta,
                    ruling_q=max(2, delta // 2), radius_bounds=radii,
                    stretch_bound=4 * radii[-1] + 1 if n > 1 else 1,
                    threshold_expos=expos, rho=rho, i0=i0)


def _shown(x) -> str:
    """x as text, unless it has more digits than Python prints."""
    try:
        return str(x)
    except ValueError:
        return f"a number of over {MAX_DIGITS} digits"


def skeleton_kappa(n: int) -> int:
    """The preset that makes n^(1+1/kappa) + n at most 3n. It is never below
    3, the least kappa whose range 1/kappa <= rho < 1/2 is not empty."""
    return max(3, ceil_log2_int(n) + 1)


class _SparseVariant:
    name = "sparse"

    def __init__(self, schedule: Schedule):
        self.schedule = schedule

    def detect(self, net: Net, orient: Orientation,
               nbr_clusters: Dict[int, Dict[int, int]], phase: int,
               is_final: bool) -> Tuple[Set[int], Dict[int, Dict[int, int]]]:
        # the convergecast stores the least integer >= deg_i; the final phase
        # needs complete neighbor knowledge: no binding cap
        sched = self.schedule
        cap = sched.n + 1 if is_final else pow_ceil(sched.n, sched.threshold_expos[phase])
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
    schedule = degree_schedule(g.n, kappa, rho)
    return run_phases(g, _SparseVariant(schedule),
                      {"kappa": kappa, "rho": str(schedule.rho), "n": g.n})


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

