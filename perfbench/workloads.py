"""Seeded inputs and constructions for the congestspan benchmark.

Every instance is made from the run's ``--seed`` and its index alone, so the
same seed always gives the same graphs. The generators and the ID relabelling
live here; the package under test only ever receives the finished ``Graph``.

Each workload stresses a different layer:

* ``gnp-polylog``: sparse random graph, polylog construction. Verification
  bound: the all-sources BFS of ``max_edge_stretch`` dominates.
* ``dense-polylog``: dense random graph, polylog construction. Simulator
  bound: hundreds of thousands of messages in a few dozen rounds, while the
  verifier has almost nothing to do (the spanner is close to a tree).
* ``wide-ids-skeleton``: sparse random graph whose IDs are spread over
  [1, 10**14). The knock-out schedule walks every block of the ID range, so
  the ruling-set orchestration dominates; IDs 1..n build several times faster.
  At 2**63 the schedule effectively never finishes, so 10**14 is the widest
  range that still fits a run.
* ``grid-skeleton``: square grid with permuted IDs. High diameter: hundreds of
  rounds and episodes with little traffic each, and the structural verdicts
  (the ruling-set check above all) take a visible share of verification.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict

from congestspan import graph, polylog, sparse
from congestspan.graph import Graph

SKELETON_RHO = Fraction(34, 100)
POLYLOG_KAPPA = 3
WIDE_ID_LIMIT = 10 ** 14


def _rng(workload: str, seed: int, index: int) -> random.Random:
    # string seeds are hashed with SHA-512, so this is stable across runs
    return random.Random(f"congestspan-bench/{workload}/{seed}/{index}")


def _relabel(g: Graph, ids) -> Graph:
    """Give the i-th smallest vertex of g the ID ids[i]."""
    new_id = dict(zip(g.vertices, ids))
    return graph.from_edges(((new_id[u], new_id[v]) for u, v in g.edges()),
                            meta=dict(g.meta, relabelled=True))


def _gnp(rng: random.Random, n: int, p: float) -> Graph:
    return graph.generate_graph("gnp_connected", seed=rng.randrange(2 ** 32),
                                n=n, p=p)


def make_gnp_polylog(seed: int, index: int) -> Graph:
    n = 2048
    return _gnp(_rng("gnp-polylog", seed, index), n, 2 * math.log(n) / n)


def make_dense_polylog(seed: int, index: int) -> Graph:
    return _gnp(_rng("dense-polylog", seed, index), 512, 0.25)


def make_wide_ids(seed: int, index: int) -> Graph:
    n = 512
    rng = _rng("wide-ids-skeleton", seed, index)
    g = _gnp(rng, n, 2 * math.log(n) / n)
    return _relabel(g, rng.sample(range(1, WIDE_ID_LIMIT), n))


def make_grid(seed: int, index: int) -> Graph:
    side = 48
    rng = _rng("grid-skeleton", seed, index)
    g = graph.generate_graph("grid", rows=side, cols=side)
    ids = list(range(1, g.n + 1))
    rng.shuffle(ids)
    return _relabel(g, ids)


def build_polylog(g: Graph):
    return polylog.build_spanner(g, POLYLOG_KAPPA)


def build_skeleton(g: Graph):
    return sparse.build_skeleton(g, SKELETON_RHO)


# The work itself changes from seed to seed. Over ten seeds, one instance
# varies by about 10% (interquartile range over the median) in rounds,
# episodes and build time on wide-ids-skeleton, by about 8% in rounds on
# grid-skeleton, and by about 13% in spanner size, and so in verify time, on
# gnp-polylog. Those workloads sum several instances per repetition to narrow
# that spread.
@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable[[int, int], Graph]
    build: Callable[[Graph], object]
    construction: str
    instances: int


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("gnp-polylog", make_gnp_polylog, build_polylog,
             f"polylog kappa={POLYLOG_KAPPA}", 2),
    Workload("dense-polylog", make_dense_polylog, build_polylog,
             f"polylog kappa={POLYLOG_KAPPA}", 1),
    Workload("wide-ids-skeleton", make_wide_ids, build_skeleton,
             f"skeleton rho={SKELETON_RHO}", 4),
    Workload("grid-skeleton", make_grid, build_skeleton,
             f"skeleton rho={SKELETON_RHO}", 2),
)}
