"""Golden traces: the simulated cost of a fixed set of small builds.

For each build, one sha256 covers its episode list (label, mode, rounds,
messages, max_ids), its sorted spanner edges and its trace summary. The
committed digests in trace_golden.json pin all of these byte for byte, so a
change meant to touch only wall time cannot silently alter a simulated round,
message or episode. After an intentional protocol change, regenerate them
with ``python3 tests/test_trace_golden.py regenerate``.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from congestspan import graph as gr
from congestspan import polylog, sparse

GOLDEN_FILE = Path(__file__).parent / "trace_golden.json"
SKELETON_RHO = Fraction(34, 100)


def _relabelled_gnp(n: int, seed: int, id_limit: int) -> gr.Graph:
    g = gr.generate_graph("gnp_connected", n=n, p=0.08, seed=seed)
    ids = random.Random(seed).sample(range(1, id_limit + 1), g.n)
    new_id = dict(zip(g.vertices, ids))
    return gr.from_edges((new_id[u], new_id[v]) for u, v in g.edges())


# name -> (graph factory, build function)
BUILDS = {
    "path128-skeleton": (
        lambda: gr.generate_graph("path", n=128),
        lambda g: sparse.build_skeleton(g, SKELETON_RHO)),
    "cycle64-skeleton": (
        lambda: gr.generate_graph("cycle", n=64),
        lambda g: sparse.build_skeleton(g, SKELETON_RHO)),
    "grid100-skeleton": (
        lambda: gr.generate_graph("grid", n=100),
        lambda g: sparse.build_skeleton(g, SKELETON_RHO)),
    "complete32-polylog2": (
        lambda: gr.generate_graph("complete", n=32),
        lambda g: polylog.build_spanner(g, 2)),
    "complete32-sparse3": (
        lambda: gr.generate_graph("complete", n=32),
        lambda g: sparse.build_spanner(g, 3, Fraction(1, 3))),
    "gnp128-polylog3": (
        lambda: gr.generate_graph("gnp_connected", n=128, p=0.08, seed=3),
        lambda g: polylog.build_spanner(g, 3)),
    "gnp128-skeleton": (
        lambda: gr.generate_graph("gnp_connected", n=128, p=0.08, seed=4),
        lambda g: sparse.build_skeleton(g, SKELETON_RHO)),
    "gnp96-wide-ids-skeleton": (
        lambda: _relabelled_gnp(96, 5, 10 ** 9),
        lambda g: sparse.build_skeleton(g, SKELETON_RHO)),
}


def trace_digest(name: str) -> str:
    make_graph, build = BUILDS[name]
    result = build(make_graph())
    record = {
        "episodes": [[ep.label, ep.mode, ep.rounds_elapsed, ep.messages_total,
                      ep.max_ids_per_message]
                     for ep in result.trace.episodes],
        "spanner_edges": sorted(result.spanner.edges),
        "summary": result.trace.summary(),
    }
    blob = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(BUILDS))
def test_trace_matches_golden(name):
    golden = json.loads(GOLDEN_FILE.read_text())
    assert trace_digest(name) == golden[name]


def test_golden_covers_every_build():
    assert sorted(json.loads(GOLDEN_FILE.read_text())) == sorted(BUILDS)


def regenerate() -> None:
    golden = {name: trace_digest(name) for name in sorted(BUILDS)}
    GOLDEN_FILE.write_text(json.dumps(golden, indent=2) + "\n")
    print(f"wrote {GOLDEN_FILE}: {len(golden)} builds")


if __name__ == "__main__":
    if len(sys.argv) > 1 and sys.argv[1] == "regenerate":
        regenerate()
    else:
        print(__doc__)
