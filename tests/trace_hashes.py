"""Three equivalence hashes over the acceptance corpus builds.

Not collected by the test suite (the file name does not match test_*.py).
Run it from anywhere with

    python3 tests/trace_hashes.py

It builds each of the 750 points of ``corpus.build_tasks()`` in order and
prints three sha256 digests and, per algorithm, the simulated cost summed
over its builds:

- ``reports``: over the concatenation of
  ``json.dumps(cli.build_report(g, result), sort_keys=True)`` of every build,
  verification included;
- ``episodes``: over ``repr`` of the list of every build's episode list,
  one ``(label, mode, rounds, messages, max_ids)`` tuple per episode;
- ``chosen``: over ``repr`` of each build's sorted spanner edges and, per
  phase, its sorted popular set, selected set and joins, in build order;
- ``polylog`` and ``sparse``: the total rounds, messages and episodes.

A change meant to affect only wall time must leave all of them alone; a
change to the protocol states its cost change across the corpus by the
totals, and one that must pick the same spanners, ruling sets and joins
leaves ``chosen`` alone. Uses the standard library only, apart from the
package and the corpus helpers, which it imports from this checkout.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import corpus   # noqa: E402
from congestspan import cli, polylog, sparse   # noqa: E402


def build(task: tuple):
    """(graph, build result) of one corpus point."""
    alg, _, spec, kappa, rho = task
    g = corpus.make_graph(spec)
    if alg == "polylog":
        return g, polylog.build_spanner(g, kappa)
    return g, sparse.build_spanner(g, kappa, corpus._rho(rho))


def hashes() -> dict:
    """{"builds", "reports", "episodes", "chosen"} over every corpus point,
    and per algorithm the summed rounds, messages and episodes of its
    builds."""
    reports, chosen, episodes = hashlib.sha256(), hashlib.sha256(), []
    totals = {alg: dict.fromkeys(("rounds", "messages", "episodes"), 0)
              for alg in ("polylog", "sparse")}
    tasks = corpus.build_tasks()
    for task in tasks:
        g, result = build(task)
        reports.update(json.dumps(cli.build_report(g, result),
                                  sort_keys=True).encode())
        episodes.append([(ep.label, ep.mode, ep.rounds_elapsed,
                          ep.messages_total, ep.max_ids_per_message)
                         for ep in result.trace.episodes])
        chosen.update(repr((sorted(result.spanner.edges),
                            [(sorted(snap.popular), sorted(snap.selected),
                              sorted(snap.joins.items()))
                             for snap in result.snapshots])).encode())
        cost = totals[task[0]]
        cost["rounds"] += result.trace.rounds_total
        cost["messages"] += result.trace.messages_total
        cost["episodes"] += len(result.trace.episodes)
    return {"builds": len(tasks), "reports": reports.hexdigest(),
            "episodes": hashlib.sha256(repr(episodes).encode()).hexdigest(),
            "chosen": chosen.hexdigest(),
            **{alg: ", ".join(f"{k} {v}" for k, v in cost.items())
               for alg, cost in totals.items()}}


if __name__ == "__main__":
    for name, value in hashes().items():
        print(f"{name}: {value}")
