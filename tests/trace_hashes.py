"""Equivalence hashes over the acceptance corpus builds.

Not collected by the test suite (the file name does not match test_*.py).
Run it from anywhere with

    python3 tests/trace_hashes.py

It builds each of the 750 points of ``corpus.build_tasks()`` in order and
prints four sha256 digests, per algorithm the simulated cost summed over its
builds, and a fifth digest over the benchmark instances:

- ``reports``: over the concatenation of
  ``json.dumps(cli.build_report(g, result), sort_keys=True)`` of every build,
  verification included;
- ``episodes``: over ``repr`` of the list of every build's episode list,
  one ``(label, mode, rounds, messages, max_ids)`` tuple per episode;
- ``chosen``: over ``repr`` of each build's sorted spanner edges and, per
  phase, its sorted popular set, selected set and joins, in build order;
- ``ledger``: over ``repr`` of each build's charge records, in ledger
  order, and of each sparse phase's ``knowledge`` map (center -> {cluster:
  witness}, in admission order), in build order;
- ``polylog`` and ``sparse``: the total rounds, messages and episodes;
- ``bench``: over ``repr`` of each build's ``chosen`` record and episode
  tuples, for every instance of seed 1 of the four benchmark workloads in
  ``perfbench/workloads.py`` order, built as ``perfbench/workloads.py``
  builds them.

A change meant to affect only wall time must leave all of them alone; a
change to the protocol states its cost change across the corpus by the
totals, and one that must pick the same spanners, ruling sets and joins
leaves ``chosen`` and ``bench`` alone, and one that must charge the same
edges to the same vertices leaves ``ledger`` alone. Uses the standard library only, apart
from the package, the corpus helpers and the benchmark workloads, which it
imports from this checkout.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE), str(HERE.parent / "perfbench")]

import corpus   # noqa: E402
import workloads   # noqa: E402
from congestspan import cli, polylog, sparse   # noqa: E402

BENCH_SEED = 1


def build(task: tuple):
    """(graph, build result) of one corpus point."""
    alg, _, spec, kappa, rho = task
    g = corpus.make_graph(spec)
    if alg == "polylog":
        return g, polylog.build_spanner(g, kappa)
    return g, sparse.build_spanner(g, kappa, corpus._rho(rho))


def episode_tuples(result) -> list:
    """(label, mode, rounds, messages, max_ids) of each of a build's
    episodes."""
    return [(ep.label, ep.mode, ep.rounds_elapsed, ep.messages_total,
             ep.max_ids_per_message) for ep in result.trace.episodes]


def chosen_record(result) -> tuple:
    """A build's sorted spanner edges and, per phase, its sorted popular
    set, selected set and joins."""
    return (sorted(result.spanner.edges),
            [(sorted(snap.popular), sorted(snap.selected), sorted(snap.joins.items()))
             for snap in result.snapshots])


def ledger_record(result) -> tuple:
    """A build's charge records in ledger order and each sparse phase's
    knowledge map."""
    return (result.spanner.charges,
            [snap.knowledge for snap in result.snapshots
             if snap.knowledge is not None])


def bench_digest() -> str:
    """sha256 over the chosen record and episode tuples of every benchmark
    instance of BENCH_SEED."""
    digest = hashlib.sha256()
    for w in workloads.WORKLOADS.values():
        for index in range(w.instances):
            result = w.build(w.make(BENCH_SEED, index))
            digest.update(repr((chosen_record(result),
                                episode_tuples(result))).encode())
    return digest.hexdigest()


def hashes() -> dict:
    """{"builds", "reports", "episodes", "chosen", "ledger"} over every
    corpus point,
    per algorithm the summed rounds, messages and episodes of its builds,
    and "bench" over the benchmark instances."""
    reports, chosen, ledger = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    episodes = []
    totals = {alg: dict.fromkeys(("rounds", "messages", "episodes"), 0)
              for alg in ("polylog", "sparse")}
    tasks = corpus.build_tasks()
    for task in tasks:
        g, result = build(task)
        reports.update(json.dumps(cli.build_report(g, result),
                                  sort_keys=True).encode())
        episodes.append(episode_tuples(result))
        chosen.update(repr(chosen_record(result)).encode())
        ledger.update(repr(ledger_record(result)).encode())
        cost = totals[task[0]]
        cost["rounds"] += result.trace.rounds_total
        cost["messages"] += result.trace.messages_total
        cost["episodes"] += len(result.trace.episodes)
    return {"builds": len(tasks), "reports": reports.hexdigest(),
            "episodes": hashlib.sha256(repr(episodes).encode()).hexdigest(),
            "chosen": chosen.hexdigest(), "ledger": ledger.hexdigest(),
            **{alg: ", ".join(f"{k} {v}" for k, v in cost.items())
               for alg, cost in totals.items()},
            "bench": bench_digest()}


if __name__ == "__main__":
    for name, value in hashes().items():
        print(f"{name}: {value}")
