"""Command line: build a spanner, verify one, or run a benchmark series.

Graphs come from an edge-list file or an inline generator spec of the form
gen:<kind>:key=value,key=value (e.g. gen:gnp_connected:n=64,p=0.1,seed=7).
Every build ends with the full verification pass; the process exits nonzero
if any verdict fails, so reports can gate CI directly.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from collections import Counter
from multiprocessing import Pool
from pathlib import Path
from typing import Callable, Dict, List, Optional, Set

from . import __version__, comm, polylog, sparse, verify
from .exact import as_fraction
from .graph import (Edge, Graph, GraphError, edge_key, generate_graph, load_graph,
                    read_edge_lines, save_edgelist)
from .spanner import INTER, SUPER, BuildResult, PhaseSnapshot, Schedule

SCHEMA_VERSION = 2


def _not_json(constant: str):
    """parse_constant for json.loads, which takes NaN and Infinity otherwise."""
    raise ValueError(f"{constant} is not a JSON value")


def _input_error(message: str) -> int:
    """Report malformed input on stderr; its exit code is 2, so that 1 keeps
    meaning a failed verdict."""
    print(f"error: {message}", file=sys.stderr)
    return 2


def parse_graph_spec(spec: str) -> Graph:
    if spec.startswith("gen:"):
        parts = spec.split(":", 2)
        if len(parts) < 2 or not parts[1]:
            raise GraphError(f"bad generator spec {spec!r}")
        kind = parts[1]
        params: Dict[str, object] = {}
        if len(parts) == 3 and parts[2]:
            for item in parts[2].split(","):
                if "=" not in item:
                    raise GraphError(f"bad generator parameter {item!r}")
                key, val = item.split("=", 1)
                try:
                    params[key] = int(val)
                except ValueError:
                    params[key] = float(val)
        return generate_graph(kind, **params)
    return load_graph(spec)


def _float_or_none(figure: Callable[[], float]) -> Optional[float]:
    """figure(), or None (null in the report) when it does not fit in a float."""
    try:
        value = figure()
    except OverflowError:
        return None
    return value if math.isfinite(value) else None


def _bounds_block(result: BuildResult, sched: Schedule) -> dict:
    """The report's bounds; stretch_checked is the schedule's, which the
    verifier holds the build to."""
    n, kappa = sched.n, sched.kappa
    if result.algorithm == "polylog":
        closed = polylog.stretch_bound(n, kappa) if n >= 2 else 1
        return {
            "stretch_checked": sched.stretch_bound,
            "stretch_checked_formula":
                "2*R_ell + 1; R_0 = 0, R_{i+1} = (2*delta+1)*R_i + delta, "
                "delta = 2*ceil(log2 n), ell = kappa - 1",
            "stretch_closed_form": closed,
            "stretch_closed_form_formula": "(4*ceil(log2 n) + 1)^(kappa-1) + 1",
            "size": float(polylog.size_bound(n, kappa)),
            "size_formula": "(n - 1) + n*(ceil(n^(1/kappa)) - 1)",
            "rounds_model_formula": "(4*ceil(log2 n) + 1)^(kappa-1)",
            "rounds_model": _float_or_none(
                lambda: float(4 * math.ceil(math.log2(max(n, 2))) + 1) ** (kappa - 1)),
        }
    rho = sched.rho
    ell = 0 if n == 1 else sched.ell   # a single vertex runs no phase
    return {
        "stretch_checked": sched.stretch_bound,
        "stretch_checked_formula":
            "4*R_ell + 1; R_0 = 0, R_{i+1} = (2*delta+1)*R_i + delta, "
            "delta = ceil(2/rho)",
        "stretch_closed_form": _float_or_none(
            lambda: sparse.stretch_bound(rho, ell + 1)),
        "stretch_closed_form_formula":
            "2*(4/rho + 1)^(ell+1) + 1 (conservative exponent)",
        "size": float(n) ** (1.0 + 1.0 / kappa) + n,
        "size_formula": "n^(1 + 1/kappa) + n",
        "rounds_model_formula": "n^rho * (4/rho + 1)^(ell+1)",
        "rounds_model": _float_or_none(
            lambda: float(n) ** float(rho) * float(4 / rho + 1) ** (ell + 1)),
    }


def _thresholds(result: BuildResult, sched: Schedule) -> List[float]:
    """Each phase's threshold n^(e_i); polylog's last phase keeps its cap on
    interconnection edges, n^(1/kappa), and sparse's reads 0.0."""
    n = float(sched.n)
    values = [n ** float(e) for e in sched.threshold_expos]
    return values + [values[-1] if result.algorithm == "polylog" else 0.0]


def _schedule_config(result: BuildResult, sched: Schedule) -> dict:
    """The schedule's keys of the config block; a single vertex has none."""
    if result.params["n"] == 1:
        return {}
    keys = {"delta": sched.delta, "ell": sched.ell, "ruling_q": sched.ruling_q}
    if result.algorithm == "sparse":
        keys.update(i0=sched.i0, rho_float=float(sched.rho),
                    deg_thresholds=_thresholds(result, sched)[:-1])
    return keys


def _phase_rows(result: BuildResult, sched: Schedule) -> List[dict]:
    """report.json's per-phase rows, counted from the snapshots and ledger,
    with each phase's bounds from the schedule: null for a snapshot numbered
    outside it, which the phase_counts verdict fails."""
    if not result.snapshots:   # a single vertex: no phase and no radii
        return []
    charged: Counter = Counter()
    for ch in result.spanner.charges:
        charged[ch.phase, ch.kind] += len(ch.edges)
    radius_bounds = dict(enumerate(sched.radius_bounds))
    thresholds = dict(enumerate(_thresholds(result, sched)))
    return [{
        "phase": snap.phase,
        "num_clusters": len(snap.centers()),
        "num_popular": len(snap.popular),
        "num_selected": len(snap.selected),
        "num_settled": len(snap.settled),
        "radius_bound": radius_bounds.get(snap.phase),
        "radius_actual": snap.radius_actual,
        "threshold": thresholds.get(snap.phase),
        "edges_super": charged[snap.phase, SUPER],
        "edges_inter": charged[snap.phase, INTER],
        "rounds": snap.rounds,
    } for snap in result.snapshots]


def build_report(g: Graph, result: BuildResult) -> dict:
    verification = verify.verify_build(g, result)
    sched = verify.schedule(result)
    return {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "graph": {
            "n": g.n,
            "edges": g.num_edges(),
            "id_range": list(g.id_range),
            "meta": g.meta,
        },
        "config": {"algorithm": result.algorithm, **result.params,
                   **_schedule_config(result, sched),
                   "ids_per_message": comm.IDS_PER_MESSAGE},
        "phases": _phase_rows(result, sched),
        "trace": {
            **result.trace.summary(),
            "episodes": [
                {"label": ep.label, "mode": ep.mode,
                 "rounds": ep.rounds_elapsed, "messages": ep.messages_total}
                for ep in result.trace.episodes
            ],
        },
        "bounds": _bounds_block(result, sched),
        "verification": verification,
        "passed": verification["passed"],
    }


def _cluster_dump(snap: PhaseSnapshot, spanner_edges: Set[Edge]) -> dict:
    """One phase's clusters, by center, from the snapshot's parent map."""
    # every tree edge is in the final spanner, and no depth reaches n
    center_of = verify.forest_centers(snap.parent, spanner_edges, len(snap.parent))
    members: Dict[int, List[int]] = {}
    for v in sorted(snap.parent):
        members.setdefault(center_of[v], []).append(v)
    return {"phase": snap.phase, "clusters": [
        {"center": c, "members": vs,
         "tree_parents": {str(v): snap.parent[v] for v in vs}}
        for c, vs in sorted(members.items())]}


def run_build(alg: str, g: Graph, kappa: Optional[int], rho) -> BuildResult:
    if alg == "polylog":
        if kappa is None:
            raise ValueError("polylog needs --kappa")
        return polylog.build_spanner(g, kappa)
    if alg == "sparse":
        if kappa is None or rho is None:
            raise ValueError("sparse needs --kappa and --rho")
        return sparse.build_spanner(g, kappa, as_fraction(rho))
    if alg == "skeleton":
        if rho is None:
            raise ValueError("skeleton needs --rho")
        return sparse.build_skeleton(g, as_fraction(rho))
    raise ValueError(f"unknown algorithm {alg!r}")


def cmd_build(args: argparse.Namespace) -> int:
    try:
        g = parse_graph_spec(args.graph)
        result = run_build(args.alg, g, args.kappa, args.rho)
    except (ValueError, GraphError, OSError) as exc:
        return _input_error(str(exc))
    report = build_report(g, result)
    outdir = Path(args.out or "out")
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        save_edgelist(result.spanner.edges, str(outdir / "spanner.edges"),
                      header=f"spanner of {args.graph} via {args.alg}")
        (outdir / "report.json").write_text(json.dumps(
            report, indent=2, sort_keys=True, allow_nan=False))
        if args.dump_clusters:
            snaps = [_cluster_dump(s, result.spanner.edges)
                     for s in result.snapshots]
            (outdir / "clusters.json").write_text(json.dumps(snaps, indent=2))
    except OSError as exc:
        return _input_error(f"--out {outdir}: {exc}")
    status = "PASS" if report["passed"] else "FAIL"
    print(f"{status} {args.alg} n={g.n} |H|={result.spanner.size()} "
          f"rounds={result.trace.rounds_total} -> {outdir}")
    if not report["passed"]:
        for v in report["verification"]["verdicts"]:
            if not v["ok"]:
                print(f"  failed: {v['name']}: {v['detail']}", file=sys.stderr)
    return 0 if report["passed"] else 1


def cmd_verify(args: argparse.Namespace) -> int:
    if args.bound is not None and math.isnan(args.bound):
        return _input_error(f"--bound {args.bound}: not a number")
    try:
        g = parse_graph_spec(args.graph)
        spanner_graph_edges = {edge_key(u, v)
                               for _, u, v in read_edge_lines(args.spanner)}
    except (ValueError, GraphError, OSError) as exc:
        return _input_error(str(exc))
    report = verify.verify_spanner_file(g, spanner_graph_edges, bound=args.bound)
    report["schema_version"] = SCHEMA_VERSION
    out = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    if args.out:
        Path(args.out).write_text(out)
    else:
        print(out)
    return 0 if report["passed"] else 1


def _bench_point(point: dict) -> dict:
    """One benchmark row; exceptions become a recorded failure, not a crash."""
    try:
        g = parse_graph_spec(point["graph"])
        result = run_build(point.get("alg", "polylog"), g,
                           point.get("kappa"), point.get("rho"))
        verification = verify.verify_build(g, result)
        bounds = _bounds_block(result, verify.schedule(result))
        return {
            "point": point,
            "ok": bool(verification["passed"]),
            "n": g.n,
            "graph_edges": g.num_edges(),
            "spanner_edges": result.spanner.size(),
            "rounds": result.trace.rounds_total,
            "max_edge_stretch": verification["max_edge_stretch"],
            "stretch_bound": verification["stretch_bound"],
            "size_bound": bounds["size"],
            "rounds_model": bounds["rounds_model"],
            "error": None,
        }
    except Exception as exc:  # isolate per-point failures
        return {"point": point, "ok": False, "error": f"{type(exc).__name__}: {exc}"}


def cmd_bench(args: argparse.Namespace) -> int:
    try:
        series = json.loads(Path(args.series).read_text(), parse_constant=_not_json)
    except (OSError, ValueError) as exc:
        return _input_error(f"--series {args.series}: {exc}")
    if not isinstance(series, list):
        return _input_error("series file must hold a JSON list")
    if not all(isinstance(point, dict) for point in series):
        return _input_error("every series entry must be a JSON object")
    try:
        workers = args.workers or int(os.environ.get("CONGESTSPAN_WORKERS", "0")) \
            or (os.cpu_count() or 1)
    except ValueError as exc:
        return _input_error(f"CONGESTSPAN_WORKERS: {exc}")
    outdir = Path(args.out or "bench_out")
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        return _input_error(f"--out {outdir}: {exc}")
    if series and workers > 1:
        with Pool(processes=min(workers, len(series))) as pool:
            rows = pool.map(_bench_point, series)
    else:
        rows = [_bench_point(p) for p in series]
    (outdir / "bench.json").write_text(json.dumps(
        {"schema_version": SCHEMA_VERSION, "rows": rows}, indent=2, sort_keys=True,
        allow_nan=False))
    fields = ["alg", "graph", "kappa", "rho", "n", "graph_edges", "spanner_edges",
              "rounds", "max_edge_stretch", "stretch_bound", "size_bound",
              "rounds_model", "ok", "error"]
    with open(outdir / "bench.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for row in rows:
            flat = {k: row.get(k) for k in fields}
            flat.update({k: row["point"].get(k) for k in ("alg", "graph", "kappa", "rho")})
            writer.writerow(flat)
    bad = [r for r in rows if not r["ok"]]
    print(f"bench: {len(rows) - len(bad)}/{len(rows)} points passed -> {outdir}")
    for r in bad:
        print(f"  failed point {r['point']}: {r.get('error') or 'verdict failure'}",
              file=sys.stderr)
    return 0 if not bad else 1


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="congestspan",
        description="Deterministic spanner construction in a simulated "
                    "CONGEST network, with oracle verification.")
    parser.add_argument("--config", help="JSON file with default option values")
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="build a spanner and verify every claim")
    b.add_argument("--alg", choices=["polylog", "sparse", "skeleton"], required=True)
    b.add_argument("--graph", required=True, help="edge-list file or gen:kind:params")
    b.add_argument("--kappa", type=int)
    b.add_argument("--rho", help="rational like 0.34 or 1/3")
    b.add_argument("--out", help="output directory (default: out)")
    b.add_argument("--dump-clusters", action="store_true",
                   help="also write the per-phase cluster snapshots")
    b.set_defaults(func=cmd_build)

    v = sub.add_parser("verify", help="check a spanner file against its graph")
    v.add_argument("--graph", required=True)
    v.add_argument("--spanner", required=True)
    v.add_argument("--bound", type=float)
    v.add_argument("--out", help="write the report JSON here instead of stdout")
    v.set_defaults(func=cmd_verify)

    be = sub.add_parser("bench", help="run a series of builds in parallel")
    be.add_argument("--series", required=True, help="JSON list of point specs")
    be.add_argument("--out", help="output directory (default: bench_out)")
    be.add_argument("--workers", type=int,
                    help="default: CONGESTSPAN_WORKERS or the CPU count")
    be.set_defaults(func=cmd_bench)
    return parser


def _flag_value(action: argparse.Action, val):
    """val as its flag would hold it: a switch takes only true or false, a
    string goes through the flag's type, and a number is taken only by a
    numeric flag that can hold it."""
    if isinstance(action, argparse._StoreTrueAction):
        if type(val) is bool:
            return val
        raise ValueError(f"expected true or false, got {json.dumps(val)}")
    kind = action.type or str
    if (isinstance(val, str) or type(val) is int and kind in (int, float)
            or type(val) is float and kind is float):
        return kind(val)
    raise ValueError(f"expected {kind.__name__}, got {json.dumps(val)}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    if args.config:
        # the config file supplies values for flags the user left unset
        try:
            defaults = json.loads(Path(args.config).read_text())
        except (OSError, ValueError) as exc:
            return _input_error(f"--config {args.config}: {exc}")
        if not isinstance(defaults, dict):
            return _input_error(f"--config {args.config}: expected a JSON object")
        sub, = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        flags = {a.dest: a for a in sub.choices[args.command]._actions}
        for key, val in defaults.items():
            # a flag left unset holds its default: None, or False for a switch
            if key in flags and getattr(args, key, 0) is flags[key].default:
                try:
                    setattr(args, key, _flag_value(flags[key], val))
                except ValueError as exc:
                    return _input_error(f"--config {args.config}: {key}: {exc}")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
