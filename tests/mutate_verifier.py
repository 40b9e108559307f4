"""Mutation gate for the verifier: every hand-made weakening must fail tier-1.

Not collected by the test suite (the file name does not match test_*.py).
Run it from anywhere with

    python tests/mutate_verifier.py

For each mutant below it copies the repository into a temporary directory,
applies the mutant to that copy's ``src/congestspan`` (never to the sources
in place), and runs tier-1 there with ``src`` of the copy first on the path.
A mutant is killed when tier-1 fails. Before the mutants, the unmutated copy
must pass. It prints a kill table and exits 1 if any mutant survives, cannot
be applied, or breaks the run in another way (pytest exit code other than 0
or 1). Uses the standard library only, apart from pytest itself.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, List, NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
COPY_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis",
                                     ".pytest_cache")


class Mutant(NamedTuple):
    name: str
    module: str                    # a file of src/congestspan
    edit: Callable[[str], str]     # module source -> mutated source


def _function(source: str, name: str) -> ast.FunctionDef:
    found = [node for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.FunctionDef) and node.name == name]
    if len(found) != 1:
        raise LookupError(f"{len(found)} functions named {name}")
    return found[0]


def _insert(source: str, node: ast.stmt, statement: str) -> str:
    """source with statement inserted as a line before node, at its indent."""
    lines = source.splitlines(keepends=True)
    at = node.lineno - 1
    return "".join(lines[:at] + [" " * node.col_offset + statement + "\n"]
                   + lines[at:])


def returns(function: str, value: str) -> Callable[[str], str]:
    """function returns value before it checks anything."""
    def edit(source: str) -> str:
        return _insert(source, _function(source, function).body[0],
                       f"return {value}")
    return edit


def vacuous(verdict: str) -> Callable[[str], str]:
    """The verdict returns its own pass Verdict, with the same text, as soon
    as its leading assignments have run."""
    def edit(source: str) -> str:
        fn = _function(source, verdict)
        passing = ast.get_source_segment(source, fn.body[-1])
        if not passing.startswith("return Verdict("):
            raise LookupError(f"{verdict} does not end in its pass Verdict")
        first = next(s for s in fn.body if not isinstance(s, ast.Assign))
        return _insert(source, first, " ".join(passing.split()))
    return edit


def replace(old: str, new: str) -> Callable[[str], str]:
    def edit(source: str) -> str:
        if source.count(old) != 1:
            raise LookupError(f"{source.count(old)} occurrences of {old!r}")
        return source.replace(old, new)
    return edit


MUTANTS: List[Mutant] = [
    *(Mutant(f"vacuous {name}", "verify.py", vacuous(function))
      for name, function in (
          ("popular_superclustered", "_popular_settled_verdict"),
          ("ruling", "_ruling_verdict"),
          ("charges", "_charge_verdict"),
          ("congestion", "_congestion_verdict"),
          ("supercluster_oracle", "_supercluster_oracle_verdict"),
          ("knowledge_oracle", "_knowledge_oracle_verdict"))),
    Mutant("polylog.size_bound_holds always True", "polylog.py",
           returns("size_bound_holds", "True")),
    Mutant("sparse.size_bound_holds always True", "sparse.py",
           returns("size_bound_holds", "True")),
    Mutant("polylog cluster-count bound never fails", "verify.py",
           replace("if not count_le_pow(clusters, n, Fraction(kappa - snap.phase, kappa)):",
                   "if False:")),
    Mutant("sparse counting checks always []", "verify.py",
           returns("_sparse_count_failures", "[]")),
    Mutant("subgraph check finds no edge outside the graph", "verify.py",
           replace("outside = result.spanner.edges - g.edge_set()",
                   "outside = set()")),
    Mutant("phase-numbering check never fails", "verify.py",
           replace("if got != want:", "if False:")),
    Mutant("ledger tie never fails", "verify.py",
           replace("if charged != spanner.edges:", "if False:")),
    Mutant("polylog interconnection cap loosened by one", "verify.py",
           replace("elif inters > vertex_cap:",
                   "elif inters > vertex_cap + 1:")),
    Mutant("congestion width cap raised to 3 ids", "verify.py",
           replace("if tr.max_ids_per_message > 2:",
                   "if tr.max_ids_per_message > 3:")),
    Mutant("core stretch drops the heights of cross-anchor edges", "verify.py",
           replace("d = height[u] + height[v] + d_core.get(",
                   "d = d_core.get(")),
    Mutant("core stretch takes |h(u) - h(v)| for same-anchor edges", "verify.py",
           replace("d = _tree_distance(parent, height, u, v)",
                   "d = abs(h_u - height[v])")),
    Mutant("walk bound takes max(h(u), h(v)) for h(u) + h(v)", "verify.py",
           replace("if h_u + height[v] <= worst:",
                   "if max(h_u, height[v]) <= worst:")),
    Mutant("tree walk skips its joint lift to the common ancestor", "verify.py",
           replace("while a != b:", "while False:")),
    Mutant("superedge scan keeps the largest witness, not the least", "verify.py",
           replace("witness.setdefault((cu, cv) if cu < cv else (cv, cu), (v, u))",
                   "witness[(cu, cv) if cu < cv else (cv, cu)] = (v, u)")),
    Mutant("core search reports its hits one round late", "verify.py",
           replace("batch_max, batch_pair = k, hit",
                   "batch_max, batch_pair = k + 1, hit")),
    Mutant("meet search records an odd distance 2k - 1 as 2k", "verify.py",
           replace("odd, even = 2 * k - 1, 2 * k", "odd, even = 2 * k, 2 * k")),
    Mutant("meet search's hand-off keeps its own maximum, not the far one", "verify.py",
           replace("                return far, far_pair, record",
                   "                return worst, worst_pair, record")),
    # the build's knock-out blocks, whose levels must nest
    Mutant("knock-out widths rounded up per level", "rulingset.py",
           replace("""    widths = [1]
    while widths[-1] < width:
        widths.append(widths[-1] * t)
    return widths[::-1]""", """    widths = [width]
    while widths[-1] > 1:
        widths.append(-(-widths[-1] // t))
    return widths""")),
]


def tier1_on_copy(work: Path, module: str, edit: Callable[[str], str]) -> int:
    """pytest's exit code on a fresh copy of the repository in work, with
    edit applied to src/congestspan/module; LookupError if it cannot be."""
    copy = work / "repo"
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(ROOT, copy, ignore=COPY_IGNORE)
    path = copy / "src" / "congestspan" / module
    path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(copy / "src")}
    return subprocess.run(TIER1, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def outcome(mutant: Mutant, work: Path) -> str:
    try:
        code = tier1_on_copy(work, mutant.module, mutant.edit)
    except LookupError as exc:
        return f"not applied: {exc}"
    return {0: "SURVIVED", 1: "killed"}.get(code, f"error: pytest exit {code}")


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="mutate_verifier_") as tmp:
        work = Path(tmp)
        start = time.perf_counter()
        code = tier1_on_copy(work, "verify.py", lambda source: source)
        if code:
            print(f"tier-1 fails on the unmutated copy (pytest exit {code}); "
                  f"no mutant can be judged")
            return 1
        print(f"unmutated copy passes tier-1 ({time.perf_counter() - start:.0f} s)")
        width = max(len(m.name) for m in MUTANTS)
        print(f"{'mutant':<{width}}  {'result':<10}  seconds")
        bad = 0
        for mutant in MUTANTS:
            start = time.perf_counter()
            result = outcome(mutant, work)
            bad += result != "killed"
            print(f"{mutant.name:<{width}}  {result:<10}  "
                  f"{time.perf_counter() - start:7.1f}", flush=True)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
