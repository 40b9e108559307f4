"""The ruling sweep: small builds of five shapes at many vertex counts, each
held to the full verifier.

Not collected by the test suite (the file name does not match test_*.py).
Run it from anywhere with

    python3 tests/sweep_ruling.py

It builds the path, the cycle (from n = 3), the random tree (seed n) and the
near-square grid at every n of SIZES, plus G(n, p) with p = 2 ln n / n (seed
n) from n = 8, each with every configuration of CONFIGS: polylog at
kappa = 2, 3, 5 and 8, sparse at kappa = 3 and rho = 1/3, and the skeleton at
rho = 1/10. The vertex counts are mostly not powers of two, so the knock-out
schedule's ID range is rarely a power of its branching factor. It prints the
number of builds and, per failing verdict, algorithm and configuration, how
many builds failed it with the first of them. It exits 1 when a build fails
any verdict, and 0 otherwise.

tests/test_ruling_sweep.py runs a slice of it in tier-1. Uses the standard
library only, apart from the package and the corpus helpers, which it
imports from this checkout.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from corpus import gnp_p   # noqa: E402
from congestspan import cli, verify   # noqa: E402
from congestspan import graph as gr   # noqa: E402

SIZES = tuple(range(2, 80)) + (100, 128, 129, 200, 256, 257, 300)
SHAPES = ("path", "cycle", "random_tree", "grid", "gnp")
# (algorithm, kappa, rho) per build of a graph
CONFIGS = (("polylog", 2, None), ("polylog", 3, None), ("polylog", 5, None),
           ("polylog", 8, None), ("sparse", 3, "1/3"), ("skeleton", None, "1/10"))
Config = Tuple[str, Optional[int], Optional[str]]


def make_graph(shape: str, n: int) -> Optional[gr.Graph]:
    """The sweep's graph of shape on n vertices, or None where the shape has
    none: the cycle below 3 vertices and G(n, p) below 8."""
    if shape == "cycle" and n < 3 or shape == "gnp" and n < 8:
        return None
    if shape == "gnp":
        return gr.generate_graph("gnp_connected", n=n, p=gnp_p(n), seed=n)
    if shape == "random_tree":
        return gr.generate_graph(shape, n=n, seed=n)
    return gr.generate_graph(shape, n=n)


def sweep(sizes: Iterable[int], shapes: Iterable[str], configs: Iterable[Config]
          ) -> Iterator[Tuple[Config, str, List[str]]]:
    """(configuration, graph name, failed verdicts) per build, shape by shape
    and n by n."""
    configs = list(configs)
    for shape in shapes:
        for n in sizes:
            g = make_graph(shape, n)
            if g is None:
                continue
            for alg, kappa, rho in configs:
                report = verify.verify_build(g, cli.run_build(alg, g, kappa, rho))
                failed = [v["name"] for v in report["verdicts"] if not v["ok"]]
                yield (alg, kappa, rho), f"{shape} n={n}", failed


def describe(config: Config) -> str:
    alg, kappa, rho = config
    return " ".join([alg] + [f"{key}={value}" for key, value in
                             (("kappa", kappa), ("rho", rho)) if value is not None])


def main() -> int:
    start = time.perf_counter()
    builds = 0
    failures: Dict[Tuple[str, str], List[str]] = {}
    for config, name, failed in sweep(SIZES, SHAPES, CONFIGS):
        builds += 1
        for verdict in failed:
            failures.setdefault((verdict, describe(config)), []).append(name)
    print(f"builds: {builds} in {time.perf_counter() - start:.1f} s")
    for (verdict, config), names in sorted(failures.items()):
        print(f"{verdict}: {config}: {len(names)} failed, first {names[0]}")
    if not failures:
        print("no verdict failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
