"""Two runs of the same build are byte-identical.

Each case builds and verifies a freshly generated graph twice and compares
the JSON of the verdict block and of the trace summary. The same cases also
run in two interpreters with different string-hash seeds, so no result may
depend on set or dict iteration order over hashed strings.
"""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from congestspan import graph as gr
from congestspan import polylog, sparse, verify

CASES = {
    "gnp96-polylog3": (
        lambda: gr.generate_graph("gnp_connected", n=96, p=0.08, seed=7),
        lambda g: polylog.build_spanner(g, 3)),
    "gnp96-sparse3": (
        lambda: gr.generate_graph("gnp_connected", n=96, p=0.08, seed=8),
        lambda g: sparse.build_spanner(g, 3, Fraction(1, 3))),
    "grid100-skeleton": (
        lambda: gr.generate_graph("grid", n=100),
        lambda g: sparse.build_skeleton(g, Fraction(34, 100))),
    "gnp80-wide-ids-skeleton": (
        lambda: _wide_ids(gr.generate_graph("gnp_connected", n=80, p=0.1, seed=9)),
        lambda g: sparse.build_skeleton(g, Fraction(34, 100))),
}


def _wide_ids(g: gr.Graph) -> gr.Graph:
    ids = random.Random(9).sample(range(1, 2 ** 63), g.n)
    new_id = dict(zip(g.vertices, ids))
    return gr.from_edges((new_id[u], new_id[v]) for u, v in g.edges())


def run_case(name: str) -> str:
    make_graph, build = CASES[name]
    g = make_graph()
    result = build(g)
    record = {"verification": verify.verify_build(g, result),
              "trace": result.trace.summary()}
    return json.dumps(record, sort_keys=True, default=str)


@pytest.mark.parametrize("name", sorted(CASES))
def test_rerun_is_byte_identical(name):
    first = run_case(name)
    assert json.loads(first)["verification"]["passed"]
    assert run_case(name) == first


def test_identical_across_hash_seeds():
    src = Path(__file__).parent.parent / "src"
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(src))
        proc = subprocess.run([sys.executable, __file__], env=env, check=True,
                              capture_output=True, text=True, timeout=300)
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0]) == {name: run_case(name) for name in sorted(CASES)}


if __name__ == "__main__":
    print(json.dumps({name: run_case(name) for name in sorted(CASES)}))
