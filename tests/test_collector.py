"""The build and the verifier run with the cyclic garbage collector paused.

That is safe only because neither makes a reference cycle: reference
counting then frees everything they drop, and a generation-2 collection
inside them would only rescan live objects. The first test pins that
property; the others check that the pause hands the caller's collector
setting back, also when the paused code raises.
"""

import gc
from fractions import Fraction

import pytest

from congestspan import comm, polylog, sparse, verify
from congestspan import graph as gr
from corpus import graph_specs, make_graph

# a few corpus graphs on each side of verify.ALL_PAIRS_LIMIT, so that the
# small-n oracles run too
SPECS = [spec for n in (64, 128) for name, spec in graph_specs(n)
         if name in ("grid", "random_tree", "gnp1")]

BUILDS = {
    "polylog": lambda g: polylog.build_spanner(g, 3),
    "sparse": lambda g: sparse.build_spanner(g, 3, Fraction(1, 3)),
    "skeleton": lambda g: sparse.build_skeleton(g, Fraction(34, 100)),
}


@pytest.fixture
def collector():
    """Restores the collector setting the test started with."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


@pytest.mark.parametrize("alg", sorted(BUILDS))
def test_build_and_verify_make_no_reference_cycles(alg, collector):
    gc.collect()
    gc.disable()
    for spec in SPECS:
        g = make_graph(spec)
        result = BUILDS[alg](g)
        assert verify.verify_build(g, result)["passed"], spec
    del g, result
    assert gc.collect() == 0


@pytest.fixture(scope="module")
def small_build():
    g = gr.generate_graph("gnp_connected", n=48, p=0.1, seed=2)
    return g, polylog.build_spanner(g, 3)


# run_phases as the polylog construction calls it
STEPS = {
    "run_phases": lambda g, build: polylog.build_spanner(g, 3),
    "verify_build": verify.verify_build,
}


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
@pytest.mark.parametrize("step", sorted(STEPS))
def test_the_callers_collector_setting_is_restored(step, enabled, small_build,
                                                   collector):
    (gc.enable if enabled else gc.disable)()
    STEPS[step](*small_build)
    assert gc.isenabled() is enabled


class Raised(Exception):
    pass


@pytest.mark.parametrize("step, module, name", [
    ("run_phases", comm, "orient_clusters"),
    ("verify_build", verify, "max_edge_stretch"),
])
def test_the_setting_is_restored_when_the_paused_code_raises(
        step, module, name, small_build, monkeypatch, collector):
    """A kernel inside the paused region raises: it sees the collector off,
    and the caller sees it on again."""
    seen = []

    def raising(*args, **kwargs):
        seen.append(gc.isenabled())
        raise Raised

    monkeypatch.setattr(module, name, raising)
    gc.enable()
    with pytest.raises(Raised):
        STEPS[step](*small_build)
    assert seen == [False]
    assert gc.isenabled()
