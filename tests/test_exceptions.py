"""Exceptions raised in a worker process reach the parent.

A multiprocessing pool pickles a worker's exception and unpickles it in the
parent's result thread. An exception whose constructor does not accept its
own args cannot be rebuilt there: the thread dies and the pool never
returns. So every exception class of the package must round-trip.
"""

import inspect
import multiprocessing
import pickle
import pkgutil
from importlib import import_module

import pytest

import congestspan
from congestspan import graph, sim, verify

EXAMPLES = [
    verify.ForestError("depth", "vertex 5 at depth 2 > bound 1", 1),
    verify.ForestError("span", "the parent pointers cycle through 2"),
    graph.GraphError("graph is disconnected"),
    graph.GraphParseError("line 3: expected two vertex IDs"),
    sim.ModelViolation("a message carried 3 ids"),
    sim.RoundBudgetExceeded("episode o did not finish within 9 rounds"),
]


def _package_exception_classes():
    for info in pkgutil.iter_modules(congestspan.__path__):
        module = import_module(f"congestspan.{info.name}")
        for _, obj in inspect.getmembers(module, inspect.isclass):
            if issubclass(obj, BaseException) and obj.__module__ == module.__name__:
                yield obj


def test_examples_cover_every_exception_class():
    assert set(_package_exception_classes()) == {type(e) for e in EXAMPLES}


@pytest.mark.parametrize("exc", EXAMPLES, ids=lambda e: type(e).__name__)
def test_exception_round_trips_through_pickle(exc):
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc)
    assert back.args == exc.args
    assert vars(back) == vars(exc)


def test_forest_error_in_a_worker_reaches_the_parent():
    cyclic = {1: None, 2: 3, 3: 4, 4: 2}
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        pending = pool.starmap_async(verify.forest_centers, [(cyclic, set(), 5)])
        with pytest.raises(verify.ForestError, match="^span: "):
            pending.get(timeout=60)
