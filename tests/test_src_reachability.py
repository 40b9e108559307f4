"""The package holds only what its command line runs.

``congestspan`` exists to build spanners and skeletons and to verify them,
so every public function of ``src/congestspan``, and every public method and
property of each public class that is not a ``Protocol``, must run during a
handful of ``build``, ``verify`` and ``bench`` calls. A name that only the
tests reach belongs in the tests (see ``oracles.py`` and ``corpus.py``).

The calls run in-process under ``sys.setprofile``, which records the code
object of every Python function entered. The gnp builds have n <= 64, so
that the verifier's small-n oracles run too.
"""

import inspect
import pkgutil
import sys
from importlib import import_module
from typing import Protocol

import congestspan
from congestspan import cli

GNP = "gen:gnp_connected:n=48,p=0.12,seed=3"

# sim.run, with its NodeApi and NodeProgram, is the tests' reference engine
# for the kernels. The benchmark's tracer (perfbench/tracing.py) wraps
# sim.run by name, so it stays in sim until the tracer stops doing so.
REFERENCE_ENGINE = {"congestspan.sim.run", "congestspan.sim.NodeApi",
                    "congestspan.sim.NodeProgram"}


def _public_code():
    """Qualified name -> code object of every public function, method and
    property getter defined in the package."""
    for info in pkgutil.iter_modules(congestspan.__path__):
        module = import_module(f"congestspan.{info.name}")
        for name, obj in vars(module).items():
            where = f"{module.__name__}.{name}"
            if (name.startswith("_") or where in REFERENCE_ENGINE
                    or getattr(obj, "__module__", None) != module.__name__):
                continue
            if inspect.isfunction(obj):
                yield where, obj.__code__
            elif inspect.isclass(obj) and Protocol not in obj.__mro__:
                for attr, member in vars(obj).items():
                    if isinstance(member, property):
                        member = member.fget
                    if not attr.startswith("_") and inspect.isfunction(member):
                        yield f"{where}.{attr}", member.__code__


def _run_cli(tmp_path):
    edges = tmp_path / "g.edges"
    edges.write_text("".join(f"{i} {i + 1}\n" for i in range(1, 30))
                     + "".join(f"{i} {i + 10}\n" for i in range(1, 21)))
    series = tmp_path / "series.json"
    series.write_text(f'[{{"alg": "polylog", "graph": "{GNP}", "kappa": 3}}]')
    out = tmp_path / "out"
    runs = [
        ["build", "--alg", "polylog", "--kappa", "3", "--graph", GNP,
         "--out", str(out / "polylog"), "--dump-clusters"],
        ["build", "--alg", "sparse", "--kappa", "3", "--rho", "1/3",
         "--graph", GNP, "--out", str(out / "sparse")],
        ["build", "--alg", "skeleton", "--rho", "0.34", "--graph", GNP,
         "--out", str(out / "skeleton")],
        ["build", "--alg", "polylog", "--kappa", "2", "--graph", str(edges),
         "--out", str(out / "file")],
        ["build", "--alg", "polylog", "--kappa", "2", "--graph", "gen:path:n=1",
         "--out", str(out / "one")],
        ["verify", "--graph", GNP, "--spanner",
         str(out / "polylog" / "spanner.edges"), "--bound", "40",
         "--out", str(out / "verify.json")],
        ["bench", "--series", str(series), "--workers", "1",
         "--out", str(out / "bench")],
    ]
    return [cli.main(argv) for argv in runs]


def test_every_public_name_runs_under_the_cli(tmp_path, capsys):
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profile)
    try:
        codes = _run_cli(tmp_path)
    finally:
        sys.setprofile(None)
    assert codes == [0] * len(codes), capsys.readouterr().err
    unreached = sorted(name for name, code in _public_code()
                       if code not in entered)
    assert not unreached, f"only the tests reach: {', '.join(unreached)}"
