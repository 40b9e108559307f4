"""Episodes are recorded in one place: Net.cast.

The check needs only the standard library's ast: across the package, every
call of a method named absorb sits inside Net.cast, and no function of sim or
comm takes a parameter named fold, the callback shape of a second recording
path that delivered rounds past Net.cast. Beside it, no module but sim names
Message: the build's messages are plain ID tuples, and Message is the
reference engine's, sim.run's.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "congestspan"


def _functions(tree: ast.AST, prefix: str = ""):
    """(qualified name, node) of every function, methods and nested ones
    included."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name, node
            yield from _functions(node, f"{prefix}{node.name}.")
        elif isinstance(node, ast.ClassDef):
            yield from _functions(node, f"{prefix}{node.name}.")
        else:
            yield from _functions(node, prefix)


def absorb_callers(source: str, module: str) -> list:
    """The innermost function around each .absorb( call, by qualified name,
    sorted; the module name alone for a call outside every function."""
    tree = ast.parse(source)
    owner = {}
    for name, fn in _functions(tree):
        for node in ast.walk(fn):
            owner[id(node)] = name   # inner functions come later and win
    return sorted(f"{module}.{owner[id(node)]}" if id(node) in owner else module
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "absorb")


def fold_parameters(source: str) -> list:
    tree = ast.parse(source)
    out = []
    for name, fn in _functions(tree):
        args = fn.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        params += [a for a in (args.vararg, args.kwarg) if a is not None]
        out += [name for a in params if a.arg == "fold"]
    return out


def message_names(source: str) -> int:
    """How often source names Message: as a name, an attribute or an
    imported name."""
    return sum(1 for node in ast.walk(ast.parse(source))
               if isinstance(node, ast.Name) and node.id == "Message"
               or isinstance(node, ast.Attribute) and node.attr == "Message"
               or isinstance(node, ast.alias) and node.name == "Message")


def test_only_net_cast_records_an_episode():
    callers = []
    for path in sorted(PACKAGE.glob("*.py")):
        callers += absorb_callers(path.read_text(encoding="utf-8"), path.stem)
    assert callers == ["comm.Net.cast"]


def test_no_fold_callbacks_in_sim_or_comm():
    for module in ("sim", "comm"):
        source = (PACKAGE / f"{module}.py").read_text(encoding="utf-8")
        assert fold_parameters(source) == [], module


def test_only_sim_names_message():
    namers = [path.stem for path in sorted(PACKAGE.glob("*.py"))
              if message_names(path.read_text(encoding="utf-8"))]
    assert namers == ["sim"]


def test_scans_find_a_second_path():
    source = ("class Net:\n"
              "    def cast(self, trace):\n"
              "        self.trace.absorb(trace)\n"
              "    def broadcast_round(self, sends, fold):\n"
              "        def hear(v, *, fold=None):\n"
              "            self.trace.absorb(v)\n"
              "        hear(sends)\n"
              "trace.absorb(None)\n")
    assert absorb_callers(source, "comm") == [
        "comm", "comm.Net.broadcast_round.hear", "comm.Net.cast"]
    assert fold_parameters(source) == ["Net.broadcast_round",
                                       "Net.broadcast_round.hear"]
    assert message_names("from .sim import Message as M\n"
                         "m = sim.Message(0)\n"
                         "def f(x: Message): pass\n") == 3
