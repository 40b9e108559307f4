"""Per-layer time attribution for the congestspan benchmark.

Spans are recorded by wrappers that the benchmark installs around the calls
into each layer, for the duration of one traced pass, and removed afterwards.
Each wrapper sits where its caller looks the name up: a function imported by
name into another module (``spanner.run_supercluster_bfs``,
``polylog.run_phases``) is replaced in that module's namespace, a function
called as ``module.name`` is replaced on its own module. Spans stay in memory;
the roll-ups below read them once the pass is over. A layer's self time is
the time its spans cover minus the time their child spans cover.
"""

from __future__ import annotations

import inspect
import re
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional

from congestspan import (comm, graph, polylog, rulingset, sim, sparse, spanner,
                         verify)

# Episode label -> kind, for the sim.kind.* roll-up. Labels are built by the
# orchestrators as "p<phase>.<step>" and "w<wave>.<stage>"; the first pattern
# that matches wins. A label no pattern knows is counted as "other".
EPISODE_KINDS = (
    (re.compile(r"p\d+\.rs\."), "rs"),
    (re.compile(r"w\d+\."), "explore"),
    (re.compile(r"p\d+\.orient$"), "orient"),
    (re.compile(r"p\d+\.exchange$"), "exchange"),
    (re.compile(r"p\d+\.(popflag|popbit|collect)$"), "detect"),
    (re.compile(r"p\d+\.(settle|inter|intercast)$"), "interconnect"),
)
KINDS = ("orient", "exchange", "detect", "rs", "explore", "interconnect", "other")

# One flooded block of the knock-out schedule: its episodes share this prefix.
FLOOD_BLOCK = re.compile(r"^(p\d+\.rs\.L\d+\.b\d+)\.")

# Verdicts of verify_build at n > 64, other than the stretch verdict, which
# is reported as verify.stretch_s.
VERDICTS = ("size", "radius", "partition", "popular_superclustered", "ruling",
            "charges", "phase_counts", "congestion")

SELF_TIME_LAYERS = ("comm", "rulingset", "clusters", "spanner", "polylog",
                    "sparse")


def episode_kind(label: str) -> str:
    for pattern, kind in EPISODE_KINDS:
        if pattern.match(label):
            return kind
    return "other"


class Span:
    __slots__ = ("layer", "name", "start", "end", "parent", "note")

    def __init__(self, layer: str, name: str, start: float, parent: int):
        self.layer = layer
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.note = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans in memory, one list per traced pass."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, layer: str, name: str) -> Iterator[Span]:
        s = self._open(layer, name)
        try:
            yield s
        finally:
            self._close(s)

    def _open(self, layer: str, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        s = Span(layer, name, time.perf_counter(), parent)
        self._stack.append(len(self.spans))
        self.spans.append(s)
        return s

    def _close(self, s: Span) -> None:
        s.end = time.perf_counter()
        self._stack.pop()

    def wrap(self, layer: str, fn: Callable, name: str,
             note: Optional[Callable] = None) -> Callable:
        """fn, recording a span per call; note(args, kwargs, result) is kept
        on the span."""
        def traced(*args, **kwargs):
            s = self._open(layer, name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(s)
            if note is not None:
                s.note = note(args, kwargs, out)
            return out
        traced.__wrapped__ = fn
        return traced


# ---------------------------------------------------------------------------
# Notes kept on spans, for the count roll-ups.

def _episode_note(args, kwargs, trace) -> tuple:
    return trace.label, trace.messages_total


def _iroot_ceil(x: int, q: int) -> int:
    """Smallest r >= 1 with r**q >= x."""
    r = max(1, int(round(x ** (1.0 / q))))
    while r ** q < x:
        r += 1
    while r > 1 and (r - 1) ** q >= x:
        r -= 1
    return r


_KNOCKOUT_SIGNATURE = inspect.signature(rulingset.run_knockout_schedule)


def blocks_scanned(candidates, params, id_range) -> int:
    """Blocks the knock-out merge timetable walks for this ID range.

    The range of width w is split into t = ceil(w ** (1/q)) blocks per level,
    level after level until blocks hold one ID; every block of every level is
    visited, occupied or not.
    """
    lo, hi = id_range
    width = hi - lo + 1
    if width <= 1 or len(candidates) <= 1:
        return 0
    t = max(2, _iroot_ceil(width, params.q))
    levels = 0
    while width > 1:
        width = -(-width // t)
        levels += 1
    return t * levels


def _knockout_note(args, kwargs, alive) -> int:
    bound = _KNOCKOUT_SIGNATURE.bind(*args, **kwargs).arguments
    return blocks_scanned(bound["candidates"], bound["params"],
                          bound["id_range"])


def _verdict_note(args, kwargs, verdict) -> str:
    return verdict.name


def _named(verdict: str) -> Callable:
    return lambda args, kwargs, out: verdict


# ---------------------------------------------------------------------------
# Where the wrappers go.

def _call_sites():
    """(owner, attribute, layer, span name, note) for every wrapped call."""
    yield graph, "generate_graph", "graph", "generate_graph", None
    yield graph, "from_edges", "graph", "from_edges", None
    yield sim, "run", "sim", "run", _episode_note
    for name in ("orient_clusters", "exchange_cluster_ids", "upcast_flags",
                 "downcast_single", "downcast_payloads", "upcast_collect",
                 "upcast_best"):
        yield comm, name, "comm", name, None
    yield (rulingset, "run_knockout_schedule", "rulingset",
           "run_knockout_schedule", _knockout_note)
    for name in ("build_cluster_graph", "run_supercluster_bfs",
                 "stitch_superclusters"):
        yield spanner, name, "clusters", name, None
    for module in (polylog, sparse):
        yield module, "run_phases", "spanner", "run_phases", None
    for module, variant in ((polylog, "_PolylogVariant"),
                            (sparse, "_SparseVariant")):
        cls = getattr(module, variant, None)
        for name in ("detect", "interconnect"):
            yield cls, name, module.__name__.rsplit(".", 1)[1], name, None
    yield polylog, "build_spanner", "polylog", "build_spanner", None
    yield sparse, "build_skeleton", "sparse", "build_skeleton", None
    yield verify, "verify_build", "verify", "verify_build", None
    yield verify, "max_edge_stretch", "verify", "verdict", _named("stretch")
    for module in (polylog, sparse):
        yield module, "size_bound_holds", "verify", "verdict", _named("size")
    for name in sorted(vars(verify)):
        if name.startswith("_") and name.endswith("_verdict"):
            yield verify, name, "verify", "verdict", _verdict_note


@contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Route every wrapped call site through tracer for the with-block.

    A missing public name is an error. The private variant classes are
    wrapped when present; without them their time stays with spanner.
    """
    saved = []
    try:
        for owner, attr, layer, name, note in _call_sites():
            if owner is None:
                continue
            fn = getattr(owner, attr)
            saved.append((owner, attr, fn))
            setattr(owner, attr, tracer.wrap(layer, fn, name, note))
        yield tracer
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


# ---------------------------------------------------------------------------
# Roll-ups.

def self_times(spans: List[Span], scale: float) -> Dict[str, float]:
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.duration
    out: Dict[str, float] = defaultdict(float)
    for s, c in zip(spans, covered):
        out[s.layer] += (s.duration - c) * scale
    return out


def layer_metrics(spans: List[Span], scale: float) -> Dict[str, float]:
    """Per-layer figures of one traced pass, with every duration multiplied
    by scale."""
    selfs = self_times(spans, scale)
    m: Dict[str, float] = {"graph.gen_s": selfs.get("graph", 0.0)}

    run_s = 0.0
    messages = 0
    kind_s = dict.fromkeys(KINDS, 0.0)
    kind_msgs = dict.fromkeys(KINDS, 0)
    for s in spans:
        if s.layer == "sim" and s.note is not None:
            label, sent = s.note
            kind = episode_kind(label)
            run_s += s.duration * scale
            messages += sent
            kind_s[kind] += s.duration * scale
            kind_msgs[kind] += sent
    m["sim.run_s"] = run_s
    m["sim.msgs_per_s"] = messages / run_s if run_s > 0 else 0.0
    for kind in KINDS:
        m[f"sim.kind.{kind}_s"] = kind_s[kind]
        m[f"sim.kind.{kind}_messages"] = kind_msgs[kind]

    for layer in SELF_TIME_LAYERS:
        m[f"{layer}.self_s"] = selfs.get(layer, 0.0)

    scanned = sum(s.note for s in spans
                  if s.name == "run_knockout_schedule" and s.note is not None)
    m["rulingset.blocks_scanned"] = scanned
    m["rulingset.blocks_flooded"] = _flooded_blocks(spans)
    m["rulingset.block_hit_ratio"] = (m["rulingset.blocks_flooded"] / scanned
                                      if scanned else 0.0)

    verdict_s = dict.fromkeys(("stretch",) + VERDICTS, 0.0)
    for s in spans:
        if s.name == "verdict" and s.note is not None:
            verdict_s[s.note] = verdict_s.get(s.note, 0.0) + s.duration * scale
    m["verify.stretch_s"] = verdict_s["stretch"]
    for name in VERDICTS:
        m[f"verify.verdict.{name}_s"] = verdict_s[name]
    return m


def _flooded_blocks(spans: List[Span]) -> int:
    """Distinct flooded blocks, counted per build: labels repeat across
    builds, so the set is reset at each build's root span."""
    total = 0
    seen: set = set()
    for s in spans:
        if s.layer == "bench" and s.name == "build":
            total += len(seen)
            seen = set()
        elif s.layer == "sim" and s.note is not None:
            hit = FLOOD_BLOCK.match(s.note[0])
            if hit:
                seen.add(hit.group(1))
    return total + len(seen)
