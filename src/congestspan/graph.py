"""Undirected unweighted graphs: loading, generation, and breadth-first search.

Vertices are positive integers with distinct IDs. Generators number vertices
1..n, one vertex alone included; loaded graphs may use any distinct IDs in
[1, 2^64 - 1], and the observed ID interval is kept on the graph because the
ruling-set block splitting needs an explicit ID range. All neighbor lists
are sorted ascending so that every "arbitrary" choice made downstream is
deterministic. bfs_layers is the module's one search. G(n, p) reads the
words of CPython's random() in bulk; the tests hold it to the graphs of one
random() call per vertex pair, oracles.gnp_connected.
"""

from __future__ import annotations

import inspect
import math
import random
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

Edge = Tuple[int, int]


class GraphError(ValueError):
    """Malformed or out-of-model input graph (disconnected, self-loop, ...)."""


class GraphParseError(GraphError):
    """Unparseable edge-list text."""


def edge_key(u: int, v: int) -> Edge:
    """Canonical unordered edge representation: smaller endpoint first."""
    return (u, v) if u < v else (v, u)


class Graph:
    """Immutable undirected connected graph with sorted adjacency lists."""

    __slots__ = ("n", "vertices", "adjacency", "id_range", "meta", "_edge_set")

    def __init__(self, adjacency: Dict[int, List[int]], meta: Optional[dict] = None):
        self.vertices: Tuple[int, ...] = tuple(sorted(adjacency))
        self.n: int = len(self.vertices)
        self.adjacency: Dict[int, Tuple[int, ...]] = {
            v: tuple(sorted(adjacency[v])) for v in self.vertices
        }
        self.meta: dict = dict(meta or {})
        self._validate()
        self.id_range: Tuple[int, int] = (self.vertices[0], self.vertices[-1])

    def _validate(self) -> None:
        if self.n == 0:
            raise GraphError("graph has no vertices")
        seen: Set[Edge] = set()
        degree_sum = 0
        for v, nbrs in self.adjacency.items():
            if v <= 0:
                raise GraphError(f"vertex id {v} is not a positive integer")
            # nbrs is sorted, so a parallel entry repeats its predecessor; it
            # is reported after the vertex's self-loop and outside checks
            prev = parallel = None
            for u in nbrs:
                if u == v:
                    raise GraphError(f"self-loop at vertex {v}")
                if u not in self.adjacency:
                    raise GraphError(f"edge ({v},{u}) points outside the vertex set")
                if u == prev:
                    parallel = True
                prev = u
                seen.add(edge_key(u, v))
            if parallel:
                raise GraphError(f"parallel edge at vertex {v}")
            degree_sum += len(nbrs)
        # With no self-loops or parallel entries, each edge is listed once or
        # twice, so the lists are symmetric exactly when each is listed twice.
        # Only then is the O(deg) membership test per edge needed, to name the
        # first one-sided edge.
        if 2 * len(seen) != degree_sum:
            for u, v in seen:
                if u not in self.adjacency[v] or v not in self.adjacency[u]:
                    raise GraphError(f"asymmetric adjacency on edge ({u},{v})")
        if not self.is_connected():
            raise GraphError("graph is disconnected")
        self._edge_set = seen

    def edges(self) -> Iterator[Edge]:
        for v in self.vertices:
            for u in self.adjacency[v]:
                if v < u:
                    yield (v, u)

    def edge_set(self) -> Set[Edge]:
        return self._edge_set

    def num_edges(self) -> int:
        return len(self.edge_set())

    def is_connected(self) -> bool:
        return sum(map(len, bfs_layers(self.adjacency, self.vertices[:1]))) == self.n


def from_edges(edges: Iterable[Edge], meta: Optional[dict] = None, n: int = 0) -> Graph:
    """The graph of edges, whose vertices are their endpoints and 1..n."""
    adj: Dict[int, List[int]] = {v: [] for v in range(1, n + 1)}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    return Graph(adj, meta)


def parse_vertex_id(token: str) -> int:
    """A vertex ID: ASCII digits whose value is in [1, 2^64 - 1]. Anything
    else, such as a sign, an underscore, a non-ASCII digit, zero or 2^64,
    raises GraphParseError."""
    if token.isascii() and token.isdigit() and len(token.lstrip("0")) <= 20:
        v = int(token)
        if 0 < v < 2 ** 64:
            return v
    raise GraphParseError(f"vertex id {token!r} is not an integer in [1, 2^64 - 1]")


def read_edge_lines(path: str) -> Iterator[Tuple[int, int, int]]:
    """(line number, u, v) per "u v" line of an edge-list file, where '#'
    starts a comment; a line that is not two vertex IDs raises
    GraphParseError naming the file and the line."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise GraphParseError(f"{path}:{lineno}: expected 'u v', got {line!r}")
            try:
                u, v = map(parse_vertex_id, parts)
            except GraphParseError as exc:
                raise GraphParseError(f"{path}:{lineno}: {exc}") from None
            yield lineno, u, v


def load_graph(path: str) -> Graph:
    """Read an edge-list file (see read_edge_lines)."""
    edges: List[Edge] = []
    seen: Set[Edge] = set()
    for lineno, u, v in read_edge_lines(path):
        if u == v:
            raise GraphError(f"{path}:{lineno}: self-loop at vertex {u}")
        key = edge_key(u, v)
        if key in seen:
            raise GraphError(f"{path}:{lineno}: duplicate edge ({u},{v})")
        seen.add(key)
        edges.append(key)
    if not edges:
        raise GraphParseError(f"{path}: no edges found")
    return from_edges(edges, meta={"source": path})


def save_edgelist(edges: Iterable[Edge], path: str, header: str = "") -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(f"# {header}\n")
        for u, v in sorted(edge_key(a, b) for a, b in edges):
            fh.write(f"{u} {v}\n")


# ---------------------------------------------------------------------------
# Generators. Deterministic for a fixed seed; vertex ids are 1..n.

def generate_graph(kind: str, seed: int = 0, **params) -> Graph:
    try:
        fn = _GENERATORS[kind]
    except KeyError:
        raise GraphError(f"unknown generator kind {kind!r}") from None
    try:
        inspect.signature(fn).bind(seed=seed, **params)
    except TypeError as exc:
        raise GraphError(f"generator {kind!r}: {exc}") from None
    return fn(seed=seed, **params)


def _gen_path(n: int, seed: int = 0) -> Graph:
    _check_n(n)
    return from_edges([(i, i + 1) for i in range(1, n)], {"kind": "path", "n": n}, n)


def _gen_cycle(n: int, seed: int = 0) -> Graph:
    _check_n(n)
    if n < 3:
        raise GraphError("cycle needs n >= 3")
    edges = [(i, i + 1) for i in range(1, n)] + [(1, n)]
    return from_edges(edges, {"kind": "cycle", "n": n}, n)


def _gen_complete(n: int, seed: int = 0) -> Graph:
    _check_n(n)
    edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    return from_edges(edges, {"kind": "complete", "n": n}, n)


def _gen_grid(n: Optional[int] = None, rows: Optional[int] = None,
              cols: Optional[int] = None, seed: int = 0) -> Graph:
    if rows is None or cols is None:
        if n is None:
            raise GraphError("grid needs n or rows+cols")
        rows, cols = _near_square(n)
    if not all(isinstance(x, int) and x >= 1 for x in (rows, cols)):
        raise GraphError(f"grid needs integer rows, cols >= 1, "
                         f"got {rows!r}, {cols!r}")
    edges = []
    vid = lambda r, c: r * cols + c + 1
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((vid(r, c), vid(r, c + 1)))
            if r + 1 < rows:
                edges.append((vid(r, c), vid(r + 1, c)))
    return from_edges(edges, {"kind": "grid", "rows": rows, "cols": cols}, rows * cols)


def _near_square(n: int) -> Tuple[int, int]:
    """Factor n into rows*cols with rows as close to sqrt(n) as possible."""
    _check_n(n)
    r = int(math.isqrt(n))
    while r > 1 and n % r:
        r -= 1
    return r, n // r


def _gen_random_tree(n: int, seed: int = 0) -> Graph:
    _check_n(n)
    rnd = random.Random(seed)
    edges = [(rnd.randint(1, v - 1), v) for v in range(2, n + 1)]
    return from_edges(edges, {"kind": "random_tree", "n": n, "seed": seed}, n)


def _gen_gnp_connected(n: int, p: float, seed: int = 0) -> Graph:
    """G(n, p), made connected by stitching components with random tree edges.

    Pair u < v is an edge when its draw of random(), taken u-major, is below
    p. CPython's random() is (a * 2^26 + b) / 2^53, a and b the top 27 and
    26 bits of two successive 32-bit words: the 8 bytes of one draw in
    getrandbits(64 * k).to_bytes(8 * k, "little"). Byte 3 decides a draw
    unless it is the top byte of cut - 1. Augmentation is recorded in meta.
    """
    _check_n(n)
    if not (0.0 < p <= 1.0):
        raise GraphError(f"gnp_connected needs p in (0, 1], got {p}")
    rnd = random.Random(seed)
    cut = math.ceil(p * 2 ** 53)   # a draw is below p iff a * 2^26 + b < cut
    tie = (cut - 1) >> 45   # the top byte that leaves a draw undecided
    below = bytes(b < tie for b in range(256))
    adj: Dict[int, List[int]] = {v: [] for v in range(1, n + 1)}
    for u in range(1, n):
        draws = rnd.getrandbits(64 * (n - u)).to_bytes(8 * (n - u), "little")
        tops = draws[3::8]
        hits = tops.translate(below)
        row = []
        j = hits.find(1)
        while j >= 0:
            row.append(u + 1 + j)
            j = hits.find(1, j + 1)
        j = tops.find(tie)
        while j >= 0:
            w = int.from_bytes(draws[8 * j:8 * j + 8], "little")
            if ((w & 0xFFFFFFFF) >> 5 << 26 | w >> 38) < cut:
                row.append(u + 1 + j)
            j = tops.find(tie, j + 1)
        adj[u] += row
        for v in row:
            adj[v].append(u)
    # components in order of their least vertex, each sorted
    comps: List[List[int]] = []
    seen: Set[int] = set()
    for v in adj:
        if v not in seen:
            comps.append(sorted(set().union(*bfs_layers(adj, (v,)))))
            seen.update(comps[-1])
    added = len(comps) - 1
    while len(comps) > 1:
        # join two random components with a random edge, tree-style
        i = rnd.randrange(len(comps))
        k = rnd.randrange(len(comps))
        while k == i:
            k = rnd.randrange(len(comps))
        u = comps[i][rnd.randrange(len(comps[i]))]
        v = comps[k][rnd.randrange(len(comps[k]))]
        adj[u].append(v)
        adj[v].append(u)
        i, k = min(i, k), max(i, k)   # the lower place keeps the order
        comps[i] = sorted(comps[i] + comps[k])
        del comps[k]
    meta = {"kind": "gnp_connected", "n": n, "p": p, "seed": seed,
            "augmented_edges": added,
            "num_edges": sum(map(len, adj.values())) // 2}
    return Graph(adj, meta)


def _check_n(n: int) -> None:
    if not isinstance(n, int) or n < 1:
        raise GraphError(f"need integer n >= 1, got {n!r}")


_GENERATORS = {
    "path": _gen_path,
    "cycle": _gen_cycle,
    "complete": _gen_complete,
    "grid": _gen_grid,
    "random_tree": _gen_random_tree,
    "gnp_connected": _gen_gnp_connected,
}


# ---------------------------------------------------------------------------
# Breadth-first search over an adjacency map: the graph's own, or that of an
# edge-restricted subgraph from subgraph_adjacency.

def subgraph_adjacency(vertices: Iterable[int],
                       edges: Iterable[Edge]) -> Dict[int, List[int]]:
    adj: Dict[int, List[int]] = {v: [] for v in vertices}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    for v in adj:
        adj[v].sort()
    return adj


def bfs_layers(adj: Dict[int, Iterable[int]], sources: Iterable[int]) -> Iterator[Set[int]]:
    """Yield the BFS layers around sources: layer d is the set of vertices at
    hop distance exactly d from the nearest source, layer 0 the sources.

    A layer is computed only when the caller asks for it, so a search that
    stops iterating (or takes an islice) expands no further than it looked.
    """
    seen = set(sources)
    layer = set(seen)
    while layer:
        yield layer
        nxt = set().union(*map(adj.__getitem__, layer))
        nxt -= seen
        seen |= nxt
        layer = nxt
