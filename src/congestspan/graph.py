"""Undirected unweighted graphs: loading, generation, and the BFS distance oracle.

Vertices are positive integers with distinct IDs. Generators number vertices
1..n; loaded graphs may use any distinct positive integers, and the observed
ID interval is kept on the graph because the ruling-set block splitting needs
an explicit ID range. All neighbor lists are sorted ascending so that every
"arbitrary" choice made downstream is deterministic.
"""

from __future__ import annotations

import math
import random
from collections import deque
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

Edge = Tuple[int, int]

INF = math.inf


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
        self.id_range: Tuple[int, int] = (self.vertices[0], self.vertices[-1])
        self.meta: dict = dict(meta or {})
        self._edge_set: Optional[Set[Edge]] = None
        self._validate()

    def _validate(self) -> None:
        if self.n == 0:
            raise GraphError("graph has no vertices")
        seen: Set[Edge] = set()
        for v, nbrs in self.adjacency.items():
            if v <= 0:
                raise GraphError(f"vertex id {v} is not a positive integer")
            for u in nbrs:
                if u == v:
                    raise GraphError(f"self-loop at vertex {v}")
                if u not in self.adjacency:
                    raise GraphError(f"edge ({v},{u}) points outside the vertex set")
                seen.add(edge_key(u, v))
            if len(set(nbrs)) != len(nbrs):
                raise GraphError(f"parallel edge at vertex {v}")
        for u, v in seen:
            if u not in self.adjacency[v] or v not in self.adjacency[u]:
                raise GraphError(f"asymmetric adjacency on edge ({u},{v})")
        if not self.is_connected():
            raise GraphError("graph is disconnected")

    def neighbors(self, v: int) -> Tuple[int, ...]:
        return self.adjacency[v]

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def edges(self) -> Iterator[Edge]:
        for v in self.vertices:
            for u in self.adjacency[v]:
                if v < u:
                    yield (v, u)

    def edge_set(self) -> Set[Edge]:
        if self._edge_set is None:
            self._edge_set = set(self.edges())
        return self._edge_set

    def num_edges(self) -> int:
        return len(self.edge_set())

    def has_edge(self, u: int, v: int) -> bool:
        return edge_key(u, v) in self.edge_set()

    def is_connected(self) -> bool:
        start = self.vertices[0]
        seen = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for u in self.adjacency[v]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        return len(seen) == self.n


def from_edges(edges: Iterable[Edge], meta: Optional[dict] = None) -> Graph:
    adj: Dict[int, List[int]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    return Graph(adj, meta)


def load_graph(path: str) -> Graph:
    """Read an edge-list file: one "u v" pair per line, '#' starts a comment."""
    edges: List[Edge] = []
    seen: Set[Edge] = set()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise GraphParseError(f"{path}:{lineno}: expected 'u v', got {line!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise GraphParseError(f"{path}:{lineno}: non-integer vertex id in {line!r}") from None
            if u <= 0 or v <= 0:
                raise GraphParseError(f"{path}:{lineno}: vertex ids must be positive")
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
    return fn(seed=seed, **params)


def _gen_path(n: int, seed: int = 0) -> Graph:
    _check_n(n)
    if n == 1:
        return Graph({1: []}, meta={"kind": "path", "n": n})
    g = from_edges([(i, i + 1) for i in range(1, n)], meta={"kind": "path", "n": n})
    return g


def _gen_cycle(n: int, seed: int = 0) -> Graph:
    _check_n(n)
    if n < 3:
        raise GraphError("cycle needs n >= 3")
    edges = [(i, i + 1) for i in range(1, n)] + [(1, n)]
    return from_edges(edges, meta={"kind": "cycle", "n": n})


def _gen_complete(n: int, seed: int = 0) -> Graph:
    _check_n(n)
    if n == 1:
        return Graph({1: []}, meta={"kind": "complete", "n": n})
    edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    return from_edges(edges, meta={"kind": "complete", "n": n})


def _gen_grid(n: Optional[int] = None, rows: Optional[int] = None,
              cols: Optional[int] = None, seed: int = 0) -> Graph:
    if rows is None or cols is None:
        if n is None:
            raise GraphError("grid needs n or rows+cols")
        rows, cols = _near_square(n)
    if rows < 1 or cols < 1:
        raise GraphError("grid needs rows, cols >= 1")
    if rows * cols == 1:
        return Graph({1: []}, meta={"kind": "grid", "rows": rows, "cols": cols})
    edges = []
    vid = lambda r, c: r * cols + c + 1
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((vid(r, c), vid(r, c + 1)))
            if r + 1 < rows:
                edges.append((vid(r, c), vid(r + 1, c)))
    return from_edges(edges, meta={"kind": "grid", "rows": rows, "cols": cols})


def _near_square(n: int) -> Tuple[int, int]:
    """Factor n into rows*cols with rows as close to sqrt(n) as possible."""
    _check_n(n)
    r = int(math.isqrt(n))
    while r > 1 and n % r:
        r -= 1
    return r, n // r


def _gen_random_tree(n: int, seed: int = 0) -> Graph:
    _check_n(n)
    if n == 1:
        return Graph({1: []}, meta={"kind": "random_tree", "n": n, "seed": seed})
    rnd = random.Random(seed)
    edges = [(rnd.randint(1, v - 1), v) for v in range(2, n + 1)]
    return from_edges(edges, meta={"kind": "random_tree", "n": n, "seed": seed})


def _gen_gnp_connected(n: int, p: float, seed: int = 0) -> Graph:
    """G(n, p), made connected by stitching components with random tree edges.

    Augmentation, when needed, is recorded in the graph metadata.
    """
    _check_n(n)
    if not (0.0 < p <= 1.0):
        raise GraphError(f"gnp_connected needs p in (0, 1], got {p}")
    rnd = random.Random(seed)
    edges: Set[Edge] = set()
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            if rnd.random() < p:
                edges.add((u, v))
    added = 0
    comps = _components(n, edges)
    while len(comps) > 1:
        # join two random components with a random edge, tree-style
        a = comps[rnd.randrange(len(comps))]
        b = comps[rnd.randrange(len(comps))]
        while b is a:
            b = comps[rnd.randrange(len(comps))]
        u = a[rnd.randrange(len(a))]
        v = b[rnd.randrange(len(b))]
        edges.add(edge_key(u, v))
        added += 1
        comps = _components(n, edges)
    meta = {"kind": "gnp_connected", "n": n, "p": p, "seed": seed,
            "augmented_edges": added, "num_edges": len(edges)}
    if n == 1:
        return Graph({1: []}, meta=meta)
    return from_edges(edges, meta=meta)


def _components(n: int, edges: Set[Edge]) -> List[List[int]]:
    parent = list(range(n + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    groups: Dict[int, List[int]] = {}
    for v in range(1, n + 1):
        groups.setdefault(find(v), []).append(v)
    return list(groups.values())


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
# BFS distance oracle, also usable on an edge-restricted subgraph.

def bfs_distances(g: Graph, source: int,
                  restricted_to: Optional[Iterable[Edge]] = None) -> Dict[int, float]:
    """Exact hop distances from source; unreachable vertices map to inf.

    With restricted_to, distances are taken in the subgraph (V, restricted_to).
    """
    if source not in g.adjacency:
        raise GraphError(f"unknown source vertex {source}")
    if restricted_to is None:
        adj = g.adjacency
    else:
        adj = subgraph_adjacency(g.vertices, restricted_to)
    return bfs_on_adjacency(adj, source, all_vertices=g.vertices)


def subgraph_adjacency(vertices: Iterable[int],
                       edges: Iterable[Edge]) -> Dict[int, List[int]]:
    adj: Dict[int, List[int]] = {v: [] for v in vertices}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    for v in adj:
        adj[v].sort()
    return adj


def bfs_on_adjacency(adj: Dict[int, Iterable[int]], source: int,
                     all_vertices: Optional[Iterable[int]] = None) -> Dict[int, float]:
    dist: Dict[int, float] = {source: 0}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        d = dist[v] + 1
        for u in adj[v]:
            if u not in dist:
                dist[u] = d
                queue.append(u)
    if all_vertices is not None:
        for v in all_vertices:
            if v not in dist:
                dist[v] = INF
    return dist


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
        nxt: Set[int] = set()
        for v in layer:
            nxt.update(adj[v])
        nxt -= seen
        seen |= nxt
        layer = nxt
