"""Simple graphs with per-vertex loop counts and their matrices.

Vertices are 0-based contiguous indices.  Loops are stored as counts, not
edges: they contribute to degrees (and hence to the diagonal of the
Laplacians) but never to the adjacency matrix.  Vertex subsets are plain
sorted tuples of indices.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

__all__ = [
    "LoopedGraph",
    "as_subset",
    "connected_subsets",
    "induces_bipartite",
    "cycle_graph",
    "path_graph",
    "complete_graph",
    "parse_edge_list",
    "format_edge_list",
    "MAX_VERTEX_COUNT",
]

# Largest vertex count the parsers accept.  Graphs and hypergraphs allocate
# per-vertex lists, so a file's count is checked against this cap before any
# allocation; a power hypergraph of a graph at the cap (k/2 vertices per base
# vertex) is far beyond what the enumerations or the tensor layer can handle.
MAX_VERTEX_COUNT = 1 << 20


def _check_vertex(v: int, n: int) -> None:
    if not 0 <= v < n:
        raise ValueError(f"vertex {v} out of range [0, {n})")


class LoopedGraph:
    """Undirected simple graph plus a nonnegative loop count per vertex."""

    def __init__(
        self,
        vertex_count: int,
        edges: Iterable[Sequence[int]] = (),
        loops: Mapping[int, int] | Sequence[int] | None = None,
    ):
        if vertex_count < 0:
            raise ValueError("vertex_count must be nonnegative")
        canon: set[tuple[int, int]] = set()
        for e in edges:
            u, v = e
            _check_vertex(u, vertex_count)
            _check_vertex(v, vertex_count)
            if u == v:
                raise ValueError(f"self-edge at vertex {u}; use loop counts instead")
            pair = (u, v) if u < v else (v, u)
            if pair in canon:
                raise ValueError(f"duplicate edge {pair}")
            canon.add(pair)
        self.vertex_count = vertex_count
        self.edges: tuple[tuple[int, int], ...] = tuple(sorted(canon))

        counts = [0] * vertex_count
        if loops is not None:
            items = loops.items() if isinstance(loops, Mapping) else enumerate(loops)
            for v, c in items:
                _check_vertex(v, vertex_count)
                if c < 0:
                    raise ValueError(f"negative loop count at vertex {v}")
                counts[v] = int(c)
        self.loops: tuple[int, ...] = tuple(counts)

        adj: list[list[int]] = [[] for _ in range(vertex_count)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        self._adj: tuple[tuple[int, ...], ...] = tuple(tuple(sorted(a)) for a in adj)

    # -- basic queries ---------------------------------------------------

    def neighbors(self, v: int) -> tuple[int, ...]:
        _check_vertex(v, self.vertex_count)
        return self._adj[v]

    def degree(self, v: int) -> int:
        """Simple degree plus the loop count at ``v``."""
        _check_vertex(v, self.vertex_count)
        return len(self._adj[v]) + self.loops[v]

    @property
    def has_loops(self) -> bool:
        return any(self.loops)

    def is_connected(self) -> bool:
        """True when the graph has one component under its simple edges."""
        if self.vertex_count == 0:
            raise ValueError("connectivity is undefined for the empty graph")
        seen = {0}
        queue = deque([0])
        while queue:
            u = queue.popleft()
            for w in self._adj[u]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        return len(seen) == self.vertex_count

    def is_bipartite(self) -> bool:
        """2-colorability of the simple edges; rejects graphs with loops."""
        if self.has_loops:
            raise ValueError("bipartiteness is undefined for graphs with loops")
        return induces_bipartite(self, range(self.vertex_count))

    # -- derived graphs --------------------------------------------------

    def modified_induced_subgraph(self, members: Sequence[int]) -> "LoopedGraph":
        """Induced subgraph on ``members`` plus loops restoring every original degree.

        The result is relabeled to 0..len(members)-1 following the sorted
        member order, so its Laplacian equals the corresponding principal
        submatrix of this graph's Laplacian entrywise.
        """
        if self.has_loops:
            raise ValueError("modified induced subgraphs require a loop-free graph")
        subset = as_subset(members, self.vertex_count)
        index = {v: i for i, v in enumerate(subset)}
        sub_edges = [
            (index[u], index[v])
            for u, v in self.edges
            if u in index and v in index
        ]
        inner_deg = [0] * len(subset)
        for u, v in sub_edges:
            inner_deg[u] += 1
            inner_deg[v] += 1
        loops = [self.degree(v) - inner_deg[i] for i, v in enumerate(subset)]
        return LoopedGraph(len(subset), sub_edges, loops)

    # -- matrices ----------------------------------------------------------

    def adjacency_matrix(self) -> np.ndarray:
        a = np.zeros((self.vertex_count, self.vertex_count))
        for u, v in self.edges:
            a[u, v] = a[v, u] = 1.0
        return a

    def degree_vector(self) -> np.ndarray:
        return np.array([self.degree(v) for v in range(self.vertex_count)], dtype=float)

    def laplacian_matrix(self) -> np.ndarray:
        return np.diag(self.degree_vector()) - self.adjacency_matrix()

    def signless_laplacian_matrix(self) -> np.ndarray:
        return np.diag(self.degree_vector()) + self.adjacency_matrix()

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LoopedGraph):
            return NotImplemented
        return (
            self.vertex_count == other.vertex_count
            and self.edges == other.edges
            and self.loops == other.loops
        )

    def __hash__(self) -> int:
        return hash((self.vertex_count, self.edges, self.loops))

    def __repr__(self) -> str:
        return (
            f"LoopedGraph(n={self.vertex_count}, edges={list(self.edges)}, "
            f"loops={list(self.loops)})"
        )


def as_subset(members: Sequence[int], vertex_count: int) -> tuple[int, ...]:
    """Canonicalize a vertex subset: sorted, duplicate-free, nonempty, in range."""
    subset = tuple(sorted(set(int(v) for v in members)))
    if not subset:
        raise ValueError("vertex subset must be nonempty")
    if len(subset) != len(list(members)):
        raise ValueError("vertex subset contains duplicates")
    for v in subset:
        _check_vertex(v, vertex_count)
    return subset


def _grow(
    adj: tuple[tuple[int, ...], ...],
    max_size: int,
    results: list[tuple[int, ...]],
    sub: list[int],
    ext: list[int],
    nbhd: set[int],
    root: int,
) -> None:
    """Append ``sub`` to ``results``, then grow it by each vertex of ``ext`` in
    turn and by the fresh neighbours above ``root`` that each one brings."""
    results.append(tuple(sorted(sub)))
    if len(sub) >= max_size:
        return
    ext = list(ext)
    while ext:
        w = ext.pop(0)
        fresh = [u for u in adj[w] if u > root and u not in nbhd]
        _grow(adj, max_size, results, sub + [w], ext + fresh, nbhd | {w} | set(adj[w]), root)


def connected_subsets(g: LoopedGraph, max_size: int) -> Iterator[tuple[int, ...]]:
    """Yield every vertex subset of size <= max_size inducing a connected subgraph.

    Each subset is produced exactly once, grown by neighbor expansion from its
    minimum vertex, and the stream is ordered lexicographically by the sorted
    member tuple.
    """
    if max_size <= 0:
        return iter(())
    results: list[tuple[int, ...]] = []
    adj = g._adj
    # _grow is a module function, not a recursive closure: a closure that
    # calls itself is a reference cycle, which would keep ``results`` alive
    # until the cycle collector next runs
    for root in range(g.vertex_count):
        ext0 = [u for u in adj[root] if u > root]
        _grow(adj, max_size, results, [root], ext0, {root, *adj[root]}, root)
    results.sort()
    return iter(results)


def induces_bipartite(g: LoopedGraph, subset: Sequence[int]) -> bool:
    """Whether a vertex subset induces a bipartite subgraph: a 2-colouring
    of the simple edges inside it, each component from its first member."""
    members = set(subset)
    side: dict[int, int] = {}
    for start in subset:
        if start in side:
            continue
        side[start] = 0
        queue = [start]
        # the loop also visits the vertices appended while it runs
        for u in queue:
            for w in g._adj[u]:
                if w not in members:
                    continue
                if w not in side:
                    side[w] = 1 - side[u]
                    queue.append(w)
                elif side[w] == side[u]:
                    return False
    return True


# -- stock graphs ---------------------------------------------------------


def cycle_graph(n: int) -> LoopedGraph:
    if n < 3:
        raise ValueError("cycle graphs need at least 3 vertices")
    return LoopedGraph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> LoopedGraph:
    if n < 1:
        raise ValueError("path graphs need at least 1 vertex")
    return LoopedGraph(n, [(i, i + 1) for i in range(n - 1)])


def complete_graph(n: int) -> LoopedGraph:
    return LoopedGraph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


# -- edge-list text format -------------------------------------------------
#
# First line "n m", then m lines "u v" with 0-based endpoints.  Loops are not
# permitted in files; they only arise internally.


def _int_pair(line: str, shape: str) -> tuple[int, int]:
    """The two integers of an edge-list line; the error names the line."""
    parts = line.split()
    if len(parts) != 2:
        raise ValueError(f"expected {shape}, got {line!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"expected integers in {shape}, got {line!r}") from None


def parse_edge_list(text: str) -> LoopedGraph:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty edge-list input")
    n, m = _int_pair(lines[0], "header 'n m'")
    if n < 0 or m < 0:
        raise ValueError(f"header 'n m' needs nonnegative counts, got {lines[0]!r}")
    if n > MAX_VERTEX_COUNT:
        raise ValueError(f"vertex count {n} exceeds the cap {MAX_VERTEX_COUNT}")
    if len(lines) - 1 != m:
        raise ValueError(f"expected {m} edge lines, got {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        u, v = _int_pair(ln, "edge line 'u v'")
        if u == v:
            raise ValueError(f"loop {u} {v} not permitted in edge-list input")
        edges.append((u, v))
    return LoopedGraph(n, edges)


def format_edge_list(g: LoopedGraph) -> str:
    if g.has_loops:
        raise ValueError("loops cannot be written to edge-list files")
    lines = [f"{g.vertex_count} {len(g.edges)}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"
