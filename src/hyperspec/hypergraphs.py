"""k-uniform hypergraphs, the generalized power construction, odd-bipartiteness.

Edges are sorted tuples of distinct vertices.  An edge with fewer than k
vertices marks a loop edge: it counts toward degrees but never enters the
adjacency tensor.  Loop edges may repeat (loop multiplicity); full edges may
not.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Sequence

from hyperspec.graphs import MAX_VERTEX_COUNT, LoopedGraph

__all__ = [
    "Hypergraph",
    "HalfEdgeMap",
    "generalized_power",
    "odd_bipartition",
    "to_canonical_json",
    "from_json_dict",
]


class Hypergraph:
    """k-uniform hypergraph with optional loop edges of size below k."""

    def __init__(
        self,
        vertex_count: int,
        k: int,
        edges: Iterable[Sequence[int]] = (),
    ):
        if vertex_count < 0:
            raise ValueError("vertex_count must be nonnegative")
        if k < 2:
            raise ValueError("edge rank k must be at least 2")
        canon = []
        seen_full = set()
        for e in edges:
            members = tuple(sorted(int(v) for v in e))
            if len(set(members)) != len(members):
                raise ValueError(f"edge {members} repeats a vertex")
            if not members or len(members) > k:
                raise ValueError(f"edge {members} has invalid size for k={k}")
            for v in members:
                if not 0 <= v < vertex_count:
                    raise ValueError(f"vertex {v} out of range [0, {vertex_count})")
            if len(members) == k:
                if members in seen_full:
                    raise ValueError(f"duplicate edge {members}")
                seen_full.add(members)
            canon.append(members)
        self.vertex_count = vertex_count
        self.k = k
        self.edges: tuple[tuple[int, ...], ...] = tuple(sorted(canon))
        self.full_edges: tuple[tuple[int, ...], ...] = tuple(
            e for e in self.edges if len(e) == k
        )
        self.loop_edges: tuple[tuple[int, ...], ...] = tuple(
            e for e in self.edges if len(e) < k
        )
        self.is_uniform: bool = not self.loop_edges
        self._degrees = [0] * vertex_count
        for members in self.edges:
            for v in members:
                self._degrees[v] += 1

    def degree(self, v: int) -> int:
        """Number of edges (loop edges included) containing ``v``."""
        if not 0 <= v < self.vertex_count:
            raise ValueError(f"vertex {v} out of range [0, {self.vertex_count})")
        return self._degrees[v]

    def is_connected(self) -> bool:
        """Connectivity through full edges; loop edges do not connect vertices.

        A search over vertex-edge incidences: each full edge is opened once,
        so the cost is the total edge size, not a clique per edge.
        """
        if self.vertex_count == 0:
            raise ValueError("connectivity is undefined for the empty hypergraph")
        incident: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for j, e in enumerate(self.full_edges):
            for v in e:
                incident[v].append(j)
        opened = [False] * len(self.full_edges)
        seen = [True] + [False] * (self.vertex_count - 1)
        stack = [0]
        while stack:
            for j in incident[stack.pop()]:
                if not opened[j]:
                    opened[j] = True
                    for w in self.full_edges[j]:
                        if not seen[w]:
                            seen[w] = True
                            stack.append(w)
        return all(seen)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return (
            self.vertex_count == other.vertex_count
            and self.k == other.k
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.vertex_count, self.k, self.edges))

    def __repr__(self) -> str:
        return f"Hypergraph(n={self.vertex_count}, k={self.k}, m={len(self.edges)})"


@dataclass(frozen=True)
class HalfEdgeMap:
    """Blow-up bookkeeping for a generalized power.

    ``half_edges[u]`` lists the power-hypergraph vertices replacing base
    vertex ``u``; the first member is the anchor.  ``edge_vertices[j]`` lists
    the extra vertices attached to base edge ``j`` (empty when s = k/2).
    """

    half_edges: tuple[tuple[int, ...], ...]
    edge_vertices: tuple[tuple[int, ...], ...]

    @property
    def anchors(self) -> tuple[int, ...]:
        return tuple(members[0] for members in self.half_edges)


def generalized_power(g: LoopedGraph, k: int, s: int) -> tuple[Hypergraph, HalfEdgeMap]:
    """Blow each vertex of ``g`` into an s-set and each edge into a k-set.

    Base vertex u becomes the half edge (u*s, ..., u*s + s - 1) whose anchor is
    its lowest index; for s < k/2 each base edge also receives k - 2s fresh
    vertices.  Loops are only meaningful for s = k/2, where a base loop at u
    becomes a loop edge on the half edge of u.  A power of more than
    ``MAX_VERTEX_COUNT`` vertices raises ValueError before any allocation.
    """
    if k < 3:
        raise ValueError("generalized powers need k >= 3")
    if not 1 <= s <= k // 2:
        raise ValueError(f"blow-up size s={s} must satisfy 1 <= s <= k/2")
    half = 2 * s == k
    if half and (k % 2 or k < 4):
        raise ValueError("s = k/2 requires even k >= 4")
    if g.has_loops and not half:
        raise ValueError("loops are only supported for s = k/2")

    n = g.vertex_count
    extra = k - 2 * s
    total = n * s + extra * len(g.edges)
    if total > MAX_VERTEX_COUNT:
        raise ValueError(f"vertex count {total} exceeds the cap {MAX_VERTEX_COUNT}")
    half_edges = tuple(tuple(range(u * s, u * s + s)) for u in range(n))
    edge_vertices = tuple(
        tuple(range(n * s + j * extra, n * s + (j + 1) * extra))
        for j in range(len(g.edges))
    )

    edges: list[tuple[int, ...]] = []
    for j, (u, v) in enumerate(g.edges):
        edges.append(tuple(sorted(half_edges[u] + half_edges[v] + edge_vertices[j])))
    for u in range(n):
        edges.extend(half_edges[u] for _ in range(g.loops[u]))

    return Hypergraph(total, k, edges), HalfEdgeMap(half_edges, edge_vertices)


# -- odd-bipartiteness -------------------------------------------------------


def odd_bipartition(h: Hypergraph) -> tuple[int, ...] | None:
    """A vertex set meeting every edge in an odd count, or None when impossible.

    The set is {v : x_v = 1} for the solution of the similarity system at
    modulus 2, whose row for edge e reads sum_e x = 1 over GF(2); free
    variables are zero, so the witness is deterministic.  Defined only for
    loop-free even-uniform hypergraphs; anything else is rejected rather than
    guessed at.
    """
    if h.k % 2:
        raise ValueError("odd-bipartiteness needs an even edge rank")
    if not h.is_uniform:
        raise ValueError("odd-bipartiteness needs a uniform, loop-free hypergraph")
    # the gauge layer builds on this module, so it is imported on use
    from hyperspec.gauge import build_similarity_system, solve_mod_m

    solution = solve_mod_m(build_similarity_system(h, 2))
    if solution is None:
        return None
    return tuple(v for v, x in enumerate(solution.phases) if x)


# -- JSON wire format --------------------------------------------------------
#
# {"n": int, "k": int, "edges": [[int, ...], ...],
#  "half_edges": {"<base vertex>": [members]}}   (half_edges optional)


def to_canonical_json(h: Hypergraph, halfmap: HalfEdgeMap | None = None) -> str:
    payload: dict = {
        "n": h.vertex_count,
        "k": h.k,
        "edges": [list(e) for e in h.edges],
    }
    if halfmap is not None:
        payload["half_edges"] = {
            str(u): list(members) for u, members in enumerate(halfmap.half_edges)
        }
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def _vertex_lists(raw: object, what: str) -> list[tuple[int, ...]]:
    """JSON lists of integer vertices as tuples; ValueError for any other shape."""
    if not isinstance(raw, list) or not all(
        isinstance(e, list) and all(type(v) is int for v in e) for e in raw
    ):
        raise ValueError(f"{what} must be a list of integer vertex lists")
    return [tuple(e) for e in raw]


def from_json_dict(payload: dict) -> tuple[Hypergraph, HalfEdgeMap | None]:
    if not isinstance(payload, dict):
        raise ValueError("hypergraph JSON must be an object")
    try:
        n, k, edges = payload["n"], payload["k"], payload["edges"]
    except KeyError as exc:
        raise ValueError(f"hypergraph JSON is missing key {exc}") from exc
    if type(n) is not int or type(k) is not int:
        raise ValueError("hypergraph JSON n and k must be integers")
    if n > MAX_VERTEX_COUNT:
        raise ValueError(f"vertex count {n} exceeds the cap {MAX_VERTEX_COUNT}")
    # an edge of more than n vertices cannot be full, so k shares the cap
    if k > MAX_VERTEX_COUNT:
        raise ValueError(f"edge rank {k} exceeds the cap {MAX_VERTEX_COUNT}")
    h = Hypergraph(n, k, _vertex_lists(edges, "edges"))
    halfmap = None
    if "half_edges" in payload:
        raw = payload["half_edges"]
        if not isinstance(raw, dict) or set(raw) != {str(u) for u in range(len(raw))}:
            raise ValueError("half_edges keys must be the base vertices 0..len-1")
        half_edges = tuple(
            _vertex_lists([raw[str(u)] for u in range(len(raw))], "half_edges values")
        )
        if any(not 0 <= v < h.vertex_count for members in half_edges for v in members):
            raise ValueError(f"half-edge vertices must lie in [0, {h.vertex_count})")
        halfmap = HalfEdgeMap(half_edges, ())
    return h, halfmap
