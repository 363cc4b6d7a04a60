"""Implicit hypergraph tensors: apply, residuals, power iteration, lifts.

The adjacency tensor of a k-uniform hypergraph has entry 1/(k-1)! on every
permutation of every edge, so applying it to x reduces to one product of k-1
entries per (edge, vertex) incidence; no k-way array is ever materialized.
Loop edges only enter through degrees.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from hyperspec.graphs import LoopedGraph, as_subset
from hyperspec.hypergraphs import HalfEdgeMap, Hypergraph, generalized_power
from hyperspec.linalg import ConvergenceError, EigenPair
from hyperspec.reduction import normalize_kind, reduced_matrix

__all__ = [
    "TensorOperator",
    "eig_residual",
    "nqz_power_iteration",
    "lift_real",
    "lift_perron",
    "lift_phase",
    "rotate_signless_to_laplacian",
    "Gauge",
    "verify_diagonal_similarity",
]

LIFT_INPUT_TOL = 1e-10
NQZ_GAP_TOL = 1e-10
NQZ_RESIDUAL_TOL = 1e-8
NQZ_BUDGET = 100_000


def _edge_array(h: Hypergraph) -> np.ndarray:
    """One row of members per full edge; shape (0, k) with only loop edges."""
    return np.array(h.full_edges, dtype=np.intp).reshape(-1, h.k)


class TensorOperator:
    """Adjacency, Laplacian or signless Laplacian tensor, applied edgewise."""

    def __init__(self, hypergraph: Hypergraph, kind: str):
        self.hypergraph = hypergraph
        self.kind = normalize_kind(kind)
        self.k = hypergraph.k
        self.dimension = hypergraph.vertex_count
        self.degrees = np.array(
            [hypergraph.degree(v) for v in range(self.dimension)], dtype=float
        )
        self._edge_sign = -1.0 if self.kind == "laplacian" else 1.0
        self._diag = 0.0 if self.kind == "adjacency" else 1.0
        self._edges = _edge_array(hypergraph)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Evaluate (T x^{k-1})_v for every vertex v."""
        x = np.asarray(x)
        if x.shape != (self.dimension,):
            raise ValueError(
                f"vector length {x.shape} does not match dimension {self.dimension}"
            )
        x = x.astype(complex)
        y = self._diag * self.degrees * x ** (self.k - 1)
        vals = x[self._edges]
        ones = np.ones((len(vals), 1), dtype=complex)
        # prefix/suffix products give each leave-one-out product in O(k);
        # both start from 1 and multiply left to right, as a scalar loop would
        prefix = np.cumprod(np.concatenate((ones, vals[:, :-1]), axis=1), axis=1)
        suffix = np.cumprod(np.concatenate((ones, vals[:, :0:-1]), axis=1), axis=1)
        # np.add.at adds in row-major order: edge by edge, member by member
        np.add.at(y, self._edges, self._edge_sign * prefix * suffix[:, ::-1])
        return y

    def __repr__(self) -> str:
        return f"TensorOperator({self.hypergraph!r}, kind={self.kind!r})"


def eig_residual(operator: TensorOperator, value: complex, x: Sequence[complex]) -> float:
    """Max-norm eigen-equation defect, scaled by the vector's (k-1)-th power.

    Returns ||T x^{k-1} - value * x^{[k-1]}||_inf / ||x||_inf^{k-1}; invariant
    under rescaling of x.
    """
    x = np.asarray(x, dtype=complex)
    norm = float(np.max(np.abs(x))) if x.size else 0.0
    if norm == 0.0:
        raise ValueError("eigenvector must be nonzero")
    defect = operator.apply(x) - value * x ** (operator.k - 1)
    return float(np.max(np.abs(defect)) / norm ** (operator.k - 1))


def _start_vector(start: np.ndarray, n: int, power: int) -> np.ndarray:
    """A caller's start vector scaled to max-norm 1; ValueError if x^{[k-1]}
    of the scaled start is not positive, since the quotients divide by it."""
    x = np.array(start, dtype=float)
    if x.shape != (n,):
        raise ValueError(f"start vector shape {x.shape} does not match ({n},)")
    if not (np.all(np.isfinite(x)) and np.all(x > 0)):
        raise ValueError("start vector must be finite and entrywise positive")
    x = x / np.max(x)
    if not np.all(x**power > 0):
        raise ValueError(f"start vector entries underflow at the power {power}")
    return x


def nqz_power_iteration(
    operator: TensorOperator,
    budget: int = NQZ_BUDGET,
    start: np.ndarray | None = None,
) -> EigenPair:
    """Largest H-eigenvalue of a nonnegative tensor by normalized power steps.

    Iterates x <- normalize((T x^{k-1} + x^{[k-1]})^{[1/(k-1)]}) from
    ``start`` (all-ones when None; a given start must be finite, positive and
    keep x^{[k-1]} positive after scaling to max-norm 1); the unit shift keeps
    iterates positive without moving the eigenvector.  Stops when the min/max
    Collatz-Wielandt bounds agree within ``NQZ_GAP_TOL`` (1e-10); the returned
    residual is certified below 1e-8.

    The run stays a check of rho(T) independent of where its start came from:
    for a connected hypergraph lo <= rho(T) + 1 <= hi at every positive x, so
    a stop certifies the value within ``NQZ_GAP_TOL`` whatever the start.  A
    start near the Perron vector (a lifted base Perron vector) saves
    iterations; a wrong one only costs them.
    """
    if operator.kind == "laplacian":
        raise ValueError("power iteration needs a nonnegative tensor (A or Q)")
    h = operator.hypergraph
    if not h.is_connected():
        raise ValueError("power iteration needs a connected hypergraph")
    n = operator.dimension
    power = operator.k - 1
    x = np.ones(n) if start is None else _start_vector(start, n, power)
    value = 0.0
    converged = False
    for _ in range(budget):
        y = operator.apply(x).real + x**power
        quotients = y / x**power
        lo, hi = float(np.min(quotients)), float(np.max(quotients))
        value = 0.5 * (lo + hi) - 1.0
        if hi - lo <= NQZ_GAP_TOL:
            converged = True
            break
        x = y ** (1.0 / power)
        x = x / np.max(x)
    if not converged:
        raise ConvergenceError(f"tensor power iteration budget {budget} exhausted")
    x = x / np.max(x)
    residual = eig_residual(operator, value, x)
    if residual > NQZ_RESIDUAL_TOL:
        raise ConvergenceError(
            f"tensor power iteration residual {residual:.3e} exceeds 1e-8"
        )
    x.flags.writeable = False
    return EigenPair(value, x, residual)


# -- eigenvector lifts -------------------------------------------------------


def _check_matrix_eigenpair(
    matrix: np.ndarray, value: complex, x: np.ndarray
) -> None:
    norm = float(np.max(np.abs(x))) if x.size else 0.0
    if norm == 0.0:
        raise ValueError("eigenvector must be nonzero")
    scale = max(1.0, float(np.max(np.sum(np.abs(matrix), axis=1))))
    defect = float(np.max(np.abs(matrix @ x - value * x))) / (norm * scale)
    if defect > LIFT_INPUT_TOL:
        raise ValueError(
            f"(value, vector) is not an eigenpair of the reduced matrix "
            f"(defect {defect:.3e})"
        )


def lift_real(
    g: LoopedGraph,
    k: int,
    members: Sequence[int],
    value: float,
    x: Sequence[float],
) -> np.ndarray:
    """Lift a Laplacian-matrix eigenvector of a modified induced subgraph.

    Every subset vertex u with matrix entry x_u spreads |x_u|^{2/k} over its
    half edge, the anchor carrying the sign; vertices outside the blown-up
    subset get zero.  The result is a real H-eigenvector of the Laplacian
    tensor of the half blow-up for the same eigenvalue.
    """
    subset = as_subset(members, g.vertex_count)
    x = np.asarray(x, dtype=float)
    if x.shape != (len(subset),):
        raise ValueError("one vector entry per subset member is required")
    matrix = g.modified_induced_subgraph(subset).laplacian_matrix()
    _check_matrix_eigenpair(matrix, value, x.astype(complex))
    h, halfmap = generalized_power(g, k, k // 2)
    lifted = np.zeros(h.vertex_count)
    for i, u in enumerate(subset):
        magnitude = abs(x[i]) ** (2.0 / k)
        mem = halfmap.half_edges[u]
        lifted[mem[0]] = np.sign(x[i]) * magnitude
        for v in mem[1:]:
            lifted[v] = magnitude
    return lifted


def lift_perron(h: Hypergraph, halfmap: HalfEdgeMap, x: Sequence[float]) -> np.ndarray:
    """Spread a positive base vector over the half edges of a power.

    Every member of the half edge of base vertex u gets x_u^{2/k}; vertices on
    no half edge get zero.  On the half blow-up the Perron vectors of Q(G) and
    A(G) lift this way to the Perron vectors of the power's signless Laplacian
    and adjacency tensors, with the same eigenvalues.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (len(halfmap.half_edges),):
        raise ValueError("one vector entry per half edge is required")
    lifted = np.zeros(h.vertex_count)
    for members, magnitude in zip(halfmap.half_edges, x ** (2.0 / h.k)):
        lifted[list(members)] = magnitude
    return lifted


def lift_phase(
    g: LoopedGraph,
    k: int,
    members: Sequence[int],
    phases: Sequence[int],
    value: complex,
    x: Sequence[complex],
) -> np.ndarray:
    """Lift a phase-reduced-matrix eigenvector to the Laplacian tensor.

    The half edge of subset vertex u carries the principal (k/2)-th root of
    x_u, with the whole phase l_u placed on the first non-anchor member (the
    anchor stays at phase zero).  Vertices outside the blown-up subset get
    zero.  Requires k >= 4 so every half edge has a non-anchor member.
    """
    if k < 4:
        raise ValueError("phase lifts need k >= 4")
    subset = as_subset(members, g.vertex_count)
    x = np.asarray(x, dtype=complex)
    if x.shape != (len(subset),):
        raise ValueError("one vector entry per subset member is required")
    if len(phases) != len(subset):
        raise ValueError("one phase per subset member is required")
    matrix = reduced_matrix(g, k, subset, phases, "laplacian")
    _check_matrix_eigenpair(matrix, value, x)
    h, halfmap = generalized_power(g, k, k // 2)
    lifted = np.zeros(h.vertex_count, dtype=complex)
    for i, u in enumerate(subset):
        root = x[i] ** (2.0 / k)
        mem = halfmap.half_edges[u]
        lifted[mem[0]] = root
        lifted[mem[1]] = root * np.exp(2j * np.pi * (int(phases[i]) % k) / k)
        for v in mem[2:]:
            lifted[v] = root
    return lifted


def rotate_signless_to_laplacian(
    h: Hypergraph, halfmap: HalfEdgeMap, x: Sequence[complex]
) -> np.ndarray:
    """Turn a signless-Laplacian eigenvector into a Laplacian one, same value.

    Multiplies the anchor entry of every half edge by the imaginary unit; the
    sign this injects into each edge product cancels exactly when k is a
    multiple of 4, so the construction is rejected otherwise.
    """
    if h.k % 4:
        raise ValueError("the anchor rotation needs k divisible by 4")
    x = np.asarray(x, dtype=complex)
    if x.shape != (h.vertex_count,):
        raise ValueError("vector length does not match the hypergraph")
    y = x.copy()
    for members in halfmap.half_edges:
        y[members[0]] *= 1j
    return y


# -- exact diagonal similarity ------------------------------------------------


@dataclass(frozen=True)
class Gauge:
    """Unit-modulus diagonal encoded exactly: phase_v out of modulus m."""

    modulus: int
    phases: tuple[int, ...]

    def __post_init__(self):
        m = self.modulus
        if isinstance(m, bool) or not isinstance(m, numbers.Integral):
            raise ValueError("gauge modulus must be an exact integer")
        if m < 1:
            raise ValueError("modulus must be positive")
        clean = []
        for p in self.phases:
            if type(p) is not int:
                if isinstance(p, bool) or not isinstance(p, numbers.Integral):
                    raise ValueError("gauge phases must be exact integers")
                p = int(p)
            if not 0 <= p < m:
                raise ValueError(f"phase {p} out of range [0, {m})")
            clean.append(p)
        object.__setattr__(self, "modulus", int(m))
        object.__setattr__(self, "phases", tuple(clean))

    def to_json_dict(self) -> dict:
        return {
            "mod": self.modulus,
            "phase": {str(v): p for v, p in enumerate(self.phases)},
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "Gauge":
        """The gauge of a ``to_json_dict`` payload; ValueError for any other
        shape, as for a modulus or phase that is not an exact integer."""
        if not isinstance(payload, dict) or not {"mod", "phase"} <= set(payload):
            raise ValueError("gauge JSON must be an object with mod and phase")
        raw = payload["phase"]
        if not isinstance(raw, dict) or set(raw) != {str(v) for v in range(len(raw))}:
            raise ValueError("gauge JSON phase keys must be the vertices 0..len-1")
        return cls(payload["mod"], tuple(raw[str(v)] for v in range(len(raw))))


_DIAG_COEFF = {"adjacency": 0, "laplacian": 1, "signless": 1}
_EDGE_COEFF = {"adjacency": 1, "laplacian": -1, "signless": 1}


def verify_diagonal_similarity(
    h: Hypergraph, from_kind: str, to_kind: str, sign: int, gauge: Gauge
) -> bool:
    """Exact check of T_from = sign * Gamma^{-(k-1)} T_to Gamma, entrywise.

    Gamma is the diagonal of unit-modulus values encoded by ``gauge``.  The
    check is pure integer arithmetic mod the gauge modulus: the edge entries
    demand sum of phases over the edge minus k times the row phase to hit the
    required offset (half the modulus for a sign flip), and the diagonal
    entries fix the sign pattern outright.
    """
    from_kind = normalize_kind(from_kind)
    to_kind = normalize_kind(to_kind)
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if len(gauge.phases) != h.vertex_count:
        raise ValueError("gauge must cover every vertex")
    m = gauge.modulus
    # diagonal entries carry no gauge phase, so the degree pattern must match;
    # every vertex of an edge has positive degree
    if h.edges and _DIAG_COEFF[from_kind] != sign * _DIAG_COEFF[to_kind]:
        return False
    edge_sign_flip = _EDGE_COEFF[from_kind] != sign * _EDGE_COEFF[to_kind]
    if edge_sign_flip and m % 2:
        raise ValueError("a sign flip needs an even gauge modulus")
    offset = m // 2 if edge_sign_flip else 0
    k = h.k
    # every intermediate is below k m in magnitude: int64 is exact while
    # (k+1) m < 2^63, Python integers beyond
    dtype = np.int64 if (k + 1) * m < 2**63 else object
    members = np.array(gauge.phases, dtype=dtype)[_edge_array(h)]
    totals = members.sum(axis=1, keepdims=True)
    return bool(((totals - k * members) % m == offset).all())
