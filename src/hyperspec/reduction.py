"""Reduction of power-hypergraph tensor spectra to small complex matrices.

The spectrum of the Laplacian tensor of a half-blowup power is the union of
the eigenvalues of phase-reduced matrices D[U] - E A[U] E over all connected
vertex subsets U of the base graph and all assignments E of k-th roots of
unity, one representative per sign class; the H-spectrum is the identity-phase
slice.  This module enumerates those matrices and assembles deduplicated
spectra, spectral radii and largest H-eigenvalues with witnesses.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from collections.abc import Iterator, Sequence

import numpy as np

from hyperspec.graphs import LoopedGraph, as_subset, connected_subsets
from hyperspec.linalg import (
    ConvergenceError,
    SpectrumSet,
    eig_complex_stack,
    eig_real_symmetric,
)

__all__ = [
    "DEDUP_TOL",
    "STRICT_MARGIN",
    "KIND_LETTER",
    "normalize_kind",
    "PhaseAssignment",
    "ReductionWitness",
    "SpectrumReport",
    "RhoResult",
    "reduced_matrix",
    "phase_classes",
    "spectrum_power",
    "h_spectrum_power",
    "lambda_max_laplacian",
    "rho_power",
    "uniform_phase_matrix",
]

DEDUP_TOL = 1e-8
STRICT_MARGIN = 1e-6
DEFAULT_MAX_SUBSET = 8
DEFAULT_BUDGET = 10**6

KIND_LETTER = {"adjacency": "A", "laplacian": "L", "signless": "Q"}
_LETTER_KIND = {v: k for k, v in KIND_LETTER.items()}


def normalize_kind(kind: str) -> str:
    if kind in KIND_LETTER:
        return kind
    if kind in _LETTER_KIND:
        return _LETTER_KIND[kind]
    raise ValueError(f"unknown matrix kind {kind!r}")


@dataclass(frozen=True)
class PhaseAssignment:
    """Integer phases l_u in [0, k) encoding the diagonal of k-th roots of unity."""

    k: int
    phases: tuple[int, ...]

    def __post_init__(self):
        if self.k < 2 or self.k % 2:
            raise ValueError("phase assignments need an even k >= 2")
        for p in self.phases:
            if not 0 <= p < self.k:
                raise ValueError(f"phase {p} out of range [0, {self.k})")


@dataclass(frozen=True)
class ReductionWitness:
    """Provenance of one reduced-matrix eigenvalue: the subset and phases."""

    subset: tuple[int, ...]
    phase: PhaseAssignment
    kind: str
    eigenvalue: complex

    def to_json_dict(self) -> dict:
        return {
            "subset": list(self.subset),
            "k": self.phase.k,
            "phases": list(self.phase.phases),
            "kind": KIND_LETTER[self.kind],
            "eigenvalue": [self.eigenvalue.real, self.eigenvalue.imag],
        }


def reduced_matrix(
    g: LoopedGraph,
    k: int,
    members: Sequence[int],
    phases: Sequence[int],
    kind: str = "laplacian",
) -> np.ndarray:
    """Phase-reduced matrix of a connected modified induced subgraph.

    For the Laplacian kind this is D(G)[U] - E A(G[U]) E with E the diagonal
    of k-th roots of unity given by ``phases``; the signless kind flips the
    sign of the adjacency block and the adjacency kind drops the diagonal.
    The result is complex symmetric, indexed by the sorted members of U.
    """
    kind = normalize_kind(kind)
    subset = as_subset(members, g.vertex_count)
    if len(phases) != len(subset):
        raise ValueError("one phase per subset member is required")
    if not g.modified_induced_subgraph(subset).is_connected():
        raise ValueError(f"subset {subset} does not induce a connected subgraph")
    assign = PhaseAssignment(k, tuple(int(p) % k for p in phases))
    degrees, adjacency = _principal(g.degree_vector(), g.adjacency_matrix(), subset)
    return _phased_matrices(degrees, adjacency, k, np.array([assign.phases]), kind)[0]


def _principal(
    degrees: np.ndarray, adjacency: np.ndarray, subset: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """D[U] and A[U] of the base graph: D and A of the modified induced subgraph."""
    index = np.array(subset)
    return degrees[index], adjacency[np.ix_(index, index)]


def _phased_matrices(
    degrees: np.ndarray, adjacency: np.ndarray, k: int, phases: np.ndarray, kind: str
) -> np.ndarray:
    """D - E A E for every row of ``phases``, stacked as an (N, s, s) array.

    E is the diagonal of exp(2 pi i l / k) over a row's phases l.  The
    signless kind is D + E A E and the adjacency kind is E A E.
    """
    units = np.exp(2j * np.pi * phases / k)
    phased_adjacency = units[:, :, None] * units[:, None, :] * adjacency
    if kind == "adjacency":
        return phased_adjacency
    diag = np.diag(degrees).astype(complex)
    if kind == "laplacian":
        return diag - phased_adjacency
    return diag + phased_adjacency


def phase_classes(size: int, k: int) -> Iterator[tuple[int, ...]]:
    """One representative per phase class, canonically l_u in [0, k/2).

    Adding k/2 to any single phase multiplies the corresponding unit by -1,
    which is a plain sign similarity; restricting to [0, k/2) picks exactly
    one representative per class, in lexicographic order.
    """
    if size < 1:
        raise ValueError("phase classes need at least one vertex")
    if k < 2 or k % 2:
        raise ValueError("phase classes need an even k >= 2")
    return itertools.product(range(k // 2), repeat=size)


@dataclass(frozen=True)
class SpectrumReport:
    """Deduplicated spectrum plus enumeration provenance."""

    kind: str
    k: int
    spectrum: SpectrumSet
    complete: bool
    budget_used: int

    @property
    def values(self) -> tuple[complex, ...]:
        return self.spectrum.values

    def to_json_dict(self) -> dict:
        witnesses = []
        for w in self.spectrum.witnesses:
            witnesses.append(w.to_json_dict() if w is not None else None)
        return {
            "kind": KIND_LETTER[self.kind],
            "k": self.k,
            "values": [[v.real, v.imag] for v in self.spectrum.values],
            "witnesses": witnesses,
            "complete": self.complete,
            "budget_used": self.budget_used,
        }


@dataclass(frozen=True)
class RhoResult:
    """Spectral radius over the enumerated reduction, with its witness.

    ``complete`` False marks a lower bound obtained under an exhausted budget.
    """

    value: float
    witness: ReductionWitness
    complete: bool
    budget_used: int

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "witness": self.witness.to_json_dict(),
            "complete": self.complete,
            "budget_used": self.budget_used,
        }


def _check_power_inputs(g: LoopedGraph, k: int) -> None:
    if g.has_loops:
        raise ValueError("power reductions start from a loop-free base graph")
    if k < 4 or k % 2:
        raise ValueError("half blow-ups need an even k >= 4")
    if not g.is_connected():
        raise ValueError("base graph must be connected")


def _plan_work(
    g: LoopedGraph, k: int, max_subset: int, budget: int, identity_only: bool = False
) -> tuple[list[tuple[tuple[int, ...], int]], bool, int]:
    """Deterministic per-subset phase quotas under the matrix budget.

    The identity-phase slice takes one matrix per subset, the full reduction
    one per phase class.
    """
    _check_power_inputs(g, k)
    if budget <= 0:
        raise ValueError("budget must be positive")
    complete = g.vertex_count <= max_subset
    used = 0
    plan = []
    for subset in connected_subsets(g, min(g.vertex_count, max_subset)):
        block = 1 if identity_only else (k // 2) ** len(subset)
        take = min(block, budget - used)
        if take < block:
            complete = False
        if take > 0:
            plan.append((subset, take))
            used += take
    return plan, complete, used


# matrix entries per eigensolver call; bounds the memory of one stack
_STACK_ENTRIES = 1 << 16


def _solve_plan(
    g: LoopedGraph,
    k: int,
    kind: str,
    plan: list[tuple[tuple[int, ...], int]],
    identity_only: bool = False,
) -> Iterator[tuple[tuple[int, ...], list[tuple[int, ...]], np.ndarray]]:
    """Build and solve the planned reduced matrices, one stack at a time.

    Yields ``(subset, phases, values)``: consecutive phase classes of one
    subset and the sorted eigenvalues of their matrices, one row per class.
    A failed certificate re-raises ConvergenceError naming its witness.
    """
    graph_degrees, graph_adjacency = g.degree_vector(), g.adjacency_matrix()
    for subset, quota in plan:
        degrees, adjacency = _principal(graph_degrees, graph_adjacency, subset)
        classes = itertools.islice(phase_classes(len(subset), k), quota)
        batch = max(1, _STACK_ENTRIES // len(subset) ** 2)
        while phases := list(itertools.islice(classes, batch)):
            stack = _phased_matrices(degrees, adjacency, k, np.array(phases), kind)
            try:
                if identity_only:
                    # one real symmetric matrix: the all-zero phase class
                    pairs = eig_real_symmetric(stack[0].real)
                    values = np.array([[p.value for p in pairs]])
                else:
                    values = eig_complex_stack(stack)[0]
            except ConvergenceError as exc:
                witness = f"subset {subset}, phases {phases[exc.index or 0]}"
                raise ConvergenceError(f"{exc} at {witness}") from exc
            yield subset, phases, values


class _Witnesses(Sequence):
    """The witness of every enumerated eigenvalue, built only when read.

    Indexes the eigenvalues of the solved blocks row by row, in the order
    ``_solve_plan`` yields them; dedup reads one witness per cluster.
    """

    def __init__(
        self,
        k: int,
        kind: str,
        blocks: list[tuple[tuple[int, ...], list[tuple[int, ...]], np.ndarray]],
    ) -> None:
        self._k, self._kind, self._blocks = k, kind, blocks
        self._ends = list(itertools.accumulate(v.size for _, _, v in blocks))

    def __len__(self) -> int:
        return self._ends[-1] if self._ends else 0

    def __getitem__(self, index: int) -> ReductionWitness:
        if not 0 <= index < len(self):
            raise IndexError("witness index out of range")
        block = bisect.bisect_right(self._ends, index)
        subset, phases, values = self._blocks[block]
        start = self._ends[block] - values.size
        row, col = divmod(int(index) - start, values.shape[1])
        assign = PhaseAssignment(self._k, phases[row])
        return ReductionWitness(subset, assign, self._kind, values[row, col].item())


def _spectrum_report(
    g: LoopedGraph,
    k: int,
    kind: str,
    dedup_tol: float,
    max_subset: int,
    budget: int,
    identity_only: bool,
) -> SpectrumReport:
    kind = normalize_kind(kind)
    plan, complete, used = _plan_work(g, k, max_subset, budget, identity_only)
    blocks = list(_solve_plan(g, k, kind, plan, identity_only))
    values = np.concatenate([v.ravel() for _, _, v in blocks]) if blocks else []
    witnesses = _Witnesses(k, kind, blocks)
    spectrum = SpectrumSet(values, dedup_tol=dedup_tol, witnesses=witnesses)
    return SpectrumReport(kind, k, spectrum, complete, used)


def spectrum_power(
    g: LoopedGraph,
    k: int,
    kind: str = "laplacian",
    *,
    dedup_tol: float = DEDUP_TOL,
    max_subset: int = DEFAULT_MAX_SUBSET,
    budget: int = DEFAULT_BUDGET,
) -> SpectrumReport:
    """Spectrum of the chosen tensor of the half blow-up of ``g``.

    Unions the eigenvalues of every reduced matrix over connected subsets and
    phase classes, deduplicated at ``dedup_tol``.  Results under an exhausted
    budget are flagged incomplete, never silently truncated.
    """
    return _spectrum_report(g, k, kind, dedup_tol, max_subset, budget, False)


def h_spectrum_power(
    g: LoopedGraph,
    k: int,
    kind: str = "laplacian",
    *,
    dedup_tol: float = DEDUP_TOL,
    max_subset: int = DEFAULT_MAX_SUBSET,
    budget: int = DEFAULT_BUDGET,
) -> SpectrumReport:
    """H-spectrum of the chosen tensor of the half blow-up of ``g``.

    This is the identity-phase slice of the reduction: real symmetric matrices
    of modified induced subgraphs, one per connected subset.
    """
    return _spectrum_report(g, k, kind, dedup_tol, max_subset, budget, True)


def lambda_max_laplacian(g: LoopedGraph, k: int) -> float:
    """Largest H-eigenvalue of the Laplacian tensor of the half blow-up.

    Equals the largest Laplacian matrix eigenvalue of the base graph for every
    admissible k, so k only gates the preconditions.
    """
    _check_power_inputs(g, k)
    return float(eig_real_symmetric(g.laplacian_matrix())[-1].value)


def rho_power(
    g: LoopedGraph,
    k: int,
    kind: str = "laplacian",
    *,
    max_subset: int = DEFAULT_MAX_SUBSET,
    budget: int = DEFAULT_BUDGET,
    tie_tol: float = 1e-9,
) -> RhoResult:
    """Spectral radius of the chosen tensor of the half blow-up of ``g``.

    The maximum eigenvalue modulus over the full reduction.  Ties within
    ``tie_tol`` (relative) resolve to the lexicographically smallest
    (|U|, U, phases) witness; among that matrix's top-modulus eigenvalues the
    one with nonnegative imaginary part is preferred.
    """
    kind = normalize_kind(kind)
    plan, complete, used = _plan_work(g, k, max_subset, budget)
    top = -np.inf
    tied: list[tuple[float, ReductionWitness]] = []
    for subset, phases, values in _solve_plan(g, k, kind, plan):
        # np.hypot rounds exactly like abs() on a Python complex
        moduli = np.hypot(values.real, values.imag)
        tops = moduli.max(axis=1)
        top = max(top, float(tops.max()))
        threshold = top - tie_tol * max(1.0, top)
        tied = [entry for entry in tied if entry[0] >= threshold]
        for i in np.flatnonzero(tops >= threshold):
            row_top = float(tops[i])
            near = moduli[i] >= row_top - tie_tol * max(1.0, row_top)
            nonneg = near & (values[i].imag >= 0)
            # rows are sorted by (real, imag): the first hit is the minimum
            j = np.flatnonzero(nonneg if nonneg.any() else near)[0]
            assign = PhaseAssignment(k, phases[i])
            witness = ReductionWitness(subset, assign, kind, complex(values[i, j]))
            tied.append((row_top, witness))
    if not tied:
        raise ValueError("reduction produced no matrices")
    witness = min(
        (w for _, w in tied), key=lambda w: (len(w.subset), w.subset, w.phase.phases)
    )
    return RhoResult(top, witness, complete, used)


def uniform_phase_matrix(g: LoopedGraph, k: int) -> np.ndarray:
    """Reduced Laplacian for the uniform phase assignment at k = 4l + 2.

    With every phase equal to l the adjacency coefficient becomes
    -exp(i*2*pi*l/(2l+1)), which tends to +1 as k grows, so this matrix tends
    to the signless Laplacian of the base graph.  Requires k = 2 (mod 4).
    """
    if k % 4 != 2 or k < 6:
        raise ValueError("uniform phase matrix needs k = 2 (mod 4), k >= 6")
    _check_power_inputs(g, k)
    level = (k - 2) // 4
    coefficient = np.exp(2j * np.pi * level / (2 * level + 1))
    diag = np.diag(g.degree_vector()).astype(complex)
    return diag - coefficient * g.adjacency_matrix()
