"""Reduction of power-hypergraph tensor spectra to small complex matrices.

The spectrum of the Laplacian tensor of a half-blowup power is the union of
the eigenvalues of phase-reduced matrices D[U] - E A[U] E over all connected
vertex subsets U of the base graph and all assignments E of k-th roots of
unity, one representative per sign class; the H-spectrum is the identity-phase
slice.  This module enumerates those matrices and assembles deduplicated
spectra, spectral radii and largest H-eigenvalues with witnesses.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterator, Sequence

import numpy as np

from hyperspec.graphs import LoopedGraph, as_subset, connected_subsets
from hyperspec.linalg import (
    DEFAULT_DEDUP_TOL as DEDUP_TOL,
    ConvergenceError,
    SpectrumSet,
    check_dedup_tol,
    eig_complex_stack,
    eig_real_symmetric,
    eig_real_symmetric_stack,
)
from hyperspec.witnesses import (
    KIND_LETTER,
    Block,
    PhaseAssignment,
    ReductionWitness,
    RhoResult,
    SpectrumReport,
    WitnessTable,
    _witness_table,
    normalize_kind,
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
    "WitnessTable",
    "reduced_matrix",
    "phase_classes",
    "spectrum_power",
    "h_spectrum_power",
    "lambda_max_laplacian",
    "rho_power",
    "uniform_phase_matrix",
]

STRICT_MARGIN = 1e-6
# relative band of moduli that rho_power treats as tied with the top
TIE_TOL = 1e-9
DEFAULT_MAX_SUBSET = 8
DEFAULT_BUDGET = 10**6


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
    index, rows = np.array([subset]), np.array([assign.phases])
    matrices = g.degree_vector(), g.adjacency_matrix()
    # all-zero phases build a real matrix
    return _phased_matrices(*matrices, index, k, rows, kind)[0].astype(complex)


def _phased_matrices(
    degrees: np.ndarray,
    adjacency: np.ndarray,
    index: np.ndarray,
    k: int,
    phases: np.ndarray,
    kind: str,
) -> np.ndarray:
    """D[U] - E A[U] E for every row of ``phases``, stacked as an (N, s, s) array.

    ``degrees`` and ``adjacency`` are D and A of the base graph.  ``index``
    holds the sorted members of U, one row per phase row, or a single row
    that distinct phase rows share by broadcasting.  E is the diagonal of
    exp(2 pi i l / k) over a row's phases l.  The signless kind is
    D + E A E and the adjacency kind is E A E.  When every phase is zero,
    E = I exactly: the exp and the products are skipped and the stack stays
    real, with the same values.

    D and E are applied in place, with no (N, s, s) temporary beyond the
    gathered A[U] and the phase products, and bit for bit as the dense
    expressions: off the diagonal D - S is 0 - S and D + S is 0 + S (which
    turns -0.0 into +0.0), and on it (0 -+ S) + d rounds as d -+ S.
    """
    size = index.shape[1]
    stack = adjacency[index[:, :, None], index[:, None, :]]
    if phases.any():
        units = np.exp(2j * np.pi * phases / k)
        product = units[:, :, None] * units[:, None, :]
        stack = np.multiply(product, stack, out=product)
    if kind == "adjacency":
        return stack
    if kind == "laplacian":
        np.subtract(0.0, stack, out=stack)
    else:
        stack += 0.0
    stack[:, range(size), range(size)] += degrees[index]
    return stack


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
    if max_subset < 1:
        raise ValueError("max_subset must be positive")
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


def _class_phases(size: int, k: int, positions: Sequence[int]) -> np.ndarray:
    """Phases of the classes at ``positions`` in ``phase_classes(size, k)``.

    Class i spells i in base k/2, most significant digit first, which is the
    lexicographic order of ``phase_classes``.  One row per position, in
    the narrowest signed integer dtype that holds every phase: int8 up to
    k = 256.
    """
    rest = np.asarray(positions, dtype=np.int64)
    # the narrowest signed dtype that holds k/2 - 1 (it holds -k/2)
    phases = np.empty((len(rest), size), dtype=np.min_scalar_type(-(k // 2)))
    for column in range(size - 1, -1, -1):
        rest, phases[:, column] = np.divmod(rest, k // 2)
    return phases


def _identity_blocks(subsets: Sequence[tuple[int, ...]]) -> list[Block]:
    """One all-zero phase row per subset: E = I, and the matrices stay real."""
    return [(subset, np.zeros((1, len(subset)), np.int64)) for subset in subsets]


def _stacks(
    blocks: Sequence[Block], positions: list[int], rows: int
) -> list[list[tuple[int, int, int]]]:
    """The phase rows of the blocks at ``positions``, block after block, cut
    into stacks of at most ``rows`` rows; a stack lists the (position, lo,
    hi) row ranges it takes from each block."""
    stacks, stack, room = [], [], rows
    for position in positions:
        count, lo = len(blocks[position][1]), 0
        while count - lo >= room:  # the rest of the block fills the stack
            stack.append((position, lo, lo + room))
            stacks.append(stack)
            lo, stack, room = lo + room, [], rows
        if lo < count:
            stack.append((position, lo, count))
            room -= count - lo
    return stacks + [stack] if stack else stacks


def _solve_blocks(
    matrices: tuple[np.ndarray, np.ndarray],
    k: int,
    kind: str,
    blocks: Sequence[Block],
    solve: Callable[[np.ndarray], np.ndarray],
    build: Callable[..., np.ndarray] | None = None,
) -> tuple[np.ndarray, list[int]]:
    """``solve`` of the reduced matrices of every block, in one flat array.

    ``matrices`` are D and A of the base graph, and ``solve`` maps a stack of
    matrices to one result row per matrix, of a width fixed by their size.
    Returns ``(values, ends)``: the results of block i, row after row, end
    at ``values[ends[i] - 1]`` and start where those of block i - 1 end.
    Blocks of one subset size share stacks: their rows go to ``build``
    (``_phased_matrices`` unless given; ``_charpoly.residues`` builds the
    images mod p) in block order, at most ``_STACK_ENTRIES`` matrix entries
    per stack, gathered from the blocks that a stack spans; a stack
    within one block passes its one-row subset on whole.  The first stack of
    every size is solved first, which sets the widths and so the layout of
    ``values``; every other stack is written there as soon as it is solved,
    so no size's rows or results are ever copied whole.  A ConvergenceError
    of ``solve`` is re-raised naming the subset and phases of its ``index``
    row (the first without one).  Every block needs at least one row.
    """
    sizes: dict[int, list[int]] = {}
    for position, (subset, _) in enumerate(blocks):
        sizes.setdefault(len(subset), []).append(position)

    def run(stack: list[tuple[int, int, int]]) -> np.ndarray:
        index = np.array([blocks[p][0] for p, _, _ in stack])
        phases = [blocks[p][1][lo:hi] for p, lo, hi in stack]
        if len(stack) == 1:
            phases = phases[0]
        else:
            phases = np.concatenate(phases)
            index = np.repeat(index, [hi - lo for _, lo, hi in stack], axis=0)
        try:
            return solve((build or _phased_matrices)(*matrices, index, k, phases, kind))
        except ConvergenceError as exc:
            row = exc.index or 0
            subset = tuple(index[row if len(index) > 1 else 0].tolist())
            where = f"subset {subset}, phases {tuple(phases[row].tolist())}"
            raise ConvergenceError(f"{exc} at {where}") from exc

    cuts = [_stacks(blocks, group, max(1, _STACK_ENTRIES // s**2)) for s, group in sizes.items()]
    firsts = [run(stacks[0]) for stacks in cuts]
    width = {s: first[0].size for s, first in zip(sizes, firsts)}
    counts = [len(phases) * width[len(subset)] for subset, phases in blocks]
    ends = list(itertools.accumulate(counts))
    values = np.empty(sum(counts), np.result_type(float, *firsts))

    def put(stack: list[tuple[int, int, int]], part: np.ndarray) -> None:
        # each range of rows goes to its block's place in values
        step, row = part[0].size, 0
        for p, lo, hi in stack:
            start = ends[p] - counts[p] + lo * step
            values[start : start + (hi - lo) * step] = part[row : row + hi - lo].ravel()
            row += hi - lo

    for stacks in cuts:
        put(stacks[0], firsts.pop(0))
    for stacks in cuts:
        for stack in stacks[1:]:
            put(stack, run(stack))
    return values, ends


def _symmetric_values(stack: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a real symmetric stack, every pair certified."""
    return eig_real_symmetric_stack(stack)[0]


def _complex_values(stack: np.ndarray) -> np.ndarray:
    """Eigenvalues of a complex stack, sorted by (real, imag), every pair certified."""
    return eig_complex_stack(stack)[0]


# the slack delta of the per-class bounds (||M^8|| + delta ||M||^8)^(1/8);
# rho_power derives it
_GELFAND_SLACK = 1e-9


def _gelfand_bounds(stack: np.ndarray) -> np.ndarray:
    """(||M^8|| + delta ||M||^8)^(1/8) in the infinity norm for each matrix M
    of ``stack``, in stack order.

    M^8 comes from three stacked squarings with ``np.einsum``, which keeps
    BLAS matmul buffers out of resident memory.  Overflow gives +inf.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        power = stack
        for _ in range(3):
            power = np.einsum("nij,njk->nik", power, power)
        norms = np.abs(stack).sum(axis=2).max(axis=1)
        power_norms = np.abs(power).sum(axis=2).max(axis=1)
        slack = _GELFAND_SLACK * norms**8
        return (power_norms + slack) ** (1 / 8)


def _perron_bounds(
    matrices: tuple[np.ndarray, np.ndarray],
    subsets: list[tuple[int, ...]],
    kind: str,
) -> np.ndarray:
    """Perron majorant of every phase class of each subset.

    Entrywise |D[U] -+ E A[U] E| = D[U] + A[U] and |E A[U] E| = A[U], so the
    spectral radius of each reduced matrix of U is at most the largest
    eigenvalue of that nonnegative symmetric matrix.  A failed certificate
    bounds nothing: every subset gets +inf.
    """
    majorant = "adjacency" if kind == "adjacency" else "signless"
    blocks = _identity_blocks(subsets)
    try:
        # all-zero phases make any even k the same
        values, ends = _solve_blocks(matrices, 2, majorant, blocks, _symmetric_values)
    except ConvergenceError:
        return np.full(len(subsets), np.inf)
    # each subset's values ascend, so its last is the largest
    return values[np.array(ends) - 1]


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
    # a bad tolerance fails before the enumeration, not after it
    check_dedup_tol(dedup_tol)
    plan, complete, used = _plan_work(g, k, max_subset, budget, identity_only)
    matrices = g.degree_vector(), g.adjacency_matrix()
    # imported on use, so that importing the package does not compile it
    from hyperspec import _charpoly, _orbits

    if identity_only:
        blocks = _identity_blocks([subset for subset, _ in plan])
        values, _ = _solve_blocks(matrices, k, kind, blocks, _symmetric_values)
        rows = _charpoly.value_rows(blocks)
    else:
        # one matrix per chi class, the first in plan order: only the rows
        # that no earlier planned row is similar to are keyed
        blocks = _orbits.keyed_blocks(g, plan, k)
        firsts = _solve_blocks(matrices, k, kind, blocks, _charpoly.Firsts(k), _charpoly.residues)
        blocks = _charpoly.representatives(blocks, *firsts)
        values, _ = _solve_blocks(matrices, k, kind, blocks, _complex_values)
        values, rows = _charpoly.group_rows(matrices, k, kind, blocks, values)
    spectrum = SpectrumSet(values, dedup_tol=dedup_tol)
    witnesses = _witness_table(k, kind, blocks, rows, values, spectrum.sources)
    return SpectrumReport(kind, k, spectrum, witnesses, complete, used)


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
    budget are flagged incomplete, never silently truncated; ``budget_used``
    counts the planned matrices.

    Matrices with one characteristic polynomial chi share their eigenvalues,
    so only the first matrix of each chi class, in plan order, is
    eigensolved.  Matrices are keyed by chi modulo two primes
    (``hyperspec._charpoly``), from a few exact float64 matrix products,
    but only those that no earlier planned matrix is sign- or
    permutation-similar to (``hyperspec._orbits``): on a subset that
    induces a bipartite subgraph, only the (k/2)^(s-1) orbit minima of its
    phase rows, which the k/2 gauge shifts of each row share a key with; no
    row of a subset whose graph, labelled by base degrees, is isomorphic to
    an earlier subset's; and no row that an automorphism of that labelled
    graph sends to an earlier row.  The earliest matrix with a given
    eigenvalue is then a class representative, so each value's witness is
    still the earliest planned matrix that has it.
    A repeated eigenvalue comes back from LAPACK as several close values,
    scattered by up to about eps^(1/m) when it is defective, which no dedup
    tolerance can tell from distinct values.  So the computed values of a
    representative are merged, closest pair first, into as many groups as
    chi has distinct roots, with the multiplicities of its square-free
    factorisation, and each group reports its mean.  The reported values are then the distinct eigenvalues
    whatever the labelling or ``dedup_tol`` (713 for C5 at k = 8, as exact
    arithmetic gives).  A group that spreads beyond 1e-3 max(1, ||M||) or
    disagrees with those multiplicities raises ConvergenceError.

    Each representative is solved once, with ``eig_complex_stack``, whose
    1e-9 residual gate certifies every computed value before the merge.
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


def _tie(top: float) -> float:
    """The threshold of the moduli tied with ``top``: ``TIE_TOL`` relative."""
    return top - TIE_TOL * max(1.0, top)


def _below(bound: float | np.ndarray, threshold: float):
    """Whether a certified modulus bound stays short of the tie threshold.

    The 1e-8 max(1, bound) margin absorbs the rounding of the bound and the
    backward error of the eigensolver; see rho_power.
    """
    return bound + 1e-8 * np.maximum(1.0, bound) < threshold


def rho_power(
    g: LoopedGraph,
    k: int,
    kind: str = "laplacian",
    *,
    max_subset: int = DEFAULT_MAX_SUBSET,
    budget: int = DEFAULT_BUDGET,
) -> RhoResult:
    """Spectral radius of the chosen tensor of the half blow-up of ``g``.

    The maximum eigenvalue modulus over the full reduction.  Ties within
    ``TIE_TOL`` (relative) resolve to the lexicographically smallest
    (|U|, U, phases) witness; among that matrix's top-modulus eigenvalues
    the one with nonnegative imaginary part is preferred.
    ``budget_used`` counts the planned matrices.

    Not every planned matrix is eigensolved.  A certified bound b on the
    computed eigenvalue moduli of a matrix prunes it when
    b + 1e-8 max(1, b) lies below the tie threshold top - TIE_TOL max(1, top)
    of the running maximum.  The threshold only rises, so a pruned matrix
    cannot reach the final one either; the maximum and the tied set (every
    row at or above the final threshold, with its witness the minimum of
    unique keys) do not depend on the order of the solves.  The result is
    therefore the one of the unpruned enumeration.  Every solved row is
    certified: each unpruned class is solved with ``eig_complex_stack``,
    whose 1e-9 residual gate checks every pair as it is solved, and pruned
    ones rest on their certified bound.  The tied rows' values are then merged
    into the means of their chi groups, as spectra merge them, wherever a
    group can reach the row's largest modulus (the tie band, ``TIE_TOL``
    relative, lies well inside that reach), and the maximum and the ties
    are read from those means, so a scattered defective top eigenvalue
    cannot overstate the radius.  The pruning still runs on the computed
    moduli: a matrix whose top eigenvalue lies within that scatter of the
    maximum may be pruned, so the radius can fall short by at most the
    scatter.  Bounds come at two levels.

    Subsets.  Entrywise |D[U] - E A[U] E| = D[U] + A[U], so
    beta(U) = rho(D[U] + A[U]) (rho(A[U]) for the adjacency kind) bounds
    every phase class of U.  Subsets are visited in descending beta, ties in
    plan order, and the visit stops at the first one that beta prunes.  A
    computed eigenvalue is an exact eigenvalue of M + E with |E| about
    n eps |M|, so its modulus is at most rho(|M| + |E|) <= beta + O(n eps |M|),
    far inside the 1e-8 margin (which also absorbs the rounding of beta),
    even for defective M.

    Phase classes.  Each class M of a visited subset gets, in the infinity
    norm, b(M) = (||C|| + delta ||M||^8)^(1/8) with C the computed M^8 (three
    squarings) and delta = 1e-9.  Gelfand's bound rho(X)^8 <= ||X^8|| holds
    for any X; take X = M + F, of which LAPACK's computed eigenvalues of M
    are exact eigenvalues.  Then ||X^8|| <= ||M^8|| + (||M|| + ||F||)^8 -
    ||M||^8, and two terms make up delta at n <= COMPLEX_CAP = 64 with unit
    roundoff u = 2^-53.  The squarings: a complex inner product of length n
    errs by at most g |x|^T |y| with g = (n + 2) u / (1 - (n + 2) u), in any
    summation order, so three squarings give |C - M^8| <= ((1 + g)^7 - 1)
    |M|^8, at most 5.2e-14 ||M||^8.  The eigensolver: the backward error of
    the Hessenberg QR algorithm is ||F||_2 <= p(n) u ||M||_2 with p a modest
    polynomial; with p(n) = n^2 and the norm equivalences,
    ||F|| <= n^3 u ||M|| = 2^-35 ||M||, which adds at most
    ((1 + 2^-35)^8 - 1) ||M||^8 < 2.4e-10 ||M||^8.  Their sum is below a
    quarter of delta.  The rounding of the two norms, of the sum, of the root
    and of each computed modulus are relative errors near n u, inside the
    1e-8 margin.  The classes of a subset are solved in descending b, ties in
    class order: the top-bound class alone, then, in class order, every
    other class that the threshold reached after that solve does not prune.
    A non-finite bound (overflow) prunes nothing in its subset.
    """
    kind = normalize_kind(kind)
    plan, complete, used = _plan_work(g, k, max_subset, budget)
    matrices = g.degree_vector(), g.adjacency_matrix()
    bounds = _perron_bounds(matrices, [subset for subset, _ in plan], kind)
    solved: list[tuple[Block, np.ndarray]] = []
    top = threshold = -np.inf

    def solve(block: Block) -> None:
        nonlocal top, threshold
        values, _ = _solve_blocks(matrices, k, kind, [block], _complex_values)
        values = values.reshape(len(block[1]), -1)
        solved.append((block, values))
        # np.hypot rounds exactly like abs() on a Python complex
        top = max(top, float(np.hypot(values.real, values.imag).max()))
        threshold = _tie(top)

    for position in np.argsort(-bounds, kind="stable"):
        if _below(bounds[position], threshold):
            break
        subset, quota = plan[position]
        phases = _class_phases(len(subset), k, range(quota))
        block = [(subset, phases)]
        class_bounds, _ = _solve_blocks(matrices, k, kind, block, _gelfand_bounds)
        if np.isfinite(class_bounds).all():
            first = int(np.argmax(class_bounds))
            if _below(class_bounds[first], threshold):
                continue
            solve((subset, phases[first : first + 1]))
            reach = ~_below(class_bounds, threshold)
            reach[first] = False
            phases = phases[reach]
        if len(phases):
            solve((subset, phases))
    # the threshold only rose, so the rows at or above its final value are
    # the tied rows of the unpruned enumeration
    blocks, rows = [], []
    for (subset, phases), values in solved:
        tied = np.hypot(values.real, values.imag).max(axis=1) >= threshold
        if tied.any():
            blocks.append((subset, phases[tied]))
            rows.extend(values[tied])
    if not rows:
        raise ValueError("reduction produced no matrices")
    from hyperspec import _charpoly

    table = WitnessTable(k, kind, blocks, _charpoly.value_rows(blocks), np.concatenate(rows))
    # the maximum is read from each row's groups' means, so a scattered
    # defective eigenvalue cannot overstate it
    points, of = _charpoly.group_rows(matrices, k, kind, blocks, table.eigenvalues, top_only=True)
    moduli = np.hypot(points.real, points.imag)
    tops = np.zeros(len(rows))
    np.maximum.at(tops, of, moduli)
    top, keys = float(tops.max()), table.matrix_keys()
    j = min(np.flatnonzero(tops >= _tie(top)), key=lambda j: (len(keys[j][0]), keys[j]))
    (subset, phases), values = keys[j], points[of == j]
    near = moduli[of == j] >= _tie(tops[j])
    nonneg = near & (values.imag >= 0)
    # rows are sorted by (real, imag): the first hit is the minimum
    j = np.flatnonzero(nonneg if nonneg.any() else near)[0]
    assign = PhaseAssignment(k, phases)
    witness = ReductionWitness(subset, assign, kind, complex(values[j]))
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
