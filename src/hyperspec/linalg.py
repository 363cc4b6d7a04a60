"""Dense eigensolvers with residual certificates, Perron iteration, spectrum sets.

Eigenvalues come from LAPACK through numpy (Hessenberg reduction plus shifted
QR underneath); every returned pair is certified a posteriori by its residual,
and a pair that misses its certificate raises ConvergenceError.  Values-only
solves certify nothing; their callers certify what they report.  Large
complex stacks are split into row parts solved at once on the CPUs
available, one thread per part; every matrix is still solved alone by the
same LAPACK call, so the values are the same bits at any CPU count.  The
nonnegative power iteration is written out longhand so it stays an
independent cross-check of the dense solvers.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from hyperspec._split import split_solve

__all__ = [
    "ConvergenceError",
    "EigenPair",
    "MIN_DEDUP_TOL",
    "SpectrumSet",
    "check_dedup_tol",
    "eig_real_symmetric",
    "eig_real_symmetric_stack",
    "eig_complex_pairs",
    "eig_complex_stack",
    "eigvals_complex_stack",
    "spectral_radius",
    "power_iteration_nonneg",
]

DEFAULT_DEDUP_TOL = 1e-8
SYMMETRIC_CAP = 256
COMPLEX_CAP = 64
SYMMETRIC_RESIDUAL_TOL = 1e-10
BACKWARD_ERROR_TOL = 1e-9
PERRON_RESIDUAL_TOL = 1e-10


class ConvergenceError(RuntimeError):
    """A solver missed its tolerance: an eigenpair residual above its
    certificate, or an iteration budget exhausted first.  ``index``, when
    set, is the position in the stack of the matrix that failed."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


@dataclass(frozen=True)
class EigenPair:
    """One eigenvalue with a max-norm-1 eigenvector and its certified residual."""

    value: complex
    vector: np.ndarray
    residual: float


def _pairs(
    stack: tuple[np.ndarray, np.ndarray, np.ndarray], cast: type
) -> list[EigenPair]:
    """The EigenPairs of a one-matrix ``(values, vectors, residuals)`` stack,
    each value passed through ``cast`` and each vector a read-only copy."""
    values, vectors, residuals = stack
    pairs = []
    for j in range(values.shape[1]):
        vec = vectors[0, :, j].copy()
        vec.flags.writeable = False
        pairs.append(EigenPair(cast(values[0, j]), vec, float(residuals[0, j])))
    return pairs


def eig_real_symmetric_stack(
    ms: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Certified eigenpairs of a stack of real symmetric matrices.

    Returns ``(values, vectors, residuals)`` of shapes (N, n), (N, n, n) and
    (N, n): each row of values ascending, column j of ``vectors[i]`` the
    max-norm-1 eigenvector of ``values[i, j]``, and its residual relative to
    the matrix norm.  Raises ValueError for a matrix that is not symmetric
    within 1e-12 or a dimension above ``SYMMETRIC_CAP`` (256), and
    ConvergenceError if a residual misses the 1e-10 certificate; its
    ``index`` is the position of the matrix in the stack.
    """
    ms = np.asarray(ms, dtype=float)
    if ms.ndim != 3 or ms.shape[1] != ms.shape[2]:
        raise ValueError("expected square matrices")
    n = ms.shape[1]
    if n > SYMMETRIC_CAP:
        raise ValueError(f"matrix dimension {n} exceeds cap {SYMMETRIC_CAP}")
    if n == 0:
        return np.zeros((len(ms), 0)), np.zeros(ms.shape), np.zeros((len(ms), 0))
    scale = np.maximum(1.0, np.max(np.sum(np.abs(ms), axis=2), axis=1))
    asymmetry = np.max(np.abs(ms - ms.transpose(0, 2, 1)), axis=(1, 2))
    if np.any(asymmetry > 1e-12 * scale):
        raise ValueError("matrix is not symmetric within 1e-12")
    values, vectors = np.linalg.eigh(ms)
    # divide each column by its largest-modulus entry, which becomes exactly 1
    rows = np.argmax(np.abs(vectors), axis=1)
    vectors = vectors / np.take_along_axis(vectors, rows[:, None, :], axis=1)
    # einsum, not matmul: a stacked real matmul goes through BLAS dgemm,
    # whose first call alone adds about 0.25 MiB of resident buffers
    gaps = np.einsum("nij,njk->nik", ms, vectors) - vectors * values[:, None, :]
    residuals = np.max(np.abs(gaps), axis=1) / scale[:, None]
    failed = np.argwhere(residuals > SYMMETRIC_RESIDUAL_TOL)
    if failed.size:
        i, j = failed[0]
        raise ConvergenceError(
            f"symmetric eigenpair residual {residuals[i, j]:.3e} exceeds 1e-10",
            index=int(i),
        )
    return values, vectors, residuals


def eig_real_symmetric(m: np.ndarray) -> list[EigenPair]:
    """All eigenpairs of a real symmetric matrix, ascending by eigenvalue.

    The one-matrix case of :func:`eig_real_symmetric_stack`: ValueError for
    non-symmetric input or dimension above ``SYMMETRIC_CAP``, ConvergenceError
    if any residual misses the 1e-10 certificate.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("expected a square matrix")
    return _pairs(eig_real_symmetric_stack(m[None]), float)


def _complex_stack(ms: np.ndarray) -> np.ndarray:
    """``ms`` as a complex (N, n, n) stack, checked for shape, finiteness and
    a dimension of at most ``COMPLEX_CAP`` (64)."""
    ms = np.asarray(ms, dtype=complex)
    if ms.ndim != 3 or ms.shape[1] != ms.shape[2]:
        raise ValueError("expected square matrices")
    n = ms.shape[1]
    if n > COMPLEX_CAP:
        raise ValueError(f"matrix dimension {n} exceeds cap {COMPLEX_CAP}")
    if not np.all(np.isfinite(ms)):
        raise ValueError("matrix entries must be finite")
    return ms


def eigvals_complex_stack(ms: np.ndarray) -> np.ndarray:
    """Eigenvalues of a stack of general complex matrices, without vectors.

    Returns an (N, n) array, each row sorted by (real, imag), after the input
    checks of :func:`eig_complex_stack`.  The values are uncertified but bit
    for bit ``eig_complex_stack(ms)[0]``: numpy's ``eigvals`` and ``eig``
    both run zgeev, whose eigenvalues come from zlahqr for every n < 75
    whether or not vectors are asked for.
    Large stacks are solved in row parts on threads (``split_solve``); each
    matrix is still one zgeev call on the same bytes, so the values are the
    same bits at any CPU count.
    """
    # numpy orders complex values by (real, imag); stable keeps ties as eig's
    values = split_solve(np.linalg.eigvals, _complex_stack(ms))
    return np.sort(values, axis=-1, kind="stable")


def eig_complex_stack(ms: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Certified eigenpairs of a stack of general complex matrices of dimension
    at most ``COMPLEX_CAP`` (64).

    Returns ``(values, vectors, residuals)`` of shapes (N, n), (N, n, n) and
    (N, n): each row of values sorted by (real, imag), column j of
    ``vectors[i]`` the max-norm-1 eigenvector of ``values[i, j]``, and its
    residual relative to the matrix norm.  A residual above 1e-9 raises
    ConvergenceError whose ``index`` is the position of its matrix in the
    stack.  The ``np.linalg.eig`` call is split across threads as in
    :func:`eigvals_complex_stack`, with the same bits at any CPU count; the
    sort and residuals run on the calling thread.
    """
    ms = _complex_stack(ms)
    values, vectors = split_solve(np.linalg.eig, ms)
    if ms.shape[1] == 0:
        return values, vectors, np.zeros(values.shape)
    # lexsort is stable, so equal keys keep LAPACK's order as sorted() would
    order = np.lexsort((values.imag, values.real), axis=-1)
    values = np.take_along_axis(values, order, axis=-1)
    vectors = np.take_along_axis(vectors, order[:, None, :], axis=-1)
    # divide each column by its largest-modulus entry, which becomes exactly 1
    rows = np.argmax(np.abs(vectors), axis=1)
    pivots = np.take_along_axis(vectors, rows[:, None, :], axis=1)
    if np.any(pivots == 0):
        raise ValueError("cannot normalize the zero vector")
    vectors = vectors / pivots
    scale = np.maximum(1.0, np.max(np.sum(np.abs(ms), axis=2), axis=1))
    # matmul, not einsum: np.linalg.eig has already made BLAS zgemm's buffers
    # resident, while einsum's buffered iteration raised the peak resident
    # memory of the spectrum jobs by about 0.4 MiB
    gaps = ms @ vectors - vectors * values[:, None, :]
    residuals = np.max(np.abs(gaps), axis=1) / scale[:, None]
    failed = np.argwhere(residuals > BACKWARD_ERROR_TOL)
    if failed.size:
        i, j = failed[0]
        raise ConvergenceError(
            f"complex eigenpair residual {residuals[i, j]:.3e} exceeds 1e-9",
            index=int(i),
        )
    return values, vectors, residuals


def eig_complex_pairs(m: np.ndarray) -> list[EigenPair]:
    """All eigenpairs of a general complex matrix, sorted by (real, imag).

    The one-matrix case of :func:`eig_complex_stack`: each pair carries a
    certified residual below 1e-9 relative to the matrix norm.
    """
    return _pairs(eig_complex_stack(np.asarray(m)[None]), complex)


def spectral_radius(m: np.ndarray) -> float:
    """Maximum eigenvalue modulus of a general complex matrix."""
    pairs = eig_complex_pairs(m)
    if not pairs:
        return 0.0
    return max(abs(p.value) for p in pairs)


def _strongly_connected(pattern: np.ndarray) -> bool:
    n = pattern.shape[0]
    if n <= 1:
        return True

    def reach(adj: np.ndarray) -> int:
        seen = {0}
        queue = deque([0])
        while queue:
            u = queue.popleft()
            for w in np.nonzero(adj[u])[0]:
                if int(w) not in seen:
                    seen.add(int(w))
                    queue.append(int(w))
        return len(seen)

    return reach(pattern) == n and reach(pattern.T) == n


def power_iteration_nonneg(m: np.ndarray, budget: int = 100_000) -> EigenPair:
    """Perron eigenpair of an entrywise nonnegative irreducible matrix.

    Runs the power method on the (shifted) matrix with Collatz-Wielandt
    stopping bounds.  The returned vector is positive with max-norm 1 and the
    residual is certified below 1e-10 relative to the matrix norm.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("expected a square matrix")
    if np.any(m < 0):
        raise ValueError("matrix must be entrywise nonnegative")
    n = m.shape[0]
    if n == 0:
        raise ValueError("empty matrix")
    if not _strongly_connected(m > 0):
        raise ValueError("matrix zero pattern is reducible")
    x = np.ones(n)
    value = 0.0
    converged = False
    # shifting by I keeps iterates positive and the pattern primitive
    for _ in range(budget):
        y = m @ x + x
        quotients = y / x
        lo, hi = float(np.min(quotients)), float(np.max(quotients))
        value = 0.5 * (lo + hi) - 1.0
        if hi - lo <= 1e-13 * max(1.0, hi):
            converged = True
            break
        x = y / np.max(y)
    if not converged:
        raise ConvergenceError(f"power iteration budget {budget} exhausted")
    x = x / np.max(x)
    norm = float(np.max(np.sum(np.abs(m), axis=1)))
    res = float(np.max(np.abs(m @ x - value * x)) / max(1.0, norm))
    if res > PERRON_RESIDUAL_TOL:
        raise ConvergenceError(f"power iteration residual {res:.3e} exceeds 1e-10")
    x.flags.writeable = False
    return EigenPair(value, x, res)


# -- spectrum sets ----------------------------------------------------------


# smallest accepted dedup_tol; at or above it the grid of _clusters is exact
MIN_DEDUP_TOL = 2.0**-46

# candidate pairs tested per step, and entries summed per step; bounds the
# scratch arrays of a step
_CHUNK = 1 << 14

# cell side over the threshold, and the grid's shift in cell units, the
# irrationals (sqrt(5) - 1) / 2 and sqrt(2) - 1: they keep exact values such
# as integers off the cell edges
_SIDE = 17 / 32
_SHIFT = (0.6180339887498949, 0.4142135623730951)

# the cell offsets (dx, dy) a linked pair can span, one of each +-pair,
# nearest first
_OFFSETS = sorted(
    ((dx, dy) for dx in range(3) for dy in range(-2, 3) if (dx, dy) > (0, 0)),
    key=lambda o: (o[0] ** 2 + o[1] ** 2, o),
)


def _roots(parents: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Root of each node in the forest ``parents``, by pointer jumping."""
    roots = parents[nodes]
    while True:
        up = parents[roots]
        if np.array_equal(up, roots):
            return roots
        roots = up


def _union(parents: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """Join each pair (a, b) in the forest ``parents``, whose roots are minima.

    Each round hooks both roots of every still-separate pair onto the smaller
    one; ``np.minimum.at`` settles roots hooked by several pairs at once.
    """
    while True:
        ra, rb = _roots(parents, a), _roots(parents, b)
        apart = ra != rb
        if not apart.any():
            return
        a, b, ra, rb = a[apart], b[apart], ra[apart], rb[apart]
        low = np.minimum(ra, rb)
        np.minimum.at(parents, ra, low)
        np.minimum.at(parents, rb, low)


def _clusters(points: np.ndarray, threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """Single-linkage clusters of complex points at ``threshold``.

    Two points link when, in (real, imag) order, the later real part minus the
    earlier is at most ``threshold`` and so is their distance.  Returns
    ``(members, starts)``: the point indices grouped by cluster, clusters in
    the order of their smallest index and members in (real, imag) order, and
    the offset of each cluster in ``members``.

    The points fall into square cells of side s = 17/32 of the threshold t,
    cell (floor(re/s + a), floor(im/s + b)) for the shift (a, b).  Where
    every |re|, |im| is at most t / MIN_DEDUP_TOL, as SpectrumSet ensures,
    the two roundings of a cell coordinate move it by at most
    3u(2**46 / (17/32) + 1) < 0.045 cell (u = 2**-53).  So two points of one
    cell differ by less than 1.09 s < 0.58 t per axis and lie closer than
    0.82 t: they pass the exact test and join without one.  Points whose
    cells are 3 or more apart on an axis differ there by more than
    1.91 s > 1.01 t, and fail it.  Union-find runs over cells: for each
    offset of up to 2 cells per axis, the cell pairs not yet joined have
    their point pairs tested, at most ``_CHUNK`` at a time, and a cell pair
    leaves the queue as soon as it joins.
    """
    count = len(points)
    order = np.lexsort((points.imag, points.real))
    re, im = points.real[order], points.imag[order]
    # equal points always link, so the cells hold the distinct values and
    # every sorted position joins the component of its distinct value
    fresh = np.ones(count, dtype=bool)
    fresh[1:] = (re[1:] != re[:-1]) | (im[1:] != im[:-1])
    distinct = np.cumsum(fresh) - 1
    re, im = re[fresh], im[fresh]
    side = threshold * _SIDE
    # complex cell coordinates sort lexicographically, for np.unique and
    # np.searchsorted
    coords = np.empty(len(re), dtype=complex)
    coords.real = np.floor(re / side + _SHIFT[0])
    coords.imag = np.floor(im / side + _SHIFT[1])
    cells, cell_of = np.unique(coords, return_inverse=True)
    del coords
    # the points of cell c are by_cell[firsts[c] : firsts[c] + sizes[c]]
    by_cell = np.argsort(cell_of, kind="stable")
    sizes = np.bincount(cell_of, minlength=len(cells))
    firsts = np.cumsum(sizes) - sizes
    parents = np.arange(len(cells))
    last = len(cells) - 1
    for dx, dy in _OFFSETS:
        targets = cells + complex(dx, dy)
        found = np.minimum(np.searchsorted(cells, targets), last)
        a = np.flatnonzero(cells[found] == targets)
        b = found[a]
        # cell pair i owes sizes[a[i]] * sizes[b[i]] point pairs; done[i] are tested
        owed = sizes[a] * sizes[b]
        done = np.zeros(len(a), dtype=owed.dtype)
        while True:
            queue = (done < owed) & (_roots(parents, a) != _roots(parents, b))
            if not queue.any():
                break
            a, b, owed, done = a[queue], b[queue], owed[queue], done[queue]
            left = owed - done
            take = np.clip(_CHUNK - (np.cumsum(left) - left), 0, left)
            rows = np.repeat(np.arange(len(a)), take)
            taken = np.cumsum(take) - take
            j = done[rows] + np.arange(len(rows)) - taken[rows]
            across = sizes[b[rows]]
            p = by_cell[firsts[a[rows]] + j // across]
            q = by_cell[firsts[b[rows]] + j % across]
            lo, hi = np.minimum(p, q), np.maximum(p, q)
            dre = re[hi] - re[lo]
            # np.hypot rounds exactly like abs() on a Python complex
            near = (dre <= threshold) & (np.hypot(dre, im[hi] - im[lo]) <= threshold)
            _union(parents, a[rows[near]], b[rows[near]])
            done += take
    # key each cluster by its smallest point index; a stable sort of the
    # sorted positions keeps (real, imag) order within each cluster
    roots = _roots(parents, cell_of)[distinct]
    smallest = np.full(len(cells), count)
    np.minimum.at(smallest, roots, order)
    keys = smallest[roots]
    grouped = np.argsort(keys, kind="stable")
    starts = np.flatnonzero(np.diff(keys[grouped], prepend=-1))
    return order[grouped], starts


def _means(grouped: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """The mean of each run ``grouped[starts[i]:starts[i + 1]]``.

    Bit for bit ``sum(run) / len(run)`` on Python complex numbers: the sum
    is sequential, 0.0 + v1 + v2 + ..., and the quotient by the integer n
    is CPython's complex one, ((re + im * 0.0) / n, (im - re * 0.0) / n).
    Runs are padded with zeros to the power of two at or above their length
    and summed ``_CHUNK`` entries at a time by a cumulative sum along rows.
    Every partial sum after 0.0 + v1 differs from -0.0, so the padding
    leaves the sums unchanged.
    """
    sizes = np.diff(starts, append=len(grouped))
    sums = np.empty(len(starts), dtype=complex)
    bits = np.ceil(np.log2(sizes)).astype(int)
    for bit in range(int(bits.max()) + 1):
        bucket = np.flatnonzero(bits == bit)
        width = 1 << bit
        cols = np.arange(width)
        step = max(1, _CHUNK // width)
        for lo in range(0, len(bucket), step):
            runs = bucket[lo : lo + step]
            padded = np.zeros((len(runs), width), dtype=complex)
            inside = cols < sizes[runs, None]
            padded[inside] = grouped[(starts[runs, None] + cols)[inside]]
            padded[:, 0] += 0.0  # each sum starts 0.0 + v1
            np.cumsum(padded, axis=1, out=padded)
            sums[runs] = padded[:, -1]
    means = np.empty_like(sums)
    means.real = (sums.real + sums.imag * 0.0) / sizes
    means.imag = (sums.imag - sums.real * 0.0) / sizes
    return means


def check_dedup_tol(dedup_tol: float) -> None:
    """Raise ValueError unless ``dedup_tol`` is at least ``MIN_DEDUP_TOL`` (NaN is not)."""
    if not dedup_tol >= MIN_DEDUP_TOL:
        raise ValueError(f"dedup_tol must be at least 2**-46 ({MIN_DEDUP_TOL:.3e})")


class SpectrumSet:
    """Deduplicated complex eigenvalues with tolerance clustering and witnesses.

    ``values`` holds one representative per cluster, sorted by (real, imag);
    representatives are pairwise separated by more than ``dedup_tol`` times
    the scale max(1, largest modulus).  ``witnesses[i]`` is the witness of the
    earliest input contributing to ``values[i]`` (None when not supplied).
    ``dedup_tol`` must be at least ``MIN_DEDUP_TOL`` (2**-46), below which
    the grid cells of the clustering lose integer precision.

    Clustering is single linkage, repeated on the cluster means until no two
    means link.  Each round sorts by (real, imag), collapses equal values and
    buckets the rest into square cells of side 17/32 of the threshold: points
    of one cell always link, and a linked pair is at most two cells apart per
    axis.  Union-find over the cells joins neighbouring cells whose points
    link, testing candidate pairs at most 2**14 at a time and dropping a cell
    pair once it is joined, so scratch memory stays bounded however large a
    cluster is.  Each mean is the sequential sum of its members in (real,
    imag) order over their count, computed for all clusters at once.
    """

    def __init__(
        self,
        values: Iterable[complex],
        dedup_tol: float = DEFAULT_DEDUP_TOL,
        witnesses: Sequence[object] | None = None,
    ):
        if not isinstance(values, np.ndarray):
            values = [complex(v) for v in values]
        # points is only read, so a complex array is used without a copy
        points = np.asarray(values, dtype=complex)
        if points.ndim != 1:
            raise ValueError("spectrum values must form a one-dimensional sequence")
        if witnesses is not None and len(witnesses) != len(points):
            raise ValueError("witnesses must pair one to one with values")
        check_dedup_tol(dedup_tol)
        if not np.all(np.isfinite(points)):
            raise ValueError("spectrum values must be finite")
        self.dedup_tol = float(dedup_tol)
        scale = max(1.0, float(np.hypot(points.real, points.imag).max(initial=0.0)))
        threshold = self.dedup_tol * scale

        # earliest input index of each value; clusters keep their smallest
        earliest = np.arange(len(points))
        while True:
            members, starts = _clusters(points, threshold)
            if len(starts) == len(points):
                break
            points = _means(points[members], starts)
            earliest = earliest[np.minimum.reduceat(members, starts)]

        order = np.lexsort((points.imag, points.real))
        points = points[order]
        self.values: tuple[complex, ...] = tuple(points.tolist())
        self.witnesses: tuple[object, ...] = tuple(
            None if witnesses is None else witnesses[i] for i in earliest[order].tolist()
        )
        self._scale = max(1.0, float(np.hypot(points.real, points.imag).max(initial=0.0)))

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __repr__(self) -> str:
        return f"SpectrumSet({list(self.values)!r}, dedup_tol={self.dedup_tol!r})"

    def contains(self, z: complex, tol: float | None = None) -> bool:
        tol = self.dedup_tol if tol is None else tol
        threshold = tol * max(self._scale, abs(z), 1.0)
        return any(abs(v - z) <= threshold for v in self.values)

    def set_equal(self, other: "SpectrumSet", tol: float | None = None) -> bool:
        tol = max(self.dedup_tol, other.dedup_tol) if tol is None else tol
        scale = max(1.0, self._scale, other._scale)
        threshold = tol * scale
        return all(
            any(abs(v - w) <= threshold for w in other.values) for v in self.values
        ) and all(
            any(abs(v - w) <= threshold for v in self.values) for w in other.values
        )

    def max_modulus(self) -> float:
        return max((abs(v) for v in self.values), default=0.0)

    def real_values(self, tol: float | None = None) -> list[float]:
        tol = self.dedup_tol if tol is None else tol
        threshold = tol * self._scale
        return [v.real for v in self.values if abs(v.imag) <= threshold]
