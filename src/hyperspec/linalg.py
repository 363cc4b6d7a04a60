"""Dense eigensolvers with residual certificates, Perron iteration, spectrum sets.

Eigenvalues come from LAPACK through numpy (Hessenberg reduction plus shifted
QR underneath); every returned pair is certified a posteriori by its residual,
and a pair that misses its certificate raises ConvergenceError.  Every solve
returns its eigenvectors, so every value it gives is certified, and each
stack is one numpy call on the calling thread.  The nonnegative power
iteration is written out longhand so it stays an independent cross-check of
the dense solvers.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from hyperspec import _dedup
from hyperspec._dedup import MIN_DEDUP_TOL

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
    ms: np.ndarray, cap: int | None = SYMMETRIC_CAP
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Certified eigenpairs of a stack of real symmetric matrices.

    Returns ``(values, vectors, residuals)`` of shapes (N, n), (N, n, n) and
    (N, n): each row of values ascending, column j of ``vectors[i]`` the
    max-norm-1 eigenvector of ``values[i, j]``, and its residual relative to
    the matrix norm.  Raises ValueError for a matrix that is not symmetric
    within 1e-12 or a dimension above ``cap`` (``SYMMETRIC_CAP`` = 256, sized
    for stacks of reduced matrices; None for no cap), and
    ConvergenceError if a residual misses the 1e-10 certificate; its
    ``index`` is the position of the matrix in the stack.
    """
    ms = np.asarray(ms, dtype=float)
    if ms.ndim != 3 or ms.shape[1] != ms.shape[2]:
        raise ValueError("expected square matrices")
    n = ms.shape[1]
    if cap is not None and n > cap:
        raise ValueError(f"matrix dimension {n} exceeds cap {cap}")
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

    The one-matrix case of :func:`eig_real_symmetric_stack`, with no
    dimension cap, for base-graph matrices of any size: ValueError for
    non-symmetric input, ConvergenceError if any residual misses the 1e-10
    certificate.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("expected a square matrix")
    return _pairs(eig_real_symmetric_stack(m[None], cap=None), float)


def eig_complex_stack(ms: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Certified eigenpairs of a stack of general complex matrices of dimension
    at most ``COMPLEX_CAP`` (64).

    Returns ``(values, vectors, residuals)`` of shapes (N, n), (N, n, n) and
    (N, n): each row of values sorted by (real, imag), column j of
    ``vectors[i]`` the max-norm-1 eigenvector of ``values[i, j]``, and its
    residual relative to the matrix norm.  Raises ValueError for a stack that
    is not square, a dimension above the cap or a non-finite entry, and
    ConvergenceError if a residual misses the 1e-9 certificate; its
    ``index`` is the position of the matrix in the stack.
    """
    ms = np.asarray(ms, dtype=complex)
    if ms.ndim != 3 or ms.shape[1] != ms.shape[2]:
        raise ValueError("expected square matrices")
    n = ms.shape[1]
    if n > COMPLEX_CAP:
        raise ValueError(f"matrix dimension {n} exceeds cap {COMPLEX_CAP}")
    if not np.all(np.isfinite(ms)):
        raise ValueError("matrix entries must be finite")
    values, vectors = np.linalg.eig(ms)
    if n == 0:
        return values, vectors, np.zeros(values.shape)
    # lexsort is stable, so equal keys keep LAPACK's order as sorted() would
    order = np.lexsort((values.imag, values.real), axis=-1)
    values = np.take_along_axis(values, order, axis=-1)
    vectors = np.take_along_axis(vectors, order[:, None, :], axis=-1)
    # divide each column by its largest-modulus entry, which becomes 1 to
    # within an ulp: a complex quotient x / x can round to 1 - 2^-53
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


def check_dedup_tol(dedup_tol: float) -> None:
    """Raise ValueError unless ``dedup_tol`` is at least ``MIN_DEDUP_TOL`` (NaN is not)."""
    if not dedup_tol >= MIN_DEDUP_TOL:
        raise ValueError(f"dedup_tol must be at least 2**-46 ({MIN_DEDUP_TOL:.3e})")


class SpectrumSet:
    """Deduplicated complex eigenvalues with tolerance clustering.

    ``values`` holds one representative per cluster, sorted by (real, imag);
    representatives are pairwise separated by more than ``dedup_tol`` times
    the scale max(1, largest modulus).  ``sources[i]`` is the smallest input
    index contributing to ``values[i]``, an int array in value order.
    ``dedup_tol`` must be at least ``MIN_DEDUP_TOL`` (2**-46), below which
    the grid cells of the clustering lose integer precision.

    Clustering is single linkage, repeated on the cluster means until no two
    means link.  Each round sorts by (real, imag), collapses equal values and
    buckets the rest into square cells of side 17/32 of the threshold: points
    of one cell always link, and a linked pair is at most two cells apart per
    axis.  Union-find over the cells joins neighbouring cells whose points
    link, testing candidate pairs at most 2**12 at a time and dropping a cell
    pair once it is joined, so scratch memory stays bounded however large a
    cluster is: beside its input, which it reads without a copy, a round
    holds at most 33 bytes per point and about 160 per occupied cell
    (``hyperspec._dedup`` itemizes them).  Each mean is the sequential sum
    of its members in (real, imag) order over their count, computed for all
    clusters at once.
    """

    def __init__(self, values: Iterable[complex], dedup_tol: float = DEFAULT_DEDUP_TOL):
        if not isinstance(values, np.ndarray):
            values = [complex(v) for v in values]
        # points is only read, so a complex array is used without a copy
        points = np.asarray(values, dtype=complex)
        if points.ndim != 1:
            raise ValueError("spectrum values must form a one-dimensional sequence")
        check_dedup_tol(dedup_tol)
        if not np.all(np.isfinite(points)):
            raise ValueError("spectrum values must be finite")
        self.dedup_tol = float(dedup_tol)
        scale = max(1.0, float(np.hypot(points.real, points.imag).max(initial=0.0)))
        threshold = self.dedup_tol * scale

        # earliest input index of each value, once clusters have merged; a
        # cluster keeps its smallest
        earliest = None
        while True:
            members, starts = _dedup.clusters(points, threshold)
            if len(starts) == len(points):
                break
            smallest = np.minimum.reduceat(members, starts)
            earliest = smallest if earliest is None else earliest[smallest]
            points = _dedup.means(points, members, starts)

        order = np.argsort(points, kind="stable")
        points = points[order]
        self.values: tuple[complex, ...] = tuple(points.tolist())
        self.sources = order if earliest is None else earliest[order]
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
