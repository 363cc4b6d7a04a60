"""Single-linkage clustering and cluster means for ``linalg.SpectrumSet``.

Points fall into square cells of a grid whose side is 17/32 of the linkage
threshold: points of one cell always link, and a linked pair is at most two
cells apart per axis, so union-find over the cells only has to test the
point pairs of neighbouring cells.  Arrays that grow with the input hold
int32 indices where those fit, are filled a slice at a time where they are
gathered from the points, and are dropped after their last use.  Beside its
input, a clustering round holds at most 12 bytes per point while it sorts
the points, 5 per point and 28 per distinct point while it sorts the cells,
and 9 per point and 20 per distinct point while it groups the clusters,
plus buffers of ``_CHUNK`` entries and up to about 160 bytes per occupied
cell, which count only where most points sit apart.  int16 and int8
indices would save little more, but run numpy loops that nothing else in
the package runs: mapping their code in added 0.3 to 0.45 MiB to the
resident peak of a run of H-spectra and spectral radii.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

__all__ = ["MIN_DEDUP_TOL", "clusters", "means"]

# smallest accepted dedup_tol; at or above it the grid of clusters is exact
MIN_DEDUP_TOL = 2.0**-46

# points gathered, candidate pairs tested and entries summed per step;
# bounds the scratch arrays of a step
_CHUNK = 1 << 12

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


def _index_type(count: int) -> type:
    """int32 where it holds every index below ``count``, else intp."""
    return np.int32 if count <= 2**31 else np.intp


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


def _ranks(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ascending distinct ``values``, and the rank of each value among them."""
    order = np.argsort(values, kind="stable")
    fresh = np.diff(values[order], prepend=-np.inf) != 0
    ranks = np.empty_like(order)
    ranks[order] = np.cumsum(fresh) - 1
    return values[order[fresh]], ranks


def _shifted(values: np.ndarray, step: int, absent: int) -> np.ndarray:
    """Position of each value plus ``step`` in the ascending distinct integer
    ``values``, or ``absent`` where there is none.  A value ``step`` away
    lies at most |step| positions away, so only those are compared."""
    positions = np.full(len(values), absent) if step else np.arange(len(values))
    for gap in range(1, abs(step) + 1):
        if step > 0:
            hit = np.flatnonzero(values[gap:] == values[:-gap] + step)
            positions[hit] = hit + gap
        else:
            hit = np.flatnonzero(values[:-gap] == values[gap:] + step)
            positions[hit + gap] = hit
    return positions


def _neighbours(
    xs: np.ndarray, ys: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """For each offset (dx, dy) of ``_OFFSETS`` in turn, the pairs of cells
    (a, b) with b at (xs[a] + dx, ys[a] + dy), for cells in (x, y) order.

    The cells are keyed by integers, rank(x) * width + rank(y) for the ranks
    of their coordinates among the cells', and b is found by its key.
    """
    column_x, x_rank = _ranks(xs)
    column_y, y_rank = _ranks(ys)
    width = len(column_y)
    keys = x_rank * width + y_rank
    # the key parts of each coordinate moved by a step: a missing one makes
    # the key negative, which matches no cell
    part_x = [_shifted(column_x, dx, -1) * width for dx in range(3)]
    part_y = {dy: _shifted(column_y, dy, -len(keys) * width) for dy in range(-2, 3)}
    for dx, dy in _OFFSETS:
        targets = part_x[dx][x_rank] + part_y[dy][y_rank]
        found = np.minimum(np.searchsorted(keys, targets), len(keys) - 1)
        a = np.flatnonzero(keys[found] == targets)
        yield a, found[a]


def _cells(
    points: np.ndarray, first: np.ndarray, side: float
) -> tuple[np.ndarray, np.ndarray, Iterator[tuple[np.ndarray, np.ndarray]]]:
    """The grid cells of side ``side`` of the distinct points ``points[first]``.

    Returns ``(by_cell, starts, neighbours)``: the distinct points (positions
    in ``first``) grouped by cell, cells in (x, y) order and each cell's
    points in (real, imag) order; the offset of each cell in ``by_cell``; and
    the neighbouring cell pairs of ``_neighbours``.  The cell coordinates are
    integers held exactly in float64.
    """
    count = len(first)
    x, y = np.empty(count), np.empty(count)
    for lo in range(0, count, _CHUNK):
        run = points[first[lo : lo + _CHUNK]]
        x[lo : lo + len(run)] = np.floor(run.real / side + _SHIFT[0])
        y[lo : lo + len(run)] = np.floor(run.imag / side + _SHIFT[1])
    # stable, so each cell keeps its points in (real, imag) order
    by_cell = np.lexsort((y, x))
    starts = [np.zeros(1, np.intp)]
    for lo in range(0, count - 1, _CHUNK):
        ids = by_cell[lo : lo + _CHUNK + 1]
        gx, gy = x[ids], y[ids]
        starts.append(np.flatnonzero((gx[1:] != gx[:-1]) | (gy[1:] != gy[:-1])) + lo + 1)
    starts = np.concatenate(starts)
    heads = by_cell[starts]
    neighbours = _neighbours(x[heads], y[heads])
    del x, y
    return by_cell.astype(_index_type(count)), starts, neighbours


def clusters(points: np.ndarray, threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """Single-linkage clusters of complex points at ``threshold``.

    Two points link when, in (real, imag) order, the later real part minus the
    earlier is at most ``threshold`` and so is their distance.  Returns
    ``(members, starts)``: the point indices grouped by cluster, clusters in
    the order of their smallest index and members in (real, imag) order, and
    the offset of each cluster in ``members``.

    Equal points always link, so the cells hold the distinct values.  A value
    falls in cell (floor(re/s + a), floor(im/s + b)) of side s = 17/32 of the
    threshold t, for the shift (a, b).  Where every |re|, |im| is at most
    t / MIN_DEDUP_TOL, as SpectrumSet ensures, the two roundings of a cell
    coordinate move it by at most 3u(2**46 / (17/32) + 1) < 0.045 cell
    (u = 2**-53).  So two points of one cell differ by less than
    1.09 s < 0.58 t per axis and lie closer than 0.82 t: they pass the exact
    test and join without one.  Points whose cells are 3 or more apart on an
    axis differ there by more than 1.91 s > 1.01 t, and fail it.  Union-find
    runs over cells, keyed by the integer ranks of their coordinates: for
    each offset of up to 2 cells per axis, the cell pairs not yet joined have
    their point pairs tested, at most ``_CHUNK`` at a time, and a cell pair
    leaves the queue as soon as it joins.
    """
    count = len(points)
    if not count:
        return np.zeros(0, _index_type(0)), np.zeros(0, np.intp)
    # numpy orders complex values by (real, imag); stable keeps equal points
    # in input order
    order = np.argsort(points, kind="stable").astype(_index_type(count))
    # fresh[i]: sorted position i starts a new distinct value
    fresh = np.ones(count, dtype=bool)
    for lo in range(0, count - 1, _CHUNK):
        run = points[order[lo : lo + _CHUNK + 1]]
        fresh[lo + 1 : lo + len(run)] = run[1:] != run[:-1]
    # the smallest input index of each distinct value, in (real, imag) order
    first = order[fresh]
    by_cell, starts, neighbours = _cells(points, first, threshold * _SIDE)
    sizes = np.diff(starts, append=len(first))
    parents = np.arange(len(starts))
    for a, b in neighbours:
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
            p = by_cell[starts[a[rows]] + j // across]
            q = by_cell[starts[b[rows]] + j % across]
            low = points[first[np.minimum(p, q)]]
            high = points[first[np.maximum(p, q)]]
            dre = high.real - low.real
            # np.hypot rounds exactly like abs() on a Python complex
            near = (dre <= threshold) & (np.hypot(dre, high.imag - low.imag) <= threshold)
            _union(parents, a[rows[near]], b[rows[near]])
            done += take
    # number the clusters in the order of their smallest point index
    roots = _roots(parents, parents)
    smallest = np.full(len(roots), count)
    np.minimum.at(smallest, roots, np.minimum.reduceat(first[by_cell], starts))
    heads = np.flatnonzero(roots == np.arange(len(roots)))
    labels = np.empty(len(roots), order.dtype)
    labels[heads[np.argsort(smallest[heads], kind="stable")]] = np.arange(len(heads))
    del first, smallest
    distinct = np.empty(len(by_cell), order.dtype)
    distinct[by_cell] = np.repeat(labels[roots], sizes)
    del by_cell
    # the cluster of each sorted position, that of its distinct value; a
    # stable sort of the positions by cluster keeps (real, imag) order within
    # each cluster
    cluster = np.repeat(distinct, np.diff(np.flatnonzero(fresh), append=count))
    del fresh, distinct
    sizes = np.bincount(cluster, minlength=len(heads))
    grouped = np.argsort(cluster, kind="stable")
    del cluster
    return order[grouped], np.cumsum(sizes) - sizes


def means(points: np.ndarray, members: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """The mean of each cluster ``points[members[starts[i]:starts[i + 1]]]``.

    Bit for bit ``sum(run) / len(run)`` on Python complex numbers: the sum
    is sequential, 0.0 + v1 + v2 + ..., and the quotient by the integer n
    is CPython's complex one, ((re + im * 0.0) / n, (im - re * 0.0) / n).
    Runs are padded with zeros to the power of two at or above their length
    and summed ``_CHUNK`` entries at a time by a cumulative sum along rows.
    Every partial sum after 0.0 + v1 differs from -0.0, so the padding
    leaves the sums unchanged.
    """
    sizes = np.diff(starts, append=len(members))
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
            padded[inside] = points[members[(starts[runs, None] + cols)[inside]]]
            padded[:, 0] += 0.0  # each sum starts 0.0 + v1
            np.cumsum(padded, axis=1, out=padded)
            sums[runs] = padded[:, -1]
    means = np.empty_like(sums)
    means.real = (sums.real + sums.imag * 0.0) / sizes
    means.imag = (sums.imag - sums.real * 0.0) / sizes
    return means
