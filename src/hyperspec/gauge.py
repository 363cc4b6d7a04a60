"""Exact diagonal-similarity certificates between the Laplacian tensors.

A diagonal of m-th roots of unity, phase theta_v out of m, conjugates the
Laplacian tensor into the signless one exactly when, for every edge e and
member i, sum_e theta - k theta_i = m/2 (mod m).  On a connected k-uniform
hypergraph with k and m even, these k rows per edge collapse to one.  Two
rows of an edge differ by k (theta_v - theta_f), so theta = c (mod m/g)
with g = gcd(k, m) on the whole hypergraph.  Writing theta = c + (m/g) y,
the terms k c cancel, k (m/g) y_f vanishes mod m, and each edge keeps the
single row

    sum_e y = g/2 (mod g).

So modulus m is solvable exactly when g is, and a solution y at g gives the
gauge (m/g) y at m.  Every system solved here has a modulus dividing k; at
g = 2 it is the odd-bipartiteness system that ``hypergraphs.odd_bipartition``
solves.  Solving is exact integer arithmetic: CRT split of the modulus into
prime powers by trial division, minimal-valuation elimination per component,
with saturation rows making back-substitution complete.

In a generalized power G^{k,s} the s members of a blown-up base vertex lie
in the same edges, as do the k - 2s private members of one edge, so their
columns in the system are equal: they are twins.  Row operations and
saturation rows combine rows, so equal columns stay equal, and once the
first twin of a class pivots the later ones are zero in every remaining
row.  They are free and set to 0, so elimination runs over one column per
twin class, with the same pivots and solution as over all columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from hyperspec.graphs import MAX_VERTEX_COUNT
from hyperspec.hypergraphs import Hypergraph
from hyperspec.tensors import Gauge, verify_diagonal_similarity

__all__ = [
    "ModularSystem",
    "build_similarity_system",
    "solve_mod_m",
    "certificate_report",
]

@dataclass(frozen=True)
class ModularSystem:
    """Linear congruences sum_j coeff_j * theta_j = rhs (mod modulus).

    Rows store (variable, coefficient) pairs with strictly increasing
    variables in [0, variable_count); coefficients and right-hand sides are
    reduced mod the modulus.  The solver rejects any other row with
    ValueError.
    """

    modulus: int
    variable_count: int
    rows: tuple[tuple[tuple[tuple[int, int], ...], int], ...]

    def __post_init__(self):
        if self.modulus < 2:
            raise ValueError("modulus must be at least 2")
        if self.variable_count < 0:
            raise ValueError("variable count must be nonnegative")

    def satisfied_by(self, assignment: Sequence[int]) -> bool:
        m = self.modulus
        for row, r in self.rows:
            total = sum(c * assignment[var] for var, c in row)
            if total % m != r % m:
                return False
        return True


def build_similarity_system(h: Hypergraph, m: int) -> ModularSystem:
    """The similarity system at an even modulus m dividing k: one row per edge.

    Row e reads sum_e theta = m/2 (mod m).  The module docstring shows why
    any other even modulus reduces to gcd(k, m), and ``certificate_report``
    does that reduction.  One system serves both similarities (Laplacian to
    signless, adjacency to its negation): each imposes the same edgewise sign
    flip.  At m = 2 this is the GF(2) odd-bipartiteness system.
    """
    if m < 2 or m % 2:
        raise ValueError("the similarity offset m/2 needs an even modulus")
    if h.k % 2:
        raise ValueError("similarity systems need an even edge rank")
    if not h.is_uniform:
        raise ValueError("similarity systems need a uniform hypergraph")
    if h.k % m:
        raise ValueError(f"modulus {m} does not divide the edge rank {h.k}")
    rows = tuple((tuple((v, 1) for v in e), m // 2) for e in h.full_edges)
    return ModularSystem(m, h.vertex_count, rows)


# -- solver -------------------------------------------------------------------


def _factorize(m: int) -> list[tuple[int, int]]:
    """Prime factorization of m >= 1 as ascending (prime, exponent) pairs.

    Trial division, which is enough below the modulus cap of ``solve_mod_m``.
    """
    counts: dict[int, int] = {}
    p = 2
    while p * p <= m:
        while m % p == 0:
            m //= p
            counts[p] = counts.get(p, 0) + 1
        p += 1
    if m > 1:
        counts[m] = counts.get(m, 0) + 1
    return sorted(counts.items())


def _valuation(a: int, p: int) -> int:
    v = 0
    while a % p == 0:
        a //= p
        v += 1
    return v


def _first_twins(
    rows: np.ndarray, var: np.ndarray, coeffs: np.ndarray, nvars: int, size: int
) -> list[int]:
    """The first variable of each twin class, in variable order.

    Entry i puts coefficient coeffs[i] of variable var[i] in row rows[i] of
    ``size`` rows.  Twins have equal columns, compared as bytes, one row of
    the transposed array at a time.
    """
    columns = np.zeros((nvars, size), dtype=coeffs.dtype)
    columns[var, rows] = coeffs
    classes: dict[bytes, int] = {}
    for v, column in enumerate(columns):
        classes.setdefault(column.tobytes(), v)
    return list(classes.values())


def _solve_prime_power(system: ModularSystem, p: int, e: int) -> list[int] | None:
    """One solution of the system mod p^e, or None.

    Minimal-valuation pivoting with unit normalization.  Each pivot of
    valuation v > 0 contributes a saturation row (the pivot row times
    p^(e-v)), which captures the divisibility constraints on later variables;
    with those rows present, zeroing free variables and taking minimal lifts
    during back-substitution can never miss a solvable system.

    Rows whose coefficients are all zero mod q never pivot and never change,
    so they are checked (a nonzero right-hand side makes the system
    unsolvable) and dropped before elimination.  Twin variables, whose
    coefficient columns agree mod q, share one array column: row operations
    and saturation rows are combinations of rows, so equal columns stay
    equal.  Once the first twin's column is eliminated (or found zero), every
    later twin's is zero in all remaining rows, so the later twins never
    pivot, are free, and are set to 0 as every free variable is; the pivots
    and the solution are those of the solve over all columns.  The other
    rows live in one integer array with one column per twin class,
    followed by a free slot for each saturation row a pivot can add, so
    array order is the order in which rows joined.  Column scans cover only
    the rows that have joined.  A pivot row leaves by being zeroed.  The
    pivot of a column is the first row of least p^v = gcd(a, q);
    gcd(0, q) = q marks rows without the column.  The dtype holds every
    intermediate exactly: int16 while q^2 < 2^15, int64 beyond, since q is at
    most the modulus cap 2^20.
    """
    q = p**e
    nvars = system.variable_count
    size = len(system.rows)
    dtype = np.int16 if q * q < 2**15 else np.int64
    # one pass over the rows; their (variable, coefficient) entries, flat
    terms, rhs = zip(*system.rows) if size else ((), ())
    counts = np.fromiter(map(len, terms), np.intp, size)
    entries = np.fromiter(chain.from_iterable(chain.from_iterable(terms)), np.int64)
    at = np.repeat(np.arange(size), counts)
    var = entries[0::2]
    repeated = (at[1:] == at[:-1]) & (var[1:] <= var[:-1])
    if var.size and (var.min() < 0 or var.max() >= nvars or repeated.any()):
        raise ValueError(
            "each row must name its variables in increasing order, "
            f"without repeats, within [0, {nvars})"
        )
    coeffs = (entries[1::2] % q).astype(dtype)
    rhs = (np.array(rhs, np.int64) % q).astype(dtype)
    nonzero = coeffs != 0
    at, var, coeffs = at[nonzero], var[nonzero], coeffs[nonzero]
    live = np.zeros(size, dtype=bool)
    live[at] = True
    if (rhs[~live] != 0).any():
        return None
    free = int(live.sum())
    if not free:
        return [0] * nvars
    rows = (np.cumsum(live) - 1)[at]
    firsts = _first_twins(rows, var, coeffs, nvars, free)
    width = len(firsts)
    column = np.full(nvars, -1, np.intp)
    column[firsts] = np.arange(width)
    keep = column[var] >= 0
    active = np.zeros((free + width, width + 1), dtype=dtype)
    active[rows[keep], column[var[keep]]] = coeffs[keep]
    active[:free, width] = rhs[live]
    pivots: list[tuple[list[int], int, int]] = []
    for col in range(width):
        gcds = np.gcd(active[:free, col], q)
        idx = int(np.argmin(gcds))
        pivot = int(gcds[idx])
        if pivot == q:
            continue
        v = _valuation(pivot, p)
        inverse = pow(int(active[idx, col]) // pivot, -1, q)
        row = (active[idx] * inverse) % q
        active[idx] = 0
        if v > 0:
            saturation = (row * p ** (e - v)) % q
            if (saturation[:width] != 0).any():
                active[free] = saturation
                free += 1
            elif saturation[width] != 0:
                return None
        # every remaining entry in this column has valuation >= v
        hit = np.flatnonzero(active[:free, col] != 0)
        t = active[hit, col] // pivot
        active[hit, col:] = (active[hit, col:] - t[:, None] * row[col:]) % q
        pivots.append((row.tolist(), col, v))
    left = np.flatnonzero((active[:free] != 0).any(axis=1))
    if left.size:
        if (active[left[0], :width] != 0).any():
            raise AssertionError("elimination left a coefficient unprocessed")
        return None
    values = [0] * width
    for row, col, v in reversed(pivots):
        s = row[width]
        for j in range(col + 1, width):
            if row[j]:
                s -= row[j] * values[j]
        s %= q
        pivot = p**v
        if s % pivot:
            return None
        values[col] = s // pivot
    solution = [0] * nvars
    for v, value in zip(firsts, values):
        solution[v] = value
    return solution


def _crt_pair(r1: int, q1: int, r2: int, q2: int) -> tuple[int, int]:
    t = ((r2 - r1) * pow(q1, -1, q2)) % q2
    return (r1 + q1 * t) % (q1 * q2), q1 * q2


def solve_mod_m(system: ModularSystem) -> Gauge | None:
    """A deterministic solution of the system as a Gauge, or None.

    Splits the modulus into prime powers, solves each component exactly and
    recombines by CRT.  Free variables are zero, so reruns agree bit for bit.
    Absence of a solution is a definitive answer for this modulus.  A row
    whose variables do not strictly increase within [0, variable_count)
    raises ValueError.  So does a modulus above ``MAX_VERTEX_COUNT`` (2^20):
    similarity systems are solved at divisors of k, which the hypergraph
    reader caps there, and below the cap trial division factors the modulus
    at once and int64 holds every product of two residues.
    """
    if system.modulus > MAX_VERTEX_COUNT:
        raise ValueError(
            f"modulus {system.modulus} exceeds the solver cap {MAX_VERTEX_COUNT}"
        )
    nvars = system.variable_count
    parts: list[tuple[list[int], int]] = []
    for p, e in _factorize(system.modulus):
        component = _solve_prime_power(system, p, e)
        if component is None:
            return None
        parts.append((component, p**e))
    phases = []
    for i in range(nvars):
        r, q = parts[0][0][i], parts[0][1]
        for component, qq in parts[1:]:
            r, q = _crt_pair(r, q, component[i], qq)
        phases.append(r)
    gauge = Gauge(system.modulus, tuple(phases))
    if not system.satisfied_by(gauge.phases):
        raise AssertionError("modular solver produced a non-solution")
    return gauge


def certificate_report(h: Hypergraph, moduli: Sequence[int] | None = None) -> dict:
    """Decide diagonal similarity of L and Q exactly; report gauges at moduli.

    Any invertible diagonal D = diag(d) with D^-(k-1) Q D = L gives, after
    scaling, a gauge at modulus k.  The diagonal entries agree for every D;
    at the entries of edge e led by member i the identity reads
    prod_e d = -d_i^k.  So d_i^k, and with it |d_i|, is constant on each
    edge, hence on the connected hypergraph.  Both sides are unchanged when
    D is scaled, so |d| = 1 and d_v = exp(i theta_v), with
    k (theta_i - theta_j) in 2 pi Z along every edge.  Then theta = theta_0 + 2 pi y / k for integers y, theta_0
    cancels, and what is left is sum_e y = k/2 (mod k): the system at
    modulus k.  Its solvability therefore decides, for every invertible
    diagonal, whether one makes L and Q similar; the first summary line
    says which.  The adjacency tensor and its negation obey the same edge
    condition.

    Defaults to moduli {2, k, 2k}; each must be even and at least 2.  One
    system is solved per distinct g in {2, k} and gcd(k, m) over the moduli,
    and modulus m reports the gauge (m/g) y of the solution y at g (see the
    module docstring).  Every reported gauge is verified exactly against
    both entrywise tensor identities.  ``odd_bipartite`` is the solvability
    at g = 2.
    """
    if not h.is_connected():
        raise ValueError("certificate reports need a connected hypergraph")
    k = h.k
    if moduli is None:
        moduli = (2, k, 2 * k)
    moduli = sorted(set(int(m) for m in moduli))
    if any(m < 2 or m % 2 for m in moduli):
        raise ValueError("the similarity offset m/2 needs an even modulus")
    # g = 2 first: its build rejects an odd rank or loop edges
    orders = [2] + sorted({k} | {math.gcd(k, m) for m in moduli} - {2})
    solutions = {g: solve_mod_m(build_similarity_system(h, g)) for g in orders}
    results: dict[str, dict] = {}
    for m in moduli:
        g = math.gcd(k, m)
        y = solutions[g]
        gauge = None if y is None else Gauge(m, tuple(m // g * p for p in y.phases))
        if gauge is not None:
            if not verify_diagonal_similarity(h, "laplacian", "signless", 1, gauge):
                raise AssertionError("found gauge failed exact verification")
            if not verify_diagonal_similarity(h, "adjacency", "adjacency", -1, gauge):
                raise AssertionError("found gauge failed exact verification")
        results[str(m)] = {
            "solvable": gauge is not None,
            "gauge": gauge.to_json_dict() if gauge is not None else None,
        }
    odd_bip = solutions[2] is not None
    if solutions[k] is not None:
        summary = [
            "exact certificate found: the Laplacian and signless Laplacian "
            "tensors are diagonally similar, so their spectra coincide, the "
            "spectral radii agree, and the adjacency spectrum is symmetric "
            "about the origin"
        ]
    else:
        summary = [
            "no invertible diagonal matrix makes L and Q similar: the "
            "similarity system at modulus k has no solution"
        ]
    if odd_bip:
        summary.append("odd-bipartite: the certificate can be taken real (signs)")
    else:
        summary.append(
            "not odd-bipartite: any similarity certificate is necessarily non-real "
            "and the Laplacian H-spectrum differs from the signless one"
        )
    return {"moduli": results, "odd_bipartite": odd_bip, "summary": summary}
