"""Constructive search for exact diagonal-similarity certificates.

A unit-modulus diagonal with phases that are m-th roots of unity conjugates
the Laplacian tensor into the signless one exactly when the phases solve, for
every edge e and member i, sum of phases over e minus k times the phase of i
equals half the modulus, mod m.  At m = 2 this is the odd-bipartiteness
system, which ``hypergraphs.odd_bipartition`` solves here.  Solving is exact
integer arithmetic: CRT split of the modulus into prime powers,
minimal-valuation elimination per component, with saturation rows making
back-substitution complete.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from hyperspec.hypergraphs import Hypergraph, odd_bipartition
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
    """Congruence system whose solutions are exact similarity certificates.

    One system serves both similarities (Laplacian to signless, adjacency to
    its negation): each imposes the same edgewise sign flip.  The offset is
    m/2, so the modulus must be even.

    The k congruences of an edge, sum over e minus k times member i, differ
    only by k times a difference of two members.  So each edge e with first
    member f gets one row sum_e theta - k theta_f = m/2 and, unless m divides
    k, the rows k (theta_v - theta_f) = 0 for v in e[1:]: a unimodular change
    of rows with the same solutions.  At m = 2 this is the GF(2)
    odd-bipartiteness system, one row per edge.
    """
    if m < 2 or m % 2:
        raise ValueError("the similarity offset m/2 needs an even modulus")
    if h.k % 2:
        raise ValueError("similarity systems need an even edge rank")
    if not h.is_uniform:
        raise ValueError("similarity systems need a uniform hypergraph")
    k = h.k
    rows = []
    for f, *rest in h.full_edges:
        rows.append((((f, (1 - k) % m),) + tuple((v, 1) for v in rest), m // 2))
        if k % m:
            rows.extend((((f, -k % m), (v, k % m)), 0) for v in rest)
    return ModularSystem(m, h.vertex_count, tuple(rows))


# -- solver -------------------------------------------------------------------


# the first twelve primes: trial divisors, and Miller-Rabin bases that
# decide primality exactly below 3.3e24
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Miller-Rabin on the first twelve prime bases, for odd n > 37.

    Exact below 3.3e24; beyond that, a composite passing all twelve bases
    would be taken for a prime.
    """
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_brent(n: int) -> int:
    """A nontrivial factor of an odd composite n with no factor up to 37.

    Brent's cycle search on x -> x^2 + c, batching gcds over 128 steps and
    retrying with the next c when a batch overshoots to n; deterministic.
    The expected work grows like the square root of the smallest prime
    factor.
    """
    c = 0
    while True:
        c += 1
        y, m, g, r, q = 2, 128, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def _factorize(m: int) -> list[tuple[int, int]]:
    """Prime factorization of m >= 1 as ascending (prime, exponent) pairs.

    Trial division by the first twelve primes, then Miller-Rabin and
    Pollard-Brent on what is left.
    """
    counts: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        while m % p == 0:
            m //= p
            counts[p] = counts.get(p, 0) + 1
    pending = [m] if m > 1 else []
    while pending:
        n = pending.pop()
        if n < _SMALL_PRIMES[-1] ** 2 or _is_prime(n):
            counts[n] = counts.get(n, 0) + 1
        else:
            d = _pollard_brent(n)
            pending += [d, n // d]
    return sorted(counts.items())


def _valuation(a: int, p: int) -> int:
    v = 0
    while a % p == 0:
        a //= p
        v += 1
    return v


def _solve_prime_power(system: ModularSystem, p: int, e: int) -> list[int] | None:
    """One solution of the system mod p^e, or None.

    Minimal-valuation pivoting with unit normalization.  Each pivot of
    valuation v > 0 contributes a saturation row (the pivot row times
    p^(e-v)), which captures the divisibility constraints on later variables;
    with those rows present, zeroing free variables and taking minimal lifts
    during back-substitution can never miss a solvable system.

    Rows whose coefficients are all zero mod q never pivot and never change,
    so they are checked (a nonzero right-hand side makes the system
    unsolvable) and dropped before elimination.  The other rows live in one
    integer array, followed by a free slot for each saturation row a pivot
    can add, so array order is the order in which rows joined.  Column scans
    cover only the rows that have joined.  A pivot row leaves by being
    zeroed.  The pivot of a column is the first row of least p^v = gcd(a, q);
    gcd(0, q) = q marks rows without the column.  The dtype holds every
    intermediate exactly: int16 while q^2 < 2^15, int64 while q < 2^31,
    Python integers beyond.
    """
    q = p**e
    nvars = system.variable_count
    size = len(system.rows)
    dtype = np.int16 if q * q < 2**15 else np.int64 if q < 2**31 else object
    at = np.array([i for i, (row, _) in enumerate(system.rows) for _ in row], np.intp)
    var = np.array([v for row, _ in system.rows for v, _ in row], np.intp)
    repeated = (at[1:] == at[:-1]) & (var[1:] <= var[:-1])
    if var.size and (var.min() < 0 or var.max() >= nvars or repeated.any()):
        raise ValueError(
            "each row must name its variables in increasing order, "
            f"without repeats, within [0, {nvars})"
        )
    coeffs = np.array([c % q for row, _ in system.rows for _, c in row], dtype=dtype)
    rhs = np.array([r % q for _, r in system.rows], dtype=dtype)
    live = np.zeros(size, dtype=bool)
    live[at[coeffs != 0]] = True
    if (rhs[~live] != 0).any():
        return None
    free = int(live.sum())
    if not free:
        return [0] * nvars
    active = np.zeros((free + nvars, nvars + 1), dtype=dtype)
    keep = live[at]
    active[(np.cumsum(live) - 1)[at[keep]], var[keep]] = coeffs[keep]
    active[:free, nvars] = rhs[live]
    pivots: list[tuple[list[int], int, int]] = []
    for col in range(nvars):
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
            if (saturation[:nvars] != 0).any():
                active[free] = saturation
                free += 1
            elif saturation[nvars] != 0:
                return None
        # every remaining entry in this column has valuation >= v
        hit = np.flatnonzero(active[:free, col] != 0)
        t = active[hit, col] // pivot
        active[hit, col:] = (active[hit, col:] - t[:, None] * row[col:]) % q
        pivots.append((row.tolist(), col, v))
    left = np.flatnonzero((active[:free] != 0).any(axis=1))
    if left.size:
        if (active[left[0], :nvars] != 0).any():
            raise AssertionError("elimination left a coefficient unprocessed")
        return None
    solution = [0] * nvars
    for row, col, v in reversed(pivots):
        s = row[nvars]
        for j in range(col + 1, nvars):
            if row[j]:
                s -= row[j] * solution[j]
        s %= q
        pivot = p**v
        if s % pivot:
            return None
        solution[col] = s // pivot
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
    raises ValueError.
    """
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
    """Probe root-of-unity similarity certificates at several moduli.

    Defaults to moduli {2, k, 2k}.  Every found gauge is verified exactly
    against the entrywise tensor identity before being reported.  Absence at
    the probed moduli is reported as inconclusive, never as a proof that no
    certificate exists.
    """
    if not h.is_connected():
        raise ValueError("certificate reports need a connected hypergraph")
    if moduli is None:
        moduli = (2, h.k, 2 * h.k)
    moduli = sorted(set(int(m) for m in moduli))
    results: dict[int, dict] = {}
    any_found = False
    for m in moduli:
        system = build_similarity_system(h, m)
        gauge = solve_mod_m(system)
        if gauge is not None:
            if not verify_diagonal_similarity(h, "laplacian", "signless", 1, gauge):
                raise AssertionError("found gauge failed exact verification")
            if not verify_diagonal_similarity(h, "adjacency", "adjacency", -1, gauge):
                raise AssertionError("found gauge failed exact verification")
            any_found = True
        results[m] = {
            "solvable": gauge is not None,
            "gauge": gauge.to_json_dict() if gauge is not None else None,
        }
    odd_bip = odd_bipartition(h) is not None
    summary = []
    if any_found:
        summary.append(
            "exact certificate found: the Laplacian and signless Laplacian "
            "tensors are diagonally similar, so their spectra coincide, the "
            "spectral radii agree, and the adjacency spectrum is symmetric "
            "about the origin"
        )
    else:
        summary.append(
            "no root-of-unity certificate of order dividing the probed moduli; "
            "inconclusive for arbitrary unit-modulus diagonals"
        )
    if odd_bip:
        summary.append("odd-bipartite: the certificate can be taken real (signs)")
    else:
        summary.append(
            "not odd-bipartite: any similarity certificate is necessarily non-real "
            "and the Laplacian H-spectrum differs from the signless one"
        )
    return {
        "moduli": {str(m): results[m] for m in moduli},
        "odd_bipartite": odd_bip,
        "summary": summary,
    }
