"""Characteristic polynomials of reduced matrices modulo primes.

The entries of a reduced matrix D[U] -+ E A[U] E lie in Z[w], w = exp(2 pi i
/ k): D[U] is an integer diagonal and the off-diagonal entries are -+w^(l_u +
l_v).  For a prime p = 1 (mod k), sending w to an element r of order k mod p
is a ring map Z[w] -> Z/p, so each matrix has an integer image mod p, and the
image of its characteristic polynomial chi is the characteristic polynomial
of that image.  Matrices with equal chi have equal images at every prime.

``residues`` builds the images at two fixed primes of each k and size s, and
``power_sums`` their power sums tr(M^j), j = 1..s, which determine chi mod p
by Newton's identities since p > s.  They key the chi classes of a spectrum:
``Firsts`` marks the first matrix of each class.

Only the orbit minima of a bipartite subset need keys (``keyed_rows``).  Let
G[U] be bipartite, sigma_u = +1 on the side of u0 = min U and -1 on the
other.  For a phase row l and any c, let l' be l + c sigma re-reduced into
[0, k/2): l'_u = l_u + c sigma_u - t_u k/2 for integers t_u.  On every edge
uv of G[U], sigma_u + sigma_v = 0, so w^(l'_u + l'_v) = (-1)^(t_u + t_v)
w^(l_u + l_v): the matrix of l' is S M S with S = diag((-1)^(t_u)).  Since
r^(k/2) = -1 mod p, its images are S M S mod p too, with the same power
sums, so l and l' have one key exactly.  The k/2 shifts c move l_u0
through every residue, so each orbit holds exactly one row with l_u0 = 0,
its lexicographic minimum.  u0 is the most significant digit of
``reduction._class_phases``, so those minima are the first (k/2)^(s-1) rows
of a block, and each later row shares the key of an earlier one.  A block
cut by the budget is a prefix of q rows, whose first min(q, (k/2)^(s-1))
rows hold the minimum of every orbit it meets.  Keying those rows alone,
``Firsts`` marks the same rows in the same order.  For a class
representative, d = s - deg gcd(chi, chi') is its number of distinct
eigenvalues, and the degrees of the repeated gcds with the derivative give
their multiplicities, those of Yun's square-free factorisation.  A bad
prime (one at which distinct roots meet) can only merge roots, so it can
only lower d; each matrix takes the prime with the larger d.
``group_rows`` merges the computed eigenvalues of a matrix, closest pair
first, into groups of those multiplicities and reports each group's mean:
a defective eigenvalue comes back from LAPACK scattered by up to about
eps^(1/m), and no floating-point threshold alone can tell that scatter
from distinct close eigenvalues.

The arithmetic is exact in float64.  Entries and lazily reduced residues lie
in (-p, p), so every sum of s products of two of them stays below
s (p - 1)^2 < 2^53 for the primes of size s: the entries of matrix products,
the row sums of tr(XY) = sum X o Y (the powers are symmetric) and the sums
of s residues.  A residue x is reduced as x - p floor(x / p): x and
p floor(x / p) are integers below 2^53, so the difference is exact, and it
lies in (-p, p) whichever way x / p rounds.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from hyperspec.graphs import LoopedGraph, induces_bipartite
from hyperspec.linalg import ConvergenceError

__all__ = [
    "SPREAD",
    "Firsts",
    "group",
    "group_rows",
    "keyed_rows",
    "multiplicities",
    "power_sums",
    "primes",
    "representatives",
    "residues",
    "value_rows",
]

# a group's members lie within SPREAD max(1, ||M||) of its mean
SPREAD = 1e-3


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the bases 2, 3, 5 and 7, exact below 3.2e9."""
    if n < 2 or n % 2 == 0:
        return n == 2
    d, twos = n - 1, 0
    while d % 2 == 0:
        d, twos = d // 2, twos + 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if a % n and x not in (1, n - 1):
            for _ in range(twos - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
    return True


@functools.cache
def primes(k: int, size: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """The two largest primes p = 1 (mod k) with size (p - 1)^2 < 2^53, each
    with its smallest element r of order k mod p.  ValueError if there are
    fewer than two; every even k up to 100 000 has two at every size up to
    ``COMPLEX_CAP`` = 64."""
    factors, rest = [], k
    for q in range(2, k + 1):
        if q * q > rest:
            factors += [rest] if rest > 1 else []
            break
        if rest % q == 0:
            factors.append(q)
            while rest % q == 0:
                rest //= q
    found = []
    p = math.isqrt((2**53 - 1) // size) // k * k + 1
    while p > max(k, size) and len(found) < 2:
        if _is_prime(p):
            for x in range(2, p):
                r = pow(x, (p - 1) // k, p)
                if all(pow(r, k // q, p) != 1 for q in factors):
                    found.append((p, r))
                    break
        p -= k
    if len(found) < 2:
        raise ValueError(
            f"k = {k} has fewer than two primes p = 1 (mod k) with {size} (p - 1)^2 < 2^53"
        )
    return tuple(found)


def residues(
    degrees: np.ndarray,
    adjacency: np.ndarray,
    index: np.ndarray,
    k: int,
    phases: np.ndarray,
    kind: str,
) -> np.ndarray:
    """The images of D[U] - E A[U] E at the two primes of k and s, a
    (2, N, s, s) float64 stack with entries in [0, p), one prime after the
    other.

    Arguments as for ``reduction._phased_matrices``: w^(l_u + l_v) becomes
    r^(l_u + l_v mod k), negated for the Laplacian kind, and the adjacency
    kind has no diagonal.
    """
    size = index.shape[1]
    # phases lie in [0, k), so l_u + l_v < 2k indexes the table whole
    exponents = phases[:, :, None] + phases[:, None, :].astype(np.intp)
    stack = np.take(_units(k, kind, size), exponents, axis=1)
    adjacent = adjacency[index[:, :, None], index[:, None, :]]
    for part in stack:
        part *= adjacent
        if kind != "adjacency":
            part[:, range(size), range(size)] = degrees[index]
    return stack


def _units(k: int, kind: str, size: int) -> np.ndarray:
    """r^j mod p for j < 2k, one row per prime of k and ``size``; p - r^j
    for the Laplacian kind.  Each doubling step multiplies residues by one,
    below 2^53, exactly."""
    rows = []
    for p, r in primes(k, size):
        row = np.ones(1)
        while len(row) < 2 * k:
            row = np.concatenate([row, row * pow(r, len(row), p) % p])
        rows.append(row[: 2 * k])
    table = np.array(rows)
    return np.array([[p] for p, _ in primes(k, size)]) - table if kind == "laplacian" else table


def _reduce(x: np.ndarray, p: float) -> np.ndarray:
    """``x`` reduced lazily into (-p, p), in place."""
    q = x / p
    np.floor(q, out=q)
    q *= p
    x -= q
    return x


def power_sums(stack: np.ndarray, p: int) -> np.ndarray:
    """tr(M^j) mod p for j = 1..s of each matrix of an (N, s, s) stack of
    symmetric residues, as an (N, s) float64 array in [0, p).

    The powers M^2..M^h, h = ceil(s / 2), come from stacked float64 matmuls,
    and tr(M^j) = sum M^a o M^b with a + b = j, a, b <= h.
    """
    size = stack.shape[-1]
    half = (size + 1) // 2
    powers = [stack]
    for _ in range(half - 1):
        powers.append(_reduce(np.matmul(powers[-1], stack), p))
    sums = np.empty(stack.shape[:-1])
    for j in range(1, size + 1):
        if j <= half:
            rows = np.diagonal(powers[j - 1], axis1=-2, axis2=-1)
        else:
            product = np.einsum("...ij,...ij->...i", powers[half - 1], powers[j - half - 1])
            rows = _reduce(product, p)
        sums[:, j - 1] = rows.sum(axis=-1)
    return np.mod(sums, p, out=sums)


class Firsts:
    """Marks the first matrix of each chi class of k, over the residue
    stacks it is called on in turn.

    Called on a stack of ``residues``, it returns one row per matrix: 1.0 for
    a matrix whose power sums at both primes no earlier matrix had, in call
    and stack order, and 0.0 for the others.
    """

    def __init__(self, k: int):
        self.k = k
        self.seen: set[bytes] = set()

    def __call__(self, stack: np.ndarray) -> np.ndarray:
        (p, _), (q, _) = primes(self.k, stack.shape[-1])
        first, second = (power_sums(part, r).astype(np.int64) for part, r in zip(stack, (p, q)))
        keys = first * q + second
        # lexsort is stable, so each run of equal keys starts at its first row
        order = np.lexsort(keys.T)
        ordered = keys[order]
        fresh = np.ones(len(keys), bool)
        fresh[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
        first = np.zeros(len(keys), bool)
        first[order[fresh]] = True
        flags = np.zeros((len(keys), 1))
        for i in np.flatnonzero(first).tolist():
            key = keys[i].tobytes()
            if key not in self.seen:
                self.seen.add(key)
                flags[i] = 1.0
        return flags


def keyed_rows(g: LoopedGraph, subset: tuple[int, ...], k: int, quota: int) -> int:
    """How many leading rows of a block of ``quota`` phase rows of ``subset``
    ``Firsts`` keys: at most (k/2)^(s-1), the orbit minima, when the subset
    induces a bipartite subgraph of ``g``, and all of them otherwise."""
    if induces_bipartite(g, subset):
        return min(quota, (k // 2) ** (len(subset) - 1))
    return quota


def representatives(blocks: list, marks: np.ndarray, ends: list[int]) -> list:
    """``blocks`` cut to the rows that ``Firsts`` marked, from the flat
    ``(marks, ends)`` of ``reduction._solve_blocks``; blocks left without a
    row are dropped."""
    kept = []
    for (subset, phases), end in zip(blocks, ends):
        mark = marks[end - len(phases) : end] > 0
        if mark.any():
            kept.append((subset, phases[mark]))
    return kept


def value_rows(blocks: list) -> np.ndarray:
    """The phase row, counted over ``blocks``, of each value that
    ``reduction._solve_blocks`` lays out for one eigenvalue per matrix
    dimension."""
    counts = [len(phases) for _, phases in blocks]
    widths = np.repeat([len(subset) for subset, _ in blocks], counts)
    return np.repeat(np.arange(sum(counts)), widths)


# -- polynomials mod p, as coefficient lists from the constant term up ----------


def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a = a[:-1]
    return a


def _monic(a: list[int], p: int) -> list[int]:
    inverse = pow(a[-1], -1, p)
    return [c * inverse % p for c in a]


def _remainder(a: list[int], b: list[int], p: int) -> list[int]:
    """The remainder of ``a`` by the monic ``b``."""
    a, top = list(a), len(b) - 1
    for i in range(len(a) - 1, top - 1, -1):
        c = a[i] % p
        if c:
            for j in range(top):
                a[i - top + j] -= c * b[j]
    return _trim([c % p for c in a[:top]])


def _gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """The monic gcd of ``a`` and ``b``, ``a`` nonzero."""
    while b:
        b = _monic(b, p)
        a, b = b, _remainder(a, b, p)
    return _monic(a, p)


def _derivative(a: list[int], p: int) -> list[int]:
    return _trim([i * c % p for i, c in enumerate(a)][1:])


def multiplicities(sums: list[int], p: int) -> tuple[int, ...]:
    """The multiplicities of the distinct roots of chi mod p, ascending, from
    its power sums tr(M^j) mod p, j = 1..s.

    Newton's identities give chi; then g_0 = chi and g_i = gcd(g_(i-1),
    g_(i-1)') keep each root of multiplicity m > i with multiplicity m - i
    (p > s, so no derivative of a nonconstant g vanishes), and
    deg g_(i-1) - deg g_i roots have multiplicity at least i: the
    multiplicities of Yun's square-free factorisation.
    """
    size = len(sums)
    # e_j of the roots, from j e_j = sum_i (-1)^(i-1) e_(j-i) tr(M^i)
    e = [1]
    for j in range(1, size + 1):
        total = sum((e[j - i] if i % 2 else -e[j - i]) * sums[i - 1] for i in range(1, j + 1))
        e.append(total * pow(j, -1, p) % p)
    g = [(-1) ** j * e[j] % p for j in range(size, -1, -1)]
    degrees = [size]
    while len(g) > 1:
        g = _gcd(g, _derivative(g, p), p)
        degrees.append(len(g) - 1)
    at_least = [a - b for a, b in zip(degrees, degrees[1:])] + [0]
    return tuple(m for m in range(1, len(at_least)) for _ in range(at_least[m - 1] - at_least[m]))


def group(values: np.ndarray, counts: tuple[int, ...], bound: float) -> np.ndarray:
    """The means of ``values`` merged, closest pair first, into one group per
    entry of ``counts``, sorted by (real, imag).

    Pairs at equal distances merge in (i, j) order.  Raises ConvergenceError
    when the group sizes differ from ``counts`` as multisets, or a member
    lies farther than ``bound`` from its group's mean.  Each mean is the
    sequential sum of its members, in their order in ``values``, over their
    number.
    """
    points = values.tolist()
    size = len(points)
    pairs = sorted(
        (abs(points[i] - points[j]), i, j) for i in range(size) for j in range(i + 1, size)
    )
    parent = list(range(size))

    def root(i: int) -> int:
        while parent[i] != i:
            i = parent[i]
        return i

    groups = size
    for _, i, j in pairs:
        if groups == len(counts):
            break
        a, b = root(i), root(j)
        if a != b:
            parent[max(a, b)] = min(a, b)
            groups -= 1
    members: dict[int, list[complex]] = {}
    for i, value in enumerate(points):
        members.setdefault(root(i), []).append(value)
    sizes = sorted(map(len, members.values()))
    if sizes != sorted(counts):
        raise ConvergenceError(
            f"eigenvalue groups of sizes {sizes} differ from the multiplicities {sorted(counts)}"
        )
    means = []
    for run in members.values():
        mean = run[0] if len(run) == 1 else sum(run) / len(run)
        spread = max(abs(v - mean) for v in run)
        if spread > bound:
            raise ConvergenceError(f"eigenvalue group spread {spread:.3e} exceeds {bound:.3e}")
        means.append(mean)
    return np.sort(np.array(means, dtype=complex), kind="stable")


# rows of computed eigenvalues searched for close pairs at a time
_CHUNK = 1 << 10


def group_rows(
    matrices: tuple[np.ndarray, np.ndarray],
    k: int,
    kind: str,
    blocks: list,
    values: np.ndarray,
    top_only: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """The computed eigenvalues of the matrices of ``blocks``, each matrix's
    merged into one mean per distinct eigenvalue.

    ``matrices`` are D and A of the base graph and ``values`` the flat array
    of ``reduction._solve_blocks`` over ``blocks``: each matrix's s computed
    eigenvalues, sorted by (real, imag), matrix after matrix in block order.
    Returns ``(points, rows)``: the merged values, matrix after matrix and
    each matrix's sorted by (real, imag), and the position of the matrix of
    each among the phase rows of ``blocks``.  ||M|| below is the infinity
    norm, max_u deg(u) + deg_U(u) (deg_U(u) for the adjacency kind).

    Only a row of values with two of them within 2 SPREAD max(1, ||M||) can
    hold a group that passes the spread gate, so only those rows get the
    multiplicities of their chi; a row whose larger d is s keeps its values,
    and the others are merged by ``group``.  Where a row has no such pair
    its values are kept without a gcd, so a true multiple eigenvalue
    scattered that far would be reported as distinct values, not caught.
    With ``top_only``, for a reader of the largest moduli only, a row is
    merged only if such a pair has a value within 2 SPREAD max(1, ||M||) of
    the row's largest modulus; the groups of other rows cannot reach it.  A
    failed gate raises ConvergenceError naming the subset and phases of the
    matrix.
    """
    degrees, adjacency = matrices
    counts = [len(phases) for _, phases in blocks]
    norms = [
        adjacency[np.ix_(subset, subset)].sum(axis=1)
        + (kind != "adjacency") * degrees[list(subset)]
        for subset, _ in blocks
    ]
    scales = np.repeat([max(1.0, norm.max()) for norm in norms], counts)
    widths = np.repeat([len(subset) for subset, _ in blocks], counts)
    starts = np.cumsum(widths) - widths
    rows = value_rows(blocks)
    owner = np.repeat(np.arange(len(blocks)), counts)
    offset = np.repeat(np.cumsum(counts) - counts, counts)
    grouped: dict[int, np.ndarray] = {}
    for size in sorted(set(widths.tolist()) - {1}):
        at = np.flatnonzero(widths == size)
        for lo in range(0, len(at), _CHUNK):
            part = at[lo : lo + _CHUNK]
            run = values[starts[part, None] + np.arange(size)]
            reach = 2 * SPREAD * scales[part, None]
            gaps = np.abs(run[:, :, None] - run[:, None, :])
            gaps[:, range(size), range(size)] = np.inf
            close = gaps.min(axis=2) <= reach
            if top_only:
                moduli = np.abs(run)
                close &= moduli >= moduli.max(axis=1, keepdims=True) - reach
            near = part[close.any(axis=1)].tolist()
            if not near:
                continue
            index = np.array([blocks[owner[row]][0] for row in near])
            phases = np.array([blocks[owner[row]][1][row - offset[row]] for row in near])
            stacks = residues(degrees, adjacency, index, k, phases, kind)
            sums = [
                (power_sums(stack, p).astype(np.int64).tolist(), p)
                for stack, (p, _) in zip(stacks, primes(k, size))
            ]
            for i, row in enumerate(near):
                found = max((multiplicities(by_prime[i], p) for by_prime, p in sums), key=len)
                if len(found) == size:
                    continue
                computed = values[starts[row] : starts[row] + size]
                try:
                    grouped[row] = group(computed, found, SPREAD * scales[row])
                except ConvergenceError as exc:
                    where = f"subset {tuple(index[i].tolist())}, phases {tuple(phases[i].tolist())}"
                    raise ConvergenceError(f"{exc} at {where}") from exc
    if not grouped:
        return values, rows
    keep = np.ones(len(widths), bool)
    keep[list(grouped)] = False
    keep = keep[rows]
    merged = np.repeat(list(grouped), [len(means) for means in grouped.values()])
    rows = np.concatenate([rows[keep], merged])
    order = np.argsort(rows, kind="stable")
    return np.concatenate([values[keep], *grouped.values()])[order], rows[order]
