"""The planned phase rows that a spectrum's chi key pass keys.

``reduction._spectrum_report`` keys planned matrices by their characteristic
polynomial chi mod two primes (``_charpoly``), and ``Firsts`` marks the
first matrix of each key in plan order.  Call a planned row covered when an
earlier planned row has the same key.  Leaving covered rows out keys the
first planned row of every key all the same: were that row left out, an
earlier row would share its key.  So ``Firsts``, called on the kept rows in
plan order, marks the same rows in the same order.  Three cuts leave rows
out, and each leaves out covered rows only, whether or not the earlier row
that covers one is kept itself.

Gauge orbits.  Let G[U] be bipartite, sigma_u = +1 on the side of
u0 = min U and -1 on the other.  For a phase row l and any c, let l' be
l + c sigma re-reduced into [0, k/2): l'_u = l_u + c sigma_u - t_u k/2 for
integers t_u.  On every edge uv of G[U], sigma_u + sigma_v = 0, so
w^(l'_u + l'_v) = (-1)^(t_u + t_v) w^(l_u + l_v): the matrix of l' is S M S
with S = diag((-1)^(t_u)).  Since r^(k/2) = -1 mod p, its images are S M S
mod p too, with the same power sums, so l and l' have one key exactly.  The
k/2 shifts c move l_u0 through every residue, so each orbit holds exactly
one row with l_u0 = 0, its lexicographic minimum.  u0 is the most
significant digit of ``reduction._class_phases``, so those minima are the
first (k/2)^(s-1) rows of a block, and each later row is covered.  A block
cut by the budget is a prefix of q rows, whose first min(q, (k/2)^(s-1))
rows hold the minimum of every orbit it meets (``gauge_rows``).

Isomorphic subsets.  Give a subset U the labelled graph on the positions
0..s-1 of its sorted members, position a labelled deg_G(u_a), with the edges
of G[U] (``labelled``).  Let tau map the positions of U to those of U',
keeping every label and every edge and non-edge.  For a phase row l of U',
the row m of U with m_a = l_(tau(a)) has M_U(m)[a, b] = M_U'(l)[tau(a),
tau(b)] for all a, b: the matrices are permutation-similar, with the same
chi and, since the images mod p are permuted alike, the same key.  m has
its digits in [0, k/2), so it is a phase class of U.  ``_plan_work`` gives
every block its full (k/2)^s rows but the last planned one, so when U
precedes U' in the plan, m is planned and earlier: every row of U' is
covered.  The plan is walked in order; a subset isomorphic to an earlier
leader keys no row, and any other becomes a leader.  Comparing with leaders
alone suffices, since isomorphism is transitive.

Automorphisms.  For a map tau of a leader's labelled graph to itself, the
same argument covers l by m = l o tau whenever m precedes l, that is when m
is lexicographically smaller (class order is lexicographic), and then m is
planned too, since a block's planned rows are a prefix.  Any set of
automorphisms is sound.  ``automorphisms`` gives coset representatives of
the stabiliser chain: for each position i and each j > i, one map that
fixes 0..i-1 and sends i to j, when there is one.  On the symmetric group
this keeps exactly the non-decreasing rows: in any other row l, let i be
the first position where l differs from its sorted self; l_j is smaller
than l_i at some j > i, and the representative that fixes 0..i-1 and sends
i to j gives a smaller m.

Maps are found by backtracking over positions (VF2 style): each next
position is the first unmapped one next to a mapped one, and a candidate
image must have its label, and its adjacency to the images of the mapped
positions.  ``labelled`` refines the labels once: a position's label is
its pair (deg_G, deg_G[U]) and the sorted pairs of its neighbours in G[U].
A map that keeps base degrees, edges and non-edges keeps these labels too,
and the converse is plain, so the maps are the same, but the search prunes
far earlier on subsets whose base degrees are all equal.  A subset is
tested only against the leaders of its invariant, its sorted labels.
"""

from __future__ import annotations

import numpy as np

from hyperspec.graphs import LoopedGraph, induces_bipartite
from hyperspec.reduction import _class_phases
from hyperspec.witnesses import Block

__all__ = ["automorphisms", "gauge_rows", "isomorphism", "keyed_blocks", "labelled"]

# a labelled graph: the label of each position, any value that equals
# another exactly when the two positions may correspond, and the neighbours
# of each position in G[U] as a bit mask over positions
Labelled = tuple[tuple, tuple[int, ...]]


def labelled(g: LoopedGraph, subset: tuple[int, ...]) -> Labelled:
    """The labelled graph of G[``subset``]: each position labelled by its
    degrees in ``g`` and in G[``subset``] and the sorted pairs of its
    neighbours in G[``subset``], with the edges inside ``subset``."""
    position = {u: a for a, u in enumerate(subset)}
    inside = [[position[w] for w in g.neighbors(u) if w in position] for u in subset]
    pairs = [(g.degree(u), len(near)) for u, near in zip(subset, inside)]
    labels = tuple((pair, tuple(sorted(pairs[b] for b in near))) for pair, near in zip(pairs, inside))
    return labels, tuple(sum(1 << b for b in near) for near in inside)


def _invariant(graph: Labelled) -> tuple:
    return tuple(sorted(graph[0]))


def _fits(a: Labelled, b: Labelled, image: dict[int, int], used: int, x: int, y: int) -> bool:
    """Whether x of ``a`` may go to the unused y of ``b`` under ``image``,
    whose images are the bits of ``used``."""
    (labels, masks), (to_labels, to_masks) = a, b
    if labels[x] != to_labels[y]:
        return False
    # the images of the mapped neighbours of x are the used neighbours of y
    near = sum(1 << image[z] for z in image if masks[x] >> z & 1)
    return to_masks[y] & used == near


def _complete(a: Labelled, b: Labelled, image: dict[int, int], used: int) -> dict[int, int] | None:
    """``image`` extended to a map of every position of ``a`` to ``b`` that
    keeps labels, edges and non-edges, or None; backtracks in place."""
    size = len(a[0])
    if len(image) == size:
        return image
    free = [x for x in range(size) if x not in image]
    mapped = sum(1 << z for z in image)
    x = next((x for x in free if a[1][x] & mapped), free[0])
    for y in range(size):
        if not used >> y & 1 and _fits(a, b, image, used, x, y):
            image[x] = y
            if _complete(a, b, image, used | 1 << y) is not None:
                return image
            del image[x]
    return None


def isomorphism(a: Labelled, b: Labelled) -> list[int] | None:
    """A map of the positions of ``a`` onto those of ``b`` that keeps labels,
    edges and non-edges, as the image of each position, or None."""
    if _invariant(a) != _invariant(b):
        return None
    found = _complete(a, b, {}, 0)
    return None if found is None else [found[x] for x in range(len(a[0]))]


def automorphisms(a: Labelled) -> list[list[int]]:
    """Coset representatives of the stabiliser chain of the automorphisms of
    ``a``: for each position i and each j > i, one automorphism that fixes
    0..i-1 and sends i to j, if any, as the image of each position."""
    size = len(a[0])
    found = []
    for i in range(size):
        fixed = {x: x for x in range(i)}
        used = (1 << i) - 1
        for j in range(i + 1, size):
            if _fits(a, a, fixed, used, i, j):
                image = _complete(a, a, {**fixed, i: j}, used | 1 << j)
                if image is not None:
                    found.append([image[x] for x in range(size)])
    return found


def gauge_rows(g: LoopedGraph, subset: tuple[int, ...], k: int, quota: int) -> int:
    """How many leading rows of a block of ``quota`` phase rows of ``subset``
    hold a gauge-orbit minimum: at most (k/2)^(s-1) when the subset induces
    a bipartite subgraph of ``g``, and all of them otherwise."""
    if induces_bipartite(g, subset):
        return min(quota, (k // 2) ** (len(subset) - 1))
    return quota


def keyed_blocks(g: LoopedGraph, plan: list[tuple[tuple[int, ...], int]], k: int) -> list[Block]:
    """The phase rows of ``plan`` that the key pass keys, one block per
    leader subset in plan order: its gauge-orbit minima that none of the
    ``automorphisms`` of its labelled graph sends to an earlier row.  Every
    block keeps at least its all-zero row."""
    leaders: dict[tuple, list[Labelled]] = {}
    blocks = []
    for subset, quota in plan:
        graph = labelled(g, subset)
        alike = leaders.setdefault(_invariant(graph), [])
        if any(isomorphism(graph, leader) is not None for leader in alike):
            continue
        alike.append(graph)
        kept = _class_phases(len(subset), k, range(gauge_rows(g, subset, k, quota)))
        for image in automorphisms(graph):
            # the first nonzero digit of m - l decides m < l; digits lie in
            # [0, k/2), so their differences fit the phase dtype
            step = kept[:, image] - kept
            lead = step[np.arange(len(step)), (step != 0).argmax(axis=1)]
            kept = kept[lead >= 0]
        blocks.append((subset, kept))
    return blocks
