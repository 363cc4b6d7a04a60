"""Seeded workload generator.

Every workload is a list of CLI jobs.  A job carries exactly the argv a user
would type (``--out`` points at a file in the run's work directory) plus what
the output checks need to know about its inputs.  The program only ever
sees the generated files, and the same seed always yields the same files.

The seed relabels every base graph whose cost does not depend on vertex
order by a random permutation: the named graphs, and the power-invariance
base.  The random bases of tensor-gauge are drawn once from a fixed
generator, because the cost of their jobs depends on the draw: the number of
NQZ iterations varies with the graph (1.7 to 4.4 s for different n=80 draws),
and the modular elimination behind ``certificate`` pivots in vertex order, so
its cost also depends on the labelling (1.35 to 2.24 s at k=12 for one base
under different labellings, on a 2-vCPU VM).  The certificate bases therefore keep their
generated labels.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

WORKLOADS = ("spectrum-ladder", "radius-ladder", "tensor-gauge")

# CLI command family of each job; the per-command end-to-end times sum over it.
FAMILIES = ("spectrum", "h_spectrum", "rho_equality", "power_invariance", "certificate")


@dataclass(frozen=True)
class Graph:
    """Base graph as written to an edge-list file."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def edge_list_text(self) -> str:
        lines = [f"{self.n} {len(self.edges)}"]
        lines.extend(f"{u} {v}" for u, v in self.edges)
        return "\n".join(lines) + "\n"


@dataclass
class Job:
    """One CLI invocation of a workload and the facts its output checks use."""

    name: str
    family: str
    argv: list[str]
    out_path: Path
    graph: Graph
    k: int = 0
    kind: str = ""
    power_path: Path | None = None
    bipartite: bool = False


# -- graphs -------------------------------------------------------------------


def cycle(n: int) -> Graph:
    return Graph(n, tuple((i, (i + 1) % n) for i in range(n)))


def complete(n: int) -> Graph:
    return Graph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)))


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, tuple(outer + spokes + inner))


def canonical(n: int, edges) -> Graph:
    return Graph(n, tuple(sorted((min(u, v), max(u, v)) for u, v in edges)))


def relabel(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return canonical(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def is_bipartite(g: Graph) -> bool:
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    color = [-1] * g.n
    for start in range(g.n):
        if color[start] != -1:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if color[w] == -1:
                    color[w] = 1 - color[u]
                    stack.append(w)
                elif color[w] == color[u]:
                    return False
    return True


def random_connected(n: int, m: int, rng: random.Random) -> Graph:
    """Random spanning tree plus uniformly drawn extra edges: connected, irregular."""
    order = list(range(n))
    rng.shuffle(order)
    edges = {tuple(sorted((order[i], order[rng.randrange(i)]))) for i in range(1, n)}
    while len(edges) < m:
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    return canonical(n, edges)


def random_non_bipartite(n: int, m: int, rng: random.Random) -> Graph:
    while True:
        g = random_connected(n, m, rng)
        if not is_bipartite(g):
            return g


def random_bipartite(n: int, m: int, rng: random.Random) -> Graph:
    """Connected bipartite graph with sides of sizes n//2 and n - n//2."""
    order = list(range(n))
    rng.shuffle(order)
    side = {v: i % 2 for i, v in enumerate(order)}
    reached = {0: [order[0]], 1: [order[1]]}
    edges = {tuple(sorted((order[0], order[1])))}
    for v in order[2:]:
        u = rng.choice(reached[1 - side[v]])
        edges.add((min(u, v), max(u, v)))
        reached[side[v]].append(v)
    while len(edges) < m:
        u, v = rng.choice(reached[0]), rng.choice(reached[1])
        edges.add((min(u, v), max(u, v)))
    return canonical(n, edges)


# -- workloads ----------------------------------------------------------------


class _JobList:
    def __init__(self, work: Path, rng: random.Random):
        self.work = work
        self.rng = rng
        self.jobs: list[Job] = []

    def graph_file(self, label: str, g: Graph) -> Path:
        path = self.work / f"{label}.edges"
        path.write_text(g.edge_list_text(), encoding="utf-8")
        return path

    def add(self, name: str, family: str, args: list[str], g: Graph, **extra) -> None:
        out = self.work / f"{name}.out.json"
        self.jobs.append(Job(name, family, args + ["--out", str(out)], out, g, **extra))


def _spectrum_ladder(b: _JobList) -> None:
    named = {
        "C5": cycle(5),
        "C7": cycle(7),
        "K4": complete(4),
        "K5": complete(5),
    }
    graphs = {label: relabel(g, b.rng) for label, g in named.items()}
    paths = {label: b.graph_file(label, g) for label, g in graphs.items()}
    for label, k, kind in (
        ("C5", 8, "L"),
        ("C7", 6, "L"),
        ("K4", 8, "L"),
        ("C5", 4, "L"),
        ("C5", 8, "Q"),
        ("K5", 6, "Q"),
    ):
        args = ["spectrum", "--input", str(paths[label]), "--k", str(k), "--kind", kind]
        b.add(f"spectrum-{kind}-{label}-k{k}", "spectrum", args, graphs[label], k=k, kind=kind)


def _radius_ladder(b: _JobList) -> None:
    for label, g, ks in (
        ("C5", cycle(5), "4,6,8"),
        ("K4", complete(4), "4,6,8,12"),
        ("K5", complete(5), "4,6,8"),
    ):
        g = relabel(g, b.rng)
        path = b.graph_file(label, g)
        args = ["verify", "--check", "rho-equality", "--input", str(path), "--k", ks]
        b.add(f"rho-equality-{label}", "rho_equality", args, g)
    for label, g, extra in (
        ("K8", complete(8), []),
        ("Petersen", petersen(), ["--max-subset", "10"]),
    ):
        g = relabel(g, b.rng)
        path = b.graph_file(label, g)
        args = ["spectrum", "--h-only", "--input", str(path), "--k", "4"] + extra
        b.add(f"h-spectrum-{label}-k4", "h_spectrum", args, g, k=4, kind="L")


def _tensor_gauge(b: _JobList, build_power: Callable[[list[str]], int]) -> None:
    shape = random.Random("tensor-gauge-structure")
    g = relabel(random_connected(80, 160, shape), b.rng)
    path = b.graph_file("irregular-n80", g)
    args = ["verify", "--check", "power-invariance", "--input", str(path), "--k", "4,8,12"]
    b.add("power-invariance-n80", "power_invariance", args, g)
    bases = (
        ("nonbip-n60", random_non_bipartite(60, 120, shape), False),
        ("bip-n60", random_bipartite(60, 110, shape), True),
    )
    for label, base, bipartite in bases:
        base_path = b.graph_file(label, base)
        for k in (6, 8, 12):
            power = b.work / f"{label}-k{k}.power.json"
            code = build_power(
                ["power", "--input", str(base_path), "--k", str(k), "--out", str(power)]
            )
            if code != 0:
                raise RuntimeError(f"hyperspec power failed on {label} k={k} (exit {code})")
            args = ["certificate", "--input", str(power)]
            b.add(
                f"certificate-{label}-k{k}",
                "certificate",
                args,
                base,
                k=k,
                power_path=power,
                bipartite=bipartite,
            )


def build(workload: str, seed: int, work: Path, build_power: Callable[[list[str]], int]) -> list[Job]:
    """Write the seeded inputs of ``workload`` into ``work`` and return its jobs.

    ``build_power`` runs ``hyperspec power`` (an argv list, returns the exit
    code); the tensor-gauge workload uses it to make its hypergraph files
    before any timing starts.
    """
    rng = random.Random(f"{workload}:{seed}")
    b = _JobList(work, rng)
    if workload == "spectrum-ladder":
        _spectrum_ladder(b)
    elif workload == "radius-ladder":
        _radius_ladder(b)
    elif workload == "tensor-gauge":
        _tensor_gauge(b, build_power)
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return b.jobs
