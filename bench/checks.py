"""Output checks for every benchmark job.

Each check parses the bytes the CLI wrote and compares them with facts
computed independently here, with numpy on the base graph or in plain
integers on the power hypergraph.  A check returns a list of problems; an
empty list means the output is correct.
"""

from __future__ import annotations

import json

import numpy as np

from workloads import Graph, Job

# The CLI's default dedup tolerance: values that should coincide must agree
# to this relative accuracy.
TOL = 1e-8
# The CLI's STRICT_MARGIN: a value that should lie strictly below another
# must clear it by at least this much.
STRICT = 1e-6


def _matrices(g: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    a = np.zeros((g.n, g.n))
    for u, v in g.edges:
        a[u, v] = a[v, u] = 1.0
    d = np.diag(a.sum(axis=1))
    return a, d - a, d + a


def _top(m: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(m)[-1])


def _close(x: float, y: float) -> bool:
    return abs(x - y) <= TOL * max(1.0, abs(x), abs(y))


def _values(payload: dict) -> np.ndarray:
    return np.array([complex(re, im) for re, im in payload["values"]])


def _check_spectrum(job: Job, payload: dict) -> list[str]:
    problems = []
    if payload.get("complete") is not True:
        problems.append("spectrum is not complete")
    values = _values(payload)
    if values.size == 0:
        return problems + ["spectrum is empty"]
    a, lap, sig = _matrices(job.graph)
    rho_q = _top(sig)
    top = float(np.max(np.abs(values)))
    scale = max(1.0, top)
    if job.kind == "L" and job.k % 4 == 2:
        if not top < rho_q - STRICT:
            problems.append(f"max |value| {top!r} not below rho(Q(G)) {rho_q!r} at k = 2 mod 4")
    elif not _close(top, rho_q):
        problems.append(f"max |value| {top!r} differs from rho(Q(G)) {rho_q!r}")
    base = lap if job.kind == "L" else sig
    expected = list(np.linalg.eigvalsh(base)) + list(a.sum(axis=1))
    for target in expected:
        if float(np.min(np.abs(values - target))) > TOL * scale:
            problems.append(f"base value {target!r} missing from the spectrum")
            break
    return problems


def _check_h_spectrum(job: Job, payload: dict) -> list[str]:
    problems = []
    if payload.get("complete") is not True:
        problems.append("H-spectrum is not complete")
    values = _values(payload)
    if values.size == 0:
        return problems + ["H-spectrum is empty"]
    _, lap, _ = _matrices(job.graph)
    lam = _top(lap)
    top = float(np.max(values.real))
    if not _close(top, lam):
        problems.append(f"largest H-eigenvalue {top!r} differs from lambda_max(L(G)) {lam!r}")
    return problems


def _check_verify(job: Job, payload: dict) -> list[str]:
    problems = []
    if payload.get("passed") is not True:
        problems.append("verify did not pass")
    if payload.get("complete") is not True:
        problems.append("verify is not complete")
    a, lap, sig = _matrices(job.graph)
    ks = [int(k) for k in job.argv[job.argv.index("--k") + 1].split(",")]
    rows = payload.get("rows", [])
    if [row.get("k") for row in rows] != ks:
        problems.append(f"rows cover k = {[row.get('k') for row in rows]}, expected {ks}")
    if job.family == "rho_equality":
        expect = {"rho_Q": _top(sig), "lambda_max_L": _top(lap)}
    else:
        expect = {"rho_Q_base": _top(sig), "rho_A_base": _top(a)}
    for row in rows:
        for key, value in expect.items():
            if not _close(float(row.get(key, np.nan)), value):
                problems.append(f"k={row.get('k')}: {key} {row.get(key)!r} differs from {value!r}")
    return problems


def _check_certificate(job: Job, payload: dict) -> list[str]:
    problems = []
    bipartite = job.bipartite
    k = job.k
    if payload.get("odd_bipartite") is not bipartite:
        problems.append(f"odd_bipartite is {payload.get('odd_bipartite')}, base bipartite is {bipartite}")
    moduli = payload.get("moduli", {})
    if sorted(moduli, key=int) != [str(m) for m in sorted({2, k, 2 * k})]:
        return problems + [f"unexpected moduli {sorted(moduli)}"]
    expected = {2: bipartite, k: bipartite or k % 4 == 0, 2 * k: bipartite or k % 4 == 0}
    power = json.loads(job.power_path.read_text(encoding="utf-8"))
    rank = int(power["k"])
    full = [edge for edge in power["edges"] if len(edge) == rank]
    for m, solvable in expected.items():
        entry = moduli[str(m)]
        if entry.get("solvable") is not solvable:
            problems.append(f"modulus {m}: solvable is {entry.get('solvable')}, expected {solvable}")
            continue
        gauge = entry.get("gauge")
        if (gauge is None) == solvable:
            problems.append(f"modulus {m}: gauge presence does not match solvable")
            continue
        if gauge is None:
            continue
        if gauge.get("mod") != m:
            problems.append(f"modulus {m}: gauge has mod {gauge.get('mod')}")
            continue
        phase = {int(v): int(p) for v, p in gauge["phase"].items()}
        for edge in full:
            total = sum(phase[v] for v in edge)
            if any((total - rank * phase[v]) % m != m // 2 for v in edge):
                problems.append(f"modulus {m}: gauge violates the congruence on edge {edge}")
                break
    return problems


_CHECKS = {
    "spectrum": _check_spectrum,
    "h_spectrum": _check_h_spectrum,
    "rho_equality": _check_verify,
    "power_invariance": _check_verify,
    "certificate": _check_certificate,
}


def check_job(job: Job, data: bytes) -> tuple[list[str], dict | None]:
    """Problems found in one job's output, and the parsed payload."""
    try:
        payload = json.loads(data)
    except (ValueError, UnicodeDecodeError) as exc:
        return [f"output is not JSON: {exc}"], None
    if not isinstance(payload, dict):
        return ["output is not a JSON object"], None
    try:
        return _CHECKS[job.family](job, payload), payload
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"output is malformed: {exc!r}"], payload


def check_pass(jobs: list[Job], payloads: dict[str, dict]) -> dict[str, list[str]]:
    """Checks that relate jobs of one pass: L and Q spectra agree when 4 | k."""
    problems: dict[str, list[str]] = {}
    by_key = {}
    for job in jobs:
        if job.family == "spectrum" and job.name in payloads:
            by_key[(job.graph, job.k, job.kind)] = (job, payloads[job.name])
    for (graph, k, kind), (job, payload) in by_key.items():
        if kind != "L" or k % 4 or (graph, k, "Q") not in by_key:
            continue
        lv, qv = _values(payload), _values(by_key[(graph, k, "Q")][1])
        scale = max(1.0, float(np.max(np.abs(lv))), float(np.max(np.abs(qv))))
        far = max(
            max(float(np.min(np.abs(qv - v))) for v in lv),
            max(float(np.min(np.abs(lv - v))) for v in qv),
        )
        if far > TOL * scale:
            problems.setdefault(job.name, []).append(
                f"L and Q spectra differ by {far:.3e} at k={k}"
            )
    return problems
