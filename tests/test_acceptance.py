"""Acceptance suite: every criterion prints one PASS line when it holds.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; each
test pins its tolerances explicitly.
"""

import itertools
import json
import math
import random

import numpy as np
import pytest

from hyperspec.gauge import build_similarity_system, certificate_report, solve_mod_m
from hyperspec.graphs import LoopedGraph, complete_graph, cycle_graph
from hyperspec.hypergraphs import Hypergraph, generalized_power, odd_bipartition
from hyperspec.linalg import eig_complex_pairs, eig_real_symmetric, power_iteration_nonneg, spectral_radius
from hyperspec.reduction import (
    h_spectrum_power,
    lambda_max_laplacian,
    reduced_matrix,
    rho_power,
    spectrum_power,
    uniform_phase_matrix,
)
from hyperspec.tensors import (
    Gauge,
    TensorOperator,
    eig_residual,
    lift_phase,
    lift_real,
    nqz_power_iteration,
    rotate_signless_to_laplacian,
    verify_diagonal_similarity,
)

TWO_SQRT3 = 2 * math.sqrt(3)
C3 = cycle_graph(3)
C4 = cycle_graph(4)
C5 = cycle_graph(5)


def report(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number:02d} PASS: {text}")


def brute_connected_subsets(g):
    out = []
    n = g.vertex_count
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            members = set(subset)
            seen = {subset[0]}
            stack = [subset[0]]
            while stack:
                u = stack.pop()
                for w in g.neighbors(u):
                    if w in members and w not in seen:
                        seen.add(w)
                        stack.append(w)
            if len(seen) == len(members):
                out.append(subset)
    return out


def test_criterion_01_radius_equality_when_k_divisible_by_four():
    for k in (4, 8, 12):
        spec_l = spectrum_power(C3, k, "laplacian")
        spec_q = spectrum_power(C3, k, "signless")
        assert spec_l.complete and spec_q.complete
        assert spec_l.spectrum.set_equal(spec_q.spectrum, tol=1e-8)
        rho = rho_power(C3, k, "laplacian")
        assert abs(rho.value - 4.0) <= 1e-8
        rho_q = float(eig_real_symmetric(C3.signless_laplacian_matrix())[-1].value)
        assert abs(rho_q - 4.0) <= 1e-8
        assert rho.witness.subset == (0, 1, 2)
        assert rho.witness.phase.phases == (k // 4,) * 3
    report(1, "spectra of L and Q coincide and rho_L = rho_Q = 4 for k = 4, 8, 12, "
              "witnessed by the uniform quarter-turn phases")


def test_criterion_02_radius_gap_when_k_is_2_mod_4():
    bounds = {6: TWO_SQRT3, 10: spectral_radius(uniform_phase_matrix(C3, 10))}
    for k, lower in bounds.items():
        rho = rho_power(C3, k, "laplacian")
        assert rho.complete
        assert rho.value >= lower - 1e-8
        assert rho.value <= 4.0 - 1e-6
    report(2, "rho_L of the triangle blow-up stays strictly below rho_Q = 4 for "
              "k = 6, 10, above the uniform-phase circulant bound")


def test_criterion_03_largest_h_eigenvalue_matches_base_laplacian():
    for k in (4, 6, 8, 10, 12):
        assert abs(lambda_max_laplacian(C3, k) - 3.0) <= 1e-10
    assert abs(lambda_max_laplacian(C5, 4) - 3.6180340) <= 1e-6
    report(3, "lambda_max of the Laplacian tensor equals the base matrix value: "
              "3 for the triangle, 3.6180340 for the pentagon")


def test_criterion_03_h_spectrum_enumeration_reaches_the_base_laplacian_bound():
    # an independent path to the same value: the largest real value of the
    # enumerated H-spectrum, the largest eigenvalue over every connected
    # principal submatrix D[U] - A[U] of L(G) (the whole graph included),
    # against lambda_max of L(G) itself
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    petersen = LoopedGraph(10, outer + spokes + inner)
    cases = [(C3, 8), (cycle_graph(5), 8), (complete_graph(4), 8), (petersen, 10)]
    for g, max_subset in cases:
        for k in (4, 6, 8):
            spectrum = h_spectrum_power(g, k, "L", max_subset=max_subset).spectrum
            top = max(spectrum.real_values())
            assert abs(top - lambda_max_laplacian(g, k)) <= 1e-9
    report(3, "the largest real H-eigenvalue of the enumeration equals lambda_max "
              "of the base Laplacian on C3, C5, K4 and Petersen at k = 4, 6, 8")


def test_criterion_04_uniform_phase_gap_shrinks_with_k():
    gaps = []
    for k in (6, 10, 14, 18, 22):
        rho_u = spectral_radius(uniform_phase_matrix(C3, k))
        gaps.append(4.0 - rho_u)
        assert lambda_max_laplacian(C3, k) == pytest.approx(3.0, abs=1e-10)
        # lambda_max = 3 < rho(uniform phase matrix) <= rho_L
        assert rho_u > 3.0 + 1e-6
    assert all(gaps[i] > gaps[i + 1] for i in range(len(gaps) - 1))
    assert abs(gaps[0] - 0.5358984) <= 1e-6
    assert abs(gaps[1] - 0.1957739) <= 1e-6
    report(4, "the gap 4 - rho of the uniform-phase matrix strictly shrinks along "
              "k = 6, 10, 14, 18, 22 and lambda_max stays strictly smaller than rho_L")


def test_criterion_05_h_spectrum_matches_per_subset_oracle():
    got = h_spectrum_power(C3, 4, "laplacian")
    reals = got.spectrum.real_values(tol=1e-12)
    assert np.allclose(sorted(reals), [0.0, 1.0, 2.0, 3.0], atol=1e-9)
    # independent oracle: principal submatrices of the full Laplacian over a
    # brute-force connected-subset enumeration
    full = C3.laplacian_matrix()
    oracle = set()
    for subset in brute_connected_subsets(C3):
        block = full[np.ix_(subset, subset)]
        for value in np.linalg.eigvalsh(block):
            oracle.add(round(float(value), 9))
    assert sorted(oracle) == pytest.approx(sorted(reals), abs=1e-9)
    report(5, "H-spectrum of the triangle blow-up Laplacian is exactly {0, 1, 2, 3}, "
              "matching the principal-submatrix oracle")


def test_criterion_06_lifted_eigenvectors_are_certified():
    # witnesses from the spectra and radii of criteria 1 and 2
    for k in (4, 6, 8, 10, 12):
        h, _ = generalized_power(C3, k, k // 2)
        op = TensorOperator(h, "laplacian")
        spec = spectrum_power(C3, k, "laplacian")
        for witness in spec.witnesses:
            m = reduced_matrix(C3, k, witness.subset, witness.phase.phases, "laplacian")
            best = min(
                eig_complex_pairs(m), key=lambda p: abs(p.value - witness.eigenvalue)
            )
            lifted = lift_phase(
                C3, k, witness.subset, witness.phase.phases, best.value, best.vector
            )
            assert eig_residual(op, best.value, lifted) <= 1e-8
        rho = rho_power(C3, k, "laplacian")
        m = reduced_matrix(
            C3, k, rho.witness.subset, rho.witness.phase.phases, "laplacian"
        )
        best = min(
            eig_complex_pairs(m), key=lambda p: abs(p.value - rho.witness.eigenvalue)
        )
        lifted = lift_phase(
            C3, k, rho.witness.subset, rho.witness.phase.phases, best.value, best.vector
        )
        assert eig_residual(op, best.value, lifted) <= 1e-8

    # real lifts of every modified-subgraph eigenpair on C3 and C5
    from hyperspec.graphs import connected_subsets

    for g in (C3, C5):
        for k in (4, 6, 8):
            h, _ = generalized_power(g, k, k // 2)
            op = TensorOperator(h, "laplacian")
            for subset in connected_subsets(g, g.vertex_count):
                sub = g.modified_induced_subgraph(subset)
                for pair in eig_real_symmetric(sub.laplacian_matrix()):
                    lifted = lift_real(g, k, subset, pair.value, pair.vector)
                    assert eig_residual(op, pair.value, lifted) <= 1e-8

    # anchor rotation on Perron pairs
    for g, k in ((C3, 4), (C5, 8)):
        h, halfmap = generalized_power(g, k, k // 2)
        perron = nqz_power_iteration(TensorOperator(h, "signless"))
        rotated = rotate_signless_to_laplacian(h, halfmap, perron.vector)
        assert eig_residual(TensorOperator(h, "laplacian"), perron.value, rotated) <= 1e-8
    report(6, "phase lifts, real lifts and the anchor rotation all produce tensor "
              "eigenvectors with residual at most 1e-8")


def test_criterion_07_tensor_power_iteration_matches_base_graph():
    base_q = power_iteration_nonneg(C3.signless_laplacian_matrix())
    base_a = power_iteration_nonneg(C3.adjacency_matrix())
    for k in (4, 6):
        h, _ = generalized_power(C3, k, k // 2)
        pair_q = nqz_power_iteration(TensorOperator(h, "signless"), budget=100_000)
        assert abs(pair_q.value - 4.0) <= 1e-6
        assert abs(pair_q.value - base_q.value) <= 1e-7
        pair_a = nqz_power_iteration(TensorOperator(h, "adjacency"), budget=100_000)
        assert abs(pair_a.value - 2.0) <= 1e-6
        assert abs(pair_a.value - base_a.value) <= 1e-7
    report(7, "tensor power iteration on the blow-ups reproduces the base-graph "
              "Perron values rho_Q = 4 and rho_A = 2 for k = 4, 6")


def test_criterion_08_odd_bipartite_iff_base_bipartite():
    pair_count = 0
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if (bits >> i) & 1]
            g = LoopedGraph(n, edges)
            if not g.is_connected():
                continue
            for k in (4, 6):
                h, _ = generalized_power(g, k, k // 2)
                assert (odd_bipartition(h) is not None) == g.is_bipartite()
                pair_count += 1
    assert pair_count > 1400

    rng = random.Random(816)
    for _ in range(12):
        n = rng.randint(6, 16)
        k = rng.choice([4, 6])
        edges = set()
        while len(edges) < rng.randint(1, 7):
            edges.add(tuple(sorted(rng.sample(range(n), k))))
        h = Hypergraph(n, k, sorted(edges))
        got = odd_bipartition(h)
        want = None
        for bits in range(1 << n):
            if all(sum((bits >> v) & 1 for v in e) % 2 == 1 for e in h.edges):
                want = bits
                break
        assert (got is None) == (want is None)
    report(8, "odd-bipartiteness of every half blow-up on at most 5 base vertices "
              "matches base bipartiteness, and the GF(2) solver matches brute force")


def test_criterion_09_certificates_exist_exactly_when_4_divides_k():
    for k in (4, 6, 8, 10, 12):
        h, _ = generalized_power(C3, k, k // 2)
        rep = certificate_report(h, (2, k, 2 * k))
        found = any(entry["solvable"] for entry in rep["moduli"].values())
        assert found == (k % 4 == 0)
        for entry in rep["moduli"].values():
            if entry["solvable"]:
                gauge = Gauge.from_json_dict(entry["gauge"])
                assert verify_diagonal_similarity(h, "laplacian", "signless", 1, gauge)
                assert verify_diagonal_similarity(h, "adjacency", "adjacency", -1, gauge)

    rng = random.Random(923)
    checked = 0
    while checked < 20:
        n = rng.randint(4, 9)
        k = rng.choice([4, 6])
        if k > n:
            continue
        edges = set()
        while len(edges) < rng.randint(1, 5):
            edges.add(tuple(sorted(rng.sample(range(n), k))))
        h = Hypergraph(n, k, sorted(edges))
        system = build_similarity_system(h, 2)
        assert (solve_mod_m(system) is not None) == (odd_bipartition(h) is not None)
        checked += 1
    report(9, "similarity certificates for the triangle blow-ups exist exactly when "
              "4 divides k; every found gauge verifies exactly and the order-2 case "
              "matches odd-bipartiteness on 20 seeded hypergraphs")


def test_criterion_10_bipartite_base_collapses_the_chain():
    for k in (4, 6):
        lam = lambda_max_laplacian(C4, k)
        rho_l = rho_power(C4, k, "laplacian")
        rho_q = float(eig_real_symmetric(C4.signless_laplacian_matrix())[-1].value)
        assert abs(lam - 4.0) <= 1e-8
        assert abs(rho_l.value - 4.0) <= 1e-8
        assert abs(rho_q - 4.0) <= 1e-8
    report(10, "for the bipartite square, lambda_max = rho_L = rho_Q = 4 at k = 4, 6")


def test_criterion_11_degrees_are_h_eigenvalues_with_exact_unit_eigenvectors():
    for g, k in ((C3, 4), (C5, 6)):
        h, _ = generalized_power(g, k, k // 2)
        op_l = TensorOperator(h, "laplacian")
        op_q = TensorOperator(h, "signless")
        h_spec = h_spectrum_power(g, k, "laplacian")
        for v in range(h.vertex_count):
            unit = np.zeros(h.vertex_count)
            unit[v] = 1.0
            degree = float(h.degree(v))
            assert eig_residual(op_l, degree, unit) == 0.0
            assert eig_residual(op_q, degree, unit) == 0.0
            assert h_spec.spectrum.contains(degree, tol=1e-9)
    report(11, "every vertex degree is an exact H-eigenvalue of both Laplacians, "
               "with the unit vector as eigenvector, and appears in the H-spectrum")


def _bundle_reports() -> str:
    """Criteria 1-5 outputs as one canonical JSON document."""
    bundle = {}
    for k in (4, 8, 12):
        bundle[f"spec_L_{k}"] = spectrum_power(C3, k, "laplacian").to_json_dict()
        bundle[f"spec_Q_{k}"] = spectrum_power(C3, k, "signless").to_json_dict()
        bundle[f"rho_{k}"] = rho_power(C3, k, "laplacian").to_json_dict()
    for k in (6, 10):
        bundle[f"rho_{k}"] = rho_power(C3, k, "laplacian").to_json_dict()
    bundle["lambda_c3"] = [lambda_max_laplacian(C3, k) for k in (4, 6, 8, 10, 12)]
    bundle["lambda_c5"] = lambda_max_laplacian(C5, 4)
    bundle["gaps"] = [
        4.0 - spectral_radius(uniform_phase_matrix(C3, k)) for k in (6, 10, 14, 18, 22)
    ]
    bundle["h_spec"] = h_spectrum_power(C3, 4, "laplacian").to_json_dict()
    return json.dumps(bundle, sort_keys=True, separators=(",", ":"))


def test_criterion_12_reports_are_identical_across_runs():
    first = _bundle_reports()
    second = _bundle_reports()
    assert first.encode() == second.encode()
    report(12, "criteria 1-5 reports are byte-identical across runs")
