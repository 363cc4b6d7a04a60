import ast
import gc
import inspect
import json
import math
import random
import re
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperspec import _charpoly, _orbits, linalg, reduction
from hyperspec.graphs import (
    LoopedGraph,
    complete_graph,
    connected_subsets,
    cycle_graph,
    path_graph,
)
from hyperspec.linalg import (
    ConvergenceError,
    SpectrumSet,
    eig_complex_pairs,
    eig_real_symmetric,
    eig_real_symmetric_stack,
    spectral_radius,
)
from hyperspec.reduction import (
    KIND_LETTER,
    PhaseAssignment,
    ReductionWitness,
    RhoResult,
    h_spectrum_power,
    lambda_max_laplacian,
    normalize_kind,
    phase_classes,
    reduced_matrix,
    rho_power,
    spectrum_power,
    uniform_phase_matrix,
)

TWO_SQRT3 = 2 * math.sqrt(3)


class TestReducedMatrix:
    def test_uniform_quarter_phase_gives_signless(self):
        g = cycle_graph(3)
        m = reduced_matrix(g, 4, (0, 1, 2), (1, 1, 1), "laplacian")
        assert np.allclose(m, g.signless_laplacian_matrix())

    def test_identity_phase_gives_modified_laplacian(self):
        g = cycle_graph(3)
        for subset in ((0, 1, 2), (0, 1), (2,)):
            m = reduced_matrix(g, 4, subset, (0,) * len(subset), "laplacian")
            sub = g.modified_induced_subgraph(subset)
            assert np.allclose(m, sub.laplacian_matrix())

    def test_sixth_power_uniform_circulant(self):
        g = cycle_graph(3)
        m = reduced_matrix(g, 6, (0, 1, 2), (2, 2, 2), "laplacian")
        want = 2 * np.eye(3) - np.exp(4j * np.pi / 3) * g.adjacency_matrix()
        assert np.allclose(m, want)
        assert spectral_radius(m) == pytest.approx(TWO_SQRT3, abs=1e-9)

    def test_adjacency_kind_has_no_diagonal(self):
        g = cycle_graph(3)
        m = reduced_matrix(g, 4, (0, 1, 2), (0, 1, 0), "adjacency")
        assert np.allclose(np.diag(m), 0.0)

    def test_signless_kind(self):
        g = cycle_graph(3)
        m = reduced_matrix(g, 4, (0, 1), (0, 0), "signless")
        assert np.allclose(m, [[2, 1], [1, 2]])

    def test_complex_symmetric_not_hermitian(self):
        g = cycle_graph(3)
        m = reduced_matrix(g, 8, (0, 1, 2), (1, 2, 3), "laplacian")
        assert np.allclose(m, m.T)
        assert not np.allclose(m, m.conj().T)

    @pytest.mark.parametrize("classes", [81, 1], ids=["phased", "identity"])
    @pytest.mark.parametrize("kind", ["adjacency", "laplacian", "signless"])
    def test_stacks_are_the_dense_expressions_bit_for_bit(self, kind, classes):
        # paths of C7 leave zero entries off the diagonal, whose phase
        # products carry signed zeros
        g, k = cycle_graph(7), 6
        degrees, adjacency = g.degree_vector(), g.adjacency_matrix()
        paths = [s for s in connected_subsets(g, 4) if len(s) == 4]
        phases = reduction._class_phases(4, k, range(classes))
        index = np.array([paths[i % len(paths)] for i in range(classes)])
        got = reduction._phased_matrices(degrees, adjacency, index, k, phases, kind)
        stack = adjacency[index[:, :, None], index[:, None, :]]
        if classes > 1:
            units = np.exp(2j * np.pi * phases / k)
            stack = units[:, :, None] * units[:, None, :] * stack
        diag = np.zeros(stack.shape)
        diag[:, range(4), range(4)] = degrees[index]
        want = {"adjacency": stack, "laplacian": diag - stack, "signless": diag + stack}
        assert got.dtype == want[kind].dtype
        assert got.tobytes() == want[kind].tobytes()

    def test_disconnected_subset_rejected(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            reduced_matrix(g, 4, (0, 2), (0, 0), "laplacian")


class TestPhaseClasses:
    @pytest.mark.parametrize(
        "k, dtype", [(8, np.int8), (256, np.int8), (2**9, np.int16), (10**6, np.int32)]
    )
    def test_class_phases_are_narrow_and_build_the_same_bits(self, k, dtype):
        # the first, middle and last classes of a path of the triangle, whose
        # phases reach k/2 - 1, above 127 from k = 2**9
        g, half = cycle_graph(3), k // 2
        positions = [0, 1, half**2 // 2 + 7, half**2 - 2, half**2 - 1]
        phases = reduction._class_phases(2, k, positions)
        assert phases.dtype == dtype
        assert phases.tolist() == [[p // half, p % half] for p in positions]
        assert phases.max() == half - 1
        index = np.array([(0, 1)])
        for kind in ("adjacency", "laplacian", "signless"):
            stack = reduction._phased_matrices(
                g.degree_vector(), g.adjacency_matrix(), index, k, phases, kind
            )
            for m, row in zip(stack, phases.tolist()):
                want = reduced_matrix(g, k, (0, 1), row, kind)
                assert m.tobytes() == want.tobytes()

    def test_counts(self):
        assert len(list(phase_classes(1, 4))) == 2
        assert len(list(phase_classes(2, 4))) == 4
        assert len(list(phase_classes(3, 6))) == 27

    def test_range_and_order(self):
        classes = list(phase_classes(2, 6))
        assert classes[0] == (0, 0)
        assert classes[-1] == (2, 2)
        assert all(0 <= p < 3 for tup in classes for p in tup)

    def test_sign_shift_preserves_spectrum(self):
        # adding k/2 to one phase is a similarity by a sign matrix
        g = cycle_graph(3)
        rng = random.Random(31)
        for _ in range(20):
            k = rng.choice([4, 6, 8])
            phases = [rng.randrange(k) for _ in range(3)]
            flipped = list(phases)
            j = rng.randrange(3)
            flipped[j] = (flipped[j] + k // 2) % k
            a = eig_complex_pairs(reduced_matrix(g, k, (0, 1, 2), phases))
            b = eig_complex_pairs(reduced_matrix(g, k, (0, 1, 2), flipped))
            sa = SpectrumSet([p.value for p in a], dedup_tol=1e-9)
            sb = SpectrumSet([p.value for p in b], dedup_tol=1e-9)
            assert sa.set_equal(sb)


class TestSpectrumPower:
    def test_triangle_k4_contains_known_reals(self):
        report = spectrum_power(cycle_graph(3), 4, "laplacian")
        assert report.complete
        for value in (0.0, 1.0, 2.0, 3.0, 4.0):
            assert report.spectrum.contains(value)

    def test_triangle_k4_laplacian_equals_signless(self):
        sl = spectrum_power(cycle_graph(3), 4, "laplacian")
        sq = spectrum_power(cycle_graph(3), 4, "signless")
        assert sl.spectrum.set_equal(sq.spectrum, tol=1e-8)

    def test_triangle_k6_kinds_differ(self):
        sl = spectrum_power(cycle_graph(3), 6, "laplacian")
        sq = spectrum_power(cycle_graph(3), 6, "signless")
        assert not sl.spectrum.set_equal(sq.spectrum, tol=1e-8)
        assert sq.spectrum.contains(4.0)
        assert not sl.spectrum.contains(4.0)

    def test_witness_eigenvalue_in_reduced_spectrum(self):
        report = spectrum_power(cycle_graph(3), 4, "laplacian")
        for value, witness in zip(report.values, report.witnesses):
            m = reduced_matrix(
                cycle_graph(3), 4, witness.subset, witness.phase.phases, witness.kind
            )
            pairs = eig_complex_pairs(m)
            assert min(abs(p.value - witness.eigenvalue) for p in pairs) <= 1e-9

    def test_budget_truncation_is_flagged(self):
        report = spectrum_power(cycle_graph(3), 4, "laplacian", budget=3)
        assert not report.complete
        assert report.budget_used == 3

    def test_repeated_runs_match(self):
        first = spectrum_power(cycle_graph(3), 6, "laplacian")
        second = spectrum_power(cycle_graph(3), 6, "laplacian")
        assert first.values == second.values
        assert first.to_json_dict() == second.to_json_dict()

    def test_adjacency_spectrum_symmetric_iff_4_divides_k(self):
        g = cycle_graph(3)
        for k, symmetric in ((4, True), (6, False), (8, True)):
            rep = spectrum_power(g, k, "adjacency")
            negated = SpectrumSet([-v for v in rep.values], dedup_tol=1e-8)
            assert rep.spectrum.set_equal(negated, tol=1e-8) == symmetric

    def test_pentagon_k4_radius_equality(self):
        g = cycle_graph(5)
        result = rho_power(g, 4, "laplacian")
        assert result.value == pytest.approx(4.0, abs=1e-8)
        assert result.witness.phase.phases == (1, 1, 1, 1, 1)

    def test_exact_budget_is_complete(self):
        g = cycle_graph(3)
        total = sum(2 ** len(s) for s in [(0,), (0, 1), (0, 1, 2), (0, 2), (1,), (1, 2), (2,)])
        report = spectrum_power(g, 4, "laplacian", budget=total)
        assert report.complete
        assert report.budget_used == total

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            spectrum_power(cycle_graph(3), 5, "laplacian")
        with pytest.raises(ValueError):
            spectrum_power(LoopedGraph(4, [(0, 1), (2, 3)]), 4, "laplacian")
        with pytest.raises(ValueError):
            spectrum_power(LoopedGraph(2, [(0, 1)], {0: 1}), 4, "laplacian")


class TestHSpectrumPower:
    def test_triangle_k4(self):
        report = h_spectrum_power(cycle_graph(3), 4, "laplacian")
        assert np.allclose(report.spectrum.real_values(), [0.0, 1.0, 2.0, 3.0])

    def test_triangle_signless_contains_perron(self):
        report = h_spectrum_power(cycle_graph(3), 4, "signless")
        assert report.spectrum.contains(4.0)

    def test_bipartite_kinds_agree(self):
        for g in (cycle_graph(4), path_graph(4)):
            hl = h_spectrum_power(g, 4, "laplacian")
            hq = h_spectrum_power(g, 4, "signless")
            assert hl.spectrum.set_equal(hq.spectrum, tol=1e-8)

    def test_contained_in_full_spectrum(self):
        g = cycle_graph(3)
        for k in (4, 6):
            full = spectrum_power(g, k, "laplacian")
            hpart = h_spectrum_power(g, k, "laplacian")
            for value in hpart.spectrum.real_values():
                assert full.spectrum.contains(value, tol=1e-8)

    def test_adjacency_kind_uses_plain_induced_subgraphs(self):
        g = path_graph(3)
        report = h_spectrum_power(g, 4, "adjacency")
        # singleton subsets give eigenvalue 0; the full path gives +-sqrt(2)
        assert report.spectrum.contains(0.0)
        assert report.spectrum.contains(math.sqrt(2))
        assert report.spectrum.contains(-math.sqrt(2))


class TestLambdaMax:
    def test_triangle_for_every_even_k(self):
        for k in (4, 6, 8, 10, 12):
            assert lambda_max_laplacian(cycle_graph(3), k) == pytest.approx(
                3.0, abs=1e-10
            )

    def test_pentagon(self):
        want = 2 + 2 * math.cos(math.pi / 5)
        assert lambda_max_laplacian(cycle_graph(5), 4) == pytest.approx(want, abs=1e-9)
        assert lambda_max_laplacian(cycle_graph(5), 4) == pytest.approx(
            3.6180340, abs=1e-6
        )

    def test_single_edge(self):
        assert lambda_max_laplacian(path_graph(2), 4) == pytest.approx(2.0, abs=1e-10)


class TestRhoPower:
    def test_triangle_k4(self):
        result = rho_power(cycle_graph(3), 4, "laplacian")
        assert result.value == pytest.approx(4.0, abs=1e-8)
        assert result.witness.subset == (0, 1, 2)
        assert result.witness.phase.phases == (1, 1, 1)
        assert result.complete

    def test_triangle_k6_strictly_below_signless(self):
        result = rho_power(cycle_graph(3), 6, "laplacian")
        assert TWO_SQRT3 - 1e-8 <= result.value <= 4.0 - 1e-6

    def test_square_k4_bipartite_chain(self):
        g = cycle_graph(4)
        result = rho_power(g, 4, "laplacian")
        assert result.value == pytest.approx(4.0, abs=1e-8)
        assert result.value == pytest.approx(lambda_max_laplacian(g, 4), abs=1e-8)

    def test_monotone_upper_bound(self):
        # every reduced-matrix radius stays below the signless radius
        from hyperspec.graphs import connected_subsets

        g = cycle_graph(3)
        rho_q = 4.0
        for subset in connected_subsets(g, 3):
            for phases in phase_classes(len(subset), 6):
                m = reduced_matrix(g, 6, subset, phases, "laplacian")
                assert spectral_radius(m) <= rho_q + 1e-9

    def test_budget_flagged(self):
        result = rho_power(cycle_graph(3), 4, "laplacian", budget=2)
        assert not result.complete

    def test_bipartite_spectrum_max_real_matches_lambda_max(self):
        g = cycle_graph(4)
        spec = spectrum_power(g, 4, "laplacian")
        max_real = max(spec.spectrum.real_values())
        rho_q = max(np.linalg.eigvalsh(g.signless_laplacian_matrix()))
        assert max_real == pytest.approx(lambda_max_laplacian(g, 4), abs=1e-8)
        assert max_real == pytest.approx(rho_q, abs=1e-8)

    def test_witness_achieves_value(self):
        result = rho_power(cycle_graph(3), 6, "laplacian")
        m = reduced_matrix(
            cycle_graph(3),
            6,
            result.witness.subset,
            result.witness.phase.phases,
            "laplacian",
        )
        assert spectral_radius(m) == pytest.approx(result.value, abs=1e-9)
        assert abs(result.witness.eigenvalue) == pytest.approx(result.value, abs=1e-9)
        # the nonnegative-imaginary preference applies only when the winning
        # matrix offers a choice at the top modulus
        top = [
            p.value
            for p in eig_complex_pairs(m)
            if abs(p.value) >= result.value - 1e-9 * max(1.0, result.value)
        ]
        if any(v.imag >= 0 for v in top):
            assert result.witness.eigenvalue.imag >= 0

    def test_conjugate_tie_prefers_nonnegative_imaginary(self):
        result = rho_power(cycle_graph(3), 4, "adjacency")
        # adjacency reduction peaks at 2 with real witnesses; force a complex
        # tie through a single phased matrix instead
        m = reduced_matrix(cycle_graph(3), 4, (0, 1, 2), (0, 0, 1), "laplacian")
        pairs = eig_complex_pairs(m)
        top = max(abs(p.value) for p in pairs)
        tied = [p.value for p in pairs if abs(p.value) >= top - 1e-9]
        if len(tied) > 1 and any(v.imag > 0 for v in tied):
            # mirrors the selection inside rho_power
            nonneg = [v for v in tied if v.imag >= 0]
            pick = min(nonneg, key=lambda v: (v.real, v.imag))
            assert pick.imag >= 0
        assert result.value == pytest.approx(2.0, abs=1e-8)


class TestUniformPhaseMatrix:
    def test_k6_circulant(self):
        m = uniform_phase_matrix(cycle_graph(3), 6)
        want = 2 * np.eye(3) - np.exp(2j * np.pi / 3) * cycle_graph(3).adjacency_matrix()
        assert np.allclose(m, want)
        assert spectral_radius(m) == pytest.approx(TWO_SQRT3, abs=1e-9)

    def test_k10_circulant(self):
        m = uniform_phase_matrix(cycle_graph(3), 10)
        assert spectral_radius(m) == pytest.approx(3.8042261, abs=1e-6)

    def test_gap_strictly_decreasing(self):
        gaps = [
            4.0 - spectral_radius(uniform_phase_matrix(cycle_graph(3), k))
            for k in (6, 10, 14)
        ]
        assert gaps[0] > gaps[1] > gaps[2] > 0

    def test_equals_enumerated_reduced_matrix(self):
        g = cycle_graph(3)
        for k in (6, 10):
            level = (k - 2) // 4
            m = reduced_matrix(g, k, (0, 1, 2), (level,) * 3, "laplacian")
            assert np.allclose(m, uniform_phase_matrix(g, k))

    def test_rejects_wrong_k(self):
        with pytest.raises(ValueError):
            uniform_phase_matrix(cycle_graph(3), 8)
        with pytest.raises(ValueError):
            uniform_phase_matrix(cycle_graph(3), 7)


class TestLiftConsistency:
    def test_sampled_witnesses_lift_to_tensor_eigenvectors(self):
        from hyperspec.hypergraphs import generalized_power
        from hyperspec.tensors import TensorOperator, eig_residual, lift_phase

        g = cycle_graph(3)
        k = 4
        report = spectrum_power(g, k, "laplacian")
        h, _ = generalized_power(g, k, 2)
        op = TensorOperator(h, "laplacian")
        for value, witness in zip(report.values, report.witnesses):
            m = reduced_matrix(g, k, witness.subset, witness.phase.phases, "laplacian")
            pairs = eig_complex_pairs(m)
            best = min(pairs, key=lambda p: abs(p.value - witness.eigenvalue))
            y = lift_phase(
                g, k, witness.subset, witness.phase.phases, best.value, best.vector
            )
            assert eig_residual(op, best.value, y) <= 1e-8


class TestCompleteGraphIntegration:
    def test_k4_eighth_power_end_to_end(self):
        from hyperspec.graphs import complete_graph
        from hyperspec.linalg import eig_complex_pairs as pairs_of
        from hyperspec.tensors import TensorOperator, eig_residual, lift_phase
        from hyperspec.hypergraphs import generalized_power

        g = complete_graph(4)
        result = rho_power(g, 8, "laplacian")
        # 3-regular base, k divisible by 4: radius equals the signless bound 6
        assert result.value == pytest.approx(6.0, abs=1e-8)
        assert result.witness.subset == (0, 1, 2, 3)
        assert result.witness.phase.phases == (2, 2, 2, 2)
        assert lambda_max_laplacian(g, 8) == pytest.approx(4.0, abs=1e-10)
        hsp = h_spectrum_power(g, 8, "laplacian")
        assert np.allclose(
            sorted(hsp.spectrum.real_values()), [0.0, 1.0, 2.0, 3.0, 4.0], atol=1e-9
        )
        # the witness lifts to a certified tensor eigenvector
        m = reduced_matrix(g, 8, result.witness.subset, result.witness.phase.phases)
        best = max(pairs_of(m), key=lambda p: abs(p.value))
        lifted = lift_phase(
            g, 8, result.witness.subset, result.witness.phase.phases,
            best.value, best.vector,
        )
        h, _ = generalized_power(g, 8, 4)
        assert eig_residual(TensorOperator(h, "laplacian"), best.value, lifted) <= 1e-8


class TestKindNames:
    def test_normalization(self):
        assert normalize_kind("L") == "laplacian"
        assert normalize_kind("adjacency") == "adjacency"
        assert normalize_kind("Q") == "signless"
        with pytest.raises(ValueError):
            normalize_kind("X")

    def test_phase_assignment_validation(self):
        with pytest.raises(ValueError):
            PhaseAssignment(4, (4,))
        with pytest.raises(ValueError):
            PhaseAssignment(5, (0,))

    def test_witness_json(self):
        w = ReductionWitness((0, 1), PhaseAssignment(4, (1, 0)), "laplacian", 2 + 1j)
        d = w.to_json_dict()
        assert d["subset"] == [0, 1]
        assert d["phases"] == [1, 0]
        assert d["kind"] == "L"
        assert d["eigenvalue"] == [2.0, 1.0]


def _one_matrix_at_a_time(g, k, kind, max_subset=8, budget=10**6, tie_tol=1e-9):
    """spectrum_power, h_spectrum_power and rho_power JSON, rebuilt one matrix
    at a time from reduced_matrix and the one-matrix solvers: no stacks, no
    chi classes and no pruning.  Each matrix's eigenvalues are merged by the
    multiplicities of its own chi, as ``_charpoly.group_rows`` merges them.
    The budget takes matrices in subset order, as planned."""
    values, witnesses, entries = [], [], []
    h_values, h_witnesses, h_used = [], [], 0
    complete = h_complete = g.vertex_count <= max_subset
    for subset in connected_subsets(g, min(g.vertex_count, max_subset)):
        identity = PhaseAssignment(k, (0,) * len(subset))
        if h_used == budget:
            h_complete = False
        else:
            h_used += 1
            matrix = reduced_matrix(g, k, subset, identity.phases, kind).real
            for p in eig_real_symmetric(matrix):
                h_values.append(p.value)
                h_witnesses.append(ReductionWitness(subset, identity, kind, p.value))
        for phases in phase_classes(len(subset), k):
            if len(entries) == budget:
                complete = False
                break
            pairs = eig_complex_pairs(reduced_matrix(g, k, subset, phases, kind))
            merged = _merged(g, k, kind, subset, phases, [p.value for p in pairs]).tolist()
            assign = PhaseAssignment(k, phases)
            for value in merged:
                values.append(value)
                witnesses.append(ReductionWitness(subset, assign, kind, value))
            top = max(abs(v) for v in merged)
            near = [v for v in merged if abs(v) >= top - tie_tol * max(1.0, top)]
            pick = min([v for v in near if v.imag >= 0] or near, key=lambda v: (v.real, v.imag))
            entries.append((top, ReductionWitness(subset, assign, kind, pick)))
    used = len(entries)
    spectrum = _spectrum_payload(kind, k, values, witnesses, complete, used)
    h_spectrum = _spectrum_payload(kind, k, h_values, h_witnesses, h_complete, h_used)
    top = max(t for t, _ in entries)
    tied = [w for t, w in entries if t >= top - tie_tol * max(1.0, top)]
    witness = min(tied, key=lambda w: (len(w.subset), w.subset, w.phase.phases))
    rho = RhoResult(top, witness, complete, used)
    return spectrum, h_spectrum, rho.to_json_dict()


def _spectrum_payload(kind, k, values, witnesses, complete, used):
    """The JSON of a spectrum report, written out from its dedup's sources
    and the one-value witnesses, not through SpectrumReport."""
    s = SpectrumSet(values)
    return {
        "kind": KIND_LETTER[kind],
        "k": k,
        "values": [[v.real, v.imag] for v in s.values],
        "witnesses": [witnesses[i].to_json_dict() for i in s.sources.tolist()],
        "complete": complete,
        "budget_used": used,
    }


def _canonical(payload):
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def assert_same_spectrum(got, want):
    """Spectrum payloads with the same values, within 1e-10 of the scale, and
    the same witness matrix for each value.

    A value of ``got`` is the mean of its chi class representative's group,
    and of ``want`` the mean over every matrix that has it, so the two agree
    to rounding, not bit for bit; the witness is in both the earliest planned
    matrix with the value.
    """
    assert {key: got[key] for key in ("kind", "k", "complete", "budget_used")} == {
        key: want[key] for key in ("kind", "k", "complete", "budget_used")
    }
    ours, theirs = (np.array([complex(*v) for v in p["values"]]) for p in (got, want))
    assert len(ours) == len(theirs)
    if not len(ours):
        return
    scale = max(1.0, float(np.abs(theirs).max()))
    match = np.abs(ours[:, None] - theirs[None, :]).argmin(axis=1)
    assert sorted(match.tolist()) == list(range(len(theirs)))
    assert np.abs(ours - theirs[match]).max() <= 1e-10 * scale
    for mine, j in zip(got["witnesses"], match.tolist()):
        other = want["witnesses"][j]
        assert (mine["subset"], mine["phases"]) == (other["subset"], other["phases"])
        assert abs(complex(*mine["eigenvalue"]) - theirs[j]) <= 1e-10 * scale


class TestBatchedEngine:
    @pytest.mark.parametrize("kind", ["adjacency", "laplacian", "signless"])
    @pytest.mark.parametrize("k", [4, 6, 8])
    @pytest.mark.parametrize(
        "g", [cycle_graph(3), cycle_graph(5), complete_graph(4)], ids=["C3", "C5", "K4"]
    )
    def test_matches_one_matrix_at_a_time(self, g, k, kind):
        spectrum, _, rho = _one_matrix_at_a_time(g, k, kind)
        assert_same_spectrum(spectrum_power(g, k, kind).to_json_dict(), spectrum)
        assert _canonical(rho_power(g, k, kind).to_json_dict()) == _canonical(rho)

    @pytest.mark.parametrize("compute", [spectrum_power, h_spectrum_power, rho_power])
    def test_convergence_error_names_its_witness(self, compute, monkeypatch):
        monkeypatch.setattr(linalg, "BACKWARD_ERROR_TOL", 0.0)
        monkeypatch.setattr(linalg, "SYMMETRIC_RESIDUAL_TOL", 0.0)
        g = cycle_graph(3)
        with pytest.raises(ConvergenceError) as info:
            compute(g, 4, "laplacian")
        found = re.search(r"subset (\(.*?\)), phases (\(.*?\))$", str(info.value))
        assert found, str(info.value)
        subset, phases = (ast.literal_eval(group) for group in found.groups())
        assert subset in set(connected_subsets(g, 3))
        assert len(phases) == len(subset) and all(0 <= p < 2 for p in phases)
        if compute is not h_spectrum_power:
            with pytest.raises(ConvergenceError):
                eig_complex_pairs(reduced_matrix(g, 4, subset, phases))


def _petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return LoopedGraph(10, outer + spokes + inner)


# the oracle solves every planned matrix one at a time, so at default
# settings the vertex count is capped per k to stay near 4000 matrices
_ORACLE_VERTICES = {4: 6, 6: 6, 8: 5, 10: 4, 12: 4}


@st.composite
def connected_graphs(draw, max_vertices):
    """A random labelled spanning tree plus random further edges."""
    n = draw(st.integers(2, max_vertices))
    label = draw(st.permutations(range(n)))
    tree = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    extra = {
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if (u, v) not in tree and draw(st.booleans())
    }
    return LoopedGraph(n, [(label[u], label[v]) for u, v in sorted(tree | extra)])


def _count_solved_rows(monkeypatch, solver="eigvals_complex_stack"):
    """Route reduction's calls of ``solver``, by default its values-only
    complex solves, through a counter of solved rows."""
    rows = []
    solve = getattr(reduction, solver)

    def counting(ms, *args, **kwargs):
        rows.append(len(ms))
        return solve(ms, *args, **kwargs)

    monkeypatch.setattr(reduction, solver, counting)
    return rows


def _record_class_bounds(monkeypatch, overflow=False):
    """Record every per-class bound array of rho_power; with ``overflow`` the
    first class of each subset gets +inf, as an overflowing M^8 would."""
    bounded = []
    compute = reduction._gelfand_bounds

    def recording(*args, **kwargs):
        bounds = compute(*args, **kwargs)
        if overflow:
            bounds[0] = np.inf
        bounded.append(bounds)
        return bounds

    monkeypatch.setattr(reduction, "_gelfand_bounds", recording)
    return bounded


class TestPrunedAndStackedSolves:
    @pytest.mark.parametrize("k", [4, 6, 8, 10, 12])
    @pytest.mark.parametrize("setting", ["default", "budget", "max_subset"])
    @settings(max_examples=6)
    @given(data=st.data())
    def test_rho_and_h_spectrum_match_the_unpruned_oracle(self, k, setting, data):
        max_vertices = _ORACLE_VERTICES[k] if setting == "default" else 6
        g = data.draw(connected_graphs(max_vertices), label="graph")
        kind = data.draw(st.sampled_from(["adjacency", "laplacian", "signless"]))
        options = {}
        if setting == "budget":
            options["budget"] = data.draw(st.integers(1, 300), label="budget")
        elif setting == "max_subset":
            options["max_subset"] = data.draw(st.integers(1, 3), label="max_subset")
        # wide tie bands make the witness depend on subsets below the maximum
        tie_tol = data.draw(st.sampled_from([1e-9, 0.05, 0.5]), label="tie_tol")
        spectrum, h_spectrum, rho = _one_matrix_at_a_time(
            g, k, kind, tie_tol=tie_tol, **options
        )
        # budgets truncate last subsets, and some stacks hold class 0 alone
        got = spectrum_power(g, k, kind, **options).to_json_dict()
        got_h = h_spectrum_power(g, k, kind, **options).to_json_dict()
        with patch.object(reduction, "TIE_TOL", tie_tol):
            got_rho = rho_power(g, k, kind, **options).to_json_dict()
        assert_same_spectrum(got, spectrum)
        assert _canonical(got_h) == _canonical(h_spectrum)
        assert _canonical(got_rho) == _canonical(rho)

    def test_rho_solves_only_subsets_that_can_reach_the_maximum(self, monkeypatch):
        rows = _count_solved_rows(monkeypatch)
        result = rho_power(cycle_graph(5), 8, "laplacian")
        # rho = rho(Q) = 4 is reached on the whole cycle; every proper subset
        # is a path with majorant 2 + 2 cos(pi / (|U| + 1)) < 4, and of the
        # cycle's 1024 classes only the top-bound one can reach 4
        assert result.value == pytest.approx(4.0, abs=1e-9)
        assert sum(rows) == 1
        assert result.budget_used == 2724 and result.complete

    @pytest.mark.parametrize(
        "g, k, solved",
        [(complete_graph(4), 12, 1), (complete_graph(5), 6, 32)],
        ids=["K4-k12", "K5-k6"],
    )
    def test_rho_solves_only_classes_that_can_reach_the_maximum(
        self, monkeypatch, g, k, solved
    ):
        rows = _count_solved_rows(monkeypatch)
        rho_power(g, k, "laplacian")
        assert sum(rows) == solved

    def test_uncertified_majorants_prune_nothing(self, monkeypatch):
        g = complete_graph(4)
        want = rho_power(g, 6, "laplacian").to_json_dict()
        bounded = _record_class_bounds(monkeypatch)

        def failing(ms, *args, **kwargs):
            raise ConvergenceError("uncertified", index=0)

        monkeypatch.setattr(reduction, "eig_real_symmetric_stack", failing)
        got = rho_power(g, 6, "laplacian").to_json_dict()
        assert _canonical(got) == _canonical(want)
        # no subset was pruned: every planned class got its bound
        assert sum(len(bounds) for bounds in bounded) == got["budget_used"]

    def test_infinite_class_bounds_prune_nothing_in_their_subset(self, monkeypatch):
        g = cycle_graph(5)
        want = rho_power(g, 8, "laplacian").to_json_dict()
        rows = _count_solved_rows(monkeypatch)
        bounded = _record_class_bounds(monkeypatch, overflow=True)
        got = rho_power(g, 8, "laplacian").to_json_dict()
        assert _canonical(got) == _canonical(want)
        assert sum(rows) == sum(len(bounds) for bounds in bounded) == 1024

    def test_rho_stacks_split_at_the_entry_cap(self, monkeypatch):
        g = complete_graph(5)
        monkeypatch.setattr(reduction, "TIE_TOL", 0.05)
        whole = rho_power(g, 6, "laplacian").to_json_dict()
        shapes = []
        build = reduction._phased_matrices

        def recording(*args, **kwargs):
            stack = build(*args, **kwargs)
            shapes.append(stack.shape)
            return stack

        monkeypatch.setattr(reduction, "_STACK_ENTRIES", 100)
        monkeypatch.setattr(reduction, "_phased_matrices", recording)
        chunked = rho_power(g, 6, "laplacian").to_json_dict()
        assert _canonical(chunked) == _canonical(whole)
        assert all(n == 1 or n * s * s <= 100 for n, s, _ in shapes)
        assert any(n > 1 for n, _, _ in shapes) and len(shapes) > 100

    def test_spectrum_stacks_split_at_the_entry_cap(self, monkeypatch):
        g = complete_graph(5)
        whole = spectrum_power(g, 6, "laplacian").to_json_dict()
        shapes, residue_shapes = [], []

        def recording(build, shapes):
            def record(*args, **kwargs):
                stack = build(*args, **kwargs)
                shapes.append(stack.shape)
                return stack

            return record

        class Keys(_charpoly.Firsts):
            # the stacks of images mod p that key the planned matrices
            def __call__(self, stack):
                residue_shapes.append(stack.shape)
                return super().__call__(stack)

        monkeypatch.setattr(reduction, "_STACK_ENTRIES", 100)
        build = recording(reduction._phased_matrices, shapes)
        monkeypatch.setattr(reduction, "_phased_matrices", build)
        monkeypatch.setattr(_charpoly, "Firsts", Keys)
        solved = _count_solved_rows(monkeypatch)
        certified = _count_solved_rows(monkeypatch, "eig_complex_stack")
        chunked = spectrum_power(g, 6, "laplacian").to_json_dict()
        assert _canonical(chunked) == _canonical(whole)
        assert all(n == 1 or n * s * s <= 100 for n, s, _ in shapes)
        assert all(n == 1 or n * s * s <= 100 for _, n, s, _ in residue_shapes)
        # of the 1023 planned matrices, only the rows of one subset per size
        # get their images mod p: its gauge-orbit minima that no automorphism
        # lowers, the non-decreasing rows of S_s (1, 3, 10, 15 and 21 at
        # sizes 1 to 5), split into 1, 1, 1, 3 and 6 stacks; each class
        # representative is built once, and solved once with its eigenvectors
        assert chunked["budget_used"] == 1023
        assert sum(n for _, n, _, _ in residue_shapes) == 1 + 3 + 10 + 15 + 21 == 50
        assert sum(n for n, _, _ in shapes) == sum(certified) == 50 and not solved
        assert len(shapes) > 10 and len(residue_shapes) == 12

    def test_spectrum_solves_one_stack_per_subset_size(self, monkeypatch):
        g, k = cycle_graph(5), 8
        rows = _count_solved_rows(monkeypatch, "eig_complex_stack")
        report = spectrum_power(g, k, "laplacian")
        # 21 connected subsets in five sizes; each size's representatives fit
        # in one stack: one per chi class, 186 of the 2724 planned matrices
        assert len(list(connected_subsets(g, 5))) == 21
        assert len(rows) == 5 and sum(rows) == 186
        assert report.budget_used == 2724

    def test_identity_stacks_split_at_the_entry_cap(self, monkeypatch):
        g = _petersen()
        whole = h_spectrum_power(g, 4, "laplacian", max_subset=10).to_json_dict()
        shapes = []

        def recording(ms, *args, **kwargs):
            shapes.append(ms.shape)
            return eig_real_symmetric_stack(ms, *args, **kwargs)

        monkeypatch.setattr(reduction, "_STACK_ENTRIES", 100)
        monkeypatch.setattr(reduction, "eig_real_symmetric_stack", recording)
        chunked = h_spectrum_power(g, 4, "laplacian", max_subset=10).to_json_dict()
        assert _canonical(chunked) == _canonical(whole)
        assert all(n == 1 or n * s * s <= 100 for n, s, _ in shapes)
        assert sum(n for n, _, _ in shapes) == len(list(connected_subsets(g, 10)))
        assert len(shapes) > 10

    def test_petersen_h_spectrum_memory_is_bounded(self):
        g = _petersen()
        tracemalloc.start()
        try:
            report = h_spectrum_power(g, 4, "laplacian", max_subset=10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.complete and report.budget_used == 568
        # about 0.8 MiB when measured, most of it the witnesses and the dedup
        assert peak < 1.5 * 2**20


def _every_row(g, plan, k):
    """Every planned phase row, one block per planned subset: what the key
    pass would key without the orbit cuts."""
    return [(s, reduction._class_phases(len(s), k, range(quota))) for s, quota in plan]


def _every_row_representatives(g, k, kind, budget, max_subset=reduction.DEFAULT_MAX_SUBSET):
    """The chi class representatives of a key pass over every planned row,
    the oracle of the orbit cuts, as (subset, phases) in plan order."""
    plan, _, _ = reduction._plan_work(g, k, max_subset, budget)
    matrices = g.degree_vector(), g.adjacency_matrix()
    blocks = _every_row(g, plan, k)
    marks = reduction._solve_blocks(
        matrices, k, normalize_kind(kind), blocks, _charpoly.Firsts(k), _charpoly.residues
    )
    picked = _charpoly.representatives(blocks, *marks)
    return [(subset, tuple(row)) for subset, phases in picked for row in phases.tolist()]


def _assert_the_orbit_cut_changes_nothing(g, k, kind, budget, max_subset=reduction.DEFAULT_MAX_SUBSET):
    options = {"budget": budget, "max_subset": max_subset}
    with pytest.MonkeyPatch.context() as keys:
        picked = _record_representatives(keys)
        got = spectrum_power(g, k, kind, **options).to_json_dict()
        # the oracle keys every planned row
        keys.setattr(_orbits, "keyed_blocks", _every_row)
        want = spectrum_power(g, k, kind, **options).to_json_dict()
    assert picked[0] == picked[1] == _every_row_representatives(g, k, kind, **options)
    assert got == want


def _blocks_by_role(g, k):
    """The (start, quota) of each planned block at the default budget, in
    plan order, split into the leaders' blocks and the skipped ones."""
    plan, _, _ = reduction._plan_work(g, k, reduction.DEFAULT_MAX_SUBSET, 10**6)
    leaders = {subset for subset, _ in _orbits.keyed_blocks(g, plan, k)}
    roles, start = {True: [], False: []}, 0
    for subset, quota in plan:
        roles[subset in leaders].append((start, quota))
        start += quota
    return roles[True], roles[False]


class TestOrbitCut:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_the_cuts_keep_the_representatives(self, data):
        k = data.draw(st.sampled_from([4, 6, 8]), label="k")
        g = data.draw(connected_graphs(4 if k == 8 else 5), label="graph")
        kind = data.draw(st.sampled_from(["L", "Q", "A"]), label="kind")
        leaders, skipped = _blocks_by_role(g, k)
        # the budget ends inside a leader's block or a skipped one, as drawn
        role = data.draw(st.sampled_from(["leader", "skipped"]), label="role")
        blocks = [block for block in (leaders if role == "leader" else skipped) if block[1] > 1]
        if blocks:
            start, quota = data.draw(st.sampled_from(blocks), label="block")
            budget = start + data.draw(st.integers(1, quota - 1), label="rows")
        else:
            budget = 10**6
        _assert_the_orbit_cut_changes_nothing(g, k, kind, budget)

    # C6 at k = 8 plans 1364 matrices before the 4096 rows of its whole
    # cycle, of which the first 1024 are gauge-orbit minima: budgets end
    # inside that block, before and after its last minimum
    @pytest.mark.parametrize("budget", [1364 + 500, 1364 + 2000, 10**6])
    def test_a_cut_bipartite_block_keeps_its_representatives(self, budget):
        _assert_the_orbit_cut_changes_nothing(cycle_graph(6), 8, "L", budget)

    # each budget ends halfway through the last leader's block, or through
    # the largest skipped block
    @pytest.mark.parametrize("role", ["leader", "skipped"])
    @pytest.mark.parametrize(
        "g, k, kind",
        [(complete_graph(5), 6, "Q"), (cycle_graph(7), 6, "L"), (_petersen(), 4, "L")],
        ids=["K5-k6", "C7-k6", "Petersen-k4"],
    )
    def test_symmetric_bases_keep_their_representatives(self, g, k, kind, role):
        leaders, skipped = _blocks_by_role(g, k)
        start, quota = leaders[-1] if role == "leader" else max(skipped, key=lambda b: b[1])
        _assert_the_orbit_cut_changes_nothing(g, k, kind, start + quota // 2)

    def test_subsets_with_one_invariant_need_not_be_alike(self):
        # K3,3 on 0..5 and the triangular prism on 6..11, joined by the
        # matching u, u + 6: every vertex has base degree 4 and degree 3
        # inside either half, so the halves share their labels (and the
        # invariant), but only K3,3 is bipartite; each half is a leader
        k33 = [(u, v) for u in (0, 1, 2) for v in (3, 4, 5)]
        prism = [(6, 7), (7, 8), (6, 8), (9, 10), (10, 11), (9, 11), (6, 9), (7, 10), (8, 11)]
        g = LoopedGraph(12, k33 + prism + [(u, u + 6) for u in range(6)])
        plan, _, _ = reduction._plan_work(g, 4, 6, 10**6)
        leaders = {subset for subset, _ in _orbits.keyed_blocks(g, plan, 4)}
        assert {tuple(range(6)), tuple(range(6, 12))} <= leaders
        _assert_the_orbit_cut_changes_nothing(g, 4, "L", 10**6, max_subset=6)

    @pytest.mark.parametrize(
        "g, k, planned, keyed",
        [
            (cycle_graph(5), 4, 182, 22),
            (cycle_graph(5), 8, 2724, 220),
            (cycle_graph(7), 6, 9831, 525),
            (complete_graph(4), 8, 624, 60),
            (complete_graph(5), 6, 1023, 50),
        ],
        ids=["C5-k4", "C5-k8", "C7-k6", "K4-k8", "K5-k6"],
    )
    def test_keyed_rows_of_the_ladder_graphs(self, g, k, planned, keyed):
        plan, _, used = reduction._plan_work(g, k, reduction.DEFAULT_MAX_SUBSET, 10**6)
        assert used == planned
        assert sum(len(phases) for _, phases in _orbits.keyed_blocks(g, plan, k)) == keyed

    def test_a_complete_graph_keys_its_non_decreasing_rows(self):
        # Aut is S_s on every subset of K_n: one leader per size, whose rows
        # with l_0 = 0 (the gauge cut, at s <= 2) or all its rows, cut to
        # the non-decreasing ones
        g, k = complete_graph(5), 6
        plan, _, _ = reduction._plan_work(g, k, reduction.DEFAULT_MAX_SUBSET, 10**6)
        blocks = _orbits.keyed_blocks(g, plan, k)
        assert [subset for subset, _ in blocks] == [(0,), (0, 1), (0, 1, 2), (0, 1, 2, 3), (0, 1, 2, 3, 4)]
        for subset, phases in blocks:
            rows = reduction._class_phases(len(subset), k, range((k // 2) ** len(subset)))
            rows = rows[(np.diff(rows, axis=1) >= 0).all(axis=1)]
            if len(subset) <= 2:
                rows = rows[rows[:, 0] == 0]
            assert phases.tolist() == rows.tolist()


def test_the_enumeration_leaves_no_reference_cycles():
    # cyclic garbage lives until the cycle collector runs, so it holds memory
    # that reference counting would free at once
    g = cycle_graph(5)
    gc.collect()
    gc.disable()
    try:
        list(connected_subsets(g, 5))
        spectrum_power(g, 4)
        h_spectrum_power(g, 4)
        rho_power(g, 4)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_c7_sixth_power_spectrum_memory_is_bounded():
    # the phases of the 525 keyed of the 9831 planned matrices as int8, one
    # class mark per keyed matrix and bounded scratch in every stage: about
    # 0.83 MiB when measured, set by the eigenpair solve of the
    # representatives
    g = cycle_graph(7)
    spectrum_power(g, 6)
    tracemalloc.start()
    try:
        report = spectrum_power(g, 6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(report.values) == 2098 and report.budget_used == 9831
    assert peak < 5 * 2**20


def _planned(g, k):
    """Every planned (subset, phases) at default settings, in plan order."""
    return [
        (subset, phases)
        for subset in connected_subsets(g, g.vertex_count)
        for phases in phase_classes(len(subset), k)
    ]


def _named_matrix(error):
    """The (subset, phases) that a ConvergenceError message names."""
    found = re.search(r"subset (\(.*?\)), phases (\(.*?\))$", str(error))
    assert found, str(error)
    return tuple(ast.literal_eval(group) for group in found.groups())


def _values_by_matrix(table):
    """The eigenvalues of a witness table, by (subset, phases) of their matrix."""
    keys = table.matrix_keys()
    rows = {key: [] for key in keys}
    for j, value in zip(table.matrix.tolist(), table.eigenvalues.tolist()):
        rows[keys[j]].append(value)
    return rows


def _merged(g, k, kind, subset, phases, values):
    """The values of one matrix merged by the multiplicities of its chi."""
    matrices = g.degree_vector(), g.adjacency_matrix()
    block = [(subset, np.array([phases]))]
    return _charpoly.group_rows(matrices, k, kind, block, np.array(values, dtype=complex))[0]


def _record_representatives(monkeypatch):
    """The (subset, phases) of every chi class representative that
    ``_charpoly.representatives`` picks, in its order, one list per call."""
    picked = []
    pick = _charpoly.representatives

    def recording(*args):
        blocks = pick(*args)
        picked.append([(subset, tuple(row)) for subset, phases in blocks for row in phases.tolist()])
        return blocks

    monkeypatch.setattr(_charpoly, "representatives", recording)
    return picked


def _hex(values):
    return [(complex(z).real.hex(), complex(z).imag.hex()) for z in values]


def _fail_in_stack(monkeypatch, solver, size, stack, row):
    """Make reduction's ``solver`` raise ConvergenceError(index=row) on its
    call number ``stack`` (from 0) among stacks of ``size`` x ``size``
    matrices; returns the lengths of those stacks, in call order."""
    solve = getattr(reduction, solver)
    lengths = []

    def failing(ms, *args, **kwargs):
        if ms.shape[1] == size:
            lengths.append(len(ms))
            if len(lengths) == stack + 1:
                raise ConvergenceError("injected", index=row)
        return solve(ms, *args, **kwargs)

    monkeypatch.setattr(reduction, solver, failing)
    return lengths


class TestWitnessTable:
    @pytest.mark.parametrize(
        "compute, graph, k, kind, options",
        [
            (spectrum_power, cycle_graph(5), 8, "L", {}),
            (spectrum_power, cycle_graph(5), 8, "Q", {}),
            (spectrum_power, complete_graph(4), 8, "L", {}),
            (h_spectrum_power, _petersen(), 4, "L", {"max_subset": 10}),
        ],
        ids=["C5-k8-L", "C5-k8-Q", "K4-k8-L", "Petersen-k4-H"],
    )
    def test_json_and_object_witnesses_agree(self, compute, graph, k, kind, options):
        report = compute(graph, k, kind, **options)
        table = report.witnesses
        witnesses = list(table)
        assert len(table) == len(witnesses) == len(report.values)
        assert report.to_json_dict()["witnesses"] == [w.to_json_dict() for w in witnesses]
        # one block per subset with a witness, holding its witness matrices once
        keys = table.matrix_keys()
        assert len(keys) == len(set(keys)) == len({(w.subset, w.phase.phases) for w in witnesses})
        assert len(table.blocks) == len({subset for subset, _ in keys})
        if compute is h_spectrum_power:
            assert all(not any(w.phase.phases) for w in witnesses)

    def test_a_spectrum_set_carries_no_witnesses(self):
        # the report holds the witnesses; the dedup only names its sources
        assert list(inspect.signature(SpectrumSet).parameters) == ["values", "dedup_tol"]
        assert not hasattr(SpectrumSet([2.0, 1.0]), "witnesses")


class TestFailedRowsAreNamed:
    # a stack of a size group of several subsets fails at its second row, so
    # an error in the row offsets names another matrix

    def test_a_failed_identity_solve_names_its_subset(self, monkeypatch):
        g = complete_graph(6)
        # four 3 x 3 matrices per stack
        monkeypatch.setattr(reduction, "_STACK_ENTRIES", 40)
        lengths = _fail_in_stack(monkeypatch, "eig_real_symmetric_stack", 3, 2, 1)
        with pytest.raises(ConvergenceError, match="^injected at ") as info:
            h_spectrum_power(g, 4, "laplacian")
        group = [subset for subset in connected_subsets(g, 6) if len(subset) == 3]
        assert lengths == [4, 4, 4] and len(group) == 20
        assert _named_matrix(info.value) == (group[9], (0, 0, 0))

    def test_a_failed_certificate_names_its_matrix(self, monkeypatch):
        # a triangle with a pendant vertex: its 3-vertex subsets are not all
        # alike, so their representatives come from two subsets
        g, k = LoopedGraph(4, [(0, 1), (1, 2), (0, 2), (2, 3)]), 6
        reported = _record_representatives(monkeypatch)
        # five 3 x 3 matrices per stack; the representatives, each solved
        # once with its certified pairs, come in plan order, and the first
        # subset of size 3 has 18, so the fourth stack is the first that
        # spans two subsets
        monkeypatch.setattr(reduction, "_STACK_ENTRIES", 50)
        lengths = _fail_in_stack(monkeypatch, "eig_complex_stack", 3, 3, 1)
        with pytest.raises(ConvergenceError, match="^injected at ") as info:
            spectrum_power(g, k, "laplacian")
        (keys,) = reported
        group = [key for key in keys if len(key[0]) == 3]
        assert lengths == [5, 5, 5, 5]
        assert len({subset for subset, _ in group[15:20]}) > 1
        assert _named_matrix(info.value) == group[16]


class TestCertifiedWitnesses:
    def test_every_representative_is_certified(self, monkeypatch):
        g, k = cycle_graph(5), 8
        solved = _count_solved_rows(monkeypatch)
        certified = _count_solved_rows(monkeypatch, "eig_complex_stack")
        report = spectrum_power(g, k, "laplacian")
        witnesses = list(report.witnesses)
        matrices = {(w.subset, w.phase.phases) for w in witnesses}
        # one certified solve per chi class and no values-only solve; all but
        # one class witness a value
        assert not solved and sum(certified) == 186 and report.budget_used == 2724
        assert len(matrices) == 185
        for w in witnesses:
            pairs = eig_complex_pairs(reduced_matrix(g, k, w.subset, w.phase.phases))
            assert all(p.residual <= 1e-9 for p in pairs)
            # a certified eigenvalue, or the mean of a group of them
            merged = _merged(g, k, "laplacian", w.subset, w.phase.phases, [p.value for p in pairs])
            assert _hex([w.eigenvalue])[0] in _hex(merged)

    def test_the_representatives_are_certified_in_one_stack_per_size(self, monkeypatch):
        g, k = cycle_graph(5), 8
        stacks, solved = [], []

        def recording(solve, into):
            def record(ms):
                into.append(ms.copy())
                return solve(ms)

            return record

        for name, into in (("eig_complex_stack", stacks), ("eigvals_complex_stack", solved)):
            monkeypatch.setattr(reduction, name, recording(getattr(reduction, name), into))
        picked = _record_representatives(monkeypatch)
        report = spectrum_power(g, k, "laplacian")
        keys = {(w.subset, w.phase.phases) for w in report.witnesses}
        sizes = [len(ms[0]) for ms in stacks]
        assert sum(len(ms) for ms in stacks) == 186 and len(keys) == 185 and not solved
        assert sorted(sizes) == sorted(set(sizes)) == [1, 2, 3, 4, 5]

        def content(m):
            # +0.0 turns -0.0 into 0.0, so equal matrices give equal bytes
            return (np.asarray(m, dtype=complex) + 0.0).tobytes()

        # the certified stacks hold the representatives, each once
        (representatives,) = picked
        certified = sorted(content(m) for ms in stacks for m in ms)
        assert certified == sorted(content(reduced_matrix(g, k, *key)) for key in representatives)
        assert {content(reduced_matrix(g, k, *key)) for key in keys} <= set(certified)

    def test_every_tied_rho_row_is_certified(self, monkeypatch):
        g, k, tie_tol = complete_graph(4), 6, 0.05
        monkeypatch.setattr(reduction, "TIE_TOL", tie_tol)
        certified = _count_solved_rows(monkeypatch, "eig_complex_stack")
        reported = []
        certify = reduction._certify

        def recording(matrices, table):
            reported.append(_values_by_matrix(table))
            return certify(matrices, table)

        monkeypatch.setattr(reduction, "_certify", recording)
        result = rho_power(g, k, "laplacian")
        # tied: every planned matrix whose top modulus reaches the final threshold
        threshold = result.value - tie_tol * max(1.0, result.value)
        tied = {}
        for subset, phases in _planned(g, k):
            pairs = eig_complex_pairs(reduced_matrix(g, k, subset, phases))
            if max(abs(p.value) for p in pairs) >= threshold:
                tied[(subset, phases)] = pairs
        (rows,) = reported
        assert rows.keys() == tied.keys()
        assert sum(certified) == len(tied) > 1
        for key, pairs in tied.items():
            assert _hex(rows[key]) == _hex(p.value for p in pairs)
            assert all(p.residual <= 1e-9 for p in pairs)

    def test_a_wrong_reported_spectrum_value_is_caught(self, monkeypatch):
        g, k = cycle_graph(5), 8
        # a witness matrix with five distinct eigenvalues, so no group
        for w in list(spectrum_power(g, k, "laplacian").witnesses)[500:]:
            subset, phases = w.subset, w.phase.phases
            matrix = reduced_matrix(g, k, subset, phases)
            pairs = eig_complex_pairs(matrix)
            merged = _merged(g, k, "L", subset, phases, [p.value for p in pairs])
            if len(subset) == len(merged) == 5:
                break
        split = linalg.split_solve
        moved = []

        def moving(solve, ms):
            # the target is found by content, wherever its stack puts it, and
            # the first value that LAPACK's eig returns for it moves
            out = split(solve, ms)
            if solve is np.linalg.eig and ms.shape[1:] == matrix.shape:
                hit = (ms == matrix).all(axis=(1, 2))
                original = out[0][hit, 0].tolist()
                out[0][hit, 0] += 1e-6
                moved.extend(zip(original, out[0][hit, 0].tolist()))
            return out

        monkeypatch.setattr(linalg, "split_solve", moving)
        with monkeypatch.context() as uncertified:
            uncertified.setattr(linalg, "BACKWARD_ERROR_TOL", np.inf)
            report = spectrum_power(g, k, "laplacian")
        # the moved value is emitted on its own, witnessed by its matrix
        ((original, value),) = moved
        assert original in [p.value for p in pairs]
        w = list(report.witnesses)[report.values.index(value)]
        assert (w.subset, w.phase.phases, w.eigenvalue) == (subset, phases, value)
        with pytest.raises(ConvergenceError, match="residual .* exceeds 1e-9") as info:
            spectrum_power(g, k, "laplacian")
        assert _named_matrix(info.value) == (subset, phases)

    def test_a_last_bit_difference_is_still_certified(self, monkeypatch):
        # a LAPACK build whose eigvals and eig differ in the last bit must not
        # turn every reported value into a certificate failure
        solve = reduction.eigvals_complex_stack

        def nudging(ms):
            values = solve(ms)
            return np.nextafter(values.real, np.inf) + 1j * values.imag

        monkeypatch.setattr(reduction, "eigvals_complex_stack", nudging)
        # (spectra solve with eig alone, so only rho_power compares the bits)
        assert rho_power(cycle_graph(5), 8, "laplacian").value > 0

    @pytest.mark.parametrize(
        "g, k", [(cycle_graph(5), 8), (complete_graph(4), 12)], ids=["C5-k8", "K4-k12"]
    )
    def test_a_pushed_up_rho_row_is_caught(self, monkeypatch, g, k):
        want = rho_power(g, k, "laplacian").witness
        solve = reduction.eigvals_complex_stack

        def pushing(ms):
            values = solve(ms)
            values[np.argmax(np.abs(values).max(axis=1))] *= 1 + 1e-6
            return values

        monkeypatch.setattr(reduction, "eigvals_complex_stack", pushing)
        with pytest.raises(ConvergenceError, match="not a certified eigenvalue") as info:
            rho_power(g, k, "laplacian")
        assert _named_matrix(info.value) == (want.subset, want.phase.phases)
