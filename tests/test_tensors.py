import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperspec.graphs import LoopedGraph, cycle_graph, path_graph
from hyperspec.gauge import build_similarity_system, solve_mod_m
from hyperspec.hypergraphs import Hypergraph, generalized_power
from hyperspec.linalg import ConvergenceError, eig_real_symmetric, power_iteration_nonneg
from hyperspec.reduction import reduced_matrix
from hyperspec.tensors import (
    Gauge,
    TensorOperator,
    eig_residual,
    lift_perron,
    lift_phase,
    lift_real,
    nqz_power_iteration,
    rotate_signless_to_laplacian,
    verify_diagonal_similarity,
)


def dense_tensor_apply(h, kind, x):
    """Oracle: materialize the k-way array and contract it against x.

    Entry 1/(k-1)! sits on every permutation of every full edge; loop edges
    only reach the diagonal through degrees.
    """
    n, k = h.vertex_count, h.k
    t = np.zeros((n,) * k, dtype=complex)
    for e in h.full_edges:
        for perm in itertools.permutations(e):
            t[perm] += 1.0 / math.factorial(k - 1)
    sign = {"adjacency": 1.0, "laplacian": -1.0, "signless": 1.0}[kind]
    diag = 0.0 if kind == "adjacency" else 1.0
    y = np.zeros(n, dtype=complex)
    for v in range(n):
        block = sign * t[v]
        for _ in range(k - 1):
            block = block @ x
        y[v] = block + diag * h.degree(v) * x[v] ** (k - 1)
    return y


class TestTensorApply:
    def test_matches_dense_oracle_on_triangle_power(self):
        h, _ = generalized_power(cycle_graph(3), 4, 2)
        rng = np.random.default_rng(0)
        for kind in ("adjacency", "laplacian", "signless"):
            op = TensorOperator(h, kind)
            for _ in range(5):
                x = rng.normal(size=6) + 1j * rng.normal(size=6)
                assert np.allclose(op.apply(x), dense_tensor_apply(h, kind, x))

    def test_matches_dense_oracle_single_edge(self):
        h = Hypergraph(4, 4, [(0, 1, 2, 3)])
        rng = np.random.default_rng(1)
        x = rng.normal(size=4) + 1j * rng.normal(size=4)
        for kind in ("adjacency", "laplacian", "signless"):
            op = TensorOperator(h, kind)
            assert np.allclose(op.apply(x), dense_tensor_apply(h, kind, x))

    def test_matches_dense_oracle_with_loop_edges(self):
        h = Hypergraph(4, 4, [(0, 1, 2, 3), (0, 1), (0, 1)])
        rng = np.random.default_rng(2)
        x = rng.normal(size=4) + 1j * rng.normal(size=4)
        for kind in ("laplacian", "signless"):
            op = TensorOperator(h, kind)
            assert np.allclose(op.apply(x), dense_tensor_apply(h, kind, x))

    def test_matches_dense_oracle_three_uniform(self):
        h = Hypergraph(4, 3, [(0, 1, 2), (1, 2, 3)])
        rng = np.random.default_rng(3)
        x = rng.normal(size=4) + 1j * rng.normal(size=4)
        op = TensorOperator(h, "laplacian")
        assert np.allclose(op.apply(x), dense_tensor_apply(h, "laplacian", x))

    def test_laplacian_annihilates_ones(self):
        h, _ = generalized_power(cycle_graph(3), 4, 2)
        out = TensorOperator(h, "laplacian").apply(np.ones(6))
        assert np.array_equal(out, np.zeros(6))

    def test_unit_vector_hits_degree(self):
        h, _ = generalized_power(cycle_graph(3), 4, 2)
        op = TensorOperator(h, "laplacian")
        e0 = np.zeros(6)
        e0[0] = 1.0
        out = op.apply(e0)
        want = np.zeros(6, dtype=complex)
        want[0] = 2.0
        assert np.array_equal(out, want)

    def test_signless_on_ones_is_four(self):
        h, _ = generalized_power(cycle_graph(3), 4, 2)
        out = TensorOperator(h, "signless").apply(np.ones(6))
        assert np.array_equal(out, 4.0 * np.ones(6))

    def test_dimension_mismatch(self):
        h, _ = generalized_power(cycle_graph(3), 4, 2)
        with pytest.raises(ValueError):
            TensorOperator(h, "laplacian").apply(np.ones(5))


class LoopTensorOperator(TensorOperator):
    """Oracle: the same tensor applied by a scalar loop over the full edges."""

    def apply(self, x):
        x = np.asarray(x).astype(complex)
        sign = -1.0 if self.kind == "laplacian" else 1.0
        diag = 0.0 if self.kind == "adjacency" else 1.0
        y = diag * self.degrees * x ** (self.k - 1)
        for edge in self.hypergraph.full_edges:
            vals = [x[v] for v in edge]
            prefix = [1.0 + 0j] * (len(vals) + 1)
            for i in range(len(vals)):
                prefix[i + 1] = prefix[i] * vals[i]
            suffix = [1.0 + 0j] * (len(vals) + 1)
            for i in range(len(vals) - 1, -1, -1):
                suffix[i] = suffix[i + 1] * vals[i]
            for i, v in enumerate(edge):
                y[v] += sign * prefix[i] * suffix[i + 1]
        return y


def looped_random_graph(n, extra, rng, loops=()):
    edges = {tuple(sorted((v, rng.randrange(v)))) for v in range(1, n)}
    while len(edges) < n - 1 + extra:
        edges.add(tuple(sorted(rng.sample(range(n), 2))))
    return LoopedGraph(n, sorted(edges), {v: 1 for v in loops})


class TestApplyAgainstLoop:
    # (k, s): half blow-ups with base loops, and blow-ups with edge vertices
    SHAPES = ((3, 1), (4, 2), (4, 1), (8, 4), (8, 3), (12, 6))

    def powers(self, seed):
        rng = random.Random(seed)
        for k, s in self.SHAPES:
            loops = (0, 3) if 2 * s == k else ()
            yield generalized_power(looped_random_graph(12, 8, rng, loops), k, s)[0]

    def test_real_vectors_bit_identical(self):
        rng = np.random.default_rng(5)
        for h in self.powers(47):
            for kind in ("adjacency", "laplacian", "signless"):
                op, loop = TensorOperator(h, kind), LoopTensorOperator(h, kind)
                for x in (rng.normal(size=h.vertex_count), rng.random(h.vertex_count)):
                    assert np.array_equal(
                        op.apply(x).view(float), loop.apply(x).view(float)
                    )

    def test_complex_vectors_agree_to_rounding(self):
        # SIMD complex products may round differently from scalar ones
        rng = np.random.default_rng(6)
        for h in self.powers(48):
            for kind in ("adjacency", "laplacian", "signless"):
                op, loop = TensorOperator(h, kind), LoopTensorOperator(h, kind)
                n = h.vertex_count
                x = rng.normal(size=n) + 1j * rng.normal(size=n)
                got, want = op.apply(x), loop.apply(x)
                assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_loop_edges_only(self):
        h = Hypergraph(4, 4, [(0, 1), (0, 1), (2,)])
        x = np.array([0.5, -2.0, 3.0, 1.5])
        for kind in ("adjacency", "laplacian", "signless"):
            got = TensorOperator(h, kind).apply(x)
            assert np.array_equal(got, LoopTensorOperator(h, kind).apply(x))
        assert np.array_equal(
            TensorOperator(h, "signless").apply(x), [2 * 0.125, 2 * -8.0, 27.0, 0.0]
        )

    def test_power_iteration_identical(self):
        g = looped_random_graph(40, 30, random.Random(49))
        h, _ = generalized_power(g, 8, 4)
        got = nqz_power_iteration(TensorOperator(h, "signless"))
        want = nqz_power_iteration(LoopTensorOperator(h, "signless"))
        assert got.value == want.value
        assert got.residual == want.residual
        assert got.vector.tobytes() == want.vector.tobytes()


class TestEigResidual:
    def test_degree_eigenpair_exact(self):
        h, _ = generalized_power(cycle_graph(3), 4, 2)
        op = TensorOperator(h, "laplacian")
        e0 = np.zeros(6)
        e0[0] = 1.0
        assert eig_residual(op, 2.0, e0) == 0.0

    def test_signless_perron_pair(self):
        h, _ = generalized_power(cycle_graph(3), 4, 2)
        op = TensorOperator(h, "signless")
        assert eig_residual(op, 4.0, np.ones(6)) == 0.0
        assert eig_residual(op, 1.0, np.ones(6)) == pytest.approx(3.0)

    def test_scaling_invariance(self):
        h, _ = generalized_power(path_graph(3), 4, 2)
        op = TensorOperator(h, "laplacian")
        rng = np.random.default_rng(4)
        x = rng.normal(size=6) + 1j * rng.normal(size=6)
        base = eig_residual(op, 1.3 + 0.2j, x)
        for c in (2.0, -0.5, 1j, 3.7 - 1.1j):
            assert eig_residual(op, 1.3 + 0.2j, c * x) == pytest.approx(base, abs=1e-12)

    def test_zero_vector_rejected(self):
        h, _ = generalized_power(cycle_graph(3), 4, 2)
        with pytest.raises(ValueError):
            eig_residual(TensorOperator(h, "laplacian"), 0.0, np.zeros(6))


class TestNqzPowerIteration:
    def test_triangle_signless(self):
        h, _ = generalized_power(cycle_graph(3), 4, 2)
        pair = nqz_power_iteration(TensorOperator(h, "signless"))
        assert pair.value == pytest.approx(4.0, abs=1e-8)
        assert pair.residual <= 1e-8

    def test_triangle_adjacency_sixth(self):
        h, _ = generalized_power(cycle_graph(3), 6, 3)
        pair = nqz_power_iteration(TensorOperator(h, "adjacency"))
        assert pair.value == pytest.approx(2.0, abs=1e-8)

    def test_single_edge_uniform_vector(self):
        h = Hypergraph(4, 4, [(0, 1, 2, 3)])
        pair = nqz_power_iteration(TensorOperator(h, "signless"))
        assert pair.value == pytest.approx(2.0, abs=1e-8)
        assert np.allclose(pair.vector, 1.0)

    def test_path_power_matches_base_matrix(self):
        g = path_graph(3)
        h, _ = generalized_power(g, 4, 2)
        pair = nqz_power_iteration(TensorOperator(h, "signless"))
        base = power_iteration_nonneg(g.signless_laplacian_matrix())
        assert pair.value == pytest.approx(base.value, abs=1e-7)
        assert pair.value == pytest.approx(3.0, abs=1e-7)

    def test_star_power_matches_base_matrix(self):
        g = LoopedGraph(4, [(0, 1), (0, 2), (0, 3)])
        h, _ = generalized_power(g, 6, 3)
        pair = nqz_power_iteration(TensorOperator(h, "adjacency"))
        base = power_iteration_nonneg(g.adjacency_matrix())
        assert pair.value == pytest.approx(base.value, abs=1e-7)

    def test_rejects_laplacian(self):
        h, _ = generalized_power(cycle_graph(3), 4, 2)
        with pytest.raises(ValueError):
            nqz_power_iteration(TensorOperator(h, "laplacian"))

    def test_rejects_disconnected(self):
        h = Hypergraph(5, 4, [(0, 1, 2, 3)])
        with pytest.raises(ValueError):
            nqz_power_iteration(TensorOperator(h, "signless"))

    def test_budget_exhaustion(self):
        g = path_graph(3)
        h, _ = generalized_power(g, 4, 2)
        with pytest.raises(ConvergenceError):
            nqz_power_iteration(TensorOperator(h, "signless"), budget=1)


class TestNqzStart:
    # irregular bases, so the all-ones start is not already the Perron vector
    BASES = {
        "P4": path_graph(4),
        "star": LoopedGraph(5, [(0, 1), (0, 2), (0, 3), (0, 4)]),
        "random": looped_random_graph(9, 5, random.Random(50)),
    }
    MATRICES = {"signless": "signless_laplacian_matrix", "adjacency": "adjacency_matrix"}

    @staticmethod
    def counted(op):
        """Count the applies of ``op``: NQZ steps plus the residual's one."""
        calls = []
        apply = op.apply
        op.apply = lambda x: calls.append(1) or apply(x)
        return calls

    def lifted(self, g, k, kind):
        h, halfmap = generalized_power(g, k, k // 2)
        base = power_iteration_nonneg(getattr(g, self.MATRICES[kind])())
        return h, lift_perron(h, halfmap, base.vector)

    @pytest.mark.parametrize(
        "entry",
        [0.0, -0.5, np.nan, np.inf, 1e-40],
        ids=["zero", "negative", "nan", "inf", "underflow"],
    )
    def test_bad_start_entry_is_rejected(self, entry):
        # k = 12, so 1e-40 ** 11 underflows to zero
        h, _ = generalized_power(path_graph(2), 12, 6)
        start = np.ones(h.vertex_count)
        start[1] = entry
        with pytest.raises(ValueError):
            nqz_power_iteration(TensorOperator(h, "signless"), start=start)

    @pytest.mark.parametrize("shape", [(11,), (13,), (12, 1)])
    def test_start_of_wrong_shape_is_rejected(self, shape):
        h, _ = generalized_power(path_graph(2), 12, 6)
        with pytest.raises(ValueError):
            nqz_power_iteration(TensorOperator(h, "signless"), start=np.ones(shape))

    def test_none_is_the_all_ones_start(self):
        h, _ = generalized_power(self.BASES["random"], 4, 2)
        op = TensorOperator(h, "signless")
        cold = nqz_power_iteration(op)
        ones = nqz_power_iteration(op, start=np.ones(h.vertex_count))
        assert ones.value == cold.value
        assert ones.vector.tobytes() == cold.vector.tobytes()

    @pytest.mark.parametrize("k", [4, 8, 12])
    @pytest.mark.parametrize("base", sorted(BASES))
    def test_lifted_perron_start_stops_after_one_step(self, base, k):
        g = self.BASES[base]
        for kind in self.MATRICES:
            h, start = self.lifted(g, k, kind)
            op = TensorOperator(h, kind)
            cold = nqz_power_iteration(op)
            calls = self.counted(op)
            warm = nqz_power_iteration(op, start=start, budget=1)
            assert len(calls) == 2
            assert warm.value == pytest.approx(cold.value, abs=1e-10)
            assert warm.residual <= 1e-8

    @pytest.mark.parametrize("k", [4, 8, 12])
    @pytest.mark.parametrize("base", sorted(BASES))
    def test_wrong_start_reaches_the_cold_value(self, base, k):
        g = self.BASES[base]
        h, a_start = self.lifted(g, k, "adjacency")
        _, q_start = self.lifted(g, k, "signless")
        cold = nqz_power_iteration(TensorOperator(h, "signless"))
        rng = np.random.default_rng(k)
        perturbed = q_start * (1.0 + 0.3 * rng.random(h.vertex_count))
        for start in (a_start, perturbed):
            op = TensorOperator(h, "signless")
            calls = self.counted(op)
            warm = nqz_power_iteration(op, start=start)
            assert len(calls) > 2
            assert warm.value == pytest.approx(cold.value, abs=1e-10)
            assert warm.residual <= 1e-8

    def test_lift_needs_one_entry_per_half_edge(self):
        h, halfmap = generalized_power(path_graph(4), 4, 2)
        with pytest.raises(ValueError):
            lift_perron(h, halfmap, np.ones(3))


class TestLiftReal:
    def test_triangle_full_subset(self):
        g = cycle_graph(3)
        y = lift_real(g, 4, (0, 1, 2), 3.0, [1.0, -1.0, 0.0])
        assert np.array_equal(y, [1.0, 1.0, -1.0, 1.0, 0.0, 0.0])
        h, _ = generalized_power(g, 4, 2)
        assert eig_residual(TensorOperator(h, "laplacian"), 3.0, y) <= 1e-12

    def test_singleton_subset_degree_pair(self):
        g = cycle_graph(3)
        y = lift_real(g, 4, (0,), 2.0, [1.0])
        h, _ = generalized_power(g, 4, 2)
        assert eig_residual(TensorOperator(h, "laplacian"), 2.0, y) <= 1e-12
        assert np.array_equal(y[2:], np.zeros(4))

    def test_kernel_lifts_to_ones(self):
        g = cycle_graph(3)
        y = lift_real(g, 4, (0, 1, 2), 0.0, [1.0, 1.0, 1.0])
        assert np.array_equal(y, np.ones(6))

    def test_all_eigenpairs_of_all_subsets(self):
        g = cycle_graph(5)
        h, _ = generalized_power(g, 6, 3)
        op = TensorOperator(h, "laplacian")
        from hyperspec.graphs import connected_subsets

        for subset in connected_subsets(g, 5):
            sub = g.modified_induced_subgraph(subset)
            for pair in eig_real_symmetric(sub.laplacian_matrix()):
                y = lift_real(g, 6, subset, pair.value, pair.vector)
                assert eig_residual(op, pair.value, y) <= 1e-8

    def test_rejects_non_eigenpair(self):
        g = cycle_graph(3)
        with pytest.raises(ValueError):
            lift_real(g, 4, (0, 1, 2), 2.5, [1.0, -1.0, 0.0])


class TestLiftPhase:
    def test_uniform_phase_reaches_signless_value(self):
        g = cycle_graph(3)
        y = lift_phase(g, 4, (0, 1, 2), (1, 1, 1), 4.0, [1.0, 1.0, 1.0])
        h, _ = generalized_power(g, 4, 2)
        assert eig_residual(TensorOperator(h, "laplacian"), 4.0, y) <= 1e-8

    def test_identity_phase_matches_real_lift(self):
        g = cycle_graph(3)
        y = lift_phase(g, 4, (0, 1, 2), (0, 0, 0), 3.0, [1.0, -1.0, 0.0])
        h, _ = generalized_power(g, 4, 2)
        assert eig_residual(TensorOperator(h, "laplacian"), 3.0, y) <= 1e-8

    def test_zero_padded_subset_lift(self):
        g = cycle_graph(3)
        subset = (0, 1)
        for phases in itertools.product(range(2), repeat=2):
            m = reduced_matrix(g, 4, subset, phases, "laplacian")
            values, vectors = np.linalg.eig(m)
            h, _ = generalized_power(g, 4, 2)
            op = TensorOperator(h, "laplacian")
            for i in range(len(values)):
                y = lift_phase(g, 4, subset, phases, values[i], vectors[:, i])
                assert eig_residual(op, values[i], y) <= 1e-8
                assert np.array_equal(y[4:], np.zeros(2))

    def test_complex_eigenvalue_lift(self):
        g = cycle_graph(3)
        k = 6
        phases = (1, 2, 0)
        m = reduced_matrix(g, k, (0, 1, 2), phases, "laplacian")
        values, vectors = np.linalg.eig(m)
        h, _ = generalized_power(g, k, 3)
        op = TensorOperator(h, "laplacian")
        for i in range(len(values)):
            y = lift_phase(g, k, (0, 1, 2), phases, values[i], vectors[:, i])
            assert eig_residual(op, values[i], y) <= 1e-8

    def test_rejects_small_k(self):
        g = cycle_graph(3)
        with pytest.raises(ValueError):
            lift_phase(g, 2, (0, 1, 2), (0, 0, 0), 3.0, [1.0, -1.0, 0.0])

    def test_rejects_non_eigenpair(self):
        g = cycle_graph(3)
        with pytest.raises(ValueError):
            lift_phase(g, 4, (0, 1, 2), (1, 1, 1), 3.9, [1.0, 1.0, 1.0])


class TestRotateSignlessToLaplacian:
    def test_triangle_power_ones(self):
        g = cycle_graph(3)
        h, halfmap = generalized_power(g, 4, 2)
        y = rotate_signless_to_laplacian(h, halfmap, np.ones(6))
        want = np.array([1j, 1, 1j, 1, 1j, 1])
        assert np.array_equal(y, want)
        assert eig_residual(TensorOperator(h, "laplacian"), 4.0, y) <= 1e-12

    def test_pentagon_eighth_power_perron_pair(self):
        g = cycle_graph(5)
        h, halfmap = generalized_power(g, 8, 4)
        pair = nqz_power_iteration(TensorOperator(h, "signless"))
        y = rotate_signless_to_laplacian(h, halfmap, pair.vector)
        assert eig_residual(TensorOperator(h, "laplacian"), pair.value, y) <= 1e-8

    def test_rejects_k_not_divisible_by_four(self):
        g = cycle_graph(3)
        h, halfmap = generalized_power(g, 6, 3)
        with pytest.raises(ValueError):
            rotate_signless_to_laplacian(h, halfmap, np.ones(9))


class TestHalfEdgeStructure:
    def test_equal_kth_powers_within_half_edges(self):
        # eigenvectors for values away from the degrees carry equal k-th
        # powers inside each half edge; the Perron pair of the path blow-up
        # has value 3, away from the degrees {1, 2}
        g = path_graph(3)
        h, halfmap = generalized_power(g, 4, 2)
        pair = nqz_power_iteration(TensorOperator(h, "signless"))
        for members in halfmap.half_edges:
            powers = [complex(pair.vector[v]) ** h.k for v in members]
            assert max(abs(p - powers[0]) for p in powers) <= 1e-8

    def test_equal_kth_powers_on_phase_lifts(self):
        g = cycle_graph(3)
        k = 6
        phases = (1, 0, 2)
        m = reduced_matrix(g, k, (0, 1, 2), phases, "laplacian")
        values, vectors = np.linalg.eig(m)
        _, halfmap = generalized_power(g, k, 3)
        for i in range(len(values)):
            y = lift_phase(g, k, (0, 1, 2), phases, values[i], vectors[:, i])
            for members in halfmap.half_edges:
                powers = [complex(y[v]) ** k for v in members]
                assert max(abs(p - powers[0]) for p in powers) <= 1e-8


class TestGauge:
    def test_rejects_non_integer_phase(self):
        with pytest.raises((ValueError, TypeError)):
            Gauge(6, (1.5, 0))  # type: ignore[arg-type]

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Gauge(4, (4,))

    def test_numpy_integer_phases_are_stored_as_int(self):
        gauge = Gauge(np.int64(4), (np.int64(3), np.int16(0), 1))
        assert gauge == Gauge(4, (3, 0, 1))
        assert all(type(p) is int for p in gauge.phases)
        with pytest.raises(ValueError, match="out of range"):
            Gauge(4, (np.int8(-1),))

    @pytest.mark.parametrize("phase", [True, False])
    def test_rejects_a_bool_phase(self, phase):
        with pytest.raises(ValueError, match="exact integers"):
            Gauge(4, (1, phase))

    @pytest.mark.parametrize("modulus", [4.5, 4.0, "4", True])
    def test_rejects_non_integer_modulus(self, modulus):
        with pytest.raises(ValueError):
            Gauge(modulus, (1,))  # type: ignore[arg-type]

    def test_json_roundtrip(self):
        gauge = Gauge(4, (1, 0, 1, 0))
        assert Gauge.from_json_dict(gauge.to_json_dict()) == gauge

    @pytest.mark.parametrize(
        "payload",
        [
            {"mod": 4.9, "phase": {"0": 1}},
            {"mod": "4", "phase": {"0": 1}},
            {"mod": True, "phase": {"0": 0}},
            {"mod": 4, "phase": {"0": 1.5}},
            {"mod": 4, "phase": {"0": 1.0}},
            {"mod": 4, "phase": {"0": "3"}},
            {"mod": 4, "phase": {"0": True}},
            {"mod": 4, "phase": {"1": 0}},
            {"mod": 4, "phase": {"0": 0, "2": 1}},
            {"mod": 4, "phase": [0, 1]},
            {"mod": 4},
            {"phase": {"0": 0}},
            [4, {"0": 0}],
        ],
    )
    def test_json_rejects_anything_but_exact_integers_by_vertex(self, payload):
        with pytest.raises(ValueError):
            Gauge.from_json_dict(payload)


class TestVerifyDiagonalSimilarity:
    def test_anchor_gauge_conjugates_laplacian_to_signless(self):
        g = cycle_graph(3)
        h, halfmap = generalized_power(g, 4, 2)
        phases = tuple(1 if v in halfmap.anchors else 0 for v in range(6))
        gauge = Gauge(4, phases)
        assert verify_diagonal_similarity(h, "laplacian", "signless", 1, gauge)

    def test_identity_gauge_fails_with_edges(self):
        g = cycle_graph(3)
        h, _ = generalized_power(g, 4, 2)
        gauge = Gauge(4, (0,) * 6)
        assert not verify_diagonal_similarity(h, "laplacian", "signless", 1, gauge)
        assert verify_diagonal_similarity(h, "laplacian", "laplacian", 1, gauge)

    def test_adjacency_negation_equals_laplacian_signless(self):
        rng = random.Random(23)
        g = cycle_graph(3)
        h, _ = generalized_power(g, 4, 2)
        for _ in range(30):
            m = rng.choice([2, 4, 8])
            gauge = Gauge(m, tuple(rng.randrange(m) for _ in range(6)))
            assert verify_diagonal_similarity(
                h, "adjacency", "adjacency", -1, gauge
            ) == verify_diagonal_similarity(h, "laplacian", "signless", 1, gauge)

    def test_odd_modulus_with_flip_rejected(self):
        g = cycle_graph(3)
        h, _ = generalized_power(g, 4, 2)
        with pytest.raises(ValueError):
            verify_diagonal_similarity(
                h, "laplacian", "signless", 1, Gauge(3, (0,) * 6)
            )

    def test_wrong_sign_for_degrees(self):
        g = cycle_graph(3)
        h, _ = generalized_power(g, 4, 2)
        gauge = Gauge(4, (0,) * 6)
        assert not verify_diagonal_similarity(h, "laplacian", "signless", -1, gauge)


KINDS = ("adjacency", "laplacian", "signless")
MERSENNE_61 = 2**61 - 1


def scalar_verify(h, from_kind, to_kind, sign, gauge):
    """Oracle: the entrywise similarity check, one vertex and one incidence at a time."""
    diag = {"adjacency": 0, "laplacian": 1, "signless": 1}
    edge = {"adjacency": 1, "laplacian": -1, "signless": 1}
    for v in range(h.vertex_count):
        if h.degree(v) and diag[from_kind] != sign * diag[to_kind]:
            return False
    flip = edge[from_kind] != sign * edge[to_kind]
    m = gauge.modulus
    if flip and m % 2:
        raise ValueError("a sign flip needs an even gauge modulus")
    for e in h.full_edges:
        total = sum(gauge.phases[v] for v in e)
        for v in e:
            if (total - h.k * gauge.phases[v]) % m != (m // 2 if flip else 0):
                return False
    return True


def outcome(check, *args):
    try:
        return check(*args)
    except ValueError:
        return ValueError


@st.composite
def gauged_hypergraphs(draw):
    """A hypergraph, loop edges allowed, with a random, constant or certifying gauge.

    Certifying gauges scale a modulus-2 solution by m/2, so they pass the sign
    flip at every even m, 2 (2^61 - 1) included, whose products need Python
    integers.
    """
    k = draw(st.sampled_from([3, 4, 6, 8]))
    n = draw(st.integers(k, k + 4))
    members = st.lists(st.integers(0, n - 1), min_size=1, max_size=k, unique=True)
    edges = draw(st.lists(members.map(lambda e: tuple(sorted(e))), max_size=6, unique=True))
    h = Hypergraph(n, k, edges)
    m = draw(st.sampled_from([1, 2, 3, 4, 6, 8, 12, 24, MERSENNE_61, 2 * MERSENNE_61]))
    flavour = draw(st.sampled_from(["random", "constant", "certifying"]))
    phases = draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
    if flavour == "constant":
        phases = [phases[0]] * n
    elif flavour == "certifying" and m % 2 == 0 and k % 2 == 0 and h.is_uniform:
        solution = solve_mod_m(build_similarity_system(h, 2))
        if solution is not None:
            phases = [p * (m // 2) for p in solution.phases]
    return h, Gauge(m, tuple(phases))


class TestVectorisedVerification:
    @settings(max_examples=300)
    @given(gauged_hypergraphs())
    # a certifying gauge with five phases 2^61 - 1 on one edge: the edge sum
    # passes 2^63, where int64 arithmetic would wrap
    @example((Hypergraph(6, 6, [range(6)]), Gauge(2 * MERSENNE_61, (MERSENNE_61,) * 5 + (0,))))
    def test_matches_the_scalar_oracle(self, case):
        h, gauge = case
        for from_kind in KINDS:
            for to_kind in KINDS:
                for sign in (1, -1):
                    args = (h, from_kind, to_kind, sign, gauge)
                    assert outcome(verify_diagonal_similarity, *args) == outcome(
                        scalar_verify, *args
                    )
