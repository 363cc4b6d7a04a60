import math
import os
import random
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperspec import _dedup, reduction
from hyperspec.cli import main
from hyperspec.graphs import (
    complete_graph,
    connected_subsets,
    cycle_graph,
    format_edge_list,
)
from hyperspec.linalg import (
    COMPLEX_CAP,
    MIN_DEDUP_TOL,
    SYMMETRIC_CAP,
    ConvergenceError,
    SpectrumSet,
    eig_complex_pairs,
    eig_complex_stack,
    eig_real_symmetric,
    eig_real_symmetric_stack,
    power_iteration_nonneg,
    spectral_radius,
)

OMEGA = np.exp(2j * np.pi / 3)


def triangle_adjacency():
    return cycle_graph(3).adjacency_matrix()


def pair_spectrum(m):
    """The deduplicated values of every eigenpair of a complex matrix."""
    return SpectrumSet(values=[p.value for p in eig_complex_pairs(m)])


def circulant_eigenvalues(coefficient):
    """Oracle: eigenvalues of 2I + coefficient * A(C3) from the circulant formula."""
    adjacency_eigs = [2 * math.cos(2 * math.pi * j / 3) for j in range(3)]
    return [2 + coefficient * mu for mu in adjacency_eigs]


class TestEigRealSymmetric:
    def test_two_by_two_closed_form(self):
        pairs = eig_real_symmetric(np.array([[2.0, -1.0], [-1.0, 2.0]]))
        assert np.allclose([p.value for p in pairs], [1.0, 3.0])

    def test_triangle_laplacian_circulant(self):
        want = sorted(2 - 2 * math.cos(2 * math.pi * j / 3) for j in range(3))
        pairs = eig_real_symmetric(cycle_graph(3).laplacian_matrix())
        assert np.allclose([p.value for p in pairs], want)

    def test_identity(self):
        pairs = eig_real_symmetric(np.eye(4))
        assert [p.value for p in pairs] == [1.0] * 4

    def test_residuals_certified(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = rng.integers(1, 12)
            m = rng.normal(size=(n, n))
            m = m + m.T
            for p in eig_real_symmetric(m):
                assert p.residual <= 1e-10
                assert np.max(np.abs(p.vector)) == pytest.approx(1.0)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            eig_real_symmetric(np.array([[0.0, 1.0], [0.5, 0.0]]))

    def test_rejects_above_cap(self):
        # the cap bounds stacks of reduced matrices
        with pytest.raises(ValueError, match="exceeds cap 256"):
            eig_real_symmetric_stack(np.eye(SYMMETRIC_CAP + 1)[None])

    def test_a_base_matrix_above_the_cap_is_solved(self):
        # a cycle's Laplacian, as the base graph of a rho-equality check
        n = SYMMETRIC_CAP + 45
        lap = 2 * np.eye(n) - np.roll(np.eye(n), 1, axis=0) - np.roll(np.eye(n), -1, axis=0)
        pairs = eig_real_symmetric(lap)
        assert len(pairs) == n and max(p.residual for p in pairs) <= 1e-10
        want = np.linalg.eigvalsh(lap).tolist()
        assert [p.value for p in pairs] == pytest.approx(want, abs=1e-12)


class TestEigComplexPairs:
    def test_diagonal(self):
        s = pair_spectrum(np.diag([1.0, 1j, -2.0]))
        assert s.contains(1.0) and s.contains(1j) and s.contains(-2.0)
        assert len(s) == 3

    def test_phased_triangle_circulant(self):
        m = 2 * np.eye(3) - OMEGA * triangle_adjacency()
        want = circulant_eigenvalues(-OMEGA)
        s = pair_spectrum(m)
        for value in want:
            assert s.contains(value)
        # 2 - 2w appears once, 2 + w twice, so the set has two members
        assert len(s) == 2
        assert abs(2 - 2 * OMEGA) == pytest.approx(2 * math.sqrt(3))
        assert s.max_modulus() == pytest.approx(2 * math.sqrt(3), abs=1e-9)

    def test_matches_symmetric_solver(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            n = rng.integers(1, 8)
            m = rng.normal(size=(n, n))
            m = m + m.T
            sym = sorted(p.value for p in eig_real_symmetric(m))
            cplx = sorted(p.value.real for p in eig_complex_pairs(m.astype(complex)))
            assert np.allclose(sym, cplx, atol=1e-9)

    def test_trace_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(1, 10))
            m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            pairs = eig_complex_pairs(m)
            total = sum(p.value for p in pairs)
            norm = np.max(np.sum(np.abs(m), axis=1))
            assert abs(total - np.trace(m)) <= 1e-8 * n * max(1.0, norm)

    def test_conjugate_closure_for_real_input(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(2, 9))
            m = rng.normal(size=(n, n))
            s = pair_spectrum(m.astype(complex))
            for v in s.values:
                assert s.contains(v.conjugate())

    def test_rejects_above_cap(self):
        with pytest.raises(ValueError):
            eig_complex_pairs(np.eye(COMPLEX_CAP + 1, dtype=complex))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            eig_complex_pairs(np.array([[np.nan, 0], [0, 1]], dtype=complex))


@st.composite
def complex_symmetric_stacks(draw):
    """A few complex symmetric matrices of one size up to COMPLEX_CAP: Gaussian
    entries, or D - E A E for a random graph and random 12th roots of unity,
    which are often nearly defective, or the real D - A of the zero phases."""
    n = draw(st.integers(0, COMPLEX_CAP))
    count = draw(st.integers(1, 3))
    family = draw(st.sampled_from(["gaussian", "phased", "real"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if family == "gaussian":
        b = rng.normal(size=(count, n, n)) + 1j * rng.normal(size=(count, n, n))
        return b + b.transpose(0, 2, 1)
    a = np.triu(rng.random((count, n, n)) < 0.4, 1).astype(float)
    a = a + a.transpose(0, 2, 1)
    diag = np.zeros((count, n, n))
    diag[:, range(n), range(n)] = a.sum(axis=2)
    if family == "real":
        return diag - a
    units = np.exp(2j * np.pi * rng.integers(0, 12, size=(count, n)) / 12)
    return diag - units[:, :, None] * units[:, None, :] * a


def hex_rows(values):
    """Each value of a stack of eigenvalue rows as its float.hex pair."""
    return [[(z.real.hex(), z.imag.hex()) for z in row] for row in values.tolist()]


def sorted_eigvals(ms):
    """numpy's values-only eigenvalues of a stack, as complex matrices (zgeev,
    not the real dgeev), each row sorted by (real, imag)."""
    values = np.linalg.eigvals(np.asarray(ms, dtype=complex))
    order = np.lexsort((values.imag, values.real), axis=-1)
    return np.take_along_axis(values, order, axis=-1)


class TestEigvalsComplexStack:
    """eig_complex_stack reports the values of a values-only solve bit for bit.

    numpy's ``eigvals`` and ``eig`` both run LAPACK's zgeev.  For every
    n < 75, and COMPLEX_CAP is 64, zgeev computes the eigenvalues with zlahqr,
    and asking for eigenvectors only adds work outside zlahqr's active block:
    the Schur update of the rows and columns beyond it and the accumulated
    transformations.  The values are therefore the same bits, so reports
    made from a values-only solve and from eig_complex_stack have the same
    bytes.  A numpy or LAPACK upgrade that breaks this premise fails here
    instead of silently moving output bytes.
    """

    @settings(max_examples=60)
    @given(ms=complex_symmetric_stacks())
    def test_matches_the_pair_solver_bit_for_bit(self, ms):
        assert hex_rows(sorted_eigvals(ms)) == hex_rows(eig_complex_stack(ms)[0])

    def test_matches_the_pair_solver_on_the_c7_sixth_power_stacks(self, monkeypatch):
        stacks = []
        solve = reduction.eig_complex_stack

        def recording(ms):
            stacks.append(ms)
            return solve(ms)

        monkeypatch.setattr(reduction, "eig_complex_stack", recording)
        # rho_power solves its unpruned classes, and the spectrum one
        # representative per chi class, each with eig_complex_stack
        result = reduction.rho_power(cycle_graph(7), 6, "L")
        assert sum(len(ms) for ms in stacks) == 127 and result.budget_used == 9831
        report = reduction.spectrum_power(cycle_graph(7), 6, "L")
        assert sum(len(ms) for ms in stacks) == 127 + 400 and report.budget_used == 9831
        for ms in stacks:
            assert hex_rows(sorted_eigvals(ms)) == hex_rows(eig_complex_stack(ms)[0])

    def test_rows_are_sorted_by_real_then_imaginary_part(self):
        values = eig_complex_stack(np.diag([1j, -1j, 2.0, -1.0 + 0.5j])[None])[0]
        assert values.tolist() == [[-1.0 + 0.5j, -1j, 1j, 2.0]]

    @pytest.mark.parametrize(
        "ms, message",
        [
            (np.eye(3, dtype=complex), "square"),
            (np.ones((1, 2, 3)), "square"),
            (np.eye(COMPLEX_CAP + 1, dtype=complex)[None], "cap"),
            (np.array([[[np.inf, 0], [0, 1]]], dtype=complex), "finite"),
        ],
    )
    def test_rejects_what_the_pair_solver_rejects(self, monkeypatch, ms, message):
        # the input checks run before LAPACK is handed the stack
        solves = []
        monkeypatch.setattr(np.linalg, "eig", solves.append)
        with pytest.raises(ValueError, match=message):
            eig_complex_stack(ms)
        assert solves == []


class TestResidualGate:
    """eig_complex_stack returns LAPACK's pairs or raises; it never repairs one.

    Every pair's residual is checked against 1e-9 and the first miss raises
    ConvergenceError naming its matrix.  LAPACK's pairs clear that gate by
    orders of magnitude, defective matrices included, which the margin tests
    pin at 1e-12.
    """

    def test_a_pair_that_misses_its_certificate_raises_with_its_matrix(self, monkeypatch):
        eig = np.linalg.eig

        def perturbed(ms):
            values, vectors = eig(ms)
            vectors[3, :, 1] += 1e-3
            return values, vectors

        monkeypatch.setattr(np.linalg, "eig", perturbed)
        rng = np.random.default_rng(11)
        ms = rng.normal(size=(5, 4, 4)) + 1j * rng.normal(size=(5, 4, 4))
        with pytest.raises(ConvergenceError, match="exceeds 1e-9") as info:
            eig_complex_stack(ms)
        assert info.value.index == 3

    @settings(max_examples=60)
    @given(ms=complex_symmetric_stacks())
    def test_random_complex_symmetric_stacks_clear_it(self, ms):
        values, vectors, residuals = eig_complex_stack(ms)
        assert residuals.max(initial=0.0) < 1e-12
        # rows sorted by (real, imag), each vector scaled to max-norm 1 (the
        # complex quotient of the pivot by itself may round one ulp below 1)
        pairs = [list(zip(row.real, row.imag)) for row in values]
        assert pairs == [sorted(row) for row in pairs]
        assert np.allclose(np.abs(vectors).max(axis=1, initial=0.0), 1.0, rtol=0, atol=2**-52)

    @pytest.mark.parametrize("kind", ["adjacency", "laplacian", "signless"])
    def test_every_reduced_matrix_of_the_c5_fourth_power_clears_it(self, kind):
        g, k, solved = cycle_graph(5), 4, 0
        for subset in connected_subsets(g, 5):
            ms = np.array(
                [
                    reduction.reduced_matrix(g, k, subset, phases, kind)
                    for phases in reduction.phase_classes(len(subset), k)
                ]
            )
            residuals = eig_complex_stack(ms)[2]
            assert residuals.max() < 1e-12
            solved += len(ms)
        assert solved == 182

    @pytest.mark.parametrize(
        "m",
        [
            (1.5 - 0.5j) * np.eye(COMPLEX_CAP) + np.eye(COMPLEX_CAP, k=1),
            np.array([[1, 1j], [1j, -1]]),
        ],
        ids=["jordan-64", "nilpotent-complex-symmetric"],
    )
    def test_defective_matrices_clear_it(self, m):
        assert eig_complex_stack(m[None])[2].max() < 1e-12


# the CPU counts a solve is checked at: one, two and three, and the count of
# this host
CPU_COUNTS = (1, 2, 3, os.cpu_count() or 1)


def count_thread_starts(mp: pytest.MonkeyPatch) -> list:
    """Record every threading.Thread.start call from now on; returns the record."""
    starts = []
    start = threading.Thread.start

    def counting(thread):
        starts.append(thread)
        start(thread)

    mp.setattr(threading.Thread, "start", counting)
    return starts


def at_each_cpu_count(solve):
    """``solve()`` with the process seeing each CPU count of CPU_COUNTS, and
    the number of threads each call started."""
    results = []
    for cpus in CPU_COUNTS:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(os, "cpu_count", lambda: cpus)
            mp.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
            starts = count_thread_starts(mp)
            baseline = threading.active_count()
            results.append((solve(), len(starts)))
            assert threading.active_count() == baseline
    return results


def hex_stack(values):
    """float.hex of every entry of a complex array, rows flattened."""
    return hex_rows(values.reshape(len(values), -1))


class TestSplitSolve:
    """No solve is split over threads: each stack is one numpy call on the
    calling thread, so the results are the same bits whatever number of
    CPUs the process sees, and no solve starts a thread.
    """

    @settings(max_examples=12)
    @given(ms=complex_symmetric_stacks())
    def test_values_are_the_same_bits_at_any_cpu_count(self, ms):
        runs = at_each_cpu_count(lambda: hex_rows(eig_complex_stack(ms)[0]))
        assert [started for _, started in runs] == [0] * len(CPU_COUNTS)
        assert all(values == runs[0][0] for values, _ in runs)

    @settings(max_examples=12)
    @given(ms=complex_symmetric_stacks())
    def test_pairs_are_the_same_bits_at_any_cpu_count(self, ms):
        runs = at_each_cpu_count(lambda: list(map(hex_stack, eig_complex_stack(ms))))
        assert [started for _, started in runs] == [0] * len(CPU_COUNTS)
        assert all(pairs == runs[0][0] for pairs, _ in runs)

    def test_c7_sixth_power_spectrum_bytes_at_any_cpu_count(self, tmp_path):
        graph = tmp_path / "c7.edges"
        graph.write_text(format_edge_list(cycle_graph(7)))
        out = tmp_path / "c7-k6.json"

        def spectrum():
            assert main(["spectrum", "--input", str(graph), "--k", "6", "--out", str(out)]) == 0
            return out.read_bytes()

        runs = at_each_cpu_count(spectrum)
        assert [started for _, started in runs] == [0] * len(CPU_COUNTS)
        assert all(data == runs[0][0] for data, _ in runs)

    def test_a_failing_later_part_reaches_the_caller_unchanged(self, monkeypatch):
        # row i carries i; LAPACK is made to fail on the last row
        ms = np.zeros((3, 1, 1), dtype=complex)
        ms[:, 0, 0] = np.arange(len(ms))
        calls, raised = [], np.linalg.LinAlgError("row 2 did not converge")

        def failing(stack):
            calls.append(stack[:, 0, 0].real.tolist())
            raise raised

        monkeypatch.setattr(np.linalg, "eig", failing)
        starts = count_thread_starts(monkeypatch)
        with pytest.raises(np.linalg.LinAlgError) as caught:
            eig_complex_stack(ms)
        # one call with the whole stack, and LAPACK's error as it was raised
        assert calls == [[0.0, 1.0, 2.0]] and caught.value is raised
        assert starts == []

    def test_a_nonfinite_stack_is_rejected_before_any_thread_starts(self, monkeypatch):
        ms = np.ones((16, 1, 1), dtype=complex)
        ms[-1, 0, 0] = np.nan
        solves = []
        monkeypatch.setattr(np.linalg, "eig", solves.append)
        starts = count_thread_starts(monkeypatch)
        for solve, arg in ((eig_complex_stack, ms), (eig_complex_pairs, ms[-1])):
            with pytest.raises(ValueError, match="finite"):
                solve(arg)
        assert solves == [] and starts == []

    @pytest.mark.parametrize(
        "run",
        [
            lambda: reduction.rho_power(cycle_graph(5), 8, "L"),
            lambda: reduction.rho_power(complete_graph(4), 12, "L"),
            lambda: reduction.h_spectrum_power(complete_graph(8), 4, "L"),
        ],
        ids=["rho C5 k=8", "rho K4 k=12", "h-spectrum K8 k=4"],
    )
    def test_pruned_and_symmetric_solves_start_no_thread(self, monkeypatch, run):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        starts = count_thread_starts(monkeypatch)
        run()
        assert starts == []


class TestSpectralRadius:
    def test_triangle_signless(self):
        assert spectral_radius(
            cycle_graph(3).signless_laplacian_matrix().astype(complex)
        ) == pytest.approx(4.0, abs=1e-10)

    def test_phased_triangle(self):
        m = 2 * np.eye(3) - OMEGA * triangle_adjacency()
        assert spectral_radius(m) == pytest.approx(2 * math.sqrt(3), abs=1e-9)

    def test_zero_matrix(self):
        assert spectral_radius(np.zeros((3, 3), dtype=complex)) == 0.0

    def test_bounded_by_inf_norm(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(1, 10))
            m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            assert spectral_radius(m) <= np.max(np.sum(np.abs(m), axis=1)) + 1e-12


class TestPowerIterationNonneg:
    def test_triangle_signless(self):
        pair = power_iteration_nonneg(cycle_graph(3).signless_laplacian_matrix())
        assert pair.value == pytest.approx(4.0, abs=1e-10)
        assert np.allclose(pair.vector, 1.0)

    def test_pentagon_signless(self):
        pair = power_iteration_nonneg(cycle_graph(5).signless_laplacian_matrix())
        assert pair.value == pytest.approx(4.0, abs=1e-10)

    def test_scalar(self):
        pair = power_iteration_nonneg(np.array([[2.5]]))
        assert pair.value == pytest.approx(2.5)

    def test_agrees_with_symmetric_solver(self):
        rng = np.random.default_rng(5)
        for _ in range(15):
            n = int(rng.integers(2, 9))
            m = rng.random(size=(n, n))
            m = m + m.T + np.eye(n)  # strictly positive diagonal, irreducible
            pair = power_iteration_nonneg(m)
            top = eig_real_symmetric(m)[-1].value
            assert pair.value == pytest.approx(top, abs=1e-8)

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            power_iteration_nonneg(np.array([[1.0, -0.1], [0.1, 1.0]]))

    def test_rejects_reducible(self):
        with pytest.raises(ValueError):
            power_iteration_nonneg(np.diag([1.0, 2.0]))

    def test_budget_exhaustion(self):
        m = cycle_graph(5).signless_laplacian_matrix() + np.eye(5) * 0.3
        m[0, 0] += 0.7
        with pytest.raises(ConvergenceError):
            power_iteration_nonneg(m, budget=2)


class TestSpectrumSet:
    def test_deduplicates_close_values(self):
        s = SpectrumSet([1.0, 1.0 + 1e-12, 2.0], dedup_tol=1e-8)
        assert len(s) == 2

    def test_pairwise_separation_invariant(self):
        rng = random.Random(6)
        for _ in range(30):
            values = [
                complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                for _ in range(rng.randint(1, 40))
            ]
            s = SpectrumSet(values, dedup_tol=1e-3)
            scale = max(1.0, max(abs(v) for v in s.values))
            for i, a in enumerate(s.values):
                for b in s.values[i + 1 :]:
                    assert abs(a - b) > 1e-3 * scale

    def test_every_input_is_represented(self):
        rng = random.Random(7)
        values = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(60)]
        s = SpectrumSet(values, dedup_tol=1e-2)
        # single linkage can chain, so accept matches within the cluster width
        for v in values:
            assert min(abs(v - w) for w in s.values) <= 1e-2 * 60

    def test_source_is_the_first_contributor(self):
        s = SpectrumSet([2.0, 1.0, 1.0 + 1e-12], dedup_tol=1e-8)
        assert s.values[0] == pytest.approx(1.0)
        assert s.sources.tolist() == [1, 0]

    def test_a_complex_array_is_clustered_without_a_copy(self, monkeypatch):
        seen = []
        clusters = _dedup.clusters

        def recording(points, threshold):
            seen.append(points)
            return clusters(points, threshold)

        monkeypatch.setattr(_dedup, "clusters", recording)
        values = np.array([2.0, 1.0, 1.0 + 1e-12, 1j])
        s = SpectrumSet(values, dedup_tol=1e-8)
        assert seen[0] is values
        assert len(s) == 3 and s.values[0] == 1j
        assert values.tolist() == [2.0, 1.0, 1.0 + 1e-12, 1j]

    def test_set_equal(self):
        a = SpectrumSet([0.0, 1.0, 2.0])
        b = SpectrumSet([2.0 + 1e-10, 1.0 - 1e-10, 0.0])
        c = SpectrumSet([0.0, 1.0])
        assert a.set_equal(b)
        assert not a.set_equal(c)
        assert not c.set_equal(a)

    def test_real_values(self):
        s = SpectrumSet([1.0, 1j, 2.0 + 1e-12j])
        assert s.real_values() == [1.0, 2.0]

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            SpectrumSet([1.0], dedup_tol=0.0)


def reference_single_linkage(values, threshold):
    """Oracle: the pure-Python union-find sweep SpectrumSet used to run."""
    count = len(values)
    parent = list(range(count))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)

    order = sorted(range(count), key=lambda i: (values[i].real, values[i].imag))
    for a in range(count):
        i = order[a]
        for b in range(a + 1, count):
            j = order[b]
            if values[j].real - values[i].real > threshold:
                break
            if abs(values[i] - values[j]) <= threshold:
                union(i, j)
    groups = {}
    for i in range(count):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def reference_dedup(values, dedup_tol=1e-8):
    """Oracle: SpectrumSet's merge rounds over the reference linkage; the
    values, and the smallest input index merged into each."""
    raw = [complex(v) for v in values]
    scale = max(1.0, max((abs(v) for v in raw), default=0.0))
    threshold = dedup_tol * scale
    vals = raw
    prio = list(range(len(raw)))
    while True:
        clusters = reference_single_linkage(vals, threshold)
        if len(clusters) == len(vals):
            break
        merged_vals, merged_prio = [], []
        for group in clusters:
            group_sorted = sorted(group, key=lambda i: (vals[i].real, vals[i].imag))
            rep = sum(vals[i] for i in group_sorted) / len(group_sorted)
            lead = min(group, key=lambda i: prio[i])
            merged_vals.append(rep)
            merged_prio.append(prio[lead])
        vals, prio = merged_vals, merged_prio
    order = sorted(range(len(vals)), key=lambda i: (vals[i].real, vals[i].imag))
    return tuple(vals[i] for i in order), [prio[i] for i in order]


def assert_matches_reference(values, dedup_tol):
    s = SpectrumSet(values, dedup_tol=dedup_tol)
    want_values, want_sources = reference_dedup(values, dedup_tol)
    # float.hex tells -0.0 from 0.0, so equal bits, not just equal values
    assert [(v.real.hex(), v.imag.hex()) for v in s.values] == [
        (v.real.hex(), v.imag.hex()) for v in want_values
    ]
    assert s.sources.tolist() == want_sources
    return s


# Grid points k/8 stay inside the unit disc, so the threshold is exactly
# dedup_tol: chains at exactly the threshold, exact duplicates, equal real
# parts and purely imaginary offsets all occur, and 2-D configurations whose
# cluster means link only in a later round.
grid_points = st.builds(
    lambda a, b: complex(a / 8, b / 8), st.integers(-5, 5), st.integers(-5, 5)
)
noisy_points = st.builds(
    complex, st.floats(-3, 3, allow_nan=False), st.floats(-3, 3, allow_nan=False)
)


class TestSpectrumSetAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(grid_points, max_size=30),
        st.sampled_from([1 / 8, 3 / 16, 1 / 4, 3 / 8]),
    )
    @example([0.0, 0.25j, 0.25 + 0.125j], 1 / 4)  # links only in round 2
    @example([0.5, 0.5, 0.5 + 0.25j, 0.75 + 0.25j], 1 / 4)
    def test_grid_values(self, values, dedup_tol):
        assert_matches_reference(values, dedup_tol)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(noisy_points, max_size=40),
        st.sampled_from([1e-8, 1e-3, 0.05, 0.3]),
    )
    def test_noisy_values(self, values, dedup_tol):
        assert_matches_reference(values, dedup_tol)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(noisy_points, st.integers(1, 6), st.integers(0, 2**32 - 1)),
            max_size=8,
        ),
    )
    def test_tight_clusters(self, centres):
        # eigenvalue-like input: copies of a few centres jittered near 1e-15
        values = []
        for centre, copies, seed in centres:
            rng = random.Random(seed)
            values += [
                centre + complex(rng.gauss(0, 1e-15), rng.gauss(0, 1e-15))
                for _ in range(copies)
            ]
        random.Random(len(values)).shuffle(values)
        assert_matches_reference(values, 1e-8)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.one_of(grid_points, noisy_points), max_size=40),
        st.sampled_from([1 / 8, 1 / 4, 0.3]),
    )
    def test_clusters_and_their_order_match_the_reference(self, values, threshold):
        # clusters in the order of their smallest index, members in (real,
        # imag) order with equal values in input order
        members, starts = _dedup.clusters(np.array(values, dtype=complex), threshold)
        got = [group.tolist() for group in np.split(members, starts[1:])] if values else []
        groups = reference_single_linkage(values, threshold)
        want = sorted(
            (sorted(g, key=lambda i: (values[i].real, values[i].imag, i)) for g in groups),
            key=min,
        )
        assert got == want

    def test_second_round_merge(self):
        # the first two link; the third links only with their mean, a round later
        s = assert_matches_reference([0.0, 0.25j, 0.25 + 0.125j], 1 / 4)
        assert len(s) == 1

    def test_empty_input(self):
        s = assert_matches_reference([], 1e-8)
        assert s.values == () and s.sources.tolist() == []

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            SpectrumSet([1.0, complex(math.nan, 0.0)])

    def test_c7_sixth_power_laplacian_inputs(self, monkeypatch):
        captured = {}

        class Capture(SpectrumSet):
            def __init__(self, values, dedup_tol):
                captured["values"] = [complex(v) for v in values]
                super().__init__(values, dedup_tol=dedup_tol)

        monkeypatch.setattr(reduction, "SpectrumSet", Capture)
        report = reduction.spectrum_power(cycle_graph(7), 6, "L")
        values = captured["values"]
        # the merged values of the 400 chi class representatives
        assert len(values) == 2461
        s = assert_matches_reference(values, reduction.DEDUP_TOL)
        assert len(s) == len(report.values) == 2098
        sources = s.sources.tolist()
        assert report.spectrum.sources.tolist() == sources
        # each witness carries the input value its source names
        assert report.witnesses.eigenvalues.tolist() == [values[i] for i in sources]


def nudge(x, ulps):
    """x moved by ``ulps`` units in the last place."""
    for _ in range(abs(ulps)):
        x = float(np.nextafter(x, math.copysign(math.inf, ulps)))
    return x


def cell_edge(x, side, shift, j):
    """The edge of the j-th cell past x on the clustering grid, in value units."""
    return (math.floor(x / side + shift) + j - shift) * side


@st.composite
def cell_edge_inputs(draw):
    # 8.0 is the largest modulus, so the threshold is exactly 8 * dedup_tol;
    # coordinates sit on integers, on multiples of half the threshold and on
    # the grid's cell edges, each moved by up to one ulp
    dedup_tol = draw(st.sampled_from([1 / 8, 3 / 64, 1e-3, 1e-8, MIN_DEDUP_TOL]))
    threshold = 8 * dedup_tol
    side = threshold * _dedup._SIDE

    def coordinate(base, shift):
        kind = draw(st.sampled_from(["integer", "half", "edge"]))
        j = draw(st.integers(-4, 4))
        if kind == "integer":
            x = float(base)
        elif kind == "half":
            x = base + j * threshold / 2
        else:
            x = cell_edge(base, side, shift, j)
        return nudge(x, draw(st.integers(-1, 1)))

    count = draw(st.integers(0, 30))
    values = [
        complex(
            coordinate(draw(st.integers(0, 3)), _dedup._SHIFT[0]),
            coordinate(draw(st.integers(-2, 2)), _dedup._SHIFT[1]),
        )
        for _ in range(count)
    ]
    values.insert(draw(st.integers(0, count)), 8.0 + 0j)
    return values, dedup_tol


class TestGridAdversarial:
    """Inputs placed against the cells of the clustering grid."""

    @settings(max_examples=300, deadline=None)
    @given(cell_edge_inputs())
    def test_cell_edges(self, case):
        values, dedup_tol = case
        assert_matches_reference(values, dedup_tol)

    @pytest.mark.parametrize("j", [-3, 0, 1, 5])
    @pytest.mark.parametrize("base", [0, 1 + 1j, 3 - 2j])
    def test_opposite_corners_of_one_cell(self, j, base):
        # the ends of a cell's diagonal, 0.75 thresholds apart, must link;
        # a point just over a threshold from a corner, along the diagonal,
        # must not
        dedup_tol = 1e-3
        threshold = 8 * dedup_tol
        side = threshold * _dedup._SIDE
        low = complex(
            nudge(cell_edge(base.real, side, _dedup._SHIFT[0], j), 1),
            nudge(cell_edge(base.imag, side, _dedup._SHIFT[1], j), 1),
        )
        high = complex(
            nudge(cell_edge(base.real, side, _dedup._SHIFT[0], j + 1), -1),
            nudge(cell_edge(base.imag, side, _dedup._SHIFT[1], j + 1), -1),
        )
        past = low + threshold * (1 + 1e-9) * complex(1, 1) / math.sqrt(2)
        for pair, clusters in (([low, high], 1), ([low, past], 2)):
            values = pair + [8.0 + 0j]
            s = assert_matches_reference(values, dedup_tol)
            assert len(s) == clusters + 1

    @pytest.mark.parametrize("j", [-2, -1, 0, 1])
    @pytest.mark.parametrize("axis", [1, 1j])
    def test_farthest_linked_pair_from_a_cell_edge(self, j, axis):
        # x just below a cell edge and the largest y with fl(y - x) at most
        # the threshold: y - x itself exceeds the threshold, and they link
        dedup_tol = 1 / 64
        threshold = 8 * dedup_tol
        side = threshold * _dedup._SIDE
        shift = _dedup._SHIFT[0] if axis == 1 else _dedup._SHIFT[1]
        x = nudge(cell_edge(0.0, side, shift, j), -1)
        y = x + threshold
        while nudge(y, 1) - x <= threshold:
            y = nudge(y, 1)
        values = [x * axis, y * axis, 8.0 + 0j]
        s = assert_matches_reference(values, dedup_tol)
        assert len(s) == 2

    @pytest.mark.parametrize("angle", [0.0, math.pi / 2, math.pi / 4, 0.52, 2.9])
    @pytest.mark.parametrize("stretch, clusters", [(1 - 1e-9, 1), (1 + 1e-9, 200)])
    def test_chain_across_cells(self, angle, stretch, clusters):
        # 200 values a step just under (or over) the threshold apart cross
        # about 400 cells; inside the unit disc the threshold is dedup_tol
        dedup_tol = 1e-3
        step = dedup_tol * stretch * complex(math.cos(angle), math.sin(angle))
        values = [0.1 - 0.1j + i * step for i in range(200)]
        s = assert_matches_reference(values, dedup_tol)
        assert len(s) == clusters

    @pytest.mark.parametrize("spread", [0.2, 1.0])
    def test_cluster_straddling_a_cell_corner(self, spread):
        # 3000 values scattered around the corner of four cells near 2 + 0j;
        # 4.0 is the largest modulus, so the threshold is exactly 4 * dedup_tol
        dedup_tol = 1e-8
        threshold = 4 * dedup_tol
        side = threshold * _dedup._SIDE
        corner = complex(
            cell_edge(2.0, side, _dedup._SHIFT[0], 0),
            cell_edge(0.0, side, _dedup._SHIFT[1], 0),
        )
        rng = np.random.default_rng(11)
        noise = rng.standard_normal(3000) + 1j * rng.standard_normal(3000)
        values = (corner + spread * side * noise).tolist() + [4.0 + 0j]
        cells = {
            (
                math.floor(v.real / side + _dedup._SHIFT[0]),
                math.floor(v.imag / side + _dedup._SHIFT[1]),
            )
            for v in values[:-1]
        }
        assert len(cells) >= 4
        assert_matches_reference(values, dedup_tol)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(0, 2 * math.pi),
                st.floats(-10, 10),
                st.integers(1, 5),
                st.integers(0, 2**32 - 1),
            ),
            max_size=10,
        ),
        st.sampled_from([1e-8, 1e-12, MIN_DEDUP_TOL]),
        st.sampled_from([0.3, 1.0, 3.0]),
    )
    def test_magnitudes_near_a_million(self, centres, dedup_tol, jitter):
        # copies of centres of modulus about 1e6, jittered on the scale of
        # the threshold (about 1e6 * dedup_tol), so links are borderline
        values = []
        for angle, offset, copies, seed in centres:
            rng = random.Random(seed)
            centre = (1e6 + offset) * complex(math.cos(angle), math.sin(angle))
            spread = jitter * 1e6 * dedup_tol
            values += [
                centre + complex(rng.gauss(0, spread), rng.gauss(0, spread))
                for _ in range(copies)
            ]
        random.Random(len(values)).shuffle(values)
        assert_matches_reference(values, dedup_tol)

    def test_smallest_tolerance_ulp_neighbours(self):
        # at MIN_DEDUP_TOL the threshold is a few hundred ulps of the values
        values = [nudge(1.0, i) + 0j for i in range(0, 600, 7)]
        values += [complex(-3.0, nudge(1.5, i)) for i in range(0, 2000, 13)]
        assert_matches_reference(values, MIN_DEDUP_TOL)

    @pytest.mark.parametrize(
        "dedup_tol", [float(np.nextafter(MIN_DEDUP_TOL, 0)), 1e-15, -1.0, math.nan]
    )
    def test_rejects_tolerance_below_the_floor(self, dedup_tol):
        with pytest.raises(ValueError, match="dedup_tol"):
            SpectrumSet([1.0, 2.0], dedup_tol=dedup_tol)


def test_one_large_cluster_dedups_in_bounded_memory():
    # 5000 values in one cluster make 12.5 million candidate pairs; they are
    # tested a chunk at a time, so scratch memory stays small
    rng = np.random.default_rng(3)
    noise = rng.standard_normal(5000) + 1j * rng.standard_normal(5000)
    values = (2.0 + 1e-12 * noise).tolist()
    tracemalloc.start()
    try:
        s = SpectrumSet(values)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(s) == 1
    assert peak < 8 * 2**20


def test_unlinked_neighbouring_cells_dedup_in_bounded_memory():
    # two tight clusters of 2000 values, 1.05 thresholds apart, sit in
    # neighbouring cells whose 4 million point pairs must all be tested and
    # fail; they are tested a chunk at a time, so scratch memory stays small
    rng = np.random.default_rng(4)
    noise = rng.standard_normal(4000) + 1j * rng.standard_normal(4000)
    values = 0.5 + 1e-15 * noise
    values[2000:] += 1.05e-8
    values = values.tolist()
    tracemalloc.start()
    try:
        s = SpectrumSet(values)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(s) == 2
    assert peak < 2 * 2**20


def test_spectrum_set_scratch_is_at_most_48_bytes_per_point():
    # 200 000 eigenvalue-like points: copies of 1000 centres jittered far
    # inside the threshold.  Scratch is what the dedup allocates beyond its
    # input; about 42 bytes per point when measured
    rng = np.random.default_rng(5)
    centres = rng.standard_normal(1000) + 1j * rng.standard_normal(1000)
    count = 200_000
    noise = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    values = centres[rng.integers(0, 1000, count)] + 1e-11 * noise
    SpectrumSet(values[:1000])
    tracemalloc.start()
    try:
        s = SpectrumSet(values)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(s) == 1000
    assert peak <= 48 * count
