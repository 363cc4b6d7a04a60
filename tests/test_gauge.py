import itertools
import json
import math
import random
import tracemalloc

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hyperspec import gauge as gauge_module
from hyperspec.cli import main
from hyperspec.gauge import (
    ModularSystem,
    _factorize,
    _solve_prime_power,
    build_similarity_system,
    certificate_report,
    solve_mod_m,
)
from hyperspec.graphs import MAX_VERTEX_COUNT, LoopedGraph, cycle_graph
from hyperspec.hypergraphs import (
    Hypergraph,
    generalized_power,
    odd_bipartition,
    to_canonical_json,
)
from hyperspec.tensors import Gauge, verify_diagonal_similarity


def brute_solve(system):
    """Oracle: exhaustive search over all modulus^n assignments."""
    m, n = system.modulus, system.variable_count
    for candidate in itertools.product(range(m), repeat=n):
        if system.satisfied_by(candidate):
            return candidate
    return None


def make_system(m, coeff_rows, rhs, nvars=None):
    if nvars is None:
        nvars = max((len(row) for row in coeff_rows), default=0)
    rows = tuple(
        (tuple((j, c % m) for j, c in enumerate(row) if c % m), r % m)
        for row, r in zip(coeff_rows, rhs)
    )
    return ModularSystem(m, nvars, rows)


def reference_solve_prime_power(system, p, e):
    """Oracle: the pure-Python list-of-lists elimination mod p^e.

    The same minimal-valuation pivoting, saturation rows and back-substitution
    as the array solver, one Python integer at a time.
    """
    q = p**e
    nvars = system.variable_count
    active = []
    for row, r in system.rows:
        dense = [0] * nvars
        for var, c in row:
            dense[var] = c % q
        active.append(dense + [r % q])
    pivots = []
    for col in range(nvars):
        best = None
        for idx, row in enumerate(active):
            a = row[col]
            if a == 0:
                continue
            v = 0
            while a % p == 0:
                a //= p
                v += 1
            if best is None or v < best[1]:
                best = (idx, v)
        if best is None:
            continue
        idx, v = best
        row = active.pop(idx)
        inverse = pow(row[col] // p**v, -1, q)
        row = [(x * inverse) % q for x in row]
        if v > 0:
            saturation = [(x * p ** (e - v)) % q for x in row]
            if any(saturation[:nvars]):
                active.append(saturation)
            elif saturation[nvars] != 0:
                return None
        for other in active:
            c = other[col]
            if c:
                t = c // p**v
                for j in range(nvars + 1):
                    other[j] = (other[j] - t * row[j]) % q
        pivots.append((row, col, v))
    for row in active:
        if any(row[:nvars]):
            raise AssertionError("elimination left a coefficient unprocessed")
        if row[nvars] != 0:
            return None
    solution = [0] * nvars
    for row, col, v in reversed(pivots):
        s = row[nvars]
        for j in range(col + 1, nvars):
            if row[j]:
                s -= row[j] * solution[j]
        s %= q
        if s % p**v:
            return None
        solution[col] = s // p**v
    return solution


def random_connected_graph(n, extra, rng):
    """Random spanning tree plus ``extra`` further edges where room allows."""
    edges = {tuple(sorted((v, rng.randrange(v)))) for v in range(1, n)}
    target = min(n * (n - 1) // 2, n - 1 + extra)
    while len(edges) < target:
        edges.add(tuple(sorted(rng.sample(range(n), 2))))
    return LoopedGraph(n, sorted(edges))


MERSENNE_61 = 2**61 - 1
# prime-power factors of each test modulus
FACTORS = {m: _factorize(m) for m in (2, 4, 8, 9, 12, 24, 27, 49)}


@st.composite
def modular_systems(draw):
    m = draw(st.sampled_from(sorted(FACTORS)))
    nvars = draw(st.integers(0, 6))
    # small prime-power multiples make pivots of positive valuation
    entry = st.one_of(
        st.just(0), st.sampled_from([2, 3, 4, 6, 8, 9, 27]), st.integers(0, m - 1)
    )
    rows = draw(st.lists(st.lists(entry, min_size=nvars, max_size=nvars), max_size=8))
    rhs = draw(st.lists(st.integers(0, m - 1), min_size=len(rows), max_size=len(rows)))
    return make_system(m, rows, rhs, nvars)


@st.composite
def twin_systems(draw):
    """Systems whose variables copy a few base columns, scaled.

    A copy scaled by 1 is a twin of its base column.  One scaled by a proper
    divisor of m vanishes mod some prime powers of m only: a column of 3s
    at m = 24 is zero mod 3 but not mod 8, where its copies are twins.
    """
    m = draw(st.sampled_from(sorted(FACTORS)))
    base = draw(st.integers(1, 4))
    entry = st.one_of(st.just(0), st.just(1), st.integers(0, m - 1))
    rows = draw(st.lists(st.lists(entry, min_size=base, max_size=base), max_size=8))
    rhs = draw(st.lists(st.integers(0, m - 1), min_size=len(rows), max_size=len(rows)))
    scales = st.sampled_from([1, 1] + [d for d in range(2, m) if m % d == 0])
    copies = st.tuples(st.integers(0, base - 1), scales)
    picks = draw(st.lists(copies, min_size=1, max_size=10))
    coeff_rows = [[row[j] * c for j, c in picks] for row in rows]
    return make_system(m, coeff_rows, rhs, len(picks))


def distinct_columns(system, q):
    """Oracle: the number of distinct coefficient columns mod q."""
    columns = [[0] * len(system.rows) for _ in range(system.variable_count)]
    for i, (row, _) in enumerate(system.rows):
        for var, c in row:
            columns[var][i] = c % q
    return len({tuple(column) for column in columns})


class TestBuildSimilaritySystem:
    def test_triangle_power_m4_solvable_with_anchor_phases(self):
        h, halfmap = generalized_power(cycle_graph(3), 4, 2)
        system = build_similarity_system(h, 4)
        anchor_solution = tuple(
            1 if v in halfmap.anchors else 0 for v in range(h.vertex_count)
        )
        assert system.satisfied_by(anchor_solution)
        gauge = solve_mod_m(system)
        assert gauge is not None
        assert verify_diagonal_similarity(h, "laplacian", "signless", 1, gauge)

    def test_triangle_sixth_power_unsolvable(self):
        h, _ = generalized_power(cycle_graph(3), 6, 3)
        for m in (2, 6):
            assert solve_mod_m(build_similarity_system(h, m)) is None
        assert solve_mod_m(full_similarity_system(h, 12)) is None

    def test_m2_system_reads_as_odd_bipartiteness(self):
        h, _ = generalized_power(cycle_graph(4), 4, 2)
        system = build_similarity_system(h, 2)
        gauge = solve_mod_m(system)
        assert gauge is not None
        part = tuple(v for v, p in enumerate(gauge.phases) if p)
        for e in h.edges:
            assert sum(1 for v in e if v in part) % 2 == 1

    def test_one_system_certifies_both_similarities(self):
        h, _ = generalized_power(cycle_graph(3), 4, 2)
        gauge = solve_mod_m(full_similarity_system(h, 8))
        assert gauge is not None
        assert verify_diagonal_similarity(h, "laplacian", "signless", 1, gauge)
        assert verify_diagonal_similarity(h, "adjacency", "adjacency", -1, gauge)

    def test_rejects_odd_modulus(self):
        h, _ = generalized_power(cycle_graph(3), 4, 2)
        with pytest.raises(ValueError):
            build_similarity_system(h, 5)

    def test_rejects_loops(self):
        with pytest.raises(ValueError):
            build_similarity_system(Hypergraph(4, 4, [(0, 1, 2, 3), (0, 1)]), 4)

    @pytest.mark.parametrize("k, m", [(4, 8), (6, 4), (6, 12), (4, 12)])
    def test_rejects_a_modulus_not_dividing_k(self, k, m):
        h, _ = generalized_power(cycle_graph(3), k, k // 2)
        with pytest.raises(ValueError, match="does not divide"):
            build_similarity_system(h, m)


def full_similarity_system(h, m):
    """Oracle: k rows per edge, sum over e minus k theta_i = m/2 for each member i."""
    k = h.k
    rows = []
    for edge in h.full_edges:
        for i in edge:
            coeffs = {v: 1 for v in edge}
            coeffs[i] = (1 - k) % m
            rows.append((tuple(sorted((v, c % m) for v, c in coeffs.items())), m // 2))
    return ModularSystem(m, h.vertex_count, tuple(rows))


def lean_similarity_system(h, m):
    """Oracle: the row sum_e theta - k theta_f = m/2 per edge with first member f,
    plus k (theta_v - theta_f) = 0 for its other members unless m divides k."""
    k = h.k
    rows = []
    for f, *rest in h.full_edges:
        rows.append((((f, (1 - k) % m),) + tuple((v, 1) for v in rest), m // 2))
        if k % m:
            rows.extend((((f, -k % m), (v, k % m)), 0) for v in rest)
    return ModularSystem(m, h.vertex_count, tuple(rows))


@st.composite
def uniform_hypergraphs(draw):
    """Random k-uniform hypergraphs with few spare vertices, so edges overlap."""
    k = draw(st.sampled_from([4, 6, 8, 12]))
    n = draw(st.integers(k, k + 5))
    members = st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True)
    edges = draw(st.lists(members.map(lambda e: tuple(sorted(e))), max_size=7, unique=True))
    return Hypergraph(n, k, edges)


@st.composite
def relabelled_powers(draw):
    """Half powers G^{k,k/2} of small graphs, vertices shuffled.

    A half power is odd-bipartite exactly when G is bipartite, so these
    supply the unsolvable systems that random hypergraphs rarely give.
    """
    k = draw(st.sampled_from([4, 6, 8, 12]))
    n = draw(st.integers(3, 5))
    pairs = list(itertools.combinations(range(n), 2))
    g = LoopedGraph(n, draw(st.lists(st.sampled_from(pairs), min_size=3, unique=True)))
    h, _ = generalized_power(g, k, k // 2)
    perm = draw(st.permutations(range(h.vertex_count)))
    return Hypergraph(h.vertex_count, k, [[perm[v] for v in e] for e in h.edges])


@st.composite
def similarity_cases(draw):
    h = draw(st.one_of(uniform_hypergraphs(), relabelled_powers()))
    k = h.k
    # 4 and 6 neither divide nor are divided by some ranks (6 and k=4, 8; 4 and k=6)
    m = draw(st.sampled_from([2, 4, 6, k, 2 * k, 3 * k, 4 * k]))
    return h, m


class TestLeanSimilaritySystem:
    @settings(max_examples=300)
    @given(similarity_cases())
    # C3 and C5 powers: certificates at m = k and 2k for k = 4, none at k = 6
    @example((generalized_power(cycle_graph(3), 4, 2)[0], 8))
    @example((generalized_power(cycle_graph(5), 6, 3)[0], 12))
    @example((generalized_power(cycle_graph(3), 6, 3)[0], 18))
    def test_same_solutions_as_the_full_system(self, case):
        h, m = case
        m = math.gcd(h.k, m)
        lean_system = build_similarity_system(h, m)
        full_system = full_similarity_system(h, m)
        assert lean_system == lean_similarity_system(h, m)
        assert len(lean_system.rows) == len(h.full_edges)
        lean = solve_mod_m(lean_system)
        full = solve_mod_m(full_system)
        assert (lean is None) == (full is None)
        if lean is not None:
            assert full_system.satisfied_by(lean.phases)
            assert lean_system.satisfied_by(full.phases)

    @settings(max_examples=300, deadline=None)
    @given(similarity_cases())
    @example((generalized_power(cycle_graph(3), 4, 2)[0], 8))
    @example((generalized_power(cycle_graph(5), 6, 3)[0], 12))
    @example((generalized_power(cycle_graph(4), 6, 3)[0], 4))
    def test_report_agrees_with_the_full_system(self, case):
        h, m = case
        assume(h.is_connected())
        k = h.k
        report = certificate_report(h, (2, k, m))
        entries = report["moduli"]
        for probe in {2, k, m}:
            entry = entries[str(probe)]
            full_system = full_similarity_system(h, probe)
            assert entry["solvable"] == (solve_mod_m(full_system) is not None)
            if entry["solvable"]:
                gauge = Gauge.from_json_dict(entry["gauge"])
                assert gauge.modulus == probe
                assert full_system.satisfied_by(gauge.phases)
        if entries[str(m)]["solvable"]:
            assert entries[str(k)]["solvable"]
        assert report["odd_bipartite"] == entries["2"]["solvable"]
        found = report["summary"][0].startswith("exact certificate found")
        assert found == entries[str(k)]["solvable"]
        # at 2 and k the collapsed system is the lean one, so the bytes agree
        for probe in (2, k):
            lean = solve_mod_m(lean_similarity_system(h, probe))
            want = None if lean is None else lean.to_json_dict()
            assert entries[str(probe)]["gauge"] == want

    @settings(max_examples=100)
    @given(uniform_hypergraphs())
    def test_m2_is_one_parity_row_per_edge(self, h):
        system = build_similarity_system(h, 2)
        assert system.rows == tuple(
            (tuple((v, 1) for v in e), 1) for e in h.full_edges
        )
        part = odd_bipartition(h)
        if part is not None:
            for e in h.full_edges:
                assert sum(1 for v in e if v in part) % 2 == 1


class TestSolveModM:
    @pytest.mark.parametrize(
        "row",
        [
            ((0, 1), (0, 1)),  # names variable 0 twice
            ((1, 1), (0, 1)),  # variables out of order
            ((-1, 1),),  # would address the right-hand side column
            ((1, 1),),  # past the last variable
        ],
    )
    def test_malformed_rows_are_rejected(self, row):
        system = ModularSystem(4, 1, ((row, 2),))
        with pytest.raises(ValueError):
            solve_mod_m(system)

    def test_inconsistent_row(self):
        system = make_system(4, [[0]], [1])
        assert solve_mod_m(system) is None

    def test_deterministic_witness(self):
        h, _ = generalized_power(cycle_graph(3), 4, 2)
        system = full_similarity_system(h, 8)
        assert solve_mod_m(system) == solve_mod_m(system)

    def test_modulus_over_the_cap_is_rejected(self):
        with pytest.raises(ValueError, match="exceeds the solver cap"):
            solve_mod_m(ModularSystem(MAX_VERTEX_COUNT + 2, 1, ((((0, 1),), 1),)))
        # the cap itself is solved, on int64
        system = ModularSystem(MAX_VERTEX_COUNT, 1, ((((0, 3),), 6),))
        assert solve_mod_m(system).phases == (2,)

    def test_high_prime_power_regression(self):
        # minimal lifts without saturation rows would miss this solution
        system = make_system(8, [[4, 1], [0, 4]], [3, 4])
        gauge = solve_mod_m(system)
        assert gauge is not None
        assert system.satisfied_by(gauge.phases)

    def test_completeness_against_brute_force(self):
        rng = random.Random(41)
        for _ in range(400):
            m = rng.choice([2, 3, 4, 5, 6, 8, 9, 12, 16, 18, 24, 27])
            nvars = rng.randint(1, 3)
            if nvars * math.log2(m) > 20:
                continue
            nrows = rng.randint(1, 4)
            coeffs = [[rng.randrange(m) for _ in range(nvars)] for _ in range(nrows)]
            rhs = [rng.randrange(m) for _ in range(nrows)]
            system = make_system(m, coeffs, rhs)
            got = solve_mod_m(system)
            want = brute_solve(system)
            assert (got is None) == (want is None)
            if got is not None:
                assert system.satisfied_by(got.phases)

    def test_solution_structure_edge_sums_constant_at_shared_vertices(self):
        # when theta solves the system, the edge sum is pinned by each member
        h, _ = generalized_power(cycle_graph(4), 4, 2)
        entry = certificate_report(h, (8,))["moduli"]["8"]
        assert entry["solvable"]
        gauge = Gauge.from_json_dict(entry["gauge"])
        m, k = 8, h.k
        for e in h.full_edges:
            total = sum(gauge.phases[v] for v in e) % m
            for v in e:
                assert (total - k * gauge.phases[v]) % m == m // 2


def trial_division(m):
    """Oracle: prime factorization by trial division."""
    factors = {}
    d = 2
    while d * d <= m:
        while m % d == 0:
            factors[d] = factors.get(d, 0) + 1
            m //= d
        d += 1
    if m > 1:
        factors[m] = factors.get(m, 0) + 1
    return sorted(factors.items())


class TestFactorize:
    def test_small_moduli_against_trial_division(self):
        rng = random.Random(47)
        moduli = list(range(1, 3000)) + [rng.randrange(2, 10**9) for _ in range(200)]
        for m in moduli:
            assert _factorize(m) == trial_division(m)

    def test_certificate_at_a_modulus_with_a_large_prime_factor(self, tmp_path):
        h, halfmap = generalized_power(cycle_graph(3), 4, 2)
        path = tmp_path / "c3-k4.json"
        path.write_text(to_canonical_json(h, halfmap))
        out = tmp_path / "cert.json"
        moduli = f"4,{2 * MERSENNE_61}"
        args = ["certificate", "--input", str(path), "--moduli", moduli]
        assert main(args + ["--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert set(payload["moduli"]) == {"4", str(2 * MERSENNE_61)}
        assert payload["moduli"]["4"]["solvable"]


class TestSolverAgainstReference:
    @settings(max_examples=400, deadline=None)
    @given(modular_systems())
    # the saturation row of the first pivot is the second pivot; minimal
    # lifts alone would miss the solution
    @example(make_system(8, [[4, 1], [0, 4]], [3, 4]))
    # a saturation row with zero coefficients and a nonzero right-hand side
    @example(make_system(4, [[2]], [1]))
    # inconsistent only after elimination: the second saturation row is 0 = 2
    @example(make_system(4, [[2, 0], [2, 2]], [0, 1]))
    # zero rows, consistent and inconsistent, and no rows at all
    @example(make_system(12, [[0, 0], [3, 4], [0, 0]], [0, 5, 0]))
    @example(make_system(24, [[0, 0, 0], [1, 2, 3]], [7, 1]))
    @example(make_system(9, [], [], 3))
    def test_random_systems(self, system):
        for p, e in FACTORS[system.modulus]:
            assert _solve_prime_power(system, p, e) == reference_solve_prime_power(
                system, p, e
            )

    @settings(max_examples=300, deadline=None)
    @given(twin_systems())
    # copies of a column of 3s: twins mod 8, zero mod 3
    @example(make_system(24, [[3, 1, 3, 3], [3, 2, 3, 0]], [3, 1]))
    # the first twin pivots at valuation 1; its saturation row keeps the twins equal
    @example(make_system(8, [[2, 1, 2], [4, 0, 4]], [2, 4]))
    def test_systems_with_planted_twins(self, system):
        for p, e in FACTORS[system.modulus]:
            assert _solve_prime_power(system, p, e) == reference_solve_prime_power(
                system, p, e
            )

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(modular_systems(), twin_systems()))
    @example(make_system(9, [], [], 3))
    def test_rows_are_read_in_one_pass(self, system):
        walks = []

        class Rows(tuple):
            def __iter__(self):
                walks.append(1)
                return super().__iter__()

        counted = ModularSystem(system.modulus, system.variable_count, Rows(system.rows))
        for p, e in FACTORS[system.modulus]:
            walks.clear()
            got = _solve_prime_power(counted, p, e)
            assert len(walks) <= 1
            assert got == reference_solve_prime_power(system, p, e)

    def test_similarity_systems_of_generalized_powers(self):
        rng = random.Random(45)
        for k in (4, 6, 8, 12):
            # s = k/2 repeats each base column s times; below k/2 the k - 2s
            # private vertices of an edge are twins as well
            for s in sorted({k // 2, k // 2 - 1, 1}) * 2:
                g = random_connected_graph(rng.randint(3, 7), rng.randint(0, 4), rng)
                h, _ = generalized_power(g, k, s)
                collapsed = (build_similarity_system(h, 2), build_similarity_system(h, k))
                for system in collapsed:
                    assert distinct_columns(system, k) < h.vertex_count
                for system in collapsed + (full_similarity_system(h, 2 * k),):
                    for p, e in _factorize(system.modulus):
                        assert _solve_prime_power(
                            system, p, e
                        ) == reference_solve_prime_power(system, p, e)

    def test_solve_mod_m_memory_is_bounded(self):
        g = random_connected_graph(60, 61, random.Random(46))
        h, _ = generalized_power(g, 12, 6)
        system = full_similarity_system(h, 24)
        tracemalloc.start()
        try:
            gauge = solve_mod_m(system)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert gauge is not None
        assert peak < 6 * 2**20

    def test_twin_columns_share_one_array_column(self):
        # the k=24 half power has 720 variables in 60 twin classes; an array
        # with a column per variable would take about 1.6 MiB
        g = random_connected_graph(60, 61, random.Random(46))
        h, _ = generalized_power(g, 24, 12)
        system = build_similarity_system(h, 24)
        tracemalloc.start()
        try:
            gauge = solve_mod_m(system)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert gauge is not None
        assert peak < 2**19


class TestZeroRows:
    """Rows whose coefficients all vanish mod one prime power of the modulus."""

    @pytest.mark.parametrize(
        "system, mod3",
        [
            # zero mod 3 but not mod 8, ahead of and between live rows
            (
                make_system(
                    24, [[3, 6, 9], [1, 2, 0], [12, 0, 21], [0, 5, 1]], [9, 5, 6, 7]
                ),
                [1, 2, 0],
            ),
            # zero mod 3 with a nonzero right-hand side: unsolvable mod 3 only
            (make_system(24, [[3, 0], [1, 1]], [1, 0]), None),
            # every row zero mod 3, so zeros solve the 3-component
            (make_system(24, [[3, 6], [9, 15]], [6, 3]), [0, 0]),
            # zero mod 4 from the start, next to a positive-valuation pivot
            (make_system(12, [[8, 0], [2, 3]], [4, 1]), [2, 0]),
        ],
    )
    def test_matches_reference_and_brute_force(self, system, mod3):
        assert _solve_prime_power(system, 3, 1) == mod3
        for p, e in FACTORS[system.modulus]:
            assert _solve_prime_power(system, p, e) == reference_solve_prime_power(
                system, p, e
            )
        gauge = solve_mod_m(system)
        want = brute_solve(system)
        assert (gauge is None) == (want is None)
        if gauge is not None:
            assert system.satisfied_by(gauge.phases)


class TestCertificateReport:
    def test_triangle_half_blowup(self):
        h, _ = generalized_power(cycle_graph(3), 4, 2)
        report = certificate_report(h)
        assert not report["odd_bipartite"]
        assert not report["moduli"]["2"]["solvable"]
        assert report["moduli"]["4"]["solvable"]
        assert report["moduli"]["8"]["solvable"]

    def test_square_half_blowup_real_certificate(self):
        h, _ = generalized_power(cycle_graph(4), 4, 2)
        report = certificate_report(h)
        assert report["odd_bipartite"]
        assert report["moduli"]["2"]["solvable"]

    def test_triangle_sixth_power_no_certificates(self):
        h, _ = generalized_power(cycle_graph(3), 6, 3)
        report = certificate_report(h)
        assert not report["odd_bipartite"]
        assert all(not entry["solvable"] for entry in report["moduli"].values())
        assert report["summary"][0].startswith("no invertible diagonal matrix")

    def test_every_reported_gauge_verifies(self):
        rng = random.Random(43)
        for _ in range(10):
            n = rng.randint(4, 7)
            k = 4
            edges = set()
            while len(edges) < rng.randint(1, 4):
                edges.add(tuple(sorted(rng.sample(range(n), k))))
            h = Hypergraph(n, k, sorted(edges))
            if not h.is_connected():
                continue
            report = certificate_report(h)
            for m_str, entry in report["moduli"].items():
                if entry["solvable"]:
                    gauge = Gauge.from_json_dict(entry["gauge"])
                    assert verify_diagonal_similarity(
                        h, "laplacian", "signless", 1, gauge
                    )

    def test_m2_matches_odd_bipartition_on_random_hypergraphs(self):
        rng = random.Random(44)
        for _ in range(20):
            n = rng.randint(4, 9)
            k = rng.choice([4, 6])
            if k > n:
                continue
            edges = set()
            while len(edges) < rng.randint(1, 5):
                edges.add(tuple(sorted(rng.sample(range(n), k))))
            h = Hypergraph(n, k, sorted(edges))
            system = build_similarity_system(h, 2)
            assert (solve_mod_m(system) is not None) == (
                odd_bipartition(h) is not None
            )

    def test_requires_connected(self):
        with pytest.raises(ValueError):
            certificate_report(Hypergraph(5, 4, [(0, 1, 2, 3)]))

    @pytest.mark.parametrize("m", [0, -4, 5, 1])
    def test_rejects_a_modulus_that_is_not_even_and_positive(self, m):
        h, _ = generalized_power(cycle_graph(3), 4, 2)
        with pytest.raises(ValueError, match="even modulus"):
            certificate_report(h, (4, m))

    def test_odd_rank_is_named_before_any_odd_order(self):
        # gcd(5, 4) = 1 is not even, but the rank is what is wrong
        with pytest.raises(ValueError, match="even edge rank"):
            certificate_report(Hypergraph(5, 5, [range(5)]), (4,))

    def test_default_moduli_solve_two_systems(self, monkeypatch):
        h, _ = generalized_power(cycle_graph(5), 8, 4)
        built = []
        real = gauge_module.build_similarity_system

        def counting(h, m):
            built.append(m)
            return real(h, m)

        monkeypatch.setattr(gauge_module, "build_similarity_system", counting)
        report = certificate_report(h)
        assert built == [2, 8]
        assert report["moduli"]["16"]["gauge"]["phase"] == {
            v: 2 * p for v, p in report["moduli"]["8"]["gauge"]["phase"].items()
        }
