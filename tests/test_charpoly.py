"""Characteristic-polynomial classes: exact arithmetic mod p, exact spectrum
sizes against sympy, and the gates that guard the eigenvalue groups."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperspec import _charpoly, _orbits, reduction
from hyperspec.graphs import LoopedGraph, complete_graph, connected_subsets, cycle_graph
from hyperspec.linalg import COMPLEX_CAP, ConvergenceError
from hyperspec.reduction import phase_classes, spectrum_power

# a triangle with a pendant vertex
PAW = LoopedGraph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])


def exact_power_sums(matrix, p):
    """tr(M^j) mod p, j = 1..s, in Python integers (object arrays)."""
    rows = np.array([[int(x) % p for x in row] for row in matrix.tolist()], dtype=object)
    power, sums = rows, []
    for _ in range(len(rows)):
        sums.append(int(power.trace()) % p)
        power = (power @ rows) % p
    return sums


class TestArithmeticModP:
    @pytest.mark.parametrize("k, size", [(4, COMPLEX_CAP), (12, COMPLEX_CAP), (10**6, 8)])
    def test_primes_fit_the_exact_bound(self, k, size):
        for p, r in _charpoly.primes(k, size):
            assert p % k == 1 and size * (p - 1) ** 2 < 2**53
            assert pow(r, k, p) == 1 and all(pow(r, d, p) != 1 for d in range(1, k) if k % d == 0)

    def test_a_k_without_two_primes_is_an_input_error(self):
        with pytest.raises(ValueError, match="fewer than two primes"):
            _charpoly.primes(2 * 10**8, 2)

    @pytest.mark.parametrize("extreme", [False, True], ids=["random", "largest"])
    def test_power_sums_are_exact_at_the_complex_cap(self, extreme):
        # lazy residues lie in (-p, p): the largest magnitudes make every
        # float64 sum of the computation as large as it can be
        k = 8
        rng = np.random.default_rng(7)
        for p, _ in _charpoly.primes(k, COMPLEX_CAP):
            if extreme:
                signs = rng.choice([-1, 1], (COMPLEX_CAP, COMPLEX_CAP))
                upper = np.triu(signs * (p - 1))
            else:
                upper = np.triu(rng.integers(1 - p, p, (COMPLEX_CAP, COMPLEX_CAP)))
            matrix = upper + np.triu(upper, 1).T
            got = _charpoly.power_sums(matrix[None].astype(float), p)
            assert got[0].astype(np.int64).tolist() == exact_power_sums(matrix, p)

    @pytest.mark.parametrize("kind", ["adjacency", "laplacian", "signless"])
    def test_residues_are_the_images_of_the_reduced_matrices(self, kind):
        # w^j goes to r^j; for k = 4, r^2 = -1 and w = i
        g, k = PAW, 4
        subset, phases = (0, 1, 2, 3), (0, 1, 1, 0)
        stack = _charpoly.residues(
            g.degree_vector(), g.adjacency_matrix(), np.array([subset]), k, np.array([phases]), kind
        )
        matrix = reduction.reduced_matrix(g, k, subset, phases, kind)
        for (p, r), image in zip(_charpoly.primes(k, 4), stack[:, 0]):
            # i -> r: real part plus r times imaginary part
            want = (np.rint(matrix.real) + r * np.rint(matrix.imag)).astype(np.int64) % p
            assert image.astype(np.int64).tolist() == want.tolist()

    def test_multiplicities_from_power_sums(self):
        p = 101
        cases = [([1, 1, 1, 2, 3, 3], (1, 2, 3)), ([5, 7, 9], (1, 1, 1)), ([4, 4], (2,))]
        for roots, want in cases:
            sums = [sum(pow(x, j, p) for x in roots) % p for j in range(1, len(roots) + 1)]
            assert _charpoly.multiplicities(sums, p) == want


def keys(g, subset, k, phases, kind):
    """power_sums of the images at both primes of k, one array per prime."""
    index = np.array([subset])
    stacks = _charpoly.residues(g.degree_vector(), g.adjacency_matrix(), index, k, phases, kind)
    return [_charpoly.power_sums(stack, p) for stack, (p, _) in zip(stacks, _charpoly.primes(k, len(subset)))]


class TestOrbitKeys:
    # sigma is +1 on one side of a 2-colouring and -1 on the other; every
    # row l is shifted to l + c sigma and re-reduced into [0, k/2)

    @pytest.mark.parametrize("kind", ["adjacency", "laplacian", "signless"])
    @pytest.mark.parametrize("k", [6, 8])
    @pytest.mark.parametrize(
        "g, subset, sigma",
        [
            (cycle_graph(6), (0, 1, 2, 3, 4, 5), (1, -1, 1, -1, 1, -1)),
            (PAW, (0, 2, 3), (1, -1, 1)),
        ],
        ids=["C6", "paw-path"],
    )
    def test_a_bipartite_shift_keeps_the_power_sums(self, g, subset, sigma, k, kind):
        rows = reduction._class_phases(len(subset), k, range((k // 2) ** len(subset)))
        want = keys(g, subset, k, rows, kind)
        for c in range(1, k // 2):
            shifted = (rows + c * np.array(sigma)) % (k // 2)
            assert not np.array_equal(shifted, rows)
            for got, each in zip(keys(g, subset, k, shifted, kind), want):
                assert np.array_equal(got, each)
        assert _orbits.gauge_rows(g, subset, k, len(rows)) == len(rows) // (k // 2)

    def test_an_odd_cycle_has_shifts_that_change_the_power_sums(self):
        g, k, subset = cycle_graph(5), 8, (0, 1, 2, 3, 4)
        rows = reduction._class_phases(5, k, range((k // 2) ** 5))
        want = keys(g, subset, k, rows, "laplacian")
        # no sign vector is a 2-colouring of C5, so each one has rows whose
        # shift by c = 1 changes their keys
        for signs in itertools.product((1, -1), repeat=4):
            shifted = (rows + np.array((1, *signs))) % (k // 2)
            got = keys(g, subset, k, shifted, "laplacian")
            assert any((a != b).any() for a, b in zip(got, want))
        assert _orbits.gauge_rows(g, subset, k, len(rows)) == len(rows)

    @pytest.mark.parametrize("kind", ["adjacency", "laplacian", "signless"])
    @pytest.mark.parametrize(
        "g, subset, k",
        [(complete_graph(4), (0, 1, 2), 8), (cycle_graph(5), (0, 1, 2, 3, 4), 6)],
        ids=["K4-triangle", "C5"],
    )
    def test_an_automorphism_keeps_the_power_sums(self, g, subset, k, kind):
        # m_a = l_(tau(a)) for every automorphism tau of the labelled G[U],
        # on subsets that no gauge shift covers
        rows = reduction._class_phases(len(subset), k, range((k // 2) ** len(subset)))
        want = keys(g, subset, k, rows, kind)
        maps = _orbits.automorphisms(_orbits.labelled(g, subset))
        assert len(maps) == {3: 3, 5: 5}[len(subset)]
        for image in maps:
            assert not np.array_equal(rows[:, image], rows)
            for got, each in zip(keys(g, subset, k, rows[:, image], kind), want):
                assert np.array_equal(got, each)


class TestGroupGates:
    def test_groups_follow_the_multiplicities(self):
        values = np.array([0.0, 1e-6, 2.0, 3.0, 3.0 + 2e-6j])
        means = _charpoly.group(values, (1, 2, 2), 1e-3)
        assert means.tolist() == [5e-7, 2.0, 3.0 + 1e-6j]

    def test_a_group_spread_above_its_bound_is_caught(self):
        with pytest.raises(ConvergenceError, match="spread 6.667e-01 exceeds 1.000e-03"):
            _charpoly.group(np.array([0.0, 1e-6, 1.0]), (3,), 1e-3)

    def test_group_sizes_that_disagree_with_the_multiplicities_are_caught(self):
        # the closest pairs give two groups of two, not one and three
        message = r"sizes \[2, 2\] differ from the multiplicities \[1, 3\]"
        with pytest.raises(ConvergenceError, match=message):
            _charpoly.group(np.array([0.0, 1e-6, 5.0, 5.0 + 1e-6]), (1, 3), 1e-3)

    def test_a_forced_bad_prime_is_caught(self, monkeypatch):
        # mod 17 two distinct eigenvalues of a paw matrix meet; with both
        # primes at 17, d is too small and its group spans them
        monkeypatch.setattr(_charpoly, "primes", lambda k, size: ((17, 9), (17, 9)))
        with pytest.raises(ConvergenceError, match="group spread .* at subset"):
            spectrum_power(PAW, 8)

    @pytest.mark.parametrize("which", [0, 1])
    def test_one_bad_prime_changes_nothing(self, monkeypatch, which):
        want = spectrum_power(PAW, 8).to_json_dict()
        good = _charpoly.primes

        def one_bad(k, size):
            chosen = list(good(k, size))
            chosen[which] = (17, 9)
            return tuple(chosen)

        monkeypatch.setattr(_charpoly, "primes", one_bad)
        assert spectrum_power(PAW, 8).to_json_dict() == want


def sympy_exact_sizes(g, k, kind="laplacian"):
    """(distinct eigenvalues, distinct characteristic polynomials) over every
    planned matrix, in exact arithmetic over Q(w): the degree of the least
    common multiple of the square-free parts."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    w = sympy.exp(2 * sympy.pi * sympy.I / k)
    field = sympy.QQ.algebraic_field(w)
    powers = [field.one]
    for _ in range(2 * k):
        powers.append(powers[-1] * field.from_sympy(w))
    sign = -1 if kind == "laplacian" else 1
    degrees, adjacency = g.degree_vector(), g.adjacency_matrix()
    polys = set()
    for subset in connected_subsets(g, g.vertex_count):
        size = len(subset)
        for phases in phase_classes(size, k):
            rows = [
                [
                    int(degrees[u]) * field.one
                    if a == b
                    else sign * int(adjacency[u, v]) * powers[phases[a] + phases[b]]
                    for b, v in enumerate(subset)
                ]
                for a, u in enumerate(subset)
            ]
            polys.add(tuple(DomainMatrix(rows, (size, size), field).charpoly()))
    x = sympy.symbols("x")
    common = sympy.Poly(1, x, domain=field)
    for chi in polys:
        common = common.lcm(sympy.Poly(list(chi), x, domain=field).sqf_part())
    return common.degree(), len(polys)


def count_solved(monkeypatch):
    """Route reduction's certified complex solves through a counter of rows."""
    rows = []
    solve = reduction.eig_complex_stack

    def counting(ms):
        rows.append(len(ms))
        return solve(ms)

    monkeypatch.setattr(reduction, "eig_complex_stack", counting)
    return rows


class TestExactCounts:
    # Each spectrum has exactly as many values as sympy's exact eigenvalues,
    # and solves one matrix per distinct characteristic polynomial.  C5 at
    # k = 8 gives 713 in a sympy run of about 30 s, too slow to repeat here.
    @pytest.mark.parametrize(
        "g, k, values",
        [(cycle_graph(3), 4, 11), (cycle_graph(5), 4, 53), (complete_graph(4), 6, 55)],
        ids=["C3-k4", "C5-k4", "K4-k6"],
    )
    def test_sizes_match_the_sympy_oracle(self, monkeypatch, g, k, values):
        distinct, classes = sympy_exact_sizes(g, k)
        solved = count_solved(monkeypatch)
        assert len(spectrum_power(g, k).values) == distinct == values
        assert sum(solved) == classes

    @pytest.mark.parametrize(
        "g, k, values",
        [(cycle_graph(5), 8, 713), (complete_graph(4), 8, 129), (complete_graph(5), 6, 97)],
        ids=["C5-k8", "K4-k8", "K5-k6"],
    )
    def test_pinned_sizes(self, g, k, values):
        assert len(spectrum_power(g, k).values) == values

    @pytest.mark.parametrize(
        "g, k",
        [(cycle_graph(5), 4), (cycle_graph(5), 8), (complete_graph(4), 8)],
        ids=["C5-k4", "C5-k8", "K4-k8"],
    )
    def test_the_size_does_not_depend_on_the_dedup_tolerance(self, g, k):
        sizes = {len(spectrum_power(g, k, dedup_tol=tol).values) for tol in (1e-8, 1e-6, 1e-4)}
        assert len(sizes) == 1

    @pytest.mark.parametrize(
        "g, k",
        [(cycle_graph(3), 4), (cycle_graph(5), 8), (complete_graph(4), 8)],
        ids=["C3-k4", "C5-k8", "K4-k8"],
    )
    def test_laplacian_and_signless_sizes_agree_when_4_divides_k(self, g, k):
        laplacian, signless = (spectrum_power(g, k, kind) for kind in ("laplacian", "signless"))
        assert len(laplacian.values) == len(signless.values)
        assert laplacian.spectrum.set_equal(signless.spectrum)


def relabelled(g, order):
    return LoopedGraph(g.vertex_count, [(order[u], order[v]) for u, v in g.edges])


class TestLabellingInvariance:
    # before the classes, these four labellings of C7 at k = 6 reported 2905,
    # 2761, 2746 and 2935 values
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_c7_sixth_power_has_2098_values_in_any_labelling(self, seed):
        order = list(range(7))
        random.Random(seed).shuffle(order)
        assert len(spectrum_power(relabelled(cycle_graph(7), order), 6).values) == 2098

    @settings(max_examples=25)
    @given(data=st.data())
    def test_relabelling_keeps_the_size(self, data):
        n = data.draw(st.integers(2, 5), label="n")
        tree = {(data.draw(st.integers(0, v - 1)), v) for v in range(1, n)}
        extra = {(u, v) for u in range(n) for v in range(u + 1, n) if data.draw(st.booleans())}
        g = LoopedGraph(n, sorted(tree | extra))
        order = data.draw(st.permutations(range(n)), label="order")
        k = data.draw(st.sampled_from([4, 6, 8]), label="k")
        kind = data.draw(st.sampled_from(["adjacency", "laplacian", "signless"]), label="kind")
        sizes = [len(spectrum_power(h, k, kind).values) for h in (g, relabelled(g, order))]
        assert sizes[0] == sizes[1]
