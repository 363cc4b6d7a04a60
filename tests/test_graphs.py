import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperspec.graphs import (
    LoopedGraph,
    as_subset,
    complete_graph,
    connected_subsets,
    cycle_graph,
    format_edge_list,
    parse_edge_list,
    path_graph,
)


def brute_connected_subsets(g, max_size):
    """Oracle: filter all 2^n - 1 subsets through a connectivity check."""
    out = []
    n = g.vertex_count
    for size in range(1, min(n, max_size) + 1):
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
    return sorted(out)


def random_graph(rng, n, p=0.45):
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return LoopedGraph(n, edges)


class TestDegree:
    def test_triangle_is_two_regular(self):
        g = cycle_graph(3)
        assert [g.degree(v) for v in range(3)] == [2, 2, 2]

    def test_loop_adds_one(self):
        g = LoopedGraph(3, [(0, 1), (0, 2), (1, 2)], {0: 1})
        assert g.degree(0) == 3
        assert g.degree(1) == 2

    def test_isolated_vertex(self):
        g = LoopedGraph(2, [])
        assert g.degree(0) == 0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            cycle_graph(3).degree(3)


class TestConnectivity:
    def test_triangle(self):
        assert cycle_graph(3).is_connected()

    def test_two_disjoint_edges(self):
        assert not LoopedGraph(4, [(0, 1), (2, 3)]).is_connected()

    def test_single_vertex_with_loop(self):
        assert LoopedGraph(1, [], {0: 1}).is_connected()

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            LoopedGraph(0).is_connected()


class TestBipartite:
    def test_even_cycle(self):
        assert cycle_graph(4).is_bipartite()

    def test_odd_cycles(self):
        assert not cycle_graph(3).is_bipartite()
        assert not cycle_graph(5).is_bipartite()

    def test_loops_rejected(self):
        with pytest.raises(ValueError):
            LoopedGraph(2, [(0, 1)], {0: 1}).is_bipartite()


class TestModifiedInducedSubgraph:
    def test_triangle_pair(self):
        sub = cycle_graph(3).modified_induced_subgraph((0, 1))
        assert sub.edges == ((0, 1),)
        assert sub.loops == (1, 1)

    def test_triangle_singleton(self):
        sub = cycle_graph(3).modified_induced_subgraph((0,))
        assert sub.edges == ()
        assert sub.loops == (2,)

    def test_full_subset_is_identity(self):
        g = cycle_graph(3)
        assert g.modified_induced_subgraph((0, 1, 2)) == g

    def test_empty_subset_rejected(self):
        with pytest.raises(ValueError):
            cycle_graph(3).modified_induced_subgraph(())

    def test_degrees_preserved_randomized(self):
        rng = random.Random(2)
        for _ in range(40):
            g = random_graph(rng, rng.randint(2, 8))
            size = rng.randint(1, g.vertex_count)
            subset = tuple(sorted(rng.sample(range(g.vertex_count), size)))
            sub = g.modified_induced_subgraph(subset)
            got = sorted(sub.degree(i) for i in range(len(subset)))
            want = sorted(g.degree(v) for v in subset)
            assert got == want

    def test_laplacian_is_principal_submatrix(self):
        rng = random.Random(3)
        for _ in range(25):
            g = random_graph(rng, rng.randint(2, 7))
            size = rng.randint(1, g.vertex_count)
            subset = tuple(sorted(rng.sample(range(g.vertex_count), size)))
            sub = g.modified_induced_subgraph(subset)
            full = g.laplacian_matrix()
            idx = np.ix_(subset, subset)
            assert np.array_equal(sub.laplacian_matrix(), full[idx])


class TestMatrices:
    def test_triangle_laplacian_spectrum(self):
        # circulant formula: eigenvalues 2 - 2 cos(2 pi j / 3)
        want = sorted(2 - 2 * np.cos(2 * np.pi * j / 3) for j in range(3))
        got = sorted(np.linalg.eigvalsh(cycle_graph(3).laplacian_matrix()))
        assert np.allclose(got, want)
        assert np.allclose(got, [0.0, 3.0, 3.0])

    def test_triangle_signless_spectrum(self):
        got = sorted(np.linalg.eigvalsh(cycle_graph(3).signless_laplacian_matrix()))
        assert np.allclose(got, [1.0, 1.0, 4.0])

    def test_modified_pair_laplacian(self):
        sub = cycle_graph(3).modified_induced_subgraph((0, 1))
        assert np.array_equal(sub.laplacian_matrix(), [[2, -1], [-1, 2]])
        assert np.allclose(sorted(np.linalg.eigvalsh(sub.laplacian_matrix())), [1, 3])

    def test_adjacency_has_zero_diagonal_with_loops(self):
        g = LoopedGraph(2, [(0, 1)], {0: 2})
        assert np.array_equal(g.adjacency_matrix(), [[0, 1], [1, 0]])
        assert np.array_equal(g.laplacian_matrix(), [[3, -1], [-1, 1]])


class TestConnectedSubsets:
    def test_triangle_lists_all_seven(self):
        got = list(connected_subsets(cycle_graph(3), 3))
        assert got == [(0,), (0, 1), (0, 1, 2), (0, 2), (1,), (1, 2), (2,)]

    def test_path_excludes_the_gap(self):
        got = list(connected_subsets(path_graph(3), 3))
        assert got == [(0,), (0, 1), (0, 1, 2), (1,), (1, 2), (2,)]
        assert (0, 2) not in got

    def test_max_size_one(self):
        got = list(connected_subsets(complete_graph(5), 1))
        assert got == [(v,) for v in range(5)]

    def test_against_brute_force_randomized(self):
        rng = random.Random(11)
        for _ in range(30):
            g = random_graph(rng, rng.randint(1, 7))
            cap = rng.randint(1, g.vertex_count)
            assert list(connected_subsets(g, cap)) == brute_connected_subsets(g, cap)

    def test_against_brute_force_ten_vertices(self):
        g = random_graph(random.Random(5), 10, p=0.3)
        assert list(connected_subsets(g, 10)) == brute_connected_subsets(g, 10)

    def test_structured_graphs_exhaustive(self):
        for g in (cycle_graph(6), path_graph(6), complete_graph(5)):
            for cap in (1, 3, g.vertex_count):
                assert list(connected_subsets(g, cap)) == brute_connected_subsets(g, cap)


class TestSubsetCanonicalization:
    def test_sorted_and_validated(self):
        assert as_subset([2, 0], 3) == (0, 2)
        with pytest.raises(ValueError):
            as_subset([0, 0], 3)
        with pytest.raises(ValueError):
            as_subset([3], 3)
        with pytest.raises(ValueError):
            as_subset([], 3)


class TestEdgeListFormat:
    def test_roundtrip(self):
        g = cycle_graph(5)
        assert parse_edge_list(format_edge_list(g)) == g

    def test_header_and_lines(self):
        text = "3 2\n0 1\n1 2\n"
        g = parse_edge_list(text)
        assert g.edges == ((0, 1), (1, 2))
        assert format_edge_list(g) == text

    def test_rejects_loops(self):
        with pytest.raises(ValueError):
            parse_edge_list("2 1\n1 1\n")

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            parse_edge_list("3 2\n0 1\n")

    def test_rejects_duplicate_edges(self):
        with pytest.raises(ValueError):
            parse_edge_list("3 2\n0 1\n1 0\n")

    def test_negative_vertex_count_names_the_header(self):
        with pytest.raises(ValueError, match="header 'n m' needs nonnegative counts, got '-2 0'"):
            parse_edge_list("-2 0\n")

    @pytest.mark.parametrize(
        "text, line",
        [("3 two\n", "3 two"), ("2.5 1\n0 1\n", "2.5 1"), ("3 1\n0 b\n", "0 b")],
    )
    def test_non_integer_tokens_name_the_line(self, text, line):
        with pytest.raises(ValueError, match="expected integers") as info:
            parse_edge_list(text)
        assert repr(line) in str(info.value)


class TestValidation:
    def test_rejects_self_edge(self):
        with pytest.raises(ValueError):
            LoopedGraph(2, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            LoopedGraph(2, [(0, 2)])

    def test_rejects_negative_loops(self):
        with pytest.raises(ValueError):
            LoopedGraph(2, [], {0: -1})


# tokens stay small: a parsed vertex count is allocated per vertex
_TOKENS = st.one_of(
    st.integers(-3, 9).map(str),
    st.sampled_from(["", "x", "1.5", "0x1", "+2", "-0", "1e3", "\u0663", "\t"]),
)


@st.composite
def loop_free_graphs(draw):
    n = draw(st.integers(0, 7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return LoopedGraph(n, [e for e in pairs if draw(st.booleans())])


@st.composite
def edge_list_texts(draw):
    """A valid edge list with up to two lines replaced, dropped or repeated."""
    lines = format_edge_list(draw(loop_free_graphs())).splitlines()
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(lines) - 1))
        action = draw(st.sampled_from(["replace", "drop", "repeat"]))
        if action == "replace":
            lines[at] = " ".join(draw(st.lists(_TOKENS, max_size=3)))
        elif action == "drop":
            del lines[at]
        else:
            lines.insert(at, lines[at])
        if not lines:
            break
    return draw(st.sampled_from(["\n", "\r\n", "\n\n"])).join(lines)


class TestEdgeListFuzz:
    @settings(max_examples=200)
    @given(st.one_of(st.text(), edge_list_texts()))
    def test_any_text_parses_or_raises_value_error(self, text):
        try:
            g = parse_edge_list(text)
        except ValueError:
            return
        assert parse_edge_list(format_edge_list(g)) == g

    @given(loop_free_graphs())
    def test_format_round_trips(self, g):
        text = format_edge_list(g)
        assert parse_edge_list(text) == g
        assert format_edge_list(parse_edge_list(text)) == text
