import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperspec.graphs import MAX_VERTEX_COUNT, LoopedGraph, cycle_graph, path_graph
from hyperspec.hypergraphs import (
    HalfEdgeMap,
    Hypergraph,
    from_json_dict,
    generalized_power,
    odd_bipartition,
    to_canonical_json,
)


def brute_odd_bipartition(h):
    """Oracle: try all 2^n vertex sets."""
    for bits in range(1 << h.vertex_count):
        if all(
            sum((bits >> v) & 1 for v in e) % 2 == 1 for e in h.edges
        ):
            return bits
    return None


def random_uniform_hypergraph(rng, n, k, m):
    edges = set()
    attempts = 0
    while len(edges) < m and attempts < 50 * m:
        edges.add(tuple(sorted(rng.sample(range(n), k))))
        attempts += 1
    return Hypergraph(n, k, sorted(edges))


def clique_is_connected(h):
    """Oracle: breadth-first search over the clique adjacency of the full edges."""
    adj = [set() for _ in range(h.vertex_count)]
    for e in h.full_edges:
        for v in e:
            adj[v].update(w for w in e if w != v)
    seen = {0}
    queue = [0]
    while queue:
        for w in adj[queue.pop(0)]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == h.vertex_count


@st.composite
def hypergraphs_with_loops(draw):
    """Small hypergraphs with loop edges and, often, isolated vertices."""
    k = draw(st.integers(2, 4))
    n = draw(st.integers(1, 9))
    vertices = st.integers(0, n - 1)
    full = st.sets(vertices, min_size=k, max_size=k).map(lambda e: tuple(sorted(e)))
    full_edges = draw(st.sets(full, max_size=6)) if n >= k else set()
    loops = draw(st.lists(st.sets(vertices, min_size=1, max_size=k - 1), max_size=4))
    return Hypergraph(n, k, sorted(full_edges) + [tuple(sorted(e)) for e in loops])


class TestGeneralizedPower:
    def test_triangle_half_blowup(self):
        h, halfmap = generalized_power(cycle_graph(3), 4, 2)
        assert h.vertex_count == 6
        assert h.k == 4
        assert len(h.edges) == 3
        assert all(len(e) == 4 for e in h.edges)
        assert halfmap.half_edges == ((0, 1), (2, 3), (4, 5))
        assert halfmap.anchors == (0, 2, 4)
        assert all(h.degree(v) == 2 for v in range(6))

    def test_triangle_fourth_power(self):
        h, halfmap = generalized_power(cycle_graph(3), 4, 1)
        # each base edge gains k - 2s = 2 fresh vertices: 3 + 3 * 2 in total
        assert h.vertex_count == 9
        assert len(h.edges) == 3
        assert all(len(e) == 4 for e in h.edges)
        assert halfmap.edge_vertices == ((3, 4), (5, 6), (7, 8))
        assert all(h.degree(v) == 1 for extra in halfmap.edge_vertices for v in extra)

    def test_triangle_sixth_power(self):
        h, _ = generalized_power(cycle_graph(3), 6, 1)
        assert h.vertex_count == 15  # 3 base + 3 edges * 4 new
        assert h.k == 6

    def test_single_loop_becomes_half_edge_loop(self):
        g = LoopedGraph(1, [], {0: 1})
        h, halfmap = generalized_power(g, 4, 2)
        assert h.vertex_count == 2
        assert h.edges == ((0, 1),)
        assert h.loop_edges == ((0, 1),)
        assert h.degree(0) == 1

    def test_loop_multiplicity_preserved(self):
        g = LoopedGraph(2, [(0, 1)], {0: 2})
        h, halfmap = generalized_power(g, 4, 2)
        assert h.degree(0) == 3  # one full edge plus two loop edges
        assert h.degree(2) == 1
        assert h.edges.count((0, 1)) == 2

    def test_degree_preservation_randomized(self):
        rng = random.Random(13)
        for _ in range(20):
            n = rng.randint(1, 6)
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.5
            ]
            loops = {v: rng.randint(0, 2) for v in range(n)}
            g = LoopedGraph(n, edges, loops)
            k = rng.choice([4, 6, 8])
            h, halfmap = generalized_power(g, k, k // 2)
            for u in range(n):
                for v in halfmap.half_edges[u]:
                    assert h.degree(v) == g.degree(u)

    def test_parity_and_range_errors(self):
        g = cycle_graph(3)
        with pytest.raises(ValueError):
            generalized_power(g, 2, 1)  # k too small
        with pytest.raises(ValueError):
            generalized_power(g, 4, 3)  # s beyond k/2
        with pytest.raises(ValueError):
            generalized_power(g, 4, 0)
        with pytest.raises(ValueError):
            generalized_power(LoopedGraph(1, [], {0: 1}), 6, 2)  # loops need s=k/2

    @pytest.mark.parametrize(
        "k, s, count",
        [
            (2**21, 2**20, 3 * 2**20),
            (2 * MAX_VERTEX_COUNT, 1, 3 + 3 * (2 * MAX_VERTEX_COUNT - 2)),
            (10**15, 1, 3 + 3 * (10**15 - 2)),
        ],
    )
    def test_power_past_the_vertex_cap(self, k, s, count):
        # checked before the half edges are laid out, so this allocates nothing large
        with pytest.raises(ValueError, match=f"vertex count {count} exceeds the cap"):
            generalized_power(cycle_graph(3), k, s)

    def test_power_at_the_vertex_cap(self):
        single = LoopedGraph(1, [])
        h, _ = generalized_power(single, 2 * MAX_VERTEX_COUNT, MAX_VERTEX_COUNT)
        assert h.vertex_count == MAX_VERTEX_COUNT
        with pytest.raises(ValueError, match="exceeds the cap"):
            generalized_power(single, 2 * MAX_VERTEX_COUNT + 2, MAX_VERTEX_COUNT + 1)


class TestHypergraphBasics:
    def test_degree_counts_all_edge_sizes(self):
        h = Hypergraph(4, 4, [(0, 1, 2, 3), (0, 1)])
        assert h.degree(0) == 2
        assert h.degree(3) == 1
        assert h.full_edges == ((0, 1, 2, 3),)
        assert h.loop_edges == ((0, 1),)
        assert not h.is_uniform

    def test_rejects_duplicate_full_edges(self):
        with pytest.raises(ValueError):
            Hypergraph(4, 4, [(0, 1, 2, 3), (3, 2, 1, 0)])

    def test_rejects_repeated_vertex_in_edge(self):
        with pytest.raises(ValueError):
            Hypergraph(4, 4, [(0, 1, 1, 2)])

    def test_connectivity_via_full_edges(self):
        h, _ = generalized_power(cycle_graph(3), 4, 2)
        assert h.is_connected()
        assert not Hypergraph(5, 4, [(0, 1, 2, 3)]).is_connected()

    def test_connectivity_of_the_empty_hypergraph_is_undefined(self):
        with pytest.raises(ValueError):
            Hypergraph(0, 4).is_connected()

    def test_loop_edges_do_not_connect(self):
        assert not Hypergraph(3, 4, [(0, 1, 2)]).is_connected()
        assert Hypergraph(1, 4, [(0,)]).is_connected()

    @settings(max_examples=300)
    @given(hypergraphs_with_loops())
    def test_connectivity_matches_the_clique_search(self, h):
        assert h.is_connected() == clique_is_connected(h)


class TestOddBipartition:
    def test_even_cycle_power_is_odd_bipartite(self):
        h, _ = generalized_power(cycle_graph(4), 4, 2)
        part = odd_bipartition(h)
        assert part is not None
        for e in h.edges:
            assert sum(1 for v in e if v in part) % 2 == 1

    def test_triangle_power_is_not(self):
        h, _ = generalized_power(cycle_graph(3), 4, 2)
        assert odd_bipartition(h) is None

    def test_single_edge(self):
        h = Hypergraph(4, 4, [(0, 1, 2, 3)])
        part = odd_bipartition(h)
        assert part is not None and len(part) % 2 == 1

    def test_free_vertices_stay_outside(self):
        # x0 + x1 + x2 + x3 = 1 pivots on x0; the free x1..x5 are zero
        assert odd_bipartition(Hypergraph(6, 4, [(0, 1, 2, 3)])) == (0,)
        assert odd_bipartition(Hypergraph(3, 2, [])) == ()

    def test_rejects_odd_rank(self):
        with pytest.raises(ValueError):
            odd_bipartition(Hypergraph(3, 3, [(0, 1, 2)]))

    def test_rejects_loops(self):
        with pytest.raises(ValueError):
            odd_bipartition(Hypergraph(4, 4, [(0, 1, 2, 3), (0, 1)]))

    def test_matches_base_bipartiteness_small(self):
        for n in (2, 3, 4):
            for bits in range(1 << (n * (n - 1) // 2)):
                pairs = list(itertools.combinations(range(n), 2))
                edges = [pairs[i] for i in range(len(pairs)) if (bits >> i) & 1]
                g = LoopedGraph(n, edges)
                if not g.is_connected():
                    continue
                h, _ = generalized_power(g, 4, 2)
                assert (odd_bipartition(h) is not None) == g.is_bipartite()

    def test_cored_powers_always_odd_bipartite(self):
        for g in (cycle_graph(3), cycle_graph(5), path_graph(4)):
            for k, s in ((4, 1), (6, 2), (6, 1)):
                h, _ = generalized_power(g, k, s)
                if k % 2 == 0:
                    assert odd_bipartition(h) is not None

    def test_gf2_against_brute_force(self):
        rng = random.Random(17)
        for _ in range(25):
            n = rng.randint(4, 14)
            k = rng.choice([4, 6])
            if k > n:
                continue
            h = random_uniform_hypergraph(rng, n, k, rng.randint(1, 8))
            got = odd_bipartition(h)
            want = brute_odd_bipartition(h)
            assert (got is None) == (want is None)
            if got is not None:
                for e in h.edges:
                    assert sum(1 for v in e if v in got) % 2 == 1

    def test_gf2_sixteen_vertices(self):
        rng = random.Random(18)
        h = random_uniform_hypergraph(rng, 16, 4, 10)
        got = odd_bipartition(h)
        want = brute_odd_bipartition(h)
        assert (got is None) == (want is None)


class TestJson:
    def test_roundtrip(self):
        h, halfmap = generalized_power(cycle_graph(3), 4, 2)
        text = to_canonical_json(h, halfmap)
        h2, halfmap2 = from_json_dict(json.loads(text))
        assert h2 == h
        assert halfmap2.half_edges == halfmap.half_edges

    def test_canonical_bytes_are_stable(self):
        h, halfmap = generalized_power(cycle_graph(4), 6, 3)
        assert to_canonical_json(h, halfmap) == to_canonical_json(h, halfmap)

    def test_missing_key_is_value_error(self):
        with pytest.raises(ValueError):
            from_json_dict({"n": 3, "edges": []})

    def test_half_edge_vertex_out_of_range(self):
        with pytest.raises(ValueError, match="must lie in"):
            from_json_dict({"n": 4, "k": 4, "edges": [], "half_edges": {"0": [0, 1], "1": [7, 9]}})

    @pytest.mark.parametrize(
        "payload",
        [
            {"n": 4, "k": 4, "edges": [[0, 1, 2, 3.5]]},
            {"n": 4, "k": 4, "edges": [[True, 0, 2, 3]]},
            {"n": "4", "k": 4, "edges": [[0, 1, 2, 3]]},
        ],
        ids=["float-vertex", "bool-vertex", "string-n"],
    )
    def test_values_must_be_json_integers(self, payload):
        with pytest.raises(ValueError, match="integer"):
            from_json_dict(payload)

    def test_half_edge_keys_must_be_contiguous(self):
        with pytest.raises(ValueError, match="keys"):
            from_json_dict({"n": 4, "k": 4, "edges": [], "half_edges": {"0": [0, 1], "2": [2, 3]}})


# integers stay small: a parsed vertex count is allocated per vertex
_SMALL = st.integers(-2, 9)
_JSON = st.recursive(
    st.none() | st.booleans() | st.floats() | _SMALL | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=12,
)


@st.composite
def power_hypergraphs(draw):
    n = draw(st.integers(1, 5))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    g = LoopedGraph(n, [e for e in pairs if draw(st.booleans())])
    k = draw(st.sampled_from([4, 6]))
    return generalized_power(g, k, draw(st.integers(1, k // 2)))


@st.composite
def hypergraph_payloads(draw):
    """Valid hypergraph JSON with up to two members or entries corrupted."""
    payload = json.loads(to_canonical_json(*draw(power_hypergraphs())))
    for _ in range(draw(st.integers(0, 2))):
        key = draw(st.sampled_from(["n", "k", "edges", "half_edges"]))
        action = draw(st.sampled_from(["replace", "drop", "edge", "vertex"]))
        if action == "replace":
            payload[key] = draw(_SMALL | _JSON)
        elif action == "drop":
            payload.pop(key, None)
        elif action == "edge" and isinstance(payload.get("edges"), list):
            payload["edges"].append(draw(st.lists(_SMALL, max_size=6)))
        elif action == "vertex" and payload.get("edges"):
            edge = draw(st.sampled_from(payload["edges"]))
            if isinstance(edge, list) and edge:
                edge[draw(st.integers(0, len(edge) - 1))] = draw(_SMALL | _JSON)
    return payload


class TestJsonFuzz:
    @settings(max_examples=200)
    @given(st.one_of(_JSON, hypergraph_payloads()))
    def test_any_json_parses_or_raises_value_error(self, payload):
        try:
            h, halfmap = from_json_dict(payload)
        except ValueError:
            return
        again = from_json_dict(json.loads(to_canonical_json(h, halfmap)))
        assert again == (h, halfmap)

    @given(power_hypergraphs())
    def test_canonical_json_round_trips(self, power):
        h, halfmap = power
        text = to_canonical_json(h, halfmap)
        h2, halfmap2 = from_json_dict(json.loads(text))
        assert h2 == h
        assert halfmap2.half_edges == halfmap.half_edges
        assert to_canonical_json(h2, halfmap2) == text
