"""The map search behind the orbit cuts of the key pass, against networkx
(a test oracle only, not a dependency)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperspec import _orbits
from hyperspec.graphs import LoopedGraph, complete_graph, cycle_graph

nx = pytest.importorskip("networkx")
from networkx.algorithms.isomorphism import GraphMatcher  # noqa: E402


@st.composite
def labelled_graphs(draw, size=None):
    """A labelled graph on up to 6 positions, in the form that
    ``_orbits.labelled`` returns: labels from a small range, so that many
    positions share one, and random edges, so that it may be disconnected."""
    size = size or draw(st.integers(1, 6))
    labels = tuple(draw(st.integers(1, 3)) for _ in range(size))
    masks = [0] * size
    for a in range(size):
        for b in range(a + 1, size):
            if draw(st.booleans()):
                masks[a] |= 1 << b
                masks[b] |= 1 << a
    return labels, tuple(masks)


def shuffled(graph, order):
    """``graph`` with position a moved to ``order[a]``."""
    labels, masks = graph
    size = len(labels)
    moved_labels, moved_masks = [0] * size, [0] * size
    for a in range(size):
        moved_labels[order[a]] = labels[a]
        moved_masks[order[a]] = sum(1 << order[b] for b in range(size) if masks[a] >> b & 1)
    return tuple(moved_labels), tuple(moved_masks)


def as_networkx(graph):
    labels, masks = graph
    h = nx.Graph()
    h.add_nodes_from((a, {"label": label}) for a, label in enumerate(labels))
    h.add_edges_from((a, b) for a in range(len(labels)) for b in range(a) if masks[a] >> b & 1)
    return h


def same_label(x, y):
    return x["label"] == y["label"]


def keeps_labels_and_edges(a, b, image):
    (labels, masks), (to_labels, to_masks) = a, b
    size = len(labels)
    assert sorted(image) == list(range(size))
    return all(labels[x] == to_labels[image[x]] for x in range(size)) and all(
        (masks[x] >> y & 1) == (to_masks[image[x]] >> image[y] & 1)
        for x in range(size)
        for y in range(size)
    )


def group_order(maps, size):
    """The order of the group that ``maps`` (images of each position)
    generate, by closure."""
    group = {tuple(range(size))}
    frontier = list(group)
    while frontier:
        element = frontier.pop()
        for image in maps:
            product = tuple(image[element[x]] for x in range(size))
            if product not in group:
                group.add(product)
                frontier.append(product)
    return len(group)


class TestMapSearch:
    @settings(max_examples=200)
    @given(data=st.data())
    def test_the_isomorphism_verdict_agrees_with_networkx(self, data):
        a = data.draw(labelled_graphs(), label="a")
        size = len(a[0])
        # half the draws are a relabelled copy of a, perhaps with one edge
        # toggled, so that both verdicts are common
        if data.draw(st.booleans(), label="copy"):
            b = shuffled(a, data.draw(st.permutations(range(size)), label="order"))
            if size > 1 and data.draw(st.booleans(), label="toggle"):
                x, y = data.draw(st.sampled_from([(x, y) for x in range(size) for y in range(x)]))
                masks = list(b[1])
                masks[x] ^= 1 << y
                masks[y] ^= 1 << x
                b = b[0], tuple(masks)
        else:
            b = data.draw(labelled_graphs(size), label="b")
        image = _orbits.isomorphism(a, b)
        want = nx.is_isomorphic(as_networkx(a), as_networkx(b), node_match=same_label)
        assert (image is not None) == want
        if image is not None:
            assert keeps_labels_and_edges(a, b, image)

    @settings(max_examples=200)
    @given(graph=labelled_graphs())
    def test_the_coset_representatives_generate_the_automorphism_group(self, graph):
        size = len(graph[0])
        maps = _orbits.automorphisms(graph)
        assert len(maps) <= size * (size - 1) // 2
        for image in maps:
            assert keeps_labels_and_edges(graph, graph, image)
        h = as_networkx(graph)
        count = sum(1 for _ in GraphMatcher(h, h, node_match=same_label).isomorphisms_iter())
        assert group_order(maps, size) == count

    @pytest.mark.parametrize(
        "g, order",
        [(complete_graph(5), 120), (cycle_graph(7), 14), (LoopedGraph(3, [(0, 1), (1, 2)]), 2)],
        ids=["K5", "C7", "P3"],
    )
    def test_named_groups(self, g, order):
        graph = _orbits.labelled(g, tuple(range(g.vertex_count)))
        assert group_order(_orbits.automorphisms(graph), g.vertex_count) == order

    def test_labels_hold_base_degrees(self):
        # the path 1-2-3 inside the paw 0-1-2-0, 2-3: the two ends of the
        # path have degrees 2 and 1 in the base, so the path has no symmetry
        paw = LoopedGraph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        graph = _orbits.labelled(paw, (1, 2, 3))
        first, middle, last = ((2, 1), ((3, 2),)), ((3, 2), ((1, 1), (2, 1))), ((1, 1), ((3, 2),))
        assert graph == ((first, middle, last), (0b010, 0b101, 0b010))
        assert _orbits.automorphisms(graph) == []
        assert _orbits.isomorphism(graph, _orbits.labelled(paw, (0, 2, 3))) == [0, 1, 2]
