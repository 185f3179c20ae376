import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathcover.graph import (
    Graph,
    GraphFormatError,
    _pack_rows,
    complement,
    degree_into,
    density,
    induced_subgraph,
    read_graph,
    write_graph,
)
from pathcover.oracle import petersen_graph


def k33():
    return Graph(6, [(i, 3 + j) for i in range(3) for j in range(3)], bipartition=(range(3), range(3, 6)))


def test_density_complete_bipartite_is_one():
    assert density(k33(), range(3), range(3, 6)) == 1


def test_density_edgeless_is_zero():
    g = Graph(6, [])
    assert density(g, {0, 1}, {4, 5}) == 0


def test_density_k44_minus_perfect_matching():
    edges = [(i, 4 + j) for i in range(4) for j in range(4) if i != j]
    g = Graph(8, edges)
    assert density(g, range(4), range(4, 8)) == Fraction(3, 4)


def test_density_rejects_overlap_and_empty():
    g = Graph(4, [(0, 1)])
    with pytest.raises(ValueError):
        density(g, {0, 1}, {1, 2})
    with pytest.raises(ValueError):
        density(g, set(), {1, 2})


def test_degree_into_examples():
    k5 = Graph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
    assert degree_into(k5, 0, {1, 2, 3}) == 3
    path = Graph(3, [(0, 1), (1, 2)])
    assert degree_into(path, 1, {0, 2}) == 2
    pet = petersen_graph()
    for v in range(10):
        assert degree_into(pet, v, range(10)) == 3


def test_degree_into_invalid_vertex():
    with pytest.raises(ValueError):
        degree_into(Graph(3, []), 5, {0})


def cycle10():
    return Graph(10, [(i, (i + 1) % 10) for i in range(10)])


@pytest.mark.parametrize(
    "count",
    [
        lambda g: density(g, [0], [50]),
        lambda g: density(g, [50], [0]),
        lambda g: degree_into(g, 0, [50]),
        lambda g: density(g, [-1], [2]),
        lambda g: degree_into(g, 0, [-1]),
    ],
    ids=["density-b", "density-a", "degree_into", "density-negative", "degree_into-negative"],
)
def test_counts_reject_foreign_vertices(count):
    with pytest.raises(ValueError, match=r"0\.\.9"):
        count(cycle10())


@pytest.mark.parametrize("u, v", [(-1, 1), (1, -1), (50, 5), (5, 50)])
def test_adjacent_rejects_foreign_vertices(u, v):
    with pytest.raises(ValueError):
        cycle10().adjacent(u, v)


def test_read_simple_path():
    g = read_graph("3 2\n0 1\n1 2")
    assert g.n == 3 and sorted(g.edges) == [(0, 1), (1, 2)]


def test_read_rejects_loop_with_line_number():
    with pytest.raises(GraphFormatError) as err:
        read_graph("2 1\n0 0")
    assert err.value.line_no == 2


def test_read_rejects_duplicate_edge():
    with pytest.raises(GraphFormatError):
        read_graph("3 2\n0 1\n0 1")


def test_read_rejects_out_of_range():
    with pytest.raises(GraphFormatError):
        read_graph("3 1\n0 7")


def test_read_rejects_wrong_edge_count():
    with pytest.raises(GraphFormatError):
        read_graph("3 2\n0 1")


def test_comments_and_blank_lines_ignored():
    g = read_graph("# a path\n3 2\n\n0 1\n# middle\n1 2\n")
    assert g.m == 2


def test_bipartite_header_round_trip():
    text = write_graph(k33())
    assert "bipartite 3" in text
    g = read_graph(text)
    assert g.bipartition == (frozenset({0, 1, 2}), frozenset({3, 4, 5}))


def test_bipartite_header_must_precede_edges():
    with pytest.raises(GraphFormatError):
        read_graph("4 1\n0 2\nbipartite 2")


@pytest.mark.parametrize(
    "text, line_no, message",
    [
        ("# g\n3 2 1\n", 2, "expected header 'n m'"),
        ("3 x\n", 1, "header values must be integers"),
        ("-3 2\n", 1, "header values must be nonnegative"),
        ("4 0\nbipartite\n", 2, "expected 'bipartite k'"),
        ("4 0\nbipartite two\n", 2, "bipartite size must be an integer"),
        ("4 0\nbipartite 5\n", 2, "bipartite size 5 out of range"),
        ("3 1\n0 1 2\n", 2, "expected 'u v', got '0 1 2'"),
        ("3 1\n0 x\n", 2, "edge endpoints must be integers"),
        ("# no header\n\n", 1, "missing header 'n m'"),
        ("4 1\nbipartite 2\n0 1\n", 1, "edge (0,1) does not cross the bipartition"),
    ],
    ids=[
        "header-arity", "header-int", "header-negative", "bipartite-arity", "bipartite-int", "bipartite-range",
        "edge-arity", "edge-int", "missing-header", "graph-error",
    ],
)
def test_read_format_errors_name_their_line(text, line_no, message):
    # one row per raise site of read_graph that the other tests do not reach
    with pytest.raises(GraphFormatError) as err:
        read_graph(text)
    assert err.value.line_no == line_no
    assert str(err.value) == f"line {line_no}: {message}"


def test_equal_graphs_hash_alike():
    a, b = read_graph("3 2\n0 1\n1 2\n"), Graph(3, [(1, 2), (0, 1)])
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != "3 2" and a.__eq__("3 2") is NotImplemented


def test_write_rejects_non_prefix_bipartition():
    g = Graph(4, [(0, 1), (2, 3)], bipartition=({0, 2}, {1, 3}))
    with pytest.raises(ValueError):
        write_graph(g)


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 5)])


def test_graph_rejects_bad_bipartition():
    with pytest.raises(ValueError):
        Graph(3, [(0, 1)], bipartition=({0, 1}, {1, 2}))
    with pytest.raises(ValueError):
        Graph(3, [(0, 1)], bipartition=({0, 1}, {2}))  # edge inside X


def test_induced_subgraph_relabels():
    g = Graph(5, [(0, 2), (2, 4), (1, 3)])
    sub, mapping = induced_subgraph(g, [0, 2, 4])
    assert sub.n == 3 and sorted(sub.edges) == [(0, 1), (1, 2)]
    assert mapping == (0, 2, 4)


@pytest.mark.parametrize("keep", [[0, 7], [-1, 0], [3]])
def test_induced_subgraph_rejects_foreign_vertices(keep):
    with pytest.raises(ValueError):
        induced_subgraph(Graph(3, [(0, 1), (1, 2)]), keep)


def test_complement_of_empty_is_complete():
    g = complement(Graph(4, []))
    assert g.m == 6


@st.composite
def graphs(draw, max_n=8, bipartite=False):
    n = draw(st.integers(min_value=1, max_value=max_n))
    # a bipartite draw has X = 0..split-1 and only crossing pairs
    split = draw(st.integers(min_value=0, max_value=n)) if bipartite else None
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if split is None or u < split <= v]
    picks = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    bip = None if split is None else (range(split), range(split, n))
    return Graph(n, [p for p, keep in zip(pairs, picks) if keep], bipartition=bip)


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_complement_is_an_involution(g):
    h = complement(g)
    assert complement(h) == g
    assert g.m + h.m == g.n * (g.n - 1) // 2
    assert not any(h.adjacent(u, v) for u, v in g.edges)


@settings(max_examples=60, deadline=None)
@given(graphs(bipartite=True))
def test_bipartite_complement_keeps_sides(g):
    h = complement(g)
    x, y = g.bipartition
    assert h.bipartition == (x, y)
    for side, other in ((x, y), (y, x)):
        for v in side:
            assert h.degree(v) == len(other) - g.degree(v)
    assert complement(h) == g


@settings(max_examples=60, deadline=None)
@given(st.one_of(graphs(), graphs(bipartite=True)), st.randoms(use_true_random=False))
def test_induced_subgraph_matches_edge_list_definition(g, rng):
    keep = sorted(rng.sample(range(g.n), rng.randint(0, g.n)))
    sub, mapping = induced_subgraph(g, keep)
    assert mapping == tuple(keep)
    new_of = {old: new for new, old in enumerate(keep)}
    expected = sorted((new_of[u], new_of[v]) for u, v in g.edges if u in new_of and v in new_of)
    assert list(sub.edges) == expected
    if g.bipartition is not None:
        sides = tuple(frozenset(new_of[v] for v in side if v in new_of) for side in g.bipartition)
        assert sub.bipartition == sides


@settings(max_examples=60, deadline=None)
@given(st.one_of(graphs(), graphs(bipartite=True)))
def test_edges_sorted_and_counted(g):
    assert list(g.edges) == sorted(set(g.edges))
    assert g.m == len(g.edges) == sum(g.degrees()) // 2
    assert all(u < v and g.adjacent(u, v) for u, v in g.edges)


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_write_read_round_trip(g):
    assert read_graph(write_graph(g)) == g


@settings(max_examples=60, deadline=None)
@given(graphs(), st.randoms(use_true_random=False))
def test_density_symmetric_and_bounded(g, rng):
    if g.n < 2:
        return
    verts = list(range(g.n))
    rng.shuffle(verts)
    cut = rng.randint(1, g.n - 1)
    a, b = set(verts[:cut]), set(verts[cut:])
    d = density(g, a, b)
    assert d == density(g, b, a)
    assert 0 <= d <= 1
    # d == 1 iff every cross pair is an edge
    assert (d == 1) == all(g.adjacent(u, v) for u in a for v in b)


@settings(max_examples=60, deadline=None)
@given(graphs(), st.randoms(use_true_random=False))
def test_degree_sum_equals_cut_edges(g, rng):
    if g.n < 2:
        return
    verts = list(range(g.n))
    rng.shuffle(verts)
    cut = rng.randint(1, g.n - 1)
    a, b = set(verts[:cut]), set(verts[cut:])
    e_ab = sum(1 for u, v in g.edges if (u in a) != (v in a))
    assert sum(degree_into(g, v, b) for v in a) == e_ab


def _matrix(g: Graph) -> np.ndarray:
    a = np.zeros((g.n, g.n), dtype=bool)
    for u, v in g.edges:
        a[u, v] = a[v, u] = True
    return a


@settings(max_examples=60, deadline=None)
@given(st.one_of(graphs(), graphs(bipartite=True)))
def test_packed_matrix_rows_match_edge_list_constructor(g):
    assert Graph._from_masks(_pack_rows(_matrix(g)), g.bipartition) == g


@pytest.mark.parametrize(
    "n, edges, bip, message",
    [
        (2, [(1, 1)], None, r"self-loop at 1"),
        (3, [(0, 1), (1, 0)], None, r"duplicate edge \(0,1\)"),
        (3, [(0, 3)], None, r"edge \(0,3\) out of range"),
        (3, [(0, 1), (0, 2), (1, 2)], ([0], [1, 2]), r"edge \(1,2\) does not cross"),
        (3, [], ([0, 1], [1, 2]), "overlap"),
        (3, [], ([0], [1]), "cover"),
    ],
    ids=["loop", "duplicate", "out-of-range", "inside-side", "overlap", "short"],
)
def test_edge_list_constructor_rejects_invalid_input(n, edges, bip, message):
    with pytest.raises(ValueError, match=message):
        Graph(n, edges, bipartition=bip)


I0, I100 = np.int64(0), np.int64(100)


@pytest.mark.parametrize(
    "check",
    [
        lambda g: Graph(101, [(I0, I100)]).m == 1,
        lambda g: Graph(101, [(0, 100)], bipartition=(np.arange(50), np.arange(50, 101))) == g,
        lambda g: g.adjacent(I0, I100),
        lambda g: density(g, [0], [I100]) == 1,
        lambda g: degree_into(g, 0, [I100]) == 1,
    ],
    ids=["edges", "sides", "adjacent", "density", "degree_into"],
)
def test_numpy_integer_ids_are_vertex_ids(check):
    # 1 << np.int64(100) wraps, so each id must become a Python int first
    assert check(Graph(101, [(0, 100)], bipartition=(range(50), range(50, 101))))


@pytest.mark.parametrize(
    "call",
    [
        lambda g: Graph(3, [(0.0, 1)]),
        lambda g: Graph(3, [(0, 1)], bipartition=([0.0], [1, 2])),
        lambda g: g.adjacent(0, 1.0),
        lambda g: density(g, [0], [1.0]),
        lambda g: degree_into(g, 0, [1.0]),
    ],
    ids=["edges", "sides", "adjacent", "density", "degree_into"],
)
def test_float_ids_are_rejected(call):
    with pytest.raises(TypeError):
        call(Graph(3, [(0, 1)]))
