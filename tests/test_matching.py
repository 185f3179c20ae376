import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathcover.graph import Graph
from pathcover.matching import (
    HalfIntegralMatching,
    SizeLimitError,
    cluster_matching_pairs,
    fractional_matching,
    max_deficiency,
)
from pathcover.oracle import petersen_graph
from pathcover.regularity import ClusterGraph

HALF = Fraction(1, 2)


def random_graph(n, p, seed):
    rng = random.Random(seed)
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def test_single_edge():
    m = fractional_matching(Graph(2, [(0, 1)]))
    assert m.value == 1
    assert m.weights == {(0, 1): Fraction(1)}


def test_triangle_half_weights():
    m = fractional_matching(Graph(3, [(0, 1), (0, 2), (1, 2)]))
    assert m.value == Fraction(3, 2)
    assert set(m.weights.values()) == {HALF}


def test_petersen_value_matches_deficiency_oracle():
    pet = petersen_graph()
    d, argmax = max_deficiency(pet)
    assert d == 0 and argmax == frozenset()
    assert fractional_matching(pet).value == Fraction(10 - 0, 2)


def test_deficiency_examples():
    assert max_deficiency(Graph(5, []))[0] == 5
    val, s = max_deficiency(Graph(4, [(0, 1), (0, 2), (0, 3)]))
    assert val == 2 and s == frozenset({0})
    k4 = Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    assert max_deficiency(k4)[0] == 0


def test_deficiency_size_cap():
    with pytest.raises(SizeLimitError):
        max_deficiency(Graph(17, []))


def test_long_path_graph_needs_no_deep_recursion():
    # the augmenting search on P_3000 runs deeper than the default recursion limit
    n = 3000
    m = fractional_matching(Graph(n, [(i, i + 1) for i in range(n - 1)]))
    assert m.value == n // 2
    assert set(m.weights.values()) == {Fraction(1)}


def test_even_cycle_support_is_rounded_integral():
    c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    m = fractional_matching(c4)
    assert m.value == 2
    assert all(w == 1 for w in m.weights.values())


def test_matching_validates_itself():
    g = random_graph(9, 0.5, seed=4)
    m = fractional_matching(g)
    m.validate(g)  # raises on any violation


def test_validate_rejects_overload():
    g = Graph(3, [(0, 1), (1, 2)])
    bad = HalfIntegralMatching({(0, 1): Fraction(1), (1, 2): Fraction(1)})
    with pytest.raises(ValueError):
        bad.validate(g)


def test_validate_rejects_even_cycle_support():
    c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    bad = HalfIntegralMatching({e: HALF for e in c4.edges})
    with pytest.raises(ValueError):
        bad.validate(c4)


def test_berge_tutte_exhaustive_small():
    # every labeled graph on up to 4 vertices
    for n in range(1, 5):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for mask in range(1 << len(pairs)):
            g = Graph(n, [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1])
            mu = fractional_matching(g).value
            d, _ = max_deficiency(g)
            assert mu == Fraction(n - d, 2)


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 9), st.integers(0, 10**6))
def test_berge_tutte_random(n, seed):
    g = random_graph(n, 0.45, seed)
    mu = fractional_matching(g).value
    d, _ = max_deficiency(g)
    assert mu == Fraction(n - d, 2)
    fractional_matching(g).validate(g)


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 9), st.integers(0, 10**6))
def test_value_monotone_under_edge_addition(n, seed):
    rng = random.Random(seed)
    g = random_graph(n, 0.3, seed)
    missing = [
        (u, v) for u in range(n) for v in range(u + 1, n) if not g.adjacent(u, v)
    ]
    if not missing:
        return
    extra = rng.choice(missing)
    g2 = Graph(n, list(g.edges) + [extra])
    assert fractional_matching(g2).value >= fractional_matching(g).value


# ----------------------------------------------------------- cluster pairings


def cluster_graph_of(t, edges):
    return ClusterGraph(t, Fraction(1, 2), {e: Fraction(1) for e in edges})


def test_weight_one_edge_splits_into_two_pairings():
    h = cluster_graph_of(2, [(0, 1)])
    f = HalfIntegralMatching({(0, 1): Fraction(1)})
    assert cluster_matching_pairs(h, f) == [(0, 1, 1, 1), (0, 2, 1, 2)]


def test_triangle_halves_use_each_half_once():
    h = cluster_graph_of(3, [(0, 1), (0, 2), (1, 2)])
    f = HalfIntegralMatching({e: HALF for e in [(0, 1), (0, 2), (1, 2)]})
    pairings = cluster_matching_pairs(h, f)
    assert len(pairings) == 3 == 2 * f.value
    used = [(i, a) for (i, a, j, b) in pairings] + [(j, b) for (i, a, j, b) in pairings]
    assert len(used) == len(set(used))


def test_empty_matching_empty_pairings():
    h = cluster_graph_of(3, [(0, 1)])
    assert cluster_matching_pairs(h, HalfIntegralMatching({})) == []


def test_pairings_reject_foreign_edges():
    h = cluster_graph_of(3, [(0, 1)])
    f = HalfIntegralMatching({(1, 2): Fraction(1)})
    with pytest.raises(ValueError):
        cluster_matching_pairs(h, f)


def test_pairing_count_is_twice_value_on_mixed_support():
    # one integral edge plus a 5-cycle of halves
    edges5 = [(2, 3), (3, 4), (4, 5), (5, 6), (2, 6)]
    h = cluster_graph_of(7, [(0, 1)] + edges5)
    weights = {(0, 1): Fraction(1)}
    weights.update({e: HALF for e in edges5})
    f = HalfIntegralMatching(weights)
    pairings = cluster_matching_pairs(h, f)
    assert len(pairings) == 2 * f.value == 7


def test_pairings_reject_half_weight_path():
    h = cluster_graph_of(3, [(0, 1), (1, 2)])
    f = HalfIntegralMatching({(0, 1): HALF, (1, 2): HALF})
    with pytest.raises(ValueError, match="path component"):
        cluster_matching_pairs(h, f)


def test_pairings_reject_half_weight_even_cycle():
    square = [(0, 1), (1, 2), (2, 3), (0, 3)]
    f = HalfIntegralMatching({e: HALF for e in square})
    with pytest.raises(ValueError, match="half-integral matching support has an even cycle"):
        cluster_matching_pairs(cluster_graph_of(4, square), f)


def test_pairings_reject_a_half_used_twice():
    # cluster 1 gives both halves to its weight-1 edge, then meets a half-weight triangle
    edges = [(0, 1), (1, 2), (2, 3), (1, 3)]
    f = HalfIntegralMatching({(0, 1): Fraction(1), (1, 2): HALF, (2, 3): HALF, (1, 3): HALF})
    with pytest.raises(ValueError, match=r"cluster half \(1,[12]\) used twice"):
        cluster_matching_pairs(cluster_graph_of(4, edges), f)


def test_pairings_reject_three_half_edges_at_a_vertex():
    star = [(0, 1), (0, 2), (0, 3)]
    f = HalfIntegralMatching({e: HALF for e in star})
    with pytest.raises(ValueError, match="more than two half-edges"):
        cluster_matching_pairs(cluster_graph_of(4, star), f)
