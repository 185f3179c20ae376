import random
from fractions import Fraction

import pytest

from pathcover.graph import Graph, density
from pathcover.regularity import (
    CleaningFailed,
    build_cluster_graph,
    clean_super_regular,
    equitable_partition,
    is_eps_regular,
)

EPS14 = Fraction(1, 4)


def complete_pair(na, nb):
    return Graph(na + nb, [(i, na + j) for i in range(na) for j in range(nb)])


def half_graph(side):
    """Edge (i, side+j) iff i <= j; the classic irregular pair."""
    edges = [(i, side + j) for i in range(side) for j in range(side) if i <= j]
    return Graph(2 * side, edges)


def random_pair(side, p, seed):
    rng = random.Random(seed)
    edges = [
        (i, side + j)
        for i in range(side)
        for j in range(side)
        if rng.random() < p
    ]
    return Graph(2 * side, edges)


def witness_is_violator(g, a, b, eps, w):
    eps = Fraction(eps)
    assert len(w.x) * eps.denominator > eps.numerator * len(a)
    assert len(w.y) * eps.denominator > eps.numerator * len(b)
    dev = abs(density(g, w.x, w.y) - density(g, a, b))
    assert dev >= eps
    assert dev == w.deviation


# ------------------------------------------------------------------- partition


def test_partition_sizes_forced_even():
    g = Graph(10, [])
    p = equitable_partition(g, 2, seed=0)
    assert p.m == 4 and len(p.exceptional) == 2
    p.validate(g)


def test_partition_exact_split():
    g = Graph(12, [])
    p = equitable_partition(g, 3, seed=1)
    assert p.m == 4 and not p.exceptional
    p.validate(g)


def test_partition_invariants_on_random_graph():
    rng = random.Random(5)
    edges = [(u, v) for u in range(100) for v in range(u + 1, 100) if rng.random() < 0.3]
    g = Graph(100, edges)
    for seed in (0, 1):
        p = equitable_partition(g, 5, seed=seed)
        p.validate(g)
        assert p.t == 5 and p.m == 20


def test_partition_rejects_bad_t():
    g = Graph(4, [])
    with pytest.raises(ValueError):
        equitable_partition(g, 5)
    with pytest.raises(ValueError):
        equitable_partition(g, 0)


def test_partition_determinism():
    g = Graph(30, [(i, i + 1) for i in range(29)])
    assert equitable_partition(g, 3, seed=7) == equitable_partition(g, 3, seed=7)


# ------------------------------------------------------------------ regularity


def test_complete_pair_regular_any_eps():
    g = complete_pair(6, 6)
    for eps in (Fraction(1, 10), Fraction(3, 10), Fraction(1, 2)):
        v = is_eps_regular(g, range(6), range(6, 12), eps)
        assert v.regular and v.mode == "exact"


def test_edgeless_pair_regular():
    g = Graph(12, [])
    v = is_eps_regular(g, range(6), range(6, 12), Fraction(1, 10))
    assert v.regular


def test_half_graph_irregular_with_witness():
    g = half_graph(8)
    v = is_eps_regular(g, range(8), range(8, 16), EPS14)
    assert not v.regular and v.mode == "exact"
    witness_is_violator(g, range(8), range(8, 16), EPS14, v.witness)


def test_heuristic_mode_on_large_half_graph():
    g = half_graph(30)
    v = is_eps_regular(g, range(30), range(30, 60), EPS14)
    assert v.mode == "heuristic"
    assert not v.regular
    witness_is_violator(g, range(30), range(30, 60), EPS14, v.witness)


def test_heuristic_witness_implies_exact_irregular():
    # force heuristic mode on a small pair; the witness it finds must also be
    # confirmed by the decisive exhaustive check
    g = half_graph(7)
    a, b = range(7), range(7, 14)
    heur = is_eps_regular(g, a, b, EPS14, exact_cap=0)
    assert heur.mode == "heuristic"
    assert not heur.regular  # degree-prefix family exposes the half-graph
    witness_is_violator(g, a, b, EPS14, heur.witness)
    exact = is_eps_regular(g, a, b, EPS14)
    assert not exact.regular and exact.mode == "exact"


def test_regularity_rejects_bad_inputs():
    g = Graph(4, [])
    with pytest.raises(ValueError):
        is_eps_regular(g, {0, 1}, {1, 2}, EPS14)
    with pytest.raises(ValueError):
        is_eps_regular(g, set(), {1}, EPS14)
    with pytest.raises(ValueError):
        is_eps_regular(g, {0}, {1}, 0)


@pytest.mark.parametrize(
    "a, b", [([0, 1], [50]), (range(3), range(20, 33)), ([-1, 0], [2, 3])]
)
def test_regularity_rejects_foreign_vertices(a, b):
    # the first pair takes the exact verdict, the second the heuristic one
    g = Graph(10, [(i, (i + 1) % 10) for i in range(10)])
    with pytest.raises(ValueError, match=r"0\.\.9"):
        is_eps_regular(g, a, b, 0.1)


# --------------------------------------------------------------- cluster graph


def make_partition(g, sets):
    from pathcover.regularity import Partition

    return Partition(frozenset(), tuple(frozenset(s) for s in sets), len(sets[0]))


def test_cluster_graph_full_pair():
    g = complete_pair(4, 4)
    p = make_partition(g, [range(4), range(4, 8)])
    h = build_cluster_graph(g, p, Fraction(1, 2))
    assert h.edges == {(0, 1): Fraction(1)}


def test_cluster_graph_empty():
    g = Graph(8, [])
    p = make_partition(g, [range(4), range(4, 8)])
    assert build_cluster_graph(g, p, Fraction(1, 2)).edges == {}


def test_cluster_graph_threshold_inclusive():
    # exactly half the cross pairs are edges: density == d keeps the edge
    edges = [(i, 4 + j) for i in range(4) for j in range(4) if (i + j) % 2 == 0]
    g = Graph(8, edges)
    p = make_partition(g, [range(4), range(4, 8)])
    h = build_cluster_graph(g, p, Fraction(1, 2))
    assert (0, 1) in h.edges and h.edges[(0, 1)] == Fraction(1, 2)


def test_cluster_graph_monotone_in_d():
    rng = random.Random(3)
    edges = [(u, v) for u in range(24) for v in range(u + 1, 24) if rng.random() < 0.4]
    g = Graph(24, edges)
    p = equitable_partition(g, 3, seed=0)
    sizes = []
    for num in range(0, 11):
        h = build_cluster_graph(g, p, Fraction(num, 10))
        sizes.append(len(h.edges))
    assert sizes == sorted(sizes, reverse=True)


# -------------------------------------------------------------------- cleaning


def test_cleaning_complete_pair():
    g = complete_pair(10, 10)
    x, y = clean_super_regular(g, range(10), range(10, 20), Fraction(1, 10), Fraction(1, 2))
    assert len(x) == len(y) == 9
    # min-degree now has slack 1 - eps, far above d - 3eps
    for v in x:
        assert len(g.neighbors(v) & y) == len(y)


def test_cleaning_drops_isolated_vertices():
    # one isolated vertex per side; eps budget of exactly one removal
    edges = [(i, 5 + j) for i in range(4) for j in range(4)]
    g = Graph(10, edges)  # vertices 4 and 9 isolated
    x, y = clean_super_regular(g, range(5), range(5, 10), Fraction(1, 5), Fraction(4, 5))
    assert 4 not in x and 9 not in y
    assert len(x) == len(y) == 4


def test_cleaning_audits_output():
    g = random_pair(50, 0.5, seed=1)
    x, y = clean_super_regular(g, range(50), range(50, 100), Fraction(1, 10), Fraction(2, 5))
    assert len(x) == len(y) == 45
    floor = (Fraction(2, 5) - 3 * Fraction(1, 10)) * len(y)
    for v in x:
        assert len(g.neighbors(v) & y) > floor
    for v in y:
        assert len(g.neighbors(v) & x) > floor


def test_cleaning_fails_when_too_many_low_degree():
    # half of one side is isolated: far beyond the eps budget
    edges = [(i, 6 + j) for i in range(3) for j in range(6)]
    g = Graph(12, edges)
    with pytest.raises(CleaningFailed):
        clean_super_regular(g, range(6), range(6, 12), Fraction(1, 6), Fraction(3, 4))


def test_cleaning_requires_d_above_3eps():
    g = complete_pair(4, 4)
    with pytest.raises(ValueError):
        clean_super_regular(g, range(4), range(4, 8), Fraction(1, 4), Fraction(1, 2))
