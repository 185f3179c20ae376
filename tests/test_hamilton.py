import random

import pytest

from pathcover.generators import GenSpec, random_bipartite_regular
from pathcover.graph import Graph
from pathcover.hamilton import (
    Cycle,
    Path,
    cycle_to_path,
    hamiltonian_path,
    longest_cycle,
    longest_path,
    spanning_cycle_bipartite,
)
from pathcover.oracle import petersen_graph


def complete(n):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def random_bipartite_pair(side, p, seed):
    rng = random.Random(seed)
    edges = [
        (i, side + j) for i in range(side) for j in range(side) if rng.random() < p
    ]
    return Graph(2 * side, edges)


def test_path_type_rules():
    assert len(Path((7,))) == 1  # length-0 paths allowed
    with pytest.raises(ValueError):
        Path((1, 2, 1))
    with pytest.raises(ValueError):
        Path(())


def test_cycle_type_rules():
    with pytest.raises(ValueError):
        Cycle((1, 2))
    with pytest.raises(ValueError):
        Cycle((1, 2, 1))


def test_cycle_canonical_rotation():
    assert Cycle((3, 1, 2)) == Cycle((1, 2, 3)) == Cycle((2, 1, 3))
    assert Cycle((1, 2, 3)).vertices[0] == 1


def test_hamiltonian_path_k4():
    res = hamiltonian_path(complete(4), seed=1)
    assert res.ok and len(res.path) == 4
    res.path.validate(complete(4))


def test_hamiltonian_path_two_disjoint_edges_fails():
    g = Graph(4, [(0, 1), (2, 3)])
    res = hamiltonian_path(g, seed=1)
    assert not res.ok  # n <= exhaustive cap, so this is a proof
    assert res.best is not None and len(res.best) == 2


def test_hamiltonian_path_petersen():
    res = hamiltonian_path(petersen_graph(), seed=0)
    assert res.ok
    res.path.validate(petersen_graph())


def test_dirac_graphs_never_fail():
    rng = random.Random(42)
    for trial in range(10):
        n = rng.randrange(4, 15)
        edges = {
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.6
        }
        g = Graph(n, edges)
        low = [v for v in range(n) if g.degree(v) < (n + 1) // 2]
        while low:
            v = low[0]
            others = [u for u in range(n) if u != v and not g.adjacent(u, v)]
            edges.add((min(v, others[0]), max(v, others[0])))
            g = Graph(n, edges)
            low = [v for v in range(n) if g.degree(v) < (n + 1) // 2]
        res = hamiltonian_path(g, seed=trial)
        assert res.ok, f"Dirac graph on {n} vertices must have a spanning path"
        res.path.validate(g)


def test_spanning_cycle_complete_bipartite():
    g = Graph(10, [(i, 5 + j) for i in range(5) for j in range(5)])
    res = spanning_cycle_bipartite(g, range(5), range(5, 10), seed=0)
    assert res.ok and len(res.cycle) == 10
    res.cycle.validate(g)


def test_spanning_cycle_alternates_sides():
    g = random_bipartite_pair(20, 0.5, seed=3)
    res = spanning_cycle_bipartite(g, range(20), range(20, 40), seed=3)
    assert res.ok
    vs = res.cycle.vertices
    sides = [int(v >= 20) for v in vs]
    assert all(sides[i] != sides[(i + 1) % len(vs)] for i in range(len(vs)))


def test_spanning_cycle_isolated_vertex_fails():
    edges = [(i, 4 + j) for i in range(4) for j in range(4) if i != 0]
    g = Graph(8, edges)
    res = spanning_cycle_bipartite(g, range(4), range(4, 8), seed=1)
    assert not res.ok


def test_spanning_cycle_needs_balanced_sides():
    g = Graph(5, [(0, 3), (1, 3), (2, 4)])
    with pytest.raises(ValueError):
        spanning_cycle_bipartite(g, {0, 1, 2}, {3, 4})


def test_spanning_cycle_exhaustive_below_cap():
    # C6 as a bipartite pair: heuristic may wander, DP must settle it
    g = Graph(6, [(0, 3), (3, 1), (1, 4), (4, 2), (2, 5), (5, 0)])
    res = spanning_cycle_bipartite(g, {0, 1, 2}, {3, 4, 5}, budget=1, seed=0)
    assert res.ok and len(res.cycle) == 6


def test_cycle_to_path_cut_edge():
    tri = Cycle((0, 1, 2))
    p = cycle_to_path(tri)
    assert len(p) == 3


def test_cut_alternating_cycle_has_one_end_per_side():
    g = Graph(12, [(i, 6 + j) for i in range(6) for j in range(6)])
    res = spanning_cycle_bipartite(g, range(6), range(6, 12), seed=2)
    p = cycle_to_path(res.cycle)
    e0, e1 = p.ends
    assert (e0 < 6) != (e1 < 6)


def test_longest_path_respects_active_set():
    g = complete(8)
    p = longest_path(g, within={0, 2, 4, 6}, seed=5)
    assert set(p.vertices) <= {0, 2, 4, 6}
    assert len(p) == 4
    p.validate(g)


@pytest.mark.parametrize("budget", [0, -3])
def test_longest_path_rejects_nonpositive_budget(budget):
    with pytest.raises(ValueError, match="budget must be positive"):
        longest_path(complete(10), budget=budget)


@pytest.mark.parametrize("budget", [0, -3])
def test_longest_cycle_rejects_nonpositive_budget(budget):
    with pytest.raises(ValueError, match="budget must be positive"):
        longest_cycle(complete(10), budget=budget)


@pytest.mark.parametrize(
    "search",
    [
        lambda g: longest_path(g, within=[0, 50]),
        lambda g: longest_cycle(g, within=[0, 1, 2, 50]),
        lambda g: longest_path(g, within=[-1, 2]),
        lambda g: longest_cycle(g, within=[-1, 0, 1]),
        lambda g: spanning_cycle_bipartite(g, [0, 2], [1, -3]),
        lambda g: spanning_cycle_bipartite(g, [0, 2, 10], [1, 3, 5]),
    ],
    ids=["path-high", "cycle-high", "path-negative", "cycle-negative", "bipartite-negative", "bipartite-high"],
)
def test_searches_reject_foreign_vertex_ids(search):
    ten_cycle = Graph(10, [(i, (i + 1) % 10) for i in range(10)])
    with pytest.raises(ValueError, match=r"vertices must lie in 0\.\.9"):
        search(ten_cycle)


def test_longest_cycle_on_dense_graph_spans():
    g = complete(12)
    c = longest_cycle(g, seed=0)
    assert c is not None and len(c) == 12
    c.validate(g)


def test_searches_are_deterministic():
    g = random_bipartite_pair(15, 0.5, seed=9)
    a = spanning_cycle_bipartite(g, range(15), range(15, 30), seed=4)
    b = spanning_cycle_bipartite(g, range(15), range(15, 30), seed=4)
    assert a.cycle == b.cycle
