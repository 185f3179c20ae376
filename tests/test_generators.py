import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathcover import generators
from pathcover.generators import (
    GenSpec,
    _first_occurrences,
    _PairingStuck,
    _repairable,
    _switch_in,
    degree_from_ratio,
    extremal_family,
    generate,
    random_bipartite_regular,
    random_regular,
)
from pathcover.graph import Graph


def components(g: Graph):
    seen = set()
    comps = []
    for start in range(g.n):
        if start in seen:
            continue
        comp = {start}
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for w in g.neighbors(v):
                if w not in comp:
                    comp.add(w)
                    frontier.append(w)
        seen |= comp
        comps.append(comp)
    return comps


def test_k4_is_only_cubic_graph_on_four_vertices():
    g = random_regular(GenSpec(4, 3, "random-regular", seed=11))
    assert g.m == 6 and all(d == 3 for d in g.degrees())


def test_parity_violation_rejected():
    with pytest.raises(ValueError):
        random_regular(GenSpec(5, 3, "random-regular"))


def test_two_regular_is_disjoint_cycles():
    g = random_regular(GenSpec(6, 2, "random-regular", seed=3))
    assert all(d == 2 for d in g.degrees())
    for comp in components(g):
        # a connected 2-regular component is a cycle: |E| = |V|
        inside = sum(1 for u, v in g.edges if u in comp)
        assert inside == len(comp) >= 3


def test_degree_from_ratio_snaps_decimals():
    assert degree_from_ratio(600, 0.3) == 180
    assert degree_from_ratio(200, 0.45) == 90
    assert degree_from_ratio(400, 0.9975) == 399


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(1, 10**6), st.floats(1e-12, 1.0, exclude_min=True))
def test_degree_from_ratio_is_the_integer_ceiling_of_the_snapped_ratio(n, c):
    # ceil(c*n) of the 9-decimal c, in integers only
    assert degree_from_ratio(n, c) == -((-n * round(c * 10**9)) // 10**9)


def test_bipartite_full_degree_is_complete():
    g = random_bipartite_regular(GenSpec(8, 4, "random-bipartite-regular", seed=2))
    assert g.m == 16
    assert all(d == 4 for d in g.degrees())


def test_bipartite_degree_one_is_perfect_matching():
    g = random_bipartite_regular(GenSpec(8, 1, "random-bipartite-regular", seed=5))
    assert g.m == 4 and all(d == 1 for d in g.degrees())


def test_bipartite_regular_and_crossing():
    g = random_bipartite_regular(GenSpec(20, 3, "random-bipartite-regular", seed=9))
    assert all(d == 3 for d in g.degrees())
    x, y = g.bipartition
    assert len(x) == len(y) == 10
    for u, v in g.edges:
        assert (u in x) != (v in x)


def test_bipartite_rejects_odd_n_and_large_k():
    with pytest.raises(ValueError):
        random_bipartite_regular(GenSpec(9, 2, "random-bipartite-regular"))
    with pytest.raises(ValueError):
        random_bipartite_regular(GenSpec(8, 5, "random-bipartite-regular"))


def test_disjoint_cliques_exact():
    g = extremal_family(GenSpec(8, 3, "disjoint-cliques"))
    comps = components(g)
    assert sorted(len(c) for c in comps) == [4, 4]
    assert all(d == 3 for d in g.degrees())


def test_disjoint_cliques_remainder_adjustment():
    g = extremal_family(GenSpec(9, 3, "disjoint-cliques"))
    comps = components(g)
    assert sorted(len(c) for c in comps) == [4, 5]
    assert sorted(set(g.degrees())) == [3, 4]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 80), st.data())
def test_disjoint_cliques_match_matrix_reference(n, data):
    # the row masks against the block-label matrix they replaced
    k = data.draw(st.integers(0, n - 1))
    label = np.minimum(np.arange(n) // (k + 1), n // (k + 1) - 1)
    a = label[:, None] == label[None, :]
    np.fill_diagonal(a, False)
    assert extremal_family(GenSpec(n, k, "disjoint-cliques"))._adj == Graph._from_matrix(a)._adj


def test_disjoint_bicliques_exact():
    g = extremal_family(GenSpec(12, 3, "disjoint-bicliques"))
    comps = components(g)
    assert sorted(len(c) for c in comps) == [6, 6]
    assert all(d == 3 for d in g.degrees())
    assert g.bipartition is not None


def test_biclique_divisibility_enforced():
    with pytest.raises(ValueError):
        extremal_family(GenSpec(10, 3, "disjoint-bicliques"))


def test_clique_family_needs_enough_vertices():
    with pytest.raises(ValueError):
        extremal_family(GenSpec(3, 3, "disjoint-cliques"))


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        GenSpec(8, 3, "grid")


def test_determinism_per_seed():
    a = random_regular(GenSpec(40, 7, "random-regular", seed=123))
    b = random_regular(GenSpec(40, 7, "random-regular", seed=123))
    c = random_regular(GenSpec(40, 7, "random-regular", seed=124))
    assert a == b
    assert a != c  # overwhelmingly likely, and pinned by the fixed seeds


def test_bipartite_determinism_per_seed():
    a = random_bipartite_regular(GenSpec(30, 6, "random-bipartite-regular", seed=1))
    b = random_bipartite_regular(GenSpec(30, 6, "random-bipartite-regular", seed=1))
    assert a == b


@settings(max_examples=40, deadline=None)
@given(st.integers(4, 40), st.integers(1, 20), st.integers(0, 10**6))
def test_random_regular_always_audits(n, k, seed):
    if k >= n or (n * k) % 2:
        return
    g = random_regular(GenSpec(n, k, "random-regular", seed=seed))
    assert g.n == n
    assert all(d == k for d in g.degrees())
    assert random_regular(GenSpec(n, k, "random-regular", seed=seed)) == g


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_outside_64_bits_rejected(seed):
    # mix64 reduces its parts mod 2**64, so such a seed would alias another
    with pytest.raises(ValueError, match="seed must be in"):
        GenSpec(8, 3, "random-regular", seed)
    assert GenSpec(8, 3, "random-regular", 2**64 - 1).seed == 2**64 - 1


def _stuck_on_one_vertex(n: int, k: int, seed: int) -> tuple[np.ndarray, int]:
    """A k-regular pairing with edges xa, xb replaced by ab: x keeps two stubs."""
    g = random_regular(GenSpec(n, k, "random-regular", seed=seed))
    x = 0
    a, b = next((a, b) for a in g.neighbors(x) for b in g.neighbors(x) if a < b and not g.adjacent(a, b))
    present = np.zeros(n * n, dtype=bool)
    for u, v in g.edges:
        present[u * n + v] = True
    present[[x * n + a, x * n + b]] = False
    present[a * n + b] = True
    return present, x


def test_switch_places_two_stubs_of_one_vertex():
    n, k = 30, 6
    results = []
    for _ in range(2):
        present, x = _stuck_on_one_vertex(n, k, seed=4)
        _switch_in(np.array([x]), np.array([x]), present, n, np.random.default_rng(7))
        upper = present.reshape(n, n)
        g = Graph._from_matrix(upper | upper.T)  # audits: symmetric, no loops
        assert all(d == k for d in g.degrees())
        results.append(present.tobytes())
    assert results[0] == results[1]


def test_switch_moves_a_present_pair_and_then_adds_it():
    # K5 less 01 and 02: the pairs (0, 0) and (1, 2) are left, and 12 exists.
    # The only switch turns 12 into 01, 02; then 12 is fresh again
    n = 5
    present = np.zeros(n * n, dtype=bool)
    for u, v in [(0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]:
        present[u * n + v] = True
    _switch_in(np.array([0, 1]), np.array([0, 2]), present, n, np.random.default_rng(0))
    assert np.array_equal(present.reshape(n, n), np.triu(np.ones((n, n), dtype=bool), 1))


def test_switch_without_a_candidate_restarts():
    # vertex 0 holds two stubs and already neighbours every other vertex
    n = 4
    present = np.triu(np.ones((n, n), dtype=bool), 1).ravel()
    with pytest.raises(_PairingStuck):
        _switch_in(np.array([0]), np.array([0]), present, n, np.random.default_rng(0))
    with pytest.raises(_PairingStuck):  # no edge to switch at all
        _switch_in(np.array([1]), np.array([1]), np.zeros(n * n, dtype=bool), n, np.random.default_rng(0))


def _pairing_attempts(monkeypatch, family: str, cs: tuple[float, ...]) -> int:
    calls = []
    pairing = generators._pairing_edges
    monkeypatch.setattr(generators, "_pairing_edges", lambda *a: calls.append(a) or pairing(*a))
    for c in cs:
        for seed in range(8):
            generate(GenSpec(600, degree_from_ratio(600, c), family, seed))
    return len(calls)


def test_benchmark_scale_pairs_in_one_attempt(monkeypatch):
    # before switchings these 24 graphs took 89 pairing attempts
    assert _pairing_attempts(monkeypatch, "random-regular", (0.3, 0.45, 0.6)) == 24


def test_bipartite_benchmark_scale_pairs_in_one_attempt(monkeypatch):
    assert _pairing_attempts(monkeypatch, "random-bipartite-regular", (0.15, 0.3, 0.45)) == 24


def _stuck_on_a_present_pair(half: int, k: int, seed: int) -> tuple[np.ndarray, int, int]:
    """A bipartite k-regular pairing with xb, ay replaced by ab, where xy is an
    edge: the leftover pair xy can only be placed by a switch."""
    n = 2 * half
    g = random_bipartite_regular(GenSpec(n, k, "random-bipartite-regular", seed=seed))
    x, y, a, b = next(
        (x, y, a, b)
        for x in range(half)
        for y in g.neighbors(x)
        for b in g.neighbors(x)
        for a in g.neighbors(y)
        if a != x and b != y and not g.adjacent(a, b)
    )
    present = np.zeros(n * n, dtype=bool)
    for u, v in g.edges:
        present[u * n + v] = True
    present[[x * n + b, a * n + y]] = False
    present[a * n + b] = True
    return present, x, y


def test_bipartite_switch_keeps_edges_across_the_sides():
    half, k = 15, 5
    n = 2 * half
    results = []
    for _ in range(2):
        present, x, y = _stuck_on_a_present_pair(half, k, seed=4)
        _switch_in(np.array([x]), np.array([y]), present, n, np.random.default_rng(7), half)
        upper = present.reshape(n, n)
        g = Graph._from_matrix(upper | upper.T, (range(half), range(half, n)))  # audits: every edge crosses
        assert all(d == k for d in g.degrees())
        results.append(present.tobytes())
    assert results[0] == results[1]


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 12), st.integers(1, 6), st.integers(0, 10**6))
def test_random_bipartite_always_audits(half, k, seed):
    if k > half:
        return
    g = random_bipartite_regular(GenSpec(2 * half, k, "random-bipartite-regular", seed=seed))
    assert all(d == k for d in g.degrees())
    x, y = g.bipartition
    assert all((u in x) != (v in x) for u, v in g.edges)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 5), max_size=40))
def test_first_occurrences_matches_stable_argsort(keys):
    keys = np.array(keys, dtype=np.int64)
    # the reference: a stable argsort keeps the first occurrence of a key
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    first = np.ones(keys.size, dtype=bool)
    first[order[1:]] = sorted_keys[1:] != sorted_keys[:-1]
    assert np.array_equal(_first_occurrences(keys), first)


def _leftovers(pairs) -> tuple[np.ndarray, np.ndarray]:
    return np.array([x for x, _ in pairs], dtype=np.int64), np.array([y for _, y in pairs], dtype=np.int64)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 9), st.data())
def test_repairable_matches_unique_reference(n, data):
    pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=6))
    present = np.array(data.draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n)), dtype=bool)
    xs, ys = _leftovers(pairs)
    verts = np.unique(np.concatenate([xs, ys]))
    expected = verts.size >= 2 and (
        verts.size > 64
        or any(not present[int(a) * n + int(b)] for i, a in enumerate(verts) for b in verts[i + 1 :])
    )
    assert _repairable(xs, ys, present, n) == expected


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.data())
def test_repairable_bipartite_counts_only_cross_pairs(half, data):
    # leftover X-ends and Y-ends; a fresh pair inside a side does not count
    n = 2 * half
    pairs = data.draw(st.lists(st.tuples(st.integers(0, half - 1), st.integers(half, n - 1)), max_size=6))
    present = np.array(data.draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n)), dtype=bool)
    xs, ys = _leftovers(pairs)
    expected = any(not present[x * n + y] for x in set(xs.tolist()) for y in set(ys.tolist()))
    assert _repairable(xs, ys, present, n, half) == expected


def test_repairable_many_endpoints_short_circuits():
    n = 160
    full = np.ones(n * n, dtype=bool)
    assert _repairable(np.arange(40), np.arange(40, 80), full, n)
    assert _repairable(np.arange(80), np.arange(80, 160), full, n, 80)
    assert not _repairable(np.arange(40), np.arange(80, 120), full, n, 80)


def test_pairing_rejects_sizes_whose_sort_keys_would_wrap():
    # the guard runs before any n*k-sized allocation (25 GB of stubs here)
    with pytest.raises(ValueError, match="too large"):
        generate(GenSpec(80_000, 39_999, "random-regular"))
