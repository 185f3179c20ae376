import random
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pathcover import regularity
from pathcover._bits import mask_of, mix64
from pathcover.generators import GenSpec, generate
from pathcover.graph import Graph, density, induced_subgraph
from pathcover.regularity import (
    REFINE,
    ROW_CHUNK,
    CleaningFailed,
    Partition,
    _every_draw_ties,
    _pair_counts,
    _partition_with_counts,
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
    p.validate(range(g.n))


def test_partition_exact_split():
    g = Graph(12, [])
    p = equitable_partition(g, 3, seed=1)
    assert p.m == 4 and not p.exceptional
    p.validate(range(g.n))


def test_partition_invariants_on_random_graph():
    rng = random.Random(5)
    edges = [(u, v) for u in range(100) for v in range(u + 1, 100) if rng.random() < 0.3]
    g = Graph(100, edges)
    for seed in (0, 1):
        p = equitable_partition(g, 5, seed=seed)
        p.validate(range(g.n))
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


def reference_mean_square_density(g, clusters, m):
    """Mean of (e(V_i, V_j) / m^2)^2 over pairs i < j, summed left to right."""
    t = len(clusters)
    if t < 2:
        return 0.0
    masks = [mask_of(cl) for cl in clusters]
    total = 0.0
    for i in range(t):
        for j in range(i + 1, t):
            e = sum((g.adjacency_mask(v) & masks[j]).bit_count() for v in clusters[i])
            total += (e / (m * m)) ** 2
    return total / (t * (t - 1) / 2)


def reference_partition(g, t, seed, within=None):
    """The partition loop as first written: relabel the working set to
    0..n'-1, score REFINE shuffles one by one, keep the first best, map back."""
    sub, mapping = induced_subgraph(g, range(g.n) if within is None else within)
    m = (sub.n // t) & ~1
    best, best_index = None, -1.0
    for round_ in range(REFINE):
        perm = list(range(sub.n))
        random.Random(mix64(seed, 0x9A27, round_)).shuffle(perm)
        clusters = [perm[i * m : (i + 1) * m] for i in range(t)]
        index = reference_mean_square_density(sub, clusters, m)
        if index > best_index:
            best, best_index = perm, index
    return Partition(
        frozenset(mapping[v] for v in best[t * m :]),
        tuple(frozenset(mapping[v] for v in best[i * m : (i + 1) * m]) for i in range(t)),
        m,
    )


@st.composite
def partition_inputs(draw):
    """(graph, t, seed): n <= 200, t in 1..8 with nonempty clusters, and an
    edge probability that includes 0 (every draw ties) and 1."""
    n = draw(st.integers(2, 200))
    t = draw(st.integers(1, min(8, n // 2)))
    p = draw(st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]))
    rng = random.Random(draw(st.integers(0, 2**16)))
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges), t, draw(st.integers(0, 2**32))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(partition_inputs())
def test_partition_matches_reference_loop(case):
    g, t, seed = case
    assert equitable_partition(g, t, seed=seed) == reference_partition(g, t, seed)


@st.composite
def working_set_inputs(draw):
    """(graph, sorted working set, t, seed, row chunk): the working set is a
    random subset of at least two vertices, and the chunk is often smaller
    than the set and not a divisor of its size."""
    g, _, seed = draw(partition_inputs())
    keep = draw(st.lists(st.booleans(), min_size=g.n, max_size=g.n))
    rest = [v for v in range(g.n) if keep[v]]
    assume(len(rest) >= 2)
    t = draw(st.integers(1, min(8, len(rest) // 2)))
    return g, rest, t, seed, draw(st.sampled_from([1, 7, 16, 64, ROW_CHUNK]))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(working_set_inputs())
def test_working_set_partition_matches_reference_loop(case):
    g, rest, t, seed, chunk = case
    with patch.object(regularity, "ROW_CHUNK", chunk):
        part, counts = _partition_with_counts(g, rest, t, seed)
    assert part == reference_partition(g, t, seed, within=rest)
    part.validate(rest)
    assert counts == _pair_counts(g, part)


def test_working_set_partition_with_exceptional_vertices_and_partial_chunk():
    # 300 working vertices: one full chunk of 256 rows and a partial one;
    # t = 7 gives m = 42 and leaves 6 vertices in V_0
    rng = random.Random(11)
    edges = [(u, v) for u in range(320) for v in range(u + 1, 320) if rng.random() < 0.4]
    g = Graph(320, edges)
    rest = sorted(rng.sample(range(320), 300))
    part, counts = _partition_with_counts(g, rest, 7, seed=5)
    assert part.m == 42 and len(part.exceptional) == 6
    assert part == reference_partition(g, 7, 5, within=rest)
    assert counts == _pair_counts(g, part)


def test_partition_edgeless_graph_keeps_the_first_draw():
    # every score is 0.0, so strict > keeps draw 0
    g = Graph(50, [])
    perm = list(range(50))
    random.Random(mix64(3, 0x9A27, 0)).shuffle(perm)
    p = equitable_partition(g, 4, seed=3)
    assert p == reference_partition(g, 4, 3)
    assert p.clusters[0] == frozenset(perm[:12]) and p.exceptional == frozenset(perm[48:])


def _clique_and_independent_host():
    """60 vertices: the even ids form a clique, and each odd id is joined to
    about half of the even ids and to no odd id. So the evens induce a
    complete graph and the odds an edgeless one, and every vertex of either
    set has neighbours outside it."""
    rng = random.Random(5)
    evens, odds = range(0, 60, 2), range(1, 60, 2)
    edges = {(u, v) for u in evens for v in evens if u < v}
    edges |= {(min(u, v), max(u, v)) for u in odds for v in evens if rng.random() < 0.5}
    return 60, edges, list(evens), list(odds)


def _tie_cases():
    """(host n, host edges, working set, edge whose toggle breaks the tie)
    per case. Each case toggles one edge away from the first working vertex,
    whose degree then passes the quick test, and one edge at it."""
    k40 = {(u, v) for u in range(40) for v in range(u + 1, 40)}
    n, edges, evens, odds = _clique_and_independent_host()
    cases = {
        "K40": (40, k40, list(range(40))),
        "edgeless": (40, set(), list(range(40))),
        "clique-in-host": (n, edges, evens),
        "independent-in-host": (n, edges, odds),
    }
    return [
        pytest.param(*cases[name], toggle, id=f"{name}-{toggle[0]}-{toggle[1]}")
        for name, toggle in [
            ("K40", (3, 17)), ("K40", (0, 1)),
            ("edgeless", (3, 17)), ("edgeless", (0, 1)),
            ("clique-in-host", (4, 30)), ("clique-in-host", (0, 2)),
            ("independent-in-host", (5, 31)), ("independent-in-host", (1, 3)),
        ]
    ]


def _partition_and_draws(g, within, t, seed):
    """`_partition_with_counts` and the number of shuffles it made."""
    with patch.object(regularity.random, "Random", wraps=random.Random) as rng:
        part, counts = _partition_with_counts(g, within, t, seed)
    return part, counts, rng.call_count


@pytest.mark.parametrize("n, edges, within, toggle", _tie_cases())
def test_partition_scores_one_draw_when_every_draw_ties(n, edges, within, toggle):
    g = Graph(n, edges)
    assert _every_draw_ties(g, within)
    part, counts, draws = _partition_and_draws(g, within, 4, seed=9)
    assert draws == 1
    assert part == reference_partition(g, 4, 9, within=within)
    assert counts == _pair_counts(g, part)
    # one working edge more or less: the draws no longer tie by construction
    broken = Graph(n, edges ^ {toggle})
    assert not _every_draw_ties(broken, within)
    part, counts, draws = _partition_and_draws(broken, within, 4, seed=9)
    assert draws == REFINE
    assert part == reference_partition(broken, 4, 9, within=within)
    assert counts == _pair_counts(broken, part)


@pytest.mark.parametrize("family, k", [("random-regular", 72), ("random-bipartite-regular", 36)])
def test_every_draw_ties_decides_random_hosts_without_a_working_mask(family, k):
    # the first working vertex rules out both cases, so no mask of the working
    # set is built; on a bipartite host all of its neighbours are on the other side
    g = generate(GenSpec(240, k, family, seed=3))
    within = [v for v in range(240) if v % 7]
    with patch.object(regularity, "mask_of", wraps=mask_of) as masks:
        assert not _every_draw_ties(g, within)
    assert masks.call_count == 0


@st.composite
def tie_inputs(draw):
    """(graph, sorted working set) with n <= 30. The working set is often made
    a clique or an independent set inside a host that is neither."""
    n = draw(st.integers(1, 30))
    p = draw(st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0]))
    rng = random.Random(draw(st.integers(0, 2**16)))
    edges = {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p}
    keep = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    within = [v for v in range(n) if keep[v]]
    assume(within)
    inner = {(u, v) for u in within for v in within if u < v}
    mode = draw(st.sampled_from(["as drawn", "clique", "independent"]))
    if mode == "clique":
        edges |= inner
    elif mode == "independent":
        edges -= inner
    return Graph(n, edges), within


@settings(max_examples=200, deadline=None, derandomize=True)
@given(tie_inputs())
def test_every_draw_ties_iff_working_set_is_complete_or_edgeless(case):
    g, within = case
    links = [g.adjacent(u, v) for i, u in enumerate(within) for v in within[i + 1 :]]
    assert _every_draw_ties(g, within) == (all(links) or not any(links))


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


def test_heuristic_witness_implies_exact_irregular(monkeypatch):
    # force heuristic mode on a small pair; the witness it finds must also be
    # confirmed by the decisive exhaustive check
    g = half_graph(7)
    a, b = range(7), range(7, 14)
    with monkeypatch.context() as m:
        m.setattr(regularity, "EXACT_CAP", 0)
        heur = is_eps_regular(g, a, b, EPS14)
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
