import math
import random
from fractions import Fraction
from functools import partial
from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pathcover import regularity
from pathcover._bits import mix64
from pathcover.cli import _berge_tutte_instances
from pathcover.generators import GenSpec, degree_from_ratio, extremal_family, generate
from pathcover.graph import Graph, density, induced_subgraph
from pathcover.hamilton import Cycle, Path, hamiltonian_path, longest_cycle, longest_path, spanning_cycle_bipartite
from pathcover.matching import HALF, ONE, HalfIntegralMatching
from pathcover.oracle import conjecture_spot_check, min_path_cover_exact
from pathcover.pipeline import PipelineConfig, _default_t, cycle_cover, path_cover, path_cover_bipartite
from pathcover.regularity import (
    CleaningFailed,
    Partition,
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


def reference_partition(g, t, seed, within=None):
    """The partition as first written: relabel the working set to 0..n'-1,
    shuffle it once, cut t clusters of m, map back."""
    sub, mapping = induced_subgraph(g, range(g.n) if within is None else within)
    m = (sub.n // t) & ~1
    perm = list(range(sub.n))
    random.Random(mix64(seed, 0x9A27, 0)).shuffle(perm)
    return Partition(
        frozenset(mapping[v] for v in perm[t * m :]),
        tuple(frozenset(mapping[v] for v in perm[i * m : (i + 1) * m]) for i in range(t)),
        m,
    )


@st.composite
def partition_inputs(draw):
    """(graph, t, seed): n <= 200, t in 1..8 with nonempty clusters, and an
    edge probability that includes 0 and 1."""
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
    """(graph, sorted working set, t, seed): the working set is a random
    subset of at least two vertices."""
    g, _, seed = draw(partition_inputs())
    keep = draw(st.lists(st.booleans(), min_size=g.n, max_size=g.n))
    rest = [v for v in range(g.n) if keep[v]]
    assume(len(rest) >= 2)
    t = draw(st.integers(1, min(8, len(rest) // 2)))
    return g, rest, t, seed


@settings(max_examples=60, deadline=None, derandomize=True)
@given(working_set_inputs())
def test_working_set_partition_matches_reference_loop(case):
    g, rest, t, seed = case
    part, counts = _partition_with_counts(g, rest, t, seed)
    assert part == reference_partition(g, t, seed, within=rest)
    part.validate(rest)
    assert counts == _pair_counts(g, part)


def test_working_set_partition_with_exceptional_vertices():
    # t = 7 on 300 working vertices gives m = 42 and leaves 6 vertices in V_0
    rng = random.Random(11)
    edges = [(u, v) for u in range(320) for v in range(u + 1, 320) if rng.random() < 0.4]
    g = Graph(320, edges)
    rest = sorted(rng.sample(range(320), 300))
    part, counts = _partition_with_counts(g, rest, 7, seed=5)
    assert part.m == 42 and len(part.exceptional) == 6
    assert part == reference_partition(g, 7, 5, within=rest)
    assert counts == _pair_counts(g, part)


def test_partition_edgeless_graph_cuts_the_shuffle_in_order():
    g = Graph(50, [])
    perm = list(range(50))
    random.Random(mix64(3, 0x9A27, 0)).shuffle(perm)
    p = equitable_partition(g, 4, seed=3)
    assert p == reference_partition(g, 4, 3)
    assert p.clusters[0] == frozenset(perm[:12]) and p.exceptional == frozenset(perm[48:])


def _one_draw_hosts():
    """(graph, working sets) per case: both random families and unions of
    cliques and bicliques, each whole and with every seventh vertex left
    out, K40 and the edgeless graph on 40 vertices, and working sets that
    induce a clique or an edgeless graph inside a host that is neither."""
    for family, cs in (("random-regular", (0.1, 0.3, 0.6)), ("random-bipartite-regular", (0.1, 0.3))):
        for n in (40, 60, 120, 600):
            for c in cs:
                yield pytest.param(family, n, degree_from_ratio(n, c), None, id=f"{family}-{n}-c{c}")
    for family, n, k in (
        ("disjoint-cliques", 60, 59),  # K60
        ("disjoint-cliques", 120, 59),  # 2 x K60
        ("disjoint-cliques", 120, 19),
        ("disjoint-bicliques", 120, 30),
        ("disjoint-bicliques", 120, 10),
    ):
        yield pytest.param(family, n, k, None, id=f"{family}-{n}-k{k}")
    # the even ids form a clique; each odd id is joined to about half of the
    # even ids and to no odd id
    rng = random.Random(5)
    evens, odds = range(0, 60, 2), range(1, 60, 2)
    edges = {(u, v) for u in evens for v in evens if u < v}
    edges |= {(min(u, v), max(u, v)) for u in odds for v in evens if rng.random() < 0.5}
    yield pytest.param("host", 60, edges, list(evens), id="clique-in-host")
    yield pytest.param("host", 60, edges, list(odds), id="independent-in-host")
    k40 = {(u, v) for u in range(40) for v in range(u + 1, 40)}
    yield pytest.param("host", 40, k40, list(range(40)), id="K40")
    yield pytest.param("host", 40, set(), list(range(40)), id="edgeless")


@pytest.mark.parametrize("family, n, k, within", _one_draw_hosts())
def test_partition_makes_one_draw_counted_by_popcount(family, n, k, within):
    if family == "host":
        g, sets = Graph(n, k), [within]
    else:
        g, sets = generate(GenSpec(n, k, family, seed=1)), [list(range(n)), [v for v in range(n) if v % 7]]
    for within in sets:
        for t in (2, 4, min(len(within) // 5, 24)):
            with patch.object(regularity.random, "Random", wraps=random.Random) as rng:
                part, counts = _partition_with_counts(g, within, t, seed=9)
            assert rng.call_count == 1
            assert part == reference_partition(g, t, 9, within=within)
            assert counts == _pair_counts(g, part)


def edge_by_edge_counts(g, part):
    """e(V_i, V_j) for i < j, one `Graph.adjacent` call per vertex pair."""
    clusters = [sorted(cl) for cl in part.clusters]
    return {
        (i, j): sum(g.adjacent(u, v) for u in clusters[i] for v in clusters[j])
        for i in range(part.t)
        for j in range(i + 1, part.t)
    }


@pytest.mark.parametrize(
    "n, k, t",
    [
        (60, 59, 4),  # K60: every pair complete
        (40, 19, 20),  # 2 x K20 cut into clusters of 2: some pairs empty, some complete
    ],
)
def test_pair_counts_exact_where_some_pair_is_empty_or_complete(n, k, t):
    # a closed-form verdict calls a pair with e in {0, m^2} regular, so these
    # counts must be exact at both ends
    g = extremal_family(GenSpec(n, k, "disjoint-cliques"))
    part, counts = _partition_with_counts(g, range(n), t, 5)
    assert any(e in (0, part.m**2) for e in counts.values())
    assert counts == edge_by_edge_counts(g, part)


@pytest.mark.parametrize("family, n, k", [("random-regular", 600, 180), ("random-bipartite-regular", 600, 90)])
def test_random_host_pairs_are_all_mixed(family, n, k):
    # no pair of a random host at the default t is empty or complete, so the
    # closed-form route finds no regular pair there
    g = generate(GenSpec(n, k, family, seed=0))
    part, counts = _partition_with_counts(g, range(n), _default_t(n), seed=3)
    assert counts == edge_by_edge_counts(g, part)
    assert all(0 < e < part.m**2 for e in counts.values())


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 7, 8, 9, 63, 64, 65, 600, 2340])
def test_shuffled_replays_random_shuffle(n):
    for seed in (0, 1, 2**64 - 1, mix64(5, 0x9A27, 3)):
        perm = list(range(n))
        random.Random(seed).shuffle(perm)
        assert regularity._shuffled(n, seed) == perm


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


_RING = Graph(10, [(i, (i + 1) % 10) for i in range(10)])
_PAIR = (_RING, [0, 1], [5, 6])
_EVEN_RING = Graph(10, _RING.edges, bipartition=(range(0, 10, 2), range(1, 10, 2)))
_INVALID = (math.nan, math.inf, -math.inf, 0, -1)
_ALPHA_RANGE = r"alpha must be in \(0, 1\]"


def _first_berge_tutte_instance(*args):
    return next(_berge_tutte_instances(*args))


def _cover_with(cover, g, **params):
    """`cover` of the 2-regular g under the derived config at c = 0.2, with
    alpha 0.1 unless `params` set it."""
    return cover(g, PipelineConfig.derive(0.2, params.pop("alpha", 0.1), **params))


@pytest.mark.parametrize(
    "fn, args, match",
    [
        pytest.param(equitable_partition, (_RING, 2.5), "t must be an integer", id="t=2.5"),
        pytest.param(equitable_partition, (_RING, math.nan), "t must be an integer", id="t=nan"),
        pytest.param(equitable_partition, (_RING, 0), "need 1 <= t", id="t=0"),
        pytest.param(is_eps_regular, (*_PAIR, math.inf), "eps must be positive and finite", id="eps=inf"),
        pytest.param(is_eps_regular, (*_PAIR, -math.inf), "eps must be positive and finite", id="eps=-inf"),
        pytest.param(is_eps_regular, (*_PAIR, math.nan), "eps must be positive and finite", id="eps=nan"),
        pytest.param(is_eps_regular, (*_PAIR, 0), "eps must be positive and finite", id="eps=0"),
        pytest.param(degree_from_ratio, (math.inf, 0.5), "n must be an integer", id="n=inf"),
        pytest.param(degree_from_ratio, (2.5, 0.5), "n must be an integer", id="n=2.5"),
        pytest.param(degree_from_ratio, (-1, 0.5), "need n > 0", id="n=-1"),
        pytest.param(degree_from_ratio, (0, 0.5), "need n > 0", id="n=0"),
        pytest.param(degree_from_ratio, (10, math.inf), r"c must be in \(0, 1\]", id="c=inf"),
        pytest.param(degree_from_ratio, (10, math.nan), r"c must be in \(0, 1\]", id="c=nan"),
        pytest.param(degree_from_ratio, (True, 0.5), "n must be an integer", id="n=True"),
        pytest.param(equitable_partition, (_RING, True), "t must be an integer", id="t=True"),
        *(
            pytest.param(
                partial(PipelineConfig.derive, seed=seed), (0.5, 0.1), "seed must be an integer", id=f"seed={seed}"
            )
            for seed in (1.5, True)
        ),
        *(
            pytest.param(fn, args, "seed must be an integer", id=f"{fn.__name__}-seed={seed}")
            for seed in (1.5, True)
            for fn, args in (
                (conjecture_spot_check, (3, 8, 0, seed)),
                (_first_berge_tutte_instance, (4, False, 0, seed)),
            )
        ),
        *(
            pytest.param(
                partial(search, budget=budget), args, "budget must be positive", id=f"{search.__name__}-{budget}"
            )
            for search, args, budgets in (
                (hamiltonian_path, (_RING,), (0, -3, math.nan, math.inf)),
                (spanning_cycle_bipartite, (_RING, [0, 2, 4], [1, 3, 5]), (0, -3, math.nan, math.inf)),
                (longest_path, (_RING,), (math.nan, math.inf)),  # 0 and -3: tests/test_hamilton.py
                (longest_cycle, (_RING,), (math.nan, math.inf)),
            )
            for budget in budgets
        ),
        *(
            pytest.param(
                PipelineConfig.derive(0.2, 0.1).with_alpha, (alpha,), _ALPHA_RANGE, id=f"with_alpha-{alpha}"
            )
            for alpha in _INVALID
        ),
        *(
            pytest.param(
                partial(_cover_with, cover, g, alpha=alpha), (), _ALPHA_RANGE, id=f"{cover.__name__}-alpha={alpha}"
            )
            for cover, g in ((path_cover, _RING), (path_cover_bipartite, _EVEN_RING), (cycle_cover, _RING))
            for alpha in _INVALID
        ),
        *(
            pytest.param(partial(_cover_with, cycle_cover, _RING, t=t), (), "t must be", id=f"cycle_cover-t={t}")
            for t in _INVALID
        ),
        # guards that no workload reaches
        pytest.param(Graph, (-1, []), "vertex count must be nonnegative", id="Graph-n=-1"),
        pytest.param(GenSpec, (0, 0, "random-regular"), "need n > 0 and k >= 0", id="GenSpec-n=0"),
        pytest.param(GenSpec, (4, 4, "random-regular"), "need k < n, got k=4, n=4", id="GenSpec-k=n"),
        pytest.param(
            extremal_family, (GenSpec(4, 2, "random-regular"),), "'random-regular' is not an extremal family",
            id="extremal_family-random",
        ),
        pytest.param(spanning_cycle_bipartite, (_RING, [0, 2], [2, 3]), "sides overlap", id="sides-overlap"),
        pytest.param(partial(longest_path, within=[]), (_RING,), "empty vertex set", id="longest_path-empty"),
        pytest.param(hamiltonian_path, (Graph(0, []),), "empty graph", id="hamiltonian_path-empty"),
        pytest.param(
            path_cover_bipartite,
            (Graph(3, [(0, 1), (1, 2)], bipartition=([1], [0, 2])), PipelineConfig.derive(0.5, 0.1)),
            "regular bipartite graphs must have balanced sides",
            id="path_cover_bipartite-unbalanced",
        ),
        pytest.param(PipelineConfig, (0, 0.1, 0.3, 0.04, 0.1), r"c must be in \(0, 1\]", id="PipelineConfig-c=0"),
        pytest.param(equitable_partition, (_RING, 6), "clusters would be empty with t=6, n=10", id="t=6-of-10"),
        pytest.param(clean_super_regular, (_RING, [0], [0], 0.1, 0.5), "need disjoint nonempty sides", id="clean-same"),
        pytest.param(clean_super_regular, (_RING, [0], [1, 2], 0.1, 0.5), "sides must have equal size", id="clean-sizes"),
        pytest.param(min_path_cover_exact, (Graph(19, []),), "n=19 exceeds exhaustive cap 18", id="exact-cap"),
        pytest.param(Path((0, 2)).validate, (_RING,), r"path uses non-edge \(0,2\)", id="Path-non-edge"),
        pytest.param(Cycle((0, 1, 3)).validate, (_RING,), r"cycle uses non-edge \(1,3\)", id="Cycle-non-edge"),
        pytest.param(
            Partition(frozenset(), (frozenset({0, 1}), frozenset({2})), 2).validate, (range(3),),
            "cluster size differs from m", id="Partition-sizes",
        ),
        pytest.param(Partition(frozenset(), (frozenset({0}),), 1).validate, (range(1),), "m must be even", id="Partition-odd"),
        pytest.param(
            HalfIntegralMatching({(0, 2): ONE}).validate, (_RING,), r"weight on non-edge \(0,2\)", id="matching-non-edge"
        ),
        pytest.param(
            HalfIntegralMatching({(0, 1): Fraction(1, 3)}).validate, (_RING,), r"weight 1/3 not in \{1/2, 1\}",
            id="matching-third",
        ),
        pytest.param(
            HalfIntegralMatching({(0, 1): HALF}).validate, (_RING,), "half-weight support contains a path component",
            id="matching-half-path",
        ),
    ],
)
def test_parameter_errors_are_value_errors(fn, args, match):
    # each entry point raises ValueError, never TypeError or OverflowError
    with pytest.raises(ValueError, match=match):
        fn(*args)


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
