"""Property tests of the whole path stage on small regular graphs: both random
families, unions of cliques or bicliques, and clique unions perturbed by a
few edge switches, with n <= 40."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from pathcover.generators import FAMILIES, GenSpec, degree_from_ratio, generate
from pathcover.graph import Graph
from pathcover.oracle import min_path_cover_exact
from pathcover.pipeline import (
    PipelineConfig,
    _dec,
    path_cover,
    path_cover_bipartite,
    paths_limit,
    paths_limit_bipartite,
    verify_cover,
)

ORACLE_MAX_N = 14  # the exact path cover takes about 0.1 s here and 3 s at n=18


def switched(g, switches, rng):
    """g after up to `switches` random edge switches: edges ab, cd become ac,
    bd when those are non-edges. Every degree is kept."""
    edges = set(g.edges)
    for _ in range(switches):
        (a, b), (c, d) = rng.sample(sorted(edges), 2)
        ac, bd = (min(a, c), max(a, c)), (min(b, d), max(b, d))
        if len({a, b, c, d}) == 4 and ac not in edges and bd not in edges:
            edges -= {(a, b), (c, d)}
            edges |= {ac, bd}
    return Graph(g.n, sorted(edges))


@st.composite
def regular_inputs(draw):
    """(graph, config) for a k-regular graph with n <= 40 and the largest
    9-decimal c with ceil(c*n) = k."""
    family = draw(st.sampled_from(FAMILIES + ("switched-cliques",)))
    if family == "random-regular":
        n = draw(st.integers(4, 40))
        # n*k must be even
        k = draw(st.integers(1, n - 1)) if n % 2 == 0 else 2 * draw(st.integers(1, (n - 1) // 2))
    elif family == "random-bipartite-regular":
        n = 2 * draw(st.integers(2, 20))
        k = draw(st.integers(1, n // 2))
    elif family == "disjoint-cliques":
        k = draw(st.integers(1, 19))
        n = (k + 1) * draw(st.integers(1, 40 // (k + 1)))
    elif family == "switched-cliques":
        k = draw(st.integers(1, 12))
        n = (k + 1) * draw(st.integers(2, 40 // (k + 1)))
    else:
        k = draw(st.integers(1, 10))
        n = 2 * k * draw(st.integers(1, 20 // k))
    seed = draw(st.integers(0, 2**16))
    c = (k * 10**9 // n) / 10**9
    assert degree_from_ratio(n, c) == k
    gamma = draw(st.sampled_from([None, 0.25]))
    cfg = PipelineConfig.derive(c, 0.1, gamma=gamma, seed=seed)
    if family == "switched-cliques":
        g = generate(GenSpec(n, k, "disjoint-cliques", seed))
        return switched(g, draw(st.integers(1, 4)), random.Random(seed)), cfg
    return generate(GenSpec(n, k, family, seed)), cfg


@settings(max_examples=150, deadline=None, derandomize=True)
@given(regular_inputs())
def test_path_stage_covers_pass_the_audit(case):
    g, cfg = case
    if g.bipartition is None:
        cover, rep = path_cover(g, cfg)
        limit = paths_limit(cfg.c)
    else:
        cover, rep = path_cover_bipartite(g, cfg)
        limit = paths_limit_bipartite(cfg.c)
    alpha_cap = int(_dec(cfg.alpha) * g.n)
    assert verify_cover(g, cover).ok
    assert rep.success == verify_cover(g, cover, max_count=limit, max_uncovered=alpha_cap).ok
    assert (rep.final_count, rep.uncovered) == (len(cover.paths), len(cover.uncovered))
    if g.n <= ORACLE_MAX_N and not cover.uncovered:
        assert len(cover.paths) >= min_path_cover_exact(g).cover_number
