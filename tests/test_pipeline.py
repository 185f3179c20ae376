import dataclasses
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathcover._bits import mask_of, mix64
from pathcover.cli import write_cover_file
from pathcover.generators import (
    GenSpec,
    _dec,
    degree_from_ratio,
    extremal_family,
    generate,
    random_bipartite_regular,
    random_regular,
)
from pathcover.graph import Graph, induced_subgraph
from pathcover.hamilton import Cycle, Path
from pathcover import pipeline
from pathcover.regularity import Partition, is_eps_regular
from pathcover.pipeline import (
    CycleSet,
    DegenerateParameterError,
    PathCover,
    PipelineConfig,
    RESERVOIR_ATTEMPTS,
    ReservoirError,
    RunReport,
    _absorb,
    _concat_paths,
    _cycle_stage,
    _default_t,
    _int_window,
    _reservoir_draws,
    _reservoir_relaxed,
    _reservoir_windows,
    _single_vertex_verdict,
    chernoff_lower,
    chernoff_upper,
    connect_paths,
    cycle_cover,
    path_cover,
    path_cover_bipartite,
    paths_limit,
    paths_limit_bipartite,
    reservoir,
    verify_cover,
)


def complete(n):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


# --------------------------------------------------------------- configuration


def test_derived_chain():
    cfg = PipelineConfig.derive(0.3, 0.1)
    assert cfg.d == pytest.approx(0.1 * 0.3 / 9)
    assert cfg.delta == pytest.approx(cfg.d / 2)
    assert cfg.beta == pytest.approx(3 * cfg.d / 0.3)
    assert cfg.gamma == pytest.approx(0.025)
    assert 0 < cfg.eps <= cfg.d / 6 + 1e-12


def test_config_invariants_enforced():
    with pytest.raises(ValueError):
        PipelineConfig.derive(0.3, 0.1, eps=0.5)  # eps > d/6
    with pytest.raises(ValueError):
        PipelineConfig.derive(0.3, 0.1, gamma=0.3)  # gamma > 1/4
    with pytest.raises(ValueError):
        PipelineConfig.derive(0.0, 0.1)


@pytest.mark.parametrize(
    "given",
    [{"t": 0}, {"t": -1}, {"t": True}, {"t": 2.0}, {"gamma": -0.1}, {"gamma": math.nan}, {"d": 2}, {"d": math.nan}],
    ids=lambda given: ",".join(f"{k}={v}" for k, v in given.items()),
)
def test_config_rejects_parameters_outside_their_range(given):
    with pytest.raises(ValueError):
        PipelineConfig.derive(0.5, 0.1, **given)


def test_config_stores_numpy_integers_as_python_ints():
    cfg = PipelineConfig.derive(0.5, 0.1, t=np.int64(4), seed=np.uint64(3))
    assert (cfg.t, cfg.seed) == (4, 3) and type(cfg.t) is int and type(cfg.seed) is int
    assert cfg == PipelineConfig.derive(0.5, 0.1, t=4, seed=3)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_config_rejects_seed_outside_64_bits(seed):
    with pytest.raises(ValueError, match="seed must be in"):
        PipelineConfig.derive(0.3, 0.1, seed=seed)
    assert PipelineConfig.derive(0.3, 0.1, seed=2**64 - 1).seed == 2**64 - 1


def test_with_alpha_rederives():
    cfg = PipelineConfig.derive(0.3, 0.1)
    half = cfg.with_alpha(0.05)
    assert half.d == pytest.approx(cfg.d / 2)
    assert half.seed == cfg.seed


def _as_built(cfg, **changes):
    """The config built directly from its fields, with `changes` applied."""
    fields = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg)}
    return PipelineConfig(**{**fields, **changes})


def test_equal_configs_give_equal_covers():
    # K120 with d and eps set by hand: derive, the constructor and replace
    # build the same seven values, and the alpha/2 cycle stage keeps the given
    # d and eps in each, so none reports |V_0| above eps*n
    c = 0.991666666  # 119/120 rounded down to 9 decimals
    g = extremal_family(GenSpec(120, 119, "disjoint-cliques", 0))
    derived = PipelineConfig.derive(c, 0.3, d=0.3, eps=0.04)
    configs = (
        derived,
        _as_built(derived),
        dataclasses.replace(PipelineConfig.derive(c, 0.3), d=0.3, eps=0.04),
    )
    assert len(set(configs)) == 1
    outs = set()
    for cfg in configs:
        cover, rep = path_cover(g, cfg)
        assert not any("|V_0|" in note for note in rep.notes)
        outs.add((rep.to_kv_text(), write_cover_file(cover)))
    assert len(outs) == 1


def test_route_cell_runs_the_route_from_a_directly_built_config():
    # the n=2400 route cell: its d and eps reach the alpha/2 cycle stage however
    # the config was built
    g = generate(GenSpec(2400, degree_from_ratio(2400, 0.6), "random-regular", 0))
    derived = PipelineConfig.derive(0.6, 0.3, d=0.55, eps=0.09, t=4)
    configs = (
        derived,
        _as_built(derived),
        _as_built(PipelineConfig.derive(0.6, 0.3), d=0.55, eps=0.09, t=4),
    )
    outs = set()
    for cfg in configs:
        cover, rep = path_cover(g, cfg)
        route = (rep.method, len(cover.paths), rep.uncovered, rep.connections)
        assert route == ("regularity-pipeline", 1, 0, 3)
        outs.add((rep.to_kv_text(), write_cover_file(cover)))
    assert len(outs) == 1


def _record_rule(c, alpha, given, t, new_alpha):
    """with_alpha as it was when derive recorded its given values: derive at
    the new alpha with them, and without eps if that violates eps <= d/6."""
    try:
        return PipelineConfig.derive(c, new_alpha, t=t, seed=5, **given)
    except ValueError:
        given = {k: v for k, v in given.items() if k != "eps"}
        return PipelineConfig.derive(c, new_alpha, t=t, seed=5, **given)


def test_with_alpha_matches_the_record_rule():
    checked = 0
    grid = itertools.product(
        (0.1, 0.15, 0.3, 1 / 3, 0.45, 0.6, 0.999166666, 1),
        (0.05, 0.1, 0.2, 0.3, 1),
        (None, 0.01, 0.3, 0.55),
        (None, 0.0005, 0.001, 0.003, 0.04, 0.09),
        (None, 0.1, 0.25),
        (None, 4),
    )
    for c, alpha, d, eps, gamma, t in grid:
        given = {k: v for k, v in (("d", d), ("eps", eps), ("gamma", gamma)) if v is not None}
        try:
            cfg = PipelineConfig.derive(c, alpha, t=t, seed=5, **given)
        except ValueError:
            continue
        # the chain's values at alpha, eps from cfg.d; a given value equal to
        # one of them is derived again at the new alpha, unlike the record rule
        chain = PipelineConfig.derive(c, alpha, d=cfg.d)
        chain_values = {"d": PipelineConfig.derive(c, alpha).d, "eps": chain.eps, "gamma": chain.gamma}
        if any(v == chain_values[k] for k, v in given.items()):
            continue
        for new_alpha in (alpha / 2, alpha / 3):
            assert cfg.with_alpha(new_alpha) == _record_rule(c, alpha, given, t, new_alpha)
            checked += 1
    assert checked == 6928  # the grid cases that reach the comparison


def test_limits_use_decimal_c():
    assert paths_limit(0.3) == 3
    assert paths_limit(0.45) == 2
    assert paths_limit(0.55) == 1
    assert paths_limit_bipartite(0.3) == 1
    assert paths_limit_bipartite(0.25) == 2


# -------------------------------------------------------------------- chernoff


def test_chernoff_formulas_exact():
    assert chernoff_upper(30, 0.5, 5) == pytest.approx(math.exp(-25 / (30 + 5 / 3)), rel=1e-15)
    assert chernoff_lower(30, 0.5, 5) == pytest.approx(math.exp(-5 / 6), rel=1e-15)


def test_chernoff_domain():
    for bad in [(0, 0.5, 1), (5, 0.0, 1), (5, 1.0, 1), (5, 0.5, 0), (10, 0.5, math.nan)]:
        with pytest.raises(ValueError):
            chernoff_upper(*bad)
        with pytest.raises(ValueError):
            chernoff_lower(*bad)


# ------------------------------------------------------------------- reservoir


def test_reservoir_gamma_zero_degenerate():
    with pytest.raises(DegenerateParameterError):
        reservoir(complete(20), gamma=0.0, eps=0.5)


def test_reservoir_tiny_window_degenerate():
    # gamma*n = 3 with a hairline window around it: no integer inside
    with pytest.raises(DegenerateParameterError):
        reservoir(complete(30), gamma=0.1, eps=1e-9)


@pytest.mark.parametrize("eps", [math.nan, math.inf])
def test_reservoir_non_finite_eps_degenerate(eps):
    with pytest.raises(DegenerateParameterError, match="positive and finite"):
        reservoir(complete(20), gamma=0.2, eps=eps)


def test_reservoir_eps_one_succeeds():
    g = complete(60)
    r = reservoir(g, gamma=0.2, eps=0.999, seed=1)
    assert 0 < len(r) < 24  # open window (0, 2*gamma*n)


def test_reservoir_windows_audited():
    g = complete(120)
    gamma, eps = 0.15, 0.5
    r = reservoir(g, gamma, eps, seed=3)
    n, k = 120, 119
    assert (1 - eps) * gamma * n < len(r) < (1 + eps) * gamma * n
    rset = set(r)
    for v in range(n):
        deg = len(g.neighbors(v) & rset)
        assert (1 - eps) * gamma * k < deg < (1 + eps) * gamma * k


def test_reservoir_deterministic():
    g = complete(80)
    assert reservoir(g, 0.2, 0.5, seed=9) == reservoir(g, 0.2, 0.5, seed=9)


def test_reservoir_requires_regular():
    with pytest.raises(ValueError):
        reservoir(Graph(3, [(0, 1)]), 0.2, 0.5)


def _draws_reference(n, gamma, rng):
    """The candidate sets by their definition: one rng.random() per vertex."""
    for _ in range(RESERVOIR_ATTEMPTS):
        rmask = size = 0
        for v in range(n):
            if rng.random() < gamma:
                rmask |= 1 << v
                size += 1
        yield rmask, size


@pytest.mark.parametrize("n", [0, 1, 31, 32, 33, 600, 2400])
@pytest.mark.parametrize("gamma", [0.025, 0.25, 0.5, 1.0])
def test_reservoir_draws_match_reference_loop(n, gamma, monkeypatch):
    made = []

    class Recorded(random.Random):
        def __init__(self, seed):
            super().__init__(seed)
            made.append(self)

    for seed in (0, 1, 7):
        twin = random.Random(mix64(seed, 0x6E5E6))
        with monkeypatch.context() as m:
            m.setattr(random, "Random", Recorded)
            draws = list(_reservoir_draws(n, gamma, seed))
        assert draws == list(_draws_reference(n, gamma, twin))
        # the bulk draws consumed exactly the words of the reference loop
        assert made.pop().random() == twin.random()


def test_reservoir_draws_exact_at_gamma():
    # gamma equal to a drawn value leaves that vertex out, one ulp above it
    # takes it in: the integer test must match random() < gamma to the last bit
    first = random.Random(mix64(3, 0x6E5E6))
    for x in [first.random() for _ in range(8)]:
        for gamma in (x, math.nextafter(x, 1)):
            twin = random.Random(mix64(3, 0x6E5E6))
            assert list(_reservoir_draws(64, gamma, 3)) == list(_draws_reference(64, gamma, twin))


@pytest.mark.parametrize("n", [170, 2400, 8193])
def test_reservoir_draws_come_in_blocks_of_about_64_kib(n, monkeypatch):
    # 8192 // n candidates a block: 48 + 2 at n=170, 16 x 3 + 2 at n=2400,
    # one at a time above 8192; nothing is drawn before the first candidate
    calls = []

    class Recorded(random.Random):
        def getrandbits(self, k):
            calls.append(k)
            return super().getrandbits(k)

    twin = random.Random(mix64(5, 0x6E5E6))
    block = max(8192 // n, 1)
    sizes = [min(block, RESERVOIR_ATTEMPTS - s) for s in range(0, RESERVOIR_ATTEMPTS, block)]
    monkeypatch.setattr(random, "Random", Recorded)
    draws = _reservoir_draws(n, 0.1, 5)
    assert calls == []
    assert list(draws) == list(_draws_reference(n, 0.1, twin))
    assert calls == [64 * n * a for a in sizes]


def _windows_reference(n, k, gamma, eps):
    """The reservoir's windows as Fractions: (floor, ceil) of the size and
    degree windows, or the message of the window that holds no integer."""
    ga, ep = _dec(gamma), _dec(eps)
    size_lo, size_hi = (1 - ep) * ga * n, (1 + ep) * ga * n
    deg_lo, deg_hi = (1 - ep) * ga * k, (1 + ep) * ga * k
    size_floor, size_ceil = _int_window(size_lo, size_hi)
    deg_floor, deg_ceil = _int_window(deg_lo, deg_hi)
    if size_ceil - size_floor <= 1:
        return f"no integer size in ({float(size_lo):.3f}, {float(size_hi):.3f})"
    if deg_ceil - deg_floor <= 1:
        return f"no integer degree in ({float(deg_lo):.3f}, {float(deg_hi):.3f})"
    return size_floor, size_ceil, deg_floor, deg_ceil


def _positive(top):
    return st.one_of(
        st.sampled_from([x for x in (0.0125, 0.025, 0.1, 0.125, 0.25, 0.5, 1.0, 1.5, 2.0) if x <= top]),
        st.floats(min_value=1e-12, max_value=top),
        st.fractions(min_value=Fraction(1, 10**12), max_value=top, max_denominator=10**12),
    )


@settings(max_examples=500, deadline=None)
@given(
    n=st.one_of(st.integers(0, 200), st.integers(0, 10**7)),
    k=st.one_of(st.integers(0, 200), st.integers(0, 10**7)),
    gamma=_positive(1),
    eps=_positive(8),
)
def test_reservoir_windows_equal_the_fraction_windows(n, k, gamma, eps):
    expected = _windows_reference(n, k, gamma, eps)
    if isinstance(expected, str):
        with pytest.raises(DegenerateParameterError) as err:
            _reservoir_windows(n, k, gamma, eps)
        assert str(err.value) == expected
    else:
        assert _reservoir_windows(n, k, gamma, eps) == expected


_fraction = st.fractions(min_value=-50, max_value=50, max_denominator=12)


@settings(max_examples=300, deadline=None)
@given(
    lo=st.one_of(_fraction, st.integers(-50, 50).map(Fraction)),
    width=st.one_of(
        st.fractions(min_value=Fraction(1, 12), max_value=4, max_denominator=12),
        st.integers(1, 4).map(Fraction),
    ),
    offset=st.integers(-3, 3),
)
def test_int_window_agrees_with_fraction_window(lo, width, offset):
    hi = lo + width
    floor_lo, ceil_hi = _int_window(lo, hi)
    for x in (math.floor(lo) + offset, math.ceil(hi) + offset):
        assert (lo < x < hi) == (floor_lo < x < ceil_hi)
    assert (ceil_hi - floor_lo <= 1) == (math.floor(lo) + 1 >= hi)


def _reservoir_reference(g, cfg, eps0):
    """The relaxation loop by its definition: a fresh `reservoir` call at
    eps0, 2*eps0, ... up to 1, the first accepted set wins."""
    notes = []
    eps = eps0
    while eps <= 1.0:
        try:
            r = reservoir(g, cfg.gamma, eps, seed=mix64(cfg.seed, 0x6E5))
            if eps != eps0:
                notes.append(f"reservoir accepted at relaxed eps={eps:.4g}")
            return r, notes
        except (DegenerateParameterError, ReservoirError):
            if eps == 1.0:
                break
            eps = min(eps * 2, 1.0)
    notes.append("reservoir disabled (no eps up to 1 produced a valid set)")
    return frozenset(), notes


def _cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


@pytest.mark.parametrize(
    "family, n, c, gamma, eps0, outcome",
    [
        ("random-regular", 300, 0.45, 0.25, 0.3, "first"),
        ("random-bipartite-regular", 600, 0.15, 0.25, 0.6, "first"),
        ("random-regular", 300, 0.45, 0.25, None, "relaxed"),
        ("random-regular", 200, 0.6, None, None, "relaxed"),
        ("random-regular", 200, 0.6, None, 0.3, "relaxed"),  # accepted at eps=1
        ("random-regular", 600, 0.3, 0.25, None, "relaxed"),
        ("random-regular", 300, 0.45, None, None, "disabled"),  # 50 draws fail at every eps
        ("random-bipartite-regular", 600, 0.15, None, None, "disabled"),
        ("random-regular", 200, 0.6, None, 1.5, "disabled"),  # eps0 above 1
        ("cycle", 12, 0.2, 0.25, 0.01, "disabled"),  # degree window empty at every eps
    ],
)
def test_reservoir_relaxed_matches_reference_loop(family, n, c, gamma, eps0, outcome):
    if family == "cycle":
        g = _cycle(n)
    else:
        g = generate(GenSpec(n, degree_from_ratio(n, c), family, seed=0))
    cfg = PipelineConfig.derive(c, 0.1, gamma=gamma, seed=1)
    eps0 = cfg.eps if eps0 is None else eps0
    rep = RunReport(n=n)
    r = _reservoir_relaxed(g, cfg, eps0, rep)
    expected_r, expected_notes = _reservoir_reference(g, cfg, eps0)
    assert (r, rep.notes) == (expected_r, expected_notes)
    got = "disabled" if not r else "relaxed" if rep.notes else "first"
    assert got == outcome


# ---------------------------------------------------------------- connect loop


def test_connect_two_paths_through_common_neighbor():
    # paths 0-1 and 2-3; reservoir {4}; 4 adjacent to the chosen ends 0 and 2
    g = Graph(5, [(0, 1), (2, 3), (0, 4), (2, 4)])
    paths = [Path((0, 1)), Path((2, 3))]
    merged, r_left, log = connect_paths(g, paths, {4}, limit=1)
    assert len(merged) == 1 and len(merged[0]) == 5
    merged[0].validate(g)
    assert r_left == frozenset()
    assert log == [(0, 1, 4)]


def test_connect_no_common_neighbor_is_identity():
    g = Graph(6, [(0, 1), (2, 3), (0, 4), (2, 5)])
    paths = [Path((0, 1)), Path((2, 3))]
    merged, r_left, log = connect_paths(g, paths, {4, 5}, limit=1)
    assert len(merged) == 2 and log == []
    assert r_left == frozenset({4, 5})


def test_connect_below_limit_is_identity():
    g = complete(6)
    paths = [Path((0, 1, 2))]
    merged, r_left, log = connect_paths(g, paths, {3, 4}, limit=2)
    assert merged == paths and log == []


def test_each_merge_reduces_count_by_one():
    g = complete(12)
    paths = [Path((i,)) for i in range(6)]
    merged, _, log = connect_paths(g, paths, {6, 7, 8, 9, 10, 11}, limit=1)
    assert len(merged) == 6 - len(log)
    for p in merged:
        p.validate(g)


def connect_bipartite(g, paths, r, limit):
    """(path vertex tuples, leftover reservoir, merges, trimmed vertices)."""
    x, y = g.bipartition
    out, left, merges = connect_paths(g, paths, r, limit, sides=(mask_of(x), mask_of(y)))
    # each merge adds its connector and each trim removes one end vertex
    trimmed = sum(map(len, paths)) + len(merges) - sum(map(len, out))
    return [p.vertices for p in out], left, merges, trimmed


def test_connect_bipartite_merges_at_x_ends():
    g = Graph(8, [(0, 4), (1, 5), (0, 6), (1, 6)], bipartition=(range(4), range(4, 8)))
    got = connect_bipartite(g, [Path((0, 4)), Path((1, 5))], {6}, limit=1)
    assert got == ([(4, 0, 6, 1, 5)], frozenset(), [(0, 1, 6)], 0)


def test_connect_bipartite_trims_a_path_with_both_ends_in_y():
    # (5, 0, 4) has no X end; dropping its tail 4 exposes 0
    g = Graph(
        8, [(5, 0), (0, 4), (1, 6), (0, 7), (1, 7)], bipartition=(range(4), range(4, 8))
    )
    got = connect_bipartite(g, [Path((5, 0, 4)), Path((1, 6))], {7}, limit=1)
    assert got == ([(5, 0, 7, 1, 6)], frozenset(), [(0, 1, 7)], 1)


def test_connect_bipartite_never_uses_an_x_side_connector():
    # X = {4..7}: 6 joins the Y ends 0 and 1, which the general policy would
    # merge through; the bipartite policy has only 2, adjacent to one X end
    g = Graph(
        8, [(0, 4), (1, 5), (6, 0), (6, 1), (2, 4)], bipartition=(range(4, 8), range(4))
    )
    paths = [Path((0, 4)), Path((1, 5))]
    assert connect_paths(g, paths, {2, 6}, limit=1)[2] == [(0, 1, 6)]
    got = connect_bipartite(g, paths, {2, 6}, limit=1)
    assert got == ([(0, 4), (1, 5)], frozenset({2, 6}), [], 0)


# ------------------------------------------------------ direct joins and absorb


@pytest.mark.parametrize(
    "join, merged",
    [
        ((1, 2), (0, 1, 2, 3)),  # tail-head
        ((1, 3), (0, 1, 3, 2)),  # tail-tail
        ((0, 2), (1, 0, 2, 3)),  # head-head
        ((0, 3), (1, 0, 3, 2)),  # head-tail
    ],
    ids=["tail-head", "tail-tail", "head-head", "head-tail"],
)
def test_concat_joins_each_end_pairing(join, merged):
    g = Graph(4, [(0, 1), (2, 3), join])
    assert _concat_paths(g, [Path((0, 1)), Path((2, 3))], 1) == ([Path(merged)], 1)


def test_concat_prefers_tail_head_and_smallest_pair():
    # every end pairing of paths 0 and 1 is an edge, and path 1's tail joins
    # path 2's head; the pair (0, 1) is scanned first
    g = Graph(6, [(0, 1), (2, 3), (4, 5), (1, 2), (1, 3), (0, 2), (0, 3), (3, 4)])
    paths = [Path((0, 1)), Path((2, 3)), Path((4, 5))]
    assert _concat_paths(g, paths, 2) == ([Path((4, 5)), Path((0, 1, 2, 3))], 1)
    assert _concat_paths(g, paths, 1) == ([Path((5, 4, 3, 2, 1, 0))], 2)


def test_absorb_extends_tail_before_head():
    # 0 is adjacent to both ends of 1-2-3; the tail takes it
    g = Graph(4, [(1, 2), (2, 3), (0, 1), (0, 3)])
    free = {0}
    assert _absorb(g, [Path((1, 2, 3))], free) == ([Path((1, 2, 3, 0))], 1)
    assert free == set()


def test_absorb_takes_smallest_free_vertex_first():
    # the tail 1 sees 2 and 3; 2 goes first, and 3 has no later place
    g = Graph(4, [(0, 1), (1, 2), (1, 3)])
    free = {2, 3}
    assert _absorb(g, [Path((0, 1))], free) == ([Path((0, 1, 2))], 1)
    assert free == {3}


def test_absorb_splices_at_first_gap():
    # 6 sees no end but 1, 2, 3 and 4: the first gap is 1-2
    g = Graph(7, [(i, i + 1) for i in range(5)] + [(6, v) for v in (1, 2, 3, 4)])
    paths = [Path((0, 1, 2, 3, 4, 5))]
    assert _absorb(g, paths, {6}) == ([Path((0, 1, 6, 2, 3, 4, 5))], 1)


def test_absorb_splices_free_edge_on_bipartite_path():
    # sides {0, 2, 4} and {1, 3, 5}: no free vertex sees two consecutive path
    # vertices, but the free edge 4-5 fits between 1 ~ 4 and 5 ~ 2
    g = Graph(6, [(0, 1), (1, 2), (2, 3), (1, 4), (4, 5), (5, 2)], bipartition=({0, 2, 4}, {1, 3, 5}))
    free = {4, 5}
    assert _absorb(g, [Path((0, 1, 2, 3))], free) == ([Path((0, 1, 4, 5, 2, 3))], 2)
    assert free == set()


def test_absorb_single_splice_before_free_edge():
    # 6 fits between 1 and 2, and so would the free edge 4-5 (4 < 6); the
    # single vertex goes first and leaves the pair no gap
    g = Graph(7, [(0, 1), (1, 2), (2, 3), (1, 4), (4, 5), (5, 2), (6, 1), (6, 2)])
    free = {4, 5, 6}
    assert _absorb(g, [Path((0, 1, 2, 3))], free) == ([Path((0, 1, 6, 2, 3))], 1)
    assert free == {4, 5}


def test_absorb_free_edge_order():
    # runs (8, 9) and (8, 10) fit after 2 and 4, and (10, 8) already after 1:
    # the smallest w, then the smallest w', then the first gap wins
    g = Graph(
        11,
        [(i, i + 1) for i in range(7)]
        + [(8, 2), (8, 4), (8, 9), (8, 10), (9, 3), (9, 5), (10, 1), (10, 3), (10, 5)],
    )
    free = {8, 9, 10}
    assert _absorb(g, [Path(tuple(range(8)))], free) == ([Path((0, 1, 2, 8, 9, 3, 4, 5, 6, 7))], 2)
    assert free == {10}


# ------------------------------------------------------------------ cover audit


def test_verify_valid_hamiltonian_path():
    g = complete(5)
    cover = PathCover([Path((0, 1, 2, 3, 4))], frozenset())
    assert verify_cover(g, cover, max_count=1, max_uncovered=0).ok


def test_verify_catches_shared_vertex():
    g = complete(5)
    cover = PathCover([Path((0, 1)), Path((1, 2))], frozenset({3, 4}))
    chk = verify_cover(g, cover)
    assert not chk.ok
    assert any(i.name == "disjoint" and not i.ok for i in chk.items)


@pytest.mark.parametrize(
    "units, declared",
    [([(0, 1), (1, 2), (3,)], frozenset()), ([(0, 1), (1, 2)], frozenset({3}))],
)
def test_verify_shared_vertex_keeps_later_units_covered(units, declared):
    # the disjoint scan stops at vertex 1; the units still cover 0..3
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    chk = verify_cover(g, PathCover([Path(u) for u in units], declared))
    status = {i.name: i.ok for i in chk.items}
    assert status == {"adjacency": True, "distinct-vertices": True, "disjoint": False, "uncovered-consistent": True}


def test_verify_catches_non_edge():
    g = Graph(4, [(0, 1)])
    cover = PathCover([Path((0, 1, 2))], frozenset({3}))
    chk = verify_cover(g, cover)
    assert any(i.name == "adjacency" and not i.ok for i in chk.items)


@pytest.mark.parametrize("pair", [(5, 0), (-1, 1), (np.int64(-1), np.int64(1)), (np.int64(5), 0)])
def test_verify_reports_out_of_range_pair_as_non_edge(pair):
    # -1 must not wrap around to vertex 2, which is a neighbor of 1
    g = Graph(3, [(0, 1), (1, 2)])
    chk = verify_cover(g, PathCover([Path(pair)], frozenset()))
    adjacency = next(i for i in chk.items if i.name == "adjacency")
    assert not adjacency.ok
    assert adjacency.detail == f"unit 0 uses non-edge ({pair[0]},{pair[1]})"


def test_verify_accepts_numpy_ids_past_bit_63():
    # an adjacency row past bit 63 cannot be shifted by a bare numpy integer
    g = Graph(100, [(v, v + 1) for v in range(99)])
    chk = verify_cover(g, PathCover([Path(tuple(np.arange(100)))], frozenset()))
    assert chk.ok, chk.items


def test_verify_catches_count_overflow():
    g = complete(4)
    cover = PathCover([Path((0,)), Path((1,)), Path((2, 3))], frozenset())
    chk = verify_cover(g, cover, max_count=2)
    assert any(i.name == "count" and not i.ok for i in chk.items)


def test_verify_catches_inconsistent_uncovered():
    g = complete(4)
    cover = PathCover([Path((0, 1))], frozenset({2}))  # vertex 3 unaccounted
    chk = verify_cover(g, cover)
    assert any(i.name == "uncovered-consistent" and not i.ok for i in chk.items)


# ----------------------------------------------------------------- cycle cover


@st.composite
def pairs_with_small_eps(draw):
    """A bipartite pair with sides of 1-10 vertices and an eps with
    eps*max(|A|, |B|) < 1 and eps <= 1/2."""
    na, nb = draw(st.integers(1, 10)), draw(st.integers(1, 10))
    picks = draw(st.lists(st.booleans(), min_size=na * nb, max_size=na * nb))
    edges = [(i, na + j) for i in range(na) for j in range(nb) if picks[i * nb + j]]
    eps = Fraction(draw(st.integers(1, 60)), 61) / max(na, nb, 2)
    return Graph(na + nb, edges), na, nb, eps


@settings(max_examples=80, deadline=None)
@given(pairs_with_small_eps())
def test_single_vertex_verdict_matches_exact_regularity(case):
    g, na, nb, eps = case
    verdict = is_eps_regular(g, range(na), range(na, na + nb), eps)
    assert verdict.mode == "exact"
    assert _single_vertex_verdict(g.m, na, nb, eps) == verdict.regular


@pytest.mark.parametrize(
    "na, nb, eps", [(4, 4, Fraction(1, 4)), (2, 6, Fraction(1, 5)), (1, 1, Fraction(3, 5))]
)
def test_single_vertex_verdict_declines_outside_its_range(na, nb, eps):
    assert _single_vertex_verdict(1, na, nb, eps) is None


@pytest.mark.parametrize("family, c", [("random-regular", 0.3), ("random-bipartite-regular", 0.3)])
@pytest.mark.parametrize("n", [120, 600])
def test_closed_form_route_on_random_host_finds_no_dense_regular_pair(family, c, n):
    # eps*m < 1: a pair is regular only with 0 or m^2 edges, which no pair of
    # a random host has, so every verdict is False and the route stops
    m = (n // _default_t(n)) & ~1
    for seed in range(4):
        g = generate(GenSpec(n, degree_from_ratio(n, c), family, seed))
        cfg = PipelineConfig.derive(c, 0.1, seed=seed)
        assert _single_vertex_verdict(0, m, m, Fraction(cfg.eps)) is not None
        rep = dataclasses.replace(RunReport(), regular_pair_fraction=-1.0, cluster_edges=-1)
        assert pipeline._regularity_cycles(g, range(n), cfg, rep) is None
        assert (rep.regular_pair_fraction, rep.cluster_edges) == (0.0, 0)
        assert rep.notes[-1] == "no dense regular pairs"


def test_cycle_cover_rejects_degree_window_violation():
    g = Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (1, 3)])
    cfg = PipelineConfig.derive(0.5, 0.2)
    with pytest.raises(ValueError):
        cycle_cover(g, cfg)  # degrees 2 and 3 cannot sit in a tight window


def test_cycle_cover_complete_graph_uses_regularity_route():
    n = 240
    g = complete(n)
    cfg = PipelineConfig.derive((n - 1) / n, 0.1, seed=2)
    cycset, rep = cycle_cover(g, cfg)
    assert rep.method == "regularity-pipeline"
    assert rep.success
    assert len(cycset.cycles) <= rep.t
    assert len(cycset.uncovered) <= 24
    assert verify_cover(g, cycset, max_count=rep.t, max_uncovered=24).ok


def test_cycle_cover_random_regular_falls_back_but_covers():
    n, c = 150, 0.4
    k = degree_from_ratio(n, c)
    g = random_regular(GenSpec(n, k, "random-regular", seed=8))
    cfg = PipelineConfig.derive(c, 0.1, seed=8)
    cycset, rep = cycle_cover(g, cfg, strict_window=False)
    assert len(cycset.uncovered) <= 15
    assert verify_cover(g, cycset, max_uncovered=15).ok


def test_cycle_cover_random_sweep_covers_most():
    # 0.9n coverage with at most t cycles on mid-density random instances
    n, c = 600, 0.3
    k = degree_from_ratio(n, c)
    ok = 0
    for seed in range(12):
        g = random_regular(GenSpec(n, k, "random-regular", seed=seed))
        cycset, rep = cycle_cover(g, PipelineConfig.derive(c, 0.1, seed=seed), strict_window=False)
        chk = verify_cover(g, cycset, max_count=max(rep.t, 4), max_uncovered=60)
        ok += chk.ok
    assert ok >= 11


@pytest.mark.parametrize(
    "family, c", [("random-regular", 0.05), ("random-regular", 0.3), ("random-bipartite-regular", 0.1)]
)
@pytest.mark.parametrize("t", [None, 1])
def test_cycle_cover_success_is_the_audit_at_the_cycle_cap(family, c, t):
    # cubic random graphs (c=0.05) leave some seeds with no closed cycle
    n = 60
    verdicts = []
    for seed in range(6):
        g = generate(GenSpec(n, degree_from_ratio(n, c), family, seed))
        cfg = PipelineConfig.derive(c, 0.01, t=t, seed=seed)
        cycset, rep = cycle_cover(g, cfg, strict_window=False)
        t_cap = t if t is not None else max(_default_t(n), 4)
        check = verify_cover(g, cycset, max_count=t_cap, max_uncovered=int(0.01 * n))
        assert rep.success == check.ok
        assert (rep.final_count, rep.uncovered) == (len(cycset.cycles), len(cycset.uncovered))
        assert rep.covered == n - rep.uncovered
        verdicts.append(rep.success)
    if c == 0.05:
        assert set(verdicts) == {False, True}


@pytest.mark.parametrize(
    "family, n, c, seed",
    [
        ("random-regular", 150, 0.4, 8),
        ("random-bipartite-regular", 120, 0.3, 3),
        ("disjoint-cliques", 240, 239 / 240, 2),  # one K240 block: the regularity route
    ],
)
def test_cycle_stage_on_a_working_set_matches_the_relabelled_copy(family, n, c, seed):
    g = generate(GenSpec(n, degree_from_ratio(n, c), family, seed))
    rng = random.Random(seed)
    rest = sorted(v for v in range(n) if rng.random() > 0.05)
    cfg = PipelineConfig.derive(c, 0.1, seed=seed)
    cycset, rep = _cycle_stage(g, rest, cfg, strict_window=False)
    sub, mapping = induced_subgraph(g, rest)
    ref, ref_rep = _cycle_stage(sub, range(sub.n), cfg, strict_window=False)
    assert ref == cycle_cover(sub, cfg, strict_window=False)[0]
    assert cycset.cycles == [Cycle(tuple(mapping[v] for v in cy.vertices)) for cy in ref.cycles]
    assert cycset.uncovered == frozenset(mapping[v] for v in ref.uncovered)
    assert rep.to_kv_text() == ref_rep.to_kv_text()
    if family == "disjoint-cliques":
        assert rep.method == "regularity-pipeline"


def test_partition_validate_checks_the_working_set():
    rest = [1, 3, 4, 6, 8, 9]
    good = Partition(frozenset({9}), (frozenset({1, 3}), frozenset({4, 6})), 2)
    with pytest.raises(ValueError, match="split the vertex set"):
        good.validate(rest)  # misses working vertex 8
    Partition(frozenset({8, 9}), good.clusters, 2).validate(rest)
    with pytest.raises(ValueError, match="split the vertex set"):
        Partition(frozenset({8, 9}), (frozenset({1, 3}), frozenset({4, 5})), 2).validate(rest)


# ------------------------------------------------------------------ path cover


def test_path_cover_validates_c_against_instance():
    g = complete(8)  # 7-regular
    cfg = PipelineConfig.derive(0.5, 0.1)  # implies 4-regular
    with pytest.raises(ValueError):
        path_cover(g, cfg)


def test_path_cover_complete_graph_regularity_route():
    n = 240
    g = complete(n)
    cfg = PipelineConfig.derive((n - 1) / n, 0.1, seed=4)
    cover, rep = path_cover(g, cfg)
    assert rep.method == "regularity-pipeline"
    assert rep.success
    assert len(cover.paths) == 1
    assert verify_cover(g, cover, max_count=1, max_uncovered=24).ok


def test_path_cover_dirac_regime_single_path():
    n, c = 120, 0.55
    k = degree_from_ratio(n, c)
    g = random_regular(GenSpec(n, k, "random-regular", seed=6))
    cover, rep = path_cover(g, PipelineConfig.derive(c, 0.1, seed=6))
    assert len(cover.paths) == 1
    assert verify_cover(g, cover, max_count=1, max_uncovered=12).ok


def test_path_cover_mid_density():
    n, c = 150, 0.3
    k = degree_from_ratio(n, c)
    g = random_regular(GenSpec(n, k, "random-regular", seed=7))
    cover, rep = path_cover(g, PipelineConfig.derive(c, 0.1, seed=7))
    assert verify_cover(g, cover, max_count=3, max_uncovered=15).ok


def test_path_cover_bipartite_complete():
    n = 60
    g = Graph(
        n,
        [(i, 30 + j) for i in range(30) for j in range(30)],
        bipartition=(range(30), range(30, 60)),
    )
    cfg = PipelineConfig.derive(0.5, 0.1, seed=3)
    cover, rep = path_cover_bipartite(g, cfg)
    assert len(cover.paths) == 1
    assert verify_cover(g, cover, max_count=1, max_uncovered=6).ok


def test_path_cover_bipartite_random():
    n, c = 120, 0.3
    k = degree_from_ratio(n, c)
    g = random_bipartite_regular(GenSpec(n, k, "random-bipartite-regular", seed=11))
    cover, rep = path_cover_bipartite(g, PipelineConfig.derive(c, 0.1, seed=11))
    assert verify_cover(g, cover, max_count=1, max_uncovered=12).ok


def test_path_cover_bipartite_connections_use_reservoir_y_side():
    # four disjoint K_{10,10}: the path stage leaves more than 4 paths, and
    # the enlarged reservoir (gamma = 1/4) joins two of them
    g = extremal_family(GenSpec(80, 10, "disjoint-bicliques"))
    cover, rep = path_cover_bipartite(g, PipelineConfig.derive(0.125, 0.1, gamma=0.25, seed=1))
    assert rep.merges
    _, y = g.bipartition
    for (_, _, w) in rep.merges:
        assert w in rep.reservoir_vertices and w in y
    assert verify_cover(g, cover, max_count=4, max_uncovered=8).ok


def test_path_cover_reports_a_failed_audit(monkeypatch):
    # a join across two cliques uses a non-edge; count and coverage still fit
    def join_first_two(g, paths, limit):
        if len(paths) < 2:
            return paths, 0
        return [Path(paths[0].vertices + paths[1].vertices)] + paths[2:], 1

    g = extremal_family(GenSpec(20, 9, "disjoint-cliques"))
    cfg = PipelineConfig.derive(0.45, 0.1, seed=0)
    assert path_cover(g, cfg)[1].success
    monkeypatch.setattr(pipeline, "_concat_paths", join_first_two)
    cover, rep = path_cover(g, cfg)
    check = verify_cover(g, cover, max_count=paths_limit(0.45), max_uncovered=2)
    assert [i.name for i in check.items if not i.ok] == ["adjacency"]
    assert not rep.success


def test_path_cover_bipartite_rejects_plain_graph():
    g = complete(8)
    cfg = PipelineConfig.derive(7 / 8, 0.1)
    with pytest.raises(ValueError):
        path_cover_bipartite(g, cfg)


def test_out_of_regime_disjoint_cliques_rejected():
    g = extremal_family(GenSpec(40, 3, "disjoint-cliques"))  # k=3 fixed, not c*n
    cfg = PipelineConfig.derive(0.5, 0.1)
    with pytest.raises(ValueError):
        path_cover(g, cfg)


def test_run_report_kv_text():
    n = 60
    g = complete(n)
    cover, rep = path_cover(g, PipelineConfig.derive((n - 1) / n, 0.2, seed=1))
    text = rep.to_kv_text()
    assert "method=" in text and "uncovered=" in text and "notes=" in text


@pytest.mark.parametrize("cover", [cycle_cover, path_cover, path_cover_bipartite])
@pytest.mark.parametrize("t", [41, 2**64])
def test_covers_reject_more_clusters_than_vertices(cover, t):
    g = generate(GenSpec(40, 10, "random-bipartite-regular", seed=0))
    cfg = PipelineConfig.derive(0.25, 0.1, t=t)
    with pytest.raises(ValueError, match=rf"^t={t} exceeds n=40"):
        cover(g, cfg)
    cover(g, dataclasses.replace(cfg, t=40))  # one cluster per vertex is allowed
