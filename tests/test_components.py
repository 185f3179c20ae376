"""The rotation search on disconnected vertex sets: the components helper
against networkx and a reference BFS, the search's stops once a path spans
its start's component or a largest component, and the random bit pick
against `randrange`."""

import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pathcover.hamilton as hamilton
from pathcover._bits import bits, mask_of, nth_bit
from pathcover.generators import GenSpec, extremal_family
from pathcover.graph import Graph
from pathcover.hamilton import _components, longest_cycle, longest_path


@st.composite
def hosts(draw):
    """(graph, within) for n <= 30: a disjoint union of 1-4 blocks, each
    complete or random, under a random labelling, and a random vertex subset
    (every vertex about a third of the time)."""
    sizes = draw(st.lists(st.integers(1, 12), min_size=1, max_size=4))
    while sum(sizes) > 30:
        sizes.pop()
    rng = random.Random(draw(st.integers(0, 2**32)))
    label = list(range(sum(sizes)))
    rng.shuffle(label)
    edges, offset = [], 0
    for size in sizes:
        p = draw(st.sampled_from((1.0, 0.15, 0.4)))
        for u in range(offset, offset + size):
            edges += [(label[u], label[v]) for v in range(u + 1, offset + size) if rng.random() < p]
        offset += size
    g = Graph(offset, [(min(e), max(e)) for e in edges])
    within = None if draw(st.booleans()) else [v for v in range(g.n) if rng.random() < 0.7] or [0]
    return g, within


@settings(max_examples=80, deadline=None, derandomize=True)
@given(hosts())
def test_components_and_longest_path_on_unions(host):
    g, within = host
    vs = range(g.n) if within is None else within
    active = mask_of(vs)
    adj = [g.adjacency_mask(v) for v in range(g.n)]
    comps, label = _components(adj, active)
    assert all((comps[label[v]] >> v) & 1 for v in vs)
    nxg = nx.Graph(g.edges)
    nxg.add_nodes_from(range(g.n))
    expected = nx.connected_components(nxg.subgraph(vs))
    assert sorted(map(sorted, map(bits, comps))) == sorted(map(sorted, expected))

    path = longest_path(g, within=within, seed=0)
    path.validate(g)
    home = mask_of(path.vertices)
    assert any(home & ~comp == 0 for comp in comps)
    largest = max(comp.bit_count() for comp in comps)
    assert len(path) <= largest
    biggest = [comp for comp in comps if comp.bit_count() == largest]
    if all((adj[v] & comp).bit_count() == largest - 1 for comp in biggest for v in bits(comp)):
        assert len(path) == largest


def test_clique_union_search_stops_after_one_attempt(monkeypatch):
    # 4 x K30: the first attempt spans its clique, a largest component; the
    # search made 40 attempts over these two calls when it only stopped at n
    attempts = []
    grow = hamilton._grow_path

    def counted(*args):
        attempts.append(args[2])
        return grow(*args)

    monkeypatch.setattr(hamilton, "_grow_path", counted)
    g = extremal_family(GenSpec(120, 29, "disjoint-cliques"))
    path = longest_path(g, seed=0)
    assert len(attempts) == 1 and len(path) == 30
    cycle = longest_cycle(g, seed=0)
    assert len(attempts) == 2 and len(cycle) == 30


def _components_reference(adj, active):
    """Components by a vertex-at-a-time BFS, in order of their smallest
    vertex, with every vertex outside `active` labelled 0."""
    comps, label, seen = [], [0] * len(adj), 0
    for s in bits(active):
        if (seen >> s) & 1:
            continue
        comp, queue = 1 << s, [s]
        while queue:
            v = queue.pop()
            for w in bits(adj[v] & active & ~comp):
                comp |= 1 << w
                queue.append(w)
        for v in bits(comp):
            label[v] = len(comps)
        seen |= comp
        comps.append(comp)
    return comps, label


@settings(max_examples=150, deadline=None, derandomize=True)
@given(hosts(), st.sampled_from(["all", "within", "connected", "empty"]))
def test_components_match_a_reference_bfs(host, which):
    g, within = host
    adj = [g.adjacency_mask(v) for v in range(g.n)]
    if which == "all":
        active = (1 << g.n) - 1
    elif which == "within":
        active = mask_of(within or range(g.n))
    elif which == "empty":
        active = 0
    else:  # one whole component: its BFS stops when nothing is left
        active = _components_reference(adj, (1 << g.n) - 1)[0][0]
    assert _components(adj, active) == _components_reference(adj, active)


class _Recorded(random.Random):
    def __init__(self, seed):
        super().__init__(seed)
        self.calls = []

    def getrandbits(self, k):
        self.calls.append(k)
        return super().getrandbits(k)


@pytest.mark.parametrize("c", sorted({1, 2, 3} | {x for p in range(2, 11) for x in (2**p - 1, 2**p, 2**p + 1)}))
def test_pick_bit_draws_as_randrange(c):
    mask = mask_of(random.Random(c).sample(range(3 * c), c))
    inlined, twin = _Recorded(c), _Recorded(c)
    for _ in range(100):
        assert hamilton._pick_bit(mask, inlined) == nth_bit(mask, 0 if c == 1 else twin.randrange(c))
    assert inlined.calls == twin.calls
    assert inlined.getstate() == twin.getstate()
    if c == 1:
        assert inlined.calls == []  # one bit takes no draw
