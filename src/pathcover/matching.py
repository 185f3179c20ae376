"""Half-integral maximum fractional matchings and the deficiency that
certifies them.

Two independent routes to the same quantity:

* `fractional_matching` builds the bipartite double cover (u-copy on the
  left, v-copy on the right for every edge uv), finds a maximum matching by
  augmenting paths, and halves it. The recovered weights land in
  {0, 1/2, 1}; even alternating structures are rounded to integral weights
  so the support is always disjoint edges plus odd cycles.
* `max_deficiency` enumerates vertex subsets S and maximizes
  isolated(G - S) - |S|, which equals n - 2*mu_f. It is the oracle the
  matching is cross-validated against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import TYPE_CHECKING, Iterable, Iterator

from ._bits import bits, mask_of
from .graph import Graph

if TYPE_CHECKING:
    from .regularity import ClusterGraph

DEFICIENCY_CAP = 16

HALF = Fraction(1, 2)
ONE = Fraction(1)


class SizeLimitError(ValueError):
    """Instance too large for the exhaustive mode."""


@dataclass
class HalfIntegralMatching:
    """Edge weights in {0, 1/2, 1}; only positive weights are stored."""

    weights: dict[tuple[int, int], Fraction]
    value: Fraction = field(init=False)

    def __post_init__(self):
        self.value = sum(self.weights.values(), Fraction(0))

    def validate(self, g: Graph) -> None:
        """Check feasibility, half-integrality, and the support shape."""
        load: dict[int, Fraction] = {}
        for (u, v), w in self.weights.items():
            if not g.adjacent(u, v):
                raise ValueError(f"weight on non-edge ({u},{v})")
            if w not in (HALF, ONE):
                raise ValueError(f"weight {w} not in {{1/2, 1}}")
            load[u] = load.get(u, Fraction(0)) + w
            load[v] = load.get(v, Fraction(0)) + w
        for v, l in load.items():
            if l > 1:
                raise ValueError(f"vertex {v} overloaded: {l}")
        # no vertex has three half-edges now, so the half-weight support is
        # paths and cycles; the canonical form allows only odd cycles
        for walk, closed in _half_walks(_half_adj(self.weights.items())):
            if not closed:
                raise ValueError("half-weight support contains a path component")
            if len(walk) % 2 == 0:
                raise ValueError("half-weight support contains an even cycle")


def _augment(adj_sorted: list[list[int]], match_l: list[int], match_r: list[int]) -> None:
    """Kuhn's algorithm from an empty matching; neighbor lists pre-sorted for
    determinism. A root is matched only by its own search, so every root
    starts unmatched.

    The depth-first search keeps its own stack, so augmenting paths of any
    length fit; it tries neighbors in the same order as the recursive form.
    """
    for root in range(len(adj_sorted)):
        visited: set[int] = set()
        path = [root]  # left vertices of the alternating path being grown
        via: list[int] = []  # via[i] leads from path[i] to path[i + 1]
        untried = [iter(adj_sorted[root])]  # per path vertex, its untried neighbors
        while path:
            v = next((v for v in untried[-1] if v not in visited), None)
            if v is None:
                path.pop()
                untried.pop()
                if via:
                    via.pop()
                continue
            visited.add(v)
            via.append(v)
            if match_r[v] == -1:
                for u, w in zip(path, via):
                    match_l[u] = w
                    match_r[w] = u
                break
            path.append(match_r[v])
            untried.append(iter(adj_sorted[match_r[v]]))


def fractional_matching(g: Graph) -> HalfIntegralMatching:
    """Maximum fractional matching with weights in {0, 1/2, 1}.

    The value equals mu_f(g) exactly (as a Fraction).
    """
    n = g.n
    adj_sorted = [sorted(bits(g.adjacency_mask(v))) for v in range(n)]
    match_l = [-1] * n
    match_r = [-1] * n
    _augment(adj_sorted, match_l, match_r)
    weights: dict[tuple[int, int], Fraction] = {}
    for u, v in g.edges:
        hits = int(match_l[u] == v) + int(match_l[v] == u)
        if hits:
            weights[(u, v)] = Fraction(hits, 2)
    _canonicalize(weights)
    m = HalfIntegralMatching(weights)
    m.validate(g)
    return m


def _canonicalize(weights: dict[tuple[int, int], Fraction]) -> None:
    """Round even alternating half-weight structures to integral weights."""

    def edge(u: int, v: int) -> tuple[int, int]:
        return (u, v) if u < v else (v, u)

    for walk, closed in _half_walks(_half_adj(weights.items())):
        if not closed and len(walk) % 2 == 0:
            raise AssertionError("odd half-weight path contradicts maximality")
        if closed and len(walk) % 2 == 1:
            continue  # odd cycle: canonical already
        # alternate 1, 0, 1, ... along the walk (cycle walks have even length)
        for i in range(len(walk) - 1):
            weights[edge(walk[i], walk[i + 1])] = ONE if i % 2 == 0 else Fraction(0)
        if closed:
            weights[edge(walk[-1], walk[0])] = Fraction(0)
    for e in [e for e, w in weights.items() if w == 0]:
        del weights[e]


def _half_adj(weights: Iterable[tuple[tuple[int, int], Fraction]]) -> dict[int, list[int]]:
    """Neighbor lists of the weight-1/2 edges, in the order of `weights`."""
    half_adj: dict[int, list[int]] = {}
    for (u, v), w in weights:
        if w == HALF:
            for a, b in ((u, v), (v, u)):
                half_adj.setdefault(a, []).append(b)
    return half_adj


def _half_walks(half_adj: dict[int, list[int]]) -> Iterator[tuple[list[int], bool]]:
    """Each component of the half-weight support as (walk, closed), smallest
    vertex first. A path is walked from its smaller end; a cycle (closed) from
    its smallest vertex toward that vertex's smaller neighbor. Raises
    ValueError if a vertex has more than two half-edges."""
    seen: set[int] = set()
    for start in sorted(half_adj):
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            for w in half_adj[stack.pop()]:
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        if any(len(half_adj[v]) > 2 for v in comp):
            raise ValueError("half-weight support has a vertex with more than two half-edges")
        ends = [v for v in comp if len(half_adj[v]) == 1]
        walk = [min(ends)] if ends else [start, min(half_adj[start])]
        prev = None if ends else start
        while True:
            nxt = next((w for w in half_adj[walk[-1]] if w != prev), None)
            if nxt is None or nxt == walk[0]:
                break
            prev = walk[-1]
            walk.append(nxt)
        yield walk, not ends


def max_deficiency(g: Graph) -> tuple[int, frozenset[int]]:
    """max over S of isolated(G - S) - |S|, with a maximizing S.

    Exhaustive; requires n <= DEFICIENCY_CAP. Subsets are scanned by
    increasing size, pruned by the bound isolated(G - S) <= #{v : deg(v) <= |S|}.
    """
    n = g.n
    if n > DEFICIENCY_CAP:
        raise SizeLimitError(f"n={n} exceeds exhaustive cap {DEFICIENCY_CAP}")
    adj = [g.adjacency_mask(v) for v in range(n)]
    degs = g.degrees()
    best_val = -(n + 1)
    best_set: frozenset[int] = frozenset()
    for s in range(n + 1):
        possible = sum(1 for d in degs if d <= s) - s
        if possible <= best_val:
            continue
        for subset in combinations(range(n), s):
            smask = mask_of(subset)
            iso = 0
            rest = ~smask
            for v in range(n):
                if (smask >> v) & 1:
                    continue
                if adj[v] & rest == 0:
                    iso += 1
            val = iso - s
            if val > best_val:
                best_val = val
                best_set = frozenset(subset)
    return best_val, best_set


def cluster_matching_pairs(
    h: "ClusterGraph",
    f: HalfIntegralMatching,
) -> list[tuple[int, int, int, int]]:
    """Turn a half-integral matching on a cluster graph into half-cluster pairings.

    Each cluster i owns two halves (1 and 2). A weight-1 edge ij produces the
    two pairings (i,1,j,1) and (i,2,j,2); a weight-1/2 edge produces one
    pairing, oriented along its odd cycle so each half is used at most once.
    Output: tuples (i, half_i, j, half_j), 2*value(f) of them in total.
    """
    for (i, j), w in f.weights.items():
        if (min(i, j), max(i, j)) not in h.edges:
            raise ValueError(f"matching uses pair ({i},{j}) absent from the cluster graph")
    pairings: list[tuple[int, int, int, int]] = []
    used: dict[tuple[int, int], bool] = {}

    def claim(i: int, half: int) -> None:
        if used.get((i, half)):
            raise ValueError(f"cluster half ({i},{half}) used twice")
        used[(i, half)] = True

    ones = sorted(e for e, w in f.weights.items() if w == ONE)
    for i, j in ones:
        claim(i, 1)
        claim(j, 1)
        pairings.append((i, 1, j, 1))
        claim(i, 2)
        claim(j, 2)
        pairings.append((i, 2, j, 2))
    for walk, closed in _half_walks(_half_adj(sorted(f.weights.items()))):
        if not closed:
            raise ValueError("half-integral matching support has a path component")
        if len(walk) % 2 == 0:
            raise ValueError("half-integral matching support has an even cycle")
        for s in range(len(walk)):
            a, b = walk[s], walk[(s + 1) % len(walk)]
            claim(a, 2)
            claim(b, 1)
            pairings.append((a, 2, b, 1))
    if len(pairings) != 2 * f.value:
        raise AssertionError("pairing count must equal twice the matching value")
    return pairings
