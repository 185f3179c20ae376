"""Exact brute-force ground truth.

* minimum path cover by bitmask DP (a cover with p paths on n vertices is a
  spanning linear forest with n - p edges, so maximize edges);
* independence number by branch and bound;
* exact binomial tails in rational arithmetic, the oracle behind the
  exponential tail bounds;
* spot checks of the n/(k+1) path-cover bound for k-regular graphs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

from ._bits import bits, mix64, seed_arg
from .generators import GenSpec, random_regular
from .graph import Graph
from .hamilton import Path
from .matching import SizeLimitError
from .pipeline import PathCover

PATH_COVER_CAP = 18
INDEPENDENCE_CAP = 20
TAIL_CAP = 60


@dataclass
class ExactCoverResult:
    cover_number: int
    witness: PathCover


def min_path_cover_exact(g: Graph) -> ExactCoverResult:
    """Exact minimum number of vertex-disjoint paths covering every vertex;
    requires n <= PATH_COVER_CAP.

    DP over (covered subset, endpoint of the open path), with a transition
    that closes the current path and opens a new one at any fresh vertex.
    """
    n = g.n
    if n > PATH_COVER_CAP:
        raise SizeLimitError(f"n={n} exceeds exhaustive cap {PATH_COVER_CAP}")
    if n == 0:
        return ExactCoverResult(0, PathCover([], frozenset()))
    adj = [g.adjacency_mask(v) for v in range(n)]
    full = (1 << n) - 1
    # edges[mask][last] = max edges of a spanning linear forest on mask whose
    # open path ends at last
    NEG = -1
    edges = [None] * (full + 1)
    for v in range(n):
        m = 1 << v
        edges[m] = [NEG] * n
        edges[m][v] = 0
    # every nonempty mask gets a row with an entry >= 0 before its turn: a
    # smaller mask opens a path at any of its vertices
    for mask in range(1, full + 1):
        row = edges[mask]
        for last in range(n):
            e = row[last]
            if e < 0:
                continue
            # extend the open path
            for nxt in bits(adj[last] & ~mask):
                nm = mask | (1 << nxt)
                if edges[nm] is None:
                    edges[nm] = [NEG] * n
                if edges[nm][nxt] < e + 1:
                    edges[nm][nxt] = e + 1
        # close the open path and start a new one at a fresh vertex; only the
        # best endpoint matters, so this costs O(n) per mask
        row_max = max(row)
        for nxt in bits(~mask & full):
            nm = mask | (1 << nxt)
            if edges[nm] is None:
                edges[nm] = [NEG] * n
            if edges[nm][nxt] < row_max:
                edges[nm][nxt] = row_max
    best_last = max(range(n), key=lambda v: edges[full][v])
    best_edges = edges[full][best_last]
    cover_number = n - best_edges
    paths = _reconstruct_cover(adj, edges, full, best_last, n)
    witness = PathCover([Path(tuple(p)) for p in paths], frozenset())
    assert len(witness.paths) == cover_number
    for p in witness.paths:
        p.validate(g)
    return ExactCoverResult(cover_number, witness)


def _reconstruct_cover(adj, edges, full, last, n) -> list[list[int]]:
    paths: list[list[int]] = []
    cur = [last]
    mask = full
    e = edges[full][last]
    while mask.bit_count() > 1:
        pm = mask ^ (1 << last)
        row = edges[pm]
        hop = None
        if row is not None:
            for prev in bits(adj[last] & pm):
                if row[prev] == e - 1:
                    hop = (prev, e - 1, True)
                    break
            if hop is None:
                for prev in bits(pm):
                    if row[prev] == e:
                        hop = (prev, e, False)
                        break
        if hop is None:
            raise AssertionError("DP reconstruction lost its trail")
        prev, e, extended = hop
        if extended:
            cur.append(prev)
        else:
            paths.append(cur)
            cur = [prev]
        mask = pm
        last = prev
    paths.append(cur)
    return [list(reversed(p)) for p in reversed(paths)]


def independence_number(g: Graph) -> int:
    """Exact independence number by branch and bound; requires n <= INDEPENDENCE_CAP."""
    n = g.n
    if n > INDEPENDENCE_CAP:
        raise SizeLimitError(f"n={n} exceeds exhaustive cap {INDEPENDENCE_CAP}")
    adj = [g.adjacency_mask(v) for v in range(n)]
    best = 0

    def bound(cand: int) -> int:
        return cand.bit_count()

    def grow(cand: int, size: int) -> None:
        nonlocal best
        if size + bound(cand) <= best:
            return
        if cand == 0:
            best = max(best, size)
            return
        # branch on the highest-degree candidate
        v = max(bits(cand), key=lambda u: (adj[u] & cand).bit_count())
        grow(cand & ~adj[v] & ~(1 << v), size + 1)
        grow(cand & ~(1 << v), size)

    grow((1 << n) - 1 if n else 0, 0)
    return best


def binomial_tail_exact(
    nprime: int,
    zeta: Union[Fraction, float, str],
    threshold: Union[Fraction, float, int],
    side: str,
) -> Fraction:
    """Exact P[Bin(n', zeta) >= threshold] ("ge") or <= threshold ("le"),
    for 1 <= n' <= TAIL_CAP.

    All arithmetic is rational; pass zeta as a Fraction or string for exact
    decimal semantics.
    """
    if nprime < 1 or nprime > TAIL_CAP:
        raise ValueError(f"need 1 <= n' <= {TAIL_CAP}")
    z = Fraction(zeta)
    if not 0 < z < 1:
        raise ValueError("zeta must be in (0, 1)")
    if side not in ("ge", "le"):
        raise ValueError("side must be 'ge' or 'le'")
    thr = Fraction(threshold)
    if side == "ge":
        k_min = max(0, math.ceil(thr))
        ks = range(k_min, nprime + 1)
    else:
        k_max = min(nprime, math.floor(thr))
        if k_max < 0:
            return Fraction(0)
        ks = range(0, k_max + 1)
    total = Fraction(0)
    for k in ks:
        total += math.comb(nprime, k) * z**k * (1 - z) ** (nprime - k)
    return total


@dataclass
class ConjectureReport:
    checked: int = 0
    violations: list[tuple[Graph, int, int]] = field(default_factory=list)
    max_ratio: float = 0.0  # cover_number / (n/(k+1)), 1.0 means tight

    @property
    def ok(self) -> bool:
        return not self.violations


def conjecture_spot_check(
    k: int,
    n: int,
    samples: int,
    seed: int = 0,
    extras: Optional[list[Graph]] = None,
) -> ConjectureReport:
    """Sample k-regular graphs on n vertices and assert that the exact path
    cover number is at most ceil(n/(k+1)); named graphs can be appended.

    A violation (with witness instance) would be a counterexample to the
    n/(k+1) bound; none is expected.
    """
    seed = seed_arg(seed)
    if samples < 0:
        raise ValueError(f"samples must be >= 0, got {samples}")
    rep = ConjectureReport()
    instances: list[Graph] = []
    for i in range(samples):
        instances.append(
            random_regular(GenSpec(n, k, "random-regular", seed=mix64(seed, i)))
        )
    for g in instances + list(extras or []):
        kk = g.regular_degree()
        limit = -((-g.n) // (kk + 1))  # ceil(n/(k+1))
        res = min_path_cover_exact(g)
        rep.checked += 1
        ratio = res.cover_number / (g.n / (kk + 1))
        rep.max_ratio = max(rep.max_ratio, ratio)
        if res.cover_number > limit:
            rep.violations.append((g, res.cover_number, limit))
    return rep


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    inner = [(5 + i, 5 + ((i + 2) % 5)) for i in range(5)]
    return Graph(10, outer + spokes + inner)


def cube_graph() -> Graph:
    edges = []
    for v in range(8):
        for b in range(3):
            w = v ^ (1 << b)
            if v < w:
                edges.append((v, w))
    return Graph(8, edges)
