"""Seedable graph generators: random regular, random bipartite regular, and
the tight families (disjoint cliques / disjoint bicliques).

Random regular graphs come from the stub-pairing model with switchings, so
they are not uniform. Colliding stubs (loops, repeated pairs; a repeat keeps
its first occurrence in the round) are re-shuffled and re-paired. Once the
leftover stubs cannot form a fresh edge, or after 200 rounds, each leftover
pair xy is switched in (McKay & Wormald 1990): a drawn edge ab becomes ax,
by, keeping every degree. Only a failed switch restarts; graphs that needed
no switch match older releases. Degrees above half the range are generated
as the complement, which keeps the pairing density low. Clique unions are
built as row masks, others as one bool adjacency matrix; all deterministic per seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from ._bits import mix64
from .graph import Graph, complement

RESTART_CAP = 10_000

FAMILIES = (
    "random-regular",
    "random-bipartite-regular",
    "disjoint-cliques",
    "disjoint-bicliques",
)


class RetryExhausted(RuntimeError):
    """Pairing-model restarts exceeded RESTART_CAP."""


@dataclass(frozen=True)
class GenSpec:
    n: int
    k: int
    family: str
    seed: int = 0

    def __post_init__(self):
        """ValueError unless the family has a graph with these n and k."""
        n, k = self.n, self.k
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if n <= 0 or k < 0:
            raise ValueError("need n > 0 and k >= 0")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")
        if self.family == "random-regular":
            if k >= n:
                raise ValueError(f"need k < n, got k={k}, n={n}")
            if (n * k) % 2 != 0:
                raise ValueError(f"n*k must be even, got n={n}, k={k}")
        elif self.family == "random-bipartite-regular":
            if n % 2 != 0:
                raise ValueError(f"n must be even, got {n}")
            if k > n // 2:
                raise ValueError(f"need k <= n/2, got k={k}, n={n}")
        elif self.family == "disjoint-cliques":
            if n < k + 1:
                raise ValueError(f"need n >= k+1, got n={n}, k={k}")
        elif k == 0 or n % (2 * k) != 0:
            raise ValueError(f"disjoint-bicliques needs 2k | n, got n={n}, k={k}")


def degree_from_ratio(n: int, c: float) -> int:
    """k = ceil(c*n) for generators driven by a degree ratio c."""
    if not 0 < c <= 1:
        raise ValueError("c must be in (0, 1]")
    # snap c to 9 decimals so 0.3 * 600 gives 180, not ceil(180.00000000000003)
    return -((-n * int(round(c * 10**9))) // 10**9)


def generate(spec: GenSpec) -> Graph:
    if spec.family == "random-regular":
        return random_regular(spec)
    if spec.family == "random-bipartite-regular":
        return random_bipartite_regular(spec)
    return extremal_family(spec)


def _pairing_edges(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Bool adjacency matrix of one pairing attempt with stub repair; raises _PairingStuck."""
    if n * n * (n * k // 2) >= 2**63:
        raise ValueError(f"n={n}, k={k} is too large: the pairing's sort keys would overflow int64")
    stubs = np.repeat(np.arange(n, dtype=np.int64), k)
    present = np.zeros(n * n, dtype=bool)
    for _round in range(200):
        stubs = rng.permutation(stubs)
        u = np.minimum(stubs[0::2], stubs[1::2])
        v = np.maximum(stubs[0::2], stubs[1::2])
        keys = u * n + v
        ok = (u != v) & _first_occurrences(keys) & ~present[keys]
        present[keys[ok]] = True
        bad = ~ok
        if not bad.any():
            break
        stubs = np.concatenate([u[bad], v[bad]])
        if not _repairable(stubs, present, n):
            break
    _switch_in(u[bad], v[bad], present, n, rng)
    upper = present.reshape(n, n)
    return upper | upper.T


def _switch_in(xs: np.ndarray, ys: np.ndarray, present: np.ndarray, n: int, rng: np.random.Generator) -> None:
    """Add each leftover pair xy, or switch a drawn edge ab to ax, by; raises _PairingStuck."""
    for x, y in zip(xs.tolist(), ys.tolist()):
        xy = min(x, y) * n + max(x, y)
        if x != y and not present[xy]:
            present[xy] = True
            continue
        edges = np.flatnonzero(present)
        if edges.size == 0:
            raise _PairingStuck
        r = rng.integers(2 * edges.size, size=1000)  # an edge and its orientation per draw
        e = edges[r // 2]
        a = np.where(r % 2 == 1, e % n, e // n)
        b = e // n + e % n - a
        ax, by = np.minimum(a, x) * n + np.maximum(a, x), np.minimum(b, y) * n + np.maximum(b, y)
        ok = (a != x) & (a != y) & (b != x) & (b != y) & ~present[ax] & ~present[by]
        if not ok.any():
            raise _PairingStuck
        i = int(ok.argmax())
        present[e[i]] = False
        present[ax[i]] = present[by[i]] = True


def _first_occurrences(keys: np.ndarray) -> np.ndarray:
    """Mask of each value's first occurrence; needs 0 <= keys, max(keys) * keys.size < 2**63."""
    m = keys.size
    packed = np.sort(keys * m + np.arange(m))
    order, sorted_keys = packed % m, packed // m
    first = np.ones(m, dtype=bool)
    first[order[1:]] = sorted_keys[1:] != sorted_keys[:-1]
    return first


class _PairingStuck(Exception):
    pass


def _repairable(stubs: np.ndarray, present: np.ndarray, n: int) -> bool:
    """Can any pair of leftover stubs still form a fresh edge?"""
    mark = np.zeros(n, dtype=bool)
    mark[stubs] = True
    verts = np.flatnonzero(mark)
    if verts.size < 2:
        return False
    if verts.size > 64:
        return True  # essentially always repairable with this many endpoints
    pairs = present.reshape(n, n)[np.ix_(verts, verts)]
    return not pairs[np.triu_indices(verts.size, 1)].all()


def random_regular(spec: GenSpec) -> Graph:
    """Simple k-regular graph on n vertices, deterministic given the seed."""
    n, k = spec.n, spec.k
    if k > (n - 1) // 2:
        # n(n-1-k) keeps the parity of nk, so the flipped spec is valid
        flipped = GenSpec(n, n - 1 - k, "random-regular", spec.seed)
        return complement(random_regular(flipped))
    if k == 0:
        return Graph(n, [])
    rng = np.random.Generator(np.random.PCG64(mix64(spec.seed, 0xA11CE, n, k)))
    for _ in range(RESTART_CAP):
        try:
            return Graph._from_matrix(_pairing_edges(n, k, rng))
        except _PairingStuck:
            continue
    raise RetryExhausted(f"no simple pairing found for n={n}, k={k}")


def random_bipartite_regular(spec: GenSpec) -> Graph:
    """Bipartite k-regular graph with X = {0..n/2-1}, Y = {n/2..n-1}.

    Built as a union of k perfect matchings between the sides. A colliding
    matching is repaired by random transpositions rather than redrawn whole.
    """
    n, k = spec.n, spec.k
    side = n // 2
    if k > side // 2:
        flipped = GenSpec(n, side - k, "random-bipartite-regular", spec.seed)
        return complement(random_bipartite_regular(flipped))
    if k == 0:
        return Graph(n, [], bipartition=(range(side), range(side, n)))
    rng = random.Random(mix64(spec.seed, 0xB1B, n, k))
    for _ in range(RESTART_CAP):
        partner: list[set[int]] = [set() for _ in range(side)]
        for _round in range(k):
            perm = list(range(side))
            rng.shuffle(perm)
            if not _repair_matching(perm, partner, rng):
                break
            for x in range(side):
                partner[x].add(perm[x])
        else:
            a = np.zeros((n, n), dtype=bool)
            a[np.arange(side)[:, None], side + np.array([list(p) for p in partner])] = True
            return Graph._from_matrix(a | a.T, (range(side), range(side, n)))
    raise RetryExhausted(f"no bipartite pairing found for n={n}, k={k}")


def _repair_matching(perm: list[int], partner: list[set[int]], rng: random.Random) -> bool:
    side = len(perm)
    colliding = [x for x in range(side) if perm[x] in partner[x]]
    budget = 200 * side
    while colliding:
        budget -= 1
        if budget <= 0:
            return False
        x = colliding[-1]
        if perm[x] not in partner[x]:
            colliding.pop()
            continue
        x2 = rng.randrange(side)
        if x2 == x:
            continue
        if perm[x2] in partner[x] or perm[x] in partner[x2]:
            continue
        perm[x], perm[x2] = perm[x2], perm[x]
        colliding.pop()
        if perm[x2] in partner[x2]:
            colliding.append(x2)
    return True


def extremal_family(spec: GenSpec) -> Graph:
    """Disjoint K_{k+1} copies, or disjoint K_{k,k} copies (bipartite).

    For cliques with n = j (mod k+1), j != 0, the last block is enlarged to
    K_{k+1+j}; that block is the only non-k-regular part. Bicliques require
    2k | n exactly.
    """
    n, k = spec.n, spec.k
    if spec.family == "disjoint-cliques":
        # row masks of blocks of k+1 vertices; the last takes the n % (k+1) leftovers
        cuts = [b * (k + 1) for b in range(n // (k + 1))] + [n]
        adj = tuple(((1 << hi) - (1 << lo)) ^ (1 << v) for lo, hi in zip(cuts, cuts[1:]) for v in range(lo, hi))
        return Graph._from_masks(adj, None)
    if spec.family == "disjoint-bicliques":
        half = n // 2
        label = (np.arange(n) % half) // k
        in_x = np.arange(n) < half
        a = (label[:, None] == label[None, :]) & (in_x[:, None] != in_x[None, :])
        return Graph._from_matrix(a, (range(half), range(half, n)))
    raise ValueError(f"{spec.family!r} is not an extremal family")
