"""Seedable graph generators: random regular, random bipartite regular, and
the tight families (disjoint cliques / disjoint bicliques).

Random regular graphs come from the stub-pairing model. Colliding stubs
(loops, repeated pairs) are re-shuffled and re-paired instead of restarting
the whole attempt; a full restart happens only when the leftover stubs can
no longer be paired. For degrees above half the available range we generate
the complement instead, which keeps the pairing density low. Everything is
deterministic given the seed.
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
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.n <= 0 or self.k < 0:
            raise ValueError("need n > 0 and k >= 0")


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


def _pairing_edges(n: int, k: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    """One pairing attempt with stub repair; raises _PairingStuck on dead ends."""
    stubs = np.repeat(np.arange(n, dtype=np.int64), k)
    present = np.zeros(n * n, dtype=bool)
    accepted: list[np.ndarray] = []
    rounds = 0
    while stubs.size:
        rounds += 1
        if rounds > 200:
            raise _PairingStuck
        stubs = rng.permutation(stubs)
        u = np.minimum(stubs[0::2], stubs[1::2])
        v = np.maximum(stubs[0::2], stubs[1::2])
        keys = u * n + v
        ok = u != v
        # drop repeats within this round (keep first occurrence)
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        first = np.ones(keys.size, dtype=bool)
        first[order[1:]] = sorted_keys[1:] != sorted_keys[:-1]
        ok &= first & ~present[keys]
        present[keys[ok]] = True
        accepted.append(keys[ok])
        bad = ~ok
        if not bad.any():
            break
        leftover = np.concatenate([u[bad], v[bad]])
        if not _repairable(leftover, present, n):
            raise _PairingStuck
        stubs = leftover
    all_keys = np.concatenate(accepted) if accepted else np.empty(0, dtype=np.int64)
    return [(int(key) // n, int(key) % n) for key in all_keys]


class _PairingStuck(Exception):
    pass


def _repairable(stubs: np.ndarray, present: np.ndarray, n: int) -> bool:
    """Can any pair of leftover stubs still form a fresh edge?"""
    verts = np.unique(stubs)
    if verts.size < 2:
        return False
    if verts.size > 64:
        return True  # essentially always repairable with this many endpoints
    for i in range(verts.size):
        for j in range(i + 1, verts.size):
            if not present[int(verts[i]) * n + int(verts[j])]:
                return True
    return False


def random_regular(spec: GenSpec) -> Graph:
    """Simple k-regular graph on n vertices, deterministic given the seed."""
    n, k = spec.n, spec.k
    if k >= n:
        raise ValueError(f"need k < n, got k={k}, n={n}")
    if (n * k) % 2 != 0:
        raise ValueError(f"n*k must be even, got n={n}, k={k}")
    if k > (n - 1) // 2:
        # n(n-1-k) keeps the parity of nk, so the flipped spec is valid
        flipped = GenSpec(n, n - 1 - k, "random-regular", spec.seed)
        return complement(random_regular(flipped))
    if k == 0:
        return Graph(n, [])
    rng = np.random.Generator(np.random.PCG64(mix64(spec.seed, 0xA11CE, n, k)))
    for _ in range(RESTART_CAP):
        try:
            return Graph(n, _pairing_edges(n, k, rng))
        except _PairingStuck:
            continue
    raise RetryExhausted(f"no simple pairing found for n={n}, k={k}")


def random_bipartite_regular(spec: GenSpec) -> Graph:
    """Bipartite k-regular graph with X = {0..n/2-1}, Y = {n/2..n-1}.

    Built as a union of k perfect matchings between the sides. A colliding
    matching is repaired by random transpositions rather than redrawn whole.
    """
    n, k = spec.n, spec.k
    if n % 2 != 0:
        raise ValueError(f"n must be even, got {n}")
    side = n // 2
    if k > side:
        raise ValueError(f"need k <= n/2, got k={k}, n={n}")
    if k > side // 2:
        flipped = GenSpec(n, side - k, "random-bipartite-regular", spec.seed)
        return complement(random_bipartite_regular(flipped))
    if k == 0:
        return Graph(n, [], bipartition=(range(side), range(side, n)))
    rng = random.Random(mix64(spec.seed, 0xB1B, n, k))
    for _ in range(RESTART_CAP):
        partner: list[set[int]] = [set() for _ in range(side)]
        ok = True
        for _round in range(k):
            perm = list(range(side))
            rng.shuffle(perm)
            if not _repair_matching(perm, partner, rng):
                ok = False
                break
            for x in range(side):
                partner[x].add(perm[x])
        if ok:
            edges = [(x, side + y) for x in range(side) for y in partner[x]]
            return Graph(n, edges, bipartition=(range(side), range(side, n)))
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
        block = k + 1
        if n < block:
            raise ValueError(f"need n >= k+1, got n={n}, k={k}")
        nblocks = n // block
        j = n % block
        sizes = [block] * nblocks
        sizes[-1] += j
        edges = []
        start = 0
        for size in sizes:
            edges.extend(
                (start + a, start + b)
                for a in range(size)
                for b in range(a + 1, size)
            )
            start += size
        return Graph(n, edges)
    if spec.family == "disjoint-bicliques":
        if k == 0 or n % (2 * k) != 0:
            raise ValueError(f"disjoint-bicliques needs 2k | n, got n={n}, k={k}")
        nblocks = n // (2 * k)
        half = n // 2
        edges = []
        for b in range(nblocks):
            xs = range(b * k, (b + 1) * k)
            ys = range(half + b * k, half + (b + 1) * k)
            edges.extend((x, y) for x in xs for y in ys)
        return Graph(n, edges, bipartition=(range(half), range(half, n)))
    raise ValueError(f"{spec.family!r} is not an extremal family")
