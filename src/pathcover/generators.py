"""Seedable graph generators: random regular, random bipartite regular, and
the tight families (disjoint cliques / disjoint bicliques).

Both random families come from one stub-pairing sampler with switchings, so
they are not uniform. A round pairs the stubs at random: any two, or, for a
bipartite graph, each X-stub with a Y-stub (the bipartite pairing model,
McKay 1984). Colliding pairs (loops, repeated pairs; a repeat keeps its first
occurrence in the round) are re-paired. Once the leftover stubs cannot form a
fresh edge, or after 200 rounds, each leftover pair xy is switched in (McKay
& Wormald 1990): a drawn edge ab becomes ax, by, keeping every degree; in a
bipartite graph a is the edge's Y end, so both new edges cross the sides.
Only a failed switch restarts. Degrees above half the range are generated as
the complement (within the sides for a bipartite graph), which keeps the
pairing density low. Every graph is built from its row masks: a pairing's
rows are packed from its adjacency matrix, and clique and biclique unions are
block masks; all deterministic per seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np

from ._bits import int_arg, mix64, seed_arg
from .graph import Graph, _pack_rows, _sides, complement

RESTART_CAP = 10_000
# pairs a pairing round packs at a time: its two int64 chunk buffers (128 KiB)
# stay within one int64 per pair of a round at n=600
_ROUND_CHUNK = 1 << 13

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
        """ValueError unless n, k and seed are integers (not bools) and the
        family has a graph with these n and k. Stores them as Python ints."""
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        for name in ("n", "k", "seed"):
            object.__setattr__(self, name, int_arg(name, getattr(self, name)))
        n, k = self.n, self.k
        if n <= 0 or k < 0:
            raise ValueError("need n > 0 and k >= 0")
        seed_arg(self.seed)  # the seed's range, checked after n and k
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


def _dec(x: Union[int, float, Fraction]) -> Fraction:
    """Snap a float to 9 decimals, exactly: 0.3 means 3/10, not the binary float."""
    if isinstance(x, Fraction):
        return x
    return Fraction(round(x * 10**9), 10**9)


def degree_from_ratio(n: int, c: float) -> int:
    """k = ceil(c*n) for generators driven by a degree ratio c, with c snapped
    to 9 decimals so that 0.3 * 600 gives 180, not ceil(180.00000000000003)."""
    n = int_arg("n", n)
    if n <= 0:
        raise ValueError(f"need n > 0, got n={n}")
    if not 0 < c <= 1:
        raise ValueError("c must be in (0, 1]")
    return math.ceil(_dec(c) * n)


def generate(spec: GenSpec) -> Graph:
    if spec.family == "random-regular":
        return random_regular(spec)
    if spec.family == "random-bipartite-regular":
        return random_bipartite_regular(spec)
    return extremal_family(spec)


def _pairing_edges(n: int, k: int, rng: np.random.Generator, side: int = 0) -> np.ndarray:
    """Bool adjacency matrix of one pairing attempt with stub repair; raises _PairingStuck.

    With side > 0 only X = 0..side-1 is paired with Y = side..n-1."""
    m = n * k // 2  # pairs in the first, largest round
    if ((n * n - 1) << (m - 1).bit_length()) + m - 1 >= 2**63:
        raise ValueError(f"n={n}, k={k} is too large: the pairing's sort keys would overflow int64")
    # a round's stubs: with side > 0 the X-stubs, then the Y-stubs facing them;
    # after a round, the leftover pairs' smaller ends, then their larger ends
    stubs = np.repeat(np.arange(n, dtype=np.int64), k)
    present = np.zeros(n * n, dtype=bool)
    present[:: n + 1] = True  # a loop is then a pair already present
    for _round in range(200):
        rng.shuffle(stubs[stubs.size // 2 :] if side else stubs)  # the X-stubs stay in place
        left = _pair_round(stubs, present, n, side)
        del stubs  # the stubs are spent: free them before the next round's
        stubs = np.concatenate([left // n, left % n])
        if left.size == 0 or not _repairable(stubs[: left.size], stubs[left.size :], present, n, side):
            break
    present[:: n + 1] = False
    h = stubs.size // 2
    _switch_in(stubs[:h], stubs[h:], present, n, rng, side)
    upper = present.reshape(n, n)
    return upper | upper.T


def _switch_in(
    xs: np.ndarray, ys: np.ndarray, present: np.ndarray, n: int, rng: np.random.Generator, side: int = 0
) -> None:
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
        if side:
            r |= 1  # a is the edge's Y end: ax and by cross the sides, as x is in X
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


def _pair_round(stubs: np.ndarray, present: np.ndarray, n: int, side: int = 0) -> np.ndarray:
    """Pair the shuffled stubs, mark the fresh pairs in `present` and return the
    other pairs' keys min * n + max in pair order; overwrites the stubs.

    Pair i is stubs[i], stubs[h + i] with side > 0, else stubs[2i], stubs[2i + 1].
    A pair is fresh if `present` does not hold it and no earlier pair of the
    round repeats it; `present`'s diagonal must be set, so that no loop is.
    Needs (n² - 1) << b | (h - 1) < 2**63, where b = (h - 1).bit_length()."""
    h = stubs.size // 2
    b = (h - 1).bit_length()
    packed, keys = stubs[:h], stubs[h:]
    offsets = np.arange(min(h, _ROUND_CHUNK))
    buf = np.empty_like(offsets)
    # chunk [lo, hi) writes packed[lo:hi], stubs that only it and earlier chunks read
    for lo in range(0, h, _ROUND_CHUNK):
        hi = min(lo + _ROUND_CHUNK, h)
        if side:
            u, v = stubs[lo:hi], stubs[h + lo : h + hi]
        else:
            u, v = stubs[2 * lo : 2 * hi : 2], stubs[2 * lo + 1 : 2 * hi : 2]
        key = np.minimum(u, v, out=buf[: hi - lo])
        key *= n
        key += np.maximum(u, v, out=u)
        key <<= b
        key += lo
        np.add(key, offsets[: hi - lo], out=packed[lo:hi])  # key << b | pair index
    del offsets, buf, key
    packed.sort()  # a key's pairs in pair order, as a stable sort keeps them
    np.right_shift(packed, b, out=keys)
    repeat = np.empty(h, dtype=bool)
    repeat[0] = False
    np.equal(keys[1:], keys[:-1], out=repeat[1:])
    repeat |= present[keys]  # a loop too, as the diagonal is set
    present[keys] = True  # each repeat is a loop, was present, or repeats a fresh pair
    left = np.compress(repeat, packed)  # packed[repeat] is several times slower
    key = left >> b
    left &= (1 << b) - 1
    left *= n * n
    left += key  # pair index * n² + key, at most h * n² - 1 under the bound above
    left.sort()
    left %= n * n
    return left


class _PairingStuck(Exception):
    pass


def _repairable(xs: np.ndarray, ys: np.ndarray, present: np.ndarray, n: int, side: int = 0) -> bool:
    """Can two leftover stubs still form a fresh edge? With side > 0 only an xs-ys pair counts."""
    groups = (xs, ys) if side else (np.concatenate([xs, ys]),)
    ends = [np.flatnonzero(np.bincount(g, minlength=n)) for g in groups]
    rows, cols = ends[0], ends[-1]
    if rows.size + cols.size > 128:
        return True  # essentially always repairable with this many endpoints
    fresh = ~present.reshape(n, n)[np.ix_(rows, cols)]
    return bool((fresh & (rows[:, None] < cols)).any())  # u < v: each unordered pair once, no loop


def _paired_graph(n: int, k: int, seed: int, salt: int, side: int = 0) -> Graph:
    """The first pairing attempt that does not get stuck, up to RESTART_CAP attempts."""
    sides = (range(side), range(side, n)) if side else None
    if k == 0:
        return Graph(n, [], bipartition=sides)
    rng = np.random.Generator(np.random.PCG64(mix64(seed, salt, n, k)))
    for _ in range(RESTART_CAP):
        try:
            adj = _pack_rows(_pairing_edges(n, k, rng, side))
        except _PairingStuck:
            continue
        return Graph._from_masks(adj, None if sides is None else _sides(adj, sides))
    raise RetryExhausted(f"no simple pairing found for n={n}, k={k}")


def random_regular(spec: GenSpec) -> Graph:
    """Simple k-regular graph on n vertices, deterministic given the seed."""
    n, k = spec.n, spec.k
    if k > (n - 1) // 2:
        # n(n-1-k) keeps the parity of nk, so the flipped spec is valid
        flipped = GenSpec(n, n - 1 - k, "random-regular", spec.seed)
        return complement(random_regular(flipped))
    return _paired_graph(n, k, spec.seed, 0xA11CE)


def random_bipartite_regular(spec: GenSpec) -> Graph:
    """Bipartite k-regular graph with X = {0..n/2-1}, Y = {n/2..n-1}, from
    the same pairing as `random_regular`, with X-stubs paired to Y-stubs."""
    n, k = spec.n, spec.k
    side = n // 2
    if k > side // 2:
        flipped = GenSpec(n, side - k, "random-bipartite-regular", spec.seed)
        return complement(random_bipartite_regular(flipped))
    return _paired_graph(n, k, spec.seed, 0xB1B, side)


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
        adj: list[int] = []
        for lo, hi in zip(cuts, cuts[1:]):
            block = (1 << hi) - (1 << lo)
            adj += [block ^ (1 << v) for v in range(lo, hi)]
        return Graph._from_masks(tuple(adj), None)
    if spec.family == "disjoint-bicliques":
        # block b joins X-vertices bk..bk+k-1 to the Y-vertices half above them
        half, block = n // 2, (1 << k) - 1
        x_rows = tuple(block << (half + v // k * k) for v in range(half))
        adj = x_rows + tuple(block << (v // k * k) for v in range(half))
        return Graph._from_masks(adj, _sides(adj, (range(half), range(half, n))))
    raise ValueError(f"{spec.family!r} is not an extremal family")
