"""Constructive spanning paths and cycles.

The workhorse is rotation-extension: grow a path greedily from both ends,
and when stuck, rewire the tail end through a neighbor already on the path
(suffix reversal) to expose a new endpoint. An attempt stops once its path
spans its start's component, and the search once its best result spans a
largest component. Spanning cycles close a spanning path either directly,
through a crossing pair of chords, or by further rotations. For small host
graphs (n <= EXHAUSTIVE_CAP = 14) one exhaustive bitmask DP provides ground
truth, so failures up to that size are proofs of non-existence.

Search failure is a value carrying the best structure found, not an error.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

from ._bits import bits, mask_of, mix64, nth_bit
from .graph import Graph, _vertex_mask

EXHAUSTIVE_CAP = 14


@dataclass(frozen=True)
class Path:
    """Open path; a single vertex is a path of length 0."""

    vertices: tuple[int, ...]

    def __post_init__(self):
        if not self.vertices:
            raise ValueError("a path needs at least one vertex")
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("path repeats a vertex")

    def __len__(self) -> int:
        return len(self.vertices)

    @property
    def ends(self) -> tuple[int, int]:
        return (self.vertices[0], self.vertices[-1])

    def reversed(self) -> "Path":
        return Path(tuple(reversed(self.vertices)))

    def validate(self, g: Graph) -> None:
        for u, v in zip(self.vertices, self.vertices[1:]):
            if not g.adjacent(u, v):
                raise ValueError(f"path uses non-edge ({u},{v})")


@dataclass(frozen=True)
class Cycle:
    """Cycle in canonical rotation: smallest vertex first, smaller neighbor second."""

    vertices: tuple[int, ...]

    def __post_init__(self):
        vs = self.vertices
        if len(vs) < 3:
            raise ValueError("a cycle needs at least 3 vertices")
        if len(set(vs)) != len(vs):
            raise ValueError("cycle repeats a vertex")
        i = vs.index(min(vs))
        rot = vs[i:] + vs[:i]
        if rot[-1] < rot[1]:
            rot = (rot[0],) + tuple(reversed(rot[1:]))
        object.__setattr__(self, "vertices", rot)

    def __len__(self) -> int:
        return len(self.vertices)

    def validate(self, g: Graph) -> None:
        vs = self.vertices
        for u, v in zip(vs, vs[1:] + vs[:1]):
            if not g.adjacent(u, v):
                raise ValueError(f"cycle uses non-edge ({u},{v})")


@dataclass
class PathSearch:
    path: Optional[Path]
    best: Optional[Path]

    @property
    def ok(self) -> bool:
        return self.path is not None


@dataclass
class CycleSearch:
    cycle: Optional[Cycle]
    best: Optional[Cycle]

    @property
    def ok(self) -> bool:
        return self.cycle is not None


# ---------------------------------------------------------------- search core


class _Budget:
    __slots__ = ("left",)

    def __init__(self, total: int):
        self.left = total

    def spend(self) -> bool:
        if self.left <= 0:
            return False
        self.left -= 1
        return True


def _pick_bit(mask: int, rng: random.Random) -> int:
    """A random set bit of `mask`: `nth_bit(mask, rng.randrange(c))` for c
    set bits, with randrange's `getrandbits(c.bit_length())` redraw loop
    inlined, so that it makes the same calls; one bit takes no draw."""
    c = mask.bit_count()
    if c == 1:
        return mask.bit_length() - 1
    k = c.bit_length()
    i = rng.getrandbits(k)
    while i >= c:
        i = rng.getrandbits(k)
    return nth_bit(mask, i)


def _grow_path(
    adj: Sequence[int],
    active: int,
    start: int,
    rng: random.Random,
    budget: _Budget,
    rot_cap: int,
) -> list[int]:
    """One rotation-extension attempt from `start` in the connected set `active`."""
    path = [start]
    mask = 1 << start
    rotations = 0
    while True:
        # extend the tail as far as it goes
        while True:
            cands = adj[path[-1]] & active & ~mask
            if not cands:
                break
            v = _pick_bit(cands, rng)
            path.append(v)
            mask |= 1 << v
        if mask == active:
            return path
        # a blocked tail may free up after flipping to the other end
        if adj[path[0]] & active & ~mask:
            path.reverse()
            continue
        rotations += 1
        if rotations > rot_cap or not budget.spend():
            return path
        pivots = adj[path[-1]] & mask
        if len(path) >= 2:
            pivots &= ~(1 << path[-2])
        pivots &= ~(1 << path[-1])
        if not pivots:
            return path
        i = path.index(_pick_bit(pivots, rng))
        path[i + 1 :] = path[:i:-1]


def _close_cycle(
    adj: Sequence[int],
    path: list[int],
    rng: random.Random,
    budget: _Budget,
) -> Optional[list[int]]:
    """Close a path into a cycle on exactly its vertex set, or None."""
    if len(path) < 3:
        return None
    mask = mask_of(path)
    for _ in range(4 * len(path)):
        head, tail = path[0], path[-1]
        if (adj[tail] >> head) & 1:
            return path
        # crossing chords: head ~ path[i+1] and tail ~ path[i]
        nh, nt = adj[head], adj[tail]
        for i in range(1, len(path) - 2):
            if (nt >> path[i]) & 1 and (nh >> path[i + 1]) & 1:
                return path[: i + 1] + path[i + 1 :][::-1]
        if not budget.spend():
            return None
        pivots = adj[tail] & mask & ~(1 << path[-2]) & ~(1 << tail)
        if not pivots:
            return None
        i = path.index(_pick_bit(pivots, rng))
        path[i + 1 :] = path[:i:-1]
    return None


def _components(adj: Sequence[int], active: int) -> tuple[list[int], list[int]]:
    """Component masks of the subgraph `active` induces, by bit-parallel BFS,
    and the index of each active vertex's component in that list. A BFS
    stops once its component holds all that is left of `active`, and only
    the components after the first write labels: 0 is the default."""
    comps, label = [], [0] * len(adj)
    while active:
        comp = frontier = active & -active
        while frontier and comp != active:
            reach = 0
            for v in bits(frontier):
                reach |= adj[v]
            frontier = reach & active & ~comp
            comp |= frontier
        if comps:
            for v in bits(comp):
                label[v] = len(comps)
        comps.append(comp)
        active &= ~comp
    return comps, label


def _longest_search(
    adj: Sequence[int],
    active: int,
    n_active: int,
    seed: int,
    budget_total: int,
    close: bool,
) -> Optional[list[int]]:
    """Rotation-extension from random starts, each grown inside its start's
    component, until the budget runs out or a result spans a largest
    component. Keeps the longest path or, with `close`, the longest path that
    closes into a cycle on its own vertex set. Rows of `adj` may reach outside
    `active`: each step intersects a row with it or tests path vertices only."""
    rng = random.Random(seed)
    budget = _Budget(budget_total)
    rot_cap = max(10 * n_active, 10)
    comps, label = _components(adj, active)
    largest = max(comp.bit_count() for comp in comps)
    best: Optional[list[int]] = None
    while budget.left > 0:
        start = nth_bit(active, rng.randrange(n_active))
        found = _grow_path(adj, comps[label[start]], start, rng, budget, rot_cap)
        if close:
            found = _close_cycle(adj, found, rng, budget)
        if found is not None and (best is None or len(found) > len(best)):
            best = found
            if len(best) == largest:
                break
        budget.left -= 1  # restart overhead so zero-rotation stalls terminate
    return best


# ---------------------------------------------------------------- exact DP


def _dp_spanning(adj: Sequence[int], active: int, cycle: bool) -> Optional[list[int]]:
    """Bitmask DP for a spanning path (or, with `cycle`, a spanning cycle
    through the smallest vertex) of the active set; None if there is none.
    The walk back takes the smallest predecessor at every step."""
    verts = list(bits(active))
    n = len(verts)
    idx = {v: i for i, v in enumerate(verts)}
    radj = [0] * n
    for i, v in enumerate(verts):
        for w in bits(adj[v] & active):
            radj[i] |= 1 << idx[w]
    full = (1 << n) - 1
    # reach[mask]: ends of paths on exactly `mask`, started anywhere or at 0
    reach = [0] * (full + 1)
    for i in range(1 if cycle else n):
        reach[1 << i] = 1 << i
    for mask in range(1, full + 1):
        for last in bits(reach[mask]):
            for nxt in bits(radj[last] & ~mask):
                reach[mask | (1 << nxt)] |= 1 << nxt
    ends = reach[full] & radj[0] & ~1 if cycle else reach[full]
    if not ends:
        return None
    last = next(bits(ends))
    mask = full
    out = [last]
    while mask != 1 << last:
        mask ^= 1 << last
        last = next(bits(radj[last] & reach[mask]))
        out.append(last)
    return [verts[i] for i in reversed(out)]


# ---------------------------------------------------------------- public ops


def _search_budget(budget: Optional[int], default: int) -> int:
    """The rotations a search may spend: `default` when budget is None. A
    budget below 1 (NaN included) or infinite is a ValueError."""
    if budget is None:
        return default
    if not 1 <= budget < math.inf:
        raise ValueError(f"budget must be positive (at least 1) and finite, got {budget!r}")
    return budget


def _spanning(
    adj: Sequence[int], active: int, n_active: int, seed: int, total: int, close: bool
) -> tuple[Union[Path, Cycle, None], Union[Path, Cycle, None]]:
    """(spanning path or, with `close`, spanning cycle of `active`, or None;
    the longest found). Heuristic first; up to EXHAUSTIVE_CAP vertices a
    failed heuristic falls back to exact DP."""
    kind = Cycle if close else Path
    found = _longest_search(adj, active, n_active, seed, total, close)
    if found and len(found) == n_active:
        return (kind(tuple(found)),) * 2
    if n_active <= EXHAUSTIVE_CAP:
        exact = _dp_spanning(adj, active, cycle=close)
        if exact is not None:
            return (kind(tuple(exact)),) * 2
    return None, kind(tuple(found)) if found else None


def hamiltonian_path(
    g: Graph,
    budget: Optional[int] = None,
    seed: int = 0,
) -> PathSearch:
    """Search for a path visiting every vertex once.

    Heuristic first; up to EXHAUSTIVE_CAP vertices a failed heuristic falls
    back to exact DP, so a failure there means no Hamiltonian path exists.
    """
    if g.n == 0:
        raise ValueError("empty graph")
    total = _search_budget(budget, 50 * 10 * g.n)
    return PathSearch(*_spanning(g._adj, (1 << g.n) - 1, g.n, mix64(seed, 0x9A7B), total, close=False))


def spanning_cycle_bipartite(
    g: Graph,
    x: Iterable[int],
    y: Iterable[int],
    budget: Optional[int] = None,
    seed: int = 0,
) -> CycleSearch:
    """Search for a cycle covering all of x ∪ y, alternating between sides.

    Only x-y edges are considered, so any cycle found alternates. |x| = |y|
    is required (a spanning alternating cycle forces balance). Up to
    EXHAUSTIVE_CAP vertices a failed heuristic falls back to exact DP.
    """
    xm, ym = _vertex_mask(g, x), _vertex_mask(g, y)
    if xm & ym:
        raise ValueError("sides overlap")
    nx, ny = xm.bit_count(), ym.bit_count()
    if nx != ny or nx < 2:
        raise ValueError(f"need equal sides of size >= 2, got {nx} and {ny}")
    total = _search_budget(budget, 50 * 10 * nx)
    active = xm | ym
    adj = [0] * g.n
    for v in bits(xm):
        adj[v] = g.adjacency_mask(v) & ym
    for v in bits(ym):
        adj[v] = g.adjacency_mask(v) & xm
    # degree-1 vertices can never lie on a cycle
    if any(adj[v].bit_count() < 2 for v in bits(active)):
        return CycleSearch(None, None)
    return CycleSearch(*_spanning(adj, active, 2 * nx, mix64(seed, 0xC1C7E), total, close=True))


def _longest(
    g: Graph, within: Optional[Iterable[int]], budget: Optional[int], seed: int, close: bool
) -> Optional[list[int]]:
    """The longest path or, with `close`, the longest cycle that the search
    finds inside `within` (default: all vertices), as a vertex list."""
    active = _vertex_mask(g, within) if within is not None else (1 << g.n) - 1
    if not active:
        raise ValueError("empty vertex set")
    n_active = active.bit_count()
    total = _search_budget(budget, 20 * 10 * n_active)
    if close and n_active < 3:
        return None
    return _longest_search(g._adj, active, n_active, seed, total, close)


def longest_path(
    g: Graph,
    within: Optional[Iterable[int]] = None,
    budget: Optional[int] = None,
    seed: int = 0,
) -> Path:
    """Heuristic longest path inside `within` (default: all vertices)."""
    return Path(tuple(_longest(g, within, budget, mix64(seed, 0x9A7B), close=False) or ()))


def longest_cycle(
    g: Graph,
    within: Optional[Iterable[int]] = None,
    budget: Optional[int] = None,
    seed: int = 0,
) -> Optional[Cycle]:
    """Heuristic long cycle inside `within`; None when none was closed."""
    found = _longest(g, within, budget, mix64(seed, 0x10C), close=True)
    return Cycle(tuple(found)) if found is not None else None


def cycle_to_path(c: Cycle) -> Path:
    """Open a cycle into a path by cutting one cycle edge: the path keeps every
    vertex and its ends are adjacent on the cycle (in a bipartite host this
    puts one end on each side)."""
    return Path(c.vertices)
