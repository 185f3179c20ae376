"""Immutable simple undirected graphs with dense 0..n-1 vertex ids.

Adjacency is stored only as neighbor bitmasks: counts are popcounts of
|N(v) & S|, and complement and induced subgraphs are mask operations. Where
a whole 0/1 matrix is needed, one private kernel unpacks mask rows into a
numpy block, and one packs matrix rows back into masks. The edge-list
constructor validates its input; the private `_from_masks` trusts rows that
its caller built valid (generated graphs are built so, and audited in the
tests). Vertex ids are ints or numpy integers. Graphs may carry an optional
bipartition (X, Y); every edge must then cross it.
"""

from __future__ import annotations

from fractions import Fraction
from operator import index
from typing import Iterable, Optional, Sequence

import numpy as np

from ._bits import bits, mask_of, set_of

VertexSet = frozenset[int]


class GraphFormatError(ValueError):
    """Edge-list text that does not follow the format; carries a line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class Graph:
    """Simple undirected graph. Immutable after construction."""

    __slots__ = ("n", "_adj", "_bipartition")

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int]],
        bipartition: Optional[tuple[Iterable[int], Iterable[int]]] = None,
    ):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        adj = [0] * n
        for u, v in edges:
            u, v = index(u), index(v)
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at {u}")
            bit = 1 << v
            if adj[u] & bit:
                raise ValueError(f"duplicate edge ({min(u, v)},{max(u, v)})")
            adj[u] |= bit
            adj[v] |= 1 << u
        bip = None if bipartition is None else _sides(adj, bipartition)
        self.n, self._adj, self._bipartition = n, tuple(adj), bip

    @classmethod
    def _from_masks(cls, adj: tuple[int, ...], bip) -> "Graph":
        """Graph on already valid (symmetric, loop-free, side-crossing) masks."""
        g = object.__new__(cls)
        g.n, g._adj, g._bipartition = len(adj), adj, bip
        return g

    @property
    def m(self) -> int:
        return sum(a.bit_count() for a in self._adj) // 2

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """All edges (u, v) with u < v, in sorted order."""
        return tuple((u, u + 1 + w) for u, a in enumerate(self._adj) for w in bits(a >> (u + 1)))

    @property
    def bipartition(self) -> Optional[tuple[VertexSet, VertexSet]]:
        return self._bipartition

    def adjacency_mask(self, v: int) -> int:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range")
        return self._adj[v]

    def adjacent(self, u: int, v: int) -> bool:
        u, v = index(u), index(v)
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"vertex pair ({u},{v}) out of range")
        return bool((self._adj[u] >> v) & 1)

    def neighbors(self, v: int) -> frozenset[int]:
        return set_of(self.adjacency_mask(v))

    def degree(self, v: int) -> int:
        return self.adjacency_mask(v).bit_count()

    def degrees(self) -> list[int]:
        return [a.bit_count() for a in self._adj]

    def regular_degree(self) -> int:
        """Common degree if the graph is regular, else ValueError."""
        degs = set(self.degrees())
        if len(degs) != 1:
            raise ValueError("graph is not regular")
        return degs.pop()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adj == other._adj and self._bipartition == other._bipartition

    def __hash__(self) -> int:
        return hash((self._adj, self._bipartition))

    def __repr__(self) -> str:
        bi = ", bipartite" if self._bipartition else ""
        return f"Graph(n={self.n}, m={self.m}{bi})"


def _sides(adj: Sequence[int], bipartition) -> tuple[VertexSet, VertexSet]:
    """The sides (X, Y) as frozensets; ValueError unless they partition the
    vertices and every edge of the masks `adj` crosses them."""
    x, y = (frozenset(map(index, side)) for side in bipartition)
    if x & y:
        raise ValueError("bipartition sides overlap")
    if x | y != frozenset(range(len(adj))):
        raise ValueError("bipartition must cover all vertices")
    for side in (x, y):
        sm = mask_of(side)
        for a in side:
            if adj[a] & sm:
                a, b = sorted((a, (adj[a] & sm).bit_length() - 1))
                raise ValueError(f"edge ({a},{b}) does not cross the bipartition")
    return x, y


def _vertex_mask(g: Graph, vertices: Iterable[int]) -> int:
    """Bitmask of `vertices`; ValueError unless they all lie in 0..n-1."""
    mask = 0
    for v in map(index, vertices):
        if not 0 <= v < g.n:
            raise ValueError(f"vertices must lie in 0..{g.n - 1}")
        mask |= 1 << v
    return mask


def _adjacency_block(g: Graph, rows: Sequence[int], cols: Sequence[int]) -> np.ndarray:
    """0/1 uint8 matrix with [i, j] = 1 iff rows[i] ~ cols[j]; ids in 0..n-1."""
    nbytes = (g.n + 7) // 8
    packed = b"".join(g._adj[v].to_bytes(nbytes, "little") for v in rows)
    grid = np.frombuffer(packed, dtype=np.uint8).reshape(len(rows), nbytes)
    return np.unpackbits(grid, axis=1, bitorder="little")[:, cols]


def _pack_rows(block: np.ndarray) -> tuple[int, ...]:
    """Row masks of a 0/1 matrix: bit j of mask i is block[i, j]."""
    packed = np.packbits(block, axis=1, bitorder="little")
    return tuple(int.from_bytes(row.tobytes(), "little") for row in packed)


def density(g: Graph, a: Iterable[int], b: Iterable[int]) -> Fraction:
    """Exact edge density e(a,b) / (|a|*|b|) between disjoint nonempty sets."""
    am, bm = _vertex_mask(g, a), _vertex_mask(g, b)
    if am == 0 or bm == 0:
        raise ValueError("density needs nonempty sets")
    if am & bm:
        raise ValueError("density needs disjoint sets")
    e = sum((g.adjacency_mask(v) & bm).bit_count() for v in bits(am))
    return Fraction(e, am.bit_count() * bm.bit_count())


def degree_into(g: Graph, v: int, s: Iterable[int]) -> int:
    """|N(v) ∩ s|."""
    return (g.adjacency_mask(v) & _vertex_mask(g, s)).bit_count()


def induced_subgraph(g: Graph, keep: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph on `keep`, relabeled to 0..|keep|-1.

    Returns (subgraph, mapping) where mapping[new_id] = old_id.
    """
    old_ids = sorted(set(keep))
    if old_ids and not (0 <= old_ids[0] and old_ids[-1] < g.n):
        raise ValueError(f"induced_subgraph: vertices must lie in 0..{g.n - 1}")
    adj = _pack_rows(_adjacency_block(g, old_ids, old_ids))
    bip = None if g.bipartition is None else tuple(
        frozenset(i for i, v in enumerate(old_ids) if v in side) for side in g.bipartition
    )
    return Graph._from_masks(adj, bip), tuple(old_ids)


def complement(g: Graph) -> Graph:
    """Complement graph. A bipartite graph is complemented within its
    bipartition: X-Y pairs swap edge and non-edge, and the sides are kept."""
    full = (1 << g.n) - 1
    if g.bipartition is None:
        allowed = [full ^ (1 << v) for v in range(g.n)]
    else:
        xm = mask_of(g.bipartition[0])
        allowed = [full ^ xm if (xm >> v) & 1 else xm for v in range(g.n)]
    return Graph._from_masks(tuple(a ^ b for a, b in zip(g._adj, allowed)), g.bipartition)


def read_graph(text: str) -> Graph:
    """Parse the edge-list format.

    First line "n m"; optional second header "bipartite k" meaning
    X = {0..k-1}, Y = {k..n-1}; then m lines "u v" with 0 <= u < v < n.
    '#' lines are comments; blank lines are skipped.
    """
    n = m = -1
    split_k: Optional[int] = None
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if n < 0:
            if len(parts) != 2:
                raise GraphFormatError(line_no, "expected header 'n m'")
            try:
                n, m = int(parts[0]), int(parts[1])
            except ValueError:
                raise GraphFormatError(line_no, "header values must be integers") from None
            if n < 0 or m < 0:
                raise GraphFormatError(line_no, "header values must be nonnegative")
            continue
        if parts[0] == "bipartite":
            if edges or split_k is not None:
                raise GraphFormatError(line_no, "'bipartite' header must precede edges")
            if len(parts) != 2:
                raise GraphFormatError(line_no, "expected 'bipartite k'")
            try:
                split_k = int(parts[1])
            except ValueError:
                raise GraphFormatError(line_no, "bipartite size must be an integer") from None
            if not 0 <= split_k <= n:
                raise GraphFormatError(line_no, f"bipartite size {split_k} out of range")
            continue
        if len(parts) != 2:
            raise GraphFormatError(line_no, f"expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(line_no, "edge endpoints must be integers") from None
        if u == v:
            raise GraphFormatError(line_no, f"self-loop at {u}")
        if not (0 <= u < v < n):
            raise GraphFormatError(line_no, f"edge ({u},{v}) violates 0 <= u < v < n")
        if (u, v) in seen:
            raise GraphFormatError(line_no, f"duplicate edge ({u},{v})")
        seen.add((u, v))
        edges.append((u, v))
    if n < 0:
        raise GraphFormatError(1, "missing header 'n m'")
    if len(edges) != m:
        raise GraphFormatError(1, f"header promises {m} edges, found {len(edges)}")
    bip = None
    if split_k is not None:
        bip = (range(split_k), range(split_k, n))
    try:
        return Graph(n, edges, bipartition=bip)
    except ValueError as exc:
        raise GraphFormatError(1, str(exc)) from None


def write_graph(g: Graph) -> str:
    """Serialize to the edge-list format with canonical (sorted) edge order.

    A bipartition is only representable when X is a prefix {0..k-1}.
    """
    lines = [f"{g.n} {g.m}"]
    if g.bipartition is not None:
        x, _ = g.bipartition
        k = len(x)
        if x != frozenset(range(k)):
            raise ValueError("only prefix bipartitions (X = 0..k-1) can be serialized")
        lines.append(f"bipartite {k}")
    for u, v in g.edges:
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"
