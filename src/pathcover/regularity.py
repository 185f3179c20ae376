"""Equitable partitions, epsilon-regularity testing, cluster graphs, and
super-regular cleaning.

There is no attempt to certify the partition the way the tower-type
existence argument would; instead the partition is one seeded random draw,
and every pair the pipeline relies on is verified per instance. A partition
may cover a working subset, read in place; its pair counts e(V_i, V_j) are
popcounts of adjacency rows against cluster masks.

Regularity verdicts come in two modes:

* exact: both sides at most `EXACT_CAP` vertices; all large sub-pairs are
  enumerated with bitset counting, so the verdict is decisive.
* heuristic: witness candidates are built from degree-deviation classes
  (prefixes of the degree-sorted orders, scanned from all four corners).
  A returned witness is always re-validated with exact rational arithmetic,
  so "irregular" is a proof; "regular" is only evidence and is flagged.

Threshold comparisons use Fractions throughout, so boundary cases (density
exactly d) are deterministic.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from ._bits import bits, int_arg, mask_of, mix64
from .graph import Graph, VertexSet, _adjacency_block, _vertex_mask, density

EXACT_CAP = 10

Threshold = Union[int, float, Fraction]


class CleaningFailed(Exception):
    """Super-regular cleaning found more low-degree vertices than regularity allows."""


@dataclass(frozen=True)
class Partition:
    """Clusters V_1..V_t of a common even size m, plus the exceptional set V_0."""

    exceptional: VertexSet
    clusters: tuple[VertexSet, ...]
    m: int

    @property
    def t(self) -> int:
        return len(self.clusters)

    def validate(self, vertices: Iterable[int]) -> None:
        """ValueError unless the parts split `vertices` exactly (the whole
        graph is `range(g.n)`) into clusters of the common even size m."""
        all_vs: set[int] = set(self.exceptional)
        total = len(self.exceptional)
        for cl in self.clusters:
            if len(cl) != self.m:
                raise ValueError("cluster size differs from m")
            total += len(cl)
            all_vs |= cl
        if self.m % 2 != 0:
            raise ValueError("m must be even")
        working = set(vertices)
        if total != len(working) or all_vs != working:
            raise ValueError("partition must split the vertex set exactly")


@dataclass(frozen=True)
class RegularityWitness:
    x: VertexSet
    y: VertexSet
    deviation: Fraction


@dataclass(frozen=True)
class RegularityVerdict:
    regular: bool
    witness: Optional[RegularityWitness]
    mode: str  # "exact" | "heuristic"


@dataclass(frozen=True)
class ClusterGraph:
    """Graph on cluster indices 0..t-1; edges hold the exact pair density."""

    t: int
    threshold: Fraction
    edges: dict[tuple[int, int], Fraction]

    def to_graph(self) -> Graph:
        return Graph(self.t, list(self.edges))


def equitable_partition(g: Graph, t: int, seed: int = 0) -> Partition:
    """Random equitable partition into t clusters of even size m = floor(n/t)
    (rounded down to even); leftovers go to the exceptional set."""
    return _partition_with_counts(g, range(g.n), t, seed)[0]


PairCounts = dict[tuple[int, int], int]


def _partition_with_counts(g: Graph, within: Sequence[int], t: int, seed: int) -> tuple[Partition, PairCounts]:
    """`equitable_partition` of the subgraph induced on the sorted ids
    `within`, in g's ids, with its counts e(V_i, V_j), i < j.

    The draw shuffles the positions 0..n'-1, maps them through `within`, as
    a relabelled copy of the subgraph would, and cuts t clusters of m in order.
    """
    n = len(within)
    t = int_arg("t", t)
    if not 1 <= t <= n:
        raise ValueError(f"need 1 <= t <= n, got t={t}, n={n}")
    m = (n // t) & ~1
    if m == 0:
        raise ValueError(f"clusters would be empty with t={t}, n={n}")
    ids = [within[pos] for pos in _shuffled(n, mix64(seed, 0x9A27, 0))]
    part = Partition(frozenset(ids[t * m :]), tuple(frozenset(ids[i * m : (i + 1) * m]) for i in range(t)), m)
    return part, _pair_counts(g, part)


def _shuffled(n: int, seed: int) -> list[int]:
    """`list(range(n))` after `random.Random(seed).shuffle`. That shuffle
    draws the swap index j of each i = n-1..1 by `getrandbits(k)`, k = (i +
    1).bit_length(), redrawing while j > i; this makes the same calls in the
    same order, inlined and with k fixed over each run of i, in half the time."""
    getrandbits = random.Random(seed).getrandbits
    x = list(range(n))
    hi = n - 1
    while hi > 0:
        k = (hi + 1).bit_length()
        lo = (1 << (k - 1)) - 2  # every i in (lo, hi] has (i + 1).bit_length() == k
        for i in range(hi, lo, -1):
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            x[i], x[j] = x[j], x[i]
        hi = lo
    return x


def _pair_counts(g: Graph, p: Partition) -> PairCounts:
    """e(V_i, V_j) for every cluster pair i < j, in that order."""
    masks = [mask_of(cl) for cl in p.clusters]
    return {
        (i, j): sum((g.adjacency_mask(v) & masks[j]).bit_count() for v in p.clusters[i])
        for i in range(p.t)
        for j in range(i + 1, p.t)
    }


def is_eps_regular(
    g: Graph,
    a: Iterable[int],
    b: Iterable[int],
    eps: Threshold,
) -> RegularityVerdict:
    """Is (a, b) an eps-regular pair?

    Regular means every X ⊆ a, Y ⊆ b with |X| > eps|a|, |Y| > eps|b| has
    |d(X,Y) - d(a,b)| < eps.
    """
    am, bm = _vertex_mask(g, a), _vertex_mask(g, b)
    if am == 0 or bm == 0:
        raise ValueError("regularity needs nonempty sets")
    if am & bm:
        raise ValueError("regularity needs disjoint sets")
    if not 0 < eps < math.inf:  # NaN fails too
        raise ValueError(f"eps must be positive and finite, got {eps!r}")
    epsf = Fraction(eps)
    a_list = sorted(bits(am))
    b_list = sorted(bits(bm))
    if len(a_list) <= EXACT_CAP and len(b_list) <= EXACT_CAP:
        return _exact_check(g, a_list, b_list, epsf)
    return _heuristic_check(g, a_list, b_list, epsf)


def _exact_check(g: Graph, a_list: list[int], b_list: list[int], eps: Fraction) -> RegularityVerdict:
    na, nb = len(a_list), len(b_list)
    p, q = eps.numerator, eps.denominator
    # column bitmasks over a-indices
    col = [0] * nb
    for ia, va in enumerate(a_list):
        adj = g.adjacency_mask(va)
        for jb, vb in enumerate(b_list):
            if (adj >> vb) & 1:
                col[jb] |= 1 << ia
    e_ab = sum(c.bit_count() for c in col)
    nanb = na * nb
    for xmask in range(1, 1 << na):
        xsz = xmask.bit_count()
        if xsz * q <= p * na:
            continue
        cnt = [(c & xmask).bit_count() for c in col]
        e_of = [0] * (1 << nb)
        for ymask in range(1, 1 << nb):
            low = ymask & -ymask
            e_of[ymask] = e_of[ymask ^ low] + cnt[low.bit_length() - 1]
        for ymask in range(1, 1 << nb):
            ysz = ymask.bit_count()
            if ysz * q <= p * nb:
                continue
            # |e/(x*y) - E/(na*nb)| >= eps, cleared of denominators
            lhs = abs(e_of[ymask] * nanb - e_ab * xsz * ysz) * q
            if lhs >= p * xsz * ysz * nanb:
                x = frozenset(a_list[i] for i in bits(xmask))
                y = frozenset(b_list[j] for j in bits(ymask))
                dev = abs(
                    Fraction(e_of[ymask], xsz * ysz) - Fraction(e_ab, nanb)
                )
                return RegularityVerdict(False, RegularityWitness(x, y, dev), "exact")
    return RegularityVerdict(True, None, "exact")


def _heuristic_check(g: Graph, a_list: list[int], b_list: list[int], eps: Fraction) -> RegularityVerdict:
    na, nb = len(a_list), len(b_list)
    p, q = eps.numerator, eps.denominator
    mat = _adjacency_block(g, a_list, b_list)
    d_ab = mat.sum() / (na * nb)
    eps_float = p / q
    row_asc = np.argsort(mat.sum(axis=1), kind="stable")
    col_asc = np.argsort(mat.sum(axis=0), kind="stable")
    xs = np.arange(1, na + 1, dtype=np.float64)
    ys = np.arange(1, nb + 1, dtype=np.float64)
    area = np.outer(xs, ys)
    min_x = (p * na) // q + 1  # smallest size with x*q > p*na
    min_y = (p * nb) // q + 1
    candidates: list[tuple[float, np.ndarray, np.ndarray, int, int]] = []
    # pre[i, j]: ones in the first i rows and j columns in ascending order;
    # the corners that start from the end of an order are differences of it
    pre = np.zeros((na + 1, nb + 1), dtype=np.int64)
    pre[1:, 1:] = mat[row_asc][:, col_asc].cumsum(axis=0).cumsum(axis=1)
    for rows, by_rows in ((row_asc, pre), (row_asc[::-1], pre[na] - pre[::-1])):
        for cols, cum in ((col_asc, by_rows), (col_asc[::-1], by_rows[:, [nb]] - by_rows[:, ::-1])):
            dev = np.abs(cum[1:, 1:] / area - d_ab)
            dev[: min_x - 1, :] = -1.0
            dev[:, : min_y - 1] = -1.0
            flat = int(dev.argmax())
            i, j = flat // nb, flat % nb
            if dev[i, j] >= eps_float - 1e-12:
                candidates.append((float(dev[i, j]), rows, cols, i, j))
    d_exact = density(g, a_list, b_list)
    for _, rows, cols, i, j in sorted(candidates, key=lambda c: -c[0]):
        x = frozenset(a_list[r] for r in rows[: i + 1])
        y = frozenset(b_list[ccc] for ccc in cols[: j + 1])
        dxy = density(g, x, y)
        deviation = abs(dxy - d_exact)
        if deviation >= eps:
            return RegularityVerdict(False, RegularityWitness(x, y, deviation), "heuristic")
    return RegularityVerdict(True, None, "heuristic")


def build_cluster_graph(g: Graph, p: Partition, d: Threshold) -> ClusterGraph:
    """Cluster graph with an edge exactly when the pair density is >= d."""
    p.validate(range(g.n))
    return _dense_pairs(p, _pair_counts(g, p), d)


def _dense_pairs(p: Partition, counts: PairCounts, d: Threshold) -> ClusterGraph:
    """`build_cluster_graph` from the pair counts of `p`."""
    dfrac = Fraction(d)
    edges: dict[tuple[int, int], Fraction] = {}
    for pair, e in counts.items():
        dij = Fraction(e, p.m * p.m)
        if dij >= dfrac:
            edges[pair] = dij
    return ClusterGraph(p.t, dfrac, edges)


def clean_super_regular(
    g: Graph,
    a: Iterable[int],
    b: Iterable[int],
    eps: Threshold,
    d: Threshold,
) -> tuple[VertexSet, VertexSet]:
    """Trim the pair (a, b) down to a super-regular core.

    Vertices whose cross-degree falls below (d - eps) times the opposite side
    are removed, padded (lowest ids first) to exactly ceil(eps |a|) removals
    per side. The surviving pair is audited: every remaining vertex must keep
    cross-degree strictly above (d - 3 eps) times the surviving side size.
    """
    am, bm = mask_of(a), mask_of(b)
    if am == 0 or bm == 0 or am & bm:
        raise ValueError("need disjoint nonempty sides")
    na, nb = am.bit_count(), bm.bit_count()
    if na != nb:
        raise ValueError("sides must have equal size")
    epsf, dfrac = Fraction(eps), Fraction(d)
    if dfrac <= 3 * epsf:
        raise ValueError("need d > 3*eps")
    low_cut = math.ceil((dfrac - epsf) * nb)  # deg < (d - eps)|b| iff deg < ceil of it
    r = -((-epsf.numerator * na) // epsf.denominator)  # ceil(eps * |a|)
    n_low: list[int] = []  # low-degree vertices per side
    kept: list[VertexSet] = []
    for side, other in ((am, bm), (bm, am)):
        vs = sorted(bits(side))
        drop = {v for v in vs if (g.adjacency_mask(v) & other).bit_count() < low_cut}
        n_low.append(len(drop))
        for v in vs:
            if len(drop) >= r:
                break
            drop.add(v)
        kept.append(frozenset(vs) - drop)
    if r >= na:
        raise CleaningFailed(f"eps={float(epsf):.3f} would remove the whole side")
    if max(n_low) > epsf * na:
        raise CleaningFailed(
            f"{n_low[0]}/{n_low[1]} low-degree vertices exceed eps*|side| = {float(epsf) * na:.2f}"
        )
    x, y = kept
    floor_deg = math.floor((dfrac - 3 * epsf) * len(y))
    for side, other in ((x, y), (y, x)):
        om = mask_of(other)
        for v in sorted(side):
            if (g.adjacency_mask(v) & om).bit_count() <= floor_deg:
                raise CleaningFailed(f"vertex {v} fails the super-regularity audit")
    return x, y
