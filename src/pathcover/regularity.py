"""Equitable partitions, epsilon-regularity testing, cluster graphs, and
super-regular cleaning.

There is no attempt to certify the partition the way the tower-type
existence argument would; instead partitions are drawn at random (best of
several draws by mean-square density, or one draw on a complete or edgeless
working set, where every draw ties) and every pair the pipeline relies on is
verified per instance. A partition may cover a working subset, read in
place. One chunked product of its adjacency with every draw's one-hot labels
scores all draws and gives the chosen draw's pair counts.

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
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from ._bits import bits, mask_of, mix64
from .graph import Graph, VertexSet, _adjacency_block, _vertex_mask, density

EXACT_CAP = 10
REFINE = 20
ROW_CHUNK = 256  # working rows unpacked per step of the partition's scoring product

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

    def __hash__(self):
        return hash((self.t, self.threshold, tuple(sorted(self.edges))))


def equitable_partition(g: Graph, t: int, seed: int = 0) -> Partition:
    """Random equitable partition into t clusters of even size m = floor(n/t)
    (rounded down to even); leftovers go to the exceptional set.

    Keeps the draw of largest mean-square density, which partition refinement
    drives up, of REFINE draws (one where all tie: a complete or edgeless g).
    """
    return _partition_with_counts(g, range(g.n), t, seed)[0]


PairCounts = dict[tuple[int, int], int]


def _partition_with_counts(
    g: Graph, within: Sequence[int], t: int, seed: int
) -> tuple[Partition, PairCounts]:
    """`equitable_partition` of the subgraph induced on the sorted ids
    `within`, in g's ids, with the chosen draw's counts e(V_i, V_j), i < j.

    Each draw shuffles the positions 0..n'-1 and maps them through `within`,
    as a relabelled copy of the subgraph would. On a complete or edgeless
    `within` only draw 0 is made: every pair of every draw has e(V_i, V_j) =
    m^2 (or 0), so all draws tie. The draws are scored by one product A @ P:
    A is the 0/1 adjacency of `within`, unpacked ROW_CHUNK rows at a time as
    float32, and P holds the one-hot cluster labels of every draw. Each entry
    of A @ P counts at most n' < 2**24 ones, so it is exact; the per-draw sums
    over each cluster's rows are taken in int64, since e(V_i, V_j) reaches m^2.
    """
    n = len(within)
    if not 1 <= t <= n:
        raise ValueError(f"need 1 <= t <= n, got t={t}, n={n}")
    m = (n // t) & ~1
    if m == 0:
        raise ValueError(f"clusters would be empty with t={t}, n={n}")
    draws = 1 if _every_draw_ties(g, within) else REFINE
    perms = np.empty((draws, n), dtype=np.intp)
    for round_ in range(draws):
        perm = list(range(n))
        random.Random(mix64(seed, 0x9A27, round_)).shuffle(perm)
        perms[round_] = perm
    # labels[pos, round]: cluster of working position pos, or t for V_0
    labels = np.full((n, draws), t, dtype=np.intp)
    labels[perms[:, : t * m].T, np.arange(draws)] = (np.arange(t * m) // m)[:, None]
    onehot = labels[:, :, None] == np.arange(t)  # [pos, round, cluster]
    p = onehot.reshape(n, draws * t).astype(np.float32)
    cols = np.asarray(within)
    counts = np.zeros((draws, t, t), dtype=np.int64)
    for lo in range(0, n, ROW_CHUNK):
        rows = within[lo : lo + ROW_CHUNK]
        ap = _adjacency_block(g, rows, cols).astype(np.float32) @ p
        ap = ap.astype(np.int64).reshape(len(rows), draws, t).transpose(1, 0, 2)
        counts += onehot[lo : lo + ROW_CHUNK].transpose(1, 2, 0).astype(np.int64) @ ap
    pairs = [(i, j) for i in range(t) for j in range(i + 1, t)]
    best, best_index = 0, -1.0
    for round_, e in enumerate(counts.tolist()):
        total = 0.0
        for i, j in pairs:  # plain left-to-right sum: its rounding picks the draw
            total += (e[i][j] / (m * m)) ** 2
        index = total / len(pairs) if pairs else 0.0
        if index > best_index:
            best, best_index = round_, index
    ids = [within[pos] for pos in perms[best].tolist()]
    part = Partition(
        frozenset(ids[t * m :]),
        tuple(frozenset(ids[i * m : (i + 1) * m]) for i in range(t)),
        m,
    )
    e = counts[best].tolist()
    return part, {(i, j): e[i][j] for i, j in pairs}


def _every_draw_ties(g: Graph, within: Sequence[int]) -> bool:
    """Does the sorted id list `within` induce a complete or an edgeless graph?
    A first vertex of degree below n'-1 with a working neighbour rules out both."""
    n, first = len(within), g.adjacency_mask(within[0])
    linked = any((i := bisect_left(within, w)) < n and within[i] == w for w in bits(first))
    if linked and first.bit_count() < n - 1:
        return False
    rmask = mask_of(within)
    want = rmask if linked else 0  # complete: each v sees all of within but v; edgeless: none
    return all((g.adjacency_mask(v) | linked << v) & rmask == want for v in within)


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
    epsf = Fraction(eps)
    if epsf <= 0:
        raise ValueError("eps must be positive")
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
    for rows in (row_asc, row_asc[::-1]):
        for cols in (col_asc, col_asc[::-1]):
            sub = mat[rows][:, cols]
            cum = sub.cumsum(axis=0).cumsum(axis=1)
            dev = np.abs(cum / area - d_ab)
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
