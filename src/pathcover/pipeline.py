"""End-to-end covers: few vertex-disjoint cycles, then few vertex-disjoint
paths, for dense regular graphs.

The cycle stage follows the regularity route: equitable partition, per-pair
regularity verdicts, cluster graph on the dense regular pairs, half-integral
matching, cluster splitting, super-regular cleaning, and one spanning cycle
per cleaned pair. The path stage holds out a random reservoir first, covers
the rest with cycles, cuts them open, merges paths through unused reservoir
vertices until the target count is reached, and absorbs what is left: at a
path end, or spliced between consecutive path vertices as one free vertex
or, failing that, as a free edge (the only run that fits a bipartite path).

The guarantees behind the route are asymptotic, so at desk scale the
parameter chain (d = alpha*c/9 and downward) often leaves no usable regular
pairs. When that happens the run degrades to a labeled greedy fallback
(rotation-extension stripping plus the same reservoir connection loop). A
path stage that misses its limits makes one more strip with a fresh seed and
keeps the better result. The report always names the route taken, and every
emitted cover passes the same structural audit either way.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from ._bits import bits, int_arg, mask_of, mix64, seed_arg
from .generators import _dec, degree_from_ratio
from .graph import Graph, _adjacency_block, _pack_rows
from .graph import induced_subgraph  # noqa: F401  (kept only for perfbench's tracer)
from .hamilton import (
    Cycle,
    Path,
    cycle_to_path,
    longest_cycle,
    longest_path,
    spanning_cycle_bipartite,
)
from .matching import cluster_matching_pairs, fractional_matching
from .matching import max_deficiency  # noqa: F401  (kept only for perfbench's tracer)
from .regularity import (
    CleaningFailed,
    ClusterGraph,
    _dense_pairs,
    _partition_with_counts,
    clean_super_regular,
    is_eps_regular,
)
from .regularity import build_cluster_graph, equitable_partition  # noqa: F401  (kept only for perfbench's tracer)


class DegenerateParameterError(ValueError):
    """Parameter windows that no integer can satisfy."""


class ReservoirError(RuntimeError):
    """Rejection sampling for the reservoir ran out of attempts."""


def paths_limit(c: float) -> int:
    """floor(1/c)."""
    return int(1 / _dec(c))


def paths_limit_bipartite(c: float) -> int:
    """floor(1/(2c))."""
    return int(1 / (2 * _dec(c)))


# --------------------------------------------------------------- configuration


_TOL = 1e-9  # slack of the eps <= d/6 and gamma <= 1/4 checks


def _chain(c: float, alpha: float, d: Optional[float] = None) -> tuple[float, float, float]:
    """The chain's (d, eps, gamma) at alpha; eps follows d when d is given."""
    d = alpha * c / 9 if d is None else d
    return d, min(0.1 * (d / 2), d / 6, 3 * d / (2 * c)), alpha / 4


@dataclass(frozen=True)
class PipelineConfig:
    """Run parameters; build with `derive` to get the standard chain
    d = alpha*c/9, delta = d/2, eps = min(delta/10, d/6, 3d/(2c)),
    gamma = alpha/4, beta = 3d/c. delta and beta are always derived from d.
    A config is its seven values: equal configs run the same.
    """

    c: float
    alpha: float
    d: float
    eps: float
    gamma: float
    t: Optional[int] = None
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.c <= 1:
            raise ValueError("c must be in (0, 1]")
        if not 0 < self.alpha <= 1:
            raise ValueError("alpha must be in (0, 1]")
        if not 0 < self.d <= 1:
            raise ValueError("d must be in (0, 1]")
        if not 0 < self.eps <= self.d / 6 + _TOL:
            raise ValueError("need 0 < eps <= d/6")
        if not 0 <= self.gamma <= 0.25 + _TOL:
            raise ValueError("gamma must be in [0, 1/4]")
        if self.t is not None:
            object.__setattr__(self, "t", int_arg("t", self.t))
            if self.t < 1:
                raise ValueError(f"t must be None or an integer >= 1, got {self.t!r}")
        object.__setattr__(self, "seed", seed_arg(self.seed))

    @property
    def delta(self) -> float:
        return self.d / 2

    @property
    def beta(self) -> float:
        return 3 * self.d / self.c

    @classmethod
    def derive(
        cls,
        c: float,
        alpha: float,
        *,
        d: Optional[float] = None,
        eps: Optional[float] = None,
        gamma: Optional[float] = None,
        t: Optional[int] = None,
        seed: int = 0,
    ) -> "PipelineConfig":
        if not 0 < c <= 1:
            raise ValueError("c must be in (0, 1]")
        if not 0 < alpha <= 1:
            raise ValueError("alpha must be in (0, 1]")
        d_, eps_, gamma_ = _chain(c, alpha, d)
        return cls(
            c, alpha, d_, eps_ if eps is None else eps, gamma_ if gamma is None else gamma, t, seed
        )

    def with_alpha(self, alpha: float) -> "PipelineConfig":
        """This config at another alpha. Each of d, eps and gamma that equals
        the chain's value at self.alpha (eps: from self.d) is derived again at
        alpha; any other value is kept, except an eps above the new d/6."""
        d_here = _chain(self.c, self.alpha)[0]
        _, eps_here, gamma_here = _chain(self.c, self.alpha, self.d)
        d, eps, gamma = _chain(self.c, alpha, None if self.d == d_here else self.d)
        if self.eps != eps_here and self.eps <= d / 6 + _TOL:
            eps = self.eps
        if self.gamma != gamma_here:
            gamma = self.gamma
        return PipelineConfig(self.c, alpha, d, eps, gamma, self.t, self.seed)


# --------------------------------------------------------------------- results


@dataclass
class CycleSet:
    cycles: list[Cycle]
    uncovered: frozenset[int]


@dataclass
class PathCover:
    paths: list[Path]
    uncovered: frozenset[int]


@dataclass
class RunReport:
    """Per-stage diagnostics; `method` names the route that produced the cover."""

    method: str = "regularity-pipeline"
    n: int = 0
    t: int = 0
    m: int = 0
    v0: int = 0
    regular_pair_fraction: float = 0.0
    cluster_edges: int = 0
    mu_f: Optional[Fraction] = None
    deficiency_ok: Optional[bool] = None
    pairings: int = 0
    cycles_found: int = 0
    cycles_failed: int = 0
    reservoir_size: int = 0
    reservoir_spent: int = 0
    connections: int = 0
    direct_joins: int = 0
    trimmed: int = 0
    absorbed: int = 0
    final_count: int = 0
    covered: int = 0
    uncovered: int = 0
    success: bool = False
    notes: list[str] = field(default_factory=list)
    merges: list[tuple[int, int, int]] = field(default_factory=list)
    reservoir_vertices: frozenset[int] = frozenset()

    def note(self, text: str) -> None:
        self.notes.append(text)

    def to_kv_text(self) -> str:
        skip = {"notes", "merges", "reservoir_vertices"}
        lines = []
        for name, value in vars(self).items():
            if name in skip:
                continue
            if isinstance(value, Fraction):
                value = f"{value} ({float(value):.6g})"
            lines.append(f"{name}={value}")
        lines.append(f"notes={'; '.join(self.notes) if self.notes else '-'}")
        return "\n".join(lines) + "\n"


@dataclass
class CheckItem:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class CoverCheck:
    """`verify_cover`'s items and counts: units, distinct vertices on them and
    vertices declared uncovered."""

    items: list[CheckItem]
    count: int = 0
    covered: int = 0
    uncovered: int = 0

    @property
    def ok(self) -> bool:
        return all(item.ok for item in self.items)

    def __str__(self) -> str:
        return "\n".join(
            f"[{'PASS' if i.ok else 'FAIL'}] {i.name}" + (f": {i.detail}" if i.detail else "")
            for i in self.items
        )


# ------------------------------------------------------------------- reservoir

RESERVOIR_ATTEMPTS = 50


def reservoir(
    g: Graph,
    gamma: float,
    eps: float,
    seed: int = 0,
) -> frozenset[int]:
    """Random vertex set R with |R| in (1±eps)*gamma*n and, for every vertex,
    deg(v, R) in (1±eps)*gamma*k (open windows; k is the regular degree).

    Sampled by independent inclusion with probability gamma, rejected until
    both windows hold, at most RESERVOIR_ATTEMPTS times.
    """
    return _reservoir_level(g, g.regular_degree(), gamma, eps, _reservoir_draws(g.n, gamma, seed), {})


def _reservoir_draws(n: int, gamma: float, seed: int) -> Iterator[tuple[int, int]]:
    """The reservoir's candidate sets as (rmask, size), in draw order: vertex v
    joins when its `rng.random()` is below gamma. A candidate reads its n
    values from one `getrandbits(64 * n)`, which takes the same 32-bit words,
    first word lowest; random() is ((a >> 5) * 2**26 + (b >> 6)) / 2**53 over
    consecutive words a, b, so it is below gamma iff that integer is below
    ceil(gamma * 2**53)."""
    rng = random.Random(mix64(seed, 0x6E5E6))
    cut = np.uint64(math.ceil(gamma * 2**53))
    for _ in range(RESERVOIR_ATTEMPTS):
        ab = np.frombuffer(rng.getrandbits(64 * n).to_bytes(8 * n, "little"), "<u8")
        picked = ((ab & 0xFFFFFFFF) >> 5 << 26 | ab >> 38) < cut
        rmask = int.from_bytes(np.packbits(picked, bitorder="little").tobytes(), "little")
        yield rmask, rmask.bit_count()


def _reservoir_level(
    g: Graph, k: int, gamma: float, eps: float, draws: Iterable[tuple[int, int]], resume: dict[int, int]
) -> frozenset[int]:
    """The first of `draws` inside both windows at this eps. `resume` maps a
    draw's index to the vertex where its degree scan failed at a smaller eps,
    and is updated: the windows only widen as eps grows, so every vertex
    before that one is inside them again, and the scan restarts there."""
    n = g.n
    if not 0 < gamma <= 1:
        raise DegenerateParameterError(f"gamma={gamma} must be in (0, 1]")
    if not 0 < eps < math.inf:
        raise DegenerateParameterError(f"eps={eps} must be positive and finite")
    ga, ep = _dec(gamma), _dec(eps)
    size_lo, size_hi = (1 - ep) * ga * n, (1 + ep) * ga * n
    deg_lo, deg_hi = (1 - ep) * ga * k, (1 + ep) * ga * k
    size_floor, size_ceil = _int_window(size_lo, size_hi)
    deg_floor, deg_ceil = _int_window(deg_lo, deg_hi)
    if size_ceil - size_floor <= 1:
        raise DegenerateParameterError(
            f"no integer size in ({float(size_lo):.3f}, {float(size_hi):.3f})"
        )
    if deg_ceil - deg_floor <= 1:
        raise DegenerateParameterError(
            f"no integer degree in ({float(deg_lo):.3f}, {float(deg_hi):.3f})"
        )
    for index, (rmask, size) in enumerate(draws):
        if not size_floor < size < size_ceil:
            continue
        for v in range(resume.get(index, 0), n):
            if not deg_floor < (g.adjacency_mask(v) & rmask).bit_count() < deg_ceil:
                resume[index] = v
                break
        else:
            return frozenset(bits(rmask))
    raise ReservoirError(f"no valid reservoir in {RESERVOIR_ATTEMPTS} attempts")


def _int_window(lo: Fraction, hi: Fraction) -> tuple[int, int]:
    """(floor(lo), ceil(hi)): an integer x lies in the open window (lo, hi) iff
    floor(lo) < x < ceil(hi), and no integer does iff ceil(hi) - floor(lo) <= 1."""
    return math.floor(lo), math.ceil(hi)


def chernoff_upper(nprime: int, zeta: float, x: float) -> float:
    """Bound on P[Bin(n', zeta) >= n'*zeta + x]: exp(-x^2 / (2 n' zeta + x/3))."""
    _chernoff_domain(nprime, zeta, x)
    return math.exp(-(x * x) / (2 * nprime * zeta + x / 3))


def chernoff_lower(nprime: int, zeta: float, x: float) -> float:
    """Bound on P[Bin(n', zeta) <= n'*zeta - x]: exp(-x^2 / (2 n' zeta))."""
    _chernoff_domain(nprime, zeta, x)
    return math.exp(-(x * x) / (2 * nprime * zeta))


def _chernoff_domain(nprime: int, zeta: float, x: float) -> None:
    if nprime < 1:
        raise ValueError("n' must be at least 1")
    if not 0 < zeta < 1:
        raise ValueError("zeta must be in (0, 1)")
    if not x > 0:
        raise ValueError("x must be positive")


# ----------------------------------------------------------------- cycle cover


def _default_t(n: int) -> int:
    """Cluster count minimizing the route's built-in losses: the leftover
    n - t*m plus ~2 vertices of cleaning per cluster."""
    best: Optional[tuple[int, int, int]] = None
    for t in range(4, 13):
        m = (n // t) & ~1
        if m < 8:
            continue
        key = ((n - t * m) + 2 * t, -m, t)
        if best is None or key < best:
            best = key
    if best is None:
        return max(2, n // 8)
    return best[2]


def cycle_cover(
    g: Graph,
    cfg: PipelineConfig,
    strict_window: bool = True,
) -> tuple[CycleSet, RunReport]:
    """Cover all but ~alpha*n vertices by at most t vertex-disjoint cycles.

    Tries the regularity route; on shortfall, strips long cycles greedily and
    labels the report `greedy-fallback`. Never emits overlapping cycles.
    `rep.success` is `verify_cover` at the fallback's cycle cap, the largest
    count either route returns, and alpha*n uncovered.
    """
    cycset, rep = _cycle_stage(g, range(g.n), cfg, strict_window)
    _record_audit(rep, verify_cover(g, cycset, _cycle_cap(cfg, g.n), int(_dec(cfg.alpha) * g.n)))
    return cycset, rep


def _cycle_stage(
    g: Graph,
    rest: Sequence[int],
    cfg: PipelineConfig,
    strict_window: bool,
) -> tuple[CycleSet, RunReport]:
    """The cycles of `cycle_cover` on the subgraph induced on the sorted ids
    `rest`, in g's ids, with its report before the audit. The stage reads g
    only through `rest`, and ordering by id agrees with the relabelling
    0..|rest|-1, so it returns what it would on that relabelled copy, mapped
    back."""
    n = len(rest)
    rep = RunReport(n=n)
    eps = cfg.eps
    cn = _dec(cfg.c) * n
    lo, hi = _int_window((1 - _dec(eps)) * cn, (1 + _dec(eps)) * cn)
    rmask = mask_of(rest)
    violations = sum(1 for v in rest if not lo < (g.adjacency_mask(v) & rmask).bit_count() < hi)
    if violations:
        msg = f"{violations} vertices outside the (1±eps)c*n degree window"
        if strict_window:
            raise ValueError(msg)
        rep.note(msg)
    alpha_cap = int(_dec(cfg.alpha) * n)
    cycles = _regularity_cycles(g, rest, cfg, rep)
    if cycles is not None:
        covered = len(_covered_vertices(cycles))
        if n - covered > alpha_cap:
            rep.note(
                f"regularity route covered only {covered}/{n}, "
                f"needed {n - alpha_cap}; falling back"
            )
            cycles = None
    if cycles is None:
        cycles = _strip(g, longest_cycle, rest, (cfg.seed, 0xFA11), _cycle_cap(cfg, n), keep=alpha_cap)
        rep.method = "greedy-fallback"
    rep.cycles_found = len(cycles)
    return CycleSet(cycles, frozenset(rest) - _covered_vertices(cycles)), rep


def _cycle_cap(cfg: PipelineConfig, n: int) -> int:
    """The fallback's cycle cap on n vertices; the route returns at most t."""
    return cfg.t if cfg.t is not None else max(_default_t(n), 4)


def _regularity_cycles(
    g: Graph,
    rest: Sequence[int],
    cfg: PipelineConfig,
    rep: RunReport,
) -> Optional[list[Cycle]]:
    """The partition/matching/embedding route on `rest`; None if it cannot proceed."""
    n = len(rest)
    eps, d = cfg.eps, cfg.d
    t = cfg.t if cfg.t is not None else _default_t(n)
    m = (n // t) & ~1
    if t < 2 or m < 8:
        rep.note(f"clusters too small (t={t}, m={m}) for the regularity route")
        return None
    eps_f = Fraction(eps)
    # the one draw's pair counts feed both the verdicts and the cluster graph
    part, counts = _partition_with_counts(g, rest, t, mix64(cfg.seed, 0x9A91))
    part.validate(rest)
    rep.t, rep.m, rep.v0 = part.t, part.m, len(part.exceptional)
    if len(part.exceptional) > _dec(eps) * n:
        rep.note(f"|V_0|={rep.v0} exceeds eps*n={float(eps) * n:.2f}")
    verdicts: dict[tuple[int, int], bool] = {}
    for (i, j), e in counts.items():
        verdict = _single_vertex_verdict(e, m, m, eps_f)
        if verdict is None:
            verdict = is_eps_regular(g, part.clusters[i], part.clusters[j], eps_f).regular
        verdicts[(i, j)] = verdict
    rep.regular_pair_fraction = sum(verdicts.values()) / len(verdicts)
    dense = _dense_pairs(part, counts, Fraction(d))
    usable = {e: dens for e, dens in dense.edges.items() if verdicts[e]}
    h = ClusterGraph(t, dense.threshold, usable)
    rep.cluster_edges = len(usable)
    if not usable:
        rep.note("no dense regular pairs")
        return None
    hg = h.to_graph()
    f = fractional_matching(hg)
    rep.mu_f = f.value
    deficiency = t - 2 * f.value  # max_deficiency(hg), by the fractional Tutte-Berge formula
    rep.deficiency_ok = deficiency <= _dec(cfg.beta) * t
    if not rep.deficiency_ok:
        rep.note(f"cluster-graph deficiency {deficiency} exceeds beta*t")
        return None
    pairings = cluster_matching_pairs(h, f)
    rep.pairings = len(pairings)
    half = m // 2
    removed = -((-eps_f.numerator * half) // eps_f.denominator)  # ceil(eps*half)
    predicted = 2 * len(pairings) * (half - removed)
    if predicted < n - int(_dec(cfg.alpha) * n):
        rep.note(
            f"predicted coverage {predicted} cannot reach {n - int(_dec(cfg.alpha) * n)}"
        )
        return None
    halves: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    for cl in part.clusters:
        ordered = tuple(sorted(cl))
        halves.append((ordered[:half], ordered[half:]))
    cycles: list[Cycle] = []
    for idx, (i, hi_, j, hj) in enumerate(pairings):
        a = halves[i][hi_ - 1]
        b = halves[j][hj - 1]
        try:
            x, y = clean_super_regular(g, a, b, eps_f, Fraction(d))
        except CleaningFailed as exc:
            rep.cycles_failed += 1
            rep.note(f"pair ({i},{j}): cleaning failed: {exc}")
            continue
        found = spanning_cycle_bipartite(g, x, y, seed=mix64(cfg.seed, 0xE3BED, idx))
        if found.ok:
            cycles.append(found.cycle)
        else:
            rep.cycles_failed += 1
            rep.note(f"pair ({i},{j}): spanning-cycle search failed")
    return cycles


def _single_vertex_verdict(e: int, na: int, nb: int, eps: Fraction) -> Optional[bool]:
    """Is a pair with sides na, nb and e edges eps-regular? None unless
    eps*max(na, nb) < 1 and eps <= 1/2."""
    if eps * max(na, nb) >= 1 or eps > Fraction(1, 2):
        return None
    # every single vertex is then an admissible witness set: with 0 < e < na*nb
    # some 1x1 sub-pair deviates by max(d, 1-d) >= 1/2 >= eps, and with e in
    # {0, na*nb} no sub-pair deviates at all
    return e in (0, na * nb)


def _strip(
    g: Graph,
    find: Callable[..., Optional[Union[Path, Cycle]]],
    active: Iterable[int],
    seed_prefix: tuple[int, ...],
    cap: int,
    keep: int = 0,
) -> list:
    """Greedy stripping: take what `find` (`longest_cycle` or `longest_path`)
    returns inside the active vertices and remove it, until there are `cap`
    units, at most `keep` active vertices are left, or `find` returns None.
    Unit idx is searched with seed mix64(*seed_prefix, idx), 12 rotations per
    active vertex."""
    active = set(active)
    units: list = []
    while len(units) < cap and len(active) > keep:
        found = find(
            g,
            within=active,
            budget=12 * len(active),
            seed=mix64(*seed_prefix, len(units)),
        )
        if found is None:
            break
        units.append(found)
        active -= set(found.vertices)
    return units


# ------------------------------------------------------------ path connection


def connect_paths(
    g: Graph,
    paths: Sequence[Path],
    r: Iterable[int],
    limit: int,
    sides: Optional[tuple[int, int]] = None,
) -> tuple[list[Path], frozenset[int], list[tuple[int, int, int]]]:
    """Merge paths through common reservoir neighbors of their chosen ends
    until at most `limit` paths remain or no merge is possible.

    Without `sides`, each path's connector end is its lexicographically
    smaller endpoint and any reservoir vertex may connect. With
    `sides=(xmask, ymask)` (bipartite), connectors come from R ∩ Y and join
    ends in X; a path whose ends both lie in Y is trimmed by one end vertex,
    at merge time, to expose an X end. Ends are re-evaluated after every
    merge. Candidate merges are scanned smallest (i, j) first, then smallest
    w. Returns (paths, leftover reservoir, log of (i, j, w) merges against
    the pre-merge indexing of each round).
    """
    paths = list(paths)
    rset = set(r)
    merges: list[tuple[int, int, int]] = []
    while len(paths) > limit:
        cmask = mask_of(rset) if sides is None else mask_of(rset) & sides[1]
        if not cmask:
            break
        found = _first_merge(g, [_end_plans(p, sides) for p in paths], cmask)
        if not found:
            break
        i, j, w, plan_i, plan_j = found
        pi = _trimmed(paths[i], plan_i[1])
        pj = _trimmed(paths[j], plan_j[1])
        pi = pi if pi.vertices[-1] == plan_i[0] else pi.reversed()
        pj = pj if pj.vertices[0] == plan_j[0] else pj.reversed()
        merged = Path(pi.vertices + (w,) + pj.vertices)
        paths = [p for k, p in enumerate(paths) if k not in (i, j)]
        paths.append(merged)
        rset.discard(w)
        merges.append((i, j, w))
    return paths, frozenset(rset), merges


EndPlan = tuple[int, Optional[int]]  # (connector end, end vertex to trim first or None)


def _end_plans(p: Path, sides: Optional[tuple[int, int]]) -> list[EndPlan]:
    if sides is None:
        return [(min(p.ends), None)]
    xmask = sides[0]
    e0, e1 = p.ends
    plans: list[EndPlan] = [(e, None) for e in {e0, e1} if (xmask >> e) & 1]
    if not plans and len(p) >= 2:
        # both ends in Y: trimming either end exposes its neighbor in X
        plans.append((p.vertices[1], e0))
        if len(p) >= 3:
            plans.append((p.vertices[-2], e1))
    return sorted(plans)


def _first_merge(
    g: Graph,
    plans: list[list[EndPlan]],
    cmask: int,
) -> Optional[tuple[int, int, int, EndPlan, EndPlan]]:
    """Smallest (i, plan_i, j, plan_j) whose ends share a connector in cmask,
    with the smallest such connector w."""
    for i, plans_i in enumerate(plans):
        for plan_i in plans_i:
            ai = g.adjacency_mask(plan_i[0]) & cmask
            if not ai:
                continue
            for j in range(i + 1, len(plans)):
                for plan_j in plans[j]:
                    common = ai & g.adjacency_mask(plan_j[0])
                    if common:
                        return i, j, (common & -common).bit_length() - 1, plan_i, plan_j
    return None


def _trimmed(p: Path, trim: Optional[int]) -> Path:
    if trim is None:
        return p
    return Path(p.vertices[1:] if p.vertices[0] == trim else p.vertices[:-1])


def _concat_paths(
    g: Graph,
    paths: list[Path],
    limit: int,
) -> tuple[list[Path], int]:
    """Join pairs of paths whose ends are directly adjacent (no connector).

    Scanned smallest (i, j) first, then the end pairings tail-head,
    tail-tail, head-head, head-tail: (rev_i, rev_j) says which path is
    reversed before path i is followed by path j.
    """
    paths = list(paths)
    joins = 0
    while len(paths) > limit:
        found = next(
            (
                (i, j, rev_i, rev_j)
                for i, j in itertools.combinations(range(len(paths)), 2)
                for rev_i, rev_j in itertools.product((False, True), repeat=2)
                if g.adjacent(
                    paths[i].vertices[0 if rev_i else -1], paths[j].vertices[-1 if rev_j else 0]
                )
            ),
            None,
        )
        if found is None:
            break
        i, j, rev_i, rev_j = found
        pi = paths[i].reversed() if rev_i else paths[i]
        pj = paths[j].reversed() if rev_j else paths[j]
        merged = Path(pi.vertices + pj.vertices)
        paths = [p for k, p in enumerate(paths) if k not in (i, j)]
        paths.append(merged)
        joins += 1
    return paths, joins


def _absorb(
    g: Graph,
    paths: list[Path],
    free: set[int],
) -> tuple[list[Path], int]:
    """Pull free vertices into the paths: extend ends greedily, then splice a
    free run between consecutive path vertices p_i, p_{i+1}. A run is a free
    vertex w with p_i ~ w ~ p_{i+1} or, only if no such w exists, a free edge
    ww' with p_i ~ w and w' ~ p_{i+1}; in a bipartite graph consecutive path
    vertices lie on opposite sides, so only the edge can fit there.
    Deterministic (smallest w, then smallest w', then first position)."""
    seqs = [list(p.vertices) for p in paths]
    fmask = mask_of(free)
    while fmask:
        before = fmask
        for vs in seqs:
            for at_tail in (True, False):
                ext = g.adjacency_mask(vs[-1 if at_tail else 0]) & fmask
                if ext:
                    v = (ext & -ext).bit_length() - 1
                    vs.insert(len(vs) if at_tail else 0, v)
                    fmask &= ~(1 << v)
        if fmask != before:
            continue
        # no end extends; splice a run (w,), then (w, w'), between consecutive
        # path vertices. occ[w][idx] has bit i set iff w ~ p_i on path idx; it
        # is gathered from w's adjacency row in the order of the round's
        # vertex array of each path, at most once per round
        cols = [np.array(vs) for vs in seqs]
        occ: dict[int, list[int]] = {}
        order = list(bits(fmask))
        pairs = ((w, u) for w in order for u in bits(g.adjacency_mask(w) & fmask))
        for run in itertools.chain(((w,) for w in order), pairs):
            for w in run:
                if w not in occ:
                    occ[w] = [_pack_rows(_adjacency_block(g, (w,), at))[0] for at in cols]
            for idx, vs in enumerate(seqs):
                gap = occ[run[0]][idx] & (occ[run[-1]][idx] >> 1)
                if gap:
                    i = (gap & -gap).bit_length() - 1
                    vs[i + 1 : i + 1] = run
                    fmask &= ~mask_of(run)
                    break
            if fmask != before:
                break
        if fmask == before:
            break
    # each changed path gained vertices; build its Path once
    paths[:] = [p if len(vs) == len(p) else Path(tuple(vs)) for p, vs in zip(paths, seqs)]
    absorbed = len(free) - fmask.bit_count()
    free.intersection_update(bits(fmask))
    return paths, absorbed


# ------------------------------------------------------------------ path cover


def _reservoir_relaxed(g: Graph, cfg: PipelineConfig, eps0: float, rep: RunReport) -> frozenset[int]:
    """Reservoir with the configured eps, doubling it on failure (reported).
    Each level returns what `reservoir` would at its eps; tee replays the
    candidates drawn so far, so each is drawn at most once, and each replayed
    candidate's degree scan resumes where it failed at the last level."""
    k = g.regular_degree()
    draws = _reservoir_draws(g.n, cfg.gamma, mix64(cfg.seed, 0x6E5))
    resume: dict[int, int] = {}
    eps_res = eps0
    while eps_res <= 1.0:
        draws, level = itertools.tee(draws)
        try:
            r = _reservoir_level(g, k, cfg.gamma, eps_res, level, resume)
            if eps_res != eps0:
                rep.note(f"reservoir accepted at relaxed eps={eps_res:.4g}")
            return r
        except (DegenerateParameterError, ReservoirError):
            if eps_res == 1.0:
                break
            eps_res = min(eps_res * 2, 1.0)
    rep.note("reservoir disabled (no eps up to 1 produced a valid set)")
    return frozenset()


def path_cover(g: Graph, cfg: PipelineConfig) -> tuple[PathCover, RunReport]:
    """At most floor(1/c) vertex-disjoint paths covering all but alpha*n
    vertices of a ceil(c*n)-regular graph (success case; shortfalls are
    reported, never hidden).
    """
    return _path_stage(g, cfg, paths_limit(cfg.c), None)


def path_cover_bipartite(g: Graph, cfg: PipelineConfig) -> tuple[PathCover, RunReport]:
    """Bipartite version: at most floor(1/(2c)) paths; connections only use
    reservoir vertices on the Y side against path ends on the X side.
    """
    if g.bipartition is None:
        raise ValueError("graph has no bipartition")
    x, y = g.bipartition
    if len(x) != len(y):
        raise ValueError("regular bipartite graphs must have balanced sides")
    return _path_stage(g, cfg, paths_limit_bipartite(cfg.c), (mask_of(x), mask_of(y)))


def _path_stage(
    g: Graph,
    cfg: PipelineConfig,
    limit: int,
    sides: Optional[tuple[int, int]],
) -> tuple[PathCover, RunReport]:
    """The path stage of both covers. `sides` is None for general graphs and
    (xmask, ymask) for bipartite ones; it sets the connector policy of
    `connect_paths` and balances the working sides."""
    n = g.n
    k = g.regular_degree()
    expected = degree_from_ratio(n, cfg.c)
    if k != expected:
        raise ValueError(
            f"graph is {k}-regular but cfg.c={cfg.c} implies ceil(c*n)={expected}"
        )
    alpha_cap = int(_dec(cfg.alpha) * n)
    # cap eps so that (limit + 1) * c' >= 1 + 3 eps, with c' = c or 2c
    c_eff = cfg.c if sides is None else 2 * cfg.c
    thm_eps = min(cfg.eps, ((limit + 1) * c_eff - 1) / 3)
    rep = RunReport(n=n)
    r = _reservoir_relaxed(g, cfg, max(thm_eps, 1e-12), rep)
    rest = sorted(set(range(n)) - r)
    if sides is not None:
        # an alternating path covers at most 2*min(|X'|,|Y'|)+1 vertices, so
        # hold out the excess side (lowest ids); held-out vertices stay
        # absorbable but never serve as connectors
        xs = [v for v in rest if (sides[0] >> v) & 1]
        ys = [v for v in rest if (sides[1] >> v) & 1]
        drop = abs(len(xs) - len(ys))
        if drop:
            src = xs if len(xs) > len(ys) else ys
            del src[:drop]
            rest = sorted(xs + ys)
            rep.note(f"held out {drop} vertices to balance the working sides")
    cycset, crep = _cycle_stage(g, rest, cfg.with_alpha(cfg.alpha / 2), strict_window=False)
    # the cycle stage's diagnostics, on the whole graph; _connect_absorb audits the cover
    rep = replace(
        crep, n=n, notes=rep.notes + crep.notes, reservoir_size=len(r), reservoir_vertices=r
    )
    paths = [cycle_to_path(c) for c in cycset.cycles]
    if not paths:
        paths = _strip(g, longest_path, rest, (mix64(cfg.seed, 2), 0x57A1), 3 * (limit + 1))
        rep.method = "greedy-fallback"
    cover = _connect_absorb(g, paths, r, limit, alpha_cap, rep, sides)

    # labeled fallback: strip paths directly with a fresh seed, then the same
    # connection loop; the better result wins
    if not rep.success:
        fb_rep = RunReport(n=n, method="greedy-fallback", reservoir_size=len(r), reservoir_vertices=r)
        fb_paths = _strip(g, longest_path, rest, (mix64(cfg.seed, 3, 0), 0x57A1), 3 * (limit + 1))
        fb_cover = _connect_absorb(g, fb_paths, r, limit, alpha_cap, fb_rep, sides)
        if _better(fb_rep, fb_cover, rep, cover):
            fb_rep.notes = rep.notes + fb_rep.notes
            cover, rep = fb_cover, fb_rep
    return cover, rep


def _connect_absorb(
    g: Graph,
    paths: list[Path],
    r: frozenset[int],
    limit: int,
    alpha_cap: int,
    rep: RunReport,
    sides: Optional[tuple[int, int]],
) -> PathCover:
    """Connect, join and absorb until a round changes nothing (at most 4
    rounds), then audit the cover into `rep`: success is `verify_cover` with
    at most `limit` paths and at most `alpha_cap` uncovered vertices."""
    rset = r
    for _ in range(4):
        before = (len(paths), _covered_count(paths))
        paths, rset, merges = connect_paths(g, paths, rset, limit, sides)
        rep.connections += len(merges)
        rep.merges.extend(merges)
        # each merge adds its connector and each trim removes one end vertex
        rep.trimmed += before[1] + len(merges) - _covered_count(paths)
        paths, joins = _concat_paths(g, paths, limit)
        rep.direct_joins += joins
        free = set(range(g.n)) - _covered_vertices(paths)
        paths, absorbed = _absorb(g, paths, free)
        rep.absorbed += absorbed
        rset = rset - _covered_vertices(paths)  # absorbed reservoir is no longer free
        if (len(paths), _covered_count(paths)) == before:
            break
    rep.reservoir_spent = rep.connections
    cover = PathCover(paths, frozenset(range(g.n)) - _covered_vertices(paths))
    _record_audit(rep, verify_cover(g, cover, limit, alpha_cap))
    return cover


def _covered_vertices(units: Sequence[Union[Path, Cycle]]) -> set[int]:
    out: set[int] = set()
    for u in units:
        out |= set(u.vertices)
    return out


def _covered_count(units: Sequence[Union[Path, Cycle]]) -> int:
    """Covered vertices of disjoint paths or cycles."""
    return sum(len(u) for u in units)


def _better(rep_a: RunReport, cov_a: PathCover, rep_b: RunReport, cov_b: PathCover) -> bool:
    """Is result A strictly better than B? (success, then coverage, then count)"""
    key_a = (not rep_a.success, len(cov_a.uncovered), len(cov_a.paths))
    key_b = (not rep_b.success, len(cov_b.uncovered), len(cov_b.paths))
    return key_a < key_b


# ----------------------------------------------------------------- cover audit


def verify_cover(
    g: Graph,
    cover: Union[PathCover, CycleSet],
    max_count: Optional[int] = None,
    max_uncovered: Optional[int] = None,
) -> CoverCheck:
    """Itemized structural audit of a path or cycle cover, in one pass over
    its units. Each structural item reports its first failure in unit order;
    an id outside 0..n-1 is a non-edge. The covers' `rep.success` is this
    audit's verdict at their caps."""
    closed = isinstance(cover, CycleSet)
    units: Sequence = cover.cycles if closed else cover.paths
    n, adj = g.n, g._adj
    covered: set[int] = set()  # the vertices of the units scanned so far
    bad_edge = repeat = shared = None
    for u_idx, unit in enumerate(units):
        vs = unit.vertices
        if bad_edge is None:
            ids = [operator.index(v) for v in vs]
            in_range = 0 <= min(ids) and max(ids) < n  # else each edge tests its own ends
            for a, b in zip(ids, ids[1:] + ids[:1]) if closed else zip(ids, ids[1:]):
                if not ((in_range or 0 <= a < n and 0 <= b < n) and (adj[a] >> b) & 1):
                    bad_edge = (u_idx, a, b)
                    break
        if repeat is None and len(set(vs)) != len(vs):
            repeat = u_idx
        # a repeat inside one unit is reported by distinct-vertices
        if shared is None and not covered.isdisjoint(vs):
            v = next(v for v in vs if v in covered)
            shared = (v, next(i for i in range(u_idx) if v in units[i].vertices), u_idx)
        covered.update(vs)
    declared = set(cover.uncovered)
    consistent = (covered | declared == set(range(n))) and not (covered & declared)
    items = [
        CheckItem(
            "adjacency",
            bad_edge is None,
            "" if bad_edge is None else f"unit {bad_edge[0]} uses non-edge ({bad_edge[1]},{bad_edge[2]})",
        ),
        CheckItem(
            "distinct-vertices",
            repeat is None,
            "" if repeat is None else f"unit {repeat} repeats a vertex",
        ),
        CheckItem(
            "disjoint",
            shared is None,
            "" if shared is None else f"vertex {shared[0]} shared by units {shared[1]} and {shared[2]}",
        ),
        CheckItem(
            "uncovered-consistent",
            consistent,
            "" if consistent else "declared uncovered set does not complement the cover",
        ),
    ]
    if max_count is not None:
        items.append(CheckItem("count", len(units) <= max_count, f"{len(units)} units vs limit {max_count}"))
    if max_uncovered is not None:
        items.append(
            CheckItem(
                "uncovered",
                len(declared) <= max_uncovered,
                f"{len(declared)} uncovered vs limit {max_uncovered}",
            )
        )
    return CoverCheck(items, len(units), len(covered), len(declared))


def _record_audit(rep: RunReport, check: CoverCheck) -> None:
    """Copy the audit's counts and verdict into `rep`: `rep.success` is `check.ok`."""
    rep.final_count, rep.covered, rep.uncovered = check.count, check.covered, check.uncovered
    rep.success = check.ok
