"""Acceptance suite: one test per numbered criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s` to see them).

Exact criteria run at exact tolerances; the covering criteria are empirical
success-rate gates over seeded instance sweeps, with structural audits that
must hold on every emitted cover no matter which route produced it.
"""

import random
import time
from fractions import Fraction

import networkx as nx
import pytest

from pathcover.generators import (
    GenSpec,
    degree_from_ratio,
    extremal_family,
    random_bipartite_regular,
    random_regular,
)
from pathcover.graph import Graph, density
from pathcover.hamilton import hamiltonian_path, spanning_cycle_bipartite
from pathcover.matching import fractional_matching, max_deficiency
from pathcover.oracle import (
    binomial_tail_exact,
    cube_graph,
    independence_number,
    min_path_cover_exact,
    petersen_graph,
)
from pathcover.pipeline import (
    PipelineConfig,
    chernoff_lower,
    chernoff_upper,
    path_cover,
    path_cover_bipartite,
    paths_limit,
    paths_limit_bipartite,
    reservoir,
    verify_cover,
)
from pathcover.regularity import is_eps_regular
from pathcover.cli import main as cli_main


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def complete(n):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


# ---------------------------------------------------------- criteria 1 and 2


@pytest.fixture(scope="module")
def berge_tutte_sweep():
    t0 = time.time()
    instances = []
    for n in range(1, 6):  # every labeled graph on up to 5 vertices
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for mask in range(1 << len(pairs)):
            instances.append(
                Graph(n, [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1])
            )
    # all isomorphism classes on 6 and 7 vertices; both quantities are
    # label-invariant, so the classes cover every graph of those orders
    for ag in nx.graph_atlas_g()[1:]:
        if 6 <= ag.number_of_nodes() <= 7:
            instances.append(Graph(ag.number_of_nodes(), list(ag.edges())))
    rng = random.Random(20260810)
    for _ in range(500):
        n = rng.randrange(8, 13)
        p = rng.uniform(0.1, 0.9)
        instances.append(
            Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        )
    equality_failures = 0
    audit_failures = 0
    for g in instances:
        m = fractional_matching(g)
        d, _ = max_deficiency(g)
        if m.value != Fraction(g.n - d, 2):
            equality_failures += 1
        try:
            m.validate(g)
        except ValueError:
            audit_failures += 1
    return {
        "count": len(instances),
        "equality_failures": equality_failures,
        "audit_failures": audit_failures,
        "elapsed": time.time() - t0,
    }


def test_criterion_1_fractional_berge_tutte(berge_tutte_sweep):
    s = berge_tutte_sweep
    ok = s["equality_failures"] == 0 and s["elapsed"] < 120
    report(
        1,
        ok,
        f"matching value equals (n - deficiency)/2 on {s['count']} graphs "
        f"(exhaustive through 7 vertices + 500 random), {s['elapsed']:.1f}s",
    )


def test_criterion_2_half_integrality(berge_tutte_sweep):
    s = berge_tutte_sweep
    report(
        2,
        s["audit_failures"] == 0,
        f"all {s['count']} matchings have weights in {{0,1/2,1}}, loads <= 1, "
        f"support = edges + odd cycles",
    )


# ----------------------------------------------------------------- criterion 3


def test_criterion_3_chernoff_domination():
    t0 = time.time()
    violations = 0
    checked = 0
    for np_ in range(1, 26):
        for dec in range(1, 10):
            zeta = Fraction(dec, 10)
            mean = np_ * zeta
            for x in range(1, np_ + 1):
                up = binomial_tail_exact(np_, zeta, mean + x, "ge")
                lo = binomial_tail_exact(np_, zeta, mean - x, "le")
                checked += 2
                if up > Fraction(chernoff_upper(np_, dec / 10, x)):
                    violations += 1
                if lo > Fraction(chernoff_lower(np_, dec / 10, x)):
                    violations += 1
    elapsed = time.time() - t0
    report(
        3,
        violations == 0 and elapsed < 10,
        f"exact tails below both exponential bounds on {checked} grid points, "
        f"{elapsed:.1f}s",
    )


# ----------------------------------------------------------------- criterion 4


def test_criterion_4_tight_families():
    t0 = time.time()
    cliques = extremal_family(GenSpec(8, 3, "disjoint-cliques"))
    bicliques = extremal_family(GenSpec(12, 3, "disjoint-bicliques"))
    c1 = min_path_cover_exact(cliques).cover_number
    c2 = min_path_cover_exact(bicliques).cover_number
    elapsed = time.time() - t0
    report(
        4,
        c1 == 2 == 8 // 4 and c2 == 2 == 12 // 6 and elapsed < 5,
        f"two disjoint K_4 need {c1} paths (= n/(k+1)), two disjoint K_3,3 "
        f"need {c2} (= n/(2k)), {elapsed:.1f}s",
    )


# ---------------------------------------------------------- criteria 5 and 6


@pytest.fixture(scope="module")
def conjecture_instances():
    t0 = time.time()
    named = [
        petersen_graph(),
        cube_graph(),
        complete(4),
        Graph(6, [(i, 3 + j) for i in range(3) for j in range(3)]),
    ]
    instances = []
    for n in (8, 10):
        for i in range(100):
            instances.append(
                random_regular(GenSpec(n, 3, "random-regular", seed=1000 * n + i))
            )
    instances.extend(named)
    results = []
    for g in instances:
        k = g.regular_degree()
        results.append((g, min_path_cover_exact(g).cover_number, k))
    return {"results": results, "elapsed": time.time() - t0}


def test_criterion_5_conjecture_spot_check(conjecture_instances):
    data = conjecture_instances
    violations = [
        (g, cover)
        for g, cover, k in data["results"]
        if cover > -((-g.n) // (k + 1))
    ]
    ok = not violations and data["elapsed"] < 120
    report(
        5,
        ok,
        f"path cover number <= ceil(n/(k+1)) on {len(data['results'])} instances "
        f"(200 random cubic + named graphs), {data['elapsed']:.1f}s",
    )


def test_criterion_6_endpoint_independence_bound(conjecture_instances):
    bad = 0
    for g, cover, _ in conjecture_instances["results"]:
        if cover > independence_number(g):
            bad += 1
    report(
        6,
        bad == 0,
        f"cover number <= independence number on all "
        f"{len(conjecture_instances['results'])} instances",
    )


# ----------------------------------------------------------------- criterion 7


def test_criterion_7_reservoir_lemma():
    import math

    t0 = time.time()
    n = 500
    g = complete(n)
    k = n - 1
    gamma, eps = 0.1, 0.2
    successes = 0
    window_failures = 0
    for seed in range(100):
        try:
            r = reservoir(g, gamma, eps, seed=seed)
        except Exception:
            continue
        successes += 1
        if not (1 - eps) * gamma * n < len(r) < (1 + eps) * gamma * n:
            window_failures += 1
        rset = set(r)
        for v in range(n):
            deg = len(r) - 1 if v in rset else len(r)  # complete graph degrees
            if not (1 - eps) * gamma * k < deg < (1 + eps) * gamma * k:
                window_failures += 1
                break
    # union-bound failure estimate per attempt from the exponential tail
    # bounds: (2n+2) e^{-eps^2 c gamma n / 3}; vacuous (>1) at this scale, so
    # the observed acceptance rate trivially beats it
    per_attempt_bound = min(1.0, (2 * n + 2) * math.exp(-(eps**2) * (k / n) * gamma * n / 3))
    observed_failure = 1 - successes / 100
    elapsed = time.time() - t0
    report(
        7,
        successes >= 99 and window_failures == 0 and elapsed < 60
        and observed_failure <= per_attempt_bound,
        f"{successes}/100 reservoirs accepted within 50 attempts, "
        f"{window_failures} window violations; attempt-failure bound "
        f"{per_attempt_bound:.3g}; {elapsed:.1f}s",
    )


# ----------------------------------------------------------------- criterion 8


def test_criterion_8_path_cover_general():
    t0 = time.time()
    seeds = range(50)
    cell_results = []
    structural_failures = 0
    for c in (0.3, 0.45, 0.6):
        for n in (200, 600):
            k = degree_from_ratio(n, c)
            limit = paths_limit(c)
            cap = n // 10
            ok = 0
            for seed in seeds:
                g = random_regular(GenSpec(n, k, "random-regular", seed=seed))
                cover, rep = path_cover(g, PipelineConfig.derive(c, 0.1, seed=seed))
                if not verify_cover(g, cover).ok:
                    structural_failures += 1
                if verify_cover(g, cover, max_count=limit, max_uncovered=cap).ok:
                    ok += 1
            cell_results.append((c, n, ok))
    elapsed = time.time() - t0
    rates = ", ".join(f"c={c} n={n}: {ok}/50" for c, n, ok in cell_results)
    all_cells_ok = all(ok >= 45 for _, _, ok in cell_results)
    report(
        8,
        all_cells_ok and structural_failures == 0 and elapsed < 900,
        f"{rates}; structural failures {structural_failures}; {elapsed:.0f}s",
    )


# ----------------------------------------------------------------- criterion 9


def test_criterion_9_path_cover_bipartite():
    t0 = time.time()
    n = 600
    cell_results = []
    structural_failures = 0
    audit_failures = 0
    for c in (0.3, 0.45):
        k = degree_from_ratio(n, c)
        limit = paths_limit_bipartite(c)
        ok = 0
        for seed in range(50):
            g = random_bipartite_regular(
                GenSpec(n, k, "random-bipartite-regular", seed=seed)
            )
            cover, rep = path_cover_bipartite(
                g, PipelineConfig.derive(c, 0.1, seed=seed)
            )
            if not verify_cover(g, cover).ok:
                structural_failures += 1
            _, y = g.bipartition
            for (_, _, w) in rep.merges:
                if w not in rep.reservoir_vertices or w not in y:
                    audit_failures += 1
            if verify_cover(g, cover, max_count=limit, max_uncovered=60).ok:
                ok += 1
        cell_results.append((c, ok))
    elapsed = time.time() - t0
    rates = ", ".join(f"c={c}: {ok}/50" for c, ok in cell_results)
    report(
        9,
        all(ok >= 45 for _, ok in cell_results)
        and structural_failures == 0
        and audit_failures == 0
        and elapsed < 600,
        f"{rates}; every connection through the reservoir's Y side "
        f"({audit_failures} audit failures); {elapsed:.0f}s",
    )


# ---------------------------------------------------------------- criterion 10


def test_criterion_10_dirac_regime():
    t0 = time.time()
    rng = random.Random(77)
    failures = 0
    for trial in range(20):
        n = rng.randrange(4, 15)
        edges = {
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.6
        }
        g = Graph(n, edges)
        low = [v for v in range(n) if g.degree(v) < (n + 1) // 2]
        while low:
            v = low[0]
            u = next(u for u in range(n) if u != v and not g.adjacent(u, v))
            edges.add((min(u, v), max(u, v)))
            g = Graph(n, edges)
            low = [v for v in range(n) if g.degree(v) < (n + 1) // 2]
        res = hamiltonian_path(g, seed=trial)
        if not res.ok:
            failures += 1
        else:
            res.path.validate(g)
    elapsed = time.time() - t0
    report(
        10,
        failures == 0 and elapsed < 60,
        f"spanning path found on all 20 min-degree >= n/2 instances, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------- criterion 11


def test_criterion_11_spanning_cycles():
    t0 = time.time()
    complete_failures = 0
    for size in range(2, 51):
        g = Graph(2 * size, [(i, size + j) for i in range(size) for j in range(size)])
        res = spanning_cycle_bipartite(g, range(size), range(size, 2 * size), seed=size)
        if not (res.ok and len(res.cycle) == 2 * size):
            complete_failures += 1
            continue
        res.cycle.validate(g)
    successes = 0
    for seed in range(20):
        rng = random.Random(9000 + seed)
        size = 50
        edges = [
            (i, size + j)
            for i in range(size)
            for j in range(size)
            if rng.random() < 0.5
        ]
        g = Graph(2 * size, edges)
        res = spanning_cycle_bipartite(g, range(size), range(size, 2 * size), seed=seed)
        if res.ok and len(res.cycle) == 2 * size:
            res.cycle.validate(g)
            vs = res.cycle.vertices
            sides = [int(v >= size) for v in vs]
            assert all(sides[i] != sides[(i + 1) % len(vs)] for i in range(len(vs)))
            successes += 1
    elapsed = time.time() - t0
    report(
        11,
        complete_failures == 0 and successes >= 19,
        f"complete pairs up to 50 per side always embed; random density-0.5 "
        f"pairs {successes}/20; alternation audited; {elapsed:.1f}s",
    )


# ---------------------------------------------------------------- criterion 12


def test_criterion_12_regularity_soundness():
    t0 = time.time()

    def complete_pair(side):
        return Graph(2 * side, [(i, side + j) for i in range(side) for j in range(side)])

    def half_pair(side):
        return Graph(
            2 * side,
            [(i, side + j) for i in range(side) for j in range(side) if i <= j],
        )

    def random_pair(side, p, seed):
        rng = random.Random(seed)
        return Graph(
            2 * side,
            [
                (i, side + j)
                for i in range(side)
                for j in range(side)
                if rng.random() < p
            ],
        )

    def planted_pair(side):
        # dense block inside a sparse pair: clearly irregular at scale
        edges = []
        rng = random.Random(5)
        for i in range(side):
            for j in range(side):
                p = 0.9 if (i < side // 3 and j < side // 3) else 0.1
                if rng.random() < p:
                    edges.append((i, side + j))
        return Graph(2 * side, edges)

    corpus = []
    for side in (6, 8):
        corpus.append((complete_pair(side), side))
        corpus.append((half_pair(side), side))
        corpus.append((Graph(2 * side, []), side))
    for side in (30, 40):
        corpus.append((half_pair(side), side))
        corpus.append((random_pair(side, 0.3, side), side))
        corpus.append((random_pair(side, 0.5, side + 1), side))
        corpus.append((planted_pair(side), side))

    invalid_witnesses = 0
    must_be_regular_failures = 0
    verdicts = 0
    for eps in (Fraction(1, 10), Fraction(3, 10), Fraction(1, 2)):
        for g, side in corpus:
            a, b = frozenset(range(side)), frozenset(range(side, 2 * side))
            v = is_eps_regular(g, a, b, eps)
            verdicts += 1
            if not v.regular:
                w = v.witness
                size_ok = (
                    len(w.x) * eps.denominator > eps.numerator * side
                    and len(w.y) * eps.denominator > eps.numerator * side
                )
                dev = abs(density(g, w.x, w.y) - density(g, a, b))
                if not (size_ok and dev >= eps and dev == w.deviation):
                    invalid_witnesses += 1
            if g.m in (0, side * side) and not v.regular:
                must_be_regular_failures += 1
    elapsed = time.time() - t0
    report(
        12,
        invalid_witnesses == 0 and must_be_regular_failures == 0,
        f"{verdicts} verdicts; every irregularity witness re-validates exactly; "
        f"complete and empty pairs regular at eps in {{0.1, 0.3, 0.5}}; {elapsed:.1f}s",
    )


# ---------------------------------------------------------------- criterion 13


def test_criterion_13_bench_determinism(tmp_path, capsys):
    outputs = []
    for threads in ("1", "4", "1"):
        path = tmp_path / f"bench_{threads}_{len(outputs)}.csv"
        code = cli_main(
            [
                "bench",
                "--c", "0.45,0.6",
                "--n", "60",
                "--seeds", "0..4",
                "--timing", "none",
                "--threads", threads,
                "-o", str(path),
            ]
        )
        assert code == 0
        outputs.append(path.read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2]
    report(
        13,
        ok,
        "bench CSV byte-identical across two runs and thread counts {1, 4}",
    )
