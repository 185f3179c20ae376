"""Byte-for-byte regression against outputs checked in under tests/golden/.

Refactors of the pipeline must not change what it emits: the bench CSV with
`--timing none`, the run report and the cover itself. The bench CSV pins only
`method,paths,uncovered`, which a different graph can reproduce, so the
generated graphs are pinned too: by the sha256 of their edge-list text, and
the benchmark's larger graphs by the sha256 of their packed adjacency rows.
The line of `scripts/identity_digest.py` pins its wider grid of covers. A
deliberate behaviour change regenerates these files in the same commit and
says why.
"""

import hashlib
import importlib.util
import random
from pathlib import Path as FsPath

import pytest

from pathcover._bits import mix64
from pathcover.cli import main, write_cover_file
from pathcover.generators import GenSpec, degree_from_ratio, extremal_family, generate
from pathcover.graph import Graph, read_graph, write_graph
from pathcover.hamilton import (
    hamiltonian_path,
    longest_cycle,
    longest_path,
    spanning_cycle_bipartite,
)
from pathcover.pipeline import PipelineConfig, RunReport, _reservoir_relaxed, path_cover, path_cover_bipartite
from pathcover.regularity import equitable_partition, is_eps_regular

GOLDEN = FsPath(__file__).parent / "golden"
SCRIPTS = FsPath(__file__).parents[1] / "scripts"

# c = 0.6 (general) and c = 0.3, 0.45 (bipartite) take the complement branch
GRAPH_CASES = (
    [
        ("random-regular", n, degree_from_ratio(n, c), seed)
        for n in (120, 600)
        for c in (0.3, 0.45, 0.6)
        for seed in (0, 1)
    ]
    + [
        ("random-bipartite-regular", n, degree_from_ratio(n, c), seed)
        for n in (120, 600)
        for c in (0.15, 0.3, 0.45)
        for seed in (0, 1)
    ]
    + [
        ("disjoint-cliques", 120, 29, 0),
        ("disjoint-cliques", 125, 29, 0),  # last block enlarged to K_35
        ("disjoint-bicliques", 120, 20, 0),
        ("disjoint-bicliques", 120, 30, 0),
    ]
)


def _graph_digests() -> dict[tuple[str, int, int, int], str]:
    out = {}
    for line in (GOLDEN / "graph_digests.txt").read_text().splitlines():
        if line and not line.startswith("#"):
            family, n, k, seed, digest = line.split()
            out[(family, int(n), int(k), int(seed))] = digest
    return out


@pytest.mark.parametrize("family, n, k, seed", GRAPH_CASES)
def test_generated_graph_matches_golden(family, n, k, seed):
    text = write_graph(generate(GenSpec(n, k, family, seed)))
    assert hashlib.sha256(text.encode()).hexdigest() == _graph_digests()[(family, n, k, seed)]


def _bench_graph_digests() -> dict[tuple[str, int, int, int], str]:
    out = {}
    for line in (GOLDEN / "bench_graph_digests.txt").read_text().splitlines():
        if line and not line.startswith("#"):
            family, n, k, seed, digest = line.split()
            out[(family, int(n), int(k), int(seed))] = digest
    return out


def test_benchmark_graphs_match_golden():
    # the graphs perfbench's regular-2400 and structured workloads cover; at
    # n=2400, c=0.3 seed 1 and c=0.45 switch stubs in and c=0.6 takes the
    # complement branch. Hashed from the masks: write_graph would dominate the test's time
    digests = _bench_graph_digests()
    assert len(digests) == 8
    for (family, n, k, seed), digest in digests.items():
        g = generate(GenSpec(n, k, family, seed))
        rows = b"".join(a.to_bytes((n + 7) // 8, "little") for a in g._adj)
        assert hashlib.sha256(rows).hexdigest() == digest, (family, n, k, seed)


@pytest.mark.parametrize(
    "name, family_args",
    [
        ("bench_random_regular_n120.csv", ["--c", "0.3,0.45,0.6"]),
        ("bench_random_bipartite_n120.csv", ["--bipartite", "--c", "0.15,0.3,0.45"]),
    ],
)
def test_bench_csv_matches_golden(name, family_args, capsys):
    code = main(
        ["bench", *family_args, "--n", "120", "--seeds", "0..3", "--timing", "none", "--threads", "1"]
    )
    assert code == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text()


def test_path_cover_complete_graph_matches_golden():
    # the regularity route completes here and the reservoir makes 3 connections
    n = 240
    g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
    cover, rep = path_cover(g, PipelineConfig.derive(0.995833333, 0.1, seed=0))
    assert rep.connections == 3
    text = rep.to_kv_text() + write_cover_file(cover)
    assert text == (GOLDEN / "path_cover_k240.txt").read_text()


def test_path_cover_bipartite_bicliques_matches_golden():
    # four disjoint K_{10,10}; the enlarged reservoir makes one Y-side connection
    g = extremal_family(GenSpec(80, 10, "disjoint-bicliques"))
    cover, rep = path_cover_bipartite(g, PipelineConfig.derive(0.125, 0.1, gamma=0.25, seed=1))
    assert rep.connections == 1
    text = rep.to_kv_text() + write_cover_file(cover)
    assert text == (GOLDEN / "path_cover_bipartite_bicliques80.txt").read_text()


def test_path_cover_bipartite_fallback_loop_matches_golden():
    # six disjoint K_{20,20}: the first pass misses the path limit, and the
    # first fallback attempt of the path stage (a fresh path strip) wins
    g = extremal_family(GenSpec(240, 20, "disjoint-bicliques"))
    cover, rep = path_cover_bipartite(g, PipelineConfig.derive(0.083333333, 0.1, seed=0))
    assert rep.success
    text = rep.to_kv_text() + write_cover_file(cover)
    assert text == (GOLDEN / "path_cover_bipartite_bicliques240.txt").read_text()


def _fallback_attempts_text() -> str:
    """Covers of bipartite-regular graphs with gamma=0.25 on which the first
    pass and the first fallback attempt of the path stage leave vertices
    uncovered, and a later attempt (the third for seed 5013) covers every
    vertex with one path. The graphs are stored as edge lists, each under an
    `== n k c seed` line giving its config, so the pins outlive the generator
    that drew them."""
    text = ""
    for block in (GOLDEN / "path_cover_bipartite_fallback_graphs.txt").read_text().split("== ")[1:]:
        head, graph_text = block.split("\n", 1)
        fields = dict(field.split("=") for field in head.split())
        cfg = PipelineConfig.derive(float(fields["c"]), 0.1, gamma=0.25, seed=int(fields["seed"]))
        cover, rep = path_cover_bipartite(read_graph(graph_text), cfg)
        assert rep.success
        text += f"== {head}\n" + rep.to_kv_text() + write_cover_file(cover)
    return text


def test_path_cover_bipartite_later_fallback_attempts_match_golden():
    assert _fallback_attempts_text() == (GOLDEN / "path_cover_bipartite_fallback_attempts.txt").read_text()


# graph name -> (graph, c of its degree); whole clusters take the heuristic
# verdict, every fourth of their first 32 vertices the exact one
REGULARITY_GRAPHS = {
    "random-regular-120": lambda: (generate(GenSpec(120, 36, "random-regular", 0)), 0.3),
    "random-bipartite-regular-120": lambda: (
        generate(GenSpec(120, 18, "random-bipartite-regular", 0)),
        0.3,
    ),
    "k240": lambda: (Graph(240, [(u, v) for u in range(240) for v in range(u + 1, 240)]), 0.995833333),
}


def _vertex_list(vs) -> str:
    return ",".join(map(str, sorted(vs))) if vs else "-"


def _regularity_lines(name: str) -> list[str]:
    g, c = REGULARITY_GRAPHS[name]()
    clusters = equitable_partition(g, 4, seed=0).clusters
    lines = []
    for eps in (PipelineConfig.derive(c, 0.1).eps, 0.2, 0.34):
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                for part in (slice(None), slice(0, 32, 4)):
                    a, b = sorted(clusters[i])[part], sorted(clusters[j])[part]
                    v = is_eps_regular(g, a, b, eps)
                    w = v.witness
                    lines.append(
                        f"{name} eps={eps:.6g} pair={i},{j} sides={len(a)}x{len(b)} "
                        f"regular={v.regular} mode={v.mode} "
                        + (
                            "witness=-"
                            if w is None
                            else f"x={_vertex_list(w.x)} y={_vertex_list(w.y)} deviation={w.deviation}"
                        )
                    )
    return lines


@pytest.mark.parametrize("name", sorted(REGULARITY_GRAPHS))
def test_regularity_verdicts_match_golden(name):
    golden = (GOLDEN / "regularity_verdicts.txt").read_text().splitlines()
    assert _regularity_lines(name) == [line for line in golden if line.startswith(name + " ")]


def _exact_dp_lines() -> list[str]:
    """Spanning paths and alternating spanning cycles found by the exact DP
    (budget 0 skips the heuristic) on seeded random graphs. Bipartite sides
    are random disjoint vertex sets inside a host with up to 3 extra vertices
    and edges inside the sides, which the search must ignore."""
    lines = []
    for i in range(300):
        rng = random.Random(mix64(0xD9, i))
        n = rng.randint(1, 12)
        p = rng.uniform(0.15, 0.75)
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        res = hamiltonian_path(g, budget=0)
        lines.append(
            f"path i={i} n={n} m={g.m} -> "
            + (" ".join(map(str, res.path.vertices)) if res.ok else "none")
        )
    for i in range(200):
        rng = random.Random(mix64(0xDC, i))
        side = rng.randint(2, 7)
        n = 2 * side + rng.randint(0, 3)
        p = rng.uniform(0.3, 0.9)
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        ids = rng.sample(range(n), 2 * side)
        x, y = ids[:side], ids[side:]
        res = spanning_cycle_bipartite(g, x, y, budget=0)
        lines.append(
            f"cycle i={i} n={n} m={g.m} x={_vertex_list(x)} y={_vertex_list(y)} -> "
            + (" ".join(map(str, res.cycle.vertices)) if res.ok else "none")
        )
    return lines


def test_exact_dp_matches_golden():
    golden = (GOLDEN / "exact_dp.txt").read_text().splitlines()
    assert _exact_dp_lines() == [line for line in golden if not line.startswith("#")]


def _vertices(found) -> str:
    return " ".join(map(str, found.vertices)) if found is not None else "none"


def _rotation_search_lines() -> list[str]:
    """What the rotation-extension heuristic returns on hosts above
    EXHAUSTIVE_CAP, at fixed seeds and budgets: random graphs, random
    `within` subsets and bipartite sides, and unions of cliques and of
    bicliques, where an attempt stops once its path spans its start's
    component and the search once a result spans a largest component. Pins
    the search's rng stream."""
    hosts = [
        (f"{family}({n},c={c},seed={seed})", generate(GenSpec(n, degree_from_ratio(n, c), family, seed)))
        for family, n, c, seed in (
            ("random-regular", 60, 0.3, 0),
            ("random-regular", 120, 0.1, 1),
            ("random-regular", 200, 0.45, 2),
            ("random-regular", 300, 0.2, 3),
            ("random-bipartite-regular", 60, 0.15, 0),
            ("random-bipartite-regular", 160, 0.1, 1),
            ("random-bipartite-regular", 240, 0.3, 2),
        )
    ] + [
        ("4xK30", extremal_family(GenSpec(120, 29, "disjoint-cliques"))),
        ("3xK20,20", extremal_family(GenSpec(120, 20, "disjoint-bicliques"))),
    ]
    lines = []
    for i, (name, g) in enumerate(hosts):
        rng = random.Random(mix64(0xE7, i))
        within = sorted(rng.sample(range(g.n), g.n // 3))
        for seed, budget in ((i, 400), (i + 1, 3000)):
            head = f"{name} seed={seed} budget={budget}"
            lines.append(f"{head} longest_cycle -> {_vertices(longest_cycle(g, budget=budget, seed=seed))}")
            lines.append(
                f"{head} longest_cycle within -> "
                + _vertices(longest_cycle(g, within=within, budget=budget, seed=seed))
            )
            lines.append(f"{head} longest_path -> {_vertices(longest_path(g, budget=budget, seed=seed))}")
            lines.append(
                f"{head} longest_path within -> "
                + _vertices(longest_path(g, within=within, budget=budget, seed=seed))
            )
            res = hamiltonian_path(g, budget=budget, seed=seed)
            lines.append(f"{head} hamiltonian_path ok={res.ok} -> {_vertices(res.best)}")
            if g.bipartition is not None:
                x, y = (sorted(side) for side in g.bipartition)
                for label, part in (("", slice(None)), (" within", slice(0, None, 3))):
                    res = spanning_cycle_bipartite(g, x[part], y[part], budget=budget, seed=seed)
                    lines.append(f"{head} spanning_cycle_bipartite{label} ok={res.ok} -> {_vertices(res.best)}")
    return lines


def test_rotation_search_matches_golden():
    golden = (GOLDEN / "rotation_search.txt").read_text().splitlines()
    assert _rotation_search_lines() == [line for line in golden if not line.startswith("#")]


# the path stage's reservoir at benchmark scale; K1200 is the structured
# workload's clique, whose c is 1199/1200 rounded down to 9 decimals
RESERVOIR_CASES = (
    [
        ("random-regular", n, c, seed)
        for n in (600, 1200)
        for c in (0.3, 0.45, 0.6)
        for seed in (0, 1)
    ]
    + [("random-bipartite-regular", 600, c, seed) for c in (0.3, 0.45) for seed in (0, 1)]
    + [("K1200", 1200, 0.999166666, 0)]
)


def _reservoir_relaxed_lines() -> list[str]:
    """The sorted reservoir `_reservoir_relaxed` returns, by sha256, and its
    note. The path stage calls it with eps0 = cfg.eps on every one of these
    inputs, since their theorem caps on eps are larger."""
    lines = []
    for family, n, c, seed in RESERVOIR_CASES:
        if family == "K1200":
            g = extremal_family(GenSpec(n, n - 1, "disjoint-cliques"))
        else:
            g = generate(GenSpec(n, degree_from_ratio(n, c), family, seed))
        cfg = PipelineConfig.derive(c, 0.1, seed=seed)
        rep = RunReport(n=n)
        r = _reservoir_relaxed(g, cfg, cfg.eps, rep)
        digest = hashlib.sha256(",".join(map(str, sorted(r))).encode()).hexdigest()
        lines.append(
            f"{family} n={n} c={c} seed={seed} size={len(r)} sha256={digest} "
            f"notes={'; '.join(rep.notes) or '-'}"
        )
    return lines


def test_reservoir_relaxed_matches_golden():
    golden = (GOLDEN / "reservoir_relaxed.txt").read_text().splitlines()
    assert _reservoir_relaxed_lines() == [line for line in golden if not line.startswith("#")]


def _identity_digest_script():
    spec = importlib.util.spec_from_file_location("identity_digest", SCRIPTS / "identity_digest.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_identity_digest_matches_golden(capsys):
    # one sha256 over 404 covers, their reports and merge logs, and the
    # regularity layer of every graph; the grid is documented in the script
    assert _identity_digest_script().main() == 0
    golden = (GOLDEN / "identity_digest.txt").read_text().splitlines()
    assert capsys.readouterr().out.splitlines() == [line for line in golden if not line.startswith("#")]


def test_identity_digest_lines_name_each_input(capsys, monkeypatch):
    # --lines adds one line per graph, per cover and per regularity layer
    # before the same summary
    script = _identity_digest_script()
    inputs = [("random-regular", 40, 0.3, 0), ("disjoint-cliques", 40, 0.225, 1)]
    monkeypatch.setattr(script, "_inputs", lambda: iter(inputs))
    assert script.main() == 0
    summary = capsys.readouterr().out.splitlines()
    assert script.main(["--lines"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(summary) == 1 and summary[0].startswith("covers=4 sha256=")
    assert lines[-1:] == summary
    heads = [" ".join(map(str, i)) + f" {last}" for i in inputs for last in ("graph", "None", "0.25", "regularity")]
    assert [line.rsplit(" ", 1)[0] for line in lines[:-1]] == heads
    assert all(len(line.rsplit(" ", 1)[1]) == 64 for line in lines[:-1])
    g = generate(GenSpec(40, degree_from_ratio(40, 0.3), "random-regular", 0))
    assert lines[0].rsplit(" ", 1)[1] == hashlib.sha256(write_graph(g).encode()).hexdigest()
