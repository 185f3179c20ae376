#!/usr/bin/env python3
"""One sha256 over the outputs a behaviour-preserving change must keep.

Hashes, for every input of a fixed grid, the run report (`to_kv_text`), the
cover file and the merge log of `path_cover` (general graphs) or
`path_cover_bipartite` (bipartite graphs), with gamma at its default and at
0.25. For every graph it also hashes the regularity layer: the clusters of
`equitable_partition(g, 4)`, the cluster-graph edges at the chain's d, and
the `is_eps_regular` verdict and witness of each cluster pair at the chain's
eps and at 0.2. Run it on two commits and compare the printed line:

    python scripts/identity_digest.py
    python scripts/identity_digest.py --lines   # also one line per input

With --lines it first prints, per input, one `family n c seed graph sha256`
line (the sha256 of `write_graph(g)`), one `family n c seed gamma sha256`
line per cover and one `family n c seed regularity sha256` line, so that two
commits' outputs can be diffed to name the graphs and the covers that moved.
The graph lines are not part of the summary hash.

    python scripts/identity_digest.py --bench-cells

prints instead one `cell sha256` line per `scripts/bench_stages.py` cell
with n <= 2400, the digest of its cover, run report and merge log: the
lines `tests/golden/bench_cell_covers.txt` pins.

Grid: both random families at n in {40, 80, 120, 200, 300} with c in
{0.1, 0.2, 0.3, 0.45, 0.6} (bipartite: {0.1, 0.15, 0.3, 0.45}) and seeds
0-3, plus unions of cliques and of bicliques (six K_{20,20} among them) at
seeds 0-1: 404 covers. It takes about 5 s on a 2-CPU machine.
"""

import argparse
import hashlib
import sys
from pathlib import Path

from pathcover.generators import GenSpec, degree_from_ratio, generate
from pathcover.graph import write_graph
from pathcover.pipeline import PipelineConfig, path_cover, path_cover_bipartite
from pathcover.regularity import build_cluster_graph, equitable_partition, is_eps_regular

sys.path.insert(0, str(Path(__file__).parent))
from bench_stages import CELLS, cover_lines, cover_text  # noqa: E402  (beside this script)

ORDERS = (40, 80, 120, 200, 300)
EXTREMAL = [
    ("disjoint-cliques", n, k)
    for n, k in ((120, 19), (120, 29), (240, 59), (240, 239), (300, 59))
] + [
    ("disjoint-bicliques", n, k)
    for n, k in ((80, 10), (120, 20), (120, 30), (240, 20), (240, 60), (240, 120))
]


def _inputs():
    """(family, n, c, seed) for every graph of the grid."""
    for family, cs in (
        ("random-regular", (0.1, 0.2, 0.3, 0.45, 0.6)),
        ("random-bipartite-regular", (0.1, 0.15, 0.3, 0.45)),
    ):
        for n in ORDERS:
            for c in cs:
                for seed in range(4):
                    yield family, n, c, seed
    for family, n, k in EXTREMAL:
        c = (k * 10**9 // n) / 10**9  # the largest 9-decimal c with ceil(c*n) = k
        assert degree_from_ratio(n, c) == k
        for seed in range(2):
            yield family, n, c, seed


def _regularity_text(g, cfg, seed: int) -> str:
    part = equitable_partition(g, 4, seed=seed)
    lines = [" ".join(",".join(map(str, sorted(cl))) for cl in part.clusters)]
    lines.append(repr(sorted(build_cluster_graph(g, part, cfg.d).edges.items())))
    for eps in (cfg.eps, 0.2):
        for i in range(part.t):
            for j in range(i + 1, part.t):
                v = is_eps_regular(g, part.clusters[i], part.clusters[j], eps)
                w = v.witness
                lines.append(
                    f"{v.regular} {v.mode} "
                    + ("-" if w is None else f"{sorted(w.x)} {sorted(w.y)} {w.deviation}")
                )
    return "\n".join(lines) + "\n"


def main(argv=()) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--lines", action="store_true", help="also print one digest line per graph, per cover and per regularity layer"
    )
    ap.add_argument(
        "--bench-cells", action="store_true", help="print one cover digest per bench_stages cell with n <= 2400 instead"
    )
    args = ap.parse_args(argv)
    if args.bench_cells:
        print("\n".join(cover_lines(name for name, cell in CELLS.items() if cell.n <= 2400)))
        return 0
    total = hashlib.sha256()
    count = 0

    def line(head: str, text: str) -> None:
        if args.lines:
            print(head, hashlib.sha256(text.encode()).hexdigest())

    for family, n, c, seed in _inputs():
        g = generate(GenSpec(n, degree_from_ratio(n, c), family, seed))
        if args.lines:
            line(f"{family} {n} {c} {seed} graph", write_graph(g))
        cover_fn = path_cover if g.bipartition is None else path_cover_bipartite
        for gamma in (None, 0.25):
            cfg = PipelineConfig.derive(c, 0.1, gamma=gamma, seed=seed)
            try:
                cover, rep = cover_fn(g, cfg)
                text = cover_text(cover, rep)
            except ValueError as exc:
                text = f"{type(exc).__name__}: {exc}\n"
            head = f"{family} {n} {c} {seed} {gamma}"
            total.update(f"{head}\n{text}".encode())
            line(head, text)
            count += 1
        text = _regularity_text(g, PipelineConfig.derive(c, 0.1, seed=seed), seed)
        total.update(text.encode())
        line(f"{family} {n} {c} {seed} regularity", text)
    print(f"covers={count} sha256={total.hexdigest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
