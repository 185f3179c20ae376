#!/usr/bin/env python3
"""Wall time of generate, cover and verify on fixed seeded cells, with the
time of each cover stage, written to one BENCH_<label>.json.

    python scripts/bench_stages.py --label baseline
    python scripts/bench_stages.py --label after --src ../other/src --commit SHA
    python scripts/bench_stages.py --label quick --cells cliques-1200-k1199
    python scripts/bench_stages.py --label parent --src ../parent/src \
        --label change --src src

Cells: random-regular c 0.3/0.45/0.6 and random-bipartite-regular c
0.15/0.3/0.45 at n 600 and 2400; the route cell (random-regular n=2400,
c=0.6, d=0.55, eps=0.09, alpha=0.3, t=4), the one random cell where the
paper's regularity route runs; K1200 (`disjoint-cliques`, n=1200, k=1199),
where it runs under the derived config; and random-regular n=10^4, c=0.3.
Every cell uses seed 0 and, unless it says otherwise, alpha 0.1.

Each cell runs in its own child process, which imports pathcover from --src
(default: this checkout's src). So its peak RSS (`ru_maxrss`) is its own,
and one copy of this script can time another checkout. Given twice, with
one --label (and --commit, if any) per --src, it times two trees cell by
cell: each cell runs once per tree back to back, the tree that goes first
alternating from one cell to the next, so that drift between batches
falls on both trees alike. Each tree gets its own BENCH_<label>.json. It
then prints every cell whose `cover_sha256` differs between the trees, and
exits 1 unless --expect-moved names exactly those cells:

    python scripts/bench_stages.py --label parent --src ../parent/src \
        --label change --src src --expect-moved regular-600-c0.3

A run generates the graph, covers it (`path_cover`, or
`path_cover_bipartite` for the bipartite family) and audits the cover with
`verify_cover` at the paths limit and alpha*n. The stages are timed by
`perf_counter` wrappers on the private `pipeline` names in STAGES, summed
over each cover's calls. Times are given in ms as the median and quartiles
over the RUNS (10) runs of each cell, a length fixed so that every BENCH
file is comparable. Every run of a cell must give the same outcome (method,
paths, uncovered, audit, and `cover_sha256`: the sha256 of the run
report, the cover file and the merge log, built by `cover_text`, which
`scripts/identity_digest.py` hashes too). A full run takes about 1.5
minutes on a 2-CPU machine (twice that for two trees); the n=10^4 cell
peaks near 445 MB.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parents[1]
STAGES = ("_reservoir_relaxed", "_partition_with_counts", "_strip", "_connect_absorb")
RUNS = 10


@dataclass(frozen=True)
class Cell:
    name: str
    family: str
    n: int
    c: float
    alpha: float = 0.1
    overrides: dict = field(default_factory=dict)  # d, eps, gamma, t for PipelineConfig.derive
    seed: int = 0


def _cells() -> dict[str, Cell]:
    cells = [
        Cell(f"{short}-{n}-c{c}", family, n, c)
        for family, short, cs in (
            ("random-regular", "regular", (0.3, 0.45, 0.6)),
            ("random-bipartite-regular", "bipartite", (0.15, 0.3, 0.45)),
        )
        for n in (600, 2400)
        for c in cs
    ]
    cells.append(
        Cell("regular-2400-c0.6-route", "random-regular", 2400, 0.6, 0.3, {"d": 0.55, "eps": 0.09, "t": 4})
    )
    # the largest 9-decimal c with ceil(c*n) = 1199
    cells.append(Cell("cliques-1200-k1199", "disjoint-cliques", 1200, (1199 * 10**9 // 1200) / 10**9))
    cells.append(Cell("regular-10000-c0.3", "random-regular", 10_000, 0.3))
    return {cell.name: cell for cell in cells}


CELLS = _cells()


def _quartiles(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 3), "q1": round(q1, 3), "q3": round(q3, 3)}


def _setup(cell: Cell):
    """(spec, config, cover function, paths limit) of the cell, from the
    pathcover on the path."""
    import pathcover.pipeline as pipeline
    from pathcover.generators import GenSpec, degree_from_ratio

    bipartite = cell.family == "random-bipartite-regular"
    cover_fn = pipeline.path_cover_bipartite if bipartite else pipeline.path_cover
    limit = (pipeline.paths_limit_bipartite if bipartite else pipeline.paths_limit)(cell.c)
    spec = GenSpec(cell.n, degree_from_ratio(cell.n, cell.c), cell.family, cell.seed)
    cfg = pipeline.PipelineConfig.derive(cell.c, cell.alpha, seed=cell.seed, **cell.overrides)
    return spec, cfg, cover_fn, limit


def cover_text(cover, rep) -> str:
    """The run report, the cover file and the merge log of one cover: the
    text that `cover_sha256` and `scripts/identity_digest.py` hash."""
    from pathcover.cli import write_cover_file

    return rep.to_kv_text() + write_cover_file(cover) + f"merges={rep.merges}\n"


def cover_sha256(cover, rep) -> str:
    return hashlib.sha256(cover_text(cover, rep).encode()).hexdigest()


def cover_lines(names) -> list[str]:
    """One `name cover_sha256` line per named cell, from one run each."""
    from pathcover.generators import generate

    lines = []
    for name in names:
        spec, cfg, cover_fn, _ = _setup(CELLS[name])
        lines.append(f"{name} {cover_sha256(*cover_fn(generate(spec), cfg))}")
    return lines


def run_cell(cell: Cell) -> dict:
    """Time RUNS runs of the cell in this process; times in ms."""
    import pathcover.pipeline as pipeline
    from pathcover.generators import generate

    spent = {name: 0.0 for name in STAGES}

    def timed(name, fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[name] += time.perf_counter() - t0

        return wrapper

    for name in STAGES:
        setattr(pipeline, name, timed(name, getattr(pipeline, name)))
    spec, cfg, cover_fn, limit = _setup(cell)
    times: dict[str, list[float]] = {key: [] for key in ("generate", "cover", "verify", *STAGES)}
    outcomes = set()
    for _ in range(RUNS):
        t0 = time.perf_counter()
        g = generate(spec)
        t1 = time.perf_counter()
        for name in STAGES:
            spent[name] = 0.0
        cover, rep = cover_fn(g, cfg)
        t2 = time.perf_counter()
        check = pipeline.verify_cover(g, cover, limit, int(pipeline._dec(cell.alpha) * cell.n))
        t3 = time.perf_counter()
        for key, seconds in (("generate", t1 - t0), ("cover", t2 - t1), ("verify", t3 - t2), *spent.items()):
            times[key].append(seconds * 1000)
        outcomes.add((rep.method, len(cover.paths), len(cover.uncovered), check.ok, cover_sha256(cover, rep)))
    if len(outcomes) != 1:
        raise RuntimeError(f"{cell.name}: runs disagree: {sorted(outcomes)}")
    keys = ("method", "paths", "uncovered", "audit_ok", "cover_sha256")
    return {
        **asdict(cell),
        "k": spec.k,
        "outcome": dict(zip(keys, outcomes.pop())),
        "ms": {key: _quartiles(values) for key, values in times.items() if key not in STAGES},
        "stage_ms": {key: _quartiles(times[key]) for key in STAGES},
        "cover_ms_runs": [round(v, 3) for v in times["cover"]],
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }


def measure(cell: Cell, src: Path) -> dict:
    """`run_cell` in a child process that imports pathcover from `src`."""
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, __file__, "--child", json.dumps(asdict(cell))],
        env=env, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{cell.name}: child exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def _commit(src: Path) -> str:
    proc = subprocess.run(
        ["git", "-C", str(src), "rev-parse", "HEAD"], capture_output=True, text=True, check=False
    )
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", action="append", help="writes BENCH_<label>.json; one per --src")
    ap.add_argument("--src", type=Path, action="append", help="the src directory to time (default: ./src)")
    ap.add_argument("--commit", action="append", help="recorded commit (default: git rev-parse HEAD at --src)")
    ap.add_argument("--cells", help="comma list of cell names (default: all)")
    ap.add_argument("--expect-moved", default="", help="comma list of cells whose covers differ between two trees")
    ap.add_argument("--out-dir", type=Path, default=ROOT)
    ap.add_argument("--child", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        print(json.dumps(run_cell(Cell(**json.loads(args.child)))))
        return 0
    srcs = [src.resolve() for src in args.src or [ROOT / "src"]]
    if not args.label or len(set(args.label)) != len(srcs) or len(srcs) > 2:
        raise SystemExit("give a distinct --label once per --src, for one or two trees")
    if args.commit and len(args.commit) != len(srcs):
        raise SystemExit("give --commit once per --src, or not at all")
    names = args.cells.split(",") if args.cells else list(CELLS)
    expected = set(args.expect_moved.split(",")) - {""}
    if expected and len(srcs) != 2:
        raise SystemExit("--expect-moved needs two trees")
    unknown = [name for name in [*names, *sorted(expected)] if name not in CELLS]
    if unknown:
        raise SystemExit(f"unknown cells: {', '.join(unknown)}; known: {', '.join(CELLS)}")
    args.out_dir.mkdir(parents=True, exist_ok=True)
    docs = [
        {
            "label": label,
            "commit": args.commit[i] if args.commit else _commit(src),
            # --src only puts pathcover on the path, so the children load this numpy
            "machine": {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": numpy.__version__},
            "runs": RUNS,
            "stages": list(STAGES),
            "cells": [],
        }
        for i, (label, src) in enumerate(zip(args.label, srcs))
    ]
    for turn, name in enumerate(names):
        order = range(len(srcs)) if turn % 2 == 0 else reversed(range(len(srcs)))
        for i in order:
            t0 = time.perf_counter()
            docs[i]["cells"].append(measure(CELLS[name], srcs[i]))
            print(f"{name} [{args.label[i]}]: {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    for doc in docs:
        out = args.out_dir / f"BENCH_{doc['label']}.json"
        out.write_text(json.dumps(doc, indent=1) + "\n")
        print(out)
    if len(docs) == 1:
        return 0
    moved = [
        a["name"]
        for a, b in zip(docs[0]["cells"], docs[1]["cells"])
        if a["outcome"]["cover_sha256"] != b["outcome"]["cover_sha256"]
    ]
    for name in moved:
        print(f"cover moved: {name}")
    if set(moved) != expected:
        print(f"covers moved on {sorted(moved)}, expected {sorted(expected)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
