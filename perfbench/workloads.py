"""The benchmark's workloads; run.py starts this file as one child process per run.

Every workload is a closed loop with one caller. Trials come in rounds that
repeat the workload's input mix. A run's length is fixed as a number of
rounds: --seconds divided by the workload's nominal round time, measured at
the commit that introduced the benchmark (2 CPUs, 8 GB). So every run of a
workload does the same work, and two runs with the same seed produce the same
output digest, on any commit and however loaded the machine. Trial seeds
derive from the workload seed and the round index.

    python3 perfbench/workloads.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/workloads.py --probe    # imports, then prints the wall clock

The last line of standard output is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import resource
import statistics
import sys
import time
from contextlib import contextmanager, nullcontext, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import pathcover.cli as cli
import pathcover.generators as generators
import pathcover.pipeline as pipeline
from pathcover.generators import GenSpec, degree_from_ratio
from pathcover.pipeline import PipelineConfig, paths_limit, paths_limit_bipartite

from tracer import Tracer

ALPHA = 0.1
# every untraced run covers rounds 0 and 1 at least, so that regular-2400
# sees both of its generator seeds
MIN_ROUNDS = 2
# audit items whose failure makes a cover wrong; "count" and "uncovered" only
# say whether it met the paper's limits
STRUCTURAL = ("adjacency", "distinct-vertices", "disjoint", "uncovered-consistent")
# the benchmark's own re-audit of sweep covers; bound before any patching so
# that it never shows up as a span
_audit = pipeline.verify_cover


class GuardError(RuntimeError):
    """A workload no longer exercises the route it exists for."""


def alpha_cap(n: int) -> int:
    """floor(alpha*n) with alpha snapped to 9 decimals, as the library does."""
    return int(Fraction(round(ALPHA * 10**9), 10**9) * n)


def ratio_for_degree(n: int, k: int) -> float:
    """c = k/n rounded down to 9 decimals, so that ceil(c*n) gives back k.

    The obvious c = (n-1)/n makes path_cover raise at n=1200: degree_from_ratio
    snaps c to 9 decimals and rounds it up to n.
    """
    c = (k * 10**9 // n) / 10**9
    if degree_from_ratio(n, c) != k:
        raise ValueError(f"no 9-decimal c gives degree {k} at n={n}")
    return c


@dataclass
class Trial:
    key: str  # digested output: family,n,k,c,seed,method,paths,uncovered,success
    error: bool  # raised, or failed a structural audit item
    limit_met: bool


@dataclass
class Run:
    """Everything a run measured; each workload's run_round appends to it."""

    rounds: int = 0
    wall_s: float = 0.0
    trials: list[Trial] = field(default_factory=list)
    # thread CPU seconds per generate and per path_cover call; on one thread
    # with nothing else running this is the call's wall time
    generate_s: list[float] = field(default_factory=list)
    cover_s: list[float] = field(default_factory=list)
    # Σ per-trial seconds the bench CLI reports with --timing wall
    trial_s: float = 0.0
    mismatches: int = 0  # CLI success flags that disagree with the re-audit
    first_round: int = 0  # trials in round 0, the part every run shares

    def digest(self, upto: Optional[int] = None) -> str:
        keys = [t.key for t in self.trials[:upto]]
        return hashlib.sha256("\n".join(keys).encode()).hexdigest()[:16]


def _broken(check) -> bool:
    return any(not item.ok for item in check.items if item.name in STRUCTURAL)


# ------------------------------------------------------------ library calls


@dataclass(frozen=True)
class Cell:
    family: str
    n: int
    k: int
    c: float
    # require method=regularity-pipeline with reservoir merges (RunReport
    # connections, the merges connect_paths made)
    needs_route: bool = False


class LibraryWorkload:
    """generate -> path_cover -> verify_cover per trial, serial, called through
    the module attributes so that a tracer sees each call.

    The generator seed is the round index and each trial's config seed
    derives from the workload seed. Generation time at n=2400 varies up to 3x between
    generator seeds (pairing restarts) and a run holds only a few trials per
    cell, so every run covers the same graphs, while no graph repeats within
    a run.
    """

    threads = 1

    def __init__(self, cells: list[Cell], round_s: float):
        self.cells = cells
        self.round_s = round_s

    def run_round(self, seed: int, r: int, tracer: Optional[Tracer], timing: str, out: Run) -> None:
        for i, cell in enumerate(self.cells):
            out.trials.append(self._trial(cell, r, seed * 1000 + r * len(self.cells) + i, out))

    def _trial(self, cell: Cell, graph_seed: int, seed: int, out: Run) -> Trial:
        head = f"{cell.family},{cell.n},{cell.k},{cell.c},{graph_seed}/{seed}"
        try:
            t0 = time.thread_time()
            g = generators.generate(GenSpec(n=cell.n, k=cell.k, family=cell.family, seed=graph_seed))
            t1 = time.thread_time()
            cover, rep = pipeline.path_cover(g, PipelineConfig.derive(cell.c, ALPHA, seed=seed))
            t2 = time.thread_time()
            check = pipeline.verify_cover(
                g, cover, max_count=paths_limit(cell.c), max_uncovered=alpha_cap(cell.n)
            )
        except Exception as exc:  # a trial that raises counts as an error
            print(f"trial {head} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            return Trial(f"{head},error:{type(exc).__name__},0,{cell.n},false", True, False)
        out.generate_s.append(t1 - t0)
        out.cover_s.append(t2 - t1)
        if cell.needs_route and (rep.method != "regularity-pipeline" or rep.connections == 0):
            raise GuardError(
                f"{head}: expected method=regularity-pipeline with reservoir merges, got "
                f"method={rep.method} connections={rep.connections}"
            )
        broken = _broken(check)
        if broken:
            print(f"trial {head} failed its audit:\n{check}", file=sys.stderr)
        ok = "true" if check.ok else "false"
        key = f"{head},{rep.method},{len(cover.paths)},{len(cover.uncovered)},{ok}"
        return Trial(key, broken, check.ok)


# ------------------------------------------------------------ CLI sweep


@contextmanager
def _cli_call_log(log: list):
    """Time the bench CLI's generate and cover calls where it makes them, and
    keep each cover so that the benchmark can audit it afterwards.

    Calls are timed in thread CPU time, which leaves out the waits for the
    interpreter lock that the 2-thread pool adds: on a 2-CPU virtual machine
    the per-run median wall time of a call spread 13% over repeats of the
    same work, and its CPU time 5%.
    """
    names = ("generate", "path_cover", "path_cover_bipartite")
    saved = [(name, getattr(cli, name)) for name in names]

    def logged(name, fn):
        def call(*args):
            t0 = time.thread_time()
            result = fn(*args)
            log.append((name, time.thread_time() - t0, args, result))
            return result

        return call

    try:
        for name, fn in saved:
            setattr(cli, name, logged(name, fn))
        yield
    finally:
        for name, fn in saved:
            setattr(cli, name, fn)


class SweepWorkload:
    """`pathcover bench` in-process: random-regular and random-bipartite-regular
    cells at n=600 on the CLI's thread pool."""

    threads = 2
    calls = (["--c", "0.3,0.45,0.6"], ["--c", "0.3,0.45", "--bipartite"])

    def __init__(self, n: int, seeds_per_round: int, round_s: float):
        self.n = n
        self.seeds_per_round = seeds_per_round
        self.round_s = round_s

    def run_round(self, seed: int, r: int, tracer: Optional[Tracer], timing: str, out: Run) -> None:
        lo = seed * 1000 + r * self.seeds_per_round
        seeds = f"{lo}..{lo + self.seeds_per_round - 1}"
        log: list = []
        rows: list[str] = []
        for extra in self.calls:
            argv = [
                "bench", *extra, "--n", str(self.n), "--seeds", seeds, "--alpha", str(ALPHA),
                "--threads", str(self.threads), "--timing", timing,
            ]
            buf = io.StringIO()
            with _cli_call_log(log), redirect_stdout(buf):
                with tracer.span("cli.bench") if tracer else nullcontext():
                    code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"pathcover {' '.join(argv)} exited {code}")
            rows += buf.getvalue().splitlines()[1:]
        audits = {}
        for name, seconds, args, result in log:
            if name == "generate":
                out.generate_s.append(seconds)
                continue
            out.cover_s.append(seconds)
            g, cfg = args
            bipartite = name == "path_cover_bipartite"
            limit = paths_limit_bipartite(cfg.c) if bipartite else paths_limit(cfg.c)
            audits[(bipartite, cfg.seed, cfg.c)] = _audit(
                g, result[0], max_count=limit, max_uncovered=alpha_cap(g.n)
            )
        for line in rows:
            fields = line.split(",")
            out.trial_s += float(fields[9]) / 1000.0
            fields[9] = "0"  # the --timing none value, so both timings digest alike
            success = fields[10] == "true"
            audit = audits.get((fields[1] == "random-bipartite-regular", int(fields[0]), float(fields[4])))
            if audit is None:  # generate or cover raised; the CLI wrote an error row
                out.trials.append(Trial(",".join(fields), True, False))
                continue
            out.mismatches += audit.ok != success
            error = _broken(audit) or fields[6].startswith("error:")
            out.trials.append(Trial(",".join(fields), error, audit.ok))


REGULAR_C = (0.3, 0.45, 0.6)

K1200 = Cell("disjoint-cliques", 1200, 1199, ratio_for_degree(1200, 1199), needs_route=True)

# round_s: nominal seconds per round at the commit that introduced the benchmark
WORKLOADS = {
    "regular-2400": LibraryWorkload(
        [Cell("random-regular", 2400, degree_from_ratio(2400, c), c) for c in REGULAR_C],
        round_s=17.5,
    ),
    "sweep-600": SweepWorkload(600, seeds_per_round=2, round_s=3.3),
    # K1200 twice per round: the medians then fall inside its cluster of
    # times rather than in the gap between the two graphs' times
    "structured": LibraryWorkload(
        [K1200, Cell("disjoint-cliques", 1200, 299, ratio_for_degree(1200, 299)), K1200],
        round_s=5.0,
    ),
}


# ------------------------------------------------------------ measurement


def planned_rounds(wl, seconds: float, traced: bool = False) -> int:
    """Rounds that take `seconds` at the nominal round time; a traced run
    runs each round twice."""
    if traced:
        return max(1, round(seconds / (2 * wl.round_s)))
    return max(MIN_ROUNDS, round(seconds / wl.round_s))


def _round(wl, seed: int, r: int, tracer: Optional[Tracer], timing: str, run: Run) -> None:
    t0 = time.perf_counter()
    wl.run_round(seed, r, tracer, timing, run)
    run.wall_s += time.perf_counter() - t0
    run.rounds += 1
    if run.rounds == 1:
        run.first_round = len(run.trials)


def measure(wl, seed: int, rounds: int, timing: str = "none") -> Run:
    run = Run()
    while run.rounds < rounds:
        _round(wl, seed, run.rounds, None, timing, run)
    return run


def measure_traced(wl, seed: int, rounds: int, tracer: Tracer) -> tuple[Run, Run]:
    """Each round twice, untraced and traced.

    The order alternates from round to round so that warm-up favours neither
    side; the time gap between the two runs is the tracing overhead.
    """
    plain, traced = Run(), Run()
    while plain.rounds < rounds:
        r = plain.rounds
        for on in (False, True) if r % 2 == 0 else (True, False):
            with tracer if on else nullcontext():
                _round(wl, seed, r, tracer if on else None, "wall", traced if on else plain)
    return plain, traced


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, N): the highest percentile with at least ten samples
    beyond it, but never below the median. Below 22 samples that percentile
    would lie at or below the median (below 11 there is none), so the median
    stands in."""
    xs = sorted(samples)
    i = len(xs) - 11
    if i < len(xs) // 2:
        return statistics.median(xs), 50.0, len(xs)
    return xs[i], 100.0 * (i + 1) / len(xs), len(xs)


def end_to_end(run: Run) -> tuple[dict, list[str]]:
    n = len(run.trials)
    errors = sum(t.error for t in run.trials)
    value, pct, count = tail(run.cover_s)
    metrics = {
        "trials_per_s": (n / run.wall_s, "1/s"),
        "generate_s.p50": (statistics.median(run.generate_s), "s"),
        "cover_s.p50": (statistics.median(run.cover_s), "s"),
        "cover_s.tail": (value, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "error_free_rate": (1 - errors / n, "fraction"),
        "limit_met_rate": (sum(t.limit_met for t in run.trials) / n, "fraction"),
    }
    notes = [
        "generate_s: " + " ".join(f"{x:.3f}" for x in run.generate_s),
        "cover_s: " + " ".join(f"{x:.3f}" for x in run.cover_s),
        f"error_rate = {errors / n:.6g} fraction ({errors} of {n} trials raised or failed a structural audit item)",
        f"cover_s.tail is p{pct:.1f} of N={count} cover calls",
    ]
    return metrics, notes


def per_layer(tr: Tracer, plain: Run, traced: Run, threads: int) -> tuple[dict, list[str]]:
    """Per-layer metrics of the traced rounds, per trial."""
    n = len(traced.trials)
    spans = tr.summary()
    counts = tr.counts

    def self_s(name):
        return (spans.get(name, {}).get("self_s", 0.0) / n, "s/trial")

    def calls(name):
        return (spans.get(name, {}).get("calls", 0) / n, "count/trial")

    def count(name, key):
        return (counts.get(name, {}).get(key, 0) / n, "count/trial")

    def frac(name, key, base=None):
        total = counts.get(name, {}).get(base, 0) if base else spans.get(name, {}).get("calls", 0)
        return (counts.get(name, {}).get(key, 0) / total if total else 0.0, "fraction")

    bench_wall = sum(s.end - s.start for s in tr.spans if s.name == "cli.bench")
    self_total = sum(v["self_s"] for v in spans.values())
    capacity = traced.wall_s * threads
    m = {
        "graph.Graph_init.self_s": self_s("graph.Graph_init"),
        "graph.Graph_init.calls": calls("graph.Graph_init"),
        "graph.Graph_init.edges": count("graph.Graph_init", "edges"),
        "graph.induced_subgraph.self_s": self_s("graph.induced_subgraph"),
        "graph.complement.self_s": self_s("graph.complement"),
        "generators.generate.self_s": self_s("generators.generate"),
        "generators.generate.calls": calls("generators.generate"),
        "regularity.equitable_partition.self_s": self_s("regularity.equitable_partition"),
        "regularity.is_eps_regular.self_s": self_s("regularity.is_eps_regular"),
        "regularity.is_eps_regular.calls": calls("regularity.is_eps_regular"),
        "regularity.is_eps_regular.regular_frac": frac("regularity.is_eps_regular", "regular"),
        "regularity.is_eps_regular.heuristic_calls": count("regularity.is_eps_regular", "heuristic_calls"),
        "regularity.build_cluster_graph.self_s": self_s("regularity.build_cluster_graph"),
        "regularity.clean_super_regular.self_s": self_s("regularity.clean_super_regular"),
        "regularity.clean_super_regular.failed": count("regularity.clean_super_regular", "failed"),
        "matching.fractional_matching.self_s": self_s("matching.fractional_matching"),
        "matching.max_deficiency.self_s": self_s("matching.max_deficiency"),
        "matching.max_deficiency.size_limit": count("matching.max_deficiency", "size_limit"),
        "hamilton.longest_cycle.self_s": self_s("hamilton.longest_cycle"),
        "hamilton.longest_cycle.calls": calls("hamilton.longest_cycle"),
        "hamilton.longest_cycle.closed_frac": frac("hamilton.longest_cycle", "closed"),
        "hamilton.longest_path.self_s": self_s("hamilton.longest_path"),
        "hamilton.longest_path.calls": calls("hamilton.longest_path"),
        "hamilton.spanning_cycle_bipartite.self_s": self_s("hamilton.spanning_cycle_bipartite"),
        "hamilton.spanning_cycle_bipartite.ok_frac": frac("hamilton.spanning_cycle_bipartite", "ok"),
        "pipeline.reservoir.self_s": self_s("pipeline.reservoir"),
        "pipeline.reservoir.calls": calls("pipeline.reservoir"),
        "pipeline.reservoir.accept_frac": frac("pipeline.reservoir", "accepted"),
        "pipeline.cycle_cover.self_s": self_s("pipeline.cycle_cover"),
        "pipeline.connect_paths.self_s": self_s("pipeline.connect_paths"),
        "pipeline.connect_paths.merges": count("pipeline.connect_paths", "merges"),
        "pipeline.path_cover.self_s": self_s("pipeline.path_cover"),
        "pipeline.verify_cover.self_s": self_s("pipeline.verify_cover"),
        "report.regularity_route_frac": frac("pipeline.path_cover", "regularity_route", "covers"),
        "report.connections": count("pipeline.path_cover", "connections"),
        "report.direct_joins": count("pipeline.path_cover", "direct_joins"),
        "report.absorbed": count("pipeline.path_cover", "absorbed"),
        "cli.bench.wall_s": (bench_wall / n, "s/trial"),
        "cli.bench.pool_efficiency": (
            traced.trial_s / (bench_wall * threads) if bench_wall else 0.0,
            "fraction",
        ),
        "trace.wall_s": (traced.wall_s / n, "s/trial"),
        "trace.unattributed_s": ((capacity - self_total) / n, "s/trial"),
        "trace.overhead_frac": (traced.wall_s / plain.wall_s - 1, "fraction"),
    }
    notes = [
        f"traced: {traced.rounds} rounds, {n} trials, {len(tr.spans)} spans, "
        f"{threads} thread(s); untraced {plain.wall_s:.3f} s, traced {traced.wall_s:.3f} s",
        f"accounting: wall x threads {capacity:.4f} s = span self {self_total:.4f} s "
        f"+ unattributed {capacity - self_total:.4f} s",
        "shares of span self time: "
        + ", ".join(
            f"{name} {v['self_s'] / self_total:.1%}"
            for name, v in sorted(spans.items(), key=lambda kv: -kv[1]["self_s"])
            if self_total and v["self_s"] / self_total >= 0.001
        ),
    ]
    return m, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help="stop once imports are done")
    args = ap.parse_args(argv)
    if args.probe:
        print(time.time())
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    wl = WORKLOADS[args.workload]
    if args.trace:
        tr = Tracer()
        plain, run = measure_traced(wl, args.seed, planned_rounds(wl, args.seconds, True), tr)
        if run.digest() != plain.digest():
            raise GuardError("traced rounds produced other covers than the untraced ones")
        metrics, notes = per_layer(tr, plain, run, wl.threads)
    else:
        run = measure(wl, args.seed, planned_rounds(wl, args.seconds))
        metrics, notes = end_to_end(run)
    failed = sum(t.error for t in run.trials)
    notes.insert(
        0,
        f"{args.workload} seed={args.seed}: {len(run.trials)} trials in {run.rounds} rounds, "
        f"{run.wall_s:.3f} s",
    )
    if run.mismatches:
        notes.append(f"{run.mismatches} CLI success flags disagree with the re-audit")
    notes.append(
        f"digest {args.workload} seed={args.seed} first_round={run.digest(run.first_round)} "
        f"all={run.digest()} trials={len(run.trials)}"
    )
    print(
        json.dumps(
            {
                "correct": failed == 0 and run.mismatches == 0,
                "attempted": len(run.trials),
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                "notes": notes,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
