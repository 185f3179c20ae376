"""Command-line surface: generate, cover, verify, bench, oracle.

Exit codes: 0 success, 1 verified contract failure, 2 usage or parameter
error. Benchmark rows are deterministic per (base seed, trial index) and
independent of the thread count; pass --timing none for byte-identical CSV
across runs.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from ._bits import mix64
from .generators import (
    FAMILIES,
    GenSpec,
    degree_from_ratio,
    generate,
)
from .graph import Graph, GraphFormatError, read_graph, write_graph
from .matching import fractional_matching, max_deficiency
from .oracle import (
    binomial_tail_exact,
    conjecture_spot_check,
    cube_graph,
    petersen_graph,
)
from .pipeline import (
    PathCover,
    PipelineConfig,
    RunReport,
    _dec,
    chernoff_lower,
    chernoff_upper,
    path_cover,
    path_cover_bipartite,
    paths_limit,
    paths_limit_bipartite,
    verify_cover,
)

CSV_HEADER = "seed,family,n,k,c,alpha,method,paths,uncovered,runtime_ms,success"


@dataclass
class BenchRow:
    seed: int
    family: str
    n: int
    k: int
    c: float
    alpha: float
    method: str
    paths: int
    uncovered: int
    runtime_ms: float
    success: bool

    def to_csv(self) -> str:
        return ",".join(
            [
                str(self.seed),
                self.family,
                str(self.n),
                str(self.k),
                _fmt(self.c),
                _fmt(self.alpha),
                self.method,
                str(self.paths),
                str(self.uncovered),
                _fmt(self.runtime_ms),
                "true" if self.success else "false",
            ]
        )


def _fmt(x: float) -> str:
    return f"{x:.6g}"


# ------------------------------------------------------------------ cover files


def write_cover_file(cover: PathCover) -> str:
    lines = [f"# paths={len(cover.paths)} uncovered={len(cover.uncovered)}"]
    for p in cover.paths:
        lines.append(" ".join(str(v) for v in p.vertices))
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class _CoverLine:
    """A cover-file line as written. Unlike `Path` it may repeat a vertex, so
    that `verify_cover` can report the repeat instead of never seeing it."""

    vertices: tuple[int, ...]


def read_cover_file(text: str, g: Graph) -> PathCover:
    paths: list[_CoverLine] = []
    used: set[int] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            ids = [int(tok) for tok in line.split()]
        except ValueError:
            raise GraphFormatError(line_no, "cover lines must be vertex ids") from None
        for v in ids:
            if not 0 <= v < g.n:
                raise GraphFormatError(line_no, f"vertex {v} out of range")
        paths.append(_CoverLine(tuple(ids)))
        used |= set(ids)
    return PathCover(paths, frozenset(range(g.n)) - used)


# -------------------------------------------------------------------- commands


CONFIG_KEYS = ("c", "alpha", "d", "eps", "gamma", "t")


def _read_config(path: str) -> dict[str, float]:
    """The key=value lines of a --config file; blank and '#' lines are skipped.
    A line without '=', an unknown key, a value that is not a number and a
    non-integer t raise ValueError naming the file and line."""
    vals: dict[str, float] = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, val = (part.strip() for part in line.partition("="))
            where = f"{path}, line {line_no}"
            if not sep:
                raise ValueError(f"{where}: expected key=value, got {line!r}")
            if key not in CONFIG_KEYS:
                raise ValueError(f"{where}: unknown key {key!r}; known keys: {', '.join(CONFIG_KEYS)}")
            try:
                vals[key] = float(val)
            except ValueError:
                raise ValueError(f"{where}: {key} must be a number, got {val!r}") from None
            if key == "t" and not vals[key].is_integer():
                raise ValueError(f"{where}: t must be an integer, got {val!r}")
    return vals


def _resolve_cfg(args, g: Graph) -> PipelineConfig:
    """flags > config file > derived defaults."""
    file_vals = _read_config(args.config) if args.config else {}

    def pick(name: str, flag_val):
        if flag_val is not None:
            return flag_val
        return file_vals.get(name)

    c = pick("c", args.c)
    if c is None:
        k = g.regular_degree()
        c = k / g.n
        if degree_from_ratio(g.n, c) != k:  # k/n rounds up at 9 decimals: take the 9-decimal floor
            c = (k * 10**9 // g.n) / 10**9
    alpha = pick("alpha", args.alpha)
    if alpha is None:
        alpha = 0.1
    t = pick("t", args.t)
    return PipelineConfig.derive(
        c,
        alpha,
        d=pick("d", args.d),
        eps=pick("eps", args.eps),
        gamma=pick("gamma", args.gamma),
        t=int(t) if t is not None else None,
        seed=args.seed,
    )


def cmd_generate(args) -> int:
    n = args.n
    if args.k is not None:
        k = args.k
    elif args.c is not None:
        k = degree_from_ratio(n, args.c)
    else:
        print("error: provide --k or --c", file=sys.stderr)
        return 2
    spec = GenSpec(n=n, k=k, family=args.family, seed=args.seed)
    g = generate(spec)
    text = write_graph(g)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cover(g: Graph, cfg: PipelineConfig, bipartite: bool) -> tuple[PathCover, RunReport, int]:
    """Cover `g` with the family's path stage: (cover, report, paths limit)."""
    if bipartite:
        cover, rep = path_cover_bipartite(g, cfg)
        return cover, rep, paths_limit_bipartite(cfg.c)
    cover, rep = path_cover(g, cfg)
    return cover, rep, paths_limit(cfg.c)


def cmd_cover(args) -> int:
    with open(args.graph, encoding="utf-8") as fh:
        g = read_graph(fh.read())
    cfg = _resolve_cfg(args, g)
    if args.bipartite:
        if g.bipartition is None:
            print("error: --bipartite needs a graph with a bipartite header", file=sys.stderr)
            return 2
    cover, rep, limit = _cover(g, cfg, args.bipartite)
    text = write_cover_file(cover)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    report_text = (
        f"c={_fmt(cfg.c)}\nalpha={_fmt(cfg.alpha)}\n"
        + rep.to_kv_text()
        + f"paths_limit={limit}\n"
    )
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(report_text)
    else:
        sys.stderr.write(report_text)
    return 0 if rep.success else 1


def cmd_verify(args) -> int:
    with open(args.graph, encoding="utf-8") as fh:
        g = read_graph(fh.read())
    with open(args.cover, encoding="utf-8") as fh:
        cover = read_cover_file(fh.read(), g)
    check = verify_cover(g, cover, max_count=args.max_count, max_uncovered=args.max_uncovered)
    print(check)
    return 0 if check.ok else 1


def _parse_list(text: str, conv):
    return [conv(tok) for tok in text.split(",") if tok]


def _parse_seed_range(text: str) -> range:
    lo, sep, hi = text.partition("..")
    if not sep:
        value = int(text)
        return range(value, value + 1)
    if int(hi) < int(lo):
        raise ValueError(f"seed range {text} is empty: {hi} < {lo}")
    return range(int(lo), int(hi) + 1)


def _run_trial(
    family: str,
    n: int,
    c: float,
    alpha: float,
    seed: int,
    timing: str,
) -> BenchRow:
    k = degree_from_ratio(n, c)
    t0 = time.perf_counter()
    try:
        spec = GenSpec(n=n, k=k, family=family, seed=seed)
        g = generate(spec)
        cfg = PipelineConfig.derive(c, alpha, seed=seed)
        cover, rep, limit = _cover(g, cfg, family == "random-bipartite-regular")
        check = verify_cover(g, cover, max_count=limit, max_uncovered=int(_dec(alpha) * n))
        outcome = (rep.method, len(cover.paths), len(cover.uncovered), check.ok)
    except Exception as exc:  # a crashed trial becomes a failed row
        outcome = (f"error:{type(exc).__name__}", 0, n, False)
    method, paths, uncovered, success = outcome
    runtime_ms = (time.perf_counter() - t0) * 1000.0 if timing == "wall" else 0.0
    return BenchRow(seed, family, n, k, c, alpha, method, paths, uncovered, runtime_ms, success)


def cmd_bench(args) -> int:
    cs = _parse_list(args.c, float)
    ns = _parse_list(args.n, int)
    seeds = _parse_seed_range(args.seeds)
    family = "random-bipartite-regular" if args.bipartite else "random-regular"
    for c, n, s in itertools.product(cs, ns, (seeds[0], seeds[-1])):
        # a parameter error exits 2 here instead of failing every trial of its cell
        PipelineConfig.derive(c, args.alpha, seed=s)
        GenSpec(n, degree_from_ratio(n, c), family, s)
    # the per-trial seed and the sweep cell pin the whole trial; generators
    # mix (seed, n, k) internally so cells sharing a seed stay independent
    trials = [
        (family, n, c, args.alpha, s, args.timing)
        for c, n, s in itertools.product(cs, ns, seeds)
    ]
    threads = args.threads or int(os.environ.get("THREADS", 0)) or (os.cpu_count() or 1)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(lambda t: _run_trial(*t), trials))
    else:
        rows = [_run_trial(*t) for t in trials]
    out_lines = [CSV_HEADER] + [row.to_csv() for row in rows]
    text = "\n".join(out_lines) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_oracle(args) -> int:
    if args.oracle_cmd == "conjecture":
        extras = [
            petersen_graph(),
            cube_graph(),
            Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)]),
            Graph(6, [(i, 3 + j) for i in range(3) for j in range(3)], bipartition=(range(3), range(3, 6))),
        ]
        rep = conjecture_spot_check(args.k, args.n, args.samples, seed=args.seed, extras=extras)
        print(f"checked={rep.checked} violations={len(rep.violations)} max_ratio={rep.max_ratio:.4f}")
        for g, cover, limit in rep.violations:
            print(f"VIOLATION: {g!r} cover={cover} > ceil(n/(k+1))={limit}")
        return 0 if rep.ok else 1

    if args.oracle_cmd == "berge-tutte":
        checked = 0
        bad = 0
        for g in _berge_tutte_instances(args.n_max, args.exhaustive, args.samples, args.seed):
            mu = fractional_matching(g).value
            d, _ = max_deficiency(g)
            checked += 1
            if mu != Fraction(g.n - d, 2):
                bad += 1
                print(f"MISMATCH: {g!r} mu_f={mu} deficiency={d}")
        print(f"checked={checked} mismatches={bad}")
        return 0 if bad == 0 else 1

    if args.oracle_cmd == "chernoff":
        violations = 0
        checked = 0
        worst = 0.0
        for np_ in range(1, args.n_max + 1):
            for dec in range(1, 10):
                zeta = Fraction(dec, 10)
                mean = np_ * zeta
                for x in range(1, np_ + 1):
                    up = binomial_tail_exact(np_, zeta, mean + x, "ge")
                    lo = binomial_tail_exact(np_, zeta, mean - x, "le")
                    bu = chernoff_upper(np_, dec / 10, x)
                    bl = chernoff_lower(np_, dec / 10, x)
                    checked += 2
                    worst = max(worst, float(up) / bu if bu else 0.0, float(lo) / bl if bl else 0.0)
                    if up > Fraction(bu) or lo > Fraction(bl):
                        violations += 1
                        print(f"VIOLATION: n'={np_} zeta={zeta} x={x}")
        print(f"checked={checked} violations={violations} worst_ratio={worst:.6f}")
        return 0 if violations == 0 else 1

    print("error: unknown oracle subcommand", file=sys.stderr)
    return 2


def _berge_tutte_instances(n_max: int, exhaustive: bool, samples: int, seed: int):
    import random as _random

    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    if exhaustive:
        cap = min(n_max, 7)
        for n in range(1, min(cap, 5) + 1):
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            for mask in range(1 << len(pairs)):
                yield Graph(n, [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1])
        if cap >= 6:
            import networkx as nx

            # isomorphism classes; both checked quantities are label-invariant
            for ag in nx.graph_atlas_g()[1:]:
                n = ag.number_of_nodes()
                if 6 <= n <= cap:
                    yield Graph(n, list(ag.edges()))
    rng = _random.Random(mix64(seed, 0xBE27))
    lo = min(8, n_max)
    for _ in range(samples):
        n = rng.randrange(lo, n_max + 1)
        p = rng.uniform(0.1, 0.9)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < p
        ]
        yield Graph(n, edges)


# ---------------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathcover",
        description="Cover dense regular graphs by few vertex-disjoint paths or cycles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="write a graph in edge-list format")
    p_gen.add_argument("--family", choices=FAMILIES, required=True)
    p_gen.add_argument("--n", type=int, required=True)
    k_or_c = p_gen.add_mutually_exclusive_group()
    k_or_c.add_argument("--k", type=int)
    k_or_c.add_argument("--c", type=float)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("-o", "--output")
    p_gen.set_defaults(func=cmd_generate)

    p_cov = sub.add_parser("cover", help="cover a regular graph with few paths")
    p_cov.add_argument("graph")
    p_cov.add_argument("--bipartite", action="store_true")
    p_cov.add_argument("--c", type=float)
    p_cov.add_argument("--alpha", type=float)
    p_cov.add_argument("--d", type=float)
    p_cov.add_argument("--eps", type=float)
    p_cov.add_argument("--gamma", type=float)
    p_cov.add_argument("--t", type=int)
    p_cov.add_argument("--seed", type=int, default=0)
    p_cov.add_argument("--config", help="key=value file; flags win over it")
    p_cov.add_argument("-o", "--output")
    p_cov.add_argument("--report")
    p_cov.set_defaults(func=cmd_cover)

    p_ver = sub.add_parser("verify", help="audit a cover file against its graph")
    p_ver.add_argument("graph")
    p_ver.add_argument("cover")
    p_ver.add_argument("--max-count", type=int, default=None)
    p_ver.add_argument("--max-uncovered", type=int, default=None)
    p_ver.set_defaults(func=cmd_verify)

    p_ben = sub.add_parser("bench", help="sweep trials and emit CSV")
    p_ben.add_argument("--c", required=True, help="comma list, e.g. 0.3,0.45,0.6")
    p_ben.add_argument("--n", required=True, help="comma list, e.g. 200,600")
    p_ben.add_argument("--seeds", required=True, help="range A..B inclusive, or one seed")
    p_ben.add_argument("--alpha", type=float, default=0.1)
    p_ben.add_argument("--bipartite", action="store_true")
    p_ben.add_argument("--threads", type=int, default=0, help="0 = THREADS env or cpu count")
    p_ben.add_argument("--timing", choices=("wall", "none"), default="wall")
    p_ben.add_argument("-o", "--output")
    p_ben.set_defaults(func=cmd_bench)

    p_ora = sub.add_parser("oracle", help="exact cross-checks")
    ora_sub = p_ora.add_subparsers(dest="oracle_cmd", required=True)

    p_conj = ora_sub.add_parser("conjecture", help="path-cover bound spot check")
    p_conj.add_argument("--k", type=int, default=3)
    p_conj.add_argument("--n", type=int, default=8)
    p_conj.add_argument("--samples", type=int, default=100)
    p_conj.add_argument("--seed", type=int, default=0)
    p_conj.set_defaults(func=cmd_oracle)

    p_bt = ora_sub.add_parser("berge-tutte", help="matching value vs deficiency")
    p_bt.add_argument("--n-max", type=int, default=7)
    p_bt.add_argument("--exhaustive", action="store_true")
    p_bt.add_argument("--samples", type=int, default=0)
    p_bt.add_argument("--seed", type=int, default=0)
    p_bt.set_defaults(func=cmd_oracle)

    p_ch = ora_sub.add_parser("chernoff", help="exact tails vs exponential bounds")
    p_ch.add_argument("--n-max", type=int, default=25)
    p_ch.set_defaults(func=cmd_oracle)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GraphFormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
