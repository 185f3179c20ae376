#!/usr/bin/env python3
"""Which lines of `src/pathcover` a fixed list of workloads runs.

    python scripts/line_census.py
    python scripts/line_census.py --tests
    python scripts/line_census.py --run "oracle chernoff --n-max 1"

Traces, with `sys.settrace` (and `threading.settrace` for the bench pool),
the workloads that stand for the program's job:
- the identity grid of `scripts/identity_digest.py` (404 covers);
- every `scripts/bench_stages.py` cell with n <= 2400, with its audit;
- `pathcover generate`, `cover` and `verify` on both random families;
- `pathcover bench` on both random families;
- the three `pathcover oracle` subcommands at `scripts/bound_checks.py`'s
  defaults.

Only lines in files under `src/pathcover` count. A file's executable lines
are those that its code objects list in `co_lines()`; each line belongs to
its innermost function (a comprehension or lambda belongs to the function
around it), and counts as run when that function's code ran it, so a `def`
line run at import does not make its function run.

For every function with a line that no workload runs it prints those lines
as ranges, and then the counts. `--tests` also runs tier-1
(`python -m pytest tests`) under the tracer, and splits the lines that no
workload runs into "tests only" and "nothing"; without it they are "not
run". Some functions are kept though no workload runs them (KEPT); the
census prints the reason under each. `--run ARGS` replaces the workload
list by `pathcover ARGS` (repeatable).

The workloads take about 15 s on a 2-CPU machine, tier-1 about 2 minutes
more. Every workload runs in this process, which imports pathcover only
once the tracer is set, so that import-time lines count.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import shlex
import sys
import tempfile
import threading
import time
from collections import defaultdict
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pathcover"

# file:function -> why it stays although no workload runs some of its lines
KEPT = {
    "graph.py:induced_subgraph": "public library API, documented in README",
    "hamilton.py:hamiltonian_path": "public library API, documented in README",
    "pipeline.py:cycle_cover": "public library API, documented in README",
    "pipeline.py:reservoir": "public library API, documented in README",
    "hamilton.py:_dp_spanning": "hamiltonian_path promises an exact answer up to 14 vertices; "
    "no workload's heuristic search fails that small",
    "hamilton.py:_spanning": "the exact fallback of hamiltonian_path (see _dp_spanning)",
    "pipeline.py:_regularity_cycles": "exits of the paper's route that no known input reaches yet",
    "pipeline.py:_cycle_stage": "exits of the paper's route that no known input reaches yet",
    "regularity.py:clean_super_regular": "CleaningFailed raises that no known input reaches yet",
    "matching.py:_canonicalize": "an invariant check: a maximum matching leaves no odd half-weight path",
    "matching.py:cluster_matching_pairs": "an invariant check: the pairings number twice the matching's value",
    "oracle.py:_reconstruct_cover": "an invariant check of the exact DP's trail",
    "matching.py:<module>": "an import for type checkers only",
    "cli.py:<module>": "python -m pathcover.cli, which runs in a child process the tracer cannot see",
    "__main__.py:<module>": "python -m pathcover, which runs in a child process the tracer cannot see",
}


# ------------------------------------------------------------------ the lines


def _code_objects(code: CodeType, owner: str | None = None):
    """(code, owner) for `code` and every code object nested in it, parents
    first; owner is the qualified name of the innermost function, with
    comprehensions and lambdas folded into the function around them."""
    name = code.co_name
    if owner is None or not (name.startswith("<") and name != "<module>"):
        owner = _qualname(code)
    yield code, owner
    for const in code.co_consts:
        if isinstance(const, CodeType):
            yield from _code_objects(const, owner)


def _code_key(code: CodeType) -> tuple[str, int]:
    return _qualname(code), code.co_firstlineno


def _qualname(code: CodeType) -> str:
    return getattr(code, "co_qualname", code.co_name)  # co_qualname is new in Python 3.11


def executable_lines(path: Path) -> dict[int, tuple[tuple[str, int], str]]:
    """line -> (key of the innermost code object that holds it, owner name)."""
    module = compile(path.read_text(encoding="utf-8"), str(path), "exec")
    lines: dict[int, tuple[tuple[str, int], str]] = {}
    for code, owner in _code_objects(module):
        for _, _, line in code.co_lines():
            if line:  # None, or 0 for a module's first instruction
                lines[line] = (_code_key(code), owner)  # a nested code object overwrites its parent
    return lines


# ---------------------------------------------------------------- the tracer


class Tracer:
    """Collects (file, code key) -> lines run, for files under `PACKAGE`."""

    def __init__(self):
        self.prefix = str(PACKAGE) + "/"
        self.hits: dict[tuple[str, tuple[str, int]], set[int]] = defaultdict(set)
        self._local: dict[int, tuple[CodeType, object]] = {}  # id(code) -> (code, local tracer or None)

    def switch(self) -> dict:
        """Start a new phase; return the hits of the one that ended."""
        done, self.hits = self.hits, defaultdict(set)
        self._local.clear()
        return done

    def _trace(self, frame, event, arg):
        code = frame.f_code
        entry = self._local.get(id(code))
        if entry is None:  # the entry holds the code, so that its id is not reused
            entry = self._local[id(code)] = (code, self._tracer(code))
        local = entry[1]
        if local is not None:
            local.seen.add(frame.f_lineno)  # a call runs its first line, or resumes at a yield
        return local

    def _tracer(self, code: CodeType):
        """The local trace function of `code`, or None outside `PACKAGE`."""
        if not code.co_filename.startswith(self.prefix):
            return None
        seen = self.hits[(code.co_filename, _code_key(code))]
        add = seen.add

        def local(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return local

        local.seen = seen
        return local

    @contextlib.contextmanager
    def active(self):
        threading.settrace(self._trace)
        sys.settrace(self._trace)
        try:
            yield
        finally:
            sys.settrace(None)
            threading.settrace(None)


# ------------------------------------------------------------- the workloads


def _pathcover(*argv: str) -> None:
    from pathcover.cli import main

    code = main(list(argv))
    if code != 0:
        raise RuntimeError(f"pathcover {' '.join(argv)} exited {code}")


def _identity_grid() -> None:
    sys.path.insert(0, str(ROOT / "scripts"))
    from identity_digest import main

    main([])


def _bench_cells() -> None:
    sys.path.insert(0, str(ROOT / "scripts"))
    from bench_stages import CELLS, _setup

    from pathcover.generators import _dec, generate
    from pathcover.pipeline import verify_cover

    for cell in CELLS.values():
        if cell.n <= 2400:
            spec, cfg, cover_fn, limit = _setup(cell)
            g = generate(spec)
            cover, _ = cover_fn(g, cfg)
            verify_cover(g, cover, limit, int(_dec(cell.alpha) * cell.n))


def _cli_trio() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for family in ("random-regular", "random-bipartite-regular"):
            graph, cover, report = (f"{tmp}/{family}.{ext}" for ext in ("graph", "cover", "report"))
            _pathcover("generate", "--family", family, "--n", "120", "--c", "0.3", "--seed", "1", "-o", graph)
            flags = ["--bipartite"] if family == "random-bipartite-regular" else []
            _pathcover("cover", graph, *flags, "-o", cover, "--report", report)
            _pathcover("cover", graph, *flags)
            _pathcover("verify", graph, cover, "--max-count", "3", "--max-uncovered", "12")


def _bench() -> None:
    for flags in (["--c", "0.3,0.45,0.6"], ["--c", "0.15,0.3", "--bipartite"]):
        _pathcover("bench", *flags, "--n", "120,600", "--seeds", "0..1", "--threads", "2")


def _oracles() -> None:
    _pathcover("oracle", "conjecture", "--k", "3", "--n", "8", "--samples", "200", "--seed", "0")
    _pathcover("oracle", "berge-tutte", "--n-max", "7", "--exhaustive", "--samples", "200", "--seed", "0")
    _pathcover("oracle", "chernoff", "--n-max", "25")


WORKLOADS = {
    "identity grid": _identity_grid,
    "bench cells n<=2400": _bench_cells,
    "generate/cover/verify": _cli_trio,
    "bench": _bench,
    "oracle": _oracles,
}


def _tier1() -> None:
    import pytest

    code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    if code != 0:
        raise RuntimeError(f"tier-1 under the tracer exited {code}")


# ----------------------------------------------------------------- the report


def _ranges(lines: list[int], order: list[int]) -> str:
    """`lines` as ranges of consecutive entries of `order` (a file's
    executable lines), e.g. "12-15, 19"."""
    index = {line: i for i, line in enumerate(order)}
    runs: list[list[int]] = []
    for line in sorted(lines):
        if runs and index[line] == index[runs[-1][-1]] + 1:
            runs[-1].append(line)
        else:
            runs.append([line])
    return ", ".join(str(r[0]) if len(r) == 1 else f"{r[0]}-{r[-1]}" for r in runs)


def census(workload_hits: dict, test_hits: dict | None) -> tuple[list[str], dict[str, int]]:
    """The report lines and the counts: executable, run, and the lines no
    workload runs, as "tests only" and "nothing" (or "not run" without
    tests)."""
    counts = defaultdict(int)
    out: list[str] = []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        order = sorted(lines)
        unrun: dict[str, dict[str, list[int]]] = defaultdict(lambda: defaultdict(list))
        for line in order:
            key, owner = lines[line]
            counts["executable"] += 1
            if line in workload_hits.get((str(path), key), ()):
                counts["run"] += 1
                continue
            if test_hits is None:
                kind = "not run"
            else:
                kind = "tests only" if line in test_hits.get((str(path), key), ()) else "nothing"
            counts[kind] += 1
            unrun[owner][kind].append(line)
        if not unrun:
            continue
        out.append(f"{path.relative_to(PACKAGE.parent)}")
        for owner, kinds in unrun.items():
            spans = "; ".join(f"{kind} {_ranges(found, order)}" for kind, found in sorted(kinds.items()))
            out.append(f"  {owner}: {spans}")
            reason = KEPT.get(f"{path.name}:{owner}")
            if reason:
                out.append(f"    kept: {reason}")
    return out, dict(counts)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tests", action="store_true", help="also trace tier-1, to split tests-only lines from dead ones")
    ap.add_argument(
        "--run", action="append", metavar="ARGS", help="trace `pathcover ARGS` instead of the workload list (repeatable)"
    )
    args = ap.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    if "pathcover" in sys.modules:
        raise SystemExit("pathcover is already imported; its import-time lines would not count")
    workloads = (
        {f"pathcover {text}": (lambda a=shlex.split(text): _pathcover(*a)) for text in args.run}
        if args.run
        else WORKLOADS
    )
    tracer = Tracer()
    for name, run in workloads.items():
        t0 = time.perf_counter()
        with tracer.active(), contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            run()
        print(f"{name}: {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    workload_hits = tracer.switch()
    test_hits = None
    if args.tests:
        t0 = time.perf_counter()
        with tracer.active(), contextlib.redirect_stdout(io.StringIO()):
            _tier1()
        print(f"tier-1: {time.perf_counter() - t0:.1f} s", file=sys.stderr)
        test_hits = tracer.switch()
    out, counts = census(workload_hits, test_hits)
    print("\n".join(out))
    unrun = ("tests only", "nothing") if args.tests else ("not run",)
    print(
        f"lines: {counts['executable']} executable, {counts.get('run', 0)} run"
        + "".join(f", {counts.get(kind, 0)} {kind}" for kind in unrun)
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
