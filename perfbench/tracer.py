"""Spans around pathcover's public functions, recorded from outside the library.

`pipeline` and `cli` bind their imports with `from .x import y`, so a function
is patched at every name it is called through (`pathcover.pipeline.
induced_subgraph`, `pathcover.cli.generate`, ...); patching only the defining
module would record nothing. `Graph.__init__` is patched on the class.

Each thread keeps its own span stack. A span opened on a thread with an empty
stack (a bench pool worker) takes as parent the innermost open span of the
thread that entered the tracer, the span that caused it. Spans stay in memory
until the tracer exits; self time is computed afterwards as a span's duration
minus the part of its interval that its children cover.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional


def _graph_init(args, result, exc):
    return {"edges": args[0].m} if exc is None else {}


def _is_eps_regular(args, result, exc):
    if exc is not None:
        return {}
    return {"regular": int(result.regular), "heuristic_calls": int(result.mode == "heuristic")}


def _clean_super_regular(args, result, exc):
    return {"failed": int(type(exc).__name__ == "CleaningFailed")}


def _max_deficiency(args, result, exc):
    return {"size_limit": int(type(exc).__name__ == "SizeLimitError")}


def _longest_cycle(args, result, exc):
    return {"closed": int(result is not None)}


def _spanning_cycle(args, result, exc):
    return {"ok": int(exc is None and result.ok)}


def _reservoir(args, result, exc):
    return {"accepted": int(exc is None)}


def _connect_paths(args, result, exc):
    return {"merges": len(result[2])} if exc is None else {}


def _path_cover(args, result, exc):
    if exc is not None:
        return {}
    rep = result[1]
    return {
        "covers": 1,
        "regularity_route": int(rep.method == "regularity-pipeline"),
        "connections": rep.connections,
        "direct_joins": rep.direct_joins,
        "absorbed": rep.absorbed,
    }


# (module, attribute path, span name, counter hook or None)
TARGETS: tuple[tuple[str, str, str, Optional[Callable]], ...] = (
    ("pathcover.graph", "Graph.__init__", "graph.Graph_init", _graph_init),
    ("pathcover.pipeline", "induced_subgraph", "graph.induced_subgraph", None),
    ("pathcover.generators", "complement", "graph.complement", None),
    ("pathcover.generators", "generate", "generators.generate", None),
    ("pathcover.cli", "generate", "generators.generate", None),
    ("pathcover.pipeline", "equitable_partition", "regularity.equitable_partition", None),
    ("pathcover.pipeline", "is_eps_regular", "regularity.is_eps_regular", _is_eps_regular),
    ("pathcover.pipeline", "build_cluster_graph", "regularity.build_cluster_graph", None),
    ("pathcover.pipeline", "clean_super_regular", "regularity.clean_super_regular", _clean_super_regular),
    ("pathcover.pipeline", "fractional_matching", "matching.fractional_matching", None),
    ("pathcover.pipeline", "max_deficiency", "matching.max_deficiency", _max_deficiency),
    ("pathcover.pipeline", "longest_cycle", "hamilton.longest_cycle", _longest_cycle),
    ("pathcover.pipeline", "longest_path", "hamilton.longest_path", None),
    ("pathcover.pipeline", "spanning_cycle_bipartite", "hamilton.spanning_cycle_bipartite", _spanning_cycle),
    ("pathcover.pipeline", "reservoir", "pipeline.reservoir", _reservoir),
    ("pathcover.pipeline", "cycle_cover", "pipeline.cycle_cover", None),
    ("pathcover.pipeline", "connect_paths", "pipeline.connect_paths", _connect_paths),
    ("pathcover.pipeline", "path_cover", "pipeline.path_cover", _path_cover),
    ("pathcover.pipeline", "path_cover_bipartite", "pipeline.path_cover", _path_cover),
    ("pathcover.cli", "path_cover", "pipeline.path_cover", _path_cover),
    ("pathcover.cli", "path_cover_bipartite", "pipeline.path_cover", _path_cover),
    ("pathcover.pipeline", "verify_cover", "pipeline.verify_cover", None),
    ("pathcover.cli", "verify_cover", "pipeline.verify_cover", None),
)


def resolve(module: str, path: str):
    """(owner object, attribute name) for a dotted attribute path in a module."""
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    thread: int
    parent: Optional[int]
    start: float
    end: float


class Tracer:
    """Context manager: patches TARGETS on entry and restores them on exit."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[Span] = []
        self.counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._saved: list[tuple[object, str, object]] = []
        self._root_stack: list[int] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def __enter__(self) -> "Tracer":
        self._local.stack = self._root_stack
        try:
            for module, path, name, hook in self.targets:
                owner, attr = resolve(module, path)
                fn = getattr(owner, attr)
                self._saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(fn, name, hook))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around a call into a layer."""
        sid, parent, start = self._open()
        try:
            yield
        finally:
            self._close(sid, name, parent, start)

    def _open(self) -> tuple[int, Optional[int], float]:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._root_stack[-1] if self._root_stack else None
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        stack.append(sid)
        return sid, parent, time.perf_counter()

    def _close(self, sid: int, name: str, parent: Optional[int], start: float) -> None:
        end = time.perf_counter()
        self._stack().pop()
        self.spans.append(Span(sid, name, threading.get_ident(), parent, start, end))

    def _wrap(self, fn, name: str, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent, start = tracer._open()
            outcome = None  # (result, exception) once the call returned or raised
            try:
                result = fn(*args, **kwargs)
                outcome = (result, None)
                return result
            except Exception as exc:
                outcome = (None, exc)
                raise
            finally:
                tracer._close(sid, name, parent, start)
                if hook is not None and outcome is not None:
                    tracer._count(name, hook(args, *outcome))

        traced.__perfbench_wrapped__ = fn
        return traced

    def _count(self, name: str, incs: dict[str, int]) -> None:
        with self._lock:
            slot = self.counts[name]
            for key, value in incs.items():
                slot[key] += value

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the union of its children's intervals."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent].append((s.start, s.end))
        out = {}
        for s in self.spans:
            covered = 0.0
            hi = s.start
            for a, b in sorted(children[s.sid]):
                a, b = max(a, hi), min(b, s.end)
                if b > a:
                    covered += b - a
                    hi = b
            out[s.sid] = (s.end - s.start) - covered
        return out

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls and summed self seconds."""
        selfs = self.self_times()
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for s in self.spans:
            out[s.name]["calls"] += 1
            out[s.name]["self_s"] += selfs[s.sid]
        return dict(out)
