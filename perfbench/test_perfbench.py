"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import pathcover  # noqa: E402
import run as bench_run  # noqa: E402
import workloads  # noqa: E402
from tracer import TARGETS, Span, Tracer, resolve  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_LIBRARY = workloads.LibraryWorkload(
    [
        workloads.Cell("random-regular", 60, 18, 0.3),
        workloads.Cell("disjoint-cliques", 240, 239, workloads.ratio_for_degree(240, 239), needs_route=True),
    ],
    round_s=1.0,
)
TINY_SWEEP = workloads.SweepWorkload(60, seeds_per_round=1, round_s=1.0)


def _wrapped_names() -> list[str]:
    """Every attribute of the pathcover modules, or of their classes, that is a tracer wrapper."""
    found = []
    for mod_name, mod in list(sys.modules.items()):
        if not mod_name.startswith("pathcover"):
            continue
        for attr, value in vars(mod).items():
            members = vars(value).items() if isinstance(value, type) else [(None, value)]
            for sub, v in members:
                if hasattr(v, "__perfbench_wrapped__"):
                    found.append(f"{mod_name}.{attr}" + (f".{sub}" if sub else ""))
    return found


def test_tracer_restores_every_patched_name():
    originals = [(resolve(m, p), getattr(*resolve(m, p))) for m, p, _, _ in TARGETS]
    with Tracer():
        for (owner, attr), fn in originals:
            assert getattr(owner, attr) is not fn
        assert _wrapped_names()
    for (owner, attr), fn in originals:
        assert getattr(owner, attr) is fn, f"{owner}.{attr} not restored"
    assert _wrapped_names() == []


def test_tracer_restores_after_an_exception():
    with pytest.raises(RuntimeError):
        with Tracer():
            raise RuntimeError("boom")
    assert _wrapped_names() == []


def test_self_time_subtracts_the_union_of_children():
    tr = Tracer(targets=())
    tr.spans = [
        Span(0, "root", 1, None, 0.0, 10.0),
        # two overlapping children on other threads cover [1, 6]
        Span(1, "a", 2, 0, 1.0, 5.0),
        Span(2, "b", 3, 0, 2.0, 6.0),
        Span(3, "a.child", 2, 1, 1.5, 2.5),
    ]
    selfs = tr.self_times()
    assert selfs == pytest.approx({0: 5.0, 1: 3.0, 2: 4.0, 3: 1.0})


def test_worker_thread_spans_attach_to_the_callers_open_span():
    tr = Tracer(targets=())
    with tr:
        with tr.span("outer"):
            t = threading.Thread(target=lambda: _one_span(tr, "inner"))
            t.start()
            t.join(timeout=10)
            assert not t.is_alive()
    outer = next(s for s in tr.spans if s.name == "outer")
    inner = next(s for s in tr.spans if s.name == "inner")
    assert inner.parent == outer.sid and inner.thread != outer.thread


def _one_span(tr: Tracer, name: str) -> None:
    with tr.span(name):
        time.sleep(0.001)


def test_structured_c_gives_back_the_clique_degree():
    for n, k in ((1200, 1199), (1200, 299)):
        c = workloads.ratio_for_degree(n, k)
        assert pathcover.degree_from_ratio(n, c) == k
    assert pathcover.degree_from_ratio(1200, 1199 / 1200) != 1199


def test_workload_names_match_benchmark_json():
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(bench_run.WORKLOADS) == list(workloads.WORKLOADS)


def test_tiny_library_run_reports_every_metric():
    run = workloads.measure(TINY_LIBRARY, seed=3, rounds=2)
    assert run.rounds == 2 and len(run.trials) == 4
    assert not any(t.error for t in run.trials)
    metrics, _ = workloads.end_to_end(run)
    assert ["setup_s", *metrics] == [m["name"] for m in SPEC["end_to_end"]]
    assert all(v > 0 for v, _ in metrics.values())

    tr = Tracer()
    plain, traced = workloads.measure_traced(TINY_LIBRARY, seed=3, rounds=1, tracer=tr)
    assert plain.digest() == traced.digest() == run.digest(run.first_round)
    layers, _ = workloads.per_layer(tr, plain, traced, TINY_LIBRARY.threads)
    assert list(layers) == [m["name"] for m in SPEC["per_layer"]]
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert all(units[k] == u for k, (_, u) in layers.items())
    assert layers["report.regularity_route_frac"][0] == 0.5
    assert layers["pipeline.connect_paths.merges"][0] > 0
    assert _wrapped_names() == []


def test_tiny_sweep_audits_each_cli_row():
    run = workloads.measure(TINY_SWEEP, seed=5, rounds=2)
    trials = 5 * run.rounds
    assert len(run.trials) == len(run.cover_s) == len(run.generate_s) == trials
    assert run.mismatches == 0 and not any(t.error for t in run.trials)
    tr = Tracer()
    plain, traced = workloads.measure_traced(TINY_SWEEP, seed=5, rounds=1, tracer=tr)
    assert plain.digest() == traced.digest() == run.digest(run.first_round)
    layers, _ = workloads.per_layer(tr, plain, traced, TINY_SWEEP.threads)
    assert layers["cli.bench.wall_s"][0] > 0
    assert 0 < layers["cli.bench.pool_efficiency"][0]
    assert _wrapped_names() == []


def test_route_guard_fails_loudly():
    wl = workloads.LibraryWorkload(
        # K_120 is too small for the regularity route
        [workloads.Cell("disjoint-cliques", 120, 119, workloads.ratio_for_degree(120, 119), needs_route=True)],
        round_s=1.0,
    )
    with pytest.raises(workloads.GuardError):
        workloads.measure(wl, seed=1, rounds=2)


def test_fails_without_the_library_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    cmd = SPEC["command"] + ["--workload", "sweep-600", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_command_prints_every_end_to_end_metric():
    cmd = SPEC["command"] + ["--workload", "sweep-600", "--seed", "2", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert "digest sweep-600 seed=2" in proc.stdout
