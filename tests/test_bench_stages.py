"""Smoke tests of scripts/bench_stages.py: one small cell through its child
process, for one tree and for two; the tree order and the check that both
trees give the same covers with `measure` faked."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).parents[1] / "scripts" / "bench_stages.py"
GOLDEN = Path(__file__).parent / "golden" / "bench_cell_covers.txt"
OUTCOME = {"method": "greedy-fallback", "paths": 1, "uncovered": 0, "audit_ok": True}


def _golden_digest(name: str) -> str:
    (digest,) = [line.split()[1] for line in GOLDEN.read_text().splitlines() if line.startswith(f"{name} ")]
    return digest


def _script():
    spec = importlib.util.spec_from_file_location("bench_stages", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_bench_stages_writes_one_cell(tmp_path, capsys):
    script = _script()
    argv = ["--label", "smoke", "--cells", "regular-600-c0.3"]
    assert script.main([*argv, "--commit", "abc123", "--out-dir", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "BENCH_smoke.json").read_text())
    assert doc["label"] == "smoke" and doc["commit"] == "abc123" and doc["runs"] == script.RUNS
    assert set(doc["machine"]) == {"nproc", "python", "numpy"}
    (cell,) = doc["cells"]
    assert (cell["name"], cell["family"], cell["n"], cell["k"]) == ("regular-600-c0.3", "random-regular", 600, 180)
    assert cell["outcome"] == {**OUTCOME, "cover_sha256": _golden_digest("regular-600-c0.3")}
    assert set(cell["ms"]) == {"generate", "cover", "verify"}
    assert list(cell["stage_ms"]) == list(script.STAGES)
    for summary in (*cell["ms"].values(), *cell["stage_ms"].values()):
        assert 0 <= summary["q1"] <= summary["median"] <= summary["q3"]
    # the wrappers saw the reservoir and the partition, which run on every cover
    assert cell["stage_ms"]["_reservoir_relaxed"]["median"] > 0
    assert cell["stage_ms"]["_partition_with_counts"]["median"] > 0
    assert sum(s["median"] for s in cell["stage_ms"].values()) <= cell["ms"]["cover"]["q3"]
    assert len(cell["cover_ms_runs"]) == script.RUNS and cell["peak_rss_mb"] > 0


def test_bench_stages_times_two_trees(tmp_path, capsys):
    # --src twice, one --label and --commit each: one BENCH file per tree
    script = _script()
    src = str(SCRIPT.parents[1] / "src")
    argv = ["--cells", "regular-600-c0.3", "--out-dir", str(tmp_path)]
    trees = ["--label", "one", "--src", src, "--commit", "c1", "--label", "two", "--src", src, "--commit", "c2"]
    assert script.main([*argv, *trees]) == 0
    assert capsys.readouterr().out.split() == [str(tmp_path / "BENCH_one.json"), str(tmp_path / "BENCH_two.json")]
    for label, commit in (("one", "c1"), ("two", "c2")):
        doc = json.loads((tmp_path / f"BENCH_{label}.json").read_text())
        assert (doc["label"], doc["commit"], doc["runs"]) == (label, commit, script.RUNS)
        (cell,) = doc["cells"]
        assert cell["name"] == "regular-600-c0.3"
        assert cell["outcome"] == {**OUTCOME, "cover_sha256": _golden_digest("regular-600-c0.3")}


def test_bench_stages_alternates_which_tree_goes_first(tmp_path, monkeypatch):
    script = _script()
    calls = []
    monkeypatch.setattr(
        script, "measure", lambda cell, src: calls.append((cell.name, src.name)) or _fake_cell(cell.name, "same")
    )
    cells = "regular-600-c0.3,regular-600-c0.45,regular-600-c0.6"
    trees = ["--label", "one", "--src", str(tmp_path / "a"), "--label", "two", "--src", str(tmp_path / "b")]
    assert script.main(["--cells", cells, "--commit", "c1", "--commit", "c2", "--out-dir", str(tmp_path), *trees]) == 0
    assert [src for _, src in calls] == ["a", "b", "b", "a", "a", "b"]
    assert [name for name, _ in calls[::2]] == cells.split(",")


def _fake_cell(name: str, digest: str) -> dict:
    return {"name": name, "outcome": {**OUTCOME, "cover_sha256": digest}}


def test_bench_stages_exits_1_on_covers_that_moved_unexpected(tmp_path, monkeypatch, capsys):
    # tree b moves the covers of the two c0.45 cells and keeps the third
    script = _script()
    moved = {"regular-600-c0.45", "bipartite-600-c0.45"}
    monkeypatch.setattr(
        script, "measure", lambda cell, src: _fake_cell(cell.name, src.name if cell.name in moved else "same")
    )
    cells = "regular-600-c0.3,regular-600-c0.45,bipartite-600-c0.45"
    trees = ["--label", "one", "--src", str(tmp_path / "a"), "--label", "two", "--src", str(tmp_path / "b")]
    argv = ["--cells", cells, "--commit", "c1", "--commit", "c2", "--out-dir", str(tmp_path), *trees]
    for expect, code in (
        ([], 1),
        (["--expect-moved", "regular-600-c0.45"], 1),
        (["--expect-moved", "regular-600-c0.45,bipartite-600-c0.45,regular-600-c0.3"], 1),
        (["--expect-moved", "bipartite-600-c0.45,regular-600-c0.45"], 0),
    ):
        assert script.main([*argv, *expect]) == code, expect
        out = capsys.readouterr().out.splitlines()
        assert out[2:] == ["cover moved: regular-600-c0.45", "cover moved: bipartite-600-c0.45"]
    # the BENCH files are written either way, each with its own digests
    doc = json.loads((tmp_path / "BENCH_two.json").read_text())
    assert [cell["outcome"]["cover_sha256"] for cell in doc["cells"]] == ["same", "b", "b"]


def test_bench_stages_rejects_expect_moved_without_two_trees(tmp_path):
    script = _script()
    with pytest.raises(SystemExit, match="needs two trees"):
        script.main(["--label", "one", "--expect-moved", "regular-600-c0.3", "--out-dir", str(tmp_path)])
    trees = ["--label", "one", "--src", str(tmp_path / "a"), "--label", "two", "--src", str(tmp_path / "b")]
    with pytest.raises(SystemExit, match="unknown cells: regular-7"):
        script.main([*trees, "--expect-moved", "regular-7", "--out-dir", str(tmp_path)])


def test_bench_stages_cells_cover_the_roadmap_grid():
    cells = _script().CELLS
    assert len(cells) == 15
    route = cells["regular-2400-c0.6-route"]
    assert (route.alpha, route.overrides) == (0.3, {"d": 0.55, "eps": 0.09, "t": 4})
    assert (cells["cliques-1200-k1199"].family, cells["regular-10000-c0.3"].n) == ("disjoint-cliques", 10_000)
