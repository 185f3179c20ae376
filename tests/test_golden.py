"""Byte-for-byte regression against outputs checked in under tests/golden/.

Refactors of the pipeline must not change what it emits: the bench CSV with
`--timing none`, the run report and the cover itself. A deliberate behaviour
change regenerates these files in the same commit and says why.
"""

from pathlib import Path as FsPath

import pytest

from pathcover.cli import main, write_cover_file
from pathcover.generators import GenSpec, extremal_family
from pathcover.graph import Graph
from pathcover.pipeline import PipelineConfig, path_cover, path_cover_bipartite

GOLDEN = FsPath(__file__).parent / "golden"


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
