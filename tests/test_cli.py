import os
import pathlib
import subprocess
import sys

import pytest

from pathcover.cli import CSV_HEADER, _berge_tutte_instances, main, read_cover_file, write_cover_file
from pathcover.graph import read_graph
from pathcover.hamilton import Path
from pathcover.pipeline import PathCover


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_generate_random_regular(tmp_path, capsys):
    out = tmp_path / "g.txt"
    code, _, _ = run(
        capsys, "generate", "--family", "random-regular", "--n", "60", "--c", "0.3",
        "--seed", "1", "-o", str(out),
    )
    assert code == 0
    g = read_graph(out.read_text())
    assert g.n == 60 and all(d == 18 for d in g.degrees())


def test_generate_tight_family(capsys):
    code, out, _ = run(capsys, "generate", "--family", "disjoint-cliques", "--n", "8", "--k", "3")
    assert code == 0
    g = read_graph(out)
    assert g.m == 12 and all(d == 3 for d in g.degrees())


def test_generate_parity_error_is_param_error(capsys):
    code, _, err = run(capsys, "generate", "--family", "random-regular", "--n", "5", "--k", "3")
    assert code == 2
    assert "even" in err


def test_generate_needs_k_or_c(capsys):
    code, _, err = run(capsys, "generate", "--family", "random-regular", "--n", "6")
    assert code == 2
    assert "provide --k or --c" in err


def test_generate_rejects_both_k_and_c(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--family", "random-regular", "--n", "10", "--k", "3", "--c", "0.9"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_generate_rejects_seed_outside_64_bits(capsys, seed):
    # 2**64 - 1 and -1 would otherwise print the same graph
    code, out, err = run(capsys, "generate", "--family", "random-regular", "--n", "6", "--k", "2", "--seed", seed)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "seed must be in [0, 2**64)" in err


def test_cover_and_verify_flow(tmp_path, capsys):
    gfile = tmp_path / "g.txt"
    cfile = tmp_path / "c.txt"
    code, _, _ = run(
        capsys, "generate", "--family", "random-regular", "--n", "80", "--c", "0.55",
        "--seed", "3", "-o", str(gfile),
    )
    assert code == 0
    code, _, err = run(
        capsys, "cover", str(gfile), "--c", "0.55", "--alpha", "0.1", "--seed", "5",
        "-o", str(cfile),
    )
    assert code == 0
    assert "method=" in err
    lines = [l for l in cfile.read_text().splitlines() if l and not l.startswith("#")]
    assert len(lines) == 1  # floor(1/0.55) = 1
    code, out, _ = run(capsys, "verify", str(gfile), str(cfile), "--max-count", "1",
                       "--max-uncovered", "8")
    assert code == 0
    assert "[PASS]" in out


def test_cover_bipartite_flag_rejects_plain_graph(tmp_path, capsys):
    gfile = tmp_path / "g.txt"
    run(
        capsys, "generate", "--family", "random-regular", "--n", "40", "--c", "0.5",
        "--seed", "2", "-o", str(gfile),
    )
    code, _, err = run(capsys, "cover", str(gfile), "--bipartite")
    assert code == 2
    assert "bipartite" in err


def test_cover_bipartite_graph(tmp_path, capsys):
    gfile = tmp_path / "g.txt"
    run(
        capsys, "generate", "--family", "random-bipartite-regular", "--n", "80",
        "--c", "0.3", "--seed", "4", "-o", str(gfile),
    )
    code, out, err = run(capsys, "cover", str(gfile), "--c", "0.3", "--bipartite")
    assert code == 0
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert len(lines) <= 1  # floor(1/(2*0.3)) = 1


@pytest.mark.parametrize("family, k", [("random-regular", 41), ("disjoint-cliques", 119)])
def test_cover_derives_c_that_gives_back_the_degree(tmp_path, capsys, family, k):
    # 41/120 and 119/120 round up at 9 decimals, and ceil(c*n) would be k+1
    gfile = tmp_path / "g.txt"
    code, _, _ = run(capsys, "generate", "--family", family, "--n", "120", "--k", str(k), "-o", str(gfile))
    assert code == 0
    code, _, err = run(capsys, "cover", str(gfile), "-o", str(tmp_path / "c.txt"))
    assert code == 0
    assert "success=True" in err


def test_verify_catches_overlap(tmp_path, capsys):
    gfile = tmp_path / "g.txt"
    cfile = tmp_path / "c.txt"
    gfile.write_text("4 4\n0 1\n1 2\n2 3\n0 3\n")
    cfile.write_text("0 1\n1 2\n")
    code, out, _ = run(capsys, "verify", str(gfile), str(cfile))
    assert code == 1
    assert "vertex 1" in out


def test_verify_catches_non_edge(tmp_path, capsys):
    gfile = tmp_path / "g.txt"
    cfile = tmp_path / "c.txt"
    gfile.write_text("3 1\n0 1\n")
    cfile.write_text("0 1 2\n")
    code, out, _ = run(capsys, "verify", str(gfile), str(cfile))
    assert code == 1
    assert "(1,2)" in out


def test_verify_reports_repeated_vertex(tmp_path, capsys):
    gfile = tmp_path / "g.txt"
    cfile = tmp_path / "c.txt"
    gfile.write_text("3 2\n0 1\n1 2\n")
    cfile.write_text("0 1 0\n")
    code, out, _ = run(capsys, "verify", str(gfile), str(cfile))
    assert code == 1
    assert "[FAIL] distinct-vertices" in out
    assert "[PASS] disjoint" in out
    with pytest.raises(ValueError):
        Path((0, 1, 0))  # library paths still reject the repeat


def test_bench_row_arity(capsys):
    code, out, _ = run(
        capsys, "bench", "--c", "0.45,0.6", "--n", "40,60", "--seeds", "0..2",
        "--timing", "none", "--threads", "1",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 2 * 2 * 3


def test_bench_deterministic_and_thread_invariant(capsys):
    args = ["bench", "--c", "0.5", "--n", "40", "--seeds", "5..5", "--timing", "none"]
    a = run(capsys, *args, "--threads", "1")[1]
    b = run(capsys, *args, "--threads", "1")[1]
    c = run(capsys, *args, "--threads", "4")[1]
    assert a == b == c


def test_bench_rejects_descending_seed_range(capsys):
    code, out, err = run(capsys, "bench", "--c", "0.5", "--n", "40", "--seeds", "3..1", "--threads", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "3..1" in err


@pytest.mark.parametrize("seeds", ["-2..-1", "-1..0", f"{2**64 - 1}..{2**64}"])
def test_bench_rejects_seed_range_outside_64_bits(capsys, seeds):
    code, out, err = run(capsys, "bench", "--c", "0.5", "--n", "40", f"--seeds={seeds}", "--threads", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "seed must be in [0, 2**64)" in err


def test_bench_success_consistent_with_verify(tmp_path, capsys):
    from pathcover.generators import GenSpec, generate, degree_from_ratio
    from pathcover.pipeline import PipelineConfig, path_cover, verify_cover, paths_limit

    code, out, _ = run(
        capsys, "bench", "--c", "0.5", "--n", "50", "--seeds", "0..4",
        "--timing", "none", "--threads", "1",
    )
    rows = out.strip().splitlines()[1:]
    for row in rows:
        fields = row.split(",")
        seed, n, c = int(fields[0]), int(fields[2]), float(fields[4])
        g = generate(GenSpec(n, degree_from_ratio(n, c), "random-regular", seed=seed))
        cover, _ = path_cover(g, PipelineConfig.derive(c, 0.1, seed=seed))
        chk = verify_cover(g, cover, max_count=paths_limit(c), max_uncovered=int(0.1 * n))
        assert (fields[-1] == "true") == chk.ok


def test_oracle_conjecture_exit_zero(capsys):
    code, out, _ = run(capsys, "oracle", "conjecture", "--k", "3", "--n", "8", "--samples", "10")
    assert code == 0
    assert "violations=0" in out


def test_oracle_chernoff_exit_zero(capsys):
    code, out, _ = run(capsys, "oracle", "chernoff", "--n-max", "8")
    assert code == 0
    assert "violations=0" in out


def test_oracle_berge_tutte_exhaustive_small(capsys):
    code, out, _ = run(capsys, "oracle", "berge-tutte", "--n-max", "4", "--exhaustive")
    assert code == 0
    assert "mismatches=0" in out


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
@pytest.mark.parametrize(
    "command",
    [
        ["oracle", "conjecture", "--k", "3", "--n", "8", "--samples", "5"],
        ["oracle", "berge-tutte", "--n-max", "4", "--samples", "3", "--exhaustive"],
    ],
)
def test_oracle_rejects_seed_outside_64_bits(capsys, command, seed):
    code, out, err = run(capsys, *command, f"--seed={seed}")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "seed must be in [0, 2**64)" in err


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_berge_tutte_instances_reject_seed_outside_64_bits(seed):
    with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\)"):
        next(_berge_tutte_instances(4, True, 3, seed))


def test_bad_graph_file_is_param_error(tmp_path, capsys):
    gfile = tmp_path / "g.txt"
    gfile.write_text("2 1\n0 0\n")
    code, _, err = run(capsys, "cover", str(gfile))
    assert code == 2
    assert "line 2" in err


def test_cover_file_round_trip(tmp_path):
    g = read_graph("5 4\n0 1\n1 2\n2 3\n3 4\n")
    cover = PathCover([Path((0, 1, 2)), Path((3, 4))], frozenset())
    text = write_cover_file(cover)
    back = read_cover_file(text, g)
    assert [p.vertices for p in back.paths] == [(0, 1, 2), (3, 4)]
    assert back.uncovered == frozenset()


def test_empty_cover_file_is_zero_paths(tmp_path):
    g = read_graph("3 0\n")
    back = read_cover_file("# nothing\n", g)
    assert back.paths == [] and back.uncovered == frozenset({0, 1, 2})


def test_config_file_precedence(tmp_path, capsys):
    gfile = tmp_path / "g.txt"
    run(
        capsys, "generate", "--family", "random-regular", "--n", "60", "--c", "0.5",
        "--seed", "7", "-o", str(gfile),
    )
    cfgfile = tmp_path / "cover.cfg"
    cfgfile.write_text("alpha=0.2\nc=0.5\n")
    # flag alpha wins over the file value; file provides c
    code, _, err = run(
        capsys, "cover", str(gfile), "--config", str(cfgfile), "--alpha", "0.15",
    )
    assert code == 0
    assert "alpha=0.15" in err
    assert "c=0.5" in err


@pytest.mark.parametrize(
    "text, bad_line, fragment",
    [
        ("c=0.5\nalhpa=0.2\n", 2, "unknown key 'alhpa'"),
        ("# seeds come from --seed\nseed=3\n", 2, "unknown key 'seed'"),
        ("t=2.7\n", 1, "t must be an integer"),
        ("c=0.5\n\nalpha\n", 3, "expected key=value"),
        ("alpha=\n", 1, "alpha must be a number"),
    ],
)
def test_config_file_rejects_bad_lines(tmp_path, capsys, text, bad_line, fragment):
    gfile = tmp_path / "g.txt"
    run(capsys, "generate", "--family", "random-regular", "--n", "40", "--c", "0.5", "-o", str(gfile))
    cfgfile = tmp_path / "cover.cfg"
    cfgfile.write_text(text)
    code, out, err = run(capsys, "cover", str(gfile), "--config", str(cfgfile))
    assert code == 2
    assert out == ""
    assert f"{cfgfile}, line {bad_line}: " in err and fragment in err


def test_config_file_accepts_integral_t(tmp_path, capsys):
    gfile = tmp_path / "g.txt"
    run(capsys, "generate", "--family", "random-regular", "--n", "40", "--c", "0.5", "-o", str(gfile))
    cfgfile = tmp_path / "cover.cfg"
    cfgfile.write_text("t = 4.0\n")
    code, _, err = run(capsys, "cover", str(gfile), "--config", str(cfgfile))
    assert code in (0, 1)
    assert "error" not in err


@pytest.mark.parametrize(
    "flags, fragment",
    [
        (["--c", "0.5", "--n", "40", "--alpha", "2"], "alpha must be in (0, 1]"),
        (["--c", "0.5", "--n", "40,0"], "need n > 0"),
        (["--c", "1.5", "--n", "40"], "c must be in (0, 1]"),
        # k = ceil(0.5 * 41) = 21 makes n*k odd; the bipartite family needs even n
        (["--c", "0.5", "--n", "41"], "n*k must be even"),
        (["--c", "0.3", "--n", "41", "--bipartite"], "n must be even"),
    ],
)
def test_bench_parameter_error_exits_2_before_any_trial(capsys, flags, fragment):
    code, out, err = run(capsys, "bench", *flags, "--seeds", "0..1", "--timing", "none", "--threads", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and fragment in err


def test_python_dash_m_runs_the_cli():
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "pathcover", "bench", "--c", "0.3", "--n", "40", "--seeds", "0", "--timing", "none"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(CSV_HEADER)
