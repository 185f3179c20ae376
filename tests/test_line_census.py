"""`scripts/line_census.py` on a workload whose lines are known."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "line_census.py"
CLI = ROOT / "src" / "pathcover" / "cli.py"


def _load_census():
    spec = importlib.util.spec_from_file_location("line_census", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _line(text: str) -> int:
    """The number of the one line of cli.py that contains `text`."""
    (number,) = [i for i, line in enumerate(CLI.read_text().splitlines(), start=1) if text in line]
    return number


def test_census_of_one_chernoff_run():
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--run", "oracle chernoff --n-max 1"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    out = proc.stdout.splitlines()
    section = out[out.index("pathcover/cli.py") + 1 :]
    section = section[: next(i for i, line in enumerate(section) if not line.startswith(" "))]
    unrun = dict(line.strip().split(": ", 1) for line in section if not line.startswith("    "))

    owners = {}
    for line, (_, owner) in _load_census().executable_lines(CLI).items():
        owners.setdefault(owner, []).append(line)
    first = {name: min(lines) for name, lines in owners.items()}
    last = {name: max(lines) for name, lines in owners.items()}
    # the parser is built and main dispatches; no other function runs but cmd_chernoff and _n_max
    assert set(unrun) == set(owners) - {"build_parser", "BenchRow", "_CoverLine"}
    for name in set(unrun) - {"cmd_chernoff", "_n_max", "main", "<module>"}:
        assert unrun[name].startswith(f"not run {first[name]}-{last[name]}"), name
    # n' = 1 breaks no bound, so only the violation branch is left
    violation = _line("violations += 1")
    assert _line("print(f\"VIOLATION: n'=") == violation + 1
    assert unrun["cmd_chernoff"] == f"not run {violation}-{violation + 1}"
    assert unrun["_n_max"] == f"not run {_line('--n-max must be >= 1')}"
    # main returned the command's code: none of its error exits ran
    assert unrun["main"] == f"not run {_line('except GraphFormatError')}-{last['main']}"
    assert unrun["<module>"] == f"not run {_line('sys.exit(main())')}"
    assert section[section.index(f"  <module>: {unrun['<module>']}") + 1].startswith("    kept: python -m pathcover.cli")

    total, run, not_run = (int(word.rstrip(",")) for word in out[-1].split() if word.rstrip(",").isdigit())
    assert out[-1] == f"lines: {total} executable, {run} run, {not_run} not run"
    assert total == run + not_run and 0 < run < total
