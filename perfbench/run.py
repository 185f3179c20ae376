"""pathcover benchmark: one workload per run, in a fresh child process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: the library is imported from ./src, never
from an installed copy. With --trace 0 the child measures the end-to-end
metrics untraced; with --trace 1 it wraps the library's public functions in
spans (perfbench/tracer.py) and reports per-layer metrics. Every cover is
re-audited. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. The exit code is 0 only when
every trial produced a cover that passed its audit.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("regular-2400", "sweep-600", "structured")
SETUP_PROBES = 7
DEADLINE_S = 170


def child_env() -> dict:
    env = dict(os.environ)
    # let the untimed probe write bytecode caches, as Python does by default,
    # so that setup_s times a warm import rather than a compile of src/
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup_seconds(env: dict) -> float:
    """Median time from starting a fresh process until it has imported numpy
    and pathcover and could start its first trial. One untimed probe first
    writes the bytecode caches."""
    cmd = [sys.executable, str(HERE / "workloads.py"), "--probe"]

    def probe() -> float:
        # the probe prints the wall clock once its imports are done; timing
        # the whole subprocess call would also count interpreter teardown and
        # the 50 ms polling steps of a wait with a timeout
        t0 = time.time()
        out = subprocess.run(
            cmd, env=env, cwd=ROOT, check=True, timeout=60, stdout=subprocess.PIPE, text=True
        ).stdout
        return float(out.split()[-1]) - t0

    probe()
    return statistics.median(probe() for _ in range(SETUP_PROBES))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    start = time.perf_counter()
    if not (ROOT / "src" / "pathcover" / "__init__.py").is_file():
        print(f"error: no pathcover sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = child_env()
    setup = setup_seconds(env) if not args.trace else None
    cmd = [
        sys.executable, str(HERE / "workloads.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=DEADLINE_S - (time.perf_counter() - start),
        )
    except subprocess.TimeoutExpired:
        print(f"error: {args.workload} did not finish within {DEADLINE_S} s", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"error: {args.workload} exited {proc.returncode}", file=sys.stderr)
        return proc.returncode if proc.returncode > 0 else 1
    res = json.loads(proc.stdout.splitlines()[-1])
    metrics = res["metrics"]
    if setup is not None:
        metrics = {"setup_s": {"value": setup, "unit": "s"}, **metrics}
    for line in res["notes"]:
        print(line)
    for name, m in metrics.items():
        print(f"  {name:45s} {m['value']:.6g} {m['unit']}")
    result = {key: res[key] for key in ("correct", "attempted", "failed")}
    result["metrics"] = metrics
    print(json.dumps(result))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
