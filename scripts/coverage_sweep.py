#!/usr/bin/env python3
"""Sweep the covering pipeline over degree ratios, orders, and seeds.

Runs `pathcover bench` once over the whole grid, writes its CSV, and prints
a per-cell success summary on stderr. Exits 1 if any cell succeeds below 90%.
Typical runs:

    python scripts/coverage_sweep.py --out sweep.csv
    python scripts/coverage_sweep.py --c 0.3,0.45 --n 600 --seeds 0..49 --bipartite
"""

import argparse
import io
import sys
from collections import defaultdict
from contextlib import redirect_stdout

from pathcover.cli import main as pathcover


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--c", default="0.3,0.45,0.6")
    ap.add_argument("--n", default="200,600")
    ap.add_argument("--seeds", default="0..49")
    ap.add_argument("--alpha", type=float, default=0.1)
    ap.add_argument("--bipartite", action="store_true")
    ap.add_argument("--timing", choices=("wall", "none"), default="wall")
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    argv = ["bench", "--c", args.c, "--n", args.n, "--seeds", args.seeds]
    argv += ["--alpha", str(args.alpha), "--timing", args.timing]
    if args.bipartite:
        argv.append("--bipartite")
    csv = io.StringIO()
    with redirect_stdout(csv):
        code = pathcover(argv)
    if code:
        return code
    text = csv.getvalue()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    cells = defaultdict(lambda: [0, 0])
    for row in text.splitlines()[1:]:
        fields = row.split(",")
        cell = cells[(float(fields[4]), int(fields[2]))]
        cell[0] += fields[-1] == "true"
        cell[1] += 1
    worst = 1.0
    for (c, n), (ok, total) in sorted(cells.items()):
        rate = ok / total
        worst = min(worst, rate)
        print(f"c={c} n={n}: {ok}/{total} ({rate:.0%})", file=sys.stderr)
    return 0 if worst >= 0.9 else 1


if __name__ == "__main__":
    sys.exit(main())
