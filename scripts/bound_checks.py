#!/usr/bin/env python3
"""Exact-oracle battery: the n/(k+1) path-cover bound on sampled regular
graphs, matching value vs deficiency, and binomial tails vs their
exponential bounds. Runs `pathcover oracle` once per check and exits 1 if
any check fails.

    python scripts/bound_checks.py
    python scripts/bound_checks.py --k 4 --n 10 --samples 500
"""

import argparse
import sys

from pathcover.cli import main as pathcover


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--k", type=int, default=3)
    ap.add_argument("--n", type=int, default=8)
    ap.add_argument("--samples", type=int, default=200)
    ap.add_argument("--tail-n-max", type=int, default=25)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    samples, seed = str(args.samples), str(args.seed)
    checks = [
        ["conjecture", "--k", str(args.k), "--n", str(args.n), "--samples", samples, "--seed", seed],
        ["berge-tutte", "--n-max", "7", "--exhaustive", "--samples", samples, "--seed", seed],
        ["chernoff", "--n-max", str(args.tail_n_max)],
    ]
    codes = [pathcover(["oracle", *check]) for check in checks]
    return 0 if all(code == 0 for code in codes) else 1


if __name__ == "__main__":
    sys.exit(main())
