#!/usr/bin/env python3
"""Emit the two flop-ratio curve families (reduced iteration vs full-system
CG over q/n, and vs the direct path over k/q) as plot-ready CSV."""

import argparse
import sys

from reanalyze.cli import run


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results")
    parser.add_argument("--n", type=int, default=10000, help="system size")
    args = parser.parse_args()
    config = {"scenarios": [{"id": f"flops-n{args.n}",
                             "flops": {"mode": "both", "n": args.n}}]}
    return run("flops", config, args.out)


if __name__ == "__main__":
    sys.exit(main())
