#!/usr/bin/env python3
"""Reanalysis campaigns on the frame grids.

Part 1: homogeneous 50x20 frame, beam subdivision sweep (node-B displacements
are subdivision-invariant).  Part 2: depth-graded 4x4 frame, power-law
exponent sweep under the simplified coupling convention that published
benchmark solutions use.
"""

import argparse
import sys

from reanalyze.cli import run


def build_config(coupling):
    scenarios = []
    for n_sb in (1, 2, 3, 4):
        scenarios.append({
            "id": f"frame-nsb{n_sb}",
            "model": {"generator": "frame", "n_span": 50, "n_floor": 20,
                      "n_sb": n_sb, "n_sc": 1},
            "modification": {"e_lower": 4000, "e_upper": 36000, "target": "E"},
            "partition": "default",
            "solvers": {"methods": ["fdp", "pcg", "sri", "conventional"], "tol": 1e-12},
            "report": {"nodes": ["B"]},
            "repeat": 1,
        })
    for p in (0.5, 1.0, 2.0):
        scenarios.append({
            "id": f"fg-frame-p{p:g}",
            "model": {"generator": "frame", "n_span": 4, "n_floor": 4,
                      "n_sb": 8, "n_sc": 8,
                      "material": {"e_us": 20000, "e_ls": 20000, "p": 1.0,
                                   "fg_coupling": coupling}},
            "modification": {"e_lower": 4000, "e_upper": 36000, "target": "E_US", "p": p},
            "partition": "default",
            "solvers": {"methods": ["fdp", "pcg", "sri", "conventional"], "tol": 1e-12},
            "report": {"nodes": ["B"]},
            "repeat": 1,
        })
    return {"scenarios": scenarios}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results")
    parser.add_argument("--coupling", choices=("simplified", "exact"),
                        default="simplified",
                        help="coupling-moment convention for the graded frames")
    args = parser.parse_args()
    return run("reanalyze", build_config(args.coupling), args.out)


if __name__ == "__main__":
    sys.exit(main())
