#!/usr/bin/env python3
"""Load-controlled nonlinear campaign on the bilinear-material ladder truss.

Default is the full 30x150 scale (9300 DOFs, 13650 bars, final yielded-member
counts 1691/2567/9116 for yield stresses 45/25/5); --reduced runs the 30x30
variant where all three backends are quick to compare.
"""

import argparse
import sys

from reanalyze.cli import run


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results")
    parser.add_argument("--reduced", action="store_true", help="30x30 scale")
    parser.add_argument("--backends", nargs="+", default=["regular"],
                        choices=("regular", "reduction", "sri"))
    args = parser.parse_args()
    n_floor = 30 if args.reduced else 150
    sigma_y = [5.0] if args.reduced else [45.0, 25.0, 5.0]
    config = {"scenarios": [{
        "id": f"ladder-nl-{30}x{n_floor}",
        "model": {"generator": "truss", "n_span": 30, "n_floor": n_floor,
                  "area": 200, "load": 500, "material": {"e0": 2e5, "et": 0.3e5}},
        "report": {"nodes": ["B"]},
        "nonlinear": {"sigma_y": sigma_y, "backends": args.backends, "n_steps": 20},
    }]}
    return run("nonlinear", config, args.out)


if __name__ == "__main__":
    sys.exit(main())
