#!/usr/bin/env python3
"""Census of assembly-mode counts over random slider triples.

Samples joint vectors uniformly, runs the forward kinematics, and prints a
histogram of the number of assembly modes plus how often a unique reachable
mode exists.  On the bundled synthetic geometry the count never exceeds 6;
slider triples produced by working-region poses always have exactly one
reachable mode, while arbitrary triples may have none (no assembly, or all
modes sign-filtered) and, rarely, more than one (reported as ambiguous by
the selection API rather than resolved).
"""

import argparse
import sys

import numpy as np

from pkmkin import DEFAULT_SYNTHETIC, ParallelJoints, enumerate_fk
from pkmkin.cli import read_geometry_or_report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--geometry", help="geometry file (default: built-in synthetic)")
    parser.add_argument("--samples", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rho-min", type=float, default=-200.0)
    parser.add_argument("--rho-max", type=float, default=1500.0)
    args = parser.parse_args(argv)

    geom = read_geometry_or_report(args.geometry) if args.geometry else DEFAULT_SYNTHETIC
    if geom is None:
        return 1
    rng = np.random.default_rng(args.seed)
    hist = {}
    reachable_hist = {}
    for _ in range(args.samples):
        joints = ParallelJoints(*rng.uniform(args.rho_min, args.rho_max, size=3))
        modes = enumerate_fk(geom, joints)
        hist[len(modes)] = hist.get(len(modes), 0) + 1
        n_reach = sum(m.reachable for m in modes)
        reachable_hist[n_reach] = reachable_hist.get(n_reach, 0) + 1

    print(f"samples: {args.samples}  seed: {args.seed}")
    print("assembly modes  count")
    for k in sorted(hist):
        print(f"{k:14d}  {hist[k]}")
    print("reachable modes count")
    for k in sorted(reachable_hist):
        print(f"{k:14d}  {reachable_hist[k]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
