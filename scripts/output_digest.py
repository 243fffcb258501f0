#!/usr/bin/env python3
"""SHA-256 digests of the public solvers' outputs on seeded inputs.

Draws working-region points, tool poses, slider triples and polynomials
from --seed on the built-in synthetic geometry, runs each public solver on
them and prints one line per solver: its name and the SHA-256 of the
`repr` of all its outputs.  Two source trees whose lines are equal give
the same floats, bit for bit, on these inputs; run it on both sides of a
change that claims the same bits.
"""

import argparse
import hashlib
import math
import sys

import numpy as np

from pkmkin import (DEFAULT_SYNTHETIC, SIXTEEN_BRANCH_REGION, ParallelJoints,
                    PlatformPose, Polynomial, coupling_cubic, enumerate_fk,
                    enumerate_ik, newton_fk, newton_fk_batch, octic_from_joints,
                    real_roots, select_working_solution, tilt_polynomial, tool_ik,
                    tool_pose_from_platform)

NEWTON_STARTS = 100


def _inputs(geom, rng):
    """Working-region points, a tool pose per point (random tilts), slider
    triples ~ U(-200, 1500)^3 with rho3 = rho2 on every fourth, and the
    acceptance-5 joint mix (3 of 5 working branches, 2 of 5 random)."""
    points = [tuple(rng.uniform(lo, hi) for lo, hi in SIXTEEN_BRANCH_REGION) for _ in range(200)]
    points = [(x, y if k % 2 else -y, z) for k, (x, y, z) in enumerate(points)]
    working = [select_working_solution(enumerate_ik(geom, *p), geom) for p in points]
    tools = [tool_pose_from_platform(geom, PlatformPose.solved(geom, *p, sol.alpha),
                                     rng.uniform(-0.9, 0.9),
                                     rng.uniform(-math.pi + 0.05, math.pi - 0.05))
             for p, sol in zip(points[:100], working)]
    triples = rng.uniform(-200.0, 1500.0, size=(300, 3))
    triples[::4, 2] = triples[::4, 1]
    triples = [ParallelJoints(*map(float, rho)) for rho in triples]
    mix = [working[k].joints if k % 5 < 3
           else ParallelJoints(*map(float, rng.uniform(-100.0, 1200.0, size=3)))
           for k in range(20)]
    return points, tools, triples, mix


def digests(seed):
    """(solver name, hex digest) per public solver."""
    geom = DEFAULT_SYNTHETIC
    rng = np.random.default_rng(seed)
    points, tools, triples, mix = _inputs(geom, rng)
    tilts = [tilt_polynomial(geom, tool) for tool in tools]
    octics = [octic_from_joints(geom, joints) for joints in triples]
    # real_roots on the characteristic polynomials of those inputs and on
    # random ones of degree 1-12, every third with a root at +0.0 or -0.0
    polys = [coupling_cubic(geom, x, y) for x, y, _ in points] + tilts + octics
    for k in range(600):
        coeffs = rng.normal(size=k % 12 + 2) * 10.0 ** rng.integers(-3, 6)
        if k % 3 == 2:
            coeffs[0] = (0.0, -0.0)[k % 2]
        polys.append(Polynomial(coeffs))
    outputs = {
        "tilt_polynomial": tilts,
        "octic_from_joints": octics,
        "real_roots": [real_roots(p) for p in polys],
        "enumerate_ik": [enumerate_ik(geom, *p) for p in points],
        "tool_ik": [tool_ik(geom, tool) for tool in tools],
        "enumerate_fk": [enumerate_fk(geom, joints) for joints in triples],
        "newton_fk": [newton_fk(geom, joints, NEWTON_STARTS, k) for k, joints in enumerate(mix)],
        "newton_fk_batch": newton_fk_batch(geom, mix, NEWTON_STARTS, range(len(mix))),
    }
    return [(name, hashlib.sha256(repr(out).encode()).hexdigest())
            for name, out in outputs.items()]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    for name, digest in digests(args.seed):
        print(f"{name} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
