#!/usr/bin/env python3
"""SHA-256 digests of the public solvers' outputs on seeded inputs.

Draws working-region points, working-branch poses, tool poses, slider
triples and polynomials from --seed on the built-in synthetic geometry,
runs each public solver on them and prints one line per solver: its name
and the SHA-256 of the `repr` of all its outputs.  Two source trees whose
lines are equal give the same floats, bit for bit, on these inputs; run it
on both sides of a change that claims the same bits.  The tool poses and
the working joints come from iso-ellipse points and joints_from_pose, not
from enumerate_ik, so a change to the IK alone moves only its own lines
(enumerate_ik, select_working_solution, and real_roots through the cubics).
"""

import argparse
import hashlib
import math
import sys

import numpy as np

from pkmkin import (DEFAULT_SYNTHETIC, SIXTEEN_BRANCH_REGION, ConfigurationIndices,
                    ParallelJoints, PlatformPose, Polynomial, coupling_cubic,
                    enumerate_fk, enumerate_ik, iso_ellipse, joints_from_pose,
                    newton_fk, newton_fk_batch, octic_from_joints, real_roots,
                    select_working_solution, tilt_polynomial, tool_ik,
                    tool_pose_from_platform)

NEWTON_STARTS = 100
WORKING = ConfigurationIndices(-1, -1, -1)


def _working_poses(geom, rng, n):
    """n working-branch poses and their joints, drawn without the IK: alpha
    ~ +-U(0.05, 0.2), the working orientations of the 16-branch region; a
    point of its iso-ellipse at |phi| ~ U(pi/6, 5 pi/6), on the side where
    the sign rule gives s1 = -1; z as in the region; joints_from_pose on the
    working signs."""
    poses = []
    for _ in range(n):
        alpha = rng.uniform(0.05, 0.2) * (1.0 if rng.uniform() < 0.5 else -1.0)
        phi = -math.copysign(rng.uniform(math.pi / 6.0, 5.0 * math.pi / 6.0), alpha)
        x, y = iso_ellipse(geom, alpha).point(phi)
        poses.append(PlatformPose.solved(geom, x, y, rng.uniform(*SIXTEEN_BRANCH_REGION[2]), alpha))
    return poses, [joints_from_pose(geom, pose, WORKING) for pose in poses]


def _inputs(geom, rng):
    """Working-region points, a tool pose (random tilts) per working-branch
    pose, slider triples ~ U(-200, 1500)^3 with rho3 = rho2 on every fourth,
    and the acceptance-5 joint mix (3 of 5 working joints, 2 of 5 random)."""
    points = [tuple(rng.uniform(lo, hi) for lo, hi in SIXTEEN_BRANCH_REGION) for _ in range(200)]
    points = [(x, y if k % 2 else -y, z) for k, (x, y, z) in enumerate(points)]
    poses, working = _working_poses(geom, rng, 100)
    tools = [tool_pose_from_platform(geom, pose, rng.uniform(-0.9, 0.9),
                                     rng.uniform(-math.pi + 0.05, math.pi - 0.05))
             for pose in poses]
    triples = rng.uniform(-200.0, 1500.0, size=(300, 3))
    triples[::4, 2] = triples[::4, 1]
    triples = [ParallelJoints(*map(float, rho)) for rho in triples]
    mix = [working[k] if k % 5 < 3
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
    solutions = [enumerate_ik(geom, *p) for p in points]
    outputs = {
        "tilt_polynomial": tilts,
        "octic_from_joints": octics,
        "real_roots": [real_roots(p) for p in polys],
        "enumerate_ik": solutions,
        "select_working_solution": [select_working_solution(sols, geom) for sols in solutions],
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
