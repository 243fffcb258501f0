#!/usr/bin/env python3
"""SHA-256 digests of the public solvers' outputs on seeded inputs.

Draws working-region points, working-branch poses, tool poses, slider
triples and polynomials from --seed on the built-in synthetic geometry,
runs each public solver on them and prints one line per solver: its name
and the SHA-256 of the `repr` of all its outputs.  Two source trees whose
lines are equal give the same floats, bit for bit, on these inputs; run it
on both sides of a change that claims the same bits.  The tool poses and
the working joints come from iso-ellipse points and joints_from_pose, not
from enumerate_ik.  So a change to the orientations alone moves only the
enumerate_ik lines, select_working_solution and real_roots (through the
cubics); a change to the branch construction moves tool_ik too, which
builds its branches the same way; and a change to the slider formulas,
which joints_from_pose shares, moves the FK and Newton lines as well,
through the working joints.  A change to the tilt sextic's coefficients
moves tilt_polynomial, real_roots (which solves the sextics too), tool_ik
and the tool-ik calls of cli.  A change to the FK candidate stage (sphere
intersection, rod residuals, prefilter and polish, branch signs) that keeps
the bits moves no line; one that does not moves the enumerate_fk line and
cli, through its fk, tool-fk and roundtrip calls.  A change to how the
octic's coefficients are evaluated (its sums, its monomials) moves
octic_from_joints, real_roots (which solves the octics too), enumerate_fk
and cli.  The enumerate_ik_loci line runs enumerate_ik on the loci its
branch construction special-cases (see _loci_points).

The last line, `cli`, is the SHA-256 of the argv, exit code, stdout and
stderr of a fixed battery of in-process pkmkin.cli.main calls on a temporary
geometry file written from DEFAULT_SYNTHETIC: every solver command in each
format, with and without --select and --deg, no-solution and overflow
inputs, ellipse grids, roundtrip reports with and without failures, usage
errors and --help.  Equal lines mean the same CLI bytes on those calls.
"""

import argparse
import contextlib
import hashlib
import io
import math
import os
import sys
import tempfile
from unittest import mock

import numpy as np

from pkmkin import (DEFAULT_SYNTHETIC, SIXTEEN_BRANCH_REGION, ConfigurationIndices,
                    ParallelJoints, PlatformPose, Polynomial, coupling_cubic,
                    enumerate_fk, enumerate_ik, iso_ellipse, joints_from_pose,
                    newton_fk, newton_fk_batch, octic_from_joints, real_roots,
                    select_working_solution, tilt_polynomial, tool_ik,
                    serialize_geometry, tool_pose_from_platform)
from pkmkin.cli import main as cli_main

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


def _grazing_point(geom):
    """(x, y) on the alpha = 0.3 iso-ellipse where leg III only just fails
    to close: its radicand is about -1e-6 mm^2, inside the grazing clamp,
    so both of its slider signs give one slider.  Bisection on phi in
    (2.8, 3.0), where the radicand changes sign on the synthetic geometry."""
    ell, w = iso_ellipse(geom, 0.3), geom.R2 * math.cos(0.3) - geom.r4

    def radicand(phi):
        x, y = ell.point(phi)
        return geom.L3**2 - (x + geom.D2 - geom.d2)**2 - (y + w)**2

    lo, hi = 2.8, 3.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if radicand(mid) > -1e-6 else (lo, mid)
    return ell.point(hi)


def _loci_points(geom, rng):
    """Points on the loci the IK branch construction special-cases: the
    y_p = 0 axis, where alpha = 0 and pi carry 8 branches each, and its
    points where leg I grazes; the
    phi = 0 and pi edges of iso-ellipses, where the leg-I radicand is
    round-off, and the R1 cos(alpha) = r1 ellipse, where rho1 is pinned to
    z_p; a grazing leg III and, mirrored in y, leg II, and the arc of their
    ellipse past them, where one of the two cannot close; and points
    outside the workspace, where no orientation or no leg closes."""
    def z():
        return float(rng.uniform(600.0, 1200.0))

    points = [(geom.center_x + dx, 0.0, z())
              for dx in (-600.0, -400.0, -200.0, 0.0, 150.0, 400.0, 600.0)]
    # the axis points where leg I grazes at alpha = 0 or pi
    points += [(geom.center_x + sign * math.sqrt(geom.a_sq(c)), 0.0, z())
               for c in (1.0, -1.0) for sign in (1.0, -1.0)]
    for alpha in (0.3, -0.9, 1.2, 2.6, math.acos(geom.r1 / geom.R1)):
        ell = iso_ellipse(geom, alpha)
        points += [(*ell.point(phi), z()) for phi in (0.0, math.pi, 0.4, 1.9, 3.5, 5.1)]
    x, y = _grazing_point(geom)
    points += [(x, y, z()), (x, -y, z())]
    points += [(*iso_ellipse(geom, 0.3).point(phi), z()) for phi in np.linspace(2.9, 3.4, 11)]
    points += [(5000.0, 0.0, 900.0), (5000.0, 50.0, 900.0), (geom.center_x, 2000.0, 900.0)]
    points += [tuple(map(float, rng.uniform((-900.0, -500.0, 0.0), (400.0, 500.0, 1500.0))))
               for _ in range(40)]
    return points


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
        "enumerate_ik_loci": [enumerate_ik(geom, *p) for p in _loci_points(geom, rng)],
        "select_working_solution": [select_working_solution(sols, geom) for sols in solutions],
        "tool_ik": [tool_ik(geom, tool) for tool in tools],
        "enumerate_fk": [enumerate_fk(geom, joints) for joints in triples],
        "newton_fk": [newton_fk(geom, joints, NEWTON_STARTS, k) for k, joints in enumerate(mix)],
        "newton_fk_batch": newton_fk_batch(geom, mix, NEWTON_STARTS, range(len(mix))),
    }
    return [(name, hashlib.sha256(repr(out).encode()).hexdigest())
            for name, out in outputs.items()]


# (command, numbers in radians, numbers in degrees, no-solution numbers,
# overflow numbers) per solver command; a leading "--" lets negatives through
SOLVER_INPUTS = (
    ("ik", ("--", "-250", "60", "900"), ("--", "-250", "60", "900"),
     ("5000", "50", "900"), ("1e200", "60", "900")),
    ("fk", ("450", "400", "380"), ("450", "400", "380"),
     ("--", "2000", "-1900", "200"), ("1e308", "1e308", "1e308")),
    ("tool-ik", ("--", "-169.5", "157.4", "566.4", "-0.4", "-0.7"),
     ("--", "-169.5", "157.4", "566.4", "-22.9", "-40.1"),
     ("5000", "0", "0", "0", "0"), ("1e200", "0", "0", "0", "0")),
    ("tool-fk", ("400", "380", "390", "0.3", "0.7"), ("400", "380", "390", "17.2", "40.1"),
     ("--", "2000", "-1900", "200", "0", "0"), ("1e200", "0", "0", "0", "0")),
)


def cli_battery():
    """argv lists of the `cli` line's calls; "{geom}" stands for the geometry
    file and "{bad}" for an invalid one."""
    calls = []
    for command, rad, deg, none, overflow in SOLVER_INPUTS:
        for fmt in ("table", "csv", "json-lines"):
            for flags in ((), ("--select",), ("--deg",), ("--select", "--deg")):
                numbers = deg if "--deg" in flags else rad
                calls.append([command, "{geom}", "--format", fmt, *flags, *numbers])
        calls += [[command, "{geom}", *none], [command, "{geom}", "--select", *none],
                  [command, "{geom}", *overflow], [command, "--help"]]
    for fmt in ("table", "csv", "json-lines"):
        calls.append(["ellipse", "{geom}", "--format", fmt])
    calls += [
        ["ellipse", "{geom}", "--format", "json-lines", "--alpha-min", "0",
         "--alpha-max", "0.6", "--step", "0.3"],
        ["ellipse", "{geom}", "--format", "csv", "--deg", "--alpha-min=-30",
         "--alpha-max", "30", "--step", "15", "--points", "3"],
        ["ellipse", "{geom}", "--step", "0.7", "--points", "0"],
        ["ellipse", "{geom}", "--alpha-min", "0.1", "--alpha-max", "1.1", "--step", "0.6",
         "--points", "0"],
        ["ellipse", "{geom}", "--step", "-1"],
        ["ellipse", "{geom}", "--points", "-2"],
        ["ellipse", "--help"],
        ["roundtrip", "{geom}", "--count", "25", "--seed", "3"],
        ["roundtrip", "{geom}", "--count", "3", "--box", "5000", "5001", "0", "1", "600", "601"],
        ["roundtrip", "{geom}", "--count", "40", "--seed", "1", "--box",
         "-900", "500", "0", "600", "600", "1200"],
        ["roundtrip", "{geom}", "--count", "0"],
        ["roundtrip", "{geom}", "--count", "-1"],
        ["roundtrip", "{geom}", "--count", "2", "--timing", "--starts", "0"],
        ["roundtrip", "{geom}", "--count", "2", "--box", "1e200", "1e201", "0", "1", "0", "1"],
        ["roundtrip", "--help"],
        ["--help"],
        [],
        ["solve", "{geom}"],
        ["ik", "{geom}", "1.0"],
        ["ik", "{geom}", "nan", "60", "900"],
        ["ik", "{geom}", "--format", "xml", "--", "-250", "60", "900"],
        ["fk", "{geom}", "--", "450", "-inf", "380"],
        ["tool-ik", "{geom}", "160", "-120", "-240", "0.2", "nan"],
        ["ellipse", "{geom}", "--step", "nan"],
        ["ellipse", "{geom}", "--points", "2.5"],
        ["roundtrip", "{geom}", "--box", "-330", "-170", "30", "150", "700", "inf"],
        ["roundtrip", "{geom}", "--count", "many"],
        ["roundtrip", "{geom}", "--count", "2", "--format", "json-lines"],
        ["roundtrip", "{geom}", "--count", "2", "--deg"],
        ["ik", "{bad}", "0", "0", "0"],
        ["ik", "{geom}.missing", "0", "0", "0"],
    ]
    return calls


def cli_digest():
    """Hex digest of (argv, exit code, stdout, stderr) over cli_battery(),
    with the temporary directory's path replaced by "<tmp>"."""
    calls = []
    # argparse wraps --help to the terminal width
    with mock.patch.dict(os.environ, COLUMNS="80"), tempfile.TemporaryDirectory() as tmp:
        paths = {"geom": os.path.join(tmp, "machine.cfg"), "bad": os.path.join(tmp, "bad.cfg")}
        with open(paths["geom"], "w") as f:
            f.write(serialize_geometry(DEFAULT_SYNTHETIC))
        with open(paths["bad"], "w") as f:
            f.write("D1 = not-a-number\n")
        for argv in cli_battery():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli_main([a.format(**paths) for a in argv])
                except SystemExit as exc:
                    code = exc.code
            calls.append((argv, code, out.getvalue().replace(tmp, "<tmp>"),
                          err.getvalue().replace(tmp, "<tmp>")))
    return hashlib.sha256(repr(calls).encode()).hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    for name, digest in digests(args.seed):
        print(f"{name} {digest}")
    print(f"cli {cli_digest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
