"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -s` to see the
lines as they complete.

Criterion 7 (reproduction of the original machine's published example
values) requires the vendor's dimension file, which is not public; set
PKMKIN_TRUE_GEOMETRY to a geometry file to enable it, otherwise it reports
a skip.  Criteria 1-6 and 8 are the binding synthetic-geometry gate.
"""

import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from pkmkin import (DEFAULT_SYNTHETIC, MachineJoints,
                    ParallelJoints, PlatformPose, enumerate_fk, enumerate_ik,
                    iso_ellipse, newton_fk_batch, orientation_candidates,
                    read_geometry_file, residuals_machine, residuals_parallel,
                    select_assembly_mode, select_machine_solution,
                    select_working_solution, serialize_geometry,
                    tilt_candidates, tool_ik, tool_pose_from_platform,
                    wrap_angle)
from pkmkin.parallel_ik import coupling_residual

from conftest import angle_delta, coupling_scale, region_points

GEOM = DEFAULT_SYNTHETIC
SCALE = GEOM.residual_scale


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {status} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def pose_bank():
    """Shared random reachable poses with their working IK branches."""
    rng = np.random.default_rng(20260808)
    bank = []
    for x, y, z in region_points(rng, 1000):
        sol = select_working_solution(enumerate_ik(GEOM, x, y, z), GEOM)
        assert sol is not None
        bank.append(((x, y, z), sol))
    return bank


def test_criterion_1_residual_suite(pose_bank):
    rng = np.random.default_rng(1)
    t0 = time.perf_counter()
    inputs = 0
    # np.maximum keeps a NaN residual, which max drops unless it comes first
    worst = 0.0
    # inverse kinematics over random region points
    for (x, y, z), _ in pose_bank[:400]:
        inputs += 1
        for sol in enumerate_ik(GEOM, x, y, z):
            r = residuals_parallel(GEOM, PlatformPose(x, y, z, sol.alpha), sol.joints)
            worst = np.maximum(worst, r.max_abs)
    # forward kinematics over the matching joint vectors
    for _, sol in pose_bank[:400]:
        inputs += 1
        for mode in enumerate_fk(GEOM, sol.joints):
            r = residuals_parallel(GEOM, mode.pose, sol.joints)
            worst = np.maximum(worst, r.max_abs)
    # machine level: tool IK and tool FK on derived tool poses
    for (x, y, z), sol in pose_bank[:150]:
        pose = PlatformPose.solved(GEOM, x, y, z, sol.alpha)
        th1 = rng.uniform(-0.9, 0.9)
        th2 = rng.uniform(-math.pi + 0.05, math.pi - 0.05)
        tool = tool_pose_from_platform(GEOM, pose, th1, th2)
        inputs += 1
        for s in tool_ik(GEOM, tool):
            r = residuals_machine(GEOM, tool, s.machine_joints)
            worst = np.maximum(worst, r.max_abs)
        inputs += 1
        mj = MachineJoints(joints=sol.joints, theta1=th1, theta2=th2)
        for mode in enumerate_fk(GEOM, sol.joints):
            tp = tool_pose_from_platform(GEOM, mode.pose, th1, th2)
            r = residuals_machine(GEOM, tp, MachineJoints(
                joints=sol.joints, theta1=th1, theta2=th2))
            worst = np.maximum(worst, r.max_abs)
    elapsed = time.perf_counter() - t0
    ok = inputs >= 1000 and worst <= 1e-7 * SCALE and elapsed < 10.0
    report(1, ok, f"residual suite: {inputs} inputs, worst residual "
                  f"{worst:.3e} (bound {1e-7 * SCALE:.3e}), {elapsed:.1f}s")


def test_criterion_2_parallel_roundtrip(pose_bank):
    failures = 0
    max_pos = 0.0
    max_ang = 0.0
    for (x, y, z), sol in pose_bank:
        mode = select_assembly_mode(enumerate_fk(GEOM, sol.joints))
        if mode is None:
            failures += 1
            continue
        pos_err = max(abs(mode.pose.x_p - x), abs(mode.pose.y_p - y),
                      abs(mode.pose.z_p - z))
        ang_err = abs(mode.pose.alpha - sol.alpha)
        max_pos = max(max_pos, pos_err)
        max_ang = max(max_ang, ang_err)
        if pos_err > 1e-6 or ang_err > 1e-8:
            failures += 1
    ok = failures == 0 and len(pose_bank) >= 1000
    report(2, ok, f"parallel roundtrip: {len(pose_bank)} poses, "
                  f"{failures} failures, max {max_pos:.2e} mm / {max_ang:.2e} rad")


def test_criterion_3_tool_roundtrip(pose_bank):
    rng = np.random.default_rng(3)
    failures = 0
    max_pos = 0.0
    max_ang = 0.0
    max_identity = 0.0
    for (x, y, z), sol in pose_bank:
        pose = PlatformPose.solved(GEOM, x, y, z, sol.alpha)
        th1 = rng.uniform(-0.9, 0.9)
        th2 = rng.uniform(-math.pi + 0.05, math.pi - 0.05)
        tool = tool_pose_from_platform(GEOM, pose, th1, th2)
        chosen = select_machine_solution(tool_ik(GEOM, tool), GEOM)
        if chosen is None or chosen.machine_joints.theta2 != -tool.phi2:
            failures += 1
            continue
        max_identity = max(max_identity, abs(
            wrap_angle(chosen.machine_joints.theta1 + tool.phi1) - chosen.alpha))
        mj = chosen.machine_joints
        mode = select_assembly_mode(enumerate_fk(GEOM, mj.joints))
        if mode is None:
            failures += 1
            continue
        back = tool_pose_from_platform(GEOM, mode.pose, mj.theta1, mj.theta2)
        pos_err = max(abs(back.x_u - tool.x_u), abs(back.y_u - tool.y_u),
                      abs(back.z_u - tool.z_u))
        ang_err = max(abs(back.phi1 - tool.phi1), abs(back.phi2 - tool.phi2))
        max_pos = max(max_pos, pos_err)
        max_ang = max(max_ang, ang_err)
        if pos_err > 1e-6 or ang_err > 1e-8:
            failures += 1
    ok = failures == 0 and max_identity <= 1e-9 and len(pose_bank) >= 1000
    report(3, ok, f"tool roundtrip: {len(pose_bank)} poses, {failures} failures, "
                  f"max {max_pos:.2e} mm / {max_ang:.2e} rad, "
                  f"orientation identity {max_identity:.2e} rad")


def test_criterion_4_branch_count_claims(pose_bank):
    rng = np.random.default_rng(4)
    # (a) at most 16 branches anywhere, exactly 16 on the documented region
    wide_ok = True
    for _ in range(300):
        x = rng.uniform(-900.0, 400.0)
        y = rng.uniform(-500.0, 500.0)
        z = rng.uniform(-100.0, 1600.0)
        wide_ok &= len(enumerate_ik(GEOM, x, y, z)) <= 16
    region_ok = all(len(enumerate_ik(GEOM, x, y, z)) == 16
                    for (x, y, z), _ in pose_bank[:200])
    # (b) at most 4 orientation candidates, including axis points
    orient_ok = True
    for _ in range(300):
        x = rng.uniform(-900.0, 400.0)
        y = rng.uniform(-500.0, 500.0) * rng.choice([0.0, 1.0])
        orient_ok &= len(orientation_candidates(GEOM, x, y)) <= 4
    # (c) at most 4 in-range tilt roots over random reachable tool poses
    tilt_ok = True
    for (x, y, z), sol in pose_bank[:500]:
        pose = PlatformPose.solved(GEOM, x, y, z, sol.alpha)
        tool = tool_pose_from_platform(GEOM, pose, rng.uniform(-0.9, 0.9),
                                       rng.uniform(-math.pi, math.pi))
        tilt_ok &= len(tilt_candidates(GEOM, tool)) <= 4
    # (d) at most 6 assembly modes over a 1e4 joint sweep
    mode_max = 0
    for _ in range(10000):
        joints = ParallelJoints(*rng.uniform(-200.0, 1500.0, size=3))
        mode_max = max(mode_max, len(enumerate_fk(GEOM, joints)))
    ok = wide_ok and region_ok and orient_ok and tilt_ok and mode_max <= 6
    report(4, ok, f"branch counts: ik<=16 {wide_ok}, ik==16 on region {region_ok}, "
                  f"orientations<=4 {orient_ok}, tilt roots<=4 {tilt_ok}, "
                  f"fk modes max {mode_max} (<=6)")


def test_criterion_5_oracle_completeness(pose_bank):
    rng = np.random.default_rng(5)
    misses = 0
    checked = 0
    joint_vectors = [sol.joints for _, sol in pose_bank[:300]]
    joint_vectors += [ParallelJoints(*rng.uniform(-100.0, 1200.0, size=3))
                      for _ in range(200)]
    # vector k (from 1) draws its starts from seed k; chunks bound the memory
    for chunk in range(0, len(joint_vectors), 50):
        batch = joint_vectors[chunk:chunk + 50]
        seeds = range(chunk + 1, chunk + 1 + len(batch))
        for joints, poses in zip(batch, newton_fk_batch(GEOM, batch, starts=100, seeds=seeds)):
            checked += 1
            modes = enumerate_fk(GEOM, joints)
            for px, py, pz, pa in poses:
                if not any(abs(m.pose.x_p - px) <= 1e-5 and abs(m.pose.y_p - py) <= 1e-5
                           and abs(m.pose.z_p - pz) <= 1e-5
                           and angle_delta(m.pose.alpha, pa) <= 1e-5 for m in modes):
                    misses += 1
    ok = misses == 0 and checked >= 500
    report(5, ok, f"oracle completeness: {checked} joint vectors x 100 starts, "
                  f"{misses} newton solutions unmatched")


def test_criterion_6_coupling_geometry():
    step = 2.0 * math.pi / 45.0
    checked = 0
    worst = 0.0
    for k in range(46):
        alpha = -math.pi + k * step
        if abs(math.sin(alpha)) < 1e-12:
            continue
        ell = iso_ellipse(GEOM, alpha)
        for j in range(16):
            x, y = ell.point(2.0 * math.pi * j / 16.0)
            res = abs(coupling_residual(GEOM, x, y, alpha))
            worst = max(worst, res / coupling_scale(GEOM, x, y, alpha))
            checked += 1
    circle = iso_ellipse(GEOM, math.acos(GEOM.r1 / GEOM.R1))
    circle_err = abs(circle.semi_major_a - circle.semi_minor_b) / circle.semi_major_a
    ok = worst <= 1e-9 and circle_err <= 1e-12 and checked == 44 * 16
    report(6, ok, f"coupling geometry: {checked} ellipse samples, worst relative "
                  f"residual {worst:.2e}, circle asymmetry {circle_err:.2e}")


def test_criterion_7_published_example_values():
    path = os.environ.get("PKMKIN_TRUE_GEOMETRY")
    if not path:
        print("ACCEPTANCE 7: SKIP - original machine dimensions are not public; "
              "set PKMKIN_TRUE_GEOMETRY to a geometry file to enable")
        pytest.skip("true machine geometry not available")
    geom = read_geometry_file(path)
    joints = ParallelJoints(674.0, 685.0, 250.0)
    modes = enumerate_fk(geom, joints)
    # published forward-kinematics example for these slider values
    expected_modes = [
        (-0.22, -199.80, 355.92, 1242.0),
        (-0.14, 298.35, -297.53, -120.22),
        (1.81, -393.6, 322.82, 958.21),
        (2.70, -115.62, -189.68, -0.26),
    ]
    ok = len(modes) == len(expected_modes)
    for ea, ex, ey, ez in expected_modes:
        ok &= any(abs(m.pose.alpha - ea) <= 0.01 and abs(m.pose.x_p - ex) <= 0.01
                  and abs(m.pose.y_p - ey) <= 0.01 and abs(m.pose.z_p - ez) <= 0.01
                  for m in modes)
    # published tool-level example; the third row's x_u is a typesetting
    # artifact in the source table and is excluded
    th1, th2 = 0.19, 0.39
    expected_tools = [
        (-0.41, -0.39, -338.06, -296.89, 461.6),
        (-0.33, -0.39, 478.52, 379.38, 1661.55),
        (1.62, -0.39, None, 497.49, 1213.31),
        (2.51, -0.39, 219.2, 837.37, 2433.67),
    ]
    tools = [tool_pose_from_platform(geom, m.pose, th1, th2) for m in modes]
    for p1, p2, xu, yu, zu in expected_tools:
        ok &= any(abs(t.phi1 - p1) <= 0.01 and abs(t.phi2 - p2) <= 0.01
                  and (xu is None or abs(t.x_u - xu) <= 0.01)
                  and abs(t.y_u - yu) <= 0.01 and abs(t.z_u - zu) <= 0.01
                  for t in tools)
    report(7, ok, "published example values reproduced to +-0.01")


def test_criterion_8_roundtrip_determinism(tmp_path):
    path = tmp_path / "machine.cfg"
    path.write_text(serialize_geometry(GEOM))
    cmd = [sys.executable, "-m", "pkmkin.cli", "roundtrip", str(path),
           "--count", "60", "--seed", "17"]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    ok = (first.returncode == 0 and second.returncode == 0
          and first.stdout == second.stdout and len(first.stdout) > 0)
    report(8, ok, f"roundtrip determinism: {len(first.stdout)} bytes, "
                  f"byte-identical {first.stdout == second.stdout}")
