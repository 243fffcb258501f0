import math
import warnings
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from pkmkin import (ConfigurationIndices, MachineJoints, ParallelJoints, PlatformPose, ToolPose,
                    enumerate_fk, enumerate_ik, iso_ellipse, joints_from_pose,
                    orientation_candidates, residuals_machine, residuals_parallel,
                    select_machine_solution, select_working_solution,
                    tilt_candidates, tilt_polynomial, tool_ik, tool_pose_from_platform,
                    wrap_angle)
from pkmkin import machine
from pkmkin.machine import _platform_coordinates, _rotary_frame
from pkmkin.parallel_ik import DEDUP_TOL, constraint_residuals, coupling_residual
from pkmkin.rootfind import _horner_slope, real_roots

from conftest import angle_delta, assert_distinct, grazing_point, locus_points, region_points
from reference import table_transform


def working_pose(geom, rng):
    [(x, y, z)] = region_points(rng, 1)
    sol = select_working_solution(enumerate_ik(geom, x, y, z), geom)
    return PlatformPose.solved(geom, x, y, z, sol.alpha), sol.joints


def random_machine_state(geom, rng):
    pose, joints = working_pose(geom, rng)
    theta1 = rng.uniform(-0.9, 0.9)
    theta2 = rng.uniform(-math.pi + 0.1, math.pi - 0.1)
    tool = tool_pose_from_platform(geom, pose, theta1, theta2)
    return pose, joints, theta1, theta2, tool


def platform_at(geom, tool, theta1):
    """tool_ik's inverse table chain: platform (x_p, y_p, z_p, alpha) for one
    tilt, alpha unwrapped."""
    return _platform_coordinates(geom, _rotary_frame(geom, tool), theta1)


# ---------------------------------------------------------------------------
# frame chain

def test_table_transform_zero_angles(geom):
    m = table_transform(geom, 0.0, 0.0)
    # translate d_a, translate d_t, then flip about x
    expected = np.array([[1.0, 0.0, 0.0, 0.0],
                         [0.0, -1.0, 0.0, 0.0],
                         [0.0, 0.0, -1.0, geom.d_a + geom.d_t],
                         [0.0, 0.0, 0.0, 1.0]])
    assert np.allclose(m, expected, atol=1e-15)


def test_table_transform_rigid(geom):
    rng = np.random.default_rng(1)
    for _ in range(10):
        th1, th2 = rng.uniform(-math.pi, math.pi, size=2)
        m = table_transform(geom, th1, th2)
        R = m[:3, :3]
        assert np.allclose(R @ R.T, np.eye(3), atol=1e-14)
        assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-14)
        minv = np.linalg.inv(m)
        # translation entries are ~d_a + d_t large; scale the identity bound
        assert np.allclose(m @ minv, np.eye(4),
                           atol=1e-14 * (1.0 + geom.d_a + geom.d_t))


def test_tool_map_matches_frame_chain(geom):
    # mapping a platform pose must agree with the homogeneous chain applied
    # to the spindle point
    rng = np.random.default_rng(2)
    for _ in range(10):
        pose, joints, th1, th2, tool = random_machine_state(geom, rng)
        bTt = table_transform(geom, th1, th2)
        spindle_b = np.array([pose.x_p,
                              pose.y_p - geom.Delta * math.sin(pose.alpha),
                              pose.z_p + geom.Delta * math.cos(pose.alpha),
                              1.0])
        spindle_t = np.linalg.inv(bTt) @ spindle_b
        assert spindle_t[:3] == pytest.approx([tool.x_u, tool.y_u, tool.z_u], abs=1e-9)


def test_tool_map_zero_angles_axis(geom):
    pose = PlatformPose(-232.0, 0.0, 871.0, 0.0)
    tool = tool_pose_from_platform(geom, pose, 0.0, 0.0)
    assert tool.x_u == pytest.approx(pose.x_p)
    assert tool.y_u == pytest.approx(-pose.y_p)
    assert tool.z_u == pytest.approx(geom.d_a + geom.d_t - pose.z_p - geom.Delta)
    assert tool.phi1 == 0.0 and tool.phi2 == 0.0


def test_platform_from_tool_inverts_map(geom):
    rng = np.random.default_rng(3)
    for _ in range(15):
        pose, joints, th1, th2, tool = random_machine_state(geom, rng)
        x, y, z, alpha = platform_at(geom, tool, th1)
        assert (x, y, z) == pytest.approx((pose.x_p, pose.y_p, pose.z_p), abs=1e-9)
        assert wrap_angle(alpha) == pytest.approx(pose.alpha, abs=1e-12)


# ---------------------------------------------------------------------------
# residual identities

def test_machine_residuals_match_parallel_at_zero_angles(geom):
    rng = np.random.default_rng(4)
    pose, joints = working_pose(geom, rng)
    tool = tool_pose_from_platform(geom, pose, 0.0, 0.0)
    mj = MachineJoints(joints=joints, theta1=0.0, theta2=0.0)
    rm = residuals_machine(geom, tool, mj)
    rp = residuals_parallel(geom, pose, joints)
    assert rm.as_tuple() == pytest.approx(rp.as_tuple(), abs=1e-12 * geom.residual_scale)


def test_machine_residuals_match_parallel_generic(geom):
    rng = np.random.default_rng(5)
    for _ in range(10):
        pose, joints, th1, th2, tool = random_machine_state(geom, rng)
        mj = MachineJoints(joints=joints, theta1=th1, theta2=th2)
        rm = residuals_machine(geom, tool, mj)
        rp = residuals_parallel(geom, pose, joints)
        assert rm.as_tuple() == pytest.approx(rp.as_tuple(), abs=1e-9)


def test_machine_residual_symmetry(geom):
    # zero spread and axis orientation make the two leg-I residuals equal
    tool = ToolPose(x_u=140.0, y_u=0.0, z_u=320.0, phi1=0.0, phi2=0.0)
    mj = MachineJoints(joints=ParallelJoints(420.0, 400.0, 400.0),
                       theta1=0.0, theta2=0.0)
    r = residuals_machine(geom, tool, mj)
    assert r.r_3a == pytest.approx(r.r_3b, rel=1e-15)


# ---------------------------------------------------------------------------
# tilt polynomial

def test_tilt_polynomial_roundtrip_root(geom):
    rng = np.random.default_rng(6)
    for _ in range(15):
        pose, joints, th1, th2, tool = random_machine_state(geom, rng)
        poly = tilt_polynomial(geom, tool)
        assert poly.degree <= 6
        u_true = math.tan(th1 / 2.0)
        assert any(abs(u - u_true) <= 1e-8 * (1.0 + abs(u_true))
                   for u in real_roots(poly))
        assert any(abs(t - th1) <= 1e-8 for t in tilt_candidates(geom, tool))


def kernel_tools(geom):
    """48 seeded tools, phi1 on the axes and phi2 = 0 among them."""
    rng = np.random.default_rng(37)
    tools = []
    for k in range(48):
        tool = random_machine_state(geom, rng)[-1]
        phi1 = (0.0, math.pi / 2.0, -math.pi / 2.0, math.pi, tool.phi1)[k % 5]
        phi2 = 0.0 if k % 3 == 0 else tool.phi2
        tools.append(ToolPose(tool.x_u, tool.y_u, tool.z_u, phi1, phi2))
    return tools


def exact_tilt_polynomial(geom, tool):
    """The sextic in exact arithmetic on the float inputs tilt_polynomial
    starts from (cos and sin of phi1, the rotary frame), assembled as the
    derivation writes it term by term:
    R1^2 X1^2 S^2 T + [(r1^2 + R1^2) T - 2 R1 r1 C] E^2
    - R1^2 S^2 [(L1^2 - R1^2 - r1^2) T + 2 R1 r1 C]."""
    def mul(a, b):
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
        return out

    def lin(*terms):
        return [sum(k * p[i] for k, p in terms) for i in range(3)]

    x_p, swing, depth = map(Fraction, _rotary_frame(geom, tool)[:3])
    cp1, sp1 = Fraction(math.cos(tool.phi1)), Fraction(math.sin(tool.phi1))
    R1, r1, L1, Delta = map(Fraction, (geom.R1, geom.r1, geom.L1, geom.Delta))
    X1 = x_p + Fraction(geom.D1) - Fraction(geom.d1)
    T, S, C = [1, 0, 1], [sp1, 2 * cp1, -sp1], [cp1, -2 * sp1, -cp1]
    E = [swing + Delta * sp1, 2 * Delta * cp1 - 2 * depth, -swing - Delta * sp1]
    S2 = mul(S, S)
    terms = (mul([R1**2 * X1**2 * t for t in T], S2),
             mul(lin((r1**2 + R1**2, T), (-2 * R1 * r1, C)), mul(E, E)),
             mul(lin((-(L1**2 - R1**2 - r1**2) * R1**2, T), (-2 * R1**3 * r1, C)), S2))
    return [sum(c) for c in zip(*terms)]


def test_tilt_polynomial_matches_the_exact_products(geom):
    # each float coefficient within 8 * 2^-52 of the largest exact
    # coefficient of the same sextic, for the roundings of the operands,
    # products and sums (at most 3.7 * 2^-52 measured on 5600 tools of the
    # tool-roundtrip recipe and of wide random poses)
    tools = kernel_tools(geom)
    tools += [random_machine_state(geom, np.random.default_rng(k))[-1] for k in range(40)]
    for tool in tools:
        exact = exact_tilt_polynomial(geom, tool)
        coeffs = tilt_polynomial(geom, tool).coeffs
        bound = Fraction(8, 2**52) * max(map(abs, exact))
        padded = coeffs + (0.0,) * (len(exact) - len(coeffs))
        for k, (c, e) in enumerate(zip(padded, exact, strict=True)):
            assert abs(Fraction(c) - e) <= bound, (tool, k)


def test_tilt_polynomial_matches_the_coupling_residual(geom):
    # the sextic against the relation it clears: at three probe nodes u it
    # equals the coupling residual at the platform pose the tilt
    # theta1 = 2 atan(u) implies, times (1 + u^2)^3, to 1e-9 relative
    compared = 0
    for tool in kernel_tools(geom):
        poly = tilt_polynomial(geom, tool)
        scale = max(1.0, *map(abs, poly.coeffs))
        table = _rotary_frame(geom, tool)
        for u in (0.2183, -0.7341, 1.4127):
            x_p, y_p, _, alpha = _platform_coordinates(geom, table, 2.0 * math.atan(u))
            sample = coupling_residual(geom, x_p, y_p, alpha) * (1.0 + u * u)**3
            bound = 1e-9 * (scale * max(1.0, abs(u))**6 + abs(sample))
            assert abs(poly(u) - sample) <= bound, (tool, u)
            compared += 1
    assert compared == 144


@pytest.mark.parametrize("alpha", [0.0, math.pi])
def test_axis_tilt_is_a_double_root(geom, alpha):
    # on the axis (y_p = 0, alpha = 0 or pi) S and E vanish together, so the
    # sextic R1^2 A S^2 + B E^2 has a double root at u0 = tan(theta1/2); the
    # root finder may split or drop it, and tilt_candidates injects it
    for x, z in ((geom.center_x, 900.0), (-170.0, 760.0), (-330.0, 1050.0)):
        pose = PlatformPose(x, 0.0, z, alpha)
        for theta1 in (-0.875, -0.25, 0.125, 0.5, 1.0):
            tool = tool_pose_from_platform(geom, pose, theta1, 0.4)
            coeffs = tilt_polynomial(geom, tool).coeffs
            u0 = math.tan(0.5 * theta1)
            scale = max(map(abs, coeffs)) * max(1.0, abs(u0))**6
            value, slope = _horner_slope(coeffs, u0)
            bound = 32.0 * 2.0**-52 * scale
            assert abs(value) <= bound and abs(slope) <= bound, (x, z, theta1)
            assert theta1 in tilt_candidates(geom, tool)


def test_tilt_candidates_at_most_four_in_range(geom):
    rng = np.random.default_rng(7)
    for _ in range(60):
        pose, joints, th1, th2, tool = random_machine_state(geom, rng)
        assert len(tilt_candidates(geom, tool)) <= 4


def test_tilt_candidates_match_orientation_candidates(geom):
    # each admissible tilt maps the tool to a platform point whose
    # orientation set contains theta1 + phi1
    rng = np.random.default_rng(8)
    for _ in range(10):
        pose, joints, th1, th2, tool = random_machine_state(geom, rng)
        for cand in tilt_candidates(geom, tool):
            x, y, _, _ = platform_at(geom, tool, cand)
            orientations = orientation_candidates(geom, x, y)
            assert any(abs(wrap_angle(cand + tool.phi1) - a) <= 1e-7
                       for a in orientations), (cand, orientations)


def test_tilt_window_changes_no_branch(geom, monkeypatch):
    # polishing every root of the tilt polynomial, as an unbounded window
    # does, gives the same branches bit for bit: on working states, on tilt
    # ranges that end exactly at a root of the polynomial and on random ranges
    rng = np.random.default_rng(23)
    cases = []
    for _ in range(30):
        tool = random_machine_state(geom, rng)[-1]
        cases.append((geom, tool))
        for u in real_roots(tilt_polynomial(geom, tool)):
            theta1 = 2.0 * math.atan(u)
            cases.append((replace(geom, theta1_min=theta1, theta1_max=math.pi), tool))
            cases.append((replace(geom, theta1_min=-math.pi, theta1_max=theta1), tool))
        low, high = sorted(rng.uniform(-4.0, 4.0, size=2))
        cases.append((replace(geom, theta1_min=low, theta1_max=high), tool))
    windowed = [repr(tool_ik(g, tool)) for g, tool in cases]
    monkeypatch.setattr(machine, "TILT_WINDOW_REL", math.inf)
    assert [repr(tool_ik(g, tool)) for g, tool in cases] == windowed
    assert sum(r != "[]" for r in windowed) > len(cases) // 2


def test_tilt_residual_scaled_small_at_candidates(geom):
    rng = np.random.default_rng(9)
    pose, joints, th1, th2, tool = random_machine_state(geom, rng)
    for cand in tilt_candidates(geom, tool):
        # the tilt relation is the coupling relation at the implied pose
        x, y, _, alpha = platform_at(geom, tool, cand)
        assert abs(coupling_residual(geom, x, y, alpha)) <= 1e-6 * geom.R1**2 * geom.L1**2


# ---------------------------------------------------------------------------
# tool IK / FK

def test_tool_ik_roundtrip(geom):
    rng = np.random.default_rng(10)
    for _ in range(60):
        pose, joints, th1, th2, tool = random_machine_state(geom, rng)
        solutions = tool_ik(geom, tool)
        assert 0 < len(solutions) <= 16
        hit = [s for s in solutions
               if abs(s.machine_joints.theta1 - th1) <= 1e-7
               and abs(s.machine_joints.joints.rho1 - joints.rho1) <= 1e-6
               and abs(s.machine_joints.joints.rho2 - joints.rho2) <= 1e-6
               and abs(s.machine_joints.joints.rho3 - joints.rho3) <= 1e-6]
        assert len(hit) == 1
        for s in solutions:
            assert s.machine_joints.theta2 == -tool.phi2
            assert s.residual_norm <= 1e-8 * geom.residual_scale
            assert s.alpha == pytest.approx(
                wrap_angle(s.machine_joints.theta1 + tool.phi1), abs=1e-12)


def test_tool_ik_residuals_via_oracle(geom):
    rng = np.random.default_rng(11)
    pose, joints, th1, th2, tool = random_machine_state(geom, rng)
    for s in tool_ik(geom, tool):
        r = residuals_machine(geom, tool, s.machine_joints)
        assert r.max_abs <= 1e-8 * geom.residual_scale


def test_tool_ik_branches_mirror_parallel_module(geom):
    # every machine branch, taken to the platform point its tilt implies,
    # must appear among the parallel-module branches there; and for the
    # table at zero the zero-tilt branches are exactly the parallel ones
    # sharing the generating orientation (other tilt roots move the
    # platform point, so a global count match is not implied)
    rng = np.random.default_rng(12)
    for _ in range(8):
        [(x, y, z)] = region_points(rng, 1)
        sol = select_working_solution(enumerate_ik(geom, x, y, z), geom)
        pose = PlatformPose.solved(geom, x, y, z, sol.alpha)
        tool = tool_pose_from_platform(geom, pose, 0.0, 0.0)
        machine = tool_ik(geom, tool)
        for m in machine:
            mx, my, mz, malpha = platform_at(geom, tool, m.machine_joints.theta1)
            peers = enumerate_ik(geom, mx, my, mz)
            assert any(abs(p.alpha - wrap_angle(malpha)) <= 1e-7
                       and abs(p.joints.rho1 - m.machine_joints.joints.rho1) <= 1e-5
                       and abs(p.joints.rho2 - m.machine_joints.joints.rho2) <= 1e-5
                       and abs(p.joints.rho3 - m.machine_joints.joints.rho3) <= 1e-5
                       for p in peers)
        zero_tilt = [m for m in machine if abs(m.machine_joints.theta1) <= 1e-7]
        same_orientation = [p for p in enumerate_ik(geom, x, y, z)
                            if abs(p.alpha - sol.alpha) <= 1e-9]
        assert len(zero_tilt) == len(same_orientation)
        for p in same_orientation:
            assert any(abs(m.machine_joints.joints.rho1 - p.joints.rho1) <= 1e-6
                       and abs(m.machine_joints.joints.rho2 - p.joints.rho2) <= 1e-6
                       and abs(m.machine_joints.joints.rho3 - p.joints.rho3) <= 1e-6
                       for m in zero_tilt)


@pytest.mark.parametrize("phi1", [0.0, math.pi / 2, -math.pi / 2, math.pi],
                         ids=["0", "pi/2", "-pi/2", "pi"])
def test_tool_ik_branch_is_parallel_branch_bitwise(geom, phi1):
    # each machine branch is, float for float, the parallel-module branch
    # with the same signs at the platform pose its tilt implies
    rng = np.random.default_rng(31)
    branches = 0
    for _ in range(10):
        tool = ToolPose(rng.uniform(-300.0, 300.0), rng.uniform(-300.0, 300.0),
                        rng.uniform(-400.0, 200.0), phi1, rng.uniform(-math.pi, math.pi))
        for m in tool_ik(geom, tool):
            pose = PlatformPose(*platform_at(geom, tool, m.machine_joints.theta1))
            assert m.machine_joints.joints == joints_from_pose(geom, pose, m.indices)
            assert m.alpha == pose.alpha
            branches += 1
    assert branches >= 30


def test_tool_ik_branch_residuals_per_leg_are_exact(geom):
    # machine branches come from the per-leg branch builder: each residual
    # is the four-constraint max of the branch's own joints, bit for bit,
    # at the platform pose its tilt implies, on the special-cased IK loci
    rng = np.random.default_rng(43)
    branches = 0
    for x, y, z in locus_points(geom, rng):
        for alpha in orientation_candidates(geom, x, y):
            tool = tool_pose_from_platform(geom, PlatformPose(x, y, z, alpha),
                                           rng.uniform(-1.2, 1.2), rng.uniform(-math.pi, math.pi))
            for m in tool_ik(geom, tool):
                mj = m.machine_joints
                px, py, pz, _ = platform_at(geom, tool, mj.theta1)
                res = constraint_residuals(geom, px, py, pz, m.alpha, *mj.joints.as_tuple())
                assert m.residual_norm == max(abs(r) for r in res)
                assert m.within_limits == (
                    all(geom.rho_min <= v <= geom.rho_max for v in mj.joints.as_tuple())
                    and geom.theta2_min <= mj.theta2 <= geom.theta2_max)
                branches += 1
    assert branches >= 1000


def test_tool_ik_degenerate_loci_match_parallel_module(geom):
    # loci where the leg-I radicand vanishes and rho1 = z_p is pinned:
    # y_p = 0 with sin(alpha) != 0 (x on the edge of the iso-ellipse) and
    # R1 cos(alpha) = r1 with y_p != 0; plus y_p = 0 at alpha in {0, pi}, on
    # a zero table and under a tilt, where the tilt sextic has a double root.
    # The table chain reaches these loci only to round-off, yet tool_ik must
    # find the branches enumerate_ik finds at the same orientation, and no
    # tilt may come out split off the true one.
    rng = np.random.default_rng(41)
    crossing = math.acos(geom.r1 / geom.R1)
    cases = []
    for _ in range(12):
        alpha = rng.uniform(0.2, 2.9) * rng.choice([-1.0, 1.0])
        x = geom.center_x + math.sqrt(geom.a_sq(math.cos(alpha))) * rng.choice([-1.0, 1.0])
        z = rng.uniform(700.0, 1100.0)
        cases += [((x, 0.0, z, alpha), 0.0), ((x, 0.0, z, alpha), rng.uniform(-1.2, 1.2))]
        alpha = crossing * rng.choice([-1.0, 1.0])
        x, y = iso_ellipse(geom, alpha).point(rng.uniform(0.0, 2.0 * math.pi))
        cases += [((x, y, z, alpha), 0.0), ((x, y, z, alpha), rng.uniform(-1.2, 1.2))]
        [(x, _, z)] = region_points(rng, 1)
        cases += [((x, 0.0, z, 0.0), 0.0), ((x, 0.0, z, math.pi), 0.0)]
    for x, _, z in region_points(rng, 40):
        theta1 = rng.uniform(-1.2, 1.2)
        cases += [((x, 0.0, z, 0.0), theta1), ((x, 0.0, z, math.pi), theta1)]
    matched = 0
    for (x, y, z, alpha), theta1 in cases:
        tool = tool_pose_from_platform(geom, PlatformPose(x, y, z, alpha), theta1,
                                       rng.uniform(-math.pi, math.pi))
        assert not any(1e-9 < abs(t - theta1) < 1e-3 for t in tilt_candidates(geom, tool))
        machine = tool_ik(geom, tool)
        for m in machine:
            assert residuals_machine(geom, tool, m.machine_joints).max_abs \
                <= 1e-8 * geom.residual_scale
        at_tilt = [m for m in machine if abs(m.machine_joints.theta1 - theta1) <= 1e-7]
        peers = [p for p in enumerate_ik(geom, x, y, z) if angle_delta(p.alpha, alpha) <= 1e-9]
        assert len(at_tilt) == len(peers), (x, y, z, alpha, theta1)
        matched += len(peers)
    assert matched >= 200


def test_no_two_tool_ik_branches_coincide(geom):
    # tool poses mapped from the IK loci and from points around the region,
    # on a zero and a random table; y = 0 axis points give the tilted axis
    # poses, where alpha in {0, pi} carries 8 branches
    rng = np.random.default_rng(46)
    points = [p for seed in range(4) for p in locus_points(geom, np.random.default_rng(seed))]
    points += [(rng.uniform(-900.0, 500.0), rng.uniform(-500.0, 500.0), rng.uniform(600.0, 1200.0))
               for _ in range(100)]
    branches = 0
    for x, y, z in points:
        for alpha in orientation_candidates(geom, x, y):
            for theta1 in (0.0, rng.uniform(-1.2, 1.2)):
                tool = tool_pose_from_platform(geom, PlatformPose(x, y, z, alpha), theta1,
                                               rng.uniform(-math.pi, math.pi))
                sols = tool_ik(geom, tool)
                assert_distinct([(m.machine_joints.theta1, *m.machine_joints.joints.as_tuple())
                                 for m in sols], DEDUP_TOL)
                branches += len(sols)
    assert branches >= 5000


def test_tool_ik_branches_come_sorted_by_tilt_then_signs(geom):
    # the CLI prints the rows in the order tool_ik returns them; y = 0 axis
    # points on a nonzero tilt give the tilted axis poses
    rng = np.random.default_rng(48)
    points = [p for seed in range(8) for p in locus_points(geom, np.random.default_rng(seed))]
    points += region_points(rng, 300)
    branches = tilted_axis = 0
    for x, y, z in points:
        for alpha in orientation_candidates(geom, x, y):
            for theta1 in (0.0, rng.uniform(-1.2, 1.2)):
                tool = tool_pose_from_platform(geom, PlatformPose(x, y, z, alpha), theta1,
                                               rng.uniform(-math.pi, math.pi))
                sols = tool_ik(geom, tool)
                keys = [(m.machine_joints.theta1, m.indices.as_tuple()) for m in sols]
                assert all(a < b for a, b in zip(keys, keys[1:])), tool
                branches += len(keys)
                tilted_axis += sum(abs(math.sin(m.alpha)) < 1e-12 and m.machine_joints.theta1 != 0.0
                                   for m in sols)
    assert branches >= 50000 and tilted_axis >= 1000


@pytest.mark.parametrize("leg", ["II", "III"])
@pytest.mark.parametrize("theta1", [0.0, 0.7])
def test_tool_ik_grazing_leg_gives_its_minus_branch_once(geom, leg, theta1):
    x, y, z = grazing_point(geom, leg)
    tool = tool_pose_from_platform(geom, PlatformPose(x, y, z, 0.3), theta1, 0.4)
    sols = [m for m in tool_ik(geom, tool) if abs(m.machine_joints.theta1 - theta1) <= 1e-9]
    k = 1 if leg == "II" else 2
    assert len(sols) == 2 and {m.indices.as_tuple()[k] for m in sols} == {-1}
    for m in sols:
        pose = PlatformPose(*platform_at(geom, tool, m.machine_joints.theta1))
        signs = list(m.indices.as_tuple())
        signs[k] = 1
        assert joints_from_pose(geom, pose, ConfigurationIndices(*signs)) == m.machine_joints.joints


@pytest.mark.parametrize("tool", [(120.0, -80.0, -150.0, 0.3, 1.1), (1e200, 0.0, 0.0, 0.0, 0.0),
                                  (0.0, 0.0, -1e200, 0.2, 0.0)])
def test_tool_ik_numpy_scalar_inputs_match_python_floats(geom, tool):
    def outcome(pose):
        try:
            return repr(tool_ik(geom, pose))
        except Exception as exc:  # noqa: BLE001 - the exception type is compared
            return type(exc)

    expected = outcome(ToolPose(*tool))
    assert outcome(ToolPose(*map(np.float64, tool))) == expected
    assert outcome(ToolPose(*np.array(tool))) == expected
    assert expected is OverflowError or "np." not in expected


@pytest.mark.parametrize("coordinate", [0, 1, 2], ids=["x_u", "y_u", "z_u"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_tool_ik_non_finite_position_raises_once(geom, coordinate, value):
    # one ValueError naming the coordinate, from tilt_polynomial's entry, as
    # enumerate_ik and enumerate_fk raise theirs; no numpy warning first
    position = [120.0, -80.0, -150.0]
    position[coordinate] = value
    name = ("x_u", "y_u", "z_u")[coordinate]
    for solve in (tool_ik, tilt_candidates, tilt_polynomial):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
            solve(geom, ToolPose(*position, 0.3, 1.1))


@pytest.mark.parametrize("field", ["x_p", "y_p", "z_p", "theta1", "theta2"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_tool_pose_from_platform_non_finite_input_is_one_value_error(geom, field, value):
    # a NaN z_p used to map to a NaN tool and an infinite theta1 to raise a
    # bare "math domain error"
    args = {"x_p": -250.0, "y_p": 60.0, "z_p": 900.0, "theta1": 0.3, "theta2": 0.1, field: value}
    pose = PlatformPose(args["x_p"], args["y_p"], args["z_p"], 0.1)
    with pytest.raises(ValueError, match=f"^{field} must be finite, got {value}$"):
        tool_pose_from_platform(geom, pose, args["theta1"], args["theta2"])


def test_tilt_polynomial_overflow_is_an_overflow_error(geom):
    # a finite tool whose coefficients overflow: np.convolve gives inf
    # without a warning, and the assembly says so
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match="tilt polynomial: coefficients"):
            tilt_polynomial(geom, ToolPose(0.0, 0.0, -1e200, 0.2, 0.0))
        # a tool whose squared x offset overflows in the float power itself
        for tool in (ToolPose(1e200, 0.0, 0.0, 0.0, 0.0), ToolPose(0.0, 1e200, 0.0, 0.0, 1.0)):
            for call in (tilt_polynomial, tool_ik):
                with pytest.raises(OverflowError,
                                   match="^tilt polynomial: coefficients out of float range$"):
                    call(geom, tool)


@pytest.mark.parametrize("angle", ["phi1", "phi2"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_tool_ik_non_finite_angle_is_one_value_error(geom, angle, value):
    # a NaN phi1 used to reach the tilt polynomial and fail there as an
    # OverflowError; tool_ik rebuilds its ToolPose from the five fields
    fields = {"x_u": 120.0, "y_u": -80.0, "z_u": -150.0, "phi1": 0.3, "phi2": 1.1, angle: value}
    for solve in (lambda f: ToolPose(**f), lambda f: tool_ik(geom, SimpleNamespace(**f))):
        with pytest.raises(ValueError, match=f"^angle must be finite, got {value}$"):
            solve(fields)


def test_select_machine_solution_roundtrip(geom):
    rng = np.random.default_rng(13)
    for _ in range(30):
        pose, joints, th1, th2, tool = random_machine_state(geom, rng)
        chosen = select_machine_solution(tool_ik(geom, tool), geom)
        assert chosen is not None
        mj = chosen.machine_joints
        assert mj.theta1 == pytest.approx(th1, abs=1e-8)
        assert mj.joints.rho1 == pytest.approx(joints.rho1, abs=1e-6)
        assert chosen.indices.as_tuple() == (-1, -1, -1)


def test_tilt_range_edge_keeps_the_working_tilt_and_one_ulp_inward_drops_it(geom):
    # the tilt range is enforced on theta1 directly: a limit at the working
    # tilt keeps it, bit for bit, and a limit one ulp inward drops it
    rng = np.random.default_rng(49)
    for _ in range(20):
        tool = random_machine_state(geom, rng)[-1]
        chosen = select_machine_solution(tool_ik(geom, tool), geom)
        theta1 = chosen.machine_joints.theta1
        for limit, inward in (("theta1_max", -math.inf), ("theta1_min", math.inf)):
            edge = replace(geom, **{limit: theta1})
            assert select_machine_solution(tool_ik(edge, tool), edge) == chosen
            inside = replace(geom, **{limit: math.nextafter(theta1, inward)})
            assert theta1 not in tilt_candidates(inside, tool)
            assert all(m.machine_joints.theta1 != theta1 for m in tool_ik(inside, tool))


def test_tool_fk_tool_ik_roundtrip(geom):
    rng = np.random.default_rng(15)
    for _ in range(20):
        pose, joints, th1, th2, tool = random_machine_state(geom, rng)
        chosen = select_machine_solution(tool_ik(geom, tool), geom)
        mj = chosen.machine_joints
        modes = enumerate_fk(geom, mj.joints)
        reachable = [m for m in modes if m.reachable]
        assert len(reachable) == 1
        tp = tool_pose_from_platform(geom, reachable[0].pose, mj.theta1, mj.theta2)
        assert (tp.x_u, tp.y_u, tp.z_u) == pytest.approx(
            (tool.x_u, tool.y_u, tool.z_u), abs=1e-6)
        assert tp.phi1 == pytest.approx(tool.phi1, abs=1e-8)
        assert tp.phi2 == pytest.approx(tool.phi2, abs=1e-12)


def test_machine_constraint_matches_oracle_route(geom):
    # tool_ik's route (the parallel-module constraints at the platform pose
    # the tilt implies) and the oracle's machine-level restatement must agree
    rng = np.random.default_rng(16)
    pose, joints, th1, th2, tool = random_machine_state(geom, rng)
    mj = MachineJoints(joints=joints, theta1=th1, theta2=th2)
    internal = constraint_residuals(geom, *platform_at(geom, tool, th1),
                                    *joints.as_tuple())
    external = residuals_machine(geom, tool, mj)
    assert internal == pytest.approx(external.as_tuple(), abs=1e-12)
