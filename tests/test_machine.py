import math

import numpy as np
import pytest

from pkmkin import (ConfigurationIndices, MachineJoints, ParallelJoints, PlatformPose, ToolPose,
                    enumerate_fk, enumerate_ik, iso_ellipse, joints_from_pose,
                    orientation_candidates, platform_from_tool,
                    residuals_machine, residuals_parallel,
                    select_machine_solution, select_working_solution,
                    table_transform, tilt_candidates, tilt_polynomial,
                    tool_fk, tool_ik, tool_pose_from_platform, wrap_angle)
from pkmkin import machine
from pkmkin.machine import _platform_coordinates
from pkmkin.parallel_ik import DEDUP_TOL, constraint_residuals, coupling_residual
from pkmkin.rootfind import real_roots

from conftest import (angle_delta, assert_distinct, grazing_point, locus_points,
                      region_points, use_numpy_polynomial)


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
        x, y, z, alpha = platform_from_tool(geom, tool, th1)
        assert (x, y, z) == pytest.approx((pose.x_p, pose.y_p, pose.z_p), abs=1e-9)
        assert alpha == pytest.approx(pose.alpha, abs=1e-12)


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


def test_tilt_polynomial_matches_numpy_polynomial(geom, monkeypatch):
    rng = np.random.default_rng(37)
    tools = []
    for k in range(48):
        tool = random_machine_state(geom, rng)[-1]
        phi1 = (0.0, math.pi / 2.0, -math.pi / 2.0, math.pi, tool.phi1)[k % 5]
        phi2 = 0.0 if k % 3 == 0 else tool.phi2
        tools.append(ToolPose(tool.x_u, tool.y_u, tool.z_u, phi1, phi2))

    def outputs():
        return [(tilt_polynomial(geom, tool).coeffs, tool_ik(geom, tool)) for tool in tools]

    ours = outputs()
    use_numpy_polynomial(monkeypatch, machine)
    reference = outputs()
    assert reference == ours
    # repr tells -0.0 from 0.0
    assert repr(reference) == repr(ours)


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
            x, y, z, alpha = platform_from_tool(geom, tool, cand)
            orientations = orientation_candidates(geom, x, y)
            assert any(abs(wrap_angle(cand + tool.phi1) - a) <= 1e-7
                       for a in orientations), (cand, orientations)


def test_tilt_residual_scaled_small_at_candidates(geom):
    rng = np.random.default_rng(9)
    pose, joints, th1, th2, tool = random_machine_state(geom, rng)
    for cand in tilt_candidates(geom, tool):
        # the tilt relation is the coupling relation at the implied pose
        x, y, _, alpha = _platform_coordinates(geom, tool, cand)
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
            mx, my, mz, malpha = platform_from_tool(geom, tool, m.machine_joints.theta1)
            peers = enumerate_ik(geom, mx, my, mz)
            assert any(abs(p.alpha - malpha) <= 1e-7
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
            pose = PlatformPose(*_platform_coordinates(geom, tool, m.machine_joints.theta1))
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
                px, py, pz, _ = _platform_coordinates(geom, tool, mj.theta1)
                res = constraint_residuals(geom, px, py, pz, m.alpha, *mj.joints.as_tuple())
                assert m.residual_norm == max(abs(r) for r in res)
                assert m.within_limits == (geom.rho_within_limits(mj.joints.as_tuple())
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


@pytest.mark.parametrize("leg", ["II", "III"])
@pytest.mark.parametrize("theta1", [0.0, 0.7])
def test_tool_ik_grazing_leg_gives_its_minus_branch_once(geom, leg, theta1):
    x, y, z = grazing_point(geom, leg)
    tool = tool_pose_from_platform(geom, PlatformPose(x, y, z, 0.3), theta1, 0.4)
    sols = [m for m in tool_ik(geom, tool) if abs(m.machine_joints.theta1 - theta1) <= 1e-9]
    k = 1 if leg == "II" else 2
    assert len(sols) == 2 and {m.indices.as_tuple()[k] for m in sols} == {-1}
    for m in sols:
        pose = PlatformPose(*_platform_coordinates(geom, tool, m.machine_joints.theta1))
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


def test_tool_fk_mode_count_and_phi2(geom):
    rng = np.random.default_rng(14)
    pose, joints, th1, th2, tool = random_machine_state(geom, rng)
    mj = MachineJoints(joints=joints, theta1=th1, theta2=th2)
    tools = tool_fk(geom, mj)
    modes = enumerate_fk(geom, joints)
    assert len(tools) == len(modes)
    for tp in tools:
        assert tp.phi2 == -th2


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
    internal = constraint_residuals(geom, *_platform_coordinates(geom, tool, th1),
                                    *joints.as_tuple())
    external = residuals_machine(geom, tool, mj)
    assert internal == pytest.approx(external.as_tuple(), abs=1e-12)
