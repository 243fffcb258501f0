"""Full-machine kinematics: parallel module plus the 2-DOF tilting table.

The frame chain runs base -> (translate d_a, tilt theta1, translate d_t,
x-flip by pi, rotate theta2) -> table frame; the tool is described in the
table frame by its centre point (x_u, y_u, z_u) and two orientation angles
(phi1, phi2).  Because the leg rod pairs stay parallel, theta2 = -phi2
identically, and identifying the machine-level rod constraints with the
parallel-module ones gives alpha = theta1 + phi1.  Tool IK therefore
reduces to a degree-6 characteristic polynomial in tan(theta1/2); each
admissible tilt maps the tool to one platform pose, whose branches are the
parallel-module ones: the leg-I sign rule, one quadratic sign branch each
on legs II and III.
"""

import math
from dataclasses import dataclass

import numpy as np

from .parallel_fk import enumerate_fk
from .parallel_ik import (ConfigurationIndices, ParallelJoints, _branches,
                          _coupling_holds, _on_working_branch, _unique,
                          coupling_residual, wrap_angle)
from .rootfind import CLUSTER_REL_TOL, Polynomial, _add, _certify, _mul, real_roots


@dataclass(frozen=True)
class ToolPose:
    """Tool centre point (mm) and orientation (rad) in the table frame."""

    x_u: float
    y_u: float
    z_u: float
    phi1: float
    phi2: float

    def __post_init__(self):
        object.__setattr__(self, "phi1", wrap_angle(self.phi1))
        object.__setattr__(self, "phi2", wrap_angle(self.phi2))


@dataclass(frozen=True)
class MachineJoints:
    """Slider coordinates plus tilting-table angles in the base frame."""

    joints: ParallelJoints
    theta1: float
    theta2: float


@dataclass(frozen=True)
class MachineIkSolution:
    """One machine-level IK branch: joints, branch signs, residual, limits.

    alpha = theta1 + phi1 is the platform orientation implied by the
    branch, kept for the rod-crossing guard of the working-solution filter.
    """

    machine_joints: MachineJoints
    indices: ConfigurationIndices
    alpha: float
    residual_norm: float
    within_limits: bool


def _rot_x(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[1.0, 0.0, 0.0, 0.0],
                     [0.0, c, -s, 0.0],
                     [0.0, s, c, 0.0],
                     [0.0, 0.0, 0.0, 1.0]])


def _rot_z(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0, 0.0],
                     [s, c, 0.0, 0.0],
                     [0.0, 0.0, 1.0, 0.0],
                     [0.0, 0.0, 0.0, 1.0]])


def _trans_z(d):
    m = np.eye(4)
    m[2, 3] = d
    return m


def table_transform(geom, theta1, theta2):
    """Rigid transform taking table-frame coordinates to the base frame."""
    return (_trans_z(geom.d_a) @ _rot_x(theta1) @ _trans_z(geom.d_t)
            @ _rot_x(math.pi) @ _rot_z(theta2))


def tool_pose_from_platform(geom, pose, theta1, theta2):
    """Map a platform pose through the table chain to a tool pose."""
    c1, s1 = math.cos(theta1), math.sin(theta1)
    c2, s2 = math.cos(theta2), math.sin(theta2)
    swing = (geom.Delta * math.sin(pose.alpha - theta1)
             - c1 * pose.y_p - s1 * (pose.z_p - geom.d_a))
    return ToolPose(
        x_u=c2 * pose.x_p + s2 * swing,
        y_u=-s2 * pose.x_p + c2 * swing,
        z_u=(s1 * pose.y_p - c1 * pose.z_p + geom.d_a * c1
             - geom.Delta * math.cos(pose.alpha - theta1) + geom.d_t),
        phi1=pose.alpha - theta1,
        phi2=-theta2,
    )


def _platform_coordinates(geom, tool, theta1):
    """Platform (x_p, y_p, z_p, alpha) for one tilt, with alpha = theta1 + phi1
    left unwrapped (the tilt relation only takes its cosine and sine)."""
    theta2 = -tool.phi2
    alpha = theta1 + tool.phi1
    c1, s1 = math.cos(theta1), math.sin(theta1)
    c2, s2 = math.cos(theta2), math.sin(theta2)
    x_p = c2 * tool.x_u - s2 * tool.y_u
    swing = -s2 * tool.x_u - c2 * tool.y_u
    depth = geom.d_t - tool.z_u
    y_p = c1 * swing - s1 * depth + geom.Delta * math.sin(alpha)
    z_p = s1 * swing + c1 * depth + geom.d_a - geom.Delta * math.cos(alpha)
    return x_p, y_p, z_p, alpha


def platform_from_tool(geom, tool, theta1):
    """Invert the table chain: platform (x_p, y_p, z_p, alpha) for one tilt.

    Uses theta2 = -phi2; alpha = theta1 + phi1.
    """
    x_p, y_p, z_p, alpha = _platform_coordinates(geom, tool, theta1)
    return x_p, y_p, z_p, wrap_angle(alpha)


def tool_fk(geom, machine_joints):
    """Tool poses for every assembly mode of the parallel module."""
    modes = enumerate_fk(geom, machine_joints.joints)
    return [tool_pose_from_platform(geom, m.pose, machine_joints.theta1,
                                    machine_joints.theta2)
            for m in modes]


# ---------------------------------------------------------------------------
# machine-level IK: the parallel-module constraints at the table-chain pose

def tilt_polynomial(geom, tool):
    """Degree-<=6 characteristic polynomial in u = tan(theta1/2).

    Assembled exactly: with S(u), C(u) the half-angle numerators of
    sin/cos(theta1 + phi1) and E(u) that of the spread bracket, clearing
    (1 + u^2)^3 from the tilt relation leaves
    R1^2 X1^2 S^2 T + [(r1^2 + R1^2) T - 2 R1 r1 C] E^2
    - R1^2 S^2 [(L1^2 - R1^2 - r1^2) T + 2 R1 r1 C].
    Verified at probe nodes against the tilt relation, sampled as the
    coupling residual at the platform pose each tilt implies.
    """
    R1, r1 = geom.R1, geom.r1
    cp1, sp1 = math.cos(tool.phi1), math.sin(tool.phi1)
    cp2, sp2 = math.cos(tool.phi2), math.sin(tool.phi2)
    lateral = sp2 * tool.x_u - cp2 * tool.y_u
    X1c = cp2 * tool.x_u + sp2 * tool.y_u + geom.D1 - geom.d1
    depth = tool.z_u - geom.d_t

    T = np.array([1.0, 0.0, 1.0])
    S = np.array([sp1, 2.0 * cp1, -sp1])
    C = np.array([cp1, -2.0 * sp1, -cp1])
    E = np.array([lateral + geom.Delta * sp1,
                  2.0 * depth + 2.0 * geom.Delta * cp1,
                  -lateral - geom.Delta * sp1])
    K = geom.L1**2 - R1**2 - r1**2
    S2 = _mul(S, S)
    coeffs = _add(R1**2 * X1c**2 * _mul(S2, T),
                  _mul(_add((r1**2 + R1**2) * T, -(2.0 * R1 * r1 * C)), _mul(E, E)),
                  -_mul(S2, _add(K * T, 2.0 * R1 * r1 * C)) * R1**2)

    samples = []
    for u in (0.2183, -0.7341, 1.4127):
        x_p, y_p, _, alpha = _platform_coordinates(geom, tool, 2.0 * math.atan(u))
        samples.append((u, coupling_residual(geom, x_p, y_p, alpha) * (1.0 + u * u)**3))
    _certify(coeffs, samples, 6, "tilt polynomial")
    return Polynomial(coeffs)


def tilt_candidates(geom, tool):
    """Tilt angles solving the tilt relation, within the table tilt range.

    The tilt relation is the parallel-module coupling relation at the
    platform pose the tilt implies; every candidate takes the coupling test
    of orientation_candidates.  Candidates are the tilt-polynomial roots and
    the axis tilts -phi1 and pi - phi1 (alpha = 0, pi), where the polynomial
    has a double root that the root finder splits or drops: a root within
    the root-cluster width of an axis tilt is taken as that tilt.
    """
    axis = (wrap_angle(-tool.phi1), wrap_angle(math.pi - tool.phi1))
    poly = tilt_polynomial(geom, tool)
    tilts = set(axis)
    for u in real_roots(poly) if poly.degree >= 1 else []:
        theta1 = 2.0 * math.atan(u)
        # tilts are angles of order one, so the width serves in radians
        tilts.add(next((a for a in axis if abs(wrap_angle(theta1 - a)) <= CLUSTER_REL_TOL),
                       theta1))
    out = []
    for theta1 in sorted(tilts):
        if not geom.theta1_min <= theta1 <= geom.theta1_max:
            continue
        x_p, y_p, _, alpha = _platform_coordinates(geom, tool, theta1)
        if _coupling_holds(geom, x_p, y_p, alpha):
            out.append(theta1)
    return out


def tool_ik(geom, tool):
    """Machine-level inverse kinematics: at most 16 branches.

    theta2 = -phi2 exactly; theta1 runs over the in-range tilt candidates.
    Each tilt implies one platform pose, whose branches are the
    parallel-module ones, built, sign-ruled and residual-checked against all
    four rod constraints by the same code as enumerate_ik, and distinct by
    the same per-leg rule.  within_limits covers the sliders and the rotary
    range (the tilt range is enforced on theta1 directly, since the table
    cannot leave it).
    """
    # positions as Python floats, whose arithmetic raises OverflowError where
    # numpy scalars would warn first; the angles are wrapped floats already
    tool = ToolPose(float(tool.x_u), float(tool.y_u), float(tool.z_u), tool.phi1, tool.phi2)
    theta2 = -tool.phi2
    rotary_ok = geom.theta2_min <= theta2 <= geom.theta2_max
    solutions = []
    for theta1 in tilt_candidates(geom, tool):
        x_p, y_p, z_p, alpha = _platform_coordinates(geom, tool, theta1)
        alpha = wrap_angle(alpha)
        solutions += [MachineIkSolution(MachineJoints(joints, theta1, theta2), indices, alpha,
                                        residual, within_limits and rotary_ok)
                      for joints, indices, residual, within_limits
                      in _branches(geom, x_p, y_p, z_p, alpha)]
    return solutions


def select_machine_solution(solutions, geom):
    """The working machine branch, or None; ambiguity always reported.

    Same filters as the parallel-module working solution, with the
    rod-crossing guard evaluated on alpha = theta1 + phi1.
    """
    return _unique([sol for sol in solutions
                    if _on_working_branch(geom, sol.indices, sol.alpha) and sol.within_limits])
