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

from .parallel_ik import (ConfigurationIndices, ParallelJoints, _branches,
                          _coupling_holds, _on_working_branch, _record, _require_finite,
                          _unique, wrap_angle)
from .rootfind import CLUSTER_REL_TOL, Polynomial, real_roots

# relative widening of the tilt range, in u = tan(theta1/2), within which the
# tilt polynomial's root candidates are polished
TILT_WINDOW_REL = 1e-4


@_record("phi1", "phi2")
class ToolPose:
    """Tool centre point (mm) and orientation (rad) in the table frame."""

    x_u: float
    y_u: float
    z_u: float
    phi1: float
    phi2: float


@_record()
class MachineJoints:
    """Slider coordinates plus tilting-table angles in the base frame."""

    joints: ParallelJoints
    theta1: float
    theta2: float


@_record()
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


def tool_pose_from_platform(geom, pose, theta1, theta2):
    """Map a platform pose through the table chain to a tool pose;
    ValueError, naming it, for an infinite or NaN coordinate or angle."""
    _require_finite(("x_p", "y_p", "z_p", "theta1", "theta2"),
                    (pose.x_p, pose.y_p, pose.z_p, theta1, theta2))
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


def _rotary_frame(geom, tool):
    """The tilt-free half of the inverse table chain, once per tool: the tool
    position turned back by theta2 = -phi2 (cos and sin of phi2, the same
    bits up to the sine's sign), as (x_p, swing, d_t - z_u), and phi1."""
    c2, s2 = math.cos(tool.phi2), math.sin(tool.phi2)
    return (c2 * tool.x_u + s2 * tool.y_u, s2 * tool.x_u - c2 * tool.y_u,
            geom.d_t - tool.z_u, tool.phi1)


def _platform_coordinates(geom, table, theta1):
    """Platform (x_p, y_p, z_p, alpha) for one tilt of a tool in the rotary
    frame (_rotary_frame), with alpha = theta1 + phi1 left unwrapped (the
    tilt relation only takes its cosine and sine)."""
    x_p, swing, depth, phi1 = table
    alpha = theta1 + phi1
    c1, s1 = math.cos(theta1), math.sin(theta1)
    y_p = c1 * swing - s1 * depth + geom.Delta * math.sin(alpha)
    z_p = s1 * swing + c1 * depth + geom.d_a - geom.Delta * math.cos(alpha)
    return x_p, y_p, z_p, alpha


# ---------------------------------------------------------------------------
# machine-level IK: the parallel-module constraints at the table-chain pose

def _product(a, b):
    """Product of two ascending coefficient sequences of Python floats."""
    out = [0.0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def tilt_polynomial(geom, tool):
    """Degree-<=6 characteristic polynomial in u = tan(theta1/2): the
    coupling relation R1^2 s^2 (X1^2 - a_sq(c)) + leg1_span_sq(c) y_p^2 in
    half-angle form.  With T = 1 + u^2 and S, C, E the numerators of
    sin/cos(theta1 + phi1) and y_p over T, clearing T^3 leaves
    P = R1^2 A S^2 + B E^2, where A = (X1^2 - K) T - 2 R1 r1 C,
    B = (R1^2 + r1^2) T - 2 R1 r1 C and K = L1^2 - R1^2 - r1^2: four
    products and one sum, in Python floats.  A working axis tilt (s = 0,
    y_p = 0) is a double root, which tilt_candidates injects;
    test_tilt_polynomial_matches_the_coupling_residual checks the derivation.
    ValueError, naming it, for an infinite or NaN tool coordinate; else
    OverflowError when a coefficient is not finite.
    """
    _require_finite(("x_u", "y_u", "z_u"), (tool.x_u, tool.y_u, tool.z_u))
    R1, r1 = geom.R1, geom.r1
    x_p, swing, depth, phi1 = _rotary_frame(geom, tool)
    cp1, sp1 = math.cos(phi1), math.sin(phi1)
    lever, span = 2.0 * R1 * r1, R1**2 + r1**2
    try:
        x_term = (x_p + geom.D1 - geom.d1)**2 - (geom.L1**2 - R1**2 - r1**2)  # X1^2 - K
    except OverflowError:  # a float power out of range
        raise OverflowError("tilt polynomial: coefficients out of float range") from None
    # T = (1, 0, 1), C = (cp1, -2 sp1, -cp1)
    A = (x_term - lever * cp1, 2.0 * lever * sp1, x_term + lever * cp1)
    B = (span - lever * cp1, 2.0 * lever * sp1, span + lever * cp1)
    S = (sp1, 2.0 * cp1, -sp1)
    E0 = swing + geom.Delta * sp1
    E = (E0, 2.0 * geom.Delta * cp1 - 2.0 * depth, -E0)
    S2, E2 = _product(S, S), _product(E, E)
    coeffs = [R1**2 * a + b for a, b in zip(_product(A, S2), _product(B, E2))]
    # float products overflow to inf without an exception
    if not all(map(math.isfinite, coeffs)):
        raise OverflowError("tilt polynomial: coefficients out of float range")
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
    # only roots the tilt range can reach are polished: u = tan(theta1/2) on
    # the range widened by TILT_WINDOW_REL, far more than a chain of merges
    # CLUSTER_REL_TOL apart can span, so no kept root and no merge changes
    lo, hi = (math.tan(0.5 * max(-math.pi, min(math.pi, t)))
              for t in (geom.theta1_min, geom.theta1_max))
    window = (lo - TILT_WINDOW_REL * (1.0 + abs(lo)), hi + TILT_WINDOW_REL * (1.0 + abs(hi)))
    for u in real_roots(poly, *window) if poly.degree >= 1 else []:
        theta1 = 2.0 * math.atan(u)
        # tilts are angles of order one, so the width serves in radians
        tilts.add(next((a for a in axis if abs(wrap_angle(theta1 - a)) <= CLUSTER_REL_TOL),
                       theta1))
    table = _rotary_frame(geom, tool)
    out = []
    for theta1 in sorted(tilts):
        if not geom.theta1_min <= theta1 <= geom.theta1_max:
            continue
        x_p, y_p, _, alpha = _platform_coordinates(geom, table, theta1)
        if _coupling_holds(geom, x_p, y_p, alpha):
            out.append(theta1)
    return out


def tool_ik(geom, tool):
    """Machine-level inverse kinematics: at most 16 branches.

    theta2 = -phi2 exactly; theta1 runs over the in-range tilt candidates.
    Each tilt implies one platform pose, whose branches are the
    parallel-module ones, built, sign-ruled and residual-checked against all
    four rod constraints by the same code as enumerate_ik, and distinct by
    the same per-leg rule.  Branches come sorted ascending by (theta1,
    indices.as_tuple()).  within_limits covers the sliders and the rotary
    range (the tilt range is enforced on theta1 directly, since the table
    cannot leave it).
    """
    # positions as Python floats, whose arithmetic raises OverflowError where
    # numpy scalars would warn first; the angles are wrapped floats already
    tool = ToolPose(float(tool.x_u), float(tool.y_u), float(tool.z_u), tool.phi1, tool.phi2)
    theta2 = -tool.phi2
    rotary_ok = geom.theta2_min <= theta2 <= geom.theta2_max
    table = _rotary_frame(geom, tool)
    solutions = []
    for theta1 in tilt_candidates(geom, tool):
        x_p, y_p, z_p, alpha = _platform_coordinates(geom, table, theta1)
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
