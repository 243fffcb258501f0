"""Independent references the tests check the solvers against.

No solver calls them.  The FK elimination chain (yp_from, zp_from, xp_from)
is the reference for the compiled octic, and the homogeneous-matrix table
chain (table_transform) the reference for the closed-form tool map.
DegenerateDenominatorError, raised by zp_from alone, stays a
KinematicsError, as every solver error is.
"""

import math

import numpy as np

from pkmkin.errors import DegenerateOrientationError, KinematicsError
from pkmkin.parallel_fk import _require_distinct_offsets

PERPENDICULAR_LEG_REL_TOL = 1e-12


class DegenerateDenominatorError(KinematicsError):
    """A back-substitution denominator vanished; the degenerate branch must
    be used instead."""


# ---------------------------------------------------------------------------
# the FK elimination chain

def yp_from(geom, alpha, z_p, rho1):
    """y_p from the difference of the two leg-I rod constraints.

    Singular when the leg-I direction is perpendicular to the slider plane
    (R1 cos(alpha) = r1), which also makes the iso-orientation ellipse a
    circle.  A reference that no solver calls, like xp_from (see there).
    """
    den = geom.R1 * math.cos(alpha) - geom.r1
    if abs(den) < PERPENDICULAR_LEG_REL_TOL * geom.R1:
        raise DegenerateOrientationError(
            f"R1 cos(alpha) = r1 at alpha={alpha!r}: y_p is not determined by leg I")
    return geom.R1 * math.sin(alpha) * (rho1 - z_p) / den


def zp_from(geom, alpha, joints):
    """z_p from the difference of the leg-II and leg-III constraints.

    The (L2^2 - L3^2) term vanishes for identical parallelogram legs.  The
    denominator vanishes when rho2 = rho3 meets sin(alpha) = 0; that case
    is covered by the axis-aligned branch of enumerate_fk.  A reference that
    no solver calls, like xp_from (see there).
    """
    c, s = math.cos(alpha), math.sin(alpha)
    r1_, r2_, r3_ = joints.rho1, joints.rho2, joints.rho3
    lead = geom.R1 * c - geom.r1
    den = 2.0 * (2.0 * geom.C1 * s + lead * (r3_ - r2_))
    num = (lead * ((r2_ + r3_) * (r3_ - r2_) - 2.0 * geom.R2 * (r3_ + r2_ - 2.0 * r1_) * s)
           + 4.0 * geom.C1 * r1_ * s
           + (geom.L2**2 - geom.L3**2) * lead)
    den_scale = (4.0 * abs(geom.C1) + 2.0 * (geom.R1 + geom.r1)
                 * (abs(r3_ - r2_) + 1.0))
    if abs(den) < 1e-12 * den_scale:
        raise DegenerateDenominatorError(
            f"z_p denominator vanishes at alpha={alpha!r} for rho2~rho3")
    return num / den


def xp_from(geom, alpha, joints):
    """x_p from the difference of the leg-I midpoint and leg-II spheres.

    Requires the x-offset gap (D1 - d1) - (D2 - d2) to be nonzero; the
    offsets make the squared x terms cancel, leaving x_p linear.  No solver
    calls the three *_from formulas: they are the reference that
    test_probe_node_table_matches_the_elimination_chain checks the compiled
    octic against, at six probe nodes, which is why they stay.
    """
    _require_distinct_offsets(geom)
    z_p = zp_from(geom, alpha, joints)
    y_p = yp_from(geom, alpha, z_p, joints.rho1)
    c, s = math.cos(alpha), math.sin(alpha)
    w2 = geom.R2 * c - geom.r4
    gap = geom.offset_gap
    span = (geom.D1 - geom.d1) + (geom.D2 - geom.d2)
    rhs = (geom.a_sq(c) - geom.L2**2 + w2**2 - 2.0 * y_p * w2
           - (geom.R2 * s + joints.rho2 - joints.rho1)
           * (2.0 * z_p - joints.rho1 - geom.R2 * s - joints.rho2))
    return rhs / (2.0 * gap) - span / 2.0


# ---------------------------------------------------------------------------
# the table frame chain as homogeneous matrices

def _rotation(angle, i, j):
    """Homogeneous rotation by angle in the (i, j) coordinate plane."""
    c, s = math.cos(angle), math.sin(angle)
    m = np.eye(4)
    m[i, i] = m[j, j] = c
    m[i, j], m[j, i] = -s, s
    return m


def _trans_z(d):
    m = np.eye(4)
    m[2, 3] = d
    return m


def table_transform(geom, theta1, theta2):
    """Rigid transform taking table-frame coordinates to the base frame: the
    homogeneous-matrix reference, called by no solver, that the tests check
    tool_pose_from_platform against (test_tool_map_matches_frame_chain and
    the CLI's test_tool_fk_matches_fk_through_table_map)."""
    return (_trans_z(geom.d_a) @ _rotation(theta1, 1, 2) @ _trans_z(geom.d_t)
            @ _rotation(math.pi, 1, 2) @ _rotation(theta2, 0, 1))
