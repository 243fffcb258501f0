"""Inverse kinematics of the parallel module.

The platform pose is (x_p, y_p, z_p, alpha).  Leg I is a trapezium, so its
two rod constraints couple alpha to (x_p, y_p): their difference gives the
sign rule  y_p (R1 cos a - r1) = R1 sin a (rho1 - z_p), their mean gives the
midpoint sphere used to solve rho1.  Eliminating rho1 yields the coupling
relation whose level sets are ellipses of constant orientation, and a cubic
characteristic polynomial in cos(alpha).  Each orientation admits up to four
sign branches on the three sliders, for at most 16 branches in total.
"""

import math
from dataclasses import dataclass
from itertools import product
from operator import attrgetter

from .errors import (AmbiguousSelectionError, DegenerateOrientationError,
                     InconsistentPoseError, NegativeRadicandError,
                     SignRuleViolation, UnreachableOrientationError)
from .rootfind import Polynomial, real_roots_in_unit_interval

# radicands in [-RADICAND_CLAMP_REL * L^2, 0) count as grazing contact
RADICAND_CLAMP_REL = 1e-9
COUPLING_REL_TOL = 1e-9
POSE_COUPLING_REL_TOL = 1e-8
SOLUTION_REL_TOL = 1e-8
DEDUP_TOL = 1e-9
# float sin at multiples of pi is ~1e-16, never exactly zero
DEGENERATE_SIN_TOL = 1e-12
# cosine roots this close to +-1 are the axis orientations
COS_SNAP_TOL = 1e-12

#: allowed_s1 marker for the degenerate leg-I branch where rho1 = z_p.
RHO1_PINNED = "rho1 = z_p"


def wrap_angle(a):
    """Normalize an angle to (-pi, pi], with -pi canonicalized to +pi."""
    w = math.fmod(a + math.pi, 2.0 * math.pi)
    if w <= 0.0:
        w += 2.0 * math.pi
    return w - math.pi


@dataclass(frozen=True)
class PlatformPose:
    """Platform position (mm) and coupled orientation (rad, in (-pi, pi])."""

    x_p: float
    y_p: float
    z_p: float
    alpha: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", wrap_angle(self.alpha))

    @classmethod
    def solved(cls, geom, x_p, y_p, z_p, alpha):
        """Construct a pose that must satisfy the coupling relation."""
        pose = cls(x_p, y_p, z_p, alpha)
        if abs(coupling_residual(geom, x_p, y_p, pose.alpha)) > POSE_COUPLING_REL_TOL * geom.L1**2:
            raise InconsistentPoseError(
                f"pose does not satisfy the orientation coupling at alpha={pose.alpha:.9f}")
        return pose


@dataclass(frozen=True)
class ParallelJoints:
    """Actuated prismatic coordinates of the three sliders (mm)."""

    rho1: float
    rho2: float
    rho3: float

    def as_tuple(self):
        return (self.rho1, self.rho2, self.rho3)


@dataclass(frozen=True)
class ConfigurationIndices:
    """Square-root branch signs of the three sliders, each in {-1, +1}."""

    s1: int
    s2: int
    s3: int

    def __post_init__(self):
        for name in ("s1", "s2", "s3"):
            if getattr(self, name) not in (-1, 1):
                raise ValueError(f"{name} must be -1 or +1")

    def as_tuple(self):
        return (self.s1, self.s2, self.s3)


@dataclass(frozen=True)
class IkSolution:
    """One inverse-kinematic branch with its residual and limit flag."""

    joints: ParallelJoints
    alpha: float
    indices: ConfigurationIndices
    residual_norm: float
    within_limits: bool


@dataclass(frozen=True)
class IsoEllipse:
    """Locus of platform positions sharing one orientation alpha."""

    center_x: float
    semi_major_a: float
    semi_minor_b: float
    alpha: float

    def point(self, phi):
        """Point on the ellipse at parametric angle phi: (x_p, y_p)."""
        return (self.center_x + self.semi_major_a * math.cos(phi),
                self.semi_minor_b * math.sin(phi))


def constraint_residuals(geom, x_p, y_p, z_p, alpha, rho1, rho2, rho3):
    """The four rod-length constraint residuals (mm^2), leg I twice."""
    c, s = math.cos(alpha), math.sin(alpha)
    X1 = x_p + geom.D1 - geom.d1
    X2 = x_p + geom.D2 - geom.d2
    return (
        X1**2 + (y_p + geom.R1 * c - geom.r1)**2 + (z_p + geom.R1 * s - rho1)**2 - geom.L1**2,
        X1**2 + (y_p - geom.R1 * c + geom.r1)**2 + (z_p - geom.R1 * s - rho1)**2 - geom.L1**2,
        X2**2 + (y_p - geom.R2 * c + geom.r4)**2 + (z_p - geom.R2 * s - rho2)**2 - geom.L2**2,
        X2**2 + (y_p + geom.R2 * c - geom.r4)**2 + (z_p + geom.R2 * s - rho3)**2 - geom.L3**2,
    )


def solution_residual_norm(geom, pose, joints):
    return max(abs(r) for r in constraint_residuals(
        geom, pose.x_p, pose.y_p, pose.z_p, pose.alpha,
        joints.rho1, joints.rho2, joints.rho3))


def coupling_residual(geom, x_p, y_p, alpha):
    """Residual of the position/orientation coupling relation."""
    c, s = math.cos(alpha), math.sin(alpha)
    X1 = x_p + geom.D1 - geom.d1
    return (geom.R1**2 * s**2 * X1**2
            + geom.leg1_span_sq(c) * y_p**2
            - geom.R1**2 * s**2 * geom.a_sq(c))


def coupling_scale(geom, x_p, y_p, alpha):
    """Largest coupling-term magnitude; reference for relative residuals.

    Intentionally built only from the terms the relation actually sums at
    this (point, alpha): near the axis orientations every term vanishes, so
    boundary-clamped cosine roots from just outside [-1, 1] cannot sneak in
    as candidates on the strength of an unrelated global scale.
    """
    c, s = math.cos(alpha), math.sin(alpha)
    X1 = x_p + geom.D1 - geom.d1
    return max(1.0,
               geom.R1**2 * s**2 * X1**2,
               abs(geom.leg1_span_sq(c)) * y_p**2,
               geom.R1**2 * s**2 * abs(geom.a_sq(c)))


def coupling_cubic(geom, x_p, y_p):
    """Characteristic cubic in cos(alpha); coefficients ascending.

    The leading coefficient is 2 R1^3 r1 for every position.
    """
    R1, r1 = geom.R1, geom.r1
    X1 = x_p + geom.D1 - geom.d1
    K = geom.L1**2 - R1**2 - r1**2
    p1 = 2.0 * R1**3 * r1
    p2 = R1**2 * K - R1**2 * X1**2
    p3 = -2.0 * R1**3 * r1 - 2.0 * R1 * r1 * y_p**2
    p4 = R1**2 * X1**2 + (R1**2 + r1**2) * y_p**2 - R1**2 * K
    return Polynomial((p4, p3, p2, p1))


def _polish_alpha(geom, x_p, y_p, alpha):
    """Newton-polish alpha against the coupling residual (arccos of a cubic
    root loses accuracy near cos(alpha) = +-1)."""
    R1, r1 = geom.R1, geom.r1
    X1 = x_p + geom.D1 - geom.d1
    for _ in range(3):
        c, s = math.cos(alpha), math.sin(alpha)
        g = coupling_residual(geom, x_p, y_p, alpha)
        dg = (2.0 * s * c * R1**2 * (X1**2 - geom.a_sq(c))
              + 2.0 * R1 * r1 * s * y_p**2
              + 2.0 * R1**3 * r1 * s**3)
        if dg == 0.0:
            break
        step = g / dg
        if not math.isfinite(step) or abs(step) > 0.1:
            break
        alpha -= step
    return alpha


def orientation_candidates(geom, x_p, y_p):
    """All orientations alpha admissible at (x_p, y_p), sorted ascending.

    Both signs of each arccos root are kept (the cubic is stated in
    cos(alpha) and the coupling relation is even in alpha); the sign of
    sin(alpha) is paired with y_p only later, through the rho1 branch rule.
    Empty when the point lies outside every coupling ellipse.
    """
    cubic = coupling_cubic(geom, x_p, y_p)
    out = []
    for c in real_roots_in_unit_interval(cubic):
        # axis roots come back as +-(1 - O(eps)); arccos would amplify the
        # noise into a spurious +-alpha pair (or split pi across the wrap),
        # and polishing would walk off the axis, so they stay exact
        snapped = c > 1.0 - COS_SNAP_TOL or c < -1.0 + COS_SNAP_TOL
        base = math.acos(max(-1.0, min(1.0, round(c) if snapped else c)))
        for alpha in {wrap_angle(base), wrap_angle(-base)}:
            if not snapped:
                alpha = wrap_angle(_polish_alpha(geom, x_p, y_p, alpha))
            res = coupling_residual(geom, x_p, y_p, alpha)
            if abs(res) <= COUPLING_REL_TOL * coupling_scale(geom, x_p, y_p, alpha):
                out.append(alpha)
    out.sort()
    merged = []
    for a in out:
        if merged and abs(a - merged[-1]) <= DEDUP_TOL:
            continue
        merged.append(a)
    return merged


def iso_ellipse(geom, alpha):
    """Iso-orientation ellipse for alpha (degenerate orientations rejected).

    The semi-minor axis carries the sin^2(alpha) factor; at sin(alpha) = 0
    the locus collapses to the line y_p = 0 and an error is raised.  When
    R1 cos(alpha) = r1 the ellipse is a circle (a = b).
    """
    c, s = math.cos(alpha), math.sin(alpha)
    if abs(s) < DEGENERATE_SIN_TOL:
        raise DegenerateOrientationError(
            f"alpha={alpha!r}: locus degenerates to the line y_p = 0")
    a2 = geom.a_sq(c)
    if a2 <= 0.0:
        raise UnreachableOrientationError(
            f"alpha={alpha!r}: no position admits this orientation")
    a = math.sqrt(a2)
    b = geom.R1 * abs(s) * a / math.sqrt(geom.leg1_span_sq(c))
    return IsoEllipse(center_x=geom.center_x, semi_major_a=a,
                      semi_minor_b=b, alpha=wrap_angle(alpha))


def _clamped_sqrt(radicand, scale, leg):
    if radicand < -RADICAND_CLAMP_REL * scale:
        raise NegativeRadicandError(leg, radicand)
    return math.sqrt(max(radicand, 0.0))


def leg_radicands(geom, x_p, y_p, alpha):
    """Square-root arguments of the three slider solutions (mm^2)."""
    c = math.cos(alpha)
    X1 = x_p + geom.D1 - geom.d1
    X2 = x_p + geom.D2 - geom.d2
    return (
        geom.a_sq(c) - X1**2 - y_p**2,
        geom.L2**2 - X2**2 - (y_p - geom.R2 * c + geom.r4)**2,
        geom.L3**2 - X2**2 - (y_p + geom.R2 * c - geom.r4)**2,
    )


def allowed_s1(geom, pose):
    """Admissible leg-I branch signs for a pose on the coupling locus.

    Returns a frozenset of signs, or the RHO1_PINNED marker when the leg-I
    geometry forces rho1 = z_p (zero radicand).  At alpha in {0, pi} both
    signs are admissible; otherwise the sign rule fixes s1 uniquely.
    """
    return _sign_rule(geom, pose)[0]


def _sign_rule(geom, pose):
    """(allowed_s1, rho1 - z_p), the offset None where s1 is free."""
    c, s = math.cos(pose.alpha), math.sin(pose.alpha)
    if abs(s) < DEGENERATE_SIN_TOL:
        return frozenset((-1, 1)), None
    # the sign rule solved for the slider offset rho1 - z_p; it vanishes at
    # y_p = 0 or R1 cos(alpha) = r1, where the radicand does too.  Poses
    # mapped through the table chain only reach those loci to round-off, so
    # an offset within DEDUP_TOL (or NaN) pins rho1 = z_p rather than taking
    # the square root of a radicand that is round-off noise; -0.0 is the
    # offset that leaves z_p unchanged bit for bit
    offset = pose.y_p * (geom.R1 * c - geom.r1) / (geom.R1 * s)
    if not abs(offset) > DEDUP_TOL:
        return RHO1_PINNED, -0.0
    return frozenset((_sgn(offset),)), offset


def _sgn(v):
    # int() casts keep numpy scalar inputs from producing np.bool_ arithmetic
    return int(v > 0) - int(v < 0)


def _leg_roots(geom, pose):
    """The clamped square roots of the three leg radicands; a leg that cannot
    close raises NegativeRadicandError, leg I checked first, then II, III."""
    rad1, rad2, rad3 = leg_radicands(geom, pose.x_p, pose.y_p, pose.alpha)
    return (_clamped_sqrt(rad1, geom.L1**2, "I"),
            _clamped_sqrt(rad2, geom.L2**2, "II"),
            _clamped_sqrt(rad3, geom.L3**2, "III"))


def _joints(geom, pose, offset, roots, indices):
    # off the axis the sign rule gives rho1 - z_p without a square root: the
    # leg-I radicand is round-off next to the y_p = 0 edge of an ellipse,
    # and there its root would put rho1 off by up to ~1e-5 mm
    rho1 = pose.z_p + (indices.s1 * roots[0] if offset is None else offset)
    lift = geom.R2 * math.sin(pose.alpha)
    return ParallelJoints(rho1, pose.z_p - lift + indices.s2 * roots[1],
                          pose.z_p + lift + indices.s3 * roots[2])


def joints_from_pose(geom, pose, indices):
    """Slider coordinates for one sign branch of a solved pose.

    Raises NegativeRadicandError when a leg cannot close and
    SignRuleViolation when indices.s1 contradicts the leg-I sign rule.
    """
    allowed, offset = _sign_rule(geom, pose)
    if allowed is not RHO1_PINNED and indices.s1 not in allowed:
        raise SignRuleViolation(
            f"s1={indices.s1:+d} contradicts the leg-I sign rule at alpha={pose.alpha:.9f}")
    return _joints(geom, pose, offset, _leg_roots(geom, pose), indices)


def _branches(geom, pose):
    """Every sign branch of a solved pose that closes all four rod constraints
    (4 or 8 before the residual filter, not deduplicated).  The sign rule and
    the three leg roots are computed once for all of them."""
    allowed, offset = _sign_rule(geom, pose)
    try:
        roots = _leg_roots(geom, pose)
    except NegativeRadicandError:
        return []
    out = []
    s1_values = (-1, 1) if allowed is RHO1_PINNED else sorted(allowed)
    for s1, s2, s3 in product(s1_values, (-1, 1), (-1, 1)):
        indices = ConfigurationIndices(s1, s2, s3)
        joints = _joints(geom, pose, offset, roots, indices)
        residual = solution_residual_norm(geom, pose, joints)
        if residual <= SOLUTION_REL_TOL * geom.residual_scale:
            out.append(IkSolution(joints=joints, alpha=pose.alpha, indices=indices,
                                  residual_norm=residual,
                                  within_limits=geom.rho_within_limits(joints.as_tuple())))
    return out


def enumerate_ik(geom, x_p, y_p, z_p):
    """Every inverse-kinematic branch at a platform position (at most 16).

    Branches out of slider range are annotated, not dropped; duplicates
    (within 1e-9 mm / 1e-9 rad) are merged.  Empty when the position lies
    outside every coupling ellipse.
    """
    solutions = [sol for alpha in orientation_candidates(geom, x_p, y_p)
                 for sol in _branches(geom, PlatformPose(x_p, y_p, z_p, alpha))]
    return _dedup(solutions, attrgetter("alpha", "joints.rho1", "joints.rho2", "joints.rho3"),
                  DEDUP_TOL)


def _dedup(items, key, tol):
    """items without those whose four-float key lies within tol, component
    by component, of an earlier kept item's key; order is preserved."""
    kept, kept_keys = [], []
    for item in items:
        a, b, c, d = key(item)
        for p, q, r, s in kept_keys:
            if (abs(a - p) <= tol and abs(b - q) <= tol
                    and abs(c - r) <= tol and abs(d - s) <= tol):
                break
        else:
            kept.append(item)
            kept_keys.append((a, b, c, d))
    return kept


def _on_working_branch(geom, indices, alpha):
    """The leg disposition the physical machine uses: every slider above the
    platform, s = (-1, -1, -1), and no rod crossing, R1 cos(alpha) > r1."""
    return indices.as_tuple() == (-1, -1, -1) and geom.R1 * math.cos(alpha) > geom.r1


def _unique(survivors):
    """The single survivor, or None; several raise AmbiguousSelectionError."""
    if len(survivors) > 1:
        raise AmbiguousSelectionError(survivors)
    return survivors[0] if survivors else None


def select_working_solution(solutions, geom):
    """The branch the physical machine uses, or None.

    Filters to s = (-1, -1, -1) (sliders above the platform, z points
    down), then to the rod-crossing guard R1 cos(alpha) > r1, then to the
    slider limits.  Raises AmbiguousSelectionError when several branches
    survive; multiplicity is reported, never silently resolved.
    """
    return _unique([s for s in solutions
                    if _on_working_branch(geom, s.indices, s.alpha) and s.within_limits])
