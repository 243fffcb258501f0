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
from dataclasses import dataclass, fields
from itertools import product

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


def wrap_angle(a):
    """Normalize an angle to (-pi, pi], with -pi canonicalized to +pi;
    ValueError, naming the value, for an infinite or NaN angle."""
    if not math.isfinite(a):
        raise ValueError(f"angle must be finite, got {a}")
    w = math.fmod(a + math.pi, 2.0 * math.pi)
    if w <= 0.0:
        w += 2.0 * math.pi
    return w - math.pi


def _require_finite(names, values):
    """ValueError naming the first of the values that is infinite or NaN."""
    for name, value in zip(names, values):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def _record(*angles):
    """Frozen dataclass for a record the solvers build on every call, with an
    __init__ generated from its fields, as dataclasses generates its own,
    that stores them in one __dict__ update, not one frozen setattr each;
    the fields named in angles go through wrap_angle."""
    def decorate(cls):
        cls = dataclass(frozen=True, init=False)(cls)
        names = [f.name for f in fields(cls)]
        stores = ", ".join(f"{n}=wrap_angle({n})" if n in angles else f"{n}={n}"
                           for n in names)
        namespace = {}
        exec(f"def __init__(self, {', '.join(names)}):\n"
             f"    self.__dict__.update({stores})\n", globals(), namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
        return cls
    return decorate


@_record("alpha")
class PlatformPose:
    """Platform position (mm) and coupled orientation (rad, in (-pi, pi])."""

    x_p: float
    y_p: float
    z_p: float
    alpha: float

    @classmethod
    def solved(cls, geom, x_p, y_p, z_p, alpha):
        """Construct a pose that must satisfy the coupling relation."""
        try:
            pose = cls(x_p, y_p, z_p, alpha)
        except ValueError as exc:
            raise InconsistentPoseError(f"no orientation coupling holds: {exc}") from None
        if not abs(coupling_residual(geom, x_p, y_p, pose.alpha)) <= POSE_COUPLING_REL_TOL * geom.L1**2:
            raise InconsistentPoseError(
                f"pose does not satisfy the orientation coupling at alpha={pose.alpha:.9f}")
        return pose


@_record()
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


@_record()
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


def _rod_vectors(geom, x_p, y_p, z_p, c, s):
    """The slider-free rod vectors of the four rod constraints (leg I twice)
    at an orientation with cosine c and sine s, in mm: the x offsets X1
    (leg I) and X2 (legs II, III), the four y components Y, then the four
    heights h the sliders are measured from, so that a constraint's residual
    at slider rho is X^2 + Y^2 + (h - rho)^2 - L^2.  The rod residuals, the
    sliders and the FK Jacobian all read the rods from here."""
    R1c, R1s, R2c, R2s = geom.R1 * c, geom.R1 * s, geom.R2 * c, geom.R2 * s
    return (x_p + geom.D1 - geom.d1, x_p + geom.D2 - geom.d2,
            y_p + R1c - geom.r1, y_p - R1c + geom.r1, y_p - R2c + geom.r4, y_p + R2c - geom.r4,
            z_p + R1s, z_p - R1s, z_p - R2s, z_p + R2s)


def _rod_residuals(geom, x_p, y_p, z_p, c, s, rho1, rho2, rho3):
    """The four rod-length constraint residuals (mm^2), leg I twice, at an
    orientation with cosine c and sine s: _rod_vectors completed with the
    sliders."""
    X1, X2, Y1a, Y1b, Y2, Y3, h1a, h1b, h2, h3 = _rod_vectors(geom, x_p, y_p, z_p, c, s)
    return (X1**2 + Y1a**2 + (h1a - rho1)**2 - geom.L1**2,
            X1**2 + Y1b**2 + (h1b - rho1)**2 - geom.L1**2,
            X2**2 + Y2**2 + (h2 - rho2)**2 - geom.L2**2,
            X2**2 + Y3**2 + (h3 - rho3)**2 - geom.L3**2)


def constraint_residuals(geom, x_p, y_p, z_p, alpha, rho1, rho2, rho3):
    """The four rod-length constraint residuals (mm^2), leg I twice."""
    return _rod_residuals(geom, x_p, y_p, z_p, math.cos(alpha), math.sin(alpha),
                          rho1, rho2, rho3)


def _coupling_terms(geom, x_p, y_p, c, s):
    """The three terms the coupling relation sums, in its order, at an
    orientation with cosine c and sine s:
    R1^2 s^2 X1^2 + leg1_span_sq(c) y_p^2 - R1^2 s^2 a_sq(c)."""
    X1 = x_p + geom.D1 - geom.d1
    span = geom.leg1_span_sq(c)
    lever = geom.R1**2 * s**2
    # a_sq(c) = L1^2 - leg1_span_sq(c)
    return lever * X1**2, span * y_p**2, lever * (geom.L1**2 - span)


def coupling_residual(geom, x_p, y_p, alpha):
    """Residual of the position/orientation coupling relation."""
    t1, t2, t3 = _coupling_terms(geom, x_p, y_p, math.cos(alpha), math.sin(alpha))
    return t1 + t2 - t3


def _term_scale(t1, t2, t3):
    """The scale of the coupling terms, the reference of every relative
    coupling test."""
    return max(1.0, t1, abs(t2), abs(t3))


def _coupling_holds(geom, x_p, y_p, alpha):
    """The coupling test of every orientation candidate, from one evaluation."""
    t1, t2, t3 = _coupling_terms(geom, x_p, y_p, math.cos(alpha), math.sin(alpha))
    return abs(t1 + t2 - t3) <= COUPLING_REL_TOL * _term_scale(t1, t2, t3)


def coupling_cubic(geom, x_p, y_p):
    """Characteristic cubic in cos(alpha); coefficients ascending.

    The leading coefficient is 2 R1^3 r1 for every position.  ValueError,
    naming it, for an infinite or NaN coordinate; else OverflowError when a
    coefficient is not finite.
    """
    R1, r1 = geom.R1, geom.r1
    X1 = x_p + geom.D1 - geom.d1
    K = geom.L1**2 - R1**2 - r1**2
    try:
        p1 = 2.0 * R1**3 * r1
        p2 = R1**2 * K - R1**2 * X1**2
        p3 = -2.0 * R1**3 * r1 - 2.0 * R1 * r1 * y_p**2
        p4 = R1**2 * X1**2 + (R1**2 + r1**2) * y_p**2 - R1**2 * K
        return Polynomial((p4, p3, p2, p1))
    # a float power out of range raises OverflowError, while products
    # overflow to inf without an exception and Polynomial rejects them
    except (OverflowError, ValueError):
        _require_finite(("x_p", "y_p"), (x_p, y_p))
        raise OverflowError("coupling cubic: coefficients out of float range") from None


def _polish_alpha(geom, x_p, y_p, alpha):
    """Newton-polish alpha against the coupling residual (arccos of a cubic
    root loses accuracy near cos(alpha) = +-1), one evaluation of the
    coupling terms per step, at most 3 steps.  As in rootfind._polish, the
    polish stops at a fixed point, a step that leaves alpha unchanged, since
    the steps left would repeat it; alpha is in (0, pi), never a signed zero,
    so == compares its bits."""
    R1, r1 = geom.R1, geom.r1
    R1_sq, X1_sq, y_sq = R1**2, (x_p + geom.D1 - geom.d1)**2, y_p**2
    k1, k3 = 2.0 * R1 * r1, 2.0 * R1**3 * r1
    for _ in range(3):
        c, s = math.cos(alpha), math.sin(alpha)
        t1, t2, t3 = _coupling_terms(geom, x_p, y_p, c, s)
        g = t1 + t2 - t3
        dg = 2.0 * s * c * R1_sq * (X1_sq - geom.a_sq(c)) + k1 * s * y_sq + k3 * s**3
        if dg == 0.0:
            break
        step = g / dg
        if not math.isfinite(step) or abs(step) > 0.1 or alpha - step == alpha:
            break
        alpha -= step
    return alpha


def orientation_candidates(geom, x_p, y_p):
    """All orientations alpha admissible at (x_p, y_p), sorted ascending.

    The cosine roots are coupling_cubic's in [-1, 1], in closed form.  Both
    signs of each arccos root are kept (the cubic is stated in cos(alpha));
    the sign of sin(alpha) is paired with y_p only later, through the rho1
    branch rule.  The coupling relation and its polish are even in alpha,
    so each cosine root is polished and coupling-tested once, and its pair
    +-alpha stands or falls together.  On y_p = 0 the cubic factors exactly
    as (c^2 - 1) (2 R1^3 r1 c + R1^2 (K - X1^2)), K = L1^2 - R1^2 - r1^2:
    alpha = 0 and pi are always kept, and the third root, the cosine whose
    iso-ellipse has a_sq(c) = K + 2 R1 r1 c = X1^2, is taken directly, so no
    root finder merges it with +-1 where the two lie within round-off.
    Empty when the point lies outside every coupling ellipse.
    """
    x_p, y_p = float(x_p), float(y_p)
    # built on y_p = 0 too: it rejects non-finite and overflowing input
    cubic = coupling_cubic(geom, x_p, y_p)
    if y_p == 0.0:
        r3 = ((x_p + geom.D1 - geom.d1)**2 - geom.a_sq(0.0)) / (2.0 * geom.R1 * geom.r1)
        out, cosines = [0.0, math.pi], [r3] if -1.0 <= r3 <= 1.0 else []
    else:
        out, cosines = [], real_roots_in_unit_interval(cubic)
    for c in cosines:
        # axis roots come back as +-(1 - O(eps)); arccos would amplify the
        # noise into a spurious +-alpha pair (or split pi across the wrap),
        # and polishing would walk off the axis, so they stay exact
        if c > 1.0 - COS_SNAP_TOL or c < -1.0 + COS_SNAP_TOL:
            alpha = math.acos(round(c))
        else:
            alpha = wrap_angle(_polish_alpha(geom, x_p, y_p, math.acos(c)))
        if _coupling_holds(geom, x_p, y_p, alpha):
            out += (alpha, wrap_angle(-alpha))
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


def _sign_rule(geom, y_p, c, s):
    """(s1 signs, rho1 - z_p) at an orientation with cosine c and sine s:
    on the axis both signs, the offset None; where the rule pins rho1 = z_p,
    s1 = -1, which stands for both, and the offset -0.0; otherwise the sign
    of the offset."""
    if abs(s) < DEGENERATE_SIN_TOL:
        return (-1, 1), None
    # the sign rule solved for the slider offset rho1 - z_p; it vanishes at
    # y_p = 0 or R1 cos(alpha) = r1, where the radicand does too.  Poses
    # mapped through the table chain only reach those loci to round-off, so
    # an offset within DEDUP_TOL (or NaN) pins rho1 = z_p rather than taking
    # the square root of a radicand that is round-off noise; -0.0 is the
    # offset that leaves z_p unchanged bit for bit
    offset = y_p * (geom.R1 * c - geom.r1) / (geom.R1 * s)
    if not abs(offset) > DEDUP_TOL:
        return (-1,), -0.0
    return ((1,) if offset > 0.0 else (-1,)), offset


def _sliders(geom, rods, y_p, z_p, c, offset):
    """The sliders (rho1, rho2, rho3) of the s = -1 roots and of the s = +1
    roots from a pose's rods (_rod_vectors) at cosine c, given the sign
    rule's offset; leg I by its midpoint sphere, at (y_p, z_p).  A radicand
    less than RADICAND_CLAMP_REL of its squared rod length below zero is
    grazing contact and clamps to 0; a leg that cannot close raises
    NegativeRadicandError, leg I checked first, then II, III."""
    X1, X2, _, _, Y2, Y3, _, _, h2, h3 = rods
    rad1 = geom.a_sq(c) - X1**2 - y_p**2
    rad2 = geom.L2**2 - X2**2 - Y2**2
    rad3 = geom.L3**2 - X2**2 - Y3**2
    if rad1 < -RADICAND_CLAMP_REL * geom.L1**2:
        raise NegativeRadicandError("I", rad1)
    if rad2 < -RADICAND_CLAMP_REL * geom.L2**2:
        raise NegativeRadicandError("II", rad2)
    if rad3 < -RADICAND_CLAMP_REL * geom.L3**2:
        raise NegativeRadicandError("III", rad3)
    root1, root2, root3 = (math.sqrt(max(rad1, 0.0)), math.sqrt(max(rad2, 0.0)),
                           math.sqrt(max(rad3, 0.0)))
    # off the axis the sign rule gives rho1 - z_p without a square root: the
    # leg-I radicand is round-off next to the y_p = 0 edge of an ellipse,
    # and there its root would put rho1 off by up to ~1e-5 mm
    rho1 = (z_p - root1, z_p + root1) if offset is None else (z_p + offset,) * 2
    return (rho1[0], h2 - root2, h3 - root3), (rho1[1], h2 + root2, h3 + root3)


def joints_from_pose(geom, pose, indices):
    """Slider coordinates for one sign branch of a solved pose.

    Raises ValueError, naming the coordinate, for an infinite or NaN one,
    NegativeRadicandError when a leg cannot close and SignRuleViolation when
    indices.s1 contradicts the leg-I sign rule.
    """
    _require_finite(("x_p", "y_p", "z_p"), (pose.x_p, pose.y_p, pose.z_p))
    c, s = math.cos(pose.alpha), math.sin(pose.alpha)
    signs, offset = _sign_rule(geom, pose.y_p, c, s)
    if offset != 0.0 and indices.s1 not in signs:
        raise SignRuleViolation(
            f"s1={indices.s1:+d} contradicts the leg-I sign rule at alpha={pose.alpha:.9f}")
    rods = _rod_vectors(geom, pose.x_p, pose.y_p, pose.z_p, c, s)
    minus, plus = _sliders(geom, rods, pose.y_p, pose.z_p, c, offset)
    return ParallelJoints(*(rho_plus if sign > 0 else rho_minus
                            for sign, rho_minus, rho_plus in zip(indices.as_tuple(), minus, plus)))


# the eight sign branches, built once (ConfigurationIndices is frozen)
_INDICES = {signs: ConfigurationIndices(*signs) for signs in product((-1, 1), repeat=3)}


def _branches(geom, x_p, y_p, z_p, alpha):
    """Every sign branch at one orientation (alpha wrapped) that closes all
    four rod constraints, as (joints, indices, residual, within_limits), in
    sign order s1, s2, s3 with -1 first.

    The sine and cosine, the sign rule, the rod vectors and the sliders of
    both signs are evaluated once.  Each constraint involves one
    slider, so it is evaluated per leg and sign, for the leg-I signs the
    sign rule allows only, and a branch's residual is the worst of its
    three legs'.  A leg whose two signs give sliders within DEDUP_TOL of
    each other (a grazing leg, whose root clamps to 0) contributes its
    s = -1 slider only, so no two branches coincide.
    """
    c, s = math.cos(alpha), math.sin(alpha)
    signs, offset = _sign_rule(geom, y_p, c, s)
    rods = _rod_vectors(geom, x_p, y_p, z_p, c, s)
    try:
        (m1, m2, m3), (q1, q2, q3) = _sliders(geom, rods, y_p, z_p, c, offset)
    except NegativeRadicandError:
        return []
    X1, X2, Y1a, Y1b, Y2, Y3, h1a, h1b, h2, h3 = rods
    p1a, p1b, p2, p3 = X1**2 + Y1a**2, X1**2 + Y1b**2, X2**2 + Y2**2, X2**2 + Y3**2
    L1_sq, L2_sq, L3_sq = geom.L1**2, geom.L2**2, geom.L3**2
    lo, hi = geom.rho_min, geom.rho_max
    # per leg and sign: (sign, rho, |residual|, within limits); leg I on the
    # signs the sign rule allows (off the axis one slider, z_p + offset,
    # whatever the sign), the worse of its two constraints.  A leg whose
    # two sliders lie within DEDUP_TOL of each other takes s = -1 only
    leg1 = []
    for s1, rho in zip(signs, (m1, q1)):
        if leg1 and abs(rho - m1) <= DEDUP_TOL:
            break
        leg1.append((s1, rho, max(abs(p1a + (h1a - rho)**2 - L1_sq),
                                  abs(p1b + (h1b - rho)**2 - L1_sq)), lo <= rho <= hi))
    leg2 = ((-1, m2, abs(p2 + (h2 - m2)**2 - L2_sq), lo <= m2 <= hi),
            (1, q2, abs(p2 + (h2 - q2)**2 - L2_sq), lo <= q2 <= hi))
    leg3 = ((-1, m3, abs(p3 + (h3 - m3)**2 - L3_sq), lo <= m3 <= hi),
            (1, q3, abs(p3 + (h3 - q3)**2 - L3_sq), lo <= q3 <= hi))
    if abs(q2 - m2) <= DEDUP_TOL:
        leg2 = leg2[:1]
    if abs(q3 - m3) <= DEDUP_TOL:
        leg3 = leg3[:1]
    tol = SOLUTION_REL_TOL * geom.residual_scale
    out = []
    for s1, rho1, e1, ok1 in leg1:
        for s2, rho2, e2, ok2 in leg2:
            e12 = max(e1, e2)
            for s3, rho3, e3, ok3 in leg3:
                # max(e1, e2, e3), whose NaN handling max keeps
                residual = max(e12, e3)
                if residual <= tol:
                    out.append((ParallelJoints(rho1, rho2, rho3), _INDICES[s1, s2, s3], residual,
                                ok1 and ok2 and ok3))
    return out


def enumerate_ik(geom, x_p, y_p, z_p):
    """Every inverse-kinematic branch at a platform position (at most 16).

    Branches out of slider range are annotated, not dropped.  Each
    orientation contributes every sign branch the leg-I sign rule allows,
    except that a leg whose two signs give the same slider within 1e-9 mm
    takes s = -1 only, so no two branches coincide.  Branches come sorted
    ascending by (alpha, indices.as_tuple()).  Empty when the position lies
    outside every coupling ellipse; ValueError, naming the coordinate, for
    an infinite or NaN one.
    """
    x_p, y_p, z_p = float(x_p), float(y_p), float(z_p)
    _require_finite(("x_p", "y_p", "z_p"), (x_p, y_p, z_p))
    # orientation candidates are wrapped, and wrap_angle is idempotent
    return [IkSolution(joints, alpha, indices, residual, within_limits)
            for alpha in orientation_candidates(geom, x_p, y_p)
            for joints, indices, residual, within_limits in _branches(geom, x_p, y_p, z_p, alpha)]


def _on_working_branch(geom, indices, alpha):
    """The leg disposition the physical machine uses: every slider above the
    platform, s = (-1, -1, -1), and no rod crossing, R1 cos(alpha) > r1."""
    return indices.s1 == indices.s2 == indices.s3 == -1 and geom.R1 * math.cos(alpha) > geom.r1


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
