"""Forward kinematics of the parallel module.

Given the three slider coordinates, the platform orientation is eliminated
down to a single degree-8 characteristic polynomial in t = tan(alpha/2):
the difference of the two leg-I constraints gives y_p(z_p, alpha), the
difference of the leg-II/III constraints gives z_p(alpha), the difference
of the leg-I midpoint sphere and the leg-II sphere gives x_p(alpha), and
back-substituting everything into the leg-I midpoint sphere leaves a
rational function of t whose cleared numerator N(t) is assembled exactly,
coefficient by coefficient (every ingredient is itself a polynomial in t).
N has degree <= 16 and always contains the spurious factor
(1 + t^2)^2 * P1(t)^2, where P1(t) is the half-angle form of
R1 cos(alpha) - r1; deflating it leaves the degree-8 polynomial whose real
roots enumerate the assembly modes.  Its coefficients are polynomials of
degree <= 6 in the slider differences, so the assembly and the deflation
run once per geometry, on polynomial-valued differences, and each slider
triple then costs one matrix-vector product plus a probe certificate.  Each
root's platform position is then recovered by intersecting the three
constraint spheres directly (division free, so exact even next to the
degenerate orientations), with the axis orientations the half-angle map
cannot represent injected as extra candidates.  The elimination-chain formulas themselves are exposed as
yp_from / zp_from / xp_from.
"""

import math
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .errors import (CoincidentOffsetError, DegenerateDenominatorError,
                     DegenerateOrientationError, InterpolationError)
from .parallel_ik import (ConfigurationIndices, ParallelJoints, PlatformPose,
                          _dedup, _on_working_branch, _unique,
                          constraint_residuals)
from .rootfind import (Polynomial, _add, _certify, _divmod, _horner, _mul,
                       real_roots)

FK_RESIDUAL_REL_TOL = 1e-7
FK_PREFILTER_REL_TOL = 1e-3
FK_DEDUP_TOL = 1e-7
PERPENDICULAR_LEG_REL_TOL = 1e-12


@dataclass(frozen=True)
class AssemblyMode:
    """One forward-kinematic solution with back-derived branch signs."""

    pose: PlatformPose
    indices: ConfigurationIndices
    residual_norm: float
    reachable: bool


def _require_distinct_offsets(geom):
    if geom.offset_gap == 0.0:
        raise CoincidentOffsetError(
            "D1 - d1 == D2 - d2: the x_p elimination denominator vanishes")


def yp_from(geom, alpha, z_p, rho1):
    """y_p from the difference of the two leg-I rod constraints.

    Singular when the leg-I direction is perpendicular to the slider plane
    (R1 cos(alpha) = r1), which also makes the iso-orientation ellipse a
    circle.
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
    is covered by the axis-aligned branch of enumerate_fk.
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


def _xp_at(geom, alpha, joints, z_p, y_p):
    c, s = math.cos(alpha), math.sin(alpha)
    w2 = geom.R2 * c - geom.r4
    gap = geom.offset_gap
    span = (geom.D1 - geom.d1) + (geom.D2 - geom.d2)
    rhs = (geom.a_sq(c) - geom.L2**2 + w2**2 - 2.0 * y_p * w2
           - (geom.R2 * s + joints.rho2 - joints.rho1)
           * (2.0 * z_p - joints.rho1 - geom.R2 * s - joints.rho2))
    return rhs / (2.0 * gap) - span / 2.0


def xp_from(geom, alpha, joints):
    """x_p from the difference of the leg-I midpoint and leg-II spheres.

    Requires the x-offset gap (D1 - d1) - (D2 - d2) to be nonzero; the
    offsets make the squared x terms cancel, leaving x_p linear.
    """
    _require_distinct_offsets(geom)
    z_p = zp_from(geom, alpha, joints)
    return _xp_at(geom, alpha, joints, z_p, yp_from(geom, alpha, z_p, joints.rho1))


def pose_from_alpha(geom, alpha, joints):
    """Back-substitute one orientation into the elimination chain."""
    z_p = zp_from(geom, alpha, joints)
    y_p = yp_from(geom, alpha, z_p, joints.rho1)
    _require_distinct_offsets(geom)
    return _xp_at(geom, alpha, joints, z_p, y_p), y_p, z_p


# ---------------------------------------------------------------------------
# characteristic polynomial, compiled once per geometry in t = tan(alpha/2)
#
# A common offset of the three sliders moves the platform along z and leaves
# the octic unchanged, so each of its coefficients is a polynomial of degree
# <= 6 in the slider differences alone, scaled as
# v = (rho1 - (rho2 + rho3) / 2, rho3 - rho2) / h.  One (9, 28) matrix over
# the monomials of degree <= 6 in v then maps a slider triple to its octic.
# The matrix is compiled by running the exact assembly once, at the triple
# (h v1, -h v2 / 2, h v2 / 2), on polynomial-valued v.  A polynomial in
# (t, v1, v2) is a 1-D array under Kronecker substitution, index
# k*7^2 + e1*7 + e2: no v-degree exceeds 6, so no product carries and the
# coefficient kernel works on it unchanged.

_STRIDE = 7                 # one slider variable: powers 0..6
_BLOCK = _STRIDE**2         # one power of t
_MONOMIALS = np.array([(e1, e2) for e1 in range(_STRIDE) for e2 in range(_STRIDE - e1)]).T
# where each monomial's two factors sit in the flat table of powers
# (v1^0..v1^6, v2^0..v2^6), and its column in a Kronecker block
_POWER_INDEX = _MONOMIALS + np.array([[0], [_STRIDE]])
_COLUMNS = (_STRIDE, 1) @ _MONOMIALS


def _in_t(coeffs):
    """An ascending polynomial in t alone as a Kronecker array."""
    c = np.zeros((len(coeffs) - 1) * _BLOCK + 1)
    c[::_BLOCK] = coeffs
    return c


def _cleared_numerator(geom, h):
    """N(t, v), the cleared leg-I midpoint residual, as a Kronecker array.

    N = residual(x_p(t), y_p(t), z_p(t)) * (2 gap P1 T^2 Q)^2 with
    T = 1 + t^2, P1 the half-angle form of R1 cos(alpha) - r1 and Q that of
    the z_p denominator, at rho2 + rho3 = 0.  Degree <= 16 in t and <= 6
    in v.
    """
    R1, r1, R2, r4 = geom.R1, geom.r1, geom.R2, geom.r4
    gap = geom.offset_gap
    span = (geom.D1 - geom.d1) + (geom.D2 - geom.d2)
    # rho1 = h v1, rho3 - rho2 = h v2 and rho2 + rho3 = 0
    p1_, d32 = h * np.eye(_STRIDE + 1)[[_STRIDE, 1]]
    p2_ = -0.5 * d32
    t = _in_t([0.0, 1.0])
    T = _in_t([1.0, 0.0, 1.0])
    P1 = _in_t([R1 - r1, 0.0, -(R1 + r1)])
    W = _in_t([R2 - r4, 0.0, -(R2 + r4)])
    Q = _add(_mul(d32, P1), 4.0 * geom.C1 * t)
    K = geom.L1**2 - R1**2 - r1**2
    Na = _in_t([K + 2.0 * R1 * r1, 0.0, K - 2.0 * R1 * r1])

    TP1 = _mul(T, P1)
    Nz = _add(_mul(8.0 * R1 * _mul(p1_, t), W), (geom.L2**2 - geom.L3**2) * TP1)
    TQ = _mul(T, Q)
    M = _add(2.0 * _mul(p1_, TQ), -Nz)
    U = _add(_mul(_add(p2_, -p1_), T), 2.0 * R2 * t)
    V = _add(Nz, -_mul(_add(p1_, p2_), TQ), _mul(-2.0 * R2 * t, Q))

    TP1Q = _mul(TP1, Q)
    T2P1Q = _mul(T, TP1Q)
    Nx = _add(_mul(Na, TP1Q),
              -geom.L2**2 * T2P1Q,
              _mul(_mul(W, W), _mul(P1, Q)),
              _mul(-2.0 * R1 * t, _mul(M, W)),
              -_mul(_mul(U, V), P1))
    NX1 = _add(Nx, gap * (2.0 * (geom.D1 - geom.d1) - span) * T2P1Q)

    MT = _mul(M, T)
    tMT = _mul(t, MT)
    P1P1 = _mul(P1, P1)
    return _add(_mul(NX1, NX1),
                4.0 * gap**2 * R1**2 * _mul(tMT, tMT),
                gap**2 * _mul(_mul(MT, MT), P1P1),
                -4.0 * gap**2 * _mul(Na, _mul(P1P1, _mul(_mul(_mul(T, T), T), _mul(Q, Q)))))


def _deflate(columns, factor, rel_tol):
    """Each column (ascending in t) divided by the t-only factor; raises
    InterpolationError when a remainder is non-negligible against the
    largest coefficient of all columns."""
    out = np.zeros((columns.shape[0], columns.shape[1] - factor.size + 1))
    remainder = 0.0
    for row, col in zip(out, columns):
        quot, rem = _divmod(col, factor)
        row[:quot.size] = quot
        remainder = max(remainder, *np.abs(rem).tolist())
    if remainder > rel_tol * max(np.max(np.abs(columns)), 1.0):
        raise InterpolationError(
            "spurious-factor deflation left a non-negligible remainder")
    return out


def compile_octic(geom):
    """(h, (9, 28) matrix, deflation factor) of the geometry's octic.

    Row k of the matrix holds the coefficients of t^k over the monomials
    v1^e1 v2^e2 of degree <= 6, in the column order of _MONOMIALS.  The
    cleared numerator is deflated by the geometry-only spurious factor
    (1 + t^2)^2 P1(t)^2, which is returned for the per-call certificate.
    Raises InterpolationError when that factor does not divide out.
    Computed once per geometry instance, as MachineGeometry.compiled_octic;
    the geometry must have distinct offsets (octic_from_joints checks).
    """
    # the largest power of two within the slider half-stroke (1024 on the
    # synthetic geometry): scaling by h is then exact, and rho2 = rho3 gives
    # v2 = 0 exactly; frexp never raises, whatever the limits
    h = math.ldexp(1.0, math.frexp(0.5 * (geom.rho_max - geom.rho_min))[1] - 1)
    N = _cleared_numerator(geom, h)
    # one row per power of t (at most 16), one column per monomial
    columns = np.pad(N, (0, -N.size % _BLOCK)).reshape(-1, _BLOCK)[:, _COLUMNS].T
    T2 = np.array([1.0, 0.0, 2.0, 0.0, 1.0])
    P1 = np.array([geom.R1 - geom.r1, 0.0, -(geom.R1 + geom.r1)])
    P1P1 = _mul(P1, P1)
    quot = _deflate(_deflate(columns, T2, 1e-9), P1P1, 1e-8)
    return h, np.ascontiguousarray(quot.T), _mul(T2, P1P1)


def _midpoint_residual(geom, x_p, y_p, z_p, alpha, rho1):
    c = math.cos(alpha)
    X1 = x_p + geom.D1 - geom.d1
    return X1**2 + y_p**2 + (z_p - rho1)**2 - geom.a_sq(c)


def _probe_samples(geom, joints, P1, Q):
    """(t, directly sampled residual product) at the probe nodes where the
    elimination chain is well defined, for the certificate of N(t)."""
    P1, Q = P1.tolist(), Q.tolist()
    for t in (0.3317, -1.2113, 2.4091, -0.5729, 4.17, 0.071):
        pv = _horner(P1, t)
        qv = _horner(Q, t)
        if abs(pv) < 1e-3 or abs(qv) < 1e-3:
            continue
        alpha = 2.0 * math.atan(t)
        try:
            x_p, y_p, z_p = pose_from_alpha(geom, alpha, joints)
        except (DegenerateDenominatorError, DegenerateOrientationError):
            continue
        yield t, (_midpoint_residual(geom, x_p, y_p, z_p, alpha, joints.rho1)
                  * (2.0 * geom.offset_gap * pv * (1.0 + t * t)**2 * qv)**2)


def octic_from_joints(geom, joints):
    """Degree-<=8 characteristic polynomial in t = tan(alpha/2).

    The geometry's compiled matrix applied to the monomials of the scaled
    slider differences.  Raises InterpolationError when the numerator it implies,
    octic * (1 + t^2)^2 P1(t)^2, fails its probe certificate against the
    elimination chain, or when the geometry's numerator does not contain
    that spurious factor; OverflowError when the sliders are too large for
    floats.
    """
    _require_distinct_offsets(geom)
    joints = _as_joints(joints)
    h, matrix, factor = geom.compiled_octic
    r1_, r2_, r3_ = joints.rho1, joints.rho2, joints.rho3
    v = ((r1_ - 0.5 * (r2_ + r3_)) / h, (r3_ - r2_) / h)
    if not all(map(math.isfinite, v)):
        raise OverflowError("characteristic polynomial: sliders out of float range")
    # Python-float powers raise OverflowError where numpy's would warn
    powers = np.array([vi**k for vi in v for k in range(_STRIDE)])
    try:
        with np.errstate(over="raise"):
            f1, f2 = powers[_POWER_INDEX]
            octic = matrix @ (f1 * f2)
    except FloatingPointError as exc:
        raise OverflowError(f"characteristic polynomial: {exc}") from None
    P1 = np.array([geom.R1 - geom.r1, 0.0, -(geom.R1 + geom.r1)])
    Q = _add((r3_ - r2_) * P1, np.array([0.0, 4.0 * geom.C1]))
    _certify(_mul(octic, factor), _probe_samples(geom, joints, P1, Q), 16,
             "characteristic numerator")
    return Polynomial(octic)


# ---------------------------------------------------------------------------
# assembly-mode enumeration

def _as_joints(joints):
    if isinstance(joints, ParallelJoints):
        return joints
    return ParallelJoints(*joints)


def _sphere_candidates(geom, joints, alpha):
    """Platform positions for one orientation, by sphere intersection.

    With alpha fixed, the leg-I midpoint sphere and the leg-II/III spheres
    intersect along two difference planes (both linear in (x, y, z)) plus
    one quadratic, giving at most two points in closed form.  Unlike the
    y(z), z(alpha) elimination chain, this never divides by the
    R1 cos(alpha) - r1 or rho2 ~ rho3 denominators, so it stays exact at
    and near every degenerate orientation.  Candidates only; the caller
    residual-checks them.
    """
    c, s = math.cos(alpha), math.sin(alpha)
    r1_, r2_, r3_ = joints.rho1, joints.rho2, joints.rho3
    a2 = geom.a_sq(c)
    if a2 < 0.0:
        return []
    w2 = geom.R2 * c - geom.r4
    gap, span = geom.offset_gap, (geom.D1 - geom.d1) + (geom.D2 - geom.d2)
    # legs II - III difference: a1 y + b1 z = d1
    a1 = -4.0 * w2
    b1 = 2.0 * (r3_ - r2_ - 2.0 * geom.R2 * s)
    d1 = (r3_ - r2_ - 2.0 * geom.R2 * s) * (r2_ + r3_) + geom.L2**2 - geom.L3**2
    # leg-I midpoint - leg II difference: 2 gap x + a2y y + b2 z = d2
    a2y = 2.0 * w2
    b2 = 2.0 * (geom.R2 * s + r2_ - r1_)
    d2 = (w2**2 + a2 - geom.L2**2
          + (geom.R2 * s + r2_ - r1_) * (r1_ + geom.R2 * s + r2_)
          - gap * span)
    norm1 = max(abs(a1), abs(b1))
    if norm1 <= 1e-12 * (abs(w2) + geom.R2 + 1.0):
        return []  # leg difference void: solutions are not isolated
    out = []
    # parameterize the first plane by its better-conditioned coordinate
    if abs(a1) >= abs(b1):
        # y = (d1 - b1 t) / a1, z = t
        y0, y1 = d1 / a1, -b1 / a1
        z0, z1 = 0.0, 1.0
    else:
        y0, y1 = 0.0, 1.0
        z0, z1 = d1 / b1, -a1 / b1
    # x from the second plane along the same parameter
    x0 = (d2 - a2y * y0 - b2 * z0) / (2.0 * gap)
    x1 = (-a2y * y1 - b2 * z1) / (2.0 * gap)
    # leg-I midpoint sphere: (x + D1 - d1)^2 + y^2 + (z - rho1)^2 = a2
    e0, e1 = x0 + geom.D1 - geom.d1, x1
    f0, f1 = y0, y1
    g0, g1 = z0 - r1_, z1
    qa = e1**2 + f1**2 + g1**2
    qb = 2.0 * (e0 * e1 + f0 * f1 + g0 * g1)
    qc = e0**2 + f0**2 + g0**2 - a2
    disc = qb**2 - 4.0 * qa * qc
    if disc < 0.0 or qa == 0.0:
        return []
    for sgn in (-1.0, 1.0):
        t = (-qb + sgn * math.sqrt(disc)) / (2.0 * qa)
        out.append((x0 + x1 * t, y0 + y1 * t, z0 + z1 * t, alpha))
    return out


def _jacobian(geom, x, y, z, a, joints):
    c, s = math.cos(a), math.sin(a)
    R1, r1, R2, r4 = geom.R1, geom.r1, geom.R2, geom.r4
    X1 = x + geom.D1 - geom.d1
    X2 = x + geom.D2 - geom.d2
    y1p, z1p = y + R1 * c - r1, z + R1 * s - joints.rho1
    y1m, z1m = y - R1 * c + r1, z - R1 * s - joints.rho1
    y2, z2 = y - R2 * c + r4, z - R2 * s - joints.rho2
    y3, z3 = y + R2 * c - r4, z + R2 * s - joints.rho3
    return np.array([
        [2 * X1, 2 * y1p, 2 * z1p, -2 * y1p * R1 * s + 2 * z1p * R1 * c],
        [2 * X1, 2 * y1m, 2 * z1m, 2 * y1m * R1 * s - 2 * z1m * R1 * c],
        [2 * X2, 2 * y2, 2 * z2, 2 * y2 * R2 * s - 2 * z2 * R2 * c],
        [2 * X2, 2 * y3, 2 * z3, -2 * y3 * R2 * s + 2 * z3 * R2 * c],
    ])


def _polish_pose(geom, joints, v):
    """The candidate stage: a candidate within the 1e-3 * max(L^2) prefilter
    takes damped Newton steps on the full constraint system until its
    residual reaches 1e-14 * max(L^2) or no step lowers it.  Returns the
    pose, as Python floats, and the last residual computed."""
    rho = joints.as_tuple()
    f = constraint_residuals(geom, *v, *rho)
    norm = max(abs(r) for r in f)
    if norm > FK_PREFILTER_REL_TOL * geom.residual_scale:
        return v, norm
    while norm > 1e-14 * geom.residual_scale:
        try:
            step = np.linalg.solve(_jacobian(geom, *v, joints), -np.array(f))
        except np.linalg.LinAlgError:
            break
        lam = 1.0
        for _ in range(20):
            vn = tuple(float(c + lam * d) for c, d in zip(v, step))
            fn = constraint_residuals(geom, *vn, *rho)
            norm_n = max(abs(r) for r in fn)
            if norm_n < norm:
                v, f, norm = vn, fn, norm_n
                break
            lam *= 0.5
        else:
            break
    return v, norm


def back_derived_indices(geom, pose, joints):
    """Branch signs recovered from the defining sign expressions."""
    s = math.sin(pose.alpha)
    return ConfigurationIndices(
        s1=-1 if joints.rho1 - pose.z_p <= 0.0 else 1,
        s2=-1 if joints.rho2 - pose.z_p + geom.R2 * s <= 0.0 else 1,
        s3=-1 if joints.rho3 - pose.z_p - geom.R2 * s <= 0.0 else 1,
    )


def enumerate_fk(geom, joints):
    """All assembly modes for one slider triple, sorted by orientation.

    Real roots of the characteristic polynomial are back-substituted by
    sphere intersection; the axis orientations the half-angle substitution
    cannot reach are tried the same way; every candidate is Newton-polished
    and kept only if all four constraints hold to 1e-7 * max(L^2).  Empty
    when the sliders admit no assembly; InterpolationError when the octic
    fails its probe certificate.
    """
    _require_distinct_offsets(geom)
    joints = _as_joints(joints)
    # C1 = 0 with rho2 = rho3 voids the elimination (Q = 0): axis modes only
    if geom.C1 == 0.0 and joints.rho2 == joints.rho3:
        roots = []
    else:
        octic = octic_from_joints(geom, joints)
        roots = real_roots(octic) if octic.degree >= 1 else []
    # alpha = pi is invisible to t = tan(alpha/2); alpha = 0 drops out of
    # the characteristic polynomial when rho2 = rho3 (its equation becomes
    # the vanishing denominator there)
    alphas = [2.0 * math.atan(t) for t in roots] + [math.pi, 0.0]
    modes = []
    for candidate in (c for a in alphas for c in _sphere_candidates(geom, joints, a)):
        (x, y, z, alpha), residual = _polish_pose(geom, joints, candidate)
        # a NaN residual fails this test too
        if not residual <= FK_RESIDUAL_REL_TOL * geom.residual_scale:
            continue
        pose = PlatformPose(x, y, z, alpha)
        indices = back_derived_indices(geom, pose, joints)
        modes.append(AssemblyMode(
            pose=pose, indices=indices, residual_norm=residual,
            reachable=_on_working_branch(geom, indices, pose.alpha)))
    pose_key = attrgetter("pose.alpha", "pose.x_p", "pose.y_p", "pose.z_p")
    modes.sort(key=pose_key)
    return _dedup(modes, pose_key, FK_DEDUP_TOL)


def select_assembly_mode(modes):
    """The unique reachable mode, or None; ambiguity is always reported."""
    return _unique([m for m in modes if m.reachable])
