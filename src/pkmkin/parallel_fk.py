"""Forward kinematics of the parallel module.

Given the three slider coordinates, the platform orientation is eliminated
down to a single degree-8 characteristic polynomial in t = tan(alpha/2):
the difference of the two leg-I constraints gives y_p(z_p, alpha), the
difference of the leg-II/III constraints gives z_p(alpha), the difference
of the leg-I midpoint sphere and the leg-II sphere gives x_p(alpha), and
back-substituting everything into the leg-I midpoint sphere leaves a
rational function of t whose cleared numerator N(t) is assembled
coefficient by coefficient (every ingredient is itself a polynomial in t).
N has degree <= 16 and always contains the spurious factor
(1 + t^2)^2 * P1(t)^2, where P1(t) is the half-angle form of
R1 cos(alpha) - r1; dividing it out leaves the degree-8 polynomial whose
real roots enumerate the assembly modes.  Its coefficients are polynomials
of degree <= 6 in the slider differences, so the assembly and the division
run once per geometry, on polynomial-valued differences, in exact integer
arithmetic, where a factor that does not divide raises.  The rounded result
is generated into straight-line Python, so each slider triple then costs a
few float powers and products and nine sums.  On rho2 = rho3 with L2 = L3 the
octic is even with a double root at t = 0, and its other roots come from a
quadratic.
Each root's platform position is recovered by intersecting the three
constraint spheres directly (division free, so exact even next to the
degenerate orientations); alpha = pi (t = oo) and alpha = 0 are tried
where the octic's end coefficients allow them, and every mode must pass
the rod residual test.  The elimination-chain formulas themselves live
in tests/reference.py, the reference the compiled octic is checked against.
"""

import math
from operator import itemgetter

import numpy as np
# the LAPACK gufunc behind numpy.linalg.solve for a vector; private API, so numpy < 2.5
from numpy.linalg._umath_linalg import solve1 as _solve1

from .errors import CoincidentOffsetError, InterpolationError
# constraint_residuals stays bound here: perfbench's tracer checks it is not wrapped
from .parallel_ik import (_INDICES, ConfigurationIndices, ParallelJoints,  # noqa: F401
                          PlatformPose, _on_working_branch, _record, _require_finite,
                          _rod_residuals, _rod_vectors, _unique, constraint_residuals)
from .rootfind import TRIM_REL_TOL, Polynomial, real_roots

FK_RESIDUAL_REL_TOL = 1e-7
FK_PREFILTER_REL_TOL = 1e-3
FK_DEDUP_TOL = 1e-7


@_record()
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


# ---------------------------------------------------------------------------
# characteristic polynomial, compiled once per geometry in t = tan(alpha/2)
#
# A common offset of the three sliders moves the platform along z and leaves
# the octic unchanged, so each of its coefficients is a polynomial of degree
# <= 6 in the slider differences alone, scaled as
# v = (rho1 - (rho2 + rho3) / 2, rho3 - rho2) / h: the octic is a sum of
# terms c t^k v1^e1 v2^e2, keyed by (k, e1, e2).  They are compiled by
# running the assembly once, at the triple (h v1, -h v2 / 2, h v2 / 2), on
# polynomial-valued v, in exact integer arithmetic, and rounding each
# coefficient once; the nonzero ones are then generated into one
# straight-line Python function of v.


class _Exact(dict):
    """A polynomial in (t, v1, v2) with integer coefficients, keyed by the
    exponents (k, e1, e2), under +, - and * with another one or an int."""

    def __add__(self, other):
        out = _Exact(self)
        for key, c in _exact(other).items():
            out[key] = out.get(key, 0) + c
        return out

    def __sub__(self, other):
        return self + -1 * other

    def __mul__(self, other):
        out, terms = _Exact(), _exact(other).items()
        for (k, e1, e2), x in self.items():
            for (l, f1, f2), y in terms:
                key = k + l, e1 + f1, e2 + f2
                out[key] = out.get(key, 0) + x * y
        return out

    __rmul__ = __mul__


def _exact(value):
    return value if isinstance(value, _Exact) else _Exact({(0, 0, 0): value})


def _in_t(*coeffs):
    """An ascending polynomial in t alone."""
    return _Exact({(k, 0, 0): c for k, c in enumerate(coeffs) if c})


def _cleared_numerator(geom, h):
    """(S^10 N(t, v), S^2 (1 + t^2)^2 P1(t)^2 ascending, S) in integers.

    N = residual(x_p(t), y_p(t), z_p(t)) * (2 gap P1 T^2 Q)^2 is the cleared
    leg-I midpoint residual, with T = 1 + t^2, P1 the half-angle form of
    R1 cos(alpha) - r1 and Q that of the z_p denominator, at
    rho2 + rho3 = 0.  Degree <= 16 in t and <= 6 in v.  Every float is a
    dyadic rational, so each length (h among them) times S, the least
    power of two that makes all of them integers, is an integer.  N is
    homogeneous of degree 10 in the lengths and P1 of degree 1; t and v are
    pure numbers.
    """
    # p2_ = -h v2 / 2 takes h / 2
    lengths = (geom.R1, geom.r1, geom.R2, geom.r4, geom.L1, geom.L2, geom.L3,
               geom.D1, geom.d1, geom.D2, geom.d2, 0.5 * h)
    ratios = [float(x).as_integer_ratio() for x in lengths]
    S = max(d for _, d in ratios)
    R1, r1, R2, r4, L1, L2, L3, D1, d1, D2, d2, half_h = (n * (S // d) for n, d in ratios)
    gap = (D1 - d1) - (D2 - d2)
    span = (D1 - d1) + (D2 - d2)
    # rho1 = h v1, rho3 - rho2 = h v2 and rho2 + rho3 = 0
    p1_ = _Exact({(0, 1, 0): 2 * half_h})
    d32 = _Exact({(0, 0, 1): 2 * half_h})
    p2_ = _Exact({(0, 0, 1): -half_h})
    t = _in_t(0, 1)
    T = _in_t(1, 0, 1)
    P1 = _in_t(R1 - r1, 0, -(R1 + r1))
    W = _in_t(R2 - r4, 0, -(R2 + r4))
    Q = d32 * P1 + 4 * (r1 * R2 - r4 * R1) * t
    K = L1**2 - R1**2 - r1**2
    Na = _in_t(K + 2 * R1 * r1, 0, K - 2 * R1 * r1)

    TP1 = T * P1
    Nz = 8 * R1 * p1_ * t * W + (L2**2 - L3**2) * TP1
    TQ = T * Q
    M = 2 * p1_ * TQ - Nz
    U = (p2_ - p1_) * T + 2 * R2 * t
    V = Nz - (p1_ + p2_) * TQ - 2 * R2 * t * Q

    TP1Q = TP1 * Q
    T2P1Q = T * TP1Q
    Nx = Na * TP1Q - L2**2 * T2P1Q + W * W * P1 * Q - 2 * R1 * t * M * W - U * V * P1
    NX1 = Nx + gap * (2 * (D1 - d1) - span) * T2P1Q

    tMT = t * M * T
    P1P1 = P1 * P1
    T2 = T * T
    N = (NX1 * NX1 + 4 * gap**2 * R1**2 * tMT * tMT + gap**2 * M * M * T2 * P1P1
         - 4 * gap**2 * Na * P1P1 * T2 * T * Q * Q)
    factor = T2 * P1P1
    return N, [factor.get((k, 0, 0), 0) for k in range(9)], S


def _deflate(N, factor):
    """(lead^n N / factor, lead^n) for a factor in t alone, ascending, with
    lead its leading coefficient and n the number of long-division steps:
    scaled by lead^n, every step divides exactly in integers.  Raises
    InterpolationError on any nonzero remainder."""
    *low, lead = factor
    n = len(low)
    top = max(k for k, _, _ in N)
    scale = lead ** (top - n + 1)
    columns = {}
    for (k, e1, e2), c in N.items():
        columns.setdefault((e1, e2), [0] * (top + 1))[k] = c * scale
    quot = {}
    for (e1, e2), col in columns.items():
        for j in range(top, n - 1, -1):
            q = quot[j - n, e1, e2] = col[j] // lead
            for i, f in enumerate(low, j - n):
                col[i] -= q * f
        if any(col[:n]):
            raise InterpolationError(
                "the cleared numerator does not contain the spurious factor (1 + t^2)^2 P1(t)^2")
    return quot, scale


def _evaluator(terms):
    """The function (v1, v2) -> [c0, ..., c8] of the octic's terms, as
    generated straight-line Python on floats: each power of v1 and v2 that a
    term needs is one float power, which raises OverflowError out of float
    range; each monomial of two factors is one product of them; and c_k is
    the left-to-right sum of row k's terms, coefficient times monomial, in
    (e1, e2) order (0.0 for a row without terms)."""
    used = sorted({key[1:] for key in terms})
    lines = [f"v{i}_{k} = v{i} ** {k}" for i in (1, 2)
             for k in sorted({e[i - 1] for e in used}) if k > 1]
    factors = {}
    for e1, e2 in used:
        names = [f"v{i}_{k}" if k > 1 else f"v{i}" for i, k in ((1, e1), (2, e2)) if k]
        if len(names) == 2:
            lines.append(f"m{e1}_{e2} = {names[0]} * {names[1]}")
            names = [f"m{e1}_{e2}"]
        factors[e1, e2] = names
    rows = [[] for _ in range(9)]
    for k, e1, e2 in sorted(terms):
        rows[k].append(" * ".join([repr(terms[k, e1, e2]), *factors[e1, e2]]))
    lines.append(f"return [{', '.join(' + '.join(row) or '0.0' for row in rows)}]")
    namespace = {}
    exec("def octic(v1, v2):\n" + "".join(f"    {line}\n" for line in lines), {}, namespace)
    return namespace["octic"]


def compile_octic(geom):
    """(h, terms, evaluator) of the geometry's octic.

    terms maps the exponents (k, e1, e2) of each nonzero term
    c t^k v1^e1 v2^e2 (e1 + e2 <= 6) to its coefficient c.  The cleared
    numerator is divided exactly by the geometry-only spurious factor
    (1 + t^2)^2 P1(t)^2, in integers, and each coefficient is rounded to the
    nearest float once.  The evaluator is the terms as straight-line code
    (see _evaluator), which octic_from_joints calls.  Raises
    InterpolationError when the factor does not divide out.  Computed once
    per geometry instance, as MachineGeometry.compiled_octic; the geometry
    must have distinct offsets (octic_from_joints checks).
    """
    # the largest power of two within the slider half-stroke (1024 on the
    # synthetic geometry): scaling by h is then exact, and rho2 = rho3 gives
    # v2 = 0 exactly; frexp never raises, whatever the limits
    h = math.ldexp(1.0, math.frexp(0.5 * (geom.rho_max - geom.rho_min))[1] - 1)
    N, factor, S = _cleared_numerator(geom, h)
    quot, scale = _deflate(N, factor)
    # N carries S^10 and the factor S^2; int / int rounds once
    den = scale * S**8
    terms = {key: value for key, c in quot.items() if (value := c / den)}
    return h, terms, _evaluator(terms)


def octic_from_joints(geom, joints):
    """Degree-<=8 characteristic polynomial in t = tan(alpha/2).

    The geometry's compiled evaluator (see compile_octic) at the scaled
    slider differences, in Python floats.  Raises InterpolationError when
    the geometry's numerator does not contain the spurious factor
    (1 + t^2)^2 P1(t)^2, and where C1 = 0 with rho2 = rho3 voids the
    elimination; OverflowError when the finite sliders, their powers or the
    coefficients are too large for floats, ValueError for an infinite or
    NaN slider.
    """
    _require_distinct_offsets(geom)
    joints = _as_joints(joints)
    r1_, r2_, r3_ = joints.rho1, joints.rho2, joints.rho3
    if geom.C1 == 0.0 and r2_ == r3_:
        raise InterpolationError(
            "C1 = 0 with rho2 = rho3 voids the elimination: no characteristic polynomial")
    h, _, evaluate = geom.compiled_octic
    v1, v2 = (r1_ - 0.5 * (r2_ + r3_)) / h, (r3_ - r2_) / h
    if not (math.isfinite(v1) and math.isfinite(v2)):
        raise OverflowError("characteristic polynomial: sliders out of float range")
    try:
        coeffs = evaluate(v1, v2)
    except OverflowError:  # a power of v1 or v2 out of float range
        raise OverflowError("characteristic polynomial: coefficients out of float range") from None
    # float products and sums overflow to inf or NaN without an exception
    if not all(map(math.isfinite, coeffs)):
        raise OverflowError("characteristic polynomial: coefficients out of float range")
    return Polynomial(coeffs)


# ---------------------------------------------------------------------------
# assembly-mode enumeration

def _as_joints(joints):
    """Sliders as Python floats, whose arithmetic raises OverflowError where
    numpy scalars would warn first; joints that are already Python floats
    come back as they are (enumerate_fk passes its own to octic_from_joints).
    ValueError, naming the slider, for an infinite or NaN one."""
    if not (type(joints) is ParallelJoints
            and type(joints.rho1) is type(joints.rho2) is type(joints.rho3) is float):
        rho = joints.as_tuple() if isinstance(joints, ParallelJoints) else joints
        joints = ParallelJoints(*map(float, rho))
    _require_finite(("rho1", "rho2", "rho3"), joints.as_tuple())
    return joints


def _sphere_candidates(geom, joints, alpha):
    """Platform positions for one orientation, by sphere intersection.

    With alpha fixed, the leg-I midpoint sphere and the leg-II/III spheres
    intersect along two difference planes (both linear in (x, y, z)) plus
    one quadratic, giving at most two points in closed form.  Unlike the
    y(z), z(alpha) elimination chain, this never divides by the
    R1 cos(alpha) - r1 or rho2 ~ rho3 denominators, so it stays exact at
    and near every degenerate orientation.  Candidates only, each as
    (x, y, z, alpha, cos(alpha), sin(alpha)); the caller residual-checks
    them.
    """
    c, s = math.cos(alpha), math.sin(alpha)
    r1_, r2_, r3_ = joints.rho1, joints.rho2, joints.rho3
    a2 = geom.a_sq(c)
    if a2 < 0.0:
        return []
    R2s = geom.R2 * s
    w2 = geom.R2 * c - geom.r4
    gap, span = geom.offset_gap, (geom.D1 - geom.d1) + (geom.D2 - geom.d2)
    # legs II - III difference: a1 y + b1 z = d1
    a1 = -4.0 * w2
    b1 = 2.0 * (r3_ - r2_ - 2.0 * geom.R2 * s)
    d1 = (r3_ - r2_ - 2.0 * geom.R2 * s) * (r2_ + r3_) + geom.L2**2 - geom.L3**2
    # leg-I midpoint - leg II difference: 2 gap x + a2y y + b2 z = d2
    a2y = 2.0 * w2
    rise21 = R2s + r2_ - r1_
    b2 = 2.0 * rise21
    d2 = w2**2 + a2 - geom.L2**2 + rise21 * (r1_ + R2s + r2_) - gap * span
    if max(abs(a1), abs(b1)) <= 1e-12 * (abs(w2) + geom.R2 + 1.0):
        return []  # leg difference void: solutions are not isolated
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
    e0, g0 = x0 + geom.D1 - geom.d1, z0 - r1_
    qa = x1**2 + y1**2 + z1**2
    qb = 2.0 * (e0 * x1 + y0 * y1 + g0 * z1)
    qc = e0**2 + y0**2 + g0**2 - a2
    disc = qb**2 - 4.0 * qa * qc
    if disc < 0.0 or qa == 0.0:
        return []
    root, den = math.sqrt(disc), 2.0 * qa
    t1, t2 = (-qb - root) / den, (-qb + root) / den
    return [(x0 + x1 * t1, y0 + y1 * t1, z0 + z1 * t1, alpha, c, s),
            (x0 + x1 * t2, y0 + y1 * t2, z0 + z1 * t2, alpha, c, s)]


def _jacobian(geom, x, y, z, c, s, joints):
    """The rod residuals' Jacobian in (x, y, z, alpha), flat, row by row,
    from the _rod_vectors rods at an alpha with cosine c and sine s."""
    X1, X2, Y1a, Y1b, Y2, Y3, h1a, h1b, h2, h3 = _rod_vectors(geom, x, y, z, c, s)
    z1p, z1m, z2, z3 = h1a - joints.rho1, h1b - joints.rho1, h2 - joints.rho2, h3 - joints.rho3
    R1, R2 = geom.R1, geom.R2
    return np.array([
        2 * X1, 2 * Y1a, 2 * z1p, -2 * Y1a * R1 * s + 2 * z1p * R1 * c,
        2 * X1, 2 * Y1b, 2 * z1m, 2 * Y1b * R1 * s - 2 * z1m * R1 * c,
        2 * X2, 2 * Y2, 2 * z2, 2 * Y2 * R2 * s - 2 * z2 * R2 * c,
        2 * X2, 2 * Y3, 2 * z3, -2 * Y3 * R2 * s + 2 * z3 * R2 * c,
    ])


def _polish_pose(geom, joints, v, c, s, f, norm, converged):
    """The pose polish, from a candidate v = (x, y, z, alpha) with the cosine
    c and sine s of its alpha, its rod residuals f and their largest
    magnitude norm: damped Newton steps until the norm reaches converged or
    no step lowers it.  Returns the pose, as Python floats, and its norm."""
    x, y, z, a = v
    rho1, rho2, rho3 = joints.as_tuple()
    while norm > converged:
        with np.errstate(all="ignore"):
            step = _solve1(_jacobian(geom, x, y, z, c, s, joints).reshape(4, 4), -np.array(f),
                           signature="dd->d").tolist()
        if not all(map(math.isfinite, step)):
            break
        dx, dy, dz, da = step
        lam = 1.0
        for _ in range(20):
            xn, yn, zn, an = x + lam * dx, y + lam * dy, z + lam * dz, a + lam * da
            cn, sn = math.cos(an), math.sin(an)
            fn = _rod_residuals(geom, xn, yn, zn, cn, sn, rho1, rho2, rho3)
            norm_n = max(map(abs, fn))
            if norm_n < norm:
                x, y, z, a, c, s, f, norm = xn, yn, zn, an, cn, sn, fn, norm_n
                break
            lam *= 0.5
        else:
            break
    return (x, y, z, a), norm


def back_derived_indices(geom, pose, joints):
    """Branch signs recovered from the defining sign expressions."""
    s = math.sin(pose.alpha)
    return _INDICES[(-1 if joints.rho1 - pose.z_p <= 0.0 else 1,
                     -1 if joints.rho2 - pose.z_p + geom.R2 * s <= 0.0 else 1,
                     -1 if joints.rho3 - pose.z_p - geom.R2 * s <= 0.0 else 1)]


def _dedup(pairs, tol):
    """The items of (key, item) pairs but those whose four-float key lies
    within tol, component by component, of a kept item's; order is kept."""
    kept, kept_keys = [], []
    for key, item in pairs:
        a, b, c, d = key
        for p, q, r, s in kept_keys:
            if (abs(a - p) <= tol and abs(b - q) <= tol
                    and abs(c - r) <= tol and abs(d - s) <= tol):
                break
        else:
            kept.append(item)
            kept_keys.append(key)
    return kept


def _even_roots(coeffs):
    """Real roots, ascending, of c2 t^2 + c4 t^4 + c6 t^6 (c6 != 0): t = 0
    and t = +-sqrt(u) for each positive root u of c2 + c4 u + c6 u^2."""
    _, _, c2, _, c4, _, c6 = coeffs
    disc = c4 * c4 - 4.0 * c6 * c2
    roots = {0.0}
    # the root of larger magnitude without cancellation, the other from
    # the product of the two; q = 0 leaves u = 0 alone
    q = -0.5 * (c4 + math.copysign(math.sqrt(disc), c4)) if disc >= 0.0 else 0.0
    for u in (q / c6, c2 / q) if q else ():
        if u > 0.0:
            roots.update((math.sqrt(u), -math.sqrt(u)))
    return sorted(roots)


def enumerate_fk(geom, joints):
    """All assembly modes for one slider triple, sorted by orientation.

    Real roots of the characteristic polynomial are back-substituted by
    sphere intersection, and so are alpha = pi where the trimmed octic has
    degree < 8 and alpha = 0 where rho2 = rho3 or |c0| <= TRIM_REL_TOL *
    max|c|, unless the root t = 0 gave it (both where C1 = 0 voids the
    octic).  Each orientation's cosine and sine, taken once by the sphere
    intersection, give its candidates' rod residuals; only candidates
    within 1e-3 but not 1e-14 * max(L^2) are polished, from those residuals
    on, and modes hold all four constraints to 1e-7 * max(L^2).  An octic
    with only c2, c4 and c6 nonzero (rho2 = rho3 with L2 = L3) has its
    roots in closed form (_even_roots).  Empty when the sliders admit no
    assembly; InterpolationError when the geometry's octic fails its
    compile; ValueError, naming the slider, for an infinite or NaN one.
    """
    _require_distinct_offsets(geom)
    joints = _as_joints(joints)
    plane = joints.rho2 == joints.rho3
    # C1 = 0 with rho2 = rho3 voids the elimination (Q = 0): axis modes only
    if geom.C1 == 0.0 and plane:
        roots, axes = [], [math.pi, 0.0]
    else:
        octic = octic_from_joints(geom, joints)
        coeffs = octic.coeffs
        if len(coeffs) == 7 and coeffs[0] == coeffs[1] == coeffs[3] == coeffs[5] == 0.0:
            roots = _even_roots(coeffs)
        else:
            roots = real_roots(octic) if octic.degree >= 1 else []
        # alpha = pi is the root t = oo, a mode only where the t^8 term
        # vanishes, and alpha = 0 one only where c0 does or, through the
        # vanishing z_p denominator, on rho2 = rho3
        axes = [math.pi] if octic.degree < 8 else []
        if 0.0 not in roots and (plane or abs(coeffs[0]) <= TRIM_REL_TOL * max(map(abs, coeffs))):
            axes.append(0.0)
    alphas = [2.0 * math.atan(t) for t in roots] + axes
    scale = geom.residual_scale
    prefilter, converged = FK_PREFILTER_REL_TOL * scale, 1e-14 * scale
    rho1, rho2, rho3 = joints.as_tuple()
    modes = []
    for a in alphas:
        for x, y, z, alpha, c, s in _sphere_candidates(geom, joints, a):
            f = _rod_residuals(geom, x, y, z, c, s, rho1, rho2, rho3)
            residual = max(map(abs, f))
            if converged < residual <= prefilter:
                (x, y, z, alpha), residual = _polish_pose(geom, joints, (x, y, z, alpha),
                                                          c, s, f, residual, converged)
            # a NaN residual fails this test too
            if not residual <= FK_RESIDUAL_REL_TOL * scale:
                continue
            pose = PlatformPose(x, y, z, alpha)
            indices = back_derived_indices(geom, pose, joints)
            modes.append(((pose.alpha, x, y, z), AssemblyMode(
                pose, indices, residual, _on_working_branch(geom, indices, pose.alpha))))
    modes.sort(key=itemgetter(0))
    return _dedup(modes, FK_DEDUP_TOL)


def select_assembly_mode(modes):
    """The unique reachable mode, or None; ambiguity is always reported."""
    return _unique([m for m in modes if m.reachable])
