import math
import operator
import warnings
from dataclasses import replace
from fractions import Fraction
from functools import reduce
from itertools import product

import numpy as np
import pytest
import sympy as sp
from numpy.polynomial import polynomial as npoly

from pkmkin import (CoincidentOffsetError, DegenerateOrientationError, InterpolationError,
                    ParallelJoints, enumerate_fk, enumerate_ik, iso_ellipse,
                    joints_from_pose, newton_fk, octic_from_joints, select_assembly_mode,
                    select_working_solution, serialize_geometry)
from pkmkin import parallel_fk, real_roots, rootfind
from pkmkin.cli import main
from pkmkin.parallel_fk import AssemblyMode
from pkmkin.errors import NegativeRadicandError, SignRuleViolation
from pkmkin.parallel_ik import (ConfigurationIndices, PlatformPose, _on_working_branch,
                                _rod_residuals, constraint_residuals)
from pkmkin.rootfind import _horner

from conftest import angle_delta, raw_residuals, region_points
from reference import DegenerateDenominatorError, xp_from, yp_from, zp_from


def working_joints(geom, x, y, z):
    sol = select_working_solution(enumerate_ik(geom, x, y, z), geom)
    assert sol is not None
    return sol


def symmetric_joints(geom, x, z):
    """Slider triple of the axis-aligned pose (x, 0, z, alpha=0), all-minus
    branch; legs II and III coincide so rho2 = rho3 exactly."""
    X1 = x + geom.D1 - geom.d1
    X2 = x + geom.D2 - geom.d2
    rho1 = z - math.sqrt(geom.a_sq(1.0) - X1**2)
    rho23 = z - math.sqrt(geom.L2**2 - X2**2 - (geom.r4 - geom.R2)**2)
    return ParallelJoints(rho1, rho23, rho23)


# ---------------------------------------------------------------------------
# back-substitution chain

def test_yp_zero_at_axis_orientations(geom):
    assert yp_from(geom, 0.0, 812.0, 455.0) == 0.0
    assert yp_from(geom, math.pi, 812.0, 455.0) == pytest.approx(0.0, abs=1e-12)


def test_yp_satisfies_sign_identity(geom):
    # the defining relation: y (R1 cos a - r1) = R1 sin a (rho1 - z)
    rng = np.random.default_rng(2)
    for _ in range(20):
        alpha = rng.uniform(-2.5, 2.5)
        z, rho1 = rng.uniform(400, 1200), rng.uniform(100, 900)
        if abs(geom.R1 * math.cos(alpha) - geom.r1) < 1e-6:
            continue
        y = yp_from(geom, alpha, z, rho1)
        lhs = y * (geom.R1 * math.cos(alpha) - geom.r1)
        rhs = geom.R1 * math.sin(alpha) * (rho1 - z)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-9)


def test_yp_singular_orientation(geom):
    with pytest.raises(DegenerateOrientationError):
        yp_from(geom, math.acos(geom.r1 / geom.R1), 800.0, 400.0)


def test_zp_symmetric_joints_closed_form(geom):
    # with rho3 = rho2 the eliminated form reduces to
    # (4 C1 rho1 s - 2 R2 (2 rho2 - 2 rho1)(R1 cos a - r1) s) / (4 C1 s)
    rng = np.random.default_rng(3)
    for _ in range(10):
        alpha = rng.uniform(0.2, 2.0) * (1 if rng.uniform() < 0.5 else -1)
        rho1, rho2 = rng.uniform(200, 900), rng.uniform(200, 900)
        joints = ParallelJoints(rho1, rho2, rho2)
        s = math.sin(alpha)
        lead = geom.R1 * math.cos(alpha) - geom.r1
        expected = ((4.0 * geom.C1 * rho1 * s
                     - 2.0 * geom.R2 * (2.0 * rho2 - 2.0 * rho1) * lead * s)
                    / (4.0 * geom.C1 * s))
        assert zp_from(geom, alpha, joints) == pytest.approx(expected, rel=1e-12)


def test_zp_zeroes_leg23_difference(geom):
    # substituting y(z) and the returned z into the leg-II minus leg-III
    # difference must cancel it (x-independent)
    rng = np.random.default_rng(4)
    for _ in range(20):
        alpha = rng.uniform(-2.5, 2.5)
        joints = ParallelJoints(rng.uniform(200, 900), rng.uniform(200, 900),
                                rng.uniform(200, 900))
        if abs(geom.R1 * math.cos(alpha) - geom.r1) < 1e-3:
            continue
        try:
            z = zp_from(geom, alpha, joints)
        except DegenerateDenominatorError:
            continue
        y = yp_from(geom, alpha, z, joints.rho1)
        res = raw_residuals(geom, 0.0, y, z, alpha, *joints.as_tuple())
        assert abs(res[2] - res[3]) <= 1e-9 * geom.residual_scale * (
            1.0 + (abs(y) + abs(z)) / geom.L1)


def test_zp_guard_raises(geom):
    # rho2 = rho3 with sin(alpha) = 0 kills the denominator
    with pytest.raises(DegenerateDenominatorError):
        zp_from(geom, 0.0, ParallelJoints(500.0, 400.0, 400.0))


def test_zp_generalizes_to_unequal_leg_lengths(geom):
    # distinct L2/L3 keeps the leg-difference identity through the extra
    # (L2^2 - L3^2) term
    uneven = replace(geom, L2=560.0, L3=480.0)
    rng = np.random.default_rng(5)
    for _ in range(20):
        alpha = rng.uniform(-2.0, 2.0)
        joints = ParallelJoints(rng.uniform(200, 900), rng.uniform(200, 900),
                                rng.uniform(200, 900))
        if abs(uneven.R1 * math.cos(alpha) - uneven.r1) < 1e-3:
            continue
        try:
            z = zp_from(uneven, alpha, joints)
        except DegenerateDenominatorError:
            continue
        y = yp_from(uneven, alpha, z, joints.rho1)
        res = raw_residuals(uneven, 0.0, y, z, alpha, *joints.as_tuple())
        assert abs(res[2] - res[3]) <= 1e-9 * uneven.residual_scale * (
            1.0 + (abs(y) + abs(z)) / uneven.L1)


def test_xp_zeroes_sphere_difference(geom):
    # at the returned x the difference of the substituted leg-I midpoint and
    # leg-II constraints must vanish
    rng = np.random.default_rng(6)
    for x0, y0, z0 in region_points(rng, 15):
        sol = working_joints(geom, x0, y0, z0)
        x = xp_from(geom, sol.alpha, sol.joints)
        z = zp_from(geom, sol.alpha, sol.joints)
        y = yp_from(geom, sol.alpha, z, sol.joints.rho1)
        res = raw_residuals(geom, x, y, z, sol.alpha, *sol.joints.as_tuple())
        mid = 0.5 * (res[0] + res[1])
        assert abs(mid - res[2]) <= 1e-8 * geom.residual_scale
        assert (x, y, z) == pytest.approx((x0, y0, z0), abs=1e-6)


def test_xp_finite_for_symmetric_joints(geom):
    joints = symmetric_joints(geom, -250.0, 900.0)
    x = xp_from(geom, 0.9, joints)
    assert math.isfinite(x)


def test_xp_coincident_offsets_rejected(geom):
    bad = replace(geom, D2=geom.D1, d2=geom.d1)
    with pytest.raises(CoincidentOffsetError):
        xp_from(bad, 0.5, ParallelJoints(400.0, 380.0, 390.0))
    with pytest.raises(CoincidentOffsetError):
        enumerate_fk(bad, ParallelJoints(400.0, 380.0, 390.0))


# ---------------------------------------------------------------------------
# characteristic polynomial

def test_octic_ik_roundtrip_root(geom):
    rng = np.random.default_rng(7)
    for x, y, z in region_points(rng, 10):
        sol = working_joints(geom, x, y, z)
        octic = octic_from_joints(geom, sol.joints)
        assert octic.degree <= 8
        t_expected = math.tan(sol.alpha / 2.0)
        roots = __import__("pkmkin").real_roots(octic)
        assert any(abs(2.0 * math.atan(t) - sol.alpha) <= 1e-8 for t in roots), \
            (sol.alpha, roots)


def test_octic_root_count_covers_newton_modes(geom):
    rng = np.random.default_rng(8)
    for x, y, z in region_points(rng, 6):
        sol = working_joints(geom, x, y, z)
        octic = octic_from_joints(geom, sol.joints)
        n_roots = len(__import__("pkmkin").real_roots(octic))
        newton = newton_fk(geom, sol.joints, starts=100, seed=11)
        countable = [m for m in newton if abs(m[3]) < math.pi - 1e-6]
        assert n_roots >= len(countable)


def test_octic_degenerate_global_input(geom):
    # C1 = 0 with rho2 = rho3 voids the whole elimination
    degenerate = replace(geom, R1=240.0, R2=240.0, r1=120.0, r4=120.0)
    assert degenerate.C1 == 0.0
    with pytest.raises(InterpolationError):
        octic_from_joints(degenerate, ParallelJoints(500.0, 400.0, 400.0))


def test_octic_accepts_plain_tuples(geom):
    sol = working_joints(geom, -250.0, 60.0, 900.0)
    a = octic_from_joints(geom, sol.joints)
    b = octic_from_joints(geom, sol.joints.as_tuple())
    assert a.coeffs == b.coeffs


def exact_octic(geom, h):
    """The deflated octic in (t, v1, v2) in exact rational arithmetic,
    straight from the elimination chain: {(k, e1, e2): coefficient}."""
    K, t, v1, v2, c = sp.field("t,v1,v2,c", sp.QQ)
    R1, r1, R2, r4, L1, L2, L3, D1, d1, D2, d2, h = (
        K(sp.Rational(value)) for value in (geom.R1, geom.r1, geom.R2, geom.r4, geom.L1, geom.L2,
                                            geom.L3, geom.D1, geom.d1, geom.D2, geom.d2, h))
    # c is a common slider offset, which the octic must not depend on
    rho1, rho2, rho3 = h * (v1 + c), h * (c - v2 / 2), h * (c + v2 / 2)
    T = 1 + t**2
    cos, sin = (1 - t**2) / T, 2 * t / T
    C1 = r1 * R2 - r4 * R1
    lead = R1 * cos - r1
    gap = (D1 - d1) - (D2 - d2)
    a2 = L1**2 - (R1**2 + r1**2 - 2 * R1 * r1 * cos)
    Q = ((R1 - r1) - (R1 + r1) * t**2) * (rho3 - rho2) + 4 * C1 * t
    z = ((lead * ((rho2 + rho3) * (rho3 - rho2) - 2 * R2 * (rho3 + rho2 - 2 * rho1) * sin)
          + 4 * C1 * rho1 * sin + (L2**2 - L3**2) * lead)
         / (2 * (2 * C1 * sin + lead * (rho3 - rho2))))
    y = R1 * sin * (rho1 - z) / lead
    w2 = R2 * cos - r4
    x = ((a2 - L2**2 + w2**2 - 2 * y * w2 - (R2 * sin + rho2 - rho1) * (2 * z - rho1 - R2 * sin - rho2))
         / (2 * gap) - ((D1 - d1) + (D2 - d2)) / 2)
    residual = (x + D1 - d1)**2 + y**2 + (z - rho1)**2 - a2
    # the cleared numerator is residual * (2 gap P1 T^2 Q)^2; without its
    # spurious factor T^2 P1^2 it is this, a polynomial
    octic = residual * (2 * gap * Q)**2 * T**2
    # a polynomial: its denominator is a number
    assert octic.denom.is_ground
    den = octic.denom.LC
    terms = octic.numer.terms()
    assert all(e[3] == 0 for e, _ in terms)
    return {e[:3]: float(sp.Rational(coeff) / sp.Rational(den)) for e, coeff in terms}


COMPILE_DIMS = [{}, {"L2": 560.0, "L3": 480.0},
                {"R1": 300.3, "r1": 119.9, "L1": 490.05, "D2": 280.125}]


@pytest.mark.parametrize("dims", COMPILE_DIMS)
def test_compiled_octic_matches_exact_compile(geom, dims):
    # every term is the exact one rounded once, and only the nonzero ones are
    # kept; the lengths of dims2 are not integers, so the compile's common
    # power-of-two scale is not 1
    g = replace(geom, **dims)
    h, terms, _ = g.compiled_octic
    exact = {key: value.hex() for key, value in exact_octic(g, h).items() if value}
    assert h == 1024.0 and all(k <= 8 and e1 + e2 <= 6 for k, e1, e2 in terms)
    assert {key: value.hex() for key, value in terms.items()} == exact


@pytest.mark.parametrize("dims", COMPILE_DIMS)
def test_evaluator_is_the_ordered_sum_of_the_terms(geom, dims):
    # c_k is the left-to-right sum of row k's terms in (e1, e2) order, each
    # c, c * v1^e1, c * v2^e2 or c * (v1^e1 * v2^e2): the order that the
    # same-bits claims of the generated evaluator rest on; v2 = 0 and v1 = 0
    # make signed zeros, which hex() tells apart
    g = replace(geom, **dims)
    _, terms, evaluate = g.compiled_octic
    rng = np.random.default_rng(33)
    points = rng.uniform(-2.0, 2.0, size=(200, 2)).tolist()
    points += [[v1, 0.0] for v1, _ in points[:20]] + [[0.0, v2] for _, v2 in points[20:40]]
    for v1, v2 in points:
        rows = [[] for _ in range(9)]
        for (k, e1, e2), c in sorted(terms.items()):
            rows[k].append(c * (v1**e1 * v2**e2) if e1 and e2 else c * v1**e1 if e1
                           else c * v2**e2 if e2 else c)
        expected = [reduce(operator.add, row).hex() if row else "0x0.0p+0" for row in rows]
        assert [c.hex() for c in evaluate(v1, v2)] == expected, (v1, v2)


def test_compile_rejects_a_factor_that_does_not_divide(geom, monkeypatch):
    h = geom.compiled_octic[0]
    N, factor, _ = parallel_fk._cleared_numerator(geom, h)
    quot, scale = parallel_fk._deflate(N, factor)
    assert scale > 1 and any(quot.values())
    # off by one unit in the constant term, or by a factor of t
    for wrong in ([factor[0] + 1, *factor[1:]], [0, *factor]):
        with pytest.raises(InterpolationError, match="spurious factor"):
            parallel_fk._deflate(N, wrong)
    # and the compile says so, for a fresh geometry instance
    cleared = parallel_fk._cleared_numerator

    def off_by_one(g, h):
        N, factor, S = cleared(g, h)
        return N, [factor[0] + 1, *factor[1:]], S

    monkeypatch.setattr(parallel_fk, "_cleared_numerator", off_by_one)
    with pytest.raises(InterpolationError):
        enumerate_fk(replace(geom), ParallelJoints(500.0, 400.0, 420.0))


def test_octic_compiled_once_per_geometry(geom, monkeypatch):
    calls = []
    compile_octic = parallel_fk.compile_octic

    def counting(g):
        calls.append(g)
        return compile_octic(g)

    monkeypatch.setattr(parallel_fk, "compile_octic", counting)
    g = replace(geom)
    sol = working_joints(g, -250.0, 60.0, 900.0)
    for _ in range(3):
        octic_from_joints(g, sol.joints)
        enumerate_fk(g, sol.joints)
    assert len(calls) == 1
    other = replace(g)
    assert other == g and hash(other) == hash(g)
    enumerate_fk(other, sol.joints)
    assert len(calls) == 2


def test_octic_degree_drops_exactly_for_equal_legs_II_III(geom):
    # with rho2 = rho3, v2 = 0 exactly, so every coefficient that is a
    # multiple of rho3 - rho2 vanishes exactly, as in the exact polynomial
    h = geom.compiled_octic[0]
    exact = exact_octic(geom, h)
    rng = np.random.default_rng(12)
    cases = [symmetric_joints(geom, -250.0, 900.0)]
    cases += [ParallelJoints(r1, r2, r2) for r1, r2 in rng.uniform(-200.0, 1500.0, size=(20, 2))]
    for joints in cases:
        v1 = (joints.rho1 - joints.rho2) / h
        degree = max(k for (k, e1, e2), c in exact.items() if e2 == 0 and c * v1**e1 != 0.0)
        assert octic_from_joints(geom, joints).degree == degree == 6


def census_triples():
    """The joint-census benchmark pools of seeds 0-3: rho ~ U(-200, 1500)^3,
    every fourth from the fourth with rho3 = rho2 (2400 triples)."""
    triples = []
    for seed in range(4):
        rho = np.random.default_rng(seed).uniform(-200.0, 1500.0, size=(600, 3))
        rho[3::4, 2] = rho[3::4, 1]
        triples += [ParallelJoints(*r) for r in rho.tolist()]
    return triples


def census_plane_triples():
    """The rho2 = rho3 triples of census_triples (600 triples)."""
    return census_triples()[3::4]


@pytest.mark.parametrize("dims", [{}, {"L2": 560.0, "L3": 480.0}])
def test_octic_coefficients_match_the_exact_octic(geom, dims):
    # each float coefficient within 64 * 2^-52 of the largest exact
    # coefficient of the same sliders' octic, the compile's integer quotient
    # at the exact slider differences, for the roundings of the entries, of
    # v, of its powers and products and of the sums (at most 31.1 * 2^-52
    # measured on the 6000 census triples of seeds 0-9)
    g = replace(geom, **dims)
    h = g.compiled_octic[0]
    N, factor, S = parallel_fk._cleared_numerator(g, h)
    quot, scale = parallel_fk._deflate(N, factor)
    for joints in census_triples():
        r1, r2, r3 = map(Fraction, joints.as_tuple())
        v1, v2 = (r1 - (r2 + r3) / 2) / Fraction(h), (r3 - r2) / Fraction(h)
        # both dyadic: v = n / D for D the larger of their denominators
        D = max(v1.denominator, v2.denominator)
        n1, n2 = int(v1 * D), int(v2 * D)
        # the exact octic times den D^6, in integers
        exact = [0] * 9
        for (k, e1, e2), c in quot.items():
            exact[k] += c * n1**e1 * n2**e2 * D**(6 - e1 - e2)
        den = scale * S**8 * D**6
        bound = Fraction(64, 2**52) * max(map(abs, exact))
        coeffs = octic_from_joints(g, joints).coeffs
        padded = coeffs + (0.0,) * (9 - len(coeffs))
        for k, (c, e) in enumerate(zip(padded, exact)):
            assert abs(Fraction(c) * den - e) <= bound, (joints, k)


@pytest.mark.parametrize("dims", [{}, {"L2": 560.0, "L3": 480.0}])
def test_plane_octic_is_even_exactly_when_L2_equals_L3(geom, dims, monkeypatch):
    # on rho2 = rho3 (v2 = 0) the octic is c2 t^2 + c4 t^4 + c6 t^6 for
    # L2 = L3: no term without a v2 factor lies in rows 0, 1, 3, 5, 7 and 8,
    # and enumerate_fk takes the roots in closed form.  With L2 != L3 some
    # do, and the octic keeps the eigenvalue path
    g = replace(geom, **dims)
    even = not dims
    rows_without_v2 = {k for k, _, e2 in g.compiled_octic[1] if e2 == 0}
    assert (not rows_without_v2 & {0, 1, 3, 5, 7, 8}) == even
    assert {2, 4, 6} <= rows_without_v2
    calls = []
    monkeypatch.setattr(parallel_fk, "real_roots", lambda p: calls.append(p) or real_roots(p))
    rng = np.random.default_rng(71)
    for r1, r2 in rng.uniform(-200.0, 1500.0, size=(50, 2)).tolist():
        joints = ParallelJoints(r1, r2, r2)
        c = octic_from_joints(g, joints).coeffs
        assert (len(c) == 7 and c[0] == c[1] == c[3] == c[5] == 0.0) == even
        enumerate_fk(g, joints)
    assert len(calls) == (0 if even else 50)


def test_plane_modes_need_no_imaginary_tolerance(geom, monkeypatch):
    # the exact compile makes t = 0 an exact double root on the plane, so
    # neither the closed form nor the eigenvalue path on the same octics
    # depends on IMAG_REL_TOL keeping a complex pair
    triples = census_plane_triples()
    modes = [enumerate_fk(geom, joints) for joints in triples]
    roots = [real_roots(octic_from_joints(geom, joints)) for joints in triples]
    assert all(0.0 in r for r in roots)
    monkeypatch.setattr(rootfind, "IMAG_REL_TOL", 0.0)
    assert [enumerate_fk(geom, joints) for joints in triples] == modes
    assert [real_roots(octic_from_joints(geom, joints)) for joints in triples] == roots


def test_plane_axis_modes_sit_at_alpha_zero_in_pose_order(geom):
    # the octic's t = 0 root gives alpha = 0.0 exactly, never +-4e-16, so
    # two modes at alpha = 0 sort by (x_p, y_p, z_p)
    pairs = 0
    for joints in census_plane_triples():
        modes = enumerate_fk(geom, joints)
        axis = [m.pose for m in modes if abs(m.pose.alpha) <= 1e-9]
        assert all(p.alpha == 0.0 for p in axis), joints
        assert axis == sorted(axis, key=lambda p: (p.x_p, p.y_p, p.z_p)), joints
        pairs += len(axis) == 2
    assert pairs >= 100


def test_working_region_modes_need_no_polish_step(geom, monkeypatch):
    # from the exactly rounded matrix, the octic's roots give candidates
    # already within the converged residual: at most 1 % of the accepted
    # modes take a Newton step.  A step is one _jacobian call, charged to
    # the accepted mode nearest to where it was taken, which can only
    # overcount the modes that stepped
    jacobian, steps, accepted = parallel_fk._jacobian, [], []

    def counting_jacobian(g, x, y, z, c, s, joints):
        steps.append((x, y, z, math.atan2(s, c)))
        return jacobian(g, x, y, z, c, s, joints)

    monkeypatch.setattr(parallel_fk, "_jacobian", counting_jacobian)
    rng = np.random.default_rng(83)
    for x, y, z in region_points(rng, 300):
        joints = working_joints(geom, x, y, z).joints
        steps.clear()
        poses = [m.pose for m in enumerate_fk(geom, joints)]
        stepped = {min(range(len(poses)), key=lambda k: max(
            abs(poses[k].x_p - sx), abs(poses[k].y_p - sy), abs(poses[k].z_p - sz),
            angle_delta(poses[k].alpha, sa))) for sx, sy, sz, sa in steps} if poses else set()
        accepted += [k in stepped for k in range(len(poses))]
    assert len(accepted) >= 300 and sum(accepted) <= 0.01 * len(accepted)


@pytest.mark.parametrize("dims", [{}, {"L2": 560.0, "L3": 480.0}])
def test_octic_certified_for_any_common_slider_offset(geom, dims):
    # the compiled octic depends on the slider differences only, so a common
    # offset costs no accuracy: with |rho1 - rho2|, |rho3 - rho2| up to 32 h
    # and any common offset up to 1e6 mm, every triple matches the
    # elimination chain at the probe nodes; sliders on a 2^-20 mm grid shift
    # exactly, and then give the same octic bit for bit
    g = replace(geom, **dims)
    h = g.compiled_octic[0]
    rng = np.random.default_rng(31)
    for i in range(300):
        rho = np.round(rng.uniform(-16.0 * h, 16.0 * h, 3) * 2.0**20) / 2.0**20
        if i % 4 == 3:
            rho[2] = rho[1]
        offset = float(rng.integers(-10**6, 10**6))
        joints = ParallelJoints(*map(float, rho))
        assert octic_matches_chain(g, joints) >= 3
        here = octic_from_joints(g, joints)
        assert octic_from_joints(g, ParallelJoints(*map(float, rho + offset))) == here


PROBE_NODES = (0.3317, -1.2113, 2.4091, -0.5729, 4.17, 0.071)


def chain_samples(g, joints):
    """(t, cleared midpoint residual) at the probe nodes where the chain is
    well defined, straight from the public elimination chain, with P1(t)
    and Q(t) by Horner on their coefficients."""
    P1 = [g.R1 - g.r1, 0.0, -(g.R1 + g.r1)]
    d = joints.rho3 - joints.rho2
    Q = [d * P1[0] + 0.0, d * P1[1] + 4.0 * g.C1, d * P1[2]]
    out = []
    for t in PROBE_NODES:
        pv, qv = _horner(P1, t), _horner(Q, t)
        if abs(pv) < 1e-3 or abs(qv) < 1e-3:
            continue
        alpha = 2.0 * math.atan(t)
        try:
            z_p = zp_from(g, alpha, joints)
            y_p = yp_from(g, alpha, z_p, joints.rho1)
        except (DegenerateDenominatorError, DegenerateOrientationError):
            continue
        residual = ((xp_from(g, alpha, joints) + g.D1 - g.d1)**2 + y_p**2
                    + (z_p - joints.rho1)**2 - g.a_sq(math.cos(alpha)))
        out.append((t, residual * (2.0 * g.offset_gap * pv * (1.0 + t * t)**2 * qv)**2))
    return out


def octic_matches_chain(g, joints):
    """Asserts that the numerator the compiled octic implies,
    octic * (1 + t^2)^2 P1(t)^2, equals chain_samples at every usable node
    to 1e-9 relative: within 1e-9 * (scale * max(1, |t|)^16 + |sample|),
    with scale the largest coefficient magnitude, at least 1.  Returns the
    number of nodes compared."""
    P1 = [g.R1 - g.r1, 0.0, -(g.R1 + g.r1)]
    factor = npoly.polymul(npoly.polypow([1.0, 0.0, 1.0], 2), npoly.polypow(P1, 2))
    numerator = npoly.polymul(octic_from_joints(g, joints).coeffs, factor)
    scale = max(1.0, *np.abs(numerator))
    samples = chain_samples(g, joints)
    for t, sample in samples:
        bound = 1e-9 * (scale * max(1.0, abs(t))**16 + abs(sample))
        assert abs(npoly.polyval(t, numerator) - sample) <= bound, (joints, t)
    return len(samples)


@pytest.mark.parametrize("dims", [{}, {"L2": 560.0, "L3": 480.0},
                                  {"R1": 240.0, "R2": 240.0, "r1": 120.0, "r4": 120.0}],
                         ids=["synthetic", "L2-neq-L3", "C1-zero"])
def test_probe_node_table_matches_the_elimination_chain(geom, dims):
    # the compiled octic against the derivation it comes from: at the six
    # probe nodes, the numerator it implies equals the public chain's
    # cleared residual, on random triples, rho2 = rho3 among them
    g = replace(geom, **dims)
    rng = np.random.default_rng(43)
    rho = np.concatenate([rng.uniform(-200.0, 1500.0, (200, 3)),
                          rng.uniform(-1e4, 1e4, (200, 3))])
    rho[::4, 2] = rho[::4, 1]
    cases = [ParallelJoints(*map(float, r)) for r in rho]
    # rho3 - rho2 that puts a root of Q(t) = (rho3 - rho2) P1(t) + 4 C1 t on
    # each node, so that the chain is not defined there
    P1 = [g.R1 - g.r1, 0.0, -(g.R1 + g.r1)]
    cases += [ParallelJoints(900.0, 400.0, 400.0 - 4.0 * g.C1 * t / _horner(P1, t))
              for t in PROBE_NODES]
    compared = skipped = 0
    for joints in cases:
        if g.C1 == 0.0 and joints.rho2 == joints.rho3:
            # the elimination is void: no octic, and no node to compare at
            assert chain_samples(g, joints) == []
            with pytest.raises(InterpolationError, match="voids the elimination"):
                octic_from_joints(g, joints)
            skipped += 1
            continue
        n = octic_matches_chain(g, joints)
        compared += n
        skipped += n < len(PROBE_NODES)
    assert compared >= 5 * len(cases) // 2 and skipped >= len(PROBE_NODES)


def test_fk_surfaces_a_failed_certificate(geom, monkeypatch, tmp_path, capsys):
    # a compile whose spurious factor does not divide is an error, not
    # "no assembly", in the library and at the CLI
    cleared = parallel_fk._cleared_numerator

    def off_by_one(g, h):
        N, factor, S = cleared(g, h)
        return N, [factor[0] + 1, *factor[1:]], S

    monkeypatch.setattr(parallel_fk, "_cleared_numerator", off_by_one)
    joints = working_joints(geom, -250.0, 60.0, 900.0).joints
    # a fresh instance compiles with the wrong factor, as the CLI's does
    with pytest.raises(InterpolationError, match="spurious factor"):
        enumerate_fk(replace(geom), joints)
    path = tmp_path / "machine.cfg"
    path.write_text(serialize_geometry(geom))
    assert main(["fk", str(path), "--", *map(repr, joints.as_tuple())]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("pkmkin: ")
    assert "spurious factor" in captured.err


def test_fk_degenerate_global_input_keeps_axis_modes(geom):
    # C1 = 0 with rho2 = rho3 has no octic; the axis orientations remain
    degenerate = replace(geom, R1=240.0, R2=240.0, r1=120.0, r4=120.0)
    joints = ParallelJoints(500.0, 400.0, 400.0)
    modes = enumerate_fk(degenerate, joints)
    assert sorted(m.pose.alpha for m in modes) == [0.0, 0.0, math.pi, math.pi]
    for m in modes:
        assert max(map(abs, raw_residuals(degenerate, m.pose.x_p, m.pose.y_p, m.pose.z_p,
                                          m.pose.alpha, *joints.as_tuple()))) \
            <= 1e-7 * degenerate.residual_scale


@pytest.mark.parametrize("d", [1e-9, 1e-6, 1e-4])
def test_fk_near_the_void_plane_matches_newton(geom, d):
    # C1 = 0 just off rho2 = rho3: Q(t) = (rho3 - rho2) P1(t) is tiny at
    # every t, yet the octic is well defined and gives all four modes
    degenerate = replace(geom, R1=240.0, R2=240.0, r1=120.0, r4=120.0)
    joints = ParallelJoints(500.0, 400.0, 400.0 + d)
    modes = enumerate_fk(degenerate, joints)
    newton = newton_fk(degenerate, joints, starts=200)
    assert len(modes) == len(newton) == 4
    for m in modes:
        p = m.pose
        assert any(max(abs(p.x_p - x), abs(p.y_p - y), abs(p.z_p - z),
                       angle_delta(p.alpha, a)) <= 1e-6 for x, y, z, a in newton), p


# ---------------------------------------------------------------------------
# assembly-mode enumeration

def test_fk_roundtrip_over_region(geom):
    rng = np.random.default_rng(9)
    for x, y, z in region_points(rng, 120):
        sol = working_joints(geom, x, y, z)
        modes = enumerate_fk(geom, sol.joints)
        assert all(m.residual_norm <= 1e-7 * geom.residual_scale for m in modes)
        mode = select_assembly_mode(modes)
        assert mode is not None
        assert (mode.pose.x_p, mode.pose.y_p, mode.pose.z_p) == pytest.approx(
            (x, y, z), abs=1e-6)
        assert mode.pose.alpha == pytest.approx(sol.alpha, abs=1e-8)


def test_fk_modes_sorted_and_annotated(geom):
    sol = working_joints(geom, -250.0, 60.0, 900.0)
    modes = enumerate_fk(geom, sol.joints)
    # mode count pinned by the independent multi-start iteration
    assert len(modes) == len(newton_fk(geom, sol.joints, starts=400, seed=2)) == 2
    alphas = [m.pose.alpha for m in modes]
    assert alphas == sorted(alphas)
    assert sum(m.reachable for m in modes) == 1
    for m in modes:
        s = math.sin(m.pose.alpha)
        assert m.indices.s1 == (-1 if sol.joints.rho1 - m.pose.z_p <= 0 else 1)
        assert m.indices.s2 == (-1 if sol.joints.rho2 - m.pose.z_p + geom.R2 * s <= 0 else 1)
        assert m.indices.s3 == (-1 if sol.joints.rho3 - m.pose.z_p - geom.R2 * s <= 0 else 1)


def test_fk_symmetric_joints_cover_axis_modes(geom):
    # rho2 = rho3: the half-angle chain loses alpha in {0, pi}; the closed
    # form must restore them, and the newton oracle fixes the ground truth
    joints = symmetric_joints(geom, -250.0, 900.0)
    assert joints.rho2 == joints.rho3
    modes = enumerate_fk(geom, joints)
    newton = newton_fk(geom, joints, starts=400, seed=13)
    assert len(newton) >= 2
    for nx, ny, nz, na in newton:
        assert any(abs(m.pose.x_p - nx) <= 1e-5 and abs(m.pose.y_p - ny) <= 1e-5
                   and abs(m.pose.z_p - nz) <= 1e-5
                   and angle_delta(m.pose.alpha, na) <= 1e-5 for m in modes), (nx, ny, nz, na)
    axis = [m for m in modes if abs(m.pose.alpha) <= 1e-9]
    assert any(abs(m.pose.x_p + 250.0) <= 1e-6 and abs(m.pose.z_p - 900.0) <= 1e-6
               for m in axis)
    for m in axis:
        assert m.pose.y_p == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("dims", [{}, {"L2": 560.0, "L3": 480.0}])
def test_fk_axis_poses_come_back_on_every_sign_branch(geom, dims):
    # enumerate_fk tries alpha = pi only where the octic's t^8 term vanishes
    # and alpha = 0 only where c0 does or rho2 = rho3: the sliders of an
    # axis pose (x, 0, z, alpha in {0, pi}) on each of the eight sign
    # branches must still give that pose back, on its branch.  On
    # rho2 = rho3 the octic's t = 0 root is exact, so an alpha = 0 mode is
    # 0.0; elsewhere the mode from the eigenvalue root next to t = 0 may sort
    # first (|alpha| <= 2.7e-12 over 4800 such triples per geometry)
    g = replace(geom, **dims)
    rng = np.random.default_rng(37)
    for x, z in rng.uniform((-500.0, 500.0), (0.0, 1200.0), size=(12, 2)).tolist():
        for alpha in (0.0, math.pi):
            for signs in product((-1, 1), repeat=3):
                indices = ConfigurationIndices(*signs)
                joints = joints_from_pose(g, PlatformPose(x, 0.0, z, alpha), indices)
                axis = [m.pose for m in enumerate_fk(g, joints) if m.indices == indices
                        and max(abs(m.pose.x_p - x), abs(m.pose.y_p), abs(m.pose.z_p - z)) <= 1e-7
                        and angle_delta(m.pose.alpha, alpha) <= 1e-10]
                assert axis, (x, z, alpha, signs)
                if alpha == 0.0 and joints.rho2 == joints.rho3:
                    assert [p.alpha for p in axis] == [0.0], (x, z, signs)


def test_working_region_fk_tries_no_axis_orientation(geom, monkeypatch):
    # off the axis loci the octic has degree 8 and c0 well away from 0, so
    # neither alpha = pi nor alpha = 0 is back-substituted
    tried = []
    sphere = parallel_fk._sphere_candidates
    monkeypatch.setattr(parallel_fk, "_sphere_candidates",
                        lambda g, joints, alpha: tried.append(alpha) or sphere(g, joints, alpha))
    for x, y, z in region_points(np.random.default_rng(41), 100):
        assert select_assembly_mode(enumerate_fk(geom, working_joints(geom, x, y, z).joints))
    assert len(tried) >= 200
    assert not {0.0, math.pi} & set(tried)


def rod_alphas(geom):
    """Orientations where the rod constraints' association matters most:
    alpha = 0, +-pi, R1 cos(alpha) = r1 and its neighbouring floats, and a
    few generic ones."""
    crossing = math.acos(geom.r1 / geom.R1)
    return [0.0, math.pi, -math.pi, 0.3, -1.2, 2.6] + [
        sign * a for a in (crossing, math.nextafter(crossing, 0.0), math.nextafter(crossing, 4.0))
        for sign in (1.0, -1.0)]


def rod_poses(geom):
    """Seeded poses at rod_alphas and random orientations, at random positions."""
    rng = np.random.default_rng(61)
    alphas = rod_alphas(geom) + rng.uniform(-math.pi, math.pi, 20).tolist()
    return [(*rng.uniform((-500.0, -200.0, 300.0), (100.0, 200.0, 1200.0)).tolist(), a)
            for a in alphas for _ in range(4)]


def test_rod_residuals_match_the_restated_constraint_bit_for_bit(geom):
    # the (c, s) rod helper the FK candidate stage calls, and
    # constraint_residuals, keep the association of the constraint as the
    # machine description states it: (y + R1 cos(alpha)) - r1, not
    # y + (R1 cos(alpha) - r1)
    rng = np.random.default_rng(67)
    for x, y, z, a in rod_poses(geom):
        rho = rng.uniform(-200.0, 1500.0, 3).tolist()
        raw = raw_residuals(geom, x, y, z, a, *rho)
        assert _rod_residuals(geom, x, y, z, math.cos(a), math.sin(a), *rho) == raw
        assert constraint_residuals(geom, x, y, z, a, *rho) == raw


def test_polish_jacobian_matches_central_differences(geom):
    # the polish's Jacobian, from the (c, s) rod vectors, against central
    # differences of the restated constraint: a wrong sign in the alpha
    # column would only slow the polish or send it the wrong way, silently
    rng = np.random.default_rng(73)
    h = 1e-6
    for x, y, z, a in rod_poses(geom):
        joints = ParallelJoints(*rng.uniform(-200.0, 1500.0, 3).tolist())
        v = np.array([x, y, z, a])
        J = parallel_fk._jacobian(geom, x, y, z, math.cos(a), math.sin(a), joints).reshape(4, 4)
        f_mag = max(map(abs, raw_residuals(geom, x, y, z, a, *joints.as_tuple())))
        for k in range(4):
            dv = np.zeros(4)
            dv[k] = h
            fd = (np.array(raw_residuals(geom, *(v + dv).tolist(), *joints.as_tuple()))
                  - np.array(raw_residuals(geom, *(v - dv).tolist(), *joints.as_tuple()))) / (2.0 * h)
            # cancellation noise in the difference is ~eps * |f| / h
            noise = 1e-15 * f_mag / h
            scale = max(1.0, np.max(np.abs(J[:, k])))
            assert np.all(np.abs(fd - J[:, k]) <= 1e-6 * scale + noise), (x, y, z, a, k)


def rod_triples(geom):
    """Slider triples, on every sign branch that closes, of the poses
    (x, 0, z, alpha in {0, pi}) and of iso-ellipse points at the other
    rod_alphas."""
    rng = np.random.default_rng(71)
    poses = [PlatformPose(x, 0.0, z, alpha) for alpha in (0.0, math.pi)
             for x, z in rng.uniform((-500.0, 500.0), (0.0, 1200.0), (6, 2)).tolist()]
    poses += [PlatformPose(*iso_ellipse(geom, alpha).point(phi), float(rng.uniform(600.0, 1100.0)),
                           alpha)
              for alpha in rod_alphas(geom)[3:] for phi in (0.5, 2.0, 4.0)]
    triples = []
    for pose, signs in product(poses, product((-1, 1), repeat=3)):
        try:
            triples.append(joints_from_pose(geom, pose, ConfigurationIndices(*signs)))
        except (NegativeRadicandError, SignRuleViolation):
            pass
    return triples


def test_fk_candidate_stage_matches_each_mode_stored_pose(geom, monkeypatch):
    # the candidate stage takes each orientation's cosine and sine once: a
    # mode's signs and reachable flag are those of its stored pose, and a
    # mode whose stored pose is a sphere-intersection candidate (no polish
    # step, alpha unmoved by wrap_angle) has the residual of the restated
    # constraint at that pose
    sphere, candidates = parallel_fk._sphere_candidates, set()

    def recording_sphere(g, joints, alpha):
        out = sphere(g, joints, alpha)
        candidates.update(c[:4] for c in out)
        return out

    monkeypatch.setattr(parallel_fk, "_sphere_candidates", recording_sphere)
    modes = unpolished = 0
    for joints in census_triples() + rod_triples(geom):
        candidates.clear()
        for m in enumerate_fk(geom, joints):
            modes += 1
            p = m.pose
            assert m.indices == parallel_fk.back_derived_indices(geom, p, joints), (joints, m)
            assert m.reachable == _on_working_branch(geom, m.indices, p.alpha), (joints, m)
            if (p.x_p, p.y_p, p.z_p, p.alpha) in candidates:
                unpolished += 1
                assert m.residual_norm == max(map(abs, raw_residuals(
                    geom, p.x_p, p.y_p, p.z_p, p.alpha, *joints.as_tuple()))), (joints, m)
    assert modes >= 4000 and unpolished >= 1000


def test_polish_stops_quietly_on_a_singular_jacobian(geom, monkeypatch):
    # a singular Jacobian gives the solve gufunc a zero pivot: NaN step, no
    # exception and no RuntimeWarning; the negated true one gives steps
    # that no damping makes lower the norm, so the line search gives up.
    # Either way the candidate and its norm come back as they are
    sol = working_joints(geom, -250.0, 60.0, 900.0)
    candidate = (-250.0 + 1e-4, 60.0, 900.0, sol.alpha)
    c, s = math.cos(sol.alpha), math.sin(sol.alpha)
    f = _rod_residuals(geom, *candidate[:3], c, s, *sol.joints.as_tuple())
    norm = max(map(abs, f))
    scale = geom.residual_scale
    assert 1e-14 * scale < norm <= 1e-3 * scale
    true_jacobian, calls = parallel_fk._jacobian, []
    for jacobian in (lambda *args: np.zeros(16), lambda *args: -true_jacobian(*args)):
        calls.clear()
        monkeypatch.setattr(parallel_fk, "_jacobian",
                            lambda *args: calls.append(args) or jacobian(*args))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pose, residual = parallel_fk._polish_pose(geom, sol.joints, candidate, c, s, f,
                                                      norm, 1e-14 * scale)
        assert pose == candidate and residual == norm
        assert len(calls) == 1


def test_fk_unassemblable_joints_empty(geom):
    assert enumerate_fk(geom, ParallelJoints(2000.0, -1900.0, 200.0)) == []


@pytest.mark.parametrize("rho", [(1e48, -1e48, 3e48), (1e50, -1e50, 3e50)],
                         ids=["certificate-bound", "certificate-values"])
def test_fk_numpy_float_sliders_overflow_without_warning(geom, rho):
    # numpy scalars warn on overflow before the Python-float arithmetic
    # raises, so the sliders become Python floats on the way in.  These
    # sliders stay within float range through the octic and the sphere
    # intersection: no assembly, and no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for joints in (np.array(rho), ParallelJoints(*np.array(rho))):
            assert enumerate_fk(geom, joints) == []


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_fk_non_finite_slider_is_one_value_error(geom, k, value):
    # a NaN slider used to come out as "sliders out of float range"
    rho = [450.0, 400.0, 380.0]
    rho[k] = value
    for solve in (enumerate_fk, octic_from_joints):
        for joints in (ParallelJoints(*rho), np.array(rho)):
            with pytest.raises(ValueError, match=f"^rho{k + 1} must be finite, got {value}$"):
                solve(geom, joints)


def test_fk_finite_sliders_out_of_float_range_stay_an_overflow_error(geom):
    # the scaled slider differences overflow, or their powers do
    for solve in (enumerate_fk, octic_from_joints):
        for rho in ((1.7e308, -1.7e308, 0.0), (1e308, -1e308, 0.0)):
            with pytest.raises(OverflowError):
                solve(geom, ParallelJoints(*rho))


def test_fk_slider_powers_out_of_float_range_name_the_coefficients(geom):
    # a power of the scaled slider differences that overflows raises in the
    # generated evaluator; the stage is named, as for coefficients whose
    # sums overflow, not the power's bare errno tuple
    for solve in (enumerate_fk, octic_from_joints):
        for rho in ((1e200, 400.0, 380.0), (-1e200, 0.0, 0.0), (1e308, -1e308, 0.0)):
            with pytest.raises(OverflowError,
                               match="^characteristic polynomial: coefficients out of float range$"):
                solve(geom, ParallelJoints(*rho))


def test_fk_slider_types_give_the_same_modes(geom):
    rng = np.random.default_rng(14)
    for rho in rng.uniform(-200.0, 1500.0, size=(20, 3)):
        expected = repr(enumerate_fk(geom, ParallelJoints(*rho.tolist())))
        assert repr(enumerate_fk(geom, rho)) == expected
        assert repr(enumerate_fk(geom, ParallelJoints(*rho))) == expected


def test_fk_polish_runs_to_convergence(geom):
    # one candidate here starts 6.7e-5 mm from a mode; a polish capped at 4
    # Newton steps left it at a residual of 1.09e-3 mm^2 and kept it as a
    # third mode instead of merging it
    modes = enumerate_fk(geom, ParallelJoints(-16.098796712600205, 531.0703031762652,
                                              784.7286911922657))
    assert len(modes) == 2
    assert all(m.residual_norm <= 1e-9 * geom.residual_scale for m in modes)


def test_fk_mode_counts_bounded(geom):
    rng = np.random.default_rng(10)
    seen = set()
    for _ in range(120):
        joints = ParallelJoints(*rng.uniform(-200.0, 1500.0, size=3))
        modes = enumerate_fk(geom, joints)
        seen.add(len(modes))
        assert len(modes) <= 8
    assert max(seen) <= 6


def test_select_assembly_mode_semantics(geom):
    assert select_assembly_mode([]) is None
    sol = working_joints(geom, -250.0, 60.0, 900.0)
    modes = enumerate_fk(geom, sol.joints)
    flipped = [AssemblyMode(pose=m.pose, indices=m.indices,
                            residual_norm=m.residual_norm, reachable=False)
               for m in modes]
    assert select_assembly_mode(flipped) is None
    from pkmkin import AmbiguousSelectionError
    chosen = select_assembly_mode(modes)
    with pytest.raises(AmbiguousSelectionError):
        select_assembly_mode([chosen, chosen])


def test_fk_perpendicular_leg_fallback(geom):
    # force a root exactly on R1 cos(alpha) = r1: construct joints from a
    # pose on that circle and require the pose among the modes
    alpha = math.acos(geom.r1 / geom.R1)
    x = geom.center_x + math.sqrt(geom.a_sq(geom.r1 / geom.R1))
    z = 900.0
    pose = PlatformPose.solved(geom, x, 0.0, z, alpha)
    joints = joints_from_pose(geom, pose, ConfigurationIndices(-1, -1, -1))
    modes = enumerate_fk(geom, joints)
    assert any(abs(m.pose.x_p - x) <= 1e-5 and abs(m.pose.alpha - alpha) <= 1e-7
               for m in modes), [(m.pose.x_p, m.pose.alpha) for m in modes]
