import math
from dataclasses import replace
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pkmkin import (AmbiguousSelectionError, ConfigurationIndices,
                    DegenerateOrientationError, InconsistentPoseError,
                    NegativeRadicandError, PlatformPose, SignRuleViolation,
                    UnreachableOrientationError, coupling_cubic, enumerate_ik,
                    iso_ellipse, joints_from_pose, orientation_candidates,
                    real_roots_in_unit_interval, residuals_parallel,
                    select_working_solution, wrap_angle)
from pkmkin import parallel_ik, rootfind
from pkmkin.parallel_ik import DEDUP_TOL, coupling_residual, constraint_residuals

from conftest import (RHO1_PINNED, allowed_s1, assert_distinct, brute_force_ik, coupling_scale,
                      grazing_point, legs_that_cannot_close, locus_points, raw_residuals,
                      region_points)

RNG = np.random.default_rng(20240811)
POINT = (-250.0, 60.0, 900.0)


def test_wrap_angle_convention():
    assert wrap_angle(math.pi) == math.pi
    assert wrap_angle(-math.pi) == math.pi
    assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)
    assert wrap_angle(0.3) == pytest.approx(0.3)
    assert wrap_angle(-0.3 + 2 * math.pi) == pytest.approx(-0.3)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_angle_is_one_value_error(value):
    # math.fmod said "math domain error" for +-inf, and a NaN passed through
    for wrap in (wrap_angle, lambda a: PlatformPose(1.0, 2.0, 3.0, a)):
        with pytest.raises(ValueError, match=f"^angle must be finite, got {value}$"):
            wrap(value)


def test_branch_sign_outside_plus_minus_one_is_a_value_error():
    with pytest.raises(ValueError, match=r"^s1 must be -1 or \+1$"):
        ConfigurationIndices(0, -1, -1)


# ---------------------------------------------------------------------------
# coupling cubic

def test_cubic_leading_coefficient(geom):
    for x, y in [(-250.0, 60.0), (0.0, 0.0), (137.5, -41.2)]:
        cubic = coupling_cubic(geom, x, y)
        assert cubic.coeffs[-1] == 2.0 * geom.R1**3 * geom.r1


def test_cubic_endpoint_identities(geom):
    # expanding the coupling relation at cos(alpha) = +-1 collapses it to
    # (R1 -+ r1)^2 y^2; frozen as an identity check on the coefficients
    for x, y in [(-250.0, 60.0), (-310.0, -120.0), (-180.0, 5.0)]:
        p = coupling_cubic(geom, x, y)
        at_plus = sum(p.coeffs)
        at_minus = sum(c * (-1.0) ** k for k, c in enumerate(p.coeffs))
        assert at_plus == pytest.approx((geom.R1 - geom.r1)**2 * y**2, rel=1e-12, abs=1e-6)
        assert at_minus == pytest.approx((geom.R1 + geom.r1)**2 * y**2, rel=1e-12, abs=1e-6)


def test_cubic_roots_satisfy_coupling(geom):
    for x, y, z in region_points(np.random.default_rng(5), 10):
        for alpha in orientation_candidates(geom, x, y):
            res = coupling_residual(geom, x, y, alpha)
            assert abs(res) <= 1e-9 * coupling_scale(geom, x, y, alpha)


# ---------------------------------------------------------------------------
# orientation candidates

def test_candidates_on_axis_center(geom):
    # at the ellipse centre with y = 0 only the axis-aligned orientations
    # solve the cubic (cos = +-1 are always roots when y = 0)
    cands = orientation_candidates(geom, geom.center_x, 0.0)
    assert cands == pytest.approx([0.0, math.pi])


def test_candidates_on_axis_with_tilted_pair(geom):
    # further out on the axis the third cubic root enters (-1, 1)
    cands = orientation_candidates(geom, geom.center_x + 400.0, 0.0)
    assert len(cands) == 4
    assert 0.0 in [pytest.approx(c) for c in cands]
    tilted = [c for c in cands if abs(c) > 1e-9 and abs(abs(c) - math.pi) > 1e-9]
    assert len(tilted) == 2
    assert tilted[0] == pytest.approx(-tilted[1])


def test_candidates_generic_point_four_and_negation_closed(geom):
    for x, y, z in region_points(np.random.default_rng(6), 15):
        cands = orientation_candidates(geom, x, y)
        assert len(cands) == 4
        for a in cands:
            assert any(abs(a + b) <= 1e-9 for b in cands)


def per_sign_candidates(geom, x_p, y_p):
    """Reference orientation candidates: both signs of every arccos root,
    each polished and coupling-tested on its own, then merged."""
    out = []
    for c in parallel_ik.real_roots_in_unit_interval(coupling_cubic(geom, x_p, y_p)):
        snapped = c > 1.0 - parallel_ik.COS_SNAP_TOL or c < -1.0 + parallel_ik.COS_SNAP_TOL
        base = math.acos(round(c) if snapped else c)
        for alpha in {wrap_angle(base), wrap_angle(-base)}:
            if not snapped:
                alpha = wrap_angle(parallel_ik._polish_alpha(geom, x_p, y_p, alpha))
            if parallel_ik._coupling_holds(geom, x_p, y_p, alpha):
                out.append(alpha)
    out.sort()
    merged = []
    for a in out:
        if not (merged and abs(a - merged[-1]) <= DEDUP_TOL):
            merged.append(a)
    return merged


def test_candidates_match_per_sign_reference(geom):
    # the coupling relation and its polish are even in alpha, so one polish
    # and one coupling test per cosine root find what one per sign does
    rng = np.random.default_rng(14)
    points = region_points(rng, 300)
    for seed in range(8):
        points += locus_points(geom, np.random.default_rng(seed))
    for x, y, _ in points:
        got, ref = orientation_candidates(geom, x, y), per_sign_candidates(geom, x, y)
        assert len(got) == len(ref), (x, y)
        assert all(abs(a - b) <= 1e-12 for a, b in zip(got, ref)), (x, y, got, ref)
    for x in (geom.center_x, 5000.0):
        assert orientation_candidates(geom, x, 0.0) == per_sign_candidates(geom, x, 0.0) == [0.0, math.pi]


def test_candidates_far_outside_empty(geom):
    assert orientation_candidates(geom, 5000.0, 50.0) == []
    assert orientation_candidates(geom, geom.center_x, 4000.0) == []


def test_candidates_on_axis_far_out_are_unreachable(geom):
    # on the y = 0 axis the coupling relation is void at alpha in {0, pi},
    # so those candidates survive arbitrarily far out; the leg radicands
    # reject them during enumeration
    assert orientation_candidates(geom, 5000.0, 0.0) == pytest.approx([0.0, math.pi])
    assert enumerate_ik(geom, 5000.0, 0.0, 900.0) == []


# ---------------------------------------------------------------------------
# iso-orientation ellipses

def test_ellipse_points_satisfy_coupling_exactly(geom):
    for alpha in (0.7, -1.2, 2.9, 0.05):
        ell = iso_ellipse(geom, alpha)
        assert ell.center_x == geom.center_x
        for k in range(16):
            x, y = ell.point(2 * math.pi * k / 16)
            res = coupling_residual(geom, x, y, alpha)
            assert abs(res) <= 1e-9 * coupling_scale(geom, x, y, alpha)


def test_ellipse_circle_degeneracy(geom):
    alpha = math.acos(geom.r1 / geom.R1)
    ell = iso_ellipse(geom, alpha)
    assert ell.semi_minor_b == pytest.approx(ell.semi_major_a, rel=1e-12)


def test_ellipse_collapses_toward_axis(geom):
    ell = iso_ellipse(geom, 1e-4)
    assert ell.semi_minor_b < 1e-3 * ell.semi_major_a


def test_ellipse_axis_ordering(geom):
    for alpha in (0.3, 1.0, 2.2, -2.8):
        ell = iso_ellipse(geom, alpha)
        assert ell.semi_major_a >= ell.semi_minor_b > 0.0


def test_ellipse_degenerate_orientation(geom):
    with pytest.raises(DegenerateOrientationError):
        iso_ellipse(geom, 0.0)
    with pytest.raises(DegenerateOrientationError):
        iso_ellipse(geom, math.pi)


def test_ellipse_unreachable_orientation(geom):
    # shorter leg-I rods cannot reach alpha near pi
    short = replace(geom, L1=400.0)
    with pytest.raises(UnreachableOrientationError):
        iso_ellipse(short, 3.0)


# ---------------------------------------------------------------------------
# the cubic's fragile loci: orientation and branch counts against a route
# through numpy.roots on the same coefficients

def numpy_unit_roots(p):
    """real_roots_in_unit_interval with numpy.roots' eigenvalues as the
    candidates, through rootfind's imaginary-part filter, polish, acceptance
    and merge."""
    candidates = [z.real for z in np.roots(p.coeffs[::-1]).tolist()
                  if abs(z.imag) <= rootfind.IMAG_REL_TOL * (1.0 + abs(z.real))]
    return [min(1.0, max(-1.0, r)) for r in rootfind._refine(p.coeffs, candidates)
            if -1.0 - 1e-9 <= r <= 1.0 + 1e-9]


def counts_match_numpy_roots(geom, points, monkeypatch):
    """(orientations, branches) per point, asserted equal on both routes."""
    def counts():
        return [(len(orientation_candidates(geom, x, y)), len(enumerate_ik(geom, x, y, z)))
                for x, y, z in points]
    got = counts()
    with monkeypatch.context() as m:
        m.setattr(parallel_ik, "real_roots_in_unit_interval", numpy_unit_roots)
        assert counts() == got
    return got


def exact_axis_count(geom, x):
    """The number of orientations at (x, 0): alpha = 0 and pi, and the pair
    +-acos(r3) where the third root r3 = (X1^2 - K) / (2 R1 r1) of the
    y_p = 0 cubic, exact on the float inputs, lies in (-1, 1)."""
    R1, r1 = Fraction(geom.R1), Fraction(geom.r1)
    X1 = Fraction(x) + Fraction(geom.D1) - Fraction(geom.d1)
    r3 = (X1**2 - (Fraction(geom.L1)**2 - R1**2 - r1**2)) / (2 * R1 * r1)
    return 4 if abs(r3) < 1 else 2


def test_axis_roots_come_back_exactly(geom):
    # on y_p = 0 the cubic is (1 - c^2) (R1^2 (X1^2 - K) - 2 R1^3 r1 c):
    # c = +-1 come back as +-1.0 and alpha = 0.0, pi exactly, with the third
    # root inside (-1, 1) at x in {-680, -600, 150}
    xs = (-900.0, -680.0, -600.0, -450.0, geom.center_x, 0.0, 150.0, 400.0)
    for x in xs:
        roots = real_roots_in_unit_interval(coupling_cubic(geom, x, 0.0))
        assert roots[0] == -1.0 and roots[-1] == 1.0
        cands = orientation_candidates(geom, x, 0.0)
        assert 0.0 in cands and math.pi in cands
        assert len(cands) == exact_axis_count(geom, x), x
    assert {exact_axis_count(geom, x) for x in xs} == {2, 4}


def test_axis_orientations_survive_a_third_root_at_one(geom):
    # where the third root meets c = +-1 a cosine root +-1 can merge with it
    # and leave [-1, 1]; alpha = 0 and pi are still orientations on y_p = 0
    K = geom.L1**2 - geom.R1**2 - geom.r1**2
    for sign, side in product((1, -1), repeat=2):
        x = side * math.sqrt(K + sign * 2.0 * geom.R1 * geom.r1) - geom.D1 + geom.d1
        for dx in (0.0, 1e-9, -1e-9, 1e-6, -1e-6):
            cands = orientation_candidates(geom, x + dx, 0.0)
            assert 0.0 in cands and math.pi in cands, (x, dx)


def test_near_axis_pair_follows_the_exact_third_root(geom):
    # within 1e-6 mm of the four x where r3 meets +-1, r3 lies within ~1e-8
    # of the axis root, where a root finder merges the two by round-off; the
    # tilted pair +-acos(r3) is there exactly when |r3| < 1
    K = geom.L1**2 - geom.R1**2 - geom.r1**2
    seen = set()
    for sign, side in product((1, -1), repeat=2):
        x0 = side * math.sqrt(K + sign * 2.0 * geom.R1 * geom.r1) - geom.D1 + geom.d1
        for dx in (1e-6, -1e-6, 3e-7, -3e-7, 1e-7, -1e-7, 3e-8, -3e-8, 1e-8, -1e-8):
            count = len(orientation_candidates(geom, x0 + dx, 0.0))
            assert count == exact_axis_count(geom, x0 + dx), (x0, dx)
            seen.add(count)
    assert seen == {2, 4}


def test_perpendicular_leg_circle_counts(geom, monkeypatch):
    # R1 cos(alpha) = r1: the iso-ellipse is a circle, and r1 / R1 a root
    alpha = math.acos(geom.r1 / geom.R1)
    circle = iso_ellipse(geom, alpha)
    points = [(*circle.point(phi), 900.0) for phi in np.linspace(0.0, 2.0 * math.pi, 13)[:-1]]
    for x, y, _ in points:
        assert min(abs(a - alpha) for a in orientation_candidates(geom, x, y)) <= 1e-12
    assert set(counts_match_numpy_roots(geom, points, monkeypatch)) == {(4, 16)}


def discriminant_edge(geom, x, inside, outside):
    """The y between inside (three real cosine roots) and outside (one)
    where the cubic's discriminant, exact on the float coefficients,
    changes sign: two cosine roots merge there."""
    def disc(y):
        d, c, b, a = map(Fraction, coupling_cubic(geom, x, y).coeffs)
        return 18 * a * b * c * d - 4 * b**3 * d + b * b * c * c - 4 * a * c**3 - 27 * a * a * d * d
    assert disc(inside) > 0 > disc(outside)
    while True:
        mid = 0.5 * (inside + outside)
        if mid in (inside, outside):
            return inside
        inside, outside = (mid, outside) if disc(mid) > 0 else (inside, mid)


def test_workspace_edge_where_cosine_roots_merge(geom, monkeypatch):
    # 1e-9 mm inside the edge the two roots lie ~3e-6 apart; on the edge's
    # two ulps they are a double root, kept or not alike by both routes
    for x, inside, outside in ((-600.0, 100.0, 400.0), (-400.0, 300.0, 500.0),
                               (geom.center_x, 300.0, 500.0), (-100.0, 300.0, 500.0),
                               (100.0, 200.0, 300.0)):
        edge = discriminant_edge(geom, x, inside, outside)
        for sign in (1.0, -1.0):
            near = [(x, sign * (edge - d), 900.0) for d in (1e-3, 1e-6, 1e-9)]
            beyond = [(x, sign * (edge + d), 900.0) for d in (1e-6, 1e-3)]
            assert set(counts_match_numpy_roots(geom, near, monkeypatch)) == {(4, 16)}
            assert set(counts_match_numpy_roots(geom, beyond, monkeypatch)) == {(0, 0)}
            counts_match_numpy_roots(geom, [(x, sign * edge, 900.0),
                                            (x, sign * math.nextafter(edge, outside), 900.0)],
                                     monkeypatch)


# ---------------------------------------------------------------------------
# joints from pose

def test_rho1_closed_form_axis(geom):
    x, z = -230.0, 850.0
    pose = PlatformPose.solved(geom, x, 0.0, z, 0.0)
    joints = joints_from_pose(geom, pose, ConfigurationIndices(-1, -1, -1))
    X1 = x + geom.D1 - geom.d1
    assert joints.rho1 == pytest.approx(
        z - math.sqrt(geom.L1**2 - (geom.R1 - geom.r1)**2 - X1**2), abs=1e-9)


def test_rho1_pinned_when_leg_perpendicular(geom):
    # R1 cos(alpha) = r1 forces the slider to the platform height: at y = 0
    # and all round that orientation's ellipse, where alpha and so
    # R1 cos(alpha) - r1 are known only to round-off
    alpha = math.acos(geom.r1 / geom.R1)
    ell = iso_ellipse(geom, alpha)
    z = 900.0
    points = [(geom.center_x + math.sqrt(geom.a_sq(geom.r1 / geom.R1)), 0.0)]
    points += [ell.point(phi) for phi in (0.4, 1.9, 3.5, 5.1)]
    for x, y in points:
        pose = PlatformPose.solved(geom, x, y, z, alpha)
        assert allowed_s1(geom, pose) is RHO1_PINNED
        joints = joints_from_pose(geom, pose, ConfigurationIndices(-1, -1, -1))
        assert joints.rho1 == pytest.approx(z, abs=1e-6)
        branches = [s for s in enumerate_ik(geom, x, y, z) if abs(s.alpha - alpha) <= 1e-9]
        assert len(branches) == 4
        assert all(s.joints.rho1 == z for s in branches)


@pytest.mark.parametrize("y_abs", [1e-7, 1e-6, 1e-5])
def test_rho1_exact_next_to_the_y_zero_edge(geom, monkeypatch, y_abs):
    # x just inside the edge of an ellipse: the leg-I radicand is round-off
    # there, so rho1 must come from the sign rule, not from its square root
    rng = np.random.default_rng(17)
    points = []
    for _ in range(200):
        alpha = rng.uniform(0.1, 1.2) * rng.choice([-1.0, 1.0])
        a = math.sqrt(geom.a_sq(math.cos(alpha)))
        points.append((geom.center_x + 0.999999 * a * rng.choice([-1.0, 1.0]),
                       y_abs * rng.choice([-1.0, 1.0]), rng.uniform(700.0, 1100.0)))
    kept = [enumerate_ik(geom, *p) for p in points]
    worst = max(residuals_parallel(geom, PlatformPose(*p, sol.alpha), sol.joints).max_abs
                for p, sols in zip(points, kept) for sol in sols)
    assert worst <= 1e-9 * geom.residual_scale
    # no branch was dropped by the residual filter
    monkeypatch.setattr(parallel_ik, "SOLUTION_REL_TOL", math.inf)
    assert [enumerate_ik(geom, *p) for p in points] == kept


def test_joints_residuals_random(geom):
    rng = np.random.default_rng(7)
    for x, y, z in region_points(rng, 12):
        for alpha in orientation_candidates(geom, x, y):
            pose = PlatformPose.solved(geom, x, y, z, alpha)
            allowed = allowed_s1(geom, pose)
            s1s = (-1, 1) if allowed is RHO1_PINNED else sorted(allowed)
            for s1 in s1s:
                for s2 in (-1, 1):
                    for s3 in (-1, 1):
                        try:
                            joints = joints_from_pose(
                                geom, pose, ConfigurationIndices(s1, s2, s3))
                        except NegativeRadicandError:
                            continue
                        res = constraint_residuals(
                            geom, x, y, z, pose.alpha, *joints.as_tuple())
                        assert max(abs(r) for r in res) <= 1e-9 * geom.residual_scale


def test_sign_rule_violation_raised(geom):
    x, y, z = POINT
    alpha = [a for a in orientation_candidates(geom, x, y) if abs(a) < 1.0][0]
    pose = PlatformPose.solved(geom, x, y, z, alpha)
    allowed = allowed_s1(geom, pose)
    assert allowed is not RHO1_PINNED and len(allowed) == 1
    wrong = -next(iter(allowed))
    with pytest.raises(SignRuleViolation):
        joints_from_pose(geom, pose, ConfigurationIndices(wrong, -1, -1))


def test_negative_radicand_names_leg(geom):
    # y far outside leg II's reach at this orientation but still a solved
    # pose is impossible; use an unsolved duck-typed pose via direct call
    pose = PlatformPose(geom.center_x, 0.0, 900.0, 0.0)
    bad = replace(geom, L2=80.0)
    with pytest.raises(NegativeRadicandError, match="II"):
        joints_from_pose(bad, pose, ConfigurationIndices(-1, -1, -1))


def test_solved_pose_rejects_inconsistent_alpha(geom):
    with pytest.raises(InconsistentPoseError):
        PlatformPose.solved(geom, *POINT, 0.5)


@pytest.mark.parametrize("pose", [(math.nan, 0.0, 900.0, 0.3), (*POINT, math.nan)],
                         ids=["x-nan", "alpha-nan"])
def test_solved_pose_rejects_nan(geom, pose):
    # a NaN residual fails the coupling bound, as in enumerate_fk
    with pytest.raises(InconsistentPoseError):
        PlatformPose.solved(geom, *pose)


def test_allowed_s1_table(geom):
    z = 900.0
    # axis-aligned orientations leave both branches open
    assert allowed_s1(geom, PlatformPose(geom.center_x, 0.0, z, 0.0)) == frozenset((-1, 1))
    assert allowed_s1(geom, PlatformPose(geom.center_x, 0.0, z, math.pi)) == frozenset((-1, 1))
    # generic pose: the admissible sign is the one whose joints close leg I;
    # verified against the sign identity evaluated both ways
    for x, y, zz in region_points(np.random.default_rng(8), 10):
        for alpha in orientation_candidates(geom, x, y):
            if abs(math.sin(alpha)) < 1e-9 or abs(y) < 1e-9:
                continue
            pose = PlatformPose.solved(geom, x, y, zz, alpha)
            allowed = allowed_s1(geom, pose)
            assert allowed is not RHO1_PINNED
            (sign,) = allowed
            c, s = math.cos(alpha), math.sin(alpha)
            expected = (math.copysign(1.0, y)
                        * math.copysign(1.0, geom.R1 * c - geom.r1)
                        * math.copysign(1.0, s))
            assert sign == expected
            joints = joints_from_pose(geom, pose, ConfigurationIndices(int(sign), -1, -1))
            # identity: y (R1 cos a - r1) = R1 sin a (rho1 - z)
            lhs = y * (geom.R1 * c - geom.r1)
            rhs = geom.R1 * s * (joints.rho1 - zz)
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-6)


# ---------------------------------------------------------------------------
# full enumeration vs brute force

def test_enumeration_matches_brute_force(geom):
    rng = np.random.default_rng(9)
    pts = region_points(rng, 8)
    pts.append((geom.center_x + 400.0, 0.0, 900.0))   # y = 0 with 4 orientations
    pts.append((geom.center_x, 0.0, 900.0))           # y = 0 axis centre
    for x, y, z in pts:
        expected = brute_force_ik(geom, x, y, z)
        got = sorted((s.alpha, *s.joints.as_tuple()) for s in enumerate_ik(geom, x, y, z))
        assert len(got) == len(expected), (x, y, z)
        for g, e in zip(got, expected):
            assert g == pytest.approx(e, abs=1e-6)


def test_sixteen_branches_in_region(geom):
    for x, y, z in region_points(np.random.default_rng(10), 20):
        assert len(enumerate_ik(geom, x, y, z)) == 16


def test_never_more_than_sixteen(geom):
    rng = np.random.default_rng(11)
    for _ in range(40):
        x = rng.uniform(-900.0, 400.0)
        y = rng.uniform(-500.0, 500.0)
        z = rng.uniform(0.0, 1500.0)
        assert len(enumerate_ik(geom, x, y, z)) <= 16


def test_out_of_workspace_empty(geom):
    assert enumerate_ik(geom, 5000.0, 0.0, 900.0) == []


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("k, name", [(0, "x_p"), (1, "y_p"), (2, "z_p")])
def test_non_finite_ik_input_is_one_value_error(geom, k, name, value):
    # a NaN z_p used to give [] (every residual NaN), a NaN x_p or y_p
    # "non-finite coefficient", naming no input
    point = list(POINT)
    point[k] = value
    for args in (point, [np.float64(v) for v in point]):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
            enumerate_ik(geom, *args)


@pytest.mark.parametrize("call, args", [
    (enumerate_ik, (1e153, 0.0, 900.0)),
    (coupling_cubic, (1e153, 0.0)),
    (orientation_candidates, (-250.0, 1e154)),
    (enumerate_ik, (1e200, 60.0, 900.0)),
    (coupling_cubic, (-250.0, 1e200)),
], ids=["enumerate_ik", "coupling_cubic", "orientation_candidates",
        "enumerate_ik-power", "coupling_cubic-power"])
def test_coupling_cubic_overflow_names_its_stage(geom, call, args):
    # finite inputs whose squares are in float range but whose cubic
    # coefficients are not, or whose squares are not (1e200, where the float
    # power raises): an OverflowError naming the stage, as the tilt
    # polynomial and the octic raise, not Polynomial's "non-finite
    # coefficient" or the power's bare errno tuple
    with pytest.raises(OverflowError, match="^coupling cubic: coefficients out of float range$"):
        call(geom, *args)


@pytest.mark.parametrize("k, name", [(0, "x_p"), (1, "y_p")])
def test_non_finite_coupling_cubic_input_is_one_value_error(geom, k, name):
    point = [-250.0, 60.0]
    point[k] = math.nan
    with pytest.raises(ValueError, match=f"^{name} must be finite, got nan$"):
        coupling_cubic(geom, *point)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("k, name", [(0, "x_p"), (1, "y_p"), (2, "z_p")])
def test_non_finite_pose_coordinate_is_one_value_error(geom, k, name, value):
    # joints_from_pose returned NaN sliders for a NaN x_p, and gave a
    # SignRuleViolation for an infinite y_p, where the input is at fault
    point = list(POINT)
    point[k] = value
    with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
        joints_from_pose(geom, PlatformPose(*point, 0.3), ConfigurationIndices(-1, -1, -1))


def test_solution_invariants(geom):
    # every branch: the residual bound, the sign identity, and the joints
    # joints_from_pose gives for its pose and signs, bit for bit, since one
    # slider helper serves both; an orientation without branches has a leg
    # that cannot close, and joints_from_pose names the first such leg
    rng = np.random.default_rng(12)
    points = region_points(rng, 6) + locus_points(geom, rng)
    # the arc of the alpha = 0.3 ellipse past the points where leg III
    # (y > 0) and leg II (y < 0) graze
    points += [(*iso_ellipse(geom, 0.3).point(phi), 900.0) for phi in np.linspace(2.9, 3.4, 11)]
    legs_open = set()
    for x, y, z in points:
        sols = enumerate_ik(geom, x, y, z)
        for sol in sols:
            assert sol.residual_norm <= 1e-8 * geom.residual_scale
            # sign identity on every branch with sin(alpha) != 0
            c, s = math.cos(sol.alpha), math.sin(sol.alpha)
            if abs(s) > 1e-9:
                lhs = y * (geom.R1 * c - geom.r1)
                rhs = geom.R1 * s * (sol.joints.rho1 - z)
                assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-6)
            pose = PlatformPose.solved(geom, x, y, z, sol.alpha)
            assert joints_from_pose(geom, pose, sol.indices) == sol.joints
        for alpha in set(orientation_candidates(geom, x, y)) - {sol.alpha for sol in sols}:
            legs = legs_that_cannot_close(geom, x, y, z, alpha)
            assert legs, (x, y, z, alpha)
            pose = PlatformPose.solved(geom, x, y, z, alpha)
            allowed = allowed_s1(geom, pose)
            s1 = -1 if allowed is RHO1_PINNED else min(allowed)
            with pytest.raises(NegativeRadicandError) as exc:
                joints_from_pose(geom, pose, ConfigurationIndices(s1, -1, -1))
            assert exc.value.leg == legs[0]
            legs_open.add(legs[0])
    assert legs_open == {"I", "II", "III"}


def assert_branches_exact(geom, point, sols):
    """Each branch's residual is the four-constraint max of its own joints,
    bit for bit, and its limit flag the slider-range test of its joints."""
    for sol in sols:
        res = constraint_residuals(geom, *point, sol.alpha, *sol.joints.as_tuple())
        assert sol.residual_norm == max(abs(r) for r in res)
        assert sol.within_limits == all(geom.rho_min <= v <= geom.rho_max
                                        for v in sol.joints.as_tuple())


def test_branch_residuals_per_leg_are_exact(geom):
    # a branch's residual is assembled from per-leg values, one constraint
    # evaluation per leg and slider sign
    axis_eight = pinned = 0
    for x, y, z in locus_points(geom, np.random.default_rng(41)):
        sols = enumerate_ik(geom, x, y, z)
        assert_branches_exact(geom, (x, y, z), sols)
        axis_eight += sum(sum(s.alpha == a for s in sols) == 8 for a in (0.0, math.pi))
        pinned += sum(s.joints.rho1 == z for s in sols)
    assert axis_eight >= 16 and pinned >= 24


def test_branch_limit_flags_per_leg(geom):
    # a slider limit between two branches of one point: mixed flags
    tops = sorted({max(s.joints.as_tuple()) for s in enumerate_ik(geom, *POINT)})
    tight = replace(geom, rho_max=0.5 * (tops[len(tops) // 2 - 1] + tops[len(tops) // 2]))
    sols = enumerate_ik(tight, *POINT)
    assert {s.within_limits for s in sols} == {True, False}
    assert_branches_exact(tight, POINT, sols)


def test_no_two_branches_coincide(geom):
    # every branch differs from every other by more than DEDUP_TOL in its
    # orientation or one slider; where both leg-I signs are allowed and
    # give rho1 = z_p, the s1 = -1 copy stands for both: off the axis where
    # the sign rule pins rho1, on it where leg I grazes (locus_points has
    # the y = 0 points where it does, at alpha = 0 or pi)
    rng = np.random.default_rng(44)
    points = [p for seed in range(8) for p in locus_points(geom, np.random.default_rng(seed))]
    points += [(rng.uniform(-900.0, 500.0), rng.uniform(-500.0, 500.0), rng.uniform(600.0, 1200.0))
               for _ in range(300)]
    pinned = grazing = 0
    for x, y, z in points:
        sols = enumerate_ik(geom, x, y, z)
        assert_distinct([(s.alpha, *s.joints.as_tuple()) for s in sols], DEDUP_TOL)
        for alpha in {s.alpha for s in sols}:
            allowed = allowed_s1(geom, PlatformPose(x, y, z, alpha))
            s1 = {s.indices.s1 for s in sols if s.alpha == alpha}
            if allowed is RHO1_PINNED:
                assert s1 == {-1}
                pinned += 1
            elif allowed == {-1, 1} and s1 == {-1}:
                grazing += 1
    assert pinned >= 200 and grazing >= 24


def test_branches_come_sorted_by_orientation_then_signs(geom):
    # the CLI prints the rows in the order enumerate_ik returns them
    points = [p for seed in range(8) for p in locus_points(geom, np.random.default_rng(seed))]
    points += region_points(np.random.default_rng(47), 300)
    branches = 0
    for x, y, z in points:
        keys = [(s.alpha, s.indices.as_tuple()) for s in enumerate_ik(geom, x, y, z)]
        assert all(a < b for a, b in zip(keys, keys[1:])), (x, y, z)
        branches += len(keys)
    assert branches >= 12000


@pytest.mark.parametrize("leg", ["II", "III"])
def test_grazing_leg_gives_its_minus_branch_once(geom, leg):
    # the grazing leg's radicand clamps to 0: its s = +1 slider is its
    # s = -1 slider, and only the s = -1 branch is returned
    x, y, z = grazing_point(geom, leg)
    sols = [s for s in enumerate_ik(geom, x, y, z) if abs(s.alpha - 0.3) <= 1e-9]
    k = 1 if leg == "II" else 2
    assert len(sols) == 2 and {s.indices.as_tuple()[k] for s in sols} == {-1}
    assert len({s.indices.as_tuple()[3 - k] for s in sols}) == 2
    for sol in sols:
        pose = PlatformPose(x, y, z, sol.alpha)
        signs = list(sol.indices.as_tuple())
        assert joints_from_pose(geom, pose, sol.indices) == sol.joints
        signs[k] = 1
        assert joints_from_pose(geom, pose, ConfigurationIndices(*signs)) == sol.joints


@pytest.mark.parametrize("point", [POINT, (-250.0, -60.0, 1100.0), (1e200, 0.0, 900.0),
                                   (-250.0, 1e200, 900.0)])
def test_numpy_scalar_inputs_match_python_floats(geom, point):
    # sliders come out as Python floats, and overflow raises OverflowError
    # without a numpy warning first (Tier-1 turns RuntimeWarning into an error)
    def outcome(func, *args):
        try:
            return repr(func(geom, *args))
        except Exception as exc:  # noqa: BLE001 - the exception type is compared
            return type(exc)

    scalars = tuple(np.float64(v) for v in point)
    for func, n in ((enumerate_ik, 3), (orientation_candidates, 2)):
        expected = outcome(func, *point[:n])
        assert outcome(func, *scalars[:n]) == expected
        assert outcome(func, *np.array(point)[:n]) == expected
        assert expected is OverflowError or "np." not in expected


# ---------------------------------------------------------------------------
# working-solution selection

def test_working_solution_unique_in_region(geom):
    for x, y, z in region_points(np.random.default_rng(13), 15):
        sols = enumerate_ik(geom, x, y, z)
        working = select_working_solution(sols, geom)
        assert working is not None
        assert working.indices.as_tuple() == (-1, -1, -1)
        assert geom.R1 * math.cos(working.alpha) > geom.r1
        # brute-force filter agreement
        manual = [s for s in sols if s.indices.as_tuple() == (-1, -1, -1)
                  and geom.R1 * math.cos(s.alpha) > geom.r1 and s.within_limits]
        assert manual == [working]


def test_rod_crossing_branch_excluded(geom):
    # the large-|alpha| branch also carries all-minus signs but fails the
    # trapezium condition; it must not be selected
    sols = enumerate_ik(geom, *POINT)
    all_minus = [s for s in sols if s.indices.as_tuple() == (-1, -1, -1)]
    assert len(all_minus) == 2
    crossing = [s for s in all_minus if geom.R1 * math.cos(s.alpha) <= geom.r1]
    assert len(crossing) == 1
    working = select_working_solution(sols, geom)
    assert working.alpha != crossing[0].alpha


def test_all_branches_out_of_limits_gives_none(geom):
    tight = replace(geom, rho_min=0.0, rho_max=1.0)
    sols = enumerate_ik(tight, *POINT)
    assert sols and select_working_solution(sols, tight) is None


def test_selection_permutation_invariant(geom):
    sols = enumerate_ik(geom, *POINT)
    working = select_working_solution(sols, geom)
    assert select_working_solution(list(reversed(sols)), geom) == working


def test_selection_reports_ambiguity(geom):
    sols = enumerate_ik(geom, *POINT)
    working = select_working_solution(sols, geom)
    with pytest.raises(AmbiguousSelectionError):
        select_working_solution([working, working], geom)


# ---------------------------------------------------------------------------
# properties

coords = st.tuples(st.floats(min_value=-330.0, max_value=-170.0),
                   st.floats(min_value=-150.0, max_value=150.0),
                   st.floats(min_value=700.0, max_value=1100.0))


@settings(max_examples=40, deadline=None)
@given(pt=coords)
def test_property_branch_bound_and_residuals(pt):
    geom = __import__("pkmkin").DEFAULT_SYNTHETIC
    sols = enumerate_ik(geom, *pt)
    assert len(sols) <= 16
    for sol in sols:
        res = raw_residuals(geom, pt[0], pt[1], pt[2], sol.alpha,
                            *sol.joints.as_tuple())
        assert max(abs(r) for r in res) <= 1e-8 * geom.residual_scale


@settings(max_examples=40, deadline=None)
@given(pt=coords)
def test_property_candidates_closed_under_negation(pt):
    geom = __import__("pkmkin").DEFAULT_SYNTHETIC
    cands = orientation_candidates(geom, pt[0], pt[1])
    assert len(cands) <= 4
    for a in cands:
        assert any(abs(wrap_angle(-a) - b) <= 1e-9 for b in cands)
