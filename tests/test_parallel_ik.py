import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pkmkin import (AmbiguousSelectionError, ConfigurationIndices,
                    DegenerateOrientationError, InconsistentPoseError,
                    NegativeRadicandError, PlatformPose, SignRuleViolation,
                    UnreachableOrientationError, allowed_s1, coupling_cubic,
                    enumerate_ik, iso_ellipse, joints_from_pose,
                    orientation_candidates, residuals_parallel,
                    select_working_solution, wrap_angle)
from pkmkin import parallel_ik
from pkmkin.parallel_ik import (DEDUP_TOL, RHO1_PINNED, coupling_residual,
                                coupling_scale, constraint_residuals)

from conftest import (assert_distinct, brute_force_ik, grazing_point, locus_points,
                      raw_residuals, region_points)

RNG = np.random.default_rng(20240811)
POINT = (-250.0, 60.0, 900.0)


def test_wrap_angle_convention():
    assert wrap_angle(math.pi) == math.pi
    assert wrap_angle(-math.pi) == math.pi
    assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)
    assert wrap_angle(0.3) == pytest.approx(0.3)
    assert wrap_angle(-0.3 + 2 * math.pi) == pytest.approx(-0.3)


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


def test_solution_invariants(geom):
    for x, y, z in region_points(np.random.default_rng(12), 6):
        for sol in enumerate_ik(geom, x, y, z):
            assert sol.residual_norm <= 1e-8 * geom.residual_scale
            # sign identity on every branch with sin(alpha) != 0
            c, s = math.cos(sol.alpha), math.sin(sol.alpha)
            if abs(s) > 1e-9:
                lhs = y * (geom.R1 * c - geom.r1)
                rhs = geom.R1 * s * (sol.joints.rho1 - z)
                assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-6)
            # joints reproducible from (pose, indices)
            pose = PlatformPose.solved(geom, x, y, z, sol.alpha)
            joints = joints_from_pose(geom, pose, sol.indices)
            assert joints.rho1 == pytest.approx(sol.joints.rho1, abs=1e-9)
            assert joints.rho2 == pytest.approx(sol.joints.rho2, abs=1e-9)
            assert joints.rho3 == pytest.approx(sol.joints.rho3, abs=1e-9)


def assert_branches_exact(geom, point, sols):
    """Each branch's residual is the four-constraint max of its own joints,
    bit for bit, and its limit flag the slider-range test of its joints."""
    for sol in sols:
        res = constraint_residuals(geom, *point, sol.alpha, *sol.joints.as_tuple())
        assert sol.residual_norm == max(abs(r) for r in res)
        assert sol.within_limits == geom.rho_within_limits(sol.joints.as_tuple())


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
    # give rho1 = z_p, the s1 = -1 copy stands for both
    rng = np.random.default_rng(44)
    points = [p for seed in range(8) for p in locus_points(geom, np.random.default_rng(seed))]
    points += [(rng.uniform(-900.0, 500.0), rng.uniform(-500.0, 500.0), rng.uniform(600.0, 1200.0))
               for _ in range(300)]
    pinned = 0
    for x, y, z in points:
        sols = enumerate_ik(geom, x, y, z)
        assert_distinct([(s.alpha, *s.joints.as_tuple()) for s in sols], DEDUP_TOL)
        for alpha in {s.alpha for s in sols}:
            if allowed_s1(geom, PlatformPose(x, y, z, alpha)) is RHO1_PINNED:
                assert {s.indices.s1 for s in sols if s.alpha == alpha} == {-1}
                pinned += 1
    assert pinned >= 200


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
