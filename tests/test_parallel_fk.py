import math
from dataclasses import replace

import numpy as np
import pytest

from pkmkin import (CoincidentOffsetError, DegenerateDenominatorError,
                    DegenerateOrientationError, InterpolationError,
                    ParallelJoints, enumerate_fk, enumerate_ik, newton_fk,
                    octic_from_joints, select_assembly_mode,
                    select_working_solution, serialize_geometry, xp_from,
                    yp_from, zp_from)
from pkmkin import parallel_fk
from pkmkin.cli import main
from pkmkin.parallel_fk import AssemblyMode
from pkmkin.parallel_ik import ConfigurationIndices, PlatformPose

from conftest import (angle_delta, raw_residuals, region_points,
                      use_numpy_polynomial)


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


def test_octic_and_modes_match_numpy_polynomial(geom, monkeypatch):
    rng = np.random.default_rng(31)
    rho = rng.uniform(-200.0, 1500.0, size=(40, 3))
    rho[::2, 2] = rho[::2, 1]
    cases = [(geom, ParallelJoints(*map(float, r))) for r in rho]
    cases += [(geom, working_joints(geom, x, y, z).joints) for x, y, z in region_points(rng, 10)]
    cases += [(geom, symmetric_joints(geom, -250.0, 900.0)),
              (replace(geom, R1=240.0, R2=240.0, r1=120.0, r4=120.0),
               ParallelJoints(500.0, 400.0, 400.0))]

    def outputs():
        # fresh instances, so that each run compiles its own octic matrix
        fresh = {g: replace(g) for g, _ in cases}
        out = []
        for g, joints in cases:
            try:
                octic = octic_from_joints(fresh[g], joints).coeffs
            except InterpolationError as exc:
                octic = repr(exc)
            out.append((octic, enumerate_fk(fresh[g], joints)))
        return out

    ours = outputs()
    assert any(isinstance(octic, str) for octic, _ in ours)
    use_numpy_polynomial(monkeypatch, parallel_fk)
    reference = outputs()
    assert reference == ours
    # repr tells -0.0 from 0.0
    assert repr(reference) == repr(ours)


def exact_octic(geom, h):
    """The deflated octic in (t, v1, v2) in exact rational arithmetic,
    straight from the elimination chain: {(k, e1, e2): coefficient}."""
    sp = pytest.importorskip("sympy")
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
    assert octic.denom == 1
    terms = octic.numer.terms()
    assert all(e[3] == 0 for e, _ in terms)
    return {e[:3]: float(coeff) for e, coeff in terms}


@pytest.mark.parametrize("dims", [{}, {"L2": 560.0, "L3": 480.0}])
def test_compiled_octic_matches_exact_compile(geom, dims):
    g = replace(geom, **dims)
    h, matrix, _ = g.compiled_octic
    exact = np.zeros_like(matrix)
    column = {tuple(e): j for j, e in enumerate(parallel_fk._MONOMIALS.T.tolist())}
    for (k, *e), value in exact_octic(g, h).items():
        exact[k, column[tuple(e)]] = value
    assert h == 1024.0 and matrix.shape == (9, 28)
    for k in range(9):
        assert np.max(np.abs(matrix[k] - exact[k])) <= 1e-13 * np.max(np.abs(exact[k])), k


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


@pytest.mark.parametrize("dims", [{}, {"L2": 560.0, "L3": 480.0}])
def test_octic_certified_for_any_common_slider_offset(geom, dims):
    # the compiled octic depends on the slider differences only, so a common
    # offset costs no accuracy: with |rho1 - rho2|, |rho3 - rho2| up to 32 h
    # and any common offset up to 1e6 mm, every triple passes the probe
    # certificate; sliders on a 2^-20 mm grid shift exactly, and then give
    # the same octic bit for bit
    g = replace(geom, **dims)
    h = g.compiled_octic[0]
    rng = np.random.default_rng(31)
    for i in range(300):
        rho = np.round(rng.uniform(-16.0 * h, 16.0 * h, 3) * 2.0**20) / 2.0**20
        if i % 4 == 3:
            rho[2] = rho[1]
        offset = float(rng.integers(-10**6, 10**6))
        here = octic_from_joints(g, ParallelJoints(*map(float, rho)))
        assert octic_from_joints(g, ParallelJoints(*map(float, rho + offset))) == here


def test_octic_certificate_catches_a_perturbed_matrix(geom, monkeypatch):
    g = replace(geom)
    sol = working_joints(g, -250.0, 60.0, 900.0)
    octic_from_joints(g, sol.joints)
    h, matrix, factor = g.compiled_octic
    perturbed = matrix.copy()
    k, j = np.unravel_index(np.argmax(np.abs(matrix)), matrix.shape)
    perturbed[k, j] *= 1.0 + 1e-6
    monkeypatch.setitem(g.__dict__, "compiled_octic", (h, perturbed, factor))
    with pytest.raises(InterpolationError):
        octic_from_joints(g, sol.joints)


def test_fk_surfaces_a_failed_certificate(geom, monkeypatch, tmp_path, capsys):
    # an octic that lost its accuracy is an error, not "no assembly"
    compile_octic = parallel_fk.compile_octic

    def perturbed(g):
        h, matrix, factor = compile_octic(g)
        matrix = matrix.copy()
        matrix[np.unravel_index(np.argmax(np.abs(matrix)), matrix.shape)] *= 1.0 + 1e-6
        return h, matrix, factor

    monkeypatch.setattr(parallel_fk, "compile_octic", perturbed)
    joints = working_joints(geom, -250.0, 60.0, 900.0).joints
    # a fresh instance compiles the perturbed matrix, as the CLI's does
    with pytest.raises(InterpolationError):
        enumerate_fk(replace(geom), joints)
    path = tmp_path / "machine.cfg"
    path.write_text(serialize_geometry(geom))
    assert main(["fk", str(path), "--", *map(repr, joints.as_tuple())]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("pkmkin: ")


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


def test_fk_unassemblable_joints_empty(geom):
    assert enumerate_fk(geom, ParallelJoints(2000.0, -1900.0, 200.0)) == []


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
    from pkmkin import joints_from_pose
    joints = joints_from_pose(geom, pose, ConfigurationIndices(-1, -1, -1))
    modes = enumerate_fk(geom, joints)
    assert any(abs(m.pose.x_p - x) <= 1e-5 and abs(m.pose.alpha - alpha) <= 1e-7
               for m in modes), [(m.pose.x_p, m.pose.alpha) for m in modes]
