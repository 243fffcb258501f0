import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from pkmkin import (DEFAULT_SYNTHETIC, ParallelJoints, Polynomial, PlatformPose,
                    coupling_cubic, enumerate_ik, octic_from_joints,
                    orientation_candidates, parallel_fk, real_roots,
                    real_roots_in_unit_interval, rootfind, select_working_solution,
                    tilt_polynomial, tool_pose_from_platform)
from pkmkin.rootfind import CLUSTER_REL_TOL, _horner, _horner_slope, _polish

from conftest import locus_points, region_points


def poly_from_roots(roots):
    """Coefficient convolution oracle: expand prod (x - r)."""
    coeffs = np.array([1.0])
    for r in roots:
        coeffs = np.convolve(coeffs, np.array([-r, 1.0]))
    return coeffs.tolist()


def test_simple_cubic():
    p = Polynomial(poly_from_roots([1.0, 2.0, 3.0]))
    assert p.coeffs == (-6.0, 11.0, -6.0, 1.0)
    assert real_roots(p) == pytest.approx([1.0, 2.0, 3.0], abs=1e-10)


@pytest.mark.parametrize("roots", [[-2.0, 0.5, 4.0], [-3.0, -1.0, 1.5, 2.5, 6.0]],
                         ids=["closed-form", "eigenvalues"])
def test_window_keeps_the_roots_inside_it_bit_for_bit(roots):
    p = Polynomial(poly_from_roots(roots))
    every = real_roots(p)
    assert real_roots(p, -1.0, 3.0) == [r for r in every if -1.0 <= r <= 3.0]
    assert real_roots(p, hi=0.0) == [r for r in every if r <= 0.0]
    assert real_roots(p, 7.0, 9.0) == []


def test_no_real_roots():
    assert real_roots(Polynomial((1.0, 0.0, 1.0))) == []


def test_degree_eight_sevenths_grid():
    roots = [k / 7.0 for k in range(8)]
    found = real_roots(Polynomial(poly_from_roots(roots)))
    assert len(found) == 8
    assert found == pytest.approx(roots, abs=1e-8)
    assert all(type(r) is float for r in found)


def test_unit_interval_filter():
    p = Polynomial(poly_from_roots([0.5, 2.0, -3.0]))
    assert real_roots_in_unit_interval(p) == pytest.approx([0.5], abs=1e-10)


def test_unit_interval_keeps_endpoints():
    p = Polynomial(poly_from_roots([1.0, 0.25, -0.25]))
    assert real_roots_in_unit_interval(p) == pytest.approx([-0.25, 0.25, 1.0], abs=1e-10)


def test_root_just_outside_one_clamped():
    # perturbed cubic whose largest root lies 5e-10 beyond +1
    r = 1.0 + 5e-10
    p = Polynomial(poly_from_roots([r, 0.3, -2.0]))
    out = real_roots_in_unit_interval(p)
    assert out[-1] == 1.0
    assert out == pytest.approx([0.3, 1.0], abs=1e-9)


def test_multiplicity_collapsed():
    p = Polynomial(poly_from_roots([2.0, 2.0, -1.0]))
    found = real_roots(p)
    assert len(found) == 2
    assert found == pytest.approx([-1.0, 2.0], abs=1e-6)


def test_degree_zero_rejected():
    # the all-zero polynomial trims to one zero coefficient
    for coeffs in ((3.0,), (0.0, 0.0, 0.0)):
        with pytest.raises(ValueError):
            real_roots(Polynomial(coeffs))


def test_non_finite_coefficient_rejected():
    with pytest.raises(ValueError):
        Polynomial((1.0, math.nan))
    with pytest.raises(ValueError):
        Polynomial((1.0, math.inf, 2.0))


def test_degree_cap():
    with pytest.raises(ValueError):
        Polynomial([1.0] * 14)


def test_coefficients_are_python_floats():
    for coeffs in ([1, -2, 3], (1, -2, 3), np.array([1.0, -2.0, 3.0]),
                   np.array([1, -2, 3], dtype=np.int32)):
        p = Polynomial(coeffs)
        assert p.coeffs == (1.0, -2.0, 3.0)
        assert all(type(c) is float for c in p.coeffs)
    for bad in ([], (), np.zeros(0), [[1.0, 2.0]], np.ones((2, 2))):
        with pytest.raises(ValueError):
            Polynomial(bad)


def test_trailing_trim():
    p = Polynomial((2.0, 1.0, 1e-15))
    assert p.degree == 1
    assert real_roots(p) == pytest.approx([-2.0])


def test_close_roots_merged():
    p = Polynomial(poly_from_roots([1.0, 1.0 + 5e-10]))
    assert len(real_roots(p)) == 1


well_separated = st.lists(
    st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
    min_size=1, max_size=8,
).filter(lambda rs: all(abs(a - b) > 1e-3
                        for i, a in enumerate(rs) for b in rs[:i]))


@settings(max_examples=120, deadline=None)
@given(roots=well_separated,
       scale=st.floats(min_value=1e-6, max_value=1e6, allow_nan=False))
def test_recovers_constructed_roots(roots, scale):
    coeffs = [scale * c for c in poly_from_roots(roots)]
    p = Polynomial(coeffs)
    found = real_roots(p)
    assert len(found) <= p.degree
    for r in sorted(roots):
        assert any(abs(r - f) <= 1e-6 * (1.0 + abs(r)) for f in found)
    cmax = max(abs(c) for c in p.coeffs)
    for f in found:
        assert abs(p(f)) <= 1e-10 * cmax * max(1.0, abs(f)) ** p.degree


@settings(max_examples=60, deadline=None)
@given(roots=well_separated,
       scale=st.floats(min_value=1e-8, max_value=1e8, allow_nan=False))
def test_scaling_invariance(roots, scale):
    base = poly_from_roots(roots)
    a = real_roots(Polynomial(base))
    b = real_roots(Polynomial([scale * c for c in base]))
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert abs(x - y) <= 1e-9 * (1.0 + abs(x))


# ---------------------------------------------------------------------------
# real-root counts certified by Sturm sequences in exact arithmetic

def sturm_count(sp, poly):
    """Distinct real roots of poly: sign changes of its Sturm sequence at
    -inf minus those at +inf."""
    def changes(signs):
        signs = [v for v in signs if v != 0]
        return sum(a != b for a, b in zip(signs, signs[1:]))
    seq = sp.sturm(poly)
    return (changes([sp.sign(q.LC()) * (-1) ** q.degree() for q in seq])
            - changes([sp.sign(q.LC()) for q in seq]))


def has_root_cluster(poly, coeffs):
    """Whether two distinct exact roots lie within the root-cluster width.
    Float roots screen for candidate pairs (their error, about sqrt(eps) on
    a cluster, is far below the 1e-4 screen); 30-digit roots of the
    square-free part decide (an exact multiple root, such as the coupling
    cubic's double root cos(alpha) = 1 where leg I grazes on y_p = 0, is
    one root, and its 30-digit iteration would not converge)."""
    def close(roots, tol):
        return any(abs(a - b) <= tol * (1.0 + abs(a))
                   for i, a in enumerate(roots) for b in roots[:i])
    return (close(np.roots(coeffs[::-1]).tolist(), 1e-4)
            and close([complex(r) for r in poly.sqf_part().nroots(n=30)], CLUSTER_REL_TOL))


def characteristic_polynomials():
    """200 coupling cubics (the IK loci and region points) and 200 tilt
    sextics (acceptance-3 tool poses) of the synthetic geometry."""
    geom = DEFAULT_SYNTHETIC
    rng = np.random.default_rng(61)
    points = locus_points(geom, rng)
    points += region_points(rng, 200 - len(points))
    polys = [coupling_cubic(geom, x, y) for x, y, _ in points]
    for x, y, z in region_points(rng, 200):
        sol = select_working_solution(enumerate_ik(geom, x, y, z), geom)
        tool = tool_pose_from_platform(geom, PlatformPose.solved(geom, x, y, z, sol.alpha),
                                       rng.uniform(-0.9, 0.9),
                                       rng.uniform(-math.pi + 0.05, math.pi - 0.05))
        polys.append(tilt_polynomial(geom, tool))
    return polys


def test_real_root_counts_match_sturm():
    # the companion filter (IMAG_REL_TOL) and the merge rules must neither
    # drop nor invent a root on the characteristic polynomials
    sp = pytest.importorskip("sympy")
    x = sp.Symbol("x")
    polys = characteristic_polynomials()
    assert [p.degree for p in polys] == [3] * 200 + [6] * 200
    skipped = 0
    for p in polys:
        exact = sp.Poly([sp.Rational(c) for c in reversed(p.coeffs)], x, domain="QQ")
        if has_root_cluster(exact, p.coeffs):
            skipped += 1
            continue
        assert len(real_roots(p)) == sturm_count(sp, exact), p.coeffs
    assert skipped < 0.05 * len(polys)


def test_octic_real_root_counts_match_sturm():
    # FK octics off the rho2 = rho3 plane, and on it, where t = 0 is an
    # exact double root: there both real_roots and the closed form that
    # enumerate_fk takes must count every distinct real root
    sp = pytest.importorskip("sympy")
    x = sp.Symbol("x")
    rng = np.random.default_rng(67)
    skipped = 0
    for rho in rng.uniform(-200.0, 1500.0, size=(200, 3)):
        p = octic_from_joints(DEFAULT_SYNTHETIC, ParallelJoints(*map(float, rho)))
        assert p.degree == 8
        exact = sp.Poly([sp.Rational(c) for c in reversed(p.coeffs)], x, domain="QQ")
        if has_root_cluster(exact, p.coeffs):
            skipped += 1
            continue
        assert len(real_roots(p)) == sturm_count(sp, exact), rho
    assert skipped < 0.05 * 200
    skipped = 0
    for rho1, rho2 in rng.uniform(-200.0, 1500.0, size=(200, 2)).tolist():
        p = octic_from_joints(DEFAULT_SYNTHETIC, ParallelJoints(rho1, rho2, rho2))
        assert p.degree == 6 and p.coeffs[0] == p.coeffs[1] == 0.0
        exact = sp.Poly([sp.Rational(c) for c in reversed(p.coeffs)], x, domain="QQ")
        # the cluster screen looks at the roots besides the double t = 0
        if has_root_cluster(exact.quo(sp.Poly(x**2, x)), p.coeffs[2:]):
            skipped += 1
            continue
        roots, closed = real_roots(p), parallel_fk._even_roots(p.coeffs)
        assert len(roots) == len(closed) == sturm_count(sp, exact), (rho1, rho2)
        assert 0.0 in roots and 0.0 in closed
        assert all(abs(a - b) <= 1e-15 * (1.0 + abs(a)) for a, b in zip(roots, closed))
    assert skipped < 0.05 * 200


# ---------------------------------------------------------------------------
# coefficient kernel: the sum's padding and signed zeros; Horner has
# numpy.polynomial's bits

def same_bits(a, b):
    """Equal length and equal float64 bits (so -0.0 differs from 0.0)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def kernel_operands():
    """Trailing exact zeros of both signs, -0.0 inside, length-1 arrays,
    and seeded random arrays of 1-17 terms."""
    fixed = [[0.0], [-0.0], [3.5], [0.0, 0.0], [2.0, -0.0], [1.0, 0.0, 0.0],
             [-0.0, 1.5, -0.0], [0.0, 4.0, -0.0], [1.0, 0.0, 1.0],
             [180.0, 0.0, -420.0], [1.0, 0.0, 2.0, 0.0, 1.0], [0.0, -2.5, 0.0, 7.0]]
    rng = np.random.default_rng(23)
    randoms = [rng.normal(size=n) * 10.0 ** rng.integers(-3, 6) for n in range(1, 18)]
    for r in randoms[::3]:
        r[-1] = 0.0
    return [np.array(c, dtype=float) for c in fixed] + randoms


def test_kernel_horner_matches_polyval():
    for c in kernel_operands():
        for x in (0.0, -0.0, 0.3317, -1.2113, 4.17, -250.0):
            assert same_bits(_horner(c.tolist(), x), npoly.polyval(x, c)), (c, x)


# ---------------------------------------------------------------------------
# eigenvalue step: numpy.linalg.eigvals is the reference, bit for bit

def eigenvalue_inputs():
    """Seeded random polynomials of every degree 1-12, and coupling cubics,
    tilt sextics and FK octics (rho3 = rho2 on every other triple) of the
    synthetic geometry."""
    geom = DEFAULT_SYNTHETIC
    rng = np.random.default_rng(71)
    polys = [Polynomial(rng.normal(size=n + 1) * 10.0 ** rng.integers(-3, 6))
             for n in range(1, 13) for _ in range(5)]
    polys += [Polynomial(poly_from_roots(rng.uniform(-3.0, 3.0, size=n))) for n in range(1, 13)]
    for x, y, z in region_points(rng, 10):
        polys.append(coupling_cubic(geom, x, y))
        sol = select_working_solution(enumerate_ik(geom, x, y, z), geom)
        tool = tool_pose_from_platform(geom, PlatformPose.solved(geom, x, y, z, sol.alpha),
                                       rng.uniform(-0.9, 0.9),
                                       rng.uniform(-math.pi + 0.05, math.pi - 0.05))
        polys.append(tilt_polynomial(geom, tool))
    for k, rho in enumerate(rng.uniform(-200.0, 1500.0, size=(10, 3))):
        if k % 2:
            rho[2] = rho[1]
        polys.append(octic_from_joints(geom, ParallelJoints(*map(float, rho))))
    return polys


def test_eigenvalue_call_matches_numpy_linalg_eigvals(monkeypatch):
    # real_roots calls the LAPACK gufunc behind numpy.linalg.eigvals without
    # the wrapper, from degree 4 up; a numpy whose private gufunc differs
    # fails here.  Degrees 1-3 (the coupling cubics among them) never call it
    seen = []

    def recording(comp, signature):
        w = eigvals(comp, signature=signature)
        seen.append((comp.copy(), w))
        return w

    polys = eigenvalue_inputs()
    eigvals = rootfind._eigvals
    monkeypatch.setattr(rootfind, "_eigvals", recording)
    for p in polys:
        if p.degree <= 3:
            real_roots(p)
    assert seen == []
    polys = [p for p in polys if p.degree >= 4]
    for p in polys:
        real_roots(p)
    assert {p.degree for p in polys} == set(range(4, 13))
    assert len(seen) == len(polys)
    for comp, w in seen:
        ref = np.linalg.eigvals(comp)
        # the wrapper's own post-processing: real when every imaginary part is 0
        got = w.real if (w.imag == 0).all() else w
        assert got.dtype == ref.dtype and same_bits(got.view(float), ref.view(float)), comp


@pytest.mark.parametrize("stub", [
    # NaN without a floating-point flag
    lambda comp, signature: np.full(len(comp), complex(math.nan, 0.0)),
    # one NaN among finite eigenvalues
    lambda comp, signature: np.append(np.zeros(len(comp) - 1, complex), complex(0.0, math.nan)),
    # LAPACK's non-convergence: NaN made under the invalid flag
    lambda comp, signature: np.zeros(len(comp), complex) * math.inf,
], ids=["all-nan", "one-nan", "invalid-flag"])
def test_eigenvalue_failure_raises_linalg_error(monkeypatch, stub):
    monkeypatch.setattr(rootfind, "_eigvals", stub)
    for p in (Polynomial(poly_from_roots([1.0, 2.0, 3.0, 4.0])),
              Polynomial((1.0, 2.0, 0.0, 0.0, 0.0, 0.0, -3.0))):
        with pytest.raises(np.linalg.LinAlgError):
            real_roots(p)
        with pytest.raises(np.linalg.LinAlgError):
            real_roots_in_unit_interval(p)
    # the coupling cubic no longer reaches LAPACK; a non-finite input still
    # raises, naming the coordinate, never gives an empty list
    with pytest.raises(ValueError, match="x_p must be finite, got nan"):
        orientation_candidates(DEFAULT_SYNTHETIC, math.nan, 60.0)


# ---------------------------------------------------------------------------
# closed form up to degree 3: numpy.roots is the reference

def test_closed_form_cubics_match_numpy_roots(monkeypatch):
    # seeded random cubics scaled 1e-3..1e6, as eigenvalue_inputs draws them;
    # none reaches the eigenvalue gufunc
    monkeypatch.setattr(rootfind, "_eigvals", None)
    rng = np.random.default_rng(79)
    real_counts = set()
    for _ in range(2000):
        p = Polynomial(rng.normal(size=4) * 10.0 ** rng.integers(-3, 6))
        assert p.degree == 3
        got = real_roots(p)
        ref = sorted(z.real for z in np.roots(p.coeffs[::-1]).tolist() if z.imag == 0.0)
        assert len(got) == len(ref), p.coeffs
        assert all(abs(a - b) <= 1e-12 * (1.0 + abs(b)) for a, b in zip(got, ref)), p.coeffs
        real_counts.add(len(got))
    assert real_counts == {1, 3}


@pytest.mark.parametrize("a, b", [(0.5, 2.0), (0.1, -3.0), (1 / 3, 1 / 7), (0.3, 5.0),
                                  (-0.7, 0.2), (7.0, -0.25), (-1.5, 1e-3)])
def test_closed_form_double_root_once(a, b):
    # Newton from next to the double root, where the value is round-off, can
    # walk away; the unpolished candidate then stands
    found = real_roots(Polynomial(poly_from_roots([a, a, b])))
    assert len(found) == 2
    assert found == pytest.approx(sorted([a, b]), rel=1e-7, abs=1e-7)


@pytest.mark.parametrize("a", [0.5, -1.5, 2.0, 0.25, -3.0, 0.0])
def test_closed_form_triple_root_once(a):
    # a dyadic: the coefficients are exact, so the float cubic has the
    # triple root.  For a = 0.1 the rounded coefficients are a cubic whose
    # roots lie eps^(1/3) apart, and real_roots may report two
    found = real_roots(Polynomial(poly_from_roots([a, a, a])))
    assert found == [a]


@pytest.mark.parametrize("imag, kept", [(1e-9, True), (1e-3, False)])
def test_closed_form_complex_pair_real_part(imag, kept):
    # (x - 3) ((x - u)^2 + imag^2): the pair's real part u is a candidate
    # exactly when imag passes IMAG_REL_TOL, as the eigenvalue filter has it
    u = 1e-3
    coeffs = poly_from_roots([3.0])
    coeffs = np.convolve(coeffs, [u * u + imag * imag, -2.0 * u, 1.0]).tolist()
    candidates = sorted(rootfind._candidates(coeffs)[1])
    assert candidates == pytest.approx([u, 3.0] if kept else [3.0], rel=1e-9)
    assert real_roots(Polynomial(coeffs)) == pytest.approx([u, 3.0] if kept else [3.0], rel=1e-9)
    # a quadratic pair takes the same filter
    assert len(rootfind._candidates((u * u + imag * imag, -2.0 * u, 1.0))[1]) == int(kept)


def test_trimmed_cubic_is_solved_as_quadratic_or_line(monkeypatch):
    monkeypatch.setattr(rootfind, "_eigvals", None)
    quadratic = Polynomial((-6.0, 1.0, 1.0, 1e-15))
    assert quadratic.degree == 2
    assert real_roots(quadratic) == pytest.approx([-3.0, 2.0], rel=1e-15)
    line = Polynomial((2.0, 1.0, 1e-14, 1e-15))
    assert line.degree == 1 and real_roots(line) == [-2.0]
    assert real_roots(Polynomial((1.0, 0.0, 1.0, 1e-13))) == []
    assert real_roots(Polynomial((0.0, 0.0, 1.0, 0.0))) == [0.0]


def test_closed_form_raises_on_non_finite_intermediates(monkeypatch):
    # trimmed coefficients keep every monic coefficient within 1e12; with the
    # trim off, a leading coefficient of 1e-320 overflows, and raises
    monkeypatch.setattr(rootfind, "TRIM_REL_TOL", 0.0)
    for coeffs in ((1.0, 1e-320), (1.0, 0.0, 1e-320), (1.0, 0.0, 0.0, 1e-320)):
        with pytest.raises(OverflowError, match="closed-form roots out of float range"):
            real_roots(coeffs)


# ---------------------------------------------------------------------------
# Newton polish: stopping at the fixed point keeps the bits of 3 steps

def three_step_polish(coeffs, r):
    """The polish without the fixed-point stop: 3 steps unless the
    derivative vanishes or a step leaves the root's scale."""
    for _ in range(3):
        value, d = _horner_slope(coeffs, r)
        if d == 0.0:
            break
        step = value / d
        if not math.isfinite(step) or abs(step) > 1.0 + abs(r):
            break
        r -= step
    else:
        value = _horner(coeffs, r)
    return r, value


def polish_inputs():
    """The coupling cubics and tilt sextics of characteristic_polynomials,
    200 FK octics (rho3 = rho2 on every other triple), and seeded random
    polynomials of degree 1-12, some with roots at +0.0 or -0.0."""
    polys = characteristic_polynomials()
    rng = np.random.default_rng(73)
    for k, rho in enumerate(rng.uniform(-200.0, 1500.0, size=(200, 3))):
        if k % 2:
            rho[2] = rho[1]
        polys.append(octic_from_joints(DEFAULT_SYNTHETIC, ParallelJoints(*map(float, rho))))
    for k in range(600):
        n = k % 12 + 1
        if k % 3 == 2:
            c = poly_from_roots([*rng.uniform(-3.0, 3.0, size=n - 1), (0.0, -0.0)[k % 2]])
        else:
            c = rng.normal(size=n + 1) * 10.0 ** rng.integers(-3, 6)
            if k % 3 == 1:
                c[0] = (0.0, -0.0)[k % 2]
        polys.append(Polynomial(c))
    return polys


def test_polish_fixed_point_stop_keeps_the_bits(monkeypatch):
    polys = polish_inputs()
    got = [real_roots(p) for p in polys]
    monkeypatch.setattr(rootfind, "_polish", three_step_polish)
    assert repr([real_roots(p) for p in polys]) == repr(got)
    # signed zeros: at r = -0.0 with a step of -0.0, r - step is +0.0,
    # equal to r but not the same bits, so the polish goes on from +0.0
    for coeffs in ([0.0, 1.0], [-0.0, 1.0], [0.0, -1.0], [-0.0, -1.0],
                   [-0.0, 3.0, 1.0], [0.0, -2.0, 0.0, 1.0], [-0.0, 0.0, 1.0]):
        for r in (0.0, -0.0, 5e-324, -5e-324, 1e-300):
            assert repr(_polish(coeffs, r)) == repr(three_step_polish(coeffs, r)), (coeffs, r)
    assert repr(_polish([-0.0, -1.0], -0.0)) == "(0.0, -0.0)"
