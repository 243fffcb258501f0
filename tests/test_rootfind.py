import math
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from pkmkin import (DEFAULT_SYNTHETIC, Polynomial, PlatformPose, coupling_cubic,
                    enumerate_ik, real_roots, real_roots_in_unit_interval,
                    select_working_solution, tilt_polynomial,
                    tool_pose_from_platform)
from pkmkin.rootfind import CLUSTER_REL_TOL, _add, _divmod, _horner, _mul

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
    with pytest.raises(ValueError):
        real_roots(Polynomial((3.0,)))


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
    """Whether two exact roots lie within the root-cluster width.  Float
    roots screen for candidate pairs (their error, about sqrt(eps) on a
    cluster, is far below the 1e-4 screen); 30-digit roots decide."""
    def close(roots, tol):
        return any(abs(a - b) <= tol * (1.0 + abs(a))
                   for i, a in enumerate(roots) for b in roots[:i])
    return (close(np.roots(coeffs[::-1]).tolist(), 1e-4)
            and close([complex(r) for r in poly.nroots(n=30)], CLUSTER_REL_TOL))


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


# ---------------------------------------------------------------------------
# coefficient kernel: numpy.polynomial is the reference, bit for bit

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


def test_kernel_mul_matches_polymul():
    ops = kernel_operands()
    for a in ops:
        for b in ops:
            assert same_bits(_mul(a, b), npoly.polymul(a, b)), (a, b)


def test_kernel_add_matches_chained_polyadd():
    ops = kernel_operands()
    for a in ops:
        for b in ops:
            assert same_bits(_add(a, b), npoly.polyadd(a, b)), (a, b)
            assert same_bits(_add(a, -b), npoly.polysub(a, b)), (a, b)
    rng = np.random.default_rng(29)
    for _ in range(200):
        picked = [ops[i] for i in rng.integers(len(ops), size=rng.integers(2, 6))]
        assert same_bits(_add(*picked), reduce(npoly.polyadd, picked)), picked
    # a sum that cancels to an exact zero on top is trimmed before the next
    # operand comes in, so that operand's -0.0 below the top is kept
    cancelling = [np.array([1.0, 2.0]), np.array([1.0, -2.0]), np.array([1.0, -0.0, 5.0])]
    assert same_bits(_add(*cancelling), [3.0, -0.0, 5.0]) and same_bits(
        _add(*cancelling), reduce(npoly.polyadd, cancelling))
    # rho2 = rho3 makes the z_p denominator Q = 0 * P1 + [0, 4 C1]: the
    # -0.0 on top must be dropped, not kept as a third coefficient
    assert same_bits(_add(0.0 * np.array([180.0, 0.0, -420.0]), np.array([0.0, 4.0])),
                     [0.0, 4.0])


def test_kernel_add_leaves_operands_alone():
    a, b = np.array([1.0, 2.0]), np.array([3.0, 4.0, 5.0])
    _add(a, b)
    _add(b, a)
    assert a.tolist() == [1.0, 2.0] and b.tolist() == [3.0, 4.0, 5.0]


def test_kernel_horner_matches_polyval():
    for c in kernel_operands():
        for x in (0.0, -0.0, 0.3317, -1.2113, 4.17, -250.0):
            assert same_bits(_horner(c.tolist(), x), npoly.polyval(x, c)), (c, x)


def test_kernel_divmod_matches_polydiv():
    ops = kernel_operands()
    # the spurious factors deflated from the FK numerator: (1 + t^2)^2, P1^2
    divisors = [npoly.polymul([1.0, 0.0, 1.0], [1.0, 0.0, 1.0]),
                npoly.polymul([180.0, 0.0, -420.0], [180.0, 0.0, -420.0]),
                np.array([1.0, -3.0]), np.array([0.5, 0.0, 2.0, 0.0])]
    for num in ops:
        for den in divisors:
            quot, rem = _divmod(num, den)
            ref_quot, ref_rem = npoly.polydiv(num, den)
            assert same_bits(quot, ref_quot), (num, den)
            assert same_bits(rem, ref_rem), (num, den)
    num = ops[-1].copy()
    _divmod(num, divisors[0])
    assert same_bits(num, ops[-1])
