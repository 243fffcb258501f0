"""Shared fixtures and independent brute-force oracles.

The brute-force IK oracle here deliberately avoids the closed-form route:
orientations come from a dense scan-and-bisect on the product of the two
leg-I consistency residuals (no characteristic cubic), and slider values
come from solving each rod constraint as a raw quadratic (no midpoint
construction, no sign table).  Agreement with the package is therefore a
genuine cross-check.
"""

import math
from itertools import product

import numpy as np
import pytest

from pkmkin import DEFAULT_SYNTHETIC, SIXTEEN_BRANCH_REGION, iso_ellipse, wrap_angle
from pkmkin.parallel_ik import _coupling_terms, _sign_rule, _term_scale

#: allowed_s1 marker for the degenerate leg-I branch where rho1 = z_p.
RHO1_PINNED = "rho1 = z_p"


@pytest.fixture(scope="session")
def geom():
    return DEFAULT_SYNTHETIC


def angle_delta(a, b):
    """Distance between two angles modulo 2 pi (pi and -pi coincide)."""
    return abs(wrap_angle(a - b))


def allowed_s1(geom, pose):
    """Admissible leg-I branch signs for a pose on the coupling locus.

    Returns a frozenset of signs, or the RHO1_PINNED marker when the leg-I
    geometry forces rho1 = z_p (zero radicand).  At alpha in {0, pi} both
    signs are admissible; otherwise the sign rule fixes s1 uniquely.  It
    reads the IK solvers' own sign rule (_sign_rule) at the pose.
    """
    signs, offset = _sign_rule(geom, pose.y_p, math.cos(pose.alpha), math.sin(pose.alpha))
    return RHO1_PINNED if offset == 0.0 else frozenset(signs)


def coupling_scale(geom, x_p, y_p, alpha):
    """Largest coupling-term magnitude; reference for relative residuals.

    Intentionally built only from the terms the relation actually sums at
    this (point, alpha): near the axis orientations every term vanishes, so
    boundary-clamped cosine roots from just outside [-1, 1] cannot sneak in
    as candidates on the strength of an unrelated global scale.  The
    solvers' coupling test takes the same scale (_term_scale), from the
    same terms.
    """
    return _term_scale(*_coupling_terms(geom, x_p, y_p, math.cos(alpha), math.sin(alpha)))


def region_points(rng, n, region=SIXTEEN_BRANCH_REGION):
    """Random points in the documented clean region, y of either sign."""
    (x0, x1), (y0, y1), (z0, z1) = region
    pts = []
    for _ in range(n):
        x = rng.uniform(x0, x1)
        y = rng.uniform(y0, y1) * (1.0 if rng.uniform() < 0.5 else -1.0)
        z = rng.uniform(z0, z1)
        pts.append((x, y, z))
    return pts


def locus_points(geom, rng):
    """Points (x, y, z) on the loci the IK branch construction special-cases:
    region points; the y = 0 axis, where alpha in {0, pi} carries 8 branches
    (both signs of s1), and its points where leg I grazes at alpha = 0 or
    pi, whose two s1 signs give one slider (s1 = -1 only); and points round
    iso-ellipses, among them the perpendicular-leg one (R1 cos alpha = r1,
    rho1 pinned to z) and the y = 0 edges (phi = 0, pi), where the leg-I
    radicand grazes zero."""
    pts = region_points(rng, 20)
    pts += [(geom.center_x + dx, 0.0, z) for dx in (-200.0, 0.0, 150.0, 400.0)
            for z in (800.0, 1000.0)]
    pts += [(geom.center_x + sign * math.sqrt(geom.a_sq(c)), 0.0, 900.0)
            for c in (1.0, -1.0) for sign in (1.0, -1.0)]
    for alpha in (0.3, -0.9, 1.2, 2.6, math.acos(geom.r1 / geom.R1)):
        ell = iso_ellipse(geom, alpha)
        pts += [(*ell.point(phi), rng.uniform(700.0, 1100.0))
                for phi in (0.0, math.pi, 0.4, 1.9, 3.5, 5.1)]
    return pts


def assert_distinct(keys, tol):
    """No two keys lie within tol of each other in every component."""
    for i, a in enumerate(keys):
        for b in keys[:i]:
            assert not all(abs(p - q) <= tol for p, q in zip(a, b)), (a, b)


def grazing_point(geom, leg, alpha=0.3, z=900.0):
    """A point (x, y, z) on alpha's iso-ellipse where leg II or III only just
    fails to close: its radicand is about -1e-6 mm^2, inside the clamp, so
    its root is 0.0 and both of its slider signs give one slider.  Found by
    bisection on the ellipse for leg III; leg II is its mirror in y, exact
    for L2 = L3."""
    assert geom.L2 == geom.L3
    ell, w = iso_ellipse(geom, alpha), geom.R2 * math.cos(alpha) - geom.r4

    def radicand(phi):
        x, y = ell.point(phi)
        return geom.L3**2 - (x + geom.D2 - geom.d2)**2 - (y + w)**2

    lo, hi = 2.8, 3.0
    assert radicand(lo) > 0.0 > radicand(hi)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if radicand(mid) > -1e-6 else (lo, mid)
    assert -1e-5 < radicand(hi) < 0.0
    x, y = ell.point(hi)
    return (x, y if leg == "III" else -y, z)


def raw_residuals(geom, x, y, z, alpha, rho1, rho2, rho3):
    """The four rod constraints, restated from the machine description."""
    c, s = math.cos(alpha), math.sin(alpha)
    X1 = x + geom.D1 - geom.d1
    X2 = x + geom.D2 - geom.d2
    return (
        X1**2 + (y + geom.R1 * c - geom.r1)**2 + (z + geom.R1 * s - rho1)**2 - geom.L1**2,
        X1**2 + (y - geom.R1 * c + geom.r1)**2 + (z - geom.R1 * s - rho1)**2 - geom.L1**2,
        X2**2 + (y - geom.R2 * c + geom.r4)**2 + (z - geom.R2 * s - rho2)**2 - geom.L2**2,
        X2**2 + (y + geom.R2 * c - geom.r4)**2 + (z + geom.R2 * s - rho3)**2 - geom.L3**2,
    )


def _leg1_rho_candidates(geom, x, y, z, alpha):
    """rho1 values solving the first leg-I rod constraint (raw quadratic)."""
    c, s = math.cos(alpha), math.sin(alpha)
    X1 = x + geom.D1 - geom.d1
    rad = geom.L1**2 - X1**2 - (y + geom.R1 * c - geom.r1)**2
    if rad < -1e-9 * geom.L1**2:
        return []
    root = math.sqrt(max(rad, 0.0))
    return sorted({z + geom.R1 * s - root, z + geom.R1 * s + root})


def _leg23_rho_candidates(geom, x, y, z, alpha, leg):
    c, s = math.cos(alpha), math.sin(alpha)
    X2 = x + geom.D2 - geom.d2
    if leg == 2:
        L, rad = geom.L2, geom.L2**2 - X2**2 - (y - geom.R2 * c + geom.r4)**2
        center = z - geom.R2 * s
    else:
        L, rad = geom.L3, geom.L3**2 - X2**2 - (y + geom.R2 * c - geom.r4)**2
        center = z + geom.R2 * s
    if rad < -1e-9 * L**2:
        return []
    root = math.sqrt(max(rad, 0.0))
    return sorted({center - root, center + root})


def legs_that_cannot_close(geom, x, y, z, alpha):
    """The legs, in order I, II, III, whose raw rod quadratic has no real
    slider at this pose (leg I by its first rod)."""
    return [leg for leg, rhos in (("I", _leg1_rho_candidates(geom, x, y, z, alpha)),
                                  ("II", _leg23_rho_candidates(geom, x, y, z, alpha, 2)),
                                  ("III", _leg23_rho_candidates(geom, x, y, z, alpha, 3)))
            if not rhos]


def _leg1_consistency(geom, x, y, z, alpha):
    """Product of the second leg-I residual over the rho1 candidates of the
    first; sign changes locate orientations where both rods close."""
    cands = _leg1_rho_candidates(geom, x, y, z, alpha)
    if not cands:
        return None
    prod = 1.0
    for rho1 in cands:
        prod *= raw_residuals(geom, x, y, z, alpha, rho1, 0.0, 0.0)[1]
    return prod


def scan_orientations(geom, x, y, z, samples=4096):
    """All orientations where leg I closes, by scan + bisection."""
    grid = np.linspace(-math.pi, math.pi, samples + 1)
    vals = [_leg1_consistency(geom, x, y, z, a) for a in grid]
    roots = []
    for a0, a1, v0, v1 in zip(grid, grid[1:], vals, vals[1:]):
        if v0 is None or v1 is None:
            continue
        if v0 == 0.0:
            roots.append(a0)
            continue
        if v0 * v1 < 0.0:
            lo, hi, flo = a0, a1, v0
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                fmid = _leg1_consistency(geom, x, y, z, mid)
                if fmid is None or flo * fmid > 0.0:
                    lo, flo = mid, fmid if fmid is not None else flo
                else:
                    hi = mid
            roots.append(0.5 * (lo + hi))
    # pi is a grid endpoint; -pi duplicates it
    out = []
    for a in roots:
        a = math.pi if abs(a + math.pi) < 1e-12 else a
        if not any(abs(a - b) <= 1e-7 for b in out):
            out.append(a)
    return sorted(out)


def brute_force_ik(geom, x, y, z, tol_rel=1e-7):
    """Independent branch enumeration: scan orientations, solve each rod
    constraint as a quadratic, keep cartesian products passing all four
    residuals.  Returns sorted (alpha, rho1, rho2, rho3) tuples."""
    branches = []
    for alpha in scan_orientations(geom, x, y, z):
        for rho1, rho2, rho3 in product(
                _leg1_rho_candidates(geom, x, y, z, alpha),
                _leg23_rho_candidates(geom, x, y, z, alpha, 2),
                _leg23_rho_candidates(geom, x, y, z, alpha, 3)):
            residual = max(abs(r) for r in raw_residuals(
                geom, x, y, z, alpha, rho1, rho2, rho3))
            if residual <= tol_rel * geom.residual_scale:
                branches.append((alpha, rho1, rho2, rho3))
    merged = []
    for b in sorted(branches):
        if any(max(abs(b[i] - m[i]) for i in range(4)) <= 1e-6 for m in merged):
            continue
        merged.append(b)
    return merged
