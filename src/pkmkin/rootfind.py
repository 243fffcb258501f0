"""Real-root extraction for the univariate characteristic polynomials.

Roots are computed as eigenvalues of the balanced companion matrix of the
monic, degree-trimmed polynomial, polished with a few Newton steps, then
accepted against a scaled residual bound and merged when closer than
1e-9 * (1 + |root|).
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np
# the LAPACK gufunc behind numpy.linalg.eigvals; private API, so numpy < 2.5
from numpy.linalg._umath_linalg import eigvals as _eigvals

from .errors import InterpolationError

TRIM_REL_TOL = 1e-12
RESIDUAL_REL_TOL = 1e-10
MERGE_REL_TOL = 1e-9
# multiple roots split by ~sqrt(eps) in the eigenvalue step; a pair this
# close whose midpoint also satisfies the residual bound is one root
CLUSTER_REL_TOL = 1e-7
MAX_DEGREE = 12
# companion eigenvalues of a real polynomial carry O(sqrt(eps)) imaginary
# noise on clustered real roots; the residual bound is the real filter
IMAG_REL_TOL = 1e-6
# companion subdiagonals, one per degree; real_roots fills a copy
_SHIFTS = [np.eye(n, k=-1) for n in range(MAX_DEGREE + 1)]


def _trim(coeffs):
    c = np.asarray(coeffs, dtype=float)
    if c.ndim != 1 or c.size == 0:
        raise ValueError("coefficients must be a non-empty 1-D sequence")
    c = c.tolist()
    if not all(map(math.isfinite, c)):
        raise ValueError("non-finite coefficient")
    scale = max(map(abs, c))
    if scale == 0.0:
        return c[:1]
    k = len(c)
    while k > 1 and abs(c[k - 1]) <= TRIM_REL_TOL * scale:
        k -= 1
    return c[:k]


# ---------------------------------------------------------------------------
# coefficient kernel of the tilt polynomial's assembly and the octic's
# certificate: ascending float arrays, trailing zeros kept (Polynomial trims
# them, and the certificate only evaluates)

def _mul(a, b):
    """Product of two coefficient arrays."""
    return np.convolve(a, b)


def _add(*polys):
    """Sum, left to right, of the operands zero-padded to the longest; the
    first is copied in, not added to zeros, which would turn its -0.0 into
    0.0."""
    acc = np.zeros(max(p.size for p in polys))
    acc[:polys[0].size] = polys[0]
    for p in polys[1:]:
        acc[:p.size] += p
    return acc


def _horner(coeffs, x):
    """Value at x of an ascending coefficient sequence (of Python floats,
    for speed)."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _horner_slope(coeffs, x):
    """Value and derivative at x in one pass, the value in the order of
    operations of _horner."""
    acc = slope = 0.0
    for k in range(len(coeffs) - 1, 0, -1):
        acc = acc * x + coeffs[k]
        slope = slope * x + k * coeffs[k]
    return acc * x + coeffs[0], slope


def _certify(coeffs, samples, degree, name):
    """Probe certificate of an exactly assembled polynomial: at 3 or more
    (node, sampled value) pairs its value must match the sampled relation it
    clears, to 1e-9 relative; raises InterpolationError otherwise, and
    OverflowError where a value, sample or bound is not finite."""
    values = coeffs.tolist()
    scale = max(1.0, *map(abs, values))
    checked = 0
    for x, sampled in samples:
        value = _horner(values, x)
        bound = 1e-9 * (scale * max(1.0, abs(x))**degree + abs(sampled))
        if not (math.isfinite(value) and math.isfinite(bound)):
            raise OverflowError(f"{name}: probe value out of float range at {x}")
        if not abs(value - sampled) <= bound:
            raise InterpolationError(f"assembled {name} disagrees with the sampled residual at {x}")
        checked += 1
    if checked < 3:
        raise InterpolationError(f"too few usable probe nodes for the {name}")


@dataclass(frozen=True)
class Polynomial:
    """Real polynomial, coefficients ascending by degree, degree <= 12."""

    coeffs: tuple

    def __init__(self, coeffs):
        c = _trim(coeffs)
        if len(c) - 1 > MAX_DEGREE:
            raise ValueError(f"degree {len(c) - 1} exceeds {MAX_DEGREE}")
        object.__setattr__(self, "coeffs", tuple(c))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def __call__(self, x):
        return _horner(self.coeffs, x)


def _polish(coeffs, r):
    """Up to 3 Newton steps from r, and the value at the root they reach
    (in the order of operations of _horner).

    The polish stops where the derivative vanishes, where a step would
    leave the root's scale (derivative blow-up near multiple roots), and at
    a fixed point: a step that leaves r's bits unchanged, since each step
    depends on r alone and the steps left would repeat it.  -0.0 - -0.0 is
    +0.0, which compares equal to -0.0, so the sign is compared as well.
    """
    for _ in range(3):
        value, d = _horner_slope(coeffs, r)
        if d == 0.0:
            return r, value
        step = value / d
        if not math.isfinite(step) or abs(step) > 1.0 + abs(r):
            return r, value
        polished = r - step
        if polished == r and math.copysign(1.0, polished) == math.copysign(1.0, r):
            return r, value
        r = polished
    return r, _horner(coeffs, r)


def real_roots(p):
    """All real roots of p (multiplicity collapsed), sorted ascending.

    Raises ValueError on degree-0 input or non-finite coefficients, and
    numpy.linalg.LinAlgError when the companion eigenvalues do not converge.
    """
    if not isinstance(p, Polynomial):
        p = Polynomial(p)
    if p.degree < 1:
        raise ValueError("degree-0 polynomial has no well-defined roots")
    n = p.degree
    comp = _SHIFTS[n].copy()
    comp[:, -1] = [-(c / p.coeffs[-1]) for c in p.coeffs[:-1]]
    # _trim keeps a leading coefficient above TRIM_REL_TOL times the largest,
    # so every companion entry is finite and at most 1e12: numpy.linalg.eigvals'
    # finite check would be redundant.  Its gufunc reports non-convergence as
    # NaN eigenvalues (and the invalid flag, silenced here), raised, not dropped
    with np.errstate(invalid="ignore"):
        eigenvalues = _eigvals(comp, signature="d->D").tolist()
    if any(map(cmath.isnan, eigenvalues)):
        raise np.linalg.LinAlgError("companion eigenvalues did not converge")
    candidates = [z.real for z in eigenvalues
                  if abs(z.imag) <= IMAG_REL_TOL * (1.0 + abs(z.real))]
    # acceptance bound: RESIDUAL_REL_TOL * max|coeff| * max(1, |root|)^degree
    bound = RESIDUAL_REL_TOL * max(abs(c) for c in p.coeffs)
    accepted = []
    for r in candidates:
        r, value = _polish(p.coeffs, r)
        if abs(value) <= bound * max(1.0, abs(r)) ** n:
            accepted.append(r)
    accepted.sort()
    merged = []
    for r in accepted:
        if merged:
            gap = r - merged[-1]
            if gap <= MERGE_REL_TOL * (1.0 + abs(r)):
                continue
            mid = 0.5 * (r + merged[-1])
            if (gap <= CLUSTER_REL_TOL * (1.0 + abs(r))
                    and abs(p(mid)) <= bound * max(1.0, abs(mid)) ** n):
                continue
        merged.append(r)
    return merged


def real_roots_in_unit_interval(p):
    """Real roots filtered to [-1-1e-9, 1+1e-9] and clamped into [-1, 1],
    ascending.  No merge beyond real_roots' own: orientation_candidates
    merges the orientations they give, at DEDUP_TOL."""
    return [min(1.0, max(-1.0, r)) for r in real_roots(p)
            if -1.0 - 1e-9 <= r <= 1.0 + 1e-9]
