"""Real-root extraction for the univariate characteristic polynomials.

Roots are computed as eigenvalues of the balanced companion matrix of the
monic, degree-trimmed polynomial, polished with a few Newton steps, then
accepted against a scaled residual bound and merged when closer than
1e-9 * (1 + |root|).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InterpolationError

TRIM_REL_TOL = 1e-12
DEFAULT_TOL = 1e-10
MERGE_REL_TOL = 1e-9
# multiple roots split by ~sqrt(eps) in the eigenvalue step; a pair this
# close whose midpoint also satisfies the residual bound is one root
CLUSTER_REL_TOL = 1e-7
MAX_DEGREE = 12
# companion eigenvalues of a real polynomial carry O(sqrt(eps)) imaginary
# noise on clustered real roots; the residual bound is the real filter
IMAG_REL_TOL = 1e-6


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
# coefficient kernel for the exactly assembled characteristic polynomials:
# ascending float arrays, each operation done in the order of numpy's
# polymul / polyadd / polydiv, exact trailing zeros trimmed from every
# operand and result as they are, so the coefficients match theirs bit for bit

def _trim_zeros(c):
    """c without its exact trailing zeros, at least one coefficient kept."""
    if c.item(-1) != 0.0:
        return c
    k = c.size - 1
    while k > 1 and c.item(k - 1) == 0.0:
        k -= 1
    return c[:max(k, 1)]


def _mul(a, b):
    """Product of two coefficient arrays."""
    return _trim_zeros(np.convolve(_trim_zeros(a), _trim_zeros(b)))


def _add(*polys):
    """Sum, left to right: overlapping coefficients added, the longer
    operand's own beyond the overlap, exact trailing zeros dropped at
    every step."""
    acc = _trim_zeros(polys[0]).copy()
    for p in polys[1:]:
        p = _trim_zeros(p)
        if p.size > acc.size:
            acc, p = p.copy(), acc
        acc[:p.size] += p
        acc = _trim_zeros(acc)
    return acc


def _horner(coeffs, x):
    """Value at x of an ascending coefficient sequence (of Python floats,
    for speed)."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _divmod(num, den):
    """Quotient and remainder of num / den by long division from the top,
    in Python floats; den has degree >= 1."""
    num, den = _trim_zeros(num).tolist(), _trim_zeros(den).tolist()
    n = len(den) - 1
    if len(num) <= n:
        return np.array(num[:1]) * 0.0, np.array(num)
    lead = den[-1]
    low = [d / lead for d in den[:-1]]
    for j in range(len(num) - 1, n - 1, -1):
        q = num[j]
        for k, d in enumerate(low, j - n):
            num[k] -= d * q
    return np.array(num[n:]) / lead, _trim_zeros(np.array(num[:n]))


def _certify(coeffs, samples, degree, name):
    """Probe certificate of an exactly assembled polynomial: at 3 or more
    (node, sampled value) pairs its value must match the sampled relation it
    clears, to 1e-9 relative; raises InterpolationError otherwise."""
    scale = max(np.max(np.abs(coeffs)), 1.0)
    values = coeffs.tolist()
    checked = 0
    for x, sampled in samples:
        if abs(_horner(values, x) - sampled) > 1e-9 * (scale * max(1.0, abs(x))**degree + abs(sampled)):
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

    def derivative_at(self, x):
        acc = 0.0
        for k in range(len(self.coeffs) - 1, 0, -1):
            acc = acc * x + k * self.coeffs[k]
        return acc


def real_roots(p, tol=DEFAULT_TOL):
    """All real roots of p (multiplicity collapsed), sorted ascending.

    Raises ValueError on degree-0 input or non-finite coefficients.
    """
    if not isinstance(p, Polynomial):
        p = Polynomial(p)
    if p.degree < 1:
        raise ValueError("degree-0 polynomial has no well-defined roots")
    n = p.degree
    if n == 1:
        candidates = [-p.coeffs[0] / p.coeffs[1]]
    else:
        comp = np.eye(n, k=-1)
        comp[:, -1] = [-(c / p.coeffs[-1]) for c in p.coeffs[:-1]]
        candidates = [z.real for z in np.linalg.eigvals(comp).tolist()
                      if abs(z.imag) <= IMAG_REL_TOL * (1.0 + abs(z.real))]
    # acceptance bound: tol * max|coeff| * max(1, |root|)^degree
    bound = tol * max(abs(c) for c in p.coeffs)
    accepted = []
    for r in candidates:
        # Newton polish; guard against derivative blow-up near multiple roots
        for _ in range(3):
            d = p.derivative_at(r)
            if d == 0.0:
                break
            step = p(r) / d
            if not math.isfinite(step) or abs(step) > 1.0 + abs(r):
                break
            r -= step
        if abs(p(r)) <= bound * max(1.0, abs(r)) ** n:
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


def real_roots_in_unit_interval(p, tol=DEFAULT_TOL, eps=1e-9):
    """Real roots filtered to [-1-eps, 1+eps] and clamped into [-1, 1]."""
    roots = [min(1.0, max(-1.0, r))
             for r in real_roots(p, tol=tol)
             if -1.0 - eps <= r <= 1.0 + eps]
    out = []
    for r in roots:
        if out and abs(r - out[-1]) <= MERGE_REL_TOL * (1.0 + abs(r)):
            continue
        out.append(r)
    return out
