"""Real-root extraction for the univariate characteristic polynomials.

Candidate roots come in closed form up to degree 3 and as companion
eigenvalues above.  Each is polished with a few Newton steps, then accepted
against a scaled residual bound and merged when closer than 1e-9 * (1 + |root|).
Every polynomial is evaluated by _horner on Python floats.

numpy is imported the first time a companion eigenproblem runs, coefficients
come in as anything but a tuple or list of Python floats, or a caller reads
`np`, `_eigvals` or `_SHIFTS`; so the closed forms up to degree 3, on
coefficients given as Python floats, run without it.
"""

import cmath
import math
from dataclasses import dataclass

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
_THIRDS = (0.0, 2.0 * math.pi / 3.0, -2.0 * math.pi / 3.0)  # Viete: theta/3 + these


def _numpy():
    """numpy, imported on first use: by a companion eigenproblem
    (_candidates) or by _trim for coefficients that are not Python floats.
    It binds np together with _eigvals, the LAPACK gufunc behind
    numpy.linalg.eigvals (private API, so numpy < 2.5), and _SHIFTS, the
    companion subdiagonals, one per degree, of which _candidates fills a
    copy.  The three are added to the module then and never rebound, so no
    attribute changes under a caller."""
    global np, _eigvals, _SHIFTS
    if "np" not in globals():
        import numpy
        from numpy.linalg._umath_linalg import eigvals as _eigvals
        _SHIFTS = [numpy.eye(n, k=-1) for n in range(MAX_DEGREE + 1)]
        np = numpy
    return np


def __getattr__(name):
    # a read (or a test's patch) of the numpy bindings before their first use
    if name in ("np", "_eigvals", "_SHIFTS"):
        _numpy()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _trim(c):
    # a tuple (coupling_cubic's) or list of Python floats needs no numpy conversion
    if not (type(c) in (tuple, list) and c and all(type(v) is float for v in c)):
        c = _numpy().asarray(c, dtype=float)
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


def _candidates(p):
    """p's trimmed coefficients (ValueError below degree 1) and its unpolished
    real-root candidates: the real parts of the roots whose imaginary part
    is within IMAG_REL_TOL, one per conjugate pair.  Up to degree 3 the roots
    of the monic polynomial come in closed form (the quotient, the stable
    quadratic formula; Viete's form where the cubic has three real roots,
    R^2 < Q^3, else Cardano's with a cancellation-free cube root), above as
    companion eigenvalues.  Monic coefficients are within 1e12 (_trim), so
    nothing overflows; a non-finite root still raises, OverflowError in
    closed form, numpy.linalg.LinAlgError for unconverged eigenvalues."""
    coeffs = (p if isinstance(p, Polynomial) else Polynomial(p)).coeffs
    n, lead = len(coeffs) - 1, coeffs[-1]
    if n < 1:
        raise ValueError("degree-0 polynomial has no well-defined roots")
    if n == 1:
        roots = [-(coeffs[0] / lead)]
    elif n == 2:
        c, half = coeffs[0] / lead, -0.5 * (coeffs[1] / lead)
        disc = half * half - c
        q = half + math.copysign(math.sqrt(abs(disc)), half)
        roots = [complex(half, math.sqrt(-disc))] if disc < 0.0 else [q, c / q] if q else [0.0]
    elif n == 3:
        c, b, a = coeffs[0] / lead, coeffs[1] / lead, coeffs[2] / lead
        shift = a / 3.0
        Q = shift * shift - b / 3.0
        R = shift * shift * shift - a * b / 6.0 + 0.5 * c
        Q3 = Q * Q * Q
        if R * R < Q3:
            root = math.sqrt(Q)
            third = math.acos(max(-1.0, min(1.0, R / (Q * root)))) / 3.0
            roots = [-2.0 * root * math.cos(third + k) - shift for k in _THIRDS]
        else:
            A = -math.copysign((abs(R) + math.sqrt(R * R - Q3)) ** (1.0 / 3.0), R)
            B = Q / A if A else 0.0
            roots = [A + B - shift, complex(-0.5 * (A + B) - shift, 0.75**0.5 * (A - B))]
    else:
        _numpy()
        comp = _SHIFTS[n].copy()
        comp[:, -1] = [-(c / lead) for c in coeffs[:-1]]
        # numpy.linalg.eigvals' gufunc: non-convergence gives NaN eigenvalues
        # (and the invalid flag, silenced here), raised below, not dropped
        with np.errstate(invalid="ignore"):
            roots = _eigvals(comp, signature="d->D").tolist()
    if not all(map(cmath.isfinite, roots)):
        raise (np.linalg.LinAlgError("companion eigenvalues did not converge") if n > 3
               else OverflowError("closed-form roots out of float range"))
    return coeffs, [z.real for z in roots if abs(z.imag) <= IMAG_REL_TOL * (1.0 + abs(z.real))]


def _refine(coeffs, candidates):
    """Polish, acceptance and merge of candidate roots of trimmed
    coefficients, ascending: the one path both candidate sources take."""
    n = len(coeffs) - 1
    # acceptance bound: RESIDUAL_REL_TOL * max|coeff| * max(1, |root|)^degree
    bound = RESIDUAL_REL_TOL * max(map(abs, coeffs))
    accepted = []
    for r in candidates:
        polished, value = _polish(coeffs, r)
        if abs(value) <= bound * max(1.0, abs(polished)) ** n:
            accepted.append(polished)
        # Newton can walk off a multiple root; the candidate itself may pass
        elif abs(_horner(coeffs, r)) <= bound * max(1.0, abs(r)) ** n:
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
                    and abs(_horner(coeffs, mid)) <= bound * max(1.0, abs(mid)) ** n):
                continue
        merged.append(r)
    return merged


def real_roots(p, lo=-math.inf, hi=math.inf):
    """All real roots of p (multiplicity collapsed), sorted ascending; with
    lo or hi, only the candidates in [lo, hi] are polished and merged, so a
    root near either end can fall on either side of it.  Raises ValueError
    on degree-0 input or non-finite coefficients, and
    numpy.linalg.LinAlgError when the companion eigenvalues do not converge."""
    coeffs, candidates = _candidates(p)
    if lo > -math.inf or hi < math.inf:
        candidates = [r for r in candidates if lo <= r <= hi]
    return _refine(coeffs, candidates)


def real_roots_in_unit_interval(p):
    """real_roots(p, -1.5, 1.5) filtered to [-1-1e-9, 1+1e-9] and clamped
    into [-1, 1]; no merge beyond real_roots' own: orientation_candidates
    merges the orientations they give, at DEDUP_TOL."""
    return [min(1.0, max(-1.0, r)) for r in real_roots(p, -1.5, 1.5) if -1.0 - 1e-9 <= r <= 1.0 + 1e-9]
