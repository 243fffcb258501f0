"""Independent numeric ground truth for the symbolic solvers.

This module re-states the rod-length constraints directly from the machine
description and solves them with a multi-start damped Newton iteration.  It
deliberately shares no code with the closed-form IK/FK modules so that
agreement between the two routes is a genuine cross-check (the machine's
own controller historically used an iterative resolution of the same
equations).
"""

import math
from dataclasses import dataclass

import numpy as np

NEWTON_REL_TOL = 1e-10
NEWTON_MAX_ITER = 100
NEWTON_DEDUP_TOL = 1e-6


@dataclass(frozen=True)
class ResidualVector:
    """Squared-length residuals (mm^2) of the four rod constraints."""

    r_3a: float
    r_3b: float
    r_4: float
    r_5: float

    def as_tuple(self):
        return (self.r_3a, self.r_3b, self.r_4, self.r_5)

    @property
    def max_abs(self):
        return max(abs(v) for v in self.as_tuple())


def _legs(geom, rho):
    """Per-leg constants of the rod statement, one row each, legs I+, I-, II,
    III on the trailing axis: base offset D, platform offset d, signed arm,
    lateral offset, slider coordinate and squared rod length."""
    D1, D2, d1, d2 = geom.D1, geom.D2, geom.d1, geom.d2
    R1, r1, R2, r4 = geom.R1, geom.r1, geom.R2, geom.r4
    return np.array([[D1, D1, D2, D2], [d1, d1, d2, d2],
                     [R1, -R1, -R2, R2], [-r1, r1, r4, -r4],
                     [rho[0], rho[0], rho[1], rho[2]],
                     [geom.L1**2, geom.L1**2, geom.L2**2, geom.L3**2]])


def _rods(legs, x, y, z, c, s):
    """The four rod vectors (dx, dy, dz), legs on the trailing axis, at
    platform position (x, y, z) with c, s = cos, sin(alpha).

    Floats give shape (4,); (n, 1) columns give (n, 4) with the same bits
    row by row, since each leg's arithmetic is elementwise.
    """
    D, d, arm, off, rho, _ = legs
    return (x + D) - d, (y + arm * c) + off, (z + arm * s) - rho


def _residuals(legs, rods):
    dx, dy, dz = rods
    return dx**2 + dy**2 + dz**2 - legs[5]


def residuals_parallel(geom, pose, joints):
    """Direct evaluation of the parallel-module constraint left-hand sides."""
    legs = _legs(geom, joints.as_tuple())
    return ResidualVector(*_residuals(legs, _rods(
        legs, pose.x_p, pose.y_p, pose.z_p,
        math.cos(pose.alpha), math.sin(pose.alpha))).tolist())


def residuals_machine(geom, tool, machine_joints):
    """Direct evaluation of the machine-level constraint left-hand sides."""
    theta1 = machine_joints.theta1
    cp2, sp2 = math.cos(tool.phi2), math.sin(tool.phi2)
    c1, s1 = math.cos(theta1), math.sin(theta1)
    alpha = theta1 + tool.phi1
    ca, sa = math.cos(alpha), math.sin(alpha)
    lateral = sp2 * tool.x_u - cp2 * tool.y_u
    across = cp2 * tool.x_u + sp2 * tool.y_u
    spread = s1 * (tool.z_u - geom.d_t) + c1 * lateral + geom.Delta * sa
    drop = s1 * lateral - c1 * (tool.z_u - geom.d_t) + geom.d_a - geom.Delta * ca
    legs = _legs(geom, machine_joints.joints.as_tuple())
    return ResidualVector(*_residuals(legs, _rods(
        legs, across, spread, drop, ca, sa)).tolist())


def default_start_box(geom, rho):
    """Pose box covering every assembly: ellipse span in x/y, rod reach in z."""
    reach = math.sqrt(max(geom.a_sq(1.0), geom.a_sq(-1.0), 0.0)) + geom.L2 + geom.L3
    lo = min(rho) - max(geom.L1, geom.L2, geom.L3)
    hi = max(rho) + max(geom.L1, geom.L2, geom.L3)
    return ((geom.center_x - reach, geom.center_x + reach),
            (-reach, reach), (lo, hi))


def _batch_residuals(legs, v):
    """Residuals for a (n, 4) batch of pose vectors; returns (n, 4)."""
    x, y, z, alpha = v.T[..., None]
    return _residuals(legs, _rods(legs, x, y, z, np.cos(alpha), np.sin(alpha)))


def _batch_residuals_jacobian(legs, v):
    """Residuals and analytic Jacobian for a (n, 4) batch in one pass."""
    x, y, z, alpha = v.T[..., None]
    c, s = np.cos(alpha), np.sin(alpha)
    rods = dx, dy, dz = _rods(legs, x, y, z, c, s)
    arm = legs[2]
    J = np.empty((v.shape[0], 4, 4))
    J[:, :, 0] = 2 * dx
    J[:, :, 1] = 2 * dy
    J[:, :, 2] = 2 * dz
    # each rod's platform end sits at arm * (cos, sin)(alpha) in (y, z)
    J[:, :, 3] = 2 * (dz * arm * c - dy * arm * s)
    return _residuals(legs, rods), J


# the damped step lengths after the full step, 2^-k for k = 1..29 (exact in binary)
_HALVED_STEP_LENGTHS = np.ldexp(1.0, -np.arange(1, 30))


def _damped_step(legs, v, step, norm):
    """Per row, the first v + lam * step with lam = 1, 1/2, ..., 2^-29 whose
    residual max-norm is below `norm`; returns (trial, improved).

    Every row tries the full step first.  The rows it does not improve then
    try all 29 shorter lengths at once, as one (m, 29, 4) batch.  This picks
    the same lam as halving from 1 until the norm drops.  Only the `improved`
    rows of `trial` hold a step.
    """
    trial = v + step
    improved = np.max(np.abs(_batch_residuals(legs, trial)), axis=1) < norm
    rest = np.flatnonzero(~improved)
    if rest.size:
        cand = v[rest, None] + _HALVED_STEP_LENGTHS[:, None] * step[rest, None]
        cand_norm = np.max(np.abs(_batch_residuals(legs, cand.reshape(-1, 4))), axis=1)
        good = cand_norm.reshape(rest.size, -1) < norm[rest, None]
        hit = good.any(axis=1)
        trial[rest[hit]] = cand[hit, good[hit].argmax(axis=1)]
        improved[rest[hit]] = True
    return trial, improved


def newton_fk(geom, joints, starts=100, seed=0, box=None,
              alpha_range=(-math.pi, math.pi), max_iter=NEWTON_MAX_ITER):
    """Multi-start damped Newton on the 4-residual system.

    Returns the distinct converged poses as (x_p, y_p, z_p, alpha) tuples
    (alpha in (-pi, pi]), deduplicated at 1e-6 and sorted canonically;
    non-convergent starts are dropped.  All starts iterate in lockstep, so
    the result is deterministic for a fixed seed and independent of any
    execution order.

    Each outer iteration damps the Newton step of every active start by the
    first of 1, 1/2, ..., 2^-29 that lowers the residual max-norm: exactly
    the step that halving from 1 would pick.  Every start tries the full
    step; the starts it does not improve try the 29 shorter lengths in one
    batched pass, so the extra memory is O(29 x starts the full step did not
    improve).  A start that no step improves stops.
    """
    if starts < 1:
        raise ValueError("starts must be >= 1")
    rho = joints.as_tuple()
    legs = _legs(geom, rho)
    if box is None:
        box = default_start_box(geom, rho)
    rng = np.random.default_rng(seed)
    v = np.column_stack([
        rng.uniform(box[0][0], box[0][1], starts),
        rng.uniform(box[1][0], box[1][1], starts),
        rng.uniform(box[2][0], box[2][1], starts),
        rng.uniform(alpha_range[0], alpha_range[1], starts),
    ])
    tol = NEWTON_REL_TOL * geom.residual_scale
    active = np.ones(starts, dtype=bool)
    for _ in range(max_iter):
        if not active.any():
            break
        idx = np.flatnonzero(active)
        f, J = _batch_residuals_jacobian(legs, v[idx])
        norm = np.max(np.abs(f), axis=1)
        # converged and singular starts (NaN rows fail both tests) stop
        go = (norm > tol) & (np.abs(np.linalg.det(J)) > 1e-300)
        active[idx[~go]] = False
        idx, f, norm, J = idx[go], f[go], norm[go], J[go]
        if idx.size == 0:
            continue
        step = np.linalg.solve(J, -f[..., None])[..., 0]
        trial, improved = _damped_step(legs, v[idx], step, norm)
        v[idx[improved]] = trial[improved]
        active[idx[~improved]] = False  # stuck: no damped step improves
    final = _batch_residuals(legs, v)
    converged = np.max(np.abs(final), axis=1) <= tol
    found = []
    for row in v[converged]:
        # normalize to (-pi, pi] with -pi canonicalized to +pi
        alpha = math.fmod(row[3] + math.pi, 2.0 * math.pi)
        alpha = alpha + 2.0 * math.pi if alpha <= 0.0 else alpha
        found.append((float(row[0]), float(row[1]), float(row[2]),
                      float(alpha - math.pi)))
    found.sort(key=lambda p: (p[3], p[0], p[1], p[2]))
    distinct = []
    for p in found:
        if any(max(abs(p[i] - q[i]) for i in range(4)) <= NEWTON_DEDUP_TOL
               for q in distinct):
            continue
        distinct.append(p)
    return distinct
