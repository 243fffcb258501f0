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


def residuals_parallel(geom, pose, joints):
    """Direct evaluation of the parallel-module constraint left-hand sides."""
    c, s = math.cos(pose.alpha), math.sin(pose.alpha)
    X1 = pose.x_p + geom.D1 - geom.d1
    X2 = pose.x_p + geom.D2 - geom.d2
    y, z = pose.y_p, pose.z_p
    return ResidualVector(
        r_3a=X1**2 + (y + geom.R1 * c - geom.r1)**2 + (z + geom.R1 * s - joints.rho1)**2 - geom.L1**2,
        r_3b=X1**2 + (y - geom.R1 * c + geom.r1)**2 + (z - geom.R1 * s - joints.rho1)**2 - geom.L1**2,
        r_4=X2**2 + (y - geom.R2 * c + geom.r4)**2 + (z - geom.R2 * s - joints.rho2)**2 - geom.L2**2,
        r_5=X2**2 + (y + geom.R2 * c - geom.r4)**2 + (z + geom.R2 * s - joints.rho3)**2 - geom.L3**2,
    )


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
    X1 = across + geom.D1 - geom.d1
    X2 = across + geom.D2 - geom.d2
    rho = machine_joints.joints
    R1, r1, R2, r4 = geom.R1, geom.r1, geom.R2, geom.r4
    return ResidualVector(
        r_3a=X1**2 + (spread + R1 * ca - r1)**2 + (drop + R1 * sa - rho.rho1)**2 - geom.L1**2,
        r_3b=X1**2 + (spread - R1 * ca + r1)**2 + (drop - R1 * sa - rho.rho1)**2 - geom.L1**2,
        r_4=X2**2 + (spread - R2 * ca + r4)**2 + (drop - R2 * sa - rho.rho2)**2 - geom.L2**2,
        r_5=X2**2 + (spread + R2 * ca - r4)**2 + (drop + R2 * sa - rho.rho3)**2 - geom.L3**2,
    )


def default_start_box(geom, rho):
    """Pose box covering every assembly: ellipse span in x/y, rod reach in z."""
    reach = math.sqrt(max(geom.a_sq(1.0), geom.a_sq(-1.0), 0.0)) + geom.L2 + geom.L3
    lo = min(rho) - max(geom.L1, geom.L2, geom.L3)
    hi = max(rho) + max(geom.L1, geom.L2, geom.L3)
    return ((geom.center_x - reach, geom.center_x + reach),
            (-reach, reach), (lo, hi))


def _batch_terms(geom, v, rho):
    c, s = np.cos(v[:, 3]), np.sin(v[:, 3])
    X1 = v[:, 0] + geom.D1 - geom.d1
    X2 = v[:, 0] + geom.D2 - geom.d2
    y, z = v[:, 1], v[:, 2]
    y1p, z1p = y + geom.R1 * c - geom.r1, z + geom.R1 * s - rho[0]
    y1m, z1m = y - geom.R1 * c + geom.r1, z - geom.R1 * s - rho[0]
    y2, z2 = y - geom.R2 * c + geom.r4, z - geom.R2 * s - rho[1]
    y3, z3 = y + geom.R2 * c - geom.r4, z + geom.R2 * s - rho[2]
    return c, s, X1, X2, (y1p, z1p), (y1m, z1m), (y2, z2), (y3, z3)


def _batch_residuals(geom, v, rho):
    """Residuals for a (n, 4) batch of pose vectors; returns (n, 4)."""
    _, _, X1, X2, leg1p, leg1m, leg2, leg3 = _batch_terms(geom, v, rho)
    return np.stack([
        X1**2 + leg1p[0]**2 + leg1p[1]**2 - geom.L1**2,
        X1**2 + leg1m[0]**2 + leg1m[1]**2 - geom.L1**2,
        X2**2 + leg2[0]**2 + leg2[1]**2 - geom.L2**2,
        X2**2 + leg3[0]**2 + leg3[1]**2 - geom.L3**2,
    ]).T  # column-major: the row max-norm then reduces across four columns


def _batch_residuals_jacobian(geom, v, rho):
    """Residuals and analytic Jacobian for a (n, 4) batch in one pass."""
    c, s, X1, X2, (y1p, z1p), (y1m, z1m), (y2, z2), (y3, z3) = _batch_terms(geom, v, rho)
    R1, R2 = geom.R1, geom.R2
    f = np.stack([
        X1**2 + y1p**2 + z1p**2 - geom.L1**2,
        X1**2 + y1m**2 + z1m**2 - geom.L1**2,
        X2**2 + y2**2 + z2**2 - geom.L2**2,
        X2**2 + y3**2 + z3**2 - geom.L3**2,
    ], axis=1)
    J = np.empty((v.shape[0], 4, 4))
    J[:, 0] = np.stack([2 * X1, 2 * y1p, 2 * z1p, 2 * (-y1p * R1 * s + z1p * R1 * c)], axis=1)
    J[:, 1] = np.stack([2 * X1, 2 * y1m, 2 * z1m, 2 * (y1m * R1 * s - z1m * R1 * c)], axis=1)
    J[:, 2] = np.stack([2 * X2, 2 * y2, 2 * z2, 2 * (y2 * R2 * s - z2 * R2 * c)], axis=1)
    J[:, 3] = np.stack([2 * X2, 2 * y3, 2 * z3, 2 * (-y3 * R2 * s + z3 * R2 * c)], axis=1)
    return f, J


# damped step lengths 2^-k, k = 0..29 (exact in binary), in three passes of
# ten: few passes for small batches, little surplus residual work for large
_STEP_LENGTHS = np.ldexp(1.0, -np.arange(30)).reshape(3, 10)


def _damped_step(geom, v, step, norm, rho):
    """Per row, the first v + lam * step with lam = 1, 1/2, ..., 2^-29 whose
    residual max-norm is below `norm`; returns (trial, improved).

    Each pass tries the next ten step lengths at once, as one (m, 10, 4)
    batch over the m rows no earlier pass improved.  This picks the same
    lam as halving from 1 until the norm drops.  Rows not `improved` keep v.
    """
    trial = v.copy()
    improved = np.zeros(len(v), dtype=bool)
    for lams in _STEP_LENGTHS:
        rest = np.flatnonzero(~improved)
        if rest.size == 0:
            break
        cand = v[rest, None] + lams[:, None] * step[rest, None]
        cand_norm = np.max(np.abs(_batch_residuals(geom, cand.reshape(-1, 4), rho)), axis=1)
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
    the step that halving from 1 would pick.  The step lengths are tried in
    three batched passes of ten, each over the starts no earlier pass
    improved, so the extra memory is O(10 x active starts).  A start that
    no step improves stops.
    """
    if starts < 1:
        raise ValueError("starts must be >= 1")
    rho = (joints.rho1, joints.rho2, joints.rho3)
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
        f, J = _batch_residuals_jacobian(geom, v[idx], rho)
        norm = np.max(np.abs(f), axis=1)
        done = norm <= tol
        active[idx[done]] = False
        keep = ~done
        idx = idx[keep]
        if idx.size == 0:
            continue
        f = f[keep]
        norm = norm[keep]
        J = J[keep]
        dets = np.abs(np.linalg.det(J))
        ok = dets > 1e-300
        active[idx[~ok]] = False
        idx, f, norm, J = idx[ok], f[ok], norm[ok], J[ok]
        if idx.size == 0:
            continue
        step = np.linalg.solve(J, -f[..., None])[..., 0]
        trial, improved = _damped_step(geom, v[idx], step, norm, rho)
        v[idx[improved]] = trial[improved]
        active[idx[~improved]] = False  # stuck: no damped step improves
    final = _batch_residuals(geom, v, rho)
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
