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


def _rods(geom, x, y, z, c, s, rho):
    """The four rod vectors, leg I twice: (dx, dy, dz, squared rod length)
    each, at platform position (x, y, z) with c, s = cos, sin(alpha).

    Arithmetic only, so floats and equal-shape arrays give the same bits.
    """
    X1 = x + geom.D1 - geom.d1
    X2 = x + geom.D2 - geom.d2
    R1, r1, R2, r4 = geom.R1, geom.r1, geom.R2, geom.r4
    return ((X1, y + R1 * c - r1, z + R1 * s - rho[0], geom.L1**2),
            (X1, y - R1 * c + r1, z - R1 * s - rho[0], geom.L1**2),
            (X2, y - R2 * c + r4, z - R2 * s - rho[1], geom.L2**2),
            (X2, y + R2 * c - r4, z + R2 * s - rho[2], geom.L3**2))


def _residuals(rods):
    return [dx**2 + dy**2 + dz**2 - length_sq for dx, dy, dz, length_sq in rods]


def residuals_parallel(geom, pose, joints):
    """Direct evaluation of the parallel-module constraint left-hand sides."""
    rho = (joints.rho1, joints.rho2, joints.rho3)
    return ResidualVector(*_residuals(_rods(
        geom, pose.x_p, pose.y_p, pose.z_p,
        math.cos(pose.alpha), math.sin(pose.alpha), rho)))


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
    rho = machine_joints.joints
    return ResidualVector(*_residuals(_rods(
        geom, across, spread, drop, ca, sa, (rho.rho1, rho.rho2, rho.rho3))))


def default_start_box(geom, rho):
    """Pose box covering every assembly: ellipse span in x/y, rod reach in z."""
    reach = math.sqrt(max(geom.a_sq(1.0), geom.a_sq(-1.0), 0.0)) + geom.L2 + geom.L3
    lo = min(rho) - max(geom.L1, geom.L2, geom.L3)
    hi = max(rho) + max(geom.L1, geom.L2, geom.L3)
    return ((geom.center_x - reach, geom.center_x + reach),
            (-reach, reach), (lo, hi))


def _batch_residuals(geom, v, rho):
    """Residuals for a (n, 4) batch of pose vectors; returns (n, 4)."""
    rods = _rods(geom, v[:, 0], v[:, 1], v[:, 2], np.cos(v[:, 3]), np.sin(v[:, 3]), rho)
    return np.stack(_residuals(rods)).T  # column-major: the row max-norm reduces across columns


def _batch_residuals_jacobian(geom, v, rho):
    """Residuals and analytic Jacobian for a (n, 4) batch in one pass."""
    c, s = np.cos(v[:, 3]), np.sin(v[:, 3])
    rods = _rods(geom, v[:, 0], v[:, 1], v[:, 2], c, s, rho)
    # each rod's platform end sits at sign * R * (cos, sin)(alpha) in (y, z)
    arms = ((geom.R1, 1), (geom.R1, -1), (geom.R2, -1), (geom.R2, 1))
    J = np.empty((v.shape[0], 4, 4))
    for row, ((dx, dy, dz, _), (R, sign)) in enumerate(zip(rods, arms)):
        J[:, row] = np.stack([2 * dx, 2 * dy, 2 * dz,
                              sign * 2 * (dz * R * c - dy * R * s)], axis=1)
    return np.stack(_residuals(rods), axis=1), J


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
        # converged and singular starts (NaN rows fail both tests) stop
        go = (norm > tol) & (np.abs(np.linalg.det(J)) > 1e-300)
        active[idx[~go]] = False
        idx, f, norm, J = idx[go], f[go], norm[go], J[go]
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
