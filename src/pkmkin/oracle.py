"""Independent numeric ground truth for the symbolic solvers.

This module re-states the rod-length constraints directly from the machine
description and solves them with a multi-start damped Newton iteration.  It
deliberately shares no code with the closed-form IK/FK modules so that
agreement between the two routes is a genuine cross-check (the machine's
own controller historically used an iterative resolution of the same
equations).  `newton_fk_batch` solves many joint vectors' starts as the
columns of one lockstep iteration, with each vector's result unchanged.
"""

import math
import operator
from dataclasses import dataclass

import numpy as np
# the LAPACK gufunc behind numpy.linalg.solve; private API, so numpy < 2.5
from numpy.linalg._umath_linalg import solve as _solve

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
        """The largest |residual|, NaN when any residual is NaN (`max` alone
        keeps a NaN only when it comes first)."""
        values = [abs(v) for v in self.as_tuple()]
        return math.nan if any(map(math.isnan, values)) else max(values)


def _legs(geom, rho):
    """Per-leg constants of the rod statement, legs I+, I-, II, III along
    each row: base offset D, platform offset d, signed arm, lateral offset,
    slider coordinate and squared rod length; shape (6, 4).  `[..., None]`
    gives one column per leg for a batch of pose rows."""
    D1, D2, d1, d2 = geom.D1, geom.D2, geom.d1, geom.d2
    R1, r1, R2, r4 = geom.R1, geom.r1, geom.R2, geom.r4
    return np.array([[D1, D1, D2, D2], [d1, d1, d2, d2],
                     [R1, -R1, -R2, R2], [-r1, r1, r4, -r4],
                     [rho[0], rho[0], rho[1], rho[2]],
                     [geom.L1**2, geom.L1**2, geom.L2**2, geom.L3**2]])


def _rods(legs, x, y, z, c, s, out=(None, None, None)):
    """The four rod vectors (dx, dy, dz), legs on the leading axis, at
    platform position (x, y, z) with c, s = cos, sin(alpha); written into
    `out` when given.

    Floats give shape (4,).  Poses on a trailing axis, against legs with a
    matching trailing axis, give (4, n) with the same bits column by
    column, since each leg's arithmetic is elementwise.
    """
    D, d, arm, off, rho, _ = legs
    dx, dy, dz = out
    dx = np.add(x, D, out=dx)
    dx -= d
    dy = np.multiply(arm, c, out=dy)
    dy += y
    dy += off
    dz = np.multiply(arm, s, out=dz)
    dz += z
    dz -= rho
    return dx, dy, dz


def _residuals(legs, rods, out=None, squares=None):
    """dx^2 + dy^2 + dz^2 - L^2 per leg; written into `out` when given, and
    the dy and dz squares into `squares` in turn."""
    dx, dy, dz = rods
    f = np.square(dx, out=out)
    f += np.square(dy, out=squares)
    f += np.square(dz, out=squares)
    f -= legs[5]
    return f


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


# Rows of a Newton state block, one column per start: the pose (x, y, z,
# alpha), the start's index (exact in binary) and its slider per leg, then
# what `_evaluate` fills in: cos and sin alpha, and the rods (dx, dy, dz)
# and the residual of each leg.
_POSE, _INDEX, _SLIDERS = slice(0, 4), 4, slice(5, 9)
_COS, _SIN, _RODS, _RESIDUALS = 9, 10, slice(11, 23), slice(23, 27)
_ROWS = 27


def _rows(legs, block):
    """The views of a state block's rows that `_fill` reads and writes:
    x, y, z, alpha, cos, sin, `legs` with the block's slider row in place
    of its own, the rods (3, 4, m) and the residuals (4, m)."""
    x, y, z, alpha = block[_POSE]
    return (x, y, z, alpha, block[_COS], block[_SIN],
            (*legs[:4], block[_SLIDERS], legs[5]),
            block[_RODS].reshape(3, 4, -1), block[_RESIDUALS])


def _fill(rows, squares=None):
    """Fill cos, sin, rods and residuals from the pose and slider rows of
    `_rows`, in place; `squares`, of the residuals' shape, takes the
    intermediate squares."""
    x, y, z, alpha, c, s, legs, rods, residuals = rows
    np.cos(alpha, out=c)
    np.sin(alpha, out=s)
    _rods(legs, x, y, z, c, s, out=rods)
    _residuals(legs, rods, out=residuals, squares=squares)


def _evaluate(legs, block, squares=None):
    """Fill a state block's cos, sin, rods and residuals from its pose and
    slider rows, in place; `legs` is `_legs(geom, rho)[..., None]`, of
    which the sliders come from the block instead; `squares`, of the
    residuals' shape, takes the intermediate squares."""
    _fill(_rows(legs, block), squares)


def _fill_jacobian(rows, J, scratch):
    """The analytic Jacobian of the residuals of the columns of `_rows`,
    written into J of shape (4, 4, m), whose transpose has one matrix per
    column and one leg per matrix row; `scratch` is (4, m)."""
    _, _, _, _, c, s, legs, rods, _ = rows
    _, dy, dz = rods
    np.multiply(2, rods, out=J[:3])
    # each rod's platform end sits at arm * (cos, sin)(alpha) in (y, z):
    # 2 (dz arm c - dy arm s), in that order
    turn = np.multiply(dz, legs[2], out=J[3])
    turn *= c
    np.multiply(dy, legs[2], out=scratch)
    scratch *= s
    turn -= scratch
    turn *= 2


def _jacobian(legs, block):
    """Analytic Jacobian of the residuals of a state block's columns;
    shape (m, 4, 4), one leg per matrix row."""
    J = np.empty((4, 4, block.shape[1]))
    _fill_jacobian(_rows(legs, block), J, np.empty(J.shape[1:]))
    return J.T


# the damped step lengths 2^-k for k = 0..29, exact in binary
_STEP_LENGTHS = np.ldexp(1.0, -np.arange(30))[:, None]

# A line search over at least _SPLIT_COLUMNS columns tries the first
# _FIRST_LENGTHS lengths on every column, then the other 26 only on the
# columns none of those improved.  On the oracle-crosscheck pool of seed 0,
# with 60 or more active starts, 43 % of the column-steps take lam = 1 and
# 67 % one of the first 4 lengths; with fewer, 13 % do, and the second
# round's fixed numpy cost outweighs the columns it saves.  On 2 vCPUs
# (CPython 3.11, numpy 2.4) 60 / 4 made a 100-start newton_fk 2-3 % faster
# than one 30-length round; on the pools of seeds 0 and 3, 40 / 4, 80 / 4,
# 60 / 3, 60 / 6 and 50 / 5 measured from 3 % slower to 1 % faster.
_SPLIT_COLUMNS = 60
_FIRST_LENGTHS = 4


class _Trials:
    """One line-search round's views of a flat workspace: each length of
    `lengths` (shape (k, 1)) on each of m columns, as a trial state block
    of k x m columns, length-major, in the workspace's first 31 k m floats;
    `rest` is the workspace after them."""

    def __init__(self, legs, work, lengths, m):
        n = len(lengths) * m
        self.lengths = lengths
        self.trial = work[:_ROWS * n].reshape(_ROWS, n)
        self.squares = work[_ROWS * n:(_ROWS + 4) * n].reshape(4, n)
        moved = self.trial[:_COS].reshape(_COS, len(lengths), m)
        self.pose, self.carried = moved[_POSE], moved[_INDEX:]
        self.rows = _rows(legs, self.trial)
        self.rest = work[(_ROWS + 4) * n:]

    def norms(self, block, step):
        """Set the trial block from the pose, index and slider rows of
        `block` (m columns) and `step`, evaluate it, and return the
        residual max-norm of each trial column."""
        np.multiply(self.lengths, step[:, None], out=self.pose)
        self.pose += block[_POSE, None]
        self.carried[...] = block[_INDEX:_COS, None]
        _fill(self.rows, self.squares)
        return np.abs(self.rows[-1], out=self.squares).max(axis=0)


def _first_round(legs, work, m):
    """The first line-search round of m columns in `work`: all 30 lengths
    below _SPLIT_COLUMNS columns, the first _FIRST_LENGTHS from there on."""
    lengths = _STEP_LENGTHS if m < _SPLIT_COLUMNS else _STEP_LENGTHS[:_FIRST_LENGTHS]
    return _Trials(legs, work, lengths, m)


def _line_search(legs, block, step, norm, work):
    """Per column of a state block, the first pose + lam * step with lam =
    1, 1/2, ..., 2^-29 whose residual max-norm is below `norm`.

    Below _SPLIT_COLUMNS columns all 30 lengths are evaluated as one block
    of 30 x m columns, held in the front of the flat workspace `work`.
    From _SPLIT_COLUMNS on, a first round evaluates the first 4 lengths on
    every column, and a second the other 26 on the p columns none of
    those improved, written after the first round's 31 x 4 m floats; both
    fit in the 31 x 30 m floats of the one-round search.  Either way the
    first length that improves is the lam that halving from 1 until the
    norm drops would pick.  `work` may also be the `_first_round` of the
    workspace for blocks of this width, kept across calls.  Returns the
    state block at the accepted steps, in block order and without the
    columns no lam improved, and the residual max-norm of each of its
    columns.
    """
    m = block.shape[1]
    first = work if isinstance(work, _Trials) else _first_round(legs, work, m)
    trial, norms = first.trial, first.norms(block, step)
    good = norms.reshape(-1, m) < norm
    found = good.any(axis=0)
    length = good.argmax(axis=0)
    if len(first.lengths) < len(_STEP_LENGTHS) and not found.all():
        rest = (~found).nonzero()[0]
        later = _Trials(legs, first.rest, _STEP_LENGTHS[len(first.lengths):], len(rest))
        later_norms = later.norms(block[:_COS, rest], step[:, rest])
        good = later_norms.reshape(-1, len(rest)) < norm[rest]
        hit = good.any(axis=0).nonzero()[0]
        # a column the second round improves takes over its own lam = 1
        # slot of the first round, which it did not accept
        taken = good.argmax(axis=0)[hit] * len(rest) + hit
        trial[:, rest[hit]] = later.trial[:, taken]
        norms[rest[hit]] = later_norms[taken]
        found[rest[hit]] = True
    cols = found.nonzero()[0]
    picked = length[cols] * m + cols
    return trial[:, picked], norms[picked]


def _newton_columns(legs, block, tol, max_iter):
    """Damped Newton on the independent columns of a state block whose pose,
    index and slider rows are set, all in lockstep.

    Each iteration damps the Newton step of every active column by the
    first of 1, 1/2, ..., 2^-29 that lowers the residual max-norm; a column
    that no step improves stops, as do converged and NaN columns.  A
    singular column, one whose Jacobian's LU has an exactly zero pivot,
    gets a NaN step from solve, which no length improves, so it stops too;
    a column with |det J| <= 1e-300 and no zero pivot takes its step.  The
    accepted step's rods, (cos, sin), residuals and max-norm carry over to
    the next Jacobian.  Every line search works in one flat workspace, sized
    for the first, which has the most columns.  While no column stops, the
    accepted steps are copied back into the same block, so its row views,
    the Jacobian, right-hand side and step buffers and the line search's
    first-round views are built once per active set.  Returns the pose and
    index rows of the columns that converged to `tol`.
    """
    _evaluate(legs, block)
    norm = np.abs(block[_RESIDUALS]).max(axis=0)
    work = np.empty((_ROWS + 4) * len(_STEP_LENGTHS) * block.shape[1])
    done = []
    viewed = None
    for _ in range(max_iter):
        # converged and NaN columns (a NaN fails the test) stop
        go = norm > tol
        if not go.all():
            done.append(block[:_INDEX + 1, norm <= tol])
            block, norm = block[:, go], norm[go]
        m = block.shape[1]
        if not m:
            break
        if block is not viewed:
            # a new active set: its views and buffers, and solve's
            # (m, 4, 4) and (m, 4, 1) views of the Jacobian, -f and step
            viewed, rows, first = block, _rows(legs, block), _first_round(legs, work, m)
            J = np.empty((4, 4, m))
            scratch, rhs, step = np.empty((3, 4, m))
            solve_in, solve_out = (J.T, rhs.T[..., None]), step.T[..., None]
        _fill_jacobian(rows, J, scratch)
        np.negative(rows[-1], out=rhs)
        # numpy.linalg.solve's own floating-point state, with the invalid
        # flag ignored as well: a singular column raises it in solve
        with np.errstate(all="ignore"):
            _solve(*solve_in, signature="dd->d", out=solve_out)
        accepted, norm = _line_search(legs, block, step, norm, first)
        if accepted.shape[1] == m:
            block[...] = accepted
        else:
            block = accepted
    done.append(block[:_INDEX + 1, norm <= tol])
    return np.concatenate(done, axis=1)


def _canonical(rows):
    """Distinct poses from converged (x, y, z, alpha) rows: alpha wrapped to
    (-pi, pi], sorted canonically, deduplicated at NEWTON_DEDUP_TOL."""
    found = []
    for x, y, z, a in rows:
        # normalize to (-pi, pi] with -pi canonicalized to +pi
        alpha = math.fmod(a + math.pi, 2.0 * math.pi)
        alpha = alpha + 2.0 * math.pi if alpha <= 0.0 else alpha
        found.append((x, y, z, alpha - math.pi))
    found.sort(key=lambda p: (p[3], p[0], p[1], p[2]))
    tol = NEWTON_DEDUP_TOL
    distinct = []
    for p in found:
        x, y, z, alpha = p
        for qx, qy, qz, qa in distinct:
            if (abs(x - qx) <= tol and abs(y - qy) <= tol and abs(z - qz) <= tol
                    and abs(alpha - qa) <= tol):
                break
        else:
            distinct.append(p)
    return distinct


def _finite_sliders(joints):
    rho = tuple(map(float, joints.as_tuple()))
    for name, value in zip(("rho1", "rho2", "rho3"), rho):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    return rho


def _newton(geom, joints_seq, starts, seeds):
    """Poses per joint vector, its starts drawn from its own seed in its
    default_start_box and (-pi, pi] as columns of one lockstep Newton solve."""
    try:
        count = operator.index(starts)
    except TypeError:
        count = None
    if count is None or isinstance(starts, bool) or count < 1:
        raise ValueError(f"starts must be an integer >= 1, got {starts!r}")
    starts = count
    rhos = [_finite_sliders(j) for j in joints_seq]
    if len(seeds) != len(rhos):
        raise ValueError(f"{len(seeds)} seeds for {len(rhos)} joint vectors")
    if not rhos:
        return []
    block = np.empty((_ROWS, len(rhos) * starts))
    for k, (rho, seed) in enumerate(zip(rhos, seeds)):
        rng = np.random.default_rng(seed)
        cols = block[:, k * starts:(k + 1) * starts]
        for row, (lo, hi) in zip(cols[_POSE], (*default_start_box(geom, rho), (-math.pi, math.pi))):
            row[:] = rng.uniform(lo, hi, starts)
        cols[_SLIDERS] = _legs(geom, rho)[4, :, None]
    block[_INDEX] = np.arange(block.shape[1])
    try:
        # sliders beyond about 1e154 overflow the squared rod lengths
        with np.errstate(over="raise"):
            # the columns carry their sliders; the table's own slider row goes unused
            found = _newton_columns(_legs(geom, rhos[0])[..., None], block,
                                    NEWTON_REL_TOL * geom.residual_scale, NEWTON_MAX_ITER)
    except FloatingPointError as exc:
        raise OverflowError(f"newton oracle: {exc}") from None
    rows = [[] for _ in rhos]
    for *pose, index in found.T.tolist():
        rows[int(index) // starts].append(pose)
    return [_canonical(r) for r in rows]


def newton_fk(geom, joints, starts=100, seed=0):
    """Multi-start damped Newton on the 4-residual system.

    The starts are drawn from `seed`: positions uniform in
    default_start_box(geom, rho), alpha uniform in (-pi, pi].  Returns the
    distinct converged poses as (x_p, y_p, z_p, alpha) tuples (alpha in
    (-pi, pi]), deduplicated at 1e-6 and sorted canonically; non-convergent
    starts are dropped.  All starts iterate in lockstep, so the result is
    deterministic for a fixed seed and independent of any execution order.

    Each outer iteration damps the Newton step of every active start by the
    first of 1, 1/2, ..., 2^-29 that lowers the residual max-norm: exactly
    the step that halving from 1 would pick.  While 60 or more starts are
    active, a first batched pass tries the lengths 1 to 1/8 on every start
    and a second the other 26 on the starts none of those improved; with
    fewer, all 30 lengths are tried in one pass.  Both use one workspace
    allocated once per call for 30 candidates per start: 31 floats each,
    about 740 KB at 100 starts.  A
    start that no step improves stops, among them a singular start, one
    whose Jacobian's LU has an exactly zero pivot (its step is NaN), and
    every start stops after 100 iterations.  ValueError for starts not an
    integer >= 1 (a bool is not one) or a non-finite slider, OverflowError
    when the sliders are too large for floats.
    """
    [poses] = _newton(geom, [joints], starts, [seed])
    return poses


def newton_fk_batch(geom, joints_seq, starts, seeds):
    """`newton_fk` for a sequence of joint vectors in one lockstep solve.

    Vector k draws its starts from seeds[k] and its own default box, exactly
    as `newton_fk` does, so the k-th returned list is `==` to
    `newton_fk(geom, joints_seq[k], starts, seeds[k])`.  The line search
    takes its two passes while 60 or more starts of all vectors together
    are active.  Its one workspace holds 30 candidates per start of every
    vector, 7.4 KB per start, which both passes share, so the memory grows
    with the batch: 50 vectors of 100 starts take about 37 MB.
    """
    return _newton(geom, joints_seq, starts, seeds)
