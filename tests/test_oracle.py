import math
import tracemalloc
import warnings

import numpy as np
import pytest

from pkmkin import (MachineJoints, ParallelJoints, PlatformPose,
                    enumerate_fk, enumerate_ik, newton_fk, newton_fk_batch,
                    residuals_machine, residuals_parallel,
                    select_working_solution, tool_pose_from_platform)
from pkmkin import oracle
from pkmkin.oracle import (_INDEX, _POSE, _RESIDUALS, _ROWS, _SLIDERS, _SPLIT_COLUMNS,
                          _STEP_LENGTHS,
                          NEWTON_DEDUP_TOL, NEWTON_MAX_ITER, NEWTON_REL_TOL,
                          ResidualVector, _canonical, _evaluate,
                          _jacobian, _legs, _line_search, _newton_columns, _residuals,
                          _rods, default_start_box)

from conftest import angle_delta, region_points


def test_frozen_residuals_at_origin(geom):
    # hand-computed once from the synthetic dimensions:
    # leg I:  250^2 + (300-120)^2 - 490^2 = -145200
    # leg II: 180^2 + (180-120)^2 - 520^2 = -234400
    r = residuals_parallel(geom, PlatformPose(0.0, 0.0, 0.0, 0.0),
                           ParallelJoints(0.0, 0.0, 0.0))
    assert r.as_tuple() == (-145200.0, -145200.0, -234400.0, -234400.0)


def test_max_abs_is_nan_when_any_residual_is_nan(geom):
    # a NaN slider of leg II leaves legs I+ and I- finite
    r = residuals_parallel(geom, PlatformPose(-250.0, 60.0, 900.0, 0.3),
                           ParallelJoints(500.0, math.nan, 450.0))
    assert math.isfinite(r.r_3a) and math.isnan(r.r_4)
    assert math.isnan(r.max_abs)
    for k in range(4):
        values = [-3.0, 1.0, 2.0, -0.5]
        values[k] = math.nan
        assert math.isnan(ResidualVector(*values).max_abs)
    assert ResidualVector(-3.0, 1.0, 2.0, -0.5).max_abs == 3.0


def test_ik_solutions_have_tiny_residuals(geom):
    rng = np.random.default_rng(1)
    for x, y, z in region_points(rng, 10):
        for sol in enumerate_ik(geom, x, y, z):
            pose = PlatformPose(x, y, z, sol.alpha)
            r = residuals_parallel(geom, pose, sol.joints)
            assert r.max_abs <= 1e-8 * geom.residual_scale


def test_first_order_growth_in_z(geom):
    # the residuals are quadratic forms, so a unit z shift changes leg I by
    # exactly 2 (z + R1 sin a - rho1) + 1
    rng = np.random.default_rng(2)
    [(x, y, z)] = region_points(rng, 1)
    sol = select_working_solution(enumerate_ik(geom, x, y, z), geom)
    pose = PlatformPose(x, y, z, sol.alpha)
    bumped = PlatformPose(x, y, z + 1.0, sol.alpha)
    r0 = residuals_parallel(geom, pose, sol.joints)
    r1 = residuals_parallel(geom, bumped, sol.joints)
    expected = 2.0 * (z + geom.R1 * math.sin(sol.alpha) - sol.joints.rho1) + 1.0
    assert r1.r_3a - r0.r_3a == pytest.approx(expected, rel=1e-9)
    assert abs(r1.r_3a) > 1.0


def _state(legs, v):
    """The Newton state block at pose columns v (4, m), indexed 0..m-1, at
    the sliders of legs = _legs(geom, rho)[..., None]."""
    block = np.empty((_ROWS, v.shape[1]))
    block[_POSE] = v
    block[_INDEX] = np.arange(v.shape[1])
    block[_SLIDERS] = legs[4]
    _evaluate(legs, block)
    return block


def test_jacobian_matches_finite_differences(geom):
    rng = np.random.default_rng(3)
    legs = _legs(geom, (400.0, 380.0, 390.0))[..., None]
    vs = [np.array([rng.uniform(-400, -100), rng.uniform(-150, 150),
                    rng.uniform(600, 1200), rng.uniform(-2.5, 2.5)]) for _ in range(10)]
    every = _state(legs, np.column_stack(vs))
    for i, v in enumerate(vs):
        block = _state(legs, v[:, None])
        # one column evaluates to the bits it has among ten
        assert block[_INDEX + 1:].tobytes() == every[_INDEX + 1:, [i]].tobytes()
        [J] = _jacobian(legs, block)
        h = 1e-6
        f_mag = np.max(np.abs(block[_RESIDUALS]))
        for k in range(4):
            dv = np.zeros(4)
            dv[k] = h
            fd = (_state(legs, (v + dv)[:, None])[_RESIDUALS, 0]
                  - _state(legs, (v - dv)[:, None])[_RESIDUALS, 0]) / (2.0 * h)
            # cancellation noise in the difference is ~eps * |f| / h
            noise = 1e-15 * f_mag / h
            scale = max(1.0, np.max(np.abs(J[:, k])))
            assert np.all(np.abs(fd - J[:, k]) <= 1e-6 * scale + noise)


def test_rod_statement_same_bits_on_floats_and_rows(geom):
    # the scalar residual functions and the Newton batch share one statement:
    # Python floats give the bits of the matching column of the (4, n)
    # evaluation, legs leading
    rng = np.random.default_rng(10)
    legs = _legs(geom, (400.0, 380.0, 390.0))
    v = rng.uniform(-1.0, 1.0, size=(50, 4)) * np.array([400, 200, 1200, 3.3])
    x, y, z, alpha = v.T
    c, s = np.cos(alpha), np.sin(alpha)
    rods = _rods(legs[..., None], x, y, z, c, s)
    cols = _residuals(legs[..., None], rods)
    assert np.array_equal(cols, _state(legs[..., None], v.T)[_RESIDUALS])
    for i, (xi, yi, zi, _) in enumerate(v.tolist()):
        one = _rods(legs, xi, yi, zi, float(c[i]), float(s[i]))
        for scalar, batch in zip(one, rods):
            assert scalar.tobytes() == batch[:, i].tobytes()
        assert _residuals(legs, one).tobytes() == cols[:, i].tobytes()
    pose = PlatformPose(*v[0].tolist())
    tool = tool_pose_from_platform(geom, pose, 0.35, -0.8)
    joints = ParallelJoints(400.0, 380.0, 390.0)
    for r in (residuals_parallel(geom, pose, joints),
              residuals_machine(geom, tool, MachineJoints(joints=joints, theta1=0.35,
                                                          theta2=-0.8))):
        assert [type(f) for f in r.as_tuple()] == [float] * 4


def _halving_reference(legs, block, step, norm, work=None):
    """The sequential rule: halve lam from 1, up to 30 tries, until the norm
    drops; the improved columns and their residual max-norms."""
    lam = np.ones(block.shape[1])
    improved = np.zeros(block.shape[1], dtype=bool)
    trial = block.copy()
    for _ in range(30):
        pending = np.flatnonzero(~improved)
        cand = block[:, pending]
        cand[_POSE] += lam[pending] * step[:, pending]
        _evaluate(legs, cand)
        good = np.max(np.abs(cand[_RESIDUALS]), axis=0) < norm[pending]
        trial[:, pending[good]] = cand[:, good]
        improved[pending[good]] = True
        lam[pending[~good]] *= 0.5
    return trial[:, improved], np.max(np.abs(trial[_RESIDUALS, improved]), axis=0)


_MIXED_KS = [29, None, 0, 5, 9, 10, 19, 20, 5, None, 0, 29]


def _tiled(label, pattern, m):
    """A case of m columns: the entries of `pattern` repeated."""
    return pytest.param((pattern * m)[:m], id=f"{label}-{m}")


@pytest.mark.parametrize("ks", [[0], [5], [29], [None], _MIXED_KS,
                                [1], [0, 0, 0], [0, 1, None, 29]]
                         + [_tiled(label, pattern, m)
                            for m in (_SPLIT_COLUMNS, _SPLIT_COLUMNS + 1, 3 * _SPLIT_COLUMNS)
                            for label, pattern in (("stuck", [None]), ("full", [0]),
                                                   ("late", [9, 29]), ("mixed", _MIXED_KS))])
def test_damped_step_matches_halving(geom, ks):
    # v sits 1 mm off an exact pose; step = -2^k (v - pose) lands on the pose
    # at lam = 2^-k, the only lam within the norm bound of 1 mm^2.  k = None
    # has a zero step and the norm at v: only a strict drop counts, so no lam
    # improves and the column is stuck.  From _SPLIT_COLUMNS columns on, the
    # search takes two rounds: k < 4 columns are found in the first, the
    # others in the second or not at all.
    x, y, z = -250.0, 60.0, 900.0
    sol = select_working_solution(enumerate_ik(geom, x, y, z), geom)
    legs = _legs(geom, sol.joints.as_tuple())[..., None]
    d = np.array([0.6, -0.5, 0.4, 1e-3])
    v = np.tile((np.array([x, y, z, sol.alpha]) + d)[:, None], len(ks))
    block = _state(legs, v)
    stuck = np.array([k is None for k in ks])
    step = np.array([0.0 * d if k is None else -2.0**k * d for k in ks]).T
    norm = np.where(stuck, np.max(np.abs(block[_RESIDUALS]), axis=0), 1.0)
    ref, ref_norm = _halving_reference(legs, block, step, norm)
    assert np.array_equal(ref[_INDEX], np.flatnonzero(~stuck))
    for col, i in zip(ref.T, np.flatnonzero(~stuck)):
        assert np.array_equal(col[_POSE], v[:, i] + 2.0**-ks[i] * step[:, i])
    # a workspace sized for twice the columns, NaN where nothing is written:
    # the whole carried state (pose, index, sliders, cos, sin, rods,
    # residuals) and the max-norms come out with the reference's bits; a
    # two-round search gets exactly the floats of one 30-length round, so
    # its second round must fit behind its first in the same workspace
    spare = 2 if len(ks) < _SPLIT_COLUMNS else 1
    work = np.full((_ROWS + 4) * len(_STEP_LENGTHS) * spare * len(ks), np.nan)
    got, got_norm = _line_search(legs, block, step, norm, work)
    assert got.tobytes() == ref.tobytes()
    assert got_norm.tobytes() == ref_norm.tobytes()


def _acceptance_5_mix(geom, seed):
    """Three working-region joint vectors and two random slider triples."""
    rng = np.random.default_rng(seed)
    joints = [select_working_solution(enumerate_ik(geom, *p), geom).joints
              for p in region_points(rng, 3)]
    return joints + [ParallelJoints(*rng.uniform(-100.0, 1200.0, size=3)) for _ in range(2)]


@pytest.mark.parametrize("starts", [1, 100, 400])
def test_newton_matches_halving_line_search(geom, monkeypatch, starts):
    joints = _acceptance_5_mix(geom, 9)
    got = [newton_fk(geom, j, starts=starts, seed=i) for i, j in enumerate(joints)]
    monkeypatch.setattr(oracle, "_line_search", _halving_reference)
    assert [newton_fk(geom, j, starts=starts, seed=i) for i, j in enumerate(joints)] == got
    assert starts == 1 or all(got[:3])


def _plain_newton(geom, joints, starts, seed):
    """newton_fk restated as a plain loop over the starts' columns: the
    Jacobian written out from the rods, numpy.linalg's det and solve, and
    sequential halving.  Only the rod statement and the final wrap, sort
    and dedup (_canonical) are the oracle's own."""
    rho = joints.as_tuple()
    legs = _legs(geom, rho)[..., None]
    arm = legs[2]
    rng = np.random.default_rng(seed)
    v = np.array([rng.uniform(lo, hi, starts)
                  for lo, hi in (*default_start_box(geom, rho), (-math.pi, math.pi))])
    tol = NEWTON_REL_TOL * geom.residual_scale

    def evaluate(v):
        c, s = np.cos(v[3]), np.sin(v[3])
        rods = _rods(legs, *v[:3], c, s)
        return rods, c, s, _residuals(legs, rods)

    active = np.ones(starts, dtype=bool)
    converged = np.zeros(starts, dtype=bool)
    for _ in range(NEWTON_MAX_ITER):
        cols = np.flatnonzero(active)
        (dx, dy, dz), c, s, f = evaluate(v[:, cols])
        norm = np.max(np.abs(f), axis=0)
        # J[col, leg, (x, y, z, alpha)]
        J = np.stack([2 * dx, 2 * dy, 2 * dz, 2 * (dz * arm * c - dy * arm * s)],
                     axis=-1).transpose(1, 0, 2)
        done = norm <= tol
        singular = ~(np.abs(np.linalg.det(J)) > 1e-300)
        converged[cols[done]] = True
        active[cols[done | singular]] = False
        go = ~done & ~singular
        cols, f, norm = cols[go], f[:, go], norm[go]
        step = np.linalg.solve(J[go], -f.T[..., None])[..., 0].T
        lam = np.ones(len(cols))
        pending = np.ones(len(cols), dtype=bool)
        for _ in range(30):
            trial = v[:, cols] + lam * step
            better = pending & (np.max(np.abs(evaluate(trial)[3]), axis=0) < norm)
            v[:, cols[better]] = trial[:, better]
            pending &= ~better
            lam *= 0.5
        active[cols[pending]] = False
    cols = np.flatnonzero(active)
    converged[cols[np.max(np.abs(evaluate(v[:, cols])[3]), axis=0) <= tol]] = True
    return _canonical(v[:, converged].T.tolist())


def _brute_canonical(rows):
    """_canonical restated: the oracle's wrap of alpha, the sort by (alpha,
    x, y, z), then each pose kept when its max-norm distance to every pose
    kept before it exceeds NEWTON_DEDUP_TOL."""
    poses = []
    for x, y, z, a in rows:
        alpha = math.fmod(a + math.pi, 2.0 * math.pi)
        alpha = alpha + 2.0 * math.pi if alpha <= 0.0 else alpha
        poses.append((x, y, z, alpha - math.pi))
    kept = []
    for p in sorted(poses, key=lambda p: (p[3], p[0], p[1], p[2])):
        if all(np.max(np.abs(np.subtract(p, q))) > NEWTON_DEDUP_TOL for q in kept):
            kept.append(p)
    return kept


def test_canonical_dedup_boundary():
    tol = NEWTON_DEDUP_TOL
    # offsets from x, y, z = 0 are exact, so the distance is the offset
    # itself; an alpha near 0.5 on the grid of 2^-51 comes back from the
    # wrap unchanged, and no grid offset equals tol: take the grid offsets
    # either side of it
    grid = 2.0 ** -51
    cases = [(tol, math.nextafter(tol, math.inf))] * 3
    cases.append((math.floor(tol / grid) * grid, math.ceil(tol / grid) * grid))
    base = [0.0, 0.0, 0.0, 0.5]
    assert _canonical([base]) == [tuple(base)]
    for i, (inside, outside) in enumerate(cases):
        for sign in (1.0, -1.0):
            for offset, count in ((inside, 1), (outside, 2)):
                row = list(base)
                row[i] += sign * offset
                assert abs(row[i] - base[i]) == offset
                got = _canonical([base, row])
                assert len(got) == count
                assert got == _brute_canonical([base, row])


def test_canonical_wraps_minus_pi_to_pi():
    assert _canonical([[1.0, 2.0, 3.0, -math.pi]]) == [(1.0, 2.0, 3.0, math.pi)]
    assert _canonical([[1.0, 2.0, 3.0, math.pi], [1.0, 2.0, 3.0, -math.pi]]) == \
        [(1.0, 2.0, 3.0, math.pi)]


def test_canonical_matches_brute_force_on_clusters():
    # six clusters, alpha beyond (-pi, pi] too, with offsets inside, at and
    # beyond the dedup tolerance on every coordinate; greedy merging in the
    # canonical order decides which of a chain of near poses are kept
    rng = np.random.default_rng(12)
    tol = NEWTON_DEDUP_TOL
    centers = rng.uniform(-500.0, 500.0, (6, 4))
    centers[:, 3] = rng.uniform(-7.0, 7.0, 6)
    centers[5, 3] = -math.pi
    offsets = np.array([0.0, 0.5, -0.5, 1.0, -1.0, 1.6, 3.0]) * tol
    rows = (centers[rng.integers(6, size=300)] + rng.choice(offsets, (300, 4))).tolist()
    got = _canonical(rows)
    assert got == _brute_canonical(rows)
    assert got == sorted(got, key=lambda p: (p[3], p[0], p[1], p[2]))
    assert all(-math.pi < p[3] <= math.pi for p in got)
    assert 6 < len(got) < 300


@pytest.mark.parametrize("starts", [1, 100, 400, _SPLIT_COLUMNS - 1, _SPLIT_COLUMNS])
def test_newton_matches_plain_reference(geom, starts):
    # an independent restatement of the iteration: a change that moves any
    # Newton iterate by a rounding (the Jacobian's operation order, say)
    # shows up as a different pose
    joints = _acceptance_5_mix(geom, 9)
    want = [_plain_newton(geom, j, starts, seed) for seed, j in enumerate(joints)]
    assert [newton_fk(geom, j, starts=starts, seed=i) for i, j in enumerate(joints)] == want
    assert newton_fk_batch(geom, joints, starts, range(len(joints))) == want
    assert starts == 1 or all(want[:3])


@pytest.mark.parametrize("m", [1, 22, 500])
def test_direct_lapack_calls_match_numpy_linalg(geom, m):
    # the oracle calls the gufunc behind numpy.linalg.solve without its
    # wrapper; a numpy whose private gufunc differs fails here
    rng = np.random.default_rng(m)
    rho = (400.0, 380.0, 390.0)
    legs = _legs(geom, rho)[..., None]
    v = np.array([rng.uniform(lo, hi, m)
                  for lo, hi in (*default_start_box(geom, rho), (-math.pi, math.pi))])
    block = _state(legs, v)
    J = _jacobian(legs, block)
    b = -block[_RESIDUALS].T[..., None]
    assert oracle._solve(J, b, signature="dd->d").tobytes() == np.linalg.solve(J, b).tobytes()


def test_singular_and_nan_columns_stop_without_warning(geom):
    # leg II's rod vanishes at x = d2 - D2, y = R2 - r4, z = rho2, alpha = 0,
    # so that column's Jacobian has a zero row and det == 0 exactly; a NaN
    # pose gives a NaN column; both stop, and the regular columns around
    # them converge
    x, y, z = -250.0, 60.0, 900.0
    sol = select_working_solution(enumerate_ik(geom, x, y, z), geom)
    legs = _legs(geom, sol.joints.as_tuple())[..., None]
    near = np.array([x, y, z, sol.alpha]) + np.array([0.6, -0.5, 0.4, 1e-3])
    singular = [geom.d2 - geom.D2, geom.R2 - geom.r4, sol.joints.rho2, 0.0]
    block = _state(legs, np.column_stack([near, singular, [np.nan] * 4, near]))
    tol = NEWTON_REL_TOL * geom.residual_scale
    # the NaN column's det raises the invalid flag
    with np.errstate(invalid="ignore"):
        det = np.linalg.det(_jacobian(legs, block))
    assert det[1] == 0.0 and math.isnan(det[2]) and np.abs(det[[0, 3]]).min() > 1e-300
    assert np.max(np.abs(block[_RESIDUALS, 1])) > tol
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _newton_columns(legs, block, tol, NEWTON_MAX_ITER)
    assert got[_INDEX].tolist() == [0.0, 3.0]
    assert tuple(got[_POSE, 0]) == pytest.approx((x, y, z, sol.alpha), abs=1e-6)


@pytest.mark.parametrize("starts", [1, 100, 400, _SPLIT_COLUMNS - 1, _SPLIT_COLUMNS])
def test_batch_matches_scalar_per_vector(geom, starts):
    # the acceptance-5 mix, sliders that admit no assembly, and the first
    # vector again under another seed
    joints = _acceptance_5_mix(geom, 11)
    joints += [ParallelJoints(0.0, 3000.0, -3000.0), joints[0]]
    seeds = [3, 1, 4, 1, 5, 9, 2]
    got = newton_fk_batch(geom, joints, starts=starts, seeds=seeds)
    assert got == [newton_fk(geom, j, starts=starts, seed=k) for j, k in zip(joints, seeds)]
    assert got[5] == []
    assert starts == 1 or (got[0] and got[6])


def test_batch_solve_keeps_one_line_search_workspace(geom):
    # a two-round line search writes its second round behind its first in
    # the one workspace, 31 x 30 floats per start (7.44 MB for 1000
    # starts); the traced peak of the whole solve stays within 1.25 x that
    joints = _acceptance_5_mix(geom, 9) + _acceptance_5_mix(geom, 11)
    tracemalloc.start()
    try:
        newton_fk_batch(geom, joints, 100, range(len(joints)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    workspace = (_ROWS + 4) * len(_STEP_LENGTHS) * 100 * len(joints) * 8
    assert workspace == 7_440_000
    assert peak <= 1.25 * workspace


def test_batch_checks_its_seeds_and_takes_no_vectors(geom):
    joints = [ParallelJoints(400.0, 380.0, 390.0), ParallelJoints(420.0, 380.0, 390.0)]
    with pytest.raises(ValueError, match="seeds"):
        newton_fk_batch(geom, joints, 20, [1])
    assert newton_fk_batch(geom, [], 20, []) == []


def test_newton_finds_known_pose(geom):
    rng = np.random.default_rng(4)
    for x, y, z in region_points(rng, 5):
        sol = select_working_solution(enumerate_ik(geom, x, y, z), geom)
        poses = newton_fk(geom, sol.joints, starts=100, seed=5)
        assert any(abs(px - x) <= 1e-6 and abs(py - y) <= 1e-6
                   and abs(pz - z) <= 1e-6 and abs(pa - sol.alpha) <= 1e-8
                   for px, py, pz, pa in poses)


def test_newton_solutions_all_match_symbolic_modes(geom):
    rng = np.random.default_rng(5)
    for x, y, z in region_points(rng, 5):
        sol = select_working_solution(enumerate_ik(geom, x, y, z), geom)
        modes = enumerate_fk(geom, sol.joints)
        for px, py, pz, pa in newton_fk(geom, sol.joints, starts=100, seed=6):
            assert any(abs(m.pose.x_p - px) <= 1e-5 and abs(m.pose.y_p - py) <= 1e-5
                       and abs(m.pose.z_p - pz) <= 1e-5
                       and angle_delta(m.pose.alpha, pa) <= 1e-5 for m in modes)


def test_newton_fixed_point(geom):
    x, y, z = -250.0, 60.0, 900.0
    sol = select_working_solution(enumerate_ik(geom, x, y, z), geom)
    # one start at the closed-form pose, two iterations
    legs = _legs(geom, sol.joints.as_tuple())[..., None]
    block = _state(legs, np.array([[x], [y], [z], [sol.alpha]]))
    got = _newton_columns(legs, block, NEWTON_REL_TOL * geom.residual_scale, 2)
    assert got.shape == (_INDEX + 1, 1)
    assert tuple(got[_POSE, 0]) == pytest.approx((x, y, z, sol.alpha), abs=1e-9)


def test_newton_deterministic(geom):
    sol = select_working_solution(enumerate_ik(geom, -250.0, 60.0, 900.0), geom)
    a = newton_fk(geom, sol.joints, starts=64, seed=42)
    b = newton_fk(geom, sol.joints, starts=64, seed=42)
    assert a == b


def test_newton_rejects_bad_starts(geom):
    # a float or bool start count is a ValueError naming it, not a TypeError
    # from deep inside the solve
    joints = ParallelJoints(400.0, 380.0, 390.0)
    for starts in (0, -3, 100.0, True, False, "100", None):
        with pytest.raises(ValueError, match="starts"):
            newton_fk(geom, joints, starts=starts)
        with pytest.raises(ValueError, match="starts"):
            newton_fk_batch(geom, [joints], starts, [0])
    # an integer of another type is a start count
    assert newton_fk(geom, joints, starts=np.int64(5), seed=3) == newton_fk(geom, joints, 5, 3)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_newton_rejects_non_finite_sliders(geom, bad):
    joints = ParallelJoints(400.0, bad, 390.0)
    with pytest.raises(ValueError, match="rho2"):
        newton_fk(geom, joints)
    with pytest.raises(ValueError, match="rho2"):
        newton_fk_batch(geom, [ParallelJoints(400.0, 380.0, 390.0), joints], 100, [0, 1])


def test_newton_overflow_raises_without_warning(geom):
    joints = ParallelJoints(1e200, 400.0, 380.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError):
            newton_fk(geom, joints)
        with pytest.raises(OverflowError):
            newton_fk_batch(geom, [ParallelJoints(400.0, 380.0, 390.0), joints], 100, [0, 1])


def test_machine_residuals_direct_evaluation(geom):
    rng = np.random.default_rng(7)
    [(x, y, z)] = region_points(rng, 1)
    sol = select_working_solution(enumerate_ik(geom, x, y, z), geom)
    pose = PlatformPose.solved(geom, x, y, z, sol.alpha)
    th1, th2 = 0.35, -0.8
    tool = tool_pose_from_platform(geom, pose, th1, th2)
    mj = MachineJoints(joints=sol.joints, theta1=th1, theta2=th2)
    r = residuals_machine(geom, tool, mj)
    assert r.max_abs <= 1e-8 * geom.residual_scale
    # perturbing rho1 by 1 mm grows leg I quadratically, exact form
    bumped = MachineJoints(joints=ParallelJoints(sol.joints.rho1 + 1.0,
                                                 sol.joints.rho2,
                                                 sol.joints.rho3),
                           theta1=th1, theta2=th2)
    rb = residuals_machine(geom, tool, bumped)
    assert rb.r_3a != pytest.approx(r.r_3a, abs=1.0)


def test_oracle_agrees_with_solver_internals(geom):
    # dual-route check: oracle and solver restate the same equations
    from pkmkin.parallel_ik import constraint_residuals
    rng = np.random.default_rng(8)
    for _ in range(10):
        v = rng.uniform(-1.0, 1.0, size=4) * np.array([300, 150, 1000, 3])
        rho = ParallelJoints(*rng.uniform(0, 1000, size=3))
        a = residuals_parallel(geom, PlatformPose(v[0], v[1], v[2], v[3]), rho)
        pose_alpha = PlatformPose(v[0], v[1], v[2], v[3]).alpha
        b = constraint_residuals(geom, v[0], v[1], v[2], pose_alpha, *rho.as_tuple())
        assert a.as_tuple() == pytest.approx(b, rel=1e-15, abs=1e-9)
