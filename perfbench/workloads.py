"""The four closed-loop workloads: seeded inputs, the timed item, the output check.

Every workload draws a pool of inputs from its seed before timing starts;
the timed loop cycles through that pool.  `run` is the timed part and calls
pkmkin only through module attributes, so the span wrappers see every call.
`check` runs outside the timed part and returns a failure reason (or None)
plus counts for the per-layer metrics.  `flatten` lists the floats that the
output-drift record compares against the stored reference.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from pkmkin import machine as mk
from pkmkin import oracle
from pkmkin import parallel_fk as pfk
from pkmkin import parallel_ik as pik
# checks use the unwrapped residual evaluation, bound before any tracing
from pkmkin.oracle import residuals_parallel

# Box on which the synthetic geometry has 16 IK branches, a unique working
# branch and a unique reachable mode (x, |y|, z; y takes either sign).  It
# is copied here so that the benchmark inputs do not move with the library.
REGION = ((-330.0, -170.0), (30.0, 150.0), (700.0, 1100.0))

IK_RESIDUAL_REL = 1e-8
FK_RESIDUAL_REL = 1e-7
ROUNDTRIP_POS_TOL = 1e-6
ROUNDTRIP_ANG_TOL = 1e-8
ORACLE_MATCH_TOL = 1e-5
NEWTON_STARTS = 100


def angle_delta(a, b):
    """Distance between two angles modulo 2 pi."""
    return abs(math.remainder(a - b, 2.0 * math.pi))


def region_points(rng, n):
    (x0, x1), (y0, y1), (z0, z1) = REGION
    pts = []
    for _ in range(n):
        x = rng.uniform(x0, x1)
        y = rng.uniform(y0, y1) * (1.0 if rng.uniform() < 0.5 else -1.0)
        z = rng.uniform(z0, z1)
        pts.append((x, y, z))
    return pts


def working_ik(geom, x, y, z):
    sol = pik.select_working_solution(pik.enumerate_ik(geom, x, y, z), geom)
    if sol is None:
        raise RuntimeError(f"no working IK branch at region point {(x, y, z)}")
    return sol


def _pose_floats(pose):
    return [pose.alpha, pose.x_p, pose.y_p, pose.z_p]


# -- tool-roundtrip ---------------------------------------------------------

def tool_inputs(geom, rng, n):
    """Acceptance-3 recipe: region point, its working IK, random table angles."""
    tools = []
    for x, y, z in region_points(rng, n):
        sol = working_ik(geom, x, y, z)
        pose = pik.PlatformPose.solved(geom, x, y, z, sol.alpha)
        theta1 = rng.uniform(-0.9, 0.9)
        theta2 = rng.uniform(-math.pi + 0.05, math.pi - 0.05)
        tools.append(mk.tool_pose_from_platform(geom, pose, theta1, theta2))
    return tools


def tool_run(geom, tool, index):
    chosen = mk.select_machine_solution(mk.tool_ik(geom, tool), geom)
    if chosen is None:
        return None, None, None
    mj = chosen.machine_joints
    mode = pfk.select_assembly_mode(pfk.enumerate_fk(geom, mj.joints))
    if mode is None:
        return chosen, None, None
    return chosen, mode, mk.tool_pose_from_platform(geom, mode.pose, mj.theta1, mj.theta2)


def tool_check(geom, tool, out):
    chosen, mode, back = out
    if chosen is None:
        return "no working machine solution", {}
    if chosen.machine_joints.theta2 != -tool.phi2:
        return "theta2 != -phi2", {}
    if mode is None:
        return "no reachable assembly mode", {}
    pos = max(abs(back.x_u - tool.x_u), abs(back.y_u - tool.y_u), abs(back.z_u - tool.z_u))
    ang = max(angle_delta(back.phi1, tool.phi1), angle_delta(back.phi2, tool.phi2))
    if pos > ROUNDTRIP_POS_TOL or ang > ROUNDTRIP_ANG_TOL:
        return f"round trip misses: {pos:.3e} mm, {ang:.3e} rad", {}
    return None, {}


def tool_flatten(out):
    chosen, _, back = out
    mj = chosen.machine_joints
    return [*mj.joints.as_tuple(), mj.theta1, mj.theta2,
            back.x_u, back.y_u, back.z_u, back.phi1, back.phi2]


def tool_cli(tool):
    return ["tool-ik", "--select", "--",
            *map(repr, (tool.x_u, tool.y_u, tool.z_u, tool.phi1, tool.phi2))]


# -- ik-sweep ---------------------------------------------------------------

def ik_inputs(geom, rng, n):
    return region_points(rng, n)


def ik_run(geom, point, index):
    solutions = pik.enumerate_ik(geom, *point)
    return solutions, pik.select_working_solution(solutions, geom)


def ik_check(geom, point, out):
    solutions, working = out
    if len(solutions) != 16:
        return f"{len(solutions)} branches, expected 16", {}
    if working is None:
        return "no working branch", {}
    bound = IK_RESIDUAL_REL * geom.residual_scale
    worst = max(residuals_parallel(geom, pik.PlatformPose(*point, s.alpha), s.joints).max_abs
                for s in solutions)
    if worst > bound:
        return f"IK residual {worst:.3e} > {bound:.3e}", {}
    return None, {}


def ik_flatten(out):
    solutions, _ = out
    return [v for s in sorted(solutions, key=lambda s: (s.alpha, s.indices.as_tuple()))
            for v in (*s.joints.as_tuple(), s.alpha)]


def ik_cli(point):
    return ["ik", "--select", "--", *map(repr, point)]


# -- joint-census -----------------------------------------------------------

def census_inputs(geom, rng, n):
    """Slider triples ~ U(-200, 1500)^3; every fourth has rho3 = rho2."""
    rho = rng.uniform(-200.0, 1500.0, size=(n, 3))
    rho[3::4, 2] = rho[3::4, 1]
    return [pik.ParallelJoints(*map(float, r)) for r in rho]


def census_run(geom, joints, index):
    return pfk.enumerate_fk(geom, joints)


def _fk_check(geom, joints, modes):
    if len(modes) > 6:
        return f"{len(modes)} assembly modes, expected at most 6"
    bound = FK_RESIDUAL_REL * geom.residual_scale
    for m in modes:
        worst = residuals_parallel(geom, m.pose, joints).max_abs
        if worst > bound:
            return f"FK residual {worst:.3e} > {bound:.3e}"
    return None


def census_check(geom, joints, modes):
    return _fk_check(geom, joints, modes), {}


def census_flatten(modes):
    return [v for m in modes for v in _pose_floats(m.pose)]


def fk_cli(joints):
    return ["fk", "--", *map(repr, joints.as_tuple())]


# -- oracle-crosscheck ------------------------------------------------------

def oracle_inputs(geom, rng, n):
    """Acceptance-5 mix: 3 of 5 working-region joints, 2 of 5 ~ U(-100, 1200)^3."""
    joints = []
    for i in range(n):
        if i % 5 < 3:
            joints.append(working_ik(geom, *region_points(rng, 1)[0]).joints)
        else:
            joints.append(pik.ParallelJoints(*map(float, rng.uniform(-100.0, 1200.0, size=3))))
    return joints


def oracle_run(geom, joints, index):
    modes = pfk.enumerate_fk(geom, joints)
    return modes, oracle.newton_fk(geom, joints, starts=NEWTON_STARTS, seed=index)


def oracle_check(geom, joints, out):
    modes, poses = out
    reason = _fk_check(geom, joints, modes)
    unmatched = sum(
        not any(abs(m.pose.x_p - px) <= ORACLE_MATCH_TOL
                and abs(m.pose.y_p - py) <= ORACLE_MATCH_TOL
                and abs(m.pose.z_p - pz) <= ORACLE_MATCH_TOL
                and angle_delta(m.pose.alpha, pa) <= ORACLE_MATCH_TOL for m in modes)
        for px, py, pz, pa in poses)
    if reason is None and unmatched:
        reason = f"{unmatched} Newton poses match no closed-form mode"
    return reason, {"unmatched": unmatched}


def oracle_flatten(out):
    modes, poses = out
    return census_flatten(modes) + [v for p in poses for v in (p[3], p[0], p[1], p[2])]


@dataclass(frozen=True)
class Workload:
    name: str
    pool: int            # inputs drawn per seed; the timed loop cycles through them
    inputs: Callable     # (geom, rng, n) -> list of inputs
    run: Callable        # (geom, input, pool index) -> output; the timed item
    check: Callable      # (geom, input, output) -> (failure reason or None, counts)
    flatten: Callable    # output -> floats compared by the drift record
    cli: Callable        # input -> pkmkin CLI command and arguments, geometry file left out
    cli_rows: Callable   # output -> rows the CLI call on that input must print


WORKLOADS = {w.name: w for w in (
    Workload("tool-roundtrip", 400, tool_inputs, tool_run, tool_check, tool_flatten, tool_cli,
             lambda out: int(out[0] is not None)),
    Workload("ik-sweep", 1000, ik_inputs, ik_run, ik_check, ik_flatten, ik_cli,
             lambda out: int(out[1] is not None)),
    Workload("joint-census", 600, census_inputs, census_run, census_check, census_flatten, fk_cli, len),
    Workload("oracle-crosscheck", 100, oracle_inputs, oracle_run, oracle_check, oracle_flatten, fk_cli,
             lambda out: len(out[0])),
)}


# workloads whose inputs are slider triples: the assembly-mode count of every
# input of the default seed's pool is checked against the stored reference
FK_WORKLOADS = ("joint-census", "oracle-crosscheck")


def mode_counts(geom, joints):
    return [len(pfk.enumerate_fk(geom, j)) for j in joints]


def make_inputs(workload, geom, seed):
    """The workload's input pool; the same seed gives the same inputs."""
    return workload.inputs(geom, np.random.default_rng(seed), workload.pool)
