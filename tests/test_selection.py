"""The working-branch rule, shared by every solver, and enumerate_fk's tolerance dedup.

The rule is s = (-1, -1, -1) and R1 cos(alpha) > r1; the IK-level
selections also require the branch to be within limits, while the FK-level
selection reads the `reachable` flag that enumerate_fk sets by the rule.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from pkmkin import (AmbiguousSelectionError, ConfigurationIndices,
                    PlatformPose, enumerate_fk, enumerate_ik,
                    select_assembly_mode, select_machine_solution,
                    select_working_solution, tool_ik,
                    tool_pose_from_platform)
from pkmkin.parallel_fk import _dedup

from conftest import region_points

POINT = (-250.0, 60.0, 900.0)
WRONG_SIGNS = ((1, -1, -1), (-1, 1, -1), (-1, -1, 1))


def _working_ik(geom):
    return select_working_solution(enumerate_ik(geom, *POINT), geom)


@pytest.fixture(params=["ik", "machine", "fk"])
def selection(request, geom):
    """(select(items, geom), a real working item, its rule-level kind)."""
    working = _working_ik(geom)
    if request.param == "ik":
        return select_working_solution, working, "branch"
    if request.param == "machine":
        pose = PlatformPose.solved(geom, *POINT, working.alpha)
        tool = tool_pose_from_platform(geom, pose, 0.3, -0.4)
        working = select_machine_solution(tool_ik(geom, tool), geom)
        return select_machine_solution, working, "branch"
    mode = select_assembly_mode(enumerate_fk(geom, working.joints))
    return (lambda items, _geom: select_assembly_mode(items)), mode, "mode"


def test_empty_selects_none(selection, geom):
    select, _, _ = selection
    assert select([], geom) is None


def test_single_survivor_is_returned(selection, geom):
    select, working, _ = selection
    assert working is not None
    assert select([working], geom) is working


def test_two_survivors_raise(selection, geom):
    select, working, _ = selection
    twin = replace(working, residual_norm=working.residual_norm + 1.0)
    with pytest.raises(AmbiguousSelectionError) as exc:
        select([working, twin], geom)
    assert exc.value.survivors == [working, twin]


def test_rule_failures_are_dropped(selection, geom):
    select, working, kind = selection
    if kind == "mode":
        # select_assembly_mode filters on the flag enumerate_fk sets by the
        # rule (checked below); an unreachable mode is never chosen
        dropped = [replace(working, reachable=False)]
    else:
        dropped = [replace(working, indices=ConfigurationIndices(*s)) for s in WRONG_SIGNS]
        dropped.append(replace(working, alpha=math.pi / 2.0))  # R1 cos(alpha) < r1
        dropped.append(replace(working, within_limits=False))
        # R1 cos(alpha) = r1 exactly is a rod crossing too
        at_crossing = replace(geom, r1=geom.R1 * math.cos(working.alpha))
        assert select([working], at_crossing) is None
    for item in dropped:
        assert select([item], geom) is None, item
    assert select(dropped + [working] + dropped, geom) is working


def test_enumerate_fk_reachable_follows_the_rule(geom):
    rng = np.random.default_rng(31)
    # every IK branch's joints, the rod-crossing all-minus ones included
    joints = [s.joints for p in region_points(rng, 3) for s in enumerate_ik(geom, *p)]
    joints += [tuple(rng.uniform(-200.0, 1500.0, 3)) for _ in range(30)]
    seen = set()
    for rho in joints:
        for mode in enumerate_fk(geom, rho):
            all_minus = mode.indices.as_tuple() == (-1, -1, -1)
            uncrossed = geom.R1 * math.cos(mode.pose.alpha) > geom.r1
            assert mode.reachable == (all_minus and uncrossed)
            seen.add((all_minus, uncrossed))
    assert seen >= {(True, True), (True, False), (False, True)}


# ---------------------------------------------------------------------------
# tolerance dedup

def test_dedup_keeps_first_and_order():
    pairs = [((3.0, 0.0, 0.0, 0.0), "a"), ((1.0, 0.0, 0.0, 0.0), "b"),
             ((3.0, 0.0, 0.0, 0.0), "c"), ((2.0, 0.0, 0.0, 0.0), "d"),
             ((1.0, 0.0, 0.0, 0.0), "e")]
    assert _dedup(pairs, 0.25) == ["a", "b", "d"]


def test_dedup_merges_at_exactly_tol():
    tol = 0.5  # exact in binary, so every difference below is exact
    pairs = [((1.0, 2.0, 3.0, 4.0), "a"), ((1.5, 1.5, 3.5, 3.5), "b")]
    assert _dedup(pairs, tol) == ["a"]


@pytest.mark.parametrize("component", range(4))
def test_dedup_keeps_one_component_over_tol(component):
    tol = 0.5
    base = (1.0, 2.0, 3.0, 4.0)
    over = list(base)
    over[component] += tol + 2.0**-40
    pairs = [(base, "a"), (tuple(over), "b")]
    assert _dedup(pairs, tol) == ["a", "b"]
