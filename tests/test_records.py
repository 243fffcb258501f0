"""Contract of the records the solvers build on every call.

Each is declared with parallel_ik._record, which generates from the
dataclass fields an __init__ that stores them in one step; these tests pin
that __init__ to the fields and check that the records still behave as
frozen dataclasses.
"""

import inspect
import math
import pickle
from dataclasses import FrozenInstanceError, fields, replace

import pytest

from pkmkin.machine import MachineIkSolution, MachineJoints, ToolPose
from pkmkin.parallel_fk import AssemblyMode
from pkmkin.parallel_ik import (ConfigurationIndices, IkSolution, ParallelJoints,
                                PlatformPose, wrap_angle)

JOINTS = ParallelJoints(900.0, 870.5, 910.25)
INDICES = ConfigurationIndices(-1, 1, -1)
POSE = PlatformPose(-250.0, 60.0, 900.0, 0.1)
RECORDS = [
    JOINTS,
    IkSolution(JOINTS, 0.1, INDICES, 1e-12, True),
    POSE,
    AssemblyMode(POSE, INDICES, 2e-12, False),
    ToolPose(10.0, -20.0, 30.0, 0.3, -0.7),
    MachineJoints(JOINTS, 0.2, -0.4),
    MachineIkSolution(MachineJoints(JOINTS, 0.2, -0.4), INDICES, 0.5, 3e-12, True),
]
IDS = [type(record).__name__ for record in RECORDS]


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_init_parameters_are_the_fields_in_order(record):
    cls = type(record)
    params = list(inspect.signature(cls.__init__).parameters)
    assert params[1:] == [f.name for f in fields(cls)]
    values = [getattr(record, f.name) for f in fields(cls)]
    assert cls(*values) == record
    assert list(vars(record)) == [f.name for f in fields(cls)]


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_replace_gives_an_equal_record_with_an_equal_hash(record):
    copy = replace(record)
    assert copy is not record
    assert copy == record
    assert hash(copy) == hash(record)
    assert repr(copy) == repr(record)


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_fields_are_frozen(record):
    for f in fields(record):
        with pytest.raises(FrozenInstanceError):
            setattr(record, f.name, getattr(record, f.name))
        with pytest.raises(FrozenInstanceError):
            delattr(record, f.name)


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_pickle_round_trip_gives_an_equal_record(record):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        loaded = pickle.loads(pickle.dumps(record, protocol))
        assert loaded == record
        assert hash(loaded) == hash(record)


def test_repr_is_the_dataclass_repr():
    assert repr(POSE) == f"PlatformPose(x_p=-250.0, y_p=60.0, z_p=900.0, alpha={wrap_angle(0.1)!r})"
    assert repr(JOINTS) == "ParallelJoints(rho1=900.0, rho2=870.5, rho3=910.25)"


def test_platform_pose_wraps_alpha_on_construction_and_replace():
    pose = PlatformPose(1.0, 2.0, 3.0, 7.0)
    assert pose.alpha == wrap_angle(7.0) and -math.pi < pose.alpha <= math.pi
    assert PlatformPose(1.0, 2.0, 3.0, -math.pi).alpha == math.pi
    assert replace(pose, alpha=-7.0).alpha == wrap_angle(-7.0)
    assert replace(pose, x_p=5.0).alpha == pose.alpha
    with pytest.raises(ValueError, match="inf"):
        PlatformPose(1.0, 2.0, 3.0, math.inf)


def test_tool_pose_wraps_both_angles_on_construction_and_replace():
    tool = ToolPose(1.0, 2.0, 3.0, 7.0, -7.0)
    assert (tool.phi1, tool.phi2) == (wrap_angle(7.0), wrap_angle(-7.0))
    assert ToolPose(1.0, 2.0, 3.0, -math.pi, -math.pi).phi2 == math.pi
    moved = replace(tool, phi1=4.0, phi2=-4.0)
    assert (moved.phi1, moved.phi2) == (wrap_angle(4.0), wrap_angle(-4.0))
    assert replace(tool, x_u=5.0).phi2 == tool.phi2
    # phi1 is checked first
    with pytest.raises(ValueError, match="nan"):
        ToolPose(1.0, 2.0, 3.0, math.nan, math.inf)
