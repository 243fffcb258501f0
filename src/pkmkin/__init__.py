"""Closed-form kinematics for a hybrid 5-axis machine tool.

A 3-DOF parallel module (two parallelogram legs and one trapezium leg on
vertical sliders, giving the platform a coupled rotation) carries the
spindle; a 2-DOF tilting table carries the workpiece.  The package computes
every inverse-kinematic branch and every forward-kinematic assembly mode at
both levels, selects the branch the physical machine uses, and cross-checks
everything against an independent multi-start Newton oracle.
"""

from .errors import (AmbiguousSelectionError, CoincidentOffsetError,
                     DegenerateDenominatorError, DegenerateOrientationError,
                     GeometryError, InconsistentPoseError, InterpolationError,
                     KinematicsError, NegativeRadicandError, SignRuleViolation,
                     UnreachableOrientationError)
from .geometry import (DEFAULT_SYNTHETIC, SIXTEEN_BRANCH_REGION,
                       MachineGeometry, load_geometry, read_geometry_file,
                       serialize_geometry, validate, write_geometry_file)
from .machine import (MachineIkSolution, MachineJoints, ToolPose,
                      platform_from_tool, select_machine_solution,
                      table_transform, tilt_candidates, tilt_polynomial,
                      tool_fk, tool_ik, tool_pose_from_platform)
from .oracle import (ResidualVector, newton_fk, newton_fk_batch,
                     residuals_machine, residuals_parallel)
from .parallel_fk import (AssemblyMode, enumerate_fk, octic_from_joints,
                          select_assembly_mode, xp_from, yp_from, zp_from)
from .parallel_ik import (RHO1_PINNED, ConfigurationIndices, IkSolution,
                          IsoEllipse, ParallelJoints, PlatformPose,
                          allowed_s1, coupling_cubic, enumerate_ik,
                          iso_ellipse, joints_from_pose,
                          orientation_candidates, select_working_solution,
                          wrap_angle)
from .rootfind import Polynomial, real_roots, real_roots_in_unit_interval

__version__ = "0.1.0"

__all__ = [
    "AmbiguousSelectionError", "AssemblyMode", "CoincidentOffsetError",
    "ConfigurationIndices", "DEFAULT_SYNTHETIC", "DegenerateDenominatorError",
    "DegenerateOrientationError", "GeometryError", "IkSolution",
    "InconsistentPoseError", "InterpolationError", "IsoEllipse",
    "KinematicsError", "MachineGeometry", "MachineIkSolution", "MachineJoints",
    "NegativeRadicandError", "ParallelJoints", "PlatformPose", "Polynomial",
    "RHO1_PINNED", "ResidualVector", "SIXTEEN_BRANCH_REGION",
    "SignRuleViolation", "ToolPose", "UnreachableOrientationError",
    "allowed_s1", "coupling_cubic", "enumerate_fk", "enumerate_ik",
    "iso_ellipse", "joints_from_pose", "load_geometry", "newton_fk",
    "newton_fk_batch", "octic_from_joints", "orientation_candidates",
    "platform_from_tool",
    "read_geometry_file", "real_roots", "real_roots_in_unit_interval",
    "residuals_machine", "residuals_parallel", "select_assembly_mode",
    "select_machine_solution", "select_working_solution",
    "serialize_geometry", "table_transform", "tilt_candidates",
    "tilt_polynomial", "tool_fk", "tool_ik", "tool_pose_from_platform",
    "validate", "wrap_angle", "write_geometry_file",
    "xp_from", "yp_from", "zp_from",
]
