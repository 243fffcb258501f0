"""Closed-form kinematics for a hybrid 5-axis machine tool.

A 3-DOF parallel module (two parallelogram legs and one trapezium leg on
vertical sliders, giving the platform a coupled rotation) carries the
spindle; a 2-DOF tilting table carries the workpiece.  The package computes
every inverse-kinematic branch and every forward-kinematic assembly mode at
both levels, selects the branch the physical machine uses, and cross-checks
everything against an independent multi-start Newton oracle.

The public names below are resolved on access (PEP 562), so importing the
package imports no solver module and no numpy: a CLI call loads only what
its command runs.  A name always resolves to its defining module's current
binding; nothing is cached in the package namespace.
"""

import importlib

__version__ = "0.1.0"

# defining module -> the public names it exports through the package
_EXPORTS = {
    "errors": ("AmbiguousSelectionError", "CoincidentOffsetError",
               "DegenerateOrientationError", "GeometryError", "InconsistentPoseError",
               "InterpolationError", "KinematicsError", "NegativeRadicandError",
               "SignRuleViolation", "UnreachableOrientationError"),
    "geometry": ("DEFAULT_SYNTHETIC", "SIXTEEN_BRANCH_REGION", "MachineGeometry",
                 "load_geometry", "read_geometry_file", "serialize_geometry", "validate"),
    "machine": ("MachineIkSolution", "MachineJoints", "ToolPose", "select_machine_solution",
                "tilt_candidates", "tilt_polynomial", "tool_ik", "tool_pose_from_platform"),
    "oracle": ("ResidualVector", "newton_fk", "newton_fk_batch",
               "residuals_machine", "residuals_parallel"),
    "parallel_fk": ("AssemblyMode", "enumerate_fk", "octic_from_joints",
                    "select_assembly_mode"),
    "parallel_ik": ("ConfigurationIndices", "IkSolution", "IsoEllipse", "ParallelJoints",
                    "PlatformPose", "coupling_cubic", "enumerate_ik", "iso_ellipse",
                    "joints_from_pose", "orientation_candidates",
                    "select_working_solution", "wrap_angle"),
    "rootfind": ("Polynomial", "real_roots", "real_roots_in_unit_interval"),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset((*_EXPORTS, "cli"))

__all__ = sorted(_ORIGIN)


def __getattr__(name):
    if name in _ORIGIN:
        return getattr(importlib.import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    # a submodule not imported yet (once imported, it is a package attribute)
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
