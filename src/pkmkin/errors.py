"""Exception hierarchy for the kinematics engine."""


class KinematicsError(Exception):
    """Base class for all solver errors."""


class GeometryError(KinematicsError, ValueError):
    """Invalid machine geometry or geometry document."""


class DegenerateOrientationError(KinematicsError):
    """Orientation where the requested construction collapses (sin(alpha) = 0,
    or the leg-I direction is perpendicular to the slider plane)."""


class UnreachableOrientationError(KinematicsError):
    """Orientation whose coupling locus is empty (negative radicand)."""


class NegativeRadicandError(KinematicsError):
    """A leg cannot close for the requested pose; carries the leg name."""

    def __init__(self, leg, radicand):
        super().__init__(f"negative radicand for leg {leg}: {radicand:.6g}")
        self.leg = leg
        self.radicand = radicand


class SignRuleViolation(KinematicsError):
    """Requested leg-I configuration index contradicts the sign rule tying
    sgn(rho1 - z_p) to sgn(y_p) and the platform orientation."""


class InconsistentPoseError(KinematicsError):
    """Pose carries an orientation that does not satisfy the coupling
    relation for its position."""


class CoincidentOffsetError(KinematicsError):
    """Slider-to-platform x-offsets of leg I and legs II/III coincide; the
    x_p elimination is impossible for this geometry."""


class AmbiguousSelectionError(KinematicsError):
    """More than one branch survived the working-solution filters."""

    def __init__(self, survivors):
        super().__init__(f"{len(survivors)} branches survive the working-solution filters")
        self.survivors = list(survivors)


class InterpolationError(KinematicsError):
    """The reconstructed characteristic polynomial failed its degree or
    consistency verification (degenerate input)."""
