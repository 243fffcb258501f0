"""Fixed dimensional parameters of the machine and geometry-file I/O.

Units are millimetres and radians throughout.  The machine consists of a
3-slider parallel module (leg I is a trapezium, legs II and III are
parallelograms) and a 2-DOF tilting table.  A geometry document is a flat
UTF-8 key/value text file, one ``name = value`` pair per line, ``#`` starts
a comment.
"""

import math
from dataclasses import MISSING, dataclass, fields
from functools import cached_property

from .errors import GeometryError

@dataclass(frozen=True)
class MachineGeometry:
    """All fixed dimensions of the machine (mm, rad).

    D1/d1 are the x-offsets of the leg-I slider and platform attachments,
    R1/r1 the half-spans of the slider-side and platform-side attachment
    pairs of leg I, L1 the leg-I rod length.  D2/d2/R2/r4 are the analogous
    offsets shared by legs II and III, with rod lengths L2 and L3.  Delta is
    the spindle offset from the platform origin to the tool centre point,
    d_a and d_t the vertical offsets of the tilting-axis and table frames.
    """

    D1: float
    d1: float
    R1: float
    r1: float
    L1: float
    D2: float
    d2: float
    R2: float
    r4: float
    L2: float
    L3: float
    Delta: float
    d_a: float
    d_t: float
    rho_min: float
    rho_max: float
    theta1_min: float = -math.pi
    theta1_max: float = math.pi
    theta2_min: float = -math.pi
    theta2_max: float = math.pi

    @property
    def center_x(self):
        """x-coordinate of the coupling-ellipse centre, d1 - D1."""
        return self.d1 - self.D1

    @property
    def C1(self):
        """Cross coupling constant r1*R2 - r4*R1 of the z_p elimination."""
        return self.r1 * self.R2 - self.r4 * self.R1

    @property
    def offset_gap(self):
        """(D1 - d1) - (D2 - d2); must be nonzero for the x_p elimination."""
        return (self.D1 - self.d1) - (self.D2 - self.d2)

    @property
    def residual_scale(self):
        """Scale for constraint residuals: max squared rod length (mm^2)."""
        return max(self.L1, self.L2, self.L3) ** 2

    def leg1_span_sq(self, cos_alpha):
        """Squared distance between leg-I attachment midpoint spans:
        R1^2 + r1^2 - 2 R1 r1 cos(alpha)."""
        return self.R1**2 + self.r1**2 - 2.0 * self.R1 * self.r1 * cos_alpha

    def a_sq(self, cos_alpha):
        """Squared semi-major axis of the iso-orientation ellipse."""
        return self.L1**2 - self.leg1_span_sq(cos_alpha)

    @cached_property
    def compiled_octic(self):
        """The forward-kinematics octic compiled for these dimensions (see
        parallel_fk.compile_octic).  Computed on first use and kept in the
        instance __dict__, so fields, ==, hash and replace() ignore it."""
        from .parallel_fk import compile_octic
        return compile_octic(self)

    def __getstate__(self):
        # the compiled octic holds generated code, which does not pickle: a
        # pickled or copied geometry compiles its own on first use
        return {name: value for name, value in self.__dict__.items() if name != "compiled_octic"}


# Keys that must appear in every geometry document, in field order; the
# fields with a default, the tilting-table ranges, are optional (permissive).
REQUIRED_KEYS = tuple(f.name for f in fields(MachineGeometry) if f.default is MISSING)
OPTIONAL_KEYS = tuple(f.name for f in fields(MachineGeometry) if f.default is not MISSING)


def validate(geom):
    """Return a list of human-readable invariant violations (empty if valid)."""
    violations = []
    for name in REQUIRED_KEYS[:-2]:  # every length, not the slider limits
        value = getattr(geom, name)
        if not math.isfinite(value):
            violations.append(f"non-finite value {name}")
        elif value <= 0.0:
            violations.append(f"non-positive length {name}")
    if not (math.isfinite(geom.rho_min) and math.isfinite(geom.rho_max)):
        violations.append("non-finite slider limits rho_min/rho_max")
    elif geom.rho_min >= geom.rho_max:
        violations.append("slider limits reversed: rho_min >= rho_max")
    if geom.R1 == geom.r1:
        violations.append("leg I must be a trapezium: R1 == r1")
    if geom.L1 <= abs(geom.R1 - geom.r1):
        violations.append("leg I can never close: L1 <= |R1 - r1|")
    # +-inf is an unbounded axis; NaN would fail every range comparison
    for name in OPTIONAL_KEYS:
        if math.isnan(getattr(geom, name)):
            violations.append(f"NaN table limit {name}")
    if geom.theta1_min >= geom.theta1_max:
        violations.append("table tilt limits reversed: theta1_min >= theta1_max")
    if geom.theta2_min >= geom.theta2_max:
        violations.append("table rotary limits reversed: theta2_min >= theta2_max")
    return violations


def load_geometry(text):
    """Parse a geometry document and return a validated MachineGeometry.

    Raises GeometryError naming the offending key on missing keys,
    non-numeric values, unknown keys, or invariant violations.
    """
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise GeometryError(f"line {lineno}: expected 'name = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in REQUIRED_KEYS and key not in OPTIONAL_KEYS:
            raise GeometryError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise GeometryError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = float(val.strip())
        except ValueError:
            raise GeometryError(f"line {lineno}: non-numeric value for {key!r}: {val.strip()!r}") from None
    missing = [k for k in REQUIRED_KEYS if k not in values]
    if missing:
        raise GeometryError(f"missing keys: {', '.join(missing)}")
    geom = MachineGeometry(**values)
    violations = validate(geom)
    if violations:
        raise GeometryError("; ".join(violations))
    return geom


def serialize_geometry(geom):
    """Render a MachineGeometry as a geometry document string."""
    lines = ["# machine geometry (mm, rad)"]
    for f in fields(MachineGeometry):
        lines.append(f"{f.name} = {getattr(geom, f.name)!r}")
    return "\n".join(lines) + "\n"


def read_geometry_file(path):
    """load_geometry of a file; GeometryError naming the file and the byte
    offset when it is not UTF-8."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise GeometryError(f"{path}: not UTF-8 text at byte offset {exc.start}") from None
    return load_geometry(text)


#: Synthetic benchmark dimensions.  These are NOT the dimensions of any real
#: machine (the vendor's values are not public); they were chosen to satisfy
#: every invariant, to admit the full set of 16 inverse-kinematic branches on
#: the region below with a unique working branch / assembly mode, to keep
#: every orientation reachable (L1 > R1 + r1, so the full iso-orientation
#: ellipse family exists), and to keep the assembly-mode count at no more
#: than 6 over broad joint sweeps (larger L1 opens rare 8-mode pockets near
#: alpha = pi).  Tilt range +-1.35 rad keeps the extra flipped-table tilt
#: solutions (which appear from |theta1| ~ 1.8 on this geometry) out of range.
DEFAULT_SYNTHETIC = MachineGeometry(
    D1=400.0, d1=150.0, R1=300.0, r1=120.0, L1=490.0,
    D2=280.0, d2=100.0, R2=180.0, r4=120.0, L2=520.0, L3=520.0,
    Delta=150.0, d_a=1400.0, d_t=200.0,
    rho_min=-500.0, rho_max=2000.0,
    theta1_min=-1.35, theta1_max=1.35,
    theta2_min=-math.pi, theta2_max=math.pi,
)

#: Open box (x range, |y| range, z range) on which DEFAULT_SYNTHETIC is
#: verified to yield exactly 16 IK branches, a unique working solution and a
#: unique reachable assembly mode.  y may take either sign.
SIXTEEN_BRANCH_REGION = ((-330.0, -170.0), (30.0, 150.0), (700.0, 1100.0))
