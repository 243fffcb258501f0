"""Command-line front end.

Subcommands: ik, fk, tool-ik, tool-fk, ellipse, roundtrip.  Angles are
radians and lengths millimetres unless --deg is given (which converts angle
arguments and angle output columns).  Output is deterministic for fixed
arguments and seed; machine-readable modes use '.' decimals via repr.

Exit codes: 0 solutions found (or report produced), 1 usage/input error,
2 no solution.  A reader that closes stdout early ends the output quietly,
with the command's exit code if it had finished and 0 otherwise.

Each command imports the solver modules it runs when it runs: `ik` and
`ellipse` load neither numpy nor the FK, tool and oracle modules, and only
`roundtrip` loads the oracle.
"""

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass

from . import geometry as geo
from .errors import AmbiguousSelectionError, KinematicsError

MODE_LABELS = "abcdefghijklmnopqrstuvwxyz"

IK_COLUMNS = ("label", "rho1", "rho2", "rho3", "alpha",
              "s1", "s2", "s3", "residual_norm", "within_limits")
FK_COLUMNS = ("label", "alpha", "x_p", "y_p", "z_p",
              "s1", "s2", "s3", "residual_norm", "reachable")
TOOL_IK_COLUMNS = ("label", "rho1", "rho2", "rho3", "theta1", "theta2",
                   "s1", "s2", "s3", "residual_norm", "within_limits")
TOOL_FK_COLUMNS = ("label", "phi1", "phi2", "x_u", "y_u", "z_u",
                   "s1", "s2", "s3", "residual_norm", "reachable")
ELLIPSE_COLUMNS = ("record", "alpha", "center_x", "a", "b", "phi", "x", "y", "reason")

ANGLE_FIELDS = frozenset(("alpha", "theta1", "theta2", "phi1", "phi2"))

# (command, help, float arguments, --select help) of the four solver commands
SOLVER_COMMANDS = (
    ("ik", "inverse kinematics of the parallel module",
     ("x_p", "y_p", "z_p"), "print only the working solution"),
    ("fk", "forward kinematics of the parallel module",
     ("rho1", "rho2", "rho3"), "print only the reachable assembly mode"),
    ("tool-ik", "inverse kinematics of the full machine",
     ("x_u", "y_u", "z_u", "phi1", "phi2"), "print only the working solution"),
    ("tool-fk", "forward kinematics of the full machine",
     ("rho1", "rho2", "rho3", "theta1", "theta2"), "print only the reachable assembly mode"),
)


@dataclass(frozen=True)
class SolutionRecord:
    """One output row: a label plus a field/value mapping."""

    label: str
    values: dict

    def row(self, columns, deg=False):
        out = []
        for col in columns:
            if col == "label":
                out.append(self.label)
                continue
            v = self.values.get(col, "")
            if deg and col in ANGLE_FIELDS and isinstance(v, float):
                v = math.degrees(v)
            out.append(v)
        return out


def _fmt_cell(v, human):
    if isinstance(v, bool):
        return ("yes" if v else "no") if human else repr(v).lower()
    if isinstance(v, float):
        return f"{v:14.6f}" if human else repr(v)
    return str(v)


def emit_records(records, columns, fmt, deg):
    if fmt == "table":
        widths = [max(len(c), 14) for c in columns]
        header = "  ".join(c.ljust(w) for c, w in zip(columns, widths))
        print(header)
        print("-" * len(header))
        for rec in records:
            cells = [_fmt_cell(v, True).rjust(w) if not isinstance(v, str) else v.ljust(w)
                     for v, w in zip(rec.row(columns, deg), widths)]
            print("  ".join(cells))
    elif fmt == "csv":
        print(",".join(columns))
        for rec in records:
            print(",".join(_fmt_cell(v, False) for v in rec.row(columns, deg)))
    elif fmt == "json-lines":
        for rec in records:
            obj = {col: v for col, v in zip(columns, rec.row(columns, deg))
                   if col in rec.values}
            obj["label"] = rec.label
            print(json.dumps(obj, sort_keys=True))
    else:  # pragma: no cover
        raise ValueError(f"unknown format {fmt!r}")


def _emit_solutions(args, items, select, columns, values):
    """Emit one labelled row (a), (b), ... per item, in the solver's order;
    with --select only the item `select` picks.  `values` fills one row."""
    if args.select:
        chosen = select(items)
        items = [chosen] if chosen is not None else []
    records = [SolutionRecord(label=f"({MODE_LABELS[i]})", values=values(item))
               for i, item in enumerate(items)]
    emit_records(records, columns, args.format, args.deg)
    return 0 if records else 2


def _branch_fields(item):
    return dict(s1=item.indices.s1, s2=item.indices.s2, s3=item.indices.s3,
                residual_norm=item.residual_norm)


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit code 2; this contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def finite(text):
    """argparse type of every float argument: NaN and infinities are usage errors."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def build_parser():
    parser = _Parser(prog="pkmkin", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("geometry", help="geometry file (key = value lines)")
        p.add_argument("--format", choices=("table", "csv", "json-lines"),
                       default="table")
        p.add_argument("--deg", action="store_true",
                       help="angles in degrees on input and output")

    for name, help_text, floats, select_help in SOLVER_COMMANDS:
        p = sub.add_parser(name, help=help_text)
        common(p)
        for arg in floats:
            p.add_argument(arg, type=finite)
        p.add_argument("--select", action="store_true", help=select_help)

    p_ell = sub.add_parser("ellipse", help="iso-orientation ellipse plot data")
    common(p_ell)
    p_ell.add_argument("--alpha-min", type=finite, default=-math.pi)
    p_ell.add_argument("--alpha-max", type=finite, default=math.pi)
    p_ell.add_argument("--step", type=finite, default=2.0 * math.pi / 45.0)
    p_ell.add_argument("--points", type=int, default=16,
                       help="sample points per ellipse")

    p_rt = sub.add_parser("roundtrip", help="IK->FK consistency benchmark")
    common(p_rt)
    p_rt.add_argument("--count", type=int, default=1000)
    p_rt.add_argument("--seed", type=int, default=0)
    p_rt.add_argument("--starts", type=int, default=20,
                      help="newton starts per sample in the timing section")
    p_rt.add_argument("--box", type=finite, nargs=6, metavar=("X0", "X1", "Y0", "Y1", "Z0", "Z1"),
                      default=None,
                      help="sampling box; |y| sampled in (Y0, Y1), either sign")
    p_rt.add_argument("--timing", action="store_true",
                      help="append wall-clock timings (not byte-deterministic)")
    return parser


def _angle_arg(value, deg):
    return math.radians(value) if deg else value


def cmd_ik(geom, args):
    from . import parallel_ik as pik
    return _emit_solutions(
        args, pik.enumerate_ik(geom, args.x_p, args.y_p, args.z_p),
        lambda sols: pik.select_working_solution(sols, geom), IK_COLUMNS,
        lambda sol: dict(rho1=sol.joints.rho1, rho2=sol.joints.rho2,
                         rho3=sol.joints.rho3, alpha=sol.alpha, **_branch_fields(sol),
                         within_limits=sol.within_limits))


def cmd_fk(geom, args):
    from . import parallel_fk as pfk
    from . import parallel_ik as pik
    return _emit_solutions(
        args, pfk.enumerate_fk(geom, pik.ParallelJoints(args.rho1, args.rho2, args.rho3)),
        pfk.select_assembly_mode, FK_COLUMNS,
        lambda mode: dict(alpha=mode.pose.alpha, x_p=mode.pose.x_p,
                          y_p=mode.pose.y_p, z_p=mode.pose.z_p, **_branch_fields(mode),
                          reachable=mode.reachable))


def cmd_tool_ik(geom, args):
    from . import machine as mk
    tool = mk.ToolPose(args.x_u, args.y_u, args.z_u,
                       _angle_arg(args.phi1, args.deg),
                       _angle_arg(args.phi2, args.deg))
    return _emit_solutions(
        args, mk.tool_ik(geom, tool),
        lambda sols: mk.select_machine_solution(sols, geom), TOOL_IK_COLUMNS,
        lambda sol: dict(rho1=sol.machine_joints.joints.rho1,
                         rho2=sol.machine_joints.joints.rho2,
                         rho3=sol.machine_joints.joints.rho3,
                         theta1=sol.machine_joints.theta1,
                         theta2=sol.machine_joints.theta2, **_branch_fields(sol),
                         within_limits=sol.within_limits))


def cmd_tool_fk(geom, args):
    from . import machine as mk
    from . import parallel_fk as pfk
    from . import parallel_ik as pik
    theta1 = _angle_arg(args.theta1, args.deg)
    theta2 = _angle_arg(args.theta2, args.deg)

    def values(mode):
        tp = mk.tool_pose_from_platform(geom, mode.pose, theta1, theta2)
        return dict(phi1=tp.phi1, phi2=tp.phi2, x_u=tp.x_u, y_u=tp.y_u,
                    z_u=tp.z_u, **_branch_fields(mode), reachable=mode.reachable)

    return _emit_solutions(
        args, pfk.enumerate_fk(geom, pik.ParallelJoints(args.rho1, args.rho2, args.rho3)),
        pfk.select_assembly_mode, TOOL_FK_COLUMNS, values)


def cmd_ellipse(geom, args):
    from . import parallel_ik as pik
    if args.step <= 0.0:
        print("pkmkin ellipse: error: step must be positive", file=sys.stderr)
        return 1
    if args.points < 0:
        print("pkmkin ellipse: error: points must be >= 0", file=sys.stderr)
        return 1
    step = _angle_arg(args.step, args.deg)
    lo = _angle_arg(args.alpha_min, args.deg)
    hi = _angle_arg(args.alpha_max, args.deg)
    n = int(round((hi - lo) / step))
    emitted = 0

    def records():
        nonlocal emitted
        for k in range(n + 1):
            alpha = lo + k * step
            if alpha > hi + 1e-12:
                break
            try:
                ell = pik.iso_ellipse(geom, alpha)
            except KinematicsError as exc:
                yield SolutionRecord(label="", values=dict(
                    record="warning", alpha=alpha, reason=type(exc).__name__))
                continue
            emitted += 1
            yield SolutionRecord(label="", values=dict(
                record="ellipse", alpha=ell.alpha, center_x=ell.center_x,
                a=ell.semi_major_a, b=ell.semi_minor_b))
            for k in range(args.points):
                phi = 2.0 * math.pi * k / args.points
                x, y = ell.point(phi)
                yield SolutionRecord(label="", values=dict(
                    record="point", alpha=ell.alpha, phi=phi, x=x, y=y))

    emit_records(records(), ELLIPSE_COLUMNS, args.format, args.deg)
    return 0 if emitted else 2


def cmd_roundtrip(geom, args):
    import numpy as np

    from . import oracle
    from . import parallel_fk as pfk
    from . import parallel_ik as pik
    if args.count < 0:
        print("pkmkin roundtrip: error: count must be >= 0", file=sys.stderr)
        return 1
    if args.starts < 1:
        print("pkmkin roundtrip: error: starts must be >= 1", file=sys.stderr)
        return 1
    box = args.box if args.box is not None else [
        v for limits in geo.SIXTEEN_BRANCH_REGION for v in limits]
    rng = np.random.default_rng(args.seed)
    ik_hist, fk_hist = {}, {}
    failures = 0
    max_err = 0.0
    sum_err = 0.0
    max_ang = 0.0
    recovered = 0
    t_sym = 0.0
    t_newton = 0.0
    for _ in range(args.count):
        x = rng.uniform(box[0], box[1])
        y = rng.uniform(box[2], box[3]) * (1.0 if rng.uniform() < 0.5 else -1.0)
        z = rng.uniform(box[4], box[5])
        solutions = pik.enumerate_ik(geom, x, y, z)
        ik_hist[len(solutions)] = ik_hist.get(len(solutions), 0) + 1
        try:
            working = pik.select_working_solution(solutions, geom)
        except AmbiguousSelectionError:
            working = None
        if working is None:
            failures += 1
            continue
        t0 = time.perf_counter()
        modes = pfk.enumerate_fk(geom, working.joints)
        t_sym += time.perf_counter() - t0
        fk_hist[len(modes)] = fk_hist.get(len(modes), 0) + 1
        if args.timing:
            t0 = time.perf_counter()
            oracle.newton_fk(geom, working.joints, starts=args.starts, seed=args.seed)
            t_newton += time.perf_counter() - t0
        try:
            mode = pfk.select_assembly_mode(modes)
        except AmbiguousSelectionError:
            mode = None
        if mode is None:
            failures += 1
            continue
        err = max(abs(mode.pose.x_p - x), abs(mode.pose.y_p - y),
                  abs(mode.pose.z_p - z))
        ang = abs(mode.pose.alpha - working.alpha)
        if err > 1e-6 or ang > 1e-8:
            failures += 1
            continue
        recovered += 1
        max_err = max(max_err, err)
        sum_err += err
        max_ang = max(max_ang, ang)
    print(f"samples            {args.count}")
    print(f"seed               {args.seed}")
    print(f"recovered          {recovered}")
    print(f"failures           {failures}")
    if recovered:
        print(f"max position error {max_err:.3e} mm")
        print(f"mean position error {sum_err / recovered:.3e} mm")
        print(f"max angle error    {max_ang:.3e} rad")
    for name, hist in (("ik-branch-count", ik_hist), ("fk-mode-count", fk_hist)):
        for k in sorted(hist):
            print(f"{name} {k:3d}      {hist[k]}")
    if args.timing:
        print(f"symbolic fk time   {t_sym:.3f} s")
        print(f"newton fk time     {t_newton:.3f} s ({args.starts} starts/sample)")
    return 0


def read_geometry_or_report(path):
    """The geometry in the file at path, or None after one stderr line
    saying why it cannot be read or is invalid."""
    try:
        return geo.read_geometry_file(path)
    except OSError as exc:
        print(f"pkmkin: cannot read geometry: {exc}", file=sys.stderr)
    except KinematicsError as exc:
        print(f"pkmkin: invalid geometry: {exc}", file=sys.stderr)
    return None


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    geom = read_geometry_or_report(args.geometry)
    if geom is None:
        return 1
    handler = {
        "ik": cmd_ik, "fk": cmd_fk, "tool-ik": cmd_tool_ik,
        "tool-fk": cmd_tool_fk, "ellipse": cmd_ellipse,
        "roundtrip": cmd_roundtrip,
    }[args.command]
    code = 0
    try:
        code = handler(geom, args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (`| head`): stop without a message,
        # and point stdout at devnull so the shutdown flush stays quiet too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except AmbiguousSelectionError as exc:
        print(f"pkmkin: ambiguous selection: {exc}", file=sys.stderr)
        return 1
    except KinematicsError as exc:
        print(f"pkmkin: {exc}", file=sys.stderr)
        return 1
    except OverflowError as exc:
        # the library says which stage overflowed; a bare float operation
        # raises Python's errno tuple, (34, 'Numerical result out of range')
        stage = f" ({exc.args[0]})" if exc.args and isinstance(exc.args[0], str) else ""
        print(f"pkmkin: numeric overflow: {args.command} input out of float range{stage}",
              file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
