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

from . import geometry as geo
from .errors import AmbiguousSelectionError, KinematicsError

MODE_LABELS = "abcdefghijklmnopqrstuvwxyz"

# the angle arguments and output columns, which --deg reads and prints in degrees
ANGLE_FIELDS = frozenset(("alpha", "theta1", "theta2", "phi1", "phi2",
                          "alpha_min", "alpha_max", "step"))


def _fmt_cell(v, human):
    if isinstance(v, bool):
        return ("yes" if v else "no") if human else repr(v).lower()
    if isinstance(v, float):
        return f"{v:14.6f}" if human else repr(v)
    return str(v)


def emit_rows(rows, columns, fmt, deg):
    """Print rows, dicts from column to value with a "label" key, as a table,
    csv or json-lines; with deg, angle values in degrees.  Table and csv
    cells of columns that a row lacks are empty."""
    if fmt == "table":
        widths = [max(len(c), 14) for c in columns]
        header = "  ".join(c.ljust(w) for c, w in zip(columns, widths))
        print(header)
        print("-" * len(header))
    elif fmt == "csv":
        print(",".join(columns))
    for row in rows:
        if deg:
            row = {c: math.degrees(v) if c in ANGLE_FIELDS and isinstance(v, float) else v
                   for c, v in row.items()}
        cells = [row.get(c, "") for c in columns]
        if fmt == "table":
            print("  ".join(v.ljust(w) if isinstance(v, str) else _fmt_cell(v, True).rjust(w)
                            for v, w in zip(cells, widths)))
        elif fmt == "csv":
            print(",".join(_fmt_cell(v, False) for v in cells))
        else:
            print(json.dumps(row, sort_keys=True))


# Each solver command's function returns its solutions in the solver's
# order, its --select rule and the values of one solution's row in the
# order of the command's columns.
def _ik(geom, args):
    from . import parallel_ik as pik
    return (pik.enumerate_ik(geom, args.x_p, args.y_p, args.z_p),
            lambda sols: pik.select_working_solution(sols, geom),
            lambda sol: (*sol.joints.as_tuple(), sol.alpha, *sol.indices.as_tuple(),
                         sol.residual_norm, sol.within_limits))


def _fk(geom, args):
    from . import parallel_fk as pfk
    from . import parallel_ik as pik
    return (pfk.enumerate_fk(geom, pik.ParallelJoints(args.rho1, args.rho2, args.rho3)),
            pfk.select_assembly_mode,
            lambda mode: (mode.pose.alpha, mode.pose.x_p, mode.pose.y_p, mode.pose.z_p,
                          *mode.indices.as_tuple(), mode.residual_norm, mode.reachable))


def _tool_ik(geom, args):
    from . import machine as mk
    tool = mk.ToolPose(args.x_u, args.y_u, args.z_u, args.phi1, args.phi2)
    return (mk.tool_ik(geom, tool), lambda sols: mk.select_machine_solution(sols, geom),
            lambda sol: (*sol.machine_joints.joints.as_tuple(), sol.machine_joints.theta1,
                         sol.machine_joints.theta2, *sol.indices.as_tuple(),
                         sol.residual_norm, sol.within_limits))


def _tool_fk(geom, args):
    from . import machine as mk
    modes, select, _ = _fk(geom, args)

    def values(mode):
        tp = mk.tool_pose_from_platform(geom, mode.pose, args.theta1, args.theta2)
        return (tp.phi1, tp.phi2, tp.x_u, tp.y_u, tp.z_u, *mode.indices.as_tuple(),
                mode.residual_norm, mode.reachable)

    return modes, select, values


# command: (function, help, float arguments, --select help, columns after "label")
SOLVER_COMMANDS = {
    "ik": (_ik, "inverse kinematics of the parallel module", ("x_p", "y_p", "z_p"),
           "print only the working solution",
           ("rho1", "rho2", "rho3", "alpha", "s1", "s2", "s3", "residual_norm",
            "within_limits")),
    "fk": (_fk, "forward kinematics of the parallel module", ("rho1", "rho2", "rho3"),
           "print only the reachable assembly mode",
           ("alpha", "x_p", "y_p", "z_p", "s1", "s2", "s3", "residual_norm", "reachable")),
    "tool-ik": (_tool_ik, "inverse kinematics of the full machine",
                ("x_u", "y_u", "z_u", "phi1", "phi2"), "print only the working solution",
                ("rho1", "rho2", "rho3", "theta1", "theta2", "s1", "s2", "s3",
                 "residual_norm", "within_limits")),
    "tool-fk": (_tool_fk, "forward kinematics of the full machine",
                ("rho1", "rho2", "rho3", "theta1", "theta2"),
                "print only the reachable assembly mode",
                ("phi1", "phi2", "x_u", "y_u", "z_u", "s1", "s2", "s3", "residual_norm",
                 "reachable")),
}


def cmd_solver(geom, args):
    """Print one labelled row (a), (b), ... per solution, in the solver's
    order; with --select only the solution the command's rule picks."""
    solve, _, _, _, columns = SOLVER_COMMANDS[args.command]
    items, select, values = solve(geom, args)
    if args.select:
        chosen = select(items)
        items = [chosen] if chosen is not None else []
    rows = [{"label": f"({MODE_LABELS[i]})", **dict(zip(columns, values(item)))}
            for i, item in enumerate(items)]
    emit_rows(rows, ("label", *columns), args.format, args.deg)
    return 0 if rows else 2


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit code 2; this contract wants 1.
    Each parser, a subcommand's too, reports the arguments it does not know
    itself, so the error carries that parser's usage line."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, unknown = super().parse_known_args(args, namespace)
        if unknown:
            self.error(f"unrecognized arguments: {' '.join(unknown)}")
        return namespace, unknown

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

    def command(name, help_text, run, prints_rows=True):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run)
        p.add_argument("geometry", help="geometry file (key = value lines)")
        if prints_rows:
            p.add_argument("--format", choices=("table", "csv", "json-lines"),
                           default="table")
            p.add_argument("--deg", action="store_true",
                           help="angles in degrees on input and output")
        return p

    for name, (_, help_text, floats, select_help, _) in SOLVER_COMMANDS.items():
        p = command(name, help_text, cmd_solver)
        for arg in floats:
            p.add_argument(arg, type=finite)
        p.add_argument("--select", action="store_true", help=select_help)

    p_ell = command("ellipse", "iso-orientation ellipse plot data", cmd_ellipse)
    p_ell.add_argument("--alpha-min", type=finite, default=-math.pi)
    p_ell.add_argument("--alpha-max", type=finite, default=math.pi)
    p_ell.add_argument("--step", type=finite, default=2.0 * math.pi / 45.0)
    p_ell.add_argument("--points", type=int, default=16,
                       help="sample points per ellipse")

    p_rt = command("roundtrip", "IK->FK consistency benchmark", cmd_roundtrip, prints_rows=False)
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


def cmd_ellipse(geom, args):
    from . import parallel_ik as pik
    if args.step <= 0.0:
        print("pkmkin ellipse: error: step must be positive", file=sys.stderr)
        return 1
    if args.points < 0:
        print("pkmkin ellipse: error: points must be >= 0", file=sys.stderr)
        return 1
    lo, hi, step = args.alpha_min, args.alpha_max, args.step
    n = int(round((hi - lo) / step))
    emitted = 0

    def rows():
        nonlocal emitted
        for k in range(n + 1):
            alpha = lo + k * step
            if alpha > hi + 1e-12:
                break
            try:
                ell = pik.iso_ellipse(geom, alpha)
            except KinematicsError as exc:
                yield {"label": "", "record": "warning", "alpha": alpha,
                       "reason": type(exc).__name__}
                continue
            emitted += 1
            yield {"label": "", "record": "ellipse", "alpha": ell.alpha,
                   "center_x": ell.center_x, "a": ell.semi_major_a, "b": ell.semi_minor_b}
            for k in range(args.points):
                phi = 2.0 * math.pi * k / args.points
                x, y = ell.point(phi)
                yield {"label": "", "record": "point", "alpha": ell.alpha, "phi": phi,
                       "x": x, "y": y}

    emit_rows(rows(), ("record", "alpha", "center_x", "a", "b", "phi", "x", "y", "reason"),
              args.format, args.deg)
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
    clock = time.perf_counter if args.timing else lambda: 0.0
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
        t0 = clock()
        modes = pfk.enumerate_fk(geom, working.joints)
        t_sym += clock() - t0
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
    args = build_parser().parse_args(argv)
    if getattr(args, "deg", False):
        for name in ANGLE_FIELDS & vars(args).keys():
            setattr(args, name, math.radians(getattr(args, name)))
    geom = read_geometry_or_report(args.geometry)
    if geom is None:
        return 1
    code = 0
    try:
        code = args.run(geom, args)
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
