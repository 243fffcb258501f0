import csv
import importlib.util
import io
import json
import math
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from pkmkin import DEFAULT_SYNTHETIC, serialize_geometry
from pkmkin import parallel_fk as pfk
from pkmkin import parallel_ik as pik
from pkmkin.cli import main
from pkmkin.errors import AmbiguousSelectionError
from pkmkin.parallel_ik import coupling_residual

from conftest import coupling_scale
from reference import table_transform


@pytest.fixture(scope="module")
def geom_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("geom") / "machine.cfg"
    path.write_text(serialize_geometry(DEFAULT_SYNTHETIC))
    return str(path)


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(out):
    return list(csv.DictReader(io.StringIO(out)))


def test_ik_sixteen_rows(geom_file, capsys):
    code, out, _ = run_cli(capsys, "ik", geom_file, "--format", "csv",
                           "--", "-250", "60", "900")
    assert code == 0
    rows = csv_rows(out)
    assert len(rows) == 16
    assert set(rows[0]) == {"label", "rho1", "rho2", "rho3", "alpha",
                            "s1", "s2", "s3", "residual_norm", "within_limits"}
    # csv floats survive a parse round trip losslessly (repr encoding), on
    # every command that prints solution rows
    for command, numbers, fields in (
            ("ik", ("-250", "60", "900"), ("rho1", "rho2", "rho3", "alpha")),
            ("fk", ("450", "400", "380"), ("alpha", "x_p", "y_p", "z_p")),
            ("tool-fk", ("450", "400", "380", "0.3", "0.7"),
             ("phi1", "phi2", "x_u", "y_u", "z_u")),
            ("tool-ik", ("-169.5", "157.4", "566.4", "-0.4", "-0.7"),
             ("rho1", "rho2", "rho3", "theta1", "theta2"))):
        code, out, _ = run_cli(capsys, command, geom_file, "--format", "csv", "--", *numbers)
        assert code == 0
        rows = csv_rows(out)
        assert rows, command
        for row in rows:
            for field in fields + ("residual_norm",):
                assert repr(float(row[field])) == row[field], (command, field)
            flag = "within_limits" if command.endswith("ik") else "reachable"
            assert row[flag] in ("true", "false")


def test_ik_select_single_working_row(geom_file, capsys):
    code, out, _ = run_cli(capsys, "ik", geom_file, "--select",
                           "--format", "csv", "--", "-250", "60", "900")
    assert code == 0
    rows = csv_rows(out)
    assert len(rows) == 1
    assert (rows[0]["s1"], rows[0]["s2"], rows[0]["s3"]) == ("-1", "-1", "-1")


def test_ik_out_of_workspace_exit_2(geom_file, capsys):
    code, out, _ = run_cli(capsys, "ik", geom_file, "--format", "csv",
                           "5000", "50", "900")
    assert code == 2
    assert csv_rows(out) == []


def test_fk_roundtrip_via_cli(geom_file, capsys):
    code, out, _ = run_cli(capsys, "ik", geom_file, "--select",
                           "--format", "json-lines", "--", "-250", "60", "900")
    sol = json.loads(out.splitlines()[0])
    code, out, _ = run_cli(capsys, "fk", geom_file, "--format", "json-lines",
                           "--select", str(sol["rho1"]), str(sol["rho2"]),
                           str(sol["rho3"]))
    assert code == 0
    mode = json.loads(out.splitlines()[0])
    assert mode["x_p"] == pytest.approx(-250.0, abs=1e-6)
    assert mode["y_p"] == pytest.approx(60.0, abs=1e-6)
    assert mode["z_p"] == pytest.approx(900.0, abs=1e-6)
    assert mode["reachable"] is True


def test_fk_unassemblable_exit_2(geom_file, capsys):
    code, out, _ = run_cli(capsys, "fk", geom_file, "--format", "csv",
                           "--", "2000", "-1900", "200")
    assert code == 2


@pytest.mark.parametrize("theta1, theta2", [(0.0, 0.0), (0.6, -2.2)], ids=["zero", "tilted"])
def test_tool_fk_matches_fk_through_table_map(geom_file, capsys, theta1, theta2):
    # every fk mode, carried through the homogeneous table chain
    code, fk_out, _ = run_cli(capsys, "fk", geom_file, "--format", "json-lines",
                              "400", "380", "390")
    assert code == 0
    code, tfk_out, _ = run_cli(capsys, "tool-fk", geom_file, "--format", "json-lines",
                               "400", "380", "390", repr(theta1), repr(theta2))
    assert code == 0
    fk_modes = [json.loads(line) for line in fk_out.splitlines()]
    tool_modes = [json.loads(line) for line in tfk_out.splitlines()]
    assert len(tool_modes) == len(fk_modes) > 0
    g = DEFAULT_SYNTHETIC
    table = table_transform(g, theta1, theta2)
    for fm, tm in zip(fk_modes, tool_modes):
        assert tm["phi2"] == -theta2
        assert tm["phi1"] == pytest.approx(pik.wrap_angle(fm["alpha"] - theta1), abs=1e-12)
        spindle = [fm["x_p"], fm["y_p"] - g.Delta * math.sin(fm["alpha"]),
                   fm["z_p"] + g.Delta * math.cos(fm["alpha"]), 1.0]
        tool = np.linalg.solve(table, spindle)
        assert [tm["x_u"], tm["y_u"], tm["z_u"]] == pytest.approx(tool[:3], abs=1e-9)


def test_tool_ik_tool_fk_roundtrip(geom_file, capsys):
    code, out, _ = run_cli(capsys, "tool-fk", geom_file, "--format",
                           "json-lines", "--select", "400", "380", "390",
                           "0.3", "0.7")
    assert code == 0
    tool = json.loads(out.splitlines()[0])
    code, out, _ = run_cli(capsys, "tool-ik", geom_file, "--format",
                           "json-lines", "--select", str(tool["x_u"]),
                           str(tool["y_u"]), str(tool["z_u"]),
                           str(tool["phi1"]), str(tool["phi2"]))
    assert code == 0
    sol = json.loads(out.splitlines()[0])
    assert sol["rho1"] == pytest.approx(400.0, abs=1e-6)
    assert sol["rho2"] == pytest.approx(380.0, abs=1e-6)
    assert sol["rho3"] == pytest.approx(390.0, abs=1e-6)
    assert sol["theta1"] == pytest.approx(0.3, abs=1e-8)
    assert sol["theta2"] == pytest.approx(0.7, abs=1e-12)


def test_deg_flag_converts_angles(geom_file, capsys):
    code, out_rad, _ = run_cli(capsys, "tool-fk", geom_file, "--format",
                               "json-lines", "--select", "400", "380", "390",
                               "0.3", "0.7")
    code, out_deg, _ = run_cli(capsys, "tool-fk", geom_file, "--format",
                               "json-lines", "--select", "--deg",
                               "400", "380", "390",
                               str(math.degrees(0.3)), str(math.degrees(0.7)))
    rad = json.loads(out_rad.splitlines()[0])
    deg = json.loads(out_deg.splitlines()[0])
    assert deg["phi1"] == pytest.approx(math.degrees(rad["phi1"]), abs=1e-9)
    assert deg["x_u"] == pytest.approx(rad["x_u"], abs=1e-9)


def test_ellipse_default_grid_counts(geom_file, capsys):
    code, out, _ = run_cli(capsys, "ellipse", geom_file, "--format", "json-lines")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    ellipses = [r for r in records if r["record"] == "ellipse"]
    warnings = [r for r in records if r["record"] == "warning"]
    points = [r for r in records if r["record"] == "point"]
    # 46 grid nodes from -pi to pi at the default step; both ends degenerate
    assert len(ellipses) == 44
    assert len(warnings) == 2
    assert len(points) == 44 * 16
    g = DEFAULT_SYNTHETIC
    for p in points:
        res = coupling_residual(g, p["x"], p["y"], p["alpha"])
        assert abs(res) <= 1e-9 * coupling_scale(g, p["x"], p["y"], p["alpha"])


def test_ellipse_degenerate_zero_alpha_warned(geom_file, capsys):
    code, out, _ = run_cli(capsys, "ellipse", geom_file, "--format",
                           "json-lines", "--alpha-min", "0",
                           "--alpha-max", "0.6", "--step", "0.3")
    records = [json.loads(line) for line in out.splitlines()]
    assert records[0]["record"] == "warning"
    assert records[0]["reason"] == "DegenerateOrientationError"
    assert sum(r["record"] == "ellipse" for r in records) == 2


def test_ellipse_unreachable_alpha_warned(tmp_path, capsys):
    from dataclasses import replace
    short = replace(DEFAULT_SYNTHETIC, L1=400.0)
    path = tmp_path / "short.cfg"
    path.write_text(serialize_geometry(short))
    code, out, _ = run_cli(capsys, "ellipse", str(path), "--format",
                           "json-lines", "--alpha-min", "3.0",
                           "--alpha-max", "3.1", "--step", "0.05")
    records = [json.loads(line) for line in out.splitlines()]
    assert records and all(r["record"] == "warning" for r in records)
    assert all(r["reason"] == "UnreachableOrientationError" for r in records)
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("ik", "nan", "60", "900"),
    ("ik", "--", "-250", "60", "inf"),
    ("fk", "--", "450", "-inf", "380"),
    ("tool-ik", "160", "-120", "-240", "0.2", "nan"),
    ("tool-fk", "450", "400", "380", "nan", "0"),
    ("ellipse", "--step", "nan"),
    ("ellipse", "--alpha-min=-inf"),
    ("ellipse", "--alpha-max", "nan"),
    ("roundtrip", "--box", "-330", "-170", "30", "150", "700", "inf"),
], ids=["ik-x", "ik-z", "fk", "tool-ik", "tool-fk", "ellipse-step",
        "ellipse-alpha-min", "ellipse-alpha-max", "roundtrip-box"])
def test_non_finite_number_exit_1(geom_file, capsys, argv):
    command, *numbers = argv
    with pytest.raises(SystemExit) as exc:
        main([command, geom_file, *numbers])
    assert exc.value.code == 1
    assert "not a finite number" in capsys.readouterr().err


@pytest.mark.parametrize("argv, stage", [
    (("ik", "1e200", "60", "900"), "coupling cubic"),
    (("fk", "1e200", "400", "380"), "characteristic polynomial"),
    (("tool-ik", "1e200", "0", "0", "0", "0"), "tilt polynomial"),
    (("tool-fk", "1e200", "0", "0", "0", "0"), "characteristic polynomial"),
    (("roundtrip", "--count", "2", "--box", "1e200", "1e201", "0", "1", "0", "1"),
     "coupling cubic"),
], ids=["ik", "fk", "tool-ik", "tool-fk", "roundtrip"])
def test_numeric_overflow_exit_1(geom_file, capsys, argv, stage):
    # each overflows in a float power, whose own OverflowError carries
    # Python's errno tuple; the stage it overflows in is named instead
    command, *numbers = argv
    code, out, err = run_cli(capsys, command, geom_file, *numbers)
    assert code == 1
    assert out == ""
    assert err == (f"pkmkin: numeric overflow: {command} input out of float range"
                   f" ({stage}: coefficients out of float range)\n")
    assert "(34," not in err


def test_numeric_overflow_keeps_the_library_message(geom_file, capsys):
    code, out, err = run_cli(capsys, "fk", geom_file, "1e308", "1e308", "1e308")
    assert code == 1
    assert err == ("pkmkin: numeric overflow: fk input out of float range"
                   " (characteristic polynomial: sliders out of float range)\n")


def test_numeric_overflow_names_the_octic_coefficients(geom_file, capsys):
    # slider powers in float range whose octic coefficients are not get the
    # library's message, as do powers out of range (1e200), which
    # test_numeric_overflow_exit_1 pins
    code, out, err = run_cli(capsys, "fk", geom_file, "--", "1e53", "-1e53", "1e53")
    assert (code, out) == (1, "")
    assert err == ("pkmkin: numeric overflow: fk input out of float range"
                   " (characteristic polynomial: coefficients out of float range)\n")


@pytest.mark.parametrize("argv", [
    ("ik", "--", "1e153", "0", "900"),
    ("roundtrip", "--count", "2", "--box", "1e153", "2e153", "0", "1", "0", "1"),
], ids=["ik", "roundtrip"])
def test_numeric_overflow_names_the_coupling_cubic(geom_file, argv):
    # squares in float range, cubic coefficients out of it: one stderr
    # line that names the stage, no traceback
    command, *numbers = argv
    run = subprocess.run([sys.executable, "-m", "pkmkin.cli", command, geom_file, *numbers],
                         capture_output=True, text=True)
    assert (run.returncode, run.stdout) == (1, "")
    assert run.stderr == (f"pkmkin: numeric overflow: {command} input out of float range"
                          " (coupling cubic: coefficients out of float range)\n")


@pytest.mark.parametrize("rho", [("1e200", "400", "380"), ("1e53", "-1e53", "1e53"),
                                 ("1e308", "1e308", "1e308"), ("1e48", "-1e48", "3e48"),
                                 ("1e50", "-1e50", "3e50")],
                         ids=["slider-powers", "octic-coefficients", "slider-sum",
                              "certificate-bound", "certificate-values"])
def test_numeric_overflow_is_one_stderr_line(geom_file, capsys, rho):
    # no numpy RuntimeWarning and no traceback next to the message
    run = subprocess.run([sys.executable, "-m", "pkmkin.cli", "fk", geom_file, "--", *rho],
                         capture_output=True, text=True)
    if rho[0] in ("1e48", "1e50"):
        # within float range at every step the solve takes: the no-assembly
        # answer, as for any other slider triple without a mode
        code, out, _ = run_cli(capsys, "fk", geom_file, "--", "2000", "-1900", "200")
        assert (run.returncode, run.stdout, run.stderr) == (code, out, "") and code == 2
        return
    assert run.returncode == 1
    assert run.stdout == ""
    assert run.stderr.startswith("pkmkin: numeric overflow: fk input out of float range")
    assert run.stderr.count("\n") == 1 and run.stderr.endswith("\n")


def test_closed_stdout_is_a_quiet_exit(geom_file):
    proc = subprocess.Popen([sys.executable, "-m", "pkmkin.cli", "ellipse", geom_file,
                             "--step", "1e-6", "--points", "0", "--format", "csv"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        rows = [proc.stdout.readline() for _ in range(3)]
        proc.stdout.close()
        code = proc.wait(timeout=60)
        err = proc.stderr.read()
    finally:
        proc.kill()
        proc.stderr.close()
    assert rows[0].startswith(b"record,alpha,") and all(r.endswith(b"\n") for r in rows)
    assert code == 0
    assert err == b""


def test_ellipse_streams_rows(geom_file, monkeypatch):
    # the first data row is written after one iso_ellipse call, not after
    # the whole grid of 6284 alphas has been solved
    calls = []
    iso_ellipse = pik.iso_ellipse

    def counted(geom, alpha):
        calls.append(alpha)
        return iso_ellipse(geom, alpha)

    calls_at_first_row = []

    class Probe(io.StringIO):
        def write(self, text):
            if not calls_at_first_row and text.startswith(("ellipse,", "warning,")):
                calls_at_first_row.append(len(calls))
            return super().write(text)

    out = Probe()
    monkeypatch.setattr(pik, "iso_ellipse", counted)
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["ellipse", geom_file, "--step", "1e-3", "--points", "0",
                 "--format", "csv"]) == 0
    assert calls_at_first_row == [1]
    assert len(calls) == 6284
    assert len(out.getvalue().splitlines()) == 1 + 6284


def test_ellipse_stops_past_alpha_max(geom_file, capsys):
    # round(1.0 / 0.6) = 2 steps, but the second one, alpha = 1.3, is past 1.1
    code, out, _ = run_cli(capsys, "ellipse", geom_file, "--format", "csv", "--alpha-min",
                           "0.1", "--alpha-max", "1.1", "--step", "0.6", "--points", "0")
    assert code == 0
    rows = csv_rows(out)
    assert [r["record"] for r in rows] == ["ellipse", "ellipse"]
    assert [float(r["alpha"]) for r in rows] == [pik.wrap_angle(0.1), pik.wrap_angle(0.1 + 0.6)]


def test_ellipse_bad_step_exit_1(geom_file, capsys):
    # --deg converts before the check: 1e-323 degrees is 0.0 rad
    for step in (("--step", "-1"), ("--deg", "--step", "1e-323")):
        code, out, err = run_cli(capsys, "ellipse", geom_file, *step)
        assert code == 1
        assert out == ""
        assert err == "pkmkin ellipse: error: step must be positive\n"


def test_ellipse_negative_points_exit_1(geom_file, capsys):
    code, out, err = run_cli(capsys, "ellipse", geom_file, "--points", "-2")
    assert code == 1
    assert out == ""
    assert err == "pkmkin ellipse: error: points must be >= 0\n"


def test_roundtrip_report(geom_file, capsys):
    code, out, _ = run_cli(capsys, "roundtrip", geom_file, "--count", "25",
                           "--seed", "3")
    assert code == 0
    assert "failures           0" in out
    assert "recovered          25" in out
    assert "ik-branch-count  16      25" in out


def test_roundtrip_zero_count(geom_file, capsys):
    code, out, _ = run_cli(capsys, "roundtrip", geom_file, "--count", "0")
    assert code == 0
    assert "samples            0" in out


def test_roundtrip_zero_starts_exit_1(geom_file, capsys):
    code, out, err = run_cli(capsys, "roundtrip", geom_file, "--count", "2",
                             "--timing", "--starts", "0")
    assert code == 1
    assert out == ""
    assert "pkmkin roundtrip: error: starts must be >= 1" in err


def test_roundtrip_negative_count_exit_1(geom_file, capsys):
    code, out, err = run_cli(capsys, "roundtrip", geom_file, "--count", "-1")
    assert code == 1
    assert out == ""
    assert err == "pkmkin roundtrip: error: count must be >= 0\n"


def test_roundtrip_box_outside_the_workspace_fails_every_sample(geom_file, capsys):
    code, out, _ = run_cli(capsys, "roundtrip", geom_file, "--count", "3",
                           "--box", "5000", "5001", "0", "1", "600", "601")
    assert code == 0
    # no error statistics without a recovered sample, and no FK histogram
    assert out == ("samples            3\n"
                   "seed               0\n"
                   "recovered          0\n"
                   "failures           3\n"
                   "ik-branch-count   0      3\n")


def test_roundtrip_failures_and_histograms_add_up(geom_file, capsys):
    code, out, _ = run_cli(capsys, "roundtrip", geom_file, "--count", "40", "--seed", "1",
                           "--box", "-900", "500", "0", "600", "600", "1200")
    assert code == 0
    lines = out.splitlines()
    report = {name: int(value) for name, value in (line.rsplit(None, 1) for line in lines[:4])}
    hists = {"ik-branch-count": {}, "fk-mode-count": {}}
    for line in lines:
        name, *fields = line.split()
        if name in hists:
            hists[name][int(fields[0])] = int(fields[1])
    assert (report["samples"], report["recovered"], report["failures"]) == (40, 11, 29)
    assert report["recovered"] + report["failures"] == report["samples"]
    assert "max position error" in out
    # every sample is solved by the IK; in this box each sample with an IK
    # branch has a working one and reaches the FK, which the rest never do
    assert sum(hists["ik-branch-count"].values()) == report["samples"]
    reached_fk = report["samples"] - hists["ik-branch-count"][0]
    assert sum(hists["fk-mode-count"].values()) == reached_fk >= report["recovered"]


def test_roundtrip_timing_appends_two_lines(geom_file, capsys):
    _, untimed, _ = run_cli(capsys, "roundtrip", geom_file, "--count", "2", "--starts", "2")
    code, timed, err = run_cli(capsys, "roundtrip", geom_file, "--count", "2",
                               "--timing", "--starts", "2")
    assert code == 0 and err == ""
    assert timed.startswith(untimed)
    extra = timed[len(untimed):].splitlines()
    assert len(extra) == 2
    assert re.fullmatch(r"symbolic fk time   \d+\.\d{3} s", extra[0])
    assert re.fullmatch(r"newton fk time     \d+\.\d{3} s \(2 starts/sample\)", extra[1])


def _ambiguous_selection(solutions, geom):
    raise AmbiguousSelectionError(solutions[:2])


def test_roundtrip_counts_an_ambiguous_ik_selection_as_a_failure(geom_file, capsys,
                                                                   monkeypatch):
    monkeypatch.setattr(pik, "select_working_solution", _ambiguous_selection)
    code, out, err = run_cli(capsys, "roundtrip", geom_file, "--count", "2")
    assert code == 0 and err == ""
    assert out == ("samples            2\n"
                   "seed               0\n"
                   "recovered          0\n"
                   "failures           2\n"
                   "ik-branch-count  16      2\n")


def _moved(mode, dx=0.0, dalpha=0.0):
    return replace(mode, pose=replace(mode.pose, x_p=mode.pose.x_p + dx,
                                      alpha=mode.pose.alpha + dalpha))


@pytest.mark.parametrize("edit, mode_count", [
    (lambda mode: [], 0),
    (lambda mode: [mode, mode], 2),
    (lambda mode: [_moved(mode, dx=1e-3)], 1),
    (lambda mode: [_moved(mode, dalpha=1e-6)], 1),
], ids=["no-mode", "ambiguous-mode", "position-miss", "angle-miss"])
def test_roundtrip_counts_each_fk_stage_failure(geom_file, capsys, monkeypatch, edit,
                                               mode_count):
    # every sample reaches the FK, whose reachable mode is replaced by edit(mode)
    enumerate_fk = pfk.enumerate_fk
    monkeypatch.setattr(pfk, "enumerate_fk", lambda geom, joints: edit(
        pfk.select_assembly_mode(enumerate_fk(geom, joints))))
    code, out, err = run_cli(capsys, "roundtrip", geom_file, "--count", "2")
    assert code == 0 and err == ""
    assert out == ("samples            2\n"
                   "seed               0\n"
                   "recovered          0\n"
                   "failures           2\n"
                   "ik-branch-count  16      2\n"
                   f"fk-mode-count   {mode_count}      2\n")


def test_ambiguous_selection_is_one_stderr_line(geom_file, capsys, monkeypatch):
    monkeypatch.setattr(pik, "select_working_solution", _ambiguous_selection)
    code, out, err = run_cli(capsys, "ik", geom_file, "--select", "--", "-250", "60", "900")
    assert code == 1
    assert out == ""
    assert err == ("pkmkin: ambiguous selection: "
                   "2 branches survive the working-solution filters\n")


def test_roundtrip_deterministic_bytes(geom_file):
    cmd = [sys.executable, "-m", "pkmkin.cli", "roundtrip", geom_file,
           "--count", "20", "--seed", "11"]
    a = subprocess.run(cmd, capture_output=True)
    b = subprocess.run(cmd, capture_output=True)
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout


def test_bad_geometry_exit_1(tmp_path, capsys):
    path = tmp_path / "broken.cfg"
    path.write_text("D1 = not-a-number\n")
    code, _, err = run_cli(capsys, "ik", str(path), "0", "0", "0")
    assert code == 1
    assert "geometry" in err


def test_non_utf8_geometry_is_one_stderr_line(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_bytes(serialize_geometry(DEFAULT_SYNTHETIC).encode("utf-8") + b"\xff")
    code, out, err = run_cli(capsys, "ik", str(path), "--", "-250", "60", "900")
    assert code == 1
    assert out == ""
    assert err.startswith(f"pkmkin: invalid geometry: {path}: not UTF-8 text at byte offset ")
    assert err.count("\n") == 1 and err.endswith("\n")


def test_missing_geometry_file_exit_1(capsys):
    code, _, err = run_cli(capsys, "ik", "/nonexistent/geom.cfg", "0", "0", "0")
    assert code == 1


@pytest.fixture(scope="module")
def mode_census():
    """scripts/mode_census.py, loaded from its file path."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "mode_census.py"
    spec = importlib.util.spec_from_file_location("mode_census", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_mode_census_invalid_geometry_is_one_stderr_line(mode_census, tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("D1 = x\n")
    code = mode_census.main(["--geometry", str(path), "--samples", "5"])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith("pkmkin: invalid geometry: ") and "'D1'" in err
    assert err.count("\n") == 1 and err.endswith("\n")


def test_mode_census_missing_geometry_is_one_stderr_line(mode_census, tmp_path, capsys):
    path = tmp_path / "missing.cfg"
    code = mode_census.main(["--geometry", str(path), "--samples", "5"])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith("pkmkin: cannot read geometry: ") and str(path) in err
    assert err.count("\n") == 1 and err.endswith("\n")


def test_mode_census_reads_a_geometry_file(mode_census, geom_file, capsys):
    code = mode_census.main(["--geometry", geom_file, "--samples", "5"])
    out, err = capsys.readouterr()
    assert code == 0 and err == ""
    assert out.startswith("samples: 5  seed: 0\n")


def test_usage_error_exit_1(geom_file, capsys):
    # roundtrip prints no rows, so it takes neither --format nor --deg; an
    # unknown option is reported with the subcommand's own usage line
    for argv, usage, error in (
            (["ik", geom_file, "1.0"], "usage: pkmkin ik ", "the following arguments are required"),
            (["roundtrip", geom_file, "--count", "2", "--format", "json-lines"],
             "usage: pkmkin roundtrip ", "unrecognized arguments: --format json-lines"),
            (["roundtrip", geom_file, "--count", "2", "--deg"],
             "usage: pkmkin roundtrip ", "unrecognized arguments: --deg")):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(usage)
        assert error in err.splitlines()[-1]


def test_table_format_prints_header(geom_file, capsys):
    code, out, _ = run_cli(capsys, "ik", geom_file, "--", "-250", "60", "900")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("label")
    assert len(lines) == 18  # header + rule + 16 rows
