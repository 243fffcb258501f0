"""What a CLI call and the package namespace import, and when.

Each CLI command imports only the solver modules it runs, and the package
resolves its public names on access; these tests pin both down in fresh
interpreter processes, where nothing else has imported numpy yet.
"""

import importlib
import json
import subprocess
import sys

import pytest

import pkmkin
from pkmkin import DEFAULT_SYNTHETIC, parallel_ik, serialize_geometry

# runs one CLI call with its output discarded, then prints the loaded modules
PROBE = """
import contextlib, io, json, sys
from pkmkin.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    try:
        code = main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""


@pytest.fixture(scope="module")
def geom_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("geom") / "machine.cfg"
    path.write_text(serialize_geometry(DEFAULT_SYNTHETIC))
    return str(path)


def loaded_modules(*argv):
    """Exit code and module set of one CLI call in a fresh process."""
    run = subprocess.run([sys.executable, "-c", PROBE, *argv],
                         capture_output=True, text=True, check=True)
    result = json.loads(run.stdout)
    return result["code"], set(result["modules"])


@pytest.mark.parametrize("argv", [
    ("ik", "{geom}", "-250", "60", "900"),
    ("ik", "{geom}", "-250", "60", "900", "--select", "--format", "csv"),
    ("ellipse", "{geom}", "--step", "0.5", "--points", "4"),
    ("--help",),
], ids=["ik", "ik-select", "ellipse", "help"])
def test_ik_ellipse_and_help_never_import_numpy(geom_file, argv):
    code, modules = loaded_modules(*(a.format(geom=geom_file) for a in argv))
    assert code == 0
    assert "numpy" not in modules
    assert not {"pkmkin.parallel_fk", "pkmkin.machine", "pkmkin.oracle"} & modules


@pytest.mark.parametrize("argv, runs", [
    (("fk", "{geom}", "450", "400", "380"), "pkmkin.parallel_fk"),
    (("tool-ik", "{geom}", "-250", "60", "900", "0.1", "0.2"), "pkmkin.machine"),
], ids=["fk", "tool-ik"])
def test_fk_and_tool_ik_never_import_the_oracle(geom_file, argv, runs):
    code, modules = loaded_modules(*(a.format(geom=geom_file) for a in argv))
    assert code == 0
    assert runs in modules and "pkmkin.oracle" not in modules
    # tool IK alone does not need the FK module either
    assert (argv[0] == "tool-ik") == ("pkmkin.parallel_fk" not in modules)


def test_roundtrip_imports_the_oracle(geom_file):
    code, modules = loaded_modules("roundtrip", geom_file, "--count", "2")
    assert code == 0 and "pkmkin.oracle" in modules


def test_importing_the_package_imports_no_solver():
    code = ("import json, sys, pkmkin; "
            "print(json.dumps(sorted(m for m in sys.modules if m.startswith(('pkmkin', 'numpy')))))")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert json.loads(run.stdout) == ["pkmkin"]


def test_importing_the_machine_module_imports_no_numpy():
    code = "import json, sys, pkmkin.machine; print(json.dumps('numpy' in sys.modules))"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert json.loads(run.stdout) is False


def test_real_roots_of_a_python_float_list_never_imports_numpy():
    code = ("import json, sys; from pkmkin.rootfind import real_roots; "
            "print(json.dumps([real_roots([1.0, -3.0, 2.0]), 'numpy' in sys.modules]))")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert json.loads(run.stdout) == [[0.5, 1.0], False]


def test_every_public_name_is_its_defining_modules_binding():
    for name in pkmkin.__all__:
        module = importlib.import_module(f"pkmkin.{pkmkin._ORIGIN[name]}")
        obj = getattr(pkmkin, name)
        assert obj is getattr(module, name), name
        # classes and functions are exported from the module that defines them
        if hasattr(obj, "__module__") and hasattr(obj, "__qualname__"):
            assert obj.__module__ == module.__name__, name


def test_public_names_are_not_cached_in_the_package(monkeypatch):
    assert not set(pkmkin.__all__) & set(vars(pkmkin))
    sentinel = object()
    monkeypatch.setattr(parallel_ik, "enumerate_ik", sentinel)
    assert pkmkin.enumerate_ik is sentinel
    monkeypatch.undo()
    assert pkmkin.enumerate_ik is parallel_ik.enumerate_ik


def test_dir_covers_all_and_unknown_names_raise():
    assert set(pkmkin.__all__) <= set(dir(pkmkin))
    assert {"cli", "oracle", "__version__"} <= set(dir(pkmkin))
    with pytest.raises(AttributeError, match="no attribute 'enumerate_everything'"):
        pkmkin.enumerate_everything  # noqa: B018
    assert pkmkin.__all__ == sorted(set(pkmkin.__all__))
