import copy
import math
import pickle
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pkmkin import (DEFAULT_SYNTHETIC, GeometryError, MachineGeometry, ParallelJoints,
                    enumerate_fk, load_geometry, read_geometry_file, serialize_geometry,
                    validate)
from pkmkin.geometry import OPTIONAL_KEYS

VALID_DOC = serialize_geometry(DEFAULT_SYNTHETIC)


def test_default_synthetic_is_valid():
    assert validate(DEFAULT_SYNTHETIC) == []


def test_roundtrip_identity():
    geom = load_geometry(VALID_DOC)
    assert geom == DEFAULT_SYNTHETIC
    assert load_geometry(serialize_geometry(geom)) == geom


def test_non_utf8_file_names_file_and_offset(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_bytes(VALID_DOC.encode("utf-8") + b"# \xff\n")
    with pytest.raises(GeometryError) as exc:
        read_geometry_file(str(path))
    assert str(exc.value) == f"{path}: not UTF-8 text at byte offset {len(VALID_DOC) + 2}"


def test_trapezium_invariant_rejected():
    doc = VALID_DOC.replace("r1 = 120.0", "r1 = 300.0")
    with pytest.raises(GeometryError, match="trapezium"):
        load_geometry(doc)


def test_nonpositive_length_rejected():
    doc = VALID_DOC.replace("L1 = 490.0", "L1 = 0.0")
    with pytest.raises(GeometryError, match="non-positive length L1"):
        load_geometry(doc)


def test_missing_key_named():
    doc = "\n".join(line for line in VALID_DOC.splitlines()
                    if not line.startswith("L2 "))
    with pytest.raises(GeometryError, match="L2"):
        load_geometry(doc)


def test_non_numeric_value_named():
    doc = VALID_DOC.replace("d_t = 200.0", "d_t = twenty")
    with pytest.raises(GeometryError, match="d_t"):
        load_geometry(doc)


def test_unknown_key_rejected():
    with pytest.raises(GeometryError, match="bogus"):
        load_geometry(VALID_DOC + "bogus = 1\n")


def test_duplicate_key_rejected():
    with pytest.raises(GeometryError, match="duplicate"):
        load_geometry(VALID_DOC + "L1 = 490.0\n")


def test_reversed_slider_limits_violation():
    geom = MachineGeometry(**{**_fields(DEFAULT_SYNTHETIC),
                              "rho_min": 10.0, "rho_max": -10.0})
    violations = validate(geom)
    assert any("rho_min" in v and "rho_max" in v for v in violations)


def test_short_leg1_violation_names_l1():
    # L1 exactly half the attachment-span difference can never close
    fields = _fields(DEFAULT_SYNTHETIC)
    fields["L1"] = abs(fields["R1"] - fields["r1"]) / 2.0
    violations = validate(MachineGeometry(**fields))
    assert any("L1" in v for v in violations)


def _set_key(doc, key, value):
    return "\n".join(f"{key} = {value}" if line.startswith(f"{key} ") else line
                     for line in doc.splitlines())


@pytest.mark.parametrize("key", OPTIONAL_KEYS)
def test_nan_table_limit_rejected_by_name(key):
    # NaN fails every range comparison, so it would pass the reversed-limit
    # checks and then turn every tilt or rotary angle out of range
    with pytest.raises(GeometryError, match=f"NaN table limit {key}"):
        load_geometry(_set_key(VALID_DOC, key, "nan"))


@pytest.mark.parametrize("line, edited, message", [
    ("D1 = 400.0", "D1 = inf", "non-finite value D1"),
    ("rho_max = 2000.0", "rho_max = nan", "non-finite slider limits rho_min/rho_max"),
    ("theta1_min = -1.35", "theta1_min = 1.5",
     "table tilt limits reversed: theta1_min >= theta1_max"),
    ("theta2_max = 3.141592653589793", "theta2_max = -3.2",
     "table rotary limits reversed: theta2_min >= theta2_max"),
    ("L1 = 490.0", "L1 490.0", "line 6: expected 'name = value', got 'L1 490.0'"),
], ids=["D1-inf", "rho-max-nan", "tilt-reversed", "rotary-reversed", "no-equals"])
def test_document_edit_gives_its_message(line, edited, message):
    assert line in VALID_DOC
    with pytest.raises(GeometryError) as exc:
        load_geometry(VALID_DOC.replace(line, edited))
    assert str(exc.value) == message


def test_infinite_table_limits_mean_unbounded():
    doc = _set_key(_set_key(VALID_DOC, "theta1_min", "-inf"), "theta2_max", "inf")
    geom = load_geometry(doc)
    assert (geom.theta1_min, geom.theta2_max) == (-math.inf, math.inf)


def test_comments_and_blank_lines_ignored():
    doc = "# leading comment\n\n" + VALID_DOC + "\n# trailing\n"
    assert load_geometry(doc) == DEFAULT_SYNTHETIC


def _fields(geom):
    return {f: getattr(geom, f) for f in (
        "D1", "d1", "R1", "r1", "L1", "D2", "d2", "R2", "r4", "L2", "L3",
        "Delta", "d_a", "d_t", "rho_min", "rho_max",
        "theta1_min", "theta1_max", "theta2_min", "theta2_max")}


lengths = st.floats(min_value=1.0, max_value=5000.0, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(D1=lengths, d1=lengths, R1=lengths, r1=lengths, L1=lengths,
       D2=lengths, d2=lengths, R2=lengths, r4=lengths, L2=lengths,
       L3=lengths, Delta=lengths, d_a=lengths, d_t=lengths,
       rho_span=st.floats(min_value=1.0, max_value=4000.0))
def test_accepted_documents_always_validate_clean(D1, d1, R1, r1, L1, D2, d2,
                                                  R2, r4, L2, L3, Delta, d_a,
                                                  d_t, rho_span):
    geom = MachineGeometry(D1=D1, d1=d1, R1=R1, r1=r1, L1=L1, D2=D2, d2=d2,
                           R2=R2, r4=r4, L2=L2, L3=L3, Delta=Delta, d_a=d_a,
                           d_t=d_t, rho_min=0.0, rho_max=rho_span)
    doc = serialize_geometry(geom)
    try:
        loaded = load_geometry(doc)
    except GeometryError:
        assert validate(geom) != []
        return
    assert validate(loaded) == []
    assert loaded == geom
    assert load_geometry(serialize_geometry(loaded)) == loaded


def test_derived_quantities():
    g = DEFAULT_SYNTHETIC
    assert g.center_x == g.d1 - g.D1 == -250.0
    assert g.C1 == g.r1 * g.R2 - g.r4 * g.R1 == -14400.0
    assert g.offset_gap == 70.0
    assert g.residual_scale == 520.0**2  # L2 = L3 = 520 dominates
    assert math.isclose(g.a_sq(1.0), g.L1**2 - (g.R1 - g.r1)**2)
    assert math.isclose(g.a_sq(-1.0), g.L1**2 - (g.R1 + g.r1)**2)


def test_geometry_with_a_compiled_octic_pickles_and_deep_copies():
    # the compiled octic holds generated code, which does not pickle: the
    # copies leave it out, compile their own and give the same modes
    geom = replace(DEFAULT_SYNTHETIC)
    joints = ParallelJoints(500.0, 400.0, 420.0)
    modes = repr(enumerate_fk(geom, joints))
    assert "compiled_octic" in vars(geom) and modes.count("AssemblyMode") == 2
    copies = [pickle.loads(pickle.dumps(geom, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for other in [*copies, copy.deepcopy(geom)]:
        assert other == geom and hash(other) == hash(geom)
        assert "compiled_octic" not in vars(other)
        assert repr(enumerate_fk(other, joints)) == modes
    assert "compiled_octic" in vars(geom)
