"""Tests of the benchmark's own machinery.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import pkmkin  # noqa: E402
import pkmkin.cli  # noqa: E402,F401
import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402
from stats import relative_iqr, tail_percentile  # noqa: E402

GEOM = pkmkin.read_geometry_file(os.path.join(BENCH, "synthetic.cfg"))
LAYERS = [pkmkin.geometry, pkmkin.rootfind, pkmkin.parallel_ik, pkmkin.parallel_fk,
          pkmkin.machine, pkmkin.oracle, pkmkin.cli]


def _floats(item):
    if isinstance(item, tuple):
        return list(item)
    return [getattr(item, f) for f in item.__dataclass_fields__]


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    w = wl.WORKLOADS[name]
    first = w.inputs(GEOM, np.random.default_rng(7), 10)
    again = w.inputs(GEOM, np.random.default_rng(7), 10)
    other = w.inputs(GEOM, np.random.default_rng(8), 10)
    assert [_floats(i) for i in first] == [_floats(i) for i in again]
    assert [_floats(i) for i in first] != [_floats(i) for i in other]


def test_census_forces_rho3_equal_rho2_on_every_fourth_input():
    joints = wl.census_inputs(GEOM, np.random.default_rng(3), 12)
    assert [j.rho3 == j.rho2 for j in joints] == [False, False, False, True] * 3


def test_self_time_on_hand_built_span_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; b has child c [6, 7]
    start = np.array([0.0, 1.0, 5.0, 6.0])
    end = np.array([10.0, 4.0, 9.0, 7.0])
    parent = np.array([-1, 0, 0, 2], dtype=np.int32)
    assert tr.self_times(start, end, parent).tolist() == [3.0, 3.0, 3.0, 1.0]
    spans = {"name": np.array([0, 1, 1, 2], dtype=np.int32), "start": start, "end": end,
             "parent": parent, "size": np.array([2, -2, 5, -1], dtype=np.int32),
             "aux": np.array([0, 0, 8, 0], dtype=np.int32),
             "error": np.array([0, 0, 0, tr.AMBIGUOUS], dtype=np.int8)}
    summary, self_t = tr.summarize(spans, ["root", "leaf", "grandchild"])
    assert summary["leaf"]["calls"] == 2 and summary["leaf"]["self_s"] == 6.0
    assert summary["leaf"]["none"] == 1 and summary["leaf"]["size_sum"] == 5
    assert summary["grandchild"]["errors"][tr.AMBIGUOUS] == 1
    # self times of the whole tree add up to the root span's duration
    assert self_t.sum() == 10.0


def test_tail_percentile_rule_on_known_data():
    values = list(range(1, 101))[::-1]
    assert tail_percentile(values) == (90, 90.0, 100)
    assert tail_percentile(range(1, 12)) == (1, 100.0 / 11, 11)
    assert tail_percentile([5, 3, 4]) == (5, 100.0, 3)
    with pytest.raises(ValueError):
        tail_percentile([])


def test_relative_iqr():
    assert relative_iqr([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(3.0 / 3.0)


def test_wrappers_record_spans_at_every_binding_and_are_restored():
    originals = {(m.__name__, a): o for m in [pkmkin, *LAYERS] for a, o in vars(m).items()}
    joints = pkmkin.ParallelJoints(450.0, 400.0, 380.0)
    expected = pkmkin.parallel_fk.enumerate_fk(GEOM, joints)

    tracer = tr.Tracer({pkmkin.AmbiguousSelectionError: tr.AMBIGUOUS})
    tracer.install(LAYERS, [pkmkin, *LAYERS])
    try:
        wrapped = pkmkin.rootfind.real_roots
        assert wrapped is not originals[("pkmkin.rootfind", "real_roots")]
        for module in (pkmkin, pkmkin.parallel_fk, pkmkin.machine):
            assert module.real_roots is wrapped
        assert pkmkin.parallel_ik.real_roots_in_unit_interval is \
            pkmkin.rootfind.real_roots_in_unit_interval
        assert pkmkin.parallel_fk.enumerate_fk(GEOM, joints) == expected
        assert len(tracer.name) == 0  # no active item: calls pass straight through
        tracer.item_id = 0
        assert pkmkin.parallel_fk.enumerate_fk(GEOM, joints) == expected
        tracer.item_id = -1
    finally:
        left = tracer.restore()
    assert left == []
    assert tr.wrapped_attributes([pkmkin, *LAYERS]) == []
    for module in [pkmkin, *LAYERS]:
        for attr, obj in vars(module).items():
            if (module.__name__, attr) in originals:
                assert obj is originals[(module.__name__, attr)], f"{module.__name__}.{attr}"

    spans = tracer.arrays()
    names = [tracer.names[i] for i in spans["name"]]
    assert names[0] == "parallel_fk.enumerate_fk" and spans["parent"][0] == -1
    roots = names.index("rootfind.real_roots")
    assert names[spans["parent"][roots]] == "parallel_fk.enumerate_fk"
    assert spans["aux"][roots] == 8  # the octic's degree
    assert (spans["end"] >= spans["start"]).all()
    assert spans["size"][0] == len(expected)


def test_leaf_helpers_called_across_layers_are_not_wrapped():
    tracer = tr.Tracer()
    tracer.install(LAYERS, [pkmkin, *LAYERS])
    try:
        assert pkmkin.parallel_fk.constraint_residuals is pkmkin.parallel_ik.constraint_residuals
        assert not hasattr(pkmkin.parallel_fk.constraint_residuals, tr.WRAPPED_MARK)
        assert not hasattr(pkmkin.machine.wrap_angle, tr.WRAPPED_MARK)
        assert hasattr(pkmkin.parallel_fk.enumerate_fk, tr.WRAPPED_MARK)
    finally:
        assert tracer.restore() == []


def test_traced_execution_records_no_span_outside_the_timed_run():
    joints = pkmkin.ParallelJoints(450.0, 400.0, 380.0)

    def run_item(geom, item, index):
        return pkmkin.parallel_fk.enumerate_fk(geom, item)

    def check_item(geom, item, out):
        pkmkin.parallel_ik.enumerate_ik(geom, -250.0, 90.0, 900.0)  # a wrapped call
        return None, {}

    workload = dataclasses.replace(wl.WORKLOADS["joint-census"], run=run_item, check=check_item)
    loop = run.Loop(workload, GEOM, [joints])
    tracer = tr.Tracer()
    tracer.install(LAYERS, [pkmkin, *LAYERS])
    try:
        loop.execute(0, tracer, -1)
        assert len(tracer.name) == 0  # untraced execution
        loop.execute(0, tracer, 5)
        assert tracer.item_id == -1
    finally:
        assert tracer.restore() == []
    spans = tracer.arrays()
    names = {tracer.names[i] for i in spans["name"]}
    assert "parallel_fk.enumerate_fk" in names
    assert not any(n.startswith("parallel_ik.") for n in names)
    assert (spans["item"] == 5).all()
    assert loop.attempted == 2 and loop.failed == 0


def test_lost_assembly_mode_on_a_default_seed_input_is_a_problem(monkeypatch):
    with open(run.REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)
    census = wl.WORKLOADS["joint-census"]
    assert run.mode_census(wl, census, GEOM, reference) == []
    # with every alpha = 0 candidate dropped (the octic's t = 0 root as well
    # as the explicit injection), rho2 = rho3 inputs 167, 359 and 503 of the
    # default seed lose their two modes at alpha = 0; the per-item checks
    # cannot see that
    sphere = pkmkin.parallel_fk._sphere_candidates
    monkeypatch.setattr(pkmkin.parallel_fk, "_sphere_candidates",
                        lambda geom, joints, alpha: [] if alpha == 0.0 else
                        sphere(geom, joints, alpha))
    problems = run.mode_census(wl, census, GEOM, reference)
    assert [p.split(":")[0] for p in problems] == [
        f"default-seed input {i}" for i in (167, 359, 503)]
