import collections
import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

import nsfsim
from nsfsim import cli, mms, relent, scenario as sc, solver, studies
from nsfsim.mesh import Mesh1D

from conftest import make_table_eos

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"


def minimal_doc(**config):
    doc = {
        "mesh": {"x0": 0.0, "x1": 1.0, "n": 16},
        "eos": {"shape": "iconic"},
        "transport": {},
        "boundary": {"faces": [{"pos": 0.0, "u_b": 0.0, "wall": True},
                               {"pos": 1.0, "u_b": 0.0, "wall": True}]},
        "config": {"t_end": 0.01},
        "initial": {"rho": "1", "u": "0", "theta": "1"},
    }
    doc["config"].update(config)
    return doc


# ---------------------------------------------------------------------------
# loading and validation
# ---------------------------------------------------------------------------


def test_minimal_scenario_loads_with_defaults():
    scn = sc.parse_scenario(minimal_doc())
    assert scn.config.Gamma == 4.0
    assert scn.config.d == 3
    assert scn.output_times == [0.0, 0.01]
    # the floors, the reject budget and the reference temperature are fixed
    assert (solver.RHO_FLOOR, solver.THETA_FLOOR, solver.MAX_REJECTS,
            solver.THETA_BAR) == (1e-10, 1e-10, 20, 1.0)


def test_inadmissible_flux_rejected_with_margin():
    doc = minimal_doc()
    doc["boundary"]["faces"] = [
        {"pos": 0.0, "u_b": 1.0, "rho_b": 1.0, "F_ib": -1.0},
        {"pos": 1.0, "u_b": 1.0},
    ]
    with pytest.raises(sc.ScenarioValidationError) as err:
        sc.parse_scenario(doc)
    issues = err.value.issues
    assert any(i.code == "inflow-flux-admissibility" for i in issues)
    assert any("0.5" in i.message for i in issues)  # the offending margin


@pytest.mark.parametrize("mesh, faces, paths", [
    ({"x0": 0.0, "x1": 3.0, "n": 16},
     [{"pos": -4.0, "u_b": 0.0, "wall": True}, {"pos": 7.0, "u_b": 0.0, "wall": True}],
     ["boundary.faces[0].pos", "boundary.faces[1].pos"]),
    # two inflow faces without pos both default to x = 0
    ({"x0": 0.0, "x1": 1.0, "n": 16},
     [{"u_b": 0.5, "rho_b": 1.0, "F_ib": -2.0}, {"u_b": -0.5, "rho_b": 2.0, "F_ib": -5.0}],
     ["boundary.faces[1].pos"])])
def test_face_positions_must_be_mesh_ends(mesh, faces, paths, tmp_path, capsys):
    doc = minimal_doc()
    doc["mesh"], doc["boundary"]["faces"] = mesh, faces
    with pytest.raises(sc.ScenarioValidationError) as err:
        sc.parse_scenario(doc)
    assert [(i.path, i.code) for i in err.value.issues] == [
        (path, "boundary-schema") for path in paths]
    scenario = tmp_path / "bad.json"
    scenario.write_text(json.dumps(doc))
    assert cli.main(["audit-boundary", str(scenario)]) == 1
    out = capsys.readouterr().out
    assert out.splitlines() == [f"FAIL  {issue}" for issue in err.value.issues]
    assert "margin" not in out
    faces.reverse()  # document order does not matter when the ends are right
    for face, pos in zip(faces, (mesh["x1"], mesh["x0"])):
        face["pos"] = pos
    assert sc.parse_scenario(doc).boundary.left.pos == mesh["x0"]


def test_negative_inflow_density_rejected():
    doc = minimal_doc()
    doc["boundary"]["faces"] = [
        {"pos": 0.0, "u_b": 1.0, "rho_b": -1.0, "F_ib": -3.0},
        {"pos": 1.0, "u_b": 1.0},
    ]
    with pytest.raises(sc.ScenarioValidationError) as err:
        sc.parse_scenario(doc)
    assert any(i.code == "positive-inflow-density" for i in err.value.issues)


def _throughflow16(mutate):
    doc = json.loads((SCENARIO_DIR / "throughflow.json").read_text())
    doc["mesh"]["n"] = 16
    mutate(doc)
    return doc


def _fast_inflow(d):
    for face in d["boundary"]["faces"]:
        face["u_b"] = 2.0
    d["initial"]["u"] = "2.0"
    d["boundary"]["faces"][0]["F_ib"] = -1e308


@pytest.mark.parametrize("mutate, path, code, detail", [
    (lambda d: d["boundary"]["faces"][0].update(rho_b=1e308), "boundary.faces[0].rho_b",
     "boundary-schema", ""),
    # rho_b^(5/3) = 1.5e308 is finite; 1.5 p_inf times it rounds to inf
    (lambda d: d["boundary"]["faces"][0].update(rho_b=1.5e308 ** 0.6),
     "boundary.faces[0].rho_b", "boundary-schema", ""),
    (lambda d: d["boundary"]["faces"][1].update(u_b=math.inf), "boundary.faces[1].u_b",
     "boundary-schema", ""),
    # F_ib / |u_b.n| = -inf passed as a strictly negative margin
    (lambda d: d["boundary"]["faces"][0].update(F_ib=-1e308), "boundary.faces[0].F_ib",
     "boundary-schema", ""),
    # a finite margin, but the stage's F_ib / h overflows
    (_fast_inflow, "boundary.faces[0].F_ib", "boundary-schema", ""),
    (lambda d: d["eos"].update(a=1e308), "eos", "eos-schema", ""),
    # closures finite on the invariant checks' grid, not at the document's
    # data: (p_theta)^2 in c^2 overflows at theta = 1000 in every cell, and
    # (rho e)_theta / rho at the inflow face's rho_b
    (lambda d: (d["eos"].update(a=1e150), d["initial"].update(theta="1000")), "eos",
     "eos-schema", "c^2 is not finite at cell 0: rho = 1, theta = 1e+03"),
    (lambda d: d["boundary"]["faces"][0].update(rho_b=1e-310), "eos", "eos-schema",
     "e is not finite at the inflow face at x = 0: rho = 1e-310, theta = 1,"),
    (lambda d: d["eos"].update(a=math.inf), "eos.a", "eos-schema", ""),
    (lambda d: d["eos"].update(p_inf=1e308), "eos.p_inf", "eos-schema", ""),
    (lambda d: d["eos"].update(p_inf=math.nan), "eos.p_inf", "eos-schema", "")],
    ids=["rho_b", "rho_b-product", "u_b-inf", "F_ib-margin", "F_ib-over-h", "a",
         "a-at-the-cells", "rho_b-at-the-face", "a-inf", "p_inf", "p_inf-nan"])
def test_overflowing_parameters_are_refused_by_path(mutate, path, code, detail):
    # an inflow rho_b whose cold energy overflows raised a raw OverflowError
    # or, when only the product overflows, was refused with a margin of inf;
    # an eos.a whose closures overflow parsed and its run aborted on a NaN
    # dt; an overflowing p_inf was refused as "nan" invariants after numpy
    # warnings (errors here); a parameter that is not finite parsed; an
    # overflowing F_ib and closures that overflow only at the document's
    # own data parsed, and their runs warned of the overflow
    doc = json.loads(json.dumps(_throughflow16(mutate)))
    with pytest.raises(sc.ScenarioValidationError) as err:
        sc.parse_scenario(doc)
    assert [(i.path, i.code) for i in err.value.issues] == [(path, code)]
    assert detail in err.value.issues[0].message


_POOL = [None, True, False, 0, 1, -1, 1.5, 1e308, -1e308, 10 ** 400, -0.0,
         math.inf, -math.inf, math.nan, "1", "abc", [], {}, [[1]]]


def _leaves(node, path=()):
    """The path of each leaf of a JSON document, as a tuple of keys; of an
    eos table column only the first and the last entry."""
    if not isinstance(node, (dict, list)):
        yield path
        return
    keys = (node if isinstance(node, dict) else
            (0, len(node) - 1) if path[-2:-1] == ("table",) else range(len(node)))
    for key in keys:
        yield from _leaves(node[key], (*path, key))


def _issue_path(path) -> str:
    """The issue path of a keyed leaf: a table column's, not its entry's."""
    path = path[:3] if path[1] == "table" else path
    return "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path)[1:]


@pytest.fixture(scope="module")
def mutated_leaf_documents():
    """(path, value, keyed_float, outcome) for each leaf of three documents
    set to each value of the pool; the outcome of parse_scenario, with
    warnings as errors, is the Scenario, the (path, code) of each issue, or
    the repr of any other exception."""
    table = make_table_eos(third_law=True)
    closed = json.loads((SCENARIO_DIR / "closed_box.json").read_text())
    closed["mesh"]["n"] = 16
    docs = [_throughflow16(lambda d: None), closed, _throughflow16(lambda d: d.update(eos={
        "shape": "table", "third_law": True,
        "table": {"z": list(table.table_z), "p": list(table.table_p)}}))]
    out = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for doc, path, value in ((d, p, v) for d in docs for p in _leaves(d) for v in _POOL):
            mutated = json.loads(json.dumps(doc))
            node = mutated
            for key in path[:-1]:
                node = node[key]
            keyed_float = isinstance(node[path[-1]], float) and path[0] != "output_times"
            node[path[-1]] = value
            try:
                outcome = sc.parse_scenario(mutated)
            except sc.ScenarioValidationError as err:
                outcome = [(i.path, i.code) for i in err.issues]
            except Exception as err:
                outcome = repr(err)
            out.append((path, value, keyed_float, outcome))
    return out


def test_every_mutated_leaf_parses_or_is_refused(mutated_leaf_documents):
    # the parse half of the property: a document with any leaf set to any
    # value of the pool is a Scenario or the issue list, never a raw
    # exception or a warning; a keyed float set to a value that is not
    # finite is one <section>-schema issue under its own path
    failures = []
    for path, value, keyed_float, outcome in mutated_leaf_documents:
        if isinstance(outcome, str):
            failures.append((path, value, outcome))
        elif keyed_float and isinstance(value, float) and not math.isfinite(value):
            if outcome != [(_issue_path(path), f"{path[0]}-schema")]:
                failures.append((path, value, outcome))
    assert failures == []


_FIRST_STAGE = "first stage: overflow encountered in multiply; no attempt made"
_EVERY_ATTEMPT = "rejected 21 times (last: overflow encountered in multiply)"


@pytest.mark.parametrize("mutate, cause", [
    (lambda d: d["config"].update(delta=1e300), _FIRST_STAGE),
    (lambda d: d["initial"].update(u="1e200*x"), _FIRST_STAGE),
    (lambda d: d["transport"].update(mu_scale=1e300), _EVERY_ATTEMPT),
    (lambda d: d["config"].update(g=1e300), _EVERY_ATTEMPT),
    (lambda d: d["config"].update(g=-1e300), _EVERY_ATTEMPT),
    (lambda d: d["boundary"]["faces"][0].update(F_ib=-1e200), _EVERY_ATTEMPT)],
    ids=["delta", "initial-u", "mu_scale", "g", "g-negative", "F_ib"])
def test_a_run_that_overflows_aborts_naming_the_overflow(mutate, cause):
    # each document parses and its run overflows in a multiply: numpy's
    # flags reject the attempt that overflows, or abort a first stage that
    # does before any attempt, and nothing warns (warnings are errors here)
    scenario = sc.parse_scenario(_throughflow16(mutate))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(solver.RunAborted) as err:
            scenario.run()
    assert cause in str(err.value)


class _Enough(Exception):
    """Stops a run after the steps a test asked for."""


def _capped_steps(monkeypatch, n):
    """Make solver.step stop a run by _Enough after n steps, and fail a step
    whose dt is not positive, which would leave t where it is for ever."""
    step, calls = solver.step, []

    def capped(*args, **kwargs):
        if len(calls) == n:
            raise _Enough
        calls.append(1)
        result = step(*args, **kwargs)
        assert result[1] > 0.0, f"a step of dt {result[1]!r} does not advance t"
        return result
    monkeypatch.setattr(solver, "step", capped)


def test_every_parsed_mutated_leaf_runs_or_aborts(mutated_leaf_documents, monkeypatch):
    # the run half of the property: each document the sweep parses takes
    # three steps that advance t, or reaches t_end, or raises RunAborted,
    # with warnings as errors; 17 of them (mu, eta or kappa scale, epsilon,
    # delta or the outflow u_b at 1e308) overflow in the run.  The cap on
    # the steps keeps a run whose dt is tiny short
    parsed = [(path, value, outcome) for path, value, _, outcome in mutated_leaf_documents
              if isinstance(outcome, sc.Scenario)]
    assert parsed
    failures = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for path, value, scenario in parsed:
            _capped_steps(monkeypatch, 3)
            try:
                scenario.run()
            except (_Enough, solver.RunAborted):
                pass
            except Exception as err:
                failures.append((path, value, repr(err)))
    assert failures == []


def test_a_run_whose_epsilon_limit_underflows_aborts_before_any_step(monkeypatch):
    # at epsilon = 1e308, 2 epsilon rounds to inf as a Python float with no
    # flag, so the epsilon limit h^2/(2 epsilon) of the dt is 0.0 while the
    # stage stays finite; the run refuses that dt instead of stepping in
    # place for ever (the step cap turns such a step into a failure)
    doc = json.loads((SCENARIO_DIR / "closed_box.json").read_text())
    doc["mesh"]["n"] = 16
    doc["initial"] = {"rho": "1", "u": "0", "theta": "0.3"}
    doc["config"]["epsilon"] = 1e308
    scenario = sc.parse_scenario(doc)
    _capped_steps(monkeypatch, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(solver.RunAborted, match=r"^step at t=0: first stage: the time step "
                           r"0\.0 would take more than 1e\+09 steps to reach t_end; "
                           r"no attempt made$") as err:
            scenario.run()
    assert err.value.trajectory.n_steps == 0


@pytest.mark.parametrize("section, key", [("config", "epsilon"), ("config", "t_end")])
def test_a_run_that_would_not_end_aborts_before_any_step(monkeypatch, section, key):
    # at epsilon = 1e300 the epsilon limit makes the first dt 7.8e-304, and
    # at t_end = 1e300 the acoustic dt is about 0.01: either run would take
    # far more than MAX_STEPS steps, so it refuses its dt before any attempt
    # instead of stepping for ever (the step cap turns a step into a failure)
    doc = json.loads((SCENARIO_DIR / "throughflow.json").read_text())
    doc["mesh"]["n"] = 16
    doc[section][key] = 1e300
    scenario = sc.parse_scenario(doc)
    _capped_steps(monkeypatch, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(solver.RunAborted, match=r"^step at t=0: first stage: the time step "
                           r"\S+ would take more than 1e\+09 steps to reach t_end; "
                           r"no attempt made$") as err:
            scenario.run()
    assert err.value.trajectory.n_steps == 0


def test_a_dt_that_does_not_advance_t_aborts(monkeypatch):
    # a dt within the step budget that is below half an ulp of t leaves t
    # where it is: here a rest state in a closed box, which any dt keeps at
    # rest, takes one step to 1 - 1e-8 and then gets a dt of 2e-17, whose
    # 1e9 steps span the 1e-8 left but which is below half an ulp of t
    doc = json.loads((SCENARIO_DIR / "closed_box.json").read_text())
    doc["mesh"]["n"] = 8
    doc["initial"] = {"rho": "1", "u": "0", "theta": "1"}
    doc["config"]["t_end"] = 1.0
    doc["output_times"] = [0.0, 1.0]
    scenario = sc.parse_scenario(doc)
    first = [1.0 - 1e-8]
    monkeypatch.setattr(solver, "_cfl_dt", lambda *args: first.pop() if first else 2e-17)
    _capped_steps(monkeypatch, 3)
    with pytest.raises(solver.RunAborted, match=r"^step at t=1: first stage: the time step "
                       r"2e-17 does not advance t; no attempt made$") as err:
        scenario.run()
    assert err.value.trajectory.n_steps == 1


def test_all_failures_reported_together():
    doc = minimal_doc()
    doc["mesh"]["n"] = 0
    doc["config"]["Gamma"] = 1.5
    doc["initial"]["theta"] = "-1"
    with pytest.raises(sc.ScenarioValidationError) as err:
        sc.parse_scenario(doc)
    codes = {i.code for i in err.value.issues}
    assert {"mesh-schema", "config-schema"} <= codes


def test_a_mesh_too_large_to_allocate_is_a_mesh_issue(monkeypatch):
    # a stand-in for the mesh raises numpy's MemoryError, so nothing of the
    # size asked for (n = 10**12) is ever allocated
    def unallocatable(x0, x1, n):
        raise MemoryError(f"Unable to allocate {8 * n / 2 ** 40:.2f} TiB")
    monkeypatch.setattr(sc, "Mesh1D", unallocatable)
    doc = minimal_doc()
    doc["mesh"]["n"] = 10 ** 12
    with pytest.raises(sc.ScenarioValidationError) as err:
        sc.parse_scenario(doc)
    assert [(i.path, i.code, i.message) for i in err.value.issues] == [
        ("mesh", "mesh-schema", "Unable to allocate 7.28 TiB")]


@pytest.mark.parametrize("key, value", [("t_end", math.inf), ("t_end", math.nan),
                                        ("epsilon", math.nan), ("delta", math.inf),
                                        ("Gamma", math.inf), ("g", math.nan),
                                        ("g", math.inf)])
def test_non_finite_settings_are_refused(key, value):
    # through JSON ("t_end": Infinity); an infinite t_end never ends a run,
    # a NaN epsilon reads as 0 wherever the solver tests epsilon > 0, and a
    # NaN g rejects every step of a run until it aborts
    doc = json.loads(json.dumps(minimal_doc(**{key: value})))
    with pytest.raises(sc.ScenarioValidationError) as err:
        sc.parse_scenario(doc)
    assert [(i.path, i.code) for i in err.value.issues] == [(f"config.{key}", "config-schema")]
    assert err.value.issues[0].message == f"expected a finite number, got {value!r}"


def test_unknown_keys_reported_by_path():
    doc = minimal_doc(epsilom=0.1, theta_bar=1.0, rho_floor=1e-10, theta_floor=1e-10)
    eos = make_table_eos(third_law=False)
    doc["eos"].update(shape="table", pinf=2.0,
                      table={"z": list(eos.table_z), "p": list(eos.table_p), "q": 1})
    doc["mesh"]["cells"] = 64
    doc["transport"]["mu"] = 1.0
    doc["transport"]["mu_over"] = 1.0
    doc["initial"]["T"] = "1"
    doc["boundary"]["faces"][1]["rhob"] = 1.0
    doc["boundary"]["walls"] = True
    doc["outputs"] = [0.0]
    with pytest.raises(sc.ScenarioValidationError) as err:
        sc.parse_scenario(doc)
    assert sorted(i.path for i in err.value.issues) == sorted([
        "config.epsilom", "config.theta_bar", "config.rho_floor", "config.theta_floor",
        "eos.pinf", "eos.table.q", "mesh.cells", "transport.mu", "transport.mu_over",
        "initial.T", "boundary.faces[1].rhob", "boundary.walls", "outputs"])
    assert {i.code for i in err.value.issues} == {"unknown-key"}
    # every key a reader takes is known: a document spelling out all of them parses
    full = minimal_doc(epsilon=0.0, delta=0.0, Gamma=4.0, d=3, cfl=0.4, g=0.0)
    full["eos"].update(a=1.0, p_inf=1.0, entropy_const=0.0, third_law=False)
    full["transport"].update(lambda_exp=0.5, mu_scale=1.0, eta_scale=0.0, kappa_scale=1.0)
    full["output_times"] = [0.0, 0.01]
    assert sc.parse_scenario(full).config == sc.parse_scenario(minimal_doc()).config


def _set_eos_a(doc):
    doc["eos"]["a"] = "x"


def _set_face_speed(doc):
    doc["boundary"]["faces"][0]["u_b"] = "fast"


def _set_mesh_number(doc):
    doc["mesh"] = 5


def _drop_table_z(doc):
    doc["eos"] = {"shape": "table", "table": {"p": [1.0, 2.0, 3.0]}}


def _set_cells_fraction(doc):
    doc["mesh"]["n"] = 64.7


def _set_cells_flag(doc):
    doc["mesh"]["n"] = True


def _set_dimension_fraction(doc):
    doc["config"]["d"] = 2.9


def _set_face_speed_flag(doc):
    doc["boundary"]["faces"][0]["u_b"] = True


def _set_third_law_string(doc):
    eos = make_table_eos(third_law=True)
    doc["eos"] = {"shape": "table", "third_law": "false",
                  "table": {"z": list(eos.table_z), "p": list(eos.table_p)}}


def _set_outflow_wall_string(doc):
    doc["boundary"]["faces"] = [{"pos": 0.0, "u_b": 0.5, "rho_b": 1.0, "F_ib": -2.0},
                                {"pos": 1.0, "u_b": 0.5, "wall": "no"}]


def _set_output_time_flag(doc):
    doc["config"]["t_end"] = 2.0
    doc["output_times"] = [0.0, True]


def _set_output_times_string(doc):
    doc["output_times"] = "0"


def _set_initial_flags(doc):
    doc["initial"]["u"] = [False] * doc["mesh"]["n"]


def _set_table_knot_flag(doc):
    eos = make_table_eos(third_law=True)
    doc["eos"] = {"shape": "table", "third_law": True,
                  "table": {"z": [True, *eos.table_z[1:]], "p": list(eos.table_p)}}


def _set_end_time_beyond_floats(doc):
    doc["config"]["t_end"] = 10 ** 400


def _set_faces_null(doc):
    doc["boundary"]["faces"] = None


@pytest.mark.parametrize("corrupt, path", [
    (_set_eos_a, "eos.a"), (_set_face_speed, "boundary.faces[0].u_b"),
    (_set_mesh_number, "mesh"), (_drop_table_z, "eos.table.z"),
    # a value keeps its JSON type: no fraction or flag as an int, no flag as
    # a float, nothing but true or false as a bool
    (_set_cells_fraction, "mesh.n"), (_set_cells_flag, "mesh.n"),
    (_set_dimension_fraction, "config.d"), (_set_face_speed_flag, "boundary.faces[0].u_b"),
    (_set_third_law_string, "eos.third_law"), (_set_outflow_wall_string, "boundary.faces[1].wall"),
    # and so does each item of a list of numbers, which must be a list
    (_set_output_time_flag, "output_times"), (_set_output_times_string, "output_times"),
    (_set_initial_flags, "initial.u"), (_set_table_knot_flag, "eos.table.z"),
    # an integer beyond the float range is no float
    (_set_end_time_beyond_floats, "config.t_end"),
    # null faces read as no faces, and the closure check then raised
    (_set_faces_null, "boundary.faces")])
def test_malformed_value_reported_by_path(corrupt, path, tmp_path, capsys):
    doc = minimal_doc(epsilom=0.1)
    corrupt(doc)
    with pytest.raises(sc.ScenarioValidationError) as err:
        sc.parse_scenario(doc)
    assert sorted(i.path for i in err.value.issues) == sorted([path, "config.epsilom"])
    (issue,) = [i for i in err.value.issues if i.path == path]
    assert issue.code.endswith("-schema")
    # the CLI prints the issue list, not a traceback
    scenario = tmp_path / "bad.json"
    scenario.write_text(json.dumps(doc))
    assert cli.main(["run", str(scenario), "--out", str(tmp_path / "out")]) == 1
    assert f"FAIL  {issue}" in capsys.readouterr().out


def test_numeric_strings_and_integral_numbers_parse():
    doc = minimal_doc(d="2")
    doc["mesh"]["n"] = 16.0
    doc["boundary"]["faces"][0]["u_b"] = "0"
    scn = sc.parse_scenario(doc)
    assert (scn.mesh.n_cells, scn.config.d) == (16, 2)
    assert scn.boundary.left.u_b == 0.0


def test_output_time_in_the_slack_past_t_end_is_t_end():
    # output times up to 1e-12 past t_end are admitted and recorded as
    # t_end, by the parser's state-file check and by the run alike
    doc = minimal_doc()
    doc["output_times"] = [0.0, 0.01 + 5e-13]
    scn = sc.parse_scenario(doc)
    assert scn.run().times == [0.0, 0.01]
    assert solver.recorded_times([0.005, 0.01 + 5e-13], 0.01) == [0.0, 0.005, 0.01]


def test_initial_arrays_are_per_cell_values():
    # a list of n numbers is the field cell by cell, equal to the same field
    # given as an expression; a list of another length is an issue
    doc = minimal_doc()
    doc["initial"]["theta"] = "1 + 0.1*cos(pi*x)"
    theta = sc.parse_scenario(doc).initial.theta
    doc["initial"]["theta"] = theta.tolist()
    np.testing.assert_array_equal(sc.parse_scenario(doc).initial.theta, theta)
    doc["initial"]["theta"] = theta.tolist()[1:]
    with pytest.raises(sc.ScenarioValidationError) as err:
        sc.parse_scenario(doc)
    assert [(i.path, i.code, i.message) for i in err.value.issues] == [
        ("initial.theta", "initial-schema", "array length 15 does not match n=16")]


def test_initial_data_below_floor_reported(tmp_path, capsys):
    # one rule for initial data: below the fixed floor is an issue, and no
    # value is clamped, however large
    doc = minimal_doc()
    doc["initial"]["theta"] = "1e-12"
    with pytest.raises(sc.ScenarioValidationError) as err:
        sc.parse_scenario(doc)
    assert [(i.path, i.code) for i in err.value.issues] == [("initial.theta",
                                                             "initial-positivity")]
    doc["initial"]["theta"] = "1e12"
    assert np.all(sc.parse_scenario(doc).initial.theta == 1e12)
    # a run refuses it with the issue, not a traceback
    doc["initial"].update(rho="1e-12", theta="1")
    scenario = tmp_path / "thin.json"
    scenario.write_text(json.dumps(doc))
    assert cli.main(["run", str(scenario), "--out", str(tmp_path / "out")]) == 1
    fails = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert fails == ["FAIL  [initial-positivity] initial.rho: initial rho is below its "
                     "floor 1e-10 in 16 of 16 cells"]
    assert not (tmp_path / "out").exists()


def test_positive_initial_density_required():
    doc = minimal_doc()
    doc["initial"]["rho"] = "x - 0.5"
    with pytest.raises(sc.ScenarioValidationError) as err:
        sc.parse_scenario(doc)
    assert any(i.code == "initial-positivity" for i in err.value.issues)


def test_nonfinite_initial_field_reported():
    doc = minimal_doc()
    doc["initial"]["theta"] = "1 + 0*log(x - 0.5)"
    with pytest.raises(sc.ScenarioValidationError) as err:
        sc.parse_scenario(doc)
    (issue,) = [i for i in err.value.issues if i.code == "initial-finite"]
    assert issue.path == "initial.theta"
    assert "8 of 16 cells" in issue.message


def test_shipped_scenarios_validate():
    for path in sorted(SCENARIO_DIR.glob("*.json")):
        if path.name.startswith("eos_"):
            continue
        scn = sc.load_scenario(path)
        assert scn.mesh.n_cells <= 256


# ---------------------------------------------------------------------------
# expression grammar
# ---------------------------------------------------------------------------


def test_expression_operators_and_constants():
    x = np.array([0.0, 0.5, 1.0])
    np.testing.assert_allclose(sc.eval_field_expression("1 + 2*x^2", x),
                               1 + 2 * x ** 2)
    np.testing.assert_allclose(sc.eval_field_expression("cos(pi*x)", x),
                               np.cos(np.pi * x))
    np.testing.assert_allclose(sc.eval_field_expression("exp(-x) + e", x),
                               np.exp(-x) + np.e)
    np.testing.assert_allclose(sc.eval_field_expression("-x/2", x), -x / 2)
    np.testing.assert_allclose(sc.eval_field_expression("log(1 + x)", x),
                               np.log1p(x))


@pytest.mark.parametrize("expr", ["__import__('os')", "y + 1", "sin(x, 2)",
                                  "x if x else 0", "abs(x)", "'str'"])
def test_expression_rejects_unsafe_syntax(expr):
    with pytest.raises(sc.ExpressionError):
        sc.eval_field_expression(expr, np.array([0.5]))


def test_constant_expression_broadcasts():
    assert sc.eval_field_expression("2", np.zeros(5)).shape == (5,)


# ---------------------------------------------------------------------------
# manufactured cases
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["thermal_relaxation", "acoustic_smooth",
                                  "throughflow"])
def test_manufactured_residual_probe(kind):
    case = mms.manufactured_case(kind)
    probe = case.residual_probe()
    assert max(probe.values()) < 1e-6, probe


def test_acoustic_case_reproduces_initial_data():
    case = mms.manufactured_case("acoustic_smooth")
    mesh = Mesh1D(0.0, 1.0, 32)
    st0 = case.exact_state(0.0, mesh)
    np.testing.assert_allclose(st0.rho, 1 + 0.05 * np.cos(np.pi * mesh.centers),
                               rtol=1e-12)
    np.testing.assert_allclose(st0.u, 0.05 / np.pi * np.sin(np.pi * mesh.centers)
                               / st0.rho, rtol=1e-10, atol=1e-14)


def test_throughflow_extracts_inflow_data():
    case = mms.manufactured_case("throughflow")
    left = case.boundary.left
    assert left.u_dot_n < 0.0
    assert left.rho_b == pytest.approx(1.0)
    assert left.F_ib < 0.0


@pytest.mark.parametrize("kind, traces", [
    ("thermal_relaxation", {"u_b_left": 0.0, "u_b_right": 0.0}),
    ("acoustic_smooth", {"u_b_left": 0.0, "u_b_right": 0.0}),
    ("throughflow", {"u_b_left": 0.5, "u_b_right": 0.5, "rho_b_left": 1.0,
                     "F_ib_left": -2.0})])
def test_manufactured_boundary_traces_keep_their_bits(kind, traces, monkeypatch):
    # the t = 0 traces are substituted exactly and rounded once; they equal,
    # sign of zero included, what substituting floats x and t gave
    got = {}
    make = mms.bd.make_boundary
    monkeypatch.setattr(mms.bd, "make_boundary", lambda **kw: got.update(kw) or make(**kw))
    mms.manufactured_case(kind)
    del got["x_left"], got["x_right"]
    assert {k: v.hex() for k, v in got.items()} == {k: v.hex() for k, v in traces.items()}


def test_unknown_case_rejected():
    with pytest.raises(ValueError):
        mms.manufactured_case("vortex_street")


MMS_CASES = ("thermal_relaxation", "acoustic_smooth", "throughflow")

# the jets of t and x at which the jet arithmetic is checked
JET_T = 0.3
JET_X = np.linspace(0.1, 0.9, 9)


def _assert_jet(jet, v, t, x, xx):
    """Each part of ``jet`` against its hand-written value, to 1e-13 of the
    part's largest magnitude; a None part must be expected zero."""
    for got, want in zip((jet.v, jet.t, jet.x, jet.xx), (v, t, x, xx)):
        want = want + 0.0 * JET_X
        got = 0.0 * JET_X if got is None else got + 0.0 * JET_X
        assert np.abs(got - want).max() <= 1e-13 * max(np.abs(want).max(), 1e-300), (got, want)


def _seeds():
    return mms.Jet(JET_T, t=1.0), mms.Jet(JET_X, x=1.0)


def test_jet_sum_and_difference():
    t, x = _seeds()
    _assert_jet(t + x + 2.0, JET_T + JET_X + 2.0, 1.0, 1.0, 0.0)
    _assert_jet(x - t, JET_X - JET_T, -1.0, 1.0, 0.0)
    _assert_jet(1.0 - x * x, 1.0 - JET_X ** 2, 0.0, -2.0 * JET_X, -2.0)
    _assert_jet(2.0 - t * x, 2.0 - JET_T * JET_X, -JET_X, -JET_T, 0.0)


def test_jet_product():
    # (t + x)(x^2 + t): a product of two jets of both t and x
    t, x = _seeds()
    tt, xx = JET_T, JET_X
    _assert_jet((t + x) * (x * x + t), (tt + xx) * (xx ** 2 + tt), xx ** 2 + 2 * tt + xx,
                3 * xx ** 2 + 2 * tt * xx + tt, 6 * xx + 2 * tt)
    _assert_jet(2.5 * (t * x), 2.5 * tt * xx, 2.5 * xx, 2.5 * tt, 0.0)


def test_jet_separable_product():
    # a jet of t alone times a jet of x alone: the general rule forms one
    # product per part, the zero parts costing none
    t, x = _seeds()
    a = 2.0 * t * t
    b, _ = mms.cos_sin(np.pi * x)
    prod = a * b
    assert a.x is a.xx is b.t is None
    for got, want in zip((prod.v, prod.t, prod.x, prod.xx),
                         (a.v * b.v, a.t * b.v, a.v * b.x, a.v * b.xx)):
        assert np.array_equal(got, want)
    assert np.array_equal((b * a).xx, prod.xx)
    c = np.cos(np.pi * JET_X)
    s = np.sin(np.pi * JET_X)
    _assert_jet(prod, 2 * JET_T ** 2 * c, 4 * JET_T * c, -2 * JET_T ** 2 * np.pi * s,
                -2 * JET_T ** 2 * np.pi ** 2 * c)


def test_velocity_by_the_quotient_rule():
    # u = t x / (2 + x^2), from the jets of m* and rho*
    t, x = _seeds()
    tt, xx = JET_T, JET_X
    d = 2.0 + xx ** 2
    u, u_x, u_xx = mms._velocity(2.0 + x * x, t * x)
    for got, want in ((u, tt * xx / d), (u_x, tt * (2 - xx ** 2) / d ** 2),
                      (u_xx, tt * (2 * xx ** 3 - 12 * xx) / d ** 3)):
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_jet_exp_cos_sin():
    t, x = _seeds()
    tt, xx = JET_T, JET_X
    ex, c, s = np.exp(tt * xx), np.cos(tt * xx), np.sin(tt * xx)
    _assert_jet((t * x).exp(), ex, xx * ex, tt * ex, tt ** 2 * ex)
    cos, sin = mms.cos_sin(t * x)
    _assert_jet(cos, c, -xx * s, -tt * s, -tt ** 2 * c)
    _assert_jet(sin, s, xx * c, tt * c, -tt ** 2 * s)
    # a jet with a second x part of its own: exp(x^2)'' = (2 + 4 x^2) exp(x^2)
    _assert_jet((x * x).exp(), np.exp(xx ** 2), 0.0, 2 * xx * np.exp(xx ** 2),
                (2 + 4 * xx ** 2) * np.exp(xx ** 2))


def test_jets_seeded_without_slopes_carry_values_only():
    t, x = mms.Jet(JET_T), mms.Jet(JET_X)
    cos, sin = mms.cos_sin(np.pi * x)
    jet = (1.0 + (-2.0 * t).exp() * cos * sin) * (2.0 - x * x)
    assert jet.t is jet.x is jet.xx is None
    assert np.allclose(jet.v, (1 + np.exp(-2 * JET_T) * np.cos(np.pi * JET_X)
                               * np.sin(np.pi * JET_X)) * (2 - JET_X ** 2), rtol=1e-15)


@pytest.mark.parametrize("kind", MMS_CASES)
def test_manufactured_sources_compute_each_transcendental_once(kind, monkeypatch):
    # evaluations of g and the energy source take each cos, sin and exp
    # once per argument: cos(pi x) and sin(pi x) serve every field, and
    # every t at the same x
    calls = collections.Counter()

    def counted(name):
        fn = getattr(np, name)
        return lambda v: calls.update([(name, np.asarray(v).tobytes())]) or fn(v)

    monkeypatch.setattr(mms, "np", types.SimpleNamespace(
        **{**vars(np), **{name: counted(name) for name in ("cos", "sin", "exp")}}))
    case = mms.manufactured_case(kind)
    x = Mesh1D(0.0, 1.0, 32).centers
    for t in (0.1, 0.2):
        case.g_fn(t, x)
        case.energy_source_fn(t, x)
    assert max(calls.values(), default=1) == 1, calls
    on_x = sorted(name for name, arg in calls if len(arg) == x.nbytes)
    assert on_x == ([] if kind == "throughflow" else ["cos", "sin"])


def _direct_forms(case) -> dict:
    """g, the energy source, p, e, the stress and q of a manufactured case
    on the iconic EOS, by sp.diff of the balances written in the closed
    forms and compiled with CSE: a derivation independent of the package's
    jets, chain rule and closures."""
    import sympy as sp

    T, X = sp.symbols("t x", real=True)
    if case.name == "thermal_relaxation":
        decay = sp.exp(-2 * T)
        rho_e = 1 + sp.Rational(3, 20) * sp.pi * decay * sp.cos(sp.pi * X)
        u_e = sp.Rational(3, 10) * decay * sp.sin(sp.pi * X) / rho_e
        theta_e = 1 + sp.Rational(3, 20) * decay * sp.cos(sp.pi * X)
    elif case.name == "acoustic_smooth":
        env = sp.exp(-T) * sp.cos(2 * sp.pi * T)
        rho_e = 1 + env * sp.cos(sp.pi * X) / 20
        u_e = -sp.diff(env, T) * sp.sin(sp.pi * X) / (20 * sp.pi * rho_e)
        theta_e = 1 - env * sp.cos(sp.pi * X) / 40
    else:
        rho_e, u_e = sp.Integer(1), sp.Rational(1, 2) + 0 * X
        theta_e = 1 + X ** 2 * (3 - 2 * X) / 5
    a, p_inf = sp.Float(case.eos.a), sp.Float(case.eos.p_inf)
    p_e = rho_e * theta_e + p_inf * rho_e ** sp.Rational(5, 3) + a * theta_e ** 4 / 3
    e_e = (sp.Rational(3, 2) * theta_e + sp.Rational(3, 2) * p_inf * rho_e ** sp.Rational(2, 3)
           + a * theta_e ** 4 / rho_e)
    ts = case.transport
    lam = sp.Rational(ts.lambda_exp)
    mu_e = sp.Float(ts.mu_scale) * (1 + theta_e ** lam)
    eta_e = sp.Float(ts.eta_scale) * (1 + theta_e ** lam)
    kappa_e = sp.Float(ts.kappa_scale) * (1 + theta_e ** 3)
    ux_e = sp.diff(u_e, X)
    stress_e = (mu_e * sp.Rational(4, 3) + eta_e) * ux_e
    q_e = -kappa_e * sp.diff(theta_e, X)
    g_e = (sp.diff(rho_e * u_e, T) + sp.diff(rho_e * u_e ** 2, X)
           + sp.diff(p_e, X) - sp.diff(stress_e, X)) / rho_e
    s_e = (sp.diff(rho_e * e_e, T) + sp.diff(rho_e * e_e * u_e, X)
           + sp.diff(q_e, X) - stress_e * ux_e + p_e * ux_e)
    forms = {"g": g_e, "energy_source": s_e, "p": p_e, "e": e_e, "stress": stress_e, "q": q_e}
    return {k: sp.lambdify((T, X), v, "numpy", cse=True, docstring_limit=0)
            for k, v in forms.items()}


@pytest.mark.parametrize("kind", MMS_CASES)
def test_manufactured_forms_match_the_direct_derivation(kind):
    case = mms.manufactured_case(kind)
    ref = _direct_forms(case)
    x = Mesh1D(0.0, 1.0, 128).centers
    for t in (0.0, 0.01, 0.35):
        forms = case._forms(t, x)
        new = {"g": case.g_fn(t, x), "energy_source": case.energy_source_fn(t, x),
               **{k: forms[k] for k in ("p", "e", "stress", "q")}}
        assert new.keys() == ref.keys()
        for k, value in new.items():
            want = ref[k](t, x) + 0.0 * x
            assert np.abs(value - want).max() <= 1e-12 * np.abs(want).max(), (k, t)


def test_manufactured_sources_evaluate_once_per_stage_time(monkeypatch):
    # stage 2 of one step and stage 1 of the next share a time: one fused
    # evaluation serves g and the energy source at both
    case = mms.manufactured_case("thermal_relaxation")
    evaluations = []
    fused = case._sources
    monkeypatch.setattr(case, "_sources",
                        lambda t, space: evaluations.append(t) or fused(t, space))
    mesh = Mesh1D(case.x_left, case.x_right, 32)
    stage_times = []
    stage = solver._stage_rhs
    monkeypatch.setattr(solver, "_stage_rhs",
                        lambda *a: stage_times.append(a[4]) or stage(*a))
    traj = solver.run(mesh, case.eos, case.transport, case.config(t_end=0.01),
                      case.boundary, case.exact_state(0.0, mesh))
    assert traj.n_rejects == 0 and len(stage_times) == 2 * traj.n_steps
    assert len(set(stage_times)) <= traj.n_steps + 1
    assert sorted(evaluations) == sorted(set(stage_times))


@pytest.mark.parametrize("third_law", [True, False])
def test_mms_orders_on_the_tabulated_eos(third_law):
    # the sources are residuals of the case's own EOS closures, so the
    # study runs on a table, in both tail modes, in the same order window
    case = dataclasses.replace(mms.manufactured_case("thermal_relaxation"),
                               eos=make_table_eos(third_law=third_law))
    assert case.eos.shape == "table"
    study = studies.convergence_study(case, [32, 64, 128], t_end=0.15)
    assert all(study.monotone.values()), study.errors
    assert all(studies.ORDER_LO <= order <= studies.ORDER_HI
               for order in study.orders.values()), study.orders


def test_manufactured_closure_reuses_only_an_equal_call():
    case = mms.manufactured_case("thermal_relaxation")
    fn = case.energy_source_fn
    x = np.linspace(0.1, 0.9, 9)
    first = fn(0.1, x)
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0] = 0.0
    assert fn(0.1, x.copy()) is first  # x is compared by value
    later = fn(0.2, x)
    assert later is not first and not np.array_equal(later, first)
    moved = fn(0.2, x + 0.01)
    assert moved.shape == (9,) and not np.any(moved == later)
    assert fn(0.2, x[:4]).tolist() == later[:4].tolist()
    x[3] += 0.01  # mutated in place: the stored copy keeps the old values
    mutated = fn(0.2, x)
    assert not mutated.flags.writeable
    assert mutated[3] == moved[3] and np.delete(mutated, 3).tolist() == np.delete(
        later, 3).tolist()


# ---------------------------------------------------------------------------
# convergence study plumbing
# ---------------------------------------------------------------------------


def test_zero_horizon_zero_error():
    case = mms.manufactured_case("throughflow")
    study = studies.convergence_study(case, [8, 16, 32], t_end=0.0)
    for errs in study.errors.values():
        assert all(e == 0.0 for e in errs)


def test_resolutions_must_double():
    case = mms.manufactured_case("throughflow")
    with pytest.raises(ValueError):
        studies.convergence_study(case, [8, 16, 24])
    with pytest.raises(ValueError):
        studies.convergence_study(case, [8, 16])


@pytest.mark.parametrize("kind", ["acoustic_smooth", "throughflow"])
def test_mms_orders_in_window(kind):
    # the acceptance window of thermal_relaxation's orders, on the other two
    # manufactured cases at the same resolutions and horizon
    study = studies.convergence_study(mms.manufactured_case(kind), [32, 64, 128], t_end=0.15)
    assert all(study.monotone.values()), study.errors
    assert all(0.8 <= order <= 1.5 for order in study.orders.values()), study.orders


def test_cfl_sensitivity_of_observed_order():
    case = mms.manufactured_case("thermal_relaxation")
    a = studies.convergence_study(case, [16, 32, 64], t_end=0.1, cfl=0.4)
    b = studies.convergence_study(case, [16, 32, 64], t_end=0.1, cfl=0.2)
    for k in a.orders:
        assert abs(a.orders[k] - b.orders[k]) < 0.2


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------


def test_export_empty_trajectory_single_state(tmp_path, eos, transport):
    doc = minimal_doc(t_end=0.0)
    doc["output_times"] = [0.0]
    scn = sc.parse_scenario(doc)
    traj = scn.run()
    paths = sc.export_timeseries(traj, tmp_path)
    states = [p for p in paths if p.name.startswith("state_")]
    assert len(states) == 1


def test_export_determinism(tmp_path):
    scn = sc.parse_scenario(minimal_doc())
    doc_hashes = []
    for sub in ("a", "b"):
        traj = scn.run()
        paths = sc.export_timeseries(traj, tmp_path / sub)
        doc_hashes.append(tuple(p.read_bytes() for p in sorted(paths)))
    assert doc_hashes[0] == doc_hashes[1]


def test_state_files_carry_their_exact_time(tmp_path, capsys):
    # each state file is named by the shortest repr of its time, so times
    # equal to 6 decimals still get a file each
    doc = minimal_doc()
    doc["output_times"] = [0.0, 0.005, 0.0050001, 0.01]
    assert sc.parse_scenario(doc).run().times == [0.0, 0.005, 0.0050001, 0.01]
    path = tmp_path / "box.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().out.startswith(f"wrote 5 files to {tmp_path / 'out'}")
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "fluxes.csv", "state_0.0.csv", "state_0.005.csv", "state_0.0050001.csv",
        "state_0.01.csv"]


@pytest.mark.parametrize("n_rows", [4, 0])
def test_csv_writer_matches_csv_module(n_rows, tmp_path):
    # exponents both ways, both zeros, 17 significant digits, non-finite values
    columns = [[0.0, -0.0, 1e-300, 0.1], [1 / 3, 2.0 ** 70, -1e-7, 123456789.12345678],
               np.array([np.pi, np.nan, np.inf, -np.inf])]
    columns = [c[:n_rows] for c in columns]
    ref = tmp_path / "ref.csv"
    with open(ref, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["a", "b", "c"])
        for row in zip(*columns):
            w.writerow([f"{v:.17g}" for v in row])
    relent._write_csv(tmp_path / "got.csv", ["a", "b", "c"], columns)
    assert (tmp_path / "got.csv").read_bytes() == ref.read_bytes()


def test_exported_files_match_csv_module(tmp_path, closed_box_traj):
    # the state files write x formatted once per export: every file equals
    # csv.writer's output of f"{v:.17g}" cells
    traj = closed_box_traj
    paths = sc.export_timeseries(traj, tmp_path / "run")
    flux_keys = paths[-1].read_text().splitlines()[0].split(",")[1:]
    expected = [(["x", "rho", "u", "theta"],
                 [traj.mesh.centers, st.rho, st.u, st.theta]) for st in traj.states]
    expected.append((["t"] + flux_keys, [traj.times] + [[acc.get(k, 0.0) for acc in traj.accums]
                                                      for k in flux_keys]))
    assert len(paths) == len(expected) == len(traj.times) + 1
    for path, (header, columns) in zip(paths, expected):
        ref = tmp_path / "ref.csv"
        with open(ref, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows([f"{v:.17g}" for v in row] for row in zip(*columns))
        assert path.read_bytes() == ref.read_bytes(), path.name


def test_budget_csv_columns(tmp_path, closed_box_traj):
    from nsfsim.budgets import audit

    rows = [audit(closed_box_traj, window=w)
            for w in zip(closed_box_traj.times[:-1], closed_box_traj.times[1:])]
    path = tmp_path / "budgets.csv"
    sc.export_budget_csv(rows, path)
    header = path.read_text().splitlines()[0]
    assert header == "t0,t1,mass_res,energy_res,entropy_prod"
    assert len(path.read_text().splitlines()) == len(rows) + 1


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_check_eos_pass(capsys):
    rc = cli.main(["check-eos", str(SCENARIO_DIR / "eos_iconic.json")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS" in out and "FAIL" not in out


def test_cli_check_eos_fail(tmp_path, capsys):
    # a bad value, a key the transport section does not take (which used to
    # be ignored) and a section that is not an object (which used to raise)
    for bad, failure in (({"eos": {"shape": "iconic", "p_inf": -1.0}}, "FAIL"),
                         ({"transport": {"mu_over": 2.0, "mu_scale": 1.0}},
                          "FAIL  [unknown-key] transport.mu_over: "),
                         ({"eos": 5}, "FAIL  [eos-schema] eos: expected an object, got 5"),
                         # a document holding no eos checks nothing
                         ({}, "FAIL  [eos-schema] eos: missing"),
                         ({"transport": {"mu_scale": 1.0}}, "FAIL  [eos-schema] eos: missing")):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        rc = cli.main(["check-eos", str(path)])
        assert rc == 1
        assert failure in capsys.readouterr().out


def test_cli_check_eos_reports_bare_document_keys(tmp_path, capsys):
    # the document holds an eos and a transport object; their keys at the
    # top level are unknown, and the eos object is missing
    path = tmp_path / "bare.json"
    path.write_text(json.dumps({"shape": "iconic", "mu_scale": 1.0}))
    rc = cli.main(["check-eos", str(path)])
    fails = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert rc == 1
    assert [line.split(":")[0] for line in fails] == ["FAIL  [unknown-key] shape",
                                                      "FAIL  [unknown-key] mu_scale",
                                                      "FAIL  [eos-schema] eos"]


def test_cli_check_eos_prints_each_invariant_once(tmp_path, capsys):
    # steep tables, P(Z) ~ k Z near 0: admissible at k = 2e3; at k = 2e6 the
    # stability gap (2/3) k exceeds its bound (the Gibbs residual, which grows
    # with P, is measured relative to its terms and passes)
    z = np.geomspace(0.02, 400, 25)
    names = list(nsfsim.check_eos_invariants(nsfsim.iconic_eos()))
    for k, failed in ((2e3, []), (2e6, ["stability gap bounded"])):
        p = k * z + z ** (5 / 3) + z ** (5 / 3) / (1 + z)
        path = tmp_path / "steep.json"
        path.write_text(json.dumps({"eos": {"shape": "table", "third_law": True,
                                            "table": {"z": list(z), "p": list(p)}}}))
        rc = cli.main(["check-eos", str(path)])
        lines = capsys.readouterr().out.splitlines()
        assert rc == (1 if failed else 0)
        assert [n for n in names if any(f"FAIL  [eos-invariant] eos: {n}:" in l
                                        for l in lines)] == failed
        for n in names:
            assert sum(f"  {n}  (" in l or f" eos: {n}:" in l for l in lines) == 1, n
        assert len(lines) == len(names)


def test_gibbs_check_is_relative_to_the_terms(monkeypatch):
    # the Gibbs residual grows with P: on the steep admissible table at
    # k = 5e5 it is 9.3e-10, which an absolute 1e-10 refused for rounding
    # alone; measured against its terms it passes, while an entropy slope
    # off by 1e-8 still fails
    z = np.geomspace(0.02, 400, 25)
    doc = minimal_doc()
    p = 5e5 * z + z ** (5 / 3) + z ** (5 / 3) / (1 + z)
    doc["eos"] = {"shape": "table", "third_law": True, "table": {"z": list(z), "p": list(p)}}
    steep = sc.parse_scenario(doc).eos
    skewed = nsfsim.iconic_eos()
    evaluate = skewed.shape_fn.evaluate
    monkeypatch.setattr(skewed.shape_fn, "evaluate", lambda zz, *names: tuple(
        (1.0 + 1e-8) * v if n == "ds" else v for n, v in zip(names, evaluate(zz, *names))))
    for eos, gibbs_ok in ((nsfsim.iconic_eos(), True), (steep, True), (skewed, False)):
        results = nsfsim.check_eos_invariants(eos)
        assert all(type(ok) is bool for ok, _ in results.values()), results
        assert results["Gibbs relation"][0] is gibbs_ok, results["Gibbs relation"]
        assert all(ok for name, (ok, _) in results.items() if name != "Gibbs relation")


def test_cli_audit_boundary(tmp_path, capsys):
    doc = json.loads((SCENARIO_DIR / "throughflow.json").read_text())
    path = tmp_path / "through.json"
    path.write_text(json.dumps(doc))
    rc = cli.main(["audit-boundary", str(path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "in" in out and "out" in out and "margin" in out


def test_cli_audit_boundary_rejects_bad_scenario(tmp_path, capsys):
    doc = json.loads((SCENARIO_DIR / "throughflow.json").read_text())
    doc["boundary"]["faces"][0]["F_ib"] = -0.5  # margin -0.5/0.5 + 1.5 = +0.5
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    rc = cli.main(["audit-boundary", str(path)])
    assert rc == 1
    assert "inflow-flux-admissibility" in capsys.readouterr().out


@pytest.mark.parametrize("content, failure", [
    ("[1, 2]", "FAIL  [scenario-schema] scenario: expected an object, got [1, 2]"),
    ('{"mesh": ', "FAIL  [file] {path}: cannot read a JSON document: Expecting value"),
    (None, "FAIL  [file] {path}: cannot read a JSON document: [Errno 2] No such file")],
    ids=["list", "not-json", "missing"])
def test_cli_reports_malformed_scenario_file(content, failure, tmp_path, capsys):
    path = tmp_path / "bad.json"
    if content is not None:
        path.write_text(content)
    for command in (["run", str(path), "--out", str(tmp_path / "out")], ["audit", str(path)],
                    ["audit-boundary", str(path)], ["weak-strong", str(path)]):
        assert cli.main(command) == 1, command
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 and lines[0].startswith(failure.format(path=path)), command


@pytest.mark.parametrize("command, failure", [
    (["converge", "--resolutions", "32,64"],
     "FAIL  [resolutions] --resolutions: need at least 3 resolutions"),
    (["weak-strong", str(SCENARIO_DIR / "closed_box.json"), "--resolutions", "8"],
     "FAIL  [resolutions] --resolutions: need at least 2 resolutions to compare"),
    (["weak-strong", str(SCENARIO_DIR / "closed_box.json"), "--resolutions", "8,x"],
     "FAIL  [resolutions] --resolutions: invalid literal for int()")],
    ids=["converge-two", "weak-strong-one", "weak-strong-not-int"])
def test_cli_refuses_malformed_resolutions(command, failure, capsys):
    # refused before any build or run: one FAIL line, exit 1
    assert cli.main(command) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and lines[0].startswith(failure), lines


@pytest.mark.parametrize("value, message", [
    ("-1", "t_end must be nonnegative"), ("nan", "t_end must be finite, got nan"),
    ("inf", "t_end must be finite, got inf")], ids=["negative", "nan", "inf"])
def test_cli_converge_refuses_bad_t_end(value, message, capsys):
    # refused before the residual probe and any run: one FAIL line, exit 1
    assert cli.main(["converge", "--t-end", value]) == 1
    assert capsys.readouterr().out.splitlines() == [f"FAIL  [t-end] --t-end: {message}"]


def test_cli_audit_refuses_nan_output_time(tmp_path, capsys):
    # NaN lies in no window: refused as one issue before the run, exit 1
    doc = minimal_doc()
    doc["output_times"] = [0.0, math.nan, 0.01]
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))
    assert "NaN" in path.read_text()
    assert cli.main(["audit", str(path)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "FAIL  [config-schema] output_times: output times must lie in [0, t_end], got nan"]


def test_cli_run_and_audit(tmp_path, capsys):
    doc = minimal_doc(t_end=0.005)
    doc["initial"]["theta"] = "1 + 0.05*cos(pi*x)"
    path = tmp_path / "box.json"
    path.write_text(json.dumps(doc))
    rc = cli.main(["run", str(path), "--out", str(tmp_path / "out")])
    assert rc == 0
    assert (tmp_path / "out" / "fluxes.csv").exists()
    rc = cli.main(["audit", str(path), "--out", str(tmp_path / "report.json"),
                   "--csv", str(tmp_path / "budget.csv")])
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert set(report["verdicts"]) == {"mass", "energy", "entropy"}
    assert (tmp_path / "budget.csv").exists()
    out = capsys.readouterr().out
    assert "PASS" in out


@pytest.mark.parametrize("command", ["run", "audit"])
def test_cli_reports_an_aborted_run_as_one_fail_line(command, tmp_path, capsys, monkeypatch):
    def aborted(self):
        raise solver.RunAborted("step at t=0.125 rejected 21 times (last: density fell "
                                "below its floor); diagnostic state attached")

    monkeypatch.setattr(sc.Scenario, "run", aborted)
    rc = cli.main([command, str(SCENARIO_DIR / "closed_box.json"), "--out",
                   str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().out.splitlines() == [
        "FAIL  run aborted: step at t=0.125 rejected 21 times (last: density fell below its "
        "floor); diagnostic state attached"]


def test_cli_weak_strong_writes_traces(tmp_path, capsys):
    out = tmp_path / "traces"
    rc = cli.main(["weak-strong", str(SCENARIO_DIR / "throughflow.json"),
                   "--resolutions", "8,16", "--out", str(out)])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert lines[-1] == "PASS relative energy decreases under refinement"
    assert sorted(p.name for p in out.iterdir()) == ["relenergy_n16.csv", "relenergy_n8.csv"]
    assert (out / "relenergy_n8.csv").read_text().startswith("t,rel_energy,kinetic,bregman\n")


def test_cli_converge_writes_csv(tmp_path, capsys):
    # convergence_study needs three doubling resolutions; small n and a short
    # t_end keep this quick, so only the file layout is checked
    path = tmp_path / "study" / "conv.csv"
    cli.main(["converge", "--resolutions", "8,16,32", "--t-end", "0.002",
              "--csv", str(path)])
    lines = path.read_text().splitlines()
    assert lines[0] == "n,err_rho,err_u,err_theta,energy_residual"
    assert [row.split(",")[0] for row in lines[1:]] == ["8", "16", "32"]
    assert all(np.isfinite(float(v)) for row in lines[1:] for v in row.split(","))
    assert "order" in capsys.readouterr().out


def test_cli_converge_csv_is_byte_identical_across_hash_seeds(tmp_path):
    src = str(Path(nsfsim.__file__).parents[1])
    outputs = []
    for seed in ("0", "1"):
        path = tmp_path / f"conv{seed}.csv"
        code = ("from nsfsim import cli; cli.main(['converge', '--resolutions', '8,16,32', "
                f"'--t-end', '0.002', '--csv', {str(path)!r}])")
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        subprocess.run([sys.executable, "-c", code], capture_output=True, check=True, env=env)
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]


def test_import_leaves_scipy_interpolate_and_sympy_unloaded():
    # building the test suite's 25-knot table loads no scipy module either,
    # nor numpy.polynomial (its pieces are expanded by Horner), nor do five
    # steps of a wall box, whose viscous solve is LAPACK's, nor building a
    # manufactured case and evaluating its sources
    code = ("import sys, numpy as np, nsfsim; z = np.geomspace(0.02, 400, 25); "
            "nsfsim.tabulated_eos(z, z + z ** (5 / 3) + z ** (5 / 3) / (1 + z)); "
            "mesh = nsfsim.Mesh1D(0.0, 1.0, 32); x = mesh.centers; "
            "state = nsfsim.FieldState(rho=np.ones(32), u=0.1 * np.sin(np.pi * x), "
            "theta=np.ones(32)); args = (mesh, nsfsim.iconic_eos(), nsfsim.TransportSpec(), "
            "nsfsim.SolverConfig(), nsfsim.make_boundary()); "
            "[state := nsfsim.step(state, *args, 1e-3)[0] for _ in range(5)]; "
            "case = nsfsim.manufactured_case('thermal_relaxation'); "
            "case.g_fn(0.0, x); case.energy_source_fn(0.0, x); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'sympy') "
            "or m.startswith('numpy.polynomial')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(
                             [str(Path(nsfsim.__file__).parents[1]),
                              os.environ.get("PYTHONPATH", "")])})
    assert out.stdout.strip() == "[]"


def test_package_exports_are_explicit():
    names = nsfsim.__all__
    assert names == sorted(set(names))
    for name in names:
        assert not isinstance(getattr(nsfsim, name), types.ModuleType), name
    public = {n for n, v in vars(nsfsim).items()
              if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    assert set(names) == public
