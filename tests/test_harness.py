import ast
import collections
import copy
import inspect
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import nsfsim
from nsfsim import cli, mms, scenario as sc, studies
from nsfsim.mesh import Mesh1D

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
    assert scn.config.theta_bar == 1.0
    assert scn.output_times == [0.0, 0.01]


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


def test_negative_inflow_density_rejected():
    doc = minimal_doc()
    doc["boundary"]["faces"] = [
        {"pos": 0.0, "u_b": 1.0, "rho_b": -1.0, "F_ib": -3.0},
        {"pos": 1.0, "u_b": 1.0},
    ]
    with pytest.raises(sc.ScenarioValidationError) as err:
        sc.parse_scenario(doc)
    assert any(i.code == "positive-inflow-density" for i in err.value.issues)


def test_all_failures_reported_together():
    doc = minimal_doc()
    doc["mesh"]["n"] = 0
    doc["config"]["Gamma"] = 1.5
    doc["initial"]["theta"] = "-1"
    with pytest.raises(sc.ScenarioValidationError) as err:
        sc.parse_scenario(doc)
    codes = {i.code for i in err.value.issues}
    assert {"mesh-schema", "config-schema"} <= codes


def test_unknown_keys_reported_by_path():
    doc = minimal_doc(epsilom=0.1)
    doc["eos"]["pinf"] = 2.0
    doc["mesh"]["cells"] = 64
    doc["transport"]["mu"] = 1.0
    doc["initial"]["T"] = "1"
    doc["boundary"]["faces"][1]["rhob"] = 1.0
    doc["boundary"]["walls"] = True
    doc["outputs"] = [0.0]
    with pytest.raises(sc.ScenarioValidationError) as err:
        sc.parse_scenario(doc)
    assert sorted(i.path for i in err.value.issues) == sorted([
        "config.epsilom", "eos.pinf", "mesh.cells", "transport.mu", "initial.T",
        "boundary.faces[1].rhob", "boundary.walls", "outputs"])
    assert {i.code for i in err.value.issues} == {"unknown-key"}
    # every key a reader takes is known: a document spelling out all of them parses
    full = minimal_doc(epsilon=0.0, delta=0.0, Gamma=4.0, d=3, cfl=0.4, g=0.0,
                       theta_bar=1.0, rho_floor=1e-10, theta_floor=1e-10)
    full["eos"].update(a=1.0, p_inf=1.0, entropy_const=0.0, third_law=False)
    full["transport"].update(lambda_exp=0.5, mu_scale=1.0, eta_scale=0.0, kappa_scale=1.0)
    full["output_times"] = [0.0, 0.01]
    assert sc.parse_scenario(full).config == sc.parse_scenario(minimal_doc()).config


def test_initial_theta_clamp_reported():
    doc = minimal_doc(theta_floor=5e-2)
    doc["initial"]["theta"] = "0.001 + x"
    scn = sc.parse_scenario(doc)
    assert any("clamped" in w for w in scn.warnings)
    assert np.all(scn.initial.theta >= 5e-2)


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
    probe = case.residual_probe(n=1024)
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


def test_unknown_case_rejected():
    with pytest.raises(ValueError):
        mms.manufactured_case("vortex_street")


MMS_CASES = ("thermal_relaxation", "acoustic_smooth", "throughflow")


def _generated_calls(fn):
    """Counts of the cos/sin/exp/sqrt calls, by argument, in the source of
    the sympy-generated function behind an MMS closure."""
    (gen,) = [v for v in inspect.getclosurevars(fn).nonlocals.values()
              if inspect.isfunction(v)]
    calls = collections.Counter()
    for node in ast.walk(ast.parse(inspect.getsource(gen))):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in ("cos", "sin", "exp", "sqrt"):
                calls[ast.dump(node)] += 1
    return calls


@pytest.mark.parametrize("kind", MMS_CASES)
def test_manufactured_sources_compute_each_transcendental_once(kind):
    case = mms.manufactured_case(kind)
    for fn in (case.g_fn, case.energy_source_fn):
        repeated = {call: k for call, k in _generated_calls(fn).items() if k > 1}
        assert not repeated, repeated


@pytest.mark.parametrize("kind", MMS_CASES)
def test_manufactured_closures_match_expanded_form(kind, monkeypatch):
    import sympy

    case = mms.manufactured_case(kind)
    lambdify = sympy.lambdify
    monkeypatch.setattr(sympy, "lambdify",
                        lambda *args, **kw: lambdify(*args, **{**kw, "cse": False}))
    expanded = mms.manufactured_case(kind)
    x = Mesh1D(0.0, 1.0, 128).centers
    pairs = [(case.g_fn, expanded.g_fn), (case.energy_source_fn, expanded.energy_source_fn)]
    pairs += [(case._exprs[k], expanded._exprs[k]) for k in case._exprs]
    for t in (0.0, 0.01, 0.35):
        for fn, ref in pairs:
            np.testing.assert_allclose(fn(t, x), ref(t, x), rtol=1e-11, atol=0.0)


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
    bad = {"eos": {"shape": "iconic", "p_inf": -1.0}}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    rc = cli.main(["check-eos", str(path)])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out


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
    code = ("import sys, nsfsim; "
            "print(sorted(m for m in ('scipy.interpolate', 'sympy') if m in sys.modules))")
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
