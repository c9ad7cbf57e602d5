"""Scenario files: schema, validation, initial-data expressions, exports.

A scenario is a single JSON document:

    {
      "mesh":     {"x0": 0.0, "x1": 1.0, "n": 128},
      "eos":      {"shape": "iconic", "a": 1.0, "p_inf": 1.0,
                   "entropy_const": 0.0, "third_law": false,
                   "table": {"z": [...], "p": [...]}},
      "transport":{"lambda_exp": 0.5, "mu_scale": 1.0, "eta_scale": 0.0,
                   "kappa_scale": 1.0},
      "boundary": {"faces": [{"pos": 0.0, "u_b": 1.0, "rho_b": 1.0,
                              "F_ib": -2.0},
                             {"pos": 1.0, "u_b": 1.0}]},
      "config":   {"epsilon": 0.0, "delta": 0.0, "Gamma": 4.0, "d": 3,
                   "cfl": 0.4, "t_end": 0.5, "theta_bar": 1.0},
      "initial":  {"rho": "1", "u": "0", "theta": "1 + 0.1*cos(pi*x)"},
      "output_times": [0.0, 0.25, 0.5]
    }

Initial fields are arithmetic expressions of ``x`` (operators + - * / ^,
functions sin cos exp log, constants pi and e) or explicit per-cell arrays.
Validation is total: every violation is collected and reported together,
each tagged with the offending field path and a stable issue code; a key
that no section knows is an ``unknown-key`` issue, not silently ignored.
"""

from __future__ import annotations

import ast
import csv
import json
import math
import operator
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import boundary as bd
from .mesh import Mesh1D
from .solver import FieldState, SolverConfig, Trajectory, run as run_solver
from .thermo import (EosSpec, EosValidationError, TransportSpec,
                     check_eos_invariants)


@dataclass(frozen=True)
class Issue:
    path: str
    code: str
    message: str

    def __str__(self):
        return f"[{self.code}] {self.path}: {self.message}"


class ScenarioValidationError(ValueError):
    """Carries every validation failure of a scenario document."""

    def __init__(self, issues):
        self.issues = list(issues)
        super().__init__("scenario validation failed:\n" +
                         "\n".join(str(i) for i in self.issues))


# ---------------------------------------------------------------------------
# expression grammar
# ---------------------------------------------------------------------------

_ALLOWED_CALLS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "log": np.log}
_ALLOWED_NAMES = {"pi": math.pi, "e": math.e}
_BIN_OPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
            ast.Div: operator.truediv, ast.Pow: operator.pow}
_UNARY_OPS = {ast.USub: operator.neg, ast.UAdd: operator.pos}


class ExpressionError(ValueError):
    pass


def _eval_node(node, x):
    if isinstance(node, ast.Expression):
        return _eval_node(node.body, x)
    if isinstance(node, ast.Constant):
        if isinstance(node.value, (int, float)):
            return float(node.value)
        raise ExpressionError(f"literal {node.value!r} is not a number")
    if isinstance(node, ast.Name):
        if node.id == "x":
            return x
        if node.id in _ALLOWED_NAMES:
            return _ALLOWED_NAMES[node.id]
        raise ExpressionError(f"unknown name {node.id!r}")
    if isinstance(node, ast.BinOp) and type(node.op) in _BIN_OPS:
        return _BIN_OPS[type(node.op)](_eval_node(node.left, x),
                                       _eval_node(node.right, x))
    if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY_OPS:
        return _UNARY_OPS[type(node.op)](_eval_node(node.operand, x))
    if isinstance(node, ast.Call):
        if (isinstance(node.func, ast.Name) and node.func.id in _ALLOWED_CALLS
                and not node.keywords and len(node.args) == 1):
            return _ALLOWED_CALLS[node.func.id](_eval_node(node.args[0], x))
        raise ExpressionError("only sin/cos/exp/log calls with one argument are allowed")
    raise ExpressionError(f"unsupported syntax: {ast.dump(node)}")


def eval_field_expression(expr: str, x: np.ndarray) -> np.ndarray:
    """Evaluate an initial-data expression of x over cell centers."""
    try:
        tree = ast.parse(expr.replace("^", "**"), mode="eval")
        # non-finite values are reported by the caller, under their own name
        with np.errstate(all="ignore"):
            vals = _eval_node(tree, np.asarray(x, dtype=float))
    except ExpressionError:
        raise
    except Exception as err:  # syntax errors from ast.parse
        raise ExpressionError(str(err)) from None
    return np.asarray(vals, dtype=float) * np.ones_like(np.asarray(x, dtype=float))


# ---------------------------------------------------------------------------
# scenario object
# ---------------------------------------------------------------------------


@dataclass
class Scenario:
    name: str
    mesh: Mesh1D
    eos: EosSpec
    transport: TransportSpec
    boundary: bd.BoundarySpec
    config: SolverConfig
    initial: FieldState
    output_times: list
    warnings: list = field(default_factory=list)

    def run(self, label: Optional[str] = None) -> Trajectory:
        return run_solver(self.mesh, self.eos, self.transport, self.config,
                          self.boundary, self.initial,
                          output_times=self.output_times,
                          label=label or self.name)


# The keys each section may hold, shared by its reader and the unknown-key
# check; config maps each key to its type.
_TOP_KEYS = ("mesh", "eos", "transport", "boundary", "config", "initial", "output_times")
_MESH_KEYS = ("x0", "x1", "n")
_EOS_FLOATS = ("a", "p_inf", "entropy_const")
_EOS_KEYS = ("shape", *_EOS_FLOATS, "third_law", "table")
_TRANSPORT_KEYS = ("lambda_exp", "mu_scale", "eta_scale", "kappa_scale", "mu_under",
                   "mu_over", "eta_over", "kappa_under", "kappa_over")
_BOUNDARY_KEYS = ("faces",)
_FACE_KEYS = ("pos", "u_b", "rho_b", "F_ib", "wall")
_CONFIG_KEYS = {"epsilon": float, "delta": float, "Gamma": float, "d": int, "cfl": float,
                "t_end": float, "g": float, "theta_bar": float, "rho_floor": float,
                "theta_floor": float}
_INITIAL_KEYS = ("rho", "u", "theta")


def _check_keys(doc: dict, known, path: str, issues: list) -> None:
    """Report every key of ``doc`` that is not in ``known``, one issue each."""
    for key in doc:
        if key not in known:
            issues.append(Issue(f"{path}{key}", "unknown-key",
                                f"unknown key; expected one of {', '.join(known)}"))


def _build_eos(doc: dict, issues: list) -> Optional[EosSpec]:
    kw = {}
    for key in _EOS_FLOATS:
        if key in doc:
            kw[key] = float(doc[key])
    kw["third_law"] = bool(doc.get("third_law", False))
    kw["shape"] = doc.get("shape", "iconic")
    if "table" in doc:
        kw["table_z"] = tuple(float(v) for v in doc["table"]["z"])
        kw["table_p"] = tuple(float(v) for v in doc["table"]["p"])
    try:
        eos = EosSpec(**kw)
    except EosValidationError as err:
        issues.append(Issue("eos", "eos-invariant", str(err)))
        return None
    for name, (ok, detail) in check_eos_invariants(eos).items():
        if not ok:
            issues.append(Issue("eos", "eos-invariant", f"{name}: {detail}"))
    return eos


def _build_transport(doc: dict, issues: list) -> Optional[TransportSpec]:
    kw = {k: float(doc[k]) for k in _TRANSPORT_KEYS if k in doc}
    try:
        ts = TransportSpec(**kw)
    except EosValidationError as err:
        issues.append(Issue("transport", "transport-envelope", str(err)))
        return None
    for msg in ts.envelope_violations():
        issues.append(Issue("transport", "transport-envelope", msg))
    return ts


def _build_boundary(doc: dict, mesh, eos, issues: list) -> Optional[bd.BoundarySpec]:
    faces = doc.get("faces", [])
    if len(faces) != 2:
        issues.append(Issue("boundary.faces", "boundary-schema",
                            f"need exactly 2 faces for a 1D domain, got {len(faces)}"))
        return None
    by_pos = sorted(faces, key=lambda f: float(f.get("pos", 0.0)))
    built = []
    for f, normal, side in ((by_pos[0], -1.0, "left"), (by_pos[1], 1.0, "right")):
        try:
            built.append(bd.BoundaryFace(
                pos=float(f.get("pos", 0.0)), normal=normal,
                u_b=float(f.get("u_b", 0.0)),
                rho_b=(float(f["rho_b"]) if "rho_b" in f and f["rho_b"] is not None else None),
                F_ib=(float(f["F_ib"]) if "F_ib" in f and f["F_ib"] is not None else None),
                wall=bool(f.get("wall", False))))
        except bd.BoundaryDataError as err:
            code = ("positive-inflow-density" if "positive" in str(err)
                    else "boundary-schema")
            issues.append(Issue(f"boundary.faces[{side}]", code, str(err)))
    if len(built) != 2:
        return None
    try:
        spec = bd.BoundarySpec(left=built[0], right=built[1])
    except bd.BoundaryDataError as err:
        issues.append(Issue("boundary", "boundary-schema", str(err)))
        return None
    if eos is not None:
        report = bd.admissibility_check(eos, spec)
        for msg in report.messages:
            code = ("negative-inflow-energy-flux" if "must be negative" in msg
                    else "inflow-flux-admissibility")
            issues.append(Issue("boundary.faces", code, msg))
    return spec


def parse_scenario(doc: dict, name: str = "scenario") -> Scenario:
    """Validate a scenario document; raises with every issue on failure."""
    issues: list[Issue] = []
    warnings: list[str] = []
    _check_keys(doc, _TOP_KEYS, "", issues)
    sections = {"mesh": _MESH_KEYS, "eos": _EOS_KEYS, "transport": _TRANSPORT_KEYS,
                "boundary": _BOUNDARY_KEYS, "config": _CONFIG_KEYS,
                "initial": _INITIAL_KEYS}
    for section, known in sections.items():
        _check_keys(doc.get(section, {}), known, f"{section}.", issues)
    for k, face in enumerate(doc.get("boundary", {}).get("faces", [])):
        _check_keys(face, _FACE_KEYS, f"boundary.faces[{k}].", issues)

    mesh = None
    mdoc = doc.get("mesh", {})
    try:
        mesh = Mesh1D(float(mdoc.get("x0", 0.0)), float(mdoc.get("x1", 1.0)),
                      int(mdoc.get("n", 0)))
    except (ValueError, TypeError) as err:
        issues.append(Issue("mesh", "mesh-schema", str(err)))

    eos = _build_eos(doc.get("eos", {}), issues)
    ts = _build_transport(doc.get("transport", {}), issues)

    cfg = None
    cdoc = doc.get("config", {})
    try:
        cfg = SolverConfig(**{k: kind(cdoc[k]) for k, kind in _CONFIG_KEYS.items()
                              if k in cdoc})
    except (ValueError, TypeError) as err:
        issues.append(Issue("config", "config-schema", str(err)))

    bspec = None
    if mesh is not None:
        bspec = _build_boundary(doc.get("boundary", {}), mesh, eos, issues)

    initial = None
    if mesh is not None and cfg is not None:
        idoc = doc.get("initial", {})
        fields = {}
        for key in _INITIAL_KEYS:
            spec_val = idoc.get(key)
            if spec_val is None:
                issues.append(Issue(f"initial.{key}", "initial-schema",
                                    "missing initial field"))
                continue
            try:
                if isinstance(spec_val, str):
                    fields[key] = eval_field_expression(spec_val, mesh.centers)
                else:
                    arr = np.asarray(spec_val, dtype=float)
                    if arr.shape != (mesh.n_cells,):
                        raise ExpressionError(
                            f"array length {arr.shape} does not match n={mesh.n_cells}")
                    fields[key] = arr
            except ExpressionError as err:
                issues.append(Issue(f"initial.{key}", "initial-schema", str(err)))
        nonfinite = {k: int(np.sum(~np.isfinite(v))) for k, v in fields.items()}
        for key, count in nonfinite.items():
            if count:
                issues.append(Issue(f"initial.{key}", "initial-finite",
                                    f"initial {key} is not finite in {count} of "
                                    f"{mesh.n_cells} cells"))
        if len(fields) == 3 and not any(nonfinite.values()):
            if np.any(fields["rho"] <= 0.0):
                issues.append(Issue("initial.rho", "initial-positivity",
                                    "initial density must be positive everywhere"))
            lo, hi = cfg.theta_floor, 1.0 / cfg.theta_floor
            clamped = np.clip(fields["theta"], lo, hi)
            n_clamped = int(np.sum(clamped != fields["theta"]))
            if np.any(fields["theta"] <= 0.0):
                issues.append(Issue("initial.theta", "initial-positivity",
                                    "initial temperature must be positive everywhere"))
            elif n_clamped:
                warnings.append(
                    f"initial.theta: clamped {n_clamped} cells into [{lo:g}, {hi:g}]")
            fields["theta"] = clamped
            if not issues:
                initial = FieldState(rho=fields["rho"], u=fields["u"],
                                     theta=fields["theta"])

    outs = doc.get("output_times")
    if outs is not None:
        output_times = [float(t) for t in outs]
    elif cfg is not None:
        output_times = [0.0, cfg.t_end]
    else:
        output_times = []
    if cfg is not None and any(t < 0.0 or t > cfg.t_end + 1e-12 for t in output_times):
        issues.append(Issue("output_times", "config-schema",
                            "output times must lie in [0, t_end]"))

    if issues:
        raise ScenarioValidationError(issues)
    return Scenario(name=name, mesh=mesh, eos=eos, transport=ts, boundary=bspec,
                    config=cfg, initial=initial, output_times=output_times,
                    warnings=warnings)


def load_scenario(path) -> Scenario:
    path = Path(path)
    with open(path) as fh:
        doc = json.load(fh)
    return parse_scenario(doc, name=path.stem)


def load_eos_document(path):
    """Read an eos.json document; returns (EosSpec, TransportSpec, issues)."""
    with open(path) as fh:
        doc = json.load(fh)
    eos_doc = doc.get("eos", doc)
    ts_doc = doc.get("transport", doc)
    issues: list[Issue] = []
    eos = _build_eos(eos_doc, issues)
    ts = _build_transport(ts_doc, issues)
    return eos, ts, issues


# ---------------------------------------------------------------------------
# exports (deterministic bytes)
# ---------------------------------------------------------------------------


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


def export_timeseries(traj: Trajectory, outdir) -> list:
    """Write state_<t>.csv per output time and fluxes.csv; returns the paths."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = []
    x = traj.mesh.centers
    for t, st in zip(traj.times, traj.states):
        p = outdir / f"state_{t:.6f}.csv"
        with open(p, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["x", "rho", "u", "theta"])
            for i in range(traj.mesh.n_cells):
                w.writerow([_fmt(x[i]), _fmt(st.rho[i]), _fmt(st.u[i]),
                            _fmt(st.theta[i])])
        paths.append(p)

    flux_keys = ["mass_in_conv", "mass_out_conv", "mass_robin", "mass_bdry",
                 "energy_bdry_in", "energy_out_conv", "energy_bdry_total",
                 "entropy_in", "entropy_out_conv"]
    p = outdir / "fluxes.csv"
    with open(p, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t"] + flux_keys)
        for t, acc in zip(traj.times, traj.accums):
            w.writerow([_fmt(t)] + [_fmt(acc.get(k, 0.0)) for k in flux_keys])
    paths.append(p)
    return paths


def export_budget_csv(rows, path) -> None:
    """Flat time series of windowed budgets: t0,t1,mass_res,energy_res,entropy_prod."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t0", "t1", "mass_res", "energy_res", "entropy_prod"])
        for r in rows:
            w.writerow([_fmt(r.window[0]), _fmt(r.window[1]), _fmt(r.mass_residual),
                        _fmt(r.energy_residual), _fmt(r.entropy_production)])
