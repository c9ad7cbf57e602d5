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
                   "cfl": 0.4, "t_end": 0.5},
      "initial":  {"rho": "1", "u": "0", "theta": "1 + 0.1*cos(pi*x)"},
      "output_times": [0.0, 0.25, 0.5]
    }

Initial fields are arithmetic expressions of ``x`` (operators + - * / ^,
functions sin cos exp log, constants pi and e) or explicit per-cell arrays.
Validation is total: every violation is collected and reported together,
each tagged with the offending field path and a stable issue code; a key
that no section knows is an ``unknown-key`` issue, not silently ignored, and
a value of the wrong type (a section that is not an object, a number that
does not parse, a missing table column) is a ``<section>-schema`` issue.
Initial data that :func:`nsfsim.solver.initial_data_problems` refuses is an
``initial-finite`` or ``initial-positivity`` issue; no value is changed.
"""

from __future__ import annotations

import ast
import json
import math
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import boundary as bd
from .mesh import Mesh1D
from .relent import _write_csv
from .solver import (FieldState, SolverConfig, Trajectory, initial_data_problems,
                     output_times_problem, run as run_solver)
from .thermo import (EosSpec, EosValidationError, TransportSpec, check_eos_invariants,
                     cold_energy_density)


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

    def run(self) -> Trajectory:
        return run_solver(self.mesh, self.eos, self.transport, self.config,
                          self.boundary, self.initial, output_times=self.output_times)


# The keys each section may hold, shared by its reader and the unknown-key
# check; mesh, face and config map each key to its type.
_TOP_KEYS = ("mesh", "eos", "transport", "boundary", "config", "initial", "output_times")
_MESH_KINDS = {"x0": float, "x1": float, "n": int}
_EOS_KINDS = {"a": float, "p_inf": float, "entropy_const": float, "third_law": bool}
_EOS_KEYS = ("shape", *_EOS_KINDS, "table")
_TRANSPORT_KEYS = ("lambda_exp", "mu_scale", "eta_scale", "kappa_scale")
_BOUNDARY_KEYS = ("faces",)
_FACE_KINDS = {"pos": float, "u_b": float, "rho_b": float, "F_ib": float, "wall": bool}
_FACE_OPTIONAL = ("rho_b", "F_ib")
_CONFIG_KEYS = {"epsilon": float, "delta": float, "Gamma": float, "d": int, "cfl": float,
                "t_end": float, "g": float}
_INITIAL_KEYS = ("rho", "u", "theta")


def _check_keys(doc: dict, known, path: str, issues: list) -> None:
    """Report every key of ``doc`` that is not in ``known``, one issue each."""
    for key in doc:
        if key not in known:
            issues.append(Issue(f"{path}{key}", "unknown-key",
                                f"unknown key; expected one of {', '.join(known)}"))


def _object_sections(doc: dict, sections: dict, issues: list) -> dict:
    """{section: its object} for each of ``sections`` that ``doc`` holds as an
    object (an absent one reads as {}), its keys checked against
    ``sections[section]``; one ``<section>-schema`` issue per section that
    is not an object."""
    docs = {}
    for section, known in sections.items():
        sdoc = doc.get(section, {})
        if isinstance(sdoc, dict):
            _check_keys(sdoc, known, f"{section}.", issues)
            docs[section] = sdoc
        else:
            issues.append(Issue(section, f"{section}-schema",
                                f"expected an object, got {sdoc!r}"))
    return docs


def _as_kind(kind, value):
    """``value`` as ``kind`` where its JSON type reads as one: an int takes an
    integral number or a numeric string, a float a number that is not a
    boolean or a numeric string, a bool only true or false; an integer
    beyond the float range reads as none (ValueError)."""
    if isinstance(value, bool) != (kind is bool) or (
            kind is int and isinstance(value, float) and not value.is_integer()):
        raise TypeError
    try:
        return kind(value)
    except OverflowError:
        raise ValueError from None


def _as_floats(value) -> list:
    """``value`` as a list of floats: a JSON list whose every item
    ``_as_kind`` reads as a float."""
    if not isinstance(value, list):
        raise TypeError
    return [_as_kind(float, v) for v in value]


def _typed(doc: dict, kinds: dict, path: str, code: str, issues: list) -> Optional[dict]:
    """{key: doc[key] as kind} over the keys of ``kinds`` that ``doc`` holds;
    None if ``_as_kind`` rejects any value, with one issue per rejected value."""
    n_issues = len(issues)
    out = {}
    for key, kind in kinds.items():
        if key in doc:
            try:
                out[key] = _as_kind(kind, doc[key])
            except (TypeError, ValueError):
                issues.append(Issue(f"{path}{key}", code,
                                    f"expected {kind.__name__}, got {doc[key]!r}"))
    return out if len(issues) == n_issues else None


def _infinite(values: dict, path: str, code: str, issues: list) -> bool:
    """True, with one issue each, if any float among ``values`` is not finite."""
    bad = [key for key, v in values.items() if isinstance(v, float) and not math.isfinite(v)]
    for key in bad:
        issues.append(Issue(f"{path}{key}", code, f"expected a finite number, got {values[key]!r}"))
    return bool(bad)


def _build_eos(doc: dict, issues: list) -> tuple:
    """(EosSpec or None, its {invariant: (ok, detail)}); each failed invariant
    is also an ``eos-invariant`` issue.  A parameter that is not finite is an
    ``eos-schema`` issue and the checks do not run; a shape or closures that
    overflow on the grids of the checks (their first two entries) are an
    ``eos-schema`` issue, and the checks stop there."""
    kw = _typed(doc, _EOS_KINDS, "eos.", "eos-schema", issues)
    if kw is None or _infinite(kw, "eos.", "eos-schema", issues):
        return None, {}
    kw["shape"] = doc.get("shape", "iconic")
    if "table" in doc:
        table = doc["table"] if isinstance(doc["table"], dict) else {}
        _check_keys(table, ("z", "p"), "eos.table.", issues)
        for key in ("z", "p"):
            try:
                kw[f"table_{key}"] = tuple(_as_floats(table[key]))
            except (KeyError, TypeError, ValueError):
                issues.append(Issue(f"eos.table.{key}", "eos-schema",
                                    "expected a list of numbers"))
        if "table_z" not in kw or "table_p" not in kw:
            return None, {}
    try:
        eos = EosSpec(**kw)
    except EosValidationError as err:
        issues.append(Issue("eos", "eos-invariant", str(err)))
        return None, {}
    checks = check_eos_invariants(eos)
    for name, (ok, detail) in checks.items():
        if not ok and name in ("shape finite", "closures finite"):
            # an overflow of the parameters, not a failed hypothesis
            path = ("eos" if name == "closures finite" else
                    "eos.table" if "table" in doc else "eos.p_inf")
            issues.append(Issue(path, "eos-schema", f"{detail}, an overflow"))
            return None, {}
        if not ok:
            issues.append(Issue("eos", "eos-invariant", f"{name}: {detail}"))
    return eos, checks


def _build_transport(doc: dict, issues: list) -> Optional[TransportSpec]:
    kw = _typed(doc, dict.fromkeys(_TRANSPORT_KEYS, float), "transport.",
                "transport-schema", issues)
    if kw is None:
        return None
    try:
        return TransportSpec(**kw)
    except EosValidationError as err:
        issues.append(Issue("transport", "transport-envelope", str(err)))
        return None


def _build_boundary(faces: list, mesh: Mesh1D, eos, issues: list) -> Optional[bd.BoundarySpec]:
    if len(faces) != 2:
        issues.append(Issue("boundary.faces", "boundary-schema",
                            f"need exactly 2 faces for a 1D domain, got {len(faces)}"))
        return None
    values = []
    for k, f in enumerate(faces):
        # rho_b and F_ib may be null, meaning absent
        given = {key: v for key, v in f.items() if v is not None or key not in _FACE_OPTIONAL}
        values.append(_typed(given, _FACE_KINDS, f"boundary.faces[{k}].", "boundary-schema",
                             issues))
        if values[-1] is not None and _infinite(values[-1], f"boundary.faces[{k}].",
                                                "boundary-schema", issues):
            values[-1] = None
    if None in values:
        return None
    pos = [v.get("pos", 0.0) for v in values]
    order = sorted(range(2), key=pos.__getitem__)  # the left face first
    for k, key, end in zip(order, ("x0", "x1"), (mesh.x_left, mesh.x_right)):
        if pos[k] != end:
            issues.append(Issue(f"boundary.faces[{k}].pos", "boundary-schema",
                                f"face at x={pos[k]:g} must sit at the mesh end {key}={end:g}"))
    by_pos = [values[k] for k in order]
    built = []
    for v, normal, side in ((by_pos[0], -1.0, "left"), (by_pos[1], 1.0, "right")):
        try:
            built.append(bd.BoundaryFace(
                pos=v.get("pos", 0.0), normal=normal, u_b=v.get("u_b", 0.0),
                rho_b=v.get("rho_b"), F_ib=v.get("F_ib"), wall=v.get("wall", False)))
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
    if eos is None:
        return spec
    for k, f in zip(order, spec.faces):
        if f.kind is bd.FaceKind.IN:
            try:  # the power raises OverflowError, the product rounds to inf
                finite = math.isfinite(cold_energy_density(eos, f.rho_b))
            except OverflowError:
                finite = False
            if not finite:
                issues.append(Issue(f"boundary.faces[{k}].rho_b", "boundary-schema",
                                    f"the inflow cold energy 1.5 p_inf rho_b^(5/3) overflows "
                                    f"at rho_b = {f.rho_b:g}"))
                return None
    report = bd.admissibility_check(eos, spec)
    for msg in report.messages:
        code = ("negative-inflow-energy-flux" if "must be negative" in msg
                else "inflow-flux-admissibility")
        issues.append(Issue("boundary.faces", code, msg))
    return spec


def parse_scenario(doc: dict, name: str = "scenario") -> Scenario:
    """Validate a scenario document; raises with every issue on failure."""
    if not isinstance(doc, dict):
        raise ScenarioValidationError([Issue("scenario", "scenario-schema",
                                             f"expected an object, got {doc!r}")])
    issues: list[Issue] = []
    _check_keys(doc, _TOP_KEYS, "", issues)
    docs = _object_sections(doc, {"mesh": _MESH_KINDS, "eos": _EOS_KEYS,
                                  "transport": _TRANSPORT_KEYS, "boundary": _BOUNDARY_KEYS,
                                  "config": _CONFIG_KEYS, "initial": _INITIAL_KEYS}, issues)
    faces = docs["boundary"].get("faces", []) if "boundary" in docs else None
    if faces is not None and not (isinstance(faces, list)
                                  and all(isinstance(f, dict) for f in faces)):
        issues.append(Issue("boundary.faces", "boundary-schema",
                            f"expected a list of objects, got {faces!r}"))
        faces = None
    for k, face in enumerate(faces or []):
        _check_keys(face, _FACE_KINDS, f"boundary.faces[{k}].", issues)

    mesh = None
    kw = _typed(docs.get("mesh", {}), _MESH_KINDS, "mesh.", "mesh-schema", issues)
    if "mesh" in docs and kw is not None:
        try:
            mesh = Mesh1D(kw.get("x0", 0.0), kw.get("x1", 1.0), kw.get("n", 0))
        except ValueError as err:
            issues.append(Issue("mesh", "mesh-schema", str(err)))

    eos, _ = _build_eos(docs["eos"], issues) if "eos" in docs else (None, {})
    ts = _build_transport(docs["transport"], issues) if "transport" in docs else None

    cfg = None
    kw = _typed(docs.get("config", {}), _CONFIG_KEYS, "config.", "config-schema", issues)
    if "config" in docs and kw is not None:
        try:
            cfg = SolverConfig(**kw)
        except ValueError as err:
            issues.append(Issue("config", "config-schema", str(err)))

    bspec = None
    if mesh is not None and faces is not None:
        bspec = _build_boundary(faces, mesh, eos, issues)

    initial = None
    if mesh is not None and "initial" in docs:
        idoc = docs["initial"]
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
                    try:
                        values = _as_floats(spec_val)
                    except (TypeError, ValueError):
                        raise ExpressionError(
                            f"expected an expression or a list of numbers, got {spec_val!r}"
                        ) from None
                    if len(values) != mesh.n_cells:
                        raise ExpressionError(
                            f"array length {len(values)} does not match n={mesh.n_cells}")
                    fields[key] = np.array(values)
            except ExpressionError as err:
                issues.append(Issue(f"initial.{key}", "initial-schema", str(err)))
        for key, check, message in initial_data_problems(fields):
            issues.append(Issue(f"initial.{key}", f"initial-{check}", message))
        if not issues:
            initial = FieldState(**fields)

    outs = doc.get("output_times")
    output_times = []
    if outs is not None:
        try:
            output_times = _as_floats(outs)
        except (TypeError, ValueError):
            issues.append(Issue("output_times", "config-schema",
                                f"expected a list of numbers, got {outs!r}"))
    elif cfg is not None:
        output_times = [0.0, cfg.t_end]
    if cfg is not None and (problem := output_times_problem(output_times, cfg.t_end)):
        issues.append(Issue("output_times", "config-schema", problem))

    if issues:
        raise ScenarioValidationError(issues)
    return Scenario(name=name, mesh=mesh, eos=eos, transport=ts, boundary=bspec,
                    config=cfg, initial=initial, output_times=output_times)


def load_document(path):
    """The JSON document in the file ``path``; an unreadable or non-JSON file
    raises ScenarioValidationError with one ``file`` issue naming it."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as err:  # ValueError: JSONDecodeError, UnicodeDecodeError
        raise ScenarioValidationError(
            [Issue(str(path), "file", f"cannot read a JSON document: {err}")]) from None


def load_scenario(path) -> Scenario:
    return parse_scenario(load_document(path), name=Path(path).stem)


def load_eos_document(path):
    """Read an eos.json document; returns ({invariant: (ok, detail)}, issues),
    with every failed invariant among the issues.

    The document holds an ``eos`` object and may hold a ``transport`` one.
    A missing ``eos``, unknown keys (eos or transport keys at the top level
    included), sections that are not objects and a file that cannot be read
    as JSON are issues, as in :func:`parse_scenario`.
    """
    try:
        doc = load_document(path)
    except ScenarioValidationError as err:
        return {}, err.issues
    if not isinstance(doc, dict):
        return {}, [Issue("eos", "eos-schema", f"expected an object, got {doc!r}")]
    issues: list[Issue] = []
    sections = {"eos": _EOS_KEYS, "transport": _TRANSPORT_KEYS}
    _check_keys(doc, tuple(sections), "", issues)
    docs = _object_sections(doc, sections, issues)
    checks = {}
    if "eos" not in doc:
        issues.append(Issue("eos", "eos-schema", "missing: the document holds no eos object"))
    elif "eos" in docs:
        _, checks = _build_eos(docs["eos"], issues)
    if "transport" in docs:
        _build_transport(docs["transport"], issues)
    return checks, issues


# ---------------------------------------------------------------------------
# exports (deterministic bytes)
# ---------------------------------------------------------------------------


def export_timeseries(traj: Trajectory, outdir) -> list:
    """Write state_<t>.csv per recorded time and fluxes.csv, each formatted in
    one pass and written at once; returns the paths.  ``t`` is the time's
    shortest round-trip repr (``state_0.25.csv``), so distinct times never
    share a file."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = []
    for t, st in zip(traj.times, traj.states):
        p = outdir / f"state_{t!r}.csv"
        _write_csv(p, ["x", "rho", "u", "theta"], [traj.mesh.centers, st.rho, st.u, st.theta])
        paths.append(p)

    flux_keys = ["mass_in_conv", "mass_out_conv", "mass_robin", "mass_bdry",
                 "energy_bdry_in", "energy_out_conv", "energy_bdry_total",
                 "entropy_in", "entropy_out_conv"]
    p = outdir / "fluxes.csv"
    _write_csv(p, ["t"] + flux_keys,
               [traj.times] + [[acc.get(k, 0.0) for acc in traj.accums] for k in flux_keys])
    paths.append(p)
    return paths


def export_budget_csv(rows, path) -> None:
    """Flat time series of windowed budgets: t0,t1,mass_res,energy_res,entropy_prod."""
    values = [(*r.window, r.mass_residual, r.energy_residual, r.entropy_production)
              for r in rows]
    _write_csv(path, ["t0", "t1", "mass_res", "energy_res", "entropy_prod"],
               np.reshape(values, (-1, 5)).T)
