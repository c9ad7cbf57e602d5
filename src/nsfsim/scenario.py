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
So is a number in any section that is not finite (NaN or +-Infinity): a
keyed value of mesh, eos, transport, a face or config, or an entry of an
eos table column, each refused under its own path (``config.t_end``,
``eos.table.p``) by the one reader of every keyed value, ``_typed``.
Initial data that :func:`nsfsim.solver.initial_data_problems` refuses is an
``initial-finite`` or ``initial-positivity`` issue; no value is changed.
Closures that overflow at the document's own data, the initial cells or an
inflow face's rho_b at its cell's theta, are one ``eos-schema`` issue, and
an inflow ``F_ib`` whose margin or per-cell flux overflows a
``boundary-schema`` one, so a document that parses runs with no overflow
at its start.
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
from .thermo import (EosSpec, EosValidationError, TransportSpec, _closures_not_finite,
                     check_eos_invariants, cold_energy_density)


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
# check; the kinds map each key to its type, a list meaning one of floats.
_TOP_KEYS = ("mesh", "eos", "transport", "boundary", "config", "initial", "output_times")
_MESH_KINDS = {"x0": float, "x1": float, "n": int}
_EOS_KINDS = {"a": float, "p_inf": float, "entropy_const": float, "third_law": bool}
_EOS_KEYS = ("shape", *_EOS_KINDS, "table")
_TABLE_KINDS = {"z": list, "p": list}
_TRANSPORT_KINDS = dict.fromkeys(("lambda_exp", "mu_scale", "eta_scale", "kappa_scale"), float)
_BOUNDARY_KEYS = ("faces",)
_FACE_KINDS = {"pos": float, "u_b": float, "rho_b": float, "F_ib": float, "wall": bool}
_FACE_OPTIONAL = ("rho_b", "F_ib")
_CONFIG_KINDS = {"epsilon": float, "delta": float, "Gamma": float, "d": int, "cfl": float,
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
    boolean or a numeric string, a bool only true or false, a list a list
    whose every item reads as a float; an integer beyond the float range
    reads as none (ValueError)."""
    if kind is list:
        if not isinstance(value, list):
            raise TypeError
        return [_as_kind(float, v) for v in value]
    if isinstance(value, bool) != (kind is bool) or (
            kind is int and isinstance(value, float) and not value.is_integer()):
        raise TypeError
    try:
        return kind(value)
    except OverflowError:
        raise ValueError from None


def _typed(doc: dict, kinds: dict, path: str, code: str, issues: list) -> Optional[dict]:
    """{key: doc[key] as kind} over the keys of ``kinds`` that ``doc`` holds;
    None if any value is refused, with one issue per refused value: one that
    ``_as_kind`` does not read as its kind, or a float that is not finite."""
    n_issues = len(issues)
    out = {}
    for key, kind in kinds.items():
        if key not in doc:
            continue
        try:
            out[key] = _as_kind(kind, doc[key])
        except (TypeError, ValueError):
            issues.append(Issue(f"{path}{key}", code,
                                f"expected {kind.__name__}, got {doc[key]!r}"))
            continue
        for v in out[key] if kind is list else [out[key]]:
            if isinstance(v, float) and not math.isfinite(v):
                issues.append(Issue(f"{path}{key}", code, f"expected a finite number, got {v!r}"))
                break
    return out if len(issues) == n_issues else None


def _build(docs: dict, section: str, kinds: dict, make, issues: list):
    """``make(**values)`` of the ``section`` object of ``docs``, its values read
    by ``_typed``; None if the section is absent or a value is refused.  A
    ValueError of ``make`` is one issue under the section: a
    ``transport-envelope`` one for transport, else ``<section>-schema``; so
    is a MemoryError, e.g. a mesh too large to allocate."""
    if section not in docs:
        return None
    kw = _typed(docs[section], kinds, f"{section}.", f"{section}-schema", issues)
    if kw is None:
        return None
    try:
        return make(**kw)
    except (ValueError, MemoryError) as err:
        code = "transport-envelope" if section == "transport" else f"{section}-schema"
        issues.append(Issue(section, code, str(err)))
        return None


def _build_eos(doc: dict, issues: list) -> tuple:
    """(EosSpec or None, its {invariant: (ok, detail)}); each failed invariant
    is also an ``eos-invariant`` issue.  A value that ``_typed`` refuses, a
    table entry included, is an ``eos-schema`` issue and the checks do not
    run; a shape or closures that overflow on the grids of the checks (their
    first two entries) are an ``eos-schema`` issue, and the checks stop there."""
    kw = _typed(doc, _EOS_KINDS, "eos.", "eos-schema", issues)
    if kw is None:
        return None, {}
    kw["shape"] = doc.get("shape", "iconic")
    if "table" in doc:
        table = doc["table"] if isinstance(doc["table"], dict) else {}
        _check_keys(table, _TABLE_KINDS, "eos.table.", issues)
        # a missing column reads as null, which is no list
        columns = _typed({key: table.get(key) for key in _TABLE_KINDS}, _TABLE_KINDS,
                         "eos.table.", "eos-schema", issues)
        if columns is None:
            return None, {}
        kw.update(table_z=tuple(columns["z"]), table_p=tuple(columns["p"]))
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
    for k, f in zip(order, spec.faces):
        if f.kind is not bd.FaceKind.IN:
            continue
        # the margin reads F_ib / |u_b.n|, a stage's energy update F_ib / h
        if not (math.isfinite(f.F_ib / abs(f.u_dot_n)) and math.isfinite(f.F_ib / mesh.h)):
            issues.append(Issue(f"boundary.faces[{k}].F_ib", "boundary-schema",
                                f"F_ib = {f.F_ib:g} overflows divided by |u_b.n| = "
                                f"{abs(f.u_dot_n):g} or by the cell width {mesh.h:g}"))
            return None
        if eos is not None and not math.isfinite(cold_energy_density(eos, f.rho_b)):
            issues.append(Issue(f"boundary.faces[{k}].rho_b", "boundary-schema",
                                f"the inflow cold energy 1.5 p_inf rho_b^(5/3) overflows "
                                f"at rho_b = {f.rho_b:g}"))
            return None
    if eos is None:
        return spec
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
                                  "transport": _TRANSPORT_KINDS, "boundary": _BOUNDARY_KEYS,
                                  "config": _CONFIG_KINDS, "initial": _INITIAL_KEYS}, issues)
    faces = docs["boundary"].get("faces", []) if "boundary" in docs else None
    if "boundary" in docs and not (isinstance(faces, list)
                                   and all(isinstance(f, dict) for f in faces)):
        issues.append(Issue("boundary.faces", "boundary-schema",
                            f"expected a list of objects, got {faces!r}"))
        faces = None
    for k, face in enumerate(faces or []):
        _check_keys(face, _FACE_KINDS, f"boundary.faces[{k}].", issues)

    mesh = _build(docs, "mesh", _MESH_KINDS,
                  lambda x0=0.0, x1=1.0, n=0: Mesh1D(x0, x1, n), issues)
    eos, _ = _build_eos(docs["eos"], issues) if "eos" in docs else (None, {})
    ts = _build(docs, "transport", _TRANSPORT_KINDS, TransportSpec, issues)
    cfg = _build(docs, "config", _CONFIG_KINDS, SolverConfig, issues)

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
                        values = _as_kind(list, spec_val)
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
            # the closures at the document's own data: the cells, then each
            # inflow face's rho_b at its cell's theta
            n, faces = mesh.n_cells, [f for f in bspec.faces if f.kind is bd.FaceKind.IN]
            cells = [0 if f.normal < 0.0 else n - 1 for f in faces]
            bad = _closures_not_finite(
                eos, np.append(initial.rho, [f.rho_b for f in faces]),
                np.append(initial.theta, initial.theta[cells]),
                lambda k: (f"cell {k}: " if k < n
                           else f"the inflow face at x = {faces[k - n].pos:g}: "))
            if bad:
                issues.append(Issue("eos", "eos-schema", f"{bad}, an overflow"))

    outs = doc.get("output_times")
    output_times = []
    if outs is not None:
        try:
            output_times = _as_kind(list, outs)
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
    sections = {"eos": _EOS_KEYS, "transport": _TRANSPORT_KINDS}
    _check_keys(doc, tuple(sections), "", issues)
    docs = _object_sections(doc, sections, issues)
    checks = {}
    if "eos" not in doc:
        issues.append(Issue("eos", "eos-schema", "missing: the document holds no eos object"))
    elif "eos" in docs:
        _, checks = _build_eos(docs["eos"], issues)
    _build(docs, "transport", _TRANSPORT_KINDS, TransportSpec, issues)
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
    x_cells = [f"{x:.17g}" for x in traj.mesh.centers.tolist()]  # formatted once
    for t, st in zip(traj.times, traj.states):
        p = outdir / f"state_{t!r}.csv"
        _write_csv(p, ["x", "rho", "u", "theta"], [st.rho, st.u, st.theta], first=x_cells)
        paths.append(p)

    flux_keys = ["mass_in_conv", "mass_out_conv", "mass_robin", "mass_bdry",
                 "energy_bdry_in", "energy_out_conv", "energy_bdry_total",
                 "entropy_in", "entropy_out_conv"]
    p = outdir / "fluxes.csv"
    _write_csv(p, ["t"] + flux_keys,
               [traj.times] + [[acc[k] for acc in traj.accums] for k in flux_keys])
    paths.append(p)
    return paths


def export_budget_csv(rows, path) -> None:
    """Flat time series of windowed budgets: t0,t1,mass_res,energy_res,entropy_prod."""
    values = [(*r.window, r.mass_residual, r.energy_residual, r.entropy_production)
              for r in rows]
    _write_csv(path, ["t0", "t1", "mass_res", "energy_res", "entropy_prod"],
               np.reshape(values, (-1, 5)).T)
