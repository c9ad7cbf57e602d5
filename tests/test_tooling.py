"""Source hygiene of the package and its tests, checked with the standard library's ast."""

import ast
import collections
import dataclasses
import importlib
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nsfsim
from nsfsim import BoundarySpec, Mesh1D, make_boundary, mms, scenario, solver

ROOT = Path(__file__).resolve().parents[1]


def _unused_imports(path: Path) -> list:
    """'<file>:<line>: <name>' for each imported name the module never reads."""
    tree = ast.parse(path.read_text())
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}: {name}" for name, line in bound.items() if name not in read]


def test_no_unused_imports():
    # the package's __init__.py imports to re-export, so its names are read
    # by importers
    package = sorted(p for p in (ROOT / "src" / "nsfsim").glob("*.py") if p.name != "__init__.py")
    tests = sorted((ROOT / "tests").glob("*.py"))
    assert package and tests
    unused = [entry for path in package + tests for entry in _unused_imports(path)]
    assert unused == []


def _imported_modules(path: Path) -> set:
    """The top-level names of the modules a module imports."""
    tree = ast.parse(path.read_text())
    return ({alias.name.split(".")[0] for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names}
            | {node.module.split(".")[0] for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module and not node.level})


def test_every_csv_goes_through_one_writer():
    # relent._write_csv formats every CSV file the package writes (%.17g,
    # \r\n line ends); a module importing csv would be a second writer
    package = sorted((ROOT / "src" / "nsfsim").glob("*.py"))
    assert package
    assert [path.name for path in package if "csv" in _imported_modules(path)] == []


def test_package_does_not_import_sympy():
    # the manufactured sources are numeric jets through thermo's closures;
    # sympy is a test extra, for the independent derivation alone
    package = sorted((ROOT / "src" / "nsfsim").glob("*.py"))
    assert package
    assert [path.name for path in package if "sympy" in _imported_modules(path)] == []


@pytest.mark.parametrize("kind", ["thermal_relaxation", "acoustic_smooth", "throughflow"])
def test_manufactured_sources_differentiate_only_the_fields(kind, monkeypatch):
    # the balances are written in the jets of rho*, m* = rho* u* and theta*:
    # one evaluation of g and the energy source builds those jets by one
    # call of the case's closed forms, and takes every other derivative by
    # the chain rule through one stage_closures pass with slopes on arrays
    case = mms.manufactured_case(kind)
    seen = []
    space, fields = case.space, case.fields
    case.space = lambda x: seen.append(("space", type(x))) or space(x)
    case.fields = lambda t, factors: seen.append(("fields", type(t))) or fields(t, factors)
    closures = mms.stage_closures
    monkeypatch.setattr(mms, "stage_closures", lambda eos, rho, theta, **kw: seen.append(
        ("stage_closures", type(theta), kw)) or closures(eos, rho, theta, **kw))
    x = Mesh1D(0.0, 1.0, 16).centers
    case.g_fn(0.1, x)
    case.energy_source_fn(0.1, x)
    assert seen == [("space", mms.Jet), ("fields", mms.Jet),
                    ("stage_closures", np.ndarray, {"slopes": True})]


def _public_functions(path: Path) -> list:
    """The public functions defined at the top level of a module."""
    tree = ast.parse(path.read_text())
    return [node.name for node in tree.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]


def _referenced_names(path: Path) -> set:
    """Every name a module reads, bare or as the attribute of an object."""
    tree = ast.parse(path.read_text())
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def test_every_public_function_has_a_caller():
    # a public function is read somewhere in the package, by name or as
    # module.attr, or exported through nsfsim.__all__; the re-export imports
    # of __init__.py bind names without reading them, so they do not count
    modules = sorted((ROOT / "src" / "nsfsim").glob("*.py"))
    read = set().union(*map(_referenced_names, modules))
    uncalled = [f"{path.stem}.{name}" for path in modules for name in _public_functions(path)
                if name not in read and name not in nsfsim.__all__]
    assert uncalled == []


def test_config_keys_are_solver_settings():
    # the scenario's config section sets every SolverConfig field but the
    # energy source, a callable only the manufactured cases set, and nothing
    # else: a value settable on one side only fails here
    fields = {f.name for f in dataclasses.fields(solver.SolverConfig)}
    assert set(scenario._CONFIG_KINDS) == fields - {"energy_source"}


def _defaulted_parameters(path: Path) -> list:
    """(callee name, parameter, call position or None if keyword-only) for
    each defaulted parameter of the functions a module defines; a method's
    position skips self, and __init__ is called by its class name."""
    out = []

    def visit(node, cls=None):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
            elif isinstance(child, ast.FunctionDef):
                name = cls if child.name == "__init__" and cls else child.name
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in child.decorator_list)
                skip = 1 if cls and not static else 0
                args = child.args
                positional = args.posonlyargs + args.args
                first = len(positional) - len(args.defaults)
                for k, arg in enumerate(positional[first:], start=first):
                    out.append((name, arg.arg, k - skip))
                out.extend((name, arg.arg, None) for arg, default
                           in zip(args.kwonlyargs, args.kw_defaults) if default is not None)
                visit(child, None)
    visit(ast.parse(path.read_text()))
    return out


def _calls(path: Path) -> list:
    """(callee name, positional count, keyword names, passes * or **) per call."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            starred = (any(isinstance(a, ast.Starred) for a in node.args)
                       or any(kw.arg is None for kw in node.keywords))
            out.append((name, len(node.args), {kw.arg for kw in node.keywords}, starred))
    return out


def test_every_defaulted_parameter_is_set_by_a_caller():
    # a default that no call overrides is a knob without a caller: a
    # parameter counts as set when some call to a function of its name
    # passes it by keyword, by position, or through * or **
    package = sorted((ROOT / "src" / "nsfsim").glob("*.py"))
    callers = package + sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    calls = collections.defaultdict(list)
    for path in callers:
        for name, n_pos, keywords, starred in _calls(path):
            calls[name].append((n_pos, keywords, starred))
    unset = [f"{path.stem}.{name}({param})"
             for path in package for name, param, pos in _defaulted_parameters(path)
             if not any(starred or param in keywords or (pos is not None and n_pos > pos)
                        for n_pos, keywords, starred in calls[name])]
    assert unset == []


def _accumulator_reads() -> set:
    """The accumulator keys the audits and the exports read: the string
    arguments of the budgets module's _delta_acc and _drop_acc calls and the
    strings of the scenario module's flux_keys list."""
    package = ROOT / "src" / "nsfsim"
    reads = set()
    for node in ast.walk(ast.parse((package / "budgets.py").read_text())):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("_delta_acc",
                                                                            "_drop_acc"):
            reads |= {arg.value for arg in node.args if isinstance(arg, ast.Constant)}
    for node in ast.walk(ast.parse((package / "scenario.py").read_text())):
        if isinstance(node, ast.Assign) and any(getattr(target, "id", None) == "flux_keys"
                                                for target in node.targets):
            reads |= {elt.value for elt in node.value.elts}
    return reads


def test_every_booked_accumulator_is_read_and_every_read_one_booked(eos, transport):
    # one run that books every term: inflow and outflow, u_b varying,
    # epsilon = delta > 0, a callable g and an energy source; a row booked
    # but never read is waste, and a key read but never booked (a misspelling)
    # reads as 0.0 in the audits
    mesh = Mesh1D(0.0, 1.0, 16)
    x = mesh.centers
    bspec = make_boundary(u_b_left=0.5, u_b_right=0.7, rho_b_left=1.1, F_ib_left=-2.5)
    cfg = solver.SolverConfig(epsilon=1e-3, delta=1e-3, t_end=0.002,
                              g=lambda t, x: -0.7 * np.cos(np.pi * x),
                              energy_source=lambda t, x: 0.1 * np.sin(np.pi * x))
    initial = solver.FieldState(rho=1 + 0.1 * np.cos(np.pi * x),
                                u=0.5 + 0.2 * x + 0.05 * np.sin(np.pi * x),
                                theta=1 + 0.1 * np.cos(np.pi * x))
    traj = solver.run(mesh, eos, transport, cfg, bspec, initial)
    booked = set().union(*traj.accums)
    reads = _accumulator_reads()
    assert booked and reads
    assert sorted(booked - reads) == []
    assert sorted(reads - booked) == []


def test_step_looks_up_its_plan_once(eos, transport, monkeypatch):
    # a step hands its plan down: the mesh and the boundary are hashed for
    # one cache lookup, not once per helper that reads them
    mesh = Mesh1D(0.0, 1.0, 16)
    x = mesh.centers
    bspec = make_boundary(u_b_left=0.5, u_b_right=0.7, rho_b_left=1.1, F_ib_left=-2.5)
    cfg = solver.SolverConfig(epsilon=1e-3, delta=1e-3, t_end=1.0)
    state = solver.FieldState(rho=1 + 0.1 * np.cos(np.pi * x),
                              u=0.5 + 0.2 * x + 0.05 * np.sin(np.pi * x),
                              theta=1 + 0.1 * np.cos(np.pi * x))
    dt = solver.stable_dt(state, mesh, eos, transport, cfg)
    hashes = collections.Counter()
    for cls in (Mesh1D, BoundarySpec):
        def counted(self, _hash=cls.__hash__, _name=cls.__name__):
            hashes[_name] += 1
            return _hash(self)
        monkeypatch.setattr(cls, "__hash__", counted)
    assert solver.step(state, mesh, eos, transport, cfg, bspec, dt)[3] == 0
    assert hashes["Mesh1D"] <= 1 and hashes["BoundarySpec"] <= 1, hashes


def _theta_power_sites(path: Path) -> list:
    """(function, line) of each power of theta a module takes: ``**`` of an
    expression that reads ``theta`` to a literal exponent other than 1 or 2,
    or a sqrt, cbrt, power or pow call on one.  Exponents that are not
    literals, such as the transport law's lambda_exp, are parameters of a
    law, not powers the closures share."""
    def reads_theta(node):
        return any(isinstance(n, ast.Name) and n.id == "theta" for n in ast.walk(node))

    def literal(node):
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            value = literal(node.operand)
            return None if value is None else -value
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            return node.value
        return None

    sites = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.BinOp) and isinstance(child.op, ast.Pow):
                exponent = literal(child.right)
                if reads_theta(child.left) and exponent is not None and exponent not in (1, 2):
                    sites.append((func, child.lineno))
            if isinstance(child, ast.Call):
                name = getattr(child.func, "attr", getattr(child.func, "id", None))
                if name in ("sqrt", "cbrt", "power", "pow") and any(map(reads_theta, child.args)):
                    sites.append((func, child.lineno))
            visit(child, child.name if isinstance(child, ast.FunctionDef) else func)
    visit(ast.parse(path.read_text()), None)
    return sites


def test_thermo_takes_powers_of_theta_in_one_helper():
    # the closures read theta^{3/2}, theta^{5/2}, theta^3, theta^4 and Z from
    # one helper, built from one sqrt, instead of a ** pass per term
    sites = _theta_power_sites(ROOT / "src" / "nsfsim" / "thermo.py")
    assert sites and {func for func, _ in sites} == {"_theta_powers"}, sites


def _qualified_functions(path: Path) -> list:
    """(name, node) of each function of a module, named as
    ``module.Class.method`` and nested functions under their parent."""
    functions = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                if isinstance(child, ast.FunctionDef):
                    functions.append((prefix + child.name, child))
                visit(child, f"{prefix}{child.name}.")
    visit(ast.parse(path.read_text()), f"{path.stem}.")
    return functions


def test_table_looks_its_pieces_up_in_one_place():
    # a table has one evaluation path: ``evaluate`` alone calls the piece
    # lookup and alone writes the rows it keeps, and no method of the table
    # nests a function, the form a per-solve binding of rows would take
    functions = [f for path in sorted((ROOT / "src" / "nsfsim").glob("*.py"))
                 for f in _qualified_functions(path)]
    callers = {name for name, node in functions
               if any(getattr(n, "attr", None) == "_locate" for n in ast.walk(node))}
    keepers = {name for name, node in functions
               if any(isinstance(n, ast.Subscript) and isinstance(n.ctx, ast.Store)
                      and getattr(n.value, "attr", None) == "_kept" for n in ast.walk(node))}
    assert callers == keepers == {"thermo.TabulatedShape.evaluate"}
    assert [name for name, _ in functions
            if name.startswith("thermo.TabulatedShape.") and name.count(".") > 2] == []


def test_shape_forms_are_written_once_per_kind_of_region(eos_table, eos_table_nolaw):
    # every closed-form region of P is a PowerShape, so the forms of P, P',
    # S and S' are written twice in all: once for the family, once for the
    # spline.  Only PowerShape and TabulatedShape define ``evaluate``, the
    # only dicts of forms are their two, and a table's head and tail, in
    # either tail mode, are family members
    tree = ast.parse((ROOT / "src" / "nsfsim" / "thermo.py").read_text())
    classes = [node for node in tree.body if isinstance(node, ast.ClassDef)]
    evaluators = {c.name for c in classes
                  if any(isinstance(n, ast.FunctionDef) and n.name == "evaluate" for n in c.body)}
    assert evaluators == {"PowerShape", "TabulatedShape"}
    # a dict of forms is keyed by the names "p" and "dp", wherever it is written
    form_dicts = [n for n in ast.walk(tree) if isinstance(n, ast.Dict)
                  and {"p", "dp"} <= {getattr(k, "value", None) for k in n.keys}]
    named = {f"{c.name}.{n.targets[0].id}": n.value for c in classes for n in c.body
             if isinstance(n, ast.Assign) and n.value in form_dicts}
    assert len(form_dicts) == 2
    assert set(named) == {"PowerShape._FORMS", "TabulatedShape._SPLINE"}
    for eos in (eos_table, eos_table_nolaw):
        shape = eos.shape_fn
        assert type(shape.head) is type(shape.tail) is nsfsim.thermo.PowerShape


def test_floating_point_flags_raise_in_one_guard():
    # a step's finiteness is decided by numpy's flags: the three entry
    # points run, step and euler_step each make them raise once, through
    # the one constant solver._RAISE, and a single function, the guard,
    # catches the FloatingPointError (or its base ArithmeticError) that
    # follows
    assert solver._RAISE == {"over": "raise", "invalid": "raise", "divide": "raise"}
    functions = [f for path in sorted((ROOT / "src" / "nsfsim").glob("*.py"))
                 for f in _qualified_functions(path)]
    raisers = collections.Counter()
    for name, node in functions:
        for n in ast.walk(node):
            if isinstance(n, ast.Call) and getattr(n.func, "attr", None) == "errstate":
                values = [getattr(k.value, "value", None) for k in n.keywords]
                through = [getattr(k.value, "id", None) for k in n.keywords if k.arg is None]
                if "raise" in values or through:
                    raisers[name, tuple(through)] += 1
    catchers = {name for name, node in functions
                if any(isinstance(n, ast.ExceptHandler) and n.type is not None
                       and {getattr(e, "id", None) for e in ast.walk(n.type)}
                       & {"FloatingPointError", "ArithmeticError"} for n in ast.walk(node))}
    assert raisers == {(f"solver.{name}", ("_RAISE",)): 1 for name in ("run", "step", "euler_step")}
    assert catchers == {"solver._guarded"}


_DOMAIN_ERRORS = {"EosDomainError", "OutOfDomainError", "BoundaryDataError"}


def _nan_passing_guards(path: Path) -> list:
    """The line of each ``if`` of the module that raises a domain error on a
    test NaN passes: an ordering comparison (bare, or under an any() or an
    ``or``) outside a ``not``, which is False on NaN."""
    def passes_nan(node):
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            return False
        if isinstance(node, ast.Compare) and any(
                isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)) for op in node.ops):
            return True
        return any(map(passes_nan, ast.iter_child_nodes(node)))

    def raises_domain_error(stmt):
        exc = stmt.exc if isinstance(stmt, ast.Raise) else None
        return getattr(getattr(exc, "func", exc), "id", None) in _DOMAIN_ERRORS
    return [node.lineno for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.If) and any(map(raises_domain_error, node.body))
            and passes_nan(node.test)]


@pytest.mark.parametrize("module", ["thermo", "relent", "boundary"])
def test_domain_guards_refuse_nan(module):
    # a state's domain is checked by thermo's one helper, or by a comparison
    # under a ``not``: `x <= 0` and `(x <= 0).any()` let a NaN through
    assert _nan_passing_guards(ROOT / "src" / "nsfsim" / f"{module}.py") == []


def _tracing_hooks() -> dict:
    """The HOME_ENTRIES and METHODS literals of perfbench/tracing.py, read
    from its source."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    return {target.id: ast.literal_eval(node.value) for node in tree.body
            if isinstance(node, ast.Assign) for target in node.targets
            if getattr(target, "id", None) in ("HOME_ENTRIES", "METHODS")}


def test_benchmark_tracing_hooks_exist():
    # the benchmark's tracer patches these names through vars(owner)[attr]:
    # one deleted or renamed passes every other test and crashes a traced run
    hooks = _tracing_hooks()
    assert hooks["HOME_ENTRIES"] and hooks["METHODS"]

    def member(owner, attr):
        return None if owner is None else vars(owner).get(attr)

    def module(layer):
        return importlib.import_module(f"nsfsim.{layer}")
    missing = [f"{layer}.{attr}" for layer, attrs in hooks["HOME_ENTRIES"].items()
               for attr in attrs if not callable(member(module(layer), attr))]
    missing += [f"{layer}.{cls}.{attr}" for layer, cls, attr in hooks["METHODS"]
                if not callable(member(member(module(layer), cls), attr))]
    assert missing == []


_FAILING_PROPERTY_AND_PASSING_TEST = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    pass
"""


def test_a_failing_property_test_leaves_the_session_running(tmp_path):
    # hypothesis reports a failing example through libcst, whose import
    # warns; under the suite's warnings-as-errors that warning must not end
    # the session before the tests after it run
    path = tmp_path / "test_pair.py"
    path.write_text(_FAILING_PROPERTY_AND_PASSING_TEST)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "-p", "no:cacheprovider", "-q", str(path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout, run.stdout
