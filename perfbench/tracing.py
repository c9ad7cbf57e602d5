"""Per-layer spans recorded from outside the package.

The tracer replaces public entry points at their call sites with wrappers
that record a span (name, start, end, parent) each: the names one layer
imports from another, the entry points the benchmark and the ``bd.``
module references reach through their home module, two methods, and the
manufactured sources the solver calls.  No package file changes; removing
the wrappers restores the original objects, which ``assert_unwrapped``
checks by identity.  The layers are the package modules.
"""

from __future__ import annotations

import importlib
import inspect
import time
from pathlib import Path

import numpy as np

LAYERS = ("thermo", "solver", "budgets", "relent", "boundary", "scenario", "mms",
          "studies")

# Entry points reached through their home module: the benchmark calls these
# through the module, solver.run and the stage call step / stable_dt /
# convective_fluxes as globals of their own module, and scenario and mms reach
# boundary as `bd.<name>`, so every public boundary function is listed.
HOME_ENTRIES = {
    "solver": ("step", "stable_dt", "convective_fluxes"),
    "scenario": ("parse_scenario", "export_timeseries", "export_budget_csv"),
    "budgets": ("audit", "weak_strong_trace"),
    "mms": ("manufactured_case",),
    "studies": ("convergence_study",),
}
METHODS = (("scenario", "Scenario", "run"), ("mms", "MmsCase", "residual_probe"))
MARK = "__perfbench_span__"


class Tracer:
    """Spans kept in parallel lists; parents always precede their children."""

    def __init__(self):
        self.names, self.starts, self.ends, self.parents, self.cells = [], [], [], [], []
        self.stack = []
        self._patched = []   # (owner, attr, original)

    # -- recording -------------------------------------------------------

    def open(self, name: str, cells: int = 0) -> int:
        idx = len(self.starts)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.cells.append(cells)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self.stack.pop()

    def take(self) -> "Spans":
        """Hand over the recorded spans and start an empty record."""
        if self.stack:
            raise RuntimeError(f"{len(self.stack)} spans still open")
        spans = Spans(self.names, self.starts, self.ends, self.parents, self.cells)
        self.names, self.starts, self.ends, self.parents, self.cells = [], [], [], [], []
        return spans

    def wrap(self, fn, name: str, count_cells: bool = False):
        tracer = self

        def wrapper(*args, **kwargs):
            cells = 0
            if count_cells and len(args) > 1:
                cells = int(np.size(args[1]))
            idx = tracer.open(name, cells)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        setattr(wrapper, MARK, fn)
        return wrapper

    # -- installing ------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _span(self, owner, attr: str, name: str) -> None:
        wrapper = self.wrap(vars(owner)[attr], name, count_cells=name.startswith("thermo."))
        self._patch(owner, attr, wrapper)

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("wrappers already installed")
        modules = {layer: importlib.import_module(f"nsfsim.{layer}") for layer in LAYERS}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = obj.__module__.rpartition(".")[2]
                if home in modules and home != layer:
                    self._span(mod, attr, f"{home}.{obj.__name__}")
        boundary_api = tuple(a for a, o in vars(modules["boundary"]).items()
                             if not a.startswith("_") and inspect.isfunction(o)
                             and o.__module__ == "nsfsim.boundary")
        for layer, attrs in {**HOME_ENTRIES, "boundary": boundary_api}.items():
            mod = modules[layer]
            for attr in attrs:
                if attr == "manufactured_case":
                    self._patch(mod, attr, self._wrap_case_builder(vars(mod)[attr]))
                else:
                    self._span(mod, attr, f"{layer}.{attr}")
        for layer, cls, attr in METHODS:
            self._span(getattr(modules[layer], cls), attr, f"{layer}.{cls}.{attr}")

    def _wrap_case_builder(self, build):
        """manufactured_case as a span, with the sources of its case traced too."""
        traced_build = self.wrap(build, "mms.manufactured_case")
        tracer = self

        def wrapper(*args, **kwargs):
            case = traced_build(*args, **kwargs)
            case.g_fn = tracer.wrap(case.g_fn, "mms.source")
            case.energy_source_fn = tracer.wrap(case.energy_source_fn, "mms.source")
            return case

        setattr(wrapper, MARK, build)
        return wrapper

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        patched, self._patched = self._patched, []
        assert_unwrapped(patched)


def assert_unwrapped(patched=()) -> None:
    """Every patched name holds its original object and no wrapper is left."""
    for owner, attr, original in patched:
        if vars(owner)[attr] is not original:
            raise RuntimeError(f"{owner.__name__}.{attr} is not the original object")
    owners = [importlib.import_module(f"nsfsim.{layer}") for layer in LAYERS]
    owners += [getattr(importlib.import_module(f"nsfsim.{layer}"), cls)
               for layer, cls, _ in METHODS]
    for owner in owners:
        for attr, obj in vars(owner).items():
            if hasattr(obj, MARK):
                raise RuntimeError(f"{owner.__name__}.{attr} is still wrapped")


class Spans:
    """Recorded spans with self times and per-layer aggregates."""

    def __init__(self, names, starts, ends, parents, cells):
        self.names = list(names)
        self.start = np.asarray(starts, dtype=float)
        self.end = np.asarray(ends, dtype=float)
        self.parent = np.asarray(parents, dtype=np.int64)
        self.cells = np.asarray(cells, dtype=float)
        self.dur = self.end - self.start
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=self.dur[has_parent],
                            minlength=len(self.names))
        self.self_time = self.dur - child
        self.layer = np.array([n.partition(".")[0] for n in self.names])
        self.name = np.array(self.names)
        # spans inside a solver run (parents precede children)
        in_run = np.zeros(len(self.names), dtype=bool)
        for i, (n, p) in enumerate(zip(self.names, self.parent)):
            in_run[i] = n == "solver.run" or (p >= 0 and in_run[p])
        self.in_run = in_run

    def __len__(self) -> int:
        return len(self.names)

    @property
    def wall(self) -> float:
        """Duration of the root span."""
        return float(self.dur[0])

    def count(self, name: str, parent: str = None) -> int:
        mask = self.name == name
        if parent is not None:
            pnames = np.where(self.parent >= 0, self.name[np.maximum(self.parent, 0)], "")
            mask &= pnames == parent
        return int(np.sum(mask))

    def total(self, *names: str) -> float:
        return float(np.sum(self.dur[np.isin(self.name, names)]))

    def self_s(self, layer: str) -> float:
        return float(np.sum(self.self_time[self.layer == layer]))

    def calls(self, layer: str) -> int:
        return int(np.sum(self.layer == layer))

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            fh.write("idx,name,start_s,end_s,parent,cells\n")
            t0 = self.start[0] if len(self) else 0.0
            for i, n in enumerate(self.names):
                fh.write(f"{i},{n},{self.start[i] - t0:.9f},{self.end[i] - t0:.9f},"
                         f"{self.parent[i]},{int(self.cells[i])}\n")


def layer_metrics(spans: Spans, steps: int, rejects: int, export_bytes: int) -> dict:
    """Per-layer metrics of one traced operation (values only)."""
    wall = spans.wall
    per_step = 1.0 / steps if steps else 0.0
    thermo_run = (spans.layer == "thermo") & spans.in_run
    run_cells = float(np.sum(spans.cells[thermo_run]))
    audits = spans.count("budgets.audit")
    m = {}
    for layer in ("thermo", "solver", "budgets", "relent", "boundary", "studies"):
        m[f"{layer}.self_s"] = spans.self_s(layer)
    for layer in ("thermo", "solver", "budgets", "scenario", "mms"):
        m[f"{layer}.share"] = spans.self_s(layer) / wall
    m["thermo.calls_per_step"] = float(np.sum(thermo_run)) * per_step
    m["thermo.cells_per_step"] = run_cells * per_step
    m["thermo.ns_per_cell"] = (float(np.sum(spans.self_time[thermo_run])) / run_cells * 1e9
                               if run_cells else 0.0)
    m["thermo.newton_iters_per_step"] = spans.count(
        "thermo.energy_theta_slope", parent="solver.step") * per_step
    m["thermo.fallback_calls"] = spans.count("thermo.temperature_from_energy_density")
    m["solver.stable_dt_s"] = spans.total("solver.stable_dt")
    m["solver.rhs_evals"] = spans.count("solver.convective_fluxes")
    m["solver.rhs_evals_per_step"] = m["solver.rhs_evals"] * per_step
    m["solver.accept_ratio"] = steps / (steps + rejects) if steps + rejects else 0.0
    m["budgets.audit_calls"] = audits
    m["budgets.us_per_window"] = (spans.total("budgets.audit") / audits * 1e6
                                  if audits else 0.0)
    m["scenario.export_s"] = spans.total("scenario.export_timeseries",
                                         "scenario.export_budget_csv")
    m["scenario.export_bytes"] = export_bytes
    m["scenario.parse_s"] = spans.total("scenario.parse_scenario")
    m["relent.calls"] = spans.calls("relent")
    m["boundary.calls"] = spans.calls("boundary")
    m["mms.build_s"] = spans.total("mms.manufactured_case")
    m["mms.probe_s"] = spans.total("mms.MmsCase.residual_probe")
    m["mms.source_calls"] = spans.count("mms.source")
    m["mms.source_s"] = spans.total("mms.source")
    m["trace.spans"] = len(spans)
    return m
