"""Verification studies: grid convergence and coarse-vs-fine stability."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .budgets import energy_budget, weak_strong_trace
from .mesh import Mesh1D
from .mms import MmsCase
from .scenario import Scenario, parse_scenario
from .solver import run as run_solver

# The window the observed MMS orders of a first-order scheme must fall in.
ORDER_LO, ORDER_HI = 0.8, 1.5


@dataclass
class ConvergenceStudy:
    resolutions: list
    errors: dict            # field -> list of L1 errors
    orders: dict            # field -> least-squares observed order
    monotone: dict          # field -> bool, errors strictly decreasing
    energy_residuals: list = field(default_factory=list)

    @property
    def flagged(self) -> bool:
        return not all(self.monotone.values())


def check_resolutions(resolutions) -> None:
    """Raise ValueError unless the cell counts suit a convergence study:
    at least 3, positive, each double the one before."""
    if len(resolutions) < 3:
        raise ValueError("need at least 3 resolutions")
    if resolutions[0] < 1:
        raise ValueError("resolutions must be positive")
    if any(b != 2 * a for a, b in zip(resolutions, resolutions[1:])):
        raise ValueError("resolutions must double")


def convergence_study(case: MmsCase, resolutions, t_end: float = 0.15,
                      cfl: float = 0.4, with_energy_budget: bool = False) -> ConvergenceStudy:
    """L1 errors against the manufactured fields and observed orders.

    Each resolution runs from exact initial data to ``t_end`` with the
    case's sources active.  Orders come from a least-squares fit of
    log2(error) against log2(n); a non-monotone error sequence is flagged
    in the result instead of silently fitted.
    """
    resolutions = list(resolutions)
    check_resolutions(resolutions)
    errors = {k: [] for k in ("rho", "u", "theta")}
    residuals = []
    for n in resolutions:
        mesh = Mesh1D(case.x_left, case.x_right, n)
        cfg = case.config(t_end=t_end, cfl=cfl)
        initial = case.exact_state(0.0, mesh)
        traj = run_solver(mesh, case.eos, case.transport, cfg, case.boundary,
                          initial, output_times=[0.0, t_end])
        exact = case.exact_state(t_end, mesh)
        final = traj.final_state
        for k in errors:
            errors[k].append(mesh.integrate(np.abs(getattr(final, k) - getattr(exact, k))))
        if with_energy_budget:
            residuals.append(abs(energy_budget(traj)[0]))

    logs_n = np.log2(np.asarray(resolutions, dtype=float))
    orders = {}
    monotone = {}
    for k, errs in errors.items():
        e = np.asarray(errs)
        monotone[k] = bool(np.all(np.diff(e) < 0.0))
        orders[k] = float(-np.polyfit(logs_n, np.log2(e + 1e-300), 1)[0])
    return ConvergenceStudy(resolutions=resolutions, errors=errors, orders=orders,
                            monotone=monotone, energy_residuals=residuals)


def scenario_with_resolution(doc: dict, n: int, name: str = "scenario") -> Scenario:
    """Re-parse a scenario document with a different cell count; a document
    or mesh section that is not an object goes to the parser unpatched."""
    if isinstance(doc, dict) and isinstance(doc.get("mesh", {}), dict):
        doc = {**doc, "mesh": {**doc.get("mesh", {}), "n": int(n)}}
    return parse_scenario(doc, name=f"{name}-n{n}")


def weak_strong_study(doc: dict, n_values, name: str = "scenario"):
    """Coarse-vs-fine relative energy traces for a scenario document.

    For each n the scenario runs on n and on 4n cells with identical
    data; returns a list of (n, trace, envelope).  Scenario validation (in
    particular inflow-flux admissibility) happens on every parse, so an
    inadmissible experiment is refused before any run.
    """
    results = []
    for n in n_values:
        coarse = scenario_with_resolution(doc, n, name=name).run()
        fine = scenario_with_resolution(doc, 4 * n, name=name).run()
        trace, envelope = weak_strong_trace(coarse, fine)
        results.append((int(n), trace, envelope))
    return results
