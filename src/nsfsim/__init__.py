"""Compressible Navier-Stokes-Fourier toolkit for open 1D domains.

Layers: Gibbs-consistent constitutive closures (:mod:`~nsfsim.thermo`),
relative energy as a Bregman distance (:mod:`~nsfsim.relent`), boundary
data with inflow admissibility (:mod:`~nsfsim.boundary`), a regularized
upwind finite-volume solver (:mod:`~nsfsim.solver`), budget audits
(:mod:`~nsfsim.budgets`), and the scenario/verification harness
(:mod:`~nsfsim.scenario`, :mod:`~nsfsim.mms`, :mod:`~nsfsim.studies`).
"""

from .boundary import (AdmissibilityReport, BoundaryFace, BoundarySpec, FaceKind,
                       admissibility_check, admissibility_margin, classify,
                       cold_heat_flux_split, entropy_inflow_flux, make_boundary)
from .budgets import (BudgetReport, apriori_monitor, audit, energy_budget,
                      entropy_budget, gronwall_envelope, mass_budget,
                      weak_strong_trace)
from .mesh import Mesh1D
from .mms import MmsCase, manufactured_case
from .relent import (RelEnergySample, RelEnergyTrace, ballistic_free_energy,
                     relative_energy_conservative, relative_energy_integral,
                     relative_energy_standard, total_energy,
                     total_energy_gradient)
from .scenario import (Scenario, ScenarioValidationError, eval_field_expression,
                       export_budget_csv, export_timeseries, load_scenario,
                       parse_scenario)
from .solver import (FieldState, RunAborted, SolverConfig, StepRejected,
                     Trajectory, convective_fluxes, euler_step, run, stable_dt,
                     step)
from .studies import ConvergenceStudy, convergence_study, weak_strong_study
from .thermo import (ConservativeState, EosDomainError, EosSpec,
                     EosValidationError, OutOfDomainError, ThermoState,
                     TransportSpec, check_eos_invariants,
                     extended_internal_energy, from_conservative,
                     gibbs_residual, iconic_eos, pressure, pressure_theta_slope,
                     sound_speed_sq, specific_entropy, specific_internal_energy,
                     stability_margins, tabulated_eos, to_conservative,
                     transport_coefficients)

__all__ = [
    "AdmissibilityReport", "BoundaryFace", "BoundarySpec", "BudgetReport",
    "ConservativeState", "ConvergenceStudy", "EosDomainError", "EosSpec",
    "EosValidationError", "FaceKind", "FieldState", "Mesh1D", "MmsCase",
    "OutOfDomainError", "RelEnergySample", "RelEnergyTrace", "RunAborted",
    "Scenario", "ScenarioValidationError", "SolverConfig", "StepRejected",
    "ThermoState", "Trajectory", "TransportSpec", "admissibility_check",
    "admissibility_margin", "apriori_monitor", "audit", "ballistic_free_energy",
    "check_eos_invariants", "classify", "cold_heat_flux_split",
    "convective_fluxes", "convergence_study", "energy_budget", "entropy_budget",
    "entropy_inflow_flux", "euler_step", "eval_field_expression",
    "export_budget_csv", "export_timeseries", "extended_internal_energy",
    "from_conservative", "gibbs_residual", "gronwall_envelope",
    "iconic_eos", "load_scenario", "make_boundary", "manufactured_case",
    "mass_budget", "parse_scenario", "pressure", "pressure_theta_slope",
    "relative_energy_conservative",
    "relative_energy_integral", "relative_energy_standard", "run", "sound_speed_sq",
    "specific_entropy", "specific_internal_energy", "stability_margins",
    "stable_dt", "step", "tabulated_eos", "to_conservative", "total_energy",
    "total_energy_gradient", "transport_coefficients", "weak_strong_study",
    "weak_strong_trace",
]
__version__ = "0.1.0"
