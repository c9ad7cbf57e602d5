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
                       classify_faces, cold_heat_flux_split, entropy_inflow_flux,
                       make_boundary)
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
                     Trajectory, convective_fluxes, euler_step, heat_flux, run,
                     stable_dt, step, viscous_stress)
from .studies import ConvergenceStudy, convergence_study, weak_strong_study
from .thermo import (ConservativeState, EosDomainError, EosSpec,
                     EosValidationError, OutOfDomainError, ThermoState,
                     TransportSpec, check_eos_invariants,
                     extended_internal_energy, from_conservative,
                     gibbs_residual, iconic_eos, pressure, sound_speed_sq,
                     specific_entropy, specific_internal_energy,
                     stability_margins, tabulated_eos, to_conservative,
                     transport_coefficients)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
