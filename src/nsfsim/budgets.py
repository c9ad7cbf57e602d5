"""Discrete audits of the mass, total-energy, and entropy balances.

The audits consume a recorded :class:`~nsfsim.solver.Trajectory`: storage
terms are evaluated from the states at the window ends, every flux and
volume term reuses the solver's own stage-weighted accumulators, so the
mass identity telescopes to rounding and the reported energy/entropy
residuals measure scheme error, not quadrature error.

Conventions (all with constant-in-time test function, outward normals):

* mass residual: change of total mass plus the boundary mass-flux integral;
  zero up to accumulation rounding for the conservative scheme.
* energy residual: left-hand side minus right-hand side of the total
  energy inequality, including the delta/epsilon correction terms when the
  regularization is active; nonpositive values comply with the inequality.
* entropy production: entropy storage change plus outflow efflux minus
  dissipation, regularization terms, and the inflow entropy-flux terms
  (with epsilon > 0 these include the entropy the Robin inflow mass flux
  carries, which keeps the production independent of the entropy gauge);
  must be nonnegative up to a scaled tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .relent import (RelEnergyTrace, relative_energy_fields)
from .solver import FieldState, Trajectory, boundary_velocity_extension

DEFAULT_ENTROPY_TOL = 1e-8
DEFAULT_MASS_TOL_PER_STEP = 1e-11
ENERGY_SLACK_COEFF = 5.0


@dataclass(frozen=True)
class BudgetReport:
    """Residuals of the discrete balances over a window, with verdicts."""

    window: tuple
    mass_residual: float
    energy_residual: float
    entropy_production: float
    boundary_terms: dict
    apriori: dict
    verdicts: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(v["passed"] for v in self.verdicts.values())


def _delta_acc(traj: Trajectory, key: str, window) -> float:
    t0, t1 = window
    a0 = traj.accum_at(t0).get(key, 0.0)
    a1 = traj.accum_at(t1).get(key, 0.0)
    return a1 - a0


def _mass_storage(traj: Trajectory, t: float) -> float:
    return traj.mesh.integrate(traj.state_at(t).rho)


def _energy_storage(traj: Trajectory, t: float) -> float:
    cfg = traj.config
    st = traj.state_at(t)
    ub, _ = boundary_velocity_extension(traj.mesh, traj.boundary)
    dens = (0.5 * st.rho * (st.u - ub) ** 2
            + st.rho * cfg.internal_energy(traj.eos, st.rho, st.theta))
    if cfg.delta > 0.0:
        dens = dens + cfg.delta * (st.rho ** cfg.Gamma / (cfg.Gamma - 1.0) + st.rho ** 2)
    return traj.mesh.integrate(dens)


def _entropy_storage(traj: Trajectory, t: float) -> float:
    st = traj.state_at(t)
    return traj.mesh.integrate(st.rho * traj.config.entropy(traj.eos, st.rho, st.theta))


def _ballistic_storage(traj: Trajectory, t: float) -> float:
    return _energy_storage(traj, t) - traj.config.theta_bar * _entropy_storage(traj, t)


def _default_window(traj: Trajectory, window):
    if window is None:
        return (traj.times[0], traj.times[-1])
    return tuple(window)


def mass_budget(traj: Trajectory, window=None) -> float:
    """Residual of the discrete mass identity over the window.

    [integral of rho] + time integral of the boundary mass fluxes (the
    prescribed inflow flux rho_b u_b.n, the interior outflow trace, and the
    Robin diffusive flux when the mass regularization is active).
    """
    window = _default_window(traj, window)
    return (_mass_storage(traj, window[1]) - _mass_storage(traj, window[0])
            + _delta_acc(traj, "mass_bdry", window))


def energy_budget(traj: Trajectory, window=None):
    """Signed residual (LHS - RHS) of the total energy balance plus terms."""
    window = _default_window(traj, window)
    cfg = traj.config
    eps, dlt = cfg.epsilon, cfg.delta
    terms = {}
    terms["storage"] = _energy_storage(traj, window[1]) - _energy_storage(traj, window[0])
    terms["outflow_internal_energy"] = _delta_acc(traj, "energy_out_conv", window)
    terms["outflow_delta_pressure"] = dlt * _delta_acc(traj, "energy_out_delta", window)
    terms["inflow_energy_flux"] = _delta_acc(traj, "energy_bdry_in", window)
    terms["inflow_delta_bregman"] = -dlt * _delta_acc(traj, "energy_in_gamma_breg", window)
    terms["inflow_delta_mismatch"] = -dlt * _delta_acc(traj, "energy_in_rho_sq", window)
    lhs = sum(terms[k] for k in ("storage", "outflow_internal_energy",
                                 "outflow_delta_pressure", "inflow_energy_flux",
                                 "inflow_delta_bregman", "inflow_delta_mismatch"))

    rhs_terms = {}
    rhs_terms["convective_pressure_work"] = -_delta_acc(traj, "conv_p_grad_ub", window)
    rhs_terms["boundary_kinetic_work"] = 0.5 * _delta_acc(traj, "rho_u_grad_ub2", window)
    rhs_terms["stress_boundary_work"] = _delta_acc(traj, "S_grad_ub", window)
    rhs_terms["body_force_work"] = _delta_acc(traj, "rho_g_rel_u", window)
    rhs_terms["regularization_sources"] = (dlt * _delta_acc(traj, "inv_theta2", window)
                                           - eps * _delta_acc(traj, "theta5", window))
    rhs_terms["inflow_delta_reference"] = -dlt * _delta_acc(traj, "energy_in_rho_b_gamma", window)
    rhs_terms["mass_diffusion_work"] = eps * _delta_acc(traj, "eps_mom_ub", window)
    rhs_terms["manufactured_source"] = _delta_acc(traj, "mms_energy_source", window)
    rhs = sum(rhs_terms.values())

    terms.update({f"rhs:{k}": v for k, v in rhs_terms.items()})
    residual = lhs - rhs
    return residual, terms


def entropy_budget(traj: Trajectory, window=None):
    """Entropy production (must be >= 0 up to tolerance) plus term breakdown."""
    window = _default_window(traj, window)
    cfg = traj.config
    eps, dlt = cfg.epsilon, cfg.delta
    terms = {}
    terms["storage"] = _entropy_storage(traj, window[1]) - _entropy_storage(traj, window[0])
    terms["outflow_efflux"] = _delta_acc(traj, "entropy_out_conv", window)
    terms["dissipation"] = _delta_acc(traj, "dissipation", window)
    terms["grad_rho_entropy"] = eps * dlt * _delta_acc(traj, "grad_rho_sq_gamma_over_theta", window)
    terms["radiation_sink"] = eps * _delta_acc(traj, "theta4", window)
    terms["mass_diffusion_entropy"] = eps * _delta_acc(traj, "grad_rho_grad_g", window)
    terms["inflow_terms"] = _delta_acc(traj, "entropy_in", window)
    terms["inflow_robin"] = _delta_acc(traj, "entropy_in_robin", window)
    terms["manufactured_source"] = _delta_acc(traj, "mms_energy_source_over_theta", window)
    production = (terms["storage"] + terms["outflow_efflux"]
                  - terms["dissipation"]
                  - terms["grad_rho_entropy"]
                  + terms["radiation_sink"]
                  - terms["mass_diffusion_entropy"]
                  - terms["inflow_terms"]
                  - terms["inflow_robin"]
                  - terms["manufactured_source"])
    return production, terms


def apriori_monitor(traj: Trajectory, epsilon=None, delta=None) -> dict:
    """Coercivity-bound quantities; (epsilon, delta) may be overridden to
    reweight the regularization-scaled integrals of a frozen trajectory."""
    cfg = traj.config
    eps = cfg.epsilon if epsilon is None else float(epsilon)
    dlt = cfg.delta if delta is None else float(delta)
    window = (traj.times[0], traj.times[-1])
    out = {}
    out["energy_sup"] = max(_ballistic_storage(traj, t) for t in traj.times)
    out["dissipation_integral"] = cfg.theta_bar * _delta_acc(traj, "dissipation_no_delta", window)
    out["inflow_coercive"] = _delta_acc(traj, "apriori_in_coercive", window)
    out["outflow_ballistic"] = _delta_acc(traj, "apriori_out_ballistic", window)
    out["delta_inv_theta3"] = dlt * _delta_acc(traj, "inv_theta3", window)
    out["eps_theta5"] = eps * _delta_acc(traj, "theta5", window)
    out["delta_boundary"] = dlt * (_delta_acc(traj, "energy_out_delta", window)
                                   - _delta_acc(traj, "energy_in_rho_sq", window))
    out["eps_delta_grad_rho"] = eps * dlt * _delta_acc(traj, "grad_rho_sq_gamma_over_theta", window)
    return out


def audit(traj: Trajectory, window=None, entropy_tol: float = DEFAULT_ENTROPY_TOL,
          mass_tol_per_step: float = DEFAULT_MASS_TOL_PER_STEP,
          energy_slack: float = ENERGY_SLACK_COEFF) -> BudgetReport:
    """Run all budgets over the window and attach PASS/FAIL verdicts.

    Tolerances: mass |residual| <= mass_tol_per_step * steps; entropy
    production >= -entropy_tol * measure * window length; energy residual
    below a first-order slack proportional to the cell width (the balance
    is an inequality; upwind dissipation normally makes the residual
    negative).
    """
    window = _default_window(traj, window)
    mass_res = mass_budget(traj, window)
    energy_res, energy_terms = energy_budget(traj, window)
    entropy_prod, entropy_terms = entropy_budget(traj, window)
    apriori = apriori_monitor(traj)

    mass_tol = mass_tol_per_step * max(1, traj.n_steps)
    ent_tol = entropy_tol * traj.mesh.measure * max(window[1] - window[0], 1e-30)
    scale = 1.0 + max(abs(v) for v in energy_terms.values())
    en_tol = energy_slack * traj.mesh.h * scale

    verdicts = {
        "mass": {"passed": bool(abs(mass_res) <= mass_tol), "tol": mass_tol,
                 "value": mass_res},
        "energy": {"passed": bool(energy_res <= en_tol), "tol": en_tol,
                   "value": energy_res},
        "entropy": {"passed": bool(entropy_prod >= -ent_tol), "tol": ent_tol,
                    "value": entropy_prod},
    }
    boundary_terms = {k: v for k, v in {**energy_terms, **{f"entropy:{k2}": v2 for k2, v2 in entropy_terms.items()}}.items()
                      if "flow" in k or "entropy:" in k}
    return BudgetReport(window=window, mass_residual=mass_res,
                        energy_residual=energy_res,
                        entropy_production=entropy_prod,
                        boundary_terms=boundary_terms, apriori=apriori,
                        verdicts=verdicts)


# ---------------------------------------------------------------------------
# coarse-vs-fine relative energy (stability surrogate)
# ---------------------------------------------------------------------------


def _block_average(arr: np.ndarray, ratio: int) -> np.ndarray:
    return arr.reshape(-1, ratio).mean(axis=1)


def coarsen_state(fine: FieldState, ratio: int) -> FieldState:
    return FieldState(rho=_block_average(fine.rho, ratio),
                      u=_block_average(fine.u, ratio),
                      theta=_block_average(fine.theta, ratio))


def gronwall_envelope(times: np.ndarray, values: np.ndarray):
    """Least-squares exponential envelope values <= (values[0] + eta) e^{L t}.

    The rate is the nonnegative least-squares slope of log(values); eta is
    the smallest offset making the envelope valid at every sample.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    tiny = 1e-300
    logs = np.log(values + tiny)
    if len(times) > 1 and np.ptp(times) > 0 and np.ptp(values) > 0:
        slope = float(np.polyfit(times, logs, 1)[0])
    else:
        slope = 0.0
    rate = max(slope, 0.0)
    eta = float(max(np.max(values * np.exp(-rate * times)) - values[0], 0.0))
    return eta, rate


def weak_strong_trace(coarse: Trajectory, fine: Trajectory, eos=None):
    """Relative energy of a coarse run against a finer reference run.

    The fine run must live on the same interval with a cell count that is an
    integer multiple (>= 4, or identical meshes) of the coarse one and share
    the recorded output times.  Returns (RelEnergyTrace, (eta, rate)) where
    the pair is the fitted exponential envelope.
    """
    eos = coarse.eos if eos is None else eos
    cm, fm = coarse.mesh, fine.mesh
    if (cm.x_left, cm.x_right) != (fm.x_left, fm.x_right):
        raise ValueError("runs live on different intervals")
    if fm.n_cells % cm.n_cells != 0:
        raise ValueError("fine mesh must refine the coarse mesh by an integer factor")
    ratio = fm.n_cells // cm.n_cells
    if ratio != 1 and ratio < 4:
        raise ValueError("reference run must be at least 4x finer (or the identical mesh)")
    t_c = [round(t, 12) for t in coarse.times]
    t_f = [round(t, 12) for t in fine.times]
    if t_c != t_f:
        raise ValueError("runs must share identical output schedules")

    totals, kins, bregs = [], [], []
    for t, st in zip(coarse.times, coarse.states):
        ref = coarsen_state(fine.state_at(t), ratio)
        kin, breg = relative_energy_fields(eos, st.rho, st.u, st.theta,
                                           ref.rho, ref.u, ref.theta)
        kins.append(cm.integrate(kin))
        bregs.append(cm.integrate(breg))
        totals.append(kins[-1] + bregs[-1])
    trace = RelEnergyTrace(times=np.asarray(coarse.times),
                           integrals=np.asarray(totals),
                           kinetic=np.asarray(kins), bregman=np.asarray(bregs),
                           reference_label=f"{fm.n_cells}-cell reference")
    envelope = gronwall_envelope(trace.times, trace.integrals)
    return trace, envelope
