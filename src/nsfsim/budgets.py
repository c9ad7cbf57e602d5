"""Discrete audits of the mass, total-energy, and entropy balances.

The audits consume a recorded :class:`~nsfsim.solver.Trajectory`: storage
terms are evaluated from the states at the window ends, every flux and
volume term is a window difference of the solver's own accumulators, which
carry the update's stage, epsilon and delta weights, so the mass identity
telescopes to rounding and the residuals measure scheme, not quadrature, error.

Storage is evaluated on all recorded states of a trajectory, stacked into
(k, n) arrays, by one :func:`~nsfsim.thermo.stage_closures` call, which
gives e_delta and s_delta together, and kept on the trajectory until its
number of states changes.  Every window audit, the whole audit and the
a-priori sup over all outputs index those integrals: a sweep of audits over
T outputs makes one closure call on O(n T) array work, not T calls.  A
window audit resolves its two ends once; each single budget indexes the
same full balances.  The window-independent a-priori monitor of a report
is evaluated when read.  The weak-strong trace
makes one relative-energy call on the stacked coarse and block-averaged fine
states.

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

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .relent import RelEnergyTrace, relative_energy_fields
from .solver import THETA_BAR, Trajectory, _step_plan
from .thermo import stage_closures

ENTROPY_TOL = 1e-8
MASS_TOL_PER_STEP = 1e-11
ENERGY_SLACK_COEFF = 5.0


@dataclass(frozen=True)
class BudgetReport:
    """Residuals of the discrete balances over a window, with verdicts.

    ``apriori`` does not depend on the window: it is the
    :func:`apriori_monitor` of the whole ``trajectory``, evaluated when it
    is first read.
    """

    window: tuple
    mass_residual: float
    energy_residual: float
    entropy_production: float
    boundary_terms: dict
    trajectory: Trajectory = field(repr=False, compare=False)
    verdicts: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(v["passed"] for v in self.verdicts.values())

    @cached_property
    def apriori(self) -> dict:
        return apriori_monitor(self.trajectory)


def _window_ends(traj: Trajectory, window):
    """The recorded indices and accumulators of the two window ends, each
    resolved once."""
    ends = tuple(map(traj._index, window))
    return ends, tuple(traj.accums[i] for i in ends)


def _delta_acc(accs, key: str) -> float:
    a0, a1 = accs
    return a1.get(key, 0.0) - a0.get(key, 0.0)


def _drop_acc(accs, key: str) -> float:
    """-_delta_acc, but 0.0, not -0.0, for a key never booked."""
    return _delta_acc(accs[::-1], key)


def _stacked(states) -> np.ndarray:
    """rho, u and theta of the states, stacked into a (3, k, n) array."""
    return np.stack([(st.rho, st.u, st.theta) for st in states], axis=1)


def _storages(traj: Trajectory):
    """Mass, energy and entropy integrals of each recorded state, three
    arrays over the states.

    The states are stacked into (k, n) arrays, so one ``stage_closures``
    call gives e_delta and s_delta on the stack; row sums times h are the
    :meth:`Mesh1D.integrate` quadrature.  The integrals are kept on the
    trajectory and evaluated again only when its number of states changes.
    """
    k = len(traj.states)
    if traj._storages is None or traj._storages[0] != k:
        cfg, h = traj.config, traj.mesh.h
        rho, u, theta = _stacked(traj.states)
        _, e, s = stage_closures(traj.eos, rho, theta, delta=cfg.delta)
        ub = _step_plan(traj.mesh, traj.boundary).ub_ext
        dens = 0.5 * rho * (u - ub) ** 2 + rho * e
        if cfg.delta > 0.0:
            dens = dens + cfg.delta * cfg.delta_pressure_potential(rho)
        traj._storages = k, (rho.sum(axis=1) * h, dens.sum(axis=1) * h,
                             (rho * s).sum(axis=1) * h)
    return traj._storages[1]


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
    return _balances(traj, window)[0]


def energy_budget(traj: Trajectory, window=None):
    """Signed residual (LHS - RHS) of the total energy balance plus terms."""
    return _balances(traj, window)[1]


def entropy_budget(traj: Trajectory, window=None):
    """Entropy production (must be >= 0 up to tolerance) plus term breakdown."""
    return _balances(traj, window)[2]


def _balances(traj: Trajectory, window):
    """(mass residual, (energy residual, terms), (entropy production, terms))
    over the window, from the trajectory's storage integrals."""
    (i0, i1), accs = _window_ends(traj, _default_window(traj, window))
    mass, energy_storage, entropy_storage = _storages(traj)
    mass_res = float(mass[i1] - mass[i0]) + _delta_acc(accs, "mass_bdry")

    terms = {}
    terms["storage"] = float(energy_storage[i1] - energy_storage[i0])
    terms["outflow_internal_energy"] = _delta_acc(accs, "energy_out_conv")
    terms["outflow_delta_pressure"] = _delta_acc(accs, "delta_energy_out")
    terms["inflow_energy_flux"] = _delta_acc(accs, "energy_bdry_in")
    terms["inflow_delta_bregman"] = _drop_acc(accs, "delta_energy_in_gamma_breg")
    terms["inflow_delta_mismatch"] = _drop_acc(accs, "delta_energy_in_rho_sq")
    lhs = sum(terms.values())

    rhs_terms = {}
    rhs_terms["convective_pressure_work"] = -_delta_acc(accs, "conv_p_grad_ub")
    rhs_terms["boundary_kinetic_work"] = 0.5 * _delta_acc(accs, "rho_u_grad_ub2")
    rhs_terms["stress_boundary_work"] = _delta_acc(accs, "S_grad_ub")
    rhs_terms["body_force_work"] = _delta_acc(accs, "rho_g_rel_u")
    rhs_terms["regularization_sources"] = (_delta_acc(accs, "delta_heating")
                                           + _delta_acc(accs, "eps_radiation"))
    rhs_terms["inflow_delta_reference"] = _drop_acc(accs, "delta_energy_in_rho_b_gamma")
    rhs_terms["mass_diffusion_work"] = _delta_acc(accs, "eps_mom_ub")
    rhs_terms["manufactured_source"] = _delta_acc(accs, "mms_energy_source")
    rhs = sum(rhs_terms.values())
    terms.update({f"rhs:{k}": v for k, v in rhs_terms.items()})
    energy = lhs - rhs, terms

    terms = {}
    terms["storage"] = float(entropy_storage[i1] - entropy_storage[i0])
    terms["outflow_efflux"] = _delta_acc(accs, "entropy_out_conv")
    terms["dissipation"] = (_delta_acc(accs, "dissipation_no_delta")
                            + _delta_acc(accs, "delta_heating_over_theta"))
    terms["grad_rho_entropy"] = _delta_acc(accs, "eps_delta_grad_rho_heating_over_theta")
    terms["radiation_sink"] = _drop_acc(accs, "eps_radiation_over_theta")
    terms["mass_diffusion_entropy"] = _delta_acc(accs, "eps_grad_rho_grad_g")
    terms["inflow_terms"] = _delta_acc(accs, "entropy_in")
    terms["inflow_robin"] = _delta_acc(accs, "entropy_in_robin")
    terms["manufactured_source"] = _delta_acc(accs, "mms_energy_source_over_theta")
    production = (terms["storage"] + terms["outflow_efflux"]
                  - terms["dissipation"]
                  - terms["grad_rho_entropy"]
                  + terms["radiation_sink"]
                  - terms["mass_diffusion_entropy"]
                  - terms["inflow_terms"]
                  - terms["inflow_robin"]
                  - terms["manufactured_source"])
    return mass_res, energy, (production, terms)


def apriori_monitor(traj: Trajectory) -> dict:
    """Coercivity-bound quantities of the whole trajectory, the
    regularization-scaled integrals as the solver weighted them."""
    _, accs = _window_ends(traj, _default_window(traj, None))
    out = {}
    _, energy, entropy = _storages(traj)
    out["energy_sup"] = float(np.max(energy - THETA_BAR * entropy))
    out["dissipation_integral"] = THETA_BAR * _delta_acc(accs, "dissipation_no_delta")
    out["inflow_coercive"] = _delta_acc(accs, "apriori_in_coercive")
    out["outflow_ballistic"] = _delta_acc(accs, "apriori_out_ballistic")
    out["delta_inv_theta3"] = _delta_acc(accs, "delta_heating_over_theta")
    out["eps_theta5"] = _drop_acc(accs, "eps_radiation")
    out["delta_boundary"] = (_delta_acc(accs, "delta_energy_out")
                             - _delta_acc(accs, "delta_energy_in_rho_sq"))
    out["eps_delta_grad_rho"] = _delta_acc(accs, "eps_delta_grad_rho_heating_over_theta")
    return out


def audit(traj: Trajectory, window=None) -> BudgetReport:
    """Run all budgets over the window and attach PASS/FAIL verdicts.

    The window ends are resolved once, and the trajectory's storage
    integrals at the two ends serve all three balances.

    Tolerances: mass |residual| <= MASS_TOL_PER_STEP * steps; entropy
    production >= -ENTROPY_TOL * measure * window length; energy residual
    below a first-order slack proportional to the cell width (the balance
    is an inequality; upwind dissipation normally makes the residual
    negative).
    """
    window = _default_window(traj, window)
    mass_res, (energy_res, energy_terms), (entropy_prod, entropy_terms) = _balances(traj, window)

    mass_tol = MASS_TOL_PER_STEP * max(1, traj.n_steps)
    ent_tol = ENTROPY_TOL * traj.mesh.measure * max(window[1] - window[0], 1e-30)
    scale = 1.0 + max(abs(v) for v in energy_terms.values())
    en_tol = ENERGY_SLACK_COEFF * traj.mesh.h * scale

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
                        boundary_terms=boundary_terms, trajectory=traj,
                        verdicts=verdicts)


# ---------------------------------------------------------------------------
# coarse-vs-fine relative energy (stability surrogate)
# ---------------------------------------------------------------------------


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


def weak_strong_trace(coarse: Trajectory, fine: Trajectory):
    """Relative energy of a coarse run against a finer reference run.

    The fine run must live on the same interval with a cell count that is an
    integer multiple (>= 4, or identical meshes) of the coarse one and share
    the recorded output times.  Returns (RelEnergyTrace, (eta, rate)) where
    the pair is the fitted exponential envelope.
    """
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

    # the fine states at the coarse times, block-averaged onto the coarse cells
    ref = _stacked(map(fine.state_at, coarse.times))
    ref = ref.reshape(3, len(coarse.times), cm.n_cells, ratio).mean(axis=3)
    kin, breg = relative_energy_fields(coarse.eos, *_stacked(coarse.states), *ref)
    kins, bregs = kin.sum(axis=1) * cm.h, breg.sum(axis=1) * cm.h
    trace = RelEnergyTrace(times=np.asarray(coarse.times), integrals=kins + bregs,
                           kinetic=kins, bregman=bregs)
    envelope = gronwall_envelope(trace.times, trace.integrals)
    return trace, envelope
