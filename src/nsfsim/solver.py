"""First-order upwind finite-volume scheme for the regularized system in 1D.

The scheme advances (rho, rho u, rho e_delta) with

* upwind convective fluxes, the donor cell picked by the sign of the face
  velocity; inflow faces donate the prescribed density rho_b, outflow faces
  the interior trace;
* central face-averaged pressure p_delta = p + delta (rho^Gamma + rho^2);
* face-centered stress (mu(theta) + delta theta) 2(1 - 1/d) du/dx
  + eta(theta) du/dx and heat flux -(kappa + delta (theta^Gamma + 1/theta))
  dtheta/dx;
* mass diffusion epsilon with a Robin inflow condition whose diffusive face
  flux is (rho_b - rho) [u_b . n]^-;
* the prescribed total energy flux F_ib on inflow faces, insulation on
  walls and outflow;
* volume sources S_delta : grad u - p div u
  + eps delta (Gamma rho^{Gamma-2} + 2) |grad rho|^2 + delta / theta^2
  - eps theta^5, plus the momentum correction -eps grad rho . grad u.

Setting epsilon = delta = 0 recovers the target system.  Time stepping is
a two-stage strong-stability-preserving Runge-Kutta pair with step
rejection: a stage that loses positivity (density or temperature floors,
or a failed temperature recovery) halves dt and retries.

Each stage pads the state with one ghost cell per side and makes one
``stage_closures`` pass for (p, e, s) on the padded arrays; fluxes, sources
and the budget record all read that one evaluation.  One pass over the two
faces then books the other boundary rules: the F_ib and wall energy fluxes,
the Robin inflow mass flux and the boundary budget integrands.  The stage's
volume integrands are stacked into one (K, n) array and reduced once.  The
first stage of a step is evaluated once and reused by rejected attempts.
The temperature recovery builds its energy-density residual once per solve;
a Newton iterate makes no EOS call on the iconic shape and one ``p_dp`` on a
table, and Newton stops after its first step below 1e-8 theta, since
quadratic convergence leaves only rounding for the next.  Every
budget-relevant face flux and volume integrand is accumulated during the
run with the same stage weights as the update itself, so the discrete mass
identity telescopes to rounding and the audits in :mod:`nsfsim.budgets`
separate scheme error from quadrature error.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional, Union

import numpy as np

from .boundary import BoundarySpec, FaceKind
from .mesh import Mesh1D
from .thermo import (EosSpec, EosDomainError, TransportSpec, OutOfDomainError,
                     energy_density_residual, sound_speed_sq_and_energy_slope,
                     specific_entropy, specific_internal_energy, stage_closures,
                     temperature_from_energy_density)


class StepRejected(Exception):
    """A stage lost positivity; retry with a smaller dt."""


class RunAborted(RuntimeError):
    """Too many consecutive step rejections; carries the partial trajectory."""

    def __init__(self, message, trajectory=None, state=None):
        super().__init__(message)
        self.trajectory = trajectory
        self.state = state


@dataclass(frozen=True)
class SolverConfig:
    """Regularization levels, stress dimension factor, and stepping control."""

    epsilon: float = 0.0
    delta: float = 0.0
    Gamma: float = 4.0
    d: int = 3
    cfl: float = 0.4
    t_end: float = 1.0
    g: Union[float, Callable, None] = 0.0
    rho_floor: float = 1e-10
    theta_floor: float = 1e-10
    theta_bar: float = 1.0
    max_rejects: int = 20
    energy_source: Optional[Callable] = None

    def __post_init__(self):
        if self.epsilon < 0.0 or self.delta < 0.0:
            raise ValueError("epsilon and delta must be nonnegative")
        if not self.Gamma > 2.0:
            raise ValueError(f"Gamma must exceed 2, got {self.Gamma}")
        if self.d not in (1, 2, 3):
            raise ValueError(f"d must be 1, 2 or 3, got {self.d}")
        if not (0.0 < self.cfl < 1.0):
            raise ValueError(f"cfl must lie in (0,1), got {self.cfl}")
        if self.t_end < 0.0:
            raise ValueError("t_end must be nonnegative")

    def body_force(self, t: float, x: np.ndarray) -> np.ndarray:
        if self.g is None:
            return np.zeros_like(x)
        if callable(self.g):
            return np.asarray(self.g(t, x), dtype=float) * np.ones_like(x)
        return float(self.g) * np.ones_like(x)

    @property
    def deviatoric_factor(self) -> float:
        return 2.0 * (1.0 - 1.0 / self.d)

    def viscosity(self, ts: TransportSpec, theta):
        """1D normal viscosity (mu + delta theta) 2(1 - 1/d) + eta."""
        return (ts.mu(theta) + self.delta * theta) * self.deviatoric_factor + ts.eta(theta)

    def conductivity(self, ts: TransportSpec, theta):
        """Regularized conductivity kappa + delta (theta^Gamma + 1/theta)."""
        cond = ts.kappa(theta)
        if self.delta > 0.0:
            cond = cond + self.delta * (theta ** self.Gamma + 1.0 / theta)
        return cond

    def internal_energy(self, eos: EosSpec, rho, theta):
        """Regularized specific internal energy e_delta = e + delta theta."""
        return self._energy_delta(specific_internal_energy(eos, rho, theta), theta)

    def entropy(self, eos: EosSpec, rho, theta):
        """Regularized specific entropy s_delta = s + delta log theta."""
        return self._entropy_delta(specific_entropy(eos, rho, theta), theta)

    def _energy_delta(self, e, theta):
        return e + self.delta * theta

    def _entropy_delta(self, s, theta):
        if self.delta > 0.0:
            s = s + self.delta * np.log(theta)
        return s


@dataclass(frozen=True)
class FieldState:
    """Per-cell fields (rho, u, theta) at one time."""

    rho: np.ndarray
    u: np.ndarray
    theta: np.ndarray

    def __post_init__(self):
        for name in ("rho", "u", "theta"):
            object.__setattr__(self, name, np.array(getattr(self, name), dtype=float))

    def copy(self) -> "FieldState":
        return FieldState(self.rho.copy(), self.u.copy(), self.theta.copy())


def viscous_stress(ts: TransportSpec, cfg: SolverConfig, theta, du_dx):
    """1D normal viscous stress (mu + delta theta) 2(1 - 1/d) du/dx + eta du/dx."""
    coeff = cfg.viscosity(ts, np.asarray(theta, dtype=float))
    return coeff * np.asarray(du_dx, dtype=float)


def heat_flux(ts: TransportSpec, cfg: SolverConfig, theta, dtheta_dx):
    """Regularized heat flux -(kappa + delta (theta^Gamma + 1/theta)) dtheta/dx."""
    cond = cfg.conductivity(ts, np.asarray(theta, dtype=float))
    return -cond * np.asarray(dtheta_dx, dtype=float)


def boundary_velocity_extension(mesh: Mesh1D, bspec: BoundarySpec):
    """Linear interior extension of the boundary velocity and its gradient."""
    ul, ur = bspec.left.u_b, bspec.right.u_b
    x = mesh.centers
    grad = (ur - ul) / mesh.measure
    return ul + grad * (x - mesh.x_left), grad


def _ghosts(state: FieldState, bspec: BoundarySpec):
    """One ghost layer per side following the face class."""
    rho, u, theta = state.rho, state.u, state.theta
    vals = []
    for f, idx in ((bspec.left, 0), (bspec.right, -1)):
        if f.kind is FaceKind.IN:
            vals.append((f.rho_b, f.u_b, theta[idx]))
        elif f.kind is FaceKind.OUT:
            vals.append((rho[idx], u[idx], theta[idx]))
        else:
            vals.append((rho[idx], 2.0 * f.u_b - u[idx], theta[idx]))
    (rl, ul_, tl), (rr, ur_, tr) = vals
    rho_p = np.concatenate([[rl], rho, [rr]])
    u_p = np.concatenate([[ul_], u, [ur_]])
    theta_p = np.concatenate([[tl], theta, [tr]])
    return rho_p, u_p, theta_p


@dataclass(frozen=True)
class StageFields:
    """Ghost-padded fields of one stage and the closures evaluated on them.

    Entries [0] and [-1] are the ghosts of the left and right faces (the
    inflow data, or the interior trace), entries [1:-1] are the cells.
    ``e`` and ``s`` are the regularized e_delta and s_delta, ``w`` is the
    energy density rho e_delta.
    """

    rho: np.ndarray
    u: np.ndarray
    theta: np.ndarray
    p: np.ndarray
    e: np.ndarray
    s: np.ndarray
    w: np.ndarray


@dataclass
class StageRecord:
    """Named budget integrands of one RHS evaluation.

    ``scalars`` hold instantaneous rates (volume and boundary integrals);
    time-weighted sums of them reproduce the scheme's own updates exactly.
    ``cells`` holds per-cell arrays: the energy density ``w`` the stage
    started from, and diagnostics for tests.
    """

    scalars: dict = dc_field(default_factory=dict)
    cells: dict = dc_field(default_factory=dict)


def convective_fluxes(state: FieldState, mesh: Mesh1D, bspec: BoundarySpec,
                      eos: EosSpec, cfg: SolverConfig):
    """Per-face upwind fluxes (mass, momentum, energy), x-direction.

    Energy transports rho e_delta.  Inflow faces donate (rho_b, u_b,
    interior theta); outflow faces donate interior traces; the returned
    energy flux is purely convective (the stage's face pass replaces it on
    inflow faces and walls).  Returns (f_mass, f_mom, f_energy, u_face, pad),
    ``pad`` being the :class:`StageFields` the fluxes were built from: every
    closure of a stage is evaluated here, once, on the ghost-padded arrays.
    """
    rho_p, u_p, theta_p = _ghosts(state, bspec)
    n = mesh.n_cells
    u_face = 0.5 * (u_p[:-1] + u_p[1:])
    u_face[0] = bspec.left.u_b
    u_face[-1] = bspec.right.u_b

    p_p, e_p, s_p = stage_closures(eos, rho_p, theta_p)
    e_p = cfg._energy_delta(e_p, theta_p)
    pad = StageFields(rho=rho_p, u=u_p, theta=theta_p, p=p_p, e=e_p,
                      s=cfg._entropy_delta(s_p, theta_p), w=rho_p * e_p)

    take_left = u_face >= 0.0
    rho_up = np.where(take_left, rho_p[:-1], rho_p[1:])
    u_up = np.where(take_left, u_p[:-1], u_p[1:])
    w_up = np.where(take_left, pad.w[:-1], pad.w[1:])

    f_mass = rho_up * u_face
    f_mom = f_mass * u_up
    f_energy = w_up * u_face
    assert f_mass.shape == (n + 1,)
    return f_mass, f_mom, f_energy, u_face, pad


def _stage_rhs(mesh: Mesh1D, eos: EosSpec, ts: TransportSpec, cfg: SolverConfig,
               bspec: BoundarySpec, t: float, state: FieldState):
    """One right-hand-side evaluation; returns (drho, dm, dW, StageRecord)."""
    n = mesh.n_cells
    h = mesh.h
    rho, u, theta = state.rho, state.u, state.theta
    f_mass, f_mom, f_energy, u_face, pad = convective_fluxes(state, mesh, bspec, eos, cfg)
    u_p, theta_p = pad.u, pad.theta

    # face-centered diffusive pieces
    theta_face = 0.5 * (theta_p[:-1] + theta_p[1:])
    du_face = (u_p[1:] - u_p[:-1]) / h
    dth_face = (theta_p[1:] - theta_p[:-1]) / h
    stress_face = viscous_stress(ts, cfg, theta_face, du_face)
    q_face = heat_flux(ts, cfg, theta_face, dth_face)
    q_face[0] = 0.0
    q_face[-1] = 0.0  # insulation on walls/outflow; inflow handled via F_ib

    # cell pressures and face averages (ghost-padded)
    p_delta_p = pad.p
    if cfg.delta > 0.0:
        p_delta_p = pad.p + cfg.delta * (pad.rho ** cfg.Gamma + pad.rho ** 2)
    p_face = 0.5 * (p_delta_p[:-1] + p_delta_p[1:])

    # interior mass diffusion (x-direction fluxes); the face pass sets the ends
    diff_mass = np.zeros(n + 1)
    if cfg.epsilon > 0.0:
        diff_mass[1:-1] = -cfg.epsilon * (rho[1:] - rho[:-1]) / h
    e_flux = f_energy + q_face

    # g = e_delta/theta - s_delta + p/(rho theta) per cell
    p_cell = pad.p[1:-1]
    g_cell = pad.e[1:-1] / theta - pad.s[1:-1] + p_cell / (rho * theta)

    # the face pass: i (0 left, -1 right) indexes the face arrays, the cells
    # and the ghosts of ``pad``; boundary integrands are outward-normal values;
    # outflow keeps the convective trace and the zero heat flux in place
    sc = dict.fromkeys(
        ("mass_in_conv", "mass_out_conv", "mass_robin", "energy_bdry_in",
         "energy_out_conv", "energy_out_delta", "energy_in_gamma_breg",
         "energy_in_rho_sq", "energy_in_rho_b_gamma", "entropy_out_conv", "entropy_in",
         "entropy_in_robin", "apriori_in_coercive", "apriori_out_ballistic"), 0.0)
    gm = cfg.Gamma
    for f, i in ((bspec.left, 0), (bspec.right, -1)):
        udn = f.u_dot_n
        th = pad.theta[i]
        if f.kind is FaceKind.IN:
            rb, rc = f.rho_b, rho[i]
            e_flux[i] = f.normal * f.F_ib
            sc["mass_in_conv"] += rb * udn
            sc["energy_bdry_in"] += f.F_ib
            sc["energy_in_gamma_breg"] += (rb ** gm / (gm - 1.0)
                                           - gm / (gm - 1.0) * rc ** (gm - 1.0) * (rb - rc)
                                           - rc ** gm / (gm - 1.0)) * udn
            sc["energy_in_rho_sq"] += (rc - rb) ** 2 * udn
            sc["energy_in_rho_b_gamma"] += rb ** gm / (gm - 1.0) * udn
            sc["entropy_in"] += -f.F_ib / th + (pad.e[i] / th - pad.s[i]) * rb * udn
            if cfg.epsilon > 0.0:
                # the Robin mass flux enters the mass balance and carries
                # g with it; without this term the production would depend
                # on the additive entropy gauge
                robin = (rb - rc) * udn
                diff_mass[i] = f.normal * robin
                sc["mass_robin"] += robin
                sc["entropy_in_robin"] += g_cell[i] * robin
            sc["apriori_in_coercive"] += 1.0 / th + th ** 3 * abs(udn)
        elif f.kind is FaceKind.OUT:
            rc, e_del, s_del = pad.rho[i], pad.e[i], pad.s[i]
            sc["mass_out_conv"] += rc * udn
            sc["energy_out_conv"] += rc * e_del * udn
            sc["energy_out_delta"] += (rc ** gm / (gm - 1.0) + rc ** 2) * udn
            sc["entropy_out_conv"] += rc * s_del * udn
            sc["apriori_out_ballistic"] += rc * (e_del - cfg.theta_bar * s_del) * udn
        else:
            e_flux[i] = 0.0  # insulated wall

    mass_flux = f_mass + diff_mass
    sc["mass_bdry"] = -mass_flux[0] + mass_flux[-1]
    sc["energy_bdry_total"] = -e_flux[0] + e_flux[-1]

    drho = -(mass_flux[1:] - mass_flux[:-1]) / h
    dm = (-(f_mom[1:] - f_mom[:-1]) / h
          - (p_face[1:] - p_face[:-1]) / h
          + (stress_face[1:] - stress_face[:-1]) / h)

    x = mesh.centers
    g = cfg.body_force(t, x)
    dm = dm + rho * g

    grad_rho_c = (pad.rho[2:] - pad.rho[:-2]) / (2.0 * h)
    if cfg.epsilon > 0.0:
        grad_u_c = (u_p[2:] - u_p[:-2]) / (2.0 * h)
        dm = dm - cfg.epsilon * grad_rho_c * grad_u_c

    # internal energy sources
    div_u = (u_face[1:] - u_face[:-1]) / h
    p_div_u = p_cell * div_u
    diss_cell = 0.5 * (stress_face[:-1] * du_face[:-1] + stress_face[1:] * du_face[1:])
    heat_diss_cell = -0.5 * (q_face[:-1] * dth_face[:-1] + q_face[1:] * dth_face[1:])
    grad_rho_sq = grad_rho_c ** 2
    grad_rho_coeff = cfg.Gamma * rho ** (cfg.Gamma - 2.0) + 2.0
    source = diss_cell - p_div_u
    mms = None
    if cfg.energy_source is not None:
        mms = np.asarray(cfg.energy_source(t, x), dtype=float) * np.ones_like(x)
        source = source + mms
    if cfg.delta > 0.0:
        source = source + cfg.delta / theta ** 2
        if cfg.epsilon > 0.0:
            source = source + cfg.epsilon * cfg.delta * grad_rho_coeff * grad_rho_sq
    if cfg.epsilon > 0.0:
        source = source - cfg.epsilon * theta ** 5

    dW = -(e_flux[1:] - e_flux[:-1]) / h + source

    # volume integrands in record order; None marks a term that vanishes
    inv_theta = 1.0 / theta
    # (1/theta)(S:grad u - q.grad theta/theta): the heat part carries 1/theta^2
    diss_weighted = inv_theta * diss_cell + inv_theta ** 2 * heat_diss_cell
    vol = {"S_grad_u": diss_cell, "p_div_u": p_div_u,
           "dissipation_no_delta": diss_weighted}
    if cfg.delta > 0.0:
        diss_weighted = diss_weighted + cfg.delta * inv_theta ** 3
    vol["dissipation"] = diss_weighted
    vol["theta4"] = theta ** 4
    vol["theta5"] = theta ** 5
    vol["inv_theta2"] = inv_theta ** 2
    vol["inv_theta3"] = inv_theta ** 3
    vol["grad_rho_sq_gamma_over_theta"] = inv_theta * grad_rho_coeff * grad_rho_sq
    # epsilon-level entropy correction grad rho . grad g; g_pad repeats the ends
    g_pad = np.concatenate([g_cell[:1], g_cell, g_cell[-1:]])
    grad_g = (g_pad[2:] - g_pad[:-2]) / (2.0 * h)
    vol["grad_rho_grad_g"] = grad_rho_c * grad_g

    # total-energy budget terms built on the boundary-velocity extension
    ub_ext, grad_ub = boundary_velocity_extension(mesh, bspec)
    vol["S_grad_ub"] = vol["conv_p_grad_ub"] = vol["rho_u_grad_ub2"] = None
    if grad_ub != 0.0:
        stress_cell = 0.5 * (stress_face[:-1] + stress_face[1:])
        vol["S_grad_ub"] = stress_cell * grad_ub
        vol["conv_p_grad_ub"] = (rho * u * u + p_delta_p[1:-1]) * grad_ub
        vol["rho_u_grad_ub2"] = rho * u * 2.0 * ub_ext * grad_ub
    vol["rho_g_rel_u"] = rho * g * (u - ub_ext)
    vol["eps_mom_ub"] = (grad_rho_c * (grad_u_c - grad_ub) * ub_ext
                         if cfg.epsilon > 0.0 else None)
    vol["mms_energy_source"] = mms
    vol["mms_energy_source_over_theta"] = None if mms is None else mms / theta

    # one reduction: row sums times h are the Mesh1D.integrate quadrature
    sums = iter((np.stack([v for v in vol.values() if v is not None]).sum(axis=1) * h).tolist())
    sc.update((k, 0.0 if v is None else next(sums)) for k, v in vol.items())

    cells = {"w": pad.w[1:-1], "dissipation": diss_cell, "p_div_u": p_div_u}
    return drho, dm, dW, StageRecord(scalars=sc, cells=cells)


# ---------------------------------------------------------------------------
# temperature recovery and the forward-Euler stage
# ---------------------------------------------------------------------------


# Newton converges quadratically here: the step after one of relative size r
# is about r^2 (per cell at most 1.17 r^2 on the box128 and channel512
# benchmark runs), so after a step below 1e-8 theta the next one would be
# about 1e-16 theta, i.e. rounding, and is not taken.
_NEWTON_LAST_STEP = 1e-8


def _reject_nonfinite(name, values):
    finite = np.isfinite(values)
    if not finite.all():
        raise StepRejected(
            f"{name} is not finite at cell {int(np.flatnonzero(~finite)[0])}")


def _recover_theta(eos: EosSpec, cfg: SolverConfig, rho, w, theta_guess):
    """Invert rho e_delta(rho, theta) = w per cell; Newton with robust fallback."""
    _reject_nonfinite("density", rho)
    if not (rho >= cfg.rho_floor).all():
        raise StepRejected("density fell below its floor")
    _reject_nonfinite("energy density", w)
    theta = np.asarray(theta_guess, dtype=float)
    # the 0.1 theta damping keeps a positive guess positive
    if (theta <= 0.0).any():
        raise EosDomainError("temperature must be positive")
    residual = energy_density_residual(eos, rho, w, cfg.delta)
    for _ in range(40):
        f, df = residual(theta)
        step = f / df
        theta_new = theta - step
        damped = 0.1 * theta
        theta = np.where(theta_new > damped, theta_new, damped)
        if np.max(np.abs(step) / (theta + 1e-300)) < _NEWTON_LAST_STEP:
            break
    f = rho * cfg.internal_energy(eos, rho, theta) - w
    # a NaN residual is bad too
    bad = ~(np.abs(f) <= 1e-9 * (np.abs(w) + 1.0))
    if np.any(bad):
        try:
            theta_fb = temperature_from_energy_density(
                eos, rho[bad], w[bad], delta=cfg.delta)
        except OutOfDomainError as err:
            raise StepRejected(f"temperature recovery failed: {err}") from None
        theta[bad] = theta_fb
    if not (theta >= cfg.theta_floor).all():
        raise StepRejected("temperature fell below its floor")
    return theta


def _primitive(eos: EosSpec, cfg: SolverConfig, rho, m, w, theta_guess):
    theta = _recover_theta(eos, cfg, rho, w, theta_guess)
    return FieldState(rho=rho, u=m / rho, theta=theta)


def euler_step(state: FieldState, mesh: Mesh1D, eos: EosSpec, ts: TransportSpec,
               cfg: SolverConfig, bspec: BoundarySpec, dt: float, t: float = 0.0):
    """One forward-Euler stage; returns the new (rho, m, theta).

    theta is recovered at the frozen density ``state.rho``: it is the
    temperature update of the energy balance with (rho, u) held fixed.
    """
    drho, dm, dW, rec = _stage_rhs(mesh, eos, ts, cfg, bspec, t, state)
    rho = state.rho + dt * drho
    if not (rho >= cfg.rho_floor).all():
        raise StepRejected("density fell below its floor")
    theta = _recover_theta(eos, cfg, state.rho, rec.cells["w"] + dt * dW, state.theta)
    return rho, state.rho * state.u + dt * dm, theta


def stable_dt(state: FieldState, mesh: Mesh1D, eos: EosSpec, ts: TransportSpec,
              cfg: SolverConfig) -> float:
    """CFL-limited step from acoustic, viscous, thermal and mass diffusion.

    The sound speed and de/dtheta come from one EOS pass."""
    rho, u, theta = state.rho, state.u, state.theta
    h = mesh.h
    cs2, e_theta = sound_speed_sq_and_energy_slope(eos, rho, theta)
    dt_a = h / np.max(np.abs(u) + np.sqrt(cs2))
    nu = cfg.viscosity(ts, theta) / rho
    chi = cfg.conductivity(ts, theta) / (rho * (e_theta + cfg.delta))
    dt_nu = h * h / (2.0 * max(np.max(nu), 1e-300))
    dt_chi = h * h / (2.0 * max(np.max(chi), 1e-300))
    dt = min(dt_a, dt_nu, dt_chi)
    if cfg.epsilon > 0.0:
        dt = min(dt, h * h / (2.0 * cfg.epsilon))
    return cfg.cfl * float(dt)


def _heun_step(mesh, eos, ts, cfg, bspec, t, state, dt, stage1):
    """One SSP-RK2 step from ``stage1`` = _stage_rhs at (t, state), which does
    not depend on dt; returns (new_state, averaged accumulator increments)."""
    d1rho, d1m, d1w, rec1 = stage1
    rho0, m0, w0 = state.rho, state.rho * state.u, rec1.cells["w"]
    st1 = _primitive(eos, cfg, rho0 + dt * d1rho, m0 + dt * d1m, w0 + dt * d1w,
                     state.theta)
    d2rho, d2m, d2w, rec2 = _stage_rhs(mesh, eos, ts, cfg, bspec, t + dt, st1)
    rho_n = rho0 + 0.5 * dt * (d1rho + d2rho)
    m_n = m0 + 0.5 * dt * (d1m + d2m)
    w_n = w0 + 0.5 * dt * (d1w + d2w)
    new_state = _primitive(eos, cfg, rho_n, m_n, w_n, st1.theta)
    inc = {k: 0.5 * dt * (rec1.scalars[k] + rec2.scalars[k]) for k in rec1.scalars}
    return new_state, inc


def step(state: FieldState, mesh: Mesh1D, eos: EosSpec, ts: TransportSpec,
         cfg: SolverConfig, bspec: BoundarySpec, dt: float, t: float = 0.0):
    """One adaptive SSP-RK2 step; halves dt on rejection (up to max_rejects).

    Returns (new_state, dt_used, accumulator_increments, n_rejects).  A
    non-finite start state aborts at once, naming the field and first bad cell.
    """
    for name in ("rho", "u", "theta"):
        values = getattr(state, name)
        if not np.isfinite(values).all():
            cell = int(np.flatnonzero(~np.isfinite(values))[0])
            raise RunAborted(f"step at t={t:.6g}: {name} is not finite at cell {cell} "
                             f"({values[cell]}); diagnostic state attached", state=state)
    stage1 = _stage_rhs(mesh, eos, ts, cfg, bspec, t, state)
    rejects = 0
    while True:
        try:
            new_state, inc = _heun_step(mesh, eos, ts, cfg, bspec, t, state, dt, stage1)
            return new_state, dt, inc, rejects
        except StepRejected as err:
            rejects += 1
            if rejects > cfg.max_rejects:
                raise RunAborted(
                    f"step at t={t:.6g} rejected {rejects} times (last: {err}); "
                    "diagnostic state attached", state=state) from None
            dt *= 0.5


@dataclass
class Trajectory:
    """States and cumulative budget integrals recorded along a run."""

    mesh: Mesh1D
    eos: EosSpec
    transport: TransportSpec
    config: SolverConfig
    boundary: BoundarySpec
    times: list
    states: list
    accums: list
    n_steps: int = 0
    n_rejects: int = 0
    label: str = ""

    def state_at(self, t: float) -> FieldState:
        idx = self._index(t)
        return self.states[idx]

    def accum_at(self, t: float) -> dict:
        return self.accums[self._index(t)]

    def _index(self, t: float) -> int:
        """Index of the recorded time nearest t (the lower one on a tie)."""
        times = self.times
        idx = bisect.bisect_left(times, t)
        if idx == len(times) or (idx > 0 and t - times[idx - 1] <= times[idx] - t):
            idx -= 1
        if abs(times[idx] - t) > 1e-9 * (1.0 + abs(t)):
            raise KeyError(f"time {t} not recorded (have {list(times)})")
        return idx

    @property
    def final_state(self) -> FieldState:
        return self.states[-1]


def run(mesh: Mesh1D, eos: EosSpec, ts: TransportSpec, cfg: SolverConfig,
        bspec: BoundarySpec, initial: FieldState, output_times=None,
        label: str = "") -> Trajectory:
    """Integrate to t_end, recording states and cumulative boundary integrals.

    ``output_times`` defaults to {0, t_end}; the stepper lands on each output
    instant exactly.  On abort the partial trajectory is attached to the
    raised :class:`RunAborted`.
    """
    if output_times is None:
        output_times = [0.0, cfg.t_end]
    outs = sorted(set(float(t) for t in output_times) | {0.0, float(cfg.t_end)})
    if outs[-1] > cfg.t_end + 1e-12:
        raise ValueError("output times beyond t_end")

    state = initial.copy()
    for name in ("rho", "u", "theta"):
        n_bad = int(np.sum(~np.isfinite(getattr(state, name))))
        if n_bad:
            raise ValueError(f"initial {name} is not finite in {n_bad} of "
                             f"{mesh.n_cells} cells")
    if np.any(state.rho < cfg.rho_floor) or np.any(state.theta < cfg.theta_floor):
        raise ValueError("initial data violates the positivity floors")

    acc = None
    traj = Trajectory(mesh=mesh, eos=eos, transport=ts, config=cfg, boundary=bspec,
                      times=[0.0], states=[state.copy()], accums=[{}], label=label)

    t = 0.0
    out_idx = 1 if outs[0] == 0.0 else 0
    while out_idx < len(outs):
        target = outs[out_idx]
        while t < target - 1e-14 * (1.0 + target):
            dt = min(stable_dt(state, mesh, eos, ts, cfg), target - t)
            try:
                state, dt_used, inc, rej = step(state, mesh, eos, ts, cfg, bspec, dt, t=t)
            except RunAborted as err:
                err.trajectory = traj
                raise
            if acc is None:
                acc = dict(inc)
            else:
                for k, v in inc.items():
                    acc[k] += v
            traj.n_steps += 1
            traj.n_rejects += rej
            if dt_used == dt and target - (t + dt) < 1e-14 * (1.0 + target):
                t = target
            else:
                t += dt_used
        traj.times.append(target)
        traj.states.append(state.copy())
        traj.accums.append(dict(acc) if acc else {})
        out_idx += 1
    return traj
