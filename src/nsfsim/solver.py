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

Setting epsilon = delta = 0 recovers the target system.

Time stepping is a two-stage strong-stability-preserving Runge-Kutta pair
for every term but the stress and the heat flux, which are implicit.  A
stage H evaluates the convective fluxes, the face pressure, the boundary
rules, mass diffusion and the sources.  The predictor forms
U1 = U0 + dt H(U0), recovers theta1 from its energy density, and evaluates
H at U1.  From the predictor's (rho1, m1, theta1) two backward-Euler solves
follow, with the coefficients frozen on the faces at the step's start
temperature: rho1 u - dt d/dx(nu du/dx) = m1 for the velocity, with the
velocity ghost rule of the stage (wall 2 u_b - u, inflow u_b, outflow the
trace), and C (theta_l - theta1) - dt d/dx(kappa dtheta_l/dx) = dt S:grad u
for the temperature, with both end faces insulated and the heat capacity
C = d(rho e_delta)/dtheta the last Newton slope of the predictor's
recovery.  The corrector averages H at U0 and U1 and adds the solves'
increments with full weight: the momentum rho1 u - m1 and the energy
dt S:grad u + dt d/dx(kappa dtheta_l/dx), in flux form, so the energy
telescopes.  The corrector's state minus those increments is thus the
SSP-RK2 step of H alone; the entropy the implicit increments add is at
least their energy over the new temperature (s is concave), which is what
the step books.  Neither implicit term sets a step limit: ``stable_dt``
takes the acoustic and mass-diffusion limits.  A stage that loses
positivity (density or temperature floors, or a temperature recovery whose
Newton iteration did not converge) halves dt and retries.

Both implicit systems are symmetric positive definite and tridiagonal and
share one assembly, which lays the diagonal, the off-diagonal and the
right-hand side out in one buffer.  LAPACK ``dptsv`` solves them in place
there, from the library that ``numpy.linalg`` has already loaded, bound
once through ``ctypes``; where no such symbol is found, a pure-Python LDL^T
sweep in the same order of operations does.

Each stage pads the state with one ghost cell per side, filling one new
array per field, and makes one pass of ``thermo._stage_closures``, the
core of ``stage_closures`` with no domain check, for (p, e_delta) on the
padded arrays, with the weight delta of the configuration: the delta terms
of e and s are formed there, in :mod:`nsfsim.thermo`, and nowhere here.
The pass evaluates s_delta only where it is read: by the inflow and
outflow face terms, and at epsilon > 0 by the entropy variable g.  A stage
with two walls at epsilon = 0 forms no S.  Fluxes, sources and the budget
record all read that one evaluation; the upwind donors are picked by
index, from the sign of each face velocity.  The first stage's pass also
has slopes: the sound speed, from which ``run`` takes the dt of
``stable_dt`` with no pass of its own, and w_rho = d(rho e_delta)/drho and
w_theta = d(rho e_delta)/dtheta.  The implicit solves freeze their
coefficients at the first stage's face temperatures, so the second stage
forms none.  One pass over the two faces, on Python floats, then books the
other boundary rules: the F_ib and wall energy fluxes, the Robin inflow
mass flux and the boundary budget integrands.  The stage's volume
integrands are stacked into one (K, n) array and reduced once.  The first
stage of a step is evaluated once and reused by rejected attempts.  The temperature recovery builds its
energy-density residual once per solve; a Newton iterate makes no EOS call
on the iconic shape, and on a table one (P, P_theta) evaluation from the
spline pieces the table kept from its last pass on n cells, located again
only when some Z leaves its piece (on smooth data, a few times per run).
Newton stops after its first step below 1e-8 theta, since quadratic
convergence leaves only rounding for the next, and the recovery is checked
by the residual's value alone.  Both recoveries start from a linearised
guess that makes no EOS call: the predictor's theta^n
+ (w1 - w^n - w_rho (rho1 - rho^n)) / w_theta, the corrector's theta_l
+ (w_n - (w1 + dw) - w_rho (rho_n - rho1)) / C with the first stage's
w_rho, since rho_n - rho1 is O(dt^2); each takes two Newton evaluations on
smooth data.  A step thus makes four EOS passes: two stage passes and two
residual builds.
``euler_step`` has no density change to follow: its stage pass has no
slopes, and its first recovery starts from theta^n.  Every
budget-relevant face flux and volume integrand is accumulated during the
run with the same weights as the update itself: the stage terms with the
stage weights, the implicit terms with weight dt (the entropy terms at the
step's end temperature, the heat term summed by parts), each written here
once with its epsilon or delta weight.  Every stage record, step increment
and trajectory record holds every row of ``BUDGET_ROWS``, in its order, the
first trajectory record being zero; a row whose weight is zero reads 0.0,
and no array work forms it.  The discrete mass identity thus telescopes to
rounding, and the audits in :mod:`nsfsim.budgets` separate scheme error
from quadrature error.  A step plan, cached per (mesh, boundary) pair,
holds what steps and audits read of the two; ``run``, ``step`` and
``euler_step`` look it up once per call, and ``run`` hands its plan to each
step.

``run``, ``step`` and ``euler_step`` each make numpy's overflow,
invalid-operation and division flags raise once, for the whole call,
through the module constant ``_RAISE``; a step of ``run`` sets no flag of
its own.  The operation that would make a value that is not finite then
raises, and one guard, :func:`_guarded`, around every attempt of a step,
each step's first stage and ``euler_step``, turns that into a rejection
with numpy's message; a first stage that rejects aborts the run before any
attempt.  From finite data a step's numpy arithmetic thus makes only finite
values, so ``run`` checks its initial data and no state after, and each
other check is made once, on the array it tests, where that is made: the
predictor's rho1 and the corrector's rho_n against the density floor, each
linearised guess's minimum, each recovery's residual and temperature
floor, and the implicit solves' solutions.  The stage passes and the
residual builds check no domain of their own.  Three checks remain where
no flag is set: on the ``dptsv`` solutions, since LAPACK runs outside
numpy's flag checks; on the values of a callable g and energy source, since
a NaN a callable returns spreads without a flag; and on the start state of
``euler_step`` and of a ``step`` called without its first stage, which must
be finite and above both floors.  Python-float arithmetic sets no flag
either: a ``**`` that overflows raises ``OverflowError``, which the guard
maps too, but a product or sum rounds to inf silently.  So ``run`` tests
its dt in each first stage, before any attempt: a dt at which t_end lies
more than ``MAX_STEPS`` steps away (0 among them, which the epsilon limit
h^2/(2 epsilon) is above epsilon of about 9e307, where 2 epsilon rounds to
inf), or one that is not finite or does not advance t, aborts the run;
``step`` and ``euler_step`` refuse the latter before their stage too.  The
face pass sums three such terms over the two faces: F_ib
(``energy_bdry_in``), rho_b u_b.n (``mass_in_conv``) and delta
rho_b^Gamma/(Gamma - 1) u_b.n (``delta_energy_in_rho_b_gamma``); the step's
increments and ``run``'s running sums of every row are Python floats too.
Any of them can round to inf, but only at values near the largest float
(about 1.8e308).
The stage forms the F_ib sum again in numpy as ``energy_bdry_total``, and
rho_b u_b and delta rho_b^Gamma as the inflow face's mass flux and
pressure, where an overflow raises.  The products with u_b.n, their sum
over the two faces and the step's and the run's sums have no such twin; in
the cases tried through the API with F_ib, rho_b u_b or delta rho_b^Gamma
near that limit, numpy's arithmetic overflowed first and the step was
rejected under its name.
"""

from __future__ import annotations

import bisect
import contextlib
import ctypes
import functools
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from .boundary import BoundarySpec, FaceKind
from .mesh import Mesh1D
from .thermo import (EosSpec, TransportSpec, _energy_density_rho_slope, _stage_closures,
                     energy_density_residual, sound_speed_sq)


class StepRejected(Exception):
    """A stage lost positivity; retry with a smaller dt."""


class RunAborted(RuntimeError):
    """A step that cannot be taken (too many consecutive rejections, a first
    stage that rejects, or a start state that is not finite); carries the
    partial trajectory."""

    def __init__(self, message, state=None):
        super().__init__(message)
        self.trajectory = None  # ``run`` attaches it
        self.state = state


# Positivity floors of density and temperature, consecutive rejections a
# step may take before the run aborts, the steps a run may need to reach
# t_end at its dt, and the reference temperature of the a priori energy
# bound.
RHO_FLOOR = THETA_FLOOR = 1e-10
MAX_REJECTS = 20
MAX_STEPS = 10 ** 9
THETA_BAR = 1.0

# numpy's floating-point flags under which run, step and euler_step compute
_RAISE = dict(over="raise", invalid="raise", divide="raise")

# The rows of every budget record, in record order: the face pass's
# boundary integrands, then the volume integrals
BUDGET_ROWS = (
    "mass_in_conv", "mass_out_conv", "mass_robin", "energy_bdry_in", "energy_out_conv",
    "entropy_out_conv", "entropy_in", "entropy_in_robin", "apriori_in_coercive",
    "apriori_out_ballistic", "delta_energy_out", "delta_energy_in_gamma_breg",
    "delta_energy_in_rho_sq", "delta_energy_in_rho_b_gamma", "mass_bdry", "energy_bdry_total",
    "dissipation_no_delta", "S_grad_ub", "conv_p_grad_ub", "rho_u_grad_ub2", "rho_g_rel_u",
    "eps_mom_ub", "eps_grad_rho_grad_g", "mms_energy_source", "mms_energy_source_over_theta",
    "delta_heating", "delta_heating_over_theta", "eps_delta_grad_rho_heating_over_theta",
    "eps_radiation", "eps_radiation_over_theta")


@dataclass(frozen=True)
class SolverConfig:
    """Regularization levels, stress dimension factor, and stepping control."""

    epsilon: float = 0.0
    delta: float = 0.0
    Gamma: float = 4.0
    d: int = 3
    cfl: float = 0.4
    t_end: float = 1.0
    g: Union[float, Callable] = 0.0
    energy_source: Optional[Callable] = None

    def __post_init__(self):
        for name in ("epsilon", "delta", "Gamma", "t_end"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
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
        if not (callable(self.g) or isinstance(self.g, numbers.Real)):
            raise ValueError(f"g must be a number or a callable g(t, x), got {self.g!r}")
        if not (callable(self.g) or math.isfinite(self.g)):
            raise ValueError(f"g must be finite, got {self.g}")

    def body_force(self, t: float, x: np.ndarray):
        """g at the cell centers x: an array for a callable g, else the float
        itself, which broadcasts to the same values.  A callable's value
        that is not finite rejects the step (:class:`StepRejected`)."""
        if callable(self.g):
            return _cell_values("g", self.g, t, x)
        return float(self.g)

    @property
    def deviatoric_factor(self) -> float:
        return 2.0 * (1.0 - 1.0 / self.d)

    def viscosity(self, ts: TransportSpec, theta):
        """1D normal viscosity (mu + delta theta) 2(1 - 1/d) + eta; a zero
        delta or eta scale forms no term."""
        nu = ts.mu(theta)
        if self.delta > 0.0:
            nu = nu + self.delta * theta
        nu = nu * self.deviatoric_factor
        if ts.eta_scale > 0.0:
            nu = nu + ts.eta(theta)
        return nu

    def conductivity(self, ts: TransportSpec, theta):
        """Regularized conductivity kappa + delta (theta^Gamma + 1/theta)."""
        cond = ts.kappa(theta)
        if self.delta > 0.0:
            cond = cond + self.delta * (theta ** self.Gamma + 1.0 / theta)
        return cond

    def delta_pressure_potential(self, rho):
        """rho^Gamma/(Gamma - 1) + rho^2, whose delta multiple stores the delta-pressure."""
        return rho ** self.Gamma / (self.Gamma - 1.0) + rho ** 2


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
        # the constructor copies each field
        return FieldState(self.rho, self.u, self.theta)


def _new_state(rho, u, theta) -> FieldState:
    """A FieldState of float arrays the caller has just allocated, without
    the copies of the constructor."""
    state = object.__new__(FieldState)
    vars(state).update(rho=rho, u=u, theta=theta)
    return state


# (a, b) ghost rules: the ghost value is a + b x for the trace x
_TRACE = (0.0, 1.0)


def _ghost_velocity(f) -> tuple:
    """The ghost rule of the velocity: the prescribed u_b on inflow, the
    trace on outflow, the reflection 2 u_b - u on walls."""
    if f.kind is FaceKind.IN:
        return f.u_b, 0.0
    if f.kind is FaceKind.OUT:
        return _TRACE
    return 2.0 * f.u_b, -1.0


@dataclass(frozen=True)
class _StepPlan:
    """What a step reads of (mesh, boundary): the cell width ``h`` and the
    centers ``x``, the linear interior extension ``ub_ext`` of the boundary
    velocity (read-only) and its gradient, the velocity and density ghost
    rules (rho_b on inflow, else the trace), the end faces as (face, cell
    index, u_b . n), whether one of them is an inflow or outflow face, whose
    terms read the entropy, and ``right``, the padded index 1, ..., n + 1 of
    the right neighbour of each face."""

    h: float
    x: np.ndarray
    ub_ext: np.ndarray
    grad_ub: float
    u_ghosts: tuple
    rho_ghosts: tuple
    faces: tuple
    open: bool
    right: np.ndarray


@functools.lru_cache(maxsize=16)
def _step_plan(mesh: Mesh1D, bspec: BoundarySpec) -> _StepPlan:
    """The step plan of (mesh, bspec), built once per pair."""
    ends = ((bspec.left, 0), (bspec.right, -1))
    x = mesh.centers
    grad = (bspec.right.u_b - bspec.left.u_b) / mesh.measure
    ext = bspec.left.u_b + grad * (x - mesh.x_left)
    ext.flags.writeable = False
    return _StepPlan(h=mesh.h, x=x, ub_ext=ext, grad_ub=grad,
                     u_ghosts=tuple(_ghost_velocity(f) for f, _ in ends),
                     rho_ghosts=tuple((f.rho_b, 0.0) if f.kind is FaceKind.IN else _TRACE
                                      for f, _ in ends),
                     faces=tuple((f, i, f.u_dot_n) for f, i in ends),
                     open=any(f.kind is not FaceKind.WALL for f, _ in ends),
                     right=np.arange(1, mesh.n_cells + 2))


def _padded(ghosts, x):
    """``x`` with the ghost value of each end face's rule on its side; the
    trace rule copies the end value."""
    left, right = ghosts
    out = np.empty(x.size + 2)
    out[0] = x[0] if left is _TRACE else left[0] + left[1] * x[0]
    out[1:-1] = x
    out[-1] = x[-1] if right is _TRACE else right[0] + right[1] * x[-1]
    return out


def _ghosts(state: FieldState, plan: _StepPlan):
    """One ghost layer per side following the face class; theta takes the trace."""
    return (_padded(plan.rho_ghosts, state.rho), _padded(plan.u_ghosts, state.u),
            _padded((_TRACE, _TRACE), state.theta))


class StageFields(NamedTuple):
    """Ghost-padded fields of one stage and the closures evaluated on them.

    Entries [0] and [-1] are the ghosts of the left and right faces (the
    inflow data, or the interior trace), entries [1:-1] are the cells.
    ``e`` and ``s`` are the regularized e_delta and s_delta, ``w`` is the
    energy density rho e_delta; ``s`` is None on a stage that reads no
    entropy (two walls at epsilon = 0).  A pass with slopes also holds the
    sound speed squared ``c2`` and the slopes ``w_rho`` = d(rho e_delta)/drho
    and ``w_theta`` = d(rho e_delta)/dtheta; without, they are None.
    """

    rho: np.ndarray
    u: np.ndarray
    theta: np.ndarray
    p: np.ndarray
    e: np.ndarray
    s: Optional[np.ndarray]
    w: np.ndarray
    c2: Optional[np.ndarray] = None
    w_rho: Optional[np.ndarray] = None
    w_theta: Optional[np.ndarray] = None


class StageRecord(NamedTuple):
    """Named budget integrands of one RHS evaluation and two cell arrays.

    ``scalars`` hold instantaneous rates (volume and boundary integrals),
    each with its epsilon or delta weight; time-weighted sums of them
    reproduce the scheme's own updates exactly.  ``w`` is the energy density
    the stage started from, ``theta_face`` the face temperatures (the step
    freezes the viscosity and the conductivity there), None on a stage that
    forms none.  A stage with slopes also keeps the cells of its ``c2``,
    ``w_rho`` and ``w_theta``.
    """

    scalars: dict
    w: np.ndarray
    theta_face: Optional[np.ndarray]
    c2: Optional[np.ndarray] = None
    w_rho: Optional[np.ndarray] = None
    w_theta: Optional[np.ndarray] = None


def convective_fluxes(state: FieldState, mesh: Mesh1D, bspec: BoundarySpec,
                      eos: EosSpec, cfg: SolverConfig, slopes: bool = False):
    """Per-face upwind fluxes (mass, momentum, energy), x-direction.

    Energy transports rho e_delta.  Inflow faces donate (rho_b, u_b,
    interior theta); outflow faces donate interior traces; the returned
    energy flux is purely convective (the stage's face pass replaces it on
    inflow faces and walls).  Returns (f_mass, f_mom, f_energy, u_face, pad),
    ``pad`` being the :class:`StageFields` the fluxes were built from: every
    closure of a stage is evaluated here, once, on the ghost-padded arrays,
    with ``slopes`` in a (Pi, Pi_rho, Pi_theta, S) pass that also gives the
    sound speed and the slopes of rho e_delta.  S is evaluated only where an
    inflow or outflow face or epsilon > 0 reads it.  ``bspec`` may also be
    the step plan of (mesh, bspec), as a stage passes.
    """
    plan = bspec if isinstance(bspec, _StepPlan) else _step_plan(mesh, bspec)
    rho_p, u_p, theta_p = _ghosts(state, plan)
    n = mesh.n_cells
    u_face = 0.5 * (u_p[:-1] + u_p[1:])
    for f, i, _ in plan.faces:
        u_face[i] = f.u_b

    p_p, e_p, s_p, *slope_values = _stage_closures(eos, rho_p, theta_p, slopes, cfg.delta,
                                                   plan.open or cfg.epsilon > 0.0)
    # the stage keeps c^2, w_rho and w_theta; it reads no p_theta of its own
    pad = StageFields(rho_p, u_p, theta_p, p_p, e_p, s_p, rho_p * e_p, *slope_values[:3])

    # face j's donor is padded cell j where u_face >= 0, else j + 1 (so on NaN)
    donor = plan.right - (u_face >= 0.0)
    f_mass = rho_p.take(donor) * u_face
    f_mom = f_mass * u_p.take(donor)
    f_energy = pad.w.take(donor) * u_face
    assert f_mass.shape == (n + 1,)
    return f_mass, f_mom, f_energy, u_face, pad


def _stage_rhs(mesh: Mesh1D, eos: EosSpec, cfg: SolverConfig, plan: _StepPlan,
               t: float, state: FieldState, slopes: bool = True, faces: bool = True):
    """One right-hand-side evaluation; returns (drho, dm, dW, StageRecord).
    Its EOS pass has slopes unless ``slopes`` is false, and its record the
    face temperatures unless ``faces`` is false."""
    h = plan.h
    rho, u, theta = state.rho, state.u, state.theta
    f_mass, f_mom, f_energy, u_face, pad = convective_fluxes(state, mesh, plan, eos, cfg, slopes)
    # the step treats the stress and the heat flux, with coefficients frozen here
    theta_face = 0.5 * (pad.theta[:-1] + pad.theta[1:]) if faces else None

    # cell pressures and face averages (ghost-padded)
    p_delta_p = pad.p
    if cfg.delta > 0.0:
        p_delta_p = pad.p + cfg.delta * (pad.rho ** cfg.Gamma + pad.rho ** 2)
    p_face = 0.5 * (p_delta_p[:-1] + p_delta_p[1:])

    eps = cfg.epsilon
    if eps > 0.0:
        # mass diffusion (x-direction face fluxes); the face pass sets an
        # inflow end, the other ends carry none
        diff_mass = -eps * (pad.rho[1:] - pad.rho[:-1]) / h
        diff_mass[0] = diff_mass[-1] = 0.0
        # the epsilon-level entropy variable g = (e_delta - theta s_delta + p/rho)/theta
        g_cell = _energy_density_rho_slope(rho, theta, pad.p[1:-1], pad.e[1:-1],
                                           pad.s[1:-1]) / theta
    e_flux = f_energy

    # the face pass, on Python floats: i (0 left, -1 right) indexes the face
    # arrays, the cells and the ghosts of ``pad``; boundary integrands are
    # outward-normal values, the delta ones weighted; outflow keeps the
    # convective trace in place
    sc = dict.fromkeys(BUDGET_ROWS, 0.0)
    gm, dl = cfg.Gamma, cfg.delta
    for f, i, udn in plan.faces:
        if f.kind is FaceKind.IN:
            th, rb, rc = pad.theta.item(i), f.rho_b, rho.item(i)
            e_flux[i] = f.normal * f.F_ib
            sc["mass_in_conv"] += rb * udn
            sc["energy_bdry_in"] += f.F_ib
            if dl > 0.0:
                sc["delta_energy_in_gamma_breg"] += dl * (
                    rb ** gm / (gm - 1.0) - gm / (gm - 1.0) * rc ** (gm - 1.0) * (rb - rc)
                    - rc ** gm / (gm - 1.0)) * udn
                sc["delta_energy_in_rho_sq"] += dl * (rc - rb) ** 2 * udn
                sc["delta_energy_in_rho_b_gamma"] += dl * rb ** gm / (gm - 1.0) * udn
            sc["entropy_in"] += -f.F_ib / th + (pad.e.item(i) / th - pad.s.item(i)) * rb * udn
            if eps > 0.0:
                # the Robin mass flux enters the mass balance and carries
                # g with it; without this term the production would depend
                # on the additive entropy gauge
                robin = (rb - rc) * udn
                diff_mass[i] = f.normal * robin
                sc["mass_robin"] += robin
                sc["entropy_in_robin"] += g_cell.item(i) * robin
            sc["apriori_in_coercive"] += 1.0 / th + th ** 3 * abs(udn)
        elif f.kind is FaceKind.OUT:
            rc, e_del, s_del = pad.rho.item(i), pad.e.item(i), pad.s.item(i)
            sc["mass_out_conv"] += rc * udn
            sc["energy_out_conv"] += rc * e_del * udn
            if dl > 0.0:
                sc["delta_energy_out"] += dl * cfg.delta_pressure_potential(rc) * udn
            sc["entropy_out_conv"] += rc * s_del * udn
            sc["apriori_out_ballistic"] += rc * (e_del - THETA_BAR * s_del) * udn
        else:
            e_flux[i] = 0.0  # insulated wall

    mass_flux = f_mass + diff_mass if eps > 0.0 else f_mass
    sc["mass_bdry"] = mass_flux.item(-1) - mass_flux.item(0)
    sc["energy_bdry_total"] = e_flux.item(-1) - e_flux.item(0)

    drho = (mass_flux[:-1] - mass_flux[1:]) / h
    dm = (f_mom[:-1] - f_mom[1:]) / h - (p_face[1:] - p_face[:-1]) / h

    # volume integrands, each with its weight, where they do not vanish (the
    # step books S_grad_ub and the viscous and heat parts of the dissipation)
    x, ub_ext, grad_ub = plan.x, plan.ub_ext, plan.grad_ub
    vol = {}
    if grad_ub != 0.0:
        rho_u = rho * u
        vol["conv_p_grad_ub"] = (rho_u * u + p_delta_p[1:-1]) * grad_ub
        vol["rho_u_grad_ub2"] = rho_u * 2.0 * ub_ext * grad_ub
    if callable(cfg.g) or cfg.g != 0.0:
        rho_g = rho * cfg.body_force(t, x)
        dm = dm + rho_g
        vol["rho_g_rel_u"] = rho_g * (u - ub_ext)

    if eps > 0.0:
        grad_rho_c = (pad.rho[2:] - pad.rho[:-2]) / (2.0 * h)
        grad_u_c = (pad.u[2:] - pad.u[:-2]) / (2.0 * h)
        dm = dm - eps * grad_rho_c * grad_u_c
        vol["eps_mom_ub"] = eps * (grad_rho_c * (grad_u_c - grad_ub if grad_ub else grad_u_c)
                                   * ub_ext)
        # the entropy correction grad rho . grad g, g repeating its end cells
        g_pad = _padded((_TRACE, _TRACE), g_cell)
        grad_g = (g_pad[2:] - g_pad[:-2]) / (2.0 * h)
        vol["eps_grad_rho_grad_g"] = eps * (grad_rho_c * grad_g)

    # internal energy sources q, each booking the integral of q, q / theta or
    # both; ``source`` is their sum minus p div u
    div_u = (u_face[1:] - u_face[:-1]) / h
    p_div_u = pad.p[1:-1] * div_u
    source = None
    if cfg.energy_source is not None:
        q = _cell_values("energy source", cfg.energy_source, t, x)
        source = q - p_div_u
        vol["mms_energy_source"], vol["mms_energy_source_over_theta"] = q, q / theta
    if dl > 0.0:
        q = dl / theta ** 2
        source = q - p_div_u if source is None else source + q
        vol["delta_heating"], vol["delta_heating_over_theta"] = q, q / theta
        if eps > 0.0:
            q = eps * dl * (gm * rho ** (gm - 2.0) + 2.0) * grad_rho_c ** 2
            source = source + q
            vol["eps_delta_grad_rho_heating_over_theta"] = q / theta
    if eps > 0.0:
        q = -eps * theta ** 5
        source = q - p_div_u if source is None else source + q
        vol["eps_radiation"], vol["eps_radiation_over_theta"] = q, q / theta

    dW = (e_flux[:-1] - e_flux[1:]) / h
    dW = dW - p_div_u if source is None else dW + source

    # one reduction: row sums times h are the Mesh1D.integrate quadrature
    if vol:
        sc.update(zip(vol, (np.array(list(vol.values())).sum(axis=1) * h).tolist()))

    slope_cells = (pad.c2[1:-1], pad.w_rho[1:-1], pad.w_theta[1:-1]) if slopes else ()
    return drho, dm, dW, StageRecord(sc, pad.w[1:-1], theta_face, *slope_cells)


# ---------------------------------------------------------------------------
# the implicit viscous and conduction solves
# ---------------------------------------------------------------------------


def _ldlt_solve(d, e, b):
    """Solve the symmetric positive-definite tridiagonal system with diagonal
    ``d``, off-diagonal ``e`` and right-hand side ``b`` by an LDL^T sweep.

    Pure Python, in the order of operations of LAPACK dpttrf/dptts2: the
    reference for ``dptsv`` and the solver where no LAPACK symbol is found.
    """
    d, e, b = d.tolist(), e.tolist(), b.tolist()
    n = len(d)
    for i in range(n - 1):
        ei = e[i]
        e[i] = ei / d[i]
        d[i + 1] -= e[i] * ei
    for i in range(1, n):
        b[i] -= b[i - 1] * e[i - 1]
    b[n - 1] /= d[n - 1]
    for i in range(n - 2, -1, -1):
        b[i] = b[i] / d[i] - b[i + 1] * e[i]
    return np.array(b)


def _bind_dptsv():
    """LAPACK ``dptsv`` of the library ``numpy.linalg`` loaded, as a function
    buf -> x of the system whose d, e and b are the consecutive n, n - 1 and
    n floats of the contiguous float64 buffer ``buf``; it overwrites ``buf``
    and x is b's view.  None if absent."""
    try:
        from numpy.linalg import _umath_linalg
        lib = ctypes.CDLL(_umath_linalg.__file__)
    except (ImportError, OSError):
        return None
    # numpy's wheels bundle an ILP64 OpenBLAS with prefixed and suffixed
    # symbols; a build against an LP64 system LAPACK has the plain name
    ilp64 = bool(getattr(_umath_linalg, "_ilp64", False))
    int_t = ctypes.c_int64 if ilp64 else ctypes.c_int32
    fn = getattr(lib, "scipy_dptsv_64_" if ilp64 else "dptsv_", None)
    if fn is None:
        return None
    int_p = ctypes.POINTER(int_t)
    fn.argtypes = [int_p, int_p] + [ctypes.c_void_p] * 3 + [int_p, int_p]
    fn.restype = None
    one = int_t(1)

    def dptsv(buf):
        n = (buf.size + 1) // 3
        size, info = int_t(n), int_t(0)
        d = buf.ctypes.data  # e and b follow, 8 bytes a float
        fn(size, one, d, d + 8 * n, d + 8 * (2 * n - 1), size, info)
        if info.value != 0:
            raise StepRejected(f"implicit solve failed (dptsv info {info.value})")
        return buf[2 * n - 1:]
    return dptsv


_dptsv = _bind_dptsv()


def _diffusion_solve(mesh: Mesh1D, coeff_face, capacity, rhs, dt, ghosts):
    """x solving capacity x - dt d/dx(coeff dx/dx) = rhs, the gradients on
    the two end faces taking the ghost values of the rules ``ghosts``.

    The matrix is tridiagonal, symmetric and, for capacity > 0, positive
    definite.
    """
    n = mesh.n_cells
    c = dt * coeff_face / (mesh.h * mesh.h)
    # d, e and b are views of one buffer, the layout dptsv reads
    buf = np.empty(3 * n - 1)
    d, e, b = buf[:n], buf[n:2 * n - 1], buf[2 * n - 1:]
    np.add(capacity + c[:-1], c[1:], out=d)
    np.negative(c[1:-1], out=e)
    b[:] = rhs
    for (a, s), i in zip(ghosts, (0, -1)):
        # c (x - a - s x) is the end face's term of cell i
        d[i] -= s * c[i]
        b[i] += a * c[i]
    return _ldlt_solve(d, e, b) if _dptsv is None else _dptsv(buf)


def _diffusive_flux(mesh: Mesh1D, coeff_face, x, ghosts):
    """Face flux coeff dx/dx at ``x`` with the ghost rules ``ghosts``, and
    the face gradient dx/dx."""
    x_p = _padded(ghosts, x)
    grad = (x_p[1:] - x_p[:-1]) / mesh.h
    return coeff_face * grad, grad


def _implicit_solves(mesh, ts, cfg, plan, theta_face, rho, m, theta, capacity, dt):
    """The backward-Euler viscous and conduction solves from the predictor's
    (rho, m, theta); returns (u, stress, diss, theta_l, heat, dw).

    u solves rho u - dt d/dx(nu du/dx) = m, the end faces taking the ghost
    velocities of the plan's rules; ``stress`` is the face stress
    nu du/dx at u and ``diss`` the cell dissipation S:grad u averaged from
    the two faces of each cell.  theta_l then solves
    C (theta_l - theta) - dt d/dx(kappa dtheta_l/dx) = dt diss with the heat
    capacity ``capacity`` = d(rho e_delta)/dtheta, both end faces insulated;
    ``heat`` is the face flux kappa dtheta_l/dx (zero on the end faces).
    nu and kappa are frozen on the faces at ``theta_face``.  ``dw`` is the
    energy the two solves add, dt diss + dt d/dx(heat) in flux form.  A
    solve that returns a value that is not finite rejects the step as such.
    """
    nu_face = cfg.viscosity(ts, theta_face)
    ghosts = plan.u_ghosts
    u = _finite("velocity", _diffusion_solve(mesh, nu_face, rho, m, dt, ghosts))
    stress, du_face = _diffusive_flux(mesh, nu_face, u, ghosts)
    work = stress * du_face
    diss = 0.5 * (work[:-1] + work[1:])
    dt_diss = dt * diss
    kappa_face = cfg.conductivity(ts, theta_face)
    insulated = (_TRACE, _TRACE)
    theta_l = _diffusion_solve(mesh, kappa_face, capacity, capacity * theta + dt_diss, dt,
                               insulated)
    # +inf passes the floor, NaN neither comparison
    if not (theta_l.min() >= THETA_FLOOR and theta_l.max() < math.inf):
        _finite("temperature", theta_l)
        raise StepRejected("temperature fell below its floor")
    heat = _diffusive_flux(mesh, kappa_face, theta_l, insulated)[0]
    return u, stress, diss, theta_l, heat, dt_diss + dt * ((heat[1:] - heat[:-1]) / mesh.h)


def _predictor(rho, m, stage, dt):
    """Forward Euler by the stage from density ``rho`` and momentum ``m``:
    (rho1, m1, w1) and the increments dt drho and dt dW."""
    drho, dm, dW, rec = stage
    dt_drho = dt * drho
    rho1 = rho + dt_drho
    if not rho1.min() >= RHO_FLOOR:
        raise StepRejected("density fell below its floor")
    dt_dw = dt * dW
    return rho1, m + dt * dm, rec.w + dt_dw, dt_drho, dt_dw


# ---------------------------------------------------------------------------
# temperature recovery and the forward-Euler stage
# ---------------------------------------------------------------------------


# Newton converges quadratically here: the step after one of relative size r
# is about r^2 (per cell at most 1.17 r^2 on the box128 and channel512
# benchmark runs), so after a step below 1e-8 theta the next one would be
# about 1e-16 theta, i.e. rounding, and is not taken.
_NEWTON_LAST_STEP = 1e-8


def _first_nonfinite(values):
    """The first cell of ``values`` that is not finite, or None; one
    ``isfinite`` pass and one reduction, which cannot overflow."""
    finite = np.isfinite(values)
    if finite.all():
        return None
    return int(np.flatnonzero(~finite)[0])


def _cell_values(name, fn, t, x):
    """fn(t, x) as floats on the cells x, a value that is not yet cell-shaped
    broadcast to them; a cell that is not finite rejects the step."""
    values = np.asarray(fn(t, x), dtype=float)
    return _finite(name, values if values.shape == x.shape else values * np.ones_like(x))


def _finite(name, values):
    """``values``; a cell that is not finite rejects the step, naming
    ``name`` and the first such cell."""
    if (cell := _first_nonfinite(values)) is not None:
        raise StepRejected(f"{name} is not finite at cell {cell}")
    return values


@contextlib.contextmanager
def _guarded(first_stage_at=None, state=None):
    """A block run under the flags of ``_RAISE``, which its caller has set:
    numpy's ``FloatingPointError``, and the ``OverflowError`` of a
    Python-float ``**``, reject the step with their message.  A block that
    is the first stage of a step at t = ``first_stage_at`` (in ``run``, with
    its dt) aborts the run instead, on any rejection, before any attempt and
    with ``state``."""
    try:
        yield
    except (FloatingPointError, OverflowError, StepRejected) as err:
        if first_stage_at is None:
            raise StepRejected(err.args[-1]) from None
        raise RunAborted(f"step at t={first_stage_at:.6g}: first stage: {err.args[-1]}; "
                         "no attempt made", state=state) from None


def _check_dt(t, dt):
    """A dt that is not finite or does not advance t rejects the step."""
    # NaN fails both comparisons, and t + inf the second
    if not t < t + dt < math.inf:
        raise StepRejected(f"the time step {dt!r} does not advance t")


def _check_start(state):
    """A start state that is not finite, or whose rho or theta lies below its
    floor, rejects the step, naming the field, its first bad cell and the
    value there."""
    for name, values in vars(state).items():
        if (cell := _first_nonfinite(values)) is not None:
            raise StepRejected(f"{name} is not finite at cell {cell} ({values[cell]})")
    for name, floor in (("rho", RHO_FLOOR), ("theta", THETA_FLOOR)):
        values = getattr(state, name)
        if not values.min() >= floor:
            cell = int(np.flatnonzero(values < floor)[0])
            raise StepRejected(f"{name} is below its floor at cell {cell} ({values[cell]})")


def _linear_start(theta0, dw, drho, w_rho, w_theta):
    """Newton's start theta0 + (dw - w_rho drho) / w_theta: the temperature
    at which rho e_delta has moved by dw and rho by drho from a state at
    theta0 with slopes (w_rho, w_theta), to first order.  Cells where that
    is not positive (or NaN, from a stage value that is NaN) start from
    theta0; under the guard's flags an infinite guess raises instead."""
    guess = theta0 + (dw - w_rho * drho) / w_theta
    # NaN fails the comparison
    if guess.min() > 0.0:
        return guess
    return np.where(guess > 0.0, guess, theta0)


def _recover_theta(eos: EosSpec, cfg: SolverConfig, rho, w, theta):
    """Invert rho e_delta(rho, theta) = w per cell by damped Newton from the
    guess ``theta``.

    Returns (theta, slope), slope being d(rho e_delta)/dtheta at the last Newton
    iterate; a residual above 1e-9 (|w| + 1) in any cell, evaluated at theta by
    Newton's own residual with no EOS pass of its own, rejects the step.  The
    caller has checked rho against its floor and the guess positive where it
    made them; the 0.1 theta damping keeps a positive guess positive.
    """
    residual = energy_density_residual(eos, rho, w, cfg.delta)
    for _ in range(40):
        f, df = residual(theta)
        step = f / df
        theta = np.maximum(theta - step, 0.1 * theta)
        if (np.abs(step) / theta).max() < _NEWTON_LAST_STEP:
            break
    f = residual(theta, slope=False)
    # a NaN residual fails too
    if not (np.abs(f) <= 1e-9 * (np.abs(w) + 1.0)).all():
        raise StepRejected("temperature recovery failed: Newton did not converge")
    if not theta.min() >= THETA_FLOOR:
        raise StepRejected("temperature fell below its floor")
    return theta, df


def euler_step(state: FieldState, mesh: Mesh1D, eos: EosSpec, ts: TransportSpec,
               cfg: SolverConfig, bspec: BoundarySpec, dt: float):
    """One forward-Euler stage at t = 0, then the backward-Euler viscous and
    conduction solves of :func:`step`; returns the new (rho, m, theta).

    The energy takes the solves' increments in flux form, as in ``step``,
    and theta is recovered from it at the frozen density ``state.rho``
    (before the solves too): it is the temperature update of the energy
    balance with (rho, u) held fixed.  The stage's EOS pass has no slopes:
    the first recovery starts from theta^n, one Newton step from the
    linearised guess of :func:`step`'s predictor with no density change, and
    the second from the conduction solve's temperature.  It runs under the
    flags and the guard of :func:`step`'s attempts, and a start state that is
    not finite or lies below a floor rejects it before its stage, naming the
    field and first bad cell, as does a dt that is not finite or positive.
    """
    plan = _step_plan(mesh, bspec)
    with np.errstate(**_RAISE), _guarded():
        _check_dt(0.0, dt)
        _check_start(state)
        stage = _stage_rhs(mesh, eos, cfg, plan, 0.0, state, False)
        rho, m, w, _, _ = _predictor(state.rho, state.rho * state.u, stage, dt)
        theta_hat, capacity = _recover_theta(eos, cfg, state.rho, w, state.theta)
        u, _, _, theta_l, _, dw = _implicit_solves(
            mesh, ts, cfg, plan, stage[3].theta_face, rho, m, theta_hat, capacity, dt)
        return rho, rho * u, _recover_theta(eos, cfg, state.rho, w + dw, theta_l)[0]


def stable_dt(state: FieldState, mesh: Mesh1D, eos: EosSpec, ts: TransportSpec,
              cfg: SolverConfig) -> float:
    """CFL-limited step from the acoustic and mass-diffusion limits; the
    stress and the heat flux are implicit and set none.

    The sound speed comes from one EOS pass; ``run`` takes the same limit
    from the sound speed of the step's first stage."""
    return _cfl_dt(mesh.h, cfg, state.u, sound_speed_sq(eos, state.rho, state.theta))


def _cfl_dt(h, cfg: SolverConfig, u, c2):
    """The limit of ``stable_dt`` for velocities u and sound speeds squared c2."""
    dt = h / np.max(np.abs(u) + np.sqrt(c2))
    if cfg.epsilon > 0.0:
        dt = min(dt, h * h / (2.0 * cfg.epsilon))
    return cfg.cfl * float(dt)


def _heun_step(mesh, eos, ts, cfg, plan, t, state, dt, stage1):
    """One SSP-RK2 step of the stage H with the implicit stress and heat
    flux, from ``stage1`` = _stage_rhs at (t, state), which does not depend
    on dt; returns (new_state, accumulator increments)."""
    d1rho, d1m, d1w, rec1 = stage1
    rho0, m0, w0 = state.rho, state.rho * state.u, rec1.w
    rho1, m1, w1, dt_drho, dt_dw = _predictor(rho0, m0, stage1, dt)
    # the predictor's start: theta^n moved along the first stage's slopes
    start = _linear_start(state.theta, dt_dw, dt_drho, rec1.w_rho, rec1.w_theta)
    theta1, capacity = _recover_theta(eos, cfg, rho1, w1, start)
    # the second stage has no slopes and forms no face temperatures
    d2rho, d2m, d2w, rec2 = _stage_rhs(mesh, eos, cfg, plan, t + dt,
                                       _new_state(rho1, m1 / rho1, theta1), False, False)
    u1, stress, diss, theta_l, heat, dw = _implicit_solves(
        mesh, ts, cfg, plan, rec1.theta_face, rho1, m1, theta1, capacity, dt)
    h, hdt = plan.h, 0.5 * dt
    rho_n = rho0 + hdt * (d1rho + d2rho)
    if not rho_n.min() >= RHO_FLOOR:
        raise StepRejected("density fell below its floor")
    # the implicit increments enter with full weight
    m_n = m0 + hdt * (d1m + d2m) + (rho1 * u1 - m1)
    w_n = w0 + hdt * (d1w + d2w) + dw
    # the corrector's start: w_n - (w1 + dw) and rho_n - rho1 from
    # (rho1, theta_l), where w1 + dw is rho e_delta to first order since
    # dw = C (theta_l - theta1); rho_n - rho1 is O(dt^2), so the first
    # stage's w_rho serves to the order of the guess
    start = _linear_start(theta_l, hdt * (d2w - d1w), hdt * (d2rho - d1rho),
                          rec1.w_rho, capacity)
    new_state = _new_state(rho_n, m_n / rho_n, _recover_theta(eos, cfg, rho_n, w_n, start)[0])
    s2 = rec2.scalars
    inc = {k: hdt * (v + s2[k]) for k, v in rec1.scalars.items()}
    # the implicit terms with weight dt, the entropy ones at the new theta:
    # the energy increment over theta, the heat part summed by parts
    inv_theta = 1.0 / new_state.theta
    entropy_gain = dt * (float((diss * inv_theta).sum()) * h
                         + float((heat[1:-1] * (inv_theta[:-1] - inv_theta[1:])).sum()))
    inc["dissipation_no_delta"] += entropy_gain
    grad_ub = plan.grad_ub
    if grad_ub != 0.0:
        stress_cell = 0.5 * (stress[:-1] + stress[1:])
        inc["S_grad_ub"] += dt * (float((stress_cell * grad_ub).sum()) * h)
    return new_state, inc


def step(state: FieldState, mesh: Mesh1D, eos: EosSpec, ts: TransportSpec,
         cfg: SolverConfig, bspec: BoundarySpec, dt: float, t: float = 0.0, stage1=None):
    """One adaptive SSP-RK2 step; halves dt on rejection (up to MAX_REJECTS).

    Returns (new_state, dt_used, accumulator_increments, n_rejects), the
    increments holding the rows of ``BUDGET_ROWS``.  A dt that is not
    finite or does not advance t aborts as a first stage that rejects.
    ``stage1`` is the step's first stage at (t, state) where the caller has
    evaluated it; without it, a start state that is not finite or lies below
    a floor aborts so too, naming the field and first bad cell.  The first
    stage and each attempt run under numpy's floating-point flags,
    ``_RAISE``, and the guard :func:`_guarded`.
    ``run`` passes the step plan of (mesh, bspec) as ``bspec``, with its
    ``stage1``, from under its own flags: such a call goes straight to the
    attempts.
    """
    if isinstance(bspec, _StepPlan):
        return _attempts(mesh, eos, ts, cfg, bspec, t, state, dt, stage1)
    plan = _step_plan(mesh, bspec)
    with np.errstate(**_RAISE):
        with _guarded(t, state):
            _check_dt(t, dt)
            if stage1 is None:
                _check_start(state)
                stage1 = _stage_rhs(mesh, eos, cfg, plan, t, state)
        return _attempts(mesh, eos, ts, cfg, plan, t, state, dt, stage1)


def _attempts(mesh, eos, ts, cfg, plan, t, state, dt, stage1):
    """The attempts of :func:`step` from its first stage, under the flags
    its caller set, each in the guard; returns what ``step`` does."""
    rejects = 0
    while True:
        try:
            with _guarded():
                new_state, inc = _heun_step(mesh, eos, ts, cfg, plan, t, state, dt, stage1)
            return new_state, dt, inc, rejects
        except StepRejected as err:
            rejects += 1
            if rejects > MAX_REJECTS:
                raise RunAborted(
                    f"step at t={t:.6g} rejected {rejects} times (last: {err}); "
                    "diagnostic state attached", state=state) from None
            dt *= 0.5


@dataclass
class Trajectory:
    """States and cumulative budget integrals recorded along a run: each
    ``accums`` entry holds the rows of ``BUDGET_ROWS`` at its time, the
    first all 0.0."""

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
    # the budgets' storage integrals of the recorded states, with the count
    # of states they were evaluated on
    _storages: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    def state_at(self, t: float) -> FieldState:
        idx = self._index(t)
        return self.states[idx]

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


def output_times_problem(output_times, t_end: float) -> Optional[str]:
    """Why a run refuses ``output_times``, or None: each must lie in
    [0, t_end] (NaN does not)."""
    bad = [t for t in output_times if not 0.0 <= t <= t_end + 1e-12]
    return f"output times must lie in [0, t_end], got {bad[0]:g}" if bad else None


def recorded_times(output_times, t_end: float) -> list:
    """The instants a run records for admitted ``output_times``: sorted and
    distinct, 0 and t_end added, a time in the slack past t_end taken as
    t_end."""
    t_end = float(t_end)
    return sorted({min(float(t), t_end) for t in output_times} | {0.0, t_end})


def initial_data_problems(fields: dict) -> list:
    """[(field, check, message)] for the initial fields (any of rho, u, theta)
    a run refuses: "finite" for each field with non-finite cells, then
    "positivity" for a finite rho or theta with cells below its floor."""
    checks = [(name, "finite", ~np.isfinite(v), "is not finite") for name, v in fields.items()]
    finite = {name for name, _, bad, _ in checks if not bad.any()}
    checks += [(name, "positivity", fields[name] < floor, f"is below its floor {floor:g}")
               for name, floor in (("rho", RHO_FLOOR), ("theta", THETA_FLOOR)) if name in finite]
    return [(name, check, f"initial {name} {what} in {int(bad.sum())} of {bad.size} cells")
            for name, check, bad, what in checks if bad.any()]


def run(mesh: Mesh1D, eos: EosSpec, ts: TransportSpec, cfg: SolverConfig,
        bspec: BoundarySpec, initial: FieldState, output_times=None) -> Trajectory:
    """Integrate to t_end, recording states and cumulative boundary integrals.

    ``output_times`` defaults to {0, t_end}; the stepper lands on each output
    instant exactly.  Output times with an :func:`output_times_problem` and
    initial data with :func:`initial_data_problems` raise ValueError; on
    abort the partial trajectory is attached to the raised
    :class:`RunAborted`.  A step whose dt would leave t_end more than
    ``MAX_STEPS`` steps away, or would not advance t, aborts the run before
    its first attempt.
    """
    if output_times is None:
        output_times = [0.0, cfg.t_end]
    if problem := output_times_problem(output_times, cfg.t_end):
        raise ValueError(problem)
    outs = recorded_times(output_times, cfg.t_end)

    state = initial.copy()
    if problems := initial_data_problems(vars(state)):
        raise ValueError("; ".join(message for _, _, message in problems))

    acc = dict.fromkeys(BUDGET_ROWS, 0.0)
    traj = Trajectory(mesh=mesh, eos=eos, transport=ts, config=cfg, boundary=bspec,
                      times=[0.0], states=[state.copy()], accums=[dict(acc)])

    plan = _step_plan(mesh, bspec)
    t = 0.0
    with np.errstate(**_RAISE):
        # outs[0] is 0.0, recorded above
        for target in outs[1:]:
            while t < target - 1e-14 * (1.0 + target):
                try:
                    # the dt of stable_dt, from the first stage's sound speed
                    with _guarded(t, state):
                        stage1 = _stage_rhs(mesh, eos, cfg, plan, t, state)
                        dt = _cfl_dt(plan.h, cfg, state.u, stage1[3].c2)
                        # Python floats, which no flag checks: a dt of 0
                        # (the epsilon limit h^2/(2 epsilon) above epsilon
                        # of about 9e307) or NaN fails the step budget too
                        if not dt * MAX_STEPS >= cfg.t_end - t:
                            raise StepRejected(f"the time step {dt!r} would take more than "
                                               f"{MAX_STEPS:.0e} steps to reach t_end")
                        dt = min(dt, target - t)
                        _check_dt(t, dt)
                    state, dt_used, inc, rej = step(state, mesh, eos, ts, cfg, plan, dt, t=t,
                                                    stage1=stage1)
                except RunAborted as err:
                    err.trajectory = traj
                    raise
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
            traj.accums.append(dict(acc))
    return traj
