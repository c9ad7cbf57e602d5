"""Manufactured solutions for solver verification.

Each case prescribes closed-form fields (rho*, u*, theta*) on [0, 1] with
continuity exact (no mass source is available) and boundary data constant
in time, stated in closed form (u_b is 0.0 on a wall to the bit).  A body
force g(t, x) and an internal energy source, the exact residuals of the
other balances with the case's EOS, force the rest; the probe checks them
by finite differences of the closed forms.  The shipped cases take the
iconic EOS; the sources read ``MmsCase.eos``, so a copy made with
``dataclasses.replace(case, eos=...)`` is forced on another EOS (a wall
case's boundary data do not depend on it).

The sources are numeric, in truncated Taylor arithmetic (Griewank &
Walther, *Evaluating Derivatives*, 2nd ed., SIAM 2008, ch. 13).  A case
writes rho*, m* = rho* u* and theta* once, as jets (:class:`Jet`) of t
and of its x factors, computed once per x array.  The balances read the
12 jet arrays: u, u_x and u_xx by the quotient rule, and the slopes of
p and rho e from one ``stage_closures`` pass, the closures the solver
evaluates; the transport coefficients and their theta-slopes come from
one complex-step evaluation of the solver's transport forms (Squire &
Trapp, *SIAM Rev.* 40 (1998) 110-112).  Any route to the exact residual
of the closed forms will do (Roache, *J. Fluids Eng.* 124 (2002) 4-10).
g and the energy source are one evaluation behind one last-call cache, so
stage 2 of one step and stage 1 of the next evaluate them once.

Shipped cases: ``thermal_relaxation`` (density, velocity and temperature
relax to rest in a closed insulated box, the induced velocity exercising
the upwind transport in every equation), ``acoustic_smooth`` (a damped
standing oscillation in a closed box) and ``throughflow`` (a steady flow
in at one face and out at the other, with a curved temperature profile).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import boundary as bd
from .mesh import Mesh1D
from .solver import FieldState, SolverConfig
from .thermo import EosSpec, TransportSpec, iconic_eos, stage_closures

# the solver settings the sources are derived for: d = 3, epsilon = delta = 0
_SETTINGS = SolverConfig()
# the complex step of the transport slopes: h^2 vanishes next to 1
_STEP = 1e-200


def _add(a, b):
    """a + b, where None is an identically zero part."""
    if a is None:
        return b
    return a if b is None else a + b


def _mul(a, b):
    return None if a is None or b is None else a * b


class Jet:
    """A field at (t, x) with its derivatives d/dt, d/dx and d2/dx2.

    A part that is None is identically zero and costs no arithmetic: a jet
    of t alone times a jet of x alone forms four products, and jets seeded
    without derivative parts carry values only."""

    __slots__ = ("v", "t", "x", "xx")

    def __init__(self, v, t=None, x=None, xx=None):
        self.v, self.t, self.x, self.xx = v, t, x, xx

    def parts(self):
        """(value, d/dt, d/dx, d2/dx2), with 0.0 for a zero part."""
        t, x, xx = self.t, self.x, self.xx
        return (self.v, 0.0 if t is None else t, 0.0 if x is None else x,
                0.0 if xx is None else xx)

    def __add__(self, o):
        if isinstance(o, Jet):
            return Jet(self.v + o.v, _add(self.t, o.t), _add(self.x, o.x), _add(self.xx, o.xx))
        return Jet(self.v + o, self.t, self.x, self.xx)

    __radd__ = __add__

    def __sub__(self, o):
        return self + o * -1.0

    def __rsub__(self, o):
        return self * -1.0 + o

    def __mul__(self, o):
        if not isinstance(o, Jet):
            t, x, xx = self.t, self.x, self.xx
            return Jet(self.v * o, None if t is None else t * o, None if x is None else x * o,
                       None if xx is None else xx * o)
        v, w = self.v, o.v
        return Jet(v * w, _add(_mul(self.t, w), _mul(v, o.t)),
                   _add(_mul(self.x, w), _mul(v, o.x)),
                   _add(_add(_mul(self.xx, w), _mul(v, o.xx)), _mul(_mul(self.x, 2.0), o.x)))

    __rmul__ = __mul__

    def exp(self):
        v = np.exp(self.v)
        return self._chain(v, v, v)

    def _chain(self, v, d1, d2):
        """f of this jet, where v, d1 and d2 are f, f' and f'' at its value."""
        t, x, xx = self.t, self.x, self.xx
        if x is not None:
            xx = d2 * (x * x) if xx is None else d1 * xx + d2 * (x * x)
            x = d1 * x
        elif xx is not None:
            xx = d1 * xx
        return Jet(v, None if t is None else d1 * t, x, xx)


def cos_sin(f: Jet):
    """(cos f, sin f), from one cosine and one sine of f's value."""
    c, s = np.cos(f.v), np.sin(f.v)
    ns = -s
    return f._chain(c, ns, -c), f._chain(s, c, ns)


def _velocity(rho: Jet, m: Jet):
    """u = m/rho with u_x and u_xx, by the quotient rule."""
    (R, _, R_x, R_xx), (M, _, M_x, M_xx) = rho.parts(), m.parts()
    inv = 1.0 / R
    u = M * inv
    u_x = (M_x - u * R_x) * inv
    return u, u_x, (M_xx - 2.0 * u_x * R_x - u * R_xx) * inv


@dataclass
class MmsCase:
    """Closed-form fields, their sources, and the boundary data: ``fields``
    maps the jet of t and the x factors that ``space`` makes of the jet of
    x to the jets of (rho*, m*, theta*), m* = rho* u*."""

    name: str
    eos: EosSpec
    transport: TransportSpec
    x_left: float
    x_right: float
    space: Callable
    fields: Callable
    boundary: bd.BoundarySpec
    g_fn: Callable = field(init=False, repr=False)
    energy_source_fn: Callable = field(init=False, repr=False)

    def __post_init__(self):
        last = [None, None, None, None]  # t, a copy of x, its x factors, (g, source)

        def sources(t, x):
            x = np.asarray(x)
            if last[1] is None or x.shape != last[1].shape or not (x == last[1]).all():
                x = np.array(x, dtype=float)
                last[:] = None, x, self.space(Jet(x, x=1.0)), None
            if t != last[0]:
                out = self._sources(t, last[2])
                for val in out:
                    val.flags.writeable = False
                last[0], last[3] = t, out
            return last[3]

        self.g_fn = lambda t, x: sources(t, x)[0]
        self.energy_source_fn = lambda t, x: sources(t, x)[1]

    def _sources(self, t, space):
        """(g, energy source) at t and the x factors ``space``."""
        rho, m, theta = self.fields(Jet(t, 1.0), space)
        (R, R_t, R_x, _), (M, M_t, M_x, _), (Th, Th_t, Th_x, Th_xx) = (
            rho.parts(), m.parts(), theta.parts())
        u, u_x, u_xx = _velocity(rho, m)
        p, e, _, _, w_rho, w_theta, p_theta = stage_closures(self.eos, R, Th, slopes=True)
        z = Th + _STEP * 1j  # f(z) = f(theta) + ih f'(theta), to rounding
        nu, kappa = _SETTINGS.viscosity(self.transport, z), _SETTINGS.conductivity(self.transport, z)
        th_x = Th_x / _STEP
        stress = nu.real * u_x
        g = (M_t + M_x * u + M * u_x + w_rho / 1.5 * R_x + p_theta * Th_x
             - nu.imag * th_x * u_x - nu.real * u_xx) / R
        source = (w_rho * (R_t + R_x * u) + w_theta * (Th_t + Th_x * u)
                  + (R * e + p - stress) * u_x - kappa.imag * th_x * Th_x - kappa.real * Th_xx)
        return g, source

    def _forms(self, t, x) -> dict:
        """rho*, m*, u*, p, e, the stress and q at (t, x)."""
        rho, m, theta = self.fields(Jet(t), self.space(Jet(x, x=1.0)))
        u, u_x, _ = _velocity(rho, m)
        th, _, th_x, _ = theta.parts()
        p, e, _ = stage_closures(self.eos, rho.v, th)
        return {"rho": rho.v, "m": m.v, "u": u, "p": p, "e": e,
                "stress": _SETTINGS.viscosity(self.transport, th) * u_x,
                "q": -_SETTINGS.conductivity(self.transport, th) * th_x}

    def exact_state(self, t: float, mesh: Mesh1D) -> FieldState:
        """The fields at the cell centers, from jets that carry values alone."""
        one = np.ones_like(mesh.centers)
        rho, m, theta = self.fields(Jet(t), self.space(Jet(mesh.centers)))
        return FieldState(rho=rho.v * one, u=m.v / rho.v * one, theta=theta.v * one)

    def config(self, t_end: float, cfl: float = 0.4) -> SolverConfig:
        """The solver settings of the sources (d = 3, epsilon = delta = 0),
        with both sources active."""
        return SolverConfig(t_end=t_end, cfl=cfl, g=self.g_fn,
                            energy_source=self.energy_source_fn)

    def residual_probe(self) -> dict:
        """Residuals d/dt(density) + d/dx(flux) - sources of the balances on
        a fine grid, by central differences of the closed forms."""
        h = 5e-5
        x = np.linspace(self.x_left + 1e-3, self.x_right - 1e-3, 1024)
        out = {"mass": 0.0, "momentum": 0.0, "energy": 0.0}
        for t in (0.05, 0.35):
            at, ahead, behind = self._forms(t, x), self._forms(t + h, x), self._forms(t - h, x)
            right, left = self._forms(t, x + h), self._forms(t, x - h)

            def balance(density, flux):
                return (density(ahead) - density(behind) + flux(right) - flux(left)) / (2.0 * h)

            ux = (right["u"] - left["u"]) / (2.0 * h)
            residuals = (  # mass, momentum, energy
                balance(lambda c: c["rho"], lambda c: c["m"]),
                balance(lambda c: c["m"], lambda c: c["m"] * c["u"] + c["p"] - c["stress"])
                - at["rho"] * self.g_fn(t, x),
                balance(lambda c: c["rho"] * c["e"], lambda c: c["m"] * c["e"] + c["q"])
                + (at["p"] - at["stress"]) * ux - self.energy_source_fn(t, x))
            for k, res in zip(out, residuals):
                out[k] = max(out[k], float(np.max(np.abs(res))))
        return out


def _box_space(x: Jet):
    return cos_sin(np.pi * x)


def _thermal_relaxation(t: Jet, space):
    # a mass flux B e^{-sigma t} sin(pi x) keeps continuity exact with walls,
    # and its velocity makes the upwind error the leading one in every field
    cos, sin = space
    decay = (-2.0 * t).exp()
    return (1.0 + (0.15 * np.pi) * decay * cos, 0.3 * decay * sin,
            1.0 + 0.15 * decay * cos)


def _acoustic_smooth(t: Jet, space):
    cos, sin = space
    amp, omega = 0.05, 2.0 * np.pi
    decay = (-1.0 * t).exp()
    cos_t, sin_t = cos_sin(omega * t)
    env = decay * cos_t
    denv = -1.0 * env - omega * decay * sin_t  # d env/dt, as a jet of t
    return (1.0 + amp * env * cos, -(amp / np.pi) * denv * sin,
            1.0 - 0.5 * amp * env * cos)


def _throughflow_space(x: Jet):
    return 1.0 + 0.2 * x * x * (3.0 - 2.0 * x)  # theta*


def _throughflow(t: Jet, theta: Jet):
    return Jet(1.0), Jet(0.5), theta


_CASES = {"thermal_relaxation": (_box_space, _thermal_relaxation),
          "acoustic_smooth": (_box_space, _acoustic_smooth),
          "throughflow": (_throughflow_space, _throughflow)}


def manufactured_case(kind: str) -> MmsCase:
    """The shipped case ``kind`` on the iconic EOS: the fields are this
    package's own constructions (no canonical flows exist for this system)."""
    if kind not in _CASES:
        raise ValueError(f"unknown manufactured case {kind!r}")
    traces = {"u_b_left": 0.0, "u_b_right": 0.0}  # walls
    if kind == "throughflow":
        # u* = 1/2; at the inflow face x = 0, rho* = theta* = 1 and theta*_x
        # = 0, so F_ib = rho_b e(rho_b, 1) u_b.n = -2.0 on the iconic EOS
        traces = {"u_b_left": 0.5, "u_b_right": 0.5, "rho_b_left": 1.0, "F_ib_left": -2.0}
    # mild transport keeps the second-order diffusion error subdominant to
    # the first-order upwind error that the study measures
    ts = TransportSpec(mu_scale=0.2, kappa_scale=0.2)
    space, fields = _CASES[kind]
    return MmsCase(name=kind, eos=iconic_eos(), transport=ts, x_left=0.0, x_right=1.0,
                   space=space, fields=fields,
                   boundary=bd.make_boundary(x_left=0.0, x_right=1.0, **traces))
