"""Manufactured solutions for solver verification.

Each case prescribes closed-form fields (rho*, u*, theta*) on [0, 1] chosen
so the continuity equation holds exactly (no mass source is available), the
boundary data extracted from the traces are constant in time, and the
remaining balances are forced through a body force g(t, x) and an internal
energy source, the exact residuals of the field equations with the iconic
pressure closure.  The derived sources are verified independently: the
probe re-evaluates the balances with finite differences of the closed
forms on a fine grid.

The sources are derived by the chain rule on field jets.  sympy
differentiates in t and x only the three closed forms rho*, m* = rho* u*
and theta*, each to its four jets (value, d/dt, d/dx, d2/dx2): 12 jet
symbols R, R_t, ..., Th_xx.  Each balance is written once in these
symbols: u, u_x and u_xx follow from M/R by the quotient rule, and the
x and t derivatives of p, rho e, the stress and q by the chain rule
through the closures' slopes p_rho, p_theta, (rho e)_rho, (rho e)_theta,
nu' and kappa', which sympy takes in the symbols R and Th alone.  No whole
balance, with its quotients and fractional powers, is differentiated.

Every closure of a case (the fields, the two sources, p, e, the stress
and q) is compiled once, by ``sympy.lambdify`` with a ``cse`` callable
that puts one common-subexpression elimination of the 12 jets' closed
forms, shared by the case, and the jet definitions the closure reads in
front of the closure's own CSE: a call computes cos(pi x), sin(pi x),
exp(-sigma t) and their shared powers once, and renders no docstring of
the form (``docstring_limit=0``).  The compiled sources agree with the
balances written in the closed forms and differentiated whole to rounding
(about 1e-14 relative), and the generated code does not depend on the
interpreter's hash seed.  Each compiled closure keeps its last call:
called again with an equal t and an x equal by value, it returns the
stored read-only array, so the solver's stage 2 of one step and stage 1
of the next, at the same time, evaluate a source once.

Shipped cases:

* ``thermal_relaxation``: density, velocity and temperature all relax to
  rest in a closed insulated box; the induced velocity keeps continuity
  exact and exercises the upwind transport in every equation.
* ``acoustic_smooth``: a damped standing oscillation in a closed box.
* ``throughflow``: a steady flow through the domain with both an inflow and
  an outflow face active and a curved temperature profile.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import boundary as bd
from .mesh import Mesh1D
from .solver import FieldState, SolverConfig
from .thermo import EosSpec, TransportSpec, iconic_eos


def _symbols():
    """sympy and the (t, x) symbols; sympy is imported only to build a case."""
    import sympy as sp

    return sp, *sp.symbols("t x", real=True)


def _iconic_closures(eos: EosSpec, rho, theta):
    import sympy as sp

    a = sp.Float(eos.a)
    p_inf = sp.Float(eos.p_inf)
    p = rho * theta + p_inf * rho ** sp.Rational(5, 3) + a * theta ** 4 / 3
    e = (sp.Rational(3, 2) * theta + sp.Rational(3, 2) * p_inf * rho ** sp.Rational(2, 3)
         + a * theta ** 4 / rho)
    return p, e


@dataclass
class MmsCase:
    """Closed-form fields, derived sources, and trace boundary data."""

    name: str
    eos: EosSpec
    transport: TransportSpec
    x_left: float
    x_right: float
    rho_fn: Callable
    u_fn: Callable
    theta_fn: Callable
    g_fn: Callable
    energy_source_fn: Callable
    boundary: bd.BoundarySpec
    _exprs: dict

    def exact_state(self, t: float, mesh: Mesh1D) -> FieldState:
        x = mesh.centers
        one = np.ones_like(x)
        return FieldState(rho=self.rho_fn(t, x) * one, u=self.u_fn(t, x) * one,
                          theta=self.theta_fn(t, x) * one)

    def config(self, t_end: float, cfl: float = 0.4) -> SolverConfig:
        """The solver settings the sources were derived for (d = 3,
        epsilon = delta = 0), with both sources active."""
        return SolverConfig(t_end=t_end, cfl=cfl, g=self.g_fn,
                            energy_source=self.energy_source_fn)

    def residual_probe(self) -> dict:
        """Finite-difference residuals of the balances on a fine grid.

        The outer space/time derivatives come from central differences of
        the closed forms, so the probe is independent of the symbolic
        derivation used to build g and the energy source.
        """
        hx = ht = 5e-5
        x = np.linspace(self.x_left + 1e-3, self.x_right - 1e-3, 1024)
        out = {"mass": 0.0, "momentum": 0.0, "energy": 0.0}
        fr, fu, fth = self.rho_fn, self.u_fn, self.theta_fn
        p_fn = self._exprs["p_fn"]
        e_fn = self._exprs["e_fn"]
        stress_fn = self._exprs["stress_fn"]
        q_fn = self._exprs["q_fn"]
        for t in (0.05, 0.35):
            def dt(f):
                return (f(t + ht, x) - f(t - ht, x)) / (2.0 * ht)

            def dx(f):
                return (f(t, x + hx) - f(t, x - hx)) / (2.0 * hx)

            rho = fr(t, x) * np.ones_like(x)
            ux = dx(fu)
            m_res = dt(lambda tt, xx: fr(tt, xx) * np.ones_like(xx)) \
                + dx(lambda tt, xx: fr(tt, xx) * fu(tt, xx) * np.ones_like(xx))
            out["mass"] = max(out["mass"], float(np.max(np.abs(m_res))))

            mom_res = (dt(lambda tt, xx: fr(tt, xx) * fu(tt, xx) * np.ones_like(xx))
                       + dx(lambda tt, xx: (fr(tt, xx) * fu(tt, xx) ** 2
                                            + p_fn(tt, xx)) * np.ones_like(xx))
                       - dx(lambda tt, xx: stress_fn(tt, xx) * np.ones_like(xx))
                       - rho * self.g_fn(t, x))
            out["momentum"] = max(out["momentum"], float(np.max(np.abs(mom_res))))

            en_res = (dt(lambda tt, xx: (fr(tt, xx) * e_fn(tt, xx)) * np.ones_like(xx))
                      + dx(lambda tt, xx: (fr(tt, xx) * e_fn(tt, xx) * fu(tt, xx)
                                           + q_fn(tt, xx)) * np.ones_like(xx))
                      - stress_fn(t, x) * ux + p_fn(t, x) * ux
                      - self.energy_source_fn(t, x))
            out["energy"] = max(out["energy"], float(np.max(np.abs(en_res))))
        return out


def _jet_cse(closed: dict):
    """A ``cse`` callable for ``lambdify``: one CSE of the jets' closed forms
    (``closed`` maps each jet symbol to its form), shared by every closure,
    then the closure's own CSE over its jet symbols; the shared definitions
    a closure does not read are left out."""
    import sympy as sp

    shared, reduced = sp.cse(list(closed.values()), symbols=sp.numbered_symbols("j"))
    prelude = shared + list(zip(closed, reduced))

    def cse(expr):
        own, (body,) = sp.cse([expr], symbols=sp.numbered_symbols("c"))
        needed = set(body.free_symbols).union(*(v.free_symbols for _, v in own))
        kept = []
        for sym, value in reversed(prelude):
            if sym in needed:
                kept.append((sym, value))
                needed |= value.free_symbols
        return kept[::-1] + own, body

    return cse


def _build_case(name: str, rho_e, u_e, theta_e) -> MmsCase:
    sp, T, X = _symbols()
    eos = iconic_eos()
    # mild transport keeps the second-order diffusion error subdominant to
    # the first-order upwind error that the study measures
    ts = TransportSpec(mu_scale=0.2, kappa_scale=0.2)
    x_left, x_right = 0.0, 1.0

    # the 12 jets: value, d/dt, d/dx and d2/dx2 of rho*, m* = rho* u* and
    # theta*, the only derivatives in t and x; R and Th are positive, so
    # sympy differentiates the closures' fractional powers in them without
    # querying their sign
    fields = (rho_e, rho_e * u_e, theta_e)
    values = (sp.Symbol("R", positive=True), sp.Symbol("M", real=True),
              sp.Symbol("Th", positive=True))
    jets = [(v, *sp.symbols(f"{v}_t {v}_x {v}_xx", real=True)) for v in values]
    closed = {}
    for syms, f in zip(jets, fields):
        closed.update(zip(syms, (f, sp.diff(f, T), sp.diff(f, X), sp.diff(f, X, 2))))
    (R, R_t, R_x, R_xx), (M, M_t, M_x, M_xx), (Th, Th_t, Th_x, Th_xx) = jets
    mass_res = sp.simplify(closed[R_t] + closed[M_x])
    if mass_res != 0:
        raise ValueError(f"case {name}: continuity is not exactly satisfied: {mass_res}")

    # the balances in jet symbols: u = M/R by the quotient rule, the
    # closures' slopes in R and Th by the chain rule (E is rho e)
    u = M / R
    u_x = M_x / R - M * R_x / R ** 2
    u_xx = M_xx / R - (2 * M_x * R_x + M * R_xx) / R ** 2 + 2 * M * R_x ** 2 / R ** 3
    p, e = _iconic_closures(eos, R, Th)
    E = R * e
    lam = sp.Rational(1, 2) if ts.lambda_exp == 0.5 else sp.Float(ts.lambda_exp)
    nu = (sp.Float(ts.mu_scale) * sp.Rational(4, 3) + sp.Float(ts.eta_scale)) * (1 + Th ** lam)
    kappa = sp.Float(ts.kappa_scale) * (1 + Th ** 3)
    stress = nu * u_x  # d = 3
    q = -kappa * Th_x
    stress_x = sp.diff(nu, Th) * Th_x * u_x + nu * u_xx
    q_x = -sp.diff(kappa, Th) * Th_x ** 2 - kappa * Th_xx
    p_x = sp.diff(p, R) * R_x + sp.diff(p, Th) * Th_x
    E_R, E_Th = sp.diff(E, R), sp.diff(E, Th)
    g = (M_t + M_x * u + M * u_x + p_x - stress_x) / R
    s = (E_R * R_t + E_Th * Th_t + (E_R * R_x + E_Th * Th_x) * u + E * u_x
         + q_x - stress * u_x + p * u_x)

    cse = _jet_cse(closed)

    def lam2(expr):
        # by default lambdify renders every form under 1000 nodes into a
        # docstring that the closure hides and nothing reads
        f = sp.lambdify((T, X), expr, "numpy", cse=cse, docstring_limit=0)
        last = [None, None, None]  # t, a private copy of x, the read-only result

        def closure(t, x):
            if t == last[0] and np.array_equal(x, last[1]):
                return last[2]
            val = np.array(f(t, x), dtype=float)
            val.flags.writeable = False
            last[:] = t, np.array(x, dtype=float), val
            return val

        return closure

    fr, fu, fth = lam2(R), lam2(u), lam2(Th)
    fg, fs = lam2(g), lam2(s)
    exprs = {"p_fn": lam2(p), "e_fn": lam2(e), "stress_fn": lam2(stress),
             "q_fn": lam2(q)}

    # traces at t = 0: exact substitution into the closed forms, then one
    # rounding (substituting the float x = 1.0 into u of thermal_relaxation
    # takes about 20x as long)
    def trace(expr, xb):
        return float(expr.xreplace(closed).subs({X: sp.Rational(xb), T: 0}))
    ub_l, ub_r = trace(u_e, x_left), trace(u_e, x_right)
    kw = {}
    for ub, side, xb in ((ub_l, "left", x_left), (ub_r, "right", x_right)):
        normal = -1.0 if side == "left" else 1.0
        if ub * normal < 0.0:  # inflow: extract rho_b, F_ib from the traces
            rho_b, e_b, q_b = (trace(expr, xb) for expr in (R, e, q))
            f_ib = rho_b * e_b * ub * normal + q_b * normal
            kw[f"rho_b_{side}"] = rho_b
            kw[f"F_ib_{side}"] = f_ib
    bspec = bd.make_boundary(u_b_left=ub_l, u_b_right=ub_r, x_left=x_left,
                             x_right=x_right, **kw)

    return MmsCase(name=name, eos=eos, transport=ts, x_left=x_left, x_right=x_right,
                   rho_fn=fr, u_fn=fu, theta_fn=fth, g_fn=fg, energy_source_fn=fs,
                   boundary=bspec, _exprs=exprs)


def manufactured_case(kind: str) -> MmsCase:
    """Build one of the shipped manufactured cases.

    kind is one of ``thermal_relaxation``, ``acoustic_smooth``,
    ``throughflow``.  The fields are this package's own verification
    constructions (no canonical flows exist for this system).
    """
    sp, t, x = _symbols()
    if kind == "thermal_relaxation":
        # mass flux B e^{-sigma t} sin(pi x) keeps continuity exact with
        # walls; the induced velocity makes the upwind transport error the
        # leading one in every field.
        sigma = sp.Integer(2)
        flux_amp = sp.Rational(3, 10)
        flux = flux_amp * sp.exp(-sigma * t) * sp.sin(sp.pi * x)  # rho u
        rho_e = 1 + (flux_amp * sp.pi / sigma) * sp.exp(-sigma * t) * sp.cos(sp.pi * x)
        u_e = flux / rho_e
        theta_e = 1 + sp.Rational(3, 20) * sp.exp(-sigma * t) * sp.cos(sp.pi * x)
    elif kind == "acoustic_smooth":
        amp = sp.Rational(1, 20)
        omega = 2 * sp.pi
        env = sp.exp(-t) * sp.cos(omega * t)
        denv = -sp.exp(-t) * sp.cos(omega * t) - omega * sp.exp(-t) * sp.sin(omega * t)
        rho_e = 1 + amp * env * sp.cos(sp.pi * x)
        u_e = -(amp / sp.pi) * denv * sp.sin(sp.pi * x) / rho_e
        theta_e = 1 - sp.Rational(1, 2) * amp * env * sp.cos(sp.pi * x)
    elif kind == "throughflow":
        rho_e = sp.Integer(1)
        u_e = sp.Rational(1, 2) + 0 * x
        theta_e = 1 + sp.Rational(1, 5) * x ** 2 * (3 - 2 * x)
    else:
        raise ValueError(f"unknown manufactured case {kind!r}")
    return _build_case(kind, rho_e, u_e, theta_e)
