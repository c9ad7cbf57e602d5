"""Gibbs-consistent constitutive closures for a heat-conducting compressible gas.

The pressure law has the scaling form

    p(rho, theta) = theta^{5/2} * P(Z) + (a/3) theta^4,   Z = rho / theta^{3/2},

with a radiation term weighted by ``a > 0``.  Internal energy and entropy are
derived from the same shape function ``P`` so that Gibbs' relation
``theta ds = de + p d(1/rho)`` holds identically:

    e(rho, theta) = (3/2) (theta^{5/2}/rho) P(Z) + (a/rho) theta^4
    s(rho, theta) = S(Z) + (4a/3) theta^3 / rho,
    S'(Z) = -(3/2) ((5/3) P(Z) - P'(Z) Z) / Z^2.

P is built from two kinds of region.  Every closed-form region is one
member of the family ``PowerShape``, P(Z) = a Z^{5/3} + b Z + c + d/Z,
whose S and S' are written once; the other is a table's spline.  Two shapes
are built in:

* ``"iconic"``: P(Z) = Z + p_inf * Z^{5/3}, the member (p_inf, 1), for which
  S(Z) = -log Z + const.
* ``"table"``: a monotone piecewise-cubic interpolant of user knots (Z_i, P_i)
  with a head member (beta, alpha) below the first knots and an
  asymptote-matched tail member above the last ones.  The tail selects the
  low-temperature entropy limit: a constant offset from p_inf * Z^{5/3}
  makes S(Z) -> 0 (Third-law mode), a linear correction reproduces the
  logarithmically divergent limit of the iconic gas.

Admissibility of a shape means: P(0) = 0, P' > 0, the stability gap
((5/3) P - P' Z)/Z positive and bounded, and P/Z^{5/3} nonincreasing with a
positive limit ``p_inf``.

All state functions broadcast over numpy arrays in (rho, theta).  Both
shapes share one protocol, ``evaluate(z, *names)``: one pass returns one
array per name, among ``"p"`` (P), ``"dp"`` (P'), ``"s"`` (S) and ``"ds"``
(S').  The forms are written twice in all, once for the ``PowerShape``
family and once for the spline, whose pieces a table evaluates from one
piece lookup and one gather, expanded by Horner with no ``np.polynomial``;
a table's head and tail are ``PowerShape`` members evaluated under one mask
pass.  A caller that reads several values at one Z takes them from one
call.  A table keeps the rows it gathered for each length of Z and looks up
again only when some Z leaves its piece, so the stage passes and the Newton
iterates of a run look up about once per length.  The closures apply
formulas written once in (rho, the powers of theta, P, P', S).
``_theta_powers`` builds Z and theta^{3/2}, theta^{5/2}, theta^3, theta^4
from one sqrt, once per closure pass and once per Newton iterate; no other
function raises theta to a fractional or large power.
``stage_closures`` is a budget audit's one EOS pass, and its core
``_stage_closures`` a solver stage's: (p, e_delta, s_delta) from one Z and
one (P, S) pass, or with slopes from one (P, P', S) pass that adds the sound
speed squared, the slopes of rho e_delta in rho and theta and the
theta-slope of p.  Its weight delta gives the energy and entropy of the
regularized system, e_delta = e + delta theta and s_delta = s + delta log
theta; this module is the one place those terms are formed, and at
delta = 0 none is, each value then bitwise equal to its separate closure.
``energy_density_residual`` builds the residual of the solver's temperature
recovery, rho e_delta - w, once per solve (a quartic in theta on the iconic
shape; on a table one (P, P') ``evaluate`` per iterate), ``sound_speed_sq``
is the step limit's sound speed, and ``gibbs_residual`` keeps independent
routes.  Every public state function checks its domain, theta > 0 and
rho > 0 (rho >= 0 for p), through one helper, ``_in_domain``, in which NaN
fails; the slope closures check the domain of the closure they
differentiate, as p or e does.  The two the solver calls in a step,
``_stage_closures`` and ``energy_density_residual``, check none: the
solver floors each density and temperature it hands them where it makes it.
``temperature_from_entropy`` inverts rho s by bracketed Newton in log theta
on ``entropy_density_residual``; ``extended_internal_energy`` E(rho, S) has
closed-form boundary values (radiation at rho = 0, cold on the S = 0 edge).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np


class EosDomainError(ValueError):
    """A state function was evaluated outside its admissible domain."""


class EosValidationError(ValueError):
    """An equation-of-state specification violates a structural hypothesis."""


class OutOfDomainError(EosDomainError):
    """A (rho, S) pair lies outside the image of the (rho, theta) quadrant."""


_FIVE_THIRDS = 5.0 / 3.0


# ---------------------------------------------------------------------------
# pressure shape functions
# ---------------------------------------------------------------------------


class PowerShape:
    """P(Z) = a Z^{5/3} + b Z + c + d/Z: the closed form of every analytic
    region of P, the iconic shape and a table's head and tail.

    The Z^{5/3} term is neutral for the stability gap, so S' = -(3/2)((5/3)P
    - P'Z)/Z^2 = -(b + (2.5 c + 4 d/Z)/Z)/Z, integrated once to S = -b log Z
    + 2.5 c/Z + 2 d/Z^2 + s0.  A zero b, c, d or s0 forms no term, so the
    iconic forms meet no d/Z at Z = 0 and a Third-law tail's no b log Z at
    Z = inf.  The iconic shape is ``PowerShape(p_inf, 1)``, P = Z + p_inf
    Z^{5/3}, whose S = -log Z vanishes at Z = 1.
    """

    def __init__(self, a: float, b: float, c: float = 0.0, d: float = 0.0):
        self.a, self.b, self.c, self.d = float(a), float(b), float(c), float(d)
        self.s0 = 0.0  # the entropy gauge, set by a table's gauge shift

    def evaluate(self, z, *names):
        """One array per name, among ``"p"`` (P), ``"dp"`` (P'), ``"s"`` (the
        entropy shape S) and ``"ds"`` (S'), from one pass over z.  The forms
        are class attributes, functions of (shape, z): a shape then holds no
        reference cycle and is freed by reference counting, not by the
        cyclic garbage collector, whose full passes a run would pay for."""
        z = np.asarray(z, dtype=float)
        return tuple([self._FORMS[n](self, z) for n in names])

    def _p(self, z):
        p = self.a * z ** _FIVE_THIRDS
        p = p + self.b * z if self.b else p
        p = p + self.c if self.c else p
        return p + self.d / z if self.d else p

    def _dp(self, z):
        dp = _FIVE_THIRDS * self.a * z ** (2.0 / 3.0)
        dp = dp + self.b if self.b else dp
        return dp - self.d / (z * z) if self.d else dp

    def _s(self, z):
        with np.errstate(divide="ignore"):  # +inf at Z = 0
            s = -self.b * np.log(z) if self.b else 0.0
        s = s + 2.5 * self.c / z if self.c else s
        s = s + 2.0 * self.d / (z * z) if self.d else s
        return s + self.s0 if self.s0 else s

    def _ds(self, z):
        if not (self.c or self.d):
            with np.errstate(divide="ignore"):  # -inf at Z = 0
                return -self.b / z
        g = (2.5 * self.c + 4.0 * self.d / z if self.d else 2.5 * self.c) / z
        return -(self.b + g) / z if self.b else -g / z

    _FORMS = {"p": _p, "dp": _dp, "s": _s, "ds": _ds}


class TabulatedShape:
    """Monotone piecewise-cubic P(Z) from knots, with admissible head and tail.

    The interpolant keeps its shape-preserving end slopes; the head and
    tail are ``PowerShape`` members with two parameters each, fitted so
    value and slope match at the junctions and P stays C^1:

    * ``head`` (Z < Z_0): ``PowerShape(beta, alpha)``, alpha Z + beta
      Z^{5/3}; the stability gap equals the constant (2/3) alpha.
    * ``tail`` (Z > Z_N), Third-law mode: ``PowerShape(p_inf, 0, c, gamma)``,
      p_inf Z^{5/3} + c + gamma/Z; the entropy shape then decays like 1/Z
      and is normalized to vanish.
    * ``tail``, general mode: ``PowerShape(p_inf, k, gamma)``, p_inf Z^{5/3}
      + k Z + gamma; the entropy shape diverges like -k log Z, matching the
      iconic low-temperature behaviour.

    The tail mode is decided where the tail is fitted, and nowhere else.
    Head and tail S are the family's closed forms and S' their derivatives
    (the gap formula cancels the Z^{5/3} terms of P there and loses every
    digit far out); on the spline S is integrated exactly piece by piece,
    anchored at the tail's S, and S' is the gap formula.  The entropy gauge
    shift sets the head's and the tail's ``s0`` and the pieces' offsets.

    The spline is built in numpy, in the order of operations of scipy's
    ``PchipInterpolator`` slopes and ``CubicHermiteSpline`` coefficients, so
    P and P' equal scipy's spline bitwise.  Each piece's cubic in powers of
    (Z - knot) is expanded to powers of Z by one vectorised Horner pass.
    Every row a piece is evaluated from (P, P', S, the entropy offset and
    the piece's bounds) is one column of a stacked array: evaluation finds
    each z's piece by one ``searchsorted`` over the interior knots and
    gathers its rows by one ``take``.  Piece k covers [knot_k, knot_{k+1}),
    the last one [knot, z_hi].  When one min and one max put every z on the
    spline the pieces run on the whole array; otherwise head, spline and
    tail run under one mask pass, and the cubic never sees a head or tail z
    (far out it overflows).  ``evaluate`` keeps the rows it gathered for a
    1-d z of each length and reuses them while every z stays in its piece.
    """

    def __init__(self, z: Sequence[float], p: Sequence[float], p_inf: float,
                 third_law: bool):
        z = np.asarray(z, dtype=float)
        p = np.asarray(p, dtype=float)
        if z.ndim != 1 or z.shape != p.shape or z.size < 6:
            raise EosValidationError("table needs matching 1-d z/p arrays with >= 6 knots")
        # written so that a NaN fails each check
        if not (np.all(z > 0.0) and np.all(np.diff(z) > 0.0)):
            raise EosValidationError("table knots z must be positive and strictly increasing")
        if not (np.all(p > 0.0) and np.all(np.diff(p) > 0.0)):
            raise EosValidationError("table values p must be positive and strictly increasing")
        with np.errstate(over="ignore"):
            z53 = z ** _FIVE_THIRDS
        if not np.isfinite(z53).all():
            k = int(np.argmin(np.isfinite(z53)))
            raise EosValidationError(f"table knot z[{k}] = {z[k]:g} overflows z^(5/3)")
        g = p / z53
        if np.any(np.diff(g) >= 0.0):
            raise EosValidationError("p/z^{5/3} must be strictly decreasing across the table")
        if g[-1] <= p_inf:
            raise EosValidationError(
                f"table end value p/z^{{5/3}}={g[-1]:.6g} must exceed the asymptote p_inf={p_inf:.6g}")

        # Head/tail interpolate the two outermost knots on each side; the
        # spline spans the interior knots and inherits the closure slopes at
        # the junctions, keeping P globally C^1.
        self.z_lo = float(z[1])
        self.z_hi = float(z[-2])

        # head alpha Z + beta Z^{5/3} through (z0, p0), (z1, p1)
        det = z[0] * z[1] ** _FIVE_THIRDS - z[1] * z[0] ** _FIVE_THIRDS
        alpha = (p[0] * z[1] ** _FIVE_THIRDS - p[1] * z[0] ** _FIVE_THIRDS) / det
        if alpha <= 0.0:
            raise EosValidationError(
                "table start is too steep: the stability gap would close below the first knots")
        self.head = PowerShape((z[0] * p[1] - z[1] * p[0]) / det, alpha)
        d_lo = self.head.evaluate(z[1], "dp")[0]
        if d_lo <= 0.0:
            raise EosValidationError("head closure is not increasing at the junction")

        # tail through (z[-2], p[-2]), (z[-1], p[-1]); S vanishes at the
        # gauge point, which the Third-law tail's S reaches at infinity
        r_a = p[-2] - p_inf * z[-2] ** _FIVE_THIRDS
        r_b = p[-1] - p_inf * z[-1] ** _FIVE_THIRDS
        if third_law:
            gamma = (r_a - r_b) / (1.0 / z[-2] - 1.0 / z[-1])
            c = r_b - gamma / z[-1]
            if c <= 0.0:
                raise EosValidationError(
                    "Third-law tail needs a positive constant offset from the asymptote; "
                    "extend the table to larger Z or lower p_inf")
            if _FIVE_THIRDS * c + (8.0 / 3.0) * gamma / z[-2] <= 0.0:
                raise EosValidationError("tail closure closes the stability gap near the last knots")
            self.tail = PowerShape(p_inf, 0.0, c, gamma)
            gauge_z = math.inf
        else:
            k = (r_b - r_a) / (z[-1] - z[-2])
            gamma = r_b - k * z[-1]
            if k <= 0.0:
                raise EosValidationError(
                    "table end is too shallow: the stability gap would close beyond the last knots")
            if 2.0 * k * z[-2] / 3.0 + _FIVE_THIRDS * gamma <= 0.0:
                raise EosValidationError("tail closure closes the stability gap near the last knots")
            self.tail = PowerShape(p_inf, k, gamma)
            gauge_z = 1.0
        d_hi = self.tail.evaluate(z[-2], "dp")[0]
        if d_hi <= 0.0:
            raise EosValidationError("tail closure is not increasing at the junction")

        # PCHIP slopes (weighted harmonic means of the secants; every secant
        # is positive) at the interior knots, the closure slopes at the
        # junctions, then the Hermite cubic of each piece in powers of
        # (Z - knot), highest first
        h = np.diff(z)
        m = np.diff(p) / h
        w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
        slopes = 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2))
        slopes = np.concatenate([[d_lo], slopes[1:-1], [d_hi]])
        zin, pin = z[1:-1], p[1:-1]
        dx = np.diff(zin)
        secant = np.diff(pin) / dx
        t = (slopes[:-1] + slopes[1:] - 2 * secant) / dx
        self._c = np.stack((t / dx, (secant - slopes[:-1]) / dx - t, slopes[:-1], pin[:-1]))
        self._knots = zin
        self._inner_knots = zin[1:-1]
        # the same cubics in powers of Z, ascending: Horner in the shift
        # Z - knot = Z + q, one pass over every piece
        a3, a2, a1, a0 = self._c
        q = -zin[:-1]
        t2 = a2 + a3 * q
        t1 = a1 + t2 * q
        u2 = t2 + a3 * q
        self._coeffs = np.stack((a0 + t1 * q, t1 + u2 * q, u2 + a3 * q, a3))
        # every row a piece is evaluated from, stacked for one gather: P's
        # cubic in Z - knot, P''s quadratic, S's cubic in Z, the entropy
        # offset (the row ``_offsets`` views, set by the entropy build), and
        # the piece's bounds [knot, next knot), the last one closed at z_hi
        upper = np.append(zin[1:-1], np.nextafter(self.z_hi, math.inf))
        self._rows = np.vstack((self._c, self._c[:-1] * np.array([3.0, 2.0, 1.0])[:, None],
                                self._coeffs, np.zeros(len(zin) - 1), zin[:-1], upper))
        self._offsets = self._rows[self._OFFSET]
        self._kept = {}
        self._build_entropy_pieces(gauge_z)
        self._validate_gap()

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def _cubic_entropy_antideriv(c: np.ndarray, z):
        # Antiderivative of -(3/2)((5/3)P - P'Z)/Z^2 for P cubic in Z.
        return 2.5 * c[0] / z - c[1] * np.log(z) + 0.5 * c[2] * z + c[3] * z * z

    def _build_entropy_pieces(self, gauge_z: float) -> None:
        n_pieces = len(self._knots) - 1
        offs = np.zeros(n_pieces)
        # Anchor at the tail and chain constants backwards for continuity,
        # then shift every constant so that S vanishes at gauge_z.
        s_right = self.tail.evaluate(self.z_hi, "s")[0]
        for k in range(n_pieces - 1, -1, -1):
            c = self._coeffs[:, k]
            zl, zr = self._knots[k], self._knots[k + 1]
            offs[k] = s_right - self._cubic_entropy_antideriv(c, zr)
            s_right = self._cubic_entropy_antideriv(c, zl) + offs[k]
        self._offsets[:] = offs
        self.head.s0 = s_right + self.head.b * math.log(self.z_lo)
        shift = float(self.evaluate(np.array([gauge_z]), "s")[0][0])
        self.head.s0 -= shift
        self.tail.s0 -= shift
        self._offsets -= shift
        # rows gathered before the shift hold the old offsets
        self._kept.clear()

    def _validate_gap(self) -> None:
        zg = np.concatenate([
            np.geomspace(self.z_lo * 1e-3, self.z_lo, 40),
            np.geomspace(self.z_lo, self.z_hi, 400)[1:],
            np.geomspace(self.z_hi, self.z_hi * 1e3, 40)[1:],
        ])
        p, dp = self.evaluate(zg, "p", "dp")
        gap = (_FIVE_THIRDS * p - dp * zg) / zg
        if np.any(gap <= 0.0):
            raise EosValidationError("interpolated table violates the stability gap ((5/3)P - P'Z)/Z > 0")
        if np.any(dp <= 0.0):
            raise EosValidationError("interpolated table is not strictly increasing")

    # -- evaluation ------------------------------------------------------------

    # the rows of ``_rows``: P, P', S, the entropy offset, the piece's bounds
    _P, _DP, _S, _OFFSET, _LO, _HI = slice(0, 4), slice(4, 7), slice(7, 11), 11, 12, 13
    # the lengths whose gathered rows ``evaluate`` keeps: a solver step
    # evaluates on n cells and on n + 2
    _KEPT = 4

    def evaluate(self, z, *names):
        """One array per name, among ``"p"`` (P), ``"dp"`` (P'), ``"s"`` (S)
        and ``"ds"`` (S'), from one pass over z: spline forms take (z, c, s,
        s2) with c the rows of each z's piece, s = z - knot and s2 = s * s,
        head and tail forms take z.

        The rows gathered for a 1-d z on the spline are kept, one set per
        length, for at most ``_KEPT`` lengths.  While every z of a later call
        of that length lies in its kept piece, the forms take those rows with
        no lookup (the correlated table search, ``hunt`` in Press et al.,
        Numerical Recipes, 3rd ed., sec. 3.1): the piece whose [knot, next
        knot) holds z is z's piece, so the values are a lookup's bit for bit.
        A z that left its piece locates every z again."""
        z = np.asarray(z, dtype=float)
        kept = self._kept.get(z.shape)
        if kept is not None:
            s = z - kept[self._LO]
            # z - knot >= 0 exactly when z >= knot; NaN fails
            if s.min() >= 0.0 and (z < kept[self._HI]).all():
                return self._spline(z, kept, s, names)
        # one min and one max put every z on the spline; NaN fails
        if z.size > 0 and z.min() >= self.z_lo and z.max() <= self.z_hi:
            c, values = self._locate(z, names)
            if z.ndim == 1:
                self._kept[z.shape] = c
                if len(self._kept) > self._KEPT:
                    del self._kept[next(iter(self._kept))]
            return values
        lo = z < self.z_lo
        hi = z > self.z_hi
        outs = tuple([np.empty_like(z) for _ in names])
        # a NaN z is neither head nor tail and falls to the spline branch,
        # which locates directly: ``evaluate`` would find it off the spline
        for region, m in ((self.head, lo), (None, ~(lo | hi)), (self.tail, hi)):
            if m.any():
                zm = z[m]
                values = (region.evaluate(zm, *names) if region
                          else self._locate(zm, names)[1])
                for out, v in zip(outs, values):
                    out[m] = v
        return outs

    def _locate(self, z, names):
        """(c, values): c the rows of each z's piece, found by one
        ``searchsorted`` and gathered by one ``take``, and the named spline
        forms evaluated from c."""
        c = self._rows.take(np.searchsorted(self._inner_knots, z, side="right"), axis=1)
        return c, self._spline(z, c, z - c[self._LO], names)

    def _spline(self, z, c, s, names):
        s2 = s * s
        return tuple([self._SPLINE[n](self, z, c, s, s2) for n in names])

    def _spline_p(self, z, c, s, s2):
        a3, a2, a1, a0 = c[self._P]
        return a0 + a1 * s + a2 * s2 + a3 * (s2 * s)

    def _spline_dp(self, z, c, s, s2):
        b2, b1, b0 = c[self._DP]
        return b0 + b1 * s + b2 * s2

    def _spline_s(self, z, c, s, s2):
        return self._cubic_entropy_antideriv(c[self._S], z) + c[self._OFFSET]

    def _spline_ds(self, z, c, s, s2):
        return -1.5 * (_FIVE_THIRDS * self._spline_p(z, c, s, s2)
                       - self._spline_dp(z, c, s, s2) * z) / (z * z)

    _SPLINE = {"p": _spline_p, "dp": _spline_dp, "s": _spline_s, "ds": _spline_ds}


# ---------------------------------------------------------------------------
# specifications and states
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EosSpec:
    """Constitutive closure: shape of P, radiation constant, entropy gauge.

    ``third_law`` asserts that the entropy shape S(Z) decays to zero for
    Z -> infinity.  The iconic shape cannot satisfy it (its S diverges to
    -infinity), so Third-law mode is only accepted for tabulated shapes,
    where the tail construction enforces the decay.
    """

    p_inf: float = 1.0
    a: float = 1.0
    entropy_const: float = 0.0
    third_law: bool = False
    shape: str = "iconic"
    table_z: Optional[tuple] = None
    table_p: Optional[tuple] = None
    shape_fn: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # written so that a NaN fails each check
        if not self.p_inf > 0.0:
            raise EosValidationError(f"p_inf must be positive, got {self.p_inf}")
        if not self.a >= 0.0:
            raise EosValidationError(f"radiation constant a must be nonnegative, got {self.a}")
        if self.shape == "iconic":
            if self.third_law:
                raise EosValidationError(
                    "the iconic shape has S(Z) ~ -log Z and cannot satisfy the Third law; "
                    "use a tabulated shape for Third-law mode")
            fn = PowerShape(self.p_inf, 1.0)
        elif self.shape == "table":
            if self.table_z is None or self.table_p is None:
                raise EosValidationError("tabulated shape requires table_z and table_p")
            if self.third_law and self.entropy_const != 0.0:
                raise EosValidationError("Third-law mode pins the entropy gauge; entropy_const must be 0")
            fn = TabulatedShape(self.table_z, self.table_p, self.p_inf, self.third_law)
        else:
            raise EosValidationError(f"unknown pressure shape {self.shape!r}")
        object.__setattr__(self, "shape_fn", fn)


def iconic_eos(p_inf: float = 1.0, a: float = 1.0, entropy_const: float = 0.0) -> EosSpec:
    return EosSpec(p_inf=p_inf, a=a, entropy_const=entropy_const)


def tabulated_eos(z, p, p_inf: float = 1.0, a: float = 1.0,
                  third_law: bool = True, entropy_const: float = 0.0) -> EosSpec:
    return EosSpec(p_inf=p_inf, a=a, entropy_const=entropy_const,
                   third_law=third_law, shape="table",
                   table_z=tuple(float(v) for v in z),
                   table_p=tuple(float(v) for v in p))


@dataclass(frozen=True)
class TransportSpec:
    """Temperature-dependent transport coefficients: the power-law family
    of the theory, set by four scales.

    mu = mu_scale (1 + theta^lambda_exp), eta = eta_scale (same growth) and
    kappa = kappa_scale (1 + theta^3), with lambda_exp in (2/5, 1],
    mu_scale > 0, eta_scale >= 0 and kappa_scale > 0.
    """

    lambda_exp: float = 0.5
    mu_scale: float = 1.0
    eta_scale: float = 0.0
    kappa_scale: float = 1.0

    def __post_init__(self):
        if not (0.4 < self.lambda_exp <= 1.0):
            raise EosValidationError(
                f"lambda_exp must lie in (2/5, 1], got {self.lambda_exp}")
        if not self.mu_scale > 0.0:
            raise EosValidationError("shear viscosity scale must be positive")
        if not self.kappa_scale > 0.0:
            raise EosValidationError("conductivity scale must be positive")
        if not self.eta_scale >= 0.0:
            raise EosValidationError("bulk viscosity scale must be nonnegative")

    # the forms take theta as a float or an array, real or complex (the
    # manufactured sources take their theta-slopes by a complex step)
    def mu(self, theta):
        return self.mu_scale * (1.0 + theta ** self.lambda_exp)

    def eta(self, theta):
        return self.eta_scale * (1.0 + theta ** self.lambda_exp)

    def kappa(self, theta):
        return self.kappa_scale * (1.0 + theta * theta * theta)


@dataclass(frozen=True)
class ThermoState:
    """Fluid state in standard variables (rho, u, theta)."""

    rho: float
    u: np.ndarray
    theta: float

    def __post_init__(self):
        object.__setattr__(self, "u", np.atleast_1d(np.asarray(self.u, dtype=float)))
        _p_domain(self.rho, self.theta)


@dataclass(frozen=True)
class ConservativeState:
    """Fluid state in conservative-entropy variables (rho, m, S)."""

    rho: float
    m: np.ndarray
    S: float

    def __post_init__(self):
        object.__setattr__(self, "m", np.atleast_1d(np.asarray(self.m, dtype=float)))
        _in_domain(self.rho, "density", closed=True)
        if self.rho == 0.0 and np.any(self.m != 0.0):
            raise EosDomainError("momentum must vanish where density vanishes")


# ---------------------------------------------------------------------------
# state functions
# ---------------------------------------------------------------------------


class _ThetaPowers(NamedTuple):
    """Z = rho / theta^{3/2} and the powers of theta the closures take."""

    z: np.ndarray
    t15: np.ndarray
    t25: np.ndarray
    t3: np.ndarray
    t4: np.ndarray


def _theta_powers(rho, theta, energy: bool = True) -> _ThetaPowers:
    """Z and theta^{3/2}, theta^{5/2}, theta^3, theta^4 from one sqrt and five
    products: the only place the closures raise theta to a fractional or
    large power.  Without ``energy`` theta^{5/2} and theta^4, which only p
    and e read, are None: the entropy then overflows no sooner than theta^3."""
    theta = np.asarray(theta, dtype=float)
    root = np.sqrt(theta)
    t2 = theta * theta
    t15 = theta * root
    z = np.asarray(rho, dtype=float) / t15
    if not energy:
        return _ThetaPowers(z, t15, None, t2 * theta, None)
    return _ThetaPowers(z, t15, t2 * root, t2 * theta, t2 * t2)


# Closure formulas in (rho, theta), the powers of theta and the shape values
# (P, P', S) at Z.


def _pressure(eos: EosSpec, pw, p):
    return pw.t25 * p + (eos.a / 3.0) * pw.t4


def _entropy(eos: EosSpec, rho, pw, s_shape):
    return s_shape + eos.entropy_const + (4.0 * eos.a / 3.0) * pw.t3 / rho


def _energy(eos: EosSpec, rho, pw, p):
    return 1.5 * pw.t25 / rho * p + eos.a * pw.t4 / rho


def _energy_theta(eos: EosSpec, rho, pw, p, dp):
    return 3.75 * pw.t15 / rho * p - 2.25 * dp + 4.0 * eos.a * pw.t3 / rho


def _pressure_rho(theta, dp):
    return theta * dp


def _pressure_theta(eos: EosSpec, rho, pw, p, dp):
    return 2.5 * pw.t15 * p - 1.5 * rho * dp + (4.0 * eos.a / 3.0) * pw.t3


def _slopes(eos: EosSpec, rho, theta, pw, p, dp):
    """(c^2, d(rho e)/drho|theta, d(rho e)/dtheta|rho, dp/dtheta|rho): the
    adiabatic sound speed squared dp/drho|theta + (dp/dtheta)^2 theta /
    (rho^2 de/dtheta), the slopes of rho e, the first (3/2) theta P'(Z) =
    (3/2) dp/drho, and the theta-slope of p the sound speed reads."""
    p_rho = _pressure_rho(theta, dp)
    p_theta = _pressure_theta(eos, rho, pw, p, dp)
    e_theta = _energy_theta(eos, rho, pw, p, dp)
    return (p_rho + p_theta * p_theta * theta / (rho * rho * e_theta), 1.5 * p_rho,
            rho * e_theta, p_theta)


def _in_domain(x, name, error=EosDomainError, closed=False, hint=""):
    """x as a float array, after the one domain check of a state: x > 0 in
    every entry, or x >= 0 when ``closed``; NaN fails either.  A failure
    raises ``error`` naming the field and its bound, then ``hint``."""
    x = np.asarray(x, dtype=float)
    if not (x >= 0.0 if closed else x > 0.0).all():
        raise error(f"{name} must be {'nonnegative' if closed else 'positive'}{hint}")
    return x


# the density check of e points to its closure at rho = 0
_E_HINT = "; use extended_internal_energy for the rho = 0 closure"


def _p_domain(rho, theta):
    """(rho, theta) as arrays, after the checks of p: theta > 0, then rho >= 0."""
    theta = _in_domain(theta, "temperature")
    return _in_domain(rho, "density", closed=True), theta


def _e_domain(rho, theta):
    """(rho, theta) as arrays, after the checks of e: theta > 0, then rho > 0."""
    theta = _in_domain(theta, "temperature")
    return _in_domain(rho, "density", hint=_E_HINT), theta


def pressure(eos: EosSpec, rho, theta):
    """p(rho, theta); strictly increasing in rho at fixed theta."""
    rho, theta = _p_domain(rho, theta)
    pw = _theta_powers(rho, theta)
    return _pressure(eos, pw, eos.shape_fn.evaluate(pw.z, "p")[0])


def specific_internal_energy(eos: EosSpec, rho, theta):
    """e(rho, theta); strictly increasing in theta at fixed rho."""
    rho, theta = _e_domain(rho, theta)
    pw = _theta_powers(rho, theta)
    return _energy(eos, rho, pw, eos.shape_fn.evaluate(pw.z, "p")[0])


def stage_closures(eos: EosSpec, rho, theta, slopes: bool = False, delta: float = 0.0):
    """(p, e_delta, s_delta) at (rho, theta) from one Z and one (P, S) shape
    pass, with e_delta = e + delta theta and s_delta = s + delta log theta
    the energy and entropy of the regularized system.

    With ``slopes``, one (P, P', S) pass returns (p, e_delta, s_delta, c^2,
    w_rho, w_theta, p_theta): the sound speed squared of ``sound_speed_sq``,
    the slopes w_rho = d(rho e_delta)/drho|theta and w_theta =
    d(rho e_delta)/dtheta|rho, and p_theta = dp/dtheta|rho.  Checks theta > 0
    and then rho > 0 once, with the messages of ``specific_internal_energy``;
    at delta = 0 no delta term is formed and each value equals its own
    closure's bitwise.
    """
    rho, theta = _e_domain(rho, theta)
    return _stage_closures(eos, rho, theta, slopes, delta)


def _stage_closures(eos: EosSpec, rho, theta, slopes: bool, delta: float):
    """``stage_closures`` with no domain check, on float arrays: the solver's
    stage pass, whose states are above their floors."""
    pw = _theta_powers(rho, theta)
    if slopes:
        p, dp, s_shape = eos.shape_fn.evaluate(pw.z, "p", "dp", "s")
    else:
        p, s_shape = eos.shape_fn.evaluate(pw.z, "p", "s")
    e, s = _energy(eos, rho, pw, p), _entropy(eos, rho, pw, s_shape)
    if delta:
        e, s = e + delta * theta, s + delta * np.log(theta)
    closures = (_pressure(eos, pw, p), e, s)
    if not slopes:
        return closures
    c2, w_rho, w_theta, p_theta = _slopes(eos, rho, theta, pw, p, dp)
    if delta:
        w_rho, w_theta = w_rho + delta * theta, w_theta + delta * rho
    return (*closures, c2, w_rho, w_theta, p_theta)


def energy_density_residual(eos: EosSpec, rho, w, delta: float = 0.0):
    """theta -> (rho e_delta - w, d(rho e_delta)/dtheta) at fixed (rho, w),
    with e_delta = e + delta theta: the residual of the temperature recovery.

    It checks no domain: its one caller in the package, the solver's
    recovery, is handed rho above its floor and a positive theta.  On the
    iconic shape rho e_delta = a theta^4 + (3/2 + delta) rho theta
    + (3/2) p_inf rho^{5/3}, a quartic whose coefficients are set up once,
    so an iterate evaluates no Z, no shape and no domain check.  On a table
    an iterate evaluates the powers of theta, Z and one (P, P') by the
    shape's ``evaluate``, which reuses the spline pieces of its last call
    on Z's length while every Z stays in its piece.  Called with
    ``slope=False`` the residual returns its value alone, one P and no P'.
    At delta = 0 no delta term is formed.
    """
    rho, w = np.asarray(rho, dtype=float), np.asarray(w, dtype=float)
    if eos.shape == "iconic":
        a, b = eos.a, (1.5 + delta) * rho
        c = cold_energy_density(eos, rho) - w

        def quartic(theta, slope=True):
            a_theta3 = a * (theta * theta * theta)
            f = (a_theta3 + b) * theta + c
            return (f, 4.0 * a_theta3 + b) if slope else f
        return quartic

    evaluate = eos.shape_fn.evaluate

    def residual(theta, slope=True):
        theta = np.asarray(theta, dtype=float)
        pw = _theta_powers(rho, theta)
        p, dp = evaluate(pw.z, "p", "dp") if slope else (evaluate(pw.z, "p")[0], None)
        e = _energy(eos, rho, pw, p)
        if delta:
            e = e + delta * theta
        f = rho * e - w
        if not slope:
            return f
        e_theta = _energy_theta(eos, rho, pw, p, dp)
        return f, rho * (e_theta + delta if delta else e_theta)
    return residual


def entropy_density_residual(eos: EosSpec, rho, S):
    """x -> (rho s - S, d(rho s)/dx) at theta = e^x and fixed (rho, S): the
    residual of the entropy inversion, in x = log theta; checks rho > 0.

    On the iconic shape rho s = rho (1.5 x - log rho + entropy_const)
    + (4a/3) e^{3x}: no Z and no overflow.  Other shapes evaluate
    ``specific_entropy`` and ``entropy_theta_slope`` at theta = e^x.
    """
    rho = _in_domain(rho, "density", OutOfDomainError)
    if eos.shape == "iconic":
        b = 1.5 * rho
        c = rho * (eos.entropy_const - np.log(rho)) - S
        r = 4.0 * eos.a / 3.0

        def closed_form(x):
            radiation = r * np.exp(3.0 * x)
            return b * x + c + radiation, b + 3.0 * radiation
        return closed_form

    def residual(x):
        theta = np.exp(x)
        return (rho * specific_entropy(eos, rho, theta) - S,
                rho * theta * entropy_theta_slope(eos, rho, theta))
    return residual


def specific_entropy(eos: EosSpec, rho, theta):
    """s(rho, theta) = S(rho/theta^{3/2}) + (4a/3) theta^3 / rho."""
    theta = _in_domain(theta, "temperature")
    rho = _in_domain(rho, "density")
    pw = _theta_powers(rho, theta, energy=False)
    return _entropy(eos, rho, pw, eos.shape_fn.evaluate(pw.z, "s")[0])


def pressure_rho_slope(eos: EosSpec, rho, theta):
    """dp/drho at fixed theta ( = theta P'(Z) )."""
    rho, theta = _p_domain(rho, theta)
    dp = eos.shape_fn.evaluate(_theta_powers(rho, theta, energy=False).z, "dp")[0]
    return _pressure_rho(theta, dp)


def pressure_theta_slope(eos: EosSpec, rho, theta):
    """dp/dtheta at fixed rho."""
    rho, theta = _p_domain(rho, theta)
    pw = _theta_powers(rho, theta)
    p, dp = eos.shape_fn.evaluate(pw.z, "p", "dp")
    return _pressure_theta(eos, rho, pw, p, dp)


def energy_theta_slope(eos: EosSpec, rho, theta):
    """de/dtheta at fixed rho (specific-heat-like, positive by stability)."""
    rho, theta = _e_domain(rho, theta)
    pw = _theta_powers(rho, theta)
    p, dp = eos.shape_fn.evaluate(pw.z, "p", "dp")
    return _energy_theta(eos, rho, pw, p, dp)


def entropy_theta_slope(eos: EosSpec, rho, theta):
    """ds/dtheta at fixed rho ( = de/dtheta / theta, by Gibbs)."""
    rho, theta = _e_domain(rho, theta)
    z = _theta_powers(rho, theta, energy=False).z
    return (-1.5 * z / theta * eos.shape_fn.evaluate(z, "ds")[0]
            + 4.0 * eos.a * theta ** 2 / rho)


def gibbs_residual(eos: EosSpec, rho, theta):
    """Residuals of Gibbs' relation, (theta s_theta - e_theta,
    theta s_rho - e_rho + p/rho^2).

    Both components vanish identically for a consistent closure.  The
    radiation monomials are common subexpressions of both routes and cancel
    exactly; the returned residuals probe the P / S(Z) derivation, with the
    entropy route going through S'(Z) and the energy route through direct
    differentiation of theta^{5/2} P(Z).
    """
    (s1, e1), (s2, e2, p2) = _gibbs_terms(eos, rho, theta)
    return s1 + e1, s2 + e2 + p2


def _gibbs_terms(eos: EosSpec, rho, theta):
    """The terms of the two Gibbs residuals, ((s_1, -e_1), (s_2, -e_2, p_2)):
    each residual is the sum of its terms."""
    theta = _in_domain(theta, "temperature")
    rho = _in_domain(rho, "density")
    pw = _theta_powers(rho, theta)
    z = pw.z
    pz, dpz, sz = eos.shape_fn.evaluate(z, "p", "dp", "ds")

    # theta * d(S(Z))/dtheta  vs  d/dtheta of the P-part of e
    s_route_1 = -1.5 * z * sz
    e_route_1 = 3.75 * pw.t15 / rho * pz - 2.25 * dpz

    # theta * d(S(Z))/drho  vs  d/drho of the P-part of (e - p/rho)
    s_route_2 = sz * theta / pw.t15
    e_route_2 = 1.5 * (theta * dpz / rho - pw.t25 * pz / rho ** 2)
    p_route_2 = pw.t25 * pz / rho ** 2
    return (s_route_1, -e_route_1), (s_route_2, -e_route_2, p_route_2)


def stability_margins(eos: EosSpec, rho, theta):
    """(dp/drho|_theta, de/dtheta|_rho); both positive for admissible closures."""
    rho, theta = _e_domain(rho, theta)
    return pressure_rho_slope(eos, rho, theta), energy_theta_slope(eos, rho, theta)


def sound_speed_sq(eos: EosSpec, rho, theta):
    """Adiabatic sound speed squared, dp/drho|_theta + (dp/dtheta)^2 theta / (rho^2 de/dtheta),
    from one Z and one (P, P') pass."""
    rho, theta = _e_domain(rho, theta)
    pw = _theta_powers(rho, theta)
    return _slopes(eos, rho, theta, pw, *eos.shape_fn.evaluate(pw.z, "p", "dp"))[0]


def transport_coefficients(ts: TransportSpec, theta):
    """(mu, eta, kappa) at temperature theta."""
    theta = _in_domain(theta, "temperature")
    return ts.mu(theta), ts.eta(theta), ts.kappa(theta)


# ---------------------------------------------------------------------------
# variable transforms
# ---------------------------------------------------------------------------


# The entropy inversion's bracket in theta, the same for every caller; at
# the hot end the radiation entropy (4a/3) theta^3 is still finite.
_THETA_COLD, _THETA_HOT = 1e-180, 1e100


def temperature_from_entropy(eos: EosSpec, rho, S):
    """Solve rho s(rho, theta) = S for theta (unique by stability).

    Newton in x = log theta on ``entropy_density_residual``, safeguarded by
    a sign bracket as in rtsafe (Press et al., Numerical Recipes, sec. 9.4):
    the bracket starts at theta in [1e-180, 1e100], each iterate tightens it,
    and a Newton step that would leave it, or would not halve the step
    before the last, becomes a bisection.  Iterates start at theta = 1; a
    cell is done after its first Newton step below 1e-9 in x, whose error
    is of the order of its square.  Raises OutOfDomainError when the
    bracket does not straddle a root, e.g. for S <= 0 in Third-law mode.
    """
    f = entropy_density_residual(eos, rho, S)
    lo, hi = math.log(_THETA_COLD), math.log(_THETA_HOT)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        f_lo, _ = f(lo)
        f_hi, _ = f(hi)
        if not (np.all(f_lo <= 0.0) and np.all(f_hi >= 0.0)):
            raise OutOfDomainError(
                "monotone solve not bracketed: "
                f"f({_THETA_COLD:g}) in [{np.min(f_lo):.6g}, {np.max(f_lo):.6g}], "
                f"f({_THETA_HOT:g}) in [{np.min(f_hi):.6g}, {np.max(f_hi):.6g}]")
        shape = np.shape(f_lo)
        a, b, x = np.full(shape, lo), np.full(shape, hi), np.zeros(shape)
        done = np.zeros(shape, dtype=bool)
        step = step_old = b - a
        # bisection alone takes the bracket to rounding in 60 iterates
        for _ in range(100):
            fx, dfx = f(x)
            below = fx < 0.0
            a = np.where(below, x, a)
            b = np.where(below, b, x)
            newton = fx / dfx
            ok = (a <= x - newton) & (x - newton <= b) & (np.abs(newton) <= 0.5 * np.abs(step_old))
            step_old, step = step, np.where(ok, newton, x - 0.5 * (a + b))
            x = np.where(done, x, x - step)
            done |= ok & (np.abs(newton) <= 1e-9)
            if done.all():
                break
    return np.exp(x)


def to_conservative(eos: EosSpec, state: ThermoState) -> ConservativeState:
    """(rho, u, theta) -> (rho, rho u, rho s); ``specific_entropy`` checks
    rho > 0."""
    s = float(specific_entropy(eos, state.rho, state.theta))
    return ConservativeState(rho=state.rho, m=state.rho * state.u, S=state.rho * s)


def from_conservative(eos: EosSpec, c: ConservativeState) -> ThermoState:
    """(rho, m, S) -> (rho, m/rho, theta); theta by monotone inversion,
    which checks rho > 0."""
    theta = float(temperature_from_entropy(eos, c.rho, c.S))
    return ThermoState(rho=c.rho, u=c.m / c.rho, theta=theta)


# ---------------------------------------------------------------------------
# extended internal energy E(rho, S) = rho e, convex l.s.c. on the plane
# ---------------------------------------------------------------------------


def cold_energy_density(eos: EosSpec, rho):
    """(3/2) p_inf rho^{5/3}: the theta -> 0 limit of rho e at fixed rho,
    shape-independent by the asymptote P(Z)/Z^{5/3} -> p_inf.  It is +inf
    where it overflows, for a float rho as for an array."""
    try:
        return 1.5 * eos.p_inf * rho ** _FIVE_THIRDS
    except OverflowError:  # a float's ** raises where an array's rounds to inf
        return math.inf


def extended_internal_energy(eos: EosSpec, rho: float, S: float) -> float:
    """rho e as a total convex l.s.c. function of (rho, S).

    Interior points, {rho > 0, S > 0} in Third-law mode and {rho > 0}
    otherwise, go through the temperature inversion; off the closure of
    that set E = +inf.  Boundary values are limits from the interior
    (Rockafellar, Convex Analysis, Thm 7.5), in closed form: at rho = 0
    a (3 S^+ / 4a)^{4/3}, or for a = 0 zero at S <= 0 and +inf at S > 0; on
    the Third-law edge S = 0 the cold energy ``cold_energy_density``.
    Where the cold energy, a lower bound of E, overflows, E = +inf.
    The iconic inversion without radiation is closed-form at any S.  Past
    the hot end theta = 1e100, E is +inf where rho e overflows there (a > 0);
    otherwise the inversion raises OutOfDomainError.  A NaN rho or S raises
    EosDomainError.
    """
    rho = float(rho)
    S = float(S)
    if math.isnan(rho) or math.isnan(S):
        raise EosDomainError(f"extended_internal_energy needs a number for rho and S, "
                             f"got rho = {rho}, S = {S}")
    if rho < 0.0 or (eos.third_law and S < 0.0):
        return math.inf
    if rho == 0.0:
        if eos.a > 0.0:
            return eos.a * (0.75 * max(S, 0.0) / eos.a) ** (4.0 / 3.0)
        return 0.0 if S <= 0.0 else math.inf
    cold = float(cold_energy_density(eos, rho))
    if cold == math.inf:  # E >= the cold energy
        return math.inf
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if eos.shape == "iconic" and eos.a == 0.0:
            # rho s = rho (1.5 log theta - log rho + entropy_const), rho e = 1.5 rho theta + cold
            theta = float(np.exp((S / rho + math.log(rho) - eos.entropy_const) / 1.5))
            return 1.5 * rho * theta + cold
        if S <= rho * float(specific_entropy(eos, rho, _THETA_COLD)):
            # the Third-law edge S = 0, or a temperature below the bracket
            return cold
        try:
            theta = float(temperature_from_entropy(eos, rho, S))
        except OutOfDomainError:
            # S past the hot end, where rho e exceeds its value at theta = 1e100
            if math.isfinite(rho * float(specific_internal_energy(eos, rho, _THETA_HOT))):
                raise
            return math.inf
        w = rho * float(specific_internal_energy(eos, rho, theta))
    if not math.isfinite(w):
        # the closure overflows: hot, rho e exceeds the floats; cold, near
        # the bracket's end, it has saturated at the cold energy
        return math.inf if theta > 1.0 else cold
    return w


def _energy_density_rho_slope(rho, theta, p, e, s):
    """d(rho e)/drho|_S = e - theta s + p/rho from (p, e, s) at (rho, theta)."""
    return e - theta * s + p / np.asarray(rho, dtype=float)


def energy_density_gradient(eos: EosSpec, rho, theta):
    """(d(rho e)/drho|_S, d(rho e)/dS|_rho) at an interior state.

    Equals (e - theta s + p/rho, theta); the first component is the
    chemical-potential-like coefficient of the supporting plane.
    """
    return _energy_density_rho_slope(rho, theta, *stage_closures(eos, rho, theta)), theta


# ---------------------------------------------------------------------------
# structural validation (CLI `check-eos` backend)
# ---------------------------------------------------------------------------


def _first_not_finite(names, values, where) -> Optional[str]:
    """None if every array of ``values`` is finite, else which is first not
    and where, ``where(k)`` naming grid point k."""
    for name, vals in zip(names, values):
        if not np.isfinite(vals).all():
            return f"{name} is not finite at {where(np.argmin(np.isfinite(vals)))}"
    return None


def _closures_not_finite(eos: EosSpec, rho, theta, label) -> Optional[str]:
    """None if a closure pass with slopes at (rho, theta) > 0 is finite, else
    which closure is first not and where, ``label(k)`` prefixing the state
    of point k; the pass runs with numpy's warnings off."""
    with np.errstate(all="ignore"):
        closures = stage_closures(eos, rho, theta, slopes=True)
    return _first_not_finite(
        [f"the closure {name}" for name in ("p", "e", "s", "c^2", "d(rho e)/drho",
                                            "d(rho e)/dtheta", "dp/dtheta")],
        closures, lambda k: f"{label(k)}rho = {rho[k]:.3g}, theta = {theta[k]:.3g}")


def check_eos_invariants(eos: EosSpec) -> dict:
    """Evaluate the structural hypotheses on a 400-point log grid; {name: (ok, detail)}.

    The first two entries ask whether the shape's P, P' and S' on that grid
    and a closure pass with slopes on the (rho, theta) grid of the Gibbs
    check are finite; they are evaluated with numpy's warnings off, and if
    either fails no other check runs, so nothing warns."""
    shape = eos.shape_fn
    z = np.geomspace(1e-3, 1e3, 400)
    rho, theta = np.full(64, 1.7), np.geomspace(0.2, 5.0, 64)
    with np.errstate(all="ignore"):
        p, dp, sz = shape.evaluate(z, "p", "dp", "ds")
    bad = _first_not_finite(("the shape's P", "the shape's P'", "the shape's S'"),
                            (p, dp, sz), lambda k: f"Z = {z[k]:.3g}")
    results = {"shape finite": (bad is None, bad or "P, P' and S' finite on the grid")}
    if bad:
        return results
    bad = _closures_not_finite(eos, rho, theta, lambda k: "")
    results["closures finite"] = (bad is None, bad or "closures and slopes finite on the grid")
    if bad:
        return results

    p0 = float(shape.evaluate(np.array([0.0]), "p")[0][0])
    results["P(0) = 0"] = (abs(p0) < 1e-9, f"P(0) = {p0:.3g}")

    results["P' > 0"] = (bool(np.all(dp > 0.0)), f"min P' = {np.min(dp):.3g}")

    gap = (_FIVE_THIRDS * p - dp * z) / z
    results["stability gap positive"] = (bool(np.all(gap > 0.0)), f"min gap = {np.min(gap):.3g}")
    results["stability gap bounded"] = (bool(np.max(gap) < 1e6), f"max gap = {np.max(gap):.3g}")

    g = p / z ** _FIVE_THIRDS
    mono = bool(np.all(np.diff(g) <= 1e-12 * np.abs(g[:-1])))
    results["P/Z^{5/3} nonincreasing"] = (mono, f"max increase = {np.max(np.diff(g)):.3g}")
    results["asymptote approaches p_inf"] = (
        bool(g[-1] >= eos.p_inf - 1e-9), f"P/Z^(5/3) at Z=1e3: {g[-1]:.6g} vs p_inf {eos.p_inf:.6g}")

    results["entropy shape decreasing"] = (bool(np.all(sz < 0.0)), f"max S'(Z) = {np.max(sz):.3g}")

    # the rounding of a residual grows with its terms (P is large on a steep
    # table), so each is measured against 1 + the magnitudes of its terms
    gmax = max(float(np.max(np.abs(sum(terms)) / (1.0 + sum(np.abs(t) for t in terms))))
               for terms in _gibbs_terms(eos, rho, theta))
    results["Gibbs relation"] = (gmax < 1e-10, f"max relative residual = {gmax:.3g}")
    return results
